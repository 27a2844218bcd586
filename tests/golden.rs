//! Golden-file regression tests: fixed-seed simulations must reproduce
//! their recorded stats byte-for-byte. Any intentional change to the
//! simulator's behaviour shows up here as a readable stats diff;
//! regenerate with `UPDATE_GOLDEN=1 cargo test --test golden`.
//!
//! Two cases pin opposite ends of the load range: a busy 2x2 dedup run
//! whose NoC is rarely empty, and an idle-heavy 4x4 swaptions run that
//! spends most of its cycles with no packet in the network (so it
//! exercises the quiescent-span jump of the cycle loop).

use disco::core::{CompressionPlacement, SimBuilder};
use disco::workloads::Benchmark;
use std::path::Path;

fn current_stats(cols: usize, rows: usize, benchmark: Benchmark, trace_len: usize) -> String {
    let report = SimBuilder::new()
        .mesh(cols, rows)
        .placement(CompressionPlacement::Disco)
        .benchmark(benchmark)
        .trace_len(trace_len)
        .seed(2016)
        .run()
        .expect("golden run drains");
    let mut buf = Vec::new();
    report.write_stats(&mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("stats are utf8")
}

fn check_golden(file: &str, current: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(file);
    // Golden runs never arm a fault plan, so no `faults.*` keys may
    // appear even on `--features faults` builds (the stats files must be
    // identical across feature legs).
    assert!(
        !current.contains("faults."),
        "fault keys leaked into a fault-free run"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, current).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|_| {
        panic!(
            "missing {golden_path:?}; run `UPDATE_GOLDEN=1 cargo test --test golden` to create it"
        )
    });
    if golden != current {
        // Produce a line diff so the regression is readable.
        let mut diff = String::new();
        for (g, c) in golden.lines().zip(current.lines()) {
            if g != c {
                diff.push_str(&format!("  - {g}\n  + {c}\n"));
            }
        }
        panic!(
            "fixed-seed stats diverged from {file} \
             (intentional? UPDATE_GOLDEN=1 cargo test --test golden):\n{diff}"
        );
    }
}

#[test]
fn fixed_seed_run_matches_golden_stats() {
    check_golden(
        "golden_stats.txt",
        &current_stats(2, 2, Benchmark::Dedup, 400),
    );
}

#[test]
fn idle_heavy_run_matches_golden_stats() {
    check_golden(
        "golden_stats_idle.txt",
        &current_stats(4, 4, Benchmark::Swaptions, 2000),
    );
}
