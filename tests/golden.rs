//! Golden-file regression tests: fixed-seed simulations must reproduce
//! their recorded stats byte-for-byte. Any intentional change to the
//! simulator's behaviour shows up here as a readable stats diff;
//! regenerate with `UPDATE_GOLDEN=1 cargo test --test golden`.
//!
//! Two cases pin opposite ends of the load range: a busy 2x2 dedup run
//! whose NoC is rarely empty, and an idle-heavy 4x4 swaptions run that
//! spends most of its cycles with no packet in the network (so it
//! exercises the quiescent-span jump of the cycle loop). A third runs
//! virtual cut-through with the §3.3-B demotion rule, so whole-packet VC
//! allocation and multi-class priority arbitration are pinned too. Under
//! the `trace` feature a fourth pins the order of the event stream
//! itself, which the stats cannot see.

use disco::core::{CompressionPlacement, SimBuilder};
use disco::noc::{FlowControl, NocConfig};
use disco::workloads::Benchmark;
use std::path::Path;

fn golden_run(cols: usize, rows: usize, benchmark: Benchmark, trace_len: usize) -> SimBuilder {
    SimBuilder::new()
        .mesh(cols, rows)
        .placement(CompressionPlacement::Disco)
        .benchmark(benchmark)
        .trace_len(trace_len)
        .seed(2016)
}

fn stats_of(builder: SimBuilder) -> String {
    let report = builder.run().expect("golden run drains");
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
        &stats_of(golden_run(2, 2, Benchmark::Dedup, 400)),
    );
}

#[test]
fn idle_heavy_run_matches_golden_stats() {
    check_golden(
        "golden_stats_idle.txt",
        &stats_of(golden_run(4, 4, Benchmark::Swaptions, 2000)),
    );
}

#[test]
fn cut_through_demotion_run_matches_golden_stats() {
    let noc = NocConfig {
        flow_control: FlowControl::VirtualCutThrough,
        ..NocConfig::default()
    };
    check_golden(
        "golden_stats_vct.txt",
        &stats_of(
            golden_run(4, 4, Benchmark::Dedup, 600)
                .noc(noc)
                .demote_uncompressed(true),
        ),
    );
}

/// FNV-1a over the exported JSONL of every retained record of a
/// contended 4x4 dedup run: Route/VcAlloc/VcStall/Traverse order within
/// a cycle is what DISCO's candidate tie-breaks follow, and only this
/// hash pins it byte for byte.
#[cfg(feature = "trace")]
#[test]
fn trace_record_stream_matches_golden_hash() {
    let report = golden_run(4, 4, Benchmark::Dedup, 800)
        .retain_trace_records(true)
        .run()
        .expect("golden run drains");
    let t = report.trace.expect("capture requested");
    let jsonl = disco::trace::export::jsonl_string(&t.records);
    let hash = jsonl.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    check_golden(
        "golden_trace_hash.txt",
        &format!("records {}\nfnv1a64 {hash:016x}\n", t.records.len()),
    );
}
