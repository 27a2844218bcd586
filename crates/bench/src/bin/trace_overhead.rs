//! Tracing-overhead benchmark: the same uniform-random sweep run with the
//! tracer off (this binary built without `--features trace`) and on (built
//! with it, across ring capacities 2^12 .. 2^20), emitting a
//! machine-readable `BENCH_pr4*.json`.
//!
//! Two invariants back the "zero behavioral impact" claim:
//!
//! - the FNV-1a fingerprint over every point's final `NetworkStats` must
//!   match between the untraced and traced builds (pass the untraced run's
//!   JSON via `--baseline` to have the traced run assert it);
//! - an untraced build of this workspace is byte-identical to one without
//!   the trace crate wired in at all, because every emission site expands
//!   to nothing (the golden stats test pins the observable half of that).
//!
//! `cargo run --release -p disco-bench --bin trace_overhead -- \
//!     [--mesh 8] [--cycles 20000] [--rates 0.05,0.1,0.2] \
//!     [--out BENCH_pr4_off.json]`
//! `cargo run --release -p disco-bench --features trace --bin trace_overhead -- \
//!     --baseline BENCH_pr4_off.json [--out BENCH_pr4.json]`

use disco_bench::sweep::{run_sweep, PointResult, SweepPoint};
use disco_noc::traffic::TrafficPattern;
use disco_pareto::json::{self, Json};
use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    mesh: usize,
    cycles: u64,
    rates: Vec<f64>,
    out: String,
    baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mesh: 8,
        cycles: 20_000,
        rates: vec![0.05, 0.1, 0.2],
        out: if cfg!(feature = "trace") {
            "BENCH_pr4.json".to_string()
        } else {
            "BENCH_pr4_off.json".to_string()
        },
        baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("invalid {what}: {value}");
        match flag.as_str() {
            "--mesh" => args.mesh = value.parse().map_err(|_| bad("--mesh"))?,
            "--cycles" => args.cycles = value.parse().map_err(|_| bad("--cycles"))?,
            "--rates" => {
                args.rates = value
                    .split(',')
                    .map(|r| r.trim().parse().map_err(|_| bad("--rates")))
                    .collect::<Result<_, _>>()?;
            }
            "--out" => args.out = value,
            "--baseline" => args.baseline = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn points_for(args: &Args, trace_capacity: usize) -> Vec<SweepPoint> {
    let seeds = [disco_bench::DEFAULT_SEED, disco_bench::DEFAULT_SEED + 2];
    args.rates
        .iter()
        .flat_map(|&rate| {
            seeds.iter().map(move |&seed| SweepPoint {
                topology: disco_noc::TopologyChoice::Mesh,
                pattern: TrafficPattern::UniformRandom,
                injection_rate: rate,
                seed,
                cols: args.mesh,
                rows: args.mesh,
                cycles: args.cycles,
                trace_capacity,
            })
        })
        .collect()
}

/// FNV-1a over the debug rendering of every point's final counters: any
/// behavioral difference between builds moves at least one counter and
/// changes the fingerprint.
fn fingerprint(results: &[PointResult]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in results {
        for byte in format!("{:?}", r.stats).bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

struct Leg {
    capacity: usize,
    wall_secs: f64,
    cycles_per_sec: f64,
    emitted: u64,
    dropped: u64,
}

fn run_leg(args: &Args, capacity: usize) -> (Leg, Vec<PointResult>) {
    let points = points_for(args, capacity);
    let results = run_sweep(&points, 1);
    let wall_secs: f64 = results.iter().map(|r| r.wall_secs).sum();
    let total_cycles: f64 = points.iter().map(|p| p.cycles as f64).sum();
    #[cfg(feature = "trace")]
    let (emitted, dropped) = results.iter().fold((0, 0), |(e, d), r| {
        (e + r.trace_emitted, d + r.trace_dropped)
    });
    #[cfg(not(feature = "trace"))]
    let (emitted, dropped) = (0, 0);
    (
        Leg {
            capacity,
            wall_secs,
            cycles_per_sec: total_cycles / wall_secs.max(1e-9),
            emitted,
            dropped,
        },
        results,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("trace_overhead: {e}");
            return ExitCode::FAILURE;
        }
    };
    let traced = cfg!(feature = "trace");
    // The untraced build has exactly one configuration; the traced build
    // sweeps the ring capacity (0 = the crate default, 2^16).
    let capacities: &[usize] = if traced {
        &[0, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20]
    } else {
        &[0]
    };
    println!(
        "trace_overhead: traced_build={traced}, {}x{} mesh, {} cycles/point, rates {:?}",
        args.mesh, args.mesh, args.cycles, args.rates
    );

    let mut legs = Vec::new();
    let mut fp = 0u64;
    for (i, &capacity) in capacities.iter().enumerate() {
        let (leg, results) = run_leg(&args, capacity);
        let leg_fp = fingerprint(&results);
        if i == 0 {
            fp = leg_fp;
        } else if leg_fp != fp {
            // Ring capacity only bounds the event buffer; counters must
            // not move with it.
            eprintln!("trace_overhead: FAIL capacity {capacity} changed the stats fingerprint");
            return ExitCode::FAILURE;
        }
        println!(
            "  capacity {:>8}: {:>10.0} cycles/s ({} events emitted, {} dropped)",
            if capacity == 0 {
                "default".to_string()
            } else {
                capacity.to_string()
            },
            leg.cycles_per_sec,
            leg.emitted,
            leg.dropped
        );
        legs.push(leg);
    }

    // Against the untraced baseline: stats must match exactly; report the
    // throughput delta of the default-capacity traced leg.
    let mut overhead_pct = f64::NAN;
    if let Some(path) = &args.baseline {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text));
        let baseline = match baseline {
            Ok(b) => b,
            Err(e) => {
                eprintln!("trace_overhead: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let base_fp = baseline
            .get("stats_fingerprint")
            .and_then(Json::as_str)
            .unwrap_or("");
        if base_fp != format!("{fp:016x}") {
            eprintln!(
                "trace_overhead: FAIL stats fingerprint {fp:016x} differs from baseline {base_fp}"
            );
            return ExitCode::FAILURE;
        }
        if let Some(base_cps) = baseline.get("default_cycles_per_s").and_then(Json::as_f64) {
            overhead_pct = 100.0 * (base_cps / legs[0].cycles_per_sec.max(1e-9) - 1.0);
            println!(
                "trace_overhead: stats identical to untraced baseline; tracing costs {overhead_pct:.1}% throughput at default capacity"
            );
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"trace_overhead\",");
    let _ = writeln!(json, "  \"traced_build\": {traced},");
    let _ = writeln!(json, "  \"mesh\": \"{}x{}\",", args.mesh, args.mesh);
    let _ = writeln!(json, "  \"cycles_per_point\": {},", args.cycles);
    let _ = writeln!(json, "  \"stats_fingerprint\": \"{fp:016x}\",");
    let _ = writeln!(
        json,
        "  \"default_cycles_per_s\": {:.0},",
        legs[0].cycles_per_sec
    );
    if overhead_pct.is_finite() {
        let _ = writeln!(json, "  \"overhead_vs_untraced_pct\": {overhead_pct:.2},");
    }
    let _ = writeln!(json, "  \"legs\": [");
    for (i, leg) in legs.iter().enumerate() {
        let sep = if i + 1 < legs.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"capacity\": {}, \"wall_s\": {:.6}, \"cycles_per_s\": {:.0}, \
             \"events_emitted\": {}, \"events_dropped\": {}}}{}",
            leg.capacity, leg.wall_secs, leg.cycles_per_sec, leg.emitted, leg.dropped, sep
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("trace_overhead: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("trace_overhead: -> {}", args.out);
    ExitCode::SUCCESS
}
