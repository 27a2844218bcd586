//! Per-topology benchmark: every shipped topology gets (a) a raw NoC
//! throughput point under uniform-random load and (b) a full-system
//! DISCO run, so the snapshot records both how fast each fabric moves
//! flits and how much codec latency DISCO hides on it. With the `trace`
//! feature the full-system leg captures latency provenance and reports
//! the hidden-codec-latency coverage directly; without it the coverage
//! field is `null` (the throughput numbers are unaffected).
//!
//! `cargo run --release --features trace -p disco-bench --bin topology_bench -- \
//!     [--mesh 4] [--cycles 5000] [--rate 0.1] [--trace-len 2000] \
//!     [--out BENCH_pr8.json]`

use disco_bench::sweep::{run_point, SweepPoint};
use disco_core::{CompressionPlacement, SimBuilder};
use disco_noc::traffic::TrafficPattern;
use disco_noc::TopologyChoice;
use disco_workloads::Benchmark;
use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    mesh: usize,
    cycles: u64,
    rate: f64,
    trace_len: usize,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mesh: 4,
        cycles: 5_000,
        rate: 0.1,
        trace_len: 2_000,
        out: "BENCH_pr8.json".to_string(),
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
            "--rate" => args.rate = value.parse().map_err(|_| bad("--rate"))?,
            "--trace-len" => args.trace_len = value.parse().map_err(|_| bad("--trace-len"))?,
            "--out" => args.out = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

struct TopologyResult {
    topology: TopologyChoice,
    routers: usize,
    radix: usize,
    cycles_per_sec: f64,
    packets_delivered: u64,
    avg_packet_latency: f64,
    avg_hops: f64,
    avg_access_latency: f64,
    compressions: u64,
    flits_saved: u64,
    hidden_coverage: Option<f64>,
}

fn run_topology(choice: TopologyChoice, args: &Args) -> Result<TopologyResult, String> {
    let topo = choice.build(args.mesh, args.mesh);
    let (routers, radix) = (topo.routers(), topo.radix());
    let point = run_point(&SweepPoint {
        topology: choice,
        pattern: TrafficPattern::UniformRandom,
        injection_rate: args.rate,
        seed: disco_bench::DEFAULT_SEED,
        cols: args.mesh,
        rows: args.mesh,
        cycles: args.cycles,
        trace_capacity: 0,
    });
    let builder = SimBuilder::new()
        .mesh(args.mesh, args.mesh)
        .topology(choice)
        .placement(CompressionPlacement::Disco)
        .benchmark(Benchmark::Dedup)
        .trace_len(args.trace_len)
        .seed(disco_bench::DEFAULT_SEED);
    #[cfg(feature = "trace")]
    let builder = builder.capture_trace(true);
    let report = builder
        .run()
        .map_err(|e| format!("{choice} system run failed: {e}"))?;
    #[cfg(feature = "trace")]
    let hidden_coverage = report
        .trace
        .as_ref()
        .map(|t| t.provenance.hidden_coverage());
    #[cfg(not(feature = "trace"))]
    let hidden_coverage = None;
    let disco = report.disco.as_ref();
    Ok(TopologyResult {
        topology: choice,
        routers,
        radix,
        cycles_per_sec: point.cycles_per_sec,
        packets_delivered: point.stats.packets_delivered,
        avg_packet_latency: point.stats.avg_packet_latency(),
        avg_hops: point.stats.avg_hops(),
        avg_access_latency: report.avg_access_latency(),
        compressions: disco.map_or(0, |d| d.compressions + d.queue_compressions),
        flits_saved: disco.map_or(0, |d| d.flits_saved),
        hidden_coverage,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("topology_bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !cfg!(feature = "trace") {
        eprintln!(
            "topology_bench: WARNING: built without --features trace; \
             hidden_coverage will be null"
        );
    }
    let mut results = Vec::new();
    for choice in TopologyChoice::ALL {
        match run_topology(choice, &args) {
            Ok(r) => {
                println!(
                    "topology_bench: {}: {:.0} c/s, {} pkts, avg latency {:.2}, \
                     {} compressions, hidden coverage {}",
                    r.topology,
                    r.cycles_per_sec,
                    r.packets_delivered,
                    r.avg_packet_latency,
                    r.compressions,
                    r.hidden_coverage
                        .map_or_else(|| "n/a".to_string(), |c| format!("{c:.3}")),
                );
                results.push(r);
            }
            Err(e) => {
                eprintln!("topology_bench: FAIL {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"topology_bench\",");
    let _ = writeln!(json, "  \"mesh\": \"{0}x{0}\",", args.mesh);
    let _ = writeln!(json, "  \"noc_cycles\": {},", args.cycles);
    let _ = writeln!(json, "  \"noc_rate\": {},", args.rate);
    let _ = writeln!(json, "  \"system_trace_len\": {},", args.trace_len);
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"trace_feature\": {},", cfg!(feature = "trace"));
    let _ = writeln!(json, "  \"topologies\": [");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"topology\": \"{}\", \"routers\": {}, \"radix\": {}, \
             \"noc_cycles_per_s\": {:.0}, \"packets_delivered\": {}, \
             \"avg_packet_latency\": {:.4}, \"avg_hops\": {:.4}, \
             \"avg_access_latency\": {:.4}, \"disco_compressions\": {}, \
             \"disco_flits_saved\": {}, \"hidden_coverage\": {}}}{}",
            r.topology,
            r.routers,
            r.radix,
            r.cycles_per_sec,
            r.packets_delivered,
            r.avg_packet_latency,
            r.avg_hops,
            r.avg_access_latency,
            r.compressions,
            r.flits_saved,
            r.hidden_coverage
                .map_or_else(|| "null".to_string(), |c| format!("{c:.4}")),
            sep
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("topology_bench: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!(
        "topology_bench: {} topologies -> {}",
        results.len(),
        args.out
    );
    ExitCode::SUCCESS
}
