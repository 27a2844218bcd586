//! **Ablation — routing strategies under DISCO (§3.3).**
//!
//! The paper examines "the potential benefits brought by routing
//! strategies to provide non-blocking selective de/compression". This
//! sweep runs DISCO under XY, YX, O1TURN, and west-first adaptive
//! routing: load-balancing routing spreads the contention DISCO harvests,
//! trading fewer idle windows (less hiding) for lower base queuing.
//! A configuration that does not drain within its cycle budget prints
//! a `run failed` row naming the error instead of a stats row.
//!
//! `cargo run --release -p disco-bench --bin ablation_routing`

use disco_bench::{trace_len, DEFAULT_SEED};
use disco_core::{CompressionPlacement, SimBuilder};
use disco_noc::{NocConfig, RoutingAlgorithm};
use disco_workloads::Benchmark;

fn main() {
    let len = trace_len().min(8_000);
    println!("Ablation — routing algorithms under DISCO (trace_len={len})\n");
    println!(
        "{:<12} {:<11} {:>9} {:>9} {:>8} {:>8} {:>9}",
        "benchmark", "routing", "cyc/miss", "pkt lat", "comp", "decomp", "saloss"
    );
    for bench in [
        Benchmark::Canneal,
        Benchmark::Streamcluster,
        Benchmark::Dedup,
    ] {
        for (name, routing) in [
            ("XY", RoutingAlgorithm::Xy),
            ("YX", RoutingAlgorithm::Yx),
            ("O1TURN", RoutingAlgorithm::O1Turn),
            ("west-first", RoutingAlgorithm::WestFirst),
        ] {
            let run = SimBuilder::new()
                .mesh(4, 4)
                .placement(CompressionPlacement::Disco)
                .benchmark(bench)
                .trace_len(len)
                .noc(NocConfig {
                    routing,
                    ..NocConfig::default()
                })
                .seed(DEFAULT_SEED)
                .run();
            // A run that fails to drain is a result too: keep its row
            // (with the error naming the budget and the backlog) and go
            // on with the rest of the table.
            let r = match run {
                Ok(r) => r,
                Err(e) => {
                    println!("{:<12} {:<11} run failed: {e}", bench.name(), name);
                    continue;
                }
            };
            let d = r.disco.expect("disco stats");
            println!(
                "{:<12} {:<11} {:>9.1} {:>9.1} {:>8} {:>8} {:>9}",
                bench.name(),
                name,
                r.avg_onchip_latency(),
                r.network.avg_packet_latency(),
                d.compressions,
                d.decompressions,
                r.network.sa_losses,
            );
        }
        println!();
    }
}
