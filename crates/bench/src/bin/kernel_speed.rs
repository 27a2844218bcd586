//! Cycle-kernel speed benchmark: serial cycles/s of one NoC-only
//! simulation per mesh size, from 8x8 up to the 4096-router 64x64
//! "hundreds of cores" point the paper's scaling argument targets.
//! Where `sweep` fans independent configurations across threads, this
//! bin times the single-threaded kernel itself, and records
//! `host_cores` so the host the numbers came from is on file.
//!
//! `cargo run --release -p disco-bench --bin kernel_speed -- \
//!     [--meshes 8,16,32,64] [--topology mesh|ring|hring|torus|cmesh] \
//!     [--cycles 0 (auto per mesh)] [--rate 0.1] [--seeds 2016,2018] \
//!     [--out BENCH_pr7.json] [--baseline BENCH_pr7.json]`
//!
//! `--baseline` is a CI hook (default off): it fails the run when the
//! fresh 8x8 serial cycles/s regresses more than 20% against a
//! committed `BENCH_pr7.json`.

use disco_bench::sweep::{run_point, PointResult, SweepPoint};
use disco_noc::traffic::TrafficPattern;
use disco_noc::TopologyChoice;
use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    meshes: Vec<usize>,
    topology: TopologyChoice,
    cycles: u64,
    rate: f64,
    seeds: Vec<u64>,
    out: String,
    baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        meshes: vec![8, 16, 32, 64],
        topology: TopologyChoice::Mesh,
        cycles: 0,
        rate: 0.1,
        seeds: vec![disco_bench::DEFAULT_SEED, disco_bench::DEFAULT_SEED + 2],
        out: "BENCH_pr7.json".to_string(),
        baseline: None,
    };
    let parse_list = |value: &str, what: &str| -> Result<Vec<u64>, String> {
        value
            .split(',')
            .map(|v| {
                v.trim()
                    .parse()
                    .map_err(|_| format!("invalid {what}: {value}"))
            })
            .collect()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("invalid {what}: {value}");
        match flag.as_str() {
            "--meshes" => {
                args.meshes = parse_list(&value, "--meshes")?
                    .into_iter()
                    .map(|m| m as usize)
                    .collect();
            }
            "--topology" => {
                args.topology = TopologyChoice::parse(&value).ok_or_else(|| bad("--topology"))?;
            }
            "--cycles" => args.cycles = value.parse().map_err(|_| bad("--cycles"))?,
            "--rate" => args.rate = value.parse().map_err(|_| bad("--rate"))?,
            "--seeds" => args.seeds = parse_list(&value, "--seeds")?,
            "--out" => args.out = value,
            "--baseline" => args.baseline = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.meshes.is_empty() || args.seeds.is_empty() {
        return Err("need at least one mesh and one seed".to_string());
    }
    Ok(args)
}

/// Auto cycle budget: keep each mesh size in the same wall-clock
/// ballpark (cycles/s falls roughly with router count).
fn cycles_for(mesh: usize, requested: u64) -> u64 {
    if requested > 0 {
        return requested;
    }
    match mesh {
        0..=8 => 20_000,
        9..=16 => 8_000,
        17..=32 => 3_000,
        // 64x64 is 4096 routers: ~4x the per-cycle work of 32x32, so a
        // quarter of its budget keeps the leg in the same ballpark.
        _ => 800,
    }
}

struct MeshResult {
    mesh: usize,
    cycles: u64,
    points: Vec<PointResult>,
    serial_cps: f64,
}

fn run_mesh(
    topology: TopologyChoice,
    mesh: usize,
    cycles: u64,
    rate: f64,
    seeds: &[u64],
) -> MeshResult {
    let points: Vec<PointResult> = seeds
        .iter()
        .map(|&seed| {
            run_point(&SweepPoint {
                topology,
                pattern: TrafficPattern::UniformRandom,
                injection_rate: rate,
                seed,
                cols: mesh,
                rows: mesh,
                cycles,
                trace_capacity: 0,
            })
        })
        .collect();
    let serial_cps = points.iter().map(|p| p.cycles_per_sec).sum::<f64>() / points.len() as f64;
    MeshResult {
        mesh,
        cycles,
        points,
        serial_cps,
    }
}

/// Reads the top-level `serial_8x8_cycles_per_s` of a committed
/// baseline file.
fn baseline_serial_cps(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    disco_pareto::json::parse(&text)
        .map_err(|e| format!("{path}: {e}"))?
        .get("serial_8x8_cycles_per_s")
        .and_then(disco_pareto::json::Json::as_f64)
        .ok_or_else(|| format!("{path}: no numeric serial_8x8_cycles_per_s field"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kernel_speed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut meshes = Vec::new();
    for &mesh in &args.meshes {
        let cycles = cycles_for(mesh, args.cycles);
        println!(
            "kernel_speed: {mesh}x{mesh} {}, {cycles} cycles x {} seed(s)",
            args.topology,
            args.seeds.len()
        );
        let result = run_mesh(args.topology, mesh, cycles, args.rate, &args.seeds);
        println!(
            "kernel_speed: {mesh}x{mesh}: serial {:.0} c/s",
            result.serial_cps
        );
        meshes.push(result);
    }

    let serial_8x8 = meshes
        .iter()
        .find(|m| m.mesh == 8)
        .map(|m| m.serial_cps)
        .unwrap_or(0.0);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"kernel_speed\",");
    let _ = writeln!(json, "  \"topology\": \"{}\",", args.topology);
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"rate\": {},", args.rate);
    let _ = writeln!(json, "  \"meshes\": [");
    for (i, m) in meshes.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"mesh\": \"{}x{}\",", m.mesh, m.mesh);
        let _ = writeln!(json, "      \"cycles_per_point\": {},", m.cycles);
        let _ = writeln!(json, "      \"points\": [");
        for (j, p) in m.points.iter().enumerate() {
            let sep = if j + 1 < m.points.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "        {{\"seed\": {}, \"packets_delivered\": {}, \
                 \"serial_cycles_per_s\": {:.0}}}{}",
                p.point.seed, p.stats.packets_delivered, p.cycles_per_sec, sep
            );
        }
        let _ = writeln!(json, "      ],");
        let _ = writeln!(json, "      \"serial_cycles_per_s\": {:.0}", m.serial_cps);
        let sep = if i + 1 < meshes.len() { "," } else { "" };
        let _ = writeln!(json, "    }}{sep}");
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"serial_8x8_cycles_per_s\": {serial_8x8:.0}");
    let _ = writeln!(json, "}}");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("kernel_speed: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("kernel_speed: wrote {}", args.out);

    if let Some(path) = &args.baseline {
        match baseline_serial_cps(path) {
            Ok(committed) if serial_8x8 >= committed * 0.8 => {
                println!(
                    "kernel_speed: gate ok: serial 8x8 {serial_8x8:.0} c/s >= \
                     80% of committed {committed:.0}"
                );
            }
            Ok(committed) => {
                eprintln!(
                    "kernel_speed: FAIL serial 8x8 {serial_8x8:.0} c/s regressed >20% \
                     vs committed {committed:.0}"
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("kernel_speed: FAIL {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
