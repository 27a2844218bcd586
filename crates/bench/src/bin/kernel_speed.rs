//! Cycle-kernel speed benchmark: serial vs sharded compute phase on the
//! *same* simulation, at mesh sizes where kernel-level parallelism can
//! actually pay (8x8 through the 4096-router 64x64 "hundreds of cores"
//! point the paper's scaling argument targets). This is the successor
//! to the PR 3
//! `sweep` snapshot: where `sweep` fans independent configurations
//! across threads, this bin shards a single simulation's compute phase
//! across the persistent worker pool and reports the speedup honestly —
//! including `host_cores`, so a 1-core container time-slicing N shards
//! is visible as such instead of masquerading as a parallel result.
//!
//! `cargo run --release --features parallel -p disco-bench --bin kernel_speed -- \
//!     [--meshes 8,16,32,64] [--topology mesh|ring|hring|torus|cmesh] \
//!     [--cycles 0 (auto per mesh)] [--rate 0.1] \
//!     [--shards 0 (auto = host cores)] [--seeds 2016,2018] \
//!     [--out BENCH_pr7.json] \
//!     [--gate-speedup 2.0] [--baseline BENCH_pr7.json]`
//!
//! The two gate flags are CI hooks (both default off): `--gate-speedup`
//! fails the run when the 16x16 sharded/serial speedup falls below the
//! floor, and `--baseline` fails it when the fresh 8x8 serial cycles/s
//! regresses more than 20% against a committed `BENCH_pr7.json`.

use disco_bench::sweep::{run_point, PointResult, SweepPoint};
use disco_noc::traffic::TrafficPattern;
use disco_noc::TopologyChoice;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Committed PR 3 reference (BENCH_pr3.json): 8x8 serial cycles/s, mean
/// of the two rate-0.1 seeds, and the whole-sweep "speedup" the scoped
/// thread-per-cycle path achieved on that host.
const PR3_SERIAL_8X8_CPS: f64 = 26_862.0;
const PR3_PARALLEL_SPEEDUP: f64 = 0.952;

/// Committed PR 7 reference (BENCH_pr7.json): the persistent worker
/// pool result this bin originally snapshot.
const PR7_SERIAL_8X8_CPS: f64 = 86_056.0;
const PR7_PARALLEL_SPEEDUP: f64 = 0.833;

struct Args {
    meshes: Vec<usize>,
    topology: TopologyChoice,
    cycles: u64,
    rate: f64,
    shards: usize,
    seeds: Vec<u64>,
    out: String,
    gate_speedup: f64,
    baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        meshes: vec![8, 16, 32, 64],
        topology: TopologyChoice::Mesh,
        cycles: 0,
        rate: 0.1,
        shards: 0,
        seeds: vec![disco_bench::DEFAULT_SEED, disco_bench::DEFAULT_SEED + 2],
        out: "BENCH_pr7.json".to_string(),
        gate_speedup: 0.0,
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
            "--shards" => args.shards = value.parse().map_err(|_| bad("--shards"))?,
            "--seeds" => args.seeds = parse_list(&value, "--seeds")?,
            "--out" => args.out = value,
            "--gate-speedup" => {
                args.gate_speedup = value.parse().map_err(|_| bad("--gate-speedup"))?;
            }
            "--baseline" => args.baseline = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.meshes.is_empty() || args.seeds.is_empty() {
        return Err("need at least one mesh and one seed".to_string());
    }
    Ok(args)
}

/// Auto cycle budget: keep the serial leg of each mesh size in the same
/// wall-clock ballpark (cycles/s falls roughly with router count).
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
    points: Vec<(PointResult, PointResult)>,
    serial_cps: f64,
    sharded_cps: f64,
    speedup: f64,
    deterministic: bool,
}

fn run_mesh(
    topology: TopologyChoice,
    mesh: usize,
    cycles: u64,
    rate: f64,
    shards: usize,
    seeds: &[u64],
) -> MeshResult {
    let mut points = Vec::new();
    let mut deterministic = true;
    for &seed in seeds {
        let base = SweepPoint {
            topology,
            pattern: TrafficPattern::UniformRandom,
            injection_rate: rate,
            seed,
            cols: mesh,
            rows: mesh,
            cycles,
            compute_shards: 1,
            trace_capacity: 0,
        };
        let serial = run_point(&base);
        let sharded = run_point(&SweepPoint {
            compute_shards: shards,
            ..base
        });
        if serial.stats != sharded.stats {
            eprintln!(
                "kernel_speed: DIVERGENCE at {mesh}x{mesh} seed {seed}: \
                 serial {:?} vs {shards}-shard {:?}",
                serial.stats, sharded.stats
            );
            deterministic = false;
        }
        points.push((serial, sharded));
    }
    let mean = |sel: fn(&(PointResult, PointResult)) -> f64| -> f64 {
        points.iter().map(sel).sum::<f64>() / points.len() as f64
    };
    let serial_cps = mean(|(s, _)| s.cycles_per_sec);
    let sharded_cps = mean(|(_, f)| f.cycles_per_sec);
    MeshResult {
        mesh,
        cycles,
        points,
        serial_cps,
        sharded_cps,
        speedup: sharded_cps / serial_cps.max(1e-9),
        deterministic,
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
    let shards = if args.shards == 0 {
        host_cores
    } else {
        args.shards
    };
    if shards > host_cores {
        eprintln!(
            "kernel_speed: WARNING: {shards} shards on {host_cores} host core(s) — \
             the sharded leg measures time-slicing, not parallelism"
        );
    }
    if !cfg!(feature = "parallel") {
        eprintln!(
            "kernel_speed: WARNING: built without --features parallel; \
             the shard request is ignored and speedup will be ~1.0"
        );
    }

    let mut meshes = Vec::new();
    for &mesh in &args.meshes {
        let cycles = cycles_for(mesh, args.cycles);
        println!(
            "kernel_speed: {mesh}x{mesh} {}, {cycles} cycles x {} seed(s), serial then {shards} shards",
            args.topology,
            args.seeds.len()
        );
        let result = run_mesh(args.topology, mesh, cycles, args.rate, shards, &args.seeds);
        println!(
            "kernel_speed: {mesh}x{mesh}: serial {:.0} c/s, sharded {:.0} c/s, speedup {:.3}x",
            result.serial_cps, result.sharded_cps, result.speedup
        );
        meshes.push(result);
    }

    let deterministic = meshes.iter().all(|m| m.deterministic);
    let serial_8x8 = meshes
        .iter()
        .find(|m| m.mesh == 8)
        .map(|m| m.serial_cps)
        .unwrap_or(0.0);
    let speedup_16x16 = meshes.iter().find(|m| m.mesh == 16).map(|m| m.speedup);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"kernel_speed\",");
    let _ = writeln!(json, "  \"topology\": \"{}\",", args.topology);
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"shards\": {shards},");
    let _ = writeln!(json, "  \"shards_exceed_cores\": {},", shards > host_cores);
    let _ = writeln!(
        json,
        "  \"kernel_parallel_feature\": {},",
        cfg!(feature = "parallel")
    );
    let _ = writeln!(json, "  \"rate\": {},", args.rate);
    let _ = writeln!(json, "  \"meshes\": [");
    for (i, m) in meshes.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"mesh\": \"{}x{}\",", m.mesh, m.mesh);
        let _ = writeln!(json, "      \"cycles_per_point\": {},", m.cycles);
        let _ = writeln!(json, "      \"points\": [");
        for (j, (s, f)) in m.points.iter().enumerate() {
            let sep = if j + 1 < m.points.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "        {{\"seed\": {}, \"packets_delivered\": {}, \
                 \"serial_cycles_per_s\": {:.0}, \"sharded_cycles_per_s\": {:.0}, \
                 \"speedup\": {:.3}}}{}",
                s.point.seed,
                s.stats.packets_delivered,
                s.cycles_per_sec,
                f.cycles_per_sec,
                f.cycles_per_sec / s.cycles_per_sec.max(1e-9),
                sep
            );
        }
        let _ = writeln!(json, "      ],");
        let _ = writeln!(json, "      \"serial_cycles_per_s\": {:.0},", m.serial_cps);
        let _ = writeln!(
            json,
            "      \"sharded_cycles_per_s\": {:.0},",
            m.sharded_cps
        );
        let _ = writeln!(json, "      \"speedup\": {:.3}", m.speedup);
        let sep = if i + 1 < meshes.len() { "," } else { "" };
        let _ = writeln!(json, "    }}{sep}");
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"serial_8x8_cycles_per_s\": {serial_8x8:.0},");
    if let Some(s) = speedup_16x16 {
        let _ = writeln!(json, "  \"speedup_16x16\": {s:.3},");
    }
    let _ = writeln!(json, "  \"deterministic\": {deterministic},");
    let _ = writeln!(json, "  \"trajectory\": [");
    let _ = writeln!(
        json,
        "    {{\"pr\": \"pr3\", \"serial_8x8_cycles_per_s\": {PR3_SERIAL_8X8_CPS:.0}, \
         \"parallel_speedup\": {PR3_PARALLEL_SPEEDUP}, \
         \"note\": \"scoped threads spawned per cycle; per-cycle allocation in RC/VA/SA\"}},"
    );
    let _ = writeln!(
        json,
        "    {{\"pr\": \"pr7\", \"serial_8x8_cycles_per_s\": {PR7_SERIAL_8X8_CPS:.0}, \
         \"parallel_speedup\": {PR7_PARALLEL_SPEEDUP}, \
         \"note\": \"persistent worker pool + zero-alloc per-shard arenas\"}},"
    );
    let _ = writeln!(
        json,
        "    {{\"pr\": \"pr9\", \"serial_8x8_cycles_per_s\": {serial_8x8:.0}, \
         \"parallel_speedup\": {}, \
         \"note\": \"64x64 hundreds-of-cores leg added; checkpoint/restore + disco-serve land\"}}",
        speedup_16x16.map_or_else(|| "null".to_string(), |s| format!("{s:.3}"))
    );
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("kernel_speed: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("kernel_speed: wrote {}", args.out);

    let mut failed = false;
    if !deterministic {
        eprintln!("kernel_speed: FAIL sharded kernel diverged from serial kernel");
        failed = true;
    }
    if args.gate_speedup > 0.0 {
        match speedup_16x16 {
            Some(s) if s >= args.gate_speedup => {
                println!(
                    "kernel_speed: gate ok: 16x16 speedup {s:.3}x >= {:.2}x",
                    args.gate_speedup
                );
            }
            Some(s) => {
                eprintln!(
                    "kernel_speed: FAIL 16x16 speedup {s:.3}x < required {:.2}x",
                    args.gate_speedup
                );
                failed = true;
            }
            None => {
                eprintln!("kernel_speed: FAIL --gate-speedup set but 16 not in --meshes");
                failed = true;
            }
        }
    }
    if let Some(path) = &args.baseline {
        match baseline_serial_cps(path) {
            Ok(committed) => {
                let floor = committed * 0.8;
                if serial_8x8 >= floor {
                    println!(
                        "kernel_speed: gate ok: serial 8x8 {serial_8x8:.0} c/s >= \
                         80% of committed {committed:.0}"
                    );
                } else {
                    eprintln!(
                        "kernel_speed: FAIL serial 8x8 {serial_8x8:.0} c/s regressed >20% \
                         vs committed {committed:.0}"
                    );
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("kernel_speed: FAIL {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
