//! End-to-end `disco-serve` contract: kill the server mid-queue and a
//! rerun of the same command line resumes from checkpoints and produces
//! final per-job stats byte-identical to an uninterrupted run.
//!
//! The "kill" is the `--max-chunks` budget — a deterministic stand-in
//! for SIGKILL that stops workers at a chunk boundary, exactly where a
//! real kill would leave the newest on-disk checkpoint.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_disco-serve");

fn queue_json() -> String {
    // Small grid, but enough cycles that every job spans several
    // checkpoint chunks.
    r#"{
        "checkpoint_every": 300,
        "jobs": [
            {"name": "bs-disco", "mesh": 2, "placement": "disco",
             "benchmark": "blackscholes", "trace_len": 250, "seed": 11},
            {"name": "sw-base", "mesh": 2, "placement": "baseline",
             "benchmark": "swaptions", "trace_len": 250, "seed": 12},
            {"name": "dd-cc", "mesh": 2, "placement": "cc",
             "benchmark": "dedup", "trace_len": 250, "seed": 13}
        ]
    }"#
    .to_string()
}

struct Dirs {
    root: PathBuf,
}

impl Dirs {
    fn new(label: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("disco-serve-it-{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("temp dir");
        Dirs { root }
    }

    fn queue(&self) -> PathBuf {
        let path = self.root.join("jobs.json");
        fs::write(&path, queue_json()).expect("queue file");
        path
    }

    fn out(&self, which: &str) -> PathBuf {
        self.root.join(which)
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn run_serve(queue: &Path, out: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(BIN)
        .arg("--queue")
        .arg(queue)
        .arg("--out")
        .arg(out)
        .args(extra)
        .output()
        .expect("disco-serve runs")
}

fn stats_of(dir: &Path, name: &str) -> Vec<u8> {
    fs::read(dir.join(format!("{name}.stats")))
        .unwrap_or_else(|e| panic!("{name}.stats in {}: {e}", dir.display()))
}

const JOBS: [&str; 3] = ["bs-disco", "sw-base", "dd-cc"];

#[test]
fn killed_and_resumed_queue_matches_uninterrupted_run() {
    let dirs = Dirs::new("resume");
    let queue = dirs.queue();

    // Uninterrupted baseline, serial.
    let baseline_dir = dirs.out("baseline");
    let out = run_serve(&queue, &baseline_dir, &[]);
    assert!(out.status.success(), "baseline: {out:?}");
    let baseline: Vec<Vec<u8>> = JOBS.iter().map(|j| stats_of(&baseline_dir, j)).collect();

    // "Killed" run: a two-chunk budget stops the server long before the
    // queue drains, leaving checkpoints behind.
    let resumed_dir = dirs.out("resumed");
    let killed = run_serve(&queue, &resumed_dir, &["--max-chunks", "2"]);
    assert_eq!(
        killed.status.code(),
        Some(3),
        "chunk-budget stop exits 3: {killed:?}"
    );
    let unfinished = JOBS
        .iter()
        .filter(|j| !resumed_dir.join(format!("{j}.stats")).exists())
        .count();
    assert!(
        unfinished > 0,
        "budget of 2 chunks must interrupt the queue"
    );
    let checkpoints = JOBS
        .iter()
        .filter(|j| resumed_dir.join(format!("{j}.ckpt")).exists())
        .count();
    assert_eq!(
        checkpoints, unfinished,
        "every interrupted job leaves a checkpoint"
    );

    // Same command line again, no budget: resumes and finishes.
    let resumed = run_serve(&queue, &resumed_dir, &[]);
    assert!(resumed.status.success(), "resume: {resumed:?}");
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        stdout.contains("resumed"),
        "summary mentions resumes: {stdout}"
    );

    for (job, expected) in JOBS.iter().zip(&baseline) {
        let got = stats_of(&resumed_dir, job);
        assert_eq!(
            &got, expected,
            "{job}: resumed stats differ from uninterrupted run"
        );
        assert!(
            !resumed_dir.join(format!("{job}.ckpt")).exists(),
            "{job}: checkpoint lingers after completion"
        );
        let beats =
            fs::read_to_string(resumed_dir.join(format!("{job}.jsonl"))).expect("heartbeat stream");
        assert!(beats
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(beats.contains("\"event\":\"completed\""));
    }

    // A third run is a no-op: everything already done.
    let idem = run_serve(&queue, &resumed_dir, &[]);
    assert!(idem.status.success());
    assert!(String::from_utf8_lossy(&idem.stdout).contains("3 already done"));
}

#[test]
fn parallel_workers_match_serial_stats() {
    let dirs = Dirs::new("threads");
    let queue = dirs.queue();
    let serial_dir = dirs.out("serial");
    let parallel_dir = dirs.out("parallel");
    assert!(run_serve(&queue, &serial_dir, &[]).status.success());
    assert!(run_serve(&queue, &parallel_dir, &["--threads", "3"])
        .status
        .success());
    for job in JOBS {
        assert_eq!(
            stats_of(&serial_dir, job),
            stats_of(&parallel_dir, job),
            "{job}: thread fan-out changed the stats"
        );
    }
}

#[test]
fn cancel_marker_stops_a_job_with_its_checkpoint_intact() {
    let dirs = Dirs::new("cancel");
    let queue = dirs.queue();
    let out_dir = dirs.out("out");
    fs::create_dir_all(&out_dir).expect("out dir");
    fs::write(out_dir.join("sw-base.cancel"), b"").expect("cancel marker");

    let first = run_serve(&queue, &out_dir, &[]);
    // Cancelled is not a failure and not an interruption.
    assert!(first.status.success(), "{first:?}");
    assert!(
        !out_dir.join("sw-base.stats").exists(),
        "cancelled job finished"
    );
    assert!(
        out_dir.join("sw-base.ckpt").exists(),
        "cancel must keep the checkpoint"
    );
    assert!(
        out_dir.join("bs-disco.stats").exists(),
        "other jobs unaffected"
    );

    // Lift the cancel; the job resumes from its checkpoint and finishes.
    fs::remove_file(out_dir.join("sw-base.cancel")).expect("lift cancel");
    let second = run_serve(&queue, &out_dir, &[]);
    assert!(second.status.success(), "{second:?}");
    assert!(out_dir.join("sw-base.stats").exists());
}

#[test]
fn validate_only_checks_the_queue_without_simulating() {
    let dirs = Dirs::new("validate");
    let queue = dirs.queue();
    let out_dir = dirs.out("out");
    let out = run_serve(&queue, &out_dir, &["--validate-only"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("queue ok: 3 jobs"));
    // Nothing simulated, nothing written.
    assert!(!out_dir.join("bs-disco.stats").exists());

    let bad = dirs.root.join("bad.json");
    fs::write(&bad, r#"{"jobs": [{"name": "x"}]}"#).expect("bad queue");
    let out = run_serve(&bad, &out_dir, &["--validate-only"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cols"));
}

/// A design point is a spec: a point row of a smoke exploration's
/// frontier JSON, given a name and its space's grid, trace length and
/// seed, is a valid queue job, and serving it reproduces pareto's run
/// of the point byte for byte. Every value of every enum axis and the
/// float and integer edge values survive the same render → parse trip.
#[test]
fn pareto_point_replays_as_a_serve_job() {
    use disco_bench::serve::{parse_queue, serve, ServeOpts};
    use disco_pareto::driver::simulate;
    use disco_pareto::spec::{SimSpec, FIELDS};
    use disco_pareto::{explore, DesignSpace, ExploreConfig};

    let space = DesignSpace::smoke();
    let frontier_json = explore(&ExploreConfig::new(space.clone()))
        .json
        .expect("complete");
    // The last smoke point: DISCO on the express mesh, with non-default
    // buffer depth and explicit thresholds.
    let point = *space.points().last().expect("non-empty space");
    let row = frontier_json
        .lines()
        .find(|l| {
            l.trim_start()
                .starts_with(&format!("{{\"id\":{},", point.id))
        })
        .expect("point row rendered")
        .trim()
        .trim_end_matches(',');
    let queue = format!(
        r#"{{"checkpoint_every": 400, "jobs": [{{"name": "replay", "cols": {}, "rows": {}, "trace_len": {}, "seed": {}, {}]}}"#,
        space.cols,
        space.rows,
        space.trace_len,
        space.seed,
        &row[1..],
    );
    let (cfg, warnings) = parse_queue(&queue).expect("a rendered point is a valid job");
    assert!(warnings.is_empty());
    assert_eq!(cfg.jobs[0].spec, point.spec);

    let dirs = Dirs::new("replay");
    let out_dir = dirs.out("out");
    let opts = ServeOpts {
        out_dir: out_dir.clone(),
        threads: 1,
        max_chunks: None,
    };
    let summary = serve(&cfg, &opts).expect("serves");
    assert_eq!(summary.completed, 1, "{summary:?}");
    let (_, pareto_stats) = simulate(&point.spec, 1).expect("point runs");
    assert_eq!(stats_of(&out_dir, "replay"), pareto_stats);

    // Render → parse identity over every enum value and edge value.
    let edges = [
        0.0,
        -0.0,
        5e-324,
        f64::MIN_POSITIVE,
        0.1,
        1.0 / 3.0,
        -2.5e17,
        f64::MAX,
        f64::MIN,
    ];
    let mut specs = Vec::new();
    for (i, &x) in edges.iter().enumerate() {
        specs.push(SimSpec {
            cc_threshold: x,
            cd_threshold: edges[(i + 1) % edges.len()],
            gamma: edges[(i + 2) % edges.len()],
            alpha: edges[(i + 3) % edges.len()],
            beta: edges[(i + 4) % edges.len()],
            ..point.spec
        });
    }
    for seed in [(1 << 53) + 1, u64::MAX] {
        specs.push(SimSpec {
            seed,
            max_cycles: seed,
            ..point.spec
        });
    }
    for topology in disco_noc::TopologyChoice::ALL {
        specs.push(SimSpec {
            topology,
            ..point.spec
        });
    }
    for placement in disco_core::CompressionPlacement::ALL {
        specs.push(SimSpec {
            placement,
            ..point.spec
        });
    }
    for scheme in disco_compress::SchemeKind::ALL {
        specs.push(SimSpec {
            scheme,
            ..point.spec
        });
    }
    for benchmark in disco_workloads::Benchmark::ALL {
        specs.push(SimSpec {
            benchmark,
            ..point.spec
        });
    }
    let keys: Vec<&str> = FIELDS.iter().map(|f| f.key).collect();
    let jobs: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| format!("{{\"name\":\"s{i}\",{}}}", s.json_members(&keys)))
        .collect();
    let (cfg, _) =
        parse_queue(&format!("{{\"jobs\":[{}]}}", jobs.join(","))).expect("rendered specs parse");
    for (job, spec) in cfg.jobs.iter().zip(&specs) {
        assert_eq!(job.spec, *spec);
        assert_eq!(
            job.spec.json_members(&keys),
            spec.json_members(&keys),
            "{}: float bits must survive",
            job.name
        );
    }
}
