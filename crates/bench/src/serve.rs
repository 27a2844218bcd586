//! Simulation-as-a-service: a long-running job-queue engine behind the
//! `disco-serve` binary.
//!
//! A queue file (JSON, schema below) lists independent simulation jobs,
//! each a [`SimSpec`]. The engine fans them across OS worker threads
//! (round-robin, like `sweep::run_sweep`), streams a heartbeat JSONL
//! line per job chunk, auto-checkpoints every `checkpoint_every` cycles
//! via [`System::snapshot`], and resumes any job whose checkpoint it
//! finds in the output directory — so a killed process restarts and
//! finishes its queue with final stats byte-identical to an
//! uninterrupted run (the snapshot determinism contract, pinned by
//! `tests/determinism.rs`).
//!
//! Queue schema. A job's keys are the [`SimSpec`] keys
//! ([`disco_pareto::spec::FIELDS`], the same table the frontier JSON of
//! `pareto` renders its points with), plus `name` and the `mesh`
//! shorthand:
//!
//! ```json
//! {
//!   "checkpoint_every": 2000,
//!   "jobs": [
//!     {
//!       "name": "bs-disco",         // required, file-safe
//!       "mesh": 4,                  // or "cols"/"rows"; required
//!       "topology": "mesh",         // mesh|ring|hring|torus|cmesh|xmesh
//!       "vcs": 2,                   // VCs per port (raised to the topology's floor)
//!       "buffer_depth": 8,          // flits per VC
//!       "placement": "disco",       // baseline|ideal|cc|cnc|disco
//!       "scheme": "delta",          // a compress::SchemeKind name
//!       "cc_threshold": 0.5,        // DISCO Eq. (1)/(2): CC_th, CD_th,
//!       "cd_threshold": 0.5,        //   γ, α, β
//!       "gamma": 0.5,
//!       "alpha": 0.5,
//!       "beta": 1.5,
//!       "benchmark": "blackscholes",
//!       "trace_len": 10000,         // required
//!       "seed": 1,
//!       "max_cycles": 0,            // 0 = auto budget
//!       "fault_rate": 0.0           // needs the `faults` feature if > 0
//!     }
//!   ]
//! }
//! ```
//!
//! Absent keys take the values shown (the [`SimSpec`] defaults); names
//! match case-insensitively. A value of the wrong type or range, or a
//! key repeated within one object, is an error naming `jobs[i].<key>` —
//! never a silent default. Other keys are ignored, so a point copied out
//! of a `pareto` frontier JSON, given a name, grid, trace length and
//! seed, is a valid job.
//!
//! Per-job files in the output directory: `<name>.stats` (final stats,
//! written atomically — its existence marks completion), `<name>.jsonl`
//! (heartbeat stream), `<name>.ckpt` (latest checkpoint, atomic
//! tmp+rename). Dropping a `<name>.cancel` marker file stops the job at
//! its next chunk boundary, checkpoint intact.

use crate::sweep;
use disco_core::{SimError, System};
use disco_pareto::exec::{fan_out, injection_warning};
use disco_pareto::json::{self, Json};
use disco_pareto::spec::{SimSpec, FIELDS};
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};

/// One queued simulation job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique, file-safe job name (output files derive from it).
    pub name: String,
    /// The simulation.
    pub spec: SimSpec,
}

/// A parsed queue file.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Jobs, in submission order.
    pub jobs: Vec<JobSpec>,
    /// Cycles between auto-checkpoints (and heartbeat lines).
    pub checkpoint_every: u64,
}

/// Approximate per-cycle fault injection sites of a `cols`×`rows`
/// system: every router port (≈ 5 per tile on a mesh) is a potential
/// link/stall/flip site each cycle.
pub fn injection_sites(tiles: usize) -> u64 {
    5 * tiles as u64
}

fn job_name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
}

fn parse_job(obj: &Json, index: usize) -> Result<JobSpec, String> {
    let ctx = |field: &str| format!("jobs[{index}].{field}");
    let name = obj
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{} missing", ctx("name")))?
        .to_string();
    if !job_name_ok(&name) {
        return Err(format!(
            "{}: {name:?} is not file-safe (ascii alphanumerics, '-', '_', '.')",
            ctx("name")
        ));
    }
    let mut spec = SimSpec::default();
    for field in &FIELDS {
        let key = field.key;
        // `mesh` is shorthand for equal `cols` and `rows`.
        let (given, value) = match obj.get(key) {
            None if key == "cols" || key == "rows" => ("mesh", obj.get("mesh")),
            value => (key, value),
        };
        match value {
            Some(value) => spec
                .set(key, value)
                .map_err(|e| format!("{} {e}", ctx(given)))?,
            None if given == "mesh" => return Err(format!("{} (or mesh) missing", ctx(key))),
            None if key == "trace_len" => return Err(format!("{} missing", ctx(key))),
            None => {}
        }
    }
    if spec.cols < 2 || spec.rows < 2 {
        return Err(format!("{}: grid must be at least 2x2", ctx("mesh")));
    }
    if spec.fault_rate > 0.0 && !cfg!(feature = "faults") {
        return Err(format!(
            "{}: fault injection needs a `--features faults` build",
            ctx("fault_rate")
        ));
    }
    Ok(JobSpec { name, spec })
}

/// Parses and validates a queue file. Emits the expected-injection
/// warning (to `warnings`) for every faulty job whose rate rounds to ~0
/// injections over its estimated length.
pub fn parse_queue(text: &str) -> Result<(ServeConfig, Vec<String>), String> {
    let root = json::parse(text)?;
    let checkpoint_every = match root.get("checkpoint_every") {
        None => 2_000,
        Some(v) => v
            .as_u64()
            .ok_or("checkpoint_every must be a non-negative integer")?
            .max(1),
    };
    let jobs_json = root
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or("queue file needs a \"jobs\" array")?;
    if jobs_json.is_empty() {
        return Err("queue file lists no jobs".into());
    }
    let mut jobs = Vec::with_capacity(jobs_json.len());
    let mut warnings = Vec::new();
    for (i, j) in jobs_json.iter().enumerate() {
        let job = parse_job(j, i)?;
        if jobs
            .iter()
            .any(|existing: &JobSpec| existing.name == job.name)
        {
            return Err(format!("duplicate job name {:?}", job.name));
        }
        // The explicit budget if set, else an empirical multiple of the
        // trace length.
        let cycles = match job.spec.max_cycles {
            0 => job.spec.trace_len as u64 * 20,
            budget => budget,
        };
        let sites = injection_sites(job.spec.cols * job.spec.rows);
        if let Some(w) = injection_warning(&job.name, job.spec.fault_rate, cycles, sites) {
            warnings.push(w);
        }
        jobs.push(job);
    }
    Ok((
        ServeConfig {
            jobs,
            checkpoint_every,
        },
        warnings,
    ))
}

/// Engine options (the binary's CLI maps 1:1 onto this).
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Per-job output directory (created if missing).
    pub out_dir: PathBuf,
    /// Worker threads (jobs fan round-robin; 1 = serial).
    pub threads: usize,
    /// Stop the whole server after this many job chunks — a
    /// deterministic stand-in for a process kill, used by the
    /// kill-and-resume tests. `None` = run to queue completion.
    pub max_chunks: Option<u64>,
}

/// What happened to one job this server run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Final stats written (this run, possibly after a resume).
    Completed,
    /// `<name>.stats` already existed; nothing to do.
    AlreadyDone,
    /// Stopped by the chunk budget; checkpoint on disk.
    Interrupted,
    /// Stopped by a `<name>.cancel` marker; checkpoint on disk.
    Cancelled,
    /// The simulation or an output file failed (details on the
    /// heartbeat stream and stderr).
    Failed,
}

/// Outcome tallies for a whole server run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs whose final stats this run wrote.
    pub completed: usize,
    /// Jobs already complete when the run started.
    pub already_done: usize,
    /// Jobs that resumed from a checkpoint this run.
    pub resumed: usize,
    /// Jobs stopped by the chunk budget.
    pub interrupted: usize,
    /// Jobs stopped by a cancel marker.
    pub cancelled: usize,
    /// Jobs that failed.
    pub failed: usize,
}

use disco_pareto::journal::write_atomic;

struct JobFiles {
    stats: PathBuf,
    heartbeat: PathBuf,
    checkpoint: PathBuf,
    cancel: PathBuf,
}

impl JobFiles {
    fn new(out_dir: &Path, name: &str) -> Self {
        let p = |ext: &str| out_dir.join(format!("{name}.{ext}"));
        JobFiles {
            stats: p("stats"),
            heartbeat: p("jsonl"),
            checkpoint: p("ckpt"),
            cancel: p("cancel"),
        }
    }

    fn heartbeat(&self, name: &str, event: &str, sys: Option<&System>) {
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"job\":\"{}\",\"event\":\"{event}\"",
            sweep::json_escape(name)
        );
        if let Some(sys) = sys {
            let _ = write!(
                line,
                ",\"cycle\":{},\"outstanding\":{}",
                sys.now(),
                sys.outstanding()
            );
        }
        line.push('}');
        line.push('\n');
        if let Ok(mut f) = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.heartbeat)
        {
            let _ = f.write_all(line.as_bytes());
        }
    }
}

/// Runs one job: resume from its checkpoint if one exists, step in
/// `checkpoint_every`-cycle chunks, checkpoint after each, finish with
/// an atomically-written stats file. `resumed` is set when the job
/// continued from a checkpoint.
fn run_job(
    job: &JobSpec,
    files: &JobFiles,
    checkpoint_every: u64,
    budget: &AtomicI64,
    resumed: &mut bool,
) -> JobOutcome {
    if files.stats.exists() {
        return JobOutcome::AlreadyDone;
    }
    let builder = job.spec.builder();
    let mut sys = match fs::read(&files.checkpoint) {
        Ok(bytes) => match System::restore_with(&bytes, &builder) {
            Ok(sys) => {
                *resumed = true;
                files.heartbeat(&job.name, "resumed", Some(&sys));
                sys
            }
            Err(e) => {
                eprintln!("disco-serve: {}: checkpoint unusable: {e}", job.name);
                files.heartbeat(&job.name, "failed", None);
                return JobOutcome::Failed;
            }
        },
        Err(_) => {
            let sys = builder.build();
            files.heartbeat(&job.name, "started", Some(&sys));
            sys
        }
    };
    loop {
        if files.cancel.exists() {
            let _ = write_atomic(&files.checkpoint, &sys.snapshot());
            files.heartbeat(&job.name, "cancelled", Some(&sys));
            return JobOutcome::Cancelled;
        }
        if budget.fetch_sub(1, Ordering::SeqCst) <= 0 {
            let _ = write_atomic(&files.checkpoint, &sys.snapshot());
            files.heartbeat(&job.name, "interrupted", Some(&sys));
            return JobOutcome::Interrupted;
        }
        let target = sys.now() + checkpoint_every;
        match sys.step_until(target) {
            Ok(false) => {
                if write_atomic(&files.checkpoint, &sys.snapshot()).is_err() {
                    eprintln!("disco-serve: {}: cannot write checkpoint", job.name);
                    files.heartbeat(&job.name, "failed", Some(&sys));
                    return JobOutcome::Failed;
                }
                files.heartbeat(&job.name, "checkpoint", Some(&sys));
            }
            Ok(true) => {
                files.heartbeat(&job.name, "draining", Some(&sys));
                return match sys.run_to_completion() {
                    Ok(report) => {
                        let mut buf = Vec::new();
                        if report.write_stats(&mut buf).is_err()
                            || write_atomic(&files.stats, &buf).is_err()
                        {
                            eprintln!("disco-serve: {}: cannot write stats", job.name);
                            files.heartbeat(&job.name, "failed", None);
                            return JobOutcome::Failed;
                        }
                        let _ = fs::remove_file(&files.checkpoint);
                        files.heartbeat(&job.name, "completed", None);
                        JobOutcome::Completed
                    }
                    Err(e) => {
                        eprintln!("disco-serve: {}: {e}", job.name);
                        files.heartbeat(&job.name, "failed", None);
                        JobOutcome::Failed
                    }
                };
            }
            Err(e @ SimError::DeadlineExceeded { .. }) => {
                eprintln!("disco-serve: {}: {e}", job.name);
                files.heartbeat(&job.name, "failed", Some(&sys));
                return JobOutcome::Failed;
            }
            Err(e) => {
                eprintln!("disco-serve: {}: {e}", job.name);
                files.heartbeat(&job.name, "failed", None);
                return JobOutcome::Failed;
            }
        }
    }
}

/// Runs the queue. Jobs fan round-robin across `threads` workers
/// ([`fan_out`]); each worker processes its jobs in submission order.
/// Returns the outcome tally (the binary turns `failed > 0` into a
/// failing exit code).
pub fn serve(cfg: &ServeConfig, opts: &ServeOpts) -> Result<ServeSummary, String> {
    fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    // i64 so concurrent fetch_subs past zero saturate harmlessly.
    let budget = AtomicI64::new(match opts.max_chunks {
        Some(n) => i64::try_from(n).unwrap_or(i64::MAX),
        None => i64::MAX,
    });
    let outcomes = fan_out(&cfg.jobs, opts.threads, |job| {
        let files = JobFiles::new(&opts.out_dir, &job.name);
        let mut resumed = false;
        let outcome = run_job(job, &files, cfg.checkpoint_every, &budget, &mut resumed);
        (outcome, resumed)
    });
    let mut summary = ServeSummary::default();
    for (outcome, resumed) in outcomes {
        if resumed {
            summary.resumed += 1;
        }
        match outcome {
            JobOutcome::Completed => summary.completed += 1,
            JobOutcome::AlreadyDone => summary.already_done += 1,
            JobOutcome::Interrupted => summary.interrupted += 1,
            JobOutcome::Cancelled => summary.cancelled += 1,
            JobOutcome::Failed => summary.failed += 1,
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_core::CompressionPlacement;

    fn queue_text() -> &'static str {
        r#"{
            "checkpoint_every": 500,
            "jobs": [
                {"name": "a", "mesh": 2, "benchmark": "swaptions",
                 "trace_len": 150, "seed": 1},
                {"name": "b", "mesh": 2, "placement": "baseline",
                 "benchmark": "dedup", "trace_len": 150, "seed": 2}
            ]
        }"#
    }

    #[test]
    fn queue_parses_and_validates() {
        let (cfg, warnings) = parse_queue(queue_text()).expect("valid queue");
        assert_eq!(cfg.checkpoint_every, 500);
        assert_eq!(cfg.jobs.len(), 2);
        assert_eq!(cfg.jobs[0].name, "a");
        assert_eq!(cfg.jobs[0].spec.placement, CompressionPlacement::Disco);
        assert_eq!(cfg.jobs[1].spec.placement, CompressionPlacement::Baseline);
        assert!(warnings.is_empty());
    }

    #[test]
    fn bad_queues_are_rejected_with_context() {
        let dup = r#"{"jobs": [
            {"name": "x", "mesh": 2, "trace_len": 10},
            {"name": "x", "mesh": 2, "trace_len": 10}
        ]}"#;
        assert!(parse_queue(dup).unwrap_err().contains("duplicate"));
        let bad_bench = r#"{"jobs": [
            {"name": "x", "mesh": 2, "trace_len": 10, "benchmark": "doom"}
        ]}"#;
        let e = parse_queue(bad_bench).unwrap_err();
        assert!(e.contains("doom") && e.contains("blackscholes"), "{e}");
        let bad_name = r#"{"jobs": [
            {"name": "../x", "mesh": 2, "trace_len": 10}
        ]}"#;
        assert!(parse_queue(bad_name).unwrap_err().contains("file-safe"));
        assert!(parse_queue("{}").is_err());
        assert!(parse_queue("not json").is_err());
        // A mistyped value is an error naming its field, never a default.
        for (fields, bad) in [
            (r#""mesh": 2, "seed": "7""#, "seed"),
            (r#""mesh": 2, "seed": 1.5"#, "seed"),
            (r#""mesh": 2, "seed": 18446744073709551616"#, "seed"),
            (r#""mesh": 2, "max_cycles": -1"#, "max_cycles"),
            (r#""mesh": 2, "fault_rate": "0.1""#, "fault_rate"),
            (r#""mesh": 2, "fault_rate": -0.5"#, "fault_rate"),
            (r#""mesh": 2, "vcs": 0"#, "vcs"),
            (r#""mesh": 2, "buffer_depth": true"#, "buffer_depth"),
            (r#""mesh": 2, "cc_threshold": null"#, "cc_threshold"),
            (r#""mesh": "4""#, "mesh"),
            (r#""cols": 2, "rows": 2.5"#, "rows"),
        ] {
            let queue = format!(r#"{{"jobs": [{{"name": "x", "trace_len": 10, {fields}}}]}}"#);
            let e = parse_queue(&queue).expect_err(&queue);
            assert!(e.starts_with(&format!("jobs[0].{bad} ")), "{queue}: {e}");
        }
        let e = parse_queue(
            r#"{"checkpoint_every": "x", "jobs": [{"name": "x", "mesh": 2, "trace_len": 10}]}"#,
        )
        .unwrap_err();
        assert!(e.contains("checkpoint_every"), "{e}");
        let dup_key =
            r#"{"jobs": [{"name": "x", "mesh": 2, "trace_len": 10, "seed": 1, "seed": 2}]}"#;
        assert!(parse_queue(dup_key).unwrap_err().contains("duplicate key"));
    }

    #[test]
    fn near_zero_expected_injections_warn() {
        let w = injection_warning("j", 1e-9, 10_000, 80);
        let w = w.expect("1e-9 over 10k cycles rounds to ~0");
        assert!(w.contains("expected_injections_rounds_to_zero"));
        assert!(w.contains("resume"));
        assert!(injection_warning("j", 0.0, 10_000, 80).is_none());
        assert!(injection_warning("j", 1e-3, 10_000, 80).is_none());
    }

    #[test]
    fn serve_completes_a_queue_and_is_idempotent() {
        let (cfg, _) = parse_queue(queue_text()).expect("valid queue");
        let dir = std::env::temp_dir().join(format!("disco-serve-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let opts = ServeOpts {
            out_dir: dir.clone(),
            threads: 2,
            max_chunks: None,
        };
        let summary = serve(&cfg, &opts).expect("serves");
        assert_eq!(summary.completed, 2);
        assert_eq!(summary.failed, 0);
        for job in &cfg.jobs {
            let files = JobFiles::new(&dir, &job.name);
            assert!(files.stats.exists(), "{} missing stats", job.name);
            assert!(!files.checkpoint.exists(), "{} checkpoint left", job.name);
            assert!(files.heartbeat.exists(), "{} missing heartbeat", job.name);
        }
        let again = serve(&cfg, &opts).expect("re-serves");
        assert_eq!(again.already_done, 2);
        assert_eq!(again.completed, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
