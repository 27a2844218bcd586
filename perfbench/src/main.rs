//! Measuring program of the repository benchmark. It runs one workload
//! for a fixed host time in repetitions, checks every repetition's
//! outputs, and prints one JSON object of raw samples, counters and
//! checks on its last line; `run.py` turns that into metrics.
//!
//! ```text
//! disco-perfbench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//!                 [--spans-out <file>] [--holdout-seed <n>]
//! disco-perfbench --calibrate
//! ```
//!
//! With `--trace 1` every other repetition (at most 5) records spans,
//! which are written to `--spans-out` at exit.

mod probe;
mod spans;
mod workloads;

use spans::Spans;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Claim, Rep, Workload};

/// Repetitions made however long they take, so a median exists.
const MIN_REPS: u32 = 3;
/// Most repetitions a traced run records spans for; enough for stable
/// per-layer sums while keeping the span file small.
const MAX_TRACED_REPS: u32 = 5;
/// Host time between host-speed probes; a probe takes about 60 ms, so
/// probing costs about 6% of a run.
const PROBE_EVERY: Duration = Duration::from_secs(1);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
    holdout_seed: Option<u64>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut spans_out = None;
    let mut holdout_seed = None;
    while let Some(flag) = it.next() {
        if flag == "--calibrate" {
            return Ok(None);
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(bad)?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            "--holdout-seed" => holdout_seed = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans_out,
        holdout_seed,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            workloads::calibrate();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new();
    let mut out = Outcome::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut i = 0;
    let mut traced_reps = 0;
    let mut probe = probe::Probe::new();
    let mut probed_at: Option<Instant> = None;
    while i < MIN_REPS || start.elapsed() < budget {
        if probed_at.is_none_or(|t| t.elapsed() >= PROBE_EVERY) {
            out.probe_s.push(probe.run());
            probed_at = Some(Instant::now());
        }
        // Traced and untraced repetitions alternate, so the tracing
        // overhead compares repetitions made under the same host load.
        let traced = args.trace && i % 2 == 1 && traced_reps < MAX_TRACED_REPS;
        traced_reps += u32::from(traced);
        spans.set_run(i, traced);
        let rep = args.workload.rep(args.seed, &mut spans);
        out.add(format!("rep {i}"), rep, traced);
        i += 1;
    }
    out.probe_s.push(probe.run());
    spans.set_run(i, false);
    if let Some(reference) = args.workload.reference(args.seed) {
        out.attempted += 1;
        match reference {
            Ok(fp) if Some(fp) == out.fingerprint => {}
            Ok(_) => out.fail(
                "reference: `.benchmark(b).trace_len(n)` stats differ from the generated-trace run"
                    .into(),
            ),
            Err(e) => out.fail(format!("reference: {e}")),
        }
    }
    let holdout = args.holdout_seed.map(|seed| {
        let rep = args.workload.rep(seed, &mut spans);
        out.attempted += 1;
        let errors = claim_errors(&rep.claims);
        if !rep.errors.is_empty() || !errors.is_empty() {
            out.fail(format!(
                "holdout seed {seed}: {:?} {:?}",
                rep.errors, errors
            ));
        }
        (seed, rep.claims)
    });
    if let (Some(path), true) = (&args.spans_out, args.trace) {
        if let Err(e) = spans.write_jsonl(path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", out.to_json(&args, holdout));
    ExitCode::SUCCESS
}

fn claim_errors(claims: &[Claim]) -> Vec<String> {
    claims
        .iter()
        .filter(|c| !c.holds())
        .map(|c| format!("{} = {} outside [{}, {}]", c.name, c.value, c.lo, c.hi))
        .collect()
}

/// Samples and checks gathered over one invocation.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// (traced, setup_s, run_s, work) of every correct repetition.
    samples: Vec<(bool, f64, f64, u64)>,
    /// Seconds of every host-speed probe.
    probe_s: Vec<f64>,
    /// Fingerprint of the first correct repetition, which every later
    /// one and the reference run must match.
    fingerprint: Option<u64>,
    /// The first correct repetition's counters, outputs and claims.
    first: Option<Rep>,
}

impl Outcome {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    fn add(&mut self, label: String, mut rep: Rep, traced: bool) {
        self.attempted += 1;
        if rep.errors.is_empty()
            && rep.fingerprint != *self.fingerprint.get_or_insert(rep.fingerprint)
        {
            rep.errors
                .push("stats fingerprint differs from the first repetition".into());
        }
        rep.errors.extend(claim_errors(&rep.claims));
        if !rep.errors.is_empty() {
            self.fail(format!("{label}: {}", rep.errors.join("; ")));
            return;
        }
        self.samples
            .push((traced, rep.setup_s, rep.run_s, rep.work));
        if self.first.is_none() {
            self.first = Some(rep);
        }
    }

    fn to_json(&self, args: &Args, holdout: Option<(u64, Vec<Claim>)>) -> String {
        let first = self.first.as_ref();
        let pairs = |items: Option<&Vec<(&'static str, f64)>>| {
            let mut s = String::from("{");
            for (k, (name, v)) in items.into_iter().flatten().enumerate() {
                let _ = write!(s, "{}\"{name}\":{}", if k > 0 { "," } else { "" }, num(*v));
            }
            s + "}"
        };
        let claims = |claims: &[Claim]| {
            let items: Vec<String> = claims
                .iter()
                .map(|c| {
                    format!(
                        r#"{{"name":"{}","value":{},"lo":{},"hi":{},"holds":{}}}"#,
                        c.name,
                        num(c.value),
                        num(c.lo),
                        num(c.hi),
                        c.holds()
                    )
                })
                .collect();
            format!("[{}]", items.join(","))
        };
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(traced, setup, run, work)| {
                format!(
                    r#"{{"traced":{traced},"setup_s":{},"run_s":{},"work":{work}}}"#,
                    num(*setup),
                    num(*run)
                )
            })
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        let probes: Vec<String> = self.probe_s.iter().map(|&p| num(p)).collect();
        let holdout = holdout.map_or("null".to_string(), |(seed, c)| {
            format!(r#"{{"seed":{seed},"claims":{}}}"#, claims(&c))
        });
        let spans_file = match (&args.spans_out, args.trace) {
            (Some(p), true) => json_str(&p.display().to_string()),
            _ => "null".to_string(),
        };
        format!(
            concat!(
                r#"{{"workload":"{}","seed":{},"trace":{},"#,
                r#""host":{{"nproc":{},"profile":"{}","features":"default"}},"#,
                r#""attempted":{},"failed":{},"errors":[{}],"#,
                r#""inputs":{},"samples":[{}],"probe_s":[{}],"counters":{},"sim":{},"#,
                r#""claims":{},"holdout":{},"peak_rss_kb":{},"spans_file":{}}}"#
            ),
            args.workload.name(),
            args.seed,
            args.trace,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            self.attempted,
            self.failed,
            errors.join(","),
            pairs(first.map(|r| &r.inputs)),
            samples.join(","),
            probes.join(","),
            pairs(first.map(|r| &r.counters)),
            pairs(first.map(|r| &r.sim)),
            claims(first.map_or(&[][..], |r| &r.claims)),
            holdout,
            peak_rss_kb(),
            spans_file,
        )
    }
}

/// A finite number as JSON; NaN and infinities become null.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out + "\""
}

/// Peak resident set size of this process in KiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
