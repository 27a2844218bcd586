//! `pareto` — resumable Pareto design-space exploration (PR 10).
//!
//! ```text
//! pareto --out PARETO_pr10.json [--grid smoke|full] [--workers N]
//!        [--journal points.jsonl] [--max-points N]
//! ```
//!
//! Enumerates the declared design space, runs every point not already
//! in the journal through the full-system simulator under the
//! energy/area model, and — once the space is exhausted — writes the
//! exact latency/energy/area frontier with dominance proofs to `--out`.
//! Kill it at any moment and rerun the same command line: journaled
//! points are skipped and the final JSON is byte-identical to an
//! uninterrupted run at any `--workers` count.
//!
//! `--max-points N` budgets how many *new* points one invocation may
//! simulate — a deterministic stand-in for a kill, used by the
//! kill-and-resume tests and the CI smoke job. Exit status: 0 on
//! success, 1 on usage errors, 3 when the budget ran out with points
//! remaining (rerun to continue).

use disco_pareto::journal::write_atomic;
use disco_pareto::space::DesignSpace;
use disco_pareto::{explore, ExploreConfig};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    out: PathBuf,
    grid: DesignSpace,
    workers: usize,
    journal: Option<PathBuf>,
    max_points: usize,
}

const USAGE: &str = "usage: pareto --out <frontier.json> [--grid smoke|full] \
                     [--workers N] [--journal <points.jsonl>] [--max-points N]";

fn parse_args() -> Result<Args, String> {
    let mut out = None;
    let mut grid = DesignSpace::smoke();
    let mut workers = 1;
    let mut journal = None;
    let mut max_points = 0;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs a {what}"));
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(value("path")?)),
            "--grid" => {
                grid = match value("name")?.as_str() {
                    "smoke" => DesignSpace::smoke(),
                    "full" => DesignSpace::full(),
                    other => return Err(format!("unknown grid {other:?} (smoke or full)")),
                };
            }
            "--workers" => {
                workers = value("count")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--journal" => journal = Some(PathBuf::from(value("path")?)),
            "--max-points" => {
                max_points = value("count")?
                    .parse()
                    .map_err(|e| format!("--max-points: {e}"))?;
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        out: out.ok_or(format!("--out is required\n{USAGE}"))?,
        grid,
        workers,
        journal,
        max_points,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = ExploreConfig {
        space: args.grid,
        workers: args.workers,
        journal: args.journal,
        max_points: args.max_points,
    };
    let outcome = explore(&cfg);
    for w in &outcome.warnings {
        eprintln!("{w}");
    }
    println!(
        "pareto: {} points, {} run now, {} remaining",
        outcome.total, outcome.completed, outcome.remaining
    );
    if outcome.remaining > 0 {
        eprintln!(
            "pareto: point budget exhausted with {} points remaining; \
             rerun with the same --journal to continue",
            outcome.remaining
        );
        return ExitCode::from(3);
    }
    let json = outcome.json.expect("fully explored");
    let frontier = outcome.frontier.expect("fully explored");
    if let Err(e) = write_atomic(&args.out, json.as_bytes()) {
        eprintln!("pareto: cannot write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "pareto: frontier {} / dominated {} -> {}",
        frontier.frontier.len(),
        frontier.dominated.len(),
        args.out.display()
    );
    ExitCode::SUCCESS
}
