//! The batch exploration driver: enumerate the space, skip journaled
//! points, fan the rest across workers, journal completions in chunks,
//! and — once the space is exhausted — compute the frontier and render
//! the versioned `disco-pareto/1` JSON.
//!
//! Everything downstream of the journal is a pure function of the
//! design space, so the rendered JSON is byte-identical for any worker
//! count and across any kill-and-resume sequence. No wall-clock value
//! ever reaches the journal or the JSON.

use std::path::PathBuf;

use disco_core::{CompressionPlacement, SimError, SimReport};
use disco_energy::AreaModel;

use crate::exec::{fan_out, oversubscription_warning};
use crate::frontier::{self, Frontier};
use crate::journal::{Journal, JournalEntry};
use crate::space::{DesignPoint, DesignSpace};
use crate::spec::{float, quoted, SimSpec};

/// One exploration request.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// The declared space.
    pub space: DesignSpace,
    /// Worker threads fanning over points (≤ 1 = serial).
    pub workers: usize,
    /// Journal path; `None` explores entirely in memory (no resume).
    pub journal: Option<PathBuf>,
    /// Budget: at most this many *new* points this invocation (0 =
    /// unlimited). An exhausted budget leaves the journal resumable.
    pub max_points: usize,
}

impl ExploreConfig {
    /// A serial, un-journaled exploration of `space`.
    pub fn new(space: DesignSpace) -> Self {
        ExploreConfig {
            space,
            workers: 1,
            journal: None,
            max_points: 0,
        }
    }
}

/// What one `explore` invocation accomplished.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Points in the declared space.
    pub total: usize,
    /// Points newly simulated by this invocation.
    pub completed: usize,
    /// Points still missing afterwards (> 0 means the budget ran out:
    /// rerun with the same journal to continue).
    pub remaining: usize,
    /// Configuration warnings (JSON lines; empty when sound).
    pub warnings: Vec<String>,
    /// The frontier census, once the space is fully explored.
    pub frontier: Option<Frontier>,
    /// The rendered `disco-pareto/1` JSON, once fully explored.
    pub json: Option<String>,
}

/// Journal-append chunk size: a kill forfeits at most this many
/// finished points, and entries still land in id order because the
/// fan-out preserves item order within each chunk.
const CHUNK: usize = 8;

/// Runs (or resumes) one exploration. See [`ExploreConfig`] and the
/// crate docs for the determinism contract.
///
/// # Panics
///
/// Panics if a design point fails to simulate or journal I/O fails —
/// batch-driver conditions where continuing would corrupt the census.
pub fn explore(cfg: &ExploreConfig) -> ExploreOutcome {
    let points = cfg.space.points();
    let journal = cfg.journal.as_ref().map(Journal::new);
    let mut done = journal.as_ref().map(|j| j.load()).unwrap_or_default();
    // A stale journal with ids beyond the space means the space shrank
    // under an existing journal file: refuse to blend two explorations.
    if let Some(max) = done.keys().next_back() {
        assert!(
            (*max as usize) < points.len(),
            "journal contains point id {max} but the space has only {} points — \
             stale journal for a different space?",
            points.len()
        );
    }

    let mut warnings = Vec::new();
    let host = std::thread::available_parallelism().map_or(0, |n| n.get());
    if let Some(w) = oversubscription_warning("pareto", cfg.workers, host) {
        warnings.push(w);
    }

    let mut pending: Vec<&DesignPoint> = points
        .iter()
        .filter(|p| !done.contains_key(&p.id))
        .collect();
    if cfg.max_points > 0 {
        pending.truncate(cfg.max_points);
    }

    let mut completed = 0;
    for chunk in pending.chunks(CHUNK.max(cfg.workers)) {
        let entries = fan_out(chunk, cfg.workers, run_point);
        if let Some(j) = &journal {
            j.append(&entries);
        }
        completed += entries.len();
        for e in entries {
            done.insert(e.id, e);
        }
    }

    let remaining = points.len() - done.len();
    let (frontier, json) = if remaining == 0 {
        let objectives: Vec<_> = done.values().map(|e| (e.id, e.objectives())).collect();
        let frontier = frontier::compute(&objectives);
        let json = render(&cfg.space, &points, &done, &frontier);
        (Some(frontier), Some(json))
    } else {
        (None, None)
    };

    ExploreOutcome {
        total: points.len(),
        completed,
        remaining,
        warnings,
        frontier,
        json,
    }
}

/// Runs `spec` to completion — the run every design point gets —
/// returning the report and its rendered stats file.
pub fn simulate(spec: &SimSpec) -> Result<(SimReport, Vec<u8>), SimError> {
    let report = spec.builder().run()?;
    let mut stats = Vec::new();
    report.write_stats(&mut stats).expect("in-memory write");
    Ok((report, stats))
}

/// Simulates one point, then derives its objectives + energy breakdown.
fn run_point(point: &&DesignPoint) -> JournalEntry {
    let (report, _) = simulate(&point.spec)
        .unwrap_or_else(|e| panic!("point {} ({}) failed: {e:?}", point.id, point.spec.label()));
    let er = report.energy_report();
    JournalEntry {
        id: point.id,
        latency: report.avg_onchip_latency(),
        pj_per_cycle: er.pj_per_cycle(),
        area_mm2: added_area(&point.spec),
        noc_dynamic_pj: er.breakdown.noc_dynamic_pj,
        noc_static_pj: er.breakdown.noc_static_pj,
        cache_dynamic_pj: er.breakdown.cache_dynamic_pj,
        cache_static_pj: er.breakdown.cache_static_pj,
        compressor_pj: er.breakdown.compressor_pj,
    }
}

/// Silicon this spec adds over the uncompressed plain-mesh baseline:
/// compression hardware per the placement's §4.3 cost, plus the
/// express-channel overlay when the topology has long-range links.
fn added_area(spec: &SimSpec) -> f64 {
    let tiles = spec.cols * spec.rows;
    let model = AreaModel::default();
    let compression = match spec.placement {
        CompressionPlacement::Baseline | CompressionPlacement::Ideal => 0.0,
        CompressionPlacement::CacheOnly => model.cc(tiles).added_mm2,
        CompressionPlacement::CacheAndNi => model.cnc(tiles).added_mm2,
        CompressionPlacement::Disco => model.disco(tiles).added_mm2,
    };
    let topo = spec.topology.build(spec.cols, spec.rows);
    compression + model.express(tiles, topo.express_link_count()).added_mm2
}

fn list<T>(values: &[T], render: impl Fn(&T) -> String) -> String {
    let items: Vec<String> = values.iter().map(render).collect();
    format!("[{}]", items.join(","))
}

/// Renders the versioned frontier JSON. Every declared axis of
/// [`DesignSpace`] appears by name in the `space` block — `cargo xtask
/// verify` checks this pairing against the struct definition.
fn render(
    space: &DesignSpace,
    points: &[DesignPoint],
    done: &std::collections::BTreeMap<u64, JournalEntry>,
    frontier: &Frontier,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n  \"format\": \"disco-pareto/1\",\n  \"space\": {\n");
    let axes = [
        ("\"cols\"", space.cols.to_string()),
        ("\"rows\"", space.rows.to_string()),
        ("\"trace_len\"", space.trace_len.to_string()),
        ("\"seed\"", space.seed.to_string()),
        (
            "\"topologies\"",
            list(&space.topologies, |t| quoted(t.name())),
        ),
        ("\"vcs\"", list(&space.vcs, usize::to_string)),
        (
            "\"buffer_depths\"",
            list(&space.buffer_depths, usize::to_string),
        ),
        (
            "\"placements\"",
            list(&space.placements, |p| quoted(p.name())),
        ),
        ("\"schemes\"", list(&space.schemes, |s| quoted(s.name()))),
        ("\"cc_thresholds\"", list(&space.cc_thresholds, float)),
        ("\"cd_thresholds\"", list(&space.cd_thresholds, float)),
        ("\"gammas\"", list(&space.gammas, float)),
        ("\"alphas\"", list(&space.alphas, float)),
        ("\"betas\"", list(&space.betas, float)),
        (
            "\"benchmarks\"",
            list(&space.benchmarks, |b| quoted(b.name())),
        ),
    ];
    for (i, (key, value)) in axes.iter().enumerate() {
        let comma = if i + 1 < axes.len() { "," } else { "" };
        let _ = writeln!(out, "    {key}: {value}{comma}");
    }
    out.push_str("  },\n  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let e = &done[&p.id];
        let _ = write!(
            out,
            "    {{\"id\":{},{},\"latency\":{:?},\"pj_per_cycle\":{:?},\
             \"area_mm2\":{:?},\"energy\":{{\"noc_dynamic_pj\":{:?},\
             \"noc_static_pj\":{:?},\"cache_dynamic_pj\":{:?},\"cache_static_pj\":{:?},\
             \"compressor_pj\":{:?}}}}}",
            p.id,
            p.spec.json_members(&DesignPoint::KEYS),
            e.latency,
            e.pj_per_cycle,
            e.area_mm2,
            e.noc_dynamic_pj,
            e.noc_static_pj,
            e.cache_dynamic_pj,
            e.cache_static_pj,
            e.compressor_pj,
        );
        out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"frontier\": [{}],",
        frontier
            .frontier
            .iter()
            .map(|id| id.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let _ = writeln!(
        out,
        "  \"dominated\": [{}]",
        frontier
            .dominated
            .iter()
            .map(|d| format!("{{\"id\":{},\"dominator\":{}}}", d.id, d.dominator))
            .collect::<Vec<_>>()
            .join(",")
    );
    out.push_str("}\n");
    out
}
