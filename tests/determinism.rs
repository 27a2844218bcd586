//! Determinism matrix: the phase-split cycle kernel must produce
//! byte-identical stats on every rerun of the same configuration. Each
//! router's compute reads only the cycle-start state and the commit
//! pass applies the outcomes in node order, so nothing but the
//! configuration decides an outcome. CI runs this file under the
//! default, `validate`, `trace`, `faults` and `faults,trace` builds.

use disco::core::{CompressionPlacement, SimBuilder};
use disco::noc::{NocConfig, RoutingAlgorithm, TopologyChoice};
use disco::workloads::Benchmark;

/// Runs `run` twice and asserts both runs render the same bytes.
/// Returns the first rendering for further checks.
fn assert_reruns_identically(label: &str, run: impl Fn() -> String) -> String {
    let first = run();
    assert_eq!(first, run(), "{label}: rerun diverged");
    first
}

/// The rendered stats file of a finished run.
fn stats_text(builder: SimBuilder) -> String {
    let report = builder.run().expect("matrix run drains");
    let mut buf = Vec::new();
    report.write_stats(&mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("stats are utf8")
}

/// One 4x4 dedup matrix point.
fn matrix_point(
    seed: u64,
    placement: CompressionPlacement,
    routing: RoutingAlgorithm,
) -> SimBuilder {
    SimBuilder::new()
        .mesh(4, 4)
        .placement(placement)
        .benchmark(Benchmark::Dedup)
        .trace_len(300)
        .seed(seed)
        .noc(NocConfig {
            routing,
            ..NocConfig::default()
        })
}

#[test]
fn reruns_never_change_stats() {
    for seed in [1u64, 2, 3] {
        for placement in [CompressionPlacement::Baseline, CompressionPlacement::Disco] {
            for routing in [RoutingAlgorithm::Xy, RoutingAlgorithm::WestFirst] {
                assert_reruns_identically(
                    &format!("seed {seed}, {placement}, {routing:?}"),
                    || stats_text(matrix_point(seed, placement, routing)),
                );
            }
        }
    }
}

/// The wrapped topologies join the matrix: ring and torus runs (which
/// exercise the dateline VC split and, on the ring, radix-3 port
/// tables) must rerun byte-identically too. 3 seeds × {Baseline,
/// DISCO} per topology.
#[test]
fn ring_and_torus_rerun_identically() {
    for topology in [TopologyChoice::Ring, TopologyChoice::Torus] {
        for seed in [1u64, 2, 3] {
            for placement in [CompressionPlacement::Baseline, CompressionPlacement::Disco] {
                assert_reruns_identically(&format!("{topology}, seed {seed}, {placement}"), || {
                    stats_text(
                        matrix_point(seed, placement, RoutingAlgorithm::Xy).topology(topology),
                    )
                });
            }
        }
    }
}

/// A DISCO run must also satisfy the runtime invariant checker: when
/// the `validate` feature is on (CI's `validate` leg), this run walks
/// credit conservation and VC-state legality every cycle.
#[test]
fn disco_run_passes_validation() {
    let stats = stats_text(matrix_point(
        11,
        CompressionPlacement::Disco,
        RoutingAlgorithm::Xy,
    ));
    assert!(stats.contains("noc.routing_violations = 0"));
}

/// The 16x16 leg: 256 routers, where a node-order bug in the commit
/// pass has the most room to show.
#[test]
fn large_mesh_reruns_identically() {
    assert_reruns_identically("16x16, seed 1, Disco", || {
        stats_text(
            SimBuilder::new()
                .mesh(16, 16)
                .placement(CompressionPlacement::Disco)
                .benchmark(Benchmark::Dedup)
                .trace_len(200)
                .seed(1),
        )
    });
}

/// Fault injection must not weaken the determinism contract: the fault
/// schedule is a pure function of `(seed, kind, cycle, site)` and all
/// fault bookkeeping runs in the node-ordered serial passes, so the
/// whole stats file — FaultStats included — must rerun byte-identically
/// at any fault rate. CI runs this leg under `faults` and
/// `faults,trace`.
#[cfg(feature = "faults")]
mod faults_matrix {
    use super::*;
    use disco::faults::FaultPlan;

    /// One faulty matrix point.
    fn faulty_point(seed: u64, rate: f64) -> SimBuilder {
        matrix_point(seed, CompressionPlacement::Disco, RoutingAlgorithm::Xy)
            .faults(FaultPlan::uniform(seed ^ 0xfa17, rate))
    }

    #[test]
    fn fault_stats_rerun_identically() {
        for seed in [1u64, 2, 3] {
            for rate in [0.0, 1e-4] {
                assert_reruns_identically(&format!("seed {seed}, rate {rate}"), || {
                    stats_text(faulty_point(seed, rate))
                });
            }
        }
    }

    /// A rate-zero plan is indistinguishable from never arming one: the
    /// context is discarded at install time, so timing, stats, and the
    /// stats file bytes all match the fault-free build.
    #[test]
    fn rate_zero_matches_fault_free_run() {
        let clean = stats_text(matrix_point(
            2,
            CompressionPlacement::Disco,
            RoutingAlgorithm::Xy,
        ));
        let armed = stats_text(faulty_point(2, 0.0));
        assert_eq!(clean, armed, "inactive plan must be a no-op");
    }

    /// JSONL byte-identity extends to faulty runs (fault events, eaten
    /// ejections, and retransmissions are all committed in node order).
    #[cfg(feature = "trace")]
    #[test]
    fn faulty_trace_jsonl_reruns_identically() {
        let jsonl = assert_reruns_identically("faulty JSONL export", || {
            let report = matrix_point(9, CompressionPlacement::Disco, RoutingAlgorithm::Xy)
                .faults(FaultPlan::uniform(0xfa17, 1e-4))
                .retain_trace_records(true)
                .run()
                .expect("faulty matrix run drains");
            let t = report.trace.expect("capture requested");
            disco::trace::export::jsonl_string(&t.records)
        });
        assert!(!jsonl.is_empty());
    }
}

/// The trace is part of the determinism contract too: every event is
/// committed in node order and stamped with the simulated cycle (never
/// wall-clock), so the exported JSONL must rerun byte-identically. CI
/// runs this under `trace` and `faults,trace`.
#[cfg(feature = "trace")]
#[test]
fn trace_jsonl_reruns_identically() {
    let jsonl = assert_reruns_identically("JSONL export", || {
        let report = matrix_point(9, CompressionPlacement::Disco, RoutingAlgorithm::Xy)
            .retain_trace_records(true)
            .run()
            .expect("matrix run drains");
        let t = report.trace.expect("capture requested");
        assert!(t.provenance.exact, "decomposition exact");
        disco::trace::export::jsonl_string(&t.records)
    });
    assert!(!jsonl.is_empty());
}

/// The checkpoint leg of the contract: run-to-cycle-N → snapshot →
/// restore → run-to-end must be byte-identical to the unbroken run —
/// the stats file, and (feature-gated) the trace JSONL export and the
/// fault ledger riding in the stats file — and the snapshot taken at N
/// must itself rerun byte-identically. CI runs this under default and
/// `faults,trace` builds.
mod snapshot_roundtrip {
    use super::*;
    use disco::core::{SimReport, System};

    /// Cycle at which the interrupted run pauses and checkpoints.
    const SNAPSHOT_AT: u64 = 300;

    fn matrix_builder(seed: u64, placement: CompressionPlacement) -> SimBuilder {
        let builder = matrix_point(seed, placement, RoutingAlgorithm::Xy);
        #[cfg(feature = "faults")]
        let builder = builder.faults(disco::faults::FaultPlan::uniform(seed ^ 0xfa17, 1e-4));
        #[cfg(feature = "trace")]
        let builder = builder.retain_trace_records(true);
        builder
    }

    /// Every byte-comparable artifact of a finished run: the stats file
    /// (which carries the fault ledger under `faults`) and the exported
    /// trace JSONL under `trace`.
    fn artifacts(report: &SimReport) -> String {
        let mut buf = Vec::new();
        report.write_stats(&mut buf).expect("in-memory write");
        #[allow(unused_mut)]
        let mut out = String::from_utf8(buf).expect("stats are utf8");
        #[cfg(feature = "trace")]
        {
            let t = report.trace.as_ref().expect("capture requested");
            out.push_str(&disco::trace::export::jsonl_string(&t.records));
        }
        out
    }

    #[test]
    fn snapshot_resume_is_byte_identical() {
        for seed in [1u64, 2, 3] {
            for placement in [CompressionPlacement::Baseline, CompressionPlacement::Disco] {
                let builder = matrix_builder(seed, placement);
                let unbroken = artifacts(&builder.clone().run().expect("unbroken run drains"));
                let snapshot_at_n = || {
                    let mut sys = builder.build();
                    assert!(
                        !sys.step_until(SNAPSHOT_AT).expect("within budget"),
                        "seed {seed}, {placement}: run finished before cycle {SNAPSHOT_AT}"
                    );
                    sys.snapshot()
                };
                let bytes = snapshot_at_n();
                assert!(
                    bytes == snapshot_at_n(),
                    "seed {seed}, {placement}: snapshot at cycle {SNAPSHOT_AT} diverged on rerun"
                );
                let resumed = System::restore(&bytes)
                    .expect("snapshot restores")
                    .run_to_completion()
                    .expect("resumed run drains");
                assert_eq!(
                    unbroken,
                    artifacts(&resumed),
                    "seed {seed}, {placement}: resumed run diverged from the unbroken run"
                );
            }
        }
    }
}

/// The model checker's report — state counts, depth, and every
/// counterexample schedule — must be byte-identical run to run and at
/// any worklist worker count, or `cargo xtask verify --json` artifacts
/// could not be diffed across CI runs. The explorer guarantees this by
/// merging per-chunk frontier results in chunk order; this pins it on a
/// configuration small enough for the test tier.
#[test]
fn model_checker_report_is_worker_invariant() {
    use disco_verify::explorer::{explore, ExploreOptions};
    use disco_verify::model::{LiveDir, ProtocolModel, ScriptOp};

    let run = |workers: usize| {
        let model = ProtocolModel::new(
            LiveDir::default(),
            vec![
                vec![ScriptOp::Write, ScriptOp::Read],
                vec![ScriptOp::Read, ScriptOp::Write],
            ],
        );
        let report = explore(
            &model,
            &ExploreOptions {
                max_depth: 32,
                max_states: 500_000,
                workers,
                max_violations: 8,
            },
        );
        (report.states, report.transitions, report.render("model"))
    };
    let (states, transitions, baseline) = run(1);
    assert!(states > 1_000, "two-writer model explores a real space");
    for workers in [2, 4] {
        let (s, t, render) = run(workers);
        assert_eq!(states, s, "state count diverged at {workers} workers");
        assert_eq!(
            transitions, t,
            "transition count diverged at {workers} workers"
        );
        assert_eq!(
            baseline, render,
            "rendered report diverged at {workers} workers"
        );
    }
}
