#![warn(missing_docs)]

//! Resumable Pareto design-space exploration over the DISCO energy and
//! area models.
//!
//! The paper's pitch is energy efficiency per unit of NoC performance;
//! this crate asks the system-level question behind it: *which*
//! {topology, codec, thresholds, buffers, placement} configurations are
//! latency/energy/area-optimal? Following the Pareto-optimization
//! framing of automated NoC design (arxiv 1807.11607), a declared
//! [`space::DesignSpace`] is enumerated into deterministic points, each
//! point runs a full-system simulation under the energy model, and the
//! exact three-objective frontier is computed with dominance proofs —
//! every dominated point names its dominator.
//!
//! The moving parts:
//!
//! - [`spec`] — one simulation as plain data ([`SimSpec`]), the one
//!   place it becomes a `SimBuilder`, and the one table of its JSON keys
//!   (shared with the `disco-serve` queue format).
//! - [`space`] — the declared axes and their deterministic cartesian
//!   enumeration (ids are enumeration order, forever).
//! - [`exec`] — the worker fan-out (shared with `disco-bench`'s sweep
//!   harness) and the configuration warnings.
//! - [`frontier`] — weak/epsilon dominance and the frontier census.
//! - [`journal`] — append-only JSONL of completed points; a killed
//!   exploration resumes without re-running them.
//! - [`json`] — the workspace's one JSON reader, and string escaping.
//! - [`driver`] — runs the points, journals, and renders the versioned
//!   `disco-pareto/1` frontier JSON.
//!
//! Determinism contract: the rendered frontier JSON is **byte-identical**
//! for any worker count and across any kill-and-resume of the journal,
//! because results are keyed and sorted by point id and every journaled
//! float round-trips exactly (Rust's shortest-representation `{:?}`).

pub mod driver;
pub mod exec;
pub mod frontier;
pub mod journal;
pub mod json;
pub mod space;
pub mod spec;

pub use driver::{explore, ExploreConfig, ExploreOutcome};
pub use frontier::{dominates, epsilon_dominates, Frontier, Objectives};
pub use journal::{write_atomic, Journal, JournalEntry};
pub use space::{DesignPoint, DesignSpace};
pub use spec::SimSpec;
