#![warn(missing_docs)]

//! Deterministic event tracing and latency provenance for the DISCO
//! simulator.
//!
//! Three layers, each usable on its own:
//!
//! 1. **Events** ([`Event`], [`Record`]): typed, all-integer descriptions
//!    of packet lifecycle milestones (inject/eject), per-hop router
//!    pipeline actions (RC/VA/SA/ST), VC stalls with a reason code,
//!    codec engine start/finish, and L2/DRAM access boundaries. Every
//!    record is stamped with the *simulated* cycle — never wall-clock —
//!    so a trace is a pure function of the simulation seed.
//! 2. **Collection** ([`Tracer`], [`emit!`]): a fixed-capacity
//!    drop-oldest ring buffer. Emission sites go through the [`emit!`]
//!    macro, which compiles to nothing unless the *calling* crate's
//!    `trace` cargo feature is on — the hot path stays panic-free and
//!    byte-identical with the feature off.
//! 3. **Analysis** ([`provenance::ProvenanceAnalyzer`], [`export`]):
//!    a provenance pass decomposing each packet's end-to-end latency
//!    into {serialization, link, queuing, codec, protocol} cycles that
//!    sum *exactly* to the measured latency, plus the paper's
//!    hidden-latency coverage (codec cycles overlapped with queuing),
//!    and exporters to JSONL and Chrome/Perfetto `trace.json`.
//!
//! Determinism contract: events must be recorded from serial,
//! node-ordered code (the commit phase of the cycle kernel), and every
//! field is an integer derived from simulation state. Under that
//! contract the exported JSONL is byte-identical on every rerun.

pub mod event;
pub mod export;
pub mod provenance;
pub mod ring;

pub use event::{codec, site, stall, Event, Record};
pub use provenance::{PacketProvenance, ProvenanceAnalyzer, ProvenanceReport, ProvenanceTotals};
pub use ring::{Tracer, DEFAULT_CAPACITY};

/// Records an event into `$sink` — a no-op unless the **calling** crate
/// is built with its `trace` cargo feature.
///
/// `$sink` is any value with a `trace_record(Event)` method (a
/// [`Tracer`], an [`EventList`], or a wrapper forwarding to one). With
/// the feature off the whole expansion is removed before name
/// resolution, so neither operand is evaluated and the call site costs
/// nothing; arguments must therefore only reference values that are
/// used elsewhere, or the feature-off build trips unused warnings.
#[macro_export]
macro_rules! emit {
    ($sink:expr, $ev:expr) => {{
        #[cfg(feature = "trace")]
        {
            $sink.trace_record($ev);
        }
    }};
}

/// An ordered, growable list of events with the same `trace_record`
/// surface as [`Tracer`], for carrying events out of the pure compute
/// phase (e.g. on `RouterOutcome`) to be cycle-stamped at commit time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventList(pub Vec<Event>);

impl EventList {
    /// Appends one event (sink surface used by [`emit!`]).
    pub fn trace_record(&mut self, event: Event) {
        self.0.push(event);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Takes the buffered events, leaving the list empty.
    pub fn drain(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.0)
    }
}

impl disco_snapshot::Snap for EventList {
    fn snap(&self, w: &mut disco_snapshot::Writer) {
        w.put(&self.0);
    }
    fn restore(r: &mut disco_snapshot::Reader<'_>) -> Result<Self, disco_snapshot::SnapError> {
        Ok(EventList(r.take()?))
    }
}
