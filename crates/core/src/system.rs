//! The trace-driven full-system CMP simulator: cores with L1s and MSHRs,
//! NUCA banks with MOESI directories, memory controllers at the mesh
//! corners, all communicating over the `disco-noc` mesh — with the
//! compression placement (Baseline / Ideal / CC / CNC / DISCO) deciding
//! where codec latency is charged and in what form lines travel and are
//! stored (§4.1).

use crate::arbitrator::DiscoParams;
use crate::engine::DiscoLayer;
use crate::histogram::LatencyHistogram;
use crate::placement::CompressionPlacement;
use crate::protocol::{Msg, Op};
use crate::report::SimReport;
use disco_cache::addr::LineAddr;
use disco_cache::{
    BankConfig, BankStats, CohAction, Directory, Dram, DramConfig, L1Cache, L1Config, L1Stats,
    MshrFile, MshrOutcome, NucaBank, StoredLine,
};
use disco_compress::scheme::Compressor;
use disco_compress::{CacheLine, Codec, CompressionStats, SchemeKind};
use disco_energy::{EnergyCounts, EnergyModel};
use disco_noc::{Network, NocConfig, NodeId, Packet, PacketClass, Payload, TopologyChoice};
use disco_workloads::{Benchmark, MemAccess, TraceGenerator, ValueModel, WorkloadProfile};
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

/// Errors a simulation run can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run did not drain within the configured cycle budget
    /// (livelock, deadlock, or simply too small a budget).
    DeadlineExceeded {
        /// The configured budget.
        max_cycles: u64,
        /// Accesses still outstanding.
        outstanding: usize,
        /// Packets the NoC watchdog flags as unable to make progress by
        /// themselves (locked or tail-less VCs), plus any flits dropped
        /// at the mesh edge (`routing_violations` — flit conservation
        /// broken). Zero means the budget was simply too small; non-zero
        /// means a flow-control bug.
        suspicious_stalls: usize,
    },
    /// A corrupted payload reached its destination without the NI
    /// checksum catching it (`faults` only). Any occurrence is a bug in
    /// the detection layer, never an acceptable outcome.
    #[cfg(feature = "faults")]
    SilentCorruption {
        /// Deliveries whose payload differed from the pristine copy.
        undetected: u64,
    },
    /// A snapshot stream ended before its decoder finished.
    SnapshotTruncated {
        /// Byte offset at which the read ran past the end.
        offset: usize,
    },
    /// The snapshot's format version differs from this binary's.
    SnapshotVersionMismatch {
        /// Version recorded in the snapshot.
        found: u32,
        /// Version this binary reads/writes.
        expected: u32,
    },
    /// The snapshot was taken by a binary compiled with different
    /// state-affecting cargo features (e.g. `faults` state cannot
    /// restore into a build without it).
    SnapshotFeatureMismatch {
        /// Fingerprint recorded in the snapshot.
        found: u32,
        /// Fingerprint of this binary ([`feature_fingerprint`]).
        expected: u32,
    },
    /// The snapshot bytes are structurally invalid (bad magic, bad enum
    /// tag, lengths inconsistent with the rebuilt structure, trailing
    /// garbage, ...).
    SnapshotCorrupt {
        /// What was being decoded and why it is invalid.
        detail: String,
    },
    /// The snapshot's embedded configuration differs from the requested
    /// one on a run-defining axis (topology, placement, seed, ...), so
    /// restoring it would not resume the same simulation.
    SnapshotConfigMismatch {
        /// The builder axis that differs.
        field: &'static str,
        /// Value recorded in the snapshot.
        snapshot: String,
        /// Value the caller asked to restore into.
        requested: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DeadlineExceeded {
                max_cycles,
                outstanding,
                suspicious_stalls,
            } => write!(
                f,
                "simulation did not drain within {max_cycles} cycles \
                 ({outstanding} accesses outstanding, {suspicious_stalls} suspicious stalls)"
            ),
            #[cfg(feature = "faults")]
            SimError::SilentCorruption { undetected } => write!(
                f,
                "{undetected} corrupted deliveries escaped fault detection"
            ),
            SimError::SnapshotTruncated { offset } => {
                write!(f, "snapshot truncated: read past end at byte {offset}")
            }
            SimError::SnapshotVersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} but this binary reads version {expected}"
            ),
            SimError::SnapshotFeatureMismatch { found, expected } => write!(
                f,
                "snapshot feature fingerprint {found:#04b} but this binary is {expected:#04b} \
                 (rebuild with the same cargo features the snapshot was taken with)"
            ),
            SimError::SnapshotCorrupt { detail } => {
                write!(f, "corrupt snapshot: {detail}")
            }
            SimError::SnapshotConfigMismatch {
                field,
                snapshot,
                requested,
            } => write!(
                f,
                "snapshot was taken with {field} = {snapshot} but the requested \
                 configuration has {field} = {requested}"
            ),
        }
    }
}

impl Error for SimError {}

impl From<disco_snapshot::SnapError> for SimError {
    fn from(e: disco_snapshot::SnapError) -> Self {
        use disco_snapshot::SnapError;
        match e {
            SnapError::Truncated { offset } => SimError::SnapshotTruncated { offset },
            SnapError::BadMagic => SimError::SnapshotCorrupt {
                detail: "not a DISCO snapshot (bad magic)".into(),
            },
            SnapError::VersionMismatch { found, expected } => {
                SimError::SnapshotVersionMismatch { found, expected }
            }
            SnapError::FeatureMismatch { found, expected } => {
                SimError::SnapshotFeatureMismatch { found, expected }
            }
            SnapError::Malformed { detail } => SimError::SnapshotCorrupt { detail },
        }
    }
}

/// Per-core issue width (accesses a core may process per cycle).
const ISSUE_WIDTH: usize = 4;

/// One tile's core-side state.
#[derive(Debug)]
struct Tile {
    l1: L1Cache,
    mshr: MshrFile,
    trace: Vec<MemAccess>,
    pos: usize,
    next_issue_at: u64,
    /// Lines invalidated while their fill was still in flight: the fill
    /// completes the miss (the core consumes the data once) but must not
    /// be cached — the standard fix for the inval/fill race.
    poisoned: std::collections::HashSet<u64>,
}

impl Tile {
    fn done(&self) -> bool {
        self.pos >= self.trace.len() && self.mshr.in_use() == 0
    }
}

/// Deferred work scheduled on the system event queue.
#[derive(Debug, Clone)]
enum Event {
    /// A request reached the bank and the tag/data access finished.
    BankRequest {
        bank: usize,
        line: u64,
        requester: usize,
        write: bool,
    },
    /// Store `stored` into the bank (fill or writeback after codec prep);
    /// optionally respond to the waiters queued on a bank miss.
    BankStore {
        bank: usize,
        line: u64,
        stored: StoredLine,
        dirty: bool,
        writeback_from: Option<usize>,
        respond_waiters: bool,
    },
    /// The fill (after ejection-side decompression, if any) reaches the
    /// core: fill L1, complete the MSHR.
    CoreFill {
        core: usize,
        line: u64,
        data: CacheLine,
    },
    /// Inject a packet; its class, compressibility, and criticality are
    /// all derived from the protocol op in the tag (`Op::class`).
    Send {
        src: usize,
        dst: usize,
        payload: Payload,
        tag: u64,
    },
}

/// Codec operation counters outside the DISCO layer (bank controllers and
/// NIs), for energy accounting.
#[derive(Debug, Clone, Copy, Default)]
struct CodecOps {
    compressions: u64,
    decompressions: u64,
}

/// Trace capture state for a run that opted into provenance analysis.
/// Records drain out of the network tracer once per tick, in node order,
/// so the capture is lossless and shard-invariant.
#[cfg(feature = "trace")]
struct TraceState {
    analyzer: disco_trace::ProvenanceAnalyzer,
    records: Vec<disco_trace::Record>,
    retain: bool,
}

/// The full-system simulator. Build one with [`SimBuilder`].
pub struct System {
    placement: CompressionPlacement,
    scheme: SchemeKind,
    codec: Codec,
    net: Network,
    disco: Option<DiscoLayer>,
    tiles: Vec<Tile>,
    banks: Vec<NucaBank>,
    dirs: Vec<Directory>,
    bank_pending: Vec<HashMap<u64, Vec<(usize, bool)>>>,
    dram: Dram,
    mcs: Vec<usize>,
    values: ValueModel,
    versions: HashMap<u64, u32>,
    events: BTreeMap<u64, Vec<Event>>,
    demand_misses: u64,
    total_miss_latency: u64,
    onchip_miss_latency: u64,
    latency_histogram: LatencyHistogram,
    /// DRAM service time of an in-flight fill, keyed by line.
    dram_service: HashMap<u64, u64>,
    /// DRAM penalty to subtract from a pending core fill, keyed by
    /// (core, line).
    fill_penalty: HashMap<(usize, u64), u64>,
    compression: CompressionStats,
    codec_ops: CodecOps,
    energy_model: EnergyModel,
    banks_total: usize,
    prefetch_next_line: bool,
    /// The configuration this system was built from; embedded in every
    /// snapshot so a restore can rebuild the derived structure first.
    builder: SimBuilder,
    /// Resolved cycle budget ([`SimError::DeadlineExceeded`] past it).
    max_cycles: u64,
    #[cfg(feature = "trace")]
    trace: Option<TraceState>,
}

impl System {
    /// Current simulation cycle.
    pub fn now(&self) -> u64 {
        self.net.now()
    }

    /// True once every core drained its trace and all traffic settled.
    pub fn is_done(&self) -> bool {
        self.all_done()
    }

    fn schedule(&mut self, at: u64, ev: Event) {
        self.events.entry(at.max(self.now())).or_default().push(ev);
    }

    fn home_bank(&self, line: u64) -> usize {
        LineAddr(line).home_bank(self.banks_total)
    }

    fn mc_for(&self, line: u64) -> usize {
        self.mcs[((line / self.banks_total as u64) % self.mcs.len() as u64) as usize]
    }

    fn current_value(&self, line: u64) -> CacheLine {
        self.values
            .line(line, self.versions.get(&line).copied().unwrap_or(0))
    }

    fn bump_version(&mut self, line: u64) -> CacheLine {
        let v = self.versions.entry(line).or_insert(0);
        *v += 1;
        self.values.line(line, *v)
    }

    fn compress_line(&mut self, line: &CacheLine) -> disco_compress::CompressedLine {
        let enc = self.codec.compress(line);
        self.compression.record(&enc);
        enc
    }

    // --------------------------------------------------------------
    // Placement rules: payload form + codec latency at each site.
    // --------------------------------------------------------------

    /// Bank → core/requester: form and extra latency when a bank sends a
    /// stored line out.
    fn bank_send(&mut self, stored: &StoredLine) -> (Payload, u64) {
        let r = self.bank_send_inner(stored);
        #[cfg(feature = "trace")]
        if r.1 > 0 {
            self.net.trace_record(disco_trace::Event::EndpointCodec {
                site: disco_trace::site::BANK_SEND,
                cycles: r.1,
            });
        }
        r
    }

    fn bank_send_inner(&mut self, stored: &StoredLine) -> (Payload, u64) {
        use CompressionPlacement::*;
        match (self.placement, stored) {
            (Baseline, StoredLine::Raw(l)) => (Payload::Raw(*l), 0),
            (Baseline, StoredLine::Compressed(_)) => {
                unreachable!("baseline never stores compressed lines")
            }
            (Ideal, StoredLine::Compressed(c)) => (Payload::Compressed(c.clone()), 0),
            (Ideal, StoredLine::Raw(l)) => (Payload::Raw(*l), 0),
            (CacheOnly, StoredLine::Compressed(c)) => {
                // Decompress in the bank controller before injection.
                let lat = self.codec.decompression_latency(c);
                self.codec_ops.decompressions += 1;
                let line = self
                    .codec
                    .decompress(c)
                    .expect("stored encodings are valid");
                (Payload::Raw(line), lat)
            }
            (CacheOnly, StoredLine::Raw(l)) => (Payload::Raw(*l), 0),
            (CacheAndNi, StoredLine::Compressed(c)) => {
                // Two-level: bank decompresses, the NI re-compresses the
                // packet (§4.2 explains the resulting excessive latency).
                let lat = self.codec.decompression_latency(c) + self.codec.compression_latency();
                self.codec_ops.decompressions += 1;
                self.codec_ops.compressions += 1;
                (Payload::Compressed(c.clone()), lat)
            }
            (CacheAndNi, StoredLine::Raw(l)) => {
                let lat = self.codec.compression_latency();
                self.codec_ops.compressions += 1;
                let enc = self.compress_line(l);
                if enc.is_compressed() {
                    (Payload::Compressed(enc), lat)
                } else {
                    (Payload::Raw(*l), lat)
                }
            }
            (Disco, StoredLine::Compressed(c)) => (Payload::Compressed(c.clone()), 0),
            (Disco, StoredLine::Raw(l)) => (Payload::Raw(*l), 0),
        }
    }

    /// Data payload injected by a core or memory controller.
    fn endpoint_send(&mut self, line: &CacheLine) -> (Payload, u64) {
        let r = self.endpoint_send_inner(line);
        #[cfg(feature = "trace")]
        if r.1 > 0 {
            self.net.trace_record(disco_trace::Event::EndpointCodec {
                site: disco_trace::site::ENDPOINT_SEND,
                cycles: r.1,
            });
        }
        r
    }

    fn endpoint_send_inner(&mut self, line: &CacheLine) -> (Payload, u64) {
        use CompressionPlacement::*;
        match self.placement {
            Baseline | CacheOnly | Disco => (Payload::Raw(*line), 0),
            Ideal => {
                let enc = self.compress_line(line);
                if enc.is_compressed() {
                    (Payload::Compressed(enc), 0)
                } else {
                    (Payload::Raw(*line), 0)
                }
            }
            CacheAndNi => {
                let lat = self.codec.compression_latency();
                self.codec_ops.compressions += 1;
                let enc = self.compress_line(line);
                if enc.is_compressed() {
                    (Payload::Compressed(enc), lat)
                } else {
                    (Payload::Raw(*line), lat)
                }
            }
        }
    }

    /// Form and codec latency for storing an arriving payload in a bank.
    fn store_prep(&mut self, payload: &Payload) -> (StoredLine, u64) {
        let r = self.store_prep_inner(payload);
        #[cfg(feature = "trace")]
        if r.1 > 0 {
            self.net.trace_record(disco_trace::Event::EndpointCodec {
                site: disco_trace::site::STORE_PREP,
                cycles: r.1,
            });
        }
        r
    }

    fn store_prep_inner(&mut self, payload: &Payload) -> (StoredLine, u64) {
        use CompressionPlacement::*;
        let line = match payload {
            Payload::Raw(l) => *l,
            Payload::Compressed(c) => self
                .codec
                .decompress(c)
                .expect("in-flight encodings are valid"),
            Payload::None => unreachable!("data packets carry payloads"),
        };
        match (self.placement, payload) {
            (Baseline, _) => (StoredLine::Raw(line), 0),
            (Ideal, Payload::Compressed(c)) => (StoredLine::Compressed(c.clone()), 0),
            (Ideal, _) => {
                let enc = self.compress_line(&line);
                (StoredLine::Compressed(enc), 0)
            }
            (CacheOnly, _) => {
                let lat = self.codec.compression_latency();
                self.codec_ops.compressions += 1;
                let enc = self.compress_line(&line);
                (StoredLine::Compressed(enc), lat)
            }
            (CacheAndNi, Payload::Compressed(c)) => {
                // NI decompresses the packet, the cache compressor
                // re-compresses for storage.
                let lat = self.codec.decompression_latency(c) + self.codec.compression_latency();
                self.codec_ops.decompressions += 1;
                self.codec_ops.compressions += 1;
                (StoredLine::Compressed(c.clone()), lat)
            }
            (CacheAndNi, _) => {
                let lat = self.codec.compression_latency();
                self.codec_ops.compressions += 1;
                let enc = self.compress_line(&line);
                (StoredLine::Compressed(enc), lat)
            }
            (Disco, Payload::Compressed(c)) => {
                // Arrived compressed (in-network or injected so): store
                // as-is, zero latency — DISCO's bank-side win.
                (StoredLine::Compressed(c.clone()), 0)
            }
            (Disco, _) => {
                // In-network compression did not happen in time: the bank
                // compressor covers for it.
                let lat = self.codec.compression_latency();
                self.codec_ops.compressions += 1;
                let enc = self.compress_line(&line);
                (StoredLine::Compressed(enc), lat)
            }
        }
    }

    /// Ejection-side latency when a data payload reaches a core's NI and
    /// must enter the MSHR raw.
    fn core_receive(&mut self, payload: &Payload) -> (CacheLine, u64) {
        let r = self.core_receive_inner(payload);
        #[cfg(feature = "trace")]
        if r.1 > 0 {
            self.net.trace_record(disco_trace::Event::EndpointCodec {
                site: disco_trace::site::CORE_RECEIVE,
                cycles: r.1,
            });
        }
        r
    }

    fn core_receive_inner(&mut self, payload: &Payload) -> (CacheLine, u64) {
        use CompressionPlacement::*;
        match payload {
            Payload::Raw(l) => (*l, 0),
            Payload::Compressed(c) => {
                let line = self
                    .codec
                    .decompress(c)
                    .expect("in-flight encodings are valid");
                let lat = match self.placement {
                    Ideal => 0,
                    _ => {
                        self.codec_ops.decompressions += 1;
                        self.codec.decompression_latency(c)
                    }
                };
                (line, lat)
            }
            Payload::None => unreachable!("data packets carry payloads"),
        }
    }

    // --------------------------------------------------------------
    // Cycle loop.
    // --------------------------------------------------------------

    fn all_done(&self) -> bool {
        self.tiles.iter().all(Tile::done)
            && self.events.is_empty()
            && self.net.is_idle()
            && self.bank_pending.iter().all(HashMap::is_empty)
    }

    /// Accesses still outstanding: un-issued trace entries plus misses
    /// in flight. Reaches zero exactly when the run completes.
    pub fn outstanding(&self) -> usize {
        self.tiles
            .iter()
            .map(|t| (t.trace.len() - t.pos) + t.mshr.in_use())
            .sum()
    }

    fn tick(&mut self) {
        self.net.tick();
        if let Some(mut layer) = self.disco.take() {
            layer.tick(&mut self.net);
            self.disco = Some(layer);
        }
        // Deliveries → events.
        let nodes = self.tiles.len();
        for node in 0..nodes {
            let delivered = self.net.take_delivered(NodeId(node));
            for pkt in delivered {
                self.handle_delivery(node, pkt);
            }
        }
        // Run due events (newly scheduled zero-delay events run this
        // cycle too).
        let now = self.now();
        #[allow(clippy::while_let_loop)] // two-condition exit reads clearer this way
        loop {
            let Some((&t, _)) = self.events.iter().next() else {
                break;
            };
            if t > now {
                break;
            }
            let batch = self.events.remove(&t).expect("key exists");
            for ev in batch {
                self.handle_event(ev);
            }
        }
        // Cores issue.
        for core in 0..nodes {
            self.issue_core(core);
        }
        #[cfg(feature = "trace")]
        self.drain_trace_tick();
    }

    /// Moves this tick's events out of the per-component site logs and the
    /// network tracer into the provenance analyzer. Banks drain in index
    /// order, then DRAM — a fixed order, so the capture is byte-identical
    /// at any shard count. Draining every tick keeps the ring from ever
    /// overflowing, making the capture lossless.
    #[cfg(feature = "trace")]
    fn drain_trace_tick(&mut self) {
        for bank in &mut self.banks {
            for ev in bank.drain_trace() {
                self.net.trace_record(ev);
            }
        }
        for ev in self.dram.drain_trace() {
            self.net.trace_record(ev);
        }
        if let Some(ts) = &mut self.trace {
            let records = self.net.tracer_mut().drain();
            ts.analyzer.ingest_all(&records);
            if ts.retain {
                ts.records.extend(records);
            }
        }
    }

    /// Consumes the capture state into the report attachment.
    #[cfg(feature = "trace")]
    fn finish_trace(&mut self) -> Option<crate::report::TraceCapture> {
        let state = self.trace.take()?;
        Some(crate::report::TraceCapture {
            events: self.net.tracer().emitted(),
            dropped: self.net.tracer().dropped(),
            provenance: state.analyzer.finish(),
            records: state.records,
        })
    }

    fn issue_core(&mut self, core: usize) {
        for _ in 0..ISSUE_WIDTH {
            let now = self.now();
            let (line, write, ready) = {
                let t = &self.tiles[core];
                if t.pos >= t.trace.len() || t.next_issue_at > now {
                    return;
                }
                let a = t.trace[t.pos];
                (a.line, a.write, true)
            };
            debug_assert!(ready);
            // Writes update the line's value (version bump) on a hit.
            let write_value = write.then(|| self.bump_version(line));
            let hit = self.tiles[core]
                .l1
                .access(LineAddr(line), write_value)
                .is_some();
            if !hit {
                match self.tiles[core].mshr.allocate(LineAddr(line), now, write) {
                    MshrOutcome::Full => {
                        // Roll back this access; retry next cycle.
                        return;
                    }
                    MshrOutcome::Merged => {}
                    MshrOutcome::Allocated => {
                        let bank = self.home_bank(line);
                        let op = if write { Op::WriteReq } else { Op::ReadReq };
                        self.schedule(
                            now,
                            Event::Send {
                                src: core,
                                dst: bank,
                                payload: Payload::None,
                                tag: Msg::new(op, core, line).encode(),
                            },
                        );
                        if self.prefetch_next_line {
                            let next = line + 1;
                            let t = &mut self.tiles[core];
                            if !t.l1.probe(LineAddr(next))
                                && t.mshr.allocate_prefetch(LineAddr(next), now)
                                    == MshrOutcome::Allocated
                            {
                                let bank = self.home_bank(next);
                                self.schedule(
                                    now,
                                    Event::Send {
                                        src: core,
                                        dst: bank,
                                        payload: Payload::None,
                                        tag: Msg::new(Op::ReadReq, core, next).encode(),
                                    },
                                );
                            }
                        }
                    }
                }
            }
            // Advance the trace cursor.
            let t = &mut self.tiles[core];
            t.pos += 1;
            if let Some(next) = t.trace.get(t.pos) {
                t.next_issue_at = now + next.gap;
            }
        }
    }

    fn handle_delivery(&mut self, node: usize, pkt: Packet) {
        let msg = Msg::decode(pkt.tag);
        let now = self.now();
        match msg.op {
            Op::ReadReq | Op::WriteReq => {
                let hit_lat = self.banks[node].config().hit_latency;
                self.schedule(
                    now + hit_lat,
                    Event::BankRequest {
                        bank: node,
                        line: msg.line,
                        requester: msg.requester,
                        write: msg.op == Op::WriteReq,
                    },
                );
            }
            Op::DataToCore => {
                let (line, lat) = self.core_receive(&pkt.payload);
                self.schedule(
                    now + lat,
                    Event::CoreFill {
                        core: node,
                        line: msg.line,
                        data: line,
                    },
                );
            }
            Op::Writeback => {
                let (stored, lat) = self.store_prep(&pkt.payload);
                self.schedule(
                    now + lat,
                    Event::BankStore {
                        bank: node,
                        line: msg.line,
                        stored,
                        dirty: true,
                        writeback_from: Some(msg.requester),
                        respond_waiters: false,
                    },
                );
            }
            Op::Invalidate => {
                if self.tiles[node].mshr.pending(LineAddr(msg.line)) {
                    self.tiles[node].poisoned.insert(msg.line);
                }
                let dirty = self.tiles[node].l1.invalidate(LineAddr(msg.line));
                let home = self.home_bank(msg.line);
                match dirty {
                    Some(line) => {
                        // Dirty copy: the ack carries the data back home.
                        let (payload, lat) = self.endpoint_send(&line);
                        self.schedule(
                            now + lat,
                            Event::Send {
                                src: node,
                                dst: home,
                                payload,
                                tag: Msg::new(Op::Writeback, node, msg.line).encode(),
                            },
                        );
                    }
                    None => {
                        self.schedule(
                            now,
                            Event::Send {
                                src: node,
                                dst: home,
                                payload: Payload::None,
                                tag: Msg::new(Op::InvalAck, node, msg.line).encode(),
                            },
                        );
                    }
                }
            }
            Op::InvalAck => {
                // Non-blocking invalidation: nothing further to do.
            }
            Op::FwdRead | Op::FwdWrite => {
                // A write-forward revokes this core's copy — including a
                // fill still in flight to it (its re-read raced the
                // forward on another virtual network). Poison the
                // pending miss like Op::Invalidate does, or the late
                // fill would install a copy the directory no longer
                // tracks (found by disco-verify's bounded model
                // checker).
                if msg.op == Op::FwdWrite && self.tiles[node].mshr.pending(LineAddr(msg.line)) {
                    self.tiles[node].poisoned.insert(msg.line);
                }
                // This core owns a dirty copy; supply it to the requester
                // directly (cache-to-cache).
                let line = match self.tiles[node].l1.access(LineAddr(msg.line), None) {
                    Some(l) => l,
                    // The owner's copy raced away (writeback in flight):
                    // fall back to the architectural value.
                    None => self.current_value(msg.line),
                };
                if msg.op == Op::FwdWrite {
                    self.tiles[node].l1.invalidate(LineAddr(msg.line));
                }
                let (payload, lat) = self.endpoint_send(&line);
                self.schedule(
                    now + lat,
                    Event::Send {
                        src: node,
                        dst: msg.requester,
                        payload,
                        tag: Msg::new(Op::DataToCore, msg.requester, msg.line).encode(),
                    },
                );
            }
            Op::MemRead => {
                let done = self.dram.access(LineAddr(msg.line), now, false);
                // Remember the off-chip service time so the on-chip
                // latency metric (the paper's "NUCA data access latency")
                // can exclude it.
                self.dram_service.insert(msg.line, done - now);
                let data = self.current_value(msg.line);
                let (payload, lat) = self.endpoint_send(&data);
                let bank = self.home_bank(msg.line);
                self.schedule(
                    done + lat,
                    Event::Send {
                        src: node,
                        dst: bank,
                        payload,
                        tag: Msg::new(Op::MemFill, msg.requester, msg.line).encode(),
                    },
                );
            }
            Op::MemFill => {
                let (stored, lat) = self.store_prep(&pkt.payload);
                self.schedule(
                    now + lat,
                    Event::BankStore {
                        bank: node,
                        line: msg.line,
                        stored,
                        dirty: false,
                        writeback_from: None,
                        respond_waiters: true,
                    },
                );
            }
            Op::MemWriteback => {
                // DRAM stores raw lines only; decompress at the MC NI if
                // the network did not (charges energy; latency is off the
                // demand path).
                if let Payload::Compressed(c) = &pkt.payload {
                    if self.placement != CompressionPlacement::Ideal {
                        self.codec_ops.decompressions += 1;
                        disco_trace::emit!(
                            self.net,
                            disco_trace::Event::EndpointCodec {
                                site: disco_trace::site::WRITEBACK,
                                cycles: self.codec.decompression_latency(c),
                            }
                        );
                    }
                    let _ = c;
                }
                self.dram.access(LineAddr(msg.line), now, true);
            }
        }
    }

    fn handle_event(&mut self, ev: Event) {
        let now = self.now();
        match ev {
            Event::Send {
                src,
                dst,
                payload,
                tag,
            } => {
                // The op alone decides the virtual network: deriving the
                // class here (rather than trusting each injection site)
                // makes the Op -> class mapping a single checkable
                // function, which disco-verify's protocol pass leans on.
                let op = Msg::decode(tag).op;
                let class = op.class();
                let compressible = class == PacketClass::Response;
                let id = self
                    .net
                    .send(NodeId(src), NodeId(dst), class, payload, compressible, tag);
                // Rule 1 of §3.3-B: read responses and fills are on the
                // demand critical path and keep their priority even when
                // uncompressed; only latency-tolerant writebacks are
                // demoted by rule 2.
                self.net.store_mut().get_mut(id).critical = op.is_critical();
            }
            Event::BankRequest {
                bank,
                line,
                requester,
                write,
            } => {
                let actions = if write {
                    self.dirs[bank].write(LineAddr(line), requester)
                } else {
                    self.dirs[bank].read(LineAddr(line), requester)
                };
                for action in actions {
                    match action {
                        CohAction::DataFromBank { to } => {
                            let stored = self.banks[bank].lookup(LineAddr(line)).cloned();
                            match stored {
                                Some(s) => {
                                    let (payload, lat) = self.bank_send(&s);
                                    self.schedule(
                                        now + lat,
                                        Event::Send {
                                            src: bank,
                                            dst: to,
                                            payload,
                                            tag: Msg::new(Op::DataToCore, to, line).encode(),
                                        },
                                    );
                                }
                                None => {
                                    let waiters = self.bank_pending[bank].entry(line).or_default();
                                    let first = waiters.is_empty();
                                    waiters.push((to, write));
                                    if first {
                                        let mc = self.mc_for(line);
                                        self.schedule(
                                            now,
                                            Event::Send {
                                                src: bank,
                                                dst: mc,
                                                payload: Payload::None,
                                                tag: Msg::new(Op::MemRead, requester, line)
                                                    .encode(),
                                            },
                                        );
                                    }
                                }
                            }
                        }
                        CohAction::ForwardToOwner { owner, to } => {
                            let op = if write { Op::FwdWrite } else { Op::FwdRead };
                            self.schedule(
                                now,
                                Event::Send {
                                    src: bank,
                                    dst: owner,
                                    payload: Payload::None,
                                    tag: Msg::new(op, to, line).encode(),
                                },
                            );
                        }
                        CohAction::Invalidate { core } => {
                            self.schedule(
                                now,
                                Event::Send {
                                    src: bank,
                                    dst: core,
                                    payload: Payload::None,
                                    tag: Msg::new(Op::Invalidate, core, line).encode(),
                                },
                            );
                        }
                    }
                }
            }
            Event::BankStore {
                bank,
                line,
                stored,
                dirty,
                writeback_from,
                respond_waiters,
            } => {
                if let Some(core) = writeback_from {
                    self.dirs[bank].writeback(LineAddr(line), core);
                }
                let evictions = self.banks[bank].insert(LineAddr(line), stored, dirty);
                for ev in evictions {
                    // Inclusive LLC: recall cached copies.
                    for action in self.dirs[bank].recall(ev.addr) {
                        if let CohAction::Invalidate { core } = action {
                            self.schedule(
                                now,
                                Event::Send {
                                    src: bank,
                                    dst: core,
                                    payload: Payload::None,
                                    tag: Msg::new(Op::Invalidate, core, ev.addr.0).encode(),
                                },
                            );
                        }
                    }
                    if ev.dirty {
                        let (payload, lat) = self.bank_evict_payload(&ev.data);
                        let mc = self.mc_for(ev.addr.0);
                        self.schedule(
                            now + lat,
                            Event::Send {
                                src: bank,
                                dst: mc,
                                payload,
                                tag: Msg::new(Op::MemWriteback, 0, ev.addr.0).encode(),
                            },
                        );
                    }
                }
                if respond_waiters {
                    if let Some(waiters) = self.bank_pending[bank].remove(&line) {
                        let dram = self.dram_service.remove(&line).unwrap_or(0);
                        let stored = self.banks[bank]
                            .lookup(LineAddr(line))
                            .cloned()
                            .expect("line was just inserted");
                        for (to, _write) in waiters {
                            self.fill_penalty.insert((to, line), dram);
                            let (payload, lat) = self.bank_send(&stored);
                            self.schedule(
                                now + lat,
                                Event::Send {
                                    src: bank,
                                    dst: to,
                                    payload,
                                    tag: Msg::new(Op::DataToCore, to, line).encode(),
                                },
                            );
                        }
                    }
                }
            }
            Event::CoreFill { core, line, data } => {
                let Some(entry) = self.tiles[core].mshr.complete(LineAddr(line)) else {
                    // A duplicate fill (e.g. bank response racing an owner
                    // forward). Drop it.
                    return;
                };
                let (value, dirty) = if entry.write {
                    (self.bump_version(line), true)
                } else {
                    (data, false)
                };
                let dram = self.fill_penalty.remove(&(core, line)).unwrap_or(0);
                if !entry.prefetch {
                    self.demand_misses += 1;
                    let total = now - entry.issued_at;
                    self.total_miss_latency += total;
                    let onchip = total.saturating_sub(dram);
                    self.onchip_miss_latency += onchip;
                    self.latency_histogram.record(onchip);
                }
                if self.tiles[core].poisoned.remove(&line) {
                    // Invalidated while in flight: the miss completes (the
                    // core consumed the data once) but the line is not
                    // cached, so the next access re-fetches coherently. A
                    // dirty (write) fill hands its data straight back to
                    // the home bank.
                    if dirty {
                        let (payload, lat) = self.endpoint_send(&value);
                        let home = self.home_bank(line);
                        self.schedule(
                            now + lat,
                            Event::Send {
                                src: core,
                                dst: home,
                                payload,
                                tag: Msg::new(Op::Writeback, core, line).encode(),
                            },
                        );
                    }
                    return;
                }
                if let Some(wb) = self.tiles[core].l1.fill(LineAddr(line), value, dirty) {
                    let (payload, lat) = self.endpoint_send(&wb.line);
                    let home = self.home_bank(wb.addr.0);
                    self.schedule(
                        now + lat,
                        Event::Send {
                            src: core,
                            dst: home,
                            payload,
                            tag: Msg::new(Op::Writeback, core, wb.addr.0).encode(),
                        },
                    );
                }
            }
        }
    }

    /// Payload form for a dirty LLC eviction heading to DRAM.
    fn bank_evict_payload(&mut self, stored: &StoredLine) -> (Payload, u64) {
        let r = self.bank_evict_payload_inner(stored);
        #[cfg(feature = "trace")]
        if r.1 > 0 {
            self.net.trace_record(disco_trace::Event::EndpointCodec {
                site: disco_trace::site::BANK_EVICT,
                cycles: r.1,
            });
        }
        r
    }

    fn bank_evict_payload_inner(&mut self, stored: &StoredLine) -> (Payload, u64) {
        use CompressionPlacement::*;
        match (self.placement, stored) {
            (Disco, StoredLine::Compressed(c)) => (Payload::Compressed(c.clone()), 0),
            (Ideal, StoredLine::Compressed(c)) => (Payload::Compressed(c.clone()), 0),
            (_, StoredLine::Raw(l)) => (Payload::Raw(*l), 0),
            (CacheAndNi, StoredLine::Compressed(c)) => {
                // Bank decompresses for DRAM, NI re-compresses the packet.
                let lat = self.codec.decompression_latency(c) + self.codec.compression_latency();
                self.codec_ops.decompressions += 1;
                self.codec_ops.compressions += 1;
                (Payload::Compressed(c.clone()), lat)
            }
            (_, StoredLine::Compressed(c)) => {
                let lat = self.codec.decompression_latency(c);
                self.codec_ops.decompressions += 1;
                let line = self
                    .codec
                    .decompress(c)
                    .expect("stored encodings are valid");
                (Payload::Raw(line), lat)
            }
        }
    }

    /// Runs to completion (or the deadline) and reports, overriding the
    /// configured cycle budget.
    pub fn run(mut self, max_cycles: u64) -> Result<SimReport, SimError> {
        self.max_cycles = max_cycles;
        self.run_to_completion()
    }

    /// Advances the simulation until it drains, the cycle budget is
    /// exhausted, or `target` is reached — whichever comes first. The
    /// check order (done → deadline → target → tick) matches the
    /// uninterrupted run loop exactly, so pausing at any cycle and
    /// continuing is byte-identical to never pausing.
    ///
    /// Returns `Ok(true)` when the simulation completed, `Ok(false)`
    /// when it paused at `target` with work remaining.
    ///
    /// # Errors
    ///
    /// [`SimError::DeadlineExceeded`] past the cycle budget.
    pub fn step_until(&mut self, target: u64) -> Result<bool, SimError> {
        loop {
            if self.all_done() {
                return Ok(true);
            }
            if self.now() >= self.max_cycles {
                return Err(SimError::DeadlineExceeded {
                    max_cycles: self.max_cycles,
                    outstanding: self.outstanding(),
                    suspicious_stalls: self
                        .net
                        .health_check()
                        .iter()
                        .filter(|s| {
                            matches!(
                                s.reason,
                                disco_noc::StallReason::Locked
                                    | disco_noc::StallReason::MissingTail
                            )
                        })
                        .count()
                        + self.net.stats().routing_violations as usize,
                });
            }
            if self.now() >= target {
                return Ok(false);
            }
            self.tick();
        }
    }

    /// Runs to completion (or the configured deadline) and reports.
    ///
    /// # Errors
    ///
    /// [`SimError::DeadlineExceeded`] if the system does not drain within
    /// the cycle budget; [`SimError::SilentCorruption`] (`faults` only)
    /// if a corrupted delivery escaped detection.
    pub fn run_to_completion(mut self) -> Result<SimReport, SimError> {
        self.step_until(u64::MAX)?;
        // Health rule: the fault layer may lose performance, never data.
        // A delivery whose payload differs from the pristine copy without
        // the checksum firing is silent corruption and fails the run.
        #[cfg(feature = "faults")]
        if let Some(stats) = self.net.fault_stats() {
            if stats.undetected > 0 {
                return Err(SimError::SilentCorruption {
                    undetected: stats.undetected,
                });
            }
        }
        #[cfg(not(feature = "trace"))]
        {
            Ok(self.into_report())
        }
        #[cfg(feature = "trace")]
        {
            let capture = self.finish_trace();
            let mut report = self.into_report();
            report.trace = capture;
            Ok(report)
        }
    }

    fn into_report(self) -> SimReport {
        let mut l1 = L1Stats::default();
        for t in &self.tiles {
            let s = t.l1.stats();
            l1.hits += s.hits;
            l1.misses += s.misses;
            l1.writebacks += s.writebacks;
            l1.invalidations += s.invalidations;
        }
        let mut banks = BankStats::default();
        for b in &self.banks {
            let s = b.stats();
            banks.hits += s.hits;
            banks.misses += s.misses;
            banks.insertions += s.insertions;
            banks.evictions += s.evictions;
            banks.dirty_evictions += s.dirty_evictions;
            banks.bytes_accessed += s.bytes_accessed;
        }
        let mut directory = disco_cache::coherence::DirStats::default();
        for d in &self.dirs {
            let s = d.stats();
            directory.bank_reads += s.bank_reads;
            directory.owner_forwards += s.owner_forwards;
            directory.invalidations += s.invalidations;
            directory.write_requests += s.write_requests;
        }
        let net = *self.net.stats();
        // Fold the DRAM-side stall tally into the network-side ledger so
        // the report carries one complete FaultStats.
        #[cfg(feature = "faults")]
        let faults = self.net.fault_stats().copied().map(|mut f| {
            f.dram_stall_cycles += self.dram.fault_stall_cycles();
            f
        });
        let disco_stats = self.disco.as_ref().map(|d| *d.stats());
        let tiles = self.tiles.len() as u64;
        let energy_counts = EnergyCounts {
            cycles: net.cycles,
            routers: tiles,
            banks: tiles,
            compressor_sites: self.placement.compressor_sites(tiles as usize),
            buffer_writes: net.buffer_writes,
            buffer_reads: net.buffer_reads,
            crossbar_flits: net.crossbar_flits,
            arbitrations: net.arbitrations,
            link_flits: net.link_flits,
            express_flits: net.express_link_flits,
            bank_accesses: banks.hits + banks.misses + banks.insertions,
            bank_bytes: banks.bytes_accessed,
            compressions: self.codec_ops.compressions
                + disco_stats.map_or(0, |d| d.compressions + d.incompressible),
            decompressions: self.codec_ops.decompressions
                + disco_stats.map_or(0, |d| d.decompressions),
        };
        let energy = self.energy_model.evaluate(&energy_counts);
        SimReport {
            placement: self.placement,
            scheme: self.scheme,
            cycles: net.cycles,
            demand_misses: self.demand_misses,
            total_miss_latency: self.total_miss_latency,
            total_onchip_latency: self.onchip_miss_latency,
            latency_histogram: self.latency_histogram,
            l1,
            banks,
            directory,
            network: net,
            dram: *self.dram.stats(),
            compression: self.compression,
            disco: disco_stats,
            energy_counts,
            energy,
            #[cfg(feature = "faults")]
            faults,
            #[cfg(feature = "trace")]
            trace: None,
        }
    }
}

/// Builder for a full-system simulation (the public entry point).
///
/// ```
/// use disco_core::{CompressionPlacement, SimBuilder};
/// use disco_workloads::Benchmark;
///
/// # fn main() -> Result<(), disco_core::SimError> {
/// let report = SimBuilder::new()
///     .mesh(2, 2)
///     .placement(CompressionPlacement::Disco)
///     .benchmark(Benchmark::Swaptions)
///     .trace_len(300)
///     .seed(1)
///     .run()?;
/// assert!(report.avg_access_latency() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimBuilder {
    cols: usize,
    rows: usize,
    topology: TopologyChoice,
    placement: CompressionPlacement,
    scheme: SchemeKind,
    profile: WorkloadProfile,
    trace_len: usize,
    seed: u64,
    mshr_entries: usize,
    noc: NocConfig,
    l1: L1Config,
    bank: BankConfig,
    dram: DramConfig,
    disco: DiscoParams,
    energy: EnergyModel,
    max_cycles: u64,
    scale_profile: bool,
    demote_override: Option<bool>,
    external_traces: Option<Vec<Vec<MemAccess>>>,
    prefetch_next_line: bool,
    #[cfg(feature = "faults")]
    fault_plan: Option<disco_faults::FaultPlan>,
    #[cfg(feature = "trace")]
    capture_trace: bool,
    #[cfg(feature = "trace")]
    retain_trace_records: bool,
}

impl Default for SimBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimBuilder {
    /// Table 2 defaults: 4×4 mesh, delta codec, DISCO placement,
    /// blackscholes.
    pub fn new() -> Self {
        SimBuilder {
            cols: 4,
            rows: 4,
            topology: TopologyChoice::Mesh,
            placement: CompressionPlacement::Disco,
            scheme: SchemeKind::Delta,
            profile: Benchmark::Blackscholes.profile(),
            trace_len: 10_000,
            seed: 1,
            mshr_entries: 8,
            noc: NocConfig::default(),
            l1: L1Config::default(),
            bank: BankConfig::default(),
            dram: DramConfig::default(),
            disco: DiscoParams::default(),
            energy: EnergyModel::default(),
            max_cycles: 0, // auto
            scale_profile: true,
            demote_override: None,
            external_traces: None,
            prefetch_next_line: false,
            #[cfg(feature = "faults")]
            fault_plan: None,
            #[cfg(feature = "trace")]
            capture_trace: false,
            #[cfg(feature = "trace")]
            retain_trace_records: false,
        }
    }

    /// Mesh dimensions (tiles = cols × rows; one core + one bank each).
    pub fn mesh(mut self, cols: usize, rows: usize) -> Self {
        self.cols = cols;
        self.rows = rows;
        self
    }

    /// NoC topology. The tile count stays `cols × rows` regardless of
    /// the choice: a ring folds the grid into a single cycle, a
    /// hierarchical ring uses `rows` local rings of `cols` tiles, and a
    /// concentrated mesh attaches 4 tiles per router. If the selected
    /// [`NocConfig`] has fewer VCs than the topology's deadlock-freedom
    /// floor ([`disco_noc::Topology::min_vcs`], e.g. dateline shapes
    /// need an even split per class), the VC count is raised to it.
    pub fn topology(mut self, topology: TopologyChoice) -> Self {
        self.topology = topology;
        self
    }

    /// Compression placement to simulate.
    pub fn placement(mut self, placement: CompressionPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Compression scheme.
    pub fn scheme(mut self, scheme: SchemeKind) -> Self {
        self.scheme = scheme;
        self
    }

    /// Workload, by benchmark.
    pub fn benchmark(mut self, benchmark: Benchmark) -> Self {
        self.profile = benchmark.profile();
        self
    }

    /// Workload, by explicit profile.
    pub fn profile(mut self, profile: WorkloadProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Accesses generated per core.
    pub fn trace_len(mut self, len: usize) -> Self {
        self.trace_len = len;
        self
    }

    /// RNG seed (traces and values are fully deterministic given it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// MSHR entries per core.
    pub fn mshr_entries(mut self, n: usize) -> Self {
        self.mshr_entries = n;
        self
    }

    /// NoC parameters.
    pub fn noc(mut self, noc: NocConfig) -> Self {
        self.noc = noc;
        self
    }

    /// Arms a deterministic fault schedule (`faults` only). An inactive
    /// plan (all rates zero, no dead links) is equivalent to not calling
    /// this at all.
    #[cfg(feature = "faults")]
    pub fn faults(mut self, plan: disco_faults::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Arms [`FaultPlan::uniform`](disco_faults::FaultPlan::uniform) for
    /// a positive `rate`. Unlike `faults` it exists in every build, so a
    /// configuration held as plain data can carry a fault rate; a
    /// positive rate without the `faults` feature panics.
    pub fn uniform_faults(self, seed: u64, rate: f64) -> Self {
        if rate <= 0.0 {
            return self;
        }
        #[cfg(not(feature = "faults"))]
        panic!("fault rate {rate} (seed {seed}) needs the `faults` feature");
        #[cfg(feature = "faults")]
        self.faults(disco_faults::FaultPlan::uniform(seed, rate))
    }

    /// Bank parameters (the `compressed` flag is overridden by the
    /// placement).
    pub fn bank(mut self, bank: BankConfig) -> Self {
        self.bank = bank;
        self
    }

    /// DISCO arbitrator parameters.
    pub fn disco_params(mut self, params: DiscoParams) -> Self {
        self.disco = params;
        self
    }

    /// Energy model.
    pub fn energy_model(mut self, model: EnergyModel) -> Self {
        self.energy = model;
        self
    }

    /// Cycle budget (0 = auto: generous multiple of the trace length).
    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = cycles;
        self
    }

    /// Whether to scale the working set with the core count (Fig. 8).
    pub fn scale_profile(mut self, scale: bool) -> Self {
        self.scale_profile = scale;
        self
    }

    /// Overrides the §3.3-B rule-2 scheduling policy (by default it is on
    /// exactly for the DISCO placement). Used by the scheduling ablation.
    pub fn demote_uncompressed(mut self, demote: bool) -> Self {
        self.demote_override = Some(demote);
        self
    }

    /// Enables a next-line prefetcher at each L1: every demand miss for
    /// line `L` also fetches `L + 1` when an MSHR is free (prefetch
    /// fills never count toward the demand-latency metric).
    pub fn prefetch_next_line(mut self, enable: bool) -> Self {
        self.prefetch_next_line = enable;
        self
    }

    /// Captures a cycle-stamped event trace and runs the latency
    /// provenance analysis on it; the result is attached to the report as
    /// [`SimReport::trace`](crate::SimReport). Only the provenance
    /// aggregates are kept; use
    /// [`retain_trace_records`](SimBuilder::retain_trace_records) to also
    /// keep the raw records for export.
    #[cfg(feature = "trace")]
    pub fn capture_trace(mut self, capture: bool) -> Self {
        self.capture_trace = capture;
        self
    }

    /// Keeps every raw trace record in the report (implies
    /// [`capture_trace`](SimBuilder::capture_trace)), for the JSONL and
    /// Chrome trace exporters. Memory scales with the event count.
    #[cfg(feature = "trace")]
    pub fn retain_trace_records(mut self, retain: bool) -> Self {
        self.retain_trace_records = retain;
        if retain {
            self.capture_trace = true;
        }
        self
    }

    /// Drives the cores with externally supplied traces (one per core,
    /// e.g. loaded with [`disco_workloads::read_traces`]) instead of the
    /// synthetic generator. Missing cores idle; extra traces are an
    /// error at [`run`](SimBuilder::run). The workload profile still
    /// provides the *value model* for line contents.
    pub fn traces(mut self, traces: Vec<Vec<MemAccess>>) -> Self {
        self.external_traces = Some(traces);
        self
    }

    /// Builds and runs the simulation.
    ///
    /// # Errors
    ///
    /// [`SimError::DeadlineExceeded`] if the system does not drain within
    /// the cycle budget.
    pub fn run(self) -> Result<SimReport, SimError> {
        self.build().run_to_completion()
    }

    /// Builds the simulator without running it, for incremental
    /// stepping ([`System::step_until`]) and checkpointing
    /// ([`System::snapshot`] / [`System::restore`]).
    pub fn build(&self) -> System {
        let this = self.clone();
        let tiles_n = this.cols * this.rows;
        let topo = this.topology.build(this.cols, this.rows);
        assert_eq!(
            topo.tiles(),
            tiles_n,
            "topology {} at {}x{} must expose cols*rows tiles",
            self.topology,
            self.cols,
            self.rows
        );
        let mut noc = self.noc;
        noc.vcs = noc.vcs.max(topo.min_vcs());
        noc.scheduling.demote_uncompressed = self
            .demote_override
            .unwrap_or(self.placement == CompressionPlacement::Disco);
        #[cfg(feature = "trace")]
        let pipeline_stages = noc.pipeline_stages;
        let net = Network::new(topo, noc);
        let profile = if self.scale_profile {
            self.profile.scaled_to(tiles_n)
        } else {
            self.profile
        };
        // SC² is a *statistical* codec: train its value frequency table on
        // a sample of the workload's lines, as the hardware samples cache
        // contents (Arelakis & Stenström). Other codecs are stateless.
        let codec = if self.scheme == SchemeKind::Sc2 {
            let model = ValueModel::new(profile.value, self.seed ^ 0xda7a);
            let sample: Vec<_> = (0..2_048u64).map(|a| model.line(a * 7 + 1, 0)).collect();
            Codec::Sc2(disco_compress::sc2::Sc2Codec::train(&sample))
        } else {
            Codec::from_kind(self.scheme)
        };
        // The fault context needs the trained codec for its
        // decompress-and-verify checks, so it is armed only now.
        #[cfg(feature = "faults")]
        let net = {
            let mut net = net;
            if let Some(plan) = &self.fault_plan {
                net.set_fault_plan(plan.clone(), codec.clone());
            }
            net
        };
        #[cfg(feature = "faults")]
        let dram = {
            let mut dram = Dram::new(self.dram);
            if let Some(plan) = &self.fault_plan {
                dram.set_fault_plan(plan.clone());
            }
            dram
        };
        #[cfg(not(feature = "faults"))]
        let dram = Dram::new(self.dram);
        let traces = match self.external_traces.clone() {
            Some(mut t) => {
                assert!(
                    t.len() <= tiles_n,
                    "{} traces supplied for {tiles_n} cores",
                    t.len()
                );
                t.resize_with(tiles_n, Vec::new);
                t
            }
            None => TraceGenerator::new(profile, tiles_n, self.seed).generate(self.trace_len),
        };
        let tiles: Vec<Tile> = traces
            .into_iter()
            .map(|trace| {
                let next = trace.first().map_or(0, |a| a.gap);
                Tile {
                    l1: L1Cache::new(self.l1),
                    mshr: MshrFile::new(self.mshr_entries),
                    trace,
                    pos: 0,
                    next_issue_at: next,
                    poisoned: std::collections::HashSet::new(),
                }
            })
            .collect();
        let bank_cfg = BankConfig {
            compressed: self.placement.compressed_storage(),
            ..self.bank
        };
        let banks = (0..tiles_n)
            .map(|i| NucaBank::new(bank_cfg, i, tiles_n))
            .collect();
        // One DISCO engine set per *router* (§3.2: the compressor sits in
        // the router), so a concentrated mesh shares an engine among its
        // attached tiles.
        let disco = (self.placement == CompressionPlacement::Disco)
            .then(|| DiscoLayer::new(self.disco, codec.clone(), net.topology().routers()));
        // Memory controllers at the grid corners (spread tiles on rings).
        let mcs = vec![0, self.cols - 1, tiles_n - self.cols, tiles_n - 1];
        let max_cycles = if self.max_cycles > 0 {
            self.max_cycles
        } else {
            // Generous: every access could serialize behind DRAM.
            (self.trace_len as u64 * 400).max(2_000_000)
        };
        System {
            placement: self.placement,
            scheme: self.scheme,
            codec,
            net,
            disco,
            tiles,
            banks,
            dirs: (0..tiles_n).map(|_| Directory::new()).collect(),
            bank_pending: (0..tiles_n).map(|_| HashMap::new()).collect(),
            dram,
            mcs,
            values: ValueModel::new(profile.value, self.seed ^ 0xda7a),
            versions: HashMap::new(),
            events: BTreeMap::new(),
            demand_misses: 0,
            total_miss_latency: 0,
            onchip_miss_latency: 0,
            latency_histogram: LatencyHistogram::new(),
            dram_service: HashMap::new(),
            fill_penalty: HashMap::new(),
            compression: CompressionStats::new(),
            codec_ops: CodecOps::default(),
            energy_model: self.energy,
            banks_total: tiles_n,
            prefetch_next_line: self.prefetch_next_line,
            builder: this,
            max_cycles,
            #[cfg(feature = "trace")]
            trace: self.capture_trace.then(|| TraceState {
                analyzer: disco_trace::ProvenanceAnalyzer::new(pipeline_stages),
                records: Vec::new(),
                retain: self.retain_trace_records,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpointing (see crates/snapshot/manifest.txt)
// ---------------------------------------------------------------------------

use disco_snapshot::{Snap, SnapError, SnapshotHeader, Writer};

/// Bitmask of the cargo features that change the serialized state
/// layout of a snapshot. `parallel` and `validate` are deliberately
/// excluded: they only affect scratch structures that are never
/// serialized, so snapshots are portable across those builds (and
/// across `compute_shards` counts — sharding is runtime config).
pub fn feature_fingerprint() -> u32 {
    let mut f = 0;
    if cfg!(feature = "trace") {
        f |= 1;
    }
    if cfg!(feature = "faults") {
        f |= 2;
    }
    f
}

disco_snapshot::snap_fields!(CodecOps {
    compressions,
    decompressions,
});

impl Snap for Event {
    fn snap(&self, w: &mut Writer) {
        match self {
            Event::BankRequest {
                bank,
                line,
                requester,
                write,
            } => {
                w.put(&0u8);
                w.put(bank);
                w.put(line);
                w.put(requester);
                w.put(write);
            }
            Event::BankStore {
                bank,
                line,
                stored,
                dirty,
                writeback_from,
                respond_waiters,
            } => {
                w.put(&1u8);
                w.put(bank);
                w.put(line);
                w.put(stored);
                w.put(dirty);
                w.put(writeback_from);
                w.put(respond_waiters);
            }
            Event::CoreFill { core, line, data } => {
                w.put(&2u8);
                w.put(core);
                w.put(line);
                w.put(data);
            }
            Event::Send {
                src,
                dst,
                payload,
                tag,
            } => {
                w.put(&3u8);
                w.put(src);
                w.put(dst);
                w.put(payload);
                w.put(tag);
            }
        }
    }

    fn restore(r: &mut disco_snapshot::Reader<'_>) -> Result<Self, SnapError> {
        Ok(match r.take::<u8>()? {
            0 => Event::BankRequest {
                bank: r.take()?,
                line: r.take()?,
                requester: r.take()?,
                write: r.take()?,
            },
            1 => Event::BankStore {
                bank: r.take()?,
                line: r.take()?,
                stored: r.take()?,
                dirty: r.take()?,
                writeback_from: r.take()?,
                respond_waiters: r.take()?,
            },
            2 => Event::CoreFill {
                core: r.take()?,
                line: r.take()?,
                data: r.take()?,
            },
            3 => Event::Send {
                src: r.take()?,
                dst: r.take()?,
                payload: r.take()?,
                tag: r.take()?,
            },
            tag => return Err(disco_snapshot::malformed(format!("Event tag {tag}"))),
        })
    }
}

impl Tile {
    /// Writes the tile's mutable state; the trace itself is derived
    /// (regenerated from the builder on restore). The poisoned set is
    /// written in sorted order (determinism contract).
    fn snap_state(&self, w: &mut Writer) {
        self.l1.snap_state(w);
        self.mshr.snap_state(w);
        w.put(&self.pos);
        w.put(&self.next_issue_at);
        let mut poisoned: Vec<u64> = self.poisoned.iter().copied().collect();
        poisoned.sort_unstable();
        w.put(&poisoned);
    }

    /// Overlays state written by [`Tile::snap_state`] onto a tile
    /// rebuilt with the same trace.
    fn restore_state(&mut self, r: &mut disco_snapshot::Reader<'_>) -> Result<(), SnapError> {
        self.l1.restore_state(r)?;
        self.mshr.restore_state(r)?;
        let pos: usize = r.take()?;
        if pos > self.trace.len() {
            return Err(disco_snapshot::malformed(format!(
                "trace cursor {pos} past the rebuilt trace length {}",
                self.trace.len()
            )));
        }
        self.pos = pos;
        self.next_issue_at = r.take()?;
        let poisoned: Vec<u64> = r.take()?;
        self.poisoned = poisoned.into_iter().collect();
        Ok(())
    }
}

impl Snap for SimBuilder {
    fn snap(&self, w: &mut Writer) {
        w.put(&self.cols);
        w.put(&self.rows);
        w.put(&self.topology);
        w.put(&self.placement);
        w.put(&self.scheme);
        w.put(&self.profile);
        w.put(&self.trace_len);
        w.put(&self.seed);
        w.put(&self.mshr_entries);
        w.put(&self.noc);
        w.put(&self.l1);
        w.put(&self.bank);
        w.put(&self.dram);
        w.put(&self.disco);
        w.put(&self.energy);
        w.put(&self.max_cycles);
        w.put(&self.scale_profile);
        w.put(&self.demote_override);
        w.put(&self.external_traces);
        w.put(&self.prefetch_next_line);
        #[cfg(feature = "faults")]
        w.put(&self.fault_plan);
        #[cfg(feature = "trace")]
        {
            w.put(&self.capture_trace);
            w.put(&self.retain_trace_records);
        }
    }

    fn restore(r: &mut disco_snapshot::Reader<'_>) -> Result<Self, SnapError> {
        Ok(SimBuilder {
            cols: r.take()?,
            rows: r.take()?,
            topology: r.take()?,
            placement: r.take()?,
            scheme: r.take()?,
            profile: r.take()?,
            trace_len: r.take()?,
            seed: r.take()?,
            mshr_entries: r.take()?,
            noc: r.take()?,
            l1: r.take()?,
            bank: r.take()?,
            dram: r.take()?,
            disco: r.take()?,
            energy: r.take()?,
            max_cycles: r.take()?,
            scale_profile: r.take()?,
            demote_override: r.take()?,
            external_traces: r.take()?,
            prefetch_next_line: r.take()?,
            #[cfg(feature = "faults")]
            fault_plan: r.take()?,
            #[cfg(feature = "trace")]
            capture_trace: r.take()?,
            #[cfg(feature = "trace")]
            retain_trace_records: r.take()?,
        })
    }
}

impl SimBuilder {
    /// Compares the run-defining axes of a snapshot's embedded builder
    /// (`self`) against the configuration a caller asked to restore
    /// into. Sharding and budget knobs are excluded — those may differ.
    fn check_matches(&self, requested: &SimBuilder) -> Result<(), SimError> {
        fn diff<T: PartialEq + fmt::Debug>(
            field: &'static str,
            snapshot: &T,
            requested: &T,
        ) -> Result<(), SimError> {
            if snapshot == requested {
                Ok(())
            } else {
                Err(SimError::SnapshotConfigMismatch {
                    field,
                    snapshot: format!("{snapshot:?}"),
                    requested: format!("{requested:?}"),
                })
            }
        }
        diff("cols", &self.cols, &requested.cols)?;
        diff("rows", &self.rows, &requested.rows)?;
        diff("topology", &self.topology, &requested.topology)?;
        diff("placement", &self.placement, &requested.placement)?;
        diff("scheme", &self.scheme, &requested.scheme)?;
        diff("seed", &self.seed, &requested.seed)?;
        diff("trace_len", &self.trace_len, &requested.trace_len)?;
        diff("profile", &self.profile, &requested.profile)?;
        diff("vcs", &self.noc.vcs, &requested.noc.vcs)?;
        diff(
            "buffer_depth",
            &self.noc.buffer_depth,
            &requested.noc.buffer_depth,
        )?;
        diff("disco_params", &self.disco, &requested.disco)?;
        #[cfg(feature = "faults")]
        diff("fault_plan", &self.fault_plan, &requested.fault_plan)?;
        Ok(())
    }
}

impl System {
    /// Serializes the complete mutable simulator state, prefixed with
    /// the versioned, feature-fingerprinted header and the builder the
    /// system was constructed from. Restoring the bytes with
    /// [`System::restore`] and continuing is byte-identical to never
    /// having paused.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        SnapshotHeader {
            version: disco_snapshot::FORMAT_VERSION,
            fingerprint: feature_fingerprint(),
        }
        .write(&mut w);
        w.put(&self.builder);
        w.put(&self.max_cycles);
        self.snap_state(&mut w);
        w.into_bytes()
    }

    /// Rebuilds a simulator from [`System::snapshot`] bytes.
    ///
    /// # Errors
    ///
    /// The snapshot variants of [`SimError`]: truncated stream, version
    /// or feature-fingerprint mismatch, or structurally invalid bytes.
    /// No partial restores: any error leaves nothing behind.
    pub fn restore(bytes: &[u8]) -> Result<System, SimError> {
        Self::restore_inner(bytes, None)
    }

    /// Like [`System::restore`], but first verifies the snapshot's
    /// embedded configuration matches `requested` on every run-defining
    /// axis (grid, topology, placement, scheme, seed, trace length,
    /// workload profile, VCs, buffer depth, DISCO parameters and, with
    /// `faults`, the fault plan), so a job runner cannot silently resume
    /// the wrong simulation.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotConfigMismatch`] on a differing axis, plus
    /// everything [`System::restore`] can return.
    pub fn restore_with(bytes: &[u8], requested: &SimBuilder) -> Result<System, SimError> {
        Self::restore_inner(bytes, Some(requested))
    }

    fn restore_inner(bytes: &[u8], requested: Option<&SimBuilder>) -> Result<System, SimError> {
        let mut r = disco_snapshot::Reader::new(bytes);
        let header = SnapshotHeader::read(&mut r)?;
        let expected = feature_fingerprint();
        if header.fingerprint != expected {
            return Err(SimError::SnapshotFeatureMismatch {
                found: header.fingerprint,
                expected,
            });
        }
        let builder: SimBuilder = r.take()?;
        if let Some(req) = requested {
            builder.check_matches(req)?;
        }
        let max_cycles: u64 = r.take()?;
        let mut system = builder.build();
        system.max_cycles = max_cycles;
        system.restore_state(&mut r)?;
        if !r.is_exhausted() {
            return Err(SimError::SnapshotCorrupt {
                detail: format!(
                    "{} trailing bytes after the decoded state",
                    bytes.len() - r.offset()
                ),
            });
        }
        Ok(system)
    }

    /// Writes every mutable field; config-derived structure (codec,
    /// placement tables, memory-controller map, energy model, value
    /// model) is rebuilt from the embedded builder on restore.
    fn snap_state(&self, w: &mut Writer) {
        self.net.snap_state(w);
        match &self.disco {
            Some(layer) => {
                w.put(&true);
                layer.snap_state(w);
            }
            None => w.put(&false),
        }
        w.put(&self.tiles.len());
        for t in &self.tiles {
            t.snap_state(w);
        }
        w.put(&self.banks.len());
        for b in &self.banks {
            b.snap_state(w);
        }
        w.put(&self.dirs.len());
        for d in &self.dirs {
            d.snap_state(w);
        }
        w.put(&self.bank_pending.len());
        for pending in &self.bank_pending {
            w.snap_map(pending);
        }
        self.dram.snap_state(w);
        w.snap_map(&self.versions);
        w.put(&self.events);
        w.put(&self.demand_misses);
        w.put(&self.total_miss_latency);
        w.put(&self.onchip_miss_latency);
        w.put(&self.latency_histogram);
        w.snap_map(&self.dram_service);
        w.snap_map(&self.fill_penalty);
        w.put(&self.compression);
        w.put(&self.codec_ops);
        #[cfg(feature = "trace")]
        match &self.trace {
            Some(ts) => {
                w.put(&true);
                w.put(&ts.analyzer);
                w.put(&ts.records);
                w.put(&ts.retain);
            }
            None => w.put(&false),
        }
    }

    /// Overlays state written by [`System::snap_state`] onto a system
    /// freshly built from the same builder, validating every count
    /// against the rebuilt structure.
    fn restore_state(&mut self, r: &mut disco_snapshot::Reader<'_>) -> Result<(), SnapError> {
        self.net.restore_state(r)?;
        let has_disco: bool = r.take()?;
        match (self.disco.as_mut(), has_disco) {
            (Some(layer), true) => layer.restore_state(r)?,
            (None, false) => {}
            (have, want) => {
                return Err(disco_snapshot::malformed(format!(
                    "snapshot {} a DISCO layer but the rebuilt system {}",
                    if want { "has" } else { "lacks" },
                    if have.is_some() {
                        "has one"
                    } else {
                        "lacks one"
                    },
                )));
            }
        }
        let tiles: usize = r.take()?;
        if tiles != self.tiles.len() {
            return Err(disco_snapshot::malformed(format!(
                "{tiles} tiles in snapshot, {} rebuilt",
                self.tiles.len()
            )));
        }
        for t in &mut self.tiles {
            t.restore_state(r)?;
        }
        let banks: usize = r.take()?;
        if banks != self.banks.len() {
            return Err(disco_snapshot::malformed(format!(
                "{banks} banks in snapshot, {} rebuilt",
                self.banks.len()
            )));
        }
        for b in &mut self.banks {
            b.restore_state(r)?;
        }
        let dirs: usize = r.take()?;
        if dirs != self.dirs.len() {
            return Err(disco_snapshot::malformed(format!(
                "{dirs} directories in snapshot, {} rebuilt",
                self.dirs.len()
            )));
        }
        for d in &mut self.dirs {
            d.restore_state(r)?;
        }
        let pending: usize = r.take()?;
        if pending != self.bank_pending.len() {
            return Err(disco_snapshot::malformed(format!(
                "{pending} bank-pending maps in snapshot, {} rebuilt",
                self.bank_pending.len()
            )));
        }
        for slot in &mut self.bank_pending {
            *slot = r.restore_map()?;
        }
        self.dram.restore_state(r)?;
        self.versions = r.restore_map()?;
        self.events = r.take()?;
        self.demand_misses = r.take()?;
        self.total_miss_latency = r.take()?;
        self.onchip_miss_latency = r.take()?;
        self.latency_histogram = r.take()?;
        self.dram_service = r.restore_map()?;
        self.fill_penalty = r.restore_map()?;
        self.compression = r.take()?;
        self.codec_ops = r.take()?;
        #[cfg(feature = "trace")]
        {
            let has_trace: bool = r.take()?;
            match (self.trace.as_mut(), has_trace) {
                (Some(ts), true) => {
                    ts.analyzer = r.take()?;
                    ts.records = r.take()?;
                    ts.retain = r.take()?;
                }
                (None, false) => {}
                (have, want) => {
                    return Err(disco_snapshot::malformed(format!(
                        "snapshot {} trace capture but the rebuilt system {}",
                        if want { "has" } else { "lacks" },
                        if have.is_some() { "has it" } else { "lacks it" },
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(placement: CompressionPlacement) -> SimReport {
        SimBuilder::new()
            .mesh(2, 2)
            .placement(placement)
            .benchmark(Benchmark::Swaptions)
            .trace_len(200)
            .seed(5)
            .run()
            .expect("tiny run drains")
    }

    #[test]
    fn builder_defaults_match_table2() {
        let b = SimBuilder::new();
        assert_eq!(b.cols * b.rows, 16);
        assert_eq!(b.mshr_entries, 8);
        assert_eq!(b.noc.vcs, 2);
        assert_eq!(b.bank.assoc, 8);
        assert_eq!(b.scheme, SchemeKind::Delta);
    }

    #[test]
    fn run_is_deterministic() {
        let a = tiny(CompressionPlacement::Disco);
        let b = tiny(CompressionPlacement::Disco);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.total_miss_latency, b.total_miss_latency);
        assert_eq!(a.network.link_flits, b.network.link_flits);
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny(CompressionPlacement::Baseline);
        let b = SimBuilder::new()
            .mesh(2, 2)
            .placement(CompressionPlacement::Baseline)
            .benchmark(Benchmark::Swaptions)
            .trace_len(200)
            .seed(6)
            .run()
            .expect("drains");
        assert_ne!(a.cycles, b.cycles);
    }

    #[test]
    fn all_accesses_complete() {
        for placement in CompressionPlacement::ALL {
            let r = tiny(placement);
            // Every L1 miss became a completed demand miss (merged misses
            // complete with their primary).
            assert!(r.demand_misses > 0, "{placement}");
            assert!(
                r.l1.hits + r.l1.misses >= 4 * 200,
                "{placement}: all accesses issued"
            );
        }
    }

    #[test]
    fn onchip_latency_is_bounded_by_total() {
        let r = tiny(CompressionPlacement::CacheOnly);
        assert!(r.total_onchip_latency <= r.total_miss_latency);
        assert!(r.avg_onchip_latency() > 0.0);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn trace_capture_is_lossless_and_exact() {
        let report = SimBuilder::new()
            .mesh(2, 2)
            .placement(CompressionPlacement::Disco)
            .benchmark(Benchmark::Swaptions)
            .trace_len(200)
            .seed(5)
            .retain_trace_records(true)
            .run()
            .expect("drains");
        let t = report.trace.as_ref().expect("capture requested");
        assert_eq!(t.dropped, 0, "per-tick draining never overflows");
        assert!(!t.records.is_empty());
        assert_eq!(t.events, t.records.len() as u64);
        let p = &t.provenance;
        assert!(p.exact, "every decomposition sums to its latency");
        assert_eq!(p.totals.incomplete, 0, "lossless capture tracks all");
        assert_eq!(p.totals.packets, report.network.packets_delivered);
        assert_eq!(
            p.totals.latency_cycles, report.network.total_packet_latency,
            "provenance covers exactly the NoC's own latency accounting"
        );
    }

    #[cfg(feature = "trace")]
    #[test]
    fn uncaptured_runs_report_no_trace() {
        let r = tiny(CompressionPlacement::Disco);
        assert!(r.trace.is_none());
        let c = tiny(CompressionPlacement::Disco);
        assert_eq!(r.cycles, c.cycles, "tracing plumbing is inert by default");
    }

    #[test]
    fn baseline_never_compresses() {
        let r = tiny(CompressionPlacement::Baseline);
        assert_eq!(r.compression.lines(), 0);
        assert_eq!(r.energy_counts.compressions, 0);
        assert_eq!(r.energy_counts.decompressions, 0);
        assert_eq!(r.energy_counts.compressor_sites, 0);
    }

    #[test]
    fn compressed_placements_record_ratio() {
        for placement in [
            CompressionPlacement::Ideal,
            CompressionPlacement::CacheOnly,
            CompressionPlacement::CacheAndNi,
            CompressionPlacement::Disco,
        ] {
            let r = tiny(placement);
            assert!(r.compression.lines() > 0, "{placement}");
            assert!(r.compression.mean_ratio() > 1.0, "{placement}");
        }
    }

    #[test]
    fn cnc_charges_more_codec_ops_than_cc() {
        let cc = tiny(CompressionPlacement::CacheOnly);
        let cnc = tiny(CompressionPlacement::CacheAndNi);
        assert!(
            cnc.energy_counts.compressions + cnc.energy_counts.decompressions
                > cc.energy_counts.compressions + cc.energy_counts.decompressions,
            "two-level compression must do more codec work"
        );
    }

    #[test]
    fn deadline_error_reports_outstanding() {
        let err = SimBuilder::new()
            .mesh(2, 2)
            .benchmark(Benchmark::Canneal)
            .trace_len(5_000)
            .max_cycles(50)
            .run()
            .expect_err("cannot drain in 50 cycles");
        // Irrefutable without `faults` (the enum then has one variant).
        #[allow(irrefutable_let_patterns)]
        let SimError::DeadlineExceeded {
            max_cycles,
            outstanding,
            suspicious_stalls,
        } = err
        else {
            panic!("expected DeadlineExceeded, got {err:?}");
        };
        assert_eq!(max_cycles, 50);
        assert!(outstanding > 0);
        assert_eq!(suspicious_stalls, 0, "a too-small budget is not a deadlock");
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    fn sc2_runs_with_trained_table() {
        let r = SimBuilder::new()
            .mesh(2, 2)
            .placement(CompressionPlacement::Disco)
            .scheme(SchemeKind::Sc2)
            .benchmark(Benchmark::X264)
            .trace_len(200)
            .seed(5)
            .run()
            .expect("drains");
        assert_eq!(r.scheme, SchemeKind::Sc2);
        assert!(
            r.compression.mean_ratio() > 1.2,
            "trained SC2 must compress x264 lines"
        );
    }

    #[test]
    fn larger_mesh_scales_home_banks() {
        let r = SimBuilder::new()
            .mesh(4, 4)
            .benchmark(Benchmark::Swaptions)
            .trace_len(100)
            .seed(5)
            .run()
            .expect("drains");
        assert_eq!(r.energy_counts.banks, 16);
        assert_eq!(r.energy_counts.routers, 16);
    }

    #[test]
    fn coherence_traffic_appears_with_sharing() {
        // Ferret has heavy sharing: invalidations must occur.
        let r = SimBuilder::new()
            .mesh(2, 2)
            .placement(CompressionPlacement::Baseline)
            .benchmark(Benchmark::Ferret)
            .trace_len(2_000)
            .seed(5)
            .run()
            .expect("drains");
        assert!(r.l1.invalidations > 0, "MOESI invalidations expected");
    }

    #[test]
    fn disco_layer_present_only_for_disco() {
        assert!(tiny(CompressionPlacement::Disco).disco.is_some());
        assert!(tiny(CompressionPlacement::Ideal).disco.is_none());
        assert!(tiny(CompressionPlacement::Baseline).disco.is_none());
    }

    #[cfg(feature = "faults")]
    fn faulty(placement: CompressionPlacement, rate: f64) -> SimReport {
        SimBuilder::new()
            .mesh(2, 2)
            .placement(placement)
            .benchmark(Benchmark::Swaptions)
            .trace_len(400)
            .seed(5)
            .faults(disco_faults::FaultPlan::uniform(5, rate))
            .run()
            .expect("faulty run drains")
    }

    #[cfg(feature = "faults")]
    #[test]
    fn rate_zero_plan_matches_fault_free_run() {
        let clean = tiny(CompressionPlacement::Disco);
        let armed = SimBuilder::new()
            .mesh(2, 2)
            .placement(CompressionPlacement::Disco)
            .benchmark(Benchmark::Swaptions)
            .trace_len(200)
            .seed(5)
            .faults(disco_faults::FaultPlan::new(5))
            .run()
            .expect("drains");
        assert!(armed.faults.is_none(), "inactive plan must be discarded");
        assert_eq!(clean.cycles, armed.cycles);
        assert_eq!(clean.total_miss_latency, armed.total_miss_latency);
        assert_eq!(clean.network, armed.network);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn faulty_runs_recover_everything_and_reconcile() {
        for placement in [CompressionPlacement::Baseline, CompressionPlacement::Disco] {
            let r = faulty(placement, 1e-4);
            let f = r.faults.expect("active plan reports fault stats");
            assert!(f.reconciles(), "ledger must reconcile: {f:?}");
            assert_eq!(f.undetected, 0, "no silent corruption");
            assert_eq!(f.unrecoverable, 0, "rate 1e-4 must stay recoverable");
        }
    }

    /// A bit flip can be *masked*: the DISCO engine snapshots the raw
    /// line when an operation starts, so a flip landing on a link while
    /// the compression is in flight is erased when the codec commit
    /// overwrites the payload. The ejection check settles such faults as
    /// detected-and-recovered without a retransmission — flips are the
    /// only kind armed here, so any detection beyond the retry count is
    /// a settled masked fault, and the ledger must still reconcile.
    #[cfg(feature = "faults")]
    #[test]
    fn masked_bit_flips_settle_at_ejection() {
        let plan = disco_faults::FaultPlan {
            payload_bit_flip_rate: 5e-3,
            ..disco_faults::FaultPlan::new(1)
        };
        let r = SimBuilder::new()
            .mesh(4, 4)
            .placement(CompressionPlacement::Disco)
            .benchmark(Benchmark::Canneal)
            .trace_len(600)
            .seed(2016)
            .faults(plan)
            .run()
            .expect("faulty run drains");
        let f = r.faults.expect("active plan reports fault stats");
        assert!(f.payload_bit_flips > 0, "no flips landed: {f:?}");
        assert!(
            f.detected > f.retries,
            "config no longer exercises the masked-flip path: {f:?}"
        );
        assert!(f.reconciles(), "ledger must reconcile: {f:?}");
        assert_eq!(f.undetected, 0, "no silent corruption");
    }

    fn stats_text(r: &SimReport) -> String {
        let mut buf = Vec::new();
        r.write_stats(&mut buf).expect("in-memory write");
        String::from_utf8(buf).expect("utf8")
    }

    #[test]
    fn snapshot_mid_run_resumes_byte_identically() {
        let builder = SimBuilder::new()
            .mesh(2, 2)
            .placement(CompressionPlacement::Disco)
            .benchmark(Benchmark::Swaptions)
            .trace_len(200)
            .seed(5);
        let unbroken = builder.clone().run().expect("drains");
        let mut sys = builder.build();
        assert!(!sys.step_until(500).expect("within budget"), "still busy");
        assert_eq!(sys.now(), 500);
        let bytes = sys.snapshot();
        let resumed = System::restore(&bytes)
            .expect("restores")
            .run_to_completion()
            .expect("drains");
        assert_eq!(stats_text(&unbroken), stats_text(&resumed));
    }

    #[test]
    fn snapshot_of_restored_system_is_stable() {
        let builder = SimBuilder::new()
            .mesh(2, 2)
            .benchmark(Benchmark::Swaptions)
            .trace_len(200)
            .seed(7);
        let mut sys = builder.build();
        let _ = sys.step_until(400).expect("within budget");
        let bytes = sys.snapshot();
        let restored = System::restore(&bytes).expect("restores");
        assert_eq!(bytes, restored.snapshot(), "restore is lossless");
    }

    #[test]
    fn restore_rejects_truncated_and_corrupt_bytes() {
        let builder = SimBuilder::new()
            .mesh(2, 2)
            .benchmark(Benchmark::Swaptions)
            .trace_len(100)
            .seed(5);
        let mut sys = builder.build();
        let _ = sys.step_until(200).expect("within budget");
        let bytes = sys.snapshot();
        assert!(matches!(
            System::restore(&bytes[..bytes.len() / 2]),
            Err(SimError::SnapshotTruncated { .. } | SimError::SnapshotCorrupt { .. })
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            System::restore(&trailing),
            Err(SimError::SnapshotCorrupt { .. })
        ));
    }

    #[test]
    fn restore_with_flags_config_mismatch() {
        let builder = SimBuilder::new()
            .mesh(2, 2)
            .benchmark(Benchmark::Swaptions)
            .trace_len(100)
            .seed(5);
        let mut sys = builder.build();
        let _ = sys.step_until(200).expect("within budget");
        let bytes = sys.snapshot();
        let noc = NocConfig::default();
        #[allow(unused_mut)]
        let mut cases = vec![
            ("cols", builder.clone().mesh(4, 4)),
            ("profile", builder.clone().benchmark(Benchmark::Dedup)),
            ("vcs", builder.clone().noc(NocConfig { vcs: 4, ..noc })),
            (
                "buffer_depth",
                builder.clone().noc(NocConfig {
                    buffer_depth: 2,
                    ..noc
                }),
            ),
            (
                "disco_params",
                builder.clone().disco_params(DiscoParams {
                    cc_threshold: 0.25,
                    ..DiscoParams::default()
                }),
            ),
        ];
        #[cfg(feature = "faults")]
        cases.push(("fault_plan", builder.clone().uniform_faults(3, 1e-3)));
        for (field, requested) in cases {
            match System::restore_with(&bytes, &requested) {
                Err(SimError::SnapshotConfigMismatch { field: f, .. }) => assert_eq!(f, field),
                Err(e) => panic!("{field}: wrong error {e}"),
                Ok(_) => panic!("{field}: a differing {field} must be refused"),
            }
        }
        // Sharding and the cycle budget may differ.
        let resharded = builder.clone().max_cycles(1_000_000).noc(NocConfig {
            compute_shards: 4,
            ..noc
        });
        assert!(System::restore_with(&bytes, &resharded).is_ok());
        assert!(System::restore_with(&bytes, &builder).is_ok());
    }

    #[cfg(feature = "faults")]
    #[test]
    fn fault_stats_reach_the_stats_file() {
        let r = faulty(CompressionPlacement::Disco, 1e-4);
        let mut buf = Vec::new();
        r.write_stats(&mut buf).expect("in-memory write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.contains("faults.injected = "));
        assert!(text.contains("faults.dram_stall_cycles = "));
    }
}
