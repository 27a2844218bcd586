//! Fault injection, detection, and recovery wiring inside the NoC.
//!
//! The machinery splits along the cycle kernel's compute/commit line:
//!
//! - [`FaultGate`] is the *compute-side* view — a read-only handle on
//!   the active [`disco_faults::FaultPlan`] that the pure per-router
//!   phase consults for fault-aware routing (dead-link escapes) and
//!   port-stall windows. It mutates nothing, so the compute phase stays
//!   pure.
//! - [`FaultCtx`] is the *commit-side* state — pristine-payload records
//!   for end-to-end checksums, the black-hole set of packets being
//!   dropped, and the deterministic retransmission queue. It is touched
//!   only from the node-ordered serial passes (NI send, the commit
//!   pass, the tick-start retransmit drain), exactly like the tracer.
//!
//! Detection and recovery model (ISSUE 5): every packet's logical
//! payload is checksummed at NI injection ([`FaultCtx::on_send`]) and
//! verified at ejection. A mismatch (or a black-holed packet's tail)
//! eats the packet and schedules an NI retransmission of the pristine
//! payload after a deterministic timeout with exponential backoff, up
//! to [`disco_faults::FaultPlan::max_retries`] attempts; exhaustion
//! counts the transfer's faults as unrecoverable. Corrupted compressor
//! outputs are caught earlier by decompress-and-verify at the engine
//! ([`Network::fault_codec_output`]) and recovered by falling back to
//! uncompressed delivery. A fault can also be *masked* in flight — a
//! bit flip erased when an in-network codec commit overwrites the
//! payload it had already consumed — in which case the clean ejection
//! check settles it as detected-and-recovered with no retransmission,
//! keeping the ledger exact (injected == detected == recovered +
//! unrecoverable).
//!
//! Determinism: the plan's schedule is a pure function of
//! `(seed, kind, cycle, site)`, all counters are updated in node-ordered
//! serial code, and the retransmit queue is keyed by due cycle — so
//! `FaultStats` and the trace byte stream are identical on every rerun.

use crate::network::Network;
use crate::topology::{NodeId, PortId, Topology};

#[cfg(feature = "faults")]
use crate::packet::{Packet, PacketClass, PacketId, Payload};
#[cfg(feature = "faults")]
use crate::phase::Departure;
#[cfg(feature = "faults")]
use disco_compress::scheme::Compressor;
#[cfg(feature = "faults")]
use disco_faults::{site, FaultKind, FaultPlan, FaultStats};
#[cfg(feature = "faults")]
use std::collections::{BTreeMap, HashMap};

/// Read-only fault view for the pure compute phase. Always compiled so
/// [`crate::phase::compute_router`] has a stable signature; with the
/// `faults` feature off (or no active plan) every method is the identity
/// and the kernel is byte-identical to an unfaulted build.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultGate<'a> {
    #[cfg(feature = "faults")]
    pub(crate) plan: Option<&'a FaultPlan>,
    #[cfg(not(feature = "faults"))]
    _inert: std::marker::PhantomData<&'a ()>,
}

impl<'a> FaultGate<'a> {
    /// An inert gate (no plan).
    pub(crate) fn inert() -> Self {
        FaultGate {
            #[cfg(feature = "faults")]
            plan: None,
            #[cfg(not(feature = "faults"))]
            _inert: std::marker::PhantomData,
        }
    }

    /// Applies fault-aware escape routing on top of the primary route
    /// decision: packets steer around configured dead links where a
    /// deadlock-free detour exists for the topology (see
    /// [`crate::routing::escape_route`]).
    pub(crate) fn adjust_route(
        &self,
        topo: &Topology,
        here: NodeId,
        dst: NodeId,
        primary: PortId,
    ) -> PortId {
        #[cfg(feature = "faults")]
        if let Some(plan) = self.plan {
            if !plan.dead_links.is_empty() {
                return crate::routing::escape_route(topo, here, dst, primary, |n, p| {
                    plan.link_is_dead(n.0, p.0)
                });
            }
        }
        let _ = (topo, here, dst);
        primary
    }

    /// True when the output port `out` of router `node` refuses to drive
    /// flits this cycle: an injected port-stall window or a flaky-link
    /// outage window.
    #[cfg(feature = "faults")]
    pub(crate) fn output_blocked(&self, now: u64, node: usize, out: usize) -> bool {
        let Some(plan) = self.plan else {
            return false;
        };
        plan.window_fires(FaultKind::PortStall, now, site::port(node, out))
            || plan.window_fires(FaultKind::LinkFlaky, now, site::link(node, out))
    }
}

/// Pristine-payload record kept from NI injection to final resolution.
#[cfg(feature = "faults")]
#[derive(Debug, Clone)]
struct PristineRecord {
    /// The payload exactly as handed to [`Network::send`].
    payload: Payload,
    /// Checksum of the payload's logical bytes at injection time.
    checksum: u64,
    /// Integrity faults injected into this transfer so far, carried
    /// across retransmissions.
    fault_events: u32,
    /// Injected-but-not-yet-detected faults on the current attempt.
    pending: u32,
    /// Retransmissions already spent on this transfer.
    resends: u32,
}

/// One scheduled NI retransmission, queued until its due cycle.
#[cfg(feature = "faults")]
#[derive(Debug, Clone)]
struct Retransmit {
    src: NodeId,
    dst: NodeId,
    class: PacketClass,
    payload: Payload,
    compressible: bool,
    critical: bool,
    tag: u64,
    fault_events: u32,
    resends: u32,
}

/// Commit-side fault state: the active plan, the verification codec,
/// accounting, and the recovery queues. Lives in [`Network`] only while
/// a plan with a non-zero schedule is installed.
#[cfg(feature = "faults")]
#[derive(Debug)]
pub(crate) struct FaultCtx {
    pub(crate) plan: FaultPlan,
    /// Codec used for decompress-and-verify and for computing logical
    /// bytes of compressed payloads (a clone of the system codec).
    codec: disco_compress::Codec,
    pub(crate) stats: FaultStats,
    /// Per in-flight packet: pristine payload + checksum + attempt state.
    pristine: HashMap<u64, PristineRecord>,
    /// Packets being black-holed, keyed to the router whose output eats
    /// them. Flits transit normally up to that router (so every switch
    /// allocation along the way releases when the tail passes) and
    /// vanish on its faulted output; the tail completes the drop.
    dropping: HashMap<u64, usize>,
    /// Retransmissions by due cycle, drained at tick start in cycle
    /// order (FIFO within a cycle) — fully deterministic.
    retx: BTreeMap<u64, Vec<Retransmit>>,
}

/// The logical (decompressed) bytes a payload represents: what the
/// end-to-end checksum covers, invariant under lossless in-network
/// de/compression. An encoding the codec cannot decode hashes its raw
/// encoded bytes instead (consistently on both ends).
#[cfg(feature = "faults")]
fn logical_bytes(codec: &disco_compress::Codec, payload: &Payload) -> Vec<u8> {
    match payload {
        Payload::None => Vec::new(),
        Payload::Raw(line) => line.as_bytes().to_vec(),
        Payload::Compressed(c) => match codec.decompress(c) {
            Ok(line) => line.as_bytes().to_vec(),
            Err(_) => c.data().to_vec(),
        },
    }
}

#[cfg(feature = "faults")]
impl FaultCtx {
    pub(crate) fn new(plan: FaultPlan, codec: disco_compress::Codec) -> Self {
        FaultCtx {
            plan,
            codec,
            stats: FaultStats::default(),
            pristine: HashMap::new(),
            dropping: HashMap::new(),
            retx: BTreeMap::new(),
        }
    }

    /// True when no recovery work is outstanding (for
    /// [`Network::is_idle`]).
    pub(crate) fn quiescent(&self) -> bool {
        self.retx.is_empty() && self.dropping.is_empty()
    }

    /// Records the pristine payload + checksum of a freshly sent packet.
    pub(crate) fn on_send(&mut self, id: PacketId, store: &crate::packet::PacketStore) {
        let pkt = store.get(id);
        let bytes = logical_bytes(&self.codec, &pkt.payload);
        self.pristine.insert(
            id.0,
            PristineRecord {
                payload: pkt.payload.clone(),
                checksum: disco_faults::checksum(&bytes),
                fault_events: 0,
                pending: 0,
                resends: 0,
            },
        );
    }

    /// Handles a non-Local departure: black-hole continuation, new link
    /// drops (head flits), and payload bit flips (tail flits of raw
    /// payloads). Returns true when the flit was eaten.
    fn handle_link_departure(&mut self, net: &mut Network, node: usize, dep: &Departure) -> bool {
        let id = dep.flit.packet;
        let now = net.now;
        if let Some(&drop_node) = self.dropping.get(&id.0) {
            if drop_node != node {
                // Flits upstream of the drop point transit normally so
                // the switch allocations they hold release on the tail.
                return false;
            }
            // Give back the downstream credit the local commit just took.
            net.routers[node].return_credit(dep.out, dep.out_vc);
            if dep.flit.kind.is_tail() {
                self.dropping.remove(&id.0);
                self.finish_drop(net, node, id);
            }
            return true;
        }
        if !self.pristine.contains_key(&id.0) {
            // Packets staged outside `Network::send` (extension-API
            // tests) carry no pristine record; leave them alone so the
            // ledger stays exact.
            return false;
        }
        let link = site::link(node, dep.out.0);
        if dep.flit.kind.is_head()
            && (self.plan.link_is_dead(node, dep.out.0)
                || self.plan.fires(FaultKind::LinkDrop, now, link))
        {
            self.stats.injected += 1;
            self.stats.link_drops += 1;
            if let Some(rec) = self.pristine.get_mut(&id.0) {
                rec.fault_events += 1;
                rec.pending += 1;
            }
            disco_trace::emit!(
                net.tracer,
                disco_trace::Event::FaultInject {
                    kind: FaultKind::LinkDrop.code(),
                    packet: id.0,
                    node: node as u16,
                }
            );
            net.routers[node].return_credit(dep.out, dep.out_vc);
            if dep.flit.kind.is_tail() {
                self.finish_drop(net, node, id);
            } else {
                self.dropping.insert(id.0, node);
            }
            return true;
        }
        if dep.flit.kind.is_tail() && self.plan.fires(FaultKind::PayloadBitFlip, now, link) {
            // Soft error on a data flit in flight. Only raw payloads are
            // flipped: a flipped compressed encoding would fail decode
            // inside the network rather than reach the ejection check.
            let pkt = net.store.get_mut(id);
            if let Payload::Raw(line) = &mut pkt.payload {
                let draw = self
                    .plan
                    .draw(FaultKind::PayloadBitFlip, now, link ^ 0x5a5a);
                let bit = (draw % (8 * disco_compress::LINE_BYTES as u64)) as usize;
                line.as_bytes_mut()[bit / 8] ^= 1 << (bit % 8);
                self.stats.injected += 1;
                self.stats.payload_bit_flips += 1;
                if let Some(rec) = self.pristine.get_mut(&id.0) {
                    rec.fault_events += 1;
                    rec.pending += 1;
                }
                disco_trace::emit!(
                    net.tracer,
                    disco_trace::Event::FaultInject {
                        kind: FaultKind::PayloadBitFlip.code(),
                        packet: id.0,
                        node: node as u16,
                    }
                );
            }
        }
        false
    }

    /// Verifies a packet's end-to-end checksum at ejection (tail through
    /// the Local port). A clean transfer settles its ledger (recovered
    /// += its fault count, and any faults masked in flight count as
    /// detected here); a corrupted one is eaten and retransmitted.
    /// Returns true when the packet was eaten.
    fn handle_ejection(&mut self, net: &mut Network, node: usize, dep: &Departure) -> bool {
        // `node` feeds the trace events only.
        let _ = node;
        if !dep.flit.kind.is_tail() {
            return false;
        }
        let id = dep.flit.packet;
        let Some(rec) = self.pristine.get(&id.0) else {
            return false;
        };
        let delivered = logical_bytes(&self.codec, &net.store.get(id).payload);
        if disco_faults::checksum(&delivered) == rec.checksum {
            // Checksum passes. Cross-check against the pristine oracle:
            // a mismatch here is a silent corruption the checksum failed
            // to catch, which the run-end health rule turns fatal (the
            // ledger is left short on purpose — injected != detected is
            // the truthful record of an escaped fault).
            if delivered != logical_bytes(&self.codec, &rec.payload) {
                self.stats.undetected += 1;
            } else {
                // A fault can be *masked* in flight: a bit flip on a raw
                // line that a downstream compressor had already consumed
                // is erased when the codec commit overwrites the payload
                // with the encoding of the pre-flip snapshot. Such
                // still-pending faults settle here — the end-to-end check
                // verified them harmless, so they count as detected and
                // recovered without a retransmission.
                self.stats.detected += u64::from(rec.pending);
                if rec.fault_events > 0 {
                    self.stats.recovered += u64::from(rec.fault_events);
                }
            }
            self.pristine.remove(&id.0);
            return false;
        }
        let rec = match self.pristine.remove(&id.0) {
            Some(r) => r,
            None => return false,
        };
        self.stats.detected += u64::from(rec.pending);
        disco_trace::emit!(
            net.tracer,
            disco_trace::Event::FaultDetect {
                kind: FaultKind::PayloadBitFlip.code(),
                packet: id.0,
                node: node as u16,
            }
        );
        // Eat the delivery: the packet leaves the store now and its
        // pristine payload is queued for retransmission. (The compute
        // phase already counted it in packets_delivered; see the stats
        // note in ARCHITECTURE.md — ejection-eaten packets count as
        // delivered flit traffic, recovery re-counts the retransmit as
        // a fresh injection.)
        let pkt = net.store.remove(id);
        self.resolve_failure(net.now, &pkt, rec);
        true
    }

    /// A black-holed packet's tail was consumed: the loss is *detected*
    /// (modelling the NI loss timeout, collapsed to the deterministic
    /// drop-completion point) and handed to recovery.
    fn finish_drop(&mut self, net: &mut Network, node: usize, id: PacketId) {
        // `node` feeds the trace events only.
        let _ = node;
        let rec = match self.pristine.remove(&id.0) {
            Some(r) => r,
            // Drops are only injected on packets with records.
            None => return,
        };
        self.stats.detected += u64::from(rec.pending);
        disco_trace::emit!(
            net.tracer,
            disco_trace::Event::FaultDetect {
                kind: FaultKind::LinkDrop.code(),
                packet: id.0,
                node: node as u16,
            }
        );
        let pkt = net.store.remove(id);
        self.resolve_failure(net.now, &pkt, rec);
    }

    /// Decides the fate of a failed transfer: schedule a retransmission
    /// with exponential backoff, or — past the retry bound — write its
    /// faults off as unrecoverable.
    fn resolve_failure(&mut self, now: u64, pkt: &Packet, rec: PristineRecord) {
        if rec.resends >= self.plan.max_retries {
            self.stats.unrecoverable += u64::from(rec.fault_events);
            return;
        }
        self.stats.retries += 1;
        // Exponential backoff, shift-capped so the delay cannot wrap.
        let backoff = self.plan.retry_timeout.max(1) << rec.resends.min(10);
        self.retx
            .entry(now + backoff)
            .or_default()
            .push(Retransmit {
                src: pkt.src,
                dst: pkt.dst,
                class: pkt.class,
                payload: rec.payload.clone(),
                compressible: pkt.compressible,
                critical: pkt.critical,
                tag: pkt.tag,
                fault_events: rec.fault_events,
                resends: rec.resends + 1,
            });
    }
}

/// Commit-pass hook: intercepts one departure for fault processing.
/// Returns true when the flit was eaten and the normal Local/link
/// handling must be skipped (the upstream credit return has already
/// happened either way).
#[cfg(feature = "faults")]
pub(crate) fn intercept_departure(net: &mut Network, node: usize, dep: &Departure) -> bool {
    let Some(mut ctx) = net.faults.take() else {
        return false;
    };
    let eaten = if net.topology.is_local(dep.out) {
        ctx.handle_ejection(net, node, dep)
    } else {
        ctx.handle_link_departure(net, node, dep)
    };
    net.faults = Some(ctx);
    eaten
}

/// Tick-start hook: re-sends every retransmission whose backoff expired,
/// carrying the transfer's fault ledger onto the replacement packet.
#[cfg(feature = "faults")]
pub(crate) fn drain_retransmits(net: &mut Network) {
    let now = net.now;
    let mut due: Vec<Retransmit> = Vec::new();
    {
        let Some(ctx) = net.faults.as_mut() else {
            return;
        };
        while let Some(entry) = ctx.retx.first_entry() {
            if *entry.key() > now {
                break;
            }
            due.append(&mut entry.remove());
        }
    }
    for r in due {
        let id = net.send(
            r.src,
            r.dst,
            r.class,
            r.payload.clone(),
            r.compressible,
            r.tag,
        );
        net.store.get_mut(id).critical = r.critical;
        if let Some(ctx) = net.faults.as_mut() {
            if let Some(rec) = ctx.pristine.get_mut(&id.0) {
                rec.fault_events = r.fault_events;
                rec.resends = r.resends;
            }
        }
        disco_trace::emit!(
            net.tracer,
            disco_trace::Event::Retransmit {
                packet: id.0,
                attempt: r.resends,
            }
        );
    }
}

impl Network {
    /// The read-only fault view the compute phase consults. Inert when
    /// no plan is active (and in `faults`-off builds).
    pub(crate) fn fault_gate(&self) -> FaultGate<'_> {
        #[allow(unused_mut)]
        let mut gate = FaultGate::inert();
        #[cfg(feature = "faults")]
        {
            gate.plan = self.faults.as_ref().map(|ctx| &ctx.plan);
        }
        gate
    }
}

#[cfg(feature = "faults")]
impl Network {
    /// Installs a fault plan (and the codec its integrity checks verify
    /// against). A plan with an all-zero schedule is discarded outright,
    /// which keeps rate-0 runs byte-identical to a `faults`-off build.
    pub fn set_fault_plan(&mut self, plan: FaultPlan, codec: disco_compress::Codec) {
        self.faults = if plan.is_active() {
            Some(FaultCtx::new(plan, codec))
        } else {
            None
        };
    }

    /// The fault accounting block, if a plan is active.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|ctx| &ctx.stats)
    }

    /// Engine-side hook: possibly corrupts a compressor's output, then
    /// decompress-and-verifies it. Returns the encoding to commit, or
    /// `None` when verification failed and the engine must fall back to
    /// uncompressed delivery (counted as a recovered fault).
    pub fn fault_codec_output(
        &mut self,
        node: NodeId,
        packet: PacketId,
        enc: disco_compress::CompressedLine,
    ) -> Option<disco_compress::CompressedLine> {
        // `packet` feeds the trace events only.
        let _ = packet;
        let now = self.now;
        let Some(ctx) = self.faults.as_mut() else {
            return Some(enc);
        };
        let s = site::codec(node.0);
        if !ctx.plan.fires(FaultKind::CodecCorruption, now, s) || enc.data().is_empty() {
            return Some(enc);
        }
        let draw = ctx.plan.draw(FaultKind::CodecCorruption, now, s ^ 0xc0dec);
        let mut data = enc.data().to_vec();
        let idx = (draw as usize) % data.len();
        data[idx] ^= 1 << ((draw >> 32) % 8);
        let corrupted = disco_compress::CompressedLine::new(enc.scheme(), data, enc.size_bits());
        let intact = match (ctx.codec.decompress(&corrupted), ctx.codec.decompress(&enc)) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        };
        if intact {
            // The flipped bit landed in encoding slack: the output is
            // semantically identical, so nothing was corrupted.
            return Some(enc);
        }
        ctx.stats.injected += 1;
        ctx.stats.codec_corruptions += 1;
        ctx.stats.detected += 1;
        ctx.stats.recovered += 1;
        ctx.stats.fallback_deliveries += 1;
        disco_trace::emit!(
            self.tracer,
            disco_trace::Event::FaultInject {
                kind: FaultKind::CodecCorruption.code(),
                packet: packet.0,
                node: node.0 as u16,
            }
        );
        disco_trace::emit!(
            self.tracer,
            disco_trace::Event::FaultDetect {
                kind: FaultKind::CodecCorruption.code(),
                packet: packet.0,
                node: node.0 as u16,
            }
        );
        disco_trace::emit!(
            self.tracer,
            disco_trace::Event::FaultFallback {
                packet: packet.0,
                node: node.0 as u16,
            }
        );
        None
    }
}

#[cfg(test)]
#[cfg(feature = "faults")]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::network::Network;
    use crate::packet::{PacketClass, Payload};
    use crate::topology::{Mesh, Ring, EAST, WEST};
    use disco_compress::{CacheLine, Codec};

    fn faulty_net(plan: FaultPlan) -> Network {
        let mut net = Network::new(Mesh::new(4, 4), NocConfig::default());
        net.set_fault_plan(plan, Codec::delta());
        net
    }

    fn drain(net: &mut Network, limit: u64) -> Vec<crate::packet::Packet> {
        let mut got = Vec::new();
        while !net.is_idle() {
            net.tick();
            for node in 0..net.topology().tiles() {
                got.extend(net.take_delivered(NodeId(node)));
            }
            assert!(net.now() < limit, "network failed to drain");
        }
        got
    }

    #[test]
    fn inactive_plan_is_discarded() {
        let net = faulty_net(FaultPlan::new(1));
        assert!(net.fault_stats().is_none());
    }

    #[test]
    fn drops_are_detected_and_retransmitted() {
        let mut plan = FaultPlan::new(7);
        plan.link_drop_rate = 0.05;
        let mut net = faulty_net(plan);
        let line = CacheLine::from_u64_words([11, 12, 13, 14, 15, 16, 17, 18]);
        for i in 0..16usize {
            net.send(
                NodeId(i),
                NodeId((i + 7) % 16),
                PacketClass::Response,
                Payload::Raw(line),
                true,
                i as u64,
            );
        }
        let got = drain(&mut net, 200_000);
        let stats = *net.fault_stats().expect("plan active");
        assert!(stats.link_drops > 0, "5% drop rate must strike: {stats:?}");
        assert!(stats.reconciles(), "{stats:?}");
        assert_eq!(stats.undetected, 0);
        // Dropped attempts are eaten, never delivered: each transfer
        // arrives exactly once.
        assert_eq!(got.len(), 16, "{stats:?}");
        // Every original payload arrives intact exactly once per tag.
        let mut tags: Vec<u64> = got.iter().map(|p| p.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 16, "all 16 transfers complete");
        for p in &got {
            match &p.payload {
                Payload::Raw(l) => assert_eq!(*l, line),
                other => panic!("expected raw payload, got {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_are_caught_at_ejection() {
        let mut plan = FaultPlan::new(3);
        plan.payload_bit_flip_rate = 0.2;
        let mut net = faulty_net(plan);
        let line = CacheLine::from_u64_words([21, 22, 23, 24, 25, 26, 27, 28]);
        for i in 0..16usize {
            net.send(
                NodeId(i),
                NodeId((i + 5) % 16),
                PacketClass::Response,
                Payload::Raw(line),
                true,
                i as u64,
            );
        }
        let got = drain(&mut net, 200_000);
        let stats = *net.fault_stats().expect("plan active");
        assert!(stats.payload_bit_flips > 0, "flips must strike: {stats:?}");
        assert!(stats.reconciles(), "{stats:?}");
        assert_eq!(stats.undetected, 0);
        for p in &got {
            match &p.payload {
                Payload::Raw(l) => assert_eq!(*l, line, "no corrupted delivery"),
                other => panic!("expected raw payload, got {other:?}"),
            }
        }
    }

    #[test]
    fn dead_link_reroutes_and_delivers() {
        let mut plan = FaultPlan::new(1);
        // Node 5 -East-> 6 is dead; XY routes 4->7 straight over it.
        plan.dead_links.push((5, EAST.0));
        let mut net = faulty_net(plan);
        net.send(
            NodeId(4),
            NodeId(7),
            PacketClass::Request,
            Payload::None,
            false,
            42,
        );
        let got = drain(&mut net, 5_000);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].tag, 42);
        let stats = *net.fault_stats().expect("plan active");
        assert_eq!(stats.link_drops, 0, "escape must avoid the dead link");
        assert!(stats.reconciles());
    }

    #[test]
    fn ring_dead_link_reverses_and_delivers() {
        use crate::topology::CLOCKWISE;
        let mut plan = FaultPlan::new(2);
        // The clockwise link out of node 2 is dead; 0->4 ties toward
        // clockwise and must escape the long way round instead.
        plan.dead_links.push((2, CLOCKWISE.0));
        let mut net = Network::new(Ring::new(8), NocConfig::low_buffer_ring());
        net.set_fault_plan(plan, Codec::delta());
        net.send(
            NodeId(0),
            NodeId(4),
            PacketClass::Request,
            Payload::None,
            false,
            7,
        );
        let got = drain(&mut net, 5_000);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].tag, 7);
        let stats = *net.fault_stats().expect("plan active");
        assert_eq!(stats.link_drops, 0, "escape must avoid the dead link");
        assert!(stats.reconciles());
    }

    #[test]
    fn torus_dead_link_black_holes_and_retransmission_gives_up() {
        use crate::topology::Torus;
        let mut plan = FaultPlan::new(6);
        // The torus has no escape routing (it would break the dateline
        // proof): a dead link on the only minimal route black-holes the
        // packet and the NI retry bound eventually writes it off.
        plan.dead_links.push((0, EAST.0));
        plan.max_retries = 2;
        plan.retry_timeout = 8;
        let mut net = Network::new(
            Torus::new(4, 4),
            NocConfig {
                vcs: 4,
                ..NocConfig::default()
            },
        );
        net.set_fault_plan(plan, Codec::delta());
        net.send(
            NodeId(0),
            NodeId(1),
            PacketClass::Request,
            Payload::None,
            false,
            1,
        );
        for _ in 0..2_000 {
            net.tick();
            let _ = net.take_delivered(NodeId(1));
        }
        let stats = *net.fault_stats().expect("plan active");
        assert!(net.is_idle(), "transfer must be abandoned, not stuck");
        assert_eq!(stats.retries, 2);
        assert!(stats.unrecoverable > 0, "{stats:?}");
        assert!(stats.reconciles(), "{stats:?}");
    }

    #[test]
    fn port_stalls_count_cycles_and_still_deliver() {
        let mut plan = FaultPlan::new(9);
        plan.port_stall_rate = 0.2;
        let mut net = faulty_net(plan);
        let line = CacheLine::from_u64_words([1, 2, 3, 4, 5, 6, 7, 8]);
        for i in 0..16usize {
            net.send(
                NodeId(i),
                NodeId((i + 3) % 16),
                PacketClass::Response,
                Payload::Raw(line),
                true,
                i as u64,
            );
        }
        let got = drain(&mut net, 200_000);
        assert_eq!(got.len(), 16);
        let stats = *net.fault_stats().expect("plan active");
        assert!(stats.port_stall_cycles > 0, "{stats:?}");
        // Stalls are timing-only: the integrity ledger stays empty.
        assert_eq!(stats.injected, 0);
        assert!(stats.reconciles());
    }

    #[test]
    fn flaky_links_stall_but_deliver() {
        let mut plan = FaultPlan::new(13);
        plan.link_flaky_rate = 0.2;
        let mut net = faulty_net(plan);
        let line = CacheLine::from_u64_words([31, 32, 33, 34, 35, 36, 37, 38]);
        for i in 0..16usize {
            net.send(
                NodeId(i),
                NodeId((i + 9) % 16),
                PacketClass::Response,
                Payload::Raw(line),
                true,
                i as u64,
            );
        }
        let got = drain(&mut net, 200_000);
        assert_eq!(got.len(), 16);
        let stats = *net.fault_stats().expect("plan active");
        assert!(stats.port_stall_cycles > 0, "{stats:?}");
        // Flaky outage windows delay flits; they never corrupt them.
        assert_eq!(stats.injected, 0);
        assert!(stats.reconciles());
    }

    #[test]
    fn retry_bound_marks_unrecoverable() {
        let mut plan = FaultPlan::new(5);
        // A dead link with no escape: destinations due West black-hole.
        plan.dead_links.push((1, WEST.0));
        plan.max_retries = 2;
        plan.retry_timeout = 8;
        let mut net = faulty_net(plan);
        net.send(
            NodeId(1),
            NodeId(0),
            PacketClass::Request,
            Payload::None,
            false,
            1,
        );
        for _ in 0..2_000 {
            net.tick();
            let _ = net.take_delivered(NodeId(0));
        }
        let stats = *net.fault_stats().expect("plan active");
        assert!(net.is_idle(), "transfer must be abandoned, not stuck");
        assert_eq!(stats.retries, 2);
        assert!(stats.unrecoverable > 0, "{stats:?}");
        assert!(stats.reconciles(), "{stats:?}");
    }

    #[test]
    fn codec_corruption_falls_back_to_uncompressed() {
        let mut plan = FaultPlan::new(4);
        plan.codec_corruption_rate = 1.0;
        let mut net = faulty_net(plan);
        let codec = Codec::delta();
        let line = CacheLine::from_u64_words([100, 101, 102, 103, 104, 105, 106, 107]);
        let enc = codec.compress(&line);
        let id = net.send(
            NodeId(0),
            NodeId(3),
            PacketClass::Response,
            Payload::Raw(line),
            true,
            0,
        );
        assert!(
            net.fault_codec_output(NodeId(0), id, enc).is_none(),
            "rate-1 corruption must force the fallback"
        );
        let stats = *net.fault_stats().expect("plan active");
        assert_eq!(stats.codec_corruptions, 1);
        assert_eq!(stats.fallback_deliveries, 1);
        assert!(stats.reconciles(), "{stats:?}");
    }
}

// ---------------------------------------------------------------------------
// Checkpointing (see crates/snapshot/manifest.txt)
// ---------------------------------------------------------------------------

#[cfg(feature = "faults")]
disco_snapshot::snap_fields!(PristineRecord {
    payload,
    checksum,
    fault_events,
    pending,
    resends,
});

#[cfg(feature = "faults")]
disco_snapshot::snap_fields!(Retransmit {
    src,
    dst,
    class,
    payload,
    compressible,
    critical,
    tag,
    fault_events,
    resends,
});

#[cfg(feature = "faults")]
impl FaultCtx {
    /// Writes the recovery-side mutable state. The plan and the
    /// verification codec are rebuilt from the builder config on
    /// restore.
    pub(crate) fn snap_state(&self, w: &mut disco_snapshot::Writer) {
        w.put(&self.stats);
        w.snap_map(&self.pristine);
        w.snap_map(&self.dropping);
        w.put(&self.retx);
    }

    /// Overlays state written by [`FaultCtx::snap_state`].
    pub(crate) fn restore_state(
        &mut self,
        r: &mut disco_snapshot::Reader<'_>,
    ) -> Result<(), disco_snapshot::SnapError> {
        self.stats = r.take()?;
        self.pristine = r.restore_map()?;
        self.dropping = r.restore_map()?;
        self.retx = r.take()?;
        Ok(())
    }
}
