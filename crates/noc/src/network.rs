//! The cycle-stepped network: routers, links, NI injection/ejection, and
//! the extension API the DISCO layer drives.

use crate::config::{FlowControl, NocConfig};
use crate::packet::{flit_at, Packet, PacketClass, PacketId, PacketStore, Payload};
use crate::phase::{ComputeScratch, RouterOutcome};
use crate::router::Router;
use crate::stats::NetworkStats;
use crate::topology::{NodeId, PortId, Topology, TopologySpec};
use std::collections::VecDeque;

/// The reusable compute arena: one outcome slot per router plus the
/// RC/VA/SA scratch space. Allocations grow to their high-water mark
/// once and are reused every cycle afterwards — the steady-state
/// compute phase allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct ComputeSlot {
    /// One outcome per router, in node order.
    pub(crate) outcomes: Vec<RouterOutcome>,
    /// Overlay + candidate arenas reused across the routers.
    pub(crate) scratch: ComputeScratch,
}

/// Maximum packet size in flits: an uncompressed 64 B payload.
pub const MAX_PACKET_FLITS: usize = disco_compress::LINE_BYTES / crate::packet::FLIT_BYTES;

/// In-progress injection of one packet at a node's NI.
#[derive(Debug, Clone, Copy)]
struct InjectProgress {
    packet: PacketId,
    sent: usize,
    total: usize,
}

/// The network, over any [`Topology`].
///
/// ```
/// use disco_noc::{Network, NocConfig};
/// use disco_noc::topology::{Mesh, NodeId};
/// use disco_noc::packet::{PacketClass, Payload};
///
/// let mut net = Network::new(Mesh::new(4, 4), NocConfig::default());
/// net.send(NodeId(0), NodeId(15), PacketClass::Request, Payload::None, false, 7);
/// while net.take_delivered(NodeId(15)).is_empty() {
///     net.tick();
///     assert!(net.now() < 1_000, "packet must arrive");
/// }
/// ```
#[derive(Debug)]
pub struct Network {
    pub(crate) topology: Topology,
    pub(crate) config: NocConfig,
    pub(crate) routers: Vec<Router>,
    pub(crate) store: PacketStore,
    /// Per-tile, per-VC injection queues.
    inject_q: Vec<Vec<VecDeque<PacketId>>>,
    /// Per-tile in-flight injection (one NI port, one packet at a time
    /// per VC).
    inject_progress: Vec<Vec<Option<InjectProgress>>>,
    /// Round-robin over VCs for the single NI injection port.
    inject_rr: Vec<usize>,
    /// Packets fully ejected at each tile, awaiting pickup.
    pub(crate) delivered: Vec<Vec<PacketId>>,
    pub(crate) stats: NetworkStats,
    pub(crate) now: u64,
    /// The compute arena, taken out of `self` for the duration of each
    /// tick's compute + commit so the phases can borrow the network and
    /// the slot independently.
    scratch: ComputeSlot,
    /// Cycle-stamped trace event collector. Fed only from NI injection
    /// and the node-ordered commit pass, never from the compute phase.
    #[cfg(feature = "trace")]
    pub(crate) tracer: disco_trace::Tracer,
    /// Commit-side fault injection/recovery state, present only while a
    /// plan with a non-zero schedule is installed
    /// ([`Network::set_fault_plan`]).
    #[cfg(feature = "faults")]
    pub(crate) faults: Option<crate::faults::FaultCtx>,
}

impl Network {
    /// Builds an idle network over `spec`'s topology.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, if a non-wormhole flow
    /// control is paired with buffers too small to hold a whole packet
    /// (§3.3-A requires whole-packet residency for VCT/SAF), or if the
    /// topology's dateline discipline needs more VCs than configured
    /// ([`Topology::min_vcs`]).
    pub fn new(spec: impl TopologySpec, config: NocConfig) -> Self {
        config.validate();
        if config.flow_control != FlowControl::Wormhole {
            assert!(
                config.buffer_depth >= MAX_PACKET_FLITS,
                "VCT/SAF need buffer_depth >= {MAX_PACKET_FLITS} to hold a whole packet"
            );
        }
        let topology = spec.build();
        assert!(
            config.vcs >= topology.min_vcs(),
            "{} needs at least {} virtual channels for its dateline discipline, got {}",
            topology.name(),
            topology.min_vcs(),
            config.vcs
        );
        let routers = topology.routers();
        let tiles = topology.tiles();
        let radix = topology.radix();
        let link_ports = topology.link_ports();
        Network {
            topology,
            config,
            routers: (0..routers)
                .map(|i| Router::new(NodeId(i), config, radix, link_ports))
                .collect(),
            store: PacketStore::new(),
            inject_q: vec![vec![VecDeque::new(); config.vcs]; tiles],
            inject_progress: vec![vec![None; config.vcs]; tiles],
            inject_rr: vec![0; tiles],
            delivered: vec![Vec::new(); tiles],
            stats: NetworkStats::new(),
            now: 0,
            scratch: ComputeSlot::default(),
            #[cfg(feature = "trace")]
            tracer: disco_trace::Tracer::default(),
            #[cfg(feature = "faults")]
            faults: None,
        }
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The network's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The configuration.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Accumulated event counters.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Read access to the trace event collector.
    #[cfg(feature = "trace")]
    pub fn tracer(&self) -> &disco_trace::Tracer {
        &self.tracer
    }

    /// Mutable access to the trace collector: harnesses drain it once
    /// per cycle for lossless capture.
    #[cfg(feature = "trace")]
    pub fn tracer_mut(&mut self) -> &mut disco_trace::Tracer {
        &mut self.tracer
    }

    /// Records one event at the current cycle — the sink surface
    /// [`disco_trace::emit!`] uses from the layers above the NoC
    /// (codec engines, endpoint codecs).
    #[cfg(feature = "trace")]
    pub fn trace_record(&mut self, event: disco_trace::Event) {
        self.tracer.trace_record(event);
    }

    /// Re-bounds the trace ring buffer (drop-oldest beyond `capacity`).
    #[cfg(feature = "trace")]
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.tracer.set_capacity(capacity);
    }

    /// Test-only mutable counters (e.g. staging a routing violation for
    /// the health-check diagnostics).
    #[cfg(test)]
    pub(crate) fn stats_mut(&mut self) -> &mut NetworkStats {
        &mut self.stats
    }

    /// The central packet store.
    pub fn store(&self) -> &PacketStore {
        &self.store
    }

    /// Mutable packet store (the DISCO layer swaps payloads here).
    pub fn store_mut(&mut self) -> &mut PacketStore {
        &mut self.store
    }

    /// Read access to a router (extension API).
    pub fn router(&self, node: NodeId) -> &Router {
        &self.routers[node.0]
    }

    /// Write access to a router (extension API: locking VCs).
    pub fn router_mut(&mut self, node: NodeId) -> &mut Router {
        &mut self.routers[node.0]
    }

    /// Enqueues a packet for injection at tile `src`'s NI. Returns its id.
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: PacketClass,
        payload: Payload,
        compressible: bool,
        tag: u64,
    ) -> PacketId {
        let id = self
            .store
            .create(src, dst, class, payload, compressible, self.now, tag);
        // Balance injection across the class's VC group. `validate()`
        // guarantees at least one VC, so the group is never empty and the
        // fallback VC 0 is unreachable.
        let vc = class
            .vc_range(self.config.vcs)
            .min_by_key(|&v| self.inject_q[src.0][v].len())
            .unwrap_or(0);
        self.inject_q[src.0][vc].push_back(id);
        self.stats.packets_injected += 1;
        disco_trace::emit!(
            self.tracer,
            disco_trace::Event::Inject {
                packet: id.0,
                src: src.0 as u16,
                dst: dst.0 as u16,
                class: crate::stats::class_index(class) as u8,
                flits: self.store.get(id).size_flits() as u8,
            }
        );
        #[cfg(feature = "faults")]
        if let Some(ctx) = self.faults.as_mut() {
            ctx.on_send(id, &self.store);
        }
        id
    }

    /// Packets fully delivered at tile `node` since the last call,
    /// removed from the store.
    pub fn take_delivered(&mut self, node: NodeId) -> Vec<Packet> {
        let ids = std::mem::take(&mut self.delivered[node.0]);
        ids.into_iter().map(|id| self.store.remove(id)).collect()
    }

    /// True when no packet is queued, in flight, or awaiting pickup, and
    /// no fault recovery (retransmission, in-progress drop) is pending:
    /// [`Network::is_empty`], cross-checked against every router buffer
    /// and NI queue.
    pub fn is_idle(&self) -> bool {
        self.is_empty()
            && self.routers.iter().all(|r| r.total_buffered() == 0)
            && self.inject_q.iter().flatten().all(|q| q.is_empty())
    }

    /// O(1) emptiness: no packet exists anywhere in the network and no
    /// fault recovery is pending. Every queued, buffered or delivered
    /// flit belongs to a packet that stays in the store until
    /// [`Network::take_delivered`], so an empty store implies empty
    /// buffers and injection queues — and a [`Network::tick`] that can
    /// only advance the clock (see [`Network::skip_idle`]).
    pub fn is_empty(&self) -> bool {
        #[cfg(feature = "faults")]
        if let Some(ctx) = &self.faults {
            if !ctx.quiescent() {
                return false;
            }
        }
        self.store.is_empty()
    }

    /// Advances an empty network by `cycles` without ticking it: the
    /// clock, the cycle counter and the trace stamp move, nothing else.
    /// On an [`empty`](Network::is_empty) network this is exactly
    /// `cycles` calls of [`Network::tick`]: with no flit to route, the
    /// compute phase decides nothing, so every round-robin pointer stays
    /// put and the loser lists stay empty; injection finds no queued
    /// packet; and fault draws are stateless hashes of (kind, cycle,
    /// site), so skipping a cycle consumes no randomness.
    pub fn skip_idle(&mut self, cycles: u64) {
        debug_assert!(self.is_empty(), "skip_idle on a network with packets");
        self.now += cycles;
        self.stats.cycles += cycles;
        #[cfg(feature = "trace")]
        self.tracer.set_cycle(self.now);
    }

    /// Checks run-time invariants across every router: per-router state
    /// legality ([`Router::check_invariants`]) and credit conservation —
    /// on each link, the upstream credit count plus the downstream buffer
    /// occupancy never exceeds the buffer depth (strict equality does not
    /// hold because the extension API may hold credits mid-reshape).
    ///
    /// Always compiled; [`Network::tick`] calls it every cycle when the
    /// `validate` feature is enabled.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        for r in &self.routers {
            r.check_invariants()?;
        }
        for node in 0..self.routers.len() {
            for port in 0..self.topology.link_ports() {
                let out = PortId(port);
                let Some((next, next_in)) = self.topology.out_link(NodeId(node), out) else {
                    continue;
                };
                for vc in 0..self.config.vcs {
                    let credits = self.routers[node].credit_in(out, vc);
                    let occupancy = self.routers[next.0].vc(next_in.0, vc).occupancy();
                    if credits + occupancy > self.config.buffer_depth {
                        return Err(format!(
                            "credit conservation violated on {}-{out}->{next} vc {vc}: \
                             {credits} credits + {occupancy} buffered > depth {}",
                            NodeId(node),
                            self.config.buffer_depth
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Advances the network one cycle: injection, then the pure compute
    /// phase (RC/VA/SA for every router over the cycle-start snapshot),
    /// then the node-ordered commit pass (switch/link traversal, credit
    /// returns, ejection). Flits delivered downstream become ready
    /// only after the pipeline delay, so a flit advances at most one hop
    /// per cycle regardless of commit order.
    pub fn tick(&mut self) {
        self.now += 1;
        self.stats.cycles += 1;
        #[cfg(feature = "trace")]
        self.tracer.set_cycle(self.now);
        #[cfg(feature = "faults")]
        crate::faults::drain_retransmits(self);
        self.inject();
        // Detach the arena from `self` so the compute phase can borrow
        // the network immutably and the slot mutably at the same time.
        let mut slot = std::mem::take(&mut self.scratch);
        self.compute_phase(&mut slot);
        crate::commit::commit_cycle(self, &slot);
        self.scratch = slot;
        #[cfg(feature = "validate")]
        if let Err(msg) = self.check_invariants() {
            panic!("validate: cycle {}: {msg}", self.now);
        }
    }

    /// Runs [`crate::phase::compute_router`] for every router, writing
    /// into the reusable slot in node order. The function is pure, so
    /// every outcome reflects the same cycle-start snapshot.
    fn compute_phase(&self, slot: &mut ComputeSlot) {
        let gate = self.fault_gate();
        slot.outcomes
            .resize_with(self.routers.len(), RouterOutcome::default);
        for (i, router) in self.routers.iter().enumerate() {
            crate::phase::compute_router(
                router,
                self.now,
                &self.store,
                &self.topology,
                gate,
                &mut slot.scratch,
                &mut slot.outcomes[i],
            );
        }
    }

    /// NI injection: one flit per tile per cycle, round-robin over VCs.
    /// Each tile owns one local port on its router (tiles and routers
    /// coincide except on the concentrated mesh).
    fn inject(&mut self) {
        for tile in 0..self.inject_q.len() {
            let vcs = self.config.vcs;
            let router = self.topology.router_of(NodeId(tile)).0;
            let local = self.topology.local_port(NodeId(tile)).0;
            let start = self.inject_rr[tile];
            for k in 0..vcs {
                let vc = (start + k) % vcs;
                if self.inject_progress[tile][vc].is_none() {
                    if let Some(&id) = self.inject_q[tile][vc].front() {
                        let total = self.store.get(id).size_flits();
                        self.inject_q[tile][vc].pop_front();
                        self.inject_progress[tile][vc] = Some(InjectProgress {
                            packet: id,
                            sent: 0,
                            total,
                        });
                        disco_trace::emit!(
                            self.tracer,
                            disco_trace::Event::NiStart {
                                packet: id.0,
                                node: tile as u16,
                            }
                        );
                    }
                }
                let Some(mut prog) = self.inject_progress[tile][vc] else {
                    continue;
                };
                if self.routers[router].free_slots(local, vc) == 0 {
                    continue;
                }
                let flit = flit_at(prog.packet, prog.sent, prog.total, self.now + 1);
                self.routers[router].accept(local, vc, flit);
                self.stats.buffer_writes += 1;
                prog.sent += 1;
                if prog.sent < prog.total {
                    self.inject_progress[tile][vc] = Some(prog);
                } else {
                    self.inject_progress[tile][vc] = None;
                    disco_trace::emit!(
                        self.tracer,
                        disco_trace::Event::NiDone {
                            packet: prog.packet.0,
                            node: tile as u16,
                        }
                    );
                }
                self.inject_rr[tile] = (vc + 1) % vcs;
                break; // one flit per tile per cycle
            }
        }
    }

    // ------------------------------------------------------------------
    // Extension API for in-network de/compression (used by disco-core).
    // ------------------------------------------------------------------

    /// Replaces the resident flits of one packet in a VC with `new_len`
    /// flits, adjusting upstream credits for the freed (or consumed)
    /// slots. Growth fails (returns `false`) when the buffer or the
    /// upstream credit window cannot absorb it.
    ///
    /// `finalize` stamps proper head/tail kinds; mid-compression reshapes
    /// leave the packet tail-less so it cannot be mistaken for complete.
    pub fn reshape_resident(
        &mut self,
        node: NodeId,
        port: usize,
        vc: usize,
        packet: PacketId,
        new_len: usize,
        finalize: bool,
    ) -> bool {
        let seg_len = self.routers[node.0].vc(port, vc).resident_of(packet);
        if seg_len == 0 {
            return false;
        }
        let upstream = if port < self.topology.link_ports() {
            self.topology.in_source(node, PortId(port))
        } else {
            None
        };
        if new_len > seg_len {
            let growth = new_len - seg_len;
            if self.routers[node.0].free_slots(port, vc) < growth {
                return false;
            }
            if let Some((up, up_out)) = upstream {
                if !self.routers[up.0].try_take_credits(up_out, vc, growth) {
                    return false;
                }
            }
        }
        let delta =
            self.routers[node.0].reshape_packet(port, vc, packet, new_len, finalize, self.now);
        if delta < 0 {
            if let Some((up, up_out)) = upstream {
                for _ in 0..(-delta) {
                    self.routers[up.0].return_credit(up_out, vc);
                }
            }
        }
        true
    }

    /// Packets waiting in a tile's NI injection queue for `vc` (none of
    /// them has started injecting — the in-flight packet is popped when
    /// injection begins). These are idle whole packets the DISCO layer
    /// may compress in place.
    pub fn inject_backlog(&self, node: NodeId, vc: usize) -> &VecDeque<PacketId> {
        &self.inject_q[node.0][vc]
    }

    /// The downstream free-slot count on the route of the front packet of
    /// `(node, port, vc)` — `credit_in{RC(packet)}` of Eq. (1)/(2). Returns
    /// `None` when the packet has no computed route yet.
    pub fn downstream_credits(&self, node: NodeId, port: usize, vc: usize) -> Option<usize> {
        let r = &self.routers[node.0];
        let dir = r.vc(port, vc).routed_port()?;
        if self.topology.is_local(dir) {
            return Some(usize::MAX / 2);
        }
        // Pressure is the best case over the class group's downstream VCs
        // (the packet may win any of them).
        let class = r
            .vc(port, vc)
            .front_packet()
            .map(|p| self.store.get(p).class)?;
        class
            .vc_range(self.config.vcs)
            .map(|v| r.credit_in(dir, v))
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::flits_for;
    use crate::topology::{Mesh, Ring, TopologyChoice, Torus, EAST, WEST};
    use disco_compress::CacheLine;

    fn net(cols: usize, rows: usize) -> Network {
        Network::new(Mesh::new(cols, rows), NocConfig::default())
    }

    fn run_until_delivered(net: &mut Network, node: NodeId, limit: u64) -> Vec<Packet> {
        loop {
            let got = net.take_delivered(node);
            if !got.is_empty() {
                return got;
            }
            net.tick();
            assert!(net.now() < limit, "delivery deadline exceeded");
        }
    }

    #[test]
    fn single_flit_packet_crosses_mesh() {
        let mut n = net(4, 4);
        n.send(
            NodeId(0),
            NodeId(15),
            PacketClass::Request,
            Payload::None,
            false,
            9,
        );
        let got = run_until_delivered(&mut n, NodeId(15), 200);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].tag, 9);
        assert!(n.is_idle());
        assert_eq!(n.stats().packets_delivered, 1);
    }

    #[test]
    fn zero_load_latency_scales_with_hops() {
        // One hop vs six hops: latency difference ≈ 5 * per-hop cost.
        let mut a = net(4, 4);
        a.send(
            NodeId(0),
            NodeId(1),
            PacketClass::Request,
            Payload::None,
            false,
            0,
        );
        run_until_delivered(&mut a, NodeId(1), 100);
        let lat1 = a.stats().avg_packet_latency();

        let mut b = net(4, 4);
        b.send(
            NodeId(0),
            NodeId(15),
            PacketClass::Request,
            Payload::None,
            false,
            0,
        );
        run_until_delivered(&mut b, NodeId(15), 100);
        let lat6 = b.stats().avg_packet_latency();
        let per_hop = (lat6 - lat1) / 5.0;
        assert!(
            (per_hop - (NocConfig::default().pipeline_stages as f64)).abs() <= 1.0,
            "per-hop cost {per_hop} should be ≈ pipeline depth"
        );
    }

    #[test]
    fn response_packet_carries_eight_flits() {
        let mut n = net(2, 2);
        let line = CacheLine::from_u64_words([42; 8]);
        n.send(
            NodeId(0),
            NodeId(3),
            PacketClass::Response,
            Payload::Raw(line),
            true,
            0,
        );
        let got = run_until_delivered(&mut n, NodeId(3), 200);
        assert_eq!(got[0].size_flits(), 8);
        assert_eq!(n.stats().link_flits, 8 * 2); // 2 hops
        match &got[0].payload {
            Payload::Raw(l) => assert_eq!(*l, line),
            other => panic!("expected raw payload, got {other:?}"),
        }
    }

    #[test]
    fn many_packets_all_arrive() {
        let mut n = net(4, 4);
        let mut expected = vec![0usize; 16];
        for i in 0..16 {
            #[allow(clippy::needless_range_loop)]
            for j in 0..16 {
                if i != j {
                    n.send(
                        NodeId(i),
                        NodeId(j),
                        PacketClass::Request,
                        Payload::None,
                        false,
                        (i * 16 + j) as u64,
                    );
                    expected[j] += 1;
                }
            }
        }
        let mut got = vec![0usize; 16];
        for _ in 0..5_000 {
            n.tick();
            #[allow(clippy::needless_range_loop)]
            for j in 0..16 {
                got[j] += n.take_delivered(NodeId(j)).len();
            }
            if n.is_idle() {
                break;
            }
        }
        assert_eq!(got, expected);
        assert!(n.is_idle());
    }

    /// All-to-all traffic drains on every shipped topology at a 16-tile
    /// budget, with invariants checked each cycle — the end-to-end
    /// smoke test of the per-topology routing + dateline discipline.
    #[test]
    fn every_topology_delivers_all_to_all() {
        for choice in TopologyChoice::ALL {
            let topo = choice.build(4, 4);
            let config = NocConfig {
                vcs: topo.min_vcs().max(2),
                ..NocConfig::default()
            };
            let tiles = topo.tiles();
            let mut n = Network::new(topo, config);
            let mut expected = vec![0usize; tiles];
            for i in 0..tiles {
                #[allow(clippy::needless_range_loop)]
                for j in 0..tiles {
                    if i != j {
                        n.send(
                            NodeId(i),
                            NodeId(j),
                            PacketClass::Request,
                            Payload::None,
                            false,
                            (i * tiles + j) as u64,
                        );
                        expected[j] += 1;
                    }
                }
            }
            let mut got = vec![0usize; tiles];
            for _ in 0..10_000 {
                n.tick();
                n.check_invariants()
                    .unwrap_or_else(|e| panic!("{choice}: {e}"));
                #[allow(clippy::needless_range_loop)]
                for j in 0..tiles {
                    got[j] += n.take_delivered(NodeId(j)).len();
                }
                if n.is_idle() {
                    break;
                }
            }
            assert_eq!(got, expected, "{choice} must deliver everything");
            assert!(n.is_idle(), "{choice} must drain");
        }
    }

    /// `skip_idle(n)` on an empty network is exactly `n` idle ticks, on
    /// every topology: same clock, counters and snapshot bytes, and the
    /// same behaviour afterwards. The traffic before the span leaves the
    /// round-robin pointers mid-rotation, so a skip that reset any of
    /// them would show.
    #[test]
    fn skip_idle_equals_idle_ticks_on_every_topology() {
        fn state(n: &Network) -> (u64, NetworkStats, Vec<u8>) {
            let mut w = disco_snapshot::Writer::new();
            n.snap_state(&mut w);
            (n.now(), *n.stats(), w.into_bytes())
        }
        /// Traffic, an idle span, more traffic: the state at the end of
        /// the span and at the end of the run.
        fn drive(
            choice: TopologyChoice,
            idle: impl FnOnce(&mut Network),
        ) -> [(u64, NetworkStats, Vec<u8>); 2] {
            let topo = choice.build(4, 4);
            let config = NocConfig {
                vcs: topo.min_vcs().max(2),
                ..NocConfig::default()
            };
            let tiles = topo.tiles();
            let mut n = Network::new(topo, config);
            let burst = |n: &mut Network, salt: usize| {
                for i in 0..tiles {
                    let line = CacheLine::from_u64_words([(i + salt) as u64; 8]);
                    let dst = NodeId((i * 7 + salt) % tiles);
                    n.send(
                        NodeId(i),
                        dst,
                        PacketClass::Request,
                        Payload::None,
                        false,
                        0,
                    );
                    n.send(
                        NodeId(i),
                        dst,
                        PacketClass::Response,
                        Payload::Raw(line),
                        true,
                        1,
                    );
                }
            };
            let drain = |n: &mut Network| {
                while !n.is_empty() {
                    n.tick();
                    for j in 0..tiles {
                        n.take_delivered(NodeId(j));
                    }
                    assert!(n.now() < 10_000, "{choice} must drain");
                }
            };
            burst(&mut n, 3);
            drain(&mut n);
            idle(&mut n);
            let at_landing = state(&n);
            burst(&mut n, 5);
            drain(&mut n);
            [at_landing, state(&n)]
        }
        for choice in TopologyChoice::ALL {
            let ticked = drive(choice, |n| {
                for _ in 0..37 {
                    n.tick();
                }
            });
            let skipped = drive(choice, |n| n.skip_idle(37));
            for (at, (s, t)) in ["landing", "end"].iter().zip(skipped.iter().zip(&ticked)) {
                assert_eq!(s.0, t.0, "{choice} {at}: now");
                assert_eq!(s.1, t.1, "{choice} {at}: stats");
                assert!(s.2 == t.2, "{choice} {at}: snapshot bytes differ");
            }
        }
    }

    /// Heavy multi-flit wormhole traffic on the wrap topologies: the
    /// regime where an un-datelined design would actually deadlock.
    #[test]
    fn wrap_topologies_drain_heavy_responses() {
        let legs: [(&str, Network); 2] = [
            (
                "ring",
                Network::new(Ring::new(16), NocConfig::low_buffer_ring()),
            ),
            (
                "torus",
                Network::new(
                    Torus::new(4, 4),
                    NocConfig {
                        vcs: 4,
                        ..NocConfig::default()
                    },
                ),
            ),
        ];
        for (name, mut n) in legs {
            let line = CacheLine::from_u64_words([7, 8, 9, 10, 11, 12, 13, 14]);
            for i in 0..16usize {
                for k in 0..4u64 {
                    // Wrap-heavy pattern: every destination is across
                    // the dateline from most sources.
                    let dst = NodeId((i + 11) % 16);
                    n.send(
                        NodeId(i),
                        dst,
                        PacketClass::Response,
                        Payload::Raw(line),
                        true,
                        k,
                    );
                }
            }
            let mut delivered = 0;
            for _ in 0..40_000 {
                n.tick();
                for j in 0..16 {
                    delivered += n.take_delivered(NodeId(j)).len();
                }
                if n.is_idle() {
                    break;
                }
            }
            assert_eq!(delivered, 64, "{name} must deliver everything");
            assert!(n.is_idle(), "{name} must drain — deadlock otherwise");
        }
    }

    #[test]
    #[should_panic(expected = "dateline")]
    fn ring_with_too_few_vcs_rejected() {
        let _ = Network::new(Ring::new(8), NocConfig::default()); // vcs 2 < 4
    }

    #[test]
    fn cmesh_tiles_map_to_shared_routers() {
        use crate::topology::ConcentratedMesh;
        let mut n = Network::new(ConcentratedMesh::new(2, 2, 4), NocConfig::default());
        // Tiles 0 and 1 share router 0; cross-router and same-router
        // deliveries both work.
        n.send(
            NodeId(0),
            NodeId(1),
            PacketClass::Request,
            Payload::None,
            false,
            1,
        );
        n.send(
            NodeId(2),
            NodeId(15),
            PacketClass::Request,
            Payload::None,
            false,
            2,
        );
        assert_eq!(run_until_delivered(&mut n, NodeId(1), 200).len(), 1);
        assert_eq!(run_until_delivered(&mut n, NodeId(15), 200).len(), 1);
        assert!(n.is_idle());
    }

    #[test]
    fn invariants_hold_under_load() {
        let mut n = net(4, 4);
        let line = CacheLine::from_u64_words([1, 2, 3, 4, 5, 6, 7, 8]);
        for i in 0..16usize {
            n.send(
                NodeId(i),
                NodeId((i + 7) % 16),
                PacketClass::Response,
                Payload::Raw(line),
                true,
                i as u64,
            );
            n.send(
                NodeId(i),
                NodeId((i + 3) % 16),
                PacketClass::Request,
                Payload::None,
                false,
                0,
            );
        }
        for _ in 0..2_000 {
            n.tick();
            n.check_invariants().expect("invariants hold every cycle");
            for j in 0..16 {
                let _ = n.take_delivered(NodeId(j));
            }
            if n.is_idle() {
                break;
            }
        }
        assert!(n.is_idle(), "network must drain");
    }

    #[test]
    fn heavy_response_traffic_drains() {
        let mut n = net(4, 4);
        let line = CacheLine::from_u64_words([7, 8, 9, 10, 11, 12, 13, 14]);
        for i in 0..16usize {
            for k in 0..4u64 {
                let dst = NodeId((i + 5) % 16);
                n.send(
                    NodeId(i),
                    dst,
                    PacketClass::Response,
                    Payload::Raw(line),
                    true,
                    k,
                );
            }
        }
        let mut delivered = 0;
        for _ in 0..20_000 {
            n.tick();
            for j in 0..16 {
                delivered += n.take_delivered(NodeId(j)).len();
            }
            if n.is_idle() {
                break;
            }
        }
        assert_eq!(delivered, 64);
        assert!(n.is_idle(), "network must drain");
        assert!(n.stats().sa_losses > 0, "contention must appear under load");
    }

    #[test]
    fn vct_requires_deep_buffers() {
        let config = NocConfig {
            flow_control: FlowControl::VirtualCutThrough,
            buffer_depth: 9,
            ..NocConfig::default()
        };
        let mut n = Network::new(Mesh::new(3, 3), config);
        let line = CacheLine::zeroed();
        n.send(
            NodeId(0),
            NodeId(8),
            PacketClass::Response,
            Payload::Raw(line),
            true,
            0,
        );
        let got = run_until_delivered(&mut n, NodeId(8), 500);
        assert_eq!(got.len(), 1);
    }

    #[test]
    #[should_panic(expected = "whole packet")]
    fn vct_with_shallow_buffers_rejected() {
        let config = NocConfig {
            flow_control: FlowControl::VirtualCutThrough,
            buffer_depth: 4, // < 8-flit whole packets
            ..NocConfig::default()
        };
        let _ = Network::new(Mesh::new(2, 2), config);
    }

    #[test]
    fn saf_delivers_whole_packets() {
        let config = NocConfig {
            flow_control: FlowControl::StoreAndForward,
            buffer_depth: 12,
            ..NocConfig::default()
        };
        let mut n = Network::new(Mesh::new(3, 3), config);
        let line = CacheLine::from_u64_words([1, 2, 3, 4, 5, 6, 7, 8]);
        n.send(
            NodeId(0),
            NodeId(8),
            PacketClass::Response,
            Payload::Raw(line),
            true,
            0,
        );
        let got = run_until_delivered(&mut n, NodeId(8), 1000);
        assert_eq!(got.len(), 1);
        match &got[0].payload {
            Payload::Raw(l) => assert_eq!(*l, line),
            other => panic!("expected raw payload, got {other:?}"),
        }
    }

    #[test]
    fn compressed_payload_uses_fewer_flits() {
        use disco_compress::{scheme::Compressor, Codec};
        let codec = Codec::delta();
        let line = CacheLine::from_u64_words([100, 101, 102, 103, 104, 105, 106, 107]);
        let enc = codec.compress(&line);
        let mut n = net(2, 2);
        n.send(
            NodeId(0),
            NodeId(3),
            PacketClass::Response,
            Payload::Compressed(enc.clone()),
            true,
            0,
        );
        let got = run_until_delivered(&mut n, NodeId(3), 200);
        assert_eq!(got[0].size_flits(), enc.size_bytes().div_ceil(8));
        assert!(got[0].size_flits() < 8);
    }

    #[test]
    fn reshape_resident_returns_credits_upstream() {
        // Manually stage a 8-flit response resident in a router's West input
        // and shrink it; the western neighbour must get its credits back.
        let mut n = net(2, 1);
        let line = CacheLine::zeroed();
        let id = n.store_mut().create(
            NodeId(0),
            NodeId(1),
            PacketClass::Response,
            Payload::Raw(line),
            true,
            0,
            0,
        );
        // Flits sit in node 1's West input port (arrived from node 0).
        let west = WEST.0;
        for f in flits_for(id, 8, 0) {
            n.router_mut(NodeId(1)).accept(west, 1, f);
        }
        // Simulate node 0 having spent 8 credits sending them.
        for _ in 0..8 {
            assert!(n.router_mut(NodeId(0)).try_take_credits(EAST, 1, 1));
        }
        assert_eq!(n.router(NodeId(0)).credit_in(EAST, 1), 0);
        assert!(n.reshape_resident(NodeId(1), west, 1, id, 2, true));
        assert_eq!(n.router(NodeId(0)).credit_in(EAST, 1), 6);
        assert_eq!(n.router(NodeId(1)).vc(west, 1).occupancy(), 2);
    }

    #[test]
    fn reshape_growth_requires_credits() {
        let mut n = net(2, 1);
        let id = n.store_mut().create(
            NodeId(0),
            NodeId(1),
            PacketClass::Response,
            Payload::Raw(CacheLine::zeroed()),
            true,
            0,
            0,
        );
        let west = WEST.0;
        for f in flits_for(id, 2, 0) {
            n.router_mut(NodeId(1)).accept(west, 1, f);
        }
        // Upstream thinks 6 slots are free (8 - 2 in transit history is not
        // modelled here; fresh router has full credits). Take all credits.
        assert!(n.router_mut(NodeId(0)).try_take_credits(EAST, 1, 8));
        assert!(
            !n.reshape_resident(NodeId(1), west, 1, id, 8, true),
            "growth without upstream credit window must fail"
        );
        // Return credits; now growth succeeds.
        for _ in 0..8 {
            n.router_mut(NodeId(0)).return_credit(EAST, 1);
        }
        assert!(n.reshape_resident(NodeId(1), west, 1, id, 8, true));
        assert_eq!(n.router(NodeId(0)).credit_in(EAST, 1), 2);
    }
}

// ---------------------------------------------------------------------------
// Checkpointing (see crates/snapshot/manifest.txt)
// ---------------------------------------------------------------------------

disco_snapshot::snap_fields!(InjectProgress {
    packet,
    sent,
    total,
});

impl Network {
    /// Writes the network's complete mutable state: every router's VC
    /// arenas and credits, the packet store, the NI injection queues,
    /// delivery queues, counters, and (when the features are on) the
    /// trace ring and the fault-recovery ledger. The topology, config,
    /// and the compute arena (`scratch`) are rebuilt from config on
    /// restore.
    pub fn snap_state(&self, w: &mut disco_snapshot::Writer) {
        w.put(&(self.routers.len() as u64));
        for router in &self.routers {
            router.snap_state(w);
        }
        self.store.snap_state(w);
        w.put(&self.inject_q);
        w.put(&self.inject_progress);
        w.put(&self.inject_rr);
        w.put(&self.delivered);
        w.put(&self.stats);
        w.put(&self.now);
        #[cfg(feature = "trace")]
        w.put(&self.tracer);
        #[cfg(feature = "faults")]
        {
            w.put(&self.faults.is_some());
            if let Some(ctx) = &self.faults {
                ctx.snap_state(w);
            }
        }
    }

    /// Overlays state written by [`Network::snap_state`] onto a network
    /// freshly built over the same topology and config (including an
    /// armed fault plan when the snapshot carries fault state).
    pub fn restore_state(
        &mut self,
        r: &mut disco_snapshot::Reader<'_>,
    ) -> Result<(), disco_snapshot::SnapError> {
        let n: u64 = r.take()?;
        if n as usize != self.routers.len() {
            return Err(disco_snapshot::malformed(format!(
                "{n} routers in snapshot, {} in rebuilt network (topology mismatch)",
                self.routers.len()
            )));
        }
        for router in &mut self.routers {
            router.restore_state(r)?;
        }
        self.store.restore_state(r)?;
        let inject_q: Vec<Vec<VecDeque<PacketId>>> = r.take()?;
        if inject_q.len() != self.inject_q.len() {
            return Err(disco_snapshot::malformed(format!(
                "{} injection queues in snapshot, {} rebuilt",
                inject_q.len(),
                self.inject_q.len()
            )));
        }
        self.inject_q = inject_q;
        self.inject_progress = r.take()?;
        self.inject_rr = r.take()?;
        self.delivered = r.take()?;
        self.stats = r.take()?;
        self.now = r.take()?;
        #[cfg(feature = "trace")]
        {
            self.tracer = r.take()?;
        }
        #[cfg(feature = "faults")]
        {
            let has_faults: bool = r.take()?;
            match (&mut self.faults, has_faults) {
                (Some(ctx), true) => ctx.restore_state(r)?,
                (None, false) => {}
                (have, want) => {
                    return Err(disco_snapshot::malformed(format!(
                        "snapshot fault state present={want}, rebuilt network armed={}",
                        have.is_some()
                    )))
                }
            }
        }
        Ok(())
    }
}
