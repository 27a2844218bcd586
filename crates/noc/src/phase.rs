//! The pure **compute** half of the cycle kernel.
//!
//! [`compute_router`] runs one router's RC, VA, and SA stages as a pure
//! function over an immutable snapshot of that router's state at the
//! start of the cycle, and writes the decisions as typed action lists
//! into a caller-provided [`RouterOutcome`]. It mutates no router state:
//! buffers, VC states, the output allocation table and credits are only
//! read.
//!
//! One sweep over the router's occupied input VCs does RC, then VA,
//! then files the VC's switch request in its output port's bucket (or
//! records it as a VA loser). VA sees this cycle's earlier grants
//! through a short list of claimed output VCs; SA then arbitrates each
//! output from its own bucket. An empty VC costs one emptiness check.
//!
//! The claim list and the buckets live in a reusable [`ComputeScratch`]
//! arena, and the outcome's action lists are cleared (not reallocated)
//! on entry — so a steady-state cycle performs **zero heap
//! allocations**: every buffer reaches its high-water capacity once and
//! is reused for the rest of the run. `crates/noc/tests` pins this with
//! a counting global allocator.
//!
//! Because every router's outcome depends only on the cycle-start
//! snapshot, the compute phase may visit the routers in any order and
//! the result is identical by construction. All mutation happens afterwards in the commit pass
//! ([`crate::commit`]), in fixed node order.

use crate::config::FlowControl;
use crate::packet::{Flit, PacketClass, PacketId, PacketStore, Payload};
use crate::router::{Router, VcState};
use crate::routing::{output_vc_range, route};
use crate::stats::NetworkStats;
use crate::topology::{PortId, Topology};

/// A flit leaving a router this cycle, to be applied by the commit pass.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Departure {
    pub flit: Flit,
    pub in_port: usize,
    pub in_vc: usize,
    pub out: PortId,
    pub out_vc: usize,
}

/// Everything one router decided in one cycle's compute phase: typed
/// action lists plus this router's stat delta. The commit pass applies
/// the lists in node order; nothing here aliases router state. Outcomes
/// are arena-owned and reused across cycles — [`RouterOutcome::reset`]
/// clears contents while keeping every allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct RouterOutcome {
    /// RC results: `(in_port, in_vc, out_port)` — the VC becomes `Routed`.
    pub routes: Vec<(usize, usize, PortId)>,
    /// VA results: `(in_port, in_vc, out_port, out_vc)` — the VC becomes
    /// `Active` and acquires the output VC.
    pub grants: Vec<(usize, usize, PortId, usize)>,
    /// SA winners: one flit leaves per output port, with the credit
    /// decrement, link delivery or ejection applied at commit.
    pub departures: Vec<Departure>,
    /// Post-arbitration round-robin pointers, one per output port.
    pub rr_sa: Vec<usize>,
    /// This cycle's allocation losers (the DISCO compression candidates).
    pub sa_losers: Vec<(usize, usize)>,
    /// This router's contribution to the network counters this cycle.
    pub stats: NetworkStats,
    /// Trace events decided this cycle, in stage order. Carried out of
    /// the pure compute phase and cycle-stamped by the commit pass in
    /// node order.
    #[cfg(feature = "trace")]
    pub events: disco_trace::EventList,
    /// Output-port arbitration rounds forfeited to an injected port
    /// stall or flaky-link outage this cycle; folded into
    /// `FaultStats::port_stall_cycles` by the commit pass.
    #[cfg(feature = "faults")]
    pub fault_port_stalls: u64,
}

impl RouterOutcome {
    /// Clears per-cycle contents while retaining every allocation, and
    /// seeds the round-robin pointers from the router snapshot.
    fn reset(&mut self, rr_sa: &[usize]) {
        self.routes.clear();
        self.grants.clear();
        self.departures.clear();
        self.sa_losers.clear();
        self.rr_sa.clear();
        self.rr_sa.extend_from_slice(rr_sa);
        self.stats = NetworkStats::new();
        #[cfg(feature = "trace")]
        self.events.0.clear();
        #[cfg(feature = "faults")]
        {
            self.fault_port_stalls = 0;
        }
    }

    /// True when the router decided nothing this cycle: no route, grant,
    /// departure or loser. Every event, stat and fault-stall count
    /// follows from one of those, so such an outcome changes nothing.
    pub(crate) fn is_noop(&self) -> bool {
        self.routes.is_empty()
            && self.grants.is_empty()
            && self.departures.is_empty()
            && self.sa_losers.is_empty()
    }
}

/// A switch-allocation request: an `Active` input VC whose ready front
/// flit has downstream credit on its output VC.
#[derive(Debug, Clone, Copy)]
struct Request {
    port: usize,
    vc: usize,
    out_vc: usize,
    flit: Flit,
}

/// Reusable working memory for [`compute_router`]: this cycle's VA
/// claims and the per-output SA buckets. One arena serves every router
/// in sequence; capacities grow to the high-water mark once and then
/// stay — no per-router, per-cycle allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct ComputeScratch {
    /// Output VCs granted earlier in this cycle's sweep, `(out_port,
    /// out_vc)`: with the router's `out_alloc` snapshot, the allocation
    /// state VA sees.
    claimed: Vec<(usize, usize)>,
    /// SA requests bucketed by output port, each in input order.
    cands: Vec<Vec<Request>>,
    /// Inputs stalled on zero downstream credit, bucketed by output port,
    /// each in input order.
    no_credit: Vec<Vec<(usize, usize)>>,
    /// Routed VCs with a ready front flit that found no free output VC.
    va_losers: Vec<(usize, usize)>,
}

/// Priority class for switch allocation (§3.3-B): lower wins.
fn sa_priority(router: &Router, store: &PacketStore, packet: PacketId) -> u8 {
    let pkt = store.get(packet);
    let policy = router.config.scheduling;
    if policy.demote_uncompressed
        && pkt.compressible
        && !pkt.critical
        && matches!(pkt.payload, Payload::Raw(_))
    {
        return 2;
    }
    if policy.prioritize_critical && pkt.class == PacketClass::Coherence {
        return 1;
    }
    0
}

/// The virtual channels a packet class may use: the VC space is split
/// into one virtual network per class group to stay deadlock-free.
fn class_vcs(router: &Router, class: PacketClass) -> std::ops::Range<usize> {
    class.vc_range(router.config.vcs)
}

/// Runs RC + VA + SA for one router against its cycle-start snapshot and
/// writes the typed outcome into `out`. Pure with respect to the router:
/// `router` is only read; the only mutation targets are the caller's
/// arena (`scratch`) and outcome slot (`out`), which alias no router
/// state.
///
/// Allocation losers land in `out.sa_losers` in a fixed order — per
/// output port, its no-credit stalls then its arbitration losers; after
/// all outputs, the VA losers — which DISCO's candidate pick breaks ties
/// by and the trace stream records.
pub(crate) fn compute_router(
    router: &Router,
    now: u64,
    store: &PacketStore,
    topo: &Topology,
    gate: crate::faults::FaultGate<'_>,
    scratch: &mut ComputeScratch,
    out: &mut RouterOutcome,
) {
    out.reset(&router.rr_sa);
    // Idle fast path: with no buffered flit there is no RC candidate, no
    // VA-eligible VC with a front packet, no SA candidate, and no VA
    // loser — the sweep below would decide nothing. On big meshes most
    // routers are idle most cycles; skip them outright.
    if router.total_buffered() == 0 {
        return;
    }
    let vcs = router.config.vcs;
    let ports = router.ports;
    let flat = |port: usize, v: usize| port * vcs + v;
    let ComputeScratch {
        claimed,
        cands,
        no_credit,
        va_losers,
    } = scratch;
    claimed.clear();
    va_losers.clear();
    cands.resize_with(ports, Vec::new);
    no_credit.resize_with(ports, Vec::new);
    cands.iter_mut().for_each(Vec::clear);
    no_credit.iter_mut().for_each(Vec::clear);

    // One sweep in (port, vc) order over the occupied VCs: RC, VA, then
    // the VC's SA request. An empty VC decides nothing — it has no head
    // to route, and a Routed VC always holds its head flit.
    for (port, row) in router.inputs.chunks_exact(vcs).enumerate() {
        for (v, vc) in row.iter().enumerate() {
            let Some(&front) = vc.buffer.front() else {
                continue;
            };
            let ready = front.ready_at <= now;
            let mut state = vc.state;
            // RC: a fresh head flit gets its output port.
            if state == VcState::Idle {
                if !(front.kind.is_head() && ready) {
                    continue;
                }
                let pkt = store.get(front.packet);
                let group = class_vcs(router, pkt.class);
                let dir = route(
                    router.config.routing,
                    topo,
                    router.node,
                    pkt.dst,
                    front.packet.0,
                    |p| {
                        group
                            .clone()
                            .map(|vc| router.credits[flat(p.0, vc)])
                            .max()
                            .unwrap_or(0)
                    },
                );
                // Escape faulted links where a deadlock-free detour
                // exists; the identity when no fault plan is active.
                let dir = gate.adjust_route(topo, router.node, pkt.dst, dir);
                state = VcState::Routed(dir);
                out.routes.push((port, v, dir));
                disco_trace::emit!(
                    out.events,
                    disco_trace::Event::Route {
                        packet: front.packet.0,
                        node: router.node.0 as u16,
                        in_port: port as u8,
                        in_vc: v as u8,
                        out_dir: dir.0 as u8,
                    }
                );
            }
            // VA: acquire the class VC on the output port.
            if let VcState::Routed(dir) = state {
                let pkt = store.get(front.packet);
                // Acquire any free VC of the class group on the output
                // port, narrowed by the topology's dateline discipline
                // (identity on the mesh; low/high half-groups on the
                // wrap topologies). VCT/SAF additionally need
                // whole-packet credit (§3.3-A).
                let class_group = class_vcs(router, pkt.class);
                let out_vc =
                    output_vc_range(topo, router.node, dir, pkt.dst, class_group).find(|&cand| {
                        if router.out_alloc[flat(dir.0, cand)].is_some()
                            || claimed.contains(&(dir.0, cand))
                        {
                            return false;
                        }
                        match router.config.flow_control {
                            FlowControl::Wormhole => true,
                            _ => router.credits[flat(dir.0, cand)] >= pkt.size_flits(),
                        }
                    });
                let Some(out_vc) = out_vc else {
                    // VA losers also idle and are therefore compression
                    // candidates (§3.2 step 1 collects losers of both VC
                    // and switch allocation).
                    if ready && !vc.locked {
                        va_losers.push((port, v));
                    }
                    continue;
                };
                claimed.push((dir.0, out_vc));
                state = VcState::Active { out: dir, out_vc };
                out.grants.push((port, v, dir, out_vc));
                disco_trace::emit!(
                    out.events,
                    disco_trace::Event::VcAlloc {
                        packet: front.packet.0,
                        node: router.node.0 as u16,
                        in_port: port as u8,
                        in_vc: v as u8,
                        out_dir: dir.0 as u8,
                        out_vc: out_vc as u8,
                    }
                );
            }
            // SA request: an active VC with a ready front flit bids for
            // its output, unless a committed de/compression holds it
            // (the shadow is invalid and must not be scheduled).
            let VcState::Active { out: o, out_vc } = state else {
                continue;
            };
            if !ready || vc.locked {
                continue;
            }
            // Credits are read from the snapshot only — each output is
            // arbitrated once per cycle and outputs never share a credit
            // counter, so no overlay is needed.
            if router.credits[flat(o.0, out_vc)] == 0 {
                no_credit[o.0].push((port, v));
                continue;
            }
            if router.config.flow_control == FlowControl::StoreAndForward
                && front.kind.is_head()
                && !front.kind.is_tail()
                && !vc.has_tail_of(front.packet)
            {
                // SAF: the whole packet must be buffered before the
                // head may leave.
                continue;
            }
            cands[o.0].push(Request {
                port,
                vc: v,
                out_vc,
                flit: front,
            });
        }
    }

    // SA + traversal decisions: one winner per output port, drawn from
    // that output's bucket.
    let inputs = ports * vcs;
    for oi in 0..ports {
        for &(port, v) in &no_credit[oi] {
            out.sa_losers.push((port, v));
            disco_trace::emit!(
                out.events,
                disco_trace::Event::VcStall {
                    packet: router.inputs[flat(port, v)]
                        .buffer
                        .front()
                        .map_or(0, |f| f.packet.0),
                    node: router.node.0 as u16,
                    port: port as u8,
                    vc: v as u8,
                    reason: disco_trace::stall::NO_CREDIT,
                }
            );
        }
        let bucket = &cands[oi];
        if bucket.is_empty() {
            continue;
        }
        // An injected port stall (or flaky-link outage window) forfeits
        // this output's arbitration round outright: every candidate
        // idles — and, like any SA loser, becomes a DISCO compression
        // candidate.
        #[cfg(feature = "faults")]
        if !router.is_local_port(PortId(oi)) && gate.output_blocked(now, router.node.0, oi) {
            out.fault_port_stalls += 1;
            for c in bucket {
                out.sa_losers.push((c.port, c.vc));
                disco_trace::emit!(
                    out.events,
                    disco_trace::Event::VcStall {
                        packet: c.flit.packet.0,
                        node: router.node.0 as u16,
                        port: c.port as u8,
                        vc: c.vc as u8,
                        reason: disco_trace::stall::FAULT_STALL,
                    }
                );
            }
            continue;
        }
        // Winner: highest priority class (§3.3-B), round-robin within
        // it — the lowest (priority, distance after the round-robin
        // pointer). A lone request wins without the priority lookup.
        let rr = out.rr_sa[oi];
        let win = if bucket.len() == 1 {
            0
        } else {
            let mut best = (0, (u8::MAX, usize::MAX));
            for (k, c) in bucket.iter().enumerate() {
                let flat_in = flat(c.port, c.vc);
                let dist = if flat_in >= rr {
                    flat_in - rr
                } else {
                    flat_in + inputs - rr
                };
                let key = (sa_priority(router, store, c.flit.packet), dist);
                if key < best.1 {
                    best = (k, key);
                }
            }
            best.0
        };
        let winner = bucket[win];
        let next = flat(winner.port, winner.vc) + 1;
        out.rr_sa[oi] = if next == inputs { 0 } else { next };
        // Everyone else idles: these are DISCO's compression candidates.
        for (k, c) in bucket.iter().enumerate() {
            if k != win {
                out.sa_losers.push((c.port, c.vc));
                disco_trace::emit!(
                    out.events,
                    disco_trace::Event::VcStall {
                        packet: c.flit.packet.0,
                        node: router.node.0 as u16,
                        port: c.port as u8,
                        vc: c.vc as u8,
                        reason: disco_trace::stall::LOST_ARBITRATION,
                    }
                );
            }
        }
        let flit = winner.flit;
        // Traverse events only for head and tail flits: the head marks
        // the hop's start, the tail its departure time (what the
        // provenance pass consumes); body flits would only add volume.
        #[cfg(feature = "trace")]
        if flit.kind.is_head() || flit.kind.is_tail() {
            disco_trace::emit!(
                out.events,
                disco_trace::Event::Traverse {
                    packet: flit.packet.0,
                    node: router.node.0 as u16,
                    out_dir: oi as u8,
                    head: flit.kind.is_head(),
                    tail: flit.kind.is_tail(),
                }
            );
        }
        out.departures.push(Departure {
            flit,
            in_port: winner.port,
            in_vc: winner.vc,
            out: PortId(oi),
            out_vc: winner.out_vc,
        });
    }

    for &(port, v) in va_losers.iter() {
        out.sa_losers.push((port, v));
        disco_trace::emit!(
            out.events,
            disco_trace::Event::VcStall {
                packet: router.inputs[flat(port, v)]
                    .buffer
                    .front()
                    .map_or(0, |f| f.packet.0),
                node: router.node.0 as u16,
                port: port as u8,
                vc: v as u8,
                reason: disco_trace::stall::NO_FREE_VC,
            }
        );
    }

    // Stat delta: everything the legacy loop counted inline, derived
    // purely from the decisions above.
    out.stats.sa_losses = out.sa_losers.len() as u64;
    if !out.departures.is_empty() {
        out.stats.arbitrations = 1;
    }
    for dep in &out.departures {
        out.stats.buffer_reads += 1;
        out.stats.crossbar_flits += 1;
        if router.is_local_port(dep.out) {
            if dep.flit.kind.is_tail() {
                let pkt = store.get(dep.flit.packet);
                out.stats.packets_delivered += 1;
                let latency = now - pkt.injected_at;
                out.stats.total_packet_latency += latency;
                out.stats.total_hops += topo.hops(pkt.src, pkt.dst) as u64;
                let ci = crate::stats::class_index(pkt.class);
                out.stats.delivered_by_class[ci] += 1;
                out.stats.latency_by_class[ci] += latency;
            }
        } else if topo.out_link(router.node, dep.out).is_some() {
            // Express traversals are priced separately (longer wire);
            // the buffer write at the far end costs the same either way.
            if topo.express_span() > 0
                && matches!(
                    dep.out,
                    crate::topology::EXPRESS_EAST | crate::topology::EXPRESS_WEST
                )
            {
                out.stats.express_link_flits += 1;
            } else {
                out.stats.link_flits += 1;
            }
            out.stats.buffer_writes += 1;
        } else {
            // The commit pass drops this flit (no link to corrupt);
            // the counter keeps the conservation bug visible in release
            // builds where the debug assertion is compiled out.
            out.stats.routing_violations += 1;
        }
    }
}
