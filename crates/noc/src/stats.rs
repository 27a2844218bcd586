//! Network-level event counters for performance and energy accounting.

/// Counters accumulated by the network; the energy model multiplies these
/// by per-event energies (Orion-style).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Packets injected.
    pub packets_injected: u64,
    /// Packets delivered.
    pub packets_delivered: u64,
    /// Flits traversing single-hop inter-router links.
    pub link_flits: u64,
    /// Flits traversing long-range express links (express-mesh only;
    /// priced separately — a span-`R` wire costs more per traversal).
    pub express_link_flits: u64,
    /// Flit writes into input buffers (injection + link arrival).
    pub buffer_writes: u64,
    /// Flit reads out of input buffers (switch traversal).
    pub buffer_reads: u64,
    /// Crossbar traversals.
    pub crossbar_flits: u64,
    /// Switch-allocation arbitration rounds that had at least one
    /// requester.
    pub arbitrations: u64,
    /// Requests that lost switch allocation (idling packets — the resource
    /// DISCO harvests).
    pub sa_losses: u64,
    /// Sum over delivered packets of (delivery − injection) cycles.
    pub total_packet_latency: u64,
    /// Sum of per-delivered-packet hop counts.
    pub total_hops: u64,
    /// Delivered packets by class (Request, Response, Coherence).
    pub delivered_by_class: [u64; 3],
    /// Summed end-to-end latency by class (same indexing).
    pub latency_by_class: [u64; 3],
    /// Flits a router tried to forward off the mesh edge. The commit pass
    /// drops such a flit rather than corrupt a neighbour that does not
    /// exist, so a non-zero count means flit conservation is broken — a
    /// routing-function bug, never a runtime condition.
    pub routing_violations: u64,
}

impl NetworkStats {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another counter block into this one, field by field. The
    /// commit pass merges the per-router deltas of the compute phase in
    /// node order.
    pub fn accumulate(&mut self, delta: &NetworkStats) {
        self.cycles += delta.cycles;
        self.packets_injected += delta.packets_injected;
        self.packets_delivered += delta.packets_delivered;
        self.link_flits += delta.link_flits;
        self.express_link_flits += delta.express_link_flits;
        self.buffer_writes += delta.buffer_writes;
        self.buffer_reads += delta.buffer_reads;
        self.crossbar_flits += delta.crossbar_flits;
        self.arbitrations += delta.arbitrations;
        self.sa_losses += delta.sa_losses;
        self.total_packet_latency += delta.total_packet_latency;
        self.total_hops += delta.total_hops;
        for i in 0..3 {
            self.delivered_by_class[i] += delta.delivered_by_class[i];
            self.latency_by_class[i] += delta.latency_by_class[i];
        }
        self.routing_violations += delta.routing_violations;
    }

    /// Mean end-to-end packet latency in cycles.
    pub fn avg_packet_latency(&self) -> f64 {
        if self.packets_delivered == 0 {
            return 0.0;
        }
        self.total_packet_latency as f64 / self.packets_delivered as f64
    }

    /// Mean hops per delivered packet.
    pub fn avg_hops(&self) -> f64 {
        if self.packets_delivered == 0 {
            return 0.0;
        }
        self.total_hops as f64 / self.packets_delivered as f64
    }

    /// Mean end-to-end latency of one packet class.
    pub fn avg_latency_of(&self, class: crate::packet::PacketClass) -> f64 {
        let i = class_index(class);
        if self.delivered_by_class[i] == 0 {
            return 0.0;
        }
        self.latency_by_class[i] as f64 / self.delivered_by_class[i] as f64
    }
}

/// Stable index of a packet class in the per-class arrays.
pub fn class_index(class: crate::packet::PacketClass) -> usize {
    match class {
        crate::packet::PacketClass::Request => 0,
        crate::packet::PacketClass::Response => 1,
        crate::packet::PacketClass::Coherence => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_handle_empty() {
        let s = NetworkStats::new();
        assert_eq!(s.avg_packet_latency(), 0.0);
        assert_eq!(s.avg_hops(), 0.0);
    }

    #[test]
    fn averages_divide() {
        let s = NetworkStats {
            packets_delivered: 4,
            total_packet_latency: 100,
            total_hops: 12,
            ..NetworkStats::new()
        };
        assert_eq!(s.avg_packet_latency(), 25.0);
        assert_eq!(s.avg_hops(), 3.0);
    }

    #[test]
    fn per_class_latency_divides() {
        use crate::packet::PacketClass;
        let mut s = NetworkStats::new();
        s.delivered_by_class[class_index(PacketClass::Response)] = 2;
        s.latency_by_class[class_index(PacketClass::Response)] = 60;
        assert_eq!(s.avg_latency_of(PacketClass::Response), 30.0);
        assert_eq!(s.avg_latency_of(PacketClass::Request), 0.0);
    }

    #[test]
    fn accumulate_sums_every_field() {
        let mut a = NetworkStats {
            cycles: 1,
            packets_injected: 2,
            packets_delivered: 3,
            link_flits: 4,
            express_link_flits: 13,
            buffer_writes: 5,
            buffer_reads: 6,
            crossbar_flits: 7,
            arbitrations: 8,
            sa_losses: 9,
            total_packet_latency: 10,
            total_hops: 11,
            delivered_by_class: [1, 2, 3],
            latency_by_class: [4, 5, 6],
            routing_violations: 12,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.cycles, 2);
        assert_eq!(a.packets_injected, 4);
        assert_eq!(a.packets_delivered, 6);
        assert_eq!(a.link_flits, 8);
        assert_eq!(a.express_link_flits, 26);
        assert_eq!(a.buffer_writes, 10);
        assert_eq!(a.buffer_reads, 12);
        assert_eq!(a.crossbar_flits, 14);
        assert_eq!(a.arbitrations, 16);
        assert_eq!(a.sa_losses, 18);
        assert_eq!(a.total_packet_latency, 20);
        assert_eq!(a.total_hops, 22);
        assert_eq!(a.delivered_by_class, [2, 4, 6]);
        assert_eq!(a.latency_by_class, [8, 10, 12]);
        assert_eq!(a.routing_violations, 24);
    }

    #[test]
    fn latency_accumulators_are_64_bit() {
        // Regression guard for the accumulator widths: long runs with
        // fault-recovery retransmissions push per-class latency sums past
        // u32 range, so every cycle sum must be u64.
        let big = u64::from(u32::MAX) + 3;
        let mut a = NetworkStats {
            total_packet_latency: big,
            latency_by_class: [big, big, big],
            packets_delivered: 1,
            delivered_by_class: [1, 1, 1],
            ..NetworkStats::new()
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.total_packet_latency, 2 * big);
        assert_eq!(a.latency_by_class, [2 * big; 3]);
        assert_eq!(a.avg_packet_latency(), big as f64);
    }

    #[test]
    fn class_indices_are_distinct() {
        use crate::packet::PacketClass;
        let idx = [
            class_index(PacketClass::Request),
            class_index(PacketClass::Response),
            class_index(PacketClass::Coherence),
        ];
        let mut sorted = idx;
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2]);
    }
}

disco_snapshot::snap_fields!(NetworkStats {
    cycles,
    packets_injected,
    packets_delivered,
    link_flits,
    express_link_flits,
    buffer_writes,
    buffer_reads,
    crossbar_flits,
    arbitrations,
    sa_losses,
    total_packet_latency,
    total_hops,
    delivered_by_class,
    latency_by_class,
    routing_violations,
});
