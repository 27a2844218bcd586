#![warn(missing_docs)]

//! Deterministic fault injection for the DISCO simulator.
//!
//! A [`FaultPlan`] is a *schedule*, not a stream: whether a fault fires
//! at `(cycle, site)` is a pure function of the plan's seed, the fault
//! kind, the cycle, and a stable site key. Nothing draws from a shared
//! RNG, so the schedule is byte-identical no matter in which order
//! sites consult it within a cycle.
//!
//! The crate is dependency-free and always compiled; the simulator wires
//! it into the cycle kernel only under the `faults` cargo feature of the
//! consuming crates (`disco-noc` / `disco-core` / `disco-cache`).
//!
//! Three pieces live here:
//!
//! - [`FaultPlan`] — rates, dead links, retry policy, and the keyed
//!   hash that decides where faults strike;
//! - [`checksum`] — the FNV-1a end-to-end payload checksum appended at
//!   NI injection and verified at ejection;
//! - [`FaultStats`] — the accounting block surfaced in `report.rs`,
//!   with the reconciliation invariant `injected = detected =
//!   recovered + unrecoverable` checked by [`FaultStats::reconciles`].

/// Everything that can be injected. Stall kinds degrade timing only;
/// integrity kinds corrupt or destroy data and must be detected and
/// recovered (or counted unrecoverable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A link eats a whole packet: the drop decision fires on the head
    /// flit at a router output and consumes every flit of the packet.
    LinkDrop,
    /// A flaky link: the output port refuses to drive flits for a
    /// window of cycles (transient, recovers by itself).
    LinkFlaky,
    /// A router output port stalls for a window of cycles (arbiter or
    /// driver fault; transient).
    PortStall,
    /// A single bit of a raw data payload flips in flight (soft error
    /// on a data flit).
    PayloadBitFlip,
    /// A compressor engine emits a corrupted encoding; caught by
    /// decompress-and-verify at the compression site, which falls back
    /// to uncompressed delivery.
    CodecCorruption,
    /// A DRAM bank stalls for a burst of cycles (refresh storm or
    /// thermal throttle; timing only).
    DramStall,
}

impl FaultKind {
    /// Every kind, in stable order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::LinkDrop,
        FaultKind::LinkFlaky,
        FaultKind::PortStall,
        FaultKind::PayloadBitFlip,
        FaultKind::CodecCorruption,
        FaultKind::DramStall,
    ];

    /// Stable numeric code: part of the hash key and of trace records.
    pub fn code(self) -> u8 {
        match self {
            FaultKind::LinkDrop => 0,
            FaultKind::LinkFlaky => 1,
            FaultKind::PortStall => 2,
            FaultKind::PayloadBitFlip => 3,
            FaultKind::CodecCorruption => 4,
            FaultKind::DramStall => 5,
        }
    }

    /// Short stable name (for reports and sweep output).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::LinkDrop => "link_drop",
            FaultKind::LinkFlaky => "link_flaky",
            FaultKind::PortStall => "port_stall",
            FaultKind::PayloadBitFlip => "payload_bit_flip",
            FaultKind::CodecCorruption => "codec_corruption",
            FaultKind::DramStall => "dram_stall",
        }
    }
}

/// Stable site keys. Each injection point hashes a namespaced key so two
/// different kinds of site never collide (a router port and a DRAM bank
/// with the same index must not share fault schedules).
pub mod site {
    const LINK_NS: u64 = 1 << 56;
    const PORT_NS: u64 = 2 << 56;
    const CODEC_NS: u64 = 3 << 56;
    const DRAM_NS: u64 = 4 << 56;

    /// The link leaving `node` through output direction `dir`.
    pub fn link(node: usize, dir: usize) -> u64 {
        LINK_NS | ((node as u64) << 8) | dir as u64
    }

    /// The output port `dir` of router `node`.
    pub fn port(node: usize, dir: usize) -> u64 {
        PORT_NS | ((node as u64) << 8) | dir as u64
    }

    /// The compressor engine at router `node`.
    pub fn codec(node: usize) -> u64 {
        CODEC_NS | node as u64
    }

    /// DRAM bank `bank`.
    pub fn dram_bank(bank: usize) -> u64 {
        DRAM_NS | bank as u64
    }
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic fault schedule plus the detection/recovery policy
/// knobs the NI retransmission layer obeys.
///
/// ```
/// use disco_faults::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::uniform(7, 1e-3);
/// // The schedule is a pure function of (seed, kind, cycle, site):
/// let a = plan.fires(FaultKind::LinkDrop, 123, disco_faults::site::link(4, 1));
/// let b = plan.fires(FaultKind::LinkDrop, 123, disco_faults::site::link(4, 1));
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the keyed hash. Independent of the workload seed.
    pub seed: u64,
    /// Per packet-link-traversal probability of a whole-packet drop.
    pub link_drop_rate: f64,
    /// Per `(link, window)` probability of a flaky-link outage window.
    pub link_flaky_rate: f64,
    /// Per `(port, window)` probability of a port-stall window.
    pub port_stall_rate: f64,
    /// Per packet-link-traversal probability of a payload bit flip
    /// (applies to raw data payloads; fires on the tail flit).
    pub payload_bit_flip_rate: f64,
    /// Per compression-commit probability of a corrupted encoding.
    pub codec_corruption_rate: f64,
    /// Per `(bank, window)` probability of a DRAM stall burst.
    pub dram_stall_rate: f64,
    /// Permanently dead links as `(node, direction index)`: every packet
    /// routed over one is black-holed; fault-aware escape routing steers
    /// around the escapable ones.
    pub dead_links: Vec<(usize, usize)>,
    /// Width, in cycles, of the windows the transient stall kinds
    /// ([`FaultKind::LinkFlaky`] / [`FaultKind::PortStall`] /
    /// [`FaultKind::DramStall`]) are drawn over.
    pub stall_window: u64,
    /// Extra service delay a DRAM stall burst adds, in cycles.
    pub dram_stall_penalty: u64,
    /// Retransmission attempts per transfer before the NI gives up and
    /// the loss counts as unrecoverable.
    pub max_retries: u32,
    /// Base loss-detection timeout before the first retransmission, in
    /// cycles; doubles on every further attempt (exponential backoff).
    pub retry_timeout: u64,
}

impl FaultPlan {
    /// A quiet plan (all rates zero, no dead links) with the default
    /// recovery policy.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            link_drop_rate: 0.0,
            link_flaky_rate: 0.0,
            port_stall_rate: 0.0,
            payload_bit_flip_rate: 0.0,
            codec_corruption_rate: 0.0,
            dram_stall_rate: 0.0,
            dead_links: Vec::new(),
            stall_window: 16,
            dram_stall_penalty: 64,
            max_retries: 8,
            retry_timeout: 64,
        }
    }

    /// A plan with every rate set to `rate` (the sweep configuration).
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            link_drop_rate: rate,
            link_flaky_rate: rate,
            port_stall_rate: rate,
            payload_bit_flip_rate: rate,
            codec_corruption_rate: rate,
            dram_stall_rate: rate,
            ..FaultPlan::new(seed)
        }
    }

    /// The configured rate for `kind`.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::LinkDrop => self.link_drop_rate,
            FaultKind::LinkFlaky => self.link_flaky_rate,
            FaultKind::PortStall => self.port_stall_rate,
            FaultKind::PayloadBitFlip => self.payload_bit_flip_rate,
            FaultKind::CodecCorruption => self.codec_corruption_rate,
            FaultKind::DramStall => self.dram_stall_rate,
        }
    }

    /// Whether this plan can inject anything at all. An inactive plan
    /// must behave exactly like no plan: the simulator skips the whole
    /// fault machinery for it, which is what makes a rate-0 run
    /// byte-identical to a `faults`-off build.
    pub fn is_active(&self) -> bool {
        FaultKind::ALL.iter().any(|&k| self.rate(k) > 0.0) || !self.dead_links.is_empty()
    }

    /// The raw 64-bit draw for `(kind, cycle, site)` — a pure keyed
    /// hash. Exposed so injection sites can derive secondary decisions
    /// (which bit to flip, which byte to corrupt) from the same draw.
    pub fn draw(&self, kind: FaultKind, cycle: u64, site: u64) -> u64 {
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        h = mix64(h ^ u64::from(kind.code()));
        h = mix64(h ^ cycle);
        mix64(h ^ site)
    }

    /// Whether `kind` fires at `(cycle, site)` under its configured
    /// rate. Deterministic; independent draws per kind and site.
    pub fn fires(&self, kind: FaultKind, cycle: u64, site: u64) -> bool {
        let rate = self.rate(kind);
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let threshold = (rate * u64::MAX as f64) as u64;
        self.draw(kind, cycle, site) < threshold
    }

    /// Whether a *window* containing `cycle` fires at `site`: the draw
    /// is keyed by `cycle / stall_window`, so a hit covers the whole
    /// window — the burst shape of the transient stall kinds.
    pub fn window_fires(&self, kind: FaultKind, cycle: u64, site: u64) -> bool {
        self.fires(kind, cycle / self.stall_window.max(1), site)
    }

    /// Whether the link leaving `node` through direction `dir` is
    /// configured permanently dead.
    pub fn link_is_dead(&self, node: usize, dir: usize) -> bool {
        self.dead_links.iter().any(|&(n, d)| n == node && d == dir)
    }
}

/// FNV-1a over a byte slice: the end-to-end payload checksum carried (as
/// side-band metadata) from NI injection to ejection. 64 bits keep the
/// silent-corruption escape probability negligible at simulated scales.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Fault accounting, surfaced in the stats report.
///
/// The ledger invariant: every *integrity* fault (drop, bit flip, codec
/// corruption) increments `injected` exactly once, is eventually
/// `detected` exactly once, and ends up either `recovered` or
/// `unrecoverable`. Stall kinds degrade timing only and are accounted
/// in the `*_stall_cycles` counters, outside the ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Integrity faults injected (drops + bit flips + codec corruptions).
    pub injected: u64,
    /// Integrity faults detected (checksum mismatch, loss timeout, or
    /// decompress-and-verify mismatch).
    pub detected: u64,
    /// Integrity faults whose transfer was ultimately delivered intact
    /// (by retransmission or compression fallback).
    pub recovered: u64,
    /// Integrity faults whose transfer was abandoned after the retry
    /// bound.
    pub unrecoverable: u64,
    /// NI retransmission attempts issued.
    pub retries: u64,
    /// Compressions abandoned to uncompressed delivery after a
    /// decompress-and-verify mismatch.
    pub fallback_deliveries: u64,
    /// Corrupted payloads that passed verification (must stay 0; any
    /// other value fails the run's health check).
    pub undetected: u64,
    /// Whole-packet link drops injected.
    pub link_drops: u64,
    /// Payload bit flips injected.
    pub payload_bit_flips: u64,
    /// Corrupted compressor outputs injected.
    pub codec_corruptions: u64,
    /// Cycles router output ports spent fault-stalled with traffic
    /// waiting (port stalls + flaky links).
    pub port_stall_cycles: u64,
    /// Extra DRAM service cycles added by stall bursts.
    pub dram_stall_cycles: u64,
}

impl FaultStats {
    /// Adds `other` into `self`, field by field.
    pub fn accumulate(&mut self, other: &FaultStats) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.recovered += other.recovered;
        self.unrecoverable += other.unrecoverable;
        self.retries += other.retries;
        self.fallback_deliveries += other.fallback_deliveries;
        self.undetected += other.undetected;
        self.link_drops += other.link_drops;
        self.payload_bit_flips += other.payload_bit_flips;
        self.codec_corruptions += other.codec_corruptions;
        self.port_stall_cycles += other.port_stall_cycles;
        self.dram_stall_cycles += other.dram_stall_cycles;
    }

    /// The ledger invariant at drain time: every injected fault was
    /// detected, and every detected fault was resolved one way or the
    /// other.
    pub fn reconciles(&self) -> bool {
        self.injected == self.detected && self.injected == self.recovered + self.unrecoverable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic() {
        let a = FaultPlan::uniform(42, 0.25);
        let b = FaultPlan::uniform(42, 0.25);
        for cycle in 0..200 {
            for node in 0..16 {
                let s = site::link(node, 2);
                assert_eq!(
                    a.fires(FaultKind::LinkDrop, cycle, s),
                    b.fires(FaultKind::LinkDrop, cycle, s)
                );
                assert_eq!(
                    a.draw(FaultKind::PayloadBitFlip, cycle, s),
                    b.draw(FaultKind::PayloadBitFlip, cycle, s)
                );
            }
        }
    }

    #[test]
    fn rate_zero_never_fires_rate_one_always() {
        let quiet = FaultPlan::uniform(1, 0.0);
        let loud = FaultPlan::uniform(1, 1.0);
        for cycle in 0..100 {
            let s = site::port(3, 1);
            assert!(!quiet.fires(FaultKind::PortStall, cycle, s));
            assert!(loud.fires(FaultKind::PortStall, cycle, s));
        }
    }

    #[test]
    fn kinds_and_sites_draw_independently() {
        let plan = FaultPlan::uniform(9, 0.5);
        let mut distinct = std::collections::HashSet::new();
        for kind in FaultKind::ALL {
            for node in 0..8 {
                distinct.insert(plan.draw(kind, 77, site::link(node, 0)));
            }
        }
        // 6 kinds × 8 sites must not collapse onto shared draws.
        assert_eq!(distinct.len(), 48);
    }

    #[test]
    fn seed_changes_the_schedule() {
        let a = FaultPlan::uniform(1, 0.5);
        let b = FaultPlan::uniform(2, 0.5);
        let differs = (0..64)
            .any(|c| a.fires(FaultKind::LinkDrop, c, 0) != b.fires(FaultKind::LinkDrop, c, 0));
        assert!(differs, "different seeds must give different schedules");
    }

    #[test]
    fn window_fires_covers_whole_windows() {
        let mut plan = FaultPlan::uniform(5, 0.3);
        plan.stall_window = 32;
        let s = site::dram_bank(2);
        for window in 0..20u64 {
            let first = plan.window_fires(FaultKind::DramStall, window * 32, s);
            for offset in 1..32 {
                assert_eq!(
                    first,
                    plan.window_fires(FaultKind::DramStall, window * 32 + offset, s),
                    "one draw per window"
                );
            }
        }
    }

    #[test]
    fn empirical_rate_tracks_configured_rate() {
        let plan = FaultPlan::uniform(11, 0.1);
        let hits = (0..100_000u64)
            .filter(|&c| plan.fires(FaultKind::LinkDrop, c, site::link(0, 1)))
            .count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.1).abs() < 0.01, "observed {rate}");
    }

    #[test]
    fn inactive_plans_are_recognized() {
        assert!(!FaultPlan::new(3).is_active());
        assert!(FaultPlan::uniform(3, 1e-6).is_active());
        let mut dead = FaultPlan::new(3);
        dead.dead_links.push((5, 1));
        assert!(dead.is_active());
        assert!(dead.link_is_dead(5, 1));
        assert!(!dead.link_is_dead(5, 2));
    }

    #[test]
    fn checksum_separates_payloads() {
        let a = checksum(b"hello");
        let b = checksum(b"hellp");
        assert_ne!(a, b);
        assert_eq!(a, checksum(b"hello"));
        assert_ne!(checksum(&[]), 0);
    }

    #[test]
    fn accumulate_sums_every_field() {
        let one = FaultStats {
            injected: 1,
            detected: 2,
            recovered: 3,
            unrecoverable: 4,
            retries: 5,
            fallback_deliveries: 6,
            undetected: 7,
            link_drops: 8,
            payload_bit_flips: 9,
            codec_corruptions: 10,
            port_stall_cycles: 11,
            dram_stall_cycles: 12,
        };
        let mut total = one;
        total.accumulate(&one);
        assert_eq!(
            total,
            FaultStats {
                injected: 2,
                detected: 4,
                recovered: 6,
                unrecoverable: 8,
                retries: 10,
                fallback_deliveries: 12,
                undetected: 14,
                link_drops: 16,
                payload_bit_flips: 18,
                codec_corruptions: 20,
                port_stall_cycles: 22,
                dram_stall_cycles: 24,
            }
        );
    }

    #[test]
    fn ledger_reconciliation() {
        let mut s = FaultStats::default();
        assert!(s.reconciles());
        s.injected = 5;
        s.detected = 5;
        s.recovered = 4;
        s.unrecoverable = 1;
        assert!(s.reconciles());
        s.recovered = 5;
        assert!(!s.reconciles(), "over-recovery must not reconcile");
        s.recovered = 4;
        s.detected = 4;
        assert!(!s.reconciles(), "missed detection must not reconcile");
    }
}

// ---------------------------------------------------------------------------
// Checkpointing (see crates/snapshot/manifest.txt)
// ---------------------------------------------------------------------------

disco_snapshot::snap_fields!(FaultPlan {
    seed,
    link_drop_rate,
    link_flaky_rate,
    port_stall_rate,
    payload_bit_flip_rate,
    codec_corruption_rate,
    dram_stall_rate,
    dead_links,
    stall_window,
    dram_stall_penalty,
    max_retries,
    retry_timeout,
});

disco_snapshot::snap_fields!(FaultStats {
    injected,
    detected,
    recovered,
    unrecoverable,
    retries,
    fallback_deliveries,
    undetected,
    link_drops,
    payload_bit_flips,
    codec_corruptions,
    port_stall_cycles,
    dram_stall_cycles,
});
