//! The benchmark's workloads. Each repetition is a closed batch at a
//! fixed input size made from the seed: simulated state starts empty,
//! set-up and the measured work are timed apart, and the outputs are
//! checked before the repetition counts.

use crate::spans::Spans;
use disco_compress::{
    reference_corpus, CacheLine, Codec, CompressionStats, Compressor, SchemeKind,
};
use disco_core::{CompressionPlacement, SimBuilder, SimReport};
use disco_noc::traffic::{TrafficDriver, TrafficPattern};
use disco_noc::{Mesh, Network, NetworkStats, NocConfig, NodeId};
use disco_workloads::{Benchmark, TraceGenerator};
use std::time::Instant;

/// Tiles of the full-system runs: the paper's 4x4 CMP.
const TILES: usize = 16;
/// Simulated cycles per `System::step_until` window.
const STEP_WINDOW: u64 = 1_000;

/// Side of the NoC-only mesh.
const NOC_K: usize = 16;
/// Accepted throughput at the 16x16 uniform-random saturation knee, in
/// flits/node/cycle, measured once with `disco-perfbench --calibrate`
/// (README.md, "Saturation knee").
const NOC_SATURATION: f64 = 0.16;
/// Offered load: half of [`NOC_SATURATION`].
const NOC_OFFERED: f64 = NOC_SATURATION / 2.0;
/// Untimed cycles before the measured window, so the in-flight
/// population is at steady state when timing starts.
const NOC_WARMUP: u64 = 500;
/// Cycles in the measured window.
const NOC_CYCLES: u64 = 6_000;
/// Drain budget after the window; a network that is still busy after
/// this is reported as not draining.
const NOC_DRAIN_LIMIT: u64 = 100_000;
/// Flits per uniform-random data packet.
const DATA_PACKET_FLITS: f64 = 8.0;

/// Lines per `LineFamily` in the codec corpus (six families).
const CORPUS_PER_FAMILY: u64 = 4_000;
/// Aggregate compression ratio of every scheme over
/// `reference_corpus(CORPUS_PER_FAMILY)`, recorded when the workload
/// was defined. Order does not change a ratio, so it holds for every
/// seed's shuffle.
const RECORDED_RATIOS: [(SchemeKind, &str); 6] = [
    (SchemeKind::Delta, "1.855072"),
    (SchemeKind::Fpc, "1.484940"),
    (SchemeKind::Sfpc, "1.372075"),
    (SchemeKind::Bdi, "2.445860"),
    (SchemeKind::Sc2, "1.374015"),
    (SchemeKind::CPack, "2.166239"),
];

/// A named number with a range it must fall in; how a workload states
/// what it is for (a congested network, an idle one, half saturation).
pub struct Claim {
    pub name: &'static str,
    pub value: f64,
    pub lo: f64,
    pub hi: f64,
}

impl Claim {
    pub fn holds(&self) -> bool {
        self.value >= self.lo && self.value <= self.hi
    }
}

/// What one repetition measured and found.
#[derive(Default)]
pub struct Rep {
    /// Seconds from the seed to a state ready to step.
    pub setup_s: f64,
    /// Seconds of measured work.
    pub run_s: f64,
    /// Work units done in `run_s` (L1 accesses, flit-hops or lines).
    pub work: u64,
    /// Hash of the simulated outputs; equal for equal seeds.
    pub fingerprint: u64,
    /// Per-layer counts and ratios, under their metric names.
    pub counters: Vec<(&'static str, f64)>,
    /// Simulated outputs, recorded but not gated.
    pub sim: Vec<(&'static str, f64)>,
    /// Input sizes the repetition ran at.
    pub inputs: Vec<(&'static str, f64)>,
    pub claims: Vec<Claim>,
    /// Failed output checks; empty when the repetition is correct.
    pub errors: Vec<String>,
}

impl Rep {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ParsecDedup,
    ParsecSwaptions,
    NocUniform,
    CodecCorpus,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ParsecDedup,
        Workload::ParsecSwaptions,
        Workload::NocUniform,
        Workload::CodecCorpus,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ParsecDedup => "parsec-dedup-disco",
            Workload::ParsecSwaptions => "parsec-swaptions-disco",
            Workload::NocUniform => "noc-uniform-16x16",
            Workload::CodecCorpus => "codec-corpus",
        }
    }

    pub fn rep(self, seed: u64, spans: &mut Spans) -> Rep {
        match self {
            Workload::ParsecDedup => parsec(&DEDUP, seed, spans),
            Workload::ParsecSwaptions => parsec(&SWAPTIONS, seed, spans),
            Workload::NocUniform => noc_uniform(seed, spans),
            Workload::CodecCorpus => codec_corpus(seed, spans),
        }
    }

    /// The untimed cross-check a workload makes once per seed, or `None`.
    pub fn reference(self, seed: u64) -> Option<Result<u64, String>> {
        match self {
            Workload::ParsecDedup => Some(parsec_reference(&DEDUP, seed)),
            Workload::ParsecSwaptions => Some(parsec_reference(&SWAPTIONS, seed)),
            Workload::NocUniform | Workload::CodecCorpus => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Full system
// ---------------------------------------------------------------------------

struct Parsec {
    benchmark: Benchmark,
    trace_len: usize,
    /// (flit-hops per router-cycle, L1 miss ratio) ranges.
    hops_per_router_cycle: (f64, f64),
    l1_miss_ratio: (f64, f64),
}

/// Congested: every modelled layer busy.
const DEDUP: Parsec = Parsec {
    benchmark: Benchmark::Dedup,
    trace_len: 4_000,
    hops_per_router_cycle: (0.4, 1.0),
    l1_miss_ratio: (0.7, 1.0),
};

/// Near idle: per-cycle fixed costs dominate.
const SWAPTIONS: Parsec = Parsec {
    benchmark: Benchmark::Swaptions,
    trace_len: 12_000,
    hops_per_router_cycle: (0.0, 0.05),
    l1_miss_ratio: (0.0, 0.1),
};

fn builder(p: &Parsec, seed: u64) -> SimBuilder {
    SimBuilder::new()
        .mesh(4, 4)
        .placement(CompressionPlacement::Disco)
        .scheme(SchemeKind::Delta)
        .benchmark(p.benchmark)
        .trace_len(p.trace_len)
        .seed(seed)
}

fn stats_text(report: &SimReport) -> Vec<u8> {
    let mut text = Vec::new();
    report
        .write_stats(&mut text)
        .expect("writing stats to a Vec cannot fail");
    text
}

fn parsec(p: &Parsec, seed: u64, spans: &mut Spans) -> Rep {
    let mut rep = Rep::default();
    let root = spans.begin("rep", None);
    let t0 = Instant::now();
    let s = spans.begin("workloads.generate", root);
    let traces = TraceGenerator::new(p.benchmark.profile().scaled_to(TILES), TILES, seed)
        .generate(p.trace_len);
    spans.end(s);
    let s = spans.begin("system.build", root);
    let mut sys = builder(p, seed).traces(traces).build();
    spans.end(s);
    rep.setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    loop {
        let s = spans.begin("system.step_window", root);
        let stepped = sys.step_until(sys.now() + STEP_WINDOW);
        spans.end(s);
        match stepped {
            Ok(true) => break,
            Ok(false) => {}
            Err(e) => {
                spans.end(root);
                rep.errors.push(format!("simulation failed: {e}"));
                return rep;
            }
        }
    }
    let s = spans.begin("system.report", root);
    let report = sys.run_to_completion();
    spans.end(s);
    rep.run_s = t1.elapsed().as_secs_f64();
    spans.end(root);
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            rep.errors.push(format!("simulation failed: {e}"));
            return rep;
        }
    };

    let net = &report.network;
    let l1_accesses = report.l1.hits + report.l1.misses;
    rep.work = l1_accesses;
    rep.fingerprint = fnv1a(&stats_text(&report));
    check_network(&mut rep, net);
    let router_cycles = (TILES as u64 * report.cycles) as f64;
    let hops_per_router_cycle = net.link_flits as f64 / router_cycles;
    let l1_miss_ratio = ratio(report.l1.misses, l1_accesses);
    let disco = report.disco.unwrap_or_default();
    rep.counters = vec![
        ("noc.flit_hops", net.link_flits as f64),
        ("noc.flit_hops_per_router_cycle", hops_per_router_cycle),
        ("noc.sa_loss_ratio", ratio(net.sa_losses, net.arbitrations)),
        ("noc.avg_packet_latency_cyc", net.avg_packet_latency()),
        ("engine.started", disco.started as f64),
        (
            "engine.useful_ratio",
            ratio(disco.compressions + disco.decompressions, disco.started),
        ),
        ("engine.abort_ratio", ratio(disco.aborts, disco.started)),
        ("engine.low_confidence", disco.low_confidence as f64),
        ("engine.flits_saved", disco.flits_saved as f64),
        ("cache.l1_miss_ratio", l1_miss_ratio),
        ("cache.llc_miss_ratio", report.banks.miss_rate()),
        (
            "cache.dir_invalidations",
            report.directory.invalidations as f64,
        ),
        ("cache.dram_reads", report.dram.reads as f64),
    ];
    rep.sim = vec![
        ("sim_cycles", report.cycles as f64),
        ("avg_onchip_latency_cyc", report.avg_onchip_latency()),
        ("energy_pj", report.total_energy_pj()),
    ];
    rep.inputs = vec![
        ("tiles", TILES as f64),
        ("trace_len", p.trace_len as f64),
        ("step_window_cycles", STEP_WINDOW as f64),
    ];
    rep.claims = vec![
        Claim {
            name: "noc.flit_hops_per_router_cycle",
            value: hops_per_router_cycle,
            lo: p.hops_per_router_cycle.0,
            hi: p.hops_per_router_cycle.1,
        },
        Claim {
            name: "cache.l1_miss_ratio",
            value: l1_miss_ratio,
            lo: p.l1_miss_ratio.0,
            hi: p.l1_miss_ratio.1,
        },
    ];
    rep
}

/// Runs the same configuration through `SimBuilder`'s own trace path
/// (`.benchmark(b).trace_len(n)`) and returns its stats fingerprint,
/// which must equal the fingerprint of the benchmark's generated-trace
/// path.
fn parsec_reference(p: &Parsec, seed: u64) -> Result<u64, String> {
    builder(p, seed)
        .run()
        .map(|report| fnv1a(&stats_text(&report)))
        .map_err(|e| format!("reference simulation failed: {e}"))
}

// ---------------------------------------------------------------------------
// NoC alone
// ---------------------------------------------------------------------------

fn noc_network(seed: u64, rate: f64) -> (Network, TrafficDriver) {
    let net = Network::new(Mesh::new(NOC_K, NOC_K), NocConfig::default());
    // `TrafficDriver` uses `seed | 1`; shift so neighbouring seeds differ.
    let driver = TrafficDriver::new(TrafficPattern::UniformRandom, rate, true, seed << 1);
    (net, driver)
}

fn eject(net: &mut Network) -> u64 {
    (0..net.topology().tiles())
        .map(|n| net.take_delivered(NodeId(n)).len() as u64)
        .sum()
}

/// Ticks an injection-free network until it is idle; false if it does
/// not drain within [`NOC_DRAIN_LIMIT`] cycles.
fn drain(net: &mut Network) -> bool {
    for _ in 0..NOC_DRAIN_LIMIT {
        if net.is_idle() {
            return true;
        }
        net.tick();
        eject(net);
    }
    net.is_idle()
}

fn noc_uniform(seed: u64, spans: &mut Spans) -> Rep {
    let mut rep = Rep::default();
    let root = spans.begin("rep", None);
    let t0 = Instant::now();
    let (mut net, mut driver) = noc_network(seed, NOC_OFFERED);
    rep.setup_s = t0.elapsed().as_secs_f64();

    for _ in 0..NOC_WARMUP {
        driver.inject(&mut net);
        net.tick();
        eject(&mut net);
    }
    let before = *net.stats();
    let t1 = Instant::now();
    let window = spans.begin("noc.window", root);
    for _ in 0..NOC_CYCLES {
        let s = spans.begin("noc.inject", window);
        driver.inject(&mut net);
        spans.end(s);
        let s = spans.begin("noc.tick", window);
        net.tick();
        spans.end(s);
        let s = spans.begin("noc.eject", window);
        std::hint::black_box(eject(&mut net));
        spans.end(s);
    }
    spans.end(window);
    rep.run_s = t1.elapsed().as_secs_f64();
    spans.end(root);
    let after = *net.stats();
    let drained = drain(&mut net);
    let end = *net.stats();

    let routers = net.topology().routers() as f64;
    let node_cycles = net.topology().tiles() as f64 * NOC_CYCLES as f64;
    let window_stats = delta(&after, &before);
    let offered = window_stats.packets_injected as f64 * DATA_PACKET_FLITS / node_cycles;
    let accepted = window_stats.packets_delivered as f64 * DATA_PACKET_FLITS / node_cycles;
    rep.work = window_stats.link_flits;
    rep.fingerprint = fnv1a(format!("{end:?}").as_bytes());
    rep.check(drained, || {
        format!("network still busy {NOC_DRAIN_LIMIT} cycles after injection stopped")
    });
    check_network(&mut rep, &end);
    rep.check((accepted / offered - 1.0).abs() <= 0.05, || {
        format!("accepted {accepted:.4} flits/node/cycle for {offered:.4} offered: backlog grows")
    });
    rep.counters = vec![
        ("noc.flit_hops", window_stats.link_flits as f64),
        (
            "noc.flit_hops_per_router_cycle",
            window_stats.link_flits as f64 / (routers * NOC_CYCLES as f64),
        ),
        (
            "noc.sa_loss_ratio",
            ratio(window_stats.sa_losses, window_stats.arbitrations),
        ),
        (
            "noc.avg_packet_latency_cyc",
            window_stats.avg_packet_latency(),
        ),
    ];
    rep.sim = vec![
        ("offered_flits_per_node_cycle", offered),
        ("accepted_flits_per_node_cycle", accepted),
    ];
    rep.inputs = vec![
        ("routers", routers),
        ("offered_load", NOC_OFFERED),
        ("saturation_load", NOC_SATURATION),
        ("warmup_cycles", NOC_WARMUP as f64),
        ("window_cycles", NOC_CYCLES as f64),
    ];
    rep.claims = vec![Claim {
        name: "offered_fraction_of_saturation",
        value: offered / NOC_SATURATION,
        lo: 0.45,
        hi: 0.55,
    }];
    rep
}

fn delta(after: &NetworkStats, before: &NetworkStats) -> NetworkStats {
    NetworkStats {
        cycles: after.cycles - before.cycles,
        packets_injected: after.packets_injected - before.packets_injected,
        packets_delivered: after.packets_delivered - before.packets_delivered,
        link_flits: after.link_flits - before.link_flits,
        arbitrations: after.arbitrations - before.arbitrations,
        sa_losses: after.sa_losses - before.sa_losses,
        total_packet_latency: after.total_packet_latency - before.total_packet_latency,
        ..NetworkStats::default()
    }
}

fn check_network(rep: &mut Rep, end: &NetworkStats) {
    rep.check(end.packets_injected == end.packets_delivered, || {
        format!(
            "{} packets injected, {} delivered after drain",
            end.packets_injected, end.packets_delivered
        )
    });
    rep.check(end.routing_violations == 0, || {
        format!("{} routing violations", end.routing_violations)
    });
}

/// Sweeps offered load on the 16x16 mesh and prints accepted throughput
/// and latency per point; the knee is where accepted stops following
/// offered. Used once to set [`NOC_SATURATION`].
pub fn calibrate() {
    println!("offered  accepted  avg_latency_cyc");
    for step in 1..=14 {
        let rate = 0.02 * step as f64;
        let (mut net, mut driver) = noc_network(2016, rate);
        for _ in 0..2_000 {
            driver.inject(&mut net);
            net.tick();
            eject(&mut net);
        }
        let before = *net.stats();
        for _ in 0..4_000 {
            driver.inject(&mut net);
            net.tick();
            eject(&mut net);
        }
        let d = delta(net.stats(), &before);
        let node_cycles = net.topology().tiles() as f64 * 4_000.0;
        let accepted = d.packets_delivered as f64 * DATA_PACKET_FLITS / node_cycles;
        println!(
            "{rate:7.3}  {accepted:8.4}  {:15.1}",
            d.avg_packet_latency()
        );
    }
}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

/// Span names of one scheme's compress and decompress passes.
fn scheme_spans(kind: SchemeKind) -> (&'static str, &'static str) {
    match kind {
        SchemeKind::Delta => ("compress.delta.compress", "compress.delta.decompress"),
        SchemeKind::Fpc => ("compress.fpc.compress", "compress.fpc.decompress"),
        SchemeKind::Sfpc => ("compress.sfpc.compress", "compress.sfpc.decompress"),
        SchemeKind::Bdi => ("compress.bdi.compress", "compress.bdi.decompress"),
        SchemeKind::Sc2 => ("compress.sc2.compress", "compress.sc2.decompress"),
        SchemeKind::CPack => ("compress.cpack.compress", "compress.cpack.decompress"),
    }
}

fn ratio_metric(kind: SchemeKind) -> &'static str {
    match kind {
        SchemeKind::Delta => "compress.delta.ratio",
        SchemeKind::Fpc => "compress.fpc.ratio",
        SchemeKind::Sfpc => "compress.sfpc.ratio",
        SchemeKind::Bdi => "compress.bdi.ratio",
        SchemeKind::Sc2 => "compress.sc2.ratio",
        SchemeKind::CPack => "compress.cpack.ratio",
    }
}

/// The reference corpus in a seed-determined order (Fisher–Yates over
/// an xorshift stream).
fn shuffled_corpus(seed: u64) -> Vec<CacheLine> {
    let mut lines = reference_corpus(CORPUS_PER_FAMILY);
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for i in (1..lines.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        lines.swap(i, (x % (i as u64 + 1)) as usize);
    }
    lines
}

fn codec_corpus(seed: u64, spans: &mut Spans) -> Rep {
    let mut rep = Rep::default();
    let root = spans.begin("rep", None);
    let t0 = Instant::now();
    let corpus = shuffled_corpus(seed);
    let codecs: Vec<Codec> = SchemeKind::ALL.into_iter().map(Codec::from_kind).collect();
    rep.setup_s = t0.elapsed().as_secs_f64();

    let mut passes = Vec::with_capacity(codecs.len());
    let t1 = Instant::now();
    for codec in &codecs {
        let (compress_span, decompress_span) = scheme_spans(codec.kind());
        let s = spans.begin(compress_span, root);
        let encoded: Vec<_> = corpus.iter().map(|line| codec.compress(line)).collect();
        spans.end(s);
        let s = spans.begin(decompress_span, root);
        let decoded: Vec<_> = encoded.iter().map(|enc| codec.decompress(enc)).collect();
        spans.end(s);
        passes.push((encoded, decoded));
    }
    rep.run_s = t1.elapsed().as_secs_f64();
    spans.end(root);

    let mut fingerprint_text = String::new();
    for (codec, (encoded, decoded)) in codecs.iter().zip(&passes) {
        let kind = codec.kind();
        let mut stats = CompressionStats::new();
        encoded.iter().for_each(|enc| stats.record(enc));
        let exact = decoded
            .iter()
            .zip(&corpus)
            .filter(|(dec, line)| dec.as_ref() == Ok(line))
            .count();
        rep.check(exact == corpus.len(), || {
            format!(
                "{kind}: {} of {} lines did not round-trip",
                corpus.len() - exact,
                corpus.len()
            )
        });
        let measured = format!("{:.6}", stats.mean_ratio());
        let recorded = RECORDED_RATIOS
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or("missing", |(_, r)| r);
        rep.check(measured == recorded, || {
            format!("{kind}: ratio {measured}, recorded {recorded}")
        });
        rep.counters.push((ratio_metric(kind), stats.mean_ratio()));
        fingerprint_text += &format!("{kind} {} {};", stats.compressed_bytes(), stats.lines());
    }
    rep.work = 2 * (corpus.len() * codecs.len()) as u64;
    rep.fingerprint = fnv1a(fingerprint_text.as_bytes());
    rep.inputs = vec![
        ("lines", corpus.len() as f64),
        ("schemes", codecs.len() as f64),
    ];
    rep
}

// ---------------------------------------------------------------------------

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}
