//! Pins the zero-allocation contract of the cycle kernel: once the
//! compute arena has reached its high-water capacity, a
//! steady-state [`Network::tick`] performs **no** heap allocation — no
//! per-router outcome vectors, no RC/VA/SA candidate lists, no per-flit
//! `flits_for` buffers — neither for one uncontended packet nor while a
//! many-to-one burst keeps the loser lists and per-output request
//! buckets busy.
//!
//! The measurement uses a counting global allocator gated by a
//! thread-local flag, so only allocations made *by this test's thread
//! inside the measurement window* count — the libtest harness runs on
//! other threads and must not pollute the counter. This file must stay
//! a single-`#[test]` binary for the same reason.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use disco_compress::CacheLine;
use disco_noc::{Mesh, Network, NocConfig, NodeId, PacketClass, Payload, Ring};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the only addition is a counter
// bump, which allocates nothing itself (`try_with` + const-initialized
// `Cell` avoid lazy TLS allocation and teardown re-entrancy).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(|c| c.get()).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.try_with(|c| c.get()).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Drives one warm-up response from node 0 to `dst` so every router's
/// outcome slot, candidate arena, and VC deque reaches capacity, then
/// measures a second identical response mid-flight: ticks inside the
/// window must allocate exactly nothing.
fn assert_steady_state_allocates_nothing(name: &str, net: &mut Network, dst: NodeId) {
    let line = CacheLine::from_u64_words([1, 2, 3, 4, 5, 6, 7, 8]);

    // Warm-up flight. Record the flight time so the measurement window
    // below can be sized to end strictly before the second packet's
    // delivery (the delivered-queue push is bookkeeping outside the
    // kernel contract).
    net.send(
        NodeId(0),
        dst,
        PacketClass::Response,
        Payload::Raw(line),
        true,
        0,
    );
    let mut flight_ticks = 0u32;
    let mut arrived = 0;
    for _ in 0..600 {
        net.tick();
        flight_ticks += 1;
        arrived += net.take_delivered(dst).len();
        if arrived == 1 {
            break;
        }
    }
    assert_eq!(arrived, 1, "{name}: warm-up packet must arrive");
    assert!(net.is_idle(), "{name}: warm-up packet must drain");
    assert!(flight_ticks > 8, "{name}: flight time too short to measure");

    // Second packet, same route — the run is deterministic, so it takes
    // exactly `flight_ticks` again. `send` itself may allocate (packet
    // store insert); that's outside the window.
    net.send(
        NodeId(0),
        dst,
        PacketClass::Response,
        Payload::Raw(line),
        true,
        1,
    );
    net.tick();
    net.tick();

    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..flight_ticks / 2 {
        net.tick();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(false));
    assert_eq!(
        after - before,
        0,
        "{name}: steady-state ticks must not touch the heap"
    );

    // The measured packet still arrives intact.
    let mut got = Vec::new();
    for _ in 0..600 {
        net.tick();
        got.extend(net.take_delivered(dst));
        if !got.is_empty() {
            break;
        }
    }
    assert_eq!(got.len(), 1, "{name}");
    match &got[0].payload {
        Payload::Raw(l) => assert_eq!(*l, line),
        other => panic!("{name}: expected raw payload, got {other:?}"),
    }
}

/// Every source sends one 8-flit response and one request to `dst`.
/// Flows merge on the way, so routers see VA losers (one response VC
/// per port), SA losers (request and response VCs bidding for the same
/// output) and no-credit stalls (the merged response stream backs up).
fn send_burst(net: &mut Network, sources: &[usize], dst: NodeId, tag: u64) {
    let line = CacheLine::from_u64_words([1, 2, 3, 4, 5, 6, 7, 8]);
    for &src in sources {
        let src = NodeId(src);
        net.send(
            src,
            dst,
            PacketClass::Response,
            Payload::Raw(line),
            true,
            tag,
        );
        net.send(src, dst, PacketClass::Request, Payload::None, false, tag);
    }
}

/// The contended counterpart of [`assert_steady_state_allocates_nothing`]:
/// a warm-up burst from several sources to one destination brings the
/// loser lists and per-output request buckets to their high-water mark,
/// then an identical burst is measured mid-flight, while its flows
/// still contend and before any of it is delivered.
fn assert_contended_cycles_allocate_nothing(
    name: &str,
    net: &mut Network,
    sources: &[usize],
    dst: NodeId,
) {
    let packets = 2 * sources.len();
    send_burst(net, sources, dst, 0);
    let mut first_arrival = None;
    let mut arrived = 0;
    for tick in 1..=2_000u32 {
        net.tick();
        arrived += net.take_delivered(dst).len();
        if arrived > 0 && first_arrival.is_none() {
            first_arrival = Some(tick);
        }
        if arrived == packets {
            break;
        }
    }
    assert_eq!(arrived, packets, "{name}: warm-up burst must arrive");
    assert!(net.is_idle(), "{name}: warm-up burst must drain");
    let first_arrival = first_arrival.unwrap_or(0);
    assert!(
        first_arrival > 8,
        "{name}: flight time too short to measure"
    );

    send_burst(net, sources, dst, 1);
    net.tick();
    net.tick();

    let losses_before = net.stats().sa_losses;
    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..first_arrival / 2 {
        net.tick();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(false));
    assert!(
        net.stats().sa_losses > losses_before,
        "{name}: the measured window must see allocation losers"
    );
    assert_eq!(
        after - before,
        0,
        "{name}: contended steady-state ticks must not touch the heap"
    );

    let mut got = 0;
    for _ in 0..2_000 {
        net.tick();
        got += net.take_delivered(dst).len();
        if got == packets {
            break;
        }
    }
    assert_eq!(got, packets, "{name}: measured burst must arrive");
}

/// A 16x1 mesh line and a ring (low-buffer router parameters): the
/// zero-alloc contract is topology-independent, so both substrates get
/// the same mid-flight windows — one uncontended packet, then a
/// many-to-one burst.
#[test]
fn steady_state_cycles_allocate_nothing() {
    let mut mesh = Network::new(Mesh::new(16, 1), NocConfig::default());
    assert_steady_state_allocates_nothing("mesh 16x1", &mut mesh, NodeId(15));
    assert_contended_cycles_allocate_nothing("mesh 16x1", &mut mesh, &[0, 1, 2, 3], NodeId(15));

    let mut ring = Network::new(Ring::new(16), NocConfig::low_buffer_ring());
    assert_steady_state_allocates_nothing("ring 16", &mut ring, NodeId(8));
    // The single-cycle ring pipeline moves a flit about a hop per cycle,
    // so the burst needs the longer ring's hop count to stay in flight.
    let mut ring = Network::new(Ring::new(32), NocConfig::low_buffer_ring());
    assert_contended_cycles_allocate_nothing("ring 32", &mut ring, &[0, 1, 2, 3], NodeId(15));
}
