//! Pins the zero-allocation contract of the cycle kernel: once the
//! compute arena has reached its high-water capacity, a
//! steady-state [`Network::tick`] performs **no** heap allocation — no
//! per-router outcome vectors, no RC/VA/SA candidate lists, no per-flit
//! `flits_for` buffers.
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

/// A 16x1 mesh line and a 16-node ring (low-buffer router parameters):
/// the zero-alloc contract is topology-independent, so both substrates
/// get the same mid-flight window.
#[test]
fn steady_state_cycles_allocate_nothing() {
    let mut mesh = Network::new(Mesh::new(16, 1), NocConfig::default());
    assert_steady_state_allocates_nothing("mesh 16x1", &mut mesh, NodeId(15));

    let mut ring = Network::new(Ring::new(16), NocConfig::low_buffer_ring());
    assert_steady_state_allocates_nothing("ring 16", &mut ring, NodeId(8));
}
