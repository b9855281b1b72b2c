//! The trace ring's memory budget.
//!
//! `churn_full_stack` keeps its last 65 536 events in a [`RingSink`], and
//! nine in ten of them are tick spans with six charged task slots. That
//! ring must fit a stated live-heap budget, reserve nothing before the
//! first event, and allocate nothing per event once it is full. This file
//! is its own test binary because it installs a global allocator that
//! counts live bytes and allocations.

use roia_obs::{RingSink, TraceEvent, TraceSink, TASK_SLOTS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain atomics and touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Events `churn_full_stack`'s ring retains.
const CHURN_RING_EVENTS: usize = 65_536;

/// Live heap the full churn ring may hold: 72 B an event. It measures
/// 4.45 MiB (4 661 248 B: 70 B a span in 32 KiB blocks, one of them
/// spare); a `VecDeque<TraceEvent>` of the same capacity held 8 MiB.
const CHURN_RING_BUDGET_BYTES: usize = 4_608 * 1024;

/// A tick span as `churn_full_stack` records it: a tick past 16 384 (a
/// three-byte varint), one of a few servers, users in the hundreds, and
/// the six task slots its servers charge (user actions and forwarded
/// actions with their deserialisation, AoI, state updates).
fn churn_span(i: u64) -> TraceEvent {
    let mut per_task = [0.0; TASK_SLOTS];
    for (k, slot) in [0, 1, 2, 3, 5, 6].into_iter().enumerate() {
        per_task[slot] = 1e-4 * (k + 1) as f64 + i as f64 * 1e-9;
    }
    TraceEvent::TickSpan {
        tick: 20_000 + i / 2,
        server: (i % 2) as u32,
        zone: 0,
        duration_s: 0.0123 + i as f64 * 1e-9,
        per_task,
        active_users: 150 + (i % 40) as u32,
        shadow_users: 170,
        npcs: 0,
        migrations_initiated: 0,
        migrations_received: 0,
    }
}

/// One test, so no other test thread allocates while it reads the
/// counters.
#[test]
fn the_churn_ring_fits_its_budget_and_allocates_nothing_when_full() {
    // Nothing up front, however large the capacity.
    let (bytes, count) = (live(), allocations());
    let big = RingSink::new(1 << 20);
    assert_eq!(allocations(), count, "RingSink::new allocates");
    assert_eq!(live(), bytes);
    drop(big);

    let before = live();
    let mut ring = RingSink::new(CHURN_RING_EVENTS);
    for i in 0..CHURN_RING_EVENTS as u64 {
        ring.record(&churn_span(i));
    }
    assert_eq!(ring.len(), CHURN_RING_EVENTS);
    let full = live() - before;
    assert!(
        full <= CHURN_RING_BUDGET_BYTES,
        "a full churn ring holds {full} B, budget {CHURN_RING_BUDGET_BYTES} B"
    );

    // Full: each record evicts the oldest span and reuses freed blocks.
    let count = allocations();
    for i in 0..100_000 {
        ring.record(&churn_span(CHURN_RING_EVENTS as u64 + i));
    }
    assert_eq!(allocations(), count, "recording into a full ring allocated");
    assert_eq!(ring.dropped(), 100_000);
    assert!(live() - before <= full, "the full ring grew");
}

fn live() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}
