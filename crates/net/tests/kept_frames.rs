//! A receiver may keep frames — a history of the last few, a flight
//! recorder, a test — and that must neither pin the rest of the writer's
//! frames nor make the writer allocate every round. A server sends one
//! frame a round to each of 32 clients through the bus's shared frame
//! stock; one client keeps frames while the others drop theirs. This file
//! is its own test binary because it installs a global allocator that
//! counts, per thread, allocations and live bytes.

use rtf_net::{Bus, Bytes, Endpoint, FramePool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(allocated: i64, count: u64) {
    LIVE_BYTES.with(|b| b.set(b.get() + allocated));
    ALLOCATIONS.with(|n| n.set(n.get() + count));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-local
// cells, which neither allocate nor touch allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, 1);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64), 0);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64, 1);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread has made, and its live heap bytes.
fn counters() -> (u64, i64) {
    (ALLOCATIONS.with(Cell::get), LIVE_BYTES.with(Cell::get))
}

const CLIENTS: usize = 32;
const FRAME_BYTES: usize = 300;

struct Group {
    server: Endpoint,
    clients: Vec<Endpoint>,
    frames: FramePool,
    round: u64,
}

impl Group {
    fn new() -> Self {
        let bus = Bus::new();
        Self {
            server: bus.register("server"),
            clients: (0..CLIENTS).map(|_| bus.register("client")).collect(),
            frames: bus.frames(),
            round: 0,
        }
    }

    /// One round: a frame to every client, delivered; client 0 hands its
    /// frame to `keep`, the others drop theirs.
    fn round(&mut self, mut keep: impl FnMut(Bytes)) {
        self.round += 1;
        let mut payload = [0u8; FRAME_BYTES];
        payload[..8].copy_from_slice(&self.round.to_le_bytes());
        for client in &self.clients {
            let frame = self.frames.copy(&payload);
            self.server.send(client.id(), frame).unwrap();
        }
        for (i, client) in self.clients.iter().enumerate() {
            while let Some(msg) = client.recv() {
                if i == 0 {
                    keep(msg.payload);
                }
            }
        }
    }
}

#[test]
fn a_history_of_kept_frames_costs_its_own_frames_and_no_allocation() {
    let mut group = Group::new();
    let mut history: VecDeque<Bytes> = VecDeque::new();
    let mut keep = |frame: Bytes| {
        history.push_back(frame);
        if history.len() > 8 {
            history.pop_front();
        }
    };
    for _ in 0..100 {
        group.round(&mut keep);
    }
    let (allocations, live) = counters();
    for _ in 0..1_000 {
        group.round(&mut keep);
    }
    let (allocations_after, live_after) = counters();
    assert_eq!(allocations_after - allocations, 0, "the writer allocated");
    assert_eq!(live_after, live, "live heap moved over 1 000 rounds");
    let newest = u64::from_le_bytes(history[7][..8].try_into().unwrap());
    assert_eq!(newest, group.round, "the history holds the newest frames");
}

#[test]
fn a_frame_kept_for_good_pins_only_itself() {
    let mut group = Group::new();
    let mut kept = None;
    group.round(|frame| kept = Some(frame));
    for _ in 0..100 {
        group.round(drop);
    }
    let (allocations, live) = counters();
    // Long enough for the stock to give up on the kept frame.
    for _ in 0..3_000 {
        group.round(drop);
    }
    let (allocations_after, live_after) = counters();
    assert!(
        allocations_after - allocations <= 1,
        "{} allocations in 3 000 rounds",
        allocations_after - allocations
    );
    assert!(
        (live_after - live).unsigned_abs() <= 2 * FRAME_BYTES as u64,
        "live heap moved by {} B",
        live_after - live
    );
    let kept = kept.expect("client 0 kept its first frame");
    assert_eq!(u64::from_le_bytes(kept[..8].try_into().unwrap()), 1);
}
