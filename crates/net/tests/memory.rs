//! The bus keeps state for live endpoints only.
//!
//! A hundred thousand clients register, exchange messages with a server
//! and leave; every third exchange happens under a paused bus, and every
//! tenth client leaves before that pause ends, with the server's reply
//! still in flight. Afterwards the heap must hold as many live bytes, give
//! or take a constant, as before the first of them came. This file is its
//! own test binary because it installs a global allocator that counts live
//! bytes.

use rtf_net::{Bus, Bytes, Endpoint};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

struct LiveBytes;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain atomic and touches no
// allocator state.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Live heap bytes may differ by this much between the two readings: the
/// bus's reused buffers (its row table, id index, mail arena and flush
/// scratch) can sit at different capacities.
const SLACK_BYTES: usize = 16 * 1024;

struct Churn {
    bus: Bus,
    server: Endpoint,
    inbox: Vec<rtf_net::Message>,
    tick: u64,
}

impl Churn {
    /// `clients` more clients come, talk to the server and go.
    fn run(&mut self, clients: u32) {
        for i in 0..clients {
            let client = self.bus.register("client");
            let leaves_early = i % 10 == 0;
            let paused = leaves_early || i % 3 == 0;
            if paused {
                self.bus.pause_delivery();
            }
            let hello = Bytes::from(vec![0u8; 1 + (i % 7) as usize]);
            client.send(self.server.id(), hello.clone()).unwrap();
            self.server.send(client.id(), hello).unwrap();
            if leaves_early {
                drop(client);
                self.bus.resume_delivery();
            } else {
                if paused {
                    self.bus.resume_delivery();
                }
                client.drain_into(&mut self.inbox);
                self.inbox.clear();
                drop(client);
            }
            self.tick += 1;
            self.bus.advance(self.tick);
            self.server.drain_into(&mut self.inbox);
            self.inbox.clear();
        }
    }
}

#[test]
fn bus_memory_follows_live_endpoints() {
    let bus = Bus::new();
    let server = bus.register("server");
    let mut churn = Churn {
        bus: bus.clone(),
        server,
        inbox: Vec::new(),
        tick: 0,
    };
    // Let every reused buffer reach its working size first.
    churn.run(1_000);
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    let sent = bus.stats().total_messages();

    churn.run(100_000);
    let now = LIVE_BYTES.load(Ordering::Relaxed);
    assert!(
        now.abs_diff(live) <= SLACK_BYTES,
        "live heap {live} B before, {now} B after 100 000 endpoints"
    );
    let stats = bus.stats();
    assert_eq!(stats.total_messages() - sent, 200_000);
    assert_eq!(stats.total_dropped(), 10_100, "the replies still in flight");
}
