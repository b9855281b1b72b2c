//! Steady-state allocation budget of `rtf::Server::tick`.
//!
//! A tick has to allocate one buffer per frame it sends — the frame
//! outlives the tick in the receiver's inbox. Everything else (receive
//! buffers, decoded envelopes, the interest table, encode scratch) is
//! reused from tick to tick, so heap allocations per server tick must stay
//! within the frames sent plus a small constant for the bus's own
//! bookkeeping. This file is its own test binary because it installs a
//! counting global allocator.

use rtf_core::client::Client;
use rtf_core::entity::UserId;
use rtf_core::server::{Server, ServerConfig};
use rtf_core::zone::ZoneId;
use rtf_net::Bus;
use rtfdemo::{Bot, BotBehavior, CostModel, RtfDemoApp, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain atomics and touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations a server tick may make beyond its outgoing frames: the
/// paused bus files every link that received traffic in an ordered set
/// (a tree node per handful of links), and a shared frame's first clone
/// may allocate its reference count.
const SLACK_PER_SERVER_TICK: u64 = 24;

#[test]
fn server_tick_allocates_little_beyond_its_frames() {
    const REPLICAS: usize = 4;
    const USERS: u64 = 400;
    let bus = Bus::new();
    let mut servers: Vec<Server<RtfDemoApp>> = (0..REPLICAS)
        .map(|i| {
            let app = RtfDemoApp::new(World::default(), 0, CostModel::noisy(i as u64));
            let label = format!("server-{i}");
            Server::new(&bus, &label, ZoneId(1), app, ServerConfig::default())
        })
        .collect();
    let ids: Vec<_> = servers.iter().map(Server::id).collect();
    for server in &mut servers {
        server.set_peers(ids.clone());
    }
    let mut clients: Vec<(Client, Bot)> = (0..USERS)
        .map(|u| {
            let user = UserId(u + 1);
            let client =
                Client::connect(&bus, user, ids[u as usize % REPLICAS]).expect("server up");
            (client, Bot::new(user, 7, BotBehavior::default()))
        })
        .collect();

    // One round the way a cluster steps: servers tick under a paused bus,
    // then the clients do. Returns (allocations, frames) of the server
    // phase.
    let mut round = |tick: u64| -> (u64, u64) {
        bus.advance(tick);
        let sent_before = bus.stats().total_messages();
        bus.pause_delivery();
        ALLOCATIONS.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        for server in &mut servers {
            server.tick();
        }
        COUNTING.store(false, Ordering::Relaxed);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed);
        let frames = bus.stats().total_messages() - sent_before;
        bus.resume_delivery();
        bus.pause_delivery();
        for (client, bot) in &mut clients {
            client.tick(tick, bot);
        }
        bus.resume_delivery();
        (allocations, frames)
    };

    for tick in 0..50 {
        round(tick);
    }
    for tick in 50..70 {
        let (allocations, frames) = round(tick);
        assert!(
            frames >= USERS,
            "tick {tick}: only {frames} frames — the group is not in steady state"
        );
        let budget = frames + SLACK_PER_SERVER_TICK * REPLICAS as u64;
        assert!(
            allocations <= budget,
            "tick {tick}: {allocations} allocations for {frames} frames (budget {budget})"
        );
    }
}
