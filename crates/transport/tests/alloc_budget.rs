//! Steady-state allocation budget of the session over the bus.
//!
//! Everything a round touches — receive buffers, event lists, the snapshot
//! view, the mirror, the previous-positions buffer, the history ring, the
//! two frame bodies — is borrowed or reused, and every writer reuses the
//! storage of the frames its receivers have dropped: neither a client
//! tick nor a server tick allocates. Rounds run the way a
//! cluster steps — each phase under a paused bus, traffic delivered at the
//! phase boundary — so the bus's own delivery buffers stay outside the
//! counted phases. This file is its own test binary because it installs a
//! counting global allocator.

use roia_obs::Tracer;
use rtf_net::Bus;
use rtf_transport::bus::{BusClientTransport, BusServerTransport};
use rtf_transport::proto::NO_TARGET;
use rtf_transport::session::{
    ClientSession, ClientState, InputCmd, ServerSession, SessionConfig, TickReport,
    KEYFRAME_INTERVAL,
};
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

/// Runs `f` and returns how many heap blocks it asked for.
fn counted(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn a_steady_round_allocates_nothing() {
    const CLIENTS: u64 = 64;
    let bus = Bus::new();
    let transport = BusServerTransport::register(&bus, "server");
    let node = transport.node_id();
    let cfg = SessionConfig::default();
    let mut server = ServerSession::new(transport, cfg, Tracer::disabled());
    let mut clients: Vec<_> = (1..=CLIENTS)
        .map(|user| {
            let transport = BusClientTransport::connect(&bus, &format!("client-{user}"), node);
            ClientSession::new(transport, user, cfg, Tracer::disabled())
        })
        .collect();

    // Everyone moves every round and attacks a neighbour now and then, so
    // deltas are dense and the history ring is consulted.
    let input = |round: u64, user: u64| InputCmd {
        dx: ((round + user) % 3) as i8 - 1,
        dy: ((round / 3 + user) % 3) as i8 - 1,
        attack: if (round + user).is_multiple_of(16) {
            user % CLIENTS + 1
        } else {
            NO_TARGET
        },
    };

    // Past the join, two keyframe periods and the filling of the ring:
    // every reused buffer has reached its size.
    let warmup = 2 * KEYFRAME_INTERVAL + cfg.history_len as u64 + 8;
    for round in 1..=warmup {
        bus.advance(round);
        bus.pause_delivery();
        for client in &mut clients {
            let user = client.user();
            client.tick(Some(input(round, user)));
        }
        bus.resume_delivery();
        bus.pause_delivery();
        server.tick();
        bus.resume_delivery();
    }
    assert!(clients.iter().all(|c| c.state() == ClientState::Welcomed));

    // Measured rounds span a keyframe tick as well as delta ticks.
    for round in warmup + 1..=warmup + KEYFRAME_INTERVAL + 4 {
        bus.advance(round);
        bus.pause_delivery();
        let blocks = counted(|| {
            for client in &mut clients {
                let user = client.user();
                client.tick(Some(input(round, user)));
            }
        });
        bus.resume_delivery();
        assert_eq!(
            blocks, 0,
            "round {round}: {CLIENTS} client ticks asked for {blocks} blocks"
        );

        bus.pause_delivery();
        let mut report = TickReport::default();
        let blocks = counted(|| report = server.tick());
        bus.resume_delivery();
        assert_eq!(u64::from(report.snapshots_sent), CLIENTS, "steady state");
        assert_eq!(u64::from(report.inputs_applied), CLIENTS, "steady state");
        assert_eq!(
            blocks, 0,
            "round {round}: server tick asked for {blocks} blocks"
        );
    }
    assert!(server.stats().rewind_hits + server.stats().rewind_misses > 0);
    assert!(server.stats().keyframes_sent > CLIENTS);
}
