//! Steady-state allocation budgets of one lock-step round.
//!
//! Nothing a round touches is allocated per frame or per message once the
//! group has warmed up: receive buffers, decoded envelopes, the interest
//! table and encode scratch keep their capacity, every writer reuses the
//! storage of the frames its receivers have dropped, and the bus keeps one
//! mail arena and no per-link queues. What still allocates is growth: a
//! server's frame stock makes a frame when more frames of about one size
//! are out at once than it holds (it gives back frames no hand-out needed
//! over its horizon, so a later peak may make them again), and a bot's
//! target list grows when it sees more targets than ever before. In this
//! group that is a few allocations in some rounds and none in most, against
//! ≈ 550 frames and 400 bot ticks a round, so each test counts every round
//! from the end of a 50-round warm-up to round 1 000 and bounds the total.
//! The bus's flush allocates nothing at all. This file is its own test
//! binary because it installs a counting global allocator; the counters
//! are per thread, so the tests may run in parallel.

use rtf_core::client::Client;
use rtf_core::zone::ZoneId;
use rtf_core::UserId;
use rtf_core::{Server, ServerConfig};
use rtf_net::Bus;
use rtfdemo::{Bot, BotBehavior, CostModel, CostRates, RtfDemoApp, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-local
// cells, which neither allocate nor touch allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

/// Rounds before the measured ones.
const WARMUP_ROUNDS: usize = 50;
/// Rounds measured after the warm-up: up to round 1 000.
const MEASURED_ROUNDS: usize = 950;
/// Allocations all measured rounds together may make in one phase: one per
/// ten rounds. In rounds 51–1 000 the server ticks made 45 (for ≈ 520 000
/// frames) and the bot clients 44 (for 380 000 client ticks).
const GROWTH_BUDGET: u64 = (MEASURED_ROUNDS / 10) as u64;
const REPLICAS: usize = 4;
const USERS: u64 = 400;

/// What one round allocated, phase by phase.
struct Round {
    /// The server ticks.
    servers: u64,
    /// Frames the server ticks sent.
    frames: u64,
    /// The bot clients' ticks.
    clients: u64,
    /// Both `resume_delivery` flushes.
    flushes: u64,
}

/// A 4-replica, 400-user group at the paper's operating point, stepped
/// the way a cluster steps it: servers under a paused bus, flush, clients
/// under a paused bus, flush.
struct Group {
    bus: Bus,
    servers: Vec<Server<RtfDemoApp>>,
    clients: Vec<(Client, Bot)>,
    tick: u64,
}

impl Group {
    fn new() -> Self {
        let bus = Bus::new();
        let mut servers: Vec<Server<RtfDemoApp>> = (0..REPLICAS)
            .map(|i| {
                let app = RtfDemoApp::new(
                    World::default(),
                    0,
                    CostModel::new(CostRates::default(), 0.12, i as u64),
                );
                let label = format!("server-{i}");
                Server::new(&bus, &label, ZoneId(1), app, ServerConfig::default())
            })
            .collect();
        let ids: Vec<_> = servers.iter().map(Server::id).collect();
        for server in &mut servers {
            server.set_peers(ids.clone());
        }
        let clients = (0..USERS)
            .map(|u| {
                let user = UserId(u + 1);
                let client =
                    Client::connect(&bus, user, ids[u as usize % REPLICAS]).expect("server up");
                (client, Bot::new(user, 7, BotBehavior::default()))
            })
            .collect();
        let mut group = Self {
            bus,
            servers,
            clients,
            tick: 0,
        };
        for _ in 0..WARMUP_ROUNDS {
            group.round();
        }
        group
    }

    fn round(&mut self) -> Round {
        let tick = self.tick;
        self.tick += 1;
        self.bus.advance(tick);
        let sent_before = self.bus.stats().total_messages();
        self.bus.pause_delivery();
        let servers = allocations(|| {
            for server in &mut self.servers {
                server.tick();
            }
        });
        let frames = self.bus.stats().total_messages() - sent_before;
        let mut flushes = allocations(|| self.bus.resume_delivery());
        self.bus.pause_delivery();
        let clients = allocations(|| {
            for (client, bot) in &mut self.clients {
                client.tick(tick, bot);
            }
        });
        flushes += allocations(|| self.bus.resume_delivery());
        assert!(
            frames >= USERS,
            "tick {tick}: only {frames} frames — the group is not in steady state"
        );
        Round {
            servers,
            frames,
            clients,
            flushes,
        }
    }
}

#[test]
fn server_ticks_allocate_only_to_grow() {
    let mut group = Group::new();
    let mut total = 0;
    for _ in 0..MEASURED_ROUNDS {
        let Round {
            servers, frames, ..
        } = group.round();
        assert!(
            servers <= frames,
            "{servers} allocations for {frames} frames"
        );
        total += servers;
    }
    assert!(
        total <= GROWTH_BUDGET,
        "server ticks made {total} allocations in {MEASURED_ROUNDS} rounds"
    );
}

#[test]
fn bot_clients_allocate_only_to_grow() {
    let mut group = Group::new();
    let mut total = 0;
    for _ in 0..MEASURED_ROUNDS {
        total += group.round().clients;
    }
    assert!(
        total <= GROWTH_BUDGET,
        "{USERS} bot clients made {total} allocations in {MEASURED_ROUNDS} rounds"
    );
}

#[test]
fn resume_delivery_allocates_nothing() {
    let mut group = Group::new();
    for _ in 0..MEASURED_ROUNDS {
        assert_eq!(group.round().flushes, 0);
    }
}
