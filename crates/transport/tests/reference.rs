//! Reference equivalence of the dense session.
//!
//! `reference::{RefServerSession, RefClientSession}` is the tree-map
//! implementation the session had before it was rewritten over sorted
//! rows. Two universes — the reference and the library, each a server and
//! its clients on a bus of their own — are driven by one seeded script of
//! joins, stalls, bursts, attacks and goodbyes. After every round each
//! client must have received byte-identical frames in both and the two
//! servers must report the same `TickReport` and `ServerStats`; at
//! checkpoints and at the end the worlds, every client's mirror,
//! prediction, interpolation and counters must agree too.
//!
//! The second half feeds both client implementations hostile snapshots
//! from a raw server transport: whatever bytes arrive, the two mirrors
//! must end equal and neither may panic.
//!
//! Plain seeded tests, no `proptest!`, so the target builds with the
//! offline stand-ins.

#[path = "reference/mod.rs"]
mod reference;

use bytes::Bytes;
use reference::{RefClientSession, RefServerSession};
use roia_obs::Tracer;
use rtf_core::wire::{Wire, WireWriter};
use rtf_net::{Bus, LinkSpec};
use rtf_transport::bus::{BusClientTransport, BusServerTransport};
use rtf_transport::proto::{ClientMsg, EntityState, ServerMsg, Snapshot, NO_TARGET, PROTO_VERSION};
use rtf_transport::session::{
    ClientNetStats, ClientSession, ClientState, Entity, InputCmd, ServerSession, ServerStats,
    SessionConfig, TickReport,
};
use rtf_transport::{
    CloseReason, ConnStats, PeerId, Transport, TransportError, TransportEvent, SERVER_PEER,
};
use std::cell::RefCell;

/// Records every frame the wrapped transport surfaces.
struct Tap<T> {
    inner: T,
    frames: RefCell<Vec<Bytes>>,
}

impl<T: Transport> Transport for Tap<T> {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn poll(&mut self, events: &mut Vec<TransportEvent>) {
        let from = events.len();
        self.inner.poll(events);
        for ev in events.iter().skip(from) {
            if let TransportEvent::Frame { payload, .. } = ev {
                self.frames.get_mut().push(payload.clone());
            }
        }
    }

    fn send(&mut self, peer: PeerId, frame: Bytes) -> Result<(), TransportError> {
        self.inner.send(peer, frame)
    }

    fn close(&mut self, peer: PeerId, reason: CloseReason) {
        self.inner.close(peer, reason);
    }

    fn peers(&self) -> Vec<PeerId> {
        self.inner.peers()
    }

    fn stats(&self, peer: PeerId) -> Option<ConnStats> {
        self.inner.stats(peer)
    }

    fn total_stats(&self) -> ConnStats {
        self.inner.total_stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

type ClientTap = Tap<BusClientTransport>;
type Rows = Vec<(u64, Entity)>;

/// What the driver needs from a server half, old or new.
trait ServerHalf {
    fn start(transport: BusServerTransport, cfg: SessionConfig) -> Self;
    fn step(&mut self) -> TickReport;
    fn counters(&self) -> ServerStats;
    fn rows(&self) -> Rows;
}

/// What the driver needs from a client half, old or new.
trait ClientHalf {
    fn start(transport: ClientTap, user: u64, cfg: SessionConfig) -> Self;
    fn step(&mut self, input: Option<InputCmd>) -> u32;
    fn leave(&mut self);
    fn status(&self) -> ClientState;
    fn counters(&self) -> ClientNetStats;
    fn predicted(&self) -> (i32, i32);
    fn unacked(&self) -> usize;
    fn rows(&self) -> Rows;
    fn lerp(&self, id: u64, num: i64, den: i64) -> Option<(i32, i32)>;
    fn frames(&mut self) -> Vec<Bytes>;
}

macro_rules! server_half {
    ($ty:ident) => {
        impl ServerHalf for $ty<BusServerTransport> {
            fn start(transport: BusServerTransport, cfg: SessionConfig) -> Self {
                $ty::new(transport, cfg, Tracer::disabled())
            }
            fn step(&mut self) -> TickReport {
                self.tick()
            }
            fn counters(&self) -> ServerStats {
                self.stats()
            }
            fn rows(&self) -> Rows {
                self.world().iter().map(|(id, e)| (*id, *e)).collect()
            }
        }
    };
}

macro_rules! client_half {
    ($ty:ident) => {
        impl ClientHalf for $ty<ClientTap> {
            fn start(transport: ClientTap, user: u64, cfg: SessionConfig) -> Self {
                $ty::new(transport, user, cfg, Tracer::disabled())
            }
            fn step(&mut self, input: Option<InputCmd>) -> u32 {
                self.tick(input)
            }
            fn leave(&mut self) {
                self.bye();
            }
            fn status(&self) -> ClientState {
                self.state()
            }
            fn counters(&self) -> ClientNetStats {
                self.net_stats()
            }
            fn predicted(&self) -> (i32, i32) {
                self.predicted_pos()
            }
            fn unacked(&self) -> usize {
                self.pending_inputs()
            }
            fn rows(&self) -> Rows {
                self.auth_world().iter().map(|(id, e)| (*id, *e)).collect()
            }
            fn lerp(&self, id: u64, num: i64, den: i64) -> Option<(i32, i32)> {
                self.interpolated(id, num, den)
            }
            fn frames(&mut self) -> Vec<Bytes> {
                self.transport().frames.take()
            }
        }
    };
}

server_half!(RefServerSession);
server_half!(ServerSession);
client_half!(RefClientSession);
client_half!(ClientSession);

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What the script tells one client slot to do in one round.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Act {
    /// Not connected this round.
    Away,
    /// Connect a fresh client for this slot's user.
    Join,
    /// Tick without an input.
    Idle,
    /// Do not tick at all: snapshots pile up and arrive as a burst.
    Stall,
    /// Tick with this move; `attack` picks the nearest entity, a random
    /// user id, or nothing.
    Play { dx: i8, dy: i8, attack: Attack },
    /// Tick twice with the same move, so the server sees two inputs.
    Burst { dx: i8, dy: i8 },
    /// Say goodbye and disconnect.
    Bye,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Attack {
    None,
    Nearest,
    User(u64),
}

/// A server and its clients, reference or library.
struct Universe<S, C> {
    bus: Bus,
    node: rtf_net::NodeId,
    server: S,
    clients: Vec<Option<C>>,
    cfg: SessionConfig,
    joins: u64,
}

impl<S: ServerHalf, C: ClientHalf> Universe<S, C> {
    fn new(slots: usize, cfg: SessionConfig, link: LinkSpec) -> Self {
        let bus = Bus::with_default_link(link);
        let transport = BusServerTransport::register(&bus, "server");
        let node = transport.node_id();
        Self {
            bus,
            node,
            server: S::start(transport, cfg),
            clients: (0..slots).map(|_| None).collect(),
            cfg,
            joins: 0,
        }
    }

    fn nearest_other(client: &C, user: u64) -> u64 {
        let (px, py) = client.predicted();
        client
            .rows()
            .iter()
            .filter(|(id, _)| *id != user)
            .min_by_key(|(_, e)| {
                let dx = i64::from(e.x) - i64::from(px);
                let dy = i64::from(e.y) - i64::from(py);
                dx.abs().max(dy.abs())
            })
            .map_or(NO_TARGET, |(id, _)| *id)
    }

    /// One lock-step round the way the ledger drives it: deliver, every
    /// client acts, the server ticks.
    fn round(&mut self, round: u64, script: &[Act]) -> TickReport {
        self.bus.advance(round);
        for (slot, act) in script.iter().enumerate() {
            let user = slot as u64 + 1;
            match *act {
                Act::Away | Act::Stall => {}
                Act::Join => {
                    self.joins += 1;
                    let label = format!("client-{user}-{}", self.joins);
                    let transport = Tap {
                        inner: BusClientTransport::connect(&self.bus, &label, self.node),
                        frames: RefCell::default(),
                    };
                    let mut client = C::start(transport, user, self.cfg);
                    client.step(None);
                    self.clients[slot] = Some(client);
                }
                Act::Idle => {
                    self.clients[slot].as_mut().expect("live slot").step(None);
                }
                Act::Play { dx, dy, attack } => {
                    let client = self.clients[slot].as_mut().expect("live slot");
                    let attack = match attack {
                        Attack::None => NO_TARGET,
                        Attack::Nearest => Self::nearest_other(client, user),
                        Attack::User(id) => id,
                    };
                    client.step(Some(InputCmd { dx, dy, attack }));
                }
                Act::Burst { dx, dy } => {
                    let client = self.clients[slot].as_mut().expect("live slot");
                    for _ in 0..2 {
                        client.step(Some(InputCmd {
                            dx,
                            dy,
                            attack: NO_TARGET,
                        }));
                    }
                }
                Act::Bye => {
                    let mut client = self.clients[slot].take().expect("live slot");
                    client.leave();
                }
            }
        }
        self.server.step()
    }
}

/// Draws the script of one round. Slot state lives here, outside either
/// universe, so both see the same acts.
struct Script {
    rng: SplitMix64,
    /// Per slot: connected or not, and the round it may next change.
    live: Vec<bool>,
    next_change: Vec<u64>,
    users: u64,
}

impl Script {
    fn new(slots: usize, seed: u64) -> Self {
        let mut rng = SplitMix64(seed);
        // A quarter of the slots join late, spread over the first rounds.
        let next_change = (0..slots)
            .map(|i| if i % 4 == 3 { 1 + rng.next() % 300 } else { 1 })
            .collect();
        Self {
            rng,
            live: vec![false; slots],
            next_change,
            users: slots as u64,
        }
    }

    fn draw(&mut self, round: u64, out: &mut Vec<Act>) {
        out.clear();
        for slot in 0..self.live.len() {
            let r = self.rng.next();
            let due = round >= self.next_change[slot];
            let act = if !self.live[slot] {
                if due {
                    self.live[slot] = true;
                    // Stay for a while; one slot in three never leaves.
                    self.next_change[slot] = if slot % 3 == 0 {
                        u64::MAX
                    } else {
                        round + 150 + r % 600
                    };
                    Act::Join
                } else {
                    Act::Away
                }
            } else if due {
                self.live[slot] = false;
                self.next_change[slot] = round + 20 + r % 100;
                Act::Bye
            } else {
                let dx = ((r >> 8) % 3) as i8 - 1;
                let dy = ((r >> 16) % 3) as i8 - 1;
                match r % 64 {
                    0 => Act::Stall,
                    1 => Act::Idle,
                    2 | 3 => Act::Burst { dx, dy },
                    4..=9 => Act::Play {
                        dx,
                        dy,
                        attack: Attack::Nearest,
                    },
                    10 => Act::Play {
                        dx,
                        dy,
                        // Sometimes a user that is away, or nobody's id.
                        attack: Attack::User(1 + (r >> 24) % (self.users + 2)),
                    },
                    _ => Act::Play {
                        dx,
                        dy,
                        attack: Attack::None,
                    },
                }
            };
            out.push(act);
        }
    }
}

type Old = Universe<RefServerSession<BusServerTransport>, RefClientSession<ClientTap>>;
type New = Universe<ServerSession<BusServerTransport>, ClientSession<ClientTap>>;

fn assert_same_state(old: &Old, new: &New, round: u64) {
    assert_eq!(
        old.server.rows(),
        new.server.rows(),
        "round {round}: worlds"
    );
    for (slot, (a, b)) in old.clients.iter().zip(&new.clients).enumerate() {
        let (Some(a), Some(b)) = (a, b) else {
            assert_eq!(a.is_some(), b.is_some(), "round {round}: slot {slot}");
            continue;
        };
        assert_eq!(a.status(), b.status(), "round {round}: slot {slot} state");
        assert_eq!(a.rows(), b.rows(), "round {round}: slot {slot} mirror");
        assert_eq!(a.predicted(), b.predicted(), "round {round}: slot {slot}");
        assert_eq!(a.counters(), b.counters(), "round {round}: slot {slot}");
        assert_eq!(a.unacked(), b.unacked(), "round {round}: slot {slot}");
        for (id, _) in a.rows().iter().take(8) {
            assert_eq!(a.lerp(*id, 1, 3), b.lerp(*id, 1, 3), "round {round}: lerp");
        }
        assert_eq!(a.lerp(u64::MAX - 1, 1, 2), b.lerp(u64::MAX - 1, 1, 2));
    }
}

/// Drives both universes through `rounds` rounds of one script.
fn run_equivalence(slots: usize, rounds: u64, cfg: SessionConfig, link: LinkSpec, seed: u64) {
    let mut old = Old::new(slots, cfg, link);
    let mut new = New::new(slots, cfg, link);
    let mut script = Script::new(slots, seed);
    let mut acts = Vec::new();
    let mut corrections = 0;
    for round in 1..=rounds {
        script.draw(round, &mut acts);
        let report_old = old.round(round, &acts);
        let report_new = new.round(round, &acts);
        assert_eq!(report_old, report_new, "round {round}: tick report");
        assert_eq!(
            old.server.counters(),
            new.server.counters(),
            "round {round}: server stats"
        );
        for (slot, (a, b)) in old.clients.iter_mut().zip(&mut new.clients).enumerate() {
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(
                    a.frames(),
                    b.frames(),
                    "round {round}: frames to slot {slot}"
                );
            }
        }
        if round % 64 == 0 || round == rounds {
            assert_same_state(&old, &new, round);
        }
    }
    for client in new.clients.iter().flatten() {
        corrections += client.counters().corrections;
        assert_eq!(client.counters().desyncs, 0, "reliable transport");
    }
    let stats = new.server.counters();
    // The script covered what it claims to cover.
    assert!(rounds >= 4 * cfg.keyframe_interval, "periodic keyframes");
    assert!(stats.keyframes_sent > 0 && stats.snapshots_sent > stats.keyframes_sent);
    assert!(stats.peers_closed > 0, "mid-run goodbyes: {stats:?}");
    assert!(
        stats.rewind_hits > 0 && stats.rewind_misses > 0,
        "{stats:?}"
    );
    assert!(stats.kills > 0, "kills and respawns: {stats:?}");
    assert!(corrections > 0, "a respawn teleport corrects a prediction");
    assert_eq!(stats.bad_frames, 0);
}

#[test]
fn three_clients_match_the_reference() {
    // Range covers the arena, so every attack on a present entity lands.
    let cfg = SessionConfig {
        attack_range: 4096,
        attack_damage: 50,
        ..SessionConfig::default()
    };
    run_equivalence(3, 2_000, cfg, LinkSpec::IDEAL, 3);
}

#[test]
fn sixty_four_clients_match_the_reference() {
    // Links with latency and jitter, so inputs arrive viewing ticks two to
    // eight behind the server's — and a ring short enough that the older
    // ones have fallen off its front.
    let cfg = SessionConfig {
        history_len: 5,
        attack_range: 256,
        ..SessionConfig::default()
    };
    let link = LinkSpec::with_latency(1).with_faults(0.0, 2);
    run_equivalence(64, 2_000, cfg, link, 64);
}

#[test]
fn the_ledger_population_matches_the_reference() {
    // An unoptimised build of the tree-map reference takes ~50 ms a round
    // at this size, so only the release run (CI's `transport-smoke` step)
    // is the 2 000 rounds the other two sizes always make. The debug
    // run's 200 still cross six keyframe boundaries, and `run_equivalence`
    // asserts at either length that goodbyes, hits, misses, kills and
    // respawn corrections all happened.
    let rounds = if cfg!(debug_assertions) { 200 } else { 2_000 };
    run_equivalence(256, rounds, SessionConfig::default(), LinkSpec::IDEAL, 256);
}

// --- Hostile snapshots ----------------------------------------------------

/// A raw server transport with one reference and one library client
/// connected to it; `feed` sends the same frame to both.
struct Bench {
    bus: Bus,
    server: BusServerTransport,
    old: RefClientSession<ClientTap>,
    new: ClientSession<ClientTap>,
    round: u64,
}

const ME: u64 = 7;

/// Where a snapshot frame counts its entries: after the tag, `tick`,
/// `baseline` and `ack_seq`.
const ENTRY_COUNT_AT: usize = 1 + 8 + 8 + 4;

impl Bench {
    fn new() -> Self {
        let bus = Bus::new();
        let server = BusServerTransport::register(&bus, "raw");
        let tap = |label: &str| Tap {
            inner: BusClientTransport::connect(&bus, label, server.node_id()),
            frames: RefCell::default(),
        };
        let cfg = SessionConfig::default();
        let old = RefClientSession::new(tap("old"), ME, cfg, Tracer::disabled());
        let new = ClientSession::new(tap("new"), ME, cfg, Tracer::disabled());
        let mut bench = Self {
            bus,
            server,
            old,
            new,
            round: 0,
        };
        bench.tick(None); // hellos go out
        let mut events = Vec::new();
        bench.server.poll(&mut events);
        assert_eq!(bench.server.peers(), vec![1, 2], "both connected");
        let welcome = ServerMsg::Welcome {
            user: ME,
            tick: 0,
            x: 10,
            y: 10,
        };
        bench.feed(&welcome.to_bytes());
        assert_eq!(bench.new.state(), ClientState::Welcomed);
        bench
    }

    fn tick(&mut self, input: Option<InputCmd>) {
        self.round += 1;
        self.bus.advance(self.round);
        self.old.tick(input);
        self.new.tick(input);
    }

    /// Sends `frame` to both clients and lets them apply it.
    fn feed(&mut self, frame: &[u8]) {
        for peer in [1, 2] {
            self.server
                .send(peer, Bytes::copy_from_slice(frame))
                .expect("raw send");
        }
        self.tick(None);
        self.assert_same();
    }

    fn assert_same(&self) {
        let old: Rows = self
            .old
            .auth_world()
            .iter()
            .map(|(i, e)| (*i, *e))
            .collect();
        let new: Rows = self
            .new
            .auth_world()
            .iter()
            .map(|(i, e)| (*i, *e))
            .collect();
        assert_eq!(old, new, "mirrors");
        assert_eq!(self.old.net_stats(), self.new.net_stats());
        assert_eq!(self.old.auth_tick(), self.new.auth_tick());
        assert_eq!(self.old.predicted_pos(), self.new.predicted_pos());
        assert_eq!(self.old.state(), self.new.state());
        for id in 0..12 {
            assert_eq!(
                self.old.interpolated(id, 1, 2),
                self.new.interpolated(id, 1, 2)
            );
        }
    }
}

fn ent(id: u64, x: i32) -> EntityState {
    EntityState {
        id,
        x,
        y: -x,
        health: 50,
    }
}

fn snapshot(tick: u64, baseline: u64, entries: Vec<EntityState>, removed: Vec<u64>) -> Vec<u8> {
    ServerMsg::Snapshot(Snapshot {
        tick,
        baseline,
        ack_seq: 0,
        entries,
        removed,
    })
    .to_bytes()
    .to_vec()
}

#[test]
fn unsorted_and_duplicate_entries_end_like_the_reference() {
    let mut bench = Bench::new();
    // A keyframe out of order, with id 5 twice: the last one wins.
    let entries = vec![
        ent(9, 1),
        ent(5, 2),
        ent(ME, 3),
        ent(1, 4),
        ent(5, 6),
        ent(2, 7),
    ];
    bench.feed(&snapshot(1, 0, entries, vec![]));
    let ids: Vec<u64> = bench.new.auth_world().keys().copied().collect();
    assert_eq!(ids, vec![1, 2, 5, ME, 9], "rows stay sorted");
    assert_eq!(bench.new.auth_world().get(&5).map(|e| e.x), Some(6));

    // A delta that updates, inserts below, between and above, descending,
    // repeats an id, and removes an id nobody knows plus one it just sent.
    let entries = vec![
        ent(11, 1),
        ent(8, 2),
        ent(5, 3),
        ent(0, 4),
        ent(8, 9),
        ent(3, 5),
    ];
    bench.feed(&snapshot(2, 1, entries, vec![404, 3, 9]));
    let ids: Vec<u64> = bench.new.auth_world().keys().copied().collect();
    assert_eq!(ids, vec![0, 1, 2, 5, ME, 8, 11]);
    assert_eq!(bench.new.auth_world().get(&8).map(|e| e.x), Some(9));
    assert_eq!(bench.new.net_stats().deltas, 1);

    // A new id three times, the highest known id before the last: only
    // rows already in order may be updated where they stand.
    let entries = vec![ent(4, 1), ent(9, 2), ent(4, 3), ent(11, 4), ent(4, 5)];
    bench.feed(&snapshot(3, 2, entries, vec![]));
    assert_eq!(bench.new.auth_world().get(&4).map(|e| e.x), Some(5));

    // A keyframe carrying removals: the reference ignores them.
    bench.feed(&snapshot(4, 0, vec![ent(4, 1), ent(ME, 2)], vec![4]));
    assert!(bench.new.auth_world().contains_key(&4));

    // A delta against a baseline the mirror is not at: both desync.
    bench.feed(&snapshot(9, 7, vec![ent(1, 1)], vec![]));
    assert_eq!(bench.new.net_stats().desyncs, 1);
    // An empty keyframe empties the mirror; a delta on it desyncs too.
    bench.feed(&snapshot(10, 0, vec![], vec![]));
    assert!(bench.new.auth_world().is_empty());
    bench.feed(&snapshot(11, 10, vec![ent(1, 1)], vec![]));
    assert_eq!(bench.new.net_stats().desyncs, 2);
}

#[test]
fn the_largest_keyframe_in_the_worst_order_is_one_sort_not_a_shuffle() {
    let mut bench = Bench::new();
    let most = u64::from(u16::MAX);
    // Every entry below its predecessor: placing each by `Vec::insert`
    // moves 2e9 rows (1.2 s on the reference box); appending and sorting
    // once takes 2 ms there, 13 ms unoptimised.
    let descending = (0..most).rev().map(|id| ent(id, id as i32)).collect();
    // Then as many again in no order, known and new ids, many repeated.
    let mut rng = SplitMix64(0xD15C0);
    let soup = (0..most)
        .map(|_| ent(rng.next() % (2 * most), (rng.next() % 4096) as i32))
        .collect();
    // Then as many removals, each the lowest row left: taking them out
    // one at a time would shift the rest of the mirror 65 535 times.
    let purge = snapshot(3, 2, vec![], (0..most).collect());
    for frame in [
        snapshot(1, 0, descending, vec![]),
        snapshot(2, 1, soup, vec![3]),
        purge,
    ] {
        for peer in [1, 2] {
            let frame = Bytes::copy_from_slice(&frame);
            bench.server.send(peer, frame).expect("raw send");
        }
        bench.round += 1;
        bench.bus.advance(bench.round);
        bench.old.tick(None);
        let start = std::time::Instant::now();
        bench.new.tick(None);
        let took = start.elapsed();
        assert!(took.as_millis() < 400, "quadratic again? {took:?}");
        bench.assert_same();
    }
    assert_eq!(bench.new.auth_tick(), 3);
    let ids: Vec<u64> = bench.new.auth_world().keys().copied().collect();
    assert!(ids.len() > 10_000 && ids[0] >= most, "the soup's new ids");
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
}

#[test]
fn seeded_snapshot_soup_ends_like_the_reference() {
    let mut bench = Bench::new();
    let mut rng = SplitMix64(0xBAD5EED);
    let mut tick = 0;
    for _ in 0..600 {
        tick += 1;
        let keyframe = rng.next().is_multiple_of(8);
        // Usually the baseline the mirror is at, sometimes not.
        let baseline = match (keyframe, rng.next() % 16) {
            (true, _) => 0,
            (false, 0) => tick + 3,
            (false, _) => bench.new.auth_tick(),
        };
        let mut entries: Vec<EntityState> = (0..rng.next() % 12)
            .map(|_| ent(rng.next() % 10, (rng.next() % 4096) as i32))
            .collect();
        if rng.next().is_multiple_of(2) {
            entries.sort_by_key(|e| e.id);
        }
        let removed = (0..rng.next() % 3).map(|_| rng.next() % 12).collect();
        bench.feed(&snapshot(tick, baseline, entries, removed));
        if rng.next().is_multiple_of(4) {
            // Inputs in flight, so reconciliation replays over the soup.
            bench.tick(Some(InputCmd {
                dx: 1,
                dy: -1,
                attack: NO_TARGET,
            }));
            bench.assert_same();
        }
    }
    assert!(bench.new.net_stats().keyframes > 20 && bench.new.net_stats().deltas > 100);
}

#[test]
fn malformed_frames_leave_a_client_where_it_was() {
    let mut bench = Bench::new();
    bench.feed(&snapshot(
        1,
        0,
        vec![ent(1, 1), ent(ME, 2), ent(9, 3)],
        vec![],
    ));
    let valid = snapshot(2, 1, vec![ent(1, 5), ent(9, 6)], vec![ME]);
    let before = bench.new.net_stats();

    // Every truncation, an unknown tag, an empty frame, a count that
    // promises 65 535 entries: nothing is applied, nothing panics. (The
    // reference decodes field by field and rejects the same frames.)
    for cut in 0..valid.len() {
        bench.feed(&valid[..cut]);
    }
    bench.feed(&[0xEE, 1, 2, 3]);
    let mut lying = valid.clone();
    lying[ENTRY_COUNT_AT] = 0xFF;
    lying[ENTRY_COUNT_AT + 1] = 0xFF;
    bench.feed(&lying);
    assert_eq!(bench.new.net_stats(), before);
    assert_eq!(bench.new.auth_tick(), 1);

    // Trailing bytes: the library's parser rejects the frame where the
    // old decoder stopped reading early, so this one is new-only.
    let mut trailing = valid.clone();
    trailing.push(0);
    bench
        .server
        .send(2, Bytes::from(trailing))
        .expect("raw send");
    bench.round += 1;
    bench.bus.advance(bench.round);
    bench.new.tick(None);
    assert_eq!(bench.new.net_stats(), before, "trailing bytes err");

    // The connection is still good: the valid frame applies on both.
    bench.feed(&valid);
    assert_eq!(bench.new.auth_tick(), 2);
    assert!(!bench.new.auth_world().contains_key(&ME));
}

#[test]
fn a_malformed_frame_costs_the_server_one_connection() {
    let bus = Bus::new();
    let transport = BusServerTransport::register(&bus, "server");
    let node = transport.node_id();
    let cfg = SessionConfig::default();
    let mut server = ServerSession::new(transport, cfg, Tracer::disabled());
    let mut good = ClientSession::new(
        BusClientTransport::connect(&bus, "good", node),
        1,
        cfg,
        Tracer::disabled(),
    );
    let mut bad = BusClientTransport::connect(&bus, "bad", node);
    let hello = ClientMsg::Hello {
        user: 2,
        version: PROTO_VERSION,
    };
    bad.send(SERVER_PEER, hello.to_bytes()).expect("hello");
    for round in 1..=3 {
        bus.advance(round);
        good.tick(None);
        server.tick();
    }
    assert_eq!(server.world().len(), 2);

    // An input frame cut short.
    let mut w = WireWriter::new();
    w.put_u8(2);
    w.put_u32(1);
    bad.send(SERVER_PEER, w.finish()).expect("truncated input");
    for round in 4..=8 {
        bus.advance(round);
        good.tick(Some(InputCmd::default()));
        server.tick();
    }
    assert_eq!(server.stats().bad_frames, 1);
    assert_eq!(server.stats().peers_closed, 1);
    assert_eq!(server.peer_count(), 1, "only the offender went");
    assert_eq!(server.world().len(), 1);
    assert_eq!(good.state(), ClientState::Welcomed);
    assert!(!good.auth_world().contains_key(&2), "its entity despawned");
    assert!(server.stats().inputs_applied >= 4, "the loop kept ticking");
}
