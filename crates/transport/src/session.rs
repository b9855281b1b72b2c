//! The authoritative client/server session on top of any [`Transport`]:
//! sequenced inputs with acks, snapshot deltas, client-side prediction +
//! reconciliation, snapshot interpolation and server-side lag
//! compensation.
//!
//! The loop mirrors classic authoritative-server netcode:
//!
//! ```text
//!  client                                server
//!  ──────                                ──────
//!  predict move locally ──Input{seq,view_tick}──▶ queue per peer
//!                                               apply ≤ k inputs/tick
//!                                               rewind history ring to
//!                                                 view_tick for attacks
//!  ◀─Snapshot{tick,baseline,ack_seq,Δ}── broadcast (delta or keyframe)
//!  drop pending ≤ ack_seq
//!  reset to authoritative, re-apply
//!  pending → correction if they differ
//! ```
//!
//! All world state is integral (positions in world units, `i16` health),
//! so prediction on the client replays *exactly* the server's integer
//! arithmetic: corrections occur only when the server knows something
//! the client did not (a respawn teleport after death) — which makes
//! "zero corrections in a peaceful session" a testable invariant, on
//! both the deterministic bus backend and real TCP.
//!
//! This module is on roia-lint's M1 hot path: no `unwrap`, no `expect`,
//! no slice indexing — a malformed frame degrades the one connection,
//! never the tick loop.

use crate::proto::{
    encode_snapshot_body, patch_ack, ClientMsg, EntityState, InputFrame, ServerMsg, SnapshotRef,
    NO_TARGET, PROTO_VERSION, TAG_SNAPSHOT,
};
use crate::{CloseReason, PeerId, Transport, TransportError, TransportEvent};
use roia_obs::{TraceEvent, Tracer};
use rtf_core::wire::{Wire, WireWriter};
use std::collections::{BTreeMap, VecDeque};

/// Tuning knobs shared by both session halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// A full-world keyframe goes out every this many ticks (and after
    /// every backpressure skip, so baselines always re-anchor).
    pub keyframe_interval: u64,
    /// Length of the server's lag-compensation history ring, in ticks.
    pub history_len: usize,
    /// Most inputs applied per peer per tick (catch-up bound).
    pub max_inputs_per_tick: u32,
    /// World units one input step moves an entity.
    pub move_step: i32,
    /// Chebyshev attack range, world units, evaluated at the rewound
    /// positions.
    pub attack_range: i32,
    /// Damage per landed attack.
    pub attack_damage: i16,
    /// Health entities spawn (and respawn) with.
    pub max_health: i16,
    /// Square arena side length; positions clamp to `[0, arena]`.
    pub arena: i32,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            keyframe_interval: 32,
            history_len: 64,
            max_inputs_per_tick: 4,
            move_step: 8,
            attack_range: 96,
            attack_damage: 25,
            max_health: 100,
            arena: 4096,
        }
    }
}

/// Deterministic spawn position for a user (SplitMix64 over the id, so
/// both session halves agree without exchanging randomness).
pub fn spawn_pos(user: u64, arena: i32) -> (i32, i32) {
    let mut z = user.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let side = arena.max(1) as u64;
    ((z % side) as i32, ((z >> 32) % side) as i32)
}

/// One live entity on the server (and mirrored on clients).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entity {
    /// World x.
    pub x: i32,
    /// World y.
    pub y: i32,
    /// Hit points.
    pub health: i16,
}

impl Entity {
    fn from_state(e: &EntityState) -> Self {
        Self {
            x: e.x,
            y: e.y,
            health: e.health,
        }
    }

    fn state(&self, id: u64) -> EntityState {
        EntityState {
            id,
            x: self.x,
            y: self.y,
            health: self.health,
        }
    }
}

/// The entities of a session as rows sorted by id: a lookup is a binary
/// search, iteration walks a slice in id order, and a snapshot — which
/// the server writes in that same order — merges in one pass. Both
/// session halves keep their world in one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct World {
    rows: Vec<(u64, Entity)>,
}

/// Where `id` is (`Ok`) or belongs (`Err`) in id-sorted rows.
fn slot<T>(rows: &[(u64, T)], id: u64) -> Result<usize, usize> {
    rows.binary_search_by_key(&id, |row| row.0)
}

/// The value of `id` in id-sorted rows.
fn find<T>(rows: &[(u64, T)], id: u64) -> Option<&T> {
    rows.get(slot(rows, id).ok()?).map(|row| &row.1)
}

impl World {
    /// Number of entities.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no entities.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The entity `id`, if present.
    pub fn get(&self, id: &u64) -> Option<&Entity> {
        find(&self.rows, *id)
    }

    /// Mutable access to the entity `id`, if present.
    pub fn get_mut(&mut self, id: &u64) -> Option<&mut Entity> {
        let at = slot(&self.rows, *id).ok()?;
        self.rows.get_mut(at).map(|row| &mut row.1)
    }

    /// Whether `id` is present.
    pub fn contains_key(&self, id: &u64) -> bool {
        slot(&self.rows, *id).is_ok()
    }

    /// Inserts or replaces `id`.
    pub fn insert(&mut self, id: u64, entity: Entity) {
        self.upsert_all(std::iter::once(entity.state(id)));
    }

    /// Removes `id`; returns the entity if it was present.
    pub fn remove(&mut self, id: &u64) -> Option<Entity> {
        slot(&self.rows, *id).ok().map(|at| self.rows.remove(at).1)
    }

    /// `(&id, &entity)` in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &Entity)> {
        self.into_iter()
    }

    /// The ids, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &u64> {
        self.rows.iter().map(|row| &row.0)
    }

    /// Inserts or replaces every entry, the last of equal ids winning.
    /// Ascending ids (what a server sends) merge in one pass: an entry is
    /// appended when it is above every row, or else looked for at a cursor
    /// one past its predecessor's row. Any other known id is found by
    /// binary search and any other new id waits at the end for one stable
    /// sort, so no order of entries costs more than O(n log n).
    fn upsert_all(&mut self, entries: impl Iterator<Item = EntityState>) {
        // `rows[..sorted]` is in id order; past it, new ids as they came.
        let mut sorted = self.rows.len();
        let mut at = 0usize;
        for e in entries {
            let row = (e.id, Entity::from_state(&e));
            let len = self.rows.len();
            let known = self.rows.get(..sorted).unwrap_or_default();
            if sorted == len && known.last().is_none_or(|last| last.0 < e.id) {
                at = len;
                sorted += 1;
            } else if known.get(at).is_none_or(|next| next.0 != e.id) {
                at = slot(known, e.id).unwrap_or(len);
            }
            match self.rows.get_mut(at) {
                Some(known) => *known = row,
                None => self.rows.push(row),
            }
            at += 1;
        }
        if let Some(late) = self.rows.get_mut(sorted..).filter(|late| !late.is_empty()) {
            // Newest first, so of equal ids the stable sort puts the one
            // to keep where `dedup` keeps it.
            late.reverse();
            self.rows.sort_by_key(|row| row.0);
            self.rows.dedup_by_key(|row| row.0);
        }
    }

    /// Removes every listed id that is present: one sort of the list and
    /// one pass over the rows, however many there are of either.
    fn remove_all(&mut self, ids: impl Iterator<Item = u64>) {
        let mut gone: Vec<u64> = ids.collect();
        gone.sort_unstable();
        if !gone.is_empty() {
            self.rows.retain(|row| gone.binary_search(&row.0).is_err());
        }
    }

    /// Refills `out` with every entity's `(id, position)`, id order.
    fn positions_into(&self, out: &mut Positions) {
        out.clear();
        out.extend(self.rows.iter().map(|(id, e)| (*id, (e.x, e.y))));
    }
}

impl<'a> IntoIterator for &'a World {
    type Item = (&'a u64, &'a Entity);
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, (u64, Entity)>, fn(&'a (u64, Entity)) -> Self::Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter().map(|row| (&row.0, &row.1))
    }
}

/// `(id, position)` records sorted by id: one tick of the server's
/// lag-compensation history, or the client's previous snapshot.
type Positions = Vec<(u64, (i32, i32))>;

fn clamp_move(pos: (i32, i32), dx: i8, dy: i8, step: i32, arena: i32) -> (i32, i32) {
    (
        (pos.0 + i32::from(dx) * step).clamp(0, arena),
        (pos.1 + i32::from(dy) * step).clamp(0, arena),
    )
}

fn chebyshev(a: (i32, i32), b: (i32, i32)) -> u64 {
    let dx = i64::from(a.0) - i64::from(b.0);
    let dy = i64::from(a.1) - i64::from(b.1);
    dx.abs().max(dy.abs()) as u64
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

/// Per-peer state on the server.
#[derive(Debug)]
struct Peer {
    user: Option<u64>,
    welcomed: bool,
    applied_seq: u32,
    pending: VecDeque<InputFrame>,
    needs_keyframe: bool,
    open_tick: u64,
    bp_since: Option<u64>,
}

/// Server session counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Inputs applied to the world.
    pub inputs_applied: u64,
    /// Snapshots delivered (keyframes included).
    pub snapshots_sent: u64,
    /// Full-world keyframes among them.
    pub keyframes_sent: u64,
    /// Snapshots skipped because the peer's queue pushed back (the peer
    /// keeps its connection; the next successful send is a keyframe).
    pub snapshot_skips: u64,
    /// Lag-compensated attacks that hit at the rewound positions.
    pub rewind_hits: u64,
    /// Lag-compensated attacks that missed.
    pub rewind_misses: u64,
    /// Entities killed (and respawned).
    pub kills: u64,
    /// Frames that failed to decode (connection closed as corrupt).
    pub bad_frames: u64,
    /// Peers that disconnected (any reason).
    pub peers_closed: u64,
    /// Ticks during which at least one peer was under backpressure —
    /// the numerator of the backpressure duty cycle the SLO engine
    /// watches.
    pub bp_ticks: u64,
    /// Peer-ticks spent under backpressure (every congested peer
    /// counts each tick), for sizing how wide an episode was.
    pub bp_peer_ticks: u64,
}

/// What one server tick did — the per-tick egress sample `netdemo`
/// feeds into the byte histograms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// The tick that ran.
    pub tick: u64,
    /// Wire bytes sent during it (frame overhead included).
    pub egress_bytes: u64,
    /// Wire bytes received during it.
    pub ingress_bytes: u64,
    /// Inputs applied.
    pub inputs_applied: u32,
    /// Snapshots delivered.
    pub snapshots_sent: u32,
}

/// The lag-compensation ring: one position record per tick, oldest first.
/// Every tick pushes exactly one, so the ticks are consecutive and a
/// record is found by its distance from the front; a record that falls
/// off the ring lends its buffer to the next.
type HistoryRing = VecDeque<(u64, Positions)>;

/// The authoritative server half: owns the world, applies sequenced
/// inputs with per-peer acks, keeps the lag-compensation history ring
/// and broadcasts delta snapshots.
pub struct ServerSession<T: Transport> {
    transport: T,
    cfg: SessionConfig,
    tracer: Tracer,
    tick: u64,
    world: World,
    peers: BTreeMap<PeerId, Peer>,
    history: HistoryRing,
    /// Ids touched this tick, in touch order; sorted and deduplicated
    /// when the delta is built.
    changed: Vec<u64>,
    removed: Vec<u64>,
    events: Vec<TransportEvent>,
    /// This tick's keyframe and delta frames, each encoded when the first
    /// peer needs it; only `ack_seq` is rewritten from peer to peer.
    keyframe: WireWriter,
    delta: WireWriter,
    stats: ServerStats,
}

impl<T: Transport> ServerSession<T> {
    /// Wraps a server transport.
    pub fn new(transport: T, cfg: SessionConfig, tracer: Tracer) -> Self {
        Self {
            transport,
            cfg,
            tracer,
            tick: 0,
            world: World::default(),
            peers: BTreeMap::new(),
            history: VecDeque::new(),
            changed: Vec::new(),
            removed: Vec::new(),
            events: Vec::new(),
            keyframe: WireWriter::new(),
            delta: WireWriter::new(),
            stats: ServerStats::default(),
        }
    }

    /// Current server tick.
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// The authoritative world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Connected peer count (welcomed or not).
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Backpressure duty cycle so far: fraction of server ticks with at
    /// least one congested peer, in `[0, 1]` (0.0 before any tick).
    pub fn backpressure_duty(&self) -> f64 {
        if self.tick == 0 {
            0.0
        } else {
            self.stats.bp_ticks as f64 / self.tick as f64
        }
    }

    /// The underlying transport (byte accounting lives there).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable transport access (e.g. to reset stats for a measurement
    /// window).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Runs one server tick: poll I/O, apply inputs, record history,
    /// broadcast snapshots.
    pub fn tick(&mut self) -> TickReport {
        self.tick += 1;
        let before = self.transport.total_stats();

        let mut events = std::mem::take(&mut self.events);
        events.clear();
        self.transport.poll(&mut events);
        for ev in events.drain(..) {
            self.handle_event(ev);
        }
        self.events = events;

        let inputs_applied = self.apply_inputs();
        self.push_history();
        let snapshots_sent = self.broadcast();
        self.changed.clear();
        self.removed.clear();

        let congested = self.peers.values().filter(|p| p.bp_since.is_some()).count() as u64;
        if congested > 0 {
            self.stats.bp_ticks += 1;
            self.stats.bp_peer_ticks += congested;
        }

        let after = self.transport.total_stats();
        TickReport {
            tick: self.tick,
            egress_bytes: after.bytes_out.saturating_sub(before.bytes_out),
            ingress_bytes: after.bytes_in.saturating_sub(before.bytes_in),
            inputs_applied,
            snapshots_sent,
        }
    }

    /// Closes every connection (reason `shutdown`) and polls once so the
    /// close events trace.
    pub fn shutdown(&mut self) {
        for peer in self.transport.peers() {
            self.transport.close(peer, CloseReason::Shutdown);
        }
        let mut events = Vec::new();
        self.transport.poll(&mut events);
        for ev in events {
            self.handle_event(ev);
        }
    }

    fn handle_event(&mut self, ev: TransportEvent) {
        match ev {
            TransportEvent::Opened { peer } => {
                self.peers.insert(
                    peer,
                    Peer {
                        user: None,
                        welcomed: false,
                        applied_seq: 0,
                        pending: VecDeque::new(),
                        needs_keyframe: true,
                        open_tick: self.tick,
                        bp_since: None,
                    },
                );
                self.tracer.emit(TraceEvent::ConnOpened {
                    tick: self.tick,
                    peer,
                    transport: self.transport.kind(),
                });
            }
            TransportEvent::Frame { peer, payload } => match ClientMsg::from_bytes(&payload) {
                Ok(msg) => self.handle_msg(peer, msg),
                Err(_) => {
                    self.stats.bad_frames += 1;
                    self.drop_peer(peer, CloseReason::Error);
                }
            },
            TransportEvent::Closed { peer, reason } => {
                // Already gone if we initiated the close ourselves.
                if self.peers.contains_key(&peer) {
                    self.retire_peer(peer, reason);
                }
            }
            TransportEvent::BackpressureOn { peer, queued_bytes } => {
                if let Some(p) = self.peers.get_mut(&peer) {
                    p.bp_since = Some(self.tick);
                }
                self.tracer.emit(TraceEvent::Backpressure {
                    tick: self.tick,
                    cause: self.tick,
                    peer,
                    state: "onset",
                    queued_bytes,
                });
            }
            TransportEvent::BackpressureOff { peer } => {
                let cause = self
                    .peers
                    .get_mut(&peer)
                    .and_then(|p| p.bp_since.take())
                    .unwrap_or(self.tick);
                self.tracer.emit(TraceEvent::Backpressure {
                    tick: self.tick,
                    cause,
                    peer,
                    state: "relief",
                    queued_bytes: 0,
                });
            }
        }
    }

    fn handle_msg(&mut self, peer: PeerId, msg: ClientMsg) {
        match msg {
            ClientMsg::Hello { user, version } => {
                // A snapshot counts its entries in a `u16`: the world is
                // full when a keyframe could not count one more.
                let full = self.world.len() >= usize::from(u16::MAX);
                if version != PROTO_VERSION || full || self.world.contains_key(&user) {
                    self.drop_peer(peer, CloseReason::Error);
                    return;
                }
                let (x, y) = spawn_pos(user, self.cfg.arena);
                self.world.insert(
                    user,
                    Entity {
                        x,
                        y,
                        health: self.cfg.max_health,
                    },
                );
                self.changed.push(user);
                if let Some(p) = self.peers.get_mut(&peer) {
                    p.user = Some(user);
                    Self::welcome(&mut self.transport, &self.world, self.tick, peer, p);
                }
            }
            ClientMsg::Input(frame) => {
                let Some(p) = self.peers.get_mut(&peer) else {
                    return;
                };
                if !p.welcomed && p.user.is_none() {
                    return; // inputs before hello are ignored
                }
                let newest = p.pending.back().map_or(p.applied_seq, |f| f.seq);
                if frame.seq > newest && p.pending.len() < 256 {
                    p.pending.push_back(frame);
                }
            }
            ClientMsg::Bye => self.drop_peer(peer, CloseReason::Bye),
        }
    }

    /// Sends (or re-sends, after backpressure) the welcome for a peer.
    fn welcome(transport: &mut T, world: &World, tick: u64, peer: PeerId, p: &mut Peer) {
        let Some(user) = p.user else { return };
        if p.welcomed {
            return;
        }
        let Some(ent) = world.get(&user) else {
            return;
        };
        let msg = ServerMsg::Welcome {
            user,
            tick,
            x: ent.x,
            y: ent.y,
        };
        if transport.send(peer, msg.to_bytes()).is_ok() {
            p.welcomed = true;
            p.needs_keyframe = true;
        }
    }

    /// Session-initiated disconnect: despawn, close the transport side,
    /// trace. The transport's own `Closed` echo is ignored later.
    fn drop_peer(&mut self, peer: PeerId, reason: CloseReason) {
        self.retire_peer(peer, reason);
        self.transport.close(peer, reason);
    }

    /// Removes peer bookkeeping + entity and traces the close.
    fn retire_peer(&mut self, peer: PeerId, reason: CloseReason) {
        let Some(p) = self.peers.remove(&peer) else {
            return;
        };
        if let Some(user) = p.user {
            if self.world.remove(&user).is_some() {
                self.changed.retain(|id| *id != user);
                self.removed.push(user);
            }
        }
        self.stats.peers_closed += 1;
        self.tracer.emit(TraceEvent::ConnClosed {
            tick: self.tick,
            cause: p.open_tick,
            peer,
            reason: reason.as_str(),
        });
    }

    fn apply_inputs(&mut self) -> u32 {
        let mut applied = 0u32;
        // Peers iterate in id order: deterministic on the bus backend.
        let cfg = self.cfg;
        for (_peer, p) in self.peers.iter_mut() {
            let Some(user) = p.user else { continue };
            let mut budget = cfg.max_inputs_per_tick;
            while budget > 0 {
                let Some(frame) = p.pending.pop_front() else {
                    break;
                };
                budget -= 1;
                p.applied_seq = frame.seq;
                applied += 1;
                self.stats.inputs_applied += 1;

                if let Some(ent) = self.world.get_mut(&user) {
                    let (nx, ny) =
                        clamp_move((ent.x, ent.y), frame.dx, frame.dy, cfg.move_step, cfg.arena);
                    if (nx, ny) != (ent.x, ent.y) {
                        ent.x = nx;
                        ent.y = ny;
                    }
                    self.changed.push(user);
                }

                if frame.attack != NO_TARGET && frame.attack != user {
                    let attacker = rewound_pos(&self.history, &self.world, user, frame.view_tick);
                    let target =
                        rewound_pos(&self.history, &self.world, frame.attack, frame.view_tick);
                    let hit = match (attacker, target) {
                        (Some(a), Some(t)) => chebyshev(a, t) <= cfg.attack_range as u64,
                        _ => false,
                    };
                    if hit {
                        self.stats.rewind_hits += 1;
                        if let Some(victim) = self.world.get_mut(&frame.attack) {
                            victim.health -= cfg.attack_damage;
                            if victim.health <= 0 {
                                let (sx, sy) = spawn_pos(frame.attack, cfg.arena);
                                victim.x = sx;
                                victim.y = sy;
                                victim.health = cfg.max_health;
                                self.stats.kills += 1;
                            }
                            self.changed.push(frame.attack);
                        }
                    } else {
                        self.stats.rewind_misses += 1;
                    }
                }
            }
        }
        applied
    }

    fn push_history(&mut self) {
        let mut record = Positions::new();
        if self.history.len() >= self.cfg.history_len.max(1) {
            if let Some((_, oldest)) = self.history.pop_front() {
                record = oldest;
            }
        }
        self.world.positions_into(&mut record);
        self.history.push_back((self.tick, record));
    }

    fn broadcast(&mut self) -> u32 {
        let mut sent = 0u32;
        self.changed.sort_unstable();
        self.changed.dedup();
        self.keyframe.clear();
        self.delta.clear();
        let tick = self.tick;
        let periodic = tick.is_multiple_of(self.cfg.keyframe_interval.max(1));

        for (&peer, p) in self.peers.iter_mut() {
            Self::welcome(&mut self.transport, &self.world, tick, peer, p);
            if !p.welcomed {
                continue;
            }
            let keyframe = p.needs_keyframe || periodic;
            let frame = if keyframe {
                &mut self.keyframe
            } else {
                &mut self.delta
            };
            if frame.is_empty() {
                // First peer this tick to need this kind of frame.
                let world = &self.world;
                frame.put_u8(TAG_SNAPSHOT);
                if keyframe {
                    let all = world.iter().map(|(id, e)| e.state(*id));
                    encode_snapshot_body(frame, tick, 0, 0, all, &[]);
                } else {
                    let changed = self.changed.iter();
                    let changed = changed.filter_map(|id| world.get(id).map(|e| e.state(*id)));
                    encode_snapshot_body(frame, tick, tick - 1, 0, changed, &self.removed);
                }
            }
            patch_ack(frame, p.applied_seq);
            match self.transport.send(peer, frame.copy_frame()) {
                Ok(()) => {
                    sent += 1;
                    self.stats.snapshots_sent += 1;
                    if keyframe {
                        self.stats.keyframes_sent += 1;
                    }
                    p.needs_keyframe = false;
                }
                Err(TransportError::Backpressure { .. }) => {
                    // Degrade, don't disconnect: skip this snapshot and
                    // re-anchor with a keyframe once the queue drains.
                    self.stats.snapshot_skips += 1;
                    p.needs_keyframe = true;
                }
                Err(_) => {
                    // Close event will arrive on the next poll.
                }
            }
        }
        sent
    }
}

/// Newest recorded position of `id` at or before `view_tick`; falls
/// back to the oldest record, then the live world (covers both "client
/// views the present" and "ring does not reach that far back").
fn rewound_pos(
    history: &HistoryRing,
    world: &World,
    id: u64,
    view_tick: u64,
) -> Option<(i32, i32)> {
    let front_tick = history.front().map_or(0, |(tick, _)| *tick);
    let back = usize::try_from(view_tick.saturating_sub(front_tick)).unwrap_or(usize::MAX);
    let at = back.min(history.len().saturating_sub(1));
    history
        .get(at)
        .and_then(|(_, record)| find(record, id).copied())
        .or_else(|| world.get(&id).map(|e| (e.x, e.y)))
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// One client input before encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputCmd {
    /// Movement on x (steps).
    pub dx: i8,
    /// Movement on y (steps).
    pub dy: i8,
    /// Entity to attack, or [`NO_TARGET`].
    pub attack: u64,
}

impl Default for InputCmd {
    fn default() -> Self {
        Self {
            dx: 0,
            dy: 0,
            attack: NO_TARGET,
        }
    }
}

/// Connection state of a [`ClientSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientState {
    /// Waiting for the transport to open / the server to welcome us.
    Connecting,
    /// In the session, exchanging inputs and snapshots.
    Welcomed,
    /// Connection closed.
    Closed,
}

/// Client-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientNetStats {
    /// Inputs sent.
    pub inputs_sent: u64,
    /// Snapshots applied (keyframes + deltas).
    pub snapshots_applied: u64,
    /// Keyframes among them.
    pub keyframes: u64,
    /// Deltas among them.
    pub deltas: u64,
    /// Deltas discarded because their baseline did not match our
    /// authoritative tick (should stay 0 on a reliable transport).
    pub desyncs: u64,
    /// Reconciliation corrections (prediction disagreed with the
    /// authoritative replay).
    pub corrections: u64,
    /// Largest correction, Chebyshev world units.
    pub max_correction: u64,
}

/// The predicting client half.
pub struct ClientSession<T: Transport> {
    transport: T,
    cfg: SessionConfig,
    tracer: Tracer,
    user: u64,
    state: ClientState,
    seq: u32,
    pending: VecDeque<InputFrame>,
    auth: World,
    auth_tick: u64,
    prev: Positions,
    predicted: (i32, i32),
    stats: ClientNetStats,
    events: Vec<TransportEvent>,
    /// Encode buffer reused from input to input.
    out: WireWriter,
}

impl<T: Transport> ClientSession<T> {
    /// Wraps a client transport for `user`. The hello goes out when the
    /// transport reports its connection open.
    pub fn new(transport: T, user: u64, cfg: SessionConfig, tracer: Tracer) -> Self {
        Self {
            transport,
            cfg,
            tracer,
            user,
            state: ClientState::Connecting,
            seq: 0,
            pending: VecDeque::new(),
            auth: World::default(),
            auth_tick: 0,
            prev: Positions::new(),
            predicted: (0, 0),
            stats: ClientNetStats::default(),
            events: Vec::new(),
            out: WireWriter::new(),
        }
    }

    /// The user this session represents.
    pub fn user(&self) -> u64 {
        self.user
    }

    /// Connection state.
    pub fn state(&self) -> ClientState {
        self.state
    }

    /// Counters.
    pub fn net_stats(&self) -> ClientNetStats {
        self.stats
    }

    /// Inputs sent but not yet acked by a snapshot.
    pub fn pending_inputs(&self) -> usize {
        self.pending.len()
    }

    /// Tick of the newest applied snapshot.
    pub fn auth_tick(&self) -> u64 {
        self.auth_tick
    }

    /// The mirrored authoritative world (self included).
    pub fn auth_world(&self) -> &World {
        &self.auth
    }

    /// The locally predicted own position (authoritative base + pending
    /// unacked inputs).
    pub fn predicted_pos(&self) -> (i32, i32) {
        self.predicted
    }

    /// The underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Renders a remote entity between the previous and the newest
    /// snapshot: position at `alpha = num/den` of the way. Returns the
    /// newest position when no previous sample exists.
    pub fn interpolated(&self, id: u64, num: i64, den: i64) -> Option<(i32, i32)> {
        let e = self.auth.get(&id)?;
        let Some(&(px, py)) = find(&self.prev, id) else {
            return Some((e.x, e.y));
        };
        if den <= 0 {
            return Some((e.x, e.y));
        }
        let a = num.clamp(0, den);
        let lerp = |from: i32, to: i32| -> i32 {
            let d = i64::from(to) - i64::from(from);
            (i64::from(from) + d * a / den) as i32
        };
        Some((lerp(px, e.x), lerp(py, e.y)))
    }

    /// Runs one client iteration: poll the transport, apply snapshots
    /// (reconciling prediction), then send `input` if connected.
    /// Returns the number of snapshots applied this call.
    pub fn tick(&mut self, input: Option<InputCmd>) -> u32 {
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        self.transport.poll(&mut events);
        let mut snapshots = 0u32;
        for ev in events.drain(..) {
            match ev {
                TransportEvent::Opened { peer } => {
                    let hello = ClientMsg::Hello {
                        user: self.user,
                        version: PROTO_VERSION,
                    };
                    let _ = self.transport.send(peer, hello.to_bytes());
                }
                TransportEvent::Frame { payload, .. } => {
                    snapshots += self.handle_frame(&payload);
                }
                TransportEvent::Closed { .. } => {
                    self.state = ClientState::Closed;
                }
                TransportEvent::BackpressureOn { .. } | TransportEvent::BackpressureOff { .. } => {}
            }
        }
        self.events = events;

        if self.state == ClientState::Welcomed {
            if let Some(cmd) = input {
                self.send_input(cmd);
            }
        }
        snapshots
    }

    /// Politely leaves the session.
    pub fn bye(&mut self) {
        if self.state == ClientState::Welcomed {
            let _ = self
                .transport
                .send(crate::SERVER_PEER, ClientMsg::Bye.to_bytes());
            // Flush the farewell before closing.
            self.transport.poll(&mut Vec::new());
        }
        self.transport.close(crate::SERVER_PEER, CloseReason::Bye);
        self.state = ClientState::Closed;
    }

    fn handle_frame(&mut self, payload: &[u8]) -> u32 {
        if let Some((&TAG_SNAPSHOT, body)) = payload.split_first() {
            // The hot frame is applied in place, never decoded into an
            // owned message.
            return SnapshotRef::parse(body).map_or(0, |snap| self.apply_snapshot(&snap));
        }
        if let Ok(ServerMsg::Welcome { user, x, y, .. }) = ServerMsg::from_bytes(payload) {
            if user == self.user {
                self.state = ClientState::Welcomed;
                self.predicted = (x, y);
            }
        }
        0
    }

    fn apply_snapshot(&mut self, snap: &SnapshotRef<'_>) -> u32 {
        let keyframe = snap.baseline == 0;
        if !keyframe && (snap.baseline != self.auth_tick || self.auth.is_empty()) {
            // Baseline mismatch: unusable delta. The server re-anchors
            // with a keyframe after any skip, so on a reliable transport
            // this stays 0.
            self.stats.desyncs += 1;
            return 0;
        }
        self.auth.positions_into(&mut self.prev);
        if keyframe {
            self.auth.rows.clear();
        }
        self.auth.upsert_all(snap.entries());
        if keyframe {
            // (A keyframe replaces the mirror; removals it carries are moot.)
            self.stats.keyframes += 1;
        } else {
            self.auth.remove_all(snap.removed());
            self.stats.deltas += 1;
        }
        self.auth_tick = snap.tick;
        self.stats.snapshots_applied += 1;
        self.reconcile(snap.ack_seq, snap.tick);
        1
    }

    /// Drops acked inputs, then replays the unacked tail on top of the
    /// authoritative own position — the classic reconciliation step.
    fn reconcile(&mut self, ack_seq: u32, server_tick: u64) {
        while self
            .pending
            .front()
            .is_some_and(|frame| frame.seq <= ack_seq)
        {
            self.pending.pop_front();
        }
        let Some(me) = self.auth.get(&self.user) else {
            return;
        };
        let mut replayed = (me.x, me.y);
        for frame in &self.pending {
            replayed = clamp_move(
                replayed,
                frame.dx,
                frame.dy,
                self.cfg.move_step,
                self.cfg.arena,
            );
        }
        if replayed != self.predicted {
            let error = chebyshev(replayed, self.predicted);
            self.stats.corrections += 1;
            self.stats.max_correction = self.stats.max_correction.max(error);
            self.tracer.emit(TraceEvent::ReconcileCorrection {
                tick: server_tick,
                cause: server_tick,
                peer: self.user,
                seq: ack_seq,
                error,
            });
            self.predicted = replayed;
        }
    }

    /// Predict locally, remember the frame for reconciliation, send.
    fn send_input(&mut self, cmd: InputCmd) {
        let frame = InputFrame {
            seq: self.seq + 1,
            view_tick: self.auth_tick,
            dx: cmd.dx,
            dy: cmd.dy,
            attack: cmd.attack,
        };
        self.out.clear();
        ClientMsg::Input(frame).encode(&mut self.out);
        let bytes = self.out.copy_frame();
        if self.transport.send(crate::SERVER_PEER, bytes).is_ok() {
            self.seq += 1;
            self.predicted = clamp_move(
                self.predicted,
                cmd.dx,
                cmd.dy,
                self.cfg.move_step,
                self.cfg.arena,
            );
            self.pending.push_back(frame);
            self.stats.inputs_sent += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{BusClientTransport, BusServerTransport};
    use rtf_net::Bus;

    type BusServer = ServerSession<BusServerTransport>;
    type BusClient = ClientSession<BusClientTransport>;

    fn setup(users: &[u64], cfg: SessionConfig) -> (BusServer, Vec<BusClient>) {
        let bus = Bus::new();
        let server_t = BusServerTransport::register(&bus, "server");
        let node = server_t.node_id();
        let server = ServerSession::new(server_t, cfg, Tracer::disabled());
        let clients = users
            .iter()
            .map(|u| {
                let t = BusClientTransport::connect(&bus, &format!("c{u}"), node);
                ClientSession::new(t, *u, cfg, Tracer::disabled())
            })
            .collect();
        (server, clients)
    }

    /// Lock-step round: clients first (connect/input), then the server.
    fn round(server: &mut BusServer, clients: &mut [BusClient], inputs: &[Option<InputCmd>]) {
        for (c, input) in clients.iter_mut().zip(inputs.iter()) {
            c.tick(*input);
        }
        server.tick();
    }

    #[test]
    fn clients_join_and_mirror_the_world() {
        let cfg = SessionConfig::default();
        let (mut server, mut clients) = setup(&[1, 2, 3], cfg);
        for _ in 0..4 {
            round(&mut server, &mut clients, &[None, None, None]);
        }
        assert_eq!(server.world().len(), 3);
        for c in &clients {
            assert_eq!(c.state(), ClientState::Welcomed);
            assert_eq!(c.auth_world().len(), 3, "keyframe mirrored the world");
            assert_eq!(c.net_stats().desyncs, 0);
        }
    }

    #[test]
    fn prediction_matches_server_without_combat() {
        let cfg = SessionConfig::default();
        let (mut server, mut clients) = setup(&[7, 8], cfg);
        round(&mut server, &mut clients, &[None, None]);
        round(&mut server, &mut clients, &[None, None]);

        // Walk client 7 around; no combat anywhere.
        let moves = [(1i8, 0i8), (1, 1), (0, -1), (-1, 1), (1, 0)];
        for (dx, dy) in moves {
            let cmd = InputCmd {
                dx,
                dy,
                attack: NO_TARGET,
            };
            round(&mut server, &mut clients, &[Some(cmd), None]);
        }
        // Let the last snapshot come back.
        round(&mut server, &mut clients, &[None, None]);
        round(&mut server, &mut clients, &[None, None]);

        let c = clients.first().expect("client 7");
        let server_pos = server.world().get(&7).map(|e| (e.x, e.y));
        assert_eq!(Some(c.predicted_pos()), server_pos);
        assert_eq!(
            c.net_stats().corrections,
            0,
            "integer prediction replays the server exactly: {:?}",
            c.net_stats()
        );
        assert_eq!(c.pending_inputs(), 0, "everything acked");
        assert!(c.net_stats().deltas > 0, "deltas flowed");
    }

    #[test]
    fn respawn_teleport_forces_a_correction() {
        // One hit kills, and range covers the whole arena so spawn
        // positions don't matter.
        let cfg = SessionConfig {
            attack_damage: 100,
            attack_range: i32::MAX,
            ..SessionConfig::default()
        };
        let (mut server, mut clients) = setup(&[1, 2], cfg);
        for _ in 0..3 {
            round(&mut server, &mut clients, &[None, None]);
        }
        // 1 moves (so it has a predicted offset), 2 kills 1.
        let walk = InputCmd {
            dx: 1,
            dy: 0,
            attack: NO_TARGET,
        };
        let kill = InputCmd {
            dx: 0,
            dy: 0,
            attack: 1,
        };
        round(&mut server, &mut clients, &[Some(walk), Some(kill)]);
        for _ in 0..3 {
            round(&mut server, &mut clients, &[None, None]);
        }
        assert_eq!(server.stats().rewind_hits, 1);
        assert_eq!(server.stats().kills, 1);
        let c1 = clients.first().expect("client 1");
        assert!(
            c1.net_stats().corrections >= 1,
            "respawn teleports the victim: {:?}",
            c1.net_stats()
        );
        // After reconciliation the client agrees with the server again.
        assert_eq!(
            Some(c1.predicted_pos()),
            server.world().get(&1).map(|e| (e.x, e.y))
        );
    }

    #[test]
    fn lag_compensation_rewinds_to_view_tick() {
        // Raw transports (no ClientSession) so input frames can carry a
        // crafted view_tick: target 2 stands near attacker 1 at tick T,
        // then sprints away. An attack viewed at the present misses; an
        // attack with view_tick = T rewinds the history ring and hits.
        let cfg = SessionConfig {
            attack_range: 16,
            ..SessionConfig::default()
        };
        let bus = Bus::new();
        let server_t = BusServerTransport::register(&bus, "server");
        let node = server_t.node_id();
        let mut server = ServerSession::new(server_t, cfg, Tracer::disabled());
        let mut a = BusClientTransport::connect(&bus, "a", node);
        let mut b = BusClientTransport::connect(&bus, "b", node);
        for (t, user) in [(&mut a, 1u64), (&mut b, 2u64)] {
            let hello = ClientMsg::Hello {
                user,
                version: PROTO_VERSION,
            };
            t.send(crate::SERVER_PEER, hello.to_bytes()).expect("hello");
        }
        server.tick();

        // Walk b next to a with sequenced inputs.
        let (ax, ay) = server.world().get(&1).map(|e| (e.x, e.y)).expect("a");
        let mut seq = 0u32;
        let near_tick = loop {
            let (bx, by) = server.world().get(&2).map(|e| (e.x, e.y)).expect("b");
            if chebyshev((ax, ay), (bx, by)) <= 8 {
                break server.tick_count();
            }
            seq += 1;
            let frame = InputFrame {
                seq,
                view_tick: server.tick_count(),
                dx: ((ax - bx).clamp(-8, 8) / 8) as i8,
                dy: ((ay - by).clamp(-8, 8) / 8) as i8,
                attack: NO_TARGET,
            };
            b.send(crate::SERVER_PEER, ClientMsg::Input(frame).to_bytes())
                .expect("walk input");
            server.tick();
        };

        // b sprints away: far outside attack range at present time.
        for _ in 0..6 {
            seq += 1;
            let frame = InputFrame {
                seq,
                view_tick: server.tick_count(),
                dx: 1,
                dy: 1,
                attack: NO_TARGET,
            };
            b.send(crate::SERVER_PEER, ClientMsg::Input(frame).to_bytes())
                .expect("sprint input");
            server.tick();
        }
        let (bx, by) = server.world().get(&2).map(|e| (e.x, e.y)).expect("b");
        assert!(
            chebyshev((ax, ay), (bx, by)) > cfg.attack_range as u64,
            "b escaped at present time"
        );

        // Attack viewed at the present: out of range, a miss.
        let miss = InputFrame {
            seq: 1,
            view_tick: server.tick_count(),
            dx: 0,
            dy: 0,
            attack: 2,
        };
        a.send(crate::SERVER_PEER, ClientMsg::Input(miss).to_bytes())
            .expect("miss input");
        server.tick();
        assert_eq!(server.stats().rewind_hits, 0);
        assert_eq!(server.stats().rewind_misses, 1);

        // Attack viewed back when b was near: the ring rewinds and hits.
        let hit = InputFrame {
            seq: 2,
            view_tick: near_tick,
            dx: 0,
            dy: 0,
            attack: 2,
        };
        a.send(crate::SERVER_PEER, ClientMsg::Input(hit).to_bytes())
            .expect("hit input");
        server.tick();
        assert_eq!(server.stats().rewind_hits, 1, "{:?}", server.stats());
        assert_eq!(server.stats().rewind_misses, 1);
    }

    #[test]
    fn interpolation_is_between_snapshots() {
        let cfg = SessionConfig::default();
        let (mut server, mut clients) = setup(&[1, 2], cfg);
        for _ in 0..3 {
            round(&mut server, &mut clients, &[None, None]);
        }
        // Client 2 walks; client 1 interpolates client 2's motion.
        let cmd = InputCmd {
            dx: 1,
            dy: 0,
            attack: NO_TARGET,
        };
        round(&mut server, &mut clients, &[None, Some(cmd)]);
        // Apply the snapshot that carries the move (one client poll);
        // don't run further rounds — an empty delta would refresh the
        // previous sample and collapse the interpolation window.
        let c1 = clients.first_mut().expect("client 1");
        c1.tick(None);
        let newest = c1.auth_world().get(&2).map(|e| (e.x, e.y)).expect("2");
        let mid = c1.interpolated(2, 1, 2).expect("interpolable");
        let full = c1.interpolated(2, 2, 2).expect("interpolable");
        assert_eq!(full, newest, "alpha=1 lands on the newest snapshot");
        // The midpoint x sits strictly between the two samples whenever
        // they differ; the move was +8 on x, so midpoint is newest-4.
        assert_eq!(mid.0, newest.0 - 4);
        assert_eq!(mid.1, newest.1);
    }

    #[test]
    fn bye_despawns_and_notifies_other_clients() {
        let cfg = SessionConfig::default();
        let (mut server, mut clients) = setup(&[1, 2], cfg);
        for _ in 0..3 {
            round(&mut server, &mut clients, &[None, None]);
        }
        if let Some(c2) = clients.get_mut(1) {
            c2.bye();
        }
        for _ in 0..3 {
            if let Some(c1) = clients.get_mut(0) {
                c1.tick(None);
            }
            server.tick();
        }
        if let Some(c1) = clients.get_mut(0) {
            c1.tick(None);
            assert!(
                !c1.auth_world().contains_key(&2),
                "removal propagated: {:?}",
                c1.auth_world().keys().collect::<Vec<_>>()
            );
        }
        assert_eq!(server.world().len(), 1);
        assert_eq!(server.stats().peers_closed, 1);
    }

    #[test]
    fn world_behaves_like_the_ordered_map_it_replaced() {
        use std::collections::BTreeMap;
        let ent = |x: i32| Entity {
            x,
            y: -x,
            health: x as i16,
        };
        let mut world = World::default();
        let mut map = BTreeMap::new();
        let mut z = 7u64;
        for step in 0..2_000 {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = (z >> 33) % 48;
            match (z >> 20) % 4 {
                0 => assert_eq!(world.remove(&id), map.remove(&id), "step {step}"),
                1 => {
                    // A batch in whatever order the stream gives, with
                    // repeats: the last of equal ids wins in both.
                    let batch: Vec<EntityState> = (0..(z >> 8) % 14)
                        .map(|k| ent(step + k as i32).state((id + (z >> (3 * k)) % 6) % 48))
                        .collect();
                    world.upsert_all(batch.iter().copied());
                    for e in &batch {
                        map.insert(e.id, Entity::from_state(e));
                    }
                }
                _ => {
                    world.insert(id, ent(step));
                    map.insert(id, ent(step));
                }
            }
            assert_eq!(world.get(&id), map.get(&id));
            assert_eq!(world.contains_key(&id), map.contains_key(&id));
            assert_eq!(world.len(), map.len());
            assert!(
                world.iter().eq(map.iter()),
                "step {step}: same rows, same order"
            );
        }
        assert!(world.keys().eq(map.keys()));
        assert!((&world).into_iter().eq(&map));
        let first = world.keys().next().copied().expect("not empty");
        world.get_mut(&first).expect("present").health = -1;
        assert_eq!(world.iter().next().map(|(_, e)| e.health), Some(-1));
        assert_eq!(world.is_empty(), map.is_empty());
    }

    #[test]
    fn hello_past_the_u16_entry_count_is_refused() {
        let cfg = SessionConfig::default();
        let bus = Bus::new();
        let server_t = BusServerTransport::register(&bus, "server");
        let node = server_t.node_id();
        let mut server = ServerSession::new(server_t, cfg, Tracer::disabled());
        // One short of full, without 65 534 connections.
        let full = u64::from(u16::MAX);
        server.world.rows = (0..full - 1)
            .map(|id| {
                let e = Entity {
                    x: 0,
                    y: 0,
                    health: 1,
                };
                (id, e)
            })
            .collect();

        let mut last = ClientSession::new(
            BusClientTransport::connect(&bus, "last", node),
            full,
            cfg,
            Tracer::disabled(),
        );
        let mut late = ClientSession::new(
            BusClientTransport::connect(&bus, "late", node),
            full + 1,
            cfg,
            Tracer::disabled(),
        );
        last.tick(None);
        server.tick();
        assert_eq!(server.world().len(), usize::from(u16::MAX), "the last seat");
        late.tick(None);
        server.tick();
        for _ in 0..2 {
            last.tick(None);
            late.tick(None);
            server.tick();
        }
        assert_eq!(server.world().len(), usize::from(u16::MAX));
        // (The bus backend does not echo a server-side close to the client.)
        assert_eq!(late.state(), ClientState::Connecting, "never welcomed");
        assert!(!server.world().contains_key(&(full + 1)));
        assert_eq!(server.stats().peers_closed, 1);
        assert_eq!(server.stats().bad_frames, 0, "a well-formed frame");
        assert_eq!(server.peer_count(), 1);
        // The keyframe counts every entity: no wrapped count on the wire.
        assert_eq!(last.state(), ClientState::Welcomed);
        assert_eq!(last.auth_world().len(), usize::from(u16::MAX));
        assert!(last.auth_world() == server.world());
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || -> (Vec<(u64, Entity)>, ServerStats, u64) {
            let cfg = SessionConfig::default();
            let (mut server, mut clients) = setup(&[10, 20, 30], cfg);
            for t in 0..40u64 {
                let inputs: Vec<Option<InputCmd>> = (0..3)
                    .map(|i| {
                        Some(InputCmd {
                            dx: ((t + i) % 3) as i8 - 1,
                            dy: ((t * 7 + i) % 3) as i8 - 1,
                            attack: if t % 11 == 0 { 10 } else { NO_TARGET },
                        })
                    })
                    .collect();
                round(&mut server, &mut clients, &inputs);
            }
            let world: Vec<(u64, Entity)> = server.world().iter().map(|(k, v)| (*k, *v)).collect();
            let egress = server.transport().total_stats().bytes_out;
            (world, server.stats(), egress)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "bus-backed sessions are bit-deterministic");
    }
}
