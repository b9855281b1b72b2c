//! The literal reference the dense session is checked against: the
//! `BTreeMap` implementation `rtf_transport::session` had before it was
//! rewritten over sorted rows — a tree-map world on both halves, a
//! `BTreeSet` of changed ids, a ring of per-tick position maps scanned for
//! lag compensation, one owned `Snapshot` cloned and encoded per peer, and
//! an owned decode on every client. It speaks the same wire protocol, so
//! fed the same inputs it must put the same bytes on the wire and end in
//! the same state. Test-only; never linked into the library.

#![allow(dead_code)]

use bytes::Bytes;
use roia_obs::{TraceEvent, Tracer};
use rtf_core::wire::{Wire, WireError, WireReader, WireWriter};
use rtf_transport::proto::{
    ClientMsg, EntityState, InputFrame, ServerMsg, Snapshot, NO_TARGET, PROTO_VERSION,
};
use rtf_transport::session::{
    spawn_pos, ClientNetStats, ClientState, Entity, InputCmd, ServerStats, SessionConfig,
    TickReport,
};
use rtf_transport::{CloseReason, PeerId, Transport, TransportError, TransportEvent, SERVER_PEER};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// `ServerMsg::to_bytes` as it was: the counts written with `as u16`.
fn encode_server_msg(msg: &ServerMsg) -> Bytes {
    let ServerMsg::Snapshot(snap) = msg else {
        return msg.to_bytes();
    };
    let mut w = WireWriter::new();
    w.put_u8(2);
    w.put_u64(snap.tick);
    w.put_u64(snap.baseline);
    w.put_u32(snap.ack_seq);
    w.put_u16(snap.entries.len() as u16);
    for e in &snap.entries {
        e.encode(&mut w);
    }
    w.put_u16(snap.removed.len() as u16);
    for id in &snap.removed {
        w.put_u64(*id);
    }
    w.finish()
}

/// `ServerMsg::from_bytes` as it was: an owned decode, field by field,
/// that does not look past the last removal.
fn decode_server_msg(payload: &[u8]) -> Result<ServerMsg, WireError> {
    let mut r = WireReader::new(payload);
    match r.get_u8()? {
        2 => {
            let tick = r.get_u64()?;
            let baseline = r.get_u64()?;
            let ack_seq = r.get_u32()?;
            let n = r.get_u16()?;
            let mut entries = Vec::with_capacity(n as usize);
            for _ in 0..n {
                entries.push(EntityState {
                    id: r.get_u64()?,
                    x: r.get_u32()? as i32,
                    y: r.get_u32()? as i32,
                    health: r.get_u16()? as i16,
                });
            }
            let n = r.get_u16()?;
            let mut removed = Vec::with_capacity(n as usize);
            for _ in 0..n {
                removed.push(r.get_u64()?);
            }
            Ok(ServerMsg::Snapshot(Snapshot {
                tick,
                baseline,
                ack_seq,
                entries,
                removed,
            }))
        }
        _ => ServerMsg::from_bytes(payload),
    }
}

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

/// The lag-compensation ring: per-tick position records, oldest first.
type HistoryRing = VecDeque<(u64, BTreeMap<u64, (i32, i32)>)>;

/// The authoritative server half as it was: owns the world, applies sequenced
/// inputs with per-peer acks, keeps the lag-compensation history ring
/// and broadcasts delta snapshots.
pub struct RefServerSession<T: Transport> {
    transport: T,
    cfg: SessionConfig,
    tracer: Tracer,
    tick: u64,
    world: BTreeMap<u64, Entity>,
    peers: BTreeMap<PeerId, Peer>,
    history: HistoryRing,
    changed: BTreeSet<u64>,
    removed: Vec<u64>,
    events: Vec<TransportEvent>,
    stats: ServerStats,
}

impl<T: Transport> RefServerSession<T> {
    /// Wraps a server transport.
    pub fn new(transport: T, cfg: SessionConfig, tracer: Tracer) -> Self {
        Self {
            transport,
            cfg,
            tracer,
            tick: 0,
            world: BTreeMap::new(),
            peers: BTreeMap::new(),
            history: VecDeque::new(),
            changed: BTreeSet::new(),
            removed: Vec::new(),
            events: Vec::new(),
            stats: ServerStats::default(),
        }
    }

    /// Current server tick.
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// The authoritative world.
    pub fn world(&self) -> &BTreeMap<u64, Entity> {
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
                if version != PROTO_VERSION || self.world.contains_key(&user) {
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
                self.changed.insert(user);
                if let Some(p) = self.peers.get_mut(&peer) {
                    p.user = Some(user);
                }
                self.try_welcome(peer);
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
    fn try_welcome(&mut self, peer: PeerId) {
        let Some(p) = self.peers.get_mut(&peer) else {
            return;
        };
        let Some(user) = p.user else { return };
        if p.welcomed {
            return;
        }
        let Some(ent) = self.world.get(&user) else {
            return;
        };
        let msg = ServerMsg::Welcome {
            user,
            tick: self.tick,
            x: ent.x,
            y: ent.y,
        };
        if self.transport.send(peer, msg.to_bytes()).is_ok() {
            if let Some(p) = self.peers.get_mut(&peer) {
                p.welcomed = true;
                p.needs_keyframe = true;
            }
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
                self.changed.remove(&user);
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
                    self.changed.insert(user);
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
                            self.changed.insert(frame.attack);
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
        let positions: BTreeMap<u64, (i32, i32)> =
            self.world.iter().map(|(id, e)| (*id, (e.x, e.y))).collect();
        self.history.push_back((self.tick, positions));
        while self.history.len() > self.cfg.history_len.max(1) {
            self.history.pop_front();
        }
    }

    fn broadcast(&mut self) -> u32 {
        let mut sent = 0u32;
        let peer_ids: Vec<PeerId> = self.peers.keys().copied().collect();
        let entries_all: Vec<EntityState> = self
            .world
            .iter()
            .map(|(id, e)| EntityState {
                id: *id,
                x: e.x,
                y: e.y,
                health: e.health,
            })
            .collect();
        let entries_changed: Vec<EntityState> = self
            .changed
            .iter()
            .filter_map(|id| {
                self.world.get(id).map(|e| EntityState {
                    id: *id,
                    x: e.x,
                    y: e.y,
                    health: e.health,
                })
            })
            .collect();

        for peer in peer_ids {
            self.try_welcome(peer);
            let Some(p) = self.peers.get(&peer) else {
                continue;
            };
            if !p.welcomed {
                continue;
            }
            let keyframe =
                p.needs_keyframe || self.tick.is_multiple_of(self.cfg.keyframe_interval.max(1));
            let snap = Snapshot {
                tick: self.tick,
                baseline: if keyframe { 0 } else { self.tick - 1 },
                ack_seq: p.applied_seq,
                entries: if keyframe {
                    entries_all.clone()
                } else {
                    entries_changed.clone()
                },
                removed: if keyframe {
                    Vec::new()
                } else {
                    self.removed.clone()
                },
            };
            let bytes = encode_server_msg(&ServerMsg::Snapshot(snap));
            match self.transport.send(peer, bytes) {
                Ok(()) => {
                    sent += 1;
                    self.stats.snapshots_sent += 1;
                    if keyframe {
                        self.stats.keyframes_sent += 1;
                    }
                    if let Some(p) = self.peers.get_mut(&peer) {
                        p.needs_keyframe = false;
                    }
                }
                Err(TransportError::Backpressure { .. }) => {
                    // Degrade, don't disconnect: skip this snapshot and
                    // re-anchor with a keyframe once the queue drains.
                    self.stats.snapshot_skips += 1;
                    if let Some(p) = self.peers.get_mut(&peer) {
                        p.needs_keyframe = true;
                    }
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
    world: &BTreeMap<u64, Entity>,
    id: u64,
    view_tick: u64,
) -> Option<(i32, i32)> {
    let mut chosen: Option<&BTreeMap<u64, (i32, i32)>> = None;
    for (t, snap) in history.iter() {
        if *t <= view_tick || chosen.is_none() {
            chosen = Some(snap);
        }
        if *t > view_tick {
            break;
        }
    }
    if let Some(pos) = chosen.and_then(|snap| snap.get(&id)) {
        return Some(*pos);
    }
    world.get(&id).map(|e| (e.x, e.y))
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// The predicting client half as it was.
pub struct RefClientSession<T: Transport> {
    transport: T,
    cfg: SessionConfig,
    tracer: Tracer,
    user: u64,
    state: ClientState,
    seq: u32,
    pending: VecDeque<InputFrame>,
    auth: BTreeMap<u64, Entity>,
    auth_tick: u64,
    prev: BTreeMap<u64, (i32, i32)>,
    predicted: (i32, i32),
    stats: ClientNetStats,
    events: Vec<TransportEvent>,
}

impl<T: Transport> RefClientSession<T> {
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
            auth: BTreeMap::new(),
            auth_tick: 0,
            prev: BTreeMap::new(),
            predicted: (0, 0),
            stats: ClientNetStats::default(),
            events: Vec::new(),
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
    pub fn auth_world(&self) -> &BTreeMap<u64, Entity> {
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
        let Some(&(px, py)) = self.prev.get(&id) else {
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
            let _ = self.transport.send(SERVER_PEER, ClientMsg::Bye.to_bytes());
            // Flush the farewell before closing.
            self.transport.poll(&mut Vec::new());
        }
        self.transport.close(SERVER_PEER, CloseReason::Bye);
        self.state = ClientState::Closed;
    }

    fn handle_frame(&mut self, payload: &[u8]) -> u32 {
        match decode_server_msg(payload) {
            Ok(ServerMsg::Welcome { user, x, y, .. }) if user == self.user => {
                self.state = ClientState::Welcomed;
                self.predicted = (x, y);
                0
            }
            Ok(ServerMsg::Welcome { .. }) => 0,
            Ok(ServerMsg::Snapshot(snap)) => self.apply_snapshot(snap),
            Err(_) => 0,
        }
    }

    fn apply_snapshot(&mut self, snap: Snapshot) -> u32 {
        if snap.baseline == 0 {
            // Keyframe: replaces the mirror.
            self.prev = self.auth.iter().map(|(id, e)| (*id, (e.x, e.y))).collect();
            self.auth.clear();
            for e in &snap.entries {
                self.auth.insert(
                    e.id,
                    Entity {
                        x: e.x,
                        y: e.y,
                        health: e.health,
                    },
                );
            }
            self.stats.keyframes += 1;
        } else if snap.baseline == self.auth_tick && !self.auth.is_empty() {
            self.prev = self.auth.iter().map(|(id, e)| (*id, (e.x, e.y))).collect();
            for e in &snap.entries {
                self.auth.insert(
                    e.id,
                    Entity {
                        x: e.x,
                        y: e.y,
                        health: e.health,
                    },
                );
            }
            for id in &snap.removed {
                self.auth.remove(id);
            }
            self.stats.deltas += 1;
        } else {
            // Baseline mismatch: unusable delta. The server re-anchors
            // with a keyframe after any skip, so on a reliable transport
            // this stays 0.
            self.stats.desyncs += 1;
            return 0;
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
        let bytes = ClientMsg::Input(frame).to_bytes();
        if self.transport.send(SERVER_PEER, bytes).is_ok() {
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
