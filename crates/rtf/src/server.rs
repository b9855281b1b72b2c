//! The application server and its real-time loop (§II).
//!
//! A [`Server`] executes one iteration of the real-time loop per call to
//! [`Server::tick`]:
//!
//! 1. receive inputs from connected users (and forwarded traffic from the
//!    other replicas of its zone),
//! 2. compute the new application state,
//! 3. send state updates to its users and replica updates to its peers.
//!
//! The tick is a pipeline of phases, each one pass over everything of its
//! kind that arrived this tick: receive and classify, migrations in,
//! connection control, replica updates, forwarded inputs, user inputs,
//! NPCs, migrations out, interest management, state-update encoding,
//! replica update. A phase decodes its envelopes in one go, then makes
//! one call into the [`Application`] over the whole batch. Each phase is
//! attributed to the corresponding model task
//! ([`crate::timer::TaskKind`]) with one [`TickTimers::time`] span — by
//! the framework where a phase bills one task, by the application where
//! one call covers two (decoding input payloads vs applying them) —
//! exactly the division of measurement responsibility §III-C describes.
//!
//! Outgoing frames are encoded once: the framework writes the envelope
//! head into the tick's reusable [`WireWriter`], the application appends
//! its payload in place, the framework patches the payload length and
//! copies the finished frame out.

use crate::entity::UserId;
use crate::event::{Packet, PacketRef};
use crate::metrics::{MetricsLog, TickRecord};
use crate::timer::{TaskKind, TickTimers, TimeMode, TASK_COUNT};
use crate::wire::{Wire, WireReader, WireWriter};
use crate::zone::ZoneId;
use bytes::Bytes;
use rtf_net::{Bus, Endpoint, Message, NodeId};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

/// Context handed to every per-tick [`Application`] call.
pub struct TickCtx<'a> {
    /// The server's current tick number.
    pub tick: u64,
    /// This server's network identity.
    pub server: NodeId,
    /// Per-task timers: `time` for wall measurement, `charge` for virtual
    /// cost attribution.
    pub timers: &'a mut TickTimers,
}

/// One received envelope of a [`Batch`]: its decoded head, and where its
/// opaque application payload sits in the tick's receive buffers (the
/// payload is handed on by reference, never copied).
#[derive(Debug, Clone, Copy)]
pub struct Envelope<H> {
    head: H,
    buf: usize,
    start: usize,
    end: usize,
}

impl<H> Envelope<H> {
    /// An envelope whose payload is the bytes `payload` of receive buffer
    /// number `buf`.
    pub fn new(head: H, buf: usize, payload: Range<usize>) -> Self {
        Self {
            head,
            buf,
            start: payload.start,
            end: payload.end,
        }
    }
}

/// Every envelope of one kind received this tick, in arrival order.
#[derive(Debug, Clone, Copy)]
pub struct Batch<'a, H> {
    bufs: &'a [Bytes],
    envelopes: &'a [Envelope<H>],
}

impl<'a, H: Copy> Batch<'a, H> {
    /// A batch of `envelopes` whose payloads sit in `bufs`.
    pub fn new(bufs: &'a [Bytes], envelopes: &'a [Envelope<H>]) -> Self {
        Self { bufs, envelopes }
    }

    /// Number of envelopes.
    pub fn len(&self) -> usize {
        self.envelopes.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.envelopes.is_empty()
    }

    /// The envelopes as `(head, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (H, &'a [u8])> + 'a {
        let bufs = self.bufs;
        self.envelopes.iter().map(move |e| {
            let payload = bufs
                .get(e.buf)
                .and_then(|b| b.get(e.start..e.end))
                .unwrap_or(&[]);
            (e.head, payload)
        })
    }
}

/// One per-tick replica update as the application sees it.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaUpdate<'a> {
    /// The replica that owns the entities in this update.
    pub origin: NodeId,
    /// The users the origin lists as its own, ascending and unique (the
    /// framework sorts and de-duplicates what arrives otherwise).
    pub users: &'a [UserId],
    /// Application-defined state payload.
    pub payload: &'a [u8],
}

/// The replica updates received this tick, in arrival order. An envelope's
/// head is the origin plus the range of `listed` holding its user list.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaUpdates<'a> {
    batch: Batch<'a, (NodeId, usize, usize)>,
    listed: &'a [UserId],
}

impl<'a> ReplicaUpdates<'a> {
    /// Updates whose user lists are ranges of `listed`.
    pub fn new(batch: Batch<'a, (NodeId, usize, usize)>, listed: &'a [UserId]) -> Self {
        Self { batch, listed }
    }

    /// The updates.
    pub fn iter(&self) -> impl Iterator<Item = ReplicaUpdate<'a>> + 'a {
        let listed = self.listed;
        self.batch
            .iter()
            .map(move |((origin, from, to), payload)| ReplicaUpdate {
                origin,
                users: listed.get(from..to).unwrap_or(&[]),
                payload,
            })
    }
}

/// Which envelope a [`FrameSink`] wraps payloads in.
#[derive(Debug, Clone, Copy)]
enum FrameKind {
    StateUpdate { tick: u64 },
    Forwarded { origin: NodeId },
}

/// Collects the outgoing frames of one phase. For every
/// [`push`](Self::push) the framework writes the envelope head into the
/// tick's reusable writer, the application appends its payload in place,
/// and the finished frame is copied out once — no intermediate payload
/// buffer. The framework sends the frames when the phase's call returns.
pub struct FrameSink<'a> {
    w: &'a mut WireWriter,
    kind: FrameKind,
    frames: &'a mut Vec<(UserId, Bytes)>,
}

impl<'a> FrameSink<'a> {
    /// A sink framing [`Packet::StateUpdate`]s of server tick `tick`.
    pub fn state_updates(
        w: &'a mut WireWriter,
        tick: u64,
        frames: &'a mut Vec<(UserId, Bytes)>,
    ) -> Self {
        Self {
            w,
            kind: FrameKind::StateUpdate { tick },
            frames,
        }
    }

    /// A sink framing [`Packet::ForwardedInput`]s from `origin`.
    pub fn forwards(
        w: &'a mut WireWriter,
        origin: NodeId,
        frames: &'a mut Vec<(UserId, Bytes)>,
    ) -> Self {
        Self {
            w,
            kind: FrameKind::Forwarded { origin },
            frames,
        }
    }

    /// Frames one payload for `user` — the receiving user of a state
    /// update, the targeted (shadow) user of a forwarded interaction.
    /// Returns the payload's length in bytes.
    pub fn push(&mut self, user: UserId, payload: impl FnOnce(&mut WireWriter)) -> usize {
        self.w.clear();
        match self.kind {
            FrameKind::StateUpdate { tick } => Packet::put_state_update_head(self.w, user, tick),
            FrameKind::Forwarded { origin } => Packet::put_forwarded_head(self.w, origin),
        }
        let at = self.w.begin_len();
        payload(self.w);
        let len = self.w.end_len(at);
        self.frames.push((user, self.w.copy_frame()));
        len
    }
}

/// The application-logic hooks the framework drives, one per phase of the
/// tick, in the order the phases run.
///
/// Attribution contract: the framework times envelope decoding into
/// `UaDser`/`FaDser`/`MigRcv`, and every phase that bills a single task
/// as a whole — `apply_replica_updates` into `Fa`, `update_npcs` into
/// `Npc`, `compute_interest` into `Aoi`, `encode_state_updates` into `Su`,
/// `encode_replica_update` into `Other`, `export_user`/`import_user` into
/// `MigIni`/`MigRcv` — so those calls must not open a span of their own.
/// The two calls that cover two tasks wrap each half in
/// `ctx.timers.time`: `apply_user_inputs` (payload decoding = `UaDser`,
/// applying = `Ua`) and `apply_forwarded_inputs` (`FaDser`, `Fa`).
/// Virtual costs are the application's to charge throughout, through
/// `ctx.timers`.
pub trait Application {
    /// A user connected to this server (fresh or via migration).
    fn on_user_connected(&mut self, user: UserId);

    /// A user left this server.
    fn on_user_disconnected(&mut self, user: UserId);

    /// Apply the tick's replica updates: the state of each origin's users
    /// (shadow entities here), task 2 of §III-A.
    fn apply_replica_updates(&mut self, ctx: &mut TickCtx<'_>, updates: ReplicaUpdates<'_>);

    /// Apply the interactions other replicas forwarded this tick, each
    /// targeting one of this server's active users. Heads are the
    /// forwarding replicas.
    fn apply_forwarded_inputs(&mut self, ctx: &mut TickCtx<'_>, inputs: Batch<'_, NodeId>);

    /// Deserialize, validate and apply the tick's inputs of locally
    /// connected users (heads are the issuing users). An interaction with
    /// a user owned by another replica is pushed into `forwards`, keyed by
    /// the targeted user; the framework sends it to the owner.
    fn apply_user_inputs(
        &mut self,
        ctx: &mut TickCtx<'_>,
        inputs: Batch<'_, UserId>,
        forwards: &mut FrameSink<'_>,
    );

    /// Advance the computer-controlled characters.
    fn update_npcs(&mut self, ctx: &mut TickCtx<'_>);

    /// Compute the area of interest of every user in `observers` (the
    /// connected users, ascending), for the encode phase that follows.
    fn compute_interest(&mut self, ctx: &mut TickCtx<'_>, observers: &[UserId]);

    /// Push one state update per observer into `updates`, in `observers`
    /// order (an observer the application does not know gets an empty
    /// payload).
    fn encode_state_updates(
        &mut self,
        ctx: &mut TickCtx<'_>,
        observers: &[UserId],
        updates: &mut FrameSink<'_>,
    );

    /// Append the per-tick update of this server's active entities for
    /// the other replicas to `w`. Called once per tick; the framework
    /// broadcasts it.
    fn encode_replica_update(&mut self, ctx: &mut TickCtx<'_>, w: &mut WireWriter);

    /// Append the full state of `user` to `w` for migration and drop the
    /// local active copy (the entity returns as a shadow via replica
    /// updates).
    fn export_user(&mut self, ctx: &mut TickCtx<'_>, user: UserId, w: &mut WireWriter);

    /// Absorb a migrated user's state as a new active entity.
    fn import_user(&mut self, ctx: &mut TickCtx<'_>, user: UserId, payload: &[u8]);

    /// NPCs currently processed by this server.
    fn npc_count(&self) -> u32;
}

/// Server configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Target real-time-loop interval in seconds (40 ms ⇒ 25 Hz, the
    /// RTFDemo requirement of §V).
    pub tick_interval: f64,
    /// Wall-clock or virtual-cost accounting.
    pub time_mode: TimeMode,
    /// Retained metrics records.
    pub metrics_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            tick_interval: 0.040,
            time_mode: TimeMode::Virtual,
            metrics_capacity: 4096,
        }
    }
}

/// Counters of the migration traffic a server handled (lifetime totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationCounters {
    /// Migrations this server initiated.
    pub initiated: u64,
    /// Migrations this server received.
    pub received: u64,
}

/// Reusable per-tick buffers. [`Server::tick`] takes them out of the
/// server at the top and puts them back at the end, so the phases can
/// borrow the app mutably while iterating them and the whole tick
/// allocates nothing in steady state but the outgoing frames themselves
/// (the vectors keep their high-water capacity across ticks).
#[derive(Debug, Default)]
struct TickScratch {
    inbox: Vec<Message>,
    // Received buffers by kind, and the envelopes decoded from them.
    user_inputs: Vec<Bytes>,
    forwarded: Vec<Bytes>,
    replica_updates: Vec<Bytes>,
    migration_data: Vec<Bytes>,
    control: Vec<Bytes>,
    inputs: Vec<Envelope<UserId>>,
    forwards: Vec<Envelope<NodeId>>,
    replicas: Vec<Envelope<(NodeId, usize, usize)>>,
    /// The user lists of `replicas`, flattened; each sorted and unique.
    listed: Vec<UserId>,
    migrations: Vec<Envelope<(UserId, NodeId)>>,
    control_packets: Vec<Packet>,
    /// The connected users, ascending — the observers of the send phase.
    observers: Vec<UserId>,
    /// Frames of the phase in progress, keyed as [`FrameSink::push`] says.
    frames: Vec<(UserId, Bytes)>,
    writer: WireWriter,
}

impl TickScratch {
    /// Drops what the tick received, so no inbox buffer outlives it.
    fn release(&mut self) {
        self.user_inputs.clear();
        self.forwarded.clear();
        self.replica_updates.clear();
        self.migration_data.clear();
        self.control.clear();
    }
}

/// Decodes `bufs` into `out`, one envelope per buffer `head` accepts.
/// `head` maps a decoded packet to the envelope's head and its payload
/// (the packet's last field, so it ends where the reader stopped); a
/// buffer that does not decode, or that `head` turns down, is skipped.
fn decode_envelopes<H>(
    bufs: &[Bytes],
    out: &mut Vec<Envelope<H>>,
    mut head: impl for<'a> FnMut(PacketRef<'a>) -> Option<(H, &'a [u8])>,
) {
    for (at, buf) in bufs.iter().enumerate() {
        let mut r = WireReader::new(buf);
        if let Some((head, payload)) = PacketRef::decode(&mut r).ok().and_then(&mut head) {
            let end = r.position();
            out.push(Envelope::new(
                head,
                at,
                end.saturating_sub(payload.len())..end,
            ));
        }
    }
}

/// An RTF application server: one replica of one zone.
pub struct Server<A: Application> {
    endpoint: Endpoint,
    zone: ZoneId,
    peers: Vec<NodeId>,
    clients: BTreeMap<UserId, NodeId>,
    /// Per peer (ascending), the users its latest replica update listed,
    /// minus our own — ascending, so membership is a binary search and
    /// refreshing a peer's list is a merge.
    shadows: Vec<(NodeId, Vec<UserId>)>,
    pending_migrations: VecDeque<(UserId, NodeId)>,
    app: A,
    timers: TickTimers,
    metrics: MetricsLog,
    tick: u64,
    config: ServerConfig,
    migration_counters: MigrationCounters,
    tracer: roia_obs::Tracer,
    /// Sim-time of this server's tick 0, so trace events carry
    /// cluster-monotonic time instead of the server-local counter.
    trace_tick_offset: u64,
    scratch: TickScratch,
}

impl<A: Application> Server<A> {
    /// Registers a new server on the bus.
    pub fn new(bus: &Bus, label: &str, zone: ZoneId, app: A, config: ServerConfig) -> Self {
        let endpoint = bus.register(label);
        Self {
            endpoint,
            zone,
            peers: Vec::new(),
            clients: BTreeMap::new(),
            shadows: Vec::new(),
            pending_migrations: VecDeque::new(),
            app,
            timers: TickTimers::new(config.time_mode),
            metrics: MetricsLog::new(config.metrics_capacity),
            tick: 0,
            config,
            migration_counters: MigrationCounters::default(),
            tracer: roia_obs::Tracer::disabled(),
            trace_tick_offset: 0,
            scratch: TickScratch::default(),
        }
    }

    /// Installs a telemetry tracer: every tick then emits a
    /// [`roia_obs::TraceEvent::TickSpan`] with the per-task child
    /// timings. `tick_offset` is the simulation time of this server's
    /// local tick 0 (a server booted mid-session starts counting at
    /// zero), so spans carry monotonic sim-time.
    pub fn set_tracer(&mut self, tracer: roia_obs::Tracer, tick_offset: u64) {
        self.tracer = tracer;
        self.trace_tick_offset = tick_offset;
    }

    /// Swaps the tracer, keeping the tick offset — a concurrent driver
    /// temporarily points each server at a private buffer sink for the
    /// duration of a fanned-out tick, then swaps the shared tracer back
    /// and drains the buffers in server order.
    pub fn swap_tracer(&mut self, tracer: roia_obs::Tracer) -> roia_obs::Tracer {
        std::mem::replace(&mut self.tracer, tracer)
    }

    /// This server's network identity.
    pub fn id(&self) -> NodeId {
        self.endpoint.id()
    }

    /// The zone this server processes.
    pub fn zone(&self) -> ZoneId {
        self.zone
    }

    /// The server's configuration.
    pub fn config(&self) -> ServerConfig {
        self.config
    }

    /// Replaces the replica-peer set (the other servers of this zone).
    pub fn set_peers(&mut self, peers: Vec<NodeId>) {
        let me = self.id();
        self.peers = peers;
        self.peers.retain(|p| *p != me);
        // Shadow state from departed peers is stale.
        let peers = &self.peers;
        self.shadows.retain(|(origin, _)| peers.contains(origin));
    }

    /// Current replica peers.
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Number of users connected to this server (`a` in Eq. (4)).
    pub fn active_users(&self) -> u32 {
        self.clients.len() as u32
    }

    /// The connected users, ascending.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.clients.keys().copied()
    }

    /// Number of shadow users mirrored from peers.
    pub fn shadow_users(&self) -> u32 {
        self.shadows.iter().map(|(_, s)| s.len() as u32).sum()
    }

    /// Local estimate of the zone's total user count `n`.
    pub fn zone_users(&self) -> u32 {
        self.active_users() + self.shadow_users()
    }

    /// Lifetime migration counters.
    pub fn migration_counters(&self) -> MigrationCounters {
        self.migration_counters
    }

    /// The metrics log RTF-RMS polls.
    pub fn metrics(&self) -> &MetricsLog {
        &self.metrics
    }

    /// Access to the application (e.g. for assertions in tests).
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable access to the application.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Schedules a user migration to `target`; it executes during the next
    /// tick. Returns `false` if the user is not connected here (it may have
    /// already migrated or disconnected).
    pub fn schedule_migration(&mut self, user: UserId, target: NodeId) -> bool {
        if !self.clients.contains_key(&user) {
            return false;
        }
        self.pending_migrations.push_back((user, target));
        true
    }

    /// Which peer owns `user` as an active entity, according to the latest
    /// replica updates (the lowest-numbered one, should two list it during
    /// a migration race).
    pub fn shadow_owner(&self, user: UserId) -> Option<NodeId> {
        self.shadows
            .iter()
            .find(|(_, users)| users.binary_search(&user).is_ok())
            .map(|(origin, _)| *origin)
    }

    /// `user` is ours now: no peer's list may keep it as a shadow.
    fn forget_shadow(&mut self, user: UserId) {
        for (_, users) in &mut self.shadows {
            if let Ok(at) = users.binary_search(&user) {
                users.remove(at);
            }
        }
    }

    /// Replaces `origin`'s shadow list with `listed` (ascending, unique)
    /// minus our own users, by one merge walk against the client table.
    /// Returns the new list's length.
    fn refresh_shadows(&mut self, origin: NodeId, listed: &[UserId]) -> u32 {
        let at = match self.shadows.binary_search_by_key(&origin, |(o, _)| *o) {
            Ok(at) => at,
            Err(at) => {
                self.shadows.insert(at, (origin, Vec::new()));
                at
            }
        };
        let Some((_, shadows)) = self.shadows.get_mut(at) else {
            return 0;
        };
        shadows.clear();
        let mut own = self.clients.keys().peekable();
        for user in listed {
            while own.next_if(|mine| *mine < user).is_some() {}
            if own.peek() != Some(&user) {
                shadows.push(*user);
            }
        }
        shadows.len() as u32
    }

    /// Executes one iteration of the real-time loop and returns its record.
    pub fn tick(&mut self) -> TickRecord {
        self.timers.reset();
        let mut record = TickRecord {
            tick: self.tick,
            server: self.endpoint.id(),
            active_users: 0,
            shadow_users: 0,
            npcs: 0,
            per_task: [0.0; TASK_COUNT],
            tick_duration: 0.0,
            inputs_processed: 0,
            forwarded_processed: 0,
            updates_sent: 0,
            migrations_initiated: 0,
            migrations_received: 0,
            bytes_in: 0,
            bytes_out: 0,
            bytes_in_clients: 0,
            bytes_in_peers: 0,
            bytes_out_clients: 0,
            bytes_out_peers: 0,
        };
        // The scratch buffers move out of `self` for the duration of the
        // tick (and back at the end), so a phase can borrow the app
        // mutably while iterating them.
        let mut scratch = std::mem::take(&mut self.scratch);

        // --- Step 1: receive.
        self.receive(&mut scratch, &mut record);
        // Incoming migrations (receive side of §III-B) — processed before
        // connection control: a `Disconnect` that chased a migrating user
        // (the client saw the `Redirect`, then logged off) can land in the
        // same tick as the `MigrationData`, and the export causally
        // precedes the disconnect. Importing first lets the disconnect
        // remove the avatar instead of no-opping on an unknown user and
        // leaving a ghost.
        self.receive_migrations(&mut scratch, &mut record);
        self.handle_control(&mut scratch, &mut record);
        self.apply_replica_updates(&mut scratch, &mut record);
        self.apply_forwarded_inputs(&mut scratch, &mut record);
        self.apply_user_inputs(&mut scratch, &mut record);

        // --- Step 2: compute the new state (task 3: NPCs).
        let (tick, server) = (self.tick, self.endpoint.id());
        let app = &mut self.app;
        self.timers.time(TaskKind::Npc, |timers| {
            app.update_npcs(&mut TickCtx {
                tick,
                server,
                timers,
            })
        });
        // Outgoing migrations scheduled by the resource manager
        // (initiate side of §III-B) — before state updates, so departing
        // users no longer receive one from us.
        self.initiate_migrations(&mut scratch, &mut record);

        // --- Step 3: send state updates (task 4) and the replica update.
        self.send_state_updates(&mut scratch, &mut record);
        self.send_replica_update(&mut scratch, &mut record);

        scratch.release();
        self.scratch = scratch;

        record.active_users = self.active_users();
        record.shadow_users = self.shadow_users();
        record.npcs = self.app.npc_count();
        record.per_task = self.timers.snapshot();
        record.tick_duration = self.timers.total();
        self.metrics.push(record);
        if self.tracer.is_enabled() {
            self.tracer.emit(roia_obs::TraceEvent::TickSpan {
                tick: self.trace_tick_offset + self.tick,
                server: record.server.0,
                zone: self.zone.0,
                duration_s: record.tick_duration,
                per_task: record.per_task,
                active_users: record.active_users,
                shadow_users: record.shadow_users,
                npcs: record.npcs,
                migrations_initiated: record.migrations_initiated,
                migrations_received: record.migrations_received,
            });
        }
        self.tick += 1;
        record
    }

    /// Drains the inbox and sorts the buffers by envelope kind — by tag
    /// byte, without decoding, so each kind's decode pass can be
    /// attributed to its task below.
    fn receive(&mut self, scratch: &mut TickScratch, record: &mut TickRecord) {
        scratch.inbox.clear();
        self.endpoint.drain_into(&mut scratch.inbox);
        for msg in scratch.inbox.drain(..) {
            let len = msg.payload.len() as u64;
            record.bytes_in += len;
            let (from_peer, kind) = match msg.payload.first() {
                Some(&Packet::TAG_USER_INPUT) => (false, &mut scratch.user_inputs),
                Some(&Packet::TAG_FORWARDED) => (true, &mut scratch.forwarded),
                Some(&Packet::TAG_REPLICA_UPDATE) => (true, &mut scratch.replica_updates),
                Some(&Packet::TAG_MIGRATION_DATA) => (true, &mut scratch.migration_data),
                Some(_) => (false, &mut scratch.control),
                None => continue,
            };
            if from_peer {
                record.bytes_in_peers += len;
            } else {
                record.bytes_in_clients += len;
            }
            kind.push(msg.payload);
        }
    }

    fn receive_migrations(&mut self, scratch: &mut TickScratch, record: &mut TickRecord) {
        if scratch.migration_data.is_empty() {
            return;
        }
        let TickScratch {
            migration_data,
            migrations,
            writer,
            ..
        } = scratch;
        migrations.clear();
        self.timers.time(TaskKind::MigRcv, |_| {
            decode_envelopes(migration_data, migrations, |pkt| match pkt {
                PacketRef::MigrationData {
                    user,
                    client,
                    payload,
                } => Some(((user, client), payload)),
                _ => None,
            });
        });
        let (tick, server) = (self.tick, self.endpoint.id());
        for ((user, client), payload) in Batch::new(migration_data, migrations).iter() {
            record.migrations_received += 1;
            self.migration_counters.received += 1;
            self.clients.insert(user, client);
            // The user stops being a shadow here (we own it now).
            self.forget_shadow(user);
            let app = &mut self.app;
            self.timers.time(TaskKind::MigRcv, |timers| {
                let mut ctx = TickCtx {
                    tick,
                    server,
                    timers,
                };
                app.import_user(&mut ctx, user, payload);
            });
            self.app.on_user_connected(user);
            let sent = self.send(writer, client, &Packet::ConnectAck { user });
            record.bytes_out += sent;
            record.bytes_out_clients += sent;
        }
    }

    /// Connection control (not part of the model's four tasks).
    fn handle_control(&mut self, scratch: &mut TickScratch, record: &mut TickRecord) {
        if scratch.control.is_empty() {
            return;
        }
        let TickScratch {
            control,
            control_packets,
            writer,
            ..
        } = scratch;
        self.timers.time(TaskKind::Other, |_| {
            control_packets.extend(control.iter().filter_map(|b| Packet::from_bytes(b).ok()));
        });
        for pkt in control_packets.drain(..) {
            match pkt {
                Packet::Connect { user, client } => {
                    // Re-ack a duplicate Connect from the same client: the
                    // first ConnectAck may have been lost on a faulty link,
                    // and the client retries until it hears back.
                    let accepted =
                        self.connect_user(user, client) || self.clients.get(&user) == Some(&client);
                    if accepted {
                        let sent = self.send(writer, client, &Packet::ConnectAck { user });
                        record.bytes_out += sent;
                        record.bytes_out_clients += sent;
                    }
                }
                Packet::Disconnect { user } => {
                    self.disconnect_user(user);
                }
                _ => {}
            }
        }
    }

    /// Replica updates: refresh the shadow table, then let the app apply
    /// the shadow-entity state (task 2 of §III-A).
    fn apply_replica_updates(&mut self, scratch: &mut TickScratch, record: &mut TickRecord) {
        if scratch.replica_updates.is_empty() {
            return;
        }
        let TickScratch {
            replica_updates,
            replicas,
            listed,
            ..
        } = scratch;
        replicas.clear();
        listed.clear();
        self.timers.time(TaskKind::FaDser, |_| {
            decode_envelopes(replica_updates, replicas, |pkt| match pkt {
                PacketRef::ReplicaUpdate {
                    origin,
                    users,
                    payload,
                } => {
                    let from = listed.len();
                    listed.extend(users.iter());
                    // The sender lists a sorted map's keys; anything else
                    // is still network input.
                    if !listed
                        .get(from..)
                        .is_some_and(|l| l.is_sorted_by(|a, b| a < b))
                    {
                        let mut tail = listed.split_off(from);
                        tail.sort_unstable();
                        tail.dedup();
                        listed.append(&mut tail);
                    }
                    Some(((origin, from, listed.len()), payload))
                }
                _ => None,
            });
        });
        let updates = ReplicaUpdates::new(Batch::new(replica_updates, replicas), listed);
        for update in updates.iter() {
            record.forwarded_processed += self.refresh_shadows(update.origin, update.users);
        }
        let (tick, server) = (self.tick, self.endpoint.id());
        let app = &mut self.app;
        self.timers.time(TaskKind::Fa, |timers| {
            let mut ctx = TickCtx {
                tick,
                server,
                timers,
            };
            app.apply_replica_updates(&mut ctx, updates);
        });
    }

    /// Forwarded interactions targeting our active entities.
    fn apply_forwarded_inputs(&mut self, scratch: &mut TickScratch, record: &mut TickRecord) {
        if scratch.forwarded.is_empty() {
            return;
        }
        let TickScratch {
            forwarded,
            forwards,
            ..
        } = scratch;
        forwards.clear();
        self.timers.time(TaskKind::FaDser, |_| {
            decode_envelopes(forwarded, forwards, |pkt| match pkt {
                PacketRef::ForwardedInput { origin, payload } => Some((origin, payload)),
                _ => None,
            });
        });
        record.forwarded_processed += forwards.len() as u32;
        let mut ctx = TickCtx {
            tick: self.tick,
            server: self.endpoint.id(),
            timers: &mut self.timers,
        };
        self.app
            .apply_forwarded_inputs(&mut ctx, Batch::new(forwarded, forwards));
    }

    /// User inputs (task 1), and the interactions they forward.
    fn apply_user_inputs(&mut self, scratch: &mut TickScratch, record: &mut TickRecord) {
        if scratch.user_inputs.is_empty() {
            return;
        }
        let TickScratch {
            user_inputs,
            inputs,
            frames,
            writer,
            ..
        } = scratch;
        inputs.clear();
        let clients = &self.clients;
        self.timers.time(TaskKind::UaDser, |_| {
            decode_envelopes(user_inputs, inputs, |pkt| match pkt {
                // An unknown user raced with a migration or disconnect.
                PacketRef::UserInput { user, payload, .. } if clients.contains_key(&user) => {
                    Some((user, payload))
                }
                _ => None,
            });
        });
        record.inputs_processed += inputs.len() as u32;
        let me = self.endpoint.id();
        let mut ctx = TickCtx {
            tick: self.tick,
            server: me,
            timers: &mut self.timers,
        };
        let mut sink = FrameSink::forwards(writer, me, frames);
        self.app
            .apply_user_inputs(&mut ctx, Batch::new(user_inputs, inputs), &mut sink);
        for (target, frame) in frames.drain(..) {
            if let Some(owner) = self.shadow_owner(target) {
                record.bytes_out += frame.len() as u64;
                record.bytes_out_peers += frame.len() as u64;
                let _ = self.endpoint.send(owner, frame);
            }
        }
    }

    fn initiate_migrations(&mut self, scratch: &mut TickScratch, record: &mut TickRecord) {
        let (tick, server) = (self.tick, self.endpoint.id());
        while let Some((user, target)) = self.pending_migrations.pop_front() {
            let Some(&client) = self.clients.get(&user) else {
                continue;
            };
            record.migrations_initiated += 1;
            self.migration_counters.initiated += 1;
            let (app, w) = (&mut self.app, &mut scratch.writer);
            let (data, redirect) = self.timers.time(TaskKind::MigIni, |timers| {
                let mut ctx = TickCtx {
                    tick,
                    server,
                    timers,
                };
                w.clear();
                Packet::put_migration_data_head(w, user, client);
                let at = w.begin_len();
                app.export_user(&mut ctx, user, w);
                w.end_len(at);
                let data = w.copy_frame();
                w.clear();
                Packet::Redirect {
                    user,
                    new_server: target,
                }
                .encode(w);
                (data, w.copy_frame())
            });
            record.bytes_out += (data.len() + redirect.len()) as u64;
            record.bytes_out_peers += data.len() as u64;
            record.bytes_out_clients += redirect.len() as u64;
            let _ = self.endpoint.send(target, data);
            let _ = self.endpoint.send(client, redirect);
            self.clients.remove(&user);
            self.app.on_user_disconnected(user);
        }
    }

    /// Interest management for every connected user, then one state
    /// update each (task 4).
    fn send_state_updates(&mut self, scratch: &mut TickScratch, record: &mut TickRecord) {
        if self.clients.is_empty() {
            return;
        }
        let TickScratch {
            observers,
            frames,
            writer,
            ..
        } = scratch;
        observers.clear();
        observers.extend(self.clients.keys().copied());
        let (tick, server) = (self.tick, self.endpoint.id());
        let app = &mut self.app;
        self.timers.time(TaskKind::Aoi, |timers| {
            let mut ctx = TickCtx {
                tick,
                server,
                timers,
            };
            app.compute_interest(&mut ctx, observers);
        });
        self.timers.time(TaskKind::Su, |timers| {
            let mut ctx = TickCtx {
                tick,
                server,
                timers,
            };
            let mut sink = FrameSink::state_updates(writer, tick, frames);
            app.encode_state_updates(&mut ctx, observers, &mut sink);
        });
        debug_assert_eq!(frames.len(), observers.len(), "one update per observer");
        for ((user, frame), (owner, client)) in frames.drain(..).zip(&self.clients) {
            debug_assert_eq!(user, *owner, "updates in observer order");
            record.bytes_out += frame.len() as u64;
            record.bytes_out_clients += frame.len() as u64;
            let _ = self.endpoint.send(*client, frame);
            record.updates_sent += 1;
        }
    }

    /// The replica update to the peers (the traffic that becomes the
    /// peers' forwarded-input work; its own cost is not one of the four
    /// modelled tasks, hence `Other`).
    fn send_replica_update(&mut self, scratch: &mut TickScratch, record: &mut TickRecord) {
        if self.peers.is_empty() || self.clients.is_empty() {
            return;
        }
        let (tick, server) = (self.tick, self.endpoint.id());
        let (app, clients, w) = (&mut self.app, &self.clients, &mut scratch.writer);
        let frame = self.timers.time(TaskKind::Other, |timers| {
            let mut ctx = TickCtx {
                tick,
                server,
                timers,
            };
            w.clear();
            Packet::put_replica_update_head(w, server, clients.keys().copied());
            let at = w.begin_len();
            app.encode_replica_update(&mut ctx, w);
            w.end_len(at);
            w.copy_frame()
        });
        for &peer in &self.peers {
            record.bytes_out += frame.len() as u64;
            record.bytes_out_peers += frame.len() as u64;
            let _ = self.endpoint.send(peer, frame.clone());
        }
    }

    /// Registers a client connection directly (the in-process equivalent of
    /// accepting a TCP connection). Returns `false` if the user is already
    /// connected.
    pub fn connect_user(&mut self, user: UserId, client: NodeId) -> bool {
        if self.clients.contains_key(&user) {
            return false;
        }
        self.clients.insert(user, client);
        // No longer a shadow if it was one.
        self.forget_shadow(user);
        self.app.on_user_connected(user);
        true
    }

    /// Removes a client connection directly. Returns `false` if unknown.
    pub fn disconnect_user(&mut self, user: UserId) -> bool {
        if self.clients.remove(&user).is_some() {
            self.app.on_user_disconnected(user);
            true
        } else {
            false
        }
    }

    /// Encodes a control packet in the tick's writer and sends it.
    fn send(&self, w: &mut WireWriter, to: NodeId, pkt: &Packet) -> u64 {
        w.clear();
        pkt.encode(w);
        let frame = w.copy_frame();
        let len = frame.len() as u64;
        let _ = self.endpoint.send(to, frame);
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal test application: users accumulate a counter per input;
    /// state updates echo the counter; forwarded inputs increment a hit
    /// count; everything charges fixed virtual costs.
    #[derive(Default)]
    struct TestApp {
        counters: BTreeMap<UserId, u64>,
        shadow_ticks: u64,
        hits: u64,
        npc_updates: u64,
        interest_passes: u64,
    }

    impl Application for TestApp {
        fn on_user_connected(&mut self, user: UserId) {
            self.counters.entry(user).or_insert(0);
        }
        fn on_user_disconnected(&mut self, user: UserId) {
            self.counters.remove(&user);
        }
        fn apply_replica_updates(&mut self, ctx: &mut TickCtx<'_>, updates: ReplicaUpdates<'_>) {
            for update in updates.iter() {
                ctx.timers
                    .charge(TaskKind::Fa, 1e-6 * update.users.len() as f64);
                self.shadow_ticks += update.users.len() as u64;
            }
        }
        fn apply_forwarded_inputs(&mut self, ctx: &mut TickCtx<'_>, inputs: Batch<'_, NodeId>) {
            ctx.timers.time(TaskKind::Fa, |timers| {
                for _ in inputs.iter() {
                    timers.charge(TaskKind::Fa, 1e-5);
                    self.hits += 1;
                }
            });
        }
        fn apply_user_inputs(
            &mut self,
            ctx: &mut TickCtx<'_>,
            inputs: Batch<'_, UserId>,
            forwards: &mut FrameSink<'_>,
        ) {
            // Payload optionally names a target user to "attack".
            let targets: Vec<Option<UserId>> = ctx.timers.time(TaskKind::UaDser, |_| {
                inputs
                    .iter()
                    .map(|(_, payload)| WireReader::new(payload).get_u64().ok().map(UserId))
                    .collect()
            });
            ctx.timers.time(TaskKind::Ua, |timers| {
                for ((user, _), target) in inputs.iter().zip(targets) {
                    timers.charge(TaskKind::Ua, 1e-4);
                    *self.counters.get_mut(&user).expect("connected") += 1;
                    if let Some(target) = target.filter(|t| !self.counters.contains_key(t)) {
                        forwards.push(target, |w| w.put_u8(b'!'));
                    }
                }
            });
        }
        fn update_npcs(&mut self, ctx: &mut TickCtx<'_>) {
            ctx.timers.charge(TaskKind::Npc, 1e-6);
            self.npc_updates += 1;
        }
        fn compute_interest(&mut self, ctx: &mut TickCtx<'_>, observers: &[UserId]) {
            for _ in observers {
                ctx.timers.charge(TaskKind::Aoi, 5e-5);
            }
            self.interest_passes += 1;
        }
        fn encode_state_updates(
            &mut self,
            ctx: &mut TickCtx<'_>,
            observers: &[UserId],
            updates: &mut FrameSink<'_>,
        ) {
            for user in observers {
                ctx.timers.charge(TaskKind::Su, 5e-5);
                updates.push(*user, |w| w.put_u64(self.counters[user]));
            }
        }
        fn encode_replica_update(&mut self, _ctx: &mut TickCtx<'_>, w: &mut WireWriter) {
            for b in b"sync" {
                w.put_u8(*b);
            }
        }
        fn export_user(&mut self, ctx: &mut TickCtx<'_>, user: UserId, w: &mut WireWriter) {
            ctx.timers.charge(TaskKind::MigIni, 2e-4);
            w.put_u64(self.counters.remove(&user).unwrap_or(0));
        }
        fn import_user(&mut self, ctx: &mut TickCtx<'_>, user: UserId, payload: &[u8]) {
            ctx.timers.charge(TaskKind::MigRcv, 1e-4);
            let mut r = WireReader::new(payload);
            self.counters.insert(user, r.get_u64().unwrap_or(0));
        }
        fn npc_count(&self) -> u32 {
            3
        }
    }

    fn setup() -> (Bus, Server<TestApp>, Endpoint) {
        let bus = Bus::new();
        let server = Server::new(
            &bus,
            "s1",
            ZoneId(1),
            TestApp::default(),
            ServerConfig::default(),
        );
        let client = bus.register("client");
        (bus, server, client)
    }

    fn input_packet(user: UserId, seq: u32, payload: &[u8]) -> Bytes {
        Packet::UserInput {
            user,
            seq,
            payload: Bytes::copy_from_slice(payload),
        }
        .to_bytes()
    }

    #[test]
    fn connect_and_process_input() {
        let (_bus, mut server, client) = setup();
        let user = UserId(1);
        assert!(server.connect_user(user, client.id()));
        assert!(
            !server.connect_user(user, client.id()),
            "double connect rejected"
        );

        client
            .send(server.id(), input_packet(user, 0, &[]))
            .unwrap();
        let record = server.tick();
        assert_eq!(record.inputs_processed, 1);
        assert_eq!(record.active_users, 1);
        assert_eq!(server.app().counters[&user], 1);
        assert!(record.tick_duration > 0.0, "virtual charges accumulate");
    }

    #[test]
    fn state_updates_sent_to_clients() {
        let (_bus, mut server, client) = setup();
        let user = UserId(1);
        server.connect_user(user, client.id());
        client
            .send(server.id(), input_packet(user, 0, &[]))
            .unwrap();
        let record = server.tick();
        assert_eq!(record.updates_sent, 1);
        let msgs = client.drain();
        let update = msgs
            .iter()
            .filter_map(|m| Packet::from_bytes(&m.payload).ok())
            .find_map(|p| match p {
                Packet::StateUpdate {
                    user: u, payload, ..
                } if u == user => Some(payload),
                _ => None,
            })
            .expect("client got an update");
        let mut r = WireReader::new(&update);
        assert_eq!(r.get_u64().unwrap(), 1, "counter visible in update");
    }

    #[test]
    fn replica_updates_create_shadows_and_forwarding_works() {
        let bus = Bus::new();
        let mut s1 = Server::new(
            &bus,
            "s1",
            ZoneId(1),
            TestApp::default(),
            ServerConfig::default(),
        );
        let mut s2 = Server::new(
            &bus,
            "s2",
            ZoneId(1),
            TestApp::default(),
            ServerConfig::default(),
        );
        s1.set_peers(vec![s2.id()]);
        s2.set_peers(vec![s1.id()]);
        let c1 = bus.register("c1");
        let c2 = bus.register("c2");
        let (u1, u2) = (UserId(1), UserId(2));
        s1.connect_user(u1, c1.id());
        s2.connect_user(u2, c2.id());

        // Tick both so replica updates propagate.
        s1.tick();
        s2.tick();
        let r1 = s1.tick();
        let r2 = s2.tick();
        assert_eq!(r1.shadow_users, 1, "u2 is a shadow on s1");
        assert_eq!(r2.shadow_users, 1);
        assert_eq!(s1.zone_users(), 2);
        assert_eq!(s1.shadow_owner(u2), Some(s2.id()));

        // u1 attacks u2 (owned by s2): the interaction must be forwarded.
        let mut w = WireWriter::new();
        w.put_u64(u2.0);
        c1.send(s1.id(), input_packet(u1, 1, &w.finish())).unwrap();
        s1.tick();
        let r2 = s2.tick();
        assert_eq!(s2.app().hits, 1, "forwarded interaction applied on s2");
        assert!(r2.forwarded_processed >= 1);
    }

    #[test]
    fn migration_moves_user_between_servers() {
        let bus = Bus::new();
        let mut s1 = Server::new(
            &bus,
            "s1",
            ZoneId(1),
            TestApp::default(),
            ServerConfig::default(),
        );
        let mut s2 = Server::new(
            &bus,
            "s2",
            ZoneId(1),
            TestApp::default(),
            ServerConfig::default(),
        );
        s1.set_peers(vec![s2.id()]);
        s2.set_peers(vec![s1.id()]);
        let c1 = bus.register("c1");
        let user = UserId(42);
        s1.connect_user(user, c1.id());

        // Accumulate state before migrating.
        c1.send(s1.id(), input_packet(user, 0, &[])).unwrap();
        s1.tick();
        assert_eq!(s1.app().counters[&user], 1);

        assert!(s1.schedule_migration(user, s2.id()));
        let r1 = s1.tick();
        assert_eq!(r1.migrations_initiated, 1);
        assert_eq!(s1.active_users(), 0);
        assert!(r1.task(TaskKind::MigIni) > 0.0);

        let r2 = s2.tick();
        assert_eq!(r2.migrations_received, 1);
        assert_eq!(s2.active_users(), 1);
        assert_eq!(s2.app().counters[&user], 1, "state travelled with the user");
        assert!(r2.task(TaskKind::MigRcv) > 0.0);
        assert_eq!(s1.migration_counters().initiated, 1);
        assert_eq!(s2.migration_counters().received, 1);

        // The client got a Redirect to s2 and a ConnectAck from s2.
        let pkts: Vec<Packet> = c1
            .drain()
            .iter()
            .filter_map(|m| Packet::from_bytes(&m.payload).ok())
            .collect();
        assert!(pkts
            .iter()
            .any(|p| matches!(p, Packet::Redirect { new_server, .. } if *new_server == s2.id())));
        assert!(pkts
            .iter()
            .any(|p| matches!(p, Packet::ConnectAck { user: u } if *u == user)));
    }

    #[test]
    fn migration_of_unknown_user_is_rejected() {
        let (_bus, mut server, _client) = setup();
        assert!(!server.schedule_migration(UserId(9), NodeId(99)));
    }

    #[test]
    fn input_from_disconnected_user_is_dropped() {
        let (_bus, mut server, client) = setup();
        client
            .send(server.id(), input_packet(UserId(5), 0, &[]))
            .unwrap();
        let record = server.tick();
        assert_eq!(record.inputs_processed, 0);
    }

    #[test]
    fn disconnect_removes_user() {
        let (_bus, mut server, client) = setup();
        let user = UserId(1);
        server.connect_user(user, client.id());
        client
            .send(server.id(), Packet::Disconnect { user }.to_bytes())
            .unwrap();
        server.tick();
        assert_eq!(server.active_users(), 0);
        assert!(server.app().counters.is_empty());
    }

    #[test]
    fn metrics_accumulate_per_tick() {
        let (_bus, mut server, client) = setup();
        server.connect_user(UserId(1), client.id());
        for _ in 0..5 {
            server.tick();
        }
        assert_eq!(server.metrics().len(), 5);
        assert!(server.metrics().avg_tick_duration(5) > 0.0);
        assert_eq!(server.metrics().latest().unwrap().tick, 4);
    }

    #[test]
    fn set_peers_excludes_self_and_prunes_shadows() {
        let bus = Bus::new();
        let mut s1 = Server::new(
            &bus,
            "s1",
            ZoneId(1),
            TestApp::default(),
            ServerConfig::default(),
        );
        let me = s1.id();
        s1.set_peers(vec![me, NodeId(77)]);
        assert_eq!(s1.peers(), &[NodeId(77)]);
    }

    #[test]
    fn set_peers_forgets_shadows_of_departed_peers() {
        let bus = Bus::new();
        let mut s1 = Server::new(
            &bus,
            "s1",
            ZoneId(1),
            TestApp::default(),
            ServerConfig::default(),
        );
        let (p2, p3) = (bus.register("s2"), bus.register("s3"));
        s1.set_peers(vec![p2.id(), p3.id()]);
        for (peer, users) in [(&p2, vec![UserId(7)]), (&p3, vec![UserId(8), UserId(9)])] {
            let update = Packet::ReplicaUpdate {
                origin: peer.id(),
                users,
                payload: Bytes::new(),
            };
            peer.send(s1.id(), update.to_bytes()).unwrap();
        }
        assert_eq!(s1.tick().shadow_users, 3);
        assert_eq!(s1.shadow_owner(UserId(9)), Some(p3.id()));
        s1.set_peers(vec![p2.id()]);
        assert_eq!(s1.shadow_users(), 1);
        assert_eq!(s1.shadow_owner(UserId(9)), None);
        assert_eq!(s1.shadow_owner(UserId(7)), Some(p2.id()));
    }

    #[test]
    fn replica_update_user_list_is_network_input() {
        // Unsorted, duplicated, and naming one of our own users: the
        // shadow table must come out sorted, unique and without ours, and
        // the application must see the list sorted and unique.
        let bus = Bus::new();
        let mut s1 = Server::new(
            &bus,
            "s1",
            ZoneId(1),
            TestApp::default(),
            ServerConfig::default(),
        );
        let peer = bus.register("s2");
        let client = bus.register("c");
        s1.set_peers(vec![peer.id()]);
        s1.connect_user(UserId(5), client.id());
        let update = Packet::ReplicaUpdate {
            origin: peer.id(),
            users: vec![UserId(9), UserId(3), UserId(5), UserId(9), UserId(4)],
            payload: Bytes::new(),
        };
        peer.send(s1.id(), update.to_bytes()).unwrap();
        let record = s1.tick();
        assert_eq!(record.shadow_users, 3, "3, 4 and 9; 5 is ours");
        assert_eq!(record.forwarded_processed, 3);
        assert_eq!(s1.app().shadow_ticks, 4, "the app saw 3, 4, 5, 9 once each");
        for shadow in [3, 4, 9] {
            assert_eq!(s1.shadow_owner(UserId(shadow)), Some(peer.id()));
        }
        assert_eq!(s1.shadow_owner(UserId(5)), None);
    }

    #[test]
    fn wall_mode_attributes_every_phase_within_the_tick() {
        let bus = Bus::new();
        let wall = ServerConfig {
            time_mode: TimeMode::Wall,
            ..ServerConfig::default()
        };
        let mut s1 = Server::new(&bus, "s1", ZoneId(1), TestApp::default(), wall);
        let peer = bus.register("s2");
        s1.set_peers(vec![peer.id()]);
        let clients: Vec<Endpoint> = (0..20).map(|_| bus.register("c")).collect();
        for (i, c) in clients.iter().enumerate() {
            s1.connect_user(UserId(i as u64), c.id());
        }
        // Inputs (one of them attacking a shadow), a replica update and a
        // forwarded interaction in one tick.
        let shadow = UserId(100);
        let update = Packet::ReplicaUpdate {
            origin: peer.id(),
            users: vec![shadow],
            payload: Bytes::from_static(b"state"),
        };
        peer.send(s1.id(), update.to_bytes()).unwrap();
        let hit = Packet::ForwardedInput {
            origin: peer.id(),
            payload: Bytes::from_static(b"hit"),
        };
        peer.send(s1.id(), hit.to_bytes()).unwrap();
        for (i, c) in clients.iter().enumerate() {
            let mut w = WireWriter::new();
            w.put_u64(shadow.0);
            c.send(s1.id(), input_packet(UserId(i as u64), 0, &w.finish()))
                .unwrap();
        }
        let started = std::time::Instant::now();
        let record = s1.tick();
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(record.inputs_processed, 20);
        assert_eq!(record.updates_sent, 20);
        assert_eq!(s1.app().interest_passes, 1, "one interest phase per tick");
        for task in [
            TaskKind::UaDser,
            TaskKind::Ua,
            TaskKind::FaDser,
            TaskKind::Fa,
            TaskKind::Aoi,
            TaskKind::Su,
        ] {
            assert!(record.task(task) > 0.0, "{task:?} got no host time");
        }
        let attributed: f64 = record.per_task.iter().sum();
        assert_eq!(attributed, record.tick_duration);
        assert!(
            attributed <= elapsed,
            "spans overlap: {attributed} s attributed in a {elapsed} s tick"
        );
        assert_eq!(peer.drain().len(), 21, "20 forwards and the replica update");
    }

    #[test]
    fn npc_update_runs_every_tick() {
        let (_bus, mut server, _client) = setup();
        server.tick();
        server.tick();
        assert_eq!(server.app().npc_updates, 2);
        assert_eq!(server.metrics().latest().unwrap().npcs, 3);
    }
}
