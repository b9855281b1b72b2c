//! RTFDemo's game logic as an `rtf-core` [`Application`].
//!
//! This is the first-person-shooter case study of §V: avatars move and
//! shoot, interest management is Euclidean, the state is replicated across
//! the servers of a zone. Every phase counts its work units and charges
//! virtual time through the [`CostModel`], and the same code paths run
//! under wall-clock accounting unchanged.
//!
//! The cost model draws its measurement noise from one random stream, so
//! the *order* of its `charge_*` calls is part of the virtual-time result.
//! The phases below batch the work but keep that order exactly as the
//! per-item loop of §II produces it: per input its deserialization then
//! its commands; per observer its interest computation then its update.

use crate::aoi::{dedup_scans_for, AoiGrid};
use crate::avatar::{Avatar, AvatarSnapshot};
use crate::calibration::CostModel;
use crate::commands::{Command, CommandBatch, Interaction};
use crate::npc::NpcWorld;
use crate::world::World;
use rtf_core::entity::{Ownership, UserId, Vec2};
use rtf_core::server::{Application, Batch, FrameSink, ReplicaUpdates, TickCtx};
use rtf_core::timer::{TaskKind, TickTimers};
use rtf_core::wire::{Wire, WireReader, WireWriter};
use rtf_net::NodeId;

/// Gameplay counters, for tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GameStats {
    /// Move commands applied.
    pub moves_applied: u64,
    /// Attack commands applied locally.
    pub attacks_applied: u64,
    /// Hits landed on active avatars.
    pub hits_on_active: u64,
    /// Interactions forwarded to other replicas.
    pub interactions_forwarded: u64,
    /// Forwarded interactions received and applied.
    pub interactions_received: u64,
    /// Kills registered on this server.
    pub kills: u64,
}

/// One row of the avatar table.
#[derive(Debug, Clone)]
struct Slot {
    avatar: Avatar,
    /// The replica whose updates mirror this avatar here: `Some` exactly
    /// while the avatar is a shadow.
    origin: Option<NodeId>,
}

/// The areas of interest of one tick's observers, as one flat table
/// (CSR): observer `i` sees `visible[ends[i - 1]..ends[i]]`, avatar-table
/// rows in ascending order.
#[derive(Debug, Default)]
struct Interest {
    /// Each observer's own row, `None` for a user without an avatar.
    rows: Vec<Option<usize>>,
    ends: Vec<usize>,
    visible: Vec<usize>,
}

impl Interest {
    fn clear(&mut self) {
        self.rows.clear();
        self.ends.clear();
        self.visible.clear();
    }

    /// Observer `i`'s own row and the rows it sees.
    fn of(&self, i: usize) -> Option<(usize, &[usize])> {
        let row = (*self.rows.get(i)?)?;
        let from = i.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        Some((row, &self.visible[from..self.ends[i]]))
    }
}

/// Buffers the phases reuse from tick to tick.
#[derive(Debug, Default)]
struct Scratch {
    /// The tick's decoded commands, all inputs back to back.
    commands: Vec<Command>,
    /// Per input, its range of `commands`; `None` if it did not decode.
    batches: Vec<Option<(usize, usize)>>,
    /// Per forwarded input, the decoded interaction.
    interactions: Vec<Option<Interaction>>,
    /// Shadows a replica update introduced, until they join the table.
    fresh: Vec<Slot>,
    /// `(user, position)` rows: the active users for the NPC pass, then
    /// the whole avatar table for the interest phase.
    positions: Vec<(UserId, Vec2)>,
    grid: AoiGrid,
    interest: Interest,
}

/// The RTFDemo application state on one server.
pub struct RtfDemoApp {
    world: World,
    /// Every avatar this server knows, active and shadow, ascending by
    /// user id: lookups are binary searches, the send phase reads it as a
    /// dense array, and iteration order is the literal scan's.
    avatars: Vec<Slot>,
    npcs: NpcWorld,
    costs: CostModel,
    stats: GameStats,
    /// The world's full-fidelity AoI radius, kept so degraded-mode
    /// scaling is always relative to the original, not cumulative.
    base_aoi_radius: f32,
    scratch: Scratch,
}

/// An entry count as the wire's `u16`. More than 65 535 entries do not fit
/// one update; the list is then cut to the first 65 535 rather than its
/// count wrapping around.
fn wire_count(entries: usize) -> u16 {
    debug_assert!(
        entries <= usize::from(u16::MAX),
        "{entries} entries in one update"
    );
    u16::try_from(entries).unwrap_or(u16::MAX)
}

impl RtfDemoApp {
    /// Creates the application with `npc_count` NPCs and the given cost
    /// model.
    pub fn new(world: World, npc_count: u32, costs: CostModel) -> Self {
        let mut npcs = NpcWorld::new();
        npcs.populate(npc_count, &world);
        let base_aoi_radius = world.aoi_radius;
        Self {
            world,
            avatars: Vec::new(),
            npcs,
            costs,
            stats: GameStats::default(),
            base_aoi_radius,
            scratch: Scratch::default(),
        }
    }

    /// Scales the area-of-interest radius relative to the world's base
    /// radius (`1.0` = full fidelity, clamped to `[0, 1]`). The
    /// graceful-degradation path shrinks AoI under overload to cut
    /// per-user update fan-out while keeping every connected user in
    /// the session; passing `1.0` restores full fidelity exactly.
    pub fn set_aoi_scale(&mut self, scale: f64) {
        let scale = if scale.is_finite() {
            scale.clamp(0.0, 1.0)
        } else {
            1.0
        };
        self.world.aoi_radius = self.base_aoi_radius * scale as f32;
    }

    /// The current AoI fidelity relative to the base radius.
    pub fn aoi_scale(&self) -> f64 {
        if self.base_aoi_radius <= f32::EPSILON {
            return 1.0;
        }
        f64::from(self.world.aoi_radius / self.base_aoi_radius)
    }

    /// The arena description.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Gameplay counters.
    pub fn stats(&self) -> GameStats {
        self.stats
    }

    /// Sets the cost model's straggler factor (≥ 1, `1.0` = healthy). Used
    /// by fault injection to turn this server into a straggler.
    pub fn set_slowdown(&mut self, factor: f64) {
        self.costs.set_slowdown(factor);
    }

    /// Scales every per-unit cost rate by `factor` (> 0). Used by
    /// regime-shift scenarios: a patch makes each interaction heavier,
    /// so the same work units cost more from the next tick on.
    pub fn scale_cost_rates(&mut self, factor: f64) {
        self.costs.scale_rates(factor);
    }

    /// Repopulates the zone with `count` NPCs (deterministic positions).
    /// Used by regime-shift scenarios: a content event spawns an NPC
    /// surge, every replica processes the larger `m` from the next tick.
    pub fn set_npc_count(&mut self, count: u32) {
        self.npcs.populate(count, &self.world);
    }

    /// All avatars known to this server (active + shadow).
    pub fn avatar_count(&self) -> usize {
        self.avatars.len()
    }

    /// Looks up an avatar.
    pub fn avatar(&self, user: UserId) -> Option<&Avatar> {
        let row = self.row_of(user).ok()?;
        Some(&self.avatars[row].avatar)
    }

    fn avatar_mut(&mut self, user: UserId) -> Option<&mut Avatar> {
        let row = self.row_of(user).ok()?;
        Some(&mut self.avatars[row].avatar)
    }

    /// The table row of `user`, or where it would be inserted.
    fn row_of(&self, user: UserId) -> Result<usize, usize> {
        self.avatars.binary_search_by_key(&user, |s| s.avatar.user)
    }

    /// Applies one attack: the paper-described hit check iterates through
    /// every known avatar. A hit on a shadow entity is forwarded.
    fn apply_attack(
        &mut self,
        timers: &mut TickTimers,
        attacker: UserId,
        target: UserId,
        damage: u16,
        forwards: &mut FrameSink<'_>,
    ) {
        // The paper's hit check iterates through every known avatar, and
        // `charge_attack(scanned)` bills that full scan. The lookup itself
        // is a search of the sorted table (ids are unique, so the scan's
        // result is exactly that row) — the virtual cost stays linear in
        // the avatar count while the host cost does not.
        let scanned = self.avatars.len();
        self.costs.charge_attack(timers, scanned);
        self.stats.attacks_applied += 1;

        let (Ok(attacker_row), Ok(target_row)) = (self.row_of(attacker), self.row_of(target))
        else {
            return;
        };
        let attacker_pos = self.avatars[attacker_row].avatar.pos;
        let victim = &mut self.avatars[target_row].avatar;
        if !self.world.in_attack_range(&attacker_pos, &victim.pos) {
            return;
        }
        match victim.ownership {
            Ownership::Active => {
                let lethal = victim.take_damage(damage, self.world.spawn_point(target));
                self.stats.hits_on_active += 1;
                if lethal {
                    self.stats.kills += 1;
                    self.avatars[attacker_row].avatar.kills += 1;
                }
            }
            Ownership::Shadow => {
                self.stats.interactions_forwarded += 1;
                let interaction = Interaction {
                    attacker,
                    target,
                    damage,
                };
                forwards.push(target, |w| interaction.encode(w));
            }
        }
    }

    /// Merges the shadows an update introduced into the table — all at
    /// once, because a replica's first update introduces its whole
    /// population and one insertion each would make that quadratic. A user
    /// the update carried twice keeps its later state.
    fn admit_shadows(&mut self) {
        let fresh = &mut self.scratch.fresh;
        if fresh.is_empty() {
            return;
        }
        fresh.sort_by_key(|s| s.avatar.user);
        fresh.dedup_by(|later, kept| {
            let same = later.avatar.user == kept.avatar.user;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        self.avatars.append(fresh);
        // Two ascending runs: the stable sort merges them in one pass.
        self.avatars.sort_by_key(|s| s.avatar.user);
    }

    /// Drops the shadows `origin` used to own but no longer lists (the
    /// user disconnected or migrated elsewhere): one merge walk of the
    /// table against `listed`, both ascending.
    fn prune_shadows(&mut self, origin: NodeId, listed: &[UserId]) {
        let mut listed = listed.iter().peekable();
        self.avatars.retain(|slot| {
            if slot.origin != Some(origin) {
                return true;
            }
            while listed.next_if(|l| **l < slot.avatar.user).is_some() {}
            listed.peek() == Some(&&slot.avatar.user)
        });
    }
}

impl Application for RtfDemoApp {
    fn on_user_connected(&mut self, user: UserId) {
        // A migrated user was already inserted by `import_user`; a fresh
        // user spawns; a user reconnecting after its server crashed may
        // still exist here as a shadow — promoting it to active recovers
        // the last replicated state (a free benefit of replication).
        match self.row_of(user) {
            Ok(row) => {
                let slot = &mut self.avatars[row];
                slot.avatar.ownership = Ownership::Active;
                slot.origin = None;
            }
            Err(row) => {
                let avatar = Avatar::spawn(user, self.world.spawn_point(user));
                self.avatars.insert(
                    row,
                    Slot {
                        avatar,
                        origin: None,
                    },
                );
            }
        }
    }

    fn on_user_disconnected(&mut self, user: UserId) {
        // Remove only an *active* avatar: after a migration the entity
        // lives on at the target and will reappear here as a shadow.
        if let Ok(row) = self.row_of(user) {
            if self.avatars[row].avatar.is_active() {
                self.avatars.remove(row);
            }
        }
    }

    fn apply_replica_updates(&mut self, ctx: &mut TickCtx<'_>, updates: ReplicaUpdates<'_>) {
        for update in updates.iter() {
            self.costs.charge_fa_dser(ctx.timers, update.payload.len());
            let mut r = WireReader::new(update.payload);
            let Ok(count) = r.get_u16() else { continue };
            let mut applied = 0usize;
            for _ in 0..count {
                let Ok(snap) = AvatarSnapshot::decode(&mut r) else {
                    break;
                };
                match self.row_of(snap.user) {
                    Ok(row) => {
                        let slot = &mut self.avatars[row];
                        // Never demote a local active avatar (migration race).
                        if slot.avatar.is_active() {
                            continue;
                        }
                        slot.avatar.pos = snap.pos;
                        slot.avatar.health = snap.health;
                        slot.origin = Some(update.origin);
                    }
                    Err(_) => self.scratch.fresh.push(Slot {
                        avatar: Avatar::shadow(snap.user, snap.pos, snap.health),
                        origin: Some(update.origin),
                    }),
                }
                applied += 1;
            }
            self.costs.charge_fa_shadow(ctx.timers, applied);
            self.admit_shadows();
            self.prune_shadows(update.origin, update.users);
        }
    }

    fn apply_forwarded_inputs(&mut self, ctx: &mut TickCtx<'_>, inputs: Batch<'_, NodeId>) {
        let mut interactions = std::mem::take(&mut self.scratch.interactions);
        ctx.timers.time(TaskKind::FaDser, |_| {
            interactions.clear();
            interactions.extend(inputs.iter().map(|(_, p)| Interaction::from_bytes(p).ok()));
        });
        ctx.timers.time(TaskKind::Fa, |timers| {
            for ((_, payload), interaction) in inputs.iter().zip(&interactions) {
                self.costs.charge_fa_dser(timers, payload.len());
                let Some(interaction) = interaction else {
                    continue;
                };
                self.costs.charge_fa_apply(timers);
                self.stats.interactions_received += 1;
                let respawn = self.world.spawn_point(interaction.target);
                if let Some(target) = self.avatar_mut(interaction.target) {
                    if target.is_active() && target.take_damage(interaction.damage, respawn) {
                        self.stats.kills += 1;
                    }
                }
            }
        });
        self.scratch.interactions = interactions;
    }

    fn apply_user_inputs(
        &mut self,
        ctx: &mut TickCtx<'_>,
        inputs: Batch<'_, UserId>,
        forwards: &mut FrameSink<'_>,
    ) {
        let mut commands = std::mem::take(&mut self.scratch.commands);
        let mut batches = std::mem::take(&mut self.scratch.batches);
        ctx.timers.time(TaskKind::UaDser, |_| {
            commands.clear();
            batches.clear();
            for (_, payload) in inputs.iter() {
                let from = commands.len();
                let decoded =
                    CommandBatch::decode_into(&mut WireReader::new(payload), &mut commands);
                batches.push(decoded.ok().map(|()| (from, commands.len())));
            }
        });
        ctx.timers.time(TaskKind::Ua, |timers| {
            for ((user, payload), batch) in inputs.iter().zip(&batches) {
                let Some((from, to)) = *batch else { continue };
                self.costs.charge_ua_dser(timers, payload.len(), to - from);
                for command in &commands[from..to] {
                    match *command {
                        Command::Move { dx, dy } => {
                            self.costs.charge_move(timers);
                            let world = &self.world;
                            if let Ok(row) = self.row_of(user) {
                                let avatar = &mut self.avatars[row].avatar;
                                if avatar.is_active() {
                                    avatar.pos = world.apply_move(&avatar.pos, dx, dy);
                                    self.stats.moves_applied += 1;
                                }
                            }
                        }
                        Command::Attack { target, damage } => {
                            self.apply_attack(timers, user, target, damage, forwards);
                        }
                    }
                }
            }
        });
        self.scratch.commands = commands;
        self.scratch.batches = batches;
    }

    fn update_npcs(&mut self, ctx: &mut TickCtx<'_>) {
        let positions = &mut self.scratch.positions;
        positions.clear();
        if !self.npcs.is_empty() {
            let active = self.avatars.iter().filter(|s| s.avatar.is_active());
            positions.extend(active.map(|s| (s.avatar.user, s.avatar.pos)));
        }
        let work = self.npcs.update(&self.world, positions);
        self.costs
            .charge_npc(ctx.timers, work.npcs_updated, work.user_scans);
    }

    fn compute_interest(&mut self, _ctx: &mut TickCtx<'_>, observers: &[UserId]) {
        // The send phase runs after every avatar mutation of the tick, so
        // one index serves every observer. The virtual `t_aoi` of each
        // observer is charged next to its `t_su`, in the encode phase.
        let Scratch {
            positions,
            grid,
            interest,
            ..
        } = &mut self.scratch;
        positions.clear();
        positions.extend(self.avatars.iter().map(|s| (s.avatar.user, s.avatar.pos)));
        grid.rebuild(&self.world, positions);
        interest.clear();
        for user in observers {
            let row = positions.binary_search_by_key(user, |(u, _)| *u).ok();
            if let Some(row) = row {
                let from = interest.visible.len();
                grid.for_each_in_aoi(&self.world, &positions[row].1, |other| {
                    if other != row {
                        interest.visible.push(other);
                    }
                });
                // Ascending rows = ascending ids = the literal scan order.
                interest.visible[from..].sort_unstable();
            }
            interest.rows.push(row);
            interest.ends.push(interest.visible.len());
        }
    }

    fn encode_state_updates(
        &mut self,
        ctx: &mut TickCtx<'_>,
        observers: &[UserId],
        updates: &mut FrameSink<'_>,
    ) {
        let avatars = &self.avatars;
        let others = avatars.len().saturating_sub(1);
        for (i, user) in observers.iter().enumerate() {
            let Some((own, visible)) = self.scratch.interest.of(i) else {
                updates.push(*user, |_| {});
                continue;
            };
            self.costs
                .charge_aoi(ctx.timers, others, dedup_scans_for(visible.len()));
            // Self + visible avatars.
            let entities = wire_count(visible.len() + 1);
            let rows = std::iter::once(&own).chain(visible);
            let bytes = updates.push(*user, |w| {
                w.put_u16(entities);
                for row in rows.take(usize::from(entities)) {
                    AvatarSnapshot::from(&avatars[*row].avatar).encode(w);
                }
            });
            self.costs
                .charge_su(ctx.timers, usize::from(entities), bytes);
        }
    }

    fn encode_replica_update(&mut self, _ctx: &mut TickCtx<'_>, w: &mut WireWriter) {
        let active = || self.avatars.iter().filter(|s| s.avatar.is_active());
        let entities = wire_count(active().count());
        w.put_u16(entities);
        for slot in active().take(usize::from(entities)) {
            AvatarSnapshot::from(&slot.avatar).encode(w);
        }
    }

    fn export_user(&mut self, ctx: &mut TickCtx<'_>, user: UserId, w: &mut WireWriter) {
        let known = self.avatars.len();
        self.costs.charge_mig_ini(ctx.timers, known);
        if let Ok(row) = self.row_of(user) {
            self.avatars.remove(row).avatar.encode(w);
        }
    }

    fn import_user(&mut self, ctx: &mut TickCtx<'_>, user: UserId, payload: &[u8]) {
        let known = self.avatars.len();
        self.costs.charge_mig_rcv(ctx.timers, known);
        let mut avatar = match Avatar::from_bytes(payload) {
            Ok(a) if a.user == user => a,
            _ => Avatar::spawn(user, self.world.spawn_point(user)),
        };
        avatar.ownership = Ownership::Active;
        let slot = Slot {
            avatar,
            origin: None,
        };
        match self.row_of(user) {
            Ok(row) => self.avatars[row] = slot,
            Err(row) => self.avatars.insert(row, slot),
        }
    }

    fn npc_count(&self) -> u32 {
        self.npcs.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rtf_core::event::Packet;
    use rtf_core::server::Envelope;
    use rtf_core::timer::TimeMode;

    fn app() -> RtfDemoApp {
        RtfDemoApp::new(World::default(), 0, CostModel::exact())
    }

    fn ctx_timers() -> TickTimers {
        TickTimers::new(TimeMode::Virtual)
    }

    fn with_ctx<T>(timers: &mut TickTimers, f: impl FnOnce(&mut TickCtx<'_>) -> T) -> T {
        let mut ctx = TickCtx {
            tick: 0,
            server: NodeId(0),
            timers,
        };
        f(&mut ctx)
    }

    /// Runs the input phase for one input; returns the forwarded
    /// interactions as `(target, payload)`.
    fn apply_input(
        app: &mut RtfDemoApp,
        timers: &mut TickTimers,
        user: UserId,
        payload: &[u8],
    ) -> Vec<(UserId, Bytes)> {
        let bufs = [Bytes::copy_from_slice(payload)];
        let envelopes = [Envelope::new(user, 0, 0..payload.len())];
        let (mut w, mut frames) = (WireWriter::new(), Vec::new());
        let mut sink = FrameSink::forwards(&mut w, NodeId(0), &mut frames);
        with_ctx(timers, |ctx| {
            app.apply_user_inputs(ctx, Batch::new(&bufs, &envelopes), &mut sink)
        });
        frames
            .into_iter()
            .map(|(target, frame)| match Packet::from_bytes(&frame) {
                Ok(Packet::ForwardedInput { payload, .. }) => (target, payload),
                other => panic!("not a forwarded input: {other:?}"),
            })
            .collect()
    }

    /// Runs the replica-update phase for one update.
    fn apply_replica_update(
        app: &mut RtfDemoApp,
        timers: &mut TickTimers,
        origin: NodeId,
        users: &[UserId],
        payload: &[u8],
    ) {
        let bufs = [Bytes::copy_from_slice(payload)];
        let envelopes = [Envelope::new((origin, 0, users.len()), 0, 0..payload.len())];
        let updates = ReplicaUpdates::new(Batch::new(&bufs, &envelopes), users);
        with_ctx(timers, |ctx| app.apply_replica_updates(ctx, updates));
    }

    /// Runs the send phase for `observers`; returns each one's payload.
    fn state_updates(
        app: &mut RtfDemoApp,
        timers: &mut TickTimers,
        observers: &[UserId],
    ) -> Vec<Bytes> {
        let (mut w, mut frames) = (WireWriter::new(), Vec::new());
        let mut sink = FrameSink::state_updates(&mut w, 0, &mut frames);
        with_ctx(timers, |ctx| {
            app.compute_interest(ctx, observers);
            app.encode_state_updates(ctx, observers, &mut sink);
        });
        frames
            .into_iter()
            .map(|(_, frame)| match Packet::from_bytes(&frame) {
                Ok(Packet::StateUpdate { payload, .. }) => payload,
                other => panic!("not a state update: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn aoi_scale_is_relative_to_base_and_restores_exactly() {
        let mut app = app();
        let base = app.world().aoi_radius;
        app.set_aoi_scale(0.5);
        assert!((app.world().aoi_radius - base * 0.5).abs() < 1e-6);
        app.set_aoi_scale(0.5);
        assert!(
            (app.world().aoi_radius - base * 0.5).abs() < 1e-6,
            "scaling must not compound"
        );
        assert!((app.aoi_scale() - 0.5).abs() < 1e-6);
        app.set_aoi_scale(1.0);
        assert!((app.world().aoi_radius - base).abs() < f32::EPSILON);
        app.set_aoi_scale(7.0);
        assert!(
            (app.world().aoi_radius - base).abs() < f32::EPSILON,
            "scale clamps to [0, 1]"
        );
    }

    #[test]
    fn connect_spawns_avatar() {
        let mut app = app();
        app.on_user_connected(UserId(1));
        assert_eq!(app.avatar_count(), 1);
        assert!(app.avatar(UserId(1)).unwrap().is_active());
    }

    #[test]
    fn move_command_moves_avatar_and_charges_ua() {
        let mut app = app();
        app.on_user_connected(UserId(1));
        let before = app.avatar(UserId(1)).unwrap().pos;
        let mut timers = ctx_timers();
        let batch = CommandBatch::movement(1.0, 0.0).to_bytes();
        apply_input(&mut app, &mut timers, UserId(1), &batch);
        let after = app.avatar(UserId(1)).unwrap().pos;
        assert!((after.x - before.x - app.world().move_speed).abs() < 1e-4);
        assert!(timers.get(TaskKind::Ua) > 0.0);
        assert!(timers.get(TaskKind::UaDser) > 0.0);
        assert_eq!(app.stats().moves_applied, 1);
    }

    #[test]
    fn attack_on_local_target_applies_damage() {
        let mut app = app();
        app.on_user_connected(UserId(1));
        app.on_user_connected(UserId(2));
        // Teleport them next to each other.
        let p = Vec2::new(500.0, 500.0);
        app.avatar_mut(UserId(1)).unwrap().pos = p;
        app.avatar_mut(UserId(2)).unwrap().pos = Vec2::new(510.0, 500.0);

        let mut timers = ctx_timers();
        let batch = CommandBatch::default()
            .with_attack(UserId(2), 25)
            .to_bytes();
        let forwards = apply_input(&mut app, &mut timers, UserId(1), &batch);
        assert!(forwards.is_empty(), "local target: nothing to forward");
        assert_eq!(app.avatar(UserId(2)).unwrap().health, 75);
        assert_eq!(app.stats().hits_on_active, 1);
    }

    #[test]
    fn attack_out_of_range_misses() {
        let mut app = app();
        app.on_user_connected(UserId(1));
        app.on_user_connected(UserId(2));
        app.avatar_mut(UserId(1)).unwrap().pos = Vec2::new(0.0, 0.0);
        app.avatar_mut(UserId(2)).unwrap().pos = Vec2::new(900.0, 900.0);
        let mut timers = ctx_timers();
        let batch = CommandBatch::default()
            .with_attack(UserId(2), 25)
            .to_bytes();
        apply_input(&mut app, &mut timers, UserId(1), &batch);
        assert_eq!(app.avatar(UserId(2)).unwrap().health, 100);
    }

    #[test]
    fn attack_on_shadow_target_forwards_interaction() {
        let mut app = app();
        app.on_user_connected(UserId(1));
        app.avatar_mut(UserId(1)).unwrap().pos = Vec2::new(500.0, 500.0);
        // Shadow next to the attacker, owned by server 9.
        let mut timers = ctx_timers();
        let mut w = WireWriter::new();
        w.put_u16(1);
        AvatarSnapshot {
            user: UserId(2),
            pos: Vec2::new(505.0, 500.0),
            health: 100,
        }
        .encode(&mut w);
        let payload = w.finish();
        apply_replica_update(&mut app, &mut timers, NodeId(9), &[UserId(2)], &payload);
        assert_eq!(app.avatar_count(), 2);

        let batch = CommandBatch::default()
            .with_attack(UserId(2), 30)
            .to_bytes();
        let forwards = apply_input(&mut app, &mut timers, UserId(1), &batch);
        assert_eq!(forwards.len(), 1);
        assert_eq!(forwards[0].0, UserId(2));
        let interaction = Interaction::from_bytes(&forwards[0].1).unwrap();
        assert_eq!(interaction.damage, 30);
        assert_eq!(app.stats().interactions_forwarded, 1);
        // The shadow's health is NOT touched locally; the owner decides.
        assert_eq!(app.avatar(UserId(2)).unwrap().health, 100);
    }

    #[test]
    fn forwarded_interaction_damages_active_target() {
        let mut app = app();
        app.on_user_connected(UserId(2));
        let mut timers = ctx_timers();
        let payload = Interaction {
            attacker: UserId(1),
            target: UserId(2),
            damage: 40,
        }
        .to_bytes();
        let envelopes = [Envelope::new(NodeId(9), 0, 0..payload.len())];
        with_ctx(&mut timers, |ctx| {
            app.apply_forwarded_inputs(ctx, Batch::new(std::slice::from_ref(&payload), &envelopes))
        });
        assert_eq!(app.avatar(UserId(2)).unwrap().health, 60);
        assert_eq!(app.stats().interactions_received, 1);
        assert!(timers.get(TaskKind::Fa) > 0.0);
        assert!(timers.get(TaskKind::FaDser) > 0.0);
    }

    #[test]
    fn replica_update_creates_and_prunes_shadows() {
        let mut app = app();
        let mut timers = ctx_timers();
        let make_payload = |ids: &[u64]| {
            let mut w = WireWriter::new();
            w.put_u16(ids.len() as u16);
            for &i in ids {
                AvatarSnapshot {
                    user: UserId(i),
                    pos: Vec2::new(1.0, 1.0),
                    health: 90,
                }
                .encode(&mut w);
            }
            w.finish()
        };
        let users1 = [UserId(10), UserId(11)];
        apply_replica_update(
            &mut app,
            &mut timers,
            NodeId(9),
            &users1,
            &make_payload(&[10, 11]),
        );
        assert_eq!(app.avatar_count(), 2);
        assert!(!app.avatar(UserId(10)).unwrap().is_active());

        // Next update no longer lists user 11: it must be pruned.
        let users2 = [UserId(10)];
        apply_replica_update(
            &mut app,
            &mut timers,
            NodeId(9),
            &users2,
            &make_payload(&[10]),
        );
        assert_eq!(app.avatar_count(), 1);
        assert!(app.avatar(UserId(11)).is_none());
    }

    #[test]
    fn replica_update_never_demotes_active_avatar() {
        let mut app = app();
        app.on_user_connected(UserId(1));
        let mut timers = ctx_timers();
        let mut w = WireWriter::new();
        w.put_u16(1);
        AvatarSnapshot {
            user: UserId(1),
            pos: Vec2::new(0.0, 0.0),
            health: 1,
        }
        .encode(&mut w);
        let payload = w.finish();
        apply_replica_update(&mut app, &mut timers, NodeId(9), &[UserId(1)], &payload);
        let a = app.avatar(UserId(1)).unwrap();
        assert!(a.is_active());
        assert_eq!(
            a.health, 100,
            "stale replica data ignored for active avatars"
        );
    }

    #[test]
    fn state_update_contains_self_and_visible() {
        let mut app = app();
        app.on_user_connected(UserId(1));
        app.on_user_connected(UserId(2));
        app.on_user_connected(UserId(3));
        app.avatar_mut(UserId(1)).unwrap().pos = Vec2::new(500.0, 500.0);
        app.avatar_mut(UserId(2)).unwrap().pos = Vec2::new(520.0, 500.0);
        app.avatar_mut(UserId(3)).unwrap().pos = Vec2::new(0.0, 0.0); // far away

        let mut timers = ctx_timers();
        let payload = state_updates(&mut app, &mut timers, &[UserId(1)]).remove(0);
        let mut r = WireReader::new(&payload);
        let count = r.get_u16().unwrap();
        assert_eq!(count, 2, "self + user 2; user 3 filtered by AoI");
        assert!(timers.get(TaskKind::Aoi) > 0.0);
        assert!(timers.get(TaskKind::Su) > 0.0);
    }

    #[test]
    fn export_import_round_trip_preserves_state() {
        let mut src = app();
        src.on_user_connected(UserId(5));
        src.avatar_mut(UserId(5)).unwrap().health = 37;
        src.avatar_mut(UserId(5)).unwrap().kills = 4;

        let mut timers = ctx_timers();
        let mut w = WireWriter::new();
        with_ctx(&mut timers, |ctx| src.export_user(ctx, UserId(5), &mut w));
        let blob = w.finish();
        assert!(
            src.avatar(UserId(5)).is_none(),
            "export removes the active copy"
        );
        assert!(timers.get(TaskKind::MigIni) > 0.0);

        let mut dst = app();
        with_ctx(&mut timers, |ctx| dst.import_user(ctx, UserId(5), &blob));
        dst.on_user_connected(UserId(5));
        let a = dst.avatar(UserId(5)).unwrap();
        assert!(a.is_active());
        assert_eq!(a.health, 37);
        assert_eq!(a.kills, 4);
        assert!(timers.get(TaskKind::MigRcv) > 0.0);
    }

    #[test]
    fn lethal_attack_respawns_and_counts_kill() {
        let mut app = app();
        app.on_user_connected(UserId(1));
        app.on_user_connected(UserId(2));
        app.avatar_mut(UserId(1)).unwrap().pos = Vec2::new(500.0, 500.0);
        app.avatar_mut(UserId(2)).unwrap().pos = Vec2::new(505.0, 500.0);
        app.avatar_mut(UserId(2)).unwrap().health = 10;

        let mut timers = ctx_timers();
        let batch = CommandBatch::default()
            .with_attack(UserId(2), 25)
            .to_bytes();
        apply_input(&mut app, &mut timers, UserId(1), &batch);
        let victim = app.avatar(UserId(2)).unwrap();
        assert_eq!(victim.health, crate::avatar::MAX_HEALTH);
        assert_eq!(victim.deaths, 1);
        assert_eq!(app.avatar(UserId(1)).unwrap().kills, 1);
        assert_eq!(app.stats().kills, 1);
    }

    #[test]
    fn updates_and_charges_equal_the_literal_scan() {
        // The send phase against the oracle: per observer, the literal
        // O(n²) scan over the avatars in ascending id order, one snapshot
        // per entity, and the work units that scan reports.
        let mut app = app();
        for u in 0..40 {
            app.on_user_connected(UserId(u));
        }
        let observers: Vec<UserId> = (0..40).map(UserId).collect();
        let mut timers = ctx_timers();
        let payloads = state_updates(&mut app, &mut timers, &observers);

        let mut costs = CostModel::exact();
        let mut expected = ctx_timers();
        for (user, payload) in observers.iter().zip(&payloads) {
            let me = app.avatar(*user).unwrap();
            let everyone = observers.iter().map(|u| (*u, app.avatar(*u).unwrap().pos));
            let aoi = crate::aoi::compute_aoi(app.world(), *user, &me.pos, everyone);
            let mut w = WireWriter::new();
            w.put_u16(aoi.visible.len() as u16 + 1);
            AvatarSnapshot::from(me).encode(&mut w);
            for seen in &aoi.visible {
                AvatarSnapshot::from(app.avatar(*seen).unwrap()).encode(&mut w);
            }
            assert_eq!(*payload, w.finish(), "payload bytes diverge for {user}");
            costs.charge_aoi(&mut expected, aoi.pairs_checked, aoi.dedup_scans);
            costs.charge_su(&mut expected, aoi.visible.len() + 1, payload.len());
        }
        assert_eq!(timers.get(TaskKind::Aoi), expected.get(TaskKind::Aoi));
        assert_eq!(timers.get(TaskKind::Su), expected.get(TaskKind::Su));
    }

    #[test]
    fn interest_is_recomputed_every_tick() {
        let mut app = app();
        app.on_user_connected(UserId(1));
        app.on_user_connected(UserId(2));
        app.avatar_mut(UserId(1)).unwrap().pos = Vec2::new(500.0, 500.0);
        app.avatar_mut(UserId(2)).unwrap().pos = Vec2::new(520.0, 500.0);
        let mut timers = ctx_timers();
        let tick0 = state_updates(&mut app, &mut timers, &[UserId(1)]).remove(0);
        let mut r = WireReader::new(&tick0);
        assert_eq!(r.get_u16().unwrap(), 2, "both visible at tick 0");

        // User 2 walks out of range; the next tick must see fresh data.
        app.avatar_mut(UserId(2)).unwrap().pos = Vec2::new(0.0, 0.0);
        let tick1 = state_updates(&mut app, &mut timers, &[UserId(1)]).remove(0);
        let mut r = WireReader::new(&tick1);
        assert_eq!(r.get_u16().unwrap(), 1, "only self visible at tick 1");
    }

    #[test]
    fn unknown_observer_gets_an_empty_update_and_no_charge() {
        let mut app = app();
        app.on_user_connected(UserId(1));
        let mut timers = ctx_timers();
        let payloads = state_updates(&mut app, &mut timers, &[UserId(1), UserId(9)]);
        assert!(!payloads[0].is_empty());
        assert!(payloads[1].is_empty());
        let mut alone = ctx_timers();
        state_updates(&mut app, &mut alone, &[UserId(1)]);
        assert_eq!(timers.get(TaskKind::Su), alone.get(TaskKind::Su));
    }

    #[test]
    fn replica_update_with_unsorted_duplicated_snapshots_keeps_the_table_sorted() {
        let mut app = app();
        app.on_user_connected(UserId(5));
        let mut timers = ctx_timers();
        let mut w = WireWriter::new();
        w.put_u16(4);
        for (nth, user) in [9, 3, 9, 7].into_iter().enumerate() {
            AvatarSnapshot {
                user: UserId(user),
                pos: Vec2::new(user as f32, 1.0),
                health: 50 + nth as i32,
            }
            .encode(&mut w);
        }
        let listed = [UserId(3), UserId(7), UserId(9)];
        apply_replica_update(&mut app, &mut timers, NodeId(9), &listed, &w.finish());
        let ids: Vec<u64> = app.avatars.iter().map(|s| s.avatar.user.0).collect();
        assert_eq!(ids, [3, 5, 7, 9]);
        assert!(app.avatar(UserId(5)).unwrap().is_active());
        assert_eq!(app.avatar(UserId(9)).unwrap().health, 52, "the later state");
    }

    // In a debug build the oversized list trips the `debug_assert!`; in a
    // release build it is cut to the first 65 535 entries.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "entries in one update"))]
    fn entry_count_is_clamped_not_wrapped() {
        let mut app = app();
        let users = u64::from(u16::MAX) + 5;
        for u in 0..users {
            app.on_user_connected(UserId(u));
        }
        let mut timers = ctx_timers();
        let mut w = WireWriter::new();
        with_ctx(&mut timers, |ctx| app.encode_replica_update(ctx, &mut w));
        let payload = w.finish();
        let mut r = WireReader::new(&payload);
        assert_eq!(r.get_u16().unwrap(), u16::MAX);
        let mut listed = 0u64;
        while let Ok(snap) = AvatarSnapshot::decode(&mut r) {
            assert_eq!(snap.user, UserId(listed), "the first entries, in order");
            listed += 1;
        }
        assert_eq!(listed, u64::from(u16::MAX));
    }

    #[test]
    fn npc_updates_charge_npc_task() {
        let mut app = RtfDemoApp::new(World::default(), 10, CostModel::exact());
        app.on_user_connected(UserId(1));
        let mut timers = ctx_timers();
        with_ctx(&mut timers, |ctx| app.update_npcs(ctx));
        assert!(timers.get(TaskKind::Npc) > 0.0);
        assert_eq!(app.npc_count(), 10);
    }

    #[test]
    fn garbage_input_is_ignored() {
        let mut app = app();
        app.on_user_connected(UserId(1));
        let mut timers = ctx_timers();
        let forwards = apply_input(&mut app, &mut timers, UserId(1), &[0xFF, 0x01]);
        assert!(forwards.is_empty());
        assert_eq!(app.stats().moves_applied, 0);
    }
}
