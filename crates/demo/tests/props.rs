//! Property-based tests of the game logic: interest-management geometry,
//! command/avatar serialization, combat arithmetic and work-unit counting.

mod reference;

use bytes::Bytes;
use proptest::prelude::*;
use reference::RefServer;
use rtf_core::entity::{Rect, UserId, Vec2};
use rtf_core::event::Packet;
use rtf_core::server::{Server, ServerConfig};
use rtf_core::wire::{Wire, WireWriter};
use rtf_core::zone::ZoneId;
use rtf_net::{Bus, Endpoint, NodeId};
use rtfdemo::{
    compute_aoi, AoiGrid, Avatar, AvatarSnapshot, Command, CommandBatch, CostModel, CostRates,
    Interaction, RtfDemoApp, World, MAX_HEALTH,
};
use std::collections::BTreeMap;

fn arb_pos() -> impl Strategy<Value = Vec2> {
    (0.0f32..1000.0, 0.0f32..1000.0).prop_map(|(x, y)| Vec2::new(x, y))
}

fn arb_command() -> impl Strategy<Value = Command> {
    prop_oneof![
        (-1.0f32..1.0, -1.0f32..1.0).prop_map(|(dx, dy)| Command::Move { dx, dy }),
        (any::<u64>(), any::<u16>()).prop_map(|(t, d)| Command::Attack {
            target: UserId(t),
            damage: d
        }),
    ]
}

proptest! {
    #[test]
    fn aoi_is_symmetric(a in arb_pos(), b in arb_pos()) {
        let world = World::default();
        prop_assert_eq!(world.in_aoi(&a, &b), world.in_aoi(&b, &a));
    }

    #[test]
    fn aoi_visible_set_matches_distance_predicate(
        observer in arb_pos(),
        others in proptest::collection::vec(arb_pos(), 0..60),
    ) {
        let world = World::default();
        let pairs: Vec<(UserId, Vec2)> = others
            .iter()
            .enumerate()
            .map(|(i, &p)| (UserId(i as u64 + 1), p))
            .collect();
        let result = compute_aoi(&world, UserId(0), &observer, pairs.iter().copied());
        for (user, pos) in &pairs {
            let expected = world.in_aoi(&observer, pos);
            let listed = result.visible.contains(user);
            prop_assert_eq!(expected, listed, "user {} at {:?}", user, pos);
        }
        prop_assert_eq!(result.pairs_checked, pairs.len());
    }

    #[test]
    fn aoi_has_no_duplicates(
        observer in arb_pos(),
        others in proptest::collection::vec((0u64..10, arb_pos()), 0..40),
    ) {
        // Duplicate user ids on purpose.
        let world = World::default();
        let pairs: Vec<(UserId, Vec2)> =
            others.iter().map(|&(id, p)| (UserId(id), p)).collect();
        let result = compute_aoi(&world, UserId(99), &observer, pairs.iter().copied());
        let mut seen = std::collections::BTreeSet::new();
        for u in &result.visible {
            prop_assert!(seen.insert(*u), "duplicate {u} in update list");
        }
    }

    #[test]
    fn movement_stays_in_bounds(start in arb_pos(), dx in -1e3f32..1e3, dy in -1e3f32..1e3) {
        let world = World::default();
        let moved = world.apply_move(&start, dx, dy);
        prop_assert!(world.bounds.contains(&moved), "{moved:?} escaped");
    }

    #[test]
    fn movement_step_bounded_by_speed(start in arb_pos(), dx in -10.0f32..10.0, dy in -10.0f32..10.0) {
        let world = World::default();
        let moved = world.apply_move(&start, dx, dy);
        prop_assert!(start.distance(&moved) <= world.move_speed + 1e-3);
    }

    #[test]
    fn command_batch_round_trips(cmds in proptest::collection::vec(arb_command(), 0..8)) {
        let batch = CommandBatch { commands: cmds };
        let decoded = CommandBatch::from_bytes(&batch.to_bytes()).unwrap();
        prop_assert_eq!(batch, decoded);
    }

    #[test]
    fn avatar_round_trips(
        user in any::<u64>(),
        pos in arb_pos(),
        health in 1i32..=MAX_HEALTH,
        kills in 0u32..100,
        deaths in 0u32..100,
    ) {
        let mut a = Avatar::spawn(UserId(user), pos);
        a.health = health;
        a.kills = kills;
        a.deaths = deaths;
        let b = Avatar::from_bytes(&a.to_bytes()).unwrap();
        prop_assert_eq!(a.user, b.user);
        prop_assert_eq!(a.health, b.health);
        prop_assert_eq!(a.kills, b.kills);
        prop_assert_eq!(a.deaths, b.deaths);
        prop_assert!((a.pos.x - b.pos.x).abs() < 1e-6);
    }

    #[test]
    fn snapshot_round_trips(user in any::<u64>(), pos in arb_pos(), health in 0i32..=MAX_HEALTH) {
        let s = AvatarSnapshot { user: UserId(user), pos, health };
        prop_assert_eq!(AvatarSnapshot::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn damage_sequence_preserves_health_invariants(damages in proptest::collection::vec(1u16..80, 0..50)) {
        let world = World::default();
        let mut a = Avatar::spawn(UserId(1), world.spawn_point(UserId(1)));
        let mut kills_expected = 0u32;
        for d in damages {
            if a.take_damage(d, world.spawn_point(UserId(1))) {
                kills_expected += 1;
            }
            prop_assert!(a.health > 0 && a.health <= MAX_HEALTH, "health {}", a.health);
        }
        prop_assert_eq!(a.deaths, kills_expected);
    }

    #[test]
    fn spawn_points_always_inside(user in any::<u64>()) {
        let world = World::default();
        let p = world.spawn_point(UserId(user));
        prop_assert!(world.bounds.contains(&p));
    }
}

proptest! {
    /// The spatial-hash fast path must be observably identical to the
    /// paper's quadratic scan for map-backed callers (unique ids,
    /// ascending iteration): same visible set, and counters that follow
    /// the quadratic formulas the virtual cost model charges.
    #[test]
    fn grid_aoi_matches_quadratic_scan(
        side in 200.0f32..4000.0,
        radius in 1.0f32..800.0,
        fracs in proptest::collection::vec((0.0f32..1.0, 0.0f32..1.0), 1..60),
    ) {
        let world = World {
            bounds: Rect::square(side),
            aoi_radius: radius,
            ..World::default()
        };
        let avatars: Vec<(UserId, Vec2)> = fracs
            .iter()
            .enumerate()
            .map(|(i, &(fx, fy))| (UserId(i as u64), Vec2::new(fx * side, fy * side)))
            .collect();
        let mut grid = AoiGrid::default();
        grid.rebuild(&world, &avatars);
        for &(observer, pos) in &avatars {
            let quad = compute_aoi(&world, observer, &pos, avatars.iter().copied());
            let fast = grid.query(&world, observer, &pos, avatars.len() - 1);
            prop_assert_eq!(&fast.visible, &quad.visible, "observer {:?}", observer);
            prop_assert_eq!(fast.pairs_checked, avatars.len() - 1, "quadratic scan count");
            prop_assert_eq!(fast.pairs_checked, quad.pairs_checked);
            let v = fast.visible.len();
            prop_assert_eq!(fast.dedup_scans, v * v.saturating_sub(1) / 2);
            prop_assert_eq!(fast.dedup_scans, quad.dedup_scans);
        }
    }
}

// --- The phase pipeline against the literal reference -------------------
//
// `Server<RtfDemoApp>` runs a tick as batched phases over dense state;
// `reference::RefServer` runs the same tick one item at a time. Fed the
// same traffic they must send byte-identical frames in the same order on
// every link and account bit-identical virtual seconds per task — with
// measurement noise on, so the order of cost-model charges is checked too.

/// SplitMix64: the script's only source of randomness.
struct Script(u64);

impl Script {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
    fn pick(&mut self, from: &[UserId]) -> UserId {
        from.get(self.below(from.len()))
            .copied()
            .unwrap_or(UserId(u64::MAX))
    }
    fn pos(&mut self, side: f32) -> Vec2 {
        let f = |v: u64| (v >> 40) as f32 / (1u64 << 24) as f32 * side;
        Vec2::new(f(self.next()), f(self.next()))
    }
}

/// The two servers under comparison and the endpoints around them.
struct Rig {
    bus: Bus,
    server: Server<RtfDemoApp>,
    literal: RefServer,
    /// Every endpoint a frame can be addressed to, by node id.
    endpoints: BTreeMap<NodeId, Endpoint>,
    inbox: Vec<Bytes>,
}

impl Rig {
    fn new(side: f32, radius: f32, scale: f64, seed: u64) -> Self {
        let world = World {
            bounds: Rect::square(side),
            aoi_radius: radius,
            ..World::default()
        };
        let bus = Bus::new();
        let costs = || CostModel::new(CostRates::default(), 0.08, seed);
        let mut app = RtfDemoApp::new(world.clone(), 0, costs());
        app.set_aoi_scale(scale);
        let mut server = Server::new(&bus, "pipeline", ZoneId(1), app, ServerConfig::default());
        let peers: Vec<Endpoint> = (0..2).map(|_| bus.register("peer")).collect();
        let peer_ids: Vec<NodeId> = peers.iter().map(Endpoint::id).collect();
        server.set_peers(peer_ids.clone());
        let literal_world = World {
            aoi_radius: server.app().world().aoi_radius,
            ..world
        };
        let literal = RefServer::new(server.id(), peer_ids, literal_world, costs());
        Self {
            bus,
            server,
            literal,
            endpoints: peers.into_iter().map(|e| (e.id(), e)).collect(),
            inbox: Vec::new(),
        }
    }

    fn peer(&self, i: usize) -> NodeId {
        self.literal.peers[i]
    }

    fn new_endpoint(&mut self) -> NodeId {
        let endpoint = self.bus.register("client");
        let id = endpoint.id();
        self.endpoints.insert(id, endpoint);
        id
    }

    fn connect(&mut self, user: UserId) {
        let client = self.new_endpoint();
        assert!(self.server.connect_user(user, client));
        self.literal.connect_user(user, client);
    }

    /// Delivers `pkt` from `from` to both servers.
    fn deliver(&mut self, from: NodeId, pkt: &Packet) {
        self.deliver_raw(from, pkt.to_bytes());
    }

    fn deliver_raw(&mut self, from: NodeId, frame: Bytes) {
        let sender = self.endpoints.get(&from).expect("known sender");
        sender.send(self.server.id(), frame.clone()).expect("sent");
        self.inbox.push(frame);
    }

    fn migrate_out(&mut self, user: UserId, target: NodeId) {
        self.server.schedule_migration(user, target);
        self.literal.pending_migrations.push_back((user, target));
    }

    /// A replica update from `origin` carrying `snapshots`, listing `users`.
    fn replica_update(&mut self, origin: NodeId, users: Vec<UserId>, snapshots: &[AvatarSnapshot]) {
        let mut w = WireWriter::new();
        w.put_u16(snapshots.len() as u16);
        for snap in snapshots {
            snap.encode(&mut w);
        }
        let update = Packet::ReplicaUpdate {
            origin,
            users,
            payload: w.finish(),
        };
        self.deliver(origin, &update);
    }

    /// Ticks both servers on what was delivered and compares everything
    /// observable.
    fn tick_and_compare(&mut self, what: &str) -> Result<(), String> {
        let record = self.server.tick();
        let expected = self.literal.tick(&std::mem::take(&mut self.inbox));
        let mut per_link: BTreeMap<NodeId, Vec<Bytes>> = BTreeMap::new();
        for (to, frame) in expected.sent {
            per_link.entry(to).or_default().push(frame);
        }
        for (id, endpoint) in &self.endpoints {
            let got: Vec<Bytes> = endpoint.drain().into_iter().map(|m| m.payload).collect();
            let want = per_link.remove(id).unwrap_or_default();
            if got != want {
                let at = got.iter().zip(&want).position(|(g, w)| g != w);
                return Err(format!(
                    "{what}: frames to {id} diverge at {at:?} ({} sent, {} expected)",
                    got.len(),
                    want.len()
                ));
            }
        }
        if let Some((to, frames)) = per_link.into_iter().find(|(_, f)| !f.is_empty()) {
            // Only frames to endpoints that no longer exist may be left.
            if self.endpoints.contains_key(&to) {
                return Err(format!(
                    "{what}: {} frames to {to} never sent",
                    frames.len()
                ));
            }
        }
        let bits = |t: &[f64]| t.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        if bits(&record.per_task) != bits(&expected.per_task) {
            return Err(format!(
                "{what}: virtual per-task seconds diverge: {:?} vs {:?}",
                record.per_task, expected.per_task
            ));
        }
        let counts = (
            record.active_users,
            record.shadow_users,
            record.inputs_processed,
            record.forwarded_processed,
        );
        let expected_counts = (
            expected.active_users,
            expected.shadow_users,
            expected.inputs_processed,
            expected.forwarded_processed,
        );
        if counts != expected_counts {
            return Err(format!(
                "{what}: counters {counts:?} vs {expected_counts:?}"
            ));
        }
        Ok(())
    }

    /// One input per user in `from`: a move, usually an attack on someone
    /// in `targets`, now and then garbage.
    fn inputs(&mut self, script: &mut Script, from: &[UserId], targets: &[UserId]) {
        for (seq, &user) in from.iter().enumerate() {
            let Some(&client) = self.literal.clients.get(&user) else {
                continue;
            };
            let payload = if script.chance(3) {
                Bytes::from_static(&[0xFF, 0x01, 0x02])
            } else {
                let angle = script.next() as f32;
                let mut batch = CommandBatch::movement(angle.cos(), angle.sin());
                if script.chance(70) {
                    batch = batch.with_attack(script.pick(targets), 10 + script.below(140) as u16);
                }
                batch.to_bytes()
            };
            let input = Packet::UserInput {
                user,
                seq: seq as u32,
                payload,
            };
            self.deliver(client, &input);
        }
    }
}

fn snapshot(script: &mut Script, user: UserId, side: f32) -> AvatarSnapshot {
    AvatarSnapshot {
        user,
        pos: script.pos(side),
        health: 1 + script.below(MAX_HEALTH as usize) as i32,
    }
}

/// Builds a population of `actives` connected users and `shadows` mirrored
/// ones, then plays two ticks of everything a tick can contain.
fn scripted_ticks_match_reference(
    side: f32,
    radius: f32,
    scale: f64,
    actives: usize,
    shadows: usize,
    seed: u64,
) -> Result<(), String> {
    let mut script = Script(seed);
    let mut rig = Rig::new(side, radius, scale, seed);
    let (p0, p1) = (rig.peer(0), rig.peer(1));

    // Distinct ids, interleaved between owners so the sorted avatar table
    // mixes active and shadow rows.
    let mut ids: Vec<UserId> = (0..(actives + shadows + 8) as u64)
        .map(|i| UserId(i * 3 + script.next() % 3))
        .collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, script.below(i + 1));
    }
    let spare = ids.split_off(actives + shadows);
    let mut mine = ids.split_off(shadows);
    let (of_p0, of_p1) = ids.split_at(shadows / 2);
    let (mut of_p0, mut of_p1) = (of_p0.to_vec(), of_p1.to_vec());
    of_p0.sort_unstable();
    of_p1.sort_unstable();

    // Tick 0: everyone appears.
    for &user in &mine {
        rig.connect(user);
    }
    for (origin, users) in [(p0, &of_p0), (p1, &of_p1)] {
        let snaps: Vec<_> = users
            .iter()
            .map(|&u| snapshot(&mut script, u, side))
            .collect();
        rig.replica_update(origin, users.clone(), &snaps);
    }
    rig.tick_and_compare("tick 0")?;

    // Tick 1: inputs, both kinds of peer traffic, both migration
    // directions, a join and a leave — all in one tick.
    let everyone: Vec<UserId> = mine
        .iter()
        .chain(&of_p0)
        .chain(&of_p1)
        .chain(&spare[..2])
        .copied()
        .collect();
    let senders: Vec<UserId> = mine.iter().copied().filter(|_| script.chance(85)).collect();
    rig.inputs(&mut script, &senders, &everyone);
    // An input from a user that is not connected here is dropped.
    let stranger = Packet::UserInput {
        user: spare[0],
        seq: 0,
        payload: CommandBatch::movement(1.0, 0.0).to_bytes(),
    };
    rig.deliver(p0, &stranger);

    // Peer 0: keeps most of its users (moved), drops some, gains one; its
    // user list arrives shuffled and with a duplicate, and so do the
    // snapshots.
    let mut kept: Vec<UserId> = of_p0
        .iter()
        .copied()
        .filter(|_| script.chance(80))
        .collect();
    kept.push(spare[2]);
    let mut snaps: Vec<_> = kept
        .iter()
        .map(|&u| snapshot(&mut script, u, side))
        .collect();
    if let Some(first) = kept.first().copied() {
        kept.push(first);
        snaps.push(snapshot(&mut script, first, side));
    }
    for i in (1..kept.len()).rev() {
        let j = script.below(i + 1);
        kept.swap(i, j);
        snaps.swap(i, j);
    }
    rig.replica_update(p0, kept, &snaps);
    // Peer 1: sorted as usual, but it also claims one of our users (a
    // migration race — never demoted) and one of peer 0's.
    let mut claimed = of_p1.clone();
    claimed.extend(mine.first());
    claimed.extend(of_p0.first());
    claimed.sort_unstable();
    let snaps: Vec<_> = claimed
        .iter()
        .map(|&u| snapshot(&mut script, u, side))
        .collect();
    rig.replica_update(p1, claimed, &snaps);

    // Forwarded interactions: on active targets (some lethal), on a
    // shadow (ignored), and garbage.
    for _ in 0..(mine.len() / 3 + 2) {
        let interaction = Interaction {
            attacker: script.pick(&of_p0),
            target: script.pick(&everyone),
            damage: 20 + script.below(130) as u16,
        };
        let forwarded = Packet::ForwardedInput {
            origin: p0,
            payload: interaction.to_bytes(),
        };
        rig.deliver(p0, &forwarded);
    }
    let garbage = Packet::ForwardedInput {
        origin: p1,
        payload: Bytes::from_static(b"?"),
    };
    rig.deliver(p1, &garbage);

    // A user migrates in from peer 1 (it was a shadow here until now)...
    if let Some(&arriving) = of_p1.last() {
        let mut avatar = Avatar::spawn(arriving, script.pos(side));
        avatar.health = 42;
        avatar.kills = 3;
        let data = Packet::MigrationData {
            user: arriving,
            client: rig.new_endpoint(),
            payload: avatar.to_bytes(),
        };
        rig.deliver(p1, &data);
        mine.push(arriving);
    }
    // ... one migrates out, one leaves, one joins.
    if mine.len() > 3 {
        rig.migrate_out(mine[1], p1);
        let leaving = mine[2];
        let client = rig.literal.clients[&leaving];
        rig.deliver(client, &Packet::Disconnect { user: leaving });
    }
    let joining = Packet::Connect {
        user: spare[3],
        client: rig.new_endpoint(),
    };
    let from = rig.new_endpoint();
    rig.deliver(from, &joining);
    mine.push(spare[3]);
    rig.tick_and_compare("tick 1")?;

    // Tick 2: whatever state tick 1 left behind must agree too.
    let senders = mine.clone();
    rig.inputs(&mut script, &senders, &everyone);
    rig.tick_and_compare("tick 2")
}

/// The AoI fidelity settings degraded mode moves between, plus "off".
const AOI_SCALES: [f64; 4] = [0.0, 1e-3, 0.6, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_phases_match_the_literal_reference(
        side in 200.0f32..3000.0,
        radius in 1.0f32..600.0,
        scale in 0usize..4,
        actives in 0usize..300,
        shadows in 0usize..300,
        seed in any::<u64>(),
    ) {
        let outcome =
            scripted_ticks_match_reference(side, radius, AOI_SCALES[scale], actives, shadows, seed);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

#[test]
fn batched_phases_match_the_literal_reference_at_the_operating_point() {
    // The paper's shape — 100 active users beside 300 shadows in the
    // default world — at every fidelity, and the empty and tiny corners.
    for (i, scale) in AOI_SCALES.into_iter().enumerate() {
        scripted_ticks_match_reference(1000.0, 150.0, scale, 100, 300, 7 + i as u64).unwrap();
    }
    scripted_ticks_match_reference(1000.0, 150.0, 1.0, 0, 0, 1).unwrap();
    scripted_ticks_match_reference(1000.0, 150.0, 1.0, 1, 0, 2).unwrap();
    scripted_ticks_match_reference(1000.0, 150.0, 1.0, 0, 5, 3).unwrap();
    scripted_ticks_match_reference(400.0, 900.0, 1.0, 300, 300, 4).unwrap();
}
