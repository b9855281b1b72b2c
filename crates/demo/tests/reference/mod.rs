//! The literal reference the phase pipeline is checked against: RTFDemo's
//! game logic and the server's real-time loop written the way §II and §V-A
//! describe them, one item at a time — tree maps, the O(n²) interest scan
//! per observer, one `AvatarSnapshot::encode` per entity into a payload of
//! its own, then `Packet::to_bytes` around it. No batching, no reuse, no
//! index. It charges the same `CostModel` in the order the per-item loop
//! implies, so with equal seeds its virtual per-task seconds must equal the
//! pipeline's to the bit.

use bytes::Bytes;
use rtf_core::entity::{Ownership, UserId};
use rtf_core::event::Packet;
use rtf_core::timer::{TickTimers, TimeMode, TASK_COUNT};
use rtf_core::wire::{Wire, WireReader, WireWriter};
use rtf_net::NodeId;
use rtfdemo::{
    compute_aoi, Avatar, AvatarSnapshot, Command, CommandBatch, CostModel, Interaction, World,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// What one reference tick produced.
pub struct RefTick {
    /// Every frame sent, in send order.
    pub sent: Vec<(NodeId, Bytes)>,
    /// Virtual seconds per task.
    pub per_task: [f64; TASK_COUNT],
    pub active_users: u32,
    pub shadow_users: u32,
    pub inputs_processed: u32,
    pub forwarded_processed: u32,
}

/// One replica of one zone, literally.
pub struct RefServer {
    pub id: NodeId,
    pub peers: Vec<NodeId>,
    pub clients: BTreeMap<UserId, NodeId>,
    shadows_by_origin: BTreeMap<NodeId, BTreeSet<UserId>>,
    pub pending_migrations: VecDeque<(UserId, NodeId)>,
    pub world: World,
    pub avatars: BTreeMap<UserId, Avatar>,
    shadow_origin: BTreeMap<UserId, NodeId>,
    costs: CostModel,
    timers: TickTimers,
    tick: u64,
}

impl RefServer {
    pub fn new(id: NodeId, peers: Vec<NodeId>, world: World, costs: CostModel) -> Self {
        Self {
            id,
            peers,
            clients: BTreeMap::new(),
            shadows_by_origin: BTreeMap::new(),
            pending_migrations: VecDeque::new(),
            world,
            avatars: BTreeMap::new(),
            shadow_origin: BTreeMap::new(),
            costs,
            timers: TickTimers::new(TimeMode::Virtual),
            tick: 0,
        }
    }

    pub fn connect_user(&mut self, user: UserId, client: NodeId) {
        self.clients.insert(user, client);
        for set in self.shadows_by_origin.values_mut() {
            set.remove(&user);
        }
        self.on_user_connected(user);
    }

    fn on_user_connected(&mut self, user: UserId) {
        let spawn = self.world.spawn_point(user);
        let avatar = self
            .avatars
            .entry(user)
            .or_insert_with(|| Avatar::spawn(user, spawn));
        avatar.ownership = Ownership::Active;
        self.shadow_origin.remove(&user);
    }

    fn on_user_disconnected(&mut self, user: UserId) {
        if self.avatars.get(&user).is_some_and(Avatar::is_active) {
            self.avatars.remove(&user);
        }
    }

    fn shadow_owner(&self, user: UserId) -> Option<NodeId> {
        self.shadows_by_origin
            .iter()
            .find(|(_, users)| users.contains(&user))
            .map(|(origin, _)| *origin)
    }

    fn apply_attack(&mut self, attacker: UserId, target: UserId, damage: u16) -> Option<Bytes> {
        let scanned = self.avatars.len();
        self.costs.charge_attack(&mut self.timers, scanned);
        let attacker_pos = self.avatars.get(&attacker)?.pos;
        let (ownership, target_pos) = self.avatars.get(&target).map(|a| (a.ownership, a.pos))?;
        if !self.world.in_attack_range(&attacker_pos, &target_pos) {
            return None;
        }
        match ownership {
            Ownership::Active => {
                let respawn = self.world.spawn_point(target);
                let lethal = self
                    .avatars
                    .get_mut(&target)
                    .map(|t| t.take_damage(damage, respawn))
                    .unwrap_or(false);
                if lethal {
                    if let Some(a) = self.avatars.get_mut(&attacker) {
                        a.kills += 1;
                    }
                }
                None
            }
            Ownership::Shadow => Some(
                Interaction {
                    attacker,
                    target,
                    damage,
                }
                .to_bytes(),
            ),
        }
    }

    fn apply_user_input(&mut self, user: UserId, payload: &[u8]) -> Vec<(UserId, Bytes)> {
        let Ok(batch) = CommandBatch::from_bytes(payload) else {
            return Vec::new();
        };
        self.costs
            .charge_ua_dser(&mut self.timers, payload.len(), batch.commands.len());
        let mut forwards = Vec::new();
        for cmd in batch.commands {
            match cmd {
                Command::Move { dx, dy } => {
                    self.costs.charge_move(&mut self.timers);
                    let new_pos = match self.avatars.get(&user) {
                        Some(a) if a.is_active() => self.world.apply_move(&a.pos, dx, dy),
                        _ => continue,
                    };
                    if let Some(a) = self.avatars.get_mut(&user) {
                        a.pos = new_pos;
                    }
                }
                Command::Attack { target, damage } => {
                    if let Some(payload) = self.apply_attack(user, target, damage) {
                        forwards.push((target, payload));
                    }
                }
            }
        }
        forwards
    }

    fn apply_forwarded_input(&mut self, payload: &[u8]) {
        self.costs.charge_fa_dser(&mut self.timers, payload.len());
        let Ok(interaction) = Interaction::from_bytes(payload) else {
            return;
        };
        self.costs.charge_fa_apply(&mut self.timers);
        let respawn = self.world.spawn_point(interaction.target);
        if let Some(target) = self.avatars.get_mut(&interaction.target) {
            if target.is_active() {
                target.take_damage(interaction.damage, respawn);
            }
        }
    }

    fn apply_replica_update(&mut self, origin: NodeId, users: &[UserId], payload: &[u8]) {
        self.costs.charge_fa_dser(&mut self.timers, payload.len());
        let mut r = WireReader::new(payload);
        let Ok(count) = r.get_u16() else { return };
        let mut applied = 0usize;
        for _ in 0..count {
            let Ok(snap) = AvatarSnapshot::decode(&mut r) else {
                break;
            };
            if self.avatars.get(&snap.user).is_some_and(Avatar::is_active) {
                continue;
            }
            let shadow = self
                .avatars
                .entry(snap.user)
                .or_insert_with(|| Avatar::shadow(snap.user, snap.pos, snap.health));
            shadow.pos = snap.pos;
            shadow.health = snap.health;
            shadow.ownership = Ownership::Shadow;
            self.shadow_origin.insert(snap.user, origin);
            applied += 1;
        }
        self.costs.charge_fa_shadow(&mut self.timers, applied);
        let listed: BTreeSet<UserId> = users.iter().copied().collect();
        let stale: Vec<UserId> = self
            .shadow_origin
            .iter()
            .filter(|(u, o)| **o == origin && !listed.contains(u))
            .map(|(u, _)| *u)
            .collect();
        for user in stale {
            if self.avatars.get(&user).is_some_and(|a| !a.is_active()) {
                self.avatars.remove(&user);
            }
            self.shadow_origin.remove(&user);
        }
    }

    fn state_update_for(&mut self, user: UserId) -> Bytes {
        let Some(observer) = self.avatars.get(&user) else {
            return Bytes::new();
        };
        let aoi = compute_aoi(
            &self.world,
            user,
            &observer.pos,
            self.avatars.values().map(|a| (a.user, a.pos)),
        );
        self.costs
            .charge_aoi(&mut self.timers, aoi.pairs_checked, aoi.dedup_scans);
        let mut w = WireWriter::new();
        w.put_u16((aoi.visible.len() + 1) as u16);
        AvatarSnapshot::from(&self.avatars[&user]).encode(&mut w);
        for target in &aoi.visible {
            AvatarSnapshot::from(&self.avatars[target]).encode(&mut w);
        }
        let payload = w.finish();
        self.costs
            .charge_su(&mut self.timers, aoi.visible.len() + 1, payload.len());
        payload
    }

    fn replica_update(&self) -> Bytes {
        let active: Vec<&Avatar> = self.avatars.values().filter(|a| a.is_active()).collect();
        let mut w = WireWriter::new();
        w.put_u16(active.len() as u16);
        for a in active {
            AvatarSnapshot::from(a).encode(&mut w);
        }
        w.finish()
    }

    /// One iteration of the real-time loop over `inbox`, in arrival order.
    pub fn tick(&mut self, inbox: &[Bytes]) -> RefTick {
        self.timers.reset();
        let mut sent: Vec<(NodeId, Bytes)> = Vec::new();
        let (mut inputs_processed, mut forwarded_processed) = (0u32, 0u32);
        let of_kind = |tags: &[u8]| -> Vec<Packet> {
            inbox
                .iter()
                .filter(|b| b.first().is_some_and(|t| tags.contains(t)))
                .filter_map(|b| Packet::from_bytes(b).ok())
                .collect()
        };

        for pkt in of_kind(&[8]) {
            if let Packet::MigrationData {
                user,
                client,
                payload,
            } = pkt
            {
                self.clients.insert(user, client);
                for set in self.shadows_by_origin.values_mut() {
                    set.remove(&user);
                }
                let known = self.avatars.len();
                self.costs.charge_mig_rcv(&mut self.timers, known);
                let mut avatar = match Avatar::from_bytes(&payload) {
                    Ok(a) => a,
                    Err(_) => Avatar::spawn(user, self.world.spawn_point(user)),
                };
                avatar.ownership = Ownership::Active;
                self.shadow_origin.remove(&user);
                self.avatars.insert(user, avatar);
                self.on_user_connected(user);
                sent.push((client, Packet::ConnectAck { user }.to_bytes()));
            }
        }
        for pkt in of_kind(&[1, 2, 3, 7, 9]) {
            match pkt {
                Packet::Connect { user, client } => {
                    let fresh = !self.clients.contains_key(&user);
                    if fresh {
                        self.connect_user(user, client);
                    }
                    if fresh || self.clients.get(&user) == Some(&client) {
                        sent.push((client, Packet::ConnectAck { user }.to_bytes()));
                    }
                }
                Packet::Disconnect { user } if self.clients.remove(&user).is_some() => {
                    self.on_user_disconnected(user);
                }
                _ => {}
            }
        }
        for pkt in of_kind(&[6]) {
            if let Packet::ReplicaUpdate {
                origin,
                users,
                payload,
            } = pkt
            {
                let set: BTreeSet<UserId> = users
                    .iter()
                    .copied()
                    .filter(|u| !self.clients.contains_key(u))
                    .collect();
                forwarded_processed += set.len() as u32;
                self.shadows_by_origin.insert(origin, set);
                self.apply_replica_update(origin, &users, &payload);
            }
        }
        for pkt in of_kind(&[5]) {
            if let Packet::ForwardedInput { payload, .. } = pkt {
                forwarded_processed += 1;
                self.apply_forwarded_input(&payload);
            }
        }
        let mut outgoing_forwards = Vec::new();
        for pkt in of_kind(&[4]) {
            if let Packet::UserInput { user, payload, .. } = pkt {
                if !self.clients.contains_key(&user) {
                    continue;
                }
                inputs_processed += 1;
                for (target, payload) in self.apply_user_input(user, &payload) {
                    if let Some(owner) = self.shadow_owner(target) {
                        let pkt = Packet::ForwardedInput {
                            origin: self.id,
                            payload,
                        };
                        outgoing_forwards.push((owner, pkt.to_bytes()));
                    }
                }
            }
        }
        sent.append(&mut outgoing_forwards);

        // No NPCs in the reference worlds, but the pass still bills its
        // (zero) work units — and so draws from the noise stream.
        self.costs.charge_npc(&mut self.timers, 0, 0);

        while let Some((user, target)) = self.pending_migrations.pop_front() {
            let Some(&client) = self.clients.get(&user) else {
                continue;
            };
            let known = self.avatars.len();
            self.costs.charge_mig_ini(&mut self.timers, known);
            let payload = match self.avatars.remove(&user) {
                Some(avatar) => avatar.to_bytes(),
                None => Bytes::new(),
            };
            let data = Packet::MigrationData {
                user,
                client,
                payload,
            };
            sent.push((target, data.to_bytes()));
            let redirect = Packet::Redirect {
                user,
                new_server: target,
            };
            sent.push((client, redirect.to_bytes()));
            self.clients.remove(&user);
            self.on_user_disconnected(user);
        }

        let users: Vec<(UserId, NodeId)> = self.clients.iter().map(|(u, c)| (*u, *c)).collect();
        for (user, client) in users {
            let payload = self.state_update_for(user);
            let pkt = Packet::StateUpdate {
                user,
                tick: self.tick,
                payload,
            };
            sent.push((client, pkt.to_bytes()));
        }
        if !self.peers.is_empty() && !self.clients.is_empty() {
            let pkt = Packet::ReplicaUpdate {
                origin: self.id,
                users: self.clients.keys().copied().collect(),
                payload: self.replica_update(),
            };
            let buf = pkt.to_bytes();
            for &peer in &self.peers {
                sent.push((peer, buf.clone()));
            }
        }

        self.tick += 1;
        RefTick {
            sent,
            per_task: self.timers.snapshot(),
            active_users: self.clients.len() as u32,
            shadow_users: self
                .shadows_by_origin
                .values()
                .map(|s| s.len() as u32)
                .sum(),
            inputs_processed,
            forwarded_processed,
        }
    }
}
