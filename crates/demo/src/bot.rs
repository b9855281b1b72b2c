//! Randomly interacting, computer-controlled bots.
//!
//! §V-A: "In order to simulate an average workload, we use randomly
//! interacting, computer-controlled bots for our experiments." A [`Bot`]
//! drives one client: it moves every tick and attacks with a probability
//! that grows with the number of potential targets it currently sees —
//! reproducing the paper's observation that "the number of attack commands
//! in RTFDemo increases almost linearly for higher user numbers [...] due
//! to a higher number of potential targets".

use crate::commands::{Command, CommandBatch};
use roia_rng::{Rng, Xoshiro256pp};
use rtf_core::client::InputSource;
use rtf_core::wire::{Wire, WireReader, WireWriter};
use rtf_core::UserId;
use rtf_net::Bytes;

/// Attack-behaviour knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BotBehavior {
    /// Base probability of attacking in a tick, regardless of targets.
    pub attack_base: f64,
    /// Additional attack probability per visible target.
    pub attack_per_target: f64,
    /// Cap on the per-tick attack probability.
    pub attack_cap: f64,
    /// Damage per attack.
    pub damage: u16,
}

impl Default for BotBehavior {
    fn default() -> Self {
        Self {
            attack_base: 0.15,
            attack_per_target: 0.02,
            attack_cap: 0.75,
            damage: 10,
        }
    }
}

/// A scripted player: moves every tick, attacks visible targets randomly.
#[derive(Debug)]
pub struct Bot {
    user: UserId,
    rng: Xoshiro256pp,
    behavior: BotBehavior,
    /// Targets currently visible, learned from state updates.
    visible: Vec<UserId>,
    /// Commands issued, for test assertions and traffic stats.
    pub moves_sent: u64,
    /// Attack commands issued.
    pub attacks_sent: u64,
    /// State updates observed.
    pub updates_seen: u64,
    /// Reused per tick: the command batch being encoded.
    writer: WireWriter,
}

impl Bot {
    /// Creates a bot with a deterministic RNG derived from `seed` and the
    /// user id.
    pub fn new(user: UserId, seed: u64, behavior: BotBehavior) -> Self {
        Self {
            user,
            rng: Xoshiro256pp::seed_from_u64(seed ^ user.0.wrapping_mul(0x9E3779B97F4A7C15)),
            behavior,
            visible: Vec::new(),
            moves_sent: 0,
            attacks_sent: 0,
            updates_seen: 0,
            writer: WireWriter::new(),
        }
    }

    /// Replaces the bot's behaviour mid-session (workload regime shifts:
    /// a patch changes the meta, players start fighting twice as much).
    pub fn set_behavior(&mut self, behavior: BotBehavior) {
        self.behavior = behavior;
    }

    /// The attack probability for the current number of visible targets —
    /// linear in the target count until the cap (§V-A's observation).
    fn attack_probability(&self) -> f64 {
        (self.behavior.attack_base + self.behavior.attack_per_target * self.visible.len() as f64)
            .min(self.behavior.attack_cap)
    }
}

impl InputSource for Bot {
    fn next_input(&mut self, _tick: u64) -> Option<Bytes> {
        // Always move in a random direction.
        let angle = self.rng.gen_range(0.0..std::f64::consts::TAU) as f32;
        let movement = Command::Move {
            dx: angle.cos(),
            dy: angle.sin(),
        };
        self.moves_sent += 1;

        // Maybe attack a random visible target.
        let mut attack = None;
        if !self.visible.is_empty() && self.rng.gen_bool(self.attack_probability()) {
            let pick = self.rng.gen_range(0..self.visible.len());
            if let Some(&target) = self.visible.get(pick) {
                attack = Some(Command::Attack {
                    target,
                    damage: self.behavior.damage,
                });
                self.attacks_sent += 1;
            }
        }
        self.writer.clear();
        match attack {
            Some(attack) => CommandBatch::encode_commands(&mut self.writer, &[movement, attack]),
            None => CommandBatch::encode_commands(&mut self.writer, &[movement]),
        }
        Some(self.writer.copy_frame())
    }

    fn on_state_update(&mut self, _server_tick: u64, payload: &[u8]) {
        self.updates_seen += 1;
        // State update payload: u16 count, then AvatarSnapshot entries; we
        // only need the user ids (first 8 bytes of each 20-byte entry).
        let mut r = WireReader::new(payload);
        let Ok(count) = r.get_u16() else { return };
        self.visible.clear();
        for _ in 0..count {
            let Ok(snap) = crate::avatar::AvatarSnapshot::decode(&mut r) else {
                break;
            };
            if snap.user != self.user {
                self.visible.push(snap.user);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avatar::AvatarSnapshot;
    use rtf_core::wire::WireWriter;
    use rtf_core::Vec2;

    impl Bot {
        /// Targets the bot currently sees.
        pub(crate) fn visible_targets(&self) -> &[UserId] {
            &self.visible
        }
    }

    fn update_payload(users: &[u64]) -> Bytes {
        let mut w = WireWriter::new();
        w.put_u16(users.len() as u16);
        for &u in users {
            AvatarSnapshot {
                user: UserId(u),
                pos: Vec2::new(0.0, 0.0),
                health: 100,
            }
            .encode(&mut w);
        }
        w.finish()
    }

    #[test]
    fn bot_always_moves() {
        let mut bot = Bot::new(UserId(1), 42, BotBehavior::default());
        for tick in 0..50 {
            let payload = bot.next_input(tick).expect("bots always send");
            let batch = CommandBatch::from_bytes(&payload).unwrap();
            assert!(!batch.commands.is_empty());
        }
        assert_eq!(bot.moves_sent, 50);
    }

    #[test]
    fn no_attacks_without_targets() {
        let mut bot = Bot::new(UserId(1), 42, BotBehavior::default());
        for tick in 0..100 {
            bot.next_input(tick);
        }
        assert_eq!(bot.attacks_sent, 0);
    }

    #[test]
    fn attack_probability_grows_with_targets() {
        let behavior = BotBehavior::default();
        let mut bot = Bot::new(UserId(1), 42, behavior);
        let p0 = bot.attack_probability();
        bot.on_state_update(0, &update_payload(&[2, 3, 4, 5]));
        let p4 = bot.attack_probability();
        assert!((p4 - p0 - 4.0 * behavior.attack_per_target).abs() < 1e-12);
    }

    #[test]
    fn attack_probability_capped() {
        let behavior = BotBehavior::default();
        let mut bot = Bot::new(UserId(1), 42, behavior);
        let many: Vec<u64> = (2..200).collect();
        bot.on_state_update(0, &update_payload(&many));
        assert_eq!(bot.attack_probability(), behavior.attack_cap);
    }

    #[test]
    fn bot_attacks_visible_targets() {
        let mut bot = Bot::new(UserId(1), 42, BotBehavior::default());
        bot.on_state_update(0, &update_payload(&[2, 3]));
        let mut attacks = 0;
        for tick in 0..200 {
            let payload = bot.next_input(tick).unwrap();
            let batch = CommandBatch::from_bytes(&payload).unwrap();
            if batch.has_attack() {
                attacks += 1;
                for cmd in &batch.commands {
                    if let crate::commands::Command::Attack { target, .. } = cmd {
                        assert!([UserId(2), UserId(3)].contains(target));
                    }
                }
            }
        }
        assert!(
            attacks > 10,
            "with p≈0.19, 200 ticks should see attacks: {attacks}"
        );
        assert_eq!(bot.attacks_sent, attacks);
    }

    #[test]
    fn self_excluded_from_targets() {
        let mut bot = Bot::new(UserId(2), 42, BotBehavior::default());
        bot.on_state_update(0, &update_payload(&[2, 3]));
        assert_eq!(bot.visible_targets(), &[UserId(3)]);
    }

    #[test]
    fn bots_are_deterministic_per_seed() {
        let mut a = Bot::new(UserId(1), 7, BotBehavior::default());
        let mut b = Bot::new(UserId(1), 7, BotBehavior::default());
        a.on_state_update(0, &update_payload(&[2, 3]));
        b.on_state_update(0, &update_payload(&[2, 3]));
        for tick in 0..20 {
            assert_eq!(a.next_input(tick), b.next_input(tick));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Bot::new(UserId(1), 7, BotBehavior::default());
        let mut b = Bot::new(UserId(1), 8, BotBehavior::default());
        let seq_a: Vec<_> = (0..10).map(|t| a.next_input(t)).collect();
        let seq_b: Vec<_> = (0..10).map(|t| b.next_input(t)).collect();
        assert_ne!(seq_a, seq_b);
    }
}
