//! RTFDemo's user commands and inter-server interactions.
//!
//! §V-A: "During each tick in RTFDemo, each user can issue a move command,
//! an attack command or both commands." A client therefore sends a
//! [`CommandBatch`] per tick. Attacks that hit users owned by another
//! replica travel between servers as [`Interaction`]s (the paper's
//! forwarded inputs).

use rtf_core::entity::UserId;
use rtf_core::wire::{Wire, WireError, WireReader, WireWriter};

/// One command a user can issue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command {
    /// Move the avatar by a direction vector (normalized by the server).
    Move {
        /// X displacement this tick.
        dx: f32,
        /// Y displacement this tick.
        dy: f32,
    },
    /// Fire at a target user.
    Attack {
        /// The user the attacker aims at.
        target: UserId,
        /// Damage dealt on a hit.
        damage: u16,
    },
}

impl Command {
    const TAG_MOVE: u8 = 1;
    const TAG_ATTACK: u8 = 2;
}

impl Wire for Command {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Command::Move { dx, dy } => {
                w.put_u8(Self::TAG_MOVE);
                w.put_f32(*dx);
                w.put_f32(*dy);
            }
            Command::Attack { target, damage } => {
                w.put_u8(Self::TAG_ATTACK);
                w.put_u64(target.0);
                w.put_u16(*damage);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            Self::TAG_MOVE => Ok(Command::Move {
                dx: r.get_f32()?,
                dy: r.get_f32()?,
            }),
            Self::TAG_ATTACK => Ok(Command::Attack {
                target: UserId(r.get_u64()?),
                damage: r.get_u16()?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// The commands one user issues in one tick.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommandBatch {
    /// The commands, in issue order.
    pub commands: Vec<Command>,
}

impl CommandBatch {
    /// A batch with a single move.
    pub fn movement(dx: f32, dy: f32) -> Self {
        Self {
            commands: vec![Command::Move { dx, dy }],
        }
    }

    /// Adds an attack to the batch.
    pub fn with_attack(mut self, target: UserId, damage: u16) -> Self {
        self.commands.push(Command::Attack { target, damage });
        self
    }

    /// Whether the batch contains an attack.
    pub fn has_attack(&self) -> bool {
        self.commands
            .iter()
            .any(|c| matches!(c, Command::Attack { .. }))
    }

    /// Decodes a batch by appending its commands to `out` — the form the
    /// server's input phase uses to decode a whole tick's batches into
    /// one buffer. On error `out` is left as it was.
    pub fn decode_into(r: &mut WireReader<'_>, out: &mut Vec<Command>) -> Result<(), WireError> {
        let from = out.len();
        let count = r.get_u8()?;
        for _ in 0..count {
            match Command::decode(r) {
                Ok(command) => out.push(command),
                Err(e) => {
                    out.truncate(from);
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

impl Wire for CommandBatch {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(self.commands.len() as u8);
        for c in &self.commands {
            c.encode(w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut commands = Vec::new();
        Self::decode_into(r, &mut commands)?;
        Ok(Self { commands })
    }
}

/// An interaction forwarded between replicas (§III-A task 2): the result of
/// an attack by a user on one server hitting a user owned by another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interaction {
    /// The attacking user.
    pub attacker: UserId,
    /// The user that was hit.
    pub target: UserId,
    /// Damage to apply.
    pub damage: u16,
}

impl Wire for Interaction {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.attacker.0);
        w.put_u64(self.target.0);
        w.put_u16(self.damage);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            attacker: UserId(r.get_u64()?),
            target: UserId(r.get_u64()?),
            damage: r.get_u16()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_round_trips() {
        for cmd in [
            Command::Move { dx: 1.0, dy: -0.5 },
            Command::Attack {
                target: UserId(7),
                damage: 25,
            },
        ] {
            assert_eq!(Command::from_bytes(&cmd.to_bytes()).unwrap(), cmd);
        }
    }

    #[test]
    fn batch_round_trips() {
        let batch = CommandBatch::movement(0.5, 0.5).with_attack(UserId(3), 10);
        assert_eq!(CommandBatch::from_bytes(&batch.to_bytes()).unwrap(), batch);
        assert!(batch.has_attack());
        assert!(!CommandBatch::movement(1.0, 0.0).has_attack());
    }

    #[test]
    fn empty_batch_round_trips() {
        let batch = CommandBatch::default();
        assert_eq!(CommandBatch::from_bytes(&batch.to_bytes()).unwrap(), batch);
    }

    #[test]
    fn interaction_round_trips() {
        let i = Interaction {
            attacker: UserId(1),
            target: UserId(2),
            damage: 30,
        };
        assert_eq!(Interaction::from_bytes(&i.to_bytes()).unwrap(), i);
    }

    #[test]
    fn bad_command_tag_rejected() {
        assert_eq!(Command::from_bytes(&[9]).unwrap_err(), WireError::BadTag(9));
    }

    #[test]
    fn attack_batches_are_larger_than_move_batches() {
        // The paper observes t_ua_dser growing with the user count because
        // attacks (larger commands) become more frequent — the size ordering
        // this test pins down.
        let move_only = CommandBatch::movement(1.0, 0.0).to_bytes();
        let with_attack = CommandBatch::movement(1.0, 0.0)
            .with_attack(UserId(1), 10)
            .to_bytes();
        assert!(with_attack.len() > move_only.len());
    }
}
