//! The packet envelope exchanged between clients and servers.
//!
//! These are the framework-level message types of §II's real-time loop:
//! user inputs (step 1), forwarded inputs and replica updates between
//! servers replicating the same zone (steps 1/3), state updates to clients
//! (step 3), plus the connection and user-migration control traffic. The
//! application payloads inside them are opaque to the framework.

use crate::entity::UserId;
use crate::wire::{Wire, WireError, WireReader, WireWriter};
use bytes::Bytes;
use rtf_net::NodeId;

/// A framework-level message.
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// Client asks to join the server.
    Connect {
        /// The joining user.
        user: UserId,
        /// The client's network endpoint (where state updates go).
        client: NodeId,
    },
    /// Server confirms the connection (also sent by the migration target
    /// after absorbing a migrated user).
    ConnectAck {
        /// The connected user.
        user: UserId,
    },
    /// Client leaves.
    Disconnect {
        /// The leaving user.
        user: UserId,
    },
    /// One user input (step 1 of the real-time loop).
    UserInput {
        /// Issuing user.
        user: UserId,
        /// Client-side sequence number (for loss/ordering diagnostics).
        seq: u32,
        /// Application-defined command payload.
        payload: Bytes,
    },
    /// An interaction between a shadow entity and one of the destination
    /// server's active entities, forwarded by the origin replica (§III-A
    /// task 2's example: a shadow entity's attack hitting an active one).
    ForwardedInput {
        /// The replica that owns the interacting entity.
        origin: NodeId,
        /// Application-defined interaction payload.
        payload: Bytes,
    },
    /// Per-tick state broadcast from one replica to the others, carrying
    /// the updates for the origin's active entities (which are shadow
    /// entities on the receiving side).
    ReplicaUpdate {
        /// The replica that owns the entities in this update.
        origin: NodeId,
        /// The users whose entities the update covers (lets the receiving
        /// framework maintain its shadow-ownership table).
        users: Vec<UserId>,
        /// Application-defined state payload.
        payload: Bytes,
    },
    /// State update to a connected client (step 3 of the real-time loop).
    StateUpdate {
        /// Receiving user.
        user: UserId,
        /// Server tick that produced the update.
        tick: u64,
        /// Application-defined, area-of-interest-filtered payload.
        payload: Bytes,
    },
    /// Migration data for a user moving between replicas (§III-B).
    MigrationData {
        /// The migrating user.
        user: UserId,
        /// The network endpoint of the user's client, so the target server
        /// can take over the connection.
        client: NodeId,
        /// Application-serialized user state.
        payload: Bytes,
    },
    /// Tells a client to reconnect to another server (completes a
    /// migration).
    Redirect {
        /// The user being redirected.
        user: UserId,
        /// The new responsible server.
        new_server: NodeId,
    },
}

/// The user ids listed by a [`PacketRef::ReplicaUpdate`], still in wire
/// form (eight little-endian bytes each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserIds<'a>(&'a [u8]);

impl<'a> UserIds<'a> {
    /// Number of listed users.
    pub fn len(&self) -> usize {
        self.0.len() / 8
    }

    /// Whether no user is listed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The ids, in wire order.
    pub fn iter(&self) -> impl Iterator<Item = UserId> + 'a {
        self.0.chunks_exact(8).map(|chunk| {
            let mut id = [0u8; 8];
            id.copy_from_slice(chunk);
            UserId(u64::from_le_bytes(id))
        })
    }
}

/// A decoded [`Packet`] that borrows its variable-length parts from the
/// receive buffer instead of copying them. This is the parser;
/// [`Packet::decode`] is this plus [`PacketRef::to_packet`]. The receive
/// path of a tick works on `PacketRef`s so an opaque application payload
/// is never copied between the inbox and the application.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // fields mirror `Packet`'s, documented there
pub enum PacketRef<'a> {
    Connect {
        user: UserId,
        client: NodeId,
    },
    ConnectAck {
        user: UserId,
    },
    Disconnect {
        user: UserId,
    },
    UserInput {
        user: UserId,
        seq: u32,
        payload: &'a [u8],
    },
    ForwardedInput {
        origin: NodeId,
        payload: &'a [u8],
    },
    ReplicaUpdate {
        origin: NodeId,
        users: UserIds<'a>,
        payload: &'a [u8],
    },
    StateUpdate {
        user: UserId,
        tick: u64,
        payload: &'a [u8],
    },
    MigrationData {
        user: UserId,
        client: NodeId,
        payload: &'a [u8],
    },
    Redirect {
        user: UserId,
        new_server: NodeId,
    },
}

impl<'a> PacketRef<'a> {
    /// Decodes one packet. In every payload-carrying variant the payload
    /// is the last field, so afterwards [`WireReader::position`] is the
    /// offset one past the payload's last byte.
    pub fn decode(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let tag = r.get_u8()?;
        Ok(match tag {
            Packet::TAG_CONNECT => PacketRef::Connect {
                user: UserId(r.get_u64()?),
                client: NodeId(r.get_u32()?),
            },
            Packet::TAG_CONNECT_ACK => PacketRef::ConnectAck {
                user: UserId(r.get_u64()?),
            },
            Packet::TAG_DISCONNECT => PacketRef::Disconnect {
                user: UserId(r.get_u64()?),
            },
            Packet::TAG_USER_INPUT => PacketRef::UserInput {
                user: UserId(r.get_u64()?),
                seq: r.get_u32()?,
                payload: r.get_bytes()?,
            },
            Packet::TAG_FORWARDED => PacketRef::ForwardedInput {
                origin: NodeId(r.get_u32()?),
                payload: r.get_bytes()?,
            },
            Packet::TAG_REPLICA_UPDATE => {
                let origin = NodeId(r.get_u32()?);
                let count = u64::from(r.get_u32()?);
                let listed = usize::try_from(count * 8).map_err(|_| WireError::BadLength(count))?;
                PacketRef::ReplicaUpdate {
                    origin,
                    users: UserIds(r.get_raw(listed)?),
                    payload: r.get_bytes()?,
                }
            }
            Packet::TAG_STATE_UPDATE => PacketRef::StateUpdate {
                user: UserId(r.get_u64()?),
                tick: r.get_u64()?,
                payload: r.get_bytes()?,
            },
            Packet::TAG_MIGRATION_DATA => PacketRef::MigrationData {
                user: UserId(r.get_u64()?),
                client: NodeId(r.get_u32()?),
                payload: r.get_bytes()?,
            },
            Packet::TAG_REDIRECT => PacketRef::Redirect {
                user: UserId(r.get_u64()?),
                new_server: NodeId(r.get_u32()?),
            },
            t => return Err(WireError::BadTag(t)),
        })
    }

    /// Copies the borrowed parts into an owned [`Packet`].
    pub fn to_packet(&self) -> Packet {
        match *self {
            PacketRef::Connect { user, client } => Packet::Connect { user, client },
            PacketRef::ConnectAck { user } => Packet::ConnectAck { user },
            PacketRef::Disconnect { user } => Packet::Disconnect { user },
            PacketRef::UserInput { user, seq, payload } => Packet::UserInput {
                user,
                seq,
                payload: Bytes::copy_from_slice(payload),
            },
            PacketRef::ForwardedInput { origin, payload } => Packet::ForwardedInput {
                origin,
                payload: Bytes::copy_from_slice(payload),
            },
            PacketRef::ReplicaUpdate {
                origin,
                users,
                payload,
            } => Packet::ReplicaUpdate {
                origin,
                users: users.iter().collect(),
                payload: Bytes::copy_from_slice(payload),
            },
            PacketRef::StateUpdate {
                user,
                tick,
                payload,
            } => Packet::StateUpdate {
                user,
                tick,
                payload: Bytes::copy_from_slice(payload),
            },
            PacketRef::MigrationData {
                user,
                client,
                payload,
            } => Packet::MigrationData {
                user,
                client,
                payload: Bytes::copy_from_slice(payload),
            },
            PacketRef::Redirect { user, new_server } => Packet::Redirect { user, new_server },
        }
    }
}

impl Packet {
    const TAG_CONNECT: u8 = 1;
    const TAG_CONNECT_ACK: u8 = 2;
    const TAG_DISCONNECT: u8 = 3;
    pub(crate) const TAG_USER_INPUT: u8 = 4;
    pub(crate) const TAG_FORWARDED: u8 = 5;
    pub(crate) const TAG_REPLICA_UPDATE: u8 = 6;
    const TAG_STATE_UPDATE: u8 = 7;
    pub(crate) const TAG_MIGRATION_DATA: u8 = 8;
    const TAG_REDIRECT: u8 = 9;

    /// Short name for logging and metrics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Packet::Connect { .. } => "connect",
            Packet::ConnectAck { .. } => "connect_ack",
            Packet::Disconnect { .. } => "disconnect",
            Packet::UserInput { .. } => "user_input",
            Packet::ForwardedInput { .. } => "forwarded_input",
            Packet::ReplicaUpdate { .. } => "replica_update",
            Packet::StateUpdate { .. } => "state_update",
            Packet::MigrationData { .. } => "migration_data",
            Packet::Redirect { .. } => "redirect",
        }
    }

    // The four frames a server tick builds in place: each `put_*_head`
    // writes everything up to the payload's length prefix, so the caller
    // can follow it with `WireWriter::begin_len`, let the application
    // append the payload, and `end_len` — byte-identical to encoding the
    // owned variant, which `encode` below builds from the same heads.

    /// Head of a [`Packet::StateUpdate`].
    pub fn put_state_update_head(w: &mut WireWriter, user: UserId, tick: u64) {
        w.put_u8(Self::TAG_STATE_UPDATE);
        w.put_u64(user.0);
        w.put_u64(tick);
    }

    /// Head of a [`Packet::ForwardedInput`].
    pub fn put_forwarded_head(w: &mut WireWriter, origin: NodeId) {
        w.put_u8(Self::TAG_FORWARDED);
        w.put_u32(origin.0);
    }

    /// Head of a [`Packet::ReplicaUpdate`].
    pub fn put_replica_update_head(
        w: &mut WireWriter,
        origin: NodeId,
        users: impl ExactSizeIterator<Item = UserId>,
    ) {
        w.put_u8(Self::TAG_REPLICA_UPDATE);
        w.put_u32(origin.0);
        w.put_u32(users.len() as u32);
        for u in users {
            w.put_u64(u.0);
        }
    }

    /// Head of a [`Packet::MigrationData`].
    pub fn put_migration_data_head(w: &mut WireWriter, user: UserId, client: NodeId) {
        w.put_u8(Self::TAG_MIGRATION_DATA);
        w.put_u64(user.0);
        w.put_u32(client.0);
    }
}

impl Wire for Packet {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Packet::Connect { user, client } => {
                w.put_u8(Self::TAG_CONNECT);
                w.put_u64(user.0);
                w.put_u32(client.0);
            }
            Packet::ConnectAck { user } => {
                w.put_u8(Self::TAG_CONNECT_ACK);
                w.put_u64(user.0);
            }
            Packet::Disconnect { user } => {
                w.put_u8(Self::TAG_DISCONNECT);
                w.put_u64(user.0);
            }
            Packet::UserInput { user, seq, payload } => {
                w.put_u8(Self::TAG_USER_INPUT);
                w.put_u64(user.0);
                w.put_u32(*seq);
                w.put_bytes(payload);
            }
            Packet::ForwardedInput { origin, payload } => {
                Self::put_forwarded_head(w, *origin);
                w.put_bytes(payload);
            }
            Packet::ReplicaUpdate {
                origin,
                users,
                payload,
            } => {
                Self::put_replica_update_head(w, *origin, users.iter().copied());
                w.put_bytes(payload);
            }
            Packet::StateUpdate {
                user,
                tick,
                payload,
            } => {
                Self::put_state_update_head(w, *user, *tick);
                w.put_bytes(payload);
            }
            Packet::MigrationData {
                user,
                client,
                payload,
            } => {
                Self::put_migration_data_head(w, *user, *client);
                w.put_bytes(payload);
            }
            Packet::Redirect { user, new_server } => {
                w.put_u8(Self::TAG_REDIRECT);
                w.put_u64(user.0);
                w.put_u32(new_server.0);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        PacketRef::decode(r).map(|p| p.to_packet())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(p: Packet) {
        let buf = p.to_bytes();
        let q = Packet::from_bytes(&buf).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(Packet::Connect {
            user: UserId(1),
            client: NodeId(70),
        });
        round_trip(Packet::ConnectAck { user: UserId(2) });
        round_trip(Packet::Disconnect { user: UserId(3) });
        round_trip(Packet::UserInput {
            user: UserId(4),
            seq: 99,
            payload: Bytes::from_static(b"move"),
        });
        round_trip(Packet::ForwardedInput {
            origin: NodeId(5),
            payload: Bytes::from_static(b"attack"),
        });
        round_trip(Packet::ReplicaUpdate {
            origin: NodeId(6),
            users: vec![UserId(1), UserId(2), UserId(3)],
            payload: Bytes::from_static(b"positions"),
        });
        round_trip(Packet::StateUpdate {
            user: UserId(7),
            tick: 123456,
            payload: Bytes::from_static(b"world"),
        });
        round_trip(Packet::MigrationData {
            user: UserId(8),
            client: NodeId(77),
            payload: Bytes::from_static(b"inventory"),
        });
        round_trip(Packet::Redirect {
            user: UserId(9),
            new_server: NodeId(2),
        });
    }

    #[test]
    fn in_place_frames_equal_owned_encoding() {
        let body = b"application payload";
        let users = [UserId(3), UserId(1), UserId(2)];
        let in_place = |head: &dyn Fn(&mut WireWriter)| {
            let mut w = WireWriter::new();
            head(&mut w);
            let at = w.begin_len();
            for &b in body {
                w.put_u8(b);
            }
            w.end_len(at);
            w.finish()
        };
        let payload = Bytes::from_static(body);
        assert_eq!(
            in_place(&|w| Packet::put_state_update_head(w, UserId(7), 99)),
            Packet::StateUpdate {
                user: UserId(7),
                tick: 99,
                payload: payload.clone()
            }
            .to_bytes()
        );
        assert_eq!(
            in_place(&|w| Packet::put_forwarded_head(w, NodeId(5))),
            Packet::ForwardedInput {
                origin: NodeId(5),
                payload: payload.clone()
            }
            .to_bytes()
        );
        assert_eq!(
            in_place(&|w| Packet::put_replica_update_head(w, NodeId(6), users.iter().copied())),
            Packet::ReplicaUpdate {
                origin: NodeId(6),
                users: users.to_vec(),
                payload: payload.clone()
            }
            .to_bytes()
        );
        assert_eq!(
            in_place(&|w| Packet::put_migration_data_head(w, UserId(8), NodeId(77))),
            Packet::MigrationData {
                user: UserId(8),
                client: NodeId(77),
                payload
            }
            .to_bytes()
        );
    }

    #[test]
    fn borrowed_decode_reports_where_the_payload_sits() {
        let buf = Packet::ReplicaUpdate {
            origin: NodeId(6),
            users: vec![UserId(9), UserId(4)],
            payload: Bytes::from_static(b"positions"),
        }
        .to_bytes();
        let mut r = WireReader::new(&buf);
        let PacketRef::ReplicaUpdate {
            origin,
            users,
            payload,
        } = PacketRef::decode(&mut r).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(origin, NodeId(6));
        assert_eq!(users.len(), 2);
        assert_eq!(users.iter().collect::<Vec<_>>(), [UserId(9), UserId(4)]);
        assert_eq!(payload, b"positions");
        assert_eq!(&buf[r.position() - payload.len()..r.position()], payload);
    }

    #[test]
    fn replica_update_listing_more_users_than_it_carries_is_rejected() {
        let mut w = WireWriter::new();
        Packet::put_replica_update_head(&mut w, NodeId(1), [UserId(1)].into_iter());
        let mut buf = w.finish().to_vec();
        buf[5..9].copy_from_slice(&u32::MAX.to_le_bytes()); // claims 4 Gi users
        assert!(matches!(
            Packet::from_bytes(&buf),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn empty_payloads_round_trip() {
        round_trip(Packet::UserInput {
            user: UserId(1),
            seq: 0,
            payload: Bytes::new(),
        });
        round_trip(Packet::ReplicaUpdate {
            origin: NodeId(0),
            users: vec![],
            payload: Bytes::new(),
        });
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(
            Packet::from_bytes(&[0xFF]).unwrap_err(),
            WireError::BadTag(0xFF)
        );
    }

    #[test]
    fn truncated_packet_rejected() {
        let buf = Packet::UserInput {
            user: UserId(4),
            seq: 99,
            payload: Bytes::from_static(b"move"),
        }
        .to_bytes();
        let err = Packet::from_bytes(&buf[..buf.len() - 2]).unwrap_err();
        assert!(matches!(
            err,
            WireError::Truncated { .. } | WireError::BadLength(_)
        ));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(
            Packet::Connect {
                user: UserId(0),
                client: NodeId(0)
            }
            .kind_name(),
            "connect"
        );
        assert_eq!(
            Packet::StateUpdate {
                user: UserId(0),
                tick: 0,
                payload: Bytes::new()
            }
            .kind_name(),
            "state_update"
        );
    }
}
