//! The client/server session wire protocol.
//!
//! Everything is encoded with [`rtf_core::wire`] (compact little-endian),
//! one message per transport frame. The shapes follow the classic
//! authoritative-server netcode loop:
//!
//! * clients send [`InputFrame`]s carrying a monotonically increasing
//!   `seq` and the server tick the client was *viewing* when it acted
//!   (`view_tick`, consumed by lag compensation);
//! * the server answers with [`Snapshot`]s that ack the last applied
//!   input `seq` per receiver and carry either the full world
//!   (`baseline == 0`, a keyframe) or only the entities changed since
//!   the `baseline` tick (a delta).
//!
//! The byte-size constants at the bottom are the protocol's analytic
//! serialization volume — `netdemo` plugs them into
//! `roia_model::bandwidth::BandwidthParams` to predict Eq. (1)-style
//! traffic and compares against measured socket bytes.

use rtf_core::wire::{Wire, WireError, WireReader, WireWriter};

/// Protocol version carried in [`ClientMsg::Hello`].
pub const PROTO_VERSION: u8 = 1;

/// `attack` value meaning "no attack this frame".
pub const NO_TARGET: u64 = u64::MAX;

/// One sequenced client input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputFrame {
    /// Client-assigned sequence number, strictly increasing per session.
    pub seq: u32,
    /// The server tick the client was rendering when it issued this
    /// input — the rewind point for lag compensation.
    pub view_tick: u64,
    /// Movement on x, in steps of `SessionConfig::move_step`.
    pub dx: i8,
    /// Movement on y.
    pub dy: i8,
    /// Entity id under attack, or [`NO_TARGET`].
    pub attack: u64,
}

impl Wire for InputFrame {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.seq);
        w.put_u64(self.view_tick);
        w.put_u8(self.dx as u8);
        w.put_u8(self.dy as u8);
        w.put_u64(self.attack);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(InputFrame {
            seq: r.get_u32()?,
            view_tick: r.get_u64()?,
            dx: r.get_u8()? as i8,
            dy: r.get_u8()? as i8,
            attack: r.get_u64()?,
        })
    }
}

/// Authoritative state of one entity as serialized to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntityState {
    /// Entity (user) id.
    pub id: u64,
    /// World x position (integer world units — positions are integral so
    /// prediction can be compared exactly across processes).
    pub x: i32,
    /// World y position.
    pub y: i32,
    /// Hit points.
    pub health: i16,
}

impl EntityState {
    /// Reads the fixed-size wire form (the layout `encode` writes), on the
    /// bytes rather than through a [`WireReader`]: clients run it per entry
    /// per tick, and four checked reads here double `client_tick_ns`.
    fn from_wire(raw: &[u8; ENTITY_STATE_BYTES as usize]) -> Self {
        let [i0, i1, i2, i3, i4, i5, i6, i7, x0, x1, x2, x3, y0, y1, y2, y3, h0, h1] = *raw;
        EntityState {
            id: u64::from_le_bytes([i0, i1, i2, i3, i4, i5, i6, i7]),
            x: i32::from_le_bytes([x0, x1, x2, x3]),
            y: i32::from_le_bytes([y0, y1, y2, y3]),
            health: i16::from_le_bytes([h0, h1]),
        }
    }
}

impl Wire for EntityState {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.id);
        w.put_u32(self.x as u32);
        w.put_u32(self.y as u32);
        w.put_u16(self.health as u16);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let raw = r.get_raw(ENTITY_STATE_BYTES as usize)?;
        raw.try_into()
            .map(Self::from_wire)
            .map_err(|_| WireError::BadLength(raw.len() as u64))
    }
}

/// One server → client state update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Server tick this snapshot describes.
    pub tick: u64,
    /// Tick the delta is relative to, or 0 for a keyframe carrying the
    /// full world. (Tick 0 never carries a snapshot, so 0 is free.)
    pub baseline: u64,
    /// Last input `seq` of the *receiving* client the server had applied
    /// when it built this snapshot — the reconciliation ack.
    pub ack_seq: u32,
    /// Changed entities (all entities for a keyframe).
    pub entries: Vec<EntityState>,
    /// Entities that left the world since the baseline.
    pub removed: Vec<u64>,
}

/// Rewrites `ack_seq` — it follows the tag, `tick` and `baseline`, and is
/// the only field that differs between the receivers of one tick's
/// snapshot — in a [`ServerMsg::Snapshot`] frame at the start of `w`.
pub fn patch_ack(w: &mut WireWriter, ack_seq: u32) {
    w.patch(1 + 8 + 8, &ack_seq.to_le_bytes());
}

/// The one snapshot encoder: the body of a [`ServerMsg::Snapshot`] frame
/// (everything after the tag), byte-identical from rows or from the owned
/// message. Both counts are `u16` on the wire: entries or removals past
/// 65 535 are left out rather than wrapping the count (the server session
/// never lets its world grow that far).
pub fn encode_snapshot_body(
    w: &mut WireWriter,
    tick: u64,
    baseline: u64,
    ack_seq: u32,
    entries: impl IntoIterator<Item = EntityState>,
    removed: &[u64],
) {
    w.put_u64(tick);
    w.put_u64(baseline);
    w.put_u32(ack_seq);
    let count_at = w.len();
    w.put_u16(0);
    let mut count = 0u16;
    for e in entries.into_iter().take(usize::from(u16::MAX)) {
        e.encode(w);
        count += 1;
    }
    w.patch(count_at, &count.to_le_bytes());
    let count = u16::try_from(removed.len()).unwrap_or(u16::MAX);
    w.put_u16(count);
    for id in removed.iter().take(usize::from(count)) {
        w.put_u64(*id);
    }
}

/// A [`Snapshot`] read in place: the header fields plus the byte ranges of
/// the entries and the removals inside the received frame. This is the
/// one snapshot parser ([`Snapshot::decode`] is [`parse`](Self::parse) and a
/// copy) and it is total: any byte string either parses or errs, without
/// panicking and without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotRef<'a> {
    /// Server tick this snapshot describes.
    pub tick: u64,
    /// Baseline tick, 0 for a keyframe.
    pub baseline: u64,
    /// The reconciliation ack.
    pub ack_seq: u32,
    entries: &'a [[u8; ENTITY_STATE_BYTES as usize]],
    removed: &'a [[u8; 8]],
}

impl<'a> SnapshotRef<'a> {
    /// Parses a snapshot body (a [`ServerMsg::Snapshot`] frame after its
    /// tag byte). A count that promises more than the body holds is an
    /// error, and so are bytes left over after the removals.
    pub fn parse(body: &'a [u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(body);
        let tick = r.get_u64()?;
        let baseline = r.get_u64()?;
        let ack_seq = r.get_u32()?;
        let count = usize::from(r.get_u16()?);
        let (entries, _) = r.get_raw(count * ENTITY_STATE_BYTES as usize)?.as_chunks();
        let count = usize::from(r.get_u16()?);
        let (removed, _) = r.get_raw(count * 8)?.as_chunks();
        if !r.is_exhausted() {
            return Err(WireError::BadLength(r.remaining() as u64));
        }
        Ok(Self {
            tick,
            baseline,
            ack_seq,
            entries,
            removed,
        })
    }

    /// The entries, decoded one at a time in wire order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = EntityState> + 'a {
        self.entries.iter().map(EntityState::from_wire)
    }

    /// The removed ids, in wire order.
    pub fn removed(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        self.removed.iter().map(|raw| u64::from_le_bytes(*raw))
    }
}

impl Wire for Snapshot {
    fn encode(&self, w: &mut WireWriter) {
        let entries = self.entries.iter().copied();
        encode_snapshot_body(
            w,
            self.tick,
            self.baseline,
            self.ack_seq,
            entries,
            &self.removed,
        );
    }

    /// A snapshot is the last thing in its frame: this takes the rest of
    /// the reader, errs on bytes left over and copies the borrowed view.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let view = SnapshotRef::parse(r.get_raw(r.remaining())?)?;
        Ok(Snapshot {
            tick: view.tick,
            baseline: view.baseline,
            ack_seq: view.ack_seq,
            entries: view.entries().collect(),
            removed: view.removed().collect(),
        })
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMsg {
    /// Join the session as `user`.
    Hello {
        /// The user id joining.
        user: u64,
        /// Protocol version ([`PROTO_VERSION`]).
        version: u8,
    },
    /// One sequenced input.
    Input(InputFrame),
    /// Clean goodbye.
    Bye,
}

const TAG_HELLO: u8 = 1;
const TAG_INPUT: u8 = 2;
const TAG_BYE: u8 = 3;

impl Wire for ClientMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ClientMsg::Hello { user, version } => {
                w.put_u8(TAG_HELLO);
                w.put_u64(*user);
                w.put_u8(*version);
            }
            ClientMsg::Input(frame) => {
                w.put_u8(TAG_INPUT);
                frame.encode(w);
            }
            ClientMsg::Bye => w.put_u8(TAG_BYE),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            TAG_HELLO => Ok(ClientMsg::Hello {
                user: r.get_u64()?,
                version: r.get_u8()?,
            }),
            TAG_INPUT => Ok(ClientMsg::Input(InputFrame::decode(r)?)),
            TAG_BYE => Ok(ClientMsg::Bye),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerMsg {
    /// Hello accepted; carries the spawn state so client prediction
    /// starts from the authoritative position.
    Welcome {
        /// The admitted user.
        user: u64,
        /// Server tick of admission.
        tick: u64,
        /// Spawn x.
        x: i32,
        /// Spawn y.
        y: i32,
    },
    /// One state update.
    Snapshot(Snapshot),
}

const TAG_WELCOME: u8 = 1;
pub(crate) const TAG_SNAPSHOT: u8 = 2;

impl Wire for ServerMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ServerMsg::Welcome { user, tick, x, y } => {
                w.put_u8(TAG_WELCOME);
                w.put_u64(*user);
                w.put_u64(*tick);
                w.put_u32(*x as u32);
                w.put_u32(*y as u32);
            }
            ServerMsg::Snapshot(s) => {
                w.put_u8(TAG_SNAPSHOT);
                s.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            TAG_WELCOME => Ok(ServerMsg::Welcome {
                user: r.get_u64()?,
                tick: r.get_u64()?,
                x: r.get_u32()? as i32,
                y: r.get_u32()? as i32,
            }),
            TAG_SNAPSHOT => Ok(ServerMsg::Snapshot(Snapshot::decode(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Serialized size of one [`EntityState`] (id + x + y + health).
pub const ENTITY_STATE_BYTES: u64 = 8 + 4 + 4 + 2;

/// Serialized size of a [`ServerMsg::Snapshot`] with zero entries and
/// zero removals (tag + tick + baseline + ack + two counts).
pub const SNAPSHOT_OVERHEAD_BYTES: u64 = 1 + 8 + 8 + 4 + 2 + 2;

/// Serialized size of a [`ClientMsg::Input`] (tag + frame).
pub const INPUT_MSG_BYTES: u64 = 1 + 4 + 8 + 1 + 1 + 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_round_trips_including_negatives() {
        let f = InputFrame {
            seq: 7,
            view_tick: 41,
            dx: -1,
            dy: 1,
            attack: NO_TARGET,
        };
        let msg = ClientMsg::Input(f);
        assert_eq!(ClientMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        assert_eq!(msg.to_bytes().len() as u64, INPUT_MSG_BYTES);
    }

    #[test]
    fn snapshot_round_trips_and_sizes_match_constants() {
        let s = Snapshot {
            tick: 100,
            baseline: 99,
            ack_seq: 55,
            entries: vec![
                EntityState {
                    id: 1,
                    x: -64,
                    y: 2048,
                    health: -5,
                },
                EntityState {
                    id: 2,
                    x: 0,
                    y: 0,
                    health: 100,
                },
            ],
            removed: vec![9],
        };
        let msg = ServerMsg::Snapshot(s.clone());
        let bytes = msg.to_bytes();
        assert_eq!(
            bytes.len() as u64,
            SNAPSHOT_OVERHEAD_BYTES + 2 * ENTITY_STATE_BYTES + 8
        );
        assert_eq!(ServerMsg::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn hello_welcome_bye_round_trip() {
        for msg in [
            ClientMsg::Hello {
                user: 42,
                version: PROTO_VERSION,
            },
            ClientMsg::Bye,
        ] {
            assert_eq!(ClientMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
        let w = ServerMsg::Welcome {
            user: 42,
            tick: 3,
            x: -10,
            y: 10,
        };
        assert_eq!(ServerMsg::from_bytes(&w.to_bytes()).unwrap(), w);
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert_eq!(
            ClientMsg::from_bytes(&[99]).unwrap_err(),
            WireError::BadTag(99)
        );
        assert_eq!(
            ServerMsg::from_bytes(&[0]).unwrap_err(),
            WireError::BadTag(0)
        );
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            tick: 5,
            baseline: 4,
            ack_seq: 1,
            entries: vec![
                EntityState {
                    id: 3,
                    x: 1,
                    y: -2,
                    health: 3,
                },
                EntityState {
                    id: u64::MAX - 1,
                    x: i32::MIN,
                    y: i32::MAX,
                    health: i16::MIN,
                },
            ],
            removed: vec![8, 9],
        }
    }

    #[test]
    fn truncated_snapshot_fails_cleanly() {
        let bytes = ServerMsg::Snapshot(sample_snapshot()).to_bytes();
        for cut in 1..bytes.len() {
            assert!(ServerMsg::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
            assert!(SnapshotRef::parse(&bytes[1..cut]).is_err(), "cut={cut}");
        }
        assert!(SnapshotRef::parse(&bytes[1..]).is_ok());
    }

    #[test]
    fn borrowed_view_reads_what_the_owned_message_wrote() {
        let snap = sample_snapshot();
        let bytes = ServerMsg::Snapshot(snap.clone()).to_bytes();
        let view = SnapshotRef::parse(&bytes[1..]).unwrap();
        assert_eq!((view.tick, view.baseline, view.ack_seq), (5, 4, 1));
        assert_eq!(view.entries().count(), 2);
        assert_eq!(view.entries().collect::<Vec<_>>(), snap.entries);
        assert_eq!(view.removed().collect::<Vec<_>>(), snap.removed);
        assert_eq!(Snapshot::from_bytes(&bytes[1..]).unwrap(), snap);
        assert_eq!(
            ServerMsg::from_bytes(&bytes).unwrap(),
            ServerMsg::Snapshot(snap)
        );
    }

    #[test]
    fn rows_encode_like_the_owned_message_and_acks_patch_in_place() {
        let snap = sample_snapshot();
        let mut w = WireWriter::new();
        w.put_u8(TAG_SNAPSHOT);
        let entries = snap.entries.iter().copied();
        encode_snapshot_body(&mut w, snap.tick, snap.baseline, 0, entries, &snap.removed);
        patch_ack(&mut w, snap.ack_seq);
        assert_eq!(w.copy_frame(), ServerMsg::Snapshot(snap.clone()).to_bytes());
        // The same body serves the next receiver.
        patch_ack(&mut w, 77);
        let other = Snapshot {
            ack_seq: 77,
            ..snap
        };
        assert_eq!(w.copy_frame(), ServerMsg::Snapshot(other).to_bytes());
    }

    #[test]
    fn counts_beyond_the_payload_and_trailing_bytes_err() {
        let bytes = ServerMsg::Snapshot(sample_snapshot()).to_bytes().to_vec();
        let entries_at = 1 + 8 + 8 + 4; // tag, tick, baseline, ack
        let removed_at = entries_at + 2 + 2 * ENTITY_STATE_BYTES as usize;

        // Either count raised to the maximum promises more than is there.
        for at in [entries_at, removed_at] {
            let mut lying = bytes.clone();
            lying[at] = 0xFF;
            lying[at + 1] = 0xFF;
            assert!(matches!(
                SnapshotRef::parse(&lying[1..]),
                Err(WireError::Truncated { .. })
            ));
            assert!(ServerMsg::from_bytes(&lying).is_err());
        }
        // An entry count one too low leaves the body misaligned: the
        // removal count is read from entry bytes, and whatever it says the
        // body does not end where the removals do.
        let mut short = bytes.clone();
        short[entries_at] = 1;
        assert!(SnapshotRef::parse(&short[1..]).is_err());

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            SnapshotRef::parse(&trailing[1..]),
            Err(WireError::BadLength(1))
        );
        assert!(ServerMsg::from_bytes(&trailing).is_err());
    }

    #[test]
    fn oversized_lists_are_cut_at_the_u16_count_not_wrapped() {
        let many = usize::from(u16::MAX) + 3;
        let entry = EntityState {
            id: 0,
            x: 0,
            y: 0,
            health: 0,
        };
        let entries = (0..many as u64).map(|id| EntityState { id, ..entry });
        let removed: Vec<u64> = (0..many as u64).collect();
        let mut w = WireWriter::new();
        encode_snapshot_body(&mut w, 1, 0, 0, entries, &removed);
        let body = w.copy_frame();
        let view = SnapshotRef::parse(&body).expect("still a well-formed body");
        assert_eq!(view.entries().count(), usize::from(u16::MAX));
        assert_eq!(view.removed().len(), usize::from(u16::MAX));
        assert_eq!(
            view.entries().last().map(|e| e.id),
            Some(u64::from(u16::MAX) - 1)
        );
    }
}
