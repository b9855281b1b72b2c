//! The counters and fault sampling of one directed link.
//!
//! Links are ideal: a message is due the tick it is sent, and the bus
//! hands it straight to its destination, so a link keeps no queue. The
//! bus-wide fault pair ([`Faults`]) may lose a message at send time or
//! hold it back for up to `jitter_ticks` ticks; only then does the bus
//! keep a queue for the link, and only until what it holds is due. Faults
//! are sampled from a per-link deterministic generator seeded by the bus,
//! so a given seed always loses and delays the same messages.

use crate::{Bytes, NodeId};
use roia_rng::{Rng, SplitMix};

/// The bus-wide fault pair every link samples from.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Faults {
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub(crate) drop_probability: f64,
    /// Maximum extra delivery delay in ticks, sampled uniformly per
    /// message. Delivery stays in-order: a delayed head of line also delays
    /// everything behind it (TCP-like semantics).
    pub(crate) jitter_ticks: u32,
}

/// What becomes of a message a link takes.
#[derive(Debug)]
pub(crate) enum Admitted {
    /// Due now, with nothing held ahead of it: deliver it.
    Now(Bytes),
    /// Jitter holds it (or something ahead of it) until `due_tick`.
    Held { due_tick: u64, payload: Bytes },
    /// The drop probability lost it.
    Lost,
}

/// One directed link, kept in its sender's row: where its destination's
/// row is, its byte accounting and its fault generator. A link holds no
/// messages; what jitter holds back waits in the bus.
#[derive(Debug)]
pub(crate) struct Link {
    /// Destination node.
    pub(crate) to: NodeId,
    /// Row of `to` when the link was made; the bus checks it still holds
    /// `to` before delivering (a departed node's row is reused).
    pub(crate) dest: u32,
    /// Fault-sampling generator.
    rng: SplitMix,
    /// Total payload bytes ever sent on this link.
    pub(crate) bytes_sent: u64,
    /// Total payload bytes ever delivered from this link. A message staged
    /// in a paused phase counts here from its send; the bus takes it back
    /// if the destination leaves before the flush.
    pub(crate) bytes_delivered: u64,
    /// Total messages ever sent.
    pub(crate) messages_sent: u64,
    /// Messages lost to the drop probability, isolation, or a destination
    /// that unregistered while they were in flight.
    pub(crate) messages_dropped: u64,
}

impl Link {
    /// A link to `to` (whose row is `dest`) with its fault seed: links of
    /// the same bus get distinct per-pair seeds, so fault patterns are
    /// independent but reproducible.
    pub(crate) fn new(to: NodeId, dest: u32, seed: u64) -> Self {
        Self {
            to,
            dest,
            rng: SplitMix::new(seed),
            bytes_sent: 0,
            bytes_delivered: 0,
            messages_sent: 0,
            messages_dropped: 0,
        }
    }

    /// Re-seeds the fault generator.
    pub(crate) fn reseed(&mut self, seed: u64) {
        self.rng = SplitMix::new(seed);
    }

    /// Counts a message that was eaten before it was sent (an isolated end
    /// behaves like an IP blackhole: the sender pays for the send, nothing
    /// arrives).
    pub(crate) fn drop_at_send(&mut self, payload_bytes: u64) {
        self.bytes_sent += payload_bytes;
        self.messages_sent += 1;
        self.messages_dropped += 1;
    }

    /// Takes `payload`, sent at `now_tick`; `faults` may lose or delay it,
    /// and when `held_ahead` jitter already holds something back on this
    /// link, it waits behind that. A message due now with nothing held
    /// ahead of it counts as delivered at once; a held one counts once
    /// [`Link::released`] says so.
    pub(crate) fn admit(
        &mut self,
        now_tick: u64,
        payload: Bytes,
        faults: Faults,
        held_ahead: bool,
    ) -> Admitted {
        self.bytes_sent += payload.len() as u64;
        self.messages_sent += 1;
        if faults.drop_probability > 0.0 && self.rng.f64() < faults.drop_probability {
            self.messages_dropped += 1;
            return Admitted::Lost;
        }
        let jitter = if faults.jitter_ticks > 0 {
            self.rng.next_u64() % (faults.jitter_ticks as u64 + 1)
        } else {
            0
        };
        if jitter == 0 && !held_ahead {
            self.bytes_delivered += payload.len() as u64;
            return Admitted::Now(payload);
        }
        Admitted::Held {
            due_tick: now_tick + jitter,
            payload,
        }
    }

    /// Counts a held message of `bytes` bytes as delivered, or as dropped
    /// when its destination has left.
    pub(crate) fn released(&mut self, bytes: u64, delivered: bool) {
        if delivered {
            self.bytes_delivered += bytes;
        } else {
            self.messages_dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IDEAL: Faults = Faults {
        drop_probability: 0.0,
        jitter_ticks: 0,
    };

    fn link(seed: u64) -> Link {
        Link::new(NodeId(1), 1, seed)
    }

    /// What `admit` makes of each payload: delivered now, held, lost —
    /// once one is held, the rest wait behind it.
    fn admit_all(link: &mut Link, payloads: &[Bytes], faults: Faults) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for payload in payloads {
            match link.admit(0, payload.clone(), faults, counts.1 > 0) {
                Admitted::Now(_) => counts.0 += 1,
                Admitted::Held { .. } => counts.1 += 1,
                Admitted::Lost => counts.2 += 1,
            }
        }
        counts
    }

    fn frames(n: usize, bytes: usize) -> Vec<Bytes> {
        (0..n).map(|_| Bytes::from(vec![0u8; bytes])).collect()
    }

    fn lossy(drop_probability: f64) -> Faults {
        Faults {
            drop_probability,
            ..IDEAL
        }
    }

    #[test]
    fn ideal_link_delivers_at_once() {
        let mut link = link(0);
        assert_eq!(admit_all(&mut link, &frames(3, 10), IDEAL), (3, 0, 0));
    }

    #[test]
    fn byte_accounting() {
        let mut link = link(0);
        admit_all(
            &mut link,
            &[Bytes::from(vec![0; 10]), Bytes::from(vec![0; 20])],
            IDEAL,
        );
        assert_eq!(link.bytes_sent, 30);
        assert_eq!(link.messages_sent, 2);
        assert_eq!(link.bytes_delivered, 30);
    }

    #[test]
    fn lossy_link_drops_a_fraction() {
        let mut link = link(0xF00D);
        let (now, held, lost) = admit_all(&mut link, &frames(1000, 1), lossy(0.5));
        assert_eq!(link.messages_sent, 1000);
        assert_eq!((held, lost as u64), (0, link.messages_dropped));
        assert!(
            (300..=700).contains(&lost),
            "p=0.5 should lose roughly half, lost {lost}"
        );
        assert_eq!(now + lost, 1000);
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut link = link(seed);
            admit_all(&mut link, &frames(200, 1), lossy(0.3));
            link.messages_dropped
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds lose different messages");
    }

    #[test]
    fn jitter_holds_everything_behind_a_held_message() {
        let faults = Faults {
            drop_probability: 0.0,
            jitter_ticks: 4,
        };
        let mut link = link(99);
        let (now, held, lost) = admit_all(&mut link, &frames(50, 1), faults);
        assert!(held > 0, "jitter 4 holds something back");
        assert_eq!((now + held, lost), (50, 0));
        assert_eq!(link.bytes_delivered, now as u64);
        for _ in 0..held {
            link.released(1, true);
        }
        assert_eq!(link.bytes_delivered, 50);
        link.released(1, false);
        assert_eq!(link.messages_dropped, 1, "a departed destination loses it");
    }

    #[test]
    fn drop_at_send_counts_like_a_blackhole() {
        let mut link = link(0);
        link.drop_at_send(64);
        assert_eq!(link.messages_sent, 1);
        assert_eq!(link.messages_dropped, 1);
        assert_eq!(link.bytes_sent, 64);
    }
}
