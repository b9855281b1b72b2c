//! Fault sampling of one directed link.
//!
//! Links are ideal: a message is due the tick it is sent, and the bus
//! hands it straight to its destination. The bus-wide fault pair
//! ([`Faults`]) may lose a message at send time or hold it back for up to
//! `jitter_ticks` ticks. Faults are sampled from a per-link deterministic
//! generator seeded by the bus, so a given seed always loses and delays
//! the same messages. A [`Link`] is that generator: it advances only on a
//! send that samples loss or jitter, so the bus makes one on the first
//! such send and none at all on a fault-free bus.

use crate::NodeId;
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

impl Faults {
    /// Whether a send samples anything.
    pub(crate) fn active(&self) -> bool {
        self.drop_probability > 0.0 || self.jitter_ticks > 0
    }
}

/// The fault generator of one directed link.
#[derive(Debug)]
pub(crate) struct Link {
    rng: SplitMix,
}

impl Link {
    /// The link `from → to` on a bus seeded with `fault_seed`: links of
    /// the same bus get distinct per-pair seeds, so fault patterns are
    /// independent but reproducible.
    pub(crate) fn new(fault_seed: u64, from: NodeId, to: NodeId) -> Self {
        let seed = fault_seed ^ ((from.0 as u64) << 32) ^ (to.0 as u64) ^ 0x5851_F42D_4C95_7F2D;
        Self {
            rng: SplitMix::new(roia_rng::mix(seed)),
        }
    }

    /// Samples the fate of one message under `faults`: `None` if it is
    /// lost, else the ticks jitter holds it back.
    pub(crate) fn sample(&mut self, faults: Faults) -> Option<u64> {
        if faults.drop_probability > 0.0 && self.rng.f64() < faults.drop_probability {
            return None;
        }
        if faults.jitter_ticks == 0 {
            return Some(0);
        }
        Some(self.rng.next_u64() % (faults.jitter_ticks as u64 + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(seed: u64) -> Link {
        Link::new(seed, NodeId(0), NodeId(1))
    }

    fn lossy(drop_probability: f64) -> Faults {
        Faults {
            drop_probability,
            jitter_ticks: 0,
        }
    }

    /// How many of `n` messages `link` loses.
    fn lost(link: &mut Link, n: usize, faults: Faults) -> usize {
        (0..n).filter(|_| link.sample(faults).is_none()).count()
    }

    #[test]
    fn lossy_link_drops_a_fraction() {
        let lost = lost(&mut link(0xF00D), 1000, lossy(0.5));
        assert!(
            (300..=700).contains(&lost),
            "p=0.5 should lose roughly half, lost {lost}"
        );
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let run = |seed: u64| lost(&mut link(seed), 200, lossy(0.3));
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds lose different messages");
    }

    #[test]
    fn jitter_stays_within_its_window() {
        let faults = Faults {
            drop_probability: 0.0,
            jitter_ticks: 4,
        };
        let mut link = link(99);
        let delays: Vec<u64> = (0..50).filter_map(|_| link.sample(faults)).collect();
        assert_eq!(delays.len(), 50, "no loss without a drop probability");
        assert!(delays.iter().all(|&d| d <= 4));
        assert!(
            delays.iter().any(|&d| d > 0),
            "jitter 4 holds something back"
        );
    }
}
