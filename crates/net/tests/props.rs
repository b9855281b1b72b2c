//! Seeded properties of the bus: in-order delivery with every message
//! either delivered or counted as dropped under seeded loss and jitter,
//! and inbox order and the bus-wide totals equal to a plain
//! per-link-queue model under pause and resume, isolation and nodes
//! leaving and joining. Each property runs 256 cases on
//! [`roia_rng::check`], and a failure names the seed that broke it; the
//! `*_at` function called on a generator with that seed replays that case
//! alone.

use roia_rng::{check, Rng, SplitMix, Xoshiro256pp};
use rtf_net::{Bus, Bytes, Endpoint, NetError, NodeId, TrafficStats};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Up to 60 messages on one link under a drop probability below 0.9 and
/// up to 5 ticks of jitter: each is delivered or dropped, never both or
/// neither, the survivors arrive in send order, and the same fault seed
/// loses and delays the same messages.
fn lossy_jittery_link_conserves_messages_at(rng: &mut Xoshiro256pp) {
    let count = rng.gen_range(1..61u64);
    let loss = rng.f64() * 0.9;
    let jitter = rng.gen_range(0..6u32);
    let fault_seed = rng.next_u64();
    let sizes: Vec<usize> = (0..count).map(|_| rng.gen_range(1..200)).collect();
    let run = || {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        bus.set_fault_seed(fault_seed);
        bus.set_link_faults(loss, jitter);
        for (i, &size) in sizes.iter().enumerate() {
            let mut payload = vec![0u8; size];
            payload[0] = i as u8; // sequence marker
            a.send(b.id(), Bytes::from(payload)).unwrap();
        }
        let mut received = Vec::new();
        for tick in 0..=u64::from(jitter) {
            bus.advance(tick);
            b.drain_into(&mut received);
        }
        (received, bus.stats())
    };
    let (received, stats) = run();
    assert_eq!(stats.total_messages(), count);
    assert_eq!(stats.total_dropped() + received.len() as u64, count);
    let seq: Vec<u8> = received.iter().map(|m| m.payload[0]).collect();
    assert!(seq.windows(2).all(|w| w[0] < w[1]), "send order: {seq:?}");
    let (again, _) = run();
    assert_eq!(received, again, "a fault seed replays exactly");
}

#[test]
fn lossy_jittery_link_conserves_messages() {
    check(256, lossy_jittery_link_conserves_messages_at);
}

/// What the bus must behave like: one FIFO queue per directed link, each
/// message due `jitter` ticks after its send, an unpaused send delivering
/// what its own link has due at once, and a flush draining every link's
/// due prefix in ascending `(from, to)` order. A send to or from an
/// isolated node is lost at once. When a destination leaves, its unread
/// inbox goes and what is due for it (what a pause staged) is lost at
/// once; what falls due for it later is lost then.
#[derive(Default)]
struct Reference {
    now: u64,
    paused: bool,
    loss: f64,
    jitter: u32,
    fault_seed: u64,
    live: BTreeSet<u32>,
    isolated: BTreeSet<u32>,
    links: BTreeMap<(u32, u32), RefLink>,
    inboxes: BTreeMap<u32, Vec<(u32, Vec<u8>)>>,
    sent: u64,
    dropped: u64,
}

struct RefLink {
    queue: VecDeque<(u64, Vec<u8>)>,
    rng: SplitMix,
}

impl Reference {
    fn send(&mut self, from: u32, to: u32, payload: Vec<u8>) {
        let seed = roia_rng::mix(
            self.fault_seed ^ (u64::from(from) << 32) ^ u64::from(to) ^ 0x5851_F42D_4C95_7F2D,
        );
        let link = self.links.entry((from, to)).or_insert_with(|| RefLink {
            queue: VecDeque::new(),
            rng: SplitMix::new(seed),
        });
        self.sent += 1;
        if self.isolated.contains(&from) || self.isolated.contains(&to) {
            self.dropped += 1;
            return;
        }
        if self.loss > 0.0 && link.rng.f64() < self.loss {
            self.dropped += 1;
            return;
        }
        let delay = if self.jitter > 0 {
            link.rng.next_u64() % (u64::from(self.jitter) + 1)
        } else {
            0
        };
        link.queue.push_back((self.now + delay, payload));
        if !self.paused {
            self.deliver(from, to);
        }
    }

    fn deliver(&mut self, from: u32, to: u32) {
        let now = self.now;
        let Some(link) = self.links.get_mut(&(from, to)) else {
            return;
        };
        let live = self.live.contains(&to);
        let inbox = self.inboxes.entry(to).or_default();
        while let Some((_, payload)) = link.queue.pop_front_if(|(due, _)| *due <= now) {
            if live {
                inbox.push((from, payload));
            } else {
                self.dropped += 1;
            }
        }
    }

    fn flush(&mut self) {
        let keys: Vec<(u32, u32)> = self.links.keys().copied().collect();
        for (from, to) in keys {
            self.deliver(from, to);
        }
    }

    fn leave(&mut self, id: u32) {
        self.live.remove(&id);
        self.inboxes.remove(&id);
        let into: Vec<(u32, u32)> = self.links.keys().filter(|k| k.1 == id).copied().collect();
        for (from, to) in into {
            self.deliver(from, to);
        }
    }

    /// Checks the bus-wide totals.
    fn check(&self, stats: &TrafficStats) {
        assert_eq!(
            (stats.total_messages(), stats.total_dropped()),
            (self.sent, self.dropped),
            "bus-wide totals"
        );
    }
}

/// The messages `endpoint` has received, as `(sender, payload)`.
fn drained(endpoint: &Endpoint) -> Vec<(u32, Vec<u8>)> {
    let mut got = Vec::new();
    endpoint.drain_into(&mut got);
    got.iter().map(|m| (m.from.0, m.payload.to_vec())).collect()
}

/// Up to six node slots exchange up to 300 messages under seeded loss and
/// jitter, with pauses, resumes, tick advances, drains, isolation and
/// nodes leaving (by `unregister` or by dropping the endpoint) and new
/// ones joining — which reuses the bus rows of departed nodes, also while
/// jitter still holds traffic to them — interleaved at random: every
/// drain returns what the per-link-queue reference model's inbox holds,
/// in the same order, and `Bus::stats()` equals the model's totals after
/// every step — during a pause too. A send to or from a departed node
/// fails and counts nothing.
fn bus_matches_the_per_link_queue_model_at(rng: &mut Xoshiro256pp) {
    let slots = rng.gen_range(2..7usize);
    let loss = if rng.gen_bool(0.5) {
        rng.f64() * 0.5
    } else {
        0.0
    };
    let jitter = rng.gen_range(0..4u32);
    let fault_seed = rng.next_u64();
    let bus = Bus::new();
    bus.set_fault_seed(fault_seed);
    bus.set_link_faults(loss, jitter);
    let mut endpoints: Vec<Option<Endpoint>> =
        (0..slots).map(|_| Some(bus.register("node"))).collect();
    // The id of each slot's node, or of the node that last left it.
    let mut ids: Vec<u32> = endpoints.iter().flatten().map(|e| e.id().0).collect();
    let mut model = Reference {
        loss,
        jitter,
        fault_seed,
        live: ids.iter().copied().collect(),
        ..Reference::default()
    };
    let mut seq = 0u16;
    for _ in 0..rng.gen_range(1..300u32) {
        match rng.gen_range(0..22u32) {
            0 => {
                bus.pause_delivery();
                model.paused = true;
            }
            1 => {
                bus.resume_delivery();
                model.paused = false;
                model.flush();
            }
            2 => {
                model.now += 1;
                bus.advance(model.now);
                model.flush();
            }
            3 | 4 => {
                let i = rng.gen_range(0..slots);
                if let Some(endpoint) = &endpoints[i] {
                    let want = model.inboxes.remove(&ids[i]).unwrap_or_default();
                    assert_eq!(drained(endpoint), want, "inbox of slot {i}");
                }
            }
            6 => {
                let i = rng.gen_range(0..slots);
                match endpoints[i].take() {
                    Some(endpoint) => {
                        if rng.gen_bool(0.5) {
                            bus.unregister(endpoint.id());
                        }
                        drop(endpoint);
                        model.leave(ids[i]);
                    }
                    None => {
                        let endpoint = bus.register("node");
                        ids[i] = endpoint.id().0;
                        model.live.insert(ids[i]);
                        endpoints[i] = Some(endpoint);
                    }
                }
            }
            7 => {
                let id = ids[rng.gen_range(0..slots)];
                let active = !model.isolated.contains(&id);
                bus.set_isolated(NodeId(id), active);
                if active {
                    model.isolated.insert(id);
                } else {
                    model.isolated.remove(&id);
                }
            }
            _ => {
                let from = rng.gen_range(0..slots);
                let to = rng.gen_range(0..slots);
                seq += 1;
                let mut payload = vec![0u8; rng.gen_range(2..40usize)];
                payload[..2].copy_from_slice(&seq.to_le_bytes());
                let (from_id, to_id) = (NodeId(ids[from]), NodeId(ids[to]));
                let sent = bus.send(from_id, to_id, Bytes::from(payload.clone()));
                match (&endpoints[from], &endpoints[to]) {
                    (None, _) => assert_eq!(sent, Err(NetError::UnknownSender(from_id))),
                    (_, None) => assert_eq!(sent, Err(NetError::UnknownNode(to_id))),
                    _ => {
                        assert_eq!(sent, Ok(()));
                        model.send(from_id.0, to_id.0, payload);
                    }
                }
            }
        }
        model.check(&bus.stats());
    }
    bus.resume_delivery();
    model.paused = false;
    model.flush();
    for _ in 0..jitter {
        model.now += 1;
        bus.advance(model.now);
        model.flush();
    }
    model.check(&bus.stats());
    for (&(from, to), link) in &model.links {
        assert!(link.queue.is_empty(), "link {from} → {to} has drained");
    }
    for (endpoint, id) in endpoints.iter().zip(&ids) {
        if let Some(endpoint) = endpoint {
            let want = model.inboxes.remove(id).unwrap_or_default();
            assert_eq!(drained(endpoint), want);
        }
    }
}

#[test]
fn bus_matches_the_per_link_queue_model() {
    check(256, bus_matches_the_per_link_queue_model_at);
}
