//! The in-process message bus connecting servers and clients.
//!
//! The [`Bus`] plays the role of the IP network between RTF processes. Every
//! participant registers an [`Endpoint`]; messages travel over directed
//! links whose latency/bandwidth behaviour comes from [`crate::LinkSpec`].
//! Zero-latency links (the default) deliver synchronously on `send`, so a
//! lock-step simulation needs no extra pumping; links with latency require
//! the driver to call [`Bus::advance`] once per simulation tick.
//!
//! A lock-step driver that ticks nodes concurrently instead calls
//! [`Bus::pause_delivery`] before the phase and [`Bus::resume_delivery`]
//! after it: while paused, sends stage per-link (preserving each sender's
//! program order) and nothing reaches an inbox; `resume_delivery` then
//! flushes the staged links in ascending `(from, to)` key order. Because
//! every directed link has exactly one sender, the resulting inbox order is
//! a pure function of the traffic itself — independent of thread
//! interleaving — which is what makes a parallel tick byte-identical to a
//! serial one.

// lint: allow-file(hot_lock, "the coarse bus mutex is the simulated network itself: every critical section is a short queue push/pop with no I/O or allocation bursts, and the pause/resume staging protocol is what gives parallel ticks their deterministic delivery order")
use crate::link::{LinkSpec, LinkState};
use crate::NodeId;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// A delivered network message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Opaque payload (serialized by `rtf-core`'s wire format).
    pub payload: Bytes,
}

/// Errors surfaced by the bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The destination node is not registered (or was shut down).
    UnknownNode(NodeId),
    /// The source node is not registered.
    UnknownSender(NodeId),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown destination {n}"),
            NetError::UnknownSender(n) => write!(f, "unknown sender {n}"),
        }
    }
}

impl std::error::Error for NetError {}

struct NodeEntry {
    label: String,
    /// Delivered messages the endpoint has not yet received.
    inbox: VecDeque<Message>,
}

#[derive(Default)]
struct BusInner {
    next_id: u32,
    now_tick: u64,
    nodes: BTreeMap<NodeId, NodeEntry>,
    /// Ordered so [`Bus::advance`] flushes links in a stable order — with
    /// jittered links, cross-link delivery order is observable downstream.
    links: BTreeMap<(NodeId, NodeId), LinkState>,
    default_spec: LinkSpec,
    /// Seed mixed into every link's fault generator.
    fault_seed: u64,
    /// Unordered node pairs that cannot reach each other (stored with the
    /// smaller id first).
    partitions: BTreeSet<(NodeId, NodeId)>,
    /// Nodes cut off from everyone (a network-isolated machine).
    isolated: BTreeSet<NodeId>,
    /// While `true`, `send` stages traffic on its link without flushing;
    /// [`Bus::resume_delivery`] flushes in key order.
    deferred: bool,
    /// Links that may hold undelivered traffic. Kept ordered so deferred
    /// flushes and `advance` walk links in a stable order, and so both skip
    /// the (potentially many) idle links entirely.
    pending: BTreeSet<(NodeId, NodeId)>,
    /// Links with an unregistered end that still had traffic in flight
    /// when it left; each is forgotten once it has drained.
    doomed: BTreeSet<(NodeId, NodeId)>,
    /// Counters of the links forgotten so far, so the bus-wide totals
    /// never go backwards.
    retired: LinkTraffic,
}

/// Normalizes an unordered node pair for the partition set.
fn pair_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

/// Derives a per-link fault seed from the bus seed and the link's ends
/// (SplitMix64 finalizer over the mixed ids).
fn link_seed(fault_seed: u64, from: NodeId, to: NodeId) -> u64 {
    let mut z = fault_seed ^ ((from.0 as u64) << 32) ^ (to.0 as u64) ^ 0x5851_F42D_4C95_7F2D;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BusInner {
    /// Whether traffic `from → to` is currently blackholed.
    fn blocked(&self, from: NodeId, to: NodeId) -> bool {
        self.isolated.contains(&from)
            || self.isolated.contains(&to)
            || self.partitions.contains(&pair_key(from, to))
    }
    /// Delivers every message due on a link into its destination inbox.
    fn flush_link(&mut self, key: (NodeId, NodeId)) {
        let Some(link) = self.links.get_mut(&key) else {
            return;
        };
        let due = link.drain_due(self.now_tick);
        let emptied = link.in_flight() == 0;
        match self.nodes.get_mut(&key.1) {
            Some(entry) => entry.inbox.extend(due),
            // The destination unregistered while the messages were in
            // flight — a real socket close eats those bytes. They are
            // still lost traffic, so they must show up in the link's drop
            // counters rather than vanish silently.
            None => {
                link.messages_dropped += due.len() as u64;
                // `drain_due` pre-counted these as delivered; undo that.
                let lost_bytes: u64 = due.iter().map(|m| m.payload.len() as u64).sum();
                link.bytes_delivered = link.bytes_delivered.saturating_sub(lost_bytes);
            }
        }
        if emptied {
            self.pending.remove(&key);
            if self.doomed.remove(&key) {
                self.retire_link(key);
            }
        }
    }

    /// Forgets a link that can never carry traffic again — an end of it
    /// is unregistered (node ids are never reused) and nothing is in
    /// flight — moving its counters into `retired`. Without this, every
    /// endpoint that ever joined would pin its links' staging queues for
    /// the lifetime of the bus.
    fn retire_link(&mut self, key: (NodeId, NodeId)) {
        if let Some(link) = self.links.remove(&key) {
            self.retired.bytes_sent += link.bytes_sent;
            self.retired.bytes_delivered += link.bytes_delivered;
            self.retired.messages_sent += link.messages_sent;
            self.retired.messages_dropped += link.messages_dropped;
        }
    }
}

/// The shared message bus. Cheap to clone; all clones refer to the same
/// network.
#[derive(Clone, Default)]
pub struct Bus {
    inner: Arc<Mutex<BusInner>>,
}

impl Bus {
    /// Creates an empty bus whose links default to [`LinkSpec::IDEAL`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bus whose unconfigured links use `default_spec`.
    pub fn with_default_link(default_spec: LinkSpec) -> Self {
        let bus = Self::new();
        bus.inner.lock().default_spec = default_spec;
        bus
    }

    /// Registers a new endpoint with a human-readable label.
    pub fn register(&self, label: &str) -> Endpoint {
        let mut inner = self.inner.lock();
        let id = NodeId(inner.next_id);
        inner.next_id += 1;
        inner.nodes.insert(
            id,
            NodeEntry {
                label: label.to_owned(),
                inbox: VecDeque::new(),
            },
        );
        Endpoint {
            id,
            bus: self.clone(),
        }
    }

    /// Removes an endpoint; in-flight messages to it are dropped on
    /// arrival (and counted as dropped). Its idle links are forgotten at
    /// once, the others as soon as they have drained. Dropping the
    /// [`Endpoint`] does this too.
    pub fn unregister(&self, id: NodeId) {
        let mut inner = self.inner.lock();
        if inner.nodes.remove(&id).is_none() {
            return;
        }
        let touching: Vec<(NodeId, NodeId)> = inner
            .links
            .keys()
            .filter(|(from, to)| *from == id || *to == id)
            .copied()
            .collect();
        for key in touching {
            if inner.links.get(&key).is_some_and(|l| l.in_flight() > 0) {
                inner.doomed.insert(key);
            } else {
                inner.retire_link(key);
            }
        }
    }

    /// The label an endpoint registered with.
    pub fn label(&self, id: NodeId) -> Option<String> {
        self.inner.lock().nodes.get(&id).map(|e| e.label.clone())
    }

    /// Number of registered endpoints.
    pub fn node_count(&self) -> usize {
        self.inner.lock().nodes.len()
    }

    /// Number of directed links the bus currently keeps state for.
    pub fn link_count(&self) -> usize {
        self.inner.lock().links.len()
    }

    /// Configures the directed link `from → to`.
    pub fn set_link(&self, from: NodeId, to: NodeId, spec: LinkSpec) {
        let mut inner = self.inner.lock();
        let seed = link_seed(inner.fault_seed, from, to);
        inner
            .links
            .insert((from, to), LinkState::new_seeded(spec, seed));
    }

    /// Sets the spec new (unconfigured) links will be created with.
    pub fn set_default_link(&self, spec: LinkSpec) {
        self.inner.lock().default_spec = spec;
    }

    /// Sets the seed from which per-link fault generators derive. Existing
    /// links are re-seeded; call before injecting faults for reproducible
    /// loss/jitter patterns.
    pub fn set_fault_seed(&self, seed: u64) {
        let mut inner = self.inner.lock();
        inner.fault_seed = seed;
        let keys: Vec<(NodeId, NodeId)> = inner.links.keys().copied().collect();
        for key in keys {
            let s = link_seed(seed, key.0, key.1);
            if let Some(link) = inner.links.get_mut(&key) {
                link.reseed(s);
            }
        }
    }

    /// Applies a drop probability and jitter window to EVERY link — the
    /// ones already carved out (keeping their latency/bandwidth) and, via
    /// the default spec, all links created later.
    pub fn set_link_faults(&self, drop_probability: f64, jitter_ticks: u32) {
        let mut inner = self.inner.lock();
        inner.default_spec = inner
            .default_spec
            .with_faults(drop_probability, jitter_ticks);
        for link in inner.links.values_mut() {
            let spec = link.spec().with_faults(drop_probability, jitter_ticks);
            link.set_spec(spec);
        }
    }

    /// Installs or heals a bidirectional partition between `a` and `b`.
    /// Partitioned traffic is blackholed: `send` succeeds (the sender
    /// cannot tell) but nothing arrives.
    pub fn set_partition(&self, a: NodeId, b: NodeId, active: bool) {
        let mut inner = self.inner.lock();
        if active {
            inner.partitions.insert(pair_key(a, b));
        } else {
            inner.partitions.remove(&pair_key(a, b));
        }
    }

    /// Cuts a node off from (or reconnects it to) everyone — the
    /// whole-machine variant of [`Bus::set_partition`].
    pub fn set_isolated(&self, node: NodeId, active: bool) {
        let mut inner = self.inner.lock();
        if active {
            inner.isolated.insert(node);
        } else {
            inner.isolated.remove(&node);
        }
    }

    /// Whether a node is currently isolated.
    pub fn is_isolated(&self, node: NodeId) -> bool {
        self.inner.lock().isolated.contains(&node)
    }

    /// Sends `payload` from `from` to `to` over the configured link
    /// (creating one with the default spec on first use).
    pub fn send(&self, from: NodeId, to: NodeId, payload: Bytes) -> Result<(), NetError> {
        let mut inner = self.inner.lock();
        if !inner.nodes.contains_key(&from) {
            return Err(NetError::UnknownSender(from));
        }
        if !inner.nodes.contains_key(&to) {
            return Err(NetError::UnknownNode(to));
        }
        let key = (from, to);
        let default_spec = inner.default_spec;
        let seed = link_seed(inner.fault_seed, from, to);
        let now = inner.now_tick;
        let blocked = inner.blocked(from, to);
        let link = inner
            .links
            .entry(key)
            .or_insert_with(|| LinkState::new_seeded(default_spec, seed));
        if blocked {
            link.drop_at_send(payload.len() as u64);
            return Ok(());
        }
        link.enqueue(now, Message { from, to, payload });
        inner.pending.insert(key);
        if !inner.deferred {
            // Zero-latency traffic is deliverable right away.
            inner.flush_link(key);
        }
        Ok(())
    }

    /// Stages subsequent sends on their links without delivering anything.
    /// Per-link send order is preserved; cross-link delivery order is
    /// decided by [`Bus::resume_delivery`], not by call interleaving — the
    /// contract a concurrent lock-step driver relies on.
    pub fn pause_delivery(&self) {
        self.inner.lock().deferred = true;
    }

    /// Ends a [`Bus::pause_delivery`] window and flushes every staged link
    /// in ascending `(from, to)` order.
    pub fn resume_delivery(&self) {
        let mut inner = self.inner.lock();
        inner.deferred = false;
        let keys: Vec<(NodeId, NodeId)> = inner.pending.iter().copied().collect();
        for key in keys {
            inner.flush_link(key);
        }
    }

    /// Advances simulated time to `now_tick` and delivers everything due on
    /// every link. Only needed when links have latency or bandwidth caps.
    pub fn advance(&self, now_tick: u64) {
        let mut inner = self.inner.lock();
        inner.now_tick = now_tick;
        let keys: Vec<(NodeId, NodeId)> = inner.pending.iter().copied().collect();
        for key in keys {
            inner.flush_link(key);
        }
    }

    /// Current simulated tick of the bus clock.
    pub fn now(&self) -> u64 {
        self.inner.lock().now_tick
    }

    /// A snapshot of the per-link traffic counters.
    pub fn stats(&self) -> TrafficStats {
        let inner = self.inner.lock();
        let mut per_link = BTreeMap::new();
        for (key, link) in &inner.links {
            per_link.insert(
                *key,
                LinkTraffic {
                    bytes_sent: link.bytes_sent,
                    bytes_delivered: link.bytes_delivered,
                    messages_sent: link.messages_sent,
                    messages_dropped: link.messages_dropped,
                    in_flight: link.in_flight() as u64,
                },
            );
        }
        TrafficStats {
            per_link,
            retired: inner.retired,
        }
    }
}

/// Traffic counters of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkTraffic {
    /// Payload bytes ever sent on the link.
    pub bytes_sent: u64,
    /// Payload bytes delivered to the destination inbox.
    pub bytes_delivered: u64,
    /// Messages ever sent on the link.
    pub messages_sent: u64,
    /// Messages lost to drop probability, partitions, isolation or a
    /// destination that unregistered while they were in flight.
    pub messages_dropped: u64,
    /// Messages currently in flight.
    pub in_flight: u64,
}

/// Aggregated traffic statistics for the whole bus. The per-link and
/// per-node views cover the links that still exist; the bus-wide totals
/// also include the links forgotten since an end of theirs unregistered,
/// so they only ever grow.
#[derive(Debug, Clone, Default)]
pub struct TrafficStats {
    per_link: BTreeMap<(NodeId, NodeId), LinkTraffic>,
    retired: LinkTraffic,
}

impl TrafficStats {
    /// Counters for the directed link `from → to`.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkTraffic {
        self.per_link.get(&(from, to)).copied().unwrap_or_default()
    }

    /// Total payload bytes sent across all links.
    pub fn total_bytes_sent(&self) -> u64 {
        self.retired.bytes_sent + self.per_link.values().map(|l| l.bytes_sent).sum::<u64>()
    }

    /// Total messages sent across all links.
    pub fn total_messages(&self) -> u64 {
        self.retired.messages_sent + self.per_link.values().map(|l| l.messages_sent).sum::<u64>()
    }

    /// Total messages lost across all links (faults, partitions, isolation).
    pub fn total_dropped(&self) -> u64 {
        self.retired.messages_dropped
            + self
                .per_link
                .values()
                .map(|l| l.messages_dropped)
                .sum::<u64>()
    }

    /// Bytes sent from `node` to anyone (the paper's \[10\] observed this
    /// outgoing direction dominating in MMORPGs).
    pub fn bytes_out_of(&self, node: NodeId) -> u64 {
        self.per_link
            .iter()
            .filter(|((from, _), _)| *from == node)
            .map(|(_, l)| l.bytes_sent)
            .sum()
    }

    /// Bytes sent to `node` from anyone.
    pub fn bytes_into(&self, node: NodeId) -> u64 {
        self.per_link
            .iter()
            .filter(|((_, to), _)| *to == node)
            .map(|(_, l)| l.bytes_sent)
            .sum()
    }
}

/// One node's handle on the bus: its identity plus its inbox.
pub struct Endpoint {
    id: NodeId,
    bus: Bus,
}

impl Endpoint {
    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sends from this endpoint.
    pub fn send(&self, to: NodeId, payload: Bytes) -> Result<(), NetError> {
        self.bus.send(self.id, to, payload)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        let mut inner = self.bus.inner.lock();
        inner.nodes.get_mut(&self.id)?.inbox.pop_front()
    }

    /// Drains every message currently in the inbox.
    pub fn drain(&self) -> Vec<Message> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Drains the inbox into a caller-owned buffer (not cleared first), so
    /// per-tick callers can reuse one allocation instead of building a
    /// fresh `Vec` every tick.
    pub fn drain_into(&self, out: &mut Vec<Message>) {
        let mut inner = self.bus.inner.lock();
        if let Some(entry) = inner.nodes.get_mut(&self.id) {
            out.extend(entry.inbox.drain(..));
        }
    }
}

impl Drop for Endpoint {
    /// A dropped endpoint can never receive again: leave the bus, so the
    /// node entry, its inbox and its links do not outlive it.
    fn drop(&mut self) {
        self.bus.unregister(self.id);
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Endpoint({})", self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_unique_ids() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        assert_ne!(a.id(), b.id());
        assert_eq!(bus.node_count(), 2);
        assert_eq!(bus.label(a.id()).as_deref(), Some("a"));
    }

    #[test]
    fn zero_latency_send_is_synchronous() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        a.send(b.id(), Bytes::from_static(b"hi")).unwrap();
        assert_eq!(b.try_recv().unwrap().payload, Bytes::from_static(b"hi"));
    }

    #[test]
    fn latency_link_requires_advance() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        bus.set_link(a.id(), b.id(), LinkSpec::with_latency(2));
        a.send(b.id(), Bytes::from_static(b"later")).unwrap();
        assert!(b.try_recv().is_none());
        bus.advance(1);
        assert!(b.try_recv().is_none());
        bus.advance(2);
        assert!(b.try_recv().is_some());
    }

    #[test]
    fn unknown_destination_errors() {
        let bus = Bus::new();
        let a = bus.register("a");
        let err = a.send(NodeId(999), Bytes::new()).unwrap_err();
        assert_eq!(err, NetError::UnknownNode(NodeId(999)));
    }

    #[test]
    fn unknown_sender_errors() {
        let bus = Bus::new();
        let a = bus.register("a");
        let err = bus.send(NodeId(999), a.id(), Bytes::new()).unwrap_err();
        assert_eq!(err, NetError::UnknownSender(NodeId(999)));
    }

    #[test]
    fn unregister_stops_delivery() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        bus.unregister(b.id());
        let err = a.send(b.id(), Bytes::new()).unwrap_err();
        assert_eq!(err, NetError::UnknownNode(b.id()));
    }

    #[test]
    fn in_order_delivery() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        for i in 0u8..10 {
            a.send(b.id(), Bytes::from(vec![i])).unwrap();
        }
        let got: Vec<u8> = b.drain().iter().map(|m| m.payload[0]).collect();
        assert_eq!(got, (0u8..10).collect::<Vec<_>>());
    }

    #[test]
    fn stats_count_bytes_and_messages() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        a.send(b.id(), Bytes::from(vec![0u8; 100])).unwrap();
        a.send(b.id(), Bytes::from(vec![0u8; 50])).unwrap();
        b.send(a.id(), Bytes::from(vec![0u8; 7])).unwrap();
        let stats = bus.stats();
        assert_eq!(stats.link(a.id(), b.id()).bytes_sent, 150);
        assert_eq!(stats.link(a.id(), b.id()).messages_sent, 2);
        assert_eq!(stats.total_bytes_sent(), 157);
        assert_eq!(stats.bytes_out_of(a.id()), 150);
        assert_eq!(stats.bytes_into(a.id()), 7);
    }

    #[test]
    fn partition_blackholes_both_directions() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        bus.set_partition(a.id(), b.id(), true);
        a.send(b.id(), Bytes::from_static(b"x")).unwrap();
        b.send(a.id(), Bytes::from_static(b"y")).unwrap();
        assert!(
            b.try_recv().is_none(),
            "partitioned traffic must not arrive"
        );
        assert!(a.try_recv().is_none());
        assert_eq!(bus.stats().total_dropped(), 2);
        // Healing the partition restores delivery.
        bus.set_partition(a.id(), b.id(), false);
        a.send(b.id(), Bytes::from_static(b"z")).unwrap();
        assert_eq!(&b.try_recv().unwrap().payload[..], b"z");
    }

    #[test]
    fn isolated_node_reaches_no_one() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        let c = bus.register("c");
        bus.set_isolated(b.id(), true);
        assert!(bus.is_isolated(b.id()));
        a.send(b.id(), Bytes::from_static(b"in")).unwrap();
        b.send(c.id(), Bytes::from_static(b"out")).unwrap();
        a.send(c.id(), Bytes::from_static(b"ok")).unwrap();
        assert!(b.try_recv().is_none());
        assert_eq!(c.drain().len(), 1, "unrelated traffic still flows");
        bus.set_isolated(b.id(), false);
        a.send(b.id(), Bytes::from_static(b"back")).unwrap();
        assert!(b.try_recv().is_some());
    }

    #[test]
    fn link_faults_apply_to_existing_links() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        // Carve out the link fault-free first.
        a.send(b.id(), Bytes::from_static(b"pre")).unwrap();
        assert!(b.try_recv().is_some());
        bus.set_fault_seed(0xBEEF);
        bus.set_link_faults(1.0, 0);
        for _ in 0..10 {
            a.send(b.id(), Bytes::from_static(b"lost")).unwrap();
        }
        assert!(b.try_recv().is_none(), "p=1 loses everything");
        assert_eq!(bus.stats().link(a.id(), b.id()).messages_dropped, 10);
        bus.set_link_faults(0.0, 0);
        a.send(b.id(), Bytes::from_static(b"post")).unwrap();
        assert!(b.try_recv().is_some());
    }

    #[test]
    fn paused_delivery_holds_traffic_until_resume() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        bus.pause_delivery();
        a.send(b.id(), Bytes::from_static(b"held")).unwrap();
        assert!(b.try_recv().is_none(), "paused traffic must not arrive");
        bus.resume_delivery();
        assert_eq!(&b.try_recv().unwrap().payload[..], b"held");
        // After resume the bus is synchronous again.
        a.send(b.id(), Bytes::from_static(b"sync")).unwrap();
        assert!(b.try_recv().is_some());
    }

    #[test]
    fn resume_flushes_links_in_key_order_not_send_order() {
        let bus = Bus::new();
        let lo = bus.register("lo"); // NodeId(0)
        let hi = bus.register("hi"); // NodeId(1)
        let dst = bus.register("dst"); // NodeId(2)
        bus.pause_delivery();
        // Send from the higher id first: under synchronous delivery the
        // inbox would read hi-then-lo; the deferred flush must order by
        // link key instead, independent of call interleaving.
        hi.send(dst.id(), Bytes::from_static(b"hi")).unwrap();
        lo.send(dst.id(), Bytes::from_static(b"lo")).unwrap();
        bus.resume_delivery();
        let got: Vec<NodeId> = dst.drain().iter().map(|m| m.from).collect();
        assert_eq!(got, vec![lo.id(), hi.id()]);
    }

    #[test]
    fn paused_sends_preserve_per_link_order() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        bus.pause_delivery();
        for i in 0u8..10 {
            a.send(b.id(), Bytes::from(vec![i])).unwrap();
        }
        bus.resume_delivery();
        let got: Vec<u8> = b.drain().iter().map(|m| m.payload[0]).collect();
        assert_eq!(got, (0u8..10).collect::<Vec<_>>());
    }

    #[test]
    fn drain_into_reuses_buffer() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        let mut buf = Vec::with_capacity(4);
        a.send(b.id(), Bytes::from_static(b"one")).unwrap();
        b.drain_into(&mut buf);
        assert_eq!(buf.len(), 1);
        buf.clear();
        let cap = buf.capacity();
        a.send(b.id(), Bytes::from_static(b"two")).unwrap();
        b.drain_into(&mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.capacity(), cap, "no reallocation on reuse");
    }

    #[test]
    fn concurrent_paused_sends_arrive_in_link_key_order() {
        const SENDERS: usize = 8;
        const PER_LINK: u8 = 50;
        let bus = Bus::new();
        let dst = bus.register("dst");
        let senders: Vec<Endpoint> = (0..SENDERS).map(|_| bus.register("sender")).collect();
        let start = std::sync::Barrier::new(SENDERS);
        bus.pause_delivery();
        std::thread::scope(|scope| {
            // Spawned highest id first and released together, so neither
            // spawn order nor the interleaving follows link-key order.
            for sender in senders.iter().rev() {
                let (start, to) = (&start, dst.id());
                scope.spawn(move || {
                    start.wait();
                    for i in 0..PER_LINK {
                        sender.send(to, Bytes::from(vec![i])).unwrap();
                    }
                });
            }
        });
        assert!(dst.try_recv().is_none(), "paused traffic must not arrive");
        bus.resume_delivery();
        let got: Vec<(NodeId, u8)> = dst.drain().iter().map(|m| (m.from, m.payload[0])).collect();
        let want: Vec<(NodeId, u8)> = senders
            .iter()
            .flat_map(|s| (0..PER_LINK).map(move |i| (s.id(), i)))
            .collect();
        assert_eq!(got, want, "ascending link key, program order per link");
    }

    #[test]
    fn dropped_endpoint_with_undrained_inbox_leaves_nothing_behind() {
        let bus = Bus::new();
        let a = bus.register("a");
        let (nodes, links) = (bus.node_count(), bus.link_count());
        let b = bus.register("b");
        let b_id = b.id();
        for _ in 0..3 {
            a.send(b_id, Bytes::from_static(b"unread")).unwrap();
        }
        b.send(a.id(), Bytes::from_static(b"read")).unwrap();
        assert_eq!(a.drain().len(), 1);
        drop(b);
        assert_eq!(bus.node_count(), nodes);
        assert_eq!(bus.link_count(), links);
        assert_eq!(
            a.send(b_id, Bytes::from_static(b"late")),
            Err(NetError::UnknownNode(b_id))
        );
        assert_eq!(bus.stats().total_messages(), 4, "totals survive the links");
    }

    #[test]
    fn unregister_midflight_counts_as_dropped() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        bus.set_link(a.id(), b.id(), LinkSpec::with_latency(2));
        a.send(b.id(), Bytes::from(vec![0u8; 16])).unwrap();
        bus.unregister(b.id());
        assert_eq!(bus.link_count(), 1, "a link with traffic in flight stays");
        assert_eq!(bus.stats().link(a.id(), b.id()).in_flight, 1);
        bus.advance(2);
        assert_eq!(bus.stats().total_dropped(), 1, "in-flight loss is counted");
        assert_eq!(bus.stats().total_messages(), 1);
        assert_eq!(bus.stats().total_bytes_sent(), 16);
        assert_eq!(bus.link_count(), 0, "drained, and `b` is gone for good");
        assert_eq!(bus.stats().link(a.id(), b.id()), LinkTraffic::default());
    }

    #[test]
    fn departed_endpoints_leave_no_links_behind() {
        // Ten thousand clients come, exchange a message with the server
        // and go — alternately by `unregister` and by dropping the
        // endpoint. The bus must keep state for live endpoints only,
        // while its totals stay what they would be had it kept every link.
        let bus = Bus::new();
        let server = bus.register("server");
        let (mut messages, mut bytes) = (0u64, 0u64);
        for i in 0..10_000u32 {
            let client = bus.register("client");
            let hello = Bytes::from(vec![0u8; 1 + (i % 7) as usize]);
            bytes += 2 * hello.len() as u64;
            messages += 2;
            client.send(server.id(), hello.clone()).unwrap();
            server.send(client.id(), hello).unwrap();
            assert_eq!(client.drain().len(), 1);
            if i % 2 == 0 {
                bus.unregister(client.id());
            }
            drop(client);
            assert_eq!(bus.link_count(), 0, "client {i} left links behind");
            assert_eq!(bus.node_count(), 1);
        }
        assert_eq!(server.drain().len(), 10_000);
        let stats = bus.stats();
        assert_eq!(stats.total_messages(), messages);
        assert_eq!(stats.total_bytes_sent(), bytes);
        assert_eq!(stats.total_dropped(), 0);
        // A send to a departed endpoint fails instead of opening a link.
        assert!(server.send(NodeId(5), Bytes::from_static(b"late")).is_err());
        assert_eq!(bus.link_count(), 0);
    }

    #[test]
    fn bandwidth_cap_applies_across_advances() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        bus.set_link(a.id(), b.id(), LinkSpec::with_bandwidth(10));
        // Three 8-byte messages: one per tick under a 10-byte/tick cap.
        for _ in 0..3 {
            a.send(b.id(), Bytes::from(vec![0u8; 8])).unwrap();
        }
        assert_eq!(b.drain().len(), 1, "send flushes only the first");
        bus.advance(1);
        assert_eq!(b.drain().len(), 1);
        bus.advance(2);
        assert_eq!(b.drain().len(), 1);
    }
}
