//! The in-process message bus connecting servers and clients.
//!
//! The [`Bus`] plays the role of the IP network between RTF processes. Every
//! participant registers an [`Endpoint`]; messages travel over ideal
//! directed links that deliver synchronously on `send`, so a lock-step
//! simulation needs no extra pumping. Two faults can be injected: a
//! bus-wide drop probability and jitter window ([`Bus::set_link_faults`]),
//! and isolation of a node ([`Bus::set_isolated`]). Jittered messages wait
//! on their link until the driver's [`Bus::advance`] reaches their tick.
//!
//! A lock-step driver that ticks nodes concurrently instead calls
//! [`Bus::pause_delivery`] before the phase and [`Bus::resume_delivery`]
//! after it: while paused, sends are staged and nothing reaches an inbox;
//! `resume_delivery` then delivers as if it flushed every link in
//! ascending `(from, to)` key order, each in its sender's program order.
//! Because every directed link has exactly one sender, the resulting inbox
//! order is a pure function of the traffic itself — independent of thread
//! interleaving — which is what makes a parallel tick byte-identical to a
//! serial one.
//!
//! The state is a table of node rows. A row's slot is fixed while its node
//! is on the bus, and the [`Endpoint`] remembers it, so neither a send nor
//! a drain searches the table; a departed node's slot is reused, so the
//! table does not grow with departed ids. A row owns its node's outgoing
//! links, sorted by destination, and each link remembers its destination's
//! slot. Messages waiting for their receivers sit in one bus-wide arena as
//! a list per receiver, so a node's inbox is held once, in the arena, and
//! costs nothing when empty. A paused send appends to its destination's
//! staged list; the flush orders each staged list by sender (stably, so
//! each link keeps its program order) and splices it onto the inbox. A
//! link holds a queue only while jitter holds traffic back. Once the arena
//! and the flush's scratch buffers have grown, neither a send, a drain nor
//! a flush allocates.

// lint: allow-file(hot_lock, "the coarse bus mutex is the simulated network itself: every critical section is a short list push/pop with no I/O or allocation bursts, and the pause/resume staging protocol is what gives parallel ticks their deterministic delivery order")
use crate::link::{Admitted, Faults, Link};
use crate::{Bytes, FramePool, NodeId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// The end of a mail list.
const NIL: u32 = u32::MAX;

/// One message waiting in the arena: a node of its receiver's list.
struct Mail {
    next: u32,
    from: NodeId,
    /// `None` while the node is on the free list.
    payload: Option<Bytes>,
}

/// A singly linked list of arena nodes, oldest first.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };

    fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

/// Every message waiting for its receiver, as one list per receiver.
/// Freed nodes are kept on a free list and reused.
#[derive(Default)]
struct Arena {
    nodes: Vec<Mail>,
    free: Option<u32>,
}

impl Arena {
    /// Appends a message to `list`.
    fn push(&mut self, list: &mut List, from: NodeId, payload: Bytes) {
        let at = match self.free {
            Some(at) => {
                let node = self.nodes.get_mut(at as usize);
                self.free = node
                    .as_ref()
                    .and_then(|n| (n.next != NIL).then_some(n.next));
                if let Some(node) = node {
                    *node = Mail {
                        next: NIL,
                        from,
                        payload: Some(payload),
                    };
                }
                at
            }
            None => {
                grow(&mut self.nodes);
                self.nodes.push(Mail {
                    next: NIL,
                    from,
                    payload: Some(payload),
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.link_after(list, at);
    }

    /// Makes node `at` the new tail of `list`.
    fn link_after(&mut self, list: &mut List, at: u32) {
        match self.nodes.get_mut(list.tail as usize) {
            Some(tail) => tail.next = at,
            None => list.head = at,
        }
        list.tail = at;
    }

    /// Takes the oldest message off `list`.
    fn pop(&mut self, list: &mut List) -> Option<(NodeId, Bytes)> {
        let at = list.head;
        let node = self.nodes.get_mut(at as usize)?;
        list.head = node.next;
        if list.head == NIL {
            list.tail = NIL;
        }
        node.next = self.free.unwrap_or(NIL);
        self.free = Some(at);
        Some((node.from, node.payload.take()?))
    }

    /// Drops every message on `list`.
    fn clear(&mut self, list: &mut List) {
        while self.pop(list).is_some() {}
    }

    /// Moves every message of `src` to the end of `dst`.
    fn splice(&mut self, dst: &mut List, src: &mut List) {
        if src.is_empty() {
            return;
        }
        match self.nodes.get_mut(dst.tail as usize) {
            Some(tail) => tail.next = src.head,
            None => dst.head = src.head,
        }
        dst.tail = src.tail;
        *src = List::EMPTY;
    }

    /// The messages of `list`, oldest first.
    fn iter(&self, list: List) -> impl Iterator<Item = &Mail> + '_ {
        let mut at = list.head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(at as usize)?;
            at = node.next;
            Some(node)
        })
    }
}

/// Whether a row's node is on the bus.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Presence {
    /// Registered.
    Live,
    /// Unregistered; the row stays while its links carry traffic.
    Departed,
    /// An empty slot, waiting for the next registration.
    Free,
}

/// A node's row: its inbox, what a paused phase staged for it, and its
/// outgoing links.
struct Row {
    id: NodeId,
    presence: Presence,
    /// Delivered messages the endpoint has not received yet.
    inbox: List,
    /// Messages staged for this node in a paused phase, in send order.
    staged: List,
    /// Outgoing links, sorted by destination.
    links: Vec<Link>,
}

impl Row {
    fn live(&self, id: NodeId) -> bool {
        self.id == id && self.presence == Presence::Live
    }
}

#[derive(Default)]
struct BusInner {
    next_id: u32,
    now_tick: u64,
    rows: Vec<Row>,
    /// Free slots of `rows`.
    free_rows: Vec<u32>,
    /// `(id, slot)` of every row in use, sorted by id (ids are handed out
    /// in ascending order, so registering appends).
    index: Vec<(NodeId, u32)>,
    mail: Arena,
    /// The loss and jitter every link samples.
    faults: Faults,
    /// Seed mixed into every link's fault generator.
    fault_seed: u64,
    /// Nodes cut off from everyone (a network-isolated machine).
    isolated: BTreeSet<NodeId>,
    /// While `true`, `send` stages traffic; [`Bus::resume_delivery`]
    /// delivers it.
    deferred: bool,
    /// Rows with a non-empty staged list, each once.
    staged_rows: Vec<u32>,
    /// What jitter holds back, per link `(from, to)`, oldest first; a
    /// link is here only while it holds something.
    held: BTreeMap<(NodeId, NodeId), VecDeque<Held>>,
    /// Departed nodes whose rows or links could not be forgotten yet.
    departed: Vec<NodeId>,
    /// Scratch of the flush's sort: `(sender, position, arena node)`.
    order: Vec<(NodeId, u32, u32)>,
    /// Counters of the links forgotten so far, so the bus-wide totals
    /// never go backwards.
    retired: LinkTraffic,
}

/// A message jitter holds back until `due_tick`.
struct Held {
    due_tick: u64,
    payload: Bytes,
}

/// Makes room for one more element of `v`, growing it by an eighth at a
/// time: the bus's tables stay as large as their busiest moment, and
/// doubling would leave up to half of that unused.
fn grow<T>(v: &mut Vec<T>) {
    if v.len() == v.capacity() {
        v.reserve_exact(v.len() / 8 + 1);
    }
}

/// Derives a per-link fault seed from the bus seed and the link's ends.
fn link_seed(fault_seed: u64, from: NodeId, to: NodeId) -> u64 {
    roia_rng::mix(fault_seed ^ ((from.0 as u64) << 32) ^ (to.0 as u64) ^ 0x5851_F42D_4C95_7F2D)
}

impl BusInner {
    /// Slot of `id`, registered or departed.
    fn slot(&self, id: NodeId) -> Option<u32> {
        let at = self.index.binary_search_by_key(&id, |&(id, _)| id).ok()?;
        self.index.get(at).map(|&(_, slot)| slot)
    }

    /// Slot of `id` while it is registered.
    fn live_slot(&self, id: NodeId) -> Option<u32> {
        self.slot(id).filter(|&s| self.is_live(s, id))
    }

    fn is_live(&self, slot: u32, id: NodeId) -> bool {
        self.rows.get(slot as usize).is_some_and(|r| r.live(id))
    }

    /// Whether traffic `from → to` is currently blackholed.
    fn blocked(&self, from: NodeId, to: NodeId) -> bool {
        self.isolated.contains(&from) || self.isolated.contains(&to)
    }

    /// Sends from the node in `slot`, which must be `from` and registered.
    fn transmit(
        &mut self,
        slot: u32,
        from: NodeId,
        to: NodeId,
        payload: Bytes,
    ) -> Result<(), NetError> {
        if !self.is_live(slot, from) {
            return Err(NetError::UnknownSender(from));
        }
        let found = self
            .rows
            .get(slot as usize)
            .map(|row| row.links.binary_search_by_key(&to, |l| l.to))
            .ok_or(NetError::UnknownSender(from))?;
        let k = match found {
            Ok(k) => k,
            Err(k) => {
                let dest = self.live_slot(to).ok_or(NetError::UnknownNode(to))?;
                let link = Link::new(to, dest, link_seed(self.fault_seed, from, to));
                let row = self
                    .rows
                    .get_mut(slot as usize)
                    .ok_or(NetError::UnknownSender(from))?;
                grow(&mut row.links);
                row.links.insert(k, link);
                k
            }
        };
        let dest = self
            .rows
            .get(slot as usize)
            .and_then(|row| row.links.get(k))
            .map_or(NIL, |link| link.dest);
        if !self.is_live(dest, to) {
            return Err(NetError::UnknownNode(to));
        }
        let blocked = self.blocked(from, to);
        let (now, faults, deferred) = (self.now_tick, self.faults, self.deferred);
        let row = self
            .rows
            .get_mut(slot as usize)
            .ok_or(NetError::UnknownSender(from))?;
        let link = row.links.get_mut(k).ok_or(NetError::UnknownNode(to))?;
        if blocked {
            link.drop_at_send(payload.len() as u64);
            return Ok(());
        }
        let held_ahead = self.held.contains_key(&(from, to));
        let payload = match link.admit(now, payload, faults, held_ahead) {
            Admitted::Now(payload) => payload,
            Admitted::Held { due_tick, payload } => {
                let queue = self.held.entry((from, to)).or_default();
                queue.push_back(Held { due_tick, payload });
                return Ok(());
            }
            Admitted::Lost => return Ok(()),
        };
        if deferred {
            self.stage(dest, from, payload);
        } else if let Some(row) = self.rows.get_mut(dest as usize) {
            self.mail.push(&mut row.inbox, from, payload);
        }
        Ok(())
    }

    /// Appends a message to the staged list of the row in `dest`.
    fn stage(&mut self, dest: u32, from: NodeId, payload: Bytes) {
        let Some(row) = self.rows.get_mut(dest as usize) else {
            return;
        };
        if row.staged.is_empty() {
            self.staged_rows.push(dest);
        }
        self.mail.push(&mut row.staged, from, payload);
    }

    /// Delivers everything staged and everything jitter held that is due:
    /// each destination receives its messages by ascending sender, each
    /// sender's in program order — what flushing every link in `(from, to)`
    /// order delivers. Then forgets what departed nodes left behind.
    fn deliver_pending(&mut self) {
        let mut held = std::mem::take(&mut self.held);
        held.retain(|&(from, to), queue| self.release_due(from, to, queue));
        self.held = held;

        let mut staged = std::mem::take(&mut self.staged_rows);
        for slot in staged.drain(..) {
            self.deliver_staged(slot);
        }
        self.staged_rows = staged;

        let mut departed = std::mem::take(&mut self.departed);
        departed.retain(|&id| !self.reap(id));
        self.departed = departed;
    }

    /// Stages what link `from → to` holds in `queue` that is due now, after
    /// what the link's sender staged in this phase; returns whether the
    /// link still holds traffic.
    fn release_due(&mut self, from: NodeId, to: NodeId, queue: &mut VecDeque<Held>) -> bool {
        let now = self.now_tick;
        let found = self.slot(from).and_then(|slot| {
            let row = self.rows.get(slot as usize)?;
            let k = row.links.binary_search_by_key(&to, |l| l.to).ok()?;
            Some((slot as usize, k, row.links.get(k)?.dest))
        });
        let Some((slot, k, dest)) = found else {
            return false;
        };
        let live = self.is_live(dest, to);
        while let Some(held) = queue.pop_front_if(|h| h.due_tick <= now) {
            if let Some(link) = self.rows.get_mut(slot).and_then(|r| r.links.get_mut(k)) {
                link.released(held.payload.len() as u64, live);
            }
            if live {
                self.stage(dest, from, held.payload);
            }
        }
        !queue.is_empty()
    }

    /// Orders the staged list of the row in `slot` by sender and moves it
    /// onto the row's inbox — or, if the row's node has left, counts every
    /// message on it as dropped on its link.
    fn deliver_staged(&mut self, slot: u32) {
        let Some(row) = self.rows.get_mut(slot as usize) else {
            return;
        };
        let mut staged = std::mem::replace(&mut row.staged, List::EMPTY);
        let (to, live) = (row.id, row.presence == Presence::Live);
        if !live {
            while let Some((from, payload)) = self.mail.pop(&mut staged) {
                self.count_lost(from, to, payload.len() as u64);
            }
            return;
        }
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        let mut at = staged.head;
        let mut position = 0u32;
        while let Some(node) = self.mail.nodes.get(at as usize) {
            order.push((node.from, position, at));
            position += 1;
            at = node.next;
        }
        order.sort_unstable();
        staged = List::EMPTY;
        for &(_, _, at) in &order {
            if let Some(node) = self.mail.nodes.get_mut(at as usize) {
                node.next = NIL;
            }
            self.mail.link_after(&mut staged, at);
        }
        self.order = order;
        if let Some(row) = self.rows.get_mut(slot as usize) {
            self.mail.splice(&mut row.inbox, &mut staged);
        }
    }

    /// Counts a staged message whose destination left before the flush as
    /// dropped on its link (a real socket close eats those bytes; they are
    /// lost traffic, not delivered). The link is still there: nothing is
    /// forgotten while a paused phase has staged traffic.
    fn count_lost(&mut self, from: NodeId, to: NodeId, bytes: u64) {
        let link = self.slot(from).and_then(|slot| {
            let row = self.rows.get_mut(slot as usize)?;
            let k = row.links.binary_search_by_key(&to, |l| l.to).ok()?;
            row.links.get_mut(k)
        });
        if let Some(link) = link {
            link.messages_dropped += 1;
            link.bytes_delivered = link.bytes_delivered.saturating_sub(bytes);
        }
    }

    /// Forgets what departed node `id` left behind: its links and the
    /// links to it that hold nothing, and its row once it has no links
    /// (node ids are never reused, so those links can never carry traffic
    /// again). Returns whether nothing of it is left.
    fn reap(&mut self, id: NodeId) -> bool {
        let mut left = false;
        let Self {
            rows,
            retired,
            index,
            free_rows,
            held,
            ..
        } = self;
        for (slot, row) in rows.iter_mut().enumerate() {
            if row.presence == Presence::Free {
                continue;
            }
            if row.id == id {
                row.links.retain(|link| {
                    let busy = held.contains_key(&(id, link.to));
                    if !busy {
                        retired.absorb(link);
                    }
                    busy
                });
            } else if let Ok(k) = row.links.binary_search_by_key(&id, |l| l.to) {
                if !held.contains_key(&(row.id, id)) {
                    let link = row.links.remove(k);
                    retired.absorb(&link);
                }
            }
            // A departed row goes with its last link; it has no mail left
            // (its staged list was delivered or counted by the flush).
            if row.presence == Presence::Departed && row.links.is_empty() && row.staged.is_empty() {
                row.presence = Presence::Free;
                if let Ok(at) = index.binary_search_by_key(&row.id, |&(id, _)| id) {
                    index.remove(at);
                }
                free_rows.push(slot as u32);
            }
            left |= (row.id == id && row.presence != Presence::Free)
                || row.links.binary_search_by_key(&id, |l| l.to).is_ok();
        }
        !left
    }
}

/// The shared message bus. Cheap to clone; all clones refer to the same
/// network.
#[derive(Clone, Default)]
pub struct Bus {
    inner: Arc<Mutex<BusInner>>,
    /// The pool of frames whose stock the writers of this bus's nodes
    /// share.
    frames: Arc<Mutex<FramePool>>,
}

impl Bus {
    /// Creates an empty, fault-free bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle on the stock of frames this bus's writers share: a writer
    /// that takes its frames from it reuses the storage of frames any
    /// node's receivers have dropped (see [`FramePool`]).
    pub fn frames(&self) -> FramePool {
        let mut frames = self.frames.lock().unwrap_or_else(PoisonError::into_inner);
        frames.share()
    }

    fn lock(&self) -> MutexGuard<'_, BusInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a new endpoint. The label is the caller's name for it;
    /// the bus identifies endpoints by the [`NodeId`] it hands out and
    /// keeps no names.
    pub fn register(&self, _label: &str) -> Endpoint {
        let mut inner = self.lock();
        let id = NodeId(inner.next_id);
        inner.next_id += 1;
        let slot = match inner.free_rows.pop() {
            Some(slot) => slot,
            None => {
                grow(&mut inner.rows);
                inner.rows.push(Row {
                    id,
                    presence: Presence::Free,
                    inbox: List::EMPTY,
                    staged: List::EMPTY,
                    links: Vec::new(),
                });
                (inner.rows.len() - 1) as u32
            }
        };
        if let Some(row) = inner.rows.get_mut(slot as usize) {
            // A reused row keeps its (empty) link table's capacity.
            row.id = id;
            row.presence = Presence::Live;
        }
        grow(&mut inner.index);
        inner.index.push((id, slot));
        Endpoint {
            id,
            slot,
            bus: self.clone(),
        }
    }

    /// Removes an endpoint; in-flight messages to it are dropped on
    /// arrival (and counted as dropped). Its idle links are forgotten at
    /// once, the others as soon as they have drained. Dropping the
    /// [`Endpoint`] does this too.
    pub fn unregister(&self, id: NodeId) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let Some(slot) = inner.live_slot(id) else {
            return;
        };
        if let Some(row) = inner.rows.get_mut(slot as usize) {
            row.presence = Presence::Departed;
            inner.mail.clear(&mut row.inbox);
        }
        // While a paused phase has staged traffic, links may carry
        // messages only the flush sorts out: forget nothing until then.
        if !inner.staged_rows.is_empty() || !inner.reap(id) {
            inner.departed.push(id);
        }
    }

    /// Sets the seed from which per-link fault generators derive. Existing
    /// links are re-seeded; call before injecting faults for reproducible
    /// loss/jitter patterns.
    pub fn set_fault_seed(&self, seed: u64) {
        let mut inner = self.lock();
        inner.fault_seed = seed;
        for row in &mut inner.rows {
            for link in &mut row.links {
                link.reseed(link_seed(seed, row.id, link.to));
            }
        }
    }

    /// Sets the drop probability and jitter window every link samples,
    /// now and for links created later; `(0.0, 0)` heals the bus.
    ///
    /// # Panics
    ///
    /// If `drop_probability` is outside `[0, 1]` (NaN included).
    pub fn set_link_faults(&self, drop_probability: f64, jitter_ticks: u32) {
        assert!(
            (0.0..=1.0).contains(&drop_probability),
            "drop probability must be in [0, 1]"
        );
        self.lock().faults = Faults {
            drop_probability,
            jitter_ticks,
        };
    }

    /// Cuts a node off from (or reconnects it to) everyone. Traffic to or
    /// from an isolated node is blackholed: `send` succeeds (the sender
    /// cannot tell) but nothing arrives, and the link counts it as dropped.
    pub fn set_isolated(&self, node: NodeId, active: bool) {
        let mut inner = self.lock();
        if active {
            inner.isolated.insert(node);
        } else {
            inner.isolated.remove(&node);
        }
    }

    /// Sends `payload` from `from` to `to` (creating the link on first
    /// use).
    pub fn send(&self, from: NodeId, to: NodeId, payload: Bytes) -> Result<(), NetError> {
        let mut inner = self.lock();
        let slot = inner.slot(from).ok_or(NetError::UnknownSender(from))?;
        inner.transmit(slot, from, to, payload)
    }

    /// Stages subsequent sends without delivering anything. Per-link send
    /// order is preserved; cross-link delivery order is decided by
    /// [`Bus::resume_delivery`], not by call interleaving — the contract a
    /// concurrent lock-step driver relies on.
    pub fn pause_delivery(&self) {
        self.lock().deferred = true;
    }

    /// Ends a [`Bus::pause_delivery`] window and delivers everything it
    /// staged, as if every link were flushed in ascending `(from, to)`
    /// order.
    pub fn resume_delivery(&self) {
        let mut inner = self.lock();
        inner.deferred = false;
        inner.deliver_pending();
    }

    /// Advances simulated time to `now_tick` and delivers everything due on
    /// every link. Only jitter holds a message past the tick it was sent
    /// in, so only a bus with jitter needs it.
    pub fn advance(&self, now_tick: u64) {
        let mut inner = self.lock();
        inner.now_tick = now_tick;
        inner.deliver_pending();
    }

    /// A snapshot of the per-link traffic counters.
    pub fn stats(&self) -> TrafficStats {
        let inner = self.lock();
        let mut per_link = BTreeMap::new();
        for row in inner.rows.iter().filter(|r| r.presence != Presence::Free) {
            for link in &row.links {
                per_link.insert(
                    (row.id, link.to),
                    LinkTraffic {
                        bytes_sent: link.bytes_sent,
                        bytes_delivered: link.bytes_delivered,
                        messages_sent: link.messages_sent,
                        messages_dropped: link.messages_dropped,
                        in_flight: inner
                            .held
                            .get(&(row.id, link.to))
                            .map_or(0, |q| q.len() as u64),
                    },
                );
            }
        }
        // A staged message is in flight until the flush delivers it.
        for &slot in &inner.staged_rows {
            let Some(row) = inner.rows.get(slot as usize) else {
                continue;
            };
            for mail in inner.mail.iter(row.staged) {
                if let Some(link) = per_link.get_mut(&(mail.from, row.id)) {
                    let bytes = mail.payload.as_ref().map_or(0, |p| p.len() as u64);
                    link.in_flight += 1;
                    link.bytes_delivered = link.bytes_delivered.saturating_sub(bytes);
                }
            }
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
    /// Messages lost to the drop probability, isolation or a destination
    /// that unregistered while they were in flight.
    pub messages_dropped: u64,
    /// Messages currently in flight.
    pub in_flight: u64,
}

impl LinkTraffic {
    /// Adds the counters of a link being forgotten (which has nothing in
    /// flight).
    fn absorb(&mut self, link: &Link) {
        self.bytes_sent += link.bytes_sent;
        self.bytes_delivered += link.bytes_delivered;
        self.messages_sent += link.messages_sent;
        self.messages_dropped += link.messages_dropped;
    }
}

/// Aggregated traffic statistics for the whole bus. The per-link view
/// covers the links that still exist; the bus-wide totals
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

    /// Total messages sent across all links.
    pub fn total_messages(&self) -> u64 {
        self.retired.messages_sent + self.per_link.values().map(|l| l.messages_sent).sum::<u64>()
    }

    /// Total messages lost across all links (faults, isolation).
    pub fn total_dropped(&self) -> u64 {
        self.retired.messages_dropped
            + self
                .per_link
                .values()
                .map(|l| l.messages_dropped)
                .sum::<u64>()
    }
}

/// One node's handle on the bus: its identity and where its row is.
pub struct Endpoint {
    id: NodeId,
    slot: u32,
    bus: Bus,
}

impl Endpoint {
    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sends from this endpoint.
    pub fn send(&self, to: NodeId, payload: Bytes) -> Result<(), NetError> {
        self.bus.lock().transmit(self.slot, self.id, to, payload)
    }

    /// Takes the oldest delivered message, if any — a receiver that
    /// handles its messages one at a time keeps no buffer of its own.
    pub fn recv(&self) -> Option<Message> {
        let mut guard = self.bus.lock();
        let inner = &mut *guard;
        let row = inner
            .rows
            .get_mut(self.slot as usize)
            .filter(|r| r.live(self.id))?;
        let (from, payload) = inner.mail.pop(&mut row.inbox)?;
        Some(Message {
            from,
            to: self.id,
            payload,
        })
    }

    /// Drains the inbox into a caller-owned buffer (not cleared first), so
    /// per-tick callers can reuse one allocation instead of building a
    /// fresh `Vec` every tick.
    pub fn drain_into(&self, out: &mut Vec<Message>) {
        let mut guard = self.bus.lock();
        let inner = &mut *guard;
        let Some(row) = inner
            .rows
            .get_mut(self.slot as usize)
            .filter(|r| r.live(self.id))
        else {
            return;
        };
        while let Some((from, payload)) = inner.mail.pop(&mut row.inbox) {
            out.push(Message {
                from,
                to: self.id,
                payload,
            });
        }
    }
}

impl Drop for Endpoint {
    /// A dropped endpoint can never receive again: leave the bus, so the
    /// node row, its inbox and its links do not outlive it.
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

    impl Bus {
        fn node_count(&self) -> usize {
            let inner = self.lock();
            inner
                .rows
                .iter()
                .filter(|r| r.presence == Presence::Live)
                .count()
        }

        fn link_count(&self) -> usize {
            self.lock().rows.iter().map(|r| r.links.len()).sum()
        }
    }

    impl Endpoint {
        fn try_recv(&self) -> Option<Message> {
            self.recv()
        }

        fn drain(&self) -> Vec<Message> {
            let mut out = Vec::new();
            self.drain_into(&mut out);
            out
        }
    }

    #[test]
    fn register_assigns_unique_ids() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        assert_ne!(a.id(), b.id());
        assert_eq!(bus.node_count(), 2);
    }

    #[test]
    fn send_is_synchronous() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        a.send(b.id(), Bytes::copy_from_slice(b"hi")).unwrap();
        assert_eq!(b.try_recv().unwrap().payload, Bytes::copy_from_slice(b"hi"));
    }

    #[test]
    fn jitter_requires_advance() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        bus.set_link_faults(0.0, 4);
        for i in 0u8..20 {
            a.send(b.id(), Bytes::from(vec![i])).unwrap();
        }
        let mut got = b.drain();
        assert!(got.len() < 20, "some messages wait for their tick");
        for tick in 1..=4 {
            bus.advance(tick);
            got.extend(b.drain());
        }
        let order: Vec<u8> = got.iter().map(|m| m.payload[0]).collect();
        assert_eq!(order, (0u8..20).collect::<Vec<_>>());
    }
    #[test]
    fn unknown_destination_errors() {
        let bus = Bus::new();
        let a = bus.register("a");
        let err = a.send(NodeId(999), Bytes::from(Vec::new())).unwrap_err();
        assert_eq!(err, NetError::UnknownNode(NodeId(999)));
    }

    #[test]
    fn unknown_sender_errors() {
        let bus = Bus::new();
        let a = bus.register("a");
        let err = bus
            .send(NodeId(999), a.id(), Bytes::from(Vec::new()))
            .unwrap_err();
        assert_eq!(err, NetError::UnknownSender(NodeId(999)));
    }

    #[test]
    fn unregister_stops_delivery() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        bus.unregister(b.id());
        let err = a.send(b.id(), Bytes::from(Vec::new())).unwrap_err();
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
        assert_eq!(stats.link(a.id(), b.id()).bytes_delivered, 150);
        assert_eq!(stats.link(b.id(), a.id()).bytes_sent, 7);
        assert_eq!(stats.total_messages(), 3);
    }

    #[test]
    fn isolated_node_reaches_no_one() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        let c = bus.register("c");
        bus.set_isolated(b.id(), true);
        a.send(b.id(), Bytes::copy_from_slice(b"in")).unwrap();
        b.send(c.id(), Bytes::copy_from_slice(b"out")).unwrap();
        a.send(c.id(), Bytes::copy_from_slice(b"ok")).unwrap();
        assert!(b.try_recv().is_none());
        assert_eq!(c.drain().len(), 1, "unrelated traffic still flows");
        assert_eq!(bus.stats().total_dropped(), 2, "both directions blackholed");
        bus.set_isolated(b.id(), false);
        a.send(b.id(), Bytes::copy_from_slice(b"back")).unwrap();
        assert!(b.try_recv().is_some());
    }

    #[test]
    fn link_faults_apply_to_existing_links() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        // Carve out the link fault-free first.
        a.send(b.id(), Bytes::copy_from_slice(b"pre")).unwrap();
        assert!(b.try_recv().is_some());
        bus.set_fault_seed(0xBEEF);
        bus.set_link_faults(1.0, 0);
        for _ in 0..10 {
            a.send(b.id(), Bytes::copy_from_slice(b"lost")).unwrap();
        }
        assert!(b.try_recv().is_none(), "p=1 loses everything");
        assert_eq!(bus.stats().link(a.id(), b.id()).messages_dropped, 10);
        bus.set_link_faults(0.0, 0);
        a.send(b.id(), Bytes::copy_from_slice(b"post")).unwrap();
        assert!(b.try_recv().is_some());
    }

    #[test]
    fn link_faults_refuse_a_probability_outside_zero_to_one() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        bus.set_link_faults(1.0, 0);
        for bad in [1.5, f64::NAN] {
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                bus.set_link_faults(bad, 0)
            }));
            assert!(refused.is_err(), "drop probability {bad} accepted");
        }
        a.send(b.id(), Bytes::copy_from_slice(b"lost")).unwrap();
        assert!(b.try_recv().is_none(), "a refused call leaves p = 1");
        bus.set_link_faults(0.0, 0);
        a.send(b.id(), Bytes::copy_from_slice(b"healed")).unwrap();
        assert_eq!(&b.try_recv().expect("p = 0 heals").payload[..], b"healed");
    }

    #[test]
    fn paused_delivery_holds_traffic_until_resume() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        bus.pause_delivery();
        a.send(b.id(), Bytes::copy_from_slice(b"held")).unwrap();
        assert!(b.try_recv().is_none(), "paused traffic must not arrive");
        bus.resume_delivery();
        assert_eq!(&b.try_recv().unwrap().payload[..], b"held");
        // After resume the bus is synchronous again.
        a.send(b.id(), Bytes::copy_from_slice(b"sync")).unwrap();
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
        hi.send(dst.id(), Bytes::copy_from_slice(b"hi")).unwrap();
        lo.send(dst.id(), Bytes::copy_from_slice(b"lo")).unwrap();
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
        a.send(b.id(), Bytes::copy_from_slice(b"one")).unwrap();
        b.drain_into(&mut buf);
        assert_eq!(buf.len(), 1);
        buf.clear();
        let cap = buf.capacity();
        a.send(b.id(), Bytes::copy_from_slice(b"two")).unwrap();
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
            a.send(b_id, Bytes::copy_from_slice(b"unread")).unwrap();
        }
        b.send(a.id(), Bytes::copy_from_slice(b"read")).unwrap();
        assert_eq!(a.drain().len(), 1);
        drop(b);
        assert_eq!(bus.node_count(), nodes);
        assert_eq!(bus.link_count(), links);
        assert_eq!(
            a.send(b_id, Bytes::copy_from_slice(b"late")),
            Err(NetError::UnknownNode(b_id))
        );
        assert_eq!(bus.stats().total_messages(), 4, "totals survive the links");
    }

    #[test]
    fn unregister_midflight_counts_as_dropped() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        bus.pause_delivery();
        a.send(b.id(), Bytes::from(vec![0u8; 16])).unwrap();
        bus.unregister(b.id());
        assert_eq!(bus.link_count(), 1, "a link with traffic in flight stays");
        let link = bus.stats().link(a.id(), b.id());
        assert_eq!((link.in_flight, link.bytes_sent), (1, 16));
        bus.resume_delivery();
        assert_eq!(bus.stats().total_dropped(), 1, "in-flight loss is counted");
        assert_eq!(bus.stats().total_messages(), 1);
        assert_eq!(bus.link_count(), 0, "drained, and `b` is gone for good");
        assert_eq!(bus.stats().link(a.id(), b.id()), LinkTraffic::default());
    }

    #[test]
    fn departed_sender_still_delivers_what_it_had_in_flight() {
        let bus = Bus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        bus.pause_delivery();
        a.send(b.id(), Bytes::copy_from_slice(b"last words"))
            .unwrap();
        let a_id = a.id();
        drop(a);
        assert_eq!(bus.node_count(), 1);
        assert_eq!(bus.link_count(), 1, "the busy link outlives its sender");
        assert_eq!(
            bus.send(a_id, b.id(), Bytes::from(Vec::new())),
            Err(NetError::UnknownSender(a_id))
        );
        bus.resume_delivery();
        assert_eq!(&b.try_recv().unwrap().payload[..], b"last words");
        assert_eq!(bus.link_count(), 0, "drained, and its sender is gone");
        assert_eq!(bus.stats().total_dropped(), 0);
        assert_eq!(bus.stats().total_messages(), 1);
    }

    #[test]
    fn departed_endpoints_leave_no_links_behind() {
        // Ten thousand clients come, exchange a message with the server
        // and go — alternately by `unregister` and by dropping the
        // endpoint. The bus must keep state for live endpoints only,
        // while its totals stay what they would be had it kept every link.
        let bus = Bus::new();
        let server = bus.register("server");
        let mut messages = 0u64;
        for i in 0..10_000u32 {
            let client = bus.register("client");
            let hello = Bytes::from(vec![0u8; 1 + (i % 7) as usize]);
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
        assert_eq!(stats.total_dropped(), 0);
        // A send to a departed endpoint fails instead of opening a link.
        assert!(server
            .send(NodeId(5), Bytes::copy_from_slice(b"late"))
            .is_err());
        assert_eq!(bus.link_count(), 0);
    }
}
