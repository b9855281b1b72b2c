//! The deterministic in-process backend over [`rtf_net::Bus`].
//!
//! Semantics of the bus are untouched: reliable, in-order delivery,
//! lock-step `advance` for latency links, byte-identical behaviour for
//! identical seeds. This backend is what the determinism suite and the
//! session unit tests run on; the TCP backend ([`crate::tcp`]) is the
//! drop-in real-I/O replacement.
//!
//! Frame accounting mirrors TCP: every frame is charged its payload plus
//! [`FRAME_OVERHEAD`] bytes, so Eq. (1)-style traffic predictions hold for
//! either backend. The bus has no bounded outbound queue (its links model
//! latency/bandwidth themselves), so this backend never raises
//! [`TransportError::Backpressure`].

use crate::{CloseReason, ConnStats, PeerId, Transport, TransportError, TransportEvent};
use crate::{FRAME_OVERHEAD, SERVER_PEER};
use rtf_net::Bytes;
use rtf_net::{Bus, Endpoint, NodeId};
use std::collections::BTreeMap;

/// Server-side bus transport: accepts any node that sends to it as a
/// new peer (the session's `Hello` is always the first frame).
pub struct BusServerTransport {
    endpoint: Endpoint,
    next_peer: PeerId,
    by_node: BTreeMap<NodeId, PeerId>,
    nodes: BTreeMap<PeerId, NodeId>,
    stats: BTreeMap<PeerId, ConnStats>,
    pending: Vec<TransportEvent>,
}

impl BusServerTransport {
    /// Registers the server on `bus` under `label`.
    pub fn register(bus: &Bus, label: &str) -> Self {
        Self {
            endpoint: bus.register(label),
            next_peer: SERVER_PEER + 1,
            by_node: BTreeMap::new(),
            nodes: BTreeMap::new(),
            stats: BTreeMap::new(),
            pending: Vec::new(),
        }
    }

    /// The server's bus node id (what clients connect to).
    pub fn node_id(&self) -> NodeId {
        self.endpoint.id()
    }

    fn peer_for(&mut self, node: NodeId, events: &mut Vec<TransportEvent>) -> PeerId {
        if let Some(peer) = self.by_node.get(&node) {
            return *peer;
        }
        let peer = self.next_peer;
        self.next_peer += 1;
        self.by_node.insert(node, peer);
        self.nodes.insert(peer, node);
        self.stats.insert(peer, ConnStats::default());
        events.push(TransportEvent::Opened { peer });
        peer
    }
}

impl Transport for BusServerTransport {
    fn kind(&self) -> &'static str {
        "bus"
    }

    fn poll(&mut self, events: &mut Vec<TransportEvent>) {
        events.append(&mut self.pending);
        while let Some(msg) = self.endpoint.recv() {
            let peer = self.peer_for(msg.from, events);
            if let Some(stats) = self.stats.get_mut(&peer) {
                stats.bytes_in += msg.payload.len() as u64 + FRAME_OVERHEAD;
                stats.frames_in += 1;
            }
            events.push(TransportEvent::Frame {
                peer,
                payload: msg.payload,
            });
        }
    }

    fn send(&mut self, peer: PeerId, frame: Bytes) -> Result<(), TransportError> {
        let Some(node) = self.nodes.get(&peer).copied() else {
            return Err(TransportError::UnknownPeer(peer));
        };
        let len = frame.len() as u64 + FRAME_OVERHEAD;
        match self.endpoint.send(node, frame) {
            Ok(()) => {
                if let Some(stats) = self.stats.get_mut(&peer) {
                    stats.bytes_out += len;
                    stats.frames_out += 1;
                }
                Ok(())
            }
            Err(_) => {
                // The endpoint vanished from the bus: surface the close on
                // the next poll, exactly like a TCP reset would.
                self.close(peer, CloseReason::Eof);
                Err(TransportError::UnknownPeer(peer))
            }
        }
    }

    fn close(&mut self, peer: PeerId, reason: CloseReason) {
        if let Some(node) = self.nodes.remove(&peer) {
            self.by_node.remove(&node);
            self.pending.push(TransportEvent::Closed { peer, reason });
        }
    }

    fn peers(&self) -> Vec<PeerId> {
        self.nodes.keys().copied().collect()
    }

    fn stats(&self, peer: PeerId) -> Option<ConnStats> {
        self.stats.get(&peer).copied()
    }

    fn total_stats(&self) -> ConnStats {
        let mut total = ConnStats::default();
        for s in self.stats.values() {
            total.merge(s);
        }
        total
    }

    fn reset_stats(&mut self) {
        for s in self.stats.values_mut() {
            *s = ConnStats::default();
        }
    }
}

/// Client-side bus transport: talks to a single server node as peer
/// [`SERVER_PEER`].
pub struct BusClientTransport {
    endpoint: Endpoint,
    server: NodeId,
    opened: bool,
    closed: bool,
    stats: ConnStats,
    pending: Vec<TransportEvent>,
}

impl BusClientTransport {
    /// Registers a client endpoint on `bus` and aims it at `server`.
    pub fn connect(bus: &Bus, label: &str, server: NodeId) -> Self {
        Self {
            endpoint: bus.register(label),
            server,
            opened: false,
            closed: false,
            stats: ConnStats::default(),
            pending: Vec::new(),
        }
    }
}

impl Transport for BusClientTransport {
    fn kind(&self) -> &'static str {
        "bus"
    }

    fn poll(&mut self, events: &mut Vec<TransportEvent>) {
        events.append(&mut self.pending);
        if self.closed {
            return;
        }
        if !self.opened {
            self.opened = true;
            events.push(TransportEvent::Opened { peer: SERVER_PEER });
        }
        while let Some(msg) = self.endpoint.recv() {
            if msg.from != self.server {
                continue;
            }
            self.stats.bytes_in += msg.payload.len() as u64 + FRAME_OVERHEAD;
            self.stats.frames_in += 1;
            events.push(TransportEvent::Frame {
                peer: SERVER_PEER,
                payload: msg.payload,
            });
        }
    }

    fn send(&mut self, peer: PeerId, frame: Bytes) -> Result<(), TransportError> {
        if peer != SERVER_PEER || self.closed {
            return Err(TransportError::UnknownPeer(peer));
        }
        let len = frame.len() as u64 + FRAME_OVERHEAD;
        match self.endpoint.send(self.server, frame) {
            Ok(()) => {
                self.stats.bytes_out += len;
                self.stats.frames_out += 1;
                Ok(())
            }
            Err(_) => {
                self.close(SERVER_PEER, CloseReason::Eof);
                Err(TransportError::UnknownPeer(peer))
            }
        }
    }

    fn close(&mut self, peer: PeerId, reason: CloseReason) {
        if peer == SERVER_PEER && !self.closed {
            self.closed = true;
            self.pending.push(TransportEvent::Closed { peer, reason });
        }
    }

    fn peers(&self) -> Vec<PeerId> {
        if self.closed {
            Vec::new()
        } else {
            vec![SERVER_PEER]
        }
    }

    fn stats(&self, peer: PeerId) -> Option<ConnStats> {
        (peer == SERVER_PEER).then_some(self.stats)
    }

    fn total_stats(&self) -> ConnStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = ConnStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BusClientTransport {
        /// The client's own bus node id.
        pub(crate) fn node_id(&self) -> NodeId {
            self.endpoint.id()
        }
    }

    fn drain(t: &mut dyn Transport) -> Vec<TransportEvent> {
        let mut events = Vec::new();
        t.poll(&mut events);
        events
    }

    #[test]
    fn frames_flow_both_ways_with_peer_assignment() {
        let bus = Bus::new();
        let mut server = BusServerTransport::register(&bus, "server");
        let mut c1 = BusClientTransport::connect(&bus, "c1", server.node_id());
        let mut c2 = BusClientTransport::connect(&bus, "c2", server.node_id());

        assert_eq!(
            drain(&mut c1),
            vec![TransportEvent::Opened { peer: SERVER_PEER }]
        );
        drain(&mut c2);
        c1.send(SERVER_PEER, Bytes::copy_from_slice(b"one"))
            .unwrap();
        c2.send(SERVER_PEER, Bytes::copy_from_slice(b"two"))
            .unwrap();

        let events = drain(&mut server);
        assert_eq!(
            events,
            vec![
                TransportEvent::Opened { peer: 1 },
                TransportEvent::Frame {
                    peer: 1,
                    payload: Bytes::copy_from_slice(b"one")
                },
                TransportEvent::Opened { peer: 2 },
                TransportEvent::Frame {
                    peer: 2,
                    payload: Bytes::copy_from_slice(b"two")
                },
            ]
        );
        assert_eq!(server.peers(), vec![1, 2]);

        server.send(2, Bytes::copy_from_slice(b"ack")).unwrap();
        let got = drain(&mut c2);
        assert!(got.contains(&TransportEvent::Frame {
            peer: SERVER_PEER,
            payload: Bytes::copy_from_slice(b"ack")
        }));
    }

    #[test]
    fn byte_accounting_includes_frame_overhead() {
        let bus = Bus::new();
        let mut server = BusServerTransport::register(&bus, "server");
        let mut client = BusClientTransport::connect(&bus, "c", server.node_id());
        drain(&mut client);
        client
            .send(SERVER_PEER, Bytes::copy_from_slice(b"12345"))
            .unwrap();
        drain(&mut server);
        let s = server.stats(1).unwrap();
        assert_eq!(s.bytes_in, 5 + FRAME_OVERHEAD);
        assert_eq!(s.frames_in, 1);
        assert_eq!(client.total_stats().bytes_out, 5 + FRAME_OVERHEAD);
        server.reset_stats();
        assert_eq!(server.total_stats(), ConnStats::default());
    }

    #[test]
    fn send_to_unknown_peer_is_typed_error() {
        let bus = Bus::new();
        let mut server = BusServerTransport::register(&bus, "server");
        assert_eq!(
            server.send(7, Bytes::copy_from_slice(b"x")),
            Err(TransportError::UnknownPeer(7))
        );
    }

    #[test]
    fn vanished_client_surfaces_close_on_send() {
        let bus = Bus::new();
        let mut server = BusServerTransport::register(&bus, "server");
        let mut client = BusClientTransport::connect(&bus, "c", server.node_id());
        drain(&mut client);
        client
            .send(SERVER_PEER, Bytes::copy_from_slice(b"hi"))
            .unwrap();
        drain(&mut server);
        bus.unregister(client.node_id());

        assert_eq!(
            server.send(1, Bytes::copy_from_slice(b"reply")),
            Err(TransportError::UnknownPeer(1))
        );
        assert_eq!(
            drain(&mut server),
            vec![TransportEvent::Closed {
                peer: 1,
                reason: CloseReason::Eof
            }]
        );
        assert!(server.peers().is_empty());
    }

    #[test]
    fn close_is_idempotent_and_stops_traffic() {
        let bus = Bus::new();
        let mut server = BusServerTransport::register(&bus, "server");
        let mut client = BusClientTransport::connect(&bus, "c", server.node_id());
        drain(&mut client);
        client
            .send(SERVER_PEER, Bytes::copy_from_slice(b"hi"))
            .unwrap();
        drain(&mut server);
        server.close(1, CloseReason::Shutdown);
        server.close(1, CloseReason::Shutdown);
        assert_eq!(
            drain(&mut server),
            vec![TransportEvent::Closed {
                peer: 1,
                reason: CloseReason::Shutdown
            }]
        );
        assert_eq!(
            server.send(1, Bytes::copy_from_slice(b"x")),
            Err(TransportError::UnknownPeer(1))
        );
    }
}
