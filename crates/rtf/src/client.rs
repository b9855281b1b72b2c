//! The user-side connection: sends inputs, receives state updates, follows
//! migration redirects.
//!
//! In the paper's deployments a client is the player's machine running the
//! application client. Here a [`Client`] is the framework half of that: it
//! owns the network endpoint, the connection state machine and
//! quality-of-experience counters (updates received per second — the metric
//! §V ties to the 25 updates/s requirement). What inputs to send is decided
//! by an [`InputSource`] (e.g. the bots of `rtfdemo`).

use crate::entity::UserId;
use crate::event::{Packet, PacketRef};
use crate::wire::{Wire, WireReader, WireWriter};
use rtf_net::Bytes;
use rtf_net::{Bus, Endpoint, NetError, NodeId};

/// Generates the inputs a user issues and observes the updates they get.
pub trait InputSource {
    /// The input to send this tick, if any.
    fn next_input(&mut self, tick: u64) -> Option<Bytes>;

    /// Called for every state update received.
    fn on_state_update(&mut self, _server_tick: u64, _payload: &[u8]) {}
}

/// An input source that never sends anything (an idle spectator).
#[derive(Debug, Default, Clone, Copy)]
pub struct Idle;

impl InputSource for Idle {
    fn next_input(&mut self, _tick: u64) -> Option<Bytes> {
        None
    }
}

/// Connection state of a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientState {
    /// Connect sent, no acknowledgement yet.
    Connecting,
    /// Connected and exchanging traffic.
    Connected,
    /// Disconnect sent.
    Disconnected,
}

/// Quality-of-experience counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Inputs sent.
    pub inputs_sent: u64,
    /// State updates received.
    pub updates_received: u64,
    /// Times the client was redirected to another server.
    pub redirects: u64,
    /// Payload bytes received.
    pub bytes_in: u64,
}

/// A connected user.
pub struct Client {
    user: UserId,
    endpoint: Endpoint,
    server: NodeId,
    state: ClientState,
    seq: u32,
    stats: ClientStats,
    /// Reused per tick: the input frame being encoded.
    writer: WireWriter,
}

impl Client {
    /// Registers the client on the bus and sends `Connect` to `server`.
    pub fn connect(bus: &Bus, user: UserId, server: NodeId) -> Result<Self, NetError> {
        let endpoint = bus.register(&format!("client-{}", user.0));
        let pkt = Packet::Connect {
            user,
            client: endpoint.id(),
        };
        endpoint.send(server, pkt.to_bytes())?;
        Ok(Self {
            user,
            endpoint,
            server,
            state: ClientState::Connecting,
            seq: 0,
            stats: ClientStats::default(),
            writer: WireWriter::new(),
        })
    }

    /// The user this client represents.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// The server currently responsible for this user.
    pub fn server(&self) -> NodeId {
        self.server
    }

    /// Connection state.
    pub fn state(&self) -> ClientState {
        self.state
    }

    /// Counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Processes incoming traffic and sends this tick's input (if the
    /// source produces one). Returns the number of state updates received.
    pub fn tick(&mut self, tick: u64, source: &mut dyn InputSource) -> u32 {
        let mut updates = 0u32;
        while let Some(msg) = self.endpoint.recv() {
            self.stats.bytes_in += msg.payload.len() as u64;
            let Ok(pkt) = PacketRef::decode(&mut WireReader::new(&msg.payload)) else {
                continue;
            };
            match pkt {
                PacketRef::ConnectAck { user } if user == self.user => {
                    self.state = ClientState::Connected;
                }
                PacketRef::StateUpdate {
                    user,
                    tick: server_tick,
                    payload,
                } if user == self.user => {
                    updates += 1;
                    self.stats.updates_received += 1;
                    source.on_state_update(server_tick, payload);
                }
                PacketRef::Redirect { user, new_server } if user == self.user => {
                    self.server = new_server;
                    self.stats.redirects += 1;
                    // The migration target confirms with ConnectAck; traffic
                    // continues seamlessly.
                }
                _ => {}
            }
        }

        if self.state != ClientState::Disconnected {
            if let Some(payload) = source.next_input(tick) {
                self.writer.clear();
                Packet::put_user_input_head(&mut self.writer, self.user, self.seq);
                self.writer.put_bytes(&payload);
                self.seq = self.seq.wrapping_add(1);
                if self
                    .endpoint
                    .send(self.server, self.writer.copy_frame())
                    .is_ok()
                {
                    self.stats.inputs_sent += 1;
                }
            }
        }
        updates
    }

    /// Re-establishes the session against a different server (after a
    /// server failure or an out-of-band reassignment): sends a fresh
    /// `Connect` and resumes input traffic once acknowledged. Server-side
    /// avatar state does NOT survive a crash — the user respawns.
    pub fn reconnect(&mut self, server: NodeId) {
        self.server = server;
        self.state = ClientState::Connecting;
        let pkt = Packet::Connect {
            user: self.user,
            client: self.endpoint.id(),
        };
        let _ = self.endpoint.send(server, pkt.to_bytes());
    }

    /// Sends `Disconnect` and stops sending inputs.
    pub fn disconnect(&mut self) {
        if self.state != ClientState::Disconnected {
            let pkt = Packet::Disconnect { user: self.user };
            let _ = self.endpoint.send(self.server, pkt.to_bytes());
            self.state = ClientState::Disconnected;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_net::Message;

    impl Client {
        /// The client's own network id.
        pub(crate) fn id(&self) -> NodeId {
            self.endpoint.id()
        }
    }

    /// Everything delivered to `endpoint` so far.
    fn drain(endpoint: &Endpoint) -> Vec<Message> {
        let mut out = Vec::new();
        endpoint.drain_into(&mut out);
        out
    }

    /// Sends a fixed payload every tick.
    struct EveryTick;
    impl InputSource for EveryTick {
        fn next_input(&mut self, _tick: u64) -> Option<Bytes> {
            Some(Bytes::copy_from_slice(b"mv"))
        }
    }

    #[test]
    fn connect_sends_packet_and_tracks_state() {
        let bus = Bus::new();
        let server = bus.register("server");
        let client = Client::connect(&bus, UserId(1), server.id()).unwrap();
        assert_eq!(client.state(), ClientState::Connecting);

        let msgs = drain(&server);
        assert_eq!(msgs.len(), 1);
        let pkt = Packet::from_bytes(&msgs[0].payload).unwrap();
        assert_eq!(
            pkt,
            Packet::Connect {
                user: UserId(1),
                client: client.id()
            }
        );
    }

    #[test]
    fn ack_promotes_to_connected() {
        let bus = Bus::new();
        let server = bus.register("server");
        let mut client = Client::connect(&bus, UserId(1), server.id()).unwrap();
        server
            .send(
                client.id(),
                Packet::ConnectAck { user: UserId(1) }.to_bytes(),
            )
            .unwrap();
        client.tick(0, &mut Idle);
        assert_eq!(client.state(), ClientState::Connected);
    }

    #[test]
    fn inputs_carry_increasing_sequence_numbers() {
        let bus = Bus::new();
        let server = bus.register("server");
        let mut client = Client::connect(&bus, UserId(1), server.id()).unwrap();
        drain(&server);
        client.tick(0, &mut EveryTick);
        client.tick(1, &mut EveryTick);
        let seqs: Vec<u32> = drain(&server)
            .iter()
            .filter_map(|m| match Packet::from_bytes(&m.payload) {
                Ok(Packet::UserInput { seq, .. }) => Some(seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(client.stats().inputs_sent, 2);
    }

    #[test]
    fn state_updates_are_counted_and_delivered_to_source() {
        struct Counting(u64);
        impl InputSource for Counting {
            fn next_input(&mut self, _t: u64) -> Option<Bytes> {
                None
            }
            fn on_state_update(&mut self, server_tick: u64, _p: &[u8]) {
                self.0 = server_tick;
            }
        }
        let bus = Bus::new();
        let server = bus.register("server");
        let mut client = Client::connect(&bus, UserId(1), server.id()).unwrap();
        server
            .send(
                client.id(),
                Packet::StateUpdate {
                    user: UserId(1),
                    tick: 7,
                    payload: Bytes::from(Vec::new()),
                }
                .to_bytes(),
            )
            .unwrap();
        let mut src = Counting(0);
        let updates = client.tick(0, &mut src);
        assert_eq!(updates, 1);
        assert_eq!(src.0, 7);
        assert_eq!(client.stats().updates_received, 1);
    }

    #[test]
    fn redirect_switches_server() {
        let bus = Bus::new();
        let s1 = bus.register("s1");
        let s2 = bus.register("s2");
        let mut client = Client::connect(&bus, UserId(1), s1.id()).unwrap();
        drain(&s1);
        s1.send(
            client.id(),
            Packet::Redirect {
                user: UserId(1),
                new_server: s2.id(),
            }
            .to_bytes(),
        )
        .unwrap();
        client.tick(0, &mut EveryTick);
        assert_eq!(client.server(), s2.id());
        assert_eq!(client.stats().redirects, 1);
        // The input of the same tick already goes to the new server.
        assert_eq!(drain(&s2).len(), 1);
        assert!(drain(&s1).is_empty());
    }

    #[test]
    fn updates_for_other_users_are_ignored() {
        let bus = Bus::new();
        let server = bus.register("server");
        let mut client = Client::connect(&bus, UserId(1), server.id()).unwrap();
        server
            .send(
                client.id(),
                Packet::StateUpdate {
                    user: UserId(99),
                    tick: 0,
                    payload: Bytes::from(Vec::new()),
                }
                .to_bytes(),
            )
            .unwrap();
        assert_eq!(client.tick(0, &mut Idle), 0);
    }

    #[test]
    fn disconnect_stops_inputs() {
        let bus = Bus::new();
        let server = bus.register("server");
        let mut client = Client::connect(&bus, UserId(1), server.id()).unwrap();
        drain(&server);
        client.disconnect();
        client.disconnect(); // idempotent
        client.tick(0, &mut EveryTick);
        let pkts: Vec<Packet> = drain(&server)
            .iter()
            .filter_map(|m| Packet::from_bytes(&m.payload).ok())
            .collect();
        assert_eq!(pkts, vec![Packet::Disconnect { user: UserId(1) }]);
        assert_eq!(client.state(), ClientState::Disconnected);
    }
}
