//! # rtf-net — in-process simulated network transport
//!
//! The Real-Time Framework runs application servers and clients as
//! distributed processes connected by TCP/UDP. This crate provides the
//! equivalent substrate for an in-process reproduction: a message [`bus::Bus`]
//! with per-link latency and bandwidth modelling ([`link`]), byte accounting
//! for traffic analysis, and endpoints a lock-step driver polls
//! (`try_recv`/`drain` after `advance` or `resume_delivery`).
//!
//! Delivery semantics: messages between two nodes are delivered reliably and
//! in order (like RTF's TCP connections). A link may add latency measured in
//! simulation ticks and may cap bytes per tick; excess traffic queues on the
//! link, never dropping.
//!
//! ```
//! use rtf_net::Bus;
//! use bytes::Bytes;
//!
//! let bus = Bus::new();
//! let a = bus.register("server-a");
//! let b = bus.register("server-b");
//!
//! bus.send(a.id(), b.id(), Bytes::from_static(b"state update")).unwrap();
//! let msg = b.try_recv().expect("zero-latency default link delivers immediately");
//! assert_eq!(&msg.payload[..], b"state update");
//! ```

#![warn(missing_docs)]

pub mod bus;
pub mod link;

pub use bus::{Bus, Endpoint, Message, NetError, TrafficStats};
pub use bytes::Bytes;
pub use link::{LinkSpec, LinkState};

/// Identifier of a bus endpoint (application server or client connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node#{}", self.0)
    }
}
