//! # rtf-net — in-process simulated network transport
//!
//! The Real-Time Framework runs application servers and clients as
//! distributed processes connected by TCP/UDP. This crate provides the
//! equivalent substrate for an in-process reproduction: a message [`Bus`]
//! of ideal links that counts messages sent and dropped, and endpoints
//! a lock-step driver polls (`recv` or `drain_into` after `advance` or
//! `resume_delivery`). Frames are [`Bytes`]; a writer that takes its
//! frames from a [`FramePool`] reuses their storage once the receivers
//! have dropped them.
//!
//! Delivery semantics: messages between two nodes are delivered in order
//! (like RTF's TCP connections), the tick they are sent. Two faults can be
//! injected. [`Bus::set_link_faults`] sets one bus-wide drop probability,
//! which loses messages, and a jitter window, which holds them back for a
//! few ticks. [`Bus::set_isolated`] blackholes a node's traffic. Every sent
//! and every lost message is counted in [`TrafficStats`].
//!
//! ```
//! use rtf_net::{Bus, Bytes};
//!
//! let bus = Bus::new();
//! let a = bus.register("server-a");
//! let b = bus.register("server-b");
//!
//! bus.send(a.id(), b.id(), Bytes::copy_from_slice(b"state update")).unwrap();
//! let mut inbox = Vec::new();
//! b.drain_into(&mut inbox);
//! assert_eq!(&inbox[0].payload[..], b"state update");
//! ```

#![warn(missing_docs, unreachable_pub)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

mod bus;
mod frame;
mod link;

pub use bus::{Bus, Endpoint, Message, NetError, TrafficStats};
pub use frame::{Bytes, FramePool};

/// Identifier of a bus endpoint (application server or client connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node#{}", self.0)
    }
}
