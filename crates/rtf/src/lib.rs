//! # rtf-core — a Real-Time Framework substrate
//!
//! A from-scratch reimplementation of the middleware layer the ICPP 2013
//! scalability-model paper builds on: the *Real-Time Framework (RTF)* of
//! Glinka et al. It gives ROIA developers
//!
//! * **application state distribution** — zones, instances and replication
//!   groups with active/shadow entity ownership ([`zone`], [`entity`]),
//! * **communication handling** — a compact binary wire format and the
//!   packet envelope for user inputs, forwarded inputs, replica updates and
//!   state updates ([`wire`], [`event`]), transported over the in-process
//!   network of `rtf-net`,
//! * **monitoring and distribution handling** — per-task tick timers
//!   ([`timer`]), per-tick metrics records ([`metrics`]) and runtime user
//!   migration between replicas ([`server`]).
//!
//! The centrepiece is [`server::Server`], which runs the real-time loop of
//! §II and drives an [`server::Application`] (the game logic — see the
//! `rtfdemo` crate for the paper's case study). [`client::Client`] is the
//! user side.

#![warn(missing_docs)]

pub mod client;
pub mod entity;
pub mod event;
pub mod metrics;
pub mod server;
pub mod timer;
pub mod wire;
pub mod zone;

pub use client::{Client, ClientState, ClientStats, InputSource};
pub use entity::{NpcId, Ownership, Rect, UserId, Vec2};
pub use event::{Packet, PacketRef};
pub use metrics::{MetricsLog, TickRecord};
pub use server::{
    Application, Batch, Envelope, FrameSink, MigrationCounters, ReplicaUpdate, ReplicaUpdates,
    Server, ServerConfig, TickCtx,
};
pub use timer::{TaskKind, TickTimers, TimeMode, TASK_COUNT};
pub use wire::{Wire, WireError, WireReader, WireWriter};
pub use zone::{Distribution, InstanceId, WorldLayout, Zone, ZoneId};

/// Re-export of the transport layer for convenience.
pub use rtf_net as net;
