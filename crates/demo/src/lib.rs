//! # rtfdemo — the paper's first-person-shooter case study
//!
//! A reimplementation of *RTFDemo*, the multiplayer FPS the ICPP 2013 paper
//! evaluates its scalability model on (§V): avatars move and attack in a
//! shared arena, interest management uses the Euclidean distance algorithm,
//! and the zone state is replicated across servers, with attacks on shadow
//! entities forwarded to the owning replica.
//!
//! The crate plugs into `rtf-core` through [`RtfDemoApp`] (the server-side
//! [`rtf_core::server::Application`]) and [`Bot`] (the client-side input
//! source — "randomly interacting, computer-controlled bots", §V-A).
//! [`CostModel`] carries the calibrated virtual per-work-unit costs that
//! substitute for the paper's physical testbed; see `DESIGN.md`.

#![warn(missing_docs)]

pub mod aoi;
pub mod app;
pub mod avatar;
pub mod bot;
pub mod calibration;
pub mod commands;
pub mod npc;
pub mod world;

pub use aoi::{compute_aoi, dedup_scans_for, AoiGrid, AoiResult};
pub use app::{GameStats, RtfDemoApp};
pub use avatar::{Avatar, AvatarSnapshot, MAX_HEALTH};
pub use bot::{Bot, BotBehavior};
pub use calibration::{CostModel, CostRates};
pub use commands::{Command, CommandBatch, Interaction};
pub use npc::{Npc, NpcWorld};
pub use world::World;
