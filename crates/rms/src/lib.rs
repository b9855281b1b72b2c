//! # rtf-rms — dynamic resource management for ROIA
//!
//! A reimplementation of *RTF-RMS* (Meiländer et al., Euro-Par 2011
//! workshops), the resource management system the ICPP 2013 paper upgrades
//! with its scalability model. The controller monitors the replicas of a
//! zone ([`ZoneSnapshot`]), decides between the four load-balancing actions
//! of §IV ([`Action`]) using a pluggable [`Policy`], and leases machines
//! from a simulated cloud ([`ResourcePool`]).
//!
//! The [`ModelDriven`] policy is the paper's contribution; the two
//! baselines ([`StaticInterval`], the initial RTF-RMS, and
//! [`StaticThreshold`]) reproduce the strategies the paper positions
//! itself against.

#![warn(missing_docs, unreachable_pub)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), warn(clippy::as_conversions, clippy::float_cmp))]

mod actions;
mod controller;
mod degraded;
mod monitor;
mod policy;
mod resources;

pub use actions::{Action, ActionId, ActionLog, ActionOutcome, LoggedAction};
pub use controller::{ControllerConfig, IssuedAction, RmsController};
pub use degraded::{Admission, AdmissionMode, DegradedConfig};
pub use monitor::{ServerSnapshot, ZoneSnapshot};
pub use policy::{ModelDriven, ModelDrivenConfig, Policy, StaticInterval, StaticThreshold};
pub use resources::{BootEvent, LeaseId, MachineProfile, PoolError, ReadyMachine, ResourcePool};
