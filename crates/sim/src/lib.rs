//! # roia-sim — deterministic multi-server ROIA sessions
//!
//! The experiment substrate of the reproduction: [`Cluster`] wires RTFDemo
//! servers, bot clients, the resource pool and an RTF-RMS controller into
//! one lock-step simulation; [`workload`] generates the changing user
//! populations of §V-B; [`calibrated_demo_model`] reruns the §V-A
//! parameter-determination campaigns; [`run_session`] is the one loop that
//! drives a managed run; [`drift`] stages regime shifts for it and
//! [`catalogue`] curates the adversarial robustness campaign (flash
//! crowds, revocation waves, oscillating load) run through it, with
//! graceful-degradation accounting; [`table`] renders paper-comparable
//! series.

#![warn(missing_docs, unreachable_pub)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

mod chaos;
mod cluster;
pub mod drift;
pub mod invariants;
mod measure;
mod multizone;
pub mod parallel;
mod report;
mod scenarios;
mod session;
pub mod workload;

pub use chaos::{Fault, FaultPlan, ScheduledFault};
pub use cluster::{
    ActionExec, ClientHandle, Cluster, ClusterConfig, ClusterTickStats, JoinOutcome,
};
pub use drift::RegimeShift;
pub use measure::{
    calibrated_demo_model, default_demo_model, measure_bandwidth_params, measure_migration_params,
    measure_replication_params, MeasureConfig,
};
pub use multizone::{MultiZoneConfig, MultiZoneWorld, WorldTickStats};
pub use report::{table, Series};
pub use scenarios::{catalogue, run_scenario, Scenario, ScenarioOutcome, ScenarioWorkload};
pub use session::{run_session, ManagedSessionConfig, SessionReport};
pub use workload::{drive, FlashCrowd, PaperSession, Ramp, SineWave, Trace, Workload};
