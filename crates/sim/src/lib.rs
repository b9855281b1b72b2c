//! # roia-sim — deterministic multi-server ROIA sessions
//!
//! The experiment substrate of the reproduction: [`cluster::Cluster`] wires
//! RTFDemo servers, bot clients, the resource pool and an RTF-RMS
//! controller into one lock-step simulation; [`workload`] generates the
//! changing user populations of §V-B; [`measure`] reruns the §V-A
//! parameter-determination campaigns; [`session`] packages managed runs;
//! [`scenarios`] curates the adversarial robustness campaign (flash
//! crowds, revocation waves, oscillating load) with graceful-degradation
//! accounting; [`report`] renders paper-comparable series.

#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod drift;
pub mod invariants;
pub mod measure;
pub mod multizone;
pub mod parallel;
pub mod report;
pub mod scenarios;
pub mod session;
pub mod workload;

pub use chaos::{ChaosEngine, Fault, FaultPlan, ScheduledFault};
pub use cluster::{ActionExec, Cluster, ClusterConfig, ClusterTickStats, JoinOutcome};
pub use drift::{run_drift_session, CalibrationMode, DriftReport, DriftSessionConfig, RegimeShift};
pub use measure::{
    calibrate_demo, default_demo_model, measure_bandwidth_params, measure_migration_params,
    measure_replication_params, MeasureConfig,
};
pub use multizone::{MultiZoneConfig, MultiZoneWorld, WorldTickStats};
pub use report::{ascii_chart, csv, table, Series};
pub use scenarios::{catalogue, run_scenario, Scenario, ScenarioOutcome, ScenarioWorkload};
pub use session::{run_session, SessionConfig, SessionReport};
pub use workload::{
    drive, FlashCrowd, PaperSession, Ramp, SineWave, Trace, TraceCsvError, Workload,
};
