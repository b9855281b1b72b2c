//! roia-ledger: the repo's performance ledger.
//!
//! One command runs five workloads against the layer crates' public API
//! and reports host-clock metrics end to end and per layer. See
//! `README.md` for the metric glossary, the workloads, how the layers'
//! numbers are expected to move the end-to-end ones, and the public
//! signatures the harness depends on.

pub mod ack;
pub mod meta;
pub mod micro;
pub mod report;
pub mod span;
pub mod stats;
pub mod traced;
pub mod workload;

use report::Outcome;
use std::path::{Path, PathBuf};
use workload::{cluster, session, Plan, Workload};

/// Where span files and scratch directories go: `out/` beside this
/// crate's manifest (git-ignored).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one workload in this process: untraced for the end-to-end
/// metrics, traced for the per-layer ones.
pub fn run_workload(workload: Workload, plan: &Plan, traced: bool) -> Outcome {
    if traced {
        return traced::run_traced(workload, plan);
    }
    match workload {
        Workload::ZoneSteady => cluster::run_zone_steady(plan),
        Workload::MultizoneFanout => cluster::run_multizone_fanout(plan),
        Workload::ChurnFullStack => cluster::run_churn_full_stack(plan),
        Workload::SessionBus256 => session::run_session_bus(plan),
        Workload::SessionTcp2 => session::run_session_tcp(plan),
    }
}
