//! Load-balancing policies.
//!
//! [`ModelDriven`] is the paper's contribution: every decision is gated by
//! the scalability model's thresholds, and its replication trigger reads
//! a user-count forecast one boot delay ahead (Nae et al. \[16\]). The
//! two baselines reproduce the strategies the paper compares against in
//! §IV/§VI:
//!
//! * [`StaticInterval`] — the *initial* RTF-RMS behaviour: equalize user
//!   counts every round with no regard for migration overhead.
//! * [`StaticThreshold`] — Duong & Zhou \[7\]: a fixed per-server maximum
//!   user count triggers migration/scale-out.

mod model_driven;
mod static_interval;
mod static_threshold;

pub use model_driven::{ModelDriven, ModelDrivenConfig};
pub use static_interval::StaticInterval;
pub use static_threshold::StaticThreshold;

use crate::actions::Action;
use crate::monitor::ZoneSnapshot;
use roia_obs::Tracer;

/// A load-balancing strategy: maps a monitoring snapshot to actions.
pub trait Policy: Send {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> &'static str;

    /// Decides the actions for one control round.
    fn decide(&mut self, snapshot: &ZoneSnapshot, now_tick: u64) -> Vec<Action>;

    /// Installs a telemetry tracer. [`ModelDriven`] emits its decision
    /// audit trail (the Eq. 1–5 evaluations) through it; the baselines
    /// ignore it.
    fn set_tracer(&mut self, _tracer: Tracer) {}
}
