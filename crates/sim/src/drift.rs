//! Drifting-workload scenarios — regime shifts that break frozen models.
//!
//! The §V-A calibration measures per-request costs once, offline, and the
//! controller trusts them forever. This module stages the failure mode
//! that assumption invites: mid-session the workload's *cost structure*
//! changes — a patch doubles attack frequency, a content event spawns an
//! NPC surge — so a frozen model keeps predicting the old regime while
//! the observed tick durations move. [`RegimeShift`] applies the change
//! to a running [`Cluster`]; a drift session is an ordinary
//! [`run_session`](crate::session::run_session) with the shift in its
//! config. It runs in one of two
//! arms: the *frozen* arm gives the seed model to `ModelDriven::new` and
//! as the reference model; the *online* arm attaches an `OnlineCalibrator`
//! and hands its registry to `ModelDriven::live`. The report's per-tick
//! history carries model-version and prediction annotations so the two
//! arms can be compared tick for tick.

use crate::cluster::Cluster;
use rtfdemo::BotBehavior;

/// A mid-session workload regime shift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegimeShift {
    /// Tick at which the shift lands.
    pub at_tick: u64,
    /// Bot behaviour after the shift (`None`: unchanged).
    pub bots_after: Option<BotBehavior>,
    /// NPC population after the shift (`None`: unchanged).
    pub npcs_after: Option<u32>,
    /// Per-unit cost-rate multiplier the shift applies (`None`:
    /// unchanged). Above 1 models a patch whose richer interactions make
    /// each command, scan and update heavier — the component that makes
    /// the *shape* of the frozen calibration wrong, not just the load.
    pub cost_factor: Option<f64>,
}

impl RegimeShift {
    /// The canonical drifting-workload shift: a content patch doubles
    /// attack frequency (base and per-target probability, with headroom
    /// in the cap), spawns `npcs` NPCs into the zone, and makes every
    /// interaction 1.5x heavier (new combat effects).
    pub fn attack_surge(at_tick: u64, npcs: u32) -> Self {
        let calm = BotBehavior::default();
        Self {
            at_tick,
            bots_after: Some(BotBehavior {
                attack_base: calm.attack_base * 2.0,
                attack_per_target: calm.attack_per_target * 2.0,
                attack_cap: (calm.attack_cap * 1.2).min(1.0),
                ..calm
            }),
            npcs_after: Some(npcs),
            cost_factor: Some(1.5),
        }
    }

    /// Applies the shift to a running cluster.
    pub fn apply(&self, cluster: &mut Cluster) {
        if let Some(bots) = self.bots_after {
            cluster.set_bot_behavior(bots);
        }
        if let Some(npcs) = self.npcs_after {
            cluster.set_npc_population(npcs);
        }
        if let Some(factor) = self.cost_factor {
            cluster.scale_cost_rates(factor);
        }
    }
}
