//! # roia-model — the ROIA scalability model (ICPP 2013)
//!
//! A from-scratch implementation of the scalability model of Meiländer,
//! Köttinger and Gorlatch, *"A Scalability Model for Distributed Resource
//! Management in Real-Time Online Applications"* (ICPP 2013). The model
//! analyzes a Real-Time Online Interactive Application (ROIA — e.g. a
//! multiplayer online game) at runtime and predicts the effect of two
//! load-balancing actions on its tick duration:
//!
//! * **replication enactment** — adding a server that replicates a
//!   highly-frequented zone (Eq. (1)–(3): [`tick::tick_duration_equal`],
//!   [`capacity::n_max`], [`capacity::l_max`]), and
//! * **user migration** — moving users between replicas of the same zone
//!   (Eq. (4)–(5): [`tick::tick_duration`], [`migration::x_max_ini`],
//!   [`migration::x_max_rcv`], and the Listing-1 planner in [`planner`]).
//!
//! Parameters are calibrated from runtime measurements with the
//! Levenberg–Marquardt fitter of the companion `roia-fit` crate
//! ([`calibrate()`]).
//!
//! ## Quick start
//!
//! ```
//! use roia_model::{CostFn, ModelParams, ScalabilityModel};
//!
//! // Fitted per-task costs (seconds as functions of the zone user count).
//! let params = ModelParams {
//!     t_ua_dser: CostFn::Linear { c0: 8e-6, c1: 4e-9 },
//!     t_ua: CostFn::Quadratic { c0: 3e-5, c1: 2.4e-7, c2: 1.5e-10 },
//!     t_aoi: CostFn::Quadratic { c0: 2e-5, c1: 1.6e-7, c2: 1.1e-10 },
//!     t_su: CostFn::Linear { c0: 3e-5, c1: 6e-8 },
//!     t_fa_dser: CostFn::Linear { c0: 1e-6, c1: 4e-9 },
//!     t_fa: CostFn::Linear { c0: 1.5e-6, c1: 9e-9 },
//!     t_npc: CostFn::ZERO,
//!     t_mig_ini: CostFn::Linear { c0: 2e-4, c1: 6e-6 },
//!     t_mig_rcv: CostFn::Linear { c0: 1e-4, c1: 2.5e-6 },
//! };
//!
//! // 40 ms tick threshold (25 updates/s), replicas must add >= 15 % of the
//! // single-server capacity, replicate at 80 % of capacity.
//! let model = ScalabilityModel::new(params, 0.040)
//!     .with_improvement_factor(0.15)
//!     .with_trigger_fraction(0.8);
//!
//! let n1 = model.max_users(1, 0);           // single-server capacity
//! let limit = model.max_replicas(0);        // l_max
//! assert!(n1 > 0 && limit.l_max >= 1);
//! assert!(model.replication_trigger(1, 0) <= n1);
//! ```

#![warn(missing_docs)]

pub mod bandwidth;
pub mod calibrate;
pub mod capacity;
pub mod convert;
pub mod costfn;
pub mod hetero;
pub mod migration;
pub mod params;
pub mod persist;
pub mod planner;
pub mod tick;

pub use bandwidth::{n_max_joint, BandwidthParams};
pub use calibrate::{calibrate, calibrate_strict, Calibration, Measurements, ParamSamples};
pub use capacity::{
    capacity_curve, l_max, n_max, replication_trigger, CapacityPoint, ReplicaLimit,
};
pub use costfn::CostFn;
pub use hetero::{equalized_allocation, n_max_hetero, worst_tick_hetero};
pub use migration::{migration_curve, x_max_from_tick, x_max_ini, x_max_rcv, MigrationSide};
pub use params::{ModelParams, ParamKind};
pub use persist::{format_model, parse_model, PersistError};
pub use planner::{plan, plan_round, MigrationPlan, Move, PlannerConfig, Round};
pub use tick::{per_term_prediction, tick_duration, tick_duration_equal, ZoneLoad};

/// The calibrated scalability model for one application: fitted parameters
/// plus the provider-chosen thresholds `U` (tick duration), `c` (minimum
/// improvement per replica) and the replication-trigger fraction.
///
/// This is the object RTF-RMS consults for every load-balancing decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalabilityModel {
    /// The nine fitted cost parameters.
    pub params: ModelParams,
    /// Upper threshold `U` for the tick duration, in seconds (§III-C; 40 ms
    /// for a 25 Hz first-person shooter, up to 1.5 s for role-playing
    /// games).
    pub u_threshold: f64,
    /// Minimum-improvement factor `0 < c ≤ 1` of Eq. (3).
    pub improvement_factor: f64,
    /// Fraction of `n_max` at which replication is enacted (§V-A: 0.8).
    pub trigger_fraction: f64,
}

impl ScalabilityModel {
    /// Creates a model with the paper's defaults for `c` (0.15) and the
    /// trigger fraction (0.8).
    pub fn new(params: ModelParams, u_threshold: f64) -> Self {
        assert!(
            u_threshold > 0.0,
            "tick-duration threshold must be positive"
        );
        Self {
            params,
            u_threshold,
            improvement_factor: 0.15,
            trigger_fraction: 0.8,
        }
    }

    /// Sets the minimum-improvement factor `c` of Eq. (3).
    pub fn with_improvement_factor(mut self, c: f64) -> Self {
        assert!(
            c > 0.0 && c <= 1.0,
            "improvement factor must satisfy 0 < c <= 1"
        );
        self.improvement_factor = c;
        self
    }

    /// Sets the replication-trigger fraction (§V-A uses 0.8).
    pub fn with_trigger_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        self.trigger_fraction = fraction;
        self
    }

    /// Eq. (1): predicted tick duration with `n` users and `m` NPCs spread
    /// equally over `l` replicas.
    pub fn tick_equal(&self, l: u32, n: u32, m: u32) -> f64 {
        tick_duration_equal(&self.params, ZoneLoad::new(l, n, m))
    }

    /// Eq. (4): predicted tick duration for a server owning `active` of the
    /// zone's `n` users.
    pub fn tick(&self, l: u32, n: u32, m: u32, active: u32) -> f64 {
        tick_duration(&self.params, ZoneLoad::new(l, n, m), active)
    }

    /// Eq. (4) split per model term (indexed like [`ParamKind::ALL`]),
    /// with the per-migration terms charged for `mig_ini` initiated and
    /// `mig_rcv` received migrations this tick. The attribution side of
    /// the per-term residual fold.
    #[allow(clippy::too_many_arguments)]
    pub fn tick_terms(
        &self,
        l: u32,
        n: u32,
        m: u32,
        active: u32,
        mig_ini: u32,
        mig_rcv: u32,
    ) -> [f64; ParamKind::ALL.len()] {
        per_term_prediction(
            &self.params,
            ZoneLoad::new(l, n, m),
            active,
            mig_ini,
            mig_rcv,
        )
    }

    /// Eq. (2): maximum users on `l` replicas with `m` NPCs.
    pub fn max_users(&self, l: u32, m: u32) -> u32 {
        n_max(&self.params, l, m, self.u_threshold)
    }

    /// Eq. (3): the replica limit `l_max` and the capacity ladder.
    pub fn max_replicas(&self, m: u32) -> ReplicaLimit {
        l_max(&self.params, m, self.u_threshold, self.improvement_factor)
    }

    /// §V-A: the user count at which replication should be enacted for the
    /// current replica count `l`.
    pub fn replication_trigger(&self, l: u32, m: u32) -> u32 {
        replication_trigger(self.max_users(l, m), self.trigger_fraction)
    }

    /// Eq. (5): migrations per second a server owning `active` users may
    /// initiate.
    pub fn migrations_initiate(&self, l: u32, n: u32, m: u32, active: u32) -> u32 {
        x_max_ini(
            &self.params,
            ZoneLoad::new(l, n, m),
            active,
            self.u_threshold,
        )
    }

    /// Eq. (5): migrations per second a server owning `active` users may
    /// receive.
    pub fn migrations_receive(&self, l: u32, n: u32, m: u32, active: u32) -> u32 {
        x_max_rcv(
            &self.params,
            ZoneLoad::new(l, n, m),
            active,
            self.u_threshold,
        )
    }

    /// Plans the migrations that equalize `users` across the replicas of a
    /// zone with `m` NPCs (Listing 1, iterated as in Fig. 2).
    pub fn plan_migrations(&self, users: &[u32], m: u32) -> MigrationPlan {
        let config = PlannerConfig {
            u_threshold: self.u_threshold,
            npcs: m,
            max_rounds: 64,
        };
        plan(&self.params, users, &config)
    }

    /// Validates the fitted parameters for the monotonicity the capacity
    /// searches assume; returns offending parameters (empty = all good).
    pub fn validate(&self) -> Vec<ParamKind> {
        self.params.validate_monotone(10_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_params() -> ModelParams {
        ModelParams {
            t_ua_dser: CostFn::Linear { c0: 8e-6, c1: 4e-9 },
            t_ua: CostFn::Quadratic {
                c0: 3e-5,
                c1: 2.4e-7,
                c2: 1.5e-10,
            },
            t_aoi: CostFn::Quadratic {
                c0: 2e-5,
                c1: 1.6e-7,
                c2: 1.1e-10,
            },
            t_su: CostFn::Linear { c0: 3e-5, c1: 6e-8 },
            t_fa_dser: CostFn::Linear { c0: 1e-6, c1: 4e-9 },
            t_fa: CostFn::Linear {
                c0: 1.5e-6,
                c1: 9e-9,
            },
            t_npc: CostFn::ZERO,
            t_mig_ini: CostFn::Linear { c0: 2e-4, c1: 6e-6 },
            t_mig_rcv: CostFn::Linear {
                c0: 1e-4,
                c1: 2.5e-6,
            },
        }
    }

    #[test]
    fn model_facade_is_consistent_with_free_functions() {
        let model = ScalabilityModel::new(demo_params(), 0.040);
        assert_eq!(model.max_users(2, 0), n_max(&model.params, 2, 0, 0.040));
        assert_eq!(
            model.migrations_initiate(2, 100, 0, 60),
            x_max_ini(&model.params, ZoneLoad::new(2, 100, 0), 60, 0.040)
        );
        let t = model.tick_equal(2, 100, 0);
        assert!((t - tick_duration_equal(&model.params, ZoneLoad::new(2, 100, 0))).abs() < 1e-15);
    }

    #[test]
    fn trigger_below_capacity() {
        let model = ScalabilityModel::new(demo_params(), 0.040);
        let cap = model.max_users(1, 0);
        let trig = model.replication_trigger(1, 0);
        assert!(trig < cap);
        assert_eq!(trig, (cap as f64 * 0.8).floor() as u32);
    }

    #[test]
    fn replica_limit_has_increasing_capacities() {
        let model = ScalabilityModel::new(demo_params(), 0.040).with_improvement_factor(0.15);
        let limit = model.max_replicas(0);
        assert!(limit.l_max >= 2, "demo params should scale past one server");
        for w in limit.capacity_per_replica.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn plan_migrations_balances() {
        let model = ScalabilityModel::new(demo_params(), 0.040);
        let plan = model.plan_migrations(&[40, 10, 10], 0);
        assert!(plan.balanced);
        let after = plan.final_users().unwrap();
        assert_eq!(after.iter().sum::<u32>(), 60);
    }

    #[test]
    fn validation_accepts_demo_params() {
        let model = ScalabilityModel::new(demo_params(), 0.040);
        assert!(model.validate().is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        ScalabilityModel::new(demo_params(), 0.0);
    }
}
