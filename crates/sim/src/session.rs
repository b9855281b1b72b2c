//! End-to-end managed sessions — the §V-B experiment harness.
//!
//! [`run_session`] is the one loop that drives a managed [`Cluster`]
//! through a session: bots join and leave under a [`Workload`] while an
//! RTF-RMS controller manages the replicas. It summarizes what Fig. 8
//! plots — user count, active servers and average CPU load over time —
//! plus the violation/overhead accounting the policy comparison needs.
//! The drift study and the adversarial scenarios are inputs to it: a
//! [`RegimeShift`], an [`OnlineCalibrator`] the policy follows live, a
//! [`FaultPlan`].

use crate::chaos::FaultPlan;
use crate::cluster::{Cluster, ClusterConfig, ClusterTickStats};
use crate::drift::RegimeShift;
use crate::workload::{drive, Workload};
use roia_autocal::{OnlineCalibrator, PublishOutcome, RefitReport};
use roia_model::ScalabilityModel;
use roia_obs::{FlightConfig, MetricsRegistry, TermReport, Tracer};
use rtf_rms::{ActionOutcome, ControllerConfig, Policy};

/// Configuration of a managed session (see [`run_session`]).
pub struct ManagedSessionConfig {
    /// Cluster configuration.
    pub cluster: ClusterConfig,
    /// Session length in ticks (25 ticks = 1 s).
    pub ticks: u64,
    /// Maximum user joins/leaves per tick.
    pub max_churn_per_tick: u32,
    /// Tick-duration threshold `U` for violation accounting (seconds).
    pub u_threshold: f64,
    /// Initial replica count.
    pub initial_servers: u32,
    /// Fault plan to arm before the first tick, if any.
    pub chaos: Option<FaultPlan>,
    /// Run the per-tick invariant checker (panics on violation).
    pub debug_checks: bool,
    /// Telemetry tracer installed on the cluster before the first tick
    /// (disabled by default — tracing is strictly opt-in).
    pub tracer: Tracer,
    /// Arm the flight recorder with this config before the first tick:
    /// bounded event/decision rings plus postmortem bundles dumped on SLO
    /// pages, degraded entries and invariant violations.
    pub flight: Option<FlightConfig>,
    /// Reference model installed on the cluster for per-tick predictions
    /// and per-term attribution (superseded by the auto-calibrator's
    /// published model when one is attached).
    pub reference_model: Option<ScalabilityModel>,
    /// Online calibrator attached before the controller: every server
    /// tick record streams into it and refits run on its schedule. A
    /// policy built on its registry (`ModelDriven::live`) follows the
    /// published versions; the tracer, when enabled, sees registry swaps.
    pub autocal: Option<OnlineCalibrator>,
    /// Workload regime shift applied at the top of its tick.
    pub shift: Option<RegimeShift>,
}

impl Default for ManagedSessionConfig {
    fn default() -> Self {
        Self {
            cluster: ClusterConfig::default(),
            ticks: 7500, // 5 minutes at 25 Hz
            max_churn_per_tick: 2,
            u_threshold: 0.040,
            initial_servers: 1,
            chaos: None,
            debug_checks: false,
            tracer: Tracer::disabled(),
            flight: None,
            reference_model: None,
            autocal: None,
            shift: None,
        }
    }
}

/// Summary of a managed session.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The policy that managed the session.
    pub policy: &'static str,
    /// Per-tick statistics (the Fig. 8 series).
    pub history: Vec<ClusterTickStats>,
    /// Server-ticks whose duration reached the threshold.
    pub violations: u64,
    /// Total users migrated.
    pub migrations: u64,
    /// Replication enactments executed.
    pub replicas_added: usize,
    /// Resource removals executed.
    pub replicas_removed: usize,
    /// Resource substitutions executed.
    pub substitutions: usize,
    /// Cloud cost accrued.
    pub total_cost: f64,
    /// Peak replica count.
    pub peak_servers: u32,
    /// Action-ledger outcome histogram: (outcome name, count), in
    /// [`ActionOutcome::ALL`] order, zero-count outcomes included.
    pub outcomes: Vec<(&'static str, usize)>,
    /// Operator metrics accumulated by the cluster (tick-duration
    /// histograms per server, lifecycle counters, population gauges).
    pub metrics: MetricsRegistry,
    /// Per-term model attribution, ranked by miss share (empty when no
    /// model was in force — no calibrator, no reference model).
    pub attribution: Vec<TermReport>,
    /// Every refit attempt the calibrator made (empty without one).
    pub refits: Vec<RefitReport>,
    /// Registry version at session end (`0` without a calibrator).
    pub final_model_version: u64,
}

impl SessionReport {
    /// Fraction of ticks with at least one violating server.
    pub fn violation_rate(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        self.history.iter().filter(|h| h.violation).count() as f64 / self.history.len() as f64
    }

    /// Mean CPU load over the session (servers that existed each tick).
    pub fn mean_cpu_load(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        self.history.iter().map(|h| h.avg_cpu_load).sum::<f64>() / self.history.len() as f64
    }

    /// Per-tick relative prediction error `|pred − obs| / obs` for every
    /// tick where both the model prediction and the observation are
    /// positive.
    pub fn prediction_errors(&self) -> Vec<(u64, f64)> {
        self.history
            .iter()
            .filter(|h| h.predicted_tick > 0.0 && h.max_tick_duration > 0.0)
            .map(|h| {
                let err = (h.predicted_tick - h.max_tick_duration).abs() / h.max_tick_duration;
                (h.tick, err)
            })
            .collect()
    }

    /// Mean relative prediction error over `[from_tick, to_tick)`.
    pub fn mean_prediction_error(&self, from_tick: u64, to_tick: u64) -> f64 {
        let errs: Vec<f64> = self
            .prediction_errors()
            .into_iter()
            .filter(|(t, _)| *t >= from_tick && *t < to_tick)
            .map(|(_, e)| e)
            .collect();
        if errs.is_empty() {
            return 0.0;
        }
        errs.iter().sum::<f64>() / errs.len() as f64
    }

    /// Worst observed tick duration from `from_tick` on (seconds).
    pub fn max_tick_from(&self, from_tick: u64) -> f64 {
        self.history
            .iter()
            .filter(|h| h.tick >= from_tick)
            .map(|h| h.max_tick_duration)
            .fold(0.0, f64::max)
    }

    /// Refits the registry actually published.
    pub fn published_refits(&self) -> usize {
        self.refits
            .iter()
            .filter(|r| matches!(r.outcome, PublishOutcome::Published { .. }))
            .count()
    }

    /// Downsampled history: one entry per `stride` ticks (for plotting).
    pub fn sampled(&self, stride: usize) -> Vec<ClusterTickStats> {
        self.history
            .iter()
            .step_by(stride.max(1))
            .copied()
            .collect()
    }
}

/// Runs a managed session and reports the outcome.
pub fn run_session(
    config: ManagedSessionConfig,
    policy: Box<dyn Policy>,
    workload: &dyn Workload,
) -> SessionReport {
    let tick_interval = config.cluster.tick_interval;
    let policy_name = policy.name();
    let mut cluster = Cluster::new(config.cluster, config.initial_servers);
    cluster.set_threshold(config.u_threshold);
    if config.tracer.is_enabled() {
        cluster.set_tracer(config.tracer);
    }
    if let Some(calibrator) = config.autocal {
        cluster.set_autocal(calibrator);
    }
    cluster.set_controller(policy, ControllerConfig::default());
    cluster.set_debug_checks(config.debug_checks);
    if let Some(plan) = config.chaos {
        cluster.set_chaos(plan);
    }
    if let Some(flight) = config.flight {
        cluster.arm_flight(flight);
    }
    if let Some(model) = config.reference_model {
        cluster.set_reference_model(model);
    }

    let mut peak_servers = cluster.server_count();
    let mut history = Vec::new();
    for _ in 0..config.ticks {
        if let Some(shift) = config.shift.filter(|s| s.at_tick == cluster.now()) {
            shift.apply(&mut cluster);
        }
        drive(
            &mut cluster,
            workload,
            tick_interval,
            config.max_churn_per_tick,
        );
        history.push(cluster.step());
        peak_servers = peak_servers.max(cluster.server_count());
    }

    // The controller is attached above, so the log is always present; an
    // empty default keeps this total rather than panicking.
    let log = cluster.action_log().cloned().unwrap_or_default();
    let outcomes = ActionOutcome::ALL
        .iter()
        .map(|o| (o.name(), log.count_outcome(*o)))
        .collect();
    SessionReport {
        policy: policy_name,
        violations: cluster.violations(),
        migrations: cluster.total_migrations(),
        replicas_added: log.count("add_replica"),
        replicas_removed: log.count("remove_replica"),
        substitutions: log.count("substitute"),
        total_cost: cluster.total_cost(),
        peak_servers,
        outcomes,
        metrics: cluster.metrics().clone(),
        attribution: cluster.attribution().report(),
        refits: cluster.refit_log().to_vec(),
        final_model_version: cluster.autocal().map_or(0, |c| c.version()),
        history,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::workload::Ramp;
    use roia_autocal::CalibratorConfig;
    use roia_model::{CostFn, ModelParams, ScalabilityModel};
    use rtf_rms::{ModelDriven, ModelDrivenConfig, StaticInterval};

    /// A hand-built model roughly matching the default cost rates at small
    /// populations (tests avoid the full calibration campaign for speed).
    pub(crate) fn rough_model() -> ScalabilityModel {
        let params = ModelParams {
            t_ua_dser: CostFn::Linear { c0: 4e-6, c1: 5e-9 },
            t_ua: CostFn::Quadratic {
                c0: 45e-6,
                c1: 2.5e-7,
                c2: 0.0,
            },
            t_aoi: CostFn::Quadratic {
                c0: 5e-6,
                c1: 2.2e-7,
                c2: 1e-10,
            },
            t_su: CostFn::Linear {
                c0: 3e-6,
                c1: 1.5e-7,
            },
            t_fa_dser: CostFn::Linear { c0: 2e-6, c1: 1e-9 },
            t_fa: CostFn::Linear {
                c0: 20e-6,
                c1: 1e-9,
            },
            t_npc: CostFn::ZERO,
            t_mig_ini: CostFn::Linear {
                c0: 0.2e-3,
                c1: 7e-6,
            },
            t_mig_rcv: CostFn::Linear {
                c0: 0.15e-3,
                c1: 4e-6,
            },
        };
        ScalabilityModel::new(params, 0.040)
    }

    #[test]
    fn short_model_driven_session_runs() {
        let config = ManagedSessionConfig {
            ticks: 300,
            max_churn_per_tick: 3,
            cluster: ClusterConfig {
                cost_noise: 0.0,
                ..ClusterConfig::default()
            },
            ..ManagedSessionConfig::default()
        };
        let policy = Box::new(ModelDriven::new(
            rough_model(),
            ModelDrivenConfig::default(),
        ));
        let workload = Ramp {
            from: 0,
            to: 60,
            duration_secs: 6.0,
        };
        let report = run_session(config, policy, &workload);
        assert_eq!(report.policy, "model-driven");
        assert_eq!(report.history.len(), 300);
        assert_eq!(report.history.last().unwrap().users, 60);
        assert!(report.mean_cpu_load() > 0.0);
        assert!(report.total_cost > 0.0);
    }

    #[test]
    fn static_interval_session_migrates_more() {
        // The static baseline equalizes exhaustively; with any imbalance it
        // fires unpaced migrations.
        let make_config = || ManagedSessionConfig {
            ticks: 250,
            max_churn_per_tick: 5,
            cluster: ClusterConfig {
                cost_noise: 0.0,
                ..ClusterConfig::default()
            },
            initial_servers: 2,
            ..ManagedSessionConfig::default()
        };
        let workload = Ramp {
            from: 0,
            to: 80,
            duration_secs: 5.0,
        };

        let baseline = run_session(
            make_config(),
            Box::new(StaticInterval::new(10_000)),
            &workload,
        );
        let model = run_session(
            make_config(),
            Box::new(ModelDriven::new(
                rough_model(),
                ModelDrivenConfig::default(),
            )),
            &workload,
        );
        assert_eq!(baseline.policy, "static-interval");
        // Both keep all users; the model-driven one paces its migrations.
        assert_eq!(baseline.history.last().unwrap().users, 80);
        assert_eq!(model.history.last().unwrap().users, 80);
    }

    #[test]
    fn chaotic_session_conserves_users_and_reports_outcomes() {
        let config = ManagedSessionConfig {
            ticks: 500,
            max_churn_per_tick: 3,
            cluster: ClusterConfig {
                cost_noise: 0.0,
                ..ClusterConfig::default()
            },
            initial_servers: 3,
            chaos: Some(
                FaultPlan::quiet(13)
                    .with_link_faults(0.01, 1)
                    .at(60, crate::chaos::Fault::CrashMostLoaded),
            ),
            debug_checks: true,
            ..ManagedSessionConfig::default()
        };
        let policy = Box::new(ModelDriven::new(
            rough_model(),
            ModelDrivenConfig::default(),
        ));
        let workload = Ramp {
            from: 0,
            to: 45,
            duration_secs: 4.0,
        };
        let report = run_session(config, policy, &workload);
        assert_eq!(
            report.history.last().unwrap().users,
            45,
            "nobody lost to the crash"
        );
        assert_eq!(report.outcomes.len(), ActionOutcome::ALL.len());
        let succeeded = report
            .outcomes
            .iter()
            .find(|(name, _)| *name == "succeeded")
            .map(|(_, n)| *n)
            .unwrap();
        assert!(
            succeeded > 0,
            "the controller got work done: {:?}",
            report.outcomes
        );
    }

    #[test]
    fn report_helpers() {
        let config = ManagedSessionConfig {
            ticks: 100,
            cluster: ClusterConfig {
                cost_noise: 0.0,
                ..ClusterConfig::default()
            },
            ..ManagedSessionConfig::default()
        };
        let policy = Box::new(ModelDriven::new(
            rough_model(),
            ModelDrivenConfig::default(),
        ));
        let workload = Ramp {
            from: 0,
            to: 10,
            duration_secs: 1.0,
        };
        let report = run_session(config, policy, &workload);
        assert!(report.violation_rate() >= 0.0 && report.violation_rate() <= 1.0);
        assert_eq!(report.sampled(10).len(), 10);
    }

    /// A 400-tick drift session: an attack surge with 60 NPCs at tick 150.
    fn drift_config() -> ManagedSessionConfig {
        ManagedSessionConfig {
            ticks: 400,
            max_churn_per_tick: 3,
            cluster: ClusterConfig {
                cost_noise: 0.0,
                ..ClusterConfig::default()
            },
            shift: Some(RegimeShift::attack_surge(150, 60)),
            ..ManagedSessionConfig::default()
        }
    }

    /// The frozen arm: the seed model as reference and policy model.
    fn run_frozen(to: u32) -> SessionReport {
        let config = ManagedSessionConfig {
            reference_model: Some(rough_model()),
            ..drift_config()
        };
        let policy = Box::new(ModelDriven::new(
            rough_model(),
            ModelDrivenConfig::default(),
        ));
        let workload = Ramp {
            from: 0,
            to,
            duration_secs: to as f64 / 10.0,
        };
        run_session(config, policy, &workload)
    }

    #[test]
    fn shift_lands_in_history() {
        let report = run_frozen(40);
        assert_eq!(report.history.len(), 400);
        let before = report.history.iter().find(|h| h.tick == 149).unwrap();
        let after = report.history.iter().find(|h| h.tick == 151).unwrap();
        assert_eq!(before.npcs, 0, "no NPCs before the shift");
        assert_eq!(after.npcs, 60, "NPC surge visible in the stats");
        assert_eq!(report.final_model_version, 0);
        assert!(report.refits.is_empty(), "frozen arm never refits");
    }

    #[test]
    fn frozen_arm_records_reference_predictions() {
        let report = run_frozen(40);
        assert!(
            report.history.iter().any(|h| h.predicted_tick > 0.0),
            "the frozen reference model annotates predictions"
        );
        assert!(!report.prediction_errors().is_empty());
    }

    #[test]
    fn online_arm_versions_advance() {
        let workload = Ramp {
            from: 0,
            to: 40,
            duration_secs: 4.0,
        };
        let mut cal = CalibratorConfig {
            refit_interval_ticks: 100,
            ..Default::default()
        };
        cal.registry.cooldown_ticks = 50;
        let calibrator = OnlineCalibrator::new(rough_model(), cal);
        let policy = Box::new(ModelDriven::live(
            calibrator.registry(),
            ModelDrivenConfig::default(),
        ));
        let config = ManagedSessionConfig {
            autocal: Some(calibrator),
            ..drift_config()
        };
        let report = run_session(config, policy, &workload);
        assert!(
            report.history.iter().all(|h| h.model_version >= 1),
            "live runs always have a registry version"
        );
        assert!(
            !report.refits.is_empty(),
            "the calibrator attempted refits on cadence"
        );
        assert!(report.final_model_version >= 1);
    }

    #[test]
    fn drift_sessions_are_deterministic() {
        let run = || {
            run_frozen(30)
                .history
                .iter()
                .map(|h| (h.users, h.max_tick_duration, h.npcs))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
