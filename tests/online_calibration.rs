//! Acceptance test for the online-calibration subsystem: under a
//! mid-session regime shift (attack frequency doubles, an NPC surge
//! lands) the online-calibrated controller keeps the worst tick at or
//! under U = 40 ms once its refits settle, while the frozen offline
//! model's tick-time predictions drift away from the observations — and
//! the registry never swaps in a fit that fails the quality gates.

use roia::autocal::{
    CalibratorConfig, CandidateFit, FitPath, ModelRegistry, OnlineCalibrator, ParamRefit,
    PublishOutcome, RefitReason, RegistryConfig,
};
use roia::model::{CostFn, ModelParams, ParamKind, ScalabilityModel};
use roia::rms::{ModelDriven, ModelDrivenConfig};
use roia::sim::drift::RegimeShift;
use roia::sim::{run_session, ClusterConfig, ManagedSessionConfig, Ramp, SessionReport};

const U_THRESHOLD: f64 = 0.040;
/// The shift lands here (ticks).
const SHIFT_TICK: u64 = 1_000;
/// Session length: enough post-shift room for refits and boots to settle.
const TICKS: u64 = 2_600;
/// Refits and replica boots get this long to land before we judge.
const SETTLE_TICKS: u64 = 600;
/// The frozen model's mean relative tick-prediction error after the shift
/// must exceed this margin (the online arm must stay below it).
const FROZEN_ERROR_MARGIN: f64 = 0.20;

/// A hand-built model matching the default cost rates at small
/// populations (same shape the sim/session tests use).
fn seed_model() -> ScalabilityModel {
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
    ScalabilityModel::new(params, U_THRESHOLD)
}

/// The drift session both arms run; each adds its model source.
fn drift_session() -> ManagedSessionConfig {
    ManagedSessionConfig {
        ticks: TICKS,
        max_churn_per_tick: 3,
        cluster: ClusterConfig {
            cost_noise: 0.0, // deterministic dynamics
            ..ClusterConfig::default()
        },
        shift: Some(RegimeShift::attack_surge(SHIFT_TICK, 150)),
        ..ManagedSessionConfig::default()
    }
}

fn run_arm(config: ManagedSessionConfig, policy: ModelDriven) -> SessionReport {
    let workload = Ramp {
        from: 0,
        to: 120,
        duration_secs: 30.0,
    };
    run_session(config, Box::new(policy), &workload)
}

fn online_calibration() -> CalibratorConfig {
    let mut config = CalibratorConfig {
        refit_interval_ticks: 200,
        ..CalibratorConfig::default()
    };
    config.registry.cooldown_ticks = 100;
    config
}

#[test]
fn online_controller_holds_u_where_frozen_model_drifts() {
    let frozen = run_arm(
        ManagedSessionConfig {
            reference_model: Some(seed_model()),
            ..drift_session()
        },
        ModelDriven::new(seed_model(), ModelDrivenConfig::default()),
    );
    let calibrator = OnlineCalibrator::new(seed_model(), online_calibration());
    let policy = ModelDriven::live(calibrator.registry(), ModelDrivenConfig::default());
    let online = run_arm(
        ManagedSessionConfig {
            autocal: Some(calibrator),
            ..drift_session()
        },
        policy,
    );

    let judge_from = SHIFT_TICK + SETTLE_TICKS;
    let frozen_err = frozen.mean_prediction_error(judge_from, TICKS);
    let online_err = online.mean_prediction_error(judge_from, TICKS);
    let online_worst = online.max_tick_from(judge_from);

    println!(
        "frozen: post-shift err {:.3}, worst tick {:.2} ms",
        frozen_err,
        frozen.max_tick_from(judge_from) * 1e3
    );
    println!(
        "online: post-shift err {:.3}, worst tick {:.2} ms, version {}, published {}",
        online_err,
        online_worst * 1e3,
        online.final_model_version,
        online.published_refits()
    );

    // The frozen offline calibration no longer describes the workload:
    // its tick predictions are off by more than the stated margin.
    assert!(
        frozen_err > FROZEN_ERROR_MARGIN,
        "frozen model should drift past {FROZEN_ERROR_MARGIN}: {frozen_err:.3}"
    );

    // The online arm refit its way back under the margin...
    assert!(
        online_err < FROZEN_ERROR_MARGIN,
        "online model should track the new regime: {online_err:.3}"
    );
    assert!(
        online_err < frozen_err,
        "online must beat frozen: {online_err:.3} vs {frozen_err:.3}"
    );
    // ...because the registry actually published new versions.
    assert!(
        online.final_model_version >= 2,
        "at least one refit published: version {}",
        online.final_model_version
    );

    // And the controller it feeds kept the real-time constraint.
    assert!(
        online_worst <= U_THRESHOLD,
        "online-calibrated controller holds U after the shift: {:.2} ms",
        online_worst * 1e3
    );
}

#[test]
fn registry_never_swaps_in_a_gate_failing_fit() {
    let registry = ModelRegistry::new(
        seed_model(),
        RegistryConfig {
            cooldown_ticks: 0,
            min_relative_change: 0.0,
        },
    );

    let bad_fit = |samples: usize, r_squared: f64, rmse: f64, mean_y: f64| {
        let cost_fn = CostFn::Linear { c0: 1e-3, c1: 1e-5 };
        let mut params = seed_model().params;
        params.set(ParamKind::Su, cost_fn.clone());
        CandidateFit {
            params,
            refits: vec![ParamRefit {
                kind: ParamKind::Su,
                cost_fn,
                samples,
                r_squared,
                rmse,
                mean_y,
                path: FitPath::Rls,
            }],
            reason: RefitReason::Drift, // drift bypasses cooldown, NOT gates
        }
    };

    // Too few samples.
    let outcome = registry.try_publish(bad_fit(3, 0.99, 1e-9, 1e-4), 10);
    assert!(
        matches!(outcome, PublishOutcome::RejectedQuality(..)),
        "{outcome:?}"
    );
    // Poor fit on both axes: low R² AND large relative RMSE.
    let outcome = registry.try_publish(bad_fit(100, 0.1, 5e-4, 1e-4), 20);
    assert!(
        matches!(outcome, PublishOutcome::RejectedQuality(..)),
        "{outcome:?}"
    );
    // Non-finite diagnostics.
    let outcome = registry.try_publish(bad_fit(100, f64::NAN, 1e-9, 1e-4), 30);
    assert!(
        matches!(outcome, PublishOutcome::RejectedQuality(..)),
        "{outcome:?}"
    );

    // Nothing above moved the registry.
    assert_eq!(registry.version(), 1, "seed version still current");
    assert_eq!(
        registry.model().params.t_su,
        seed_model().params.t_su,
        "seed parameters untouched"
    );
}
