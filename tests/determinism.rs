//! Determinism regression: the same seeded scenario, run twice, must
//! produce byte-identical JSONL traces and identical reports.
//!
//! This is the repo's operational definition of reproducibility — the
//! property roia-lint rules D1 (ordered containers) and D2 (no ambient
//! clocks/randomness) exist to protect. The double-run checker hashes
//! every trace event through a streaming FNV sink, so a single reordered
//! map iteration or wall-clock read anywhere in the pipeline flips the
//! digest.

use roia::model::{CostFn, ModelParams, ScalabilityModel};
use roia::rms::{ModelDriven, ModelDrivenConfig};
use roia::sim::drift::{run_drift_session, CalibrationMode, DriftSessionConfig, RegimeShift};
use roia::sim::invariants::double_run;
use roia::sim::{run_session, ClusterConfig, Ramp, SessionConfig, SessionReport};

fn model() -> ScalabilityModel {
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

fn assert_session_reports_identical(a: &SessionReport, b: &SessionReport) {
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(a.replicas_added, b.replicas_added);
    assert_eq!(a.replicas_removed, b.replicas_removed);
    assert_eq!(a.substitutions, b.substitutions);
    assert_eq!(a.total_cost, b.total_cost);
    assert_eq!(a.peak_servers, b.peak_servers);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.history, b.history, "per-tick series diverged");
    assert_eq!(
        a.metrics.prometheus(),
        b.metrics.prometheus(),
        "operator metrics diverged"
    );
}

#[test]
fn managed_session_is_deterministic_under_tracing() {
    let scenario = |tracer| {
        let workload = Ramp {
            from: 0,
            to: 90,
            duration_secs: 20.0,
        };
        let config = SessionConfig {
            ticks: 30 * 25,
            max_churn_per_tick: 3,
            initial_servers: 1,
            cluster: ClusterConfig {
                cost_noise: 0.0,
                ..ClusterConfig::default()
            },
            tracer,
            ..SessionConfig::default()
        };
        let policy = Box::new(ModelDriven::new(model(), ModelDrivenConfig::default()));
        run_session(config, policy, &workload)
    };

    let ((d1, r1), (d2, r2)) = double_run(scenario);
    assert!(d1.events > 0, "tracing produced no events to compare");
    assert_eq!(
        d1, d2,
        "same seed, different trace: {} vs {} events, digest {:#x} vs {:#x}",
        d1.events, d2.events, d1.hash, d2.hash
    );
    assert_session_reports_identical(&r1, &r2);
}

#[test]
fn drift_session_is_deterministic_under_tracing() {
    let scenario = |tracer| {
        let mut config = DriftSessionConfig::new(
            model(),
            RegimeShift::attack_surge(300, 150),
            CalibrationMode::Frozen,
        );
        config.ticks = 700;
        config.max_churn_per_tick = 3;
        config.cluster.cost_noise = 0.0;
        config.tracer = tracer;
        let workload = Ramp {
            from: 0,
            to: 80,
            duration_secs: 15.0,
        };
        run_drift_session(config, &workload)
    };

    let ((d1, r1), (d2, r2)) = double_run(scenario);
    assert!(d1.events > 0, "tracing produced no events to compare");
    assert_eq!(d1, d2, "same seed, different drift-session trace");
    assert_eq!(r1.mode, r2.mode);
    assert_eq!(r1.shift_tick, r2.shift_tick);
    assert_eq!(r1.violations, r2.violations);
    assert_eq!(r1.migrations, r2.migrations);
    assert_eq!(r1.final_model_version, r2.final_model_version);
    assert_eq!(r1.history, r2.history, "per-tick series diverged");
}

// --- Serial-vs-parallel trace equality (the worker-pool tick engine) ---
//
// Beyond run-to-run stability, the parallel engine must be *backend*
// deterministic: a session ticked by k worker threads has to produce the
// byte-identical trace of the serial run — chaos faults included. The
// engine buffers per-server traces and merges them in `NodeId` order,
// the bus defers all sends until the fan-out joins and flushes links in
// key order, and every server owns its RNG stream, so thread
// interleaving must never reach the observable history (see
// `roia_sim::parallel` for the full argument).

use roia::obs::Tracer;
use roia::sim::{Cluster, FaultPlan};

/// Runs one eventful session — joins, chaos faults, leaves — and returns
/// the trace digest (FNV-1a hash, event count).
fn session_digest(seed: u64, threads: usize) -> (u64, u64) {
    let config = ClusterConfig {
        seed,
        cost_noise: 0.05,
        threads,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config, 3);
    let (tracer, sink) = Tracer::hashing();
    cluster.set_tracer(tracer);
    cluster.set_chaos(FaultPlan::random(seed ^ 0x9e37_79b9, 0.35, 120));
    for _ in 0..40 {
        cluster.add_user();
    }
    cluster.run(30);
    for _ in 0..20 {
        cluster.add_user();
    }
    cluster.run(40);
    for _ in 0..10 {
        cluster.remove_user();
    }
    cluster.run(50);
    let guard = sink.lock().unwrap_or_else(|e| e.into_inner());
    (guard.hash(), guard.events())
}

#[test]
fn parallel_traces_match_serial_across_thread_counts() {
    for seed in [7, 1234] {
        let (serial_hash, serial_events) = session_digest(seed, 1);
        assert!(serial_events > 0, "the session must actually trace");
        for threads in [2, 4] {
            let (hash, events) = session_digest(seed, threads);
            assert_eq!(
                (hash, events),
                (serial_hash, serial_events),
                "trace diverged at seed {seed}, {threads} threads"
            );
        }
    }
}

/// `session_digest` under a permuted worker schedule.
fn scheduled_digest(seed: u64, threads: usize, schedule_seed: u64) -> (u64, u64) {
    let config = ClusterConfig {
        seed,
        cost_noise: 0.05,
        threads,
        schedule_seed,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config, 3);
    let (tracer, sink) = Tracer::hashing();
    cluster.set_tracer(tracer);
    cluster.set_chaos(FaultPlan::random(seed ^ 0x9e37_79b9, 0.35, 120));
    for _ in 0..40 {
        cluster.add_user();
    }
    cluster.run(30);
    for _ in 0..20 {
        cluster.add_user();
    }
    cluster.run(40);
    for _ in 0..10 {
        cluster.remove_user();
    }
    cluster.run(50);
    let guard = sink.lock().unwrap_or_else(|e| e.into_inner());
    (guard.hash(), guard.events())
}

#[test]
fn permuted_worker_schedules_produce_identical_traces() {
    // The schedule-permutation harness in miniature: the same seeded
    // session under eight different worker interleavings (spawn order,
    // chunk walk order and preemption points all perturbed) must hash to
    // the digest of the natural schedule. Any worker that reads sibling
    // state mid-fan-out, or any tracer that observes arrival order, would
    // flip at least one of these digests.
    let (natural_hash, natural_events) = scheduled_digest(7, 4, 0);
    assert!(natural_events > 0, "the session must actually trace");
    for schedule_seed in 1..=8u64 {
        let (hash, events) = scheduled_digest(7, 4, schedule_seed);
        assert_eq!(
            (hash, events),
            (natural_hash, natural_events),
            "trace diverged under schedule permutation {schedule_seed}"
        );
    }
}
