//! Cross-policy behaviour: the claims of §IV/§VI, checked on live sessions.

use roia::model::{CostFn, ModelParams, ScalabilityModel};
use roia::net::NodeId;
use roia::rms::{
    Action, ModelDriven, ModelDrivenConfig, Policy, StaticInterval, StaticThreshold, ZoneSnapshot,
};
use roia::sim::{run_session, ClusterConfig, ManagedSessionConfig, Ramp, SessionReport};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fixed model (matching the calibrated demo rates) so these tests skip
/// the measurement campaign.
fn model() -> ScalabilityModel {
    let params = ModelParams {
        t_ua_dser: CostFn::Linear {
            c0: 2.7e-6,
            c1: 3.8e-9,
        },
        t_ua: CostFn::Quadratic {
            c0: 1.2e-4,
            c1: 3.6e-8,
            c2: 1.4e-10,
        },
        t_aoi: CostFn::Quadratic {
            c0: 1.0e-7,
            c1: 1.4e-9,
            c2: 2.0e-10,
        },
        t_su: CostFn::Linear {
            c0: 8.0e-8,
            c1: 6.2e-8,
        },
        t_fa_dser: CostFn::Linear {
            c0: 2.0e-6,
            c1: 1e-10,
        },
        t_fa: CostFn::Linear {
            c0: 1.2e-5,
            c1: 1e-10,
        },
        t_npc: CostFn::ZERO,
        t_mig_ini: CostFn::Linear {
            c0: 2.0e-4,
            c1: 7.0e-6,
        },
        t_mig_rcv: CostFn::Linear {
            c0: 1.5e-4,
            c1: 4.0e-6,
        },
    };
    ScalabilityModel::new(params, 0.040)
}

fn run(policy: Box<dyn Policy>, peak: u32, initial_servers: u32) -> SessionReport {
    // A gentle ramp (the paper's sessions grow by a few users per second):
    // fast enough to need scaling, slow enough that the 2 s machine boot
    // delay is coverable by the 80 % trigger's headroom.
    let workload = Ramp {
        from: 0,
        to: peak,
        duration_secs: 25.0,
    };
    let config = ManagedSessionConfig {
        ticks: 35 * 25,
        max_churn_per_tick: 3,
        initial_servers,
        cluster: ClusterConfig {
            cost_noise: 0.0,
            ..ClusterConfig::default()
        },
        ..ManagedSessionConfig::default()
    };
    run_session(config, policy, &workload)
}

/// Wraps a policy and tallies the users it asks to move between replicas
/// that stay: load balancing. Users moved off a replica the policy then
/// shuts down were consolidation (§IV "resource removal"), a different
/// decision, and leave the tally with their source.
struct Rebalanced {
    inner: Box<dyn Policy>,
    by_source: BTreeMap<NodeId, u64>,
    total: Arc<AtomicU64>,
}

impl Policy for Rebalanced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, snapshot: &ZoneSnapshot, now_tick: u64) -> Vec<Action> {
        let actions = self.inner.decide(snapshot, now_tick);
        for action in &actions {
            match action {
                Action::Migrate { from, users, .. } => {
                    *self.by_source.entry(*from).or_default() += u64::from(*users);
                }
                Action::RemoveReplica { server, .. } => {
                    self.by_source.remove(server);
                }
                _ => {}
            }
        }
        let total = self.by_source.values().sum();
        self.total.store(total, Ordering::Relaxed);
        actions
    }

    fn set_tracer(&mut self, tracer: roia::obs::Tracer) {
        self.inner.set_tracer(tracer);
    }
}

/// Runs `policy` and returns the report with its load-balancing tally.
fn run_rebalanced(policy: Box<dyn Policy>, peak: u32, servers: u32) -> (SessionReport, u64) {
    let total = Arc::new(AtomicU64::new(0));
    let wrapped = Rebalanced {
        inner: policy,
        by_source: BTreeMap::new(),
        total: Arc::clone(&total),
    };
    let report = run(Box::new(wrapped), peak, servers);
    (report, total.load(Ordering::Relaxed))
}

#[test]
fn model_driven_paces_migrations() {
    // Two servers, imbalanced arrivals are rebalanced continuously by the
    // static baseline but paced by the model-driven policy.
    //
    // `SessionReport::migrations` is a lifetime total since the
    // `Cluster::total_migrations` fix: it keeps a removed replica's share,
    // and so shows what the live-servers-only sum used to drop: 120 users
    // fit one server, the default policy consolidates from the first round
    // and drains 118 users off the replica it then removes, where the
    // baseline (which never removes) moves none. That is the price of the
    // removal, not of balancing, so the comparison is on the rebalancing
    // share of what each policy asked for.
    let m = model();
    let (md, md_rebalanced) = run_rebalanced(
        Box::new(ModelDriven::new(m, ModelDrivenConfig::default())),
        120,
        2,
    );
    let (si, si_rebalanced) = run_rebalanced(Box::new(StaticInterval::new(10_000)), 120, 2);
    assert!(
        md_rebalanced <= si_rebalanced,
        "model-driven must not rebalance more than the every-round equalizer: \
         {md_rebalanced} vs {si_rebalanced} (lifetime totals {} vs {})",
        md.migrations,
        si.migrations
    );
    // Everything else the model-driven policy moved went off the replica
    // it shut down; the survivor holds the whole population.
    assert_eq!(md.replicas_removed, 1);
    assert!(
        md.migrations <= 120,
        "the drain moves each user at most once: {}",
        md.migrations
    );
    assert_eq!(md.history.last().unwrap().users, 120);
}

#[test]
fn model_driven_scales_before_saturation() {
    let m = model();
    let trigger = m.replication_trigger(1, 0);
    let report = run(
        Box::new(ModelDriven::new(m, ModelDrivenConfig::default())),
        trigger + 30,
        1,
    );
    assert!(
        report.replicas_added >= 1,
        "trigger crossed ⇒ replica added"
    );
    assert!(
        report.violation_rate() < 0.05,
        "scaling prevented violations: {:.2} %",
        report.violation_rate() * 100.0
    );
}

#[test]
fn static_threshold_reacts_too_late() {
    // Give the baseline the same nominal capacity number the model
    // computed; because it ignores tick duration it keeps stuffing users
    // into the saturating server (235-ish), while the model-driven policy
    // scaled at 80 %.
    let m = model();
    let n1 = m.max_users(1, 0);
    let st = run(Box::new(StaticThreshold::new(n1)), n1 + 20, 1);
    let md = run(
        Box::new(ModelDriven::new(m, ModelDrivenConfig::default())),
        n1 + 20,
        1,
    );
    assert!(
        st.violations > md.violations,
        "static threshold must violate more: {} vs {}",
        st.violations,
        md.violations
    );
}

#[test]
fn removal_shrinks_the_deployment() {
    // Start with three replicas and a small population: the model-driven
    // policy drains and removes the surplus machines.
    let m = model();
    let workload = Ramp {
        from: 30,
        to: 30,
        duration_secs: 1.0,
    };
    let config = ManagedSessionConfig {
        ticks: 15 * 25,
        max_churn_per_tick: 10,
        initial_servers: 3,
        cluster: ClusterConfig {
            cost_noise: 0.0,
            ..ClusterConfig::default()
        },
        ..ManagedSessionConfig::default()
    };
    let report = run_session(
        config,
        Box::new(ModelDriven::new(m, ModelDrivenConfig::default())),
        &workload,
    );
    assert!(
        report.replicas_removed >= 1,
        "underutilized replicas removed"
    );
    assert_eq!(
        report.history.last().unwrap().users,
        30,
        "no user lost during the shrink"
    );
    assert!(
        report.history.last().unwrap().servers < 3,
        "deployment actually shrank"
    );
}

#[test]
fn model_driven_scales_ahead_of_fast_ramps() {
    // Arrivals faster than the machine boot delay eat the 20 % trigger
    // headroom before a replica requested on the count alone is ready.
    // The trigger reads the linear-trend forecast one boot delay ahead
    // and scales in time.
    use roia::sim::PaperSession;

    let fast = PaperSession {
        peak: 280,
        ramp_up_secs: 10.0,
        hold_secs: 10.0,
        ramp_down_secs: 5.0,
    };
    let config = ManagedSessionConfig {
        ticks: 25 * 25,
        max_churn_per_tick: 3,
        cluster: ClusterConfig {
            cost_noise: 0.0,
            ..ClusterConfig::default()
        },
        ..ManagedSessionConfig::default()
    };
    let report = run_session(
        config,
        Box::new(ModelDriven::new(model(), ModelDrivenConfig::default())),
        &fast,
    );
    assert!(
        report.violations <= 1,
        "the forecast trigger keeps a fast ramp under U: {} violations",
        report.violations
    );
    assert!(report.replicas_added >= 1);
}
