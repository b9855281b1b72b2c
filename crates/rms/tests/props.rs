//! Property-based tests of the policies and the controller: every policy
//! must emit *executable* actions (no self-migrations, no migrations
//! exceeding the source population, only servers that exist), and retries
//! stay within their budget. The resource pool's accounting properties
//! sit beside the pool, in the crate's unit tests.

use roia_model::{CostFn, ModelParams, ScalabilityModel};
use roia_rng::{check, Rng, Xoshiro256pp};
use rtf_core::net::NodeId;
use rtf_core::zone::ZoneId;
use rtf_rms::{
    Action, ActionOutcome, ControllerConfig, ModelDriven, ModelDrivenConfig, Policy, RmsController,
    ServerSnapshot, StaticInterval, StaticThreshold, ZoneSnapshot,
};

fn model() -> ScalabilityModel {
    let params = ModelParams {
        t_ua: CostFn::Linear { c0: 1e-4, c1: 1e-7 },
        t_fa: CostFn::Constant(1e-5),
        t_mig_ini: CostFn::Linear { c0: 2e-4, c1: 7e-6 },
        t_mig_rcv: CostFn::Linear {
            c0: 1.5e-4,
            c1: 4e-6,
        },
        ..ModelParams::default()
    };
    ScalabilityModel::new(params, 0.040)
}

/// One to seven servers, each with up to 399 users and a tick below 60 ms.
fn arb_snapshot(rng: &mut Xoshiro256pp) -> ZoneSnapshot {
    ZoneSnapshot {
        zone: ZoneId(1),
        npcs: 0,
        servers: (0..rng.gen_range(1..8))
            .map(|i| {
                let tick = rng.gen_range(0.0..0.06);
                ServerSnapshot {
                    server: NodeId(i),
                    active_users: rng.gen_range(0..400),
                    avg_tick: tick,
                    max_tick: tick * 1.2,
                    speedup: 1.0,
                }
            })
            .collect(),
    }
}

/// Checks that every action a policy emits could actually be executed
/// against the snapshot it was derived from.
fn assert_actions_valid(snapshot: &ZoneSnapshot, actions: &[Action]) {
    let ids: Vec<NodeId> = snapshot.servers.iter().map(|s| s.server).collect();
    let mut outgoing = std::collections::BTreeMap::<NodeId, u32>::new();
    for action in actions {
        match *action {
            Action::Migrate { from, to, users } => {
                assert_ne!(from, to, "no self-migration");
                assert!(users > 0, "empty migration is noise");
                assert!(ids.contains(&from), "source exists");
                assert!(ids.contains(&to), "target exists");
                *outgoing.entry(from).or_insert(0) += users;
            }
            Action::AddReplica { zone } | Action::Substitute { zone, .. } => {
                assert_eq!(zone, snapshot.zone);
            }
            Action::RemoveReplica { zone, server } => {
                assert_eq!(zone, snapshot.zone);
                assert!(ids.contains(&server));
            }
        }
    }
    for (from, moved) in outgoing {
        let have = snapshot.server(from).unwrap().active_users;
        assert!(
            moved <= have,
            "cannot migrate {moved} users out of a server holding {have}"
        );
    }
}

/// Always wants one more replica — scale-up pressure for the retry tests.
struct AlwaysGrow;

impl Policy for AlwaysGrow {
    fn name(&self) -> &'static str {
        "always-grow"
    }

    fn decide(&mut self, snapshot: &ZoneSnapshot, _now_tick: u64) -> Vec<Action> {
        vec![Action::AddReplica {
            zone: snapshot.zone,
        }]
    }
}

/// One loaded standard server — enough for escalation to find a
/// substitution target.
fn grow_snapshot() -> ZoneSnapshot {
    ZoneSnapshot {
        zone: ZoneId(1),
        npcs: 0,
        servers: vec![ServerSnapshot {
            server: NodeId(0),
            active_users: 50,
            avg_tick: 0.03,
            max_tick: 0.035,
            speedup: 1.0,
        }],
    }
}

#[test]
fn model_driven_actions_are_valid() {
    check(96, |rng| {
        let snapshot = arb_snapshot(rng);
        let rounds = rng.gen_range(1usize..4);
        let mut policy = ModelDriven::new(model(), ModelDrivenConfig::default());
        for round in 0..rounds {
            let actions = policy.decide(&snapshot, round as u64 * 25);
            assert_actions_valid(&snapshot, &actions);
        }
    });
}

#[test]
fn static_interval_actions_are_valid() {
    check(96, |rng| {
        let snapshot = arb_snapshot(rng);
        let mut policy = StaticInterval::new(200);
        let actions = policy.decide(&snapshot, 0);
        assert_actions_valid(&snapshot, &actions);
    });
}

#[test]
fn static_threshold_actions_are_valid() {
    check(96, |rng| {
        let snapshot = arb_snapshot(rng);
        let cap = rng.gen_range(1u32..400);
        let mut policy = StaticThreshold::new(cap);
        let actions = policy.decide(&snapshot, 0);
        assert_actions_valid(&snapshot, &actions);
    });
}

#[test]
fn static_interval_fully_equalizes() {
    check(96, |rng| {
        let users = (0..rng.gen_range(2..6))
            .map(|_| rng.gen_range(0u32..300))
            .collect::<Vec<_>>();
        let snapshot = ZoneSnapshot {
            zone: ZoneId(1),
            npcs: 0,
            servers: users
                .iter()
                .enumerate()
                .map(|(i, &u)| ServerSnapshot {
                    server: NodeId(i as u32),
                    active_users: u,
                    avg_tick: 0.02,
                    max_tick: 0.02,
                    speedup: 1.0,
                })
                .collect(),
        };
        let mut policy = StaticInterval::new(u32::MAX);
        let actions = policy.decide(&snapshot, 0);
        // Apply the migrations: the result must be within 1 of the average.
        let mut state = users.clone();
        for a in &actions {
            if let Action::Migrate { from, to, users } = a {
                state[from.0 as usize] -= users;
                state[to.0 as usize] += users;
            }
        }
        let n: u32 = state.iter().sum();
        let avg = n / state.len() as u32;
        for &u in &state {
            assert!(
                u + 1 >= avg && u <= avg + 1 + n % state.len() as u32,
                "not equalized: {state:?} (avg {avg})"
            );
        }
    });
}

/// The controller's retry budget: a failed scale-up is retried twice.
const MAX_RETRIES: u32 = 2;

#[test]
fn retry_ledger_bounds_attempts_and_backoff_is_monotone() {
    check(96, |rng| {
        let config = ControllerConfig {
            control_interval_ticks: rng.gen_range(1u64..50),
            ..ControllerConfig::default()
        };
        // Each attempt is refused, fails to boot, or never reports back.
        let outcome = [
            Some(ActionOutcome::Rejected),
            Some(ActionOutcome::Failed),
            None,
        ][rng.gen_range(0usize..3)];
        let mut c = RmsController::new(Box::new(AlwaysGrow), config);
        let snapshot = grow_snapshot();
        // Fail everything the controller issues until it gives up: one
        // escalation chain, ended by abandonment.
        let mut now = 0u64;
        while !c.is_degraded(now) && now < 100_000 {
            for issued in c.control(&snapshot, now) {
                if let Some(outcome) = outcome {
                    c.report(issued.id, outcome, now);
                }
            }
            now += 5;
        }

        let entries = c.log().entries();
        assert!(!entries.is_empty());
        // No action is ever retried past the budget.
        for e in entries {
            assert!(
                e.attempt <= MAX_RETRIES,
                "attempt {} exceeds the retry budget",
                e.attempt
            );
        }
        // Within each retry chain the issue-to-issue gap (exponential
        // backoff, rounded up to the control cadence) never shrinks.
        for kind in ["add_replica", "substitute"] {
            let ticks: Vec<u64> = entries
                .iter()
                .filter(|e| e.action.kind() == kind)
                .map(|e| e.tick)
                .collect();
            let gaps: Vec<u64> = ticks.windows(2).map(|w| w[1] - w[0]).collect();
            for pair in gaps.windows(2) {
                assert!(
                    pair[1] >= pair[0],
                    "{kind} backoff not monotone: issue ticks {ticks:?}"
                );
            }
        }
        // The chain ran to its explicit end: escalation, then abandonment.
        assert_eq!(c.log().count_outcome(ActionOutcome::Escalated), 1);
        assert_eq!(c.log().count_outcome(ActionOutcome::Abandoned), 1);
        assert!(c.is_degraded(now), "scale-ups disabled after abandonment");
        assert_eq!(c.log().unresolved().count(), 0);
    });
}
