//! The scalability-model-driven policy — the paper's improved RTF-RMS.
//!
//! Every decision consults the calibrated [`ScalabilityModel`]:
//!
//! * **user migration** is paced by Eq. (5): the most loaded server
//!   initiates at most `x_max_ini` migrations per control round and every
//!   target receives at most its `x_max_rcv` (Listing 1);
//! * **replication enactment** fires at 80 % of `n_max(l)` (Fig. 5's
//!   dashed line) and never beyond `l_max` (Eq. (3)). The trigger reads
//!   the larger of the current user count and its linear-trend forecast
//!   one boot delay ahead (after Nae et al. \[16\]): users arriving faster
//!   than a machine boots would otherwise eat the 20 % headroom before the
//!   new replica serves;
//! * **resource substitution** replaces a standard machine once `l_max` is
//!   reached, on the same forecast trigger;
//! * **resource removal** drains the least loaded replica (with paced
//!   migrations) once the population fits comfortably on `l − 1` servers.

use crate::actions::Action;
use crate::monitor::ZoneSnapshot;
use crate::policy::Policy;
use roia_autocal::ModelRegistry;
use roia_model::{MigrationSide, ScalabilityModel};
use roia_obs::{TraceEvent, Tracer};
use rtf_core::net::NodeId;
use std::collections::VecDeque;
use std::sync::Arc;

/// Remove a replica when `n` drops below this fraction of `n_max(l − 1)`
/// (hysteresis below the 80 % add-trigger, so the controller does not
/// flap).
const REMOVE_FRACTION: f64 = 0.6;
/// Control rounds to wait after requesting a replica before requesting
/// another (covers the machine's boot delay). Also the horizon of the
/// replication forecast, in rounds.
const REPLICA_COOLDOWN_ROUNDS: u32 = 4;
/// Control rounds of user counts the replication forecast fits its trend
/// to.
const FORECAST_WINDOW: usize = 8;
/// Ignore imbalance smaller than this many users.
const MIN_IMBALANCE: u32 = 4;

/// Tunables of the model-driven policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelDrivenConfig {
    /// Fraction of the tick-slack migration budget actually spent per
    /// round (0 < h ≤ 1). The Fig. 7 budgets divide the slack `U − T` by
    /// the *model's* per-user migration cost; when that estimate lags
    /// reality — right after a workload regime shift, before refits catch
    /// up — a full-budget burst overshoots `U`. Below 1 this hedges the
    /// budget so a cost underestimate of up to `1/h` still fits in the
    /// slack. `1.0` reproduces the paper's strict budgets.
    ///
    /// No caller in the tree sets it. It stays a field because the
    /// frozen performance ledger builds this struct as
    /// `ModelDrivenConfig { overload_migration_floor, ..default() }`,
    /// and without a second field that update syntax is a
    /// `clippy::needless_update` error.
    pub migration_headroom: f64,
    /// Minimum migrations per round allowed *off a server whose observed
    /// tick already exceeds `U`*. The Eq. (5) budget is zero there — no
    /// slack is left to pay for a migration — which deadlocks
    /// rebalancing exactly when it is most needed: an overloaded server
    /// can never shed users, so its tick never recovers. A floor of 1
    /// accepts one transiently worse tick per round to escape the
    /// overload. `0` reproduces the paper's strict budgets.
    ///
    /// Only the frozen performance ledger's `churn_full_stack` workload
    /// sets it; the field goes with the ledger change that drops that
    /// setting.
    pub overload_migration_floor: u32,
}

impl Default for ModelDrivenConfig {
    fn default() -> Self {
        Self {
            migration_headroom: 1.0,
            overload_migration_floor: 0,
        }
    }
}

/// Least-squares linear trend of the zone's user count over the last
/// [`FORECAST_WINDOW`] control rounds.
#[derive(Debug, Clone, Default)]
struct TrendForecaster {
    samples: VecDeque<(u64, u32)>,
}

impl TrendForecaster {
    /// Records one control round's user count. A round with no users
    /// restarts the window: the step from an empty zone to its first
    /// population is not an arrival trend.
    fn observe(&mut self, tick: u64, users: u32) {
        if users == 0 {
            self.samples.clear();
            return;
        }
        if self.samples.len() == FORECAST_WINDOW {
            self.samples.pop_front();
        }
        self.samples.push_back((tick, users));
    }

    /// Least-squares slope in users per tick (0.0 on a degenerate window).
    fn slope(&self) -> f64 {
        let nf = roia_model::convert::f64_from_usize(self.samples.len());
        let mean_t = self
            .samples
            .iter()
            .map(|&(t, _)| roia_model::convert::f64_from_u64(t))
            .sum::<f64>()
            / nf;
        let mean_u = self.samples.iter().map(|&(_, u)| f64::from(u)).sum::<f64>() / nf;
        let mut num = 0.0;
        let mut den = 0.0;
        for &(t, u) in &self.samples {
            let dt = roia_model::convert::f64_from_u64(t) - mean_t;
            num += dt * (f64::from(u) - mean_u);
            den += dt * dt;
        }
        if den <= 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// The user count [`REPLICA_COOLDOWN_ROUNDS`] rounds after the latest
    /// one, at the round spacing observed, clamped at zero. With fewer
    /// than two rounds it is the latest count (0 with none).
    fn forecast(&self) -> u32 {
        let (Some(&(first, _)), Some(&(last_tick, last))) =
            (self.samples.front(), self.samples.back())
        else {
            return 0;
        };
        if self.samples.len() < 2 {
            return last;
        }
        let rounds = roia_model::convert::f64_from_usize(self.samples.len() - 1);
        let spacing = roia_model::convert::f64_from_u64(last_tick.saturating_sub(first)) / rounds;
        let horizon = f64::from(REPLICA_COOLDOWN_ROUNDS) * spacing;
        roia_model::convert::round_u32(f64::from(last) + self.slope() * horizon)
    }
}

/// The model-driven policy (§IV).
pub struct ModelDriven {
    model: ScalabilityModel,
    /// Version of `model` when it came from a registry (0 = frozen).
    model_version: u64,
    /// Live model source, when online calibration feeds this policy.
    registry: Option<Arc<ModelRegistry>>,
    config: ModelDrivenConfig,
    draining: Option<NodeId>,
    cooldown_rounds_left: u32,
    replicas_last_round: u32,
    forecaster: TrendForecaster,
    tracer: Tracer,
}

impl ModelDriven {
    /// Creates the policy around a frozen calibrated model.
    pub fn new(model: ScalabilityModel, config: ModelDrivenConfig) -> Self {
        Self {
            model,
            model_version: 0,
            registry: None,
            config,
            draining: None,
            cooldown_rounds_left: 0,
            replicas_last_round: 0,
            forecaster: TrendForecaster::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Creates the policy against a live [`ModelRegistry`]: every decision
    /// uses the latest published model version instead of a frozen
    /// parameter set.
    pub fn live(registry: Arc<ModelRegistry>, config: ModelDrivenConfig) -> Self {
        let current = registry.current();
        Self {
            model: current.model.clone(),
            model_version: current.version,
            registry: Some(registry),
            config,
            draining: None,
            cooldown_rounds_left: 0,
            replicas_last_round: 0,
            forecaster: TrendForecaster::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// The model in use.
    pub fn model(&self) -> &ScalabilityModel {
        &self.model
    }

    /// Pulls the registry's latest version into the local model cache.
    /// No-op for a frozen policy; cheap (one atomic read) when nothing
    /// was published since the last call.
    fn refresh_model(&mut self) {
        if let Some(registry) = &self.registry {
            let current = registry.current();
            if current.version != self.model_version {
                self.model = current.model.clone();
                self.model_version = current.version;
            }
        }
    }

    /// The user count the replication trigger reads: `n`, or its forecast
    /// one boot delay ahead when that is larger.
    fn users_ahead(&self, n: u32) -> u32 {
        self.forecaster.forecast().max(n)
    }

    /// Applies the migration-headroom hedge to a raw slack budget.
    fn hedged(&self, raw: u32) -> u32 {
        roia_model::convert::floor_u32(f64::from(raw) * self.config.migration_headroom)
    }

    /// Audit-trail record of one decision with its Eq. 1–5 inputs
    /// plugged in (no-op when tracing is off).
    fn audit_decision(&self, snapshot: &ZoneSnapshot, now_tick: u64, kind: &'static str) {
        if !self.tracer.is_enabled() {
            return;
        }
        let l = snapshot.replicas();
        let n = snapshot.total_users();
        let m = snapshot.npcs;
        let n_max = self.model.max_users(l.max(1), m);
        self.tracer.emit(TraceEvent::Decision {
            tick: now_tick,
            zone: snapshot.zone.0,
            kind,
            model_version: self.model_version,
            replicas: l,
            users: n,
            forecast_users: self.users_ahead(n),
            npcs: m,
            predicted_tick_s: self.model.tick(l.max(1), n, m, n.div_ceil(l.max(1))),
            n_max,
            trigger: self.model.replication_trigger(l.max(1), m),
            l_max: self.model.max_replicas(m).l_max,
        });
    }

    /// Audit-trail record of one Eq. 5 budget evaluation for a
    /// donor→receiver pair (no-op when tracing is off).
    fn audit_budget(
        &self,
        now_tick: u64,
        from: &crate::monitor::ServerSnapshot,
        to: &crate::monitor::ServerSnapshot,
        x_max_ini: u32,
        x_max_rcv: u32,
        granted: u32,
    ) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.emit(TraceEvent::MigrationBudget {
            tick: now_tick,
            cause: now_tick,
            from: from.server.0,
            to: to.server.0,
            from_tick_s: from.avg_tick,
            to_tick_s: to.avg_tick,
            x_max_ini,
            x_max_rcv,
            granted,
        });
    }

    /// Listing 1: one round of paced migrations from the most loaded server
    /// toward the underloaded ones. `exclude` removes a server (e.g. a
    /// draining one) from the target set.
    fn balance_round(&self, snapshot: &ZoneSnapshot, now_tick: u64, out: &mut Vec<Action>) {
        let n = snapshot.total_users();
        let l = snapshot.replicas();
        if l < 2 || n == 0 {
            return;
        }
        if snapshot.imbalance() < MIN_IMBALANCE {
            return;
        }
        let avg = n / l;
        let Some(s_max) = snapshot.most_loaded() else {
            return;
        };

        // (ii) the initiate budget of s_max, from its observed tick.
        let mut ini_left = self.hedged(roia_model::x_max_from_tick(
            &self.model.params,
            MigrationSide::Initiate,
            s_max.avg_tick,
            n,
            self.model.u_threshold,
        ));
        if s_max.avg_tick >= self.model.u_threshold {
            ini_left = ini_left.max(self.config.overload_migration_floor);
        }
        let mut surplus = s_max.active_users.saturating_sub(avg);

        for target in &snapshot.servers {
            if target.server == s_max.server || ini_left == 0 || surplus == 0 {
                continue;
            }
            let deficit = avg.saturating_sub(target.active_users);
            if deficit == 0 {
                continue;
            }
            // (iii) the receive budget of the target.
            let rcv = self.hedged(roia_model::x_max_from_tick(
                &self.model.params,
                MigrationSide::Receive,
                target.avg_tick,
                n,
                self.model.u_threshold,
            ));
            let k = deficit.min(rcv).min(ini_left).min(surplus);
            self.audit_budget(now_tick, s_max, target, ini_left, rcv, k);
            if k == 0 {
                continue;
            }
            out.push(Action::Migrate {
                from: s_max.server,
                to: target.server,
                users: k,
            });
            ini_left -= k;
            surplus -= k;
        }
    }

    /// Paced draining of a replica marked for removal.
    fn drain_round(
        &self,
        snapshot: &ZoneSnapshot,
        victim: NodeId,
        now_tick: u64,
        out: &mut Vec<Action>,
    ) {
        let Some(v) = snapshot.server(victim) else {
            return;
        };
        let n = snapshot.total_users();
        let mut ini_left = self.hedged(roia_model::x_max_from_tick(
            &self.model.params,
            MigrationSide::Initiate,
            v.avg_tick,
            n,
            self.model.u_threshold,
        ));
        if v.avg_tick >= self.model.u_threshold {
            ini_left = ini_left.max(self.config.overload_migration_floor);
        }
        let mut remaining = v.active_users;
        for target in &snapshot.servers {
            if target.server == victim || ini_left == 0 || remaining == 0 {
                continue;
            }
            let rcv = self.hedged(roia_model::x_max_from_tick(
                &self.model.params,
                MigrationSide::Receive,
                target.avg_tick,
                n,
                self.model.u_threshold,
            ));
            let k = remaining.min(rcv).min(ini_left);
            self.audit_budget(now_tick, v, target, ini_left, rcv, k);
            if k == 0 {
                continue;
            }
            out.push(Action::Migrate {
                from: victim,
                to: target.server,
                users: k,
            });
            ini_left -= k;
            remaining -= k;
        }
    }
}

impl Policy for ModelDriven {
    fn name(&self) -> &'static str {
        "model-driven"
    }

    fn decide(&mut self, snapshot: &ZoneSnapshot, now_tick: u64) -> Vec<Action> {
        self.refresh_model();
        let mut out = Vec::new();
        let n = snapshot.total_users();
        self.forecaster.observe(now_tick, n);
        let l = snapshot.replicas();
        if l == 0 {
            return out;
        }
        let m = snapshot.npcs;

        // A new replica joined: reset the cooldown.
        if l > self.replicas_last_round {
            self.cooldown_rounds_left = 0;
        }
        self.replicas_last_round = l;
        self.cooldown_rounds_left = self.cooldown_rounds_left.saturating_sub(1);

        // Continue an in-progress removal first: drain, then shut down.
        // But re-check the scale-down condition every round: a workload
        // shift (or a model refit) mid-drain can mean the zone no longer
        // fits on l − 1 servers, and finishing the drain would wedge the
        // cluster — the remaining servers go past U, their receive
        // budgets hit zero, and the drain can neither finish nor yield
        // to replication while it holds the policy. Abort instead.
        if self.draining.is_some()
            && (l < 2
                || f64::from(n) >= REMOVE_FRACTION * f64::from(self.model.max_users(l - 1, m)))
        {
            self.draining = None;
        }
        if let Some(victim) = self.draining {
            match snapshot.server(victim) {
                Some(v) if v.active_users == 0 => {
                    out.push(Action::RemoveReplica {
                        zone: snapshot.zone,
                        server: victim,
                    });
                    self.draining = None;
                    // The snapshot still lists the victim; further decisions
                    // wait until the next round sees the updated group.
                    self.audit_decision(snapshot, now_tick, "remove_replica");
                    return out;
                }
                Some(_) => {
                    self.drain_round(snapshot, victim, now_tick, &mut out);
                    self.audit_decision(snapshot, now_tick, "scale_down");
                    return out;
                }
                None => self.draining = None,
            }
        }

        let trigger = self.model.replication_trigger(l, m);
        let limit = self.model.max_replicas(m);

        if self.users_ahead(n) >= trigger && self.cooldown_rounds_left == 0 {
            if l < limit.l_max {
                out.push(Action::AddReplica {
                    zone: snapshot.zone,
                });
                self.cooldown_rounds_left = REPLICA_COOLDOWN_ROUNDS;
                self.audit_decision(snapshot, now_tick, "add_replica");
            } else {
                // l_max reached: substitute the most loaded standard
                // machine, if one is left (§IV).
                let candidate = snapshot
                    .servers
                    .iter()
                    .filter(|s| s.speedup <= 1.0)
                    .max_by_key(|s| s.active_users);
                if let Some(old) = candidate {
                    out.push(Action::Substitute {
                        zone: snapshot.zone,
                        old: old.server,
                    });
                    self.cooldown_rounds_left = REPLICA_COOLDOWN_ROUNDS;
                    self.audit_decision(snapshot, now_tick, "substitute");
                }
            }
        } else if l > 1 && self.draining.is_none() && self.cooldown_rounds_left == 0 {
            // Scale down when the population fits easily on l − 1 servers.
            let cap_smaller = self.model.max_users(l - 1, m);
            if f64::from(n) < REMOVE_FRACTION * f64::from(cap_smaller) {
                if let Some(least) = snapshot.least_loaded() {
                    self.draining = Some(least.server);
                    self.drain_round(snapshot, least.server, now_tick, &mut out);
                    self.audit_decision(snapshot, now_tick, "scale_down");
                    return out;
                }
            }
        }

        let before_balance = out.len();
        self.balance_round(snapshot, now_tick, &mut out);
        if out.is_empty() {
            self.audit_decision(snapshot, now_tick, "hold");
        } else if out.len() > before_balance && before_balance == 0 {
            self.audit_decision(snapshot, now_tick, "balance");
        }
        out
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::ServerSnapshot;
    use roia_model::{CostFn, ModelParams};
    use rtf_core::zone::ZoneId;

    impl ModelDriven {
        /// Version of the model in use (0 when frozen).
        pub(crate) fn model_version(&self) -> u64 {
            self.model_version
        }

        /// The server currently being drained for removal, if any.
        pub(crate) fn draining(&self) -> Option<NodeId> {
            self.draining
        }
    }

    /// A model with a known capacity: own cost 1e-4·u ⇒ n_max(1) = 399,
    /// trigger(1) = 319; migrations cost 1 ms each way.
    fn model() -> ScalabilityModel {
        let params = ModelParams {
            t_ua: CostFn::Constant(1e-4),
            t_fa: CostFn::Constant(2e-6),
            t_mig_ini: CostFn::Constant(1e-3),
            t_mig_rcv: CostFn::Constant(0.5e-3),
            ..ModelParams::default()
        };
        ScalabilityModel::new(params, 0.040)
    }

    fn snapshot(users: &[u32], ticks_ms: &[f64]) -> ZoneSnapshot {
        ZoneSnapshot {
            zone: ZoneId(1),
            npcs: 0,
            servers: users
                .iter()
                .zip(ticks_ms)
                .enumerate()
                .map(|(i, (&u, &t))| ServerSnapshot {
                    server: NodeId(i as u32),
                    active_users: u,
                    avg_tick: t * 1e-3,
                    max_tick: t * 1e-3,
                    speedup: 1.0,
                })
                .collect(),
        }
    }

    #[test]
    fn no_action_in_comfort_zone() {
        let mut p = ModelDriven::new(model(), ModelDrivenConfig::default());
        // Balanced, far below the trigger.
        let s = snapshot(&[50, 50], &[10.0, 10.0]);
        // But n=100 < 0.6 · n_max(1)=399·0.6=239 ⇒ removal kicks in! That is
        // correct behaviour; to test the comfort zone use a population in
        // the middle band.
        let s_mid = snapshot(&[150, 150], &[15.0, 15.0]);
        let _ = s;
        let actions = p.decide(&s_mid, 0);
        assert!(actions.is_empty(), "{actions:?}");
    }

    #[test]
    fn migration_budgets_respected() {
        let mut p = ModelDriven::new(model(), ModelDrivenConfig::default());
        // Heavy imbalance; s0 at 35 ms has budget (40−35)/1 ms = 4 (strict).
        let s = snapshot(&[180, 80], &[35.0, 15.0]);
        let actions = p.decide(&s, 0);
        let migrated: u32 = actions
            .iter()
            .map(|a| match a {
                Action::Migrate { from, users, .. } => {
                    assert_eq!(*from, NodeId(0));
                    *users
                }
                _ => 0,
            })
            .sum();
        assert!(migrated >= 1, "{actions:?}");
        assert!(migrated <= 4, "Eq. (5) caps the round at 4, got {migrated}");
    }

    #[test]
    fn overloaded_server_with_no_budget_cannot_migrate() {
        let mut p = ModelDriven::new(model(), ModelDrivenConfig::default());
        // Tick already past U ⇒ x_max_ini = 0 ⇒ no migrations (RTF-RMS
        // must escalate via replication instead — which it does, since
        // 330 ≥ trigger(2)).
        let s = snapshot(&[250, 80], &[41.0, 15.0]);
        let actions = p.decide(&s, 0);
        assert!(
            actions.iter().all(|a| !matches!(a, Action::Migrate { .. })),
            "{actions:?}"
        );
    }

    #[test]
    fn replication_fires_at_trigger() {
        let mut p = ModelDriven::new(model(), ModelDrivenConfig::default());
        let trigger = p.model().replication_trigger(1, 0);
        let s = snapshot(&[trigger], &[32.0]);
        let actions = p.decide(&s, 0);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::AddReplica { .. })),
            "n = trigger must enact replication: {actions:?}"
        );
    }

    #[test]
    fn below_trigger_no_replication() {
        let mut p = ModelDriven::new(model(), ModelDrivenConfig::default());
        let trigger = p.model().replication_trigger(1, 0);
        let s = snapshot(&[trigger - 1], &[30.0]);
        let actions = p.decide(&s, 0);
        assert!(actions
            .iter()
            .all(|a| !matches!(a, Action::AddReplica { .. })));
    }

    #[test]
    fn cooldown_prevents_replica_storm() {
        let mut p = ModelDriven::new(model(), ModelDrivenConfig::default());
        let s = snapshot(&[390], &[38.0]);
        let first = p.decide(&s, 0);
        assert_eq!(
            first
                .iter()
                .filter(|a| matches!(a, Action::AddReplica { .. }))
                .count(),
            1
        );
        // Immediately after, the cooldown suppresses another request.
        let second = p.decide(&s, 25);
        assert!(second
            .iter()
            .all(|a| !matches!(a, Action::AddReplica { .. })));
    }

    #[test]
    fn substitution_after_l_max() {
        // Force l_max = 1 by making replication useless (c = 1 and heavy
        // forwarded costs).
        let params = ModelParams {
            t_ua: CostFn::Constant(1e-4),
            t_fa: CostFn::Constant(1e-4),
            t_mig_ini: CostFn::Constant(1e-3),
            t_mig_rcv: CostFn::Constant(1e-3),
            ..ModelParams::default()
        };
        let model = ScalabilityModel::new(params, 0.040).with_improvement_factor(1.0);
        assert_eq!(model.max_replicas(0).l_max, 1);
        let mut p = ModelDriven::new(model, ModelDrivenConfig::default());
        let s = snapshot(&[390], &[39.0]);
        let actions = p.decide(&s, 0);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::Substitute { .. })),
            "at l_max the policy substitutes: {actions:?}"
        );
    }

    #[test]
    fn removal_drains_then_removes() {
        let mut p = ModelDriven::new(model(), ModelDrivenConfig::default());
        // Two replicas, tiny population: removal territory.
        let s = snapshot(&[30, 10], &[5.0, 3.0]);
        let actions = p.decide(&s, 0);
        assert!(p.draining().is_some(), "least loaded marked for draining");
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Migrate { from, .. } if *from == NodeId(1))));

        // Once drained, the replica is removed.
        let drained = snapshot(&[40, 0], &[6.0, 0.5]);
        let actions2 = p.decide(&drained, 25);
        assert!(
            actions2
                .iter()
                .any(|a| matches!(a, Action::RemoveReplica { server, .. } if *server == NodeId(1))),
            "{actions2:?}"
        );
        assert!(p.draining().is_none());
    }

    #[test]
    fn draining_server_disappearing_resets_state() {
        let mut p = ModelDriven::new(model(), ModelDrivenConfig::default());
        let s = snapshot(&[30, 10], &[5.0, 3.0]);
        p.decide(&s, 0);
        assert!(p.draining().is_some());
        // Next snapshot no longer contains the victim (sim removed it).
        let gone = snapshot(&[40], &[6.0]);
        p.decide(&gone, 25);
        assert!(p.draining().is_none());
    }

    #[test]
    fn live_policy_follows_registry_versions() {
        use roia_autocal::{
            CandidateFit, FitPath, ParamRefit, PublishOutcome, RefitReason, RegistryConfig,
        };
        let registry = Arc::new(ModelRegistry::new(
            model(),
            RegistryConfig {
                cooldown_ticks: 0,
                min_relative_change: 0.0,
            },
        ));
        let mut p = ModelDriven::live(registry.clone(), ModelDrivenConfig::default());
        assert_eq!(p.model_version(), 1);
        let trigger_v1 = p.model().replication_trigger(1, 0);

        // Publish a version where the per-user cost doubled: capacity (and
        // the trigger) halves.
        let doubled = CostFn::Constant(2e-4);
        let mut params = model().params;
        params.set(roia_model::ParamKind::Ua, doubled.clone());
        let outcome = registry.try_publish(
            CandidateFit {
                params,
                refits: vec![ParamRefit {
                    kind: roia_model::ParamKind::Ua,
                    cost_fn: doubled,
                    samples: 100,
                    r_squared: 0.99,
                    rmse: 1e-6,
                    mean_y: 2e-4,
                    path: FitPath::Rls,
                }],
                reason: RefitReason::Drift,
            },
            10,
        );
        assert!(matches!(outcome, PublishOutcome::Published { version: 2 }));

        // The next decision runs on the new model.
        let s = snapshot(&[trigger_v1 - 50], &[30.0]);
        let actions = p.decide(&s, 0);
        assert_eq!(p.model_version(), 2);
        let trigger_v2 = p.model().replication_trigger(1, 0);
        assert!(trigger_v2 < trigger_v1);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::AddReplica { .. })),
            "below the stale trigger but above the live one: {actions:?}"
        );
    }

    #[test]
    fn forecaster_learns_linear_trend() {
        let mut f = TrendForecaster::default();
        for i in 0..8u64 {
            f.observe(i * 25, (10 + i * 5) as u32); // +5 users per 25 ticks
        }
        assert!((f.slope() - 0.2).abs() < 1e-9, "slope {}", f.slope());
        // Four rounds of 25 ticks ahead of the latest 45: +20.
        assert_eq!(f.forecast(), 45 + 20);
    }

    #[test]
    fn forecaster_handles_flat_and_empty() {
        let mut f = TrendForecaster::default();
        assert_eq!(f.forecast(), 0);
        f.observe(0, 50);
        assert_eq!(f.forecast(), 50, "single sample: no trend");
        f.observe(25, 50);
        assert_eq!(f.forecast(), 50, "flat");
        f.observe(50, 0);
        assert_eq!(f.forecast(), 0, "an empty round restarts the window");
        f.observe(75, 400);
        assert_eq!(f.forecast(), 400, "the step from empty is no trend");
    }

    #[test]
    fn forecast_never_negative() {
        let mut f = TrendForecaster::default();
        for i in 0..8u64 {
            f.observe(i * 25, 100 - (i * 12) as u32);
        }
        assert_eq!(f.forecast(), 0);
    }

    #[test]
    fn replication_fires_ahead_of_a_climb() {
        // trigger(1) = 319 for this model. Population climbing 10/round,
        // currently 280: the count alone waits, the forecast (4 rounds of
        // 25 ticks ⇒ +40) fires now.
        let mut p = ModelDriven::new(model(), ModelDrivenConfig::default());
        for round in 0..8u64 {
            let users = 210 + round as u32 * 10; // 210 .. 280
            let actions = p.decide(&snapshot(&[users], &[users as f64 * 0.1]), round * 25);
            let added = actions
                .iter()
                .any(|a| matches!(a, Action::AddReplica { .. }));
            assert_eq!(added, round == 7, "round {round}: {actions:?}");
        }
    }

    #[test]
    fn flat_load_holds() {
        let mut p = ModelDriven::new(model(), ModelDrivenConfig::default());
        for round in 0..10u64 {
            let actions = p.decide(&snapshot(&[150], &[15.0]), round * 25);
            assert!(
                actions.is_empty(),
                "flat mid-range load needs nothing: {actions:?}"
            );
        }
    }

    #[test]
    fn an_empty_round_then_a_flat_population_adds_no_replica() {
        // 0 users, then 400 flat on 4 replicas. Read as a trend, the step
        // is 16 users/tick and forecasts 2 000, past trigger(4). The
        // per-user cost puts 400 between the scale-down line and the
        // trigger, so only the forecast could act.
        let params = ModelParams {
            t_ua: CostFn::Constant(2.5e-4),
            ..model().params
        };
        let model = ScalabilityModel::new(params, 0.040);
        let trigger = model.replication_trigger(4, 0);
        assert!(400 < trigger && trigger < 2000, "trigger(4) = {trigger}");
        assert!(f64::from(model.max_users(3, 0)) * REMOVE_FRACTION <= 400.0);
        let mut p = ModelDriven::new(model, ModelDrivenConfig::default());
        let empty = snapshot(&[0; 4], &[0.5; 4]);
        let flat = snapshot(&[100; 4], &[10.0; 4]);
        p.decide(&empty, 0);
        for round in 1..12u64 {
            let actions = p.decide(&flat, round * 25);
            assert!(
                actions
                    .iter()
                    .all(|a| !matches!(a, Action::AddReplica { .. })),
                "round {round}: {actions:?}"
            );
        }
    }

    #[test]
    fn no_migration_exceeds_the_donors_real_count() {
        // Two servers, climbing load near the trigger: any Migrate emitted
        // must be executable against the snapshot.
        let mut p = ModelDriven::new(model(), ModelDrivenConfig::default());
        for round in 0..10u64 {
            let users = 240 + round as u32 * 12;
            let snap = snapshot(&[users, users / 3], &[30.0, 12.0]);
            for action in p.decide(&snap, round * 25) {
                if let Action::Migrate {
                    from, users: moved, ..
                } = action
                {
                    let have = snap.server(from).unwrap().active_users;
                    assert!(moved <= have, "migration of {moved} > {have}");
                }
            }
        }
    }

    #[test]
    fn a_pre_provisioning_round_audits_one_decision_and_the_budgets_it_spends() {
        let (tracer, ring) = Tracer::ring(1 << 12);
        let mut p = ModelDriven::new(model(), ModelDrivenConfig::default());
        p.set_tracer(tracer);
        let trigger = p.model().replication_trigger(2, 0);
        // Climbing 10/round toward trigger(2): the forecast (+40) crosses
        // it while the count is 31 short.
        let (mut last, mut now) = (Vec::new(), 0);
        for round in 0..8u64 {
            let users = trigger - 71 + round as u32 * 10;
            let snap = snapshot(&[users * 2 / 3, users - users * 2 / 3], &[30.0, 15.0]);
            now = round * 25;
            last = p.decide(&snap, now);
            if last.iter().any(|a| matches!(a, Action::AddReplica { .. })) {
                break;
            }
        }
        assert_eq!(now, 4 * 25, "{last:?}");
        let events: Vec<TraceEvent> = ring.lock().unwrap().drain();
        let decisions: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Decision {
                    tick,
                    kind,
                    users,
                    forecast_users,
                    trigger: t,
                    ..
                } if *tick == now => Some((*kind, *users, *forecast_users, *t)),
                _ => None,
            })
            .collect();
        assert_eq!(
            decisions,
            vec![("add_replica", trigger - 31, trigger + 9, trigger)]
        );
        let mut issued: Vec<(u32, u32, u32)> = last
            .iter()
            .filter_map(|a| match a {
                Action::Migrate { from, to, users } => Some((from.0, to.0, *users)),
                _ => None,
            })
            .collect();
        let mut granted: Vec<(u32, u32, u32)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::MigrationBudget {
                    tick,
                    from,
                    to,
                    granted,
                    ..
                } if *tick == now && *granted > 0 => Some((*from, *to, *granted)),
                _ => None,
            })
            .collect();
        issued.sort_unstable();
        granted.sort_unstable();
        assert!(!issued.is_empty(), "the round also rebalanced");
        assert_eq!(granted, issued);
    }

    #[test]
    fn small_imbalance_ignored() {
        let mut p = ModelDriven::new(model(), ModelDrivenConfig::default());
        let s = snapshot(&[151, 149], &[15.0, 15.0]);
        let actions = p.decide(&s, 0);
        assert!(
            actions.is_empty(),
            "imbalance of 2 < MIN_IMBALANCE: {actions:?}"
        );
    }
}
