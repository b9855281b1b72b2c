//! The RTF-RMS control loop, hardened for a fallible substrate.
//!
//! Every control interval (one "second" of Eq. (5)'s per-second budgets)
//! the controller feeds the current [`ZoneSnapshot`] to its [`Policy`] and
//! issues the emitted actions. Unlike the paper's benign testbed, the
//! simulated cloud can refuse or fail an action — so each issued action
//! carries an [`ActionId`] and sits in a pending ledger until the session
//! driver reports its outcome via [`RmsController::report`]:
//!
//! * outcomes missing past a per-action timeout are marked
//!   [`ActionOutcome::TimedOut`];
//! * failed/rejected/timed-out scale-ups are retried with exponential
//!   backoff, at most [`MAX_RETRIES`] times;
//! * a replica boot that exhausts its retries escalates to a resource
//!   substitution ([`ActionOutcome::Escalated`]);
//! * a substitution that exhausts its retries is abandoned and the
//!   controller degrades gracefully: for a cooldown window it stops asking
//!   the broken cloud for machines and balances with migrations only.
//!
//! Migrations and removals are not retried — the next policy round
//! re-plans them from fresh load data, which beats replaying a stale plan.

use crate::actions::{Action, ActionId, ActionLog, ActionOutcome};
use crate::degraded::{Admission, DegradedConfig, DegradedMode, AOI_FIDELITY};
use crate::monitor::ZoneSnapshot;
use crate::policy::Policy;
use crate::resources::ResourcePool;
use roia_obs::{TraceEvent, Tracer};

/// The least time an issued action may stay pending before it counts as
/// timed out ([`RmsController::match_pool`] may lengthen it).
const ACTION_TIMEOUT_TICKS: u64 = 150;

/// How far past the pool's startup delay a boot may still report in
/// before it counts as timed out.
const BOOT_SLACK_TICKS: u64 = 100;

/// How many times a failed scale-up is retried before escalating.
const MAX_RETRIES: u32 = 2;

/// Backoff before retry `n` is `BACKOFF_BASE_TICKS << (n - 1)`.
const BACKOFF_BASE_TICKS: u64 = 50;

/// How long the controller stays in migration-only mode after
/// abandoning a substitution.
const DEGRADED_COOLDOWN_TICKS: u64 = 750;

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Ticks between control rounds (25 ticks at 25 Hz = the 1-second
    /// granularity of the paper's migrations-per-second budgets).
    pub control_interval_ticks: u64,
    /// Declared degraded-mode behaviour (admission control + AoI
    /// fidelity when the cloud runs out of capacity).
    pub degraded: DegradedConfig,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            control_interval_ticks: 25,
            degraded: DegradedConfig::default(),
        }
    }
}

/// An action handed to the session driver, tagged with its ledger id so
/// the driver can report what became of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IssuedAction {
    /// Ledger id to pass back to [`RmsController::report`].
    pub id: ActionId,
    /// The action to execute.
    pub action: Action,
}

#[derive(Debug, Clone, Copy)]
struct PendingAction {
    id: ActionId,
    action: Action,
    deadline: u64,
    attempt: u32,
}

/// What a queued follow-up will issue once its backoff elapses.
#[derive(Debug, Clone, Copy)]
enum Planned {
    /// Re-issue the same action.
    Retry(Action),
    /// Escalation: substitute the most loaded standard server, picked from
    /// the snapshot at issue time (the original target data is stale).
    SubstituteHottest,
}

#[derive(Debug, Clone, Copy)]
struct QueuedFollowUp {
    plan: Planned,
    not_before: u64,
    attempt: u32,
}

/// The RTF-RMS controller for one zone.
pub struct RmsController {
    policy: Box<dyn Policy>,
    config: ControllerConfig,
    /// Ticks an issued action may stay pending ([`Self::match_pool`]).
    timeout_ticks: u64,
    log: ActionLog,
    last_round: Option<u64>,
    pending: Vec<PendingAction>,
    follow_ups: Vec<QueuedFollowUp>,
    degraded_until: Option<u64>,
    degraded_mode: DegradedMode,
    tracer: Tracer,
}

impl RmsController {
    /// Creates a controller around a policy.
    pub fn new(policy: Box<dyn Policy>, config: ControllerConfig) -> Self {
        Self {
            policy,
            config,
            timeout_ticks: ACTION_TIMEOUT_TICKS,
            log: ActionLog::new(),
            last_round: None,
            pending: Vec::new(),
            follow_ups: Vec::new(),
            degraded_until: None,
            degraded_mode: DegradedMode::new(config.degraded),
            tracer: Tracer::disabled(),
        }
    }

    /// Fits the action timeout to `pool`: a scale-up must be able to
    /// boot before it times out, or a slow pool's boots time out and are
    /// provisioned twice. The timeout is `max(150, delay + 100)` ticks,
    /// 150 at the testbed pool's 50-tick delay.
    pub fn match_pool(&mut self, pool: &ResourcePool) {
        self.timeout_ticks =
            ACTION_TIMEOUT_TICKS.max(pool.startup_delay_ticks() + BOOT_SLACK_TICKS);
    }

    /// Installs a telemetry tracer on the controller and its policy: the
    /// controller emits round/action lifecycle events, the policy its
    /// decision audit trail.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.policy.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Trace-event payload fields `(from, to, users)` of an action.
    fn action_fields(action: &Action) -> (i64, i64, u32) {
        match action {
            Action::Migrate { from, to, users } => (i64::from(from.0), i64::from(to.0), *users),
            Action::AddReplica { .. } => (-1, -1, 0),
            Action::Substitute { old, .. } => (i64::from(old.0), -1, 0),
            Action::RemoveReplica { server, .. } => (i64::from(server.0), -1, 0),
        }
    }

    fn trace_resolved(&self, id: ActionId, outcome: ActionOutcome, now_tick: u64) {
        self.tracer.emit(TraceEvent::ActionResolved {
            tick: now_tick,
            action_id: id.0,
            outcome: outcome.name(),
        });
    }

    /// The action history (the ledger).
    pub fn log(&self) -> &ActionLog {
        &self.log
    }

    /// Whether the controller is in migration-only degraded mode.
    pub fn is_degraded(&self, now_tick: u64) -> bool {
        self.degraded_until.is_some_and(|until| now_tick < until)
    }

    /// Whether a *declared* degraded episode (admission control + AoI
    /// fidelity reduction) is live.
    pub fn degraded_mode_active(&self) -> bool {
        self.degraded_mode.active()
    }

    /// AoI fidelity the cluster should apply right now (1.0 healthy,
    /// the degraded-mode fidelity, 0.6, while degraded).
    pub fn aoi_fidelity(&self) -> f64 {
        self.degraded_mode.fidelity()
    }

    /// Admission verdict for one join request. `queue_depth` is the
    /// caller's current join-queue length. Healthy controllers always
    /// admit; degraded ones queue up to the configured depth and shed
    /// beyond it, tracing every throttled join.
    pub fn admit_join(&mut self, queue_depth: u32, now_tick: u64) -> Admission {
        let verdict = self.degraded_mode.admit(queue_depth);
        if verdict != Admission::Admit && self.tracer.is_enabled() {
            self.tracer.emit(TraceEvent::JoinThrottled {
                tick: now_tick,
                cause: self.degraded_mode.entered_at().unwrap_or(now_tick),
                verdict: match verdict {
                    Admission::Queue => "queue",
                    _ => "shed",
                },
                total: self.degraded_mode.throttled(),
            });
        }
        verdict
    }

    fn trace_degraded_enter(&self, reason: &'static str, now_tick: u64) {
        self.tracer.emit(TraceEvent::DegradedEnter {
            tick: now_tick,
            cause: now_tick,
            reason,
            admission: self.config.degraded.admission.name(),
            fidelity: AOI_FIDELITY,
        });
    }

    /// Whether a control round is due at `now_tick`.
    fn is_due(&self, now_tick: u64) -> bool {
        match self.last_round {
            None => true,
            Some(last) => now_tick >= last + self.config.control_interval_ticks,
        }
    }

    /// Reports the outcome of an issued action. `Rejected` and `Failed`
    /// scale-ups are queued for retry/escalation; late reports for actions
    /// the ledger already timed out are ignored.
    pub fn report(&mut self, id: ActionId, outcome: ActionOutcome, now_tick: u64) {
        let Some(pos) = self.pending.iter().position(|p| p.id == id) else {
            return;
        };
        let entry = self.pending.swap_remove(pos);
        self.log.resolve(id, outcome, now_tick);
        self.trace_resolved(id, outcome, now_tick);
        let scale_up = matches!(
            entry.action,
            Action::AddReplica { .. } | Action::Substitute { .. }
        );
        if scale_up {
            match outcome {
                // The cloud refused the machine outright: count toward
                // the declared degraded episode.
                ActionOutcome::Rejected if self.degraded_mode.note_rejection(now_tick) => {
                    self.trace_degraded_enter("out_of_capacity", now_tick);
                }
                ActionOutcome::Succeeded => self.degraded_mode.note_success(),
                _ => {}
            }
        }
        if matches!(outcome, ActionOutcome::Rejected | ActionOutcome::Failed) {
            self.schedule_follow_up(entry.id, entry.action, entry.attempt, now_tick);
        }
    }

    /// Runs one control round if due; returns the actions to execute.
    /// Besides the policy's decisions this emits due retries, sweeps the
    /// pending ledger for timeouts, and — while degraded — filters out
    /// scale-up actions the cloud keeps failing.
    pub fn control(&mut self, snapshot: &ZoneSnapshot, now_tick: u64) -> Vec<IssuedAction> {
        if !self.is_due(now_tick) {
            return Vec::new();
        }
        self.last_round = Some(now_tick);
        let mut issued = Vec::new();

        // 1. Sweep the ledger: pending actions past their deadline timed
        //    out; treat like a failure (retry or escalate).
        let mut overdue = Vec::new();
        self.pending.retain(|p| {
            if p.deadline <= now_tick {
                overdue.push(*p);
                false
            } else {
                true
            }
        });
        for p in overdue {
            self.log.resolve(p.id, ActionOutcome::TimedOut, now_tick);
            self.trace_resolved(p.id, ActionOutcome::TimedOut, now_tick);
            self.schedule_follow_up(p.id, p.action, p.attempt, now_tick);
        }

        // 2. Emit follow-ups whose backoff elapsed.
        let mut due = Vec::new();
        self.follow_ups.retain(|f| {
            if f.not_before <= now_tick {
                due.push(*f);
                false
            } else {
                true
            }
        });
        for f in due {
            let action = match f.plan {
                Planned::Retry(action) => Some(action),
                Planned::SubstituteHottest => snapshot
                    .servers
                    .iter()
                    .filter(|s| s.speedup <= 1.0)
                    .max_by_key(|s| s.active_users)
                    .map(|s| Action::Substitute {
                        zone: snapshot.zone,
                        old: s.server,
                    }),
            };
            if let Some(action) = action {
                issued.push(self.issue(action, f.attempt, now_tick));
            }
        }

        // 3. Feed the round's load observation into the declared
        //    degraded episode's exit hysteresis (min dwell, then
        //    consecutive clean rounds with no fresh rejection).
        if let Some(summary) = self
            .degraded_mode
            .observe_round(snapshot.worst_avg_tick(), now_tick)
        {
            if self.tracer.is_enabled() {
                self.tracer.emit(TraceEvent::DegradedExit {
                    tick: now_tick,
                    cause: summary.entered_at,
                    dwell_ticks: summary.dwell_ticks,
                    queued: summary.queued,
                    shed: summary.shed,
                });
            }
        }

        // 4. The policy's round. While a scale-up is already in flight
        //    (pending boot or queued retry) further scale-ups are
        //    suppressed, so a slow cloud is not asked twice for the same
        //    machine; while degraded they are dropped entirely. The
        //    guard reads the state before this round's actions are
        //    issued; every policy asks for at most one scale-up a round.
        let scale_ups_blocked = self.is_degraded(now_tick) || self.scale_up_in_flight();
        let decisions = self.policy.decide(snapshot, now_tick);
        for action in decisions {
            let scale_up = matches!(
                action,
                Action::AddReplica { .. } | Action::Substitute { .. }
            );
            if scale_up && scale_ups_blocked {
                continue;
            }
            issued.push(self.issue(action, 0, now_tick));
        }
        if self.tracer.is_enabled() {
            self.tracer.emit(TraceEvent::ControlRound {
                tick: now_tick,
                zone: snapshot.zone.0,
                servers: snapshot.replicas(),
                users: snapshot.total_users(),
                issued: roia_model::convert::count_u32(issued.len()),
            });
        }
        issued
    }

    fn issue(&mut self, action: Action, attempt: u32, now_tick: u64) -> IssuedAction {
        let id = self.log.push_attempt(now_tick, action, attempt);
        self.pending.push(PendingAction {
            id,
            action,
            deadline: now_tick + self.timeout_ticks,
            attempt,
        });
        if self.tracer.is_enabled() {
            let (from, to, users) = Self::action_fields(&action);
            self.tracer.emit(TraceEvent::ActionIssued {
                tick: now_tick,
                cause: now_tick,
                action_id: id.0,
                kind: action.kind(),
                attempt,
                from,
                to,
                users,
            });
        }
        IssuedAction { id, action }
    }

    fn scale_up_in_flight(&self) -> bool {
        self.pending.iter().any(|p| {
            matches!(
                p.action,
                Action::AddReplica { .. } | Action::Substitute { .. }
            )
        }) || !self.follow_ups.is_empty()
    }

    /// Decides what happens after a failed attempt: bounded retry with
    /// exponential backoff, then escalation (AddReplica → Substitute),
    /// then graceful degradation.
    fn schedule_follow_up(&mut self, id: ActionId, action: Action, attempt: u32, now_tick: u64) {
        match action {
            // Re-planned from fresh data at the next policy round instead.
            Action::Migrate { .. } | Action::RemoveReplica { .. } => {}
            Action::AddReplica { .. } | Action::Substitute { .. } => {
                if attempt < MAX_RETRIES {
                    let backoff = BACKOFF_BASE_TICKS << attempt;
                    self.follow_ups.push(QueuedFollowUp {
                        plan: Planned::Retry(action),
                        not_before: now_tick + backoff,
                        attempt: attempt + 1,
                    });
                } else if matches!(action, Action::AddReplica { .. }) {
                    // Replication keeps failing — ask for the bigger
                    // machine class instead.
                    self.log.resolve(id, ActionOutcome::Escalated, now_tick);
                    self.trace_resolved(id, ActionOutcome::Escalated, now_tick);
                    self.follow_ups.push(QueuedFollowUp {
                        plan: Planned::SubstituteHottest,
                        not_before: now_tick + BACKOFF_BASE_TICKS,
                        attempt: 0,
                    });
                } else {
                    // Substitution failed too: stop asking the cloud and
                    // balance with migrations only for a while, and make
                    // sure the declared degraded episode (admission
                    // control, reduced fidelity) is open.
                    self.log.resolve(id, ActionOutcome::Abandoned, now_tick);
                    self.trace_resolved(id, ActionOutcome::Abandoned, now_tick);
                    self.degraded_until = Some(now_tick + DEGRADED_COOLDOWN_TICKS);
                    if self.degraded_mode.force_enter(now_tick) {
                        self.trace_degraded_enter("abandoned", now_tick);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::ServerSnapshot;
    use rtf_core::net::NodeId;
    use rtf_core::zone::ZoneId;

    impl RmsController {
        /// The active policy's name.
        pub(crate) fn policy_name(&self) -> &'static str {
            self.policy.name()
        }

        /// Tick the live degraded episode was entered, if any.
        pub(crate) fn degraded_since(&self) -> Option<u64> {
            self.degraded_mode.entered_at()
        }

        /// Actions issued but not yet resolved.
        pub(crate) fn pending_count(&self) -> usize {
            self.pending.len()
        }
    }

    /// A policy that always emits one AddReplica.
    struct Always;
    impl Policy for Always {
        fn name(&self) -> &'static str {
            "always"
        }
        fn decide(&mut self, snapshot: &ZoneSnapshot, _now: u64) -> Vec<Action> {
            vec![Action::AddReplica {
                zone: snapshot.zone,
            }]
        }
    }

    fn snapshot() -> ZoneSnapshot {
        ZoneSnapshot {
            zone: ZoneId(1),
            npcs: 0,
            servers: vec![ServerSnapshot {
                server: NodeId(0),
                active_users: 10,
                avg_tick: 0.01,
                max_tick: 0.01,
                speedup: 1.0,
            }],
        }
    }

    #[test]
    fn control_respects_interval() {
        let mut c = RmsController::new(Box::new(Always), ControllerConfig::default());
        let first = c.control(&snapshot(), 0);
        assert_eq!(first.len(), 1);
        // Resolve it so the in-flight guard does not mask the cadence.
        c.report(first[0].id, ActionOutcome::Succeeded, 1);
        assert!(c.control(&snapshot(), 10).is_empty(), "too early");
        assert!(c.control(&snapshot(), 24).is_empty(), "still too early");
        assert_eq!(c.control(&snapshot(), 25).len(), 1);
    }

    #[test]
    fn actions_are_logged_with_ticks() {
        let mut c = RmsController::new(Box::new(Always), ControllerConfig::default());
        let a = c.control(&snapshot(), 0);
        c.report(a[0].id, ActionOutcome::Succeeded, 5);
        c.control(&snapshot(), 30);
        assert_eq!(c.log().count("add_replica"), 2);
        assert_eq!(c.log().entries()[1].tick, 30);
    }

    #[test]
    fn policy_name_passthrough() {
        let c = RmsController::new(Box::new(Always), ControllerConfig::default());
        assert_eq!(c.policy_name(), "always");
    }

    #[test]
    fn duplicate_scale_ups_suppressed_while_pending() {
        let mut c = RmsController::new(Box::new(Always), ControllerConfig::default());
        let first = c.control(&snapshot(), 0);
        assert_eq!(first.len(), 1);
        // The boot is still pending at the next round: no second request.
        assert!(c.control(&snapshot(), 25).is_empty());
        c.report(first[0].id, ActionOutcome::Succeeded, 40);
        assert_eq!(c.control(&snapshot(), 50).len(), 1, "resumes once resolved");
    }

    #[test]
    fn rejected_action_retries_with_backoff_then_escalates() {
        let mut c = RmsController::new(Box::new(Always), ControllerConfig::default());
        let mut issue_ticks = Vec::new();
        let mut now = 0u64;
        // Reject every add_replica; watch the ledger escalate.
        while c.log().count("substitute") == 0 && now < 2_000 {
            for issued in c.control(&snapshot(), now) {
                if matches!(issued.action, Action::AddReplica { .. }) {
                    issue_ticks.push(now);
                }
                c.report(issued.id, ActionOutcome::Rejected, now);
            }
            now += 25;
        }
        assert_eq!(issue_ticks.len(), 3, "initial + MAX_RETRIES attempts");
        // Backoff is monotone: gaps between consecutive attempts grow.
        let gaps: Vec<u64> = issue_ticks.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps[1] > gaps[0], "exponential backoff: {gaps:?}");
        assert_eq!(c.log().count_outcome(ActionOutcome::Escalated), 1);
        assert_eq!(c.log().count("substitute"), 1, "escalated to substitution");
    }

    #[test]
    fn failed_substitution_degrades_to_migration_only() {
        let mut c = RmsController::new(Box::new(Always), ControllerConfig::default());
        let mut now = 0u64;
        while !c.is_degraded(now) && now < 5_000 {
            for issued in c.control(&snapshot(), now) {
                c.report(issued.id, ActionOutcome::Rejected, now);
            }
            now += 25;
        }
        assert!(c.is_degraded(now), "rejecting everything must degrade");
        assert_eq!(c.log().count_outcome(ActionOutcome::Abandoned), 1);
        // While degraded, the Always policy's scale-ups are filtered.
        let during = c.control(&snapshot(), now);
        assert!(
            during.is_empty(),
            "degraded mode drops scale-ups: {during:?}"
        );
        // After the cooldown the controller recovers.
        let after = now + DEGRADED_COOLDOWN_TICKS + 25;
        assert!(!c.is_degraded(after));
        assert!(!c.control(&snapshot(), after).is_empty());
    }

    #[test]
    fn capacity_rejections_declare_degraded_mode_then_hysteresis_exit() {
        let mut c = RmsController::new(Box::new(Always), ControllerConfig::default());
        assert_eq!(c.admit_join(0, 0), Admission::Admit, "healthy: admit");
        // Keep rejecting scale-ups until the declared episode engages.
        let mut now = 0u64;
        while !c.degraded_mode_active() && now < 2_000 {
            for issued in c.control(&snapshot(), now) {
                c.report(issued.id, ActionOutcome::Rejected, now);
            }
            now += 25;
        }
        assert!(c.degraded_mode_active(), "rejections must declare the mode");
        let entered = c.degraded_since().expect("episode start tick");
        assert_eq!(c.admit_join(0, now), Admission::Queue);
        assert!(c.aoi_fidelity() < 1.0, "fidelity reduced while degraded");
        // Capacity returns and the snapshot load is clean (10 ms ticks):
        // after the minimum dwell plus the clean-round streak the
        // episode closes on its own.
        while c.degraded_mode_active() && now < entered + 5_000 {
            for issued in c.control(&snapshot(), now) {
                c.report(issued.id, ActionOutcome::Succeeded, now);
            }
            now += 25;
        }
        assert!(!c.degraded_mode_active(), "hysteresis exit after recovery");
        assert!(
            now - entered >= c.config.degraded.min_dwell_ticks,
            "no exit before the dwell"
        );
        assert_eq!(c.admit_join(0, now), Admission::Admit);
        assert!((c.aoi_fidelity() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn unreported_action_times_out() {
        let mut c = RmsController::new(Box::new(Always), ControllerConfig::default());
        let issued = c.control(&snapshot(), 0);
        assert_eq!(c.pending_count(), 1);
        // Never report; after the timeout the sweep marks it TimedOut.
        let mut now = 25;
        while c.log().count_outcome(ActionOutcome::TimedOut) == 0 && now < 1_000 {
            c.control(&snapshot(), now);
            now += 25;
        }
        assert_eq!(
            c.log().get(issued[0].id).unwrap().outcome,
            ActionOutcome::TimedOut
        );
        // A late report for the swept action is ignored, not double-counted.
        c.report(issued[0].id, ActionOutcome::Succeeded, now);
        assert_eq!(
            c.log().get(issued[0].id).unwrap().outcome,
            ActionOutcome::TimedOut
        );
    }

    #[test]
    fn a_slow_pool_lengthens_the_timeout_past_its_boot_delay() {
        for (delay, timeout) in [(0, 150), (50, 150), (200, 300)] {
            let mut c = RmsController::new(Box::new(Always), ControllerConfig::default());
            c.match_pool(&ResourcePool::new(4, 0, delay, 90_000));
            let issued = c.control(&snapshot(), 0);
            // The round before the deadline leaves the boot pending.
            let last_round = (timeout - 1) / 25 * 25;
            c.control(&snapshot(), last_round);
            assert_eq!(
                c.pending_count(),
                1,
                "delay {delay}: pending at {last_round}"
            );
            c.control(&snapshot(), last_round + 25);
            assert_eq!(
                c.log().get(issued[0].id).unwrap().outcome,
                ActionOutcome::TimedOut,
                "delay {delay}: timed out by {}",
                last_round + 25
            );
        }
    }
}
