//! Declarative service-level objectives evaluated with multi-window
//! burn-rate rules (SRE-style).
//!
//! Each [`SloSpec`] names an objective, an error budget (the fraction
//! of samples allowed to be bad), and alerting thresholds expressed as
//! *burn rates* — multiples of the budget the observed bad fraction is
//! consuming. The engine keeps two windows per objective:
//!
//! - a **fast window** of the most recent [`FAST_WINDOW_TICKS`] sim
//!   ticks (one minute of sim-time at the paper's 25 Hz), which reacts
//!   quickly and gates the alert's severity, and
//! - a **slow window** covering the whole session, which suppresses
//!   alerts for brief blips that do not endanger the overall budget.
//!
//! An alert fires ([`SloTransition::Burn`]) when *both* windows exceed
//! their enter thresholds; it clears ([`SloTransition::Recovered`])
//! after the objective has stopped accruing *new* bad samples for
//! `exit_clean_ticks` consecutive ticks — a fresh-sample hysteresis
//! exit (mirroring the degraded-mode state machine) rather than
//! waiting a full fast-window drain. Burn rates in events and gauges
//! are integer permille so the trace stays float-comparison free.
//!
//! Feed the engine once per sim tick: any number of
//! [`SloEngine::observe`] calls, then one [`SloEngine::end_tick`],
//! which returns the typed transitions to emit as
//! [`TraceEvent::SloBurn`] / [`TraceEvent::SloRecovered`].

use crate::event::TraceEvent;

/// Fast-window length: one minute of sim-time at 25 Hz.
pub const FAST_WINDOW_TICKS: usize = 1500;

/// Burn rates are reported in permille (1000 = exactly consuming the
/// budget); values are clamped here so JSON stays finite and integral.
pub const MAX_BURN_PM: u64 = 1_000_000_000;

/// Objective name: fraction of server ticks at or over the U budget.
pub const SLO_TICK_BUDGET: &str = "tick_budget";
/// Objective name: fraction of server ticks over 90% of U (p99 proxy).
pub const SLO_TICK_P99: &str = "tick_p99";
/// Objective name: invariant-oracle violations (zero tolerance).
pub const SLO_INVARIANTS: &str = "invariant_violations";
/// Objective name: fraction of join attempts shed.
pub const SLO_JOIN_SHED: &str = "join_shed";
/// Objective name: fraction of transport sessions under backpressure.
pub const SLO_BACKPRESSURE: &str = "backpressure_duty";

/// One declarative objective: budget plus burn-rate alert thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Objective name (interned trace vocabulary).
    pub name: &'static str,
    /// Error budget: allowed bad fraction of samples (e.g. `0.001`).
    pub budget: f64,
    /// Fast-window burn rate (budget multiples) required to alert.
    pub enter_fast_burn: f64,
    /// Fast-window burn rate at which the alert is `page` severity
    /// instead of `warn`.
    pub page_fast_burn: f64,
    /// Slow-window burn rate that must *also* hold for the alert to
    /// fire (the multi-window AND).
    pub enter_slow_burn: f64,
    /// Consecutive ticks without new bad samples required to clear.
    pub exit_clean_ticks: u32,
}

impl SloSpec {
    /// Effective budget, floored so burn rates stay finite even for
    /// zero-tolerance objectives.
    fn budget_floor(&self) -> f64 {
        self.budget.max(1e-9)
    }
}

/// Fixed-length ring of per-tick `(bad, total)` sample counts with
/// running sums, so windowed burn rates are O(1) per tick. A tick is
/// stored in 32 bits per count (see [`Window::fit`]); the sums are 64-bit.
#[derive(Debug, Clone)]
struct Window {
    buf: Vec<(u32, u32)>,
    head: usize,
    filled: bool,
    bad: u64,
    total: u64,
}

impl Window {
    fn new(capacity: usize) -> Self {
        Window {
            buf: vec![(0, 0); capacity.max(1)],
            head: 0,
            filled: false,
            bad: 0,
            total: 0,
        }
    }

    /// One tick's counts as the window stores them. A tick with more than
    /// `u32::MAX` samples is scaled down to `u32::MAX` with its bad
    /// fraction kept, rounded up so a bad tick stays bad. The sums add and
    /// later subtract the same stored pair, so they never drift.
    fn fit(bad: u64, total: u64) -> (u32, u32) {
        let bad = bad.min(total);
        match (u32::try_from(bad), u32::try_from(total)) {
            (Ok(bad), Ok(total)) => (bad, total),
            _ => {
                let max = u128::from(u32::MAX);
                let scaled = (u128::from(bad) * max).div_ceil(u128::from(total));
                (u32::try_from(scaled).unwrap_or(u32::MAX), u32::MAX)
            }
        }
    }

    fn push(&mut self, bad: u64, total: u64) {
        let (bad, total) = Self::fit(bad, total);
        let (old_bad, old_total) = self.buf[self.head];
        self.bad = self.bad - u64::from(old_bad) + u64::from(bad);
        self.total = self.total - u64::from(old_total) + u64::from(total);
        self.buf[self.head] = (bad, total);
        self.head += 1;
        if self.head == self.buf.len() {
            self.head = 0;
            self.filled = true;
        }
    }

    /// Bad fraction over the window (0 when no samples).
    fn bad_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.bad as f64 / self.total as f64
        }
    }
}

/// A burn alert currently in force for one objective.
#[derive(Debug, Clone, Copy)]
struct ActiveBurn {
    /// First bad tick of the episode (the `cause` id).
    since: u64,
    /// Ticks spent burning so far.
    ticks: u64,
    /// Severity already announced (`warn` may escalate to `page`).
    severity: &'static str,
}

/// Per-objective evaluation state.
#[derive(Debug, Clone)]
struct Objective {
    spec: SloSpec,
    fast: Window,
    slow_bad: u64,
    slow_total: u64,
    /// Samples accumulated for the current tick (drained by
    /// `end_tick`).
    pending_bad: u64,
    pending_total: u64,
    /// First tick with bad samples since the fast window last fully
    /// drained — the `cause` id when the alert fires.
    dirty_since: Option<u64>,
    burn: Option<ActiveBurn>,
    /// Re-arm latch: after a recovery the alert stays disarmed until
    /// the enter condition has gone false at least once, so a slowly
    /// draining fast window cannot flap burn/recover cycles.
    armed: bool,
    clean_streak: u32,
    last_fast_pm: u64,
    last_slow_pm: u64,
}

/// One state transition returned by [`SloEngine::end_tick`].
#[derive(Debug, Clone, PartialEq)]
pub enum SloTransition {
    /// An objective started burning (emit as [`TraceEvent::SloBurn`]).
    Burn {
        /// Objective name.
        slo: &'static str,
        /// First tick of the over-threshold streak.
        cause: u64,
        /// `page` or `warn`.
        severity: &'static str,
        /// Fast-window burn rate, permille.
        fast_burn_pm: u64,
        /// Slow-window burn rate, permille.
        slow_burn_pm: u64,
    },
    /// A burning objective cleared (emit as
    /// [`TraceEvent::SloRecovered`]).
    Recovered {
        /// Objective name.
        slo: &'static str,
        /// First tick of the burn streak.
        cause: u64,
        /// Ticks spent burning.
        burn_ticks: u64,
    },
}

impl SloTransition {
    /// Convert into the trace event to emit at `tick`.
    pub fn to_event(&self, tick: u64) -> TraceEvent {
        match *self {
            SloTransition::Burn {
                slo,
                cause,
                severity,
                fast_burn_pm,
                slow_burn_pm,
            } => TraceEvent::SloBurn {
                tick,
                cause,
                slo,
                severity,
                fast_burn_pm,
                slow_burn_pm,
            },
            SloTransition::Recovered {
                slo,
                cause,
                burn_ticks,
            } => TraceEvent::SloRecovered {
                tick,
                cause,
                slo,
                burn_ticks,
            },
        }
    }
}

/// Point-in-time burn gauge for one objective (dashboard / metrics
/// export material).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloGauge {
    /// Objective name.
    pub slo: &'static str,
    /// Fast-window burn rate, permille.
    pub fast_burn_pm: u64,
    /// Slow-window burn rate, permille.
    pub slow_burn_pm: u64,
    /// True while the alert is in force.
    pub burning: bool,
}

/// Multi-window burn-rate evaluator over a set of objectives.
#[derive(Debug, Clone)]
pub struct SloEngine {
    objectives: Vec<Objective>,
}

impl SloEngine {
    /// An engine over custom objectives.
    pub fn new(specs: &[SloSpec]) -> Self {
        SloEngine {
            objectives: specs
                .iter()
                .map(|spec| Objective {
                    spec: *spec,
                    fast: Window::new(FAST_WINDOW_TICKS),
                    slow_bad: 0,
                    slow_total: 0,
                    pending_bad: 0,
                    pending_total: 0,
                    dirty_since: None,
                    burn: None,
                    armed: true,
                    clean_streak: 0,
                    last_fast_pm: 0,
                    last_slow_pm: 0,
                })
                .collect(),
        }
    }

    /// The standard objective set the cluster arms: tick budget, p99
    /// proxy, invariants (zero tolerance), join shedding and transport
    /// backpressure duty cycle.
    pub fn standard() -> Self {
        Self::new(&[
            SloSpec {
                name: SLO_TICK_BUDGET,
                budget: 0.001,
                enter_fast_burn: 10.0,
                page_fast_burn: 100.0,
                enter_slow_burn: 1.0,
                exit_clean_ticks: 125,
            },
            SloSpec {
                name: SLO_TICK_P99,
                budget: 0.01,
                enter_fast_burn: 5.0,
                page_fast_burn: 50.0,
                enter_slow_burn: 1.0,
                exit_clean_ticks: 125,
            },
            SloSpec {
                name: SLO_INVARIANTS,
                budget: 0.0,
                enter_fast_burn: 1.0,
                page_fast_burn: 1.0,
                enter_slow_burn: 0.0,
                exit_clean_ticks: 250,
            },
            SloSpec {
                name: SLO_JOIN_SHED,
                budget: 0.01,
                enter_fast_burn: 5.0,
                page_fast_burn: 50.0,
                enter_slow_burn: 1.0,
                exit_clean_ticks: 125,
            },
            SloSpec {
                name: SLO_BACKPRESSURE,
                budget: 0.05,
                enter_fast_burn: 5.0,
                page_fast_burn: 15.0,
                enter_slow_burn: 1.0,
                exit_clean_ticks: 125,
            },
        ])
    }

    /// Accumulate `bad` out of `total` samples for objective `name`
    /// within the current tick. Unknown names are ignored (callers may
    /// feed a superset of the configured objectives).
    pub fn observe(&mut self, name: &str, bad: u64, total: u64) {
        for obj in &mut self.objectives {
            if obj.spec.name == name {
                obj.pending_bad += bad.min(total);
                obj.pending_total += total;
                return;
            }
        }
    }

    /// Close out the current sim tick: push pending samples into both
    /// windows, run every objective's alert state machine, and return
    /// the transitions (to be emitted as trace events at `tick`).
    pub fn end_tick(&mut self, tick: u64) -> Vec<SloTransition> {
        let mut out = Vec::new();
        for obj in &mut self.objectives {
            let bad = obj.pending_bad;
            let total = obj.pending_total;
            obj.pending_bad = 0;
            obj.pending_total = 0;

            obj.fast.push(bad, total);
            obj.slow_bad += bad;
            obj.slow_total += total;

            let budget = obj.spec.budget_floor();
            let fast_burn = obj.fast.bad_fraction() / budget;
            let slow_frac = if obj.slow_total == 0 {
                0.0
            } else {
                obj.slow_bad as f64 / obj.slow_total as f64
            };
            let slow_burn = slow_frac / budget;
            obj.last_fast_pm = burn_pm(fast_burn);
            obj.last_slow_pm = burn_pm(slow_burn);

            if bad > 0 && obj.dirty_since.is_none() {
                obj.dirty_since = Some(tick);
            }
            if obj.fast.bad == 0 {
                obj.dirty_since = None;
            }

            let over = fast_burn >= obj.spec.enter_fast_burn
                && slow_burn >= obj.spec.enter_slow_burn
                && obj.fast.bad > 0;
            let severity_now = if fast_burn >= obj.spec.page_fast_burn {
                "page"
            } else {
                "warn"
            };

            if !over {
                obj.armed = true;
            }

            match &mut obj.burn {
                None => {
                    if over && obj.armed {
                        let cause = obj.dirty_since.unwrap_or(tick);
                        obj.burn = Some(ActiveBurn {
                            since: cause,
                            ticks: 1,
                            severity: severity_now,
                        });
                        obj.clean_streak = 0;
                        out.push(SloTransition::Burn {
                            slo: obj.spec.name,
                            cause,
                            severity: severity_now,
                            fast_burn_pm: obj.last_fast_pm,
                            slow_burn_pm: obj.last_slow_pm,
                        });
                    }
                }
                Some(active) => {
                    active.ticks += 1;
                    // A warn-severity alert that keeps worsening
                    // escalates once to page (same cause id).
                    if active.severity == "warn" && severity_now == "page" {
                        active.severity = "page";
                        out.push(SloTransition::Burn {
                            slo: obj.spec.name,
                            cause: active.since,
                            severity: "page",
                            fast_burn_pm: obj.last_fast_pm,
                            slow_burn_pm: obj.last_slow_pm,
                        });
                    }
                    if bad == 0 {
                        obj.clean_streak += 1;
                    } else {
                        obj.clean_streak = 0;
                    }
                    if obj.clean_streak >= obj.spec.exit_clean_ticks {
                        let cause = active.since;
                        let burn_ticks = active.ticks;
                        obj.burn = None;
                        obj.armed = false;
                        obj.clean_streak = 0;
                        out.push(SloTransition::Recovered {
                            slo: obj.spec.name,
                            cause,
                            burn_ticks,
                        });
                    }
                }
            }
        }
        out
    }

    /// Current burn gauges, one per objective, in configuration order.
    pub fn gauges(&self) -> Vec<SloGauge> {
        self.objectives
            .iter()
            .map(|obj| SloGauge {
                slo: obj.spec.name,
                fast_burn_pm: obj.last_fast_pm,
                slow_burn_pm: obj.last_slow_pm,
                burning: obj.burn.is_some(),
            })
            .collect()
    }
}

/// Clamp a burn rate (budget multiples) into integer permille.
fn burn_pm(burn: f64) -> u64 {
    if burn.is_nan() || burn <= 0.0 {
        return 0;
    }
    let pm = burn * 1000.0;
    if pm >= MAX_BURN_PM as f64 {
        MAX_BURN_PM
    } else {
        pm as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SloEngine {
        /// True if any objective currently has a page-severity burn
        /// (fast window at or over its page threshold while alerting).
        pub(crate) fn any_burning(&self) -> bool {
            self.objectives.iter().any(|o| o.burn.is_some())
        }
    }

    fn strict_spec() -> SloSpec {
        SloSpec {
            name: SLO_TICK_BUDGET,
            budget: 0.001,
            enter_fast_burn: 10.0,
            page_fast_burn: 100.0,
            enter_slow_burn: 1.0,
            exit_clean_ticks: 5,
        }
    }

    #[test]
    fn quiet_stream_never_alerts() {
        let mut slo = SloEngine::new(&[strict_spec()]);
        for t in 0..2000 {
            slo.observe(SLO_TICK_BUDGET, 0, 4);
            assert!(slo.end_tick(t).is_empty());
        }
        assert!(!slo.any_burning());
        assert_eq!(slo.gauges()[0].fast_burn_pm, 0);
    }

    #[test]
    fn sustained_burn_fires_escalates_and_recovers() {
        let mut slo = SloEngine::new(&[strict_spec()]);
        let mut burns: Vec<(u64, &'static str)> = Vec::new();
        let mut recoveries: Vec<u64> = Vec::new();
        for t in 0..400_u64 {
            // 100 all-bad ticks in the middle: enough to escalate.
            let bad = if (100..200).contains(&t) { 4 } else { 0 };
            slo.observe(SLO_TICK_BUDGET, bad, 4);
            for tr in slo.end_tick(t) {
                match tr {
                    SloTransition::Burn {
                        cause, severity, ..
                    } => burns.push((cause, severity)),
                    SloTransition::Recovered { cause, .. } => recoveries.push(cause),
                }
            }
        }
        // Fires at warn as soon as both windows cross, escalates to
        // page as the fast window saturates, recovers exactly once.
        assert_eq!(burns.len(), 2, "warn then page escalation: {burns:?}");
        assert_eq!(burns[0], (100, "warn"), "cause is the first bad tick");
        assert_eq!(burns[1], (100, "page"), "escalation keeps the cause");
        assert_eq!(recoveries, vec![100], "recovery pairs with burn");
    }

    #[test]
    fn single_blip_does_not_page() {
        // One bad tick out of thousands: fast window spikes but the
        // burn must still satisfy the fast threshold over the window.
        let mut slo = SloEngine::new(&[SloSpec {
            enter_fast_burn: 50.0,
            ..strict_spec()
        }]);
        let mut fired = false;
        for t in 0..3000_u64 {
            let bad = u64::from(t == 1500);
            slo.observe(SLO_TICK_BUDGET, bad, 100);
            fired |= !slo.end_tick(t).is_empty();
        }
        // 1 bad / 150k fast-window samples ≈ 6.7e-6 bad fraction →
        // burn ≈ 0.0067× of the 1e-3 budget: far below the threshold.
        assert!(!fired, "a single blip must not alert");
    }

    #[test]
    fn zero_tolerance_objective_pages_on_first_violation() {
        let mut slo = SloEngine::standard();
        slo.observe(SLO_INVARIANTS, 1, 1);
        let trs = slo.end_tick(42);
        assert!(
            trs.iter().any(|t| matches!(
                t,
                SloTransition::Burn {
                    slo: SLO_INVARIANTS,
                    severity: "page",
                    ..
                }
            )),
            "invariant violation must page immediately: {trs:?}"
        );
    }

    #[test]
    fn no_samples_means_no_burn() {
        let mut slo = SloEngine::standard();
        for t in 0..100 {
            assert!(slo.end_tick(t).is_empty());
        }
        assert!(slo.gauges().iter().all(|g| !g.burning));
    }

    #[test]
    fn transitions_convert_to_events() {
        let burn = SloTransition::Burn {
            slo: SLO_TICK_BUDGET,
            cause: 10,
            severity: "warn",
            fast_burn_pm: 12_000,
            slow_burn_pm: 1_500,
        };
        match burn.to_event(12) {
            TraceEvent::SloBurn { tick, cause, .. } => {
                assert_eq!((tick, cause), (12, 10));
            }
            other => panic!("wrong event {other:?}"),
        }
        let rec = SloTransition::Recovered {
            slo: SLO_TICK_BUDGET,
            cause: 10,
            burn_ticks: 30,
        };
        match rec.to_event(40) {
            TraceEvent::SloRecovered { burn_ticks, .. } => assert_eq!(burn_ticks, 30),
            other => panic!("wrong event {other:?}"),
        }
    }

    #[test]
    fn a_tick_too_large_for_32_bits_is_scaled_not_wrapped() {
        assert_eq!(Window::fit(3, 7), (3, 7));
        assert_eq!(Window::fit(9, 7), (7, 7), "bad never exceeds total");
        let total = 1u64 << 40;
        assert_eq!(Window::fit(total / 2, total), (1 << 31, u32::MAX));
        assert_eq!(Window::fit(1, total), (1, u32::MAX), "a bad tick stays bad");
        assert_eq!(Window::fit(0, u64::MAX), (0, u32::MAX));

        let mut window = Window::new(3);
        window.push(total / 4, total);
        window.push(1, 4);
        assert_eq!(
            (window.bad, window.total),
            ((1 << 30) + 1, u64::from(u32::MAX) + 4)
        );
        assert!((window.bad_fraction() - 0.25).abs() < 1e-6);
        // Once the oversized tick leaves the window the sums are exact again.
        for _ in 0..2 {
            window.push(0, 2);
        }
        assert_eq!((window.bad, window.total), (1, 8));
    }

    #[test]
    fn burn_pm_clamps() {
        assert_eq!(burn_pm(f64::INFINITY), MAX_BURN_PM);
        assert_eq!(burn_pm(-1.0), 0);
        assert_eq!(burn_pm(1.5), 1500);
    }
}
