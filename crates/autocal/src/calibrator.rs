//! The online calibrator: streams tick records in, model versions out.
//!
//! One [`OnlineCalibrator`] serves a zone. Every server tick feeds it the
//! tick's [`TickRecord`] (via [`OnlineCalibrator::ingest`]): per-task
//! timer seconds become per-item cost samples in the bounded window
//! store, the linear parameters' RLS estimators absorb them on the spot,
//! and the tick-duration residual drives the CUSUM drift detector. Once
//! per cluster tick, [`OnlineCalibrator::end_tick`] decides whether a
//! refit is due — on the periodic cadence, or out-of-cadence when the
//! drift detector fired — assembles a candidate parameter set
//! (RLS fast path for linear parameters, warm-started Levenberg–Marquardt
//! for the quadratic ones, or a single-factor rescale of the published
//! curve when the window's x-spread is too narrow to identify individual
//! coefficients) and offers it to the [`ModelRegistry`], which applies
//! the quality gates, cooldown and hysteresis.

use crate::drift::{CusumConfig, CusumDetector};
use crate::registry::{
    CandidateFit, FitPath, ModelRegistry, ParamRefit, PublishOutcome, RefitReason, RegistryConfig,
    GATES,
};
use crate::rls::Rls;
use crate::window::WindowStore;
use roia_fit::fit;
use roia_fit::Polynomial;
use roia_model::{CostFn, ParamKind, ScalabilityModel};
use rtf_core::timer::TaskKind;
use rtf_core::TickRecord;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-parameter sliding-window capacity.
const WINDOW_CAPACITY: usize = 512;
/// Minimum ticks between drift-triggered refits (an unresolved drift
/// keeps retrying at this spacing until a refit ships).
const DRIFT_BACKOFF_TICKS: u64 = 125;
/// RLS forgetting factor for the linear fast path.
const RLS_FORGETTING: f64 = 0.995;
/// Minimum relative x-coverage, `(x_max − x_min) / x_mean`, a parameter's
/// window must span before a full per-coefficient refit is attempted.
/// Below it the data cannot separate intercept from slope (every sample
/// sits at the same population), and a fit that nails the operating point
/// can still extrapolate wildly — swinging the model's capacity and
/// replica limits the policy steers by. Narrow windows instead fall back
/// to rescaling the published curve by a single least-squares factor
/// ([`FitPath::Scale`]), which is identifiable from constant-x data and
/// exactly right for uniform cost shifts.
const MIN_X_SPREAD: f64 = 0.2;

/// Calibrator tuning.
#[derive(Debug, Clone)]
pub struct CalibratorConfig {
    /// Ticks between periodic refits.
    pub refit_interval_ticks: u64,
    /// Registry tuning (cooldown, hysteresis).
    pub registry: RegistryConfig,
}

impl Default for CalibratorConfig {
    fn default() -> Self {
        Self {
            refit_interval_ticks: 250,
            registry: RegistryConfig::default(),
        }
    }
}

/// What one refit attempt did.
#[derive(Debug, Clone)]
pub struct RefitReport {
    /// Tick at which the refit ran.
    pub tick: u64,
    /// What prompted it.
    pub reason: RefitReason,
    /// Parameters with enough window samples to refit.
    pub refitted: Vec<ParamKind>,
    /// The registry's verdict.
    pub outcome: PublishOutcome,
}

/// The streaming calibration engine (see the module docs).
pub struct OnlineCalibrator {
    config: CalibratorConfig,
    registry: Arc<ModelRegistry>,
    windows: WindowStore,
    rls: BTreeMap<ParamKind, Rls>,
    drift: CusumDetector,
    drift_pending: bool,
    last_refit_tick: Option<u64>,
    last_drift_refit_tick: Option<u64>,
}

/// Tasks whose timer records map to model parameters.
const SAMPLED_TASKS: [TaskKind; 9] = [
    TaskKind::UaDser,
    TaskKind::Ua,
    TaskKind::FaDser,
    TaskKind::Fa,
    TaskKind::Npc,
    TaskKind::Aoi,
    TaskKind::Su,
    TaskKind::MigIni,
    TaskKind::MigRcv,
];

/// Maps a framework task to its model parameter.
fn task_param(task: TaskKind) -> Option<ParamKind> {
    match task {
        TaskKind::UaDser => Some(ParamKind::UaDser),
        TaskKind::Ua => Some(ParamKind::Ua),
        TaskKind::FaDser => Some(ParamKind::FaDser),
        TaskKind::Fa => Some(ParamKind::Fa),
        TaskKind::Npc => Some(ParamKind::Npc),
        TaskKind::Aoi => Some(ParamKind::Aoi),
        TaskKind::Su => Some(ParamKind::Su),
        TaskKind::MigIni => Some(ParamKind::MigIni),
        TaskKind::MigRcv => Some(ParamKind::MigRcv),
        TaskKind::Other => None,
    }
}

/// The per-record item count a task's cost is divided by (the "per
/// entity" denominators of §III-A).
fn item_count(task: TaskKind, r: &TickRecord) -> u32 {
    match task {
        TaskKind::UaDser | TaskKind::Ua => r.inputs_processed,
        TaskKind::FaDser | TaskKind::Fa => r.forwarded_processed,
        TaskKind::Npc => r.npcs,
        TaskKind::Aoi | TaskKind::Su => r.updates_sent,
        TaskKind::MigIni => r.migrations_initiated,
        TaskKind::MigRcv => r.migrations_received,
        TaskKind::Other => 0,
    }
}

/// Relative x-coverage of a sample window: `(x_max − x_min) / x_mean`.
fn x_spread(xs: &[f64]) -> f64 {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &x in xs {
        min = min.min(x);
        max = max.max(x);
        sum += x;
    }
    if xs.is_empty() || sum <= 0.0 {
        return 0.0;
    }
    (max - min) / (sum / xs.len() as f64)
}

/// R², RMSE and mean-of-observations of `predict` over a sample set.
fn fit_quality(predict: impl Fn(f64) -> f64, xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    let n = ys.len() as f64;
    if ys.is_empty() {
        return (0.0, f64::INFINITY, 0.0);
    }
    let mean = ys.iter().sum::<f64>() / n;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let e = y - predict(x);
        ss_res += e * e;
        let d = y - mean;
        ss_tot += d * d;
    }
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else if ss_res == 0.0 {
        1.0
    } else {
        0.0
    };
    (r_squared, (ss_res / n).sqrt(), mean)
}

impl OnlineCalibrator {
    /// Creates a calibrator seeded with `initial` (typically the offline
    /// calibration) and a fresh registry.
    pub fn new(initial: ScalabilityModel, config: CalibratorConfig) -> Self {
        let registry = Arc::new(ModelRegistry::new(initial, config.registry));
        Self {
            windows: WindowStore::new(WINDOW_CAPACITY),
            rls: BTreeMap::new(),
            drift: CusumDetector::new(CusumConfig::default()),
            drift_pending: false,
            last_refit_tick: None,
            last_drift_refit_tick: None,
            registry,
            config,
        }
    }

    /// The registry handle policies should consult.
    pub fn registry(&self) -> Arc<ModelRegistry> {
        self.registry.clone()
    }

    /// A clone of the currently published model.
    pub fn model(&self) -> ScalabilityModel {
        self.registry.model()
    }

    /// The currently published model version.
    pub fn version(&self) -> u64 {
        self.registry.version()
    }

    /// The current model's tick-duration prediction (Eq. 4).
    pub fn predicted_tick(&self, replicas: u32, users: u32, npcs: u32, active: u32) -> f64 {
        self.registry
            .current()
            .model
            .tick(replicas, users, npcs, active)
    }

    /// Ingests one server's tick record. `replicas` is the zone's current
    /// replica count `l` (the record itself does not know it).
    pub fn ingest(&mut self, record: &TickRecord, replicas: u32) {
        let n = record.zone_users();
        if n > 0 {
            let x = n as f64;
            for task in SAMPLED_TASKS {
                let Some(param) = task_param(task) else {
                    continue;
                };
                let items = item_count(task, record);
                if items == 0 {
                    continue;
                }
                let y = record.task(task) / items as f64;
                // A task that processed items but charged nothing carries
                // no cost information (timers are strictly positive).
                if !y.is_finite() || y <= 0.0 {
                    continue;
                }
                self.windows.push(param, x, y);
                if param.fit_degree() == 1 {
                    self.rls
                        .entry(param)
                        .or_insert_with(|| Rls::new(1, RLS_FORGETTING))
                        .observe(x, y);
                }
            }
        }
        let predicted = self.predicted_tick(replicas, n, record.npcs, record.active_users);
        if self.drift.observe(record.tick_duration - predicted) {
            self.drift_pending = true;
        }
    }

    /// Call once per cluster tick after every server's record was
    /// ingested: runs a refit when the cadence or the drift detector says
    /// so. Returns what happened, or `None` when no refit was due.
    pub fn end_tick(&mut self, now_tick: u64) -> Option<RefitReport> {
        let cadence_due = match self.last_refit_tick {
            None => now_tick >= self.config.refit_interval_ticks,
            Some(last) => now_tick >= last + self.config.refit_interval_ticks,
        };
        let drift_due = self.drift_pending
            && match self.last_drift_refit_tick {
                None => true,
                Some(last) => now_tick >= last + DRIFT_BACKOFF_TICKS,
            };
        if !cadence_due && !drift_due {
            return None;
        }
        let reason = if drift_due {
            RefitReason::Drift
        } else {
            RefitReason::Cadence
        };
        Some(self.refit(reason, now_tick))
    }

    /// Least-squares rescale of the published `current` curve against the
    /// window: the factor `s = Σ ŷ·y / Σ ŷ²` minimises `Σ (y − s·ŷ)²`.
    /// Returns `None` when the published curve predicts nothing positive
    /// over the window (there is no curve to rescale).
    fn rescale_fit(
        current: &CostFn,
        xs: &[f64],
        ys: &[f64],
    ) -> Option<(CostFn, f64, f64, f64, FitPath)> {
        let mut num = 0.0;
        let mut den = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            let p = current.eval_raw(x);
            num += p * y;
            den += p * p;
        }
        if den <= 0.0 || num <= 0.0 {
            return None;
        }
        let s = num / den;
        let coefficients: Vec<f64> = current.coefficients().iter().map(|c| c * s).collect();
        let cost_fn = CostFn::from_coefficients(&coefficients);
        let predict = cost_fn.clone();
        let (r_squared, rmse, mean_y) = fit_quality(|x| predict.eval_raw(x), xs, ys);
        Some((cost_fn, r_squared, rmse, mean_y, FitPath::Scale))
    }

    fn refit(&mut self, reason: RefitReason, now_tick: u64) -> RefitReport {
        self.last_refit_tick = Some(now_tick);
        if reason == RefitReason::Drift {
            self.last_drift_refit_tick = Some(now_tick);
            self.drift_pending = false;
        }

        let current = self.registry.current();
        let mut params = current.model.params.clone();
        let mut refits: Vec<ParamRefit> = Vec::new();
        let min_samples = GATES.min_samples;
        for kind in ParamKind::ALL {
            let Some(window) = self.windows.window(kind) else {
                continue;
            };
            if window.len() < min_samples {
                continue;
            }
            let (xs, ys) = window.as_vecs();
            let fitted = if x_spread(&xs) < MIN_X_SPREAD {
                // The window does not cover enough of the x-axis to
                // identify individual coefficients; rescale the published
                // curve instead (see `MIN_X_SPREAD`).
                Self::rescale_fit(current.model.params.get(kind), &xs, &ys)
            } else if kind.fit_degree() == 1 {
                self.rls.get(&kind).map(|rls| {
                    let cost_fn = CostFn::from_coefficients(rls.coefficients());
                    let (r_squared, rmse, mean_y) = fit_quality(|x| rls.predict(x), &xs, &ys);
                    (cost_fn, r_squared, rmse, mean_y, FitPath::Rls)
                })
            } else {
                // Warm start from the currently published coefficients.
                let mut beta0 = current.model.params.get(kind).coefficients();
                beta0.resize(kind.fit_degree() + 1, 0.0);
                let model = Polynomial::new(kind.fit_degree());
                match fit(&model, &xs, &ys, Some(&beta0)) {
                    Ok(result) => {
                        let cost_fn = CostFn::from_coefficients(&result.beta);
                        let predict = cost_fn.clone();
                        let (r_squared, rmse, mean_y) =
                            fit_quality(|x| predict.eval_raw(x), &xs, &ys);
                        Some((cost_fn, r_squared, rmse, mean_y, FitPath::WarmLm))
                    }
                    Err(_) => None,
                }
            };
            let Some((cost_fn, r_squared, rmse, mean_y, path)) = fitted else {
                continue;
            };
            params.set(kind, cost_fn.clone());
            refits.push(ParamRefit {
                kind,
                cost_fn,
                samples: window.len(),
                r_squared,
                rmse,
                mean_y,
                path,
            });
        }

        if refits.is_empty() {
            // Nothing to offer; report it as a no-change outcome.
            return RefitReport {
                tick: now_tick,
                reason,
                refitted: Vec::new(),
                outcome: PublishOutcome::Unchanged {
                    relative_change: 0.0,
                },
            };
        }

        let refitted = refits.iter().map(|r| r.kind).collect();
        let outcome = self.registry.try_publish(
            CandidateFit {
                params,
                refits,
                reason,
            },
            now_tick,
        );
        if matches!(outcome, PublishOutcome::Published { .. }) {
            // The residual baseline just changed; start the drift
            // detector over against the new model.
            self.drift.rearm();
            self.drift_pending = false;
        }
        RefitReport {
            tick: now_tick,
            reason,
            refitted,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roia_model::ModelParams;

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
        ScalabilityModel::new(params, 0.040)
    }

    /// A synthetic tick record for `n` active users where the
    /// state-update task cost `su_per_item` seconds per update.
    fn record(tick: u64, n: u32, su_per_item: f64) -> TickRecord {
        use rtf_core::net::NodeId;
        use rtf_core::timer::TASK_COUNT;
        let mut per_task = [0.0; TASK_COUNT];
        per_task[TaskKind::Su.index()] = su_per_item * n as f64;
        per_task[TaskKind::Aoi.index()] = 2e-6 * n as f64;
        TickRecord {
            tick,
            server: NodeId(0),
            active_users: n,
            shadow_users: 0,
            npcs: 0,
            per_task,
            tick_duration: su_per_item * n as f64,
            inputs_processed: 0,
            forwarded_processed: 0,
            updates_sent: n,
            migrations_initiated: 0,
            migrations_received: 0,
            bytes_in: 0,
            bytes_out: 0,
            bytes_in_clients: 0,
            bytes_in_peers: 0,
            bytes_out_clients: 0,
            bytes_out_peers: 0,
        }
    }

    fn quick_config() -> CalibratorConfig {
        CalibratorConfig {
            refit_interval_ticks: 50,
            registry: RegistryConfig {
                cooldown_ticks: 0,
                min_relative_change: 0.0,
            },
        }
    }

    #[test]
    fn cadence_refit_recovers_a_linear_parameter() {
        let mut cal = OnlineCalibrator::new(seed_model(), quick_config());
        // The true su cost is 10 µs + 0.4 µs·n — far from the seed.
        for t in 0..50u64 {
            let n = 20 + (t % 30) as u32;
            let y = 10e-6 + 0.4e-6 * n as f64;
            cal.ingest(&record(t, n, y), 1);
            cal.end_tick(t);
        }
        let report = cal.end_tick(50).expect("cadence due");
        assert!(
            matches!(report.outcome, PublishOutcome::Published { .. }),
            "outcome: {:?}",
            report.outcome
        );
        assert!(report.refitted.contains(&ParamKind::Su));
        let fitted = cal.model().params.t_su;
        let got = fitted.eval(40.0);
        let want = 10e-6 + 0.4e-6 * 40.0;
        assert!(
            (got - want).abs() / want < 0.05,
            "refit landed near truth: {got} vs {want}"
        );
        assert!(cal.version() >= 2);
    }

    #[test]
    fn no_refit_before_cadence_or_drift() {
        let mut cal = OnlineCalibrator::new(seed_model(), quick_config());
        for t in 0..49u64 {
            assert!(cal.end_tick(t).is_none(), "tick {t} refit too early");
        }
    }

    #[test]
    fn too_few_samples_keeps_the_seed() {
        let mut cal = OnlineCalibrator::new(seed_model(), quick_config());
        for t in 0..5u64 {
            cal.ingest(&record(t, 30, 1e-6), 1);
        }
        let report = cal.refit(RefitReason::Cadence, 50);
        assert!(report.refitted.is_empty());
        assert_eq!(cal.version(), 1);
    }
}
