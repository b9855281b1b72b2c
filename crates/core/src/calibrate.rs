//! Model calibration from runtime measurements — §III-C / §V-A.
//!
//! "In order to apply the scalability model for a particular ROIA, the
//! application-specific values of parameters t_ua_dser, t_ua, … have to be
//! determined" by measuring CPU times during a test execution and fitting
//! approximation functions with the Levenberg–Marquardt algorithm. This
//! module takes the raw `(user count, seconds)` samples produced by the
//! measurement hooks of `rtf-core` and produces a [`ModelParams`].

use crate::costfn::CostFn;
use crate::params::{ModelParams, ParamKind};
use roia_fit::Polynomial;
use roia_fit::{fit, FitError, FitResult};
use std::collections::BTreeMap;
use std::fmt;

/// Raw measurement series for one model parameter: CPU seconds observed at
/// various user counts. An offline campaign keeps every observation; online
/// calibration keeps its own bounded windows (`roia-autocal`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParamSamples {
    /// User counts at which the parameter was sampled.
    pub user_counts: Vec<f64>,
    /// Observed CPU time (seconds) per entity/migration at that user count.
    pub seconds: Vec<f64>,
}

impl ParamSamples {
    /// Appends one observation.
    pub fn push(&mut self, users: f64, seconds: f64) {
        self.user_counts.push(users);
        self.seconds.push(seconds);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.user_counts.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.user_counts.is_empty()
    }

    /// Appends every observation of another series.
    pub fn extend(&mut self, other: &ParamSamples) {
        self.user_counts.extend_from_slice(&other.user_counts);
        self.seconds.extend_from_slice(&other.seconds);
    }
}

/// A full measurement campaign: samples per parameter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Measurements {
    series: BTreeMap<ParamKind, ParamSamples>,
}

impl Measurements {
    /// Creates an empty campaign.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an observation for `kind`.
    pub fn record(&mut self, kind: ParamKind, users: f64, seconds: f64) {
        self.series.entry(kind).or_default().push(users, seconds);
    }

    /// The samples recorded for `kind`, if any.
    pub fn samples(&self, kind: ParamKind) -> Option<&ParamSamples> {
        self.series.get(&kind)
    }

    /// Merges another campaign into this one.
    pub fn merge(&mut self, other: &Measurements) {
        for (kind, samples) in &other.series {
            self.series.entry(*kind).or_default().extend(samples);
        }
    }

    /// Total number of observations across all parameters.
    pub fn total_samples(&self) -> usize {
        self.series.values().map(ParamSamples::len).sum()
    }
}

/// Error from [`calibrate`].
#[derive(Debug, Clone, PartialEq)]
pub enum CalibrationError {
    /// A required parameter has no samples at all.
    MissingSamples(ParamKind),
    /// The underlying least-squares fit failed.
    Fit(ParamKind, FitError),
    /// A campaign asked to average more ticks per sample than a server
    /// retains.
    SampleWindow {
        /// Ticks the campaign would average per sample.
        requested: u64,
        /// Ticks a server's log retains.
        retained: u64,
    },
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationError::MissingSamples(k) => {
                write!(f, "no samples recorded for {}", k.symbol())
            }
            CalibrationError::Fit(k, e) => write!(f, "fit failed for {}: {e}", k.symbol()),
            CalibrationError::SampleWindow {
                requested,
                retained,
            } => write!(
                f,
                "sample window of {requested} ticks exceeds the {retained} ticks a server retains"
            ),
        }
    }
}

impl std::error::Error for CalibrationError {}

/// Outcome of calibrating one parameter.
#[derive(Debug, Clone)]
pub struct ParamFit {
    /// Which parameter was fitted.
    pub kind: ParamKind,
    /// The fitted approximation function.
    pub cost_fn: CostFn,
    /// Diagnostics from the Levenberg–Marquardt run.
    pub fit: FitResult,
}

/// Outcome of a full calibration.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// The calibrated model parameters, ready for the threshold functions.
    pub params: ModelParams,
    /// Per-parameter fit diagnostics, in [`ParamKind::ALL`] order for the
    /// parameters that had samples.
    pub fits: Vec<ParamFit>,
}

impl Calibration {
    /// Fit diagnostics for one parameter, if it was calibrated.
    pub fn fit_for(&self, kind: ParamKind) -> Option<&ParamFit> {
        self.fits.iter().find(|f| f.kind == kind)
    }

    /// The worst R² across all fitted parameters (1.0 if none).
    pub fn worst_r_squared(&self) -> f64 {
        self.fits
            .iter()
            .map(|f| f.fit.r_squared)
            .fold(1.0, f64::min)
    }
}

/// Fits every sampled parameter with the polynomial degree §V-A prescribes
/// (quadratic for `t_ua`/`t_aoi`, linear otherwise) and assembles a
/// [`ModelParams`]. Parameters without samples default to zero cost — the
/// paper itself neglects `t_npc` "for brevity", so an absent series is not
/// an error here; a campaign that knows what it measured checks for its
/// series first.
pub fn calibrate(measurements: &Measurements) -> Result<Calibration, CalibrationError> {
    let mut params = ModelParams::default();
    let mut fits = Vec::new();
    for kind in ParamKind::ALL {
        let Some(samples) = measurements.samples(kind) else {
            continue;
        };
        if samples.is_empty() {
            continue;
        }
        let model = Polynomial::new(kind.fit_degree());
        let result = fit(&model, &samples.user_counts, &samples.seconds, None)
            .map_err(|e| CalibrationError::Fit(kind, e))?;
        let cost_fn = CostFn::from_coefficients(&result.beta);
        params.set(kind, cost_fn.clone());
        fits.push(ParamFit {
            kind,
            cost_fn,
            fit: result,
        });
    }
    Ok(Calibration { params, fits })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generates noiseless samples from a ground-truth polynomial.
    fn synth(kind: ParamKind, coeffs: &[f64], meas: &mut Measurements) {
        let truth = CostFn::from_coefficients(coeffs);
        for n in (10..=300).step_by(10) {
            meas.record(kind, n as f64, truth.eval_raw(n as f64));
        }
    }

    #[test]
    fn recovers_ground_truth_parameters() {
        let mut meas = Measurements::new();
        synth(ParamKind::UaDser, &[1e-5, 2e-8], &mut meas);
        synth(ParamKind::Ua, &[2e-5, 1e-7, 3e-10], &mut meas);
        synth(ParamKind::Aoi, &[1e-5, 2e-7, 5e-11], &mut meas);
        synth(ParamKind::Su, &[3e-5, 5e-8], &mut meas);

        let cal = calibrate(&meas).unwrap();
        assert_eq!(cal.fits.len(), 4);
        assert!(
            cal.worst_r_squared() > 0.999999,
            "r² = {}",
            cal.worst_r_squared()
        );

        // Quadratic shape chosen for t_ua per §V-A.
        assert!(matches!(cal.params.t_ua, CostFn::Quadratic { .. }));
        assert!(matches!(cal.params.t_su, CostFn::Linear { .. }));

        // Coefficients recovered.
        let ua = cal.params.t_ua.coefficients();
        assert!((ua[0] - 2e-5).abs() < 1e-9);
        assert!((ua[1] - 1e-7).abs() < 1e-11);
        assert!((ua[2] - 3e-10).abs() < 1e-13);
    }

    #[test]
    fn unsampled_parameters_default_to_zero() {
        let mut meas = Measurements::new();
        synth(ParamKind::Ua, &[1e-5, 1e-8, 1e-11], &mut meas);
        let cal = calibrate(&meas).unwrap();
        assert_eq!(cal.params.t_npc, CostFn::ZERO);
        assert!(cal.fit_for(ParamKind::Npc).is_none());
        assert!(cal.fit_for(ParamKind::Ua).is_some());
    }

    #[test]
    fn all_nine_sampled_parameters_are_fitted() {
        let mut meas = Measurements::new();
        for kind in ParamKind::ALL {
            synth(kind, &[1e-5, 1e-8], &mut meas);
        }
        let cal = calibrate(&meas).unwrap();
        assert_eq!(cal.fits.len(), 9);
    }

    #[test]
    fn measurements_merge_accumulates() {
        let mut a = Measurements::new();
        a.record(ParamKind::Su, 10.0, 1e-5);
        let mut b = Measurements::new();
        b.record(ParamKind::Su, 20.0, 2e-5);
        b.record(ParamKind::Ua, 20.0, 3e-5);
        a.merge(&b);
        assert_eq!(a.total_samples(), 3);
        assert_eq!(a.samples(ParamKind::Su).unwrap().len(), 2);
    }

    #[test]
    fn noisy_samples_still_recover_trend() {
        let mut meas = Measurements::new();
        let truth = CostFn::Linear { c0: 5e-5, c1: 1e-7 };
        for i in 0..200u32 {
            let n = 10.0 + (i % 30) as f64 * 10.0;
            // Deterministic ±10 % multiplicative noise.
            let noise = 1.0 + 0.1 * (((i as f64 * 0.7).sin() * 43758.5453).abs().fract() - 0.5);
            meas.record(ParamKind::MigIni, n, truth.eval_raw(n) * noise);
        }
        let cal = calibrate(&meas).unwrap();
        let coeffs = cal.params.t_mig_ini.coefficients();
        assert!((coeffs[0] - 5e-5).abs() < 1e-5, "c0 = {}", coeffs[0]);
        assert!((coeffs[1] - 1e-7).abs() < 2e-8, "c1 = {}", coeffs[1]);
    }
}
