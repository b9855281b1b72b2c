//! Cost functions: per-task CPU time as a function of the user count.
//!
//! Section III-C of the paper instantiates the model for a particular ROIA by
//! determining the application-specific parameters `t_ua_dser`, `t_ua`,
//! `t_fa_dser`, `t_fa`, `t_npc`, `t_aoi`, `t_su`, `t_mig_ini` and
//! `t_mig_rcv`, each approximated as a simple function of the user count
//! (linear or quadratic polynomials in the RTFDemo case study, §V-A). A
//! [`CostFn`] is one such approximation: it maps a user count to CPU
//! *seconds* spent on that task per entity per tick.

/// A fitted approximation of one per-task CPU-time parameter.
///
/// Evaluation returns seconds; negative predictions (possible near x = 0
/// after a least-squares fit of noisy data) are clamped to zero by
/// [`CostFn::eval`], because a task can never have negative cost. Use
/// [`CostFn::eval_raw`] to inspect the unclamped polynomial.
#[derive(Debug, Clone, PartialEq)]
pub enum CostFn {
    /// A constant cost, independent of user count.
    Constant(f64),
    /// `c0 + c1·x` — the shape the paper fits for (de)serialization,
    /// forwarded inputs, state updates and migration costs.
    Linear {
        /// Intercept (seconds).
        c0: f64,
        /// Slope (seconds per user).
        c1: f64,
    },
    /// `c0 + c1·x + c2·x²` — the shape the paper fits for `t_ua` and
    /// `t_aoi`.
    Quadratic {
        /// Intercept (seconds).
        c0: f64,
        /// Linear coefficient.
        c1: f64,
        /// Quadratic coefficient.
        c2: f64,
    },
    /// Arbitrary polynomial `Σ coeffs[i]·xⁱ` for shapes beyond the paper's.
    Poly(Vec<f64>),
}

impl CostFn {
    /// A cost function that is identically zero (used for neglected terms,
    /// e.g. `t_npc` when a scenario has no NPCs, as in §III-A's "neglected
    /// for brevity").
    pub const ZERO: CostFn = CostFn::Constant(0.0);

    /// Builds a [`CostFn`] from fitted polynomial coefficients
    /// (lowest-order first), choosing the most specific variant.
    pub fn from_coefficients(coeffs: &[f64]) -> Self {
        match coeffs {
            [] => CostFn::Constant(0.0),
            [c0] => CostFn::Constant(*c0),
            [c0, c1] => CostFn::Linear { c0: *c0, c1: *c1 },
            [c0, c1, c2] => CostFn::Quadratic {
                c0: *c0,
                c1: *c1,
                c2: *c2,
            },
            _ => CostFn::Poly(coeffs.to_vec()),
        }
    }

    /// The polynomial coefficients, lowest-order first.
    pub fn coefficients(&self) -> Vec<f64> {
        match self {
            CostFn::Constant(c) => vec![*c],
            CostFn::Linear { c0, c1 } => vec![*c0, *c1],
            CostFn::Quadratic { c0, c1, c2 } => vec![*c0, *c1, *c2],
            CostFn::Poly(c) => c.clone(),
        }
    }

    /// Evaluates the raw polynomial at `x` (may be negative for
    /// extrapolations of noisy fits).
    pub fn eval_raw(&self, x: f64) -> f64 {
        match self {
            CostFn::Constant(c) => *c,
            CostFn::Linear { c0, c1 } => c0 + c1 * x,
            CostFn::Quadratic { c0, c1, c2 } => c0 + x * (c1 + c2 * x),
            CostFn::Poly(c) => c.iter().rev().fold(0.0, |acc, &k| acc * x + k),
        }
    }

    /// Evaluates the cost at user count `x`, clamped to be non-negative.
    pub fn eval(&self, x: f64) -> f64 {
        self.eval_raw(x).max(0.0)
    }

    /// Whether the function is non-decreasing on `[0, x_hi]`.
    ///
    /// The capacity search in [`crate::capacity`] relies on tick duration
    /// growing with the user count; this check lets callers validate fitted
    /// parameters before trusting binary-search results.
    pub fn is_non_decreasing_on(&self, x_hi: f64) -> bool {
        // Sample densely; cost functions are low-order polynomials, so 256
        // samples cannot miss a dip of any consequence.
        const SAMPLES: usize = 256;
        let mut prev = self.eval(0.0);
        for i in 1..=SAMPLES {
            let x =
                x_hi * crate::convert::f64_from_usize(i) / crate::convert::f64_from_usize(SAMPLES);
            let v = self.eval(x);
            if v < prev - 1e-15 {
                return false;
            }
            prev = v;
        }
        true
    }

    /// Scales the whole function by a constant factor (used by resource
    /// substitution to model a machine `speedup`× faster: costs divide by
    /// the speedup).
    pub fn scaled(&self, factor: f64) -> CostFn {
        let coeffs: Vec<f64> = self.coefficients().iter().map(|c| c * factor).collect();
        CostFn::from_coefficients(&coeffs)
    }
}

impl Default for CostFn {
    fn default() -> Self {
        CostFn::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_evaluates_everywhere() {
        let f = CostFn::Constant(2.5e-6);
        assert_eq!(f.eval(0.0), 2.5e-6);
        assert_eq!(f.eval(1e6), 2.5e-6);
    }

    #[test]
    fn linear_evaluates() {
        let f = CostFn::Linear { c0: 1.0, c1: 2.0 };
        assert_eq!(f.eval(3.0), 7.0);
    }

    #[test]
    fn quadratic_evaluates() {
        let f = CostFn::Quadratic {
            c0: 1.0,
            c1: 0.0,
            c2: 2.0,
        };
        assert_eq!(f.eval(3.0), 19.0);
    }

    #[test]
    fn poly_matches_quadratic() {
        let q = CostFn::Quadratic {
            c0: 1.0,
            c1: -2.0,
            c2: 0.5,
        };
        let p = CostFn::Poly(vec![1.0, -2.0, 0.5]);
        for i in 0..10 {
            let x = i as f64 * 7.3;
            assert!((q.eval_raw(x) - p.eval_raw(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn negative_predictions_clamp_to_zero() {
        let f = CostFn::Linear { c0: -1.0, c1: 0.1 };
        assert_eq!(f.eval(0.0), 0.0);
        assert_eq!(f.eval_raw(0.0), -1.0);
        assert!(f.eval(20.0) > 0.0);
    }

    #[test]
    fn from_coefficients_picks_variants() {
        assert_eq!(CostFn::from_coefficients(&[]), CostFn::Constant(0.0));
        assert_eq!(CostFn::from_coefficients(&[3.0]), CostFn::Constant(3.0));
        assert!(matches!(
            CostFn::from_coefficients(&[1.0, 2.0]),
            CostFn::Linear { .. }
        ));
        assert!(matches!(
            CostFn::from_coefficients(&[1.0, 2.0, 3.0]),
            CostFn::Quadratic { .. }
        ));
        assert!(matches!(
            CostFn::from_coefficients(&[1.0, 2.0, 3.0, 4.0]),
            CostFn::Poly(_)
        ));
    }

    #[test]
    fn coefficients_round_trip() {
        for coeffs in [
            vec![5.0],
            vec![1.0, 2.0],
            vec![1.0, 2.0, 3.0],
            vec![1.0, 0.0, 0.0, 4.0],
        ] {
            let f = CostFn::from_coefficients(&coeffs);
            assert_eq!(f.coefficients(), coeffs);
        }
    }

    #[test]
    fn monotonicity_check() {
        assert!(CostFn::Linear { c0: 1.0, c1: 0.5 }.is_non_decreasing_on(1000.0));
        assert!(CostFn::Constant(1.0).is_non_decreasing_on(1000.0));
        // Downward parabola over the range is caught.
        assert!(!CostFn::Quadratic {
            c0: 0.0,
            c1: 1.0,
            c2: -0.01
        }
        .is_non_decreasing_on(1000.0));
        // Clamping makes a negative-slope line "flat at zero", which is
        // non-decreasing only if it never rises first.
        assert!(!CostFn::Linear { c0: 1.0, c1: -0.1 }.is_non_decreasing_on(100.0));
    }

    #[test]
    fn scaled_multiplies_all_coefficients() {
        let f = CostFn::Quadratic {
            c0: 1.0,
            c1: 2.0,
            c2: 3.0,
        };
        let g = f.scaled(0.5);
        assert!((g.eval(10.0) - 0.5 * f.eval(10.0)).abs() < 1e-12);
    }

    #[test]
    fn clone_preserves_value() {
        let f = CostFn::Quadratic {
            c0: 1e-4,
            c1: 2e-6,
            c2: 3e-9,
        };
        let g = f.clone();
        assert_eq!(f, g);
    }
}
