//! Per-term model attribution: which Eq. (1) term explains the miss?
//!
//! The autocal CUSUM watches *total*-tick residuals; this module folds
//! each observed per-task tick breakdown against the live model's
//! per-term predictions so a drift or a budget breach can be pinned on
//! a specific parameter (`t_ua`, `t_aoi`, `t_su`, …) instead of "the
//! tick got slow". The sim loop computes both vectors — observed
//! seconds per term from `TickSpan.per_task`, predicted seconds per
//! term from the registry's model — and feeds them to
//! [`AttributionAccumulator::fold`]; the accumulator keeps
//! streaming sums plus a log-linear histogram of absolute residuals
//! per term, and [`AttributionAccumulator::report`] ranks terms by how
//! much of the total misprediction they carry.
//!
//! `roia-obs` stays a zero-dependency leaf: the term slots mirror the
//! model crate's `ParamKind::ALL` order by convention (pinned by a
//! test in `roia-sim`), exactly like [`crate::TASK_SLOTS`] mirrors
//! `TaskKind`.

use crate::hist::{secs_to_micros, Histogram};

/// Number of model terms (mirrors `ParamKind::ALL.len()`).
pub const TERM_COUNT: usize = 9;

/// Paper symbols for the term slots, in `ParamKind::ALL` order.
pub const TERM_SYMBOLS: [&str; TERM_COUNT] = [
    "t_ua_dser",
    "t_ua",
    "t_fa_dser",
    "t_fa",
    "t_npc",
    "t_aoi",
    "t_su",
    "t_mig_ini",
    "t_mig_rcv",
];

/// Ranked attribution summary for one model term.
#[derive(Debug, Clone, PartialEq)]
pub struct TermReport {
    /// Paper symbol of the term (`t_ua`, `t_aoi`, …).
    pub symbol: &'static str,
    /// Samples folded (server ticks).
    pub samples: u64,
    /// Total observed seconds charged to this term.
    pub observed_s: f64,
    /// Total model-predicted seconds for this term.
    pub predicted_s: f64,
    /// Signed mean residual (observed − predicted) per sample, in
    /// microseconds. Positive: the model under-predicts this term.
    pub mean_residual_us: f64,
    /// 99th percentile of the absolute residual per sample, µs.
    pub p99_abs_residual_us: u64,
    /// This term's share of the total absolute misprediction across
    /// all terms, in `[0, 1]` (the "which term explains the miss"
    /// ranking key).
    pub miss_share: f64,
}

/// Streaming per-term residual accumulator.
#[derive(Debug, Clone, Default)]
pub struct AttributionAccumulator {
    samples: u64,
    observed: [f64; TERM_COUNT],
    predicted: [f64; TERM_COUNT],
    residual_sum: [f64; TERM_COUNT],
    abs_residual_sum: [f64; TERM_COUNT],
    abs_residual_us: [Histogram; TERM_COUNT],
}

impl AttributionAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one server tick: `observed[i]` seconds actually spent in
    /// term `i` (from the tick span's per-task timers) against
    /// `predicted[i]` seconds the live model assigns it.
    pub fn fold(&mut self, observed: &[f64; TERM_COUNT], predicted: &[f64; TERM_COUNT]) {
        self.samples += 1;
        for i in 0..TERM_COUNT {
            let resid = observed[i] - predicted[i];
            self.observed[i] += observed[i];
            self.predicted[i] += predicted[i];
            self.residual_sum[i] += resid;
            self.abs_residual_sum[i] += resid.abs();
            self.abs_residual_us[i].record(secs_to_micros(resid.abs()));
        }
    }

    /// Per-term reports ranked by [`TermReport::miss_share`]
    /// descending (ties broken by term order, so the ranking is
    /// deterministic).
    pub fn report(&self) -> Vec<TermReport> {
        let total_abs: f64 = self.abs_residual_sum.iter().sum();
        let mut out: Vec<TermReport> = (0..TERM_COUNT)
            .map(|i| TermReport {
                symbol: TERM_SYMBOLS[i],
                samples: self.samples,
                observed_s: self.observed[i],
                predicted_s: self.predicted[i],
                mean_residual_us: if self.samples == 0 {
                    0.0
                } else {
                    self.residual_sum[i] * 1e6 / self.samples as f64
                },
                p99_abs_residual_us: self.abs_residual_us[i].percentile(0.99),
                miss_share: if total_abs > 0.0 {
                    self.abs_residual_sum[i] / total_abs
                } else {
                    0.0
                },
            })
            .collect();
        out.sort_by(|a, b| {
            b.miss_share
                .partial_cmp(&a.miss_share)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AttributionAccumulator {
        /// `(observed, predicted)` total seconds summed over all terms.
        pub(crate) fn totals(&self) -> (f64, f64) {
            (self.observed.iter().sum(), self.predicted.iter().sum())
        }
    }

    #[test]
    fn symbols_cover_every_slot() {
        assert_eq!(TERM_SYMBOLS.len(), TERM_COUNT);
        assert_eq!(TERM_SYMBOLS[0], "t_ua_dser");
        assert_eq!(TERM_SYMBOLS[TERM_COUNT - 1], "t_mig_rcv");
    }

    #[test]
    fn empty_accumulator_reports_zeroes() {
        let acc = AttributionAccumulator::new();
        let report = acc.report();
        assert_eq!(report.len(), TERM_COUNT);
        assert!(report
            .iter()
            .all(|r| r.miss_share.abs() < 1e-12 && r.samples == 0));
        let (o, p) = acc.totals();
        assert!(o.abs() < 1e-12 && p.abs() < 1e-12);
    }

    #[test]
    fn biggest_residual_ranks_first() {
        let mut acc = AttributionAccumulator::new();
        let mut observed = [0.0; TERM_COUNT];
        let mut predicted = [0.0; TERM_COUNT];
        // t_aoi (slot 5) misses by 2 ms, t_ua (slot 1) by 0.5 ms,
        // everything else is exact.
        observed[5] = 0.004;
        predicted[5] = 0.002;
        observed[1] = 0.0015;
        predicted[1] = 0.001;
        observed[0] = 0.001;
        predicted[0] = 0.001;
        for _ in 0..100 {
            acc.fold(&observed, &predicted);
        }
        let report = acc.report();
        assert_eq!(report[0].symbol, "t_aoi");
        assert_eq!(report[1].symbol, "t_ua");
        assert!(report[0].miss_share > 0.7, "{}", report[0].miss_share);
        assert!(
            (report[0].mean_residual_us - 2000.0).abs() < 1e-6,
            "{}",
            report[0].mean_residual_us
        );
        // p99 of a constant 2 ms residual is ~2000 µs (bucket bound).
        let p99 = report[0].p99_abs_residual_us;
        assert!((1900..=2100).contains(&p99), "{p99}");
        // Exactly-predicted terms carry no share of the miss.
        let exact = report.iter().find(|r| r.symbol == "t_ua_dser").unwrap();
        assert!(exact.miss_share.abs() < 1e-12);
        assert!((exact.observed_s - 0.1).abs() < 1e-9);
    }

    #[test]
    fn signed_mean_distinguishes_over_and_under_prediction() {
        let mut acc = AttributionAccumulator::new();
        let mut observed = [0.0; TERM_COUNT];
        let mut predicted = [0.0; TERM_COUNT];
        observed[6] = 0.001;
        predicted[6] = 0.003; // model over-predicts t_su
        acc.fold(&observed, &predicted);
        let su = acc
            .report()
            .into_iter()
            .find(|r| r.symbol == "t_su")
            .unwrap();
        assert!(su.mean_residual_us < 0.0, "{}", su.mean_residual_us);
    }

    #[test]
    fn totals_sum_both_sides() {
        let mut acc = AttributionAccumulator::new();
        let observed = [0.001; TERM_COUNT];
        let predicted = [0.002; TERM_COUNT];
        acc.fold(&observed, &predicted);
        acc.fold(&observed, &predicted);
        let (o, p) = acc.totals();
        assert!((o - 0.018).abs() < 1e-12);
        assert!((p - 0.036).abs() < 1e-12);
    }
}
