//! Policy comparison — the §IV/§VI argument, quantified.
//!
//! Runs the same §V-B session (ramp to 300 users and back) under the
//! three load-balancing policies [`policy_by_name`] builds —
//! `model-driven` and the paper's two baselines `static-interval` (the
//! initial RTF-RMS) and `static-threshold` (Duong & Zhou) — and prints a
//! comparison table:
//! threshold violations, migration volume, scaling actions and cloud
//! cost. The paper's qualitative claims to check:
//!
//! * the static-interval strategy ("initial RTF-RMS") migrates far more and
//!   pays for it with violations,
//! * static user-count thresholds (Duong & Zhou) ignore the actual
//!   workload,
//! * the model-driven policy keeps the tick duration under U throughout.
//!
//! Usage: `roia policy_compare [--seed N] [--ticks N] [--json PATH]` — the
//! seed and length apply identically to every arm so the comparison
//! stays paired.

use crate::{
    calibrated_model, managed_session, policy_by_name, session_ticks, write_json_doc, Args,
};
use roia_obs::export as json;
use roia_sim::{run_session, MeasureConfig, PaperSession, SessionReport};

pub fn run(args: &Args) -> Result<(), String> {
    let (_cal, model) = calibrated_model(&MeasureConfig::default())?;
    let mut reports: Vec<SessionReport> = Vec::new();
    for name in ["model", "static", "threshold"] {
        let config = managed_session(args, session_ticks(args));
        let policy = policy_by_name(name, &model)?;
        reports.push(run_session(config, policy, &PaperSession::default()));
    }

    println!("=== Policy comparison on the §V-B session (peak 300 users, 5 min) ===\n");
    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "policy",
        "violations",
        "viol_rate%",
        "migrations",
        "adds",
        "removes",
        "subst",
        "peak_srv",
        "cost"
    );
    for r in &reports {
        println!(
            "{:<24} {:>10} {:>10.2} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10.3}",
            r.policy,
            r.violations,
            r.violation_rate() * 100.0,
            r.migrations,
            r.replicas_added,
            r.replicas_removed,
            r.substitutions,
            r.peak_servers,
            r.total_cost
        );
    }

    let model_driven = &reports[0];
    let static_interval = &reports[1];
    println!();
    println!(
        "{}",
        migration_summary(model_driven.migrations, static_interval.migrations)
    );
    println!(
        "model-driven violations: {} (paper: none during the managed session)",
        model_driven.violations
    );

    let rows: Vec<String> = reports
        .iter()
        .map(|r| {
            json::object(&[
                ("policy", json::string(r.policy)),
                ("violations", json::uint(r.violations)),
                ("violation_rate", json::num(r.violation_rate())),
                ("migrations", json::uint(r.migrations)),
                ("replicas_added", json::uint(r.replicas_added as u64)),
                ("replicas_removed", json::uint(r.replicas_removed as u64)),
                ("substitutions", json::uint(r.substitutions as u64)),
                ("peak_servers", json::uint(r.peak_servers as u64)),
                ("total_cost", json::num(r.total_cost)),
            ])
        })
        .collect();
    let doc = json::object(&[
        ("experiment", json::string("policy_compare")),
        ("seed", json::uint(args.seed.unwrap_or(42))),
        ("policies", json::array(&rows)),
    ]);
    write_json_doc(args, None, &doc)
}

/// How many users model-driven migrates next to the static-interval
/// baseline: a one-decimal ratio with its direction, and no ratio
/// against a zero count.
fn migration_summary(model_driven: u64, static_interval: u64) -> String {
    let (lo, hi) = (
        model_driven.min(static_interval),
        model_driven.max(static_interval),
    );
    let word = if model_driven < static_interval {
        "fewer"
    } else {
        "more"
    };
    let relation = if lo == hi {
        "as many users as".to_owned()
    } else if lo == 0 {
        format!("{word} users than")
    } else {
        format!("{:.1}x {word} users than", hi as f64 / lo as f64)
    };
    format!(
        "model-driven migrates {relation} the static-interval baseline \
         ({model_driven} vs {static_interval})"
    )
}

#[cfg(test)]
mod tests {
    use super::migration_summary;

    #[test]
    fn the_summary_names_the_direction_and_a_one_decimal_ratio() {
        assert_eq!(
            migration_summary(380, 238),
            "model-driven migrates 1.6x more users than the static-interval baseline (380 vs 238)"
        );
        assert_eq!(
            migration_summary(51, 351),
            "model-driven migrates 6.9x fewer users than the static-interval baseline (51 vs 351)"
        );
    }

    #[test]
    fn zero_migrations_get_a_direction_but_no_ratio() {
        assert_eq!(
            migration_summary(0, 238),
            "model-driven migrates fewer users than the static-interval baseline (0 vs 238)"
        );
        assert_eq!(
            migration_summary(12, 0),
            "model-driven migrates more users than the static-interval baseline (12 vs 0)"
        );
        assert_eq!(
            migration_summary(0, 0),
            "model-driven migrates as many users as the static-interval baseline (0 vs 0)"
        );
    }
}
