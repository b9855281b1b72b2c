//! Recalibration study — static vs online calibration under a regime
//! shift.
//!
//! Runs the same drifting-workload session twice with identical seeds: a
//! population ramp that holds while, mid-session, the workload regime
//! shifts (attack frequency doubles, an NPC surge lands). The *frozen*
//! arm keeps the offline §V-A calibration for the whole session; the
//! *online* arm streams tick records into an `roia-autocal` calibrator
//! whose versioned registry the model-driven policy consults live.
//! Prints the prediction-error-over-time comparison and writes the
//! machine-readable summary to `BENCH_recalibration.json`.
//!
//! Usage: `roia recalibration [--seed N] [--ticks N] [--shift-tick N]
//! [--npcs N] [--users N] [--json PATH] [--trace PATH] [--metrics PATH]`
//! — trace/metrics capture the *online* arm's session.

use crate::{calibrated_model, tracer, write_json_doc, write_metrics, Args, Flag};
use roia_autocal::{CalibratorConfig, OnlineCalibrator};
use roia_obs::export as json;
use roia_sim::{
    run_session, table, ClusterConfig, ManagedSessionConfig, MeasureConfig, Ramp, RegimeShift,
    Series, SessionReport,
};
use rtf_rms::{ModelDriven, ModelDrivenConfig};

pub const FLAGS: &[Flag] = &[("--shift-tick", "N"), ("--npcs", "N"), ("--users", "N")];

fn arm_summary(label: &str, report: &SessionReport, shift: u64, settle: u64) -> String {
    json::object(&[
        ("mode", json::string(label)),
        (
            "mean_err_pre_shift",
            json::num(report.mean_prediction_error(0, shift)),
        ),
        (
            "mean_err_post_shift",
            json::num(report.mean_prediction_error(shift + settle, u64::MAX)),
        ),
        (
            "max_tick_post_shift_ms",
            json::num(report.max_tick_from(shift + settle) * 1e3),
        ),
        ("violations", json::num(report.violations as f64)),
        (
            "final_model_version",
            json::num(report.final_model_version as f64),
        ),
        (
            "published_refits",
            json::num(report.published_refits() as f64),
        ),
        ("peak_servers", json::num(report.peak_servers as f64)),
        ("total_cost", json::num(report.total_cost)),
    ])
}

pub fn run(args: &Args) -> Result<(), String> {
    let seed = args.seed.unwrap_or(42);
    let ticks = args.ticks.unwrap_or(7_500);
    let shift_tick: u64 = args.num("--shift-tick")?.unwrap_or(3_000);
    let npcs: u32 = args.num("--npcs")?.unwrap_or(150);
    let users: u32 = args.num("--users")?.unwrap_or(200);
    if shift_tick >= ticks {
        return Err("the shift must land inside the session".into());
    }
    let (_cal, model) = calibrated_model(&MeasureConfig::default())?;
    let u_threshold = model.u_threshold;
    println!(
        "seed model: n_max(1) = {}, trigger = {}\n",
        model.max_users(1, 0),
        model.replication_trigger(1, 0)
    );

    let workload = Ramp {
        from: 0,
        to: users,
        duration_secs: 60.0,
    };
    let session = || ManagedSessionConfig {
        ticks,
        cluster: ClusterConfig {
            seed,
            ..ClusterConfig::default()
        },
        shift: Some(RegimeShift::attack_surge(shift_tick, npcs)),
        ..ManagedSessionConfig::default()
    };

    println!("running frozen arm ({ticks} ticks)...");
    let frozen = run_session(
        ManagedSessionConfig {
            reference_model: Some(model.clone()),
            ..session()
        },
        Box::new(ModelDriven::new(
            model.clone(),
            ModelDrivenConfig::default(),
        )),
        &workload,
    );
    println!("running online arm ({ticks} ticks)...");
    let calibrator = OnlineCalibrator::new(model, CalibratorConfig::default());
    let policy = Box::new(ModelDriven::live(
        calibrator.registry(),
        ModelDrivenConfig::default(),
    ));
    let online_config = ManagedSessionConfig {
        autocal: Some(calibrator),
        tracer: tracer(args.trace.as_deref())?,
        ..session()
    };
    let online = run_session(online_config, policy, &workload);
    if let Some(path) = &args.trace {
        println!("wrote {}", path.display());
    }
    write_metrics(args.metrics.as_deref(), &online.metrics)?;

    // Prediction error over time, averaged per ~10 s bucket.
    let bucket = 250usize;
    let mut frozen_err = Series::new("frozen_err_%");
    let mut online_err = Series::new("online_err_%");
    let mut version = Series::new("model_version");
    let buckets = (ticks as usize).div_ceil(bucket);
    let mut series_rows: Vec<String> = Vec::new();
    for b in 0..buckets {
        let lo = (b * bucket) as u64;
        let hi = lo + bucket as u64;
        let t = lo as f64 * 0.040;
        let fe = frozen.mean_prediction_error(lo, hi);
        let oe = online.mean_prediction_error(lo, hi);
        let ver = online
            .history
            .iter()
            .filter(|h| h.tick >= lo && h.tick < hi)
            .map(|h| h.model_version)
            .max()
            .unwrap_or(0);
        frozen_err.push(t, fe * 100.0);
        online_err.push(t, oe * 100.0);
        version.push(t, ver as f64);
        series_rows.push(json::object(&[
            ("tick", json::num(lo as f64)),
            ("t_secs", json::num(t)),
            ("frozen_err", json::num(fe)),
            ("online_err", json::num(oe)),
            ("online_version", json::num(ver as f64)),
        ]));
    }

    println!("\n=== prediction error over time (relative, %) ===\n");
    println!("{}", table("t_secs", &[&frozen_err, &online_err, &version]));
    println!(
        "(regime shift at t = {:.0} s: attack frequency x2, {} NPCs spawn, costs x1.5)\n",
        shift_tick as f64 * 0.040,
        npcs
    );

    let settle = 500u64; // 20 s for refits/boots to land before judging
    for (label, report) in [("frozen", &frozen), ("online", &online)] {
        println!(
            "{label:>7}: err pre {:.1} % -> post {:.1} %, worst post-shift tick {:.2} ms, \
             violations {}, refits published {}, final version {}",
            report.mean_prediction_error(0, shift_tick) * 100.0,
            report.mean_prediction_error(shift_tick + settle, u64::MAX) * 100.0,
            report.max_tick_from(shift_tick + settle) * 1e3,
            report.violations,
            report.published_refits(),
            report.final_model_version
        );
    }
    println!(
        "\nthe online arm's controller {} the {:.0} ms threshold after the shift",
        if online.max_tick_from(shift_tick + settle) <= u_threshold {
            "held"
        } else {
            "VIOLATED"
        },
        u_threshold * 1e3
    );

    let doc = json::object(&[
        ("experiment", json::string("recalibration")),
        ("seed", json::num(seed as f64)),
        ("ticks", json::num(ticks as f64)),
        ("shift_tick", json::num(shift_tick as f64)),
        ("npcs_after", json::num(npcs as f64)),
        ("users", json::num(users as f64)),
        ("u_threshold_ms", json::num(u_threshold * 1e3)),
        ("settle_ticks", json::num(settle as f64)),
        (
            "arms",
            json::array(&[
                arm_summary("frozen", &frozen, shift_tick, settle),
                arm_summary("online", &online, shift_tick, settle),
            ]),
        ),
        ("series", json::array(&series_rows)),
    ]);
    write_json_doc(args, Some("BENCH_recalibration.json"), &doc)
}
