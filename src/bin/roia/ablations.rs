//! Ablations over the design choices of the model-driven controller:
//!
//! 1. the §V-A replication-trigger fraction (the paper picks 80 % after
//!    "empiric observations" — what happens at other values?),
//! 2. the minimum-improvement factor `c` of Eq. (3) (the paper discusses
//!    0.05 / 0.15 / 1.0),
//! 3. the machine boot delay (the paper's testbed had none worth noting;
//!    clouds do),
//! 4. the measurement noise fed into the calibration (how robust is the
//!    LM fit pipeline?).
//!
//! Usage: `roia ablations [--seed N] [--ticks N] [--json PATH]` — the seed
//! and length apply to every ablated session so sweeps stay paired.

use crate::{calibrated_model, campaign, managed_session, write_json_doc, Args};
use roia_model::ScalabilityModel;
use roia_obs::export as json;
use roia_sim::{run_session, MeasureConfig, PaperSession, SessionReport};
use rtf_rms::{ModelDriven, ModelDrivenConfig, ResourcePool};

fn session(
    model: ScalabilityModel,
    trigger_fraction: f64,
    boot_delay: u64,
    args: &Args,
) -> SessionReport {
    let workload = PaperSession {
        peak: 300,
        ramp_up_secs: 80.0,
        hold_secs: 20.0,
        ramp_down_secs: 80.0,
    };
    let mut config = managed_session(args, args.ticks.unwrap_or(180 * 25));
    config.cluster.pool = ResourcePool::new(16, 2, boot_delay, 90_000);
    let policy = Box::new(ModelDriven::new(
        model.with_trigger_fraction(trigger_fraction),
        ModelDrivenConfig::default(),
    ));
    run_session(config, policy, &workload)
}

pub fn run(args: &Args) -> Result<(), String> {
    let (_cal, model) = calibrated_model(&MeasureConfig::default())?;

    println!("=== Ablation 1: replication-trigger fraction (paper: 0.8) ===");
    println!(
        "{:>9} {:>11} {:>11} {:>8} {:>10} {:>9}",
        "fraction", "violations", "migrations", "adds", "peak_srv", "cost"
    );
    let mut trigger_rows: Vec<String> = Vec::new();
    for fraction in [0.6, 0.7, 0.8, 0.9, 0.95, 1.0] {
        let r = session(model.clone(), fraction, 50, args);
        println!(
            "{:>9.2} {:>11} {:>11} {:>8} {:>10} {:>9.3}",
            fraction, r.violations, r.migrations, r.replicas_added, r.peak_servers, r.total_cost
        );
        trigger_rows.push(json::object(&[
            ("fraction", json::num(fraction)),
            ("violations", json::uint(r.violations)),
            ("migrations", json::uint(r.migrations)),
            ("replicas_added", json::uint(r.replicas_added as u64)),
            ("peak_servers", json::uint(r.peak_servers as u64)),
            ("total_cost", json::num(r.total_cost)),
        ]));
    }
    println!("(low fractions scale early: fewer violations, more cost; 1.0 scales");
    println!(" only at the capacity limit and pays in violations)\n");

    println!("=== Ablation 2: minimum-improvement factor c of Eq. (3) ===");
    println!("{:>6} {:>7} {:>16}", "c", "l_max", "capacity@l_max");
    let mut improvement_rows: Vec<String> = Vec::new();
    for c in [0.05, 0.10, 0.15, 0.25, 0.5, 1.0] {
        let m = model.clone().with_improvement_factor(c);
        let limit = m.max_replicas(0);
        println!(
            "{:>6.2} {:>7} {:>16}",
            c,
            limit.l_max,
            limit.capacity_per_replica.last().copied().unwrap_or(0)
        );
        improvement_rows.push(json::object(&[
            ("c", json::num(c)),
            ("l_max", json::uint(limit.l_max as u64)),
            (
                "capacity_at_l_max",
                json::uint(limit.capacity_per_replica.last().copied().unwrap_or(0) as u64),
            ),
        ]));
    }
    println!();

    println!("=== Ablation 3: machine boot delay (ticks of 40 ms) ===");
    println!(
        "{:>7} {:>11} {:>8} {:>10}",
        "delay", "violations", "adds", "peak_srv"
    );
    let mut boot_rows: Vec<String> = Vec::new();
    for delay in [0u64, 25, 50, 100, 200] {
        let r = session(model.clone(), 0.8, delay, args);
        println!(
            "{:>7} {:>11} {:>8} {:>10}",
            delay, r.violations, r.replicas_added, r.peak_servers
        );
        boot_rows.push(json::object(&[
            ("boot_delay_ticks", json::uint(delay)),
            ("violations", json::uint(r.violations)),
            ("replicas_added", json::uint(r.replicas_added as u64)),
            ("peak_servers", json::uint(r.peak_servers as u64)),
        ]));
    }
    println!("(a scale-up times out after max(150, delay + 100) ticks, so no boot is redone)\n");

    println!("=== Ablation 4: measurement noise vs calibrated capacity ===");
    println!("{:>7} {:>10} {:>9}", "noise", "n_max(1)", "l_max");
    let mut noise_rows: Vec<String> = Vec::new();
    for noise in [0.0, 0.05, 0.10, 0.20, 0.30] {
        let noisy = MeasureConfig {
            noise,
            ..campaign(args)
        };
        let (_cal, m) = calibrated_model(&noisy)?;
        println!(
            "{:>7.2} {:>10} {:>9}",
            noise,
            m.max_users(1, 0),
            m.max_replicas(0).l_max
        );
        noise_rows.push(json::object(&[
            ("noise", json::num(noise)),
            ("n_max_1", json::uint(m.max_users(1, 0) as u64)),
            ("l_max", json::uint(m.max_replicas(0).l_max as u64)),
        ]));
    }
    println!("(the LM fit absorbs realistic noise; capacities drift only slightly)");

    let doc = json::object(&[
        ("experiment", json::string("ablations")),
        ("seed", json::uint(args.seed.unwrap_or(42))),
        ("trigger_fraction", json::array(&trigger_rows)),
        ("improvement_factor", json::array(&improvement_rows)),
        ("boot_delay", json::array(&boot_rows)),
        ("calibration_noise", json::array(&noise_rows)),
    ]);
    write_json_doc(args, None, &doc)
}
