//! The provider's workflow over a saved model file.
//!
//! ```text
//! roia calibrate [--max-users N] [--noise X] [--out model.roia]
//! roia thresholds --model model.roia [--c 0.15] [--npcs 0]
//! roia plan --model model.roia --users 25,12,8
//! roia session --model model.roia [--peak 300] [--minutes 5] [--policy model|static|threshold]
//! ```
//!
//! A provider calibrates once per application build (`calibrate` runs the
//! §V-A bot campaign and saves the fitted model), then consults the model
//! (`thresholds`), previews rebalancing (`plan`), or simulates a managed
//! session (`session`).

use crate::{calibrated_model, policy_by_name, Args, Flag};
use roia_model::{format_model, parse_model, ScalabilityModel};
use roia_sim::{run_session, ManagedSessionConfig, MeasureConfig, PaperSession};

pub const CALIBRATE: &[Flag] = &[("--max-users", "N"), ("--noise", "X"), ("--out", "FILE")];
pub const THRESHOLDS: &[Flag] = &[("--model", "FILE"), ("--c", "FRACTION"), ("--npcs", "M")];
pub const PLAN: &[Flag] = &[("--model", "FILE"), ("--users", "A,B,C")];
pub const SESSION: &[Flag] = &[
    ("--model", "FILE"),
    ("--peak", "N"),
    ("--minutes", "M"),
    ("--policy", "model|static|threshold"),
];

fn load_model(args: &Args) -> Result<ScalabilityModel, String> {
    let path = args.value("--model").ok_or("--model FILE is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_model(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn calibrate(args: &Args) -> Result<(), String> {
    let config = MeasureConfig {
        max_users: args.num("--max-users")?.unwrap_or(300),
        noise: args.num("--noise")?.unwrap_or(0.10),
        ..MeasureConfig::default()
    };
    if !(0.0..1.0).contains(&config.noise) {
        return Err(format!("--noise must be in [0, 1), got {}", config.noise));
    }
    eprintln!(
        "running the measurement campaign (up to {} bots, noise {:.0} %)...",
        config.max_users,
        config.noise * 100.0
    );
    let (calibration, model) = calibrated_model(&config)?;
    eprintln!("worst fit R² = {:.4}", calibration.worst_r_squared());
    let text = format_model(&model);
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("model written to {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

pub fn thresholds(args: &Args) -> Result<(), String> {
    let mut model = load_model(args)?;
    if let Some(c) = args.num("--c")? {
        model = model.with_improvement_factor(c);
    }
    let npcs = args.num("--npcs")?.unwrap_or(0);
    let limit = model.max_replicas(npcs);
    println!(
        "U = {} ms, c = {}, trigger fraction = {}",
        model.u_threshold * 1e3,
        model.improvement_factor,
        model.trigger_fraction
    );
    println!("l_max = {}", limit.l_max);
    println!("{:>9} {:>10} {:>10}", "replicas", "max_users", "trigger");
    for (i, &cap) in limit.capacity_per_replica.iter().enumerate() {
        println!(
            "{:>9} {:>10} {:>10}",
            i + 1,
            cap,
            (cap as f64 * model.trigger_fraction).floor() as u32
        );
    }
    Ok(())
}

pub fn plan(args: &Args) -> Result<(), String> {
    let model = load_model(args)?;
    let users_arg = args.value("--users").ok_or("--users A,B,C is required")?;
    let users: Result<Vec<u32>, _> = users_arg.split(',').map(str::parse).collect();
    let users = users.map_err(|_| format!("--users: cannot parse '{users_arg}'"))?;
    if users.len() < 2 {
        return Err("--users needs at least two replicas".into());
    }
    let plan = model.plan_migrations(&users, 0);
    println!("initial: {users:?}");
    for (i, round) in plan.rounds.iter().enumerate() {
        println!("round {}:", i + 1);
        for mv in &round.moves {
            println!(
                "  {} users: replica {} -> replica {}",
                mv.users, mv.from, mv.to
            );
        }
        println!("  -> {:?}", round.resulting_users);
    }
    println!(
        "{} ({} users moved in {} rounds)",
        if plan.balanced {
            "balanced"
        } else {
            "NOT balanced (budgets exhausted)"
        },
        plan.total_moved(),
        plan.rounds.len()
    );
    Ok(())
}

pub fn session(args: &Args) -> Result<(), String> {
    let model = load_model(args)?;
    let peak = args.num("--peak")?.unwrap_or(300);
    let minutes: f64 = args.num("--minutes")?.unwrap_or(5.0);
    let policy_name = args.value("--policy").unwrap_or("model");
    let policy = policy_by_name(policy_name, &model)?;

    let total_secs = minutes * 60.0;
    let workload = PaperSession {
        peak,
        ramp_up_secs: total_secs * 0.4,
        hold_secs: total_secs * 0.2,
        ramp_down_secs: total_secs * 0.4,
    };
    let ticks = (total_secs / 0.040).ceil() as u64;
    let config = ManagedSessionConfig {
        ticks,
        max_churn_per_tick: 2,
        ..ManagedSessionConfig::default()
    };
    eprintln!("running a {minutes}-minute session, peak {peak} users, policy '{policy_name}'...");
    let report = run_session(config, policy, &workload);

    println!("policy:              {}", report.policy);
    println!(
        "violations:          {} ({:.2} % of ticks)",
        report.violations,
        report.violation_rate() * 100.0
    );
    println!("users migrated:      {}", report.migrations);
    println!("replicas added:      {}", report.replicas_added);
    println!("replicas removed:    {}", report.replicas_removed);
    println!("substitutions:       {}", report.substitutions);
    println!("peak servers:        {}", report.peak_servers);
    println!(
        "mean CPU load:       {:.1} %",
        report.mean_cpu_load() * 100.0
    );
    println!("cloud cost:          {:.3}", report.total_cost);
    Ok(())
}
