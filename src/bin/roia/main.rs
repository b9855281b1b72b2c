//! `roia` — the one command-line front end to the reproduction.
//!
//! The paper's method is one pipeline, and each step is a subcommand:
//! measure and fit the per-task costs (`fig4`, `fig6`, `calibrate`),
//! derive the thresholds (`fig5`, `fig7`, `thresholds`, `plan`, `fig2`),
//! then manage sessions under U (`fig8`, `session`, `policy_compare`,
//! `chaos_session`, `scenarios`, …). Beside them sit the trace reader
//! (`explain`) and the engine harnesses (`scale`, `netdemo`,
//! `schedule_stress`). `roia help` lists every subcommand; `roia <sub>
//! --help` prints its flags.
//!
//! Each subcommand is one module exposing `run(&Args)`. [`COMMANDS`] is
//! the dispatch table and [`parse`] the one flag parser: a malformed
//! command line exits with status 2 after an `error:` line and the usage
//! on stderr; a run that fails exits with status 1.

mod ablations;
mod chaos_session;
mod explain;
mod fig2;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod netdemo;
mod overprovision;
mod policy_compare;
mod provider;
mod recalibration;
mod scale;
mod scenarios;
mod schedule_stress;
mod traffic;

use roia_model::Calibration;
use roia_model::ScalabilityModel;
use roia_obs::{MetricsRegistry, Tracer};
use roia_sim::{
    calibrated_demo_model, ClusterConfig, ManagedSessionConfig, MeasureConfig, PaperSession,
};
use rtf_rms::{ModelDriven, ModelDrivenConfig, Policy, StaticInterval, StaticThreshold};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A flag and the placeholder of its value.
type Flag = (&'static str, &'static str);

/// A subcommand's entry point.
type Run = fn(&Args) -> Result<(), String>;

// The flags several subcommands read, parsed into the typed fields of
// [`Args`], and the sets of them a subcommand reads.
const SEED: Flag = ("--seed", "N");
const TICKS: Flag = ("--ticks", "N");
const PLAN: Flag = ("--plan", "NAME");
const JSON: Flag = ("--json", "PATH");
const TRACE: Flag = ("--trace", "PATH");
const METRICS: Flag = ("--metrics", "PATH");
const FLIGHT: Flag = ("--flight", "DIR");
const FIGURE: &[Flag] = &[SEED, JSON];
const SESSION: &[Flag] = &[SEED, TICKS, JSON];
const TRACED: &[Flag] = &[SEED, TICKS, JSON, TRACE, METRICS];
const CHAOS: &[Flag] = &[SEED, PLAN, TICKS, JSON, TRACE, METRICS, FLIGHT];

/// One row of the dispatch table.
struct Command {
    name: &'static str,
    about: &'static str,
    /// The shared flags the subcommand reads.
    shared: &'static [Flag],
    /// The subcommand's own flags, read back through [`Args::value`].
    own: &'static [Flag],
    /// Placeholder of the one positional argument, if it takes one.
    positional: Option<&'static str>,
    run: Run,
}

impl Command {
    const fn new(
        name: &'static str,
        about: &'static str,
        shared: &'static [Flag],
        own: &'static [Flag],
        run: Run,
    ) -> Self {
        Self {
            name,
            about,
            shared,
            own,
            positional: None,
            run,
        }
    }

    /// Every flag the subcommand reads; any other is refused.
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.shared.iter().chain(self.own)
    }

    fn usage(&self) -> String {
        let mut line = format!("usage: roia {}", self.name);
        if let Some(p) = self.positional {
            line.push_str(&format!(" {p}"));
        }
        for (flag, value) in self.flags() {
            line.push_str(&format!(" [{flag} {value}]"));
        }
        format!("{line}\n\n{}", self.about)
    }
}

/// The dispatch table, in `roia help` order: each row names the shared
/// flags its module reads and the module's own `FLAGS`.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command::new("fig2", "Fig. 2: Listing-1 migration in budget-limited rounds", FIGURE, &[], fig2::run),
    Command::new("fig4", "Fig. 4: fitted per-task cost functions", FIGURE, &[], fig4::run),
    Command::new("fig5", "Fig. 5: users vs replicas, trigger, l_max", FIGURE, &[], fig5::run),
    Command::new("fig6", "Fig. 6: fitted migration cost functions", FIGURE, &[], fig6::run),
    Command::new("fig7", "Fig. 7: migration budgets vs tick duration", FIGURE, &[], fig7::run),
    Command::new("fig8", "Fig. 8: the managed 300-user session", TRACED, &[], fig8::run),
    Command::new("policy_compare", "the Fig. 8 session under three policies", SESSION, &[], policy_compare::run),
    Command::new("chaos_session", "the Fig. 8 session under fault plans", CHAOS, &[], chaos_session::run),
    Command {
        positional: Some("TRACE.jsonl"),
        ..Command::new("explain", "replay a JSONL trace: timeline, latency, attribution, SLOs", &[TICKS, JSON], explain::FLAGS, explain::run)
    },
    Command::new("scale", "session size x worker threads throughput", SESSION, scale::FLAGS, scale::run),
    Command::new("netdemo", "socket bots over TCP, egress vs Eq. (1)", TRACED, netdemo::FLAGS, netdemo::run),
    Command::new("scenarios", "adversarial scenario leaderboard", SESSION, scenarios::FLAGS, scenarios::run),
    Command::new("schedule_stress", "digests under permuted schedules", SESSION, schedule_stress::FLAGS, schedule_stress::run),
    Command::new("recalibration", "frozen vs online calibration", TRACED, recalibration::FLAGS, recalibration::run),
    Command::new("ablations", "trigger, c, boot-delay and noise sweeps", SESSION, &[], ablations::run),
    Command::new("overprovision", "static provisioning vs the managed session", SESSION, &[], overprovision::run),
    Command::new("traffic", "bandwidth model and bandwidth-bound capacity", SESSION, &[], traffic::run),
    Command::new("calibrate", "run the bot campaign, write the model", &[], provider::CALIBRATE, provider::calibrate),
    Command::new("thresholds", "capacity ladder and l_max of a model", &[], provider::THRESHOLDS, provider::thresholds),
    Command::new("plan", "Listing-1 rounds for a user distribution", &[], provider::PLAN, provider::plan),
    Command::new("session", "a managed session under one policy", &[], provider::SESSION, provider::session),
];

fn usage() -> String {
    let mut out = String::from(
        "roia — the ICPP 2013 ROIA scalability model, end to end\n\n\
         usage: roia <subcommand> [flags]   (roia <subcommand> --help for its flags)\n\n\
         subcommands:\n",
    );
    for cmd in COMMANDS {
        out.push_str(&format!("  {:<16} {}\n", cmd.name, cmd.about));
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((sub, rest)) = argv.split_first() else {
        eprintln!("error: no subcommand given\n\n{}", usage());
        return ExitCode::from(2);
    };
    if matches!(sub.as_str(), "help" | "--help" | "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == sub) else {
        eprintln!("error: unknown subcommand '{sub}'\n\n{}", usage());
        return ExitCode::from(2);
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", cmd.usage());
        return ExitCode::SUCCESS;
    }
    let args = match parse(cmd, rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cmd.usage());
            return ExitCode::from(2);
        }
    };
    match (cmd.run)(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A parsed command line: the shared flags typed, the subcommand's own
/// flags as given.
#[derive(Default)]
struct Args {
    /// `--seed N`: RNG seed of the session/campaign.
    seed: Option<u64>,
    /// `--ticks N`: session length.
    ticks: Option<u64>,
    /// `--plan NAME`: named scenario selector (chaos plans).
    plan: Option<String>,
    /// `--json PATH`: machine-readable summary destination.
    json: Option<PathBuf>,
    /// `--trace PATH`: JSONL telemetry trace destination.
    trace: Option<PathBuf>,
    /// `--metrics PATH`: Prometheus text snapshot destination.
    metrics: Option<PathBuf>,
    /// `--flight DIR`: flight-recorder postmortem bundle directory.
    flight: Option<PathBuf>,
    /// The positional argument (`explain`'s trace file).
    positional: Option<String>,
    /// The subcommand's own flags in order.
    extra: Vec<(&'static str, String)>,
}

impl Args {
    /// The last value given for `flag`.
    fn value(&self, flag: &str) -> Option<&str> {
        self.extra
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for a repeatable `flag`, in order.
    fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.extra
            .iter()
            .filter(move |(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// `flag`'s value parsed, `None` when it was not given.
    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'")))
            .transpose()
    }
}

/// Parses the arguments after the subcommand name against `cmd`'s flags.
fn parse(cmd: &Command, argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            if cmd.positional.is_none() || args.positional.is_some() {
                return Err(format!("unexpected argument '{arg}'"));
            }
            args.positional = Some(arg.clone());
            continue;
        }
        let &(flag, _) = cmd
            .flags()
            .find(|(f, _)| f == arg)
            .ok_or_else(|| format!("unknown flag {arg}"))?;
        let value = it
            .next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs a numeric value"))
        };
        match flag {
            "--seed" => args.seed = Some(number(&value)?),
            "--ticks" => args.ticks = Some(number(&value)?),
            "--plan" => args.plan = Some(value),
            "--json" => args.json = Some(value.into()),
            "--trace" => args.trace = Some(value.into()),
            "--metrics" => args.metrics = Some(value.into()),
            "--flight" => args.flight = Some(value.into()),
            _ => args.extra.push((flag, value)),
        }
    }
    if let (Some(p), None) = (cmd.positional, &args.positional) {
        return Err(format!("no {p} given"));
    }
    Ok(args)
}

/// Runs the full §V-A measurement campaign and returns the raw
/// calibration (for fit-quality reporting) and the model at the paper's
/// thresholds.
fn calibrated_model(config: &MeasureConfig) -> Result<(Calibration, ScalabilityModel), String> {
    calibrated_demo_model(config).map_err(|e| e.to_string())
}

/// The default campaign (the paper's 300 bots) at `--seed`, if given.
fn campaign(args: &Args) -> MeasureConfig {
    let mut campaign = MeasureConfig::default();
    if let Some(seed) = args.seed {
        campaign.seed = seed;
    }
    campaign
}

/// `--ticks`, else the whole §V-B session at 25 Hz.
fn session_ticks(args: &Args) -> u64 {
    args.ticks
        .unwrap_or_else(|| (PaperSession::default().duration_secs() / 0.040).ceil() as u64)
}

/// The §V-B managed session at `--seed` (default 42), two joins or
/// leaves a tick.
fn managed_session(args: &Args, ticks: u64) -> ManagedSessionConfig {
    ManagedSessionConfig {
        ticks,
        max_churn_per_tick: 2,
        cluster: ClusterConfig {
            seed: args.seed.unwrap_or(42),
            ..ClusterConfig::default()
        },
        ..ManagedSessionConfig::default()
    }
}

/// The load-balancing policy `name` (`model`, `static`, `threshold`),
/// sized from `model` — the one place a policy is built by name.
fn policy_by_name(name: &str, model: &ScalabilityModel) -> Result<Box<dyn Policy>, String> {
    let n1 = model.max_users(1, 0);
    Ok(match name {
        "model" => Box::new(ModelDriven::new(
            model.clone(),
            ModelDrivenConfig::default(),
        )),
        "static" => Box::new(StaticInterval::new(n1)),
        "threshold" => Box::new(StaticThreshold::new(n1)),
        other => return Err(format!("unknown policy '{other}'")),
    })
}

/// Writes a JSON document where the user asked (`--json`), else to the
/// subcommand's default path, else nowhere. Announces the file on stdout.
fn write_json_doc(args: &Args, default_path: Option<&str>, doc: &str) -> Result<(), String> {
    let Some(path) = args.json.as_deref().or(default_path.map(Path::new)) else {
        return Ok(());
    };
    std::fs::write(path, format!("{doc}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Writes the Prometheus snapshot if `--metrics` was given.
fn write_metrics(flag: Option<&Path>, registry: &MetricsRegistry) -> Result<(), String> {
    if let Some(path) = flag {
        std::fs::write(path, registry.prometheus())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// A JSONL tracer if `--trace` was given, else a disabled one.
fn tracer(flag: Option<&Path>) -> Result<Tracer, String> {
    match flag {
        Some(path) => {
            Tracer::jsonl(path).map_err(|e| format!("open trace {}: {e}", path.display()))
        }
        None => Ok(Tracer::disabled()),
    }
}
