//! `ledger`: the command line of the performance ledger.
//!
//! * `ledger run [--seed N] [--traced] [--smoke] [--workload W]...` — every
//!   workload (or the named ones), each in a fresh child process with a
//!   pinned tick count; prints every metric and exits non-zero on any
//!   correctness breach.
//! * `ledger repeat --sets K [--seed N] [--smoke]` — K sets of the same
//!   code; counters must agree exactly, end-to-end metrics within bounds.
//! * `ledger bench --workload W --seed N --seconds S --trace 0|1` — the
//!   benchmark contract's entry point (`BENCHMARK.json`): one workload in
//!   this process for S seconds, result as the last line of stdout.

use roia_ledger::meta::RunMeta;
use roia_ledger::report::{EndToEndDef, Outcome, END_TO_END, PER_LAYER};
use roia_ledger::workload::{Limit, Plan, Workload, WARMUP_TICKS};
use roia_ledger::{out_dir, run_workload, stats};
use roia_obs::export as json;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Ticks per workload in `--smoke` mode.
const SMOKE_TICKS: u64 = 50;
/// Warm-up ticks in `--smoke` mode.
const SMOKE_WARMUP: u64 = 10;
/// Set-up repetitions of a `bench` run; `setup_s` is their median.
const BENCH_SETUP_REPS: u32 = 3;

const USAGE: &str = "usage:
  ledger run [--seed N] [--traced] [--smoke] [--workload NAME]...
  ledger repeat --sets K [--seed N] [--smoke]
  ledger bench --workload NAME --seed N --seconds S --trace 0|1
workloads: zone_steady multizone_fanout churn_full_stack session_bus_256 session_tcp_2";

/// Parsed command-line flags.
#[derive(Debug, Default)]
struct Flags {
    seed: Option<u64>,
    traced: bool,
    smoke: bool,
    workloads: Vec<Workload>,
    sets: Option<u32>,
    seconds: Option<f64>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--seed" => flags.seed = Some(parse(flag, value()?)?),
            "--sets" => flags.sets = Some(parse(flag, value()?)?),
            "--seconds" => flags.seconds = Some(parse(flag, value()?)?),
            "--trace" => flags.traced = parse::<u8>(flag, value()?)? != 0,
            "--traced" => flags.traced = true,
            "--smoke" => flags.smoke = true,
            "--workload" => {
                let name = value()?;
                flags.workloads.push(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(flags)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = match parse_flags(rest) {
        Ok(flags) => flags,
        Err(message) => {
            eprintln!("ledger: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "run" => run(&flags),
        "repeat" => repeat(&flags),
        "bench" => bench(&flags),
        "child" => child(&flags),
        other => Err(format!("unknown command {other}\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

/// The plan of a pinned (or smoke) run of `workload`.
fn pinned_plan(workload: Workload, flags: &Flags) -> Plan {
    let (ticks, warmup) = if flags.smoke {
        (SMOKE_TICKS, SMOKE_WARMUP)
    } else {
        (workload.pinned_ticks(), WARMUP_TICKS)
    };
    Plan {
        seed: flags.seed.unwrap_or(42),
        limit: Limit::ticks(ticks),
        warmup,
        setup_reps: 1,
    }
}

/// `ledger bench`: the contract's entry point.
fn bench(flags: &Flags) -> Result<bool, String> {
    let [workload] = flags.workloads[..] else {
        return Err("bench needs exactly one --workload".into());
    };
    let plan = Plan {
        seed: flags.seed.ok_or("bench needs --seed")?,
        limit: Limit::seconds(flags.seconds.ok_or("bench needs --seconds")?),
        warmup: WARMUP_TICKS,
        setup_reps: BENCH_SETUP_REPS,
    };
    let outcome = run_workload(workload, &plan, flags.traced);
    print_outcome(&outcome);
    let wanted: Vec<(&str, &str)> = if flags.traced {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END
            .iter()
            .filter(|d| d.universal)
            .map(|d| (d.name, d.unit))
            .collect()
    };
    println!("{}", outcome.contract_json(&wanted));
    // The result line carries `correct`; the exit code only says the
    // benchmark itself ran.
    Ok(true)
}

/// `ledger child`: one pinned workload in this (fresh) process; the last
/// stdout line is the full outcome for the parent.
fn child(flags: &Flags) -> Result<bool, String> {
    let [workload] = flags.workloads[..] else {
        return Err("child needs exactly one --workload".into());
    };
    let outcome = run_workload(workload, &pinned_plan(workload, flags), flags.traced);
    println!("{}", outcome.to_json());
    Ok(outcome.correct())
}

/// Re-executes this binary as a child for `workload` and reads its
/// outcome back.
fn spawn_child(workload: Workload, flags: &Flags) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("child")
        .args(["--workload", workload.name()])
        .args(["--seed", &flags.seed.unwrap_or(42).to_string()])
        .stdout(Stdio::piped());
    if flags.traced {
        command.arg("--traced");
    }
    if flags.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot run child for {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .last()
        .and_then(Outcome::from_json)
        .ok_or_else(|| {
            format!(
                "child for {} ({}) printed no outcome",
                workload.name(),
                output.status
            )
        })
}

fn selected(flags: &Flags) -> Vec<Workload> {
    if flags.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        flags.workloads.clone()
    }
}

/// Runs one set: every selected workload in its own child process.
fn run_set(flags: &Flags) -> Result<Vec<Outcome>, String> {
    selected(flags)
        .into_iter()
        .map(|workload| {
            let outcome = spawn_child(workload, flags)?;
            print_outcome(&outcome);
            Ok(outcome)
        })
        .collect()
}

/// `ledger run`.
fn run(flags: &Flags) -> Result<bool, String> {
    let started = Instant::now();
    let meta = RunMeta::collect(flags.seed.unwrap_or(42));
    print_meta(&meta, flags);
    let outcomes = run_set(flags)?;
    let wall_s = started.elapsed().as_secs_f64();
    println!("set wall time: {wall_s:.1} s");
    let name = format!(
        "run-{}{}{}.json",
        meta.seed,
        if flags.traced { "-traced" } else { "" },
        if flags.smoke { "-smoke" } else { "" }
    );
    write_results(&name, &meta, flags, &[outcomes.as_slice()], wall_s)?;
    Ok(report_breaches(&outcomes))
}

/// `ledger repeat`: K sets; counters identical, metrics within bounds.
fn repeat(flags: &Flags) -> Result<bool, String> {
    let sets = flags.sets.ok_or("repeat needs --sets")?;
    if sets < 2 {
        return Err("repeat needs at least two sets".into());
    }
    if flags.traced {
        return Err("repeat compares end-to-end metrics; drop --traced".into());
    }
    let started = Instant::now();
    let meta = RunMeta::collect(flags.seed.unwrap_or(42));
    print_meta(&meta, flags);
    let mut all = Vec::new();
    for set in 1..=sets {
        println!("== set {set} of {sets}");
        all.push(run_set(flags)?);
    }
    let mut ok = all.iter().all(|set| report_breaches(set));

    println!("== agreement across {sets} sets");
    println!(
        "{:<18} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "last", "diff", "bound"
    );
    for (index, first) in all[0].iter().enumerate() {
        let runs: Vec<&Outcome> = all.iter().map(|set| &set[index]).collect();
        for run in &runs[1..] {
            if run.counters != first.counters || run.ticks != first.ticks {
                ok = false;
                println!(
                    "{:<18} counters differ: {:?} vs {:?}",
                    first.workload, first.counters, run.counters
                );
            }
        }
        for def in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|run| run.metric(def.name).and_then(|m| m.value))
                .collect();
            if values.len() != runs.len() {
                continue; // absent on this workload
            }
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let diff = (hi - lo) / stats::median(&sorted).abs().max(f64::MIN_POSITIVE);
            let within = diff <= def.bound;
            ok &= within;
            println!(
                "{:<18} {:<26} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {}",
                first.workload,
                def.name,
                values[0],
                values[values.len() - 1],
                diff * 1e2,
                def.bound * 1e2,
                if within { "ok" } else { "OUTSIDE BOUND" }
            );
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    println!("wall time of all sets: {wall_s:.1} s");
    let slices: Vec<&[Outcome]> = all.iter().map(Vec::as_slice).collect();
    let name = format!(
        "repeat-{}{}.json",
        meta.seed,
        if flags.smoke { "-smoke" } else { "" }
    );
    write_results(&name, &meta, flags, &slices, wall_s)?;
    Ok(ok)
}

fn print_meta(meta: &RunMeta, flags: &Flags) {
    println!(
        "roia-ledger  rev {}  {} x {}  {}  profile {}  seed {}",
        meta.git_rev, meta.nproc, meta.cpu_model, meta.rustc, meta.profile, meta.seed
    );
    let ticks: Vec<String> = selected(flags)
        .into_iter()
        .map(|w| format!("{}={}", w.name(), pinned_plan(w, flags).limit.max_ticks))
        .collect();
    println!("pinned ticks: {}", ticks.join(" "));
}

/// Prints one workload's numbers: every metric by name with its unit and
/// sample count, then counters and breaches.
fn print_outcome(outcome: &Outcome) {
    println!(
        "-- {}{}  seed {}  {} ticks in {:.3} s  ops_attempted {}  ops_failed {}",
        outcome.workload,
        if outcome.traced { " (traced)" } else { "" },
        outcome.seed,
        outcome.ticks,
        outcome.window_s,
        outcome.attempted,
        outcome.failed
    );
    for metric in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        match metric.value {
            Some(value) => println!(
                "   {:<34} {:>16.4} {:<6} n={}",
                metric.name, value, metric.unit, metric.samples
            ),
            None => println!(
                "   {:<34} {:>16} {:<6} (no public entry point on this workload)",
                metric.name, "absent", metric.unit
            ),
        }
    }
    if let Some(tick) = outcome.metric("tick_host_ms_p50").and_then(|m| m.value) {
        println!(
            "   tick_host_ms_p50 is {:.1} % of the paper's 40 ms budget",
            tick / 40.0 * 1e2
        );
    }
    if outcome.traced {
        let absent: Vec<&str> = PER_LAYER
            .iter()
            .map(|(name, _, _)| *name)
            .filter(|name| outcome.metric(name).is_none())
            .collect();
        println!("   not exercised by this workload: {}", absent.join(" "));
    }
    for (name, value) in &outcome.counters {
        if name == "state_digest" || name == "round_digest" {
            println!("   counter {name} = {value:016x}");
        } else {
            println!("   counter {name} = {value}");
        }
    }
    for breach in &outcome.breaches {
        println!("   BREACH: {breach}");
    }
}

fn report_breaches(outcomes: &[Outcome]) -> bool {
    let mut ok = true;
    for outcome in outcomes {
        if !outcome.correct() {
            ok = false;
            eprintln!(
                "ledger: {} breached {} invariant(s); its throughput is not to be quoted",
                outcome.workload,
                outcome.breaches.len()
            );
        }
    }
    ok
}

/// Writes run metadata and every outcome to `out/<name>`.
fn write_results(
    name: &str,
    meta: &RunMeta,
    flags: &Flags,
    sets: &[&[Outcome]],
    wall_s: f64,
) -> Result<(), String> {
    let bounds: Vec<String> = END_TO_END.iter().map(bound_json).collect();
    let pinned: Vec<(&str, String)> = selected(flags)
        .into_iter()
        .map(|w| (w.name(), json::uint(pinned_plan(w, flags).limit.max_ticks)))
        .collect();
    let doc = json::object(&[
        ("meta", meta.to_json()),
        ("pinned_ticks", json::object(&pinned)),
        ("wall_s", json::num(wall_s)),
        ("bounds", json::array(&bounds)),
        (
            "sets",
            json::array(
                &sets
                    .iter()
                    .map(|set| json::array(&set.iter().map(Outcome::to_json).collect::<Vec<_>>()))
                    .collect::<Vec<_>>(),
            ),
        ),
    ]);
    let dir = out_dir();
    let path = dir.join(name);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(())
}

fn bound_json(def: &EndToEndDef) -> String {
    json::object(&[
        ("name", json::string(def.name)),
        ("unit", json::string(def.unit)),
        ("better", json::string(def.better.as_str())),
        ("bound", json::num(def.bound)),
    ])
}
