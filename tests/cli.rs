//! The `roia` command line: the dispatch table, how malformed command
//! lines fail, and the model-file subcommands against the library calls
//! they wrap.

use roia::model::{format_model, parse_model, CostFn, ModelParams, ScalabilityModel};
use std::path::PathBuf;
use std::process::{Command, Output};

/// Every subcommand the dispatcher serves, in `roia help` order.
const SUBCOMMANDS: &[&str] = &[
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "policy_compare",
    "chaos_session",
    "explain",
    "scale",
    "netdemo",
    "scenarios",
    "schedule_stress",
    "recalibration",
    "ablations",
    "overprovision",
    "traffic",
    "calibrate",
    "thresholds",
    "plan",
    "session",
];

fn roia(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_roia"))
        .args(args)
        .output()
        .expect("run roia")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "roia failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn help_lists_exactly_the_dispatchers_subcommands() {
    let text = stdout(&roia(&["help"]));
    let (_, list) = text
        .split_once("subcommands:\n")
        .expect("a subcommand list");
    let listed: Vec<&str> = list
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(listed, SUBCOMMANDS);
}

#[test]
fn malformed_command_lines_exit_2_with_an_error_and_usage() {
    for (args, error) in [
        (&[][..], "no subcommand given"),
        (&["bogus"][..], "unknown subcommand 'bogus'"),
        (&["fig2", "--bogus"][..], "unknown flag --bogus"),
        (&["fig2", "--seed"][..], "--seed needs a value"),
        (&["fig2", "--seed", "x"][..], "--seed needs a numeric value"),
        (&["scale", "--threads"][..], "--threads needs a value"),
        // A subcommand refuses a shared flag it does not read.
        (&["fig5", "--trace", "t.jsonl"][..], "unknown flag --trace"),
        (&["fig2", "--ticks", "10"][..], "unknown flag --ticks"),
        (
            &["scenarios", "--plan", "hostile"][..],
            "unknown flag --plan",
        ),
        (
            &["policy_compare", "--metrics", "m.prom"][..],
            "unknown flag --metrics",
        ),
        (&["fig8", "--flight", "dir"][..], "unknown flag --flight"),
        (
            &["explain", "t.jsonl", "--seed", "1"][..],
            "unknown flag --seed",
        ),
        // The model-file subcommands take only their own flags.
        (&["thresholds", "--seed", "1"][..], "unknown flag --seed"),
        (&["explain"][..], "no TRACE.jsonl given"),
        (
            &["explain", "a.jsonl", "b.jsonl"][..],
            "unexpected argument 'b.jsonl'",
        ),
    ] {
        let out = roia(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {error}\n")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: roia"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn a_failed_run_exits_1() {
    let out = roia(&["thresholds", "--model", "/nonexistent/model.roia"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("error: /nonexistent/model.roia"));
}

#[test]
fn calibrate_refuses_noise_outside_the_unit_interval() {
    for noise in ["1.5", "-3"] {
        let out = roia(&["calibrate", "--max-users", "20", "--noise", noise]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{noise}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: --noise must be in [0, 1), got {noise}\n")),
            "{noise}: {stderr}"
        );
    }
}

#[test]
fn calibrate_refuses_a_campaign_smaller_than_one_step() {
    for max_users in ["0", "5"] {
        let out = roia(&["calibrate", "--max-users", max_users]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{max_users}: {stderr}");
        assert!(
            stderr.contains("error: no samples recorded for "),
            "{max_users}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{max_users}");
    }
}

/// A model with the shapes of the paper's fit: quadratic `t_ua`/`t_aoi`,
/// linear elsewhere.
fn model() -> ScalabilityModel {
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
        t_mig_ini: CostFn::Linear {
            c0: 0.2e-3,
            c1: 7e-6,
        },
        t_mig_rcv: CostFn::Linear {
            c0: 0.15e-3,
            c1: 4e-6,
        },
        ..ModelParams::default()
    };
    ScalabilityModel::new(params, 0.040)
        .with_improvement_factor(0.15)
        .with_trigger_fraction(0.8)
}

/// Writes the model where the binary can load it; returns the path and
/// the model exactly as the binary will read it back.
fn model_file(name: &str) -> (PathBuf, ScalabilityModel) {
    let text = format_model(&model());
    let path = std::env::temp_dir().join(format!("roia-cli-{}-{name}.roia", std::process::id()));
    std::fs::write(&path, &text).expect("write model file");
    (path, parse_model(&text).expect("model file parses"))
}

#[test]
fn thresholds_prints_the_librarys_l_max_and_ladder() {
    let (path, model) = model_file("thresholds");
    for (flags, c, npcs) in [
        (&[][..], 0.15, 0),
        (&["--c", "0.05", "--npcs", "10"][..], 0.05, 10),
    ] {
        let mut args = vec!["thresholds", "--model", path.to_str().unwrap()];
        args.extend(flags);
        let text = stdout(&roia(&args));
        let model = model.clone().with_improvement_factor(c);
        let limit = model.max_replicas(npcs);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], format!("l_max = {}", limit.l_max));
        let rows: Vec<String> = limit
            .capacity_per_replica
            .iter()
            .enumerate()
            .map(|(i, &cap)| {
                let trigger = (f64::from(cap) * model.trigger_fraction).floor() as u32;
                format!("{:>9} {cap:>10} {trigger:>10}", i + 1)
            })
            .collect();
        assert_eq!(lines[3..], rows, "{text}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn session_refuses_a_policy_it_cannot_build() {
    let (path, _) = model_file("session");
    let out = roia(&[
        "session",
        "--model",
        path.to_str().unwrap(),
        "--policy",
        "bandwidth",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: unknown policy 'bandwidth'\n"),
        "{stderr}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn plan_prints_the_librarys_rounds() {
    let (path, model) = model_file("plan");
    let users = [125u32, 60, 40];
    let text = stdout(&roia(&[
        "plan",
        "--model",
        path.to_str().unwrap(),
        "--users",
        "125,60,40",
    ]));
    let plan = model.plan_migrations(&users, 0);
    assert!(plan.rounds.len() > 1, "a budget-limited plan");
    let mut expected = vec![format!("initial: {users:?}")];
    for (i, round) in plan.rounds.iter().enumerate() {
        expected.push(format!("round {}:", i + 1));
        for mv in &round.moves {
            expected.push(format!(
                "  {} users: replica {} -> replica {}",
                mv.users, mv.from, mv.to
            ));
        }
        expected.push(format!("  -> {:?}", round.resulting_users));
    }
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[..expected.len()], expected, "{text}");
    assert!(lines[expected.len()].contains(&format!(
        "({} users moved in {} rounds)",
        plan.total_moved(),
        plan.rounds.len()
    )));
    std::fs::remove_file(path).ok();
}
