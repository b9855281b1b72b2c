//! End-to-end tests of the command: seed plumbing, the `--smoke` set and
//! the benchmark contract's `bench` entry point. They run the real
//! workloads, briefly; use `cargo test --release -p roia-ledger` (a debug
//! build of the layer crates makes them several times slower).

use roia_ledger::report::{Outcome, END_TO_END, PER_LAYER};
use roia_ledger::workload::{Limit, Plan, Workload};
use roia_obs::export::parse_object;
use std::process::Command;

fn smoke_plan(seed: u64) -> Plan {
    Plan {
        seed,
        limit: Limit::ticks(30),
        warmup: 5,
        setup_reps: 1,
    }
}

fn digest(outcome: &Outcome) -> u64 {
    outcome.counters["state_digest"]
}

#[test]
fn seed_is_the_only_source_of_randomness() {
    for workload in [Workload::SessionBus256, Workload::ChurnFullStack] {
        let a = roia_ledger::run_workload(workload, &smoke_plan(1), false);
        let b = roia_ledger::run_workload(workload, &smoke_plan(1), false);
        let c = roia_ledger::run_workload(workload, &smoke_plan(2), false);
        assert!(a.correct(), "{}: {:?}", workload.name(), a.breaches);
        assert_eq!(a.counters, b.counters, "{}: same seed", workload.name());
        assert_ne!(
            digest(&a),
            digest(&c),
            "{}: two seeds must give different inputs",
            workload.name()
        );
        assert_eq!(a.ticks, 30);
    }
    // No two workloads share a stream.
    let seeds: std::collections::BTreeSet<u64> = Workload::ALL.iter().map(|w| w.seed(42)).collect();
    assert_eq!(seeds.len(), Workload::ALL.len());
}

fn ledger(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .output()
        .expect("the ledger binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

#[test]
fn smoke_set_prints_every_workload_and_metric() {
    let (ok, stdout) = ledger(&["run", "--smoke", "--seed", "3"]);
    assert!(ok, "{stdout}");
    for workload in Workload::ALL {
        assert!(
            stdout.contains(&format!("-- {} ", workload.name())),
            "{stdout}"
        );
    }
    for def in END_TO_END {
        assert!(stdout.contains(def.name), "{} missing", def.name);
    }
    for word in [
        "ops_attempted",
        "ops_failed",
        "state_digest",
        "rustc",
        "pinned ticks",
    ] {
        assert!(stdout.contains(word), "{word} missing");
    }
}

#[test]
fn bench_prints_the_contract_line_last() {
    let (ok, stdout) = ledger(&[
        "bench",
        "--workload",
        "session_tcp_2",
        "--seed",
        "9",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(ok, "{stdout}");
    let line = stdout.lines().last().expect("a result line");
    let map = parse_object(line).expect("the last line is JSON");
    assert_eq!(map.len(), 4);
    assert_eq!(map["failed"].as_u64(), Some(0));
    assert!(map["attempted"].as_u64().expect("count") >= 1);
    let metrics = map["metrics"].as_obj().expect("object");
    let universal: Vec<&str> = END_TO_END
        .iter()
        .filter(|d| d.universal)
        .map(|d| d.name)
        .collect();
    assert_eq!(
        metrics.keys().map(String::as_str).collect::<Vec<_>>().len(),
        universal.len()
    );
    for name in universal {
        let value = metrics[name].as_obj().expect("object")["value"].as_f64();
        assert!(value.is_some_and(|v| v > 0.0), "{name} = {value:?}");
    }
}

#[test]
fn traced_bench_reports_every_per_layer_metric() {
    let (ok, stdout) = ledger(&[
        "bench",
        "--workload",
        "session_tcp_2",
        "--seed",
        "9",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    assert!(ok, "{stdout}");
    let line = stdout.lines().last().expect("a result line");
    let map = parse_object(line).expect("the last line is JSON");
    assert_eq!(
        map["correct"],
        roia_obs::export::JsonValue::Bool(true),
        "{stdout}"
    );
    let metrics = map["metrics"].as_obj().expect("object");
    assert_eq!(metrics.len(), PER_LAYER.len());
    for (name, unit, _) in PER_LAYER {
        assert_eq!(
            metrics[*name].as_obj().expect("object")["unit"].as_str(),
            Some(*unit)
        );
    }
    let value = |name: &str| metrics[name].as_obj().expect("object")["value"].as_f64();
    assert!(value("transport.server_tick_us_p50").is_some_and(|v| v > 0.0));
    assert_eq!(
        value("rtf.server_tick_us_p50"),
        Some(0.0),
        "not exercised by sessions"
    );
}
