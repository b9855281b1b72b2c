//! Golden fixture tests: every rule must fire on its known-bad snippet with
//! the documented id and span, stay silent on the good fixtures, and the
//! real workspace must scan clean.

use roia_lint::{check_workspace, rules_for, scan_source, Finding, RuleId};
use std::path::Path;

/// Runs the workspace-model concurrency analysis (C1–C4) over a single
/// fixture file, placed at `rel` so crate attribution works.
fn conc_scan(name: &str, rel: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let files = vec![(rel.to_string(), src)];
    let ws = roia_lint::model::build(&files);
    roia_lint::conc::analyze(&ws).findings
}

const ALL_RULES: [RuleId; 6] = [
    RuleId::D1,
    RuleId::D2,
    RuleId::M1,
    RuleId::M2,
    RuleId::F1,
    RuleId::A1,
];

fn scan_fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    scan_source(name, &src, &ALL_RULES)
}

fn rules_fired(findings: &[Finding]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn d1_fixture_fires_with_span_and_message() {
    let f = scan_fixture("bad/d1_unordered.rs");
    assert_eq!(rules_fired(&f), vec!["D1"], "{f:?}");
    assert_eq!((f[0].line, f[0].col), (2, 23), "the `use` import");
    assert!(f[0].message.contains("iteration order"));
    assert!(f[0].message.contains("allow(unordered"));
    assert!(
        f.len() >= 3,
        "type, constructor and import all flagged: {f:?}"
    );
}

#[test]
fn d2_fixture_fires_on_clock_and_randomness() {
    let f = scan_fixture("bad/d2_nondet.rs");
    assert_eq!(rules_fired(&f), vec!["D2"], "{f:?}");
    assert!(f
        .iter()
        .any(|f| f.message.contains("Instant") && f.line == 5));
    assert!(f.iter().any(|f| f.line == 6), "rand::random flagged: {f:?}");
    assert!(f[0].message.contains("reproducible"));
}

#[test]
fn m1_fixture_fires_on_each_panic_site() {
    let f = scan_fixture("bad/m1_panic.rs");
    assert_eq!(rules_fired(&f), vec!["M1"], "{f:?}");
    assert_eq!(f.len(), 3, "indexing + unwrap + expect: {f:?}");
    assert_eq!(f[0].line, 3, "v[0]");
    assert!(f[1].message.contains(".unwrap()"));
    assert!(f[2].message.contains(".expect()"));
}

#[test]
fn m2_fixture_fires_per_cast() {
    let f = scan_fixture("bad/m2_cast.rs");
    assert_eq!(rules_fired(&f), vec!["M2"], "{f:?}");
    assert_eq!(f.len(), 2, "{f:?}");
    assert!(f[0].message.contains("`as u32`"));
    assert!(f[1].message.contains("`as u64`"));
    assert_eq!(f[0].line, 3);
}

#[test]
fn f1_fixture_fires_on_float_equality() {
    let f = scan_fixture("bad/f1_float_eq.rs");
    assert_eq!(rules_fired(&f), vec!["F1"], "{f:?}");
    assert_eq!(f[0].line, 3);
    assert!(f[0].message.contains("tolerance"));
}

#[test]
fn a1_fixture_fires_on_malformed_allows() {
    let f = scan_fixture("bad/a1_bad_allow.rs");
    let a1: Vec<&Finding> = f.iter().filter(|f| f.rule == "A1").collect();
    assert_eq!(a1.len(), 2, "{f:?}");
    assert!(a1[0].message.contains("missing justification"));
    assert!(a1[1].message.contains("unknown allow tag"));
    // The unjustified allow does NOT suppress the finding underneath.
    assert!(f.iter().any(|f| f.rule == "M1"), "{f:?}");
}

#[test]
fn worker_pool_fixture_fires_d2_and_m1() {
    // Scanned with the rules the scope tables route to the worker-pool
    // module plus M1, which the workspace scan would add here via
    // hot-path inference (fan-out helpers run inside Server::tick), so
    // this pins both the routing and the detections: thread-timing
    // reads and a panicking join must fire.
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("bad/worker_pool.rs");
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    let mut rules = rules_for("crates/sim/src/parallel.rs");
    assert!(
        !rules.contains(&RuleId::M1),
        "M1 is no longer routed file-wide; it rides on inferred hot ranges"
    );
    rules.push(RuleId::M1);
    let f = scan_source("bad/worker_pool.rs", &src, &rules);
    assert_eq!(rules_fired(&f), vec!["D2", "M1"], "{f:?}");
    assert!(
        f.iter()
            .any(|f| f.rule == "D2" && f.line == 7 && f.message.contains("Instant")),
        "Instant::now in the fan-out flagged: {f:?}"
    );
    assert!(
        f.iter()
            .any(|f| f.rule == "M1" && f.line == 13 && f.message.contains(".unwrap()")),
        "panicking join flagged: {f:?}"
    );
}

#[test]
fn session_netcode_fixture_fires_d1_d2_and_m1() {
    // Scanned with the rules the scope tables route to the transport
    // session module plus M1, which the workspace scan would add here
    // via hot-path inference (SessionServer::tick is a hot root),
    // pinning both the routing and the detections: an unordered peer
    // map, a tick-path clock read and a panicking frame decode must
    // all fire.
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("bad/session_netcode.rs");
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    let mut rules = rules_for("crates/transport/src/session.rs");
    rules.push(RuleId::M1);
    let f = scan_source("bad/session_netcode.rs", &src, &rules);
    // Findings interleave by line (the map fires on both its import and
    // its use), so compare the distinct rule set, not the fired order.
    let mut distinct = rules_fired(&f);
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct, vec!["D1", "D2", "M1"], "{f:?}");
    assert!(
        f.iter()
            .any(|f| f.rule == "D2" && f.line == 9 && f.message.contains("Instant")),
        "Instant::now in the tick flagged: {f:?}"
    );
    assert!(
        f.iter()
            .any(|f| f.rule == "M1" && f.line == 10 && f.message.contains(".unwrap()")),
        "panicking decode flagged: {f:?}"
    );
    assert!(
        f.iter().any(|f| f.rule == "M1" && f.line == 11),
        "frame[0] indexing flagged: {f:?}"
    );
}

#[test]
fn c1_fixture_fires_on_conflicting_lock_order() {
    let f = conc_scan("bad/c1_lock_order.rs", "crates/net/src/fixture.rs");
    let c1: Vec<&Finding> = f.iter().filter(|f| f.rule == "C1").collect();
    assert_eq!(c1.len(), 1, "one conflicting pair: {f:?}");
    assert!(
        c1[0].message.contains("conflicting lock order"),
        "{}",
        c1[0].message
    );
    assert!(
        c1[0].message.contains("forward") && c1[0].message.contains("backward"),
        "both witnesses named: {}",
        c1[0].message
    );
}

#[test]
fn c2_fixture_fires_on_blocking_and_hot_lock() {
    let f = conc_scan("bad/c2_blocking.rs", "crates/net/src/fixture.rs");
    let c2: Vec<&Finding> = f.iter().filter(|f| f.rule == "C2").collect();
    assert!(
        c2.iter()
            .any(|f| f.message.contains("held across") && f.message.contains("recv")),
        "guard across recv flagged: {f:?}"
    );
    assert!(
        c2.iter().any(|f| f.message.contains("hot path")),
        "Server::tick lock flagged: {f:?}"
    );
}

#[test]
fn c3_fixture_fires_at_the_sink_with_a_witness_chain() {
    let f = conc_scan("bad/c3_taint.rs", "crates/obs/src/fixture.rs");
    let c3: Vec<&Finding> = f.iter().filter(|f| f.rule == "C3").collect();
    assert_eq!(c3.len(), 1, "flagged once, at the sink: {f:?}");
    assert!(
        c3[0].message.contains("Reporter::publish"),
        "sink named: {}",
        c3[0].message
    );
    assert!(
        c3[0].message.contains("tick_cost") && c3[0].message.contains("sample_clock"),
        "witness chain spelled out: {}",
        c3[0].message
    );
    assert!(c3[0].message.contains("Instant"), "{}", c3[0].message);
}

#[test]
fn c4_fixtures_fire_on_captured_shared_state() {
    for (name, captured, host) in [
        ("bad/c4_capture.rs", "shared", "map_mut"),
        ("bad/c4_capture_scheduled.rs", "ticked", "map_mut_scheduled"),
    ] {
        let f = conc_scan(name, "crates/sim/src/fixture.rs");
        let c4: Vec<&Finding> = f.iter().filter(|f| f.rule == "C4").collect();
        assert_eq!(c4.len(), 1, "{name}: {f:?}");
        assert!(
            c4[0].message.contains(captured) && c4[0].message.contains(host),
            "{name}: captured root and worker host named: {}",
            c4[0].message
        );
    }
}

#[test]
fn good_fixtures_scan_clean() {
    for name in [
        "good/allowlisted.rs",
        "good/clean.rs",
        "good/transport_boundary.rs",
    ] {
        let f = scan_fixture(name);
        assert!(f.is_empty(), "{name} should be clean: {f:?}");
    }
}

#[test]
fn good_conc_fixtures_scan_clean() {
    for name in [
        "good/c1_lock_order.rs",
        "good/c2_blocking.rs",
        "good/c3_taint.rs",
        "good/c4_capture.rs",
        "good/c4_capture_scheduled.rs",
    ] {
        let f = conc_scan(name, "crates/sim/src/fixture.rs");
        assert!(f.is_empty(), "{name} should be clean: {f:?}");
    }
}

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let findings = check_workspace(root).expect("scan");
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings
            .iter()
            .map(Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
