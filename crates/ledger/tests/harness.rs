//! Unit tests of the harness's own arithmetic: the percentile rule, span
//! self times, the input→ack tracker, quartile spreads, and the result
//! renderings the benchmark contract depends on.

use roia_ledger::ack::AckTracker;
use roia_ledger::report::{Better, Metric, Outcome, END_TO_END, PER_LAYER};
use roia_ledger::span::{self_times, Span, SpanLog};
use roia_ledger::stats::{median, quantile, summarize, tail_for, Fnv, Strided};
use roia_ledger::workload::{run_window, Driver, Limit, Workload};
use roia_obs::export::{parse_object, JsonValue};
use std::collections::BTreeSet;

#[test]
fn percentile_rule_quotes_the_highest_tail_with_ten_samples_beyond() {
    assert_eq!(tail_for(9), None);
    assert_eq!(tail_for(99), None, "p90 of 99 leaves 9.9 samples beyond");
    assert_eq!(tail_for(100).map(|t| t.1), Some("p90"));
    assert_eq!(tail_for(999).map(|t| t.1), Some("p90"));
    assert_eq!(tail_for(1_000).map(|t| t.1), Some("p99"));
    assert_eq!(tail_for(10_000).map(|t| t.1), Some("p99.9"));
    assert_eq!(tail_for(1_000_000).map(|t| t.1), Some("p99.99"));

    let mut samples: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
    let s = summarize(&mut samples).expect("non-empty");
    assert_eq!(s.n, 1_000, "the sample count is part of the summary");
    assert_eq!(s.p50, 500.5);
    assert_eq!(s.max, 1_000.0);
    let tail = s.tail.expect("1000 samples carry a p99");
    assert_eq!((tail.label, tail.value), ("p99", 990.0));

    let mut few = vec![3.0, 1.0, 2.0];
    let s = summarize(&mut few).expect("non-empty");
    assert_eq!((s.p50, s.tail), (2.0, None));
    assert_eq!(summarize(&mut []), None);
}

#[test]
fn quantile_and_median_use_nearest_rank_and_middle_pair() {
    let v = [1.0, 2.0, 3.0, 4.0];
    assert_eq!(quantile(&v, 0.5), 2.0);
    assert_eq!(quantile(&v, 0.99), 4.0);
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(median(&v), 2.5);
    assert_eq!(median(&[1.0, 5.0, 9.0]), 5.0);
}

#[test]
fn strided_subsample_keeps_an_even_comb_in_bounded_memory() {
    let mut all = Strided::with_capacity(8);
    for v in 0..8 {
        all.push(v);
    }
    assert_eq!(
        (all.stride(), all.scaled(1.0).len()),
        (1, 8),
        "fits: all kept"
    );

    let mut s = Strided::with_capacity(8);
    for v in 0..100 {
        s.push(v);
    }
    assert_eq!(s.seen(), 100);
    assert_eq!(s.stride(), 16);
    // Every kept value sits on a multiple of the stride, none is missing.
    assert_eq!(
        s.scaled(1.0),
        [0.0, 16.0, 32.0, 48.0, 64.0, 80.0, 96.0],
        "positions 0, 16, .., 96"
    );
    assert_eq!(s.summarize(1.0).map(|m| m.p50), Some(48.0));
    // Durations past u32::MAX nanoseconds saturate instead of wrapping.
    let mut long = Strided::with_capacity(2);
    long.push(10_000_000_000);
    assert_eq!(long.scaled(1.0), [f64::from(u32::MAX)]);
}

/// A driver whose tick does nothing but count.
struct Counting(u64);

impl Driver for Counting {
    type Out = u64;

    fn tick(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }

    fn account(&mut self, _tick: u64) -> u64 {
        3
    }
}

#[test]
fn windows_end_on_the_tick_budget_or_on_a_whole_cycle_after_the_time_budget() {
    let pinned = run_window(&mut Counting(0), Limit::ticks(40));
    assert_eq!((pinned.ticks(), pinned.total_work()), (40, 120));
    assert!(pinned.rate_per_s() > 0.0 && pinned.tick_ms_p50() >= 0.0);
    assert!(pinned.max_ns as f64 / 1e9 <= pinned.seconds());

    let timed = run_window(&mut Counting(0), Limit::seconds(0.02).whole_cycles(1_500));
    assert!(timed.ticks() >= 1_500);
    assert_eq!(timed.ticks() % 1_500, 0, "{} ticks", timed.ticks());
}

#[test]
fn fnv_digest_is_order_sensitive_and_stable() {
    let digest = |words: &[u64]| {
        let mut f = Fnv::default();
        for w in words {
            f.write(*w);
        }
        f.finish()
    };
    assert_eq!(digest(&[]), 0xcbf2_9ce4_8422_2325);
    assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
    assert_eq!(digest(&[1, 2]), digest(&[1, 2]));
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
    Span {
        name,
        start_ns: start,
        end_ns: end,
        parent,
        round: 0,
    }
}

#[test]
fn self_time_is_duration_minus_the_part_children_cover() {
    let spans = [
        span("harness.round", 0, 100, None),
        span("rtf.server_tick", 10, 40, Some(0)),
        span("rtf.task_aoi", 10, 25, Some(1)),
        span("rtf.task_su", 25, 35, Some(1)),
        // Overlaps its sibling: the overlap counts once.
        span("net.flush", 30, 60, Some(0)),
        // Sticks out of its parent: only the inside part counts.
        span("rtf.client_tick", 90, 130, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![40, 5, 15, 10, 30, 40]);
}

#[test]
fn span_log_nests_attaches_children_and_sums_layers_to_the_root() {
    let mut log = SpanLog::with_capacity(16);
    let round = log.enter("harness.round", 7);
    let tick = log.enter("rtf.server_tick", 7);
    std::thread::sleep(std::time::Duration::from_millis(2));
    let tick_ns = log.exit(tick);
    // A reported duration longer than the span is clipped to it.
    log.attach_children(
        tick,
        &[("rtf.task_aoi", tick_ns / 2), ("rtf.task_su", tick_ns)],
    );
    log.scope("net.flush", 7, || ());
    log.exit(round);

    let spans = log.spans();
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!((spans[2].parent, spans[3].parent), (Some(1), Some(1)));
    assert_eq!(
        spans[4].parent,
        Some(0),
        "net.flush opened after the tick closed"
    );
    assert!(spans.iter().all(|s| s.round == 7));
    assert_eq!(spans[3].end_ns, spans[1].end_ns, "clipped to the parent");

    let selfs = self_times(log.spans());
    assert_eq!(selfs[1], 0, "the tick's children cover it");
    let layers = log.layer_self_ns(&selfs);
    assert_eq!(
        layers.values().sum::<u64>(),
        log.root_ns(),
        "self times partition the root span"
    );
    assert_eq!(layers["rtf"], tick_ns);
}

#[test]
fn ack_tracker_follows_a_scripted_pending_sequence() {
    let mut tracker = AckTracker::default();
    let mut latencies = Strided::with_capacity(16);
    // (tick start, sent, pending after, tick end)
    let script = [
        (0, true, 1, 10),     // input A sent
        (100, true, 2, 110),  // B sent, A still unacked
        (200, true, 2, 210),  // C sent; this tick's poll acked A
        (300, false, 0, 310), // nothing sent; B and C acked together
        (400, false, 0, 410), // idle
        (500, true, 1, 510),  // D sent
    ];
    for (start, sent, pending, end) in script {
        tracker.on_tick(start, sent, pending, end, &mut latencies);
    }
    assert_eq!(latencies.scaled(1.0), [210.0, 210.0, 110.0]);
    assert_eq!(tracker.acked, 3);
    assert_eq!(tracker.in_flight(), 1, "D is still in flight");
}

#[test]
fn outcome_survives_its_own_json_and_keeps_64_bit_counters() {
    let mut outcome = Outcome {
        workload: "session_bus_256".into(),
        seed: u64::MAX,
        traced: true,
        ticks: 50,
        window_s: 0.25,
        attempted: 12_800,
        failed: 1,
        breaches: vec!["1 \"quoted\" breach".into()],
        ..Outcome::default()
    };
    outcome
        .end_to_end
        .push(Metric::new("tick_host_ms_p50", "ms", 3.684_096_5, 50));
    outcome
        .end_to_end
        .push(Metric::absent("wire_bytes_per_user_tick", "B"));
    outcome.layer("rtf.task_aoi_us", 229.7, 1_556);
    outcome
        .counters
        .insert("state_digest".into(), 0xfedc_ba98_7654_3211);
    let back = Outcome::from_json(&outcome.to_json()).expect("parses");
    assert_eq!(back, outcome);
    assert!(!back.correct());
}

#[test]
fn contract_line_has_exactly_the_four_keys_and_every_wanted_metric() {
    let mut outcome = Outcome::default();
    outcome
        .end_to_end
        .push(Metric::new("setup_s", "s", 0.8127, 0));
    let wanted = [("setup_s", "s"), ("tick_host_ms_p50", "ms")];
    let line = outcome.contract_json(&wanted);
    let map = parse_object(&line).expect("valid JSON");
    let keys: Vec<&str> = map.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(map["correct"], JsonValue::Bool(true));
    assert_eq!(
        map["attempted"].as_u64(),
        Some(1),
        "attempted is at least 1"
    );
    let metrics = map["metrics"].as_obj().expect("object");
    assert_eq!(metrics.len(), 2);
    let setup = metrics["setup_s"].as_obj().expect("object");
    assert_eq!(setup["value"].as_f64(), Some(0.8127));
    assert_eq!(setup["unit"].as_str(), Some("s"));
    // Not measured by this run: present, reading 0.
    assert_eq!(
        metrics["tick_host_ms_p50"].as_obj().expect("object")["value"].as_f64(),
        Some(0.0)
    );
}

/// `BENCHMARK.json` and the catalogue in `report.rs` must say the same.
#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let doc = parse_object(&text).expect("valid JSON");
    let keys: BTreeSet<&str> = doc.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        BTreeSet::from([
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ])
    );
    let names = |key: &str| -> Vec<String> {
        doc[key]
            .as_arr()
            .expect("array")
            .iter()
            .map(|item| {
                item.as_obj().expect("object")["name"]
                    .as_str()
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    assert_eq!(
        names("workloads"),
        Workload::ALL.map(|w| w.name().to_string())
    );
    for (item, workload) in doc["workloads"]
        .as_arr()
        .expect("array")
        .iter()
        .zip(Workload::ALL)
    {
        assert_eq!(
            item.as_obj().expect("object")["why"].as_str(),
            Some(workload.why())
        );
        assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
    }
    let universal: Vec<_> = END_TO_END.iter().filter(|d| d.universal).collect();
    assert_eq!(
        names("end_to_end"),
        universal
            .iter()
            .map(|d| d.name.to_string())
            .collect::<Vec<_>>()
    );
    for (item, def) in doc["end_to_end"]
        .as_arr()
        .expect("array")
        .iter()
        .zip(&universal)
    {
        let item = item.as_obj().expect("object");
        assert_eq!(item["unit"].as_str(), Some(def.unit));
        assert_eq!(item["better"].as_str(), Some(def.better.as_str()));
        assert_eq!(item["bound"].as_f64(), Some(def.bound));
        assert!(def.bound <= 0.25);
    }
    assert_eq!(
        names("per_layer"),
        PER_LAYER
            .iter()
            .map(|(n, _, _)| n.to_string())
            .collect::<Vec<_>>()
    );
    for (item, (_, unit, better)) in doc["per_layer"]
        .as_arr()
        .expect("array")
        .iter()
        .zip(PER_LAYER)
    {
        let item = item.as_obj().expect("object");
        assert_eq!(item["unit"].as_str(), Some(*unit));
        assert_eq!(item["better"].as_str(), Some(better.as_str()));
    }
    assert!(PER_LAYER.len() <= 128);
    let unique: BTreeSet<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(unique.len(), PER_LAYER.len(), "names are used once");
    assert_eq!(Better::Lower.as_str(), "lower");
}
