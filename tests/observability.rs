//! Observability: the telemetry spine end to end. A seeded chaotic
//! session is traced into a ring buffer and a JSONL file; the tests
//! assert the decision audit trail is complete (scale-up decisions
//! carry their Eq. 1–5 numbers, every issued action reaches a terminal
//! outcome, migration waves appear as budget → planned → settled), the
//! metrics registry exports per-server latency quantiles, and that
//! attaching a tracer does not perturb the simulation.

use roia::model::{calibrate, ScalabilityModel};
use roia::obs::{FlightConfig, TraceEvent, Tracer};
use roia::rms::{ModelDriven, ModelDrivenConfig, ResourcePool};
use roia::sim::{
    measure_migration_params, measure_replication_params, run_session, ClusterConfig, FaultPlan,
    FlashCrowd, ManagedSessionConfig, MeasureConfig, PaperSession, SessionReport,
};
use std::path::{Path, PathBuf};

fn model() -> ScalabilityModel {
    let campaign = MeasureConfig {
        max_users: 120,
        step: 15,
        settle_ticks: 8,
        sample_ticks: 15,
        noise: 0.08,
        ..MeasureConfig::default()
    };
    let mut measurements = measure_replication_params(&campaign);
    measurements.merge(&measure_migration_params(&campaign));
    let calibration = calibrate(&measurements).expect("all parameters fitted");
    ScalabilityModel::new(calibration.params, 0.040)
}

/// A session that must scale up (peak 20 % above one server's capacity)
/// while a seeded fault plan crashes a machine mid-ramp.
fn chaotic_session(model: &ScalabilityModel, tracer: Tracer) -> SessionReport {
    let n1 = model.max_users(1, 0);
    let workload = PaperSession {
        peak: (n1 as f64 * 1.2) as u32,
        ramp_up_secs: 28.0,
        hold_secs: 6.0,
        ramp_down_secs: 20.0,
    };
    let ticks = 54 * 25;
    let config = ManagedSessionConfig {
        ticks,
        max_churn_per_tick: 2,
        chaos: Some(FaultPlan::quiet(7).with_link_faults(0.01, 0)),
        debug_checks: true,
        tracer,
        ..ManagedSessionConfig::default()
    };
    let policy = Box::new(ModelDriven::new(
        model.clone(),
        ModelDrivenConfig::default(),
    ));
    run_session(config, policy, &workload)
}

#[test]
fn audit_trail_reconstructs_scale_up_and_migration_wave() {
    let model = model();
    let (tracer, ring) = Tracer::ring(1 << 20);
    let report = chaotic_session(&model, tracer);
    assert!(report.replicas_added >= 1, "the session scaled up");

    let events: Vec<TraceEvent> = ring.lock().unwrap().drain();
    assert_eq!(ring.lock().unwrap().dropped(), 0, "ring was large enough");

    // ≥1 add_replica decision, carrying its Eq. 1–5 inputs: the load
    // that crossed the trigger and the capacity numbers it was judged
    // against.
    let add = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::Decision {
                kind: "add_replica",
                users,
                forecast_users,
                replicas,
                n_max,
                trigger,
                l_max,
                predicted_tick_s,
                ..
            } => Some((
                *users,
                *forecast_users,
                *replicas,
                *n_max,
                *trigger,
                *l_max,
                *predicted_tick_s,
            )),
            _ => None,
        })
        .expect("an add_replica decision was audited");
    let (users, forecast_users, replicas, n_max, trigger, l_max, predicted) = add;
    assert!(
        trigger > 0 && trigger < n_max,
        "Eq. 2 trigger below capacity"
    );
    assert!(
        forecast_users >= trigger && forecast_users >= users,
        "the decision fired at or past the trigger, on the count or its forecast"
    );
    assert!(replicas < l_max, "Eq. 3 allowed another replica");
    assert!(predicted > 0.0, "Eq. 4 prediction recorded");

    // The decision spawned an action that reached a terminal outcome.
    let add_action = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::ActionIssued {
                action_id,
                kind: "add_replica",
                ..
            } => Some(*action_id),
            _ => None,
        })
        .expect("the add_replica decision issued an action");
    assert!(
        events.iter().any(|e| matches!(
            e,
            TraceEvent::ActionResolved { action_id, .. } if *action_id == add_action
        )),
        "action #{add_action} reached a terminal outcome"
    );

    // A full migration wave: an Eq. 5 budget evaluation with consistent
    // bounds, the planned transfer, and users arriving.
    let budget_ok = events.iter().any(|e| match e {
        TraceEvent::MigrationBudget {
            x_max_ini,
            x_max_rcv,
            granted,
            ..
        } => *granted > 0 && granted <= x_max_ini.min(x_max_rcv),
        _ => false,
    });
    assert!(budget_ok, "an Eq. 5 budget granted within its bounds");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::MigrationPlanned { users, .. } if *users > 0)),
        "a migration wave was planned"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::MigrationSettled { arrived, .. } if *arrived > 0)),
        "migrated users settled"
    );

    // Sim-time is monotone per server within the span stream.
    let mut last_tick = std::collections::HashMap::new();
    for e in &events {
        if let TraceEvent::TickSpan { tick, server, .. } = e {
            let prev = last_tick.insert(*server, *tick);
            assert!(prev.is_none_or(|p| p < *tick), "span ticks monotone");
        }
    }
}

#[test]
fn jsonl_trace_replays_losslessly() {
    let model = model();
    let path = std::env::temp_dir().join(format!("roia_obs_it_{}.jsonl", std::process::id()));
    let report = chaotic_session(&model, Tracer::jsonl(&path).expect("trace file opens"));
    assert!(report.replicas_added >= 1);

    let text = std::fs::read_to_string(&path).expect("trace written and flushed");
    let _ = std::fs::remove_file(&path);
    let mut decisions = 0;
    let mut spans = 0;
    for line in text.lines() {
        let event = TraceEvent::from_json(line)
            .unwrap_or_else(|| panic!("every line decodes, failed on: {line}"));
        // Encode → decode → encode is the identity on the wire format.
        assert_eq!(
            TraceEvent::from_json(&event.to_json()),
            Some(event.clone()),
            "round trip"
        );
        match event {
            TraceEvent::Decision { .. } => decisions += 1,
            TraceEvent::TickSpan { .. } => spans += 1,
            _ => {}
        }
    }
    assert!(decisions >= 1, "decisions present in the replayable trace");
    assert!(spans as u64 >= 54 * 25, "every server tick left a span");
}

#[test]
fn metrics_export_reports_per_server_tick_quantiles() {
    let model = model();
    let report = chaotic_session(&model, Tracer::disabled());

    // Metric collection is unconditional — no tracer attached.
    let prom = report.metrics.prometheus();
    for needle in [
        "roia_tick_duration_us{server=\"0\",quantile=\"0.5\"}",
        "roia_tick_duration_us{server=\"0\",quantile=\"0.99\"}",
        "roia_tick_duration_us_max{server=\"0\"}",
        "# TYPE roia_tick_duration_us summary",
        "# TYPE roia_servers_booted_total counter",
        "roia_users",
    ] {
        assert!(
            prom.contains(needle),
            "prometheus export missing {needle}:\n{prom}"
        );
    }
    let json = report.metrics.to_json();
    assert!(
        json.contains("roia_tick_duration_us"),
        "JSON export covers histograms"
    );
}

/// A flash crowd sized off the calibrated capacity: the surge puts each
/// of the two initial servers well past `N_max(1)` while the starved
/// pool (one standard + one powerful machine spare, 2 s boot delay)
/// guarantees a window of sustained tick-budget violations before
/// scale-out absorbs the load.
fn flash_crowd_session(
    model: &ScalabilityModel,
    tracer: Tracer,
    flight: Option<FlightConfig>,
) -> (SessionReport, u64, u64) {
    let n1 = model.max_users(1, 0);
    let ticks = 1500_u64; // 60 s at 25 Hz
    let horizon_secs = ticks as f64 * 0.040;
    let workload = FlashCrowd {
        base: 40,
        crowd: (n1 as f64 * 2.6) as u32, // ~1.3×N1 per initial server
        start_secs: 0.2 * horizon_secs,
        end_secs: 0.7 * horizon_secs,
    };
    let config = ManagedSessionConfig {
        ticks,
        max_churn_per_tick: 12,
        cluster: ClusterConfig {
            pool: ResourcePool::new(3, 1, 50, 90_000),
            ..ClusterConfig::default()
        },
        initial_servers: 2,
        tracer,
        flight,
        reference_model: Some(model.clone()),
        ..ManagedSessionConfig::default()
    };
    let policy = Box::new(ModelDriven::new(
        model.clone(),
        ModelDrivenConfig::default(),
    ));
    let report = run_session(config, policy, &workload);
    let crowd_start = (workload.start_secs / 0.040) as u64;
    let crowd_end = (workload.end_secs / 0.040) as u64;
    (report, crowd_start, crowd_end)
}

#[test]
fn flash_crowd_fires_tick_budget_burn_and_recovers() {
    let model = model();
    let trace = scratch("flash_crowd.jsonl");
    let tracer = Tracer::jsonl(&trace).expect("trace file opens");
    let (report, crowd_start, crowd_end) = flash_crowd_session(&model, tracer, None);

    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    assert_explain_replays_the_span_slos(&trace, &trace_text);
    let _ = std::fs::remove_file(&trace);
    let events: Vec<TraceEvent> = trace_text
        .lines()
        .map(|line| TraceEvent::from_json(line).expect("every line decodes"))
        .collect();
    let burns: Vec<(u64, u64, &str)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::SloBurn {
                tick,
                cause,
                slo: "tick_budget",
                severity,
                ..
            } => Some((*tick, *cause, *severity)),
            _ => None,
        })
        .collect();
    assert!(
        !burns.is_empty(),
        "the crowd must burn the tick-duration budget"
    );
    let (burn_tick, burn_cause, _) = burns[0];
    assert!(
        burn_cause >= crowd_start && burn_cause < crowd_end,
        "burn cause t={burn_cause} points into the crowd window [{crowd_start}, {crowd_end})"
    );

    let recovery = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::SloRecovered {
                tick,
                cause,
                slo: "tick_budget",
                burn_ticks,
            } => Some((*tick, *cause, *burn_ticks)),
            _ => None,
        })
        .expect("scale-out must eventually clear the burn");
    let (rec_tick, rec_cause, burn_ticks) = recovery;
    assert!(rec_tick > burn_tick, "recovery follows the burn");
    assert_eq!(rec_cause, burn_cause, "recovery names the burn's cause");
    assert!(burn_ticks > 0);

    // Per-term attribution was live (a reference model is attached) and
    // its observed side is complete: summed per-term seconds equal the
    // total simulated busy time within 1 % (the bound `roia explain`
    // holds a trace's spans to; the sim charges no work outside the nine
    // model terms).
    let observed: f64 = report.attribution.iter().map(|t| t.observed_s).sum();
    let busy_us = report
        .metrics
        .histogram(roia::obs::MetricKey::plain("roia_tick_duration_us"))
        .expect("aggregate tick-duration histogram")
        .snapshot()
        .sum;
    let busy = busy_us as f64 * 1e-6;
    assert!(busy > 0.0 && observed > 0.0);
    assert!(
        ((observed - busy) / busy).abs() <= 0.01,
        "attribution covers {observed:.3}s of {busy:.3}s busy time"
    );
    assert!(
        report.attribution.iter().any(|t| t.samples > 0),
        "residual accumulators saw samples"
    );
}

/// The `(ev, tick, slo, severity)` of a `tick_budget` or `tick_p99`
/// transition; `severity` is empty for a recovery.
type SpanSloTransition = (String, u64, String, String);

/// Runs `roia explain --json` over the JSONL trace at `trace` (whose
/// text is `trace_text`) and checks its summary: no malformed line,
/// coverage within 1 %, all five objectives, and the replay of
/// `tick_budget`/`tick_p99` from the tick spans burning and recovering
/// exactly where the trace's own events say the live engine did.
fn assert_explain_replays_the_span_slos(trace: &Path, trace_text: &str) {
    let summary = scratch("explain_summary.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_roia"))
        .arg("explain")
        .arg(trace)
        .arg("--json")
        .arg(&summary)
        .output()
        .expect("run roia explain");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary_text = std::fs::read_to_string(&summary).expect("summary written");
    let _ = std::fs::remove_file(&summary);
    let doc = roia::obs::export::parse_object(summary_text.trim()).expect("summary parses");
    assert_eq!(doc["malformed"].as_u64(), Some(0), "{summary_text}");
    let coverage = doc["coverage"].as_f64().expect("coverage");
    assert!((coverage - 1.0).abs() <= 0.01, "coverage {coverage}");
    let rows: Vec<_> = doc["slo"]
        .as_arr()
        .expect("slo rows")
        .iter()
        .map(|row| row.as_obj().expect("slo row"))
        .collect();
    let names: Vec<_> = rows.iter().map(|row| row["slo"].as_str()).collect();
    assert_eq!(
        names,
        [
            "tick_budget",
            "tick_p99",
            "invariant_violations",
            "join_shed",
            "backpressure_duty"
        ]
        .map(Some)
    );

    let span_slo = |slo: &str| slo == "tick_budget" || slo == "tick_p99";
    let mut traced: Vec<SpanSloTransition> = trace_text
        .lines()
        .filter_map(TraceEvent::from_json)
        .filter_map(|ev| match ev {
            TraceEvent::SloBurn {
                tick,
                slo,
                severity,
                ..
            } => Some((
                "slo_burn".to_string(),
                tick,
                slo.to_string(),
                severity.to_string(),
            )),
            TraceEvent::SloRecovered { tick, slo, .. } => Some((
                "slo_recovered".to_string(),
                tick,
                slo.to_string(),
                String::new(),
            )),
            _ => None,
        })
        .filter(|(_, _, slo, _)| span_slo(slo))
        .collect();
    let mut replayed: Vec<SpanSloTransition> = rows
        .iter()
        .filter(|row| row["source"].as_str() == Some("replay"))
        .flat_map(|row| row["transitions"].as_arr().expect("transitions"))
        .map(|tr| {
            let tr = tr.as_obj().expect("transition object");
            let text = |key: &str| tr.get(key).and_then(|v| v.as_str()).unwrap_or_default();
            (
                text("ev").to_string(),
                tr["tick"].as_u64().expect("tick"),
                text("slo").to_string(),
                text("severity").to_string(),
            )
        })
        .collect();
    traced.sort();
    replayed.sort();
    assert!(
        traced
            .iter()
            .any(|(ev, _, slo, _)| ev == "slo_burn" && slo == "tick_budget"),
        "the crowd burns the tick budget: {traced:?}"
    );
    assert_eq!(replayed, traced, "replayed vs the trace's own verdicts");
}

/// Bundle files a postmortem dump must produce.
const BUNDLE_FILES: [&str; 4] = [
    "events.jsonl",
    "decisions.jsonl",
    "metrics.json",
    "manifest.json",
];

/// A short session whose threshold is set so low that every server tick
/// violates: the tick-budget objective pages within the first ticks and
/// the flight recorder must dump a bundle.
fn paging_session(model: &ScalabilityModel, dir: &Path, trace: &Path) -> SessionReport {
    let config = ManagedSessionConfig {
        ticks: 300,
        u_threshold: 1e-6,
        tracer: Tracer::jsonl(trace).expect("trace file opens"),
        flight: Some(FlightConfig::new(dir)),
        reference_model: Some(model.clone()),
        ..ManagedSessionConfig::default()
    };
    let policy = Box::new(ModelDriven::new(
        model.clone(),
        ModelDrivenConfig::default(),
    ));
    let workload = PaperSession {
        peak: 30,
        ramp_up_secs: 4.0,
        hold_secs: 4.0,
        ramp_down_secs: 4.0,
    };
    run_session(config, policy, &workload)
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("roia_obs_{}_{name}", std::process::id()))
}

#[test]
fn postmortem_bundles_round_trip_and_are_deterministic() {
    let model = model();
    let dirs = [scratch("flight_a"), scratch("flight_b")];
    let traces = [scratch("trace_a.jsonl"), scratch("trace_b.jsonl")];
    for (dir, trace) in dirs.iter().zip(&traces) {
        let _ = std::fs::remove_dir_all(dir);
        paging_session(&model, dir, trace);
    }

    // Same seed, same inputs: the full telemetry stream and every dumped
    // bundle are byte-identical across reruns.
    let trace_a = std::fs::read(&traces[0]).expect("trace a written");
    let trace_b = std::fs::read(&traces[1]).expect("trace b written");
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b, "same-seed traces must be byte-identical");

    let bundle = dirs[0].join("postmortem-0");
    assert!(bundle.is_dir(), "the page dumped a bundle at {bundle:?}");
    for file in BUNDLE_FILES {
        let a = std::fs::read(bundle.join(file)).expect(file);
        let b = std::fs::read(dirs[1].join("postmortem-0").join(file)).expect(file);
        assert_eq!(a, b, "{file} must be byte-identical across reruns");
    }

    // The bundle round-trips through the same parsers `roia explain`
    // uses: every ring line decodes, the manifest and metrics parse, and
    // the manifest agrees with the ring contents.
    let events_text = std::fs::read_to_string(bundle.join("events.jsonl")).unwrap();
    let mut ring_events = 0_u64;
    for line in events_text.lines() {
        let ev =
            TraceEvent::from_json(line).unwrap_or_else(|| panic!("bundle event decodes: {line}"));
        assert_eq!(TraceEvent::from_json(&ev.to_json()), Some(ev), "round trip");
        ring_events += 1;
    }
    assert!(ring_events > 0, "the ring captured pre-trigger telemetry");
    for line in std::fs::read_to_string(bundle.join("decisions.jsonl"))
        .unwrap()
        .lines()
    {
        assert!(
            matches!(
                TraceEvent::from_json(line),
                Some(TraceEvent::Decision { .. })
            ),
            "decision ring holds decisions only: {line}"
        );
    }
    let manifest_text = std::fs::read_to_string(bundle.join("manifest.json")).unwrap();
    let manifest = roia::obs::export::parse_object(manifest_text.trim()).expect("manifest parses");
    assert_eq!(manifest["bundle"].as_str(), Some("postmortem"));
    assert_eq!(manifest["reason"].as_str(), Some("slo_page"));
    assert_eq!(manifest["events"].as_u64(), Some(ring_events));
    let metrics_text = std::fs::read_to_string(bundle.join("metrics.json")).unwrap();
    assert!(
        roia::obs::export::parse_object(metrics_text.trim()).is_some(),
        "metrics snapshot parses"
    );

    // The trace carries the marker event pointing at this bundle.
    let trace_text = String::from_utf8(trace_a).unwrap();
    let marker = trace_text
        .lines()
        .filter_map(TraceEvent::from_json)
        .find_map(|e| match e {
            TraceEvent::PostmortemDumped {
                seq,
                reason,
                events,
                ..
            } => Some((seq, reason, events)),
            _ => None,
        })
        .expect("PostmortemDumped marker in the trace");
    assert_eq!(marker.0, 0);
    assert_eq!(marker.1, "slo_page");
    assert_eq!(marker.2 as u64, ring_events);

    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    for trace in &traces {
        let _ = std::fs::remove_file(trace);
    }
}

#[test]
fn slo_and_flight_overhead_is_bounded() {
    let model = model();
    // Warm-up run so neither timed run pays first-touch costs.
    let (_, _, _) = flash_crowd_session(&model, Tracer::disabled(), None);

    let start = std::time::Instant::now();
    let (_, _, _) = flash_crowd_session(&model, Tracer::disabled(), None);
    let bare = start.elapsed();

    let dir = scratch("flight_overhead");
    let _ = std::fs::remove_dir_all(&dir);
    let (tracer, _ring) = Tracer::ring(1 << 20);
    let start = std::time::Instant::now();
    let (_, _, _) = flash_crowd_session(&model, tracer, Some(FlightConfig::new(&dir)));
    let armed = start.elapsed();
    let _ = std::fs::remove_dir_all(&dir);

    // Acceptance budget is ≤5 % on median tick time; wall-clock in a
    // shared CI runner is noisy, so the gate here is a generous 75 %
    // envelope plus a 50 ms absolute floor — it catches accidental
    // O(events) work per tick, not single-digit-percent regressions.
    let bound = bare.mul_f64(1.75) + std::time::Duration::from_millis(50);
    assert!(
        armed <= bound,
        "tracer+flight overhead too high: bare={bare:?} armed={armed:?}"
    );
}

#[test]
fn tracing_does_not_perturb_the_session() {
    let model = model();
    let (tracer, _ring) = Tracer::ring(1 << 20);
    let traced = chaotic_session(&model, tracer);
    let silent = chaotic_session(&model, Tracer::disabled());

    assert_eq!(traced.violations, silent.violations);
    assert_eq!(traced.migrations, silent.migrations);
    assert_eq!(traced.replicas_added, silent.replicas_added);
    assert_eq!(traced.peak_servers, silent.peak_servers);
    assert_eq!(traced.history.len(), silent.history.len());
    for (a, b) in traced.history.iter().zip(silent.history.iter()) {
        assert_eq!((a.tick, a.users, a.servers), (b.tick, b.users, b.servers));
    }
}
