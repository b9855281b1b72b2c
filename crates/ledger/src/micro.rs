//! Fixed-size micro-drivers: one public entry point of one layer at a
//! time, at the sizes the workloads use (400 avatars, 256 snapshot
//! entries, l = 4), each under its own root span. They run at the end of
//! every traced run, so a layer's cost is on record even for workloads
//! that never execute it.

use crate::report::Outcome;
use crate::span::SpanLog;
use crate::workload::cluster::{ZONE_REPLICAS, ZONE_USERS};
use crate::workload::session::BUS_CLIENTS;
use crate::workload::{nproc, SplitMix64};
use roia_autocal::{CalibratorConfig, OnlineCalibrator};
use roia_fit::{fit_default, Polynomial};
use roia_model::ScalabilityModel;
use roia_obs::slo::{SLO_INVARIANTS, SLO_JOIN_SHED, SLO_TICK_BUDGET, SLO_TICK_P99};
use roia_obs::{
    AttributionAccumulator, FlightConfig, FlightRecorder, Histogram, JsonlSink, MetricKey,
    MetricsRegistry, SloEngine, TraceEvent, Tracer, TERM_COUNT,
};
use roia_sim::{parallel, Cluster, ClusterConfig};
use rtf_core::wire::Wire;
use rtf_core::zone::ZoneId;
use rtf_core::{Packet, TickRecord, UserId, Vec2};
use rtf_net::{Bus, Bytes, NodeId};
use rtf_rms::{
    ControllerConfig, ModelDriven, ModelDrivenConfig, RmsController, ServerSnapshot, ZoneSnapshot,
};
use rtf_transport::proto::{ClientMsg, EntityState, InputFrame, ServerMsg, Snapshot, NO_TARGET};
use rtf_transport::tcp::{TcpClientTransport, TcpConfig, TcpServerTransport};
use rtf_transport::{Transport, TransportEvent, SERVER_PEER};
use rtfdemo::{compute_aoi, AoiGrid, World};
use std::hint::black_box;
use std::sync::{Arc, Mutex};

/// Runs `op` `iters` times under a root span `name`; mean ns per call.
fn bench<T>(
    log: &mut SpanLog,
    name: &'static str,
    iters: u64,
    mut op: impl FnMut(u64) -> T,
) -> f64 {
    let id = log.enter(name, 0);
    for i in 0..iters {
        black_box(op(i));
    }
    log.exit(id) as f64 / iters.max(1) as f64
}

/// Runs every micro-driver and records its metric.
pub fn run_all(outcome: &mut Outcome, log: &mut SpanLog, model: &ScalabilityModel, seed: u64) {
    core_fit(outcome, log, model, seed);
    rms(outcome, log, model);
    demo(outcome, log);
    net_rtf(outcome, log);
    transport(outcome, log);
    sim_autocal(outcome, log, model, seed);
    obs(outcome, log);
}

fn core_fit(outcome: &mut Outcome, log: &mut SpanLog, model: &ScalabilityModel, seed: u64) {
    let n = ZONE_USERS;
    let l = ZONE_REPLICAS;
    let iters = 200_000;
    let ns = bench(log, "core.tick", iters, |i| {
        model.tick(l, n + (i % 7) as u32, 0, n / l)
    });
    outcome.layer("core.tick_ns", ns, iters);
    let ns = bench(log, "core.tick_terms", iters, |i| {
        model.tick_terms(l, n + (i % 7) as u32, 0, n / l, 1, 1)
    });
    outcome.layer("core.tick_terms_ns", ns, iters);
    let iters = 20_000;
    let ns = bench(log, "core.n_max", iters, |i| {
        model.max_users(1 + (i % 8) as u32, 0)
    });
    outcome.layer("core.n_max_ns", ns, iters);
    let iters = 500;
    let ns = bench(log, "core.l_max", iters, |_| model.max_replicas(0));
    outcome.layer("core.l_max_us", ns / 1e3, iters);
    let unbalanced = [190u32, 150, 120, 90, 60, 30, 10, 0];
    let ns = bench(log, "core.plan", iters, |_| {
        model.plan_migrations(&unbalanced, 0)
    });
    outcome.layer("core.plan_us", ns / 1e3, iters);

    // 600 noisy samples of a quadratic the size of t_aoi's.
    let mut rng = SplitMix64::new(seed);
    let xs: Vec<f64> = (0..600).map(|i| 1.0 + f64::from(i)).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            let noise = 1.0 + 0.04 * ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
            (1.0e-7 + 1.4e-9 * x + 2.0e-10 * x * x) * noise
        })
        .collect();
    let quadratic = Polynomial::quadratic();
    let mut iterations = 0;
    let iters = 20;
    let ns = bench(log, "fit.lm_quadratic", iters, |_| {
        let fitted = fit_default(&quadratic, &xs, &ys);
        iterations = fitted.as_ref().map_or(0, |f| f.iterations);
        fitted.is_ok()
    });
    outcome.layer("fit.lm_quadratic_us", ns / 1e3, iters);
    outcome.layer("fit.lm_iterations", iterations as f64, 0);
}

/// A hand-made monitoring snapshot: `l` replicas sharing `n` users evenly.
fn zone_snapshot(l: u32, n: u32, avg_tick: f64) -> ZoneSnapshot {
    ZoneSnapshot {
        zone: ZoneId(1),
        npcs: 0,
        servers: (0..l)
            .map(|i| ServerSnapshot {
                server: NodeId(i),
                active_users: n / l,
                avg_tick,
                max_tick: avg_tick * 1.05,
                speedup: 1.0,
            })
            .collect(),
    }
}

fn rms(outcome: &mut Outcome, log: &mut SpanLog, model: &ScalabilityModel) {
    let controller = || {
        RmsController::new(
            Box::new(ModelDriven::new(
                model.clone(),
                ModelDrivenConfig::default(),
            )),
            ControllerConfig::default(),
        )
    };
    let interval = ControllerConfig::default().control_interval_ticks;
    let iters = 400;
    for (name, metric, users, tick) in [
        (
            "rms.control_steady",
            "rms.control_steady_us",
            ZONE_USERS,
            0.030,
        ),
        (
            "rms.control_overload",
            "rms.control_overload_us",
            600,
            0.045,
        ),
    ] {
        let snapshot = zone_snapshot(ZONE_REPLICAS, users, tick);
        let mut rms = controller();
        let ns = bench(log, name, iters, |i| {
            rms.control(&snapshot, i * interval).len()
        });
        outcome.layer(metric, ns / 1e3, iters);
    }
    let mut rms = controller();
    let iters = 200_000;
    let ns = bench(log, "rms.admit_join", iters, |i| rms.admit_join(0, i));
    outcome.layer("rms.admit_join_ns", ns, iters);
}

fn demo(outcome: &mut Outcome, log: &mut SpanLog) {
    let world = World::default();
    let avatars: Vec<(UserId, Vec2)> = (1..=u64::from(ZONE_USERS))
        .map(|u| (UserId(u), world.spawn_point(UserId(u))))
        .collect();
    let mut grid = AoiGrid::new();
    let iters = 500;
    let ns = bench(log, "demo.aoi_grid_rebuild", iters, |_| {
        grid.rebuild(&world, &avatars)
    });
    outcome.layer("demo.aoi_grid_rebuild_us", ns / 1e3, iters);
    let iters = 50 * avatars.len() as u64;
    let ns = bench(log, "demo.aoi_grid_query", iters, |i| {
        let (user, pos) = &avatars[i as usize % avatars.len()];
        grid.query(&world, *user, pos, avatars.len() - 1)
            .visible
            .len()
    });
    outcome.layer("demo.aoi_grid_query_ns", ns, iters);
    // One tick's worth of the quadratic backend: every avatar observes.
    let iters = 10;
    let mut pairs = 0;
    let ns = bench(log, "demo.aoi_quadratic", iters, |_| {
        pairs = 0;
        for (user, pos) in &avatars {
            pairs += compute_aoi(&world, *user, pos, avatars.iter().copied()).pairs_checked;
        }
        pairs
    });
    outcome.layer("demo.aoi_quadratic_us", ns / 1e3, iters);
    outcome.layer("demo.aoi_pairs_checked", pairs as f64, 0);
}

fn net_rtf(outcome: &mut Outcome, log: &mut SpanLog) {
    let bus = Bus::new();
    let a = bus.register("a");
    let b = bus.register("b");
    let payload = Bytes::from(vec![7u8; 64]);
    let batch = 1_000u64;
    let batches = 100u64;
    let mut send_ns = 0.0;
    let mut drain_ns = 0.0;
    let mut inbox = Vec::with_capacity(batch as usize);
    for _ in 0..batches {
        send_ns += bench(log, "net.send", batch, |_| {
            a.send(b.id(), payload.clone()).is_ok()
        });
        inbox.clear();
        drain_ns += bench(log, "net.drain", 1, |_| {
            b.drain_into(&mut inbox);
            inbox.len()
        }) / batch as f64;
    }
    outcome.layer("net.send_ns", send_ns / batches as f64, batch * batches);
    outcome.layer(
        "net.drain_ns_per_msg",
        drain_ns / batches as f64,
        batch * batches,
    );

    // A state update the size zone_steady sends: ~600 payload bytes.
    let packet = Packet::StateUpdate {
        user: UserId(1),
        tick: 1,
        payload: Bytes::from(vec![3u8; 600]),
    };
    let encoded = packet.to_bytes();
    let iters = 200_000;
    let ns = bench(log, "rtf.wire_encode", iters, |_| packet.to_bytes().len());
    outcome.layer("rtf.wire_encode_ns", ns, iters);
    let ns = bench(log, "rtf.wire_decode", iters, |_| {
        Packet::from_bytes(&encoded).is_ok()
    });
    outcome.layer("rtf.wire_decode_ns", ns, iters);
}

fn transport(outcome: &mut Outcome, log: &mut SpanLog) {
    let input = ClientMsg::Input(InputFrame {
        seq: 9,
        view_tick: 1_000,
        dx: 1,
        dy: -1,
        attack: NO_TARGET,
    });
    let input_bytes = input.to_bytes();
    let iters = 200_000;
    let ns = bench(log, "transport.input_encode", iters, |_| {
        input.to_bytes().len()
    });
    outcome.layer("transport.input_encode_ns", ns, iters);
    let ns = bench(log, "transport.input_decode", iters, |_| {
        ClientMsg::from_bytes(&input_bytes).is_ok()
    });
    outcome.layer("transport.input_decode_ns", ns, iters);

    let snapshot = ServerMsg::Snapshot(Snapshot {
        tick: 1_000,
        baseline: 999,
        ack_seq: 9,
        entries: (0..BUS_CLIENTS)
            .map(|id| EntityState {
                id,
                x: id as i32 * 13,
                y: id as i32 * 7,
                health: 100,
            })
            .collect(),
        removed: Vec::new(),
    });
    let snapshot_bytes = snapshot.to_bytes();
    let iters = 5_000;
    let ns = bench(log, "transport.snapshot_encode", iters, |_| {
        snapshot.to_bytes().len()
    });
    outcome.layer("transport.snapshot_encode_us", ns / 1e3, iters);
    let ns = bench(log, "transport.snapshot_decode", iters, |_| {
        ServerMsg::from_bytes(&snapshot_bytes).is_ok()
    });
    outcome.layer("transport.snapshot_decode_us", ns / 1e3, iters);

    // Loopback TCP with the two connections session_tcp_2 uses.
    let Ok(mut server) = TcpServerTransport::bind("127.0.0.1:0", TcpConfig::default()) else {
        return;
    };
    let Ok(addr) = server.local_addr() else {
        return;
    };
    let mut clients: Vec<TcpClientTransport> = (0..2)
        .filter_map(|_| TcpClientTransport::connect(addr, TcpConfig::default()).ok())
        .collect();
    let mut events = Vec::new();
    for _ in 0..16 {
        server.poll(&mut events);
        for client in &mut clients {
            client.poll(&mut events);
        }
    }
    if server.peers().len() != 2 || clients.is_empty() {
        return;
    }
    let iters = 50_000;
    let ns = bench(log, "transport.tcp_poll_idle", iters, |_| {
        events.clear();
        server.poll(&mut events);
        events.len()
    });
    outcome.layer("transport.tcp_poll_idle_ns", ns, iters);

    // One small frame to the server and back, polling both ends until it
    // lands (bounded, so a broken socket cannot hang the run).
    let frame = Bytes::from(vec![1u8; 24]);
    let client = &mut clients[0];
    let iters = 5_000;
    let mut lost = 0u64;
    let ns = bench(log, "transport.tcp_frame_roundtrip", iters, |_| {
        if client.send(SERVER_PEER, frame.clone()).is_err() {
            lost += 1;
            return;
        }
        for _ in 0..10_000 {
            events.clear();
            server.poll(&mut events);
            for event in events.drain(..) {
                if let TransportEvent::Frame { peer, payload } = event {
                    let _ = server.send(peer, payload);
                }
            }
            client.poll(&mut events);
            if events
                .iter()
                .any(|e| matches!(e, TransportEvent::Frame { .. }))
            {
                return;
            }
        }
        lost += 1;
    });
    outcome.check(lost == 0, || {
        format!("{lost} TCP round trips never completed")
    });
    outcome.layer("transport.tcp_frame_roundtrip_us", ns / 1e3, iters);
}

fn sim_autocal(outcome: &mut Outcome, log: &mut SpanLog, model: &ScalabilityModel, seed: u64) {
    let mut items = [0u64; 8];
    let iters = 2_000;
    let threads = nproc();
    let ns = bench(log, "sim.pool_spawn", iters, |_| {
        parallel::map_mut(&mut items, threads, |x| *x += 1).len()
    });
    outcome.layer("sim.pool_spawn_us", ns / 1e3, iters);

    // User lifecycle on a zone_steady-sized cluster.
    let mut cluster = Cluster::new(
        ClusterConfig {
            seed,
            ..ClusterConfig::default()
        },
        ZONE_REPLICAS,
    );
    for _ in 0..ZONE_USERS - 50 {
        cluster.add_user();
    }
    cluster.run(20);
    let iters = 50;
    let ns = bench(log, "sim.add_user", iters, |_| cluster.add_user().is_some());
    outcome.layer("sim.add_user_us", ns / 1e3, iters);
    cluster.run(5);
    let ns = bench(log, "sim.remove_user", iters, |_| {
        cluster.remove_user().is_some()
    });
    outcome.layer("sim.remove_user_us", ns / 1e3, iters);
    cluster.run(5);
    // A migration's cost lands in the two steps after it is scheduled:
    // rounds that migrate eight users against rounds that do not.
    let moved = 8;
    let rounds = 20;
    let quiet = bench(log, "sim.step_quiet", rounds, |_| cluster.run(2));
    let loads = cluster.server_loads();
    let busy = bench(log, "sim.step_migrating", rounds, |i| {
        let from = loads[i as usize % loads.len()].0;
        let to = loads[(i as usize + 1) % loads.len()].0;
        cluster.execute_migration(from, to, moved);
        cluster.run(2);
    });
    outcome.layer(
        "sim.migrate_user_us",
        (busy - quiet).max(0.0) / f64::from(moved) / 1e3,
        rounds,
    );

    // The online calibrator, fed the records of a small cluster whose
    // population grows (the windows want spread along x).
    let mut source = Cluster::new(
        ClusterConfig {
            seed: seed ^ 0xA07C,
            ..ClusterConfig::default()
        },
        2,
    );
    for _ in 0..80 {
        source.add_user();
    }
    let mut records: Vec<Vec<TickRecord>> = Vec::new();
    for tick in 0..600 {
        if tick % 5 == 0 {
            source.add_user();
        }
        source.step();
        records.push(
            (0..source.server_count() as usize)
                .filter_map(|idx| source.server_metrics(idx).latest().cloned())
                .collect(),
        );
    }
    let mut calibrator = OnlineCalibrator::new(model.clone(), CalibratorConfig::default());
    let (mut ingest_ns, mut ingested) = (0.0, 0u64);
    let (mut idle_ns, mut idle) = (0.0, 0u64);
    let (mut refit_ns, mut refits) = (0.0, 0u64);
    for (tick, batch) in records.iter().enumerate() {
        ingest_ns += bench(log, "autocal.ingest", 1, |_| {
            for record in batch {
                calibrator.ingest(record, 2);
            }
        });
        ingested += batch.len() as u64;
        let mut refitted = false;
        let ns = bench(log, "autocal.end_tick", 1, |_| {
            refitted = calibrator.end_tick(tick as u64).is_some();
        });
        if refitted {
            refit_ns += ns;
            refits += 1;
        } else {
            idle_ns += ns;
            idle += 1;
        }
    }
    outcome.layer(
        "autocal.ingest_ns",
        ingest_ns / ingested.max(1) as f64,
        ingested,
    );
    outcome.layer(
        "autocal.end_tick_us",
        idle_ns / idle.max(1) as f64 / 1e3,
        idle,
    );
    if refits > 0 {
        outcome.layer("autocal.refit_us", refit_ns / refits as f64 / 1e3, refits);
    }
    // The churn workload reports the refits of its own run; elsewhere
    // this is the micro-driver's count.
    if outcome.metric("autocal.refits").is_none() {
        outcome.layer("autocal.refits", refits as f64, 0);
    }
}

fn tick_span(tick: u64) -> TraceEvent {
    TraceEvent::TickSpan {
        tick,
        server: 1,
        zone: 1,
        duration_s: 0.031,
        per_task: [0.003; 10],
        active_users: 100,
        shadow_users: 300,
        npcs: 0,
        migrations_initiated: 0,
        migrations_received: 0,
    }
}

fn obs(outcome: &mut Outcome, log: &mut SpanLog) {
    let iters = 100_000;
    let (tracer, _ring) = Tracer::ring(4_096);
    let ns = bench(log, "obs.emit_ring", iters, |i| tracer.emit(tick_span(i)));
    outcome.layer("obs.emit_ring_ns", ns, iters);
    let (tracer, _hash) = Tracer::hashing();
    let ns = bench(log, "obs.emit_hash", iters, |i| tracer.emit(tick_span(i)));
    outcome.layer("obs.emit_hash_ns", ns, iters);
    let iters = 20_000;
    let sink = JsonlSink::new(Box::new(Vec::<u8>::new()));
    let tracer = Tracer::to_sink(Arc::new(Mutex::new(sink)));
    let ns = bench(log, "obs.emit_jsonl", iters, |i| tracer.emit(tick_span(i)));
    outcome.layer("obs.emit_jsonl_ns", ns, iters);
    let event = tick_span(7);
    let line = event.to_json();
    let ns = bench(log, "obs.event_to_json", iters, |_| event.to_json().len());
    outcome.layer("obs.event_to_json_ns", ns, iters);
    let ns = bench(log, "obs.event_from_json", iters, |_| {
        TraceEvent::from_json(&line).is_some()
    });
    outcome.layer("obs.event_from_json_ns", ns, iters);

    let iters = 500_000;
    let mut histogram = Histogram::new();
    let ns = bench(log, "obs.hist_record", iters, |i| {
        histogram.record(20_000 + i % 20_000)
    });
    outcome.layer("obs.hist_record_ns", ns, iters);
    let mut registry = MetricsRegistry::new();
    let ns = bench(log, "obs.registry_record", iters, |i| {
        registry.record(
            MetricKey::labelled("roia_tick_duration_us", "server", i % 4),
            20_000 + i % 20_000,
        )
    });
    outcome.layer("obs.registry_record_ns", ns, iters);

    // What Cluster::step feeds the SLO engine every tick.
    let iters = 100_000;
    let mut slo = SloEngine::standard();
    let ns = bench(log, "obs.slo_tick", iters, |i| {
        slo.observe(SLO_TICK_BUDGET, 0, 4);
        slo.observe(SLO_TICK_P99, 0, 4);
        slo.observe(SLO_INVARIANTS, 0, 1);
        slo.observe(SLO_JOIN_SHED, 0, 0);
        slo.end_tick(i).len()
    });
    outcome.layer("obs.slo_tick_ns", ns, iters);
    let mut attribution = AttributionAccumulator::new();
    let observed = [0.0031; TERM_COUNT];
    let predicted = [0.0030; TERM_COUNT];
    let iters = 500_000;
    let ns = bench(log, "obs.attrib_fold", iters, |_| {
        attribution.fold(&observed, &predicted)
    });
    outcome.layer("obs.attrib_fold_ns", ns, iters);
    let iters = 2_000;
    let ns = bench(log, "obs.metrics_to_json", iters, |_| {
        registry.to_json().len()
    });
    outcome.layer("obs.metrics_to_json_us", ns / 1e3, iters);

    // Snapshot phase of a postmortem dump from a full ring; no I/O.
    let config = FlightConfig {
        max_dumps: u32::MAX,
        ..FlightConfig::new(crate::out_dir().join("flight-micro"))
    };
    let recorder = Arc::new(Mutex::new(FlightRecorder::new(config)));
    let tracer = Tracer::to_sink(recorder.clone());
    for tick in 0..1_024 {
        tracer.emit(tick_span(tick));
    }
    let iters = 500;
    let ns = bench(log, "obs.flight_prepare_dump", iters, |i| {
        recorder
            .lock()
            .ok()
            .and_then(|mut r| r.prepare_dump(i, i, "bench", 0))
            .is_some()
    });
    outcome.layer("obs.flight_prepare_dump_us", ns / 1e3, iters);
}
