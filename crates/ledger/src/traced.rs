//! The traced run: each workload again, with spans recorded from the
//! ledger's own files around each call into a layer's public function.
//!
//! `Cluster` and `MultiZoneWorld` offer one boundary, `step`; to see
//! inside a tick the zone workloads also drive a hand-built replica group
//! of the same topology and seed — a `Bus`, Wall-mode `Server`s, `Client`s
//! with `Bot`s, lock-step on one thread — whose span tree is
//! `round → {net.advance, rtf.server_tick ×l, net.flush, rtf.client_tick}`
//! with `TickRecord.per_task` attached as child durations. End-to-end
//! numbers never come from here.

use crate::micro;
use crate::report::Outcome;
use crate::span::{self_times, SpanLog};
use crate::stats;
use crate::workload::cluster::{
    ChurnFullStack, MultizoneFanout, ZoneSteady, MZ_REPLICAS_PER_ZONE, MZ_USERS_PER_ZONE,
    ZONE_REPLICAS, ZONE_USERS,
};
use crate::workload::session::{BusRun, SessionRun, TcpRun, BUS_CLIENTS, TCP_CLIENTS};
use crate::workload::{
    fanout_threads, new_outcome, nproc, run_untimed, run_window, Driver, Limit, Plan, Window,
    Workload,
};
use roia_model::ScalabilityModel;
use roia_obs::{FlightConfig, Tracer};
use roia_sim::default_demo_model;
use rtf_core::client::InputSource;
use rtf_core::timer::{TaskKind, TimeMode};
use rtf_core::zone::ZoneId;
use rtf_core::{Client, Server, ServerConfig, TickRecord, UserId};
use rtf_net::{Bus, Bytes};
use rtf_rms::ActionOutcome;
use rtf_transport::proto::{ENTITY_STATE_BYTES, SNAPSHOT_OVERHEAD_BYTES};
use rtf_transport::{Transport, FRAME_OVERHEAD};
use rtfdemo::{Bot, BotBehavior, CostModel, CostRates, RtfDemoApp, World};
use std::time::Instant;

/// Share of the run's budget given to each side window.
const SHARE_UNTRACED: f64 = 0.15;
const SHARE_STEP: f64 = 0.15;
const SHARE_GROUP: f64 = 0.30;
const SHARE_SIDE: f64 = 0.10;
const SHARE_SESSION: f64 = 0.35;

/// Span names of the ten `TickRecord.per_task` slots, in `TaskKind::ALL`
/// order, and the metrics they feed.
const TASK_SPANS: [(&str, &str); 10] = [
    ("rtf.task_ua_dser", "rtf.task_ua_dser_us"),
    ("rtf.task_ua", "rtf.task_ua_us"),
    ("rtf.task_fa_dser", "rtf.task_fa_dser_us"),
    ("rtf.task_fa", "rtf.task_fa_us"),
    ("rtf.task_npc", "rtf.task_npc_us"),
    ("rtf.task_aoi", "rtf.task_aoi_us"),
    ("rtf.task_su", "rtf.task_su_us"),
    ("rtf.task_mig_ini", "rtf.task_mig_ini_us"),
    ("rtf.task_mig_rcv", "rtf.task_mig_rcv_us"),
    ("rtf.task_other", "rtf.task_other_us"),
];

/// Runs one workload traced: per-layer metrics, span file, self-time
/// check.
pub fn run_traced(workload: Workload, plan: &Plan) -> Outcome {
    let mut outcome = new_outcome(workload, plan);
    outcome.traced = true;
    let mut log = SpanLog::with_capacity(1 << 20);
    let model = default_demo_model();
    match workload {
        Workload::ZoneSteady => trace_zone_steady(&mut outcome, &mut log, plan, &model),
        Workload::MultizoneFanout => trace_multizone(&mut outcome, &mut log, plan, &model),
        Workload::ChurnFullStack => trace_churn(&mut outcome, &mut log, plan, &model),
        Workload::SessionBus256 => {
            let seed = workload.seed(plan.seed);
            trace_session(&mut outcome, &mut log, plan, || {
                BusRun::setup_bus(seed, BUS_CLIENTS)
            });
        }
        Workload::SessionTcp2 => {
            let seed = workload.seed(plan.seed);
            trace_session(&mut outcome, &mut log, plan, || {
                TcpRun::setup_tcp(seed, TCP_CLIENTS)
            });
        }
    }
    micro::run_all(&mut outcome, &mut log, &model, plan.seed);
    finish(&mut outcome, &log);
    outcome
}

/// Checks that the layers' self times add up to the traced time, notes
/// them as counters, and writes the span file.
fn finish(outcome: &mut Outcome, log: &SpanLog) {
    let out_dir = crate::out_dir();
    let root = log.root_ns();
    let selfs = self_times(log.spans());
    let layers = log.layer_self_ns(&selfs);
    let sum: u64 = layers.values().sum();
    outcome.check(
        (sum as f64 - root as f64).abs() <= 0.05 * root as f64,
        || format!("layer self times sum to {sum} ns, traced roots to {root} ns"),
    );
    for (layer, self_ns) in layers {
        outcome.counters.insert(format!("self_ns.{layer}"), self_ns);
    }
    outcome.counters.insert("self_ns.total".into(), root);
    let path = out_dir.join(format!("spans-{}.jsonl", outcome.workload));
    let written = std::fs::create_dir_all(&out_dir).and_then(|()| log.write_jsonl(&path, &selfs));
    outcome.check(written.is_ok(), || {
        format!("cannot write {}: {written:?}", path.display())
    });
}

/// The `q` quantile of `samples` (already scaled) if the percentile rule
/// trusts it for this many samples.
fn trusted_quantile(mut samples: Vec<f64>, q: f64) -> Option<f64> {
    stats::tail_for(samples.len()).filter(|(trusted, _)| *trusted >= q)?;
    samples.sort_by(f64::total_cmp);
    Some(stats::quantile(&samples, q))
}

/// Nanosecond samples as `f64`, divided by `div`.
fn scaled(samples_ns: &[u64], div: f64) -> Vec<f64> {
    samples_ns.iter().map(|&ns| ns as f64 / div).collect()
}

/// Runs `driver` for `limit` with every tick under a root span `name`.
fn run_spanned<D: Driver>(
    driver: &mut D,
    limit: Limit,
    log: &mut SpanLog,
    name: &'static str,
) -> Window {
    struct Spanned<'a, D> {
        inner: &'a mut D,
        log: &'a mut SpanLog,
        name: &'static str,
        round: u64,
    }
    impl<D: Driver> Driver for Spanned<'_, D> {
        type Out = D::Out;
        fn prepare(&mut self) {
            self.inner.prepare();
        }
        fn tick(&mut self) -> D::Out {
            self.round += 1;
            let id = self.log.enter(self.name, self.round);
            let out = self.inner.tick();
            self.log.exit(id);
            out
        }
        fn account(&mut self, out: D::Out) -> u64 {
            self.inner.account(out)
        }
    }
    run_window(
        &mut Spanned {
            inner: driver,
            log,
            name,
            round: 0,
        },
        limit,
    )
}

/// `sim.step_*` and the trace overhead from an untraced and a spanned
/// window of the same deployment.
fn report_steps(outcome: &mut Outcome, untraced: &Window, spanned: &Window) {
    let n = spanned.ticks();
    outcome.layer("sim.step_ms_p50", spanned.tick_ms_p50(), n);
    if let Some(p99) = trusted_quantile(spanned.sample.scaled(1e6), 0.99) {
        outcome.layer("sim.step_ms_p99", p99, n);
    }
    outcome.layer("sim.step_ms_max", spanned.max_ns as f64 / 1e6, n);
    outcome.layer(
        "harness.trace_overhead_ratio",
        spanned.tick_ms_p50() / untraced.tick_ms_p50().max(f64::MIN_POSITIVE),
        n,
    );
    outcome.ticks = n;
    outcome.window_s = spanned.seconds();
    outcome.attempted = n;
}

// ---------------------------------------------------------------------
// The hand-built replica group
// ---------------------------------------------------------------------

/// A bot whose calls are timed: the generator's cost, measured at the
/// `InputSource` boundary so it can be told apart from the client's.
struct TimedBot<'a> {
    bot: &'a mut Bot,
    ns: &'a mut u64,
}

impl InputSource for TimedBot<'_> {
    fn next_input(&mut self, tick: u64) -> Option<Bytes> {
        let started = Instant::now();
        let input = self.bot.next_input(tick);
        *self.ns += started.elapsed().as_nanos() as u64;
        input
    }

    fn on_state_update(&mut self, server_tick: u64, payload: &[u8]) {
        let started = Instant::now();
        self.bot.on_state_update(server_tick, payload);
        *self.ns += started.elapsed().as_nanos() as u64;
    }
}

/// What a [`ReplicaGroup`] accumulates over its rounds.
#[derive(Debug, Default)]
struct GroupTally {
    /// Host nanoseconds of every server tick.
    server_tick_ns: Vec<u64>,
    /// Host nanoseconds of every round.
    round_ns: Vec<u64>,
    task_ns: [u64; 10],
    untimed_ns: u64,
    client_phase_ns: u64,
    bot_ns: u64,
    client_ticks: u64,
    advance_ns: u64,
    flush_ns: u64,
    inputs: u64,
    updates: u64,
    bytes_out: u64,
}

impl GroupTally {
    fn fold_record(&mut self, log: &mut SpanLog, span: u32, span_ns: u64, record: &TickRecord) {
        self.server_tick_ns.push(span_ns);
        let mut children = [("", 0u64); 10];
        let mut timed = 0;
        for (slot, task) in TaskKind::ALL.iter().enumerate() {
            let ns = (record.task(*task) * 1e9) as u64;
            children[slot] = (TASK_SPANS[slot].0, ns);
            self.task_ns[slot] += ns;
            timed += ns;
        }
        log.attach_children(span, &children);
        self.untimed_ns += span_ns.saturating_sub(timed);
        self.inputs += u64::from(record.inputs_processed);
        self.updates += u64::from(record.updates_sent);
        self.bytes_out += record.bytes_out;
    }

    /// The `rtf.*`, `net.*`, `demo.bot_input_ns` and generator-share
    /// metrics of the rounds tallied. `msgs` and `dropped` are the bus's
    /// message and drop counts over those rounds.
    fn report(&self, outcome: &mut Outcome, msgs: u64, dropped: u64) {
        let ticks = self.server_tick_ns.len() as u64;
        let rounds = self.round_ns.len() as u64;
        if ticks == 0 || rounds == 0 {
            return;
        }
        let per_tick_us = |ns: u64| ns as f64 / ticks as f64 / 1e3;
        if let Some(s) = stats::summarize(&mut scaled(&self.server_tick_ns, 1e3)) {
            outcome.layer("rtf.server_tick_us_p50", s.p50, ticks);
        }
        if let Some(p99) = trusted_quantile(scaled(&self.server_tick_ns, 1e3), 0.99) {
            outcome.layer("rtf.server_tick_us_p99", p99, ticks);
        }
        for (slot, (_, metric)) in TASK_SPANS.iter().enumerate() {
            outcome.layer(metric, per_tick_us(self.task_ns[slot]), ticks);
        }
        outcome.layer("rtf.tick_untimed_us", per_tick_us(self.untimed_ns), ticks);
        let client_ticks = self.client_ticks.max(1) as f64;
        outcome.layer(
            "rtf.client_tick_ns",
            self.client_phase_ns.saturating_sub(self.bot_ns) as f64 / client_ticks,
            self.client_ticks,
        );
        outcome.layer(
            "demo.bot_input_ns",
            self.bot_ns as f64 / client_ticks,
            self.client_ticks,
        );
        let per_tick = |count: u64| count as f64 / ticks as f64;
        outcome.layer("rtf.inputs_per_tick", per_tick(self.inputs), ticks);
        outcome.layer("rtf.updates_per_tick", per_tick(self.updates), ticks);
        outcome.layer("rtf.bytes_out_per_tick", per_tick(self.bytes_out), ticks);
        let per_round_us = |ns: u64| ns as f64 / rounds as f64 / 1e3;
        outcome.layer(
            "net.advance_us_per_tick",
            per_round_us(self.advance_ns),
            rounds,
        );
        outcome.layer("net.flush_us_per_tick", per_round_us(self.flush_ns), rounds);
        outcome.layer("net.msgs_per_tick", msgs as f64 / rounds as f64, rounds);
        outcome.layer("net.dropped_msgs", dropped as f64, 0);
        outcome.layer(
            "harness.generator_share",
            self.client_phase_ns as f64 / self.round_ns.iter().sum::<u64>().max(1) as f64,
            rounds,
        );
    }
}

/// One replication group built from public parts, as `sim::threaded`
/// builds it, but ticked in lock-step on the calling thread.
pub struct ReplicaGroup {
    bus: Bus,
    servers: Vec<Server<RtfDemoApp>>,
    clients: Vec<(Client, Bot)>,
    tick: u64,
    tally: GroupTally,
}

impl ReplicaGroup {
    /// `replicas` Wall-mode servers of one zone and `users` bot clients
    /// connected round-robin.
    pub fn build(seed: u64, replicas: u32, users: u32) -> Self {
        let bus = Bus::new();
        let noise = roia_sim::ClusterConfig::default().cost_noise;
        let mut servers: Vec<Server<RtfDemoApp>> = (0..replicas)
            .map(|i| {
                let costs = CostModel::new(CostRates::default(), noise, seed ^ u64::from(i));
                let app = RtfDemoApp::new(World::default(), 0, costs);
                let config = ServerConfig {
                    time_mode: TimeMode::Wall,
                    ..ServerConfig::default()
                };
                Server::new(&bus, &format!("server-{i}"), ZoneId(1), app, config)
            })
            .collect();
        let ids: Vec<_> = servers.iter().map(Server::id).collect();
        for server in &mut servers {
            server.set_peers(ids.clone());
        }
        let clients = (0..u64::from(users))
            .map(|u| {
                let user = UserId(u + 1);
                let target = ids[(u % ids.len() as u64) as usize];
                let client =
                    Client::connect(&bus, user, target).expect("server endpoints are registered");
                (client, Bot::new(user, seed, BotBehavior::default()))
            })
            .collect();
        Self {
            bus,
            servers,
            clients,
            tick: 0,
            tally: GroupTally::default(),
        }
    }

    /// One round in `Cluster::step`'s phase order, under spans.
    pub fn round(&mut self, log: &mut SpanLog) {
        let tick = self.tick;
        let round = log.enter("harness.round", tick);
        self.tally.advance_ns += timed_scope(log, "net.advance", tick, || self.bus.advance(tick));

        self.bus.pause_delivery();
        for server in &mut self.servers {
            let id = log.enter("rtf.server_tick", tick);
            let record = server.tick();
            let ns = log.exit(id);
            self.tally.fold_record(log, id, ns, &record);
        }
        self.tally.flush_ns += timed_scope(log, "net.flush", tick, || self.bus.resume_delivery());

        self.bus.pause_delivery();
        let id = log.enter("rtf.client_tick", tick);
        let mut bot_ns = 0;
        for (client, bot) in &mut self.clients {
            client.tick(
                tick,
                &mut TimedBot {
                    bot,
                    ns: &mut bot_ns,
                },
            );
        }
        self.tally.client_phase_ns += log.exit(id);
        log.attach_children(id, &[("demo.bot", bot_ns)]);
        self.tally.bot_ns += bot_ns;
        self.tally.client_ticks += self.clients.len() as u64;
        self.tally.flush_ns += timed_scope(log, "net.flush", tick, || self.bus.resume_delivery());

        self.tally.round_ns.push(log.exit(round));
        self.tick += 1;
    }

    /// Forgets what the warm-up rounds accumulated.
    pub fn reset(&mut self) {
        self.tally = GroupTally::default();
    }
}

/// Runs `f` under a span and returns its duration.
fn timed_scope(log: &mut SpanLog, name: &'static str, round: u64, f: impl FnOnce()) -> u64 {
    let id = log.enter(name, round);
    f();
    log.exit(id)
}

/// Warms a group up, runs it for `limit` and reports it; returns the
/// median round in µs.
fn trace_group(
    outcome: &mut Outcome,
    log: &mut SpanLog,
    plan: &Plan,
    seed: u64,
    replicas: u32,
    users: u32,
) -> f64 {
    let mut group = ReplicaGroup::build(seed, replicas, users);
    let mut scratch = SpanLog::with_capacity(64 * plan.warmup as usize);
    for _ in 0..plan.warmup {
        group.round(&mut scratch);
    }
    drop(scratch);
    group.reset();
    let before = group.bus.stats();
    let limit = plan.limit.scaled(SHARE_GROUP);
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < limit.max_ticks && limit.max_time.is_none_or(|max| started.elapsed() < max) {
        group.round(log);
        rounds += 1;
    }
    let after = group.bus.stats();
    group.tally.report(
        outcome,
        after.total_messages() - before.total_messages(),
        after.total_dropped() - before.total_dropped(),
    );
    stats::summarize(&mut scaled(&group.tally.round_ns, 1e3)).map_or(0.0, |s| s.p50)
}

// ---------------------------------------------------------------------
// Per workload
// ---------------------------------------------------------------------

fn trace_zone_steady(
    outcome: &mut Outcome,
    log: &mut SpanLog,
    plan: &Plan,
    model: &ScalabilityModel,
) {
    let seed = Workload::ZoneSteady.seed(plan.seed);
    let mut run = ZoneSteady::setup(seed, model.clone());
    run_untimed(&mut run, plan.warmup);
    let untraced = run_window(&mut run, plan.limit.scaled(SHARE_UNTRACED));
    let violations_before = run.cluster.violations();
    let spanned = run_spanned(&mut run, plan.limit.scaled(SHARE_STEP), log, "sim.step");
    report_steps(outcome, &untraced, &spanned);
    report_cluster_counters(outcome, &run.cluster, violations_before, 0);
    outcome.layer(
        "sim.unhomed_user_ticks",
        run.tally.unhomed_user_ticks as f64,
        0,
    );

    let round_us = trace_group(outcome, log, plan, seed, ZONE_REPLICAS, ZONE_USERS);
    outcome.layer(
        "sim.cluster_overhead_us",
        untraced.tick_ms_p50() * 1e3 - round_us,
        untraced.ticks(),
    );

    // The same deployment with the operator's telemetry tiers on: ring
    // tracer, flight recorder, frozen reference model for attribution.
    let mut tiers = ZoneSteady::setup(seed, model.clone());
    let (tracer, _ring) = Tracer::ring(65_536);
    tiers.cluster.set_tracer(tracer);
    let flight_dir = crate::out_dir().join(format!("flight-{}", std::process::id()));
    tiers.cluster.arm_flight(FlightConfig::new(&flight_dir));
    tiers.cluster.set_reference_model(tiers.model.clone());
    run_untimed(&mut tiers, plan.warmup);
    let on = run_window(&mut tiers, plan.limit.scaled(SHARE_SIDE));
    let _ = std::fs::remove_dir_all(&flight_dir);
    outcome.layer(
        "obs.tier_overhead_ratio",
        on.tick_ms_p50() / untraced.tick_ms_p50().max(f64::MIN_POSITIVE),
        on.ticks(),
    );
}

fn trace_multizone(
    outcome: &mut Outcome,
    log: &mut SpanLog,
    plan: &Plan,
    model: &ScalabilityModel,
) {
    let seed = Workload::MultizoneFanout.seed(plan.seed);
    let mut run = MultizoneFanout::setup(seed, fanout_threads(), model.clone());
    let untraced = run_window(&mut run, plan.limit.scaled(SHARE_UNTRACED));
    let violations_before = run.world.violations();
    let spanned = run_spanned(&mut run, plan.limit.scaled(SHARE_STEP), log, "sim.step");
    report_steps(outcome, &untraced, &spanned);
    let violations = run.world.violations() - violations_before;
    outcome.layer("sim.violations", violations as f64, 0);
    outcome.failed = violations;
    drop(run);

    // Fan-out speed-up: the same world on every core against one worker
    // thread. With one core there is nothing to fan out over and no claim
    // to make.
    if nproc() > 1 {
        let rate = |threads| {
            let mut world = MultizoneFanout::setup(seed, threads, model.clone());
            let window = run_window(&mut world, plan.limit.scaled(SHARE_SIDE));
            (window.rate_per_s(), window.ticks())
        };
        let (wide, ticks) = rate(nproc());
        let (serial, _) = rate(1);
        outcome.layer(
            "sim.fanout_speedup",
            wide / serial.max(f64::MIN_POSITIVE),
            ticks,
        );
    }

    // One zone's group, the shape the ramp leaves: two replicas.
    trace_group(
        outcome,
        log,
        plan,
        seed,
        MZ_REPLICAS_PER_ZONE,
        MZ_USERS_PER_ZONE,
    );
}

fn trace_churn(outcome: &mut Outcome, log: &mut SpanLog, plan: &Plan, model: &ScalabilityModel) {
    let seed = Workload::ChurnFullStack.seed(plan.seed);
    let mut run = ChurnFullStack::setup(seed, model.clone());
    run_untimed(&mut run, plan.warmup);
    let untraced = run_window(&mut run, plan.limit.scaled(SHARE_UNTRACED));
    let violations_before = run.cluster.violations();
    let migrations_before = run.cluster.total_migrations();
    let unhomed_before = run.tally.unhomed_user_ticks;
    let events_before = ring_events(&run);
    // The budget the group would get goes to the churn loop itself: its
    // population cycle needs the ticks.
    let spanned = run_spanned(
        &mut run,
        plan.limit.scaled(SHARE_STEP + SHARE_GROUP),
        log,
        "sim.drive_and_step",
    );
    report_steps(outcome, &untraced, &spanned);
    report_cluster_counters(outcome, &run.cluster, violations_before, migrations_before);
    outcome.layer(
        "sim.unhomed_user_ticks",
        (run.tally.unhomed_user_ticks - unhomed_before) as f64,
        0,
    );
    outcome.layer(
        "obs.events_per_tick",
        (ring_events(&run) - events_before) as f64 / spanned.ticks().max(1) as f64,
        spanned.ticks(),
    );
    outcome.layer(
        "obs.ring_dropped",
        run.ring.lock().map_or(0, |r| r.dropped()) as f64,
        0,
    );
    outcome.layer("autocal.refits", run.cluster.refit_log().len() as f64, 0);
}

/// Events the churn run's ring sink has seen (retained + dropped).
fn ring_events(run: &ChurnFullStack) -> u64 {
    run.ring.lock().map_or(0, |r| r.len() as u64 + r.dropped())
}

/// `sim.violations`, `sim.migrations` and the controller's action counts.
fn report_cluster_counters(
    outcome: &mut Outcome,
    cluster: &roia_sim::Cluster,
    violations_before: u64,
    migrations_before: u64,
) {
    let violations = cluster.violations() - violations_before;
    outcome.layer("sim.violations", violations as f64, 0);
    outcome.layer(
        "sim.migrations",
        (cluster.total_migrations() - migrations_before) as f64,
        0,
    );
    outcome.failed = violations;
    if let Some(log) = cluster.action_log() {
        let retried = log.entries().iter().filter(|e| e.attempt > 0).count();
        let failed =
            log.count_outcome(ActionOutcome::Failed) + log.count_outcome(ActionOutcome::TimedOut);
        outcome.layer("rms.actions_issued", log.entries().len() as f64, 0);
        outcome.layer("rms.actions_retried", retried as f64, 0);
        outcome.layer("rms.actions_failed", failed as f64, 0);
    }
}

fn trace_session<S: Transport, C: Transport>(
    outcome: &mut Outcome,
    log: &mut SpanLog,
    plan: &Plan,
    setup: impl FnOnce() -> SessionRun<S, C>,
) {
    let mut run = setup();
    run.join_and_warm_up(plan.warmup);
    let limit = plan.limit.scaled(SHARE_SESSION);
    run.start_window();
    let untraced = run_window(&mut run, plan.limit.scaled(SHARE_UNTRACED));

    run.start_window();
    let stats_before = run.server.stats();
    let inputs_before = run.total_inputs_sent();
    // The session driver records its own spans (round → client ticks,
    // server tick); lend it the log for the window.
    run.spans = Some(std::mem::replace(log, SpanLog::with_capacity(0)));
    let spanned = run_window(&mut run, limit);
    *log = run.spans.take().expect("the log was lent above");
    let verdict = run.finish(inputs_before);

    let rounds = spanned.ticks();
    outcome.ticks = rounds;
    outcome.window_s = spanned.seconds();
    outcome.attempted = verdict.inputs_sent;
    outcome.failed =
        verdict.unacked + verdict.desyncs + verdict.bad_frames + verdict.unclean_closes;
    outcome.check(
        verdict.desyncs == 0 && verdict.mirror_mismatches == 0,
        || {
            format!(
                "{} desyncs, {} mirror mismatches",
                verdict.desyncs, verdict.mirror_mismatches
            )
        },
    );
    outcome.layer(
        "harness.trace_overhead_ratio",
        spanned.tick_ms_p50() / untraced.tick_ms_p50().max(f64::MIN_POSITIVE),
        rounds,
    );
    outcome.layer(
        "harness.generator_share",
        run.client_ns as f64 / (spanned.seconds() * 1e9).max(1.0),
        rounds,
    );

    let durations = |name: &str| -> Vec<u64> {
        log.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns())
            .collect()
    };
    let server_ns = durations("transport.server_tick");
    let server_ticks = server_ns.len() as u64;
    if let Some(s) = stats::summarize(&mut scaled(&server_ns, 1e3)) {
        outcome.layer("transport.server_tick_us_p50", s.p50, server_ticks);
    }
    if let Some(p99) = trusted_quantile(scaled(&server_ns, 1e3), 0.99) {
        outcome.layer("transport.server_tick_us_p99", p99, server_ticks);
    }
    let client_ns = durations("transport.client_tick");
    let client_ticks = client_ns.len() as u64;
    outcome.layer(
        "transport.client_tick_ns",
        client_ns.iter().sum::<u64>() as f64 / client_ticks.max(1) as f64,
        client_ticks,
    );
    if let Some(s) = run.ack_ns.summarize(1e3) {
        outcome.layer("transport.input_to_ack_us_p50", s.p50, run.ack_ns.seen());
    }
    outcome.layer(
        "transport.egress_bytes_per_tick",
        run.egress_bytes as f64 / rounds.max(1) as f64,
        rounds,
    );
    // Entries actually sent, from the wire's own constants: every snapshot
    // frame is overhead plus its entries (removals are rare and count as
    // part of the overhead's error).
    let per_snapshot = SNAPSHOT_OVERHEAD_BYTES + FRAME_OVERHEAD;
    let entries = run
        .egress_bytes
        .saturating_sub(run.snapshots * per_snapshot)
        / ENTITY_STATE_BYTES;
    let keyframe_entries = run.snapshots * run.server.world().len() as u64;
    outcome.layer(
        "transport.delta_entry_ratio",
        entries as f64 / keyframe_entries.max(1) as f64,
        run.snapshots,
    );
    let stats = run.server.stats();
    outcome.layer(
        "transport.keyframes_sent",
        (stats.keyframes_sent - stats_before.keyframes_sent) as f64,
        0,
    );
    outcome.layer(
        "transport.snapshot_skips",
        (stats.snapshot_skips - stats_before.snapshot_skips) as f64,
        0,
    );
    outcome.layer(
        "transport.bp_peer_ticks",
        (stats.bp_peer_ticks - stats_before.bp_peer_ticks) as f64,
        0,
    );
    let hits = stats.rewind_hits - stats_before.rewind_hits;
    let misses = stats.rewind_misses - stats_before.rewind_misses;
    if hits + misses > 0 {
        outcome.layer(
            "transport.rewind_hit_ratio",
            hits as f64 / (hits + misses) as f64,
            hits + misses,
        );
    }
}
