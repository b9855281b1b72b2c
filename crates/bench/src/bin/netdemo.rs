//! `netdemo` — wire-level validation of the Eq. (1) serialization terms
//! over real sockets.
//!
//! Starts a real [`rtf_transport::tcp::TcpServerTransport`] session on
//! localhost, connects `--clients` socket bots (one OS thread each, real
//! non-blocking TCP through the full prediction/reconciliation client),
//! and measures the server's wire egress over a `--ticks` window. The
//! measurement is compared against the analytic per-tick serialization
//! volume predicted by `roia_model::bandwidth::BandwidthParams` built
//! from the protocol's byte constants:
//!
//! ```text
//! predicted = n · (SNAPSHOT_OVERHEAD + FRAME_OVERHEAD + n · ENTITY_STATE)
//! ```
//!
//! (each of the `n` clients receives one snapshot per tick carrying ~`n`
//! entity entries, because every bot paces one input per received
//! snapshot and every applied input marks its entity changed).
//!
//! The run fails (exit 1) if any invariant is violated — a bot desyncs,
//! a connection drops unexpectedly, the server sees a corrupt frame —
//! or if measured and predicted egress disagree by more than
//! `--tolerance` (default 15%).
//!
//! Flags beyond the common set: `--clients N` (default 64), `--tick-ms M`
//! (default 5), `--tolerance PCT` (default 15). Writes
//! `BENCH_transport.json` (override with `--json`).

use roia_bench::{cli, json};
use roia_model::bandwidth::BandwidthParams;
use roia_model::tick::ZoneLoad;
use roia_model::CostFn;
use roia_obs::{MetricKey, MetricsRegistry};
use rtf_transport::proto::{
    ENTITY_STATE_BYTES, INPUT_MSG_BYTES, NO_TARGET, SNAPSHOT_OVERHEAD_BYTES,
};
use rtf_transport::session::{
    ClientNetStats, ClientSession, ClientState, InputCmd, ServerSession, SessionConfig,
};
use rtf_transport::tcp::{TcpClientTransport, TcpConfig, TcpServerTransport};
use rtf_transport::{Transport, FRAME_OVERHEAD};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tiny xorshift so bots are seeded deterministically without pulling a
/// stateful RNG into every thread.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

struct BotOutcome {
    stats: ClientNetStats,
    clean_exit: bool,
}

fn run_bot(
    addr: std::net::SocketAddr,
    user: u64,
    seed: u64,
    stop: Arc<AtomicBool>,
    outcomes: Arc<Mutex<Vec<BotOutcome>>>,
) {
    let transport =
        TcpClientTransport::connect_retry(addr, TcpConfig::default(), Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("bot {user}: connect {addr}: {e}"));
    let mut session = ClientSession::new(
        transport,
        user,
        SessionConfig::default(),
        roia_obs::Tracer::disabled(),
    );
    let mut rng = XorShift::new(seed ^ user.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // One input owed per snapshot received: bots keep exact pace with the
    // server's update rate, which is what the Eq. (1) prediction assumes.
    let mut owed: u64 = 0;
    let mut next_input: Option<InputCmd> = None;
    while !stop.load(Ordering::Relaxed) {
        let applied = session.tick(next_input.take());
        owed += u64::from(applied);
        if session.state() == ClientState::Closed {
            break;
        }
        if session.state() == ClientState::Welcomed && owed > 0 {
            owed -= 1;
            let r = rng.next();
            // Mostly walk; occasionally swing at the nearest entity (the
            // respawn teleports exercise reconciliation corrections).
            let attack = if r.is_multiple_of(16) {
                nearest_other(&session, user).unwrap_or(NO_TARGET)
            } else {
                NO_TARGET
            };
            next_input = Some(InputCmd {
                dx: ((r >> 8) % 3) as i8 - 1,
                dy: ((r >> 16) % 3) as i8 - 1,
                attack,
            });
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    let clean = session.state() != ClientState::Closed;
    if clean {
        session.bye();
    }
    if let Ok(mut o) = outcomes.lock() {
        o.push(BotOutcome {
            stats: session.net_stats(),
            clean_exit: clean,
        });
    }
}

fn nearest_other(session: &ClientSession<TcpClientTransport>, user: u64) -> Option<u64> {
    let (px, py) = session.predicted_pos();
    session
        .auth_world()
        .iter()
        .filter(|(id, _)| **id != user)
        .min_by_key(|(_, e)| {
            let dx = i64::from(e.x) - i64::from(px);
            let dy = i64::from(e.y) - i64::from(py);
            dx.abs().max(dy.abs())
        })
        .map(|(id, _)| *id)
}

fn main() {
    let mut clients: u64 = 64;
    let mut tick_ms: u64 = 5;
    let mut tolerance_pct: u64 = 15;
    let args = cli::parse_with(|flag, value| match flag {
        "--clients" => {
            clients = value("--clients")
                .parse()
                .expect("--clients needs a number");
            true
        }
        "--tick-ms" => {
            tick_ms = value("--tick-ms")
                .parse()
                .expect("--tick-ms needs a number");
            true
        }
        "--tolerance" => {
            tolerance_pct = value("--tolerance")
                .parse()
                .expect("--tolerance needs a number (percent)");
            true
        }
        _ => false,
    });
    let ticks = args.ticks.unwrap_or(200);
    let seed = args.seed.unwrap_or(42);
    let tracer = cli::tracer(args.trace.as_deref());

    let server_transport =
        TcpServerTransport::bind("127.0.0.1:0", TcpConfig::default()).expect("bind localhost");
    let addr = server_transport.local_addr().expect("local addr");
    let mut server = ServerSession::new(server_transport, SessionConfig::default(), tracer);
    println!("netdemo: {clients} socket bots -> {addr}, {ticks} ticks @ {tick_ms}ms over real TCP");

    let stop = Arc::new(AtomicBool::new(false));
    let outcomes: Arc<Mutex<Vec<BotOutcome>>> = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let stop = stop.clone();
            let outcomes = outcomes.clone();
            std::thread::spawn(move || run_bot(addr, i + 1, seed, stop, outcomes))
        })
        .collect();

    // Warmup: tick at the configured cadence until every bot is spawned
    // into the world and snapshots are flowing.
    let tick_period = Duration::from_millis(tick_ms.max(1));
    let warmup_deadline = Instant::now() + Duration::from_secs(30);
    while (server.world().len() as u64) < clients {
        server.tick();
        std::thread::sleep(tick_period);
        assert!(
            Instant::now() < warmup_deadline,
            "warmup timed out: only {}/{clients} bots joined",
            server.world().len()
        );
    }
    // A few settle ticks so every bot has its first keyframe and the
    // input pipeline is primed.
    for _ in 0..32 {
        server.tick();
        std::thread::sleep(tick_period);
    }

    // Measurement window.
    server.transport_mut().reset_stats();
    let stats_before = server.stats();
    let mut metrics = MetricsRegistry::new();
    let egress_key = MetricKey::plain("netdemo_egress_bytes_per_tick");
    let ingress_key = MetricKey::plain("netdemo_ingress_bytes_per_tick");
    let window_start = Instant::now();
    for _ in 0..ticks {
        let next = Instant::now() + tick_period;
        let report = server.tick();
        metrics.record(egress_key, report.egress_bytes);
        metrics.record(ingress_key, report.ingress_bytes);
        let now = Instant::now();
        if now < next {
            std::thread::sleep(next - now);
        }
    }
    let window_secs = window_start.elapsed().as_secs_f64();
    let window = server.transport().total_stats();
    let window_server_stats = {
        let after = server.stats();
        let before = stats_before;
        (
            after.inputs_applied - before.inputs_applied,
            after.snapshots_sent - before.snapshots_sent,
            after.keyframes_sent - before.keyframes_sent,
            after.snapshot_skips - before.snapshot_skips,
        )
    };

    // Wind down: stop the bots, drain their goodbyes.
    stop.store(true, Ordering::Relaxed);
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    while server.peer_count() > 0 && Instant::now() < drain_deadline {
        server.tick();
        std::thread::sleep(tick_period);
    }
    server.shutdown();
    for h in handles {
        let _ = h.join();
    }
    let outcomes = Arc::try_unwrap(outcomes)
        .map(|m| m.into_inner().unwrap_or_default())
        .unwrap_or_default();

    // Eq. (1) serialization volume from the protocol's byte constants:
    // one snapshot per client per tick, ~n entity entries each.
    let n = clients as u32;
    let bandwidth = BandwidthParams {
        client_in_per_user: CostFn::Constant((INPUT_MSG_BYTES + FRAME_OVERHEAD) as f64),
        client_out_per_user: CostFn::Linear {
            c0: (SNAPSHOT_OVERHEAD_BYTES + FRAME_OVERHEAD) as f64,
            c1: ENTITY_STATE_BYTES as f64,
        },
        peer_out_per_active: CostFn::Constant(0.0),
    };
    let load = ZoneLoad {
        replicas: 1,
        users: n,
        npcs: 0,
    };
    let predicted = bandwidth.bytes_out_per_tick(load);
    let measured = window.bytes_out as f64 / ticks as f64;
    let rel_err = (measured - predicted).abs() / predicted;
    // How many users a 100 Mbit/s egress link would admit at this tick
    // rate, per Eq. (1)'s bandwidth cap — the wire-level n_max.
    let cap_bytes_per_tick = 100e6 / 8.0 * (tick_ms as f64 / 1e3);
    let n_max_bw = bandwidth.n_max_bandwidth(1, cap_bytes_per_tick);

    let (inputs_applied, snapshots_sent, keyframes_sent, snapshot_skips) = window_server_stats;
    let mut desyncs = 0u64;
    let mut corrections = 0u64;
    let mut unclean_exits = 0u64;
    for o in &outcomes {
        desyncs += o.stats.desyncs;
        corrections += o.stats.corrections;
        if !o.clean_exit {
            unclean_exits += 1;
        }
    }
    let bots_reporting = outcomes.len() as u64;
    let bad_frames = server.stats().bad_frames;
    let violations = desyncs + unclean_exits + bad_frames + (clients - bots_reporting);

    let egress_snap = metrics
        .histogram(egress_key)
        .map(|h| h.snapshot())
        .unwrap_or_default();
    println!("measurement window: {ticks} ticks in {window_secs:.2}s");
    println!(
        "server egress: measured {measured:.0} B/tick vs predicted {predicted:.0} B/tick \
         (error {:.1}%)",
        rel_err * 1e2
    );
    println!(
        "egress/tick histogram: p50={} p90={} p99={} max={}",
        egress_snap.p50, egress_snap.p90, egress_snap.p99, egress_snap.max
    );
    println!(
        "window: {inputs_applied} inputs applied, {snapshots_sent} snapshots \
         ({keyframes_sent} keyframes, {snapshot_skips} backpressure skips)"
    );
    println!(
        "clients: {bots_reporting}/{clients} reported, {corrections} reconcile corrections, \
         {desyncs} desyncs, {unclean_exits} unclean exits, {bad_frames} bad frames"
    );
    println!(
        "eq1 bandwidth cap: 100 Mbit/s egress admits n_max={n_max_bw} users at {tick_ms}ms ticks \
         (running {n})"
    );
    println!("invariant_violations: {violations}");

    let within = rel_err <= tolerance_pct as f64 / 1e2;
    let doc = json::object(&[
        ("experiment", json::string("netdemo")),
        ("transport", json::string("tcp")),
        ("clients", json::uint(clients)),
        ("ticks", json::uint(ticks)),
        ("tick_ms", json::uint(tick_ms)),
        ("seed", json::uint(seed)),
        ("measured_bytes_per_tick", json::num(measured)),
        ("predicted_bytes_per_tick", json::num(predicted)),
        ("relative_error", json::num(rel_err)),
        ("tolerance", json::num(tolerance_pct as f64 / 1e2)),
        (
            "within_tolerance",
            json::string(if within { "true" } else { "false" }),
        ),
        ("egress_p50", json::uint(egress_snap.p50)),
        ("egress_p90", json::uint(egress_snap.p90)),
        ("egress_p99", json::uint(egress_snap.p99)),
        ("egress_max", json::uint(egress_snap.max)),
        ("bytes_in_total", json::uint(window.bytes_in)),
        ("bytes_out_total", json::uint(window.bytes_out)),
        ("frames_out_total", json::uint(window.frames_out)),
        ("inputs_applied", json::uint(inputs_applied)),
        ("snapshots_sent", json::uint(snapshots_sent)),
        ("keyframes_sent", json::uint(keyframes_sent)),
        ("backpressure_skips", json::uint(snapshot_skips)),
        ("reconcile_corrections", json::uint(corrections)),
        ("desyncs", json::uint(desyncs)),
        ("cap_bytes_per_tick", json::num(cap_bytes_per_tick)),
        ("n_max_bandwidth", json::uint(u64::from(n_max_bw))),
        ("invariant_violations", json::uint(violations)),
    ]);
    cli::write_json_doc(args.json.as_deref(), Some("BENCH_transport.json"), &doc);
    cli::write_metrics(args.metrics.as_deref(), &metrics);

    if violations > 0 {
        eprintln!("FAIL: {violations} invariant violation(s)");
        std::process::exit(1);
    }
    if !within {
        eprintln!(
            "FAIL: measured egress off by {:.1}% (> {tolerance_pct}%)",
            rel_err * 1e2
        );
        std::process::exit(1);
    }
    println!("netdemo OK: wire-level egress matches Eq. (1) within {tolerance_pct}%");
}
