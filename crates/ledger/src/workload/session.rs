//! The two session workloads: `session_bus_256` and `session_tcp_2` — the
//! same `ServerSession`/`ClientSession` code over the in-process bus
//! transport and over loopback TCP, in single-thread lock-step.

use super::{
    new_outcome, push_common_metrics, run_untimed, run_window, timed_setup, Driver, Plan,
    SplitMix64, Window, Workload, MAX_SAMPLES,
};
use crate::ack::AckTracker;
use crate::report::{Metric, Outcome};
use crate::span::SpanLog;
use crate::stats::{Fnv, Strided};
use roia_obs::Tracer;
use roia_sim::default_demo_model;
use rtf_net::Bus;
use rtf_transport::bus::{BusClientTransport, BusServerTransport};
use rtf_transport::proto::NO_TARGET;
use rtf_transport::session::{
    ClientSession, ClientState, InputCmd, ServerSession, SessionConfig, TickReport,
};
use rtf_transport::tcp::{TcpClientTransport, TcpConfig, TcpServerTransport};
use rtf_transport::Transport;
use std::time::Instant;

/// Clients of `session_bus_256`.
pub const BUS_CLIENTS: u64 = 256;
/// Connections of `session_tcp_2`: the generator is capped at `nproc`
/// OS connections, 2 on the reference box.
pub const TCP_CLIENTS: u64 = 2;
/// One input in this many attacks the nearest entity.
const ATTACK_ONE_IN: u64 = 16;
/// Rounds allowed for every client to be welcomed.
const JOIN_ROUNDS: u64 = 64;
/// Input-free rounds at the end, so the last acks and deltas land.
const DRAIN_ROUNDS: u64 = 4;
/// Rounds allowed for the goodbyes to reach the server.
const BYE_ROUNDS: u64 = 64;

/// A server session and its clients in lock-step on one thread.
pub struct SessionRun<S: Transport, C: Transport> {
    /// Advanced each round when the transport is the in-process bus.
    bus: Option<Bus>,
    /// The authoritative half.
    pub server: ServerSession<S>,
    /// The predicting halves, user ids `1..=n`.
    pub clients: Vec<ClientSession<C>>,
    trackers: Vec<AckTracker>,
    inputs: Vec<Option<InputCmd>>,
    rng: SplitMix64,
    clock: Instant,
    round: u64,
    /// Whether clients submit inputs (off while joining and draining).
    pub playing: bool,
    /// Input→ack latencies, nanoseconds (a strided subsample).
    pub ack_ns: Strided,
    /// FNV-1a over the server's per-round reports.
    pub digest: Fnv,
    /// Σ `TickReport.egress_bytes`.
    pub egress_bytes: u64,
    /// Σ `TickReport.ingress_bytes`.
    pub ingress_bytes: u64,
    /// Σ `TickReport.snapshots_sent`.
    pub snapshots: u64,
    /// Most inputs any client had in flight after a tick.
    pub max_in_flight: usize,
    /// Host nanoseconds inside client ticks (the generator's share).
    pub client_ns: u64,
    /// Spans of the traced run; `None` in the untraced one.
    pub spans: Option<SpanLog>,
}

/// `session_bus_256`'s run type.
pub type BusRun = SessionRun<BusServerTransport, BusClientTransport>;
/// `session_tcp_2`'s run type.
pub type TcpRun = SessionRun<TcpServerTransport, TcpClientTransport>;

impl BusRun {
    /// Server and `clients` clients on one deterministic bus.
    pub fn setup_bus(seed: u64, clients: u64) -> Self {
        let bus = Bus::new();
        let transport = BusServerTransport::register(&bus, "server");
        let node = transport.node_id();
        let cfg = SessionConfig::default();
        let server = ServerSession::new(transport, cfg, Tracer::disabled());
        let clients = (1..=clients)
            .map(|user| {
                let transport = BusClientTransport::connect(&bus, &format!("client-{user}"), node);
                ClientSession::new(transport, user, cfg, Tracer::disabled())
            })
            .collect();
        Self::assemble(Some(bus), server, clients, seed)
    }
}

impl TcpRun {
    /// Server and `clients` clients over 127.0.0.1, every socket polled
    /// from the calling thread.
    pub fn setup_tcp(seed: u64, clients: u64) -> Self {
        let transport = TcpServerTransport::bind("127.0.0.1:0", TcpConfig::default())
            .expect("bind an ephemeral loopback port");
        let addr = transport
            .local_addr()
            .expect("bound listener has an address");
        let cfg = SessionConfig::default();
        let server = ServerSession::new(transport, cfg, Tracer::disabled());
        let clients = (1..=clients)
            .map(|user| {
                // The listener's backlog completes the handshake, so the
                // blocking connect returns before the server polls.
                let transport = TcpClientTransport::connect(addr, TcpConfig::default())
                    .expect("connect to the loopback listener");
                ClientSession::new(transport, user, cfg, Tracer::disabled())
            })
            .collect();
        Self::assemble(None, server, clients, seed)
    }
}

impl<S: Transport, C: Transport> SessionRun<S, C> {
    fn assemble(
        bus: Option<Bus>,
        server: ServerSession<S>,
        clients: Vec<ClientSession<C>>,
        seed: u64,
    ) -> Self {
        let n = clients.len();
        Self {
            bus,
            server,
            clients,
            trackers: (0..n).map(|_| AckTracker::default()).collect(),
            inputs: vec![None; n],
            rng: SplitMix64::new(seed),
            clock: Instant::now(),
            round: 0,
            playing: false,
            ack_ns: Strided::with_capacity(MAX_SAMPLES),
            digest: Fnv::default(),
            egress_bytes: 0,
            ingress_bytes: 0,
            snapshots: 0,
            max_in_flight: 0,
            client_ns: 0,
            spans: None,
        }
    }

    /// Rounds without inputs until every client is welcomed, then
    /// `warmup` rounds of play.
    pub fn join_and_warm_up(&mut self, warmup: u64) {
        let mut rounds = 0;
        while !self.all_welcomed() {
            assert!(
                rounds < JOIN_ROUNDS,
                "clients not welcomed after {JOIN_ROUNDS} rounds"
            );
            run_untimed(self, 1);
            rounds += 1;
        }
        self.playing = true;
        run_untimed(self, warmup);
    }

    fn all_welcomed(&self) -> bool {
        self.clients
            .iter()
            .all(|c| c.state() == ClientState::Welcomed)
    }

    /// Zeroes what the timed window accumulates.
    pub fn start_window(&mut self) {
        self.digest = Fnv::default();
        self.egress_bytes = 0;
        self.ingress_bytes = 0;
        self.snapshots = 0;
        self.client_ns = 0;
        self.ack_ns = Strided::with_capacity(MAX_SAMPLES);
    }

    /// The entity nearest to `client`'s predicted position, itself aside.
    fn nearest_other(client: &ClientSession<C>) -> u64 {
        let (px, py) = client.predicted_pos();
        client
            .auth_world()
            .iter()
            .filter(|(id, _)| **id != client.user())
            .min_by_key(|(_, e)| {
                let dx = i64::from(e.x) - i64::from(px);
                let dy = i64::from(e.y) - i64::from(py);
                dx.abs().max(dy.abs())
            })
            .map_or(NO_TARGET, |(id, _)| *id)
    }
}

impl<S: Transport, C: Transport> Driver for SessionRun<S, C> {
    type Out = TickReport;

    /// Draws every client's input for the round from the seeded stream.
    fn prepare(&mut self) {
        for (slot, client) in self.inputs.iter_mut().zip(&self.clients) {
            *slot = self.playing.then(|| {
                let r = self.rng.next_u64();
                InputCmd {
                    dx: ((r >> 8) % 3) as i8 - 1,
                    dy: ((r >> 16) % 3) as i8 - 1,
                    attack: if r.is_multiple_of(ATTACK_ONE_IN) {
                        Self::nearest_other(client)
                    } else {
                        NO_TARGET
                    },
                }
            });
        }
    }

    /// One lock-step round: deliver, every client ticks with its input,
    /// the server ticks. The clock read after each client tick feeds the
    /// input→ack tracker (one extra read per client per round).
    fn tick(&mut self) -> TickReport {
        self.round += 1;
        let round = self.round;
        let round_span = self
            .spans
            .as_mut()
            .map(|log| log.enter("harness.round", round));
        if let Some(bus) = &self.bus {
            bus.advance(round);
        }
        let mut before = self.clock.elapsed().as_nanos() as u64;
        let clients_from = before;
        for ((client, tracker), input) in self
            .clients
            .iter_mut()
            .zip(&mut self.trackers)
            .zip(&self.inputs)
        {
            let sent_before = client.net_stats().inputs_sent;
            let span = self
                .spans
                .as_mut()
                .map(|log| log.enter("transport.client_tick", round));
            client.tick(*input);
            if let (Some(log), Some(id)) = (self.spans.as_mut(), span) {
                log.exit(id);
            }
            let after = self.clock.elapsed().as_nanos() as u64;
            let pending = client.pending_inputs();
            tracker.on_tick(
                before,
                client.net_stats().inputs_sent > sent_before,
                pending,
                after,
                &mut self.ack_ns,
            );
            self.max_in_flight = self.max_in_flight.max(pending);
            before = after;
        }
        self.client_ns += before - clients_from;
        let span = self
            .spans
            .as_mut()
            .map(|log| log.enter("transport.server_tick", round));
        let report = self.server.tick();
        if let (Some(log), Some(id)) = (self.spans.as_mut(), span) {
            log.exit(id);
        }
        if let (Some(log), Some(id)) = (self.spans.as_mut(), round_span) {
            log.exit(id);
        }
        report
    }

    fn account(&mut self, report: TickReport) -> u64 {
        for word in [
            report.egress_bytes,
            report.ingress_bytes,
            u64::from(report.inputs_applied),
            u64::from(report.snapshots_sent),
        ] {
            self.digest.write(word);
        }
        self.egress_bytes += report.egress_bytes;
        self.ingress_bytes += report.ingress_bytes;
        self.snapshots += u64::from(report.snapshots_sent);
        self.clients.len() as u64
    }
}

/// What the end-of-run checks found.
#[derive(Debug, Default, Clone, Copy)]
pub struct SessionVerdict {
    /// Inputs sent during the window.
    pub inputs_sent: u64,
    /// Inputs still unacked after the drain rounds.
    pub unacked: u64,
    /// Σ client `desyncs`.
    pub desyncs: u64,
    /// Server `bad_frames`.
    pub bad_frames: u64,
    /// Clients whose connection closed before they said goodbye, plus
    /// goodbyes the server never saw.
    pub unclean_closes: u64,
    /// Clients whose mirror differs from the server's world.
    pub mirror_mismatches: u64,
    /// FNV-1a over the server's final world.
    pub world_digest: u64,
}

impl<S: Transport, C: Transport> SessionRun<S, C> {
    /// Drains, compares every client's mirror with the server's world,
    /// then closes every connection politely and checks the server saw
    /// them go. `inputs_before` is Σ `inputs_sent` when the window began.
    pub fn finish(&mut self, inputs_before: u64) -> SessionVerdict {
        let inputs_sent = self.total_inputs_sent() - inputs_before;
        self.playing = false;
        run_untimed(self, DRAIN_ROUNDS);
        let mut verdict = SessionVerdict {
            inputs_sent,
            bad_frames: self.server.stats().bad_frames,
            ..SessionVerdict::default()
        };
        let mut world = Fnv::default();
        for (id, e) in self.server.world() {
            for word in [*id, e.x as u64, e.y as u64, e.health as u64] {
                world.write(word);
            }
        }
        verdict.world_digest = world.finish();
        for client in &self.clients {
            verdict.unacked += client.pending_inputs() as u64;
            verdict.desyncs += client.net_stats().desyncs;
            if client.state() != ClientState::Welcomed {
                verdict.unclean_closes += 1;
            } else if client.auth_world() != self.server.world() {
                verdict.mirror_mismatches += 1;
            }
        }
        let closed_before = self.server.stats().peers_closed;
        let mut leaving = 0;
        for client in &mut self.clients {
            if client.state() == ClientState::Welcomed {
                client.bye();
                leaving += 1;
            }
        }
        let mut rounds = 0;
        while self.server.peer_count() > 0 && rounds < BYE_ROUNDS {
            if let Some(bus) = &self.bus {
                bus.advance(self.round + rounds + 1);
            }
            self.server.tick();
            rounds += 1;
        }
        let seen = self.server.stats().peers_closed - closed_before;
        verdict.unclean_closes += leaving - seen.min(leaving);
        self.server.shutdown();
        verdict
    }

    /// Σ `inputs_sent` over the clients.
    pub fn total_inputs_sent(&self) -> u64 {
        self.clients.iter().map(|c| c.net_stats().inputs_sent).sum()
    }
}

/// Fills `outcome` from a finished session window.
fn report_session<S: Transport, C: Transport>(
    outcome: &mut Outcome,
    run: &SessionRun<S, C>,
    window: &Window,
    verdict: &SessionVerdict,
) {
    let ack = run.ack_ns.summarize(1e3);
    outcome.end_to_end.push(match ack {
        Some(s) => Metric::new("input_to_ack_us_p50", "us", s.p50, run.ack_ns.seen()),
        None => Metric::absent("input_to_ack_us_p50", "us"),
    });
    outcome.end_to_end.push(Metric::new(
        "wire_bytes_per_user_tick",
        "B",
        run.egress_bytes as f64 / window.total_work().max(1) as f64,
        0,
    ));
    outcome.check(verdict.desyncs == 0, || {
        format!("{} client desyncs", verdict.desyncs)
    });
    outcome.check(verdict.mirror_mismatches == 0, || {
        format!(
            "{} clients do not mirror the server's world",
            verdict.mirror_mismatches
        )
    });
    outcome.check(verdict.unclean_closes == 0, || {
        format!("{} unclean closes", verdict.unclean_closes)
    });
    outcome.check(verdict.bad_frames == 0, || {
        format!("{} bad frames", verdict.bad_frames)
    });
    outcome.attempted = verdict.inputs_sent;
    outcome.failed =
        verdict.unacked + verdict.desyncs + verdict.bad_frames + verdict.unclean_closes;
    let stats = run.server.stats();
    let c = &mut outcome.counters;
    c.insert("state_digest".into(), verdict.world_digest);
    c.insert("round_digest".into(), run.digest.finish());
    c.insert("bytes_out".into(), run.egress_bytes);
    c.insert("bytes_in".into(), run.ingress_bytes);
    c.insert("msgs_out".into(), run.snapshots);
    c.insert("msgs_in".into(), verdict.inputs_sent);
    c.insert("transport.keyframes_sent".into(), stats.keyframes_sent);
    c.insert("transport.snapshot_skips".into(), stats.snapshot_skips);
    c.insert("max_in_flight".into(), run.max_in_flight as u64);
}

fn run_session<S: Transport, C: Transport>(
    workload: Workload,
    plan: &Plan,
    mut setup: impl FnMut(u64) -> SessionRun<S, C>,
) -> Outcome {
    let seed = workload.seed(plan.seed);
    let (mut run, setup_s) = timed_setup(plan.setup_reps, || {
        // Set-up is a deployment's start: it calibrates the scalability
        // model like every other workload's, although the session server
        // is not managed by it yet (ROADMAP item 2). Beside keeping
        // `setup_s` one quantity across workloads, this lifts the two
        // session processes out of the range (≈ 4 MiB, 3 ms) where
        // `peak_rss_mb` and `setup_s` were mostly address-layout and timer
        // noise.
        drop(default_demo_model());
        let mut run = setup(seed);
        run.join_and_warm_up(plan.warmup);
        run
    });
    run.start_window();
    let inputs_before = run.total_inputs_sent();
    let window = run_window(&mut run, plan.limit);
    let verdict = run.finish(inputs_before);

    let mut outcome = new_outcome(workload, plan);
    push_common_metrics(&mut outcome, &window, setup_s);
    report_session(&mut outcome, &run, &window, &verdict);
    outcome
}

/// Runs `session_bus_256` untraced.
pub fn run_session_bus(plan: &Plan) -> Outcome {
    run_session(Workload::SessionBus256, plan, |seed| {
        BusRun::setup_bus(seed, BUS_CLIENTS)
    })
}

/// Runs `session_tcp_2` untraced.
pub fn run_session_tcp(plan: &Plan) -> Outcome {
    run_session(Workload::SessionTcp2, plan, |seed| {
        TcpRun::setup_tcp(seed, TCP_CLIENTS)
    })
}
