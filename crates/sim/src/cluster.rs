//! The multi-server session driver.
//!
//! A [`Cluster`] wires the full stack together in one process: RTFDemo
//! servers replicating a zone over the `rtf-net` bus, bot-driven clients,
//! the resource pool, and (optionally) an RTF-RMS controller whose actions
//! it executes — booting replicas, pacing migrations, substituting and
//! removing machines. One [`Cluster::step`] is one 40 ms tick of the whole
//! deployment.
//!
//! The driver is hardened against the faults a [`FaultPlan`] injects:
//! every controller action is executed fallibly and its
//! [`ActionOutcome`] reported back; users orphaned by a crash (or starved
//! by an isolated/lossy path) are re-homed by a supervisor with
//! exponential backoff rather than instantly; a repair sweep removes
//! duplicate and ghost avatars that fault races leave behind; and an
//! optional invariant checker ([`Cluster::set_debug_checks`]) asserts
//! population conservation and no-migration-into-dead-nodes every tick.

use crate::chaos::{ChaosEngine, Fault, FaultPlan, Revert};
#[cfg(feature = "strict-invariants")]
use crate::invariants::TraceAuditor;
use crate::invariants::{self, PopulationView};
use crate::parallel;
use roia_autocal::{OnlineCalibrator, PublishOutcome, RefitReport};
use roia_model::ScalabilityModel;
use roia_obs::slo::{
    SLO_BACKPRESSURE, SLO_INVARIANTS, SLO_JOIN_SHED, SLO_TICK_BUDGET, SLO_TICK_P99,
};
use roia_obs::{
    secs_to_micros, AttributionAccumulator, FlightConfig, FlightRecorder, MetricKey,
    MetricsRegistry, RingSink, SloEngine, SloTransition, TraceEvent, Tracer,
};
use roia_rng::{Rng, Xoshiro256pp};
use rtf_core::client::{Client, ClientState};
use rtf_core::net::{Bus, NodeId};
use rtf_core::rows::{self, Row};
use rtf_core::timer::TaskKind;
use rtf_core::zone::ZoneId;
use rtf_core::UserId;
use rtf_core::{Server, ServerConfig};
use rtf_core::{TickRecord, RETAINED_TICKS};
use rtf_rms::{
    Action, ActionId, ActionOutcome, Admission, BootEvent, ControllerConfig, LeaseId,
    MachineProfile, Policy, ResourcePool, RmsController, ServerSnapshot, ZoneSnapshot,
};
use rtfdemo::{Bot, BotBehavior, CostModel, CostRates, RtfDemoApp, World};
use std::collections::{BTreeMap, BTreeSet};

/// Ticks without a single state update before the stall watchdog hands a
/// client to the re-home supervisor (4 s at 25 Hz).
const STALL_TICKS: u64 = 100;
/// Base backoff between re-home attempts; doubles per attempt.
const REHOME_BACKOFF_TICKS: u64 = 25;
/// Backoff stops growing after this many doublings (25 << 4 = 400 ticks).
const MAX_BACKOFF_SHIFT: u32 = 4;
/// Monitoring window for controller snapshots, in ticks (one second).
const MONITOR_WINDOW: usize = 25;
const _: () = assert!(
    MONITOR_WINDOW <= RETAINED_TICKS,
    "the monitoring window must fit in a server's retained tick log"
);
/// Queued joins admitted per tick once the controller leaves degraded
/// mode — a bounded drain so a backlog does not re-trigger overload.
const JOIN_QUEUE_DRAIN: u32 = 4;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// RNG seed for bots and cost noise.
    pub seed: u64,
    /// The arena.
    pub world: World,
    /// NPCs in the zone (0 in the paper's experiments).
    pub npcs: u32,
    /// Relative measurement noise of the virtual cost model.
    pub cost_noise: f64,
    /// Cost rates of the standard machine.
    pub rates: CostRates,
    /// Bot behaviour.
    pub bots: BotBehavior,
    /// Server tick interval (seconds).
    pub tick_interval: f64,
    /// The resource pool.
    pub pool: ResourcePool,
    /// Worker threads for the server/client tick phases. `1` runs them
    /// serially; any value produces byte-identical traces (see
    /// [`crate::parallel`] for the determinism argument).
    pub threads: usize,
    /// How many of the initial replicas boot on [`MachineProfile::POWERFUL`]
    /// machines (clamped to the initial server count). Heterogeneous
    /// scenarios start with a mixed fleet instead of growing into one.
    pub initial_powerful: u32,
    /// Schedule-permutation seed for the parallel fan-out. `0` (the
    /// default) runs the natural production schedule; any other value
    /// perturbs worker spawn order, per-chunk walk order and preemption
    /// points each tick. Traces must stay byte-identical for every value
    /// — the property the `schedule_stress` harness sweeps.
    pub schedule_seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            world: World::default(),
            npcs: 0,
            cost_noise: 0.08,
            rates: CostRates::default(),
            bots: BotBehavior::default(),
            tick_interval: 0.040,
            pool: ResourcePool::testbed(),
            threads: 1,
            initial_powerful: 0,
            schedule_seed: 0,
        }
    }
}

/// How the cluster answered one [`Cluster::request_join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOutcome {
    /// Connected immediately.
    Admitted(UserId),
    /// Held in the join queue until capacity recovers.
    Queued,
    /// Turned away (queue full, or nowhere to place the user).
    Shed,
}

struct ServerHandle {
    server: Server<RtfDemoApp>,
    lease: LeaseId,
    speedup: f64,
}

impl Row for ServerHandle {
    type Key = NodeId;
    fn key(&self) -> NodeId {
        self.server.id()
    }
}

/// A user's client + bot pair, opaque to callers; returned by
/// [`Cluster::extract_client`] and accepted by [`Cluster::adopt_client`]
/// for state-preserving hand-over between deployments sharing a bus.
pub struct ClientHandle {
    client: Client,
    bot: Bot,
    /// Updates seen at the last watchdog check, and when progress was last
    /// observed — the stall watchdog's state.
    last_updates: u64,
    last_progress_tick: u64,
}

impl ClientHandle {
    /// The user this handle belongs to.
    pub fn user(&self) -> UserId {
        self.client.user()
    }
}

/// Re-home supervision state of one user.
#[derive(Debug, Clone, Copy)]
struct Rehome {
    attempts: u32,
    next_attempt: u64,
}

/// How the cluster executed one controller action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionExec {
    /// Took effect synchronously.
    Done,
    /// A machine was leased; the outcome arrives when it boots (or fails
    /// to).
    Booting(LeaseId),
    /// Refused: out of capacity, dead/suspect target, or invalid plan.
    Rejected,
}

/// Per-tick aggregate statistics (the Fig. 8 series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterTickStats {
    /// Tick number.
    pub tick: u64,
    /// Connected users.
    pub users: u32,
    /// Serving replicas.
    pub servers: u32,
    /// Mean CPU load across replicas (tick duration / tick interval).
    pub avg_cpu_load: f64,
    /// Worst tick duration across replicas (seconds).
    pub max_tick_duration: f64,
    /// Whether any replica violated the threshold this tick.
    pub violation: bool,
    /// Users not active on any replica (orphaned or mid-re-home).
    pub unhomed: u32,
    /// NPCs in the zone this tick (regime shifts change it mid-session).
    pub npcs: u32,
    /// Version of the calibration model in force this tick. A live
    /// calibrator reports its registry version (the seed model is `1`);
    /// a frozen reference model — and no model at all — report `0`.
    pub model_version: u64,
    /// Worst model-predicted tick duration across replicas (Eq. 4 with the
    /// tick's observed `l`, `n`, `m`, `a`); `0.0` without a model. Compare
    /// with `max_tick_duration` to see the prediction error live.
    pub predicted_tick: f64,
}

/// The running deployment.
pub struct Cluster {
    config: ClusterConfig,
    bus: Bus,
    zone: ZoneId,
    /// The replicas as [`rows`] by node id: bus ids only grow, so booting
    /// appends in order and a lookup is a binary search.
    servers: Vec<ServerHandle>,
    clients: BTreeMap<UserId, ClientHandle>,
    controller: Option<RmsController>,
    pool: ResourcePool,
    pending_replicas: Vec<LeaseId>,
    pending_substitutions: Vec<(LeaseId, NodeId)>,
    substituting: Vec<(NodeId, NodeId)>,
    /// Ledger ids awaiting a boot outcome, by lease.
    lease_actions: BTreeMap<LeaseId, ActionId>,
    /// Outcomes observed between control rounds, delivered at the next one.
    pending_reports: Vec<(ActionId, ActionOutcome)>,
    tick: u64,
    next_user: u64,
    pending_connects: BTreeMap<NodeId, u32>,
    orphans: Vec<UserId>,
    rehoming: BTreeMap<UserId, Rehome>,
    /// Replicas considered unreliable (currently: isolated by chaos) —
    /// excluded from placement, migration targets and snapshots.
    suspects: BTreeSet<NodeId>,
    chaos: Option<ChaosEngine>,
    /// Online calibration engine; fed every tick record when attached.
    autocal: Option<OnlineCalibrator>,
    /// Frozen model used only to annotate stats with predictions when no
    /// calibrator is attached (the static arm of recalibration studies).
    reference_model: Option<ScalabilityModel>,
    /// Refit attempts the calibrator made, in order.
    refit_log: Vec<RefitReport>,
    debug_checks: bool,
    /// Stream-invariant auditor teed onto the tracer under strict mode
    /// (Eq. 5 budget caps, ledger legality, audit linkage).
    #[cfg(feature = "strict-invariants")]
    auditor: std::sync::Arc<std::sync::Mutex<TraceAuditor>>,
    /// Users this deployment should be serving (add/remove/adopt/extract
    /// accounting) — the conservation baseline for the invariant checker.
    expected_users: u64,
    rng: Xoshiro256pp,
    violations: u64,
    /// Migrations initiated by servers that have since been removed or
    /// crashed, so the lifetime total never goes backwards.
    retired_migrations: u64,
    u_threshold: f64,
    /// Telemetry tracer threaded through servers, controller and chaos.
    tracer: Tracer,
    /// Operator-facing metrics: per-server tick-duration histograms,
    /// population gauges, lifecycle counters.
    metrics: MetricsRegistry,
    /// Reused per-tick: the concatenated active-user lists of every
    /// server (the unhomed merge walk).
    active_scratch: Vec<UserId>,
    /// Reused per-tick: the tick-duration samples batched into the
    /// unlabelled latency histogram.
    micros_scratch: Vec<u64>,
    /// Joins held back by degraded-mode admission control, waiting for
    /// capacity to recover. Anonymous until admitted: a queued join has
    /// no `UserId` and no client yet, so it can never violate user
    /// conservation (I1).
    queued_joins: u32,
    /// Joins turned away outright (queue full or no placement target).
    shed_joins: u64,
    /// Degraded flag observed at the last reconcile — transition edges
    /// apply/restore AoI fidelity on every live replica exactly once.
    degraded_prev: bool,
    /// Always-on SLO engine: multi-window burn-rate objectives fed one
    /// sample per server-tick; transitions become trace events, pages
    /// trigger postmortem dumps.
    slo: SloEngine,
    /// Streaming per-term residual fold: observed per-task seconds vs the
    /// in-force model's Eq. (4) term predictions.
    attrib: AttributionAccumulator,
    /// Flight recorder teed onto the tracer when armed
    /// ([`Cluster::arm_flight`]); dumps a postmortem bundle on SLO pages,
    /// degraded-mode entry and invariant violations.
    flight: Option<std::sync::Arc<std::sync::Mutex<FlightRecorder>>>,
    /// Join-admission attempts seen since the last step (SLO feed).
    join_attempts_tick: u32,
    /// Joins shed since the last step (SLO feed).
    join_sheds_tick: u32,
}

/// Ticks between flight-recorder metrics snapshots (5 s at 25 Hz). The
/// postmortem bundle carries the latest snapshot, so the cadence bounds
/// how stale its metrics view can be.
const FLIGHT_METRICS_CADENCE: u64 = 125;

/// Per-server trace buffer capacity during a fanned-out tick. A server
/// emits one `TickSpan` per tick today; the headroom absorbs future
/// per-tick events without eviction.
const TICK_TRACE_BUFFER: usize = 64;

impl Cluster {
    /// Creates a cluster with `initial_servers` standard replicas of one
    /// zone and no controller (attach one with
    /// [`Cluster::set_controller`]).
    pub fn new(config: ClusterConfig, initial_servers: u32) -> Self {
        Self::new_on_bus(Bus::new(), ZoneId(1), config, initial_servers)
    }

    /// Creates a cluster whose servers and clients live on an externally
    /// provided bus — deployments of *different zones* sharing one bus can
    /// hand users over with full state (cross-zone migration).
    pub fn new_on_bus(bus: Bus, zone: ZoneId, config: ClusterConfig, initial_servers: u32) -> Self {
        assert!(initial_servers >= 1);
        let mut cluster = Self {
            pool: config.pool.clone(),
            rng: Xoshiro256pp::seed_from_u64(config.seed),
            config,
            bus,
            zone,
            servers: Vec::new(),
            clients: BTreeMap::new(),
            controller: None,
            pending_replicas: Vec::new(),
            pending_substitutions: Vec::new(),
            substituting: Vec::new(),
            lease_actions: BTreeMap::new(),
            pending_reports: Vec::new(),
            tick: 0,
            next_user: 1,
            pending_connects: BTreeMap::new(),
            orphans: Vec::new(),
            rehoming: BTreeMap::new(),
            suspects: BTreeSet::new(),
            chaos: None,
            autocal: None,
            reference_model: None,
            refit_log: Vec::new(),
            debug_checks: false,
            #[cfg(feature = "strict-invariants")]
            auditor: std::sync::Arc::new(std::sync::Mutex::new(TraceAuditor::new())),
            expected_users: 0,
            retired_migrations: 0,
            violations: 0,
            u_threshold: 0.040,
            tracer: Tracer::disabled(),
            metrics: MetricsRegistry::new(),
            active_scratch: Vec::new(),
            micros_scratch: Vec::new(),
            queued_joins: 0,
            shed_joins: 0,
            degraded_prev: false,
            slo: SloEngine::standard(),
            attrib: AttributionAccumulator::default(),
            flight: None,
            join_attempts_tick: 0,
            join_sheds_tick: 0,
        };
        cluster.arm_strict_auditor();
        let powerful = cluster.config.initial_powerful.min(initial_servers);
        for i in 0..initial_servers {
            let profile = if i < powerful {
                MachineProfile::POWERFUL
            } else {
                MachineProfile::STANDARD
            };
            let lease = cluster
                .pool
                .request(profile, 0)
                // lint: allow(panic, "construction-time config validation: the pool is sized from the same config, before any tick runs")
                .expect("initial capacity");
            // Initial machines are ready immediately.
            cluster.pool.poll_ready(u64::MAX >> 1);
            cluster.boot_server(lease, profile);
        }
        cluster
    }

    /// Attaches an RTF-RMS controller, its action timeout fitted to the
    /// cluster's pool ([`RmsController::match_pool`]).
    pub fn set_controller(&mut self, policy: Box<dyn Policy>, config: ControllerConfig) {
        let mut controller = RmsController::new(policy, config);
        controller.match_pool(&self.pool);
        if self.tracer.is_enabled() {
            controller.set_tracer(self.tracer.clone());
        }
        self.controller = Some(controller);
    }

    /// Installs a telemetry tracer on the whole deployment: every live and
    /// future server emits tick spans, the controller (if attached now or
    /// later) emits its decision audit trail, and the cluster itself emits
    /// fault, lifecycle, migration and refit events. Install it before
    /// [`Cluster::run`] for a complete trace; installing mid-session picks
    /// up from the current tick.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        self.arm_strict_auditor();
        if let Some(recorder) = &self.flight {
            let sink: std::sync::Arc<std::sync::Mutex<dyn roia_obs::TraceSink>> = recorder.clone();
            self.tracer = self.tracer.tee_with(sink);
        }
        self.propagate_tracer();
    }

    /// Re-hands the current tracer to the controller, servers and
    /// calibrator after it was rebuilt (new sink, new tee).
    fn propagate_tracer(&mut self) {
        if let Some(controller) = self.controller.as_mut() {
            controller.set_tracer(self.tracer.clone());
        }
        let now = self.tick;
        for handle in &mut self.servers {
            // Offset local tick 0 to sim time: the server has produced
            // `latest().tick + 1` records so far.
            let local = handle
                .server
                .metrics()
                .latest()
                .map(|r| r.tick + 1)
                .unwrap_or(0);
            handle
                .server
                .set_tracer(self.tracer.clone(), now.saturating_sub(local));
        }
        if let Some(cal) = self.autocal.as_ref() {
            cal.registry().set_tracer(self.tracer.clone());
        }
    }

    /// Arms the flight recorder: a bounded ring of recent trace events and
    /// `Decision` records teed onto the tracer (alongside whatever sink the
    /// operator configured), plus periodic metrics snapshots. On an SLO
    /// page burn, a degraded-mode entry or an invariant violation the ring
    /// is dumped as a deterministic postmortem bundle under the recorder's
    /// directory and a `PostmortemDumped` event marks the trace.
    pub fn arm_flight(&mut self, config: FlightConfig) {
        let recorder = std::sync::Arc::new(std::sync::Mutex::new(FlightRecorder::new(config)));
        let sink: std::sync::Arc<std::sync::Mutex<dyn roia_obs::TraceSink>> = recorder.clone();
        self.flight = Some(recorder);
        self.tracer = self.tracer.tee_with(sink);
        self.propagate_tracer();
    }

    /// The armed flight recorder, if any.
    pub fn flight(&self) -> Option<&std::sync::Arc<std::sync::Mutex<FlightRecorder>>> {
        self.flight.as_ref()
    }

    /// Dumps a postmortem bundle (best-effort, budgeted) and emits the
    /// marker event. No-op without an armed recorder.
    fn flight_dump(&self, cause: u64, reason: &'static str) {
        let Some(recorder) = &self.flight else {
            return;
        };
        let version = self.autocal.as_ref().map(|c| c.version()).unwrap_or(0);
        // Snapshot under the lock, write the bundle and emit the marker
        // after releasing it: the filesystem I/O must not run with the
        // guard held, and the marker event flows back into the recorder
        // through the tee (the mutex is not reentrant).
        let bundle = recorder
            .lock() // lint: allow(hot_lock, "postmortem trigger: fires at most max_dumps times per session, never on the healthy tick path")
            .ok()
            .and_then(|mut rec| rec.prepare_dump(self.tick, cause, reason, version));
        if let Some(bundle) = bundle {
            if bundle.write().is_ok() {
                self.tracer.emit(bundle.into_marker());
            }
        }
    }

    /// Feeds the transport backpressure duty-cycle objective: `congested`
    /// of `total` transport server ticks spent with at least one peer
    /// under backpressure (see `rtf_transport`'s `backpressure_duty`).
    /// Called by harnesses that pair the cluster with real transport
    /// sessions; the objective stays silent otherwise.
    pub fn observe_backpressure(&mut self, congested: u64, total: u64) {
        self.slo.observe(SLO_BACKPRESSURE, congested, total);
    }

    /// The per-term attribution fold accumulated so far (empty until a
    /// calibrator or reference model is attached).
    pub fn attribution(&self) -> &AttributionAccumulator {
        &self.attrib
    }

    /// Tees the stream-invariant auditor onto the current tracer so it
    /// observes the same events the operator records. No-op without the
    /// `strict-invariants` feature.
    #[cfg(feature = "strict-invariants")]
    fn arm_strict_auditor(&mut self) {
        let sink: std::sync::Arc<std::sync::Mutex<dyn roia_obs::TraceSink>> = self.auditor.clone();
        self.tracer = self.tracer.tee_with(sink);
    }

    #[cfg(not(feature = "strict-invariants"))]
    fn arm_strict_auditor(&mut self) {}

    /// The operator-facing metrics registry (tick-duration histograms,
    /// population gauges, lifecycle counters). Export with
    /// [`MetricsRegistry::prometheus`] or [`MetricsRegistry::to_json`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The tick-duration threshold used for violation accounting.
    pub fn set_threshold(&mut self, u_threshold: f64) {
        self.u_threshold = u_threshold;
    }

    /// Arms a fault plan: ambient link loss/jitter and boot failures apply
    /// immediately, scheduled faults fire as their ticks arrive.
    pub fn set_chaos(&mut self, plan: FaultPlan) {
        self.bus.set_fault_seed(plan.seed);
        self.bus
            .set_link_faults(plan.link_loss, plan.link_jitter_ticks);
        self.pool
            .set_boot_failures(plan.boot_failure_rate, plan.seed);
        self.chaos = Some(ChaosEngine::new(plan));
    }

    /// Disarms fault injection and heals every ambient and timed fault
    /// (isolations lift, stragglers recover, links become reliable).
    pub fn clear_chaos(&mut self) {
        if let Some(mut engine) = self.chaos.take() {
            for revert in engine.drain_reverts() {
                self.apply_revert(revert);
            }
        }
        self.bus.set_link_faults(0.0, 0);
        self.pool.set_boot_failures(0.0, 0);
        for id in std::mem::take(&mut self.suspects) {
            self.bus.set_isolated(id, false);
        }
    }

    /// Attaches an online calibrator: every server tick record is streamed
    /// into it, refits run on its cadence/drift schedule, and per-tick
    /// stats carry the registry version and the live model's tick
    /// prediction. Pair it with a live policy
    /// (`ModelDriven::live(cluster_calibrator.registry(), ..)`) to close
    /// the loop.
    pub fn set_autocal(&mut self, calibrator: OnlineCalibrator) {
        if self.tracer.is_enabled() {
            calibrator.registry().set_tracer(self.tracer.clone());
        }
        self.autocal = Some(calibrator);
    }

    /// The attached calibrator, if any.
    pub fn autocal(&self) -> Option<&OnlineCalibrator> {
        self.autocal.as_ref()
    }

    /// Annotates per-tick stats with a *frozen* model's predictions — the
    /// static-calibration arm of a recalibration study. Ignored while a
    /// calibrator is attached (the live model wins).
    pub fn set_reference_model(&mut self, model: ScalabilityModel) {
        self.reference_model = Some(model);
    }

    /// Every refit attempt the calibrator made so far, in order.
    pub fn refit_log(&self) -> &[RefitReport] {
        &self.refit_log
    }

    /// Swaps the behaviour of every connected bot (and of bots connecting
    /// later) — a mid-session workload regime shift, e.g. a patch that
    /// doubles attack frequency.
    pub fn set_bot_behavior(&mut self, behavior: BotBehavior) {
        self.config.bots = behavior;
        for handle in self.clients.values_mut() {
            handle.bot.set_behavior(behavior);
        }
    }

    /// Repopulates every replica's zone with `count` NPCs — the other half
    /// of a regime shift (a content event spawning an NPC surge). New
    /// replicas booted later inherit the new count.
    pub fn set_npc_population(&mut self, count: u32) {
        self.config.npcs = count;
        for handle in &mut self.servers {
            handle.server.app_mut().set_npc_count(count);
        }
    }

    /// Scales every per-unit cost rate by `factor` (> 0) on every live
    /// replica and in the config used for future boots — the third leg of
    /// a regime shift (a patch makes each interaction heavier). Relative
    /// machine speedups are preserved.
    pub fn scale_cost_rates(&mut self, factor: f64) {
        self.config.rates = self.config.rates.scaled(factor);
        for handle in &mut self.servers {
            handle.server.app_mut().scale_cost_rates(factor);
        }
    }

    /// Enables the per-tick invariant checker (panics on violation). Meant
    /// for tests: it asserts population conservation, no duplicate or
    /// ghost avatars after the repair sweep, valid substitution targets,
    /// and that every unhomed user is under supervision.
    pub fn set_debug_checks(&mut self, on: bool) {
        self.debug_checks = on;
    }

    /// Current tick.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Connected user count.
    pub fn user_count(&self) -> u32 {
        self.clients.len() as u32
    }

    /// The users currently driven by this deployment.
    pub fn users(&self) -> Vec<UserId> {
        self.clients.keys().copied().collect()
    }

    /// Sets the id the next [`Cluster::add_user`] will use — deployments
    /// sharing a bus must use disjoint id ranges.
    pub fn set_next_user_id(&mut self, next: u64) {
        self.next_user = self.next_user.max(next);
    }

    /// Serving replica count.
    pub fn server_count(&self) -> u32 {
        self.servers.len() as u32
    }

    /// Total threshold violations observed (server-ticks over U).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The controller's action log, if a controller is attached.
    pub fn action_log(&self) -> Option<&rtf_rms::ActionLog> {
        self.controller.as_ref().map(|c| c.log())
    }

    /// Users currently under re-home supervision.
    pub fn supervised_count(&self) -> usize {
        self.rehoming.len()
    }

    /// Replicas currently marked unreliable.
    pub fn suspect_count(&self) -> usize {
        self.suspects.len()
    }

    /// Total cloud cost accrued so far.
    pub fn total_cost(&self) -> f64 {
        self.pool.total_cost(self.tick)
    }

    /// Lifetime migrations executed by all servers, departed ones
    /// included.
    pub fn total_migrations(&self) -> u64 {
        let live: u64 = self
            .servers
            .iter()
            .map(|s| s.server.migration_counters().initiated)
            .sum();
        self.retired_migrations + live
    }

    /// Per-server (id, active users) pairs.
    pub fn server_loads(&self) -> Vec<(NodeId, u32)> {
        self.servers
            .iter()
            .map(|s| (s.server.id(), s.server.active_users()))
            .collect()
    }

    /// Access to one server's metrics (for measurement campaigns): its
    /// most recent [`RETAINED_TICKS`] tick records.
    ///
    /// Panics on an out-of-range index; campaigns index `0..server_count()`.
    pub fn server_metrics(&self, idx: usize) -> &rtf_core::MetricsLog {
        self.servers[idx].server.metrics()
    }

    /// Direct access to a server (measurement campaigns and tests).
    ///
    /// Panics on an out-of-range index; campaigns index `0..server_count()`.
    pub fn server(&self, idx: usize) -> &Server<RtfDemoApp> {
        // lint: allow(panic, "measurement/test accessor, never called from the tick loop; callers index 0..server_count()")
        &self.servers[idx].server
    }

    fn make_app(&mut self, speedup: f64) -> RtfDemoApp {
        // A faster machine divides every per-unit cost.
        let rates = self.config.rates.scaled(1.0 / speedup);
        let seed = self.rng.next_u64();
        let mut app = RtfDemoApp::new(
            self.config.world.clone(),
            self.config.npcs,
            CostModel::new(rates, self.config.cost_noise, seed),
        );
        // A replica booted mid-episode serves at the episode's fidelity
        // (1.0 outside degraded mode, so this is a no-op normally).
        if let Some(controller) = self.controller.as_ref() {
            app.set_aoi_scale(controller.aoi_fidelity());
        }
        app
    }

    fn boot_server(&mut self, lease: LeaseId, profile: MachineProfile) -> NodeId {
        let app = self.make_app(profile.speedup);
        let label = format!("server-{}", self.servers.len());
        let mut server = Server::new(&self.bus, &label, self.zone, app, ServerConfig::default());
        let id = server.id();
        if self.tracer.is_enabled() {
            server.set_tracer(self.tracer.clone(), self.tick);
            self.tracer.emit(TraceEvent::ServerBooted {
                tick: self.tick,
                server: id.0,
            });
        }
        self.metrics
            .add(MetricKey::plain("roia_servers_booted_total"), 1);
        debug_assert!(
            self.servers.last().is_none_or(|last| last.server.id() < id),
            "replicas in ascending node id order"
        );
        self.servers.push(ServerHandle {
            server,
            lease,
            speedup: profile.speedup,
        });
        self.refresh_peers();
        id
    }

    fn refresh_peers(&mut self) {
        let ids: Vec<NodeId> = self.servers.iter().map(|s| s.server.id()).collect();
        for handle in &mut self.servers {
            handle.server.set_peers(ids.clone());
        }
    }

    fn handle_mut(&mut self, id: NodeId) -> Option<&mut ServerHandle> {
        rows::find_mut(&mut self.servers, id)
    }

    /// Shuts a drained replica down.
    fn shutdown_server(&mut self, id: NodeId) -> bool {
        let drained = rows::find(&self.servers, id).is_some_and(|s| s.server.active_users() == 0);
        let event = TraceEvent::ServerRemoved {
            tick: self.tick,
            server: id.0,
        };
        drained
            && self
                .retire_server(id, event, "roia_servers_removed_total")
                .is_some()
    }

    /// Takes replica `id` out of the deployment — its lease, bus endpoint
    /// and place among its peers — then traces `event` and counts `metric`.
    /// `None` for an unknown id or the zone's last server.
    fn retire_server(
        &mut self,
        id: NodeId,
        event: TraceEvent,
        metric: &'static str,
    ) -> Option<ServerHandle> {
        let idx = rows::slot(&self.servers, id).ok();
        let handle = self.servers.remove(idx.filter(|_| self.servers.len() > 1)?);
        self.retired_migrations += handle.server.migration_counters().initiated;
        let _ = self.pool.release(handle.lease, self.tick);
        self.bus.unregister(id);
        self.refresh_peers();
        if self.tracer.is_enabled() {
            self.tracer.emit(event);
        }
        self.metrics.add(MetricKey::plain(metric), 1);
        Some(handle)
    }

    fn server_alive(&self, id: NodeId) -> bool {
        rows::slot(&self.servers, id).is_ok()
    }

    /// Id of the `nth % len` live server (chaos faults address servers by
    /// ordinal so plans stay valid as the fleet grows and shrinks).
    fn nth_server_id(&self, nth: usize) -> Option<NodeId> {
        if self.servers.is_empty() {
            return None;
        }
        self.servers
            .get(nth % self.servers.len())
            .map(|s| s.server.id())
    }

    /// Connects a new bot-driven user to the least loaded healthy server.
    ///
    /// Returns the new id, or `None` when no server exists to place it on
    /// (every replica crashed); no state changes in that case.
    pub fn add_user(&mut self) -> Option<UserId> {
        let target = self.placement_target()?;
        let user = UserId(self.next_user);
        let client = Client::connect(&self.bus, user, target).ok()?;
        self.next_user += 1;
        *self.pending_connects.entry(target).or_insert(0) += 1;
        let bot = Bot::new(user, self.config.seed, self.config.bots);
        self.clients.insert(
            user,
            ClientHandle {
                client,
                bot,
                last_updates: 0,
                last_progress_tick: self.tick,
            },
        );
        self.expected_users += 1;
        Some(user)
    }

    /// Least loaded non-suspect server, counting connects still in flight
    /// (so a burst of joins in one tick still spreads). Falls back to the
    /// suspects if nothing healthy serves.
    fn placement_target(&self) -> Option<NodeId> {
        let load_of = |s: &ServerHandle| {
            let id = s.server.id();
            s.server.active_users() + self.pending_connects.get(&id).copied().unwrap_or(0)
        };
        self.servers
            .iter()
            .filter(|s| !self.suspects.contains(&s.server.id()))
            .min_by_key(|s| load_of(s))
            .or_else(|| self.servers.iter().min_by_key(|s| load_of(s)))
            .map(|s| s.server.id())
    }

    /// Requests a join through the controller's admission control. In
    /// normal operation this is [`Cluster::add_user`]; while the
    /// controller is in degraded mode the join is queued (admitted later
    /// by a bounded drain, four a tick) or
    /// shed outright once the queue is full. Without a controller every
    /// join is admitted.
    pub fn request_join(&mut self) -> JoinOutcome {
        self.join_attempts_tick += 1;
        let now = self.tick;
        let verdict = match self.controller.as_mut() {
            Some(controller) => controller.admit_join(self.queued_joins, now),
            None => Admission::Admit,
        };
        match verdict {
            Admission::Admit => match self.add_user() {
                Some(user) => JoinOutcome::Admitted(user),
                None => {
                    // Every replica crashed: nowhere to place the user.
                    self.note_shed();
                    JoinOutcome::Shed
                }
            },
            Admission::Queue => {
                self.queued_joins += 1;
                self.metrics
                    .add(MetricKey::plain("roia_joins_queued_total"), 1);
                JoinOutcome::Queued
            }
            Admission::Shed => {
                self.note_shed();
                JoinOutcome::Shed
            }
        }
    }

    fn note_shed(&mut self) {
        self.join_sheds_tick += 1;
        self.shed_joins += 1;
        self.metrics
            .add(MetricKey::plain("roia_joins_shed_total"), 1);
    }

    /// A departure under admission control: a still-queued join gives up
    /// first (returning `None` — it never had a `UserId`); otherwise the
    /// most recently connected user disconnects.
    pub fn request_leave(&mut self) -> Option<UserId> {
        if self.queued_joins > 0 {
            self.queued_joins -= 1;
            return None;
        }
        self.remove_user()
    }

    /// Joins currently held in the admission queue.
    pub fn queued_users(&self) -> u32 {
        self.queued_joins
    }

    /// Joins turned away since the session started.
    pub fn shed_users(&self) -> u64 {
        self.shed_joins
    }

    /// Disconnects the most recently added user; returns it.
    pub fn remove_user(&mut self) -> Option<UserId> {
        let user = *self.clients.keys().next_back()?;
        if let Some(mut handle) = self.clients.remove(&user) {
            handle.client.disconnect();
            self.expected_users = self.expected_users.saturating_sub(1);
        }
        self.rehoming.remove(&user);
        Some(user)
    }

    fn zone_snapshot(&self) -> ZoneSnapshot {
        ZoneSnapshot {
            zone: self.zone,
            npcs: self.config.npcs,
            servers: self
                .servers
                .iter()
                // Suspects are invisible to the policy: their metrics are
                // stale and placing users on them would strand traffic.
                .filter(|s| !self.suspects.contains(&s.server.id()))
                .map(|s| ServerSnapshot {
                    server: s.server.id(),
                    active_users: s.server.active_users(),
                    avg_tick: s.server.metrics().avg_tick_duration(MONITOR_WINDOW),
                    max_tick: s.server.metrics().max_tick_duration(MONITOR_WINDOW),
                    speedup: s.speedup,
                })
                .collect(),
        }
    }

    /// Schedules migrations, validating the plan first. Returns `false`
    /// (and schedules nothing) when the source is gone or the target is
    /// dead, suspect, or the source itself — a crashed controller plan
    /// must never strand users on a dead node.
    fn schedule_migrations(&mut self, from: NodeId, to: NodeId, count: u32) -> bool {
        if from == to || !self.server_alive(to) || self.suspects.contains(&to) {
            return false;
        }
        let Some(src) = self.handle_mut(from) else {
            return false;
        };
        let users: Vec<UserId> = src.server.users().take(count as usize).collect();
        for user in users {
            src.server.schedule_migration(user, to);
        }
        true
    }

    /// Directly schedules `count` migrations from one server to another,
    /// bypassing the controller (measurement campaigns and tests).
    pub fn execute_migration(&mut self, from: NodeId, to: NodeId, count: u32) {
        let _ = self.schedule_migrations(from, to, count);
    }

    /// Removes a user's client from this deployment WITHOUT disconnecting
    /// it — the first half of a cross-zone handover. The server-side state
    /// must be moved separately via [`Cluster::handover_user`].
    pub fn extract_client(&mut self, user: UserId) -> Option<ClientHandle> {
        let handle = self.clients.remove(&user);
        if handle.is_some() {
            self.expected_users = self.expected_users.saturating_sub(1);
            self.rehoming.remove(&user);
        }
        handle
    }

    /// Adopts a client extracted from another deployment (second half of a
    /// cross-zone handover).
    pub fn adopt_client(&mut self, mut handle: ClientHandle) {
        handle.last_progress_tick = self.tick;
        self.expected_users += 1;
        let twin = self.clients.insert(handle.user(), handle);
        debug_assert!(twin.is_none(), "adopted a user this cluster already has");
    }

    /// The least loaded healthy server, or `None` when every replica is
    /// suspect (nowhere sensible to place a user right now).
    pub fn least_loaded_server(&self) -> Option<NodeId> {
        self.servers
            .iter()
            .filter(|s| !self.suspects.contains(&s.server.id()))
            .min_by_key(|s| s.server.active_users())
            .map(|s| s.server.id())
    }

    /// Simulates a machine failure: the server vanishes without draining.
    /// Its users are orphaned; the re-home supervisor reconnects their
    /// clients to surviving replicas (fresh avatars — crashed state is
    /// lost, as on real hardware without checkpointing). Returns `false`
    /// for the last remaining server.
    pub fn crash_server(&mut self, id: NodeId) -> bool {
        let event = TraceEvent::ServerCrashed {
            tick: self.tick,
            server: id.0,
        };
        let Some(handle) = self.retire_server(id, event, "roia_servers_crashed_total") else {
            return false;
        };
        self.orphans.extend(handle.server.users());
        self.suspects.remove(&id);
        true
    }

    /// Initiates a state-preserving handover of `user` to a server of
    /// another deployment on the SAME bus: the owning server exports the
    /// avatar and redirects the client, exactly like an intra-zone
    /// migration (§III-B) — RTF's migration machinery is zone-agnostic.
    /// Returns `false` if the user is not active here.
    pub fn handover_user(&mut self, user: UserId, target: NodeId) -> bool {
        self.servers
            .iter_mut()
            .find(|s| s.server.users().any(|u| u == user))
            .map(|s| s.server.schedule_migration(user, target))
            .unwrap_or(false)
    }

    /// Executes one load-balancing action as the controller would, and
    /// says how it went — the controller's ledger needs to know.
    pub fn execute_action(&mut self, action: Action) -> ActionExec {
        match action {
            Action::Migrate { from, to, users } => {
                if self.schedule_migrations(from, to, users) {
                    ActionExec::Done
                } else {
                    ActionExec::Rejected
                }
            }
            Action::AddReplica { .. } => {
                match self.pool.request(MachineProfile::STANDARD, self.tick) {
                    Ok(lease) => {
                        self.pending_replicas.push(lease);
                        ActionExec::Booting(lease)
                    }
                    Err(_) => ActionExec::Rejected,
                }
            }
            Action::Substitute { old, .. } => {
                if !self.server_alive(old) {
                    return ActionExec::Rejected; // stale plan: target gone
                }
                match self.pool.request(MachineProfile::POWERFUL, self.tick) {
                    Ok(lease) => {
                        self.pending_substitutions.push((lease, old));
                        ActionExec::Booting(lease)
                    }
                    // OutOfCapacity = the paper's "critical user density":
                    // nothing more the generic strategies can do.
                    Err(_) => ActionExec::Rejected,
                }
            }
            Action::RemoveReplica { server, .. } => {
                if self.shutdown_server(server) {
                    ActionExec::Done
                } else {
                    ActionExec::Rejected
                }
            }
        }
    }

    fn report_lease(&mut self, lease: LeaseId, outcome: ActionOutcome) {
        if let Some(id) = self.lease_actions.remove(&lease) {
            self.pending_reports.push((id, outcome));
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    fn apply_chaos(&mut self) {
        let Some(mut engine) = self.chaos.take() else {
            return;
        };
        for revert in engine.due_reverts(self.tick) {
            self.apply_revert(revert);
        }
        for fault in engine.due_faults(self.tick) {
            self.apply_fault(fault, &mut engine);
        }
        if engine.sample_crash() && self.servers.len() > 1 {
            let idx = engine.pick(self.servers.len());
            if let Some(id) = self.servers.get(idx).map(|s| s.server.id()) {
                self.crash_server(id);
            }
        }
        self.chaos = Some(engine);
    }

    fn trace_fault(&mut self, fault: &'static str, server: i64) {
        if self.tracer.is_enabled() {
            self.tracer.emit(TraceEvent::FaultInjected {
                tick: self.tick,
                fault,
                server,
            });
        }
        self.metrics
            .add(MetricKey::plain("roia_faults_injected_total"), 1);
    }

    fn apply_fault(&mut self, fault: Fault, engine: &mut ChaosEngine) {
        match fault {
            Fault::CrashMostLoaded => {
                if let Some(id) = self
                    .servers
                    .iter()
                    .max_by_key(|s| s.server.active_users())
                    .map(|s| s.server.id())
                {
                    self.trace_fault("crash_most_loaded", id.0 as i64);
                    self.crash_server(id);
                }
            }
            Fault::CrashNth(nth) => {
                if let Some(id) = self.nth_server_id(nth) {
                    self.trace_fault("crash_nth", id.0 as i64);
                    self.crash_server(id);
                }
            }
            Fault::Isolate { nth, for_ticks } => {
                if let Some(id) = self.nth_server_id(nth) {
                    self.trace_fault("isolate", id.0 as i64);
                    self.bus.set_isolated(id, true);
                    self.suspects.insert(id);
                    engine.schedule_revert(self.tick + for_ticks, Revert::Unisolate(id));
                }
            }
            Fault::Straggle {
                nth,
                factor,
                for_ticks,
            } => {
                if let Some(id) = self.nth_server_id(nth) {
                    self.trace_fault("straggle", id.0 as i64);
                    if let Some(handle) = self.handle_mut(id) {
                        handle.server.app_mut().set_slowdown(factor.max(1.0));
                        engine.schedule_revert(self.tick + for_ticks, Revert::Unstraggle(id));
                    }
                }
            }
            Fault::SetBootFailureRate(rate) => {
                self.trace_fault("set_boot_failure_rate", -1);
                self.pool.set_boot_failures(rate, engine.plan().seed);
            }
            Fault::SetLinkLoss(loss) => {
                self.trace_fault("set_link_loss", -1);
                let jitter = engine.plan().link_jitter_ticks;
                self.bus.set_link_faults(loss, jitter);
            }
        }
    }

    fn apply_revert(&mut self, revert: Revert) {
        let (fault, server) = match revert {
            Revert::Unisolate(id) => ("unisolate", id),
            Revert::Unstraggle(id) => ("unstraggle", id),
        };
        if self.tracer.is_enabled() {
            self.tracer.emit(TraceEvent::FaultReverted {
                tick: self.tick,
                fault,
                server: server.0 as i64,
            });
        }
        match revert {
            Revert::Unisolate(id) => {
                self.bus.set_isolated(id, false);
                self.suspects.remove(&id);
            }
            Revert::Unstraggle(id) => {
                if let Some(handle) = self.handle_mut(id) {
                    handle.server.app_mut().set_slowdown(1.0);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Recovery machinery
    // ------------------------------------------------------------------

    /// Delivers boot events from the pool: successful machines join the
    /// deployment, failed boots are cleaned up and reported to the
    /// controller as [`ActionOutcome::Failed`].
    fn pump_boot_events(&mut self) {
        for event in self.pool.poll_boot(self.tick) {
            match event {
                BootEvent::Ready(machine) => {
                    if let Some(pos) = self
                        .pending_replicas
                        .iter()
                        .position(|l| *l == machine.lease)
                    {
                        self.pending_replicas.remove(pos);
                        self.boot_server(machine.lease, machine.profile);
                        self.report_lease(machine.lease, ActionOutcome::Succeeded);
                    } else if let Some(pos) = self
                        .pending_substitutions
                        .iter()
                        .position(|(l, _)| *l == machine.lease)
                    {
                        let (_, old) = self.pending_substitutions.remove(pos);
                        let new_id = self.boot_server(machine.lease, machine.profile);
                        // §IV: replicate the zone on the new resource and
                        // migrate ALL users of the substituted server to
                        // it. If `old` crashed while the machine booted,
                        // the new replica simply serves as extra capacity.
                        if self.server_alive(old) && old != new_id {
                            self.substituting.push((old, new_id));
                        }
                        self.report_lease(machine.lease, ActionOutcome::Succeeded);
                    } else {
                        // Nobody is waiting for this machine; hand it back.
                        let _ = self.pool.release(machine.lease, self.tick);
                    }
                }
                BootEvent::Failed { lease, .. } => {
                    self.pending_replicas.retain(|l| *l != lease);
                    self.pending_substitutions.retain(|(l, _)| *l != lease);
                    self.report_lease(lease, ActionOutcome::Failed);
                }
            }
        }
    }

    /// Progresses in-flight substitutions: drain the old machine, then
    /// shut it down. Pairs whose servers crashed mid-flight are dropped —
    /// the controller re-plans from live data instead of retrying ghosts.
    fn progress_substitutions(&mut self) {
        let subs = std::mem::take(&mut self.substituting);
        for (old, new) in subs {
            if !self.server_alive(new) || !self.server_alive(old) {
                continue;
            }
            let users = rows::find(&self.servers, old).map_or(0, |s| s.server.active_users());
            if users > 0 {
                if self.schedule_migrations(old, new, users) && self.tracer.is_enabled() {
                    // action_id 0: internally scheduled drain, not a
                    // ledger entry of its own.
                    self.tracer.emit(TraceEvent::MigrationPlanned {
                        tick: self.tick,
                        action_id: 0,
                        from: old.0,
                        to: new.0,
                        users,
                    });
                }
                self.substituting.push((old, new));
            } else if !self.shutdown_server(old) {
                // Retry next tick (e.g. in-flight migration data).
                self.substituting.push((old, new));
            }
        }
    }

    /// Whether `user`'s service looks healthy: active on exactly the
    /// (live, non-suspect) server its client points at.
    fn is_settled(&self, user: UserId) -> bool {
        let Some(handle) = self.clients.get(&user) else {
            return true;
        };
        match self
            .servers
            .iter()
            .find(|s| s.server.users().any(|u| u == user))
            .map(|s| s.server.id())
        {
            Some(on) => !self.suspects.contains(&on) && handle.client.server() == on,
            None => false,
        }
    }

    /// The re-home supervisor: crash orphans and stalled clients are
    /// reconnected to a healthy replica — first attempt immediately, then
    /// with exponential backoff while the problem persists, instead of
    /// hammering a struggling cluster every tick.
    fn supervise_users(&mut self) {
        // Discharge: settled users leave supervision immediately, so a
        // later fault re-enrolls them with a fresh retry schedule instead
        // of inheriting a stale backoff deadline.
        let settled: Vec<UserId> = self
            .rehoming
            .keys()
            .copied()
            .filter(|user| self.is_settled(*user))
            .collect();
        for user in settled {
            self.rehoming.remove(&user);
        }

        // Intake 1: users orphaned by a crash. A crash is a fresh incident:
        // it restarts the schedule even for an already-supervised user.
        for user in std::mem::take(&mut self.orphans) {
            if self.clients.contains_key(&user) {
                self.rehoming.insert(
                    user,
                    Rehome {
                        attempts: 0,
                        next_attempt: self.tick,
                    },
                );
            }
        }

        // Intake 2: stall watchdog. A client that has not seen a single
        // state update for STALL_TICKS is starving (isolated server, lost
        // redirect, dropped migration data) even if nothing crashed.
        let mut stalled = Vec::new();
        for (user, handle) in &mut self.clients {
            let updates = handle.client.stats().updates_received;
            if updates > handle.last_updates {
                handle.last_updates = updates;
                handle.last_progress_tick = self.tick;
            } else if self.tick.saturating_sub(handle.last_progress_tick) >= STALL_TICKS {
                stalled.push(*user);
            }
        }
        for user in stalled {
            self.rehoming.entry(user).or_insert(Rehome {
                attempts: 0,
                next_attempt: self.tick,
            });
        }

        // Pump: act on supervised users whose next attempt is due.
        let due: Vec<UserId> = self
            .rehoming
            .iter()
            .filter(|(_, r)| r.next_attempt <= self.tick)
            .map(|(u, _)| *u)
            .collect();
        for user in due {
            if !self.clients.contains_key(&user) {
                self.rehoming.remove(&user);
                continue;
            }
            if self.is_settled(user) {
                self.rehoming.remove(&user);
                continue;
            }
            let Some(target) = self.placement_target() else {
                // Nowhere healthy to go; check back soon.
                if let Some(r) = self.rehoming.get_mut(&user) {
                    r.next_attempt = self.tick + REHOME_BACKOFF_TICKS;
                }
                continue;
            };
            let Some(handle) = self.clients.get_mut(&user) else {
                self.rehoming.remove(&user); // client vanished; nothing to rehome
                continue;
            };
            handle.client.reconnect(target);
            handle.last_progress_tick = self.tick;
            *self.pending_connects.entry(target).or_insert(0) += 1;
            let Some(r) = self.rehoming.get_mut(&user) else {
                continue;
            };
            r.attempts += 1;
            r.next_attempt =
                self.tick + (REHOME_BACKOFF_TICKS << (r.attempts - 1).min(MAX_BACKOFF_SHIFT));
        }
    }

    /// Runs a control round: deliver buffered outcomes, let the controller
    /// decide, execute its actions and report synchronous results.
    fn control_round(&mut self) {
        let Some(mut controller) = self.controller.take() else {
            return;
        };
        for (id, outcome) in std::mem::take(&mut self.pending_reports) {
            controller.report(id, outcome, self.tick);
        }
        let snapshot = self.zone_snapshot();
        for issued in controller.control(&snapshot, self.tick) {
            match self.execute_action(issued.action) {
                ActionExec::Done => {
                    if self.tracer.is_enabled() {
                        if let Action::Migrate { from, to, users } = issued.action {
                            self.tracer.emit(TraceEvent::MigrationPlanned {
                                tick: self.tick,
                                action_id: issued.id.0,
                                from: from.0,
                                to: to.0,
                                users,
                            });
                        }
                    }
                    controller.report(issued.id, ActionOutcome::Succeeded, self.tick)
                }
                ActionExec::Rejected => {
                    controller.report(issued.id, ActionOutcome::Rejected, self.tick)
                }
                ActionExec::Booting(lease) => {
                    self.lease_actions.insert(lease, issued.id);
                }
            }
        }
        self.controller = Some(controller);
    }

    /// Propagates the controller's degraded-mode state into the zone:
    /// on an enter/exit edge every live replica's AoI fidelity is
    /// scaled/restored, and while healthy a bounded batch of queued
    /// joins is admitted per tick so the backlog cannot re-trigger the
    /// overload that caused it.
    fn reconcile_degraded(&mut self) {
        let Some(controller) = self.controller.as_ref() else {
            return;
        };
        let active = controller.degraded_mode_active();
        let fidelity = controller.aoi_fidelity();
        if active != self.degraded_prev {
            for handle in &mut self.servers {
                handle.server.app_mut().set_aoi_scale(fidelity);
            }
            if active {
                self.metrics
                    .add(MetricKey::plain("roia_degraded_entries_total"), 1);
                self.flight_dump(self.tick, "degraded");
            }
            self.degraded_prev = active;
        }
        if active {
            self.metrics
                .add(MetricKey::plain("roia_degraded_ticks_total"), 1);
        } else if self.queued_joins > 0 {
            let drain = JOIN_QUEUE_DRAIN.min(self.queued_joins);
            for _ in 0..drain {
                if self.add_user().is_some() {
                    self.queued_joins -= 1;
                } else {
                    break;
                }
            }
        }
        self.metrics.set(
            MetricKey::plain("roia_join_queue_depth"),
            i64::from(self.queued_joins),
        );
    }

    /// Removes avatar-table damage that fault races leave behind: a user
    /// active on two replicas (reconnect raced a migration) keeps the copy
    /// its client points at; an avatar whose user left the deployment is
    /// disconnected. Only runs in chaos/debug runs — cross-zone handovers
    /// legitimately leave "ghosts" mid-flight.
    fn repair_sweep(&mut self) {
        let mut locations: BTreeMap<UserId, Vec<usize>> = BTreeMap::new();
        for (idx, handle) in self.servers.iter().enumerate() {
            for user in handle.server.users() {
                locations.entry(user).or_default().push(idx);
            }
        }
        for (user, idxs) in locations {
            match self.clients.get(&user) {
                None => {
                    for idx in idxs {
                        if let Some(s) = self.servers.get_mut(idx) {
                            s.server.disconnect_user(user);
                        }
                    }
                }
                Some(handle) => {
                    if idxs.len() > 1 {
                        let preferred = handle.client.server();
                        let keep = idxs
                            .iter()
                            .copied()
                            .find(|i| {
                                self.servers
                                    .get(*i)
                                    .is_some_and(|s| s.server.id() == preferred)
                            })
                            .or_else(|| idxs.first().copied());
                        for idx in idxs {
                            if Some(idx) != keep {
                                if let Some(s) = self.servers.get_mut(idx) {
                                    s.server.disconnect_user(user);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Snapshots the cluster's structural state for the population half of
    /// the invariant oracle (see [`crate::invariants`]).
    fn population_view(&self) -> PopulationView {
        let mut client_ids = Vec::with_capacity(self.clients.len());
        let mut stalled_ticks = Vec::with_capacity(self.clients.len());
        let mut supervised_or_connecting = Vec::new();
        for (user, handle) in &self.clients {
            client_ids.push(user.0);
            stalled_ticks.push(self.tick.saturating_sub(handle.last_progress_tick));
            if self.rehoming.contains_key(user)
                || self.orphans.contains(user)
                || handle.client.state() == ClientState::Connecting
            {
                supervised_or_connecting.push(user.0);
            }
        }
        PopulationView {
            tick: self.tick,
            expected_users: self.expected_users,
            per_server_users: self
                .servers
                .iter()
                .map(|h| (h.server.id().0, h.server.users().map(|u| u.0).collect()))
                .collect(),
            client_ids,
            supervised_or_connecting,
            stalled_ticks,
            stall_limit: STALL_TICKS,
            substitutions: self.substituting.iter().map(|(a, b)| (a.0, b.0)).collect(),
            live_servers: self.servers.iter().map(|h| h.server.id().0).collect(),
            suspect_servers: self.suspects.iter().map(|n| n.0).collect(),
        }
    }

    /// Runs the invariant oracle (population checks, plus the trace
    /// auditor under `strict-invariants`) and panics on any violation.
    fn check_invariants(&self) {
        #[cfg(not(feature = "strict-invariants"))]
        let violations = invariants::check_population(&self.population_view());
        #[cfg(feature = "strict-invariants")]
        let violations = {
            let mut v = invariants::check_population(&self.population_view());
            // lint: allow(hot_lock, "strict-invariants debug builds only; uncontended outside worker fan-out windows")
            if let Ok(mut auditor) = self.auditor.lock() {
                v.extend(auditor.take_violations());
            }
            v
        };
        if !violations.is_empty() {
            // Preserve the evidence before aborting: the bundle holds the
            // events leading up to the violation, the panic only its text.
            self.flight_dump(self.tick, "invariant");
            self.tracer.flush();
            let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
            panic!(
                "tick {}: {} invariant violation(s):\n{}",
                self.tick,
                violations.len(),
                rendered.join("\n")
            );
        }
    }

    /// The fan-out schedule for this tick: natural in production
    /// (`schedule_seed == 0`), otherwise a fresh per-tick permutation so
    /// consecutive ticks exercise different worker interleavings.
    fn schedule(&self) -> parallel::Schedule {
        if self.config.schedule_seed == 0 {
            parallel::Schedule::natural()
        } else {
            parallel::Schedule::permuted(
                self.config
                    .schedule_seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ self.tick,
            )
        }
    }

    /// Ticks every server through the worker pool, returning the records
    /// in server order. When the pool may visit servers out of order or
    /// concurrently, each server emits trace events into a private buffer,
    /// drained into the shared tracer in server order after the join, so
    /// the event stream is byte-identical for every thread count and
    /// schedule.
    fn tick_servers(&mut self) -> Vec<TickRecord> {
        let threads = self.config.threads;
        let schedule = self.schedule();
        // Serial fork: a single in-order walk on the calling thread already
        // emits in server order, which saves a ring buffer and two tracer
        // swaps per server per tick.
        let in_order = (threads <= 1 || self.servers.len() <= 1) && schedule.is_natural();
        // Each server's own tracer and the buffer standing in for it.
        let mut swapped: Vec<(Tracer, std::sync::Arc<std::sync::Mutex<RingSink>>)> = Vec::new();
        if self.tracer.is_enabled() && !in_order {
            for handle in &mut self.servers {
                let sink =
                    std::sync::Arc::new(std::sync::Mutex::new(RingSink::new(TICK_TRACE_BUFFER)));
                let original = handle.server.swap_tracer(Tracer::to_sink(sink.clone()));
                swapped.push((original, sink));
            }
        }
        let records =
            parallel::map_mut_scheduled(&mut self.servers, threads, schedule, |h| h.server.tick());
        for (handle, (original, buffer)) in self.servers.iter_mut().zip(swapped) {
            handle.server.swap_tracer(original);
            // lint: allow(hot_lock, "post-join drain: workers have exited, the buffer mutex is provably uncontended here")
            if let Ok(mut sink) = buffer.lock() {
                for event in sink.drain() {
                    self.tracer.emit(event);
                }
            }
        }
        records
    }

    /// Runs one tick of the whole deployment.
    pub fn step(&mut self) -> ClusterTickStats {
        // 0. Deliver network traffic due now; then let chaos strike.
        self.bus.advance(self.tick);
        self.apply_chaos();

        // 1. Cloud events and in-flight recovery work.
        self.pump_boot_events();
        self.progress_substitutions();
        self.supervise_users();

        // 2. Control round; then reconcile degraded-mode state (fidelity
        // edges, bounded join-queue drain) against its outcome.
        self.control_round();
        self.reconcile_degraded();

        // 3. Server ticks (these absorb any in-flight connects). The bus
        // is paused for the phase: servers exchange traffic only at the
        // phase boundary, which (a) makes the ticks data-independent so
        // they can fan out across the worker pool, and (b) fixes delivery
        // order to ascending link key — identical for every thread count
        // (see `crate::parallel` for the full determinism argument).
        self.bus.pause_delivery();
        let records = self.tick_servers();
        self.bus.resume_delivery();
        self.pending_connects.clear();

        // 3b. Online calibration: stream the tick's records in (the record
        // does not know the replica count `l`; we do), then close the
        // tick so cadence/drift refits can run.
        let replicas = self.servers.len() as u32;
        if let Some(cal) = self.autocal.as_mut() {
            for record in &records {
                cal.ingest(record, replicas);
            }
            if let Some(report) = cal.end_tick(self.tick) {
                if self.tracer.is_enabled() {
                    let (outcome, version) = match &report.outcome {
                        PublishOutcome::Published { version } => ("published", *version),
                        PublishOutcome::RejectedQuality(..) => ("rejected_quality", 0),
                        PublishOutcome::Cooldown { .. } => ("cooldown", 0),
                        PublishOutcome::Unchanged { .. } => ("unchanged", 0),
                    };
                    self.tracer.emit(TraceEvent::Refit {
                        tick: self.tick,
                        reason: report.reason.name(),
                        outcome,
                        version,
                        params: report.refitted.len() as u32,
                    });
                }
                self.metrics.add(MetricKey::plain("roia_refits_total"), 1);
                self.refit_log.push(report);
            }
        }

        // 3c. Repair avatar-table damage; consult the invariant oracle.
        // Strict builds check every tick; otherwise only when debug checks
        // or chaos are active.
        let strict = cfg!(feature = "strict-invariants");
        if strict || self.chaos.is_some() || self.debug_checks {
            self.repair_sweep();
        }
        if strict || self.debug_checks {
            self.check_invariants();
        }

        // 4. Client ticks — fanned out like the servers, under the same
        // paused-bus contract (each client owns a distinct link to its
        // server, so the resumed flush order is client-id order for every
        // thread count).
        self.bus.pause_delivery();
        let now = self.tick;
        let schedule = self.schedule();
        let mut handles: Vec<&mut ClientHandle> = self.clients.values_mut().collect();
        parallel::map_mut_scheduled(&mut handles, self.config.threads, schedule, |h| {
            h.client.tick(now, &mut h.bot);
        });
        self.bus.resume_delivery();

        // 5. Aggregate stats, operator metrics and settlement events.
        // Counter deltas are summed locally and recorded once, and the
        // unlabelled latency histogram takes the whole tick as one batch —
        // one registry lookup instead of one per record.
        let mut max_tick = 0.0f64;
        let mut load_sum = 0.0;
        let mut violation = false;
        let mut violations_delta = 0u64;
        let mut migrations_initiated = 0u64;
        let mut migrations_received = 0u64;
        self.micros_scratch.clear();
        for r in &records {
            max_tick = max_tick.max(r.tick_duration);
            load_sum += r.tick_duration / self.config.tick_interval;
            if r.tick_duration >= self.u_threshold {
                violation = true;
                violations_delta += 1;
            }
            let micros = secs_to_micros(r.tick_duration);
            self.micros_scratch.push(micros);
            self.metrics.record(
                MetricKey::labelled("roia_tick_duration_us", "server", r.server.0 as u64),
                micros,
            );
            migrations_initiated += r.migrations_initiated as u64;
            migrations_received += r.migrations_received as u64;
            if r.migrations_received > 0 && self.tracer.is_enabled() {
                self.tracer.emit(TraceEvent::MigrationSettled {
                    tick: self.tick,
                    server: r.server.0,
                    arrived: r.migrations_received,
                });
            }
        }
        self.metrics.record_many(
            MetricKey::plain("roia_tick_duration_us"),
            &self.micros_scratch,
        );
        if violations_delta > 0 {
            self.violations += violations_delta;
            self.metrics
                .add(MetricKey::plain("roia_violations_total"), violations_delta);
        }
        if migrations_initiated > 0 {
            self.metrics.add(
                MetricKey::plain("roia_migrations_initiated_total"),
                migrations_initiated,
            );
        }
        if migrations_received > 0 {
            self.metrics.add(
                MetricKey::plain("roia_migrations_received_total"),
                migrations_received,
            );
        }
        // Every server's users, sorted as one list, then one merge walk
        // against the (sorted) client keys — O(n log n) flat, no tree.
        self.active_scratch.clear();
        for handle in &self.servers {
            self.active_scratch.extend(handle.server.users());
        }
        self.active_scratch.sort_unstable();
        let unhomed = rows::difference(self.clients.keys(), &self.active_scratch).count() as u32;

        // Model annotations + attribution: whatever model is in force
        // (live registry version, or the frozen reference) predicts each
        // replica's tick from the observed (l, n, m, a); the worst one
        // lines up against `max_tick_duration`, and the per-term split is
        // folded against the observed per-task seconds so a miss can be
        // pinned on a specific parameter.
        let model = match (&self.autocal, &self.reference_model) {
            (Some(cal), _) => Some((cal.version(), cal.model())),
            (None, Some(frozen)) => Some((0, frozen.clone())),
            (None, None) => None,
        };
        let (model_version, predicted_tick) = match model {
            Some((version, model)) => {
                let mut worst = 0.0f64;
                for r in &records {
                    worst = worst.max(model.tick(replicas, r.zone_users(), r.npcs, r.active_users));
                    let predicted = model.tick_terms(
                        replicas,
                        r.zone_users(),
                        r.npcs,
                        r.active_users,
                        r.migrations_initiated,
                        r.migrations_received,
                    );
                    let mut observed = [0.0f64; roia_obs::TERM_COUNT];
                    for task in TaskKind::ALL {
                        if let (Some(slot), Some(secs)) = (
                            task.param_index().and_then(|i| observed.get_mut(i)),
                            r.per_task.get(task.index()),
                        ) {
                            *slot = *secs;
                        }
                    }
                    self.attrib.fold(&observed, &predicted);
                }
                (version, worst)
            }
            None => (0, 0.0),
        };

        // SLO feed: one sample per server-tick for the latency objectives,
        // plus this step's join-admission outcomes. Burn and recovery
        // transitions become trace events; a page-severity burn dumps the
        // flight recorder with the burn's cause tick.
        let server_ticks = records.len() as u64;
        let p99_bad = records
            .iter()
            .filter(|r| r.tick_duration >= 0.9 * self.u_threshold)
            .count() as u64;
        self.slo
            .observe(SLO_TICK_BUDGET, violations_delta, server_ticks);
        self.slo.observe(SLO_TICK_P99, p99_bad, server_ticks);
        self.slo.observe(SLO_INVARIANTS, 0, 1);
        self.slo.observe(
            SLO_JOIN_SHED,
            u64::from(self.join_sheds_tick),
            u64::from(self.join_attempts_tick),
        );
        self.join_attempts_tick = 0;
        self.join_sheds_tick = 0;
        let transitions = self.slo.end_tick(self.tick);
        for transition in &transitions {
            self.tracer.emit(transition.to_event(self.tick));
            match transition {
                SloTransition::Burn {
                    severity, cause, ..
                } => {
                    self.metrics
                        .add(MetricKey::plain("roia_slo_burns_total"), 1);
                    if *severity == "page" {
                        self.flight_dump(*cause, "slo_page");
                    }
                }
                SloTransition::Recovered { .. } => {
                    self.metrics
                        .add(MetricKey::plain("roia_slo_recoveries_total"), 1);
                }
            }
        }
        for (idx, gauge) in self.slo.gauges().iter().enumerate() {
            // Burn rates are clamped to 1e9 permille, well inside i64.
            self.metrics.set(
                MetricKey::labelled("roia_slo_fast_burn_pm", "slo", idx as u64),
                gauge.fast_burn_pm as i64,
            );
            self.metrics.set(
                MetricKey::labelled("roia_slo_slow_burn_pm", "slo", idx as u64),
                gauge.slow_burn_pm as i64,
            );
            self.metrics.set(
                MetricKey::labelled("roia_slo_burning", "slo", idx as u64),
                i64::from(gauge.burning),
            );
        }

        let stats = ClusterTickStats {
            tick: self.tick,
            users: self.user_count(),
            servers: self.server_count(),
            avg_cpu_load: if records.is_empty() {
                0.0
            } else {
                load_sum / records.len() as f64
            },
            max_tick_duration: max_tick,
            violation,
            unhomed,
            npcs: self.config.npcs,
            model_version,
            predicted_tick,
        };
        self.metrics
            .set(MetricKey::plain("roia_users"), stats.users as i64);
        self.metrics
            .set(MetricKey::plain("roia_servers"), stats.servers as i64);
        self.metrics
            .set(MetricKey::plain("roia_unhomed"), stats.unhomed as i64);
        self.metrics.set(
            MetricKey::plain("roia_model_version"),
            stats.model_version as i64,
        );
        if let Some(recorder) = &self.flight {
            if self.tick.is_multiple_of(FLIGHT_METRICS_CADENCE) {
                // lint: allow(hot_lock, "metrics snapshot every FLIGHT_METRICS_CADENCE ticks; recorder is only otherwise locked by the budgeted postmortem path")
                if let Ok(mut rec) = recorder.lock() {
                    rec.note_metrics(self.tick, self.metrics.to_json());
                }
            }
        }
        self.tick += 1;
        stats
    }

    /// Runs `ticks` steps.
    pub fn run(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ClusterConfig {
        ClusterConfig {
            cost_noise: 0.0,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn users_connect_and_play() {
        let mut cluster = Cluster::new(small_config(), 1);
        for _ in 0..10 {
            cluster.add_user();
        }
        cluster.run(9);
        let last = cluster.step();
        assert_eq!(cluster.user_count(), 10);
        assert_eq!(cluster.server(0).active_users(), 10);
        assert!(last.avg_cpu_load > 0.0);
        assert!(last.max_tick_duration > 0.0);
        assert_eq!(last.unhomed, 0);
    }

    #[test]
    fn users_split_across_two_servers() {
        let mut cluster = Cluster::new(small_config(), 2);
        for _ in 0..20 {
            cluster.add_user();
        }
        cluster.run(5);
        let loads = cluster.server_loads();
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].1 + loads[1].1, 20);
        assert!(
            loads[0].1.abs_diff(loads[1].1) <= 1,
            "least-loaded placement: {loads:?}"
        );
        // Replication wires shadows: each server mirrors the other's users.
        let server = cluster.server(0);
        assert_eq!(server.active_users() + server.shadow_users(), 20);
    }

    #[test]
    fn remove_user_disconnects() {
        let mut cluster = Cluster::new(small_config(), 1);
        cluster.add_user();
        cluster.add_user();
        cluster.run(3);
        cluster.remove_user();
        cluster.run(3);
        assert_eq!(cluster.user_count(), 1);
        assert_eq!(cluster.server(0).active_users(), 1);
    }

    #[test]
    fn manual_migration_action_moves_users() {
        let mut cluster = Cluster::new(small_config(), 2);
        for _ in 0..10 {
            cluster.add_user();
        }
        cluster.run(5);
        let loads = cluster.server_loads();
        let exec = cluster.execute_action(Action::Migrate {
            from: loads[0].0,
            to: loads[1].0,
            users: 3,
        });
        assert_eq!(exec, ActionExec::Done);
        cluster.run(3);
        let after = cluster.server_loads();
        assert_eq!(after[0].1, loads[0].1 - 3);
        assert_eq!(after[1].1, loads[1].1 + 3);
        assert!(cluster.total_migrations() >= 3);
    }

    #[test]
    fn migration_into_dead_node_is_rejected() {
        let mut cluster = Cluster::new(small_config(), 2);
        for _ in 0..10 {
            cluster.add_user();
        }
        cluster.run(5);
        let loads = cluster.server_loads();
        let dead = NodeId(9_999);
        let exec = cluster.execute_action(Action::Migrate {
            from: loads[0].0,
            to: dead,
            users: 3,
        });
        assert_eq!(exec, ActionExec::Rejected);
        cluster.run(3);
        let after = cluster.server_loads();
        assert_eq!(after[0].1 + after[1].1, 10, "nobody was stranded");
    }

    #[test]
    fn add_replica_boots_after_delay() {
        let mut config = small_config();
        config.pool = ResourcePool::new(8, 1, 10, 90_000);
        let mut cluster = Cluster::new(config, 1);
        assert!(matches!(
            cluster.execute_action(Action::AddReplica { zone: ZoneId(1) }),
            ActionExec::Booting(_)
        ));
        cluster.run(5);
        assert_eq!(cluster.server_count(), 1, "still booting");
        cluster.run(10);
        assert_eq!(cluster.server_count(), 2, "replica joined after the delay");
    }

    #[test]
    fn remove_replica_requires_drained_server() {
        let mut cluster = Cluster::new(small_config(), 2);
        for _ in 0..6 {
            cluster.add_user();
        }
        cluster.run(5);
        let (loaded, _) = cluster.server_loads()[0];
        let exec = cluster.execute_action(Action::RemoveReplica {
            zone: ZoneId(1),
            server: loaded,
        });
        assert_eq!(exec, ActionExec::Rejected);
        assert_eq!(cluster.server_count(), 2, "refuses to drop a loaded server");
    }

    #[test]
    fn total_migrations_survives_the_source_replica_leaving() {
        let mut cluster = Cluster::new(small_config(), 2);
        for _ in 0..10 {
            cluster.add_user();
        }
        cluster.run(5);
        // Drain the first server into the second, then remove it.
        let loads = cluster.server_loads();
        let (from, users) = loads[0];
        cluster.execute_action(Action::Migrate {
            from,
            to: loads[1].0,
            users,
        });
        cluster.run(5);
        let before = cluster.total_migrations();
        assert!(before >= u64::from(users), "the drain migrated: {before}");
        let exec = cluster.execute_action(Action::RemoveReplica {
            zone: ZoneId(1),
            server: from,
        });
        assert_eq!(exec, ActionExec::Done);
        assert_eq!(cluster.server_count(), 1);
        assert_eq!(cluster.total_migrations(), before, "a lifetime total");

        // A crash keeps the departed server's share as well.
        let mut cluster = Cluster::new(small_config(), 2);
        for _ in 0..10 {
            cluster.add_user();
        }
        cluster.run(5);
        let loads = cluster.server_loads();
        cluster.execute_action(Action::Migrate {
            from: loads[0].0,
            to: loads[1].0,
            users: 3,
        });
        cluster.run(3);
        let before = cluster.total_migrations();
        assert!(before >= 3);
        assert!(cluster.crash_server(loads[0].0));
        assert_eq!(cluster.total_migrations(), before);
    }

    #[test]
    fn substitution_replaces_server_with_faster_machine() {
        let mut config = small_config();
        config.pool = ResourcePool::new(8, 1, 5, 90_000);
        let mut cluster = Cluster::new(config, 2);
        for _ in 0..12 {
            cluster.add_user();
        }
        cluster.run(5);
        let victim = cluster.server_loads()[0].0;
        cluster.execute_action(Action::Substitute {
            zone: ZoneId(1),
            old: victim,
        });
        cluster.run(30);
        assert_eq!(cluster.server_count(), 2, "old out, new in");
        assert!(
            cluster.servers.iter().any(|s| s.speedup > 1.0),
            "a powerful machine now serves"
        );
        assert!(
            cluster.servers.iter().all(|s| s.server.id() != victim),
            "the substituted server is gone"
        );
        assert_eq!(cluster.user_count(), 12, "no user lost in the hand-over");
        let total: u32 = cluster.server_loads().iter().map(|(_, u)| u).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn substitution_of_dead_server_is_rejected() {
        let mut cluster = Cluster::new(small_config(), 2);
        cluster.run(2);
        let exec = cluster.execute_action(Action::Substitute {
            zone: ZoneId(1),
            old: NodeId(9_999),
        });
        assert_eq!(exec, ActionExec::Rejected);
    }

    #[test]
    fn every_live_replica_resolves_and_no_retired_one_does() {
        let mut config = small_config();
        config.pool = ResourcePool::new(8, 2, 5, 90_000);
        let mut cluster = Cluster::new(config, 3);
        let mut retired = Vec::new();
        let check = |cluster: &mut Cluster, retired: &[NodeId], servers: u32| {
            let live: Vec<NodeId> = cluster.server_loads().iter().map(|(id, _)| *id).collect();
            assert_eq!(live.len() as u32, servers, "{live:?}");
            for id in &live {
                assert!(cluster.server_alive(*id), "{id:?} is live");
                assert_eq!(cluster.handle_mut(*id).map(|h| h.server.id()), Some(*id));
            }
            for id in retired {
                assert!(!cluster.server_alive(*id), "{id:?} is retired");
                assert!(cluster.handle_mut(*id).is_none());
            }
        };
        check(&mut cluster, &retired, 3);
        let boot = Action::AddReplica { zone: ZoneId(1) };
        assert!(matches!(
            cluster.execute_action(boot),
            ActionExec::Booting(_)
        ));
        cluster.run(10);
        check(&mut cluster, &retired, 4);

        let old = cluster.server_loads()[1].0;
        let substitute = Action::Substitute {
            zone: ZoneId(1),
            old,
        };
        assert!(matches!(
            cluster.execute_action(substitute),
            ActionExec::Booting(_)
        ));
        cluster.run(10);
        retired.push(old);
        check(&mut cluster, &retired, 4);

        let crashed = cluster.server_loads()[0].0;
        assert!(cluster.crash_server(crashed));
        retired.push(crashed);
        check(&mut cluster, &retired, 3);

        let removed = cluster.server_loads()[2].0;
        let remove = Action::RemoveReplica {
            zone: ZoneId(1),
            server: removed,
        };
        assert_eq!(cluster.execute_action(remove), ActionExec::Done);
        retired.push(removed);
        check(&mut cluster, &retired, 2);

        // A boot after all that still appends above every live id.
        cluster.execute_action(boot);
        cluster.run(10);
        check(&mut cluster, &retired, 3);
    }

    #[test]
    fn cost_accrues_over_time() {
        let mut cluster = Cluster::new(small_config(), 2);
        cluster.run(100);
        assert!(cluster.total_cost() > 0.0);
    }

    #[test]
    fn violation_accounting() {
        let mut cluster = Cluster::new(small_config(), 1);
        cluster.set_threshold(1e-9); // everything violates
        cluster.add_user();
        let history: Vec<ClusterTickStats> = (0..5).map(|_| cluster.step()).collect();
        assert!(cluster.violations() > 0);
        assert!(history.iter().skip(2).all(|h| h.violation));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut config = small_config();
            config.seed = seed;
            config.cost_noise = 0.05;
            let mut cluster = Cluster::new(config, 2);
            for _ in 0..30 {
                cluster.add_user();
            }
            (0..50)
                .map(|_| cluster.step())
                .map(|h| (h.users, h.max_tick_duration))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn chaotic_runs_are_deterministic_too() {
        let run = |seed: u64| {
            let mut config = small_config();
            config.cost_noise = 0.05;
            let mut cluster = Cluster::new(config, 3);
            cluster.set_debug_checks(true);
            cluster.set_chaos(
                FaultPlan::quiet(seed)
                    .with_link_faults(0.02, 1)
                    .at(20, Fault::CrashMostLoaded),
            );
            for _ in 0..24 {
                cluster.add_user();
            }
            (0..120)
                .map(|_| cluster.step())
                .map(|h| (h.users, h.servers, h.unhomed, h.max_tick_duration))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn isolated_server_users_rehome_and_ghosts_are_swept() {
        let mut cluster = Cluster::new(small_config(), 2);
        cluster.set_debug_checks(true);
        for _ in 0..12 {
            cluster.add_user();
        }
        cluster.run(5);
        cluster.set_chaos(FaultPlan::quiet(3).at(
            6,
            Fault::Isolate {
                nth: 0,
                for_ticks: 10_000,
            },
        ));
        // The watchdog needs STALL_TICKS to notice, then re-homes; the
        // sweep clears the stale avatars on the isolated machine.
        cluster.run(STALL_TICKS + 60);
        assert_eq!(cluster.suspect_count(), 1);
        assert_eq!(cluster.user_count(), 12, "population conserved");
        let healthy = cluster.least_loaded_server().unwrap();
        let loads = cluster.server_loads();
        let on_healthy = loads.iter().find(|(id, _)| *id == healthy).unwrap().1;
        assert_eq!(
            on_healthy, 12,
            "everyone re-homed to the healthy replica: {loads:?}"
        );
    }

    #[test]
    fn crash_under_link_loss_conserves_users() {
        let mut config = small_config();
        config.cost_noise = 0.05;
        let mut cluster = Cluster::new(config, 3);
        cluster.set_debug_checks(true);
        cluster.set_chaos(
            FaultPlan::quiet(17)
                .with_link_faults(0.05, 1)
                .at(30, Fault::CrashMostLoaded)
                .at(90, Fault::CrashNth(1)),
        );
        for _ in 0..30 {
            cluster.add_user();
        }
        // Long enough for the watchdog + backoff to recover every loss
        // race (dropped redirects, dropped connect-acks).
        cluster.run(600);
        cluster.clear_chaos();
        cluster.run(STALL_TICKS + 299);
        let last = cluster.step();
        assert_eq!(cluster.user_count(), 30);
        assert_eq!(cluster.server_count(), 1, "two of three replicas crashed");
        let total: u32 = cluster.server_loads().iter().map(|(_, u)| u).sum();
        assert_eq!(total, 30, "every orphan found a home");
        assert_eq!(last.unhomed, 0);
    }

    #[test]
    fn straggler_slows_down_then_recovers() {
        let mut cluster = Cluster::new(small_config(), 1);
        for _ in 0..20 {
            cluster.add_user();
        }
        cluster.run(9);
        let healthy = cluster.step().max_tick_duration;
        cluster.set_chaos(FaultPlan::quiet(5).at(
            11,
            Fault::Straggle {
                nth: 0,
                factor: 4.0,
                for_ticks: 20,
            },
        ));
        cluster.run(14);
        let straggling = cluster.step().max_tick_duration;
        assert!(
            straggling > healthy * 3.0,
            "4x straggler visible in tick durations: {healthy} -> {straggling}"
        );
        cluster.run(29); // past the revert
        let recovered = cluster.step().max_tick_duration;
        assert!(recovered < healthy * 2.0, "straggler healed: {recovered}");
    }

    /// The obs crate's attribution slots are a convention, not a shared
    /// type — this pin makes the convention load-bearing.
    #[test]
    fn term_slots_mirror_param_kinds() {
        use roia_model::ParamKind;
        assert_eq!(roia_obs::TERM_COUNT, ParamKind::ALL.len());
        for (i, kind) in ParamKind::ALL.iter().enumerate() {
            assert_eq!(roia_obs::TERM_SYMBOLS[i], kind.symbol());
        }
        for task in TaskKind::ALL {
            match task.param_index() {
                Some(i) => assert_eq!(task.symbol(), roia_obs::TERM_SYMBOLS[i]),
                None => assert_eq!(task, TaskKind::Other),
            }
        }
    }

    #[test]
    fn slo_burn_fires_escalates_and_dumps() {
        let dir = std::env::temp_dir().join(format!("roia-slo-burn-{}", std::process::id()));
        let mut cluster = Cluster::new(small_config(), 1);
        cluster.arm_flight(FlightConfig::new(&dir));
        // An impossible budget makes every server tick a bad sample: the
        // fast window saturates immediately and the burn escalates to a
        // page, which dumps a postmortem bundle.
        cluster.set_threshold(1e-9);
        for _ in 0..5 {
            cluster.add_user();
        }
        let (tracer, ring) = Tracer::ring(256);
        cluster.set_tracer(tracer);
        cluster.run(50);
        assert!(
            cluster.slo.gauges().iter().any(|g| g.burning),
            "impossible budget keeps burning"
        );
        let events = ring.lock().unwrap().drain();
        let burns: Vec<(&str, &str)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SloBurn { slo, severity, .. } => Some((*slo, *severity)),
                _ => None,
            })
            .collect();
        // A fully saturated window crosses the page threshold on the very
        // first evaluation, so the burn fires at page severity directly.
        assert!(
            burns.contains(&("tick_budget", "page")),
            "tick-budget page: {burns:?}"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                TraceEvent::PostmortemDumped {
                    reason: "slo_page",
                    ..
                }
            )),
            "page burn dumped a bundle"
        );
        let gauges = cluster.slo.gauges();
        assert!(gauges.iter().any(|g| g.slo == "tick_budget" && g.burning));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attribution_folds_against_reference_model() {
        use roia_model::{CostFn, ModelParams};
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
            t_fa_dser: CostFn::Linear { c0: 2e-6, c1: 1e-9 },
            t_fa: CostFn::Linear {
                c0: 20e-6,
                c1: 1e-9,
            },
            t_npc: CostFn::ZERO,
            t_mig_ini: CostFn::Linear {
                c0: 0.2e-3,
                c1: 7e-6,
            },
            t_mig_rcv: CostFn::Linear {
                c0: 0.15e-3,
                c1: 4e-6,
            },
        };
        let mut cluster = Cluster::new(small_config(), 2);
        cluster.set_reference_model(ScalabilityModel::new(params, 0.040));
        for _ in 0..20 {
            cluster.add_user();
        }
        let total_ticks: f64 = (0..30).map(|_| cluster.step().max_tick_duration).sum();
        let attrib = cluster.attribution();
        let report = attrib.report();
        assert!(report.iter().all(|t| t.samples > 0), "records folded");
        let observed: f64 = report.iter().map(|t| t.observed_s).sum();
        let predicted: f64 = report.iter().map(|t| t.predicted_s).sum();
        assert!(observed > 0.0 && predicted > 0.0);
        // The modeled terms never exceed the full tick durations (which
        // also include TaskKind::Other time).
        assert!(observed <= total_ticks * 2.0 + 1e-9);
        assert_eq!(report.len(), roia_obs::TERM_COUNT);
        let share: f64 = report.iter().map(|t| t.miss_share).sum();
        assert!(share.abs() < 1e-9 || (share - 1.0).abs() < 1e-6);
    }
}
