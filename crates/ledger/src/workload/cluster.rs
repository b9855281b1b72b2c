//! The three cluster workloads: `zone_steady`, `multizone_fanout` and
//! `churn_full_stack`.

use super::{
    fanout_threads, new_outcome, push_common_metrics, run_untimed, run_window, timed_setup, Driver,
    Plan, Window, Workload,
};
use crate::report::{Metric, Outcome};
use crate::stats::Fnv;
use roia_autocal::{CalibratorConfig, OnlineCalibrator};
use roia_model::ScalabilityModel;
use roia_obs::{FlightConfig, RingSink, Tracer};
use roia_sim::workload::{drive, Workload as Population};
use roia_sim::{
    default_demo_model, Cluster, ClusterConfig, ClusterTickStats, Fault, FaultPlan,
    MultiZoneConfig, MultiZoneWorld, SineWave, WorldTickStats,
};
use rtf_rms::{ControllerConfig, ModelDriven, ModelDrivenConfig};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Replicas `zone_steady` starts (and must end) with.
pub const ZONE_REPLICAS: u32 = 4;
/// Users of `zone_steady`: between the l = 3 and l = 4 replication
/// triggers, so the attached controller holds still.
pub const ZONE_USERS: u32 = 400;

/// Zones of `multizone_fanout`.
pub const MZ_ZONES: u32 = 8;
/// Replicas per zone the ramp leaves behind.
pub const MZ_REPLICAS_PER_ZONE: u32 = 2;
/// Users per zone once the ramp is over: the middle of the band in which
/// a group keeps two replicas (above 60 % of one replica's capacity, below
/// its 80 % replication trigger). The controllers must hold still: every
/// action one takes spends a replica's whole Eq. (5) slack in a single
/// tick, which parks that tick at the deadline and, with cost noise, now
/// and then over it.
pub const MZ_USERS_PER_ZONE: u32 = 165;
/// Zone travel, a fifth of the default rate. Travel happens in one burst
/// per second; at the default 1 % that is ~13 migrations in one tick, each
/// costing its source 0.2 ms + 7 µs per known avatar, on replicas the
/// 80 %-utilisation policy leaves 8 ms of slack — and it makes each zone's
/// population a random walk (σ ≈ 14 users over a run) that leaves the
/// ±23-user band above in one run out of three. At 0.2 % the walk's σ is
/// 6 and a burst is two or three handovers.
const MZ_TRAVEL_PER_SEC: f64 = 0.002;
/// Ticks the server count must hold before timing starts; this settling
/// period is also the workload's warm-up.
const MZ_STABLE_TICKS: u64 = 150;
/// Joins per zone per tick while ramping.
const MZ_JOINS_PER_TICK: u32 = 8;

/// Population cycle of `churn_full_stack`, ticks: the steepest slope is
/// ~0.3 users per tick, slow enough that a replica requested at its
/// trigger boots and takes its share before the others overload.
pub const CHURN_PERIOD_TICKS: u64 = 1_500;
/// Mean population.
const CHURN_MEAN: u32 = 165;
/// Amplitude: 100..230 users. Under the planning threshold below that is
/// one replica in the trough and two at the crest, a replica added and one
/// removed every cycle, with the fullest replica's tick ≤ 35 ms on every
/// seed tried (README.md lists them) — a workload on which no tick misses
/// the 40 ms deadline, so `ops_failed` stays 0.
const CHURN_AMPLITUDE: u32 = 65;
/// Joins or leaves per tick at most.
const CHURN_MAX_PER_TICK: u32 = 6;
/// Replicas the cluster starts with.
const CHURN_REPLICAS: u32 = 2;
/// Tick threshold the churn controller plans against: 25 % under the
/// 40 ms deadline the run is judged by. Planning against the deadline
/// itself parks the fullest replica within a millisecond of it, where a
/// burst of two migrations already registers as a violation.
const CHURN_PLANNING_U: f64 = 0.030;
/// Migrations per round a replica over the planning threshold may still
/// start. The paper's strict Eq. (5) budget is zero there, which leaves a
/// replica that a crash's re-homing overfilled stuck for the whole run.
const CHURN_MIGRATION_FLOOR: u32 = 2;
/// Events the operator ring retains.
const CHURN_RING_EVENTS: usize = 65_536;

/// Counters every cluster workload folds from the public per-tick stats
/// and the servers' latest `TickRecord`s.
#[derive(Debug, Default)]
pub struct ClusterTally {
    /// FNV-1a over the per-tick stats.
    pub digest: Fnv,
    /// Σ servers over ticks.
    pub server_ticks: u64,
    /// Σ `TickRecord.bytes_out`.
    pub bytes_out: u64,
    /// Σ `TickRecord.inputs_processed`.
    pub inputs: u64,
    /// Σ `TickRecord.updates_sent`.
    pub updates: u64,
    /// Σ unhomed users over ticks.
    pub unhomed_user_ticks: u64,
    /// Unhomed users after the last tick.
    pub unhomed_last: u32,
    /// Largest server count seen.
    pub max_servers: u32,
}

impl ClusterTally {
    /// Folds one `Cluster::step` result and the records it produced.
    pub fn fold(&mut self, cluster: &Cluster, stats: &ClusterTickStats) {
        for word in [
            stats.tick,
            u64::from(stats.users),
            u64::from(stats.servers),
            u64::from(stats.violation),
            u64::from(stats.unhomed),
            stats.max_tick_duration.to_bits(),
            stats.avg_cpu_load.to_bits(),
        ] {
            self.digest.write(word);
        }
        self.server_ticks += u64::from(stats.servers);
        self.unhomed_user_ticks += u64::from(stats.unhomed);
        self.unhomed_last = stats.unhomed;
        self.max_servers = self.max_servers.max(stats.servers);
        for idx in 0..stats.servers as usize {
            // A replica booted this tick has no record yet.
            if let Some(record) = cluster.server_metrics(idx).latest() {
                self.bytes_out += record.bytes_out;
                self.inputs += u64::from(record.inputs_processed);
                self.updates += u64::from(record.updates_sent);
            }
        }
    }

    /// Copies the exact-repeat counters into `outcome`.
    pub fn export(&self, outcome: &mut Outcome) {
        let c = &mut outcome.counters;
        c.insert("state_digest".into(), self.digest.finish());
        c.insert("server_ticks".into(), self.server_ticks);
        c.insert("bytes_out".into(), self.bytes_out);
        c.insert("msgs_in".into(), self.inputs);
        c.insert("msgs_out".into(), self.updates);
        c.insert("sim.unhomed_user_ticks".into(), self.unhomed_user_ticks);
    }
}

/// A `ClusterConfig` that differs from the default only by its seed.
fn cluster_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        seed,
        ..ClusterConfig::default()
    }
}

// ---------------------------------------------------------------------
// zone_steady
// ---------------------------------------------------------------------

/// `zone_steady`: `Cluster::step` on one zone at the paper's operating
/// point.
pub struct ZoneSteady {
    /// The deployment.
    pub cluster: Cluster,
    /// The calibrated model its controller runs on.
    pub model: ScalabilityModel,
    /// Counters.
    pub tally: ClusterTally,
}

impl ZoneSteady {
    /// Builds the cluster on the calibrated `model`: 4 replicas, 400
    /// users, model-driven controller, everything optional off.
    pub fn setup(seed: u64, model: ScalabilityModel) -> Self {
        let mut cluster = Cluster::new(cluster_config(seed), ZONE_REPLICAS);
        cluster.set_threshold(model.u_threshold);
        cluster.set_controller(
            Box::new(ModelDriven::new(
                model.clone(),
                ModelDrivenConfig::default(),
            )),
            ControllerConfig::default(),
        );
        for _ in 0..ZONE_USERS {
            cluster
                .add_user()
                .expect("four live replicas accept every user");
        }
        Self {
            cluster,
            model,
            tally: ClusterTally::default(),
        }
    }
}

impl Driver for ZoneSteady {
    type Out = ClusterTickStats;

    fn tick(&mut self) -> ClusterTickStats {
        self.cluster.step()
    }

    fn account(&mut self, stats: ClusterTickStats) -> u64 {
        self.tally.fold(&self.cluster, &stats);
        u64::from(stats.users)
    }
}

/// Runs `zone_steady` untraced.
pub fn run_zone_steady(plan: &Plan) -> Outcome {
    let seed = Workload::ZoneSteady.seed(plan.seed);
    let (mut run, setup_s) = timed_setup(plan.setup_reps, || {
        let mut run = ZoneSteady::setup(seed, default_demo_model());
        run_untimed(&mut run, plan.warmup);
        run
    });
    run.tally = ClusterTally::default();
    let violations_before = run.cluster.violations();
    let actions_before = run.cluster.action_log().map_or(0, |l| l.entries().len());
    let window = run_window(&mut run, plan.limit);

    let mut outcome = new_outcome(Workload::ZoneSteady, plan);
    push_common_metrics(&mut outcome, &window, setup_s);
    push_cluster_metrics(&mut outcome, &window, Some(&run.tally));
    let violations = run.cluster.violations() - violations_before;
    let actions = run.cluster.action_log().map_or(0, |l| l.entries().len()) - actions_before;
    // The gate: a topology Eq. (3) allows, no deadline violation, nobody
    // left without a server — or no throughput is quoted.
    let l_max = run.model.max_replicas(0).l_max;
    outcome.check(run.cluster.server_count() <= l_max, || {
        format!(
            "{} replicas exceed l_max = {l_max}",
            run.cluster.server_count()
        )
    });
    outcome.check(violations == 0, || {
        format!("{violations} virtual-deadline violations in the timed window")
    });
    outcome.check(run.tally.unhomed_last == 0, || {
        format!("{} users unhomed at the end", run.tally.unhomed_last)
    });
    outcome.check(run.cluster.user_count() == ZONE_USERS, || {
        format!(
            "{} users connected, not {ZONE_USERS}",
            run.cluster.user_count()
        )
    });
    outcome.check(run.cluster.server_count() == ZONE_REPLICAS, || {
        format!(
            "controller moved: {} replicas, not {ZONE_REPLICAS}",
            run.cluster.server_count()
        )
    });
    outcome.attempted = run.tally.server_ticks;
    outcome.failed = violations + u64::from(run.tally.unhomed_last);
    outcome
        .counters
        .insert("sim.migrations".into(), run.cluster.total_migrations());
    outcome.counters.insert("sim.violations".into(), violations);
    outcome
        .counters
        .insert("rms.actions_issued".into(), actions as u64);
    outcome
}

// ---------------------------------------------------------------------
// multizone_fanout
// ---------------------------------------------------------------------

/// `multizone_fanout`: `MultiZoneWorld::step` over 8 zones.
pub struct MultizoneFanout {
    /// The world.
    pub world: MultiZoneWorld,
    /// The calibrated model.
    pub model: ScalabilityModel,
    /// FNV-1a over the per-tick world stats.
    pub digest: Fnv,
    /// Σ servers over ticks.
    pub server_ticks: u64,
}

impl MultizoneFanout {
    /// Builds the world on the calibrated `model` with `threads` workers per
    /// zone, ramps every zone to [`MZ_REPLICAS_PER_ZONE`] evenly loaded
    /// replicas and [`MZ_USERS_PER_ZONE`] users, and returns once the
    /// server count has held for [`MZ_STABLE_TICKS`] ticks.
    pub fn setup(seed: u64, threads: usize, model: ScalabilityModel) -> Self {
        let config = MultiZoneConfig {
            zones: MZ_ZONES,
            travel_prob_per_sec: MZ_TRAVEL_PER_SEC,
            cluster: ClusterConfig {
                threads,
                ..cluster_config(seed)
            },
            ..MultiZoneConfig::default()
        };
        let mut world = MultiZoneWorld::new(config, model.clone());
        // Every zone starts with one replica and gets the next only by
        // crossing a replication trigger, and a new replica receives only
        // the joins that come after it. So: fill each zone to just past
        // one trigger after the other, waiting for each round of replicas
        // to boot; then — within one tick, so no control round sees the
        // dip — let the newest users leave until the first replica holds
        // its share of the target and join the rest, which placement
        // spreads over the emptier replicas.
        for replicas in 1..MZ_REPLICAS_PER_ZONE {
            let fill = model.replication_trigger(replicas, 0) + 2;
            while world.server_count() < MZ_ZONES * (replicas + 1) {
                for (zone, _, users) in world.population() {
                    for _ in 0..fill.saturating_sub(users).min(MZ_JOINS_PER_TICK) {
                        world.add_user_to_zone(zone);
                    }
                }
                world.step();
            }
        }
        let share = MZ_USERS_PER_ZONE / MZ_REPLICAS_PER_ZONE;
        for (zone, _, users) in world.population() {
            for _ in share..users {
                world.remove_user_from_zone(zone);
            }
            for _ in share.min(users)..MZ_USERS_PER_ZONE {
                world.add_user_to_zone(zone);
            }
        }
        let mut stable = 0;
        let mut servers = world.server_count();
        while stable < MZ_STABLE_TICKS {
            let stats = world.step();
            if stats.servers == servers {
                stable += 1;
            } else {
                stable = 0;
                servers = stats.servers;
            }
        }
        Self {
            world,
            model,
            digest: Fnv::default(),
            server_ticks: 0,
        }
    }
}

impl Driver for MultizoneFanout {
    type Out = WorldTickStats;

    fn tick(&mut self) -> WorldTickStats {
        self.world.step()
    }

    fn account(&mut self, stats: WorldTickStats) -> u64 {
        for word in [
            stats.tick,
            u64::from(stats.users),
            u64::from(stats.servers),
            u64::from(stats.instances),
            u64::from(stats.violation),
            self.world.handovers,
        ] {
            self.digest.write(word);
        }
        self.server_ticks += u64::from(stats.servers);
        u64::from(stats.users)
    }
}

/// Runs `multizone_fanout` untraced.
pub fn run_multizone_fanout(plan: &Plan) -> Outcome {
    let seed = Workload::MultizoneFanout.seed(plan.seed);
    // The ramp's settling period is this workload's warm-up.
    let (mut run, setup_s) = timed_setup(plan.setup_reps, || {
        MultizoneFanout::setup(seed, fanout_threads(), default_demo_model())
    });
    let violations_before = run.world.violations();
    let handovers_before = run.world.handovers;
    let window = run_window(&mut run, plan.limit);

    let mut outcome = new_outcome(Workload::MultizoneFanout, plan);
    push_common_metrics(&mut outcome, &window, setup_s);
    // `MultiZoneWorld` exposes neither its clusters nor their records, so
    // the bytes its servers sent cannot be read from outside.
    push_cluster_metrics(&mut outcome, &window, None);
    let violations = run.world.violations() - violations_before;
    let l_max = run.model.max_replicas(0).l_max;
    outcome.check(violations == 0, || {
        format!("{violations} virtual-deadline violations in the timed window")
    });
    // Per-group replica counts are private; the world-wide count is the
    // strictest check the public API allows.
    outcome.check(
        run.world.server_count() <= run.world.instance_count() * l_max,
        || {
            format!(
                "{} servers over {} groups exceeds l_max = {l_max}",
                run.world.server_count(),
                run.world.instance_count()
            )
        },
    );
    outcome.check(
        run.world.user_count() == MZ_ZONES * MZ_USERS_PER_ZONE,
        || format!("{} users in the world", run.world.user_count()),
    );
    outcome.attempted = run.server_ticks;
    outcome.failed = violations;
    let c = &mut outcome.counters;
    c.insert("state_digest".into(), run.digest.finish());
    c.insert("server_ticks".into(), run.server_ticks);
    c.insert("sim.violations".into(), violations);
    c.insert(
        "sim.handovers".into(),
        run.world.handovers - handovers_before,
    );
    c.insert("servers".into(), u64::from(run.world.server_count()));
    outcome
}

// ---------------------------------------------------------------------
// churn_full_stack
// ---------------------------------------------------------------------

/// A `SineWave` that starts in its trough, so the two initial replicas
/// carry the first users comfortably and every replica after them is
/// asked for on the slow rising slope.
struct FromTrough(SineWave);

impl Population for FromTrough {
    fn target_users(&self, t_secs: f64) -> u32 {
        self.0.target_users(t_secs + 0.75 * self.0.period_secs)
    }
}

/// `churn_full_stack`: `workload::drive` + `Cluster::step` with every
/// optional subsystem armed.
pub struct ChurnFullStack {
    /// The deployment.
    pub cluster: Cluster,
    /// The calibrated model it started from.
    pub model: ScalabilityModel,
    /// The operator's ring sink.
    pub ring: Arc<Mutex<RingSink>>,
    /// Where the flight recorder would dump.
    pub flight_dir: PathBuf,
    population: FromTrough,
    /// Counters.
    pub tally: ClusterTally,
    /// Join requests `drive` is about to make (computed before the tick).
    joins_due: u64,
    /// Σ join requests.
    pub joins: u64,
}

impl ChurnFullStack {
    /// Builds the cluster by hand from public API: 2 replicas, live
    /// model-driven controller on an online calibrator, reference model,
    /// ring tracer, armed flight recorder and two scheduled crashes, both
    /// where the sine falls through its mean (the survivors have room).
    pub fn setup(seed: u64, model: ScalabilityModel) -> Self {
        let mut cluster = Cluster::new(cluster_config(seed), CHURN_REPLICAS);
        cluster.set_threshold(model.u_threshold);
        let planning = ScalabilityModel {
            u_threshold: CHURN_PLANNING_U,
            ..model.clone()
        };
        let calibrator = OnlineCalibrator::new(planning.clone(), CalibratorConfig::default());
        let registry = calibrator.registry();
        cluster.set_autocal(calibrator);
        cluster.set_reference_model(planning);
        cluster.set_controller(
            Box::new(ModelDriven::live(
                registry,
                ModelDrivenConfig {
                    overload_migration_floor: CHURN_MIGRATION_FLOOR,
                    ..ModelDrivenConfig::default()
                },
            )),
            ControllerConfig::default(),
        );
        let (tracer, ring) = Tracer::ring(CHURN_RING_EVENTS);
        cluster.set_tracer(tracer);
        let flight_dir = crate::out_dir().join(format!("flight-{}", std::process::id()));
        cluster.arm_flight(FlightConfig::new(&flight_dir));
        cluster.set_chaos(
            FaultPlan::quiet(seed)
                .at(CHURN_PERIOD_TICKS * 3 / 4, Fault::CrashNth(1))
                .at(CHURN_PERIOD_TICKS * 7 / 4, Fault::CrashNth(0)),
        );
        Self {
            cluster,
            model,
            ring,
            flight_dir,
            population: FromTrough(SineWave {
                mean: CHURN_MEAN,
                amplitude: CHURN_AMPLITUDE,
                period_secs: CHURN_PERIOD_TICKS as f64 * tick_interval(),
            }),
            tally: ClusterTally::default(),
            joins_due: 0,
            joins: 0,
        }
    }
}

/// The cluster's tick interval in seconds (the default config's).
fn tick_interval() -> f64 {
    ClusterConfig::default().tick_interval
}

impl Driver for ChurnFullStack {
    type Out = ClusterTickStats;

    fn prepare(&mut self) {
        // The joins `drive` will request this tick (its own arithmetic).
        let t_secs = self.cluster.now() as f64 * tick_interval();
        let target = self.population.target_users(t_secs);
        let current = self.cluster.user_count() + self.cluster.queued_users();
        self.joins_due = u64::from(target.saturating_sub(current).min(CHURN_MAX_PER_TICK));
    }

    fn tick(&mut self) -> ClusterTickStats {
        drive(
            &mut self.cluster,
            &self.population,
            tick_interval(),
            CHURN_MAX_PER_TICK,
        );
        self.cluster.step()
    }

    fn account(&mut self, stats: ClusterTickStats) -> u64 {
        self.joins += self.joins_due;
        self.tally.fold(&self.cluster, &stats);
        u64::from(stats.users)
    }
}

impl Drop for ChurnFullStack {
    fn drop(&mut self) {
        // Postmortem bundles are not part of the ledger's output.
        let _ = std::fs::remove_dir_all(&self.flight_dir);
    }
}

/// Runs `churn_full_stack` untraced.
pub fn run_churn_full_stack(plan: &Plan) -> Outcome {
    let seed = Workload::ChurnFullStack.seed(plan.seed);
    let (mut run, setup_s) = timed_setup(plan.setup_reps, || {
        let mut run = ChurnFullStack::setup(seed, default_demo_model());
        run_untimed(&mut run, plan.warmup);
        run
    });
    run.tally = ClusterTally::default();
    run.joins = 0;
    let violations_before = run.cluster.violations();
    let shed_before = run.cluster.shed_users();
    let migrations_before = run.cluster.total_migrations();
    let window = run_window(&mut run, plan.limit.whole_cycles(CHURN_PERIOD_TICKS));

    let mut outcome = new_outcome(Workload::ChurnFullStack, plan);
    push_common_metrics(&mut outcome, &window, setup_s);
    push_cluster_metrics(&mut outcome, &window, Some(&run.tally));
    let violations = run.cluster.violations() - violations_before;
    let shed = run.cluster.shed_users() - shed_before;
    let l_max = run.model.max_replicas(0).l_max;
    outcome.check(run.tally.max_servers <= l_max, || {
        format!("{} replicas exceed l_max = {l_max}", run.tally.max_servers)
    });
    outcome.attempted = run.tally.server_ticks + run.joins;
    outcome.failed = violations + shed + u64::from(run.tally.unhomed_last);
    let log = run.cluster.action_log().cloned().unwrap_or_default();
    let ring_dropped = run.ring.lock().map_or(0, |r| r.dropped());
    let dumps = run
        .cluster
        .flight()
        .and_then(|f| f.lock().ok().map(|f| u64::from(f.dumps())))
        .unwrap_or(0);
    let c = &mut outcome.counters;
    c.insert("sim.violations".into(), violations);
    c.insert("joins_requested".into(), run.joins);
    c.insert("joins_shed".into(), shed);
    c.insert(
        "sim.migrations".into(),
        run.cluster.total_migrations() - migrations_before,
    );
    c.insert("rms.actions_issued".into(), log.entries().len() as u64);
    c.insert(
        "autocal.refits".into(),
        run.cluster.refit_log().len() as u64,
    );
    c.insert("obs.ring_dropped".into(), ring_dropped);
    c.insert("obs.flight_dumps".into(), dumps);
    c.insert("max_servers".into(), u64::from(run.tally.max_servers));
    outcome
}

// ---------------------------------------------------------------------
// shared
// ---------------------------------------------------------------------

/// The two end-to-end metrics not every workload has. Cluster workloads
/// have no `ClientSession`, hence no input→ack latency; bytes need the
/// servers' records.
fn push_cluster_metrics(outcome: &mut Outcome, window: &Window, tally: Option<&ClusterTally>) {
    outcome
        .end_to_end
        .push(Metric::absent("input_to_ack_us_p50", "us"));
    outcome.end_to_end.push(match tally {
        Some(tally) => Metric::new(
            "wire_bytes_per_user_tick",
            "B",
            tally.bytes_out as f64 / window.total_work().max(1) as f64,
            0,
        ),
        None => Metric::absent("wire_bytes_per_user_tick", "B"),
    });
    if let Some(tally) = tally {
        tally.export(outcome);
    }
}
