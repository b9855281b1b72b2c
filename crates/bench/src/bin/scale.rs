//! `scale` — large-session throughput of the parallel deterministic tick
//! engine.
//!
//! Sweeps session size × worker threads over the same simulated
//! deployment, reporting wall-clock throughput and the trace digest of
//! every run. Because the engine is deterministic by construction, every
//! run of one configuration — any thread count — must produce the same
//! digest; the digests are in the JSON so CI can assert it.
//!
//! Modes:
//! * sweep (default): users ∈ {1 k, 10 k, 100 k} × threads ∈ {1, N},
//!   writing `BENCH_scale.json`;
//! * single run (`--users N`): one session, digest on stdout — the CI
//!   `perf-smoke` job runs this twice (1 and N threads) and diffs.
//!
//! Flags: `--seed`, `--ticks`, `--json` (shared), plus `--users N`,
//! `--threads N`.
//!
//! The deployment scales with the session: the arena side grows as
//! `1000·√(users/300)` so avatar density (and therefore AoI overlap)
//! matches the paper's 300-user testbed, servers are provisioned at
//! ~2 000 users each, and the per-unit cost rates are scaled down so a
//! server at that occupancy sits below the 40 ms deadline — the virtual
//! capacity model stays exercised without drowning the run in
//! migration churn.

use roia_bench::{cli, json};
use roia_obs::Tracer;
use roia_sim::{Cluster, ClusterConfig};
use rtf_core::entity::Rect;
use rtf_rms::ResourcePool;
use rtfdemo::{CostRates, World};
use std::time::Instant;

/// Users per provisioned server at session start.
const USERS_PER_SERVER: u64 = 2_000;
/// Headroom factor for the cost-rate scaling: a full server runs at
/// ~1/1.4 ≈ 70 % of the virtual deadline.
const CAPACITY_HEADROOM: f64 = 1.4;

struct RunConfig {
    seed: u64,
    users: u64,
    ticks: u64,
    threads: usize,
}

struct RunResult {
    users: u64,
    ticks: u64,
    threads: usize,
    servers_start: u32,
    servers_end: u32,
    wall_s: f64,
    ticks_per_s: f64,
    user_ticks_per_s: f64,
    violations: u64,
    digest: u64,
    trace_events: u64,
}

fn run_once(rc: &RunConfig) -> RunResult {
    let servers = (rc.users / USERS_PER_SERVER).clamp(1, 48) as u32;
    let per_server = rc.users as f64 / servers as f64;
    // Density-constant arena: same avatars-per-AoI as the 300-user,
    // 1000×1000 testbed.
    let side = 1000.0 * ((rc.users.max(300) as f32) / 300.0).sqrt();
    // Rate scaling: t_aoi is quadratic in per-server occupancy, so
    // dividing every rate by (headroom·n/300)² puts a full server below
    // the deadline by the headroom factor.
    let rate_scale = (300.0 / (CAPACITY_HEADROOM * per_server)).powi(2);
    let config = ClusterConfig {
        seed: rc.seed,
        threads: rc.threads,
        world: World {
            bounds: Rect::square(side),
            ..World::default()
        },
        rates: CostRates::default().scaled(rate_scale),
        pool: ResourcePool::new(servers * 2, 2, 50, 90_000),
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config, servers);
    let (tracer, hasher) = Tracer::hashing();
    cluster.set_tracer(tracer);
    for _ in 0..rc.users {
        cluster
            .add_user()
            .expect("initial servers accept every user");
    }
    let started = Instant::now();
    for _ in 0..rc.ticks {
        cluster.step();
    }
    let wall_s = started.elapsed().as_secs_f64();
    let hasher = hasher.lock().expect("tracer lock");
    RunResult {
        users: rc.users,
        ticks: rc.ticks,
        threads: rc.threads,
        servers_start: servers,
        servers_end: cluster.server_count(),
        wall_s,
        ticks_per_s: rc.ticks as f64 / wall_s,
        user_ticks_per_s: (rc.users * rc.ticks) as f64 / wall_s,
        violations: cluster.violations(),
        digest: hasher.hash(),
        trace_events: hasher.events(),
    }
}

fn result_json(r: &RunResult) -> String {
    json::object(&[
        ("users", json::uint(r.users)),
        ("ticks", json::uint(r.ticks)),
        ("threads", json::uint(r.threads as u64)),
        ("servers_start", json::uint(r.servers_start as u64)),
        ("servers_end", json::uint(r.servers_end as u64)),
        ("wall_s", json::num(r.wall_s)),
        ("ticks_per_s", json::num(r.ticks_per_s)),
        ("user_ticks_per_s", json::num(r.user_ticks_per_s)),
        ("violations", json::uint(r.violations)),
        ("trace_digest", json::string(&format!("{:016x}", r.digest))),
        ("trace_events", json::uint(r.trace_events)),
    ])
}

fn print_run(r: &RunResult) {
    println!(
        "users={} threads={} ticks={} wall={:.2}s ticks/s={:.2} \
         user·ticks/s={:.0} servers={}→{} digest={:016x}",
        r.users,
        r.threads,
        r.ticks,
        r.wall_s,
        r.ticks_per_s,
        r.user_ticks_per_s,
        r.servers_start,
        r.servers_end,
        r.digest,
    );
}

fn main() {
    let mut users: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let args = cli::parse_with(|flag, value| match flag {
        "--users" => {
            users = Some(
                value("--users")
                    .parse()
                    .expect("--users needs a numeric value"),
            );
            true
        }
        "--threads" => {
            threads = Some(
                value("--threads")
                    .parse()
                    .expect("--threads needs a numeric value"),
            );
            true
        }
        _ => false,
    });
    let seed = args.seed.unwrap_or(42);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let fan_out = threads.unwrap_or_else(|| host_cores.max(4));

    if let Some(users) = users {
        // Single-run mode (CI smoke): one configuration, digest on stdout.
        let rc = RunConfig {
            seed,
            users,
            ticks: args.ticks.unwrap_or(100),
            threads: threads.unwrap_or(1),
        };
        let r = run_once(&rc);
        print_run(&r);
        let doc = json::object(&[
            ("experiment", json::string("scale")),
            ("mode", json::string("single")),
            ("host_cores", json::uint(host_cores as u64)),
            ("run", result_json(&r)),
        ]);
        cli::write_json_doc(args.json.as_deref(), None, &doc);
        return;
    }

    // Sweep mode: session size × thread count.
    let mut plan: Vec<RunConfig> = Vec::new();
    for (users, ticks) in [(1_000, 120), (10_000, 30), (100_000, 10)] {
        for threads in [1, fan_out] {
            plan.push(RunConfig {
                seed,
                users,
                ticks: args.ticks.unwrap_or(ticks),
                threads,
            });
        }
    }

    let mut results: Vec<RunResult> = Vec::new();
    for rc in &plan {
        let r = run_once(rc);
        print_run(&r);
        results.push(r);
    }

    // Derived headline numbers.
    let find = |users: u64, threads: usize| {
        results
            .iter()
            .find(|r| r.users == users && r.threads == threads)
    };
    let speedup =
        |users: u64| -> Option<f64> { Some(find(users, 1)?.wall_s / find(users, fan_out)?.wall_s) };
    for users in [1_000, 10_000, 100_000] {
        if let (Some(serial), Some(fanned)) = (find(users, 1), find(users, fan_out)) {
            assert_eq!(
                serial.digest, fanned.digest,
                "serial and {fan_out}-thread traces diverged at {users} users"
            );
        }
    }

    let runs: Vec<String> = results.iter().map(result_json).collect();
    let doc = json::object(&[
        ("experiment", json::string("scale")),
        ("mode", json::string("sweep")),
        ("seed", json::uint(seed)),
        ("host_cores", json::uint(host_cores as u64)),
        ("fan_out_threads", json::uint(fan_out as u64)),
        ("runs", format!("[{}]", runs.join(", "))),
        (
            "speedup_10k",
            speedup(10_000).map_or("null".into(), json::num),
        ),
        (
            "speedup_100k",
            speedup(100_000).map_or("null".into(), json::num),
        ),
    ]);
    cli::write_json_doc(args.json.as_deref(), Some("BENCH_scale.json"), &doc);
}
