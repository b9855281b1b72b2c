//! The stack on real time: two replicated RTFDemo servers tick at a fixed
//! rate with wall-clock task measurement (`TimeMode::Wall`) while bots
//! play. It is the same paused-bus lock-step loop `Cluster::step` runs —
//! servers, flush, clients, flush — composed from public parts on the main
//! thread and paced with `sleep`; only the clock differs from the
//! deterministic simulator the experiments use.
//!
//! Run with: `cargo run --release --example realtime`

use roia::demo::{Bot, BotBehavior, CostModel, CostRates, RtfDemoApp, World};
use roia::net::Bus;
use roia::rtf::{Client, Server, ServerConfig, TaskKind, TickRecord, TimeMode, UserId, ZoneId};
use std::thread;
use std::time::{Duration, Instant};

const TICK_INTERVAL: Duration = Duration::from_millis(20); // 50 Hz
const TICKS: u64 = 150; // 3 seconds of play
const SERVERS: u64 = 2;
const USERS: u64 = 40;

fn main() {
    println!(
        "running {SERVERS} servers at {TICK_INTERVAL:?}/tick for {TICKS} ticks with {USERS} bot users...\n"
    );
    let bus = Bus::new();
    let mut servers: Vec<Server<RtfDemoApp>> = (0..SERVERS)
        .map(|i| {
            // Noise-free virtual costs: Wall mode measures, it does not charge.
            let costs = CostModel::new(CostRates::default(), 0.0, i);
            let app = RtfDemoApp::new(World::default(), 0, costs);
            let config = ServerConfig {
                tick_interval: TICK_INTERVAL.as_secs_f64(),
                time_mode: TimeMode::Wall,
                ..ServerConfig::default()
            };
            Server::new(&bus, &format!("rt-server-{i}"), ZoneId(1), app, config)
        })
        .collect();
    let ids: Vec<_> = servers.iter().map(Server::id).collect();
    for server in &mut servers {
        server.set_peers(ids.clone());
    }
    let mut clients: Vec<(Client, Bot)> = (0..USERS)
        .map(|u| {
            let user = UserId(u + 1);
            let target = ids[(u % SERVERS) as usize];
            let client = Client::connect(&bus, user, target).expect("server endpoints are live");
            (client, Bot::new(user, u, BotBehavior::default()))
        })
        .collect();

    let started = Instant::now();
    let mut records: Vec<TickRecord> = Vec::with_capacity((SERVERS * TICKS) as usize);
    let mut next = started;
    for tick in 0..TICKS {
        bus.advance(tick);
        bus.pause_delivery();
        records.extend(servers.iter_mut().map(Server::tick));
        bus.resume_delivery();

        bus.pause_delivery();
        for (client, bot) in &mut clients {
            client.tick(tick, bot);
        }
        bus.resume_delivery();

        next += TICK_INTERVAL;
        match next.checked_duration_since(Instant::now()) {
            Some(ahead) => thread::sleep(ahead),
            None => next = Instant::now(), // fell behind: catch up without spiralling
        }
    }
    let elapsed = started.elapsed();
    // The last tick's updates are still in the inboxes.
    for (client, bot) in &mut clients {
        client.tick(TICKS, bot);
    }

    let mean_tick = records.iter().map(|r| r.tick_duration).sum::<f64>() / records.len() as f64;
    let updates: u64 = clients
        .iter()
        .map(|(c, _)| c.stats().updates_received)
        .sum();
    println!("elapsed real time: {elapsed:?}");
    println!("mean wall tick:    {:.3} ms", mean_tick * 1e3);
    println!("updates received:  {updates} across all users");

    // Where did the wall-clock time go? The same task taxonomy the model
    // uses (§III-A), now with real measured times.
    println!("\nper-task wall time (totals across the run):");
    for task in [
        TaskKind::UaDser,
        TaskKind::Ua,
        TaskKind::FaDser,
        TaskKind::Fa,
        TaskKind::Aoi,
        TaskKind::Su,
        TaskKind::Other,
    ] {
        let total: f64 = records.iter().map(|r| r.task(task)).sum();
        println!("  {:>10}: {:>9.3} ms", task.symbol(), total * 1e3);
    }
    println!("\n(modern hardware runs this workload orders of magnitude faster than the");
    println!("paper's 2008 testbed — which is why the experiments use calibrated");
    println!("virtual time; see DESIGN.md)");
}
