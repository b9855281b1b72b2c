//! `explain` — replay a JSONL telemetry trace as a human-readable
//! timeline.
//!
//! Reads the trace a session wrote under `--trace` (see `chaos_session`,
//! `fig8`, `recalibration`), decodes every line back into a typed
//! [`TraceEvent`], and reconstructs the controller's audit trail: for
//! every control round, the model decision with its Eq. 1–5 numbers
//! (predicted tick vs. `n_max` / trigger / `l_max`), the per-pair Eq. 5
//! migration budgets, and each issued action followed to its terminal
//! outcome. Server lifecycle, chaos faults, migration waves, calibration
//! refits and graceful-degradation episodes (degraded-mode enter/exit
//! with their cause ticks, plus every admission-control verdict) are
//! interleaved at the tick they happened.
//!
//! Usage: `roia explain TRACE.jsonl [--ticks N] [--since N] [--last N]
//! [--kind NAME]...` — `--ticks` truncates the replay after the given sim
//! tick, `--since` skips everything before one (bracket an incident with
//! `--since`/`--ticks`), `--last` keeps only the N most recent timeline
//! events after the other filters, and `--kind` (repeatable) restricts
//! the timeline to the named event kinds (`decision`, `slo_burn`,
//! `postmortem_dumped`, … — the `ev` field of the JSONL records).
//! Action issue→resolution chains are followed over the whole trace
//! before filtering, so a filtered view still shows terminal outcomes.
//! Per-server tick spans are folded into the summary instead of printed
//! (they dominate the line count).

use crate::{Args, Flag};
use roia_obs::TraceEvent;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};

/// Tick count → wall-clock seconds at the paper's 25 Hz update rate.
fn secs(tick: u64) -> f64 {
    tick as f64 * 0.040
}

/// Flags beyond the trace path.
pub const FLAGS: &[Flag] = &[
    ("--ticks", "N"),
    ("--since", "N"),
    ("--last", "N"),
    ("--kind", "NAME"),
];

struct ActionInfo {
    attempts: u32,
    outcome: Option<&'static str>,
    resolved_tick: Option<u64>,
}

pub fn run(args: &Args) -> Result<(), String> {
    let path = args.positional.as_deref().unwrap_or_default();
    let max_tick = args.num("--ticks")?.unwrap_or(u64::MAX);
    let since_tick = args.num("--since")?.unwrap_or(0);
    let last_n: Option<usize> = args.num("--last")?;
    let kinds: Vec<&str> = args.values("--kind").collect();
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;

    let mut events: Vec<TraceEvent> = Vec::new();
    let mut malformed = 0usize;
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("read {path}: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        match TraceEvent::from_json(&line) {
            Some(ev) if ev.tick() <= max_tick => events.push(ev),
            Some(_) => {}
            None => malformed += 1,
        }
    }
    // The JSONL stream interleaves emitters; order by sim-time for replay.
    events.sort_by_key(|e| e.tick());

    // First pass: follow every action to its terminal outcome so the
    // timeline can print issue→resolution chains in one line.
    let mut actions: BTreeMap<u64, ActionInfo> = BTreeMap::new();
    for ev in &events {
        match ev {
            TraceEvent::ActionIssued { action_id, .. } => {
                let info = actions.entry(*action_id).or_insert(ActionInfo {
                    attempts: 0,
                    outcome: None,
                    resolved_tick: None,
                });
                info.attempts += 1;
            }
            TraceEvent::ActionResolved {
                tick,
                action_id,
                outcome,
            } => {
                if let Some(info) = actions.get_mut(action_id) {
                    info.outcome = Some(outcome);
                    info.resolved_tick = Some(*tick);
                }
            }
            _ => {}
        }
    }

    let server_of = |id: i64| -> String {
        if id < 0 {
            "-".to_string()
        } else {
            format!("s{id}")
        }
    };

    // Timeline filters (the action map above intentionally sees the whole
    // trace, so filtered issue lines still carry their resolutions).
    let mut filtered: Vec<&TraceEvent> = events
        .iter()
        .filter(|ev| ev.tick() >= since_tick)
        .filter(|ev| kinds.is_empty() || kinds.contains(&ev.name()))
        .collect();
    if let Some(n) = last_n {
        let skip = filtered.len().saturating_sub(n);
        filtered.drain(..skip);
    }

    println!("=== trace replay: {path} ===\n");
    let mut tick_spans = 0u64;
    let mut worst_tick: Option<(u64, u32, f64)> = None;
    let mut decision_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut throttle_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut degraded_entries = 0u64;
    let mut fault_count = 0u64;
    let mut conn_opens = 0u64;
    let mut close_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut backpressure_onsets = 0u64;
    let mut corrections = 0u64;
    let mut slo_burns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut slo_recoveries = 0u64;
    let mut postmortems = 0u64;
    for ev in &filtered {
        let t = ev.tick();
        let stamp = format!("t={t:>6} ({:>7.1}s)", secs(t));
        match ev {
            TraceEvent::TickSpan {
                server, duration_s, ..
            } => {
                tick_spans += 1;
                if worst_tick.is_none_or(|(_, _, d)| *duration_s > d) {
                    worst_tick = Some((t, *server, *duration_s));
                }
            }
            TraceEvent::ControlRound {
                zone,
                servers,
                users,
                issued,
                ..
            } => {
                println!(
                    "{stamp}  control round   zone {zone}: {servers} servers, {users} users, \
                     {issued} action(s) issued"
                );
            }
            TraceEvent::Decision {
                zone,
                kind,
                model_version,
                replicas,
                users,
                forecast_users,
                npcs,
                predicted_tick_s,
                n_max,
                trigger,
                l_max,
                ..
            } => {
                *decision_counts.entry(kind).or_insert(0) += 1;
                println!(
                    "{stamp}    decision      {kind} (zone {zone}, model v{model_version}): \
                     l={replicas} n={users} m={npcs} -> T={:.1}ms | n_max={n_max} \
                     trigger={trigger} forecast={forecast_users} l_max={l_max}",
                    predicted_tick_s * 1e3
                );
            }
            TraceEvent::MigrationBudget {
                from,
                to,
                from_tick_s,
                to_tick_s,
                x_max_ini,
                x_max_rcv,
                granted,
                ..
            } => {
                println!(
                    "{stamp}    eq5 budget    s{from}({:.1}ms) -> s{to}({:.1}ms): \
                     x_max_ini={x_max_ini} x_max_rcv={x_max_rcv} granted={granted}",
                    from_tick_s * 1e3,
                    to_tick_s * 1e3
                );
            }
            TraceEvent::ActionIssued {
                action_id,
                kind,
                attempt,
                from,
                to,
                users,
                ..
            } => {
                let chain = actions
                    .get(action_id)
                    .and_then(|info| info.outcome.map(|o| (o, info.resolved_tick)));
                let resolution = match chain {
                    Some((outcome, Some(rt))) => format!(" => {outcome} @ t={rt}"),
                    Some((outcome, None)) => format!(" => {outcome}"),
                    None => " => UNRESOLVED".to_string(),
                };
                let retry = if *attempt > 0 {
                    format!(" (retry #{attempt})")
                } else {
                    String::new()
                };
                println!(
                    "{stamp}    action #{action_id:<4} {kind}{retry} {} -> {} ({users} users){resolution}",
                    server_of(*from),
                    server_of(*to)
                );
            }
            TraceEvent::ActionResolved { .. } => {} // folded into the issue line
            TraceEvent::MigrationPlanned {
                action_id,
                from,
                to,
                users,
                ..
            } => {
                let origin = if *action_id == 0 {
                    "rebalance".to_string()
                } else {
                    format!("action #{action_id}")
                };
                println!(
                    "{stamp}    migration     s{from} -> s{to}: {users} users scheduled ({origin})"
                );
            }
            TraceEvent::MigrationSettled {
                server, arrived, ..
            } => {
                println!("{stamp}    settled       {arrived} users arrived on s{server}");
            }
            TraceEvent::FaultInjected { fault, server, .. } => {
                fault_count += 1;
                println!(
                    "{stamp}  FAULT           {fault} (target {})",
                    server_of(*server)
                );
            }
            TraceEvent::FaultReverted { fault, server, .. } => {
                println!(
                    "{stamp}  fault reverted  {fault} (target {})",
                    server_of(*server)
                );
            }
            TraceEvent::ServerBooted { server, .. } => {
                println!("{stamp}  server s{server} booted");
            }
            TraceEvent::ServerCrashed { server, .. } => {
                println!("{stamp}  server s{server} CRASHED");
            }
            TraceEvent::ServerRemoved { server, .. } => {
                println!("{stamp}  server s{server} removed (scale-down)");
            }
            TraceEvent::Refit {
                reason,
                outcome,
                version,
                params,
                ..
            } => {
                println!(
                    "{stamp}  refit           reason={reason} outcome={outcome} \
                     version={version} params_updated={params}"
                );
            }
            TraceEvent::RegistrySwap {
                version, reason, ..
            } => {
                println!("{stamp}  registry swap   model v{version} live (reason: {reason})");
            }
            TraceEvent::DegradedEnter {
                cause,
                reason,
                admission,
                fidelity,
                ..
            } => {
                degraded_entries += 1;
                println!(
                    "{stamp}  DEGRADED enter  reason={reason} (cause t={cause}): \
                     new joins {admission}, aoi fidelity {fidelity:.2}"
                );
            }
            TraceEvent::DegradedExit {
                cause,
                dwell_ticks,
                queued,
                shed,
                ..
            } => {
                println!(
                    "{stamp}  degraded exit   entered t={cause}, dwelt {dwell_ticks} ticks \
                     ({:.1}s): {queued} join(s) queued, {shed} shed",
                    secs(*dwell_ticks)
                );
            }
            TraceEvent::JoinThrottled {
                cause,
                verdict,
                total,
                ..
            } => {
                *throttle_counts.entry(verdict).or_insert(0) += 1;
                println!(
                    "{stamp}    join throttle {verdict} (episode t={cause}, \
                     #{total} this episode)"
                );
            }
            TraceEvent::ConnOpened {
                peer, transport, ..
            } => {
                conn_opens += 1;
                println!("{stamp}  conn open       peer {peer} ({transport})");
            }
            TraceEvent::ConnClosed {
                cause,
                peer,
                reason,
                ..
            } => {
                *close_counts.entry(reason).or_insert(0) += 1;
                println!(
                    "{stamp}  conn close      peer {peer}: {reason} \
                     (opened t={cause}, lived {} ticks)",
                    t.saturating_sub(*cause)
                );
            }
            TraceEvent::Backpressure {
                cause,
                peer,
                state,
                queued_bytes,
                ..
            } => {
                if *state == "onset" {
                    backpressure_onsets += 1;
                    println!(
                        "{stamp}  BACKPRESSURE    peer {peer}: onset, \
                         {queued_bytes} bytes queued"
                    );
                } else {
                    println!(
                        "{stamp}  backpressure    peer {peer}: relief \
                         (onset t={cause}, lasted {} ticks)",
                        t.saturating_sub(*cause)
                    );
                }
            }
            TraceEvent::ReconcileCorrection {
                peer, seq, error, ..
            } => {
                corrections += 1;
                println!(
                    "{stamp}    reconcile     user {peer}: prediction off by \
                     {error} units at ack seq {seq}"
                );
            }
            TraceEvent::SloBurn {
                cause,
                slo,
                severity,
                fast_burn_pm,
                slow_burn_pm,
                ..
            } => {
                *slo_burns.entry(slo).or_insert(0) += 1;
                println!(
                    "{stamp}  SLO BURN        {slo} [{severity}] (cause t={cause}): \
                     burning {:.1}x budget (fast) / {:.1}x (slow)",
                    *fast_burn_pm as f64 / 1e3,
                    *slow_burn_pm as f64 / 1e3
                );
            }
            TraceEvent::SloRecovered {
                cause,
                slo,
                burn_ticks,
                ..
            } => {
                slo_recoveries += 1;
                println!(
                    "{stamp}  slo recovered   {slo} (cause t={cause}, burned {burn_ticks} \
                     ticks = {:.1}s)",
                    secs(*burn_ticks)
                );
            }
            TraceEvent::PostmortemDumped {
                cause,
                reason,
                seq,
                events,
                decisions,
                model_version,
                ..
            } => {
                postmortems += 1;
                println!(
                    "{stamp}  POSTMORTEM #{seq} reason={reason} (cause t={cause}): \
                     {events} events, {decisions} decisions, model v{model_version}"
                );
            }
        }
    }

    println!("\n=== summary ===");
    if filtered.len() != events.len() {
        println!(
            "events: {} shown of {} decoded ({} malformed lines skipped)",
            filtered.len(),
            events.len(),
            malformed
        );
    } else {
        println!(
            "events: {} ({} malformed lines skipped)",
            events.len(),
            malformed
        );
    }
    println!("server tick spans: {tick_spans}");
    if let Some((t, server, d)) = worst_tick {
        println!(
            "worst tick: {:.2} ms on s{server} at t={t} ({:.1}s)",
            d * 1e3,
            secs(t)
        );
    }
    if !decision_counts.is_empty() {
        println!("decisions:");
        for (kind, count) in &decision_counts {
            println!("  {kind:<14} {count}");
        }
    }
    if !actions.is_empty() {
        let mut outcomes: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut unresolved = 0u64;
        for info in actions.values() {
            match info.outcome {
                Some(o) => *outcomes.entry(o).or_insert(0) += 1,
                None => unresolved += 1,
            }
        }
        let retried = actions.values().filter(|i| i.attempts > 1).count();
        println!("actions: {} issued ({retried} retried)", actions.len());
        for (outcome, count) in &outcomes {
            println!("  {outcome:<14} {count}");
        }
        if unresolved > 0 {
            println!("  UNRESOLVED     {unresolved} (trace truncated or ledger leak)");
        }
    }
    println!("faults injected: {fault_count}");
    if degraded_entries > 0 || !throttle_counts.is_empty() {
        println!("degraded episodes: {degraded_entries}");
        for (verdict, count) in &throttle_counts {
            println!("  joins {verdict:<12} {count}");
        }
    }
    if conn_opens > 0 || !close_counts.is_empty() {
        println!("connections opened: {conn_opens}");
        for (reason, count) in &close_counts {
            println!("  closed {reason:<12} {count}");
        }
    }
    if backpressure_onsets > 0 {
        println!("backpressure onsets: {backpressure_onsets}");
    }
    if corrections > 0 {
        println!("reconciliation corrections: {corrections}");
    }
    if !slo_burns.is_empty() || slo_recoveries > 0 {
        println!("slo burns:");
        for (slo, count) in &slo_burns {
            println!("  {slo:<20} {count}");
        }
        println!("slo recoveries: {slo_recoveries}");
    }
    if postmortems > 0 {
        println!("postmortem bundles dumped: {postmortems}");
    }
    Ok(())
}
