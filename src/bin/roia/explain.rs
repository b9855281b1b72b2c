//! `explain` — the one reader of a JSONL telemetry trace: a timeline of
//! what happened, then one summary of where the tick time went.
//!
//! Reads the trace a session wrote under `--trace` (see `chaos_session`,
//! `fig8`, `recalibration`), decodes every line back into a typed
//! [`TraceEvent`], and folds the events, in tick order, into one
//! [`Replay`]. The timeline reconstructs the controller's audit trail:
//! for every control round, the model decision with its Eq. 1–5 numbers
//! (predicted tick vs. `n_max` / trigger / `l_max`), the per-pair Eq. 5
//! migration budgets, and each issued action followed to its terminal
//! outcome. Server lifecycle, chaos faults, migration waves, calibration
//! refits and graceful-degradation episodes (degraded-mode enter/exit
//! with their cause ticks, plus every admission-control verdict) are
//! interleaved at the tick they happened. Per-server tick spans are
//! folded into the summary instead of printed (they dominate the line
//! count).
//!
//! The summary gives per-server and merged tick-latency p50/p99, the
//! servers, users, queued joins and degraded state at the end of the
//! trace, the Eq. (1) attribution (seconds and share per
//! `TickSpan.per_task` slot, and how much of the tick time they cover),
//! and the five standard SLO verdicts. `tick_budget` and `tick_p99` are
//! replayed from the spans through [`SloEngine::standard`], fed as
//! `Cluster::step` feeds it, and checked against the trace's own
//! `slo_burn`/`slo_recovered` events. The other three objectives read
//! inputs the trace does not carry (every join request, the transport
//! duty cycle, the invariant oracle), so their verdicts are the trace's.
//!
//! Usage: `roia explain TRACE.jsonl [--ticks N] [--since N] [--last N]
//! [--kind NAME]... [--json PATH]` — `--ticks` truncates the replay after
//! the given sim tick. `--since`, `--last` and `--kind` filter only the
//! timeline: `--since` skips everything before one tick (bracket an
//! incident with `--since`/`--ticks`), `--last` keeps only the N most
//! recent timeline events after the other filters, and `--kind`
//! (repeatable) keeps the named event kinds (`decision`, `slo_burn`,
//! `postmortem_dumped`, … — the `ev` field of the JSONL records). Action
//! issue→resolution chains are followed over the whole trace, so a
//! filtered view still shows terminal outcomes. `--json` writes the
//! summary as one deterministic object. The run fails when the per-task
//! seconds miss the tick durations by more than 1 %.

use crate::{write_json_doc, Args, Flag};
use roia_obs::export;
use roia_obs::slo::{SLO_TICK_BUDGET, SLO_TICK_P99};
use roia_obs::{
    secs_to_micros, Histogram, SloEngine, SloGauge, TraceEvent, TASK_SLOTS, TERM_SYMBOLS,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};

/// Flags beyond the trace path, `--ticks` and `--json`.
pub const FLAGS: &[Flag] = &[("--since", "N"), ("--last", "N"), ("--kind", "NAME")];

/// The tick budget U every trace writer runs at, in seconds.
const U: f64 = 0.040;

/// The objectives replayed from the tick spans.
const REPLAYED: [&str; 2] = [SLO_TICK_BUDGET, SLO_TICK_P99];

/// Tick count → wall-clock seconds at the paper's 25 Hz update rate.
fn secs(tick: u64) -> f64 {
    tick as f64 * 0.040
}

#[derive(Default)]
struct ServerStat {
    hist: Histogram,
    alive: bool,
    /// Active users on the server's last span.
    users: u32,
}

/// The spans read so far of one sim tick.
#[derive(Clone, Copy, Default)]
struct OpenTick {
    tick: u64,
    spans: u64,
    /// Spans at or over U.
    over: u64,
    /// Spans at or over 0.9 U.
    near: u64,
}

/// `tick_budget` and `tick_p99` replayed from the spans, one sim tick at
/// a time, as `Cluster::step` feeds its engine: over U and at least
/// 0.9 U, out of that tick's spans.
struct SpanSlos {
    engine: SloEngine,
    open: Option<OpenTick>,
    ticks: u64,
    /// The transitions, as the events the cluster writes.
    transitions: Vec<TraceEvent>,
}

impl Default for SpanSlos {
    fn default() -> Self {
        Self {
            engine: SloEngine::standard(),
            open: None,
            ticks: 0,
            transitions: Vec::new(),
        }
    }
}

impl SpanSlos {
    /// Takes one span; the events arrive in tick order, so a later tick
    /// closes the open one and every tick between them, which had no
    /// spans but still ended a cluster step.
    fn span(&mut self, tick: u64, duration_s: f64) {
        if let Some(open) = self.open.filter(|o| o.tick != tick) {
            self.open = None;
            self.close(open);
            for empty in open.tick + 1..tick {
                let empty = OpenTick {
                    tick: empty,
                    ..OpenTick::default()
                };
                self.close(empty);
            }
        }
        let open = self.open.get_or_insert(OpenTick {
            tick,
            ..OpenTick::default()
        });
        open.spans += 1;
        open.over += u64::from(duration_s >= U);
        open.near += u64::from(duration_s >= 0.9 * U);
    }

    fn close(&mut self, t: OpenTick) {
        self.engine.observe(SLO_TICK_BUDGET, t.over, t.spans);
        self.engine.observe(SLO_TICK_P99, t.near, t.spans);
        let transitions = self.engine.end_tick(t.tick);
        self.transitions
            .extend(transitions.iter().map(|tr| tr.to_event(t.tick)));
        self.ticks += 1;
    }

    /// Closes the last tick (the end of the trace).
    fn finish(&mut self) {
        if let Some(open) = self.open.take() {
            self.close(open);
        }
    }
}

/// The summary, folded from the decoded events one at a time in tick
/// order ([`Replay::feed`], then [`SpanSlos::finish`]).
#[derive(Default)]
struct Replay {
    malformed: u64,
    last_tick: u64,
    worst: Option<(u64, u32, f64)>,
    servers: BTreeMap<u32, ServerStat>,
    /// Observed seconds per `TickSpan.per_task` slot, summed over spans.
    task_seconds: [f64; TASK_SLOTS],
    span_seconds: f64,
    slos: SpanSlos,
    /// The trace's own `slo_burn`/`slo_recovered` events.
    traced: Vec<TraceEvent>,
    degraded_since: Option<u64>,
    /// Every issued action's terminal outcome and its tick, once known.
    actions: BTreeMap<u64, Option<(&'static str, u64)>>,
    /// Events per `(ev, detail)`: the decision kind, throttle verdict,
    /// close reason or backpressure state, "retry" for an action issued
    /// again after a failure, else "".
    counts: BTreeMap<(&'static str, &'static str), u64>,
}

impl Replay {
    fn feed(&mut self, ev: &TraceEvent) {
        self.last_tick = self.last_tick.max(ev.tick());
        let detail = match ev {
            TraceEvent::Decision { kind, .. } => kind,
            TraceEvent::ActionIssued { attempt: 1.., .. } => "retry",
            TraceEvent::JoinThrottled { verdict, .. } => verdict,
            TraceEvent::ConnClosed { reason, .. } => reason,
            TraceEvent::Backpressure { state, .. } => state,
            _ => "",
        };
        *self.counts.entry((ev.name(), detail)).or_insert(0) += 1;
        match ev {
            TraceEvent::TickSpan {
                tick,
                server,
                duration_s,
                per_task,
                active_users,
                ..
            } => {
                self.span_seconds += duration_s;
                for (sum, s) in self.task_seconds.iter_mut().zip(per_task) {
                    *sum += s;
                }
                let stat = self.servers.entry(*server).or_default();
                stat.hist.record(secs_to_micros(*duration_s));
                stat.alive = true;
                stat.users = *active_users;
                if self.worst.is_none_or(|(_, _, d)| *duration_s > d) {
                    self.worst = Some((*tick, *server, *duration_s));
                }
                self.slos.span(*tick, *duration_s);
            }
            TraceEvent::ServerCrashed { server, .. } | TraceEvent::ServerRemoved { server, .. } => {
                if let Some(stat) = self.servers.get_mut(server) {
                    stat.alive = false;
                }
            }
            TraceEvent::DegradedEnter { tick, .. } => self.degraded_since = Some(*tick),
            TraceEvent::DegradedExit { .. } => self.degraded_since = None,
            TraceEvent::SloBurn { .. } | TraceEvent::SloRecovered { .. } => {
                self.traced.push(ev.clone());
            }
            TraceEvent::ActionIssued { action_id, .. } => {
                self.actions.insert(*action_id, None);
            }
            TraceEvent::ActionResolved {
                tick,
                action_id,
                outcome,
            } => {
                if let Some(resolved) = self.actions.get_mut(action_id) {
                    *resolved = Some((outcome, *tick));
                }
            }
            _ => {}
        }
    }

    /// Events named `name`, of any detail.
    fn count(&self, name: &str) -> u64 {
        self.details(name).map(|(_, n)| n).sum()
    }

    /// `(detail, count)` of every `name` event.
    fn details<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'static str, u64)> + 'a {
        self.counts
            .iter()
            .filter(move |((ev, _), _)| *ev == name)
            .map(|((_, detail), n)| (*detail, *n))
    }

    /// Servers and users at the end of the trace.
    fn alive(&self) -> (u64, u64) {
        let alive = self.servers.values().filter(|s| s.alive);
        let users = alive.clone().map(|s| u64::from(s.users)).sum();
        (alive.count() as u64, users)
    }

    /// The merged and then each server's `(server, alive, p50 µs, p99 µs)`.
    fn latency(&self) -> Vec<(Option<u32>, bool, u64, u64)> {
        let mut merged = Histogram::new();
        let mut rows = Vec::new();
        for (id, stat) in &self.servers {
            merged.merge(&stat.hist);
            let (p50, p99) = (stat.hist.percentile(0.50), stat.hist.percentile(0.99));
            rows.push((Some(*id), stat.alive, p50, p99));
        }
        let all = (None, true, merged.percentile(0.50), merged.percentile(0.99));
        rows.insert(0, all);
        rows
    }

    /// Fraction of the spans' tick time the task slots account for
    /// (1.0: `TickSpan.per_task` partitions `duration_s`).
    fn coverage(&self) -> f64 {
        if self.span_seconds <= 0.0 {
            return 1.0;
        }
        self.task_seconds.iter().sum::<f64>() / self.span_seconds
    }

    /// The per-slot `(symbol, seconds, share)` rows.
    fn attribution(&self) -> impl Iterator<Item = (&'static str, f64, f64)> + '_ {
        let total = self.task_seconds.iter().sum::<f64>().max(1e-12);
        self.task_seconds.iter().enumerate().map(move |(slot, s)| {
            // `TaskKind::ALL` order: the nine modeled terms, then t_other.
            let symbol = TERM_SYMBOLS.get(slot).copied().unwrap_or("t_other");
            (symbol, *s, s / total)
        })
    }

    /// The five standard objectives, in the engine's order: each one's
    /// transitions in the trace and, for a replayed one, in the replay.
    fn verdicts(&self) -> Vec<Verdict<'_>> {
        self.slos
            .engine
            .gauges()
            .into_iter()
            .map(|gauge| Verdict {
                traced: transitions(&self.traced, gauge.slo),
                replayed: REPLAYED
                    .contains(&gauge.slo)
                    .then(|| transitions(&self.slos.transitions, gauge.slo)),
                gauge,
            })
            .collect()
    }

    /// The summary as one deterministic JSON object.
    fn to_json(&self, path: &str) -> String {
        let latency = self.latency();
        let servers: Vec<String> = latency[1..]
            .iter()
            .map(|&(id, alive, p50, p99)| {
                export::object(&[
                    ("server", export::uint(u64::from(id.unwrap_or_default()))),
                    ("alive", alive.to_string()),
                    ("p50_us", export::uint(p50)),
                    ("p99_us", export::uint(p99)),
                ])
            })
            .collect();
        let attribution: Vec<String> = self
            .attribution()
            .map(|(symbol, seconds, share)| {
                export::object(&[
                    ("symbol", export::string(symbol)),
                    ("seconds", export::num(seconds)),
                    ("share", export::num(share)),
                ])
            })
            .collect();
        let slo: Vec<String> = self.verdicts().iter().map(Verdict::to_json).collect();
        let (worst_tick, worst_server, worst_s) = self.worst.unwrap_or((0, 0, 0.0));
        let (servers_alive, users) = self.alive();
        export::object(&[
            ("trace", export::string(path)),
            ("events", export::uint(self.counts.values().sum())),
            ("malformed", export::uint(self.malformed)),
            ("spans", export::uint(self.count("tick_span"))),
            ("ticks", export::uint(self.slos.ticks)),
            ("last_tick", export::uint(self.last_tick)),
            ("u_ms", export::num(U * 1e3)),
            ("users", export::uint(users)),
            ("servers", export::uint(servers_alive)),
            ("queued", export::uint(self.queued())),
            ("degraded", self.degraded_since.is_some().to_string()),
            ("p50_us", export::uint(latency[0].2)),
            ("p99_us", export::uint(latency[0].3)),
            ("worst_us", export::uint(secs_to_micros(worst_s))),
            ("worst_server", export::uint(u64::from(worst_server))),
            ("worst_tick", export::uint(worst_tick)),
            ("per_server", export::array(&servers)),
            ("coverage", export::num(self.coverage())),
            ("slo", export::array(&slo)),
            ("attribution", export::array(&attribution)),
            ("trace_burns", export::uint(self.count("slo_burn"))),
            (
                "trace_recoveries",
                export::uint(self.count("slo_recovered")),
            ),
            ("postmortems", export::uint(self.count("postmortem_dumped"))),
        ])
    }

    /// Joins queued by admission control over the trace.
    fn queued(&self) -> u64 {
        self.counts
            .get(&("join_throttled", "queue"))
            .copied()
            .unwrap_or(0)
    }

    /// The summary as text, after the timeline.
    fn print(&self, shown: usize) {
        let events: u64 = self.counts.values().sum();
        println!("\n=== summary ===");
        if shown as u64 != events {
            print!("events: {shown} shown of {events} decoded");
        } else {
            print!("events: {events}");
        }
        println!(" ({} malformed lines skipped)", self.malformed);
        let spans = self.count("tick_span");
        println!("server tick spans: {spans}");
        if let Some((t, server, d)) = self.worst {
            println!(
                "worst tick: {:.2} ms on s{server} at t={t} ({:.1}s)",
                d * 1e3,
                secs(t)
            );
        }
        for (id, alive, p50, p99) in self.latency().into_iter().filter(|_| spans > 0) {
            let ms = |us| us as f64 / 1e3;
            let (p50, p99) = (ms(p50), ms(p99));
            match id {
                None => println!(
                    "tick latency: p50 {p50:.2} ms, p99 {p99:.2} ms (U = {} ms)",
                    U * 1e3
                ),
                Some(id) => println!(
                    "  s{id:<4} p50 {p50:>7.2} ms  p99 {p99:>7.2} ms{}",
                    if alive { "" } else { "  (gone)" }
                ),
            }
        }
        let degraded = match self.degraded_since {
            Some(t) => format!("degraded since t={t}"),
            None => "not degraded".to_string(),
        };
        let ((servers, users), queued) = (self.alive(), self.queued());
        println!(
            "end of trace: t={}, {servers} servers, {users} users, {queued} joins queued, {degraded}",
            self.last_tick
        );
        if spans > 0 {
            println!("attribution (coverage {:.1} %):", self.coverage() * 1e2);
            for (symbol, seconds, share) in self.attribution() {
                println!("  {symbol:<10} {seconds:>9.3} s {:>6.1} %", share * 1e2);
            }
        }
        if self.count("decision") > 0 {
            println!("decisions:");
            for (kind, count) in self.details("decision") {
                println!("  {kind:<14} {count}");
            }
        }
        if !self.actions.is_empty() {
            let mut outcomes: BTreeMap<&'static str, u64> = BTreeMap::new();
            for resolved in self.actions.values() {
                let outcome = resolved.map_or("UNRESOLVED", |(o, _)| o);
                *outcomes.entry(outcome).or_insert(0) += 1;
            }
            let retried = self.counts.get(&("action_issued", "retry")).unwrap_or(&0);
            println!("actions: {} issued ({retried} retried)", self.actions.len());
            for (outcome, count) in &outcomes {
                println!("  {outcome:<14} {count}");
            }
        }
        println!("faults injected: {}", self.count("fault_injected"));
        let degraded_entries = self.count("degraded_enter");
        if degraded_entries > 0 || self.count("join_throttled") > 0 {
            println!("degraded episodes: {degraded_entries}");
            for (verdict, count) in self.details("join_throttled") {
                println!("  joins {verdict:<12} {count}");
            }
        }
        let conn_opens = self.count("conn_opened");
        if conn_opens > 0 || self.count("conn_closed") > 0 {
            println!("connections opened: {conn_opens}");
            for (reason, count) in self.details("conn_closed") {
                println!("  closed {reason:<12} {count}");
            }
        }
        if let Some(onsets) = self.counts.get(&("backpressure", "onset")) {
            println!("backpressure onsets: {onsets}");
        }
        let corrections = self.count("reconcile_correction");
        if corrections > 0 {
            println!("reconciliation corrections: {corrections}");
        }
        println!(
            "slo verdicts ({}: replayed from the spans):",
            REPLAYED.join(", ")
        );
        for v in self.verdicts() {
            let (burns, recoveries) = tally(&v.traced);
            let slo = v.gauge.slo;
            print!("  {slo:<20} trace {burns} burn(s), {recoveries} recovery(ies)");
            match &v.replayed {
                Some(replayed) => {
                    let (burns, recoveries) = tally(replayed);
                    let agrees = if v.agrees() { "agrees" } else { "DISAGREES" };
                    println!("; replay {burns}/{recoveries}: {agrees}");
                }
                None => println!(),
            }
        }
        let postmortems = self.count("postmortem_dumped");
        if postmortems > 0 {
            println!("postmortem bundles dumped: {postmortems}");
        }
    }
}

/// One standard objective's transitions: the trace's own and, for a
/// replayed objective, the replay's.
struct Verdict<'a> {
    /// The replay's gauge at the end of the trace.
    gauge: SloGauge,
    traced: Vec<&'a TraceEvent>,
    replayed: Option<Vec<&'a TraceEvent>>,
}

impl Verdict<'_> {
    /// Whether the replay burned and recovered exactly as the trace did.
    fn agrees(&self) -> bool {
        self.replayed.as_ref().is_none_or(|r| *r == self.traced)
    }

    /// The objective's row of the JSON summary.
    fn to_json(&self) -> String {
        let (trace_burns, trace_recoveries) = tally(&self.traced);
        let Some(replayed) = &self.replayed else {
            let burning = matches!(self.traced.last(), Some(TraceEvent::SloBurn { .. }));
            return export::object(&[
                ("slo", export::string(self.gauge.slo)),
                ("source", export::string("trace")),
                ("burning", burning.to_string()),
                ("burns", export::uint(trace_burns)),
                ("recoveries", export::uint(trace_recoveries)),
            ]);
        };
        let (burns, recoveries) = tally(replayed);
        let events: Vec<String> = replayed.iter().map(|ev| ev.to_json()).collect();
        export::object(&[
            ("slo", export::string(self.gauge.slo)),
            ("source", export::string("replay")),
            ("fast_burn_pm", export::uint(self.gauge.fast_burn_pm)),
            ("slow_burn_pm", export::uint(self.gauge.slow_burn_pm)),
            ("burning", self.gauge.burning.to_string()),
            ("burns", export::uint(burns)),
            ("recoveries", export::uint(recoveries)),
            ("trace_burns", export::uint(trace_burns)),
            ("trace_recoveries", export::uint(trace_recoveries)),
            ("matches_trace", self.agrees().to_string()),
            ("transitions", export::array(&events)),
        ])
    }
}

/// The transitions of objective `slo` among `events`.
fn transitions<'a>(events: &'a [TraceEvent], slo: &str) -> Vec<&'a TraceEvent> {
    let slo_of = |ev: &TraceEvent| match ev {
        TraceEvent::SloBurn { slo, .. } | TraceEvent::SloRecovered { slo, .. } => *slo,
        _ => "",
    };
    events.iter().filter(|ev| slo_of(ev) == slo).collect()
}

/// `(burns, recoveries)` among `transitions`.
fn tally(transitions: &[&TraceEvent]) -> (u64, u64) {
    let burns = transitions
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::SloBurn { .. }))
        .count() as u64;
    (burns, transitions.len() as u64 - burns)
}

pub fn run(args: &Args) -> Result<(), String> {
    let path = args.positional.as_deref().unwrap_or_default();
    let max_tick = args.ticks.unwrap_or(u64::MAX);
    let since_tick = args.num("--since")?.unwrap_or(0);
    let last_n: Option<usize> = args.num("--last")?;
    let kinds: Vec<&str> = args.values("--kind").collect();
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;

    let mut replay = Replay::default();
    let mut events: Vec<TraceEvent> = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("read {path}: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        match TraceEvent::from_json(&line) {
            Some(ev) if ev.tick() <= max_tick => events.push(ev),
            Some(_) => {}
            None => replay.malformed += 1,
        }
    }
    // The JSONL stream interleaves emitters; order by sim-time for replay.
    events.sort_by_key(|e| e.tick());
    for ev in &events {
        replay.feed(ev);
    }
    replay.slos.finish();

    let mut shown: Vec<&TraceEvent> = events
        .iter()
        .filter(|ev| ev.tick() >= since_tick)
        .filter(|ev| kinds.is_empty() || kinds.contains(&ev.name()))
        .collect();
    if let Some(n) = last_n {
        let skip = shown.len().saturating_sub(n);
        shown.drain(..skip);
    }
    println!("=== trace replay: {path} ===\n");
    for ev in &shown {
        if let Some(line) = timeline(ev, &replay.actions) {
            let t = ev.tick();
            println!("t={t:>6} ({:>7.1}s){line}", secs(t));
        }
    }
    replay.print(shown.len());

    write_json_doc(args, None, &replay.to_json(path))?;
    let coverage = replay.coverage();
    if (coverage - 1.0).abs() > 0.01 {
        return Err(format!(
            "per-task seconds must match tick durations within 1% (got {coverage})"
        ));
    }
    Ok(())
}

/// The timeline line of `ev` after its time stamp; none for a tick span
/// or an action's resolution, which its issue line carries.
fn timeline(ev: &TraceEvent, actions: &BTreeMap<u64, Option<(&str, u64)>>) -> Option<String> {
    let server_of = |id: i64| -> String {
        if id < 0 {
            "-".to_string()
        } else {
            format!("s{id}")
        }
    };
    let t = ev.tick();
    Some(match ev {
        TraceEvent::TickSpan { .. } | TraceEvent::ActionResolved { .. } => return None,
        TraceEvent::ControlRound {
            zone,
            servers,
            users,
            issued,
            ..
        } => format!(
            "  control round   zone {zone}: {servers} servers, {users} users, \
             {issued} action(s) issued"
        ),
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
        } => format!(
            "    decision      {kind} (zone {zone}, model v{model_version}): \
             l={replicas} n={users} m={npcs} -> T={:.1}ms | n_max={n_max} \
             trigger={trigger} forecast={forecast_users} l_max={l_max}",
            predicted_tick_s * 1e3
        ),
        TraceEvent::MigrationBudget {
            from,
            to,
            from_tick_s,
            to_tick_s,
            x_max_ini,
            x_max_rcv,
            granted,
            ..
        } => format!(
            "    eq5 budget    s{from}({:.1}ms) -> s{to}({:.1}ms): \
             x_max_ini={x_max_ini} x_max_rcv={x_max_rcv} granted={granted}",
            from_tick_s * 1e3,
            to_tick_s * 1e3
        ),
        TraceEvent::ActionIssued {
            action_id,
            kind,
            attempt,
            from,
            to,
            users,
            ..
        } => {
            let resolution = match actions.get(action_id).copied().flatten() {
                Some((outcome, rt)) => format!(" => {outcome} @ t={rt}"),
                None => " => UNRESOLVED".to_string(),
            };
            let retry = if *attempt > 0 {
                format!(" (retry #{attempt})")
            } else {
                String::new()
            };
            format!(
                "    action #{action_id:<4} {kind}{retry} {} -> {} ({users} users){resolution}",
                server_of(*from),
                server_of(*to)
            )
        }
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
            format!("    migration     s{from} -> s{to}: {users} users scheduled ({origin})")
        }
        TraceEvent::MigrationSettled {
            server, arrived, ..
        } => format!("    settled       {arrived} users arrived on s{server}"),
        TraceEvent::FaultInjected { fault, server, .. } => {
            format!("  FAULT           {fault} (target {})", server_of(*server))
        }
        TraceEvent::FaultReverted { fault, server, .. } => {
            format!("  fault reverted  {fault} (target {})", server_of(*server))
        }
        TraceEvent::ServerBooted { server, .. } => format!("  server s{server} booted"),
        TraceEvent::ServerCrashed { server, .. } => format!("  server s{server} CRASHED"),
        TraceEvent::ServerRemoved { server, .. } => {
            format!("  server s{server} removed (scale-down)")
        }
        TraceEvent::Refit {
            reason,
            outcome,
            version,
            params,
            ..
        } => format!(
            "  refit           reason={reason} outcome={outcome} \
             version={version} params_updated={params}"
        ),
        TraceEvent::RegistrySwap {
            version, reason, ..
        } => format!("  registry swap   model v{version} live (reason: {reason})"),
        TraceEvent::DegradedEnter {
            cause,
            reason,
            admission,
            fidelity,
            ..
        } => format!(
            "  DEGRADED enter  reason={reason} (cause t={cause}): \
             new joins {admission}, aoi fidelity {fidelity:.2}"
        ),
        TraceEvent::DegradedExit {
            cause,
            dwell_ticks,
            queued,
            shed,
            ..
        } => format!(
            "  degraded exit   entered t={cause}, dwelt {dwell_ticks} ticks \
             ({:.1}s): {queued} join(s) queued, {shed} shed",
            secs(*dwell_ticks)
        ),
        TraceEvent::JoinThrottled {
            cause,
            verdict,
            total,
            ..
        } => format!("    join throttle {verdict} (episode t={cause}, #{total} this episode)"),
        TraceEvent::ConnOpened {
            peer, transport, ..
        } => format!("  conn open       peer {peer} ({transport})"),
        TraceEvent::ConnClosed {
            cause,
            peer,
            reason,
            ..
        } => format!(
            "  conn close      peer {peer}: {reason} (opened t={cause}, lived {} ticks)",
            t.saturating_sub(*cause)
        ),
        TraceEvent::Backpressure {
            peer,
            state: "onset",
            queued_bytes,
            ..
        } => format!("  BACKPRESSURE    peer {peer}: onset, {queued_bytes} bytes queued"),
        TraceEvent::Backpressure { cause, peer, .. } => format!(
            "  backpressure    peer {peer}: relief (onset t={cause}, lasted {} ticks)",
            t.saturating_sub(*cause)
        ),
        TraceEvent::ReconcileCorrection {
            peer, seq, error, ..
        } => format!(
            "    reconcile     user {peer}: prediction off by {error} units at ack seq {seq}"
        ),
        TraceEvent::SloBurn {
            cause,
            slo,
            severity,
            fast_burn_pm,
            slow_burn_pm,
            ..
        } => format!(
            "  SLO BURN        {slo} [{severity}] (cause t={cause}): \
             burning {:.1}x budget (fast) / {:.1}x (slow)",
            *fast_burn_pm as f64 / 1e3,
            *slow_burn_pm as f64 / 1e3
        ),
        TraceEvent::SloRecovered {
            cause,
            slo,
            burn_ticks,
            ..
        } => format!(
            "  slo recovered   {slo} (cause t={cause}, burned {burn_ticks} ticks = {:.1}s)",
            secs(*burn_ticks)
        ),
        TraceEvent::PostmortemDumped {
            cause,
            reason,
            seq,
            events,
            decisions,
            model_version,
            ..
        } => format!(
            "  POSTMORTEM #{seq} reason={reason} (cause t={cause}): \
             {events} events, {decisions} decisions, model v{model_version}"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roia_obs::export::JsonValue;

    fn span(tick: u64, server: u32, duration_s: f64) -> TraceEvent {
        let mut per_task = [0.0; TASK_SLOTS];
        per_task[1] = duration_s * 0.6; // t_ua
        per_task[5] = duration_s * 0.4; // t_aoi
        TraceEvent::TickSpan {
            tick,
            server,
            zone: 1,
            duration_s,
            per_task,
            active_users: 10,
            shadow_users: 5,
            npcs: 0,
            migrations_initiated: 0,
            migrations_received: 0,
        }
    }

    #[test]
    fn replay_builds_state_and_summary_parses() {
        let mut replay = Replay::default();
        // Ticks 0..20 with a gap at 10: one server well under U, one over.
        for tick in (0..20u64).filter(|t| *t != 10) {
            replay.feed(&span(tick, 1, 0.010));
            replay.feed(&span(tick, 2, 0.050));
        }
        // The trace's own burn agrees with the replay for tick_budget
        // only; its tick_p99 burn is missing.
        replay.feed(&TraceEvent::SloBurn {
            tick: 0,
            cause: 0,
            slo: SLO_TICK_BUDGET,
            severity: "page",
            fast_burn_pm: 500_000,
            slow_burn_pm: 500_000,
        });
        // A scale-up retried once: two issues, the retry resolved.
        for (action_id, attempt) in [(1, 0), (2, 1)] {
            replay.feed(&TraceEvent::ActionIssued {
                tick: 19,
                cause: 19,
                action_id,
                kind: "add_replica",
                attempt,
                from: -1,
                to: -1,
                users: 0,
            });
        }
        replay.feed(&TraceEvent::ActionResolved {
            tick: 19,
            action_id: 2,
            outcome: "succeeded",
        });
        replay.slos.finish();
        assert_eq!(replay.count("action_issued"), 2);
        assert_eq!(replay.counts[&("action_issued", "retry")], 1);
        assert_eq!(replay.actions[&1], None);
        assert_eq!(replay.actions[&2], Some(("succeeded", 19)));
        assert_eq!(replay.count("tick_span"), 38);
        assert_eq!(replay.slos.ticks, 20, "the gap tick is fed empty");
        assert_eq!(replay.alive(), (2, 20));
        assert!((replay.coverage() - 1.0).abs() < 1e-9);
        let burns: Vec<(u64, &str, &str)> = replay
            .slos
            .transitions
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::SloBurn {
                    tick,
                    slo,
                    severity,
                    ..
                } => Some((*tick, *slo, *severity)),
                _ => None,
            })
            .collect();
        assert_eq!(
            burns,
            [(0, SLO_TICK_BUDGET, "page"), (0, SLO_TICK_P99, "page")]
        );

        let doc = replay.to_json("sample");
        let parsed = export::parse_object(&doc).expect("summary parses");
        assert_eq!(parsed["spans"].as_u64(), Some(38), "{doc}");
        assert_eq!(parsed["trace_burns"].as_u64(), Some(1), "{doc}");
        assert_eq!(parsed["attribution"].as_arr().map(<[_]>::len), Some(10));
        let rows = parsed["slo"].as_arr().expect("slo rows");
        assert_eq!(rows.len(), 5);
        let row = |i: usize, key: &str| rows[i].as_obj().and_then(|o| o.get(key)).cloned();
        assert_eq!(row(0, "slo"), Some(JsonValue::Str(SLO_TICK_BUDGET.into())));
        assert_eq!(row(0, "matches_trace"), Some(JsonValue::Bool(true)));
        assert_eq!(row(1, "matches_trace"), Some(JsonValue::Bool(false)));
        assert_eq!(row(2, "source"), Some(JsonValue::Str("trace".into())));
    }
}
