//! The five workloads and the loop they share.
//!
//! Every workload is a closed loop run back to back: the next tick starts
//! when the previous one returns, each bot or client submits one input per
//! tick. Timed windows call only the top-level entry point between two
//! `Instant` reads and push the difference into a preallocated vector;
//! everything the harness does for itself (reading records, digests, the
//! next round's inputs) happens between ticks, outside those two reads.

pub mod cluster;
pub mod session;

use crate::report::{Metric, Outcome};
use crate::stats;
use std::time::{Duration, Instant};

/// Warm-up ticks before every timed window: scratch buffers, histograms
/// and the AoI index allocate lazily.
pub const WARMUP_TICKS: u64 = 200;

/// Segments the window is cut into for `user_ticks_per_s`: ~30 ms each
/// in an 8 s window, short enough that a burst of stolen CPU time spoils
/// a minority of them and leaves the median segment clean.
const RATE_SEGMENTS: usize = 256;

/// Tick durations a window keeps (see [`stats::Strided`]).
pub const MAX_SAMPLES: usize = 65_536;

/// The five workloads, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One zone, 400 users on 4 replicas, everything optional off.
    ZoneSteady,
    /// 8 zones through the worker pool, a shared bus and zone travel.
    MultizoneFanout,
    /// Sine-wave population with crashes and full telemetry.
    ChurnFullStack,
    /// 256 sessions over the in-process bus transport.
    SessionBus256,
    /// 2 sessions over loopback TCP.
    SessionTcp2,
}

impl Workload {
    /// All of them.
    pub const ALL: [Workload; 5] = [
        Workload::ZoneSteady,
        Workload::MultizoneFanout,
        Workload::ChurnFullStack,
        Workload::SessionBus256,
        Workload::SessionTcp2,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZoneSteady => "zone_steady",
            Workload::MultizoneFanout => "multizone_fanout",
            Workload::ChurnFullStack => "churn_full_stack",
            Workload::SessionBus256 => "session_bus_256",
            Workload::SessionTcp2 => "session_tcp_2",
        }
    }

    /// Parses [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ZoneSteady => {
                "the paper's operating point: one zone, 400 users on 4 replicas, single thread, \
                 telemetry off, so rtf/demo/net tick cost dominates"
            }
            Workload::MultizoneFanout => {
                "legal multi-zone topology through the worker pool, one shared bus and zone \
                 travel, so fan-out, bus flush and handover costs show"
            }
            Workload::ChurnFullStack => {
                "writes beside reads: sine-wave joins/leaves, migrations, replica add/remove, \
                 crashes, refits and full telemetry beside the same tick loop"
            }
            Workload::SessionBus256 => {
                "the second authoritative server at its heaviest: 256 clients, 256x256 snapshot \
                 entries per round, delta/keyframe/codec cost, no syscalls"
            }
            Workload::SessionTcp2 => {
                "same session code over loopback TCP with 2 connections: smallest frames, so \
                 per-frame and polling-syscall cost dominates"
            }
        }
    }

    /// Ticks of the timed window in pinned mode (`ledger run`): sized on
    /// the 2-core reference box to take 8–10 s; see README.md.
    pub fn pinned_ticks(self) -> u64 {
        match self {
            Workload::ZoneSteady => 2_500,
            Workload::MultizoneFanout => 1_000,
            Workload::ChurnFullStack => 10_500,
            Workload::SessionBus256 => 2_000,
            Workload::SessionTcp2 => 500_000,
        }
    }

    /// Derives the workload's own seed from `--seed`, so no two workloads
    /// share a stream.
    pub fn seed(self, seed: u64) -> u64 {
        let index = Self::ALL.iter().position(|w| *w == self).unwrap_or(0) as u64;
        SplitMix64::new(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
    }
}

/// When a timed window ends: after `max_ticks`, or once `max_time` of
/// wall time has passed, whichever comes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limit {
    /// Tick budget.
    pub max_ticks: u64,
    /// Time budget (`None` in pinned mode, where every counter must
    /// repeat exactly and only host time may vary).
    pub max_time: Option<Duration>,
    /// A time-limited window ends on a multiple of this many ticks.
    pub quantum: u64,
}

impl Limit {
    /// Exactly `ticks` ticks.
    pub fn ticks(ticks: u64) -> Self {
        Self {
            max_ticks: ticks,
            max_time: None,
            quantum: 1,
        }
    }

    /// As many ticks as fit in `seconds`.
    pub fn seconds(seconds: f64) -> Self {
        Self {
            max_ticks: u64::MAX,
            max_time: Some(Duration::from_secs_f64(seconds)),
            quantum: 1,
        }
    }

    /// The same limit, ending only on whole multiples of `cycle` ticks
    /// once its time is up — for a workload with a population cycle, whose
    /// tick median would otherwise depend on which part of the last cycle
    /// the clock happened to cut off.
    pub fn whole_cycles(self, cycle: u64) -> Self {
        Self {
            quantum: cycle.max(1),
            ..self
        }
    }

    /// The same limit with its budgets scaled by `share` (for the short
    /// side windows of the traced run).
    pub fn scaled(self, share: f64) -> Self {
        Self {
            max_ticks: ((self.max_ticks as f64 * share) as u64).max(1),
            max_time: self.max_time.map(|t| t.mul_f64(share)),
            ..self
        }
    }
}

/// What a run is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// The `--seed` argument: the only source of randomness.
    pub seed: u64,
    /// Length of the timed window.
    pub limit: Limit,
    /// Warm-up ticks before it.
    pub warmup: u64,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setup_reps: u32,
}

/// What one timed window measured. Nothing in it grows with the tick
/// count: totals, per-segment sums and a strided subsample of the tick
/// durations.
#[derive(Debug)]
pub struct Window {
    ticks: u64,
    total_ns: u64,
    total_work: u64,
    /// Longest tick, nanoseconds.
    pub max_ns: u64,
    /// Strided subsample of the tick durations.
    pub sample: stats::Strided,
    /// `(Σ work, Σ ns)` of each of the window's [`RATE_SEGMENTS`] equal
    /// parts (by time when the limit is a time, by tick count otherwise).
    segments: [(u64, u64); RATE_SEGMENTS],
}

impl Window {
    fn new() -> Self {
        Self {
            ticks: 0,
            total_ns: 0,
            total_work: 0,
            max_ns: 0,
            sample: stats::Strided::with_capacity(MAX_SAMPLES),
            segments: [(0, 0); RATE_SEGMENTS],
        }
    }

    /// Records one tick; `progress` in `[0, 1)` is how far through the
    /// window it started.
    fn push(&mut self, ns: u64, work: u64, progress: f64) {
        self.ticks += 1;
        self.total_ns += ns;
        self.total_work += work;
        self.max_ns = self.max_ns.max(ns);
        self.sample.push(ns);
        let segment = ((progress * RATE_SEGMENTS as f64) as usize).min(RATE_SEGMENTS - 1);
        self.segments[segment].0 += work;
        self.segments[segment].1 += ns;
    }

    /// Ticks recorded.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Σ host time of the ticks, seconds.
    pub fn seconds(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Σ work.
    pub fn total_work(&self) -> u64 {
        self.total_work
    }

    /// Median tick, milliseconds (0 for an empty window).
    pub fn tick_ms_p50(&self) -> f64 {
        self.sample.summarize(1e6).map_or(0.0, |s| s.p50)
    }

    /// Work per host second that shrugs off a few stalled ticks: each
    /// segment's `Σ work / Σ tick time`, median over the segments.
    pub fn rate_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .segments
            .iter()
            .filter(|(_, ns)| *ns > 0)
            .map(|(work, ns)| *work as f64 / (*ns as f64 / 1e9))
            .collect();
        if rates.is_empty() {
            return 0.0;
        }
        rates.sort_by(f64::total_cmp);
        stats::median(&rates)
    }
}

/// One workload's tick, split into the timed call and the harness's own
/// bookkeeping.
pub trait Driver {
    /// What the timed call hands to the bookkeeping.
    type Out;

    /// Untimed: whatever must be ready before the tick (the round's
    /// inputs for the session workloads).
    fn prepare(&mut self) {}

    /// The timed call: the deployment's top-level entry point, nothing
    /// else.
    fn tick(&mut self) -> Self::Out;

    /// Untimed: fold `out` into counters and digests; returns the work the
    /// tick did (connected users, or clients served).
    fn account(&mut self, out: Self::Out) -> u64;
}

/// Runs `driver` until `limit`, two clock reads per tick.
pub fn run_window<D: Driver>(driver: &mut D, limit: Limit) -> Window {
    let mut window = Window::new();
    let started = Instant::now();
    loop {
        driver.prepare();
        let t0 = Instant::now();
        let out = driver.tick();
        let t1 = Instant::now();
        let progress = match limit.max_time {
            Some(max) => (t0 - started).as_secs_f64() / max.as_secs_f64(),
            None => window.ticks as f64 / limit.max_ticks as f64,
        };
        let work = driver.account(out);
        window.push((t1 - t0).as_nanos() as u64, work, progress);
        let out_of_time = limit.max_time.is_some_and(|max| t1 - started >= max);
        if window.ticks >= limit.max_ticks
            || (out_of_time && window.ticks.is_multiple_of(limit.quantum))
        {
            return window;
        }
    }
}

/// Runs `ticks` untimed ticks (warm-up, settling).
pub fn run_untimed<D: Driver>(driver: &mut D, ticks: u64) {
    for _ in 0..ticks {
        driver.prepare();
        let out = driver.tick();
        driver.account(out);
    }
}

/// Runs `setup` `reps` times, keeping the last product; returns it with
/// the median set-up time in seconds.
pub fn timed_setup<T>(reps: u32, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut product = None;
    for _ in 0..reps.max(1) {
        // Drop the previous product first, so repeats do not stack up in
        // memory and `peak_rss_mb` stays the cost of one deployment.
        drop(product.take());
        let started = Instant::now();
        product = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (
        product.expect("reps.max(1) ran set-up at least once"),
        stats::median(&times),
    )
}

/// An outcome labelled for `workload` under `plan`.
pub fn new_outcome(workload: Workload, plan: &Plan) -> Outcome {
    Outcome {
        workload: workload.name().to_string(),
        seed: plan.seed,
        ..Outcome::default()
    }
}

/// The end-to-end metrics every workload shares, from its window.
pub fn push_common_metrics(outcome: &mut Outcome, window: &Window, setup_s: f64) {
    outcome.ticks = window.ticks();
    outcome.window_s = window.seconds();
    let n = window.ticks();
    outcome
        .end_to_end
        .push(Metric::new("setup_s", "s", setup_s, 0));
    outcome.end_to_end.push(Metric::new(
        "user_ticks_per_s",
        "1/s",
        window.rate_per_s(),
        n,
    ));
    outcome.end_to_end.push(Metric::new(
        "tick_host_ms_p50",
        "ms",
        window.tick_ms_p50(),
        n,
    ));
    outcome
        .end_to_end
        .push(Metric::new("peak_rss_mb", "MiB", peak_rss_mb(), 0));
}

/// Threads the load generators may use: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads of `multizone_fanout`'s end-to-end run: half the cores.
/// A phase fanned out over *every* core finishes when its slowest worker
/// does, so on a shared box any stolen slice of any core lands in the
/// tick time: at `nproc` threads the 2-core reference box gave tick
/// medians 11 % apart between two sets of ten runs of the same binary
/// (spread 17 %), at one thread 2 %. The traced run still measures
/// `sim.fanout_speedup` at `nproc`.
pub fn fanout_threads() -> usize {
    (nproc() / 2).max(1)
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

/// SplitMix64: the ledger's own generator for seeds and session inputs
/// (the layer crates' RNGs are seeded from it, never shared with it).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
