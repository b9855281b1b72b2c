//! Per-tick monitoring records — RTF's "monitoring and distribution
//! handling" (§II) as consumed by RTF-RMS.
//!
//! Every server appends one [`TickRecord`] per real-time-loop iteration to
//! its [`MetricsLog`]. The resource manager polls windows of these records
//! to obtain the monitored tick duration, user counts and per-task costs
//! that drive the scalability model.

use crate::timer::{TaskKind, TASK_COUNT};
use rtf_net::NodeId;
use std::collections::VecDeque;

/// Everything a server observed during one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickRecord {
    /// Tick number (monotonic per server).
    pub tick: u64,
    /// The recording server.
    pub server: NodeId,
    /// Active users connected to this server (`a` in Eq. (4)).
    pub active_users: u32,
    /// Shadow users mirrored from other replicas (`n − a`).
    pub shadow_users: u32,
    /// NPCs processed by this server.
    pub npcs: u32,
    /// Per-task seconds, indexed by [`TaskKind::index`].
    pub per_task: [f64; TASK_COUNT],
    /// Total tick duration (seconds) in the server's reporting mode.
    pub tick_duration: f64,
    /// User inputs applied this tick.
    pub inputs_processed: u32,
    /// Forwarded inputs applied this tick.
    pub forwarded_processed: u32,
    /// State updates sent this tick.
    pub updates_sent: u32,
    /// Migrations initiated this tick.
    pub migrations_initiated: u32,
    /// Migrations received this tick.
    pub migrations_received: u32,
    /// Payload bytes received this tick.
    pub bytes_in: u64,
    /// Payload bytes sent this tick.
    pub bytes_out: u64,
    /// Of `bytes_in`: bytes received from clients (user inputs, control).
    pub bytes_in_clients: u64,
    /// Of `bytes_in`: bytes received from peer replicas (replica updates,
    /// forwarded inputs, migration data).
    pub bytes_in_peers: u64,
    /// Of `bytes_out`: bytes sent to clients (state updates, acks).
    pub bytes_out_clients: u64,
    /// Of `bytes_out`: bytes sent to peer replicas.
    pub bytes_out_peers: u64,
}

impl TickRecord {
    /// Seconds spent on one task this tick.
    pub fn task(&self, task: TaskKind) -> f64 {
        self.per_task[task.index()] // lint: allow(panic, "index is TaskKind::index(), < TASK_COUNT, the array's length (pinned by a test)")
    }

    /// Total users known to this server (`n` as seen locally:
    /// active + shadow).
    pub fn zone_users(&self) -> u32 {
        self.active_users + self.shadow_users
    }

    /// CPU load of this tick relative to the tick interval: 1.0 means the
    /// server needed the whole interval, >1.0 means it fell behind (the
    /// quantity plotted in Fig. 8).
    pub fn cpu_load(&self, tick_interval: f64) -> f64 {
        debug_assert!(tick_interval > 0.0);
        self.tick_duration / tick_interval
    }
}

/// A bounded in-memory log of tick records.
#[derive(Debug, Clone)]
pub struct MetricsLog {
    records: VecDeque<TickRecord>,
    capacity: usize,
}

impl MetricsLog {
    /// Creates a log that retains the most recent `capacity` records.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "log capacity must be positive");
        Self {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
        }
    }

    /// Appends a record, evicting the oldest if full.
    pub fn push(&mut self, record: TickRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(record);
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The most recent record.
    pub fn latest(&self) -> Option<&TickRecord> {
        self.records.back()
    }

    /// Iterates over retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TickRecord> {
        self.records.iter()
    }

    /// The last `window` records, oldest first. Windowing is
    /// *positional*, not tick-numbered: it returns the most recent
    /// `window` retained records (all of them when `window ≥ len`,
    /// none when `window == 0`), regardless of the records' `tick`
    /// fields — so a server restart, which resets tick numbering to
    /// zero, does not hide or duplicate records near the boundary.
    pub fn window(&self, window: usize) -> impl Iterator<Item = &TickRecord> {
        let skip = self.records.len().saturating_sub(window);
        self.records.iter().skip(skip)
    }

    /// Mean tick duration over the last `window` records (0.0 if empty).
    pub fn avg_tick_duration(&self, window: usize) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for r in self.window(window) {
            sum += r.tick_duration;
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Maximum tick duration over the last `window` records.
    pub fn max_tick_duration(&self, window: usize) -> f64 {
        self.window(window)
            .map(|r| r.tick_duration)
            .fold(0.0, f64::max)
    }

    /// Mean seconds spent on `task` *per processed item* over the last
    /// `window` records — the per-entity parameter value the calibration
    /// campaign feeds to the fitter. `items` extracts the divisor from each
    /// record (e.g. inputs processed for `t_ua`).
    pub fn avg_task_per_item(
        &self,
        task: TaskKind,
        window: usize,
        items: impl Fn(&TickRecord) -> u32,
    ) -> Option<f64> {
        let mut total_secs = 0.0;
        let mut total_items = 0u64;
        for r in self.window(window) {
            total_secs += r.task(task);
            total_items += items(r) as u64;
        }
        if total_items == 0 {
            None
        } else {
            Some(total_secs / total_items as f64)
        }
    }
}

impl Default for MetricsLog {
    fn default() -> Self {
        Self::new(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tick: u64, duration: f64, active: u32) -> TickRecord {
        TickRecord {
            tick,
            server: NodeId(0),
            active_users: active,
            shadow_users: 0,
            npcs: 0,
            per_task: [0.0; TASK_COUNT],
            tick_duration: duration,
            inputs_processed: active,
            forwarded_processed: 0,
            updates_sent: active,
            migrations_initiated: 0,
            migrations_received: 0,
            bytes_in: 0,
            bytes_out: 0,
            bytes_in_clients: 0,
            bytes_in_peers: 0,
            bytes_out_clients: 0,
            bytes_out_peers: 0,
        }
    }

    #[test]
    fn push_and_latest() {
        let mut log = MetricsLog::new(10);
        assert!(log.is_empty());
        log.push(record(1, 0.01, 5));
        log.push(record(2, 0.02, 6));
        assert_eq!(log.len(), 2);
        assert_eq!(log.latest().unwrap().tick, 2);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut log = MetricsLog::new(3);
        for i in 0..5 {
            log.push(record(i, 0.0, 0));
        }
        assert_eq!(log.len(), 3);
        let ticks: Vec<u64> = log.iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![2, 3, 4]);
    }

    #[test]
    fn avg_tick_duration_over_window() {
        let mut log = MetricsLog::new(10);
        for (i, d) in [0.01, 0.02, 0.03, 0.04].iter().enumerate() {
            log.push(record(i as u64, *d, 0));
        }
        assert!((log.avg_tick_duration(2) - 0.035).abs() < 1e-12);
        assert!((log.avg_tick_duration(100) - 0.025).abs() < 1e-12);
        assert_eq!(MetricsLog::new(5).avg_tick_duration(3), 0.0);
    }

    #[test]
    fn max_tick_duration_over_window() {
        let mut log = MetricsLog::new(10);
        for (i, d) in [0.05, 0.02, 0.03].iter().enumerate() {
            log.push(record(i as u64, *d, 0));
        }
        assert_eq!(log.max_tick_duration(2), 0.03);
        assert_eq!(log.max_tick_duration(10), 0.05);
    }

    #[test]
    fn per_item_average() {
        let mut log = MetricsLog::new(10);
        let mut r1 = record(1, 0.0, 10);
        r1.per_task[TaskKind::Ua.index()] = 0.010; // 10 inputs -> 1 ms each
        let mut r2 = record(2, 0.0, 30);
        r2.per_task[TaskKind::Ua.index()] = 0.060; // 30 inputs -> 2 ms each
        log.push(r1);
        log.push(r2);
        let avg = log
            .avg_task_per_item(TaskKind::Ua, 10, |r| r.inputs_processed)
            .unwrap();
        assert!((avg - 0.070 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn per_item_average_none_without_items() {
        let mut log = MetricsLog::new(10);
        log.push(record(1, 0.0, 0));
        assert!(log
            .avg_task_per_item(TaskKind::Fa, 10, |r| r.forwarded_processed)
            .is_none());
    }

    #[test]
    fn window_at_the_retention_boundary() {
        // Exactly at capacity: a window of `capacity` sees every record,
        // larger windows see the same (no phantom records), and the next
        // push shifts the window by exactly one.
        let cap = 4;
        let mut log = MetricsLog::new(cap);
        for i in 0..cap as u64 {
            log.push(record(i, i as f64, 0));
        }
        let all: Vec<u64> = log.window(cap).map(|r| r.tick).collect();
        assert_eq!(all, vec![0, 1, 2, 3]);
        let over: Vec<u64> = log.window(cap + 1).map(|r| r.tick).collect();
        assert_eq!(over, all, "window beyond retention returns what is kept");
        assert_eq!(log.window(usize::MAX).count(), cap);

        log.push(record(4, 4.0, 0));
        let shifted: Vec<u64> = log.window(cap).map(|r| r.tick).collect();
        assert_eq!(shifted, vec![1, 2, 3, 4], "eviction shifts the window");
        let one: Vec<u64> = log.window(1).map(|r| r.tick).collect();
        assert_eq!(one, vec![4]);
        assert_eq!(log.window(0).count(), 0, "window(0) is empty");
    }

    #[test]
    fn window_stats_at_the_retention_boundary() {
        // Aggregates over a window that spans evicted records must use
        // only the retained ones — not silently divide by the requested
        // window size.
        let mut log = MetricsLog::new(2);
        log.push(record(0, 1.0, 0));
        log.push(record(1, 0.02, 0));
        log.push(record(2, 0.04, 0)); // evicts tick 0 (duration 1.0)
        assert!((log.avg_tick_duration(10) - 0.03).abs() < 1e-12);
        assert_eq!(log.max_tick_duration(10), 0.04, "evicted max is forgotten");
    }

    #[test]
    fn window_across_server_restart() {
        // A restarted server resets its tick counter to zero. Windowing
        // is positional, so the monitor's queries must keep returning
        // the most recent records even while tick numbers go backwards.
        let mut log = MetricsLog::new(8);
        for i in 0..5u64 {
            log.push(record(100 + i, 0.01, 0));
        }
        for i in 0..3u64 {
            log.push(record(i, 0.03, 0)); // post-restart ticks restart at 0
        }
        let last4: Vec<u64> = log.window(4).map(|r| r.tick).collect();
        assert_eq!(last4, vec![104, 0, 1, 2], "positional, not tick-ordered");
        // The 3-record window covers exactly the post-restart records.
        assert!((log.avg_tick_duration(3) - 0.03).abs() < 1e-12);
        // A window spanning the restart mixes both epochs, by design.
        assert!((log.avg_tick_duration(4) - (0.01 + 3.0 * 0.03) / 4.0).abs() < 1e-12);
        assert_eq!(log.latest().unwrap().tick, 2);
    }

    #[test]
    fn cpu_load_and_zone_users() {
        let mut r = record(1, 0.020, 7);
        r.shadow_users = 3;
        assert_eq!(r.zone_users(), 10);
        assert!((r.cpu_load(0.040) - 0.5).abs() < 1e-12);
    }
}
