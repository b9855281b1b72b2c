//! Always-on flight recorder: a bounded ring of recent trace events
//! plus periodic metrics snapshots that can be dumped as a
//! deterministic postmortem bundle when something goes wrong.
//!
//! The recorder is a [`TraceSink`] — tee it onto whatever tracer the
//! session already uses ([`crate::Tracer::tee_with`]) and it silently
//! retains the last `ring_capacity` events and the last
//! `decision_capacity` [`TraceEvent::Decision`] audit records. When a
//! trigger fires (invariant-oracle violation, page-severity SLO burn,
//! degraded-mode entry), [`FlightRecorder::dump`] writes a bundle
//! directory:
//!
//! ```text
//! <dir>/postmortem-<seq>/
//!   events.jsonl     last-N events, one JSON line each (explain-able)
//!   decisions.jsonl  last-K Decision audit records
//!   metrics.json     most recent metrics snapshot (when one was noted)
//!   manifest.json    trigger, cause tick, model version, counts
//! ```
//!
//! Bundles contain no wall-clock timestamps or other nondeterminism:
//! two same-seed runs dump byte-identical bundles, which the
//! observability tests pin.

use crate::event::TraceEvent;
use crate::export;
use crate::sink::TraceSink;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Flight-recorder sizing and destination.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Events retained in the ring (oldest evicted first).
    pub ring_capacity: usize,
    /// `Decision` audit records retained separately, so decision
    /// context survives even when tick spans flood the main ring.
    pub decision_capacity: usize,
    /// Directory postmortem bundles are written under.
    pub dir: PathBuf,
    /// Bundles written at most per session (later triggers are
    /// counted but not dumped).
    pub max_dumps: u32,
}

impl FlightConfig {
    /// Default sizing writing bundles under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FlightConfig {
            ring_capacity: 512,
            decision_capacity: 64,
            dir: dir.into(),
            max_dumps: 8,
        }
    }
}

/// Bounded event recorder with deterministic postmortem dumps.
pub struct FlightRecorder {
    config: FlightConfig,
    events: VecDeque<TraceEvent>,
    decisions: VecDeque<TraceEvent>,
    dropped: u64,
    /// Most recent metrics snapshot (tick, JSON document).
    metrics: Option<(u64, String)>,
    /// Dump slots consumed so far; also the next bundle's sequence
    /// number. A slot is consumed when a bundle is prepared — a failed
    /// write burns its slot rather than retrying forever.
    dumps: u32,
    /// Triggers seen after `max_dumps` was reached.
    suppressed: u64,
}

impl FlightRecorder {
    /// A recorder with the given configuration. Nothing is written
    /// until a trigger calls [`FlightRecorder::dump`].
    pub fn new(config: FlightConfig) -> Self {
        FlightRecorder {
            events: VecDeque::with_capacity(config.ring_capacity.max(1)),
            decisions: VecDeque::with_capacity(config.decision_capacity.max(1)),
            config,
            dropped: 0,
            metrics: None,
            dumps: 0,
            suppressed: 0,
        }
    }

    /// Note a periodic metrics snapshot (a JSON document from
    /// `MetricsRegistry::to_json`); only the most recent one is kept.
    pub fn note_metrics(&mut self, tick: u64, json: String) {
        self.metrics = Some((tick, json));
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Dump slots consumed so far (bundles prepared).
    pub fn dumps(&self) -> u32 {
        self.dumps
    }

    /// Triggers that arrived after the dump budget was exhausted.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Write a postmortem bundle for a trigger at `tick` whose root
    /// cause happened at `cause` (`reason`: `slo_page`, `invariant` or
    /// `degraded`). Returns the [`TraceEvent::PostmortemDumped`] to
    /// emit, or `None` when the dump budget is exhausted or the bundle
    /// could not be written (postmortems are best-effort: I/O failure
    /// must never take the session down).
    ///
    /// Convenience for unshared recorders. When the recorder sits
    /// behind a mutex, use [`FlightRecorder::prepare_dump`] under the
    /// lock and [`PostmortemBundle::write`] after releasing it so the
    /// filesystem I/O never runs with the guard held.
    pub fn dump(
        &mut self,
        tick: u64,
        cause: u64,
        reason: &'static str,
        model_version: u64,
    ) -> Option<TraceEvent> {
        let bundle = self.prepare_dump(tick, cause, reason, model_version)?;
        match bundle.write() {
            Ok(()) => Some(bundle.into_marker()),
            Err(_) => None,
        }
    }

    /// Snapshot phase of a dump: consumes a budget slot and clones the
    /// retained rings into an owned [`PostmortemBundle`]. Performs no
    /// I/O, so it is safe to call while holding the lock that guards a
    /// shared recorder; `None` when the dump budget is exhausted.
    pub fn prepare_dump(
        &mut self,
        tick: u64,
        cause: u64,
        reason: &'static str,
        model_version: u64,
    ) -> Option<PostmortemBundle> {
        if self.dumps >= self.config.max_dumps {
            self.suppressed += 1;
            return None;
        }
        let seq = self.dumps;
        self.dumps += 1;
        let (metrics_tick, metrics_doc) = match &self.metrics {
            Some((t, doc)) => (*t as i64, doc.clone()),
            None => (-1, "{}".to_string()),
        };
        Some(PostmortemBundle {
            dir: self.bundle_dir(seq),
            events: self.events.iter().cloned().collect(),
            decisions: self.decisions.iter().cloned().collect(),
            metrics_tick,
            metrics_doc,
            ring_dropped: self.dropped,
            marker: TraceEvent::PostmortemDumped {
                tick,
                cause,
                reason,
                seq,
                events: self.events.len() as u32,
                decisions: self.decisions.len() as u32,
                model_version,
            },
        })
    }

    /// Directory the bundle with sequence number `seq` lands in.
    pub fn bundle_dir(&self, seq: u32) -> PathBuf {
        self.config.dir.join(format!("postmortem-{seq}"))
    }
}

/// An owned snapshot of everything a postmortem bundle contains,
/// detached from the recorder so the filesystem write can happen with
/// no locks held. Produced by [`FlightRecorder::prepare_dump`].
pub struct PostmortemBundle {
    dir: PathBuf,
    events: Vec<TraceEvent>,
    decisions: Vec<TraceEvent>,
    metrics_tick: i64,
    metrics_doc: String,
    ring_dropped: u64,
    marker: TraceEvent,
}

impl PostmortemBundle {
    /// Write phase of a dump: all the filesystem I/O. Call this after
    /// releasing any lock that guards the recorder.
    pub fn write(&self) -> io::Result<()> {
        let (seq, tick, cause, reason, model_version) = match &self.marker {
            TraceEvent::PostmortemDumped {
                seq,
                tick,
                cause,
                reason,
                model_version,
                ..
            } => (*seq, *tick, *cause, *reason, *model_version),
            _ => unreachable!("marker is always PostmortemDumped"),
        };
        std::fs::create_dir_all(&self.dir)?;
        write_jsonl(&self.dir.join("events.jsonl"), self.events.iter())?;
        write_jsonl(&self.dir.join("decisions.jsonl"), self.decisions.iter())?;
        std::fs::write(
            self.dir.join("metrics.json"),
            format!("{}\n", self.metrics_doc),
        )?;
        let manifest = export::object(&[
            ("bundle", export::string("postmortem")),
            ("seq", export::uint(seq as u64)),
            ("tick", export::uint(tick)),
            ("cause", export::uint(cause)),
            ("reason", export::string(reason)),
            ("model_version", export::uint(model_version)),
            ("events", export::uint(self.events.len() as u64)),
            ("decisions", export::uint(self.decisions.len() as u64)),
            ("ring_dropped", export::uint(self.ring_dropped)),
            ("metrics_tick", export::int(self.metrics_tick)),
        ]);
        std::fs::write(self.dir.join("manifest.json"), format!("{manifest}\n"))?;
        Ok(())
    }

    /// The [`TraceEvent::PostmortemDumped`] marker to emit once the
    /// bundle has been written.
    pub fn into_marker(self) -> TraceEvent {
        self.marker
    }
}

fn write_jsonl<'a>(path: &Path, events: impl Iterator<Item = &'a TraceEvent>) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for ev in events {
        writeln!(out, "{}", ev.to_json())?;
    }
    out.flush()
}

impl TraceSink for FlightRecorder {
    fn record(&mut self, event: &TraceEvent) {
        if self.events.len() == self.config.ring_capacity.max(1) {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event.clone());
        if matches!(event, TraceEvent::Decision { .. }) {
            if self.decisions.len() == self.config.decision_capacity.max(1) {
                self.decisions.pop_front();
            }
            self.decisions.push_back(event.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tick: u64) -> TraceEvent {
        TraceEvent::ServerBooted { tick, server: 1 }
    }

    fn decision(tick: u64) -> TraceEvent {
        TraceEvent::Decision {
            tick,
            zone: 0,
            kind: "hold",
            model_version: 1,
            replicas: 2,
            users: 100,
            npcs: 50,
            predicted_tick_s: 0.02,
            n_max: 300,
            trigger: 240,
            l_max: 5,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("roia_flight_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ring_bounds_and_decisions_survive_floods() {
        let mut cfg = FlightConfig::new(temp_dir("ring"));
        cfg.ring_capacity = 4;
        cfg.decision_capacity = 2;
        let mut fr = FlightRecorder::new(cfg);
        fr.record(&decision(1));
        for t in 2..10 {
            fr.record(&span(t));
        }
        fr.record(&decision(10));
        assert_eq!(fr.len(), 4, "main ring bounded");
        // The early decision was evicted from the main ring but is
        // still retained in the decision ring.
        assert_eq!(fr.decisions.len(), 2);
        assert_eq!(fr.decisions[0].tick(), 1);
    }

    #[test]
    fn dump_writes_replayable_bundle_and_respects_budget() {
        let dir = temp_dir("dump");
        let mut cfg = FlightConfig::new(&dir);
        cfg.max_dumps = 1;
        let mut fr = FlightRecorder::new(cfg);
        for t in 0..5 {
            fr.record(&span(t));
        }
        fr.record(&decision(5));
        fr.note_metrics(5, "{\"counters\": {}}".to_string());

        let ev = fr.dump(6, 3, "slo_page", 7).expect("first dump succeeds");
        match ev {
            TraceEvent::PostmortemDumped {
                tick,
                cause,
                reason,
                seq,
                events,
                decisions,
                model_version,
            } => {
                assert_eq!((tick, cause, seq), (6, 3, 0));
                assert_eq!(reason, "slo_page");
                assert_eq!((events, decisions), (6, 1));
                assert_eq!(model_version, 7);
            }
            other => panic!("wrong event {other:?}"),
        }

        let bundle = fr.bundle_dir(0);
        let events_text = std::fs::read_to_string(bundle.join("events.jsonl")).unwrap();
        let decoded: Vec<TraceEvent> = events_text
            .lines()
            .map(|l| TraceEvent::from_json(l).expect("bundle line decodes"))
            .collect();
        assert_eq!(decoded.len(), 6);
        assert_eq!(decoded[0].tick(), 0);
        let manifest = std::fs::read_to_string(bundle.join("manifest.json")).unwrap();
        assert!(manifest.contains("\"reason\": \"slo_page\""), "{manifest}");
        assert!(manifest.contains("\"model_version\": 7"), "{manifest}");
        let metrics = std::fs::read_to_string(bundle.join("metrics.json")).unwrap();
        assert!(metrics.contains("counters"));

        // Budget exhausted: second trigger is suppressed, not written.
        assert!(fr.dump(7, 3, "degraded", 7).is_none());
        assert_eq!(fr.suppressed(), 1);
        assert!(!fr.bundle_dir(1).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression for the lint C2 finding: the cluster used to hold the
    /// recorder mutex across the whole dump, filesystem writes included.
    /// The snapshot phase must touch no files so it is safe under a
    /// lock; only `PostmortemBundle::write` hits the disk.
    #[test]
    fn prepare_dump_performs_no_io() {
        let dir = temp_dir("two_phase");
        let mut fr = FlightRecorder::new(FlightConfig::new(&dir));
        for t in 0..4 {
            fr.record(&span(t));
        }
        let bundle = fr.prepare_dump(5, 2, "invariant", 9).expect("slot free");
        assert!(
            !dir.exists(),
            "prepare_dump must not create the bundle directory"
        );
        assert_eq!(fr.dumps(), 1, "slot consumed at prepare time");

        // Snapshot is detached: later recorder mutation does not bleed
        // into the already-prepared bundle.
        fr.record(&span(99));
        bundle.write().expect("write phase succeeds");
        let events_text = std::fs::read_to_string(fr.bundle_dir(0).join("events.jsonl")).unwrap();
        assert_eq!(events_text.lines().count(), 4, "snapshot taken at prepare");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_events_dump_byte_identical_bundles() {
        let dir_a = temp_dir("det_a");
        let dir_b = temp_dir("det_b");
        let make = |dir: &PathBuf| {
            let mut fr = FlightRecorder::new(FlightConfig::new(dir));
            for t in 0..20 {
                fr.record(&span(t));
                if t % 5 == 0 {
                    fr.record(&decision(t));
                }
            }
            fr.note_metrics(19, "{\"g\": 1}".to_string());
            fr.dump(20, 11, "invariant", 3).expect("dump");
            fr.bundle_dir(0)
        };
        let (a, b) = (make(&dir_a), make(&dir_b));
        for file in [
            "events.jsonl",
            "decisions.jsonl",
            "metrics.json",
            "manifest.json",
        ] {
            let ba = std::fs::read(a.join(file)).unwrap();
            let bb = std::fs::read(b.join(file)).unwrap();
            assert_eq!(ba, bb, "{file} differs between identical runs");
        }
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}
