//! In-memory spans recorded by the ledger around calls into a layer's
//! public functions: name, start, end, parent, and the tick/round number
//! as the identifier spans of one round share. Written out as JSONL when
//! the run ends; never part of an end-to-end measurement.

use roia_obs::export as json;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval, nanoseconds since the log's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`; the part before the first dot is the layer.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End (≥ start).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Tick or round the span belongs to.
    pub round: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer prefix of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An append-only span log with an open-span stack.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    /// An empty log with room for `capacity` spans, so recording does not
    /// reallocate inside a traced window.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, round: u64) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            round,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// duration.
    pub fn exit(&mut self, id: u32) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, round: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, round);
        let out = f();
        self.exit(id);
        out
    }

    /// Attaches durations a layer reported about itself (for example
    /// `TickRecord.per_task`) as children of the closed span `parent`,
    /// laid end to end from its start. Children that would overrun the
    /// parent are clipped to it, so self times stay non-negative.
    pub fn attach_children(&mut self, parent: u32, children: &[(&'static str, u64)]) {
        let (mut cursor, end, round) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.end_ns, p.round)
        };
        for &(name, duration_ns) in children {
            let child_end = cursor.saturating_add(duration_ns).min(end);
            self.spans.push(Span {
                name,
                start_ns: cursor,
                end_ns: child_end,
                parent: Some(parent),
                round,
            });
            cursor = child_end;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Σ self time per layer (the name's prefix); `selfs` is
    /// [`self_times`] of [`SpanLog::spans`].
    pub fn layer_self_ns(&self, selfs: &[u64]) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            *out.entry(span.layer()).or_insert(0) += self_ns;
        }
        out
    }

    /// Σ duration of the root spans (those without a parent).
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    /// Writes one JSON object per span: `id`, `name`, `start_ns`,
    /// `end_ns`, `parent` (or `null`), `round`, `self_ns` (from `selfs`,
    /// the [`self_times`] of [`SpanLog::spans`]).
    pub fn write_jsonl(&self, path: &Path, selfs: &[u64]) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, &self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let line = json::object(&[
                ("id", json::uint(id as u64)),
                ("name", json::string(span.name)),
                ("start_ns", json::uint(span.start_ns)),
                ("end_ns", json::uint(span.end_ns)),
                (
                    "parent",
                    span.parent
                        .map_or("null".to_string(), |p| json::uint(u64::from(p))),
                ),
                ("round", json::uint(span.round)),
                ("self_ns", json::uint(self_ns)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once, and
/// only where they lie inside the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}
