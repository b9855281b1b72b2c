//! Trace sinks and the cheap cloneable [`Tracer`] handle.
//!
//! Emitters hold a [`Tracer`] and call [`Tracer::emit`]; a disabled
//! tracer (the default) short-circuits to a single `Option` check, so
//! instrumented hot paths cost nothing when tracing is off. Enabled
//! tracers fan into a shared [`TraceSink`]: [`RingSink`] keeps the last
//! N events in memory (the low-overhead default for benches),
//! [`JsonlSink`] streams every event as one JSON line to a buffered
//! writer (the replayable format the `explain` tool consumes).

// lint: allow-file(hot_lock, "the per-sink mutex is the tracing boundary's documented contract (emit serialises through one lock); parallel fan-out swaps in private per-worker buffer sinks, so this mutex is uncontended whenever workers run")
use crate::event::{Reader, TraceEvent, Writer, MAX_ENCODED};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Destination for trace events. Implementations must be cheap per
/// event; the tracer serialises access behind one mutex.
pub trait TraceSink: Send {
    /// Consume one event.
    fn record(&mut self, event: &TraceEvent);
    /// Flush any buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// Largest block of a ring's byte storage.
const BLOCK_BYTES: usize = 32 * 1024;

/// One block of a ring's storage: whole encoded events, back to back.
struct Block {
    bytes: Box<[u8]>,
    /// Bytes written.
    used: usize,
    /// Events encoded in the written bytes.
    events: usize,
}

/// Fixed-capacity in-memory ring of the most recent events.
///
/// Each event is kept in its compact binary encoding (about 70 B for a
/// typical tick span, against 128 B for the enum) in byte blocks of up to
/// 32 KiB, and decoded only when read back. A block is written until it
/// has less room than the largest event, and recycled once every event in
/// it is evicted, so storage stays within a block or two of the live
/// bytes. Nothing is reserved up front; once the ring has been full a
/// record allocates nothing, as long as events keep their size.
pub struct RingSink {
    blocks: VecDeque<Block>,
    /// Events at the front of the first block that are already evicted.
    evicted: usize,
    /// A recycled block for the tail's next one.
    spare: Option<Box<[u8]>>,
    /// The distinct strings the events' `&'static str` fields index.
    strings: Vec<&'static str>,
    block_bytes: usize,
    len: usize,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingSink {
            blocks: VecDeque::new(),
            evicted: 0,
            spare: None,
            strings: Vec::new(),
            // About a sixteenth of the ring at the largest event size, so a
            // small ring's partly evicted block and spare stay small.
            block_bytes: (capacity.saturating_mul(MAX_ENCODED) / 16)
                .clamp(MAX_ENCODED, BLOCK_BYTES),
            len: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events evicted due to capacity since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain and return all retained events, oldest first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        let mut events = Vec::with_capacity(self.len);
        events.extend(self.events());
        if let Some(first) = self.blocks.pop_front() {
            self.spare.get_or_insert(first.bytes);
        }
        self.blocks.clear();
        self.evicted = 0;
        self.len = 0;
        events
    }

    /// The retained events, decoded, oldest first.
    pub(crate) fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        let mut evicted = self.evicted;
        self.blocks.iter().flat_map(move |block| {
            let mut src = Reader::new(&block.bytes[..block.used], &self.strings);
            (0..block.events)
                .map(move |_| {
                    TraceEvent::take(&mut src).expect("a block holds only what `record` wrote")
                })
                .skip(std::mem::take(&mut evicted))
        })
    }

    fn new_block(&self) -> Box<[u8]> {
        vec![0; self.block_bytes].into_boxed_slice()
    }

    /// Evict the oldest event; its block is recycled once it holds no
    /// live event.
    fn evict_oldest(&mut self) {
        self.len -= 1;
        self.dropped += 1;
        self.evicted += 1;
        if self
            .blocks
            .front()
            .is_some_and(|b| b.events == self.evicted)
        {
            if let Some(freed) = self.blocks.pop_front() {
                self.spare.get_or_insert(freed.bytes);
            }
            self.evicted = 0;
        }
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.len == self.capacity {
            self.evict_oldest();
        }
        let room = |b: &Block| b.bytes.len() - b.used >= MAX_ENCODED;
        if !self.blocks.back().is_some_and(room) {
            let bytes = self.spare.take().unwrap_or_else(|| self.new_block());
            self.blocks.push_back(Block {
                bytes,
                used: 0,
                events: 0,
            });
        }
        if let Some(tail) = self.blocks.back_mut() {
            let mut out = Writer::new(&mut tail.bytes[tail.used..], &mut self.strings);
            event.put(&mut out);
            tail.used += out.written();
            tail.events += 1;
        }
        self.len += 1;
        // The first time the ring fills, set a block aside: from here on
        // the head frees a block before the tail needs the next one.
        if self.len == self.capacity && self.dropped == 0 && self.spare.is_none() {
            self.spare = Some(self.new_block());
            self.blocks.reserve(1);
        }
    }
}

/// Streaming FNV-1a hash over the JSONL encoding of the trace.
///
/// Records nothing but a 64-bit digest and an event count, so two runs can
/// be compared for byte-identical traces in O(1) memory — the primitive
/// behind the determinism double-run checker.
pub struct HashSink {
    hash: u64,
    events: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl HashSink {
    /// A fresh hasher (FNV-1a offset basis).
    pub fn new() -> Self {
        HashSink {
            hash: FNV_OFFSET,
            events: 0,
        }
    }

    /// Digest of every JSON line recorded so far (including newlines).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Number of events hashed.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl Default for HashSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for HashSink {
    fn record(&mut self, event: &TraceEvent) {
        for b in event.to_json().bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        self.hash ^= u64::from(b'\n');
        self.hash = self.hash.wrapping_mul(FNV_PRIME);
        self.events += 1;
    }
}

/// Streams each event as one JSON line to a buffered writer.
pub struct JsonlSink {
    out: BufWriter<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Create (truncating) a JSONL trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::new(Box::new(file)))
    }

    /// Wrap any writer (tests use `Vec<u8>` via a cursor).
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: BufWriter::new(writer),
        }
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, event: &TraceEvent) {
        // Trace output is best-effort: an I/O error must never abort
        // the simulation, so errors are swallowed here.
        let _ = writeln!(self.out, "{}", event.to_json());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// A sink that forwards every event to several child sinks (e.g. ring
/// for cheap in-memory inspection plus JSONL for replay).
pub(crate) struct TeeSink {
    sinks: Vec<Arc<Mutex<dyn TraceSink>>>,
}

impl TeeSink {
    /// Forward to all of `sinks`, in order.
    pub(crate) fn new(sinks: Vec<Arc<Mutex<dyn TraceSink>>>) -> Self {
        TeeSink { sinks }
    }
}

impl TraceSink for TeeSink {
    fn record(&mut self, event: &TraceEvent) {
        for sink in &self.sinks {
            if let Ok(mut s) = sink.lock() {
                s.record(event);
            }
        }
    }

    fn flush(&mut self) {
        for sink in &self.sinks {
            if let Ok(mut s) = sink.lock() {
                s.flush(); // lint: allow(blocking, "the per-sink mutex is the only thing serialising sink access, so a JsonlSink flush cannot move outside it; flush runs at session end / checkpoint, never inside the tick loop")
            }
        }
    }
}

/// Cheap cloneable handle emitters hold. Disabled by default; cloning
/// shares the underlying sink.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<dyn TraceSink>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// The no-op tracer: `emit` is a single branch.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer writing into an existing shared sink.
    pub fn to_sink(sink: Arc<Mutex<dyn TraceSink>>) -> Self {
        Tracer { inner: Some(sink) }
    }

    /// Convenience: a tracer plus a handle to its ring sink, for
    /// reading events back after a run.
    pub fn ring(capacity: usize) -> (Self, Arc<Mutex<RingSink>>) {
        let ring = Arc::new(Mutex::new(RingSink::new(capacity)));
        let sink: Arc<Mutex<dyn TraceSink>> = ring.clone();
        (Tracer { inner: Some(sink) }, ring)
    }

    /// Convenience: a tracer streaming JSONL to `path`.
    pub fn jsonl(path: impl AsRef<Path>) -> io::Result<Self> {
        let sink: Arc<Mutex<dyn TraceSink>> = Arc::new(Mutex::new(JsonlSink::create(path)?));
        Ok(Tracer { inner: Some(sink) })
    }

    /// Convenience: a tracer plus a handle to its [`HashSink`], for
    /// comparing two runs' traces without retaining either.
    pub fn hashing() -> (Self, Arc<Mutex<HashSink>>) {
        let hasher = Arc::new(Mutex::new(HashSink::new()));
        let sink: Arc<Mutex<dyn TraceSink>> = hasher.clone();
        (Tracer { inner: Some(sink) }, hasher)
    }

    /// A tracer that feeds both this tracer's sink (when enabled) and
    /// `extra`. Lets an auditor observe the event stream without
    /// disturbing whatever sink the caller configured.
    pub fn tee_with(&self, extra: Arc<Mutex<dyn TraceSink>>) -> Self {
        match &self.inner {
            None => Tracer { inner: Some(extra) },
            Some(existing) => {
                let tee = TeeSink::new(vec![existing.clone(), extra]);
                Tracer {
                    inner: Some(Arc::new(Mutex::new(tee))),
                }
            }
        }
    }

    /// True when events will actually be recorded. Check this before
    /// assembling an expensive event payload.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event (no-op when disabled).
    pub fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.inner {
            if let Ok(mut s) = sink.lock() {
                s.record(&event);
            }
        }
    }

    /// Flush the underlying sink (no-op when disabled).
    pub fn flush(&self) {
        if let Some(sink) = &self.inner {
            if let Ok(mut s) = sink.lock() {
                s.flush(); // lint: allow(blocking, "the per-sink mutex is the only thing serialising sink access, so a JsonlSink flush cannot move outside it; flush runs at session end / checkpoint, never inside the tick loop")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tick: u64) -> TraceEvent {
        TraceEvent::ServerBooted { tick, server: 0 }
    }

    #[test]
    fn disabled_tracer_is_silent() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(ev(1)); // must not panic
        t.flush();
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let (t, ring) = Tracer::ring(3);
        for i in 0..5 {
            t.emit(ev(i));
        }
        let r = ring.lock().unwrap();
        let ticks: Vec<u64> = r.events().map(|e| e.tick()).collect();
        assert_eq!(ticks, vec![2, 3, 4]);
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join("roia_obs_sink_test.jsonl");
        {
            let t = Tracer::jsonl(&path).unwrap();
            t.emit(ev(7));
            t.emit(TraceEvent::ActionResolved {
                tick: 8,
                action_id: 1,
                outcome: "succeeded",
            });
            t.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<TraceEvent> = text
            .lines()
            .map(|l| TraceEvent::from_json(l).expect("line decodes"))
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].tick(), 7);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tee_fans_out() {
        let ring_a = Arc::new(Mutex::new(RingSink::new(10)));
        let ring_b = Arc::new(Mutex::new(RingSink::new(10)));
        let tee = TeeSink::new(vec![ring_a.clone(), ring_b.clone()]);
        let t = Tracer::to_sink(Arc::new(Mutex::new(tee)));
        t.emit(ev(1));
        assert_eq!(ring_a.lock().unwrap().len(), 1);
        assert_eq!(ring_b.lock().unwrap().len(), 1);
    }

    #[test]
    fn clones_share_the_sink() {
        let (t, ring) = Tracer::ring(10);
        let t2 = t.clone();
        t.emit(ev(1));
        t2.emit(ev(2));
        assert_eq!(ring.lock().unwrap().len(), 2);
    }
}
