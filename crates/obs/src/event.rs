//! Typed trace records: tick spans, control rounds, the decision audit
//! trail, migration lifecycles, chaos faults and calibration events.
//!
//! Events carry only primitives (`u64` ticks and causality ids, `u32`
//! server/zone ids, `&'static str` vocabulary) so `roia-obs` stays a
//! zero-dependency leaf crate: emitters translate their `NodeId` /
//! `ZoneId` / enum types at the call site. Every event encodes to one
//! flat JSON line ([`TraceEvent::to_json`]) and decodes back
//! ([`TraceEvent::from_json`]), which is what the JSONL sink writes and
//! the `explain` replay tool reads. The in-memory rings keep a second,
//! compact binary encoding of the same fields instead (`put`/`take`:
//! varints, raw `f64` bits, a slot mask for the per-task array, string
//! indices), lossless and about half the size of the enum.
//!
//! # Causality
//!
//! The audit trail is linked by two ids:
//!
//! - `cause` — the control-round tick that produced a decision. A
//!   [`TraceEvent::Decision`], its per-pair
//!   [`TraceEvent::MigrationBudget`] evaluations and every
//!   [`TraceEvent::ActionIssued`] spawned by that round share it.
//! - `action_id` — the controller ledger id of one issued action.
//!   [`TraceEvent::ActionResolved`], [`TraceEvent::MigrationPlanned`]
//!   and retries (`ActionIssued` with `attempt > 0`) share it.

use crate::export::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Number of per-task cost slots in a tick span (mirrors
/// `rtf_core::timer::TASK_COUNT` without depending on it).
pub const TASK_SLOTS: usize = 10;

/// Declares [`TraceEvent`] from one table — each variant's JSON name, its
/// fields and their docs — and generates `name`, `tick`, `to_json`,
/// `from_fields` and the binary pair `put`/`take` from it, so a variant is
/// written down exactly once. Every variant carries a `tick: u64`; every
/// field type implements [`Field`].
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $name:literal {
                    $($(#[$fmeta:meta])* $field:ident: $ty:ty,)*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $($(#[$vmeta])* $variant { $($(#[$fmeta])* $field: $ty,)* },)*
        }

        /// The binary encoding's leading byte: the variant's position in
        /// the table.
        #[derive(Clone, Copy)]
        enum Tag {
            $($variant,)*
        }

        /// Every [`Tag`], indexed by its byte.
        const TAGS: &[Tag] = &[$(Tag::$variant,)*];

        /// Most bytes [`TraceEvent::put`] writes for any event.
        pub(crate) const MAX_ENCODED: usize = {
            let mut max = 0;
            $(
                let bytes = 1 $(+ <$ty as Field>::MAX_BYTES)*;
                if bytes > max {
                    max = bytes;
                }
            )*
            max
        };

        impl TraceEvent {
            /// Stable discriminator written as the `"ev"` field of the JSON
            /// encoding.
            pub fn name(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $name,)*
                }
            }

            /// Simulation tick the event occurred at.
            pub fn tick(&self) -> u64 {
                match self {
                    $(TraceEvent::$variant { tick, .. } => *tick,)*
                }
            }

            /// Encode as one flat JSON object (one JSONL line, no newline).
            pub fn to_json(&self) -> String {
                let mut out = String::with_capacity(160);
                out.push_str("{\"ev\": \"");
                out.push_str(self.name());
                out.push('"');
                match self {
                    $(TraceEvent::$variant { $($field,)* } => {
                        $(
                            out.push_str(concat!(", \"", stringify!($field), "\": "));
                            Field::encode($field, &mut out);
                        )*
                    })*
                }
                out.push('}');
                out
            }

            /// Decode from an already-parsed flat object. Returns `None`
            /// for an unknown event name, a missing field, or a value its
            /// field's type cannot hold.
            fn from_fields(map: &BTreeMap<String, JsonValue>) -> Option<TraceEvent> {
                fn get<T: Field>(map: &BTreeMap<String, JsonValue>, key: &str) -> Option<T> {
                    T::decode(map.get(key)?)
                }
                match map.get("ev")?.as_str()? {
                    $($name => Some(TraceEvent::$variant {
                        $($field: get(map, stringify!($field))?,)*
                    }),)*
                    _ => None,
                }
            }

            /// Write the compact binary encoding: the tag byte, then each
            /// field's [`Field::put`]. Writes at most [`MAX_ENCODED`] bytes.
            pub(crate) fn put(&self, out: &mut Writer<'_>) {
                match self {
                    $(TraceEvent::$variant { $($field,)* } => {
                        out.byte(Tag::$variant as u8);
                        $(Field::put($field, out);)*
                    })*
                }
            }

            /// Decode the event [`TraceEvent::put`] wrote at the reader's
            /// position and step past it. `None` for bytes `put` cannot
            /// have written.
            pub(crate) fn take(src: &mut Reader<'_>) -> Option<TraceEvent> {
                match TAGS.get(usize::from(src.byte()?))? {
                    $(Tag::$variant => Some(TraceEvent::$variant {
                        $($field: Field::take(src)?,)*
                    }),)*
                }
            }
        }
    };
}

trace_events! {
    /// One structured telemetry record. See the module docs for the
    /// causality scheme; field meanings follow the paper's notation
    /// (`l` replicas, `n` users, `m` NPCs, `T` tick duration).
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// One server tick: duration, per-task child timings and load.
        TickSpan = "tick_span" {
            /// Simulation tick (monotonic sim-time).
            tick: u64,
            /// Server (node) id.
            server: u32,
            /// Zone the server replicates.
            zone: u32,
            /// Total tick duration in seconds.
            duration_s: f64,
            /// Per-`TaskKind` child timings in seconds, indexed like
            /// `TaskKind::ALL`.
            per_task: [f64; TASK_SLOTS],
            /// Users homed on this server.
            active_users: u32,
            /// Shadow (replicated) users.
            shadow_users: u32,
            /// NPCs simulated by this server.
            npcs: u32,
            /// Migrations this server initiated during the tick.
            migrations_initiated: u32,
            /// Migrations this server received during the tick.
            migrations_received: u32,
        },
        /// A controller round ran for a zone.
        ControlRound = "control_round" {
            /// Simulation tick — also the `cause` id of everything this
            /// round produced.
            tick: u64,
            /// Zone under control.
            zone: u32,
            /// Replica count observed in the snapshot.
            servers: u32,
            /// Total users observed in the snapshot.
            users: u32,
            /// Actions issued by this round (including follow-ups).
            issued: u32,
        },
        /// A model-driven policy decision with its Eq. 1–5 inputs plugged
        /// in — the "why" record of the audit trail.
        Decision = "decision" {
            /// Simulation tick of the control round (the `cause` id).
            tick: u64,
            /// Zone decided on.
            zone: u32,
            /// What the policy chose: `add_replica`, `substitute`,
            /// `scale_down`, `balance` or `hold`.
            kind: &'static str,
            /// Version of the scalability model used (registry version).
            model_version: u64,
            /// Replicas `l` in the snapshot.
            replicas: u32,
            /// Users `n` in the snapshot.
            users: u32,
            /// Users the replication trigger read: `n`, or its trend
            /// forecast one boot delay ahead when that is larger.
            forecast_users: u32,
            /// NPCs `m` in the snapshot.
            npcs: u32,
            /// Eq. 4 predicted tick duration `T(l, n, m)` in seconds.
            predicted_tick_s: f64,
            /// Eq. 2 capacity `n_max(l, m)` at the current replica count.
            n_max: u32,
            /// Replication trigger (80% of `n_max`, §IV).
            trigger: u32,
            /// Eq. 3 replica ceiling `l_max(m)`.
            l_max: u32,
        },
        /// One Eq. 5 migration-budget evaluation for a donor→receiver pair.
        MigrationBudget = "migration_budget" {
            /// Simulation tick of the evaluation.
            tick: u64,
            /// Control-round tick that requested it (the `cause` id).
            cause: u64,
            /// Donor server id.
            from: u32,
            /// Receiver server id.
            to: u32,
            /// Donor's observed tick duration in seconds.
            from_tick_s: f64,
            /// Receiver's observed tick duration in seconds.
            to_tick_s: f64,
            /// Eq. 5 initiate-side budget `x_max_ini` (after hedging).
            x_max_ini: u32,
            /// Eq. 5 receive-side budget `x_max_rcv` (after hedging).
            x_max_rcv: u32,
            /// Users actually granted to move on this pair.
            granted: u32,
        },
        /// The controller issued (or re-issued) an action.
        ActionIssued = "action_issued" {
            /// Simulation tick of issue.
            tick: u64,
            /// Control-round tick whose decision spawned it.
            cause: u64,
            /// Controller ledger id linking resolution and retries.
            action_id: u64,
            /// Action kind: `migrate`, `add_replica`, `substitute`,
            /// `remove_replica`.
            kind: &'static str,
            /// Retry attempt, 0 for the first issue.
            attempt: u32,
            /// Source server id, or -1 when not applicable.
            from: i64,
            /// Destination server id, or -1 when not applicable.
            to: i64,
            /// Users moved (migrations), else 0.
            users: u32,
        },
        /// A previously issued action reached a terminal outcome.
        ActionResolved = "action_resolved" {
            /// Simulation tick of resolution.
            tick: u64,
            /// Ledger id of the resolved action.
            action_id: u64,
            /// Terminal outcome name (`succeeded`, `failed`, …).
            outcome: &'static str,
        },
        /// The cluster scheduled the user transfers for a migrate action.
        MigrationPlanned = "migration_planned" {
            /// Simulation tick of planning.
            tick: u64,
            /// Ledger id of the migrate/substitute action, or 0 for
            /// internally scheduled rebalances.
            action_id: u64,
            /// Donor server id.
            from: u32,
            /// Receiver server id.
            to: u32,
            /// Users scheduled to move.
            users: u32,
        },
        /// Users finished transferring onto a server this tick.
        MigrationSettled = "migration_settled" {
            /// Simulation tick of settlement.
            tick: u64,
            /// Receiving server id.
            server: u32,
            /// Users that arrived during the tick.
            arrived: u32,
        },
        /// The chaos engine injected a fault.
        FaultInjected = "fault_injected" {
            /// Simulation tick of injection.
            tick: u64,
            /// Fault kind (`crash_most_loaded`, `isolate`, …).
            fault: &'static str,
            /// Target server id, or -1 for cluster-wide faults.
            server: i64,
        },
        /// A timed fault reverted.
        FaultReverted = "fault_reverted" {
            /// Simulation tick of reversion.
            tick: u64,
            /// Reverted fault kind (`unisolate`, `unstraggle`).
            fault: &'static str,
            /// Target server id, or -1 when not applicable.
            server: i64,
        },
        /// A server finished booting and joined the zone.
        ServerBooted = "server_booted" {
            /// Simulation tick the server became ready.
            tick: u64,
            /// New server id.
            server: u32,
        },
        /// A server crashed (fault or supervisor verdict).
        ServerCrashed = "server_crashed" {
            /// Simulation tick of the crash.
            tick: u64,
            /// Crashed server id.
            server: u32,
        },
        /// A server was removed by a scale-down.
        ServerRemoved = "server_removed" {
            /// Simulation tick of removal.
            tick: u64,
            /// Removed server id.
            server: u32,
        },
        /// The online calibrator ran a refit.
        Refit = "refit" {
            /// Simulation tick of the refit.
            tick: u64,
            /// Why it ran: `seed`, `cadence` or `drift`.
            reason: &'static str,
            /// Publish outcome: `published`, `rejected_quality`,
            /// `cooldown` or `unchanged`.
            outcome: &'static str,
            /// Model version after the refit.
            version: u64,
            /// Number of parameters the refit updated.
            params: u32,
        },
        /// The model registry atomically swapped in a new version.
        RegistrySwap = "registry_swap" {
            /// Simulation tick of the swap.
            tick: u64,
            /// Newly published version.
            version: u64,
            /// Refit reason that produced it.
            reason: &'static str,
        },
        /// The controller entered declared degraded mode: capacity requests
        /// keep bouncing, so it switches to join admission control and
        /// reduced AoI fidelity instead of silently accruing violations.
        DegradedEnter = "degraded_enter" {
            /// Simulation tick the mode engaged.
            tick: u64,
            /// Tick of the action resolution that tripped the entry
            /// threshold (the `cause` id of the state change).
            cause: u64,
            /// Why it engaged: `out_of_capacity` or `abandoned`.
            reason: &'static str,
            /// Admission verdict applied to new joins while degraded:
            /// `queue` or `shed`.
            admission: &'static str,
            /// AoI fidelity scale applied while degraded (1.0 = full).
            fidelity: f64,
        },
        /// The controller left degraded mode after the hysteresis window —
        /// minimum dwell elapsed and enough consecutive clean rounds.
        DegradedExit = "degraded_exit" {
            /// Simulation tick the mode disengaged.
            tick: u64,
            /// Tick degraded mode was entered (the `cause` id pairing the
            /// exit with its enter event).
            cause: u64,
            /// Ticks spent degraded.
            dwell_ticks: u64,
            /// Joins queued over the degraded episode.
            queued: u32,
            /// Joins shed over the degraded episode.
            shed: u32,
        },
        /// Admission control intercepted a join request while degraded.
        JoinThrottled = "join_throttled" {
            /// Simulation tick of the join attempt.
            tick: u64,
            /// Tick degraded mode was entered (the `cause` id linking the
            /// throttle to its episode).
            cause: u64,
            /// What happened to the join: `queue` or `shed`.
            verdict: &'static str,
            /// Total joins throttled (queued + shed) so far this episode.
            total: u32,
        },
        /// A transport connection opened (socket accepted / bus peer seen).
        ConnOpened = "conn_opened" {
            /// Server session tick the connection appeared at.
            tick: u64,
            /// Transport-level peer id.
            peer: u64,
            /// Backend that carries it: `tcp` or `bus`.
            transport: &'static str,
        },
        /// A transport connection closed.
        ConnClosed = "conn_closed" {
            /// Server session tick of the close.
            tick: u64,
            /// Tick the connection opened (the `cause` id pairing the close
            /// with its open event).
            cause: u64,
            /// Transport-level peer id.
            peer: u64,
            /// Why it closed: `eof`, `bye`, `error` or `shutdown`.
            reason: &'static str,
        },
        /// A peer's bounded outbound queue crossed a watermark.
        Backpressure = "backpressure" {
            /// Server session tick of the transition.
            tick: u64,
            /// Tick the pressure began (the `cause` id linking `relief`
            /// back to its `onset`; equals `tick` for the onset itself).
            cause: u64,
            /// Transport-level peer id.
            peer: u64,
            /// `onset` (high watermark crossed) or `relief` (drained).
            state: &'static str,
            /// Bytes queued at the transition (0 on relief).
            queued_bytes: u64,
        },
        /// An SLO's error budget is burning: both the fast and the slow
        /// burn-rate windows crossed their thresholds (SRE multi-window
        /// multi-burn-rate rule).
        SloBurn = "slo_burn" {
            /// Simulation tick the alert fired.
            tick: u64,
            /// First tick of the over-threshold streak (the `cause` id a
            /// matching [`TraceEvent::SloRecovered`] points back to).
            cause: u64,
            /// Objective name: `tick_budget`, `tick_p99`,
            /// `invariant_violations`, `join_shed` or `backpressure_duty`.
            slo: &'static str,
            /// Alert severity: `page` (fast window far over budget) or
            /// `warn`.
            severity: &'static str,
            /// Fast-window burn rate (error budget multiples), permille.
            fast_burn_pm: u64,
            /// Slow-window burn rate (error budget multiples), permille.
            slow_burn_pm: u64,
        },
        /// A burning SLO's fast window stayed clean long enough to clear
        /// the alert (hysteresis exit).
        SloRecovered = "slo_recovered" {
            /// Simulation tick the alert cleared.
            tick: u64,
            /// First tick of the burn streak (the `cause` id pairing the
            /// recovery with its [`TraceEvent::SloBurn`]).
            cause: u64,
            /// Objective name that recovered.
            slo: &'static str,
            /// Ticks spent in the burning state.
            burn_ticks: u64,
        },
        /// The flight recorder dumped a postmortem bundle to disk.
        PostmortemDumped = "postmortem_dumped" {
            /// Simulation tick of the dump.
            tick: u64,
            /// Tick of the triggering condition (the `cause` id: the SLO
            /// burn's cause, the degraded-enter tick, or the violation
            /// tick).
            cause: u64,
            /// What tripped the dump: `slo_page`, `invariant` or
            /// `degraded`.
            reason: &'static str,
            /// Bundle sequence number within the session (dump directory
            /// is `postmortem-<seq>`).
            seq: u32,
            /// Events written to the bundle's `events.jsonl`.
            events: u32,
            /// Decision audit records written to `decisions.jsonl`.
            decisions: u32,
            /// Model registry version in force at dump time.
            model_version: u64,
        },
        /// Client-side prediction disagreed with the authoritative replay
        /// and was corrected.
        ReconcileCorrection = "reconcile_correction" {
            /// Server tick of the snapshot that exposed the divergence.
            tick: u64,
            /// Same snapshot tick (the `cause` id of the correction).
            cause: u64,
            /// The correcting user id (client traces carry user ids here,
            /// not transport peer ids).
            peer: u64,
            /// Input sequence number the snapshot acked.
            seq: u32,
            /// Correction magnitude, Chebyshev world units.
            error: u64,
        },
    }
}

/// How one field type is written into a JSON line and into the compact
/// binary encoding, and read back from each. The binary pair is lossless:
/// `take` returns the value `put` wrote, bit for bit.
trait Field: Sized {
    /// Most bytes `put` writes.
    const MAX_BYTES: usize;
    fn encode(&self, out: &mut String);
    fn decode(value: &JsonValue) -> Option<Self>;
    fn put(&self, out: &mut Writer<'_>);
    fn take(src: &mut Reader<'_>) -> Option<Self>;
}

/// Bytes of the longest LEB128 varint (a `u64`).
const VARINT_MAX: usize = 10;

/// Where [`TraceEvent::put`] writes: room for at least [`MAX_ENCODED`]
/// bytes, and the table of distinct strings `&'static str` fields index.
pub(crate) struct Writer<'a> {
    buf: &'a mut [u8],
    pos: usize,
    strings: &'a mut Vec<&'static str>,
}

impl<'a> Writer<'a> {
    /// Write from the start of `buf`.
    pub(crate) fn new(buf: &'a mut [u8], strings: &'a mut Vec<&'static str>) -> Self {
        Writer {
            buf,
            pos: 0,
            strings,
        }
    }

    /// Bytes written so far.
    pub(crate) fn written(&self) -> usize {
        self.pos
    }

    fn byte(&mut self, b: u8) {
        self.buf[self.pos] = b;
        self.pos += 1;
    }

    /// `v` as an LEB128 varint: seven bits a byte, low bits first.
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }
}

/// A cursor over compact-encoded events and the string table their
/// `&'static str` fields index into.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    strings: &'a [&'static str],
}

impl<'a> Reader<'a> {
    /// Read from the start of `bytes`.
    pub(crate) fn new(bytes: &'a [u8], strings: &'a [&'static str]) -> Self {
        Reader { bytes, strings }
    }

    fn byte(&mut self) -> Option<u8> {
        let (&b, rest) = self.bytes.split_first()?;
        self.bytes = rest;
        Some(b)
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Some(v);
            }
        }
        None
    }
}

impl Field for u64 {
    const MAX_BYTES: usize = VARINT_MAX;
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn decode(value: &JsonValue) -> Option<Self> {
        value.as_u64()
    }
    fn put(&self, out: &mut Writer<'_>) {
        out.varint(*self);
    }
    fn take(src: &mut Reader<'_>) -> Option<Self> {
        src.varint()
    }
}

impl Field for u32 {
    const MAX_BYTES: usize = 5;
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn decode(value: &JsonValue) -> Option<Self> {
        u32::try_from(value.as_u64()?).ok()
    }
    fn put(&self, out: &mut Writer<'_>) {
        out.varint(u64::from(*self));
    }
    fn take(src: &mut Reader<'_>) -> Option<Self> {
        u32::try_from(src.varint()?).ok()
    }
}

/// Zigzag-mapped, so small negative ids such as -1 take one byte.
impl Field for i64 {
    const MAX_BYTES: usize = VARINT_MAX;
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn decode(value: &JsonValue) -> Option<Self> {
        value.as_i64()
    }
    fn put(&self, out: &mut Writer<'_>) {
        out.varint(((*self << 1) ^ (*self >> 63)) as u64);
    }
    fn take(src: &mut Reader<'_>) -> Option<Self> {
        let z = src.varint()?;
        Some((z >> 1) as i64 ^ -((z & 1) as i64))
    }
}

/// The raw little-endian bits, so -0.0 and NaN payloads survive.
impl Field for f64 {
    const MAX_BYTES: usize = 8;
    fn encode(&self, out: &mut String) {
        export::write_num(out, *self);
    }
    fn decode(value: &JsonValue) -> Option<Self> {
        value.as_f64()
    }
    fn put(&self, out: &mut Writer<'_>) {
        out.buf[out.pos..out.pos + 8].copy_from_slice(&self.to_bits().to_le_bytes());
        out.pos += 8;
    }
    fn take(src: &mut Reader<'_>) -> Option<Self> {
        let (bits, rest) = src.bytes.split_first_chunk::<8>()?;
        src.bytes = rest;
        Some(f64::from_bits(u64::from_le_bytes(*bits)))
    }
}

/// The index of the string in the ring's table of distinct strings seen,
/// so a string outside [`VOCAB`] comes back too.
impl Field for &'static str {
    const MAX_BYTES: usize = VARINT_MAX;
    fn encode(&self, out: &mut String) {
        export::write_string(out, self);
    }
    fn decode(value: &JsonValue) -> Option<Self> {
        value.as_str().map(intern)
    }
    fn put(&self, out: &mut Writer<'_>) {
        let index = match out.strings.iter().position(|s| s == self) {
            Some(index) => index,
            None => {
                out.strings.push(self);
                out.strings.len() - 1
            }
        };
        out.varint(index as u64);
    }
    fn take(src: &mut Reader<'_>) -> Option<Self> {
        let index = usize::try_from(src.varint()?).ok()?;
        src.strings.get(index).copied()
    }
}

/// A varint mask of the slots whose bits are non-zero, then those slots:
/// a tick span rarely charges more than 7 of its 10 tasks.
impl Field for [f64; TASK_SLOTS] {
    const MAX_BYTES: usize = 2 + TASK_SLOTS * f64::MAX_BYTES;
    fn encode(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            v.encode(out);
        }
        out.push(']');
    }
    /// Missing or non-numeric slots read as 0.
    fn decode(value: &JsonValue) -> Option<Self> {
        let mut slots = [0.0; TASK_SLOTS];
        for (slot, item) in slots.iter_mut().zip(value.as_arr()?) {
            *slot = item.as_f64().unwrap_or(0.0);
        }
        Some(slots)
    }
    fn put(&self, out: &mut Writer<'_>) {
        let mut mask = 0;
        for (i, v) in self.iter().enumerate() {
            if v.to_bits() != 0 {
                mask |= 1 << i;
            }
        }
        out.varint(mask);
        for v in self {
            if v.to_bits() != 0 {
                v.put(out);
            }
        }
    }
    fn take(src: &mut Reader<'_>) -> Option<Self> {
        let mask = src.varint()?;
        if mask >> TASK_SLOTS != 0 {
            return None;
        }
        let mut slots = [0.0; TASK_SLOTS];
        for (i, slot) in slots.iter_mut().enumerate() {
            if mask & 1 << i != 0 {
                *slot = f64::take(src)?;
            }
        }
        Some(slots)
    }
}

/// Known vocabulary for `&'static str` event fields, so decoded events
/// can round-trip without allocation. Unknown strings map to
/// `"unknown"`.
const VOCAB: &[&str] = &[
    "migrate",
    "add_replica",
    "substitute",
    "remove_replica",
    "scale_down",
    "balance",
    "hold",
    "pending",
    "succeeded",
    "rejected",
    "failed",
    "timed_out",
    "escalated",
    "abandoned",
    "crash_most_loaded",
    "crash_nth",
    "isolate",
    "straggle",
    "set_boot_failure_rate",
    "set_link_loss",
    "unisolate",
    "unstraggle",
    "seed",
    "cadence",
    "drift",
    "published",
    "rejected_quality",
    "cooldown",
    "unchanged",
    "out_of_capacity",
    "queue",
    "shed",
    "tcp",
    "bus",
    "eof",
    "bye",
    "error",
    "shutdown",
    "onset",
    "relief",
    "tick_budget",
    "tick_p99",
    "invariant_violations",
    "join_shed",
    "backpressure_duty",
    "warn",
    "page",
    "slo_page",
    "invariant",
    "degraded",
];

/// Map a decoded string onto the static vocabulary (`"unknown"` if
/// absent).
pub(crate) fn intern(s: &str) -> &'static str {
    VOCAB
        .iter()
        .find(|v| **v == s)
        .copied()
        .unwrap_or("unknown")
}

impl TraceEvent {
    /// Decode one JSONL line produced by [`TraceEvent::to_json`].
    /// Returns `None` for malformed lines or unknown event names.
    pub fn from_json(line: &str) -> Option<TraceEvent> {
        let map = export::parse_object(line)?;
        Self::from_fields(&map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant once (`Backpressure` in both states) with the exact
    /// JSON line it encodes to: the byte format `HashSink` digests and
    /// `roia explain` reads.
    fn golden() -> Vec<(TraceEvent, &'static str)> {
        vec![
                (
                TraceEvent::TickSpan {
                    tick: 4180,
                    server: 2,
                    zone: 0,
                    duration_s: 0.0312,
                    per_task: [0.001, 0.002, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0282],
                    active_users: 120,
                    shadow_users: 60,
                    npcs: 50,
                    migrations_initiated: 3,
                    migrations_received: 0,
                },
                    "{\"ev\": \"tick_span\", \"tick\": 4180, \"server\": 2, \"zone\": 0, \"duration_s\": 0.0312, \"per_task\": [0.001, 0.002, 0, 0, 0, 0, 0, 0, 0, 0.0282], \"active_users\": 120, \"shadow_users\": 60, \"npcs\": 50, \"migrations_initiated\": 3, \"migrations_received\": 0}",
                ),
                (
                TraceEvent::ControlRound {
                    tick: 4175,
                    zone: 0,
                    servers: 2,
                    users: 210,
                    issued: 3,
                },
                    "{\"ev\": \"control_round\", \"tick\": 4175, \"zone\": 0, \"servers\": 2, \"users\": 210, \"issued\": 3}",
                ),
                (
                TraceEvent::Decision {
                    tick: 4175,
                    zone: 0,
                    kind: "add_replica",
                    model_version: 3,
                    replicas: 2,
                    users: 210,
                    forecast_users: 214,
                    npcs: 150,
                    predicted_tick_s: 0.0388,
                    n_max: 260,
                    trigger: 208,
                    l_max: 5,
                },
                    "{\"ev\": \"decision\", \"tick\": 4175, \"zone\": 0, \"kind\": \"add_replica\", \"model_version\": 3, \"replicas\": 2, \"users\": 210, \"forecast_users\": 214, \"npcs\": 150, \"predicted_tick_s\": 0.0388, \"n_max\": 260, \"trigger\": 208, \"l_max\": 5}",
                ),
                (
                TraceEvent::MigrationBudget {
                    tick: 4175,
                    cause: 4175,
                    from: 0,
                    to: 2,
                    from_tick_s: 0.041,
                    to_tick_s: 0.012,
                    x_max_ini: 12,
                    x_max_rcv: 40,
                    granted: 12,
                },
                    "{\"ev\": \"migration_budget\", \"tick\": 4175, \"cause\": 4175, \"from\": 0, \"to\": 2, \"from_tick_s\": 0.041, \"to_tick_s\": 0.012, \"x_max_ini\": 12, \"x_max_rcv\": 40, \"granted\": 12}",
                ),
                (
                TraceEvent::ActionIssued {
                    tick: 4175,
                    cause: 4175,
                    action_id: 17,
                    kind: "migrate",
                    attempt: 1,
                    from: 0,
                    to: 2,
                    users: 12,
                },
                    "{\"ev\": \"action_issued\", \"tick\": 4175, \"cause\": 4175, \"action_id\": 17, \"kind\": \"migrate\", \"attempt\": 1, \"from\": 0, \"to\": 2, \"users\": 12}",
                ),
                (
                TraceEvent::ActionResolved {
                    tick: 4176,
                    action_id: 17,
                    outcome: "succeeded",
                },
                    "{\"ev\": \"action_resolved\", \"tick\": 4176, \"action_id\": 17, \"outcome\": \"succeeded\"}",
                ),
                (
                TraceEvent::MigrationPlanned {
                    tick: 4176,
                    action_id: 17,
                    from: 0,
                    to: 2,
                    users: 12,
                },
                    "{\"ev\": \"migration_planned\", \"tick\": 4176, \"action_id\": 17, \"from\": 0, \"to\": 2, \"users\": 12}",
                ),
                (
                TraceEvent::MigrationSettled {
                    tick: 4180,
                    server: 2,
                    arrived: 12,
                },
                    "{\"ev\": \"migration_settled\", \"tick\": 4180, \"server\": 2, \"arrived\": 12}",
                ),
                (
                TraceEvent::FaultInjected {
                    tick: 900,
                    fault: "crash_most_loaded",
                    server: -1,
                },
                    "{\"ev\": \"fault_injected\", \"tick\": 900, \"fault\": \"crash_most_loaded\", \"server\": -1}",
                ),
                (
                TraceEvent::FaultReverted {
                    tick: 1400,
                    fault: "unisolate",
                    server: 1,
                },
                    "{\"ev\": \"fault_reverted\", \"tick\": 1400, \"fault\": \"unisolate\", \"server\": 1}",
                ),
                (
                TraceEvent::ServerBooted {
                    tick: 4225,
                    server: 3,
                },
                    "{\"ev\": \"server_booted\", \"tick\": 4225, \"server\": 3}",
                ),
                (
                TraceEvent::ServerCrashed {
                    tick: 900,
                    server: 1,
                },
                    "{\"ev\": \"server_crashed\", \"tick\": 900, \"server\": 1}",
                ),
                (
                TraceEvent::ServerRemoved {
                    tick: 7000,
                    server: 3,
                },
                    "{\"ev\": \"server_removed\", \"tick\": 7000, \"server\": 3}",
                ),
                (
                TraceEvent::Refit {
                    tick: 3000,
                    reason: "drift",
                    outcome: "published",
                    version: 4,
                    params: 2,
                },
                    "{\"ev\": \"refit\", \"tick\": 3000, \"reason\": \"drift\", \"outcome\": \"published\", \"version\": 4, \"params\": 2}",
                ),
                (
                TraceEvent::RegistrySwap {
                    tick: 3000,
                    version: 4,
                    reason: "drift",
                },
                    "{\"ev\": \"registry_swap\", \"tick\": 3000, \"version\": 4, \"reason\": \"drift\"}",
                ),
                (
                TraceEvent::DegradedEnter {
                    tick: 5100,
                    cause: 5098,
                    reason: "out_of_capacity",
                    admission: "queue",
                    fidelity: 0.6,
                },
                    "{\"ev\": \"degraded_enter\", \"tick\": 5100, \"cause\": 5098, \"reason\": \"out_of_capacity\", \"admission\": \"queue\", \"fidelity\": 0.6}",
                ),
                (
                TraceEvent::DegradedExit {
                    tick: 5600,
                    cause: 5100,
                    dwell_ticks: 500,
                    queued: 7,
                    shed: 0,
                },
                    "{\"ev\": \"degraded_exit\", \"tick\": 5600, \"cause\": 5100, \"dwell_ticks\": 500, \"queued\": 7, \"shed\": 0}",
                ),
                (
                TraceEvent::JoinThrottled {
                    tick: 5120,
                    cause: 5100,
                    verdict: "queue",
                    total: 7,
                },
                    "{\"ev\": \"join_throttled\", \"tick\": 5120, \"cause\": 5100, \"verdict\": \"queue\", \"total\": 7}",
                ),
                (
                TraceEvent::ConnOpened {
                    tick: 12,
                    peer: 3,
                    transport: "tcp",
                },
                    "{\"ev\": \"conn_opened\", \"tick\": 12, \"peer\": 3, \"transport\": \"tcp\"}",
                ),
                (
                TraceEvent::ConnClosed {
                    tick: 480,
                    cause: 12,
                    peer: 3,
                    reason: "bye",
                },
                    "{\"ev\": \"conn_closed\", \"tick\": 480, \"cause\": 12, \"peer\": 3, \"reason\": \"bye\"}",
                ),
                (
                TraceEvent::Backpressure {
                    tick: 200,
                    cause: 200,
                    peer: 3,
                    state: "onset",
                    queued_bytes: 262200,
                },
                    "{\"ev\": \"backpressure\", \"tick\": 200, \"cause\": 200, \"peer\": 3, \"state\": \"onset\", \"queued_bytes\": 262200}",
                ),
                (
                TraceEvent::Backpressure {
                    tick: 208,
                    cause: 200,
                    peer: 3,
                    state: "relief",
                    queued_bytes: 0,
                },
                    "{\"ev\": \"backpressure\", \"tick\": 208, \"cause\": 200, \"peer\": 3, \"state\": \"relief\", \"queued_bytes\": 0}",
                ),
                (
                TraceEvent::SloBurn {
                    tick: 5200,
                    cause: 5150,
                    slo: "tick_budget",
                    severity: "page",
                    fast_burn_pm: 14_200,
                    slow_burn_pm: 2_100,
                },
                    "{\"ev\": \"slo_burn\", \"tick\": 5200, \"cause\": 5150, \"slo\": \"tick_budget\", \"severity\": \"page\", \"fast_burn_pm\": 14200, \"slow_burn_pm\": 2100}",
                ),
                (
                TraceEvent::SloRecovered {
                    tick: 5700,
                    cause: 5150,
                    slo: "tick_budget",
                    burn_ticks: 500,
                },
                    "{\"ev\": \"slo_recovered\", \"tick\": 5700, \"cause\": 5150, \"slo\": \"tick_budget\", \"burn_ticks\": 500}",
                ),
                (
                TraceEvent::PostmortemDumped {
                    tick: 5200,
                    cause: 5150,
                    reason: "slo_page",
                    seq: 0,
                    events: 512,
                    decisions: 24,
                    model_version: 4,
                },
                    "{\"ev\": \"postmortem_dumped\", \"tick\": 5200, \"cause\": 5150, \"reason\": \"slo_page\", \"seq\": 0, \"events\": 512, \"decisions\": 24, \"model_version\": 4}",
                ),
                (
                TraceEvent::ReconcileCorrection {
                    tick: 310,
                    cause: 310,
                    peer: 42,
                    seq: 87,
                    error: 16,
                },
                    "{\"ev\": \"reconcile_correction\", \"tick\": 310, \"cause\": 310, \"peer\": 42, \"seq\": 87, \"error\": 16}",
                ),
        ]
    }

    /// Index of the variant; exhaustive, so a new variant fails to compile
    /// here until it has a golden sample.
    fn variant_index(ev: &TraceEvent) -> usize {
        match ev {
            TraceEvent::TickSpan { .. } => 0,
            TraceEvent::ControlRound { .. } => 1,
            TraceEvent::Decision { .. } => 2,
            TraceEvent::MigrationBudget { .. } => 3,
            TraceEvent::ActionIssued { .. } => 4,
            TraceEvent::ActionResolved { .. } => 5,
            TraceEvent::MigrationPlanned { .. } => 6,
            TraceEvent::MigrationSettled { .. } => 7,
            TraceEvent::FaultInjected { .. } => 8,
            TraceEvent::FaultReverted { .. } => 9,
            TraceEvent::ServerBooted { .. } => 10,
            TraceEvent::ServerCrashed { .. } => 11,
            TraceEvent::ServerRemoved { .. } => 12,
            TraceEvent::Refit { .. } => 13,
            TraceEvent::RegistrySwap { .. } => 14,
            TraceEvent::DegradedEnter { .. } => 15,
            TraceEvent::DegradedExit { .. } => 16,
            TraceEvent::JoinThrottled { .. } => 17,
            TraceEvent::ConnOpened { .. } => 18,
            TraceEvent::ConnClosed { .. } => 19,
            TraceEvent::Backpressure { .. } => 20,
            TraceEvent::SloBurn { .. } => 21,
            TraceEvent::SloRecovered { .. } => 22,
            TraceEvent::PostmortemDumped { .. } => 23,
            TraceEvent::ReconcileCorrection { .. } => 24,
        }
    }

    #[test]
    fn every_variant_encodes_to_its_pinned_line() {
        let golden = golden();
        let mut names = std::collections::BTreeSet::new();
        let mut seen = [false; 25];
        for (ev, line) in &golden {
            assert_eq!(ev.to_json(), *line, "{}", ev.name());
            names.insert(ev.name());
            seen[variant_index(ev)] = true;
        }
        assert!(seen.iter().all(|s| *s), "a variant has no golden sample");
        assert_eq!(names.len(), seen.len(), "every variant has its own name");
    }

    #[test]
    fn json_round_trip_preserves_every_event() {
        for (ev, line) in golden() {
            let back =
                TraceEvent::from_json(line).unwrap_or_else(|| panic!("failed to decode: {line}"));
            assert_eq!(back, ev, "round trip changed {line}");
        }
    }

    #[test]
    fn binary_round_trip_preserves_every_event() {
        let mut strings = Vec::new();
        for (ev, _) in golden() {
            let mut buf = [0; MAX_ENCODED];
            let mut out = Writer::new(&mut buf, &mut strings);
            ev.put(&mut out);
            let written = out.written();
            let mut src = Reader::new(&buf[..written], &strings);
            assert_eq!(
                TraceEvent::take(&mut src),
                Some(ev.clone()),
                "{}",
                ev.name()
            );
            assert!(src.bytes.is_empty(), "{} left bytes unread", ev.name());
        }
        // One shared table: each distinct string is stored once.
        let mut sorted = strings.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), strings.len());
    }

    #[test]
    fn truncated_or_foreign_bytes_decode_to_none() {
        let mut strings = Vec::new();
        let mut buf = [0; MAX_ENCODED];
        let mut out = Writer::new(&mut buf, &mut strings);
        golden()[0].0.put(&mut out);
        for cut in 0..out.written() {
            let mut src = Reader::new(&buf[..cut], &strings);
            assert_eq!(TraceEvent::take(&mut src), None, "cut at {cut}");
        }
        let unknown = [TAGS.len() as u8];
        let mut src = Reader::new(&unknown, &strings);
        assert_eq!(TraceEvent::take(&mut src), None, "unknown tag");
        let mut src = Reader::new(&[Tag::ActionResolved as u8, 1, 1, 0], &[]);
        assert_eq!(
            TraceEvent::take(&mut src),
            None,
            "string index outside the table"
        );
    }

    #[test]
    fn out_of_range_integers_are_rejected_not_wrapped() {
        let line = "{\"ev\": \"server_booted\", \"tick\": 7, \"server\": 4294967298}";
        assert_eq!(TraceEvent::from_json(line), None, "u32 id would wrap to 2");
        // Every numeric field of every variant: a value its type cannot
        // hold decodes to `None`; one it can hold comes back exactly.
        for (ev, line) in golden() {
            let map = export::parse_object(line).unwrap();
            for (key, value) in &map {
                if value.as_f64().is_none() {
                    continue;
                }
                for probe in [4_294_967_298.0, -1.0] {
                    let mut bent = map.clone();
                    bent.insert(key.clone(), JsonValue::Num(probe));
                    if let Some(back) = TraceEvent::from_fields(&bent) {
                        let echoed = export::parse_object(&back.to_json()).unwrap();
                        assert_eq!(
                            echoed[key].as_f64(),
                            Some(probe),
                            "{}.{key} = {probe} came back altered",
                            ev.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_event_names_decode_to_none() {
        assert!(TraceEvent::from_json("{\"ev\": \"mystery\", \"tick\": 1}").is_none());
        assert!(TraceEvent::from_json("not json").is_none());
    }

    #[test]
    fn intern_covers_emitted_vocabulary() {
        for word in ["migrate", "succeeded", "drift", "published", "isolate"] {
            assert_eq!(intern(word), word);
        }
        assert_eq!(intern("zalgo"), "unknown");
    }
}
