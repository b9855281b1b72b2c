//! Property tests for the log-linear histogram: quantiles are monotone
//! (p50 ≤ p90 ≤ p99 ≤ max), and merging two histograms equals recording
//! the union of their value streams. The bucket-layout properties sit
//! beside the layout, in the crate's unit tests.
//!
//! And for the trace ring's compact encoding: every variant comes back
//! from a [`RingSink`] bit for bit, edge values included, and the ring
//! keeps, evicts and counts exactly what a plain `VecDeque` would.

use roia_obs::{Histogram, RingSink, TraceEvent, TraceSink, TASK_SLOTS};
use roia_rng::{check, Rng, Xoshiro256pp};
use std::collections::VecDeque;

/// Mix of small exact-region values, mid-range latencies and extreme
/// magnitudes so every bucket regime is exercised.
fn arb_value(rng: &mut Xoshiro256pp) -> u64 {
    match rng.gen_range(0..3) {
        0 => rng.gen_range(0..64),
        1 => rng.gen_range(64..1_000_000),
        _ => rng.next_u64(),
    }
}

#[test]
fn quantiles_are_monotone() {
    check(256, |rng| {
        let values = (0..rng.gen_range(1..200))
            .map(|_| arb_value(rng))
            .collect::<Vec<_>>();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        assert!(s.p50 <= s.p90, "p50 {} > p90 {}", s.p50, s.p90);
        assert!(s.p90 <= s.p99, "p90 {} > p99 {}", s.p90, s.p99);
        assert!(s.p99 <= s.p999, "p99 {} > p99.9 {}", s.p99, s.p999);
        assert!(s.p999 <= s.max, "p99.9 {} > max {}", s.p999, s.max);
        assert!(s.min <= s.p50, "min {} > p50 {}", s.min, s.p50);
        assert_eq!(s.count, values.len() as u64);
    });
}

#[test]
fn merge_equals_recording_the_union() {
    check(256, |rng| {
        let a_values = (0..rng.gen_range(0..100))
            .map(|_| arb_value(rng))
            .collect::<Vec<_>>();
        let b_values = (0..rng.gen_range(0..100))
            .map(|_| arb_value(rng))
            .collect::<Vec<_>>();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut union = Histogram::new();
        for &v in &a_values {
            a.record(v);
            union.record(v);
        }
        for &v in &b_values {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(&a, &union);
        assert_eq!(a.snapshot(), union.snapshot());
    });
}

/// Stronger than snapshot equality: the merged histogram answers
/// *every* quantile query exactly as the union recording does, not
/// just the four snapshot percentiles.
#[test]
fn merged_percentiles_equal_union_at_arbitrary_q() {
    check(256, |rng| {
        let a_values = (0..rng.gen_range(1..120))
            .map(|_| arb_value(rng))
            .collect::<Vec<_>>();
        let b_values = (0..rng.gen_range(0..120))
            .map(|_| arb_value(rng))
            .collect::<Vec<_>>();
        let qs = (0..rng.gen_range(1..16))
            .map(|_| rng.gen_range(0.0_f64..=1.0))
            .collect::<Vec<_>>();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut union = Histogram::new();
        for &v in &a_values {
            a.record(v);
            union.record(v);
        }
        for &v in &b_values {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        for &q in &qs {
            assert_eq!(
                a.percentile(q),
                union.percentile(q),
                "q={} diverges after merge",
                q
            );
        }
        // Merge is also order-insensitive: b.merge(a) answers the same.
        let mut flipped = Histogram::new();
        for &v in &b_values {
            flipped.record(v);
        }
        let mut a_only = Histogram::new();
        for &v in &a_values {
            a_only.record(v);
        }
        flipped.merge(&a_only);
        for &q in &qs {
            assert_eq!(flipped.percentile(q), union.percentile(q));
        }
    });
}

/// Merging an empty histogram is the identity in both directions.
#[test]
fn merge_with_empty_is_identity() {
    check(256, |rng| {
        let values = (0..rng.gen_range(0..100))
            .map(|_| arb_value(rng))
            .collect::<Vec<_>>();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(&h, &before);
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(&empty, &before);
    });
}

// ---------------------------------------------------------------------
// The trace ring's encoding
// ---------------------------------------------------------------------

/// Variants of [`TraceEvent`]; `arb_event` builds each of them.
const VARIANTS: usize = 25;

fn pick<T: Copy>(rng: &mut Xoshiro256pp, edges: &[T], random: T) -> T {
    if rng.gen_bool(0.25) {
        random
    } else {
        edges[rng.gen_range(0..edges.len())]
    }
}

fn arb_u64(rng: &mut Xoshiro256pp) -> u64 {
    let random = rng.next_u64() >> rng.gen_range(0..64);
    pick(rng, &[0, 1, 127, 128, 16_383, 16_384, u64::MAX], random)
}

fn arb_u32(rng: &mut Xoshiro256pp) -> u32 {
    let random = (rng.next_u64() >> rng.gen_range(32..64)) as u32;
    pick(rng, &[0, 1, 127, 128, u32::MAX], random)
}

fn arb_i64(rng: &mut Xoshiro256pp) -> i64 {
    let random = rng.next_u64() as i64 >> rng.gen_range(0..64);
    pick(rng, &[i64::MIN, -65, -64, -1, 0, 63, 64, i64::MAX], random)
}

/// Zeros of both signs, infinities, subnormals and NaNs with payloads,
/// or any bit pattern at all.
fn arb_f64(rng: &mut Xoshiro256pp) -> f64 {
    let random = f64::from_bits(rng.next_u64());
    let edges = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(1),
        f64::from_bits(0x800f_ffff_ffff_ffff),
        f64::MIN_POSITIVE,
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0xfff0_0000_dead_beef),
        0.0312,
    ];
    pick(rng, &edges, random)
}

/// Emitted vocabulary and strings outside it, which a JSON round trip
/// would read back as `"unknown"`.
fn arb_str(rng: &mut Xoshiro256pp) -> &'static str {
    const WORDS: &[&str] = &[
        "migrate",
        "succeeded",
        "tick_budget",
        "page",
        "zalgo",
        "",
        "ünïcödé",
        "a string well outside the vocabulary",
    ];
    WORDS[rng.gen_range(0..WORDS.len())]
}

fn arb_slots(rng: &mut Xoshiro256pp) -> [f64; TASK_SLOTS] {
    let mut slots = [0.0; TASK_SLOTS];
    for slot in &mut slots {
        if rng.gen_bool(0.6) {
            *slot = arb_f64(rng);
        }
    }
    slots
}

fn arb_event(rng: &mut Xoshiro256pp, variant: usize) -> TraceEvent {
    let tick = arb_u64(rng);
    match variant {
        0 => TraceEvent::TickSpan {
            tick,
            server: arb_u32(rng),
            zone: arb_u32(rng),
            duration_s: arb_f64(rng),
            per_task: arb_slots(rng),
            active_users: arb_u32(rng),
            shadow_users: arb_u32(rng),
            npcs: arb_u32(rng),
            migrations_initiated: arb_u32(rng),
            migrations_received: arb_u32(rng),
        },
        1 => TraceEvent::ControlRound {
            tick,
            zone: arb_u32(rng),
            servers: arb_u32(rng),
            users: arb_u32(rng),
            issued: arb_u32(rng),
        },
        2 => TraceEvent::Decision {
            tick,
            zone: arb_u32(rng),
            kind: arb_str(rng),
            model_version: arb_u64(rng),
            replicas: arb_u32(rng),
            users: arb_u32(rng),
            forecast_users: arb_u32(rng),
            npcs: arb_u32(rng),
            predicted_tick_s: arb_f64(rng),
            n_max: arb_u32(rng),
            trigger: arb_u32(rng),
            l_max: arb_u32(rng),
        },
        3 => TraceEvent::MigrationBudget {
            tick,
            cause: arb_u64(rng),
            from: arb_u32(rng),
            to: arb_u32(rng),
            from_tick_s: arb_f64(rng),
            to_tick_s: arb_f64(rng),
            x_max_ini: arb_u32(rng),
            x_max_rcv: arb_u32(rng),
            granted: arb_u32(rng),
        },
        4 => TraceEvent::ActionIssued {
            tick,
            cause: arb_u64(rng),
            action_id: arb_u64(rng),
            kind: arb_str(rng),
            attempt: arb_u32(rng),
            from: arb_i64(rng),
            to: arb_i64(rng),
            users: arb_u32(rng),
        },
        5 => TraceEvent::ActionResolved {
            tick,
            action_id: arb_u64(rng),
            outcome: arb_str(rng),
        },
        6 => TraceEvent::MigrationPlanned {
            tick,
            action_id: arb_u64(rng),
            from: arb_u32(rng),
            to: arb_u32(rng),
            users: arb_u32(rng),
        },
        7 => TraceEvent::MigrationSettled {
            tick,
            server: arb_u32(rng),
            arrived: arb_u32(rng),
        },
        8 => TraceEvent::FaultInjected {
            tick,
            fault: arb_str(rng),
            server: arb_i64(rng),
        },
        9 => TraceEvent::FaultReverted {
            tick,
            fault: arb_str(rng),
            server: arb_i64(rng),
        },
        10 => TraceEvent::ServerBooted {
            tick,
            server: arb_u32(rng),
        },
        11 => TraceEvent::ServerCrashed {
            tick,
            server: arb_u32(rng),
        },
        12 => TraceEvent::ServerRemoved {
            tick,
            server: arb_u32(rng),
        },
        13 => TraceEvent::Refit {
            tick,
            reason: arb_str(rng),
            outcome: arb_str(rng),
            version: arb_u64(rng),
            params: arb_u32(rng),
        },
        14 => TraceEvent::RegistrySwap {
            tick,
            version: arb_u64(rng),
            reason: arb_str(rng),
        },
        15 => TraceEvent::DegradedEnter {
            tick,
            cause: arb_u64(rng),
            reason: arb_str(rng),
            admission: arb_str(rng),
            fidelity: arb_f64(rng),
        },
        16 => TraceEvent::DegradedExit {
            tick,
            cause: arb_u64(rng),
            dwell_ticks: arb_u64(rng),
            queued: arb_u32(rng),
            shed: arb_u32(rng),
        },
        17 => TraceEvent::JoinThrottled {
            tick,
            cause: arb_u64(rng),
            verdict: arb_str(rng),
            total: arb_u32(rng),
        },
        18 => TraceEvent::ConnOpened {
            tick,
            peer: arb_u64(rng),
            transport: arb_str(rng),
        },
        19 => TraceEvent::ConnClosed {
            tick,
            cause: arb_u64(rng),
            peer: arb_u64(rng),
            reason: arb_str(rng),
        },
        20 => TraceEvent::Backpressure {
            tick,
            cause: arb_u64(rng),
            peer: arb_u64(rng),
            state: arb_str(rng),
            queued_bytes: arb_u64(rng),
        },
        21 => TraceEvent::SloBurn {
            tick,
            cause: arb_u64(rng),
            slo: arb_str(rng),
            severity: arb_str(rng),
            fast_burn_pm: arb_u64(rng),
            slow_burn_pm: arb_u64(rng),
        },
        22 => TraceEvent::SloRecovered {
            tick,
            cause: arb_u64(rng),
            slo: arb_str(rng),
            burn_ticks: arb_u64(rng),
        },
        23 => TraceEvent::PostmortemDumped {
            tick,
            cause: arb_u64(rng),
            reason: arb_str(rng),
            seq: arb_u32(rng),
            events: arb_u32(rng),
            decisions: arb_u32(rng),
            model_version: arb_u64(rng),
        },
        24 => TraceEvent::ReconcileCorrection {
            tick,
            cause: arb_u64(rng),
            peer: arb_u64(rng),
            seq: arb_u32(rng),
            error: arb_u64(rng),
        },
        _ => unreachable!("{VARIANTS} variants"),
    }
}

/// The bits of every `f64` field: `PartialEq` says NaN ≠ NaN and
/// -0.0 = 0.0, `Debug` prints every NaN alike.
fn f64_bits(ev: &TraceEvent) -> Vec<u64> {
    match ev {
        TraceEvent::TickSpan {
            duration_s,
            per_task,
            ..
        } => std::iter::once(duration_s)
            .chain(per_task)
            .map(|v| v.to_bits())
            .collect(),
        TraceEvent::Decision {
            predicted_tick_s, ..
        } => vec![predicted_tick_s.to_bits()],
        TraceEvent::MigrationBudget {
            from_tick_s,
            to_tick_s,
            ..
        } => vec![from_tick_s.to_bits(), to_tick_s.to_bits()],
        TraceEvent::DegradedEnter { fidelity, .. } => vec![fidelity.to_bits()],
        _ => Vec::new(),
    }
}

/// Equal in every field, each `f64` bit for bit.
fn assert_identical(got: &[TraceEvent], want: &[TraceEvent], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: event count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(format!("{g:?}"), format!("{w:?}"), "{context}: event {i}");
        assert_eq!(f64_bits(g), f64_bits(w), "{context}: f64 bits of event {i}");
    }
}

#[test]
fn every_variant_comes_back_from_the_ring_bit_for_bit() {
    check(64, |rng| {
        let events: Vec<TraceEvent> = (0..VARIANTS * 4)
            .map(|i| arb_event(rng, i % VARIANTS))
            .collect();
        let mut ring = RingSink::new(events.len());
        for ev in &events {
            ring.record(ev);
        }
        assert_eq!(ring.len(), events.len());
        assert_eq!(ring.dropped(), 0);
        assert_identical(&ring.drain(), &events, "round trip");
        assert!(ring.is_empty());
    });
}

/// The ring against a `VecDeque` that keeps the newest `capacity` events,
/// under random records and drains. Mixed variants put block boundaries
/// at varied places, so events on both sides of many boundaries, and
/// blocks recycled mid-drain, are read back.
fn ring_matches_the_deque_model_at(capacity: usize, ops: usize, cases: u64) {
    check(cases, |rng| {
        let mut ring = RingSink::new(capacity);
        let mut model: VecDeque<TraceEvent> = VecDeque::new();
        let mut dropped = 0u64;
        for op in 0..ops {
            // About one drain per two capacities recorded, so the ring
            // both fills and wraps between drains.
            if rng.gen_bool(0.5 / capacity as f64) {
                let want: Vec<TraceEvent> = model.drain(..).collect();
                assert_identical(&ring.drain(), &want, &format!("drain at op {op}"));
            } else {
                let variant = rng.gen_range(0..VARIANTS);
                let ev = arb_event(rng, variant);
                if model.len() == capacity {
                    model.pop_front();
                    dropped += 1;
                }
                model.push_back(ev.clone());
                ring.record(&ev);
            }
            assert_eq!(ring.len(), model.len(), "len after op {op}");
            assert_eq!(ring.dropped(), dropped, "dropped after op {op}");
        }
        assert!(dropped > 0, "the ring wrapped");
        let want: Vec<TraceEvent> = model.drain(..).collect();
        assert_identical(&ring.drain(), &want, "final drain");
    });
}

#[test]
fn small_rings_match_the_deque_model() {
    for capacity in [1, 2, 3, 64] {
        ring_matches_the_deque_model_at(capacity, 2_000, 16);
    }
}

#[test]
fn a_full_size_ring_matches_the_deque_model() {
    ring_matches_the_deque_model_at(65_536, 200_000, 2);
}
