//! Scoped worker pool for the deterministic parallel tick.
//!
//! [`Cluster::step`](crate::cluster::Cluster::step) runs every server (and
//! every client) tick under a paused bus, so within one cluster tick the
//! ticked entities are data-independent: nothing a worker does is visible
//! to another worker until the driver resumes delivery at the phase
//! boundary. That makes the fan-out below *order-free*: workers may
//! interleave arbitrarily, yet
//!
//! 1. per-entity state transitions depend only on that entity's own inbox
//!    and RNG stream (owned by exactly one worker),
//! 2. per-link message order on the bus is each sender's program order
//!    (one sender per directed link), and the deferred flush appends the
//!    links to each destination's inbox queue in ascending key order
//!    regardless of which worker sent first,
//! 3. results are returned in input order (contiguous chunks, concatenated
//!    in chunk order), and trace events are drained from per-server
//!    buffers in server order after the join.
//!
//! Together these make a run with `threads = k` byte-identical to a serial
//! run — the property `tests/determinism.rs` pins with trace digests.
//!
//! The pool is one function, [`map_mut_scheduled`], built on the standard
//! library's scoped threads: no extra dependencies, no detached threads,
//! and borrowed data (`&mut [T]`) flows in without `'static` bounds.
//!
//! Because the fan-out is order-free, any *schedule* — which worker runs
//! which chunk, in what temporal order, with what preemption pattern —
//! must yield the same observable history. [`Schedule`] makes that
//! property testable: a permuted schedule reorders chunk spawns, walks
//! each chunk in a seed-derived order and injects yields between items,
//! while still returning results in input order. The `schedule_stress`
//! harness and `tests/determinism.rs` assert byte-identical trace digests
//! across many permuted schedules.

/// A deterministic perturbation of the fan-out's execution schedule.
///
/// [`Schedule::natural`] is the production behaviour: chunks spawn and
/// walk in input order with no injected yields. [`Schedule::permuted`]
/// derives a chunk-spawn permutation, per-chunk walk orders and a yield
/// mask from the seed — chunk *boundaries* (which items share a worker)
/// never change, so a permuted run exercises different thread
/// interleavings over exactly the same work assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Schedule {
    seed: u64,
}

impl Schedule {
    /// Input-order spawns, input-order walks, no injected yields.
    pub fn natural() -> Self {
        Schedule { seed: 0 }
    }

    /// A seed-derived permuted schedule (`seed == 0` is the natural one).
    pub fn permuted(seed: u64) -> Self {
        Schedule { seed }
    }

    /// True for the unperturbed production schedule.
    pub fn is_natural(self) -> bool {
        self.seed == 0
    }
}

/// One xorshift64 step — the cheap deterministic bit source behind
/// permutations and yield masks (never zero once seeded non-zero).
fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// A Fisher–Yates shuffle driven by `seed`.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut s = seed | 1;
    for i in (1..items.len()).rev() {
        s = xorshift(s);
        items.swap(i, (s % (i as u64 + 1)) as usize);
    }
}

/// A permutation of `0..n` driven by `seed`.
fn permuted_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, seed);
    order
}

/// Walks chunk `idx` and returns the results in the chunk's input order:
/// in order under the natural schedule, otherwise in an order derived from
/// the seed and `idx`, with injected yields.
fn run_chunk<T, R, F>(part: &mut [T], idx: usize, schedule: Schedule, f: &F) -> Vec<R>
where
    F: Fn(&mut T) -> R,
{
    if schedule.is_natural() {
        return part.iter_mut().map(f).collect();
    }
    let seed = (schedule.seed | 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ idx as u64;
    let mut s = seed | 1;
    let mut visited: Vec<(usize, R)> = permuted_indices(part.len(), seed)
        .into_iter()
        .map(|i| {
            s = xorshift(s);
            if s & 7 == 0 {
                std::thread::yield_now();
            }
            (i, f(&mut part[i])) // lint: allow(panic, "i comes from permuted_indices(part.len(), ..), so it is in bounds")
        })
        .collect();
    visited.sort_unstable_by_key(|(i, _)| *i);
    visited.into_iter().map(|(_, r)| r).collect()
}

/// [`map_mut_scheduled`] under the natural (production) schedule.
pub fn map_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    map_mut_scheduled(items, threads, Schedule::natural(), f)
}

/// Applies `f` to every element, fanning contiguous chunks across at most
/// `threads` scoped workers, and returns the results in input order.
///
/// `threads <= 1`, or a single item, degenerates to one chunk walked on
/// the calling thread — same observable behaviour, no thread setup. A
/// permuted [`Schedule`] spawns the same chunks in a seed-derived order
/// and walks each in a per-chunk derived order with injected yields (even
/// single-threaded — catching code that depends on sibling visit order).
pub fn map_mut_scheduled<T, R, F>(
    items: &mut [T],
    threads: usize,
    schedule: Schedule,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n).max(1);
    if workers <= 1 {
        return run_chunk(items, 0, schedule, &f);
    }
    let mut parts: Vec<(usize, &mut [T])> =
        items.chunks_mut(n.div_ceil(workers)).enumerate().collect();
    if !schedule.is_natural() {
        shuffle(&mut parts, xorshift(schedule.seed | 1));
    }
    let mut out: Vec<R> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(parts.len());
        for (idx, part) in parts {
            let f = &f;
            handles.push((idx, scope.spawn(move || run_chunk(part, idx, schedule, f))));
        }
        // Join in chunk order so the output is input order no matter how
        // the spawns were permuted.
        handles.sort_unstable_by_key(|(idx, _)| *idx);
        for (_, handle) in handles {
            match handle.join() {
                Ok(mut part) => out.append(&mut part),
                // A worker panic is a bug in the ticked code; re-raise it
                // on the driver thread instead of swallowing it.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The natural schedule and twelve permuted ones.
    fn schedules() -> impl Iterator<Item = Schedule> {
        std::iter::once(Schedule::natural()).chain((1..=12).map(Schedule::permuted))
    }

    #[test]
    fn results_keep_input_order() {
        let mut items: Vec<u64> = (0..103).collect();
        let out = map_mut(&mut items, 4, |x| *x * 2);
        assert_eq!(out, (0..103).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let mut items = vec![1u32, 2, 3];
        let out = map_mut(&mut items, 64, |x| *x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        let mut empty: Vec<u32> = Vec::new();
        assert!(map_mut(&mut empty, 8, |x| *x).is_empty());
    }

    #[test]
    fn permuted_indices_are_a_permutation() {
        for seed in [1, 7, 0xDEAD_BEEF, u64::MAX] {
            let mut order = permuted_indices(37, seed);
            order.sort_unstable();
            assert_eq!(order, (0..37).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn every_schedule_and_thread_count_matches_the_serial_walk() {
        assert!(Schedule::default().is_natural());
        let scramble = |x: &mut u64| {
            *x = x.wrapping_mul(0x9E37_79B9).rotate_left(13);
            *x ^ 1
        };
        let mut serial_items: Vec<u64> = (0..103).collect();
        let serial: Vec<u64> = serial_items.iter_mut().map(scramble).collect();
        for schedule in schedules() {
            for threads in [1, 2, 3, 4, 8] {
                let mut items: Vec<u64> = (0..103).collect();
                let out = map_mut_scheduled(&mut items, threads, schedule, scramble);
                assert_eq!(out, serial, "{schedule:?} threads={threads}");
                assert_eq!(items, serial_items, "{schedule:?} threads={threads}");
            }
        }
    }

    #[test]
    fn every_schedule_visits_each_item_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for schedule in schedules() {
            let calls = AtomicUsize::new(0);
            let mut items: Vec<u64> = vec![0; 57];
            map_mut_scheduled(&mut items, 3, schedule, |x| {
                calls.fetch_add(1, Ordering::Relaxed);
                *x += 1;
            });
            assert_eq!(calls.load(Ordering::Relaxed), 57, "{schedule:?}");
            assert!(items.iter().all(|x| *x == 1), "{schedule:?}");
        }
    }

    #[test]
    fn worker_panic_is_reraised_on_the_driver_thread() {
        for schedule in [Schedule::natural(), Schedule::permuted(5)] {
            let mut items: Vec<u32> = (0..40).collect();
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                map_mut_scheduled(&mut items, 4, schedule, |x| {
                    assert_ne!(*x, 23, "worker bug");
                    *x
                })
            }))
            .expect_err("the worker's panic must reach the caller");
            let message = payload.downcast_ref::<String>().expect("assert message");
            assert!(message.contains("worker bug"), "{schedule:?}: {message}");
        }
    }
}
