// C4 true positive through the scheduled entry point — the one
// `Cluster` calls: the worker closure records the server it ticked in a
// captured atomic, so the value left behind depends on worker interleaving.
use std::sync::atomic::{AtomicU64, Ordering};

pub fn tick_all(
    servers: &mut [Handle],
    threads: usize,
    schedule: Schedule,
    ticked: &AtomicU64,
) {
    parallel::map_mut_scheduled(servers, threads, schedule, |h| {
        ticked.store(h.server.id(), Ordering::Relaxed);
        h.server.tick()
    });
}
