// C4 clean through the scheduled entry point: the worker closure reads a
// captured value and mutates only the handle it was given.
pub fn tick_all(clients: &mut [Handle], threads: usize, schedule: Schedule, now: u64) {
    parallel::map_mut_scheduled(clients, threads, schedule, |h| {
        h.client.tick(now, &mut h.bot);
    });
}
