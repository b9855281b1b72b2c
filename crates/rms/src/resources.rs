//! The simulated cloud: machine profiles, startup delay, leasing cost.
//!
//! The paper motivates RTF-RMS with "cost-efficient leasing \[of\] resources
//! on demand" (Amazon EC2 et al.). This module models that substrate: a
//! [`ResourcePool`] leases machines of different [`MachineProfile`]s, new
//! machines take a startup delay before they can serve, and every leased
//! tick accrues cost — the quantity overprovisioning wastes and RTF-RMS
//! tries to minimize.

use roia_rng::{Rng, SplitMix};
use std::collections::BTreeMap;

/// A machine class offered by the provider.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineProfile {
    /// Relative CPU speed; per-task costs divide by this (1.0 = the
    /// standard profile the model was calibrated on).
    pub speedup: f64,
    /// Leasing cost per simulated hour, in arbitrary currency units.
    pub cost_per_hour: f64,
}

/// The two profiles the experiments use.
impl MachineProfile {
    /// The standard machine (the paper's Intel Core Duo class).
    pub const STANDARD: MachineProfile = MachineProfile {
        speedup: 1.0,
        cost_per_hour: 1.0,
    };
    /// A more powerful machine for resource substitution (§IV).
    pub const POWERFUL: MachineProfile = MachineProfile {
        speedup: 2.0,
        cost_per_hour: 2.5,
    };
}

/// Identifier of a lease request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LeaseId(pub u64);

/// A machine that finished booting and is ready to serve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadyMachine {
    /// The original request.
    pub lease: LeaseId,
    /// The machine's profile.
    pub profile: MachineProfile,
}

/// The outcome of one lease's boot, reported by [`ResourcePool::poll_boot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BootEvent {
    /// The machine booted and is ready to serve.
    Ready(ReadyMachine),
    /// The machine failed to boot (dead-on-arrival instance). The lease is
    /// released automatically; the boot period was still billed, as real
    /// providers do.
    Failed {
        /// The failed request.
        lease: LeaseId,
        /// The profile that was requested.
        profile: MachineProfile,
    },
}

/// Errors from the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// No machine of the requested class is available — for the powerful
    /// class this is the paper's "application has reached a critical user
    /// density [...] the application requires redesign".
    OutOfCapacity,
    /// The lease id is unknown or already released.
    UnknownLease,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::OutOfCapacity => write!(f, "no machine of the requested class available"),
            PoolError::UnknownLease => write!(f, "unknown lease"),
        }
    }
}

impl std::error::Error for PoolError {}

#[derive(Debug, Clone)]
struct Lease {
    profile: MachineProfile,
    ready_at: u64,
    delivered: bool,
    leased_at: u64,
    released_at: Option<u64>,
    /// Decided at request time from the pool's fault generator: this
    /// instance will be dead on arrival.
    fails_boot: bool,
}

/// The provider's pool of leasable machines.
#[derive(Debug, Clone)]
pub struct ResourcePool {
    standard_limit: u32,
    powerful_limit: u32,
    startup_delay_ticks: u64,
    ticks_per_hour: u64,
    next_lease: u64,
    leases: BTreeMap<LeaseId, Lease>,
    /// Probability that a requested machine fails to boot.
    boot_failure_rate: f64,
    /// Fault-sampling generator (untouched while the failure rate is
    /// zero, so fault-free runs are bit-identical to the pre-chaos
    /// behaviour).
    fault_rng: SplitMix,
}

impl ResourcePool {
    /// Creates a pool with capacity limits and a boot delay.
    ///
    /// `ticks_per_hour` converts simulated ticks to billing hours (25 Hz ⇒
    /// 90 000 ticks/hour).
    pub fn new(
        standard_limit: u32,
        powerful_limit: u32,
        startup_delay_ticks: u64,
        ticks_per_hour: u64,
    ) -> Self {
        assert!(ticks_per_hour > 0);
        Self {
            standard_limit,
            powerful_limit,
            startup_delay_ticks,
            ticks_per_hour,
            next_lease: 0,
            leases: BTreeMap::new(),
            boot_failure_rate: 0.0,
            fault_rng: SplitMix::new(0),
        }
    }

    /// A pool resembling the paper's testbed: a handful of standard PCs,
    /// one faster machine, and a short boot delay.
    pub fn testbed() -> Self {
        Self::new(16, 2, 50, 90_000)
    }

    /// Ticks from a request to its machine being ready.
    pub(crate) fn startup_delay_ticks(&self) -> u64 {
        self.startup_delay_ticks
    }

    /// Makes each future request fail its boot with probability `rate`,
    /// sampled deterministically from `seed`. Leases already placed keep
    /// the fate they were assigned at request time.
    pub fn set_boot_failures(&mut self, rate: f64, seed: u64) {
        assert!(
            (0.0..=1.0).contains(&rate),
            "boot failure rate must be in [0, 1]"
        );
        self.boot_failure_rate = rate;
        self.fault_rng = SplitMix::new(seed ^ 0xB007_FA11_D00D_CAFE);
    }

    fn active_count(&self, powerful: bool) -> u32 {
        let count = self
            .leases
            .values()
            .filter(|l| l.released_at.is_none() && (l.profile.speedup > 1.0) == powerful)
            .count();
        roia_model::convert::count_u32(count)
    }

    /// Requests a machine; it becomes ready after the startup delay.
    pub fn request(
        &mut self,
        profile: MachineProfile,
        now_tick: u64,
    ) -> Result<LeaseId, PoolError> {
        let powerful = profile.speedup > 1.0;
        let limit = if powerful {
            self.powerful_limit
        } else {
            self.standard_limit
        };
        if self.active_count(powerful) >= limit {
            return Err(PoolError::OutOfCapacity);
        }
        let id = LeaseId(self.next_lease);
        self.next_lease += 1;
        let fails_boot =
            self.boot_failure_rate > 0.0 && self.fault_rng.f64() < self.boot_failure_rate;
        self.leases.insert(
            id,
            Lease {
                profile,
                ready_at: now_tick + self.startup_delay_ticks,
                delivered: false,
                leased_at: now_tick,
                released_at: None,
                fails_boot,
            },
        );
        Ok(id)
    }

    /// Boot outcomes of leases whose startup delay elapsed by `now_tick`
    /// (each lease reported once). Failed boots release their lease on the
    /// spot — the caller only has to react to the event.
    pub fn poll_boot(&mut self, now_tick: u64) -> Vec<BootEvent> {
        let mut events = Vec::new();
        for (id, lease) in self.leases.iter_mut() {
            if !lease.delivered && lease.released_at.is_none() && lease.ready_at <= now_tick {
                lease.delivered = true;
                if lease.fails_boot {
                    lease.released_at = Some(lease.ready_at.max(lease.leased_at));
                    events.push(BootEvent::Failed {
                        lease: *id,
                        profile: lease.profile,
                    });
                } else {
                    events.push(BootEvent::Ready(ReadyMachine {
                        lease: *id,
                        profile: lease.profile,
                    }));
                }
            }
        }
        events
    }

    /// Machines that finished booting by `now_tick` (each returned once).
    /// Boot failures are processed (lease released) but not reported; use
    /// [`ResourcePool::poll_boot`] to observe them.
    pub fn poll_ready(&mut self, now_tick: u64) -> Vec<ReadyMachine> {
        self.poll_boot(now_tick)
            .into_iter()
            .filter_map(|ev| match ev {
                BootEvent::Ready(machine) => Some(machine),
                BootEvent::Failed { .. } => None,
            })
            .collect()
    }

    /// Releases a machine (resource removal / substitution shutdown).
    pub fn release(&mut self, lease: LeaseId, now_tick: u64) -> Result<(), PoolError> {
        match self.leases.get_mut(&lease) {
            Some(l) if l.released_at.is_none() => {
                l.released_at = Some(now_tick);
                Ok(())
            }
            _ => Err(PoolError::UnknownLease),
        }
    }

    /// Total cost accrued up to `now_tick`, including released leases.
    pub fn total_cost(&self, now_tick: u64) -> f64 {
        self.leases
            .values()
            .map(|l| {
                let end = l.released_at.unwrap_or(now_tick).max(l.leased_at);
                let hours = roia_model::convert::f64_from_u64(end - l.leased_at)
                    / roia_model::convert::f64_from_u64(self.ticks_per_hour);
                hours * l.profile.cost_per_hour
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ResourcePool {
        /// Builder form of [`ResourcePool::set_boot_failures`].
        pub(crate) fn with_boot_failures(mut self, rate: f64, seed: u64) -> Self {
            self.set_boot_failures(rate, seed);
            self
        }

        /// Machines currently leased (booting or serving).
        pub(crate) fn leased_count(&self) -> u32 {
            let count = self
                .leases
                .values()
                .filter(|l| l.released_at.is_none())
                .count();
            roia_model::convert::count_u32(count)
        }
    }

    #[test]
    fn request_and_boot_delay() {
        let mut pool = ResourcePool::new(2, 0, 10, 90_000);
        let lease = pool.request(MachineProfile::STANDARD, 100).unwrap();
        assert!(pool.poll_ready(105).is_empty(), "still booting");
        let ready = pool.poll_ready(110);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].lease, lease);
        assert!(pool.poll_ready(111).is_empty(), "delivered only once");
    }

    #[test]
    fn capacity_limits_enforced_per_class() {
        let mut pool = ResourcePool::new(1, 1, 0, 90_000);
        pool.request(MachineProfile::STANDARD, 0).unwrap();
        assert_eq!(
            pool.request(MachineProfile::STANDARD, 0),
            Err(PoolError::OutOfCapacity)
        );
        // The powerful class has its own limit.
        pool.request(MachineProfile::POWERFUL, 0).unwrap();
        assert_eq!(
            pool.request(MachineProfile::POWERFUL, 0),
            Err(PoolError::OutOfCapacity)
        );
    }

    #[test]
    fn release_frees_capacity() {
        let mut pool = ResourcePool::new(1, 0, 0, 90_000);
        let lease = pool.request(MachineProfile::STANDARD, 0).unwrap();
        pool.release(lease, 10).unwrap();
        assert_eq!(pool.leased_count(), 0);
        assert!(pool.request(MachineProfile::STANDARD, 10).is_ok());
    }

    #[test]
    fn double_release_fails() {
        let mut pool = ResourcePool::new(1, 0, 0, 90_000);
        let lease = pool.request(MachineProfile::STANDARD, 0).unwrap();
        pool.release(lease, 5).unwrap();
        assert_eq!(pool.release(lease, 6), Err(PoolError::UnknownLease));
        assert_eq!(pool.release(LeaseId(99), 6), Err(PoolError::UnknownLease));
    }

    #[test]
    fn cost_accrues_per_leased_hour() {
        let mut pool = ResourcePool::new(4, 4, 0, 100);
        let a = pool.request(MachineProfile::STANDARD, 0).unwrap(); // 1.0/hour
        pool.request(MachineProfile::POWERFUL, 0).unwrap(); // 2.5/hour
                                                            // After 200 ticks = 2 hours: 2·1 + 2·2.5 = 7.
        assert!((pool.total_cost(200) - 7.0).abs() < 1e-9);
        // Releasing the standard machine stops its meter.
        pool.release(a, 200).unwrap();
        assert!((pool.total_cost(300) - (2.0 + 7.5)).abs() < 1e-9);
    }

    #[test]
    fn certain_boot_failure_reports_and_releases() {
        let mut pool = ResourcePool::new(4, 0, 10, 100).with_boot_failures(1.0, 7);
        let lease = pool.request(MachineProfile::STANDARD, 0).unwrap();
        let events = pool.poll_boot(10);
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], BootEvent::Failed { lease: l, .. } if l == lease));
        assert_eq!(pool.leased_count(), 0, "failed lease auto-released");
        assert!(pool.poll_boot(20).is_empty(), "reported once");
        // Billing stops at the failure, not at the horizon.
        let at_failure = pool.total_cost(10);
        assert!((pool.total_cost(10_000) - at_failure).abs() < 1e-12);
        assert!(at_failure > 0.0, "the boot period was billed");
    }

    #[test]
    fn boot_failures_are_deterministic_per_seed() {
        let fates = |seed: u64| -> Vec<bool> {
            let mut pool = ResourcePool::new(64, 0, 0, 100).with_boot_failures(0.5, seed);
            (0..32)
                .map(|i| {
                    pool.request(MachineProfile::STANDARD, i).unwrap();
                    pool.poll_boot(i)
                        .iter()
                        .any(|ev| matches!(ev, BootEvent::Failed { .. }))
                })
                .collect()
        };
        assert_eq!(fates(3), fates(3));
        assert_ne!(fates(3), fates(4), "different seeds fail different leases");
    }

    #[test]
    fn zero_rate_never_fails_and_poll_ready_filters() {
        let mut pool = ResourcePool::new(8, 0, 0, 100).with_boot_failures(0.0, 9);
        for i in 0..8 {
            pool.request(MachineProfile::STANDARD, i).unwrap();
        }
        assert_eq!(pool.poll_ready(100).len(), 8);
    }

    #[test]
    fn released_machine_never_reports_ready() {
        let mut pool = ResourcePool::new(1, 0, 10, 90_000);
        let lease = pool.request(MachineProfile::STANDARD, 0).unwrap();
        pool.release(lease, 5).unwrap();
        assert!(pool.poll_ready(20).is_empty());
    }

    /// Seeded properties: each runs 256 cases on [`roia_rng::check`],
    /// which names the seed a case fails at.
    mod props {
        use super::super::*;
        use roia_rng::check;

        #[test]
        fn pool_accounting_consistent() {
            check(256, |rng| {
                let mut pool = ResourcePool::new(16, 4, 5, 1000);
                let mut live: Vec<LeaseId> = Vec::new();
                let mut tick = 0u64;
                for _ in 0..rng.gen_range(1..40) {
                    tick += rng.gen_range(0..100);
                    if rng.gen_range(0..2) == 1 {
                        if let Ok(lease) = pool.request(MachineProfile::STANDARD, tick) {
                            live.push(lease);
                        }
                    } else if let Some(lease) = live.pop() {
                        pool.release(lease, tick).unwrap();
                    }
                    assert_eq!(pool.leased_count() as usize, live.len());
                    // Cost is monotone in time and never negative.
                    let c_now = pool.total_cost(tick);
                    let c_later = pool.total_cost(tick + 10);
                    assert!(c_now >= 0.0 && c_later >= c_now - 1e-12);
                }
                // Everyone released ⇒ cost stops growing.
                for lease in live.drain(..) {
                    pool.release(lease, tick).unwrap();
                }
                let settled = pool.total_cost(tick);
                assert!((pool.total_cost(tick + 1_000_000) - settled).abs() < 1e-9);
            });
        }

        #[test]
        fn double_release_fails_cleanly_and_bills_once() {
            check(256, |rng| {
                let hold = rng.gen_range(1..5_000);
                let later = rng.gen_range(0..5_000);
                let mut pool = ResourcePool::new(4, 0, 5, 1_000);
                let lease = pool.request(MachineProfile::STANDARD, 0).unwrap();
                pool.release(lease, hold).unwrap();
                let billed = pool.total_cost(hold + later);
                // A second release is rejected, and re-attempting it (at any
                // later tick) never extends the billing window.
                assert!(pool.release(lease, hold + later).is_err());
                assert!((pool.total_cost(hold + later) - billed).abs() < 1e-12);
            });
        }

        #[test]
        fn failed_boot_bills_exactly_the_boot_period() {
            check(256, |rng| {
                let delay = rng.gen_range(1..200);
                let later = rng.gen_range(0..10_000);
                // A dead-on-arrival machine is auto-released at its ready tick:
                // the boot period is billed (as real clouds do) but nothing
                // after it.
                let mut pool =
                    ResourcePool::new(4, 0, delay, 1_000).with_boot_failures(1.0, rng.next_u64());
                pool.request(MachineProfile::STANDARD, 0).unwrap();
                let events = pool.poll_boot(delay);
                assert_eq!(events.len(), 1);
                assert_eq!(pool.leased_count(), 0, "failed boot released its lease");
                let boot_bill = delay as f64 / 1_000.0 * MachineProfile::STANDARD.cost_per_hour;
                assert!((pool.total_cost(delay) - boot_bill).abs() < 1e-12);
                assert!(
                    (pool.total_cost(delay + later) - boot_bill).abs() < 1e-12,
                    "a crashed-at-boot lease stops accruing"
                );
            });
        }

        #[test]
        fn lease_cost_is_monotone_in_duration() {
            check(256, |rng| {
                let (d1, d2) = (rng.gen_range(0..50_000), rng.gen_range(0..50_000));
                let (early, late) = (d1.min(d2), d1.max(d2));
                let mut pool = ResourcePool::new(1, 1, 0, 777);
                pool.request(MachineProfile::STANDARD, 0).unwrap();
                pool.request(MachineProfile::POWERFUL, 0).unwrap();
                assert!(pool.total_cost(early) <= pool.total_cost(late) + 1e-12);
            });
        }
    }
}
