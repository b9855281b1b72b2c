//! Bandwidth analysis — the paper's stated future work, implemented.
//!
//! §VI: "While we still need to implement bandwidth analysis for our
//! scalability model, our model distinguishes between processing of
//! incoming events and outgoing state updates. Furthermore, the authors
//! \[of \[10\]\] showed a strong relationship between the number of users and
//! bandwidth usage, which implies that our approach of calculating a
//! maximum number of users for a given number of replicas is also suitable
//! for modelling network traffic in ROIA."
//!
//! This module carries that program out, mirroring the CPU model's
//! structure: per-user traffic rates fitted as functions of the zone
//! population, a per-tick traffic prediction analogous to Eq. (1), and a
//! bandwidth-constrained `n_max` that can be combined with the CPU-based
//! one.

use crate::costfn::CostFn;
use crate::params::ModelParams;
use crate::tick::ZoneLoad;

/// Fitted per-tick traffic rates (bytes, as functions of the zone's total
/// user count `n` — traffic grows with `n` because denser populations mean
/// larger area-of-interest update payloads).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BandwidthParams {
    /// Bytes received from one connected user per tick (inputs).
    pub client_in_per_user: CostFn,
    /// Bytes sent to one connected user per tick (state updates).
    pub client_out_per_user: CostFn,
    /// Bytes sent to ONE peer replica per active entity per tick
    /// (replica updates + forwarded interactions).
    pub peer_out_per_active: CostFn,
}

impl BandwidthParams {
    /// Predicted bytes *sent* by one server per tick, under equal
    /// distribution: state updates to `n/l` clients plus replica updates
    /// for `n/l` active entities to each of the `l − 1` peers.
    pub fn bytes_out_per_tick(&self, load: ZoneLoad) -> f64 {
        let l = f64::from(load.replicas);
        let n = f64::from(load.users);
        let active = n / l;
        active * self.client_out_per_user.eval(n)
            + (l - 1.0) * active * self.peer_out_per_active.eval(n)
    }

    /// Predicted bytes *received* by one server per tick: inputs from its
    /// own `n/l` users plus replica updates for the `n − n/l` shadow
    /// entities.
    pub fn bytes_in_per_tick(&self, load: ZoneLoad) -> f64 {
        let l = f64::from(load.replicas);
        let n = f64::from(load.users);
        let active = n / l;
        active * self.client_in_per_user.eval(n) + (n - active) * self.peer_out_per_active.eval(n)
    }

    /// The out/in traffic asymmetry of a server — the MMORPG measurement
    /// of Kim et al. \[10\] found outgoing server traffic dominating, which
    /// must also hold for any AoI-filtered ROIA: one 20-byte input fans
    /// out into position updates for every observer.
    pub fn asymmetry(&self, load: ZoneLoad) -> f64 {
        let inb = self.bytes_in_per_tick(load);
        if inb <= 0.0 {
            return f64::INFINITY;
        }
        self.bytes_out_per_tick(load) / inb
    }

    /// The maximum users `n` such that a server's *outgoing* traffic stays
    /// below `cap_bytes_per_tick` on `l` replicas — the bandwidth analogue
    /// of Eq. (2). Returns [`crate::capacity::N_SEARCH_CAP`] if the cap is
    /// never reached.
    pub fn n_max_bandwidth(&self, l: u32, cap_bytes_per_tick: f64) -> u32 {
        assert!(l >= 1);
        assert!(cap_bytes_per_tick > 0.0);
        let over = |n: u32| {
            self.bytes_out_per_tick(ZoneLoad {
                replicas: l,
                users: n,
                npcs: 0,
            }) >= cap_bytes_per_tick
        };
        if over(1) {
            return 0;
        }
        let mut hi = 2u32;
        while hi < crate::capacity::N_SEARCH_CAP && !over(hi) {
            hi = hi.saturating_mul(2);
        }
        if hi >= crate::capacity::N_SEARCH_CAP && !over(crate::capacity::N_SEARCH_CAP) {
            return crate::capacity::N_SEARCH_CAP;
        }
        let mut lo = hi / 2;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if over(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        lo
    }
}

/// The joint capacity of a server bound by BOTH the CPU model (Eq. (2))
/// and the outgoing-bandwidth cap: the binding constraint wins.
pub fn n_max_joint(
    params: &ModelParams,
    bandwidth: &BandwidthParams,
    l: u32,
    m: u32,
    u_threshold: f64,
    cap_bytes_per_tick: f64,
) -> u32 {
    crate::capacity::n_max(params, l, m, u_threshold)
        .min(bandwidth.n_max_bandwidth(l, cap_bytes_per_tick))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costfn::CostFn;

    /// RTFDemo-like traffic: small constant inputs, updates growing with
    /// the population (AoI payload), modest replica sync.
    fn demo_bw() -> BandwidthParams {
        BandwidthParams {
            client_in_per_user: CostFn::Linear { c0: 30.0, c1: 0.01 },
            client_out_per_user: CostFn::Linear { c0: 40.0, c1: 1.4 },
            peer_out_per_active: CostFn::Constant(21.0),
        }
    }

    #[test]
    fn outgoing_traffic_dominates() {
        // The Kim et al. [10] asymmetry: updates out ≫ inputs in.
        let bw = demo_bw();
        for l in [1u32, 2, 4] {
            let load = ZoneLoad::new(l, 200, 0);
            assert!(
                bw.asymmetry(load) > 2.0,
                "l = {l}: out/in = {}",
                bw.asymmetry(load)
            );
        }
    }

    #[test]
    fn single_replica_has_no_peer_traffic() {
        let bw = demo_bw();
        let load = ZoneLoad::new(1, 100, 0);
        let expected = 100.0 * bw.client_out_per_user.eval(100.0);
        assert!((bw.bytes_out_per_tick(load) - expected).abs() < 1e-9);
    }

    #[test]
    fn replication_adds_peer_traffic() {
        // Fixed n: more replicas means less client traffic per server but
        // inter-server sync appears.
        let bw = demo_bw();
        let one = bw.bytes_out_per_tick(ZoneLoad::new(1, 200, 0));
        let two = bw.bytes_out_per_tick(ZoneLoad::new(2, 200, 0));
        // Per-server client traffic halves; peer traffic partially
        // compensates but the total per server still drops for these rates.
        assert!(two < one);
        // Total across servers grows, though: replication costs bandwidth.
        assert!(2.0 * two > one);
    }

    #[test]
    fn n_max_bandwidth_is_boundary() {
        let bw = demo_bw();
        let cap = 50_000.0; // bytes per tick
        let n = bw.n_max_bandwidth(1, cap);
        assert!(n > 0);
        assert!(bw.bytes_out_per_tick(ZoneLoad::new(1, n, 0)) < cap);
        assert!(bw.bytes_out_per_tick(ZoneLoad::new(1, n + 1, 0)) >= cap);
    }

    #[test]
    fn n_max_bandwidth_monotone_in_cap() {
        let bw = demo_bw();
        let a = bw.n_max_bandwidth(1, 10_000.0);
        let b = bw.n_max_bandwidth(1, 100_000.0);
        assert!(b > a);
    }

    #[test]
    fn tiny_cap_yields_zero() {
        let bw = demo_bw();
        assert_eq!(bw.n_max_bandwidth(1, 1.0), 0);
    }

    #[test]
    fn unlimited_cap_hits_search_limit() {
        let bw = BandwidthParams::default(); // zero traffic
        assert_eq!(bw.n_max_bandwidth(1, 1e9), crate::capacity::N_SEARCH_CAP);
    }

    #[test]
    fn joint_capacity_takes_the_binding_constraint() {
        let bw = demo_bw();
        let params = ModelParams {
            t_ua: CostFn::Constant(1e-4),
            ..ModelParams::default()
        };
        // CPU-bound capacity: 399. Bandwidth with a generous cap: larger.
        let generous = n_max_joint(&params, &bw, 1, 0, 0.040, 10_000_000.0);
        assert_eq!(generous, 399, "CPU is the binding constraint");
        // Starved uplink: bandwidth becomes binding.
        let starved = n_max_joint(&params, &bw, 1, 0, 0.040, 10_000.0);
        assert!(starved < 399);
        assert_eq!(starved, bw.n_max_bandwidth(1, 10_000.0));
    }

    #[test]
    fn asymmetry_infinite_without_input_traffic() {
        let bw = BandwidthParams {
            client_out_per_user: CostFn::Constant(10.0),
            ..BandwidthParams::default()
        };
        assert!(bw.asymmetry(ZoneLoad::new(1, 10, 0)).is_infinite());
    }
}
