//! The full parameter set of the scalability model.
//!
//! [`ModelParams`] bundles the nine application-specific cost parameters of
//! §III: seven per-tick task costs (Eq. (1)/(4)) and the two migration costs
//! (Eq. (5)). All of them are [`CostFn`]s of the *total* user count `n` of
//! the zone, exactly as the paper fits them.

use crate::costfn::CostFn;

/// Which model parameter a measurement or fit refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ParamKind {
    /// `t_ua_dser` — asynchronous reception + deserialization of one
    /// connected user's inputs (§III-A task 1.i).
    UaDser,
    /// `t_ua` — validating and applying one connected user's inputs
    /// (§III-A task 1.ii).
    Ua,
    /// `t_fa_dser` — reception + deserialization of one forwarded input
    /// from a shadow entity (§III-A task 2.i).
    FaDser,
    /// `t_fa` — applying one forwarded input (§III-A task 2.ii).
    Fa,
    /// `t_npc` — updating one NPC (§III-A task 3).
    Npc,
    /// `t_aoi` — computing the area of interest for one user
    /// (§III-A task 4.i).
    Aoi,
    /// `t_su` — computing + serializing the state update for one user
    /// (§III-A task 4.ii).
    Su,
    /// `t_mig_ini` — initiating one user migration (§III-B).
    MigIni,
    /// `t_mig_rcv` — receiving one user migration (§III-B).
    MigRcv,
}

impl ParamKind {
    /// All nine parameters, in the order the paper introduces them.
    pub const ALL: [ParamKind; 9] = [
        ParamKind::UaDser,
        ParamKind::Ua,
        ParamKind::FaDser,
        ParamKind::Fa,
        ParamKind::Npc,
        ParamKind::Aoi,
        ParamKind::Su,
        ParamKind::MigIni,
        ParamKind::MigRcv,
    ];

    /// The paper's symbol for the parameter (used in reports).
    pub fn symbol(&self) -> &'static str {
        match self {
            ParamKind::UaDser => "t_ua_dser",
            ParamKind::Ua => "t_ua",
            ParamKind::FaDser => "t_fa_dser",
            ParamKind::Fa => "t_fa",
            ParamKind::Npc => "t_npc",
            ParamKind::Aoi => "t_aoi",
            ParamKind::Su => "t_su",
            ParamKind::MigIni => "t_mig_ini",
            ParamKind::MigRcv => "t_mig_rcv",
        }
    }

    /// Polynomial degree §V-A chooses for this parameter's approximation
    /// function: quadratic for `t_ua` and `t_aoi`, linear for the rest.
    pub fn fit_degree(&self) -> usize {
        match self {
            ParamKind::Ua | ParamKind::Aoi => 2,
            _ => 1,
        }
    }
}

/// The application-specific parameters of the scalability model (§III-C).
///
/// Each field is the fitted CPU time *per entity per tick* (per migration
/// for the `mig` pair), as a function of the zone's total user count `n`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelParams {
    /// Deserialization of one connected user's inputs.
    pub t_ua_dser: CostFn,
    /// Validating + applying one connected user's inputs.
    pub t_ua: CostFn,
    /// Deserialization of one forwarded input.
    pub t_fa_dser: CostFn,
    /// Applying one forwarded input.
    pub t_fa: CostFn,
    /// Updating one NPC.
    pub t_npc: CostFn,
    /// Area-of-interest computation for one user.
    pub t_aoi: CostFn,
    /// State-update computation + serialization for one user.
    pub t_su: CostFn,
    /// Initiating one user migration.
    pub t_mig_ini: CostFn,
    /// Receiving one user migration.
    pub t_mig_rcv: CostFn,
}

impl ModelParams {
    /// Accesses a parameter by kind.
    pub fn get(&self, kind: ParamKind) -> &CostFn {
        match kind {
            ParamKind::UaDser => &self.t_ua_dser,
            ParamKind::Ua => &self.t_ua,
            ParamKind::FaDser => &self.t_fa_dser,
            ParamKind::Fa => &self.t_fa,
            ParamKind::Npc => &self.t_npc,
            ParamKind::Aoi => &self.t_aoi,
            ParamKind::Su => &self.t_su,
            ParamKind::MigIni => &self.t_mig_ini,
            ParamKind::MigRcv => &self.t_mig_rcv,
        }
    }

    /// Sets a parameter by kind.
    pub fn set(&mut self, kind: ParamKind, f: CostFn) {
        match kind {
            ParamKind::UaDser => self.t_ua_dser = f,
            ParamKind::Ua => self.t_ua = f,
            ParamKind::FaDser => self.t_fa_dser = f,
            ParamKind::Fa => self.t_fa = f,
            ParamKind::Npc => self.t_npc = f,
            ParamKind::Aoi => self.t_aoi = f,
            ParamKind::Su => self.t_su = f,
            ParamKind::MigIni => self.t_mig_ini = f,
            ParamKind::MigRcv => self.t_mig_rcv = f,
        }
    }

    /// The per-active-entity cost
    /// `t_ua_dser(n) + t_ua(n) + t_aoi(n) + t_su(n)` — the bracket
    /// multiplying `n/l` in Eq. (1) and `a` in Eq. (4).
    pub fn own_cost(&self, n: f64) -> f64 {
        self.t_ua_dser.eval(n) + self.t_ua.eval(n) + self.t_aoi.eval(n) + self.t_su.eval(n)
    }

    /// The per-shadow-entity cost `t_fa_dser(n) + t_fa(n)` — the bracket
    /// multiplying `(n − n/l)` in Eq. (1) and `(n − a)` in Eq. (4).
    pub fn shadow_cost(&self, n: f64) -> f64 {
        self.t_fa_dser.eval(n) + self.t_fa.eval(n)
    }

    /// The per-NPC cost `t_npc(n)`.
    pub fn npc_cost(&self, n: f64) -> f64 {
        self.t_npc.eval(n)
    }

    /// Validates that every per-tick cost function is non-negative and
    /// non-decreasing up to `n_hi` users, which the threshold searches in
    /// [`crate::capacity`] rely on. Returns the offending parameters.
    pub fn validate_monotone(&self, n_hi: f64) -> Vec<ParamKind> {
        ParamKind::ALL
            .iter()
            .copied()
            .filter(|k| !self.get(*k).is_non_decreasing_on(n_hi))
            .collect()
    }

    /// Scales every cost by `1 / speedup`, modelling the same application on
    /// a machine `speedup`× faster (used by the resource-substitution
    /// action of RTF-RMS, §IV).
    pub fn on_faster_machine(&self, speedup: f64) -> ModelParams {
        assert!(speedup > 0.0, "speedup must be positive");
        let s = 1.0 / speedup;
        let mut out = self.clone();
        for kind in ParamKind::ALL {
            out.set(kind, self.get(kind).scaled(s));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_params() -> ModelParams {
        ModelParams {
            t_ua_dser: CostFn::Linear { c0: 1e-5, c1: 1e-8 },
            t_ua: CostFn::Quadratic {
                c0: 2e-5,
                c1: 1e-7,
                c2: 1e-10,
            },
            t_fa_dser: CostFn::Linear { c0: 1e-6, c1: 1e-9 },
            t_fa: CostFn::Linear { c0: 1e-6, c1: 2e-9 },
            t_npc: CostFn::Linear { c0: 5e-6, c1: 1e-9 },
            t_aoi: CostFn::Quadratic {
                c0: 1e-5,
                c1: 2e-7,
                c2: 5e-11,
            },
            t_su: CostFn::Linear { c0: 3e-5, c1: 5e-8 },
            t_mig_ini: CostFn::Linear { c0: 1e-3, c1: 1e-5 },
            t_mig_rcv: CostFn::Linear { c0: 5e-4, c1: 5e-6 },
        }
    }

    #[test]
    fn get_set_round_trip() {
        let mut p = ModelParams::default();
        for kind in ParamKind::ALL {
            let f = CostFn::Constant(kind as usize as f64 + 1.0);
            p.set(kind, f.clone());
            assert_eq!(p.get(kind), &f, "{}", kind.symbol());
        }
    }

    #[test]
    fn own_cost_is_sum_of_four_tasks() {
        let p = sample_params();
        let n = 100.0;
        let expected = p.t_ua_dser.eval(n) + p.t_ua.eval(n) + p.t_aoi.eval(n) + p.t_su.eval(n);
        assert!((p.own_cost(n) - expected).abs() < 1e-18);
    }

    #[test]
    fn shadow_cost_is_sum_of_two_tasks() {
        let p = sample_params();
        let n = 100.0;
        assert!((p.shadow_cost(n) - (p.t_fa_dser.eval(n) + p.t_fa.eval(n))).abs() < 1e-18);
    }

    #[test]
    fn validate_monotone_accepts_sane_params() {
        assert!(sample_params().validate_monotone(10_000.0).is_empty());
    }

    #[test]
    fn validate_monotone_flags_decreasing_param() {
        let mut p = sample_params();
        p.t_ua = CostFn::Linear { c0: 1.0, c1: -0.1 };
        assert_eq!(p.validate_monotone(1000.0), vec![ParamKind::Ua]);
    }

    #[test]
    fn faster_machine_scales_costs_down() {
        let p = sample_params();
        let q = p.on_faster_machine(2.0);
        assert!((q.own_cost(100.0) - p.own_cost(100.0) / 2.0).abs() < 1e-15);
        assert!((q.t_mig_ini.eval(50.0) - p.t_mig_ini.eval(50.0) / 2.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "speedup must be positive")]
    fn faster_machine_rejects_zero_speedup() {
        sample_params().on_faster_machine(0.0);
    }

    #[test]
    fn param_kind_metadata() {
        assert_eq!(ParamKind::ALL.len(), 9);
        assert_eq!(ParamKind::Ua.fit_degree(), 2);
        assert_eq!(ParamKind::Aoi.fit_degree(), 2);
        assert_eq!(ParamKind::Su.fit_degree(), 1);
        assert_eq!(ParamKind::MigIni.symbol(), "t_mig_ini");
    }
}
