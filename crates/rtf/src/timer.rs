//! Per-task tick timers — the measurement hooks of §III-C.
//!
//! "We implemented measurement and logging mechanisms for parameters
//! t_ua_dser, t_fa_dser, t_su, t_mig_rcv and t_mig_ini in RTF. Since RTF
//! provides generic mechanisms for (de-)serialization and user migration,
//! these parameter values can be measured inside RTF regardless of the
//! application logic. Since parameters t_ua, t_aoi and t_fa depend heavily
//! on the application logic, they need to be measured manually in the
//! application source code."
//!
//! [`TickTimers`] implements both sides: the framework wraps each phase of
//! its generic work in [`TickTimers::time`] (wall clock), and applications
//! attribute their own phases the same way and — for deterministic
//! simulations — charge *virtual* seconds via [`TickTimers::charge`].
//! Which accumulator defines the tick duration is chosen by [`TimeMode`].

// lint: allow(nondet, "Instant feeds the Wall accumulators only; deterministic sims run TimeMode::Virtual and never read them")
use std::time::Instant;

/// The per-tick tasks of §III-A plus the migration pair of §III-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskKind {
    /// Reception + deserialization of user inputs (`t_ua_dser`).
    UaDser,
    /// Validating + applying user inputs (`t_ua`).
    Ua,
    /// Reception + deserialization of forwarded inputs (`t_fa_dser`).
    FaDser,
    /// Applying forwarded inputs (`t_fa`).
    Fa,
    /// Updating NPCs (`t_npc`).
    Npc,
    /// Area-of-interest computation (`t_aoi`).
    Aoi,
    /// State-update computation + serialization (`t_su`).
    Su,
    /// Initiating user migrations (`t_mig_ini`).
    MigIni,
    /// Receiving user migrations (`t_mig_rcv`).
    MigRcv,
    /// Anything the model does not attribute (connection handling etc.).
    Other,
}

impl TaskKind {
    /// All task kinds, model tasks first.
    pub const ALL: [TaskKind; 10] = [
        TaskKind::UaDser,
        TaskKind::Ua,
        TaskKind::FaDser,
        TaskKind::Fa,
        TaskKind::Npc,
        TaskKind::Aoi,
        TaskKind::Su,
        TaskKind::MigIni,
        TaskKind::MigRcv,
        TaskKind::Other,
    ];

    /// Index into the accumulator arrays.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Index of the matching model parameter in `ParamKind::ALL` order,
    /// or `None` for [`TaskKind::Other`], which no Eq. (1) term models.
    /// The first nine task kinds mirror the parameter order exactly, so
    /// per-task timings can be folded against per-term predictions.
    pub const fn param_index(self) -> Option<usize> {
        match self {
            TaskKind::Other => None,
            _ => Some(self as usize),
        }
    }

    /// The paper's symbol, if the task has one.
    pub fn symbol(&self) -> &'static str {
        match self {
            TaskKind::UaDser => "t_ua_dser",
            TaskKind::Ua => "t_ua",
            TaskKind::FaDser => "t_fa_dser",
            TaskKind::Fa => "t_fa",
            TaskKind::Npc => "t_npc",
            TaskKind::Aoi => "t_aoi",
            TaskKind::Su => "t_su",
            TaskKind::MigIni => "t_mig_ini",
            TaskKind::MigRcv => "t_mig_rcv",
            TaskKind::Other => "t_other",
        }
    }
}

/// Number of task accumulators.
pub const TASK_COUNT: usize = 10;

/// Which accumulator defines the reported tick duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeMode {
    /// Real elapsed time measured with [`Instant`] — used to see what the
    /// host actually spends per task (the `realtime` example, the ledger).
    Wall,
    /// Virtual seconds charged by the application's calibrated cost model —
    /// used by the deterministic simulator so results are machine- and
    /// load-independent.
    #[default]
    Virtual,
}

/// Accumulates per-task seconds during one tick.
#[derive(Debug, Clone, Default)]
pub struct TickTimers {
    wall: [f64; TASK_COUNT],
    virt: [f64; TASK_COUNT],
    mode: TimeMode,
}

impl TickTimers {
    /// Creates timers reporting according to `mode`.
    pub fn new(mode: TimeMode) -> Self {
        Self {
            mode,
            ..Self::default()
        }
    }

    /// The reporting mode.
    pub fn mode(&self) -> TimeMode {
        self.mode
    }

    /// Runs `f`, attributing its wall-clock time to `task`. `f` gets the
    /// timers back, so the work it measures can charge its virtual cost
    /// as it goes. The clock is read in both modes, twice per call: time a
    /// whole phase of the tick, not each item in it.
    ///
    /// Do not nest `time` calls for different tasks — the inner span would
    /// be counted twice.
    // lint: allow(taint, "sanctioned taint boundary: the clock only feeds the wall[] accumulators, which digest-affecting paths never read — seeded runs use TimeMode::Virtual + charge()")
    pub fn time<T>(&mut self, task: TaskKind, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = Instant::now(); // lint: allow(nondet, "wall-clock attribution is this method's contract; Virtual mode uses charge() instead")
        let out = f(self);
        self.wall[task.index()] += start.elapsed().as_secs_f64(); // lint: allow(panic, "index is TaskKind::index(), < TASK_COUNT, the arrays' length (pinned by a test)")
        out
    }

    /// Charges `seconds` of virtual CPU time to `task`.
    pub fn charge(&mut self, task: TaskKind, seconds: f64) {
        debug_assert!(seconds >= 0.0, "cannot charge negative time");
        self.virt[task.index()] += seconds; // lint: allow(panic, "index is TaskKind::index(), < TASK_COUNT, the arrays' length (pinned by a test)")
    }

    /// Seconds recorded for `task` in the reporting mode.
    pub fn get(&self, task: TaskKind) -> f64 {
        match self.mode {
            TimeMode::Wall => self.wall[task.index()], // lint: allow(panic, "index is TaskKind::index(), < TASK_COUNT, the arrays' length (pinned by a test)")
            TimeMode::Virtual => self.virt[task.index()], // lint: allow(panic, "index is TaskKind::index(), < TASK_COUNT, the arrays' length (pinned by a test)")
        }
    }

    /// Wall-clock seconds recorded for `task` regardless of mode.
    pub fn wall(&self, task: TaskKind) -> f64 {
        self.wall[task.index()]
    }

    /// Virtual seconds recorded for `task` regardless of mode.
    pub fn virt(&self, task: TaskKind) -> f64 {
        self.virt[task.index()]
    }

    /// Total seconds across all tasks in the reporting mode — the tick
    /// duration the model reasons about.
    pub fn total(&self) -> f64 {
        match self.mode {
            TimeMode::Wall => self.wall.iter().sum(),
            TimeMode::Virtual => self.virt.iter().sum(),
        }
    }

    /// Snapshot of all per-task values in the reporting mode, indexed by
    /// [`TaskKind::index`].
    pub fn snapshot(&self) -> [f64; TASK_COUNT] {
        match self.mode {
            TimeMode::Wall => self.wall,
            TimeMode::Virtual => self.virt,
        }
    }

    /// Clears both accumulators for the next tick.
    pub fn reset(&mut self) {
        self.wall = [0.0; TASK_COUNT];
        self.virt = [0.0; TASK_COUNT];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_virtual_time() {
        let mut t = TickTimers::new(TimeMode::Virtual);
        t.charge(TaskKind::Ua, 0.001);
        t.charge(TaskKind::Ua, 0.002);
        t.charge(TaskKind::Su, 0.004);
        assert!((t.get(TaskKind::Ua) - 0.003).abs() < 1e-12);
        assert!((t.total() - 0.007).abs() < 1e-12);
    }

    #[test]
    fn time_measures_wall_clock() {
        let mut t = TickTimers::new(TimeMode::Wall);
        let out = t.time(TaskKind::Aoi, |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        assert_eq!(out, 42);
        assert!(t.get(TaskKind::Aoi) >= 0.002);
        assert_eq!(t.get(TaskKind::Ua), 0.0);
    }

    #[test]
    fn mode_selects_reported_accumulator() {
        let mut t = TickTimers::new(TimeMode::Virtual);
        t.time(TaskKind::Ua, |t| {
            std::hint::black_box(1 + 1);
            t.charge(TaskKind::Ua, 0.5);
        });
        assert_eq!(t.get(TaskKind::Ua), 0.5, "virtual mode ignores wall time");
        assert!(
            t.wall(TaskKind::Ua) < 0.5,
            "wall accumulator still accessible"
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = TickTimers::new(TimeMode::Virtual);
        t.charge(TaskKind::MigIni, 1.0);
        t.time(TaskKind::Other, |_| ());
        t.reset();
        assert_eq!(t.total(), 0.0);
        assert_eq!(t.wall(TaskKind::Other), 0.0);
    }

    #[test]
    fn snapshot_matches_gets() {
        let mut t = TickTimers::new(TimeMode::Virtual);
        t.charge(TaskKind::FaDser, 0.25);
        let snap = t.snapshot();
        assert_eq!(snap[TaskKind::FaDser.index()], 0.25);
        assert_eq!(snap.iter().sum::<f64>(), t.total());
    }

    #[test]
    fn task_indices_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in TaskKind::ALL {
            assert!(seen.insert(k.index()), "duplicate index for {k:?}");
            assert!(k.index() < TASK_COUNT);
        }
    }
}
