//! Euclidean-distance interest management with subscription lists.
//!
//! §V-A: "In order to compute the area of interest for a user, RTFDemo
//! employs the Euclidean Distance Algorithm [...] For user U, it has to be
//! checked for all users whether they are in the visibility area of user U,
//! i.e., the application iterates through all users (except for U). Each
//! user in the visibility area of user U is subscribed to the update list
//! of user U; for each subscription, RTFDemo iterates through the update
//! list in order to avoid duplicate entries."
//!
//! The double iteration (scan all + per-subscription dedup scan) is what
//! makes `t_aoi` quadratic in the user count — this module reproduces it
//! literally and reports the work units so the calibrated cost model can
//! charge virtual time proportionally.
//!
//! That literal scan, [`compute_aoi`], is the *oracle*: tests and the
//! performance ledger compare against it, and the cost model bills its
//! work units. What a server executes is [`AoiGrid`], a uniform spatial
//! hash that finds the *same* visible set in O(n + v log v) per tick
//! instead of O(n²); the work units of the literal scan follow from the
//! population and the visible-set size in closed form, so the virtual
//! cost charged to `t_aoi` (and therefore every trace and report) stays
//! the paper's quadratic.

use crate::world::World;
use rtf_core::entity::{UserId, Vec2};

/// The outcome of computing one user's area of interest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AoiResult {
    /// The users subscribed to the observer's update list, in scan order.
    pub visible: Vec<UserId>,
    /// Distance checks performed (= all other users).
    pub pairs_checked: usize,
    /// Update-list entries visited by the duplicate-avoidance scans.
    pub dedup_scans: usize,
}

/// Computes the update list of `observer` over `others` — every avatar in
/// the zone except the observer, as `(user, position)` pairs.
pub fn compute_aoi(
    world: &World,
    observer: UserId,
    observer_pos: &Vec2,
    others: impl Iterator<Item = (UserId, Vec2)>,
) -> AoiResult {
    let mut result = AoiResult::default();
    for (user, pos) in others {
        if user == observer {
            continue;
        }
        result.pairs_checked += 1;
        if world.in_aoi(observer_pos, &pos) {
            // Duplicate-avoidance scan over the current update list, as in
            // the paper (rather than a hash set — the cost is the point).
            let mut duplicate = false;
            for existing in &result.visible {
                result.dedup_scans += 1;
                if *existing == user {
                    duplicate = true;
                    break;
                }
            }
            if !duplicate {
                result.visible.push(user);
            }
        }
    }
    result
}

/// Upper bound on grid columns/rows, so a tiny AoI radius in a huge world
/// cannot blow up the cell table (the cell size grows instead, which only
/// costs extra candidate checks, never correctness).
const MAX_GRID_DIM: usize = 128;

/// Uniform spatial hash over the world bounds, rebuilt once per tick and
/// queried once per observer.
///
/// Equivalence contract (pinned by tests and `tests/props.rs`): for an
/// input with unique user ids in ascending order — the shape the sorted
/// avatar table produces — [`AoiGrid::query`] returns exactly the
/// [`AoiResult`] that [`compute_aoi`] returns for the same avatars:
///
/// * `visible` is identical — cell size ≥ `aoi_radius`, so the 3×3
///   neighbourhood covers every point within the radius, and candidates
///   pass through the same [`World::in_aoi`] predicate before an
///   ascending sort;
/// * `pairs_checked` is the caller-supplied scan count (all avatars
///   except the observer — the literal algorithm checks each exactly
///   once);
/// * `dedup_scans` is [`dedup_scans_for`] of the visible count — with
///   unique ids the literal dedup scan never finds a duplicate, so the
///   k-th subscription walks the full k-entry list.
#[derive(Debug, Default, Clone)]
pub struct AoiGrid {
    cols: usize,
    rows: usize,
    cell: f32,
    min: Vec2,
    /// CSR layout: `entries[starts[c]..starts[c + 1]]` are the avatars in
    /// cell `c`, each as (index into the rebuilt slice, position). All
    /// vectors keep their capacity across rebuilds.
    starts: Vec<usize>,
    entries: Vec<(usize, Vec2)>,
    cursor: Vec<usize>,
    /// The rebuilt slice's user ids, by index.
    ids: Vec<UserId>,
}

/// Update-list entries the literal scan's duplicate-avoidance walks visit
/// while subscribing `visible` distinct users: the k-th subscription
/// walks the k − 1 entries before it.
pub fn dedup_scans_for(visible: usize) -> usize {
    visible * visible.saturating_sub(1) / 2
}

impl AoiGrid {
    /// An empty grid; call [`rebuild`](Self::rebuild) before querying.
    pub fn new() -> Self {
        Self::default()
    }

    fn col_row(&self, pos: &Vec2) -> (usize, usize) {
        let col =
            (((pos.x - self.min.x) / self.cell) as isize).clamp(0, self.cols as isize - 1) as usize;
        let row =
            (((pos.y - self.min.y) / self.cell) as isize).clamp(0, self.rows as isize - 1) as usize;
        (col, row)
    }

    /// Re-indexes `avatars` (one entry per user) for `world`. Reuses the
    /// grid's allocations; O(n + cells), with at most about two cells per
    /// avatar however small the radius.
    pub fn rebuild(&mut self, world: &World, avatars: &[(UserId, Vec2)]) {
        let width = world.bounds.width().max(1e-3);
        let height = world.bounds.height().max(1e-3);
        // Finer than ~2 cells per avatar buys nothing: most cells would be
        // empty and clearing the table would dominate the rebuild.
        let max_dim = (((2 * avatars.len()) as f32).sqrt().ceil() as usize).clamp(1, MAX_GRID_DIM);
        self.cell = world
            .aoi_radius
            .max(width / max_dim as f32)
            .max(height / max_dim as f32)
            .max(1e-3);
        self.min = world.bounds.min;
        self.cols = ((width / self.cell).ceil() as usize).clamp(1, max_dim);
        self.rows = ((height / self.cell).ceil() as usize).clamp(1, max_dim);
        let cells = self.cols * self.rows;

        self.starts.clear();
        self.starts.resize(cells + 1, 0);
        for (_, pos) in avatars {
            let (col, row) = self.col_row(pos);
            self.starts[row * self.cols + col + 1] += 1;
        }
        for c in 0..cells {
            self.starts[c + 1] += self.starts[c];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..cells]);
        self.entries.clear();
        self.entries.resize(avatars.len(), (0, Vec2::new(0.0, 0.0)));
        self.ids.clear();
        for (index, &(user, pos)) in avatars.iter().enumerate() {
            let (col, row) = self.col_row(&pos);
            let slot = &mut self.cursor[row * self.cols + col];
            self.entries[*slot] = (index, pos);
            *slot += 1;
            self.ids.push(user);
        }
    }

    /// Calls `f` with the index (into the rebuilt slice) of every indexed
    /// avatar within the AoI radius of `pos` — an avatar standing at `pos`
    /// included — in no particular order. Allocation-free; the form the
    /// per-tick interest phase runs.
    pub fn for_each_in_aoi(&self, world: &World, pos: &Vec2, mut f: impl FnMut(usize)) {
        if self.entries.is_empty() {
            return;
        }
        let (col, row) = self.col_row(pos);
        for gy in row.saturating_sub(1)..=(row + 1).min(self.rows - 1) {
            for gx in col.saturating_sub(1)..=(col + 1).min(self.cols - 1) {
                let c = gy * self.cols + gx;
                for (index, other) in &self.entries[self.starts[c]..self.starts[c + 1]] {
                    if world.in_aoi(pos, other) {
                        f(*index);
                    }
                }
            }
        }
    }

    /// Computes `observer`'s update list from the indexed avatars.
    /// `others_scanned` is the number of avatars the literal algorithm
    /// would have distance-checked (all indexed avatars except the
    /// observer); it becomes `pairs_checked` verbatim so the virtual cost
    /// charge stays quadratic.
    pub fn query(
        &self,
        world: &World,
        observer: UserId,
        observer_pos: &Vec2,
        others_scanned: usize,
    ) -> AoiResult {
        let mut visible = Vec::new();
        self.for_each_in_aoi(world, observer_pos, |index| {
            let user = self.ids[index];
            if user != observer {
                visible.push(user);
            }
        });
        // Ascending id order = the literal scan order of the sorted
        // avatar table.
        visible.sort_unstable();
        AoiResult {
            pairs_checked: others_scanned,
            dedup_scans: dedup_scans_for(visible.len()),
            visible,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World {
            aoi_radius: 100.0,
            ..World::default()
        }
    }

    #[test]
    fn only_nearby_users_visible() {
        let w = world();
        let me = UserId(0);
        let pos = Vec2::new(500.0, 500.0);
        let others = vec![
            (UserId(1), Vec2::new(550.0, 500.0)), // 50 away: visible
            (UserId(2), Vec2::new(700.0, 500.0)), // 200 away: not
            (UserId(3), Vec2::new(500.0, 599.0)), // 99 away: visible
        ];
        let r = compute_aoi(&w, me, &pos, others.into_iter());
        assert_eq!(r.visible, vec![UserId(1), UserId(3)]);
        assert_eq!(r.pairs_checked, 3);
    }

    #[test]
    fn observer_excluded_from_own_aoi() {
        let w = world();
        let pos = Vec2::new(0.0, 0.0);
        let r = compute_aoi(&w, UserId(7), &pos, vec![(UserId(7), pos)].into_iter());
        assert!(r.visible.is_empty());
        assert_eq!(
            r.pairs_checked, 0,
            "self is skipped before the distance check"
        );
    }

    #[test]
    fn duplicates_are_removed_via_list_scan() {
        let w = world();
        let pos = Vec2::new(0.0, 0.0);
        let near = Vec2::new(10.0, 0.0);
        // The same user delivered twice (e.g. listed by two replica
        // updates during a migration race).
        let others = vec![(UserId(1), near), (UserId(1), near)];
        let r = compute_aoi(&w, UserId(0), &pos, others.into_iter());
        assert_eq!(r.visible, vec![UserId(1)]);
        assert!(r.dedup_scans >= 1, "the duplicate triggered a list scan");
    }

    #[test]
    fn work_units_grow_quadratically_with_density() {
        // All users within AoI range of each other: dedup scans are
        // Σ(k-1) ≈ v²/2, the quadratic term of t_aoi.
        let w = world();
        let pos = Vec2::new(500.0, 500.0);
        let make = |count: u64| {
            let others: Vec<(UserId, Vec2)> = (1..=count)
                .map(|i| (UserId(i), Vec2::new(500.0 + (i % 7) as f32, 500.0)))
                .collect();
            compute_aoi(&w, UserId(0), &pos, others.into_iter())
        };
        let r10 = make(10);
        let r40 = make(40);
        assert_eq!(r10.dedup_scans, 9 * 10 / 2);
        assert_eq!(r40.dedup_scans, 39 * 40 / 2);
        // 4x the users, ~16x the dedup work.
        assert!(r40.dedup_scans > 15 * r10.dedup_scans);
    }

    #[test]
    fn empty_zone_is_empty_result() {
        let w = world();
        let r = compute_aoi(&w, UserId(0), &Vec2::new(0.0, 0.0), std::iter::empty());
        assert_eq!(r, AoiResult::default());
    }

    /// Asserts the grid's full-result equivalence with the literal scan
    /// for every avatar as observer.
    fn assert_grid_matches_scan(w: &World, avatars: &[(UserId, Vec2)]) {
        let mut grid = AoiGrid::new();
        grid.rebuild(w, avatars);
        for &(observer, pos) in avatars {
            let literal = compute_aoi(w, observer, &pos, avatars.iter().copied());
            let fast = grid.query(w, observer, &pos, avatars.len() - 1);
            assert_eq!(fast, literal, "observer {observer:?}");
        }
    }

    #[test]
    fn grid_equals_literal_scan_on_spawn_spread() {
        let w = world();
        let avatars: Vec<(UserId, Vec2)> = (0..200)
            .map(|i| (UserId(i), w.spawn_point(UserId(i))))
            .collect();
        assert_grid_matches_scan(&w, &avatars);
    }

    #[test]
    fn grid_equals_literal_scan_when_everyone_is_visible() {
        // Radius larger than the world diagonal: the 3×3 neighbourhood is
        // the whole (1×1) grid and every other user is visible.
        let w = World {
            aoi_radius: 5000.0,
            ..World::default()
        };
        let avatars: Vec<(UserId, Vec2)> = (0..50)
            .map(|i| (UserId(i), w.spawn_point(UserId(i))))
            .collect();
        assert_grid_matches_scan(&w, &avatars);
    }

    #[test]
    fn grid_equals_literal_scan_on_cell_boundaries() {
        // Positions sitting exactly on cell borders and at exactly the
        // AoI radius — the predicate (≤ r²) must agree bit-for-bit.
        let w = world(); // radius 100 ⇒ cell size 100
        let avatars = vec![
            (UserId(0), Vec2::new(100.0, 100.0)),
            (UserId(1), Vec2::new(200.0, 100.0)), // exactly r away
            (UserId(2), Vec2::new(200.1, 100.0)), // just outside
            (UserId(3), Vec2::new(0.0, 0.0)),
            (UserId(4), Vec2::new(999.9, 999.9)),
            (UserId(5), Vec2::new(100.0, 200.0)),
        ];
        assert_grid_matches_scan(&w, &avatars);
    }

    #[test]
    fn grid_handles_tiny_radius_without_blowing_up() {
        // Radius far below world-size/MAX_GRID_DIM: the cell size floors
        // at the dimension cap instead of allocating millions of cells,
        // and the cap follows the population — rebuilding for 200 avatars
        // must not clear a 128 × 128 table every tick.
        for (radius, population) in [(0.5, 64u64), (0.0, 200), (0.15, 200), (0.5, 20_000)] {
            let w = World {
                aoi_radius: radius,
                ..World::default()
            };
            let avatars: Vec<(UserId, Vec2)> = (0..population)
                .map(|i| (UserId(i), w.spawn_point(UserId(i))))
                .collect();
            let mut grid = AoiGrid::new();
            grid.rebuild(&w, &avatars);
            assert!(grid.cols <= MAX_GRID_DIM && grid.rows <= MAX_GRID_DIM);
            let cells_touched = grid.starts.len();
            assert!(
                cells_touched <= 2 * avatars.len() + 64,
                "rebuild for {population} avatars touches {cells_touched} cells"
            );
            if population <= 200 {
                assert_grid_matches_scan(&w, &avatars);
            }
        }
    }

    #[test]
    fn empty_grid_sees_nobody() {
        let w = world();
        let mut grid = AoiGrid::new();
        let at = Vec2::new(1.0, 1.0);
        assert!(grid.query(&w, UserId(1), &at, 0).visible.is_empty());
        grid.rebuild(&w, &[]);
        assert!(grid.query(&w, UserId(1), &at, 0).visible.is_empty());
    }

    #[test]
    fn grid_counters_follow_the_quadratic_formulas() {
        let w = world();
        // A tight cluster: everyone sees everyone.
        let avatars: Vec<(UserId, Vec2)> = (0..20)
            .map(|i| (UserId(i), Vec2::new(500.0 + i as f32, 500.0)))
            .collect();
        let mut grid = AoiGrid::new();
        grid.rebuild(&w, &avatars);
        let r = grid.query(&w, UserId(0), &avatars[0].1, avatars.len() - 1);
        assert_eq!(r.pairs_checked, 19);
        assert_eq!(r.visible.len(), 19);
        assert_eq!(r.dedup_scans, 19 * 18 / 2);
    }

    #[test]
    fn rebuild_reuses_allocations_and_replaces_content() {
        let w = world();
        let mut grid = AoiGrid::new();
        grid.rebuild(&w, &[(UserId(1), Vec2::new(10.0, 10.0))]);
        let one = grid.query(&w, UserId(99), &Vec2::new(10.0, 10.0), 1);
        assert_eq!(one.visible, vec![UserId(1)]);
        // Rebuilding with a different population forgets the old one.
        grid.rebuild(&w, &[(UserId(2), Vec2::new(900.0, 900.0))]);
        let gone = grid.query(&w, UserId(99), &Vec2::new(10.0, 10.0), 1);
        assert!(gone.visible.is_empty());
        let found = grid.query(&w, UserId(99), &Vec2::new(900.0, 900.0), 1);
        assert_eq!(found.visible, vec![UserId(2)]);
    }
}
