//! The concurrency rule family (C1–C4) and hot-path inference.
//!
//! These rules run on the [`crate::model::Workspace`] — the call-graph /
//! lock / taint model — instead of single tokens:
//!
//! * **C1 — consistent lock order.** For every guard extent, the set of
//!   locks acquired while it is live (directly, or transitively through
//!   calls) yields ordered pairs `(outer, inner)`. Two pairs `(A, B)` and
//!   `(B, A)` anywhere in the workspace are a deadlock-shaped conflict.
//!   Lock identity is the heuristic `crate:receiver_field` key — distinct
//!   fields are distinct locks, and two instances behind one field are
//!   conservatively merged.
//! * **C2 — no blocking under a guard, no locks on the hot path.** A
//!   guard extent containing a blocking call (`recv`, no-arg `join`,
//!   `thread::sleep`, filesystem/socket setup I/O — directly or through
//!   callees) starves every other contender of that lock for the
//!   blocking call's duration (tag `blocking`). Separately, any lock
//!   acquisition inside a hot-path function is flagged (tag `hot_lock`)
//!   so the tick loop's lock discipline is an explicit, justified list.
//! * **C3 — interprocedural determinism taint.** Functions containing a
//!   D2 source (`Instant`, `thread_rng`, …) are tainted — even when the
//!   use site carries `allow(nondet)`, because the justification usually
//!   says "this never reaches the deterministic core", which is exactly
//!   what C3 checks. Taint propagates caller-ward along call edges and is
//!   stopped by `allow(taint, …)` on the boundary function. A tainted
//!   function that emits trace events, feeds a digest, or builds a
//!   `SessionReport` is flagged.
//! * **C4 — capture escape into worker closures.** Closures handed to
//!   `map_mut`/`map_mut_scheduled`/`spawn` must only mutate worker-owned
//!   state (their parameters and locals). Mutating a *captured* binding through
//!   shared/interior mutability (`.lock()`, `.borrow_mut()`, `.store()`,
//!   `.send()`, `.write()`, `fetch_*`) makes the result depend on worker
//!   interleaving; the documented pattern is take/restore — swap state
//!   out before the fan-out, merge it back in a deterministic order after
//!   the join (see `crates/sim/src/parallel.rs`).
//!
//! Hot-path inference replaces the old hand-maintained M1 file list: the
//! hot set is every function reachable (by name, owner hint preferred)
//! from `Server::tick` / `Client::tick` / `Cluster::step` /
//! `MultiZoneWorld::step` / `*Controller::control` / `run_session`. M1
//! token checks then apply to hot function bodies inside the
//! deterministic-runtime crates.

use crate::model::{capture_escapes, CallSite, FnInfo, Workspace};
use crate::rules::{Finding, RuleId};
use std::collections::{BTreeMap, BTreeSet};

/// Hot-path roots: `(owner must contain, fn name)`; `None` owner = free fn.
const ROOTS: &[(Option<&str>, &str)] = &[
    (Some("Server"), "tick"),
    (Some("Client"), "tick"),
    (Some("Cluster"), "step"),
    (Some("MultiZoneWorld"), "step"),
    (Some("Controller"), "control"),
    (None, "run_session"),
];

/// Crates whose hot functions get M1 (panic-freedom) enforcement.
const M1_CRATES: &[&str] = &["rtf", "net", "rms", "sim", "transport"];

/// Output of the concurrency analysis.
pub struct Analysis {
    /// C1–C4 findings, unsorted (the caller merges and sorts).
    pub findings: Vec<Finding>,
    /// Per-file 1-based line ranges of hot functions in M1-enforced
    /// crates — the inferred replacement for the old M1 file list.
    pub m1_ranges: BTreeMap<String, Vec<(u32, u32)>>,
    /// Qualified names of every hot function (for `--report`).
    pub hot_fns: Vec<String>,
}

/// Resolves a call site to candidate workspace functions.
///
/// Owner hints filter hard: `Type::name(…)` and `self.name(…)` only match
/// functions implemented on `Type`; a lowercase hint matches by module
/// file. A hinted call that matches nothing is treated as external (no
/// edge) rather than falling back to every same-named function.
fn resolve(ws: &Workspace, caller: &FnInfo, call: &CallSite) -> Vec<usize> {
    let Some(cands) = ws.by_name.get(&call.name) else {
        return Vec::new();
    };
    let live: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| !ws.fns[i].is_test)
        .collect();
    if let Some(hint) = &call.owner_hint {
        let upper = hint.chars().next().is_some_and(|c| c.is_uppercase());
        return live
            .into_iter()
            .filter(|&i| {
                let f = &ws.fns[i];
                if upper {
                    f.owner.as_deref() == Some(hint.as_str())
                } else {
                    f.file.contains(&format!("/{hint}.rs")) || f.file.contains(&format!("/{hint}/"))
                }
            })
            .collect();
    }
    if call.method {
        // Unhinted method call: any same-named method (over-approximate —
        // this is what lets `.tick()` fan to every ticked type).
        return live
            .into_iter()
            .filter(|&i| ws.fns[i].owner.is_some())
            .collect();
    }
    // Free call: prefer same-file functions, else free functions anywhere.
    let same_file: Vec<usize> = live
        .iter()
        .copied()
        .filter(|&i| ws.fns[i].file == caller.file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    live.into_iter()
        .filter(|&i| ws.fns[i].owner.is_none())
        .collect()
}

fn is_root(f: &FnInfo) -> bool {
    !f.is_test
        && ROOTS.iter().any(|(owner, name)| {
            f.name == *name
                && match owner {
                    Some(o) => f.owner.as_deref().is_some_and(|fo| fo.contains(o)),
                    None => f.owner.is_none(),
                }
        })
}

/// BFS over resolved call edges from the hot roots.
fn hot_set(ws: &Workspace) -> BTreeSet<usize> {
    let mut hot: BTreeSet<usize> = (0..ws.fns.len()).filter(|&i| is_root(&ws.fns[i])).collect();
    let mut work: Vec<usize> = hot.iter().copied().collect();
    while let Some(i) = work.pop() {
        let calls = ws.fns[i].calls.clone();
        for call in &calls {
            for j in resolve(ws, &ws.fns[i], call) {
                if hot.insert(j) {
                    work.push(j);
                }
            }
        }
    }
    hot
}

/// Lock keys acquired by `i` transitively (memoized; cycles contribute
/// their partial set).
fn trans_locks(
    ws: &Workspace,
    i: usize,
    memo: &mut BTreeMap<usize, BTreeSet<String>>,
    visiting: &mut BTreeSet<usize>,
) -> BTreeSet<String> {
    if let Some(s) = memo.get(&i) {
        return s.clone();
    }
    if !visiting.insert(i) {
        return BTreeSet::new();
    }
    let mut set: BTreeSet<String> = ws.fns[i].locks.iter().map(|l| l.key.clone()).collect();
    let calls = ws.fns[i].calls.clone();
    for call in &calls {
        for j in resolve(ws, &ws.fns[i], call) {
            set.extend(trans_locks(ws, j, memo, visiting));
        }
    }
    visiting.remove(&i);
    memo.insert(i, set.clone());
    set
}

/// Why `i` blocks (transitively), if it does.
fn trans_blocking(
    ws: &Workspace,
    i: usize,
    memo: &mut BTreeMap<usize, Option<String>>,
    visiting: &mut BTreeSet<usize>,
) -> Option<String> {
    if let Some(s) = memo.get(&i) {
        return s.clone();
    }
    if !visiting.insert(i) {
        return None;
    }
    let mut why = ws.fns[i].blocking.first().map(|b| b.what.clone());
    if why.is_none() {
        let calls = ws.fns[i].calls.clone();
        'outer: for call in &calls {
            for j in resolve(ws, &ws.fns[i], call) {
                if let Some(inner) = trans_blocking(ws, j, memo, visiting) {
                    why = Some(format!("{} -> {}", ws.fns[j].qualified(), inner));
                    break 'outer;
                }
            }
        }
    }
    visiting.remove(&i);
    memo.insert(i, why.clone());
    why
}

/// Whether `i` is determinism-tainted; returns the witness chain.
fn tainted(
    ws: &Workspace,
    allows: &BTreeMap<&str, &crate::rules::Allows>,
    i: usize,
    memo: &mut BTreeMap<usize, Option<String>>,
    visiting: &mut BTreeSet<usize>,
) -> Option<String> {
    if let Some(s) = memo.get(&i) {
        return s.clone();
    }
    if !visiting.insert(i) {
        return None;
    }
    let f = &ws.fns[i];
    let boundary = allows
        .get(f.file.as_str())
        .is_some_and(|a| a.suppressed("taint", f.line));
    let mut why = None;
    if !boundary {
        if let Some((line, what)) = f.taints.first() {
            why = Some(format!(
                "{} ({}:{} uses {what})",
                f.qualified(),
                f.file,
                line
            ));
        } else {
            let calls = f.calls.clone();
            'outer: for call in &calls {
                let call_allowed = allows
                    .get(f.file.as_str())
                    .is_some_and(|a| a.suppressed("taint", call.line));
                if call_allowed {
                    continue;
                }
                for j in resolve(ws, &ws.fns[i], call) {
                    if let Some(inner) = tainted(ws, allows, j, memo, visiting) {
                        why = Some(format!("{} -> {inner}", ws.fns[i].qualified()));
                        break 'outer;
                    }
                }
            }
        }
    }
    visiting.remove(&i);
    memo.insert(i, why.clone());
    why
}

/// Runs C1–C4 and hot-path inference over the workspace model.
pub fn analyze(ws: &Workspace) -> Analysis {
    let allows: BTreeMap<&str, &crate::rules::Allows> = ws
        .files
        .iter()
        .map(|f| (f.rel.as_str(), &f.allows))
        .collect();
    let suppressed = |tag: &str, file: &str, line: u32| {
        allows.get(file).is_some_and(|a| a.suppressed(tag, line))
    };
    let hot = hot_set(ws);
    let mut findings = Vec::new();

    // ---- C1: globally consistent lock order ------------------------------
    // First witness per ordered (outer, inner) pair.
    let mut pairs: BTreeMap<(String, String), (String, u32, String, String)> = BTreeMap::new();
    let mut lock_memo = BTreeMap::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        for l in &f.locks {
            let mut inner: BTreeSet<(String, String)> = BTreeSet::new();
            for l2 in &f.locks {
                if l.guard.0 < l2.tok && l2.tok < l.guard.1 && l2.key != l.key {
                    inner.insert((
                        l2.key.clone(),
                        format!("`{}.{}()`", l2.receiver, l2.op.name()),
                    ));
                }
            }
            for call in &f.calls {
                if !(l.guard.0 < call.tok && call.tok < l.guard.1) {
                    continue;
                }
                for j in resolve(ws, &ws.fns[i], call) {
                    for k in trans_locks(ws, j, &mut lock_memo, &mut BTreeSet::new()) {
                        if k != l.key {
                            inner.insert((k, format!("call to `{}`", ws.fns[j].qualified())));
                        }
                    }
                }
            }
            for (k, via) in inner {
                pairs
                    .entry((l.key.clone(), k))
                    .or_insert_with(|| (f.file.clone(), l.line, via, f.qualified()));
            }
        }
    }
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), (file, line, via, holder)) in &pairs {
        if a >= b || reported.contains(&(a.clone(), b.clone())) {
            continue;
        }
        if let Some((rfile, rline, rvia, rholder)) = pairs.get(&(b.clone(), a.clone())) {
            reported.insert((a.clone(), b.clone()));
            if suppressed("lock_order", file, *line) || suppressed("lock_order", rfile, *rline) {
                continue;
            }
            findings.push(Finding {
                rule: RuleId::C1.id(),
                file: file.clone(),
                line: *line,
                col: 1,
                message: format!(
                    "conflicting lock order: `{holder}` holds `{a}` while acquiring `{b}` \
                     ({via}), but `{rholder}` ({rfile}:{rline}) holds `{b}` while acquiring \
                     `{a}` ({rvia}); two threads taking these paths concurrently can deadlock \
                     — pick one global order or annotate `// lint: allow(lock_order, \"...\")`"
                ),
            });
        }
    }

    // ---- C2: blocking under a guard + hot-path locks ---------------------
    let mut block_memo = BTreeMap::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        for l in &f.locks {
            for b in &f.blocking {
                if l.guard.0 < b.tok
                    && b.tok < l.guard.1
                    && !suppressed("blocking", &f.file, b.line)
                {
                    findings.push(Finding {
                        rule: RuleId::C2.id(),
                        file: f.file.clone(),
                        line: b.line,
                        col: 1,
                        message: format!(
                            "`{}` guard (acquired line {}) is held across blocking {}; every \
                             other contender stalls for the call's duration — move the blocking \
                             work outside the guard or annotate \
                             `// lint: allow(blocking, \"...\")`",
                            l.receiver, l.line, b.what
                        ),
                    });
                }
            }
            for call in &f.calls {
                if !(l.guard.0 < call.tok && call.tok < l.guard.1) {
                    continue;
                }
                if suppressed("blocking", &f.file, call.line) {
                    continue;
                }
                for j in resolve(ws, &ws.fns[i], call) {
                    if let Some(why) = trans_blocking(ws, j, &mut block_memo, &mut BTreeSet::new())
                    {
                        findings.push(Finding {
                            rule: RuleId::C2.id(),
                            file: f.file.clone(),
                            line: call.line,
                            col: 1,
                            message: format!(
                                "`{}` guard (acquired line {}) is held across `{}` which blocks \
                                 ({why}); move the call outside the guard or annotate \
                                 `// lint: allow(blocking, \"...\")`",
                                l.receiver,
                                l.line,
                                ws.fns[j].qualified()
                            ),
                        });
                        break;
                    }
                }
            }
        }
    }
    for &i in &hot {
        let f = &ws.fns[i];
        for l in &f.locks {
            if suppressed("hot_lock", &f.file, l.line) {
                continue;
            }
            findings.push(Finding {
                rule: RuleId::C2.id(),
                file: f.file.clone(),
                line: l.line,
                col: l.col,
                message: format!(
                    "`{}.{}()` acquires a lock inside `{}`, which is on the tick/control \
                     hot path; a contended or poisoned lock here stalls the whole round — \
                     keep the hot path lock-free or annotate each justified acquisition \
                     `// lint: allow(hot_lock, \"...\")`",
                    l.receiver,
                    l.op.name(),
                    f.qualified()
                ),
            });
        }
    }

    // ---- C3: interprocedural determinism taint ---------------------------
    let mut taint_memo = BTreeMap::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let Some(sink) = f.sink else { continue };
        let Some(why) = tainted(ws, &allows, i, &mut taint_memo, &mut BTreeSet::new()) else {
            continue;
        };
        if suppressed("taint", &f.file, f.line) {
            continue;
        }
        findings.push(Finding {
            rule: RuleId::C3.id(),
            file: f.file.clone(),
            line: f.line,
            col: 1,
            message: format!(
                "`{}` {sink} but is reachable from nondeterministic input: {why}; seeded \
                 reruns will diverge — thread sim-time/seeded RNG through, or mark the \
                 sanctioned boundary fn `// lint: allow(taint, \"...\")`",
                f.qualified()
            ),
        });
    }

    // ---- C4: capture escape into worker closures -------------------------
    for fm in &ws.files {
        for &i in &fm.fns {
            let f = &ws.fns[i];
            if f.is_test {
                continue;
            }
            for closure in &f.closures {
                for (line, root, trigger) in capture_escapes(&fm.lexed.tokens, closure) {
                    if suppressed("capture", &fm.rel, line) {
                        continue;
                    }
                    findings.push(Finding {
                        rule: RuleId::C4.id(),
                        file: fm.rel.clone(),
                        line,
                        col: 1,
                        message: format!(
                            "worker closure passed to `{}` mutates captured `{root}` via \
                             `.{trigger}()`; worker interleaving decides the order, so \
                             same-seed runs can diverge — use the take/restore pattern \
                             (swap state out before the fan-out, merge in deterministic \
                             order after the join; see parallel.rs) or annotate \
                             `// lint: allow(capture, \"...\")`",
                            closure.host
                        ),
                    });
                }
            }
        }
    }

    // ---- Hot-path M1 ranges ----------------------------------------------
    let mut m1_ranges: BTreeMap<String, Vec<(u32, u32)>> = BTreeMap::new();
    let mut hot_fns = Vec::new();
    for fm in &ws.files {
        for &i in &fm.fns {
            if !hot.contains(&i) || ws.fns[i].is_test {
                continue;
            }
            let f = &ws.fns[i];
            hot_fns.push(format!("{} ({})", f.qualified(), f.file));
            if !M1_CRATES.contains(&f.crate_name.as_str()) {
                continue;
            }
            let end_line = fm
                .lexed
                .tokens
                .get(f.body.1)
                .or_else(|| fm.lexed.tokens.last())
                .map(|t| t.line)
                .unwrap_or(f.line);
            m1_ranges
                .entry(fm.rel.clone())
                .or_default()
                .push((f.line, end_line));
        }
    }
    hot_fns.sort();
    hot_fns.dedup();

    Analysis {
        findings,
        m1_ranges,
        hot_fns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        analyze(&build(&owned)).findings
    }

    #[test]
    fn c1_conflicting_order_across_fns() {
        let src = "\
fn ab(a: &Mutex<u8>, b: &Mutex<u8>) { let g = a.lock().unwrap(); let h = b.lock().unwrap(); }
fn ba(a: &Mutex<u8>, b: &Mutex<u8>) { let h = b.lock().unwrap(); let g = a.lock().unwrap(); }
";
        let f = run(&[("crates/sim/src/x.rs", src)]);
        assert_eq!(f.iter().filter(|f| f.rule == "C1").count(), 1, "{f:?}");
    }

    #[test]
    fn c1_interprocedural_via_callee() {
        let src = "\
fn inner_b(b: &Mutex<u8>) { let h = b.lock().unwrap(); }
fn ab(a: &Mutex<u8>, b: &Mutex<u8>) { let g = a.lock().unwrap(); inner_b(b); }
fn ba(a: &Mutex<u8>, b: &Mutex<u8>) { let h = b.lock().unwrap(); let g = a.lock().unwrap(); }
";
        let f = run(&[("crates/sim/src/x.rs", src)]);
        assert_eq!(f.iter().filter(|f| f.rule == "C1").count(), 1, "{f:?}");
    }

    #[test]
    fn c1_consistent_order_is_clean() {
        let src = "\
fn ab(a: &Mutex<u8>, b: &Mutex<u8>) { let g = a.lock().unwrap(); let h = b.lock().unwrap(); }
fn ab2(a: &Mutex<u8>, b: &Mutex<u8>) { let g = a.lock().unwrap(); let h = b.lock().unwrap(); }
";
        let f = run(&[("crates/sim/src/x.rs", src)]);
        assert!(f.iter().all(|f| f.rule != "C1"), "{f:?}");
    }

    #[test]
    fn c2_blocking_under_guard() {
        let src = "\
fn f(m: &Mutex<u8>, rx: &Receiver<u8>) { let g = m.lock().unwrap(); rx.recv(); }
fn ok(m: &Mutex<u8>, rx: &Receiver<u8>) { { let g = m.lock().unwrap(); } rx.recv(); }
";
        let f = run(&[("crates/sim/src/x.rs", src)]);
        assert_eq!(f.iter().filter(|f| f.rule == "C2").count(), 1, "{f:?}");
    }

    #[test]
    fn c2_transitive_blocking_callee() {
        let src = "\
fn slow() { thread::sleep(d); }
fn f(m: &Mutex<u8>) { let g = m.lock().unwrap(); slow(); }
";
        let f = run(&[("crates/sim/src/x.rs", src)]);
        assert!(
            f.iter()
                .any(|f| f.rule == "C2" && f.message.contains("slow")),
            "{f:?}"
        );
    }

    #[test]
    fn c2_hot_lock_flagged_cold_lock_not() {
        let src = "\
impl Server { fn tick(&mut self) { self.hotwork(); } fn hotwork(&mut self) { self.m.lock().unwrap(); } }
fn cold(m: &Mutex<u8>) { let g = m.lock().unwrap(); }
";
        let f = run(&[("crates/sim/src/x.rs", src)]);
        let hot: Vec<_> = f.iter().filter(|f| f.rule == "C2").collect();
        assert_eq!(hot.len(), 1, "{hot:?}");
        assert!(hot[0].message.contains("hotwork"));
    }

    #[test]
    fn c3_taint_reaches_sink_through_calls() {
        let src = "\
fn now_s() -> f64 { let t = Instant::now(); 0.0 }
fn mid() -> f64 { now_s() }
impl Report { fn finish(&self, tr: &Tracer) { let x = mid(); tr.emit(x); } }
";
        let f = run(&[("crates/sim/src/x.rs", src)]);
        assert_eq!(f.iter().filter(|f| f.rule == "C3").count(), 1, "{f:?}");
        assert!(f.iter().any(|f| f.message.contains("now_s")));
    }

    #[test]
    fn c3_allow_taint_marks_boundary() {
        let src = "\
// lint: allow(taint, \"wall mode only; virtual mode never calls this\")
fn now_s() -> f64 { let t = Instant::now(); 0.0 }
impl Report { fn finish(&self, tr: &Tracer) { let x = now_s(); tr.emit(x); } }
";
        let f = run(&[("crates/sim/src/x.rs", src)]);
        assert!(f.iter().all(|f| f.rule != "C3"), "{f:?}");
    }

    #[test]
    fn c4_capture_escape_flagged_param_ok() {
        let src = "\
fn bad(items: &mut [u8], out: &Mutex<Vec<u8>>) { map_mut(items, 4, |h| { out.lock().unwrap().push(*h); }); }
fn good(items: &mut [H]) { map_mut(items, 4, |h| h.server.tick()); }
";
        let f = run(&[("crates/sim/src/x.rs", src)]);
        let c4: Vec<_> = f.iter().filter(|f| f.rule == "C4").collect();
        assert_eq!(c4.len(), 1, "{c4:?}");
        assert!(c4[0].message.contains("`out`"));
    }

    #[test]
    fn hot_inference_walks_call_graph() {
        let files = [
            (
                "crates/rtf/src/server.rs",
                "impl Server { pub fn tick(&mut self) { self.apply(); helper(); } fn apply(&mut self) { v[0]; } }\nfn helper() { w.unwrap(); }\nfn cold() { z.unwrap(); }",
            ),
        ];
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        let a = analyze(&build(&owned));
        let ranges = &a.m1_ranges["crates/rtf/src/server.rs"];
        assert_eq!(
            ranges.len(),
            3,
            "tick, apply and helper are hot: {ranges:?}"
        );
        let covered = |line: u32| ranges.iter().any(|(s, e)| *s <= line && line <= *e);
        assert!(covered(1), "tick/apply on line 1");
        assert!(covered(2), "helper on line 2");
        assert!(!covered(3), "cold fn not hot");
    }

    #[test]
    fn test_fns_do_not_produce_findings() {
        let src = "\
#[cfg(test)]
mod tests { fn f(m: &Mutex<u8>, rx: &Receiver<u8>) { let g = m.lock().unwrap(); rx.recv(); } }
";
        let f = run(&[("crates/sim/src/x.rs", src)]);
        assert!(f.is_empty(), "{f:?}");
    }
}
