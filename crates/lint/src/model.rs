//! The workspace model — a lightweight item/block parser over the lexer.
//!
//! The token rules (D1/D2/M1/M2/F1) fire on single tokens; the concurrency
//! rules (C1–C4, see [`crate::conc`]) need *structure*: which function a
//! token belongs to, what that function calls, which lock guards are live
//! across which spans, and which closures escape into worker pools. This
//! module recovers exactly that much structure — no types, no name
//! resolution beyond "same identifier, owner hint preferred" — from the
//! [`crate::lexer`] token stream, so the analyzer stays dependency-free
//! (`syn` needs registry access; hermetic CI has none).
//!
//! What the parser recovers per function:
//!
//! * the `impl`/`trait` owner and the body token range,
//! * call sites (`free(…)`, `recv.method(…)`, `Type::assoc(…)`) with the
//!   qualifier kept as an *owner hint* for resolution,
//! * lock acquisitions (`.lock()` always; `.read()`/`.write()` only when
//!   the receiver field/binding is declared as an `RwLock` somewhere in
//!   the workspace) together with the **guard extent** — the token span
//!   the guard is assumed live over (binding → enclosing block,
//!   `if let`/`while let` → the conditional's block, expression
//!   temporary → its statement, shortened by an explicit `drop(guard)`),
//! * determinism-taint sources (the D2 token set),
//! * directly blocking calls (channel `recv`, `JoinHandle::join`,
//!   `thread::sleep`, filesystem and socket setup I/O),
//! * determinism sinks (`.emit(…)`/`.record(…)` or `SessionReport`/
//!   `HashSink`/`RunDigest` mentions),
//! * worker closures — closure literals passed to `map_mut`/
//!   `map_mut_scheduled`/`spawn` — with their parameters and local bindings
//!   so capture-escape (C4) can tell captures from locals.
//!
//! Everything here is a deliberate over/under-approximation; the C-rule
//! fixtures in `tests/fixtures.rs` pin the behaviour and DESIGN.md §8
//! documents the limits.

use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::rules::{collect_allows, test_exempt_mask, Allows};
use std::collections::{BTreeMap, BTreeSet};

/// How a lock guard was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOp {
    /// `Mutex::lock` (std or parking_lot).
    Lock,
    /// `RwLock::read`.
    Read,
    /// `RwLock::write`.
    Write,
}

impl LockOp {
    /// The method name as written.
    pub fn name(self) -> &'static str {
        match self {
            LockOp::Lock => "lock",
            LockOp::Read => "read",
            LockOp::Write => "write",
        }
    }
}

/// One lock acquisition and the span its guard is assumed live over.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Canonical lock identity: `crate:receiver_field` (e.g. `net:inner`).
    pub key: String,
    /// Receiver text as written (for messages).
    pub receiver: String,
    /// Acquisition flavour.
    pub op: LockOp,
    /// 1-based line / column of the method name token.
    pub line: u32,
    pub col: u32,
    /// Token index of the method name.
    pub tok: usize,
    /// Guard extent as a half-open token range `(start, end)`: the guard
    /// is considered live for call/lock sites with `start < tok < end`.
    pub guard: (usize, usize),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// Qualifier: `Type` from `Type::name(…)`, the enclosing impl owner
    /// for `self.name(…)`, or a lowercase module hint from `mod::name(…)`.
    pub owner_hint: Option<String>,
    /// Whether this was a `.name(…)` method call.
    pub method: bool,
    /// 1-based line of the callee name token.
    pub line: u32,
    /// Token index of the callee name.
    pub tok: usize,
}

/// A closure literal passed to a worker-pool entry point.
#[derive(Debug, Clone)]
pub struct WorkerClosure {
    /// The pool entry point it was passed to (`map_mut`, `spawn`, …).
    pub host: String,
    /// 1-based line of the closure's `|`.
    pub line: u32,
    /// Token range of the closure body (half-open).
    pub body: (usize, usize),
    /// Parameter names (treated as worker-owned, not captures).
    pub params: BTreeSet<String>,
}

/// A direct potentially-blocking call.
#[derive(Debug, Clone)]
pub struct BlockingSite {
    /// Human-readable description (`.recv()`, `fs::write`, …).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// Token index.
    pub tok: usize,
}

/// One parsed function (or trait default method).
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Workspace-relative file path.
    pub file: String,
    /// Crate short name (`sim`, `obs`, …) derived from the path.
    pub crate_name: String,
    /// `impl`/`trait` owner type name, if any.
    pub owner: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Body token range (half-open, brace tokens excluded).
    pub body: (usize, usize),
    /// Calls made from the body (closures included).
    pub calls: Vec<CallSite>,
    /// Lock acquisitions in the body.
    pub locks: Vec<LockSite>,
    /// Determinism-taint source lines (D2 token set), with the token text.
    pub taints: Vec<(u32, String)>,
    /// Directly blocking calls.
    pub blocking: Vec<BlockingSite>,
    /// Worker closures created in the body.
    pub closures: Vec<WorkerClosure>,
    /// Why this function is a determinism sink, if it is.
    pub sink: Option<&'static str>,
    /// Inside `#[cfg(test)]`/`#[test]` code.
    pub is_test: bool,
}

impl FnInfo {
    /// `Owner::name` or plain `name` — for messages.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One parsed file: lexed tokens, allow annotations, and its functions.
pub struct FileModel {
    /// Workspace-relative path.
    pub rel: String,
    /// Crate short name.
    pub crate_name: String,
    /// Lexer output (kept for line lookups).
    pub lexed: Lexed,
    /// Parsed allow annotations.
    pub allows: Allows,
    /// Indices into [`Workspace::fns`] for this file's functions.
    pub fns: Vec<usize>,
}

/// The whole workspace as the concurrency rules see it.
pub struct Workspace {
    /// All parsed functions across all files.
    pub fns: Vec<FnInfo>,
    /// Per-file models in scan order.
    pub files: Vec<FileModel>,
    /// Function indices by name.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

/// Pool entry points whose closure argument runs on worker threads.
const WORKER_HOSTS: &[&str] = &["map_mut", "map_mut_scheduled", "spawn"];

/// Methods that block the calling thread (no-argument `join` is
/// `JoinHandle::join`; `join(", ")` on slices is not matched).
const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "park",
    "park_timeout",
    "wait",
    "wait_timeout",
    "accept",
];

/// Path-qualified calls that block (I/O and sleeps).
const BLOCKING_PATHS: &[(&str, &str)] = &[
    ("thread", "sleep"),
    ("fs", "write"),
    ("fs", "read"),
    ("fs", "read_to_string"),
    ("fs", "create_dir_all"),
    ("fs", "remove_dir_all"),
    ("File", "create"),
    ("File", "open"),
    ("TcpStream", "connect"),
    ("TcpListener", "bind"),
];

/// Methods on captured state that mutate through shared/interior
/// mutability — the C4 trigger set.
const CAPTURE_TRIGGERS: &[&str] = &["lock", "borrow_mut", "store", "send", "write"];

/// Crate short name from a workspace-relative path.
pub fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("root")
        .to_string()
}

/// Builds the workspace model from `(relative_path, source)` pairs.
///
/// A first pass collects the names of fields/bindings declared with an
/// `RwLock` type anywhere in the workspace, so `.read()`/`.write()` can be
/// told apart from `io::Read`/`io::Write` calls; the second pass parses
/// each file.
pub fn build(files: &[(String, String)]) -> Workspace {
    let lexed: Vec<Lexed> = files.iter().map(|(_, src)| lex(src)).collect();
    let mut rwlock_names: BTreeSet<String> = BTreeSet::new();
    for l in &lexed {
        collect_rwlock_names(&l.tokens, &mut rwlock_names);
    }
    let mut ws = Workspace {
        fns: Vec::new(),
        files: Vec::new(),
        by_name: BTreeMap::new(),
    };
    for ((rel, _src), lx) in files.iter().zip(lexed) {
        let file = parse_file(rel, lx, &rwlock_names, &mut ws.fns);
        ws.files.push(file);
    }
    for (i, f) in ws.fns.iter().enumerate() {
        ws.by_name.entry(f.name.clone()).or_default().push(i);
    }
    ws
}

/// Records identifiers declared with an `RwLock` type or initializer:
/// `name: RwLock<…>`, `name: Arc<RwLock<…>>`, `let name = RwLock::new(…)`.
fn collect_rwlock_names(tokens: &[Tok], out: &mut BTreeSet<String>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // `name : … RwLock` within a short window (type ascription).
        if tokens.get(i + 1).is_some_and(|n| n.is_punct(":")) {
            let window = tokens.iter().skip(i + 2).take(6);
            if window
                .take_while(|w| !w.is_punct(";") && !w.is_punct(","))
                .any(|w| w.is_ident("RwLock"))
            {
                out.insert(t.text.clone());
            }
        }
        // `let name = … RwLock :: new` within a short window.
        if t.is_ident("let") {
            let name = tokens
                .iter()
                .skip(i + 1)
                .take(3)
                .find(|w| w.kind == TokKind::Ident && !w.is_ident("mut"));
            if let Some(name) = name {
                let window = tokens.iter().skip(i + 2).take(10);
                if window
                    .take_while(|w| !w.is_punct(";"))
                    .any(|w| w.is_ident("RwLock"))
                {
                    out.insert(name.text.clone());
                }
            }
        }
    }
}

/// For each token, the index of the `}` closing the innermost enclosing
/// block (or `usize::MAX` at top level).
fn enclosing_block_end(tokens: &[Tok]) -> Vec<usize> {
    let mut out = vec![usize::MAX; tokens.len()];
    let mut stack: Vec<usize> = Vec::new(); // open-brace token indices
                                            // First pass: match braces.
    let mut matches: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct("{") {
            stack.push(i);
        } else if t.is_punct("}") {
            if let Some(open) = stack.pop() {
                matches.insert(open, i);
            }
        }
    }
    stack.clear();
    for (i, t) in tokens.iter().enumerate() {
        if let Some(&top) = stack.last() {
            out[i] = matches.get(&top).copied().unwrap_or(usize::MAX);
        }
        if t.is_punct("{") {
            stack.push(i);
        } else if t.is_punct("}") {
            stack.pop();
        }
    }
    out
}

/// Index of the token closing the bracket opened at `open_idx`, scanning
/// only `open`/`close` punct tokens.
fn match_punct(tokens: &[Tok], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Keywords that never start a call even when followed by `(`.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "let", "else", "move", "fn",
    "Some", "Ok", "Err", "None", "Box",
];

/// Parses one file into [`FnInfo`] records appended to `fns`.
fn parse_file(
    rel: &str,
    lexed: Lexed,
    rwlock_names: &BTreeSet<String>,
    fns: &mut Vec<FnInfo>,
) -> FileModel {
    let tokens = &lexed.tokens;
    let code_lines: BTreeSet<u32> = tokens.iter().map(|t| t.line).collect();
    let allows = collect_allows(&lexed.comments, &code_lines);
    let exempt = test_exempt_mask(tokens);
    let encl_end = enclosing_block_end(tokens);
    let crate_name = crate_of(rel);

    // Frames of currently open braces that carry meaning.
    #[derive(Clone)]
    enum Frame {
        /// Inside an `impl`/`trait` block for this owner.
        Owner(String, usize),
        /// Inside a function body (index into `fns`).
        Fn(usize, usize),
        /// Any other brace.
        Block(usize),
    }
    let mut stack: Vec<Frame> = Vec::new();
    // Pending classification for a `{` we already know the meaning of.
    let mut pending: BTreeMap<usize, Frame> = BTreeMap::new();
    let mut file_fns: Vec<usize> = Vec::new();

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];

        // Close frames whose brace ends here.
        if t.is_punct("}") {
            if let Some(pos) = stack.iter().rposition(
                |f| matches!(f, Frame::Owner(_, c) | Frame::Fn(_, c) | Frame::Block(c) if *c == i),
            ) {
                stack.truncate(pos);
            }
            i += 1;
            continue;
        }

        if t.is_punct("{") {
            let frame = pending.remove(&i).unwrap_or(Frame::Block(0));
            let close = match_punct(tokens, i, "{", "}").unwrap_or(tokens.len());
            stack.push(match frame {
                Frame::Owner(o, _) => Frame::Owner(o, close),
                Frame::Fn(id, _) => Frame::Fn(id, close),
                Frame::Block(_) => Frame::Block(close),
            });
            i += 1;
            continue;
        }

        // `impl`/`trait` items (not `-> impl Trait` / `&dyn` positions).
        if (t.is_ident("impl") || t.is_ident("trait")) && item_position(tokens, i) {
            if let Some((owner, open)) = parse_owner_header(tokens, i) {
                pending.insert(open, Frame::Owner(owner, 0));
                i += 1;
                continue;
            }
        }

        // `fn name(…) … {` items (skip `fn(…)` pointer types and
        // body-less trait declarations).
        if t.is_ident("fn") && tokens.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
            if let Some(open) = fn_body_open(tokens, i) {
                let owner = stack.iter().rev().find_map(|f| match f {
                    Frame::Owner(o, _) => Some(o.clone()),
                    _ => None,
                });
                let close = match_punct(tokens, open, "{", "}").unwrap_or(tokens.len());
                // Sink types named in the signature (e.g. a
                // `-> SessionReport` return) count as sink markers too.
                let sig_sink = tokens[i..open]
                    .iter()
                    .any(|t| {
                        t.is_ident("SessionReport")
                            || t.is_ident("HashSink")
                            || t.is_ident("RunDigest")
                    })
                    .then_some("feeds a session report/digest");
                let id = fns.len();
                fns.push(FnInfo {
                    file: rel.to_string(),
                    crate_name: crate_name.clone(),
                    owner,
                    name: tokens[i + 1].text.clone(),
                    line: t.line,
                    body: (open + 1, close),
                    calls: Vec::new(),
                    locks: Vec::new(),
                    taints: Vec::new(),
                    blocking: Vec::new(),
                    closures: Vec::new(),
                    sink: sig_sink,
                    is_test: exempt.get(i).copied().unwrap_or(false),
                });
                file_fns.push(id);
                pending.insert(open, Frame::Fn(id, 0));
                i += 1;
                continue;
            }
        }

        // Body-level detectors feed the innermost enclosing function.
        let fn_id = stack.iter().rev().find_map(|f| match f {
            Frame::Fn(id, _) => Some(*id),
            _ => None,
        });
        if let Some(id) = fn_id {
            scan_body_token(
                tokens,
                i,
                rwlock_names,
                &encl_end,
                &crate_name,
                &mut fns[id],
            );
        }
        i += 1;
    }

    FileModel {
        rel: rel.to_string(),
        crate_name,
        lexed,
        allows,
        fns: file_fns,
    }
}

/// Whether the token at `i` sits in item position (start of file, after
/// `;`/`{`/`}`/`]`, or after `pub`/`unsafe` chains).
fn item_position(tokens: &[Tok], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        let p = &tokens[j - 1];
        if p.is_ident("pub") || p.is_ident("unsafe") || p.is_punct(")") {
            // `pub(crate)` chains: step over the visibility group.
            j -= 1;
            continue;
        }
        return p.is_punct(";") || p.is_punct("{") || p.is_punct("}") || p.is_punct("]");
    }
    true
}

/// Parses an `impl`/`trait` header starting at `i`; returns the owner type
/// name and the token index of the body's `{`.
fn parse_owner_header(tokens: &[Tok], i: usize) -> Option<(String, usize)> {
    let mut angle = 0i32;
    let mut in_where = false;
    let mut owner: Option<String> = None;
    for (j, t) in tokens.iter().enumerate().skip(i + 1) {
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if angle == 0 {
            if t.is_punct("{") {
                return owner.map(|o| (o, j));
            }
            if t.is_punct(";") {
                return None;
            }
            if t.is_ident("for") {
                // `impl Trait for Type`: the type after `for` wins.
                owner = None;
            } else if t.is_ident("where") {
                in_where = true; // owner settled; keep scanning for `{`.
            } else if !in_where
                && t.kind == TokKind::Ident
                && !t.is_ident("dyn")
                && !t.is_ident("mut")
            {
                // Last path segment at angle depth 0 wins (skips module
                // qualifiers in `impl foo::Bar { … }`).
                owner = Some(t.text.clone());
            }
        }
    }
    None
}

/// Token index of the `{` opening the body of the `fn` at `i`, or `None`
/// for body-less declarations.
fn fn_body_open(tokens: &[Tok], i: usize) -> Option<usize> {
    let mut paren = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(i + 1) {
        if t.is_punct("(") || t.is_punct("[") {
            paren += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            paren -= 1;
        } else if paren == 0 {
            if t.is_punct("{") {
                return Some(j);
            }
            if t.is_punct(";") {
                return None;
            }
        }
    }
    None
}

/// Runs the per-token detectors for the function body token at `i`.
fn scan_body_token(
    tokens: &[Tok],
    i: usize,
    rwlock_names: &BTreeSet<String>,
    encl_end: &[usize],
    crate_name: &str,
    f: &mut FnInfo,
) {
    let t = &tokens[i];
    let prev = i.checked_sub(1).and_then(|p| tokens.get(p));
    let next = tokens.get(i + 1);

    // Determinism-taint sources (the D2 token set).
    let named = t.is_ident("Instant")
        || t.is_ident("SystemTime")
        || t.is_ident("UNIX_EPOCH")
        || t.is_ident("thread_rng")
        || t.is_ident("from_entropy");
    let rand_random = t.is_ident("rand")
        && next.is_some_and(|n| n.is_punct("::"))
        && tokens.get(i + 2).is_some_and(|n| n.is_ident("random"));
    if named || rand_random {
        f.taints.push((t.line, t.text.clone()));
    }

    // Determinism sinks.
    if (t.is_ident("emit") || t.is_ident("record"))
        && prev.is_some_and(|p| p.is_punct("."))
        && next.is_some_and(|n| n.is_punct("("))
    {
        f.sink = Some("emits trace/metrics events");
    }
    if t.is_ident("SessionReport") || t.is_ident("HashSink") || t.is_ident("RunDigest") {
        f.sink = Some("feeds a session report/digest");
    }

    if t.kind != TokKind::Ident || !next.is_some_and(|n| n.is_punct("(")) {
        return;
    }
    // From here on `t` is `name (` — a call-shaped token.
    if prev.is_some_and(|p| p.is_ident("fn")) || NON_CALL_IDENTS.contains(&t.text.as_str()) {
        return;
    }

    let is_method = prev.is_some_and(|p| p.is_punct("."));
    let path_qual = (prev.is_some_and(|p| p.is_punct("::")) && i >= 2)
        .then(|| tokens[i - 2].text.clone())
        .filter(|_| tokens[i - 2].kind == TokKind::Ident);

    // Blocking calls.
    if is_method && BLOCKING_METHODS.contains(&t.text.as_str()) {
        f.blocking.push(BlockingSite {
            what: format!(".{}()", t.text),
            line: t.line,
            tok: i,
        });
    }
    // `.join()` with no arguments is JoinHandle::join.
    if is_method && t.is_ident("join") && tokens.get(i + 2).is_some_and(|n| n.is_punct(")")) {
        f.blocking.push(BlockingSite {
            what: ".join()".to_string(),
            line: t.line,
            tok: i,
        });
    }
    if let Some(q) = &path_qual {
        if BLOCKING_PATHS.iter().any(|(m, n)| q == m && t.text == *n) {
            f.blocking.push(BlockingSite {
                what: format!("{q}::{}", t.text),
                line: t.line,
                tok: i,
            });
        }
    }

    // Lock acquisitions.
    let lock_op = if t.is_ident("lock") && tokens.get(i + 2).is_some_and(|n| n.is_punct(")")) {
        Some(LockOp::Lock)
    } else if t.is_ident("read") || t.is_ident("write") {
        let recv_is_rwlock =
            is_method && prev_receiver_ident(tokens, i).is_some_and(|r| rwlock_names.contains(&r));
        if recv_is_rwlock && tokens.get(i + 2).is_some_and(|n| n.is_punct(")")) {
            Some(if t.is_ident("read") {
                LockOp::Read
            } else {
                LockOp::Write
            })
        } else {
            None
        }
    } else {
        None
    };
    if let (true, Some(op)) = (is_method, lock_op) {
        let field = prev_receiver_ident(tokens, i).unwrap_or_else(|| "<expr>".to_string());
        let receiver = receiver_text(tokens, i);
        let guard = guard_extent(tokens, i, encl_end);
        f.locks.push(LockSite {
            key: format!("{crate_name}:{field}"),
            receiver,
            op,
            line: t.line,
            col: t.col,
            tok: i,
            guard,
        });
    }

    // Plain call sites (for the call graph). Skip macro-shaped `name!(`.
    if prev.is_some_and(|p| p.is_punct("!")) {
        return;
    }
    let owner_hint = if is_method {
        prev_receiver_ident(tokens, i)
            .filter(|r| r == "self")
            .and(f.owner.clone())
    } else {
        path_qual
    };
    f.calls.push(CallSite {
        name: t.text.clone(),
        owner_hint,
        method: is_method,
        line: t.line,
        tok: i,
    });

    // Worker closures.
    if WORKER_HOSTS.contains(&t.text.as_str()) {
        if let Some(c) = parse_worker_closure(tokens, i) {
            f.closures.push(c);
        }
    }
}

/// The identifier immediately left of the `.` of the method call at `i`
/// (`self.field.lock()` → `field`; `buffer.lock()` → `buffer`).
fn prev_receiver_ident(tokens: &[Tok], i: usize) -> Option<String> {
    let dot = i.checked_sub(1)?;
    if !tokens[dot].is_punct(".") {
        return None;
    }
    let r = &tokens[dot.checked_sub(1)?];
    (r.kind == TokKind::Ident).then(|| r.text.clone())
}

/// Receiver chain rendered left of the method call at `i`, for messages.
fn receiver_text(tokens: &[Tok], i: usize) -> String {
    let mut j = i.saturating_sub(1); // the `.`
    let mut parts: Vec<&str> = Vec::new();
    while j > 0 {
        let t = &tokens[j - 1];
        if t.kind == TokKind::Ident || t.is_punct(".") {
            parts.push(&t.text);
            j -= 1;
        } else {
            break;
        }
    }
    parts.reverse();
    parts.concat()
}

/// Computes the guard extent for the lock call at token `i` (the method
/// name). See the module docs for the binding/conditional/temporary cases.
fn guard_extent(tokens: &[Tok], i: usize, encl_end: &[usize]) -> (usize, usize) {
    // Find the statement start: scan back to the nearest `;`, `{` or `}`.
    let mut s = i;
    while s > 0 {
        let p = &tokens[s - 1];
        if p.is_punct(";") || p.is_punct("{") || p.is_punct("}") {
            break;
        }
        s -= 1;
    }
    let first = &tokens[s];
    // `if let` / `while let`: the guard lives for the conditional's block.
    if first.is_ident("if") || first.is_ident("while") {
        if let Some(open) = next_block_open(tokens, i) {
            let close = match_punct(tokens, open, "{", "}").unwrap_or(tokens.len());
            return (open, close);
        }
    }
    // `let g = recv.lock()[.unwrap()/.expect(…)…];` → guard bound: lives
    // to the end of the enclosing block (or an explicit `drop(g)`).
    if first.is_ident("let") && lock_chain_is_binding(tokens, i) {
        let guard_name = tokens
            .iter()
            .skip(s + 1)
            .take(6)
            .find(|t| {
                t.kind == TokKind::Ident
                    && !t.is_ident("mut")
                    && !t.is_ident("Ok")
                    && !t.is_ident("Some")
                    && !t.is_ident("Err")
            })
            .map(|t| t.text.clone());
        let mut end = encl_end.get(i).copied().unwrap_or(tokens.len());
        if end == usize::MAX {
            end = tokens.len();
        }
        if let Some(g) = guard_name {
            let mut j = i;
            while j + 2 < end.min(tokens.len()) {
                if tokens[j].is_ident("drop")
                    && tokens[j + 1].is_punct("(")
                    && tokens[j + 2].is_ident(&g)
                {
                    end = j;
                    break;
                }
                j += 1;
            }
        }
        return (i, end);
    }
    // Expression temporary: the guard dies at the statement's `;`.
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(i) {
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if t.is_punct("}") {
            if depth == 0 {
                return (i, j);
            }
            depth -= 1;
        } else if t.is_punct(";") && depth <= 0 {
            return (i, j);
        }
    }
    (i, tokens.len())
}

/// Whether the chain after the lock call at `i` ends the statement via at
/// most guard-preserving adapters (`.unwrap()`, `.expect(…)`, …) — i.e.
/// the `let` binds the guard itself, not a value extracted from it.
fn lock_chain_is_binding(tokens: &[Tok], i: usize) -> bool {
    // tokens[i] = lock/read/write, tokens[i+1] = `(`, tokens[i+2] = `)`.
    let mut j = i + 3;
    const ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "ok", "map_err"];
    loop {
        match tokens.get(j) {
            Some(t) if t.is_punct(";") => return true,
            Some(t) if t.is_punct(".") => {
                let Some(m) = tokens.get(j + 1) else {
                    return false;
                };
                if !ADAPTERS.contains(&m.text.as_str()) {
                    return false;
                }
                let Some(open) = tokens.get(j + 2).filter(|t| t.is_punct("(")) else {
                    return false;
                };
                let _ = open;
                match match_punct(tokens, j + 2, "(", ")") {
                    Some(close) => j = close + 1,
                    None => return false,
                }
            }
            _ => return false,
        }
    }
}

/// First `{` after `i` at paren/bracket depth 0 — the conditional's block.
fn next_block_open(tokens: &[Tok], i: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(i) {
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if t.is_punct("{") && depth <= 0 {
            return Some(j);
        } else if t.is_punct(";") && depth <= 0 {
            return None;
        }
    }
    None
}

/// Parses the closure literal argument of the worker-pool call at `i`.
fn parse_worker_closure(tokens: &[Tok], i: usize) -> Option<WorkerClosure> {
    let open = i + 1; // `(`
    let close = match_punct(tokens, open, "(", ")")?;
    // Find the closure's opening `|` (or `||`) at paren depth 1, skipping
    // an optional leading `move`.
    let mut depth = 0i32;
    let mut j = open;
    let (bar, params) = loop {
        if j > close {
            return None;
        }
        let t = &tokens[j];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 1 && t.is_punct("||") {
            break (j, BTreeSet::new());
        } else if depth == 1 && t.is_punct("|") {
            // Collect parameter names up to the closing `|`.
            let mut params = BTreeSet::new();
            let mut k = j + 1;
            let mut expecting_name = true;
            while k < close && !tokens[k].is_punct("|") {
                let t = &tokens[k];
                if t.is_punct(",") {
                    expecting_name = true;
                } else if t.is_punct(":") {
                    expecting_name = false; // type follows
                } else if expecting_name && t.kind == TokKind::Ident && !t.is_ident("mut") {
                    params.insert(t.text.clone());
                    expecting_name = false;
                }
                k += 1;
            }
            break (k, params);
        }
        j += 1;
    };
    // Closure body: a block, or an expression running to the call's `)`.
    let mut k = bar + 1;
    while k < close && !tokens[k].is_punct("{") && !tokens[k].is_punct(",") {
        k += 1;
    }
    let body = if tokens.get(k).is_some_and(|t| t.is_punct("{")) {
        let body_close = match_punct(tokens, k, "{", "}").unwrap_or(close);
        (k + 1, body_close)
    } else {
        (bar + 1, close)
    };
    Some(WorkerClosure {
        host: tokens[i].text.clone(),
        line: tokens[bar].line,
        body,
        params,
    })
}

/// Identifiers bound by `let`/`for` inside the token range — closure
/// locals that are not captures.
pub fn local_bindings(tokens: &[Tok], range: (usize, usize)) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut i = range.0;
    while i < range.1.min(tokens.len()) {
        let t = &tokens[i];
        if t.is_ident("let") || t.is_ident("for") {
            let stop = if t.is_ident("let") { "=" } else { "in" };
            let mut j = i + 1;
            while j < range.1 {
                let b = &tokens[j];
                if b.is_punct(stop) || b.is_ident(stop) || b.is_punct(";") || b.is_punct("{") {
                    break;
                }
                if b.kind == TokKind::Ident
                    && !b.is_ident("mut")
                    && !b.is_ident("Ok")
                    && !b.is_ident("Some")
                    && !b.is_ident("Err")
                    && !b.is_ident("ref")
                {
                    out.insert(b.text.clone());
                }
                j += 1;
            }
        }
        i += 1;
    }
    out
}

/// Mutation-through-capture sites inside a worker closure: `root.trigger(…)`
/// where `root` is neither a closure parameter nor a closure-local binding.
/// Returns `(line, root, trigger)` triples.
pub fn capture_escapes(tokens: &[Tok], closure: &WorkerClosure) -> Vec<(u32, String, String)> {
    let locals = local_bindings(tokens, closure.body);
    let mut out = Vec::new();
    for i in closure.body.0..closure.body.1.min(tokens.len()) {
        let t = &tokens[i];
        let is_trigger = t.kind == TokKind::Ident
            && (CAPTURE_TRIGGERS.contains(&t.text.as_str()) || t.text.starts_with("fetch_"))
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
            && i > 0
            && tokens[i - 1].is_punct(".");
        if !is_trigger {
            continue;
        }
        // Root of the receiver chain: first ident walking left over
        // `ident . ident . trigger(`.
        let mut j = i - 1; // the `.`
        let mut root: Option<&Tok> = None;
        while j > 0 {
            let p = &tokens[j - 1];
            if p.kind == TokKind::Ident {
                root = Some(p);
                j -= 1;
            } else if p.is_punct(".") {
                j -= 1;
            } else {
                break;
            }
        }
        let Some(root) = root else { continue };
        if closure.params.contains(&root.text) || locals.contains(&root.text) {
            continue;
        }
        out.push((t.line, root.text.clone(), t.text.clone()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        build(&[("crates/sim/src/x.rs".to_string(), src.to_string())])
    }

    #[test]
    fn fn_and_owner_parsed() {
        let w = ws(
            "impl Server { pub fn tick(&mut self) -> u64 { self.step(); 0 } }\n\
                    fn free() { helper(1); }\n",
        );
        assert_eq!(w.fns.len(), 2);
        assert_eq!(w.fns[0].owner.as_deref(), Some("Server"));
        assert_eq!(w.fns[0].name, "tick");
        assert_eq!(w.fns[0].calls.len(), 1);
        assert_eq!(w.fns[0].calls[0].name, "step");
        assert_eq!(
            w.fns[0].calls[0].owner_hint.as_deref(),
            Some("Server"),
            "self.step() resolves against the impl owner"
        );
        assert_eq!(w.fns[1].owner, None);
        assert_eq!(w.fns[1].calls[0].name, "helper");
    }

    #[test]
    fn trait_impl_owner_is_the_type() {
        let w = ws("impl TraceSink for FlightRecorder { fn record(&mut self) {} }\n");
        assert_eq!(w.fns[0].owner.as_deref(), Some("FlightRecorder"));
    }

    #[test]
    fn return_position_impl_is_not_an_item() {
        let w =
            ws("fn f() -> impl Iterator<Item = u8> { let g = m.lock().unwrap(); v.into_iter() }\n");
        assert_eq!(w.fns.len(), 1);
        assert_eq!(w.fns[0].name, "f");
        assert_eq!(w.fns[0].locks.len(), 1);
    }

    #[test]
    fn lock_guard_extents() {
        // Binding: lives to end of block. Temporary: dies at `;`.
        let w =
            ws("fn f() { let g = a.lock().unwrap(); use_it(&g); b.lock().unwrap().push(1); }\n");
        let f = &w.fns[0];
        assert_eq!(f.locks.len(), 2);
        let (a, b) = (&f.locks[0], &f.locks[1]);
        assert!(a.guard.1 > b.tok, "binding guard spans the later lock");
        assert!(
            b.guard.1 < f.body.1,
            "temporary guard ends at its statement"
        );
    }

    #[test]
    fn drop_ends_binding_guard() {
        let w = ws("fn f() { let g = a.lock().unwrap(); drop(g); b.lock().unwrap().push(1); }\n");
        let f = &w.fns[0];
        assert!(
            f.locks[0].guard.1 < f.locks[1].tok,
            "drop(g) ends the extent"
        );
    }

    #[test]
    fn if_let_guard_spans_conditional_block() {
        let w = ws("fn f() { if let Ok(mut g) = a.lock() { g.push(other.lock().unwrap()); } b.lock().unwrap(); }\n");
        let f = &w.fns[0];
        assert_eq!(f.locks.len(), 3);
        let a = &f.locks[0];
        assert!(a.guard.0 < f.locks[1].tok && f.locks[1].tok < a.guard.1);
        assert!(f.locks[2].tok > a.guard.1, "later lock outside the if-let");
    }

    #[test]
    fn rwlock_read_write_detected_io_read_not() {
        let w = ws("struct S { current: RwLock<u32> }\n\
                    fn f(s: &S, stream: &mut TcpStream) { let v = s.current.read(); stream.read(&mut buf); }\n");
        let f = &w.fns[0];
        assert_eq!(f.locks.len(), 1, "{:?}", f.locks);
        assert_eq!(f.locks[0].op, LockOp::Read);
        assert_eq!(f.locks[0].key, "sim:current");
    }

    #[test]
    fn blocking_and_taint_detected() {
        let w = ws("fn f(rx: &Receiver<u8>, h: JoinHandle<()>) { rx.recv(); h.join(); thread::sleep(d); let t = Instant::now(); v.join(\", \"); }\n");
        let f = &w.fns[0];
        let whats: Vec<&str> = f.blocking.iter().map(|b| b.what.as_str()).collect();
        assert_eq!(whats, vec![".recv()", ".join()", "thread::sleep"]);
        assert_eq!(f.taints.len(), 1);
    }

    #[test]
    fn worker_closure_captures_vs_params() {
        let w = ws("fn f(items: &mut [u8], out: &Mutex<Vec<u8>>) {\n\
                    map_mut(items, 4, |h| { let x = h; out.lock().unwrap().push(*x); });\n}\n");
        let f = &w.fns[0];
        assert_eq!(f.closures.len(), 1);
        let esc = capture_escapes(&w.files[0].lexed.tokens, &f.closures[0]);
        assert_eq!(esc.len(), 1);
        assert_eq!(esc[0].1, "out");
        assert_eq!(esc[0].2, "lock");
    }

    #[test]
    fn closure_param_mutation_is_not_escape() {
        let w = ws("fn f(items: &mut [H]) { map_mut(items, 4, |h| h.server.tick()); }\n");
        let f = &w.fns[0];
        assert_eq!(f.closures.len(), 1);
        let esc = capture_escapes(&w.files[0].lexed.tokens, &f.closures[0]);
        assert!(esc.is_empty(), "{esc:?}");
    }

    #[test]
    fn sinks_detected() {
        let w = ws("fn f(tr: &Tracer) { tr.emit(ev); }\nfn g() -> SessionReport { todo() }\nfn h() { other(); }\n");
        assert!(w.fns[0].sink.is_some());
        assert!(w.fns[1].sink.is_some());
        assert!(w.fns[2].sink.is_none());
    }

    #[test]
    fn test_code_marked() {
        let w =
            ws("#[cfg(test)]\nmod tests { fn helper() { a.lock().unwrap(); } }\nfn live() {}\n");
        assert!(w.fns[0].is_test);
        assert!(!w.fns[1].is_test);
    }
}
