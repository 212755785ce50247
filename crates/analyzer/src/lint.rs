//! Determinism and speculation-safety lint rules.
//!
//! STATS's central contract is that *all* nondeterminism flows through the
//! per-role random streams ([`stats_core::rng::StreamRole`]): that is what
//! makes the simulated and threaded runtimes take identical commit/abort
//! decisions, and what makes every figure reproducible from a master seed.
//! These rules flag the ways that contract gets broken in practice:
//!
//! | rule  | finds |
//! |-------|-------|
//! | ND001 | ambient randomness (`thread_rng`, `from_entropy`, `OsRng`) |
//! | ND002 | wall-clock reads (`Instant::now`, `SystemTime::now`) |
//! | ND003 | unordered iteration sources (`HashMap`, `HashSet`) |
//! | ND004 | hidden mutable state (`static mut`, `thread_local!`, cells) |
//! | ND005 | RNG streams built inside `update`/`states_match` bodies |
//! | ND006 | `println!`/`eprintln!` in runtime hot paths (use telemetry) |
//! | ND007 | raw `std::thread` spawns in runtime hot paths (use the pool) |
//! | ND008 | ambient state read inside a searcher's `ask`/`tell` body |
//! | ND009 | transitive: a source reaching a protocol sink through calls |
//! | ND010 | pool task closure capturing `&mut` enclosing-scope state |
//! | ND011 | unwaived dynamic dispatch on a sink-reachable path |
//! | ND012 | direct wall-clock read in a runtime hot path (use the telemetry clock) |
//! | ND013 | direct clone of workload state in a runtime hot path (use the snapshot API) |
//! | ND014 | blocking channel receive inside a pool task closure (deadlock risk) |
//! | ND015 | panic-capture machinery in a hot path outside the fault plane |
//!
//! ND001–ND008 and ND012–ND015 are single-file token-pattern checks. ND009–ND011
//! run on the workspace call graph (see [`crate::taint`]) and are only
//! produced by [`lint_workspace`]; the per-file entry points skip them.
//!
//! A finding is suppressed by a comment on the same or the preceding
//! line: `// stats-analyzer: allow(ND002): reason`.
//!
//! Most rules apply everywhere; a rule may instead scope itself to a
//! path predicate ([`Rule::applies_to`]). ND006 only fires inside the
//! runtime hot paths (`…/runtime/…`, `speculation.rs`), where stdout
//! writes serialize threads behind the stdout lock and skew the very
//! timings the telemetry layer exists to measure. ND007 fires in the
//! same hot paths except `pool.rs` itself: with the pooled executor in
//! place, per-task `std::thread` creation off the pool reintroduces the
//! spawn cost the pool exists to amortize. ND013 shares ND007's scope:
//! inside the executor, every state duplication must route through the
//! sanctioned snapshot API (`StatePool::copy_of`,
//! `StateDependence::snapshot_state`) so that the COW strategy, spare
//! recycling, and the `StateBytesCopied` accounting all see it — and
//! `pool.rs` is exempt precisely because it *implements* that API.
//! ND008 fires only in autotuner
//! searcher files: the batched ask/tell contract promises a search
//! trajectory that depends on `(seed, budget, batch)` alone, so an
//! `ask`/`tell` body reading the clock, its thread identity, or the pool
//! width would silently re-couple tuning results to worker count.
//! ND014 fires in the same hot paths as ND006: pool jobs must compute,
//! send, and exit — a job parked on `recv()` holds a worker hostage,
//! and with fewer workers than chunks can deadlock the whole run (the
//! pool-module contract "Non-blocking jobs"). All waiting belongs on
//! the coordinator thread, which is not a pool worker.
//! ND015 fires in the hot paths except `pool.rs` and `fault.rs` — the
//! two modules that *are* the fault plane. Anywhere else,
//! `catch_unwind`/`resume_unwind`/`std::panic::…` swallows a worker
//! panic before the pool's scope-poisoning and the fault counters can
//! see it, so a failure recovers silently without the deterministic
//! retry accounting the chaos harness reconciles (`panic!` itself — the
//! macro — stays legal everywhere: raising is fine, *capturing* is the
//! fault plane's job).

use crate::callgraph::{collect_rs_files, GraphStats, Workspace};
use crate::diag::{display_path, Diagnostic};
use crate::lex::{lex, LexedFile, Tok, TokKind};
use std::path::{Path, PathBuf};

/// A rule match before it is joined with file context.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Underline length in characters.
    pub len: usize,
    /// Specific message for this match.
    pub message: String,
}

impl RawFinding {
    fn at(tok: &Tok, len: usize, message: String) -> Self {
        RawFinding {
            line: tok.line,
            col: tok.col,
            len,
            message,
        }
    }
}

/// How a rule is evaluated.
#[derive(Clone, Copy)]
pub enum RuleCheck {
    /// A token-pattern check over one lexed file.
    File(fn(&LexedFile) -> Vec<RawFinding>),
    /// Produced by the interprocedural pass ([`crate::taint`]); per-file
    /// entry points skip these.
    Workspace,
}

/// One lint rule: identity, documentation, and a checker.
pub struct Rule {
    /// Stable identifier (`ND001`…).
    pub id: &'static str,
    /// What the rule protects.
    pub summary: &'static str,
    /// Suggested fix, rendered as the diagnostic's `help:` line.
    pub hint: &'static str,
    /// Path predicate: the rule only runs on files whose (display) path
    /// satisfies it. Most rules use [`any_path`].
    pub applies_to: fn(&str) -> bool,
    /// How to evaluate the rule.
    pub check: RuleCheck,
}

/// The default [`Rule::applies_to`]: every file.
pub fn any_path(_path: &str) -> bool {
    true
}

/// Runtime hot paths: the worker/coordinator loops and the speculation
/// protocol itself, where a stray stdout write serializes every thread
/// behind the stdout lock.
pub fn hot_path(path: &str) -> bool {
    path.contains("/runtime/") || path.ends_with("speculation.rs")
}

/// [`hot_path`] minus the worker pool itself — the one module allowed to
/// create OS threads, so every other hot-path file must go through it.
pub fn hot_path_outside_pool(path: &str) -> bool {
    hot_path(path) && !path.ends_with("pool.rs")
}

/// [`hot_path`] minus the fault plane (`pool.rs`, `fault.rs`) — the only
/// modules allowed to capture panics; everywhere else a worker failure
/// must propagate into the pool's recovery machinery.
pub fn hot_path_outside_fault_plane(path: &str) -> bool {
    hot_path(path) && !path.ends_with("pool.rs") && !path.ends_with("fault.rs")
}

/// Searcher implementation files: the autotuner crate plus any file
/// named after the searcher module (covers out-of-crate `Searcher`
/// implementations that follow the naming convention).
pub fn searcher_path(path: &str) -> bool {
    path.contains("autotuner") || path.ends_with("searcher.rs")
}

/// The registry of all rules, in id order: the single source of truth
/// shared by `stats-analyzer rules`, the per-file lint pass, and the
/// interprocedural taint pass.
pub static RULES: &[Rule] = &[
    Rule {
        id: "ND001",
        summary: "ambient randomness outside the per-role STATS streams",
        hint: "draw from the StatsRng passed to the update; ambient entropy makes \
               commit/abort decisions schedule-dependent",
        applies_to: any_path,
        check: RuleCheck::File(check_ambient_randomness),
    },
    Rule {
        id: "ND002",
        summary: "wall-clock time read",
        hint: "derive timing from the simulated clock (stats-platform cycles); \
               wall-clock reads differ across runs and runtimes",
        applies_to: any_path,
        check: RuleCheck::File(check_wall_clock),
    },
    Rule {
        id: "ND003",
        summary: "unordered iteration source",
        hint: "use BTreeMap/BTreeSet (or sort before iterating); HashMap/HashSet \
               iteration order varies per process and can leak into decisions, \
               float accumulation order, and reports",
        applies_to: any_path,
        check: RuleCheck::File(check_unordered_iteration),
    },
    Rule {
        id: "ND004",
        summary: "hidden mutable state bypassing the State snapshot",
        hint: "move the data into the workload's State type; state outside it is \
               invisible to snapshot/restore and survives aborts",
        applies_to: any_path,
        check: RuleCheck::File(check_hidden_state),
    },
    Rule {
        id: "ND005",
        summary: "RNG stream constructed inside update/states_match",
        hint: "use the StatsRng argument; a locally seeded stream repeats draws \
               across replicas and breaks decision schedule-independence",
        applies_to: any_path,
        check: RuleCheck::File(check_stream_bypass),
    },
    Rule {
        id: "ND006",
        summary: "stdout/stderr print in a runtime hot path",
        hint: "emit a stats-telemetry Event::Diagnostic (or a counter) instead; \
               println!/eprintln! serialize workers behind the stdout lock and \
               distort the timings telemetry reports",
        applies_to: hot_path,
        check: RuleCheck::File(check_hot_path_print),
    },
    Rule {
        id: "ND007",
        summary: "raw std::thread spawn in a runtime hot path",
        hint: "schedule the work on the WorkerPool (scope.spawn / spawn_urgent); \
               per-task OS threads reintroduce the creation cost and \
               oversubscription the pool exists to eliminate",
        applies_to: hot_path_outside_pool,
        check: RuleCheck::File(check_raw_thread_spawn),
    },
    Rule {
        id: "ND008",
        summary: "ambient state read inside a searcher ask/tell body",
        hint: "derive every ask/tell decision from the searcher's seeded state and \
               the told costs; clocks, thread identity, and pool width make the \
               search trajectory depend on worker count and completion order",
        applies_to: searcher_path,
        check: RuleCheck::File(check_ambient_searcher),
    },
    Rule {
        id: "ND009",
        summary: "transitive ambient nondeterminism reaching a protocol sink",
        hint: "route the value through the seeded per-role streams (or the simulated \
               clock) before it can influence the sink, or waive the source line \
               with a reason explaining why it cannot affect commit/abort decisions",
        applies_to: any_path,
        check: RuleCheck::Workspace,
    },
    Rule {
        id: "ND010",
        summary: "pool task closure capturing &mut state outside the scoped-borrow API",
        hint: "make the task a `move` closure (own the data) or hand out disjoint \
               &mut borrows through the PoolScope API; a shared &mut capture lets \
               task execution race commit order",
        applies_to: hot_path,
        check: RuleCheck::Workspace,
    },
    Rule {
        id: "ND011",
        summary: "dynamic dispatch on a sink-reachable path evades taint tracking",
        hint: "the callee is a runtime value, so taint cannot be traced through it; \
               replace it with a direct call, or audit the callable and waive the \
               call site with a reason asserting it is deterministic",
        applies_to: any_path,
        check: RuleCheck::Workspace,
    },
    Rule {
        id: "ND012",
        summary: "direct wall-clock read in a runtime hot path",
        hint: "stamp through stats_telemetry::clock::monotonic_ns(), the single \
               sanctioned wall-clock read: it keeps timestamps observation-only \
               (one waived site to audit instead of many), and shares one epoch \
               so per-worker spans are comparable",
        applies_to: hot_path,
        check: RuleCheck::File(check_hot_path_wall_clock),
    },
    Rule {
        id: "ND013",
        summary: "direct clone of workload state in a runtime hot path",
        hint: "copy state through the sanctioned snapshot API (StatePool::copy_of, \
               StateDependence::snapshot_state): a bare .clone() always pays the \
               full deep copy, bypassing COW structural sharing, spare recycling, \
               and the StateBytesLogical/StateBytesCopied accounting that prices \
               copies in the cost model",
        applies_to: hot_path_outside_pool,
        check: RuleCheck::File(check_hot_path_state_clone),
    },
    Rule {
        id: "ND014",
        summary: "blocking channel receive inside a pool task closure",
        hint: "restructure the task to compute, send its result, and exit; move the \
               wait onto the coordinator thread (which is not a pool worker) or \
               chain a follow-up task instead — a job parked on recv() holds a \
               worker hostage and can deadlock runs with fewer workers than chunks",
        applies_to: hot_path,
        check: RuleCheck::File(check_pool_task_blocking_recv),
    },
    Rule {
        id: "ND015",
        summary: "panic-capture machinery in a hot path outside the fault plane",
        hint: "let the panic propagate: the pool's scope poisoning and the fault \
               plane's recovery guards (fault.rs, pool.rs) are the only sanctioned \
               panic handlers — an ad-hoc catch_unwind recovers a worker failure \
               without the FaultsInjected/RetriesScheduled accounting, so the \
               threaded and simulated runtimes stop reconciling",
        applies_to: hot_path_outside_fault_plane,
        check: RuleCheck::File(check_hot_path_panic_capture),
    },
];

/// The registry of all rules, in id order.
pub fn registry() -> &'static [Rule] {
    RULES
}

/// Look up a rule by id.
///
/// # Panics
///
/// Panics on an unknown id — rule ids are compile-time constants, so a
/// miss is a bug in the analyzer itself.
pub fn rule_by_id(id: &str) -> &'static Rule {
    RULES
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("unknown rule id {id}"))
}

fn check_ambient_randomness(file: &LexedFile) -> Vec<RawFinding> {
    const BAD: &[&str] = &["thread_rng", "from_entropy", "OsRng", "getrandom"];
    file.tokens
        .iter()
        .filter(|t| t.kind == TokKind::Ident && BAD.contains(&t.text.as_str()))
        .map(|t| {
            RawFinding::at(
                t,
                t.text.chars().count(),
                format!("`{}` draws entropy outside the seeded streams", t.text),
            )
        })
        .collect()
}

/// `Instant::now` / `SystemTime::now` call sites (shared by ND002 and
/// its hot-path-scoped sibling ND012, which differ only in scope and
/// remedy).
fn wall_clock_reads(file: &LexedFile, message: fn(&str) -> String) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
            let path_now = toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
                && toks.get(i + 3).is_some_and(|a| a.is_ident("now"));
            if path_now {
                out.push(RawFinding::at(
                    t,
                    t.text.chars().count() + "::now".len(),
                    message(&t.text),
                ));
            }
        }
    }
    out
}

fn check_wall_clock(file: &LexedFile) -> Vec<RawFinding> {
    wall_clock_reads(file, |clock| format!("`{clock}::now` reads the wall clock"))
}

fn check_hot_path_wall_clock(file: &LexedFile) -> Vec<RawFinding> {
    wall_clock_reads(file, |clock| {
        format!("`{clock}::now` in a runtime hot path bypasses the telemetry clock")
    })
}

fn check_unordered_iteration(file: &LexedFile) -> Vec<RawFinding> {
    file.tokens
        .iter()
        .filter(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
        .map(|t| {
            RawFinding::at(
                t,
                t.text.chars().count(),
                format!("`{}` iterates in a per-process pseudo-random order", t.text),
            )
        })
        .collect()
}

fn check_hidden_state(file: &LexedFile) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("static") && toks.get(i + 1).is_some_and(|a| a.is_ident("mut")) {
            out.push(RawFinding::at(
                t,
                "static mut".len(),
                "`static mut` is process-global mutable state".to_string(),
            ));
        }
        if t.is_ident("thread_local") && toks.get(i + 1).is_some_and(|a| a.is_punct('!')) {
            out.push(RawFinding::at(
                t,
                "thread_local!".len(),
                "`thread_local!` state differs between the simulated and threaded runtimes"
                    .to_string(),
            ));
        }
        if (t.is_ident("Cell") || t.is_ident("RefCell") || t.is_ident("UnsafeCell"))
            && toks.get(i + 1).is_some_and(|a| a.is_punct('<'))
        {
            out.push(RawFinding::at(
                t,
                t.text.chars().count(),
                format!("`{}` allows mutation invisible to state snapshots", t.text),
            ));
        }
    }
    out
}

/// The protocol entry points whose bodies must draw only from the passed
/// stream.
const PROTOCOL_FNS: &[&str] = &["update", "states_match"];

fn check_stream_bypass(file: &LexedFile) -> Vec<RawFinding> {
    const BAD_CALLS: &[&str] = &["from_seed_value", "seed_from_u64", "from_seed"];
    const BAD_TYPES: &[&str] = &["StdRng", "SmallRng"];
    let mut out = Vec::new();
    let toks = &file.tokens;
    // Track (fn-name, depth-at-entry); the body runs while depth > entry.
    let mut depth = 0usize;
    let mut stack: Vec<(String, usize)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Ident if t.text == "fn" => {
                if let Some(name) = toks.get(i + 1) {
                    if name.kind == TokKind::Ident {
                        pending_fn = Some(name.text.clone());
                    }
                }
            }
            TokKind::Punct if t.text == "{" => {
                if let Some(name) = pending_fn.take() {
                    stack.push((name, depth));
                }
                depth += 1;
            }
            TokKind::Punct if t.text == ";" => {
                // `fn f(...);` in a trait: declaration only, no body.
                pending_fn = None;
            }
            TokKind::Punct if t.text == "}" => {
                depth = depth.saturating_sub(1);
                if stack.last().is_some_and(|(_, d)| *d == depth) {
                    stack.pop();
                }
            }
            _ => {}
        }
        let in_protocol_fn = stack
            .iter()
            .any(|(name, _)| PROTOCOL_FNS.contains(&name.as_str()));
        if !in_protocol_fn || t.kind != TokKind::Ident {
            continue;
        }
        if BAD_CALLS.contains(&t.text.as_str()) {
            out.push(RawFinding::at(
                t,
                t.text.chars().count(),
                format!(
                    "`{}` seeds a fresh stream inside a protocol function",
                    t.text
                ),
            ));
        }
        if BAD_TYPES.contains(&t.text.as_str()) {
            out.push(RawFinding::at(
                t,
                t.text.chars().count(),
                format!("`{}` constructed inside a protocol function", t.text),
            ));
        }
        // `StatsRng::derive` inside update re-derives a role stream from
        // the master seed instead of consuming the caller's stream.
        if t.text == "derive"
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("StatsRng")
        {
            out.push(RawFinding {
                line: toks[i - 3].line,
                col: toks[i - 3].col,
                len: "StatsRng::derive".len(),
                message: "`StatsRng::derive` inside a protocol function re-derives a \
                          role stream instead of using the caller's"
                    .to_string(),
            });
        }
    }
    out
}

fn check_hot_path_print(file: &LexedFile) -> Vec<RawFinding> {
    const BAD: &[&str] = &["println", "eprintln", "print", "eprint"];
    let toks = &file.tokens;
    toks.iter()
        .enumerate()
        .filter(|(i, t)| {
            t.kind == TokKind::Ident
                && BAD.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|a| a.is_punct('!'))
        })
        .map(|(_, t)| {
            RawFinding::at(
                t,
                t.text.chars().count() + 1,
                format!("`{}!` writes to stdio from a runtime hot path", t.text),
            )
        })
        .collect()
}

fn check_raw_thread_spawn(file: &LexedFile) -> Vec<RawFinding> {
    const BAD: &[&str] = &["spawn", "scope", "Builder"];
    let toks = &file.tokens;
    toks.iter()
        .enumerate()
        .filter(|(i, t)| {
            // `thread::spawn`, `thread::scope`, `thread::Builder` — the
            // `thread ::` prefix keeps pool-scope method calls
            // (`scope.spawn(..)`) and `thread::available_parallelism`
            // out of scope.
            t.kind == TokKind::Ident
                && t.text == "thread"
                && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
                && toks
                    .get(i + 3)
                    .is_some_and(|a| a.kind == TokKind::Ident && BAD.contains(&a.text.as_str()))
        })
        .map(|(i, t)| {
            let target = &toks[i + 3].text;
            RawFinding::at(
                t,
                "thread::".chars().count() + target.chars().count(),
                format!("`thread::{target}` creates OS threads off the worker pool"),
            )
        })
        .collect()
}

/// The batched searcher protocol functions whose bodies must be pure in
/// `(seeded state, told costs)` — see `stats-autotuner`'s `Searcher`.
const SEARCHER_FNS: &[&str] = &["ask", "tell"];

fn check_ambient_searcher(file: &LexedFile) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    let mut depth = 0usize;
    let mut stack: Vec<(String, usize)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Ident if t.text == "fn" => {
                if let Some(name) = toks.get(i + 1) {
                    if name.kind == TokKind::Ident {
                        pending_fn = Some(name.text.clone());
                    }
                }
            }
            TokKind::Punct if t.text == "{" => {
                if let Some(name) = pending_fn.take() {
                    stack.push((name, depth));
                }
                depth += 1;
            }
            TokKind::Punct if t.text == ";" => {
                pending_fn = None;
            }
            TokKind::Punct if t.text == "}" => {
                depth = depth.saturating_sub(1);
                if stack.last().is_some_and(|(_, d)| *d == depth) {
                    stack.pop();
                }
            }
            _ => {}
        }
        let in_searcher_fn = stack
            .iter()
            .any(|(name, _)| SEARCHER_FNS.contains(&name.as_str()));
        if !in_searcher_fn || t.kind != TokKind::Ident {
            continue;
        }
        let path_seg = |j: usize, name: &str| {
            toks.get(j).is_some_and(|a| a.is_punct(':'))
                && toks.get(j + 1).is_some_and(|a| a.is_punct(':'))
                && toks.get(j + 2).is_some_and(|a| a.is_ident(name))
        };
        // Clock reads: completion timing must not steer proposals.
        if (t.text == "Instant" || t.text == "SystemTime") && path_seg(i + 1, "now") {
            out.push(RawFinding::at(
                t,
                t.text.chars().count() + "::now".len(),
                format!("`{}::now` read inside a searcher ask/tell body", t.text),
            ));
        }
        // Thread identity: which worker evaluated a batch is not a
        // search signal.
        if t.text == "thread" && path_seg(i + 1, "current") {
            out.push(RawFinding::at(
                t,
                "thread::current".len(),
                "`thread::current` reads thread identity inside a searcher ask/tell body"
                    .to_string(),
            ));
        }
        if t.text == "ThreadId" {
            out.push(RawFinding::at(
                t,
                t.text.chars().count(),
                "`ThreadId` used inside a searcher ask/tell body".to_string(),
            ));
        }
        // Pool/host width: proposals sized or shaped by worker count
        // re-couple the trajectory to the machine.
        if t.text == "available_parallelism" {
            out.push(RawFinding::at(
                t,
                t.text.chars().count(),
                "`available_parallelism` reads host width inside a searcher ask/tell body"
                    .to_string(),
            ));
        }
        if t.text == "workers"
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|a| a.is_punct('('))
        {
            out.push(RawFinding::at(
                t,
                t.text.chars().count() + 2,
                "`.workers()` reads pool width inside a searcher ask/tell body".to_string(),
            ));
        }
    }
    out
}

fn check_pool_task_blocking_recv(file: &LexedFile) -> Vec<RawFinding> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let mut paren_depth = 0usize;
    // Paren depths at which a `spawn(...)` / `spawn_urgent(...)` argument
    // list opened: while the stack is non-empty we are lexically inside a
    // task closure handed to the pool. A closure handed to a dedicated OS
    // thread matches the same shape; ND007 already flags that spawn in a
    // hot path, and a wait on such a thread needs a waiver saying so.
    let mut spawn_regions: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct if t.text == "(" => {
                paren_depth += 1;
            }
            TokKind::Punct if t.text == ")" => {
                paren_depth = paren_depth.saturating_sub(1);
                if spawn_regions.last().is_some_and(|d| *d == paren_depth) {
                    spawn_regions.pop();
                }
            }
            TokKind::Ident
                if (t.text == "spawn" || t.text == "spawn_urgent")
                    && toks.get(i + 1).is_some_and(|a| a.is_punct('(')) =>
            {
                // The `(` itself is handled next iteration; the region
                // lives while paren_depth exceeds this entry value.
                spawn_regions.push(paren_depth);
            }
            _ => {}
        }
        if spawn_regions.is_empty() || t.kind != TokKind::Ident {
            continue;
        }
        // Method-call form only: `rx.recv()` / `rx.recv_timeout(..)`.
        if (t.text == "recv" || t.text == "recv_timeout")
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|a| a.is_punct('('))
        {
            out.push(RawFinding::at(
                t,
                t.text.chars().count() + 2,
                format!("`.{}()` blocks a pool worker inside a task closure", t.text),
            ));
        }
    }
    out
}

/// Receiver names that hold a workload's `State` value by the
/// executor's naming convention: the replica fan-out and commit loops
/// call them `state`, `baseline`, `snapshot`, or a `*_state` /
/// `*_snapshot` variant. A name check is deliberate — the lexer has no
/// types, and the runtime's own style guide fixes these names, so the
/// convention *is* the contract the rule enforces.
fn is_state_receiver(name: &str) -> bool {
    name == "state"
        || name == "baseline"
        || name == "snapshot"
        || name.ends_with("_state")
        || name.ends_with("_snapshot")
}

fn check_hot_path_state_clone(file: &LexedFile) -> Vec<RawFinding> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let is_clone = t.kind == TokKind::Ident && (t.text == "clone" || t.text == "clone_from");
        if !is_clone || !toks.get(i + 1).is_some_and(|a| a.is_punct('(')) {
            continue;
        }
        // Method-call form only: `recv.clone(..)` / `recv.clone_from(..)`.
        if i < 2 || !toks[i - 1].is_punct('.') {
            continue;
        }
        let recv = &toks[i - 2];
        if recv.kind != TokKind::Ident || !is_state_receiver(&recv.text) {
            continue;
        }
        out.push(RawFinding::at(
            recv,
            recv.text.chars().count() + 1 + t.text.chars().count(),
            format!(
                "`{}.{}(..)` duplicates workload state outside the snapshot API",
                recv.text, t.text
            ),
        ));
    }
    out
}

fn check_hot_path_panic_capture(file: &LexedFile) -> Vec<RawFinding> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        // The unwind-capture entry points themselves, however qualified
        // (`catch_unwind(..)`, `panic::catch_unwind`, `std::panic::…`).
        if t.text == "catch_unwind" || t.text == "resume_unwind" {
            out.push(RawFinding::at(
                t,
                t.text.chars().count(),
                format!(
                    "`{}` captures a worker panic outside the fault plane",
                    t.text
                ),
            ));
            continue;
        }
        // Any other use of the `std::panic` module (`panic::set_hook`,
        // `panic::AssertUnwindSafe`, …). The `::` requirement keeps the
        // `panic!` macro — raising, not capturing — out of scope, and
        // the ident check above already covered `panic::catch_unwind`
        // (skipped here so one capture yields one finding).
        if t.text == "panic"
            && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
            && !toks
                .get(i + 3)
                .is_some_and(|a| a.is_ident("catch_unwind") || a.is_ident("resume_unwind"))
        {
            let target = toks
                .get(i + 3)
                .filter(|a| a.kind == TokKind::Ident)
                .map_or_else(String::new, |a| a.text.clone());
            out.push(RawFinding::at(
                t,
                "panic::".len() + target.chars().count(),
                format!("`panic::{target}` panic machinery used outside the fault plane"),
            ));
        }
    }
    out
}

/// One finding with its waiver status. Waived findings are suppressed
/// from the default text output but stay visible to `--format json`, so
/// every `allow(…)` stays auditable.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rendered diagnostic (with call-chain notes when
    /// interprocedural).
    pub diag: Diagnostic,
    /// Whether an `allow(…)` directive covers this finding.
    pub waived: bool,
    /// The justification text attached to the directive. `Some("")`
    /// means a directive without a written reason — CI can reject that
    /// via `--require-waiver-reasons`.
    pub waiver_reason: Option<String>,
}

/// A full workspace lint report: every finding (waived included) plus
/// the call-graph statistics behind the interprocedural rules.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings in (file, line, col, rule) order.
    pub findings: Vec<Finding>,
    /// Call-graph resolution statistics.
    pub stats: GraphStats,
}

impl Report {
    /// Findings not covered by a waiver — the gating set.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Waived findings whose directive carries no written reason.
    pub fn unexplained_waivers(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.waived && f.waiver_reason.as_deref() == Some(""))
    }
}

/// Run the per-file rules over one lexed file, keeping waived findings
/// (marked) alongside live ones.
fn file_findings(name: &str, file: &LexedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for rule in RULES {
        let RuleCheck::File(check) = rule.check else {
            continue;
        };
        if !(rule.applies_to)(name) {
            continue;
        }
        for f in check(file) {
            let waiver = file.waiver_reason(rule.id, f.line).map(str::to_string);
            out.push(Finding {
                diag: Diagnostic {
                    rule: rule.id,
                    message: f.message,
                    file: name.to_string(),
                    line: f.line,
                    col: f.col,
                    len: f.len,
                    snippet: file.line(f.line).to_string(),
                    hint: rule.hint,
                    notes: Vec::new(),
                },
                waived: waiver.is_some(),
                waiver_reason: waiver,
            });
        }
    }
    out
}

/// Lint one file's source text with waiver status retained.
pub fn lint_source_findings(name: &str, source: &str) -> Vec<Finding> {
    let file = lex(source);
    let mut out = file_findings(name, &file);
    sort_findings(&mut out);
    out
}

/// Lint one file's source text. `name` is used in diagnostics and
/// matched against each rule's path predicate. Waived findings are
/// dropped (the historical contract of this entry point).
pub fn lint_source(name: &str, source: &str) -> Vec<Diagnostic> {
    lint_source_findings(name, source)
        .into_iter()
        .filter(|f| !f.waived)
        .map(|f| f.diag)
        .collect()
}

/// Lint one file from disk.
pub fn lint_file(path: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let source = std::fs::read_to_string(path)?;
    Ok(lint_source(&display_path(path), &source))
}

/// Recursively lint every `.rs` file under each root with the per-file
/// rules, in sorted path order. Directories named `target` or
/// `fixtures` are skipped.
pub fn lint_paths(roots: &[PathBuf]) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for root in roots {
        collect_rs_files(root, &mut files)?;
    }
    files.sort();
    files.dedup();
    let mut out = Vec::new();
    for f in &files {
        out.extend(lint_file(f)?);
    }
    Ok(out)
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.diag.file, a.diag.line, a.diag.col, a.diag.rule).cmp(&(
            &b.diag.file,
            b.diag.line,
            b.diag.col,
            b.diag.rule,
        ))
    });
}

/// Run every rule — per-file and interprocedural — over an already
/// parsed workspace.
pub fn lint_workspace_parsed(ws: &Workspace) -> Report {
    let mut findings = Vec::new();
    for file in &ws.files {
        findings.extend(file_findings(&file.path, &file.lexed));
    }
    let (taint_findings, stats) = crate::taint::run(ws);
    findings.extend(taint_findings);
    sort_findings(&mut findings);
    Report { findings, stats }
}

/// Run every rule over `(path, source)` pairs — the fixture-test entry
/// point.
pub fn lint_workspace_sources<P: AsRef<str>, S: AsRef<str>>(sources: &[(P, S)]) -> Report {
    lint_workspace_parsed(&Workspace::from_sources(sources))
}

/// Run every rule over all `.rs` files under `roots`: the full
/// workspace scan behind `stats-analyzer lint` and the CI self-scan.
pub fn lint_workspace(roots: &[PathBuf]) -> std::io::Result<Report> {
    Ok(lint_workspace_parsed(&Workspace::load(roots)?))
}

/// The production source trees linted by default: every workspace
/// crate, the analyzer included — its own sources must honor the same
/// contract they enforce. (Deliberately dirty lint-fixture trees are
/// excluded by the `fixtures` directory skip in the file walk.)
pub fn default_roots(repo_root: &Path) -> Vec<PathBuf> {
    let crates = repo_root.join("crates");
    let mut roots = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&crates) {
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                roots.push(p);
            }
        }
    }
    roots.sort();
    roots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(src: &str) -> Vec<&'static str> {
        lint_source("test.rs", src)
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn flags_thread_rng() {
        assert_eq!(rules_hit("let mut r = rand::thread_rng();"), ["ND001"]);
    }

    #[test]
    fn flags_wall_clock_paths_only() {
        assert_eq!(rules_hit("let t = Instant::now();"), ["ND002"]);
        assert_eq!(rules_hit("let t = SystemTime::now();"), ["ND002"]);
        // `Instant` alone (e.g. in a type) is not a read.
        assert_eq!(rules_hit("fn f(t: Instant) {}"), Vec::<&str>::new());
    }

    #[test]
    fn flags_unordered_collections() {
        assert_eq!(
            rules_hit("use std::collections::{HashMap, HashSet};"),
            ["ND003", "ND003"]
        );
    }

    #[test]
    fn flags_hidden_state() {
        assert_eq!(rules_hit("static mut COUNTER: u64 = 0;"), ["ND004"]);
        assert_eq!(rules_hit("thread_local! { static X: u8 = 0; }"), ["ND004"]);
        assert_eq!(rules_hit("struct S { c: RefCell<u64> }"), ["ND004"]);
        // A function named static_mut or the ident Cell without generics
        // is not flagged.
        assert_eq!(rules_hit("let c = Cell::new(1);"), Vec::<&str>::new());
    }

    #[test]
    fn stream_bypass_is_scoped_to_protocol_fns() {
        let in_update = "impl S { fn update(&self) { let r = StatsRng::from_seed_value(1); } }";
        assert_eq!(rules_hit(in_update), ["ND005"]);
        let in_match = "fn states_match(a: &S) -> bool { let r = X::seed_from_u64(2); true }";
        assert_eq!(rules_hit(in_match), ["ND005"]);
        // The same construction elsewhere is legitimate (input generation,
        // oracles, tests).
        let in_gen = "fn generate_inputs(&self) { let r = StatsRng::from_seed_value(1); }";
        assert_eq!(rules_hit(in_gen), Vec::<&str>::new());
    }

    #[test]
    fn stream_bypass_sees_nested_fns_end() {
        // A nested helper closes before the outer body ends; scoping must
        // not leak past the update body's closing brace.
        let src = "fn update() { helper(); }\nfn later() { let r = Q::from_seed(3); }";
        assert_eq!(rules_hit(src), Vec::<&str>::new());
    }

    #[test]
    fn derive_inside_update_is_flagged() {
        let src = "fn update() { let r = StatsRng::derive(seed, role); }";
        assert_eq!(rules_hit(src), ["ND005"]);
    }

    #[test]
    fn trait_declarations_do_not_open_bodies() {
        // `fn update(...);` in a trait has no body; a later free fn body
        // must not be attributed to it.
        let src = "trait T { fn update(&self); }\nfn elsewhere() { let r = X::from_seed(1); }";
        assert_eq!(rules_hit(src), Vec::<&str>::new());
    }

    #[test]
    fn allow_comment_suppresses() {
        let src = "// stats-analyzer: allow(ND002): measurement only\nlet t = Instant::now();";
        assert_eq!(rules_hit(src), Vec::<&str>::new());
        // The wrong rule id does not suppress.
        let wrong = "// stats-analyzer: allow(ND001)\nlet t = Instant::now();";
        assert_eq!(rules_hit(wrong), ["ND002"]);
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = "// thread_rng HashMap Instant::now\nlet s = \"static mut OsRng\";";
        assert_eq!(rules_hit(src), Vec::<&str>::new());
    }

    #[test]
    fn diagnostics_carry_position_and_snippet() {
        let d = &lint_source("x.rs", "let a = 1;\nlet t = Instant::now();")[0];
        assert_eq!(d.line, 2);
        assert_eq!(d.col, 9);
        assert_eq!(d.snippet, "let t = Instant::now();");
        assert_eq!(d.rule, "ND002");
        assert!(d.to_string().contains("--> x.rs:2:9"));
    }

    #[test]
    fn hot_path_prints_are_scoped_by_path() {
        let src = "fn worker() { println!(\"chunk done\"); }";
        let hot = lint_source("crates/core/src/runtime/threaded.rs", src);
        assert_eq!(hot.iter().map(|d| d.rule).collect::<Vec<_>>(), ["ND006"]);
        let spec = lint_source("crates/core/src/speculation.rs", src);
        assert_eq!(spec.iter().map(|d| d.rule).collect::<Vec<_>>(), ["ND006"]);
        // The same print outside the hot paths is fine (CLI, figures,
        // reports all print deliberately).
        assert_eq!(rules_hit(src), Vec::<&str>::new());
    }

    #[test]
    fn hot_path_print_needs_a_macro_bang() {
        // A function call named println (no `!`) is not the macro.
        let call = "fn f() { println(buf); }";
        assert!(lint_source("x/runtime/y.rs", call).is_empty());
        // All four stdio macros are covered.
        let each = "fn f() { print!(\"a\"); eprint!(\"b\"); }";
        assert_eq!(lint_source("x/runtime/y.rs", each).len(), 2);
        // And the waiver comment works like every other rule.
        let waived =
            "// stats-analyzer: allow(ND006): fatal-error path\nfn f() { eprintln!(\"x\"); }";
        assert!(lint_source("x/runtime/y.rs", waived).is_empty());
    }

    #[test]
    fn raw_thread_spawns_are_scoped_to_hot_paths_outside_the_pool() {
        let src = "fn go() { std::thread::spawn(|| work()); }";
        let hot = lint_source("crates/core/src/runtime/threaded.rs", src);
        assert_eq!(hot.iter().map(|d| d.rule).collect::<Vec<_>>(), ["ND007"]);
        // The pool module is the one place allowed to create OS threads.
        assert!(lint_source("crates/core/src/runtime/pool.rs", src).is_empty());
        // Outside the hot paths, spawning threads is unremarkable
        // (tests, benches, the CLI).
        assert_eq!(rules_hit(src), Vec::<&str>::new());
    }

    #[test]
    fn raw_thread_spawn_variants_and_waiver() {
        // scope and Builder are thread-creation entry points too.
        let each = "fn f() { thread::scope(|s| {}); thread::Builder::new(); }";
        assert_eq!(lint_source("x/runtime/y.rs", each).len(), 2);
        // Pool-scope method calls and capacity probes don't match: no
        // `thread::` prefix on the former, no BAD suffix on the latter.
        let fine = "fn f(s: &PoolScope) { s.spawn(|| {}); thread::available_parallelism(); }";
        assert!(lint_source("x/runtime/y.rs", fine).is_empty());
        // And the waiver comment works like every other rule.
        let waived = "// stats-analyzer: allow(ND007): thread-per-chunk baseline\n\
                      fn f() { std::thread::scope(|s| {}); }";
        assert!(lint_source("x/runtime/y.rs", waived).is_empty());
    }

    #[test]
    fn ambient_searcher_reads_are_scoped_to_ask_tell_in_searcher_paths() {
        let src = "fn ask(&mut self) { let w = pool.workers(); }";
        let hit = lint_source("crates/autotuner/src/searcher.rs", src);
        assert_eq!(hit.iter().map(|d| d.rule).collect::<Vec<_>>(), ["ND008"]);
        // Same read outside ask/tell (constructors size caches freely).
        let ctor = "fn new(pool: &WorkerPool) -> Self { let w = pool.workers(); todo!() }";
        assert!(lint_source("crates/autotuner/src/searcher.rs", ctor).is_empty());
        // Same read outside the searcher paths (the tuner stamps pool
        // width into telemetry deliberately).
        assert_eq!(rules_hit(src), Vec::<&str>::new());
    }

    #[test]
    fn ambient_searcher_covers_clock_thread_and_width_probes() {
        let clock = "fn tell(&mut self) { let t = Instant::now(); }";
        let hit = lint_source("crates/autotuner/src/x.rs", clock);
        // ND002 (global wall-clock rule) and ND008 both apply here.
        assert_eq!(
            hit.iter().map(|d| d.rule).collect::<Vec<_>>(),
            ["ND002", "ND008"]
        );
        let identity = "fn ask(&mut self) { let id = thread::current().id(); }";
        let hit = lint_source("crates/autotuner/src/x.rs", identity);
        assert_eq!(hit.iter().map(|d| d.rule).collect::<Vec<_>>(), ["ND008"]);
        let width = "fn ask(&mut self) { let n = available_parallelism(); }";
        let hit = lint_source("crates/autotuner/src/x.rs", width);
        assert_eq!(hit.iter().map(|d| d.rule).collect::<Vec<_>>(), ["ND008"]);
        // And the waiver comment works like every other rule.
        let waived = "fn ask(&mut self) {\n\
                      // stats-analyzer: allow(ND008): diagnostics only\n\
                      let id = thread::current().id(); }";
        assert!(lint_source("crates/autotuner/src/x.rs", waived).is_empty());
    }

    #[test]
    fn state_clones_are_scoped_to_hot_paths_outside_the_pool() {
        let src = "fn commit() { let s = state.clone(); }";
        let hot = lint_source("crates/core/src/runtime/threaded.rs", src);
        assert_eq!(hot.iter().map(|d| d.rule).collect::<Vec<_>>(), ["ND013"]);
        let spec = lint_source("crates/core/src/speculation.rs", src);
        assert_eq!(spec.iter().map(|d| d.rule).collect::<Vec<_>>(), ["ND013"]);
        // The pool implements the sanctioned copy: its clone_from IS the API.
        assert!(lint_source("crates/core/src/runtime/pool.rs", src).is_empty());
        // Outside the hot paths (workload internals, oracles, tests)
        // cloning state is unremarkable.
        assert_eq!(rules_hit(src), Vec::<&str>::new());
    }

    #[test]
    fn state_clone_matches_conventional_receivers_only() {
        // clone_from and suffixed receivers are covered.
        let each = "fn f() { baseline.clone_from(&committed); let c = chunk_state.clone(); }";
        assert_eq!(lint_source("x/runtime/y.rs", each).len(), 2);
        // A field access still names the state.
        let field = "fn f(&self) { let s = self.snapshot.clone(); }";
        assert_eq!(lint_source("x/runtime/y.rs", field).len(), 1);
        // Clones of non-state values (ranges, configs, plural handles) and
        // bare `clone` without a receiver don't match.
        let fine = "fn f() { let r = range.clone(); cfg.clone(); states.clone(); clone(); }";
        assert!(lint_source("x/runtime/y.rs", fine).is_empty());
        // And the waiver comment works like every other rule.
        let waived = "// stats-analyzer: allow(ND013): oracle copy outside the measured region\n\
                      fn f() { let s = state.clone(); }";
        assert!(lint_source("x/runtime/y.rs", waived).is_empty());
    }

    #[test]
    fn pool_task_recvs_are_scoped_to_spawn_closures_in_hot_paths() {
        let src = "fn go(scope: &PoolScope) { scope.spawn(move || { let r = rx.recv(); }); }";
        let hot = lint_source("crates/core/src/runtime/threaded.rs", src);
        assert_eq!(hot.iter().map(|d| d.rule).collect::<Vec<_>>(), ["ND014"]);
        let spec = lint_source("crates/core/src/speculation.rs", src);
        assert_eq!(spec.iter().map(|d| d.rule).collect::<Vec<_>>(), ["ND014"]);
        // The coordinator waits outside any task closure — that is where
        // waiting belongs.
        let coord = "fn coordinate() { let r = rx.recv(); }";
        assert!(lint_source("crates/core/src/runtime/threaded.rs", coord).is_empty());
        // Outside the hot paths (tests, CLI plumbing) receives are
        // unremarkable.
        assert_eq!(rules_hit(src), Vec::<&str>::new());
    }

    #[test]
    fn pool_task_recv_variants_nesting_and_waiver() {
        // recv_timeout blocks the same way, and the urgent lane is
        // covered too.
        let each = "fn f(s: &PoolScope) { s.spawn_urgent(|| { rx.recv_timeout(d); }); }";
        assert_eq!(lint_source("x/runtime/y.rs", each).len(), 1);
        // The region closes with the spawn call: a receive after it is
        // the coordinator's.
        let after = "fn f(s: &PoolScope) { s.spawn(|| work()); let r = rx.recv(); }";
        assert!(lint_source("x/runtime/y.rs", after).is_empty());
        // Nested spawns: a recv in the inner closure is still inside a
        // task; chained segment tasks that only spawn-and-send are fine.
        let nested = "fn f(s: &PoolScope) { s.spawn(|| { s.spawn_urgent(|| { rx.recv(); }); }); }";
        assert_eq!(lint_source("x/runtime/y.rs", nested).len(), 1);
        let chained =
            "fn f(s: &PoolScope) { s.spawn(|| { s.spawn_urgent(|| { tx.send(v); }); }); }";
        assert!(lint_source("x/runtime/y.rs", chained).is_empty());
        // Non-method recv idents (a variable, a function call) don't match.
        let fine = "fn f(s: &PoolScope) { s.spawn(|| { let recv = 1; recv_all(); }); }";
        assert!(lint_source("x/runtime/y.rs", fine).is_empty());
        // And the waiver comment works like every other rule.
        let waived = "fn f(s: &Scope) { s.spawn(|| {\n\
                      // stats-analyzer: allow(ND014): dedicated OS thread, not a pool worker\n\
                      let r = rx.recv(); }); }";
        assert!(lint_source("x/runtime/y.rs", waived).is_empty());
    }

    #[test]
    fn panic_capture_is_scoped_to_hot_paths_outside_the_fault_plane() {
        let src = "fn run() { let r = std::panic::catch_unwind(|| work()); }";
        let hot = lint_source("crates/core/src/runtime/threaded.rs", src);
        assert_eq!(hot.iter().map(|d| d.rule).collect::<Vec<_>>(), ["ND015"]);
        let spec = lint_source("crates/core/src/speculation.rs", src);
        assert_eq!(spec.iter().map(|d| d.rule).collect::<Vec<_>>(), ["ND015"]);
        // The fault plane is the sanctioned handler: the pool's scope
        // poisoning and the fault module's recovery guards.
        assert!(lint_source("crates/core/src/runtime/pool.rs", src).is_empty());
        assert!(lint_source("crates/core/src/runtime/fault.rs", src).is_empty());
        // Outside the hot paths (tests asserting panics, the CLI's top
        // level) capturing is unremarkable.
        assert_eq!(rules_hit(src), Vec::<&str>::new());
    }

    #[test]
    fn panic_capture_variants_macro_exemption_and_waiver() {
        // One capture yields one finding, however the path is written.
        let bare = "fn f() { catch_unwind(AssertUnwindSafe(g)); }";
        assert_eq!(lint_source("x/runtime/y.rs", bare).len(), 1);
        let qualified = "fn f() { panic::resume_unwind(payload); }";
        assert_eq!(lint_source("x/runtime/y.rs", qualified).len(), 1);
        // Other std::panic machinery is capture-adjacent and flagged too.
        let hook = "fn f() { panic::set_hook(Box::new(|_| {})); }";
        assert_eq!(lint_source("x/runtime/y.rs", hook).len(), 1);
        // The panic! macro raises — it does not capture — and stays
        // legal in hot paths (invariant violations must abort loudly).
        let raises = "fn f() { panic!(\"chunk {c} died\"); }";
        assert!(lint_source("x/runtime/y.rs", raises).is_empty());
        // And the waiver comment works like every other rule.
        let waived = "// stats-analyzer: allow(ND015): test-only harness shim\n\
                      fn f() { catch_unwind(AssertUnwindSafe(g)); }";
        assert!(lint_source("x/runtime/y.rs", waived).is_empty());
    }

    #[test]
    fn findings_keep_waived_entries_with_reasons() {
        let src = "// stats-analyzer: allow(ND002): measurement only\n\
                   let t = Instant::now();\n\
                   let u = SystemTime::now();";
        let all = lint_source_findings("test.rs", src);
        assert_eq!(all.len(), 2);
        assert!(all[0].waived);
        assert_eq!(all[0].waiver_reason.as_deref(), Some("measurement only"));
        assert!(!all[1].waived);
        assert_eq!(all[1].waiver_reason, None);
        // The waived-dropping view sees only the live one.
        assert_eq!(lint_source("test.rs", src).len(), 1);
    }

    #[test]
    fn workspace_report_separates_unwaived_and_unexplained() {
        let src = "// stats-analyzer: allow(ND003)\n\
                   use std::collections::HashMap;\n\
                   use std::collections::HashSet;";
        let report = lint_workspace_sources(&[("crates/demo/src/lib.rs", src)]);
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.unwaived().count(), 1);
        // The directive has no written reason, so it shows up here.
        assert_eq!(report.unexplained_waivers().count(), 1);
    }

    #[test]
    fn registry_ids_are_unique_and_sorted() {
        let ids: Vec<_> = registry().iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(ids, sorted);
    }
}
