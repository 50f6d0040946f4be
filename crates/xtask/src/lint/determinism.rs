//! Rule `determinism`: no time/scheduler/entropy call may bypass the
//! `flock_sync::clock` seam.
//!
//! PR 5 made whole multi-node runs a pure function of their
//! configuration by routing every time and scheduling decision through
//! `flock_sync::clock`. One stray `Instant::now()` silently re-couples a
//! "deterministic" run to the host, and nothing in the type system stops
//! it — so this rule does: any of the patterns below outside
//! `crates/sync/src/clock.rs` (the seam's own threaded arm) is an error
//! unless justified in `determinism.allow`. (Branching on the executor
//! needs no rule: `clock::is_virtual` is private to `flock-sync`.)
//!
//! Per-thread state is the same kind of escape: every task of a `VirtualLab` runs on the one
//! OS thread that called `run`, each on a stack of its own, so a
//! `thread_local!` in a crate that runs under the lab is state shared
//! by all of them — a borrow of it held across a suspension point
//! collides with the next task's (DESIGN.md §5e "Stacks"). Each one
//! needs an entry saying why it is safe to share.
//!
//! Test/bench/example scaffolding is exempt: it drives the system from
//! *outside* the lab on real OS threads by design (spawning the client
//! threads that then `clock::install` themselves, timing wall-clock
//! smoke runs, …).

use crate::allowlist::Allowlist;
use crate::diag::Diagnostic;
use crate::lex::TokKind;
use crate::parse::SourceModel;
use std::collections::BTreeMap;

/// The one file allowed to touch `std` time/thread primitives: the seam
/// itself.
const SEAM: &str = "crates/sync/src/clock.rs";

/// `prefix :: name` patterns that escape the seam.
const QUALIFIED: &[(&str, &str)] = &[
    ("Instant", "now"),
    ("SystemTime", "now"),
    ("thread", "sleep"),
    ("thread", "spawn"),
    ("thread", "park"),
    ("thread", "park_timeout"),
    ("thread", "yield_now"),
    ("thread", "Builder"),
    // A topology sized by the host's CPU count makes a lab run depend on
    // the machine it runs on.
    ("thread", "available_parallelism"),
    ("rand", "random"),
];

/// Bare identifiers that escape the seam wherever they appear (RNG
/// seeding from host entropy).
const BARE: &[&str] = &["from_entropy", "thread_rng", "OsRng"];

/// The macro that declares per-thread — under a `VirtualLab`, lab-wide —
/// state, and the crates whose code runs as lab tasks.
const THREAD_LOCAL: &str = "thread_local!";
const LAB_CRATES: &[&str] = &[
    "crates/sync/",
    "crates/fabric/",
    "crates/core/",
    "crates/kvstore/",
    "crates/gateway/",
    "crates/txn/",
    "crates/hydralist/",
];

/// A matched seam escape, keyed like the ordering audit:
/// `file::fn::Pattern#n`.
pub struct Escape {
    pub key: String,
    pub file: String,
    pub line: usize,
    pub pattern: String,
}

/// Scan one file model for seam escapes (test regions skipped).
pub fn scan(model: &SourceModel) -> Vec<Escape> {
    if model.path == SEAM {
        return Vec::new();
    }
    let mut ordinals: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut out = Vec::new();
    let toks = &model.toks;
    let runs_under_the_lab = LAB_CRATES.iter().any(|c| model.path.starts_with(c));
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let matched: Option<String> = QUALIFIED
            .iter()
            .find(|(q, name)| {
                toks[i].text == *q
                    && toks.get(i + 1).is_some_and(|t| t.text == "::")
                    && toks.get(i + 2).is_some_and(|t| t.text == *name)
            })
            .map(|(q, name)| format!("{q}::{name}"))
            .or_else(|| {
                BARE.iter()
                    .find(|b| toks[i].text == **b)
                    .map(|b| b.to_string())
            })
            .or_else(|| {
                (runs_under_the_lab
                    && toks[i].text == "thread_local"
                    && toks.get(i + 1).is_some_and(|t| t.text == "!"))
                .then(|| THREAD_LOCAL.to_string())
            });
        let Some(pattern) = matched else {
            continue;
        };
        if model.in_test_region(i) {
            continue;
        }
        let func = model.enclosing_fn_name(i);
        let n = ordinals.entry((func.clone(), pattern.clone())).or_insert(0);
        *n += 1;
        out.push(Escape {
            key: format!("{}::{}::{}#{}", model.path, func, pattern, n),
            file: model.path.clone(),
            line: toks[i].line,
            pattern,
        });
    }
    out
}

/// Check `escapes` against the allowlist, producing diagnostics and the
/// keys that would need new entries.
pub fn check(models: &[&SourceModel], allow: &Allowlist) -> (Vec<Diagnostic>, Vec<String>) {
    let mut diags = Vec::new();
    let mut missing = Vec::new();
    let mut all_keys = Vec::new();
    for model in models {
        for esc in scan(model) {
            all_keys.push(esc.key.clone());
            match allow.get(&esc.key) {
                None => {
                    let (what, how) = if esc.pattern == THREAD_LOCAL {
                        (
                            "is shared by every task of a VirtualLab",
                            "keep the state in something the task owns, or say in \
                             determinism.allow why sharing it is safe (never borrowed \
                             across a suspension point, no task relies on its value)",
                        )
                    } else {
                        (
                            "escapes the virtual-clock seam",
                            "route through flock_sync::clock (now_ns/deadline/sleep/spawn, \
                             Event::wait_until for blocking) or justify in determinism.allow",
                        )
                    };
                    diags.push(
                        Diagnostic::error("determinism", format!("`{}` {what}", esc.pattern))
                            .at(&esc.file, esc.line)
                            .snippet(model.line_text(esc.line))
                            .note(format!("key: {}", esc.key))
                            .note(how),
                    );
                    missing.push(esc.key);
                }
                Some("TODO") => {
                    diags.push(
                        Diagnostic::error(
                            "determinism",
                            format!("TODO justification for `{}`", esc.pattern),
                        )
                        .at(&esc.file, esc.line)
                        .note(format!("key: {}", esc.key)),
                    );
                }
                Some(_) => {}
            }
        }
    }
    // Stale entries: the site a justification covered is gone.
    for key in allow.entries.keys() {
        if !all_keys.iter().any(|k| k == key) {
            diags.push(Diagnostic::warn(
                "determinism",
                format!("stale determinism.allow entry `{key}` (site no longer exists)"),
            ));
        }
    }
    for (key, line) in &allow.duplicates {
        diags.push(Diagnostic::warn(
            "determinism",
            format!(
                "duplicate determinism.allow entry `{key}` (line {line} shadows an earlier one)"
            ),
        ));
    }
    (diags, missing)
}
