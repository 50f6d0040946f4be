//! `cargo xtask lint` — the workspace invariant checker.
//!
//! Three rules over one parsed-source pass (see the rule modules for the
//! precise semantics and over-approximation policies):
//!
//! * [`determinism`] — time/scheduler/entropy calls outside the
//!   `flock_sync::clock` seam, and `thread_local!`s in the crates that
//!   run under a `VirtualLab`, where per-thread state is lab-wide
//!   (allowlist: `determinism.allow`);
//! * [`lock_order`] — cycles in the cross-crate Mutex/RwLock
//!   acquisition graph (allowlist: `lockorder.allow`);
//! * [`safety`] — `unsafe` without a `// SAFETY:` justification
//!   (no allowlist: write the comment).
//!
//! Allocations are measured, not linted: `flock-bench` counts every lab
//! run's heap allocations (DESIGN.md §5c).
//!
//! `--fix-allow` appends `key = TODO` skeletons for missing determinism
//! entries (TODO still fails, so each needs a real justification). `-D`
//! promotes warnings (stale or duplicate allowlist entries) to failures —
//! CI runs at `-D`.

pub mod determinism;
pub mod lock_order;
pub mod safety;

use crate::allowlist::Allowlist;
use crate::diag::{emit, Diagnostic};
use crate::parse::SourceModel;
use crate::walk::{is_test_path, rust_files, workspace_root};
use std::process::ExitCode;

/// Allowlist file names at the workspace root.
pub(crate) const DETERMINISM_ALLOW: &str = "determinism.allow";
pub(crate) const LOCKORDER_ALLOW: &str = "lockorder.allow";

/// Parsed CLI for `xtask lint`.
#[derive(Debug, Default)]
pub struct LintOpts {
    /// Treat warnings as errors (`-D`).
    pub deny_warnings: bool,
    /// Append skeleton allowlist entries for missing sites.
    pub fix_allow: bool,
    /// Run only the named rule (all by default).
    pub only: Option<String>,
}

impl LintOpts {
    pub fn parse(args: &[String]) -> Result<LintOpts, String> {
        let mut opts = LintOpts::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "-D" | "--deny-warnings" => opts.deny_warnings = true,
                "--fix-allow" => opts.fix_allow = true,
                "--rule" => {
                    let r = it.next().ok_or("--rule needs an argument")?;
                    match r.as_str() {
                        "determinism" | "lock-order" | "safety" => {
                            opts.only = Some(r.clone());
                        }
                        other => return Err(format!("unknown rule `{other}`")),
                    }
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(opts)
    }
}

/// Run the linter over the workspace.
pub fn run(opts: &LintOpts) -> ExitCode {
    let root = workspace_root();
    let files = rust_files(&root);
    let mut models = Vec::new();
    for rel in &files {
        let text =
            std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        models.push(SourceModel::build(rel, &text));
    }
    let all: Vec<&SourceModel> = models.iter().collect();
    // Library code only: determinism guards what can run under a
    // VirtualLab; lock-order skips test scaffolding to keep the
    // name-merged graph about production locks.
    let lib: Vec<&SourceModel> = models.iter().filter(|m| !is_test_path(&m.path)).collect();

    let enabled = |rule: &str| opts.only.as_deref().is_none_or(|o| o == rule);
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut counts: Vec<(&str, usize)> = Vec::new();

    if enabled("determinism") {
        let allow = Allowlist::load(&root, DETERMINISM_ALLOW);
        let (d, missing) = determinism::check(&lib, &allow);
        if opts.fix_allow {
            allow
                .append_todos(&root, &missing)
                .expect("write determinism.allow");
            if !missing.is_empty() {
                eprintln!(
                    "lint: appended {} skeleton entries to {DETERMINISM_ALLOW}",
                    missing.len()
                );
            }
        }
        counts.push(("determinism", d.len()));
        diags.extend(d);
    }
    if enabled("lock-order") {
        let allow = Allowlist::load(&root, LOCKORDER_ALLOW);
        let d = lock_order::check(&lib, &allow);
        counts.push(("lock-order", d.len()));
        diags.extend(d);
    }
    if enabled("safety") {
        let d = safety::check(&all);
        counts.push(("safety", d.len()));
        diags.extend(d);
    }
    let failures = emit(&diags, opts.deny_warnings);
    if failures > 0 {
        eprintln!(
            "lint: FAILED with {failures} problem(s) across {} files",
            files.len()
        );
        ExitCode::FAILURE
    } else {
        let summary: Vec<String> = counts
            .iter()
            .map(|(r, n)| format!("{r}: {}", if *n == 0 { "ok" } else { "warned" }))
            .collect();
        println!("lint: ok — {} files; {}", files.len(), summary.join(", "));
        ExitCode::SUCCESS
    }
}
