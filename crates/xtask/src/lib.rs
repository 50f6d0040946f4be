//! Workspace maintenance tasks, invoked through cargo aliases (see
//! `.cargo/config.toml`); the `xtask` binary is a thin dispatcher over
//! these modules.
//!
//! * [`orderings`] — `cargo audit-orderings`: every `Ordering::*` site
//!   must carry a justification in `orderings.allow`.
//! * [`loom_suites`] — `cargo loom`: run every loom model-checking
//!   suite under `--cfg loom`.
//!
//! The other workspace invariants are clippy's (`cargo lint`,
//! `clippy.toml`) and the debug-build lock-order check in the
//! `parking_lot` shim (DESIGN.md §5f).

pub(crate) mod allowlist;
pub(crate) mod diag;
pub mod orderings;
pub(crate) mod walk;

use std::process::ExitCode;

/// Every loom suite in the workspace: (package, test target).
const LOOM_SUITES: &[(&str, &str)] = &[
    ("flock-core", "loom_tcq"),
    ("flock-core", "loom_alock"),
    ("flock-core", "loom_lane"),
];

/// Run all loom model-checking suites with `--cfg loom`, forwarding
/// `extra` to each test binary. Respects an existing `RUSTFLAGS` (so
/// `LOOM_MAX_PREEMPTIONS`-style knobs and extra cfgs compose).
pub fn loom_suites(extra: &[String]) -> ExitCode {
    let mut rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !rustflags.split_whitespace().any(|f| f == "--cfg=loom") && !rustflags.contains("--cfg loom")
    {
        if !rustflags.is_empty() {
            rustflags.push(' ');
        }
        rustflags.push_str("--cfg loom");
    }
    for (pkg, target) in LOOM_SUITES {
        eprintln!("loom: {pkg} --test {target}");
        let status = std::process::Command::new(env!("CARGO"))
            .current_dir(walk::workspace_root())
            .env("RUSTFLAGS", &rustflags)
            .args(["test", "-p", pkg, "--test", target, "--release", "--"])
            .args(extra)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("loom: {pkg} --test {target} FAILED ({s})");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("loom: failed to spawn cargo: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
