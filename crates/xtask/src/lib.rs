//! Workspace maintenance tasks, invoked through cargo aliases (see
//! `.cargo/config.toml`); the `xtask` binary is a thin dispatcher over
//! these modules.
//!
//! * [`orderings`] — `cargo audit-orderings`: every `Ordering::*` site
//!   must carry a justification in `orderings.allow`.
//! * [`loom_suites`] — `cargo loom`: run every loom model-checking
//!   suite under `--cfg loom`.
//! * [`lint`] — `cargo lint`: clippy on library and binary code with
//!   the virtual-clock seam's lints denied (`clippy.toml`).
//!
//! The other workspace invariant is the debug-build lock-order check in
//! the `parking_lot` shim (DESIGN.md §5f). [`ledger`]'s test holds
//! `CHANGES.md` to a ledger's shape and the design documents to a size
//! budget in tier-1.

pub(crate) mod allowlist;
pub(crate) mod diag;
#[cfg(test)]
mod ledger;
pub mod orderings;
pub(crate) mod walk;

use std::process::ExitCode;

/// Every loom suite in the workspace: (package, test target).
const LOOM_SUITES: &[(&str, &str)] = &[
    ("flock-core", "loom_tcq"),
    ("flock-core", "loom_alock"),
    ("flock-core", "loom_lane"),
];

/// What `cargo lint` denies, handed to clippy-driver.
const LINT_DENY: &[&str] = &[
    "-D",
    "warnings",
    "-D",
    "clippy::disallowed_methods",
    "-D",
    "clippy::disallowed_types",
];

/// The `cargo` arguments of `cargo lint <extra>`: `extra` (`-q`,
/// `-p flock-core`) goes to cargo, before the `--` that hands the deny
/// set to clippy-driver.
fn lint_args(extra: &[String]) -> Vec<String> {
    ["clippy", "--workspace", "--lib", "--bins"]
        .iter()
        .map(|s| s.to_string())
        .chain(extra.iter().cloned())
        .chain(std::iter::once("--".to_string()))
        .chain(LINT_DENY.iter().map(|s| s.to_string()))
        .collect()
}

/// Run clippy over library and binary code with [`LINT_DENY`]; tests,
/// examples and `#[cfg(test)]` modules are not checked.
pub fn lint(extra: &[String]) -> ExitCode {
    let status = std::process::Command::new(env!("CARGO"))
        .current_dir(walk::workspace_root())
        .args(lint_args(extra))
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lint: failed to spawn cargo: {e}");
            ExitCode::FAILURE
        }
    }
}

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

#[cfg(test)]
mod tests {
    use super::lint_args;

    #[test]
    fn lint_flags_reach_cargo_and_the_deny_set_reaches_the_driver() {
        let deny = "-D warnings -D clippy::disallowed_methods -D clippy::disallowed_types";
        let joined = |extra: &[&str]| {
            let extra: Vec<String> = extra.iter().map(|s| s.to_string()).collect();
            lint_args(&extra).join(" ")
        };
        assert_eq!(
            joined(&[]),
            format!("clippy --workspace --lib --bins -- {deny}")
        );
        assert_eq!(
            joined(&["-q", "-p", "flock-core"]),
            format!("clippy --workspace --lib --bins -q -p flock-core -- {deny}")
        );
    }
}
