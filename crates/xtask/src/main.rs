//! The `xtask` binary: thin dispatcher over the library modules (see
//! `lib.rs` for the task inventory and `.cargo/config.toml` for the
//! cargo aliases that invoke them).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprintln!("usage: cargo xtask <audit-orderings|loom> [args]");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "audit-orderings" => xtask::orderings::audit(rest.iter().any(|a| a == "--fix")),
        "loom" => xtask::loom_suites(rest),
        other => {
            eprintln!("xtask: unknown task `{other}` (expected `audit-orderings` or `loom`)");
            ExitCode::FAILURE
        }
    }
}
