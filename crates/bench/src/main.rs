//! The one harness over [`SUITES`]: run the virtual-time suites and write
//! their `BENCH_<name>.json`, or hold the checked-in files to this tree.
//!
//! ```text
//! flock-bench [suite…] [--quick] [--out DIR]
//! flock-bench --check [suite…]
//! ```
//!
//! Either form takes the suites to run by name, all five by default: the
//! four lab suites together take ≈ 20 s, `figures` 2–3 min.
//!
//! Without `--check`, each suite writes `DIR/BENCH_<name>.json`; `DIR`
//! defaults to the repo root, so a plain `flock-bench` regenerates the
//! checked-in files. `--quick` runs the test-smoke sizes and needs an
//! explicit `--out`, since a quick document must never replace a
//! checked-in full one.
//!
//! `--check` runs the suites at full size and compares each document
//! byte for byte with the checked-in file — `handovers` and `tasks`
//! included, they are exact for a tree. It prints the lines that differ
//! and exits 1 on any difference: a behaviour-preserving change leaves
//! it green, and a change that moves a number regenerates the files and
//! says why (EXPERIMENTS.md).
//!
//! Either way one line per suite goes to stderr: wall seconds (host
//! cost, which is why it is printed and not stored in the compared
//! files), the operations the document counts, and lab handovers (the
//! `figures` document counts neither).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use flock_bench::json::sum_field;
use flock_bench::{diff_lines, Suite, SUITES};

/// Where the checked-in `BENCH_*.json` live.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
}

/// The document fields that count completed operations (`total_ops`:
/// scale; `gets`/`sets`: onesided; the rest: tenant; the churn and
/// figures documents count none).
const OPS_FIELDS: [&str; 7] = [
    "total_ops",
    "gets",
    "sets",
    "ops",
    "victim_ops",
    "aggr_ops_uncapped",
    "aggr_ops_capped",
];

const USAGE: &str = "usage: flock-bench [SUITE]… [--quick] [--out DIR]\n       \
                     flock-bench --check [SUITE]…\n\
                     SUITE: scale | churn | tenant | onesided | figures (default: all)";

/// Run one suite; returns its document and the stderr summary of the
/// run.
fn run(suite: &Suite, quick: bool) -> (String, String) {
    let start = Instant::now();
    let doc = (suite.run)(quick);
    let secs = start.elapsed().as_secs_f64();
    let ops: u64 = OPS_FIELDS.iter().map(|f| sum_field(&doc, f)).sum();
    let ops = if ops > 0 {
        ops.to_string()
    } else {
        "-".to_string()
    };
    let summary = format!(
        "{:<8} {secs:6.2} s  {ops:>7} ops  {:>7} handovers",
        suite.name,
        sum_field(&doc, "handovers")
    );
    (doc, summary)
}

fn check(selected: Vec<&Suite>) -> ExitCode {
    let mut failed = false;
    for suite in selected {
        let (doc, summary) = run(suite, false);
        let path = repo_root().join(suite.file);
        let diffs = match std::fs::read_to_string(&path) {
            Ok(checked_in) => diff_lines(&checked_in, &doc),
            Err(e) => vec![format!("cannot read {}: {e}", path.display())],
        };
        let verdict = if diffs.is_empty() { "ok" } else { "DIFFERS" };
        eprintln!("flock-bench: {summary}  {} {verdict}", suite.file);
        for d in &diffs {
            eprintln!("{}: {d}", suite.file);
        }
        failed |= !diffs.is_empty();
    }
    if failed {
        eprintln!(
            "flock-bench: --check failed. If the change is meant to move these numbers, \
             regenerate with `cargo run --release -p flock-bench` and say in EXPERIMENTS.md what \
             moved them."
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("flock-bench: {problem}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut check_mode = false;
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut selected: Vec<&Suite> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check_mode = true,
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(dir) => out = Some(dir.into()),
                None => return usage("--out needs a directory"),
            },
            name => match SUITES.iter().find(|s| s.name == name) {
                Some(suite) => selected.push(suite),
                None => return usage(&format!("unexpected argument `{name}`")),
            },
        }
    }
    if selected.is_empty() {
        selected.extend(&SUITES);
    }
    if check_mode {
        if quick || out.is_some() {
            return usage("--check compares full runs with the checked-in files");
        }
        return check(selected);
    }
    let dir = match out {
        Some(dir) => dir,
        None if quick => return usage("--quick needs --out DIR"),
        None => repo_root().to_path_buf(),
    };
    for suite in selected {
        let (doc, summary) = run(suite, quick);
        let path = dir.join(suite.file);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("flock-bench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("flock-bench: {summary}  -> {}", path.display());
    }
    ExitCode::SUCCESS
}
