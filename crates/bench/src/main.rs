//! The one harness over [`SUITES`]: run the virtual-time suites and write
//! their `BENCH_<name>.json`, or hold the checked-in files to this tree.
//!
//! ```text
//! flock-bench [suite…] [--quick] [--out DIR]
//! flock-bench --check [suite…]
//! ```
//!
//! Either form takes the suites to run by name, all of them by default:
//! the four lab suites together take ≈ 0.8 s, `figures` 2–3 min, `micro`
//! a few seconds.
//!
//! Without `--check`, each suite that has a checked-in file writes
//! `DIR/BENCH_<name>.json`; `DIR` defaults to the repo root, so a plain
//! `flock-bench` regenerates the checked-in files, and with them the
//! tables of `EXPERIMENTS.md` that a suite renders ([`Table`]). `micro` times the
//! host, so it has no file: its document — ns/op, one row per loop —
//! goes to stderr. `--quick` runs the test-smoke sizes and needs an
//! explicit `--out` to write to, since a quick document must never
//! replace a checked-in full one.
//!
//! `--check` runs the suites that have a file at full size and compares
//! each document byte for byte with the checked-in one — `handovers`,
//! `heap_pushes`, `tasks` and `allocs` included, they are exact for a
//! tree built in release — and each rendered table with its block of
//! `EXPERIMENTS.md`. It prints the lines
//! that differ and exits 1 on any difference: a behaviour-preserving
//! change leaves it green, and a change that moves a number regenerates
//! the files and says why (EXPERIMENTS.md).
//!
//! Either way one line per suite goes to stderr: wall seconds (host
//! cost, which is why it is printed and not stored in the compared
//! files), the operations the document counts (`churn`: the RPCs its
//! cohorts completed), and the lab's handovers, heap pushes, tasks,
//! heap allocations and allocations per operation (the `figures`
//! document counts none of them).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use flock_bench::json::Value;
use flock_bench::{diff_lines, select, Suite, Table};

/// The document whose tables suites render (see [`Table`]).
const EXPERIMENTS: &str = "EXPERIMENTS.md";

/// Where the checked-in `BENCH_*.json` live.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
}

const USAGE: &str = "usage: flock-bench [SUITE]… [--quick] [--out DIR]\n       \
                     flock-bench --check [SUITE]…\n\
                     SUITE: scale | churn | tenant | onesided | figures | micro (default: all; \
                     micro is printed, not written or checked)";

/// Run one suite; returns its document and the stderr summary of the
/// run.
#[expect(
    clippy::disallowed_methods,
    reason = "the harness prints each suite's wall seconds (the lab's host cost) to stderr; it runs \
              outside the lab and the figure never enters the byte-compared documents"
)]
fn run(suite: &Suite, quick: bool) -> (Value, String) {
    let start = Instant::now();
    let run = (suite.run)(quick);
    let secs = start.elapsed().as_secs_f64();
    let cost = run.cost;
    let (ops, per_op) = if run.ops > 0 {
        let per_op = cost.allocs as f64 / run.ops as f64;
        (run.ops.to_string(), format!("{per_op:.1}"))
    } else {
        ("-".to_string(), "-".to_string())
    };
    let summary = format!(
        "{:<8} {secs:6.2} s  {ops:>7} ops  {:>7} handovers  {:>8} heap pushes  {:>5} tasks  \
         {:>8} allocs  {per_op:>6} allocs/op",
        suite.name, cost.handovers, cost.heap_pushes, cost.tasks, cost.allocs
    );
    (run.doc, summary)
}

/// `EXPERIMENTS.md` at the repo root: as it is, and with `table`
/// rendered from `doc`.
fn experiments(table: &Table, doc: &Value) -> Result<(String, String), String> {
    let path = repo_root().join(EXPERIMENTS);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let rendered = table
        .splice(&text, doc)
        .map_err(|e| format!("{EXPERIMENTS}: {e}"))?;
    Ok((text, rendered))
}

fn check(selected: Vec<&Suite>) -> ExitCode {
    let mut failed = false;
    for suite in selected {
        let file = suite.file.expect("select() admits only gated suites");
        let (doc, summary) = run(suite, false);
        let path = repo_root().join(file);
        let mut diffs: Vec<(&str, String)> = match std::fs::read_to_string(&path) {
            Ok(checked_in) => diff_lines(&checked_in, &doc.render())
                .into_iter()
                .map(|d| (file, d))
                .collect(),
            Err(e) => vec![(file, format!("cannot read {}: {e}", path.display()))],
        };
        if let Some(table) = &suite.table {
            match experiments(table, &doc) {
                Ok((text, rendered)) => diffs.extend(
                    diff_lines(&text, &rendered)
                        .into_iter()
                        .map(|d| (EXPERIMENTS, d)),
                ),
                Err(e) => diffs.push((EXPERIMENTS, e)),
            }
        }
        let verdict = if diffs.is_empty() { "ok" } else { "DIFFERS" };
        eprintln!("flock-bench: {summary}  {file} {verdict}");
        for (name, d) in &diffs {
            eprintln!("{name}: {d}");
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
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check_mode = true,
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(dir) => out = Some(dir.into()),
                None => return usage("--out needs a directory"),
            },
            name => names.push(name.to_string()),
        }
    }
    let selected = match select(&names, check_mode) {
        Ok(selected) => selected,
        Err(problem) => return usage(&problem),
    };
    if check_mode {
        if quick || out.is_some() {
            return usage("--check compares full runs with the checked-in files");
        }
        return check(selected);
    }
    // Without `--out` the checked-in files are regenerated, and with them
    // the tables of EXPERIMENTS.md.
    let regenerate = out.is_none();
    let dir = match out {
        Some(dir) => dir,
        None if quick && selected.iter().any(|s| s.file.is_some()) => {
            return usage("--quick needs --out DIR")
        }
        None => repo_root().to_path_buf(),
    };
    for suite in selected {
        let (doc, summary) = run(suite, quick);
        let Some(file) = suite.file else {
            eprint!("{}", doc.render());
            eprintln!("flock-bench: {summary}");
            continue;
        };
        let path = dir.join(file);
        if let Err(e) = std::fs::write(&path, doc.render()) {
            eprintln!("flock-bench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("flock-bench: {summary}  -> {}", path.display());
        if let (true, Some(table)) = (regenerate, &suite.table) {
            let written = experiments(table, &doc).and_then(|(_, rendered)| {
                let path = repo_root().join(EXPERIMENTS);
                std::fs::write(&path, rendered)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))
            });
            if let Err(e) = written {
                eprintln!("flock-bench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
