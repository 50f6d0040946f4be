//! # flock-bench
//!
//! Every number this reproduction reports is a row of one of the
//! checked-in `BENCH_*.json`, and every such document is a row of
//! [`SUITES`], run and gated by the `flock-bench` binary: four suites
//! that put the real stack under `VirtualLab` ([`scale`], [`churn`],
//! [`tenant`], [`onesided`]) and [`figures`], every table and figure of
//! the Flock paper (SOSP 2021) from the discrete-event models. See
//! EXPERIMENTS.md for paper-vs-measured values. The sixth row, [`micro`],
//! times the host (core data structures, the threaded stack): it has no
//! checked-in file, so it is printed and never compared.

pub mod arrival;
pub mod churn;
pub mod figures;
pub mod json;
pub mod micro;
pub mod onesided;
pub mod scale;
pub mod stats;
pub mod tenant;

/// One suite, rendered as one JSON document.
pub struct Suite {
    /// What `flock-bench <name>` selects; the document's schema tag is
    /// `flock-bench-<name>/v1`.
    pub name: &'static str,
    /// The checked-in document at the repo root, for a suite whose
    /// document is a pure function of the tree. `None`: the suite times
    /// the host, so its document goes to stderr and `--check` has
    /// nothing to hold it to.
    pub file: Option<&'static str>,
    /// Run at test-smoke (`quick`) or checked-in size.
    pub run: fn(quick: bool) -> SuiteRun,
}

/// What one run of a suite produced.
pub struct SuiteRun {
    /// The suite's document, ready to render.
    pub doc: json::Value,
    /// Completed operations the document counts (0: `churn` and
    /// `figures` count none).
    pub ops: u64,
    /// Lab handovers over every scenario of the run.
    pub handovers: u64,
    /// Lab heap pushes over every scenario of the run.
    pub heap_pushes: u64,
}

/// Every suite `flock-bench` runs; `flock-bench --check` holds the
/// checked-in files of those that have one to this tree.
pub static SUITES: [Suite; 6] = [
    Suite {
        name: "scale",
        file: Some("BENCH_scale.json"),
        run: scale::run_suite,
    },
    Suite {
        name: "churn",
        file: Some("BENCH_churn.json"),
        run: churn::run_suite,
    },
    Suite {
        name: "tenant",
        file: Some("BENCH_tenant.json"),
        run: tenant::run_suite,
    },
    Suite {
        name: "onesided",
        file: Some("BENCH_onesided.json"),
        run: onesided::run_suite,
    },
    Suite {
        name: "figures",
        file: Some("BENCH_figures.json"),
        run: figures::run_suite,
    },
    Suite {
        name: "micro",
        file: None,
        run: micro::run_suite,
    },
];

/// The suites a command line selects: the named ones, every suite when
/// none is named. Under `--check` that is every suite with a checked-in
/// file, and naming one without is an error.
pub fn select(names: &[String], check: bool) -> Result<Vec<&'static Suite>, String> {
    let mut selected = Vec::new();
    for name in names {
        match SUITES.iter().find(|s| s.name == name) {
            Some(s) if check && s.file.is_none() => {
                return Err(format!("`{name}` has no checked-in file to check"))
            }
            Some(s) => selected.push(s),
            None => return Err(format!("unexpected argument `{name}`")),
        }
    }
    if selected.is_empty() {
        selected.extend(SUITES.iter().filter(|s| !check || s.file.is_some()));
    }
    Ok(selected)
}

/// The `--check` comparison: one entry per line at which `actual` (this
/// tree's document) departs from `expected` (the checked-in one), empty
/// exactly when the two are byte-equal. Documents keep their shape from
/// run to run, so lines are compared by position.
pub fn diff_lines(expected: &str, actual: &str) -> Vec<String> {
    // `split`, not `lines`: a lost final newline or a stray `\r` must
    // count as a difference.
    let mut exp = expected.split('\n');
    let mut act = actual.split('\n');
    let mut out = Vec::new();
    for line in 1.. {
        match (exp.next(), act.next()) {
            (None, None) => break,
            (e, a) if e == a => {}
            (e, a) => out.push(format!(
                "line {line}:\n  checked in: {}\n  this tree:  {}",
                e.unwrap_or("<end of file>"),
                a.unwrap_or("<end of file>")
            )),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::diff_lines;

    const DOC: &str =
        "{\n  \"schema\": \"t/v1\",\n  \"p99_us\": 45.83,\n  \"handovers\": 3472\n}\n";

    #[test]
    fn equal_documents_pass_the_check() {
        assert!(diff_lines(DOC, DOC).is_empty());
    }

    #[test]
    fn one_changed_digit_fails_the_check_and_names_its_line() {
        let moved = DOC.replace("45.83", "45.84");
        let diffs = diff_lines(DOC, &moved);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].starts_with("line 3:"), "{diffs:?}");
        assert!(diffs[0].contains("45.83") && diffs[0].contains("45.84"));
    }

    #[test]
    fn a_missing_line_or_final_newline_fails_the_check() {
        assert_eq!(diff_lines(DOC, DOC.trim_end()).len(), 1);
        let shorter = DOC.replace("  \"handovers\": 3472\n", "");
        assert!(!diff_lines(DOC, &shorter).is_empty());
    }
}
