//! # flock-bench
//!
//! Benchmark harnesses regenerating every table and figure of the Flock
//! paper (SOSP 2021). Each `benches/figN*.rs` target (run via
//! `cargo bench`) prints the same rows/series the paper reports;
//! `benches/micro.rs` holds Criterion microbenchmarks of the core data
//! structures. The virtual-time suites behind the checked-in
//! `BENCH_*.json` are the rows of [`SUITES`], run by the `flock-bench`
//! binary. See EXPERIMENTS.md for paper-vs-measured values.

pub mod arrival;
pub mod churn;
pub mod json;
pub mod onesided;
pub mod scale;
pub mod stats;
pub mod tenant;

use flock_sim::Ns;

/// One virtual-time suite: the real stack under `VirtualLab`, rendered
/// as one JSON document that is a pure function of the tree.
pub struct Suite {
    /// What `flock-bench <name>` selects; the document's schema tag is
    /// `flock-bench-<name>/v1`.
    pub name: &'static str,
    /// The checked-in document at the repo root.
    pub file: &'static str,
    /// Run at test-smoke (`quick`) or checked-in size and render.
    pub run: fn(quick: bool) -> String,
}

/// Every suite `flock-bench` runs and `flock-bench --check` holds the
/// checked-in files to.
pub static SUITES: [Suite; 4] = [
    Suite {
        name: "scale",
        file: "BENCH_scale.json",
        run: scale::run_suite,
    },
    Suite {
        name: "churn",
        file: "BENCH_churn.json",
        run: churn::run_suite,
    },
    Suite {
        name: "tenant",
        file: "BENCH_tenant.json",
        run: tenant::run_suite,
    },
    Suite {
        name: "onesided",
        file: "BENCH_onesided.json",
        run: onesided::run_suite,
    },
];

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

/// Measurement window per point, scaled by `FLOCK_SIM_MS` (default 8 ms).
pub fn sim_duration() -> Ns {
    let ms = std::env::var("FLOCK_SIM_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(8);
    Ns::from_millis(ms)
}

/// Warmup per point (default: half the measurement window, min 2 ms).
pub fn sim_warmup() -> Ns {
    Ns(sim_duration().as_nanos() / 2).max(Ns::from_millis(2))
}

/// Print a standard series header.
pub fn header(title: &str, cols: &[&str]) {
    println!("\n=== {title} ===");
    println!("{}", cols.join("\t"));
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
