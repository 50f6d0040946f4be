//! The repo's one benchmark: four workloads on the real stack under
//! `VirtualLab`, seven end-to-end metrics each, and one traced run per
//! workload for the per-layer numbers. See `README.md`.
//!
//! ```text
//! flock-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! flock-benchmark --selfcheck [--seed <n>]
//! flock-benchmark --manifest
//! ```
//!
//! The parent never measures: each repeat runs in a fresh child process
//! (this binary again, `--child <repeat>`) pinned to one CPU, and the
//! parent reports the median over repeats.

mod adapter;
mod metrics;
mod pin;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use adapter::{splitmix64, VirtualLab};
use metrics::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use workloads::Workload;

/// Host seconds one repeat is sized for on the 2-CPU host the sizes
/// were frozen on; `--seconds` buys `seconds / REPEAT_SECONDS` repeats,
/// never fewer than three.
const REPEAT_SECONDS: u64 = 6;
/// Share of operations that may fail before a run counts as incorrect.
const MAX_FAILED_SHARE: f64 = 0.001;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: bool,
    manifest: bool,
    child: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        selfcheck: false,
        manifest: false,
        child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{v}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?,
            "--trace" => a.trace = number(value()?)? != 0,
            "--child" => a.child = Some(number(value()?)?),
            "--selfcheck" => a.selfcheck = true,
            "--manifest" => a.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    workloads::ALL
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name}"))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let result = parse_args().and_then(|args| {
        if args.manifest {
            print!("{}", metrics::manifest_json());
            Ok(true)
        } else if let Some(repeat) = args.child {
            let name = args.workload.as_deref().ok_or("--child needs --workload")?;
            child(
                find_workload(name)?,
                args.seed,
                repeat,
                args.trace,
                process_start,
            )
            .map(|()| true)
        } else if args.selfcheck {
            selfcheck(args.seed, args.seconds)
        } else if let Some(name) = &args.workload {
            let report = run(find_workload(name)?, args.seed, args.seconds, args.trace)?;
            println!("{}", report.to_json());
            Ok(report.correct)
        } else {
            // No workload named: all four, untraced then traced.
            let mut all_correct = true;
            for w in &workloads::ALL {
                for trace in [false, true] {
                    let report = run(w, args.seed, args.seconds, trace)?;
                    println!("{} trace={} {}", w.name, u8::from(trace), report.to_json());
                    all_correct &= report.correct;
                }
            }
            Ok(all_correct)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("flock-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// Child: one pinned lab run
// ---------------------------------------------------------------------

/// Run `w` once and print `name value` lines: the end-to-end metrics,
/// the counts, and (traced) the per-layer metrics.
fn child(
    w: &Workload,
    seed: u64,
    repeat: u64,
    traced: bool,
    process_start: Instant,
) -> Result<(), String> {
    let (allowed, cpu) = pin::pin_to_one_cpu()
        .ok_or("cannot pin to one CPU: host_kops would measure the scheduler, not the lab")?;
    if traced {
        trace::enable(1 << 21);
    }
    let lab_start = Instant::now();
    let run = w.run;
    let repeat_seed = splitmix64(seed).wrapping_add(repeat);
    let (out, report) = VirtualLab::run_report(move || run(repeat_seed));
    let lab_host_ns = lab_start.elapsed().as_nanos() as f64;
    let setup = workloads::measured_start().ok_or("no operation was measured")? - process_start;

    let ok_ops = out.lat.len() as f64;
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    m.insert("sim_mops", ok_ops * 1e3 / out.sim_span_ns.max(1) as f64);
    m.insert("sim_mean_us", stats::mean(&out.lat) / 1e3);
    m.insert("sim_tail1_us", stats::tail_mean(&out.lat, 0.01) / 1e3);
    m.insert("sim_tail01_us", stats::tail_mean(&out.lat, 0.001) / 1e3);
    m.insert(
        "host_kops",
        ok_ops * 1e6 / out.host_window.as_nanos().max(1) as f64,
    );
    m.insert("setup_s", setup.as_secs_f64());
    m.insert(
        "peak_rss_mb",
        pin::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
    );
    m.insert("attempted", out.attempted as f64);
    m.insert("failed", out.failed as f64);
    m.insert("end_check_ok", f64::from(u8::from(out.end_check_ok)));
    m.insert("host_window_s", out.host_window.as_secs_f64());

    let host_ns_per_handover = lab_host_ns / report.handovers.max(1) as f64;
    eprintln!(
        "{} repeat {repeat}{}: {allowed} CPUs allowed, pinned to CPU {cpu}; {} samples; \
         {:.0} host ns/handover",
        w.name,
        if traced { " (traced)" } else { "" },
        out.lat.len(),
        host_ns_per_handover,
    );
    if traced {
        for (name, value) in &out.layer {
            m.insert(name, *value);
        }
        m.insert("loadgen.sim_p50_us", stats::quantile(&out.lat, 0.5) / 1e3);
        m.insert("loadgen.sim_p99_us", stats::quantile(&out.lat, 0.99) / 1e3);
        m.insert(
            "loadgen.sim_p999_us",
            stats::quantile(&out.lat, 0.999) / 1e3,
        );
        m.insert(
            "sim.vtime.handovers_per_op",
            report.handovers as f64 / out.all_ops.max(1) as f64,
        );
        m.insert("sim.vtime.host_ns_per_handover", host_ns_per_handover);
        m.insert("sim.vtime.tasks", report.tasks_spawned as f64);
        for (name, value) in probes::run_all() {
            m.insert(name, value);
        }
        let path = format!("benchmark/out/{}.trace.jsonl", w.name);
        trace::write_jsonl(std::path::Path::new(&path), &out.spans)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    for (name, value) in &m {
        println!("{name} {value}");
    }
    Ok(())
}

/// Spawn one child and parse its `name value` lines.
fn spawn_child(
    w: &Workload,
    seed: u64,
    repeat: u64,
    traced: bool,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", &repeat.to_string()])
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} repeat {repeat}: child {}", w.name, out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))?;
    let mut m = BTreeMap::new();
    for line in text.lines() {
        let (name, value) = line.split_once(' ').ok_or(format!("child line {line:?}"))?;
        let value: f64 = value
            .parse()
            .map_err(|e| format!("child line {line:?}: {e}"))?;
        m.insert(name.to_string(), value);
    }
    Ok(m)
}

// ---------------------------------------------------------------------
// Parent: repeats, medians, the result line
// ---------------------------------------------------------------------

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static Metric, f64)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn get(m: &BTreeMap<String, f64>, name: &str) -> f64 {
    m.get(name).copied().unwrap_or(0.0)
}

fn run_correct(attempted: f64, failed: f64, end_checks_ok: bool) -> bool {
    end_checks_ok && failed <= attempted * MAX_FAILED_SHARE
}

fn run(w: &'static Workload, seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    if traced {
        return run_traced(w, seed);
    }
    let repeats = (seconds / REPEAT_SECONDS).max(3);
    let mut runs = Vec::new();
    for r in 0..repeats {
        runs.push(spawn_child(w, seed, r, false)?);
    }
    let sum = |name: &str| runs.iter().map(|m| get(m, name)).sum::<f64>();
    let (attempted, failed) = (sum("attempted"), sum("failed"));
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let mut values: Vec<f64> = runs.iter().map(|r| get(r, m.name)).collect();
            (m, stats::median_f64(&mut values))
        })
        .collect();
    Ok(Report {
        correct: run_correct(attempted, failed, sum("end_check_ok") == repeats as f64),
        attempted: attempted as u64,
        failed: failed as u64,
        metrics,
    })
}

/// The per-layer run: repeat 0 once untraced and once traced. The pair
/// gives the tracing overhead and proves trace invariant (a) — tracing
/// never moves virtual time, so `sim_*` of the two runs are equal.
fn run_traced(w: &'static Workload, seed: u64) -> Result<Report, String> {
    let plain = spawn_child(w, seed, 0, false)?;
    let traced = spawn_child(w, seed, 0, true)?;
    if w.deterministic {
        for m in END_TO_END.iter().filter(|m| m.name.starts_with("sim_")) {
            let (a, b) = (get(&plain, m.name), get(&traced, m.name));
            if a.to_bits() != b.to_bits() {
                return Err(format!(
                    "trace invariant (a) broken on {}: {} is {a} untraced, {b} traced",
                    w.name, m.name
                ));
            }
        }
    }
    let overhead_pct = (get(&traced, "host_window_s") / get(&plain, "host_window_s") - 1.0) * 100.0;
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let v = match m.name {
                "loadgen.trace_host_overhead_pct" => overhead_pct,
                name => get(&traced, name),
            };
            (m, v)
        })
        .collect();
    let (attempted, failed) = (get(&traced, "attempted"), get(&traced, "failed"));
    Ok(Report {
        correct: run_correct(attempted, failed, get(&traced, "end_check_ok") == 1.0),
        attempted: attempted as u64,
        failed: failed as u64,
        metrics,
    })
}

// ---------------------------------------------------------------------
// --selfcheck: the whole benchmark twice
// ---------------------------------------------------------------------

/// Run every workload twice and print, per workload × metric, both
/// values and whether they agree within the metric's bound. `sim_*`
/// must be bit-equal on the deterministic workloads.
fn selfcheck(seed: u64, seconds: u64) -> Result<bool, String> {
    if let Ok(on_disk) = std::fs::read_to_string("BENCHMARK.json") {
        if on_disk != metrics::manifest_json() {
            return Err("BENCHMARK.json differs from `--manifest`".to_string());
        }
    }
    let mut all_ok = true;
    println!("workload metric first second rel_diff bound verdict");
    for w in &workloads::ALL {
        let first = run(w, seed, seconds, false)?;
        let second = run(w, seed, seconds, false)?;
        all_ok &= first.correct && second.correct;
        for ((m, a), (_, b)) in first.metrics.iter().zip(&second.metrics) {
            let exact = w.deterministic && m.name.starts_with("sim_");
            let rel_diff = (b - a) / a;
            let ok = if exact {
                a.to_bits() == b.to_bits()
            } else {
                rel_diff.abs() <= m.bound
            };
            all_ok &= ok;
            println!(
                "{} {} {a} {b} {:+.4} {} {}",
                w.name,
                m.name,
                rel_diff,
                if exact {
                    "exact".to_string()
                } else {
                    m.bound.to_string()
                },
                if ok { "ok" } else { "FAIL" },
            );
        }
    }
    Ok(all_ok)
}
