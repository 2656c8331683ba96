//! End-to-end and per-layer benchmark of the AutoView pipeline and its
//! serving layer.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload makes its inputs from `--seed`, sets up, measures for
//! `--seconds`, checks the program's outputs against independent
//! computations, and prints one JSON object as its last line. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones. `all`
//! runs every workload, each in a process of its own. See README.md.

mod check;
mod load;
mod pipeline;
mod probe;
mod serving;
mod stats;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 2] = ["pipeline-job", "serve-miss"];

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("select_s", "s"),
    ("service_us", "us"),
    ("saturated_qps", "1/s"),
    ("open_p50_us", "us"),
    ("open_p90_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. Every workload prints each of
/// them; a layer the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 52] = [
    ("equiv.analyze_s", "s"),
    ("core.preprocess_s", "s"),
    ("core.truth_s", "s"),
    ("nn.fit_s", "s"),
    ("nn.fit_samples_per_s", "1/s"),
    ("cost.matrix_s", "s"),
    ("select.rlview_s", "s"),
    ("select.steps", "count"),
    ("select.step_us", "us"),
    ("select.saved_cost_pct", "%"),
    ("core.deploy_s", "s"),
    ("sched.tasks", "count"),
    ("sched.steals", "count"),
    ("pipeline.coverage", "ratio"),
    ("plan.fingerprint_ns", "ns"),
    ("serve.snapshot_ns", "ns"),
    ("serve.admission_ns", "ns"),
    ("serve.admission_contended_ns", "ns"),
    ("serve.route_memo_ns", "ns"),
    ("serve.route_memo_contended_ns", "ns"),
    ("engine.cache_hit_ns", "ns"),
    ("engine.cache_hit_contended_ns", "ns"),
    ("obs.observe_ns", "ns"),
    ("obs.observe_contended_ns", "ns"),
    ("trace.metrics_ns", "ns"),
    ("trace.metrics_contended_ns", "ns"),
    ("serve.execute_ns", "ns"),
    ("serve.coverage", "ratio"),
    ("engine.cache_hit_ratio", "ratio"),
    ("serve.route_memo_hit_ratio", "ratio"),
    ("engine.exec_us", "us"),
    ("engine.cache_miss_us", "us"),
    ("engine.ops_per_query", "count"),
    ("engine.rows_out_per_query", "count"),
    ("sched.jobs_per_query", "count"),
    ("loadgen.open_p99_us", "us"),
    ("loadgen.lateness_p99_us", "us"),
    ("online.route_first_us", "us"),
    ("online.dryrun_s", "s"),
    ("online.reopt_s", "s"),
    ("engine.materialize_s", "s"),
    ("serve.estimates_s", "s"),
    ("analyze.preflight_s", "s"),
    ("analyze.proved", "count"),
    ("analyze.unknown", "count"),
    ("serve.admitted", "count"),
    ("serve.dropped", "count"),
    ("serve.live_views", "count"),
    ("publish.coverage", "ratio"),
    ("trace.select_overhead_s", "s"),
    ("trace.service_overhead_us", "us"),
    ("host.cores", "count"),
];

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Client and dispatcher threads of the load generator: `nproc`.
    pub clients: usize,
}

impl Run {
    /// How long the timed phase runs.
    pub fn measure_for(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: check::Checks,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Seed of input instance `j` of a run. Instance 0 is the run's own seed;
/// the others derive from it, so the same seed gives the same inputs.
pub fn instance_seed(seed: u64, j: usize) -> u64 {
    if j == 0 {
        seed
    } else {
        seed ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Set up repeatedly and return set-up 0's state with the median set-up
/// time. Set-ups 1, 2, … are timed and dropped until at least [`SETUPS`]
/// have run, set-up 0 included, and [`SETUP_SECONDS`] have passed; then
/// set-up 0 is timed and kept. `setup` receives the set-up's index, so a
/// workload can vary its inputs between set-ups and still keep the same
/// state.
pub fn repeated_setup<T>(mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() + 1 < SETUPS || started.elapsed().as_secs_f64() < SETUP_SECONDS {
        let i = times.len() + 1;
        let (state, secs) = probe::timed(|| setup(i));
        drop(state);
        times.push(secs);
    }
    let (state, secs) = probe::timed(|| setup(0));
    times.push(secs);
    eprintln!(
        "setup_s: {} samples, min {:.4} median {:.4} max {:.4}",
        times.len(),
        times.iter().copied().fold(f64::INFINITY, f64::min),
        stats::median(&times),
        times.iter().copied().fold(0.0, f64::max)
    );
    (state, stats::median(&times))
}

/// Fewest set-ups whose median `setup_s` reports.
const SETUPS: usize = 3;
/// Least time the dropped set-ups take together.
const SETUP_SECONDS: f64 = 3.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                opts.insert(&k[2..], v);
            }
            _ => return usage(),
        }
    }
    let (Some(&workload), Some(seed), Some(seconds), Some(trace)) = (
        opts.get("workload"),
        opts.get("seed").and_then(|s| s.parse::<u64>().ok()),
        opts.get("seconds").and_then(|s| s.parse::<f64>().ok()),
        opts.get("trace").and_then(|s| match *s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    if !(seconds > 0.0 && seconds <= 600.0) || opts.len() != 4 {
        return usage();
    }
    if workload == "all" {
        return run_all(&args);
    }
    let run = Run {
        seed,
        seconds,
        trace,
        clients: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut out = match workload {
        "pipeline-job" => pipeline::run(&run),
        "serve-miss" => serving::miss(&run),
        _ => return usage(),
    };
    out.set("host.cores", run.clients as f64);
    report(workload, &out, trace)
}

/// Print the metrics as a table, then the JSON result line. Every
/// end-to-end metric must have been measured; a layer the workload does
/// not call reads 0.
fn report(workload: &str, out: &Outcome, trace: bool) -> ExitCode {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in list {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{workload:>14}  {name:<30} {value:>16.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let missing: Vec<&str> = list
        .iter()
        .filter(|(n, _)| !out.metrics.get(n).is_some_and(|v| v.is_finite()))
        .map(|(n, _)| *n)
        .collect();
    let mut correct = out.checks.passed();
    if !missing.is_empty() {
        if !trace {
            eprintln!(
                "{workload}: end-to-end metrics not measured: {}",
                missing.join(", ")
            );
            correct = false;
        } else {
            eprintln!(
                "{workload}: layers this workload does not call (reported as 0): {}",
                missing.join(", ")
            );
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in a fresh process of this program.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args = args.to_vec();
        let pos = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload given");
        child_args[pos + 1] = w.to_string();
        let status = Command::new(&exe)
            .args(&child_args)
            .status()
            .expect("start workload process");
        if !status.success() {
            eprintln!("{w}: failed ({status})");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
