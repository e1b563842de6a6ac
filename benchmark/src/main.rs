//! The repository benchmark.
//!
//! ```text
//! cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Workloads: `paper-kernels`, `replay-direct`, `guard-direct` (see
//! `benchmark/README.md` for why each exists). Each run prints every
//! metric as `name value unit`, then one JSON object as its last line.
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a
//! traced run (`--trace 1`) times each layer's public functions
//! separately and reports the per-layer metrics, with 0 for a layer the
//! workload does not exercise. Set-up times and throughput are scaled
//! to a host of nominal speed (see `calibrate.rs`). The run exits
//! nonzero when an output check fails. `--smoke` uses the miniature
//! collections.

mod calibrate;
mod direct;
mod guard;
mod replay;
mod setup;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use calibrate::{nominal_seconds, PhaseTime};
use direct::Kind;
use setup::SetupCost;
use stats::median;

/// Metrics an untraced run reports: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("perf_vs_oracle", "ratio"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics a traced run reports: `(name, unit)`.
const PER_LAYER: &[(&str, &str)] = &[
    ("e2e.latency_mean_us", "us"),
    ("e2e.latency_p50_us", "us"),
    ("e2e.latency_p99_us", "us"),
    ("e2e.throughput_wall_rps", "1/s"),
    ("e2e.setup_wall_s", "s"),
    ("host.speed", "ratio"),
    ("gen.collections_s", "s"),
    ("tuner.profile_s", "s"),
    ("tuner.train_s", "s"),
    ("ml.train_kernel_evals", "count"),
    ("ml.train_cache_hit_rate", "ratio"),
    ("core.features_ns.p50", "ns"),
    ("core.features_ns.p99", "ns"),
    ("core.features_ns.p50.spmv", "ns"),
    ("core.features_ns.p50.solvers", "ns"),
    ("core.features_ns.p50.bfs", "ns"),
    ("core.features_ns.p50.histogram", "ns"),
    ("core.features_ns.p50.sort", "ns"),
    ("variant.invoke_ns.p50", "ns"),
    ("variant.invoke_ns.p99", "ns"),
    ("variant.invoke_ns.p50.spmv", "ns"),
    ("variant.invoke_ns.p50.solvers", "ns"),
    ("variant.invoke_ns.p50.bfs", "ns"),
    ("variant.invoke_ns.p50.histogram", "ns"),
    ("variant.invoke_ns.p50.sort", "ns"),
    ("ml.predict_ns.p50", "ns"),
    ("ml.kernel_evals_per_predict", "count"),
    ("core.constraints_ns.p50", "ns"),
    ("core.veto_frac", "ratio"),
    ("core.bookkeeping_ns.p50", "ns"),
    ("ml.rank_ns.p50", "ns"),
    ("guard.call_ns.p50", "ns"),
    ("guard.plan_ns.p50", "ns"),
    ("guard.bookkeeping_ns.p50", "ns"),
    ("guard.cascade_len.mean", "count"),
    ("guard.fallback_frac", "ratio"),
    ("guard.retries_per_call", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Problem messages kept for the report (the count is always exact).
const MAX_PROBLEMS: usize = 20;

/// What the workload named `name` calls.
fn workload_kind(name: &str) -> Option<Kind> {
    match name {
        "paper-kernels" => Some(Kind::Live),
        "replay-direct" => Some(Kind::Replay),
        "guard-direct" => Some(Kind::Guarded),
        _ => None,
    }
}

/// Command-line options.
pub struct Options {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut smoke = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload =
                        Some(workload_kind(&name).ok_or(format!("unknown workload '{name}'"))?);
                }
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err(format!("--seconds {s} is outside (0, 60]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                    }
                }
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            smoke,
        })
    }
}

/// Metric values and check outcomes of one run.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Operations the measurement attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    problems: Vec<String>,
    problem_count: usize,
}

impl Report {
    /// Record a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// An operation failed or returned a wrong output.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.invalid(problem);
    }

    /// A check on the run failed.
    pub fn invalid(&mut self, problem: String) {
        self.problem_count += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(problem);
        }
    }

    fn correct(&self) -> bool {
        self.problem_count == 0
    }
}

/// Set up, measure, then set up again until there are [`SETUP_REPEATS`]
/// set-ups for the `setup_s` median. The extra set-ups run after the
/// measurement, each dropped before the next starts, so neither the
/// measurement nor `peak_rss_mb` sees memory they leave behind. Each
/// set-up is timed in nominal seconds, and so are its layers' costs.
pub fn with_setups<T>(
    report: &mut Report,
    setup: impl Fn() -> Result<T, String>,
    cost: impl Fn(&T) -> SetupCost,
    measure: impl FnOnce(&mut T, &mut Report) -> Result<(), String>,
) -> Result<(), String> {
    let mut setups: Vec<(PhaseTime, SetupCost)> = Vec::with_capacity(SETUP_REPEATS);
    let mut timed_setup = || {
        let (value, time) = nominal_seconds(&setup);
        let value = value?;
        setups.push((time, cost(&value)));
        Ok::<T, String>(value)
    };
    let mut measured = timed_setup()?;
    measure(&mut measured, report)?;
    report.set("peak_rss_mb", peak_rss_mb()?);
    drop(measured);
    for _ in 1..SETUP_REPEATS {
        drop(timed_setup()?);
    }

    let median_of =
        |f: fn(&(PhaseTime, SetupCost)) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    report.set("setup_s", median_of(|s| s.0.nominal_s));
    report.set("e2e.setup_wall_s", median_of(|s| s.0.wall_s));
    report.set("gen.collections_s", median_of(|s| s.1.gen_s * s.0.speed()));
    report.set(
        "tuner.profile_s",
        median_of(|s| s.1.profile_s * s.0.speed()),
    );
    report.set("tuner.train_s", median_of(|s| s.1.train_s * s.0.speed()));
    // Deterministic: every set-up trains the same models.
    let first = setups[0].1;
    report.set("ml.train_kernel_evals", first.kernel_evals as f64);
    report.set("ml.train_cache_hit_rate", first.cache_hit_rate());
    Ok(())
}

/// Peak resident set size (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kib / 1024.0)
}

/// Print every metric of the run's set as `name value unit`, then the
/// result object as the last line. A layer the workload does not
/// exercise reads 0; an end-to-end metric must always be measured.
fn print(report: &mut Report, trace: bool) {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = match report.values.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => {
                report.invalid(format!("{name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            report.invalid(format!("{name} is not finite"));
        }
        println!("{name} {value} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    if report.attempted == 0 {
        report.invalid("the measurement attempted nothing".into());
    }
    for p in &report.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    if report.problem_count > report.problems.len() {
        eprintln!(
            "... and {} more failed checks",
            report.problem_count - report.problems.len()
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    if let Err(e) = direct::run(opts.workload, &opts, &mut report) {
        eprintln!("benchmark: {e}");
        return ExitCode::FAILURE;
    }
    print(&mut report, opts.trace);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
