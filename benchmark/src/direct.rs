//! The workloads: one client thread calling a tuned registration in a
//! closed loop, over every test input in a seeded order.
//!
//! `paper-kernels` calls the live registrations of the five suites,
//! whose simulated kernels dominate each call. `replay-direct` calls
//! replay registrations of the same tuned suites, whose kernels cost
//! nearly nothing, so model prediction and dispatch bookkeeping make up
//! the call. `guard-direct` calls `GuardedVariant::call` on the replay
//! of the histogram suite (see `guard.rs`).

use std::time::Instant;

use nitro_ml::PredictScratch;
use nitro_tuner::{evaluate_selection, ProfileTable};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::calibrate::Interleaved;
use crate::guard;
use crate::setup::{tune_all, tune_suite, SetupCost, SuiteId, Tuned};
use crate::stats::{median, percentile, percentile_of, MIN_BEYOND};
use crate::{with_setups, Options, Report};

/// Calls made per suite to warm each registration up inside set-up
/// (compiles the SVM engine, touches the inputs).
const WARMUP_CALLS: usize = 16;

/// What a workload calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The five suites' live registrations.
    Live,
    /// Replays of the five suites.
    Replay,
    /// A guarded replay of the histogram suite.
    Guarded,
}

/// Set up the workload's suites, measure the untraced closed loop and,
/// when traced, time every layer of the call separately.
pub fn run(kind: Kind, opts: &Options, report: &mut Report) -> Result<(), String> {
    // The replay and the warm-up run on this thread, after the parallel
    // tuning: what the loop reads then lives in this thread's memory,
    // which keeps the replayed calls' timing steady from run to run.
    let setup = || {
        let suites = match kind {
            Kind::Guarded => vec![tune_suite(SuiteId::Histogram, opts.smoke)?],
            Kind::Live | Kind::Replay => tune_all(opts.smoke)?,
        };
        suites
            .into_iter()
            .map(|tuned| {
                let mut tuned = match kind {
                    Kind::Live => tuned,
                    Kind::Replay => tuned.into_replay(),
                    Kind::Guarded => guard::into_guarded(tuned)?,
                };
                for i in 0..WARMUP_CALLS.min(tuned.len()) {
                    tuned
                        .dispatch
                        .call(i)
                        .map_err(|e| format!("{}: warm-up call failed: {e}", tuned.id.name()))?;
                }
                Ok(tuned)
            })
            .collect::<Result<Vec<_>, String>>()
    };
    let cost = |suites: &Vec<Tuned>| {
        let mut total = SetupCost::default();
        suites.iter().for_each(|s| total.add(&s.cost));
        total
    };
    with_setups(report, setup, cost, |suites, report| {
        let mut order: Vec<(usize, usize)> = suites
            .iter()
            .enumerate()
            .flat_map(|(s, suite)| (0..suite.len()).map(move |i| (s, i)))
            .collect();
        order.shuffle(&mut StdRng::seed_from_u64(opts.seed));

        let untraced_p50 = measure(suites, &order, opts.seconds, report);
        if opts.trace {
            match kind {
                Kind::Guarded => guard::trace(&suites[0], &order, opts.seconds / 2.0, report),
                Kind::Live | Kind::Replay => {
                    trace_layers(suites, &order, opts.seconds / 2.0, untraced_p50, report)
                }
            }
        }
        Ok(())
    })
}

/// Whole passes over `order` until `seconds` have passed (at least one),
/// so every input is called equally often. Throughput is calls per
/// nominal second of the loop; the mean call time covers every call;
/// percentiles are taken per window of whole passes holding enough calls
/// for a supported p99, and the median across windows is reported.
/// Returns the untraced call median, ns.
fn measure(
    suites: &mut [Tuned],
    order: &[(usize, usize)],
    seconds: f64,
    report: &mut Report,
) -> f64 {
    let mut observed: Vec<Vec<usize>> = suites.iter().map(|s| s.offline.clone()).collect();
    let mut window: Vec<u32> = Vec::new();
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let (mut calls, mut total_ns) = (0usize, 0u64);
    let start = Instant::now();
    let mut loop_time = Interleaved::start();
    let mut passes = 0usize;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        for &(s, i) in order {
            loop_time.tick();
            let suite = &mut suites[s];
            let t = Instant::now();
            let result = suite.dispatch.call(i);
            window.push(saturating_ns(t));
            match result {
                Ok(inv) => {
                    observed[s][i] = inv.variant;
                    check_call(suite, i, inv.variant, inv.objective, report);
                }
                Err(e) => report.fail(format!("{} input {i}: call failed: {e}", suite.id.name())),
            }
        }
        passes += 1;
        if window.len() >= 100 * MIN_BEYOND {
            calls += window.len();
            total_ns += window.iter().map(|&ns| u64::from(ns)).sum::<u64>();
            p50s.push(percentile_of(&mut window, 0.5).value);
            p99s.push(percentile(&window, 0.99).value);
            window.clear();
        }
    }
    let time = loop_time.finish();
    calls += window.len();
    total_ns += window.iter().map(|&ns| u64::from(ns)).sum::<u64>();
    report.attempted += calls as u64;
    if p99s.is_empty() {
        report.invalid(format!("{calls} calls are too few for a supported p99"));
    }

    let perf = pooled_perf(
        suites
            .iter()
            .zip(&observed)
            .map(|(s, o)| (&s.table, &o[..])),
    );
    let offline = pooled_perf(suites.iter().map(|s| (&s.table, &s.offline[..])));
    if perf.to_bits() != offline.to_bits() {
        report.invalid(format!(
            "perf_vs_oracle {perf} differs from evaluate_selection {offline}"
        ));
    }

    let p50 = median(&p50s);
    report.set("perf_vs_oracle", perf);
    report.set("e2e.latency_mean_us", total_ns as f64 / calls as f64 / 1e3);
    report.set("throughput_rps", calls as f64 / time.nominal_s);
    report.set("e2e.throughput_wall_rps", calls as f64 / time.wall_s);
    report.set("host.speed", time.speed());
    report.set("e2e.latency_p50_us", p50 / 1e3);
    report.set("e2e.latency_p99_us", median(&p99s) / 1e3);
    eprintln!(
        "measured {calls} calls in {passes} passes over {:.2} s ({} inputs) at host speed {:.3}",
        time.wall_s,
        order.len(),
        time.speed()
    );
    p50
}

/// `evaluate_selection` over every suite, pooled by input count.
fn pooled_perf<'a>(selections: impl Iterator<Item = (&'a ProfileTable, &'a [usize])>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for (table, chosen) in selections {
        let summary = evaluate_selection(table, chosen);
        sum += summary.mean_relative_perf * summary.n_inputs as f64;
        n += summary.n_inputs;
    }
    sum / n.max(1) as f64
}

/// The checks every direct call must pass: the offline selection, and
/// the objective recorded when the test set was profiled.
pub fn check_call(suite: &Tuned, i: usize, variant: usize, objective: f64, report: &mut Report) {
    let expected = suite.offline[i];
    let recorded = suite.table.costs[i][variant];
    if variant != expected {
        report.fail(format!(
            "{} input {i}: selected variant {variant}, offline selection is {expected}",
            suite.id.name()
        ));
    } else if objective.to_bits() != recorded.to_bits() {
        report.fail(format!(
            "{} input {i}: objective {objective} differs from the recorded {recorded}",
            suite.id.name()
        ));
    }
}

/// The traced run: the decision `CodeVariant::call` makes, rebuilt from
/// the layers' public functions. Each input runs it twice: once timed
/// as one block, once with every step timed on its own. Whole passes
/// until `seconds` have passed.
fn trace_layers(
    suites: &[Tuned],
    order: &[(usize, usize)],
    seconds: f64,
    untraced_p50_ns: f64,
    report: &mut Report,
) {
    let n = suites.len();
    let mut features_ns: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut invoke_ns: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut predict_ns = Vec::new();
    let mut constraints_ns = Vec::new();
    let mut block_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let (mut kernel_evals, mut vetoes) = (0u64, 0usize);
    // One scratch per model, as each registration holds its own.
    let mut scratch: Vec<PredictScratch> = vec![PredictScratch::default(); n];

    let start = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        for &(s, i) in order {
            let suite = &suites[s];
            let last = suite.table.n_variants() - 1;
            let decide = |allowed: bool, predicted: usize| {
                if allowed {
                    predicted
                } else {
                    suite.default_variant.unwrap_or(0)
                }
            };

            let t = Instant::now();
            let features = suite.dispatch.features(i);
            let predicted = suite
                .model
                .predict_into(&features, &mut scratch[s])
                .min(last);
            let chosen = decide(suite.dispatch.constraints_ok(predicted, i), predicted);
            let result = suite.dispatch.invoke(chosen, i);
            block_ns.push(saturating_ns(t));
            check_invoke(suite, i, chosen, result, report);
            scratch[s].take_kernel_evals();

            let t0 = Instant::now();
            let features = suite.dispatch.features(i);
            let t1 = Instant::now();
            let predicted = suite
                .model
                .predict_into(&features, &mut scratch[s])
                .min(last);
            let t2 = Instant::now();
            let allowed = suite.dispatch.constraints_ok(predicted, i);
            let t3 = Instant::now();
            let chosen = decide(allowed, predicted);
            let result = suite.dispatch.invoke(chosen, i);
            let t4 = Instant::now();
            features_ns[s].push(between(t0, t1));
            predict_ns.push(between(t1, t2));
            constraints_ns.push(between(t2, t3));
            invoke_ns[s].push(between(t3, t4));
            traced_ns.push(between(t0, t4));
            check_invoke(suite, i, chosen, result, report);
            kernel_evals += scratch[s].take_kernel_evals();
            vetoes += usize::from(!allowed);
        }
        passes += 1;
    }
    let calls = predict_ns.len() as f64;
    report.attempted += 2 * predict_ns.len() as u64;

    let mut all_features: Vec<u32> = features_ns.concat();
    let mut all_invoke: Vec<u32> = invoke_ns.concat();
    report.set(
        "core.features_ns.p50",
        percentile_of(&mut all_features, 0.5).value,
    );
    report.set(
        "core.features_ns.p99",
        percentile(&all_features, 0.99).value,
    );
    report.set(
        "variant.invoke_ns.p50",
        percentile_of(&mut all_invoke, 0.5).value,
    );
    report.set("variant.invoke_ns.p99", percentile(&all_invoke, 0.99).value);
    for (s, suite) in suites.iter().enumerate() {
        let name = suite.id.name();
        report.set(
            format!("core.features_ns.p50.{name}"),
            percentile_of(&mut features_ns[s], 0.5).value,
        );
        report.set(
            format!("variant.invoke_ns.p50.{name}"),
            percentile_of(&mut invoke_ns[s], 0.5).value,
        );
    }
    report.set(
        "ml.predict_ns.p50",
        percentile_of(&mut predict_ns, 0.5).value,
    );
    report.set("ml.kernel_evals_per_predict", kernel_evals as f64 / calls);
    report.set(
        "core.constraints_ns.p50",
        percentile_of(&mut constraints_ns, 0.5).value,
    );
    report.set("core.veto_frac", vetoes as f64 / calls);
    let block_p50 = percentile_of(&mut block_ns, 0.5).value;
    report.set("core.bookkeeping_ns.p50", untraced_p50_ns - block_p50);
    report.set(
        "trace.overhead_frac",
        percentile_of(&mut traced_ns, 0.5).value / block_p50,
    );
    eprintln!("traced {calls} calls in {passes} passes");
}

/// Check a `try_run_variant` outcome like a call's.
pub fn check_invoke(
    suite: &Tuned,
    i: usize,
    chosen: usize,
    result: nitro_core::Result<f64>,
    report: &mut Report,
) {
    match result {
        Ok(objective) => check_call(suite, i, chosen, objective, report),
        // `try_run_variant` reports the infinite objective of a solver
        // that did not converge as an error; the profile recorded the
        // same outcome.
        Err(_) if !suite.table.costs[i][chosen].is_finite() => {
            check_call(suite, i, chosen, f64::INFINITY, report)
        }
        Err(e) => report.fail(format!("{} input {i}: {e}", suite.id.name())),
    }
}

/// Nanoseconds since `t`, saturated to `u32` (4.29 s).
pub fn saturating_ns(t: Instant) -> u32 {
    between(t, Instant::now())
}

/// Nanoseconds from `a` to `b`, saturated to `u32`.
pub fn between(a: Instant, b: Instant) -> u32 {
    (b - a).as_nanos().min(u128::from(u32::MAX)) as u32
}
