//! The guarded workload: `GuardedVariant::call` in a closed loop over the
//! replay registration of the histogram suite.
//!
//! Every request the serving front answers in its Full tier runs
//! `GuardedVariant::call`: features, a ranked cascade from the model,
//! breaker and health bookkeeping, then the head variant. On a replay
//! the variant costs nearly nothing, so the model's ranking and the
//! guard's bookkeeping make up the call. Histogram has the largest model
//! of the five suites (199 SVM kernel evaluations per predict).
//!
//! An open loop through a one-shard `ServeFront` at twice its capacity
//! measured the same path with admission and shedding around it, but on
//! the two-vCPU machine the benchmark was built on its goodput followed
//! the host: five runs spread by 0.23 of their median, and a run in which
//! the host stalled served a fifth of the usual requests. A closed loop
//! on one thread can be scaled to the nominal host (see `calibrate.rs`);
//! an open loop's offered rate cannot.

use std::sync::Arc;
use std::time::Instant;

use nitro_core::Invocation;
use nitro_guard::{GuardPolicy, GuardedVariant};
use nitro_ml::PredictScratch;
use nitro_tuner::ProfileTable;

use crate::direct::{between, check_call, check_invoke, saturating_ns};
use crate::replay::Replay;
use crate::setup::{Dispatch, Tuned};
use crate::stats::{percentile, percentile_of};
use crate::Report;

/// A guarded replay registration; its inputs are the indices of the
/// profiled test set.
struct Guarded(Arc<GuardedVariant<usize>>);

impl Dispatch for Guarded {
    fn call(&mut self, i: usize) -> nitro_core::Result<Invocation> {
        let inv = self.0.call(&i)?;
        Ok(Invocation {
            variant: inv.variant,
            variant_name: inv.variant_name,
            objective: inv.objective,
            features: inv.features,
            feature_cost_ns: inv.feature_cost_ns,
            fell_back_to_default: inv.fell_back,
        })
    }

    fn features(&self, i: usize) -> Vec<f64> {
        self.0.inner().evaluate_features(&i).0
    }

    fn constraints_ok(&self, v: usize, i: usize) -> bool {
        self.0.inner().constraints_satisfied(v, &i)
    }

    fn invoke(&self, v: usize, i: usize) -> nitro_core::Result<f64> {
        self.0.inner().try_run_variant(v, &i)
    }

    fn replay(&self, table: &ProfileTable) -> Replay {
        let inputs: Vec<usize> = (0..table.len()).collect();
        Replay::new(self.0.inner(), &inputs, table)
    }
}

/// Swap a tuned suite's registration for a guarded replay of it. The
/// offline selection becomes the head of the guard's cascade: the guard
/// ranks variants by the model's posteriors, which need not put the
/// vote winner first.
pub fn into_guarded(mut tuned: Tuned) -> Result<Tuned, String> {
    let replay = tuned.replay();
    let guard = GuardedVariant::new(replay.registration(), GuardPolicy::default())
        .map_err(|e| format!("{}: guard: {e}", tuned.id.name()))?;
    tuned.offline = (0..replay.len())
        .map(|i| {
            let features = guard.inner().evaluate_features(&i).0;
            guard.plan_cascade(&features, &i)[0]
        })
        .collect();
    let guard = Arc::new(guard);
    tuned.guard = Some(Arc::clone(&guard));
    tuned.dispatch = Box::new(Guarded(guard));
    Ok(tuned)
}

/// The guard layer, timed from outside. Each input runs
/// `GuardedVariant::call`, then the steps the guard takes from their
/// public functions timed as one block, then the same steps each timed
/// on its own, then the model and constraint steps inside
/// `plan_cascade` on their own. Whole passes over `order` until
/// `seconds` have passed.
pub fn trace(suite: &Tuned, order: &[(usize, usize)], seconds: f64, report: &mut Report) {
    let guard = suite
        .guard
        .as_deref()
        .expect("the guarded workload keeps its guard");
    let cv = guard.inner();
    let model = &suite.model;
    let last = cv.n_variants() - 1;

    let mut call_ns = Vec::new();
    let mut block_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut features_ns = Vec::new();
    let mut plan_ns = Vec::new();
    let mut invoke_ns = Vec::new();
    let mut predict_ns = Vec::new();
    let mut rank_ns = Vec::new();
    let mut constraints_ns = Vec::new();
    let (mut cascade_len, mut fallbacks, mut retries) = (0usize, 0u64, 0u64);
    let (mut kernel_evals, mut vetoes) = (0u64, 0usize);
    let mut scratch = PredictScratch::default();
    let start = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        for &(_, i) in order {
            let t = Instant::now();
            let result = guard.call(&i);
            call_ns.push(saturating_ns(t));
            match result {
                Ok(inv) => {
                    check_call(suite, i, inv.variant, inv.objective, report);
                    cascade_len += inv.cascade.len();
                    fallbacks += u64::from(inv.fell_back);
                    retries += u64::from(inv.retries);
                }
                Err(e) => report.fail(format!("input {i}: guarded call failed: {e}")),
            }

            let t = Instant::now();
            let (features, _) = cv.evaluate_features(&i);
            let head = guard.plan_cascade(&features, &i)[0];
            let result = cv.try_run_variant(head, &i);
            block_ns.push(saturating_ns(t));
            check_invoke(suite, i, head, result, report);

            let t0 = Instant::now();
            let (features, _) = cv.evaluate_features(&i);
            let t1 = Instant::now();
            let head = guard.plan_cascade(&features, &i)[0];
            let t2 = Instant::now();
            let result = cv.try_run_variant(head, &i);
            let t3 = Instant::now();
            features_ns.push(between(t0, t1));
            plan_ns.push(between(t1, t2));
            invoke_ns.push(between(t2, t3));
            traced_ns.push(between(t0, t3));
            check_invoke(suite, i, head, result, report);

            let t0 = Instant::now();
            let predicted = model.predict_into(&features, &mut scratch).min(last);
            let t1 = Instant::now();
            std::hint::black_box(model.rank(&features));
            let t2 = Instant::now();
            let allowed = cv.constraints_satisfied(predicted, &i);
            let t3 = Instant::now();
            predict_ns.push(between(t0, t1));
            rank_ns.push(between(t1, t2));
            constraints_ns.push(between(t2, t3));
            kernel_evals += scratch.take_kernel_evals();
            vetoes += usize::from(!allowed);
        }
        passes += 1;
    }
    let calls = call_ns.len() as f64;
    report.attempted += 3 * call_ns.len() as u64;
    let call_p50 = percentile_of(&mut call_ns, 0.5).value;
    let block_p50 = percentile_of(&mut block_ns, 0.5).value;
    let features = percentile_of(&mut features_ns, 0.5);
    let invoke = percentile_of(&mut invoke_ns, 0.5);
    let name = suite.id.name();
    report.set("core.features_ns.p50", features.value);
    report.set("core.features_ns.p99", percentile(&features_ns, 0.99).value);
    report.set(format!("core.features_ns.p50.{name}"), features.value);
    report.set("variant.invoke_ns.p50", invoke.value);
    report.set("variant.invoke_ns.p99", percentile(&invoke_ns, 0.99).value);
    report.set(format!("variant.invoke_ns.p50.{name}"), invoke.value);
    report.set(
        "ml.predict_ns.p50",
        percentile_of(&mut predict_ns, 0.5).value,
    );
    report.set("ml.kernel_evals_per_predict", kernel_evals as f64 / calls);
    report.set("ml.rank_ns.p50", percentile_of(&mut rank_ns, 0.5).value);
    report.set(
        "core.constraints_ns.p50",
        percentile_of(&mut constraints_ns, 0.5).value,
    );
    report.set("core.veto_frac", vetoes as f64 / calls);
    report.set("guard.call_ns.p50", call_p50);
    report.set("guard.plan_ns.p50", percentile_of(&mut plan_ns, 0.5).value);
    report.set("guard.bookkeeping_ns.p50", call_p50 - block_p50);
    report.set("guard.cascade_len.mean", cascade_len as f64 / calls);
    report.set("guard.fallback_frac", fallbacks as f64 / calls);
    report.set("guard.retries_per_call", retries as f64 / calls);
    report.set(
        "trace.overhead_frac",
        percentile_of(&mut traced_ns, 0.5).value / block_p50,
    );
    eprintln!("traced {calls} guarded calls in {passes} passes");
}
