//! Quickstart: tune a two-variant function in ~30 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The "computation" is synthetic — variant A is fast on small inputs,
//! variant B on large ones — but the workflow is exactly the paper's:
//! register variants and features, hand the autotuner training inputs,
//! and call the tuned function on unseen data.

use nitro::core::{CodeVariant, Context, FnFeature, FnVariant};
use nitro::trace::MetricsRegistry;
use nitro::tuner::Autotuner;

fn main() {
    // 1. Create a tuning context and a code_variant (paper Table I).
    let ctx = Context::new();
    let mut compute = CodeVariant::<Vec<f64>>::new("compute", &ctx);

    // 2. Register functionally equivalent variants. They return their
    //    objective value — by convention, simulated time in nanoseconds.
    compute.add_variant(FnVariant::new("linear-scan", |v: &Vec<f64>| {
        40.0 + v.len() as f64 * 1.0
    }));
    compute.add_variant(FnVariant::new("blocked", |v: &Vec<f64>| {
        2_000.0 + v.len() as f64 * 0.25
    }));
    compute.set_default(0);

    // 3. Register the meta-information: input features.
    compute.add_input_feature(FnFeature::new("n", |v: &Vec<f64>| v.len() as f64));

    // 4. Train on representative inputs (exhaustive search + SVM).
    let training: Vec<Vec<f64>> = (1..40).map(|i| vec![0.0; i * 128]).collect();
    let report = Autotuner::new()
        .tune(&mut compute, &training)
        .expect("tuning succeeds");
    println!(
        "trained on {} inputs (classes: {:?}, cv accuracy: {:?})",
        report.training_inputs, report.class_counts, report.cv_accuracy
    );

    // 5. Call the tuned function on unseen inputs: Nitro picks a variant
    //    and counts each dispatch in the bound registry.
    let metrics = MetricsRegistry::new();
    compute.bind_metrics(&metrics);
    for n in [64usize, 1_024, 2_048, 4_096] {
        let input = vec![0.0; n];
        let outcome = compute.call(&input).expect("dispatch succeeds");
        println!(
            "n = {:>5}  ->  {:<12} ({:.0} ns simulated)",
            n, outcome.variant_name, outcome.objective
        );
    }

    // The crossover (40 + n = 2000 + n/4 at n ≈ 2613) is learned, not
    // hard-coded.
    let count = |name: &str| metrics.counter_value(name).unwrap_or(0);
    let wins: Vec<u64> = compute
        .variant_names()
        .iter()
        .map(|v| count(&format!("dispatch.compute.win.{v}")))
        .collect();
    println!(
        "dispatches: {} (per-variant: {wins:?})",
        count("dispatch.compute.calls")
    );
}
