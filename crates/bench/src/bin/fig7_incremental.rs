//! Figure 7: incremental tuning — performance (relative to exhaustive
//! search) as a function of Best-vs-Second-Best active-learning
//! iterations, compared against training on the full training set.
//!
//! Paper: the number of iterations required to reach within 90% of the
//! performance achieved without incremental tuning is roughly 25
//! iterations. To match it, incremental tuning takes no more than 50.

use nitro_bench::error::{exit_on_error, BenchResult};
use nitro_bench::{
    cached_table, for_each_suite, incremental_curve_with_report, pct, phase_breakdown, Suite,
    SuiteSpec, SuiteVisitor,
};
use nitro_core::Context;
use nitro_tuner::{evaluate_model, Autotuner, ProfileTable};

const MAX_ITERS: usize = 50;

fn main() {
    exit_on_error(run());
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    println!("== Figure 7: incremental tuning (BvSB active learning) ==");
    if spec.small {
        println!("(NITRO_SCALE=small — miniature collections)");
    }
    for_each_suite(spec, &mut Fig7 { spec })?;
    Ok(())
}

struct Fig7 {
    spec: SuiteSpec,
}

impl SuiteVisitor for Fig7 {
    type Output = ();
    fn visit<I: Send + Sync + 'static>(
        &mut self,
        suite: Suite<'_, I>,
    ) -> BenchResult<Self::Output> {
        let spec = self.spec;
        let max_iters = if spec.small { 10 } else { MAX_ITERS };
        let cv = &mut (suite.build)(&Context::new());
        let test_table = &cached_table(&spec.tag(suite.name, "test"), cv, suite.test, spec.cache);

        // Baseline: full-training-set performance.
        cv.policy_mut().incremental = None;
        let train_table = ProfileTable::build(cv, suite.train);
        Autotuner::new().tune_from_table(cv, &train_table)?;
        let full_model = cv.export_artifact()?.model;
        let full = evaluate_model(test_table, &full_model, cv.default_variant()).mean_relative_perf;

        let (curve, tune) = incremental_curve_with_report(cv, suite.train, test_table, max_iters)?;

        println!(
            "\n--- {} (full-training performance: {}) ---",
            suite.name,
            pct(full)
        );
        println!("  iter  perf      % of full-training");
        let mut reached_90 = None;
        let mut reached_100 = None;
        for &(i, perf) in &curve {
            let frac = if full > 0.0 { perf / full } else { 0.0 };
            if reached_90.is_none() && frac >= 0.90 {
                reached_90 = Some(i);
            }
            if reached_100.is_none() && frac >= 0.999 {
                reached_100 = Some(i);
            }
            // Print a decimated curve: every iteration up to 10, then every 5.
            if i <= 10 || i % 5 == 0 || i + 1 == curve.len() {
                println!("  {:>4}  {}  {:>6.1}%", i, pct(perf), frac * 100.0);
            }
        }
        println!(
        "  reached 90% of full-training at iteration {:?}; matched it at {:?} (paper: ~25 and <=50)",
        reached_90, reached_100
    );
        let breakdown = phase_breakdown(&tune, "    ");
        if !breakdown.is_empty() {
            println!("  incremental tuning time by phase:\n{breakdown}");
        }
        Ok(())
    }
}
