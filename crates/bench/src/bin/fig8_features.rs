//! Figure 8: performance and feature-evaluation overhead as features are
//! added in order of increasing evaluation cost.
//!
//! Paper §V-C: BFS performance "depends almost entirely on the Average
//! Out-Degree"; BFS and Sort end up with O(1) feature sets and negligible
//! overhead; SpMV and Solvers need their expensive features for peak
//! performance, amortized over repeated executions.

use std::any::Any;

use nitro_bench::error::{exit_on_error, BenchResult};
use nitro_bench::{
    cached_table, device, feature_subset_sweep, for_each_suite, pct, Suite, SuiteSpec, SuiteVisitor,
};
use nitro_core::Context;
use nitro_histogram::HistInput;

fn main() {
    exit_on_error(run());
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    println!("== Figure 8: feature subsets (cheapest first) ==");
    if spec.small {
        println!("(NITRO_SCALE=small — miniature collections)");
    }
    for_each_suite(spec, &mut Fig8 { spec })?;
    Ok(())
}

struct Fig8 {
    spec: SuiteSpec,
}

impl SuiteVisitor for Fig8 {
    type Output = ();
    fn visit<I: Send + Sync + 'static>(
        &mut self,
        suite: Suite<'_, I>,
    ) -> BenchResult<Self::Output> {
        let (spec, name) = (self.spec, suite.name);
        let cv = (suite.build)(&Context::new());
        let train_table = cached_table(&spec.tag(name, "train"), &cv, suite.train, spec.cache);
        let test_table = cached_table(&spec.tag(name, "test"), &cv, suite.test, spec.cache);
        println!("\n--- {name} ---");
        println!("  k  perf      overhead  features");
        for r in feature_subset_sweep(&cv, suite.test, &train_table, &test_table) {
            println!(
                "  {}  {}  {:>7.3}%  {}",
                r.k,
                pct(r.perf),
                r.overhead_frac * 100.0,
                r.features.join(", ")
            );
        }

        // The §V-C sub-experiment belongs to histogram alone, the one
        // suite with a tunable feature: shrinking the SubSampleSD sample
        // cuts its overhead with only a small performance cost.
        if name == "histogram" {
            let input = (&suite.test[0] as &dyn Any)
                .downcast_ref::<HistInput>()
                .expect("the histogram suite's inputs are HistInputs");
            println!("  SubSampleSD sample-size sensitivity:");
            for cap in [10_000usize, 2_000, 500] {
                let cv2 = nitro_histogram::variants::build_code_variant_with_subsample(
                    &Context::new(),
                    &device(),
                    cap,
                );
                let (_, cost) = cv2.evaluate_features(input);
                println!("    cap {:>6}: feature cost {:>10.0} ns", cap, cost);
            }
        }
        Ok(())
    }
}
