//! Figure 4: the benchmark inventory — variants, features, and
//! training/test set sizes for each of the five benchmarks.

use nitro_bench::error::{exit_on_error, BenchResult};
use nitro_bench::{device, for_each_suite, Suite, SuiteSpec, SuiteVisitor};
use nitro_core::Context;

fn main() {
    exit_on_error(run());
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    println!(
        "== Figure 4: benchmark inventory (device: {}) ==\n",
        device().name
    );
    println!(
        "{:<10} {:>9} {:>9} {:>7} {:>7}  variants | features",
        "benchmark", "#variants", "#features", "#train", "#test"
    );
    for_each_suite(spec, &mut Inventory)?;
    println!("\npaper counts: SpMV (54,100)  Solvers (26,100)  BFS (20,148)  Histogram (200,1291)  Sort (120,600)");
    Ok(())
}

struct Inventory;

impl SuiteVisitor for Inventory {
    type Output = ();
    fn visit<I: Send + Sync + 'static>(
        &mut self,
        suite: Suite<'_, I>,
    ) -> BenchResult<Self::Output> {
        // The figure names the benchmarks as the paper's table does.
        let display = match suite.name {
            "spmv" => "SpMV",
            "solvers" => "Solvers",
            "bfs" => "BFS",
            "histogram" => "Histogram",
            "sort" => "Sort",
            other => other,
        };
        let cv = (suite.build)(&Context::new());
        let (variants, features) = (cv.variant_names(), cv.feature_names());
        println!(
            "{:<10} {:>9} {:>9} {:>7} {:>7}  {} | {}",
            display,
            variants.len(),
            features.len(),
            suite.train.len(),
            suite.test.len(),
            variants.join(", "),
            features.join(", ")
        );
        Ok(())
    }
}
