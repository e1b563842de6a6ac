//! Figure 5: per-benchmark performance of every individual variant and of
//! the Nitro-tuned selector, relative to the per-input best variant
//! ("100%" = always running the exhaustive-search winner).

use nitro_bench::error::{exit_on_error, BenchResult};
use nitro_bench::{pct, run_all, SuiteSpec};

fn main() {
    exit_on_error(run());
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    println!("== Figure 5: variant performance relative to exhaustive best ==");
    if spec.small {
        println!("(NITRO_SCALE=small — miniature collections)");
    }
    for suite in run_all(spec)? {
        println!(
            "\n--- {} (test inputs: {}) ---",
            suite.name, suite.nitro.n_inputs
        );
        let mut rows: Vec<(String, f64)> = suite
            .variant_names
            .iter()
            .zip(&suite.fixed)
            .map(|(n, s)| (n.clone(), s.mean_relative_perf))
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        for (name, perf) in rows {
            println!("  {:<22} {}", name, pct(perf));
        }
        println!(
            "  {:<22} {}   <- Nitro-tuned",
            "Nitro",
            pct(suite.nitro.mean_relative_perf)
        );
        let best_fixed = suite
            .fixed
            .iter()
            .map(|s| s.mean_relative_perf)
            .fold(0.0f64, f64::max);
        if suite.nitro.mean_relative_perf >= best_fixed {
            println!("  (Nitro beats every single variant, as in the paper)");
        } else {
            println!(
                "  (best fixed variant reaches {} — Nitro trails it)",
                pct(best_fixed)
            );
        }
    }
    Ok(())
}
