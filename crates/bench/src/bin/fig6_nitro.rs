//! Figure 6: average performance of Nitro-selected variants relative to
//! exhaustive search, per benchmark — plus the §V-A side results: the
//! SpMV ≥70%/≥90% input fractions and the solver convergence-selection
//! statistics.

use nitro_bench::error::{exit_on_error, BenchResult};
use nitro_bench::{convergence_stats, pct, run_all, SuiteSpec};

/// The paper's Figure-6 numbers, for side-by-side comparison.
const PAPER: [(&str, f64); 5] = [
    ("spmv", 0.9374),
    ("solvers", 0.9323),
    ("bfs", 0.9792),
    ("histogram", 0.9416),
    ("sort", 0.9925),
];

fn main() {
    exit_on_error(run());
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    println!("== Figure 6: Nitro vs exhaustive search ==");
    if spec.small {
        println!("(NITRO_SCALE=small — miniature collections)");
    }
    println!(
        "\n{:<10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "benchmark", "nitro", "paper", ">=70%", ">=90%", "mispred"
    );
    for suite in run_all(spec)? {
        let paper = PAPER
            .iter()
            .find(|(n, _)| *n == suite.name)
            .map(|(_, p)| *p);
        println!(
            "{:<10} {:>10} {:>10} {:>8} {:>8} {:>7}",
            suite.name,
            pct(suite.nitro.mean_relative_perf),
            paper.map(pct).unwrap_or_default(),
            pct(suite.nitro.frac_ge_70),
            pct(suite.nitro.frac_ge_90),
            suite.nitro.mispredictions,
        );

        if suite.name == "solvers" {
            let stats = convergence_stats(&suite.test_table, &suite.model, suite.default_variant);
            println!(
                "           convergence: {} unsolvable systems (paper: 6); {} systems with a failing variant (paper: 35); Nitro picked a converging variant {}/{} times (paper: 33/35)",
                stats.unsolvable,
                stats.partially_failing,
                stats.nitro_picked_converging,
                stats.partially_failing
            );
        }
        if suite.name == "spmv" {
            println!(
                "           paper: >90% of matrices reach >=70% and ~80% reach >=90% of exhaustive-search performance"
            );
        }
    }
    Ok(())
}
