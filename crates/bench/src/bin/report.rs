//! One-shot report: run every benchmark suite and write a consolidated
//! markdown report (stdout + `target/nitro-report.md`). A compact way to
//! regenerate the core of EXPERIMENTS.md after any change.

use std::fmt::Write as _;

use nitro_bench::error::{exit_on_error, write_file, BenchResult};
use nitro_bench::{convergence_stats, run_all, target_path, SuiteSpec, COLLECTION_SEED};
use nitro_ml::classification_report;

fn main() {
    exit_on_error(run());
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    let mut md = String::new();
    let w = &mut md;

    let _ = writeln!(w, "# Nitro reproduction report\n");
    let _ = writeln!(
        w,
        "Scale: {} · seed {:#x} · device: {}\n",
        if spec.small {
            "small"
        } else {
            "full (paper-sized)"
        },
        COLLECTION_SEED,
        nitro_bench::device().name
    );

    let _ = writeln!(w, "## Nitro vs exhaustive search (Figure 6)\n");
    let _ = writeln!(
        w,
        "| benchmark | inputs | nitro | ≥70% | ≥90% | mispred | macro-F1 |"
    );
    let _ = writeln!(w, "|---|---|---|---|---|---|---|");

    let suites = run_all(spec)?;
    for suite in &suites {
        // Selection-quality diagnostics on the test set's labeled subset.
        let test_data = suite.test_table.dataset();
        let preds: Vec<usize> = test_data.x.iter().map(|x| suite.model.predict(x)).collect();
        let report = classification_report(&test_data, &preds);
        let _ = writeln!(
            w,
            "| {} | {} | {:.2}% | {:.1}% | {:.1}% | {} | {:.3} |",
            suite.name,
            suite.nitro.n_inputs,
            suite.nitro.mean_relative_perf * 100.0,
            suite.nitro.frac_ge_70 * 100.0,
            suite.nitro.frac_ge_90 * 100.0,
            suite.nitro.mispredictions,
            report.macro_f1,
        );
    }

    let _ = writeln!(w, "\n## Per-variant performance (Figure 5)\n");
    for suite in &suites {
        let _ = writeln!(w, "### {}\n", suite.name);
        let _ = writeln!(w, "| variant | % of best |");
        let _ = writeln!(w, "|---|---|");
        let mut rows: Vec<(String, f64)> = suite
            .variant_names
            .iter()
            .zip(&suite.fixed)
            .map(|(n, s)| (n.clone(), s.mean_relative_perf))
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        for (name, perf) in rows {
            let _ = writeln!(w, "| {name} | {:.2}% |", perf * 100.0);
        }
        let _ = writeln!(
            w,
            "| **Nitro** | **{:.2}%** |\n",
            suite.nitro.mean_relative_perf * 100.0
        );
    }

    if let Some(solvers) = suites.iter().find(|s| s.name == "solvers") {
        let stats = convergence_stats(&solvers.test_table, &solvers.model, solvers.default_variant);
        let _ = writeln!(w, "## Solver convergence (§V-A)\n");
        let _ = writeln!(w, "- unsolvable systems: {} (paper: 6)", stats.unsolvable);
        let _ = writeln!(
            w,
            "- systems with ≥1 failing variant: {} (paper: 35)",
            stats.partially_failing
        );
        let _ = writeln!(
            w,
            "- Nitro picked a converging variant {}/{} times (paper: 33/35)\n",
            stats.nitro_picked_converging, stats.partially_failing
        );
    }

    print!("{md}");
    let path = target_path("nitro-report.md");
    write_file(&path, &md)?;
    eprintln!("(report written to {})", path.display());
    Ok(())
}
