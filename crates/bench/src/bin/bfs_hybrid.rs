//! §V-A BFS vs Hybrid: the paper's comparison against Back40's dynamic
//! Hybrid kernel.
//!
//! Paper: "The Nitro-tuned version was able to beat the performance of
//! the Hybrid version by 11% on average … [Hybrid's] average performance
//! was 88.14% of the best variant."

use nitro_bench::error::{exit_on_error, BenchResult};
use nitro_bench::{bfs_sets, cached_table, device, pct, SuiteSpec};
use nitro_core::Context;
use nitro_tuner::{evaluate_model, Autotuner};

fn main() {
    exit_on_error(run());
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    let cfg = device();
    println!("== BFS: Nitro-tuned vs the dynamic Hybrid variant (paper §V-A) ==");
    if spec.small {
        println!("(NITRO_SCALE=small — miniature collections)");
    }

    let ctx = Context::new();
    let mut cv = nitro_graph::bfs::build_code_variant(&ctx, &cfg);
    let (train, test) = bfs_sets(spec);
    let test_table = cached_table(&spec.tag("bfs", "test"), &cv, &test, spec.cache);
    let train_table = cached_table(&spec.tag("bfs", "train"), &cv, &train, spec.cache);
    Autotuner::new().tune_from_table(&mut cv, &train_table)?;
    let model = cv.export_artifact()?.model;
    let nitro = evaluate_model(&test_table, &model, cv.default_variant());

    // Hybrid relative performance per input: hybrid TEPS / best TEPS.
    let mut hybrid_rel = Vec::with_capacity(test.len());
    for (i, input) in test.iter().enumerate() {
        let Some(best) = test_table.best_cost(i) else {
            continue;
        };
        let teps = input.hybrid_teps(&cfg);
        hybrid_rel.push((teps / best).clamp(0.0, 1.0));
    }
    let hybrid_mean = hybrid_rel.iter().sum::<f64>() / hybrid_rel.len().max(1) as f64;

    println!("\n  graphs evaluated: {}", hybrid_rel.len());
    println!(
        "  Nitro-tuned : {} of best   (paper: 97.92%)",
        pct(nitro.mean_relative_perf)
    );
    println!(
        "  Hybrid      : {} of best   (paper: 88.14%)",
        pct(hybrid_mean)
    );
    let advantage = nitro.mean_relative_perf / hybrid_mean - 1.0;
    println!(
        "  Nitro beats Hybrid by {:.1}% on average (paper: ~11%)",
        advantage * 100.0
    );

    // Breakdown by group: which variant wins where.
    println!("\n  selected-variant breakdown:");
    let mut selection_counts = vec![0usize; test_table.n_variants()];
    for i in 0..test_table.len() {
        let pred = model
            .predict(&test_table.features[i])
            .min(test_table.n_variants() - 1);
        selection_counts[pred] += 1;
    }
    for (name, count) in test_table.variant_names.iter().zip(&selection_counts) {
        if *count > 0 {
            println!("    {:<14} selected for {:>4} graphs", name, count);
        }
    }
    println!("  (paper: \"one of CE-Fused or 2-Phase-Fused was almost always selected\")");
    Ok(())
}
