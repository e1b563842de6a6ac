//! Ablation: classifier families across all five benchmarks.
//!
//! The paper defaults to an RBF SVM but notes (§VI) that other learning
//! techniques "can be integrated into Nitro's learning sub-system". This
//! harness swaps the Table-II `classifier` option across SVM (with and
//! without grid search), kNN and a decision tree, and reports the test
//! performance of each.

use nitro_bench::error::{exit_on_error, BenchResult};
use nitro_bench::{pct, run_all, SuiteSpec};
use nitro_core::{ClassifierConfig, TrainedModel};
use nitro_ml::{ForestParams, TreeParams};
use nitro_tuner::evaluate_model;

fn main() {
    exit_on_error(run());
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    println!("== Ablation: classifier choice (Table II `classifier`) ==");
    if spec.small {
        println!("(NITRO_SCALE=small — miniature collections)");
    }

    let configs: Vec<(&str, ClassifierConfig)> = vec![
        (
            "svm+grid",
            ClassifierConfig::Svm {
                c: None,
                gamma: None,
                grid_search: true,
                cache_bytes: None,
            },
        ),
        (
            "svm-fixed",
            ClassifierConfig::Svm {
                c: Some(8.0),
                gamma: Some(0.5),
                grid_search: false,
                cache_bytes: None,
            },
        ),
        ("knn-3", ClassifierConfig::Knn { k: 3 }),
        ("tree", ClassifierConfig::Tree(TreeParams::default())),
        ("forest", ClassifierConfig::Forest(ForestParams::default())),
    ];

    println!(
        "\n{:<10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "benchmark", "svm+grid", "svm-fixed", "knn-3", "tree", "forest"
    );
    for suite in run_all(spec)? {
        let data = suite.train_table.dataset();
        let mut cells = Vec::new();
        for (_, config) in &configs {
            let model = TrainedModel::train(config, &data);
            let summary = evaluate_model(&suite.test_table, &model, suite.default_variant);
            cells.push(pct(summary.mean_relative_perf));
        }
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>12} {:>12}",
            suite.name, cells[0], cells[1], cells[2], cells[3], cells[4]
        );
    }
    println!("\n(100% = always selecting the exhaustive-search winner)");
    Ok(())
}
