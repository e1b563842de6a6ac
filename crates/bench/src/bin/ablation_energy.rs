//! Extension (paper §II-B): tuning for energy instead of time.
//!
//! "By returning the appropriate value, Nitro can also be used to predict
//! variants according to other optimization criteria, for example, energy
//! usage." The simulated device charges DRAM pin energy, dynamic SM
//! energy and a static power floor, so time- and energy-optimal variants
//! genuinely differ (e.g. a slightly slower variant that moves far fewer
//! bytes can win on energy). This harness tunes SpMV both ways and
//! reports what each model trades away.

use nitro_bench::error::{exit_on_error, BenchResult};
use nitro_bench::{pct, spmv_sets, SuiteSpec};
use nitro_core::Context;
use nitro_sparse::spmv::{build_code_variant_metric, SpmvMetric};
use nitro_tuner::{evaluate_model, Autotuner, ProfileTable};

fn main() {
    exit_on_error(run());
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    let cfg = nitro_bench::device();
    println!("== Extension: energy-objective tuning (paper §II-B) ==");

    let (train, test) = spmv_sets(spec);

    // Profile under each metric; variant set and features are identical,
    // only the objective scalar differs.
    let mut tables: Vec<(SpmvMetric, ProfileTable, nitro_core::TrainedModel)> = Vec::new();
    for metric in [SpmvMetric::Time, SpmvMetric::Energy] {
        let ctx = Context::new();
        let mut cv = build_code_variant_metric(&ctx, &cfg, metric);
        let train_table = ProfileTable::build(&cv, &train);
        let test_table = ProfileTable::build(&cv, &test);
        Autotuner::new().tune_from_table(&mut cv, &train_table)?;
        tables.push((metric, test_table, cv.export_artifact()?.model));
    }
    let (time_table, time_model) = (&tables[0].1, &tables[0].2);
    let (energy_table, energy_model) = (&tables[1].1, &tables[1].2);

    // Each model evaluated under each metric's ground truth.
    println!(
        "\n{:<24} {:>12} {:>12}",
        "model \\ judged on", "time", "energy"
    );
    for (name, model) in [("time-tuned", time_model), ("energy-tuned", energy_model)] {
        let on_time = evaluate_model(time_table, model, Some(0));
        let on_energy = evaluate_model(energy_table, model, Some(0));
        println!(
            "{:<24} {:>12} {:>12}",
            name,
            pct(on_time.mean_relative_perf),
            pct(on_energy.mean_relative_perf)
        );
    }

    // Where do the two objectives disagree about the best variant?
    let mut disagreements = 0;
    let mut considered = 0;
    for i in 0..time_table.len() {
        if let (Some(bt), Some(be)) = (time_table.best_variant(i), energy_table.best_variant(i)) {
            considered += 1;
            if bt != be {
                disagreements += 1;
            }
        }
    }
    println!(
        "\ntime-optimal and energy-optimal variants differ on {disagreements}/{considered} test inputs"
    );
    println!("(diagonal dominance = each objective needs its own model, as §II-B anticipates)");
    Ok(())
}
