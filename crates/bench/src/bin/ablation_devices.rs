//! Ablation: cross-architecture retuning.
//!
//! The paper motivates its decoupled tuning interface with "porting to
//! different architectures" (§II-A). This harness tunes SpMV for the
//! Fermi-class device and for a Kepler-class one, then measures what a
//! model trained on the *wrong* device costs — the portability argument
//! for per-device tuning, quantified.

use nitro_bench::error::{exit_on_error, BenchResult};
use nitro_bench::{pct, spmv_sets, SuiteSpec};
use nitro_core::Context;
use nitro_simt::DeviceConfig;
use nitro_tuner::{evaluate_model, Autotuner, ProfileTable};

fn short(cfg: &DeviceConfig) -> String {
    // "Tesla C2050 (Fermi, simulated)" -> "Tesla C2050"
    cfg.name.split(" (").next().unwrap_or(&cfg.name).to_string()
}

fn main() {
    exit_on_error(run());
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    println!("== Ablation: per-device tuning (Fermi vs Kepler) ==");
    if spec.small {
        println!("(NITRO_SCALE=small — miniature collections)");
    }

    let (train, test) = spmv_sets(spec);

    let devices = [DeviceConfig::fermi_c2050(), DeviceConfig::kepler_k20()];
    let mut models = Vec::new();
    let mut test_tables = Vec::new();
    for cfg in &devices {
        let ctx = Context::new();
        let mut cv = nitro_sparse::spmv::build_code_variant(&ctx, cfg);
        let train_table = ProfileTable::build(&cv, &train);
        let test_table = ProfileTable::build(&cv, &test);
        Autotuner::new().tune_from_table(&mut cv, &train_table)?;
        models.push(cv.export_artifact()?.model);
        test_tables.push(test_table);
    }

    println!(
        "\n{:<28} {:>12} {:>12}",
        "model \\ deployed on",
        short(&devices[0]),
        short(&devices[1])
    );
    for (m, cfg) in devices.iter().enumerate() {
        let mut cells = Vec::new();
        for table in test_tables.iter() {
            let s = evaluate_model(table, &models[m], Some(0));
            cells.push(pct(s.mean_relative_perf));
        }
        println!(
            "{:<28} {:>12} {:>12}",
            format!("tuned for {}", short(cfg)),
            cells[0],
            cells[1]
        );
    }
    println!("\n(diagonal = retuned per device; off-diagonal = stale model from the other device)");
    Ok(())
}
