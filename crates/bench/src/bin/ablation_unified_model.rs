//! Extension (paper §VII): implicit architectural features.
//!
//! "The features we use in this paper are expressed by an expert
//! programmer, but the framework could easily support additional features
//! that are added implicitly by the system, such as architectural
//! features." This harness quantifies that idea: one SpMV model trained
//! across BOTH simulated devices, with device descriptors (SM count,
//! bandwidth, atomic cost, texture cache size) appended to every feature
//! vector. Compare against per-device models (upper bound) and stale
//! cross-device models (lower bound, from `ablation_devices`).

use nitro_bench::error::{exit_on_error, BenchResult};
use nitro_bench::{cached_table, pct, spmv_sets, SuiteSpec};
use nitro_core::{ClassifierConfig, Context, TrainedModel};
use nitro_ml::Dataset;
use nitro_simt::DeviceConfig;
use nitro_tuner::{evaluate_model, ProfileTable};

/// The implicit architectural features appended to each input's vector.
fn device_features(cfg: &DeviceConfig) -> Vec<f64> {
    vec![
        cfg.num_sms as f64,
        cfg.dram_bw_gbps,
        cfg.global_atomic_cycles,
        cfg.tex_cache_bytes as f64,
        cfg.launch_overhead_ns,
    ]
}

/// Append device features to every row of a profile table.
fn augment(table: &ProfileTable, cfg: &DeviceConfig) -> ProfileTable {
    let extra = device_features(cfg);
    let mut out = table.clone();
    out.feature_names
        .extend(["dev_sms", "dev_bw", "dev_atomic", "dev_tex", "dev_launch"].map(String::from));
    for row in out.features.iter_mut() {
        row.extend_from_slice(&extra);
    }
    out
}

fn main() {
    exit_on_error(run());
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    println!("== Extension: one model across devices via implicit architectural features ==");

    let (train, test) = spmv_sets(spec);
    let devices = [DeviceConfig::fermi_c2050(), DeviceConfig::kepler_k20()];

    // Per-device profile tables (shared with ablation_devices via cache).
    let mut train_tables = Vec::new();
    let mut test_tables = Vec::new();
    for (d, cfg) in devices.iter().enumerate() {
        let ctx = Context::new();
        let cv = nitro_sparse::spmv::build_code_variant(&ctx, cfg);
        train_tables.push(cached_table(
            &spec.tag(&format!("spmv-dev{d}"), "train"),
            &cv,
            &train,
            spec.cache,
        ));
        test_tables.push(cached_table(
            &spec.tag(&format!("spmv-dev{d}"), "test"),
            &cv,
            &test,
            spec.cache,
        ));
    }

    // Unified training set: both devices' labeled examples, each row
    // augmented with its device's descriptors.
    let mut unified = Dataset::new(train_tables[0].n_variants());
    for (table, cfg) in train_tables.iter().zip(&devices) {
        let aug = augment(table, cfg);
        for (i, label) in aug.labels() {
            unified.push(aug.features[i].clone(), label);
        }
    }
    let config = ClassifierConfig::Svm {
        c: None,
        gamma: None,
        grid_search: true,
        cache_bytes: None,
    };
    let unified_model = TrainedModel::train(&config, &unified);

    // Per-device baselines.
    let per_device: Vec<TrainedModel> = train_tables
        .iter()
        .map(|t| TrainedModel::train(&config, &t.dataset()))
        .collect();

    println!(
        "\n{:<34} {:>12} {:>12}",
        "model",
        devices[0].name.split(" (").next().unwrap(),
        devices[1].name.split(" (").next().unwrap()
    );
    // Unified model evaluated on each device's augmented test table.
    let mut row = String::new();
    for (table, cfg) in test_tables.iter().zip(&devices) {
        let aug = augment(table, cfg);
        let s = evaluate_model(&aug, &unified_model, Some(0));
        row.push_str(&format!(" {:>12}", pct(s.mean_relative_perf)));
    }
    println!("{:<34}{}", "unified (+device features)", row);

    let mut row = String::new();
    for (d, table) in test_tables.iter().enumerate() {
        let s = evaluate_model(table, &per_device[d], Some(0));
        row.push_str(&format!(" {:>12}", pct(s.mean_relative_perf)));
    }
    println!("{:<34}{}", "per-device (paper's workflow)", row);

    let mut row = String::new();
    for (d, table) in test_tables.iter().enumerate() {
        let stale = &per_device[1 - d];
        let s = evaluate_model(table, stale, Some(0));
        row.push_str(&format!(" {:>12}", pct(s.mean_relative_perf)));
    }
    println!("{:<34}{}", "stale (other device's model)", row);

    println!("\nOne model serves both devices once the architecture is a feature —");
    println!("recovering most of the per-device performance and beating stale models.");
    Ok(())
}
