//! Integration tests for the extension features, driven through the
//! public facade: online tuning, Matrix Market I/O, variant families and
//! the energy objective.

use nitro::core::{ClassifierConfig, Context};
use nitro::simt::DeviceConfig;
use nitro::tuner::{Autotuner, OnlineCodeVariant, OnlineOptions, ProfileTable};

#[test]
fn online_tuning_learns_sort_selection_in_production() {
    let ctx = Context::new();
    let mut cv = nitro::sort::variants::build_code_variant(&ctx, &DeviceConfig::fermi_c2050());
    cv.policy_mut().classifier = ClassifierConfig::Knn { k: 3 };
    let mut online = OnlineCodeVariant::new(cv, OnlineOptions::default());

    // Live traffic alternating between regimes.
    for i in 0..48 {
        let wide = i % 2 == 0;
        let category = if i % 3 == 0 {
            "almost_sorted"
        } else {
            "uniform"
        };
        let input = nitro::sort::keys::generate(category, 3_000, wide, i as u64, &format!("t/{i}"));
        online.call(&input).unwrap();
    }
    assert!(online.inner().has_model());
    assert!(online.stats().retrains >= 1);

    // The learned model routes 32-bit uniform keys to Radix.
    let cv = online.into_inner();
    let probe = nitro::sort::keys::generate("uniform", 3_000, false, 999, "probe");
    assert_eq!(cv.call(&probe).unwrap().variant_name, "Radix");
}

#[test]
fn mtx_files_feed_the_spmv_pipeline() {
    let dir = std::env::temp_dir().join(format!("nitro-ext-mtx-{}", std::process::id()));
    let (train, _) = nitro::sparse::collection::spmv_small_sets(0x717);
    nitro::sparse::io::export_collection(&train, &dir).unwrap();

    let loaded = nitro::sparse::io::load_collection(&dir).unwrap();
    assert_eq!(loaded.len(), train.len());

    let ctx = Context::new();
    let mut cv = nitro::sparse::spmv::build_code_variant(&ctx, &DeviceConfig::fermi_c2050());
    cv.policy_mut().classifier = ClassifierConfig::Knn { k: 3 };
    let report = Autotuner::new().tune(&mut cv, &loaded).unwrap();
    assert_eq!(report.training_inputs, train.len());
    assert!(cv.has_model());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn energy_and_time_objectives_produce_valid_tables() {
    use nitro::sparse::spmv::{build_code_variant_metric, SpmvMetric};
    let ctx = Context::new();
    let cfg = DeviceConfig::fermi_c2050();
    let (_, test) = nitro::sparse::collection::spmv_small_sets(0x88);
    let subset = &test[..6];

    let time_cv = build_code_variant_metric(&ctx, &cfg, SpmvMetric::Time);
    let energy_cv = build_code_variant_metric(&ctx, &cfg, SpmvMetric::Energy);
    let tt = ProfileTable::build(&time_cv, subset);
    let et = ProfileTable::build(&energy_cv, subset);
    for i in 0..subset.len() {
        for v in 0..tt.n_variants() {
            let (t, e) = (tt.costs[i][v], et.costs[i][v]);
            assert_eq!(t.is_finite(), e.is_finite(), "veto sets must agree");
            if t.is_finite() {
                assert!(t > 0.0 && e > 0.0);
                // Energy is never cheaper than the static floor over the
                // elapsed time.
                assert!(
                    e >= t * cfg.static_watts * 0.99,
                    "input {i} variant {v}: {e} vs {t}"
                );
            }
        }
    }
}

#[test]
fn variant_family_tunes_through_public_api() {
    let ctx = Context::new();
    let mut cv = nitro::core::CodeVariant::<f64>::new("family", &ctx);
    cv.add_variant_family("poly", vec![1u32, 2, 3], |&p, &x: &f64| {
        (x - p as f64 * 3.0).abs()
    });
    cv.set_default(0);
    cv.add_input_feature(nitro::core::FnFeature::new("x", |&x: &f64| x));
    cv.policy_mut().classifier = ClassifierConfig::Knn { k: 1 };
    let train: Vec<f64> = (0..30).map(|i| i as f64 / 3.0).collect();
    Autotuner::new().tune(&mut cv, &train).unwrap();
    assert_eq!(cv.call(&9.1).unwrap().variant_name, "poly@3");
    assert_eq!(cv.call(&2.9).unwrap().variant_name, "poly@1");
}
