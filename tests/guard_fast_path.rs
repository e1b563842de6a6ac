//! The guard's single-pass cascade planner against its two references,
//! on all five suites at small scale:
//!
//! - `plan_cascade`, which predicts and ranks from one SVM decision
//!   pass, equals the cascade built from separate `predict` and `rank`
//!   calls on every test input;
//! - without faults, `GuardedVariant::call` runs the variant
//!   `CodeVariant::call` runs on every test input.

use nitro::core::{ClassifierConfig, CodeVariant, Context, TrainedModel};
use nitro::guard::{GuardPolicy, GuardedVariant};
use nitro::simt::DeviceConfig;
use nitro::tuner::Autotuner;

/// The cascade `plan_cascade` promises, from a separate predict and
/// rank: the prediction first, then the posterior ranking, vetoed
/// variants dropped and the default held for the terminal slot unless
/// it is the prediction.
fn reference_cascade<I>(
    cv: &CodeVariant<I>,
    model: &TrainedModel,
    features: &[f64],
    input: &I,
) -> Vec<usize> {
    let n = cv.n_variants();
    let default = cv.default_variant().filter(|&d| d < n);
    let pred = model.predict(features).min(n - 1);
    let mut cascade = Vec::new();
    for v in std::iter::once(pred).chain(model.rank(features)) {
        if cascade.contains(&v) || (Some(v) == default && v != pred) {
            continue;
        }
        if Some(v) == default || cv.constraints_satisfied(v, input) {
            cascade.push(v);
        }
    }
    if cascade.first() != default.as_ref() {
        cascade.extend(default);
    }
    cascade
}

fn check_suite<I: Send + Sync>(mut cv: CodeVariant<I>, train: &[I], test: &[I]) {
    cv.policy_mut().classifier = ClassifierConfig::Svm {
        c: Some(32.0),
        gamma: Some(1.0),
        grid_search: false,
        cache_bytes: None,
    };
    Autotuner::new().tune(&mut cv, train).unwrap();
    let name = cv.name().to_string();
    let model = cv.model().expect("tuning installs a model").clone();
    let plain: Vec<_> = test.iter().map(|x| cv.call(x).unwrap()).collect();

    let guard = GuardedVariant::new(cv, GuardPolicy::default()).unwrap();
    for (i, (input, want)) in test.iter().zip(&plain).enumerate() {
        let (features, _) = guard.inner().evaluate_features(input);
        assert_eq!(
            guard.plan_cascade(&features, input),
            reference_cascade(guard.inner(), &model, &features, input),
            "{name}: cascade of test input {i}"
        );
        // A non-finite objective (a solver that does not converge) is a
        // failure to the guard, which falls back past it; those inputs
        // run last, so the breakers they trip cannot touch the others.
        if want.objective.is_finite() {
            assert_eq!(
                guard.call(input).unwrap().variant,
                want.variant,
                "{name}: guarded and plain dispatch disagree on test input {i}"
            );
        }
    }
    for (i, (input, want)) in test.iter().zip(&plain).enumerate() {
        if !want.objective.is_finite() {
            if let Ok(inv) = guard.call(input) {
                assert!(
                    inv.objective.is_finite() && inv.variant != want.variant,
                    "{name}: the guard served a failing variant on test input {i}"
                );
            }
        }
    }
}

fn device() -> DeviceConfig {
    DeviceConfig::fermi_c2050()
}

#[test]
fn spmv() {
    let (train, test) = nitro::sparse::collection::spmv_small_sets(0x6A7D);
    let cv = nitro::sparse::build_code_variant(&Context::new(), &device());
    check_suite(cv, &train, &test);
}

#[test]
fn solvers() {
    let (train, test) = nitro::solvers::collection::solver_small_sets(0x6A7D);
    let cv = nitro::solvers::variants::build_code_variant(&Context::new(), &device());
    check_suite(cv, &train, &test);
}

#[test]
fn bfs() {
    let (train, test) = nitro::graph::collection::bfs_small_sets(0x6A7D);
    let cv = nitro::graph::bfs::build_code_variant(&Context::new(), &device());
    check_suite(cv, &train, &test);
}

#[test]
fn histogram() {
    let (train, test) = nitro::histogram::data::hist_small_sets(0x6A7D);
    let cv = nitro::histogram::variants::build_code_variant(&Context::new(), &device());
    check_suite(cv, &train, &test);
}

#[test]
fn sort() {
    let (train, test) = nitro::sort::keys::sort_small_sets(0x6A7D);
    let cv = nitro::sort::variants::build_code_variant(&Context::new(), &device());
    check_suite(cv, &train, &test);
}
