//! The guard's single-pass cascade planner against its two references,
//! on all five suites at small scale:
//!
//! - `plan_cascade`, which predicts and ranks from one SVM decision
//!   pass, equals the cascade built from separate `predict` and `rank`
//!   calls on every test input;
//! - without faults, `GuardedVariant::call` runs the variant
//!   `CodeVariant::call` runs on every test input, and reports the
//!   planned head alone as its cascade;
//! - when the planned head fails, the call walks the planned cascade:
//!   it reports `plan_cascade` and serves the first later candidate
//!   that succeeds.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nitro::core::{ClassifierConfig, CodeVariant, Context, TrainedModel, Variant};
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

/// A variant that fails (a non-finite objective) while `failing` names
/// its index, and otherwise runs the variant it wraps.
struct FailWhenNamed<I: ?Sized> {
    index: usize,
    failing: Arc<AtomicUsize>,
    inner: Arc<dyn Variant<I>>,
}

impl<I: ?Sized> Variant<I> for FailWhenNamed<I> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn invoke(&self, input: &I) -> f64 {
        if self.failing.load(Ordering::Relaxed) == self.index {
            f64::NAN
        } else {
            self.inner.invoke(input)
        }
    }
}

/// Fail the planned head of every test input in turn: the call reports
/// the planned cascade, falls back, and serves the first later candidate
/// that succeeds. The breakers cannot trip within the run, so every
/// input sees a healthy bank.
fn check_fallback<I: Send + Sync + 'static>(mut cv: CodeVariant<I>, test: &[I]) {
    let name = cv.name().to_string();
    let failing = Arc::new(AtomicUsize::new(usize::MAX));
    for index in 0..cv.n_variants() {
        let inner = cv.variant(index).expect("index in range");
        let failing = failing.clone();
        cv.replace_variant(
            index,
            Arc::new(FailWhenNamed {
                index,
                failing,
                inner,
            }),
        )
        .unwrap();
    }
    let policy = GuardPolicy {
        quarantine_threshold: u32::MAX,
        ..GuardPolicy::default()
    };
    let guard = GuardedVariant::new(cv, policy).unwrap();
    for (i, input) in test.iter().enumerate() {
        let (features, _) = guard.inner().evaluate_features(input);
        let cascade = guard.plan_cascade(&features, input);
        failing.store(cascade[0], Ordering::Relaxed);
        let expected = cascade[1..]
            .iter()
            .copied()
            .find(|&v| guard.inner().try_run_variant(v, input).is_ok());
        match (guard.call(input), expected) {
            (Ok(inv), Some(v)) => {
                assert_eq!(inv.cascade, cascade, "{name}: cascade of test input {i}");
                assert!(inv.fell_back, "{name}: test input {i} did not fall back");
                assert_eq!(inv.variant, v, "{name}: fallback of test input {i}");
            }
            (Err(_), None) => {}
            (got, want) => panic!("{name}: test input {i}: served {got:?}, expected {want:?}"),
        }
    }
}

fn check_suite<I: Send + Sync + 'static>(mut cv: CodeVariant<I>, train: &[I], test: &[I]) {
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
            let inv = guard.call(input).unwrap();
            assert_eq!(
                inv.variant, want.variant,
                "{name}: guarded and plain dispatch disagree on test input {i}"
            );
            // A served head is the whole cascade: nothing is ranked.
            assert_eq!(
                inv.cascade,
                vec![guard.plan_cascade(&features, input)[0]],
                "{name}: fast-path cascade of test input {i}"
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
    check_fallback(guard.into_inner(), test);
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
