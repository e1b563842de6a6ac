//! Allocation gate for the dispatch paths: after warm-up, an untraced
//! `GuardedVariant::call` or `CodeVariant::call` allocates only the
//! values it returns, both when the model's vote winner serves and when
//! a veto sends the call to the default or through the ranked cascade.
//!
//! A counting global allocator measures whole batches of calls, so this
//! file holds exactly one test: nothing else may allocate while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// A three-variant function over `x` and a three-class SVM: `narrow`
/// below 5, `mid` below 10, `wide` above. `wide` is vetoed on small
/// inputs, so a planned cascade is filtered too; `veto_predictions`
/// vetoes every non-default variant outright.
fn guard(veto_predictions: bool) -> nitro::guard::GuardedVariant<f64> {
    use nitro::core::{ClassifierConfig, CodeVariant, Context, FnConstraint, FnFeature, FnVariant};
    use nitro::guard::{GuardPolicy, GuardedVariant};
    use nitro::ml::{Dataset, TrainedModel};

    let ctx = Context::new();
    let mut cv = CodeVariant::<f64>::new("alloc", &ctx);
    cv.add_variant(FnVariant::new("narrow", |&x: &f64| 1.0 + x));
    cv.add_variant(FnVariant::new("mid", |&x: &f64| 5.0 + 0.5 * x));
    cv.add_variant(FnVariant::new("wide", |&x: &f64| 20.0 - x));
    cv.set_default(0);
    cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));
    cv.add_input_feature(FnFeature::new("x2", |&x: &f64| x * x));
    cv.add_constraint(2, FnConstraint::new("big", |&x: &f64| x > 3.0))
        .unwrap();
    if veto_predictions {
        for v in [1, 2] {
            cv.add_constraint(v, FnConstraint::new("never", |_: &f64| false))
                .unwrap();
        }
    }
    let xs = inputs();
    let data = Dataset::from_parts(
        xs.iter().map(|&x| vec![x, x * x]).collect(),
        xs.iter()
            .map(|&x| usize::from(x >= 5.0) + usize::from(x >= 10.0))
            .collect(),
    );
    cv.install_model(TrainedModel::train(
        &ClassifierConfig::Svm {
            c: Some(10.0),
            gamma: Some(0.5),
            grid_search: false,
            cache_bytes: None,
        },
        &data,
    ));
    GuardedVariant::new(cv, GuardPolicy::default()).unwrap()
}

fn inputs() -> Vec<f64> {
    (0..30).map(|i| f64::from(i) * 0.5).collect()
}

/// Allocations per call over two identical batches, after a warm-up
/// batch that compiles the model and sizes this thread's scratch.
fn allocations_per_call(call: impl Fn(f64), xs: &[f64]) -> f64 {
    let run_batch = || {
        for &x in xs {
            call(x);
        }
    };
    run_batch();
    let first = allocations_during(run_batch);
    let second = allocations_during(run_batch);
    assert_eq!(first, second, "identical batches must allocate identically");
    first as f64 / xs.len() as f64
}

#[test]
fn untraced_guarded_call_allocates_only_its_result() {
    // The served batch: every head is the model's vote winner and runs,
    // so no call ranks. Each allocates the feature vector, the one-entry
    // cascade and the variant name.
    let served = guard(false);
    let guarded = |x: f64| {
        std::hint::black_box(served.call(&x).unwrap());
    };
    let per_call = allocations_per_call(guarded, &inputs());
    assert!(
        per_call <= 3.0,
        "{per_call} allocations per served guarded call, expected at most 3"
    );
    // The same registration through plain dispatch: the feature vector
    // and the variant name.
    let plain = |x: f64| {
        std::hint::black_box(served.inner().call(&x).unwrap());
    };
    let per_call = allocations_per_call(plain, &inputs());
    assert!(
        per_call <= 2.0,
        "{per_call} allocations per served plain call, expected at most 2"
    );

    // The vetoed batch: every prediction is a vetoed variant, so every
    // call couples a posterior, ranks it and plans the cascade. Each
    // allocates the feature vector, the planned cascade and the name.
    let vetoed = guard(true);
    let xs: Vec<f64> = inputs()
        .into_iter()
        .filter(|&x| {
            let (features, _) = vetoed.inner().evaluate_features(&x);
            vetoed.inner().select(&features) != Some(0)
        })
        .collect();
    assert!(xs.len() >= 10, "the vetoed batch has {} inputs", xs.len());
    for &x in &xs {
        let inv = vetoed.call(&x).unwrap();
        let (features, _) = vetoed.inner().evaluate_features(&x);
        assert_eq!(inv.cascade, vetoed.plan_cascade(&features, &x));
        assert!(vetoed.inner().call(&x).unwrap().fell_back_to_default);
    }
    let guarded = |x: f64| {
        std::hint::black_box(vetoed.call(&x).unwrap());
    };
    let per_call = allocations_per_call(guarded, &xs);
    assert!(
        per_call <= 3.0,
        "{per_call} allocations per vetoed guarded call, expected at most 3"
    );
    // Plain dispatch runs the default on the same vetoes.
    let plain = |x: f64| {
        std::hint::black_box(vetoed.inner().call(&x).unwrap());
    };
    let per_call = allocations_per_call(plain, &xs);
    assert!(
        per_call <= 2.0,
        "{per_call} allocations per vetoed plain call, expected at most 2"
    );
}
