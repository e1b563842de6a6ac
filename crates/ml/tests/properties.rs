//! Property-based tests for the learning subsystem.

use nitro_ml::svm::smo::{solve, solve_reference, SmoParams};
use nitro_ml::{ClassifierConfig, Dataset, Kernel, PredictScratch, Scaler, SvmModel, TrainedModel};
use proptest::prelude::*;

proptest! {
    /// SMO output always satisfies the box and equality constraints.
    #[test]
    fn smo_respects_constraints(
        points in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 4..40),
        c in 0.1f64..100.0,
    ) {
        let x: Vec<Vec<f64>> = points.iter().map(|&(a, b)| vec![a, b]).collect();
        // Deterministic half/half labels so both classes are present.
        let y: Vec<f64> = (0..x.len()).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let r = solve(&x, &y, &Kernel::Rbf { gamma: 0.5 }, &SmoParams { c, ..Default::default() });
        for &a in &r.alpha {
            prop_assert!((-1e-9..=c + 1e-9).contains(&a));
        }
        let balance: f64 = r.alpha.iter().zip(&y).map(|(a, yi)| a * yi).sum();
        prop_assert!(balance.abs() < 1e-6, "yᵀα = {}", balance);
    }

    /// Scaler always maps training rows into [-1, 1] and round-trips.
    #[test]
    fn scaler_bounds_and_roundtrip(
        rows in prop::collection::vec(prop::collection::vec(-1e6f64..1e6, 3), 1..50)
    ) {
        let s = Scaler::fit(&rows);
        for row in &rows {
            let t = s.transform(row);
            for &v in &t {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&v));
            }
            let back = s.inverse(&t);
            for (a, b) in row.iter().zip(&back) {
                prop_assert!((a - b).abs() < 1e-6 * a.abs().max(1.0));
            }
        }
    }

    /// Every classifier family yields valid posteriors everywhere.
    #[test]
    fn posteriors_are_distributions(
        seed_pts in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 6..20),
        query in (-10.0f64..10.0, -10.0f64..10.0),
    ) {
        let x: Vec<Vec<f64>> = seed_pts.iter().map(|&(a, b)| vec![a, b]).collect();
        let y: Vec<usize> = (0..x.len()).map(|i| i % 3).collect();
        let data = Dataset::from_parts(x, y);
        let q = vec![query.0, query.1];
        for config in [
            ClassifierConfig::Svm { c: Some(1.0), gamma: Some(0.5), grid_search: false, cache_bytes: None },
            ClassifierConfig::Knn { k: 3 },
            ClassifierConfig::Tree(Default::default()),
        ] {
            let m = TrainedModel::train(&config, &data);
            let p = m.probabilities(&q);
            prop_assert_eq!(p.len(), 3);
            prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            prop_assert!(p.iter().all(|&v| (-1e-9..=1.0 + 1e-9).contains(&v)));
            let pred = m.predict(&q);
            prop_assert!(pred < 3);
        }
    }

    /// The compiled prediction engine is bit-identical to the reference
    /// one-vs-one path: same argmax, and bitwise-equal posteriors, on
    /// arbitrary multi-class data and arbitrary (even out-of-hull)
    /// queries.
    #[test]
    fn compiled_engine_is_bit_identical(
        pts in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 9..30),
        queries in prop::collection::vec((-12.0f64..12.0, -12.0f64..12.0), 1..8),
        c in 0.5f64..50.0,
        gamma in 0.05f64..4.0,
    ) {
        let x: Vec<Vec<f64>> = pts.iter().map(|&(a, b)| vec![a, b]).collect();
        let y: Vec<usize> = (0..x.len()).map(|i| i % 3).collect();
        let data = Dataset::from_parts(x, y);
        let model = SvmModel::train(
            &data,
            Kernel::Rbf { gamma },
            &SmoParams { c, ..Default::default() },
        );
        let compiled = model.compiled();
        for q in &queries {
            let q = vec![q.0, q.1];
            prop_assert_eq!(model.predict(&q), compiled.predict(&q));
            let reference = model.probabilities(&q);
            let fast = compiled.probabilities(&q);
            prop_assert_eq!(reference.len(), fast.len());
            for (a, b) in reference.iter().zip(&fast) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
            }
        }
    }

    /// One decision pass predicts and ranks bit-identically to
    /// `predict_into` followed by `rank`, with the same kernel work as
    /// the predict alone: on 3- and 4-class SVMs, on single-class SVMs
    /// (no pair machines, with one or three class labels) and on kNN.
    #[test]
    fn predict_rank_matches_predict_then_rank(
        pts in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 9..30),
        queries in prop::collection::vec((-12.0f64..12.0, -12.0f64..12.0), 1..8),
        scheme in 0usize..5,
        gamma in 0.05f64..4.0,
    ) {
        let x: Vec<Vec<f64>> = pts.iter().map(|&(a, b)| vec![a, b]).collect();
        let y: Vec<usize> = (0..x.len())
            .map(|i| match scheme {
                0 | 4 => i % 3,
                1 => i % 4,
                2 => 0,
                _ => 2,
            })
            .collect();
        let config = if scheme == 4 {
            ClassifierConfig::Knn { k: 3 }
        } else {
            ClassifierConfig::Svm { c: Some(5.0), gamma: Some(gamma), grid_search: false, cache_bytes: None }
        };
        let m = TrainedModel::train(&config, &Dataset::from_parts(x, y));
        let (mut fused, mut reference) = (PredictScratch::default(), PredictScratch::default());
        let mut ranked = Vec::new();
        for q in &queries {
            let q = vec![q.0, q.1];
            let predicted = m.predict_rank_into(&q, &mut fused, &mut ranked);
            prop_assert_eq!(predicted, m.predict_into(&q, &mut reference));
            prop_assert_eq!(&ranked, &m.rank(&q));
            prop_assert_eq!(fused.take_kernel_evals(), reference.take_kernel_evals());
        }
    }

    /// The kernel-cached SMO solver (shrinking off) performs the same
    /// arithmetic as the full-Gram reference solver: bitwise-equal alpha
    /// and rho. With shrinking on, it must still land on the same
    /// solution within tolerance (same solid support set, close rho).
    #[test]
    fn cached_smo_matches_full_gram(
        pts in prop::collection::vec((-8.0f64..8.0, -8.0f64..8.0), 6..40),
        c in 0.5f64..20.0,
        cache_cols in 2usize..8,
    ) {
        let x: Vec<Vec<f64>> = pts.iter().map(|&(a, b)| vec![a, b]).collect();
        let y: Vec<f64> = (0..x.len()).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let kernel = Kernel::Rbf { gamma: 0.5 };
        // A deliberately tiny cache (a few columns) forces eviction.
        let cache_bytes = cache_cols * x.len() * 8;
        let reference = solve_reference(
            &x, &y, &kernel, &SmoParams { c, ..Default::default() },
        );
        let exact = solve(&x, &y, &kernel, &SmoParams {
            c, cache_bytes, shrinking: false, ..Default::default()
        });
        prop_assert_eq!(exact.rho.to_bits(), reference.rho.to_bits());
        for (a, b) in exact.alpha.iter().zip(&reference.alpha) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        let shrunk = solve(&x, &y, &kernel, &SmoParams {
            c, cache_bytes, shrinking: true, ..Default::default()
        });
        prop_assert!((shrunk.rho - reference.rho).abs() < 1e-2, "rho {} vs {}", shrunk.rho, reference.rho);
        // Solid support vectors (alpha well above the boundary noise
        // floor) must agree; decision values must track closely.
        let solid = 5e-2 * c;
        for i in 0..x.len() {
            prop_assert_eq!(shrunk.alpha[i] > solid, reference.alpha[i] > solid,
                "row {} alpha {} vs {}", i, shrunk.alpha[i], reference.alpha[i]);
            prop_assert!((shrunk.decision_values[i] - reference.decision_values[i]).abs() < 5e-2,
                "row {} f {} vs {}", i, shrunk.decision_values[i], reference.decision_values[i]);
        }
        prop_assert!(shrunk.peak_cache_bytes <= cache_bytes.max(2 * x.len() * 8));
    }

    /// kNN with k=1 reproduces training labels exactly.
    #[test]
    fn knn1_memorizes(
        pts in prop::collection::hash_set((-100i32..100, -100i32..100), 4..30)
    ) {
        let pts: Vec<_> = pts.into_iter().collect();
        let x: Vec<Vec<f64>> = pts.iter().map(|&(a, b)| vec![a as f64, b as f64]).collect();
        let y: Vec<usize> = (0..x.len()).map(|i| i % 2).collect();
        let data = Dataset::from_parts(x.clone(), y.clone());
        let m = TrainedModel::train(&ClassifierConfig::Knn { k: 1 }, &data);
        for (xi, &yi) in x.iter().zip(&y) {
            prop_assert_eq!(m.predict(xi), yi);
        }
    }
}

/// A training set ~4× larger than any the seed suites use: the full Gram
/// matrix would be `n² · 8 B` (≈ 18 MiB at n = 1536), but the cached
/// solver must stay inside a budget two orders of magnitude smaller and
/// still produce a working classifier.
#[test]
fn large_training_set_stays_inside_cache_budget() {
    let n = 1536usize;
    let budget = 256 * 1024; // ≈ 21 columns of 12 KiB
    let full_gram = n * n * 8;
    assert!(budget * 50 < full_gram, "budget must be far below the Gram");

    // Two interleaved rings: not linearly separable, so the solver does
    // real work across many kernel columns.
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let t = i as f64 * 0.41;
            let r = if i % 2 == 0 { 1.0 } else { 2.0 };
            let wobble = ((i * 7919) % 97) as f64 / 97.0 * 0.3;
            vec![(r + wobble) * t.cos(), (r + wobble) * t.sin()]
        })
        .collect();
    let y: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();

    let result = nitro_ml::svm::smo::solve(
        &x,
        &y,
        &Kernel::Rbf { gamma: 1.0 },
        &SmoParams {
            c: 1.0,
            cache_bytes: budget,
            ..Default::default()
        },
    );
    assert!(
        result.peak_cache_bytes <= budget,
        "peak {} exceeds budget {budget}",
        result.peak_cache_bytes
    );
    assert!(result.cache_hits > 0, "the LRU must be doing something");

    // The bounded-cache model still separates the rings.
    let correct = (0..n)
        .filter(|&i| (result.decision_values[i] >= 0.0) == (y[i] > 0.0))
        .count();
    assert!(
        correct as f64 / n as f64 > 0.9,
        "only {correct}/{n} training rows classified correctly"
    );
}

/// Vote ties take the posterior tie-break, the one branch where predict
/// and rank read the same coupled posterior. A dense grid over a 4-class
/// model must hit ties, and the single-pass path must match
/// `predict_into` + `rank` on every grid point.
#[test]
fn predict_rank_matches_on_vote_ties() {
    let x: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            let t = f64::from(i) * 2.399_963;
            let r = 1.0 + f64::from(i % 7) * 0.5;
            vec![r * t.cos(), r * t.sin()]
        })
        .collect();
    let y: Vec<usize> = (0..x.len()).map(|i| i % 4).collect();
    let config = ClassifierConfig::Svm {
        c: Some(1.0),
        gamma: Some(0.5),
        grid_search: false,
        cache_bytes: None,
    };
    let m = TrainedModel::train(&config, &Dataset::from_parts(x, y));
    let TrainedModel::Svm { scaler, model, .. } = &m else {
        panic!("an SVM config trains an SVM");
    };
    let (mut fused, mut reference) = (PredictScratch::default(), PredictScratch::default());
    let mut ranked = Vec::new();
    let mut ties = 0;
    for i in -24..=24 {
        for j in -24..=24 {
            let q = vec![f64::from(i) * 0.25, f64::from(j) * 0.25];
            let scaled = scaler.transform(&q);
            let mut votes = [0usize; 4];
            for pm in model.machines() {
                let winner = if pm.svm.decision(&scaled) >= 0.0 {
                    pm.pos
                } else {
                    pm.neg
                };
                votes[winner] += 1;
            }
            let max = *votes.iter().max().unwrap();
            ties += usize::from(votes.iter().filter(|&&v| v == max).count() > 1);

            let predicted = m.predict_rank_into(&q, &mut fused, &mut ranked);
            assert_eq!(predicted, m.predict_into(&q, &mut reference), "at {q:?}");
            assert_eq!(ranked, m.rank(&q), "at {q:?}");
        }
    }
    assert!(ties > 0, "the grid must exercise the tie-break");
}
