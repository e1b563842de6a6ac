//! Property tests: the quantile sketch honors its relative-error
//! contract, and merging is lossless (a merge is indistinguishable from
//! sketching the concatenated stream) as well as commutative and
//! associative.

use nitro_trace::{QuantileSketch, SketchConfig};
use proptest::prelude::*;

/// Arbitrary positive observations inside the sketch's accurate range
/// (the default config covers 1 ns to ~1.7e11 ns).
fn arb_values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1.0f64..1e9, 1..200)
}

fn sketch_of(values: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::default();
    for &v in values {
        s.record(v);
    }
    s
}

/// Exact value at the same rank the sketch targets: 0-indexed rank
/// `⌊q · (n − 1)⌋` of the sorted stream.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * (sorted.len() - 1) as f64).floor() as usize;
    sorted[rank]
}

/// Structural equality modulo the floating-point `sum`, which is only
/// reproducible up to addition-order rounding. Everything else —
/// bucket counts, extrema, quantiles — must match exactly.
fn assert_same_modulo_sum(a: &QuantileSketch, b: &QuantileSketch) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.count(), b.count());
    prop_assert_eq!(a.zeros(), b.zeros());
    prop_assert_eq!(a.saturated(), b.saturated());
    prop_assert_eq!(a.min(), b.min());
    prop_assert_eq!(a.max(), b.max());
    for i in 0..=100 {
        let q = i as f64 / 100.0;
        prop_assert_eq!(a.quantile(q), b.quantile(q));
    }
    let tol = 1e-9 * a.sum().abs().max(1.0);
    prop_assert!(
        (a.sum() - b.sum()).abs() <= tol,
        "sums diverge beyond rounding: {} vs {}",
        a.sum(),
        b.sum()
    );
    Ok(())
}

proptest! {
    /// Every quantile estimate is within `α` relative error of the
    /// exact value at the same rank, for in-range observations.
    #[test]
    fn quantile_error_within_alpha(values in arb_values()) {
        let alpha = SketchConfig::default().alpha;
        let s = sketch_of(&values);
        let mut sorted = values;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let est = s.quantile(q);
            // Allow a hair of float slack on top of α for boundary
            // values whose `ln`-based bucket index rounds either way.
            let tol = alpha * exact * (1.0 + 1e-6);
            prop_assert!(
                (est - exact).abs() <= tol,
                "q={q}: estimate {est} vs exact {exact} exceeds α={alpha}"
            );
        }
    }

    /// merge(sketch(a), sketch(b)) behaves exactly like
    /// sketch(a ++ b): a fused sketch loses nothing vs. sketching the
    /// concatenated stream directly.
    #[test]
    fn merge_equals_concatenation(a in arb_values(), b in arb_values()) {
        let mut merged = sketch_of(&a);
        merged.merge(&sketch_of(&b));
        let concat: Vec<f64> = a.iter().chain(&b).copied().collect();
        assert_same_modulo_sum(&merged, &sketch_of(&concat))?;
    }

    /// Merging is commutative: a ⊕ b == b ⊕ a, bit-for-bit (u64 bucket
    /// addition and f64 `+`/`min`/`max` are all commutative).
    #[test]
    fn merge_commutes(a in arb_values(), b in arb_values()) {
        let (sa, sb) = (sketch_of(&a), sketch_of(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);
    }

    /// Merging is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), exactly on
    /// counts and quantiles, up to addition-order rounding on `sum`.
    #[test]
    fn merge_associates(a in arb_values(), b in arb_values(), c in arb_values()) {
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        assert_same_modulo_sum(&left, &right)?;
    }

    /// Merging an empty sketch is the identity, from either side.
    #[test]
    fn merge_identity(a in arb_values()) {
        let sa = sketch_of(&a);
        let mut left = QuantileSketch::default();
        left.merge(&sa);
        prop_assert_eq!(&left, &sa);
        let mut right = sa.clone();
        right.merge(&QuantileSketch::default());
        prop_assert_eq!(&right, &sa);
    }
}
