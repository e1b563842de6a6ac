//! Property tests: every sort variant produces a sorted permutation of
//! its input, for arbitrary key sets and both widths; the merge family's
//! movement counts equal what pairwise merges measure; the
//! order-preserving key bits round-trip exactly; and the generators'
//! bit-pattern key sorts agree with `total_cmp`.

use nitro_simt::DeviceConfig;
use nitro_sort::keys::{generate, CATEGORIES};
use nitro_sort::variants::{merge_family_ns, sort_keys, MergeCounts, RadixKey, TILE};
use nitro_sort::{run_variant, Keys, Method, SortInput};
use proptest::prelude::*;

/// Reference for [`MergeCounts::of`]: sort each tile, then run the
/// pairwise merges of doubling width and count what they move. Locality
/// skips presorted tiles and already ordered pairs, and charges only a
/// pair's merge-path window.
fn pairwise_merge_counts<T: Copy + PartialOrd>(keys: &[T], locality: bool) -> MergeCounts {
    let n = keys.len();
    let mut data = keys.to_vec();
    let mut presorted_tiles = 0;
    for t in 0..n.div_ceil(TILE).max(1) {
        let tile = &mut data[t * TILE..((t + 1) * TILE).min(n)];
        if locality && tile.windows(2).all(|w| w[0] <= w[1]) {
            presorted_tiles += 1;
            continue;
        }
        tile.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    let (mut checks, mut moved) = (0, 0);
    let mut width = TILE;
    while width < n {
        for s0 in (0..n).step_by(2 * width) {
            let mid = (s0 + width).min(n);
            let s1 = (s0 + 2 * width).min(n);
            if mid >= s1 {
                continue;
            }
            checks += 1;
            let (left_last, right_first) = (data[mid - 1], data[mid]);
            if locality && left_last <= right_first {
                continue;
            }
            moved += if locality {
                let lcut = data[s0..mid].partition_point(|v| *v <= right_first);
                let rcut = data[mid..s1].partition_point(|v| *v < left_last);
                ((mid - s0 - lcut) + rcut) as u64
            } else {
                (s1 - s0) as u64
            };
            let mut merged = Vec::with_capacity(s1 - s0);
            let (mut i, mut j) = (s0, mid);
            while i < mid && j < s1 {
                if data[i] <= data[j] {
                    merged.push(data[i]);
                    i += 1;
                } else {
                    merged.push(data[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&data[i..mid]);
            merged.extend_from_slice(&data[j..s1]);
            data[s0..s1].copy_from_slice(&merged);
        }
        width *= 2;
    }
    MergeCounts {
        presorted_tiles,
        checks,
        moved,
    }
}

/// Merge and Locality charge exactly the reference's counts, and so
/// report the same simulated time.
fn assert_merge_family_matches_reference(input: &SortInput) {
    let cfg = DeviceConfig::fermi_c2050();
    for method in [Method::Merge, Method::Locality] {
        let locality = method == Method::Locality;
        let want = match &input.keys {
            Keys::F32(v) => pairwise_merge_counts(v, locality),
            Keys::F64(v) => pairwise_merge_counts(v, locality),
        };
        let n = input.keys.len();
        assert_eq!(
            MergeCounts::of(&input.keys, locality),
            want,
            "{method:?} counts, {} keys of {}",
            n,
            input.name
        );
        let (sorted, ns) = run_variant(method, input, &cfg);
        assert!(sorted.is_sorted() && sorted.len() == n);
        assert_eq!(
            ns.to_bits(),
            merge_family_ns(method, &want, input, &cfg).to_bits(),
            "{method:?} elapsed_ns, {n} keys of {}",
            input.name
        );
    }
}

#[test]
fn merge_counts_match_pairwise_merges_at_tile_edges() {
    for category in CATEGORIES {
        for wide in [false, true] {
            for n in [0, 1, TILE - 1, TILE, TILE + 1, 4 * TILE + 3] {
                let name = format!("edge/{category}/{wide}/{n}");
                assert_merge_family_matches_reference(&generate(category, n, wide, 17, &name));
            }
        }
    }
}

#[test]
fn radix_key_bits_round_trip_special_values() {
    let f64s = [
        f64::NEG_INFINITY,
        -f64::MAX,
        -1.0,
        -f64::MIN_POSITIVE,
        -f64::from_bits(1), // largest negative subnormal
        -0.0,
        0.0,
        f64::from_bits(1), // smallest positive subnormal
        f64::MIN_POSITIVE,
        1.0,
        f64::MAX,
        f64::INFINITY,
    ];
    for w in f64s.windows(2) {
        assert!(w[0].to_bits_ordered() < w[1].to_bits_ordered(), "{w:?}");
    }
    let nans = [f64::NAN, -f64::NAN, f64::from_bits(0x7ff0_0000_0000_0001)];
    for x in f64s.into_iter().chain(nans) {
        assert_eq!(
            f64::from_bits_ordered(x.to_bits_ordered()).to_bits(),
            x.to_bits()
        );
    }

    let f32s = [
        f32::NEG_INFINITY,
        -1.0,
        -f32::from_bits(1),
        -0.0,
        0.0,
        f32::from_bits(1),
        f32::MIN_POSITIVE,
        f32::INFINITY,
    ];
    for w in f32s.windows(2) {
        assert!(w[0].to_bits_ordered() < w[1].to_bits_ordered(), "{w:?}");
    }
    let nans = [f32::NAN, -f32::NAN, f32::from_bits(0xffc0_1234)];
    for x in f32s.into_iter().chain(nans) {
        assert_eq!(
            f32::from_bits_ordered(x.to_bits_ordered()).to_bits(),
            x.to_bits()
        );
    }
}

/// A finite `f64` ≥ +0.0 drawn from one of five classes, so that the
/// edges a uniform draw over the bit patterns almost never reaches
/// (+0.0, the subnormals, `f64::MAX`) come up in every case.
fn non_negative_finite(class: u8, bits: u64, unit: f64) -> f64 {
    match class {
        0 => 0.0,
        1 => f64::from_bits(1 + bits % ((1 << 52) - 1)),
        2 => f64::MAX,
        3 => f64::from_bits(bits % (f64::MAX.to_bits() + 1)),
        // The generators' own range: uniform keys scaled by 1e6.
        _ => unit * 1e6,
    }
}

fn sorted_copy_f64(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    s
}

fn sorted_copy_f32(v: &[f32]) -> Vec<f32> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    s
}

proptest! {
    /// Random sizes across every category and width.
    #[test]
    fn merge_counts_match_pairwise_merges(
        category in 0..CATEGORIES.len(),
        wide in 0u8..2,
        n in 0usize..6 * TILE,
        seed in 0u64..=u64::MAX,
    ) {
        let input = generate(CATEGORIES[category], n, wide == 1, seed, "random-n");
        assert_merge_family_matches_reference(&input);
    }

    /// Heavy duplicates, including both zeros (equal under `<=`, ordered
    /// apart by their bits).
    #[test]
    fn merge_counts_match_pairwise_merges_on_duplicates(
        picks in prop::collection::vec(0usize..6, 0..5 * TILE),
        wide in 0u8..2,
    ) {
        const POOL: [f64; 6] = [-2.5, -0.0, 0.0, 1.0, 1.0, 7.0];
        let keys = if wide == 1 {
            Keys::F64(picks.iter().map(|&p| POOL[p]).collect())
        } else {
            Keys::F32(picks.iter().map(|&p| POOL[p] as f32).collect())
        };
        assert_merge_family_matches_reference(&SortInput::new("dups", "prop", keys));
    }

    /// The order-preserving bits round-trip every bit pattern, and
    /// sorting by them is `total_cmp` order — NaNs and signed zeros
    /// included.
    #[test]
    fn sort_keys_is_total_order_sort(bits in prop::collection::vec(0u64..=u64::MAX, 0..3000)) {
        for &b in &bits {
            prop_assert_eq!(f64::from_bits_ordered(b).to_bits_ordered(), b);
            prop_assert_eq!(f32::from_bits_ordered(b as u32 as u64).to_bits_ordered(), b as u32 as u64);
        }
        let v64: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let mut want64 = v64.clone();
        want64.sort_by(f64::total_cmp);
        let Keys::F64(got64) = sort_keys(&Keys::F64(v64)) else { unreachable!() };
        prop_assert_eq!(
            got64.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want64.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        let v32: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b as u32)).collect();
        let mut want32 = v32.clone();
        want32.sort_by(f32::total_cmp);
        let Keys::F32(got32) = sort_keys(&Keys::F32(v32)) else { unreachable!() };
        prop_assert_eq!(
            got32.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want32.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    /// f64 keys: output equals the comparison-sorted input for every
    /// variant (i.e. it is a sorted permutation).
    #[test]
    fn f64_variants_sort_any_input(keys in prop::collection::vec(-1e12f64..1e12, 1..4000)) {
        let cfg = DeviceConfig::fermi_c2050().noiseless();
        let expect = sorted_copy_f64(&keys);
        for m in [Method::Merge, Method::Locality, Method::Radix] {
            let input = SortInput::new("p64", "prop", Keys::F64(keys.clone()));
            let (out, ns) = run_variant(m, &input, &cfg);
            match out {
                Keys::F64(v) => prop_assert_eq!(&v, &expect, "{:?}", m),
                _ => prop_assert!(false, "wrong key width"),
            }
            prop_assert!(ns > 0.0);
        }
    }

    /// f32 keys, including negatives and repeats.
    #[test]
    fn f32_variants_sort_any_input(keys in prop::collection::vec(-1e6f32..1e6, 1..4000)) {
        let cfg = DeviceConfig::fermi_c2050().noiseless();
        let expect = sorted_copy_f32(&keys);
        for m in [Method::Merge, Method::Locality, Method::Radix] {
            let input = SortInput::new("p32", "prop", Keys::F32(keys.clone()));
            let (out, _) = run_variant(m, &input, &cfg);
            match out {
                Keys::F32(v) => prop_assert_eq!(&v, &expect, "{:?}", m),
                _ => prop_assert!(false, "wrong key width"),
            }
        }
    }

    /// NAscSeq is between 1 and n, and sorted input always reports 1.
    #[test]
    fn ascending_runs_bounds(keys in prop::collection::vec(-1e6f64..1e6, 1..2000)) {
        let k = Keys::F64(keys.clone());
        let runs = k.ascending_runs();
        prop_assert!((1..=keys.len()).contains(&runs));
        let sorted = Keys::F64(sorted_copy_f64(&keys));
        prop_assert_eq!(sorted.ascending_runs(), 1);
    }

    /// Median displacement is zero exactly when the keys are sorted
    /// (modulo ties) and bounded by n.
    #[test]
    fn median_displacement_bounds(keys in prop::collection::vec(0f64..1e9, 2..2000)) {
        let k = Keys::F64(keys.clone());
        let d = k.median_displacement();
        prop_assert!((0.0..=keys.len() as f64).contains(&d));
        let sorted = Keys::F64(sorted_copy_f64(&keys));
        prop_assert_eq!(sorted.median_displacement(), 0.0);
    }

    /// The premise of the generators' key sorts (`reverse` and
    /// `almost_sorted` here, histogram's `sorted_uniform`): on finite
    /// keys ≥ +0.0, ordering by `to_bits()` is ordering by `total_cmp`,
    /// so the integer sort yields the same keys bit for bit, ascending
    /// and reversed. −0.0 and negative keys are excluded because the
    /// generators never produce them: their sign bit makes the bit
    /// pattern order opposite to `total_cmp`.
    #[test]
    fn bit_patterns_order_non_negative_finite_keys_like_total_cmp(
        draws in prop::collection::vec((0u8..5, 0u64..=u64::MAX, 0f64..1.0), 0..3000),
    ) {
        let keys: Vec<f64> = draws
            .iter()
            .map(|&(class, bits, unit)| non_negative_finite(class, bits, unit))
            .collect();
        prop_assert!(keys.iter().all(|x| x.is_finite() && x.is_sign_positive()));
        for w in keys.windows(2) {
            prop_assert_eq!(w[0].to_bits().cmp(&w[1].to_bits()), w[0].total_cmp(&w[1]));
        }
        let bits_of = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut by_total_cmp = keys.clone();
        by_total_cmp.sort_by(f64::total_cmp);
        let mut by_bits = keys.clone();
        by_bits.sort_unstable_by_key(|x| x.to_bits());
        prop_assert_eq!(bits_of(&by_bits), bits_of(&by_total_cmp));
        by_total_cmp.sort_by(|a, b| b.total_cmp(a));
        by_bits.reverse();
        prop_assert_eq!(bits_of(&by_bits), bits_of(&by_total_cmp));
    }
}
