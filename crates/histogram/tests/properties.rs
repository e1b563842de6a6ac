//! Property tests: every histogram variant counts correctly on arbitrary
//! sample sets, and cost relationships hold.

use nitro_histogram::{run_variant, HistInput, Mapping, Method, N_BINS, VARIANTS};
use nitro_simt::DeviceConfig;
use proptest::prelude::*;

proptest! {
    /// All six variants produce exactly the reference histogram, and all
    /// counts sum to n.
    #[test]
    fn variants_count_correctly(data in prop::collection::vec(0.0f64..1.0, 1..6000)) {
        let cfg = DeviceConfig::fermi_c2050().noiseless();
        let input = HistInput::new("prop", "prop", data.clone());
        let expect = input.reference();
        prop_assert_eq!(expect.iter().sum::<u64>(), data.len() as u64);
        for (m, g, name) in VARIANTS {
            let (counts, ns) = run_variant(m, g, &input, &cfg);
            prop_assert_eq!(&counts, &expect, "{}", name);
            prop_assert!(ns > 0.0);
        }
    }

    /// The subsample SD is non-negative and bounded by the full range.
    #[test]
    fn subsample_sd_bounds(data in prop::collection::vec(0.0f64..1.0, 4..5000)) {
        let input = HistInput::new("sd", "prop", data);
        let sd = input.subsample_sd(10_000);
        prop_assert!((0.0..=0.5).contains(&sd), "sd = {}", sd);
    }

    /// On concentrated data large enough to amortize the per-block
    /// reduction, shared atomics beat global atomics (which additionally
    /// pay device-wide hot-address contention). On tiny or uniform inputs
    /// the ordering can flip — that trade-off is the benchmark's point —
    /// so the property pins only the contended regime.
    #[test]
    fn shared_beats_global_under_contention(
        n in 8_192usize..40_000,
        hot in 0.0f64..1.0,
    ) {
        let cfg = DeviceConfig::fermi_c2050().noiseless();
        let data = vec![hot; n];
        let input = HistInput::new("svg", "prop", data);
        let (_, shared) = run_variant(Method::SharedAtomic, Mapping::EvenShare, &input, &cfg);
        let (_, global) = run_variant(Method::GlobalAtomic, Mapping::EvenShare, &input, &cfg);
        prop_assert!(shared < global, "shared {} vs global {}", shared, global);
    }

    /// Binning maps every value to a valid bin.
    #[test]
    fn bins_in_range(v in 0.0f64..1.0) {
        let input = HistInput::new("b", "prop", vec![v]);
        prop_assert!(usize::from(input.bin_of(v)) < N_BINS);
    }

    /// Binning equals the clamp formula on arbitrary bit patterns: every
    /// sign, exponent and NaN payload.
    #[test]
    fn binning_matches_the_clamp_formula_on_any_bits(bits in 0u64..=u64::MAX) {
        let v = f64::from_bits(bits);
        let input = HistInput::new("b", "prop", vec![]);
        prop_assert_eq!(usize::from(input.bin_of(v)), clamp_bin(v), "v = {:e} ({:#018x})", v, bits);
    }
}

/// The clamp formula binning is specified by.
fn clamp_bin(v: f64) -> usize {
    (v.clamp(0.0, 1.0 - 1e-12) * N_BINS as f64) as usize
}

/// Binning equals the clamp formula at the edges where a cast could
/// differ from it: NaN, signed zeros and infinities, subnormals, the
/// values around `1 − 10⁻¹²` and 1, bin edges, and the largest finite
/// values.
#[test]
fn binning_matches_the_clamp_formula_at_the_edges() {
    let below_one = 1.0 - 1e-12;
    let mut values = vec![
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE,
        below_one,
        f64::from_bits(below_one.to_bits() - 1),
        f64::from_bits(below_one.to_bits() + 1),
        255.0 / 256.0,
        f64::from_bits((255.0f64 / 256.0).to_bits() - 1),
        1.0,
        f64::from_bits(1.0f64.to_bits() - 1),
        f64::from_bits(1.0f64.to_bits() + 1),
        256.0,
        f64::MAX,
        f64::MIN,
        f64::MAX / 256.0,
        -1.0,
        -1.0 / 512.0,
    ];
    for b in 0..=256 {
        let edge = f64::from(b) / 256.0;
        values.extend([
            edge,
            f64::from_bits(edge.to_bits().wrapping_sub(1)),
            f64::from_bits(edge.to_bits() + 1),
        ]);
    }
    let input = HistInput::new("b", "prop", vec![]);
    for v in values {
        assert_eq!(
            usize::from(input.bin_of(v)),
            clamp_bin(v),
            "v = {v:e} ({:#018x})",
            v.to_bits()
        );
    }
}
