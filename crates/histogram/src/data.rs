//! Histogram inputs and distribution generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal, Zipf};
use rayon::prelude::*;

/// Bin count used by all variants (CUB commonly benchmarks 256-bin
/// histograms; 256 keeps shared-memory histograms realistic).
pub const N_BINS: usize = 256;

/// One histogram problem instance: samples already mapped to `[0, 1)`.
#[derive(Debug, Clone)]
pub struct HistInput {
    /// Instance name (seeds simulation noise).
    pub name: String,
    /// Distribution family the instance was drawn from.
    pub group: String,
    /// Samples in `[0, 1)`.
    pub data: Vec<f64>,
    /// Noise seed derived from the name.
    pub gpu_seed: u64,
}

impl HistInput {
    /// Wrap a sample vector.
    pub fn new(name: impl Into<String>, group: impl Into<String>, data: Vec<f64>) -> Self {
        let name = name.into();
        let gpu_seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, c| {
            (h ^ c as u64).wrapping_mul(0x100_0000_01b3)
        });
        Self {
            name,
            group: group.into(),
            data,
            gpu_seed,
        }
    }

    /// The bin of one sample: `⌊256·v⌋`, saturated to `0..=255`.
    ///
    /// This is exactly the clamp formula `⌊clamp(v, 0, 1 − 10⁻¹²)·256⌋`
    /// on every `f64`. Scaling by 256 = 2⁸ only shifts the exponent, so
    /// the product is exact (subnormals included; above `f64::MAX / 256`
    /// it is +∞), and `as u8` truncates toward zero and saturates: NaN,
    /// negatives and −∞ give 0, and every product ≥ 255 gives 255. On
    /// `[0, 1 − 10⁻¹²)` the two formulas truncate the same product; on
    /// `[1 − 10⁻¹², +∞]` both give 255.
    #[inline]
    pub fn bin_of(&self, v: f64) -> u8 {
        const _: () = assert!(N_BINS == 256, "bin_of scales by 256 into a u8");
        (v * 256.0) as u8
    }

    /// Reference CPU histogram.
    pub fn reference(&self) -> Vec<u64> {
        let mut counts = [0u64; N_BINS];
        for &v in &self.data {
            counts[usize::from(self.bin_of(v))] += 1;
        }
        counts.to_vec()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Standard deviation of a deterministic subsample — the paper's
    /// `SubSampleSD` feature ("the default size for this is 25% of the
    /// size of the input sample, or 10,000 elements, whichever is lower").
    pub fn subsample_sd(&self, max_sample: usize) -> f64 {
        let n = self.subsample(max_sample).len() as f64;
        let mean = self.subsample(max_sample).sum::<f64>() / n;
        let sq = self.subsample(max_sample).map(|v| (v - mean) * (v - mean));
        (sq.sum::<f64>() / n).sqrt()
    }

    /// Fraction of adjacent pairs in ascending order within the same
    /// deterministic subsample as [`Self::subsample_sd`]. Near 1.0 for
    /// (nearly) sorted inputs, near 0.5 for unordered ones — sortedness
    /// controls per-block bin locality, which `SubSampleSD` cannot see
    /// (a strided subsample of sorted data has the same SD as shuffled
    /// data).
    pub fn subsample_sortedness(&self, max_sample: usize) -> f64 {
        let len = self.subsample(max_sample).len();
        if len < 2 {
            return 1.0;
        }
        let pairs = self
            .subsample(max_sample)
            .zip(self.subsample(max_sample).skip(1));
        let ascending = pairs.filter(|(a, b)| a <= b).count();
        ascending as f64 / (len - 1) as f64
    }

    /// The deterministic strided subsample behind both subsample
    /// features: every `len / k`-th sample, `k` of them at most.
    fn subsample(&self, max_sample: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        let k = (self.len() / 4).min(max_sample).max(1);
        let stride = (self.len() / k).max(1);
        self.data.iter().step_by(stride).take(k).copied()
    }
}

/// Generate one instance of the named distribution family.
pub fn generate(family: &str, n: usize, seed: u64, name: &str) -> HistInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = match family {
        // Uniform over all bins: the atomic variants' best case.
        "uniform" => (0..n).map(|_| rng.random::<f64>()).collect(),
        // Gaussian bumps of varying width: moderate to heavy skew.
        "gaussian_wide" => normal_samples(&mut rng, n, 0.25),
        "gaussian_narrow" => normal_samples(&mut rng, n, 0.03),
        // Zipf over bins: a few very hot bins.
        "zipf" => {
            let z = Zipf::new(N_BINS as f64, 1.3).expect("valid zipf");
            (0..n)
                .map(|_| ((z.sample(&mut rng) - 1.0) + rng.random::<f64>()) / N_BINS as f64)
                .collect()
        }
        // 90% of mass on one value: worst-case contention. The hot value
        // sits mid-range (peaked real-world distributions are normalized
        // around their mode), which keeps the sample SD low — the signal
        // the paper's SubSampleSD feature relies on.
        "spike" => {
            let hot: f64 = rng.random_range(0.25..0.75);
            (0..n)
                .map(|_| {
                    if rng.random_bool(0.9) {
                        hot
                    } else {
                        rng.random()
                    }
                })
                .collect()
        }
        // Uniform values but sorted: per-block bin locality differs
        // wildly across blocks (the even-share vs dynamic contrast).
        "sorted_uniform" => {
            let mut v: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
            // Finite keys in [+0, 1): their bit patterns order like
            // `total_cmp` and keys that compare equal are bit-equal, so an
            // unstable integer sort on the bits yields the stable result.
            v.sort_unstable_by_key(|x| x.to_bits());
            v
        }
        other => panic!("unknown histogram family '{other}'"),
    };
    HistInput::new(name, family, data)
}

fn normal_samples(rng: &mut StdRng, n: usize, sd: f64) -> Vec<f64> {
    let normal = Normal::new(0.5, sd).expect("valid normal");
    (0..n)
        .map(|_| normal.sample(rng).clamp(0.0, 1.0 - 1e-9))
        .collect()
}

/// Distribution families in the collection.
pub const FAMILIES: [&str; 6] = [
    "uniform",
    "gaussian_wide",
    "gaussian_narrow",
    "zipf",
    "spike",
    "sorted_uniform",
];

/// Training set: 200 instances (paper count).
pub fn hist_training_set(seed: u64) -> Vec<HistInput> {
    build_set("train", 200, 0, seed, 4_000..48_000)
}

/// Test set: 1291 instances (paper count).
pub fn hist_test_set(seed: u64) -> Vec<HistInput> {
    build_set("test", 1291, 10_000, seed, 4_000..48_000)
}

/// Small train/test pair for unit and integration tests.
pub fn hist_small_sets(seed: u64) -> (Vec<HistInput>, Vec<HistInput>) {
    (
        build_set("train", 24, 0, seed, 2_000..8_000),
        build_set("test", 30, 500, seed, 2_000..8_000),
    )
}

/// Build `count` instances, the families in rotation. Each instance
/// seeds its own generator from its index, so the set is an
/// order-preserving parallel map over the indices and comes out
/// bit-identical for any worker count.
fn build_set(
    tag: &str,
    count: usize,
    idx_base: usize,
    seed: u64,
    sizes: std::ops::Range<usize>,
) -> Vec<HistInput> {
    let indices: Vec<usize> = (0..count).collect();
    indices
        .par_iter()
        .map(|&i| {
            let family = FAMILIES[i % FAMILIES.len()];
            let mut rng = StdRng::seed_from_u64(seed ^ ((idx_base + i) as u64) << 8);
            let n = rng.random_range(sizes.clone());
            generate(family, n, rng.random(), &format!("{tag}/{family}/{i}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_counts_everything_once() {
        let inp = generate("uniform", 10_000, 3, "t");
        let counts = inp.reference();
        assert_eq!(counts.iter().sum::<u64>(), 10_000);
        assert_eq!(counts.len(), N_BINS);
    }

    #[test]
    fn subsample_sd_separates_uniform_from_spike() {
        let uniform = generate("uniform", 50_000, 5, "u");
        let spike = generate("spike", 50_000, 5, "s");
        assert!(uniform.subsample_sd(10_000) > 2.0 * spike.subsample_sd(10_000));
    }

    #[test]
    fn generators_are_deterministic() {
        let a = generate("zipf", 1000, 9, "z");
        let b = generate("zipf", 1000, 9, "z");
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn set_sizes_match_paper() {
        // Sizes only — building the full sets is cheap enough to check.
        assert_eq!(hist_training_set(1).len(), 200);
        assert_eq!(hist_test_set(1).len(), 1291);
    }

    #[test]
    fn every_family_generates_valid_bins() {
        let mut inp;
        for f in FAMILIES {
            inp = generate(f, 1000, 2, "x");
            for &v in &inp.data {
                assert!((0.0..1.0).contains(&v) || v == 0.0, "{f} produced {v}");
            }
        }
    }
}
