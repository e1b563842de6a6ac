//! The three sorting code variants and their simulated costs.
//!
//! * **Radix Sort** (CUB): LSD radix over the bit-flipped IEEE keys —
//!   cost ∝ `passes × key_bytes`, so it is superb on 32-bit keys and
//!   loses ground on 64-bit ones (twice the passes *and* twice the bytes
//!   per pass), exactly the paper's observation.
//! * **Merge Sort** (ModernGPU): tile blocksort plus `log(N/tile)`
//!   oblivious merge passes.
//! * **Locality Sort** (ModernGPU): merge sort that detects already
//!   ordered tile boundaries and merges only the overlapping windows, so
//!   nearly-sorted inputs move almost no data — "for almost sorted
//!   sequences, Locality Sort performs best" (§V-A).
//!
//! All three really sort (tests verify the output), through one shared
//! keys-only LSD radix sort over the order-preserving key bits
//! ([`sort_keys`]). What each variant charges to the simulated GPU is
//! its own: Radix pays its passes, and the merge family pays the data
//! movement its tile blocksort and pairwise merges would do, which
//! [`MergeCounts::of`] derives from the input without merging (per-block
//! minima and maxima and linear counts give each merge-path window).

use nitro_core::{CodeVariant, Context, FnFeature, FnVariant, Predicate};
use nitro_simt::{DeviceConfig, Gpu, Schedule};

use crate::keys::{Keys, SortInput};

/// Tile size for blocksort (one thread block's share).
pub const TILE: usize = 512;

/// Variant names in registration order.
pub const VARIANT_NAMES: [&str; 3] = ["Merge", "Locality", "Radix"];

/// Sorting method selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// ModernGPU-style merge sort.
    Merge,
    /// ModernGPU-style locality sort.
    Locality,
    /// CUB-style LSD radix sort.
    Radix,
}

/// Run one variant; returns the sorted keys and simulated nanoseconds.
pub fn run_variant(method: Method, input: &SortInput, cfg: &DeviceConfig) -> (Keys, f64) {
    let ns = match method {
        Method::Radix => radix_ns(input, cfg),
        Method::Merge | Method::Locality => {
            let counts = MergeCounts::of(&input.keys, method == Method::Locality);
            merge_family_ns(method, &counts, input, cfg)
        }
    };
    (sort_keys(&input.keys), ns)
}

/// The device a variant's launch runs on, seeded per input and method.
fn gpu_for(method: Method, input: &SortInput, cfg: &DeviceConfig) -> Gpu {
    Gpu::with_seed(cfg.clone(), input.gpu_seed ^ method as u64)
}

/// Keys that can be converted to an order-preserving unsigned integer.
pub trait RadixKey {
    /// Order-preserving bit representation: `a < b` implies
    /// `a.to_bits_ordered() < b.to_bits_ordered()`, and `-0.0` orders
    /// before `+0.0`.
    fn to_bits_ordered(self) -> u64;
    /// Inverse of [`RadixKey::to_bits_ordered`], exact on every bit
    /// pattern (NaN payloads included).
    fn from_bits_ordered(bits: u64) -> Self;
}

impl RadixKey for f32 {
    fn to_bits_ordered(self) -> u64 {
        let b = self.to_bits();
        let flipped = if b & 0x8000_0000 != 0 {
            !b
        } else {
            b ^ 0x8000_0000
        };
        flipped as u64
    }
    fn from_bits_ordered(bits: u64) -> Self {
        let b = bits as u32;
        f32::from_bits(if b & 0x8000_0000 != 0 {
            b ^ 0x8000_0000
        } else {
            !b
        })
    }
}

impl RadixKey for f64 {
    fn to_bits_ordered(self) -> u64 {
        let b = self.to_bits();
        if b & 0x8000_0000_0000_0000 != 0 {
            !b
        } else {
            b ^ 0x8000_0000_0000_0000
        }
    }
    fn from_bits_ordered(bits: u64) -> Self {
        f64::from_bits(if bits & 0x8000_0000_0000_0000 != 0 {
            bits ^ 0x8000_0000_0000_0000
        } else {
            !bits
        })
    }
}

/// Sort keys by their order-preserving bits: the functional result of
/// all three variants (each charges its own simulated cost).
pub fn sort_keys(keys: &Keys) -> Keys {
    match keys {
        Keys::F32(v) => {
            let bits = v.iter().map(|&k| k.to_bits_ordered() as u32).collect();
            let sorted = lsd_sort(bits).into_iter();
            Keys::F32(sorted.map(|b| f32::from_bits_ordered(b as u64)).collect())
        }
        Keys::F64(v) => {
            let bits = v.iter().map(|&k| k.to_bits_ordered()).collect();
            Keys::F64(
                lsd_sort(bits)
                    .into_iter()
                    .map(f64::from_bits_ordered)
                    .collect(),
            )
        }
    }
}

/// LSD radix sort with 8-bit digits. Input already in ascending or
/// descending order needs no passes. Otherwise one counting pass builds
/// every digit's histogram; a digit all keys share is already in order
/// and its scatter pass is skipped.
fn lsd_sort<B: Copy + Default + Ord + Into<u64>>(mut keys: Vec<B>) -> Vec<B> {
    if keys.windows(2).all(|w| w[0] <= w[1]) {
        return keys;
    }
    if keys.windows(2).all(|w| w[0] >= w[1]) {
        keys.reverse();
        return keys;
    }
    let digit = |k: B, d: usize| ((k.into() >> (8 * d)) & 0xFF) as usize;
    let n = keys.len();
    let mut counts = vec![[0usize; 256]; std::mem::size_of::<B>()];
    for &k in &keys {
        for (d, c) in counts.iter_mut().enumerate() {
            c[digit(k, d)] += 1;
        }
    }
    let mut buffer = vec![B::default(); n];
    for (d, c) in counts.iter_mut().enumerate() {
        if c.contains(&n) {
            continue;
        }
        let mut offset = 0;
        for x in c.iter_mut() {
            let count = *x;
            *x = offset;
            offset += count;
        }
        for &k in &keys {
            let slot = &mut c[digit(k, d)];
            buffer[*slot] = k;
            *slot += 1;
        }
        std::mem::swap(&mut keys, &mut buffer);
    }
    keys
}

/// Simulated cost of the radix sort: each of the `bits / 8` passes
/// streams the keys in and scatters them out (poorly coalesced), plus
/// digit histogram/scan work.
fn radix_ns(input: &SortInput, cfg: &DeviceConfig) -> f64 {
    let n = input.keys.len();
    let key_bytes = input.keys.key_bytes() as f64;
    let passes = input.keys.bits() / 8;
    let blocks = n.div_ceil(TILE).max(1);
    let gpu = gpu_for(Method::Radix, input, cfg);
    let stats = gpu.launch("radix_sort", blocks, Schedule::EvenShare, |b, ctx| {
        let s0 = b * TILE;
        let s1 = (s0 + TILE).min(n);
        if s0 >= s1 {
            return;
        }
        let tile = (s1 - s0) as f64;
        for _ in 0..passes {
            // Histogram read + rank read, then a poorly coalesced scatter.
            ctx.bulk_read(tile * key_bytes * 2.0, 1.0);
            ctx.bulk_write(tile * key_bytes, 0.25);
            ctx.bulk_ops(tile, 1.0);
        }
    });
    stats.elapsed_ns
}

/// The data movement a merge-family sort charges: a tile blocksort
/// followed by pairwise merge passes of doubling width.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeCounts {
    /// Tiles the blocksort skips because they are already in order
    /// (Locality only; an empty input is one presorted empty tile).
    pub presorted_tiles: usize,
    /// Merge-pass boundary probes: one per pair of adjacent blocks.
    pub checks: u64,
    /// Elements the merges read and write.
    pub moved: u64,
}

impl MergeCounts {
    /// Count the movement of a Merge (`locality = false`) or Locality
    /// sort of `keys`.
    ///
    /// The counts come straight from the input, without merging: after
    /// the passes of width `w`, the block starting at `s0` holds the
    /// sorted multiset of the input's `s0..s0 + w`. So a block's last
    /// and first elements are that range's maximum and minimum, and the
    /// merge-path window of a pair — left elements above the right
    /// block's minimum plus right elements below the left block's
    /// maximum — is two linear counts over the unsorted input ranges.
    /// Locality skips a pair whose left maximum is `<=` its right
    /// minimum; Merge moves every pair in full. Equal to what pairwise
    /// merges measure for every NaN-free input.
    pub fn of(keys: &Keys, locality: bool) -> Self {
        match keys {
            Keys::F32(v) => merge_counts(v, locality),
            Keys::F64(v) => merge_counts(v, locality),
        }
    }
}

fn merge_counts<T: Copy + PartialOrd>(keys: &[T], locality: bool) -> MergeCounts {
    let n = keys.len();
    let mut counts = MergeCounts::default();
    // Per-block (min, max), starting from the tiles.
    let mut extremes: Vec<(T, T)> = Vec::new();
    if locality {
        for tile in keys.chunks(TILE) {
            let mut lo = tile[0];
            let mut hi = tile[0];
            let mut sorted = true;
            for w in tile.windows(2) {
                sorted &= w[0] <= w[1];
                if w[1] < lo {
                    lo = w[1];
                }
                if w[1] > hi {
                    hi = w[1];
                }
            }
            counts.presorted_tiles += sorted as usize;
            extremes.push((lo, hi));
        }
        if n == 0 {
            counts.presorted_tiles = 1;
        }
    }
    let mut width = TILE;
    while width < n {
        for (k, s0) in (0..n).step_by(2 * width).enumerate() {
            let mid = (s0 + width).min(n);
            let s1 = (s0 + 2 * width).min(n);
            if mid >= s1 {
                if locality {
                    extremes[k] = extremes[2 * k];
                }
                continue;
            }
            counts.checks += 1;
            if !locality {
                counts.moved += (s1 - s0) as u64;
                continue;
            }
            let ((l_lo, l_hi), (r_lo, r_hi)) = (extremes[2 * k], extremes[2 * k + 1]);
            let trivially_ordered = l_hi <= r_lo;
            if !trivially_ordered {
                let lcut = keys[s0..mid].iter().filter(|&&v| v <= r_lo).count();
                let rcut = keys[mid..s1].iter().filter(|&&v| v < l_hi).count();
                counts.moved += ((mid - s0 - lcut) + rcut) as u64;
            }
            let lo = if r_lo < l_lo { r_lo } else { l_lo };
            let hi = if r_hi > l_hi { r_hi } else { l_hi };
            extremes[k] = (lo, hi);
        }
        if locality {
            extremes.truncate(n.div_ceil(2 * width));
        }
        width *= 2;
    }
    counts
}

/// Simulated cost of a Merge or Locality sort with the given movement:
/// blocksort traffic for every tile not presorted, then merge traffic
/// for every moved element, spread evenly over the blocks.
pub fn merge_family_ns(
    method: Method,
    counts: &MergeCounts,
    input: &SortInput,
    cfg: &DeviceConfig,
) -> f64 {
    let n = input.keys.len();
    let key_bytes = input.keys.key_bytes() as f64;
    let blocks = n.div_ceil(TILE).max(1);
    let sorted_tiles = blocks - counts.presorted_tiles;
    let gpu = gpu_for(method, input, cfg);
    let kernel = match method {
        Method::Locality => "locality_sort",
        _ => "merge_sort",
    };
    let stats = gpu.launch(kernel, blocks, Schedule::EvenShare, |b, ctx| {
        let share = |x: u64| x as f64 / blocks as f64;
        if b == 0 {
            // Per-pass boundary probing (tiny).
            ctx.bulk_ops(counts.checks as f64 * 2.0, 1.0);
        }
        // Blocksort traffic: read + write each non-presorted tile.
        let tile_elems = share(sorted_tiles as u64 * TILE as u64);
        ctx.bulk_read(tile_elems * key_bytes, 1.0);
        ctx.bulk_write(tile_elems * key_bytes, 1.0);
        ctx.bulk_ops(tile_elems * 9.0, 1.0); // ~log2(TILE) compares
                                             // Merge traffic: read + write every moved element, plus the
                                             // stream of merge-path probes.
        let merged = share(counts.moved);
        ctx.bulk_read(merged * key_bytes, 0.9);
        ctx.bulk_write(merged * key_bytes, 0.9);
        ctx.bulk_ops(merged * 2.0, 1.0);
    });
    stats.elapsed_ns
}

/// Assemble the Sort `code_variant`: 3 variants, 3 features (`N`,
/// `Nbits`, `NAscSeq` — Figure 4). Default: Merge (robust everywhere).
pub fn build_code_variant(ctx: &Context, cfg: &DeviceConfig) -> CodeVariant<SortInput> {
    let mut cv = CodeVariant::new("sort", ctx);
    for (method, name) in [
        (Method::Merge, "Merge"),
        (Method::Locality, "Locality"),
        (Method::Radix, "Radix"),
    ] {
        let cfg = cfg.clone();
        cv.add_variant(FnVariant::new(name, move |inp: &SortInput| {
            run_variant(method, inp, &cfg).1
        }));
    }
    cv.set_default(0);

    cv.add_input_feature(FnFeature::with_cost(
        "N",
        |i: &SortInput| i.keys.len() as f64,
        |_| 8.0,
    ));
    cv.add_input_feature(FnFeature::with_cost(
        "Nbits",
        |i: &SortInput| i.keys.bits() as f64,
        |_| 8.0,
    ));
    cv.add_input_feature(FnFeature::with_cost(
        "NAscSeq",
        |i: &SortInput| i.keys.ascending_runs() as f64,
        |i: &SortInput| 8.0 + i.keys.len() as f64 * 0.8,
    ));

    // Radix is only allowed on 32-bit keys (feature 1 = Nbits): on
    // 64-bit keys it pays twice the passes and twice the bytes per pass
    // and the merge family always wins (§V-A), so this declarative
    // guard never changes a label — it encodes the cost model's own
    // conclusion where the whole-configuration analyses can see it.
    cv.add_predicate_constraint(2, "radix_32bit", Predicate::le(1, 32.0))
        .expect("Radix is registered");
    cv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::generate;

    fn cfg() -> DeviceConfig {
        DeviceConfig::fermi_c2050().noiseless()
    }

    fn assert_sorted(k: &Keys) {
        assert!(k.is_sorted(), "output not sorted");
    }

    #[test]
    fn all_variants_sort_correctly() {
        for wide in [false, true] {
            for category in [
                "uniform",
                "reverse",
                "almost_sorted",
                "normal",
                "exponential",
            ] {
                let inp = generate(category, 5_000, wide, 11, "t");
                for m in [Method::Merge, Method::Locality, Method::Radix] {
                    let (sorted, ns) = run_variant(m, &inp, &cfg());
                    assert_sorted(&sorted);
                    assert_eq!(sorted.len(), 5_000);
                    assert!(ns > 0.0);
                }
            }
        }
    }

    #[test]
    fn radix_handles_negative_and_special_floats() {
        let keys = Keys::F64(vec![3.5, -0.0, -7.25, 0.0, 1e300, -1e300, 42.0]);
        let inp = SortInput::new("neg", "misc", keys);
        let (sorted, _) = run_variant(Method::Radix, &inp, &cfg());
        if let Keys::F64(v) = sorted {
            assert_eq!(v[0], -1e300);
            assert_eq!(*v.last().unwrap(), 1e300);
            assert!(v.windows(2).all(|w| w[0] <= w[1]));
        } else {
            panic!("wrong key type");
        }
    }

    #[test]
    fn radix_sort_moves_a_lone_differing_digit() {
        // All keys but one share every digit, and the outlier sits mid-way
        // (neither ascending nor descending): each of its digit passes
        // must still run.
        let mut wide = vec![1.0f64; 101];
        wide[50] = f64::from_bits(1.0f64.to_bits() + 1);
        assert_sorted(&sort_keys(&Keys::F64(wide)));
        let mut narrow = vec![1.0f32; 101];
        narrow[50] = f32::from_bits(1.0f32.to_bits() + 1);
        assert_sorted(&sort_keys(&Keys::F32(narrow)));
    }

    #[test]
    fn radix_wins_on_32bit_random() {
        let inp = generate("uniform", 100_000, false, 5, "u32");
        let (_, radix) = run_variant(Method::Radix, &inp, &cfg());
        let (_, merge) = run_variant(Method::Merge, &inp, &cfg());
        assert!(radix < merge, "radix {radix} vs merge {merge} on 32-bit");
    }

    #[test]
    fn merge_family_wins_on_64bit_random() {
        let inp = generate("uniform", 100_000, true, 5, "u64");
        let (_, radix) = run_variant(Method::Radix, &inp, &cfg());
        let (_, merge) = run_variant(Method::Merge, &inp, &cfg());
        assert!(merge < radix, "merge {merge} vs radix {radix} on 64-bit");
    }

    #[test]
    fn locality_wins_on_almost_sorted() {
        let inp = generate("almost_sorted", 100_000, true, 7, "a");
        let (_, locality) = run_variant(Method::Locality, &inp, &cfg());
        let (_, merge) = run_variant(Method::Merge, &inp, &cfg());
        let (_, radix) = run_variant(Method::Radix, &inp, &cfg());
        assert!(locality < merge, "locality {locality} vs merge {merge}");
        assert!(locality < radix, "locality {locality} vs radix {radix}");
    }

    #[test]
    fn locality_matches_merge_on_random_data() {
        let inp = generate("uniform", 50_000, true, 9, "r");
        let (_, locality) = run_variant(Method::Locality, &inp, &cfg());
        let (_, merge) = run_variant(Method::Merge, &inp, &cfg());
        // Window accounting on random data covers nearly everything.
        assert!(
            (locality / merge) < 1.25,
            "locality {locality} vs merge {merge}"
        );
    }

    #[test]
    fn code_variant_matches_paper_inventory() {
        let ctx = Context::new();
        let cv = build_code_variant(&ctx, &cfg());
        assert_eq!(cv.n_variants(), 3);
        assert_eq!(cv.feature_names(), vec!["N", "Nbits", "NAscSeq"]);
    }
}
