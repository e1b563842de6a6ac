//! The six histogram code variants and their simulated costs.

use nitro_core::{CodeVariant, Context, FnFeature, FnVariant};
use nitro_simt::block::AtomicSpace;
use nitro_simt::{DeviceConfig, Gpu, Schedule};

use crate::data::{HistInput, N_BINS};

/// Histogramming method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Radix-sort the samples, then run-length detect bin boundaries —
    /// skew-oblivious but pays full sorting bandwidth.
    Sort,
    /// Per-block shared-memory histograms merged at the end.
    SharedAtomic,
    /// One global histogram updated with global atomics.
    GlobalAtomic,
}

/// Grid-mapping strategy (paper: "Even-Share (ES) version assigns an even
/// share of inputs to thread blocks, dynamic uses a queue").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// Static even split of the input range over blocks.
    EvenShare,
    /// Work-queue of tiles.
    Dynamic,
}

/// The six variants in registration order.
pub const VARIANTS: [(Method, Mapping, &str); 6] = [
    (Method::Sort, Mapping::EvenShare, "Sort-ES"),
    (Method::Sort, Mapping::Dynamic, "Sort-Dynamic"),
    (Method::SharedAtomic, Mapping::EvenShare, "SharedAtomic-ES"),
    (
        Method::SharedAtomic,
        Mapping::Dynamic,
        "SharedAtomic-Dynamic",
    ),
    (Method::GlobalAtomic, Mapping::EvenShare, "GlobalAtomic-ES"),
    (
        Method::GlobalAtomic,
        Mapping::Dynamic,
        "GlobalAtomic-Dynamic",
    ),
];

/// Samples processed per thread block.
const TILE: usize = 4096;

/// Run one variant: returns the (real) histogram and the simulated time.
pub fn run_variant(
    method: Method,
    mapping: Mapping,
    input: &HistInput,
    cfg: &DeviceConfig,
) -> (Vec<u64>, f64) {
    let salt = (method_index(method) as u64) << 4 | (mapping == Mapping::Dynamic) as u64;
    let gpu = Gpu::with_seed(cfg.clone(), input.gpu_seed ^ salt);
    let schedule = match mapping {
        Mapping::EvenShare => Schedule::EvenShare,
        Mapping::Dynamic => Schedule::Dynamic,
    };
    match method {
        Method::Sort => run_sort_based(input, &gpu, schedule),
        Method::SharedAtomic => run_atomic(input, &gpu, schedule, AtomicSpace::Shared),
        Method::GlobalAtomic => run_atomic(input, &gpu, schedule, AtomicSpace::Global),
    }
}

fn method_index(m: Method) -> usize {
    match m {
        Method::Sort => 0,
        Method::SharedAtomic => 1,
        Method::GlobalAtomic => 2,
    }
}

/// Atomic variants: one pass, binning every sample with atomics. The
/// shared flavour pays only intra-warp same-bin serialization; the global
/// flavour additionally pays device-wide hot-bin contention.
fn run_atomic(
    input: &HistInput,
    gpu: &Gpu,
    schedule: Schedule,
    space: AtomicSpace,
) -> (Vec<u64>, f64) {
    let n = input.len();
    let mut counts = [0u64; N_BINS];
    // Device-wide bin popularity drives the global-contention term; it is
    // exactly what the final histogram measures, so bin first (once per
    // sample: the kernel below replays the recorded bins).
    let bins: Vec<u8> = input
        .data
        .iter()
        .map(|&v| {
            let bin = input.bin_of(v);
            counts[usize::from(bin)] += 1;
            bin
        })
        .collect();
    let hot_share = if space == AtomicSpace::Global && n > 0 {
        *counts.iter().max().unwrap() as f64 / n as f64
    } else {
        0.0
    };

    let blocks = n.div_ceil(TILE).max(1);
    let kernel = if space == AtomicSpace::Shared {
        "hist_shared"
    } else {
        "hist_global"
    };
    let stats = gpu.launch(kernel, blocks, schedule, |b, ctx| {
        let s0 = b * TILE;
        let s1 = (s0 + TILE).min(n);
        if s0 >= s1 {
            return;
        }
        // Stream the tile in.
        ctx.coalesced((s1 - s0) as u64, 8);
        ctx.charge_ops(3 * (s1 - s0) as u64);
        // Warp-by-warp atomic updates with the tile's real bin pattern.
        let mut addrs = [0u64; 32];
        for warp in bins[s0..s1].chunks(32) {
            let lanes = &mut addrs[..warp.len()];
            for (a, &bin) in lanes.iter_mut().zip(warp) {
                *a = bin as u64 * 4;
            }
            ctx.warp_atomic(lanes, space, hot_share);
        }
        if space == AtomicSpace::Shared {
            // Merge the block's shared histogram into the global one.
            ctx.bulk_atomic(N_BINS as f64, AtomicSpace::Global, 1.0);
            ctx.charge_ops(N_BINS as u64);
        }
    });
    (counts.to_vec(), stats.elapsed_ns)
}

/// Sort-based variants: radix passes over the keys, then run-length
/// detection of bin boundaries. Cost is skew-independent.
fn run_sort_based(input: &HistInput, gpu: &Gpu, schedule: Schedule) -> (Vec<u64>, f64) {
    let n = input.len();
    // Functional result: counting sort over bins (equivalent output).
    let counts = input.reference();

    // 256 bins = one 8-bit radix pass... but CUB's sort-based histogram
    // sorts the full keys; model two 8-bit passes over packed bin keys
    // plus the run-length pass.
    let passes = 2.0;
    let blocks = n.div_ceil(TILE).max(1);
    let stats = gpu.launch("hist_sort", blocks, schedule, |b, ctx| {
        let s0 = b * TILE;
        let s1 = (s0 + TILE).min(n);
        if s0 >= s1 {
            return;
        }
        let tile = (s1 - s0) as f64;
        // Each radix pass reads and scatters the keys; scatter coalescing
        // is imperfect (≈ 8-way).
        ctx.bulk_read(tile * 4.0 * passes, 1.0);
        ctx.bulk_write(tile * 4.0 * passes, 0.5);
        ctx.bulk_ops(tile * passes, 4.0);
        // Run-length detection pass.
        ctx.bulk_read(tile * 4.0, 1.0);
        ctx.bulk_ops(tile, 2.0);
    });
    (counts, stats.elapsed_ns)
}

/// Assemble the Histogram `code_variant`: 6 variants + the 3 features of
/// Figure 4 (`N`, `N/#bins`, `SubSampleSD`) plus a sortedness probe over
/// the same subsample. Default: Sort-ES (always safe).
pub fn build_code_variant(ctx: &Context, cfg: &DeviceConfig) -> CodeVariant<HistInput> {
    build_code_variant_with_subsample(ctx, cfg, 10_000)
}

/// Like [`build_code_variant`], with an explicit `SubSampleSD` sample cap
/// — the knob the paper turns in §V-C to trade feature accuracy against
/// evaluation overhead.
pub fn build_code_variant_with_subsample(
    ctx: &Context,
    cfg: &DeviceConfig,
    max_subsample: usize,
) -> CodeVariant<HistInput> {
    let mut cv = CodeVariant::new("histogram", ctx);
    for (method, mapping, name) in VARIANTS {
        let cfg = cfg.clone();
        cv.add_variant(FnVariant::new(name, move |inp: &HistInput| {
            run_variant(method, mapping, inp, &cfg).1
        }));
    }
    cv.set_default(0); // Sort-ES

    cv.add_input_feature(FnFeature::with_cost(
        "N",
        |i: &HistInput| i.len() as f64,
        |_| 8.0,
    ));
    cv.add_input_feature(FnFeature::with_cost(
        "N_per_bin",
        |i: &HistInput| i.len() as f64 / N_BINS as f64,
        |_| 8.0,
    ));
    cv.add_input_feature(FnFeature::with_cost(
        "SubSampleSD",
        move |i: &HistInput| i.subsample_sd(max_subsample),
        move |i: &HistInput| {
            // Proportional to the elements actually sampled.
            8.0 + ((i.len() / 4).min(max_subsample)) as f64 * 0.8
        },
    ));
    // Beyond the paper's Figure 4 inventory: sorted and shuffled inputs
    // have identical `SubSampleSD` but opposite grid-mapping preferences
    // (per-block bin locality), so a sortedness probe over the same
    // subsample is needed to tell them apart.
    cv.add_input_feature(FnFeature::with_cost(
        "SubSampleSortedness",
        move |i: &HistInput| i.subsample_sortedness(max_subsample),
        move |i: &HistInput| 8.0 + ((i.len() / 4).min(max_subsample)) as f64 * 0.4,
    ));
    cv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::generate;

    fn cfg() -> DeviceConfig {
        DeviceConfig::fermi_c2050().noiseless()
    }

    #[test]
    fn all_variants_count_correctly() {
        let inp = generate("gaussian_wide", 20_000, 7, "t");
        let expect = inp.reference();
        for (m, g, name) in VARIANTS {
            let (counts, ns) = run_variant(m, g, &inp, &cfg());
            assert_eq!(counts, expect, "{name}");
            assert!(ns > 0.0);
        }
    }

    #[test]
    fn atomics_win_on_uniform_data() {
        let inp = generate("uniform", 100_000, 3, "u");
        let (_, sort_ns) = run_variant(Method::Sort, Mapping::EvenShare, &inp, &cfg());
        let (_, shared_ns) = run_variant(Method::SharedAtomic, Mapping::EvenShare, &inp, &cfg());
        assert!(shared_ns < sort_ns, "shared {shared_ns} vs sort {sort_ns}");
    }

    #[test]
    fn atomics_collapse_on_spiked_data() {
        let inp = generate("spike", 100_000, 3, "s");
        let (_, sort_ns) = run_variant(Method::Sort, Mapping::EvenShare, &inp, &cfg());
        let (_, global_ns) = run_variant(Method::GlobalAtomic, Mapping::EvenShare, &inp, &cfg());
        let (_, shared_ns) = run_variant(Method::SharedAtomic, Mapping::EvenShare, &inp, &cfg());
        assert!(
            global_ns > 3.0 * sort_ns,
            "global atomic {global_ns} should collapse vs sort {sort_ns}"
        );
        assert!(global_ns > shared_ns, "global should hurt more than shared");
    }

    #[test]
    fn global_atomic_degrades_more_than_shared_with_skew() {
        let uniform = generate("uniform", 80_000, 5, "u");
        let narrow = generate("gaussian_narrow", 80_000, 5, "g");
        let ratio = |inp: &HistInput, m| {
            let (_, ns) = run_variant(m, Mapping::EvenShare, inp, &cfg());
            ns
        };
        let global_slowdown =
            ratio(&narrow, Method::GlobalAtomic) / ratio(&uniform, Method::GlobalAtomic);
        let shared_slowdown =
            ratio(&narrow, Method::SharedAtomic) / ratio(&uniform, Method::SharedAtomic);
        assert!(
            global_slowdown > shared_slowdown,
            "global slowdown {global_slowdown} vs shared {shared_slowdown}"
        );
    }

    #[test]
    fn sort_cost_is_skew_independent() {
        let uniform = generate("uniform", 60_000, 9, "u");
        let spike = generate("spike", 60_000, 9, "s");
        let (_, a) = run_variant(Method::Sort, Mapping::EvenShare, &uniform, &cfg());
        let (_, b) = run_variant(Method::Sort, Mapping::EvenShare, &spike, &cfg());
        assert!(
            (a / b - 1.0).abs() < 0.05,
            "sort times {a} vs {b} should match"
        );
    }

    #[test]
    fn code_variant_matches_paper_inventory() {
        let ctx = Context::new();
        let cv = build_code_variant(&ctx, &cfg());
        assert_eq!(cv.n_variants(), 6);
        assert_eq!(cv.n_features(), 4);
        assert_eq!(
            cv.feature_names(),
            vec!["N", "N_per_bin", "SubSampleSD", "SubSampleSortedness"]
        );
    }

    #[test]
    fn smaller_subsample_reduces_feature_cost() {
        let ctx = Context::new();
        let big = build_code_variant_with_subsample(&ctx, &cfg(), 10_000);
        let small = build_code_variant_with_subsample(&ctx, &cfg(), 500);
        let inp = generate("uniform", 100_000, 1, "c");
        let (_, cost_big) = big.evaluate_features(&inp);
        let (_, cost_small) = small.evaluate_features(&inp);
        assert!(cost_small < cost_big / 5.0);
    }
}
