//! Property-based tests for the SIMT cost model invariants, and the
//! equivalence of the warp primitives with their sort-based references.

use nitro_simt::block::AtomicSpace;
use nitro_simt::{
    BlockCtx, DeviceConfig, Gpu, KernelTally, Schedule, SplitMix64, TexCache, SEGMENT_BYTES,
    WARP_SIZE,
};
use proptest::prelude::*;

fn quiet_gpu() -> Gpu {
    Gpu::new(DeviceConfig::fermi_c2050().noiseless())
}

/// Sort-based references for the warp primitives: each 32-lane group is
/// copied, sorted and deduplicated, and charged as `BlockCtx` documents.
mod reference {
    use super::*;

    fn distinct(chunk: &[u64], key: impl Fn(u64) -> u64) -> Vec<u64> {
        let mut v: Vec<u64> = chunk.iter().map(|&a| key(a)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn bank_degree(distinct: &[u64]) -> u32 {
        let mut per_bank = [0u32; 32];
        for &a in distinct {
            per_bank[((a / 4) % 32) as usize] += 1;
        }
        per_bank.iter().copied().max().unwrap_or(0).max(1)
    }

    pub fn warp_gather(t: &mut KernelTally, cfg: &DeviceConfig, addrs: &[u64]) {
        for chunk in addrs.chunks(WARP_SIZE) {
            let tx = distinct(chunk, |a| a / SEGMENT_BYTES).len() as u64;
            t.transactions += tx;
            t.dram_bytes += (tx * SEGMENT_BYTES) as f64;
            t.memory_cycles += tx as f64 * cfg.cycles_per_transaction;
        }
    }

    pub fn warp_atomic(
        t: &mut KernelTally,
        cfg: &DeviceConfig,
        addrs: &[u64],
        space: AtomicSpace,
        hot_fraction: f64,
    ) {
        let per_op = match space {
            AtomicSpace::Shared => cfg.shared_atomic_cycles,
            AtomicSpace::Global => cfg.global_atomic_cycles,
        };
        for chunk in addrs.chunks(WARP_SIZE) {
            let mut sorted = chunk.to_vec();
            sorted.sort_unstable();
            let (mut max_mult, mut run) = (1u64, 1u64);
            for i in 1..sorted.len() {
                if sorted[i] == sorted[i - 1] {
                    run += 1;
                    max_mult = max_mult.max(run);
                } else {
                    run = 1;
                }
            }
            let mut serialized = max_mult as f64;
            if space == AtomicSpace::Global {
                serialized += cfg.hot_address_factor * hot_fraction.clamp(0.0, 1.0);
                t.dram_bytes += (chunk.len() as u64 * 4) as f64;
            } else {
                serialized = serialized.max(bank_degree(&distinct(chunk, |a| a)) as f64);
            }
            t.atomic_cycles += serialized * per_op;
        }
    }

    pub fn tex_gather(t: &mut KernelTally, cfg: &DeviceConfig, tex: &mut TexCache, addrs: &[u64]) {
        let line = cfg.tex_line_bytes as u64;
        for chunk in addrs.chunks(WARP_SIZE) {
            for l in distinct(chunk, |a| a / line) {
                if tex.access(l * line) {
                    t.tex_hits += 1;
                    t.memory_cycles += cfg.tex_hit_cycles;
                } else {
                    t.tex_misses += 1;
                    t.memory_cycles += cfg.tex_miss_cycles;
                    t.dram_bytes += cfg.tex_line_bytes as f64;
                }
            }
        }
    }
}

/// Lane addresses of one of five shapes: random over a wide range,
/// random over a few addresses (heavy duplicates), strided, one address
/// for every lane, and same-bank addresses 128 bytes apart.
fn lane_addrs(shape: u8, lanes: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let base = rng.next_u64() % (1 << 40);
    let stride = [0, 1, 4, 8, 12, 64, 128, 4096][(rng.next_u64() % 8) as usize];
    (0..lanes as u64)
        .map(|i| match shape {
            0 => rng.next_u64() % (1 << 24),
            1 => base + (rng.next_u64() % 6) * 4,
            2 => base + i * stride,
            3 => base,
            _ => base + (rng.next_u64() % 40) * 128,
        })
        .collect()
}

/// The tally one block charges for `body`.
fn block_tally(cfg: &DeviceConfig, body: impl Fn(&mut BlockCtx)) -> KernelTally {
    let mut tally = None;
    Gpu::new(cfg.clone()).launch("warp", 1, Schedule::EvenShare, |_, ctx| {
        body(ctx);
        tally = Some(*ctx.tally());
    });
    tally.expect("one block ran")
}

proptest! {
    /// Each warp primitive charges exactly what its sort-based reference
    /// charges, field by field, for 0..=70 lanes of every shape.
    #[test]
    fn warp_primitives_match_sort_based_references(
        shape in 0u8..5,
        lanes in 0usize..=70,
        seed in 0u64..=u64::MAX,
        hot_fraction in -0.5f64..1.5,
    ) {
        let cfg = DeviceConfig::fermi_c2050();
        let addrs = lane_addrs(shape, lanes, seed);

        let mut want = KernelTally::default();
        reference::warp_gather(&mut want, &cfg, &addrs);
        prop_assert_eq!(block_tally(&cfg, |ctx| ctx.warp_gather(&addrs, 4)), want);

        for space in [AtomicSpace::Shared, AtomicSpace::Global] {
            let mut want = KernelTally::default();
            reference::warp_atomic(&mut want, &cfg, &addrs, space, hot_fraction);
            let got = block_tally(&cfg, |ctx| ctx.warp_atomic(&addrs, space, hot_fraction));
            prop_assert_eq!(got, want, "{:?}", space);
        }

        // The texture path keeps its sorted line order: replaying the
        // addresses twice makes the second pass depend on the LRU state
        // the first left behind.
        let twice: Vec<u64> = addrs.iter().chain(&addrs).copied().collect();
        let mut want = KernelTally::default();
        let mut tex = TexCache::new(cfg.tex_cache_bytes, cfg.tex_line_bytes, cfg.tex_assoc);
        reference::tex_gather(&mut want, &cfg, &mut tex, &twice);
        prop_assert_eq!(block_tally(&cfg, |ctx| ctx.tex_gather(&twice)), want);
    }

    /// A warp gather costs between 1 and 32 transactions per 32-lane group.
    #[test]
    fn gather_transactions_bounded(addrs in prop::collection::vec(0u64..1_000_000, 1..256)) {
        let gpu = quiet_gpu();
        let n_warps = addrs.len().div_ceil(WARP_SIZE) as u64;
        let stats = gpu.launch("g", 1, Schedule::EvenShare, |_, ctx| {
            ctx.warp_gather(&addrs, 4);
        });
        prop_assert!(stats.tally.transactions >= n_warps);
        prop_assert!(stats.tally.transactions <= n_warps * WARP_SIZE as u64);
    }

    /// Cache hit rate is always within [0, 1], and hits + misses == accesses.
    #[test]
    fn cache_accounting_consistent(addrs in prop::collection::vec(0u64..100_000, 1..2000)) {
        let mut cache = TexCache::new(4096, 32, 4);
        for &a in &addrs {
            cache.access(a);
        }
        prop_assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
        prop_assert!((0.0..=1.0).contains(&cache.hit_rate()));
    }

    /// Sorting addresses makes each distinct segment contiguous, so the
    /// sorted transaction count is at most #distinct-segments plus one
    /// boundary split per extra warp — and every layout costs at least
    /// #distinct-segments. (Sorting CAN be one worse per warp boundary.)
    #[test]
    fn sorted_gather_close_to_optimal(mut addrs in prop::collection::vec(0u64..1_000_000, 32..512)) {
        let gpu = quiet_gpu();
        let n_warps = addrs.len().div_ceil(WARP_SIZE) as u64;
        let mut segs: Vec<u64> = addrs.iter().map(|a| a / 128).collect();
        segs.sort_unstable();
        segs.dedup();
        let distinct = segs.len() as u64;

        let unsorted = gpu.launch("g", 1, Schedule::EvenShare, |_, ctx| {
            ctx.warp_gather(&addrs, 4);
        });
        addrs.sort_unstable();
        let sorted = gpu.launch("g", 1, Schedule::EvenShare, |_, ctx| {
            ctx.warp_gather(&addrs, 4);
        });
        prop_assert!(sorted.tally.transactions < distinct + n_warps);
        prop_assert!(unsorted.tally.transactions >= distinct);
    }

    /// Elapsed time is monotone in added compute work.
    #[test]
    fn elapsed_monotone_in_work(base in 1.0e3f64..1.0e6, extra in 0.0f64..1.0e6) {
        let gpu = quiet_gpu();
        let t1 = gpu.launch("k", 14, Schedule::EvenShare, |_, ctx| ctx.charge_cycles(base)).elapsed_ns;
        let t2 = gpu.launch("k", 14, Schedule::EvenShare, |_, ctx| ctx.charge_cycles(base + extra)).elapsed_ns;
        prop_assert!(t2 >= t1);
    }

    /// Dynamic (greedy) scheduling satisfies Graham's bound: busiest SM
    /// load ≤ mean load + one block, regardless of cost distribution.
    #[test]
    fn dynamic_satisfies_graham_bound(
        costs in prop::collection::vec(0.0f64..1.0e6, 1..200)
    ) {
        let gpu = quiet_gpu();
        let cycle_ns = gpu.config().cycle_ns();
        let dispatch = 40.0; // per-block dynamic dispatch cycles
        let dy = gpu.launch("k", costs.len(), Schedule::Dynamic, |b, ctx| ctx.charge_cycles(costs[b]));
        let busy = dy.elapsed_ns - gpu.config().launch_overhead_ns;
        let per_block: Vec<f64> = costs.iter().map(|c| (c + dispatch) * cycle_ns).collect();
        let mean = per_block.iter().sum::<f64>() / gpu.config().num_sms as f64;
        let max_block = per_block.iter().cloned().fold(0.0, f64::max);
        prop_assert!(busy <= mean + max_block + 1e-6,
            "busy {} mean {} max_block {}", busy, mean, max_block);
    }

    /// The bandwidth roofline holds: elapsed >= dram_bytes / bandwidth.
    #[test]
    fn roofline_lower_bound(bytes in 1.0e3f64..1.0e8) {
        let gpu = quiet_gpu();
        let s = gpu.launch("stream", 14, Schedule::EvenShare, |_, ctx| {
            ctx.bulk_mem(bytes / 14.0, 1.0);
        });
        prop_assert!(s.elapsed_ns + 1e-9 >= gpu.config().dram_ns(s.tally.dram_bytes));
    }
}
