//! Per-block cost accounting: the API kernels charge their work through.
//!
//! A kernel body receives one [`BlockCtx`] per thread block. Fine-grained
//! methods ([`BlockCtx::warp_gather`], [`BlockCtx::warp_loop`], …) take the
//! actual addresses/trip counts the block touches, so coalescing and
//! divergence costs emerge from the data itself. Bulk methods
//! ([`BlockCtx::bulk_read`], …) let large streaming kernels (the sorts)
//! account work per pass without enumerating every address.

use crate::cache::TexCache;
use crate::config::DeviceConfig;
use crate::stats::KernelTally;
use crate::{SEGMENT_BYTES, WARP_SIZE};

/// Memory space an atomic operation targets; global atomics additionally
/// pay device-wide hot-address contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicSpace {
    /// On-chip shared memory (block-local), cheap but still serialized on
    /// same-address conflicts within a warp.
    Shared,
    /// Off-chip global memory: expensive, and hot addresses serialize
    /// device-wide.
    Global,
}

/// Shared memory is split into 32 four-byte banks.
const BANKS: usize = 32;

/// Slots of a [`WarpTable`]: eight per lane keep linear probes short
/// (a 64-slot table took twice the host time on random addresses).
const SLOTS: usize = 8 * WARP_SIZE;

/// Per-value lane counts for one warp's addresses, without sorting:
/// an open-addressed table on the stack, cleared by bumping a
/// generation stamp instead of rewriting the slots.
struct WarpTable {
    keys: [u64; SLOTS],
    lanes: [u32; SLOTS],
    stamps: [u32; SLOTS],
    generation: u32,
    /// Slot of the previous lane's value (`SLOTS` after a clear):
    /// neighbouring lanes often share a segment or bin.
    last: usize,
}

impl WarpTable {
    fn new() -> Self {
        Self {
            keys: [0; SLOTS],
            lanes: [0; SLOTS],
            stamps: [0; SLOTS],
            generation: 1,
            last: SLOTS,
        }
    }

    /// Start a new warp.
    fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps = [0; SLOTS];
            self.generation = 1;
        }
        self.last = SLOTS;
    }

    /// Count one lane with value `key`; returns how many lanes of this
    /// warp have had it so far (1 on its first occurrence). At most
    /// [`WARP_SIZE`] distinct values fit between clears.
    fn add(&mut self, key: u64) -> u32 {
        if self.last == SLOTS || self.keys[self.last] != key {
            let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOTS.ilog2())) as usize;
            while self.stamps[i] == self.generation && self.keys[i] != key {
                i = (i + 1) % SLOTS;
            }
            if self.stamps[i] != self.generation {
                self.stamps[i] = self.generation;
                self.keys[i] = key;
                self.lanes[i] = 0;
            }
            self.last = i;
        }
        self.lanes[self.last] += 1;
        self.lanes[self.last]
    }

    /// Number of distinct `key(a)` over one warp's addresses.
    fn distinct(&mut self, chunk: &[u64], key: impl Fn(u64) -> u64) -> u64 {
        self.clear();
        chunk.iter().filter(|&&a| self.add(key(a)) == 1).count() as u64
    }

    /// One warp's conflicts: the largest same-address multiplicity, and
    /// the worst bank's count of *distinct* addresses (the same address
    /// broadcasts). Both are at least 1.
    fn conflicts(&mut self, chunk: &[u64]) -> (u32, u32) {
        self.clear();
        let (mut max_mult, mut degree) = (1, 1);
        let mut per_bank = [0u32; BANKS];
        for &a in chunk {
            let mult = self.add(a);
            max_mult = max_mult.max(mult);
            if mult == 1 {
                let bank = &mut per_bank[((a / 4) % BANKS as u64) as usize];
                *bank += 1;
                degree = degree.max(*bank);
            }
        }
        (max_mult, degree)
    }
}

/// Cost-accounting context handed to the kernel body for each thread block.
///
/// The warp primitives count segments, multiplicities and bank conflicts
/// with a `WarpTable` (a small open-addressed table) instead of sorting
/// each warp's addresses: a host fast path that must charge
/// bit-identical simulated costs.
pub struct BlockCtx<'a> {
    cfg: &'a DeviceConfig,
    tex: &'a mut TexCache,
    tally: KernelTally,
    table: WarpTable,
}

impl<'a> BlockCtx<'a> {
    pub(crate) fn new(cfg: &'a DeviceConfig, tex: &'a mut TexCache) -> Self {
        Self {
            cfg,
            tex,
            tally: KernelTally::default(),
            table: WarpTable::new(),
        }
    }

    /// Hand over the block's counters and start the next block from
    /// zero; one context serves every block of a launch.
    pub(crate) fn take_tally(&mut self) -> KernelTally {
        std::mem::take(&mut self.tally)
    }

    /// The device this block runs on.
    pub fn config(&self) -> &DeviceConfig {
        self.cfg
    }

    /// Counters accumulated so far by this block.
    pub fn tally(&self) -> &KernelTally {
        &self.tally
    }

    /// Charge raw SM cycles (arithmetic, control flow).
    pub fn charge_cycles(&mut self, cycles: f64) {
        self.tally.compute_cycles += cycles;
    }

    /// Charge `n` warp-wide scalar operations.
    pub fn charge_ops(&mut self, n: u64) {
        self.tally.compute_cycles += n as f64 * self.cfg.cycles_per_op;
    }

    /// Warp-wide gather/scatter of `elem_bytes`-sized elements at the given
    /// byte `addrs`. Addresses are processed in groups of 32 (one warp);
    /// each group costs one memory transaction per distinct 128-byte
    /// segment touched — fully coalesced access costs 1 transaction for
    /// 4-byte elements, a random gather costs up to 32.
    pub fn warp_gather(&mut self, addrs: &[u64], elem_bytes: u32) {
        debug_assert!(elem_bytes > 0);
        for chunk in addrs.chunks(WARP_SIZE) {
            // Each element may straddle a segment boundary; charge the
            // first segment only (straddles are rare for aligned data).
            let tx = self.table.distinct(chunk, |a| a / SEGMENT_BYTES);
            self.tally.transactions += tx;
            self.tally.dram_bytes += (tx * SEGMENT_BYTES) as f64;
            self.tally.memory_cycles += tx as f64 * self.cfg.cycles_per_transaction;
        }
    }

    /// Perfectly coalesced streaming access of `n_elems` elements of
    /// `elem_bytes` each (read or write — the cost model is symmetric).
    pub fn coalesced(&mut self, n_elems: u64, elem_bytes: u32) {
        let bytes = n_elems * elem_bytes as u64;
        let tx = bytes.div_ceil(SEGMENT_BYTES);
        self.tally.transactions += tx;
        self.tally.dram_bytes += bytes as f64;
        self.tally.memory_cycles += tx as f64 * self.cfg.cycles_per_transaction;
    }

    /// Gather routed through the texture cache (the paper's "Tx" variants
    /// bind the SpMV input vector to a texture). Within each 32-lane
    /// group, lanes touching the same cache line are *broadcast* — only
    /// distinct lines are charged — then hits cost
    /// [`DeviceConfig::tex_hit_cycles`] and misses cost
    /// [`DeviceConfig::tex_miss_cycles`] plus a line fill from DRAM.
    pub fn tex_gather(&mut self, addrs: &[u64]) {
        let line = self.cfg.tex_line_bytes as u64;
        for chunk in addrs.chunks(WARP_SIZE) {
            // Distinct lines in ascending order: the LRU state, and so
            // every later hit or miss, depends on the access order.
            let mut lines = [0u64; WARP_SIZE];
            let lines = &mut lines[..chunk.len()];
            for (l, &a) in lines.iter_mut().zip(chunk) {
                *l = a / line;
            }
            lines.sort_unstable();
            for (i, &l) in lines.iter().enumerate() {
                if i > 0 && lines[i - 1] == l {
                    continue;
                }
                if self.tex.access(l * line) {
                    self.tally.tex_hits += 1;
                    self.tally.memory_cycles += self.cfg.tex_hit_cycles;
                } else {
                    self.tally.tex_misses += 1;
                    self.tally.memory_cycles += self.cfg.tex_miss_cycles;
                    self.tally.dram_bytes += self.cfg.tex_line_bytes as f64;
                }
            }
        }
    }

    /// Warp-wide loop with per-lane trip counts: in SIMT execution every
    /// lane steps until the *longest* lane finishes, so each 32-lane group
    /// is charged `max(trips) * cycles_per_iter`. This is exactly the
    /// divergence penalty a warp-per-32-rows CSR kernel pays on irregular
    /// row lengths.
    pub fn warp_loop(&mut self, trip_counts: &[u64], cycles_per_iter: f64) {
        for chunk in trip_counts.chunks(WARP_SIZE) {
            let max = chunk.iter().copied().max().unwrap_or(0);
            self.tally.compute_cycles += max as f64 * cycles_per_iter;
        }
    }

    /// Warp-wide atomic update on the given byte `addrs`. Within each
    /// 32-lane group, lanes hitting the same address serialize (cost scales
    /// with the maximum multiplicity). For [`AtomicSpace::Global`],
    /// `hot_fraction` is the largest share of *device-wide* traffic any
    /// address in the group receives; hot addresses pay an extra
    /// contention penalty of `hot_address_factor * hot_fraction` serialized
    /// operations, modelling collisions with concurrently resident warps.
    pub fn warp_atomic(&mut self, addrs: &[u64], space: AtomicSpace, hot_fraction: f64) {
        let per_op = match space {
            AtomicSpace::Shared => self.cfg.shared_atomic_cycles,
            AtomicSpace::Global => self.cfg.global_atomic_cycles,
        };
        for chunk in addrs.chunks(WARP_SIZE) {
            let (max_mult, degree) = self.table.conflicts(chunk);
            let mut serialized = max_mult as f64;
            if space == AtomicSpace::Global {
                serialized += self.cfg.hot_address_factor * hot_fraction.clamp(0.0, 1.0);
                // Global atomics also move data.
                self.tally.dram_bytes += (chunk.len() as u64 * 4) as f64;
            } else {
                // Shared atomics additionally serialize on bank conflicts.
                serialized = serialized.max(degree as f64);
            }
            self.tally.atomic_cycles += serialized * per_op;
        }
    }

    /// Bulk streaming access: `bytes` moved at the given coalescing
    /// `efficiency` in `(0, 1]` (1.0 = perfectly coalesced). Large sort
    /// passes use this instead of enumerating addresses.
    pub fn bulk_mem(&mut self, bytes: f64, efficiency: f64) {
        let eff = efficiency.clamp(1.0 / WARP_SIZE as f64, 1.0);
        let effective_bytes = bytes / eff;
        let tx = (effective_bytes / SEGMENT_BYTES as f64).ceil();
        self.tally.transactions += tx as u64;
        self.tally.dram_bytes += effective_bytes;
        self.tally.memory_cycles += tx * self.cfg.cycles_per_transaction;
    }

    /// Bulk read helper — see [`BlockCtx::bulk_mem`].
    pub fn bulk_read(&mut self, bytes: f64, efficiency: f64) {
        self.bulk_mem(bytes, efficiency);
    }

    /// Bulk write helper — see [`BlockCtx::bulk_mem`].
    pub fn bulk_write(&mut self, bytes: f64, efficiency: f64) {
        self.bulk_mem(bytes, efficiency);
    }

    /// Bulk compute: `n` operations at `cycles_per_op` each.
    pub fn bulk_ops(&mut self, n: f64, cycles_per_op: f64) {
        self.tally.compute_cycles += n * cycles_per_op;
    }

    /// Bulk atomics: `n` operations with an average serialization factor
    /// (1.0 = conflict-free).
    pub fn bulk_atomic(&mut self, n: f64, space: AtomicSpace, serialization: f64) {
        let per_op = match space {
            AtomicSpace::Shared => self.cfg.shared_atomic_cycles,
            AtomicSpace::Global => self.cfg.global_atomic_cycles,
        };
        self.tally.atomic_cycles += n * serialization.max(1.0) * per_op;
        if space == AtomicSpace::Global {
            self.tally.dram_bytes += n * 4.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_parts() -> (DeviceConfig, TexCache) {
        let cfg = DeviceConfig::fermi_c2050().noiseless();
        let tex = TexCache::new(cfg.tex_cache_bytes, cfg.tex_line_bytes, cfg.tex_assoc);
        (cfg, tex)
    }

    #[test]
    fn coalesced_gather_is_one_transaction() {
        let (cfg, mut tex) = ctx_parts();
        let mut ctx = BlockCtx::new(&cfg, &mut tex);
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 4).collect(); // 128 contiguous bytes
        ctx.warp_gather(&addrs, 4);
        assert_eq!(ctx.tally().transactions, 1);
    }

    #[test]
    fn strided_gather_costs_full_warp_of_transactions() {
        let (cfg, mut tex) = ctx_parts();
        let mut ctx = BlockCtx::new(&cfg, &mut tex);
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 4096).collect(); // 1 segment each
        ctx.warp_gather(&addrs, 4);
        assert_eq!(ctx.tally().transactions, 32);
    }

    #[test]
    fn gather_transaction_count_is_bounded() {
        let (cfg, mut tex) = ctx_parts();
        let mut ctx = BlockCtx::new(&cfg, &mut tex);
        // 64 lanes = 2 warps; each warp costs between 1 and 32 transactions.
        let addrs: Vec<u64> = (0..64u64).map(|i| (i * 31) % 8192).collect();
        ctx.warp_gather(&addrs, 4);
        let tx = ctx.tally().transactions;
        assert!((2..=64).contains(&tx), "tx = {tx}");
    }

    #[test]
    fn warp_loop_charges_longest_lane() {
        let (cfg, mut tex) = ctx_parts();
        let mut ctx = BlockCtx::new(&cfg, &mut tex);
        let mut trips = vec![1u64; 32];
        trips[17] = 100;
        ctx.warp_loop(&trips, 2.0);
        assert_eq!(ctx.tally().compute_cycles, 200.0);
    }

    #[test]
    fn warp_loop_chunks_independently() {
        let (cfg, mut tex) = ctx_parts();
        let mut ctx = BlockCtx::new(&cfg, &mut tex);
        let mut trips = vec![1u64; 64];
        trips[0] = 10; // first warp max 10
        trips[63] = 20; // second warp max 20
        ctx.warp_loop(&trips, 1.0);
        assert_eq!(ctx.tally().compute_cycles, 30.0);
    }

    #[test]
    fn shared_atomic_bank_conflicts_counted() {
        let (cfg, mut tex) = ctx_parts();
        let mut ctx = BlockCtx::new(&cfg, &mut tex);
        // Distinct addresses all mapping to bank 0: no same-address
        // multiplicity, but full bank serialization.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 128).collect();
        ctx.warp_atomic(&addrs, AtomicSpace::Shared, 0.0);
        assert_eq!(ctx.tally().atomic_cycles, 32.0 * cfg.shared_atomic_cycles);
    }

    #[test]
    fn same_address_atomics_serialize() {
        let (cfg, mut tex) = ctx_parts();
        let mut conflict = BlockCtx::new(&cfg, &mut tex);
        conflict.warp_atomic(&[8u64; 32], AtomicSpace::Shared, 0.0);
        let conflict_cycles = conflict.tally().atomic_cycles;

        let mut tex2 = TexCache::new(cfg.tex_cache_bytes, cfg.tex_line_bytes, cfg.tex_assoc);
        let mut spread = BlockCtx::new(&cfg, &mut tex2);
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 4).collect();
        spread.warp_atomic(&addrs, AtomicSpace::Shared, 0.0);
        let spread_cycles = spread.tally().atomic_cycles;

        assert_eq!(conflict_cycles, 32.0 * cfg.shared_atomic_cycles);
        assert_eq!(spread_cycles, cfg.shared_atomic_cycles);
    }

    #[test]
    fn hot_global_atomics_pay_contention() {
        let (cfg, mut tex) = ctx_parts();
        let mut cold = BlockCtx::new(&cfg, &mut tex);
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 4).collect();
        cold.warp_atomic(&addrs, AtomicSpace::Global, 0.0);
        let cold_cycles = cold.tally().atomic_cycles;

        let mut tex2 = TexCache::new(cfg.tex_cache_bytes, cfg.tex_line_bytes, cfg.tex_assoc);
        let mut hot = BlockCtx::new(&cfg, &mut tex2);
        hot.warp_atomic(&addrs, AtomicSpace::Global, 0.9);
        assert!(hot.tally().atomic_cycles > cold_cycles * 5.0);
    }

    #[test]
    fn tex_gather_rewards_locality() {
        let (cfg, mut tex) = ctx_parts();
        let mut ctx = BlockCtx::new(&cfg, &mut tex);
        // Many repeated accesses to a handful of lines: mostly hits.
        let addrs: Vec<u64> = (0..1000u64).map(|i| (i % 8) * 4).collect();
        ctx.tex_gather(&addrs);
        assert!(ctx.tally().tex_hit_rate() > 0.95);

        let mut tex2 = TexCache::new(cfg.tex_cache_bytes, cfg.tex_line_bytes, cfg.tex_assoc);
        let mut ctx2 = BlockCtx::new(&cfg, &mut tex2);
        // Streaming through a space much larger than the cache: mostly misses.
        let addrs: Vec<u64> = (0..1000u64).map(|i| i * 4096).collect();
        ctx2.tex_gather(&addrs);
        assert!(ctx2.tally().tex_hit_rate() < 0.05);
    }

    #[test]
    fn bulk_mem_efficiency_scales_traffic() {
        let (cfg, mut tex) = ctx_parts();
        let mut ctx = BlockCtx::new(&cfg, &mut tex);
        ctx.bulk_mem(1280.0, 1.0);
        let full = ctx.tally().dram_bytes;
        let mut tex2 = TexCache::new(cfg.tex_cache_bytes, cfg.tex_line_bytes, cfg.tex_assoc);
        let mut ctx2 = BlockCtx::new(&cfg, &mut tex2);
        ctx2.bulk_mem(1280.0, 0.5);
        assert!((ctx2.tally().dram_bytes - 2.0 * full).abs() < 1e-9);
    }
}
