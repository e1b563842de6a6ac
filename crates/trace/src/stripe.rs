//! Per-thread striped atomics: the zero-contention recording primitive.
//!
//! Every recording thread is assigned a dense ordinal on first touch;
//! a [`StripedU64`] spreads its value across cache-line-padded atomic
//! cells indexed by that ordinal, so concurrent `add`s from different
//! threads land on different cache lines and never contend. Reads
//! ([`StripedU64::sum`]) fold the stripes — reads are rare (snapshots),
//! writes are the hot path.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One atomic padded out to two cache lines so adjacent stripes never
/// false-share (128 B covers the spatial prefetcher pairing lines on
/// common x86 parts).
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct PadCell(pub(crate) AtomicU64);

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ORDINAL: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Dense ordinal of the calling thread, assigned round-robin on first
/// use. Stripe selection masks this down to the stripe count, so with
/// at least as many stripes as recording threads every thread owns its
/// stripe exclusively.
#[inline]
pub(crate) fn thread_ordinal() -> usize {
    THREAD_ORDINAL.with(|slot| {
        let v = slot.get();
        if v != usize::MAX {
            return v;
        }
        let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        slot.set(id);
        id
    })
}

/// A `u64` accumulator striped across padded atomic cells. `add` is a
/// single relaxed `fetch_add` on the caller's stripe — no lock, no
/// allocation; `sum` folds all stripes for snapshots.
#[derive(Debug)]
pub struct StripedU64 {
    cells: Box<[PadCell]>,
}

impl StripedU64 {
    /// A striped accumulator with `stripes` cells, rounded up to a
    /// power of two (minimum 1) so stripe selection is a mask.
    pub fn new(stripes: usize) -> Self {
        let n = stripes.max(1).next_power_of_two();
        Self {
            cells: (0..n).map(|_| PadCell::default()).collect(),
        }
    }

    /// The calling thread's stripe cell, for callers that act on the
    /// stripe-local value (a per-stripe sampling tick, say).
    #[inline]
    pub fn cell(&self) -> &AtomicU64 {
        // Length is a power of two by construction.
        let mask = self.cells.len() - 1;
        &self.cells[thread_ordinal() & mask].0
    }

    /// Add `delta` on the calling thread's stripe.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.cell().fetch_add(delta, Ordering::Relaxed);
    }

    /// Add 1 on the calling thread's stripe.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Fold all stripes into the total (wrapping on overflow, like any
    /// u64 counter).
    pub fn sum(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    /// Number of stripes (power of two).
    pub fn stripes(&self) -> usize {
        self.cells.len()
    }
}

/// An `f64` stored in an `AtomicU64` by bit pattern. `set`/`get` are
/// single atomic ops; the CAS helpers serve sketch sum/min/max where
/// contention is already bounded by striping.
#[derive(Debug)]
pub(crate) struct AtomicF64(AtomicU64);

impl AtomicF64 {
    pub(crate) fn new(v: f64) -> Self {
        Self(AtomicU64::new(v.to_bits()))
    }

    #[inline]
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    #[inline]
    pub(crate) fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn update(&self, f: impl Fn(f64) -> f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(cur)).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Default stripe count: the machine's available parallelism rounded up
/// to a power of two, so by default no two hardware threads share a
/// stripe.
pub fn default_stripes() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_sum_counts_across_threads() {
        let c = std::sync::Arc::new(StripedU64::new(8));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.sum(), 4000);
    }

    #[test]
    fn stripe_count_rounds_to_power_of_two() {
        assert_eq!(StripedU64::new(0).stripes(), 1);
        assert_eq!(StripedU64::new(3).stripes(), 4);
        assert_eq!(StripedU64::new(8).stripes(), 8);
    }

    #[test]
    fn atomic_f64_update_accumulates() {
        let a = AtomicF64::new(0.0);
        a.update(|v| v + 1.5);
        a.update(|v| v + 2.5);
        assert_eq!(a.get(), 4.0);
        a.set(-1.0);
        assert_eq!(a.get(), -1.0);
    }
}
