//! Mergeable relative-error quantile sketches (DDSketch-style).
//!
//! A [`QuantileSketch`] buckets observations into logarithmically
//! spaced bins with ratio `γ = (1 + α) / (1 − α)`: bucket `i` covers
//! `(m·γ^(i−1), m·γ^i]` for base value `m` ([`SketchConfig::min_value`])
//! and every bucket's midpoint estimate is within relative error `α` of
//! any value in the bucket. Quantiles are therefore rank-exact and
//! value-accurate to `α`: a p99 read off a sketch is a real p99.
//!
//! Merging adds bucket counts elementwise, which is associative and
//! commutative, so per-stripe / per-shard / per-thread sketches combine
//! into one process-level sketch with no accuracy loss. The
//! [`ConcurrentSketch`] variant stripes atomic bucket arrays per thread
//! for lock-free, allocation-free recording on the dispatch hot path.

use serde::{Deserialize, Serialize};

use crate::metrics::HistogramSnapshot;
use crate::stripe::{thread_ordinal, AtomicF64};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shape of a sketch: the relative-error bound and the bucket range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SketchConfig {
    /// Relative-error bound `α`: every quantile estimate is within
    /// `α · true_value` of the value at the same rank, for values in
    /// `[min_value, min_value · γ^max_buckets]`.
    pub alpha: f64,
    /// Lower edge of the accurate range; values in `(0, min_value]`
    /// collapse into bucket 0. For nanosecond timings 1.0 is natural.
    pub min_value: f64,
    /// Number of log-spaced buckets. Values above the top bucket are
    /// counted as saturated ([`QuantileSketch::saturated`], audited as
    /// `NITRO091`) and estimated by the observed maximum.
    pub max_buckets: usize,
}

impl Default for SketchConfig {
    /// 1 % relative error from 1 ns to beyond 10 s: `γ ≈ 1.0202`,
    /// 1280 buckets cover `γ^1280 ≈ 1.7e11` ns.
    fn default() -> Self {
        Self {
            alpha: 0.01,
            min_value: 1.0,
            max_buckets: 1280,
        }
    }
}

impl SketchConfig {
    /// Bucket ratio `γ = (1 + α) / (1 − α)`.
    pub fn gamma(&self) -> f64 {
        (1.0 + self.alpha) / (1.0 - self.alpha)
    }

    /// Upper edge of the accurate range (`min_value · γ^max_buckets`).
    pub fn max_value(&self) -> f64 {
        self.min_value * self.gamma().powi(self.max_buckets as i32)
    }

    fn assert_valid(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha < 1.0,
            "sketch alpha must be in (0, 1), got {}",
            self.alpha
        );
        assert!(
            self.min_value > 0.0 && self.min_value.is_finite(),
            "sketch min_value must be positive and finite, got {}",
            self.min_value
        );
        assert!(
            self.max_buckets >= 2,
            "sketch needs at least 2 buckets, got {}",
            self.max_buckets
        );
    }
}

/// Where one observation lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Non-positive (or non-finite) values: the zero bucket.
    Zero,
    /// A regular log bucket.
    Bucket(usize),
    /// Above the top bucket.
    Saturated,
}

#[inline]
fn slot_for(config: &SketchConfig, inv_ln_gamma: f64, v: f64) -> Slot {
    if !v.is_finite() || v <= 0.0 {
        return Slot::Zero;
    }
    if v <= config.min_value {
        return Slot::Bucket(0);
    }
    let i = ((v / config.min_value).ln() * inv_ln_gamma).ceil() as usize;
    if i >= config.max_buckets {
        Slot::Saturated
    } else {
        Slot::Bucket(i)
    }
}

/// A single-owner mergeable quantile sketch. `record` is `&mut self`;
/// for the shared lock-free variant see [`ConcurrentSketch`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSketch {
    config: SketchConfig,
    buckets: Vec<u64>,
    /// Non-positive observations (estimate 0).
    zeros: u64,
    /// Observations above the top bucket (estimate: observed max).
    saturated: u64,
    count: u64,
    sum: f64,
    /// Meaningful only when `count > 0` (0 when empty, for serde).
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(SketchConfig::default())
    }
}

impl QuantileSketch {
    /// An empty sketch with the given shape.
    pub fn new(config: SketchConfig) -> Self {
        config.assert_valid();
        Self {
            config,
            buckets: vec![0; config.max_buckets],
            zeros: 0,
            saturated: 0,
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// The sketch's shape.
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// Record one observation.
    pub fn record(&mut self, v: f64) {
        match slot_for(&self.config, 1.0 / self.config.gamma().ln(), v) {
            Slot::Zero => self.zeros += 1,
            Slot::Bucket(i) => self.buckets[i] += 1,
            Slot::Saturated => self.saturated += 1,
        }
        self.count += 1;
        self.sum += v;
        if self.count == 1 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Midpoint estimate for bucket `i`, within `α` relative error of
    /// every value the bucket covers.
    fn estimate(&self, i: usize) -> f64 {
        let gamma = self.config.gamma();
        self.config.min_value * gamma.powi(i as i32) * 2.0 / (1.0 + gamma)
    }

    /// The `q`-quantile estimate (`q` clamped to `[0, 1]`): the value at
    /// 0-indexed rank `⌊q · (count − 1)⌋`, accurate to the configured
    /// relative error for in-range observations. 0 on an empty sketch.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * (self.count - 1) as f64).floor() as u64;
        let mut cum = self.zeros;
        if target < cum {
            return 0.0;
        }
        for (i, c) in self.buckets.iter().enumerate() {
            cum += c;
            if target < cum {
                return self.estimate(i);
            }
        }
        // Remaining ranks are saturated observations; the observed max
        // is the only honest estimate.
        self.max
    }

    /// Merge another sketch of the identical shape into this one.
    /// Bucket counts add elementwise, so merging is associative and
    /// commutative and quantiles of a merge equal quantiles of the
    /// concatenated stream.
    ///
    /// # Panics
    /// If the two configs differ (merging incompatible bucket layouts
    /// is a programming error, not a data condition).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(
            self.config, other.config,
            "cannot merge quantile sketches of different shapes"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.zeros += other.zeros;
        self.saturated += other.saturated;
        self.sum += other.sum;
        match (self.count, other.count) {
            (_, 0) => {}
            (0, _) => {
                self.min = other.min;
                self.max = other.max;
            }
            _ => {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
    }

    /// The windowed difference `self − earlier` for two cumulative
    /// sketches of the same stream (counts are monotone, so elementwise
    /// saturating subtraction yields the sketch of the interval).
    /// Min/max are carried from `self` — they bound the interval but
    /// may be looser than the interval's true extrema.
    pub fn delta_since(&self, earlier: &QuantileSketch) -> QuantileSketch {
        assert_eq!(
            self.config, earlier.config,
            "cannot diff quantile sketches of different shapes"
        );
        QuantileSketch {
            config: self.config,
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            zeros: self.zeros.saturating_sub(earlier.zeros),
            saturated: self.saturated.saturating_sub(earlier.saturated),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum - earlier.sum,
            min: self.min,
            max: self.max,
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Observations that overflowed the top bucket (`NITRO091` signal).
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    /// Non-positive observations.
    pub fn zeros(&self) -> u64 {
        self.zeros
    }

    /// Export as a [`HistogramSnapshot`], the histogram form of the
    /// `MetricsSnapshot` JSON schema. Only
    /// non-empty buckets are emitted (sparse bounds stay valid because
    /// skipped buckets hold no observations); zeros fold into the first
    /// bucket and saturated observations land in the overflow slot.
    pub fn to_histogram_snapshot(&self) -> HistogramSnapshot {
        let mut bounds = Vec::new();
        let mut counts = Vec::new();
        let gamma = self.config.gamma();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                bounds.push(self.config.min_value * gamma.powi(i as i32));
                counts.push(c);
            }
        }
        if self.zeros > 0 {
            if counts.is_empty() {
                bounds.push(self.config.min_value);
                counts.push(self.zeros);
            } else {
                counts[0] += self.zeros;
            }
        }
        counts.push(self.saturated); // overflow bucket
        HistogramSnapshot {
            bounds,
            counts,
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }
}

/// One stripe of a [`ConcurrentSketch`]: an atomic bucket array plus
/// its own count/sum/extrema so recording threads never share a line.
#[repr(align(128))]
#[derive(Debug)]
struct SketchStripe {
    buckets: Box<[AtomicU64]>,
    zeros: AtomicU64,
    saturated: AtomicU64,
    sum: AtomicF64,
    min: AtomicF64,
    max: AtomicF64,
}

impl SketchStripe {
    fn new(buckets: usize) -> Self {
        Self {
            buckets: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            zeros: AtomicU64::new(0),
            saturated: AtomicU64::new(0),
            sum: AtomicF64::new(0.0),
            min: AtomicF64::new(f64::INFINITY),
            max: AtomicF64::new(f64::NEG_INFINITY),
        }
    }
}

/// A shared, lock-free quantile sketch: per-thread stripes of atomic
/// bucket arrays. `record` touches only the caller's stripe — no lock,
/// no allocation; [`ConcurrentSketch::fuse`] merges the stripes into a
/// plain [`QuantileSketch`] for reads.
#[derive(Debug)]
pub struct ConcurrentSketch {
    config: SketchConfig,
    inv_ln_gamma: f64,
    stripes: Box<[SketchStripe]>,
}

impl ConcurrentSketch {
    /// An empty concurrent sketch with `stripes` stripes (rounded up to
    /// a power of two).
    pub fn new(config: SketchConfig, stripes: usize) -> Self {
        config.assert_valid();
        let n = stripes.max(1).next_power_of_two();
        Self {
            config,
            inv_ln_gamma: 1.0 / config.gamma().ln(),
            stripes: (0..n)
                .map(|_| SketchStripe::new(config.max_buckets))
                .collect(),
        }
    }

    /// The sketch's shape.
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// Record one observation on the calling thread's stripe. The hot
    /// path is one bucket `fetch_add` plus the running-sum update; the
    /// observation count is derived from the buckets at fuse time, and
    /// the extrema are guarded by plain loads so the steady state (a
    /// value inside the seen range) never issues a CAS for them.
    #[inline]
    pub fn record(&self, v: f64) {
        let stripe = &self.stripes[thread_ordinal() & (self.stripes.len() - 1)];
        match slot_for(&self.config, self.inv_ln_gamma, v) {
            Slot::Zero => stripe.zeros.fetch_add(1, Ordering::Relaxed),
            Slot::Bucket(i) => stripe.buckets[i].fetch_add(1, Ordering::Relaxed),
            Slot::Saturated => stripe.saturated.fetch_add(1, Ordering::Relaxed),
        };
        stripe.sum.update(|s| s + v);
        if v < stripe.min.get() {
            stripe.min.update(|m| m.min(v));
        }
        if v > stripe.max.get() {
            stripe.max.update(|m| m.max(v));
        }
    }

    /// Merge all stripes into one owned sketch (the associative merge
    /// of the per-stripe sub-streams).
    pub fn fuse(&self) -> QuantileSketch {
        let mut out = QuantileSketch::new(self.config);
        for stripe in self.stripes.iter() {
            let buckets: Vec<u64> = stripe
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
            let zeros = stripe.zeros.load(Ordering::Relaxed);
            let saturated = stripe.saturated.load(Ordering::Relaxed);
            // The record path does not maintain a separate count — it is
            // the fold of the slot counts, reconstructed here off the
            // hot path.
            let count = buckets.iter().sum::<u64>() + zeros + saturated;
            if count == 0 {
                continue;
            }
            let part = QuantileSketch {
                config: self.config,
                buckets,
                zeros,
                saturated,
                count,
                sum: stripe.sum.get(),
                min: stripe.min.get(),
                max: stripe.max.get(),
            };
            out.merge(&part);
        }
        out
    }

    /// Saturated observations across all stripes (`NITRO091` signal)
    /// without materializing a fuse.
    pub fn saturated(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.saturated.load(Ordering::Relaxed))
            .sum()
    }

    /// Number of stripes (power of two).
    pub fn stripes(&self) -> usize {
        self.stripes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_within_relative_error() {
        let mut s = QuantileSketch::default();
        let mut values: Vec<f64> = (1..=10_000).map(|i| (i as f64) * 37.5).collect();
        for &v in &values {
            s.record(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = (q * (values.len() - 1) as f64).floor() as usize;
            let exact = values[rank];
            let got = s.quantile(q);
            assert!(
                (got - exact).abs() <= exact * (s.config().alpha * 1.0001 + 1e-12),
                "q={q}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = QuantileSketch::default();
        let mut b = QuantileSketch::default();
        let mut all = QuantileSketch::default();
        for i in 0..500 {
            let v = 10.0 + (i as f64) * 13.7;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for q in [0.25, 0.5, 0.75, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn saturation_is_counted_and_estimated_by_max() {
        let mut s = QuantileSketch::new(SketchConfig {
            alpha: 0.05,
            min_value: 1.0,
            max_buckets: 64, // covers up to ~γ^64 ≈ 6e2
        });
        s.record(5.0);
        s.record(1e9); // far above the top bucket
        assert_eq!(s.saturated(), 1);
        assert_eq!(s.quantile(1.0), 1e9);
    }

    #[test]
    fn zeros_and_negatives_hit_the_zero_bucket() {
        let mut s = QuantileSketch::default();
        s.record(0.0);
        s.record(-5.0);
        s.record(100.0);
        assert_eq!(s.zeros(), 2);
        assert_eq!(s.quantile(0.0), 0.0);
    }

    #[test]
    fn concurrent_sketch_fuses_to_the_serial_answer() {
        let c = std::sync::Arc::new(ConcurrentSketch::new(SketchConfig::default(), 8));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        c.record(((t * 1000 + i) as f64) + 1.0);
                    }
                });
            }
        });
        let fused = c.fuse();
        assert_eq!(fused.count(), 4000);
        let mut serial = QuantileSketch::default();
        for v in 1..=4000 {
            serial.record(v as f64);
        }
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(fused.quantile(q), serial.quantile(q));
        }
    }

    #[test]
    fn histogram_snapshot_export_is_sparse_and_consistent() {
        let mut s = QuantileSketch::default();
        for v in [0.0, 50.0, 50.0, 1e6] {
            s.record(v);
        }
        let h = s.to_histogram_snapshot();
        assert_eq!(h.count, 4);
        assert_eq!(h.counts.iter().sum::<u64>(), 4);
        assert_eq!(h.bounds.len() + 1, h.counts.len());
        assert!(h.bounds.windows(2).all(|w| w[0] < w[1]));
        // Round-trips through the snapshot JSON schema.
        let m = crate::MetricsSnapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![("dispatch.spmv.latency_ns".into(), h)],
        };
        let back = crate::MetricsSnapshot::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn serde_round_trip() {
        let mut s = QuantileSketch::new(SketchConfig {
            alpha: 0.02,
            min_value: 1.0,
            max_buckets: 64,
        });
        for v in [1.0, 10.0, 100.0] {
            s.record(v);
        }
        let json = serde_json::to_string(&s).unwrap();
        let back: QuantileSketch = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
