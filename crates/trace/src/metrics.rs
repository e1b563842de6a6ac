//! The metrics registry: named striped counters, gauges and concurrent
//! quantile sketches behind cheap clonable handles, and the
//! serializable snapshot they export.
//!
//! Metric names are flat dotted strings assembled by the instrumentation
//! sites (`dispatch.<fn>.calls`, `dispatch.<fn>.win.<variant>`,
//! `regret.<fn>.ns`, `simt.launch.elapsed_ns`, …).
//!
//! Registration (`counter`/`gauge`/`sketch`) takes a short lock and
//! returns a handle; the handle records through plain atomics on the
//! calling thread's stripe, with no lock and no allocation. Hot paths
//! register once, at wiring time, and keep the handle; traced paths may
//! look a metric up by name per event. [`MetricsRegistry::snapshot`]
//! freezes the registry into a [`MetricsSnapshot`], whose JSON form is
//! what `trace_report` exports and `nitro-audit` analyzes. Sketches
//! export as sparse log-bucket histograms.

use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::sketch::{ConcurrentSketch, QuantileSketch, SketchConfig};
use crate::stripe::{default_stripes, AtomicF64, StripedU64};

/// Serializable freeze of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds (inclusive), ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; the final entry is the overflow
    /// bucket for values above the last bound.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value (0 when empty).
    pub min: f64,
    /// Largest observed value (0 when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile estimated from the bucket counts: the upper
    /// bound of the bucket holding the observation of rank
    /// `floor(q·(count−1))`, clamped to the observed `[min, max]` range
    /// (the overflow bucket reports `max`). For an exported sketch the
    /// bounds are its log-bucket edges, so the estimate is within the
    /// sketch's `2α` of the true value. Returns 0 when empty; `q` is
    /// clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * (self.count - 1) as f64).floor() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > target {
                return match self.bounds.get(i) {
                    Some(&b) => b.clamp(self.min, self.max),
                    None => self.max,
                };
            }
        }
        self.max
    }
}

/// Serializable freeze of a [`MetricsRegistry`]: sorted name/value
/// pairs, ready for JSON export and offline analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram snapshots by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Serialize as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("metrics snapshots always serialize")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(s)
    }
}

/// Handle to one striped counter. Clone freely; all clones add into the
/// same stripes.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<StripedU64>,
}

impl Counter {
    /// Add 1 on the calling thread's stripe (lock-free, no allocation).
    #[inline]
    pub fn inc(&self) {
        self.cell.inc();
    }

    /// Add `delta` on the calling thread's stripe.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.cell.add(delta);
    }

    /// Current folded total.
    pub fn value(&self) -> u64 {
        self.cell.sum()
    }
}

/// Handle to one gauge (last-write-wins absolute value).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicF64>,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.cell.set(v);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.cell.get()
    }
}

/// Handle to one concurrent quantile sketch.
#[derive(Debug, Clone)]
pub struct Sketch {
    cell: Arc<ConcurrentSketch>,
}

impl Sketch {
    /// Record one observation on the calling thread's stripe
    /// (lock-free, no allocation).
    #[inline]
    pub fn record(&self, v: f64) {
        self.cell.record(v);
    }

    /// Fold the stripes into one owned sketch.
    pub fn fuse(&self) -> QuantileSketch {
        self.cell.fuse()
    }

    /// The `q`-quantile of everything recorded so far.
    pub fn quantile(&self, q: f64) -> f64 {
        self.cell.fuse().quantile(q)
    }

    /// Observations that overflowed the top bucket.
    pub fn saturated(&self) -> u64 {
        self.cell.saturated()
    }
}

#[derive(Debug)]
struct Named<T> {
    entries: Vec<(String, Arc<T>)>,
}

impl<T> Default for Named<T> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
        }
    }
}

impl<T> Named<T> {
    fn get_or_insert(&mut self, name: &str, make: impl FnOnce() -> T) -> Arc<T> {
        if let Some(v) = self.get(name) {
            return v;
        }
        let v = Arc::new(make());
        self.entries.push((name.to_string(), v.clone()));
        v
    }

    fn get(&self, name: &str) -> Option<Arc<T>> {
        self.entries
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
    }

    fn names(&self) -> Vec<String> {
        self.entries.iter().map(|(k, _)| k.clone()).collect()
    }

    /// `(name, f(metric))` for every entry, sorted by name.
    fn sorted<V>(&self, f: impl Fn(&T) -> V) -> Vec<(String, V)> {
        let mut out: Vec<(String, V)> = self
            .entries
            .iter()
            .map(|(k, v)| (k.clone(), f(v)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[derive(Debug)]
struct Inner {
    stripes: usize,
    counters: Mutex<Named<StripedU64>>,
    gauges: Mutex<Named<AtomicF64>>,
    sketches: Mutex<Named<ConcurrentSketch>>,
}

/// Thread-safe registry of named counters, gauges and sketches. Cheap
/// to clone (one `Arc`); clones share the same metrics. Registering a
/// metric creates it at zero, so an export distinguishes "never
/// happened" from "never instrumented".
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A registry whose metrics stripe across [`default_stripes`] cells
    /// (the machine's available parallelism, rounded up to a power of
    /// two).
    pub fn new() -> Self {
        Self::with_stripes(default_stripes())
    }

    /// A registry with an explicit stripe count (rounded up to a power
    /// of two; fewer stripes than recording threads serializes some
    /// recording and is audited as `NITRO093`).
    pub fn with_stripes(stripes: usize) -> Self {
        Self {
            inner: Arc::new(Inner {
                stripes: stripes.max(1).next_power_of_two(),
                counters: Mutex::new(Named::default()),
                gauges: Mutex::new(Named::default()),
                sketches: Mutex::new(Named::default()),
            }),
        }
    }

    /// Stripe count used for new metrics.
    pub fn stripes(&self) -> usize {
        self.inner.stripes
    }

    /// Register (or look up) a counter and return its recording handle.
    pub fn counter(&self, name: &str) -> Counter {
        let stripes = self.inner.stripes;
        Counter {
            cell: self
                .inner
                .counters
                .lock()
                .get_or_insert(name, || StripedU64::new(stripes)),
        }
    }

    /// Register (or look up) a gauge and return its recording handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self
                .inner
                .gauges
                .lock()
                .get_or_insert(name, || AtomicF64::new(0.0)),
        }
    }

    /// Register (or look up) a sketch with the default nanosecond shape.
    pub fn sketch(&self, name: &str) -> Sketch {
        self.sketch_with(name, SketchConfig::default())
    }

    /// Register (or look up) a sketch; an existing sketch keeps its
    /// original shape.
    pub fn sketch_with(&self, name: &str, config: SketchConfig) -> Sketch {
        let stripes = self.inner.stripes;
        Sketch {
            cell: self
                .inner
                .sketches
                .lock()
                .get_or_insert(name, || ConcurrentSketch::new(config, stripes)),
        }
    }

    /// Current folded value of a counter, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.inner.counters.lock().get(name).map(|c| c.sum())
    }

    /// Current value of a gauge, if registered.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.inner.gauges.lock().get(name).map(|g| g.get())
    }

    /// Fused copy of a sketch, if registered.
    pub fn fused_sketch(&self, name: &str) -> Option<QuantileSketch> {
        self.inner.sketches.lock().get(name).map(|s| s.fuse())
    }

    /// The `q`-quantile of a registered sketch.
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.fused_sketch(name).map(|s| s.quantile(q))
    }

    /// True when `name` is registered as a counter, gauge or sketch.
    pub fn has_metric(&self, name: &str) -> bool {
        self.inner.counters.lock().get(name).is_some()
            || self.inner.gauges.lock().get(name).is_some()
            || self.inner.sketches.lock().get(name).is_some()
    }

    /// Every registered metric name (counters, gauges, sketches), sorted.
    pub fn metric_names(&self) -> Vec<String> {
        let mut out = self.inner.counters.lock().names();
        out.extend(self.inner.gauges.lock().names());
        out.extend(self.inner.sketches.lock().names());
        out.sort();
        out
    }

    /// Per-sketch saturated-observation counts (the `NITRO091` signal).
    pub fn saturation(&self) -> Vec<(String, u64)> {
        self.inner.sketches.lock().sorted(|s| s.saturated())
    }

    /// Freeze the registry into a snapshot: counters fold their stripes,
    /// sketches export as sparse log-bucket histograms, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.inner.counters.lock().sorted(|c| c.sum()),
            gauges: self.inner.gauges.lock().sorted(|g| g.get()),
            histograms: self
                .inner
                .sketches
                .lock()
                .sorted(|s| s.fuse().to_histogram_snapshot()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_the_named_metric() {
        let r = MetricsRegistry::with_stripes(4);
        let a = r.counter("dispatch.spmv.calls");
        let b = r.counter("dispatch.spmv.calls");
        a.inc();
        b.add(2);
        assert_eq!(r.counter_value("dispatch.spmv.calls"), Some(3));
        assert_eq!(a.value(), 3);
        assert_eq!(r.counter_value("missing"), None);
    }

    #[test]
    fn gauges_overwrite() {
        let r = MetricsRegistry::new();
        r.gauge("phase_ns").set(10.0);
        r.gauge("phase_ns").set(25.0);
        assert_eq!(r.gauge_value("phase_ns"), Some(25.0));
    }

    #[test]
    fn snapshot_round_trips_and_sorts_names() {
        let r = MetricsRegistry::with_stripes(2);
        r.counter("zeta").inc();
        r.counter("guard.spmv.fallback").add(7);
        r.gauge("tune.spmv.cache_hit_rate").set(0.75);
        let sk = r.sketch("dispatch.spmv.latency_ns");
        for v in [100.0, 200.0, 400.0, 1e5] {
            sk.record(v);
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("guard.spmv.fallback"), Some(7));
        assert_eq!(snap.gauge("tune.spmv.cache_hit_rate"), Some(0.75));
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["guard.spmv.fallback", "zeta"]);
        let h = snap.histogram("dispatch.spmv.latency_ns").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 100.0);
        assert_eq!(h.max, 1e5);
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn histogram_quantiles_walk_the_buckets() {
        let h = HistogramSnapshot {
            bounds: vec![10.0, 100.0, 1000.0],
            counts: vec![1, 1, 1, 1],
            count: 4,
            sum: 5.0 + 50.0 + 500.0 + 1e12,
            min: 5.0,
            max: 1e12,
        };
        // Rank rule floor(q·(n−1)): p0 → bucket ≤10 (clamped to min 5),
        // p50 → rank 1 (bucket ≤100), p100 → overflow → max.
        assert_eq!(h.quantile(0.0), 10.0);
        assert_eq!(h.quantile(0.5), 100.0);
        assert_eq!(h.quantile(1.0), 1e12);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0.0);
    }

    #[test]
    fn empty_sketch_exports_finite_min_max() {
        let r = MetricsRegistry::new();
        r.sketch("lat");
        let snap = r.snapshot();
        let h = snap.histogram("lat").unwrap();
        assert_eq!((h.count, h.min, h.max, h.mean()), (0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn concurrent_recording_through_handles() {
        let r = MetricsRegistry::with_stripes(8);
        let c = r.counter("hits");
        let s = r.sketch("lat");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..500 {
                        c.inc();
                        s.record(100.0 + i as f64);
                    }
                });
            }
        });
        assert_eq!(c.value(), 2000);
        assert_eq!(s.fuse().count(), 2000);
    }

    #[test]
    fn metric_names_cover_all_kinds() {
        let r = MetricsRegistry::new();
        r.counter("b.counter");
        r.gauge("a.gauge");
        r.sketch("c.sketch");
        assert_eq!(r.metric_names(), vec!["a.gauge", "b.counter", "c.sketch"]);
        assert!(r.has_metric("a.gauge"));
        assert!(!r.has_metric("missing"));
    }
}
