//! Continuous dispatch profiling: sample every Kth call into
//! per-(function, variant, feature-regime) latency sketches.
//!
//! A [`PulseProfiler`] is a `nitro-core` [`DispatchObserver`]: install a
//! clone with `CodeVariant::set_dispatch_observer` and it samples every
//! plain or guarded dispatch of that function.
//!
//! The profiler is built for always-on use: the sampling decision is
//! one relaxed `fetch_add` on the caller's stripe, and only the 1-in-K
//! sampled calls take the profile-map lock. Profiles export two ways —
//! a collapsed-stack text format (`frame;frame;frame weight` lines,
//! directly consumable by flamegraph tooling) and a JSON document with
//! per-cell sample counts and sketch quantiles.

use serde::{Deserialize, Serialize};

use parking_lot::Mutex;

use nitro_core::{DispatchObservation, DispatchObserver};
use nitro_trace::{default_stripes, QuantileSketch, SketchConfig, StripedU64};

/// Feature-regime quantization used by default: the order of magnitude
/// of the first feature (most Nitro features lead with a size-like
/// signal), clamped to one digit so regime labels stay bounded.
pub fn feature_regime(features: &[f64]) -> u32 {
    let Some(&lead) = features.first() else {
        return 0;
    };
    let mag = lead.abs();
    if !mag.is_finite() || mag < 1.0 {
        return 0;
    }
    (mag.log10().floor() as u32).min(9) + 1
}

/// One profiled cell: a (function, variant, regime) combination.
#[derive(Debug)]
struct ProfileCell {
    function: String,
    variant: String,
    regime: u32,
    sketch: QuantileSketch,
}

/// A sampling latency profiler. Cheap to clone; clones share the
/// profile.
#[derive(Debug, Clone)]
pub struct PulseProfiler {
    inner: std::sync::Arc<ProfilerInner>,
}

#[derive(Debug)]
struct ProfilerInner {
    every: u64,
    config: SketchConfig,
    ticks: StripedU64,
    cells: Mutex<Vec<ProfileCell>>,
}

/// Serializable per-cell summary in a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileEntry {
    /// Tuned function name.
    pub function: String,
    /// Variant name.
    pub variant: String,
    /// Feature regime id (see [`feature_regime`]).
    pub regime: u32,
    /// Sampled calls in this cell.
    pub samples: u64,
    /// Latency quantiles of the sampled calls (ns).
    pub p50_ns: f64,
    /// 99th percentile (ns).
    pub p99_ns: f64,
    /// 99.9th percentile (ns).
    pub p999_ns: f64,
    /// Mean (ns).
    pub mean_ns: f64,
    /// Largest sampled latency (ns).
    pub max_ns: f64,
}

/// Serializable profile: sampling rate plus one entry per cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// The profiler sampled every `every`-th call per thread.
    pub every: u64,
    /// Per-cell summaries, sorted by (function, variant, regime).
    pub entries: Vec<ProfileEntry>,
}

impl PulseProfiler {
    /// A profiler sampling every `every`-th call per recording thread
    /// (`every` is clamped to at least 1; 1 samples everything).
    pub fn new(every: u64) -> Self {
        Self::with_config(every, SketchConfig::default())
    }

    /// A profiler with an explicit sketch shape for its latency cells.
    pub fn with_config(every: u64, config: SketchConfig) -> Self {
        Self {
            inner: std::sync::Arc::new(ProfilerInner {
                every: every.max(1),
                config,
                ticks: StripedU64::new(default_stripes()),
                cells: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The sampling period.
    pub fn every(&self) -> u64 {
        self.inner.every
    }

    /// Count one call and decide whether it is the Kth. Lock-free: a
    /// single relaxed `fetch_add` on the caller's stripe.
    #[inline]
    pub fn should_sample(&self) -> bool {
        let prev = self
            .inner
            .ticks
            .cell()
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        prev.is_multiple_of(self.inner.every)
    }

    /// Record a sampled call's latency. Takes the profile lock — call
    /// only for the 1-in-K calls [`should_sample`] selects.
    ///
    /// [`should_sample`]: PulseProfiler::should_sample
    pub fn record_sample(&self, function: &str, variant: &str, regime: u32, latency_ns: f64) {
        let mut cells = self.inner.cells.lock();
        let cell = match cells
            .iter_mut()
            .find(|c| c.function == function && c.variant == variant && c.regime == regime)
        {
            Some(c) => c,
            None => {
                cells.push(ProfileCell {
                    function: function.to_string(),
                    variant: variant.to_string(),
                    regime,
                    sketch: QuantileSketch::new(self.inner.config),
                });
                cells.last_mut().expect("just pushed")
            }
        };
        cell.sketch.record(latency_ns);
    }

    /// Convenience: count the call and, if selected, record it.
    /// Returns whether the call was sampled.
    #[inline]
    pub fn observe(&self, function: &str, variant: &str, regime: u32, latency_ns: f64) -> bool {
        if !self.should_sample() {
            return false;
        }
        self.record_sample(function, variant, regime, latency_ns);
        true
    }

    /// Total sampled calls across all cells.
    pub fn sampled(&self) -> u64 {
        self.inner
            .cells
            .lock()
            .iter()
            .map(|c| c.sketch.count())
            .sum()
    }

    /// Merge every cell of one function into a single latency sketch
    /// (the associative sketch merge across variants and regimes).
    pub fn fused(&self, function: &str) -> QuantileSketch {
        let cells = self.inner.cells.lock();
        let mut out = QuantileSketch::new(self.inner.config);
        for c in cells.iter().filter(|c| c.function == function) {
            out.merge(&c.sketch);
        }
        out
    }

    /// Collapsed-stack text export (flamegraph-compatible): one line
    /// per cell, `nitro;dispatch;<fn>;<variant>;regime_<r> <samples>`,
    /// sorted. Feed it to any `flamegraph.pl`-style folder.
    pub fn collapsed(&self) -> String {
        let cells = self.inner.cells.lock();
        let mut lines: Vec<String> = cells
            .iter()
            .filter(|c| c.sketch.count() > 0)
            .map(|c| {
                format!(
                    "nitro;dispatch;{};{};regime_{} {}",
                    c.function,
                    c.variant,
                    c.regime,
                    c.sketch.count()
                )
            })
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Structured profile export.
    pub fn report(&self) -> ProfileReport {
        let cells = self.inner.cells.lock();
        let mut entries: Vec<ProfileEntry> = cells
            .iter()
            .filter(|c| c.sketch.count() > 0)
            .map(|c| ProfileEntry {
                function: c.function.clone(),
                variant: c.variant.clone(),
                regime: c.regime,
                samples: c.sketch.count(),
                p50_ns: c.sketch.quantile(0.5),
                p99_ns: c.sketch.quantile(0.99),
                p999_ns: c.sketch.quantile(0.999),
                mean_ns: c.sketch.mean(),
                max_ns: c.sketch.max(),
            })
            .collect();
        entries.sort_by(|a, b| {
            (&a.function, &a.variant, a.regime).cmp(&(&b.function, &b.variant, b.regime))
        });
        ProfileReport {
            every: self.inner.every,
            entries,
        }
    }

    /// The profile as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.report()).expect("profile reports always serialize")
    }
}

impl DispatchObserver for PulseProfiler {
    /// Sample every Kth dispatch into its cell, keyed on the variant
    /// that ran and the regime of the features it was selected on.
    #[inline]
    fn on_dispatch(&self, observation: &DispatchObservation<'_>) {
        if self.should_sample() {
            let o = &observation.record;
            self.record_sample(
                observation.function,
                observation.variant_name,
                feature_regime(o.features),
                o.objective_ns,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_core::{CodeVariant, Context, FnFeature, FnVariant};

    #[test]
    fn samples_dispatches_as_their_observer() {
        let mut cv = CodeVariant::<f64>::new("toy", &Context::new());
        cv.add_variant(FnVariant::new("a", |x: &f64| *x + 100.0));
        cv.add_variant(FnVariant::new("b", |x: &f64| *x + 200.0));
        cv.set_default(0);
        cv.add_input_feature(FnFeature::new("x", |x: &f64| *x));
        let profiler = PulseProfiler::new(4);
        cv.set_dispatch_observer(std::sync::Arc::new(profiler.clone()));
        for i in 0..40 {
            cv.call(&(i as f64)).unwrap();
        }
        assert_eq!(profiler.sampled(), 10);
        let collapsed = profiler.collapsed();
        assert!(collapsed.contains("nitro;dispatch;toy;a;"), "{collapsed}");
    }

    #[test]
    fn samples_every_kth_call_per_thread() {
        let p = PulseProfiler::new(10);
        let mut sampled = 0;
        for i in 0..100 {
            if p.observe("spmv", "csr", 1, 1000.0 + i as f64) {
                sampled += 1;
            }
        }
        assert_eq!(sampled, 10);
        assert_eq!(p.sampled(), 10);
    }

    #[test]
    fn collapsed_output_is_flamegraph_shaped() {
        let p = PulseProfiler::new(1);
        p.observe("spmv", "csr", 2, 500.0);
        p.observe("spmv", "csr", 2, 600.0);
        p.observe("sort", "radix", 0, 100.0);
        let text = p.collapsed();
        assert!(
            text.contains("nitro;dispatch;spmv;csr;regime_2 2\n"),
            "{text}"
        );
        assert!(
            text.contains("nitro;dispatch;sort;radix;regime_0 1\n"),
            "{text}"
        );
        for line in text.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("weighted line");
            assert!(stack.split(';').count() >= 2);
            weight.parse::<u64>().expect("numeric weight");
        }
    }

    #[test]
    fn report_json_round_trips() {
        let p = PulseProfiler::new(1);
        for i in 0..50 {
            p.observe("bfs", "fused", 3, 1000.0 * (i + 1) as f64);
        }
        let json = p.to_json();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p.report());
        assert_eq!(back.entries[0].samples, 50);
        assert!(back.entries[0].p99_ns >= back.entries[0].p50_ns);
    }

    #[test]
    fn fused_merges_across_variants_and_regimes() {
        let p = PulseProfiler::new(1);
        p.observe("spmv", "csr", 1, 100.0);
        p.observe("spmv", "ell", 2, 200.0);
        p.observe("sort", "radix", 1, 999.0);
        let fused = p.fused("spmv");
        assert_eq!(fused.count(), 2);
    }

    #[test]
    fn regime_quantizes_order_of_magnitude() {
        assert_eq!(feature_regime(&[]), 0);
        assert_eq!(feature_regime(&[0.5]), 0);
        assert_eq!(feature_regime(&[5.0]), 1);
        assert_eq!(feature_regime(&[5_000.0]), 4);
        assert_eq!(feature_regime(&[1e15]), 10);
    }
}
