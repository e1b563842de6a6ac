//! Wiring pulse into the dispatch pipeline: pre-resolved handle
//! bundles that implement `nitro-core`'s [`DispatchObserver`] hook.
//!
//! [`FunctionPulse::install`] registers every metric a tuned function
//! emits — call/win/veto/fallback counters (the same names the traced
//! path uses, so `nitro-audit`'s metrics analyzer reads pulse snapshots
//! unchanged), latency/feature/predict sketches, and optionally a
//! [`PulseProfiler`] sampling every Kth call — then installs itself as
//! the function's observer. After installation the per-dispatch cost is
//! a handful of relaxed atomic ops on the caller's stripes: no lock, no
//! allocation, no string formatting.

use std::sync::Arc;

use nitro_core::{CodeVariant, DispatchObservation, DispatchObserver};
use nitro_trace::{Counter, MetricsRegistry, Sketch};

use crate::profiler::{feature_regime, PulseProfiler};

/// Pre-resolved metric handles for one tuned function, installable as
/// its dispatch observer.
#[derive(Debug)]
pub struct FunctionPulse {
    calls: Counter,
    async_calls: Counter,
    fallback: Counter,
    kernel_evals: Counter,
    /// Indexed by variant position, like the dispatcher's own tables.
    wins: Vec<Counter>,
    vetoes: Vec<Counter>,
    latency: Sketch,
    feature: Sketch,
    predict: Sketch,
    profiler: Option<PulseProfiler>,
}

impl FunctionPulse {
    /// Register this function's metrics in `registry` and return the
    /// handle bundle. Registration is the cold path — every counter and
    /// sketch the hot path touches is resolved here, once.
    ///
    /// Metric names: `dispatch.<fn>.{calls,async_calls,fallback}`,
    /// `dispatch.<fn>.{win,veto}.<variant>` (counters, mirroring the
    /// traced path's naming), `dispatch.<fn>.latency_ns`,
    /// `dispatch.<fn>.feature_ns`, `ml.<fn>.predict_ns` (sketches) and
    /// `ml.predict.kernel_evals`.
    pub fn register<I: ?Sized>(registry: &MetricsRegistry, cv: &CodeVariant<I>) -> Self {
        let name = cv.name();
        Self {
            calls: registry.counter(&format!("dispatch.{name}.calls")),
            async_calls: registry.counter(&format!("dispatch.{name}.async_calls")),
            fallback: registry.counter(&format!("dispatch.{name}.fallback")),
            kernel_evals: registry.counter("ml.predict.kernel_evals"),
            wins: cv
                .variant_names()
                .iter()
                .map(|v| registry.counter(&format!("dispatch.{name}.win.{v}")))
                .collect(),
            vetoes: cv
                .variant_names()
                .iter()
                .map(|v| registry.counter(&format!("dispatch.{name}.veto.{v}")))
                .collect(),
            latency: registry.sketch(&format!("dispatch.{name}.latency_ns")),
            feature: registry.sketch(&format!("dispatch.{name}.feature_ns")),
            predict: registry.sketch(&format!("ml.{name}.predict_ns")),
            profiler: None,
        }
    }

    /// Attach a sampling profiler: every Kth dispatch lands in the
    /// profiler's per-(function, variant, feature-regime) cells.
    pub fn with_profiler(mut self, profiler: PulseProfiler) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Register metrics and install the bundle as `cv`'s dispatch
    /// observer in one step. Returns the shared handle (also useful for
    /// asserting on values in tests).
    pub fn install<I: ?Sized>(
        cv: &mut CodeVariant<I>,
        registry: &MetricsRegistry,
        profiler: Option<PulseProfiler>,
    ) -> Arc<FunctionPulse> {
        let mut fp = FunctionPulse::register(registry, cv);
        if let Some(p) = profiler {
            fp = fp.with_profiler(p);
        }
        let fp = Arc::new(fp);
        cv.set_dispatch_observer(fp.clone());
        fp
    }

    /// Total dispatches recorded.
    pub fn calls(&self) -> u64 {
        self.calls.value()
    }

    /// The function's latency sketch handle.
    pub fn latency(&self) -> &Sketch {
        &self.latency
    }
}

impl DispatchObserver for FunctionPulse {
    #[inline]
    fn on_dispatch(&self, observation: &DispatchObservation<'_>) {
        let o = &observation.record;
        self.calls.inc();
        if o.via_async {
            self.async_calls.inc();
        }
        if let Some(win) = self.wins.get(o.variant) {
            win.inc();
        }
        if o.fell_back {
            self.fallback.inc();
            if let Some(veto) = self.vetoes.get(o.intended) {
                veto.inc();
            }
        }
        self.latency.record(o.objective_ns);
        self.feature.record(o.feature_cost_ns);
        if o.predict_wall_ns > 0 {
            self.predict.record(o.predict_wall_ns as f64);
        }
        if o.kernel_evals > 0 {
            self.kernel_evals.add(o.kernel_evals);
        }
        if let Some(p) = &self.profiler {
            if p.should_sample() {
                p.record_sample(
                    observation.function,
                    observation.variant_name,
                    feature_regime(o.features),
                    o.objective_ns,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_core::{Context, FnFeature, FnVariant};

    fn toy() -> CodeVariant<f64> {
        let ctx = Context::new();
        let mut cv = CodeVariant::<f64>::new("toy", &ctx);
        cv.add_variant(FnVariant::new("a", |x: &f64| *x + 100.0));
        cv.add_variant(FnVariant::new("b", |x: &f64| *x + 200.0));
        cv.set_default(0);
        cv.add_input_feature(FnFeature::new("x", |x: &f64| *x));
        cv
    }

    #[test]
    fn installed_pulse_counts_dispatches() {
        let registry = MetricsRegistry::with_stripes(2);
        let mut cv = toy();
        let fp = FunctionPulse::install(&mut cv, &registry, None);
        for i in 0..20 {
            cv.call(&(i as f64)).unwrap();
        }
        assert_eq!(fp.calls(), 20);
        assert_eq!(registry.counter_value("dispatch.toy.calls"), Some(20));
        // No model installed: the default variant wins every call.
        assert_eq!(registry.counter_value("dispatch.toy.win.a"), Some(20));
        assert_eq!(registry.counter_value("dispatch.toy.win.b"), Some(0));
        let lat = registry.fused_sketch("dispatch.toy.latency_ns").unwrap();
        assert_eq!(lat.count(), 20);
        assert!(lat.quantile(0.5) > 0.0);
    }

    #[test]
    fn profiler_samples_through_the_observer() {
        let registry = MetricsRegistry::with_stripes(2);
        let profiler = PulseProfiler::new(4);
        let mut cv = toy();
        FunctionPulse::install(&mut cv, &registry, Some(profiler.clone()));
        for i in 0..40 {
            cv.call(&(i as f64)).unwrap();
        }
        assert_eq!(profiler.sampled(), 10);
        let collapsed = profiler.collapsed();
        assert!(collapsed.contains("nitro;dispatch;toy;a;"), "{collapsed}");
    }

    #[test]
    fn snapshot_feeds_the_audit_metrics_analyzer_shape() {
        let registry = MetricsRegistry::with_stripes(2);
        let mut cv = toy();
        FunctionPulse::install(&mut cv, &registry, None);
        for i in 0..15 {
            cv.call(&(i as f64)).unwrap();
        }
        let snap = registry.snapshot();
        // The pulse snapshot uses the traced path's counter names, so
        // downstream consumers parse it without change.
        assert_eq!(snap.counter("dispatch.toy.calls"), Some(15));
        assert!(snap.counter("dispatch.toy.win.b").is_some());
        assert!(snap.histogram("dispatch.toy.latency_ns").is_some());
    }
}
