//! What a dispatch reports, and to whom: the pre-resolved metric
//! handles a function records every dispatch into, and the
//! observer hook that lets layers above `nitro-core` (notably
//! `nitro-pulse`'s profiler) watch every dispatch without this crate
//! depending on them.
//!
//! [`CodeVariant::bind_metrics`] registers the metric set once;
//! [`CodeVariant::observe_dispatch`] then records each dispatch into it
//! and hands one borrowed [`DispatchObservation`] to the
//! [`DispatchObserver`] installed via
//! [`CodeVariant::set_dispatch_observer`], after the chosen variant has
//! run. The contract is hot-path-shaped: the observation borrows
//! everything (no allocation to build it), and implementations are
//! expected to record through lock-free primitives — an observer that
//! blocks serializes every caller of the tuned function.
//!
//! [`CodeVariant::bind_metrics`]: crate::CodeVariant::bind_metrics
//! [`CodeVariant::observe_dispatch`]: crate::CodeVariant::observe_dispatch
//! [`CodeVariant::set_dispatch_observer`]: crate::CodeVariant::set_dispatch_observer

use nitro_trace::{Counter, MetricsRegistry, Sketch};

/// Everything one dispatch decided and measured, borrowed from the
/// dispatcher's own state.
#[derive(Debug, Clone, Copy)]
pub struct DispatchObservation<'a> {
    /// The tuned function's name.
    pub function: &'a str,
    /// Name of the variant that ran.
    pub variant_name: &'a str,
    /// Name of the intended variant.
    pub intended_name: &'a str,
    /// The dispatch itself, by variant index.
    pub record: DispatchRecord<'a>,
}

/// One dispatch by variant index, as plain or guarded dispatch records
/// it; [`CodeVariant::observe_dispatch`] names it into a
/// [`DispatchObservation`].
///
/// [`CodeVariant::observe_dispatch`]: crate::CodeVariant::observe_dispatch
#[derive(Debug, Clone, Copy)]
pub struct DispatchRecord<'a> {
    /// Index of the variant that ran.
    pub variant: usize,
    /// Index of the variant dispatch meant to run: the model's (or the
    /// default's) selection before constraint handling, or the head of
    /// a guarded cascade.
    pub intended: usize,
    /// True when dispatch ran something other than the intended variant
    /// (a constraint veto in plain dispatch, a fallback in a guarded
    /// cascade).
    pub fell_back: bool,
    /// The executed variant's objective value (simulated nanoseconds
    /// for the SIMT-backed suites) — the latency signal SLO watchdogs
    /// evaluate.
    pub objective_ns: f64,
    /// Feature-extraction cost charged to this call (simulated ns).
    pub feature_cost_ns: f64,
    /// What the model evaluations of this call cost (nothing when no
    /// model ran).
    pub model: ModelCost,
    /// The feature vector the selection used (empty when none was
    /// evaluated).
    pub features: &'a [f64],
    /// True when the call went through the async feature-evaluation
    /// path (`fix_inputs` / `call_fixed`).
    pub via_async: bool,
}

/// What the model evaluations of one dispatch cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelCost {
    /// Kernel evaluations the model performed.
    pub kernel_evals: u64,
    /// Host wall-clock nanoseconds the model took; zero unless the
    /// dispatch is recorded ([`crate::CodeVariant::is_observed`]).
    pub predict_wall_ns: u64,
}

/// Receiver of per-dispatch observations. Implementations must be
/// thread-safe (a shared observer may see dispatches from many threads
/// at once) and should never block or allocate on the record path.
pub trait DispatchObserver: Send + Sync {
    /// Called once per dispatch, after the chosen variant ran.
    fn on_dispatch(&self, observation: &DispatchObservation<'_>);
}

/// Pre-resolved metric handles for one tuned function (the names are
/// listed at [`crate::CodeVariant::bind_metrics`]). Registration is the
/// cold path: every counter and sketch a dispatch touches is resolved
/// here, once, so recording is a handful of relaxed atomic ops on the
/// caller's stripes — no lock, no allocation, no formatting.
#[derive(Debug)]
pub(crate) struct DispatchMetrics {
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
}

impl DispatchMetrics {
    /// Register `function`'s metrics, with one win and one veto counter
    /// per variant name, in `registry`.
    pub(crate) fn register(
        registry: &MetricsRegistry,
        function: &str,
        variants: &[String],
    ) -> Self {
        let per_variant = |kind: &str| -> Vec<Counter> {
            variants
                .iter()
                .map(|v| registry.counter(&format!("dispatch.{function}.{kind}.{v}")))
                .collect()
        };
        Self {
            calls: registry.counter(&format!("dispatch.{function}.calls")),
            async_calls: registry.counter(&format!("dispatch.{function}.async_calls")),
            fallback: registry.counter(&format!("dispatch.{function}.fallback")),
            kernel_evals: registry.counter("ml.predict.kernel_evals"),
            wins: per_variant("win"),
            vetoes: per_variant("veto"),
            latency: registry.sketch(&format!("dispatch.{function}.latency_ns")),
            feature: registry.sketch(&format!("dispatch.{function}.feature_ns")),
            predict: registry.sketch(&format!("dispatch.{function}.predict_ns")),
        }
    }

    /// Record one dispatch.
    #[inline]
    pub(crate) fn record(&self, o: &DispatchRecord<'_>) {
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
        if o.model.predict_wall_ns > 0 {
            self.predict.record(o.model.predict_wall_ns as f64);
        }
        if o.model.kernel_evals > 0 {
            self.kernel_evals.add(o.model.kernel_evals);
        }
    }
}
