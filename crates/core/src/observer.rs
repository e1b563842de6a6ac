//! The dispatch observation hook: a trait boundary that lets telemetry
//! layers above `nitro-core` (notably `nitro-pulse`) watch every
//! dispatch without this crate depending on them.
//!
//! A [`DispatchObserver`] installed via
//! [`CodeVariant::set_dispatch_observer`] receives one borrowed
//! [`DispatchObservation`] per dispatch, after the chosen variant has
//! run. The contract is hot-path-shaped: the observation borrows
//! everything (no allocation to build it), and implementations are
//! expected to record through lock-free primitives — an observer that
//! blocks serializes every caller of the tuned function.
//!
//! [`CodeVariant::set_dispatch_observer`]: crate::CodeVariant::set_dispatch_observer

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
    /// Wall-clock nanoseconds the model prediction took (0 when no
    /// model ran).
    pub predict_wall_ns: u64,
    /// Kernel evaluations the prediction performed.
    pub kernel_evals: u64,
    /// The feature vector the selection used (empty when none was
    /// evaluated).
    pub features: &'a [f64],
    /// True when the call went through the async feature-evaluation
    /// path (`fix_inputs` / `call_fixed`).
    pub via_async: bool,
}

/// Receiver of per-dispatch observations. Implementations must be
/// thread-safe (a shared observer may see dispatches from many threads
/// at once) and should never block or allocate on the record path.
pub trait DispatchObserver: Send + Sync {
    /// Called once per dispatch, after the chosen variant ran.
    fn on_dispatch(&self, observation: &DispatchObservation<'_>);
}
