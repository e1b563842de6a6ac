//! Resilient dispatch: retry, quarantine, fallback cascade, degradation.
//!
//! [`GuardedVariant`] wraps a [`CodeVariant`] and replaces its
//! single-step veto fallback with a full recovery pipeline:
//!
//! 1. **Fallback cascade** — the head is tried first: a caller's
//!    preferred variant ([`GuardedVariant::call_preferring`]) or else the
//!    model's vote winner, which needs no posterior. Only when the head
//!    is vetoed, quarantined or out of attempts is the cascade planned:
//!    the model's full posterior ranking (best first), constraint-vetoed
//!    entries dropped, the default variant always appended last. In
//!    degraded mode the cascade is just the default variant.
//! 2. **Quarantine** — each variant owns a [`CircuitBreaker`];
//!    candidates whose breaker is Open are skipped. Breakers tick on
//!    every guarded call, so quarantined variants are probed back in
//!    (HalfOpen) after `cooldown_calls`.
//! 3. **Retry with backoff** — each candidate gets `1 + retry_budget`
//!    failure-isolated attempts ([`CodeVariant::try_run_variant`]), with
//!    an exponentially-doubling simulated backoff charged to the
//!    invocation.
//! 4. **Graceful degradation** — when the model artifact is missing or
//!    fails the `nitro-audit` artifact audit, the guard downgrades to
//!    default-variant dispatch and reports [`HealthStatus::Degraded`]
//!    instead of erroring.
//!
//! The guard is **shard-shareable**: breaker, health and statistics
//! state live in a [`GuardShared`] bundle of atomics, and the whole
//! dispatch pipeline — [`GuardedVariant::call`] — takes `&self`. One
//! guard instance behind an `Arc` serves any number of worker threads
//! with no mutex on the dispatch path; alternatively, several guards
//! (each owning its own `CodeVariant`, e.g. one per serving shard) can
//! share a single `GuardShared` via [`GuardedVariant::new_sharing`], so
//! a variant melting down on one shard is quarantined on all of them.
//!
//! Every guard event is counted once, in the shared bundle's handle set:
//! the `guard.<fn>.{calls,degraded,retry,failure,quarantine,recovered,
//! fallback}` counters of one [`MetricsRegistry`] — the context tracer's
//! when one is installed at construction, a private one otherwise — plus
//! the simulated backoff total. [`GuardedVariant::stats`] reads that
//! set. A traced guard also emits a `guard:<fn>` instant per state
//! transition.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use nitro_audit::AuditedInstall;
use nitro_core::{CodeVariant, DispatchRecord, ModelArtifact, ModelCost, NitroError, Result};
use nitro_trace::{AtomicF64, Counter, MetricsRegistry};

use crate::audit::audit_guard_policy;
use crate::breaker::{BreakerState, CircuitBreaker, GuardPolicy, Transition};

/// Whether the guard is serving model-driven or degraded traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthStatus {
    /// Model-driven dispatch.
    Healthy,
    /// Default-variant dispatch; the reason says why.
    Degraded {
        /// Why the guard downgraded (missing artifact, failed audit…).
        reason: String,
    },
}

impl HealthStatus {
    /// True when the guard is in degraded (default-variant) mode.
    pub fn is_degraded(&self) -> bool {
        matches!(self, HealthStatus::Degraded { .. })
    }
}

/// Cumulative guard statistics: a read of the `guard.<fn>.*` counters
/// in [`GuardShared`], available with or without a tracer. When several
/// guards share state, these aggregate across all of them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GuardStats {
    /// Guarded calls served (success or error).
    pub calls: u64,
    /// Retry attempts across all calls and candidates.
    pub retries: u64,
    /// Failed execution attempts observed.
    pub failures: u64,
    /// Breaker trips (Closed→Open and HalfOpen→Open).
    pub quarantines: u64,
    /// Breakers probed back to Closed (HalfOpen→Closed).
    pub recoveries: u64,
    /// Calls served while degraded.
    pub degraded_calls: u64,
    /// Calls where the executed variant was not the first preference.
    pub fallbacks: u64,
    /// Total simulated backoff charged, in nanoseconds.
    pub backoff_ns: f64,
}

/// Outcome of one guarded call.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedInvocation {
    /// Index of the variant that finally executed.
    pub variant: usize,
    /// Its name.
    pub variant_name: String,
    /// Objective value it returned.
    pub objective: f64,
    /// Feature vector used for selection.
    pub features: Vec<f64>,
    /// Simulated feature-evaluation cost (ns).
    pub feature_cost_ns: f64,
    /// Execution attempts across the whole cascade (≥ 1).
    pub attempts: u32,
    /// Retries among those attempts.
    pub retries: u32,
    /// Simulated backoff charged to this call (ns).
    pub backoff_ns: f64,
    /// The candidate order this call considered (before breaker skips).
    /// When the head (the model's vote winner, or the caller's preferred
    /// variant) serves, this is just `[head]`: the ranked cascade is
    /// planned only when the head is skipped or fails, and is then the
    /// full planned order with the head first.
    pub cascade: Vec<usize>,
    /// True when the executed variant was not the cascade's head.
    pub fell_back: bool,
    /// True when the call was served in degraded mode.
    pub degraded: bool,
}

/// Health state shared between workers: a lock-free degraded flag on the
/// dispatch path, with the human-readable reason behind a mutex touched
/// only when health actually changes (or is snapshotted).
#[derive(Debug)]
struct SharedHealth {
    degraded: AtomicBool,
    reason: Mutex<String>,
}

impl SharedHealth {
    fn new(status: HealthStatus) -> Self {
        let health = Self {
            degraded: AtomicBool::new(false),
            reason: Mutex::new(String::new()),
        };
        health.set(status);
        health
    }

    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    fn snapshot(&self) -> HealthStatus {
        if self.is_degraded() {
            HealthStatus::Degraded {
                reason: self.reason.lock().expect("health reason lock").clone(),
            }
        } else {
            HealthStatus::Healthy
        }
    }

    fn set(&self, status: HealthStatus) {
        match status {
            HealthStatus::Healthy => {
                self.degraded.store(false, Ordering::SeqCst);
            }
            HealthStatus::Degraded { reason } => {
                *self.reason.lock().expect("health reason lock") = reason;
                self.degraded.store(true, Ordering::SeqCst);
            }
        }
    }
}

/// The guard's event handles, registered once per function. Each event
/// is recorded here and nowhere else.
#[derive(Debug)]
struct GuardMetrics {
    calls: Counter,
    degraded: Counter,
    retry: Counter,
    failure: Counter,
    quarantine: Counter,
    recovered: Counter,
    fallback: Counter,
    /// Simulated backoff total. The registry has no float sum, so it
    /// is not exported.
    backoff_ns: AtomicF64,
}

impl GuardMetrics {
    fn register(registry: &MetricsRegistry, function: &str) -> Self {
        let counter = |event: &str| registry.counter(&format!("guard.{function}.{event}"));
        Self {
            calls: counter("calls"),
            degraded: counter("degraded"),
            retry: counter("retry"),
            failure: counter("failure"),
            quarantine: counter("quarantine"),
            recovered: counter("recovered"),
            fallback: counter("fallback"),
            backoff_ns: AtomicF64::new(0.0),
        }
    }

    fn stats(&self) -> GuardStats {
        GuardStats {
            calls: self.calls.value(),
            retries: self.retry.value(),
            failures: self.failure.value(),
            quarantines: self.quarantine.value(),
            recoveries: self.recovered.value(),
            degraded_calls: self.degraded.value(),
            fallbacks: self.fallback.value(),
            backoff_ns: self.backoff_ns.get(),
        }
    }
}

/// The shard-shareable slice of a guard: breaker bank, health flag and
/// event counters, all atomics. Create one with
/// [`GuardedVariant::new`] (implicitly) and hand it to sibling guards
/// with [`GuardedVariant::new_sharing`] so every worker shard sees the
/// same quarantine and health decisions.
#[derive(Debug)]
pub struct GuardShared {
    breakers: Vec<CircuitBreaker>,
    health: SharedHealth,
    metrics: GuardMetrics,
}

impl GuardShared {
    fn new(
        policy: &GuardPolicy,
        n_variants: usize,
        health: HealthStatus,
        metrics: GuardMetrics,
    ) -> Self {
        Self {
            breakers: (0..n_variants)
                .map(|_| CircuitBreaker::new(policy))
                .collect(),
            health: SharedHealth::new(health),
            metrics,
        }
    }

    /// All breaker states, in variant order.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.breakers.iter().map(|b| b.state()).collect()
    }
}

/// A [`CodeVariant`] wrapped in the resilience layer.
pub struct GuardedVariant<I: ?Sized> {
    cv: CodeVariant<I>,
    policy: GuardPolicy,
    shared: Arc<GuardShared>,
    /// Per-instance jitter salt (shard id, say): guards with the same
    /// policy seed but different salts draw decorrelated backoff
    /// schedules.
    jitter_salt: u64,
    /// Monotonic retry counter feeding the jitter stream, so successive
    /// retries of the same `(candidate, attempt)` also decorrelate.
    retry_seq: AtomicU64,
}

impl<I: ?Sized> std::fmt::Debug for GuardedVariant<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuardedVariant")
            .field("function", &self.cv.name())
            .field("health", &self.health())
            .field("stats", &self.stats())
            .field("breakers", &self.breaker_states())
            .finish_non_exhaustive()
    }
}

impl<I: ?Sized> GuardedVariant<I> {
    /// Wrap a code variant. Fails with [`NitroError::Audit`] when the
    /// policy audit (`NITRO05x`) finds error-severity problems. A
    /// wrapped function without an installed model starts out
    /// [`HealthStatus::Degraded`] (default-variant mode) — load one via
    /// [`GuardedVariant::load_model_or_degrade`].
    ///
    /// The guard's `guard.<fn>.*` counters are registered in the metrics
    /// registry of the tracer installed in the variant's context, so a
    /// traced run exports them; without a tracer they live in a private
    /// registry that [`GuardedVariant::stats`] reads.
    pub fn new(cv: CodeVariant<I>, policy: GuardPolicy) -> Result<Self> {
        let diagnostics = audit_guard_policy(cv.name(), &policy);
        if nitro_audit::has_errors(&diagnostics) {
            return Err(NitroError::Audit { diagnostics });
        }
        let health = if cv.has_model() {
            HealthStatus::Healthy
        } else {
            HealthStatus::Degraded {
                reason: "no trained model installed; serving the default variant".into(),
            }
        };
        let registry = cv
            .context()
            .tracer()
            .map_or_else(MetricsRegistry::new, |t| t.metrics().clone());
        let metrics = GuardMetrics::register(&registry, cv.name());
        let shared = Arc::new(GuardShared::new(&policy, cv.n_variants(), health, metrics));
        Ok(Self {
            cv,
            policy,
            shared,
            jitter_salt: 0,
            retry_seq: AtomicU64::new(0),
        })
    }

    /// Wrap a code variant that shares breaker, health and event-counter
    /// state with sibling guards (one per serving shard, say). The
    /// constructing guard does **not** reset the shared health — the
    /// bundle keeps whatever state its owners have driven it to. The
    /// shared breaker bank should cover this function's variants
    /// (candidates beyond the bank dispatch without quarantine
    /// tracking).
    pub fn new_sharing(
        cv: CodeVariant<I>,
        policy: GuardPolicy,
        shared: Arc<GuardShared>,
    ) -> Result<Self> {
        let diagnostics = audit_guard_policy(cv.name(), &policy);
        if nitro_audit::has_errors(&diagnostics) {
            return Err(NitroError::Audit { diagnostics });
        }
        Ok(Self {
            cv,
            policy,
            shared,
            jitter_salt: 0,
            retry_seq: AtomicU64::new(0),
        })
    }

    /// Set this guard's jitter salt (typically the serving shard index)
    /// and reset its retry sequence. Guards with the same policy seed
    /// but different salts draw decorrelated backoff schedules; the
    /// same `(seed, salt)` replays the same one.
    pub fn set_backoff_salt(&mut self, salt: u64) {
        self.jitter_salt = salt;
        self.retry_seq = AtomicU64::new(0);
    }

    /// The jittered pause before a retry: the exponentially-doubled
    /// base scaled by a deterministic factor in
    /// `[1 − jitter, 1 + jitter)` drawn from
    /// `(jitter_seed, salt, candidate, attempt, seq)`. With jitter 0
    /// (the default) this is exactly the bare exponential schedule.
    fn backoff_pause_ns(&self, candidate: usize, attempt: u32, seq: u64) -> f64 {
        // Doubled in f64, exact up to 2^1023: an integer shift would
        // overflow from the 33rd attempt on.
        let doublings = i32::try_from(attempt - 1).unwrap_or(i32::MAX);
        let base = self.policy.backoff_base_ns * 2f64.powi(doublings);
        let jitter = if self.policy.backoff_jitter.is_finite() {
            self.policy.backoff_jitter.clamp(0.0, 1.0)
        } else {
            0.0
        };
        if jitter == 0.0 || base <= 0.0 {
            return base;
        }
        let word = nitro_core::mix64(
            self.policy.jitter_seed
                ^ nitro_core::mix64(self.jitter_salt)
                ^ nitro_core::mix64(
                    (candidate as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (u64::from(attempt) << 40)
                        ^ seq,
                ),
        );
        let u = (word >> 11) as f64 / (1u64 << 53) as f64;
        base * (1.0 + jitter * (2.0 * u - 1.0))
    }

    /// Wrap with the default policy.
    pub fn with_default_policy(cv: CodeVariant<I>) -> Result<Self> {
        Self::new(cv, GuardPolicy::default())
    }

    /// The shared breaker/health/counter bundle, for constructing sibling
    /// guards with [`GuardedVariant::new_sharing`].
    pub fn shared(&self) -> Arc<GuardShared> {
        self.shared.clone()
    }

    /// The wrapped code variant.
    pub fn inner(&self) -> &CodeVariant<I> {
        &self.cv
    }

    /// Mutable access to the wrapped code variant. Variants registered
    /// through this borrow get breakers once
    /// [`GuardedVariant::sync_breakers`] runs (the model-loading paths
    /// call it for you); until then they dispatch without quarantine
    /// tracking.
    pub fn inner_mut(&mut self) -> &mut CodeVariant<I> {
        &mut self.cv
    }

    /// Unwrap, discarding guard state.
    pub fn into_inner(self) -> CodeVariant<I> {
        self.cv
    }

    /// Extend the breaker bank to cover late-registered variants. Only
    /// possible while this guard holds the sole reference to its shared
    /// state (a bank shared across live shards has a fixed variant
    /// count); returns whether the bank now covers every variant.
    pub fn sync_breakers(&mut self) -> bool {
        let n = self.cv.n_variants();
        if let Some(shared) = Arc::get_mut(&mut self.shared) {
            while shared.breakers.len() < n {
                shared.breakers.push(CircuitBreaker::new(&self.policy));
            }
        }
        self.shared.breakers.len() >= n
    }

    /// The active guard policy.
    pub fn policy(&self) -> &GuardPolicy {
        &self.policy
    }

    /// Current health status (snapshot of the shared flag).
    pub fn health(&self) -> HealthStatus {
        self.shared.health.snapshot()
    }

    /// Cumulative statistics (snapshot; aggregated across every guard
    /// sharing this state). In a tracer's registry the counters are
    /// keyed by function name, so every guard of this function built on
    /// that tracer adds into them, exactly as the export shows.
    pub fn stats(&self) -> GuardStats {
        self.shared.metrics.stats()
    }

    /// One variant's breaker state, if the index is in range.
    pub fn breaker_state(&self, variant: usize) -> Option<BreakerState> {
        self.shared.breakers.get(variant).map(|b| b.state())
    }

    /// All breaker states, in variant order.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.shared.breaker_states()
    }

    /// Whether a variant is currently quarantined.
    pub fn is_quarantined(&self, variant: usize) -> bool {
        self.shared
            .breakers
            .get(variant)
            .is_some_and(|b| b.is_quarantined())
    }

    /// The static fallback structure [`GuardedVariant::plan_cascade`]
    /// guarantees, as tuning-graph edges: every dynamic cascade ends at
    /// the terminal default, whatever the model ranks in between, so
    /// each non-default variant gets one edge into the default. Feed
    /// this to [`nitro_audit::TuningGraph::with_cascade`] for the
    /// NITRO084 termination analysis; an empty vector (no default set)
    /// makes that analysis report the missing terminal.
    pub fn cascade_edges(&self) -> Vec<nitro_audit::CascadeEdge> {
        let n = self.cv.n_variants();
        let Some(default) = self.cv.default_variant().filter(|&d| d < n) else {
            return Vec::new();
        };
        (0..n)
            .filter(|&v| v != default)
            .map(|from| nitro_audit::CascadeEdge { from, to: default })
            .collect()
    }

    /// Lower the wrapped registration into a whole-configuration
    /// [`nitro_audit::TuningGraph`], with the cascade this guard's
    /// planner actually guarantees instead of the dispatcher's default
    /// veto edges.
    pub fn tuning_graph(&self) -> nitro_audit::TuningGraph {
        nitro_audit::TuningGraph::from_code_variant(&self.cv).with_cascade(self.cascade_edges())
    }

    /// Load and audit this function's model from the context, degrading
    /// (instead of erroring) when it is missing, mismatched or fails the
    /// artifact audit. Returns the resulting health status.
    pub fn load_model_or_degrade(&mut self) -> HealthStatus {
        self.sync_breakers();
        let name = self.cv.name().to_string();
        let result = match self.cv.context().fetch_model(&name) {
            None => Err(NitroError::ModelMismatch {
                detail: format!("no stored model for '{name}'"),
            }),
            Some(artifact) => self.cv.install_artifact_audited(artifact).map(|_| ()),
        };
        self.absorb_model_result(result);
        self.health()
    }

    /// Install and audit an explicit artifact, degrading on any failure.
    pub fn install_artifact_or_degrade(&mut self, artifact: ModelArtifact) -> HealthStatus {
        self.sync_breakers();
        let result = self.cv.install_artifact_audited(artifact).map(|_| ());
        self.absorb_model_result(result);
        self.health()
    }

    /// Load the newest *intact* version from a `nitro-store`
    /// [`ArtifactStore`](nitro_store::ArtifactStore), degrading instead
    /// of erroring when the store is empty or every version is corrupt.
    /// Versions that fail their
    /// checksum are walked past (never installed), and the store's
    /// `NITRO071`/`NITRO072` diagnostics for them are returned alongside
    /// the resulting health status so callers can surface what was
    /// skipped.
    pub fn load_latest_or_degrade(
        &mut self,
        store: &nitro_store::ArtifactStore,
    ) -> (HealthStatus, Vec<nitro_audit::Diagnostic>) {
        self.sync_breakers();
        let (loaded, diagnostics) = store.load_latest_intact();
        let result = match loaded {
            Some((_, artifact)) => self.cv.install_artifact_audited(artifact).map(|_| ()),
            None => Err(NitroError::ModelMismatch {
                detail: format!(
                    "store has no intact version for '{}' ({} corrupt/unreadable)",
                    store.function(),
                    diagnostics.len()
                ),
            }),
        };
        self.absorb_model_result(result);
        (self.health(), diagnostics)
    }

    fn absorb_model_result(&mut self, result: Result<()>) {
        match result {
            Ok(()) => self.shared.health.set(HealthStatus::Healthy),
            Err(e) => self.degrade(format!("model unavailable: {e}")),
        }
    }

    /// Enter degraded mode explicitly (also used by the model paths).
    /// `&self`: health is shared atomic state, so any worker holding the
    /// guard behind an `Arc` may degrade it.
    pub fn degrade(&self, reason: impl Into<String>) {
        let reason = reason.into();
        if let Some(tracer) = self.cv.context().tracer() {
            tracer.instant(
                &format!("guard:{}", self.cv.name()),
                "guard",
                vec![
                    nitro_trace::arg("event", &"degraded"),
                    nitro_trace::arg("reason", &reason),
                ],
            );
        }
        self.shared.health.set(HealthStatus::Degraded { reason });
    }

    /// The candidate order a call with these features would consider:
    /// the model's posterior ranking (prediction first), constraint-
    /// vetoed candidates dropped, the default variant moved to the
    /// terminal position — unless the model predicts the default, in
    /// which case it leads. Degraded mode plans `[default]` only.
    /// Breaker availability is *not* applied here — quarantine is a
    /// dispatch-time decision (see [`GuardedVariant::call`]).
    pub fn plan_cascade(&self, features: &[f64], input: &I) -> Vec<usize> {
        self.plan(features, input).0
    }

    /// [`GuardedVariant::plan_cascade`], plus what the model evaluation
    /// cost. The model is evaluated once ([`CodeVariant::rank`]): the
    /// prediction and the ranking come from one decision pass.
    fn plan(&self, features: &[f64], input: &I) -> (Vec<usize>, ModelCost) {
        let n = self.cv.n_variants();
        if n == 0 {
            return (Vec::new(), ModelCost::default());
        }
        let default = self.cv.default_variant().filter(|&d| d < n);
        if self.shared.health.is_degraded() {
            return (default.into_iter().collect(), ModelCost::default());
        }
        // The ranking is written straight into the cascade, then
        // reordered and filtered in place.
        let mut cascade = Vec::with_capacity(n + 1);
        let (predicted, cost) = self.cv.rank(features, &mut cascade);
        if let Some(pred) = predicted {
            // Lead with the prediction; the rest keep their rank order.
            match cascade.iter().position(|&v| v == pred) {
                Some(k) => cascade[..=k].rotate_right(1),
                None => cascade.insert(0, pred),
            }
            cascade.retain(|&v| {
                if Some(v) == default {
                    // Reserve the default for the terminal slot unless
                    // the model predicts it outright.
                    v == pred
                } else {
                    self.cv.constraints_satisfied(v, input)
                }
            });
        }
        // The default terminates every cascade (the paper's veto
        // fallback target), even when constraints disfavor it — matching
        // CodeVariant::dispatch, which runs the default on veto. The one
        // exception: when the default IS the prediction it leads instead.
        if cascade.first() != default.as_ref() {
            cascade.extend(default);
        }
        (cascade, cost)
    }

    /// The full resilient dispatch pipeline:
    /// [`GuardedVariant::call_preferring`] with no preferred head.
    pub fn call(&self, input: &I) -> Result<GuardedInvocation>
    where
        I: Sync,
    {
        self.call_preferring(input, None, None)
    }

    /// The one guarded dispatch loop, with an optional preferred `head`
    /// (a serve tier's cached or default variant) and the input's
    /// `features` if the caller already evaluated them. Without a head, a
    /// healthy guard evaluates the features and takes the model's vote
    /// winner as the head; no posterior is coupled unless the vote ties.
    /// The head is skipped while quarantined and, unless it is the
    /// default (the terminal), when a constraint vetoes it; it runs with
    /// the retry budget and breaker feedback of any candidate. Only if it
    /// is skipped or fails is the ranked model cascade planned (and
    /// missing features evaluated), with the head re-inserted first. A
    /// served head is the whole reported cascade, and the constraints of
    /// the candidates below it are never evaluated. Every call ticks the
    /// breakers, counts its events, emits its span and reports through
    /// `CodeVariant::observe_dispatch` once. All guard state is atomic, so one guard behind an
    /// `Arc` serves every worker shard with no lock on this path.
    ///
    /// Errors: [`NitroError::NoHealthyVariant`] when every candidate is
    /// quarantined or out of attempts, [`NitroError::NoSelectionPossible`]
    /// when there is nothing to plan (no model and no default).
    pub fn call_preferring(
        &self,
        input: &I,
        head: Option<usize>,
        mut features: Option<(Vec<f64>, f64)>,
    ) -> Result<GuardedInvocation>
    where
        I: Sync,
    {
        let n = self.cv.n_variants();
        if n == 0 {
            return Err(NitroError::NoVariants);
        }
        let shared = &*self.shared;
        let m = &shared.metrics;
        // Advance every quarantine clock by one guarded call.
        for b in &shared.breakers {
            b.tick();
        }
        let degraded = shared.health.is_degraded();
        m.calls.inc();
        if degraded {
            m.degraded.inc();
        }

        let name = self.cv.name();
        let mut run = Attempts {
            tracer: self.cv.context().tracer(),
            attempts: 0,
            retries: 0,
            backoff_ns: 0.0,
            last_failure: None,
        };
        let mut span = run.tracer.as_ref().map(|t| {
            t.span(
                &format!("guard:{name}"),
                "guard",
                vec![nitro_trace::arg("degraded", &degraded)],
            )
        });

        let mut model_cost = ModelCost::default();
        // The head is skipped when a constraint vetoes it, unless it is
        // the default (the terminal).
        let default = self.cv.default_variant();
        let head = match head {
            // The paper's dispatch needs only the vote winner; the ranked
            // cascade waits until the winner is skipped or fails.
            None if !degraded => {
                let (f, _) = features.get_or_insert_with(|| self.cv.evaluate_features(input));
                let decision = self.cv.decide(input, f);
                model_cost = decision.cost;
                decision
                    .head
                    .filter(|&h| !decision.vetoed || Some(h) == default)
            }
            head => head.filter(|&h| {
                h < n && (Some(h) == default || self.cv.constraints_satisfied(h, input))
            }),
        };
        let mut served = head.and_then(|h| self.attempt(h, input, &mut run).map(|o| (h, o)));
        let (features, feature_cost_ns) = match (&served, features) {
            (_, Some(given)) => given,
            (Some(_), None) => (Vec::new(), 0.0),
            (None, None) => self.cv.evaluate_features(input),
        };
        let cascade = if served.is_some() {
            head.into_iter().collect()
        } else {
            let (mut cascade, cost) = self.plan(&features, input);
            model_cost.kernel_evals += cost.kernel_evals;
            model_cost.predict_wall_ns += cost.predict_wall_ns;
            // The head leads the cascade it was tried from; the rest
            // follow in plan order.
            if let Some(h) = head {
                cascade.retain(|&v| v != h);
                cascade.insert(0, h);
            }
            served = cascade
                .iter()
                .skip(usize::from(head.is_some()))
                .find_map(|&v| self.attempt(v, input, &mut run).map(|o| (v, o)));
            cascade
        };
        if let Some(s) = span.as_mut() {
            s.end_arg("cascade", nitro_trace::val(&cascade));
            s.end_arg("attempts", nitro_trace::val(&run.attempts));
        }
        if cascade.is_empty() {
            return Err(NitroError::NoSelectionPossible);
        }

        let Some((candidate, objective)) = served else {
            if let Some(s) = span.as_mut() {
                s.end_arg("exhausted", nitro_trace::val(&true));
            }
            let detail = match run.last_failure {
                Some(e) => format!("cascade {cascade:?} exhausted; last failure: {e}"),
                None => format!("cascade {cascade:?} entirely quarantined"),
            };
            return Err(NitroError::NoHealthyVariant {
                function: name.to_string(),
                detail,
            });
        };

        let fell_back = candidate != cascade[0];
        if fell_back {
            m.fallback.inc();
        }
        if let Some(s) = span.as_mut() {
            s.end_arg("chosen", nitro_trace::val(&candidate));
            s.end_arg("objective", nitro_trace::val(&objective));
        }
        self.cv.observe_dispatch(&DispatchRecord {
            variant: candidate,
            intended: cascade[0],
            fell_back,
            objective_ns: objective,
            feature_cost_ns,
            model: model_cost,
            features: &features,
            via_async: false,
        });
        Ok(GuardedInvocation {
            variant: candidate,
            variant_name: self.cv.variant_name(candidate).unwrap_or_default().into(),
            objective,
            features,
            feature_cost_ns,
            attempts: run.attempts,
            retries: run.retries,
            backoff_ns: run.backoff_ns,
            cascade,
            fell_back,
            degraded,
        })
    }

    /// Run one candidate with failure isolation, retrying within the
    /// policy's budget and feeding each outcome to its breaker. Returns
    /// its objective, or `None` when it is quarantined or every attempt
    /// failed.
    fn attempt(&self, candidate: usize, input: &I, run: &mut Attempts) -> Option<f64> {
        let m = &self.shared.metrics;
        // Late-registered variants beyond the shared bank dispatch
        // without quarantine tracking (see `sync_breakers`).
        let breaker = self.shared.breakers.get(candidate);
        if breaker.is_some_and(|b| !b.is_available()) {
            return None;
        }
        for attempt in 0..=self.policy.retry_budget {
            if attempt > 0 {
                run.retries += 1;
                m.retry.inc();
                let seq = self.retry_seq.fetch_add(1, Ordering::Relaxed);
                let pause = self.backoff_pause_ns(candidate, attempt, seq);
                run.backoff_ns += pause;
                m.backoff_ns.update(|ns| ns + pause);
            }
            run.attempts += 1;
            match self.cv.try_run_variant(candidate, input) {
                Ok(objective) => {
                    if breaker.and_then(|b| b.on_success()) == Some(Transition::Recovered) {
                        m.recovered.inc();
                        self.instant(run, "recovered", candidate, None);
                    }
                    return Some(objective);
                }
                Err(e) => {
                    m.failure.inc();
                    let mut e = e;
                    if let NitroError::VariantFailed { attempts, .. } = &mut e {
                        *attempts = attempt + 1;
                    }
                    run.last_failure = Some(e);
                    if let Some(transition) = breaker.and_then(|b| b.on_failure()) {
                        m.quarantine.inc();
                        self.instant(
                            run,
                            "quarantine",
                            candidate,
                            Some(transition == Transition::Reopened),
                        );
                        // The breaker just opened: stop burning the
                        // retry budget on a quarantined variant.
                        return None;
                    }
                }
            }
        }
        None
    }

    /// A `guard:<fn>` instant for a breaker transition, when traced.
    fn instant(&self, run: &Attempts, event: &str, variant: usize, reopened: Option<bool>) {
        if let Some(t) = &run.tracer {
            let mut args = vec![
                nitro_trace::arg("event", &event),
                nitro_trace::arg("variant", &variant),
            ];
            args.extend(reopened.map(|r| nitro_trace::arg("reopened", &r)));
            t.instant(&format!("guard:{}", self.cv.name()), "guard", args);
        }
    }
}

/// What one guarded call has spent so far across its candidates.
struct Attempts {
    tracer: Option<nitro_trace::Tracer>,
    attempts: u32,
    retries: u32,
    backoff_ns: f64,
    last_failure: Option<NitroError>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_core::{Context, FnFeature, FnVariant};
    use nitro_ml::{ClassifierConfig, Dataset, TrainedModel};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    /// Toy function: variant 0 wins for x < 5, variant 1 for x ≥ 5.
    fn toy(ctx: &Context) -> CodeVariant<f64> {
        let mut cv = CodeVariant::new("toy", ctx);
        cv.add_variant(FnVariant::new("small", |&x: &f64| 1.0 + x));
        cv.add_variant(FnVariant::new("large", |&x: &f64| 10.0 - x * 0.5));
        cv.set_default(0);
        cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));
        cv
    }

    fn toy_model() -> TrainedModel {
        let data = Dataset::from_parts(
            (0..10).map(|i| vec![i as f64]).collect(),
            (0..10).map(|i| usize::from(i >= 5)).collect(),
        );
        TrainedModel::train(&ClassifierConfig::Knn { k: 1 }, &data)
    }

    fn quick_policy() -> GuardPolicy {
        GuardPolicy {
            retry_budget: 1,
            quarantine_threshold: 2,
            cooldown_calls: 3,
            half_open_probes: 1,
            ..GuardPolicy::default()
        }
    }

    #[test]
    fn bad_policy_is_refused_with_nitro050() {
        let ctx = Context::new();
        let cv = toy(&ctx);
        let err = GuardedVariant::new(
            cv,
            GuardPolicy {
                quarantine_threshold: 0,
                ..GuardPolicy::default()
            },
        )
        .expect_err("zero-trip breaker must be refused");
        assert!(err.diagnostics().iter().any(|d| d.code == "NITRO050"));
    }

    #[test]
    fn healthy_dispatch_follows_the_model() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        cv.install_model(toy_model());
        let guard = GuardedVariant::new(cv, quick_policy()).unwrap();
        assert_eq!(guard.health(), HealthStatus::Healthy);
        assert_eq!(guard.call(&1.0).unwrap().variant, 0);
        let inv = guard.call(&9.0).unwrap();
        assert_eq!(inv.variant, 1);
        assert!(!inv.fell_back);
        assert!(!inv.degraded);
        assert_eq!(inv.attempts, 1);
    }

    /// Sums what guarded dispatches report to the observer hook.
    #[derive(Default)]
    struct CountingObserver {
        calls: AtomicU64,
        kernel_evals: AtomicU64,
        timed: AtomicU64,
    }

    impl nitro_core::DispatchObserver for CountingObserver {
        fn on_dispatch(&self, o: &nitro_core::DispatchObservation<'_>) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.kernel_evals
                .fetch_add(o.record.model.kernel_evals, Ordering::Relaxed);
            self.timed.fetch_add(
                u64::from(o.record.model.predict_wall_ns > 0),
                Ordering::Relaxed,
            );
        }
    }

    /// The toy boundary as an SVM, and the kernel evaluations of one
    /// model pass (each unique support vector once).
    fn toy_svm() -> (TrainedModel, u64) {
        let data = Dataset::from_parts(
            (0..10).map(|i| vec![i as f64]).collect(),
            (0..10).map(|i| usize::from(i >= 5)).collect(),
        );
        let model = TrainedModel::train(
            &ClassifierConfig::Svm {
                c: Some(10.0),
                gamma: Some(0.5),
                grid_search: false,
                cache_bytes: None,
            },
            &data,
        );
        let TrainedModel::Svm { model: svm, .. } = &model else {
            panic!("an SVM config trains an SVM");
        };
        let per_pass = svm.compiled().n_unique_svs() as u64;
        assert!(per_pass > 0);
        (model, per_pass)
    }

    #[test]
    fn observations_report_the_model_evaluation() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        let (model, per_pass) = toy_svm();
        cv.install_model(model);
        let observer = Arc::new(CountingObserver::default());
        cv.set_dispatch_observer(observer.clone());
        let guard = GuardedVariant::new(cv, quick_policy()).unwrap();
        for (x, pred) in [(1.0, 0), (9.0, 1), (4.0, 0)] {
            // A served prediction is the whole cascade: nothing is ranked.
            let inv = guard.call(&x).unwrap();
            assert_eq!((inv.variant, inv.cascade), (pred, vec![pred]));
            assert!(!inv.fell_back);
        }
        assert_eq!(observer.calls.load(Ordering::Relaxed), 3);
        // One kernel pass per call: the vote.
        assert_eq!(observer.kernel_evals.load(Ordering::Relaxed), 3 * per_pass);
        assert_eq!(
            observer.timed.load(Ordering::Relaxed),
            3,
            "an observer gets the predict wall time"
        );
    }

    /// Three variants under kNN (k = 3): at 9.4 the neighbours vote
    /// large, large, mid, so the ranking is [large, mid, small] and the
    /// default (small) comes last.
    fn ranked_toy(ctx: &Context) -> CodeVariant<f64> {
        let mut cv = toy(ctx);
        cv.add_variant(FnVariant::new("mid", |&x: &f64| 5.0 + x));
        let data = Dataset::from_parts(
            [0.0, 1.0, 8.0, 9.0, 10.0]
                .iter()
                .map(|&x| vec![x])
                .collect(),
            vec![0, 0, 2, 1, 1],
        );
        cv.install_model(TrainedModel::train(&ClassifierConfig::Knn { k: 3 }, &data));
        cv
    }

    #[test]
    fn quarantined_prediction_serves_the_next_ranked_candidate() {
        let ctx = Context::new();
        let mut cv = ranked_toy(&ctx);
        cv.replace_variant(1, Arc::new(FnVariant::new("large", |_: &f64| f64::NAN)))
            .unwrap();
        let guard = GuardedVariant::new(cv, quick_policy()).unwrap();
        // The first call burns both attempts on `large` and trips its
        // breaker.
        guard.call(&9.4).unwrap();
        assert!(guard.is_quarantined(1));
        let inv = guard.call(&9.4).unwrap();
        assert_eq!(inv.cascade, vec![1, 2, 0]);
        assert_eq!(inv.variant, 2);
        assert!(inv.fell_back);
        assert_eq!(inv.attempts, 1, "the quarantined head is not attempted");
    }

    #[test]
    fn constraints_below_a_served_head_are_not_evaluated() {
        let ctx = Context::new();
        let mut cv = ranked_toy(&ctx);
        let checks = Arc::new(AtomicU64::new(0));
        let counted = checks.clone();
        cv.add_constraint(
            2,
            nitro_core::FnConstraint::new("counted", move |_: &f64| {
                counted.fetch_add(1, Ordering::Relaxed);
                true
            }),
        )
        .unwrap();
        let guard = GuardedVariant::new(cv, quick_policy()).unwrap();
        let inv = guard.call(&9.4).unwrap();
        assert_eq!((inv.variant, inv.cascade), (1, vec![1]));
        assert_eq!(checks.load(Ordering::Relaxed), 0);
        // Planning the cascade does check the lower-ranked candidate.
        let (features, _) = guard.inner().evaluate_features(&9.4);
        assert_eq!(guard.plan_cascade(&features, &9.4), vec![1, 2, 0]);
        assert_eq!(checks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn backoff_keeps_doubling_past_32_retries() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        cv.replace_variant(1, Arc::new(FnVariant::new("large", |_: &f64| f64::NAN)))
            .unwrap();
        cv.install_model(toy_model());
        let policy = GuardPolicy {
            retry_budget: 40,
            backoff_base_ns: 1.0,
            quarantine_threshold: 100,
            ..GuardPolicy::default()
        };
        let guard = GuardedVariant::new(cv, policy).unwrap();
        let inv = guard.call(&9.0).unwrap();
        assert_eq!(inv.retries, 40);
        // 1 + 2 + … + 2^39, every term exact.
        assert_eq!(inv.backoff_ns, 2f64.powi(40) - 1.0);
    }

    #[test]
    fn guarded_calls_nest_inside_constraints_and_variants() {
        // The thread's model scratch is borrowed only while the model
        // runs, so user code may make guarded calls of its own.
        let ctx = Context::new();
        let mut inner = toy(&ctx);
        inner.install_model(toy_model());
        let inner = Arc::new(GuardedVariant::new(inner, quick_policy()).unwrap());
        let mut outer = toy(&ctx);
        let nested = inner.clone();
        outer
            .replace_variant(
                1,
                Arc::new(FnVariant::new("large", move |&x: &f64| {
                    nested.call(&x).unwrap().objective
                })),
            )
            .unwrap();
        let nested = inner.clone();
        outer
            .add_constraint(
                1,
                nitro_core::FnConstraint::new("nested", move |&x: &f64| nested.call(&x).is_ok()),
            )
            .unwrap();
        outer.install_model(toy_model());
        let outer = GuardedVariant::new(outer, quick_policy()).unwrap();
        let inv = outer.call(&9.0).unwrap();
        assert_eq!(inv.variant, 1);
        assert_eq!(inv.objective, 10.0 - 9.0 * 0.5);
        assert_eq!(
            inner.stats().calls,
            2,
            "one from the constraint, one from the variant"
        );
    }

    #[test]
    fn cascade_edges_route_every_variant_to_the_terminal_default() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        cv.add_variant(FnVariant::new("third", |&x: &f64| x));
        let guard = GuardedVariant::with_default_policy(cv).unwrap();
        assert_eq!(
            guard.cascade_edges(),
            vec![
                nitro_audit::CascadeEdge { from: 1, to: 0 },
                nitro_audit::CascadeEdge { from: 2, to: 0 },
            ]
        );

        // Without a default there is no terminal: no edges, and the
        // tuning graph's termination analysis reports the gap.
        let ctx = Context::new();
        let mut cv = CodeVariant::<f64>::new("nodefault", &ctx);
        cv.add_variant(FnVariant::new("a", |&x: &f64| x));
        cv.add_variant(FnVariant::new("b", |&x: &f64| x));
        cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));
        cv.add_predicate_constraint(1, "p", nitro_core::Predicate::ge(0, 0.0))
            .unwrap();
        let guard = GuardedVariant::with_default_policy(cv).unwrap();
        assert!(guard.cascade_edges().is_empty());
        let diags = nitro_audit::analyze_graph(&guard.tuning_graph());
        assert!(diags.iter().any(|d| d.code == "NITRO084"), "{diags:?}");
    }

    #[test]
    fn tuning_graph_uses_the_guard_cascade() {
        let ctx = Context::new();
        let cv = toy(&ctx);
        let guard = GuardedVariant::with_default_policy(cv).unwrap();
        let g = guard.tuning_graph();
        assert_eq!(g.cascade, guard.cascade_edges());
        assert!(nitro_audit::analyze_graph(&g).is_empty());
    }

    #[test]
    fn missing_model_degrades_to_default_dispatch() {
        let ctx = Context::new();
        let mut guard = GuardedVariant::new(toy(&ctx), quick_policy()).unwrap();
        assert!(guard.health().is_degraded());
        guard.load_model_or_degrade();
        assert!(guard.health().is_degraded(), "registry is empty");
        // Degraded dispatch serves the default variant, even where the
        // model would have picked the other one.
        let inv = guard.call(&9.0).unwrap();
        assert_eq!(inv.variant, 0);
        assert!(inv.degraded);
        assert_eq!(guard.stats().degraded_calls, 1);
        // A model showing up in the registry restores health.
        let mut tuned = toy(&ctx);
        tuned.install_model(toy_model());
        tuned.save_model().unwrap();
        guard.load_model_or_degrade();
        assert_eq!(guard.health(), HealthStatus::Healthy);
        assert_eq!(guard.call(&9.0).unwrap().variant, 1);
    }

    #[test]
    fn panicking_variant_is_retried_quarantined_and_recovered() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        let failing = Arc::new(AtomicBool::new(true));
        let flag = failing.clone();
        cv.replace_variant(
            1,
            Arc::new(FnVariant::new("large", move |&x: &f64| {
                if flag.load(Ordering::Relaxed) {
                    panic!("injected variant failure: 'large'");
                }
                10.0 - x * 0.5
            })),
        )
        .unwrap();
        cv.install_model(toy_model());
        let guard = GuardedVariant::new(cv, quick_policy()).unwrap();

        // First call at x=9 predicts the failing variant: both attempts
        // fail (threshold 2 → quarantine) and the cascade falls back.
        let inv = guard.call(&9.0).unwrap();
        assert_eq!(inv.variant, 0);
        assert!(inv.fell_back);
        assert_eq!(inv.retries, 1);
        assert!(inv.backoff_ns > 0.0);
        assert!(guard.is_quarantined(1));
        assert_eq!(guard.stats().quarantines, 1);

        // While quarantined, the variant is never attempted.
        for _ in 0..2 {
            let inv = guard.call(&9.0).unwrap();
            assert_eq!(inv.variant, 0);
        }
        // The outage ends; after the cooldown the half-open probe
        // succeeds and the variant recovers.
        failing.store(false, Ordering::Relaxed);
        let inv = guard.call(&9.0).unwrap();
        assert_eq!(inv.variant, 1, "half-open probe serves the variant");
        assert_eq!(guard.stats().recoveries, 1);
        assert_eq!(
            guard.breaker_state(1),
            Some(BreakerState::Closed {
                consecutive_failures: 0
            })
        );
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_seed_and_decorrelated_per_shard() {
        let ctx = Context::new();
        // A guard whose model picks a permanently failing variant: every
        // call burns the full retry budget and charges jittered backoff.
        let mk_guard = |salt: u64, seed: u64| {
            let mut cv = toy(&ctx);
            cv.replace_variant(
                1,
                Arc::new(FnVariant::new("large", |_: &f64| -> f64 {
                    panic!("injected variant failure: 'large'");
                })),
            )
            .unwrap();
            cv.install_model(toy_model());
            let mut g = GuardedVariant::new(
                cv,
                GuardPolicy {
                    retry_budget: 3,
                    backoff_base_ns: 1_000.0,
                    backoff_jitter: 0.5,
                    jitter_seed: seed,
                    quarantine_threshold: 100,
                    ..GuardPolicy::default()
                },
            )
            .unwrap();
            g.set_backoff_salt(salt);
            g
        };
        let schedule = |salt: u64, seed: u64| -> Vec<f64> {
            let g = mk_guard(salt, seed);
            (0..4).map(|_| g.call(&9.0).unwrap().backoff_ns).collect()
        };
        // The schedule is a pure function of (seed, salt): rebuilding the
        // guard and replaying the same calls reproduces it bit-for-bit.
        assert_eq!(schedule(3, 99), schedule(3, 99));
        // Different shards (salts) under the same seed decorrelate, as
        // do different seeds under the same salt.
        assert_ne!(schedule(3, 99), schedule(4, 99));
        assert_ne!(schedule(3, 99), schedule(3, 100));
        // Every per-call total stays inside the jitter envelope around
        // the bare exponential sum (1 + 2 + 4 = 7 × base).
        for total in schedule(3, 99) {
            assert!((3_500.0..=10_500.0).contains(&total), "total {total}");
        }
        // Jitter 0 reproduces the bare exponential schedule exactly.
        let bare = {
            let ctx = Context::new();
            let mut cv = toy(&ctx);
            cv.replace_variant(
                1,
                Arc::new(FnVariant::new("large", |_: &f64| -> f64 {
                    panic!("injected variant failure: 'large'");
                })),
            )
            .unwrap();
            cv.install_model(toy_model());
            let g = GuardedVariant::new(
                cv,
                GuardPolicy {
                    retry_budget: 3,
                    backoff_base_ns: 1_000.0,
                    quarantine_threshold: 100,
                    ..GuardPolicy::default()
                },
            )
            .unwrap();
            g.call(&9.0).unwrap().backoff_ns
        };
        assert_eq!(bare, 7_000.0);
    }

    #[test]
    fn exhausted_cascade_is_a_typed_error() {
        let ctx = Context::new();
        let mut cv = CodeVariant::<f64>::new("doomed", &ctx);
        cv.add_variant(FnVariant::new("only", |_: &f64| -> f64 {
            panic!("injected variant failure: 'only'")
        }));
        cv.set_default(0);
        cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));
        let guard = GuardedVariant::new(cv, quick_policy()).unwrap();
        match guard.call(&1.0) {
            Err(NitroError::NoHealthyVariant { function, detail }) => {
                assert_eq!(function, "doomed");
                assert!(detail.contains("injected variant failure"), "{detail}");
            }
            other => panic!("expected NoHealthyVariant, got {other:?}"),
        }
        // Once quarantined, the error is immediate (entirely quarantined).
        match guard.call(&1.0) {
            Err(NitroError::NoHealthyVariant { detail, .. }) => {
                assert!(detail.contains("quarantined"), "{detail}");
            }
            other => panic!("expected NoHealthyVariant, got {other:?}"),
        }
    }

    #[test]
    fn constraint_vetoed_prediction_cascades_to_default() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        cv.add_constraint(1, nitro_core::FnConstraint::new("never", |_: &f64| false))
            .unwrap();
        let (model, per_pass) = toy_svm();
        cv.install_model(model);
        let observer = Arc::new(CountingObserver::default());
        cv.set_dispatch_observer(observer.clone());
        let guard = GuardedVariant::new(cv, quick_policy()).unwrap();
        let (features, _) = guard.inner().evaluate_features(&9.0);
        assert_eq!(guard.plan_cascade(&features, &9.0), vec![0]);
        let inv = guard.call(&9.0).unwrap();
        assert_eq!((inv.variant, inv.cascade), (0, vec![0]));
        assert_eq!(
            observer.kernel_evals.load(Ordering::Relaxed),
            2 * per_pass,
            "the vote, then the plan"
        );
    }

    #[test]
    fn vetoed_prediction_runs_the_next_ranked_variant_not_the_default() {
        // `large` is vetoed above 9.
        let build = |ctx: &Context| {
            let mut cv = ranked_toy(ctx);
            cv.add_constraint(
                1,
                nitro_core::FnConstraint::new("x <= 9", |&x: &f64| x <= 9.0),
            )
            .unwrap();
            cv
        };
        let ctx = Context::new();
        let plain = build(&ctx);
        let (features, _) = plain.evaluate_features(&9.4);
        assert_eq!(plain.select(&features), Some(1), "the model predicts large");

        // Plain dispatch is the paper's one step: the veto runs the default.
        let inv = plain.call(&9.4).unwrap();
        assert_eq!(inv.variant_name, "small");
        assert!(inv.fell_back_to_default);

        // The guard walks its planned cascade to the next-ranked allowed
        // variant.
        let guard = GuardedVariant::new(build(&ctx), quick_policy()).unwrap();
        assert_eq!(guard.plan_cascade(&features, &9.4), vec![2, 0]);
        let inv = guard.call(&9.4).unwrap();
        assert_eq!(inv.variant_name, "mid");
        assert_eq!(inv.cascade, vec![2, 0]);
        assert!(!inv.fell_back);
    }

    #[test]
    fn store_backed_load_walks_past_corruption_or_degrades() {
        let dir = nitro_core::context::temp_model_dir("guard-store").unwrap();
        let ctx = Context::new();
        let mut guard = GuardedVariant::new(toy(&ctx), quick_policy()).unwrap();

        // Empty store → degraded, no diagnostics.
        let mut store = nitro_store::ArtifactStore::open(&dir, "toy").unwrap();
        let (health, diags) = guard.load_latest_or_degrade(&store);
        assert!(health.is_degraded());
        assert!(diags.is_empty());

        // Publish v1 (good) and v2 (good), then corrupt v2 on disk: the
        // guard must skip v2 with a NITRO071 diagnostic and serve v1 —
        // the corrupt bytes are never installed.
        let mut tuned = toy(&ctx);
        tuned.install_model(toy_model());
        let artifact = tuned.export_artifact().unwrap();
        store.publish(&artifact, "v1").unwrap();
        let v2 = store.publish(&artifact, "v2").unwrap();
        std::fs::write(
            dir.join("toy").join(format!("v{v2:06}.model.json")),
            b"{garbage",
        )
        .unwrap();
        let (health, diags) = guard.load_latest_or_degrade(&store);
        assert_eq!(health, HealthStatus::Healthy);
        assert!(diags.iter().any(|d| d.code == "NITRO071"), "{diags:?}");
        assert_eq!(guard.call(&9.0).unwrap().variant, 1, "model-driven");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn guard_metrics_reach_the_tracer() {
        let ctx = Context::new();
        let sink = Arc::new(nitro_trace::RingSink::new(256));
        let tracer = nitro_trace::Tracer::new(sink.clone());
        ctx.install_tracer(tracer.clone());
        let mut cv = toy(&ctx);
        cv.replace_variant(
            1,
            Arc::new(FnVariant::new("large", |_: &f64| -> f64 {
                panic!("injected variant failure: 'large'")
            })),
        )
        .unwrap();
        cv.install_model(toy_model());
        let guard = GuardedVariant::new(cv, quick_policy()).unwrap();
        guard.call(&9.0).unwrap();

        let m = tracer.metrics();
        assert_eq!(m.counter_value("guard.toy.calls"), Some(1));
        assert_eq!(m.counter_value("guard.toy.retry"), Some(1));
        assert_eq!(m.counter_value("guard.toy.failure"), Some(2));
        assert_eq!(m.counter_value("guard.toy.quarantine"), Some(1));
        assert_eq!(m.counter_value("guard.toy.fallback"), Some(1));
        // Registered-but-untouched counters exist at zero.
        assert_eq!(m.counter_value("guard.toy.degraded"), Some(0));
        assert_eq!(m.counter_value("guard.toy.recovered"), Some(0));
        let events = sink.snapshot();
        assert!(events
            .iter()
            .any(|e| e.name == "guard:toy" && e.args.iter().any(|(k, _)| k == "event")));
    }

    #[test]
    fn stats_equal_the_exported_counters_under_a_seeded_campaign() {
        let ctx = Context::new();
        let tracer = nitro_trace::Tracer::new(Arc::new(nitro_trace::RingSink::new(64)));
        ctx.install_tracer(tracer.clone());
        let mut cv = toy(&ctx);
        // Variant 1 fails on a seeded third of its runs.
        let stream = AtomicU64::new(0x5EED);
        cv.replace_variant(
            1,
            Arc::new(FnVariant::new("large", move |&x: &f64| {
                let draw = nitro_core::mix64(stream.fetch_add(1, Ordering::Relaxed));
                if draw.is_multiple_of(3) {
                    panic!("injected variant failure: 'large'");
                }
                10.0 - x * 0.5
            })),
        )
        .unwrap();
        cv.install_model(toy_model());
        let policy = GuardPolicy {
            backoff_base_ns: 250.0,
            backoff_jitter: 0.5,
            jitter_seed: 7,
            ..quick_policy()
        };
        let guard = GuardedVariant::new(cv, policy).unwrap();
        // A sibling shard on the same shared state counts into the same
        // handles, not a second set.
        let mut sibling_cv = toy(&ctx);
        sibling_cv.install_model(toy_model());
        let sibling =
            GuardedVariant::new_sharing(sibling_cv, quick_policy(), guard.shared()).unwrap();
        for i in 0..200 {
            if i == 120 {
                guard.degrade("campaign");
            }
            if i == 150 {
                guard.shared.health.set(HealthStatus::Healthy);
            }
            let x = f64::from(i % 10);
            let _ = if i % 4 == 0 {
                sibling.call(&x)
            } else {
                guard.call(&x)
            };
        }

        let stats = guard.stats();
        for (event, n) in [
            ("retries", stats.retries),
            ("failures", stats.failures),
            ("quarantines", stats.quarantines),
            ("recoveries", stats.recoveries),
            ("degraded calls", stats.degraded_calls),
            ("fallbacks", stats.fallbacks),
        ] {
            assert!(n > 0, "the campaign exercises {event}");
        }
        assert_eq!(stats.calls, 200);
        let snap = tracer.metrics_snapshot();
        let exported = |event: &str| {
            snap.counter(&format!("guard.toy.{event}"))
                .unwrap_or_else(|| panic!("guard.toy.{event} exported"))
        };
        let expected = GuardStats {
            calls: exported("calls"),
            retries: exported("retry"),
            failures: exported("failure"),
            quarantines: exported("quarantine"),
            recoveries: exported("recovered"),
            degraded_calls: exported("degraded"),
            fallbacks: exported("fallback"),
            backoff_ns: stats.backoff_ns,
        };
        assert_eq!(stats, expected);
        assert_eq!(sibling.stats(), stats);
        assert!(stats.backoff_ns > 0.0);
    }

    #[test]
    fn one_guard_instance_serves_many_threads_lock_free() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GuardedVariant<f64>>();

        let ctx = Context::new();
        let mut cv = toy(&ctx);
        cv.install_model(toy_model());
        let guard = Arc::new(GuardedVariant::new(cv, quick_policy()).unwrap());
        let served = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..4 {
                let guard = guard.clone();
                let served = served.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        let x = ((t * 50 + i) % 10) as f64;
                        let inv = guard.call(&x).unwrap();
                        assert_eq!(inv.variant, usize::from(x >= 5.0));
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(served.load(Ordering::Relaxed), 200);
        assert_eq!(guard.stats().calls, 200);
    }

    #[test]
    fn sibling_guards_share_quarantine_state() {
        let ctx = Context::new();
        let mut cv_a = toy(&ctx);
        cv_a.replace_variant(
            1,
            Arc::new(FnVariant::new("large", |_: &f64| -> f64 {
                panic!("injected variant failure: 'large'")
            })),
        )
        .unwrap();
        cv_a.install_model(toy_model());
        let guard_a = GuardedVariant::new(cv_a, quick_policy()).unwrap();

        // A sibling (another shard's guard over the same function) that
        // shares breaker/health/stats state.
        let mut cv_b = toy(&ctx);
        cv_b.install_model(toy_model());
        let guard_b = GuardedVariant::new_sharing(cv_b, quick_policy(), guard_a.shared()).unwrap();

        // Shard A trips variant 1's breaker…
        guard_a.call(&9.0).unwrap();
        assert!(guard_a.is_quarantined(1));
        // …and shard B sees the quarantine without ever failing itself.
        assert!(guard_b.is_quarantined(1));
        assert_eq!(guard_b.call(&9.0).unwrap().variant, 0, "skips quarantined");
        // Stats aggregate across both shards.
        assert_eq!(guard_b.stats().calls, 2);
        assert_eq!(guard_a.stats(), guard_b.stats());
    }
}
