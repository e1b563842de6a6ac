//! The `code_variant` dispatcher: Nitro's central construct.
//!
//! Mirrors the paper's `code_variant<TuningPolicy, ArgTuple>` class
//! (Table I): variants, features and constraints are registered, a
//! trained model is installed (by the autotuner or loaded from the
//! [`Context`]), and calls then select and execute the predicted best
//! variant — falling back to the default when a constraint vetoes the
//! prediction.

use std::cell::RefCell;
use std::sync::Arc;

use nitro_ml::{PredictScratch, TrainedModel};
use rayon::prelude::*;

use crate::context::Context;
use crate::error::{NitroError, Result};
use crate::feature::{Constraint, InputFeature};
use crate::model::ModelArtifact;
use crate::observer::{
    DispatchMetrics, DispatchObservation, DispatchObserver, DispatchRecord, ModelCost,
};
use crate::policy::TuningPolicy;
use crate::predicate::{ConstraintDescriptor, Predicate};
use crate::variant::Variant;

/// Replace non-finite feature values with 0: a NaN or ±∞ leaking out of
/// a feature function would otherwise poison the scaler and every model
/// trained on it.
fn sanitize(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Evaluate the policy's active features on `input`, zeroing non-finite
/// values. The simulated cost is the sum of the feature costs, or the
/// longest one when they are evaluated in parallel (paper §III-C). The
/// one feature evaluation behind synchronous dispatch and the
/// `fix_inputs` worker.
#[inline]
fn evaluate_active<I: ?Sized + Sync>(
    features: &[Arc<dyn InputFeature<I>>],
    policy: &TuningPolicy,
    input: &I,
) -> (Vec<f64>, f64) {
    if policy.parallel_feature_evaluation {
        let pairs: Vec<(f64, f64)> = policy
            .active_features(features.len())
            .par_iter()
            .map(|&i| {
                let f = &features[i];
                (sanitize(f.evaluate(input)), f.cost_ns(input))
            })
            .collect();
        let values = pairs.iter().map(|p| p.0).collect();
        let cost = pairs.iter().map(|p| p.1).fold(0.0, f64::max);
        (values, cost)
    } else {
        let mut values = Vec::with_capacity(features.len());
        let mut cost = 0.0;
        for i in policy.active_feature_indices(features.len()) {
            let f = &features[i];
            values.push(sanitize(f.evaluate(input)));
            cost += f.cost_ns(input);
        }
        (values, cost)
    }
}

thread_local! {
    /// Model-evaluation buffers for this thread's dispatches, plain and
    /// guarded: after the first call a prediction allocates nothing.
    static PREDICT_SCRATCH: RefCell<PredictScratch> = RefCell::default();
}

/// The head decision of one dispatch (paper §II-B): the model's vote
/// winner and the constraint verdict on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Decision {
    /// The vote winner, clamped to the registered variants; `None`
    /// without a model.
    pub head: Option<usize>,
    /// Whether a constraint attached to the head rejects the input.
    pub vetoed: bool,
    /// What the model evaluation cost.
    pub cost: ModelCost,
}

/// Outcome of one dispatched call.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// Index of the executed variant.
    pub variant: usize,
    /// Name of the executed variant.
    pub variant_name: String,
    /// Objective value the variant returned (simulated ns by default).
    pub objective: f64,
    /// Feature vector used for selection (active subset, in order).
    pub features: Vec<f64>,
    /// Simulated feature-evaluation cost on the variant clock.
    pub feature_cost_ns: f64,
    /// True when a constraint vetoed the model's choice and the default
    /// variant ran instead.
    pub fell_back_to_default: bool,
}

/// A fixed input's feature evaluation (paper §III-C): finished when the
/// policy's `async_feature_eval` is off, running on its own thread when
/// it is on.
enum Pending<I: ?Sized> {
    Ready(Arc<I>, (Vec<f64>, f64)),
    Running(Arc<I>, std::thread::JoinHandle<(Vec<f64>, f64)>),
}

/// One registered constraint: the vetoed variant, the executable check,
/// and — for declaratively registered constraints — the predicate it was
/// lowered from (what the whole-configuration analyses consume).
struct ConstraintEntry<I: ?Sized> {
    variant: usize,
    check: Arc<dyn Constraint<I>>,
    predicate: Option<Predicate>,
}

/// Executable form of a declarative predicate: evaluates the referenced
/// feature functions on the input (with the same non-finite sanitation
/// as dispatch) and applies the expression.
struct PredicateConstraint<I: ?Sized> {
    name: String,
    predicate: Predicate,
    features: Vec<(usize, Arc<dyn InputFeature<I>>)>,
    width: usize,
}

impl<I: ?Sized> Constraint<I> for PredicateConstraint<I> {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_satisfied(&self, input: &I) -> bool {
        let mut values = vec![0.0; self.width];
        for (i, f) in &self.features {
            values[*i] = sanitize(f.evaluate(input));
        }
        self.predicate.eval(&values)
    }
}

/// A tuned function: set of variants + selection meta-information.
///
/// Type parameter `I` is the input (argument tuple) type shared by every
/// variant, feature and constraint.
pub struct CodeVariant<I: ?Sized> {
    name: String,
    context: Context,
    variants: Vec<Arc<dyn Variant<I>>>,
    default_variant: Option<usize>,
    features: Vec<Arc<dyn InputFeature<I>>>,
    constraints: Vec<ConstraintEntry<I>>,
    model: Option<TrainedModel>,
    policy: TuningPolicy,
    pending: Option<Pending<I>>,
    metrics: Option<DispatchMetrics>,
    observer: Option<Arc<dyn DispatchObserver>>,
}

impl<I: ?Sized> CodeVariant<I> {
    /// Create a named dispatcher attached to a [`Context`].
    pub fn new(name: impl Into<String>, context: &Context) -> Self {
        Self {
            name: name.into(),
            context: context.clone(),
            variants: Vec::new(),
            default_variant: None,
            features: Vec::new(),
            constraints: Vec::new(),
            model: None,
            policy: TuningPolicy::default(),
            pending: None,
            metrics: None,
            observer: None,
        }
    }

    /// This function's name (used as the model registry key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attached context.
    pub fn context(&self) -> &Context {
        &self.context
    }

    /// Register a variant; returns its index (the model's class label).
    pub fn add_variant(&mut self, v: impl Variant<I> + 'static) -> usize {
        self.variants.push(Arc::new(v));
        self.variants.len() - 1
    }

    /// Register a *family* of variants generated from a parameter grid:
    /// one variant per value, named `base@value`. Returns their indices.
    ///
    /// This folds optimization-parameter tuning into variant selection —
    /// the integration path the paper sketches for parameter-tuning
    /// systems (§VI: parameterized templates "generate new variants based
    /// on the actual values of the parameters"; §VII plans to
    /// "incorporate into Nitro optimization parameters common to most
    /// autotuning systems").
    pub fn add_variant_family<P, F>(&mut self, base: &str, params: Vec<P>, invoke: F) -> Vec<usize>
    where
        I: 'static,
        P: std::fmt::Display + Send + Sync + 'static,
        F: Fn(&P, &I) -> f64 + Send + Sync + Clone + 'static,
    {
        params
            .into_iter()
            .map(|p| {
                let name = format!("{base}@{p}");
                let f = invoke.clone();
                self.add_variant(crate::variant::FnVariant::new(name, move |input: &I| {
                    f(&p, input)
                }))
            })
            .collect()
    }

    /// Mark the variant used when no model is installed or a constraint
    /// vetoes the prediction.
    ///
    /// Out-of-range indices are accepted here (registration order is not
    /// prescribed — a library may set the default before adding variants)
    /// and reported by the `nitro-audit` registration linter; dispatch
    /// refuses to run with an invalid default.
    pub fn set_default(&mut self, index: usize) {
        self.default_variant = Some(index);
    }

    /// The default variant's index, if set.
    pub fn default_variant(&self) -> Option<usize> {
        self.default_variant
    }

    /// Register an input feature; returns its index.
    pub fn add_input_feature(&mut self, f: impl InputFeature<I> + 'static) -> usize {
        self.features.push(Arc::new(f));
        self.features.len() - 1
    }

    /// Attach an opaque (closure-backed) constraint to one variant.
    ///
    /// The variant must already be registered: unknown indices are a
    /// typed [`NitroError::InvalidIndex`] at registration time, so a
    /// mistyped index fails where it was written instead of surfacing
    /// later as an audit finding. Register variants before constraints.
    ///
    /// Opaque constraints can be *executed* but not *analyzed* — the
    /// whole-configuration analyses model them as `Opaque` nodes. Prefer
    /// [`CodeVariant::add_predicate_constraint`] when the condition is
    /// expressible over registered features.
    pub fn add_constraint(
        &mut self,
        variant: usize,
        c: impl Constraint<I> + 'static,
    ) -> Result<()> {
        self.checked_constraint_variant(variant)?;
        self.constraints.push(ConstraintEntry {
            variant,
            check: Arc::new(c),
            predicate: None,
        });
        Ok(())
    }

    /// Attach a declarative constraint: `variant` may only run on inputs
    /// where `predicate` holds over the registered feature vector.
    ///
    /// The predicate is lowered into the tuning-graph IR, so the
    /// `nitro-audit` whole-configuration analyses (NITRO080–086) can
    /// reason about it statically; at dispatch it behaves exactly like a
    /// closure constraint (referenced features are evaluated on the
    /// input, sanitized, and the expression applied).
    ///
    /// Both the variant index and every feature index the predicate
    /// references must already be registered; violations are a typed
    /// [`NitroError::InvalidIndex`].
    pub fn add_predicate_constraint(
        &mut self,
        variant: usize,
        name: impl Into<String>,
        predicate: Predicate,
    ) -> Result<()>
    where
        I: 'static,
    {
        self.checked_constraint_variant(variant)?;
        if let Err(bad) = predicate.validate(self.features.len()) {
            return Err(NitroError::InvalidIndex {
                what: "predicate feature",
                index: bad,
                len: self.features.len(),
            });
        }
        let features = predicate
            .features_referenced()
            .into_iter()
            .map(|i| (i, Arc::clone(&self.features[i])))
            .collect::<Vec<_>>();
        let width = features.iter().map(|(i, _)| i + 1).max().unwrap_or(0);
        let check = PredicateConstraint {
            name: name.into(),
            predicate: predicate.clone(),
            features,
            width,
        };
        self.constraints.push(ConstraintEntry {
            variant,
            check: Arc::new(check),
            predicate: Some(predicate),
        });
        Ok(())
    }

    /// Registration-time validation shared by both constraint paths.
    fn checked_constraint_variant(&self, variant: usize) -> Result<()> {
        if variant < self.variants.len() {
            Ok(())
        } else {
            Err(NitroError::InvalidIndex {
                what: "constraint variant",
                index: variant,
                len: self.variants.len(),
            })
        }
    }

    /// Variant indices referenced by registered constraints, in
    /// registration order (with repeats). Registration now rejects
    /// unknown indices, but the `nitro-audit` registration linter still
    /// re-checks this defensively (NITRO017).
    pub fn constraint_targets(&self) -> Vec<usize> {
        self.constraints.iter().map(|e| e.variant).collect()
    }

    /// Descriptors for every registered constraint, in registration
    /// order: target variant, name, and the lowered predicate (`None`
    /// for opaque closures). This is the feed for the `nitro-audit`
    /// tuning-graph IR.
    pub fn constraint_descriptors(&self) -> Vec<ConstraintDescriptor> {
        self.constraints
            .iter()
            .map(|e| ConstraintDescriptor {
                variant: e.variant,
                name: e.check.name().to_string(),
                predicate: e.predicate.clone(),
            })
            .collect()
    }

    /// Whether any registered constraint was declared as a predicate
    /// (and the deep whole-configuration analyses therefore have
    /// something to analyze).
    pub fn has_predicate_constraints(&self) -> bool {
        self.constraints.iter().any(|e| e.predicate.is_some())
    }

    /// Number of registered variants.
    pub fn n_variants(&self) -> usize {
        self.variants.len()
    }

    /// Number of registered features.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// Registered variant names, in index order.
    pub fn variant_names(&self) -> Vec<String> {
        self.variants.iter().map(|v| v.name().to_string()).collect()
    }

    /// Registered feature names, in index order (full set, not subset).
    pub fn feature_names(&self) -> Vec<String> {
        self.features.iter().map(|f| f.name().to_string()).collect()
    }

    /// Feature names after applying the policy's feature subset.
    pub fn active_feature_names(&self) -> Vec<String> {
        self.policy
            .active_features(self.features.len())
            .into_iter()
            .map(|i| self.features[i].name().to_string())
            .collect()
    }

    /// The tuning policy (Table II options).
    pub fn policy(&self) -> &TuningPolicy {
        &self.policy
    }

    /// Mutable access to the tuning policy.
    pub fn policy_mut(&mut self) -> &mut TuningPolicy {
        &mut self.policy
    }

    /// Install a trained model directly (used by the autotuner).
    pub fn install_model(&mut self, model: TrainedModel) {
        self.model = Some(model);
    }

    /// Whether a model is installed.
    pub fn has_model(&self) -> bool {
        self.model.is_some()
    }

    /// The installed model, if any (the IR builder reads its emittable
    /// class labels for the NITRO086 exhaustiveness analysis).
    pub fn model(&self) -> Option<&TrainedModel> {
        self.model.as_ref()
    }

    /// Install a persisted artifact after validating that it was trained
    /// for this function's exact variant and feature lists.
    pub fn install_artifact(&mut self, artifact: ModelArtifact) -> Result<()> {
        artifact.validate(&self.name, &self.variant_names(), &self.feature_names())?;
        self.policy = artifact.policy.clone();
        self.model = Some(artifact.model);
        Ok(())
    }

    /// Bundle the installed model into a persistable artifact.
    pub fn export_artifact(&self) -> Result<ModelArtifact> {
        let model = self.model.clone().ok_or(NitroError::NoSelectionPossible)?;
        Ok(ModelArtifact {
            schema_version: crate::model::MODEL_SCHEMA_VERSION,
            function: self.name.clone(),
            variant_names: self.variant_names(),
            feature_names: self.feature_names(),
            policy: self.policy.clone(),
            model,
        })
    }

    /// Store the installed model in the context (registry + disk).
    pub fn save_model(&self) -> Result<()> {
        self.context.store_model(self.export_artifact()?)
    }

    /// Load and install this function's model from the context.
    pub fn load_model(&mut self) -> Result<()> {
        let artifact =
            self.context
                .fetch_model(&self.name)
                .ok_or_else(|| NitroError::ModelMismatch {
                    detail: format!("no stored model for '{}'", self.name),
                })?;
        self.install_artifact(artifact)
    }

    /// Evaluate the active features for an input. Returns the feature
    /// vector and the total simulated evaluation cost in nanoseconds.
    pub fn evaluate_features(&self, input: &I) -> (Vec<f64>, f64)
    where
        I: Sync,
    {
        evaluate_active(&self.features, &self.policy, input)
    }

    /// Per-feature simulated evaluation costs for an input, over the
    /// *full* registered feature list (ignores the policy's subset). Used
    /// by the feature-overhead analysis (paper Figure 8) to order
    /// features from cheap to expensive.
    pub fn feature_costs(&self, input: &I) -> Vec<f64> {
        self.features.iter().map(|f| f.cost_ns(input)).collect()
    }

    /// Whether every constraint attached to `variant` accepts this input.
    /// Always true when the policy disables constraints.
    pub fn constraints_satisfied(&self, variant: usize, input: &I) -> bool {
        if !self.policy.constraints {
            return true;
        }
        self.constraints
            .iter()
            .filter(|e| e.variant == variant)
            .all(|e| e.check.is_satisfied(input))
    }

    /// Execute one specific variant directly (the autotuner's exhaustive
    /// search uses this).
    ///
    /// # Panics
    /// Panics if `variant` is out of range.
    pub fn run_variant(&self, variant: usize, input: &I) -> f64 {
        self.variants[variant].invoke(input)
    }

    /// Execute one variant with failure isolation: a panic inside the
    /// variant (e.g. an injected launch failure from the simulator's
    /// fault plan) or a non-finite objective value becomes a typed
    /// [`NitroError::VariantFailed`] instead of unwinding into the
    /// caller. Failure-tolerant profiling and the `nitro-guard`
    /// retry/quarantine dispatch build on this.
    pub fn try_run_variant(&self, variant: usize, input: &I) -> Result<f64> {
        let Some(v) = self.variants.get(variant) else {
            return Err(NitroError::InvalidIndex {
                what: "variant",
                index: variant,
                len: self.variants.len(),
            });
        };
        // AssertUnwindSafe: on Err we only read the variant's name (the
        // shared-variant table is not mutated across the unwind), and
        // variants are required to leave `input` consistent on failure —
        // the same contract a real launch failure imposes.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| v.invoke(input))) {
            Ok(objective) if objective.is_finite() => Ok(objective),
            Ok(objective) => Err(NitroError::VariantFailed {
                variant,
                name: v.name().to_string(),
                attempts: 1,
                detail: format!("non-finite objective value {objective}"),
            }),
            Err(payload) => {
                let detail = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "variant panicked".to_string());
                Err(NitroError::VariantFailed {
                    variant,
                    name: v.name().to_string(),
                    attempts: 1,
                    detail,
                })
            }
        }
    }

    /// A registered variant's name, or `None` if out of range.
    pub fn variant_name(&self, index: usize) -> Option<&str> {
        self.variants.get(index).map(|v| v.name())
    }

    /// Shared handle to a registered variant, or `None` if out of range.
    pub fn variant(&self, index: usize) -> Option<Arc<dyn Variant<I>>> {
        self.variants.get(index).cloned()
    }

    /// Replace a registered variant in place, returning the old one. The
    /// index keeps its model label and statistics slot, so the
    /// replacement must be functionally equivalent (chaos harnesses use
    /// this to wrap a variant in a fault-injecting decorator that keeps
    /// the inner variant's name).
    pub fn replace_variant(
        &mut self,
        index: usize,
        v: Arc<dyn Variant<I>>,
    ) -> Result<Arc<dyn Variant<I>>> {
        if index >= self.variants.len() {
            return Err(NitroError::InvalidIndex {
                what: "variant",
                index,
                len: self.variants.len(),
            });
        }
        Ok(std::mem::replace(&mut self.variants[index], v))
    }

    /// Model prediction for a feature vector (no constraint handling).
    pub fn select(&self, features: &[f64]) -> Option<usize> {
        self.model.as_ref().map(|m| m.predict(features))
    }

    /// Run the installed model on this thread's scratch and report what
    /// it cost; `None` without a model. The scratch is borrowed only while
    /// the model runs: constraint and variant code may dispatch again on
    /// this thread.
    fn run_model<T>(
        &self,
        eval: impl FnOnce(&TrainedModel, &mut PredictScratch) -> T,
    ) -> Option<(T, ModelCost)> {
        let model = self.model.as_ref()?;
        let start = self.is_observed().then(std::time::Instant::now);
        let mut cost = ModelCost::default();
        let out = PREDICT_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let out = eval(model, &mut scratch);
            cost.kernel_evals = scratch.take_kernel_evals();
            out
        });
        cost.predict_wall_ns = start.map_or(0, |start| start.elapsed().as_nanos() as u64);
        Some((out, cost))
    }

    /// The one head decision of plain and guarded dispatch: the model's
    /// vote winner for `features` ([`TrainedModel::predict_into`]: a
    /// posterior is coupled only on a vote tie), clamped to the variants,
    /// and whether its constraints veto it on `input`.
    pub fn decide(&self, input: &I, features: &[f64]) -> Decision {
        let Some((predicted, cost)) = self.run_model(|m, s| m.predict_into(features, s)) else {
            return Decision::default();
        };
        let head = predicted.min(self.variants.len().saturating_sub(1));
        Decision {
            head: Some(head),
            vetoed: !self.constraints_satisfied(head, input),
            cost,
        }
    }

    /// [`CodeVariant::decide`]'s model pass plus the ranking the
    /// `nitro-guard` cascade walks, from one model evaluation
    /// ([`TrainedModel::predict_rank_into`]): the clamped vote winner,
    /// and every class in `ranked`, most preferred first.
    pub fn rank(&self, features: &[f64], ranked: &mut Vec<usize>) -> (Option<usize>, ModelCost) {
        let last = self.variants.len().saturating_sub(1);
        self.run_model(|m, s| m.predict_rank_into(features, s, ranked).min(last))
            .map_or((None, ModelCost::default()), |(p, cost)| (Some(p), cost))
    }

    /// The full dispatch pipeline: evaluate features, consult the model,
    /// apply constraints, execute, record statistics.
    pub fn call(&self, input: &I) -> Result<Invocation>
    where
        I: Sync,
    {
        let (features, feature_cost_ns) = self.evaluate_features(input);
        self.dispatch(input, features, feature_cost_ns, false)
    }

    /// Validate the (permissively stored) default variant index before
    /// dispatching through it.
    fn checked_default(&self, index: usize) -> Result<usize> {
        if index < self.variants.len() {
            Ok(index)
        } else {
            Err(NitroError::InvalidIndex {
                what: "default variant",
                index,
                len: self.variants.len(),
            })
        }
    }

    /// Record this function's dispatches, plain and guarded, in
    /// `registry`: counters `dispatch.<fn>.{calls,async_calls,fallback}`,
    /// `dispatch.<fn>.{win,veto}.<variant>` and `ml.predict.kernel_evals`;
    /// sketches `dispatch.<fn>.latency_ns` and `.feature_ns` in simulated
    /// ns and `.predict_ns` in host wall-clock ns. Every metric is
    /// registered here, at zero, so an exported snapshot tells
    /// "variant never won" from "variant never registered" — the signal
    /// the `nitro-audit` metrics analyzer keys on. Binding again replaces
    /// the previous binding, so a dispatch is counted once. Bind after
    /// registering the variants: a later variant has no win/veto counter.
    pub fn bind_metrics(&mut self, registry: &nitro_trace::MetricsRegistry) {
        self.metrics = Some(DispatchMetrics::register(
            registry,
            &self.name,
            &self.variant_names(),
        ));
    }

    /// Install a per-dispatch observer (see
    /// [`crate::observer::DispatchObserver`]): telemetry layers above
    /// this crate receive one borrowed observation per call. Replaces
    /// any previous observer.
    pub fn set_dispatch_observer(&mut self, observer: Arc<dyn DispatchObserver>) {
        self.observer = Some(observer);
    }

    /// Whether a dispatch is recorded: metrics are bound or an observer
    /// is installed. Only then is the model prediction timed.
    pub fn is_observed(&self) -> bool {
        self.metrics.is_some() || self.observer.is_some()
    }

    /// Record one dispatch into the bound metrics, if any, then report
    /// it to the installed observer, if any, naming the function and
    /// variants from this registration. Plain and guarded dispatch both
    /// report through here, the one place a dispatch is counted. The
    /// path is lock-free and allocation-free: the observation borrows
    /// dispatcher state.
    pub fn observe_dispatch(&self, record: &DispatchRecord<'_>) {
        if let Some(m) = &self.metrics {
            m.record(record);
        }
        let Some(obs) = &self.observer else {
            return;
        };
        obs.on_dispatch(&DispatchObservation {
            function: &self.name,
            variant_name: self.variant_name(record.variant).unwrap_or_default(),
            intended_name: self.variant_name(record.intended).unwrap_or_default(),
            record: *record,
        });
    }

    /// Shared dispatch tail for `call` and `call_fixed`: the paper's
    /// one-step dispatch (§II-B). A vetoed prediction runs the default,
    /// not the next-ranked variant, and the executed variant's objective
    /// is returned as is, even a non-converging solver's `f64::INFINITY`.
    /// `nitro-guard` differs on both by design: its cascade treats a
    /// non-finite objective as a failure and walks the model's ranking.
    fn dispatch(
        &self,
        input: &I,
        features: Vec<f64>,
        feature_cost_ns: f64,
        via_async: bool,
    ) -> Result<Invocation> {
        // `None` on the untraced hot path, which allocates nothing below
        // this point.
        let mut span = self.context.tracer().map(|t| {
            t.span(
                &format!("dispatch:{}", self.name),
                "dispatch",
                vec![
                    nitro_trace::arg("features", &features),
                    nitro_trace::arg("feature_cost_ns", &feature_cost_ns),
                ],
            )
        });

        if self.variants.is_empty() {
            return Err(NitroError::NoVariants);
        }
        let decision = self.decide(input, &features);
        // Without a model the default is the selection, and its own
        // constraints still apply.
        let (intended, vetoed) = match (decision.head, self.default_variant) {
            (Some(head), _) => (head, decision.vetoed),
            (None, Some(d)) => (
                self.checked_default(d)?,
                !self.constraints_satisfied(d, input),
            ),
            (None, None) => return Err(NitroError::NoSelectionPossible),
        };
        // Online constraint handling: revert to the default variant when
        // the selected one is vetoed (paper §II-B).
        let chosen = match (vetoed, self.default_variant) {
            (false, _) => intended,
            (true, Some(d)) => self.checked_default(d)?,
            (true, None) => 0,
        };

        let objective = self.variants[chosen].invoke(input);

        self.observe_dispatch(&DispatchRecord {
            variant: chosen,
            intended,
            fell_back: vetoed,
            objective_ns: objective,
            feature_cost_ns,
            model: decision.cost,
            features: &features,
            via_async,
        });

        if let Some(s) = span.as_mut() {
            s.end_arg("predicted", nitro_trace::val(&intended));
            s.end_arg("chosen", nitro_trace::val(&chosen));
            s.end_arg("vetoed", nitro_trace::val(&vetoed));
            s.end_arg("objective_ns", nitro_trace::val(&objective));
        }

        Ok(Invocation {
            variant: chosen,
            variant_name: self.variants[chosen].name().to_string(),
            objective,
            features,
            feature_cost_ns,
            fell_back_to_default: vetoed,
        })
    }
}

impl<I: ?Sized + Send + Sync + 'static> CodeVariant<I> {
    /// Begin asynchronous feature evaluation for `input` (paper §III-C:
    /// "start executing feature functions asynchronously … Calling the
    /// variant while in asynchronous mode introduces an implicit
    /// barrier"). Returns immediately; follow with [`CodeVariant::call_fixed`].
    ///
    /// When the policy's `async_feature_eval` is disabled, the features
    /// are evaluated eagerly on this thread instead (same semantics,
    /// no concurrency).
    pub fn fix_inputs(&mut self, input: Arc<I>) {
        self.pending = Some(if self.policy.async_feature_eval {
            let features = self.features.clone();
            let policy = self.policy.clone();
            let fixed = Arc::clone(&input);
            let handle = std::thread::spawn(move || evaluate_active(&features, &policy, &fixed));
            Pending::Running(input, handle)
        } else {
            let result = evaluate_active(&self.features, &self.policy, &input);
            Pending::Ready(input, result)
        });
    }

    /// Join the pending feature evaluation (the implicit barrier) and
    /// dispatch on the fixed input.
    pub fn call_fixed(&mut self) -> Result<Invocation> {
        let (input, (features, cost)) = match self.pending.take() {
            None => return Err(NitroError::NoFixedInput),
            Some(Pending::Ready(input, result)) => (input, result),
            Some(Pending::Running(input, handle)) => {
                let result = handle.join().map_err(|payload| {
                    let detail = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "asynchronous feature evaluation".to_string());
                    NitroError::Thread { detail }
                })?;
                (input, result)
            }
        };
        self.dispatch(&input, features, cost, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{FnConstraint, FnFeature};
    use crate::variant::FnVariant;
    use nitro_ml::{ClassifierConfig, Dataset};

    /// A toy tuned function over f64 inputs: variant 0 is "cheap for
    /// small", variant 1 is "cheap for large".
    fn toy() -> CodeVariant<f64> {
        let ctx = Context::new();
        let mut cv = CodeVariant::new("toy", &ctx);
        cv.add_variant(FnVariant::new("small", |&x: &f64| 1.0 + x));
        cv.add_variant(FnVariant::new("large", |&x: &f64| 10.0 - x * 0.5));
        cv.set_default(0);
        cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));
        cv
    }

    fn toy_model() -> TrainedModel {
        // Learn: x < 5 → variant 0, else variant 1.
        let data = Dataset::from_parts(
            (0..10).map(|i| vec![i as f64]).collect(),
            (0..10).map(|i| usize::from(i >= 5)).collect(),
        );
        TrainedModel::train(&ClassifierConfig::Knn { k: 1 }, &data)
    }

    #[test]
    fn no_variants_is_an_error() {
        let ctx = Context::new();
        let cv: CodeVariant<f64> = CodeVariant::new("empty", &ctx);
        assert!(matches!(cv.call(&1.0), Err(NitroError::NoVariants)));
    }

    #[test]
    fn without_model_uses_default() {
        let cv = toy();
        let inv = cv.call(&8.0).unwrap();
        assert_eq!(inv.variant, 0);
        assert_eq!(inv.variant_name, "small");
    }

    #[test]
    fn without_model_or_default_errors() {
        let ctx = Context::new();
        let mut cv = CodeVariant::new("nodefault", &ctx);
        cv.add_variant(FnVariant::new("only", |&_x: &f64| 1.0));
        assert!(matches!(
            cv.call(&1.0),
            Err(NitroError::NoSelectionPossible)
        ));
    }

    #[test]
    fn model_drives_selection() {
        let mut cv = toy();
        cv.install_model(toy_model());
        assert_eq!(cv.call(&1.0).unwrap().variant, 0);
        assert_eq!(cv.call(&9.0).unwrap().variant, 1);
    }

    #[test]
    fn constraint_forces_fallback_to_default() {
        let mut cv = toy();
        cv.install_model(toy_model());
        // Veto the "large" variant everywhere.
        cv.add_constraint(1, FnConstraint::new("never", |_: &f64| false))
            .unwrap();
        let registry = nitro_trace::MetricsRegistry::new();
        cv.bind_metrics(&registry);
        let inv = cv.call(&9.0).unwrap();
        assert!(inv.fell_back_to_default);
        assert_eq!(inv.variant, 0);
        assert_eq!(registry.counter_value("dispatch.toy.fallback"), Some(1));
    }

    #[test]
    fn disabling_constraints_in_policy_ignores_them() {
        let mut cv = toy();
        cv.install_model(toy_model());
        cv.add_constraint(1, FnConstraint::new("never", |_: &f64| false))
            .unwrap();
        cv.policy_mut().constraints = false;
        let inv = cv.call(&9.0).unwrap();
        assert!(!inv.fell_back_to_default);
        assert_eq!(inv.variant, 1);
    }

    #[test]
    fn feature_subset_changes_feature_vector() {
        let mut cv = toy();
        cv.add_input_feature(FnFeature::new("x_squared", |&x: &f64| x * x));
        cv.policy_mut().feature_subset = Some(vec![1]);
        let (features, _) = cv.evaluate_features(&3.0);
        assert_eq!(features, vec![9.0]);
        assert_eq!(cv.active_feature_names(), vec!["x_squared".to_string()]);
    }

    #[test]
    fn serial_feature_cost_sums_parallel_takes_max() {
        let mut cv = toy();
        cv.add_input_feature(FnFeature::with_cost("slow", |&x: &f64| x, |_| 100.0));
        cv.add_input_feature(FnFeature::with_cost("slower", |&x: &f64| x, |_| 300.0));
        let (_, serial_cost) = cv.evaluate_features(&1.0);
        assert_eq!(serial_cost, 400.0);
        cv.policy_mut().parallel_feature_evaluation = true;
        let (_, parallel_cost) = cv.evaluate_features(&1.0);
        assert_eq!(parallel_cost, 300.0);
    }

    #[test]
    fn dispatch_counters_accumulate() {
        let mut cv = toy();
        cv.install_model(toy_model());
        let registry = nitro_trace::MetricsRegistry::new();
        cv.bind_metrics(&registry);
        cv.call(&1.0).unwrap();
        cv.call(&2.0).unwrap();
        cv.call(&9.0).unwrap();
        assert_eq!(registry.counter_value("dispatch.toy.calls"), Some(3));
        assert_eq!(registry.counter_value("dispatch.toy.win.small"), Some(2));
        assert_eq!(registry.counter_value("dispatch.toy.win.large"), Some(1));
    }

    #[test]
    fn async_fix_inputs_then_call_fixed() {
        let mut cv = toy();
        cv.install_model(toy_model());
        cv.policy_mut().async_feature_eval = true;
        let registry = nitro_trace::MetricsRegistry::new();
        cv.bind_metrics(&registry);
        cv.fix_inputs(Arc::new(9.0));
        let inv = cv.call_fixed().unwrap();
        assert_eq!(inv.variant, 1);
        assert_eq!(registry.counter_value("dispatch.toy.async_calls"), Some(1));
    }

    #[test]
    fn call_fixed_without_fix_inputs_errors() {
        let mut cv = toy();
        assert!(matches!(cv.call_fixed(), Err(NitroError::NoFixedInput)));
    }

    #[test]
    fn artifact_round_trip_through_context() {
        let dir = crate::context::temp_model_dir("cv-artifact").unwrap();
        let ctx = Context::with_model_dir(&dir);
        let mut cv = CodeVariant::new("toy", &ctx);
        cv.add_variant(FnVariant::new("small", |&x: &f64| 1.0 + x));
        cv.add_variant(FnVariant::new("large", |&x: &f64| 10.0 - x * 0.5));
        cv.set_default(0);
        cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));
        cv.install_model(toy_model());
        cv.save_model().unwrap();

        // A second instance of the same library function loads it back.
        let mut cv2 = CodeVariant::new("toy", &ctx);
        cv2.add_variant(FnVariant::new("small", |&x: &f64| 1.0 + x));
        cv2.add_variant(FnVariant::new("large", |&x: &f64| 10.0 - x * 0.5));
        cv2.set_default(0);
        cv2.add_input_feature(FnFeature::new("x", |&x: &f64| x));
        cv2.load_model().unwrap();
        assert_eq!(cv2.call(&9.0).unwrap().variant, 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn variant_family_expands_parameter_grid() {
        let ctx = Context::new();
        let mut cv = CodeVariant::<f64>::new("fam", &ctx);
        // Cost model: |x − p| — each parameter value wins near itself.
        let ids = cv.add_variant_family("tile", vec![2u32, 4, 8], |&p, &x: &f64| {
            (x - p as f64).abs()
        });
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(
            cv.variant_names(),
            vec![
                "tile@2".to_string(),
                "tile@4".to_string(),
                "tile@8".to_string()
            ]
        );
        assert_eq!(cv.run_variant(1, &5.0), 1.0);
        // Families can be tuned like any other variant set.
        cv.set_default(0);
        cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));
        let data = Dataset::from_parts(
            vec![
                vec![2.0],
                vec![2.2],
                vec![4.1],
                vec![3.9],
                vec![7.8],
                vec![8.3],
            ],
            vec![0, 0, 1, 1, 2, 2],
        );
        cv.install_model(TrainedModel::train(&ClassifierConfig::Knn { k: 1 }, &data));
        assert_eq!(cv.call(&7.9).unwrap().variant_name, "tile@8");
    }

    #[test]
    fn traced_dispatch_emits_span_and_metrics() {
        let mut cv = toy();
        cv.install_model(toy_model());
        cv.add_constraint(1, FnConstraint::new("never", |_: &f64| false))
            .unwrap();
        let sink = Arc::new(nitro_trace::RingSink::new(64));
        let tracer = nitro_trace::Tracer::new(sink.clone());
        cv.bind_metrics(tracer.metrics());
        cv.context().install_tracer(tracer.clone());

        cv.call(&1.0).unwrap(); // predicted 0, runs 0
        cv.call(&9.0).unwrap(); // predicted 1, vetoed, falls back to 0

        let events = sink.snapshot();
        assert_eq!(events.len(), 4, "two spans = four boundary events");
        assert_eq!(events[0].name, "dispatch:toy");
        assert_eq!(events[0].cat, "dispatch");
        assert_eq!(events[0].phase, nitro_trace::Phase::Begin);
        let vetoed_end = &events[3];
        assert_eq!(vetoed_end.phase, nitro_trace::Phase::End);
        let vetoed = vetoed_end
            .args
            .iter()
            .find(|(k, _)| k == "vetoed")
            .expect("end event carries outcome");
        assert_eq!(vetoed.1, nitro_trace::Value::Bool(true));

        let m = tracer.metrics();
        assert_eq!(m.counter_value("dispatch.toy.calls"), Some(2));
        assert_eq!(m.counter_value("dispatch.toy.win.small"), Some(2));
        assert_eq!(m.counter_value("dispatch.toy.win.large"), Some(0));
        assert_eq!(m.counter_value("dispatch.toy.veto.large"), Some(1));
        assert_eq!(m.counter_value("dispatch.toy.fallback"), Some(1));
    }

    #[test]
    fn bound_metrics_record_untraced_dispatches() {
        let registry = nitro_trace::MetricsRegistry::with_stripes(2);
        let mut cv = toy();
        cv.bind_metrics(&registry);
        for i in 0..20 {
            cv.call(&(i as f64)).unwrap();
        }
        // No model installed: the default variant wins every call.
        assert_eq!(registry.counter_value("dispatch.toy.calls"), Some(20));
        assert_eq!(registry.counter_value("dispatch.toy.win.small"), Some(20));
        assert_eq!(registry.counter_value("dispatch.toy.win.large"), Some(0));
        cv.fix_inputs(Arc::new(3.0));
        cv.call_fixed().unwrap();
        assert_eq!(registry.counter_value("dispatch.toy.async_calls"), Some(1));
        let latency = registry.fused_sketch("dispatch.toy.latency_ns").unwrap();
        assert_eq!(latency.count(), 21);
        assert!(latency.quantile(0.5) > 0.0);
    }

    #[test]
    fn svm_dispatch_counts_kernel_evaluations() {
        let mut cv = toy();
        let data = Dataset::from_parts(
            (0..10).map(|i| vec![i as f64]).collect(),
            (0..10).map(|i| usize::from(i >= 5)).collect(),
        );
        cv.install_model(TrainedModel::train(
            &ClassifierConfig::Svm {
                c: Some(10.0),
                gamma: Some(1.0),
                grid_search: false,
                cache_bytes: None,
            },
            &data,
        ));
        let tracer = nitro_trace::Tracer::new(Arc::new(nitro_trace::RingSink::new(16)));
        cv.bind_metrics(tracer.metrics());
        cv.context().install_tracer(tracer.clone());

        cv.call(&1.0).unwrap();
        cv.call(&9.0).unwrap();
        let evals = tracer
            .metrics()
            .counter_value("ml.predict.kernel_evals")
            .unwrap();
        assert!(evals > 0, "SVM dispatch must report kernel work");
        // Knn dispatch reports none (counter stays declared-but-zero).
        let mut knn = toy();
        knn.install_model(toy_model());
        let t2 = nitro_trace::Tracer::new(Arc::new(nitro_trace::RingSink::new(16)));
        knn.bind_metrics(t2.metrics());
        knn.context().install_tracer(t2.clone());
        knn.call(&1.0).unwrap();
        assert_eq!(
            t2.metrics().counter_value("ml.predict.kernel_evals"),
            Some(0)
        );
    }

    #[test]
    fn traced_error_path_still_closes_span() {
        let ctx = Context::new();
        let sink = Arc::new(nitro_trace::RingSink::new(8));
        ctx.install_tracer(nitro_trace::Tracer::new(sink.clone()));
        let mut cv = CodeVariant::new("nodefault", &ctx);
        cv.add_variant(FnVariant::new("only", |&_x: &f64| 1.0));
        assert!(cv.call(&1.0).is_err());
        let events = sink.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].phase, nitro_trace::Phase::End);
    }

    #[test]
    fn untraced_dispatch_emits_nothing() {
        let mut cv = toy();
        cv.install_model(toy_model());
        cv.call(&1.0).unwrap();
        assert!(cv.context().tracer().is_none());
    }

    #[test]
    fn try_run_variant_isolates_panics_and_bad_objectives() {
        let ctx = Context::new();
        let mut cv = CodeVariant::<f64>::new("fragile", &ctx);
        cv.add_variant(FnVariant::new("ok", |&x: &f64| x + 1.0));
        cv.add_variant(FnVariant::new("panics", |_: &f64| -> f64 {
            panic!("injected launch failure: kernel 'k' (launch 0)")
        }));
        cv.add_variant(FnVariant::new("nan", |_: &f64| f64::NAN));
        cv.add_variant(FnVariant::new("inf", |_: &f64| f64::INFINITY));

        assert_eq!(cv.try_run_variant(0, &1.0).unwrap(), 2.0);
        match cv.try_run_variant(1, &1.0) {
            Err(NitroError::VariantFailed {
                variant,
                name,
                attempts,
                detail,
            }) => {
                assert_eq!((variant, attempts), (1, 1));
                assert_eq!(name, "panics");
                assert!(detail.contains("injected launch failure"), "{detail}");
            }
            other => panic!("expected VariantFailed, got {other:?}"),
        }
        assert!(matches!(
            cv.try_run_variant(2, &1.0),
            Err(NitroError::VariantFailed { .. })
        ));
        assert!(matches!(
            cv.try_run_variant(3, &1.0),
            Err(NitroError::VariantFailed { .. })
        ));
        assert!(matches!(
            cv.try_run_variant(9, &1.0),
            Err(NitroError::InvalidIndex { .. })
        ));
    }

    #[test]
    fn rank_starts_at_the_decided_head_and_covers_all_variants() {
        let mut cv = toy();
        let mut order = Vec::new();
        assert_eq!(cv.rank(&[1.0], &mut order), (None, ModelCost::default()));
        let undecided = cv.decide(&1.0, &[1.0]);
        assert_eq!((undecided.head, undecided.vetoed), (None, false));
        cv.install_model(toy_model());
        cv.add_constraint(1, FnConstraint::new("x <= 9", |&x: &f64| x <= 9.0))
            .unwrap();
        for (x, vetoed) in [(1.0, false), (9.0, false), (9.5, true)] {
            let (features, _) = cv.evaluate_features(&x);
            let (predicted, _) = cv.rank(&features, &mut order);
            assert_eq!(predicted, cv.select(&features));
            let decision = cv.decide(&x, &features);
            assert_eq!((decision.head, decision.vetoed), (predicted, vetoed));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1]);
            assert_eq!(order[0], predicted.unwrap());
        }
    }

    #[test]
    fn plain_calls_nest_inside_constraints_and_variants() {
        // The thread's model scratch is borrowed only while the model
        // runs, so user code may make plain calls of its own.
        let mut inner = toy();
        inner.install_model(toy_model());
        let registry = nitro_trace::MetricsRegistry::new();
        inner.bind_metrics(&registry);
        let inner = Arc::new(inner);
        let mut outer = toy();
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
                FnConstraint::new("nested", move |&x: &f64| nested.call(&x).is_ok()),
            )
            .unwrap();
        outer.install_model(toy_model());
        let inv = outer.call(&9.0).unwrap();
        assert_eq!(inv.variant, 1);
        assert_eq!(inv.objective, 10.0 - 9.0 * 0.5);
        assert_eq!(
            registry.counter_value("dispatch.toy.calls"),
            Some(2),
            "one from the constraint, one from the variant"
        );
    }

    #[test]
    fn replace_variant_keeps_index_and_returns_old() {
        let mut cv = toy();
        let old = cv
            .replace_variant(0, Arc::new(FnVariant::new("small", |&x: &f64| 100.0 + x)))
            .unwrap();
        assert_eq!(old.name(), "small");
        assert_eq!(cv.run_variant(0, &1.0), 101.0);
        assert_eq!(
            cv.variant_names(),
            vec!["small".to_string(), "large".to_string()]
        );
        assert!(cv
            .replace_variant(5, Arc::new(FnVariant::new("x", |&x: &f64| x)))
            .is_err());
        assert!(cv.variant(1).is_some());
        assert!(cv.variant(7).is_none());
    }

    #[test]
    fn predicate_constraint_vetoes_like_a_closure() {
        let mut cv = toy();
        cv.install_model(toy_model());
        // "large" may only run when x <= 7 (feature 0 is x itself).
        cv.add_predicate_constraint(1, "x_le_7", Predicate::le(0, 7.0))
            .unwrap();
        assert!(cv.has_predicate_constraints());
        let inv = cv.call(&6.0).unwrap();
        assert_eq!(inv.variant, 1);
        assert!(!inv.fell_back_to_default);
        let inv = cv.call(&9.0).unwrap();
        assert_eq!(inv.variant, 0);
        assert!(inv.fell_back_to_default);
    }

    #[test]
    fn constraint_registration_rejects_unknown_indices() {
        let mut cv = toy();
        // Unknown variant: typed error at registration, not an audit find.
        let err = cv
            .add_constraint(5, FnConstraint::new("x", |_: &f64| true))
            .unwrap_err();
        assert!(matches!(
            err,
            NitroError::InvalidIndex {
                what: "constraint variant",
                index: 5,
                len: 2
            }
        ));
        let err = cv
            .add_predicate_constraint(3, "p", Predicate::True)
            .unwrap_err();
        assert!(matches!(
            err,
            NitroError::InvalidIndex {
                what: "constraint variant",
                index: 3,
                ..
            }
        ));
        // Unknown feature index inside the predicate.
        let err = cv
            .add_predicate_constraint(1, "p", Predicate::le(4, 1.0))
            .unwrap_err();
        assert!(matches!(
            err,
            NitroError::InvalidIndex {
                what: "predicate feature",
                index: 4,
                len: 1
            }
        ));
        // Nothing was registered by the failed calls.
        assert!(cv.constraint_targets().is_empty());
    }

    #[test]
    fn constraint_descriptors_expose_predicates_and_opaques() {
        let mut cv = toy();
        cv.add_constraint(0, FnConstraint::new("opaque_check", |_: &f64| true))
            .unwrap();
        assert!(!cv.has_predicate_constraints());
        cv.add_predicate_constraint(1, "x_le_7", Predicate::le(0, 7.0))
            .unwrap();
        let descs = cv.constraint_descriptors();
        assert_eq!(descs.len(), 2);
        assert_eq!(
            (descs[0].variant, descs[0].name.as_str()),
            (0, "opaque_check")
        );
        assert_eq!(descs[0].predicate, None);
        assert_eq!((descs[1].variant, descs[1].name.as_str()), (1, "x_le_7"));
        assert_eq!(descs[1].predicate, Some(Predicate::le(0, 7.0)));
    }

    #[test]
    fn artifact_with_wrong_shape_is_rejected() {
        let ctx = Context::new();
        let mut cv = toy();
        cv.install_model(toy_model());
        let artifact = cv.export_artifact().unwrap();

        let mut other = CodeVariant::new("toy", &ctx);
        other.add_variant(FnVariant::new("renamed", |&x: &f64| x));
        other.add_variant(FnVariant::new("large", |&x: &f64| x));
        other.add_input_feature(FnFeature::new("x", |&x: &f64| x));
        assert!(other.install_artifact(artifact).is_err());
    }
}

#[cfg(test)]
mod sanitize_tests {
    use super::*;
    use crate::feature::FnFeature;
    use crate::variant::FnVariant;

    #[test]
    fn non_finite_features_are_zeroed() {
        let ctx = Context::new();
        let mut cv = CodeVariant::<f64>::new("nan", &ctx);
        cv.add_variant(FnVariant::new("only", |&_x: &f64| 1.0));
        cv.set_default(0);
        cv.add_input_feature(FnFeature::new("bad_nan", |&_x: &f64| f64::NAN));
        cv.add_input_feature(FnFeature::new("bad_inf", |&_x: &f64| f64::INFINITY));
        cv.add_input_feature(FnFeature::new("good", |&x: &f64| x));
        let (features, _) = cv.evaluate_features(&3.0);
        assert_eq!(features, vec![0.0, 0.0, 3.0]);

        // Same guarantee on the parallel path.
        cv.policy_mut().parallel_feature_evaluation = true;
        let (features, _) = cv.evaluate_features(&3.0);
        assert_eq!(features, vec![0.0, 0.0, 3.0]);

        // And through `fix_inputs` / `call_fixed`, eager or asynchronous,
        // serial or parallel.
        for (async_eval, parallel) in [(false, false), (true, false), (false, true), (true, true)] {
            cv.policy_mut().async_feature_eval = async_eval;
            cv.policy_mut().parallel_feature_evaluation = parallel;
            cv.fix_inputs(Arc::new(3.0));
            let inv = cv.call_fixed().unwrap();
            assert_eq!(
                inv.features,
                vec![0.0, 0.0, 3.0],
                "async {async_eval}, parallel {parallel}"
            );
        }
    }
}
