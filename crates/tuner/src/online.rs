//! Online tuning: learn variant selection *during* deployment.
//!
//! The paper's workflow is offline: an expert runs the autotuner, ships a
//! model, end users consume it. Its conclusion, however, aims at "a
//! mainstream autotuning framework that supports both expert users and
//! the general programming community" — and general users won't run a
//! tuning script. [`OnlineCodeVariant`] closes that gap: it wraps a
//! configured [`CodeVariant`] and, with a (decaying) exploration
//! probability, pays for an exhaustive profile of the incoming input —
//! labeling it on the spot — then periodically retrains the model on
//! everything labeled so far. Selection quality converges toward the
//! offline-trained model without any training phase, in the spirit of
//! STAPL's dynamic selection (paper §I/§VI).
//!
//! Two safeguards keep long-running deployments healthy:
//!
//! * the labeled set is a **sliding window**
//!   ([`OnlineOptions::max_labels`]) — old examples age out FIFO, so
//!   memory stays bounded and the model tracks workload drift, and
//!   retraining stays deterministic under the cap;
//! * retraining waits for **at least two observed classes** — a one-class
//!   training set produces a degenerate classifier that would lock in
//!   whatever variant happened to win first.
//!
//! With [`OnlineCodeVariant::enable_promotion`], retrained models stop
//! installing directly: after the first (bootstrap) model, each retrain
//! is staged through a [`StagedPromotion`] — it shadow-predicts on
//! subsequent exploration calls and replaces the serving model only
//! after proving itself no worse, with automatic rollback on
//! post-promotion regression (see `nitro-store`).

use nitro_core::{
    CodeVariant, Invocation, ModelArtifact, NitroError, Result, TrainedModel, MODEL_SCHEMA_VERSION,
};
use nitro_ml::Dataset;
use nitro_store::{ArtifactStore, LifecycleEvent, PromotionPolicy, StagedPromotion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::profile::ProfileTable;

/// Options for online tuning.
#[derive(Debug, Clone, Copy)]
pub struct OnlineOptions {
    /// Initial probability of exploring (exhaustively profiling) a call.
    pub explore_probability: f64,
    /// Multiplied into the exploration probability after every
    /// exploration — exploration decays as the model matures.
    pub explore_decay: f64,
    /// Exploration probability never drops below this (drift guard).
    pub explore_floor: f64,
    /// Retrain after this many new labels.
    pub retrain_every: usize,
    /// Sliding-window cap on the labeled set: once full, the oldest
    /// example is evicted per new label (FIFO, deterministic). Memory
    /// stays bounded and the model tracks drift instead of averaging
    /// over stale workloads.
    pub max_labels: usize,
    /// Deterministic seed for the exploration coin.
    pub seed: u64,
}

impl Default for OnlineOptions {
    fn default() -> Self {
        Self {
            explore_probability: 0.5,
            explore_decay: 0.9,
            explore_floor: 0.02,
            retrain_every: 4,
            max_labels: 256,
            seed: 0x0821_9E37,
        }
    }
}

/// Counters describing an online tuner's life so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineStats {
    /// Total dispatched calls.
    pub calls: u64,
    /// Calls that paid for exhaustive exploration.
    pub explorations: u64,
    /// Model retrains performed.
    pub retrains: u64,
    /// Labels evicted by the sliding window.
    pub window_evictions: u64,
    /// Retrained models staged as promotion candidates.
    pub staged: u64,
    /// Candidates promoted to serving.
    pub promotions: u64,
    /// Promotions automatically rolled back.
    pub rollbacks: u64,
}

/// A self-tuning `code_variant`: no offline phase required.
pub struct OnlineCodeVariant<I> {
    inner: CodeVariant<I>,
    options: OnlineOptions,
    explore_probability: f64,
    labeled: Dataset,
    since_retrain: usize,
    coin: StdRng,
    stats: OnlineStats,
    promotion_policy: Option<PromotionPolicy>,
    promotion: Option<StagedPromotion>,
    store: Option<ArtifactStore>,
}

impl<I: Send + Sync> OnlineCodeVariant<I> {
    /// Wrap a configured (but untrained) code variant.
    pub fn new(inner: CodeVariant<I>, options: OnlineOptions) -> Self {
        let labeled = Dataset::new(inner.n_variants());
        Self {
            inner,
            explore_probability: options.explore_probability,
            options,
            labeled,
            since_retrain: 0,
            coin: StdRng::seed_from_u64(options.seed),
            stats: OnlineStats::default(),
            promotion_policy: None,
            promotion: None,
            store: None,
        }
    }

    /// Route retrained models through staged promotion instead of
    /// installing them directly. The first retrain still installs
    /// directly (there is no incumbent to shadow against); every later
    /// retrain is staged, shadow-scored on exploration calls, and
    /// promoted / demoted / rolled back by the `nitro-store` state
    /// machine.
    pub fn enable_promotion(&mut self, policy: PromotionPolicy) {
        self.promotion_policy = Some(policy);
    }

    /// Persist the model lifecycle through a versioned artifact store:
    /// the bootstrap model is published, promotions publish successor
    /// versions, and auto-rollbacks move the store's `latest` pointer
    /// back. Implies nothing without [`OnlineCodeVariant::enable_promotion`].
    pub fn attach_store(&mut self, store: ArtifactStore) {
        self.store = Some(store);
    }

    /// Dispatch one call. Exploration calls run *every* variant (their
    /// returned [`Invocation`] reflects the best one found); exploitation
    /// calls behave exactly like [`CodeVariant::call`].
    pub fn call(&mut self, input: &I) -> Result<Invocation> {
        self.stats.calls += 1;
        let explore =
            !self.inner.has_model() || self.coin.random::<f64>() < self.explore_probability;
        if explore {
            self.stats.explorations += 1;
            self.explore_probability = (self.explore_probability * self.options.explore_decay)
                .max(self.options.explore_floor);
            return self.explore(input);
        }
        self.inner.call(input)
    }

    /// Exhaustively profile the input, record its label, maybe retrain,
    /// and report the best variant found.
    fn explore(&mut self, input: &I) -> Result<Invocation> {
        let (features, feature_cost_ns, costs, _) = ProfileTable::profile_one(&self.inner, input);
        let objective = self.inner.policy().objective;
        let worst = objective.worst();
        let mut best: Option<(usize, f64)> = None;
        for (v, &c) in costs.iter().enumerate() {
            if c == worst || c.is_nan() {
                continue;
            }
            if best.is_none_or(|(_, bc)| objective.better(c, bc)) {
                best = Some((v, c));
            }
        }
        let (variant, cost) = best.ok_or(NitroError::NoSelectionPossible)?;

        // Exploration produced ground truth: drive the promotion state
        // machine with it (shadow scoring, probation, rollback).
        self.feed_promotion(&features, &costs)?;

        self.labeled.push(features.clone(), variant);
        while self.labeled.len() > self.options.max_labels.max(1) {
            // FIFO eviction keeps the window — and thus every retrain —
            // a deterministic function of the label stream.
            self.labeled.x.remove(0);
            self.labeled.y.remove(0);
            self.stats.window_evictions += 1;
        }
        self.since_retrain += 1;
        let classes_seen = self
            .labeled
            .class_counts()
            .iter()
            .filter(|&&c| c > 0)
            .count();
        // A single-class training set yields a degenerate classifier that
        // would lock in whichever variant won first — wait for evidence
        // that selection is actually input-dependent.
        if self.since_retrain >= self.options.retrain_every && classes_seen >= 2 {
            let model = TrainedModel::train(&self.inner.policy().classifier, &self.labeled);
            self.since_retrain = 0;
            self.stats.retrains += 1;
            self.adopt(model)?;
        }

        Ok(Invocation {
            variant,
            variant_name: self.inner.variant_names()[variant].clone(),
            objective: cost,
            features,
            feature_cost_ns,
            fell_back_to_default: false,
        })
    }

    /// Feed one ground-truth observation to the promotion machine and
    /// apply whatever it decided (promotion or rollback swaps the
    /// serving model).
    fn feed_promotion(&mut self, features: &[f64], costs: &[f64]) -> Result<()> {
        let Some(sp) = &mut self.promotion else {
            return Ok(());
        };
        let label = format!("call{}", self.stats.calls);
        let events = sp.observe(&label, features, costs, self.store.as_mut())?;
        for event in events {
            match event {
                LifecycleEvent::Promoted { .. } => {
                    self.stats.promotions += 1;
                    self.inner.install_model(sp.current().model.clone());
                }
                LifecycleEvent::RolledBack { .. } => {
                    self.stats.rollbacks += 1;
                    self.inner.install_model(sp.current().model.clone());
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Route a freshly retrained model: direct install without
    /// promotion; bootstrap-then-stage with it.
    fn adopt(&mut self, model: TrainedModel) -> Result<()> {
        let Some(policy) = self.promotion_policy.clone() else {
            self.inner.install_model(model);
            return Ok(());
        };
        match &mut self.promotion {
            None => {
                // Bootstrap: no incumbent exists yet, so the first model
                // installs directly and seeds the state machine.
                self.inner.install_model(model);
                let artifact = self.inner.export_artifact()?;
                let mut sp = StagedPromotion::new(artifact.clone(), policy);
                if let Some(tracer) = self.inner.context().tracer() {
                    sp.attach_tracer(tracer);
                }
                if let Some(store) = &mut self.store {
                    let version = store.publish(&artifact, "online bootstrap")?;
                    sp.set_incumbent_version(Some(version));
                }
                self.promotion = Some(sp);
            }
            Some(sp) => {
                let candidate = ModelArtifact {
                    schema_version: MODEL_SCHEMA_VERSION,
                    function: self.inner.name().to_string(),
                    variant_names: self.inner.variant_names(),
                    feature_names: self.inner.feature_names(),
                    policy: self.inner.policy().clone(),
                    model,
                };
                let events = sp.stage_candidate(candidate)?;
                if events
                    .iter()
                    .any(|e| matches!(e, LifecycleEvent::Staged { .. }))
                {
                    self.stats.staged += 1;
                }
            }
        }
        Ok(())
    }

    /// Life-so-far counters.
    pub fn stats(&self) -> OnlineStats {
        self.stats
    }

    /// Labels currently held (bounded by [`OnlineOptions::max_labels`]).
    pub fn n_labels(&self) -> usize {
        self.labeled.len()
    }

    /// The promotion state machine, when enabled and bootstrapped.
    pub fn promotion(&self) -> Option<&StagedPromotion> {
        self.promotion.as_ref()
    }

    /// The attached artifact store, when any.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// Read access to the wrapped code variant (e.g. to export the model).
    pub fn inner(&self) -> &CodeVariant<I> {
        &self.inner
    }

    /// Unwrap, keeping the learned model installed.
    pub fn into_inner(self) -> CodeVariant<I> {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_core::{ClassifierConfig, Context, FnFeature, FnVariant};

    fn toy(ctx: &Context) -> CodeVariant<f64> {
        let mut cv = CodeVariant::new("online-toy", ctx);
        cv.add_variant(FnVariant::new("low", |&x: &f64| 1.0 + x));
        cv.add_variant(FnVariant::new("high", |&x: &f64| 11.0 - x));
        cv.set_default(0);
        cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));
        cv.policy_mut().classifier = ClassifierConfig::Knn { k: 3 };
        cv
    }

    /// Deterministic stream of inputs spanning both regimes.
    fn stream(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37) % 100) as f64 / 10.0).collect()
    }

    #[test]
    fn first_call_explores_and_installs_a_model_eventually() {
        let ctx = Context::new();
        let mut online = OnlineCodeVariant::new(toy(&ctx), OnlineOptions::default());
        for x in stream(40) {
            online.call(&x).unwrap();
        }
        let stats = online.stats();
        assert!(stats.explorations >= 4, "{stats:?}");
        assert!(stats.retrains >= 1, "{stats:?}");
        assert!(online.inner().has_model());
    }

    #[test]
    fn converges_to_correct_selection_without_offline_tuning() {
        let ctx = Context::new();
        let mut online = OnlineCodeVariant::new(toy(&ctx), OnlineOptions::default());
        // Warm-up traffic.
        for x in stream(120) {
            online.call(&x).unwrap();
        }
        // Fresh traffic must be routed correctly (x < 5 → low, else high).
        let mut correct = 0;
        let probes = [0.5, 2.0, 4.0, 6.0, 8.0, 9.5];
        for &x in &probes {
            let out = online.call(&x).unwrap();
            let expected = if x < 5.0 { "low" } else { "high" };
            // Exploration calls always pick the true best, exploitation
            // uses the model; both should match the expectation by now.
            if out.variant_name == expected {
                correct += 1;
            }
        }
        assert!(correct >= 5, "{correct}/6 correct after online training");
    }

    #[test]
    fn exploration_rate_decays() {
        let ctx = Context::new();
        let mut online = OnlineCodeVariant::new(
            toy(&ctx),
            OnlineOptions {
                explore_probability: 1.0,
                explore_decay: 0.5,
                ..Default::default()
            },
        );
        for x in stream(200) {
            online.call(&x).unwrap();
        }
        let s = online.stats();
        // With decay 0.5 from 1.0 and floor 0.02, explorations should be a
        // small fraction of 200 calls.
        assert!(s.explorations < 40, "{s:?}");
        assert!(s.calls == 200);
    }

    #[test]
    fn into_inner_keeps_the_learned_model() {
        let ctx = Context::new();
        let mut online = OnlineCodeVariant::new(toy(&ctx), OnlineOptions::default());
        for x in stream(60) {
            online.call(&x).unwrap();
        }
        let cv = online.into_inner();
        assert!(cv.has_model());
        assert_eq!(cv.call(&9.0).unwrap().variant_name, "high");
    }

    #[test]
    fn one_class_traffic_never_trains_a_degenerate_model() {
        let ctx = Context::new();
        let mut online = OnlineCodeVariant::new(toy(&ctx), OnlineOptions::default());
        // Only x < 5: variant "low" always wins, one class observed.
        for i in 0..30 {
            online.call(&((i % 40) as f64 / 10.0)).unwrap();
        }
        assert_eq!(online.stats().retrains, 0, "{:?}", online.stats());
        assert!(!online.inner().has_model());
        // The moment the second regime appears, retraining unlocks.
        for i in 0..30 {
            online.call(&(6.0 + (i % 30) as f64 / 10.0)).unwrap();
        }
        assert!(online.stats().retrains >= 1, "{:?}", online.stats());
        assert!(online.inner().has_model());
    }

    #[test]
    fn sliding_window_caps_labels_deterministically() {
        let ctx = Context::new();
        let opts = OnlineOptions {
            explore_probability: 1.0,
            explore_decay: 1.0,
            explore_floor: 1.0, // explore every call
            max_labels: 8,
            ..Default::default()
        };
        let mut a = OnlineCodeVariant::new(toy(&ctx), opts);
        let mut b = OnlineCodeVariant::new(toy(&ctx), opts);
        for x in stream(50) {
            a.call(&x).unwrap();
            b.call(&x).unwrap();
        }
        assert_eq!(a.n_labels(), 8);
        assert!(a.stats().window_evictions > 0);
        // Same stream, same window → identical labeled sets and stats.
        assert_eq!(a.stats(), b.stats());
        let (ma, mb) = (
            a.inner().export_artifact().unwrap(),
            b.inner().export_artifact().unwrap(),
        );
        assert_eq!(ma.to_json().unwrap(), mb.to_json().unwrap());
    }

    #[test]
    fn promotion_routes_retrains_through_staging() {
        let ctx = Context::new();
        let opts = OnlineOptions {
            explore_probability: 1.0,
            explore_decay: 1.0,
            explore_floor: 1.0, // every call explores → observations flow
            retrain_every: 4,
            ..Default::default()
        };
        let mut online = OnlineCodeVariant::new(toy(&ctx), opts);
        online.enable_promotion(PromotionPolicy {
            shadow_window: 5,
            probation_window: 5,
            ..Default::default()
        });
        for x in stream(80) {
            online.call(&x).unwrap();
        }
        let s = online.stats();
        assert!(s.retrains >= 2, "{s:?}");
        assert!(s.staged >= 1, "bootstrap then staged retrains: {s:?}");
        let sp = online.promotion().expect("bootstrapped");
        assert_eq!(sp.function(), "online-toy");
        // Equivalent retrains promote (no-worse bar) without rollback.
        assert_eq!(s.rollbacks, 0, "{s:?}");
        assert!(online.inner().has_model());
    }

    #[test]
    fn promotion_with_store_publishes_versions() {
        let dir = nitro_core::context::temp_model_dir("online-store").unwrap();
        let ctx = Context::new();
        let opts = OnlineOptions {
            explore_probability: 1.0,
            explore_decay: 1.0,
            explore_floor: 1.0,
            retrain_every: 4,
            ..Default::default()
        };
        let mut online = OnlineCodeVariant::new(toy(&ctx), opts);
        online.enable_promotion(PromotionPolicy {
            shadow_window: 5,
            probation_window: 5,
            ..Default::default()
        });
        online.attach_store(ArtifactStore::open(&dir, "online-toy").unwrap());
        for x in stream(80) {
            online.call(&x).unwrap();
        }
        let store = online.store().unwrap();
        assert!(store.latest().is_some(), "bootstrap published");
        let s = online.stats();
        if s.promotions > 0 {
            assert!(store.versions().len() >= 2);
        }
        assert!(store.verify().is_empty(), "store intact");
        std::fs::remove_dir_all(dir).ok();
    }
}
