//! Staged model promotion with automatic rollback.
//!
//! Retrained models never replace the serving model directly. They
//! enter as **candidates** that *shadow-predict*: on every observed
//! call both the incumbent and the candidate predict, both predictions
//! are scored against the full per-variant cost vector (via
//! [`nitro_trace::RegretLedger`]), and only after a configurable shadow
//! window shows the candidate **no worse** than the incumbent is it
//! promoted. A promotion opens a **probation** window during which the
//! *prior* incumbent keeps shadow-predicting; if the promoted model
//! regresses past tolerance, the promotion is automatically rolled back
//! (instantly — the prior artifact is still in memory and the store's
//! `latest` pointer moves back) with a `NITRO074` finding and a
//! `deploy.<fn>.rollback` metric. Repeated auto-rollbacks trip a storm
//! breaker (`NITRO075`): further promotions are held until an operator
//! calls [`StagedPromotion::release_hold`].
//!
//! ```text
//!             stage_candidate           window no-worse
//!  (none) ────────────────▶ CANDIDATE ────────────────▶ PROBATION ──▶ (none)
//!                              │  stale / worse            │  passed
//!                              ▼                           ▼ regressed
//!                           demoted (NITRO073)       rollback (NITRO074)
//!                           cooldown by content crc   ×N → held (NITRO075)
//! ```

use nitro_core::{crc32, Diagnostic, ModelArtifact, NitroError, Result};
use nitro_pulse::PulseAlert;
use nitro_trace::{MetricsRegistry, RegretLedger, Sketch};

use crate::audit::{diag_rollback, diag_rollback_storm, diag_stale_candidate};
use crate::store::ArtifactStore;

/// Knobs of the promotion state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct PromotionPolicy {
    /// Shadow observations required before a candidate is judged.
    pub shadow_window: u64,
    /// Promotion bar: candidate mean chosen cost must be at most
    /// `(1 + tolerance) ×` the incumbent's over the shadow window.
    pub tolerance: f64,
    /// Observations after promotion before probation is judged.
    pub probation_window: u64,
    /// Rollback bar: the promoted model regresses when its probation
    /// mean exceeds `(1 + probation_tolerance) ×` the prior model's.
    pub probation_tolerance: f64,
    /// A candidate whose shadow window has not filled after this many
    /// total observations is demoted as stale (`NITRO073`).
    pub max_candidate_age: u64,
    /// A demoted candidate's content checksum is refused for this many
    /// observations (prevents an unchanged retrain from thrashing).
    pub demotion_cooldown: u64,
    /// Auto-rollbacks before the storm breaker holds promotions.
    pub storm_threshold: u64,
}

impl Default for PromotionPolicy {
    fn default() -> Self {
        Self {
            shadow_window: 20,
            tolerance: 0.05,
            probation_window: 30,
            probation_tolerance: 0.10,
            max_candidate_age: 200,
            demotion_cooldown: 50,
            storm_threshold: 3,
        }
    }
}

/// A staged model shadow-predicting alongside the incumbent.
#[derive(Debug)]
struct Candidate {
    artifact: ModelArtifact,
    crc: u32,
    staged_at: u64,
    incumbent_ledger: RegretLedger,
    candidate_ledger: RegretLedger,
}

/// A freshly promoted model under watch, with its predecessor shadowing.
#[derive(Debug)]
struct Probation {
    prior: ModelArtifact,
    prior_version: Option<u64>,
    promoted_crc: u32,
    prior_ledger: RegretLedger,
    current_ledger: RegretLedger,
}

/// What [`StagedPromotion::observe`] (and friends) did.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleEvent {
    /// A candidate entered the shadow stage.
    Staged {
        /// Content checksum of the candidate artifact.
        crc: u32,
    },
    /// A candidate (or operator override) became the incumbent.
    Promoted {
        /// Store version it was published as, when a store was attached.
        version: Option<u64>,
    },
    /// The promoted model survived probation; the promotion is final.
    ProbationPassed,
    /// A candidate was removed without promotion.
    Demoted {
        /// Why (`"shadow window shows it worse"`, `"stale"`, …).
        reason: String,
        /// The `NITRO073` finding, when staleness was the cause.
        diagnostic: Option<Diagnostic>,
    },
    /// A staging request was refused outright (hold active, cooldown,
    /// probation in progress).
    Rejected {
        /// Why.
        reason: String,
    },
    /// The promoted model regressed; the prior incumbent is back.
    RolledBack {
        /// Store version now serving, when a store was attached.
        to: Option<u64>,
        /// The `NITRO074` finding.
        diagnostic: Diagnostic,
    },
    /// The storm breaker tripped; promotions are held (`NITRO075`).
    Held {
        /// The `NITRO075` finding.
        diagnostic: Diagnostic,
    },
}

/// Where the state machine currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromotionStage {
    /// Just the incumbent; nothing staged.
    Steady,
    /// A candidate is shadow-predicting.
    Shadowing,
    /// A recent promotion is under probation.
    Probation,
    /// The storm breaker is holding promotions.
    Held,
}

/// The staged-promotion state machine for one tuned function.
#[derive(Debug)]
pub struct StagedPromotion {
    function: String,
    policy: PromotionPolicy,
    incumbent: ModelArtifact,
    incumbent_version: Option<u64>,
    candidate: Option<Candidate>,
    probation: Option<Probation>,
    observations: u64,
    rollbacks: u64,
    held: bool,
    /// `(content crc, observation count at demotion)` of recent demotions.
    demoted: Vec<(u32, u64)>,
    tracer: Option<nitro_trace::Tracer>,
    promotion_ns: Option<Sketch>,
}

fn artifact_crc(artifact: &ModelArtifact) -> Result<u32> {
    Ok(crc32(artifact.to_json()?.as_bytes()))
}

impl StagedPromotion {
    /// A state machine serving `incumbent`, with no staged candidate.
    pub fn new(incumbent: ModelArtifact, policy: PromotionPolicy) -> Self {
        Self {
            function: incumbent.function.clone(),
            policy,
            incumbent,
            incumbent_version: None,
            candidate: None,
            probation: None,
            observations: 0,
            rollbacks: 0,
            held: false,
            demoted: Vec::new(),
            tracer: None,
            promotion_ns: None,
        }
    }

    /// Record which store version the incumbent corresponds to, so
    /// promotions publish successors and rollbacks move the store's
    /// `latest` pointer.
    pub fn set_incumbent_version(&mut self, version: Option<u64>) {
        self.incumbent_version = version;
    }

    /// Emit `deploy.<fn>.*` counters and `deploy:<fn>` instants through
    /// a tracer.
    pub fn attach_tracer(&mut self, tracer: nitro_trace::Tracer) {
        let m = tracer.metrics();
        for suffix in ["stage", "promote", "demote", "rollback", "hold"] {
            m.counter(&format!("deploy.{}.{suffix}", self.function));
        }
        self.tracer = Some(tracer);
    }

    /// Register `store.<fn>.promotion_ns` in a metrics registry and time
    /// every subsequent [`observe`](Self::observe) into it, so the
    /// promotion machinery's own overhead shows up in the same
    /// quantile-sketch telemetry as dispatch latency.
    pub fn attach_pulse(&mut self, registry: &MetricsRegistry) {
        self.promotion_ns = Some(registry.sketch(&format!("store.{}.promotion_ns", self.function)));
    }

    fn note(&self, kind: &str, detail: &str) {
        if let Some(t) = &self.tracer {
            t.metrics()
                .counter(&format!("deploy.{}.{kind}", self.function))
                .inc();
            t.instant(
                &format!("deploy:{}", self.function),
                "deploy",
                vec![
                    nitro_trace::arg("event", kind),
                    nitro_trace::arg("detail", detail),
                ],
            );
        }
    }

    /// The function this machine manages.
    pub fn function(&self) -> &str {
        &self.function
    }

    /// The serving model.
    pub fn current(&self) -> &ModelArtifact {
        &self.incumbent
    }

    /// The store version of the serving model, when known.
    pub fn current_version(&self) -> Option<u64> {
        self.incumbent_version
    }

    /// Predict with the serving model (what dispatch should execute).
    pub fn predict(&self, features: &[f64]) -> usize {
        self.incumbent.model.predict(features)
    }

    /// Current stage of the state machine.
    pub fn stage(&self) -> PromotionStage {
        if self.held {
            PromotionStage::Held
        } else if self.candidate.is_some() {
            PromotionStage::Shadowing
        } else if self.probation.is_some() {
            PromotionStage::Probation
        } else {
            PromotionStage::Steady
        }
    }

    /// Auto-rollbacks so far.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Whether the storm breaker is holding promotions.
    pub fn is_held(&self) -> bool {
        self.held
    }

    /// Operator override: release the storm hold and reset the rollback
    /// count.
    pub fn release_hold(&mut self) {
        self.held = false;
        self.rollbacks = 0;
    }

    /// Observations recorded so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Stage a retrained artifact as a shadow candidate.
    ///
    /// Refusals come back as [`LifecycleEvent::Rejected`], not errors:
    /// the storm hold, the demotion cooldown (same content checksum as
    /// a recently demoted candidate) and an active probation all refuse.
    /// A mismatched function is a hard error.
    pub fn stage_candidate(&mut self, artifact: ModelArtifact) -> Result<Vec<LifecycleEvent>> {
        if artifact.function != self.function {
            return Err(NitroError::ModelMismatch {
                detail: format!(
                    "candidate is for '{}', promotion manages '{}'",
                    artifact.function, self.function
                ),
            });
        }
        if self.held {
            return Ok(vec![LifecycleEvent::Rejected {
                reason: "rollback storm hold is active (release_hold() to clear)".into(),
            }]);
        }
        if self.probation.is_some() {
            return Ok(vec![LifecycleEvent::Rejected {
                reason: "a promotion is still under probation".into(),
            }]);
        }
        let crc = artifact_crc(&artifact)?;
        if let Some((_, at)) = self.demoted.iter().find(|(c, _)| *c == crc) {
            if self.observations.saturating_sub(*at) < self.policy.demotion_cooldown {
                return Ok(vec![LifecycleEvent::Rejected {
                    reason: format!(
                        "content crc {crc:08x} was demoted {} observation(s) ago (cooldown {})",
                        self.observations - at,
                        self.policy.demotion_cooldown
                    ),
                }]);
            }
        }
        self.candidate = Some(Candidate {
            artifact,
            crc,
            staged_at: self.observations,
            incumbent_ledger: RegretLedger::default(),
            candidate_ledger: RegretLedger::default(),
        });
        self.note("stage", &format!("crc {crc:08x}"));
        Ok(vec![LifecycleEvent::Staged { crc }])
    }

    fn demote(&mut self, reason: String, diagnostic: Option<Diagnostic>) -> LifecycleEvent {
        if let Some(c) = self.candidate.take() {
            self.demoted.push((c.crc, self.observations));
            // Keep the cooldown list bounded.
            if self.demoted.len() > 32 {
                self.demoted.remove(0);
            }
        }
        self.note("demote", &reason);
        LifecycleEvent::Demoted { reason, diagnostic }
    }

    fn promote(&mut self, store: Option<&mut ArtifactStore>, note: &str) -> Result<LifecycleEvent> {
        let candidate = self.candidate.take().expect("promote requires a candidate");
        let version = match store {
            Some(s) => Some(s.publish(&candidate.artifact, note)?),
            None => None,
        };
        let prior = std::mem::replace(&mut self.incumbent, candidate.artifact);
        let prior_version = std::mem::replace(&mut self.incumbent_version, version);
        self.probation = Some(Probation {
            prior,
            prior_version,
            promoted_crc: candidate.crc,
            prior_ledger: RegretLedger::default(),
            current_ledger: RegretLedger::default(),
        });
        self.note("promote", note);
        Ok(LifecycleEvent::Promoted { version })
    }

    /// Operator override: promote the staged candidate immediately,
    /// skipping the rest of the shadow window (probation still applies —
    /// this is how chaos harnesses force a synthetic regression).
    pub fn promote_now(
        &mut self,
        store: Option<&mut ArtifactStore>,
    ) -> Result<Vec<LifecycleEvent>> {
        if self.held {
            return Ok(vec![LifecycleEvent::Rejected {
                reason: "rollback storm hold is active".into(),
            }]);
        }
        if self.candidate.is_none() {
            return Ok(vec![LifecycleEvent::Rejected {
                reason: "no candidate is staged".into(),
            }]);
        }
        Ok(vec![self.promote(store, "promote_now override")?])
    }

    /// Feed one observed call: the input's `label`, its feature vector
    /// and the full per-variant cost vector (ground truth). Advances
    /// shadow windows, probation, promotion, demotion and rollback;
    /// returns whatever happened.
    ///
    /// Cost vectors that are empty or non-finite are ignored by the
    /// ledgers, so fault-injected calls cannot poison a comparison.
    pub fn observe(
        &mut self,
        label: &str,
        features: &[f64],
        costs: &[f64],
        mut store: Option<&mut ArtifactStore>,
    ) -> Result<Vec<LifecycleEvent>> {
        let pulse_start = self
            .promotion_ns
            .as_ref()
            .map(|_| std::time::Instant::now());
        self.observations += 1;
        let mut events = Vec::new();

        if let Some(c) = &mut self.candidate {
            let inc_choice = self.incumbent.model.predict(features);
            let cand_choice = c.artifact.model.predict(features);
            c.incumbent_ledger.record(label, inc_choice, costs);
            c.candidate_ledger.record(label, cand_choice, costs);

            let observed = c.candidate_ledger.count;
            let age = self.observations - c.staged_at;
            if observed >= self.policy.shadow_window {
                let cand_mean = c.candidate_ledger.mean_chosen_cost();
                let inc_mean = c.incumbent_ledger.mean_chosen_cost();
                if cand_mean <= inc_mean * (1.0 + self.policy.tolerance) {
                    events.push(self.promote(
                        store.as_deref_mut(),
                        &format!("shadow window passed ({cand_mean:.4} vs {inc_mean:.4})"),
                    )?);
                } else {
                    events.push(self.demote(
                        format!(
                            "shadow window shows it worse ({cand_mean:.4} vs {inc_mean:.4}, tolerance {:.1}%)",
                            self.policy.tolerance * 100.0
                        ),
                        None,
                    ));
                }
            } else if age >= self.policy.max_candidate_age {
                let diag =
                    diag_stale_candidate(&self.function, observed, self.policy.shadow_window, age);
                events.push(self.demote("stale candidate".into(), Some(diag)));
            }
        } else if let Some(p) = &mut self.probation {
            let cur_choice = self.incumbent.model.predict(features);
            let prior_choice = p.prior.model.predict(features);
            p.current_ledger.record(label, cur_choice, costs);
            p.prior_ledger.record(label, prior_choice, costs);

            if p.current_ledger.count >= self.policy.probation_window {
                let cur_mean = p.current_ledger.mean_chosen_cost();
                let prior_mean = p.prior_ledger.mean_chosen_cost();
                if cur_mean > prior_mean * (1.0 + self.policy.probation_tolerance) {
                    events.extend(self.roll_back(cur_mean, prior_mean, store)?);
                } else {
                    self.probation = None;
                    events.push(LifecycleEvent::ProbationPassed);
                }
            }
        }
        if let (Some(sk), Some(start)) = (&self.promotion_ns, pulse_start) {
            sk.record(start.elapsed().as_nanos() as f64);
        }
        Ok(events)
    }

    /// Consume a pulse alert as an out-of-band regression signal,
    /// closing the observe→act loop.
    ///
    /// A paging [`nitro_pulse::AlertKind::LatencyRegression`] whose metric belongs to
    /// this function acts immediately, without waiting for a ledger
    /// window to fill:
    ///
    /// * under **probation**, the promotion is rolled back (`NITRO074`,
    ///   storm accounting included) — the watchdog saw the regression
    ///   before the regret ledger did;
    /// * while **shadowing**, the candidate is demoted — a function
    ///   already missing its latency SLO is no place to promote into.
    ///
    /// Warnings, rate breaches, other functions' alerts and the
    /// `Steady`/`Held` stages are ignored (empty event list).
    pub fn ingest_alert(
        &mut self,
        alert: &PulseAlert,
        store: Option<&mut ArtifactStore>,
    ) -> Result<Vec<LifecycleEvent>> {
        if !alert.is_page_latency_for(&self.function) {
            return Ok(Vec::new());
        }
        if let Some(p) = &self.probation {
            // Prefer the probation ledgers' means for the NITRO074
            // message; fall back to the alert's observed/threshold when
            // the window is still empty.
            let (cur, prior) = if p.current_ledger.count > 0 && p.prior_ledger.count > 0 {
                (
                    p.current_ledger.mean_chosen_cost(),
                    p.prior_ledger.mean_chosen_cost(),
                )
            } else {
                (alert.observed, alert.threshold)
            };
            return self.roll_back(cur, prior, store);
        }
        if self.candidate.is_some() {
            return Ok(vec![self.demote(
                format!(
                    "latency SLO '{}' paged on {}: {:.0} ns over threshold {:.0} ns",
                    alert.slo, alert.metric, alert.observed, alert.threshold
                ),
                None,
            )]);
        }
        Ok(Vec::new())
    }

    fn roll_back(
        &mut self,
        cur_mean: f64,
        prior_mean: f64,
        store: Option<&mut ArtifactStore>,
    ) -> Result<Vec<LifecycleEvent>> {
        let p = self.probation.take().expect("rollback requires probation");
        let diag = diag_rollback(
            &self.function,
            cur_mean,
            prior_mean,
            self.policy.probation_tolerance,
        );
        // Instant in-memory revert; the store pointer follows.
        self.incumbent = p.prior;
        self.incumbent_version = p.prior_version;
        if let (Some(s), Some(v)) = (store, p.prior_version) {
            s.rollback(v)?;
        }
        self.demoted.push((p.promoted_crc, self.observations));
        self.rollbacks += 1;
        self.note("rollback", &diag.message);
        let mut events = vec![LifecycleEvent::RolledBack {
            to: p.prior_version,
            diagnostic: diag,
        }];
        if self.rollbacks >= self.policy.storm_threshold {
            self.held = true;
            let diag =
                diag_rollback_storm(&self.function, self.rollbacks, self.policy.storm_threshold);
            self.note("hold", &diag.message);
            events.push(LifecycleEvent::Held { diagnostic: diag });
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_core::context::temp_model_dir;
    use nitro_core::{TuningPolicy, MODEL_SCHEMA_VERSION};
    use nitro_ml::{ClassifierConfig, Dataset, TrainedModel};

    /// A model that (given the 1-feature toy data) predicts class 0
    /// below `split` and class 1 above it.
    fn split_model(function: &str, split: f64) -> ModelArtifact {
        let data = Dataset::from_parts(
            vec![
                vec![split - 2.0],
                vec![split - 1.0],
                vec![split + 1.0],
                vec![split + 2.0],
            ],
            vec![0, 0, 1, 1],
        );
        let model = TrainedModel::train(&ClassifierConfig::Knn { k: 1 }, &data);
        ModelArtifact {
            schema_version: MODEL_SCHEMA_VERSION,
            function: function.into(),
            variant_names: vec!["a".into(), "b".into()],
            feature_names: vec!["x".into()],
            policy: TuningPolicy::default(),
            model,
        }
    }

    fn quick_policy() -> PromotionPolicy {
        PromotionPolicy {
            shadow_window: 4,
            tolerance: 0.05,
            probation_window: 4,
            probation_tolerance: 0.10,
            max_candidate_age: 10,
            demotion_cooldown: 5,
            storm_threshold: 2,
        }
    }

    /// Cost vectors where variant 0 is always cheapest: a model that
    /// predicts 0 everywhere is "good", one that predicts 1 is "bad".
    const COSTS: [f64; 2] = [1.0, 2.0];

    /// good model: split far right, every feature below it → class 0.
    fn good(function: &str) -> ModelArtifact {
        split_model(function, 100.0)
    }

    /// bad model: split far left, every feature above it → class 1.
    fn bad(function: &str) -> ModelArtifact {
        split_model(function, -100.0)
    }

    fn drive(
        sp: &mut StagedPromotion,
        n: u64,
        store: Option<&mut ArtifactStore>,
    ) -> Vec<LifecycleEvent> {
        let mut store = store;
        let mut all = Vec::new();
        for i in 0..n {
            let evs = sp
                .observe(&format!("obs{i}"), &[0.0], &COSTS, store.as_deref_mut())
                .unwrap();
            all.extend(evs);
        }
        all
    }

    #[test]
    fn no_worse_candidate_is_promoted_and_passes_probation() {
        let mut sp = StagedPromotion::new(good("toy"), quick_policy());
        let evs = sp.stage_candidate(good("toy")).unwrap();
        assert!(matches!(evs[0], LifecycleEvent::Staged { .. }));
        assert_eq!(sp.stage(), PromotionStage::Shadowing);
        let evs = drive(&mut sp, 4, None);
        assert!(
            matches!(evs[0], LifecycleEvent::Promoted { version: None }),
            "{evs:?}"
        );
        assert_eq!(sp.stage(), PromotionStage::Probation);
        let evs = drive(&mut sp, 4, None);
        assert!(evs.contains(&LifecycleEvent::ProbationPassed), "{evs:?}");
        assert_eq!(sp.stage(), PromotionStage::Steady);
        assert_eq!(sp.rollbacks(), 0);
    }

    #[test]
    fn worse_candidate_is_demoted_and_cooldown_blocks_restaging() {
        let mut sp = StagedPromotion::new(good("toy"), quick_policy());
        sp.stage_candidate(bad("toy")).unwrap();
        let evs = drive(&mut sp, 4, None);
        assert!(
            matches!(&evs[0], LifecycleEvent::Demoted { reason, .. } if reason.contains("worse")),
            "{evs:?}"
        );
        // The incumbent never changed.
        assert_eq!(sp.predict(&[0.0]), 0);
        // Restaging the identical artifact inside the cooldown is refused.
        let evs = sp.stage_candidate(bad("toy")).unwrap();
        assert!(
            matches!(&evs[0], LifecycleEvent::Rejected { reason } if reason.contains("demoted"))
        );
        // A *different* artifact stages fine.
        let evs = sp.stage_candidate(good("toy")).unwrap();
        assert!(matches!(evs[0], LifecycleEvent::Staged { .. }));
    }

    #[test]
    fn stale_candidate_gets_nitro073() {
        let mut sp = StagedPromotion::new(good("toy"), quick_policy());
        sp.stage_candidate(good("toy")).unwrap();
        // Feed only unusable cost vectors: ledgers never fill, age grows.
        let mut evs = Vec::new();
        for i in 0..10 {
            evs.extend(sp.observe(&format!("o{i}"), &[0.0], &[], None).unwrap());
        }
        let demoted = evs
            .iter()
            .find_map(|e| match e {
                LifecycleEvent::Demoted { diagnostic, .. } => diagnostic.as_ref(),
                _ => None,
            })
            .expect("stale demotion");
        assert_eq!(demoted.code, "NITRO073");
        assert_eq!(sp.stage(), PromotionStage::Steady);
    }

    #[test]
    fn regression_rolls_back_automatically_with_store() {
        let root = temp_model_dir("promote-rollback").unwrap();
        let mut store = ArtifactStore::open(&root, "toy").unwrap();
        let v1 = store.publish(&good("toy"), "tune").unwrap();
        let mut sp = StagedPromotion::new(good("toy"), quick_policy());
        sp.set_incumbent_version(Some(v1));

        sp.stage_candidate(bad("toy")).unwrap();
        // Operator override pushes the bad model straight in — the shadow
        // window would (correctly) have blocked it.
        let evs = sp.promote_now(Some(&mut store)).unwrap();
        assert!(
            matches!(evs[0], LifecycleEvent::Promoted { version: Some(2) }),
            "{evs:?}"
        );
        assert_eq!(store.latest(), Some(2));
        assert_eq!(sp.predict(&[0.0]), 1, "bad model is serving");

        let evs = drive(&mut sp, 4, Some(&mut store));
        let rb = evs
            .iter()
            .find_map(|e| match e {
                LifecycleEvent::RolledBack { to, diagnostic } => Some((to, diagnostic)),
                _ => None,
            })
            .expect("auto-rollback");
        assert_eq!(*rb.0, Some(v1));
        assert_eq!(rb.1.code, "NITRO074");
        assert_eq!(store.latest(), Some(v1), "store pointer moved back");
        assert_eq!(sp.predict(&[0.0]), 0, "prior incumbent restored");
        assert_eq!(sp.rollbacks(), 1);
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn rollback_storm_holds_promotions_until_released() {
        let mut sp = StagedPromotion::new(good("toy"), quick_policy());
        let mut held = Vec::new();
        for round in 0..2 {
            // Vary the artifact each round so the cooldown doesn't block
            // restaging (split position changes the serialized bytes).
            sp.stage_candidate(split_model("toy", -100.0 - round as f64))
                .unwrap();
            sp.promote_now(None).unwrap();
            held.extend(drive(&mut sp, 4, None));
        }
        assert_eq!(sp.rollbacks(), 2);
        assert!(sp.is_held());
        let storm = held
            .iter()
            .find_map(|e| match e {
                LifecycleEvent::Held { diagnostic } => Some(diagnostic),
                _ => None,
            })
            .expect("storm breaker");
        assert_eq!(storm.code, "NITRO075");
        // Held: staging is refused.
        let evs = sp.stage_candidate(good("toy")).unwrap();
        assert!(matches!(&evs[0], LifecycleEvent::Rejected { reason } if reason.contains("storm")));
        sp.release_hold();
        assert_eq!(sp.rollbacks(), 0);
        let evs = sp.stage_candidate(good("toy")).unwrap();
        assert!(matches!(evs[0], LifecycleEvent::Staged { .. }));
    }

    #[test]
    fn staging_during_probation_is_rejected_and_metrics_flow() {
        let sink = std::sync::Arc::new(nitro_trace::RingSink::new(64));
        let tracer = nitro_trace::Tracer::new(sink);
        let mut sp = StagedPromotion::new(good("toy"), quick_policy());
        sp.attach_tracer(tracer.clone());
        sp.stage_candidate(good("toy")).unwrap();
        drive(&mut sp, 4, None); // promoted, probation opens
        let evs = sp.stage_candidate(good("toy")).unwrap();
        assert!(
            matches!(&evs[0], LifecycleEvent::Rejected { reason } if reason.contains("probation"))
        );
        let m = tracer.metrics();
        assert_eq!(m.counter_value("deploy.toy.stage"), Some(1));
        assert_eq!(m.counter_value("deploy.toy.promote"), Some(1));
        assert_eq!(m.counter_value("deploy.toy.rollback"), Some(0));
    }

    #[test]
    fn mismatched_function_is_a_hard_error() {
        let mut sp = StagedPromotion::new(good("toy"), quick_policy());
        assert!(sp.stage_candidate(good("other")).is_err());
    }

    fn page_alert(function: &str) -> nitro_pulse::PulseAlert {
        nitro_pulse::PulseAlert {
            slo: format!("{function}-dispatch-p99"),
            kind: nitro_pulse::AlertKind::LatencyRegression,
            severity: nitro_pulse::AlertSeverity::Page,
            metric: format!("dispatch.{function}.latency_ns"),
            observed: 5.0e6,
            threshold: 1.0e6,
            window_ticks: 4,
        }
    }

    #[test]
    fn latency_alert_rolls_back_probation_immediately() {
        let mut sp = StagedPromotion::new(good("toy"), quick_policy());
        sp.stage_candidate(good("toy")).unwrap();
        drive(&mut sp, 4, None); // promoted, probation opens
        assert_eq!(sp.stage(), PromotionStage::Probation);
        // The watchdog pages before the probation window fills.
        let evs = sp.ingest_alert(&page_alert("toy"), None).unwrap();
        assert!(
            matches!(&evs[0], LifecycleEvent::RolledBack { diagnostic, .. }
                if diagnostic.code == "NITRO074"),
            "{evs:?}"
        );
        assert_eq!(sp.stage(), PromotionStage::Steady);
        assert_eq!(sp.rollbacks(), 1);
    }

    #[test]
    fn latency_alert_demotes_a_shadowing_candidate() {
        let mut sp = StagedPromotion::new(good("toy"), quick_policy());
        sp.stage_candidate(good("toy")).unwrap();
        assert_eq!(sp.stage(), PromotionStage::Shadowing);
        let evs = sp.ingest_alert(&page_alert("toy"), None).unwrap();
        assert!(
            matches!(&evs[0], LifecycleEvent::Demoted { reason, .. } if reason.contains("SLO")),
            "{evs:?}"
        );
        assert_eq!(sp.stage(), PromotionStage::Steady);
    }

    #[test]
    fn irrelevant_alerts_are_ignored() {
        let mut sp = StagedPromotion::new(good("toy"), quick_policy());
        sp.stage_candidate(good("toy")).unwrap();

        // Another function's regression.
        assert!(sp
            .ingest_alert(&page_alert("other"), None)
            .unwrap()
            .is_empty());
        // A warning-severity alert.
        let mut warn = page_alert("toy");
        warn.severity = nitro_pulse::AlertSeverity::Warn;
        assert!(sp.ingest_alert(&warn, None).unwrap().is_empty());
        // A rate breach.
        let mut rate = page_alert("toy");
        rate.kind = nitro_pulse::AlertKind::RateBreach;
        assert!(sp.ingest_alert(&rate, None).unwrap().is_empty());

        assert_eq!(sp.stage(), PromotionStage::Shadowing, "candidate untouched");
    }

    #[test]
    fn attach_pulse_times_observations_into_a_sketch() {
        let registry = nitro_trace::MetricsRegistry::with_stripes(2);
        let mut sp = StagedPromotion::new(good("toy"), quick_policy());
        sp.attach_pulse(&registry);
        sp.stage_candidate(good("toy")).unwrap();
        drive(&mut sp, 3, None);
        let sk = registry
            .fused_sketch("store.toy.promotion_ns")
            .expect("sketch registered");
        assert_eq!(sk.count(), 3);
        assert!(sk.max() >= 0.0);
    }
}
