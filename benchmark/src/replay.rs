//! Replay registrations: a tuned suite with its kernels taken out.
//!
//! A replay registration keeps the suite's trained model, default
//! variant, variant and feature names and its real constraint verdicts,
//! but its inputs are indices into the profiled test set: each feature
//! returns the value recorded for that input, and each variant returns
//! the objective recorded when the test set was profiled. The kernels
//! then cost nearly nothing, so a call through the registration measures
//! the dispatch machinery around them.

use std::sync::Arc;

use nitro_core::{
    CodeVariant, Context, FnConstraint, FnFeature, FnVariant, TrainedModel, TuningPolicy,
};
use nitro_tuner::ProfileTable;

/// `permitted[input][variant]`: whether every constraint on the variant
/// accepts the real input. Unlike [`ProfileTable::allowed`], which also
/// marks variants that failed while profiling, this is exactly what
/// dispatch consults.
pub fn permitted<I>(cv: &CodeVariant<I>, inputs: &[I]) -> Vec<Vec<bool>> {
    inputs
        .iter()
        .map(|input| {
            (0..cv.n_variants())
                .map(|v| cv.constraints_satisfied(v, input))
                .collect()
        })
        .collect()
}

/// The recorded test set a replay registration reads.
#[derive(Debug)]
struct Recorded {
    features: Vec<Vec<f64>>,
    costs: Vec<Vec<f64>>,
    permitted: Vec<Vec<bool>>,
}

/// Everything needed to build replay registrations of one tuned suite.
/// Cheap to share: each [`Replay::registration`] reads the same record.
#[derive(Debug)]
pub struct Replay {
    name: String,
    variant_names: Vec<String>,
    feature_names: Vec<String>,
    policy: TuningPolicy,
    default_variant: Option<usize>,
    model: TrainedModel,
    veto_targets: Vec<usize>,
    recorded: Arc<Recorded>,
}

impl Replay {
    /// Record a tuned registration's test set. `table` must be the
    /// profile of `inputs` under `cv`; the model is the one `cv` has
    /// installed.
    ///
    /// # Panics
    /// Panics if `cv` has no model or the table does not match the inputs.
    pub fn new<I>(cv: &CodeVariant<I>, inputs: &[I], table: &ProfileTable) -> Self {
        assert_eq!(table.len(), inputs.len(), "one profile row per input");
        assert_eq!(table.variant_names, cv.variant_names(), "same variants");
        let mut veto_targets = cv.constraint_targets();
        veto_targets.sort_unstable();
        veto_targets.dedup();
        let mut policy = cv.policy().clone();
        // The table already holds the active feature subset.
        policy.feature_subset = None;
        Self {
            name: cv.name().to_string(),
            variant_names: table.variant_names.clone(),
            feature_names: table.feature_names.clone(),
            policy,
            default_variant: cv.default_variant(),
            model: cv.model().expect("a tuned registration").clone(),
            veto_targets,
            recorded: Arc::new(Recorded {
                features: table.features.clone(),
                costs: table.costs.clone(),
                permitted: permitted(cv, inputs),
            }),
        }
    }

    /// Number of recorded inputs (valid inputs are `0..len()`).
    pub fn len(&self) -> usize {
        self.recorded.costs.len()
    }

    /// A fresh registration over the record, with the model installed.
    pub fn registration(&self) -> CodeVariant<usize> {
        let mut cv = CodeVariant::new(self.name.clone(), &Context::new());
        for (v, name) in self.variant_names.iter().enumerate() {
            let rec = Arc::clone(&self.recorded);
            cv.add_variant(FnVariant::new(name.clone(), move |&i: &usize| {
                rec.costs[i][v]
            }));
        }
        if let Some(d) = self.default_variant {
            cv.set_default(d);
        }
        for (j, name) in self.feature_names.iter().enumerate() {
            let rec = Arc::clone(&self.recorded);
            cv.add_input_feature(FnFeature::new(name.clone(), move |&i: &usize| {
                rec.features[i][j]
            }));
        }
        for &v in &self.veto_targets {
            let rec = Arc::clone(&self.recorded);
            cv.add_constraint(
                v,
                FnConstraint::new(format!("replayed-veto-{v}"), move |&i: &usize| {
                    rec.permitted[i][v]
                }),
            )
            .expect("veto targets are registered variants");
        }
        *cv.policy_mut() = self.policy.clone();
        cv.install_model(self.model.clone());
        cv
    }
}

#[cfg(test)]
mod tests {
    use crate::setup::{tune_suite, SUITES};

    /// On every suite, a replay registration selects what the live
    /// registration selects, and returns the recorded objective.
    #[test]
    fn replay_matches_live_dispatch_on_all_suites() {
        for &suite in SUITES {
            let mut tuned = tune_suite(suite, true).expect("small suite tunes");
            let replay = tuned.replay();
            let mut reg = replay.registration();
            for i in 0..replay.len() {
                let live = tuned.dispatch.call(i).expect("live call");
                let rep = reg.call(&i).expect("replay call");
                assert_eq!(live.variant, rep.variant, "{suite:?} input {i}: selection");
                let recorded = tuned.table.costs[i][rep.variant];
                assert_eq!(
                    rep.objective.to_bits(),
                    recorded.to_bits(),
                    "{suite:?} input {i}: objective"
                );
            }
        }
    }
}
