//! Tuning policies: the per-function configuration of Table II.
//!
//! The paper's Python tuning script sets options like
//! `spmv.classifier = svm_classifier()` or
//! `spmv.parallel_feature_evaluation = False` and writes them into a
//! generated header consumed by the C++ library. In Rust the same options
//! live in a plain struct attached to each `CodeVariant`, and persist as
//! JSON alongside trained models.

use nitro_ml::ClassifierConfig;
use serde::{Deserialize, Serialize};

use crate::variant::Objective;

/// Stopping rule for incremental (active-learning) tuning — the paper's
/// `itune(iter | acc)` option in Table II.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StoppingCriterion {
    /// Stop after a fixed number of BvSB queries ("useful when the number
    /// of training inputs is too large for Nitro to evaluate").
    Iterations(usize),
    /// Stop once prediction accuracy on a labeled test set reaches this
    /// threshold (requires known test labels, §III-B).
    Accuracy(f64),
}

/// Per-function tuning configuration (paper Table II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningPolicy {
    /// Which model family to fit (`classifier` in Table II). Default: RBF
    /// SVM with cross-validated parameter search.
    pub classifier: ClassifierConfig,
    /// Honour registered constraints (`constraints` in Table II). When
    /// `false`, constraints are ignored both offline and online.
    pub constraints: bool,
    /// Evaluate feature functions in parallel (`parallel_feature_evaluation`;
    /// the paper implements this with Intel TBB, we use rayon).
    pub parallel_feature_evaluation: bool,
    /// Allow asynchronous feature evaluation via `fix_inputs`
    /// (`async_feature_eval`).
    pub async_feature_eval: bool,
    /// Restrict the model to a subset of registered features (by index,
    /// in registration order). `None` uses all features. This is the knob
    /// behind the paper's Figure-8 feature-pruning study.
    pub feature_subset: Option<Vec<usize>>,
    /// Direction of the objective the variants return.
    pub objective: Objective,
    /// Incremental-tuning stopping rule; `None` trains on the full
    /// training set (no active learning).
    pub incremental: Option<StoppingCriterion>,
}

impl Default for TuningPolicy {
    fn default() -> Self {
        Self {
            classifier: ClassifierConfig::default(),
            constraints: true,
            parallel_feature_evaluation: false,
            async_feature_eval: false,
            feature_subset: None,
            objective: Objective::Minimize,
            incremental: None,
        }
    }
}

impl TuningPolicy {
    /// The active feature indices under this policy, given the number of
    /// registered features: either the configured subset (invalid indices
    /// dropped) or all of them.
    pub fn active_features(&self, n_features: usize) -> Vec<usize> {
        self.active_feature_indices(n_features).collect()
    }

    /// [`TuningPolicy::active_features`] without collecting them, for
    /// the dispatch path, which must not allocate an index list per call.
    pub(crate) fn active_feature_indices(
        &self,
        n_features: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        let (all, subset) = match self.feature_subset.as_deref() {
            Some(subset) => (0..0, subset),
            None => (0..n_features, &[][..]),
        };
        all.chain(subset.iter().copied().filter(move |&i| i < n_features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_defaults() {
        let p = TuningPolicy::default();
        assert_eq!(p.classifier, ClassifierConfig::default());
        assert!(p.constraints);
        assert!(!p.parallel_feature_evaluation);
        assert!(!p.async_feature_eval);
        assert_eq!(p.objective, Objective::Minimize);
        assert!(p.incremental.is_none());
    }

    #[test]
    fn active_features_defaults_to_all() {
        let p = TuningPolicy::default();
        assert_eq!(p.active_features(3), vec![0, 1, 2]);
    }

    #[test]
    fn active_features_filters_invalid_indices() {
        let p = TuningPolicy {
            feature_subset: Some(vec![2, 0, 9]),
            ..Default::default()
        };
        assert_eq!(p.active_features(3), vec![2, 0]);
    }

    #[test]
    fn serde_round_trip() {
        let p = TuningPolicy {
            incremental: Some(StoppingCriterion::Iterations(25)),
            feature_subset: Some(vec![0, 1]),
            ..Default::default()
        };
        let j = serde_json::to_string(&p).unwrap();
        let back: TuningPolicy = serde_json::from_str(&j).unwrap();
        assert_eq!(p, back);
    }
}
