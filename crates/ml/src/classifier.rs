//! The unified classifier interface consumed by the rest of Nitro.
//!
//! [`ClassifierConfig`] is the declarative knob exposed through the tuning
//! interface (Table II's `classifier` option — the paper's example script
//! sets `spmv.classifier = svm_classifier()`); [`TrainedModel`] is the
//! fitted artifact installed into a `code_variant` and persisted to disk.
//! Feature scaling to `[-1, 1]` happens inside the model, so callers
//! always pass raw feature vectors.

use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::forest::{ForestModel, ForestParams};
use crate::grid::{GridResult, GridSearch};
use crate::kernel::Kernel;
use crate::knn::KnnModel;
use crate::scale::Scaler;
use crate::svm::compiled::{rank_by_posterior, SvmScratch};
use crate::svm::multiclass::{SvmModel, SvmTrainStats};
use crate::svm::smo::SmoParams;
use crate::tree::{TreeModel, TreeParams};

/// Which learning algorithm the autotuner should fit, with its options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClassifierConfig {
    /// RBF-kernel SVM — the paper's default.
    Svm {
        /// Fixed C; `None` lets grid search decide.
        c: Option<f64>,
        /// Fixed γ; `None` lets grid search decide (or uses `1/dim` when
        /// grid search is disabled).
        gamma: Option<f64>,
        /// Run cross-validated grid search for unspecified parameters.
        grid_search: bool,
        /// Byte budget for the SMO kernel-column cache on the final fit;
        /// `None` uses [`SmoParams`]'s default (32 MiB). Absent from
        /// older serialized policies, hence the serde default.
        #[serde(default)]
        cache_bytes: Option<usize>,
    },
    /// k-nearest neighbours.
    Knn {
        /// Neighbour count.
        k: usize,
    },
    /// CART decision tree.
    Tree(TreeParams),
    /// Bagged random forest.
    Forest(ForestParams),
}

impl Default for ClassifierConfig {
    /// The paper's default: SVM with RBF kernel and CV grid search.
    fn default() -> Self {
        ClassifierConfig::Svm {
            c: None,
            gamma: None,
            grid_search: true,
            cache_bytes: None,
        }
    }
}

impl ClassifierConfig {
    /// Short human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ClassifierConfig::Svm { .. } => "svm",
            ClassifierConfig::Knn { .. } => "knn",
            ClassifierConfig::Tree(_) => "tree",
            ClassifierConfig::Forest(_) => "forest",
        }
    }
}

/// A fitted, serializable variant-selection model.
// The `Svm` variant carries the lazily-compiled fast path inline; models
// are few and long-lived, so the size skew is irrelevant and boxing would
// only add a pointer chase to the dispatch hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrainedModel {
    /// Scaled SVM with the hyper-parameters it was trained at.
    Svm {
        /// The scaler fitted on training features.
        scaler: Scaler,
        /// The one-vs-one ensemble.
        model: SvmModel,
        /// Box constraint used.
        c: f64,
        /// RBF width used.
        gamma: f64,
        /// CV accuracy from grid search (`None` without grid search).
        cv_accuracy: Option<f64>,
    },
    /// Scaled kNN.
    Knn {
        /// The scaler fitted on training features.
        scaler: Scaler,
        /// The memorized model.
        model: KnnModel,
    },
    /// Decision tree (scale-invariant, no scaler needed).
    Tree {
        /// The grown tree.
        model: TreeModel,
    },
    /// Random forest (scale-invariant).
    Forest {
        /// The trained ensemble.
        model: ForestModel,
    },
}

/// Reusable buffers for [`TrainedModel::predict_into`] and
/// [`TrainedModel::predict_rank_into`]: the scaled feature vector plus
/// the compiled-SVM scratch. One instance per dispatch site makes
/// steady-state prediction allocation-free.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    scaled: Vec<f64>,
    svm: SvmScratch,
}

impl PredictScratch {
    /// Kernel evaluations accumulated since the last call, resetting the
    /// counter — the dispatch path drains this into the
    /// `ml.predict.kernel_evals` metric.
    pub fn take_kernel_evals(&mut self) -> u64 {
        let v = self.svm.kernel_evals;
        self.svm.kernel_evals = 0;
        v
    }
}

impl TrainedModel {
    /// Fit the configured classifier on raw (unscaled) training data.
    ///
    /// # Panics
    /// Panics if `data` is empty.
    pub fn train(config: &ClassifierConfig, data: &Dataset) -> Self {
        Self::train_with_stats(config, data).0
    }

    /// Fit the configured classifier, additionally reporting SVM solver
    /// statistics (kernel evaluations, cache behaviour, support-vector
    /// compression) for the final fit. `None` for non-SVM models; grid
    /// search's cross-validation solves are not counted.
    ///
    /// # Panics
    /// Panics if `data` is empty.
    pub fn train_with_stats(
        config: &ClassifierConfig,
        data: &Dataset,
    ) -> (Self, Option<SvmTrainStats>) {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        match config {
            ClassifierConfig::Svm {
                c,
                gamma,
                grid_search,
                cache_bytes,
            } => {
                let scaler = Scaler::fit(&data.x);
                let scaled = Dataset {
                    x: scaler.transform_all(&data.x),
                    y: data.y.clone(),
                    n_classes: data.n_classes,
                };
                let default_gamma = 1.0 / data.dim().max(1) as f64;
                let (c_used, gamma_used, cv_acc) = match (c, gamma, grid_search) {
                    (Some(c), Some(g), _) => (*c, *g, None),
                    (_, _, false) => (c.unwrap_or(1.0), gamma.unwrap_or(default_gamma), None),
                    _ => {
                        let mut grid = GridSearch::default();
                        if let Some(c) = c {
                            grid.c_values = vec![*c];
                        }
                        if let Some(g) = gamma {
                            grid.gamma_values = vec![*g];
                        }
                        let GridResult {
                            c,
                            gamma,
                            cv_accuracy,
                        } = grid.search(&scaled);
                        (c, gamma, Some(cv_accuracy))
                    }
                };
                let mut smo = SmoParams {
                    c: c_used,
                    ..Default::default()
                };
                if let Some(bytes) = cache_bytes {
                    smo.cache_bytes = *bytes;
                }
                let (model, stats) =
                    SvmModel::train_with_stats(&scaled, Kernel::Rbf { gamma: gamma_used }, &smo);
                (
                    TrainedModel::Svm {
                        scaler,
                        model,
                        c: c_used,
                        gamma: gamma_used,
                        cv_accuracy: cv_acc,
                    },
                    Some(stats),
                )
            }
            ClassifierConfig::Knn { k } => {
                let scaler = Scaler::fit(&data.x);
                let scaled = Dataset {
                    x: scaler.transform_all(&data.x),
                    y: data.y.clone(),
                    n_classes: data.n_classes,
                };
                (
                    TrainedModel::Knn {
                        scaler,
                        model: KnnModel::train(&scaled, *k),
                    },
                    None,
                )
            }
            ClassifierConfig::Tree(params) => (
                TrainedModel::Tree {
                    model: TreeModel::train(data, params),
                },
                None,
            ),
            ClassifierConfig::Forest(params) => (
                TrainedModel::Forest {
                    model: ForestModel::train(data, params),
                },
                None,
            ),
        }
    }

    /// Predict the best variant (class) for a raw feature vector.
    ///
    /// SVM models serve the compiled engine (bit-identical to the
    /// reference path, each unique kernel value computed once).
    pub fn predict(&self, features: &[f64]) -> usize {
        match self {
            TrainedModel::Svm { scaler, model, .. } => {
                model.compiled().predict(&scaler.transform(features))
            }
            TrainedModel::Knn { scaler, model } => model.predict(&scaler.transform(features)),
            TrainedModel::Tree { model } => model.predict(features),
            TrainedModel::Forest { model } => model.predict(features),
        }
    }

    /// Predict using caller-provided scratch buffers: the zero-allocation
    /// dispatch hot path. Identical results to [`TrainedModel::predict`];
    /// non-SVM models fall back to their (allocating) predict.
    pub fn predict_into(&self, features: &[f64], scratch: &mut PredictScratch) -> usize {
        match self {
            TrainedModel::Svm { scaler, model, .. } => {
                scaler.transform_into(features, &mut scratch.scaled);
                model
                    .compiled()
                    .predict_with(&scratch.scaled, &mut scratch.svm)
            }
            _ => self.predict(features),
        }
    }

    /// Class posterior for a raw feature vector.
    pub fn probabilities(&self, features: &[f64]) -> Vec<f64> {
        match self {
            TrainedModel::Svm { scaler, model, .. } => {
                model.compiled().probabilities(&scaler.transform(features))
            }
            TrainedModel::Knn { scaler, model } => model.probabilities(&scaler.transform(features)),
            TrainedModel::Tree { model } => model.probabilities(features),
            TrainedModel::Forest { model } => model.probabilities(features),
        }
    }

    /// Classes ordered from most to least probable for a raw feature
    /// vector (ties break toward the lower class index). The first entry
    /// is the posterior argmax; resilient dispatch walks the rest as its
    /// fallback order when preferred variants are unavailable.
    pub fn rank(&self, features: &[f64]) -> Vec<usize> {
        let mut order = Vec::new();
        rank_by_posterior(&self.probabilities(features), &mut order);
        order
    }

    /// Predict and rank in one model evaluation: returns what
    /// [`TrainedModel::predict_into`] returns and writes what
    /// [`TrainedModel::rank`] returns into `ranked`, bit-identically. SVM
    /// models scale the input once and run one kernel pass, allocating
    /// nothing at steady state; non-SVM models call both.
    pub fn predict_rank_into(
        &self,
        features: &[f64],
        scratch: &mut PredictScratch,
        ranked: &mut Vec<usize>,
    ) -> usize {
        match self {
            TrainedModel::Svm { scaler, model, .. } => {
                scaler.transform_into(features, &mut scratch.scaled);
                model
                    .compiled()
                    .predict_rank_with(&scratch.scaled, &mut scratch.svm, ranked)
            }
            _ => {
                *ranked = self.rank(features);
                self.predict(features)
            }
        }
    }

    /// Best-vs-Second-Best margin (small = uncertain), the active-learning
    /// query criterion.
    pub fn bvsb_margin(&self, features: &[f64]) -> f64 {
        let mut p = self.probabilities(features);
        p.sort_by(|a, b| b.partial_cmp(a).unwrap());
        match (p.first(), p.get(1)) {
            (Some(best), Some(second)) => best - second,
            (Some(_), None) => 1.0,
            _ => 0.0,
        }
    }

    /// Accuracy over a raw labeled dataset.
    pub fn accuracy_on(&self, data: &Dataset) -> f64 {
        let preds: Vec<usize> = data.x.iter().map(|x| self.predict(x)).collect();
        data.accuracy(&preds)
    }

    /// The class labels this model can emit, sorted and deduped — the
    /// feed for the whole-configuration model-label exhaustiveness
    /// analysis (NITRO086).
    ///
    /// * SVM: the classes present in training (pairwise voting and the
    ///   majority fallback only ever produce those).
    /// * kNN: the distinct memorized labels (neighbour votes can only
    ///   elect a stored label).
    /// * Tree: the argmax class of each leaf (exact).
    /// * Forest: the union of member trees' leaf winners (a superset of
    ///   what the averaged vote can produce).
    pub fn emittable_classes(&self) -> Vec<usize> {
        match self {
            TrainedModel::Svm { model, .. } => {
                let mut out: Vec<usize> = model
                    .present()
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &p)| p.then_some(i))
                    .collect();
                if out.is_empty() {
                    out.push(model.fallback());
                }
                out
            }
            TrainedModel::Knn { model, .. } => {
                let mut out = model.labels().to_vec();
                out.sort_unstable();
                out.dedup();
                out
            }
            TrainedModel::Tree { model } => model.leaf_classes(),
            TrainedModel::Forest { model } => model.leaf_classes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clusters with wildly different feature magnitudes, so scaling is
    /// load-bearing.
    fn skewed_clusters() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..12 {
            let j = i as f64 * 0.01;
            d.push(vec![1_000_000.0 + j * 1e4, 0.001 + j * 1e-4], 0);
            d.push(vec![2_000_000.0 + j * 1e4, 0.002 + j * 1e-4], 1);
        }
        d
    }

    #[test]
    fn svm_without_grid_search_learns_clusters() {
        let d = skewed_clusters();
        let m = TrainedModel::train(
            &ClassifierConfig::Svm {
                c: Some(10.0),
                gamma: Some(1.0),
                grid_search: false,
                cache_bytes: None,
            },
            &d,
        );
        assert!(m.accuracy_on(&d) > 0.95);
    }

    #[test]
    fn svm_grid_search_records_cv_accuracy() {
        let d = skewed_clusters();
        let m = TrainedModel::train(&ClassifierConfig::default(), &d);
        match m {
            TrainedModel::Svm {
                cv_accuracy: Some(acc),
                ..
            } => assert!(acc > 0.8, "cv {acc}"),
            other => panic!("expected grid-searched SVM, got {other:?}"),
        }
    }

    #[test]
    fn knn_and_tree_learn_clusters() {
        let d = skewed_clusters();
        for config in [
            ClassifierConfig::Knn { k: 3 },
            ClassifierConfig::Tree(TreeParams::default()),
        ] {
            let m = TrainedModel::train(&config, &d);
            assert!(m.accuracy_on(&d) > 0.95, "{} failed", config.name());
        }
    }

    #[test]
    fn probabilities_are_distributions_for_all_models() {
        let d = skewed_clusters();
        for config in [
            ClassifierConfig::Svm {
                c: Some(1.0),
                gamma: Some(0.5),
                grid_search: false,
                cache_bytes: None,
            },
            ClassifierConfig::Knn { k: 3 },
            ClassifierConfig::Tree(TreeParams::default()),
        ] {
            let m = TrainedModel::train(&config, &d);
            let p = m.probabilities(&d.x[0]);
            assert!(
                (p.iter().sum::<f64>() - 1.0).abs() < 1e-6,
                "{}",
                config.name()
            );
        }
    }

    #[test]
    fn bvsb_margin_in_unit_interval() {
        let d = skewed_clusters();
        let m = TrainedModel::train(&ClassifierConfig::Knn { k: 5 }, &d);
        for x in &d.x {
            let margin = m.bvsb_margin(x);
            assert!((0.0..=1.0).contains(&margin));
        }
    }

    #[test]
    fn rank_is_a_permutation_ordered_by_posterior() {
        let d = skewed_clusters();
        for config in [
            ClassifierConfig::Svm {
                c: Some(1.0),
                gamma: Some(0.5),
                grid_search: false,
                cache_bytes: None,
            },
            ClassifierConfig::Knn { k: 3 },
            ClassifierConfig::Tree(TreeParams::default()),
        ] {
            let m = TrainedModel::train(&config, &d);
            for x in &d.x {
                let order = m.rank(x);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0, 1], "{} not a permutation", config.name());
                let p = m.probabilities(x);
                assert!(
                    p[order[0]] >= p[order[1]],
                    "{} rank not descending",
                    config.name()
                );
            }
        }
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let d = skewed_clusters();
        let m = TrainedModel::train(
            &ClassifierConfig::Svm {
                c: Some(1.0),
                gamma: Some(0.5),
                grid_search: false,
                cache_bytes: None,
            },
            &d,
        );
        let j = serde_json::to_string(&m).unwrap();
        let back: TrainedModel = serde_json::from_str(&j).unwrap();
        for x in &d.x {
            assert_eq!(m.predict(x), back.predict(x));
        }
    }

    #[test]
    fn config_default_is_svm_with_grid_search() {
        assert_eq!(
            ClassifierConfig::default(),
            ClassifierConfig::Svm {
                c: None,
                gamma: None,
                grid_search: true,
                cache_bytes: None,
            }
        );
    }

    #[test]
    fn predict_into_matches_predict_without_allocating() {
        let d = skewed_clusters();
        let m = TrainedModel::train(
            &ClassifierConfig::Svm {
                c: Some(1.0),
                gamma: Some(0.5),
                grid_search: false,
                cache_bytes: None,
            },
            &d,
        );
        let mut scratch = PredictScratch::default();
        for x in &d.x {
            assert_eq!(m.predict_into(x, &mut scratch), m.predict(x));
        }
        assert!(scratch.take_kernel_evals() > 0);
        assert_eq!(scratch.take_kernel_evals(), 0, "counter drains");
    }

    #[test]
    fn train_with_stats_reports_svm_work_only() {
        let d = skewed_clusters();
        let (_, stats) = TrainedModel::train_with_stats(
            &ClassifierConfig::Svm {
                c: Some(1.0),
                gamma: Some(0.5),
                grid_search: false,
                cache_bytes: Some(1 << 20),
            },
            &d,
        );
        let stats = stats.expect("svm training reports stats");
        assert!(stats.kernel_evals > 0);
        assert_eq!(stats.train_rows, d.len());
        let (_, none) = TrainedModel::train_with_stats(&ClassifierConfig::Knn { k: 3 }, &d);
        assert!(none.is_none());
    }

    #[test]
    fn emittable_classes_cover_training_labels() {
        let d = skewed_clusters();
        for config in [
            ClassifierConfig::Svm {
                c: Some(10.0),
                gamma: Some(1.0),
                grid_search: false,
                cache_bytes: None,
            },
            ClassifierConfig::Knn { k: 3 },
            ClassifierConfig::Tree(TreeParams::default()),
            ClassifierConfig::Forest(crate::forest::ForestParams::default()),
        ] {
            let m = TrainedModel::train(&config, &d);
            assert_eq!(
                m.emittable_classes(),
                vec![0, 1],
                "{} emittable classes",
                config.name()
            );
        }
    }

    #[test]
    fn emittable_classes_skip_unwinnable_labels() {
        // Class 1 exists in the label space but never in the data: no
        // model can emit it.
        let mut d = Dataset::new(3);
        for i in 0..8 {
            d.push(vec![i as f64], if i < 4 { 0 } else { 2 });
        }
        for config in [
            ClassifierConfig::Knn { k: 1 },
            ClassifierConfig::Tree(TreeParams::default()),
        ] {
            let m = TrainedModel::train(&config, &d);
            assert!(
                !m.emittable_classes().contains(&1),
                "{} claims class 1",
                config.name()
            );
        }
    }

    #[test]
    fn old_policy_json_without_cache_bytes_still_parses() {
        let j = r#"{"Svm":{"c":1.5,"gamma":0.25,"grid_search":false}}"#;
        let cfg: ClassifierConfig = serde_json::from_str(j).unwrap();
        assert_eq!(
            cfg,
            ClassifierConfig::Svm {
                c: Some(1.5),
                gamma: Some(0.25),
                grid_search: false,
                cache_bytes: None,
            }
        );
    }
}
