//! # nitro-ml — the learning subsystem of Nitro
//!
//! The Nitro paper builds variant-selection models with libSVM: an RBF
//! C-SVC trained on `[-1, 1]`-scaled features with cross-validated
//! parameter search (§III-A), plus Best-vs-Second-Best active learning to
//! shrink the training set (§III-B). This crate implements that stack
//! from scratch:
//!
//! * [`dataset`] — labeled datasets, stratified folds, accuracy/confusion.
//! * [`scale`] — min-max scaling to `[-1, 1]`.
//! * [`kernel`] — RBF / linear / polynomial kernels.
//! * [`svm`] — SMO solver, binary machines, Platt calibration, pairwise
//!   coupling and the one-vs-one multiclass ensemble.
//! * [`grid`] — cross-validated `(C, γ)` grid search.
//! * [`knn`], [`tree`] — alternative classifiers for the tuner's
//!   `classifier` option.
//! * [`classifier`] — the [`ClassifierConfig`]/[`TrainedModel`] pair the
//!   rest of the workspace consumes.
//! * [`active`] — the BvSB active-learning loop behind incremental tuning.
//!
//! ## Example: train and query a variant-selection model
//!
//! ```
//! use nitro_ml::{ClassifierConfig, Dataset, TrainedModel};
//!
//! // Feature vectors -> best-variant labels (e.g. from exhaustive search).
//! let data = Dataset::from_parts(
//!     vec![vec![1.0, 10.0], vec![1.2, 11.0], vec![8.0, 2.0], vec![8.4, 1.5]],
//!     vec![0, 0, 1, 1],
//! );
//! let config = ClassifierConfig::Svm { c: Some(10.0), gamma: Some(0.5), grid_search: false, cache_bytes: None };
//! let model = TrainedModel::train(&config, &data);
//! assert_eq!(model.predict(&[1.1, 10.5]), 0);
//! assert_eq!(model.predict(&[8.2, 1.8]), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod classifier;
pub mod dataset;
pub mod forest;
pub mod grid;
pub mod kernel;
pub mod knn;
pub mod metrics;
pub mod scale;
pub mod svm;
pub mod tree;

pub use active::ActiveLearner;
pub use classifier::{ClassifierConfig, PredictScratch, TrainedModel};
pub use dataset::Dataset;
pub use forest::{ForestModel, ForestParams};
pub use grid::{GridResult, GridSearch};
pub use kernel::Kernel;
pub use knn::KnnModel;
pub use metrics::{classification_report, ClassificationReport};
pub use scale::Scaler;
pub use svm::multiclass::SvmTrainStats;
pub use svm::{BinarySvm, CompiledSvm, PairMachine, SvmModel, SvmScratch};
pub use tree::{TreeModel, TreeParams};
