//! # nitro-tuner — the Nitro autotuner
//!
//! The offline half of Nitro (the paper's Python component, §II-C): given
//! a configured [`nitro_core::CodeVariant`] and training inputs, it
//!
//! 1. exhaustively profiles variants per input ([`ProfileTable`]),
//! 2. labels each input with its best variant,
//! 3. fits the policy's classifier (grid-searched RBF SVM by default),
//! 4. installs — and optionally persists — the model.
//!
//! With `policy.incremental = Some(StoppingCriterion::…)` the tuner runs
//! the paper's *incremental tuning* instead (§III-B): features are
//! computed for every training input, but exhaustive profiling is paid
//! only for a small seed plus the inputs Best-vs-Second-Best active
//! learning asks for.
//!
//! [`report`] converts model selections into the paper's metric —
//! relative performance against exhaustive search — which is what
//! Figures 5–7 plot.
//!
//! ```
//! use nitro_core::{ClassifierConfig, CodeVariant, Context, FnFeature, FnVariant};
//! use nitro_tuner::Autotuner;
//!
//! let ctx = Context::new();
//! let mut f = CodeVariant::<f64>::new("f", &ctx);
//! f.add_variant(FnVariant::new("a", |&x: &f64| 1.0 + x));
//! f.add_variant(FnVariant::new("b", |&x: &f64| 11.0 - x));
//! f.set_default(0);
//! f.add_input_feature(FnFeature::new("x", |&x: &f64| x));
//! f.policy_mut().classifier = ClassifierConfig::Knn { k: 3 };
//!
//! let train: Vec<f64> = (0..20).map(|i| i as f64 * 0.5).collect();
//! Autotuner::new().tune(&mut f, &train).unwrap();
//! assert_eq!(f.call(&9.9).unwrap().variant_name, "b");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autotuner;
pub mod durable;
pub mod online;
pub mod profile;
pub mod report;

pub use autotuner::{Autotuner, PhaseTiming, TuneReport};
pub use online::{OnlineCodeVariant, OnlineOptions, OnlineStats};
pub use profile::ProfileTable;
pub use report::{evaluate_fixed_variant, evaluate_model, evaluate_selection, EvalSummary};
