//! # nitro-core — the Nitro library interface
//!
//! Rust rendering of the paper's C++ template library (Table I):
//!
//! | Paper construct | Here |
//! |---|---|
//! | `context` | [`Context`] |
//! | `code_variant<Policy, ArgTuple>` | [`CodeVariant<I>`] |
//! | `variant_type` + `operator()` | [`Variant`] trait (or [`FnVariant`]) |
//! | `input_feature_type` | [`InputFeature`] trait (or [`FnFeature`]) |
//! | constraint functions | [`Constraint`] trait (or [`FnConstraint`]) |
//! | `add_variant` / `set_default` | [`CodeVariant::add_variant`] / [`CodeVariant::set_default`] |
//! | `add_input_feature` / `add_constraint` | same names |
//! | `fix_inputs` (async features) | [`CodeVariant::fix_inputs`] + [`CodeVariant::call_fixed`] |
//! | generated tuning-policy header | [`TuningPolicy`] (serde-persisted) |
//!
//! A `CodeVariant` owns a set of functionally equivalent [`Variant`]s, the
//! [`InputFeature`]s used to select among them, optional per-variant
//! [`Constraint`]s, and (once tuned) a [`nitro_ml::TrainedModel`]. End
//! users of a Nitro-enabled library never see any of this — they call the
//! library's normal entry point, which internally calls
//! [`CodeVariant::call`].
//!
//! ## Example
//!
//! ```
//! use nitro_core::{CodeVariant, Context, FnFeature, FnVariant};
//!
//! let ctx = Context::new();
//! let mut gemm = CodeVariant::<Vec<f64>>::new("axpy", &ctx);
//! gemm.add_variant(FnVariant::new("scalar", |v: &Vec<f64>| v.len() as f64));
//! gemm.add_variant(FnVariant::new("blocked", |v: &Vec<f64>| v.len() as f64 * 0.5 + 100.0));
//! gemm.set_default(0);
//! gemm.add_input_feature(FnFeature::new("n", |v: &Vec<f64>| v.len() as f64));
//!
//! // Without a model the default variant runs; the autotuner in
//! // `nitro-tuner` trains and installs models.
//! let outcome = gemm.call(&vec![0.0; 64]).unwrap();
//! assert_eq!(outcome.variant_name, "scalar");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod code_variant;
pub mod context;
pub mod diag;
pub mod error;
pub mod feature;
pub mod fsio;
pub mod model;
pub mod observer;
pub mod policy;
pub mod predicate;
pub mod request;
pub mod variant;

pub use code_variant::{CodeVariant, Decision, Invocation};
pub use context::Context;
pub use diag::{Diagnostic, Severity};
pub use error::{NitroError, Result};
pub use feature::{Constraint, FnConstraint, FnFeature, InputFeature};
pub use fsio::{
    atomic_write, atomic_write_with, crc32, fs_read, is_retryable, mix64, ChaosFs, FsFault, FsOp,
    FsPolicy, RetryPolicy,
};
pub use model::{ModelArtifact, MODEL_SCHEMA_VERSION};
pub use observer::{DispatchObservation, DispatchObserver, DispatchRecord, ModelCost};
pub use policy::{StoppingCriterion, TuningPolicy};
pub use predicate::{CmpOp, ConstraintDescriptor, Predicate};
pub use request::{Deadline, Priority, RequestMeta, TenantId};
pub use variant::{FnVariant, Objective, Variant};

// Re-export the ML types that appear in this crate's public API, so
// downstream crates don't need a direct nitro-ml dependency for basic use.
pub use nitro_ml::{ClassifierConfig, TrainedModel};
