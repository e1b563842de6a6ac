//! # nitro-audit — static analysis & diagnostics for Nitro
//!
//! The tuning pipeline moves configuration across three trust boundaries:
//! a library author registers variants/features/constraints by hand, a
//! trained [`nitro_core::ModelArtifact`] travels through JSON files, and
//! the training set itself is assembled by a harness. Each boundary has
//! its own analyzer:
//!
//! * [`lint_registration`] — pre-tuning checks on a
//!   [`nitro_core::CodeVariant`] + [`nitro_core::TuningPolicy`] pair
//!   (`NITRO010`–`NITRO019`).
//! * [`audit_artifact`] / [`audit_artifact_against`] /
//!   [`audit_artifact_json`] — numeric and schema invariants of persisted
//!   models (`NITRO001`, `NITRO020`–`NITRO029`).
//! * [`analyze_profile`] — training-set pathologies in exhaustive
//!   profiling results (`NITRO030`–`NITRO039`).
//! * [`analyze_metrics`] / [`analyze_metrics_json`] — suspicious runtime
//!   behavior in an exported `nitro-trace` metrics snapshot
//!   (`NITRO040`–`NITRO049`).
//! * [`audit_fastpath`] / [`lint_cache_budget`] — compiled-prediction
//!   and kernel-cache health of a trained model against its training set
//!   (`NITRO060`–`NITRO062`).
//!
//! Two further ranges live with the subsystems that emit them:
//! `NITRO050`–`NITRO059` (guard policies and fault plans, `nitro-guard`)
//! and `NITRO070`–`NITRO079` (durable-tuning journals, the versioned
//! artifact store and staged promotion, `nitro-store`). They use the
//! same [`nitro_core::Diagnostic`] vocabulary and renderers.
//!
//! Findings are [`nitro_core::Diagnostic`]s: a stable `NITRO0xx` code, a
//! severity, a subject and a message, rendered with
//! [`render_text`]/[`render_json`]. Error-severity findings abort tuning
//! ([`nitro_core::NitroError::Audit`]); warnings ride along in the tune
//! report.
//!
//! ```
//! use nitro_audit::lint_registration;
//! use nitro_core::{CodeVariant, Context, FnFeature, FnVariant};
//!
//! let ctx = Context::new();
//! let mut f = CodeVariant::<f64>::new("f", &ctx);
//! f.add_variant(FnVariant::new("a", |&x: &f64| x));
//! f.set_default(3); // not a registered variant
//! f.add_input_feature(FnFeature::new("x", |&x: &f64| x));
//!
//! let diags = lint_registration(&f, None);
//! assert!(diags.iter().any(|d| d.code == "NITRO014"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod deep;
pub mod fastpath;
pub mod ir;
pub mod metrics;
pub mod profile;
pub mod registration;
pub mod sarif;
pub mod sat;

pub use artifact::{audit_artifact, audit_artifact_against, audit_artifact_json};
pub use deep::analyze_graph;
pub use fastpath::{audit_fastpath, lint_cache_budget};
pub use ir::{
    CascadeEdge, ConstraintExpr, ConstraintNode, FeatureNode, ModelNode, ProfileData, TuningGraph,
    VariantNode, VersionNode,
};
pub use metrics::{analyze_metrics, analyze_metrics_json, MetricsAuditConfig};
pub use profile::{analyze_profile, ProfileAuditConfig, ProfileView};
pub use registration::{lint_grid_search, lint_registration};
pub use sarif::render_sarif;
pub use sat::Sat;

// The diagnostics vocabulary lives in nitro-core (so `NitroError::Audit`
// can carry findings); re-export it as this crate's primary interface.
pub use nitro_core::diag::{has_errors, partition_errors, render_json, render_text};
pub use nitro_core::{Diagnostic, Severity};

use nitro_core::{CodeVariant, ModelArtifact, NitroError};

/// Audited artifact installation for [`CodeVariant`].
pub trait AuditedInstall {
    /// Install a model artifact only if the artifact audit finds no
    /// error-severity diagnostics against this registration.
    ///
    /// On success the returned vector holds the surviving warnings and
    /// infos (possibly empty). On failure the full finding list travels
    /// in [`NitroError::Audit`]; structural mismatches that
    /// `install_artifact` itself rejects surface as their usual errors.
    fn install_artifact_audited(
        &mut self,
        artifact: ModelArtifact,
    ) -> Result<Vec<Diagnostic>, NitroError>;
}

impl<I: ?Sized> AuditedInstall for CodeVariant<I> {
    fn install_artifact_audited(
        &mut self,
        artifact: ModelArtifact,
    ) -> Result<Vec<Diagnostic>, NitroError> {
        let diagnostics = audit_artifact_against(&artifact, self);
        if has_errors(&diagnostics) {
            return Err(NitroError::Audit { diagnostics });
        }
        self.install_artifact(artifact)?;
        Ok(diagnostics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_core::{Context, FnFeature, FnVariant, TuningPolicy, MODEL_SCHEMA_VERSION};
    use nitro_ml::{ClassifierConfig, Dataset, TrainedModel};

    fn registration() -> CodeVariant<f64> {
        let ctx = Context::new();
        let mut cv = CodeVariant::new("axpy", &ctx);
        cv.add_variant(FnVariant::new("scalar", |&x: &f64| x));
        cv.add_variant(FnVariant::new("blocked", |&x: &f64| 10.0 - x));
        cv.set_default(0);
        cv.add_input_feature(FnFeature::new("n", |&x: &f64| x));
        cv
    }

    fn artifact(function: &str) -> ModelArtifact {
        let data = Dataset::from_parts(
            vec![vec![0.0], vec![1.0], vec![8.0], vec![9.0]],
            vec![0, 0, 1, 1],
        );
        ModelArtifact {
            schema_version: MODEL_SCHEMA_VERSION,
            function: function.into(),
            variant_names: vec!["scalar".into(), "blocked".into()],
            feature_names: vec!["n".into()],
            policy: TuningPolicy::default(),
            model: TrainedModel::train(&ClassifierConfig::Knn { k: 1 }, &data),
        }
    }

    #[test]
    fn audited_install_accepts_clean_artifacts() {
        let mut cv = registration();
        let warnings = cv.install_artifact_audited(artifact("axpy")).unwrap();
        assert!(warnings.is_empty());
        assert!(cv.has_model());
    }

    #[test]
    fn audited_install_rejects_mismatched_artifacts() {
        let mut cv = registration();
        let err = cv.install_artifact_audited(artifact("gemm")).unwrap_err();
        let diags = err.diagnostics();
        assert!(diags.iter().any(|d| d.code == "NITRO021"));
        assert!(!cv.has_model());
    }

    #[test]
    fn audited_install_keeps_warnings_nonfatal() {
        let mut cv = registration();
        let mut a = artifact("axpy");
        a.schema_version = 0; // legacy artifact: NITRO020 warning
        let warnings = cv.install_artifact_audited(a).unwrap();
        assert!(warnings.iter().any(|d| d.code == "NITRO020"));
        assert!(cv.has_model());
    }
}
