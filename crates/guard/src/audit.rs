//! Resilience-configuration audit: the `NITRO05x` diagnostics.
//!
//! These analyzers extend the `nitro-audit` code space to the guard
//! layer's configuration surface. They live here rather than in
//! `nitro-audit` because they inspect [`GuardPolicy`] and
//! [`nitro_simt::FaultPlan`], which sit above the audit crate in the
//! dependency graph; the diagnostics vocabulary is still
//! [`nitro_core::Diagnostic`], so findings compose with every other
//! audit surface (and [`NitroError::Audit`](nitro_core::NitroError)
//! carries them).
//!
//! Codes:
//!
//! * `NITRO050` (error)   — zero-trip circuit breaker
//!   (`quarantine_threshold == 0`): every variant would quarantine on
//!   its first failure, including transient ones.
//! * `NITRO051` (warning) — zero retry budget: transient launch
//!   failures immediately consume a breaker trip.
//! * `NITRO052` (error)   — fault-plan probability outside `[0, 1]`
//!   (or a non-positive/non-finite slowdown factor).
//! * `NITRO053` (warning) — quarantine threshold below the retry
//!   budget: a single call's retry burst can trip the breaker on its
//!   own, so one bad input quarantines the variant.
//! * `NITRO054` (warning) — zero cooldown: an Open breaker half-opens
//!   on the very next call, making quarantine toothless.
//! * `NITRO055` (error)   — negative or non-finite backoff base.

use nitro_core::diag::registry::codes;
use nitro_core::Diagnostic;
use nitro_simt::FaultPlan;

use crate::breaker::GuardPolicy;

/// Audit a guard policy for `function`.
/// [`GuardedVariant::new`](crate::GuardedVariant::new) refuses to
/// construct on error-severity findings.
pub fn audit_guard_policy(function: &str, policy: &GuardPolicy) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if policy.quarantine_threshold == 0 {
        diags.push(Diagnostic::error(
            codes::NITRO050,
            function,
            "zero-trip circuit breaker: quarantine_threshold is 0, so every variant \
             quarantines on its first failure (set it to at least 1)",
        ));
    }
    if policy.retry_budget == 0 {
        diags.push(Diagnostic::warning(
            codes::NITRO051,
            function,
            "zero retry budget: transient launch failures are never retried and \
             count straight toward quarantine",
        ));
    }
    if policy.quarantine_threshold > 0 && policy.quarantine_threshold < policy.retry_budget {
        diags.push(Diagnostic::warning(
            codes::NITRO053,
            function,
            format!(
                "quarantine threshold {} is below the retry budget {}: one call's \
                 retry burst can quarantine a variant on a single bad input",
                policy.quarantine_threshold, policy.retry_budget
            ),
        ));
    }
    if policy.cooldown_calls == 0 {
        diags.push(Diagnostic::warning(
            codes::NITRO054,
            function,
            "zero cooldown: an opened breaker half-opens on the next call, so \
             quarantine never actually rests a failing variant",
        ));
    }
    if !policy.backoff_base_ns.is_finite() || policy.backoff_base_ns < 0.0 {
        diags.push(Diagnostic::error(
            codes::NITRO055,
            function,
            format!(
                "backoff_base_ns must be a non-negative finite duration, got {}",
                policy.backoff_base_ns
            ),
        ));
    }
    diags
}

/// Audit a fault plan (NITRO052). `subject` names the experiment or
/// harness installing the plan.
pub fn audit_fault_plan(subject: &str, plan: &FaultPlan) -> Vec<Diagnostic> {
    plan.validate()
        .into_iter()
        .map(|problem| Diagnostic::error(codes::NITRO052, subject, problem))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_audit::has_errors;
    use nitro_core::Severity;

    #[test]
    fn default_policy_is_clean() {
        assert!(audit_guard_policy("spmv", &GuardPolicy::default()).is_empty());
    }

    #[test]
    fn zero_trip_breaker_is_an_error() {
        let policy = GuardPolicy {
            quarantine_threshold: 0,
            ..GuardPolicy::default()
        };
        let diags = audit_guard_policy("spmv", &policy);
        assert!(diags.iter().any(|d| d.code == "NITRO050"));
        assert!(has_errors(&diags));
    }

    #[test]
    fn zero_retry_budget_warns() {
        let policy = GuardPolicy {
            retry_budget: 0,
            ..GuardPolicy::default()
        };
        let diags = audit_guard_policy("bfs", &policy);
        let d = diags.iter().find(|d| d.code == "NITRO051").unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(!has_errors(&diags));
    }

    #[test]
    fn threshold_below_budget_warns() {
        let policy = GuardPolicy {
            quarantine_threshold: 1,
            retry_budget: 4,
            ..GuardPolicy::default()
        };
        let diags = audit_guard_policy("sort", &policy);
        assert!(diags.iter().any(|d| d.code == "NITRO053"));
    }

    #[test]
    fn zero_cooldown_and_bad_backoff_flagged() {
        let policy = GuardPolicy {
            cooldown_calls: 0,
            backoff_base_ns: f64::NAN,
            ..GuardPolicy::default()
        };
        let diags = audit_guard_policy("hist", &policy);
        assert!(diags.iter().any(|d| d.code == "NITRO054"));
        assert!(diags.iter().any(|d| d.code == "NITRO055"));
        assert!(has_errors(&diags));
    }

    #[test]
    fn fault_plan_probabilities_outside_unit_interval_error() {
        let plan = FaultPlan {
            launch_failure_prob: 1.2,
            corruption_prob: -0.5,
            ..FaultPlan::default()
        };
        let diags = audit_fault_plan("chaos", &plan);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == "NITRO052"));
        assert!(has_errors(&diags));
        assert!(audit_fault_plan("chaos", &FaultPlan::default()).is_empty());
    }
}
