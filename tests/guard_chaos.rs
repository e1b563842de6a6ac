//! Guarded dispatch of the five suites under injected faults.
//!
//! Per suite (small sets), the untuned registration is wrapped in a
//! `GuardedVariant` and dispatched degraded, tuned and installed through
//! the audited path, profiled cleanly as the oracle, and then dispatched
//! over its whole test set with its most-predicted non-default variant
//! always panicking and a seeded 5% launch-failure `FaultPlan`
//! installed. The run is deterministic: the launch faults are a pure
//! function of the plan seed, and the breakers count calls.
//!
//! The guarantees: the guard reports `Degraded` with no model and counts
//! those calls, is healthy after `install_artifact_or_degrade`, lets no
//! panic escape, quarantines and retries the poisoned variant when the
//! model predicts it, errs on at most a fifth of the inputs the oracle
//! can solve, and exports `guard.<fn>.{quarantine,retry,degraded}` in a
//! snapshot that round-trips through JSON. Across the five suites the
//! plan must kill at least one launch.
//!
//! The fault plan and the global tracer are process-wide, so this file
//! holds one test.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use nitro::core::{CodeVariant, Context};
use nitro::guard::{inject_failures, BreakerState, GuardPolicy, GuardedVariant};
use nitro::simt::{install_fault_plan, silence_injected_panics, uninstall_fault_plan, FaultPlan};
use nitro::trace::{MetricsSnapshot, RingSink, Tracer};
use nitro::tuner::{Autotuner, ProfileTable};
use nitro_bench::{for_each_suite, BenchResult, Suite, SuiteSpec, SuiteVisitor, COLLECTION_SEED};

const LAUNCH_FAILURE_PROB: f64 = 0.05;

/// How many leading test inputs are dispatched before a model exists.
const DEGRADED_WARMUP: usize = 3;

/// Two retries per candidate (a per-launch plan fails launch-heavy
/// variants often), a quarantine threshold above what input-dependent
/// failures on the fallbacks reach, while the always-panicking victim
/// charges `1 + retry_budget` failures per call and trips within two
/// calls, and a cooldown short enough for a half-open probe mid-run.
fn chaos_policy() -> GuardPolicy {
    GuardPolicy {
        retry_budget: 2,
        quarantine_threshold: 6,
        cooldown_calls: 8,
        ..GuardPolicy::default()
    }
}

/// A distinct, reproducible fault stream per suite.
fn suite_salt(name: &str) -> u64 {
    name.bytes().fold(0xCAFE_F00D_u64, |h, b| {
        h.wrapping_mul(131).wrapping_add(b as u64)
    })
}

/// The non-default variant the model predicts (and constraints allow)
/// most often over the test set, with the inputs that predict it.
fn pick_victim<I: Send + Sync>(cv: &CodeVariant<I>, test: &[I]) -> Option<(usize, Vec<usize>)> {
    let default = cv.default_variant();
    let mut inputs: Vec<Vec<usize>> = vec![Vec::new(); cv.n_variants()];
    for (i, input) in test.iter().enumerate() {
        let (features, _) = cv.evaluate_features(input);
        if let Some(v) = cv.select(&features) {
            if Some(v) != default && cv.constraints_satisfied(v, input) {
                inputs[v].push(i);
            }
        }
    }
    let victim = (0..inputs.len()).max_by_key(|&v| inputs[v].len())?;
    let at = std::mem::take(&mut inputs[victim]);
    (!at.is_empty()).then_some((victim, at))
}

/// Runs one suite's chaos experiment; yields the launches the plan
/// killed.
struct Chaos;

impl SuiteVisitor for Chaos {
    type Output = u64;

    fn visit<I: Send + Sync + 'static>(&mut self, suite: Suite<'_, I>) -> BenchResult<u64> {
        let (name, test) = (suite.name, suite.test);
        let mut cv = (suite.build)(&Context::new());
        let tracer = Tracer::new(Arc::new(RingSink::new(4096)));
        cv.context().install_tracer(tracer.clone());
        cv.bind_metrics(tracer.metrics());
        // The simulator's fault counters go through the global slot.
        nitro::trace::install_global(tracer.clone());

        let mut guard = GuardedVariant::new(cv, chaos_policy())?;
        assert!(
            guard.health().is_degraded(),
            "{name}: healthy with no model"
        );
        for input in &test[..DEGRADED_WARMUP] {
            // The default may fail an input; the call still counts.
            let _ = guard.call(input);
        }
        assert_eq!(
            guard.stats().degraded_calls,
            DEGRADED_WARMUP as u64,
            "{name}: degraded calls not counted"
        );

        Autotuner::new().tune(guard.inner_mut(), suite.train)?;
        let artifact = guard.inner().export_artifact()?;
        guard.install_artifact_or_degrade(artifact);
        assert!(
            !guard.health().is_degraded(),
            "{name}: still degraded after the audited install: {:?}",
            guard.health()
        );

        let oracle = ProfileTable::build(guard.inner(), test);
        let (victim, victim_inputs) = pick_victim(guard.inner(), test).unwrap_or_else(|| {
            // The model only predicts the default: poison the next
            // variant over, so isolation is still exercised.
            let d = guard.inner().default_variant().unwrap_or(0);
            ((d + 1) % guard.inner().n_variants(), Vec::new())
        });
        inject_failures(guard.inner_mut(), victim, true)?;
        install_fault_plan(FaultPlan::with_failure_prob(
            COLLECTION_SEED ^ suite_salt(name),
            LAUNCH_FAILURE_PROB,
        ));

        let mut escaped_panics = 0;
        let mut unexpected_errors = 0;
        for (i, input) in test.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| guard.call(input))) {
                Err(_) => escaped_panics += 1,
                Ok(Err(_)) if oracle.best_variant(i).is_some() => unexpected_errors += 1,
                Ok(_) => {}
            }
        }
        // A small test set may not trip the victim's breaker on its own:
        // re-dispatch one input that predicts it, each call charging
        // `1 + retry_budget` consecutive failures.
        if let Some(&i) = victim_inputs.first() {
            for _ in 0..8 {
                if guard.stats().quarantines > 0 {
                    break;
                }
                if catch_unwind(AssertUnwindSafe(|| guard.call(&test[i]))).is_err() {
                    escaped_panics += 1;
                }
            }
        }

        uninstall_fault_plan();
        tracer.flush();
        nitro::trace::uninstall_global();
        guard.inner().context().clear_tracer();

        assert_eq!(escaped_panics, 0, "{name}: panics escaped the guard");
        let stats = guard.stats();
        if !victim_inputs.is_empty() {
            assert!(stats.quarantines > 0, "{name}: victim never quarantined");
            assert!(stats.retries > 0, "{name}: no failed attempt retried");
            // The breaker may sit half-open if its cooldown ran out on the
            // last calls; closed with a clean streak would be a bug.
            assert_ne!(
                guard.breaker_state(victim),
                Some(BreakerState::Closed {
                    consecutive_failures: 0
                }),
                "{name}: victim ended closed with a clean streak"
            );
        }
        let tolerated = (test.len() / 5).max(1);
        assert!(
            unexpected_errors <= tolerated,
            "{name}: {unexpected_errors} errors on solvable inputs (tolerance {tolerated})"
        );

        let metrics = tracer.metrics().snapshot();
        let reparsed =
            MetricsSnapshot::from_json(&metrics.to_json()).expect("snapshot round-trips");
        for key in ["quarantine", "retry", "degraded"] {
            let counter = format!("guard.{name}.{key}");
            assert!(reparsed.counter(&counter).is_some(), "{name}: no {counter}");
        }
        Ok(metrics.counter("simt.fault.failures").unwrap_or(0))
    }
}

#[test]
fn guard_holds_on_every_suite_under_launch_faults_and_a_poisoned_variant() {
    silence_injected_panics();
    let killed = for_each_suite(SuiteSpec::small(), &mut Chaos).unwrap();
    assert!(
        killed.iter().sum::<u64>() > 0,
        "the plan killed no launch: {killed:?}"
    );
}
