//! `nitro-store`'s promotion and rollback guarantees, end to end on the
//! five suites.
//!
//! Per suite (small sets) the drill tunes once with `Autotuner::tune`,
//! opens a versioned store in a temp directory and runs three phases:
//!
//! 1. **stage + promote** — the tuned artifact is published as `v1`, an
//!    equivalent candidate shadow-predicts through a `StagedPromotion`
//!    window, is promoted to `v2` and passes probation;
//! 2. **forced regression** — a constant classifier pinned to the
//!    variant the incumbent predicts least is force-promoted and fed
//!    observations where that variant is 5× worse: it must roll back to
//!    `v2` with `NITRO074`;
//! 3. **alert-driven rollback** — the tuned function dispatches its
//!    test inputs under a p99 `SloWatchdog` on its bound
//!    `dispatch.<fn>.latency_ns` sketch. Healthy traffic must not page.
//!    On the suites whose cost comes from live simulated launches (spmv,
//!    histogram, sort) a freshly promoted candidate is then put on
//!    probation, an 8× `FaultPlan` slowdown must page, and
//!    `StagedPromotion::ingest_alert` must consume the page to roll the
//!    candidate back to `v2` — the observe→act loop. Solvers and bfs
//!    price their variants with closed-form cost models that launch
//!    faults cannot perturb, so they run the healthy watchdog only.
//!
//! The store must end with no corrupt or torn version. Everything runs
//! on the simulated clock, so the drill is deterministic.
//!
//! The fault plan is process-wide, so this file holds one test.

use nitro::core::context::temp_model_dir;
use nitro::core::{CodeVariant, Context, ModelArtifact, MODEL_SCHEMA_VERSION};
use nitro::ml::{ClassifierConfig, Dataset, TrainedModel};
use nitro::pulse::{AlertKind, AlertSeverity, SloSpec, SloWatchdog};
use nitro::simt::{install_fault_plan, uninstall_fault_plan, FaultPlan};
use nitro::store::{ArtifactStore, LifecycleEvent, PromotionPolicy, StagedPromotion};
use nitro::trace::MetricsRegistry;
use nitro::tuner::Autotuner;
use nitro_bench::{for_each_suite, BenchResult, Suite, SuiteSpec, SuiteVisitor};

/// Windows small enough to walk the whole state machine in one run.
fn drill_policy() -> PromotionPolicy {
    PromotionPolicy {
        shadow_window: 4,
        probation_window: 4,
        ..PromotionPolicy::default()
    }
}

/// A constant classifier pinned to `variant`: the bad candidate of the
/// forced-regression phase.
fn constant_model(n_features: usize, variant: usize, n_classes: usize) -> TrainedModel {
    let rows = n_classes.max(1);
    let data = Dataset::from_parts(vec![vec![0.0; n_features]; rows], vec![variant; rows]);
    TrainedModel::train(&ClassifierConfig::Knn { k: 1 }, &data)
}

fn dispatch_pass<I: Sync>(cv: &mut CodeVariant<I>, inputs: &[I]) -> BenchResult<()> {
    for input in inputs {
        cv.call(input)?;
    }
    Ok(())
}

/// Runs one suite's drill.
struct Drill;

impl SuiteVisitor for Drill {
    type Output = ();

    fn visit<I: Send + Sync + 'static>(&mut self, suite: Suite<'_, I>) -> BenchResult<()> {
        let (name, test) = (suite.name, suite.test);
        let root = temp_model_dir(&format!("lifecycle-drill-{name}"))?;
        std::fs::remove_dir_all(&root).ok();

        let mut cv = (suite.build)(&Context::new());
        Autotuner::new().tune(&mut cv, suite.train)?;

        // Phase 1: publish the incumbent as v1, shadow an equivalent
        // candidate through the window, promote it to v2 and pass
        // probation on no-worse observations.
        let incumbent = cv.export_artifact()?;
        let mut store = ArtifactStore::open(&root, cv.name())?;
        let v1 = store.publish(&incumbent, "lifecycle drill incumbent")?;
        let mut sp = StagedPromotion::new(incumbent.clone(), drill_policy());
        sp.set_incumbent_version(Some(v1));

        let features: Vec<Vec<f64>> = test
            .iter()
            .map(|input| cv.evaluate_features(input).0)
            .collect();
        let flat_costs = vec![1.0f64; cv.n_variants()];

        let events = sp.stage_candidate(cv.export_artifact()?)?;
        assert!(
            events
                .iter()
                .any(|e| matches!(e, LifecycleEvent::Staged { .. })),
            "{name}: candidate was not staged: {events:?}"
        );
        let (mut promoted, mut probation_passed) = (false, false);
        for (i, f) in features.iter().cycle().take(16).enumerate() {
            for e in sp.observe(&format!("shadow{i}"), f, &flat_costs, Some(&mut store))? {
                match e {
                    LifecycleEvent::Promoted { .. } => promoted = true,
                    LifecycleEvent::ProbationPassed => probation_passed = true,
                    _ => {}
                }
            }
            if probation_passed {
                break;
            }
        }
        assert!(promoted, "{name}: equivalent candidate was never promoted");
        assert!(
            probation_passed,
            "{name}: promoted candidate never cleared probation"
        );
        let v2 = store.latest();
        assert_eq!(v2, Some(v1 + 1), "{name}: latest after promotion");

        // Phase 2: force-promote a constant classifier pinned to the
        // variant the incumbent predicts least, and feed observations
        // where that variant is 5x worse.
        let n = cv.n_variants();
        let mut predicted = vec![0usize; n];
        for f in &features {
            predicted[incumbent.model.predict(f).min(n - 1)] += 1;
        }
        let bad_variant = (0..n).min_by_key(|&v| predicted[v]).unwrap_or(0);
        let bad_candidate = ModelArtifact {
            schema_version: MODEL_SCHEMA_VERSION,
            function: cv.name().to_string(),
            variant_names: cv.variant_names(),
            feature_names: cv.feature_names(),
            policy: cv.policy().clone(),
            model: constant_model(features[0].len(), bad_variant, n),
        };
        let mut bad_costs = vec![1.0f64; n];
        bad_costs[bad_variant] = 5.0;

        sp.stage_candidate(bad_candidate)?;
        let events = sp.promote_now(Some(&mut store))?;
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, LifecycleEvent::Rejected { .. })),
            "{name}: forced promotion was rejected: {events:?}"
        );
        let regress: Vec<&Vec<f64>> = features
            .iter()
            .filter(|f| incumbent.model.predict(f).min(n - 1) != bad_variant)
            .collect();
        assert!(
            !regress.is_empty(),
            "{name}: no observation distinguishes the bad variant"
        );
        let mut rollback = None;
        for (i, f) in regress.iter().cycle().take(16).enumerate() {
            for e in sp.observe(&format!("regress{i}"), f, &bad_costs, Some(&mut store))? {
                if let LifecycleEvent::RolledBack { to, diagnostic } = e {
                    rollback = Some((to, diagnostic.code));
                }
            }
            if rollback.is_some() {
                break;
            }
        }
        let (to, code) = rollback.unwrap_or_else(|| panic!("{name}: regression never rolled back"));
        assert_eq!(code, "NITRO074", "{name}: forced rollback's diagnostic");
        assert_eq!(to, v2, "{name}: forced rollback's target");
        assert_eq!(store.latest(), v2, "{name}: latest after forced rollback");

        // Phase 3: calibrate a p99 watchdog on healthy traffic (the
        // simulator is deterministic without a fault plan) with 3x
        // headroom, which an 8x slowdown must breach.
        let registry = MetricsRegistry::new();
        cv.bind_metrics(&registry);
        let metric = format!("dispatch.{}.latency_ns", cv.name());
        dispatch_pass(&mut cv, test)?;
        dispatch_pass(&mut cv, test)?;
        let healthy_p99 = registry.quantile(&metric, 0.99).unwrap_or(0.0);
        let mut dog = SloWatchdog::new(vec![SloSpec::p99_below(
            format!("{name} dispatch p99"),
            metric.as_str(),
            (healthy_p99 * 3.0).max(1.0),
        )])
        .with_min_window_count(test.len().max(1) as u64);
        let mut healthy_alerts = 0;
        for _ in 0..6 {
            dispatch_pass(&mut cv, test)?;
            healthy_alerts += dog.tick(&registry).len();
        }
        assert_eq!(
            healthy_alerts, 0,
            "{name}: watchdog paged on healthy traffic"
        );

        if matches!(name, "spmv" | "histogram" | "sort") {
            sp.stage_candidate(cv.export_artifact()?)?;
            let events = sp.promote_now(Some(&mut store))?;
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, LifecycleEvent::Promoted { .. })),
                "{name}: drill candidate was not promoted: {events:?}"
            );
            install_fault_plan(FaultPlan {
                seed: 11,
                slowdown_prob: 1.0,
                slowdown_factor: 8.0,
                ..FaultPlan::default()
            });
            let mut page = None;
            for _ in 0..10 {
                if let Err(e) = dispatch_pass(&mut cv, test) {
                    uninstall_fault_plan();
                    return Err(e);
                }
                page = dog.tick(&registry).into_iter().find(|a| {
                    a.kind == AlertKind::LatencyRegression && a.severity == AlertSeverity::Page
                });
                if page.is_some() {
                    break;
                }
            }
            uninstall_fault_plan();

            let page = page.unwrap_or_else(|| panic!("{name}: slowdown never paged"));
            let events = sp.ingest_alert(&page, Some(&mut store))?;
            let codes: Vec<&str> = events
                .iter()
                .filter_map(|e| match e {
                    LifecycleEvent::RolledBack { diagnostic, .. } => Some(diagnostic.code.as_str()),
                    _ => None,
                })
                .collect();
            assert_eq!(
                codes,
                ["NITRO074"],
                "{name}: the page must roll the candidate back: {events:?}"
            );
            assert_eq!(store.latest(), v2, "{name}: latest after alert rollback");
        }

        // No torn or corrupt install, ever: every stored version still
        // passes its content checksum.
        let problems = store.verify();
        assert!(
            problems.is_empty(),
            "{name}: store verification: {problems:?}"
        );
        std::fs::remove_dir_all(&root).ok();
        Ok(())
    }
}

#[test]
fn promotion_rollback_and_alert_driven_rollback_hold_on_every_suite() {
    for_each_suite(SuiteSpec::small(), &mut Drill).unwrap();
}
