//! Lifecycle report: exercise `nitro-store`'s durability guarantees over
//! every benchmark suite and assert that they hold end to end.
//!
//! ```text
//! NITRO_SCALE=small cargo run -p nitro-bench --bin lifecycle_report
//! ```
//!
//! Per suite the harness runs six phases:
//!
//! 1. **tune** — a plain tune and a journaled [`Autotuner::tune_durable`]
//!    run over the same corpus must export byte-identical artifacts;
//! 2. **kill mid-tune** — a fresh durable run is killed at an arbitrary
//!    journal offset via [`TuningJournal::kill_after_appends`], leaving a
//!    torn tail on disk;
//! 3. **resume** — reopening the torn journal must surface a `NITRO070`
//!    recovery diagnostic, replay the surviving cells
//!    (`replayed_cells > 0`) and finish with an artifact byte-identical
//!    to the uninterrupted run;
//! 4. **stage + promote** — the tuned artifact is published as `v1`, a
//!    retrained candidate shadow-predicts through a
//!    [`StagedPromotion`] window and is promoted to `v2`, then passes
//!    probation;
//! 5. **forced regression** — a deliberately bad candidate (a constant
//!    classifier pinned to a poorly-chosen variant) is force-promoted and
//!    fed synthetic regressing observations: it must be auto-rolled-back
//!    (`NITRO074`) to the previous version;
//! 6. **alert-driven rollback** — the tuned function dispatches real
//!    inputs under a pulse p99 watchdog ([`SloWatchdog`]); healthy
//!    traffic must not page, then an injected [`FaultPlan`] slowdown
//!    must page with a latency regression, and
//!    [`StagedPromotion::ingest_alert`] must consume that page to roll
//!    a freshly promoted candidate back — the observe→act loop end to
//!    end. The slowdown drill runs on the suites whose dispatch cost
//!    comes from live simulated launches (spmv, histogram, sort);
//!    solvers and bfs price their variants with cached closed-form
//!    cost models, which launch-level fault injection cannot perturb,
//!    so they run the healthy watchdog only. The store must finish
//!    with zero corrupt or torn versions ([`ArtifactStore::verify`]).
//!
//! Per-suite JSON outcomes land under `target/nitro-store/`. Exits
//! non-zero if any suite violates a guarantee.

use std::path::{Path, PathBuf};

use nitro_bench::error::{exit_on_error, to_json_pretty, write_file, BenchResult};
use nitro_bench::{for_each_suite, Suite, SuiteSpec, SuiteVisitor};
use nitro_core::{CodeVariant, Context, ModelArtifact, MODEL_SCHEMA_VERSION};
use nitro_ml::{ClassifierConfig, Dataset, TrainedModel};
use nitro_pulse::{AlertKind, AlertSeverity, FunctionPulse, SloSpec, SloWatchdog};
use nitro_simt::{install_fault_plan, uninstall_fault_plan, FaultPlan};
use nitro_store::{ArtifactStore, LifecycleEvent, PromotionPolicy, StagedPromotion, TuningJournal};
use nitro_trace::MetricsRegistry;
use nitro_tuner::Autotuner;
use serde::Serialize;

/// Everything the summary needs from one suite's lifecycle run.
#[derive(Serialize)]
struct LifecycleOutcome {
    name: String,
    /// Journal appends before the simulated crash.
    kill_offset: u64,
    /// Cells served from the journal on resume (must be > 0).
    replayed_cells: usize,
    /// Durable tune artifact == plain tune artifact, byte for byte.
    durable_matches_plain: bool,
    /// Resumed artifact == plain artifact, byte for byte.
    resume_bit_identical: bool,
    /// Store versions at the end of the run.
    store_versions: usize,
    /// `latest` pointer at the end of the run.
    store_latest: Option<u64>,
    /// Candidate promotions observed (phase 4 + the forced one).
    promotions: usize,
    /// Automatic rollbacks observed (the forced regression plus the
    /// alert-driven one).
    rollbacks: usize,
    /// Pages the watchdog raised on healthy traffic (must be 0).
    healthy_alerts: usize,
    /// Whether the injected-slowdown drill ran (suites whose cost comes
    /// from live simulated launches).
    fault_drill: bool,
    /// Whether the injected-slowdown page rolled the candidate back.
    alert_rollback: bool,
    /// Assertion failures (empty means the suite held every guarantee).
    failures: Vec<String>,
}

/// Output directory for lifecycle artifacts.
fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/nitro-store");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Promotion policy small enough to exercise the full state machine in
/// one report run.
fn report_policy() -> PromotionPolicy {
    PromotionPolicy {
        shadow_window: 4,
        probation_window: 4,
        ..PromotionPolicy::default()
    }
}

/// A constant classifier pinned to `variant` — the "bad" candidate for
/// the forced-regression phase.
fn constant_model(n_features: usize, variant: usize, n_classes: usize) -> TrainedModel {
    let data = Dataset::from_parts(vec![vec![0.0; n_features]; n_classes.max(1)], {
        let mut y = vec![variant; n_classes.max(1)];
        y[0] = variant;
        y
    });
    TrainedModel::train(&ClassifierConfig::Knn { k: 1 }, &data)
}

/// Run one suite's lifecycle experiment end to end.
fn lifecycle_suite<I, F>(
    name: &str,
    build: F,
    train: &[I],
    test: &[I],
    fault_drill: bool,
    dir: &Path,
) -> BenchResult<LifecycleOutcome>
where
    I: Send + Sync + 'static,
    F: Fn(&Context) -> CodeVariant<I>,
{
    let mut failures = Vec::new();
    let journal_path = dir.join(format!("{name}.journal.jsonl"));
    let store_root = dir.join("store");
    std::fs::remove_file(&journal_path).ok();
    std::fs::remove_dir_all(store_root.join(name)).ok();

    // Phase 1 — plain vs durable: identical corpora must yield
    // byte-identical artifacts whether or not a journal is in the loop.
    let ctx = Context::new();
    let mut plain = build(&ctx);
    Autotuner::new().tune(&mut plain, train)?;
    let plain_json = plain.export_artifact()?.to_json()?;

    let ctx = Context::new();
    let mut durable = build(&ctx);
    let mut journal = TuningJournal::open(&journal_path)?;
    Autotuner::new().tune_durable(&mut durable, train, &mut journal)?;
    let durable_json = durable.export_artifact()?.to_json()?;
    let durable_matches_plain = durable_json == plain_json;
    if !durable_matches_plain {
        failures.push("durable tune artifact differs from plain tune artifact".into());
    }
    drop(journal);

    // Phase 2 — kill mid-tune: crash partway through the second
    // profiled row, leaving a torn tail on disk.
    std::fs::remove_file(&journal_path).ok();
    let n_variants = durable.n_variants() as u64;
    let kill_offset = 1 + (1 + n_variants) + 1;
    let ctx = Context::new();
    let mut victim = build(&ctx);
    let mut journal = TuningJournal::open(&journal_path)?;
    journal.kill_after_appends(kill_offset);
    match Autotuner::new().tune_durable(&mut victim, train, &mut journal) {
        Err(_) => {}
        Ok(_) => failures.push(format!(
            "tune_durable survived a simulated crash at append {kill_offset}"
        )),
    }
    drop(journal);

    // Phase 3 — resume: recovery must report the torn tail (NITRO070),
    // replay every surviving cell, and converge on the same bytes.
    let ctx = Context::new();
    let mut resumed = build(&ctx);
    let mut journal = TuningJournal::open(&journal_path)?;
    if !journal
        .recovery_diagnostics()
        .iter()
        .any(|d| d.code == "NITRO070")
    {
        failures.push("reopened torn journal produced no NITRO070 diagnostic".into());
    }
    let report = Autotuner::new().tune_durable(&mut resumed, train, &mut journal)?;
    let replayed_cells = report.replayed_cells;
    if replayed_cells == 0 {
        failures.push("resume replayed no cells from the journal".into());
    }
    let resumed_json = resumed.export_artifact()?.to_json()?;
    let resume_bit_identical = resumed_json == plain_json;
    if !resume_bit_identical {
        failures.push("resumed artifact differs from the uninterrupted run".into());
    }
    drop(journal);

    // Phase 4 — stage + promote: publish the incumbent as v1, shadow a
    // (re-exported, equivalent) candidate through the window, promote it
    // to v2 and pass probation on no-worse observations.
    let incumbent = resumed.export_artifact()?;
    let mut store = ArtifactStore::open(&store_root, resumed.name())?;
    let v1 = store.publish(&incumbent, "lifecycle_report incumbent")?;
    let mut sp = StagedPromotion::new(incumbent.clone(), report_policy());
    sp.set_incumbent_version(Some(v1));

    let features: Vec<Vec<f64>> = test
        .iter()
        .map(|input| resumed.evaluate_features(input).0)
        .collect();
    let flat_costs = vec![1.0f64; resumed.n_variants()];

    let mut promotions = 0usize;
    let mut rollbacks = 0usize;
    let mut events = sp.stage_candidate(resumed.export_artifact()?)?;
    if !events
        .iter()
        .any(|e| matches!(e, LifecycleEvent::Staged { .. }))
    {
        failures.push(format!("candidate was not staged: {events:?}"));
    }
    let mut probation_passed = false;
    for (i, f) in features.iter().cycle().take(16).enumerate() {
        events = sp.observe(&format!("shadow{i}"), f, &flat_costs, Some(&mut store))?;
        for e in &events {
            match e {
                LifecycleEvent::Promoted { .. } => promotions += 1,
                LifecycleEvent::ProbationPassed => probation_passed = true,
                _ => {}
            }
        }
        if probation_passed {
            break;
        }
    }
    if promotions == 0 {
        failures.push("equivalent candidate was never promoted".into());
    }
    if !probation_passed {
        failures.push("promoted candidate never cleared probation".into());
    }
    let v2 = store.latest();
    if v2 != Some(v1 + 1) {
        failures.push(format!(
            "expected latest v{} after promotion, got {v2:?}",
            v1 + 1
        ));
    }

    // Phase 5 — forced regression: pin a constant classifier to a
    // variant the incumbent rarely chooses, force-promote it, and feed
    // synthetic observations where that variant is 5× worse. The state
    // machine must roll back to the prior version with NITRO074.
    let n = resumed.n_variants();
    let mut predicted = vec![0usize; n];
    for f in &features {
        predicted[incumbent.model.predict(f).min(n - 1)] += 1;
    }
    let bad_variant = (0..n).min_by_key(|&v| predicted[v]).unwrap_or(0);
    let bad_candidate = ModelArtifact {
        schema_version: MODEL_SCHEMA_VERSION,
        function: resumed.name().to_string(),
        variant_names: resumed.variant_names(),
        feature_names: resumed.feature_names(),
        policy: resumed.policy().clone(),
        model: constant_model(features[0].len(), bad_variant, n),
    };
    let mut bad_costs = vec![1.0f64; n];
    bad_costs[bad_variant] = 5.0;

    sp.stage_candidate(bad_candidate)?;
    events = sp.promote_now(Some(&mut store))?;
    if events
        .iter()
        .any(|e| matches!(e, LifecycleEvent::Rejected { .. }))
    {
        failures.push(format!("forced promotion was rejected: {events:?}"));
    }
    let mut rolled_back_to = None;
    let regress: Vec<&Vec<f64>> = features
        .iter()
        .filter(|f| incumbent.model.predict(f).min(n - 1) != bad_variant)
        .collect();
    if regress.is_empty() {
        failures.push("no observation distinguishes the bad variant".into());
    }
    for (i, f) in regress.iter().cycle().take(16).enumerate() {
        events = sp.observe(&format!("regress{i}"), f, &bad_costs, Some(&mut store))?;
        for e in &events {
            if let LifecycleEvent::RolledBack { to, diagnostic } = e {
                rollbacks += 1;
                rolled_back_to = *to;
                if diagnostic.code != "NITRO074" {
                    failures.push(format!(
                        "rollback carried {} instead of NITRO074",
                        diagnostic.code
                    ));
                }
            }
        }
        if rollbacks > 0 {
            break;
        }
    }
    if rollbacks == 0 {
        failures.push("forced regression was never rolled back".into());
    } else if rolled_back_to != v2 {
        failures.push(format!(
            "rollback landed on {rolled_back_to:?}, expected {v2:?}"
        ));
    }
    if store.latest() != v2 {
        failures.push(format!(
            "store latest is {:?} after rollback, expected {v2:?}",
            store.latest()
        ));
    }

    // Phase 6 — alert-driven rollback (observe→act): dispatch real
    // inputs through the tuned function under a pulse p99 watchdog,
    // promote a candidate into probation, then inject a FaultPlan
    // slowdown. The resulting latency page must be consumed by
    // `ingest_alert` and roll the promotion back.
    let registry = MetricsRegistry::new();
    FunctionPulse::install(&mut resumed, &registry, None);
    let metric = format!("dispatch.{}.latency_ns", resumed.name());
    let dispatch_pass = |cv: &mut CodeVariant<I>| -> BenchResult<()> {
        for input in test {
            cv.call(input)?;
        }
        Ok(())
    };

    // Calibrate on healthy traffic (the simulator is deterministic
    // without a fault plan), leaving 3x headroom that an 8x slowdown
    // must breach.
    dispatch_pass(&mut resumed)?;
    dispatch_pass(&mut resumed)?;
    let healthy_p99 = registry.quantile(&metric, 0.99).unwrap_or(0.0);
    let threshold = (healthy_p99 * 3.0).max(1.0);
    let mut dog = SloWatchdog::new(vec![SloSpec::p99_below(
        format!("{name} dispatch p99"),
        metric.as_str(),
        threshold,
    )])
    .with_min_window_count(test.len().max(1) as u64);

    let mut healthy_alerts = 0usize;
    for _ in 0..6 {
        dispatch_pass(&mut resumed)?;
        healthy_alerts += dog.tick(&registry).len();
    }
    if healthy_alerts > 0 {
        failures.push(format!(
            "watchdog paged {healthy_alerts} time(s) on healthy traffic"
        ));
    }

    let mut alert_rollback = false;
    if fault_drill {
        sp.stage_candidate(resumed.export_artifact()?)?;
        events = sp.promote_now(Some(&mut store))?;
        for e in &events {
            if matches!(e, LifecycleEvent::Promoted { .. }) {
                promotions += 1;
            }
        }

        install_fault_plan(FaultPlan {
            seed: 11,
            slowdown_prob: 1.0,
            slowdown_factor: 8.0,
            ..FaultPlan::default()
        });
        let mut page = None;
        for _ in 0..10 {
            if let Err(e) = dispatch_pass(&mut resumed) {
                uninstall_fault_plan();
                return Err(e);
            }
            if let Some(a) = dog.tick(&registry).into_iter().find(|a| {
                a.kind == AlertKind::LatencyRegression && a.severity == AlertSeverity::Page
            }) {
                page = Some(a);
                break;
            }
        }
        uninstall_fault_plan();

        match page {
            None => failures.push("injected slowdown never tripped the p99 watchdog".into()),
            Some(alert) => {
                events = sp.ingest_alert(&alert, Some(&mut store))?;
                for e in &events {
                    if let LifecycleEvent::RolledBack { diagnostic, .. } = e {
                        rollbacks += 1;
                        alert_rollback = true;
                        if diagnostic.code != "NITRO074" {
                            failures.push(format!(
                                "alert rollback carried {} instead of NITRO074",
                                diagnostic.code
                            ));
                        }
                    }
                }
                if !alert_rollback {
                    failures.push(format!(
                        "latency page did not roll back the promoted candidate: {events:?}"
                    ));
                }
                if store.latest() != v2 {
                    failures.push(format!(
                        "store latest is {:?} after the alert rollback, expected {v2:?}",
                        store.latest()
                    ));
                }
            }
        }
    }

    // Zero torn or corrupt installs, ever: every version still on disk
    // must pass its content checksum.
    let verify = store.verify();
    if !verify.is_empty() {
        failures.push(format!(
            "store verification found {} problem(s): {verify:?}",
            verify.len()
        ));
    }

    Ok(LifecycleOutcome {
        name: name.to_string(),
        kill_offset,
        replayed_cells,
        durable_matches_plain,
        resume_bit_identical,
        store_versions: store.versions().len(),
        store_latest: store.latest(),
        promotions,
        rollbacks,
        healthy_alerts,
        fault_drill,
        alert_rollback,
        failures,
    })
}

fn summarize(o: &LifecycleOutcome) {
    println!("\n== {} ==", o.name);
    println!(
        "  durable == plain: {} · killed at append {} · resume replayed {} cell(s), bit-identical: {}",
        o.durable_matches_plain, o.kill_offset, o.replayed_cells, o.resume_bit_identical
    );
    println!(
        "  store: {} version(s), latest {:?} · {} promotion(s), {} rollback(s)",
        o.store_versions, o.store_latest, o.promotions, o.rollbacks
    );
    if o.fault_drill {
        println!(
            "  pulse: {} healthy page(s) · slowdown page rolled the candidate back: {}",
            o.healthy_alerts, o.alert_rollback
        );
    } else {
        println!(
            "  pulse: {} healthy page(s) · slowdown drill skipped (closed-form cost model)",
            o.healthy_alerts
        );
    }
}

struct Lifecycle {
    dir: PathBuf,
}

impl SuiteVisitor for Lifecycle {
    type Output = LifecycleOutcome;
    fn visit<I: Send + Sync + 'static>(
        &mut self,
        suite: Suite<'_, I>,
    ) -> BenchResult<Self::Output> {
        // The slowdown drill needs live simulated launches; solvers and
        // bfs price their variants with closed-form cost models that
        // launch-level fault injection cannot perturb.
        let fault_drill = matches!(suite.name, "spmv" | "histogram" | "sort");
        let (train, test) = (suite.train, suite.test);
        lifecycle_suite(suite.name, suite.build, train, test, fault_drill, &self.dir)
    }
}

fn main() {
    exit_on_error(run());
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    let dir = out_dir();
    println!("== nitro-store lifecycle report ==");
    if spec.small {
        println!("(NITRO_SCALE=small — miniature collections)");
    }
    println!("artifacts under {}", dir.display());

    let suites = for_each_suite(spec, &mut Lifecycle { dir: dir.clone() })?;

    for s in &suites {
        summarize(s);
        let json = to_json_pretty("lifecycle outcome", s)?;
        write_file(&dir.join(format!("{}.lifecycle.json", s.name)), &json)?;
    }

    let mut failed = false;
    for s in &suites {
        for f in &s.failures {
            eprintln!("FAIL [{}]: {f}", s.name);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("\nall lifecycle guarantees held: resume is bit-identical, corruption never installs, regressions roll back");
    Ok(())
}
