//! Chaos report: run every benchmark suite through the resilient
//! dispatcher under a seeded fault plan and assert that the guarantees
//! of `nitro-guard` hold end to end.
//!
//! ```text
//! NITRO_SCALE=small cargo run -p nitro-bench --bin chaos_report
//! ```
//!
//! Per suite the harness:
//!
//! 1. wraps the untuned `code_variant` in a [`GuardedVariant`] and
//!    dispatches a few inputs in **degraded mode** (no model installed),
//! 2. tunes cleanly, installs the artifact through the audited path and
//!    checks the guard reports itself healthy again,
//! 3. profiles the test set cleanly as ground truth, then injects an
//!    always-panicking fault into the most-predicted non-default variant
//!    and installs a process-global [`FaultPlan`] with a 5% launch
//!    failure probability,
//! 4. dispatches every test input under `catch_unwind`, counting panics
//!    that escape the guard (there must be none) and scoring successful
//!    calls against the clean exhaustive-search oracle,
//! 5. exports the metrics snapshot to `target/nitro-guard/` and checks
//!    the `guard.<fn>.{quarantine,retry,degraded}` counters are present.
//!
//! Exits non-zero if any suite lets a panic escape, never quarantines
//! the poisoned variant, never retries, never ran degraded, or drops
//! the guard counters from its exported snapshot.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nitro_bench::error::{exit_on_error, to_json_pretty, write_file, BenchResult};
use nitro_bench::{for_each_suite, pct, Suite, SuiteSpec, SuiteVisitor};
use nitro_core::{CodeVariant, Context};
use nitro_guard::{inject_failures, GuardPolicy, GuardedVariant};
use nitro_simt::{install_fault_plan, silence_injected_panics, uninstall_fault_plan, FaultPlan};
use nitro_trace::{MetricsSnapshot, RingSink, Tracer};
use nitro_tuner::{Autotuner, ProfileTable};

/// Launch failure probability of the injected fault plan.
const LAUNCH_FAILURE_PROB: f64 = 0.05;

/// How many leading test inputs are dispatched in degraded mode.
const DEGRADED_WARMUP: usize = 3;

/// Everything the summary needs from one suite's chaos run.
struct ChaosOutcome {
    name: String,
    victim: String,
    dispatches: usize,
    successes: usize,
    /// Dispatch errors on inputs with no clean finite-cost variant.
    acceptable_errors: usize,
    /// Dispatch errors on inputs the clean oracle could solve.
    unexpected_errors: usize,
    /// Panics that crossed the guard boundary. Must be zero.
    escaped_panics: usize,
    /// Mean fraction of the clean oracle's objective over successes.
    mean_relative: f64,
    quarantines: u64,
    retries: u64,
    degraded: u64,
    fallbacks: u64,
    recoveries: u64,
    /// `simt.fault.failures` — launches the plan actually killed.
    injected_launch_failures: u64,
    /// Assertion failures (empty means the suite held every guarantee).
    failures: Vec<String>,
}

/// Output directory for chaos artifacts.
fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/nitro-guard");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Policy for the chaos runs: two retries per candidate (launch-heavy
/// variants fail often under a per-launch plan, so a single retry is
/// not enough while breakers are still learning), and a quarantine
/// threshold high enough that input-dependent failures (e.g. unsolvable
/// solver systems, where *every* variant fails) do not trip breakers on
/// the fallback variants, while the always-panicking victim — which
/// charges `1 + retry_budget` failures per dispatch — still trips
/// within two calls. The short cooldown lets a half-open probe happen
/// mid-run.
fn chaos_policy() -> GuardPolicy {
    GuardPolicy {
        retry_budget: 2,
        quarantine_threshold: 6,
        cooldown_calls: 8,
        ..GuardPolicy::default()
    }
}

/// Deterministic per-suite salt so each suite sees a distinct but
/// reproducible fault stream.
fn suite_salt(name: &str) -> u64 {
    name.bytes().fold(0xCAFE_F00D_u64, |h, b| {
        h.wrapping_mul(131).wrapping_add(b as u64)
    })
}

/// Pick the variant to poison: the non-default variant the tuned model
/// predicts (and constraints allow) most often over the test set, so the
/// injected panic is guaranteed to sit on the hot dispatch path. Returns
/// the indices of the test inputs that predict it, for deterministic
/// re-dispatch if the main loop alone does not trip the breaker.
fn pick_victim<I: Send + Sync>(cv: &CodeVariant<I>, test: &[I]) -> Option<(usize, Vec<usize>)> {
    let default = cv.default_variant();
    let mut counts = vec![0usize; cv.n_variants()];
    let mut inputs: Vec<Vec<usize>> = vec![Vec::new(); cv.n_variants()];
    for (i, input) in test.iter().enumerate() {
        let (features, _) = cv.evaluate_features(input);
        if let Some(v) = cv.select(&features) {
            if Some(v) != default && cv.constraints_satisfied(v, input) {
                counts[v] += 1;
                inputs[v].push(i);
            }
        }
    }
    let victim = (0..counts.len()).max_by_key(|&v| counts[v])?;
    if counts[victim] == 0 {
        return None;
    }
    let at = std::mem::take(&mut inputs[victim]);
    Some((victim, at))
}

/// Run one suite's chaos experiment end to end.
fn chaos_suite<I: Send + Sync + 'static>(
    name: &str,
    cv: CodeVariant<I>,
    train: &[I],
    test: &[I],
    dir: &Path,
    seed: u64,
) -> BenchResult<ChaosOutcome> {
    let mut failures = Vec::new();

    let tracer = Tracer::new(Arc::new(RingSink::new(4096)));
    cv.context().install_tracer(tracer.clone());
    cv.declare_tracer_metrics(&tracer);
    // The simulator's fault counters go through the process-global slot.
    nitro_trace::install_global(tracer.clone());

    // Phase 1 — degraded mode: no model installed yet, so the guard
    // must report Degraded and serve the default variant.
    let mut guard = GuardedVariant::new(cv, chaos_policy())?;
    if !guard.health().is_degraded() {
        failures.push("guard reported Healthy with no model installed".into());
    }
    for input in test.iter().take(DEGRADED_WARMUP) {
        // Errors here are tolerated (some inputs are unsolvable by the
        // default variant); the degraded counter still advances.
        let _ = guard.call(input);
    }

    // Phase 2 — tune cleanly and recover through the audited install.
    Autotuner::new().tune(guard.inner_mut(), train)?;
    let artifact = guard.inner().export_artifact()?;
    guard.install_artifact_or_degrade(artifact);
    if guard.health().is_degraded() {
        failures.push(format!(
            "guard still degraded after audited install: {:?}",
            guard.health()
        ));
    }

    // Phase 3 — clean oracle, then poison the hot path.
    let oracle = ProfileTable::build(guard.inner(), test);
    let picked = pick_victim(guard.inner(), test);
    let (victim, victim_inputs) = match &picked {
        Some((v, at)) => (*v, at.clone()),
        None => {
            // Degenerate: the model only ever predicts the default.
            // Poison the next variant over so isolation is still tested,
            // even though quarantine may not trip.
            let d = guard.inner().default_variant().unwrap_or(0);
            ((d + 1) % guard.inner().n_variants().max(1), Vec::new())
        }
    };
    let victim_name = guard
        .inner()
        .variant(victim)
        .map(|v| v.name().to_string())
        .unwrap_or_else(|| format!("#{victim}"));
    inject_failures(guard.inner_mut(), victim, true)?;
    install_fault_plan(FaultPlan::with_failure_prob(
        seed ^ suite_salt(name),
        LAUNCH_FAILURE_PROB,
    ));

    // Phase 4 — dispatch the full test set under fault injection.
    let mut successes = 0usize;
    let mut acceptable_errors = 0usize;
    let mut unexpected_errors = 0usize;
    let mut escaped_panics = 0usize;
    let mut relative_sum = 0.0f64;
    let mut relative_n = 0usize;
    for (i, input) in test.iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| guard.call(input))) {
            Err(_) => escaped_panics += 1,
            Ok(Ok(inv)) => {
                successes += 1;
                if let Some(best) = oracle.best_cost(i) {
                    let r = oracle.objective.relative(inv.objective, best);
                    if r.is_finite() {
                        relative_sum += r;
                        relative_n += 1;
                    }
                }
            }
            Ok(Err(_)) => {
                // An exhausted cascade is acceptable only on inputs the
                // clean oracle could not solve either.
                if oracle.best_variant(i).is_none() {
                    acceptable_errors += 1;
                } else {
                    unexpected_errors += 1;
                }
            }
        }
    }

    // If the main loop alone did not trip the victim's breaker (small
    // test sets), re-dispatch its predicted inputs: every call charges
    // `1 + retry_budget` consecutive failures, so quarantine is reached
    // deterministically within a few rounds.
    let mut extra_rounds = 0;
    while guard.stats().quarantines == 0 && extra_rounds < 8 {
        let Some(&i) = victim_inputs.first() else {
            break;
        };
        if catch_unwind(AssertUnwindSafe(|| guard.call(&test[i]))).is_err() {
            escaped_panics += 1;
        }
        extra_rounds += 1;
    }

    uninstall_fault_plan();
    tracer.flush();
    nitro_trace::uninstall_global();
    guard.inner().context().clear_tracer();

    // Phase 5 — export the snapshot and check the guard counters made it.
    let metrics = tracer.metrics().snapshot();
    let metrics_json = to_json_pretty("metrics snapshot", &metrics)?;
    write_file(&dir.join(format!("{name}.metrics.json")), &metrics_json)?;
    let reparsed = MetricsSnapshot::from_json(&metrics_json).map_err(|e| {
        nitro_bench::BenchError::Invalid(format!("{name}.metrics.json does not round-trip: {e}"))
    })?;
    for key in ["quarantine", "retry", "degraded"] {
        let counter = format!("guard.{name}.{key}");
        if reparsed.counter(&counter).is_none() {
            failures.push(format!("exported snapshot is missing counter '{counter}'"));
        }
    }

    // The guarantees under test.
    if escaped_panics > 0 {
        failures.push(format!("{escaped_panics} panic(s) escaped the guard"));
    }
    let stats = guard.stats().clone();
    if stats.degraded_calls == 0 {
        failures.push("no degraded-mode dispatches were recorded".into());
    }
    if !victim_inputs.is_empty() {
        if stats.quarantines == 0 {
            failures.push(format!(
                "poisoned variant '{victim_name}' was never quarantined"
            ));
        }
        if stats.retries == 0 {
            failures.push("no failed attempt was ever retried".into());
        }
        if !guard.is_quarantined(victim) {
            // The breaker may legitimately sit HalfOpen if the cooldown
            // elapsed on the very last calls; Closed would be a bug.
            if matches!(
                guard.breaker_state(victim),
                Some(nitro_guard::BreakerState::Closed {
                    consecutive_failures: 0
                })
            ) {
                failures.push(format!(
                    "poisoned variant '{victim_name}' ended Closed with a clean streak"
                ));
            }
        }
    }
    let tolerated = (test.len() / 5).max(1);
    if unexpected_errors > tolerated {
        failures.push(format!(
            "{unexpected_errors} dispatch error(s) on cleanly-solvable inputs (tolerance {tolerated})"
        ));
    }

    Ok(ChaosOutcome {
        name: name.to_string(),
        victim: victim_name,
        dispatches: test.len(),
        successes,
        acceptable_errors,
        unexpected_errors,
        escaped_panics,
        mean_relative: if relative_n > 0 {
            relative_sum / relative_n as f64
        } else {
            0.0
        },
        quarantines: stats.quarantines,
        retries: stats.retries,
        degraded: stats.degraded_calls,
        fallbacks: stats.fallbacks,
        recoveries: stats.recoveries,
        injected_launch_failures: metrics.counter("simt.fault.failures").unwrap_or(0),
        failures,
    })
}

fn summarize(o: &ChaosOutcome) {
    println!("\n== {} ==", o.name);
    println!(
        "  poisoned variant: {} · injected launch failures: {}",
        o.victim, o.injected_launch_failures
    );
    println!(
        "  dispatch: {} call(s), {} ok, {} tolerated error(s), {} unexpected, {} escaped panic(s)",
        o.dispatches, o.successes, o.acceptable_errors, o.unexpected_errors, o.escaped_panics
    );
    println!(
        "  guard: {} retr{}, {} quarantine(s), {} recover{}, {} fallback(s), {} degraded call(s)",
        o.retries,
        if o.retries == 1 { "y" } else { "ies" },
        o.quarantines,
        o.recoveries,
        if o.recoveries == 1 { "y" } else { "ies" },
        o.fallbacks,
        o.degraded
    );
    if o.successes > 0 {
        println!(
            "  mean performance vs clean oracle: {}",
            pct(o.mean_relative)
        );
    }
}

struct Chaos {
    seed: u64,
    dir: PathBuf,
}

impl SuiteVisitor for Chaos {
    type Output = ChaosOutcome;
    fn visit<I: Send + Sync + 'static>(
        &mut self,
        suite: Suite<'_, I>,
    ) -> BenchResult<Self::Output> {
        let cv = (suite.build)(&Context::new());
        let (train, test) = (suite.train, suite.test);
        chaos_suite(suite.name, cv, train, test, &self.dir, self.seed)
    }
}

fn main() {
    exit_on_error(run());
}

fn run() -> BenchResult<()> {
    silence_injected_panics();
    let spec = SuiteSpec::from_env()?;
    let dir = out_dir();
    println!("== nitro-guard chaos report ==");
    if spec.small {
        println!("(NITRO_SCALE=small — miniature collections)");
    }
    println!(
        "fault plan: {}% launch failures (seed {}) + one always-panicking variant per suite",
        LAUNCH_FAILURE_PROB * 100.0,
        spec.seed
    );
    println!("artifacts under {}", dir.display());

    let seed = spec.seed;
    let suites = for_each_suite(spec, &mut Chaos { seed, dir })?;

    for s in &suites {
        summarize(s);
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
    println!("\nall chaos guarantees held: no panic escaped the guard");
    Ok(())
}
