//! Whole-stack chaos campaign over the serving front door: seeded
//! faults on every layer at once, with request-lineage conservation
//! checking.
//!
//! ```text
//! NITRO_SCALE=small cargo run -p nitro-bench --release --bin chaos_serve_report
//! ```
//!
//! **Phase B — concurrent storm.** A supervised wall-clock
//! [`ServeFront`] with real simt kernel launches runs one [`ChaosPlan`]
//! campaign concurrently: seeded launch faults
//! ([`FaultPlan`](nitro_simt::FaultPlan)), zipf tenants, shard-killing
//! and poison requests, skew jumps through [`ServeClock::skewed`], alert
//! storms with relaxes, and mid-campaign model publishes through an
//! [`ArtifactStore`] whose filesystem runs under the plan's
//! [`ChaosFs`](nitro_core::fsio::ChaosFs) — only checksum-verified
//! artifacts (`load_latest_intact`) are ever handed to the front.
//! (Phase A, the lockstep campaign run twice on a manual clock for
//! deterministic replay, is the tier-1 test `tests/lineage.rs`.)
//!
//! Writes `target/BENCH_chaos.json` (plus the plan under
//! `target/nitro-chaos/`) and exits nonzero if any gate fails: a
//! conservation violation, a panic past the worker backstop, a killed
//! shard neither recovered nor retired, an unquarantined poison pill,
//! an untyped store error, a corrupt artifact served, or fewer than
//! three fault classes exercised.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nitro_bench::error::{exit_on_error, to_json_pretty, write_file, BenchError, BenchResult};
use nitro_bench::{device, SuiteSpec, ZipfSampler};
use nitro_core::context::temp_model_dir;
use nitro_core::{
    mix64, CodeVariant, Context, FnFeature, FnVariant, ModelArtifact, NitroError, Priority,
    RequestMeta, RetryPolicy, TenantId,
};
use nitro_guard::{ChaosPlan, GuardPolicy};
use nitro_ml::{ClassifierConfig, Dataset, TrainedModel};
use nitro_pulse::{AlertKind, AlertSeverity, PulseAlert};
use nitro_serve::{
    ServeClock, ServeConfig, ServeFront, ServeOutcome, ShardState, SupervisorConfig,
};
use nitro_simt::{
    install_fault_plan, silence_injected_panics, uninstall_fault_plan, Gpu, Schedule,
    INJECTED_PANIC_PREFIX,
};
use nitro_store::ArtifactStore;
use nitro_trace::{MetricsRegistry, RingSink, Tracer};
use serde::Serialize;

/// Deadline budget on every request — generous, so chaos is absorbed by
/// supervision and shedding, not by deadline misses.
const BUDGET_NS: u64 = 500_000_000;

/// What a request carries besides its feature value.
#[derive(Clone)]
enum Payload {
    /// Plain traffic.
    Healthy,
    /// Kills the shard that dispatches it — once (the fuse disarms),
    /// so the re-placed request then succeeds on a surviving shard.
    Kill(Arc<AtomicBool>),
    /// Kills every shard that dispatches it, until quarantined.
    Poison,
}

#[derive(Clone)]
struct ChaosInput {
    x: f64,
    gpu_seed: u64,
    payload: Payload,
}

/// Per-attempt launch salt: injected launch failures redraw
/// per attempt, so guard retries can rescue an unlucky launch.
static LAUNCH_SALT: AtomicU64 = AtomicU64::new(0);

fn attempt_seed(base: u64) -> u64 {
    let salt = LAUNCH_SALT.fetch_add(1, Ordering::Relaxed);
    base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The served registration. The *feature* detonates kill/poison
/// payloads — feature panics escape the guard (which only absorbs
/// variant-body panics) and hit the worker backstop, which is exactly
/// the seam shard supervision exists for. The variant bodies are real
/// simt kernel launches, so the fault plan can kill them.
fn chaos_cv(ctx: &Context) -> CodeVariant<ChaosInput> {
    let mut cv = CodeVariant::new("chaos", ctx);
    let cfg = device();
    {
        let cfg = cfg.clone();
        cv.add_variant(FnVariant::new("lean", move |inp: &ChaosInput| {
            let gpu = Gpu::with_seed(cfg.clone(), attempt_seed(inp.gpu_seed));
            let work = 2_000 + (inp.x * 400.0) as u64;
            let stats = gpu.launch("chaos_lean", 1, Schedule::EvenShare, |_b, bctx| {
                bctx.charge_ops(work);
            });
            stats.elapsed_ns
        }));
    }
    cv.add_variant(FnVariant::new("thorough", move |inp: &ChaosInput| {
        let gpu = Gpu::with_seed(cfg.clone(), attempt_seed(inp.gpu_seed ^ 0xA5A5));
        let work = 6_000 + (inp.x * 100.0) as u64;
        let stats = gpu.launch("chaos_thorough", 2, Schedule::Dynamic, |_b, bctx| {
            bctx.charge_ops(work);
        });
        stats.elapsed_ns
    }));
    cv.set_default(0);
    cv.add_input_feature(FnFeature::new("x", |inp: &ChaosInput| {
        match &inp.payload {
            Payload::Healthy => {}
            Payload::Kill(fuse) => {
                if fuse.swap(false, Ordering::SeqCst) {
                    panic!("{INJECTED_PANIC_PREFIX}shard-kill request detonated");
                }
            }
            Payload::Poison => panic!("{INJECTED_PANIC_PREFIX}poison-pill request detonated"),
        }
        inp.x
    }));
    cv
}

/// k=1 KNN mapping x < 5 → variant `lo`, x ≥ 5 → variant `hi`.
fn split_model(lo: usize, hi: usize) -> TrainedModel {
    let data = Dataset::from_parts(
        (0..10).map(|i| vec![f64::from(i)]).collect(),
        (0..10).map(|i| if i >= 5 { hi } else { lo }).collect(),
    );
    TrainedModel::train(&ClassifierConfig::Knn { k: 1 }, &data)
}

fn artifact_with(model: TrainedModel) -> BenchResult<ModelArtifact> {
    let ctx = Context::new();
    let mut cv = chaos_cv(&ctx);
    cv.install_model(model);
    cv.export_artifact().map_err(BenchError::Nitro)
}

fn page_alert() -> PulseAlert {
    PulseAlert {
        slo: "chaos-p99".into(),
        kind: AlertKind::LatencyRegression,
        severity: AlertSeverity::Page,
        metric: "serve.chaos.e2e_latency_ns".into(),
        observed: 2.0,
        threshold: 1.0,
        window_ticks: 1,
    }
}

fn payload_for(plan: &ChaosPlan, i: u64) -> Payload {
    if plan.kills_at(i) {
        Payload::Kill(Arc::new(AtomicBool::new(true)))
    } else if plan.poison_at(i) {
        Payload::Poison
    } else {
        Payload::Healthy
    }
}

fn outcome_class(outcome: &ServeOutcome) -> &'static str {
    match outcome {
        ServeOutcome::Served { .. } => "served",
        ServeOutcome::ShedExpired { .. } => "shed_expired",
        ServeOutcome::ShedHopeless { .. } => "shed_hopeless",
        ServeOutcome::ShedFailover { .. } => "shed_failover",
        ServeOutcome::Quarantined { .. } => "quarantined",
        ServeOutcome::Failed { .. } => "failed",
    }
}

fn histogram(classes: &[String]) -> Vec<(String, u64)> {
    let mut h = BTreeMap::new();
    for c in classes {
        *h.entry(c.clone()).or_insert(0u64) += 1;
    }
    h.into_iter().collect()
}

#[derive(Serialize)]
struct StoreChurn {
    publishes_attempted: u64,
    publishes_ok: u64,
    publish_faults_typed: u64,
    publish_faults_untyped: u64,
    corrupt_versions_skipped: u64,
    intact_loads_published: u64,
}

#[derive(Serialize)]
struct PhaseBReport {
    requests: u64,
    admitted: u64,
    rejected: u64,
    outcomes: Vec<(String, u64)>,
    shard_deaths: u64,
    shard_restarts: u64,
    shards_retired: u64,
    poison_quarantined: u64,
    poison_admitted: bool,
    escaped_panics: u64,
    panic_records: u64,
    workers_failed: usize,
    conserved: bool,
    violations: Vec<String>,
    final_states: Vec<ShardState>,
    skew_jumps_applied: u64,
    alert_pages_ingested: u64,
    store: StoreChurn,
    injected_launch_faults: u64,
}

#[derive(Serialize)]
struct Gates {
    conservation_phase_b: bool,
    zero_backstop_escapes: bool,
    killed_shards_recovered_or_retired: bool,
    poison_pills_quarantined: bool,
    store_faults_typed: bool,
    zero_corrupt_artifacts_served: bool,
    min_fault_classes: bool,
}

#[derive(Serialize)]
struct ChaosServeReport {
    scale: String,
    seed: u64,
    fault_classes: Vec<String>,
    phase_b: PhaseBReport,
    gates: Gates,
    failures: Vec<String>,
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/nitro-chaos");
    std::fs::create_dir_all(&dir).ok();
    dir
}

fn out_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/BENCH_chaos.json")
}

struct PhaseBOutcome {
    report: PhaseBReport,
    failures: Vec<String>,
}

/// The concurrent storm: wall clock, every fault layer at once.
fn storm_run(plan: &ChaosPlan) -> BenchResult<PhaseBOutcome> {
    // The simulator's fault counters go through the process-global
    // tracer slot, not the serve registry.
    let tracer = Tracer::new(Arc::new(RingSink::new(4_096)));
    nitro_trace::install_global(tracer.clone());
    install_fault_plan(plan.fault_plan());
    let (clock, skew) = ServeClock::skewed();
    let registry = MetricsRegistry::new();
    let config = ServeConfig {
        shards: 4,
        queue_capacity: Some(32),
        tenant_slots: 64,
        tenant_rate_per_s: 100_000.0,
        tenant_burst: 4_096,
        hopeless_shedding: false,
        supervision: SupervisorConfig::default(),
        ..ServeConfig::default()
    };
    let front = ServeFront::start(
        config,
        GuardPolicy {
            retry_budget: 2,
            ..GuardPolicy::default()
        },
        clock.clone(),
        Some(&registry),
        |_| chaos_cv(&Context::new()),
    )
    .map_err(BenchError::Nitro)?;

    // The model pipeline under filesystem chaos: publishes land in an
    // ArtifactStore whose every fs op consults the plan's ChaosFs, and
    // only checksum-verified loads are ever handed to the front.
    let store_dir = temp_model_dir("chaos-serve-store").map_err(BenchError::Nitro)?;
    let mut store = ArtifactStore::open(&store_dir, "chaos").map_err(BenchError::Nitro)?;
    store.set_fs_policy(Some(Arc::new(plan.fs_policy())));
    store.set_retry(RetryPolicy {
        max_attempts: 4,
        backoff_base_ns: 1_000,
        ..RetryPolicy::default()
    });

    let mut churn = StoreChurn {
        publishes_attempted: 0,
        publishes_ok: 0,
        publish_faults_typed: 0,
        publish_faults_untyped: 0,
        corrupt_versions_skipped: 0,
        intact_loads_published: 0,
    };
    let publish_every = (plan.requests / 6).max(1);
    let mut tenants = ZipfSampler::new(16, 1.2, plan.seed ^ 0xB0B);
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    let mut poison_admitted = false;
    let mut skew_jumps = 0u64;
    let mut pages_ingested = 0u64;
    let mut pending_relax: Vec<(u64, u32)> = Vec::new();

    for i in 0..plan.requests {
        if let Some(ns) = plan.skew_at(i) {
            skew.fetch_add(ns, Ordering::SeqCst);
            skew_jumps += 1;
        }
        if let Some(pages) = plan.storm_at(i) {
            for _ in 0..pages {
                front.ingest_alert(&page_alert());
            }
            pages_ingested += u64::from(pages);
            pending_relax.push((i + plan.requests / 10 + 1, pages));
        }
        pending_relax.retain(|&(at, pages)| {
            if i >= at {
                for _ in 0..pages {
                    front.relax();
                }
                false
            } else {
                true
            }
        });
        if i % publish_every == publish_every / 2 {
            churn.publishes_attempted += 1;
            let model = if churn.publishes_attempted.is_multiple_of(2) {
                split_model(0, 1)
            } else {
                split_model(1, 1)
            };
            match store.publish(&artifact_with(model)?, "chaos publish") {
                Ok(_) => churn.publishes_ok += 1,
                Err(NitroError::Io(_)) | Err(NitroError::Audit { .. }) => {
                    churn.publish_faults_typed += 1;
                }
                Err(_) => churn.publish_faults_untyped += 1,
            }
            let (loaded, diags) = store.load_latest_intact();
            churn.corrupt_versions_skipped += diags.len() as u64;
            if let Some((_, artifact)) = loaded {
                front.publish_artifact(artifact);
                churn.intact_loads_published += 1;
            }
        }

        let payload = payload_for(plan, i);
        let is_poison = matches!(payload, Payload::Poison);
        let tenant = tenants.next_rank() as u32;
        let x = (mix64(plan.seed ^ i) % 1_000) as f64 / 100.0;
        let priority = if is_poison {
            Priority::Interactive // poison must be admitted to be quarantined
        } else {
            match i % 4 {
                0 => Priority::Interactive,
                3 => Priority::Batch,
                _ => Priority::Standard,
            }
        };
        let meta = RequestMeta::new(TenantId(tenant), priority, clock.now_ns(), BUDGET_NS);
        let input = ChaosInput {
            x,
            gpu_seed: plan.seed ^ (i << 8),
            payload,
        };
        match front.submit(input, meta) {
            Ok(ticket) => {
                poison_admitted |= is_poison;
                tickets.push(ticket);
            }
            Err(_) => rejected += 1,
        }
        std::thread::sleep(Duration::from_micros(200));
    }

    let admitted = tickets.len() as u64;
    let mut classes = Vec::with_capacity(tickets.len());
    for ticket in tickets {
        classes.push(outcome_class(&ticket.wait()).to_string());
    }

    // Let supervision finish healing before the books close: every
    // shard must end Up or Retired, never stuck Dead.
    let deadline = Instant::now() + Duration::from_secs(5);
    while front.shard_states().contains(&ShardState::Dead) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let final_states = front.shard_states();
    let injected_launch_faults = tracer
        .metrics()
        .snapshot()
        .counter("simt.fault.failures")
        .unwrap_or(0);
    let summary = front.shutdown();
    uninstall_fault_plan();
    nitro_trace::uninstall_global();
    std::fs::remove_dir_all(&store_dir).ok();

    let accounting = summary.accounting;
    let mut failures = Vec::new();
    if !accounting.is_conserved() {
        failures.push(format!(
            "phase B conservation violated: {}",
            accounting.violations().join("; ")
        ));
    }
    if summary.workers_failed > 0 {
        failures.push(format!(
            "{} worker(s) died past the panic backstop in phase B",
            summary.workers_failed
        ));
    }
    if summary.panic_records.len() as u64 != summary.escaped_panics {
        failures.push(format!(
            "{} escaped panic(s) but only {} attributed panic record(s)",
            summary.escaped_panics,
            summary.panic_records.len()
        ));
    }
    if final_states.contains(&ShardState::Dead) {
        failures.push(format!(
            "a killed shard was never restarted nor retired: {final_states:?}"
        ));
    }
    if summary.shard_deaths > 0 && summary.shard_restarts + summary.shards_retired == 0 {
        failures.push("shards died but the supervisor never acted".to_string());
    }
    if poison_admitted && summary.accounting.quarantined == 0 {
        failures.push("an admitted poison pill was never quarantined".to_string());
    }
    if churn.publish_faults_untyped > 0 {
        failures.push(format!(
            "{} store fault(s) surfaced as untyped errors",
            churn.publish_faults_untyped
        ));
    }
    if churn.intact_loads_published == 0 {
        failures.push("no checksum-verified artifact ever reached the front".to_string());
    }

    Ok(PhaseBOutcome {
        report: PhaseBReport {
            requests: plan.requests,
            admitted,
            rejected,
            outcomes: histogram(&classes),
            shard_deaths: summary.shard_deaths,
            shard_restarts: summary.shard_restarts,
            shards_retired: summary.shards_retired,
            poison_quarantined: summary.accounting.quarantined,
            poison_admitted,
            escaped_panics: summary.escaped_panics,
            panic_records: summary.panic_records.len() as u64,
            workers_failed: summary.workers_failed,
            conserved: accounting.is_conserved(),
            violations: accounting.violations(),
            final_states,
            skew_jumps_applied: skew_jumps,
            alert_pages_ingested: pages_ingested,
            store: churn,
            injected_launch_faults,
        },
        failures,
    })
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    silence_injected_panics();

    // `NITRO_CHAOS_SEED` re-rolls the whole campaign; every gate must
    // hold for any seed.
    let seed = std::env::var("NITRO_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(spec.seed);
    let requests = if spec.small { 240 } else { 960 };
    let plan = ChaosPlan::from_seed(seed ^ 0xB00B, requests);
    write_file(
        &out_dir().join("plan_b.json"),
        &to_json_pretty("phase B plan", &plan)?,
    )?;

    let PhaseBOutcome {
        report: phase_b,
        mut failures,
    } = storm_run(&plan)?;

    // ---- Fault-class coverage ---------------------------------------
    let mut fault_classes: Vec<String> = plan
        .fault_classes()
        .into_iter()
        .map(str::to_string)
        .collect();
    fault_classes.sort_unstable();
    if fault_classes.len() < 3 {
        failures.push(format!(
            "campaign exercised only {} fault class(es): {fault_classes:?}",
            fault_classes.len()
        ));
    }

    let gates = Gates {
        conservation_phase_b: phase_b.conserved,
        zero_backstop_escapes: phase_b.workers_failed == 0,
        killed_shards_recovered_or_retired: !phase_b.final_states.contains(&ShardState::Dead),
        poison_pills_quarantined: !phase_b.poison_admitted || phase_b.poison_quarantined > 0,
        store_faults_typed: phase_b.store.publish_faults_untyped == 0,
        zero_corrupt_artifacts_served: phase_b.store.intact_loads_published > 0
            && phase_b.store.publish_faults_untyped == 0,
        min_fault_classes: fault_classes.len() >= 3,
    };

    let report = ChaosServeReport {
        scale: if spec.small { "small" } else { "full" }.to_string(),
        seed,
        fault_classes,
        phase_b,
        gates,
        failures: failures.clone(),
    };

    let path = out_path();
    write_file(&path, &to_json_pretty("chaos serve report", &report)?)?;
    print_summary(&report, &path);

    if failures.is_empty() {
        Ok(())
    } else {
        Err(BenchError::Invalid(format!(
            "chaos serve report failed {} gate(s): {}",
            failures.len(),
            failures.join("; ")
        )))
    }
}

fn print_summary(report: &ChaosServeReport, path: &Path) {
    println!(
        "chaos_serve_report ({} scale, seed {:#x}, fault classes: {})",
        report.scale,
        report.seed,
        report.fault_classes.join(", ")
    );
    println!(
        "  phase B (storm): {} requests · {} admitted · deaths {} · restarts {} · \
         quarantined {} · launch faults {} · conserved {}",
        report.phase_b.requests,
        report.phase_b.admitted,
        report.phase_b.shard_deaths,
        report.phase_b.shard_restarts,
        report.phase_b.poison_quarantined,
        report.phase_b.injected_launch_faults,
        report.phase_b.conserved,
    );
    println!("  phase B outcomes: {:?}", report.phase_b.outcomes);
    println!(
        "  store churn: {} publish(es), {} ok, {} typed fault(s), {} corrupt skipped, \
         {} verified load(s) served",
        report.phase_b.store.publishes_attempted,
        report.phase_b.store.publishes_ok,
        report.phase_b.store.publish_faults_typed,
        report.phase_b.store.corrupt_versions_skipped,
        report.phase_b.store.intact_loads_published,
    );
    if report.failures.is_empty() {
        println!("  all gates passed → {}", path.display());
    } else {
        for f in &report.failures {
            eprintln!("  GATE FAILED: {f}");
        }
    }
}

fn main() {
    exit_on_error(run());
}
