//! Whole-stack chaos campaign over the serving front door: seeded
//! faults on every layer, request-lineage conservation checking, and a
//! deterministic-replay gate.
//!
//! ```text
//! NITRO_SCALE=small cargo run -p nitro-bench --release --bin chaos_serve_report
//! ```
//!
//! Two phases, one [`ChaosPlan`] seed:
//!
//! * **Phase A — lockstep replay.** A supervised [`ServeFront`] on a
//!   *manual* clock is driven one request at a time through a campaign
//!   of shard-killing requests, a poison pill, clock-skew jumps and
//!   alert storms. Restart backoff reads the serve clock, so the test
//!   advances time deterministically and waits out every death before
//!   the next submission. The whole campaign runs **twice** and the
//!   per-request outcome sequence plus every supervision counter must
//!   match exactly.
//! * **Phase B — concurrent storm.** A wall-clock front with real simt
//!   kernel launches runs the campaign concurrently: seeded launch
//!   faults ([`FaultPlan`](nitro_simt::FaultPlan)), zipf tenants, grenade
//!   and poison requests,
//!   skew jumps through [`ServeClock::skewed`], alert storms with
//!   relaxes, and mid-campaign model publishes through an
//!   [`ArtifactStore`] whose filesystem runs under the plan's
//!   [`ChaosFs`](nitro_core::fsio::ChaosFs) — only checksum-verified artifacts
//!   (`load_latest_intact`) are ever handed to the front.
//!
//! Writes `target/BENCH_chaos.json` (plus plans and per-run outcome
//! dumps under `target/nitro-chaos/`) and exits nonzero if any gate
//! fails: a conservation violation, a panic past the worker backstop, a
//! killed shard neither recovered nor retired, an unquarantined poison
//! pill, an untyped store error, a corrupt artifact served, fewer than
//! three fault classes exercised, or a replay divergence.

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
    Rejection, ServeClock, ServeConfig, ServeFront, ServeOutcome, ShardState, SupervisorConfig,
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

/// Serve-clock allowance that covers any restart backoff the campaign
/// can arm (budget 4 → worst backoff 16 ms).
const HEAL_ADVANCE_NS: u64 = 100_000_000;

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

/// Per-attempt launch salt (phase B): injected launch failures redraw
/// per attempt, so guard retries can rescue an unlucky launch.
static LAUNCH_SALT: AtomicU64 = AtomicU64::new(0);

fn attempt_seed(base: u64) -> u64 {
    let salt = LAUNCH_SALT.fetch_add(1, Ordering::Relaxed);
    base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The served registration. The *feature* detonates kill/poison
/// payloads — feature panics escape the guard (which only absorbs
/// variant-body panics) and hit the worker backstop, which is exactly
/// the seam shard supervision exists for. `launches` switches the
/// variant bodies between real simt kernel launches (phase B, so the
/// fault plan can kill them) and pure math (phase A, deterministic).
fn chaos_cv(ctx: &Context, launches: bool) -> CodeVariant<ChaosInput> {
    let mut cv = CodeVariant::new("chaos", ctx);
    if launches {
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
        {
            let cfg = cfg.clone();
            cv.add_variant(FnVariant::new("thorough", move |inp: &ChaosInput| {
                let gpu = Gpu::with_seed(cfg.clone(), attempt_seed(inp.gpu_seed ^ 0xA5A5));
                let work = 6_000 + (inp.x * 100.0) as u64;
                let stats = gpu.launch("chaos_thorough", 2, Schedule::Dynamic, |_b, bctx| {
                    bctx.charge_ops(work);
                });
                stats.elapsed_ns
            }));
        }
    } else {
        cv.add_variant(FnVariant::new("lean", |inp: &ChaosInput| 1.0 + inp.x));
        cv.add_variant(FnVariant::new("thorough", |inp: &ChaosInput| {
            10.0 - inp.x * 0.5
        }));
    }
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

fn artifact_with(model: TrainedModel, launches: bool) -> BenchResult<ModelArtifact> {
    let ctx = Context::new();
    let mut cv = chaos_cv(&ctx, launches);
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

fn rejection_class(rejection: &Rejection) -> &'static str {
    match rejection {
        Rejection::DeadlineExpired => "rejected_expired",
        Rejection::TenantThrottled => "rejected_tenant",
        Rejection::QueueFull { .. } => "rejected_queue",
        Rejection::NoLiveShards => "rejected_no_live_shards",
    }
}

fn histogram(classes: &[String]) -> Vec<(String, u64)> {
    let mut h = BTreeMap::new();
    for c in classes {
        *h.entry(c.clone()).or_insert(0u64) += 1;
    }
    h.into_iter().collect()
}

/// Everything one lockstep run produced that the replay gate compares.
#[derive(Serialize, PartialEq, Clone)]
struct LockstepTrace {
    classes: Vec<String>,
    shard_deaths: u64,
    shard_restarts: u64,
    shards_retired: u64,
    poison_quarantined: u64,
    escaped_panics: u64,
    /// `(shard, lineage)` of every escaped panic, in order.
    panic_attribution: Vec<(usize, u64)>,
    final_states: Vec<ShardState>,
}

struct LockstepRun {
    trace: LockstepTrace,
    conserved: bool,
    violations: Vec<String>,
    diagnostic_codes: Vec<String>,
    workers_failed: usize,
}

/// Drive the plan's campaign in lockstep on a manual clock: one request
/// in flight at a time, serve-time advanced deterministically, every
/// shard death waited out (restart or retirement) before the next
/// submission. Under a fixed seed this is exactly reproducible.
fn lockstep_run(plan: &ChaosPlan) -> BenchResult<LockstepRun> {
    let (clock, hand) = ServeClock::manual();
    let config = ServeConfig {
        shards: 3,
        queue_capacity: Some(32),
        tenant_slots: 64,
        tenant_rate_per_s: 1_000_000.0,
        tenant_burst: 10_000,
        hopeless_shedding: false,
        supervision: SupervisorConfig::default(),
        ..ServeConfig::default()
    };
    let front = ServeFront::start(config, GuardPolicy::default(), clock.clone(), None, |_| {
        chaos_cv(&Context::new(), false)
    })
    .map_err(BenchError::Nitro)?;
    front.publish_artifact(artifact_with(split_model(0, 1), false)?);

    let mut tenants = ZipfSampler::new(12, 1.2, plan.seed);
    let mut classes = Vec::with_capacity(plan.requests as usize);
    for i in 0..plan.requests {
        if let Some(ns) = plan.skew_at(i) {
            hand.fetch_add(ns, Ordering::SeqCst);
        }
        if let Some(pages) = plan.storm_at(i) {
            for _ in 0..pages {
                front.ingest_alert(&page_alert());
            }
        }
        let tenant = tenants.next_rank() as u32;
        let x = (mix64(plan.seed ^ i) % 1_000) as f64 / 100.0;
        let priority = match i % 3 {
            0 => Priority::Interactive,
            1 => Priority::Standard,
            _ => Priority::Batch,
        };
        let meta = RequestMeta::new(TenantId(tenant), priority, clock.now_ns(), BUDGET_NS);
        let input = ChaosInput {
            x,
            gpu_seed: 0,
            payload: payload_for(plan, i),
        };
        let class = match front.submit(input, meta) {
            Ok(ticket) => outcome_class(&ticket.wait()).to_string(),
            Err(r) => rejection_class(&r).to_string(),
        };
        classes.push(class);
        hand.fetch_add(10_000, Ordering::SeqCst);
        // Heal before the next request: advance past any restart
        // backoff and wait until no shard is Dead (Up or Retired both
        // count — retirement is a legitimate terminal answer).
        if front.shard_states().contains(&ShardState::Dead) {
            hand.fetch_add(HEAL_ADVANCE_NS, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(5);
            while front.shard_states().contains(&ShardState::Dead) {
                if Instant::now() > deadline {
                    return Err(BenchError::Invalid(format!(
                        "shard stuck Dead after request {i} despite healed clock"
                    )));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    let final_states = front.shard_states();
    let summary = front.shutdown();
    let accounting = summary.accounting;
    Ok(LockstepRun {
        trace: LockstepTrace {
            classes,
            shard_deaths: summary.shard_deaths,
            shard_restarts: summary.shard_restarts,
            shards_retired: summary.shards_retired,
            poison_quarantined: summary.accounting.quarantined,
            escaped_panics: summary.escaped_panics,
            panic_attribution: summary
                .panic_records
                .iter()
                .map(|r| (r.shard, r.lineage))
                .collect(),
            final_states,
        },
        conserved: accounting.is_conserved(),
        violations: accounting.violations(),
        diagnostic_codes: summary.diagnostics.iter().map(|d| d.code.clone()).collect(),
        workers_failed: summary.workers_failed,
    })
}

#[derive(Serialize)]
struct PhaseAReport {
    requests: u64,
    outcomes: Vec<(String, u64)>,
    shard_deaths: u64,
    shard_restarts: u64,
    shards_retired: u64,
    poison_quarantined: u64,
    escaped_panics: u64,
    conserved: bool,
    replay_identical: bool,
    diagnostic_codes: Vec<String>,
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
    deterministic_replay: bool,
    conservation_phase_a: bool,
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
    phase_a: PhaseAReport,
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
        |_| chaos_cv(&Context::new(), true),
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
            match store.publish(&artifact_with(model, true)?, "chaos publish") {
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
    let requests_a = if spec.small { 120 } else { 400 };
    let requests_b = if spec.small { 240 } else { 960 };

    // Phase A exercises the deterministic layers only: launch and fs
    // probabilities are zeroed so the lockstep replay is bit-exact.
    let mut plan_a = ChaosPlan::from_seed(seed, requests_a);
    plan_a.launch_failure_prob = 0.0;
    plan_a.slowdown_prob = 0.0;
    plan_a.fs_torn_write = 0.0;
    plan_a.fs_no_space = 0.0;
    plan_a.fs_read_error = 0.0;
    plan_a.fs_rename_failed = 0.0;
    let plan_b = ChaosPlan::from_seed(seed ^ 0xB00B, requests_b);

    let dir = out_dir();
    write_file(
        &dir.join("plan_a.json"),
        &to_json_pretty("phase A plan", &plan_a)?,
    )?;
    write_file(
        &dir.join("plan_b.json"),
        &to_json_pretty("phase B plan", &plan_b)?,
    )?;

    // ---- Phase A: the same campaign, twice --------------------------
    let run1 = lockstep_run(&plan_a)?;
    let run2 = lockstep_run(&plan_a)?;
    let replay_identical = run1.trace == run2.trace;
    write_file(
        &dir.join("lockstep_run1.json"),
        &to_json_pretty("lockstep run 1", &run1.trace)?,
    )?;
    write_file(
        &dir.join("lockstep_run2.json"),
        &to_json_pretty("lockstep run 2", &run2.trace)?,
    )?;

    let mut failures = Vec::new();
    if !replay_identical {
        failures.push("phase A replay diverged between identically-seeded runs".to_string());
    }
    for (label, run) in [("run 1", &run1), ("run 2", &run2)] {
        if !run.conserved {
            failures.push(format!(
                "phase A {label} conservation violated: {}",
                run.violations.join("; ")
            ));
        }
        if run.workers_failed > 0 {
            failures.push(format!(
                "phase A {label}: {} worker(s) died past the backstop",
                run.workers_failed
            ));
        }
        if run.diagnostic_codes.iter().any(|c| c == "NITRO114") {
            failures.push(format!("phase A {label} raised NITRO114"));
        }
    }
    if run1.trace.final_states.contains(&ShardState::Dead) {
        failures.push(format!(
            "phase A ended with a shard stuck Dead: {:?}",
            run1.trace.final_states
        ));
    }
    if run1.trace.shard_deaths == 0 || run1.trace.shard_restarts == 0 {
        failures.push(format!(
            "phase A campaign never exercised supervision (deaths {}, restarts {})",
            run1.trace.shard_deaths, run1.trace.shard_restarts
        ));
    }
    if run1.trace.poison_quarantined == 0 {
        failures.push("phase A poison pill was never quarantined".to_string());
    }
    for code in ["NITRO110", "NITRO112"] {
        if !run1.trace.shards_retired > 0 && !run1.diagnostic_codes.iter().any(|c| c == code) {
            failures.push(format!("phase A never emitted {code}"));
        }
    }

    let phase_a = PhaseAReport {
        requests: plan_a.requests,
        outcomes: histogram(&run1.trace.classes),
        shard_deaths: run1.trace.shard_deaths,
        shard_restarts: run1.trace.shard_restarts,
        shards_retired: run1.trace.shards_retired,
        poison_quarantined: run1.trace.poison_quarantined,
        escaped_panics: run1.trace.escaped_panics,
        conserved: run1.conserved && run2.conserved,
        replay_identical,
        diagnostic_codes: run1.diagnostic_codes.clone(),
    };

    // ---- Phase B: the concurrent storm ------------------------------
    let storm = storm_run(&plan_b)?;
    failures.extend(storm.failures.iter().cloned());

    // ---- Fault-class coverage ---------------------------------------
    let mut fault_classes: Vec<String> = plan_a
        .fault_classes()
        .into_iter()
        .chain(plan_b.fault_classes())
        .map(str::to_string)
        .collect();
    fault_classes.sort_unstable();
    fault_classes.dedup();
    if fault_classes.len() < 3 {
        failures.push(format!(
            "campaign exercised only {} fault class(es): {fault_classes:?}",
            fault_classes.len()
        ));
    }

    let gates = Gates {
        deterministic_replay: replay_identical,
        conservation_phase_a: run1.conserved && run2.conserved,
        conservation_phase_b: storm.report.conserved,
        zero_backstop_escapes: run1.workers_failed == 0
            && run2.workers_failed == 0
            && storm.report.workers_failed == 0,
        killed_shards_recovered_or_retired: !run1
            .trace
            .final_states
            .iter()
            .chain(&storm.report.final_states)
            .any(|s| *s == ShardState::Dead),
        poison_pills_quarantined: run1.trace.poison_quarantined > 0
            && (!storm.report.poison_admitted || storm.report.poison_quarantined > 0),
        store_faults_typed: storm.report.store.publish_faults_untyped == 0,
        zero_corrupt_artifacts_served: storm.report.store.intact_loads_published > 0
            && storm.report.store.publish_faults_untyped == 0,
        min_fault_classes: fault_classes.len() >= 3,
    };

    let report = ChaosServeReport {
        scale: if spec.small { "small" } else { "full" }.to_string(),
        seed,
        fault_classes,
        phase_a,
        phase_b: storm.report,
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
        "  phase A (lockstep ×2): {} requests · deaths {} · restarts {} · retired {} · \
         quarantined {} · replay {}",
        report.phase_a.requests,
        report.phase_a.shard_deaths,
        report.phase_a.shard_restarts,
        report.phase_a.shards_retired,
        report.phase_a.poison_quarantined,
        if report.phase_a.replay_identical {
            "identical"
        } else {
            "DIVERGED"
        },
    );
    println!("  phase A outcomes: {:?}", report.phase_a.outcomes);
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
