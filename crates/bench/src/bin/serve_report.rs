//! Serving report: drive the `nitro-serve` front door on the wall clock
//! through an overload ramp and then a whole-stack chaos storm, and
//! assert that the serving guarantees hold end to end.
//!
//! ```text
//! NITRO_SCALE=small cargo run -p nitro-bench --release --bin serve_report
//! NITRO_CHAOS_SEED=7 NITRO_SCALE=small cargo run -p nitro-bench --release --bin serve_report
//! ```
//!
//! Both parts serve one fixture: a two-variant function whose variants
//! run real simt kernel launches (so injected launch failures exercise
//! the guard's retry and fallback under concurrent traffic) and whose
//! feature detonates shard-killing and poison-pill payloads.
//!
//! 1. **Ramp.** Under a seeded 5% [`FaultPlan`], zipf tenants offer
//!    four phases of rising load (warm, steady, heavy, an instantaneous
//!    burst). Mid-way through the heavy phase a candidate model is
//!    force-promoted through a [`StagedPromotion`] and hot-swapped while
//!    requests are in flight. Gates: no escaped panic, no admitted
//!    request past its deadline, a reject rate that rises with offered
//!    load, a bounded admitted p99, and a hot swap that installed
//!    without stalling.
//! 2. **Storm.** A supervised front on a skewed wall clock runs one
//!    [`ChaosPlan`] campaign, re-rolled by `NITRO_CHAOS_SEED` (a `u64`;
//!    unset means the collection seed): launch faults, shard-killing and
//!    poison requests, a clock-skew jump, an alert storm with relaxes,
//!    and model publishes through an [`ArtifactStore`] whose filesystem
//!    runs under the plan's [`ChaosFs`]. Gates: request conservation, no
//!    worker lost past the panic backstop, every escaped panic
//!    attributed, every killed shard restarted or retired, the poison
//!    pill quarantined, store faults typed, every artifact handed to the
//!    front byte-equal to what was published under its version, and at
//!    least three fault classes observed. (The lockstep, replayable
//!    campaign is the tier-1 test `tests/lineage.rs`.)
//!
//! Writes `target/BENCH_serve.json` (both parts and the storm's plan)
//! and exits nonzero if any gate fails.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nitro_bench::error::{exit_on_error, to_json_pretty, write_file, BenchError, BenchResult};
use nitro_bench::{device, target_path, LoadPhase, SuiteSpec, ZipfSampler, COLLECTION_SEED};
use nitro_core::context::temp_model_dir;
use nitro_core::fsio::ChaosFs;
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
    install_fault_plan, silence_injected_panics, uninstall_fault_plan, FaultPlan, Gpu, Schedule,
    INJECTED_PANIC_PREFIX,
};
use nitro_store::{ArtifactStore, PromotionPolicy, StagedPromotion};
use nitro_trace::{MetricsRegistry, RingSink, Tracer};
use serde::Serialize;

/// Launch failure probability of the ramp's fault plan.
const LAUNCH_FAILURE_PROB: f64 = 0.05;

/// Deadline budget carried by every request. Generous against the
/// ~100 µs service time: an admitted request should never be late —
/// overload and chaos are absorbed by rejection, shedding and
/// supervision instead.
const BUDGET_NS: u64 = 500_000_000;

/// Number of zipf-ranked tenants.
const TENANTS: usize = 16;

/// Bound the ramp's admitted p99 end-to-end latency must stay under
/// even in the burst phase (the queue is bounded, so waiting is too).
const P99_BOUND_NS: f64 = 400_000_000.0;

// ---------------------------------------------------------------------
// The served fixture
// ---------------------------------------------------------------------

/// What a request carries besides its feature value.
#[derive(Clone)]
enum Payload {
    /// Plain traffic.
    Healthy,
    /// Kills the shard that dispatches it — once (the fuse disarms), so
    /// the re-placed request then succeeds on a surviving shard.
    Kill(Arc<AtomicBool>),
    /// Kills every shard that dispatches it, until quarantined.
    Poison,
}

#[derive(Clone)]
struct ServeInput {
    x: f64,
    gpu_seed: u64,
    payload: Payload,
    /// Launches drawn so far, per variant, by every copy of the request.
    launches: Arc<[AtomicU64; 2]>,
}

/// Per-attempt launch salt: injected launch failures are transient
/// (each attempt redraws its fate), so the guard's retry budget can
/// rescue an unlucky launch instead of deterministically re-failing it.
/// The salt is the request's own launch count, so one seed gives each
/// request one launch-fault schedule, however the threads interleave.
fn attempt_seed(base: u64, launches: &AtomicU64) -> u64 {
    let salt = launches.fetch_add(1, Ordering::Relaxed);
    base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The served registration: two variants with different cost and
/// robustness trade-offs, both real simulated kernel launches plus
/// measurable CPU work. The *feature* detonates kill and poison
/// payloads: a feature panic escapes the guard (which absorbs only
/// variant-body panics) and hits the worker backstop, the seam shard
/// supervision exists for.
fn serve_cv(ctx: &Context) -> CodeVariant<ServeInput> {
    let mut cv = CodeVariant::new("serve_bench", ctx);
    let cfg = device();
    {
        let cfg = cfg.clone();
        cv.add_variant(FnVariant::new("lean", move |inp: &ServeInput| {
            let gpu = Gpu::with_seed(cfg.clone(), attempt_seed(inp.gpu_seed, &inp.launches[0]));
            let work = 2_000 + (inp.x * 400.0) as u64;
            let stats = gpu.launch("serve_lean", 1, Schedule::EvenShare, |_b, bctx| {
                bctx.charge_ops(work);
            });
            spin(15_000);
            stats.elapsed_ns
        }));
    }
    cv.add_variant(FnVariant::new("thorough", move |inp: &ServeInput| {
        let seed = attempt_seed(inp.gpu_seed ^ 0xA5A5, &inp.launches[1]);
        let gpu = Gpu::with_seed(cfg.clone(), seed);
        let work = 6_000 + (inp.x * 100.0) as u64;
        let stats = gpu.launch("serve_thorough", 2, Schedule::Dynamic, |_b, bctx| {
            bctx.charge_ops(work);
        });
        spin(25_000);
        stats.elapsed_ns
    }));
    cv.set_default(0);
    cv.add_input_feature(FnFeature::new("x", |inp: &ServeInput| {
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

/// Deterministic CPU work so wall-clock service time is measurable.
fn spin(iters: u64) {
    let mut acc = 0.0f64;
    for i in 0..iters {
        acc += (i as f64).sqrt();
    }
    std::hint::black_box(acc);
}

/// k=1 KNN mapping x < 5 → variant `lo`, x ≥ 5 → variant `hi`.
fn split_model(lo: usize, hi: usize) -> TrainedModel {
    let data = Dataset::from_parts(
        (0..10).map(|i| vec![f64::from(i)]).collect(),
        (0..10).map(|i| if i >= 5 { hi } else { lo }).collect(),
    );
    TrainedModel::train(&ClassifierConfig::Knn { k: 1 }, &data)
}

/// Export an artifact of the served registration with `model` installed.
fn artifact_with(model: TrainedModel) -> BenchResult<ModelArtifact> {
    let mut cv = serve_cv(&Context::new());
    cv.install_model(model);
    cv.export_artifact().map_err(BenchError::Nitro)
}

/// Spread request priorities: a quarter interactive, a quarter batch.
fn priority(i: u64) -> Priority {
    match i % 4 {
        0 => Priority::Interactive,
        3 => Priority::Batch,
        _ => Priority::Standard,
    }
}

fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
    registry
        .counter_value(&format!("serve.serve_bench.{name}"))
        .unwrap_or(0)
}

/// Every gate's verdict by name, in report order, and one message per
/// failed check.
#[derive(Default)]
struct Gates {
    passed: Vec<(&'static str, bool)>,
    failures: Vec<String>,
}

impl Gates {
    /// Record one check of gate `name`; a gate passes only if every one
    /// of its checks does.
    fn check(&mut self, name: &'static str, ok: bool, failure: impl FnOnce() -> String) {
        match self.passed.iter_mut().find(|(n, _)| *n == name) {
            Some((_, passed)) => *passed &= ok,
            None => self.passed.push((name, ok)),
        }
        if !ok {
            self.failures.push(failure());
        }
    }
}

// ---------------------------------------------------------------------
// Part 1 — the load ramp
// ---------------------------------------------------------------------

#[derive(Serialize)]
struct PhaseReport {
    name: String,
    offered_rps: f64,
    submitted: u64,
    admitted: u64,
    rejected: u64,
    reject_rate: f64,
    served: u64,
    shed_expired: u64,
    shed_hopeless: u64,
    failed: u64,
    fell_back: u64,
    deadline_violations: u64,
    p50_dispatch_ns: f64,
    p99_dispatch_ns: f64,
    p99_e2e_ns: f64,
    throughput_rps: f64,
}

#[derive(Serialize)]
struct HotSwapReport {
    phase: String,
    publish_wait_ns: u64,
    version: u64,
    installs: u64,
}

#[derive(Serialize)]
struct RampReport {
    launch_failure_prob: f64,
    tenants: usize,
    shards: usize,
    queue_capacity: usize,
    phases: Vec<PhaseReport>,
    hot_swap: HotSwapReport,
    escaped_panics: u64,
    total_deadline_violations: u64,
    degrade_cached: u64,
    degrade_default: u64,
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Snapshot of the cumulative serve counters (for per-phase deltas).
struct Counters {
    admitted: u64,
    rejected: u64,
    shed_expired: u64,
    shed_hopeless: u64,
    violations: u64,
}

fn counters(registry: &MetricsRegistry) -> Counters {
    let c = |name| counter(registry, name);
    Counters {
        admitted: c("admitted"),
        rejected: c("rejected_tenant") + c("rejected_queue") + c("rejected_expired"),
        shed_expired: c("shed_expired"),
        shed_hopeless: c("shed_hopeless"),
        violations: c("deadline_violations"),
    }
}

/// The ramp's front, clock and traffic samplers.
struct Ramp {
    front: ServeFront<ServeInput>,
    clock: ServeClock,
    registry: MetricsRegistry,
    tenants: ZipfSampler,
    inputs: ZipfSampler,
}

impl Ramp {
    /// Drive one load phase: paced open-loop submission, then a drain of
    /// every admitted ticket. With `promotion`, a candidate is
    /// force-promoted and published at the phase's halfway point.
    fn run_phase(
        &mut self,
        phase: LoadPhase,
        rng_salt: u64,
        mut promotion: Option<&mut StagedPromotion>,
    ) -> BenchResult<(PhaseReport, Option<HotSwapReport>)> {
        let before = counters(&self.registry);
        let started = Instant::now();
        let mut tickets = Vec::new();
        let mut swap = None;
        let mut next_arrival = Instant::now();
        for i in 0..phase.requests {
            if let Some(promotion) = promotion.as_deref_mut().filter(|_| i == phase.requests / 2) {
                promotion.stage_candidate(artifact_with(split_model(0, 1))?)?;
                promotion.promote_now(None)?;
                let t0 = Instant::now();
                let version = self.front.publish_promotion(promotion);
                swap = Some(HotSwapReport {
                    phase: phase.name.to_string(),
                    publish_wait_ns: t0.elapsed().as_nanos() as u64,
                    version,
                    installs: 0, // read after shutdown
                });
            }
            if phase.gap_ns > 0 {
                next_arrival += Duration::from_nanos(phase.gap_ns);
                let now = Instant::now();
                if next_arrival > now {
                    std::thread::sleep(next_arrival - now);
                }
            }
            let tenant = self.tenants.next_rank() as u32;
            let x = self.inputs.next_rank() as f64 * 10.0 / self.inputs.n() as f64;
            let meta = RequestMeta::new(
                TenantId(tenant),
                priority(i as u64),
                self.clock.now_ns(),
                BUDGET_NS,
            );
            let input = ServeInput {
                x,
                gpu_seed: rng_salt ^ (i as u64) << 8,
                payload: Payload::Healthy,
                launches: Arc::default(),
            };
            if let Ok(ticket) = self.front.submit(input, meta) {
                tickets.push(ticket);
            }
        }

        let (mut served, mut failed, mut fell_back) = (0u64, 0u64, 0u64);
        let mut dispatch_ns = Vec::new();
        let mut e2e_ns = Vec::new();
        for ticket in tickets {
            match ticket.wait() {
                ServeOutcome::Served {
                    dispatch_ns: d,
                    queue_wait_ns: w,
                    fell_back: fb,
                    ..
                } => {
                    served += 1;
                    fell_back += u64::from(fb);
                    dispatch_ns.push(d as f64);
                    e2e_ns.push((w + d) as f64);
                }
                ServeOutcome::Failed { .. } | ServeOutcome::Quarantined { .. } => failed += 1,
                _ => {}
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        dispatch_ns.sort_by(f64::total_cmp);
        e2e_ns.sort_by(f64::total_cmp);

        let after = counters(&self.registry);
        let submitted = phase.requests as u64;
        let rejected = after.rejected - before.rejected;
        let report = PhaseReport {
            name: phase.name.to_string(),
            offered_rps: phase.offered_rps(),
            submitted,
            admitted: after.admitted - before.admitted,
            rejected,
            reject_rate: rejected as f64 / submitted.max(1) as f64,
            served,
            shed_expired: after.shed_expired - before.shed_expired,
            shed_hopeless: after.shed_hopeless - before.shed_hopeless,
            failed,
            fell_back,
            deadline_violations: after.violations - before.violations,
            p50_dispatch_ns: quantile(&dispatch_ns, 0.5),
            p99_dispatch_ns: quantile(&dispatch_ns, 0.99),
            p99_e2e_ns: quantile(&e2e_ns, 0.99),
            throughput_rps: served as f64 / elapsed.max(1e-9),
        };
        Ok((report, swap))
    }
}

/// The overload ramp under a 5% launch-failure plan, with a mid-load
/// hot swap.
fn ramp(spec: SuiteSpec, gates: &mut Gates) -> BenchResult<RampReport> {
    install_fault_plan(FaultPlan::with_failure_prob(
        COLLECTION_SEED,
        LAUNCH_FAILURE_PROB,
    ));
    let config = ServeConfig {
        queue_capacity: Some(32),
        tenant_slots: 64,
        tenant_rate_per_s: 4_000.0,
        tenant_burst: 48,
        ..ServeConfig::default()
    };
    let (shards, queue_capacity) = (config.shards, config.queue_capacity.unwrap_or(0));
    // Retries are cheap for ~100 µs kernels and the plan kills 5% of
    // launches; two retries keep spurious Failed outcomes rare.
    let policy = GuardPolicy {
        retry_budget: 2,
        ..GuardPolicy::default()
    };
    let clock = ServeClock::wall();
    let registry = MetricsRegistry::new();
    let front = ServeFront::start(config, policy, clock.clone(), Some(&registry), |_| {
        serve_cv(&Context::new())
    })?;
    let mut ramp = Ramp {
        front,
        clock,
        registry,
        tenants: ZipfSampler::new(TENANTS, 1.2, COLLECTION_SEED),
        inputs: ZipfSampler::new(10, 1.1, COLLECTION_SEED ^ 0xBEEF),
    };

    // The incumbent (always "thorough", so the cascade has a real
    // fallback to the "lean" default) flows through a StagedPromotion;
    // the per-input split candidate hot-swaps in mid-load.
    let mut promotion = StagedPromotion::new(
        artifact_with(split_model(1, 1))?,
        PromotionPolicy::default(),
    );
    ramp.front.publish_promotion(&promotion);

    let scale_div = if spec.small { 10 } else { 1 };
    let phases = [
        ("warm", 400, 2_000_000),
        ("steady", 800, 400_000),
        ("heavy", 1_200, 80_000),
        ("burst", 800, 0),
    ];
    let mut reports = Vec::new();
    let mut hot_swap = None;
    for (pi, (name, requests, gap_ns)) in phases.into_iter().enumerate() {
        let phase = LoadPhase {
            name,
            requests: requests / scale_div,
            gap_ns,
        };
        let swap_here = (name == "heavy").then_some(&mut promotion);
        let (report, swap) = ramp.run_phase(phase, COLLECTION_SEED ^ pi as u64, swap_here)?;
        reports.push(report);
        hot_swap = hot_swap.or(swap);
    }

    let registry = &ramp.registry;
    let violations = counter(registry, "deadline_violations");
    let installs = counter(registry, "hotswap_installs");
    let (degrade_cached, degrade_default) = (
        counter(registry, "degrade_cached"),
        counter(registry, "degrade_default"),
    );
    let model_version = ramp.front.model_version();
    let summary = ramp.front.shutdown();
    uninstall_fault_plan();
    let mut hot_swap = hot_swap
        .ok_or_else(|| BenchError::Invalid("the heavy phase never ran its hot swap".into()))?;
    hot_swap.installs = installs;

    let escaped = summary.escaped_panics;
    gates.check("zero_escaped_panics", escaped == 0, || {
        format!("{escaped} panic(s) escaped a shard's guarded dispatch")
    });
    gates.check("zero_deadline_violations", violations == 0, || {
        format!("{violations} admitted request(s) violated their deadline")
    });
    // The reject rate must rise with offered load (small tolerance for
    // scheduling noise between adjacent phases), and the burst must
    // reject more than the warm phase.
    for w in reports.windows(2) {
        gates.check(
            "monotone_reject_rate",
            w[1].reject_rate >= w[0].reject_rate - 0.02,
            || {
                format!(
                    "reject rate fell from {:.3} ({}) to {:.3} ({}) as offered load rose",
                    w[0].reject_rate, w[0].name, w[1].reject_rate, w[1].name
                )
            },
        );
    }
    let (first, last) = (&reports[0], &reports[reports.len() - 1]);
    gates.check(
        "monotone_reject_rate",
        last.reject_rate > first.reject_rate,
        || {
            format!(
                "burst phase reject rate {:.3} not above warm phase {:.3}",
                last.reject_rate, first.reject_rate
            )
        },
    );
    let p99s: Vec<f64> = reports.iter().map(|p| p.p99_e2e_ns).collect();
    gates.check(
        "bounded_admitted_p99",
        p99s.iter().all(|&p| p < P99_BOUND_NS),
        || format!("admitted p99 e2e exceeded {P99_BOUND_NS:.0} ns in some phase: {p99s:?}"),
    );
    gates.check(
        "hot_swap_applied",
        installs > 0 && model_version >= 2,
        || format!("hot swap never installed (installs {installs}, version {model_version})"),
    );
    let wait = hot_swap.publish_wait_ns;
    gates.check("hot_swap_applied", wait <= 50_000_000, || {
        format!("publish stalled for {wait} ns: a publish must not wait on the workers")
    });

    Ok(RampReport {
        launch_failure_prob: LAUNCH_FAILURE_PROB,
        tenants: TENANTS,
        shards,
        queue_capacity,
        phases: reports,
        hot_swap,
        escaped_panics: escaped,
        total_deadline_violations: violations,
        degrade_cached,
        degrade_default,
    })
}

// ---------------------------------------------------------------------
// Part 2 — the chaos storm
// ---------------------------------------------------------------------

/// The storm's seed from the `NITRO_CHAOS_SEED` value: unset means
/// `default`, a `u64` is used as given, and anything else is refused,
/// so a typo cannot rerun the default campaign silently.
fn chaos_seed(value: Option<&str>, default: u64) -> BenchResult<u64> {
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| BenchError::Invalid(format!("NITRO_CHAOS_SEED must be a u64, not {v:?}"))),
    }
}

#[derive(Serialize)]
struct StoreChurn {
    publishes_attempted: u64,
    publishes_ok: u64,
    publish_faults_typed: u64,
    publish_faults_untyped: u64,
    corrupt_versions_skipped: u64,
    intact_loads_published: u64,
    /// Loads handed to the front whose artifact differs from the bytes
    /// published under their version.
    corrupt_served: u64,
}

#[derive(Serialize)]
struct StormReport {
    plan: ChaosPlan,
    /// The fault classes whose effect the run observed.
    fault_classes: Vec<&'static str>,
    requests: u64,
    admitted: u64,
    rejected: u64,
    outcomes: Vec<(&'static str, u64)>,
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
    fs_faults_injected: u64,
}

fn page_alert() -> PulseAlert {
    PulseAlert {
        slo: "serve-p99".into(),
        kind: AlertKind::LatencyRegression,
        severity: AlertSeverity::Page,
        metric: "serve.serve_bench.e2e_latency_ns".into(),
        observed: 2.0,
        threshold: 1.0,
        window_ticks: 1,
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

/// The storm: every fault layer at once on a supervised wall-clock
/// front.
fn storm(plan: ChaosPlan, gates: &mut Gates) -> BenchResult<StormReport> {
    // The simulator's fault counters go through the process-global
    // tracer slot, not the serve registry.
    let tracer = Tracer::new(Arc::new(RingSink::new(4_096)));
    nitro_trace::install_global(tracer.clone());
    install_fault_plan(plan.fault_plan());
    let (clock, skew) = ServeClock::skewed();
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
    let policy = GuardPolicy {
        retry_budget: 2,
        ..GuardPolicy::default()
    };
    let front = ServeFront::start(config, policy, clock.clone(), None, |_| {
        serve_cv(&Context::new())
    })?;

    // The model pipeline under filesystem chaos: publishes land in an
    // ArtifactStore whose every fs op consults the plan's ChaosFs, and
    // only checksum-verified loads are handed to the front.
    let store_dir = temp_model_dir("serve-storm-store")?;
    let mut store = ArtifactStore::open(&store_dir, "serve_bench")?;
    let fs: Arc<ChaosFs> = Arc::new(plan.fs_policy());
    store.set_fs_policy(Some(fs.clone()));
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
        corrupt_served: 0,
    };
    // The JSON of every artifact the store accepted, by version.
    let mut published: BTreeMap<u64, String> = BTreeMap::new();
    let publish_every = (plan.requests / 6).max(1);
    let mut tenants = ZipfSampler::new(TENANTS, 1.2, plan.seed ^ 0xB0B);
    let mut tickets = Vec::new();
    let (mut rejected, mut poison_admitted) = (0u64, false);
    let (mut skew_jumps, mut pages_ingested) = (0u64, 0u64);
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
                (0..pages).for_each(|_| front.relax());
            }
            i < at
        });
        if i % publish_every == publish_every / 2 {
            churn.publishes_attempted += 1;
            let artifact = if churn.publishes_attempted.is_multiple_of(2) {
                artifact_with(split_model(0, 1))?
            } else {
                artifact_with(split_model(1, 1))?
            };
            match store.publish(&artifact, "storm publish") {
                Ok(version) => {
                    churn.publishes_ok += 1;
                    published.insert(version, artifact.to_json()?);
                }
                Err(NitroError::Io(_)) | Err(NitroError::Audit { .. }) => {
                    churn.publish_faults_typed += 1;
                }
                Err(_) => churn.publish_faults_untyped += 1,
            }
            let (loaded, diags) = store.load_latest_intact();
            churn.corrupt_versions_skipped += diags.len() as u64;
            if let Some((version, artifact)) = loaded {
                if published.get(&version) != Some(&artifact.to_json()?) {
                    churn.corrupt_served += 1;
                }
                front.publish_artifact(artifact);
                churn.intact_loads_published += 1;
            }
        }

        let payload = if plan.kills_at(i) {
            Payload::Kill(Arc::new(AtomicBool::new(true)))
        } else if plan.poison_at(i) {
            Payload::Poison
        } else {
            Payload::Healthy
        };
        let is_poison = matches!(payload, Payload::Poison);
        let tenant = tenants.next_rank() as u32;
        // A poison pill must be admitted to be quarantined.
        let priority = if is_poison {
            Priority::Interactive
        } else {
            priority(i)
        };
        let meta = RequestMeta::new(TenantId(tenant), priority, clock.now_ns(), BUDGET_NS);
        let input = ServeInput {
            x: (mix64(plan.seed ^ i) % 1_000) as f64 / 100.0,
            gpu_seed: plan.seed ^ (i << 8),
            payload,
            launches: Arc::default(),
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
    let mut outcomes: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ticket in tickets {
        *outcomes.entry(outcome_class(&ticket.wait())).or_default() += 1;
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
    let records = summary.panic_records.len() as u64;
    let escaped = summary.escaped_panics;
    gates.check("conservation", accounting.is_conserved(), || {
        format!(
            "storm conservation violated: {}",
            accounting.violations().join("; ")
        )
    });
    gates.check("zero_backstop_escapes", summary.workers_failed == 0, || {
        format!(
            "{} worker(s) died past the panic backstop",
            summary.workers_failed
        )
    });
    gates.check("panics_attributed", records == escaped, || {
        format!("{escaped} escaped panic(s) but only {records} attributed panic record(s)")
    });
    gates.check(
        "killed_shards_recovered_or_retired",
        !final_states.contains(&ShardState::Dead),
        || format!("a killed shard was never restarted nor retired: {final_states:?}"),
    );
    gates.check(
        "killed_shards_recovered_or_retired",
        summary.shard_deaths == 0 || summary.shard_restarts + summary.shards_retired > 0,
        || "shards died but the supervisor never acted".to_string(),
    );
    gates.check(
        "poison_pills_quarantined",
        !poison_admitted || accounting.quarantined > 0,
        || "an admitted poison pill was never quarantined".to_string(),
    );
    let untyped = churn.publish_faults_untyped;
    gates.check("store_faults_typed", untyped == 0, || {
        format!("{untyped} store fault(s) surfaced as untyped errors")
    });
    let corrupt = churn.corrupt_served;
    gates.check("zero_corrupt_artifacts_served", corrupt == 0, || {
        format!("{corrupt} loaded artifact(s) differ from what was published under their version")
    });
    gates.check(
        "zero_corrupt_artifacts_served",
        churn.intact_loads_published > 0,
        || "no checksum-verified artifact ever reached the front".to_string(),
    );

    let fs_faults_injected = fs.injected();
    let observed = [
        ("launch", injected_launch_faults > 0),
        ("fs", fs_faults_injected > 0),
        ("shard-kill", summary.shard_deaths > 0),
        ("poison-pill", accounting.quarantined > 0),
        ("clock-skew", skew_jumps > 0),
        ("alert-storm", pages_ingested > 0),
    ];
    let fault_classes: Vec<&'static str> = observed
        .into_iter()
        .filter_map(|(class, seen)| seen.then_some(class))
        .collect();
    gates.check("min_fault_classes", fault_classes.len() >= 3, || {
        format!(
            "the storm exercised only {} fault class(es): {fault_classes:?}",
            fault_classes.len()
        )
    });

    Ok(StormReport {
        requests: plan.requests,
        plan,
        fault_classes,
        admitted,
        rejected,
        outcomes: outcomes.into_iter().collect(),
        shard_deaths: summary.shard_deaths,
        shard_restarts: summary.shard_restarts,
        shards_retired: summary.shards_retired,
        poison_quarantined: accounting.quarantined,
        poison_admitted,
        escaped_panics: escaped,
        panic_records: records,
        workers_failed: summary.workers_failed,
        conserved: accounting.is_conserved(),
        violations: accounting.violations(),
        final_states,
        skew_jumps_applied: skew_jumps,
        alert_pages_ingested: pages_ingested,
        store: churn,
        injected_launch_faults,
        fs_faults_injected,
    })
}

// ---------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------

#[derive(Serialize)]
struct ServeReport {
    scale: &'static str,
    seed: u64,
    /// The storm's seed (`NITRO_CHAOS_SEED`, else `seed`).
    chaos_seed: u64,
    budget_ns: u64,
    ramp: RampReport,
    storm: StormReport,
    gates: Vec<(&'static str, bool)>,
    failures: Vec<String>,
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    let chaos_var = std::env::var_os("NITRO_CHAOS_SEED").map(|v| v.to_string_lossy().into_owned());
    let storm_seed = chaos_seed(chaos_var.as_deref(), COLLECTION_SEED)?;
    silence_injected_panics();

    let mut gates = Gates::default();
    let ramp = ramp(spec, &mut gates)?;
    let requests = if spec.small { 240 } else { 960 };
    let storm = storm(
        ChaosPlan::from_seed(storm_seed ^ 0xB00B, requests),
        &mut gates,
    )?;

    let report = ServeReport {
        scale: spec.scale(),
        seed: COLLECTION_SEED,
        chaos_seed: storm_seed,
        budget_ns: BUDGET_NS,
        ramp,
        storm,
        gates: gates.passed,
        failures: gates.failures,
    };
    let path = target_path("BENCH_serve.json");
    write_file(&path, &to_json_pretty("serve report", &report)?)?;
    print_summary(&report, &path);

    if report.failures.is_empty() {
        Ok(())
    } else {
        Err(BenchError::Invalid(format!(
            "serve report failed {} check(s): {}",
            report.failures.len(),
            report.failures.join("; ")
        )))
    }
}

fn print_summary(report: &ServeReport, path: &Path) {
    let ramp = &report.ramp;
    println!(
        "serve_report ({} scale, seed {:#x}, {}% fault plan, {} shard(s))",
        report.scale,
        report.seed,
        ramp.launch_failure_prob * 100.0,
        ramp.shards
    );
    for p in &ramp.phases {
        println!(
            "  {:>6}: offered {:>9.0} rps · {:>4} submitted · {:>4} admitted · reject {:>5.1}% · \
             served {:>4} · p50 {:>9.0} ns · p99 {:>10.0} ns · {:>7.0} rps through",
            p.name,
            p.offered_rps,
            p.submitted,
            p.admitted,
            p.reject_rate * 100.0,
            p.served,
            p.p50_dispatch_ns,
            p.p99_dispatch_ns,
            p.throughput_rps,
        );
    }
    println!(
        "  hot-swap in '{}': publish wait {} ns, version {}, {} install(s)",
        ramp.hot_swap.phase,
        ramp.hot_swap.publish_wait_ns,
        ramp.hot_swap.version,
        ramp.hot_swap.installs
    );
    println!(
        "  escaped panics {} · deadline violations {} · degrade cached/default {}/{}",
        ramp.escaped_panics,
        ramp.total_deadline_violations,
        ramp.degrade_cached,
        ramp.degrade_default
    );
    let storm = &report.storm;
    println!(
        "  storm (seed {:#x}, fault classes observed: {}): {} requests · {} admitted · \
         deaths {} · restarts {} · quarantined {} · launch faults {} · fs faults {} · conserved {}",
        report.chaos_seed,
        storm.fault_classes.join(", "),
        storm.requests,
        storm.admitted,
        storm.shard_deaths,
        storm.shard_restarts,
        storm.poison_quarantined,
        storm.injected_launch_faults,
        storm.fs_faults_injected,
        storm.conserved,
    );
    let outcomes = |class: &str| -> u64 {
        let counts = storm.outcomes.iter().filter(|(c, _)| c.starts_with(class));
        counts.map(|(_, n)| n).sum()
    };
    println!(
        "  storm outcomes: served {} · shed {} · {:?}",
        outcomes("served"),
        outcomes("shed"),
        storm.outcomes
    );
    println!(
        "  store churn: {} publish(es), {} ok, {} typed fault(s), {} corrupt skipped, \
         {} verified load(s) served, {} corrupt served",
        storm.store.publishes_attempted,
        storm.store.publishes_ok,
        storm.store.publish_faults_typed,
        storm.store.corrupt_versions_skipped,
        storm.store.intact_loads_published,
        storm.store.corrupt_served,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_seed_is_unset_or_a_u64_and_anything_else_is_named() {
        assert_eq!(chaos_seed(None, 42).unwrap(), 42);
        assert_eq!(chaos_seed(Some("7"), 42).unwrap(), 7);
        for value in ["seven", ""] {
            let err = chaos_seed(Some(value), 42).unwrap_err();
            let named = format!("NITRO_CHAOS_SEED must be a u64, not {value:?}");
            assert_eq!(err.to_string(), named);
        }
    }
}
