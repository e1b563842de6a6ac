//! Serving overload report: drive the `nitro-serve` front door with a
//! zipf-skewed, phase-structured load ramp — under a seeded 5%
//! `FaultPlan` — and assert the overload guarantees hold end to end.
//!
//! ```text
//! NITRO_SCALE=small cargo run -p nitro-bench --release --bin serve_report
//! ```
//!
//! The harness:
//!
//! 1. starts a sharded [`ServeFront`] over a two-variant synthetic
//!    function whose variants run real simt kernel launches (so the
//!    fault plan's injected launch failures exercise the guard's retry
//!    and fallback paths *under concurrent traffic*),
//! 2. offers four phases of rising load — warm, steady, heavy, burst
//!    (instantaneous) — with tenants drawn from a seeded
//!    [`ZipfSampler`] so a few tenants dominate,
//! 3. mid-way through the heavy phase, stages a candidate model in a
//!    [`StagedPromotion`], force-promotes it and publishes it through
//!    the epoch hot-swap while requests are in flight,
//! 4. writes `target/BENCH_serve.json` and exits nonzero if any gate
//!    fails: an escaped panic, a deadline violation among admitted
//!    requests, a reject rate that does not rise with offered load, an
//!    unbounded admitted p99, or a hot-swap that stalled or never
//!    installed.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nitro_bench::error::{exit_on_error, to_json_pretty, write_file, BenchError, BenchResult};
use nitro_bench::{device, LoadPhase, SuiteSpec, ZipfSampler};
use nitro_core::{
    CodeVariant, Context, FnFeature, FnVariant, ModelArtifact, Priority, RequestMeta, TenantId,
};
use nitro_guard::GuardPolicy;
use nitro_ml::{ClassifierConfig, Dataset, TrainedModel};
use nitro_serve::{ServeClock, ServeConfig, ServeFront, ServeOutcome};
use nitro_simt::{
    install_fault_plan, silence_injected_panics, uninstall_fault_plan, FaultPlan, Gpu, Schedule,
};
use nitro_store::{PromotionPolicy, StagedPromotion};
use nitro_trace::MetricsRegistry;
use serde::Serialize;

/// Launch failure probability of the fault plan running underneath.
const LAUNCH_FAILURE_PROB: f64 = 0.05;

/// Deadline budget carried by every request. Generous against the
/// ~100 µs service time: an admitted request should *never* be late —
/// overload is absorbed by rejection and pre-dispatch shedding instead.
const BUDGET_NS: u64 = 500_000_000;

/// Number of zipf-ranked tenants.
const TENANTS: usize = 16;

/// Bound the admitted p99 end-to-end latency must stay under even in
/// the burst phase (queue is bounded, so waiting is bounded).
const P99_BOUND_NS: f64 = 400_000_000.0;

/// One request's input: a feature value plus a per-request kernel seed.
#[derive(Clone, Copy)]
struct ServeInput {
    x: f64,
    gpu_seed: u64,
}

/// Per-attempt launch salt: injected launch failures are *transient*
/// (each attempt redraws its fate), so the guard's retry budget can
/// rescue an unlucky launch instead of deterministically re-failing it.
static LAUNCH_SALT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn attempt_seed(base: u64) -> u64 {
    let salt = LAUNCH_SALT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Build the served registration: two variants with different
/// cost/robustness trade-offs, both doing real simulated kernel
/// launches (the fault plan can kill any launch).
fn serve_cv(ctx: &Context) -> CodeVariant<ServeInput> {
    let cfg = device();
    let mut cv = CodeVariant::new("serve_bench", ctx);
    {
        let cfg = cfg.clone();
        cv.add_variant(FnVariant::new("lean", move |inp: &ServeInput| {
            let gpu = Gpu::with_seed(cfg.clone(), attempt_seed(inp.gpu_seed));
            let work = 2_000 + (inp.x * 400.0) as u64;
            let stats = gpu.launch("serve_lean", 1, Schedule::EvenShare, |_b, bctx| {
                bctx.charge_ops(work);
            });
            spin(15_000);
            stats.elapsed_ns
        }));
    }
    {
        let cfg = cfg.clone();
        cv.add_variant(FnVariant::new("thorough", move |inp: &ServeInput| {
            let gpu = Gpu::with_seed(cfg.clone(), attempt_seed(inp.gpu_seed ^ 0xA5A5));
            let work = 6_000 + (inp.x * 100.0) as u64;
            let stats = gpu.launch("serve_thorough", 2, Schedule::Dynamic, |_b, bctx| {
                bctx.charge_ops(work);
            });
            spin(25_000);
            stats.elapsed_ns
        }));
    }
    cv.set_default(0);
    cv.add_input_feature(FnFeature::new("x", |inp: &ServeInput| inp.x));
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

/// Export an artifact of the bench registration with `model` installed.
fn artifact_with(model: TrainedModel) -> BenchResult<ModelArtifact> {
    let ctx = Context::new();
    let mut cv = serve_cv(&ctx);
    cv.install_model(model);
    cv.export_artifact().map_err(BenchError::Nitro)
}

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
struct Gates {
    zero_escaped_panics: bool,
    zero_deadline_violations: bool,
    monotone_reject_rate: bool,
    bounded_admitted_p99: bool,
    hot_swap_applied: bool,
}

#[derive(Serialize)]
struct ServeReport {
    scale: String,
    seed: u64,
    launch_failure_prob: f64,
    budget_ns: u64,
    tenants: usize,
    shards: usize,
    queue_capacity: usize,
    phases: Vec<PhaseReport>,
    hot_swap: HotSwapReport,
    escaped_panics: u64,
    total_deadline_violations: u64,
    degrade_cached: u64,
    degrade_default: u64,
    gates: Gates,
    failures: Vec<String>,
}

fn out_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/BENCH_serve.json")
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
    registry.counter_value(name).unwrap_or(0)
}

/// Snapshot of the cumulative serve counters (for per-phase deltas).
#[derive(Clone, Copy, Default)]
struct Counters {
    admitted: u64,
    rejected: u64,
    shed_expired: u64,
    shed_hopeless: u64,
    violations: u64,
}

fn counters(registry: &MetricsRegistry) -> Counters {
    let f = "serve.serve_bench";
    Counters {
        admitted: counter(registry, &format!("{f}.admitted")),
        rejected: counter(registry, &format!("{f}.rejected_tenant"))
            + counter(registry, &format!("{f}.rejected_queue"))
            + counter(registry, &format!("{f}.rejected_expired")),
        shed_expired: counter(registry, &format!("{f}.shed_expired")),
        shed_hopeless: counter(registry, &format!("{f}.shed_hopeless")),
        violations: counter(registry, &format!("{f}.deadline_violations")),
    }
}

struct PhaseOutcome {
    report: PhaseReport,
    admitted_p99_e2e_ns: f64,
}

/// Drive one load phase: paced open-loop submission, then a closed-loop
/// drain of every admitted ticket. `swap` (heavy phase only) runs the
/// mid-load promotion at the phase's halfway point.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    front: &ServeFront<ServeInput>,
    clock: &ServeClock,
    registry: &MetricsRegistry,
    phase: LoadPhase,
    tenants: &mut ZipfSampler,
    inputs: &mut ZipfSampler,
    rng_salt: u64,
    mut swap: Option<&mut dyn FnMut() -> BenchResult<()>>,
) -> BenchResult<PhaseOutcome> {
    let before = counters(registry);
    let started = Instant::now();
    let mut tickets = Vec::new();
    let mut next_arrival = Instant::now();

    for i in 0..phase.requests {
        if let Some(run_swap) = swap.as_mut() {
            if i == phase.requests / 2 {
                run_swap()?;
            }
        }
        if phase.gap_ns > 0 {
            next_arrival += Duration::from_nanos(phase.gap_ns);
            let now = Instant::now();
            if next_arrival > now {
                std::thread::sleep(next_arrival - now);
            }
        }
        let tenant = tenants.next_rank() as u32;
        let x = inputs.next_rank() as f64 * 10.0 / inputs.n() as f64;
        let priority = match i % 4 {
            0 => Priority::Interactive,
            3 => Priority::Batch,
            _ => Priority::Standard,
        };
        let meta = RequestMeta::new(TenantId(tenant), priority, clock.now_ns(), BUDGET_NS);
        let input = ServeInput {
            x,
            gpu_seed: rng_salt ^ (i as u64) << 8,
        };
        if let Ok(ticket) = front.submit(input, meta) {
            tickets.push(ticket);
        }
    }

    // Closed loop: drain every admitted ticket before the next phase.
    let mut served = 0u64;
    let mut failed = 0u64;
    let mut fell_back = 0u64;
    let mut dispatch_ns = Vec::new();
    let mut e2e_ns = Vec::new();
    for ticket in tickets {
        match ticket.wait() {
            ServeOutcome::Served {
                dispatch_ns: d,
                queue_wait_ns: w,
                deadline_met: _,
                fell_back: fb,
                ..
            } => {
                served += 1;
                fell_back += u64::from(fb);
                dispatch_ns.push(d as f64);
                e2e_ns.push((w + d) as f64);
            }
            ServeOutcome::ShedExpired { .. }
            | ServeOutcome::ShedHopeless { .. }
            | ServeOutcome::ShedFailover { .. } => {}
            ServeOutcome::Failed { .. } | ServeOutcome::Quarantined { .. } => failed += 1,
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    dispatch_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    e2e_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let after = counters(registry);
    let submitted = phase.requests as u64;
    let admitted = after.admitted - before.admitted;
    let rejected = after.rejected - before.rejected;
    let p99_e2e = quantile(&e2e_ns, 0.99);
    Ok(PhaseOutcome {
        report: PhaseReport {
            name: phase.name.to_string(),
            offered_rps: phase.offered_rps(),
            submitted,
            admitted,
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
            p99_e2e_ns: p99_e2e,
            throughput_rps: served as f64 / elapsed.max(1e-9),
        },
        admitted_p99_e2e_ns: p99_e2e,
    })
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    silence_injected_panics();
    install_fault_plan(FaultPlan::with_failure_prob(spec.seed, LAUNCH_FAILURE_PROB));

    let registry = MetricsRegistry::new();
    let clock = ServeClock::wall();
    let config = ServeConfig {
        queue_capacity: Some(32),
        tenant_slots: 64,
        tenant_rate_per_s: 4_000.0,
        tenant_burst: 48,
        ..ServeConfig::default()
    };
    let shards = config.shards;
    let queue_capacity = config.queue_capacity.unwrap_or(0);
    // Retries are cheap for ~100 µs kernels and the fault plan kills 5%
    // of launches; two retries keep spurious Failed outcomes rare.
    let policy = GuardPolicy {
        retry_budget: 2,
        ..GuardPolicy::default()
    };
    let front = ServeFront::start(config, policy, clock.clone(), Some(&registry), |_| {
        serve_cv(&Context::new())
    })
    .map_err(BenchError::Nitro)?;

    // Incumbent model (always "thorough", so the cascade has a real
    // fallback to the "lean" default) flows through a StagedPromotion;
    // the candidate (per-input split) hot-swaps in mid-load.
    let mut promotion = StagedPromotion::new(
        artifact_with(split_model(1, 1))?,
        PromotionPolicy::default(),
    );
    front.publish_promotion(&promotion);

    let scale_div = if spec.small { 10 } else { 1 };
    let phases = [
        LoadPhase {
            name: "warm",
            requests: 400 / scale_div,
            gap_ns: 2_000_000,
        },
        LoadPhase {
            name: "steady",
            requests: 800 / scale_div,
            gap_ns: 400_000,
        },
        LoadPhase {
            name: "heavy",
            requests: 1_200 / scale_div,
            gap_ns: 80_000,
        },
        LoadPhase {
            name: "burst",
            requests: 800 / scale_div,
            gap_ns: 0,
        },
    ];

    let mut tenants = ZipfSampler::new(TENANTS, 1.2, spec.seed);
    let mut inputs = ZipfSampler::new(10, 1.1, spec.seed ^ 0xBEEF);

    let mut phase_reports = Vec::new();
    let mut admitted_p99s = Vec::new();
    let mut swap_report = None;
    for (pi, phase) in phases.iter().enumerate() {
        let is_heavy = phase.name == "heavy";
        let mut do_swap = |front: &ServeFront<ServeInput>| -> BenchResult<HotSwapReport> {
            promotion
                .stage_candidate(artifact_with(split_model(0, 1))?)
                .map_err(BenchError::Nitro)?;
            promotion.promote_now(None).map_err(BenchError::Nitro)?;
            let t0 = Instant::now();
            let version = front.publish_promotion(&promotion);
            let publish_wait_ns = t0.elapsed().as_nanos() as u64;
            Ok(HotSwapReport {
                phase: phase.name.to_string(),
                publish_wait_ns,
                version,
                installs: 0, // filled in after shutdown
            })
        };
        let outcome = if is_heavy {
            let front_ref = &front;
            let mut swap_out = None;
            let mut closure = || -> BenchResult<()> {
                swap_out = Some(do_swap(front_ref)?);
                Ok(())
            };
            let o = run_phase(
                front_ref,
                &clock,
                &registry,
                *phase,
                &mut tenants,
                &mut inputs,
                spec.seed ^ (pi as u64),
                Some(&mut closure),
            )?;
            swap_report = swap_out;
            o
        } else {
            run_phase(
                &front,
                &clock,
                &registry,
                *phase,
                &mut tenants,
                &mut inputs,
                spec.seed ^ (pi as u64),
                None,
            )?
        };
        admitted_p99s.push(outcome.admitted_p99_e2e_ns);
        phase_reports.push(outcome.report);
    }

    let total_violations = counter(&registry, "serve.serve_bench.deadline_violations");
    let degrade_cached = counter(&registry, "serve.serve_bench.degrade_cached");
    let degrade_default = counter(&registry, "serve.serve_bench.degrade_default");
    let installs = counter(&registry, "serve.serve_bench.hotswap_installs");
    let model_version = front.model_version();
    let summary = front.shutdown();
    uninstall_fault_plan();

    let mut swap_report = swap_report
        .ok_or_else(|| BenchError::Invalid("heavy phase never ran its hot-swap".to_string()))?;
    swap_report.installs = installs;

    // ---- Gates -------------------------------------------------------
    let mut failures = Vec::new();
    if summary.escaped_panics > 0 {
        failures.push(format!(
            "{} panic(s) escaped a shard's guarded dispatch",
            summary.escaped_panics
        ));
    }
    if total_violations > 0 {
        failures.push(format!(
            "{total_violations} admitted request(s) violated their deadline"
        ));
    }
    // Reject rate must rise with offered load (small tolerance for
    // scheduling noise between adjacent phases) and the burst phase
    // must reject much more than the warm phase.
    for w in phase_reports.windows(2) {
        if w[1].reject_rate < w[0].reject_rate - 0.02 {
            failures.push(format!(
                "reject rate fell from {:.3} ({}) to {:.3} ({}) as offered load rose",
                w[0].reject_rate, w[0].name, w[1].reject_rate, w[1].name
            ));
        }
    }
    let (first, last) = (&phase_reports[0], &phase_reports[phase_reports.len() - 1]);
    if last.reject_rate <= first.reject_rate {
        failures.push(format!(
            "burst phase reject rate {:.3} not above warm phase {:.3}",
            last.reject_rate, first.reject_rate
        ));
    }
    let p99_bounded = admitted_p99s.iter().all(|&p| p < P99_BOUND_NS);
    if !p99_bounded {
        failures.push(format!(
            "admitted p99 e2e exceeded {P99_BOUND_NS:.0} ns in some phase: {admitted_p99s:?}"
        ));
    }
    if installs == 0 || model_version < 2 {
        failures.push(format!(
            "hot-swap never installed (installs {installs}, version {model_version})"
        ));
    }
    if swap_report.publish_wait_ns > 50_000_000 {
        failures.push(format!(
            "publish stalled for {} ns: the epoch swap must not block",
            swap_report.publish_wait_ns
        ));
    }

    let monotone = !failures.iter().any(|f| f.contains("reject rate"));
    let report = ServeReport {
        scale: spec.scale().to_string(),
        seed: spec.seed,
        launch_failure_prob: LAUNCH_FAILURE_PROB,
        budget_ns: BUDGET_NS,
        tenants: TENANTS,
        shards,
        queue_capacity,
        phases: phase_reports,
        hot_swap: swap_report,
        escaped_panics: summary.escaped_panics,
        total_deadline_violations: total_violations,
        degrade_cached,
        degrade_default,
        gates: Gates {
            zero_escaped_panics: summary.escaped_panics == 0,
            zero_deadline_violations: total_violations == 0,
            monotone_reject_rate: monotone,
            bounded_admitted_p99: p99_bounded,
            hot_swap_applied: installs > 0 && model_version >= 2,
        },
        failures: failures.clone(),
    };

    let path = out_path();
    write_file(&path, &to_json_pretty("serve report", &report)?)?;
    print_summary(&report, &path);

    if failures.is_empty() {
        Ok(())
    } else {
        Err(BenchError::Invalid(format!(
            "serve report failed {} gate(s): {}",
            failures.len(),
            failures.join("; ")
        )))
    }
}

fn print_summary(report: &ServeReport, path: &Path) {
    println!(
        "serve_report ({} scale, seed {:#x}, {}% fault plan, {} shard(s))",
        report.scale,
        report.seed,
        report.launch_failure_prob * 100.0,
        report.shards
    );
    for p in &report.phases {
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
        report.hot_swap.phase,
        report.hot_swap.publish_wait_ns,
        report.hot_swap.version,
        report.hot_swap.installs
    );
    println!(
        "  escaped panics {} · deadline violations {} · degrade cached/default {}/{}",
        report.escaped_panics,
        report.total_deadline_violations,
        report.degrade_cached,
        report.degrade_default
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
