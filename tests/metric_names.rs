//! Pins the exported metrics of two runs: the sorted metric names of
//! each exported snapshot, every counter value and every histogram's
//! observation count.
//!
//! - A traced tuning and dispatch run of the sort suite's small sets.
//! - A guarded run of the same suite under a seeded launch-fault plan,
//!   with one variant failing on every call for a first pass over the
//!   test set and healthy again for a second, and a `FunctionPulse`
//!   observer on the wrapped function.
//!
//! A second test pins the `serve.<fn>.*` metrics of a lockstep
//! `ServeFront` run on a manual clock.
//!
//! Gauges hold wall-clock timings, so only their names are pinned.
//!
//! The simulator's runs share one test: the tracer and fault-plan slots
//! the simulator reads are process-wide, so nothing else may launch
//! kernels while it runs. The serve run launches none.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use nitro::core::{
    ClassifierConfig, CodeVariant, Context, FnFeature, FnVariant, Priority, RequestMeta, TenantId,
};
use nitro::guard::{inject_failures, GuardPolicy, GuardStats, GuardedVariant};
use nitro::ml::{Dataset, TrainedModel};
use nitro::pulse::FunctionPulse;
use nitro::serve::{Rejection, ServeClock, ServeConfig, ServeFront, ServeOutcome, ShardState};
use nitro::simt::{
    install_fault_plan, silence_injected_panics, uninstall_fault_plan, DeviceConfig, FaultPlan,
    INJECTED_PANIC_PREFIX,
};
use nitro::sort::keys::SortInput;
use nitro::trace::{MetricsRegistry, MetricsSnapshot, RingSink, Tracer};
use nitro::tuner::Autotuner;

/// What one exported snapshot must hold, names sorted.
struct Expected {
    counters: &'static [(&'static str, u64)],
    gauges: &'static [&'static str],
    histograms: &'static [(&'static str, u64)],
}

const TRACED: Expected = Expected {
    counters: &[
        ("dispatch.sort.calls", 24),
        ("dispatch.sort.fallback", 0),
        ("dispatch.sort.veto.Locality", 0),
        ("dispatch.sort.veto.Merge", 0),
        ("dispatch.sort.veto.Radix", 0),
        ("dispatch.sort.win.Locality", 12),
        ("dispatch.sort.win.Merge", 0),
        ("dispatch.sort.win.Radix", 12),
        ("ml.predict.kernel_evals", 0),
        ("profile.sort.inputs", 18),
        ("simt.kernel.locality_sort.launches", 30),
        ("simt.kernel.merge_sort.launches", 18),
        ("simt.kernel.radix_sort.launches", 21),
        ("simt.launches", 69),
        ("trace.dropped_events", 0),
    ],
    gauges: &[
        "tune.sort.evaluation_ns",
        "tune.sort.labeling_ns",
        "tune.sort.profiling_ns",
        "tune.sort.training_ns",
    ],
    histograms: &[
        ("dispatch.sort.feature_ns", 24),
        ("dispatch.sort.predict_ns", 24),
        ("simt.launch.dram_bytes", 69),
        ("simt.launch.elapsed_ns", 69),
    ],
};

const GUARD_TRACER: Expected = Expected {
    counters: &[
        ("guard.sort.calls", 48),
        ("guard.sort.degraded", 0),
        ("guard.sort.failure", 16),
        ("guard.sort.fallback", 11),
        ("guard.sort.quarantine", 2),
        ("guard.sort.recovered", 1),
        ("guard.sort.retry", 10),
        ("simt.fault.failures", 9),
        ("simt.fault.kernel.locality_sort.failures", 3),
        ("simt.fault.kernel.merge_sort.failures", 6),
        ("simt.kernel.locality_sort.launches", 11),
        ("simt.kernel.merge_sort.launches", 11),
        ("simt.kernel.radix_sort.launches", 24),
        ("simt.launches", 46),
        ("trace.dropped_events", 0),
    ],
    gauges: &[],
    histograms: &[
        ("simt.launch.dram_bytes", 46),
        ("simt.launch.elapsed_ns", 46),
    ],
};

const GUARD_OBSERVER: Expected = Expected {
    counters: &[
        ("dispatch.sort.async_calls", 0),
        ("dispatch.sort.calls", 46),
        ("dispatch.sort.fallback", 11),
        ("dispatch.sort.veto.Locality", 11),
        ("dispatch.sort.veto.Merge", 0),
        ("dispatch.sort.veto.Radix", 0),
        ("dispatch.sort.win.Locality", 11),
        ("dispatch.sort.win.Merge", 11),
        ("dispatch.sort.win.Radix", 24),
        ("ml.predict.kernel_evals", 0),
    ],
    gauges: &[],
    histograms: &[
        ("dispatch.sort.feature_ns", 46),
        ("dispatch.sort.latency_ns", 46),
        ("ml.sort.predict_ns", 46),
    ],
};
/// The guard's own statistics over the guarded run.
const GUARD_STATS: GuardStats = GuardStats {
    calls: 48,
    retries: 10,
    failures: 16,
    quarantines: 2,
    recoveries: 1,
    degraded_calls: 0,
    fallbacks: 11,
    backoff_ns: 15_000.0,
};

const SERVE: Expected = Expected {
    counters: &[
        ("serve.pin.admitted", 6),
        ("serve.pin.deadline_violations", 0),
        ("serve.pin.degrade_cached", 0),
        ("serve.pin.degrade_default", 0),
        ("serve.pin.drained", 0),
        ("serve.pin.failed", 0),
        ("serve.pin.hotswap_installs", 1),
        ("serve.pin.lost", 0),
        ("serve.pin.panics", 1),
        ("serve.pin.poison_quarantined", 0),
        ("serve.pin.rejected_expired", 1),
        ("serve.pin.rejected_no_shard", 0),
        ("serve.pin.rejected_queue", 0),
        ("serve.pin.rejected_tenant", 0),
        ("serve.pin.served", 4),
        ("serve.pin.shard_deaths", 1),
        ("serve.pin.shard_restarts", 1),
        ("serve.pin.shard_retired", 0),
        ("serve.pin.shed_expired", 1),
        ("serve.pin.shed_failover", 1),
        ("serve.pin.shed_hopeless", 0),
    ],
    gauges: &["serve.pin.tightened"],
    histograms: &[
        ("serve.pin.dispatch_latency_ns", 4),
        ("serve.pin.e2e_latency_ns", 4),
        ("serve.pin.queue_wait_ns", 4),
    ],
};

fn check(label: &str, snap: &MetricsSnapshot, want: &Expected) {
    let counters: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    let gauges: Vec<&str> = snap.gauges.iter().map(|(k, _)| k.as_str()).collect();
    let histograms: Vec<(&str, u64)> = snap
        .histograms
        .iter()
        .map(|(k, h)| (k.as_str(), h.count))
        .collect();
    assert_eq!(counters, want.counters, "{label}: counters");
    assert_eq!(gauges, want.gauges, "{label}: gauge names");
    assert_eq!(histograms, want.histograms, "{label}: histogram counts");
}

fn sort_suite(ctx: &Context) -> CodeVariant<SortInput> {
    let mut cv = nitro::sort::variants::build_code_variant(ctx, &DeviceConfig::fermi_c2050());
    cv.policy_mut().classifier = ClassifierConfig::Knn { k: 3 };
    cv
}

fn traced_sort_run() -> MetricsSnapshot {
    let ctx = Context::new();
    let mut cv = sort_suite(&ctx);
    let (train, test) = nitro::sort::keys::sort_small_sets(0x0B5);

    let tracer = Tracer::new(Arc::new(RingSink::new(1 << 16)));
    ctx.install_tracer(tracer.clone());
    cv.declare_tracer_metrics(&tracer);
    nitro::trace::install_global(tracer.clone());
    Autotuner::new().tune(&mut cv, &train).unwrap();
    for input in &test {
        cv.call(input).unwrap();
    }
    nitro::trace::uninstall_global();
    ctx.clear_tracer();
    tracer.metrics_snapshot()
}

/// Returns the tracer's snapshot, the observer's snapshot and the
/// guard's statistics.
fn guarded_faulty_run() -> (MetricsSnapshot, MetricsSnapshot, GuardStats) {
    silence_injected_panics();
    let ctx = Context::new();
    let mut cv = sort_suite(&ctx);
    let (train, test) = nitro::sort::keys::sort_small_sets(0x5EED);
    Autotuner::new().tune(&mut cv, &train).unwrap();

    let tracer = Tracer::new(Arc::new(RingSink::new(1 << 16)));
    ctx.install_tracer(tracer.clone());
    nitro::trace::install_global(tracer.clone());
    let registry = MetricsRegistry::with_stripes(2);
    FunctionPulse::install(&mut cv, &registry, None);
    let policy = GuardPolicy {
        retry_budget: 2,
        quarantine_threshold: 6,
        cooldown_calls: 8,
        ..GuardPolicy::default()
    };
    let mut guard = GuardedVariant::new(cv, policy).unwrap();
    let failing = inject_failures(guard.inner_mut(), 1, true).unwrap();
    install_fault_plan(FaultPlan::with_failure_prob(0xC4A05, 0.05));
    for input in &test {
        let _ = guard.call(input);
    }
    // The outage ends: a half-open probe brings the variant back.
    failing.store(false, Ordering::Relaxed);
    for input in &test {
        let _ = guard.call(input);
    }
    uninstall_fault_plan();
    nitro::trace::uninstall_global();
    ctx.clear_tracer();
    (
        tracer.metrics_snapshot(),
        registry.snapshot(),
        guard.stats(),
    )
}

/// Two variants, each parking on `gate` (entered, then released) for
/// inputs from 100 up; a negative input panics in feature evaluation,
/// past the guard, and kills its shard.
fn gated_cv(gate: &Arc<(Barrier, Barrier)>) -> CodeVariant<f64> {
    let mut cv = CodeVariant::new("pin", &Context::new());
    for (name, scale) in [("lo", 1.0), ("hi", 2.0)] {
        let gate = gate.clone();
        cv.add_variant(FnVariant::new(name, move |&x: &f64| {
            if x >= 100.0 {
                gate.0.wait();
                gate.1.wait();
            }
            scale * x
        }));
    }
    cv.set_default(0);
    cv.add_input_feature(FnFeature::new("x", |&x: &f64| {
        if x < 0.0 {
            panic!("{INJECTED_PANIC_PREFIX}grenade in feature evaluation");
        }
        x
    }));
    cv
}

/// One shard on a manual clock, one request at a time: two served, one
/// rejected expired at the door, one shed expired in the queue behind a
/// gated dispatch, one that kills the shard and is shed on failover
/// while the restart backs off, and one served after the restart.
fn lockstep_serve_run() -> MetricsSnapshot {
    silence_injected_panics();
    let gate = Arc::new((Barrier::new(2), Barrier::new(2)));
    let mut cv = gated_cv(&gate);
    let data = Dataset::from_parts(
        (0..10).map(|i| vec![f64::from(i)]).collect(),
        (0..10).map(|i| usize::from(i >= 5)).collect(),
    );
    cv.install_model(TrainedModel::train(&ClassifierConfig::Knn { k: 1 }, &data));
    let artifact = cv.export_artifact().unwrap();

    let registry = MetricsRegistry::with_stripes(2);
    let (clock, hand) = ServeClock::manual();
    let config = ServeConfig {
        shards: 1,
        queue_capacity: Some(8),
        tenant_slots: 4,
        tenant_rate_per_s: 1_000_000.0,
        tenant_burst: 1_000,
        hopeless_shedding: false,
        ..ServeConfig::default()
    };
    let front = ServeFront::start(
        config,
        GuardPolicy::default(),
        clock.clone(),
        Some(&registry),
        {
            let gate = gate.clone();
            move |_| gated_cv(&gate)
        },
    )
    .unwrap();
    front.publish_artifact(artifact);
    let meta = |budget_ns| {
        RequestMeta::new(
            TenantId(1),
            Priority::Interactive,
            clock.now_ns(),
            budget_ns,
        )
    };
    let served = |outcome| matches!(outcome, ServeOutcome::Served { .. });

    for x in [1.0, 7.0] {
        assert!(served(front.submit(x, meta(1_000_000_000)).unwrap().wait()));
        hand.fetch_add(10_000, Ordering::SeqCst);
    }
    let stale = RequestMeta::new(TenantId(1), Priority::Interactive, 0, 1);
    assert_eq!(
        front.submit(1.0, stale).unwrap_err(),
        Rejection::DeadlineExpired
    );

    // The gated dispatch holds the only worker while the queued
    // request's 1 µs budget runs out.
    let gated = front.submit(100.0, meta(1_000_000_000)).unwrap();
    gate.0.wait();
    let queued = front.submit(2.0, meta(1_000)).unwrap();
    hand.fetch_add(10_000, Ordering::SeqCst);
    gate.1.wait();
    assert!(served(gated.wait()));
    assert!(matches!(queued.wait(), ServeOutcome::ShedExpired { .. }));

    let grenade = front.submit(-1.0, meta(1_000_000_000)).unwrap();
    assert!(matches!(
        grenade.wait(),
        ServeOutcome::ShedFailover { from_shard: 0 }
    ));
    hand.fetch_add(2_000_000, Ordering::SeqCst);
    for _ in 0..5_000 {
        if front.shard_states() == [ShardState::Up] {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(served(
        front.submit(3.0, meta(1_000_000_000)).unwrap().wait()
    ));

    let summary = front.shutdown();
    assert!(summary.accounting.is_conserved());
    registry.snapshot()
}

#[test]
fn serve_front_metric_names_and_counts_are_stable() {
    check("lockstep serve run", &lockstep_serve_run(), &SERVE);
}

#[test]
fn exported_metric_names_and_counts_are_stable() {
    check("traced sort run", &traced_sort_run(), &TRACED);
    let (tracer, observer, stats) = guarded_faulty_run();
    check("guarded run, tracer", &tracer, &GUARD_TRACER);
    check("guarded run, observer", &observer, &GUARD_OBSERVER);
    assert_eq!(stats, GUARD_STATS);
}
