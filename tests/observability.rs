//! End-to-end observability: a tracer installed through the facade sees
//! every layer — tuner phases, profiling instants, dispatch spans and
//! simulator launches — and the exported artifacts are well-formed; and
//! every dispatch is counted once, however its recorders are wired and
//! however many threads share them.

use std::sync::Arc;

use nitro::core::{ClassifierConfig, CodeVariant, Context, FnFeature, FnVariant};
use nitro::guard::{GuardPolicy, GuardedVariant};
use nitro::pulse::PulseProfiler;
use nitro::simt::DeviceConfig;
use nitro::trace::{
    validate_chrome_trace, ChromeSink, MetricsRegistry, MetricsSnapshot, RegretLedger, RingSink,
    Tracer,
};
use nitro::tuner::{Autotuner, ProfileTable};

/// One test exercises the whole traced pipeline: the process-global slot
/// (which the simulator layer reads) is shared state, so the simt
/// assertions must not race with other traced tests in this binary.
#[test]
fn traced_sort_pipeline_emits_valid_artifacts() {
    let ctx = Context::new();
    let mut cv = nitro::sort::variants::build_code_variant(&ctx, &DeviceConfig::fermi_c2050());
    cv.policy_mut().classifier = ClassifierConfig::Knn { k: 3 };
    let (train, test) = nitro::sort::keys::sort_small_sets(0x0B5);

    let sink = Arc::new(ChromeSink::new());
    let tracer = Tracer::new(sink.clone());
    ctx.install_tracer(tracer.clone());
    cv.bind_metrics(tracer.metrics());
    nitro::trace::install_global(tracer.clone());

    let report = Autotuner::new().tune(&mut cv, &train).unwrap();
    let phases: Vec<&str> = report
        .phase_timings
        .iter()
        .map(|p| p.phase.as_str())
        .collect();
    assert_eq!(
        phases,
        vec!["profiling", "labeling", "training", "evaluation"]
    );

    // Ground truth for regret accounting, then dispatch every test input.
    let table = ProfileTable::build(&cv, &test);
    let mut ledger = RegretLedger::new(3);
    for (i, input) in test.iter().enumerate() {
        let inv = cv.call(input).unwrap();
        ledger.record(&format!("sort[{i}]"), inv.variant, &table.costs[i]);
    }
    // The radix variant is vetoed on 64-bit keys (its cost row holds the
    // paper's ∞ sentinel), and the ledger only accounts rows with a full
    // finite cost vector — so the expected count is the finite subset.
    let finite_rows = table
        .costs
        .iter()
        .filter(|row| row.iter().all(|c| c.is_finite()))
        .count();
    assert_eq!(ledger.count as usize, finite_rows);
    assert!(finite_rows > 0, "no fully-finite cost rows in test set");
    assert!(
        ledger.oracle_fraction() > 0.5,
        "{}",
        ledger.oracle_fraction()
    );

    nitro::trace::uninstall_global();
    ctx.clear_tracer();

    // The Chrome document passes the strict-nesting validator and saw
    // all three instrumented layers.
    let stats = validate_chrome_trace(&sink.to_chrome_json()).expect("valid chrome trace");
    assert!(stats.spans > 0, "no spans recorded");
    assert!(stats.instants > 0, "no instants recorded");
    let events = sink.snapshot();
    for cat in ["dispatch", "tuning", "profile", "simt"] {
        assert!(
            events.iter().any(|e| e.cat == cat),
            "no '{cat}' events in trace"
        );
    }

    // Metrics cover dispatch, profiling and the simulator, and the
    // snapshot round-trips through its JSON form.
    let snap = tracer.metrics().snapshot();
    assert_eq!(snap.counter("dispatch.sort.calls"), Some(test.len() as u64));
    assert!(snap.counter("profile.sort.inputs").unwrap_or(0) > 0);
    assert!(snap.counter("simt.launches").unwrap_or(0) > 0);
    assert!(snap.gauge("tune.sort.training_ns").is_some());
    assert!(snap.histogram("dispatch.sort.predict_ns").is_some());

    let back = MetricsSnapshot::from_json(&snap.to_json()).expect("metrics round-trip");
    assert_eq!(back.counters, snap.counters);
    assert_eq!(back.gauges.len(), snap.gauges.len());

    // The runtime-metrics audit accepts the snapshot (no error-severity
    // findings on a healthy run).
    let diags = nitro::audit::analyze_metrics(&snap, &nitro::audit::MetricsAuditConfig::default());
    assert!(
        !nitro::audit::has_errors(&diags),
        "{}",
        nitro::audit::render_text(&diags)
    );
}

/// A traced function whose metrics are bound twice to the tracer's
/// registry, with a profiler watching too, still counts each call once,
/// plain or guarded.
#[test]
fn one_call_counts_once() {
    let ctx = Context::new();
    let tracer = Tracer::new(Arc::new(RingSink::new(64)));
    ctx.install_tracer(tracer.clone());
    let mut cv = CodeVariant::<f64>::new("once", &ctx);
    cv.add_variant(FnVariant::new("a", |&x: &f64| x + 1.0));
    cv.add_variant(FnVariant::new("b", |&x: &f64| 10.0 - x));
    cv.set_default(0);
    cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));
    cv.bind_metrics(tracer.metrics());
    cv.bind_metrics(tracer.metrics());
    let profiler = PulseProfiler::new(1);
    cv.set_dispatch_observer(Arc::new(profiler.clone()));

    let calls = || tracer.metrics().counter_value("dispatch.once.calls");
    cv.call(&1.0).unwrap();
    assert_eq!(calls(), Some(1), "one traced CodeVariant::call");
    let guard = GuardedVariant::new(cv, GuardPolicy::default()).unwrap();
    guard.call(&2.0).unwrap();
    assert_eq!(calls(), Some(2), "plus one GuardedVariant::call");
    assert_eq!(profiler.sampled(), 2);
    ctx.clear_tracer();
}

/// Four threads, each dispatching the sort test set twice through its
/// own `CodeVariant` installed from one tuned artifact, bound to one
/// registry and watched by one profiler: every call of every thread is
/// counted, and the profiler samples some of them.
#[test]
fn threads_sharing_a_registry_count_every_call() {
    const THREADS: usize = 4;
    const PASSES: usize = 2;
    let device = DeviceConfig::fermi_c2050();
    let build = || nitro::sort::variants::build_code_variant(&Context::new(), &device);
    let (train, test) = nitro::sort::keys::sort_small_sets(0x0B5);
    let mut cv = build();
    Autotuner::new().tune(&mut cv, &train).unwrap();
    let artifact = cv.export_artifact().unwrap();

    let registry = MetricsRegistry::new();
    let profiler = PulseProfiler::new(4);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let mut cv = build();
                cv.install_artifact(artifact.clone()).unwrap();
                cv.bind_metrics(&registry);
                cv.set_dispatch_observer(Arc::new(profiler.clone()));
                for _ in 0..PASSES {
                    for input in &test {
                        cv.call(input).unwrap();
                    }
                }
            });
        }
    });

    let calls = (THREADS * PASSES * test.len()) as u64;
    assert_eq!(registry.counter_value("dispatch.sort.calls"), Some(calls));
    let latency = registry.fused_sketch("dispatch.sort.latency_ns");
    assert_eq!(latency.map(|s| s.count()), Some(calls));
    assert!(profiler.sampled() > 0);
    assert!(!profiler.report().entries.is_empty());
}
