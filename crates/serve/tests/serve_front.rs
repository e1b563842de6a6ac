//! End-to-end tests for the serving front door: admission, shedding,
//! degradation, hot-swap, and SLO-driven tightening — all under a
//! manual clock (plus one wall-clock smoke test), so every deadline
//! decision in here is deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use nitro_core::{CodeVariant, Context, FnFeature, FnVariant, Priority, RequestMeta, TenantId};
use nitro_guard::GuardPolicy;
use nitro_ml::{ClassifierConfig, Dataset, TrainedModel};
use nitro_pulse::{AlertKind, AlertSeverity, PulseAlert};
use nitro_serve::{Rejection, ServeClock, ServeConfig, ServeFront, ServeOutcome};
use nitro_trace::MetricsRegistry;

/// A gate a variant can block on, so tests can hold a worker mid-
/// dispatch and deterministically pile work up behind it.
struct Gate {
    state: Mutex<(bool, bool)>, // (worker entered, test released)
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Gate {
            state: Mutex::new((false, false)),
            cv: Condvar::new(),
        })
    }

    /// Called from inside the variant: announce entry, wait for release.
    fn block(&self) {
        let mut g = self.state.lock().unwrap();
        g.0 = true;
        self.cv.notify_all();
        while !g.1 {
            g = self.cv.wait(g).unwrap();
        }
    }

    /// Test side: wait until the worker is parked inside the variant.
    fn wait_entered(&self) {
        let mut g = self.state.lock().unwrap();
        while !g.0 {
            g = self.cv.wait(g).unwrap();
        }
    }

    /// Test side: let the worker finish the blocked dispatch.
    fn release(&self) {
        let mut g = self.state.lock().unwrap();
        g.1 = true;
        self.cv.notify_all();
    }
}

/// Two-variant toy registration. Every execution bumps `runs` — the
/// tests' proof that shed requests never cost variant work. A negative
/// input parks the worker on `gate` until the test releases it.
fn toy_cv(ctx: &Context, runs: Arc<AtomicU64>, gate: Option<Arc<Gate>>) -> CodeVariant<f64> {
    let mut cv = CodeVariant::new("toy", ctx);
    {
        let runs = runs.clone();
        let gate = gate.clone();
        cv.add_variant(FnVariant::new("small", move |&x: &f64| {
            runs.fetch_add(1, Ordering::SeqCst);
            if x < 0.0 {
                if let Some(g) = &gate {
                    g.block();
                }
            }
            1.0 + x
        }));
    }
    {
        let runs = runs.clone();
        cv.add_variant(FnVariant::new("large", move |&x: &f64| {
            runs.fetch_add(1, Ordering::SeqCst);
            10.0 - x * 0.5
        }));
    }
    cv.set_default(0);
    cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));
    cv
}

/// k=1 KNN trained on a single class: predicts `label` everywhere.
fn constant_model(label: usize) -> TrainedModel {
    let data = Dataset::from_parts((0..4).map(|i| vec![f64::from(i)]).collect(), vec![label; 4]);
    TrainedModel::train(&ClassifierConfig::Knn { k: 1 }, &data)
}

fn test_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        queue_capacity: Some(64),
        tenant_slots: 16,
        tenant_rate_per_s: 1_000_000.0,
        tenant_burst: 1_000,
        ..ServeConfig::default()
    }
}

fn meta(clock: &ServeClock, tenant: u32, priority: Priority, budget_ns: u64) -> RequestMeta {
    RequestMeta::new(TenantId(tenant), priority, clock.now_ns(), budget_ns)
}

#[test]
fn wall_clock_requests_are_served_within_budget() {
    let runs = Arc::new(AtomicU64::new(0));
    let registry = MetricsRegistry::new();
    let clock = ServeClock::wall();
    let front = ServeFront::start(
        test_config(),
        GuardPolicy::default(),
        clock.clone(),
        Some(&registry),
        {
            let runs = runs.clone();
            move |_| toy_cv(&Context::new(), runs.clone(), None)
        },
    )
    .unwrap();

    let tickets: Vec<_> = (0..8)
        .map(|i| {
            front
                .submit(
                    f64::from(i),
                    meta(&clock, i, Priority::Standard, 5_000_000_000),
                )
                .expect("admitted")
        })
        .collect();
    for t in tickets {
        match t.wait() {
            ServeOutcome::Served { deadline_met, .. } => assert!(deadline_met),
            other => panic!("expected Served, got {other:?}"),
        }
    }

    let summary = front.shutdown();
    assert_eq!(summary.escaped_panics, 0);
    assert_eq!(summary.workers_joined, 1);
    assert_eq!(runs.load(Ordering::SeqCst), 8);
    assert_eq!(registry.counter_value("serve.toy.admitted"), Some(8));
    assert_eq!(
        registry.counter_value("serve.toy.deadline_violations"),
        Some(0)
    );
}

#[test]
fn a_second_front_on_one_registry_accounts_only_its_own_requests() {
    let registry = MetricsRegistry::new();
    let (clock, _hand) = ServeClock::manual();
    let run = |requests: u32| {
        let front = ServeFront::start(
            test_config(),
            GuardPolicy::default(),
            clock.clone(),
            Some(&registry),
            |_| toy_cv(&Context::new(), Arc::new(AtomicU64::new(0)), None),
        )
        .unwrap();
        for i in 0..requests {
            let ticket = front
                .submit(
                    f64::from(i),
                    meta(&clock, i, Priority::Standard, u64::MAX / 2),
                )
                .expect("admitted");
            assert!(matches!(ticket.wait(), ServeOutcome::Served { .. }));
        }
        front.shutdown()
    };

    let first = run(3);
    assert_eq!(first.accounting.admitted, 3);
    let second = run(2);
    assert!(
        second.accounting.is_conserved(),
        "{:?}",
        second.accounting.violations()
    );
    assert_eq!(
        (second.accounting.admitted, second.accounting.served),
        (2, 2)
    );
    // The registry keeps the running totals across both fronts.
    assert_eq!(registry.counter_value("serve.toy.admitted"), Some(5));
    assert_eq!(registry.counter_value("serve.toy.served"), Some(5));
}

#[test]
fn expired_at_the_door_is_rejected_before_costing_anything() {
    let runs = Arc::new(AtomicU64::new(0));
    let registry = MetricsRegistry::new();
    let (clock, hand) = ServeClock::manual();
    let front = ServeFront::start(
        test_config(),
        GuardPolicy::default(),
        clock.clone(),
        Some(&registry),
        {
            let runs = runs.clone();
            move |_| toy_cv(&Context::new(), runs.clone(), None)
        },
    )
    .unwrap();

    // Issued at t=0 with a 50 ns budget; the clock is already at 100.
    let stale = RequestMeta::new(TenantId(1), Priority::Interactive, 0, 50);
    hand.store(100, Ordering::SeqCst);
    assert!(matches!(
        front.submit(1.0, stale),
        Err(Rejection::DeadlineExpired)
    ));

    front.shutdown();
    assert_eq!(runs.load(Ordering::SeqCst), 0, "no work for a dead request");
    assert_eq!(
        registry.counter_value("serve.toy.rejected_expired"),
        Some(1)
    );
    assert_eq!(registry.counter_value("serve.toy.admitted"), Some(0));
}

#[test]
fn burst_exhaustion_throttles_the_tenant() {
    let runs = Arc::new(AtomicU64::new(0));
    let (clock, _hand) = ServeClock::manual();
    let config = ServeConfig {
        tenant_burst: 2,
        tenant_rate_per_s: 0.001, // effectively no refill at a frozen clock
        ..test_config()
    };
    let front = ServeFront::start(config, GuardPolicy::default(), clock.clone(), None, {
        let runs = runs.clone();
        move |_| toy_cv(&Context::new(), runs.clone(), None)
    })
    .unwrap();

    let t1 = front
        .submit(1.0, meta(&clock, 7, Priority::Standard, 1_000))
        .unwrap();
    let t2 = front
        .submit(2.0, meta(&clock, 7, Priority::Standard, 1_000))
        .unwrap();
    assert!(
        matches!(
            front.submit(3.0, meta(&clock, 7, Priority::Standard, 1_000)),
            Err(Rejection::TenantThrottled)
        ),
        "third request in the burst window is turned away"
    );
    assert!(matches!(t1.wait(), ServeOutcome::Served { .. }));
    assert!(matches!(t2.wait(), ServeOutcome::Served { .. }));
    front.shutdown();
}

#[test]
fn queue_watermarks_admit_by_priority() {
    let runs = Arc::new(AtomicU64::new(0));
    let registry = MetricsRegistry::new();
    let gate = Gate::new();
    let (clock, _hand) = ServeClock::manual();
    let config = ServeConfig {
        queue_capacity: Some(4),
        ..test_config()
    };
    let front = ServeFront::start(
        config,
        GuardPolicy::default(),
        clock.clone(),
        Some(&registry),
        {
            let runs = runs.clone();
            let gate = gate.clone();
            move |_| toy_cv(&Context::new(), runs.clone(), Some(gate.clone()))
        },
    )
    .unwrap();

    // Park the single worker inside a dispatch so queued depth is ours
    // to control.
    let blocker = front
        .submit(-1.0, meta(&clock, 1, Priority::Interactive, u64::MAX / 2))
        .unwrap();
    gate.wait_entered();
    assert_eq!(front.queue_depths(), vec![0]);

    // Batch watermark on a 4-slot queue is floor(4 × 0.7) = 2: two
    // batch jobs queue, the third is refused.
    let b1 = front
        .submit(1.0, meta(&clock, 2, Priority::Batch, u64::MAX / 2))
        .unwrap();
    let b2 = front
        .submit(2.0, meta(&clock, 2, Priority::Batch, u64::MAX / 2))
        .unwrap();
    assert!(matches!(
        front.submit(3.0, meta(&clock, 2, Priority::Batch, u64::MAX / 2)),
        Err(Rejection::QueueFull { depth: 2, .. })
    ));

    // Interactive still has headroom up to the full capacity.
    let i1 = front
        .submit(4.0, meta(&clock, 3, Priority::Interactive, u64::MAX / 2))
        .unwrap();
    let i2 = front
        .submit(5.0, meta(&clock, 3, Priority::Interactive, u64::MAX / 2))
        .unwrap();
    assert!(matches!(
        front.submit(6.0, meta(&clock, 3, Priority::Interactive, u64::MAX / 2)),
        Err(Rejection::QueueFull { depth: 4, .. })
    ));

    gate.release();
    for t in [blocker, b1, b2, i1, i2] {
        assert!(matches!(t.wait(), ServeOutcome::Served { .. }));
    }
    front.shutdown();
    assert_eq!(registry.counter_value("serve.toy.rejected_queue"), Some(2));
    assert_eq!(registry.counter_value("serve.toy.admitted"), Some(5));
}

#[test]
fn deadline_shed_happens_before_dispatch_never_after() {
    let runs = Arc::new(AtomicU64::new(0));
    let registry = MetricsRegistry::new();
    let gate = Gate::new();
    let (clock, hand) = ServeClock::manual();
    let config = ServeConfig {
        hopeless_shedding: false, // isolate the expiry shed
        ..test_config()
    };
    let front = ServeFront::start(
        config,
        GuardPolicy::default(),
        clock.clone(),
        Some(&registry),
        {
            let runs = runs.clone();
            let gate = gate.clone();
            move |_| toy_cv(&Context::new(), runs.clone(), Some(gate.clone()))
        },
    )
    .unwrap();

    let blocker = front
        .submit(-1.0, meta(&clock, 1, Priority::Interactive, u64::MAX / 2))
        .unwrap();
    gate.wait_entered();

    // Three requests with 1 µs budgets queue behind the blocker …
    let doomed: Vec<_> = (0..3)
        .map(|i| {
            front
                .submit(f64::from(i), meta(&clock, 2, Priority::Standard, 1_000))
                .unwrap()
        })
        .collect();
    // … and the clock leaps far past their deadlines while they wait.
    hand.store(5_000, Ordering::SeqCst);
    gate.release();

    assert!(matches!(blocker.wait(), ServeOutcome::Served { .. }));
    for t in doomed {
        match t.wait() {
            ServeOutcome::ShedExpired { queued_ns } => assert!(queued_ns > 0),
            other => panic!("expected ShedExpired, got {other:?}"),
        }
    }
    front.shutdown();
    assert_eq!(
        runs.load(Ordering::SeqCst),
        1,
        "only the blocker ever ran: shedding must precede dispatch"
    );
    assert_eq!(registry.counter_value("serve.toy.shed_expired"), Some(3));
    assert_eq!(
        registry.counter_value("serve.toy.deadline_violations"),
        Some(0)
    );
}

#[test]
fn hopeless_requests_are_shed_against_the_service_estimate() {
    let runs = Arc::new(AtomicU64::new(0));
    let registry = MetricsRegistry::new();
    let gate = Gate::new();
    let (clock, hand) = ServeClock::manual();
    let front = ServeFront::start(
        test_config(), // hopeless_shedding: true
        GuardPolicy::default(),
        clock.clone(),
        Some(&registry),
        {
            let runs = runs.clone();
            let gate = gate.clone();
            move |_| toy_cv(&Context::new(), runs.clone(), Some(gate.clone()))
        },
    )
    .unwrap();

    // The blocker's dispatch "takes" 1 ms of manual time, seeding the
    // worker's service-time EWMA at 1 ms.
    let blocker = front
        .submit(-1.0, meta(&clock, 1, Priority::Interactive, u64::MAX / 2))
        .unwrap();
    gate.wait_entered();
    hand.store(1_000_000, Ordering::SeqCst);
    gate.release();
    assert!(matches!(blocker.wait(), ServeOutcome::Served { .. }));

    // A 1 µs budget is not yet expired, but it cannot possibly beat a
    // 1 ms service estimate: shed at dequeue, before any work.
    let hopeless = front
        .submit(1.0, meta(&clock, 2, Priority::Standard, 1_000))
        .unwrap();
    match hopeless.wait() {
        ServeOutcome::ShedHopeless {
            remaining_ns,
            estimate_ns,
        } => {
            assert!(remaining_ns <= 1_000);
            assert_eq!(estimate_ns, 1_000_000);
        }
        other => panic!("expected ShedHopeless, got {other:?}"),
    }
    front.shutdown();
    assert_eq!(runs.load(Ordering::SeqCst), 1, "hopeless request never ran");
    assert_eq!(registry.counter_value("serve.toy.shed_hopeless"), Some(1));
}

#[test]
fn one_slow_dispatch_does_not_lock_the_shard_out() {
    let runs = Arc::new(AtomicU64::new(0));
    let registry = MetricsRegistry::new();
    let gate = Gate::new();
    let (clock, hand) = ServeClock::manual();
    let front = ServeFront::start(
        test_config(), // hopeless_shedding: true
        GuardPolicy::default(),
        clock.clone(),
        Some(&registry),
        {
            let runs = runs.clone();
            let gate = gate.clone();
            move |_| toy_cv(&Context::new(), runs.clone(), Some(gate.clone()))
        },
    )
    .unwrap();

    // One dispatch (a preempted worker, say) takes 100 ms of manual time:
    // the service estimate starts 100× above every 1 ms budget below.
    let blocker = front
        .submit(-1.0, meta(&clock, 1, Priority::Interactive, u64::MAX / 2))
        .unwrap();
    gate.wait_entered();
    hand.store(100_000_000, Ordering::SeqCst);
    gate.release();
    assert!(matches!(blocker.wait(), ServeOutcome::Served { .. }));

    // Each hopeless shed is a zero-cost sample (α = 1/8), so the estimate
    // falls below 1 ms after ⌈ln 100 / ln(8/7)⌉ = 35 sheds and the shard
    // serves again. Without the decay it would shed forever.
    let bound = (100f64.ln() / (8.0f64 / 7.0).ln()).ceil() as usize;
    let mut sheds = 0;
    loop {
        let ticket = front
            .submit(1.0, meta(&clock, 2, Priority::Standard, 1_000_000))
            .unwrap();
        match ticket.wait() {
            ServeOutcome::ShedHopeless { .. } => sheds += 1,
            ServeOutcome::Served { .. } => break,
            other => panic!("expected a shed or a serve, got {other:?}"),
        }
        assert!(sheds <= bound, "still shedding after {sheds} requests");
    }
    assert!(sheds > 0, "the slow dispatch must have lifted the estimate");
    // The recovered shard keeps serving feasible requests.
    for _ in 0..5 {
        let ticket = front
            .submit(1.0, meta(&clock, 2, Priority::Standard, 1_000_000))
            .unwrap();
        assert!(matches!(ticket.wait(), ServeOutcome::Served { .. }));
    }
    front.shutdown();
    assert_eq!(runs.load(Ordering::SeqCst), 7, "blocker + six served");
    assert_eq!(
        registry.counter_value("serve.toy.shed_hopeless"),
        Some(sheds as u64)
    );
}

#[test]
fn hot_swap_mid_stream_changes_decisions_without_a_restart() {
    let runs = Arc::new(AtomicU64::new(0));
    let registry = MetricsRegistry::new();
    let clock = ServeClock::wall();
    let front = ServeFront::start(
        test_config(),
        GuardPolicy::default(),
        clock.clone(),
        Some(&registry),
        {
            let runs = runs.clone();
            move |_| toy_cv(&Context::new(), runs.clone(), None)
        },
    )
    .unwrap();
    assert_eq!(front.model_version(), 0);

    // No model published yet: the guard degrades to the default.
    match front
        .submit(9.0, meta(&clock, 1, Priority::Standard, 5_000_000_000))
        .unwrap()
        .wait()
    {
        ServeOutcome::Served { variant, .. } => assert_eq!(variant, 0),
        other => panic!("{other:?}"),
    }

    // Publish a model that always picks variant 1; workers pick it up
    // on their next dispatch, no restart, no reader block.
    let artifact = {
        let ctx = Context::new();
        let mut cv = toy_cv(&ctx, runs.clone(), None);
        cv.install_model(constant_model(1));
        cv.export_artifact().unwrap()
    };
    assert_eq!(front.publish_artifact(artifact), 1);
    assert_eq!(front.model_version(), 1);

    match front
        .submit(9.0, meta(&clock, 1, Priority::Standard, 5_000_000_000))
        .unwrap()
        .wait()
    {
        ServeOutcome::Served {
            variant,
            variant_name,
            ..
        } => {
            assert_eq!(variant, 1);
            assert_eq!(variant_name, "large");
        }
        other => panic!("{other:?}"),
    }

    front.shutdown();
    assert_eq!(
        registry.counter_value("serve.toy.hotswap_installs"),
        Some(1)
    );
}

#[test]
fn every_tier_counts_one_guarded_call_per_dispatched_request() {
    let runs = Arc::new(AtomicU64::new(0));
    let registry = MetricsRegistry::new();
    let tracer = nitro_trace::Tracer::new(Arc::new(nitro_trace::RingSink::new(4_096)));
    let gate = Gate::new();
    let (clock, _hand) = ServeClock::manual();
    // A 20-slot queue degrades at depth 10 (cached) and 16 (default).
    let config = ServeConfig {
        queue_capacity: Some(20),
        ..test_config()
    };
    // The model picks `small` below zero (where it parks on the gate)
    // and `large` elsewhere.
    let model = {
        let data = Dataset::from_parts(
            [-2.0, -1.0, 1.0, 2.0, 3.0]
                .iter()
                .map(|&x| vec![x])
                .collect(),
            vec![0, 0, 1, 1, 1],
        );
        TrainedModel::train(&ClassifierConfig::Knn { k: 1 }, &data)
    };
    let front = ServeFront::start(
        config,
        GuardPolicy::default(),
        clock.clone(),
        Some(&registry),
        {
            let (runs, gate, tracer) = (runs.clone(), gate.clone(), tracer.clone());
            move |_| {
                let ctx = Context::new();
                ctx.install_tracer(tracer.clone());
                let mut cv = toy_cv(&ctx, runs.clone(), Some(gate.clone()));
                cv.install_model(model.clone());
                cv
            }
        },
    )
    .unwrap();

    let blocker = front
        .submit(-1.0, meta(&clock, 1, Priority::Interactive, u64::MAX / 2))
        .unwrap();
    gate.wait_entered();
    // 19 queued requests: dequeued at depths 18 down to 0, so three run
    // at DefaultOnly, six at CachedRegime and ten at Full.
    let tickets: Vec<_> = (1..20)
        .map(|i| {
            front
                .submit(
                    f64::from(i),
                    meta(&clock, 2, Priority::Interactive, u64::MAX / 2),
                )
                .unwrap()
        })
        .collect();
    gate.release();
    let (mut served, mut failed) = (0u64, 0u64);
    for ticket in std::iter::once(blocker).chain(tickets) {
        match ticket.wait() {
            ServeOutcome::Served { .. } => served += 1,
            ServeOutcome::Failed { .. } => failed += 1,
            other => panic!("expected a dispatch, got {other:?}"),
        }
    }
    front.shutdown();

    assert_eq!(registry.counter_value("serve.toy.degrade_default"), Some(3));
    assert_eq!(registry.counter_value("serve.toy.degrade_cached"), Some(6));
    assert_eq!(served + failed, 20);
    assert_eq!(
        tracer.metrics().counter_value("guard.toy.calls"),
        Some(served + failed),
        "each dispatched request is exactly one guarded call"
    );
}

#[test]
fn page_alerts_tighten_admission_and_relax_restores_it() {
    let runs = Arc::new(AtomicU64::new(0));
    let registry = MetricsRegistry::new();
    let (clock, _hand) = ServeClock::manual();
    let config = ServeConfig {
        max_tighten: 2,
        ..test_config()
    };
    let front = ServeFront::start(config, GuardPolicy::default(), clock, Some(&registry), {
        let runs = runs.clone();
        move |_| toy_cv(&Context::new(), runs.clone(), None)
    })
    .unwrap();

    let page = PulseAlert {
        slo: "toy-p99".into(),
        kind: AlertKind::LatencyRegression,
        severity: AlertSeverity::Page,
        metric: "serve.toy.e2e_latency_ns".into(),
        observed: 9e6,
        threshold: 1e6,
        window_ticks: 3,
    };
    // Alerts for other functions or lower severities do not apply.
    let other_fn = PulseAlert {
        metric: "serve.other.e2e_latency_ns".into(),
        ..page.clone()
    };
    let warn_only = PulseAlert {
        severity: AlertSeverity::Warn,
        ..page.clone()
    };
    assert!(!front.ingest_alert(&other_fn));
    assert!(!front.ingest_alert(&warn_only));
    assert_eq!(front.tighten_level(), 0);

    assert!(front.ingest_alert(&page));
    assert_eq!(front.tighten_level(), 1);
    assert!(front.ingest_alert(&page));
    assert!(front.ingest_alert(&page), "applies but saturates at max");
    assert_eq!(front.tighten_level(), 2, "capped at max_tighten");
    assert_eq!(registry.gauge_value("serve.toy.tightened"), Some(2.0));

    front.relax();
    front.relax();
    front.relax(); // saturates at zero
    assert_eq!(front.tighten_level(), 0);
    assert_eq!(registry.gauge_value("serve.toy.tightened"), Some(0.0));
    front.shutdown();
}

#[test]
fn startup_refuses_mismatched_shards_and_unserveable_configs() {
    let runs = Arc::new(AtomicU64::new(0));
    let (clock, _hand) = ServeClock::manual();

    // Shard 1 registering a different function is a hard error.
    let err = match ServeFront::start(
        ServeConfig {
            shards: 2,
            ..test_config()
        },
        GuardPolicy::default(),
        clock.clone(),
        None,
        {
            let runs = runs.clone();
            move |shard| {
                let ctx = Context::new();
                if shard == 0 {
                    toy_cv(&ctx, runs.clone(), None)
                } else {
                    let mut cv = CodeVariant::new("imposter", &ctx);
                    cv.add_variant(FnVariant::new("v", |&x: &f64| x));
                    cv.set_default(0);
                    cv
                }
            }
        },
    ) {
        Err(e) => e,
        Ok(_) => panic!("mismatched shard registration must refuse startup"),
    };
    assert!(err.to_string().contains("imposter"), "{err}");

    // A registration without a terminal default is refused (NITRO102).
    let err = match ServeFront::start(test_config(), GuardPolicy::default(), clock, None, |_| {
        let ctx = Context::new();
        let mut cv = CodeVariant::new("nodefault", &ctx);
        cv.add_variant(FnVariant::new("v", |&x: &f64| x));
        cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));
        cv
    }) {
        Err(e) => e,
        Ok(_) => panic!("missing default must refuse startup"),
    };
    assert!(
        err.diagnostics().iter().any(|d| d.code == "NITRO102"),
        "{err}"
    );
}
