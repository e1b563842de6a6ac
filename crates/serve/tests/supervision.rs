//! Self-healing tests: shard death and restart, poison-pill
//! quarantine, restart-budget retirement and wedged-worker replacement
//! — all under a manual clock, so backoff and staleness arithmetic is
//! deterministic. The
//! supervisor polls on wall time but *decides* on serve-clock time,
//! which is what makes these tests possible: a frozen manual clock
//! freezes restart backoff until the test advances the hand.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use nitro_core::{CodeVariant, Context, FnFeature, FnVariant, Priority, RequestMeta, TenantId};
use nitro_guard::GuardPolicy;
use nitro_serve::{
    Rejection, ServeClock, ServeConfig, ServeFront, ServeOutcome, ShardState, SupervisorConfig,
};
use nitro_simt::{silence_injected_panics, INJECTED_PANIC_PREFIX};
use nitro_trace::MetricsRegistry;

/// A registration whose *feature evaluation* panics on negative input.
/// The guard only catches variant-body panics, so a grenade input blows
/// straight through to the worker's backstop — the deterministic way to
/// kill a shard.
fn grenade_cv(ctx: &Context, name: &str) -> CodeVariant<f64> {
    let mut cv = CodeVariant::new(name, ctx);
    cv.add_variant(FnVariant::new("only", |&x: &f64| x + 1.0));
    cv.set_default(0);
    cv.add_input_feature(FnFeature::new("x", |&x: &f64| {
        if x < 0.0 {
            panic!("{INJECTED_PANIC_PREFIX}grenade: feature evaluation blew up on {x}");
        }
        x
    }));
    cv
}

fn supervised_config(shards: usize, sup: SupervisorConfig) -> ServeConfig {
    ServeConfig {
        shards,
        queue_capacity: Some(64),
        tenant_slots: 16,
        tenant_rate_per_s: 1_000_000.0,
        tenant_burst: 10_000,
        hopeless_shedding: false,
        supervision: sup,
        ..ServeConfig::default()
    }
}

fn meta(clock: &ServeClock, tenant: u32) -> RequestMeta {
    RequestMeta::new(
        TenantId(tenant),
        Priority::Interactive,
        clock.now_ns(),
        u64::MAX / 2,
    )
}

/// Spin (wall time) until `f` holds; the supervisor ticks every 1ms.
fn wait_until(what: &str, f: impl Fn() -> bool) {
    for _ in 0..5_000 {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn dead_shard_restarts_and_recovers() {
    let (clock, hand) = ServeClock::manual();
    let front = ServeFront::start(
        supervised_config(1, SupervisorConfig::default()),
        GuardPolicy::default(),
        clock.clone(),
        None,
        |_| grenade_cv(&Context::new(), "heal"),
    )
    .unwrap();

    // The grenade kills the only shard. Its job is parked, and with no
    // live shard to take it (the restart is in backoff on a frozen
    // clock), re-placement sheds it as failover.
    let grenade = front.submit(-1.0, meta(&clock, 3)).unwrap();
    let grenade_lineage = grenade.lineage();
    match grenade.wait() {
        ServeOutcome::ShedFailover { from_shard } => assert_eq!(from_shard, 0),
        other => panic!("expected a failover shed, got {other:?}"),
    }
    assert_eq!(front.shard_states(), vec![ShardState::Dead]);

    // Advance past the 1ms restart backoff: the supervisor revives the
    // shard and it serves again.
    hand.fetch_add(2_000_000, Ordering::SeqCst);
    wait_until("shard 0 to restart", || {
        front.shard_states()[0] == ShardState::Up
    });
    let ok = front.submit(1.0, meta(&clock, 3)).unwrap();
    assert!(matches!(ok.wait(), ServeOutcome::Served { .. }));

    let summary = front.shutdown();
    assert_eq!(summary.escaped_panics, 1);
    assert_eq!(summary.shard_deaths, 1);
    assert_eq!(summary.shard_restarts, 1);
    assert_eq!(summary.shards_retired, 0);
    assert_eq!(summary.accounting.quarantined, 0);
    assert_eq!(summary.workers_failed, 0);
    assert!(
        summary.accounting.is_conserved(),
        "{:?}",
        summary.accounting.violations()
    );
    assert_eq!(summary.accounting.admitted, 2);
    assert_eq!(summary.accounting.served, 1);
    assert_eq!(summary.accounting.shed_failover, 1);
    // The panic is attributed to the request that caused it.
    assert_eq!(summary.panic_records.len(), 1);
    assert_eq!(summary.panic_records[0].lineage, grenade_lineage);
    assert_eq!(summary.panic_records[0].tenant, 3);
    assert!(summary.panic_records[0].detail.contains("grenade"));
    assert!(
        summary.diagnostics.iter().any(|d| d.code == "NITRO110"),
        "restart must be audited: {:?}",
        summary.diagnostics
    );
}

#[test]
fn poison_pill_is_quarantined_after_two_kills() {
    let (clock, _hand) = ServeClock::manual();
    let front = ServeFront::start(
        supervised_config(2, SupervisorConfig::default()),
        GuardPolicy::default(),
        clock.clone(),
        None,
        |_| grenade_cv(&Context::new(), "poison"),
    )
    .unwrap();

    // Kill one shard; the supervisor re-places the request onto the
    // surviving shard, which it also kills — second strike, quarantine.
    let poison = front.submit(-1.0, meta(&clock, 9)).unwrap();
    let lineage = poison.lineage();
    match poison.wait() {
        ServeOutcome::Quarantined { kills } => assert_eq!(kills, 2),
        other => panic!("expected quarantine, got {other:?}"),
    }

    let summary = front.shutdown();
    assert_eq!(summary.escaped_panics, 2);
    assert_eq!(summary.shard_deaths, 2);
    assert_eq!(summary.workers_failed, 0);
    assert!(
        summary.accounting.is_conserved(),
        "{:?}",
        summary.accounting.violations()
    );
    assert_eq!(summary.accounting.admitted, 1);
    assert_eq!(summary.accounting.quarantined, 1);
    // Both kills trace back to the same lineage, on different shards.
    assert_eq!(summary.panic_records.len(), 2);
    assert!(summary.panic_records.iter().all(|r| r.lineage == lineage));
    assert_ne!(
        summary.panic_records[0].shard,
        summary.panic_records[1].shard
    );
    assert!(
        summary.diagnostics.iter().any(|d| d.code == "NITRO112"),
        "quarantine must be audited: {:?}",
        summary.diagnostics
    );
}

#[test]
fn a_quarantined_poison_pill_leaves_no_killing_shard_up() {
    // The killing worker marks its shard Dead, with the restart backoff
    // armed, before the request resolves: a lockstep caller that reads
    // the shard states right after `wait()` (and then advances the
    // clock past the backoff) must never see a killing shard still Up.
    silence_injected_panics();
    for iteration in 0..300 {
        let (clock, _hand) = ServeClock::manual();
        let front = ServeFront::start(
            supervised_config(2, SupervisorConfig::default()),
            GuardPolicy::default(),
            clock.clone(),
            None,
            |_| grenade_cv(&Context::new(), "race"),
        )
        .unwrap();
        let poison = front.submit(-1.0, meta(&clock, 9)).unwrap();
        assert!(matches!(
            poison.wait(),
            ServeOutcome::Quarantined { kills: 2 }
        ));
        let states = front.shard_states();
        assert!(
            !states.contains(&ShardState::Up),
            "iteration {iteration}: a killing shard still reads Up: {states:?}"
        );
        front.shutdown();
    }
}

#[test]
fn restart_budget_exhausts_into_retirement() {
    let registry = MetricsRegistry::new();
    let (clock, hand) = ServeClock::manual();
    let sup = SupervisorConfig {
        restart_budget: 1,
        poison_kill_threshold: 10, // never quarantine in this test
        ..SupervisorConfig::default()
    };
    let front = ServeFront::start(
        supervised_config(1, sup),
        GuardPolicy::default(),
        clock.clone(),
        Some(&registry),
        |_| grenade_cv(&Context::new(), "retire"),
    )
    .unwrap();

    // First kill: consumes the whole restart budget.
    let g1 = front.submit(-1.0, meta(&clock, 1)).unwrap();
    assert!(matches!(g1.wait(), ServeOutcome::ShedFailover { .. }));
    hand.fetch_add(2_000_000, Ordering::SeqCst);
    wait_until("the one budgeted restart", || {
        front.shard_states()[0] == ShardState::Up
    });

    // Second kill: no budget left — the shard retires permanently.
    let g2 = front.submit(-1.0, meta(&clock, 1)).unwrap();
    assert!(matches!(g2.wait(), ServeOutcome::ShedFailover { .. }));
    wait_until("retirement", || {
        front.shard_states()[0] == ShardState::Retired
    });
    assert!(matches!(
        front.submit(1.0, meta(&clock, 1)),
        Err(Rejection::NoLiveShards)
    ));

    let summary = front.shutdown();
    assert_eq!(summary.shard_deaths, 2);
    assert_eq!(summary.shard_restarts, 1);
    assert_eq!(summary.shards_retired, 1);
    assert_eq!(summary.workers_failed, 0);
    assert!(
        summary.accounting.is_conserved(),
        "{:?}",
        summary.accounting.violations()
    );
    assert_eq!(summary.accounting.admitted, 2);
    assert_eq!(summary.accounting.shed_failover, 2);
    // The one rejection is counted once, under its own reason.
    assert_eq!(
        registry.counter_value("serve.retire.rejected_no_shard"),
        Some(1)
    );
    assert_eq!(
        registry.counter_value("serve.retire.rejected_queue"),
        Some(0)
    );
    assert!(
        summary.diagnostics.iter().any(|d| d.code == "NITRO111"),
        "retirement must be audited: {:?}",
        summary.diagnostics
    );
}

#[test]
fn wedged_shard_is_fenced_and_replaced() {
    struct Gate {
        state: Mutex<(bool, bool)>,
        cv: Condvar,
    }
    impl Gate {
        fn block(&self) {
            let mut g = self.state.lock().unwrap();
            g.0 = true;
            self.cv.notify_all();
            while !g.1 {
                g = self.cv.wait(g).unwrap();
            }
        }
        fn wait_entered(&self) {
            let mut g = self.state.lock().unwrap();
            while !g.0 {
                g = self.cv.wait(g).unwrap();
            }
        }
        fn release(&self) {
            let mut g = self.state.lock().unwrap();
            g.1 = true;
            self.cv.notify_all();
        }
    }
    let gate = Arc::new(Gate {
        state: Mutex::new((false, false)),
        cv: Condvar::new(),
    });

    let registry = MetricsRegistry::new();
    let (clock, hand) = ServeClock::manual();
    let sup = SupervisorConfig {
        heartbeat_stale_ns: 1_000,
        ..SupervisorConfig::default()
    };
    let front = ServeFront::start(
        supervised_config(1, sup),
        GuardPolicy::default(),
        clock.clone(),
        Some(&registry),
        {
            let gate = gate.clone();
            move |_| {
                let mut cv = CodeVariant::new("wedge", &Context::new());
                let gate = gate.clone();
                cv.add_variant(FnVariant::new("only", move |&x: &f64| {
                    if x < 0.0 {
                        gate.block();
                    }
                    x
                }));
                cv.set_default(0);
                cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));
                cv
            }
        },
    )
    .unwrap();

    // Wedge the worker inside a dispatch, then advance the serve clock
    // far past the staleness bound: the supervisor fences the zombie
    // and spawns a replacement on the same queue.
    let blocker = front.submit(-1.0, meta(&clock, 5)).unwrap();
    gate.wait_entered();
    hand.fetch_add(1_000_000, Ordering::SeqCst);
    wait_until("the wedged worker to be replaced", || {
        registry.counter_value("serve.wedge.shard_restarts") == Some(1)
    });
    assert_eq!(front.shard_states(), vec![ShardState::Up]);

    // The replacement serves fresh traffic while the zombie hangs.
    let fresh = front.submit(1.0, meta(&clock, 5)).unwrap();
    assert!(matches!(fresh.wait(), ServeOutcome::Served { .. }));

    // Unwedge the zombie: it finishes its one in-flight dispatch (the
    // blocker still resolves — exactly once), notices its generation is
    // stale, and exits without touching the queue again.
    gate.release();
    assert!(matches!(blocker.wait(), ServeOutcome::Served { .. }));

    let summary = front.shutdown();
    assert_eq!(summary.escaped_panics, 0);
    assert_eq!(summary.shard_deaths, 0);
    assert_eq!(summary.shard_restarts, 1);
    assert_eq!(summary.workers_failed, 0);
    assert!(
        summary.accounting.is_conserved(),
        "{:?}",
        summary.accounting.violations()
    );
    assert_eq!(summary.accounting.admitted, 2);
    assert_eq!(summary.accounting.served, 2);
    assert!(
        summary.diagnostics.iter().any(|d| d.code == "NITRO110"),
        "wedge replacement must be audited: {:?}",
        summary.diagnostics
    );
}
