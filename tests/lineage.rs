//! Request-lineage conservation under a seeded chaos campaign.
//!
//! A supervised three-shard `ServeFront` on a manual clock serves one
//! `ChaosPlan::from_seed` campaign of 120 requests one at a time, in the
//! shape of `chaos_serve_report`'s phase A: shard-killing requests, a
//! poison pill, a clock-skew jump and an alert storm, with every shard
//! death waited out (restart or retirement) before the next submission.
//! Launch and filesystem fault probabilities are zeroed; the variants
//! are pure math.
//!
//! Every admitted request must end in exactly one accounted outcome with
//! none lost, and a second run of the same plan must give the same
//! outcome classes, accounting, supervision counts, panic attribution
//! and final shard states.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nitro::core::{
    mix64, ClassifierConfig, CodeVariant, Context, FnFeature, FnVariant, Priority, RequestMeta,
    TenantId,
};
use nitro::guard::{ChaosPlan, GuardPolicy};
use nitro::ml::{Dataset, TrainedModel};
use nitro::pulse::{AlertKind, AlertSeverity, PulseAlert};
use nitro::serve::{
    LineageAccounting, Rejection, ServeClock, ServeConfig, ServeFront, ServeOutcome, ShardState,
    SupervisorConfig,
};
use nitro::simt::{silence_injected_panics, INJECTED_PANIC_PREFIX};
use nitro_bench::{ZipfSampler, COLLECTION_SEED};

const REQUESTS: u64 = 120;
const BUDGET_NS: u64 = 500_000_000;
/// Covers any restart backoff the campaign can arm.
const HEAL_ADVANCE_NS: u64 = 100_000_000;

#[derive(Clone)]
enum Payload {
    Healthy,
    /// Kills the first shard that dispatches it; the re-placed request
    /// then succeeds.
    Kill(Arc<AtomicBool>),
    /// Kills every shard that dispatches it, until quarantined.
    Poison,
}

/// The feature detonates the payload: a feature panic escapes the guard
/// and kills the shard.
fn chaos_cv() -> CodeVariant<(f64, Payload)> {
    let mut cv = CodeVariant::new("chaos", &Context::new());
    cv.add_variant(FnVariant::new("lean", |inp: &(f64, Payload)| 1.0 + inp.0));
    cv.add_variant(FnVariant::new("thorough", |inp: &(f64, Payload)| {
        10.0 - inp.0 * 0.5
    }));
    cv.set_default(0);
    cv.add_input_feature(FnFeature::new("x", |inp: &(f64, Payload)| {
        match &inp.1 {
            Payload::Healthy => {}
            Payload::Kill(fuse) => {
                if fuse.swap(false, Ordering::SeqCst) {
                    panic!("{INJECTED_PANIC_PREFIX}shard-kill request detonated");
                }
            }
            Payload::Poison => panic!("{INJECTED_PANIC_PREFIX}poison-pill request detonated"),
        }
        inp.0
    }));
    cv
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

/// What a run must reproduce.
#[derive(Debug, PartialEq)]
struct Run {
    classes: Vec<&'static str>,
    accounting: LineageAccounting,
    shard_deaths: u64,
    shard_restarts: u64,
    shards_retired: u64,
    escaped_panics: u64,
    /// `(shard, lineage)` of every escaped panic, in order.
    panic_attribution: Vec<(usize, u64)>,
    final_states: Vec<ShardState>,
}

fn lockstep_run(plan: &ChaosPlan) -> Run {
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
        chaos_cv()
    })
    .unwrap();
    let mut cv = chaos_cv();
    let data = Dataset::from_parts(
        (0..10).map(|i| vec![f64::from(i)]).collect(),
        (0..10).map(|i| usize::from(i >= 5)).collect(),
    );
    cv.install_model(TrainedModel::train(&ClassifierConfig::Knn { k: 1 }, &data));
    front.publish_artifact(cv.export_artifact().unwrap());

    let mut tenants = ZipfSampler::new(12, 1.2, plan.seed);
    let mut classes = Vec::new();
    for i in 0..plan.requests {
        if let Some(ns) = plan.skew_at(i) {
            hand.fetch_add(ns, Ordering::SeqCst);
        }
        for _ in 0..plan.storm_at(i).unwrap_or(0) {
            front.ingest_alert(&page_alert());
        }
        let payload = if plan.kills_at(i) {
            Payload::Kill(Arc::new(AtomicBool::new(true)))
        } else if plan.poison_at(i) {
            Payload::Poison
        } else {
            Payload::Healthy
        };
        let x = (mix64(plan.seed ^ i) % 1_000) as f64 / 100.0;
        let priority = [Priority::Interactive, Priority::Standard, Priority::Batch][i as usize % 3];
        let tenant = TenantId(tenants.next_rank() as u32);
        let meta = RequestMeta::new(tenant, priority, clock.now_ns(), BUDGET_NS);
        classes.push(match front.submit((x, payload), meta) {
            Ok(ticket) => match ticket.wait() {
                ServeOutcome::Served { .. } => "served",
                ServeOutcome::ShedExpired { .. } => "shed_expired",
                ServeOutcome::ShedHopeless { .. } => "shed_hopeless",
                ServeOutcome::ShedFailover { .. } => "shed_failover",
                ServeOutcome::Quarantined { .. } => "quarantined",
                ServeOutcome::Failed { .. } => "failed",
            },
            Err(Rejection::DeadlineExpired) => "rejected_expired",
            Err(Rejection::TenantThrottled) => "rejected_tenant",
            Err(Rejection::QueueFull { .. }) => "rejected_queue",
            Err(Rejection::NoLiveShards) => "rejected_no_live_shards",
        });
        hand.fetch_add(10_000, Ordering::SeqCst);
        if front.shard_states().contains(&ShardState::Dead) {
            hand.fetch_add(HEAL_ADVANCE_NS, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(5);
            while front.shard_states().contains(&ShardState::Dead) {
                assert!(
                    Instant::now() < deadline,
                    "shard stuck Dead after request {i} despite healed clock"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    let final_states = front.shard_states();
    let summary = front.shutdown();
    assert_eq!(summary.workers_failed, 0);
    assert!(
        !summary.diagnostics.iter().any(|d| d.code == "NITRO114"),
        "{:?}",
        summary.diagnostics
    );
    Run {
        classes,
        accounting: summary.accounting,
        shard_deaths: summary.shard_deaths,
        shard_restarts: summary.shard_restarts,
        shards_retired: summary.shards_retired,
        escaped_panics: summary.escaped_panics,
        panic_attribution: summary
            .panic_records
            .iter()
            .map(|r| (r.shard, r.lineage))
            .collect(),
        final_states,
    }
}

#[test]
fn seeded_campaign_conserves_every_request_and_replays_identically() {
    silence_injected_panics();
    let mut plan = ChaosPlan::from_seed(COLLECTION_SEED, REQUESTS);
    plan.launch_failure_prob = 0.0;
    plan.slowdown_prob = 0.0;
    plan.fs_torn_write = 0.0;
    plan.fs_no_space = 0.0;
    plan.fs_read_error = 0.0;
    plan.fs_rename_failed = 0.0;

    let first = lockstep_run(&plan);
    let accounting = first.accounting;
    assert!(accounting.is_conserved(), "{:?}", accounting.violations());
    assert_eq!(accounting.lost, 0);
    let admitted = first
        .classes
        .iter()
        .filter(|c| !c.starts_with("rejected"))
        .count() as u64;
    assert_eq!(accounting.admitted, admitted);
    // The campaign exercised supervision: shards died and came back,
    // and the poison pill was quarantined.
    assert!(
        first.shard_deaths > 0 && first.shard_restarts > 0,
        "{first:?}"
    );
    assert_eq!(accounting.quarantined, 1, "{first:?}");
    assert!(!first.final_states.contains(&ShardState::Dead));

    let second = lockstep_run(&plan);
    assert_eq!(first, second, "the seeded campaign must replay identically");
}
