//! The serving front door's `Full` tier against a direct guarded call,
//! on the histogram and sort suites at small scale.
//!
//! A one-shard `ServeFront` with no faults and generous deadlines
//! serves every test input, one request at a time so its queue never
//! reaches the degradation watermark. Each request must be served at
//! `DegradeTier::Full`, running the variant a direct
//! `GuardedVariant::call` runs and returning a bit-identical objective.
//! Both guards wrap a registration built by the same factory.

use std::sync::Arc;

use nitro::core::{
    ClassifierConfig, CodeVariant, Context, Priority, RequestMeta, TenantId, TrainedModel,
};
use nitro::guard::{GuardPolicy, GuardedVariant};
use nitro::serve::{DegradeTier, ServeClock, ServeConfig, ServeFront, ServeOutcome};
use nitro::simt::DeviceConfig;
use nitro::tuner::Autotuner;

/// Ten seconds: far beyond any small-scale dispatch.
const BUDGET_NS: u64 = 10_000_000_000;

fn check_suite<I: Clone + Send + Sync + 'static>(
    build: fn(&Context, &DeviceConfig) -> CodeVariant<I>,
    train: &[I],
    test: &[I],
) {
    let device = DeviceConfig::fermi_c2050();
    let mut tuned = build(&Context::new(), &device);
    tuned.policy_mut().classifier = ClassifierConfig::Knn { k: 3 };
    Autotuner::new().tune(&mut tuned, train).unwrap();
    let name = tuned.name().to_string();
    let model: Arc<TrainedModel> = Arc::new(tuned.model().expect("tuned").clone());
    let make_cv = move |_shard: usize| {
        let mut cv = build(&Context::new(), &device);
        cv.install_model((*model).clone());
        cv
    };

    let direct = GuardedVariant::new(make_cv(0), GuardPolicy::default()).unwrap();
    let config = ServeConfig {
        shards: 1,
        queue_capacity: Some(8),
        tenant_rate_per_s: 1e9,
        tenant_burst: 1_000_000,
        ..ServeConfig::default()
    };
    let clock = ServeClock::wall();
    let front =
        ServeFront::start(config, GuardPolicy::default(), clock.clone(), None, make_cv).unwrap();

    for (i, input) in test.iter().enumerate() {
        let want = direct.call(input).unwrap();
        let meta = RequestMeta::new(TenantId(0), Priority::Standard, clock.now_ns(), BUDGET_NS);
        let ticket = front.submit(input.clone(), meta).expect("admitted");
        match ticket.wait() {
            ServeOutcome::Served {
                variant,
                objective,
                tier,
                ..
            } => {
                assert_eq!(tier, DegradeTier::Full, "{name}: test input {i}");
                assert_eq!(variant, want.variant, "{name}: variant of test input {i}");
                assert_eq!(
                    objective.to_bits(),
                    want.objective.to_bits(),
                    "{name}: objective of test input {i}"
                );
            }
            other => panic!("{name}: test input {i} was not served: {other:?}"),
        }
    }
    let summary = front.shutdown();
    assert_eq!(summary.escaped_panics, 0, "{name}");
}

#[test]
fn histogram() {
    let (train, test) = nitro::histogram::data::hist_small_sets(0x5E7E);
    check_suite(
        nitro::histogram::variants::build_code_variant,
        &train,
        &test,
    );
}

#[test]
fn sort() {
    let (train, test) = nitro::sort::keys::sort_small_sets(0x5E7E);
    check_suite(nitro::sort::variants::build_code_variant, &train, &test);
}
