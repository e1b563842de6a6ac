use nitro_bench::SuiteSpec;
use nitro_core::Context;
use nitro_pulse::FunctionPulse;
use nitro_simt::{install_fault_plan, uninstall_fault_plan, FaultPlan};
use nitro_trace::MetricsRegistry;
use nitro_tuner::Autotuner;

#[test]
#[ignore]
fn fault_inflation_probe() {
    let spec = SuiteSpec::small();
    let cfg = nitro_bench::device();

    // Per suite, dispatch the test set healthy vs faulted, report the
    // p99/p50 inflation ratios.
    macro_rules! suite {
        ($name:expr, $build:expr, $sets:expr) => {{
            let (train, test) = $sets;
            let ctx = Context::new();
            let mut cv = $build(&ctx);
            Autotuner::new().tune(&mut cv, &train).unwrap();
            for factor in [8.0f64, 64.0] {
                let registry = MetricsRegistry::new();
                FunctionPulse::install(&mut cv, &registry, None);
                let metric = format!("dispatch.{}.latency_ns", cv.name());
                for input in &test {
                    cv.call(input).unwrap();
                }
                let healthy = registry.quantile(&metric, 0.99).unwrap();
                let healthy_p50 = registry.quantile(&metric, 0.5).unwrap();
                let registry = MetricsRegistry::new();
                FunctionPulse::install(&mut cv, &registry, None);
                install_fault_plan(FaultPlan {
                    seed: 11,
                    slowdown_prob: 1.0,
                    slowdown_factor: factor,
                    ..FaultPlan::default()
                });
                for input in &test {
                    cv.call(input).unwrap();
                }
                uninstall_fault_plan();
                let faulty = registry.quantile(&metric, 0.99).unwrap();
                let faulty_p50 = registry.quantile(&metric, 0.5).unwrap();
                println!(
                    "{}: x{factor} -> p99 {healthy:.0} => {faulty:.0} ({:.2}x) p50 {:.2}x",
                    $name,
                    faulty / healthy,
                    faulty_p50 / healthy_p50
                );
            }
        }};
    }

    suite!(
        "spmv",
        |ctx: &Context| nitro_sparse::spmv::build_code_variant(ctx, &cfg),
        nitro_sparse::collection::spmv_small_sets(spec.seed)
    );
    suite!(
        "solvers",
        |ctx: &Context| nitro_solvers::variants::build_code_variant(ctx, &cfg),
        nitro_solvers::collection::solver_small_sets(spec.seed)
    );
    suite!(
        "bfs",
        |ctx: &Context| nitro_graph::bfs::build_code_variant(ctx, &cfg),
        nitro_graph::collection::bfs_small_sets(spec.seed)
    );
}
