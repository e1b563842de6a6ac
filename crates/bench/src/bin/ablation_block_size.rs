//! Extension (paper §VII): folding optimization-parameter tuning into
//! variant selection.
//!
//! The Block Jacobi preconditioner has a tunable block size. Instead of
//! fixing it (the main benchmark uses 8), this harness registers a
//! *variant family* — `CG-BJacobi@{2,4,8,16,32}` — via
//! `CodeVariant::add_variant_family` and lets the learned model pick the
//! block size per input, exactly the "parameterized templates generate
//! variants" integration the paper describes (§VI).

use nitro_bench::error::{exit_on_error, BenchResult};
use nitro_bench::{pct, SuiteSpec, COLLECTION_SEED};
use nitro_core::{ClassifierConfig, CodeVariant, Context, FnFeature};
use nitro_solvers::{run_with_preconditioner, BlockJacobi, Method, SolverInput};
use nitro_sparse::features;
use nitro_tuner::{evaluate_fixed_variant, evaluate_model, Autotuner, ProfileTable};

fn build(ctx: &Context, cfg: &nitro_simt::DeviceConfig) -> CodeVariant<SolverInput> {
    let mut cv = CodeVariant::new("solvers-blocksize", ctx);
    let cfg = cfg.clone();
    cv.add_variant_family(
        "CG-BJacobi",
        vec![2usize, 4, 8, 16, 32],
        move |&block, inp: &SolverInput| {
            let p = BlockJacobi::new(&inp.a, block);
            run_with_preconditioner(Method::Cg, &p, inp, &cfg, 0x5100 + block as u64).1
        },
    );
    cv.set_default(2); // block size 8, the main benchmark's fixed choice

    cv.add_input_feature(FnFeature::new("Nrows", |i: &SolverInput| i.a.n_rows as f64));
    cv.add_input_feature(FnFeature::new("AvgNZ", |i: &SolverInput| {
        features::avg_nz_per_row(&i.a)
    }));
    cv.add_input_feature(FnFeature::new("DiagDominance", |i: &SolverInput| {
        features::diag_dominance(&i.a)
    }));
    // Block-structure signal: how much mass sits near the diagonal.
    cv.add_input_feature(FnFeature::new("LBw", |i: &SolverInput| {
        features::left_bandwidth(&i.a)
    }));
    cv
}

/// SPD systems with varying block structure, so different block sizes win.
fn systems(tag: &str, base: usize, count_per: usize, seed: u64) -> Vec<SolverInput> {
    let mut out = Vec::new();
    for (g, block) in [(0usize, 4usize), (1, 8), (2, 16), (3, 32)] {
        for i in 0..count_per {
            let idx = base + g * 100 + i;
            let inner =
                nitro_sparse::gen::block_diag(600 + (idx % 5) * 150, block, 0.7, seed ^ idx as u64);
            let a = nitro_sparse::gen::make_spd(&inner, 1.05);
            out.push(SolverInput::new(
                format!("{tag}/b{block}/{i}"),
                format!("b{block}"),
                a,
            ));
        }
    }
    out
}

fn main() {
    exit_on_error(run());
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    let cfg = nitro_bench::device();
    println!("== Extension: block-size tuning as a variant family ==");

    let ctx = Context::new();
    let mut cv = build(&ctx, &cfg);
    cv.policy_mut().classifier = ClassifierConfig::Svm {
        c: None,
        gamma: None,
        grid_search: true,
        cache_bytes: None,
    };

    let per = if spec.small { 3 } else { 8 };
    let train = systems("train", 0, per, COLLECTION_SEED);
    let test = systems("test", 1000, per + 4, COLLECTION_SEED);

    let test_table = ProfileTable::build(&cv, &test);
    Autotuner::new().tune(&mut cv, &train)?;
    let model = cv.export_artifact()?.model;
    let nitro = evaluate_model(&test_table, &model, cv.default_variant());

    println!("\nvariant family: {}", cv.variant_names().join(", "));
    println!("\n{:<16} {:>10}", "strategy", "% of best");
    for v in 0..cv.n_variants() {
        let s = evaluate_fixed_variant(&test_table, v);
        println!(
            "{:<16} {:>10}",
            cv.variant_names()[v],
            pct(s.mean_relative_perf)
        );
    }
    println!(
        "{:<16} {:>10}   <- learned block size",
        "Nitro",
        pct(nitro.mean_relative_perf)
    );

    // Which block size the model picks per structural group.
    println!("\nper-group selections:");
    for group in ["b4", "b8", "b16", "b32"] {
        let mut counts = vec![0usize; cv.n_variants()];
        for (i, inp) in test.iter().enumerate() {
            if inp.group == group {
                counts[model
                    .predict(&test_table.features[i])
                    .min(cv.n_variants() - 1)] += 1;
            }
        }
        let best = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(v, _)| v)
            .unwrap();
        println!(
            "  matrices with {}-blocks -> mostly {} ({:?})",
            &group[1..],
            cv.variant_names()[best],
            counts
        );
    }
    Ok(())
}
