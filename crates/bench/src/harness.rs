//! Shared experiment-harness machinery: the five-suite roster and the
//! profiling and evaluation plumbing used by every figure binary.

use std::path::PathBuf;

use nitro_core::{CodeVariant, Context, StoppingCriterion, TrainedModel};
use nitro_simt::DeviceConfig;
use nitro_tuner::{
    evaluate_fixed_variant, evaluate_model, Autotuner, EvalSummary, ProfileTable, TuneReport,
};

use crate::error::{BenchError, BenchResult};

/// Seed every collection in the harness derives from — change it and all
/// generated "UFL matrices", graphs and key sequences change together.
pub const COLLECTION_SEED: u64 = 0x0417_2014;

/// Harness configuration, read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct SuiteSpec {
    /// Use miniature collections (CI-sized) instead of paper-sized ones.
    pub small: bool,
}

impl SuiteSpec {
    /// Read `NITRO_SCALE` (see [`SuiteSpec::parse`]).
    pub fn from_env() -> BenchResult<Self> {
        let scale = std::env::var_os("NITRO_SCALE").map(|v| v.to_string_lossy().into_owned());
        Self::parse(scale.as_deref())
    }

    /// Build a spec from the `NITRO_SCALE` value: unset or `full`
    /// selects the paper-sized collections, `small` the miniature ones.
    /// Any other value is refused: full scale takes minutes, so a typo
    /// must not select it silently.
    pub fn parse(scale: Option<&str>) -> BenchResult<Self> {
        match scale {
            None | Some("full") => Ok(Self { small: false }),
            Some("small") => Ok(Self::small()),
            Some(other) => Err(BenchError::Invalid(format!(
                "NITRO_SCALE must be `small` or `full`, not {other:?}"
            ))),
        }
    }

    /// Miniature configuration for tests.
    pub fn small() -> Self {
        Self { small: true }
    }

    /// The scale's name in reports: `small` or `full`.
    pub fn scale(&self) -> &'static str {
        if self.small {
            "small"
        } else {
            "full"
        }
    }
}

/// Everything the figure binaries need from one tuned benchmark.
pub struct SuiteOutcome {
    /// Benchmark name ("spmv", "solvers", "bfs", "histogram", "sort").
    pub name: String,
    /// Variant names in label order.
    pub variant_names: Vec<String>,
    /// "Always run variant v" evaluation, per variant (Figure 5 bars).
    pub fixed: Vec<EvalSummary>,
    /// The Nitro-tuned selector's evaluation (Figures 5–6).
    pub nitro: EvalSummary,
    /// Tuning metadata.
    pub tune: TuneReport,
    /// The profiled test set (reused by follow-up analyses).
    pub test_table: ProfileTable,
    /// The trained model.
    pub model: TrainedModel,
    /// Default variant index (constraint fallback target).
    pub default_variant: Option<usize>,
    /// Training-set profile table (full feature set), for retraining
    /// studies.
    pub train_table: ProfileTable,
}

/// `target/<name>` at the workspace root, where the binaries write
/// their artifacts.
pub fn target_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join(name)
}

/// Generic suite driver: profile train + test, tune on the training
/// profile, evaluate the model and every fixed variant on the test set.
pub fn run_suite<I: Send + Sync>(
    name: &str,
    cv: &mut CodeVariant<I>,
    train: &[I],
    test: &[I],
) -> BenchResult<SuiteOutcome> {
    let train_table = ProfileTable::build(cv, train);
    let test_table = ProfileTable::build(cv, test);

    let tune = Autotuner::new().tune_from_table(cv, &train_table)?;
    let model = cv.export_artifact()?.model;
    let nitro = evaluate_model(&test_table, &model, cv.default_variant());
    let fixed = (0..cv.n_variants())
        .map(|v| evaluate_fixed_variant(&test_table, v))
        .collect();

    Ok(SuiteOutcome {
        name: name.to_string(),
        variant_names: cv.variant_names(),
        fixed,
        nitro,
        tune,
        test_table,
        model,
        default_variant: cv.default_variant(),
        train_table,
    })
}

/// The simulated device all harnesses use (the paper's Tesla C2050).
pub fn device() -> DeviceConfig {
    DeviceConfig::fermi_c2050()
}

// ---------------------------------------------------------------------
// The five-suite roster
// ---------------------------------------------------------------------

/// One suite's training and test inputs.
pub type Sets<I> = (Vec<I>, Vec<I>);

fn sets<I>(
    spec: SuiteSpec,
    small: fn(u64) -> Sets<I>,
    train: fn(u64) -> Vec<I>,
    test: fn(u64) -> Vec<I>,
) -> Sets<I> {
    if spec.small {
        small(COLLECTION_SEED)
    } else {
        (train(COLLECTION_SEED), test(COLLECTION_SEED))
    }
}

/// SpMV's train/test matrices at the spec's scale.
pub fn spmv_sets(spec: SuiteSpec) -> Sets<nitro_sparse::SpmvInput> {
    use nitro_sparse::collection::*;
    sets(spec, spmv_small_sets, spmv_training_set, spmv_test_set)
}

/// The Solvers suite's train/test systems at the spec's scale.
pub fn solver_sets(spec: SuiteSpec) -> Sets<nitro_solvers::SolverInput> {
    use nitro_solvers::collection::*;
    sets(
        spec,
        solver_small_sets,
        solver_training_set,
        solver_test_set,
    )
}

/// BFS's train/test graphs at the spec's scale.
pub fn bfs_sets(spec: SuiteSpec) -> Sets<nitro_graph::BfsInput> {
    use nitro_graph::collection::*;
    sets(spec, bfs_small_sets, bfs_training_set, bfs_test_set)
}

/// The Histogram suite's train/test inputs at the spec's scale.
pub fn hist_sets(spec: SuiteSpec) -> Sets<nitro_histogram::HistInput> {
    use nitro_histogram::data::*;
    sets(spec, hist_small_sets, hist_training_set, hist_test_set)
}

/// The Sort suite's train/test key sequences at the spec's scale.
pub fn sort_sets(spec: SuiteSpec) -> Sets<nitro_sort::SortInput> {
    use nitro_sort::keys::*;
    sets(spec, sort_small_sets, sort_training_set, sort_test_set)
}

/// One suite of the roster, as handed to a [`SuiteVisitor`].
pub struct Suite<'a, I> {
    /// The suite's name: its report key.
    pub name: &'static str,
    /// Builds the suite's code variant on [`device()`].
    pub build: &'a (dyn Fn(&Context) -> CodeVariant<I> + Sync),
    /// Training inputs at the spec's scale.
    pub train: &'a [I],
    /// Test inputs at the spec's scale.
    pub test: &'a [I],
}

/// Work done once per suite of the roster. The method is generic because
/// every suite has its own input type.
pub trait SuiteVisitor {
    /// What one visit yields.
    type Output;
    /// Called once per suite, in paper order.
    fn visit<I: Send + Sync + 'static>(&mut self, suite: Suite<'_, I>)
        -> BenchResult<Self::Output>;
}

/// Hand the paper's five benchmarks (Fig. 4) to `visitor` in paper order
/// — spmv, solvers, bfs, histogram, sort — and collect what it yields. A
/// suite's sets are generated just before its visit and dropped after
/// it, so one suite's inputs are live at a time.
pub fn for_each_suite<V: SuiteVisitor>(
    spec: SuiteSpec,
    visitor: &mut V,
) -> BenchResult<Vec<V::Output>> {
    fn visit<V: SuiteVisitor, I: Send + Sync + 'static>(
        visitor: &mut V,
        name: &'static str,
        build: &(dyn Fn(&Context) -> CodeVariant<I> + Sync),
        (train, test): Sets<I>,
    ) -> BenchResult<V::Output> {
        let (train, test) = (&train[..], &test[..]);
        visitor.visit(Suite {
            name,
            build,
            train,
            test,
        })
    }
    let cfg = &device();
    let spmv = |c: &Context| nitro_sparse::spmv::build_code_variant(c, cfg);
    let solvers = |c: &Context| nitro_solvers::variants::build_code_variant(c, cfg);
    let bfs = |c: &Context| nitro_graph::bfs::build_code_variant(c, cfg);
    let histogram = |c: &Context| nitro_histogram::variants::build_code_variant(c, cfg);
    let sort = |c: &Context| nitro_sort::variants::build_code_variant(c, cfg);
    Ok(vec![
        visit(visitor, "spmv", &spmv, spmv_sets(spec))?,
        visit(visitor, "solvers", &solvers, solver_sets(spec))?,
        visit(visitor, "bfs", &bfs, bfs_sets(spec))?,
        visit(visitor, "histogram", &histogram, hist_sets(spec))?,
        visit(visitor, "sort", &sort, sort_sets(spec))?,
    ])
}

/// Tune and evaluate all five suites ([`run_suite`]), in the paper's order.
pub fn run_all(spec: SuiteSpec) -> BenchResult<Vec<SuiteOutcome>> {
    struct RunAll;
    impl SuiteVisitor for RunAll {
        type Output = SuiteOutcome;
        fn visit<I: Send + Sync + 'static>(
            &mut self,
            suite: Suite<'_, I>,
        ) -> BenchResult<SuiteOutcome> {
            let mut cv = (suite.build)(&Context::new());
            run_suite(suite.name, &mut cv, suite.train, suite.test)
        }
    }
    for_each_suite(spec, &mut RunAll)
}

// ---------------------------------------------------------------------
// Incremental-tuning and feature-subset analyses
// ---------------------------------------------------------------------

/// Performance-vs-iterations curve (Figure 7): run incremental tuning for
/// `max_iterations` BvSB queries and evaluate every intermediate model on
/// the test table. Returns `(iteration, % of exhaustive best)` pairs,
/// where iteration 0 is the seed-only model.
pub fn incremental_curve<I: Send + Sync>(
    cv: &mut CodeVariant<I>,
    train: &[I],
    test_table: &ProfileTable,
    max_iterations: usize,
) -> BenchResult<Vec<(usize, f64)>> {
    Ok(incremental_curve_with_report(cv, train, test_table, max_iterations)?.0)
}

/// Like [`incremental_curve`], but also returns the tune report so
/// callers can inspect phase timings and accuracy history.
pub fn incremental_curve_with_report<I: Send + Sync>(
    cv: &mut CodeVariant<I>,
    train: &[I],
    test_table: &ProfileTable,
    max_iterations: usize,
) -> BenchResult<(Vec<(usize, f64)>, TuneReport)> {
    cv.policy_mut().incremental = Some(StoppingCriterion::Iterations(max_iterations));
    let report = Autotuner::new().tune_with_test(cv, train, test_table)?;
    let curve = report
        .model_history
        .iter()
        .enumerate()
        .map(|(i, model)| {
            let summary = evaluate_model(test_table, model, cv.default_variant());
            (i, summary.mean_relative_perf)
        })
        .collect();
    Ok((curve, report))
}

/// Render a [`TuneReport`]'s phase-timing breakdown as indented lines
/// (empty string when no timings were recorded).
pub fn phase_breakdown(report: &TuneReport, indent: &str) -> String {
    let total: f64 = report.phase_timings.iter().map(|p| p.wall_ns).sum();
    if total <= 0.0 {
        return String::new();
    }
    report
        .phase_timings
        .iter()
        .map(|p| {
            format!(
                "{indent}{:<12} {:>10.3} ms  {}",
                p.phase,
                p.wall_ns / 1e6,
                pct(p.wall_ns / total)
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// One row of the Figure-8 study: the features used, the achieved
/// performance and the feature-evaluation overhead relative to the mean
/// best-variant time.
#[derive(Debug, Clone)]
pub struct FeatureSubsetRow {
    /// How many (cheapest-first) features were used.
    pub k: usize,
    /// Names of the features in the subset.
    pub features: Vec<String>,
    /// Mean relative performance on the test set.
    pub perf: f64,
    /// Mean feature-evaluation cost as a fraction of the mean
    /// best-variant execution time.
    pub overhead_frac: f64,
}

/// The Figure-8 sweep: order features by measured evaluation cost, then
/// retrain on the cheapest `k` for every `k`, reusing the existing
/// profile tables (costs don't change, only feature columns do).
pub fn feature_subset_sweep<I: Send + Sync>(
    cv: &CodeVariant<I>,
    sample_inputs: &[I],
    train_table: &ProfileTable,
    test_table: &ProfileTable,
) -> Vec<FeatureSubsetRow> {
    let n_features = cv.n_features();
    // Average per-feature cost over a sample of inputs.
    let mut avg_cost = vec![0.0f64; n_features];
    let sample: Vec<&I> = sample_inputs.iter().take(40).collect();
    for input in &sample {
        for (j, c) in cv.feature_costs(input).into_iter().enumerate() {
            avg_cost[j] += c;
        }
    }
    for c in avg_cost.iter_mut() {
        *c /= sample.len().max(1) as f64;
    }
    let mut order: Vec<usize> = (0..n_features).collect();
    order.sort_by(|&a, &b| avg_cost[a].partial_cmp(&avg_cost[b]).unwrap());

    // Mean best-variant time on the test set, as the overhead denominator.
    let mean_best: f64 = {
        let bests: Vec<f64> = (0..test_table.len())
            .filter_map(|i| test_table.best_cost(i))
            .map(|c| c.abs())
            .collect();
        bests.iter().sum::<f64>() / bests.len().max(1) as f64
    };

    let classifier = cv.policy().classifier.clone();
    (1..=n_features)
        .map(|k| {
            let subset: Vec<usize> = order[..k].to_vec();
            let train_sub = train_table.with_feature_subset(&subset);
            let test_sub = test_table.with_feature_subset(&subset);
            let model = TrainedModel::train(&classifier, &train_sub.dataset());
            let summary = evaluate_model(&test_sub, &model, cv.default_variant());
            let cost: f64 = subset.iter().map(|&j| avg_cost[j]).sum();
            FeatureSubsetRow {
                k,
                features: subset
                    .iter()
                    .map(|&j| cv.feature_names()[j].clone())
                    .collect(),
                perf: summary.mean_relative_perf,
                overhead_frac: if mean_best > 0.0 {
                    cost / mean_best
                } else {
                    0.0
                },
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Solver convergence analysis (§V-A)
// ---------------------------------------------------------------------

/// Convergence statistics for the Solvers benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceStats {
    /// Test systems no variant solved (paper: 6).
    pub unsolvable: usize,
    /// Solvable systems where at least one variant failed (paper: 35).
    pub partially_failing: usize,
    /// Of those, how many times Nitro picked a converging variant
    /// (paper: 33 of 35).
    pub nitro_picked_converging: usize,
}

/// Compute the paper's convergence-selection statistics from a solver
/// test table and a trained model.
pub fn convergence_stats(
    table: &ProfileTable,
    model: &TrainedModel,
    default_variant: Option<usize>,
) -> ConvergenceStats {
    let mut unsolvable = 0;
    let mut partially_failing = 0;
    let mut picked_converging = 0;
    let worst = table.objective.worst();
    for i in 0..table.len() {
        let failing = table.costs[i].iter().filter(|&&c| c == worst).count();
        if failing == table.n_variants() {
            unsolvable += 1;
            continue;
        }
        if failing > 0 {
            partially_failing += 1;
            let mut chosen = model
                .predict(&table.features[i])
                .min(table.n_variants() - 1);
            if !table.allowed[i][chosen] {
                chosen = default_variant.unwrap_or(0);
            }
            if table.costs[i][chosen] != worst {
                picked_converging += 1;
            }
        }
    }
    ConvergenceStats {
        unsolvable,
        partially_failing,
        nitro_picked_converging: picked_converging,
    }
}

/// Pretty percent formatting used across binaries.
pub fn pct(x: f64) -> String {
    format!("{:6.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nitro_scale_is_small_or_full_and_anything_else_is_named() {
        assert!(!SuiteSpec::parse(None).unwrap().small);
        assert!(!SuiteSpec::parse(Some("full")).unwrap().small);
        assert!(SuiteSpec::parse(Some("small")).unwrap().small);
        let err = SuiteSpec::parse(Some("smal")).unwrap_err();
        assert!(err.to_string().contains("\"smal\""), "{err}");
    }

    #[test]
    fn small_spmv_suite_runs_end_to_end() {
        let spec = SuiteSpec::small();
        let mut cv = nitro_sparse::spmv::build_code_variant(&Context::new(), &device());
        let (train, test) = spmv_sets(spec);
        let out = run_suite("spmv", &mut cv, &train, &test).unwrap();
        assert_eq!(out.variant_names.len(), 6);
        assert!(out.nitro.mean_relative_perf > 0.7, "nitro {:?}", out.nitro);
        assert_eq!(out.fixed.len(), 6);
    }

    #[test]
    fn incremental_curve_is_reasonable() {
        let mut cv = nitro_sort::variants::build_code_variant(&Context::new(), &device());
        let (train, test) = sort_sets(SuiteSpec::small());
        let test_table = ProfileTable::build(&cv, &test);
        let curve = incremental_curve(&mut cv, &train, &test_table, 8).unwrap();
        assert!(curve.len() >= 2);
        assert!(curve.last().unwrap().1 > 0.6, "{curve:?}");
    }

    #[test]
    fn feature_subset_sweep_covers_all_ks() {
        let cv = nitro_sort::variants::build_code_variant(&Context::new(), &device());
        let (train, test) = sort_sets(SuiteSpec::small());
        let train_table = ProfileTable::build(&cv, &train);
        let test_table = ProfileTable::build(&cv, &test);
        let rows = feature_subset_sweep(&cv, &test, &train_table, &test_table);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].overhead_frac <= rows[2].overhead_frac);
        assert!(rows.iter().all(|r| (0.0..=1.0).contains(&r.perf)));
    }

    #[test]
    fn convergence_stats_count_failures() {
        let spec = SuiteSpec::small();
        let mut cv = nitro_solvers::variants::build_code_variant(&Context::new(), &device());
        let (train, test) = solver_sets(spec);
        let out = run_suite("solvers", &mut cv, &train, &test).unwrap();
        let stats = convergence_stats(&out.test_table, &out.model, out.default_variant);
        // The small solver sets include weak-diagonal systems where some
        // variants fail.
        assert!(stats.partially_failing > 0);
        assert!(stats.nitro_picked_converging <= stats.partially_failing);
    }
}
