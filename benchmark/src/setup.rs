//! Set-up: the paper's tuning pipeline for each suite, timed by layer.
//!
//! Every suite's collections come from [`COLLECTION_SEED`] (the
//! workload seed never changes an input), are profiled exhaustively and
//! train the suite's model. Nothing is read from the harness's profile
//! cache, so each run pays the whole pipeline.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nitro_bench::{device, COLLECTION_SEED};
use nitro_core::{CodeVariant, Context, Invocation, TrainedModel};
use nitro_guard::GuardedVariant;
use nitro_tuner::{Autotuner, ProfileTable};

use crate::replay::{permitted, Replay};

/// The paper's five benchmark suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteId {
    Spmv,
    Solvers,
    Bfs,
    Histogram,
    Sort,
}

/// All five suites, in the paper's order.
pub const SUITES: &[SuiteId] = &[
    SuiteId::Spmv,
    SuiteId::Solvers,
    SuiteId::Bfs,
    SuiteId::Histogram,
    SuiteId::Sort,
];

impl SuiteId {
    /// The suite's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            SuiteId::Spmv => "spmv",
            SuiteId::Solvers => "solvers",
            SuiteId::Bfs => "bfs",
            SuiteId::Histogram => "histogram",
            SuiteId::Sort => "sort",
        }
    }
}

/// What set-up cost, by layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupCost {
    /// Collection generation (`gen`), s.
    pub gen_s: f64,
    /// Exhaustive profiling of the training and test sets (`tuner`), s.
    pub profile_s: f64,
    /// Labeling, training and post-flight audit (`tuner`), s.
    pub train_s: f64,
    /// SVM kernel evaluations in the final fits (`ml`).
    pub kernel_evals: u64,
    /// SVM kernel-column cache hits in the final fits (`ml`).
    pub cache_hits: u64,
    /// SVM kernel-column cache misses in the final fits (`ml`).
    pub cache_misses: u64,
}

impl SetupCost {
    /// Accumulate another suite's costs.
    pub fn add(&mut self, other: &SetupCost) {
        self.gen_s += other.gen_s;
        self.profile_s += other.profile_s;
        self.train_s += other.train_s;
        self.kernel_evals += other.kernel_evals;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// Kernel-column cache hit rate of the final fits.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            1.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

/// A registration plus the inputs its calls index into. The benchmark
/// drives every suite through this one interface, whatever its input
/// type.
pub trait Dispatch: Send {
    /// `CodeVariant::call` on input `i`: the executed variant and its
    /// objective.
    fn call(&mut self, i: usize) -> nitro_core::Result<Invocation>;
    /// `CodeVariant::evaluate_features` on input `i`.
    fn features(&self, i: usize) -> Vec<f64>;
    /// `CodeVariant::constraints_satisfied` for variant `v` on input `i`.
    fn constraints_ok(&self, v: usize, i: usize) -> bool;
    /// `CodeVariant::try_run_variant` for variant `v` on input `i`.
    fn invoke(&self, v: usize, i: usize) -> nitro_core::Result<f64>;
    /// Record a replay of this registration over its profiled inputs.
    fn replay(&self, table: &ProfileTable) -> Replay;
}

/// A registration and its inputs.
pub struct Registration<I> {
    /// The tuned registration.
    pub cv: CodeVariant<I>,
    /// The inputs, indexed by the benchmark's request order.
    pub inputs: Vec<I>,
}

impl<I: Send + Sync> Dispatch for Registration<I> {
    fn call(&mut self, i: usize) -> nitro_core::Result<Invocation> {
        self.cv.call(&self.inputs[i])
    }

    fn features(&self, i: usize) -> Vec<f64> {
        self.cv.evaluate_features(&self.inputs[i]).0
    }

    fn constraints_ok(&self, v: usize, i: usize) -> bool {
        self.cv.constraints_satisfied(v, &self.inputs[i])
    }

    fn invoke(&self, v: usize, i: usize) -> nitro_core::Result<f64> {
        self.cv.try_run_variant(v, &self.inputs[i])
    }

    fn replay(&self, table: &ProfileTable) -> Replay {
        Replay::new(&self.cv, &self.inputs, table)
    }
}

/// One tuned suite and what the output checks compare against.
pub struct Tuned {
    /// Which suite.
    pub id: SuiteId,
    /// The profiled test set: per-input features, costs and verdicts.
    pub table: ProfileTable,
    /// A copy of the trained model, held by the benchmark for timing
    /// `predict_into` outside the registration.
    pub model: TrainedModel,
    /// The registration's default variant.
    pub default_variant: Option<usize>,
    /// The offline selection per test input: the model's pick, or the
    /// default where a constraint vetoes it.
    pub offline: Vec<usize>,
    /// What set-up cost.
    pub cost: SetupCost,
    /// The registration the workload calls.
    pub dispatch: Box<dyn Dispatch>,
    /// The guard around the registration, on the guarded workload.
    pub guard: Option<Arc<GuardedVariant<usize>>>,
}

impl Tuned {
    /// Number of test inputs.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Record a replay of the live registration.
    pub fn replay(&self) -> Replay {
        self.dispatch.replay(&self.table)
    }

    /// Swap the live registration for its replay, dropping the live
    /// inputs.
    pub fn into_replay(mut self) -> Self {
        let replay = self.replay();
        self.dispatch = Box::new(Registration {
            cv: replay.registration(),
            inputs: (0..replay.len()).collect(),
        });
        self
    }
}

/// Generate, profile and tune one suite at full scale (or the miniature
/// collections when `small`).
pub fn tune_suite(id: SuiteId, small: bool) -> Result<Tuned, String> {
    let seed = COLLECTION_SEED;
    let ctx = Context::new();
    let dev = device();
    match id {
        SuiteId::Spmv => {
            use nitro_sparse::collection::*;
            tune(id, nitro_sparse::build_code_variant(&ctx, &dev), || {
                if small {
                    spmv_small_sets(seed)
                } else {
                    (spmv_training_set(seed), spmv_test_set(seed))
                }
            })
        }
        SuiteId::Solvers => {
            use nitro_solvers::collection::*;
            tune(
                id,
                nitro_solvers::variants::build_code_variant(&ctx, &dev),
                || {
                    if small {
                        solver_small_sets(seed)
                    } else {
                        (solver_training_set(seed), solver_test_set(seed))
                    }
                },
            )
        }
        SuiteId::Bfs => {
            use nitro_graph::collection::*;
            tune(id, nitro_graph::bfs::build_code_variant(&ctx, &dev), || {
                if small {
                    bfs_small_sets(seed)
                } else {
                    (bfs_training_set(seed), bfs_test_set(seed))
                }
            })
        }
        SuiteId::Histogram => {
            use nitro_histogram::data::*;
            tune(
                id,
                nitro_histogram::variants::build_code_variant(&ctx, &dev),
                || {
                    if small {
                        hist_small_sets(seed)
                    } else {
                        (hist_training_set(seed), hist_test_set(seed))
                    }
                },
            )
        }
        SuiteId::Sort => {
            use nitro_sort::keys::*;
            tune(
                id,
                nitro_sort::variants::build_code_variant(&ctx, &dev),
                || {
                    if small {
                        sort_small_sets(seed)
                    } else {
                        (sort_training_set(seed), sort_test_set(seed))
                    }
                },
            )
        }
    }
}

fn tune<I: Send + Sync + 'static>(
    id: SuiteId,
    mut cv: CodeVariant<I>,
    sets: impl FnOnce() -> (Vec<I>, Vec<I>),
) -> Result<Tuned, String> {
    let mut cost = SetupCost::default();

    let t = Instant::now();
    let (train, test) = sets();
    cost.gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let train_table = ProfileTable::build(&cv, &train);
    let table = ProfileTable::build(&cv, &test);
    cost.profile_s = t.elapsed().as_secs_f64();
    drop(train);

    let t = Instant::now();
    let report = Autotuner::new()
        .tune_from_table(&mut cv, &train_table)
        .map_err(|e| format!("{}: tuning failed: {e}", id.name()))?;
    cost.train_s = t.elapsed().as_secs_f64();
    if let Some(stats) = report.svm_train_stats {
        cost.kernel_evals = stats.kernel_evals;
        cost.cache_hits = stats.cache_hits;
        cost.cache_misses = stats.cache_misses;
    }

    let model = cv
        .model()
        .ok_or_else(|| format!("{}: no model after tuning", id.name()))?
        .clone();
    let default_variant = cv.default_variant();
    let permitted = permitted(&cv, &test);
    let last = cv.n_variants() - 1;
    let offline = (0..table.len())
        .map(|i| {
            let predicted = model.predict(&table.features[i]).min(last);
            if permitted[i][predicted] {
                predicted
            } else {
                default_variant.unwrap_or(0)
            }
        })
        .collect();
    Ok(Tuned {
        id,
        table,
        model,
        default_variant,
        offline,
        cost,
        dispatch: Box::new(Registration { cv, inputs: test }),
        guard: None,
    })
}

/// The suites from the longest to tune to the shortest (at full scale,
/// two at a time, sort took about 8.7 s, histogram 4.9, bfs 3.4, spmv
/// 3.0 and solvers 2.8 s on the two-vCPU machine the benchmark was built
/// on). Handed out in this order, so no worker starts sort last, a
/// set-up took a median 14.0 s wall against 15.2 s in the paper's order
/// (four alternating runs of three set-ups each).
const LONGEST_FIRST: &[SuiteId] = &[
    SuiteId::Sort,
    SuiteId::Histogram,
    SuiteId::Bfs,
    SuiteId::Spmv,
    SuiteId::Solvers,
];

/// Tune all five suites and return them in the paper's order. The
/// suites are independent, so they tune on as many threads as the
/// machine has cores, longest first; each stage is still timed on the
/// thread that runs it, so a [`SetupCost`] sums busy time across suites.
pub fn tune_all(small: bool) -> Result<Vec<Tuned>, String> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(SUITES.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<Tuned, String>>>> =
        SUITES.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&id) = LONGEST_FIRST.get(k) else {
                    break;
                };
                let tuned = tune_suite(id, small);
                let slot = SUITES
                    .iter()
                    .position(|&s| s == id)
                    .expect("every suite is in SUITES");
                *slots[slot]
                    .lock()
                    .expect("no tuning thread panics holding a slot") = Some(tuned);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no tuning thread panics holding a slot")
                .expect("every suite was tuned")
        })
        .collect()
}
