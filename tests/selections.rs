//! Pins the paper's decisions: tunes each of the five suites on its
//! small training set under the default `TuningPolicy`, then digests
//!
//! - the tuned `ModelArtifact`'s JSON bytes,
//! - the variant `CodeVariant::call` selects for every test input,
//! - the variant `GuardedVariant::call` serves for every test input,
//! - the SVM's prediction (argmax and posterior bits) for every train
//!   and test input, once from the reference one-vs-one path and once
//!   from the compiled engine dispatch uses,
//! - the artifact of an incremental (BvSB) tune of
//!   `INCREMENTAL_ITERATIONS` queries (paper Fig. 7),
//!
//! and checks each digest against a recorded constant. It also pins,
//! bit for bit, each suite's perf-vs-oracle ratio (`evaluate_selection`
//! of the plain selections against every variant profiled on the test
//! set, paper Fig. 6) and the five suites' ratio pooled by input count. The plain
//! selections are digested a second time from two threads that share
//! one `&CodeVariant`.
//!
//! Each suite is also tuned with `Autotuner::tune_durable`, killed once
//! partway through the second profiled input (a torn journal tail) and
//! resumed: the resumed artifact must digest to the same constant as the
//! plain tune's.
//!
//! The suites' small sets reach neither the constraint veto nor an SVM
//! vote tie, so two hand-built registrations pin those paths: a veto
//! runs the default in plain dispatch and the next-ranked allowed
//! variant in guarded dispatch, and a tie takes the posterior's winner.
//!
//! A refactor that deletes or moves code must leave every selection
//! as it was. A digest mismatch means a change moved a trained model or
//! a per-input decision; if that is intended (a new feature, a training
//! change), record the new constants and say why in the change
//! description.

use nitro::core::context::temp_model_dir;
use nitro::core::{
    ClassifierConfig, CodeVariant, Context, FnConstraint, FnFeature, FnVariant, StoppingCriterion,
};
use nitro::guard::{GuardPolicy, GuardedVariant};
use nitro::ml::{Dataset, TrainedModel};
use nitro::store::TuningJournal;
use nitro::tuner::{evaluate_selection, Autotuner, EvalSummary, ProfileTable};
use nitro_bench::{for_each_suite, BenchResult, Suite, SuiteSpec, SuiteVisitor};

/// BvSB queries of the incremental tune: few enough that the query
/// order, not only the pool, decides which inputs get labeled.
const INCREMENTAL_ITERATIONS: usize = 4;

/// FNV-1a over bytes.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// A selected variant, or `u64::MAX` for a call that failed.
    fn selection(&mut self, variant: Option<usize>) {
        self.bytes(&variant.map_or(u64::MAX, |v| v as u64).to_le_bytes());
    }

    /// A prediction: the argmax, then each posterior's bit pattern.
    fn prediction(&mut self, class: usize, posterior: &[f64]) {
        self.selection(Some(class));
        for p in posterior {
            self.bytes(&p.to_bits().to_le_bytes());
        }
    }
}

/// One suite's digests: artifact, plain selections, the plain
/// selections from two threads, guarded selections, the artifact of the
/// killed and resumed durable tune, the incremental tune's artifact, and
/// the reference and the compiled SVM predictions.
struct Selections;

/// Digests of the reference and the compiled SVM prediction for every
/// train and test input, in that order.
fn svm_predictions<I: Send + Sync + 'static>(
    cv: &CodeVariant<I>,
    train: &[I],
    test: &[I],
) -> [u64; 2] {
    let Some(TrainedModel::Svm {
        scaler, model: svm, ..
    }) = cv.model()
    else {
        panic!("{}: the default policy trains an SVM", cv.name());
    };
    let compiled = svm.compiled();
    let (mut reference, mut fast) = (Digest::new(), Digest::new());
    for input in train.iter().chain(test) {
        let x = scaler.transform(&cv.evaluate_features(input).0);
        reference.prediction(svm.predict(&x), &svm.probabilities(&x));
        fast.prediction(compiled.predict(&x), &compiled.probabilities(&x));
    }
    [reference.0, fast.0]
}

/// `cv.call`'s selection for every input, computed by two threads that
/// share `cv` and take alternate inputs, merged back in input order.
fn two_thread_selections<I: Send + Sync + 'static>(
    cv: &CodeVariant<I>,
    inputs: &[I],
) -> Vec<Option<usize>> {
    let halves: Vec<Vec<Option<usize>>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|t| {
                s.spawn(move || {
                    inputs
                        .iter()
                        .skip(t)
                        .step_by(2)
                        .map(|input| cv.call(input).ok().map(|inv| inv.variant))
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("selection thread"))
            .collect()
    });
    (0..inputs.len()).map(|i| halves[i % 2][i / 2]).collect()
}

impl SuiteVisitor for Selections {
    type Output = (&'static str, [u64; 8], EvalSummary);

    fn visit<I: Send + Sync + 'static>(
        &mut self,
        suite: Suite<'_, I>,
    ) -> BenchResult<Self::Output> {
        let mut cv = (suite.build)(&Context::new());
        Autotuner::new().tune(&mut cv, suite.train)?;

        let mut artifact = Digest::new();
        artifact.bytes(cv.export_artifact()?.to_json()?.as_bytes());

        let mut plain = Digest::new();
        let mut chosen = Vec::new();
        for (i, input) in suite.test.iter().enumerate() {
            let selection = cv.call(input).ok().map(|inv| inv.variant);
            plain.selection(selection);
            chosen.push(selection.unwrap_or_else(|| panic!("{}: input {i} failed", suite.name)));
        }
        let perf = evaluate_selection(&ProfileTable::build(&cv, suite.test), &chosen);
        let [reference, compiled] = svm_predictions(&cv, suite.train, suite.test);
        let mut threaded = Digest::new();
        for selection in two_thread_selections(&cv, suite.test) {
            threaded.selection(selection);
        }

        let guard = GuardedVariant::new(cv, GuardPolicy::default())?;
        let mut guarded = Digest::new();
        for input in suite.test {
            guarded.selection(guard.call(input).ok().map(|inv| inv.variant));
        }

        // The journal holds a run header, then per input a features
        // record and one cost cell per variant: this kill tears the
        // second input's features record.
        let dir = temp_model_dir(&format!("selections-{}", suite.name))?;
        let path = dir.join("journal.jsonl");
        let mut victim = (suite.build)(&Context::new());
        let mut journal = TuningJournal::open(&path)?;
        journal.kill_after_appends(1 + (1 + victim.n_variants() as u64) + 1);
        let killed = Autotuner::new().tune_durable(&mut victim, suite.train, &mut journal);
        assert!(killed.is_err(), "{}: the kill must surface", suite.name);
        drop(journal);

        let mut journal = TuningJournal::open(&path)?;
        let torn = journal
            .recovery_diagnostics()
            .iter()
            .any(|d| d.code == "NITRO070");
        assert!(torn, "{}: the kill leaves a torn tail", suite.name);
        let mut resumed = (suite.build)(&Context::new());
        let report = Autotuner::new().tune_durable(&mut resumed, suite.train, &mut journal)?;
        assert!(
            report.replayed_cells > 0,
            "{}: nothing replayed",
            suite.name
        );
        std::fs::remove_dir_all(&dir).ok();
        let mut durable = Digest::new();
        durable.bytes(resumed.export_artifact()?.to_json()?.as_bytes());

        let mut active = (suite.build)(&Context::new());
        active.policy_mut().incremental =
            Some(StoppingCriterion::Iterations(INCREMENTAL_ITERATIONS));
        Autotuner::new().tune(&mut active, suite.train)?;
        let mut incremental = Digest::new();
        incremental.bytes(active.export_artifact()?.to_json()?.as_bytes());

        Ok((
            suite.name,
            [
                artifact.0,
                plain.0,
                threaded.0,
                guarded.0,
                durable.0,
                incremental.0,
                reference,
                compiled,
            ],
            perf,
        ))
    }
}

#[test]
fn tuned_models_and_per_input_selections_are_stable() {
    let got = for_each_suite(SuiteSpec::small(), &mut Selections).unwrap();
    let want: [(&str, [u64; 5]); 5] = [
        (
            "spmv",
            [
                0x8c36_9010_a257_6958,
                0xdb86_decd_1077_9885,
                0xdb86_decd_1077_9885,
                0x12e2_327d_790f_211d,
                0x0ed4_9b99_bec6_2003,
            ],
        ),
        (
            "solvers",
            [
                0xb5e9_ac8d_84ba_aaa1,
                0xd12c_2aa6_2a56_8065,
                0xd12c_2aa6_2a56_8065,
                0xc6a2_1de5_3678_2ee6,
                0x2bbb_97bc_06cd_9ebf,
            ],
        ),
        (
            "bfs",
            [
                0x568b_01bd_7c4c_ad2a,
                0x34f5_1303_221f_4887,
                0x34f5_1303_221f_4887,
                0xa704_3044_2de0_d819,
                0xe14b_e07c_7883_0301,
            ],
        ),
        (
            "histogram",
            [
                0x6e25_5e87_529c_e104,
                0x620e_4266_23c6_5cc2,
                0x620e_4266_23c6_5cc2,
                0xe316_caae_ae08_3feb,
                0x5efa_1e17_1591_7ad7,
            ],
        ),
        (
            "sort",
            [
                0x2c41_0d9b_5806_3fa9,
                0x4a2f_88ec_c254_dee5,
                0x4a2f_88ec_c254_dee5,
                0x82ef_e408_b9c5_b497,
                0x9f79_d210_160b_afec,
            ],
        ),
    ];
    // Each suite's perf-vs-oracle ratio and test inputs with an oracle,
    // then the ratio pooled by input count.
    let want_perf: [(u64, usize); 5] = [
        (0x3fee_ffc4_dcac_3990, 20), // 0.9687218008055414
        (0x3fef_370a_3e6e_4b65, 16), // 0.9754687518455795
        (0x3fef_a032_1bdc_a576, 11), // 0.9883051437547425
        (0x3fed_e355_7e6a_9f5a, 30), // 0.9340007275650166
        (0x3fef_ea5c_2f2d_8c24, 24), // 0.9973584100192778
    ];
    let want_pooled = 0x3fee_fd41_7b1f_ec0e; // 0.9684150128154003
    let mut changed = Vec::new();
    for ((name, digests, _), (want_name, want_digests)) in got.iter().zip(want) {
        assert_eq!(*name, want_name);
        // Two threads sharing the dispatcher select what one does, the
        // resumed durable tune lands on the plain tune's artifact, and the
        // compiled SVM predicts what the reference one-vs-one path does.
        let want_digests = [
            want_digests[0],
            want_digests[1],
            want_digests[1],
            want_digests[2],
            want_digests[0],
            want_digests[3],
            want_digests[4],
            want_digests[4],
        ];
        for (what, (g, w)) in [
            "artifact",
            "plain selections",
            "plain selections from two threads",
            "guarded selections",
            "resumed durable artifact",
            "incremental artifact",
            "reference SVM predictions",
            "compiled SVM predictions",
        ]
        .iter()
        .zip(digests.iter().zip(want_digests))
        {
            if *g != w {
                changed.push(format!(
                    "{name}: {what} changed (digest {g:#018x}, recorded {w:#018x})"
                ));
            }
        }
    }
    for ((name, _, perf), (want_bits, want_n)) in got.iter().zip(want_perf) {
        let (got_bits, got_n) = (perf.mean_relative_perf.to_bits(), perf.n_inputs);
        if (got_bits, got_n) != (want_bits, want_n) {
            changed.push(format!(
                "{name}: perf vs oracle changed ({} over {got_n} inputs, bits {got_bits:#018x}; \
                 recorded {} over {want_n}, bits {want_bits:#018x})",
                perf.mean_relative_perf,
                f64::from_bits(want_bits)
            ));
        }
    }
    let n: usize = got.iter().map(|(_, _, p)| p.n_inputs).sum();
    let pooled = got
        .iter()
        .map(|(_, _, p)| p.mean_relative_perf * p.n_inputs as f64)
        .sum::<f64>()
        / n as f64;
    if pooled.to_bits() != want_pooled {
        changed.push(format!(
            "pooled perf vs oracle changed ({pooled}, bits {:#018x}; recorded {}, bits {want_pooled:#018x})",
            pooled.to_bits(),
            f64::from_bits(want_pooled)
        ));
    }
    assert!(changed.is_empty(), "{}", changed.join("\n"));
    assert_eq!(got.len(), want.len());
}

/// Three variants over `x` and a three-class SVM: `narrow` (the
/// default) below 5, `mid` below 10, `wide` above. `wide` may only run
/// up to x = 12, so the model's winner is vetoed on the largest inputs.
/// Dispatch metrics are bound to `registry`.
fn veto_registration(registry: &nitro::trace::MetricsRegistry) -> CodeVariant<f64> {
    let mut cv = CodeVariant::<f64>::new("veto", &Context::new());
    cv.add_variant(FnVariant::new("narrow", |&x: &f64| 1.0 + x));
    cv.add_variant(FnVariant::new("mid", |&x: &f64| 5.0 + 0.5 * x));
    cv.add_variant(FnVariant::new("wide", |&x: &f64| 20.0 - x));
    cv.set_default(0);
    cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));
    cv.add_input_feature(FnFeature::new("x2", |&x: &f64| x * x));
    cv.add_constraint(2, FnConstraint::new("x <= 12", |&x: &f64| x <= 12.0))
        .unwrap();
    let xs = veto_inputs();
    let data = Dataset::from_parts(
        xs.iter().map(|&x| vec![x, x * x]).collect(),
        xs.iter()
            .map(|&x| usize::from(x >= 5.0) + usize::from(x >= 10.0))
            .collect(),
    );
    cv.install_model(TrainedModel::train(
        &ClassifierConfig::Svm {
            c: Some(10.0),
            gamma: Some(0.5),
            grid_search: false,
            cache_bytes: None,
        },
        &data,
    ));
    cv.bind_metrics(registry);
    cv
}

fn veto_inputs() -> Vec<f64> {
    (0..30).map(|i| f64::from(i) * 0.5).collect()
}

#[test]
fn a_vetoed_prediction_runs_the_default_plain_and_the_next_ranked_variant_guarded() {
    let registry = nitro::trace::MetricsRegistry::new();
    let cv = veto_registration(&registry);
    let (wide, mid) = (2, 1);
    let mut digest = Digest::new();
    let mut vetoed = Vec::new();
    for x in veto_inputs() {
        let (features, _) = cv.evaluate_features(&x);
        let inv = cv.call(&x).unwrap();
        if cv.select(&features) == Some(wide) && x > 12.0 {
            assert_eq!(
                (inv.variant, inv.fell_back_to_default),
                (0, true),
                "x = {x}: a vetoed prediction runs the default"
            );
            vetoed.push(x);
        } else {
            assert_eq!(inv.variant, cv.select(&features).unwrap(), "x = {x}");
            assert!(!inv.fell_back_to_default, "x = {x}");
        }
        digest.selection(Some(inv.variant));
        digest.bytes(&[u8::from(inv.fell_back_to_default)]);
    }
    assert!(vetoed.len() >= 3, "only {} vetoed input(s)", vetoed.len());
    let count = |name: &str| registry.counter_value(name).unwrap();
    assert_eq!(count("dispatch.veto.veto.wide"), vetoed.len() as u64);
    assert_eq!(count("dispatch.veto.veto.mid"), 0);
    assert_eq!(count("dispatch.veto.fallback"), vetoed.len() as u64);

    let guard = GuardedVariant::new(cv, GuardPolicy::default()).unwrap();
    for x in veto_inputs() {
        let inv = guard.call(&x).unwrap();
        if vetoed.contains(&x) {
            let (features, _) = guard.inner().evaluate_features(&x);
            let ranked = guard.inner().model().unwrap().rank(&features);
            let next = ranked.iter().copied().find(|&v| v != wide && v != 0);
            assert_eq!(next, Some(mid), "x = {x}: the ranking is {ranked:?}");
            assert_eq!(
                (inv.variant, inv.cascade.as_slice(), inv.fell_back),
                (mid, [mid, 0].as_slice(), false),
                "x = {x}: the guard serves the next-ranked allowed variant"
            );
        }
        digest.selection(Some(inv.variant));
    }
    assert_eq!(count("dispatch.veto.veto.wide"), vetoed.len() as u64);
    assert_eq!(
        digest.0, 0xbfbc_9b1f_1642_86f5,
        "veto selections changed (digest {:#018x})",
        digest.0
    );
}

/// A four-class SVM over points on a spiral, and every point of a dense
/// grid at which its pairwise votes tie.
fn tie_registration() -> (CodeVariant<[f64; 2]>, Vec<[f64; 2]>) {
    let mut cv = CodeVariant::<[f64; 2]>::new("ties", &Context::new());
    for c in 0..4 {
        cv.add_variant(FnVariant::new(format!("c{c}"), move |q: &[f64; 2]| {
            f64::from(c) + q[0]
        }));
    }
    cv.set_default(0);
    cv.add_input_feature(FnFeature::new("u", |q: &[f64; 2]| q[0]));
    cv.add_input_feature(FnFeature::new("v", |q: &[f64; 2]| q[1]));
    let x: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            let t = f64::from(i) * 2.399_963;
            let r = 1.0 + f64::from(i % 7) * 0.5;
            vec![r * t.cos(), r * t.sin()]
        })
        .collect();
    let y: Vec<usize> = (0..x.len()).map(|i| i % 4).collect();
    let model = TrainedModel::train(
        &ClassifierConfig::Svm {
            c: Some(1.0),
            gamma: Some(0.5),
            grid_search: false,
            cache_bytes: None,
        },
        &Dataset::from_parts(x, y),
    );
    let TrainedModel::Svm {
        scaler, model: svm, ..
    } = &model
    else {
        panic!("an SVM config trains an SVM");
    };
    let mut ties = Vec::new();
    for i in -24..=24 {
        for j in -24..=24 {
            let q = [f64::from(i) * 0.25, f64::from(j) * 0.25];
            let scaled = scaler.transform(&q);
            let mut votes = [0usize; 4];
            for pm in svm.machines() {
                let winner = if pm.svm.decision(&scaled) >= 0.0 {
                    pm.pos
                } else {
                    pm.neg
                };
                votes[winner] += 1;
            }
            let max = *votes.iter().max().unwrap();
            if votes.iter().filter(|&&v| v == max).count() > 1 {
                ties.push(q);
            }
        }
    }
    cv.install_model(model);
    (cv, ties)
}

#[test]
fn a_vote_tie_takes_the_posterior_winner_plain_and_guarded() {
    let (cv, ties) = tie_registration();
    assert!(ties.len() >= 10, "only {} tie(s) on the grid", ties.len());
    let mut digest = Digest::new();
    for q in &ties {
        let inv = cv.call(q).unwrap();
        assert_eq!(Some(inv.variant), cv.select(&inv.features), "at {q:?}");
        digest.selection(Some(inv.variant));
    }
    let guard = GuardedVariant::new(cv, GuardPolicy::default()).unwrap();
    for q in &ties {
        digest.selection(Some(guard.call(q).unwrap().variant));
    }
    assert_eq!(ties.len(), 222, "the grid's vote ties moved");
    assert_eq!(
        digest.0,
        0xc6ba_2bbc_917b_ec65,
        "vote-tie selections changed over {} tie(s) (digest {:#018x})",
        ties.len(),
        digest.0
    );
}
