//! Pins the paper's decisions: tunes each of the five suites on its
//! small training set under the default `TuningPolicy`, then digests
//!
//! - the tuned `ModelArtifact`'s JSON bytes,
//! - the variant `CodeVariant::call` selects for every test input,
//! - the variant `GuardedVariant::call` serves for every test input,
//! - the artifact of an incremental (BvSB) tune of
//!   `INCREMENTAL_ITERATIONS` queries (paper Fig. 7),
//!
//! and checks each digest against a recorded constant.
//!
//! Each suite is also tuned with `Autotuner::tune_durable`, killed once
//! partway through the second profiled input (a torn journal tail) and
//! resumed: the resumed artifact must digest to the same constant as the
//! plain tune's.
//!
//! A refactor that deletes or moves code must leave every selection
//! as it was. A digest mismatch means a change moved a trained model or
//! a per-input decision; if that is intended (a new feature, a training
//! change), record the new constants and say why in the change
//! description.

use nitro::core::context::temp_model_dir;
use nitro::core::{Context, StoppingCriterion};
use nitro::guard::{GuardPolicy, GuardedVariant};
use nitro::store::TuningJournal;
use nitro::tuner::Autotuner;
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
}

/// One suite's digests: artifact, plain selections, guarded selections,
/// the artifact of the killed and resumed durable tune, and the
/// incremental tune's artifact.
struct Selections;

impl SuiteVisitor for Selections {
    type Output = (&'static str, [u64; 5]);

    fn visit<I: Send + Sync + 'static>(
        &mut self,
        suite: Suite<'_, I>,
    ) -> BenchResult<Self::Output> {
        let mut cv = (suite.build)(&Context::new());
        Autotuner::new().tune(&mut cv, suite.train)?;

        let mut artifact = Digest::new();
        artifact.bytes(cv.export_artifact()?.to_json()?.as_bytes());

        let mut plain = Digest::new();
        for input in suite.test {
            plain.selection(cv.call(input).ok().map(|inv| inv.variant));
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
            [artifact.0, plain.0, guarded.0, durable.0, incremental.0],
        ))
    }
}

#[test]
fn tuned_models_and_per_input_selections_are_stable() {
    let got = for_each_suite(SuiteSpec::small(), &mut Selections).unwrap();
    let want: [(&str, [u64; 4]); 5] = [
        (
            "spmv",
            [
                0x8c36_9010_a257_6958,
                0xdb86_decd_1077_9885,
                0xdb86_decd_1077_9885,
                0x12e2_327d_790f_211d,
            ],
        ),
        (
            "solvers",
            [
                0xb5e9_ac8d_84ba_aaa1,
                0xd12c_2aa6_2a56_8065,
                0xd12c_2aa6_2a56_8065,
                0xc6a2_1de5_3678_2ee6,
            ],
        ),
        (
            "bfs",
            [
                0x568b_01bd_7c4c_ad2a,
                0x34f5_1303_221f_4887,
                0x34f5_1303_221f_4887,
                0xa704_3044_2de0_d819,
            ],
        ),
        (
            "histogram",
            [
                0x6e25_5e87_529c_e104,
                0x620e_4266_23c6_5cc2,
                0x620e_4266_23c6_5cc2,
                0xe316_caae_ae08_3feb,
            ],
        ),
        (
            "sort",
            [
                0x2c41_0d9b_5806_3fa9,
                0x4a2f_88ec_c254_dee5,
                0x4a2f_88ec_c254_dee5,
                0x82ef_e408_b9c5_b497,
            ],
        ),
    ];
    for ((name, digests), (want_name, want_digests)) in got.iter().zip(want) {
        assert_eq!(*name, want_name);
        // The resumed durable tune must land on the plain tune's artifact.
        let want_digests = [
            want_digests[0],
            want_digests[1],
            want_digests[2],
            want_digests[0],
            want_digests[3],
        ];
        for (what, (g, w)) in [
            "artifact",
            "plain selections",
            "guarded selections",
            "resumed durable artifact",
            "incremental artifact",
        ]
        .iter()
        .zip(digests.iter().zip(want_digests))
        {
            assert_eq!(
                *g, w,
                "{name}: {what} changed (digest {g:#018x}, recorded {w:#018x})"
            );
        }
    }
    assert_eq!(got.len(), want.len());
}
