//! WAL resume bit-identity on a real suite: `Autotuner::tune_durable`
//! on the histogram small training set, killed at several journal
//! offsets (a torn tail, exactly what a crash mid-write leaves), resumes
//! to an artifact whose bytes equal an uninterrupted
//! `Autotuner::tune`'s.
//!
//! The journal holds, per input, a features record and one cost cell per
//! variant. The offsets cover a kill on the run header, on the first
//! features record, inside an early and a middle row, on the last cell
//! and on each phase marker after profiling, plus one run killed twice
//! before it finishes.

use nitro::core::context::temp_model_dir;
use nitro::core::{ClassifierConfig, CodeVariant, Context};
use nitro::histogram::data::{hist_small_sets, HistInput};
use nitro::simt::DeviceConfig;
use nitro::store::TuningJournal;
use nitro::tuner::Autotuner;

fn registration() -> CodeVariant<HistInput> {
    let mut cv = nitro::histogram::variants::build_code_variant(
        &Context::new(),
        &DeviceConfig::fermi_c2050(),
    );
    cv.policy_mut().classifier = ClassifierConfig::Knn { k: 3 };
    cv
}

fn artifact_bytes(cv: &CodeVariant<HistInput>) -> String {
    cv.export_artifact().unwrap().to_json().unwrap()
}

/// Run `tune_durable` once per kill offset in `kills` (each relative to
/// the journal as the previous run left it), then once to completion,
/// and return the finished artifact's bytes.
fn killed_and_resumed(train: &[HistInput], dir: &std::path::Path, kills: &[u64]) -> String {
    let path = dir.join("histogram.journal.jsonl");
    for &k in kills {
        let mut journal = TuningJournal::open(&path).unwrap();
        journal.kill_after_appends(k);
        let result = Autotuner::new().tune_durable(&mut registration(), train, &mut journal);
        assert!(result.is_err(), "the kill after {k} append(s) must surface");
    }
    let mut journal = TuningJournal::open(&path).unwrap();
    if !kills.is_empty() {
        assert!(
            journal
                .recovery_diagnostics()
                .iter()
                .any(|d| d.code == "NITRO070"),
            "a kill leaves a torn tail: {:?}",
            journal.recovery_diagnostics()
        );
    }
    let mut cv = registration();
    Autotuner::new()
        .tune_durable(&mut cv, train, &mut journal)
        .unwrap();
    artifact_bytes(&cv)
}

#[test]
fn killed_durable_tunes_resume_to_the_uninterrupted_artifact() {
    let (train, _) = hist_small_sets(0x5E7E);
    let mut plain = registration();
    Autotuner::new().tune(&mut plain, &train).unwrap();
    let want = artifact_bytes(&plain);

    // The uninterrupted durable run: same artifact, and its journal
    // length (one append per line) places the kill offsets.
    let dir = temp_model_dir("wal-resume-full").unwrap();
    assert_eq!(killed_and_resumed(&train, &dir, &[]), want);
    let appends = std::fs::read_to_string(dir.join("histogram.journal.jsonl"))
        .unwrap()
        .lines()
        .count() as u64;
    std::fs::remove_dir_all(&dir).ok();
    // Begin, per input a features record and one record per variant,
    // then two phase markers.
    let cells = (train.len() * (1 + plain.n_variants())) as u64;
    assert_eq!(appends, cells + 3);

    let schedules: [&[u64]; 8] = [
        &[0],
        &[1],
        &[17],
        &[cells / 2 + 3],
        &[cells],
        &[cells + 1],
        &[cells + 2],
        &[9, cells / 2],
    ];
    for (i, kills) in schedules.iter().enumerate() {
        let dir = temp_model_dir(&format!("wal-resume-{i}")).unwrap();
        let got = killed_and_resumed(&train, &dir, kills);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(got, want, "resume after kills at {kills:?} diverged");
    }
}
