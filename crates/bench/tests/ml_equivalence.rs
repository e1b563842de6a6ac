//! Suite-level fast-path audit of the compiled SVM prediction engine.
//!
//! Root `tests/selections.rs` digests the compiled and the reference
//! prediction (argmax and posterior bits) for every train and test input
//! of the five suites. What it does not run is the `NITRO062` audit
//! (`nitro_audit::audit_fastpath`) on real tuned models: this test tunes
//! all five paper benchmark suites end-to-end at CI scale and requires
//! the audit to find the two engines in agreement on each suite's
//! training set.

use nitro_bench::harness::{run_all, SuiteSpec};
use nitro_core::TrainedModel;

#[test]
fn fastpath_audit_is_clean_on_all_suites() {
    let outcomes = run_all(SuiteSpec::small()).expect("all five suites tune");
    assert_eq!(outcomes.len(), 5);
    let mut svm_suites = 0usize;
    for out in &outcomes {
        if !matches!(out.model, TrainedModel::Svm { .. }) {
            continue;
        }
        svm_suites += 1;
        let train_data = out.train_table.dataset();
        let diags = nitro_audit::audit_fastpath(&out.model, &train_data, &out.name);
        assert!(
            !diags.iter().any(|d| d.code == "NITRO062"),
            "{}: {diags:?}",
            out.name
        );
    }
    assert!(
        svm_suites > 0,
        "expected at least one SVM-classified suite (the paper default)"
    );
}
