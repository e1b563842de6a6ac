//! Checks the schema of `BENCH_history.json`, the committed performance
//! history of the repository benchmark: one record per change and
//! workload, with the parent and change medians and quartiles of the
//! host-measured metrics, the pairs the change won, the seeds and the
//! git revisions, and the deterministic metrics kept apart.
//!
//! A `null` stands for a figure that was never recorded, so it may
//! appear only in a record marked `backfilled` (reconstructed from an
//! older change description), and never in a deterministic metric.

use serde_json::{Number, Value};

const WORKLOADS: [&str; 3] = ["paper-kernels", "replay-direct", "guard-direct"];
const MEASURED: [&str; 3] = ["setup_s", "throughput_rps", "peak_rss_mb"];
const DETERMINISTIC: [&str; 2] = ["perf_vs_oracle", "failed"];
const RECORD: [&str; 12] = [
    "pr",
    "workload",
    "rev",
    "parent_rev",
    "backfilled",
    "machine",
    "seeds",
    "pairs",
    "claimed",
    "measured",
    "deterministic",
    "note",
];

fn load() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_history.json");
    let text = std::fs::read_to_string(path).expect("BENCH_history.json is committed");
    serde_json::from_str(&text).expect("BENCH_history.json parses")
}

/// Assert that `v` is an object with exactly the fields `want`.
fn assert_fields(v: &Value, want: &[&str], what: &str) {
    let mut got: Vec<&str> = v
        .as_object()
        .unwrap_or_else(|| panic!("{what}: expected an object, found {}", v.kind()))
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    got.sort_unstable();
    let mut want = want.to_vec();
    want.sort_unstable();
    assert_eq!(got, want, "{what}: fields");
}

fn field<'a>(v: &'a Value, key: &str, what: &str) -> &'a Value {
    v.get(key)
        .unwrap_or_else(|| panic!("{what}: missing `{key}`"))
}

fn count(v: &Value, what: &str) -> u64 {
    match v {
        Value::Number(Number::PosInt(n)) => *n,
        _ => panic!("{what}: expected a non-negative integer, found {v:?}"),
    }
}

fn text<'a>(v: &'a Value, what: &str) -> &'a str {
    let s = v
        .as_str()
        .unwrap_or_else(|| panic!("{what}: expected a string, found {}", v.kind()));
    assert!(!s.is_empty(), "{what}: empty string");
    s
}

/// A finite positive number, or `None` for a `null` the record allows.
fn figure(v: &Value, nullable: bool, what: &str) -> Option<f64> {
    if matches!(v, Value::Null) {
        assert!(nullable, "{what}: null outside a backfilled record");
        return None;
    }
    let x = v
        .as_f64()
        .unwrap_or_else(|| panic!("{what}: expected a number, found {}", v.kind()));
    assert!(
        x.is_finite() && x > 0.0,
        "{what}: {x} is not a positive figure"
    );
    Some(x)
}

fn check_rev(v: &Value, nullable: bool, what: &str) {
    if matches!(v, Value::Null) {
        assert!(nullable, "{what}: null outside a backfilled record");
        return;
    }
    let rev = text(v, what);
    assert!(
        rev.len() == 40 && rev.bytes().all(|b| b.is_ascii_hexdigit()),
        "{what}: `{rev}` is not a full git revision"
    );
}

fn check_measured(v: &Value, pairs: u64, backfilled: bool, what: &str) {
    assert_fields(v, &MEASURED, what);
    for metric in MEASURED {
        let what = format!("{what}.{metric}");
        let m = field(v, metric, &what);
        assert_fields(m, &["parent", "change", "pairs_won"], &what);
        for side in ["parent", "change"] {
            let what = format!("{what}.{side}");
            let s = field(m, side, &what);
            assert_fields(s, &["q1", "median", "q3"], &what);
            let [q1, median, q3] = ["q1", "median", "q3"]
                .map(|k| figure(field(s, k, &what), backfilled, &format!("{what}.{k}")));
            if let (Some(q1), Some(median), Some(q3)) = (q1, median, q3) {
                assert!(
                    q1 <= median && median <= q3,
                    "{what}: quartiles out of order"
                );
            }
        }
        let won = field(m, "pairs_won", &what);
        if matches!(won, Value::Null) {
            assert!(
                backfilled,
                "{what}.pairs_won: null outside a backfilled record"
            );
        } else {
            let won = count(won, &what);
            assert!(won <= pairs, "{what}: {won} pairs won of {pairs}");
        }
    }
}

fn check_deterministic(v: &Value, what: &str) {
    assert_fields(v, &DETERMINISTIC, what);
    let perf = field(v, "perf_vs_oracle", what);
    let failed = field(v, "failed", what);
    assert_fields(perf, &["parent", "change"], what);
    assert_fields(failed, &["parent", "change"], what);
    for side in ["parent", "change"] {
        let what = format!("{what}.{side}");
        let p = figure(field(perf, side, &what), false, &what).expect("not null");
        assert!(p <= 1.0, "{what}: perf_vs_oracle {p} above the oracle");
        count(field(failed, side, &what), &what);
    }
}

#[test]
fn history_records_follow_the_schema() {
    let doc = load();
    assert_fields(&doc, &["schema", "about", "records"], "document");
    assert_eq!(
        text(field(&doc, "schema", "document"), "schema"),
        "nitro-bench-history/1"
    );
    text(field(&doc, "about", "document"), "about");
    let records = field(&doc, "records", "document")
        .as_array()
        .expect("records is an array");
    assert!(!records.is_empty(), "the history has records");

    let mut seen: Vec<(u64, &str)> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let what = format!("records[{i}]");
        assert_fields(r, &RECORD, &what);
        let pr = count(field(r, "pr", &what), &what);
        let workload = text(field(r, "workload", &what), &what);
        let what = format!("{what} (PR {pr}, {workload})");
        assert!(WORKLOADS.contains(&workload), "{what}: unknown workload");
        assert!(
            seen.last().is_none_or(|&(last, _)| last <= pr),
            "{what}: records are in PR order"
        );
        assert!(
            !seen.contains(&(pr, workload)),
            "{what}: one record per PR and workload"
        );
        seen.push((pr, workload));

        let backfilled = match field(r, "backfilled", &what) {
            Value::Bool(b) => *b,
            other => panic!(
                "{what}: backfilled must be a boolean, found {}",
                other.kind()
            ),
        };
        check_rev(field(r, "rev", &what), backfilled, &format!("{what}.rev"));
        check_rev(
            field(r, "parent_rev", &what),
            backfilled,
            &format!("{what}.parent_rev"),
        );
        text(field(r, "machine", &what), &what);
        text(field(r, "note", &what), &what);

        let pairs = count(field(r, "pairs", &what), &what);
        assert!(pairs > 0, "{what}: no pairs");
        let seeds: Vec<u64> = field(r, "seeds", &what)
            .as_array()
            .unwrap_or_else(|| panic!("{what}: seeds is an array"))
            .iter()
            .map(|s| count(s, &what))
            .collect();
        assert_eq!(seeds.len() as u64, pairs, "{what}: one seed per pair");
        let mut distinct = seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), seeds.len(), "{what}: seeds repeat");

        for claim in field(r, "claimed", &what)
            .as_array()
            .unwrap_or_else(|| panic!("{what}: claimed is an array"))
        {
            let claim = text(claim, &what);
            assert!(
                MEASURED.contains(&claim),
                "{what}: claimed `{claim}` is not a measured metric"
            );
        }
        check_measured(
            field(r, "measured", &what),
            pairs,
            backfilled,
            &format!("{what}.measured"),
        );
        check_deterministic(
            field(r, "deterministic", &what),
            &format!("{what}.deterministic"),
        );
    }
}
