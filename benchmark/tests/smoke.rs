//! Every workload, untraced and traced, on the miniature collections for
//! one second: the run must pass its own output checks and report every
//! declared metric, with the layers each workload exercises nonzero.

use std::collections::BTreeMap;
use std::process::Command;

/// Run the benchmark; return its `name value unit` lines as a map and
/// its last line.
fn run(workload: &str, trace: &str) -> (BTreeMap<String, f64>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_nitro-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().expect("a result line").to_string();
    let metrics = lines
        .iter()
        .map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            assert_eq!(fields.len(), 3, "not `name value unit`: {line}");
            let value = fields[1].parse().expect("a numeric value");
            (fields[0].to_string(), value)
        })
        .collect();
    (metrics, last)
}

fn check(workload: &str, trace: &str, count: usize, exercised: &[&str]) {
    let (metrics, last) = run(workload, trace);
    assert_eq!(metrics.len(), count, "{workload}: {metrics:?}");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    for (name, value) in &metrics {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(value.is_finite(), "{name} = {value}");
    }
    for name in exercised {
        assert!(metrics[*name] > 0.0, "{workload}: {name} = 0");
    }
}

const END_TO_END: &[&str] = &["setup_s", "perf_vs_oracle", "throughput_rps", "peak_rss_mb"];

#[test]
fn direct_workloads_pass_their_checks() {
    for workload in ["paper-kernels", "replay-direct"] {
        check(workload, "0", 4, END_TO_END);
        check(
            workload,
            "1",
            38,
            &[
                "host.speed",
                "tuner.profile_s",
                "ml.train_kernel_evals",
                "core.features_ns.p50.spmv",
                "variant.invoke_ns.p50.sort",
                "ml.predict_ns.p50",
                "trace.overhead_frac",
            ],
        );
    }
}

#[test]
fn guarded_workload_passes_its_checks() {
    check("guard-direct", "0", 4, END_TO_END);
    check(
        "guard-direct",
        "1",
        38,
        &[
            "host.speed",
            "tuner.profile_s",
            "ml.rank_ns.p50",
            "guard.call_ns.p50",
            "guard.plan_ns.p50",
            "guard.cascade_len.mean",
            "trace.overhead_frac",
        ],
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_nitro-benchmark"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
        ])
        .output()
        .expect("run the benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
