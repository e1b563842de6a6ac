//! Trace report: run every benchmark suite under a tracer and turn the
//! emitted telemetry into artifacts plus a human-readable summary.
//!
//! ```text
//! NITRO_SCALE=small cargo run -p nitro-bench --bin trace_report
//! ```
//!
//! Per suite, writes under `target/nitro-trace/`:
//!
//! * `<suite>.trace.json` — a Chrome `trace_event` document (open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>),
//! * `<suite>.trace.jsonl` — the same events as streaming JSONL,
//! * `<suite>.metrics.json` — the metrics snapshot (counters, gauges,
//!   histograms),
//! * `<suite>.collapsed` and `<suite>.profile.json` — the dispatch
//!   profile of a [`PulseProfiler`] sampling every 4th test dispatch, as
//!   collapsed stacks (flamegraph input) and as per-cell JSON.
//!
//! The binary validates its own output — the Chrome document must pass
//! the strict-nesting validator and the metrics JSON must round-trip
//! through [`nitro_trace::MetricsSnapshot`] — then runs the runtime
//! metrics audit (`NITRO040`+) and prints, per suite: the tuning phase
//! breakdown, the dispatch win/veto/fallback counts, the profiler's
//! sample count, the mispredict confusion pairs and the top regret
//! contributors. Exits non-zero if any artifact fails validation or the
//! profiler sampled nothing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nitro_audit::{analyze_metrics_json, render_text, MetricsAuditConfig};
use nitro_bench::error::{exit_on_error, BenchResult};
use nitro_bench::{for_each_suite, pct, target_path, Suite, SuiteSpec, SuiteVisitor};
use nitro_core::{CodeVariant, Context};
use nitro_pulse::PulseProfiler;
use nitro_trace::{
    validate_chrome_trace, ChromeSink, JsonlSink, MetricsSnapshot, MultiSink, RegretLedger,
    RingSink, Tracer,
};
use nitro_tuner::{Autotuner, ProfileTable, TuneReport};

/// Everything the summary needs from one traced suite.
struct SuiteTrace {
    name: String,
    tune: TuneReport,
    ledger: RegretLedger,
    /// `(best, chosen) -> count` over mispredicted test dispatches.
    confusion: BTreeMap<(String, String), u64>,
    metrics: MetricsSnapshot,
    /// `(sampled dispatches, profile cells)` of the dispatch profiler.
    profile: (u64, usize),
    /// Validation failures (empty means all artifacts are well-formed).
    failures: Vec<String>,
    /// Chrome-trace shape: (events, spans, instants, lanes).
    trace_shape: (usize, usize, usize, usize),
}

/// Run one suite under a fresh tracer: tune, profile the test set,
/// dispatch every test input, then export + validate the artifacts.
fn trace_suite<I: Send + Sync>(
    name: &str,
    cv: &mut CodeVariant<I>,
    train: &[I],
    test: &[I],
    dir: &Path,
) -> BenchResult<SuiteTrace> {
    let mut failures = Vec::new();

    let chrome = Arc::new(ChromeSink::new());
    let jsonl_path = dir.join(format!("{name}.trace.jsonl"));
    // A bounded ring rides along, as production deployments run it:
    // its drop count surfaces in the metrics snapshot as
    // `trace.dropped_events`, and the summary warns when it truncated.
    let ring = Arc::new(RingSink::new(4096));
    let mut sinks: Vec<Arc<dyn nitro_trace::TraceSink>> = vec![chrome.clone(), ring];
    match JsonlSink::to_file(&jsonl_path) {
        Ok(s) => sinks.push(Arc::new(s)),
        Err(e) => failures.push(format!("could not open {}: {e}", jsonl_path.display())),
    }
    let tracer = Tracer::new(Arc::new(MultiSink::new(sinks)));

    cv.context().install_tracer(tracer.clone());
    cv.bind_metrics(tracer.metrics());
    // The simulator layer reads the process-global slot (substrates
    // build their GPUs internally, without a Context in scope).
    nitro_trace::install_global(tracer.clone());

    // Tune without the profile cache so the profiling phase is traced.
    let tune = Autotuner::new().tune(cv, train)?;

    // Ground truth for the test set (also traced, as profile instants).
    let test_table = ProfileTable::build(cv, test);

    // Dispatch every test input through the tuned selector, accounting
    // regret against the exhaustive-search ground truth. The profiler
    // samples every 4th call, so it sees every variant even on the
    // miniature collections.
    let profiler = PulseProfiler::new(4);
    cv.set_dispatch_observer(Arc::new(profiler.clone()));
    let mut ledger = RegretLedger::new(5);
    let mut confusion: BTreeMap<(String, String), u64> = BTreeMap::new();
    for (i, input) in test.iter().enumerate() {
        let inv = match cv.call(input) {
            Ok(inv) => inv,
            Err(e) => {
                failures.push(format!("dispatch failed on {name}[{i}]: {e}"));
                continue;
            }
        };
        let costs = &test_table.costs[i];
        ledger.record(&format!("{name}[{i}]"), inv.variant, costs);
        if let Some(best) = test_table.best_variant(i) {
            if best != inv.variant {
                *confusion
                    .entry((
                        test_table.variant_names[best].clone(),
                        inv.variant_name.clone(),
                    ))
                    .or_insert(0) += 1;
            }
            let regret = costs[inv.variant] - costs[best];
            if regret.is_finite() && regret >= 0.0 {
                tracer
                    .metrics()
                    .sketch(&format!("regret.{name}.ns"))
                    .record(regret);
            }
        }
    }

    tracer.flush();
    nitro_trace::uninstall_global();
    cv.context().clear_tracer();

    // Export + validate the Chrome trace.
    let chrome_json = chrome.to_chrome_json();
    let trace_path = dir.join(format!("{name}.trace.json"));
    if let Err(e) = std::fs::write(&trace_path, &chrome_json) {
        failures.push(format!("could not write {}: {e}", trace_path.display()));
    }
    let trace_shape = match validate_chrome_trace(&chrome_json) {
        Ok(stats) => (stats.events, stats.spans, stats.instants, stats.lanes),
        Err(e) => {
            failures.push(format!("{name}.trace.json failed validation: {e}"));
            (0, 0, 0, 0)
        }
    };

    // Export + round-trip-validate the metrics snapshot (with the
    // sink drop count injected as `trace.dropped_events`).
    let metrics = tracer.metrics_snapshot();
    let metrics_json = metrics.to_json();
    let metrics_path = dir.join(format!("{name}.metrics.json"));
    if let Err(e) = std::fs::write(&metrics_path, &metrics_json) {
        failures.push(format!("could not write {}: {e}", metrics_path.display()));
    }
    match MetricsSnapshot::from_json(&metrics_json) {
        Ok(back) if back.counters == metrics.counters => {}
        Ok(_) => failures.push(format!("{name}.metrics.json round-trip altered counters")),
        Err(e) => failures.push(format!("{name}.metrics.json does not round-trip: {e}")),
    }

    // Export the dispatch profile.
    for (file, text) in [
        (format!("{name}.collapsed"), profiler.collapsed()),
        (format!("{name}.profile.json"), profiler.to_json()),
    ] {
        if let Err(e) = std::fs::write(dir.join(&file), text) {
            failures.push(format!("could not write {file}: {e}"));
        }
    }
    let profile = (profiler.sampled(), profiler.report().entries.len());
    if profile.1 == 0 {
        failures.push(format!("the profiler sampled no {name} dispatch"));
    }

    Ok(SuiteTrace {
        name: name.to_string(),
        tune,
        ledger,
        confusion,
        metrics,
        profile,
        failures,
        trace_shape,
    })
}

fn summarize(s: &SuiteTrace) {
    println!("\n== {} ==", s.name);
    let (events, spans, instants, lanes) = s.trace_shape;
    println!(
        "  trace: {events} events ({spans} spans, {instants} instants) across {lanes} lane(s)"
    );

    // Tuning phase breakdown, measured by the tuner's phase spans.
    let breakdown = nitro_bench::phase_breakdown(&s.tune, "    ");
    if !breakdown.is_empty() {
        println!("  tuning phases:\n{breakdown}");
    }

    // Dispatch counters straight from the exported snapshot.
    let calls = s
        .metrics
        .counter(&format!("dispatch.{}.calls", s.name))
        .unwrap_or(0);
    let fallbacks = s
        .metrics
        .counter(&format!("dispatch.{}.fallback", s.name))
        .unwrap_or(0);
    println!("  dispatch: {calls} call(s), {fallbacks} fallback(s)");
    let (sampled, cells) = s.profile;
    println!("  profile: {sampled} sampled dispatch(es) in {cells} cell(s)");
    let dropped = s.metrics.counter("trace.dropped_events").unwrap_or(0);
    if dropped > 0 {
        println!(
            "  WARNING: bounded ring sink dropped {dropped} event(s) — \
             the in-memory trace tail is truncated (the exported \
             .trace.json/.jsonl files are lossless)"
        );
    }
    let win_prefix = format!("dispatch.{}.win.", s.name);
    for (counter, value) in &s.metrics.counters {
        if let Some(variant) = counter.strip_prefix(&win_prefix) {
            println!("    win {variant:<24} {value}");
        }
    }

    // Regret accounting against exhaustive search.
    println!(
        "  regret: {} / {} mispredicted, oracle fraction {}, mean regret {:.1} ns, max {:.1} ns",
        s.ledger.mispredicts,
        s.ledger.count,
        pct(s.ledger.oracle_fraction()),
        s.ledger.mean_regret(),
        s.ledger.max_regret
    );
    if !s.confusion.is_empty() {
        println!("  mispredict confusion (best -> chosen):");
        let mut pairs: Vec<_> = s.confusion.iter().collect();
        pairs.sort_by_key(|(_, &n)| std::cmp::Reverse(n));
        for ((best, chosen), n) in pairs.into_iter().take(5) {
            println!("    {best} -> {chosen}: {n}");
        }
    }
    if !s.ledger.top().is_empty() {
        println!("  top regret contributors:");
        for e in s.ledger.top() {
            println!(
                "    {:<16} chose {} over {} (+{:.1} ns)",
                e.label, e.chosen, e.best, e.regret
            );
        }
    }
}

struct Traced {
    dir: PathBuf,
}

impl SuiteVisitor for Traced {
    type Output = SuiteTrace;
    fn visit<I: Send + Sync + 'static>(
        &mut self,
        suite: Suite<'_, I>,
    ) -> BenchResult<Self::Output> {
        let mut cv = (suite.build)(&Context::new());
        trace_suite(suite.name, &mut cv, suite.train, suite.test, &self.dir)
    }
}

fn main() {
    exit_on_error(run());
}

fn run() -> BenchResult<()> {
    let spec = SuiteSpec::from_env()?;
    let dir = target_path("nitro-trace");
    std::fs::create_dir_all(&dir).ok();
    println!("== nitro-trace report ==");
    if spec.small {
        println!("(NITRO_SCALE=small — miniature collections)");
    }
    println!("artifacts under {}", dir.display());

    let suites = for_each_suite(spec, &mut Traced { dir: dir.clone() })?;

    for s in &suites {
        summarize(s);
    }

    // Runtime-metrics audit over the exported snapshots.
    println!("\n== runtime metrics audit ==");
    let audit_config = MetricsAuditConfig::default();
    for s in &suites {
        let path = dir.join(format!("{}.metrics.json", s.name));
        let json = std::fs::read_to_string(&path).unwrap_or_default();
        let diags = analyze_metrics_json(&json, &s.name, &audit_config);
        println!("  {}: {}", s.name, render_text(&diags));
    }

    let mut failed = false;
    for s in &suites {
        for f in &s.failures {
            eprintln!("FAIL [{}]: {f}", s.name);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("\nall trace artifacts validated");
    Ok(())
}
