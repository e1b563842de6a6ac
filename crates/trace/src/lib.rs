//! nitro-trace — structured tracing, metrics and regret accounting for
//! the Nitro variant-tuning stack.
//!
//! The crate has four pieces:
//!
//! * **Events and sinks** ([`TraceEvent`], [`TraceSink`]): every
//!   instrumented operation emits span boundaries (`B`/`E`) or instants
//!   (`i`) in the Chrome `trace_event` field shape. Sinks decide where
//!   they go — a bounded in-memory ring ([`RingSink`]), a streaming
//!   JSONL writer ([`JsonlSink`]), a full Chrome-trace document
//!   collector ([`ChromeSink`]) openable in `chrome://tracing` or
//!   Perfetto, or several at once ([`MultiSink`]).
//! * **Tracer** ([`Tracer`], [`SpanGuard`]): binds a clock, dense
//!   thread-id assignment, a sink and a metrics registry behind one
//!   cheaply-clonable handle. Spans close themselves on drop, so traces
//!   stay well nested across early returns.
//! * **Metrics** ([`MetricsRegistry`], [`MetricsSnapshot`]): the one
//!   metrics store of the stack. Named counters, gauges and quantile
//!   sketches — win/veto/fallback counts per variant, guard events,
//!   feature-extraction and prediction latency, regret distributions —
//!   registered once and recorded through handles ([`Counter`],
//!   [`Gauge`], [`Sketch`]) on per-thread striped atomics
//!   ([`StripedU64`]), with no lock and no allocation. Snapshots export
//!   as sorted, serializable JSON; sketches export as log-bucket
//!   histograms.
//! * **Quantile sketches** ([`QuantileSketch`], [`ConcurrentSketch`]):
//!   DDSketch-style log-bucketed sketches with a configured
//!   relative-error bound `α`. Merging adds bucket counts, so per-stripe
//!   and per-shard sketches fuse into process-level quantiles with no
//!   accuracy loss.
//! * **Regret** ([`RegretLedger`]): chosen-cost minus oracle-cost
//!   accounting with top-K worst-decision retention, for runs where a
//!   profile table provides ground truth.
//!
//! Instrumentation is opt-in: a `Tracer` is installed into a
//! `nitro_core::Context` (covering dispatch, tuning and profiling) and,
//! for the simulator layer, into the process-global slot via
//! [`install_global`] — `nitro_simt::Gpu::launch` checks that slot
//! because substrates construct their GPUs internally. With no tracer
//! installed every instrumentation site is a cheap `None` check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
mod metrics;
mod regret;
mod sink;
mod sketch;
mod stripe;
mod tracer;

pub use chrome::{validate_chrome_trace, ChromeTraceStats};
pub use event::{arg, val, Phase, TraceEvent};
pub use metrics::{Counter, Gauge, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, Sketch};
pub use regret::{RegretEntry, RegretLedger};
pub use sink::{chrome_trace_json, ChromeSink, JsonlSink, MultiSink, RingSink, TraceSink};
pub use sketch::{ConcurrentSketch, QuantileSketch, SketchConfig};
pub use stripe::{default_stripes, AtomicF64, StripedU64};
pub use tracer::{SpanGuard, Tracer};

// Re-exported so instrumentation sites can build args without adding
// their own dependency on the vendored serde value model.
pub use serde::{Number, Value};

use std::sync::atomic::{AtomicBool, Ordering};
// std Mutex: the vendored parking_lot Mutex is not const-constructible.
use std::sync::Mutex;

// The global tracer slot has the same shape as `nitro_simt`'s global
// fault-plan slot: a flag read on every call, and a lock taken only
// when the flag says a tracer is installed. Install stores the tracer
// before raising the flag and uninstall lowers the flag before taking
// it, so the flag never reads false while a tracer sits in the slot.
static GLOBAL_INSTALLED: AtomicBool = AtomicBool::new(false);
static GLOBAL_TRACER: Mutex<Option<Tracer>> = Mutex::new(None);

/// Install a tracer into the process-global slot consulted by layers
/// that have no `Context` in scope (the SIMT simulator). Replaces any
/// previously installed tracer.
pub fn install_global(tracer: Tracer) {
    *GLOBAL_TRACER.lock().expect("global tracer lock") = Some(tracer);
    GLOBAL_INSTALLED.store(true, Ordering::Release);
}

/// Remove the process-global tracer, returning it if one was installed.
pub fn uninstall_global() -> Option<Tracer> {
    GLOBAL_INSTALLED.store(false, Ordering::Release);
    GLOBAL_TRACER.lock().expect("global tracer lock").take()
}

/// The process-global tracer, if installed. With no tracer installed
/// this is a single atomic load; with one installed it also takes the
/// slot lock for an `Arc` clone.
pub fn global() -> Option<Tracer> {
    if !GLOBAL_INSTALLED.load(Ordering::Acquire) {
        return None;
    }
    GLOBAL_TRACER.lock().expect("global tracer lock").clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // One test exercises the whole global-slot lifecycle: tests run
    // concurrently, and the slot is process-wide state.
    #[test]
    fn global_slot_install_use_uninstall() {
        assert!(global().is_none());
        let ring = Arc::new(RingSink::new(8));
        install_global(Tracer::new(ring.clone()));
        let t = global().expect("installed");
        t.instant("tick", "test", vec![]);
        assert_eq!(ring.len(), 1);
        assert!(uninstall_global().is_some());
        assert!(global().is_none());
        assert!(uninstall_global().is_none());

        // Churn: readers hammer the slot while a writer re-installs.
        // Every successful read must yield a usable tracer.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let stop = stop.clone();
                s.spawn(move || {
                    let mut seen = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        if let Some(t) = global() {
                            t.instant("churn", "test", vec![]);
                            seen += 1;
                        }
                    }
                    seen
                });
            }
            for i in 0..200 {
                install_global(Tracer::new(Arc::new(RingSink::new(4))));
                if i % 10 == 0 {
                    uninstall_global();
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert!(uninstall_global().is_some());
        assert!(global().is_none());
    }
}
