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
pub use stripe::{default_stripes, StripedU64};
pub use tracer::{SpanGuard, Tracer};

// Re-exported so instrumentation sites can build args without adding
// their own dependency on the vendored serde value model.
pub use serde::{Number, Value};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
// std Mutex: the vendored parking_lot Mutex is not const-constructible.
// It serializes *writers only* — readers never touch it.
use std::sync::Mutex;

// The global tracer slot is a single-pointer RCU with striped reader
// counters. Readers ([`global`]) are lock-free: they announce
// themselves on a per-thread stripe (one `fetch_add` on a cache line no
// other stripe shares), load the pointer, clone the `Tracer` (an `Arc`
// bump) and retire the stripe. Writers ([`install_global`] /
// [`uninstall_global`]) swap the pointer and then spin until every
// stripe drains to zero before freeing the old box — at that point no
// reader can still hold the old pointer.
//
// Why this is sound (all protocol operations are `SeqCst`, so they form
// one total order): a reader's stripe increment precedes its pointer
// load. If the increment ordered *before* the writer's swap, the
// writer's subsequent drain-check observes the nonzero stripe and
// waits. If it ordered *after* the swap, the reader's load observes the
// *new* pointer — it never sees the old one. Either way the writer
// frees the old tracer only after every reader that could have seen it
// has finished.
static GLOBAL_INSTALLED: AtomicBool = AtomicBool::new(false);
static GLOBAL_PTR: AtomicPtr<Tracer> = AtomicPtr::new(std::ptr::null_mut());
static GLOBAL_WRITER: Mutex<()> = Mutex::new(());

const READER_STRIPES: usize = 8;

/// One cache line (conservatively two, for adjacent-line prefetchers)
/// per stripe, so concurrent readers on different stripes never
/// false-share.
#[repr(align(128))]
struct ReaderStripe(AtomicU64);

static READERS: [ReaderStripe; READER_STRIPES] =
    [const { ReaderStripe(AtomicU64::new(0)) }; READER_STRIPES];

fn reader_stripe() -> &'static AtomicU64 {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ORDINAL: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    let ordinal = ORDINAL.with(|slot| {
        let mut o = slot.get();
        if o == usize::MAX {
            o = NEXT.fetch_add(1, Ordering::Relaxed);
            slot.set(o);
        }
        o
    });
    &READERS[ordinal % READER_STRIPES].0
}

/// Swap the slot pointer and free the displaced tracer once all
/// in-flight readers have drained. Callers hold the writer mutex.
fn swap_global(new: *mut Tracer) -> Option<Tracer> {
    let old = GLOBAL_PTR.swap(new, Ordering::SeqCst);
    if old.is_null() {
        return None;
    }
    for stripe in &READERS {
        while stripe.0.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
    }
    // No reader holds `old`: every stripe has drained since the swap,
    // and any reader arriving after it sees `new`.
    Some(*unsafe { Box::from_raw(old) })
}

/// Install a tracer into the process-global slot consulted by layers
/// that have no `Context` in scope (the SIMT simulator). Replaces any
/// previously installed tracer.
pub fn install_global(tracer: Tracer) {
    let boxed = Box::into_raw(Box::new(tracer));
    let _writer = GLOBAL_WRITER.lock().expect("global tracer writer lock");
    swap_global(boxed);
    GLOBAL_INSTALLED.store(true, Ordering::Release);
}

/// Remove the process-global tracer, returning it if one was installed.
pub fn uninstall_global() -> Option<Tracer> {
    let _writer = GLOBAL_WRITER.lock().expect("global tracer writer lock");
    GLOBAL_INSTALLED.store(false, Ordering::Release);
    swap_global(std::ptr::null_mut())
}

/// The process-global tracer, if installed. Lock-free on every path:
/// with no tracer installed this is a single atomic load; with one
/// installed it is two stripe-local counter updates, a pointer load and
/// an `Arc` clone. Readers never contend with each other and never
/// block a concurrent [`install_global`] for longer than their own
/// clone.
pub fn global() -> Option<Tracer> {
    if !GLOBAL_INSTALLED.load(Ordering::Acquire) {
        return None;
    }
    let stripe = reader_stripe();
    stripe.fetch_add(1, Ordering::SeqCst);
    let ptr = GLOBAL_PTR.load(Ordering::SeqCst);
    let out = if ptr.is_null() {
        None
    } else {
        // In-bounds: the writer frees this allocation only after our
        // stripe (incremented before the load) drains back to zero.
        Some(unsafe { (*ptr).clone() })
    };
    stripe.fetch_sub(1, Ordering::SeqCst);
    out
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

        // Churn: readers hammer the slot while a writer re-installs,
        // exercising the RCU drain path. Every successful read must
        // yield a usable tracer (use-after-free here would crash or
        // corrupt the Arc count).
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
