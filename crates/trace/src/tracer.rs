//! The [`Tracer`]: clock + thread-id assignment + sink + metrics, bound
//! together behind one cheaply-clonable handle.
//!
//! A `Tracer` is an `Arc` around its state, so installing it in a
//! [`Context`](../../nitro_core) and cloning it per dispatch costs one
//! reference-count bump — no allocation. Spans are emitted through
//! [`SpanGuard`], which writes the `B` event on creation and the
//! matching `E` event on `Drop`, keeping Chrome traces strictly nested
//! even across early `return Err(...)` paths.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

use parking_lot::Mutex;
use serde::Value;

use crate::event::{Phase, TraceEvent};
use crate::metrics::MetricsRegistry;
use crate::sink::TraceSink;

/// Time source for event timestamps.
enum Clock {
    /// Wall clock: nanoseconds since the tracer was created.
    Monotonic(Instant),
    /// Hand-advanced clock for deterministic tests and golden files.
    Manual(AtomicU64),
}

struct TracerInner {
    sink: Arc<dyn TraceSink>,
    metrics: MetricsRegistry,
    clock: Clock,
    /// OS thread ids mapped to small dense tids, first-come first-served.
    tids: Mutex<HashMap<ThreadId, u64>>,
    next_tid: AtomicU64,
}

/// Handle that instrumentation sites clone and emit through.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer over the given sink, timestamping with a monotonic
    /// clock whose epoch is "now".
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Self::with_clock(sink, Clock::Monotonic(Instant::now()))
    }

    /// A tracer with a manually advanced clock starting at 0 ns — for
    /// deterministic tests and golden files. Advance it with
    /// [`Tracer::advance`].
    pub fn with_manual_clock(sink: Arc<dyn TraceSink>) -> Self {
        Self::with_clock(sink, Clock::Manual(AtomicU64::new(0)))
    }

    fn with_clock(sink: Arc<dyn TraceSink>, clock: Clock) -> Self {
        Self {
            inner: Arc::new(TracerInner {
                sink,
                metrics: MetricsRegistry::new(),
                clock,
                tids: Mutex::new(HashMap::new()),
                next_tid: AtomicU64::new(1),
            }),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        match &self.inner.clock {
            Clock::Monotonic(epoch) => epoch.elapsed().as_nanos() as u64,
            Clock::Manual(ns) => ns.load(Ordering::Relaxed),
        }
    }

    /// Advance a manual clock by `ns` (no-op on monotonic tracers).
    pub fn advance(&self, ns: u64) {
        if let Clock::Manual(t) = &self.inner.clock {
            t.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// The tracer's metrics registry. Clone it to record into the
    /// tracer's store from a component that keeps its own handles.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Small dense id for the calling thread, assigned on first use.
    pub fn tid(&self) -> u64 {
        let id = std::thread::current().id();
        let mut tids = self.inner.tids.lock();
        if let Some(&t) = tids.get(&id) {
            return t;
        }
        let t = self.inner.next_tid.fetch_add(1, Ordering::Relaxed);
        tids.insert(id, t);
        t
    }

    fn emit(&self, name: &str, cat: &str, phase: Phase, args: Vec<(String, Value)>) {
        let event = TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            phase,
            ts_ns: self.now_ns(),
            pid: 1,
            tid: self.tid(),
            args,
        };
        self.inner.sink.record(&event);
    }

    /// Emit a thread-scoped instant event.
    pub fn instant(&self, name: &str, cat: &str, args: Vec<(String, Value)>) {
        self.emit(name, cat, Phase::Instant, args);
    }

    /// Open a span: the `B` event is emitted now, the matching `E` when
    /// the returned guard drops (with any args added via
    /// [`SpanGuard::end_arg`]).
    pub fn span(&self, name: &str, cat: &str, args: Vec<(String, Value)>) -> SpanGuard {
        self.emit(name, cat, Phase::Begin, args);
        SpanGuard {
            tracer: self.clone(),
            name: name.to_string(),
            cat: cat.to_string(),
            start_ns: self.now_ns(),
            tid: self.tid(),
            end_args: Vec::new(),
        }
    }

    /// Flush the underlying sink.
    pub fn flush(&self) {
        self.inner.sink.flush();
    }

    /// Events the bound sink has dropped so far (0 for lossless sinks).
    pub fn dropped_events(&self) -> u64 {
        self.inner.sink.dropped_events()
    }

    /// Freeze the metrics registry, injecting the sink's drop count as
    /// the `trace.dropped_events` counter — a truncated trace is then
    /// visible in the exported artifact itself, not just to whoever
    /// still holds the sink handle.
    pub fn metrics_snapshot(&self) -> crate::MetricsSnapshot {
        let mut snap = self.inner.metrics.snapshot();
        let dropped = self.dropped_events();
        match snap
            .counters
            .iter_mut()
            .find(|(k, _)| k == "trace.dropped_events")
        {
            Some((_, v)) => *v = dropped,
            None => {
                snap.counters
                    .push(("trace.dropped_events".to_string(), dropped));
                snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
            }
        }
        snap
    }
}

/// RAII span: emits the `E` event on drop, on the same tid the `B` was
/// emitted on, so per-thread nesting stays valid even if the guard is
/// dropped from another thread or during unwinding.
pub struct SpanGuard {
    tracer: Tracer,
    name: String,
    cat: String,
    start_ns: u64,
    tid: u64,
    end_args: Vec<(String, Value)>,
}

impl SpanGuard {
    /// Attach an argument to the closing `E` event (outcomes that are
    /// only known at the end of the span: predicted label, veto flag…).
    pub fn end_arg(&mut self, name: &str, value: Value) {
        self.end_args.push((name.to_string(), value));
    }

    /// Nanoseconds elapsed since the span opened.
    pub fn elapsed_ns(&self) -> u64 {
        self.tracer.now_ns().saturating_sub(self.start_ns)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let event = TraceEvent {
            name: std::mem::take(&mut self.name),
            cat: std::mem::take(&mut self.cat),
            phase: Phase::End,
            ts_ns: self.tracer.now_ns(),
            pid: 1,
            tid: self.tid,
            args: std::mem::take(&mut self.end_args),
        };
        self.tracer.inner.sink.record(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::arg;
    use crate::sink::RingSink;

    #[test]
    fn span_emits_begin_then_end_in_order() {
        let ring = Arc::new(RingSink::new(16));
        let tracer = Tracer::with_manual_clock(ring.clone());
        {
            let mut span = tracer.span("dispatch", "dispatch", vec![arg("n", &4u64)]);
            tracer.advance(500);
            span.end_arg("label", serde::Value::Number(serde::Number::PosInt(2)));
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].phase, Phase::Begin);
        assert_eq!(events[0].ts_ns, 0);
        assert_eq!(events[1].phase, Phase::End);
        assert_eq!(events[1].ts_ns, 500);
        assert_eq!(events[1].args[0].0, "label");
        assert_eq!(events[0].tid, events[1].tid);
    }

    #[test]
    fn metrics_snapshot_injects_the_drop_counter() {
        let ring = Arc::new(RingSink::new(2));
        let tracer = Tracer::new(ring);
        tracer.metrics().counter("dispatch.toy.calls").inc();
        for _ in 0..5 {
            tracer.instant("tick", "test", vec![]);
        }
        assert_eq!(tracer.dropped_events(), 3);
        let snap = tracer.metrics_snapshot();
        assert_eq!(snap.counter("trace.dropped_events"), Some(3));
        assert_eq!(snap.counter("dispatch.toy.calls"), Some(1));
        // Injection keeps the sorted-names invariant.
        let names: Vec<&String> = snap.counters.iter().map(|(k, _)| k).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn span_closes_on_early_return() {
        let ring = Arc::new(RingSink::new(16));
        let tracer = Tracer::new(ring.clone());
        fn fallible(t: &Tracer) -> Result<(), ()> {
            let _span = t.span("work", "tuning", vec![]);
            Err(())
        }
        assert!(fallible(&tracer).is_err());
        let events = ring.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].phase, Phase::End);
    }

    #[test]
    fn threads_get_distinct_dense_tids() {
        let ring = Arc::new(RingSink::new(64));
        let tracer = Tracer::new(ring.clone());
        tracer.instant("main", "test", vec![]);
        let t2 = tracer.clone();
        std::thread::spawn(move || t2.instant("worker", "test", vec![]))
            .join()
            .unwrap();
        tracer.instant("main-again", "test", vec![]);
        let events = ring.snapshot();
        assert_eq!(events[0].tid, events[2].tid);
        assert_ne!(events[0].tid, events[1].tid);
    }

    #[test]
    fn manual_clock_is_deterministic() {
        let ring = Arc::new(RingSink::new(8));
        let tracer = Tracer::with_manual_clock(ring.clone());
        assert_eq!(tracer.now_ns(), 0);
        tracer.advance(1234);
        assert_eq!(tracer.now_ns(), 1234);
        tracer.instant("tick", "test", vec![]);
        assert_eq!(ring.snapshot()[0].ts_ns, 1234);
    }

    #[test]
    fn clone_shares_metrics_and_sink() {
        let ring = Arc::new(RingSink::new(8));
        let tracer = Tracer::new(ring.clone());
        let clone = tracer.clone();
        clone.metrics().counter("calls").inc();
        assert_eq!(tracer.metrics().counter_value("calls"), Some(1));
        clone.instant("e", "test", vec![]);
        assert_eq!(ring.len(), 1);
    }
}
