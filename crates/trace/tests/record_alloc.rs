//! Counting-allocator harness: proves the hot record path is
//! allocation-free. Handles are registered once (that lookup may
//! allocate) and each thread's stripe ordinal is assigned on first
//! touch; after that warm-up, `inc` and `record` must not allocate —
//! single-threaded or across concurrent threads.
//!
//! The counter is **thread-local**: each thread measures only its own
//! allocations. A process-global counter is racy here — the libtest
//! harness (and any other runtime thread) allocates at unpredictable
//! times, and those allocations would land inside the measurement
//! window and fail the assertion spuriously.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use nitro_trace::MetricsRegistry;

struct CountingAlloc;

thread_local! {
    // const-initialized: reading/writing the Cell never allocates, so
    // the allocator hook can touch it without recursing.
    static LOCAL_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = LOCAL_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    LOCAL_ALLOCATIONS.with(|n| n.get())
}

/// Single test covering both phases: single-threaded and concurrent
/// recording on shared metrics, each thread asserting over its own
/// allocation count.
#[test]
fn record_path_is_allocation_free() {
    let registry = MetricsRegistry::new();

    // Phase 1: single thread. Warm up (handle registration + this
    // thread's stripe ordinal), then measure.
    let counter = registry.counter("dispatch.alloc.calls");
    let sketch = registry.sketch("dispatch.alloc.latency_ns");
    for i in 0..64 {
        counter.inc();
        sketch.record(1.0 + i as f64);
    }
    let before = allocations();
    for i in 0..100_000u64 {
        counter.inc();
        sketch.record(1.0 + (i % 1000) as f64);
    }
    let single_thread_allocs = allocations() - before;

    // Phase 2: concurrent threads on the same metrics. Every thread
    // warms up before the barrier opens its measurement window, counts
    // its own allocations across the record loop, and contributes to
    // the shared total.
    const THREADS: usize = 4;
    const OPS: u64 = 50_000;
    let start = Barrier::new(THREADS);
    let total = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let (registry, start, total) = (&registry, &start, &total);
            s.spawn(move || {
                let c = registry.counter("dispatch.alloc.calls");
                let sk = registry.sketch("dispatch.alloc.latency_ns");
                for i in 0..64 {
                    c.inc();
                    sk.record(1.0 + i as f64);
                }
                start.wait();
                let before = allocations();
                for i in 0..OPS {
                    c.inc();
                    sk.record(1.0 + ((i + t) % 1000) as f64);
                }
                total.fetch_add(allocations() - before, Ordering::Relaxed);
            });
        }
    });
    let multi_thread_allocs = total.load(Ordering::Relaxed);

    assert_eq!(
        single_thread_allocs, 0,
        "single-thread record path allocated {single_thread_allocs} time(s)"
    );
    assert_eq!(
        multi_thread_allocs, 0,
        "multi-thread record path allocated {multi_thread_allocs} time(s)"
    );
}
