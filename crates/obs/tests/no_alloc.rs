//! Allocation regression: a warm `ap3esm_obs::span()` enter/drop on an
//! installed `Obs` allocates nothing — untraced, and traced into an event
//! log — and neither does journaling a marker whose name has been seen, nor
//! reading the root spans back (the driver's heartbeat and busy-time). Its
//! own test binary, because the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use ap3esm_obs::event::{Event, EventLog, Kind};
use ap3esm_obs::Obs;

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_of(mut work: impl FnMut()) -> usize {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    work();
    COUNTING.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

/// What a coupling's worth of instrumentation looks like: nested spans, a
/// repeated child, a marker.
fn instrumented_step() {
    let _outer = ap3esm_obs::span("atm_run");
    for _ in 0..4 {
        let _inner = ap3esm_obs::span("dycore");
        let _leaf = ap3esm_obs::span("dyn_substeps");
    }
    ap3esm_obs::mark(Kind::CkptBegin, "checkpoint.begin", 1, 0);
}

/// One test for both configurations, one after the other: the count is
/// process-wide.
#[test]
fn warm_spans_and_marks_allocate_nothing() {
    assert!(std::mem::size_of::<Event>() <= 48);

    let obs = Arc::new(Obs::new());
    let _installed = ap3esm_obs::install(Arc::clone(&obs));
    instrumented_step(); // warm-up: tree nodes, the thread's span stack
    assert_eq!(allocs_of(instrumented_step), 0, "untraced");
    let mut busy = 0.0;
    let read_roots = || obs.profiler.for_each_root(|_, secs| busy += secs);
    assert_eq!(allocs_of(read_roots), 0, "reading the roots");
    assert!(busy > 0.0);

    // The ring is small enough to be full — and so as large as it gets —
    // after the warm-up.
    let log = Arc::new(EventLog::with_capacity(1, 8, 2));
    log.set_enabled(true);
    obs.profiler.attach(Arc::clone(&log), 0);
    obs.profiler.set_tracing(true);
    instrumented_step();
    assert_eq!(allocs_of(instrumented_step), 0, "traced");
    assert!(log.evicted(0) > 0, "the traced steps did record");
    let kinds: Vec<Kind> = log.snapshot()[0].iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&Kind::Span) && kinds.contains(&Kind::CkptBegin));
}
