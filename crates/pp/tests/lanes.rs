//! The lane team under a counting allocator and under oversubscription. Its
//! own test binary, because the allocator is process-wide. It counts on the
//! threads that have run a kernel (the caller and the worker lanes) and on no
//! other, so the test harness' own threads cannot be mistaken for a lane.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ap3esm_pp::{for_chunks_mut, ExecSpace, Threads};

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static IS_LANE: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) && IS_LANE.try_with(Cell::get).unwrap_or(false) {
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

/// Both halves in one test, one after the other: the allocation count is
/// process-wide, and the stress half allocates nothing either.
#[test]
fn phases_allocate_nothing_and_oversubscribed_teams_finish() {
    // 10 000 back-to-back phases on a two-lane team, with a pause in the
    // middle long enough for the worker to park and be woken again.
    let team = Threads::new(2);
    let mut field = vec![0.0f64; 4096];
    let mut phases = |count: usize| {
        for _ in 0..count {
            for_chunks_mut(&team, 4096, [&mut field[..]], |_, [part]| {
                IS_LANE.set(true);
                for v in part {
                    *v += 1.0;
                }
            });
        }
    };
    phases(10); // marks the two lanes
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    phases(5_000);
    std::thread::sleep(Duration::from_millis(5));
    phases(5_000);
    let quiet = ALLOCS.load(Ordering::Relaxed);
    assert!(field.iter().all(|v| *v == 10_010.0));

    // Eight lanes on however few cores this box has, through 50 000 phases of
    // a few nanoseconds each: ranges left unclaimed by lanes without a core
    // are run by the caller, idle lanes yield and then park, so the run is
    // bounded by the hand-offs, not by scheduler quanta per phase.
    COUNTING.store(false, Ordering::Relaxed);
    let crowd = Threads::new(8);
    COUNTING.store(true, Ordering::Relaxed);
    let sum = AtomicU64::new(0);
    let started = Instant::now();
    for phase in 0..50_000u64 {
        crowd.for_chunks(8, &|range| {
            IS_LANE.set(true);
            sum.fetch_add(phase * range.len() as u64, Ordering::Relaxed);
        });
        if phase % 5_000 == 0 {
            // Let the crowd park, so the next phases have sleepers to wake.
            std::thread::sleep(Duration::from_millis(3));
        }
    }
    let took = started.elapsed();
    COUNTING.store(false, Ordering::Relaxed);
    assert_eq!(sum.load(Ordering::Relaxed), 8 * (49_999 * 50_000 / 2));
    assert_eq!((quiet, ALLOCS.load(Ordering::Relaxed)), (0, 0));
    assert!(
        took < Duration::from_secs(60),
        "50 000 oversubscribed phases took {took:?}"
    );
    eprintln!("50 000 phases on 8 lanes: {took:?}");
}
