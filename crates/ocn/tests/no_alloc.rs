//! Allocation regression: after warm-up an ocean step on one rank
//! allocates nothing, on one lane or on a team, on any thread. Its own test
//! binary, because the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use ap3esm_comm::World;
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::mask::MaskGenerator;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_ocn::model::OcnForcing;
use ap3esm_ocn::{OcnConfig, OcnModel};
use ap3esm_pp::{ExecSpace, Threads};

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

/// One test for both configurations, one after the other: the count is
/// process-wide.
#[test]
fn steady_state_step_allocates_nothing() {
    // A 1×1 block's halo links are self-links, copied in place: 84 while
    // each of its 42 halo exchanges a step sent a message (a payload and its
    // envelope), 120 while the 3-D refresh sent one per level, 46 551
    // before the workspace.
    assert_eq!(step_allocs(None), [0, 0], "one lane");
    let team: Arc<dyn ExecSpace> = Arc::new(Threads::new(2));
    assert_eq!(step_allocs(Some(team)), [0, 0], "two lanes");
}

/// Allocations, on any thread, of two steps after a warm-up step.
fn step_allocs(space: Option<Arc<dyn ExecSpace>>) -> [usize; 2] {
    let (nlon, nlat, nlev) = (72, 46, 10);
    let grid = TripolarGrid::new(nlon, nlat, nlev, MaskGenerator::default());
    let config = OcnConfig::for_grid(nlon, nlat, nlev, 1, 1);
    let counts = World::new(1).run(|rank| {
        let decomp = BlockDecomp2d::new(nlon, nlat, 1, 1);
        let mut model = OcnModel::new(&grid, config.clone(), 0);
        if let Some(space) = &space {
            model = model.on(Arc::clone(space));
        }
        let forcing = OcnForcing::climatology(&grid, &decomp, 0);
        model.try_step(rank, &forcing).unwrap(); // warm-up: the lanes' mixing scratch
        [(); 2].map(|()| {
            ALLOCS.store(0, Ordering::Relaxed);
            COUNTING.store(true, Ordering::Relaxed);
            model.try_step(rank, &forcing).unwrap();
            COUNTING.store(false, Ordering::Relaxed);
            ALLOCS.load(Ordering::Relaxed)
        })
    });
    counts[0]
}
