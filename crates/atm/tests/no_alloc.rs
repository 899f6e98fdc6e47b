//! Allocation regression: after one warm-up a model step of dynamics plus
//! conventional physics allocates nothing, on one lane or on a team, on any
//! thread. Its own test binary, because the counting allocator is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use ap3esm_atm::pdc::SurfaceForcing;
use ap3esm_atm::{AtmState, Dycore, DycoreConfig, PhysicsDriver, PhysicsDynamicsCoupler};
use ap3esm_grid::GeodesicGrid;
use ap3esm_physics::suite::ConventionalSuite;
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
fn steady_state_model_step_allocates_nothing() {
    assert_eq!(model_step_allocs(None), [0, 0], "one lane");
    let team: Arc<dyn ExecSpace> = Arc::new(Threads::new(2));
    assert_eq!(model_step_allocs(Some(team)), [0, 0], "two lanes");
}

/// Allocations, on any thread, of two model steps after a warm-up step.
fn model_step_allocs(space: Option<Arc<dyn ExecSpace>>) -> [usize; 2] {
    let grid = Arc::new(GeodesicGrid::new(4));
    let mut dycore = Dycore::new(
        Arc::clone(&grid),
        DycoreConfig::for_spacing_km(grid.mean_spacing_km()),
    );
    let mut state = AtmState::isothermal(Arc::clone(&grid), 5, 288.0);
    let forcing = SurfaceForcing::uniform(state.ncells(), 290.0, 0.4, 1.0);
    let mut pdc =
        PhysicsDynamicsCoupler::new(PhysicsDriver::Conventional(ConventionalSuite::default()));
    if let Some(space) = space {
        dycore = dycore.on(Arc::clone(&space));
        pdc = pdc.on(space);
    }
    let mut model_step = || {
        dycore.step_model_dynamics(&mut state);
        pdc.apply(&mut state, &forcing, dycore.config.dt_model);
    };
    model_step(); // warm-up: the coupler sizes its column and wind buffers on first use
                  // Before the workspaces this read 56 798 (16 substeps × 27 + 2562 columns × 22 + 2).
    [(); 2].map(|()| {
        ALLOCS.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        model_step();
        COUNTING.store(false, Ordering::Relaxed);
        ALLOCS.load(Ordering::Relaxed)
    })
}
