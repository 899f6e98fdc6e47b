//! Allocation regression: after one warm-up a model step of dynamics plus
//! conventional physics allocates nothing. Its own test binary, because the
//! counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use ap3esm_atm::pdc::SurfaceForcing;
use ap3esm_atm::{AtmState, Dycore, DycoreConfig, PhysicsDriver, PhysicsDynamicsCoupler};
use ap3esm_grid::GeodesicGrid;
use ap3esm_physics::suite::ConventionalSuite;

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

#[test]
fn steady_state_model_step_allocates_nothing() {
    let grid = Arc::new(GeodesicGrid::new(4));
    let dycore = Dycore::new(
        Arc::clone(&grid),
        DycoreConfig::for_spacing_km(grid.mean_spacing_km()),
    );
    let mut state = AtmState::isothermal(Arc::clone(&grid), 5, 288.0);
    let forcing = SurfaceForcing::uniform(state.ncells(), 290.0, 0.4, 1.0);
    let mut pdc =
        PhysicsDynamicsCoupler::new(PhysicsDriver::Conventional(ConventionalSuite::default()));
    let mut model_step = || {
        dycore.step_model_dynamics(&mut state);
        pdc.apply(&mut state, &forcing, dycore.config.dt_model);
    };
    model_step(); // warm-up: the coupler sizes its column and wind buffers on first use
    let counts = [(); 2].map(|()| {
        ALLOCS.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        model_step();
        COUNTING.store(false, Ordering::Relaxed);
        ALLOCS.load(Ordering::Relaxed)
    });
    // Before the workspaces this read 56 798 (16 substeps × 27 + 2562 columns × 22 + 2).
    assert_eq!(counts, [0, 0]);
}
