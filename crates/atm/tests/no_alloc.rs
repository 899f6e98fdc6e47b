//! Allocation regression: after one warm-up a model step of dynamics plus
//! conventional physics, and a dynamics substep that accumulates the mass
//! flux, allocate nothing, on one lane or on a team, on any thread. Its own
//! test binary, because the counting allocator is process-wide.

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

/// One test for every configuration, one after the other: the count is
/// process-wide.
#[test]
fn steady_state_steps_allocate_nothing() {
    assert_eq!(model_step_allocs(None), [0, 0], "model step, one lane");
    assert_eq!(dyn_substep_allocs(None), [0, 0], "substep, one lane");
    let team: Arc<dyn ExecSpace> = Arc::new(Threads::new(2));
    assert_eq!(
        model_step_allocs(Some(Arc::clone(&team))),
        [0, 0],
        "model step, two lanes"
    );
    assert_eq!(dyn_substep_allocs(Some(team)), [0, 0], "substep, two lanes");
}

/// The G4 × 5 dycore, on `space` if given, and its resting state.
fn g4_dycore(space: &Option<Arc<dyn ExecSpace>>) -> (Dycore, AtmState) {
    let grid = Arc::new(GeodesicGrid::new(4));
    let mut dycore = Dycore::new(
        Arc::clone(&grid),
        DycoreConfig::for_spacing_km(grid.mean_spacing_km()),
    );
    if let Some(space) = space {
        dycore = dycore.on(Arc::clone(space));
    }
    (dycore, AtmState::isothermal(grid, 5, 288.0))
}

/// Allocations, on any thread, of each of two calls of `step` after a
/// warm-up call.
fn allocs_after_warm_up(mut step: impl FnMut()) -> [usize; 2] {
    step();
    [(); 2].map(|()| {
        ALLOCS.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        step();
        COUNTING.store(false, Ordering::Relaxed);
        ALLOCS.load(Ordering::Relaxed)
    })
}

/// Model steps; the warm-up sizes the coupler's column and wind buffers.
/// Before the workspaces this read 56 798 (16 substeps × 27 + 2562 columns ×
/// 22 + 2).
fn model_step_allocs(space: Option<Arc<dyn ExecSpace>>) -> [usize; 2] {
    let (dycore, mut state) = g4_dycore(&space);
    let forcing = SurfaceForcing::uniform(state.ncells(), 290.0, 0.4, 1.0);
    let mut pdc =
        PhysicsDynamicsCoupler::new(PhysicsDriver::Conventional(ConventionalSuite::default()));
    if let Some(space) = space {
        pdc = pdc.on(space);
    }
    allocs_after_warm_up(|| {
        dycore.step_model_dynamics(&mut state);
        pdc.apply(&mut state, &forcing, dycore.config.dt_model);
    })
}

/// `step_dyn` into a mass-flux accumulator, the path `step_model_dynamics`
/// leaves out.
fn dyn_substep_allocs(space: Option<Arc<dyn ExecSpace>>) -> [usize; 2] {
    let (dycore, mut state) = g4_dycore(&space);
    let mut mass_flux = vec![0.0; state.nlev * state.nedges()];
    allocs_after_warm_up(|| dycore.step_dyn(&mut state, dycore.config.dt_dyn, &mut mass_flux))
}
