//! Allocation regression: after one warm-up at the largest batch,
//! `predict_batch_into` allocates nothing at any batch size up to it, and
//! one workspace serves both modules. Its own test binary, because the
//! counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use ap3esm_ai::modules::{ColumnState, ColumnTendency, Normalizer, SurfaceRadiation};
use ap3esm_ai::net::{Workspace, TENDENCY_IN_CH, TENDENCY_OUT_CH};
use ap3esm_ai::{RadiationMlp, RadiationModule, TendencyCnn, TendencyModule};

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

/// Allocations made, process-wide, while `f` runs.
fn allocs(f: impl FnOnce()) -> usize {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

/// The serving shape: 30 levels, width 32, `max_batch` 16.
#[test]
fn warm_predict_batch_into_allocates_nothing() {
    const NLEV: usize = 30;
    const MAX_BATCH: usize = 16;
    let ident = |ch: usize| Normalizer {
        mean: vec![0.0; ch],
        std: vec![1.0; ch],
    };
    let tendency = TendencyModule::new(
        TendencyCnn::with_width(NLEV, 32, 7),
        ident(TENDENCY_IN_CH),
        ident(TENDENCY_OUT_CH),
    );
    let radiation = RadiationModule::untrained(NLEV, 32, 8);
    let columns: Vec<ColumnState> = (0..MAX_BATCH)
        .map(|i| ColumnState {
            u: (0..NLEV).map(|l| (i + l) as f64 * 0.3).collect(),
            v: vec![-1.0; NLEV],
            t: (0..NLEV).map(|l| 290.0 - l as f64).collect(),
            q: vec![0.004; NLEV],
            p: (0..NLEV).map(|l| 1.0e5 - 3.0e3 * l as f64).collect(),
        })
        .collect();
    let rad_inputs: Vec<Vec<f32>> = columns
        .iter()
        .map(|c| RadiationModule::build_input(c, 288.0, 0.5))
        .collect();
    assert_eq!(rad_inputs[0].len(), RadiationMlp::input_dim(NLEV));

    let mut ws = Workspace::new();
    let mut out = vec![ColumnTendency::zeros(NLEV); MAX_BATCH];
    let mut fluxes = vec![SurfaceRadiation { gsw: 0.0, glw: 0.0 }; MAX_BATCH];
    tendency.predict_batch_into(&columns, &mut ws, &mut out);
    radiation.predict_batch_into(&rad_inputs, &mut ws, &mut fluxes);

    for b in 1..=MAX_BATCH {
        let n = allocs(|| tendency.predict_batch_into(&columns[..b], &mut ws, &mut out[..b]));
        assert_eq!(n, 0, "tendency, batch {b}");
        assert_eq!(
            out[..b],
            tendency.predict_batch(&columns[..b])[..],
            "batch {b}"
        );
        let n =
            allocs(|| radiation.predict_batch_into(&rad_inputs[..b], &mut ws, &mut fluxes[..b]));
        assert_eq!(n, 0, "radiation, batch {b}");
        assert_eq!(
            fluxes[..b],
            radiation.predict_batch(&rad_inputs[..b])[..],
            "batch {b}"
        );
    }
}
