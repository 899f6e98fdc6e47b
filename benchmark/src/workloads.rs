//! The four workloads: names, inputs, and why each one exists.

use std::time::Duration;

use ap3esm::esm::coupled::Perturbation;
use ap3esm::prelude::{CoupledConfig, CoupledOptions, ServeConfig};

use crate::pace::Mix;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 20250704;

pub const ATM_HEAVY: &str = "atm-heavy";
pub const OCN_HEAVY: &str = "ocn-heavy";
pub const BALANCED_2DOM: &str = "balanced-2dom";
pub const SERVE_BURST: &str = "serve-burst";

/// Every workload, in the order `--all` runs them, with the one-line reason
/// `BENCHMARK.json` records.
pub const ALL: [(&str, &str); 4] = [
    (
        ATM_HEAVY,
        "1 rank, atm G4x5 + small ocean: dycore and physics do ~90% of the work; the plain single-threaded baseline",
    ),
    (
        OCN_HEAVY,
        "1 rank, atm G3x5 + ocean 72x46x10: ocean steps do ~89%, so an ocean kernel change shows here and must not move atm-heavy",
    ),
    (
        BALANCED_2DOM,
        "2 ranks (CPL+ATM+ICE+LND | OCN), atm ~ ocn: real messages and blocking waits; the only workload where overlap can show",
    ),
    (
        SERVE_BURST,
        "open-loop bursts against the batched AI-physics service, under capacity (3000 req/s) and over it (8000): serve+ai only, no model code runs",
    ),
];

/// The reference kernel that slows as the workload does when the machine
/// is slow; the table in `pace.rs` has the measurements.
pub fn mix_of(workload: &str) -> Mix {
    match workload {
        ATM_HEAVY | SERVE_BURST => Mix::Dense,
        _ => Mix::Mixed,
    }
}

/// One coupled-model workload.
#[derive(Clone)]
pub struct SimWorkload {
    pub name: &'static str,
    pub config: CoupledConfig,
    /// Simulated days per timed slice.
    pub days: f64,
    pub seed: u64,
    /// Final global-mean SST (°C) and mass-weighted mean θ (K) of one slice,
    /// checked to [`REFERENCE_TOLERANCE_K`]; `None` for `--quick` slices,
    /// which end elsewhere. The seed only moves the θ noise (0.01 K peak to
    /// peak), which shifts these means by 1e-4 K at most; the continents
    /// stay where `CoupledConfig::test_tiny` puts them, because another
    /// mask moves the mean SST by up to 3 K and the ocean's cost with it.
    pub reference: Option<(f64, f64)>,
}

pub const REFERENCE_TOLERANCE_K: f64 = 0.05;

impl SimWorkload {
    pub fn options(&self, days: f64) -> CoupledOptions {
        CoupledOptions {
            days,
            perturb: Some(Perturbation {
                seed: self.seed,
                amplitude: 0.01,
            }),
            ..Default::default()
        }
    }

    /// The same problem in the sequential single-rank layout.
    pub fn sequential_twin(&self) -> SimWorkload {
        let mut twin = self.clone();
        twin.config.single_domain = true;
        twin
    }

    /// Threads that are runnable at once: the two-domain layout alternates
    /// between its ranks but both can be runnable around each exchange.
    pub fn runnable_threads(&self) -> usize {
        self.config.world_size()
    }
}

pub fn sim_workload(name: &str, seed: u64, quick: bool) -> Option<SimWorkload> {
    let mut config = CoupledConfig::test_tiny();
    (config.ocn_px, config.ocn_py) = (1, 1);
    let big_ocean = |c: &mut CoupledConfig| (c.ocn_nlon, c.ocn_nlat, c.ocn_nlev) = (72, 46, 10);
    let reference = match name {
        ATM_HEAVY => {
            config.single_domain = true;
            config.atm_glevel = 4;
            (14.5981, 377.6681)
        }
        OCN_HEAVY => {
            config.single_domain = true;
            big_ocean(&mut config);
            (14.5641, 377.6701)
        }
        BALANCED_2DOM => {
            config.atm_glevel = 4;
            big_ocean(&mut config);
            (14.5560, 377.6686)
        }
        _ => return None,
    };
    Some(SimWorkload {
        name: ALL.iter().find(|(n, _)| *n == name)?.0,
        config,
        days: if quick { 0.25 } else { 1.0 },
        seed,
        reference: (!quick).then_some(reference),
    })
}

/// The serving workload's fixed shape.
pub struct ServeWorkload {
    pub config: ServeConfig,
    pub nlev: usize,
    pub width: usize,
    pub seed: u64,
    /// Columns due at the same instant. Three full batches: with four, the
    /// median request sits exactly between the second and third forward and
    /// p50 becomes the extreme of one of them.
    pub burst: usize,
    /// Offered rates, req/s: two well under capacity (about 6000 req/s
    /// here, a third less when the machine is slow), one near it, one over.
    pub rungs: [u32; 4],
    /// The first this many rungs must answer every request: their requests
    /// are the workload's operations. The rung near capacity may shed when
    /// the machine slows for a moment, so it is reported, not checked.
    pub checked_rungs: usize,
    /// Seconds a rung of the per-layer pass's ladder lasts.
    pub rung_s: f64,
    /// Seconds one window of the end-to-end run lasts. That run holds only
    /// the two rates its metrics come from, [`LATENCY_RUNG`] and the top
    /// one, in turns. Short windows, because the machine changes speed
    /// within a second and the reference kernel is read between windows:
    /// at 0.2 s a window's scaled capacity scatters as much as at 0.8 s
    /// (a tenth either way) and a run has four times as many to take the
    /// median over. 600 requests and 1400 completions still fill a window.
    pub window_s: f64,
}

/// The rung whose p50 is the workload's `latency_ms`: half of capacity. On
/// the lowest rung the worker sleeps 25 ms between bursts and the latency
/// mostly measures how the virtual machine wakes an idle core.
pub const LATENCY_RUNG: usize = 1;

pub fn serve_workload(seed: u64, quick: bool) -> ServeWorkload {
    ServeWorkload {
        config: ServeConfig {
            workers: 1,
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            // Four times the default: the sandbox stalls for a tenth of a
            // second now and then, and on the checked rungs that should
            // delay requests (it shows in p95), not shed them.
            queue_capacity: 1024,
            ..Default::default()
        },
        nlev: 30,
        width: 32,
        seed,
        burst: 48,
        rungs: crate::catalog::RUNGS,
        checked_rungs: 2,
        rung_s: if quick { 0.25 } else { 0.8 },
        window_s: if quick { 0.1 } else { 0.2 },
    }
}
