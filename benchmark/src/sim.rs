//! End-to-end measurement of the coupled-model workloads. Runs go through
//! `ap3esm::prelude` only (`World`, `CoupledConfig`, `CoupledOptions`,
//! `run_coupled`), plus `esm::coupled::Perturbation` to seed the θ noise
//! and, once a run has ended, `cpl::Rearranger::wire_tags_for` to read the
//! exchange's share of the world's message counters.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ap3esm::comm::Rank;
use ap3esm::cpl::Rearranger;
use ap3esm::prelude::{run_coupled, CoupledOptions, CoupledStats, World};

use crate::pace::{Kernel, Pace, Timing};
use crate::stats::median;
use crate::workloads::{SimWorkload, REFERENCE_TOLERANCE_K};

/// Simulated years per wall day, from simulated days per wall second.
pub const SYPD_PER_DAYS_PER_S: f64 = 86_400.0 / 365.0;

/// What one `world.run(run_coupled)` produced.
pub struct Slice {
    /// Per rank, in rank order.
    pub stats: Vec<CoupledStats>,
    /// Per rank: the reference kernel's time on that rank's thread right
    /// before and right after its `run_coupled`, and that call's wall.
    pub paced: Vec<(f64, f64, f64)>,
    /// Messages and bytes the world carried.
    pub msgs: u64,
    pub bytes: u64,
    /// Of those, the coupling exchange's (rearranger tags 21 and 22).
    pub exchange: (u64, u64),
}

impl Slice {
    /// The diagnostic series of rank 0, bit for bit.
    pub fn series_bits(&self) -> Vec<u64> {
        let s = &self.stats[0];
        [&s.sst_series, &s.theta_series, &s.ke_series, &s.ice_series]
            .into_iter()
            .flat_map(|series| series.iter().map(|v| v.to_bits()))
            .collect()
    }

    /// Rank 0's wall, scaled by the mean of the ranks' kernel times: in the
    /// two-domain layout the ranks take turns, each on a core of its own.
    pub fn timing(&self) -> Timing {
        let n = self.paced.len() as f64;
        let before = self.paced.iter().map(|p| p.0).sum::<f64>() / n;
        let after = self.paced.iter().map(|p| p.2).sum::<f64>() / n;
        Timing::new(self.paced[0].1, before, after)
    }

    /// Final global-mean SST (°C) and mass-weighted mean θ (K) of rank 0.
    pub fn final_means(&self) -> (f64, f64) {
        let s = &self.stats[0];
        (
            s.sst_series.last().copied().unwrap_or(f64::NAN),
            s.theta_series.last().copied().unwrap_or(f64::NAN),
        )
    }

    /// Seconds rank `rank` spent in a named driver section. On the ocean
    /// rank of the two-domain layout `ocn_run` includes its wait for the
    /// forcing, as `cpl_rearrange` on rank 0 includes the wait for the ocean.
    pub fn section_s(&self, rank: usize, name: &str) -> f64 {
        self.stats
            .get(rank)
            .into_iter()
            .flat_map(|s| &s.per_section_seconds)
            .filter(|(n, _)| n == name)
            .map(|(_, secs)| secs)
            .sum()
    }
}

/// The reference kernel's time on this rank's thread, one rank after the
/// other: the ranks of these layouts take turns in the run too, and two
/// kernels at once would each read a tenth slower. Ends with all ranks
/// through a barrier.
pub fn kernel_in_turn(rank: &Rank, kernel: &Kernel) -> f64 {
    let mut mine = 0.0;
    for turn in 0..rank.size() {
        if turn == rank.id() {
            mine = kernel.time();
        }
        rank.barrier();
    }
    mine
}

/// One coupled run. Every rank times the reference kernel, runs and times
/// `run_coupled`, and times the kernel again, so the machine's speed is
/// sampled on the threads that do the work. `Err` carries a panic message.
pub fn run_slice(w: &SimWorkload, opts: &CoupledOptions, kernel: &Kernel) -> Result<Slice, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let world = World::new(w.config.world_size());
        let per_rank = world.run(|rank| {
            let before = kernel_in_turn(rank, kernel);
            let t = Instant::now();
            let stats = run_coupled(rank, &w.config, opts);
            let wall = t.elapsed().as_secs_f64();
            (stats, (before, wall, kernel_in_turn(rank, kernel)))
        });
        let (stats, paced) = per_rank.into_iter().unzip();
        let exchange = [21, 22]
            .into_iter()
            .flat_map(Rearranger::wire_tags_for)
            .map(|tag| world.stats().tag_traffic(tag))
            .fold((0, 0), |acc, (m, b)| (acc.0 + m, acc.1 + b));
        Slice {
            stats,
            paced,
            msgs: world.stats().total_messages(),
            bytes: world.stats().total_bytes(),
            exchange,
        }
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

/// Why a slice's output is wrong, if it is. `first` is the series of the
/// first slice of the run: every later slice must repeat it bit for bit.
pub fn check_slice(w: &SimWorkload, slice: &Slice, first: Option<&[u64]>) -> Result<(), String> {
    let s = &slice.stats[0];
    if let Some(f) = slice.stats.iter().find_map(|s| s.failure.as_ref()) {
        return Err(format!("structured failure: {f}"));
    }
    if s.sst_series.is_empty() || s.theta_series.is_empty() {
        return Err("empty diagnostic series".into());
    }
    let bits = slice.series_bits();
    if bits.iter().any(|b| !f64::from_bits(*b).is_finite()) {
        return Err("non-finite value in the diagnostic series".into());
    }
    if first.is_some_and(|f| f != bits) {
        return Err("series differ bitwise from the first slice".into());
    }
    if let Some((want_sst, want_theta)) = w.reference {
        let (sst, theta) = slice.final_means();
        let off = (sst - want_sst).abs().max((theta - want_theta).abs());
        if off.is_nan() || off > REFERENCE_TOLERANCE_K {
            return Err(format!(
                "final means (SST {sst:.4}, theta {theta:.4}) are off the reference \
                 ({want_sst:.4}, {want_theta:.4}) by more than {REFERENCE_TOLERANCE_K} K"
            ));
        }
    }
    Ok(())
}

/// An untraced run's measurements.
pub struct SimRun {
    /// `days = 0` runs.
    pub setup: Vec<Timing>,
    /// Timed slices (the warm-up slice is not among them).
    pub slices: Vec<Timing>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The last good slice.
    pub last: Option<Slice>,
}

impl SimRun {
    pub fn setup_s(&self) -> f64 {
        median(&self.setup.iter().map(|t| t.scaled_s).collect::<Vec<_>>())
    }

    /// Scaled seconds per slice net of set-up, so work moved into set-up
    /// shows in `setup_s` and not as a gain here.
    pub fn net_slice_s(&self) -> f64 {
        median(&self.slices.iter().map(|t| t.scaled_s).collect::<Vec<_>>()) - self.setup_s()
    }

    pub fn raw_slice_s(&self) -> f64 {
        median(&self.slices.iter().map(|t| t.raw_s).collect::<Vec<_>>())
    }

    /// Simulated days per second.
    pub fn days_per_s(&self, w: &SimWorkload) -> f64 {
        w.days / self.net_slice_s()
    }
}

const SETUP_REPEATS: usize = 7;
const MAX_SLICES: usize = 64;

/// Set-up repeats (at least two, the rest while under a tenth of
/// `budget_s`), one discarded warm-up slice, then timed slices until
/// `budget_s` is used (at least two). Every slice, the warm-up too, is an
/// operation whose output is checked.
pub fn measure(w: &SimWorkload, budget_s: f64, pace: &mut Pace) -> SimRun {
    let started = Instant::now();
    let mut run = SimRun {
        setup: Vec::new(),
        slices: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        last: None,
    };
    let zero = w.options(0.0);
    for i in 0..SETUP_REPEATS {
        if i >= 2 && started.elapsed().as_secs_f64() > 0.1 * budget_s {
            break;
        }
        match run_slice(w, &zero, pace.setup_kernel()) {
            Ok(slice) => run.setup.push(slice.timing()),
            Err(e) => run.failures.push(format!("set-up run: {e}")),
        }
    }
    let opts = w.options(w.days);
    let mut first: Option<Vec<u64>> = None;
    let mut slowest = 0.0f64;
    for i in 0..=MAX_SLICES {
        let left = budget_s - started.elapsed().as_secs_f64();
        if i > 2 && left < slowest {
            break;
        }
        let t = Instant::now();
        let res = run_slice(w, &opts, &pace.kernel);
        slowest = slowest.max(t.elapsed().as_secs_f64() * 1.05);
        run.attempted += 1;
        let checked =
            res.and_then(|slice| check_slice(w, &slice, first.as_deref()).map(|()| slice));
        match checked {
            Ok(slice) => {
                let timing = slice.timing();
                pace.note(&[slice.paced[0].0, slice.paced[0].2]);
                first.get_or_insert_with(|| slice.series_bits());
                if i > 0 {
                    run.slices.push(timing);
                }
                run.last = Some(slice);
            }
            Err(e) => run.failures.push(format!("slice {i}: {e}")),
        }
    }
    run
}
