//! GPTL-analogue timers and the `getTiming` SYPD computation (§6.2):
//! "Wall-clock time measurements are obtained using timers … with the
//! maximum value across all MPI ranks recorded to account for potential
//! load imbalance."
//!
//! [`Timers`] is a thin facade over the `ap3esm-obs` span profiler: every
//! `start`/`stop` section also opens/closes a span on the attached [`Obs`]
//! instance, so driver-level sections and the leaf-crate instrumentation
//! (dycore substeps, rearranger, I/O) land in one call tree. Re-entrant
//! `start` of the same name nests like a stack — recursion is recorded,
//! never aborted.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ap3esm_comm::collectives::allreduce_max;
use ap3esm_comm::{CommError, Rank};
use ap3esm_obs::{Obs, SpanGuard};

/// Named accumulating timers (one instance per rank).
pub struct Timers {
    obs: Arc<Obs>,
    /// Open sections, innermost last.
    open: Vec<(String, Instant, SpanGuard)>,
    accum: BTreeMap<String, f64>,
    counts: BTreeMap<String, u64>,
}

impl Default for Timers {
    fn default() -> Self {
        Timers::new()
    }
}

impl std::fmt::Debug for Timers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timers")
            .field("open", &self.open.iter().map(|(n, _, _)| n).collect::<Vec<_>>())
            .field("accum", &self.accum)
            .field("counts", &self.counts)
            .finish()
    }
}

impl Timers {
    /// Timers over a private observability instance.
    pub fn new() -> Self {
        Timers::attached(Arc::new(Obs::new()))
    }

    /// Timers feeding spans into an existing instance (typically the one
    /// the driver installed with [`ap3esm_obs::install`], so timer sections
    /// parent the leaf-crate spans).
    pub fn attached(obs: Arc<Obs>) -> Self {
        Timers {
            obs,
            open: Vec::new(),
            accum: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// The observability instance this facade feeds.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Open the section `name`. Starting an already-running section nests
    /// (stack semantics); each `stop` closes the innermost open instance.
    pub fn start(&mut self, name: &str) {
        let guard = self.obs.profiler.enter(name);
        self.open.push((name.to_string(), Instant::now(), guard));
    }

    pub fn stop(&mut self, name: &str) {
        let pos = self
            .open
            .iter()
            .rposition(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("timer {name:?} not running"));
        let (name, t0, guard) = self.open.remove(pos);
        drop(guard); // closes the span now, not at scope end
        *self.accum.entry(name.clone()).or_insert(0.0) += t0.elapsed().as_secs_f64();
        *self.counts.entry(name).or_insert(0) += 1;
    }

    /// Time a closure under `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.start(name);
        let r = f();
        self.stop(name);
        r
    }

    /// Accumulated seconds for a section (0 if never stopped).
    pub fn seconds(&self, name: &str) -> f64 {
        self.accum.get(name).copied().unwrap_or(0.0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// All section names in sorted order.
    pub fn sections(&self) -> Vec<&str> {
        self.accum.keys().map(|s| s.as_str()).collect()
    }

    /// The paper's measurement rule: the maximum of this section's time
    /// across all ranks (load imbalance shows up here).
    pub fn max_across_ranks(&self, rank: &Rank, name: &str) -> Result<f64, CommError> {
        allreduce_max(rank, 0x71_3000, self.seconds(name))
    }
}

/// The `getTiming` computation: SYPD from simulated seconds and wall
/// seconds ("dividing the length of the simulated time interval by the
/// wall-clock time required for execution").
pub fn get_timing(simulated_seconds: f64, wall_seconds: f64) -> f64 {
    assert!(wall_seconds > 0.0 && simulated_seconds >= 0.0);
    let simulated_years = simulated_seconds / (365.0 * 86_400.0);
    let wall_days = wall_seconds / 86_400.0;
    simulated_years / wall_days
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_accumulates_and_counts() {
        let mut t = Timers::new();
        for _ in 0..3 {
            t.time("atm_run", || std::thread::sleep(std::time::Duration::from_millis(2)));
        }
        assert_eq!(t.count("atm_run"), 3);
        assert!(t.seconds("atm_run") >= 0.006);
        assert_eq!(t.sections(), vec!["atm_run"]);
        assert_eq!(t.seconds("never"), 0.0);
    }

    #[test]
    fn reentrant_start_nests_instead_of_panicking() {
        let mut t = Timers::new();
        t.start("x");
        t.start("x"); // the pre-obs implementation aborted here
        t.stop("x");
        t.stop("x");
        assert_eq!(t.count("x"), 2);
        // The profiler recorded the recursion as a nested span.
        let paths: Vec<String> = t.obs().profiler.snapshot().into_iter().map(|s| s.path).collect();
        assert_eq!(paths, vec!["x", "x/x"]);
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn stopping_a_never_started_section_is_loud() {
        let mut t = Timers::new();
        t.stop("ghost");
    }

    #[test]
    fn sections_mirror_into_the_span_tree() {
        let mut t = Timers::new();
        t.start("outer");
        t.time("inner", || {});
        t.stop("outer");
        let snap = t.obs().profiler.snapshot();
        let paths: Vec<&str> = snap.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer/inner"]);
        assert_eq!(snap[1].count, 1);
    }

    #[test]
    fn get_timing_matches_paper_arithmetic() {
        // 1 simulated year in 1 wall day = 1 SYPD.
        assert!((get_timing(365.0 * 86_400.0, 86_400.0) - 1.0).abs() < 1e-12);
        // The coupled 1v1 headline: 0.54 SYPD means one simulated day takes
        // 86400/(365·0.54) ≈ 438 wall seconds.
        let wall_per_simday = 86_400.0 / (365.0 * 0.54);
        assert!((get_timing(86_400.0, wall_per_simday) - 0.54).abs() < 1e-9);
    }

    #[test]
    fn max_across_ranks_takes_slowest() {
        use ap3esm_comm::World;
        let world = World::new(3);
        let out = world.run(|rank| {
            let mut t = Timers::new();
            t.start("work");
            std::thread::sleep(std::time::Duration::from_millis(
                2 + 4 * rank.id() as u64,
            ));
            t.stop("work");
            t.max_across_ranks(rank, "work").unwrap()
        });
        // All ranks agree on the maximum, which is at least rank 2's sleep.
        for v in &out {
            assert!((v - out[0]).abs() < 1e-12);
            assert!(*v >= 0.010);
        }
    }
}
