//! Per-tile kernel profiling.
//!
//! AP3ESM uses Kokkos' "finer-grained tile profiling for multi-dimensional
//! parallel iterations" (§5.3) to find imbalanced tiles (e.g. ocean panels
//! that are mostly land). [`TileProfiler`] collects per-tile wall time and
//! work counts; [`KernelProfile`] summarises them.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Accumulates per-tile statistics for one kernel launch. Thread-safe;
/// cheap enough to keep on in production runs.
pub struct TileProfiler {
    name: &'static str,
    tiles: AtomicUsize,
    work_items: AtomicUsize,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
    min_nanos: AtomicU64,
}

impl TileProfiler {
    pub fn new(name: &'static str) -> Self {
        TileProfiler {
            name,
            tiles: AtomicUsize::new(0),
            work_items: AtomicUsize::new(0),
            total_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
        }
    }

    /// Record one executed tile: its index, item count, and wall time.
    pub fn record(&self, _tile_index: usize, work: usize, elapsed: Duration) {
        let ns = elapsed.as_nanos() as u64;
        self.tiles.fetch_add(1, Ordering::Relaxed);
        self.work_items.fetch_add(work, Ordering::Relaxed);
        self.total_nanos.fetch_add(ns, Ordering::Relaxed);
        self.max_nanos.fetch_max(ns, Ordering::Relaxed);
        self.min_nanos.fetch_min(ns, Ordering::Relaxed);
    }

    /// Snapshot the accumulated statistics.
    pub fn finish(&self) -> KernelProfile {
        let tiles = self.tiles.load(Ordering::Relaxed);
        let min = self.min_nanos.load(Ordering::Relaxed);
        KernelProfile {
            name: self.name,
            tiles,
            work_items: self.work_items.load(Ordering::Relaxed),
            total: Duration::from_nanos(self.total_nanos.load(Ordering::Relaxed)),
            max_tile: Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed)),
            min_tile: Duration::from_nanos(if tiles == 0 { 0 } else { min }),
        }
    }
}

/// Summary of one kernel's tile executions.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    pub name: &'static str,
    /// Number of tiles executed.
    pub tiles: usize,
    /// Total iteration-space items visited.
    pub work_items: usize,
    /// Sum of tile wall times (CPU time across lanes, not wall time).
    pub total: Duration,
    /// Slowest tile.
    pub max_tile: Duration,
    /// Fastest tile.
    pub min_tile: Duration,
}

impl KernelProfile {
    /// Load-imbalance ratio: slowest tile over mean tile time (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        if self.tiles == 0 || self.total.as_nanos() == 0 {
            return 1.0;
        }
        let mean = self.total.as_secs_f64() / self.tiles as f64;
        if mean == 0.0 {
            1.0
        } else {
            self.max_tile.as_secs_f64() / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_accumulates() {
        let p = TileProfiler::new("k");
        p.record(0, 10, Duration::from_nanos(100));
        p.record(1, 20, Duration::from_nanos(300));
        let s = p.finish();
        assert_eq!(s.tiles, 2);
        assert_eq!(s.work_items, 30);
        assert_eq!(s.total, Duration::from_nanos(400));
        assert_eq!(s.max_tile, Duration::from_nanos(300));
        assert_eq!(s.min_tile, Duration::from_nanos(100));
    }

    #[test]
    fn imbalance_of_uniform_tiles_is_one() {
        let p = TileProfiler::new("k");
        for i in 0..4 {
            p.record(i, 1, Duration::from_nanos(200));
        }
        let s = p.finish();
        assert!((s.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_detects_hot_tile() {
        let p = TileProfiler::new("k");
        p.record(0, 1, Duration::from_nanos(100));
        p.record(1, 1, Duration::from_nanos(100));
        p.record(2, 1, Duration::from_nanos(100));
        p.record(3, 1, Duration::from_nanos(700));
        let s = p.finish();
        assert!(s.imbalance() > 2.0, "imbalance = {}", s.imbalance());
    }

    #[test]
    fn empty_profile_is_sane() {
        let s = TileProfiler::new("k").finish();
        assert_eq!(s.tiles, 0);
        assert_eq!(s.min_tile, Duration::ZERO);
        assert_eq!(s.imbalance(), 1.0);
    }
}
