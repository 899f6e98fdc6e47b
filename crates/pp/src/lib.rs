//! # AP3ESM performance-portability layer (`ap3esm-pp`)
//!
//! A Kokkos-style performance-portability abstraction, reproducing the role
//! Kokkos plays in LICOMK++ and the AP3ESM ocean component (SC '25 paper,
//! §5.3): one kernel source, multiple execution backends.
//!
//! The paper targets three backends — host CPU, Sunway CPE clusters (via a
//! hash-based function-registration workaround for the TMP-constrained Sunway
//! compiler), and HIP GPUs on ORISE. Here we provide:
//!
//! * [`Serial`] — reference single-thread backend (the paper's "MPE-only"
//!   execution path),
//! * [`Threads`] — a persistent lane team (stands in for the
//!   host-parallel/GPU paths): fixed ranges per lane for model loops
//!   ([`ExecSpace::for_chunks`], [`for_chunks_mut`]), dynamic grabbing for
//!   task pools (`for_each`),
//! * [`SimulatedCpe`] — an emulation of one Sunway core group: 64 compute
//!   processing elements with a small local device memory (LDM), which forces
//!   kernels through the same tiling discipline the real CPE code uses,
//! * [`View`]/[`View3`] multi-dimensional arrays with explicit layouts,
//! * [`MDRangePolicy`] tiled multi-dimensional iteration with per-tile
//!   profiling (the paper's "finer-grained tile profiling"),
//! * a [hash-based kernel registry](registry) mirroring the paper's
//!   registration-and-callback mechanism.

pub mod exec;
pub mod hybrid;
pub mod mdrange;
pub mod profile;
pub mod registry;
pub mod shared;
pub mod view;

pub use exec::{ExecSpace, ExecSpaceExt, Serial, SimulatedCpe, Threads};
pub use hybrid::Hybrid;
pub use mdrange::MDRangePolicy;
pub use profile::{KernelProfile, TileProfiler};
pub use registry::{KernelArgs, KernelRegistry};
pub use shared::{for_chunks_mut, PerLane, SharedSlice};
pub use view::{Layout, View, View3};

/// Convenience: run `f(i)` for `i in 0..n` on the given execution space.
pub fn parallel_for<E: ExecSpace + ?Sized>(space: &E, n: usize, f: impl Fn(usize) + Sync) {
    space.for_each(n, &f);
}

/// Convenience: reduce `f(i)` for `i in 0..n` with `combine`, starting from
/// `identity`, on the given execution space. The result is independent of the
/// backend for commutative/associative `combine` (floating-point sums may
/// differ by rounding between backends; use [`parallel_reduce_det`] for a
/// deterministic chunked tree order).
pub fn parallel_reduce<E, T>(
    space: &E,
    n: usize,
    identity: T,
    f: impl Fn(usize) -> T + Sync,
    combine: impl Fn(T, T) -> T + Sync,
) -> T
where
    E: ExecSpace + ?Sized,
    T: Send + Sync + Clone,
{
    space.reduce(n, identity, &f, &combine)
}

/// Deterministic parallel reduction: results are bitwise identical across
/// backends because partial sums are always combined in fixed chunk order.
/// This is what AP3ESM's bit-for-bit coupled-model validation (§5.1) relies
/// on when comparing MPE and CPE execution paths.
pub fn parallel_reduce_det<E, T>(
    space: &E,
    n: usize,
    identity: T,
    f: impl Fn(usize) -> T + Sync,
    combine: impl Fn(T, T) -> T + Sync,
) -> T
where
    E: ExecSpace + ?Sized,
    T: Send + Sync + Clone,
{
    const CHUNK: usize = 1024;
    let nchunks = n.div_ceil(CHUNK);
    let mut partials: Vec<Option<T>> = (0..nchunks).map(|_| None).collect();
    {
        let slots: Vec<parking_lot::Mutex<&mut Option<T>>> =
            partials.iter_mut().map(parking_lot::Mutex::new).collect();
        space.for_each(nchunks, &|c| {
            let lo = c * CHUNK;
            let hi = ((c + 1) * CHUNK).min(n);
            let mut acc = identity.clone();
            for i in lo..hi {
                acc = combine(acc, f(i));
            }
            **slots[c].lock() = Some(acc);
        });
    }
    partials
        .into_iter()
        .map(|p| p.expect("chunk computed"))
        .fold(identity, combine)
}

/// Inclusive parallel scan (prefix combine) of `f(i)`; writes results through
/// `out(i, prefix)`. Two-pass chunked algorithm, deterministic.
pub fn parallel_scan<E, T>(
    space: &E,
    n: usize,
    identity: T,
    f: impl Fn(usize) -> T + Sync,
    combine: impl Fn(T, T) -> T + Sync,
    out: impl Fn(usize, T) + Sync,
) where
    E: ExecSpace + ?Sized,
    T: Send + Sync + Clone,
{
    const CHUNK: usize = 1024;
    let nchunks = n.div_ceil(CHUNK);
    // Pass 1: per-chunk totals.
    let mut totals: Vec<Option<T>> = (0..nchunks).map(|_| None).collect();
    {
        let slots: Vec<parking_lot::Mutex<&mut Option<T>>> =
            totals.iter_mut().map(parking_lot::Mutex::new).collect();
        space.for_each(nchunks, &|c| {
            let lo = c * CHUNK;
            let hi = ((c + 1) * CHUNK).min(n);
            let mut acc = identity.clone();
            for i in lo..hi {
                acc = combine(acc, f(i));
            }
            **slots[c].lock() = Some(acc);
        });
    }
    // Exclusive prefix over chunk totals (serial; nchunks is small).
    let mut offsets = Vec::with_capacity(nchunks);
    let mut run = identity.clone();
    for t in &totals {
        offsets.push(run.clone());
        run = combine(run.clone(), t.clone().expect("chunk total"));
    }
    // Pass 2: emit inclusive prefixes.
    space.for_each(nchunks, &|c| {
        let lo = c * CHUNK;
        let hi = ((c + 1) * CHUNK).min(n);
        let mut acc = offsets[c].clone();
        for i in lo..hi {
            acc = combine(acc, f(i));
            out(i, acc.clone());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_matches_serial_prefix_sum() {
        let space = Threads::new(4);
        let n = 5000;
        let out = (0..n).map(|_| parking_lot::Mutex::new(0u64)).collect::<Vec<_>>();
        parallel_scan(
            &space,
            n,
            0u64,
            |i| i as u64,
            |a, b| a + b,
            |i, v| *out[i].lock() = v,
        );
        let mut acc = 0u64;
        for (i, slot) in out.iter().enumerate() {
            acc += i as u64;
            assert_eq!(*slot.lock(), acc, "prefix mismatch at {i}");
        }
    }

    #[test]
    fn deterministic_reduce_is_backend_invariant() {
        let n = 10_000;
        let f = |i: usize| ((i as f64) * 0.1).sin();
        let serial = parallel_reduce_det(&Serial, n, 0.0, f, |a, b| a + b);
        let threads = parallel_reduce_det(&Threads::new(7), n, 0.0, f, |a, b| a + b);
        let cpe = parallel_reduce_det(&SimulatedCpe::default(), n, 0.0, f, |a, b| a + b);
        assert_eq!(serial.to_bits(), threads.to_bits());
        assert_eq!(serial.to_bits(), cpe.to_bits());
    }
}
