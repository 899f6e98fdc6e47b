//! The repo benchmark: three coupled-model workloads and one serving
//! workload, four end-to-end metrics the driver bounds, and per-layer
//! probes that reconcile with them. See `README.md` for the glossary, the
//! layer-to-end-to-end table and how to run it.

pub mod alloc;
pub mod catalog;
pub mod cli;
pub mod layers;
pub mod pace;
pub mod probes;
pub mod report;
pub mod run;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Cores available to this process; recorded in every result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
