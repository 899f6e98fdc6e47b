//! # AP3ESM performance-portability layer (`ap3esm-pp`)
//!
//! The role Kokkos plays in LICOMK++ and the AP3ESM ocean component (SC '25
//! paper, §5.3): one kernel source, several execution backends. The whole
//! contract is this: *a kernel is a closure over an index range; portable
//! means the same bits on every space, and the goldens are the proof*
//! (`crates/atm/tests/golden.rs`, `tests/lanes.rs` here, DESIGN.md §20).
//!
//! * [`ExecSpace`] — the backend trait, held as `Arc<dyn ExecSpace>` by the
//!   components: [`ExecSpace::for_chunks`] cuts `0..n` into disjoint ranges
//!   for model loops, [`ExecSpace::for_each`] hands out single indices for
//!   task pools,
//! * [`Serial`] — reference single-thread backend (the paper's "MPE-only"
//!   execution path),
//! * [`Threads`] — a persistent lane team (stands in for the
//!   host-parallel/GPU paths): fixed ranges per lane for `for_chunks`,
//!   dynamic grabbing for `for_each`,
//! * [`SimulatedCpe`] — an emulation of one Sunway core group: 64 compute
//!   processing elements with a small local device memory (LDM), which cuts
//!   a range into LDM tiles — differently from any lane count,
//! * [`for_chunks_mut`], [`for_level_chunks_mut`], [`PerLane`],
//!   [`SharedSlice`] — how a range kernel gets its own part of the outputs
//!   and its own scratch ([`shared`]),
//! * [`Isa`], [`Kernel`] — one kernel body compiled portable, for AVX2 and
//!   for AVX-512F, the widest the CPU runs picked at run time ([`isa`]).
//!
//! Not reproduced, and why: the paper's hash-based kernel registration (a
//! workaround for a Sunway C++ compiler that cannot instantiate templates on
//! CPEs — a `dyn ExecSpace` closure has no such problem) and its hybrid
//! host–device split of one loop (there is no second device here to split
//! with). Neither had a caller; the model's kernels are written against the
//! four methods of [`ExecSpace`], the safe forms of [`shared`] and
//! [`Isa::run`], and nothing else.

pub mod exec;
pub mod isa;
pub mod shared;

pub use exec::{ExecSpace, Serial, SimulatedCpe, Threads};
pub use isa::{Isa, Kernel};
pub use shared::{for_chunks_mut, for_level_chunks_mut, Levels, PerLane, SharedSlice};
