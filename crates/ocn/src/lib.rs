//! # AP3ESM ocean component (`ap3esm-ocn`)
//!
//! The LICOM/LICOMK++ analogue: a free-surface primitive-equation ocean on
//! the structured tripolar grid (`ap3esm-grid::tripolar`), with
//!
//! * LICOM's split time stepping — barotropic (2 s at 1 km), baroclinic
//!   (20 s) and tracer (20 s) rates (Table 1), here with the same 1:10
//!   ratio structure at CFL-scaled absolute steps,
//! * a Canuto-style Richardson-number vertical mixing scheme solved
//!   implicitly (tridiagonal), the scheme the paper first applied 3-D point
//!   removal to,
//! * the §5.2.2 **3-D non-ocean point exclusion** path: kernels iterate a
//!   packed active-column list instead of the dense (i, j) box, with
//!   bitwise-identical results,
//! * MPI-style domain decomposition over `ap3esm-comm` ranks with halo
//!   exchange (one-cell rims, zonally periodic).
//!
//! Simplifications vs LICOM (documented in DESIGN.md): A-grid collocation,
//! linear equation of state, closed tripolar seam, and upwind tracer
//! advection — the communication pattern, masking machinery, and time-split
//! structure (what the paper's optimisations act on) are preserved.

#![forbid(unsafe_code)]

mod barotropic;
pub mod eos;
pub mod mixing;
pub mod model;
pub mod spectra;
pub mod state;
mod sweep;

pub use model::{OcnConfig, OcnModel};
pub use state::OcnState;

/// Gravitational acceleration (m/s²), ocean-side.
pub const G: f64 = 9.80665;
/// Reference density (kg/m³).
pub const RHO0: f64 = 1025.0;
