//! # AP3ESM atmosphere component (`ap3esm-atm`)
//!
//! The GRIST analogue: a hydrostatic multi-layer dynamical core on the
//! icosahedral Voronoi C-grid (`ap3esm-grid`), with GRIST's split time
//! stepping — fast dycore substeps, slower tracer substeps, and a model
//! (physics) step — and a pluggable physics–dynamics coupling interface
//! that accepts either the conventional suite (`ap3esm-physics`) or the AI
//! suite (`ap3esm-ai`), exactly the swap of Fig. 4.
//!
//! The paper's 1-km GRIST carries 3.4×10⁸ columns; the dycore here is the
//! same *numerics* on the same mesh family at whatever glevel fits the
//! machine (tests use G3–G5). Timestep ratios follow Table 1's 8 s / 30 s /
//! 120 s configuration as the 1 : 4 : 16 split (4 dycore substeps per tracer
//! step, 4 tracer steps per model step: 16 dycore substeps per model step).
//!
//! Prognostics: surface pressure `ps` (cells), potential temperature θ and
//! specific humidity q (cell × level, flux-form transport), and normal
//! velocity `u_n` (edge × level, vector-invariant form with reconstructed
//! kinetic energy and vorticity). Vertical advection is omitted — at the
//! barotropic-test scales exercised here its contribution is second-order,
//! and the substitution is documented in DESIGN.md.

use ap3esm_physics::constants::KAPPA;

pub mod diag;
pub mod dycore;
pub mod pdc;
pub mod state;
pub mod vortex;

pub use dycore::{Dycore, DycoreConfig};
pub use pdc::{PhysicsDriver, PhysicsDynamicsCoupler};
pub use state::AtmState;
pub use vortex::{best_track, seed_vortex, track_vortex, BestTrackPoint, VortexSpec};

/// Reference surface pressure (Pa): the reference pressure p₀ of potential
/// temperature.
pub const P_REF: f64 = ap3esm_physics::constants::P0;

/// The per-cell factor of the Exner function: `(pₛ/p₀)^κ`. On σ levels
/// `(σₖ·pₛ/p₀)^κ = (pₛ/p₀)^κ·σₖ^κ`, so the dynamics and the physics coupling
/// take T = θ·`surface_exner(pₛ)`·σₖ^κ — one `powf` per cell and one per
/// level, not one per cell-level — and agree on it bit for bit.
pub(crate) fn surface_exner(ps: f64) -> f64 {
    (ps / P_REF).powf(KAPPA)
}

/// The per-level factor of the Exner function: `σ^κ`.
pub(crate) fn level_exner(sigma: f64) -> f64 {
    sigma.powf(KAPPA)
}
