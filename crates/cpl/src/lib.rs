//! # AP3ESM coupler (`ap3esm-cpl`)
//!
//! The CPL7 + MCT analogue (paper §5.1.1, §5.2.4). The coupler "runs on all
//! processors and handles coupler sequencing, model concurrency, and
//! communication between components"; MCT supplies the datatypes this crate
//! reimplements:
//!
//! * [`GSMap`] — the global segment map describing a field's decomposition,
//! * [`Router`] — the M×N table mapping one decomposition onto another,
//!   with **offline precomputation + serialisation** (§5.2.4: on Sunway the
//!   per-CG memory cannot afford online construction, so "the two data
//!   structures are generated offline as a preprocessing step"),
//! * [`Rearranger`] — executes a Router with either the original
//!   **all-to-all** strategy or the optimised **non-blocking point-to-point**
//!   strategy that "overlaps communication and computation": split-phase
//!   (`post`, then `complete`), one packed message per leg for a whole
//!   bundle,
//! * [`AttrVect`] — named multi-field bundles (MCT attribute vectors), with
//!   the §5.2.4 trimming of unused variables,
//! * [`clock`] — coupling clocks and alarms (atm 180 / ocn 36 / ice 180
//!   couplings per day),
//! * [`fluxes`] — air–sea/ice flux merging on the exchange grid,
//! * [`mapping`] — inter-grid interpolation (icosahedral ↔ tripolar).

// The rearranger is a post/complete pair so that neither half regrows into
// one long routine; the threshold is `too-many-lines-threshold` in the
// workspace-root clippy.toml.
#![deny(clippy::too_many_lines)]

pub mod avect;
pub mod clock;
pub mod fluxes;
pub mod gsmap;
pub mod mapping;
pub mod rearrange;
pub mod router;

pub use avect::AttrVect;
pub use clock::{Alarm, CouplingClock};
pub use gsmap::GSMap;
pub use mapping::RemapMatrix;
pub use rearrange::{RearrangeStrategy, Rearranger};
pub use router::Router;
