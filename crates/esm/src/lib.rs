//! # AP3ESM — the coupled Earth system model (`ap3esm-esm`)
//!
//! Assembles the four components (GRIST-analogue atmosphere, LICOM-analogue
//! ocean, CICE4-analogue sea ice, bucket land) under the CPL7-analogue
//! coupler into the paper's coupled system:
//!
//! * the **hybrid task–data parallelization strategy** of §5.1.2 / §7.2:
//!   two task domains — domain A holds the coupler, atmosphere, sea ice and
//!   land; domain O holds only the ocean — each with exclusive ranks,
//! * MCT-style `init`/`run`/`finalize` + `import`/`export` component
//!   interfaces ([`component`]),
//! * coupling clocks at the paper's 180/36/180 couplings-per-day
//!   (configurable for tests),
//! * the `get_timing` SYPD computation ([`timing`]) over driver sections
//!   that are `ap3esm-obs` spans ([`CoupledStats::per_section_seconds`]),
//! * the Table 1 configuration presets ([`config`]),
//! * the Typhoon-Doksuri forecast experiment ([`forecast`], Figs. 6–7),
//! * bit-exact restart through the parallel I/O layer ([`restart`]),
//! * the scaling-experiment driver bridging to the machine model
//!   ([`scaling`], Table 2 / Fig. 8).

// One long function is how the driver grew to 1 400 lines; the threshold
// is `too-many-lines-threshold` in the workspace-root clippy.toml.
#![deny(clippy::too_many_lines)]

pub mod component;
pub mod config;
pub mod coupled;
pub mod coupler;
pub mod forecast;
mod recovery;
pub mod resilience;
pub mod restart;
pub mod scaling;
mod session;
pub mod solar;
pub mod timing;

pub use component::{Atm, Component, Ice, Lnd, Ocn};
pub use coupler::{Coupler, Parts};
pub use config::{ConfigError, CoupledConfig, Resolution};
pub use coupled::{run_coupled, CoupledOptions, CoupledStats, Perturbation, SstPattern};
pub use forecast::{run_forecast, run_forecast_with, ForecastResult};
pub use resilience::{
    retry_delay, AtmGuard, CheckpointStore, HealthVerdict, OcnGuard, RecoveryConfig,
    RecoveryFailure,
};
pub use timing::get_timing;
