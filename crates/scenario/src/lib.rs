//! # ap3esm-scenario — declarative scenario engine
//!
//! Experiments on the coupled model used to live in hand-written example
//! binaries: every new configuration (a different component subset, another
//! vortex basin, an ensemble fan) meant another few hundred lines of driver
//! code. This crate replaces that with a **declarative catalog**: a small
//! text DSL ([`dsl`]) describes *what* to run — which components the
//! [`Coupler`](ap3esm_esm::Coupler) holds, which rung of the resolution
//! ladder, which initial-condition family, how many ensemble
//! members, how many restart cycles, which fault plan — and the **campaign
//! runner** ([`runner`]) fans the scenarios across a
//! [`Threads`](ap3esm_pp::Threads) pool, classifies each outcome against
//! its declared contract, and distils the campaign into per-scenario
//! `ap3esm-tsdb/1` snapshots plus one deterministic `ap3esm-leaderboard/1`
//! ranking.
//!
//! The catalog grammar is a strict superset of the chaos campaign format of
//! [`ap3esm_comm::faultplan`]: fault verbs (`kill`, `die`, `drop`, `delay`,
//! `dup`, `corrupt`) embed verbatim inside scenario bodies, and the derived
//! per-scenario seeds agree position-by-position with
//! [`Campaign::parse`](ap3esm_comm::Campaign) via the shared
//! [`scenario_seed`](ap3esm_comm::faultplan::scenario_seed) mix.
//!
//! ```no_run
//! use ap3esm_scenario::dsl::Catalog;
//! use ap3esm_scenario::runner::{run_campaign, CampaignOptions};
//!
//! let catalog = Catalog::parse(
//!     "name demo\nseed 42\n\nscenario baseline\nmodel full\ndays 0.25\n",
//! )
//! .expect("parse");
//! catalog.validate().expect("validate");
//! let report = run_campaign(&catalog, &CampaignOptions::default());
//! println!("{}", report.table);
//! assert_eq!(report.violations, 0);
//! ```

// One long function is how the driver grew to 1 400 lines; the threshold
// is `too-many-lines-threshold` in the workspace-root clippy.toml.
#![deny(clippy::too_many_lines)]

pub mod compose;
pub mod dsl;
pub mod leaderboard;
pub mod runner;

pub use dsl::{Catalog, GridPreset, Layout, ModelKind, Scenario, VortexDef};
pub use runner::{
    run_campaign, CampaignOptions, CampaignReport, MemberOutcome, ScenarioOutcome, Verdict,
};
