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
//! The catalog grammar is the one grammar a campaign is written in, the
//! chaos ladder (`scenarios/chaos.scn`) included: the fault verbs of
//! [`ap3esm_comm::faultplan`] (`kill`, `die`, `drop`, `delay`, `dup`,
//! `corrupt`) embed verbatim inside scenario bodies, and [`run_campaign`] is
//! the one engine that runs it — every `expect=degraded` scenario held to a
//! bitwise reference on a fresh world of the shrunken size, every unit under
//! a watchdog, so a hang is a verdict and not a stuck job.
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

pub use dsl::{
    Catalog, GridPreset, Layout, ModelKind, Scenario, ScenarioExpectation, VortexDef,
};
pub use runner::{
    run_campaign, CampaignOptions, CampaignReport, MemberOutcome, ScenarioOutcome, Verdict,
};
