//! Composition: from a parsed [`Scenario`] to runnable model objects.
//!
//! [`Scenario::coupled_config`] / [`coupled_options`](Scenario::coupled_options)
//! assemble the coupled driver's inputs — a standalone subset is the same
//! [`Coupler`](ap3esm_esm::Coupler) with components absent, so it takes the
//! same two — and [`sypd_proxy`](Scenario::sypd_proxy) prices the
//! configuration with a deterministic cost model (the leaderboard ranks on
//! this projection, never on wall clock — see [`crate::leaderboard`]).

use ap3esm_atm::dycore::DycoreConfig;
use ap3esm_cpl::rearrange::RearrangeStrategy;
use ap3esm_esm::{CoupledConfig, CoupledOptions, Perturbation, SstPattern};
use ap3esm_grid::icosahedral::GeodesicCounts;
use ap3esm_ocn::model::OcnConfig;

use ap3esm_comm::faultplan::PlanParseError;

use crate::dsl::{Catalog, GridPreset, Layout, ModelKind, Scenario, ScenarioExpectation};

impl GridPreset {
    /// Atmosphere refinement level of this rung.
    pub fn atm_glevel(&self) -> u32 {
        match self {
            GridPreset::Tiny => 3,
            GridPreset::Small => 4,
            GridPreset::Medium => 5,
        }
    }

    /// Atmosphere levels.
    pub fn atm_nlev(&self) -> usize {
        match self {
            GridPreset::Tiny => 5,
            GridPreset::Small => 8,
            GridPreset::Medium => 10,
        }
    }

    /// Ocean grid dims (nlon, nlat, nlev).
    pub fn ocn_dims(&self) -> (usize, usize, usize) {
        match self {
            GridPreset::Tiny => (36, 24, 6),
            GridPreset::Small => (72, 46, 10),
            GridPreset::Medium => (108, 72, 12),
        }
    }
}

impl Scenario {
    /// The `CoupledConfig` this scenario composes. A standalone subset is
    /// one rank holding one component, i.e. the sequential layout
    /// (`Catalog::validate` rejects an explicit mesh or layout on them).
    pub fn coupled_config(&self) -> CoupledConfig {
        let (nlon, nlat, nlev) = self.grid.ocn_dims();
        let sequential = self.layout == Some(Layout::Sequential) || self.model != ModelKind::Full;
        let (px, py) = if sequential {
            (1, 1)
        } else {
            self.mesh.unwrap_or_else(|| self.grid.default_mesh())
        };
        CoupledConfig {
            atm_glevel: self.grid.atm_glevel(),
            atm_nlev: self.grid.atm_nlev(),
            ocn_nlon: nlon,
            ocn_nlat: nlat,
            ocn_nlev: nlev,
            ocn_px: px,
            ocn_py: py,
            couplings_per_day: self.couplings,
            strategy: self.strategy.unwrap_or(RearrangeStrategy::NonBlockingP2p),
            ai_physics: false,
            mask_seed: 20250704,
            single_domain: sequential,
        }
    }

    /// World size a member needs (1 for standalone subsets).
    pub fn world_size(&self) -> usize {
        self.coupled_config().world_size()
    }

    /// The coupled driver's options for ensemble member `member`
    /// (checkpoint/resume fields are the runner's business).
    pub fn coupled_options(&self, member: usize) -> CoupledOptions {
        let mut vortices = self.vortices.iter().map(|v| v.to_spec());
        CoupledOptions {
            days: self.days,
            vortex: vortices.next(),
            extra_vortices: vortices.collect(),
            sst_pattern: self.enso.map(|amplitude| SstPattern::Enso { amplitude }),
            perturb: self.perturb.map(|amplitude| Perturbation {
                seed: self.member_seed(member),
                amplitude,
            }),
            record_track: !self.vortices.is_empty(),
            ..CoupledOptions::default()
        }
    }

    /// Deterministic cost-model SYPD projection for this configuration.
    ///
    /// Prices one simulated day in gridpoint-steps from the composed
    /// timestep hierarchy — the same fitting the driver performs — and
    /// converts at a fixed reference throughput. A *projection*, not a
    /// measurement: identical on every machine, which is what lets the
    /// leaderboard rank on it. The cost-model spacing is the dyadic
    /// `7054 km / 2^glevel` approximation of the geodesic mean spacing, so
    /// no grid needs to be built to price a catalog.
    pub fn sypd_proxy(&self) -> f64 {
        /// Reference throughput (gridpoint-steps per second).
        const REF_RATE: f64 = 2.0e6;
        let cfg = self.coupled_config();
        let (atm_cpd, ocn_cpd, ice_cpd) = (
            self.couplings.0.max(1) as f64,
            self.couplings.1.max(1) as f64,
            self.couplings.2.max(1) as f64,
        );

        // Atmosphere: model steps per coupling from the fitted dt, times
        // the fixed 16 dynamics substeps per model step.
        let counts = GeodesicCounts::at_glevel(cfg.atm_glevel);
        let dx_km = 7054.0 / f64::powi(2.0, cfg.atm_glevel as i32);
        let base = DycoreConfig::for_spacing_km(dx_km);
        let atm_period = 86_400.0 / atm_cpd;
        let atm_steps = (atm_period / base.dt_model).ceil().max(1.0);
        let atm_cost =
            (counts.cells * cfg.atm_nlev) as f64 * atm_cpd * atm_steps * 16.0;

        // Ocean: baroclinic steps per coupling from the fitted dt; the
        // barotropic substeps are priced at 1/5 of a baroclinic step each
        // (2-D vs 3-D work), the Canuto mixing at one more step.
        let ocn = OcnConfig::for_grid(cfg.ocn_nlon, cfg.ocn_nlat, cfg.ocn_nlev, 1, 1);
        let ocn_period = 86_400.0 / ocn_cpd;
        let ocn_steps = (ocn_period / ocn.dt_baroclinic).ceil().max(1.0);
        let ocn_points = (cfg.ocn_nlon * cfg.ocn_nlat * cfg.ocn_nlev) as f64;
        let ocn_cost =
            ocn_points * ocn_cpd * ocn_steps * (2.0 + ocn.n_barotropic as f64 / 5.0);

        // Ice: one thermodynamic step per coupling over the surface grid.
        let ice_cost = (cfg.ocn_nlon * cfg.ocn_nlat) as f64 * ice_cpd;

        let cost_per_day = match self.model {
            ModelKind::Full => atm_cost + ocn_cost + ice_cost,
            ModelKind::OceanOnly => ocn_cost,
            ModelKind::AtmOnly => atm_cost,
            ModelKind::IceOnly => ice_cost,
        };
        REF_RATE * 86_400.0 / (365.0 * cost_per_day)
    }
}

impl Catalog {
    /// Semantic validation, past what the grammar can see: every scenario's
    /// composed `CoupledConfig` must validate, fault plans must fit the
    /// world they inject into, and standalone subsets reject knobs that
    /// only the coupled driver honours. Errors name the scenario and carry
    /// the most specific catalog line available (the offending event line
    /// for plan errors, the scenario header otherwise).
    pub fn validate(&self) -> Result<(), PlanParseError> {
        for sc in &self.scenarios {
            let at = |message: String| PlanParseError {
                line: sc.header_line,
                message: format!("scenario {:?}: {message}", sc.name),
            };
            let cfg = sc.coupled_config();
            cfg.validate()
                .map_err(|e| at(e.to_string()))?;
            match sc.model {
                ModelKind::Full => {
                    sc.plan
                        .validate(cfg.world_size())
                        .map_err(|e| PlanParseError {
                            line: e.line,
                            message: format!("scenario {:?}: {}", sc.name, e.message),
                        })?;
                }
                m => {
                    if !sc.plan.events.is_empty() {
                        let line = sc.plan.event_lines.first().copied().unwrap_or(sc.header_line);
                        return Err(PlanParseError {
                            line,
                            message: format!(
                                "scenario {:?}: fault plans drive the coupled world; \
                                 model is {}",
                                sc.name,
                                m.as_str()
                            ),
                        });
                    }
                    if sc.mesh.is_some() {
                        return Err(at(format!(
                            "mesh is only meaningful for model full (model is {})",
                            m.as_str()
                        )));
                    }
                    if sc.layout.is_some() {
                        return Err(at(format!(
                            "layout is only meaningful for model full (model is {})",
                            m.as_str()
                        )));
                    }
                    if sc.strategy.is_some() {
                        return Err(at(format!(
                            "strategy is only meaningful for model full (model is {})",
                            m.as_str()
                        )));
                    }
                    if sc.cycles > 1 {
                        return Err(at(
                            "cycles (restart-cycled reforecasts) need the coupled \
                             driver's checkpoint machinery"
                                .into(),
                        ));
                    }
                    if matches!(m, ModelKind::OceanOnly | ModelKind::IceOnly)
                        && !sc.vortices.is_empty()
                    {
                        return Err(at(format!(
                            "vortex seeds an atmosphere; model is {}",
                            m.as_str()
                        )));
                    }
                    if m == ModelKind::IceOnly && sc.perturb.is_some() {
                        return Err(at(
                            "perturb seeds θ noise; the ice-only subset has no \
                             prognostic temperature to perturb"
                                .into(),
                        ));
                    }
                }
            }
            if sc.members > 1 && sc.perturb.is_none() {
                return Err(at(format!(
                    "members {} without perturb would run identical members; \
                     add perturb amp=... to decorrelate the ensemble",
                    sc.members
                )));
            }
            if sc.expect != ScenarioExpectation::Healthy {
                if sc.model != ModelKind::Full || sc.plan.events.is_empty() {
                    return Err(at(format!(
                        "expect={} needs a fault plan on the coupled model \
                         (a fault-free run can only be healthy)",
                        sc.expect.as_str()
                    )));
                }
                if sc.cycles > 1 {
                    return Err(at(format!(
                        "expect={} with cycles > 1 is unsupported: a degraded \
                         world cannot hand its checkpoint to a full-size resume",
                        sc.expect.as_str()
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The driver's atmosphere period fitting (§5.1.1), re-exported where the
/// scenario engine's callers look for it.
pub use ap3esm_esm::component::fitted_atm_config;

/// The driver's ocean period fitting on the single-rank standalone mesh.
pub fn fitted_ocn_config(config: &CoupledConfig, period: f64) -> OcnConfig {
    let mut c = ap3esm_esm::component::fitted_ocn_config(config, period);
    c.px = 1;
    c.py = 1;
    c
}
