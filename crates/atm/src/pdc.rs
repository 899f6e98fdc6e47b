//! Physics–dynamics coupling (Fig. 4).
//!
//! The dycore hands column state to a physics suite and receives tendencies
//! plus surface radiation back. [`PhysicsDriver`] is the switch the paper's
//! AI suite plugs into: `Conventional` runs `ap3esm-physics`,
//! `AiSuite` runs the trained CNN tendency module and MLP radiation module
//! (plus the conventional diagnostic module for precipitation — the paper's
//! suite keeps a "conventional physics diagnostic module" too).

use std::sync::Arc;

use ap3esm_ai::modules::{ColumnState, RadiationModule, TendencyModule};
use ap3esm_physics::constants::{temperature_from_theta, GRAVITY, KAPPA, R_DRY};
use ap3esm_physics::suite::{
    Column, ColumnPhysicsOutput, ColumnScratch, ConventionalSuite, SurfaceProperties,
};

use crate::state::AtmState;
use crate::P_REF;

/// The surface forcing the physics needs per cell (supplied by the coupler
/// or by simple analytic boundary conditions in standalone runs).
#[derive(Debug, Clone)]
pub struct SurfaceForcing {
    /// Skin/SST temperature per cell (K).
    pub tskin: Vec<f64>,
    /// Cosine solar zenith angle per cell.
    pub coszr: Vec<f64>,
    /// Surface wetness per cell (1 = ocean).
    pub wetness: Vec<f64>,
}

impl SurfaceForcing {
    pub fn uniform(ncells: usize, tskin: f64, coszr: f64, wetness: f64) -> Self {
        SurfaceForcing {
            tskin: vec![tskin; ncells],
            coszr: vec![coszr; ncells],
            wetness: vec![wetness; ncells],
        }
    }
}

/// Which physics suite drives the model step.
// One instance per model; the AI variant's network weights dominate its
// size and boxing them would only add indirection on the hot path.
#[allow(clippy::large_enum_variant)]
pub enum PhysicsDriver {
    Conventional(ConventionalSuite),
    AiSuite {
        tendency: TendencyModule,
        radiation: RadiationModule,
        /// Conventional diagnostics retained alongside the AI modules.
        diagnostics: ConventionalSuite,
    },
}

/// Applies a physics suite to the whole atmosphere state.
pub struct PhysicsDynamicsCoupler {
    pub driver: PhysicsDriver,
    /// Lowest-level (east, north) wind per cell.
    cell_vectors: Vec<(f64, f64)>,
    /// One column of input, output and suite scratch, reused for every cell
    /// of every call.
    column: Column,
    out: ColumnPhysicsOutput,
    scratch: ColumnScratch,
}

impl PhysicsDynamicsCoupler {
    pub fn new(driver: PhysicsDriver) -> Self {
        PhysicsDynamicsCoupler {
            driver,
            cell_vectors: Vec::new(),
            column: Column::zeros(0),
            out: ColumnPhysicsOutput::zeros(0),
            scratch: ColumnScratch::default(),
        }
    }

    /// Fill `col` (sized for `state.nlev`) with one cell's physics column.
    fn fill_column(state: &AtmState, cell_vectors: &[(f64, f64)], i: usize, col: &mut Column) {
        let n = state.ncells();
        let ps = state.ps[i];
        let (ue, un) = cell_vectors[i];
        for k in 0..state.nlev {
            let pk = state.sigma[k] * ps;
            col.p[k] = pk;
            col.dp[k] = state.dsigma[k] * ps;
            col.t[k] = temperature_from_theta(state.theta[k * n + i], pk);
            col.dz[k] = R_DRY * col.t[k] * col.dp[k] / (col.p[k] * GRAVITY);
            col.u[k] = ue;
            col.v[k] = un;
            col.q[k] = state.q[k * n + i];
        }
    }

    /// Extract one cell's physics column from the prognostic state.
    fn build_column(state: &AtmState, cell_vectors: &[(f64, f64)], i: usize) -> Column {
        let mut col = Column::zeros(state.nlev);
        Self::fill_column(state, cell_vectors, i, &mut col);
        col
    }

    /// Apply one physics step of length `dt` to every column. Returns the
    /// global mean precipitation rate (kg/m²/s) for diagnostics.
    pub fn apply(&mut self, state: &mut AtmState, forcing: &SurfaceForcing, dt: f64) -> f64 {
        let _span = ap3esm_obs::span("physics");
        let n = state.ncells();
        let nlev = state.nlev;
        assert!(
            forcing.tskin.len() == n && forcing.coszr.len() == n && forcing.wetness.len() == n,
            "surface forcing has {} / {} / {} (tskin / coszr / wetness) values for a grid of ncells = {n}",
            forcing.tskin.len(),
            forcing.coszr.len(),
            forcing.wetness.len(),
        );
        let Self {
            driver,
            cell_vectors,
            column,
            out,
            scratch,
        } = self;
        let grid = Arc::clone(&state.grid);
        grid.reconstruct_cell_vectors_into(&state.un[0..state.nedges()], cell_vectors);
        let mut total_precip = 0.0;
        let mut total_area = 0.0;

        match driver {
            PhysicsDriver::Conventional(suite) => {
                if column.nlev() != nlev {
                    *column = Column::zeros(nlev);
                    *out = ColumnPhysicsOutput::zeros(nlev);
                }
                suite.prepare_scratch(nlev, scratch);
                for (i, stencil) in grid.cell_stencils.iter().enumerate() {
                    Self::fill_column(state, cell_vectors, i, column);
                    let sfc = SurfaceProperties {
                        tskin: forcing.tskin[i],
                        coszr: forcing.coszr[i],
                        wetness: forcing.wetness[i],
                    };
                    suite.step_column_into(column, &sfc, out, scratch);
                    for k in 0..nlev {
                        let idx = k * n + i;
                        // Tendencies on T converted back to θ.
                        let pk = state.sigma[k] * state.ps[i];
                        let factor = (P_REF / pk).powf(KAPPA);
                        state.theta[idx] += dt * out.dt[k] * factor;
                        state.q[idx] = (state.q[idx] + dt * out.dq[k]).max(0.0);
                    }
                    state.gsw[i] = out.gsw;
                    state.glw[i] = out.glw;
                    state.precip_accum[i] += out.precipitation * dt;
                    total_precip += out.precipitation * grid.cell_areas[i];
                    total_area += grid.cell_areas[i];
                    // Momentum tendency: distribute the lowest-level drag
                    // onto the cell's edges (dominant PBL effect).
                    let du = out.du[0] * dt;
                    let dv = out.dv[0] * dt;
                    for (edge, n_east, n_north) in stencil.slots() {
                        let proj = du * n_east + dv * n_north;
                        // Each edge is shared by two cells; half weight.
                        state.un[edge] += 0.5 * proj;
                    }
                }
            }
            PhysicsDriver::AiSuite {
                tendency,
                radiation,
                diagnostics,
            } => {
                // Batch the whole grid through the networks (the "highly
                // efficient tensor kernels" path of §5.2.1).
                let columns: Vec<ColumnState> = (0..n)
                    .map(|i| {
                        let col = Self::build_column(state, cell_vectors, i);
                        ColumnState {
                            u: col.u,
                            v: col.v,
                            t: col.t,
                            q: col.q,
                            p: col.p,
                        }
                    })
                    .collect();
                let mut tends = tendency.predict(&columns);
                // Tendency limiter: out-of-distribution columns can make a
                // network extrapolate wildly; GRIST-style physics limiting
                // caps tendencies at strong-but-physical magnitudes
                // (±100 K/day, ±0.05 kg/kg/day, ±50 m/s/day).
                const DT_MAX: f64 = 100.0 / 86_400.0;
                const DQ_MAX: f64 = 0.05 / 86_400.0;
                const DU_MAX: f64 = 50.0 / 86_400.0;
                for t in tends.iter_mut() {
                    for v in t.dt.iter_mut() {
                        *v = v.clamp(-DT_MAX, DT_MAX);
                    }
                    for v in t.dq.iter_mut() {
                        *v = v.clamp(-DQ_MAX, DQ_MAX);
                    }
                    for v in t.du.iter_mut().chain(t.dv.iter_mut()) {
                        *v = v.clamp(-DU_MAX, DU_MAX);
                    }
                }
                let rad_inputs: Vec<Vec<f32>> = columns
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        RadiationModule::build_input(c, forcing.tskin[i], forcing.coszr[i])
                    })
                    .collect();
                let rads = radiation.predict(&rad_inputs);
                for i in 0..n {
                    for k in 0..nlev {
                        let idx = k * n + i;
                        let pk = state.sigma[k] * state.ps[i];
                        let factor = (P_REF / pk).powf(KAPPA);
                        state.theta[idx] += dt * tends[i].dt[k] * factor;
                        state.q[idx] = (state.q[idx] + dt * tends[i].dq[k]).max(0.0);
                    }
                    state.gsw[i] = rads[i].gsw;
                    state.glw[i] = rads[i].glw;
                    // Conventional diagnostic module: precipitation.
                    let col = Self::build_column(state, cell_vectors, i);
                    let conv = diagnostics.convection.column(
                        &col.t, &col.q, &col.p, &col.dp, &col.dz,
                    );
                    state.precip_accum[i] += conv.precipitation * dt;
                    total_precip += conv.precipitation * state.grid.cell_areas[i];
                    total_area += state.grid.cell_areas[i];
                }
            }
        }
        if total_area > 0.0 {
            total_precip / total_area
        } else {
            0.0
        }
    }

    /// Is this the AI-powered suite? (Used by experiment CSVs.)
    pub fn is_ai(&self) -> bool {
        matches!(self.driver, PhysicsDriver::AiSuite { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap3esm_grid::GeodesicGrid;

    #[test]
    fn conventional_physics_step_is_stable() {
        let grid = Arc::new(GeodesicGrid::new(2));
        let mut state = AtmState::isothermal(Arc::clone(&grid), 6, 290.0);
        let n = state.ncells();
        let forcing = SurfaceForcing::uniform(n, 300.0, 0.5, 1.0);
        let mut pdc =
            PhysicsDynamicsCoupler::new(PhysicsDriver::Conventional(ConventionalSuite::default()));
        let theta0 = state.mean_theta();
        let precip = pdc.apply(&mut state, &forcing, 600.0);
        assert!(precip >= 0.0);
        assert!(state.theta.iter().all(|t| t.is_finite() && *t > 100.0));
        assert!(state.q.iter().all(|q| *q >= 0.0));
        // Warm-ocean heating should not blow θ up in one step.
        assert!((state.mean_theta() - theta0).abs() < 5.0);
        assert!(state.gsw.iter().all(|&g| g > 0.0));
    }

    #[test]
    #[should_panic(expected = "ncells = 162")]
    fn forcing_for_another_grid_is_rejected_at_entry() {
        let grid = Arc::new(GeodesicGrid::new(2));
        let mut state = AtmState::isothermal(Arc::clone(&grid), 4, 290.0);
        let forcing = SurfaceForcing::uniform(GeodesicGrid::new(1).ncells(), 300.0, 0.5, 1.0);
        let mut pdc =
            PhysicsDynamicsCoupler::new(PhysicsDriver::Conventional(ConventionalSuite::default()));
        pdc.apply(&mut state, &forcing, 600.0);
    }

    #[test]
    fn ai_suite_plugs_into_the_same_interface() {
        use ap3esm_ai::modules::Normalizer;
        use ap3esm_ai::net::{RadiationMlp, TendencyCnn};
        let grid = Arc::new(GeodesicGrid::new(1));
        let nlev = 5;
        let mut state = AtmState::isothermal(Arc::clone(&grid), nlev, 288.0);
        let n = state.ncells();
        let tendency = TendencyModule::new(
            TendencyCnn::with_width(nlev, 4, 1),
            Normalizer {
                mean: vec![0.0, 0.0, 288.0, 0.005, 5.0e4],
                std: vec![10.0, 10.0, 30.0, 0.01, 4.0e4],
            },
            // Tiny output scale: an untrained net then yields tiny tendencies.
            Normalizer {
                mean: vec![0.0; 4],
                std: vec![1e-8; 4],
            },
        );
        let radiation = RadiationModule::new(
            RadiationMlp::with_width(nlev, 8, 2),
            Normalizer {
                mean: vec![0.0],
                std: vec![100.0],
            },
            Normalizer {
                mean: vec![200.0, 350.0],
                std: vec![50.0, 30.0],
            },
        );
        let mut pdc = PhysicsDynamicsCoupler::new(PhysicsDriver::AiSuite {
            tendency,
            radiation,
            diagnostics: ConventionalSuite::default(),
        });
        assert!(pdc.is_ai());
        let forcing = SurfaceForcing::uniform(n, 299.0, 0.7, 1.0);
        pdc.apply(&mut state, &forcing, 600.0);
        assert!(state.theta.iter().all(|t| t.is_finite()));
        assert!(state.gsw.iter().all(|g| g.is_finite()));
    }
}
