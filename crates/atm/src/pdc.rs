//! Physics–dynamics coupling (Fig. 4).
//!
//! The dycore hands column state to a physics suite and receives tendencies
//! plus surface radiation back. [`PhysicsDriver`] is the switch the paper's
//! AI suite plugs into: `Conventional` runs `ap3esm-physics`,
//! `AiSuite` runs the trained CNN tendency module and MLP radiation module
//! (plus the conventional diagnostic module for precipitation — the paper's
//! suite keeps a "conventional physics diagnostic module" too).
//! [`supervision_pair`] is the same boundary read the other way: what the AI
//! suite is trained on is what the conventional suite answers here.
//!
//! The conventional arm is a column phase on the coupler's execution space
//! (columns are independent: each reads and writes its own cell) followed by
//! a serial remainder in cell order: the copy of the staged θ and q back to
//! level-major storage, the half-weight drag scatter onto edges that two
//! cells share, and the precipitation sum.
//!
//! Both arms convert θ ↔ T with the dycore's factored Exner function,
//! `(pₛ/p₀)^κ` once per cell times `σₖ^κ` once per level, so the T a column
//! is handed is the T the dynamics diagnosed, bit for bit.

use std::sync::Arc;

use ap3esm_ai::modules::{ColumnState, RadiationModule, TendencyModule};
use ap3esm_physics::constants::{GRAVITY, R_DRY};
use ap3esm_physics::suite::{
    Column, ColumnPhysicsOutput, ColumnScratch, ConventionalSuite, SurfaceProperties,
};
use ap3esm_pp::{for_chunks_mut, ExecSpace, PerLane, Serial};

use crate::state::AtmState;
use crate::{level_exner, surface_exner};

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

/// The five profiles of a physics column the AI suite reads.
fn column_state(col: Column) -> ColumnState {
    ColumnState {
        u: col.u,
        v: col.v,
        t: col.t,
        q: col.q,
        p: col.p,
    }
}

/// One training pair tapped at this boundary, as the FP32 the networks
/// train in: the column as the AI suite would be handed it (`[5, nlev]`,
/// [`ColumnState::to_input`]'s layout) and the conventional suite's answer
/// for it (`[4, nlev]`: du, dv, dt, dq per second).
pub fn supervision_pair(
    suite: &ConventionalSuite,
    col: Column,
    sfc: &SurfaceProperties,
) -> (Vec<f32>, Vec<f32>) {
    let out = suite.step_column(&col, sfc);
    let target = [&out.du, &out.dv, &out.dt, &out.dq]
        .into_iter()
        .flat_map(|c| c.iter().map(|&v| v as f32))
        .collect();
    (column_state(col).to_input(), target)
}

/// One column of input, output and suite scratch, reused for every cell a
/// lane steps. Every entry is written before it is read within a cell.
struct LaneColumn {
    column: Column,
    out: ColumnPhysicsOutput,
    scratch: ColumnScratch,
}

impl LaneColumn {
    fn new() -> Self {
        LaneColumn {
            column: Column::zeros(0),
            out: ColumnPhysicsOutput::zeros(0),
            scratch: ColumnScratch::default(),
        }
    }
}

/// Per level: `σₖ^κ` and its reciprocal, the level's factors of T = θ·Π and
/// of θ = T/Π, `Π = (pₛ/p₀)^κ·σₖ^κ`.
fn exner_levels(sigma: &[f64], levels: &mut Vec<(f64, f64)>) {
    levels.clear();
    levels.extend(sigma.iter().map(|&s| {
        let exner = level_exner(s);
        (exner, 1.0 / exner)
    }));
}

/// The prognostic fields a physics column is read from, the per-level Exner
/// factors ([`exner_levels`]) and the lowest-level (east, north) wind per
/// cell.
struct Profiles<'a> {
    sigma: &'a [f64],
    dsigma: &'a [f64],
    ps: &'a [f64],
    theta: &'a [f64],
    q: &'a [f64],
    levels: &'a [(f64, f64)],
    winds: &'a [(f64, f64)],
}

impl<'a> Profiles<'a> {
    fn of(state: &'a AtmState, levels: &'a [(f64, f64)], winds: &'a [(f64, f64)]) -> Self {
        Profiles {
            sigma: &state.sigma,
            dsigma: &state.dsigma,
            ps: &state.ps,
            theta: &state.theta,
            q: &state.q,
            levels,
            winds,
        }
    }

    /// Fill `col` (sized for the state's levels) with cell `i`'s column.
    /// Returns the cell's `(pₛ/p₀)^κ`.
    fn fill(&self, i: usize, col: &mut Column) -> f64 {
        let n = self.ps.len();
        let ps = self.ps[i];
        let exner = surface_exner(ps);
        let (ue, un) = self.winds[i];
        for (k, &(level_exner, _)) in self.levels.iter().enumerate() {
            let pk = self.sigma[k] * ps;
            col.p[k] = pk;
            col.dp[k] = self.dsigma[k] * ps;
            col.t[k] = self.theta[k * n + i] * exner * level_exner;
            col.dz[k] = R_DRY * col.t[k] * col.dp[k] / (col.p[k] * GRAVITY);
            col.u[k] = ue;
            col.v[k] = un;
            col.q[k] = self.q[k * n + i];
        }
        exner
    }

    /// Cell `i`'s column, freshly allocated.
    fn column(&self, i: usize) -> Column {
        let mut col = Column::zeros(self.sigma.len());
        self.fill(i, &mut col);
        col
    }
}

/// Applies a physics suite to the whole atmosphere state.
pub struct PhysicsDynamicsCoupler {
    pub driver: PhysicsDriver,
    /// Where the column phase runs.
    space: Arc<dyn ExecSpace>,
    /// Lowest-level (east, north) wind per cell.
    cell_vectors: Vec<(f64, f64)>,
    /// The state's per-level Exner factors ([`exner_levels`]).
    levels: Vec<(f64, f64)>,
    /// A column set per kernel of the column phase.
    lanes: PerLane<LaneColumn>,
    /// What the column phase leaves per cell for the serial remainder:
    /// the new θ then q of every level (cell-major), the lowest-level drag
    /// increment (du, dv), and the precipitation rate.
    staged: Vec<f64>,
    drag: Vec<f64>,
    precip: Vec<f64>,
}

impl PhysicsDynamicsCoupler {
    /// Steps columns on one lane until a space is attached with
    /// [`PhysicsDynamicsCoupler::on`].
    pub fn new(driver: PhysicsDriver) -> Self {
        PhysicsDynamicsCoupler {
            driver,
            space: Arc::new(Serial),
            cell_vectors: Vec::new(),
            levels: Vec::new(),
            lanes: PerLane::default(),
            staged: Vec::new(),
            drag: Vec::new(),
            precip: Vec::new(),
        }
    }

    /// Run the column phase on `space`. The answer does not depend on it,
    /// bit for bit.
    pub fn on(mut self, space: Arc<dyn ExecSpace>) -> Self {
        self.space = space;
        self
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
            space,
            cell_vectors,
            levels,
            lanes,
            staged,
            drag,
            precip,
        } = self;
        state
            .grid
            .reconstruct_cell_vectors_into(&state.un[0..state.nedges()], cell_vectors);
        exner_levels(&state.sigma, levels);
        let levels = &levels[..];
        let mut total_precip = 0.0;
        let mut total_area = 0.0;

        match driver {
            PhysicsDriver::Conventional(suite) => {
                lanes.grow(space.concurrency(), LaneColumn::new);
                for lane in lanes.iter_mut() {
                    if lane.column.nlev() != nlev {
                        lane.column = Column::zeros(nlev);
                        lane.out = ColumnPhysicsOutput::zeros(nlev);
                    }
                    suite.prepare_scratch(nlev, &mut lane.scratch);
                }
                staged.resize(2 * nlev * n, 0.0);
                drag.resize(2 * n, 0.0);
                precip.resize(n, 0.0);
                let AtmState {
                    grid,
                    sigma,
                    dsigma,
                    ps,
                    theta,
                    q,
                    un,
                    gsw,
                    glw,
                    precip_accum,
                    ..
                } = state;
                let profiles = Profiles {
                    sigma,
                    dsigma,
                    ps,
                    theta,
                    q,
                    levels,
                    winds: cell_vectors,
                };
                let (suite, lanes) = (&*suite, &*lanes);

                // --- Column phase: every cell's outputs from its own column. ---
                for_chunks_mut(
                    &**space,
                    n,
                    [
                        &mut staged[..],
                        &mut drag[..],
                        &mut precip[..],
                        &mut gsw[..],
                        &mut glw[..],
                        &mut precip_accum[..],
                    ],
                    |r, [staged, drag, precip, gsw, glw, precip_accum]| {
                        let mut lane = lanes.take();
                        let LaneColumn {
                            column,
                            out,
                            scratch,
                        } = &mut *lane;
                        for (j, i) in r.enumerate() {
                            let inv_exner = 1.0 / profiles.fill(i, column);
                            let sfc = SurfaceProperties {
                                tskin: forcing.tskin[i],
                                coszr: forcing.coszr[i],
                                wetness: forcing.wetness[i],
                            };
                            suite.step_column_into(column, &sfc, out, scratch);
                            let (new_theta, new_q) =
                                staged[2 * nlev * j..2 * nlev * (j + 1)].split_at_mut(nlev);
                            for (k, &(_, inv_level_exner)) in levels.iter().enumerate() {
                                let idx = k * n + i;
                                // Tendencies on T converted back to θ.
                                let factor = inv_exner * inv_level_exner;
                                new_theta[k] = profiles.theta[idx] + dt * out.dt[k] * factor;
                                new_q[k] = (profiles.q[idx] + dt * out.dq[k]).max(0.0);
                            }
                            gsw[j] = out.gsw;
                            glw[j] = out.glw;
                            precip_accum[j] += out.precipitation * dt;
                            precip[j] = out.precipitation;
                            drag[2 * j] = out.du[0] * dt;
                            drag[2 * j + 1] = out.dv[0] * dt;
                        }
                    },
                );

                // --- Serial remainder, in cell order. ---
                for (i, new) in staged.chunks_exact(2 * nlev).enumerate() {
                    for k in 0..nlev {
                        theta[k * n + i] = new[k];
                        q[k * n + i] = new[nlev + k];
                    }
                }
                for (i, stencil) in grid.cell_stencils.iter().enumerate() {
                    total_precip += precip[i] * grid.cell_areas[i];
                    total_area += grid.cell_areas[i];
                    // Momentum tendency: distribute the lowest-level drag
                    // onto the cell's edges (dominant PBL effect).
                    let (du, dv) = (drag[2 * i], drag[2 * i + 1]);
                    for (edge, n_east, n_north) in stencil.slots() {
                        let proj = du * n_east + dv * n_north;
                        // Each edge is shared by two cells; half weight.
                        un[edge] += 0.5 * proj;
                    }
                }
            }
            PhysicsDriver::AiSuite {
                tendency,
                radiation,
                diagnostics,
            } => {
                // Batch the whole grid through the networks (the "highly
                // efficient tensor kernels" path of §5.2.1): `predict_batch`
                // is the forward the serving tier runs, one GEMM per conv
                // layer over all n columns.
                //
                // What this arm does not do (ROADMAP item C): the predicted
                // du / dv are clamped below and then dropped — no momentum
                // tendency reaches `un`, unlike the conventional arm's drag
                // scatter — and the radiation module the coupled model
                // builds is `RadiationModule::untrained`.
                let columns: Vec<ColumnState> = (0..n)
                    .map(|i| column_state(Profiles::of(state, levels, cell_vectors).column(i)))
                    .collect();
                let mut tends = tendency.predict_batch(&columns);
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
                let rads = radiation.predict_batch(&rad_inputs);
                for i in 0..n {
                    let inv_exner = 1.0 / surface_exner(state.ps[i]);
                    for (k, &(_, inv_level_exner)) in levels.iter().enumerate() {
                        let idx = k * n + i;
                        let factor = inv_exner * inv_level_exner;
                        state.theta[idx] += dt * tends[i].dt[k] * factor;
                        state.q[idx] = (state.q[idx] + dt * tends[i].dq[k]).max(0.0);
                    }
                    state.gsw[i] = rads[i].gsw;
                    state.glw[i] = rads[i].glw;
                    // Conventional diagnostic module: precipitation.
                    let col = Profiles::of(state, levels, cell_vectors).column(i);
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
    fn supervision_pair_is_the_ai_input_and_the_conventional_answer() {
        let nlev = 6;
        let suite = ConventionalSuite::default();
        let grid = Arc::new(GeodesicGrid::new(1));
        let state = AtmState::isothermal(Arc::clone(&grid), nlev, 288.0);
        let winds = vec![(3.0, -1.0); state.ncells()];
        let mut levels = Vec::new();
        exner_levels(&state.sigma, &mut levels);
        let col = Profiles::of(&state, &levels, &winds).column(0);
        let sfc = SurfaceProperties {
            tskin: 299.0,
            coszr: 0.5,
            wetness: 1.0,
        };
        let out = suite.step_column(&col, &sfc);
        let (x, y) = supervision_pair(&suite, col.clone(), &sfc);
        assert_eq!(x, column_state(col).to_input());
        assert_eq!(x.len(), 5 * nlev);
        // Channel-major like `ColumnTendency::from_output` reads it back.
        let back = ap3esm_ai::modules::ColumnTendency::from_output(&y, nlev);
        for (got, want) in [(&back.du, &out.du), (&back.dt, &out.dt), (&back.dq, &out.dq)] {
            for (g, w) in got.iter().zip(want) {
                assert_eq!(*g, f64::from(*w as f32));
            }
        }
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
