//! The ocean model driver: split time stepping, halo exchange, masking and
//! the point-exclusion loop path.

use ap3esm_comm::{CommError, HaloExchange, Rank};
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_physics::constants::CP_SEAWATER;

use crate::eos::density;
use crate::mixing::{CanutoMixing, TridiagFactors};
use crate::state::OcnState;
use crate::{G, RHO0};

/// Model configuration.
#[derive(Debug, Clone)]
pub struct OcnConfig {
    pub nlon: usize,
    pub nlat: usize,
    pub nlev: usize,
    /// Process mesh.
    pub px: usize,
    pub py: usize,
    /// Baroclinic/tracer timestep (s); the paper uses 20 s at 1 km.
    pub dt_baroclinic: f64,
    /// Barotropic substeps per baroclinic step (paper ratio 20 s : 2 s = 10).
    pub n_barotropic: usize,
    /// §5.2.2 point exclusion on/off (the Fig. 5 ablation switch).
    pub exclude_land: bool,
    /// Rayleigh drag on the barotropic mode (1/s).
    pub r_drag: f64,
    /// Offset added to decomposition rank ids to get world rank ids (the
    /// coupled model places the ocean domain at world ranks `offset..`).
    pub rank_offset: usize,
}

impl OcnConfig {
    /// CFL-scaled configuration for a grid: barotropic gravity waves move
    /// at √(gH) ≈ 230 m/s, so dt_btr ≈ 1.2 s per km of the *smallest ocean*
    /// spacing — the row just south of the displaced-pole land cap, where
    /// zonal convergence shrinks dx by cos(84°) (the paper's 2 s at 1 km is
    /// the same scaling with its implicit free surface and polar filter);
    /// the 1:10 barotropic:baroclinic ratio of Table 1 is kept.
    pub fn for_grid(nlon: usize, nlat: usize, nlev: usize, px: usize, py: usize) -> Self {
        let dx_km = 40_000.0 / nlon as f64
            * ap3esm_grid::tripolar::POLAR_CAP_DEG.to_radians().cos();
        let dt_btr = 1.2 * dx_km;
        OcnConfig {
            nlon,
            nlat,
            nlev,
            px,
            py,
            dt_baroclinic: dt_btr * 10.0,
            n_barotropic: 10,
            exclude_land: true,
            r_drag: 1.0e-6,
            rank_offset: 0,
        }
    }
}

/// Surface forcing on the interior cells (row-major `nj × ni`).
#[derive(Debug, Clone)]
pub struct OcnForcing {
    /// Zonal/meridional wind stress (N/m²).
    pub taux: Vec<f64>,
    pub tauy: Vec<f64>,
    /// Net surface heat flux into the ocean (W/m²).
    pub qnet: Vec<f64>,
    /// Virtual salt flux (psu·m/s, positive salts the surface).
    pub salt_flux: Vec<f64>,
}

impl OcnForcing {
    pub fn zeros(ni: usize, nj: usize) -> Self {
        OcnForcing {
            taux: vec![0.0; ni * nj],
            tauy: vec![0.0; ni * nj],
            qnet: vec![0.0; ni * nj],
            salt_flux: vec![0.0; ni * nj],
        }
    }

    /// Idealised climatological forcing: easterly trades / westerlies
    /// pattern and solar heating peaked at the equator.
    pub fn climatology(grid: &TripolarGrid, decomp: &BlockDecomp2d, rank_id: usize) -> Self {
        let block = decomp.block(rank_id);
        let (ni, nj) = (block.ni(), block.nj());
        let mut f = Self::zeros(ni, nj);
        for j in 0..nj {
            let phi = grid.lat[block.j0 + j];
            let tau = 0.08 * (3.0 * phi).sin() * phi.cos();
            let q = 120.0 * phi.cos().powi(2) - 60.0;
            for i in 0..ni {
                f.taux[j * ni + i] = tau;
                f.qnet[j * ni + i] = q;
            }
        }
        f
    }
}

/// Every buffer a step needs beyond the state itself, sized once in
/// [`OcnModel::new`], so that a step allocates nothing but its halo
/// message payloads. Contents are dead between steps.
struct OcnWorkspace {
    /// Barotropic targets, swapped with `state.{eta, ubar, vbar}` at the
    /// end of each half-substep.
    eta: Vec<f64>,
    ubar: Vec<f64>,
    vbar: Vec<f64>,
    /// Start-of-step `u, v, T, S` for neighbor reads, flat `nlev × slab`.
    u_old: Vec<f64>,
    v_old: Vec<f64>,
    t_old: Vec<f64>,
    s_old: Vec<f64>,
    /// Baroclinic pressure / ρ0, flat `nlev × slab`.
    press: Vec<f64>,
    /// One column of vertical mixing: interface diffusivities, the
    /// factored matrix, and the field being solved.
    kq: Vec<f64>,
    factors: TridiagFactors,
    col: Vec<f64>,
}

impl OcnWorkspace {
    fn new(slab: usize, nlev: usize) -> Self {
        OcnWorkspace {
            eta: vec![0.0; slab],
            ubar: vec![0.0; slab],
            vbar: vec![0.0; slab],
            u_old: vec![0.0; nlev * slab],
            v_old: vec![0.0; nlev * slab],
            t_old: vec![0.0; nlev * slab],
            s_old: vec![0.0; nlev * slab],
            press: vec![0.0; nlev * slab],
            kq: vec![0.0; nlev.saturating_sub(1)],
            factors: TridiagFactors::with_capacity(nlev),
            col: vec![0.0; nlev],
        }
    }
}

/// Copy a per-level field into a flat `nlev × slab` snapshot.
fn snapshot(old: &mut [f64], field: &[Vec<f64>], slab: usize) {
    for (dst, level) in old.chunks_exact_mut(slab).zip(field) {
        dst.copy_from_slice(level);
    }
}

/// The loop policy over interior columns: the packed active list (§5.2.2
/// point exclusion) or the dense box.
struct ColumnLoop<'a> {
    exclude_land: bool,
    active: &'a [(usize, usize)],
}

impl ColumnLoop<'_> {
    /// Call `f(state, i, j, idx)` for every *ocean* column. Returns the
    /// number of columns visited (exclusion accounting for Fig. 5).
    fn for_each(
        &self,
        state: &mut OcnState,
        mut f: impl FnMut(&mut OcnState, usize, usize, usize),
    ) -> usize {
        let mut visited = 0;
        if self.exclude_land {
            for &(i, j) in self.active {
                let idx = state.at(i, j);
                visited += 1;
                f(state, i, j, idx);
            }
        } else {
            for j in 0..state.nj {
                for i in 0..state.ni {
                    visited += 1; // dense policy visits land too
                    let idx = state.at(i, j);
                    if state.kmt[idx] > 0 {
                        f(state, i, j, idx);
                    }
                }
            }
        }
        visited
    }
}

/// The assembled per-rank ocean model.
pub struct OcnModel {
    pub config: OcnConfig,
    pub state: OcnState,
    halo2d: HaloExchange,
    halo3d: HaloExchange,
    mixing: CanutoMixing,
    /// Packed active-column list (used when `exclude_land`).
    active: Vec<(usize, usize)>,
    ws: OcnWorkspace,
    /// Columns visited last step (exclusion accounting for Fig. 5).
    pub columns_visited: usize,
}

impl OcnModel {
    pub fn new(grid: &TripolarGrid, config: OcnConfig, rank_id: usize) -> Self {
        let decomp = BlockDecomp2d::new(config.nlon, config.nlat, config.px, config.py);
        let state = OcnState::new(grid, &decomp, rank_id);
        let mut spec = decomp.halo_spec(rank_id);
        for link in spec.sends.iter_mut().chain(spec.recvs.iter_mut()) {
            link.peer += config.rank_offset;
        }
        let halo2d = HaloExchange::new(spec.clone(), 100);
        let halo3d = HaloExchange::new(spec, 200);
        let active = state.active_columns();
        let ws = OcnWorkspace::new(state.eta.len(), state.nlev);
        OcnModel {
            config,
            state,
            halo2d,
            halo3d,
            mixing: CanutoMixing::default(),
            active,
            ws,
            columns_visited: 0,
        }
    }

    /// One barotropic substep (forward-backward, rotation-implicit
    /// Coriolis).
    fn barotropic_substep(
        &mut self,
        rank: &Rank,
        forcing: &OcnForcing,
        dt: f64,
    ) -> Result<(), CommError> {
        let st = &mut self.state;
        let ws = &mut self.ws;
        let stride = st.stride;
        let (ni, nj) = (st.ni, st.nj);

        // Continuity: η ← η − dt·∇·(H u) with masked face fluxes.
        let new_eta = &mut ws.eta;
        new_eta.copy_from_slice(&st.eta);
        for j in 0..nj {
            for i in 0..ni {
                let idx = st.at(i, j);
                if st.kmt[idx] == 0 {
                    continue;
                }
                let (e, w, n, s) = (idx + 1, idx - 1, idx + stride, idx - stride);
                let face = |a: usize, b: usize, vel: f64| -> f64 {
                    if st.kmt[a] > 0 && st.kmt[b] > 0 {
                        0.5 * (st.depth[a] + st.depth[b]) * vel
                    } else {
                        0.0
                    }
                };
                let fx_e = face(idx, e, 0.5 * (st.ubar[idx] + st.ubar[e]));
                let fx_w = face(w, idx, 0.5 * (st.ubar[w] + st.ubar[idx]));
                let fy_n = face(idx, n, 0.5 * (st.vbar[idx] + st.vbar[n]));
                let fy_s = face(s, idx, 0.5 * (st.vbar[s] + st.vbar[idx]));
                // Meridional faces use the *shared* interface length
                // (mean of the adjacent rows' dx), so the discrete
                // divergence telescopes and volume is conserved exactly on
                // the converging tripolar rows.
                let lx_n = 0.5 * (st.dx_ext[j + 1] + st.dx_ext[j + 2]);
                let lx_s = 0.5 * (st.dx_ext[j] + st.dx_ext[j + 1]);
                let area = st.dx[j] * st.dy;
                let div = ((fx_e - fx_w) * st.dy + fy_n * lx_n - fy_s * lx_s) / area;
                new_eta[idx] = st.eta[idx] - dt * div;
            }
        }
        std::mem::swap(&mut st.eta, new_eta);
        self.halo2d.exchange(rank, &mut st.eta)?;

        // Momentum: pressure gradient from the *new* η (forward-backward),
        // wind stress, drag, then implicit rotation.
        let (new_u, new_v) = (&mut ws.ubar, &mut ws.vbar);
        new_u.copy_from_slice(&st.ubar);
        new_v.copy_from_slice(&st.vbar);
        for j in 0..nj {
            for i in 0..ni {
                let idx = st.at(i, j);
                if st.kmt[idx] == 0 {
                    continue;
                }
                let (e, w, n, s) = (idx + 1, idx - 1, idx + stride, idx - stride);
                let detadx = if st.kmt[e] > 0 && st.kmt[w] > 0 {
                    (st.eta[e] - st.eta[w]) / (2.0 * st.dx[j])
                } else if st.kmt[e] > 0 {
                    (st.eta[e] - st.eta[idx]) / st.dx[j]
                } else if st.kmt[w] > 0 {
                    (st.eta[idx] - st.eta[w]) / st.dx[j]
                } else {
                    0.0
                };
                let detady = if st.kmt[n] > 0 && st.kmt[s] > 0 {
                    (st.eta[n] - st.eta[s]) / (2.0 * st.dy)
                } else if st.kmt[n] > 0 {
                    (st.eta[n] - st.eta[idx]) / st.dy
                } else if st.kmt[s] > 0 {
                    (st.eta[idx] - st.eta[s]) / st.dy
                } else {
                    0.0
                };
                let h = st.depth[idx].max(1.0);
                let fi = j * ni + i;
                let du = dt
                    * (-G * detadx - self.config.r_drag * st.ubar[idx]
                        + forcing.taux[fi] / (RHO0 * h));
                let dv = dt
                    * (-G * detady - self.config.r_drag * st.vbar[idx]
                        + forcing.tauy[fi] / (RHO0 * h));
                let (u1, v1) = (st.ubar[idx] + du, st.vbar[idx] + dv);
                let a = dt * st.fcor[j];
                let denom = 1.0 + a * a;
                new_u[idx] = (u1 + a * v1) / denom;
                new_v[idx] = (v1 - a * u1) / denom;
            }
        }
        std::mem::swap(&mut st.ubar, new_u);
        std::mem::swap(&mut st.vbar, new_v);
        self.halo2d
            .exchange_many(rank, &mut [&mut st.ubar, &mut st.vbar])?;
        Ok(())
    }

    /// One full baroclinic + tracer step (with `n_barotropic` substeps).
    /// Panics on communication failure; fault-tolerant drivers use
    /// [`OcnModel::try_step`].
    pub fn step(&mut self, rank: &Rank, forcing: &OcnForcing) {
        self.try_step(rank, forcing).expect("ocn step comm failure")
    }

    /// One full step, surfacing halo-exchange failures (dropped messages
    /// under fault injection, deadlocks) as [`CommError`] so the coupled
    /// driver can roll back instead of aborting.
    ///
    /// Panics if `forcing` was built for a block of another size.
    pub fn try_step(&mut self, rank: &Rank, forcing: &OcnForcing) -> Result<(), CommError> {
        let _span = ap3esm_obs::span("ocn_step");
        let (ni, nj) = (self.state.ni, self.state.nj);
        for (name, field) in [
            ("taux", &forcing.taux),
            ("tauy", &forcing.tauy),
            ("qnet", &forcing.qnet),
            ("salt_flux", &forcing.salt_flux),
        ] {
            assert_eq!(
                field.len(),
                ni * nj,
                "OcnForcing::{name} was built for another block: this one needs ni × nj = {ni} × {nj} values",
            );
        }
        let nbt = self.config.n_barotropic;
        let dt_btr = self.config.dt_baroclinic / nbt as f64;
        {
            let _btr = ap3esm_obs::span("barotropic");
            for _ in 0..nbt {
                self.barotropic_substep(rank, forcing, dt_btr)?;
            }
        }

        let _bcl = ap3esm_obs::span("baroclinic");
        let dt = self.config.dt_baroclinic;
        let nlev = self.state.nlev;
        let stride = self.state.stride;
        let slab = self.state.eta.len();
        let OcnWorkspace {
            u_old,
            v_old,
            t_old,
            s_old,
            press,
            kq,
            factors,
            col,
            ..
        } = &mut self.ws;

        // --- Baroclinic pressure: p[k]/ρ0 = g·η + g·Σ (ρ'−ρ0)/ρ0·dz ---
        {
            let st = &self.state;
            for (idx, &eta) in st.eta.iter().enumerate() {
                let mut acc = G * eta;
                for k in 0..nlev {
                    let rho = density(st.t[k][idx], st.s[k][idx]);
                    acc += G * (rho - RHO0) / RHO0 * st.dz[k];
                    press[k * slab + idx] = acc;
                }
            }
        }

        // --- Momentum + tracer advection per level (old-field copies for
        //     neighbor reads keep the update order-independent). ---
        snapshot(u_old, &self.state.u, slab);
        snapshot(v_old, &self.state.v, slab);
        snapshot(t_old, &self.state.t, slab);
        snapshot(s_old, &self.state.s, slab);
        let r_drag = self.config.r_drag;
        let columns = ColumnLoop {
            exclude_land: self.config.exclude_land,
            active: &self.active,
        };
        columns.for_each(&mut self.state, |st, _i, j, idx| {
            let kmax = st.kmt[idx] as usize;
            let (e, w, n, s_) = (idx + 1, idx - 1, idx + stride, idx - stride);
            for k in 0..kmax {
                let ocean = |nb: usize| (k as u16) < st.kmt[nb];
                let level = k * slab..(k + 1) * slab;
                // Pressure gradient (masked one-sided fallbacks).
                let p = &press[level.clone()];
                let dpdx = if ocean(e) && ocean(w) {
                    (p[e] - p[w]) / (2.0 * st.dx[j])
                } else if ocean(e) {
                    (p[e] - p[idx]) / st.dx[j]
                } else if ocean(w) {
                    (p[idx] - p[w]) / st.dx[j]
                } else {
                    0.0
                };
                let dpdy = if ocean(n) && ocean(s_) {
                    (p[n] - p[s_]) / (2.0 * st.dy)
                } else if ocean(n) {
                    (p[n] - p[idx]) / st.dy
                } else if ocean(s_) {
                    (p[idx] - p[s_]) / st.dy
                } else {
                    0.0
                };
                let (uo, vo) = (u_old[level.start + idx], v_old[level.start + idx]);
                let du = dt * (-dpdx - r_drag * uo);
                let dv = dt * (-dpdy - r_drag * vo);
                let (u1, v1) = (uo + du, vo + dv);
                let a = dt * st.fcor[j];
                let denom = 1.0 + a * a;
                st.u[k][idx] = (u1 + a * v1) / denom;
                st.v[k][idx] = (v1 - a * u1) / denom;

                // Upwind advection of T, S by the old velocity.
                let adv = |old: &[f64]| -> f64 {
                    let field = &old[level.clone()];
                    let fx = if uo >= 0.0 {
                        let upw = if ocean(w) { field[w] } else { field[idx] };
                        uo * (field[idx] - upw) / st.dx[j]
                    } else {
                        let upw = if ocean(e) { field[e] } else { field[idx] };
                        uo * (upw - field[idx]) / st.dx[j]
                    };
                    let fy = if vo >= 0.0 {
                        let upw = if ocean(s_) { field[s_] } else { field[idx] };
                        vo * (field[idx] - upw) / st.dy
                    } else {
                        let upw = if ocean(n) { field[n] } else { field[idx] };
                        vo * (upw - field[idx]) / st.dy
                    };
                    -(fx + fy)
                };
                st.t[k][idx] += dt * adv(t_old);
                st.s[k][idx] += dt * adv(s_old);
            }
        });

        // --- Vertical mixing (implicit) + surface forcing per column: the
        //     matrix depends on the column's diffusivities only, so it is
        //     factored once and solved for T, S, u, v in turn. ---
        let mixing = self.mixing;
        self.columns_visited = columns.for_each(&mut self.state, |st, i, j, idx| {
            let kmax = st.kmt[idx] as usize;
            if kmax == 0 {
                return;
            }
            let fi = j * ni + i;
            // Interface diffusivities from Ri.
            let kq = &mut kq[..kmax - 1];
            for (k, kq_k) in kq.iter_mut().enumerate() {
                let dzi = 0.5 * (st.dz[k] + st.dz[k + 1]);
                let n2 = crate::eos::brunt_vaisala_sq(
                    st.t[k][idx],
                    st.s[k][idx],
                    st.t[k + 1][idx],
                    st.s[k + 1][idx],
                    dzi,
                );
                let du = (st.u[k][idx] - st.u[k + 1][idx]) / dzi;
                let dv = (st.v[k][idx] - st.v[k + 1][idx]) / dzi;
                *kq_k = mixing.diffusivity(n2, du * du + dv * dv);
            }
            mixing.factor(&st.dz[..kmax], kq, dt, factors);
            // Gather a column, solve, scatter.
            let col = &mut col[..kmax];
            let mut diffuse = |field: &mut [Vec<f64>], surface_flux: f64| {
                for (c, level) in col.iter_mut().zip(field.iter()) {
                    *c = level[idx];
                }
                mixing.solve(factors, col, surface_flux);
                for (c, level) in col.iter().zip(field.iter_mut()) {
                    level[idx] = *c;
                }
            };
            let heat_flux = forcing.qnet[fi] / (RHO0 * CP_SEAWATER); // K·m/s
            diffuse(&mut st.t, heat_flux);
            diffuse(&mut st.s, forcing.salt_flux[fi]);
            diffuse(&mut st.u, forcing.taux[fi] / RHO0);
            diffuse(&mut st.v, forcing.tauy[fi] / RHO0);
        });

        // --- Refresh 3-D halos for the next step: one packed message per
        //     neighbor per level (u, v, T, S together). ---
        let st = &mut self.state;
        for k in 0..nlev {
            self.halo3d.exchange_many(
                rank,
                &mut [
                    &mut st.u[k][..],
                    &mut st.v[k][..],
                    &mut st.t[k][..],
                    &mut st.s[k][..],
                ],
            )?;
        }
        Ok(())
    }

    /// Volume anomaly ∫η dA over the local interior (conservation checks).
    pub fn local_volume_anomaly(&self) -> f64 {
        let st = &self.state;
        let mut v = 0.0;
        for j in 0..st.nj {
            for i in 0..st.ni {
                let idx = st.at(i, j);
                if st.kmt[idx] > 0 {
                    v += st.eta[idx] * st.dx[j] * st.dy;
                }
            }
        }
        v
    }

    /// Fraction of 3-D points actually visited vs the dense box — the
    /// Fig. 5 resource-reduction number for this rank.
    pub fn exclusion_ratio(&self) -> f64 {
        let st = &self.state;
        let active: usize = self
            .active
            .iter()
            .map(|&(i, j)| st.kmt[st.at(i, j)] as usize)
            .sum();
        active as f64 / (st.ni * st.nj * st.nlev) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap3esm_comm::World;
    use ap3esm_grid::mask::MaskGenerator;

    fn grid(nlev: usize) -> TripolarGrid {
        TripolarGrid::new(36, 24, nlev, MaskGenerator::default())
    }

    fn run_steps(px: usize, py: usize, steps: usize, exclude: bool) -> Vec<Vec<f64>> {
        let g = grid(6);
        let mut config = OcnConfig::for_grid(36, 24, 6, px, py);
        config.exclude_land = exclude;
        let world = World::new(px * py);
        world.run(|rank| {
            let decomp = BlockDecomp2d::new(36, 24, px, py);
            let mut model = OcnModel::new(&g, config.clone(), rank.id());
            let forcing = OcnForcing::climatology(&g, &decomp, rank.id());
            for _ in 0..steps {
                model.step(rank, &forcing);
            }
            // Return the interior SST row-major for comparison.
            let st = &model.state;
            let mut out = Vec::new();
            for j in 0..st.nj {
                for i in 0..st.ni {
                    out.push(st.t[0][st.at(i, j)]);
                }
            }
            out
        })
    }

    #[test]
    fn model_runs_stably_with_forcing() {
        let g = grid(6);
        let config = OcnConfig::for_grid(36, 24, 6, 1, 1);
        let world = World::new(1);
        world.run(|rank| {
            let decomp = BlockDecomp2d::new(36, 24, 1, 1);
            let mut model = OcnModel::new(&g, config.clone(), 0);
            let forcing = OcnForcing::climatology(&g, &decomp, 0);
            for _ in 0..10 {
                model.step(rank, &forcing);
            }
            let st = &model.state;
            assert!(st.eta.iter().all(|v| v.is_finite()));
            assert!(st.t[0].iter().all(|v| v.is_finite() && *v > -5.0 && *v < 45.0));
            // Wind forcing must spin up currents.
            assert!(model.state.kinetic_energy() > 0.0);
            let max_speed = st
                .surface_speed()
                .into_iter()
                .fold(0.0f64, f64::max);
            assert!(max_speed > 1e-6 && max_speed < 5.0, "speed {max_speed}");
        });
    }

    #[test]
    fn volume_conserved_without_forcing() {
        let g = grid(4);
        let config = OcnConfig::for_grid(36, 24, 4, 1, 1);
        let world = World::new(1);
        world.run(|rank| {
            let mut model = OcnModel::new(&g, config.clone(), 0);
            // Seed an η anomaly, no forcing.
            let idx = model.state.at(10, 12);
            if model.state.kmt[idx] > 0 {
                model.state.eta[idx] = 0.5;
            }
            let forcing = OcnForcing::zeros(model.state.ni, model.state.nj);
            let v0 = model.local_volume_anomaly();
            for _ in 0..20 {
                model.step(rank, &forcing);
            }
            let v1 = model.local_volume_anomaly();
            assert!(
                (v1 - v0).abs() <= v0.abs() * 1e-9 + 1e-3,
                "volume drift {v0} -> {v1}"
            );
        });
    }

    #[test]
    fn forcing_for_another_block_is_refused_at_entry() {
        let g = grid(4);
        let config = OcnConfig::for_grid(36, 24, 4, 1, 1);
        let messages = World::new(1).run(|rank| {
            let mut model = OcnModel::new(&g, config.clone(), 0);
            // A forcing sized for one block of a 2×2 mesh.
            let forcing = OcnForcing::zeros(18, 12);
            let step = std::panic::AssertUnwindSafe(|| model.step(rank, &forcing));
            let panic = std::panic::catch_unwind(step).expect_err("step accepted the forcing");
            panic.downcast_ref::<String>().cloned().unwrap_or_default()
        });
        assert!(
            messages[0].contains("OcnForcing::taux was built for another block")
                && messages[0].contains("ni × nj = 36 × 24"),
            "{}",
            messages[0]
        );
    }

    #[test]
    fn exclusion_and_dense_paths_agree_bitwise() {
        let a = run_steps(1, 1, 5, true);
        let b = run_steps(1, 1, 5, false);
        assert_eq!(a[0].len(), b[0].len());
        for (x, y) in a[0].iter().zip(&b[0]) {
            assert_eq!(x.to_bits(), y.to_bits(), "exclusion changed results");
        }
    }

    #[test]
    fn one_rank_and_four_ranks_agree() {
        let serial = run_steps(1, 1, 3, true);
        let parallel = run_steps(2, 2, 3, true);
        // Reassemble the 2×2 fields into the global layout.
        let decomp = BlockDecomp2d::new(36, 24, 2, 2);
        let mut global = vec![f64::NAN; 36 * 24];
        for (r, field) in parallel.iter().enumerate() {
            let b = decomp.block(r);
            for j in 0..b.nj() {
                for i in 0..b.ni() {
                    global[(b.j0 + j) * 36 + (b.i0 + i)] = field[j * b.ni() + i];
                }
            }
        }
        for (k, (x, y)) in serial[0].iter().zip(&global).enumerate() {
            assert!(
                (x - y).abs() < 1e-9,
                "cell {k}: serial {x} vs parallel {y}"
            );
        }
    }

    #[test]
    fn exclusion_ratio_matches_grid_activity() {
        let g = grid(6);
        let config = OcnConfig::for_grid(36, 24, 6, 1, 1);
        let model = OcnModel::new(&g, config, 0);
        let ratio = model.exclusion_ratio();
        assert!(
            (ratio - g.active_fraction()).abs() < 1e-12,
            "ratio {ratio} vs grid {}",
            g.active_fraction()
        );
        // The paper's ~30 % reduction regime: a substantial share skipped.
        assert!(ratio < 0.9);
    }

    #[test]
    fn tracers_stay_within_physical_bounds() {
        let g = grid(6);
        let config = OcnConfig::for_grid(36, 24, 6, 1, 1);
        let world = World::new(1);
        world.run(|rank| {
            let decomp = BlockDecomp2d::new(36, 24, 1, 1);
            let mut model = OcnModel::new(&g, config.clone(), 0);
            let forcing = OcnForcing::climatology(&g, &decomp, 0);
            for _ in 0..15 {
                model.step(rank, &forcing);
            }
            for k in 0..model.state.nlev {
                for &(i, j) in &model.state.active_columns() {
                    let idx = model.state.at(i, j);
                    if model.state.is_ocean(i, j, k) {
                        let t = model.state.t[k][idx];
                        let s = model.state.s[k][idx];
                        assert!((-3.0..45.0).contains(&t), "T out of bounds: {t}");
                        assert!((30.0..40.0).contains(&s), "S out of bounds: {s}");
                    }
                }
            }
        });
    }
}
