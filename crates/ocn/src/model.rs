//! The ocean model driver: split time stepping, halo exchange, masking and
//! the point-exclusion loop path.

use std::sync::Arc;

use ap3esm_comm::{CommError, HaloExchange, Rank};
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_pp::{for_chunks_mut, for_level_chunks_mut, ExecSpace, Isa, PerLane, Serial};

use crate::barotropic::{inv_rho_h, wind_accel, BtrInputs, Continuity, Momentum};
use crate::mixing::{reciprocal_thickness, tile_scratch_len, CanutoMixing, MixInputs, RowMixing};
use crate::state::OcnState;
use crate::sweep::{stage_row_len, RowFactors, RowSweep, SweepInputs, WetSpans};

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
    /// §5.2.2 point exclusion on/off (the Fig. 5 ablation switch), read
    /// when the model is built.
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
        let dx_km =
            40_000.0 / nlon as f64 * ap3esm_grid::tripolar::POLAR_CAP_DEG.to_radians().cos();
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
/// [`OcnModel::new`], so that a step allocates nothing but the payloads of
/// halo messages to other ranks. Contents are dead between steps.
struct OcnWorkspace {
    /// The wind's depth-mean acceleration `τ · (1/ρ₀H)` of every interior
    /// cell this step, zonal and meridional, laid out as the slab.
    wind: [Vec<f64>; 2],
    /// The advected `(T, S, u, v)` of every interior row
    /// ([`stage_row_len`] values each), from the row sweeps that compute
    /// them to the mixing that reads them.
    stage: Vec<f64>,
    /// One set per lane, for the rows it sweeps and mixes.
    lanes: PerLane<LaneScratch>,
    /// Per interior row, the reciprocal geometry and rotation of this step
    /// ([`RowFactors`]), so that no phase divides by them per point.
    rows: Vec<RowFactors>,
    /// `1/dz` per level and `1/dzᵢ` per interface
    /// ([`reciprocal_thickness`]).
    inv_dz: Vec<f64>,
    inv_dzi: Vec<f64>,
}

/// A lane's scratch: the pressure of the rows it sweeps, one level at a
/// time (a slab's worth, enough for any range of rows), and the levels and
/// factors of the tile of columns it mixes ([`tile_scratch_len`]).
struct LaneScratch {
    press: Vec<f64>,
    mix: Vec<f64>,
}

impl OcnWorkspace {
    fn new(slab: usize, nlev: usize, nj: usize, row_len: usize) -> Self {
        OcnWorkspace {
            wind: [vec![0.0; slab], vec![0.0; slab]],
            stage: vec![0.0; nj * row_len],
            lanes: PerLane::default(),
            rows: vec![RowFactors::default(); nj],
            inv_dz: Vec::with_capacity(nlev),
            inv_dzi: Vec::with_capacity(nlev),
        }
    }
}

/// The two phases of a barotropic substep.
#[derive(Clone, Copy)]
enum BtrPhase {
    Continuity,
    Momentum,
}

/// The assembled per-rank ocean model.
pub struct OcnModel {
    pub config: OcnConfig,
    pub state: OcnState,
    halo2d: HaloExchange,
    halo3d: HaloExchange,
    mixing: CanutoMixing,
    /// `1/(ρ₀·max(H, 1))` of every slab cell ([`inv_rho_h`]).
    inv_rho_h: Vec<f64>,
    /// The §5.2.2 loop policy: each row's wet run per level, or the whole
    /// row, which the sweeps cover at every level and mixing at level 0.
    spans: WetSpans,
    /// The columns the policy mixes a step: the active ones when
    /// `exclude_land`, else every cell of the box, land included.
    columns: usize,
    ws: OcnWorkspace,
    /// Where the phases of a step run.
    space: Arc<dyn ExecSpace>,
    /// The compilation every kernel of a step runs.
    isa: Isa,
    /// Columns visited last step (exclusion accounting for Fig. 5).
    pub columns_visited: usize,
}

impl OcnModel {
    /// The model of `rank_id`'s block; steps on one lane until a space is
    /// attached with [`OcnModel::on`].
    pub fn new(grid: &TripolarGrid, config: OcnConfig, rank_id: usize) -> Self {
        let decomp = BlockDecomp2d::new(config.nlon, config.nlat, config.px, config.py);
        let state = OcnState::new(grid, &decomp, rank_id);
        let mut spec = decomp.halo_spec(rank_id);
        spec.rank += config.rank_offset;
        for link in spec.sends.iter_mut().chain(spec.recvs.iter_mut()) {
            link.peer += config.rank_offset;
        }
        let halo2d = HaloExchange::new(spec.clone(), 100);
        // The 3-D refresh: each 2-D link's cells at every level's offset.
        let slab = state.eta.len();
        for link in spec.sends.iter_mut().chain(spec.recvs.iter_mut()) {
            link.indices = (0..state.nlev)
                .flat_map(|k| link.indices.iter().map(move |&idx| k * slab + idx))
                .collect();
        }
        let halo3d = HaloExchange::new(spec, 200);
        let columns = match config.exclude_land {
            true => state.active_columns().len(),
            false => state.ni * state.nj,
        };
        let spans = WetSpans::new(&state.kmt, state.stride, state.nlev, config.exclude_land);
        let row_len = stage_row_len(state.nlev, state.ni);
        let ws = OcnWorkspace::new(slab, state.nlev, state.nj, row_len);
        let inv_rho_h = inv_rho_h(&state.depth);
        OcnModel {
            config,
            state,
            halo2d,
            halo3d,
            mixing: CanutoMixing::default(),
            inv_rho_h,
            columns,
            spans,
            ws,
            space: Arc::new(Serial),
            isa: Isa::detect(),
            columns_visited: 0,
        }
    }

    /// Run every phase of a step on `space`. The answer does not depend on
    /// it, bit for bit.
    pub fn on(mut self, space: Arc<dyn ExecSpace>) -> Self {
        self.space = space;
        self
    }

    /// The space the phases run on.
    pub fn space(&self) -> &Arc<dyn ExecSpace> {
        &self.space
    }

    /// Run every kernel of a step compiled for `isa` instead of the widest
    /// compilation this CPU runs: the tests' hook. The answer does not
    /// depend on it, bit for bit. Panics if this CPU cannot run `isa`.
    pub fn with_isa(mut self, isa: Isa) -> Self {
        assert!(isa.available(), "{isa} kernels on a CPU without it");
        self.isa = isa;
        self
    }

    /// One barotropic substep (forward-backward, rotation-implicit
    /// Coriolis): continuity and momentum, each a phase over the slab's
    /// rows that updates its fields' wet cells in place, each followed by
    /// the halo exchange of what it wrote.
    fn barotropic_substep(&mut self, rank: &Rank, dt: f64) -> Result<(), CommError> {
        self.barotropic_phase(BtrPhase::Continuity, dt);
        self.halo2d.exchange(rank, &mut self.state.eta)?;
        self.barotropic_phase(BtrPhase::Momentum, dt);
        let OcnState { ubar, vbar, .. } = &mut self.state;
        self.halo2d.exchange_many(rank, &mut [ubar, vbar])?;
        Ok(())
    }

    /// One phase of a barotropic substep over the slab's rows
    /// ([`Continuity`] into `η`, [`Momentum`] into `ū, v̄`), at the model's
    /// compilation, from this step's reciprocals and wind.
    fn barotropic_phase(&mut self, phase: BtrPhase, dt: f64) {
        let OcnState {
            nj,
            stride,
            eta,
            ubar,
            vbar,
            kmt,
            depth,
            dx_ext,
            dy,
            fcor,
            ..
        } = &mut self.state;
        let [wind_x, wind_y] = &self.ws.wind;
        let step = BtrInputs {
            stride: *stride,
            kmt,
            depth,
            dx_ext,
            fcor,
            rows: &self.ws.rows,
            spans: &self.spans,
            wind: [wind_x, wind_y],
            dy: *dy,
            inv_dy: 1.0 / *dy,
            dt,
            r_drag: self.config.r_drag,
        };
        let (space, isa, nrows) = (&*self.space, self.isa, *nj + 2);
        match phase {
            BtrPhase::Continuity => {
                let (ubar, vbar) = (&ubar[..], &vbar[..]);
                for_chunks_mut(space, nrows, [&mut eta[..]], |rows, [eta]| {
                    isa.run(Continuity {
                        step: &step,
                        rows,
                        ubar,
                        vbar,
                        eta,
                    })
                });
            }
            BtrPhase::Momentum => {
                let eta = &eta[..];
                let fields = [&mut ubar[..], &mut vbar[..]];
                for_chunks_mut(space, nrows, fields, |rows, [ubar, vbar]| {
                    isa.run(Momentum {
                        step: &step,
                        rows,
                        eta,
                        ubar,
                        vbar,
                    })
                });
            }
        }
    }

    /// Fill the workspace's reciprocal tables for a step whose barotropic
    /// substep is `dt_btr` long: per interior row 1/dx, 1/(dx·dy) and the
    /// two rotation factors, per level 1/dz and per interface 1/dzᵢ. A row's
    /// reciprocals come from its global row's geometry, the same on every
    /// rank, so the tables do not depend on the decomposition.
    fn take_reciprocals(&mut self, dt_btr: f64) {
        let OcnState {
            dx, dy, fcor, dz, ..
        } = &self.state;
        let dt = self.config.dt_baroclinic;
        for ((row, &dx), &f) in self.ws.rows.iter_mut().zip(dx).zip(fcor) {
            let (a_btr, a) = (dt_btr * f, dt * f);
            *row = RowFactors {
                inv_dx: 1.0 / dx,
                inv_area: 1.0 / (dx * dy),
                rot_btr: 1.0 / (1.0 + a_btr * a_btr),
                rot: 1.0 / (1.0 + a * a),
            };
        }
        reciprocal_thickness(dz, &mut self.ws.inv_dz, &mut self.ws.inv_dzi);
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
    /// Every loop over the block is a phase on the model's execution space
    /// whose kernels write the outputs of their own rows or columns only;
    /// the halo exchanges between phases stay on the calling thread.
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
        self.take_reciprocals(dt_btr);
        let OcnState { ni, stride, .. } = self.state;
        wind_accel(forcing, &self.inv_rho_h, ni, stride, &mut self.ws.wind);
        {
            let _btr = ap3esm_obs::span("barotropic");
            for _ in 0..nbt {
                self.barotropic_substep(rank, dt_btr)?;
            }
        }

        let _bcl = ap3esm_obs::span("baroclinic");
        let space = &*self.space;
        let (dt, r_drag, mixing) = (self.config.dt_baroclinic, self.config.r_drag, self.mixing);
        let OcnState {
            nlev,
            stride,
            eta,
            u,
            v,
            t,
            s,
            kmt,
            dy,
            fcor,
            dz,
            ..
        } = &mut self.state;
        let (nlev, stride, inv_dy) = (*nlev, *stride, 1.0 / *dy);
        let slab = eta.len();
        let (eta, kmt, fcor, dz) = (&eta[..], &kmt[..], &fcor[..], &dz[..]);
        let OcnWorkspace {
            stage,
            lanes,
            rows: row_factors,
            inv_dz,
            inv_dzi,
            ..
        } = &mut self.ws;
        let (inv_dz, inv_dzi) = (&inv_dz[..], &inv_dzi[..]);
        lanes.grow(space.concurrency(), || LaneScratch {
            press: vec![0.0; slab],
            mix: vec![0.0; tile_scratch_len(nlev)],
        });
        let lanes = &*lanes;
        let isa = self.isa;

        // --- Over rows: per level, the pressure of the lane's rows and one
        //     row either side, then momentum and upwind advection across each
        //     row's span of that level, into the rows' part of the stage
        //     (`sweep`). Nothing here writes the state, so neighbor reads see
        //     the start-of-step fields with no copy kept. ---
        {
            let step = SweepInputs {
                ni,
                stride,
                nlev,
                eta,
                u: &u[..],
                v: &v[..],
                t: &t[..],
                s: &s[..],
                kmt,
                dz,
                fcor,
                rows: row_factors,
                spans: &self.spans,
                inv_dy,
                dt,
                r_drag,
            };
            for_chunks_mut(space, nj, [&mut stage[..]], |rows, [out]| {
                let mut lane = lanes.take();
                isa.run(RowSweep {
                    step: &step,
                    rows,
                    press: &mut lane.press,
                    out,
                });
            });
        }

        // --- Over rows again: implicit vertical mixing with the surface
        //     forcing, each row's columns in tiles from the stage, the mixed
        //     levels stored into the lane's rows of the state at every level
        //     (`mixing::RowMixing`). ---
        {
            let step = MixInputs {
                ni,
                stride,
                nlev,
                stage,
                kmt,
                spans: &self.spans,
                inv_dz,
                inv_dzi,
                forcing,
                mixing,
                dt,
            };
            let fields = [&mut t[..], &mut s[..], &mut u[..], &mut v[..]];
            for_level_chunks_mut(space, nj + 2, slab, fields, |rows, out| {
                let mut lane = lanes.take();
                isa.run(RowMixing {
                    step: &step,
                    rows,
                    out,
                    scratch: &mut lane.mix,
                });
            });
        }
        self.columns_visited = self.columns;

        // --- Refresh 3-D halos for the next step: one packed message per
        //     neighbor rank (u, v, T, S, every level), a copy per self-link. ---
        self.halo3d
            .exchange_many(rank, &mut [&mut u[..], &mut v[..], &mut t[..], &mut s[..]])?;
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
        let active: usize = (0..st.nj)
            .flat_map(|j| (0..st.ni).map(move |i| st.kmt[st.at(i, j)] as usize))
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

    /// Interior SST per rank after `steps` steps on teams of `lanes`.
    fn run_steps(px: usize, py: usize, steps: usize, exclude: bool, lanes: usize) -> Vec<Vec<f64>> {
        let g = grid(6);
        let mut config = OcnConfig::for_grid(36, 24, 6, px, py);
        config.exclude_land = exclude;
        let world = World::new(px * py);
        world.run(|rank| {
            let decomp = BlockDecomp2d::new(36, 24, px, py);
            let mut model = OcnModel::new(&g, config.clone(), rank.id())
                .on(Arc::new(ap3esm_pp::Threads::new(lanes)));
            let forcing = OcnForcing::climatology(&g, &decomp, rank.id());
            for _ in 0..steps {
                model.step(rank, &forcing);
            }
            // Return the interior SST row-major for comparison.
            let st = &model.state;
            let mut out = Vec::new();
            for j in 0..st.nj {
                for i in 0..st.ni {
                    out.push(st.t[st.at(i, j)]);
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
            let sst = &st.t[..st.eta.len()];
            assert!(sst.iter().all(|v| v.is_finite() && *v > -5.0 && *v < 45.0));
            // Wind forcing must spin up currents.
            assert!(model.state.kinetic_energy() > 0.0);
            let max_speed = st.surface_speed().into_iter().fold(0.0f64, f64::max);
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

    /// The 3-D refresh is one packed message per peer link, whatever
    /// `nlev`: a 2×1 mesh's blocks each have two links to the other rank
    /// (east and west), which carry `2·n_barotropic` 2-D exchanges and one
    /// 3-D exchange a step; a 1×1 block's two links are self-links, copies
    /// that send nothing.
    #[test]
    fn one_three_d_halo_message_per_link_per_step() {
        let g = grid(6);
        for (px, peer_links) in [(2, 2), (1, 0)] {
            let config = OcnConfig::for_grid(36, 24, 6, px, 1);
            let world = World::new(px);
            world.run(|rank| {
                let forcing = OcnForcing::zeros(36 / px, 24);
                OcnModel::new(&g, config.clone(), rank.id()).step(rank, &forcing)
            });
            let exchanges = 2 * config.n_barotropic + 1;
            let messages = px * peer_links * exchanges;
            assert_eq!(world.stats().total_messages(), messages as u64, "{px} × 1");
        }
    }

    #[test]
    fn exclusion_and_dense_paths_agree_bitwise() {
        let bits = |exclude: bool, lanes: usize| -> Vec<u64> {
            let sst = run_steps(1, 1, 5, exclude, lanes).swap_remove(0);
            sst.iter().map(|v| v.to_bits()).collect()
        };
        let packed = bits(true, 1);
        assert_eq!(packed.len(), 36 * 24);
        assert_eq!(packed, bits(false, 1), "exclusion changed results");
        assert_eq!(packed, bits(true, 2), "two lanes, packed list");
        assert_eq!(packed, bits(false, 2), "two lanes, dense box");
    }

    /// Fig. 5's count: the packed list's length against the dense box's
    /// `ni × nj`, whatever the team; and without exclusion the row sweeps
    /// visit the dense box too, every level of every interior row whole.
    #[test]
    fn columns_visited_is_the_loop_policys_list_length() {
        let g = grid(6);
        for (exclude, lanes) in [(true, 1), (true, 3), (false, 1), (false, 3)] {
            let mut config = OcnConfig::for_grid(36, 24, 6, 1, 1);
            config.exclude_land = exclude;
            let visited = World::new(1).run(|rank| {
                let mut model = OcnModel::new(&g, config.clone(), 0)
                    .on(Arc::new(ap3esm_pp::Threads::new(lanes)));
                model.step(rank, &OcnForcing::zeros(36, 24));
                let swept = model.spans.swept_points();
                (
                    model.columns_visited,
                    model.state.active_columns().len(),
                    swept,
                )
            });
            let (visited, active, swept) = visited[0];
            assert!(active < 36 * 24, "some land must exist");
            let expect = if exclude { active } else { 36 * 24 };
            assert_eq!(visited, expect, "exclude {exclude}, {lanes} lanes");
            let dense_box = 36 * 24 * 6;
            if exclude {
                assert!(swept < dense_box, "{swept} points swept of {dense_box}");
            } else {
                assert_eq!(swept, dense_box, "{lanes} lanes");
            }
        }
    }

    /// Mixing writes a column's wet levels and nothing else: with every
    /// level at or below each column's `kmt` and every land column holding
    /// a NaN sentinel, a step leaves those cells' bits as they were and the
    /// wet cells as they are without the sentinel, under both loop
    /// policies, on one lane and two, under every compilation.
    #[test]
    fn dry_levels_and_land_keep_their_bits() {
        let sentinel = f64::from_bits(0x7ff8_0000_dead_beef);
        let g = grid(6);
        for exclude in [true, false] {
            let mut config = OcnConfig::for_grid(36, 24, 6, 1, 1);
            config.exclude_land = exclude;
            World::new(1).run(|rank| {
                let decomp = BlockDecomp2d::new(36, 24, 1, 1);
                let forcing = OcnForcing::climatology(&g, &decomp, 0);
                let step = |isa: Isa, lanes: usize, fill: bool| -> [Vec<f64>; 4] {
                    let mut model = OcnModel::new(&g, config.clone(), 0)
                        .on(Arc::new(ap3esm_pp::Threads::new(lanes)))
                        .with_isa(isa);
                    let st = &mut model.state;
                    let slab = st.eta.len();
                    let cells: Vec<usize> = (0..st.nj)
                        .flat_map(|j| (0..st.ni).map(move |i| (i, j)))
                        .map(|(i, j)| st.at(i, j))
                        .filter(|_| fill)
                        .collect();
                    for idx in cells {
                        for k in st.kmt[idx] as usize..st.nlev {
                            for f in [&mut st.t, &mut st.s, &mut st.u, &mut st.v] {
                                f[k * slab + idx] = sentinel;
                            }
                        }
                    }
                    model.step(rank, &forcing);
                    let st = model.state;
                    [st.t, st.s, st.u, st.v]
                };
                let plain = step(Isa::Portable, 1, false);
                let st = OcnModel::new(&g, config.clone(), 0).state;
                let slab = st.eta.len();
                for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
                    for lanes in [1, 2] {
                        let filled = step(isa, lanes, true);
                        for (f, (got, want)) in filled.iter().zip(&plain).enumerate() {
                            for (i, j) in (0..st.nj).flat_map(|j| (0..st.ni).map(move |i| (i, j))) {
                                let idx = st.at(i, j);
                                for k in 0..st.nlev {
                                    let (got, want) = (got[k * slab + idx], want[k * slab + idx]);
                                    let want = match k < st.kmt[idx] as usize {
                                        true => want,
                                        false => sentinel,
                                    };
                                    assert_eq!(
                                        got.to_bits(),
                                        want.to_bits(),
                                        "exclude {exclude}, {isa}, {lanes} lane(s), field {f}, \
                                         cell ({i}, {j}) of kmt {}, level {k}",
                                        st.kmt[idx]
                                    );
                                }
                            }
                        }
                    }
                }
            });
        }
    }

    /// The barotropic phases write the wet interior cells of `η, ū, v̄`
    /// and nothing else: with NaN or −0 in every land cell and the ghost
    /// rows and columns as the last exchange left them, continuity and
    /// momentum (without their exchanges) leave every land, ghost-row and
    /// ghost-column cell's bits as they were and compute the wet cells as a
    /// run without the sentinels does, under both loop policies, on one
    /// lane and two, under every compilation.
    #[test]
    fn barotropic_phases_write_wet_cells_only() {
        let g = grid(6);
        for exclude in [true, false] {
            let mut config = OcnConfig::for_grid(36, 24, 6, 1, 1);
            config.exclude_land = exclude;
            let dt = config.dt_baroclinic / config.n_barotropic as f64;
            World::new(1).run(|rank| {
                let decomp = BlockDecomp2d::new(36, 24, 1, 1);
                let forcing = OcnForcing::climatology(&g, &decomp, 0);
                let land = [f64::from_bits(0x7ff8_0000_dead_beef), -0.0, f64::NAN];
                let phases = |isa: Isa, lanes: usize, fill: bool| -> [[Vec<f64>; 3]; 2] {
                    let mut model = OcnModel::new(&g, config.clone(), 0)
                        .on(Arc::new(ap3esm_pp::Threads::new(lanes)))
                        .with_isa(isa);
                    model.step(rank, &forcing);
                    let st = &mut model.state;
                    for (f, field) in [&mut st.eta, &mut st.ubar, &mut st.vbar]
                        .into_iter()
                        .enumerate()
                    {
                        for (idx, (x, &k)) in field.iter_mut().zip(&st.kmt).enumerate() {
                            if fill && k == 0 {
                                *x = land[(idx + f) % land.len()];
                            }
                        }
                    }
                    let before = [st.eta.clone(), st.ubar.clone(), st.vbar.clone()];
                    model.barotropic_phase(BtrPhase::Continuity, dt);
                    model.barotropic_phase(BtrPhase::Momentum, dt);
                    let st = model.state;
                    [before, [st.eta, st.ubar, st.vbar]]
                };
                let [_, plain] = phases(Isa::Portable, 1, false);
                let st = OcnModel::new(&g, config.clone(), 0).state;
                let written = |idx: usize| {
                    let (jj, ii) = (idx / st.stride, idx % st.stride);
                    (1..=st.nj).contains(&jj) && (1..=st.ni).contains(&ii) && st.kmt[idx] > 0
                };
                for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
                    for lanes in [1, 2] {
                        let [before, after] = phases(isa, lanes, true);
                        for f in 0..3 {
                            for idx in 0..st.eta.len() {
                                let want = match written(idx) {
                                    true => plain[f][idx],
                                    false => before[f][idx],
                                };
                                assert_eq!(
                                    after[f][idx].to_bits(),
                                    want.to_bits(),
                                    "exclude {exclude}, {isa}, {lanes} lane(s), field {f}, \
                                     slab cell {idx} of kmt {}",
                                    st.kmt[idx]
                                );
                            }
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn one_rank_and_four_ranks_agree() {
        let serial = run_steps(1, 1, 3, true, 1);
        let parallel = run_steps(2, 2, 3, true, 1);
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
            assert!((x - y).abs() < 1e-9, "cell {k}: serial {x} vs parallel {y}");
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
            let slab = model.state.eta.len();
            for k in 0..model.state.nlev {
                for &(i, j) in &model.state.active_columns() {
                    let idx = k * slab + model.state.at(i, j);
                    if model.state.is_ocean(i, j, k) {
                        let t = model.state.t[idx];
                        let s = model.state.s[idx];
                        assert!((-3.0..45.0).contains(&t), "T out of bounds: {t}");
                        assert!((30.0..40.0).contains(&s), "S out of bounds: {s}");
                    }
                }
            }
        });
    }
}
