//! Ocean state: one rank's block of the tripolar grid, with one-cell halos.

use ap3esm_grid::decomp::{Block, BlockDecomp2d};
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_grid::vertical::ocn_z_thickness;
use ap3esm_physics::constants::coriolis;

/// Per-rank prognostic state. 2-D slabs are `(nj+2) × (ni+2)` row-major
/// with a one-cell ghost rim; interior cell `(i, j)` lives at
/// `idx = (j+1)·stride + (i+1)`. 3-D fields are level-major `nlev × slab`,
/// level `k` of cell `idx` at `k·slab + idx` (the atmosphere's `k·n + i`),
/// so the surface level is the first slab.
#[derive(Debug, Clone)]
pub struct OcnState {
    pub block: Block,
    pub ni: usize,
    pub nj: usize,
    pub nlev: usize,
    pub stride: usize,
    /// Free surface elevation (m).
    pub eta: Vec<f64>,
    /// Barotropic velocities (m/s).
    pub ubar: Vec<f64>,
    pub vbar: Vec<f64>,
    /// Baroclinic velocity, temperature (°C), salinity (psu), level-major.
    pub u: Vec<f64>,
    pub v: Vec<f64>,
    pub t: Vec<f64>,
    pub s: Vec<f64>,
    /// Active levels per local column (with ghosts).
    pub kmt: Vec<u16>,
    /// Column depth (m, with ghosts).
    pub depth: Vec<f64>,
    /// Zonal spacing per interior row (m).
    pub dx: Vec<f64>,
    /// Zonal spacing including ghost rows (index j+1 ↔ interior row j);
    /// rank-independent, so shared face lengths match across rank cuts.
    pub dx_ext: Vec<f64>,
    /// Meridional spacing (m).
    pub dy: f64,
    /// Coriolis parameter per interior row.
    pub fcor: Vec<f64>,
    /// Level thicknesses (m).
    pub dz: Vec<f64>,
}

impl OcnState {
    /// Build the local state for `rank_id` of `decomp` over `grid`, with an
    /// Earth-like initial stratification:
    /// `T(φ, z) = 2 + 26·cos²φ·exp(−z/1000)` °C, `S = 35 − 0.5·cosφ·e^{−z/500}`.
    pub fn new(grid: &TripolarGrid, decomp: &BlockDecomp2d, rank_id: usize) -> Self {
        let block = decomp.block(rank_id);
        let (ni, nj) = (block.ni(), block.nj());
        let stride = ni + 2;
        let slab = (nj + 2) * stride;
        let dz = ocn_z_thickness(grid.nlev);

        let mut kmt = vec![0u16; slab];
        let mut depth = vec![0.0; slab];
        // Fill interior + ghosts from the global grid (zonally periodic,
        // meridionally clamped — the closed tripolar seam approximation).
        for jj in 0..nj + 2 {
            let gj = (block.j0 + jj).saturating_sub(1).min(grid.nlat - 1);
            // Rows beyond the global domain are solid walls (the closed
            // tripolar seam / Antarctic coast approximation).
            let outside = (jj == 0 && block.j0 == 0) || (jj == nj + 1 && block.j1 == grid.nlat);
            for ii in 0..ni + 2 {
                let gi = (block.i0 + grid.nlon + ii - 1) % grid.nlon;
                let k = if outside {
                    0
                } else {
                    grid.kmt[grid.idx(gi, gj)]
                };
                kmt[jj * stride + ii] = k;
                depth[jj * stride + ii] = dz.iter().take(k as usize).sum();
            }
        }

        let dx_of = |gj: usize| {
            let phi = grid.lat[gj.min(grid.nlat - 1)];
            ap3esm_grid::EARTH_RADIUS * phi.cos().max(0.02) * 2.0 * std::f64::consts::PI
                / grid.nlon as f64
        };
        let dx: Vec<f64> = (0..nj).map(|j| dx_of(block.j0 + j)).collect();
        let dx_ext: Vec<f64> = (0..nj + 2)
            .map(|jj| dx_of((block.j0 + jj).saturating_sub(1)))
            .collect();
        let dy = ap3esm_grid::EARTH_RADIUS * (grid.lat[grid.nlat - 1] - grid.lat[0])
            / (grid.nlat - 1).max(1) as f64;
        let fcor: Vec<f64> = (0..nj).map(|j| coriolis(grid.lat[block.j0 + j])).collect();

        let mut t = Vec::with_capacity(grid.nlev * slab);
        let mut s = Vec::with_capacity(grid.nlev * slab);
        let mut depth_mid = 0.0;
        for &dzk in dz.iter().take(grid.nlev) {
            depth_mid += 0.5 * dzk;
            for jj in 0..nj + 2 {
                let gj = (block.j0 + jj).saturating_sub(1).min(grid.nlat - 1);
                let phi = grid.lat[gj];
                let t_surf = 2.0 + 26.0 * phi.cos().powi(2);
                let tv = 2.0 + (t_surf - 2.0) * (-depth_mid / 1000.0).exp();
                let sv = 35.0 - 0.5 * phi.cos() * (-depth_mid / 500.0).exp();
                t.resize(t.len() + stride, tv);
                s.resize(s.len() + stride, sv);
            }
            depth_mid += 0.5 * dzk;
        }

        OcnState {
            block,
            ni,
            nj,
            nlev: grid.nlev,
            stride,
            eta: vec![0.0; slab],
            ubar: vec![0.0; slab],
            vbar: vec![0.0; slab],
            u: vec![0.0; grid.nlev * slab],
            v: vec![0.0; grid.nlev * slab],
            t,
            s,
            kmt,
            depth,
            dx,
            dx_ext,
            dy,
            fcor,
            dz,
        }
    }

    /// Local index of interior cell `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.ni && j < self.nj);
        (j + 1) * self.stride + (i + 1)
    }

    /// Is local interior cell (i, j) ocean at level k?
    #[inline]
    pub fn is_ocean(&self, i: usize, j: usize, k: usize) -> bool {
        (k as u16) < self.kmt[self.at(i, j)]
    }

    /// Interior active-column list `(i, j)` (the §5.2.2 packed loop set).
    pub fn active_columns(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for j in 0..self.nj {
            for i in 0..self.ni {
                if self.kmt[self.at(i, j)] > 0 {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Local kinetic energy ∫ ½(u²+v²) dV over interior ocean points.
    pub fn kinetic_energy(&self) -> f64 {
        let slab = self.eta.len();
        let mut ke = 0.0;
        for j in 0..self.nj {
            for i in 0..self.ni {
                let idx = self.at(i, j);
                let kmax = self.kmt[idx] as usize;
                for k in 0..kmax {
                    let (u, v) = (self.u[k * slab + idx], self.v[k * slab + idx]);
                    ke += 0.5 * (u * u + v * v) * self.dx[j] * self.dy * self.dz[k];
                }
            }
        }
        ke
    }

    /// Local mean SST over ocean points (unweighted; callers reduce).
    pub fn sst_sum_count(&self) -> (f64, usize) {
        let mut sum = 0.0;
        let mut count = 0;
        for j in 0..self.nj {
            for i in 0..self.ni {
                let idx = self.at(i, j);
                if self.kmt[idx] > 0 {
                    sum += self.t[idx];
                    count += 1;
                }
            }
        }
        (sum, count)
    }

    /// Surface current speed (m/s) per interior cell, row-major `nj × ni`
    /// (land = 0) — the Fig. 1c field.
    pub fn surface_speed(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.ni * self.nj];
        for j in 0..self.nj {
            for i in 0..self.ni {
                let idx = self.at(i, j);
                if self.kmt[idx] > 0 {
                    let u = self.u[idx] + self.ubar[idx];
                    let v = self.v[idx] + self.vbar[idx];
                    out[j * self.ni + i] = (u * u + v * v).sqrt();
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap3esm_grid::mask::MaskGenerator;

    fn small() -> (TripolarGrid, BlockDecomp2d) {
        let grid = TripolarGrid::new(36, 24, 8, MaskGenerator::default());
        let decomp = BlockDecomp2d::new(36, 24, 1, 1);
        (grid, decomp)
    }

    #[test]
    fn initial_state_is_stratified_and_at_rest() {
        let (grid, decomp) = small();
        let st = OcnState::new(&grid, &decomp, 0);
        assert_eq!(st.ni, 36);
        assert_eq!(st.nj, 24);
        assert_eq!(st.kinetic_energy(), 0.0);
        // Tropics warmer than poles at the surface.
        let (sum, count) = st.sst_sum_count();
        let mean = sum / count as f64;
        assert!(mean > 5.0 && mean < 28.0, "mean SST {mean}");
        // Deep water colder than surface everywhere ocean-deep enough.
        let slab = st.eta.len();
        assert_eq!(st.t.len(), st.nlev * slab);
        for (i, j) in st.active_columns() {
            let idx = st.at(i, j);
            let kmax = st.kmt[idx] as usize;
            if kmax >= 4 {
                assert!(st.t[(kmax - 1) * slab + idx] < st.t[idx] + 1e-9);
            }
        }
    }

    #[test]
    fn active_columns_match_kmt() {
        let (grid, decomp) = small();
        let st = OcnState::new(&grid, &decomp, 0);
        let active = st.active_columns();
        let expect = (0..st.nj)
            .flat_map(|j| (0..st.ni).map(move |i| (i, j)))
            .filter(|&(i, j)| st.kmt[st.at(i, j)] > 0)
            .count();
        assert_eq!(active.len(), expect);
        assert!(!active.is_empty());
        assert!(active.len() < st.ni * st.nj, "some land must exist");
    }

    #[test]
    fn metrics_shrink_toward_poles() {
        let (grid, decomp) = small();
        let st = OcnState::new(&grid, &decomp, 0);
        // dx near the first (southern) row < dx in the tropics.
        let tropics_j = st.nj / 2;
        assert!(st.dx[0] < st.dx[tropics_j]);
        assert!(st.dy > 0.0);
        // Coriolis changes sign across the equator.
        assert!(st.fcor[0] < 0.0);
        assert!(st.fcor[st.nj - 1] > 0.0);
    }

    #[test]
    fn blocks_partition_matches_global_kmt() {
        let grid = TripolarGrid::new(36, 24, 6, MaskGenerator::default());
        let decomp = BlockDecomp2d::new(36, 24, 2, 2);
        for r in 0..4 {
            let st = OcnState::new(&grid, &decomp, r);
            for j in 0..st.nj {
                for i in 0..st.ni {
                    let gi = st.block.i0 + i;
                    let gj = st.block.j0 + j;
                    assert_eq!(st.kmt[st.at(i, j)], grid.kmt[grid.idx(gi, gj)]);
                }
            }
        }
    }
}
