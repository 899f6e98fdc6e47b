//! Atmosphere prognostic state.

use std::sync::Arc;

use ap3esm_grid::vertical::{atm_sigma_layers, atm_sigma_thickness};
use ap3esm_grid::GeodesicGrid;

use crate::P_REF;

/// Full prognostic state on a geodesic grid. Fields are flat with layout
/// `[level * ncells + cell]` (cells fastest) and `[level * nedges + edge]`.
#[derive(Debug, Clone)]
pub struct AtmState {
    pub grid: Arc<GeodesicGrid>,
    pub nlev: usize,
    /// Sigma mid-layer values, surface first: index 0 is the lowest layer
    /// (σ close to 1) and σ decreases with index.
    pub sigma: Vec<f64>,
    /// Layer sigma thicknesses (sum = 1).
    pub dsigma: Vec<f64>,
    /// Surface pressure (Pa), per cell.
    pub ps: Vec<f64>,
    /// Potential temperature (K), cell × level.
    pub theta: Vec<f64>,
    /// Specific humidity (kg/kg), cell × level.
    pub q: Vec<f64>,
    /// Normal velocity (m/s), edge × level.
    pub un: Vec<f64>,
    /// Accumulated precipitation since last reset (kg/m², per cell).
    pub precip_accum: Vec<f64>,
    /// Last surface downward shortwave per cell (W/m²).
    pub gsw: Vec<f64>,
    /// Last surface downward longwave per cell (W/m²).
    pub glw: Vec<f64>,
}

impl AtmState {
    /// Isothermal resting atmosphere at temperature `t0` over a uniform
    /// `ps = P_REF`.
    pub fn isothermal(grid: Arc<GeodesicGrid>, nlev: usize, t0: f64) -> Self {
        let n = grid.ncells();
        let e = grid.nedges();
        let sigma = atm_sigma_layers(nlev);
        let dsigma = atm_sigma_thickness(nlev);
        let mut theta = vec![0.0; nlev * n];
        for (k, &s) in sigma.iter().enumerate() {
            let p = s * P_REF;
            let th = ap3esm_physics::constants::potential_temperature(t0, p);
            theta[k * n..(k + 1) * n].fill(th);
        }
        AtmState {
            grid,
            nlev,
            sigma,
            dsigma,
            ps: vec![P_REF; n],
            theta,
            q: vec![1.0e-3; nlev * n],
            un: vec![0.0; nlev * e],
            precip_accum: vec![0.0; n],
            gsw: vec![0.0; n],
            glw: vec![0.0; n],
        }
    }

    pub fn ncells(&self) -> usize {
        self.grid.ncells()
    }

    pub fn nedges(&self) -> usize {
        self.grid.nedges()
    }

    #[inline]
    pub fn cell_idx(&self, k: usize, i: usize) -> usize {
        k * self.ncells() + i
    }

    #[inline]
    pub fn edge_idx(&self, k: usize, e: usize) -> usize {
        k * self.nedges() + e
    }

    /// Total dry air mass (∝ ∫ ps dA; exact up to the constant 1/g).
    pub fn total_mass(&self) -> f64 {
        self.ps
            .iter()
            .zip(&self.grid.cell_areas)
            .map(|(p, a)| p * a)
            .sum()
    }

    /// Global mass-weighted mean potential temperature.
    pub fn mean_theta(&self) -> f64 {
        let n = self.ncells();
        let mut num = 0.0;
        let mut den = 0.0;
        for k in 0..self.nlev {
            let w = self.dsigma[k];
            for i in 0..n {
                let m = w * self.ps[i] * self.grid.cell_areas[i];
                num += self.theta[k * n + i] * m;
                den += m;
            }
        }
        num / den
    }

    /// Global integral of θ·dp·dA (the conserved flux-form tracer mass).
    pub fn theta_mass(&self) -> f64 {
        let n = self.ncells();
        let mut total = 0.0;
        for k in 0..self.nlev {
            for i in 0..n {
                total += self.theta[k * n + i]
                    * self.dsigma[k]
                    * self.ps[i]
                    * self.grid.cell_areas[i];
            }
        }
        total
    }

    /// Global integral of q·dp·dA (moisture mass).
    pub fn moisture_mass(&self) -> f64 {
        let n = self.ncells();
        let mut total = 0.0;
        for k in 0..self.nlev {
            for i in 0..n {
                total +=
                    self.q[k * n + i] * self.dsigma[k] * self.ps[i] * self.grid.cell_areas[i];
            }
        }
        total
    }

    /// Maximum wind speed over all edges (CFL diagnostics).
    pub fn max_wind(&self) -> f64 {
        self.un.iter().fold(0.0f64, |m, u| m.max(u.abs()))
    }

    /// 10 m wind proxy: reconstructed lowest-layer cell vectors.
    pub fn surface_wind(&self) -> Vec<(f64, f64)> {
        let e = self.nedges();
        self.grid.reconstruct_cell_vectors(&self.un[0..e])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isothermal_state_is_sane() {
        let grid = Arc::new(GeodesicGrid::new(2));
        let s = AtmState::isothermal(grid, 5, 285.0);
        assert_eq!(s.ps.len(), s.ncells());
        assert_eq!(s.theta.len(), 5 * s.ncells());
        assert_eq!(s.un.len(), 5 * s.nedges());
        assert!(s.max_wind() == 0.0);
        // theta increases with height for an isothermal atmosphere.
        let n = s.ncells();
        assert!(s.theta[4 * n] > s.theta[0]);
    }

    #[test]
    fn mass_is_ps_area_integral() {
        let grid = Arc::new(GeodesicGrid::new(2));
        let s = AtmState::isothermal(grid, 3, 280.0);
        let expected = P_REF * 4.0 * std::f64::consts::PI;
        assert!((s.total_mass() - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn mean_theta_between_extremes() {
        let grid = Arc::new(GeodesicGrid::new(2));
        let s = AtmState::isothermal(grid, 5, 280.0);
        let n = s.ncells();
        let lo = s.theta[0];
        let hi = s.theta[4 * n];
        let mean = s.mean_theta();
        assert!(mean > lo && mean < hi);
    }
}
