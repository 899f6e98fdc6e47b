//! The assembled conventional physics suite: one call per column per
//! physics timestep, with the same inputs and outputs as the AI suite so
//! the two are interchangeable behind the atmosphere's physics–dynamics
//! coupling interface (Fig. 4).

use crate::constants::{CP_DRY, GRAVITY, RHO_AIR};
use crate::convection::MoistConvection;
use crate::pbl::{diffuse_into, KProfilePbl};
use crate::radiation::GrayRadiation;
use crate::surface::{bulk_fluxes, BulkCoefficients, SurfaceFluxes};

/// One column of atmospheric state, surface first.
#[derive(Debug, Clone)]
pub struct Column {
    pub u: Vec<f64>,
    pub v: Vec<f64>,
    /// Temperature (K).
    pub t: Vec<f64>,
    /// Specific humidity (kg/kg).
    pub q: Vec<f64>,
    /// Mid-layer pressure (Pa).
    pub p: Vec<f64>,
    /// Pressure thickness (Pa, positive).
    pub dp: Vec<f64>,
    /// Geometric thickness (m).
    pub dz: Vec<f64>,
}

impl Column {
    /// An all-zero column of `nlev` levels, to be filled in place.
    pub fn zeros(nlev: usize) -> Self {
        let zeros = vec![0.0; nlev];
        Column {
            u: zeros.clone(),
            v: zeros.clone(),
            t: zeros.clone(),
            q: zeros.clone(),
            p: zeros.clone(),
            dp: zeros.clone(),
            dz: zeros,
        }
    }

    pub fn nlev(&self) -> usize {
        self.t.len()
    }
}

/// Surface state needed by the suite.
#[derive(Debug, Clone, Copy)]
pub struct SurfaceProperties {
    /// Skin/SST temperature (K).
    pub tskin: f64,
    /// Cosine of the solar zenith angle.
    pub coszr: f64,
    /// Moisture availability: 1 over ocean, 0..1 over land.
    pub wetness: f64,
}

/// Everything the suite returns for one column.
#[derive(Debug, Clone)]
pub struct ColumnPhysicsOutput {
    pub du: Vec<f64>,
    pub dv: Vec<f64>,
    pub dt: Vec<f64>,
    pub dq: Vec<f64>,
    /// Surface downward shortwave (W/m²).
    pub gsw: f64,
    /// Surface downward longwave (W/m²).
    pub glw: f64,
    /// Surface precipitation rate (kg/m²/s).
    pub precipitation: f64,
    /// Bulk surface fluxes (for the coupler's export state).
    pub surface_fluxes: SurfaceFluxes,
}

impl ColumnPhysicsOutput {
    /// An all-zero output for `nlev` levels, to be filled by
    /// [`ConventionalSuite::step_column_into`].
    pub fn zeros(nlev: usize) -> Self {
        ColumnPhysicsOutput {
            du: vec![0.0; nlev],
            dv: vec![0.0; nlev],
            dt: vec![0.0; nlev],
            dq: vec![0.0; nlev],
            gsw: 0.0,
            glw: 0.0,
            precipitation: 0.0,
            surface_fluxes: SurfaceFluxes {
                taux: 0.0,
                tauy: 0.0,
                sensible: 0.0,
                latent: 0.0,
                evaporation: 0.0,
            },
        }
    }
}

/// Per-column work buffers of [`ConventionalSuite::step_column_into`], plus
/// the PBL K-profile, which depends on the level count only: a caller
/// stepping many columns prepares it once
/// ([`ConventionalSuite::prepare_scratch`]).
#[derive(Debug, Clone, Default)]
pub struct ColumnScratch {
    k_profile: Vec<f64>,
    diffusion_flux: Vec<f64>,
    heating: Vec<f64>,
    conv_dt: Vec<f64>,
    conv_dq: Vec<f64>,
}

/// The conventional suite: radiation + surface + PBL + convection.
#[derive(Debug, Clone)]
#[derive(Default)]
pub struct ConventionalSuite {
    pub radiation: GrayRadiation,
    pub bulk: BulkCoefficients,
    pub pbl: KProfilePbl,
    pub convection: MoistConvection,
}


impl ConventionalSuite {
    /// Run all parameterizations on one column.
    pub fn step_column(&self, col: &Column, sfc: &SurfaceProperties) -> ColumnPhysicsOutput {
        let mut out = ColumnPhysicsOutput::zeros(col.nlev());
        let mut scratch = ColumnScratch::default();
        self.prepare_scratch(col.nlev(), &mut scratch);
        self.step_column_into(col, sfc, &mut out, &mut scratch);
        out
    }

    /// Size `scratch` for columns of `nlev` levels and fill in the K-profile
    /// of this suite's PBL parameters; allocates only when `nlev` grows.
    pub fn prepare_scratch(&self, nlev: usize, scratch: &mut ColumnScratch) {
        self.pbl.k_profile_into(nlev, &mut scratch.k_profile);
        scratch.diffusion_flux.resize(nlev + 1, 0.0);
        scratch.heating.resize(nlev, 0.0);
        scratch.conv_dt.resize(nlev, 0.0);
        scratch.conv_dq.resize(nlev, 0.0);
    }

    /// [`Self::step_column`] into a reused `out`, allocating nothing. `out`
    /// and `scratch` must be sized for the column's level count
    /// ([`ColumnPhysicsOutput::zeros`], [`Self::prepare_scratch`]).
    pub fn step_column_into(
        &self,
        col: &Column,
        sfc: &SurfaceProperties,
        out: &mut ColumnPhysicsOutput,
        scratch: &mut ColumnScratch,
    ) {
        let nlev = col.nlev();
        let ColumnScratch {
            k_profile,
            diffusion_flux,
            heating,
            conv_dt,
            conv_dq,
        } = scratch;
        let (gsw, glw) = self
            .radiation
            .column_into(&col.t, &col.q, &col.p, &col.dp, sfc.coszr, heating);
        let fluxes = bulk_fluxes(
            &self.bulk,
            col.u[0],
            col.v[0],
            col.t[0],
            col.q[0],
            col.p[0] + 0.5 * col.dp[0],
            sfc.tskin,
            sfc.wetness,
        );
        // Kinematic surface fluxes for the diffusion bottom boundary.
        let t_flux = fluxes.sensible / (RHO_AIR * CP_DRY);
        let q_flux = fluxes.evaporation / RHO_AIR;
        let u_flux = -fluxes.taux / RHO_AIR;
        let v_flux = -fluxes.tauy / RHO_AIR;

        let ColumnPhysicsOutput { du, dv, dt, dq, .. } = out;
        diffuse_into(k_profile, &col.u, &col.dz, u_flux, diffusion_flux, du);
        diffuse_into(k_profile, &col.v, &col.dz, v_flux, diffusion_flux, dv);
        diffuse_into(k_profile, &col.t, &col.dz, t_flux, diffusion_flux, dt);
        diffuse_into(k_profile, &col.q, &col.dz, q_flux, diffusion_flux, dq);

        for (d, h) in dt.iter_mut().zip(heating.iter()) {
            *d += h;
        }
        let precipitation = self
            .convection
            .column_into(&col.t, &col.q, &col.p, &col.dp, &col.dz, conv_dt, conv_dq);
        for k in 0..nlev {
            dt[k] += conv_dt[k];
            dq[k] += conv_dq[k];
            // Weak Rayleigh drag near the top absorbs gravity waves.
            if k + 2 >= nlev {
                du[k] -= col.u[k] / (10.0 * 86_400.0);
                dv[k] -= col.v[k] / (10.0 * 86_400.0);
            }
        }

        out.gsw = gsw;
        out.glw = glw;
        out.precipitation = precipitation;
        out.surface_fluxes = fluxes;
    }

    /// Rough FLOP count per column step (for the F4 cost comparison).
    pub fn flops_per_column(&self, nlev: usize) -> usize {
        // radiation ~40/level, surface ~60, pbl ~25/level/field·4, conv ~50/level
        40 * nlev + 60 + 100 * nlev + 50 * nlev
    }
}

/// Hydrostatic thicknesses for a sigma column with surface pressure `ps`:
/// `(p_mid, dp, dz)` surface-first, using layer temperature `t` for dz.
pub fn hydrostatic_thickness(sigma_mid: &[f64], dsigma: &[f64], ps: f64, t: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let nlev = sigma_mid.len();
    assert!(dsigma.len() == nlev && t.len() == nlev);
    let p: Vec<f64> = sigma_mid.iter().map(|&s| s * ps).collect();
    let dp: Vec<f64> = dsigma.iter().map(|&d| d * ps).collect();
    let dz: Vec<f64> = (0..nlev)
        .map(|k| crate::constants::R_DRY * t[k] * dp[k] / (p[k] * GRAVITY))
        .collect();
    (p, dp, dz)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_column(nlev: usize) -> Column {
        let sigma: Vec<f64> = (0..nlev).map(|k| 1.0 - (k as f64 + 0.5) / nlev as f64).collect();
        let ds = vec![1.0 / nlev as f64; nlev];
        let t: Vec<f64> = (0..nlev).map(|k| 298.0 - 5.5 * k as f64).collect();
        let (p, dp, dz) = hydrostatic_thickness(&sigma, &ds, 1.0e5, &t);
        Column {
            u: vec![8.0; nlev],
            v: vec![-2.0; nlev],
            t,
            q: (0..nlev).map(|k| 0.012 * (-0.45 * k as f64).exp()).collect(),
            p,
            dp,
            dz,
        }
    }

    #[test]
    fn suite_produces_finite_tendencies() {
        let suite = ConventionalSuite::default();
        let col = test_column(12);
        let out = suite.step_column(
            &col,
            &SurfaceProperties {
                tskin: 301.0,
                coszr: 0.6,
                wetness: 1.0,
            },
        );
        for field in [&out.du, &out.dv, &out.dt, &out.dq] {
            assert_eq!(field.len(), 12);
            assert!(field.iter().all(|v| v.is_finite()));
        }
        assert!(out.gsw > 0.0 && out.glw > 0.0);
    }

    #[test]
    fn warm_sst_drives_upward_fluxes_and_low_level_heating() {
        let suite = ConventionalSuite::default();
        let col = test_column(12);
        let out = suite.step_column(
            &col,
            &SurfaceProperties {
                tskin: 304.0,
                coszr: 0.0,
                wetness: 1.0,
            },
        );
        assert!(out.surface_fluxes.sensible > 0.0);
        assert!(out.dt[0] > -1e-4, "lowest layer strongly cooled: {}", out.dt[0]);
    }

    #[test]
    fn tendencies_scale_with_reasonable_magnitudes() {
        // K/s tendencies must be physically plausible (< ~50 K/day).
        let suite = ConventionalSuite::default();
        let col = test_column(20);
        let out = suite.step_column(
            &col,
            &SurfaceProperties {
                tskin: 300.0,
                coszr: 0.9,
                wetness: 1.0,
            },
        );
        let max_dt = out.dt.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max_dt < 50.0 / 86_400.0 * 20.0, "max |dT/dt| = {max_dt}");
    }

    #[test]
    fn hydrostatic_thickness_consistency() {
        let nlev = 10;
        let sigma: Vec<f64> = (0..nlev).map(|k| 1.0 - (k as f64 + 0.5) / nlev as f64).collect();
        let ds = vec![0.1; nlev];
        let t = vec![280.0; nlev];
        let (p, dp, dz) = hydrostatic_thickness(&sigma, &ds, 1.0e5, &t);
        assert!((dp.iter().sum::<f64>() - 1.0e5).abs() < 1.0);
        // dz grows with altitude (lower pressure → thicker layers).
        assert!(dz[nlev - 1] > dz[0]);
        assert!(p[0] > p[nlev - 1]);
    }
}
