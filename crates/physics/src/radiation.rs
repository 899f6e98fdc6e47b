//! Gray two-stream radiation: the conventional scheme the AI radiation
//! diagnosis module learns to replace.
//!
//! Shortwave: top-of-atmosphere insolation `S₀·coszr` attenuated by a
//! water-vapor/cloud optical depth. Longwave: gray emissivity column with a
//! single effective emission temperature per layer; surface receives the
//! integrated downward flux. Heating rates come from flux divergence.

use crate::constants::{CP_DRY, GRAVITY, SOLAR_CONSTANT, STEFAN_BOLTZMANN};

/// Radiation result for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct RadiationResult {
    /// Surface downward shortwave flux (W/m²) — the paper's `gsw`.
    pub gsw: f64,
    /// Surface downward longwave flux (W/m²) — the paper's `glw`.
    pub glw: f64,
    /// Per-layer temperature tendency from radiative flux divergence (K/s).
    pub heating: Vec<f64>,
}

/// Gray-atmosphere radiation parameters.
#[derive(Debug, Clone, Copy)]
pub struct GrayRadiation {
    /// Shortwave mass absorption scaled by humidity (m²/kg per kg/kg).
    pub sw_k_vapor: f64,
    /// Baseline shortwave optical depth of the dry column.
    pub sw_tau_dry: f64,
    /// Longwave emissivity scale per unit column water (per kg/m²·factor).
    pub lw_k_vapor: f64,
    /// Baseline longwave emissivity per layer.
    pub lw_eps_dry: f64,
    /// Net radiative cooling baseline (K/day) applied through the column.
    pub cooling_k_per_day: f64,
}

impl Default for GrayRadiation {
    fn default() -> Self {
        GrayRadiation {
            sw_k_vapor: 90.0,
            sw_tau_dry: 0.12,
            lw_k_vapor: 0.12,
            lw_eps_dry: 0.05,
            cooling_k_per_day: 1.5,
        }
    }
}

impl GrayRadiation {
    /// Compute the column radiation. Inputs are per-level (surface first):
    /// temperature `t` (K), specific humidity `q` (kg/kg), pressure `p`
    /// (Pa), pressure thickness `dp` (Pa, positive), plus the cosine of the
    /// solar zenith angle.
    pub fn column(
        &self,
        t: &[f64],
        q: &[f64],
        p: &[f64],
        dp: &[f64],
        coszr: f64,
    ) -> RadiationResult {
        let mut heating = vec![0.0; t.len()];
        let (gsw, glw) = self.column_into(t, q, p, dp, coszr, &mut heating);
        RadiationResult { gsw, glw, heating }
    }

    /// [`Self::column`] with the heating rates written to `heating`; returns
    /// `(gsw, glw)`.
    pub fn column_into(
        &self,
        t: &[f64],
        q: &[f64],
        p: &[f64],
        dp: &[f64],
        coszr: f64,
        heating: &mut [f64],
    ) -> (f64, f64) {
        let nlev = t.len();
        assert!(q.len() == nlev && p.len() == nlev && dp.len() == nlev);
        assert_eq!(heating.len(), nlev);
        let coszr = coszr.clamp(0.0, 1.0);

        // --- Shortwave: Beer-Lambert through the whole column ---
        let mut tau = self.sw_tau_dry;
        for k in 0..nlev {
            // Column water path of the layer: q·dp/g (kg/m²).
            tau += self.sw_k_vapor * q[k] * dp[k] / GRAVITY / 1.0e4;
        }
        let slant = if coszr > 0.0 { tau / coszr.max(0.05) } else { 0.0 };
        let gsw = if coszr > 0.0 {
            SOLAR_CONSTANT * coszr * (-slant).exp()
        } else {
            0.0
        };

        // --- Longwave: each layer emits ε·σT⁴ downward, screened by the
        // layers below it; sum at the surface. ---
        let mut glw = 0.0;
        let mut transmission = 1.0;
        for k in 0..nlev {
            let water_path = q[k] * dp[k] / GRAVITY;
            let eps = (self.lw_eps_dry + self.lw_k_vapor * water_path).min(0.9);
            glw += transmission * eps * STEFAN_BOLTZMANN * t[k].powi(4);
            transmission *= 1.0 - eps;
        }

        // --- Heating rates: SW absorption heats where it is absorbed;
        // LW gives a smooth clear-sky cooling profile. ---
        let sw_absorbed = if coszr > 0.0 {
            SOLAR_CONSTANT * coszr * (1.0 - (-slant).exp())
        } else {
            0.0
        };
        let total_dp: f64 = dp.iter().sum();
        let column_water = q.iter().zip(dp).map(|(a, b)| a * b).sum::<f64>() + 1e-12;
        let cool = self.cooling_k_per_day / 86_400.0;
        for k in 0..nlev {
            // Distribute SW absorption by layer water-path share.
            let share = q[k] * dp[k] / column_water;
            let mass = dp[k] / GRAVITY;
            heating[k] = sw_absorbed * share * 0.3 / (CP_DRY * mass.max(1e-6))
                - cool * (dp[k] / (total_dp / nlev as f64)).min(2.0);
        }

        (gsw, glw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column() -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let nlev = 10;
        let t: Vec<f64> = (0..nlev).map(|k| 295.0 - 6.0 * k as f64).collect();
        let q: Vec<f64> = (0..nlev).map(|k| 0.015 * (-0.4 * k as f64).exp()).collect();
        let p: Vec<f64> = (0..nlev).map(|k| 1.0e5 - 9.0e3 * k as f64).collect();
        let dp = vec![9.0e3; nlev];
        (t, q, p, dp)
    }

    #[test]
    fn night_has_zero_shortwave() {
        let (t, q, p, dp) = column();
        let r = GrayRadiation::default().column(&t, &q, &p, &dp, 0.0);
        assert_eq!(r.gsw, 0.0);
        assert!(r.glw > 100.0, "glw = {}", r.glw);
    }

    #[test]
    fn noon_shortwave_reasonable() {
        let (t, q, p, dp) = column();
        let r = GrayRadiation::default().column(&t, &q, &p, &dp, 1.0);
        // Clear-ish tropical column: several hundred W/m² at the surface.
        assert!(r.gsw > 300.0 && r.gsw < SOLAR_CONSTANT, "gsw = {}", r.gsw);
    }

    #[test]
    fn gsw_monotone_in_coszr() {
        let (t, q, p, dp) = column();
        let rad = GrayRadiation::default();
        let mut prev = -1.0;
        for i in 0..=10 {
            let c = i as f64 / 10.0;
            let gsw = rad.column(&t, &q, &p, &dp, c).gsw;
            assert!(gsw >= prev, "gsw not monotone at coszr={c}");
            prev = gsw;
        }
    }

    #[test]
    fn moister_column_has_more_longwave_less_shortwave() {
        let (t, q, p, dp) = column();
        let rad = GrayRadiation::default();
        let dry = rad.column(&t, &q, &p, &dp, 0.8);
        let q_wet: Vec<f64> = q.iter().map(|&v| v * 2.0).collect();
        let wet = rad.column(&t, &q_wet, &p, &dp, 0.8);
        assert!(wet.glw > dry.glw);
        assert!(wet.gsw < dry.gsw);
    }

    #[test]
    fn glw_bounded_by_blackbody_surface_air() {
        let (t, q, p, dp) = column();
        let r = GrayRadiation::default().column(&t, &q, &p, &dp, 0.5);
        let bb = STEFAN_BOLTZMANN * t[0].powi(4);
        assert!(r.glw < bb, "glw {} exceeds blackbody {bb}", r.glw);
        assert!(r.glw > 0.2 * bb, "glw {} unrealistically small", r.glw);
    }

    #[test]
    fn heating_profile_finite_and_cooling_dominates_aloft() {
        let (t, q, p, dp) = column();
        let r = GrayRadiation::default().column(&t, &q, &p, &dp, 0.0);
        assert!(r.heating.iter().all(|h| h.is_finite()));
        // Pure night: all layers cool.
        assert!(r.heating.iter().all(|&h| h <= 0.0));
    }
}
