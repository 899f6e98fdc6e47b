//! Moist convective adjustment and large-scale condensation.
//!
//! The deep-convection + microphysics pair that km-scale resolution starts
//! to resolve explicitly (§3) but that coarse configurations — and the AI
//! training data generator — still need as a parameterization. Kessler-style:
//! supersaturation condenses instantly to precipitation; unstable saturated
//! columns are adjusted toward a moist-adiabatic profile.

use crate::constants::{CP_DRY, GRAVITY, L_VAP};
use crate::saturation_specific_humidity;

/// Result of the convection/condensation step for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvectionResult {
    /// Temperature tendency (K/s).
    pub dt: Vec<f64>,
    /// Moisture tendency (kg/kg/s).
    pub dq: Vec<f64>,
    /// Surface precipitation rate (kg/m²/s = mm/s water equivalent).
    pub precipitation: f64,
}

/// Scheme parameters.
#[derive(Debug, Clone, Copy)]
pub struct MoistConvection {
    /// Adjustment timescale (s).
    pub tau: f64,
    /// Critical relative humidity for large-scale condensation.
    pub rh_crit: f64,
    /// Dry-adiabatic lapse threshold for instability (K per layer, scaled).
    pub lapse_crit: f64,
}

impl Default for MoistConvection {
    fn default() -> Self {
        MoistConvection {
            tau: 3600.0,
            rh_crit: 1.0,
            lapse_crit: 9.8e-3,
        }
    }
}

impl MoistConvection {
    /// Compute tendencies for one column (surface first). `dp` are pressure
    /// thicknesses (Pa, positive), `dz` geometric thicknesses (m).
    pub fn column(
        &self,
        t: &[f64],
        q: &[f64],
        p: &[f64],
        dp: &[f64],
        dz: &[f64],
    ) -> ConvectionResult {
        let mut dt = vec![0.0; t.len()];
        let mut dq = vec![0.0; t.len()];
        let precipitation = self.column_into(t, q, p, dp, dz, &mut dt, &mut dq);
        ConvectionResult {
            dt,
            dq,
            precipitation,
        }
    }

    /// [`Self::column`] with the tendencies written to `dt` and `dq`
    /// (overwritten); returns the surface precipitation rate.
    // The argument list is the column's physical inputs plus the two outputs.
    #[allow(clippy::too_many_arguments)]
    pub fn column_into(
        &self,
        t: &[f64],
        q: &[f64],
        p: &[f64],
        dp: &[f64],
        dz: &[f64],
        dt: &mut [f64],
        dq: &mut [f64],
    ) -> f64 {
        let nlev = t.len();
        assert!(q.len() == nlev && p.len() == nlev && dp.len() == nlev && dz.len() == nlev);
        assert!(dt.len() == nlev && dq.len() == nlev);
        dt.fill(0.0);
        dq.fill(0.0);
        let mut precip_flux = 0.0; // kg/m²/s column-integrated condensate

        // --- Large-scale condensation: relax supersaturation away. ---
        for k in 0..nlev {
            let qsat = saturation_specific_humidity(t[k], p[k]);
            let excess = q[k] - self.rh_crit * qsat;
            if excess > 0.0 {
                let rate = excess / self.tau;
                dq[k] -= rate;
                dt[k] += L_VAP / CP_DRY * rate; // latent heating
                precip_flux += rate * dp[k] / GRAVITY;
            }
        }

        // --- Convective adjustment: where the lapse rate between adjacent
        // layers exceeds the critical value and the lower layer is nearly
        // saturated, mix enthalpy toward neutrality. ---
        for k in 0..nlev - 1 {
            let lapse = (t[k] - t[k + 1]) / (0.5 * (dz[k] + dz[k + 1]));
            let qsat = saturation_specific_humidity(t[k], p[k]);
            let rh = q[k] / qsat.max(1e-12);
            if lapse > self.lapse_crit && rh > 0.8 {
                // Move enthalpy up at the adjustment rate; conserve cp·T·dp.
                let dtemp = (lapse - self.lapse_crit) * 0.5 * (dz[k] + dz[k + 1]);
                let rate = dtemp / self.tau;
                let w_lo = dp[k];
                let w_hi = dp[k + 1];
                dt[k] -= rate * w_hi / (w_lo + w_hi);
                dt[k + 1] += rate * w_lo / (w_lo + w_hi);
                // Updraft also transports moisture upward.
                let qrate = 0.2 * (q[k] - q[k + 1]).max(0.0) / self.tau;
                dq[k] -= qrate * w_hi / (w_lo + w_hi);
                dq[k + 1] += qrate * w_lo / (w_lo + w_hi);
            }
        }

        precip_flux.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stable_column(nlev: usize) -> [Vec<f64>; 5] {
        let t: Vec<f64> = (0..nlev).map(|k| 295.0 - 5.0 * k as f64).collect();
        let q: Vec<f64> = (0..nlev).map(|k| 0.008 * (-0.5 * k as f64).exp()).collect();
        let p: Vec<f64> = (0..nlev).map(|k| 1.0e5 - 9.0e3 * k as f64).collect();
        let dp = vec![9.0e3; nlev];
        let dz = vec![800.0; nlev];
        [t, q, p, dp, dz]
    }

    #[test]
    fn stable_unsaturated_column_is_quiet() {
        let [t, q, p, dp, dz] = stable_column(8);
        let r = MoistConvection::default().column(&t, &q, &p, &dp, &dz);
        assert!(r.dt.iter().all(|&v| v.abs() < 1e-12));
        assert!(r.dq.iter().all(|&v| v.abs() < 1e-12));
        assert_eq!(r.precipitation, 0.0);
    }

    #[test]
    fn supersaturation_rains_and_heats() {
        let [t, mut q, p, dp, dz] = stable_column(8);
        // Force supersaturation in layer 1.
        q[1] = saturation_specific_humidity(t[1], p[1]) * 1.5;
        let r = MoistConvection::default().column(&t, &q, &p, &dp, &dz);
        assert!(r.precipitation > 0.0);
        assert!(r.dq[1] < 0.0, "moisture must condense");
        assert!(r.dt[1] > 0.0, "latent heat must warm");
    }

    #[test]
    fn condensation_conserves_moist_enthalpy() {
        let [t, mut q, p, dp, dz] = stable_column(8);
        q[0] = saturation_specific_humidity(t[0], p[0]) * 1.3;
        q[2] = saturation_specific_humidity(t[2], p[2]) * 1.1;
        let r = MoistConvection::default().column(&t, &q, &p, &dp, &dz);
        // cp·dT + L·dq = 0 layer-wise for pure condensation.
        for k in [0, 2] {
            let balance = CP_DRY * r.dt[k] + L_VAP * r.dq[k];
            assert!(balance.abs() < 1e-10, "layer {k} imbalance {balance}");
        }
        // Column water change equals -precipitation.
        let dqdt_col: f64 = r
            .dq
            .iter()
            .zip(&dp)
            .map(|(dq, dp)| dq * dp / GRAVITY)
            .sum();
        assert!((dqdt_col + r.precipitation).abs() < 1e-12);
    }

    #[test]
    fn unstable_saturated_column_adjusts() {
        let nlev = 6;
        // Super-adiabatic and humid near the surface.
        let t: Vec<f64> = (0..nlev).map(|k| 300.0 - 12.0 * k as f64).collect();
        let p: Vec<f64> = (0..nlev).map(|k| 1.0e5 - 1.2e4 * k as f64).collect();
        let q: Vec<f64> = (0..nlev)
            .map(|k| saturation_specific_humidity(t[k], p[k]) * 0.95)
            .collect();
        let dp = vec![1.2e4; nlev];
        let dz = vec![900.0; nlev];
        let r = MoistConvection::default().column(&t, &q, &p, &dp, &dz);
        // Uniformly super-adiabatic column: enthalpy moves upward, so the
        // bottom layer cools and the top layer warms; interior layers are
        // near-neutral pass-through.
        assert!(r.dt[0] < 0.0, "surface layer must cool");
        assert!(r.dt[nlev - 1] > 0.0, "top layer must warm");
        // Adjustment conserves the mass-weighted enthalpy contribution of
        // the mixing terms (checked on the temperature part only, since
        // condensation is zero here at 95 % RH with rh_crit=1).
        let sum: f64 = r.dt.iter().zip(&dp).map(|(d, w)| d * w).sum();
        assert!(sum.abs() < 1e-9, "enthalpy residual {sum}");
    }
}
