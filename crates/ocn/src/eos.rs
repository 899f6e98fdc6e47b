//! Linear equation of state (the leading-order term of the UNESCO EOS that
//! LICOM evaluates; sufficient for the density gradients our dynamics use).

use crate::RHO0;

/// Thermal expansion coefficient (1/K).
pub const ALPHA_T: f64 = 2.0e-4;
/// Haline contraction coefficient (1/psu).
pub const BETA_S: f64 = 7.6e-4;
/// Reference temperature (°C) and salinity (psu).
pub const T_REF: f64 = 10.0;
pub const S_REF: f64 = 35.0;

/// In-situ density (kg/m³) from temperature (°C) and salinity (psu).
#[inline(always)]
pub fn density(t: f64, s: f64) -> f64 {
    RHO0 * (1.0 - ALPHA_T * (t - T_REF) + BETA_S * (s - S_REF))
}

/// Buoyancy frequency squared N² (s⁻²) between two stacked cells
/// (upper first) whose centres are `1/inv_dz` (m) apart.
#[inline(always)]
pub fn brunt_vaisala_sq(t_up: f64, s_up: f64, t_dn: f64, s_dn: f64, inv_dz: f64) -> f64 {
    let rho_up = density(t_up, s_up);
    let rho_dn = density(t_dn, s_dn);
    -crate::G / RHO0 * (rho_up - rho_dn) * inv_dz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_state_density() {
        assert!((density(T_REF, S_REF) - RHO0).abs() < 1e-9);
    }

    #[test]
    fn warm_water_is_lighter_salty_is_denser() {
        assert!(density(20.0, 35.0) < density(10.0, 35.0));
        assert!(density(10.0, 36.0) > density(10.0, 35.0));
    }

    #[test]
    fn stable_stratification_positive_n2() {
        // Warm over cold = stable.
        let n2 = brunt_vaisala_sq(15.0, 35.0, 5.0, 35.0, 1.0 / 100.0);
        assert!(n2 > 0.0);
        // Cold over warm = unstable.
        let n2 = brunt_vaisala_sq(5.0, 35.0, 15.0, 35.0, 1.0 / 100.0);
        assert!(n2 < 0.0);
    }

    #[test]
    fn n2_magnitude_reasonable() {
        // Typical thermocline: ΔT ≈ 10 K over 200 m → N ≈ 1e-2 s⁻¹.
        let n2 = brunt_vaisala_sq(20.0, 35.0, 10.0, 35.0, 1.0 / 200.0);
        let n = n2.sqrt();
        assert!(n > 1e-3 && n < 2e-2, "N = {n}");
    }
}
