//! Physical constants (SI).

/// Gravitational acceleration (m/s²).
pub const GRAVITY: f64 = 9.80665;
/// Gas constant for dry air (J/kg/K).
pub const R_DRY: f64 = 287.04;
/// Specific heat of dry air at constant pressure (J/kg/K).
pub const CP_DRY: f64 = 1004.64;
/// Latent heat of vaporisation (J/kg).
pub const L_VAP: f64 = 2.501e6;
/// Stefan–Boltzmann constant (W/m²/K⁴).
pub const STEFAN_BOLTZMANN: f64 = 5.670374e-8;
/// Solar constant (W/m²).
pub const SOLAR_CONSTANT: f64 = 1361.0;
/// Reference surface density (kg/m³).
pub const RHO_AIR: f64 = 1.225;
/// Reference sea-water density (kg/m³).
pub const RHO_SEAWATER: f64 = 1025.0;
/// Specific heat of sea water (J/kg/K).
pub const CP_SEAWATER: f64 = 3996.0;
/// Earth's rotation rate (rad/s).
pub const OMEGA_EARTH: f64 = 7.2921e-5;
/// Von Kármán constant.
pub const VON_KARMAN: f64 = 0.4;
/// Kappa = R/cp for dry air.
pub const KAPPA: f64 = R_DRY / CP_DRY;
/// Reference pressure of potential temperature, p₀ (Pa): 1000 hPa.
pub const P0: f64 = 1.0e5;
/// Freezing point of sea water (K) at zero salinity reference.
pub const T_FREEZE_SEA: f64 = 271.35;

/// Coriolis parameter at latitude `lat` (radians).
pub fn coriolis(lat: f64) -> f64 {
    2.0 * OMEGA_EARTH * lat.sin()
}

/// Potential temperature from temperature and pressure (reference [`P0`]),
/// for callers that hold one column's pressures; the atmosphere's dynamics
/// and physics coupling factor the Exner function over their σ levels
/// instead.
pub fn potential_temperature(t: f64, p: f64) -> f64 {
    t * (P0 / p).powf(KAPPA)
}

/// Invert potential temperature.
pub fn temperature_from_theta(theta: f64, p: f64) -> f64 {
    theta * (p / P0).powf(KAPPA)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coriolis_zero_at_equator_max_at_pole() {
        assert_eq!(coriolis(0.0), 0.0);
        let f_pole = coriolis(std::f64::consts::FRAC_PI_2);
        assert!((f_pole - 1.458e-4).abs() < 1e-6);
        assert!(coriolis(-std::f64::consts::FRAC_PI_2) < 0.0);
    }

    #[test]
    fn theta_roundtrip() {
        let t = 285.0;
        let p = 8.5e4;
        let th = potential_temperature(t, p);
        assert!(th > t); // below reference pressure
        assert!((temperature_from_theta(th, p) - t).abs() < 1e-9);
    }

    #[test]
    fn theta_at_reference_equals_t() {
        assert!((potential_temperature(300.0, 1.0e5) - 300.0).abs() < 1e-12);
    }
}
