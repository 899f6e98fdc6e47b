//! Planetary-boundary-layer vertical diffusion with a K-profile.
//!
//! Mixes momentum, heat, and moisture between layers; the surface flux
//! enters as the bottom boundary condition. Explicit tendencies with a
//! stability cap so any timestep the dycore chooses stays safe.

/// K-profile PBL parameters.
#[derive(Debug, Clone, Copy)]
pub struct KProfilePbl {
    /// Maximum eddy diffusivity (m²/s).
    pub k_max: f64,
    /// Boundary-layer depth scale in layers.
    pub bl_layers: usize,
}

impl Default for KProfilePbl {
    fn default() -> Self {
        KProfilePbl {
            k_max: 30.0,
            bl_layers: 6,
        }
    }
}

impl KProfilePbl {
    /// Eddy diffusivity per interface (between layer k and k+1), cubic
    /// K-profile that peaks in the lower boundary layer and vanishes above.
    pub fn k_profile(&self, nlev: usize) -> Vec<f64> {
        let mut kp = Vec::new();
        self.k_profile_into(nlev, &mut kp);
        kp
    }

    /// [`Self::k_profile`] into a reused buffer (`nlev − 1` values).
    pub fn k_profile_into(&self, nlev: usize, kp: &mut Vec<f64>) {
        kp.clear();
        kp.extend((0..nlev.saturating_sub(1)).map(|k| {
            let z = (k as f64 + 1.0) / self.bl_layers as f64;
            if z >= 1.0 {
                0.0
            } else {
                self.k_max * z * (1.0 - z) * (1.0 - z) * 4.0
            }
        }));
    }

    /// Diffusion tendency of a field (per second), surface-first layers with
    /// geometric thickness `dz` (m). `surface_flux` is the flux into the
    /// lowest layer (field-units · m/s, e.g. W/m² ÷ (ρ·cp) for temperature).
    pub fn diffuse(&self, field: &[f64], dz: &[f64], surface_flux: f64) -> Vec<f64> {
        let nlev = field.len();
        let mut tend = vec![0.0; nlev];
        let mut flux = vec![0.0; nlev + 1];
        diffuse_into(
            &self.k_profile(nlev),
            field,
            dz,
            surface_flux,
            &mut flux,
            &mut tend,
        );
        tend
    }
}

/// [`KProfilePbl::diffuse`] with the K-profile `kp` (`nlev − 1` interfaces)
/// given and the results written to `tend` (`nlev`); `flux` is `nlev + 1`
/// values of scratch.
pub fn diffuse_into(
    kp: &[f64],
    field: &[f64],
    dz: &[f64],
    surface_flux: f64,
    flux: &mut [f64],
    tend: &mut [f64],
) {
    let nlev = field.len();
    assert_eq!(dz.len(), nlev);
    assert!(kp.len() + 1 == nlev && flux.len() == nlev + 1 && tend.len() == nlev);
    // Interface fluxes F_{k+1/2} = -K (f_{k+1} - f_k)/dz_interface,
    // positive upward.
    flux[0] = surface_flux;
    for k in 0..nlev - 1 {
        let dzi = 0.5 * (dz[k] + dz[k + 1]);
        flux[k + 1] = -kp[k] * (field[k + 1] - field[k]) / dzi;
    }
    flux[nlev] = 0.0; // top flux = 0
    for k in 0..nlev {
        tend[k] = (flux[k] - flux[k + 1]) / dz[k];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_profile_positive_in_bl_zero_above() {
        let pbl = KProfilePbl::default();
        let k = pbl.k_profile(20);
        assert!(k[0] > 0.0 && k[2] > 0.0);
        assert!(k[10] == 0.0 && k[18] == 0.0);
        assert!(k.iter().all(|&v| v >= 0.0 && v <= pbl.k_max));
    }

    #[test]
    fn diffusion_conserves_column_integral_without_surface_flux() {
        let pbl = KProfilePbl::default();
        let field = vec![5.0, 3.0, 2.0, 1.5, 1.2, 1.0, 1.0, 1.0];
        let dz = vec![100.0; 8];
        let tend = pbl.diffuse(&field, &dz, 0.0);
        let integral: f64 = tend.iter().zip(&dz).map(|(t, d)| t * d).sum();
        assert!(integral.abs() < 1e-12, "column integral {integral}");
    }

    #[test]
    fn diffusion_smooths_gradients() {
        let pbl = KProfilePbl::default();
        let field = vec![10.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let dz = vec![100.0; 6];
        let tend = pbl.diffuse(&field, &dz, 0.0);
        assert!(tend[0] < 0.0, "peak must decay");
        assert!(tend[1] > 0.0, "neighbor must gain");
    }

    #[test]
    fn surface_flux_warms_lowest_layer() {
        let pbl = KProfilePbl::default();
        let field = vec![280.0; 6];
        let dz = vec![100.0; 6];
        let tend = pbl.diffuse(&field, &dz, 0.05); // K·m/s into layer 0
        assert!(tend[0] > 0.0);
        assert!(tend[1].abs() < 1e-12); // uniform profile: no mixing
    }

    #[test]
    fn uniform_field_unchanged() {
        let pbl = KProfilePbl::default();
        let field = vec![7.0; 10];
        let dz = vec![50.0; 10];
        let tend = pbl.diffuse(&field, &dz, 0.0);
        assert!(tend.iter().all(|&t| t.abs() < 1e-12));
    }
}
