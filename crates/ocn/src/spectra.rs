//! Kinetic-energy analysis diagnostics for the Fig. 1c-class comparisons.
//!
//! Km-scale ocean modelling is motivated by mesoscale/submesoscale eddies
//! "containing the majority of the oceanic kinetic energy" (§3). These
//! diagnostics quantify that: an eddy/mean (Reynolds) decomposition of the
//! surface flow and a zonal-wavenumber KE spectrum per latitude band —
//! the standard way resolved eddy content is compared across resolutions.

use std::f64::consts::PI;

use crate::state::OcnState;

/// Eddy/mean decomposition of surface kinetic energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EddyMeanKe {
    /// KE of the zonal-mean flow (m²/s²).
    pub mean_ke: f64,
    /// KE of deviations from the zonal mean ("eddy" KE, m²/s²).
    pub eddy_ke: f64,
}

impl EddyMeanKe {
    /// Fraction of total KE carried by eddies (0..1).
    pub fn eddy_fraction(&self) -> f64 {
        let total = self.mean_ke + self.eddy_ke;
        if total <= 0.0 {
            0.0
        } else {
            self.eddy_ke / total
        }
    }
}

/// Reynolds decomposition of the surface flow: per row, split (u, v) into
/// the zonal mean and the deviation, and area-average both KE parts over
/// ocean points.
pub fn eddy_mean_decomposition(state: &OcnState) -> EddyMeanKe {
    let (ni, nj) = (state.ni, state.nj);
    let mut mean_ke = 0.0;
    let mut eddy_ke = 0.0;
    let mut total_w = 0.0;
    for j in 0..nj {
        // Zonal means over ocean points of this row.
        let mut su = 0.0;
        let mut sv = 0.0;
        let mut count = 0.0;
        for i in 0..ni {
            let idx = state.at(i, j);
            if state.kmt[idx] > 0 {
                su += state.u[idx] + state.ubar[idx];
                sv += state.v[idx] + state.vbar[idx];
                count += 1.0;
            }
        }
        if count == 0.0 {
            continue;
        }
        let (ub, vb) = (su / count, sv / count);
        let w = state.dx[j] * state.dy;
        for i in 0..ni {
            let idx = state.at(i, j);
            if state.kmt[idx] > 0 {
                let u = state.u[idx] + state.ubar[idx];
                let v = state.v[idx] + state.vbar[idx];
                mean_ke += 0.5 * (ub * ub + vb * vb) * w;
                eddy_ke += 0.5 * ((u - ub) * (u - ub) + (v - vb) * (v - vb)) * w;
                total_w += w;
            }
        }
    }
    if total_w == 0.0 {
        EddyMeanKe {
            mean_ke: 0.0,
            eddy_ke: 0.0,
        }
    } else {
        EddyMeanKe {
            mean_ke: mean_ke / total_w,
            eddy_ke: eddy_ke / total_w,
        }
    }
}

/// Zonal-wavenumber power spectrum of a periodic row (plain DFT; rows are
/// a few thousand points at most on the grids we instantiate). Returns
/// power at wavenumbers `0..=n/2`.
pub fn zonal_power_spectrum(row: &[f64]) -> Vec<f64> {
    let n = row.len();
    assert!(n >= 2, "spectrum needs at least two points");
    let kmax = n / 2;
    let mut power = Vec::with_capacity(kmax + 1);
    for k in 0..=kmax {
        let mut re = 0.0;
        let mut im = 0.0;
        for (i, &v) in row.iter().enumerate() {
            let phase = -2.0 * PI * (k * i) as f64 / n as f64;
            re += v * phase.cos();
            im += v * phase.sin();
        }
        // One-sided normalisation: interior wavenumbers count twice.
        let factor = if k == 0 || (n.is_multiple_of(2) && k == kmax) {
            1.0
        } else {
            2.0
        };
        power.push(factor * (re * re + im * im) / (n * n) as f64);
    }
    power
}

/// Surface-KE zonal spectrum averaged over the rows in `[j0, j1)` (land
/// filled with the row's ocean mean so coastlines don't ring).
pub fn surface_ke_spectrum(state: &OcnState, j0: usize, j1: usize) -> Vec<f64> {
    assert!(j0 < j1 && j1 <= state.nj);
    let ni = state.ni;
    let mut acc: Option<Vec<f64>> = None;
    let mut rows = 0.0;
    for j in j0..j1 {
        let mut row = Vec::with_capacity(ni);
        let mut mean = 0.0;
        let mut count = 0.0;
        for i in 0..ni {
            let idx = state.at(i, j);
            if state.kmt[idx] > 0 {
                let u = state.u[idx] + state.ubar[idx];
                let v = state.v[idx] + state.vbar[idx];
                mean += 0.5 * (u * u + v * v);
                count += 1.0;
            }
        }
        if count < 2.0 {
            continue;
        }
        mean /= count;
        for i in 0..ni {
            let idx = state.at(i, j);
            if state.kmt[idx] > 0 {
                let u = state.u[idx] + state.ubar[idx];
                let v = state.v[idx] + state.vbar[idx];
                row.push(0.5 * (u * u + v * v));
            } else {
                row.push(mean);
            }
        }
        let p = zonal_power_spectrum(&row);
        match &mut acc {
            None => acc = Some(p),
            Some(a) => {
                for (x, y) in a.iter_mut().zip(&p) {
                    *x += y;
                }
            }
        }
        rows += 1.0;
    }
    let mut out = acc.unwrap_or_default();
    if rows > 0.0 {
        for v in &mut out {
            *v /= rows;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap3esm_grid::decomp::BlockDecomp2d;
    use ap3esm_grid::mask::MaskGenerator;
    use ap3esm_grid::tripolar::TripolarGrid;

    fn state() -> OcnState {
        let grid = TripolarGrid::new(48, 30, 4, MaskGenerator::default());
        let decomp = BlockDecomp2d::new(48, 30, 1, 1);
        OcnState::new(&grid, &decomp, 0)
    }

    #[test]
    fn pure_zonal_jet_has_no_eddy_ke() {
        let mut st = state();
        for j in 0..st.nj {
            for i in 0..st.ni {
                let idx = st.at(i, j);
                st.u[idx] = 0.5 + 0.01 * j as f64; // row-uniform
            }
        }
        let d = eddy_mean_decomposition(&st);
        assert!(d.mean_ke > 0.0);
        assert!(d.eddy_ke < 1e-24, "eddy KE {}", d.eddy_ke);
        assert!(d.eddy_fraction() < 1e-12);
    }

    #[test]
    fn wavy_flow_is_eddy_dominated() {
        let mut st = state();
        for j in 0..st.nj {
            for i in 0..st.ni {
                let idx = st.at(i, j);
                st.u[idx] = (2.0 * PI * 5.0 * i as f64 / st.ni as f64).sin();
            }
        }
        let d = eddy_mean_decomposition(&st);
        // A pure wave has (almost) no zonal-mean flow. Land gaps alias a
        // little of the wave into the row mean, so allow a small residual.
        assert!(
            d.eddy_fraction() > 0.9,
            "eddy fraction {}",
            d.eddy_fraction()
        );
    }

    #[test]
    fn spectrum_peaks_at_forcing_wavenumber() {
        let n = 64;
        let k0 = 6;
        let row: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * (k0 * i) as f64 / n as f64).cos())
            .collect();
        let p = zonal_power_spectrum(&row);
        let peak = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, k0);
        // Parseval: total power equals mean square.
        let total: f64 = p.iter().sum();
        let ms: f64 = row.iter().map(|v| v * v).sum::<f64>() / n as f64;
        assert!((total - ms).abs() < 1e-10, "Parseval {total} vs {ms}");
    }

    #[test]
    fn constant_row_is_all_wavenumber_zero() {
        let p = zonal_power_spectrum(&[3.0; 32]);
        assert!((p[0] - 9.0).abs() < 1e-10);
        assert!(p[1..].iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn ke_spectrum_runs_on_model_state() {
        let mut st = state();
        for j in 0..st.nj {
            for i in 0..st.ni {
                let idx = st.at(i, j);
                st.u[idx] = (2.0 * PI * 3.0 * i as f64 / st.ni as f64).sin() * 0.1;
            }
        }
        let spec = surface_ke_spectrum(&st, 5, 20);
        assert_eq!(spec.len(), st.ni / 2 + 1);
        assert!(spec.iter().all(|v| v.is_finite() && *v >= 0.0));
        // KE of a k-wave concentrates at 2k and 0 (sin² = ½ − ½cos(2kx)).
        let peak_nonzero = spec[1..]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0
            + 1;
        assert_eq!(peak_nonzero, 6, "spectrum {spec:?}");
    }
}
