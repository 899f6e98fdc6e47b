//! Canuto-style Richardson-number vertical mixing with an implicit
//! (tridiagonal) solve.
//!
//! The *canuto* scheme is where the paper's 3-D point-removal optimisation
//! was first applied (§5.2.2: "previous research utilized this technique
//! for thread-level optimization only in the canuto parameterization
//! scheme"); in AP3ESM it is extended to the whole component. Our
//! diffusivity closure keeps the scheme's structure — stability-dependent
//! coefficients from Ri — with a standard (1 + 5·Ri)⁻² fit.

/// Mixing-scheme parameters.
#[derive(Debug, Clone, Copy)]
pub struct CanutoMixing {
    /// Maximum (neutral) diffusivity (m²/s).
    pub k_max: f64,
    /// Background (abyssal) diffusivity (m²/s).
    pub k_background: f64,
    /// Convective-adjustment diffusivity for unstable columns (m²/s).
    pub k_convective: f64,
}

impl Default for CanutoMixing {
    fn default() -> Self {
        CanutoMixing {
            k_max: 1.0e-2,
            k_background: 1.0e-5,
            k_convective: 1.0,
        }
    }
}

impl CanutoMixing {
    /// Interface diffusivity from the local Richardson number
    /// `Ri = N² / S²` (shear squared `s2`, buoyancy frequency `n2`).
    pub fn diffusivity(&self, n2: f64, s2: f64) -> f64 {
        if n2 < 0.0 {
            return self.k_convective; // unstable: convective overturn
        }
        let ri = n2 / s2.max(1e-10);
        self.k_background + self.k_max / (1.0 + 5.0 * ri).powi(2)
    }

    /// Implicit vertical diffusion of one column:
    /// `(I − dt·D) xⁿ⁺¹ = xⁿ + dt·b`, where `D` is the diffusion operator
    /// with interface diffusivities `k_int` (len = nlev−1), cell thicknesses
    /// `dz`, and `surface_flux` enters the top cell (field·m/s). Solves the
    /// tridiagonal system with the Thomas algorithm (unconditionally
    /// stable, as LICOM's vmix must be at 80 levels).
    ///
    /// One column and one right-hand side through [`reciprocal_thickness`] +
    /// [`CanutoMixing::factor`] + [`CanutoMixing::solve`]; callers with
    /// several fields on the same column factor once and solve them
    /// together, callers with many columns on the same levels take the
    /// reciprocals once and factor and solve several columns in lock-step.
    pub fn diffuse_implicit(
        &self,
        x: &mut [f64],
        dz: &[f64],
        k_int: &[f64],
        dt: f64,
        surface_flux: f64,
    ) {
        assert_eq!(dz.len(), x.len());
        assert_eq!(k_int.len() + 1, x.len().max(1));
        if x.is_empty() {
            return;
        }
        let (mut inv_dz, mut inv_dzi) = (Vec::new(), Vec::new());
        reciprocal_thickness(dz, &mut inv_dz, &mut inv_dzi);
        let mut factors = TridiagFactors::default();
        self.factor(&inv_dz, &inv_dzi, k_int.as_chunks().0, [x.len()], dt, &mut factors);
        self.solve(&factors, x.as_chunks_mut::<1>().0, [0], [[surface_flux]]);
    }

    /// Build `(I − dt·D)` for each of `W` columns of `depth[w]` cells on the
    /// same levels and run the Thomas forward elimination on its
    /// coefficients, from the reciprocal geometry of [`reciprocal_thickness`]
    /// (`inv_dz` of at least the deepest column's cells, `inv_dzi` of its
    /// interfaces) and the interface diffusivities `k_int[k][w]` (read for
    /// `k < depth[w] − 1`). A column of depth 0 takes no part. The matrix
    /// depends on the geometry, `k_int` and `dt` only, so every field of a
    /// column shares the result. One divide per level: the eliminated
    /// diagonal is kept as its reciprocal. Reuses the storage of `factors`
    /// (no allocation once it has held columns this long).
    ///
    /// The columns go level by level in lock-step, so the divide and
    /// recurrence chains of different columns overlap; each column goes
    /// through exactly the operations it would alone, whatever the depths
    /// beside it, so `W` columns factor bit for bit as `W` single ones.
    pub fn factor<const W: usize>(
        &self,
        inv_dz: &[f64],
        inv_dzi: &[f64],
        k_int: &[[f64; W]],
        depth: [usize; W],
        dt: f64,
        factors: &mut TridiagFactors<W>,
    ) {
        let n = depth.into_iter().max().unwrap_or(0);
        assert!(n > 0, "empty columns");
        let (inv_dz, inv_dzi, k_int) = (&inv_dz[..n], &inv_dzi[..n - 1], &k_int[..n - 1]);
        factors.surface = dt * inv_dz[0];
        factors.depth = depth;
        let TridiagFactors { m, inv_b, c, .. } = factors;
        for v in [&mut *m, &mut *inv_b, &mut *c] {
            v.clear();
            v.resize(n, [0.0; W]);
        }
        // Coefficients a·x[k-1] + b·x[k] + c·x[k+1] = d, eliminated as they
        // are built: m[k] = a[k] / b'[k-1], b'[k] = b[k] − m[k]·c[k-1].
        let mut up = [0.0; W];
        for k in 0..n {
            for w in (0..W).filter(|&w| k < depth[w]) {
                let dn = if k + 1 < depth[w] {
                    k_int[k][w] * inv_dzi[k]
                } else {
                    0.0
                };
                let a = -dt * up[w] * inv_dz[k];
                c[k][w] = -dt * dn * inv_dz[k];
                let mut b = 1.0 - a - c[k][w];
                if k > 0 {
                    m[k][w] = a * inv_b[k - 1][w];
                    b -= m[k][w] * c[k - 1][w];
                }
                inv_b[k][w] = 1.0 / b;
                up[w] = dn;
            }
        }
    }

    /// Solve the factored systems in place for `F` fields of each of the
    /// `W` columns at once: column `w`'s level `k` is `x[start[w] + k]`,
    /// whose `[f]` holds field `f`, `xⁿ` on entry and `xⁿ⁺¹` on return, and
    /// `surface_flux[w][f]` enters its top cell. The fields do not mix, nor
    /// do the columns — each goes through the operations of a solve on its
    /// own, in the same order — so the answer for a field does not depend on
    /// which others it is solved beside. Panics if two columns' levels
    /// overlap or one runs past `x`.
    pub fn solve<const W: usize, const F: usize>(
        &self,
        factors: &TridiagFactors<W>,
        x: &mut [[f64; F]],
        start: [usize; W],
        surface_flux: [[f64; F]; W],
    ) {
        let TridiagFactors {
            m,
            inv_b,
            c,
            depth,
            surface,
        } = factors;
        let n = inv_b.len();
        let columns = || (0..W).filter(|&w| depth[w] > 0);
        for w in columns() {
            assert!(start[w] + depth[w] <= x.len(), "column {w} runs past the levels given");
            for v in columns().filter(|&v| v != w) {
                let apart = start[w] + depth[w] <= start[v] || start[v] + depth[v] <= start[w];
                assert!(apart, "columns {w} and {v} overlap");
            }
            for (x, flux) in x[start[w]].iter_mut().zip(surface_flux[w]) {
                *x += surface * flux;
            }
        }
        for k in 1..n {
            for w in (0..W).filter(|&w| k < depth[w]) {
                let above = x[start[w] + k - 1];
                for (x, above) in x[start[w] + k].iter_mut().zip(above) {
                    *x -= m[k][w] * above;
                }
            }
        }
        for w in columns() {
            let bottom = depth[w] - 1;
            for x in &mut x[start[w] + bottom] {
                *x *= inv_b[bottom][w];
            }
        }
        for k in (0..n.saturating_sub(1)).rev() {
            for w in (0..W).filter(|&w| k + 1 < depth[w]) {
                let below = x[start[w] + k + 1];
                for (x, below) in x[start[w] + k].iter_mut().zip(below) {
                    *x = (*x - c[k][w] * below) * inv_b[k][w];
                }
            }
        }
    }
}

/// The reciprocal geometry of a column of levels with thicknesses `dz`:
/// `1/dz` of every cell into `inv_dz` and `1/dzᵢ` of every interface into
/// `inv_dzi`, `dzᵢ = ½(dz[k] + dz[k+1])` the distance between the two cell
/// centres. Reuses the vectors' storage.
pub fn reciprocal_thickness(dz: &[f64], inv_dz: &mut Vec<f64>, inv_dzi: &mut Vec<f64>) {
    inv_dz.clear();
    inv_dz.extend(dz.iter().map(|dz| 1.0 / dz));
    inv_dzi.clear();
    inv_dzi.extend(dz.windows(2).map(|w| 1.0 / (0.5 * (w[0] + w[1]))));
}

/// The Thomas-eliminated implicit-diffusion matrices of `W` columns on the
/// same levels (level `k` of column `w` at `[k][w]`), written by
/// [`CanutoMixing::factor`] and applied by [`CanutoMixing::solve`].
#[derive(Debug, Clone)]
pub struct TridiagFactors<const W: usize = 1> {
    /// Elimination multipliers (`m[0]` unused).
    m: Vec<[f64; W]>,
    /// Reciprocal of the eliminated diagonal.
    inv_b: Vec<[f64; W]>,
    /// Super-diagonal.
    c: Vec<[f64; W]>,
    /// Cells of each column; 0 for a column that takes no part.
    depth: [usize; W],
    /// `dt/dz[0]`: the surface flux enters the right-hand side as
    /// `dt·flux/dz[0]`.
    surface: f64,
}

impl<const W: usize> Default for TridiagFactors<W> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<const W: usize> TridiagFactors<W> {
    /// Storage for columns of up to `nlev` cells.
    pub fn with_capacity(nlev: usize) -> Self {
        TridiagFactors {
            m: Vec::with_capacity(nlev),
            inv_b: Vec::with_capacity(nlev),
            c: Vec::with_capacity(nlev),
            depth: [0; W],
            surface: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diffusivity_regimes() {
        let m = CanutoMixing::default();
        // Unstable → convective.
        assert_eq!(m.diffusivity(-1e-5, 1e-4), m.k_convective);
        // Strongly stratified → background.
        let k_strat = m.diffusivity(1e-3, 1e-6);
        assert!(k_strat < 2.0 * m.k_background, "k = {k_strat}");
        // Strong shear, weak stratification → near k_max.
        let k_shear = m.diffusivity(1e-8, 1e-3);
        assert!(k_shear > 0.5 * m.k_max, "k = {k_shear}");
        assert!(k_shear > k_strat);
    }

    #[test]
    fn implicit_diffusion_conserves_without_flux() {
        let m = CanutoMixing::default();
        let mut x = vec![20.0, 15.0, 10.0, 6.0, 4.0];
        let dz = vec![10.0, 20.0, 40.0, 80.0, 160.0];
        let total0: f64 = x.iter().zip(&dz).map(|(v, d)| v * d).sum();
        let k = vec![1e-2; 4];
        m.diffuse_implicit(&mut x, &dz, &k, 3600.0, 0.0);
        let total1: f64 = x.iter().zip(&dz).map(|(v, d)| v * d).sum();
        assert!(
            ((total1 - total0) / total0).abs() < 1e-12,
            "drift {}",
            (total1 - total0) / total0
        );
        // Gradient weakened.
        assert!(x[0] < 20.0 && x[4] > 4.0);
    }

    #[test]
    fn implicit_diffusion_stable_at_huge_dt() {
        // K·dt/dz² ≈ 360: explicit would explode; implicit must stay
        // bounded by the initial extrema.
        let m = CanutoMixing::default();
        let mut x = vec![25.0, 5.0, 5.0, 5.0];
        let dz = vec![10.0; 4];
        let k = vec![1.0; 3];
        m.diffuse_implicit(&mut x, &dz, &k, 3600.0, 0.0);
        assert!(x.iter().all(|&v| (5.0 - 1e-9..=25.0 + 1e-9).contains(&v)), "{x:?}");
        // Nearly homogenised.
        assert!((x[0] - x[3]).abs() < 1.0);
    }

    #[test]
    fn surface_flux_enters_top_cell() {
        let m = CanutoMixing::default();
        let mut x = vec![10.0; 5];
        let dz = vec![10.0; 5];
        let k = vec![0.0; 4]; // no mixing: flux stays in the top cell
        m.diffuse_implicit(&mut x, &dz, &k, 100.0, 0.05);
        assert!((x[0] - 10.0 - 100.0 * 0.05 / 10.0).abs() < 1e-12);
        assert!(x[1..].iter().all(|&v| v == 10.0));
    }

    /// The one-right-hand-side solver as it stood before the factor/solve
    /// split, dividing by every coefficient: the parent reference of the
    /// reciprocal factors (commit `74957b4` matched it bit for bit).
    fn parent_diffuse_implicit(
        x: &mut [f64],
        dz: &[f64],
        k_int: &[f64],
        dt: f64,
        surface_flux: f64,
    ) {
        let n = x.len();
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        let mut c = vec![0.0; n];
        let mut d = vec![0.0; n];
        for k in 0..n {
            let up = if k > 0 {
                k_int[k - 1] / (0.5 * (dz[k - 1] + dz[k]))
            } else {
                0.0
            };
            let dn = if k + 1 < n {
                k_int[k] / (0.5 * (dz[k] + dz[k + 1]))
            } else {
                0.0
            };
            a[k] = -dt * up / dz[k];
            c[k] = -dt * dn / dz[k];
            b[k] = 1.0 - a[k] - c[k];
            d[k] = x[k];
        }
        d[0] += dt * surface_flux / dz[0];
        for k in 1..n {
            let m = a[k] / b[k - 1];
            b[k] -= m * c[k - 1];
            d[k] -= m * d[k - 1];
        }
        x[n - 1] = d[n - 1] / b[n - 1];
        for k in (0..n - 1).rev() {
            x[k] = (d[k] - c[k] * x[k + 1]) / b[k];
        }
    }

    /// Four fields solved together are each solved alone, bit for bit
    /// (the model solves T, S, u, v through one `solve`), and every field is
    /// within 1e-12 of its largest magnitude of the parent's divide-form
    /// solver: the Thomas recurrences of a diagonally dominant system carry
    /// a few ulp per level, ~1e-14 over 80 levels.
    #[test]
    fn factor_once_matches_four_independent_solves_bitwise() {
        use ap3esm_precision::Golden;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let m = CanutoMixing::default();
        let mut rng = StdRng::seed_from_u64(12);
        // One `TridiagFactors` across all columns, long and short in turn,
        // as the model's workspace reuses it.
        let mut factors = TridiagFactors::with_capacity(80);
        let (mut inv_dz, mut inv_dzi) = (Vec::new(), Vec::new());
        let mut convective = 0;
        let mut against_parent = Golden::new();
        for case in 0..4 {
            for n in 1..=80usize {
                let dz: Vec<f64> = (0..n).map(|_| rng.gen_range(5.0..300.0)).collect();
                // Every fourth interface (and the whole column in case 0)
                // is statically unstable and takes `k_convective`.
                let k_int: Vec<f64> = (0..n - 1)
                    .map(|k| {
                        let n2 = if case == 0 || k % 4 == 3 {
                            -rng.gen_range(1e-8..1e-4)
                        } else {
                            rng.gen_range(0.0..1e-3)
                        };
                        let k = m.diffusivity(n2, rng.gen_range(0.0..1e-3));
                        convective += (k == m.k_convective) as usize;
                        k
                    })
                    .collect();
                let dt = rng.gen_range(10.0..7200.0);
                let fields: Vec<(Vec<f64>, f64)> = (0..4)
                    .map(|_| {
                        let x = (0..n).map(|_| rng.gen_range(-2.0..35.0)).collect();
                        (x, rng.gen_range(-1e-4..1e-4))
                    })
                    .collect();

                reciprocal_thickness(&dz, &mut inv_dz, &mut inv_dzi);
                m.factor(&inv_dz, &inv_dzi, k_int.as_chunks().0, [n], dt, &mut factors);
                // All four side by side, as the model solves a column.
                let mut together: Vec<[f64; 4]> = (0..n)
                    .map(|k| std::array::from_fn(|f| fields[f].0[k]))
                    .collect();
                m.solve(
                    &factors,
                    &mut together,
                    [0],
                    [std::array::from_fn(|f| fields[f].1)],
                );
                for (f, (x, flux)) in fields.iter().enumerate() {
                    let mut alone = x.clone();
                    m.diffuse_implicit(&mut alone, &dz, &k_int, dt, *flux);
                    for k in 0..n {
                        assert_eq!(
                            together[k][f].to_bits(),
                            alone[k].to_bits(),
                            "n = {n}, field {f}, level {k}"
                        );
                    }
                    let mut parent = x.clone();
                    parent_diffuse_implicit(&mut parent, &dz, &k_int, dt, *flux);
                    let name = format!("case {case}, n = {n}, field {f}");
                    against_parent.field(&name, &alone, &parent, 1e-12);
                }
            }
        }
        assert!(convective > 80, "unstable interfaces were never exercised");
        assert!(
            against_parent.check(against_parent.hash()).is_ok(),
            "{}",
            against_parent.report()
        );
    }

    /// One random column of `depth` cells on `nlev` levels: its
    /// diffusivities (every fourth interface convective), four fields and
    /// their surface fluxes.
    fn column(
        rng: &mut impl rand::Rng,
        m: &CanutoMixing,
        depth: usize,
    ) -> (Vec<f64>, Vec<[f64; 4]>, [f64; 4]) {
        let k_int = (0..depth.saturating_sub(1))
            .map(|k| {
                let n2 = if k % 4 == 3 {
                    -rng.gen_range(1e-8..1e-4)
                } else {
                    rng.gen_range(0.0..1e-3)
                };
                m.diffusivity(n2, rng.gen_range(0.0..1e-3))
            })
            .collect();
        let x = (0..depth)
            .map(|_| std::array::from_fn(|_| rng.gen_range(-2.0..35.0)))
            .collect();
        (k_int, x, std::array::from_fn(|_| rng.gen_range(-1e-4..1e-4)))
    }

    proptest::proptest! {
        /// Four columns factored and solved in lock-step are each factored
        /// and solved alone, bit for bit, whatever their depths: any mix of
        /// `1..=nlev` cells, a tail group of fewer than four (the rest of
        /// depth 0), the columns' slots in any order in one staging array.
        #[test]
        fn four_columns_in_lock_step_are_four_single_columns(
            nlev in 1usize..=14,
            depths in proptest::collection::vec(0usize..=14, 4),
            live in 1usize..=4,
            seed in proptest::prelude::any::<u64>(),
            dt in 10.0f64..7200.0,
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let m = CanutoMixing::default();
            let mut rng = StdRng::seed_from_u64(seed);
            let dz: Vec<f64> = (0..nlev).map(|_| rng.gen_range(5.0..300.0)).collect();
            let (mut inv_dz, mut inv_dzi) = (Vec::new(), Vec::new());
            reciprocal_thickness(&dz, &mut inv_dz, &mut inv_dzi);
            // Columns past `live` are the tail's absent ones.
            let depth: [usize; 4] =
                std::array::from_fn(|w| if w < live { 1 + depths[w] % nlev } else { 0 });
            let columns: Vec<_> = depth.iter().map(|&d| column(&mut rng, &m, d)).collect();

            // Slots of `nlev` levels in the staging array, in reverse order.
            let start: [usize; 4] = std::array::from_fn(|w| nlev * (3 - w));
            let mut x = vec![[f64::NAN; 4]; 4 * nlev];
            let mut k_int = vec![[f64::NAN; 4]; nlev - 1];
            for (w, (kq, xw, _)) in columns.iter().enumerate() {
                x[start[w]..][..depth[w]].copy_from_slice(xw);
                for (k, &kq) in kq.iter().enumerate() {
                    k_int[k][w] = kq;
                }
            }
            let mut four = TridiagFactors::<4>::with_capacity(nlev);
            m.factor(&inv_dz, &inv_dzi, &k_int, depth, dt, &mut four);
            m.solve(&four, &mut x, start, std::array::from_fn(|w| columns[w].2));

            let mut one = TridiagFactors::with_capacity(nlev);
            for (w, (kq, xw, flux)) in columns.iter().enumerate().take(live) {
                let mut alone = xw.clone();
                m.factor(&inv_dz, &inv_dzi, kq.as_chunks().0, [depth[w]], dt, &mut one);
                m.solve(&one, &mut alone, [0], [*flux]);
                let bits = |x: &[[f64; 4]]| -> Vec<[u64; 4]> {
                    x.iter().map(|x| x.map(f64::to_bits)).collect()
                };
                proptest::prop_assert_eq!(bits(&x[start[w]..][..depth[w]]), bits(&alone));
                // Nothing past the column's cells was touched.
                proptest::prop_assert!(x[start[w] + depth[w]..][..nlev - depth[w]]
                    .iter()
                    .all(|x| x.iter().all(|v| v.is_nan())));
            }
            for w in live..4 {
                let untouched = x[start[w]..][..nlev].iter().all(|x| x.iter().all(|v| v.is_nan()));
                proptest::prop_assert!(untouched);
            }
        }
    }

    #[test]
    #[should_panic(expected = "columns 0 and 1 overlap")]
    fn overlapping_columns_are_refused() {
        let m = CanutoMixing::default();
        let mut factors = TridiagFactors::<2>::default();
        m.factor(&[0.1; 3], &[0.1; 2], &[[1e-3; 2]; 2], [3, 3], 60.0, &mut factors);
        m.solve(&factors, &mut [[1.0]; 6], [0, 2], [[0.0]; 2]);
    }

    #[test]
    fn single_level_column() {
        let m = CanutoMixing::default();
        let mut x = vec![5.0];
        m.diffuse_implicit(&mut x, &[10.0], &[], 100.0, 0.1);
        assert!((x[0] - 6.0).abs() < 1e-12);
    }
}
