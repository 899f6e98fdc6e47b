//! Canuto-style Richardson-number vertical mixing with an implicit
//! (tridiagonal) solve.
//!
//! The *canuto* scheme is where the paper's 3-D point-removal optimisation
//! was first applied (§5.2.2: "previous research utilized this technique
//! for thread-level optimization only in the canuto parameterization
//! scheme"); in AP3ESM it is extended to the whole component. Our
//! diffusivity closure keeps the scheme's structure — stability-dependent
//! coefficients from Ri — with a standard (1 + 5·Ri)⁻² fit.
//!
//! The model mixes a row's columns in tiles of the machine's width
//! (`RowMixing`, one body compiled for each [`ap3esm_pp::Isa`], DESIGN.md
//! §17): the tile's columns go through [`CanutoMixing::factor`] and
//! [`CanutoMixing::solve`] in lock-step, one column per vector lane, each
//! bit for bit as [`CanutoMixing::diffuse_implicit`] mixes it alone.

use std::ops::Range;

use ap3esm_physics::constants::CP_SEAWATER;
use ap3esm_pp::{Isa, Kernel, Levels};

use crate::eos::brunt_vaisala_sq;
use crate::model::OcnForcing;
use crate::sweep::{pick, stage_row_len, WetSpans};
use crate::RHO0;

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
    /// `Ri = N² / S²` (shear squared `s2`, buoyancy frequency `n2`):
    /// `k_convective` where the column is unstable (`n2 < 0`: convective
    /// overturn), else `k_background + k_max / (1 + 5·Ri)²` with `S²` at
    /// least 1e-10 (a NaN `s2` reads 1e-10, as `f64::max` has it). Both are
    /// computed and one is selected, so a tile of interfaces is branch-free.
    /// (The select is written with the stable case, NaN included, first,
    /// and a `|` that does not short-circuit: with the runtime
    /// `k_convective` first, or with `||`, the compiler kept the lanes
    /// scalar and made the select a branch.)
    #[inline(always)]
    pub fn diffusivity(&self, n2: f64, s2: f64) -> f64 {
        let ri = n2 / pick(s2 > 1e-10, s2, 1e-10);
        let d = 1.0 + 5.0 * ri;
        pick(
            (n2 >= 0.0) | n2.is_nan(),
            self.k_background + self.k_max / (d * d),
            self.k_convective,
        )
    }

    /// Implicit vertical diffusion of one column:
    /// `(I − dt·D) xⁿ⁺¹ = xⁿ + dt·b`, where `D` is the diffusion operator
    /// with interface diffusivities `k_int` (len = nlev−1), cell thicknesses
    /// `dz`, and `surface_flux` enters the top cell (field·m/s). Solves the
    /// tridiagonal system with the Thomas algorithm (unconditionally
    /// stable, as LICOM's vmix must be at 80 levels).
    ///
    /// One column and one right-hand side through [`reciprocal_thickness`] +
    /// [`CanutoMixing::factor`] + [`CanutoMixing::solve`] at `W = 1`: the
    /// reference the model's row tiles, `W` columns in lock-step, are held
    /// to bit for bit.
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
        let mut factors = vec![[[0.0; 1]; 3]; x.len()];
        let depth = [x.len()];
        self.factor(&inv_dz, &inv_dzi, |k, _| k_int[k], depth, dt, &mut factors);
        let x = x.as_chunks_mut::<1>().0.as_chunks_mut::<1>().0;
        self.solve(&factors, depth, dt * inv_dz[0], x, [[surface_flux]]);
    }

    /// Build `(I − dt·D)` for each of `W` columns of `depth[w]` cells on the
    /// same levels and run the Thomas forward elimination on its
    /// coefficients, into `factors[k]` for every level `k` of the deepest
    /// column (`factors.len()`, at least 1), from the reciprocal geometry of
    /// [`reciprocal_thickness`] (`inv_dz` of the cells, `inv_dzi` of the
    /// interfaces) and the interface diffusivity `k_int(k, w)` below level
    /// `k` of column `w`, asked for in turn for every level but the deepest
    /// and read for `k < depth[w] − 1` only. The matrix depends on the
    /// geometry, the diffusivities and `dt` only, so every field of a column
    /// shares the result. One divide per level: the eliminated diagonal is
    /// kept as its reciprocal. (A caller that computes the diffusivities in
    /// `k_int` computes them inside this recurrence, so the compiler
    /// vectorises them across the columns, not across the levels.)
    ///
    /// The columns go level by level in lock-step, every lane at every
    /// level, so the divide and recurrence chains of different columns
    /// overlap and the body is one vector operation per step. A column
    /// computes exactly the operations it would alone down to its own
    /// bottom, where `dn = 0` is selected whatever `k_int` holds below; past
    /// it `up = dn = 0`, so its levels there are the identity (`a = c = 0`,
    /// `b = 1`) and a column of depth 0 is the identity throughout. So `W`
    /// columns factor bit for bit as `W` single ones.
    #[inline(always)]
    pub fn factor<const W: usize>(
        &self,
        inv_dz: &[f64],
        inv_dzi: &[f64],
        k_int: impl Fn(usize, usize) -> f64,
        depth: [usize; W],
        dt: f64,
        factors: &mut [LevelFactors<W>],
    ) {
        let n = factors.len();
        assert!(n > 0, "empty columns");
        let (inv_dz, inv_dzi) = (&inv_dz[..n], &inv_dzi[..n - 1]);
        let mut up = [0.0; W];
        let mut above = [[0.0; W]; 3];
        for (k, level) in factors[..n - 1].iter_mut().enumerate() {
            let dn = |w: usize| pick(k + 1 < depth[w], k_int(k, w) * inv_dzi[k], 0.0);
            above = eliminate(dt, inv_dz[k], &mut up, &above, dn);
            *level = above;
        }
        // The deepest level has no interface below it in any column.
        factors[n - 1] = eliminate(dt, inv_dz[n - 1], &mut up, &above, |_| 0.0);
    }

    /// Solve the factored systems in place for `F` fields of each of the
    /// `W` columns at once: `x[k][f][w]` is field `f` of column `w` at level
    /// `k`, `xⁿ` on entry and `xⁿ⁺¹` on return, for every level of
    /// `factors`; `surface · surface_flux[f][w]` enters the top cell, with
    /// `surface = dt / dz[0]` (`dt · inv_dz[0]`). The fields do not mix, nor
    /// do the columns: each goes through the operations of a solve on its
    /// own, in the same order, so the answer for a field does not depend on
    /// which others it is solved beside. A column's levels at and past its
    /// `depth` never reach the ones above (its bottom is `x·(1/b')`,
    /// selected, not `(x − c·x_below)·(1/b')`), so they may hold anything.
    #[inline(always)]
    pub fn solve<const W: usize, const F: usize>(
        &self,
        factors: &[LevelFactors<W>],
        depth: [usize; W],
        surface: f64,
        x: &mut [[[f64; W]; F]],
        surface_flux: [[f64; W]; F],
    ) {
        let n = factors.len();
        let x = &mut x[..n];
        // Each level is loaded into registers, updated and stored whole.
        let mut above = x[0];
        for f in 0..F {
            for w in 0..W {
                above[f][w] += surface * surface_flux[f][w];
            }
        }
        x[0] = above;
        for k in 1..n {
            let [m, _, _] = factors[k];
            let mut here = x[k];
            for f in 0..F {
                for w in 0..W {
                    here[f][w] -= m[w] * above[f][w];
                }
            }
            x[k] = here;
            above = here;
        }
        let [_, inv_b, _] = factors[n - 1];
        let mut below = x[n - 1];
        for below in &mut below {
            for w in 0..W {
                below[w] *= inv_b[w];
            }
        }
        x[n - 1] = below;
        for k in (0..n - 1).rev() {
            let [_, inv_b, c] = factors[k];
            let mut here = x[k];
            for f in 0..F {
                for w in 0..W {
                    let x_k = here[f][w];
                    here[f][w] = pick(
                        k + 1 < depth[w],
                        (x_k - c[w] * below[f][w]) * inv_b[w],
                        x_k * inv_b[w],
                    );
                }
            }
            x[k] = here;
            below = here;
        }
    }
}

/// One level of [`CanutoMixing::factor`] for `W` columns, from the level
/// above's factors, the conductance `up[w]` of each column's interface
/// above (replaced by `dn(w)`, that of the interface below) and the level's
/// `1/dz`. Coefficients `a·x[k-1] + b·x[k] + c·x[k+1] = d`, eliminated as
/// they are built: `m = a / b'[k-1]`, `b' = b − m·c[k-1]`. At the top `a`
/// is −0 and the level above zeros, so `m` is ±0 and `b − m·c` is `b`
/// exactly (`b ≥ 1`): no branch, which would cut the lanes apart. One loop
/// over the lanes, the interface's diffusivity inlined into it, so the
/// compiler vectorises the level across the lanes.
#[inline(always)]
fn eliminate<const W: usize>(
    dt: f64,
    inv_dz: f64,
    up: &mut [f64; W],
    above: &LevelFactors<W>,
    dn: impl Fn(usize) -> f64,
) -> LevelFactors<W> {
    let [_, inv_b_above, c_above] = *above;
    let [mut m, mut inv_b, mut c] = [[0.0; W]; 3];
    for w in 0..W {
        let dn = dn(w);
        let a = -dt * up[w] * inv_dz;
        c[w] = -dt * dn * inv_dz;
        let mut b = 1.0 - a - c[w];
        m[w] = a * inv_b_above[w];
        b -= m[w] * c_above[w];
        inv_b[w] = 1.0 / b;
        up[w] = dn;
    }
    [m, inv_b, c]
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

/// One level of the Thomas-eliminated implicit-diffusion matrices of `W`
/// columns, written by [`CanutoMixing::factor`] and applied by
/// [`CanutoMixing::solve`]: `[m, inv_b, c]`, each per column — the
/// elimination multiplier (±0, and unused, at the top), the reciprocal of the
/// eliminated diagonal and the super-diagonal.
pub type LevelFactors<const W: usize> = [[f64; W]; 3];

/// Scratch values per level per column of a mixing tile: its four fields
/// and its three factors.
const TILE_VALUES: usize = 7;

/// The scratch a lane's [`RowMixing`] needs on `nlev` levels, for the widest
/// tile of any compilation.
pub(crate) fn tile_scratch_len(nlev: usize) -> usize {
    let widest = Isa::ALL.into_iter().map(Isa::f64_lanes).max().unwrap_or(1);
    TILE_VALUES * nlev * widest
}

/// Everything the mixing tiles read: the advected `(T, S, u, v)` of every
/// interior row in the stage ([`stage_row_len`]), the block's `kmt` and
/// spans, the reciprocal geometry ([`reciprocal_thickness`]), the surface
/// forcing and the step's constants.
pub(crate) struct MixInputs<'a> {
    pub ni: usize,
    pub stride: usize,
    pub nlev: usize,
    pub stage: &'a [f64],
    pub kmt: &'a [u16],
    pub spans: &'a WetSpans,
    pub inv_dz: &'a [f64],
    pub inv_dzi: &'a [f64],
    pub forcing: &'a OcnForcing,
    pub mixing: CanutoMixing,
    pub dt: f64,
}

/// One lane's part of the mixing phase: slab rows `rows` (ghost rows mix
/// nothing), their part of every level of `state.{t, s, u, v}` in `out`,
/// and a scratch of at least [`tile_scratch_len`] values.
pub(crate) struct RowMixing<'a> {
    pub step: &'a MixInputs<'a>,
    pub rows: Range<usize>,
    pub out: [Levels<'a, f64>; 4],
    pub scratch: &'a mut [f64],
}

impl Kernel for RowMixing<'_> {
    type Output = ();

    /// Each row's level-0 span (every column with a wet level, or the whole
    /// row), in tiles of `LANES` columns; a tile that would run past the
    /// row starts earlier, so a few columns are computed twice, to the same
    /// bits, or its extra columns are land; a row narrower than a tile goes
    /// one column at a time.
    #[inline(always)]
    fn run<const LANES: usize>(self) {
        let RowMixing {
            step,
            rows,
            mut out,
            scratch,
        } = self;
        let (ni, stride) = (step.ni, step.stride);
        for (r, jj) in rows.enumerate() {
            let span = step.spans.sweep(jj, 0);
            let at = r * stride;
            if ni < LANES {
                for ii in span {
                    tile::<1>(step, jj, ii, at, &mut out, scratch);
                }
                continue;
            }
            let last = ni + 1 - LANES;
            for ii in span.step_by(LANES) {
                tile::<LANES>(step, jj, ii.min(last), at, &mut out, scratch);
            }
        }
    }
}

/// Columns `ii .. ii + W` of slab row `jj` (interior ones), mixed from the
/// stage and stored at `at + ii` of each level of `out`, the lane's part of
/// the state. Every lane computes every level down to the deepest column of
/// the tile, a lane past its column's floor on that column's top values (a
/// land column's on zeros), so no NaN or subnormal from a slot that no wet
/// level owns enters the arithmetic; only levels `k < kmt` are stored.
#[inline(always)]
fn tile<const W: usize>(
    step: &MixInputs,
    jj: usize,
    ii: usize,
    at: usize,
    out: &mut [Levels<f64>; 4],
    scratch: &mut [f64],
) {
    let MixInputs {
        ni,
        stride,
        nlev,
        stage,
        inv_dz,
        inv_dzi,
        forcing,
        mixing,
        dt,
        ..
    } = *step;
    let kmt: &[u16; W] = step.kmt[jj * stride + ii..][..W]
        .try_into()
        .expect("W columns");
    let mut depth = [0; W];
    for w in 0..W {
        depth[w] = kmt[w] as usize;
    }
    let kmax = depth.into_iter().max().unwrap_or(0);
    if kmax == 0 {
        return;
    }
    let (j, i) = (jj - 1, ii - 1);
    let row_len = stage_row_len(nlev, ni);
    let row = &stage[j * row_len..][..row_len];
    let run = |k: usize, f: usize| -> &[f64; W] {
        row[(4 * k + f) * ni + i..][..W]
            .try_into()
            .expect("W columns")
    };
    let (x, factors) = scratch.split_at_mut(4 * nlev * W);
    let x = &mut x.as_chunks_mut::<W>().0.as_chunks_mut::<4>().0[..kmax];
    let factors = &mut factors.as_chunks_mut::<W>().0.as_chunks_mut::<3>().0[..kmax];

    let mut top = [[0.0; W]; 4];
    for (f, top) in top.iter_mut().enumerate() {
        let level0 = *run(0, f);
        for w in 0..W {
            top[w] = pick(0 < depth[w], level0[w], 0.0);
        }
    }
    for (k, x) in x.iter_mut().enumerate() {
        let mut level = [[0.0; W]; 4];
        for (f, level) in level.iter_mut().enumerate() {
            let staged = *run(k, f);
            for w in 0..W {
                level[w] = pick(k < depth[w], staged[w], top[f][w]);
            }
        }
        *x = level;
    }

    // Interface diffusivities from Ri; the matrix depends on them only, so
    // it is factored once and solved for T, S, u, v together.
    let interface = |k: usize, w: usize| -> f64 {
        let ([t_up, s_up, u_up, v_up], [t_dn, s_dn, u_dn, v_dn]) = (&x[k], &x[k + 1]);
        let inv_dzi = inv_dzi[k];
        let n2 = brunt_vaisala_sq(t_up[w], s_up[w], t_dn[w], s_dn[w], inv_dzi);
        let du = (u_up[w] - u_dn[w]) * inv_dzi;
        let dv = (v_up[w] - v_dn[w]) * inv_dzi;
        mixing.diffusivity(n2, du * du + dv * dv)
    };
    let fi = j * ni + i;
    let at_fi = |f: &[f64]| -> [f64; W] { f[fi..][..W].try_into().expect("W columns") };
    let (qnet, salt, taux, tauy) = (
        at_fi(&forcing.qnet),
        at_fi(&forcing.salt_flux),
        at_fi(&forcing.taux),
        at_fi(&forcing.tauy),
    );
    let mut flux = [[0.0; W]; 4];
    for w in 0..W {
        flux[0][w] = qnet[w] / (RHO0 * CP_SEAWATER); // K·m/s
        flux[1][w] = salt[w];
        flux[2][w] = taux[w] / RHO0;
        flux[3][w] = tauy[w] / RHO0;
    }
    mixing.factor(inv_dz, inv_dzi, interface, depth, dt, factors);
    mixing.solve(factors, depth, dt * inv_dz[0], x, flux);

    for (k, x) in x.iter().enumerate() {
        for (out, x) in out.iter_mut().zip(x) {
            let cells: &mut [f64; W] = (&mut out.level(k)[at + ii..][..W])
                .try_into()
                .expect("W columns");
            let mut new = *cells;
            for w in 0..W {
                new[w] = pick(k < depth[w], x[w], new[w]);
            }
            *cells = new;
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
        assert!(
            x.iter().all(|&v| (5.0 - 1e-9..=25.0 + 1e-9).contains(&v)),
            "{x:?}"
        );
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
        // One factor store across all columns, long and short in turn, as a
        // lane's scratch is reused.
        let mut factors = vec![[[f64::NAN; 1]; 3]; 80];
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
                let factors = &mut factors[..n];
                m.factor(&inv_dz, &inv_dzi, |k, _| k_int[k], [n], dt, factors);
                // All four side by side, as the model solves a column.
                let mut together: Vec<[[f64; 1]; 4]> = (0..n)
                    .map(|k| std::array::from_fn(|f| [fields[f].0[k]]))
                    .collect();
                let flux = std::array::from_fn(|f| [fields[f].1]);
                m.solve(factors, [n], dt * inv_dz[0], &mut together, flux);
                for (f, (x, flux)) in fields.iter().enumerate() {
                    let mut alone = x.clone();
                    m.diffuse_implicit(&mut alone, &dz, &k_int, dt, *flux);
                    for k in 0..n {
                        assert_eq!(
                            together[k][f][0].to_bits(),
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
        (
            k_int,
            x,
            std::array::from_fn(|_| rng.gen_range(-1e-4..1e-4)),
        )
    }

    /// `W` random columns (those past `live` of depth 0) mixed in
    /// lock-step, each level of a lane past its column's floor and every
    /// diffusivity below its bottom interface NaN, against each column
    /// mixed alone: bit for bit, and no NaN reaches a column's own levels.
    fn lock_step_matches_single_columns<const W: usize>(
        nlev: usize,
        depths: &[usize],
        live: usize,
        seed: u64,
        dt: f64,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let m = CanutoMixing::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let dz: Vec<f64> = (0..nlev).map(|_| rng.gen_range(5.0..300.0)).collect();
        let (mut inv_dz, mut inv_dzi) = (Vec::new(), Vec::new());
        reciprocal_thickness(&dz, &mut inv_dz, &mut inv_dzi);
        let depth: [usize; W] =
            std::array::from_fn(|w| if w < live { 1 + depths[w] % nlev } else { 0 });
        let columns: Vec<_> = depth.iter().map(|&d| column(&mut rng, &m, d)).collect();

        let n = depth.into_iter().max().unwrap_or(0).max(1);
        let mut x = vec![[[f64::NAN; W]; 4]; n];
        let mut k_int = vec![[f64::NAN; W]; n];
        let mut flux = [[f64::NAN; W]; 4];
        for (w, (kq, xw, fw)) in columns.iter().enumerate() {
            for (k, xk) in xw.iter().enumerate() {
                for f in 0..4 {
                    x[k][f][w] = xk[f];
                }
            }
            for (k, &kq) in kq.iter().enumerate() {
                k_int[k][w] = kq;
            }
            for f in 0..4 {
                flux[f][w] = fw[f];
            }
        }
        let mut factors = vec![[[f64::NAN; W]; 3]; n];
        m.factor(
            &inv_dz,
            &inv_dzi,
            |k, w| k_int[k][w],
            depth,
            dt,
            &mut factors,
        );
        m.solve(&factors, depth, dt * inv_dz[0], &mut x, flux);

        let mut one = vec![[[f64::NAN; 1]; 3]; nlev];
        for (w, (kq, xw, fw)) in columns.iter().enumerate().take(live) {
            let d = depth[w];
            let mut alone: Vec<[[f64; 1]; 4]> = xw.iter().map(|x| x.map(|x| [x])).collect();
            m.factor(&inv_dz, &inv_dzi, |k, _| kq[k], [d], dt, &mut one[..d]);
            m.solve(&one[..d], [d], dt * inv_dz[0], &mut alone, fw.map(|f| [f]));
            for k in 0..d {
                let got = x[k].map(|f| f[w].to_bits());
                let want = alone[k].map(|f| f[0].to_bits());
                assert_eq!(got, want, "W = {W}, column {w} of depth {d}, level {k}");
            }
        }
    }

    proptest::proptest! {
        /// Four or eight columns factored and solved in lock-step are each
        /// factored and solved alone, bit for bit, whatever their depths: any
        /// mix of `1..=nlev` cells, a tile of fewer live columns (the rest of
        /// depth 0), anything below each column's floor.
        #[test]
        fn four_columns_in_lock_step_are_four_single_columns(
            nlev in 1usize..=14,
            depths in proptest::collection::vec(0usize..=14, 8),
            live in 1usize..=8,
            seed in proptest::prelude::any::<u64>(),
            dt in 10.0f64..7200.0,
        ) {
            lock_step_matches_single_columns::<4>(nlev, &depths, live.min(4), seed, dt);
            lock_step_matches_single_columns::<8>(nlev, &depths, live, seed, dt);
        }
    }

    /// The interface diffusivity as the per-column code wrote it, branches
    /// and `f64::max` included: the reference of the branch-free one.
    fn diffusivity_branchy(m: &CanutoMixing, n2: f64, s2: f64) -> f64 {
        if n2 < 0.0 {
            return m.k_convective;
        }
        let ri = n2 / s2.max(1e-10);
        m.k_background + m.k_max / (1.0 + 5.0 * ri).powi(2)
    }

    /// Row-tile mixing on every compilation this CPU runs, under both loop
    /// policies and any cut of rows, against `diffuse_implicit` per column
    /// and field, bit for bit: random `kmt ∈ 0..=nlev` (1 and land among
    /// them), rows whose spans are no multiple of a tile and narrower than
    /// one, NaN in every stage slot that no wet level owns, and every state
    /// cell that is not a wet level keeping its bits.
    #[test]
    fn row_tiles_are_per_column_diffuse_implicit_bitwise() {
        use crate::eos::brunt_vaisala_sq;
        use crate::sweep::WetSpans;
        use ap3esm_pp::{for_level_chunks_mut, SimulatedCpe};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let m = CanutoMixing::default();
        let mut rng = StdRng::seed_from_u64(37);
        let mut compared = [0usize; 2];
        for case in 0..24 {
            let (ni, nj, nlev) = (
                rng.gen_range(1..=19),
                rng.gen_range(1..=9),
                rng.gen_range(1..=7),
            );
            let stride = ni + 2;
            let slab = stride * (nj + 2);
            let kmt: Vec<u16> = (0..slab)
                .map(|_| match rng.gen_range(0..6) {
                    0 => 0,
                    1 => 1,
                    _ => rng.gen_range(0..=nlev) as u16,
                })
                .collect();
            let wet = |i: usize, j: usize| kmt[(j + 1) * stride + i + 1] as usize;
            let row_len = stage_row_len(nlev, ni);
            let mut stage = vec![f64::NAN; nj * row_len];
            let ranges = [(-2.0, 30.0), (30.0, 38.0), (-0.5, 0.5), (-0.5, 0.5)];
            for j in 0..nj {
                for i in 0..ni {
                    for k in 0..wet(i, j) {
                        for (f, &(lo, hi)) in ranges.iter().enumerate() {
                            stage[j * row_len + (4 * k + f) * ni + i] = rng.gen_range(lo..hi);
                        }
                    }
                }
            }
            let mut field = |lo: f64, hi: f64, len: usize| -> Vec<f64> {
                (0..len).map(|_| rng.gen_range(lo..hi)).collect()
            };
            let forcing = OcnForcing {
                taux: field(-0.2, 0.2, ni * nj),
                tauy: field(-0.2, 0.2, ni * nj),
                qnet: field(-200.0, 200.0, ni * nj),
                salt_flux: field(-1e-5, 1e-5, ni * nj),
            };
            let dz = field(5.0, 300.0, nlev);
            let state = [(); 4].map(|()| field(-1e3, 1e3, nlev * slab));
            let (mut inv_dz, mut inv_dzi) = (Vec::new(), Vec::new());
            reciprocal_thickness(&dz, &mut inv_dz, &mut inv_dzi);
            let dt = rng.gen_range(10.0..7200.0);

            // The reference: each wet column's four fields, one at a time.
            let mut want = state.clone();
            for j in 0..nj {
                for i in 0..ni {
                    let depth = wet(i, j);
                    let staged = |k: usize, f: usize| stage[j * row_len + (4 * k + f) * ni + i];
                    let k_int: Vec<f64> = (0..depth.saturating_sub(1))
                        .map(|k| {
                            let [t_up, s_up, u_up, v_up] = [0, 1, 2, 3].map(|f| staged(k, f));
                            let [t_dn, s_dn, u_dn, v_dn] = [0, 1, 2, 3].map(|f| staged(k + 1, f));
                            let n2 = brunt_vaisala_sq(t_up, s_up, t_dn, s_dn, inv_dzi[k]);
                            let du = (u_up - u_dn) * inv_dzi[k];
                            let dv = (v_up - v_dn) * inv_dzi[k];
                            diffusivity_branchy(&m, n2, du * du + dv * dv)
                        })
                        .collect();
                    let fi = j * ni + i;
                    let flux = [
                        forcing.qnet[fi] / (RHO0 * CP_SEAWATER),
                        forcing.salt_flux[fi],
                        forcing.taux[fi] / RHO0,
                        forcing.tauy[fi] / RHO0,
                    ];
                    for (f, want) in want.iter_mut().enumerate() {
                        let mut x: Vec<f64> = (0..depth).map(|k| staged(k, f)).collect();
                        m.diffuse_implicit(&mut x, &dz[..depth], &k_int, dt, flux[f]);
                        for (k, x) in x.into_iter().enumerate() {
                            want[k * slab + (j + 1) * stride + i + 1] = x;
                        }
                    }
                }
            }

            let rows_per_lane = rng.gen_range(1..=nj + 2);
            let cut = SimulatedCpe::new(64, 8 * rows_per_lane, 8);
            for exclude_land in [true, false] {
                let spans = WetSpans::new(&kmt, stride, nlev, exclude_land);
                let step = MixInputs {
                    ni,
                    stride,
                    nlev,
                    stage: &stage,
                    kmt: &kmt,
                    spans: &spans,
                    inv_dz: &inv_dz,
                    inv_dzi: &inv_dzi,
                    forcing: &forcing,
                    mixing: m,
                    dt,
                };
                for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
                    let mut got = state.clone();
                    let [t, s, u, v] = got.each_mut().map(|f| &mut f[..]);
                    let mut scratch = vec![f64::NAN; tile_scratch_len(nlev)];
                    let scratch = std::sync::Mutex::new(&mut scratch);
                    for_level_chunks_mut(&cut, nj + 2, slab, [t, s, u, v], |rows, out| {
                        isa.run(RowMixing {
                            step: &step,
                            rows,
                            out,
                            scratch: &mut scratch.lock().unwrap()[..],
                        });
                    });
                    for (f, (got, want)) in got.iter().zip(&want).enumerate() {
                        for (c, (g, w)) in got.iter().zip(want).enumerate() {
                            let (k, cell) = (c / slab, c % slab);
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "case {case}, {isa}, exclude_land = {exclude_land}, field {f}, \
                                 level {k}, slab cell {cell} (kmt {}): {g} vs {w}",
                                kmt[cell]
                            );
                        }
                    }
                }
            }
            for j in 0..nj {
                for i in 0..ni {
                    compared[(wet(i, j) == 1) as usize] += wet(i, j);
                }
            }
        }
        assert!(compared[0] > 500 && compared[1] > 50, "{compared:?}");
    }

    #[test]
    fn single_level_column() {
        let m = CanutoMixing::default();
        let mut x = vec![5.0];
        m.diffuse_implicit(&mut x, &[10.0], &[], 100.0, 0.1);
        assert!((x[0] - 6.0).abs() < 1e-12);
    }
}
