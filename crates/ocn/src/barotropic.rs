//! The barotropic substep as row tiles: continuity, then momentum, each a
//! [`ap3esm_pp::Kernel`] over a lane's slab rows, compiled for each
//! [`ap3esm_pp::Isa`], that covers each row's level-0 [`WetSpans`] span in
//! tiles of [`TILE`] columns and updates `η` or `(ū, v̄)` in place
//! (DESIGN.md §17).
//!
//! In place is safe because a phase reads the field it writes at the cell
//! it writes only: continuity reads `η` at its own cell and `ū, v̄` around
//! it, momentum `ū, v̄` at its own cell and `η` around it. A land cell, a
//! ghost cell and a column outside the span keep their bits: a tile stores a
//! land cell's old value through the same select that stores a wet cell's
//! new one, and no tile reaches past its row's span. So a row's tail is
//! covered by narrower tiles, never by a tile shifted back over columns
//! already done, which would update them twice.
//!
//! Every wet cell computes what the per-cell loops computed, operands and
//! order unchanged: a masked face flux, a one-sided gradient and a land cell
//! are selects between values that are all computed, never a branch and
//! never a product with a 0/1 mask (`0·NaN` and `0·(−x)` would not be the
//! `0.0` those loops wrote).

use std::ops::Range;

use ap3esm_pp::Kernel;

use crate::model::OcnForcing;
use crate::sweep::{gradient, pick, shifted, RowFactors, WetSpans};
use crate::{G, RHO0};

/// `1/(ρ₀·max(H, 1))` of every slab cell of depth `H`: the depth-mean
/// acceleration of a unit wind stress. Depends on the depth only, so the
/// model takes it once.
pub(crate) fn inv_rho_h(depth: &[f64]) -> Vec<f64> {
    depth.iter().map(|h| 1.0 / (RHO0 * h.max(1.0))).collect()
}

/// The wind's depth-mean acceleration `τ · (1/ρ₀H)` of every interior cell
/// of a block of `ni` columns from `forcing` and the table of
/// [`inv_rho_h`], into `wind` laid out as the slab of rows of `stride`.
pub(crate) fn wind_accel(
    forcing: &OcnForcing,
    inv_rho_h: &[f64],
    ni: usize,
    stride: usize,
    [wind_x, wind_y]: &mut [Vec<f64>; 2],
) {
    let rows = forcing
        .taux
        .chunks_exact(ni)
        .zip(forcing.tauy.chunks_exact(ni));
    for (j, (taux, tauy)) in rows.enumerate() {
        let at = (j + 1) * stride + 1..(j + 1) * stride + 1 + ni;
        let inv_rho_h = &inv_rho_h[at.clone()];
        let out = wind_x[at.clone()].iter_mut().zip(&mut wind_y[at]);
        for (((x, y), (&tx, &ty)), &r) in out.zip(taux.iter().zip(tauy)).zip(inv_rho_h) {
            (*x, *y) = (tx * r, ty * r);
        }
    }
}

/// Everything both phases read but the three fields: the block's geometry,
/// the step's row factors and wind acceleration, and the substep's
/// constants.
pub(crate) struct BtrInputs<'a> {
    pub stride: usize,
    pub kmt: &'a [u16],
    pub depth: &'a [f64],
    /// dx per slab row, ghost rows included.
    pub dx_ext: &'a [f64],
    pub fcor: &'a [f64],
    pub rows: &'a [RowFactors],
    pub spans: &'a WetSpans,
    /// `τ · (1/ρ₀H)` of every interior cell, zonal and meridional, laid out
    /// as the slab: taken once per step.
    pub wind: [&'a [f64]; 2],
    pub dy: f64,
    pub inv_dy: f64,
    pub dt: f64,
    pub r_drag: f64,
}

/// One lane's part of the continuity phase: `η ← η − dt·∇·(H ū)` with
/// masked face fluxes over slab rows `rows`, whose part of `η` is `eta`.
pub(crate) struct Continuity<'a> {
    pub step: &'a BtrInputs<'a>,
    pub rows: Range<usize>,
    pub ubar: &'a [f64],
    pub vbar: &'a [f64],
    pub eta: &'a mut [f64],
}

/// One lane's part of the momentum phase: the surface slope of the new `η`
/// (forward-backward), wind, drag, then implicit rotation over slab rows
/// `rows`, whose parts of `ū, v̄` are `ubar, vbar`.
pub(crate) struct Momentum<'a> {
    pub step: &'a BtrInputs<'a>,
    pub rows: Range<usize>,
    pub eta: &'a [f64],
    pub ubar: &'a mut [f64],
    pub vbar: &'a mut [f64],
}

/// A row of a phase, updated in place a tile at a time.
trait InPlace {
    /// Update columns `i .. i + W` of the row's span.
    fn tile<const W: usize>(&mut self, i: usize);
}

/// The columns of a barotropic tile: one AVX-512F register of `f64`, two
/// AVX2 ones, four SSE2 ones. With tiles of one AVX2 register (4) LLVM
/// compiled both bodies to 2-wide pairs and shuffles, and the AVX2 phases ran
/// 1.7× slower, the portable ones 1.5× (DESIGN.md §17).
const TILE: usize = 8;

/// Cover a span of `n` columns with tiles of [`TILE`], then its rest with
/// tiles of 4, 2 and 1: each column exactly once, at any compilation's
/// `LANES` up to a tile.
#[inline(always)]
fn cover<const LANES: usize>(n: usize, row: &mut impl InPlace) {
    const { assert!(LANES <= TILE, "a compilation wider than a barotropic tile") };
    let mut i = 0;
    while i + TILE <= n {
        row.tile::<TILE>(i);
        i += TILE;
    }
    if i + 4 <= n {
        row.tile::<4>(i);
        i += 4;
    }
    if i + 2 <= n {
        row.tile::<2>(i);
        i += 2;
    }
    if i < n {
        row.tile::<1>(i);
    }
}

impl Kernel for Continuity<'_> {
    type Output = ();

    #[inline(always)]
    fn run<const LANES: usize>(self) {
        let Continuity {
            step,
            rows,
            ubar,
            vbar,
            eta,
        } = self;
        let BtrInputs {
            stride,
            kmt,
            depth,
            dx_ext: dx,
            dy,
            dt,
            ..
        } = *step;
        let first = rows.start * stride;
        for jj in rows {
            let span = step.spans.sweep(jj, 0);
            let (c, n) = (jj * stride + span.start, span.len());
            if n == 0 {
                continue;
            }
            // Meridional faces use the *shared* interface length (mean of
            // the adjacent rows' dx), so the discrete divergence telescopes
            // and volume is conserved exactly on the converging tripolar
            // rows.
            let mut row = ContinuityRow {
                kmt: shifted(kmt, c, n, stride),
                depth: shifted(depth, c, n, stride),
                ubar: shifted(ubar, c, n, stride),
                vbar: shifted(vbar, c, n, stride),
                eta: &mut eta[c - first..][..n],
                lx_n: 0.5 * (dx[jj] + dx[jj + 1]),
                lx_s: 0.5 * (dx[jj - 1] + dx[jj]),
                inv_area: step.rows[jj - 1].inv_area,
                dy,
                dt,
            };
            cover::<LANES>(n, &mut row);
        }
    }
}

/// The span of one row of the continuity phase: each input the span and
/// the same run shifted to the east, west, north and south neighbours
/// (`[c, e, w, n, s]`), `eta` the span's cells.
struct ContinuityRow<'a> {
    kmt: [&'a [u16]; 5],
    depth: [&'a [f64]; 5],
    ubar: [&'a [f64]; 5],
    vbar: [&'a [f64]; 5],
    eta: &'a mut [f64],
    lx_n: f64,
    lx_s: f64,
    inv_area: f64,
    dy: f64,
    dt: f64,
}

impl InPlace for ContinuityRow<'_> {
    /// (No `array::map` here: it is not always inlined, and a call would
    /// run the baseline compilation.)
    #[inline(always)]
    fn tile<const W: usize>(&mut self, i: usize) {
        let at = |f: &[f64]| -> [f64; W] { f[i..i + W].try_into().expect("W values") };
        let wet = |kmt: &[u16]| -> [u16; W] { kmt[i..i + W].try_into().expect("W values") };
        let [k_c, k_e, k_w, k_n, k_s] = self.kmt;
        let [h_c, h_e, h_w, h_n, h_s] = self.depth;
        let [u_c, u_e, u_w, ..] = self.ubar;
        let [v_c, _, _, v_n, v_s] = self.vbar;
        let (k_c, k_e, k_w, k_n, k_s) = (wet(k_c), wet(k_e), wet(k_w), wet(k_n), wet(k_s));
        let (h_c, h_e, h_w, h_n, h_s) = (at(h_c), at(h_e), at(h_w), at(h_n), at(h_s));
        let (u_c, u_e, u_w) = (at(u_c), at(u_e), at(u_w));
        let (v_c, v_n, v_s) = (at(v_c), at(v_n), at(v_s));
        let ContinuityRow {
            lx_n,
            lx_s,
            inv_area,
            dy,
            dt,
            ..
        } = *self;
        let cells: &mut [f64; W] = (&mut self.eta[i..i + W]).try_into().expect("W values");
        let mut new = *cells;
        for l in 0..W {
            // A face carries `½(H_a + H_b)·vel` between two wet cells, 0
            // towards land; the cell's own wetness is the store's select.
            let face = |wet: u16, h_a: f64, h_b: f64, vel: f64| -> f64 {
                pick(wet > 0, 0.5 * (h_a + h_b) * vel, 0.0)
            };
            let fx_e = face(k_e[l], h_c[l], h_e[l], 0.5 * (u_c[l] + u_e[l]));
            let fx_w = face(k_w[l], h_w[l], h_c[l], 0.5 * (u_w[l] + u_c[l]));
            let fy_n = face(k_n[l], h_c[l], h_n[l], 0.5 * (v_c[l] + v_n[l]));
            let fy_s = face(k_s[l], h_s[l], h_c[l], 0.5 * (v_s[l] + v_c[l]));
            let div = ((fx_e - fx_w) * dy + fy_n * lx_n - fy_s * lx_s) * inv_area;
            new[l] = pick(k_c[l] > 0, new[l] - dt * div, new[l]);
        }
        *cells = new;
    }
}

impl Kernel for Momentum<'_> {
    type Output = ();

    #[inline(always)]
    fn run<const LANES: usize>(self) {
        let Momentum {
            step,
            rows,
            eta,
            ubar,
            vbar,
        } = self;
        let BtrInputs {
            stride,
            kmt,
            wind: [wind_x, wind_y],
            inv_dy,
            dt,
            r_drag,
            ..
        } = *step;
        let first = rows.start * stride;
        for jj in rows {
            let span = step.spans.sweep(jj, 0);
            let (c, n) = (jj * stride + span.start, span.len());
            if n == 0 {
                continue;
            }
            let j = jj - 1;
            let RowFactors {
                inv_dx, rot_btr, ..
            } = step.rows[j];
            let mut row = MomentumRow {
                kmt: shifted(kmt, c, n, stride),
                eta: shifted(eta, c, n, stride),
                wind: [&wind_x[c..][..n], &wind_y[c..][..n]],
                ubar: &mut ubar[c - first..][..n],
                vbar: &mut vbar[c - first..][..n],
                inv_dx,
                inv_dy,
                rot_btr,
                a: dt * step.fcor[j],
                dt,
                r_drag,
            };
            cover::<LANES>(n, &mut row);
        }
    }
}

/// The span of one row of the momentum phase: `kmt` and `eta` the span and
/// the same run shifted to the east, west, north and south neighbours
/// (`[c, e, w, n, s]`), `ubar, vbar` the span's cells.
struct MomentumRow<'a> {
    kmt: [&'a [u16]; 5],
    eta: [&'a [f64]; 5],
    wind: [&'a [f64]; 2],
    ubar: &'a mut [f64],
    vbar: &'a mut [f64],
    inv_dx: f64,
    inv_dy: f64,
    rot_btr: f64,
    /// dt·f of the row.
    a: f64,
    dt: f64,
    r_drag: f64,
}

/// The surface slope `(∂η/∂x, ∂η/∂y)` at a cell from its east, west,
/// north and south neighbours (`(wet, η)` each) and its own `η`: the
/// sweep's masked gradient along each axis. The barotropic pressure
/// gradient is `−g` times it.
#[inline(always)]
fn surface_slope(
    [e, w, n, s]: [(bool, f64); 4],
    here: f64,
    inv_dx: f64,
    inv_dy: f64,
) -> (f64, f64) {
    (gradient(e, w, here, inv_dx), gradient(n, s, here, inv_dy))
}

impl InPlace for MomentumRow<'_> {
    #[inline(always)]
    fn tile<const W: usize>(&mut self, i: usize) {
        let at = |f: &[f64]| -> [f64; W] { f[i..i + W].try_into().expect("W values") };
        let wet = |kmt: &[u16]| -> [u16; W] { kmt[i..i + W].try_into().expect("W values") };
        let [k_c, k_e, k_w, k_n, k_s] = self.kmt;
        let [eta_c, eta_e, eta_w, eta_n, eta_s] = self.eta;
        let [wind_x, wind_y] = self.wind;
        let (k_c, k_e, k_w, k_n, k_s) = (wet(k_c), wet(k_e), wet(k_w), wet(k_n), wet(k_s));
        let (eta_c, eta_e, eta_w) = (at(eta_c), at(eta_e), at(eta_w));
        let (eta_n, eta_s) = (at(eta_n), at(eta_s));
        let (tx, ty) = (at(wind_x), at(wind_y));
        let MomentumRow {
            inv_dx,
            inv_dy,
            rot_btr,
            a,
            dt,
            r_drag,
            ..
        } = *self;
        let u_cells: &mut [f64; W] = (&mut self.ubar[i..i + W]).try_into().expect("W values");
        let v_cells: &mut [f64; W] = (&mut self.vbar[i..i + W]).try_into().expect("W values");
        let (mut u, mut v) = (*u_cells, *v_cells);
        // Three loops over the lanes, not one: with the rotation in the
        // first, LLVM paired each lane's `(u, v)` into 2-wide vectors
        // (`u + a·v`, `v − a·u` as one add-subtract) and the AVX-512 body
        // kept 120 scalar operations.
        let (mut u1, mut v1) = ([0.0; W], [0.0; W]);
        for l in 0..W {
            let (detadx, detady) = surface_slope(
                [
                    (k_e[l] > 0, eta_e[l]),
                    (k_w[l] > 0, eta_w[l]),
                    (k_n[l] > 0, eta_n[l]),
                    (k_s[l] > 0, eta_s[l]),
                ],
                eta_c[l],
                inv_dx,
                inv_dy,
            );
            let (uo, vo) = (u[l], v[l]);
            let du = dt * (-G * detadx - r_drag * uo + tx[l]);
            let dv = dt * (-G * detady - r_drag * vo + ty[l]);
            (u1[l], v1[l]) = (uo + du, vo + dv);
        }
        for l in 0..W {
            u[l] = pick(k_c[l] > 0, (u1[l] + a * v1[l]) * rot_btr, u[l]);
        }
        for l in 0..W {
            v[l] = pick(k_c[l] > 0, (v1[l] - a * u1[l]) * rot_btr, v[l]);
        }
        *u_cells = u;
        *v_cells = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap3esm_pp::{for_chunks_mut, ExecSpace, Isa, Serial, Threads};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    const NLEV: usize = 6;

    /// A random block with ghost rim: `kmt` with coasts, one-cell lakes and
    /// isolated wet cells, depths below 1 m among the wet ones, random
    /// fields on wet cells and NaN, +0 or −0 on land.
    struct Block {
        ni: usize,
        nj: usize,
        kmt: Vec<u16>,
        depth: Vec<f64>,
        dx_ext: Vec<f64>,
        fcor: Vec<f64>,
        rows: Vec<RowFactors>,
        forcing: OcnForcing,
        fields: [Vec<f64>; 3],
        dy: f64,
        dt: f64,
        r_drag: f64,
    }

    impl Block {
        fn random(rng: &mut StdRng, ni: usize, nj: usize) -> Self {
            let stride = ni + 2;
            let slab = stride * (nj + 2);
            let mut kmt: Vec<u16> = (0..slab)
                .map(|_| match rng.gen_range(0..8) {
                    0..=2 => 0,
                    3 => 1,
                    _ => rng.gen_range(1..=NLEV) as u16,
                })
                .collect();
            // Lakes of one cell: a wet cell whose four neighbours are land.
            for _ in 0..(ni * nj).div_ceil(12) {
                let idx = (rng.gen_range(0..nj) + 1) * stride + rng.gen_range(0..ni) + 1;
                for nb in [idx + 1, idx - 1, idx + stride, idx - stride] {
                    kmt[nb] = 0;
                }
                kmt[idx] = rng.gen_range(1..=NLEV) as u16;
            }
            let depth = kmt
                .iter()
                .map(|&k| match (k, rng.gen_range(0..6)) {
                    (0, _) => 0.0,
                    (_, 0) => rng.gen_range(0.05..1.0),
                    _ => rng.gen_range(1.0..5000.0),
                })
                .collect();
            let land = [f64::from_bits(0x7ff8_0000_dead_beef), f64::NAN, 0.0, -0.0];
            let mut field = |lo: f64, hi: f64| -> Vec<f64> {
                kmt.iter()
                    .map(|&k| match k {
                        0 => land[rng.gen_range(0..land.len())],
                        _ => rng.gen_range(lo..hi),
                    })
                    .collect()
            };
            let fields = [field(-1.5, 1.5), field(-0.8, 0.8), field(-0.8, 0.8)];
            let mut values = |lo: f64, hi: f64, len: usize| -> Vec<f64> {
                (0..len).map(|_| rng.gen_range(lo..hi)).collect()
            };
            let forcing = OcnForcing {
                taux: values(-0.3, 0.3, ni * nj),
                tauy: values(-0.3, 0.3, ni * nj),
                qnet: Vec::new(),
                salt_flux: Vec::new(),
            };
            let dx_ext = values(2.0e3, 2.0e5, nj + 2);
            let fcor = values(-1.4e-4, 1.4e-4, nj);
            let rows = (0..nj)
                .map(|_| RowFactors {
                    inv_dx: 1.0 / rng.gen_range(2.0e3..2.0e5),
                    inv_area: 1.0 / rng.gen_range(4.0e6..4.0e10),
                    rot_btr: 1.0 / (1.0 + rng.gen_range(0.0..0.1)),
                    rot: 0.0,
                })
                .collect();
            Block {
                ni,
                nj,
                kmt,
                depth,
                dx_ext,
                fcor,
                rows,
                forcing,
                fields,
                dy: rng.gen_range(2.0e3..2.0e5),
                dt: rng.gen_range(1.0..60.0),
                r_drag: 1.0e-6,
            }
        }

        /// Continuity as the per-cell loop wrote it before the row tiles:
        /// every cell copied, then each wet interior cell computed, each
        /// masked face a branch.
        fn continuity_per_cell(&self) -> Vec<f64> {
            let (ni, stride) = (self.ni, self.ni + 2);
            let [eta, ubar, vbar] = &self.fields;
            let (kmt, depth, dx_ext, dy) = (&self.kmt, &self.depth, &self.dx_ext, self.dy);
            let mut new_eta = eta.clone();
            for j in 0..self.nj {
                let jj = j + 1;
                for idx in jj * stride + 1..=jj * stride + ni {
                    if kmt[idx] == 0 {
                        continue;
                    }
                    let (e, w, n, s) = (idx + 1, idx - 1, idx + stride, idx - stride);
                    let face = |a: usize, b: usize, vel: f64| -> f64 {
                        if kmt[a] > 0 && kmt[b] > 0 {
                            0.5 * (depth[a] + depth[b]) * vel
                        } else {
                            0.0
                        }
                    };
                    let fx_e = face(idx, e, 0.5 * (ubar[idx] + ubar[e]));
                    let fx_w = face(w, idx, 0.5 * (ubar[w] + ubar[idx]));
                    let fy_n = face(idx, n, 0.5 * (vbar[idx] + vbar[n]));
                    let fy_s = face(s, idx, 0.5 * (vbar[s] + vbar[idx]));
                    let lx_n = 0.5 * (dx_ext[j + 1] + dx_ext[j + 2]);
                    let lx_s = 0.5 * (dx_ext[j] + dx_ext[j + 1]);
                    let div =
                        ((fx_e - fx_w) * dy + fy_n * lx_n - fy_s * lx_s) * self.rows[j].inv_area;
                    new_eta[idx] = eta[idx] - self.dt * div;
                }
            }
            new_eta
        }

        /// Momentum from `eta` as the per-cell loop wrote it: each masked
        /// gradient a branch, `1/(ρ₀·max(H, 1))` divided per cell.
        fn momentum_per_cell(&self, eta: &[f64]) -> [Vec<f64>; 2] {
            let (ni, stride, dt) = (self.ni, self.ni + 2, self.dt);
            let [_, ubar, vbar] = &self.fields;
            let (kmt, depth, inv_dy) = (&self.kmt, &self.depth, 1.0 / self.dy);
            let (mut new_u, mut new_v) = (ubar.clone(), vbar.clone());
            for j in 0..self.nj {
                let jj = j + 1;
                let RowFactors {
                    inv_dx, rot_btr, ..
                } = self.rows[j];
                let a = dt * self.fcor[j];
                for idx in jj * stride + 1..=jj * stride + ni {
                    if kmt[idx] == 0 {
                        continue;
                    }
                    let (e, w, n, s) = (idx + 1, idx - 1, idx + stride, idx - stride);
                    let detadx = if kmt[e] > 0 && kmt[w] > 0 {
                        (eta[e] - eta[w]) * (0.5 * inv_dx)
                    } else if kmt[e] > 0 {
                        (eta[e] - eta[idx]) * inv_dx
                    } else if kmt[w] > 0 {
                        (eta[idx] - eta[w]) * inv_dx
                    } else {
                        0.0
                    };
                    let detady = if kmt[n] > 0 && kmt[s] > 0 {
                        (eta[n] - eta[s]) * (0.5 * inv_dy)
                    } else if kmt[n] > 0 {
                        (eta[n] - eta[idx]) * inv_dy
                    } else if kmt[s] > 0 {
                        (eta[idx] - eta[s]) * inv_dy
                    } else {
                        0.0
                    };
                    let inv_rho_h = 1.0 / (RHO0 * depth[idx].max(1.0));
                    let fi = j * ni + (idx - jj * stride - 1);
                    let (taux, tauy) = (self.forcing.taux[fi], self.forcing.tauy[fi]);
                    let du = dt * (-G * detadx - self.r_drag * ubar[idx] + taux * inv_rho_h);
                    let dv = dt * (-G * detady - self.r_drag * vbar[idx] + tauy * inv_rho_h);
                    let (u1, v1) = (ubar[idx] + du, vbar[idx] + dv);
                    new_u[idx] = (u1 + a * v1) * rot_btr;
                    new_v[idx] = (v1 - a * u1) * rot_btr;
                }
            }
            [new_u, new_v]
        }
    }

    /// Both phases' row tiles, on every compilation this CPU runs, on one
    /// lane and two, under both loop policies, against the per-cell loops,
    /// bit for bit over the whole slab: every wet interior cell computed as
    /// they computed it, and every land, ghost and outside-the-span cell —
    /// NaN, +0 and −0 among them — keeping its bits.
    #[test]
    fn row_tiles_are_the_per_cell_loops_bitwise() {
        let mut rng = StdRng::seed_from_u64(38);
        let spaces: [Box<dyn ExecSpace>; 2] = [Box::new(Serial), Box::new(Threads::new(2))];
        let (mut wet, mut lakes, mut land) = (0, 0, 0);
        for case in 0..32 {
            let (ni, nj) = (rng.gen_range(1..=27), rng.gen_range(1..=9));
            let block = Block::random(&mut rng, ni, nj);
            let stride = ni + 2;
            let want_eta = block.continuity_per_cell();
            let want_uv = block.momentum_per_cell(&want_eta);
            let mut wind = [vec![0.0; want_eta.len()], vec![0.0; want_eta.len()]];
            wind_accel(
                &block.forcing,
                &inv_rho_h(&block.depth),
                ni,
                stride,
                &mut wind,
            );
            for exclude_land in [true, false] {
                let spans = WetSpans::new(&block.kmt, stride, NLEV, exclude_land);
                let step = BtrInputs {
                    stride,
                    kmt: &block.kmt,
                    depth: &block.depth,
                    dx_ext: &block.dx_ext,
                    fcor: &block.fcor,
                    rows: &block.rows,
                    spans: &spans,
                    wind: [&wind[0], &wind[1]],
                    dy: block.dy,
                    inv_dy: 1.0 / block.dy,
                    dt: block.dt,
                    r_drag: block.r_drag,
                };
                let [eta, ubar, vbar] = &block.fields;
                for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
                    for (lanes, space) in [1, 2].into_iter().zip(&spaces) {
                        let mut got_eta = eta.clone();
                        for_chunks_mut(&**space, nj + 2, [&mut got_eta[..]], |rows, [eta]| {
                            isa.run(Continuity {
                                step: &step,
                                rows,
                                ubar,
                                vbar,
                                eta,
                            })
                        });
                        let mut got_uv = [ubar.clone(), vbar.clone()];
                        let [u, v] = got_uv.each_mut().map(|f| &mut f[..]);
                        for_chunks_mut(&**space, nj + 2, [u, v], |rows, [ubar, vbar]| {
                            isa.run(Momentum {
                                step: &step,
                                rows,
                                eta: &got_eta,
                                ubar,
                                vbar,
                            })
                        });
                        let got = [&got_eta, &got_uv[0], &got_uv[1]];
                        let want = [&want_eta, &want_uv[0], &want_uv[1]];
                        for (f, (got, want)) in got.iter().zip(want).enumerate() {
                            for (idx, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                                assert_eq!(
                                    g.to_bits(),
                                    w.to_bits(),
                                    "case {case}, {isa}, {lanes} lane(s), exclude_land = \
                                     {exclude_land}, field {f}, slab cell {idx} (row {}, \
                                     kmt {}): {g} vs {w}",
                                    idx / stride,
                                    block.kmt[idx]
                                );
                            }
                        }
                    }
                }
            }
            for jj in 1..=nj {
                for idx in jj * stride + 1..=jj * stride + ni {
                    let nbs = [idx + 1, idx - 1, idx + stride, idx - stride];
                    match block.kmt[idx] {
                        0 => land += 1,
                        _ if nbs.iter().all(|&nb| block.kmt[nb] == 0) => lakes += 1,
                        _ => wet += 1,
                    }
                }
            }
        }
        assert!(
            wet > 500 && lakes > 100 && land > 500,
            "{wet} {lakes} {land}"
        );
    }
}
