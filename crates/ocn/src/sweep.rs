//! The first half of the baroclinic step as row sweeps: per level, the
//! baroclinic pressure of a lane's rows, then each row's momentum and
//! upwind tracer advection, written branch-free so that one body compiles
//! to the vector width of each [`ap3esm_pp::Isa`] (DESIGN.md §17, §20).
//!
//! A lane owns a range of interior rows and walks the levels top down. It
//! integrates the pressure of its rows plus one row either side into its
//! own scratch, level by level, so the pressure needs no phase and no array
//! of its own, then sweeps each of its rows across that level's
//! [`WetSpans`] and writes the advected `(T, S, u, v)` into the rows' part
//! of the stage ([`stage_row_len`]). Mixing (in `model`) reads them from
//! there.
//!
//! Every point computes what the per-column code computed, operands and
//! order unchanged: a masked one-sided fallback or an upwind choice is a
//! select between values that are all computed, never a branch, and a point
//! whose level is land computes values nobody reads.

use std::ops::Range;

use ap3esm_pp::Kernel;

use crate::eos::density;
use crate::{G, RHO0};

/// One interior row's reciprocals, taken at the top of every step from the
/// state's geometry and the configuration's time steps.
#[derive(Clone, Copy, Default)]
pub(crate) struct RowFactors {
    /// 1/dx.
    pub inv_dx: f64,
    /// 1/(dx·dy): the cell area of the continuity divergence.
    pub inv_area: f64,
    /// 1/(1 + a²), a = dt·f: the implicit rotation of the barotropic
    /// substep and of the baroclinic step.
    pub rot_btr: f64,
    pub rot: f64,
}

/// Values per interior row of the stage: `(T, S, u, v)` of every level,
/// laid out `[k][field][i]`, so that a sweep writes four contiguous runs per
/// level and the rows of a lane's range are one contiguous part.
pub(crate) fn stage_row_len(nlev: usize, ni: usize) -> usize {
    4 * nlev * ni
}

/// Where the row sweeps go, per slab row and level, built once from the
/// block's `kmt`. A span is a range of slab columns.
pub(crate) struct WetSpans {
    nlev: usize,
    /// The interior columns a row's sweep computes at a level: from its
    /// first to its last wet one (`k < kmt`) under the §5.2.2 exclusion,
    /// the whole interior row without it (the dense box of the Fig. 5
    /// ablation); empty on the ghost rows.
    sweep: Vec<[u32; 2]>,
    /// The columns whose pressure is integrated at a level: the first to
    /// the last wet one, ghost columns included. Every pressure a sweep
    /// selects is at a wet neighbour, so it lies in its row's span.
    pressure: Vec<[u32; 2]>,
}

impl WetSpans {
    /// The spans of a block of `nj + 2` slab rows of `stride` columns.
    pub fn new(kmt: &[u16], stride: usize, nlev: usize, exclude_land: bool) -> Self {
        let nrows = kmt.len() / stride;
        let wet = |jj: usize, k: usize, cols: Range<usize>| -> [u32; 2] {
            let row = &kmt[jj * stride..][..stride];
            let mut wet = cols.filter(|&ii| k < row[ii] as usize);
            match (wet.next(), wet.next_back()) {
                (Some(lo), hi) => [lo as u32, hi.unwrap_or(lo) as u32 + 1],
                (None, _) => [0, 0],
            }
        };
        let mut sweep = Vec::with_capacity(nrows * nlev);
        let mut pressure = Vec::with_capacity(nrows * nlev);
        for jj in 0..nrows {
            let interior = jj > 0 && jj + 1 < nrows;
            for k in 0..nlev {
                sweep.push(match (interior, exclude_land) {
                    (false, _) => [0, 0],
                    (true, true) => wet(jj, k, 1..stride - 1),
                    (true, false) => [1, stride as u32 - 1],
                });
                pressure.push(wet(jj, k, 0..stride));
            }
        }
        WetSpans {
            nlev,
            sweep,
            pressure,
        }
    }

    /// The columns slab row `jj`'s sweep computes at level `k`.
    #[inline(always)]
    pub fn sweep(&self, jj: usize, k: usize) -> Range<usize> {
        let [lo, hi] = self.sweep[jj * self.nlev + k];
        lo as usize..hi as usize
    }

    /// The columns of slab row `jj` whose pressure is integrated at level
    /// `k`.
    #[inline(always)]
    pub fn pressure(&self, jj: usize, k: usize) -> Range<usize> {
        let [lo, hi] = self.pressure[jj * self.nlev + k];
        lo as usize..hi as usize
    }

    /// Points the sweeps compute per step, every level of every row.
    #[cfg(test)]
    pub fn swept_points(&self) -> usize {
        self.sweep.iter().map(|[lo, hi]| (hi - lo) as usize).sum()
    }
}

/// Everything the sweeps read: the block's state at the start of the
/// baroclinic step (`u, v, t, s` level-major over slabs of `eta.len()`) and
/// the step's constants.
pub(crate) struct SweepInputs<'a> {
    pub ni: usize,
    pub stride: usize,
    pub nlev: usize,
    pub eta: &'a [f64],
    pub u: &'a [f64],
    pub v: &'a [f64],
    pub t: &'a [f64],
    pub s: &'a [f64],
    pub kmt: &'a [u16],
    pub dz: &'a [f64],
    pub fcor: &'a [f64],
    pub rows: &'a [RowFactors],
    pub spans: &'a WetSpans,
    pub inv_dy: f64,
    pub dt: f64,
    pub r_drag: f64,
}

/// One lane's part of the sweep phase: interior rows `rows`, their part of
/// the stage in `out`, and a pressure scratch of at least
/// `(rows.len() + 2) · stride` values.
pub(crate) struct RowSweep<'a> {
    pub step: &'a SweepInputs<'a>,
    pub rows: Range<usize>,
    pub press: &'a mut [f64],
    pub out: &'a mut [f64],
}

impl Kernel for RowSweep<'_> {
    type Output = ();

    #[inline(always)]
    fn run<const LANES: usize>(self) {
        let RowSweep {
            step,
            rows,
            press,
            out,
        } = self;
        let SweepInputs {
            ni,
            stride,
            nlev,
            eta,
            dz,
            spans,
            ..
        } = *step;
        let slab = eta.len();
        let row_len = stage_row_len(nlev, ni);
        let out = &mut out[..rows.len() * row_len];
        // Slab rows of the pressure: the lane's rows (slab rows `j + 1`)
        // and one either side.
        let prows = rows.start..rows.end + 2;
        let press = &mut press[..prows.len() * stride];
        // p[k]/ρ0 = g·η + g·Σ (ρ'−ρ0)/ρ0·dz, a running sum per column, one
        // level's term at a time, down to the column's floor.
        for (p, &eta) in press.iter_mut().zip(&eta[prows.start * stride..]) {
            *p = G * eta;
        }
        for k in 0..nlev {
            let level = k * slab..(k + 1) * slab;
            let [u, v, t, s] = [step.u, step.v, step.t, step.s].map(|f| &f[level.clone()]);
            for (jj, p) in prows.clone().zip(press.chunks_exact_mut(stride)) {
                let span = spans.pressure(jj, k);
                let at = jj * stride;
                let (t, s) = (&t[at..][span.clone()], &s[at..][span.clone()]);
                for ((p, &t), &s) in p[span].iter_mut().zip(t).zip(s) {
                    let rho = density(t, s);
                    *p += G * (rho - RHO0) / RHO0 * dz[k];
                }
            }
            for (j, out) in rows.clone().zip(out.chunks_exact_mut(row_len)) {
                let jj = j + 1;
                let span = spans.sweep(jj, k);
                if span.is_empty() {
                    continue;
                }
                let row = Row {
                    k,
                    j,
                    at: jj * stride,
                    pat: (jj - prows.start) * stride,
                    span,
                };
                let out = &mut out[4 * k * ni..][..4 * ni];
                sweep_row::<LANES>(step, &row, [u, v, t, s], press, out);
            }
        }
    }
}

/// One row of one level: slab row `j + 1`, starting at slab index `at` of
/// the level and at `pat` of the lane's pressure scratch.
struct Row {
    k: usize,
    j: usize,
    at: usize,
    pat: usize,
    span: Range<usize>,
}

/// `a` where `c` holds, else `b`: a select, which a tile of lanes compiles
/// to a blend.
#[inline(always)]
pub(crate) fn pick(c: bool, a: f64, b: f64) -> f64 {
    if c {
        a
    } else {
        b
    }
}

/// The pressure gradient along one axis with the masked one-sided
/// fallbacks: centred between two wet neighbours, one-sided towards a lone
/// wet neighbour, zero with neither.
#[inline(always)]
pub(crate) fn gradient(up: (bool, f64), down: (bool, f64), here: f64, inv_d: f64) -> f64 {
    let ((o_up, p_up), (o_dn, p_dn)) = (up, down);
    pick(
        o_up & o_dn,
        (p_up - p_dn) * (0.5 * inv_d),
        pick(
            o_up,
            (p_up - here) * inv_d,
            pick(o_dn, (here - p_dn) * inv_d, 0.0),
        ),
    )
}

/// The upwind difference of a field along one axis for a velocity `vel`:
/// towards the upstream neighbour when it is wet, zero when it is land.
#[inline(always)]
fn upwind(vel: f64, up: (bool, f64), down: (bool, f64), here: f64) -> f64 {
    let ((o_up, f_up), (o_dn, f_dn)) = (up, down);
    pick(
        vel >= 0.0,
        here - pick(o_dn, f_dn, here),
        pick(o_up, f_up, here) - here,
    )
}

/// One row of one level's streams: each input is the row's span and the
/// same run shifted to the east, west, north and south neighbours (`[c, e,
/// w, n, s]`; `kmt` without the centre), each output the span's part of the
/// row's level of the stage.
struct Streams<'a> {
    t: [&'a [f64]; 5],
    s: [&'a [f64]; 5],
    p: [&'a [f64]; 5],
    kmt: [&'a [u16]; 4],
    u: &'a [f64],
    v: &'a [f64],
    out: [&'a mut [f64]; 4],
    level: u16,
    inv_dx: f64,
    inv_dy: f64,
    rot: f64,
    /// dt·f of the row.
    a: f64,
    dt: f64,
    r_drag: f64,
}

/// The `n` values of `f` from `first` on, then the same run shifted to the
/// east, west, north and south neighbours.
#[inline(always)]
pub(crate) fn shifted<T>(f: &[T], first: usize, n: usize, stride: usize) -> [&[T]; 5] {
    [first, first + 1, first - 1, first + stride, first - stride].map(|at| &f[at..][..n])
}

/// Momentum (pressure gradient, drag, implicit rotation) and upwind
/// advection of `T` and `S` by the old velocity, at every column of the
/// row's span, in tiles of `W` columns (the last one shifted back to end
/// on the span's end, so a few columns are computed twice, to the same
/// bits); `out` is the row's level of the stage, `[field][i]`.
#[inline(always)]
fn sweep_row<const W: usize>(
    step: &SweepInputs,
    row: &Row,
    [u, v, t, s]: [&[f64]; 4],
    press: &[f64],
    out: &mut [f64],
) {
    let SweepInputs {
        ni,
        stride,
        kmt,
        inv_dy,
        dt,
        r_drag,
        ..
    } = *step;
    let Row { k, j, at, pat, .. } = *row;
    let n = row.span.len();
    let (c, pc) = (at + row.span.start, pat + row.span.start);
    let (out_t, rest) = out.split_at_mut(ni);
    let (out_s, rest) = rest.split_at_mut(ni);
    let (out_u, out_v) = rest.split_at_mut(ni);
    let first = row.span.start - 1;
    let RowFactors { inv_dx, rot, .. } = step.rows[j];
    let mut row = Streams {
        t: shifted(t, c, n, stride),
        s: shifted(s, c, n, stride),
        p: shifted(press, pc, n, stride),
        kmt: [c + 1, c - 1, c + stride, c - stride].map(|at| &kmt[at..][..n]),
        u: &u[c..][..n],
        v: &v[c..][..n],
        out: [out_t, out_s, out_u, out_v].map(|o| &mut o[first..][..n]),
        level: k as u16,
        inv_dx,
        inv_dy,
        rot,
        a: dt * step.fcor[j],
        dt,
        r_drag,
    };
    if n < W {
        for i in 0..n {
            tile::<1>(&mut row, i);
        }
        return;
    }
    let mut i = 0;
    while i + W < n {
        tile::<W>(&mut row, i);
        i += W;
    }
    tile::<W>(&mut row, n - W);
}

/// Columns `i .. i + W` of a row's span, lane by lane into registers, then
/// the four outputs stored. (No `array::map` here: it is not always
/// inlined, and a call would run the baseline compilation.)
#[inline(always)]
fn tile<const W: usize>(row: &mut Streams, i: usize) {
    let at = |f: &[f64]| -> [f64; W] { f[i..i + W].try_into().expect("W values") };
    let wet = |kmt: &[u16]| -> [u16; W] { kmt[i..i + W].try_into().expect("W values") };
    let [t_c, t_e, t_w, t_n, t_s] = row.t;
    let [s_c, s_e, s_w, s_n, s_s] = row.s;
    let [p_c, p_e, p_w, p_n, p_s] = row.p;
    let [k_e, k_w, k_n, k_s] = row.kmt;
    let (t_c, t_e, t_w, t_n, t_s) = (at(t_c), at(t_e), at(t_w), at(t_n), at(t_s));
    let (s_c, s_e, s_w, s_n, s_s) = (at(s_c), at(s_e), at(s_w), at(s_n), at(s_s));
    let (p_c, p_e, p_w, p_n, p_s) = (at(p_c), at(p_e), at(p_w), at(p_n), at(p_s));
    let (k_e, k_w, k_n, k_s) = (wet(k_e), wet(k_w), wet(k_n), wet(k_s));
    let (u, v) = (at(row.u), at(row.v));
    let Streams {
        level,
        inv_dx,
        inv_dy,
        rot,
        a,
        dt,
        r_drag,
        ..
    } = *row;
    let mut new = [[0.0; W]; 4];
    for l in 0..W {
        let (oe, ow, on, os) = (
            level < k_e[l],
            level < k_w[l],
            level < k_n[l],
            level < k_s[l],
        );
        let dpdx = gradient((oe, p_e[l]), (ow, p_w[l]), p_c[l], inv_dx);
        let dpdy = gradient((on, p_n[l]), (os, p_s[l]), p_c[l], inv_dy);
        let (uo, vo) = (u[l], v[l]);
        let du = dt * (-dpdx - r_drag * uo);
        let dv = dt * (-dpdy - r_drag * vo);
        let (u1, v1) = (uo + du, vo + dv);

        let adv = |f_c: f64, f_e: f64, f_w: f64, f_n: f64, f_s: f64| -> f64 {
            let fx = uo * upwind(uo, (oe, f_e), (ow, f_w), f_c) * inv_dx;
            let fy = vo * upwind(vo, (on, f_n), (os, f_s), f_c) * inv_dy;
            -(fx + fy)
        };
        new[0][l] = t_c[l] + dt * adv(t_c[l], t_e[l], t_w[l], t_n[l], t_s[l]);
        new[1][l] = s_c[l] + dt * adv(s_c[l], s_e[l], s_w[l], s_n[l], s_s[l]);
        new[2][l] = (u1 + a * v1) * rot;
        new[3][l] = (v1 - a * u1) * rot;
    }
    let [o_t, o_s, o_u, o_v] = &mut row.out;
    o_t[i..i + W].copy_from_slice(&new[0]);
    o_s[i..i + W].copy_from_slice(&new[1]);
    o_u[i..i + W].copy_from_slice(&new[2]);
    o_v[i..i + W].copy_from_slice(&new[3]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap3esm_pp::Isa;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A random block: `kmt` with coasts, one-level columns and land
    /// (ghost rows and columns included), random fields everywhere.
    struct Block {
        ni: usize,
        nlev: usize,
        kmt: Vec<u16>,
        eta: Vec<f64>,
        fields: [Vec<f64>; 4],
        dz: Vec<f64>,
        fcor: Vec<f64>,
        rows: Vec<RowFactors>,
    }

    impl Block {
        fn random(rng: &mut StdRng, ni: usize, nj: usize, nlev: usize) -> Self {
            let slab = (ni + 2) * (nj + 2);
            let kmt = (0..slab)
                .map(|_| match rng.gen_range(0..6) {
                    0 => 0,
                    1 => 1,
                    _ => rng.gen_range(0..=nlev) as u16,
                })
                .collect();
            let mut field = |lo: f64, hi: f64, len: usize| -> Vec<f64> {
                (0..len).map(|_| rng.gen_range(lo..hi)).collect()
            };
            let eta = field(-1.0, 1.0, slab);
            let fields = [
                field(-0.5, 0.5, nlev * slab),
                field(-0.5, 0.5, nlev * slab),
                field(-2.0, 30.0, nlev * slab),
                field(30.0, 38.0, nlev * slab),
            ];
            let dz = field(5.0, 300.0, nlev);
            let fcor = field(-1.4e-4, 1.4e-4, nj);
            let rows = (0..nj)
                .map(|_| RowFactors {
                    inv_dx: 1.0 / rng.gen_range(2.0e3..2.0e5),
                    inv_area: 0.0,
                    rot_btr: 0.0,
                    rot: 1.0 / (1.0 + rng.gen_range(0.0..1.0)),
                })
                .collect();
            Block {
                ni,
                nlev,
                kmt,
                eta,
                fields,
                dz,
                fcor,
                rows,
            }
        }

        fn inputs<'a>(&'a self, spans: &'a WetSpans) -> SweepInputs<'a> {
            let [u, v, t, s] = &self.fields;
            SweepInputs {
                ni: self.ni,
                stride: self.ni + 2,
                nlev: self.nlev,
                eta: &self.eta,
                u,
                v,
                t,
                s,
                kmt: &self.kmt,
                dz: &self.dz,
                fcor: &self.fcor,
                rows: &self.rows,
                spans,
                inv_dy: 1.0 / 1.1e5,
                dt: 600.0,
                r_drag: 1.0e-6,
            }
        }

        /// The new `(T, S, u, v)` of level `k` of interior cell `(i, j)`,
        /// written out per column as the step computed it before the
        /// sweeps: the pressure integrated down the column, each masked
        /// fallback and upwind choice a branch.
        fn per_column(&self, step: &SweepInputs, i: usize, j: usize, k: usize) -> [f64; 4] {
            let stride = self.ni + 2;
            let slab = self.eta.len();
            let idx = (j + 1) * stride + i + 1;
            let (e, w_, n, s_) = (idx + 1, idx - 1, idx + stride, idx - stride);
            let [u, v, t, s] = self.fields.each_ref().map(|f| &f[k * slab..][..slab]);
            let p = |nb: usize| {
                let mut acc = G * self.eta[nb];
                for kk in 0..=k {
                    let rho = density(
                        self.fields[2][kk * slab + nb],
                        self.fields[3][kk * slab + nb],
                    );
                    acc += G * (rho - RHO0) / RHO0 * self.dz[kk];
                }
                acc
            };
            let ocean = |nb: usize| (k as u16) < self.kmt[nb];
            let RowFactors { inv_dx, rot, .. } = self.rows[j];
            let (inv_dy, dt, r_drag) = (step.inv_dy, step.dt, step.r_drag);
            let a = dt * self.fcor[j];
            let dpdx = if ocean(e) && ocean(w_) {
                (p(e) - p(w_)) * (0.5 * inv_dx)
            } else if ocean(e) {
                (p(e) - p(idx)) * inv_dx
            } else if ocean(w_) {
                (p(idx) - p(w_)) * inv_dx
            } else {
                0.0
            };
            let dpdy = if ocean(n) && ocean(s_) {
                (p(n) - p(s_)) * (0.5 * inv_dy)
            } else if ocean(n) {
                (p(n) - p(idx)) * inv_dy
            } else if ocean(s_) {
                (p(idx) - p(s_)) * inv_dy
            } else {
                0.0
            };
            let (uo, vo) = (u[idx], v[idx]);
            let du = dt * (-dpdx - r_drag * uo);
            let dv = dt * (-dpdy - r_drag * vo);
            let (u1, v1) = (uo + du, vo + dv);
            let adv = |field: &[f64]| -> f64 {
                let fx = if uo >= 0.0 {
                    let upw = if ocean(w_) { field[w_] } else { field[idx] };
                    uo * (field[idx] - upw) * inv_dx
                } else {
                    let upw = if ocean(e) { field[e] } else { field[idx] };
                    uo * (upw - field[idx]) * inv_dx
                };
                let fy = if vo >= 0.0 {
                    let upw = if ocean(s_) { field[s_] } else { field[idx] };
                    vo * (field[idx] - upw) * inv_dy
                } else {
                    let upw = if ocean(n) { field[n] } else { field[idx] };
                    vo * (upw - field[idx]) * inv_dy
                };
                -(fx + fy)
            };
            [
                t[idx] + dt * adv(t),
                s[idx] + dt * adv(s),
                (u1 + a * v1) * rot,
                (v1 - a * u1) * rot,
            ]
        }
    }

    /// Every wet point of the stage, swept by lanes of `rows_per_lane` rows
    /// on every compilation this CPU runs, under both loop policies, equals
    /// the per-column formula bit for bit; a dry point (`k ≥ kmt`) is never
    /// read and is not compared.
    #[test]
    fn row_sweeps_are_the_per_column_formula_bitwise() {
        let mut rng = StdRng::seed_from_u64(36);
        let mut compared = [0usize; 2];
        for case in 0..24 {
            let (ni, nj, nlev) = (
                rng.gen_range(1..=19),
                rng.gen_range(1..=9),
                rng.gen_range(1..=7),
            );
            let block = Block::random(&mut rng, ni, nj, nlev);
            let stride = ni + 2;
            let row_len = stage_row_len(nlev, ni);
            let rows_per_lane = rng.gen_range(1..=nj);
            for exclude_land in [true, false] {
                let spans = WetSpans::new(&block.kmt, stride, nlev, exclude_land);
                let step = block.inputs(&spans);
                for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
                    let mut stage = vec![f64::NAN; nj * row_len];
                    let mut press = vec![f64::NAN; (nj + 2) * stride];
                    for (lane, out) in stage.chunks_mut(rows_per_lane * row_len).enumerate() {
                        let rows =
                            lane * rows_per_lane..(lane * rows_per_lane + out.len() / row_len);
                        isa.run(RowSweep {
                            step: &step,
                            rows,
                            press: &mut press,
                            out,
                        });
                    }
                    for j in 0..nj {
                        for i in 0..ni {
                            let kmt = block.kmt[(j + 1) * stride + i + 1] as usize;
                            for k in 0..kmt {
                                let want = block.per_column(&step, i, j, k);
                                let got: [f64; 4] = std::array::from_fn(|f| {
                                    stage[j * row_len + (4 * k + f) * ni + i]
                                });
                                assert_eq!(
                                    got.map(f64::to_bits),
                                    want.map(f64::to_bits),
                                    "case {case}, {isa}, exclude_land = {exclude_land}, \
                                     cell ({i}, {j}), level {k}: {got:?} vs {want:?}"
                                );
                                compared[(kmt == 1) as usize] += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(compared[0] > 1000 && compared[1] > 50, "{compared:?}");
    }

    /// Without exclusion every interior row is swept whole at every level,
    /// so the dense box is visited; with it, exactly the rows' wet runs,
    /// every wet point included and each span ending on wet points.
    #[test]
    fn spans_are_the_wet_runs_or_the_whole_row() {
        let mut rng = StdRng::seed_from_u64(5);
        let (ni, nj, nlev) = (17, 8, 6);
        let block = Block::random(&mut rng, ni, nj, nlev);
        let stride = ni + 2;
        let dense = WetSpans::new(&block.kmt, stride, nlev, false);
        assert_eq!(dense.swept_points(), ni * nj * nlev);
        for jj in 1..=nj {
            for k in 0..nlev {
                assert_eq!(dense.sweep(jj, k), 1..ni + 1);
            }
        }
        let packed = WetSpans::new(&block.kmt, stride, nlev, true);
        assert!(packed.swept_points() < dense.swept_points());
        for jj in 0..nj + 2 {
            for k in 0..nlev {
                let wet = |ii: usize| k < block.kmt[jj * stride + ii] as usize;
                for (span, cols) in [
                    (
                        packed.sweep(jj, k),
                        if jj == 0 || jj == nj + 1 {
                            0..0
                        } else {
                            1..ni + 1
                        },
                    ),
                    (packed.pressure(jj, k), 0..stride),
                ] {
                    for ii in cols {
                        assert!(
                            !wet(ii) || span.contains(&ii),
                            "row {jj}, level {k}, column {ii}"
                        );
                    }
                    if !span.is_empty() {
                        assert!(wet(span.start) && wet(span.end - 1), "row {jj}, level {k}");
                    }
                }
            }
        }
    }
}
