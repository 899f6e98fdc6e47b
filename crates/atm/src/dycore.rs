//! The hydrostatic dynamical core with GRIST's split time stepping.
//!
//! Horizontal discretisation: C-grid on the icosahedral Voronoi mesh —
//! mass/tracers at cells, normal velocity at edges, vorticity at corners
//! (triangle circulation). Momentum is stepped in vector-invariant form:
//!
//! ```text
//! ∂uₙ/∂t = +η·u_t − ∇ₙ(K + Φ) − R T ∇ₙ ln pₛ + ν∇²uₙ
//! ```
//!
//! Mass and tracers are flux-form (exactly conservative). Time stepping is
//! the paper's three-rate split: `dt_dyn` (8 s at 1 km) sub-steps inside
//! `dt_tracer` (30 s) inside the model/physics step `dt_model` (120 s);
//! tracer transport uses the dycore-accumulated mean mass flux.
//!
//! A substep is six *phases*, each one `pp` range kernel on the dycore's
//! execution space with its outputs carved per range. The three heavy ones
//! range over **levels**: a level's fluxes, divergences, temperature,
//! reconstruction, vorticity and momentum update read that level's fields
//! and the surface pressure only, so a lane that owns a range of levels
//! walks the whole mesh for them with one lane-private scratch set, and what
//! it gathers through the stencils it wrote itself. The three light ones
//! (mean edge pressure; continuity; ∇ₙ ln pₛ) range over edges or cells and
//! stream what the level phases left. Every entity of every level is written
//! from exactly one iteration, in the operand order of the serial loops, so
//! one lane (`Serial`, the default: each phase is one call over the whole
//! range) and a team of any size give the same bits.
//!
//! No phase divides by geometry or takes a power or a logarithm per point:
//! the tables carry reciprocal areas and distances, the Exner function is
//! `(pₛ/p₀)^κ` once per cell (`surface_exner`) times `σₖ^κ` once per
//! level, and the hypsometric factor `R·ln(σₖ₋₁/σₖ)` is taken once per level.
//! The one divide left per cell-level is by the new layer thickness.
//!
//! Each phase streams a table shaped like its loop: an `(a, b)` pair per
//! edge, a divergence row per cell, the least-squares inverse folded into
//! per-slot weights (`uₑ = Σ wₑ·u`), and per edge the four projections of the
//! two cells' east and north vectors on t̂, so the tangential wind is four
//! products. The momentum walk gathers one `(uₑ, uₙ, ∇·u, K + Φ)` record per
//! cell of an edge.

use std::cell::RefCell;
use std::sync::Arc;

use ap3esm_grid::icosahedral::{CellStencil, MAX_CELL_EDGES};
use ap3esm_grid::{GeodesicGrid, EARTH_RADIUS};
use ap3esm_physics::constants::{coriolis, R_DRY};
use ap3esm_pp::{for_chunks_mut, ExecSpace, PerLane, Serial};

use crate::state::AtmState;
use crate::{level_exner, surface_exner};

/// Time-stepping configuration. At 1 km the paper runs 8/30/120 s; coarser
/// configurations scale all three together.
#[derive(Debug, Clone, Copy)]
pub struct DycoreConfig {
    pub dt_dyn: f64,
    pub dt_tracer: f64,
    pub dt_model: f64,
    /// Horizontal hyper-viscosity coefficient (m²/s Laplacian).
    pub nu: f64,
}

impl DycoreConfig {
    /// Stepping scaled to a grid spacing with the paper's 1:4:16 rate
    /// structure (8 s / 32 s / 128 s at 1 km). GRIST's semi-implicit solver
    /// allows ~8 s·Δx(km); our forward-backward explicit core needs an
    /// external-gravity-wave CFL below ~0.3, i.e. dt ≈ 0.9 s·Δx(km) — the
    /// ratio structure is preserved, the absolute step is CFL-limited
    /// (substitution documented in DESIGN.md).
    pub fn for_spacing_km(dx_km: f64) -> Self {
        let dt_dyn = 0.9 * dx_km;
        DycoreConfig {
            dt_dyn,
            dt_tracer: dt_dyn * 4.0,
            dt_model: dt_dyn * 16.0,
            nu: 0.015 * (dx_km * 1000.0).powi(2) / dt_dyn, // grid-scale damping
        }
    }

    pub fn dyn_substeps(&self) -> usize {
        (self.dt_tracer / self.dt_dyn).round() as usize
    }

    pub fn tracer_substeps(&self) -> usize {
        (self.dt_model / self.dt_tracer).round() as usize
    }
}

/// One cell's divergence row (phases 2 and 6): its edges in the grid's
/// `cell_edges` order, each with sign·le, and 1/area.
#[derive(Clone, Copy)]
struct DivRow {
    /// Edges around the cell; the arrays are valid up to here.
    nedges: u32,
    edge: [u32; MAX_CELL_EDGES],
    /// sign·le: +le where the edge normal points out of this cell, else −le
    /// (m). `f·(sign·le)` and `(sign·f)·le` round identically (sign = ±1).
    sle: [f64; MAX_CELL_EDGES],
    /// Reciprocal of the physical cell area (1/m²).
    inv_area: f64,
}

impl DivRow {
    /// The arrays' valid length (the `min` lets the compiler drop the bounds
    /// checks of `array[slot]`).
    #[inline]
    fn nedges(&self) -> usize {
        (self.nedges as usize).min(MAX_CELL_EDGES)
    }
}

/// One cell's least-squares reconstruction folded into per-slot weights, in
/// [`DivRow`] slot order: `(uₑ, uₙ) = Σₛ w[s]·u[edge[s]]`, where `w[s]` is the
/// inverse 2×2 normal matrix times slot s's `(n̂·east, n̂·north)`.
#[derive(Clone, Copy)]
struct ReconRow {
    w: [[f64; 2]; MAX_CELL_EDGES],
}

/// One edge's row for the momentum walk (and `1/de` for phase 4). Its two
/// cells are the edge's entry in `Dycore::edge_cells`.
#[derive(Clone, Copy)]
struct MomentumRow {
    /// The two adjacent corners ordered along +t̂ (down-, up-tangent) so
    /// ∂ζ/∂t̂ has a consistent sign.
    corner_down: u32,
    corner_up: u32,
    /// Reciprocal of the physical cell-center distance across the edge
    /// (1/m).
    inv_de: f64,
    /// Reciprocal of the physical Voronoi-face length (1/m).
    inv_le: f64,
    /// Coriolis parameter at the midpoint.
    f: f64,
    /// ½·(eastₐ·t̂, northₐ·t̂, east_b·t̂, north_b·t̂), t̂ = r̂ × n̂: the
    /// tangential wind is these times cell a's and cell b's `(uₑ, uₙ)` (the
    /// ½ of the two-cell mean folded in, which is exact).
    tangent: [f64; 4],
}

impl MomentumRow {
    /// The tangential wind at the edge from its cells' records (`[uₑ, uₙ,
    /// ..]` of a and of b).
    #[inline]
    fn tangential_wind(&self, a: &[f64; 4], b: &[f64; 4]) -> f64 {
        let t = &self.tangent;
        a[0] * t[0] + a[1] * t[1] + b[0] * t[2] + b[1] * t[3]
    }
}

/// A cell's record of one level for the momentum walk: `(uₑ, uₙ)` from the
/// folded weights, `∇·u`, and the Bernoulli function `K + Φ` (`phi` is the
/// cell's Φ at the level). One walk of the cell's edges.
#[inline]
fn cell_record(row: &DivRow, recon: &ReconRow, un: &[f64], phi: f64) -> [f64; 4] {
    let (mut ue, mut uno, mut div) = (0.0, 0.0, 0.0);
    for s in 0..row.nedges() {
        let u = un[row.edge[s] as usize];
        ue += recon.w[s][0] * u;
        uno += recon.w[s][1] * u;
        div += u * row.sle[s];
    }
    [
        ue,
        uno,
        div * row.inv_area,
        0.5 * (ue * ue + uno * uno) + phi,
    ]
}

/// One corner's row: the triangle's three edges with sign·de, the
/// circulation sign folded into the dual-edge length like `DivRow::sle`.
#[derive(Clone, Copy)]
struct CornerRow {
    edge: [u32; 3],
    sde: [f64; 3],
    /// Reciprocal of the physical triangle area (1/m²).
    inv_area: f64,
}

/// Scratch of one dynamics substep. Every value is written before it is
/// read within a substep, so nothing carries from one call to the next.
#[derive(Default)]
struct Workspace {
    /// What one phase leaves for the next, over the whole mesh (see
    /// [`Fields`]).
    fields: Vec<f64>,
    /// Per-level scratch of the level phases (see [`LevelScratch`]): a
    /// kernel takes a set and reuses it for each of its levels.
    lanes: PerLane<Vec<f64>>,
}

impl Workspace {
    /// Size for `nlev` levels and `kernels` level kernels at once. Allocates
    /// when either grew or the level count changed, not in steady state.
    fn fit(&mut self, (n, ne, ncorners): (usize, usize, usize), nlev: usize, kernels: usize) {
        self.fields.resize(Fields::len(n, ne, nlev), 0.0);
        let lane_len = LevelScratch::len(n, ne, ncorners);
        self.lanes.grow(kernels, || vec![0.0; lane_len]);
    }
}

/// Cuts `len`-long pieces off the front of a slab.
fn taker<'a>(slab: &'a mut [f64]) -> impl FnMut(usize) -> &'a mut [f64] {
    let mut rest = slab;
    move |len| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        head
    }
}

/// The whole-mesh fields one phase hands to the next.
struct Fields<'a> {
    /// Per edge: mean surface pressure of the two cells.
    ps_edge: &'a mut [f64],
    /// Per edge: ∇ₙ ln pₛ.
    grad_ln_ps: &'a mut [f64],
    /// Per cell: ln pₛ and the Exner factor (pₛ/p₀)^κ (new).
    ln_ps: &'a mut [f64],
    exner: &'a mut [f64],
    /// Level-major: the layer's mass-flux divergence ÷ cell area; its
    /// temperature; its hypsometric increment `R·ln(σ_below/σ)·T`.
    div_mass: &'a mut [f64],
    t: &'a mut [f64],
    dphi: &'a mut [f64],
}

impl<'a> Fields<'a> {
    fn len(n: usize, ne: usize, nlev: usize) -> usize {
        2 * ne + 2 * n + 3 * nlev * n
    }

    fn of(slab: &'a mut [f64], n: usize, ne: usize, nlev: usize) -> Self {
        let mut take = taker(slab);
        Fields {
            ps_edge: take(ne),
            grad_ln_ps: take(ne),
            ln_ps: take(n),
            exner: take(n),
            div_mass: take(nlev * n),
            t: take(nlev * n),
            dphi: take(nlev * n),
        }
    }
}

/// Scratch of the level being stepped. Per cell unless noted.
struct LevelScratch<'a> {
    /// Per edge: mass flux, upwind θ flux, upwind q flux (one gather per
    /// divergence slot, not three).
    fluxes: &'a mut [[f64; 3]],
    /// Geopotential, accumulated upward through the levels below.
    phi: &'a mut [f64],
    /// [`cell_record`]: `(uₑ, uₙ, ∇·u, K + Φ)`, one gather per cell of an
    /// edge.
    record: &'a mut [[f64; 4]],
    /// Per corner: relative vorticity.
    zeta: &'a mut [f64],
}

impl<'a> LevelScratch<'a> {
    fn len(n: usize, ne: usize, ncorners: usize) -> usize {
        3 * ne + 5 * n + ncorners
    }

    fn of(slab: &'a mut [f64], n: usize, ne: usize, ncorners: usize) -> Self {
        let mut take = taker(slab);
        LevelScratch {
            fluxes: take(3 * ne).as_chunks_mut().0,
            phi: take(n),
            record: take(4 * n).as_chunks_mut().0,
            zeta: take(ncorners),
        }
    }
}

/// Precomputed connectivity/geometry tables, each shaped like the loop that
/// streams it, + the substep workspace.
pub struct Dycore {
    grid: Arc<GeodesicGrid>,
    /// Per edge: its two cells, the normal pointing a → b.
    edge_cells: Vec<[u32; 2]>,
    cells: Vec<DivRow>,
    recon: Vec<ReconRow>,
    edges: Vec<MomentumRow>,
    corners: Vec<CornerRow>,
    /// Per cell: the physical area (m²) `step_tracer` weighs moisture by.
    areas: Vec<f64>,
    /// The substep's scratch. Interior-mutable because stepping takes
    /// `&self`: one uncontended borrow per substep.
    workspace: RefCell<Workspace>,
    /// Where the phases of a substep run.
    space: Arc<dyn ExecSpace>,
    pub config: DycoreConfig,
}

fn index_u32(i: usize) -> u32 {
    u32::try_from(i).expect("mesh entity index exceeds u32")
}

/// (a11, a12, a22) of the inverse of a cell's 2×2 least-squares normal
/// matrix `Σₛ (n̂·east, n̂·north)ᵀ(n̂·east, n̂·north)`.
fn ls_inverse(stencil: &CellStencil) -> [f64; 3] {
    let (mut a11, mut a12, mut a22) = (0.0, 0.0, 0.0);
    for (_, ne, nn) in stencil.slots() {
        a11 += ne * ne;
        a12 += ne * nn;
        a22 += nn * nn;
    }
    let det = a11 * a22 - a12 * a12;
    assert!(det.abs() > 1e-12, "degenerate reconstruction");
    [a22 / det, -a12 / det, a11 / det]
}

/// Level `k`'s factors of the T–Φ diagnosis: `σₖ^κ`, its share of the Exner
/// function, and `R·ln(σₖ₋₁/σₖ)`, the hypsometric factor from the previous
/// reference level (σ₋₁ = 1, the surface below the lowest layer).
fn level_factors(sigma: &[f64], k: usize) -> (f64, f64) {
    let sigma_below = if k == 0 { 1.0 } else { sigma[k - 1] };
    (level_exner(sigma[k]), R_DRY * (sigma_below / sigma[k]).ln())
}

impl Dycore {
    /// Tables and workspace for `grid`; steps on one lane until a space is
    /// attached with [`Dycore::on`].
    pub fn new(grid: Arc<GeodesicGrid>, config: DycoreConfig) -> Self {
        let r = EARTH_RADIUS;

        let mut cells = Vec::with_capacity(grid.ncells());
        let mut recon = Vec::with_capacity(grid.ncells());
        let mut areas = Vec::with_capacity(grid.ncells());
        for (i, stencil) in grid.cell_stencils.iter().enumerate() {
            let area = grid.cell_areas[i] * r * r;
            let mut row = DivRow {
                nedges: index_u32(stencil.nedges()),
                edge: stencil.edge,
                sle: [0.0; MAX_CELL_EDGES],
                inv_area: 1.0 / area,
            };
            for (&(e, sign), sle) in grid.cell_edges[i].iter().zip(&mut row.sle) {
                *sle = sign * (grid.edge_lengths[e] * r);
            }
            let inv = ls_inverse(stencil);
            let mut weights = ReconRow {
                w: [[0.0; 2]; MAX_CELL_EDGES],
            };
            for ((_, ne, nn), w) in stencil.slots().zip(&mut weights.w) {
                *w = [inv[0] * ne + inv[1] * nn, inv[1] * ne + inv[2] * nn];
            }
            cells.push(row);
            recon.push(weights);
            areas.push(area);
        }

        // Each cell's (east, north), for the projections of its three to six
        // edges.
        let frames: Vec<_> = grid.cells.iter().map(|c| [c.east(), c.north()]).collect();
        let mut edge_cells = Vec::with_capacity(grid.nedges());
        let mut edges = Vec::with_capacity(grid.nedges());
        for (e, &(a, b)) in grid.edges.iter().enumerate() {
            let t = grid.edge_midpoints[e].cross(grid.edge_normals[e]);
            let (c0, c1) = grid.edge_corners[e];
            let along = grid.corners[c1] - grid.corners[c0];
            let (down, up) = if along.dot(t) >= 0.0 {
                (c0, c1)
            } else {
                (c1, c0)
            };
            let ([east_a, north_a], [east_b, north_b]) = (frames[a], frames[b]);
            edge_cells.push([index_u32(a), index_u32(b)]);
            edges.push(MomentumRow {
                corner_down: index_u32(down),
                corner_up: index_u32(up),
                inv_de: 1.0 / (grid.edge_cell_dist[e] * r),
                inv_le: 1.0 / (grid.edge_lengths[e] * r),
                f: coriolis(grid.edge_midpoints[e].lat()),
                tangent: [east_a, north_a, east_b, north_b].map(|v| 0.5 * v.dot(t)),
            });
        }

        // Corner circulation: triangle [a, b, c] traversed a→b→c; each side
        // is a dual edge whose stored normal points min(id)→max(id).
        let edge_between = |u: usize, v: usize| {
            let slot = grid.cell_neighbors[u]
                .iter()
                .position(|&w| w == v)
                .expect("triangle sides join neighbouring cells");
            grid.cell_edges[u][slot].0
        };
        let mut corners = Vec::with_capacity(grid.ncorners());
        for &[a, b, c] in &grid.triangles {
            let area = ap3esm_grid::sphere::spherical_triangle_area(
                grid.cells[a],
                grid.cells[b],
                grid.cells[c],
            ) * r
                * r;
            let mut row = CornerRow {
                edge: [0; 3],
                sde: [0.0; 3],
                inv_area: 1.0 / area,
            };
            for (slot, &(u, v)) in [(a, b), (b, c), (c, a)].iter().enumerate() {
                let e = edge_between(u, v);
                // Stored direction is u<v; traversal u→v gives +1 when
                // u < v, else −1.
                let sign = if u < v { 1.0 } else { -1.0 };
                row.edge[slot] = index_u32(e);
                row.sde[slot] = sign * (grid.edge_cell_dist[e] * r);
            }
            corners.push(row);
        }

        Dycore {
            grid,
            edge_cells,
            cells,
            recon,
            edges,
            corners,
            areas,
            workspace: RefCell::default(),
            space: Arc::new(Serial),
            config,
        }
    }

    /// Run every phase of every substep on `space`. The answer does not
    /// depend on it, bit for bit.
    pub fn on(mut self, space: Arc<dyn ExecSpace>) -> Self {
        self.space = space;
        self
    }

    pub fn grid(&self) -> &GeodesicGrid {
        &self.grid
    }

    /// Relative vorticity at `corners` for one level.
    fn vorticity(corners: &[CornerRow], un: &[f64], out: &mut [f64]) {
        for (zeta, row) in out.iter_mut().zip(corners) {
            let mut circ = 0.0;
            for (&e, &sde) in row.edge.iter().zip(&row.sde) {
                circ += un[e as usize] * sde;
            }
            *zeta = circ * row.inv_area;
        }
    }

    /// One dynamics substep of length `dt`. Adds the layer mass flux times
    /// `dt` (Pa·m, edge × level) to `mass_flux_accum` for tracer transport.
    pub fn step_dyn(&self, state: &mut AtmState, dt: f64, mass_flux_accum: &mut [f64]) {
        self.substep(state, dt, Some(mass_flux_accum));
    }

    fn substep(&self, state: &mut AtmState, dt: f64, mass_flux_accum: Option<&mut [f64]>) {
        let space = &*self.space;
        let (edge_cells, cells, recon, edges, corners) = (
            &self.edge_cells[..],
            &self.cells[..],
            &self.recon[..],
            &self.edges[..],
            &self.corners[..],
        );
        let (n, ne, ncorners) = (cells.len(), edges.len(), corners.len());
        let nlev = state.nlev;
        let nu = self.config.nu;
        let mut workspace = self.workspace.borrow_mut();
        workspace.fit(
            (n, ne, ncorners),
            nlev,
            space.concurrency().min(nlev).max(1),
        );
        let Workspace { fields, lanes } = &mut *workspace;
        let Fields {
            ps_edge,
            grad_ln_ps,
            ln_ps,
            exner,
            div_mass,
            t,
            dphi,
        } = Fields::of(fields, n, ne, nlev);
        let lanes = &*lanes;
        let AtmState {
            sigma,
            dsigma,
            ps,
            theta,
            q,
            un,
            ..
        } = state;
        let (sigma, dsigma) = (&sigma[..], &dsigma[..]);
        assert!(ps.len() == n && theta.len() == nlev * n && q.len() == nlev * n);
        assert_eq!(un.len(), nlev * ne);
        // Without an accumulator every range's part of it is empty.
        let accum = mass_flux_accum.unwrap_or_default();
        assert!(accum.is_empty() || accum.len() == nlev * ne);

        // --- Phase 1, edges: mean surface pressure (old state). ---
        for_chunks_mut(space, ne, [&mut *ps_edge], |r, [ps_edge]| {
            for (ps_e, &[a, b]) in ps_edge.iter_mut().zip(&edge_cells[r]) {
                *ps_e = 0.5 * (ps[a as usize] + ps[b as usize]);
            }
        });

        // --- Phase 2, levels: mass fluxes and the three divergences (from
        //     the old state). θ and q leave as tracer *mass*
        //     (θ·dp_old − dt·∇·(Fθ)); phase 5 divides by the new layer
        //     thickness. ---
        for_chunks_mut(
            space,
            nlev,
            [&mut theta[..], &mut q[..], &mut *div_mass, accum],
            |levels, [theta, q, div_mass, accum]| {
                let mut lane = lanes.take();
                let LevelScratch { fluxes, .. } = LevelScratch::of(&mut lane, n, ne, ncorners);
                for (j, k) in levels.enumerate() {
                    let unk = &un[k * ne..(k + 1) * ne];
                    let thk = &mut theta[j * n..(j + 1) * n];
                    let qk = &mut q[j * n..(j + 1) * n];
                    let div_k = &mut div_mass[j * n..(j + 1) * n];
                    // Layer mass flux and the upwind θ and q fluxes for the
                    // dycore-rate tracer update.
                    for (((f, &[a, b]), &u), &ps_e) in fluxes
                        .iter_mut()
                        .zip(edge_cells)
                        .zip(unk)
                        .zip(ps_edge.iter())
                    {
                        let flux = u * ps_e * dsigma[k];
                        let up = if flux >= 0.0 { a } else { b } as usize;
                        *f = [flux, flux * thk[up], flux * qk[up]];
                    }
                    if !accum.is_empty() {
                        for (acc, f) in accum[j * ne..(j + 1) * ne].iter_mut().zip(fluxes.iter()) {
                            *acc += f[0] * dt;
                        }
                    }
                    // The three divergences in one walk.
                    for (i, row) in cells.iter().enumerate() {
                        let (mut mass, mut th, mut qv) = (0.0, 0.0, 0.0);
                        for s in 0..row.nedges() {
                            let f = &fluxes[row.edge[s] as usize];
                            mass += f[0] * row.sle[s];
                            th += f[1] * row.sle[s];
                            qv += f[2] * row.sle[s];
                        }
                        div_k[i] = mass * row.inv_area;
                        let dp_old = dsigma[k] * ps[i];
                        thk[i] = thk[i] * dp_old - dt * (th * row.inv_area);
                        qk[i] = qk[i] * dp_old - dt * (qv * row.inv_area);
                    }
                }
            },
        );

        // --- Phase 3, cells: forward-backward staging — apply continuity
        //     first, so the tracer update and the pressure-gradient force
        //     below see the *new* mass field (stabilises external gravity
        //     waves). ---
        for_chunks_mut(
            space,
            n,
            [&mut ps[..], &mut *ln_ps, &mut *exner],
            |r, [ps, ln_ps, exner]| {
                for (((p, ln_p), ex), i) in ps.iter_mut().zip(ln_ps).zip(exner).zip(r) {
                    let mut dps_dt = 0.0;
                    for k in 0..nlev {
                        dps_dt -= div_mass[k * n + i];
                    }
                    *p += dt * dps_dt;
                    *ln_p = p.ln();
                    *ex = surface_exner(*p);
                }
            },
        );

        // --- Phase 4, edges. ---
        for_chunks_mut(space, ne, [&mut *grad_ln_ps], |r, [grad_ln_ps]| {
            for ((grad, &[a, b]), row) in grad_ln_ps
                .iter_mut()
                .zip(&edge_cells[r.clone()])
                .zip(&edges[r])
            {
                *grad = (ln_ps[b as usize] - ln_ps[a as usize]) * row.inv_de;
            }
        });

        // --- Phase 5, levels: finish the tracer update and diagnose T and
        //     the layer's share of Φ from the updated mass field. ---
        for_chunks_mut(
            space,
            nlev,
            [&mut theta[..], &mut q[..], &mut *t, &mut *dphi],
            |levels, [theta, q, t, dphi]| {
                for (j, k) in levels.enumerate() {
                    let (level_exner, hypsometric) = level_factors(sigma, k);
                    for ((((th, qv), t), dphi), (&ps, &exner)) in theta[j * n..(j + 1) * n]
                        .iter_mut()
                        .zip(&mut q[j * n..(j + 1) * n])
                        .zip(&mut t[j * n..(j + 1) * n])
                        .zip(&mut dphi[j * n..(j + 1) * n])
                        .zip(ps.iter().zip(exner.iter()))
                    {
                        let inv_dp_new = 1.0 / (dsigma[k] * ps);
                        *th *= inv_dp_new;
                        *qv *= inv_dp_new;
                        *t = *th * exner * level_exner;
                        *dphi = hypsometric * *t;
                    }
                }
            },
        );

        // --- Phase 6, levels: the momentum tendency (old winds, new mass
        //     field). `un[e]` is updated in place: its new value reads only
        //     `un[e]` itself and cell/corner fields finished before the edge
        //     loop. ---
        for_chunks_mut(space, nlev, [&mut un[..]], |levels, [un]| {
            let mut lane = lanes.take();
            let LevelScratch {
                phi, record, zeta, ..
            } = LevelScratch::of(&mut lane, n, ne, ncorners);
            // Φ below this kernel's first level: the levels under it, summed
            // upward from zero as the running Φ of one pass over all levels.
            phi.fill(0.0);
            for below in dphi[..levels.start * n].chunks_exact(n) {
                for (phi, dphi) in phi.iter_mut().zip(below) {
                    *phi += dphi;
                }
            }
            for (j, k) in levels.enumerate() {
                let unk = &mut un[j * ne..(j + 1) * ne];
                let (tk, dphi_k) = (&t[k * n..(k + 1) * n], &dphi[k * n..(k + 1) * n]);
                for ((((rec, row), weights), phi), &dphi) in record
                    .iter_mut()
                    .zip(cells)
                    .zip(recon)
                    .zip(phi.iter_mut())
                    .zip(dphi_k)
                {
                    *phi += dphi;
                    *rec = cell_record(row, weights, unk, *phi);
                }
                Self::vorticity(corners, unk, zeta);

                for (((u, &[a, b]), row), &grad_lnps) in unk
                    .iter_mut()
                    .zip(edge_cells)
                    .zip(edges)
                    .zip(grad_ln_ps.iter())
                {
                    let (a, b) = (a as usize, b as usize);
                    let (ra, rb) = (&record[a], &record[b]);
                    // Tangential velocity from averaged cell vectors.
                    let ut = row.tangential_wind(ra, rb);

                    let (cd, cu) = (row.corner_down as usize, row.corner_up as usize);
                    let eta = row.f + 0.5 * (zeta[cd] + zeta[cu]);

                    // ∇ₙ(K + Φ).
                    let grad_bern = (rb[3] - ra[3]) * row.inv_de;
                    let t_e = 0.5 * (tk[a] + tk[b]);

                    // Vector Laplacian: ∇ₙδ − ∇ₜζ (corners oriented along +t̂).
                    let lap = (rb[2] - ra[2]) * row.inv_de - (zeta[cu] - zeta[cd]) * row.inv_le;

                    *u += dt * (eta * ut - grad_bern - R_DRY * t_e * grad_lnps + nu * lap);
                }
            }
        });
    }

    /// One tracer step: kept as a structural hook matching GRIST's slower
    /// tracer rate. Moisture here is already advected upwind at the dycore
    /// rate (needed for stability); the tracer step applies the *remainder*
    /// of the paper's pipeline — monotonic filtering at the 30 s cadence.
    pub fn step_tracer(&self, state: &mut AtmState, _mean_mass_flux: &[f64]) {
        // Clip-and-conserve filter: remove negative q (created by the
        // dycore-rate advection of sharp gradients) while conserving the
        // global moisture mass per level.
        let n = self.grid.ncells();
        for k in 0..state.nlev {
            let qk = &mut state.q[k * n..(k + 1) * n];
            let mut deficit = 0.0;
            let mut positive = 0.0;
            for (q, &area) in qk.iter_mut().zip(&self.areas) {
                if *q < 0.0 {
                    deficit += -*q * area;
                    *q = 0.0;
                } else {
                    positive += *q * area;
                }
            }
            if deficit > 0.0 && positive > 0.0 {
                let scale = 1.0 - deficit / positive;
                for q in qk.iter_mut() {
                    *q *= scale.max(0.0);
                }
            }
        }
    }

    /// One full model step: `tracer_substeps × dyn_substeps` dynamics
    /// substeps with tracer filtering at the tracer rate. Physics is applied
    /// by the caller (the physics–dynamics coupler) afterwards.
    pub fn step_model_dynamics(&self, state: &mut AtmState) {
        let _span = ap3esm_obs::span("dycore");
        for _ in 0..self.config.tracer_substeps() {
            {
                let _dyn = ap3esm_obs::span("dyn_substeps");
                for _ in 0..self.config.dyn_substeps() {
                    // No mass-flux accumulation: its one consumer,
                    // `step_tracer`, does not read it.
                    self.substep(state, self.config.dt_dyn, None);
                }
            }
            let _tracer = ap3esm_obs::span("tracer_step");
            self.step_tracer(state, &[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::AtmState;
    use crate::P_REF;
    use ap3esm_grid::sphere::Vec3;
    use ap3esm_physics::constants::KAPPA;

    fn setup(glevel: u32, nlev: usize) -> (Dycore, AtmState) {
        let grid = Arc::new(GeodesicGrid::new(glevel));
        let dx = grid.mean_spacing_km();
        let state = AtmState::isothermal(Arc::clone(&grid), nlev, 285.0);
        let config = DycoreConfig::for_spacing_km(dx);
        (Dycore::new(grid, config), state)
    }

    #[test]
    fn config_ratios_match_paper() {
        // The paper's 8/30(32)/120(128) structure is the 1:4:16 rate split.
        let c = DycoreConfig::for_spacing_km(1.0);
        assert_eq!(c.dyn_substeps(), 4); // tracer / dyn
        assert_eq!(c.tracer_substeps(), 4); // model / tracer
        assert_eq!(c.dyn_substeps() * c.tracer_substeps(), 16);
        // dt scales linearly with spacing.
        let c25 = DycoreConfig::for_spacing_km(25.0);
        assert!((c25.dt_dyn / c.dt_dyn - 25.0).abs() < 1e-9);
    }

    #[test]
    fn resting_isothermal_atmosphere_stays_at_rest() {
        let (dycore, mut state) = setup(3, 4);
        let ne = state.nedges();
        let mut acc = vec![0.0; 4 * ne];
        for _ in 0..10 {
            dycore.step_dyn(&mut state, dycore.config.dt_dyn, &mut acc);
        }
        assert!(
            state.max_wind() < 1e-8,
            "spurious wind {} m/s",
            state.max_wind()
        );
        assert!(state.ps.iter().all(|&p| (p - P_REF).abs() < 1e-6));
    }

    #[test]
    fn mass_conserved_under_flow() {
        let (dycore, mut state) = setup(3, 4);
        // Kick a local pressure anomaly.
        state.ps[10] += 500.0;
        state.ps[11] -= 300.0;
        let m0 = state.total_mass();
        let ne = state.nedges();
        let mut acc = vec![0.0; 4 * ne];
        for _ in 0..50 {
            dycore.step_dyn(&mut state, dycore.config.dt_dyn, &mut acc);
        }
        let m1 = state.total_mass();
        assert!(
            ((m1 - m0) / m0).abs() < 1e-12,
            "mass drift {}",
            (m1 - m0) / m0
        );
    }

    #[test]
    fn theta_mass_conserved_under_advection() {
        let (dycore, mut state) = setup(3, 3);
        let n = state.ncells();
        // Perturb θ and give a gentle flow.
        for i in 0..n {
            state.theta[i] += 2.0 * (i as f64 * 0.1).sin();
        }
        for (e, u) in state.un.iter_mut().enumerate() {
            *u = 3.0 * ((e % 17) as f64 / 17.0 - 0.5);
        }
        let t0 = state.theta_mass();
        let ne = state.nedges();
        let mut acc = vec![0.0; 3 * ne];
        for _ in 0..20 {
            dycore.step_dyn(&mut state, dycore.config.dt_dyn, &mut acc);
        }
        let t1 = state.theta_mass();
        assert!(
            ((t1 - t0) / t0).abs() < 1e-10,
            "theta mass drift {}",
            (t1 - t0) / t0
        );
    }

    #[test]
    fn gravity_wave_spreads_pressure_anomaly() {
        let (dycore, mut state) = setup(3, 3);
        state.ps[0] += 800.0;
        let ne = state.nedges();
        let mut acc = vec![0.0; 3 * ne];
        for _ in 0..100 {
            dycore.step_dyn(&mut state, dycore.config.dt_dyn, &mut acc);
        }
        // The anomaly must radiate: center value decreases, wind appears.
        assert!(
            state.ps[0] - P_REF < 700.0,
            "anomaly stuck: {}",
            state.ps[0]
        );
        assert!(state.max_wind() > 0.01);
        // And the run is stable.
        assert!(state.max_wind() < 50.0, "blow-up: {}", state.max_wind());
        assert!(state.ps.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn full_model_step_is_stable_and_conservative() {
        let (dycore, mut state) = setup(3, 4);
        let n = state.ncells();
        for i in 0..n {
            state.ps[i] += 300.0 * (i as f64 * 0.37).sin();
        }
        let m0 = state.total_mass();
        let q0 = state.moisture_mass();
        for _ in 0..3 {
            dycore.step_model_dynamics(&mut state);
        }
        assert!(((state.total_mass() - m0) / m0).abs() < 1e-12);
        // q is clipped but conservatively rescaled: change stays tiny.
        assert!(((state.moisture_mass() - q0) / q0).abs() < 1e-6);
        assert!(state.max_wind() < 60.0);
    }

    #[test]
    fn workspace_carries_no_state() {
        fn bits(state: &AtmState) -> Vec<u64> {
            [&state.ps, &state.theta, &state.q, &state.un]
                .into_iter()
                .flatten()
                .map(|v| v.to_bits())
                .collect()
        }
        fn stirred(grid: &Arc<GeodesicGrid>, nlev: usize, phase: f64) -> AtmState {
            let mut state = AtmState::isothermal(Arc::clone(grid), nlev, 285.0);
            for (i, p) in state.ps.iter_mut().enumerate() {
                *p += 250.0 * (i as f64 * 0.37 + phase).sin();
            }
            for (e, u) in state.un.iter_mut().enumerate() {
                *u = 4.0 * (e as f64 * 0.11 + phase).cos();
            }
            state
        }
        let (warm, AtmState { grid, .. }) = setup(3, 4);
        let (fresh, _) = setup(3, 4);
        // Warm one dycore on another state, then through a model step at a
        // different level count (the fields are re-cut for it).
        let mut other = stirred(&grid, 4, 0.0);
        let mut acc = vec![0.0; 4 * other.nedges()];
        for _ in 0..10 {
            warm.step_dyn(&mut other, warm.config.dt_dyn, &mut acc);
        }
        warm.step_model_dynamics(&mut stirred(&grid, 6, 1.0));

        let mut a = stirred(&grid, 3, 2.0);
        let mut b = a.clone();
        let mut acc_a = vec![0.0; 3 * a.nedges()];
        let mut acc_b = acc_a.clone();
        for _ in 0..5 {
            warm.step_dyn(&mut a, warm.config.dt_dyn, &mut acc_a);
            fresh.step_dyn(&mut b, fresh.config.dt_dyn, &mut acc_b);
        }
        warm.step_model_dynamics(&mut a);
        fresh.step_model_dynamics(&mut b);
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(
            acc_a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            acc_b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// Uniform deviates in [0, 1) (xorshift64*; `seed` must not be 0).
    fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut x = seed;
        move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Random surface pressures in [5·10⁴, 1.1·10⁵] Pa and potential
    /// temperatures in [250, 500] K.
    fn columns(count: usize) -> impl Iterator<Item = (f64, f64)> {
        let mut unit = uniform(0x9e37_79b9_7f4a_7c15);
        (0..count).map(move |_| (5.0e4 + 6.0e4 * unit(), 250.0 + 250.0 * unit()))
    }

    /// |a − b| in units of the spacing of doubles just above |b|.
    fn ulps(a: f64, b: f64) -> f64 {
        let b = b.abs();
        (a.abs() - b).abs() / (f64::from_bits(b.to_bits() + 1) - b)
    }

    /// Phase 5's T = θ·(pₛ/p₀)^κ·σₖ^κ against the pointwise θ·(σₖpₛ/p₀)^κ.
    ///
    /// With u = 2⁻⁵³ and `powf` within 1 ulp (≤ 2u relative): the pointwise
    /// form rounds σₖ·pₛ and ÷p₀ (2u, shrunk by κ < 0.29 through the
    /// power: 0.58u), the power (2u) and ×θ (u): ≤ 3.6u. The factored form
    /// rounds pₛ/p₀ (κu), two powers (4u) and two products (2u): ≤ 6.3u.
    /// They differ by ≤ 9.9u·|T|, and the spacing of doubles at T exceeds
    /// u·|T|: **10 ulp**.
    #[test]
    fn factored_temperature_is_within_ten_ulp_of_the_pointwise_power() {
        let mut worst = 0.0f64;
        for nlev in [5, 10, 30] {
            let sigma = ap3esm_grid::vertical::atm_sigma_layers(nlev);
            for (ps, theta) in columns(2000) {
                let exner = surface_exner(ps);
                for (k, &s) in sigma.iter().enumerate() {
                    let (level_exner, _) = level_factors(&sigma, k);
                    let factored = theta * exner * level_exner;
                    let pointwise = theta * (s * ps / P_REF).powf(KAPPA);
                    worst = worst.max(ulps(factored, pointwise));
                    assert!(
                        ulps(factored, pointwise) <= 10.0,
                        "nlev {nlev}, k {k}, ps {ps}: {factored} vs {pointwise}"
                    );
                }
            }
        }
        println!("worst T: {worst} ulp");
    }

    /// Phase 5's ΔΦ = R·ln(σₖ₋₁/σₖ)·T against the pointwise
    /// R·T·ln(p_below/p), each from its own T.
    ///
    /// The logarithm of a ratio y = 1 + h turns a relative error δ of y into
    /// an absolute error δ of ln y, a relative error δ/|ln y|: a thin layer
    /// amplifies the ratio's rounding by 1/|ln y| (~10³ for the lowest half
    /// layer of 30, σ₀ = 0.99904). The pointwise ratio (σₖ₋₁pₛ)/(σₖpₛ) rounds
    /// three times (3u), the factored σₖ₋₁/σₖ once (u); each `ln` adds 2u,
    /// each pair of products 2u, and the two T differ by 9.9u (above). So
    /// |ΔΦ − ΔΦ_pointwise| ≤ **(4/|ln y| + 18)·u** of |ΔΦ_pointwise|, taken
    /// here as (4/|ln y| + 20)·u.
    #[test]
    fn factored_hypsometric_increment_is_within_its_thin_layer_bound() {
        let u = f64::EPSILON / 2.0;
        let mut worst = 0.0f64;
        for nlev in [5, 10, 30] {
            let sigma = ap3esm_grid::vertical::atm_sigma_layers(nlev);
            for (ps, theta) in columns(2000) {
                let exner = surface_exner(ps);
                for (k, &s) in sigma.iter().enumerate() {
                    let sigma_below = if k == 0 { 1.0 } else { sigma[k - 1] };
                    let (level_exner, hypsometric) = level_factors(&sigma, k);
                    let factored = hypsometric * (theta * exner * level_exner);
                    let (p, p_below) = (s * ps, sigma_below * ps);
                    let t = theta * (p / P_REF).powf(KAPPA);
                    let pointwise = R_DRY * t * (p_below / p).ln();
                    let ln_y = (sigma_below / s).ln();
                    let relative = (factored - pointwise).abs() / pointwise.abs();
                    worst = worst.max(relative * ln_y.abs() / u);
                    assert!(
                        relative <= (4.0 / ln_y.abs() + 20.0) * u,
                        "nlev {nlev}, k {k}, ps {ps}: {factored} vs {pointwise} ({relative:e})"
                    );
                }
            }
        }
        println!("worst ΔΦ: {worst} u / |ln y|");
    }

    fn xyz(v: Vec3) -> [f64; 3] {
        [v.x, v.y, v.z]
    }

    /// Phase 6's `(uₑ, uₙ) = Σₛ w[s]·u` from the folded weights against the
    /// pointwise `ls_inv·(Σₛ n̂·east·u, Σₛ n̂·north·u)`, on every cell of G3 and
    /// G4 under random winds.
    ///
    /// With u = 2⁻⁵³, γₘ = m·u/(1 − m·u), m ≤ 6 slots, (a11, a12, a22) =
    /// `ls_inverse`, and S = Σₛ (|a11·n̂ₛ·east| + |a12·n̂ₛ·north|)·|uₛ| for uₑ
    /// (a12, a22 for uₙ), the scale of every product either form adds up: the
    /// pointwise form rounds each sum over
    /// the slots (γ₆·S) and the 2-term product with `ls_inv` (γ₂·S), ≤ 8u·S;
    /// the folded form rounds each weight's 2-term sum (γ₂·S) and the sum over
    /// the slots (γ₆·S), ≤ 8u·S. Both round the same exact value (the stored
    /// `ls_inv` and projections), so they differ by ≤ 16u·S to first order:
    /// **17u·S** with the second-order terms.
    #[test]
    fn folded_reconstruction_is_within_its_bound_of_the_pointwise_form() {
        let u = f64::EPSILON / 2.0;
        let mut worst = 0.0f64;
        for glevel in [3, 4] {
            let (dycore, _) = setup(glevel, 1);
            let grid = dycore.grid();
            let mut unit = uniform(0x51ab_0000 + u64::from(glevel));
            let un: Vec<f64> = (0..grid.nedges()).map(|_| 80.0 * unit() - 40.0).collect();
            for (i, stencil) in grid.cell_stencils.iter().enumerate() {
                let folded = cell_record(&dycore.cells[i], &dycore.recon[i], &un, 0.0);
                let inv = ls_inverse(stencil);
                let (mut b1, mut b2, mut scale_e, mut scale_n) = (0.0, 0.0, 0.0, 0.0);
                for (e, ne, nn) in stencil.slots() {
                    b1 += ne * un[e];
                    b2 += nn * un[e];
                    scale_e += ((inv[0] * ne).abs() + (inv[1] * nn).abs()) * un[e].abs();
                    scale_n += ((inv[1] * ne).abs() + (inv[2] * nn).abs()) * un[e].abs();
                }
                let pointwise = [inv[0] * b1 + inv[1] * b2, inv[1] * b1 + inv[2] * b2];
                for ((got, want), scale) in folded.iter().zip(pointwise).zip([scale_e, scale_n]) {
                    let err = (got - want).abs() / (u * scale);
                    worst = worst.max(err);
                    assert!(
                        err <= 17.0,
                        "G{glevel} cell {i}: {got} vs {want} ({err} u·S)"
                    );
                }
            }
        }
        println!("worst (uₑ, uₙ): {worst} u·S");
    }

    /// Phase 6's tangential wind from the four stored projections against
    /// the 3-D rebuild `(½ Σᵢ wᵢ·fᵢ)·t̂` it replaced (w = uₑ, uₙ of a and b,
    /// f = their east and north vectors), on every edge of G3 and G4 under
    /// random cell winds.
    ///
    /// With S = ½ Σᵢ Σ_c |wᵢ·fᵢ[c]·t̂[c]|: the rebuild rounds each component's
    /// 4-term sum (γ₄·S; the ½ is exact) and the 3-term dot product with t̂
    /// (γ₃·S), ≤ 7u·S; the stored form rounds each projection's 3-term dot
    /// product (γ₃·S) and the 4-term sum (γ₄·S), ≤ 7u·S. They differ by
    /// ≤ 14u·S to first order: **15u·S**.
    #[test]
    fn four_product_tangential_wind_is_within_its_bound_of_the_3d_rebuild() {
        let u = f64::EPSILON / 2.0;
        let mut worst = 0.0f64;
        for glevel in [3, 4] {
            let (dycore, _) = setup(glevel, 1);
            let grid = dycore.grid();
            let mut unit = uniform(0x7a9e_0000 + u64::from(glevel));
            let records: Vec<[f64; 4]> = (0..grid.ncells())
                .map(|_| [80.0 * unit() - 40.0, 80.0 * unit() - 40.0, 0.0, 0.0])
                .collect();
            for (e, (&[a, b], row)) in dycore.edge_cells.iter().zip(&dycore.edges).enumerate() {
                let (a, b) = (a as usize, b as usize);
                let got = row.tangential_wind(&records[a], &records[b]);
                let t = xyz(grid.edge_midpoints[e].cross(grid.edge_normals[e]));
                let (ca, cb) = (grid.cells[a], grid.cells[b]);
                let f = [ca.east(), ca.north(), cb.east(), cb.north()].map(xyz);
                let w = [records[a][0], records[a][1], records[b][0], records[b][1]];
                let v3 = [0, 1, 2].map(|c| {
                    0.5 * (w[0] * f[0][c] + w[1] * f[1][c] + w[2] * f[2][c] + w[3] * f[3][c])
                });
                let want = v3[0] * t[0] + v3[1] * t[1] + v3[2] * t[2];
                let scale: f64 = (0..4)
                    .flat_map(|i| (0..3).map(move |c| (i, c)))
                    .map(|(i, c)| 0.5 * (w[i] * f[i][c] * t[c]).abs())
                    .sum();
                let err = (got - want).abs() / (u * scale);
                worst = worst.max(err);
                assert!(
                    err <= 15.0,
                    "G{glevel} edge {e}: {got} vs {want} ({err} u·S)"
                );
            }
        }
        println!("worst tangential wind: {worst} u·S");
    }
    #[test]
    fn solid_rotation_vorticity_matches_analytic() {
        // u = Ω R cos(lat) ẑonal ⇒ ζ = 2Ω sin(lat).
        let (dycore, state) = setup(4, 1);
        let grid = dycore.grid();
        let omega = 1.0e-5;
        let un: Vec<f64> = (0..grid.nedges())
            .map(|e| {
                let m = grid.edge_midpoints[e];
                let vel = ap3esm_grid::sphere::Vec3::new(0.0, 0.0, omega)
                    .cross(m)
                    .scale(EARTH_RADIUS);
                vel.dot(grid.edge_normals[e])
            })
            .collect();
        let mut zeta = vec![0.0; grid.ncorners()];
        Dycore::vorticity(&dycore.corners, &un, &mut zeta);
        for (t, &z) in zeta.iter().enumerate().step_by(97) {
            let lat = dycore.grid.corners[t].lat();
            let expect = 2.0 * omega * lat.sin();
            assert!(
                (z - expect).abs() < 0.15 * omega.max(expect.abs()),
                "corner {t}: zeta {z} vs {expect}"
            );
        }
        let _ = state;
    }

    /// u = (Ω × r)·R about a tilted axis: the cell records reconstructed from
    /// its normal components and the four projections give (Ω × r)·t̂ at the
    /// edge midpoint. The field is linear in r, so what is left is second
    /// order in the spacing — the mean of the two cell winds sits at the chord
    /// midpoint, and each cell fits a linear field in its own tangent plane —
    /// measured 7.3e-4 ΩR at G3 and 2.1e-4 ΩR at G4; a misplaced projection or
    /// weight reads O(ΩR).
    #[test]
    fn solid_rotation_tangential_wind_matches_analytic() {
        let (dycore, _) = setup(4, 1);
        let grid = dycore.grid();
        let omega = Vec3::new(0.3, -0.2, 0.9).normalized().scale(1.0e-5);
        let wind = |r: Vec3| omega.cross(r).scale(EARTH_RADIUS);
        let un: Vec<f64> = (0..grid.nedges())
            .map(|e| wind(grid.edge_midpoints[e]).dot(grid.edge_normals[e]))
            .collect();
        let records: Vec<[f64; 4]> = dycore
            .cells
            .iter()
            .zip(&dycore.recon)
            .map(|(row, recon)| cell_record(row, recon, &un, 0.0))
            .collect();
        let speed = 1.0e-5 * EARTH_RADIUS;
        for (e, (&[a, b], row)) in dycore.edge_cells.iter().zip(&dycore.edges).enumerate() {
            let got = row.tangential_wind(&records[a as usize], &records[b as usize]);
            let m = grid.edge_midpoints[e];
            let want = wind(m).dot(m.cross(grid.edge_normals[e]));
            assert!(
                (got - want).abs() < 1e-3 * speed,
                "edge {e}: u_t {got} vs {want}"
            );
        }
    }
}
