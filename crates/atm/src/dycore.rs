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

use std::cell::RefCell;
use std::sync::Arc;

use ap3esm_grid::icosahedral::MAX_CELL_EDGES;
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

/// One cell's row: what the divergence and reconstruction passes read beside
/// the grid's `CellStencil` (edge ids, n̂·east, n̂·north), in the same slot
/// order.
#[derive(Clone, Copy)]
struct CellRow {
    /// sign·le: +le where the edge normal points out of this cell, else −le
    /// (m). `f·(sign·le)` and `(sign·f)·le` round identically (sign = ±1).
    sle: [f64; MAX_CELL_EDGES],
    /// (a11, a12, a22) of the inverse 2×2 least-squares normal matrix.
    ls_inv: [f64; 3],
    /// Physical cell area (m²) and its reciprocal.
    area: f64,
    inv_area: f64,
}

/// A cell's east and north unit vectors (3-D): what the per-edge tangential
/// wind gathers from its two cells.
#[derive(Clone, Copy)]
struct CellFrame {
    east: [f64; 3],
    north: [f64; 3],
}

/// One edge's row.
#[derive(Clone, Copy)]
struct EdgeRow {
    /// The two cells; the normal points a → b.
    a: u32,
    b: u32,
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
    /// Tangent unit vector t̂ = r̂ × n̂ (3-D).
    tangent: [f64; 3],
}

/// One corner's row: the triangle's three edges with sign·de, the
/// circulation sign folded into the dual-edge length like `CellRow::sle`.
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
    /// Per edge, interleaved: mass flux, upwind θ flux, upwind q flux (one
    /// gather per divergence slot, not three).
    fluxes: &'a mut [f64],
    /// Geopotential, accumulated upward through the levels below.
    phi: &'a mut [f64],
    /// Reconstructed (east, north) wind, interleaved.
    wind: &'a mut [f64],
    div_u: &'a mut [f64],
    bern: &'a mut [f64],
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
            fluxes: take(3 * ne),
            phi: take(n),
            wind: take(2 * n),
            div_u: take(n),
            bern: take(n),
            zeta: take(ncorners),
        }
    }
}

/// Precomputed connectivity/geometry tables + the substep workspace.
pub struct Dycore {
    grid: Arc<GeodesicGrid>,
    cells: Vec<CellRow>,
    frames: Vec<CellFrame>,
    edges: Vec<EdgeRow>,
    corners: Vec<CornerRow>,
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
        let mut frames = Vec::with_capacity(grid.ncells());
        for (i, stencil) in grid.cell_stencils.iter().enumerate() {
            let area = grid.cell_areas[i] * r * r;
            let mut row = CellRow {
                sle: [0.0; MAX_CELL_EDGES],
                ls_inv: [0.0; 3],
                area,
                inv_area: 1.0 / area,
            };
            let (mut a11, mut a12, mut a22) = (0.0, 0.0, 0.0);
            for ((e, ne, nn), (&(_, sign), sle)) in stencil
                .slots()
                .zip(grid.cell_edges[i].iter().zip(&mut row.sle))
            {
                a11 += ne * ne;
                a12 += ne * nn;
                a22 += nn * nn;
                *sle = sign * (grid.edge_lengths[e] * r);
            }
            let det = a11 * a22 - a12 * a12;
            assert!(det.abs() > 1e-12, "degenerate reconstruction at cell {i}");
            row.ls_inv = [a22 / det, -a12 / det, a11 / det];
            cells.push(row);
            let (east, north) = (grid.cells[i].east(), grid.cells[i].north());
            frames.push(CellFrame {
                east: [east.x, east.y, east.z],
                north: [north.x, north.y, north.z],
            });
        }

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
            edges.push(EdgeRow {
                a: index_u32(a),
                b: index_u32(b),
                corner_down: index_u32(down),
                corner_up: index_u32(up),
                inv_de: 1.0 / (grid.edge_cell_dist[e] * r),
                inv_le: 1.0 / (grid.edge_lengths[e] * r),
                f: coriolis(grid.edge_midpoints[e].lat()),
                tangent: [t.x, t.y, t.z],
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
            cells,
            frames,
            edges,
            corners,
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
        let stencils = &self.grid.cell_stencils[..];
        let (cells, frames, edges, corners) = (
            &self.cells[..],
            &self.frames[..],
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
            for (ps_e, row) in ps_edge.iter_mut().zip(&edges[r]) {
                *ps_e = 0.5 * (ps[row.a as usize] + ps[row.b as usize]);
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
                    for (((f, row), &u), &ps_e) in fluxes
                        .chunks_exact_mut(3)
                        .zip(edges)
                        .zip(unk)
                        .zip(ps_edge.iter())
                    {
                        let flux = u * ps_e * dsigma[k];
                        let up = if flux >= 0.0 { row.a } else { row.b } as usize;
                        f[0] = flux;
                        f[1] = flux * thk[up];
                        f[2] = flux * qk[up];
                    }
                    if !accum.is_empty() {
                        for (acc, f) in accum[j * ne..(j + 1) * ne]
                            .iter_mut()
                            .zip(fluxes.chunks_exact(3))
                        {
                            *acc += f[0] * dt;
                        }
                    }
                    // The three divergences in one walk.
                    for (i, (stencil, row)) in stencils.iter().zip(cells).enumerate() {
                        let (mut mass, mut th, mut qv) = (0.0, 0.0, 0.0);
                        for s in 0..stencil.nedges() {
                            let e = stencil.edge[s] as usize;
                            let f = &fluxes[3 * e..3 * e + 3];
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
            for (grad, row) in grad_ln_ps.iter_mut().zip(&edges[r]) {
                *grad = (ln_ps[row.b as usize] - ln_ps[row.a as usize]) * row.inv_de;
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
                phi,
                wind,
                div_u,
                bern,
                zeta,
                ..
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
                for (i, (stencil, row)) in stencils.iter().zip(cells).enumerate() {
                    phi[i] += dphi_k[i];

                    // Least-squares (east, north) wind and ∇·u in one walk.
                    let (mut b1, mut b2, mut div) = (0.0, 0.0, 0.0);
                    for s in 0..stencil.nedges() {
                        let u = unk[stencil.edge[s] as usize];
                        b1 += stencil.n_east[s] * u;
                        b2 += stencil.n_north[s] * u;
                        div += u * row.sle[s];
                    }
                    let inv = row.ls_inv;
                    let (ue, uno) = (inv[0] * b1 + inv[1] * b2, inv[1] * b1 + inv[2] * b2);
                    wind[2 * i] = ue;
                    wind[2 * i + 1] = uno;
                    div_u[i] = div * row.inv_area;
                    // Bernoulli function K + Φ.
                    bern[i] = 0.5 * (ue * ue + uno * uno) + phi[i];
                }
                Self::vorticity(corners, unk, zeta);

                for ((u, row), &grad_lnps) in unk.iter_mut().zip(edges).zip(grad_ln_ps.iter()) {
                    let (a, b) = (row.a as usize, row.b as usize);
                    // Tangential velocity from averaged cell vectors.
                    let (fa, fb) = (&frames[a], &frames[b]);
                    let va = (wind[2 * a], wind[2 * a + 1]);
                    let vb = (wind[2 * b], wind[2 * b + 1]);
                    let v3 = [
                        0.5 * (va.0 * fa.east[0]
                            + va.1 * fa.north[0]
                            + vb.0 * fb.east[0]
                            + vb.1 * fb.north[0]),
                        0.5 * (va.0 * fa.east[1]
                            + va.1 * fa.north[1]
                            + vb.0 * fb.east[1]
                            + vb.1 * fb.north[1]),
                        0.5 * (va.0 * fa.east[2]
                            + va.1 * fa.north[2]
                            + vb.0 * fb.east[2]
                            + vb.1 * fb.north[2]),
                    ];
                    let tan = row.tangent;
                    let ut = v3[0] * tan[0] + v3[1] * tan[1] + v3[2] * tan[2];

                    let (cd, cu) = (row.corner_down as usize, row.corner_up as usize);
                    let eta = row.f + 0.5 * (zeta[cd] + zeta[cu]);

                    let grad_bern = (bern[b] - bern[a]) * row.inv_de;
                    let t_e = 0.5 * (tk[a] + tk[b]);

                    // Vector Laplacian: ∇ₙδ − ∇ₜζ (corners oriented along +t̂).
                    let lap =
                        (div_u[b] - div_u[a]) * row.inv_de - (zeta[cu] - zeta[cd]) * row.inv_le;

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
            for (q, row) in qk.iter_mut().zip(&self.cells) {
                if *q < 0.0 {
                    deficit += -*q * row.area;
                    *q = 0.0;
                } else {
                    positive += *q * row.area;
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
        assert!(state.ps[0] - P_REF < 700.0, "anomaly stuck: {}", state.ps[0]);
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

    /// Random surface pressures in [5·10⁴, 1.1·10⁵] Pa and potential
    /// temperatures in [250, 500] K (xorshift64*).
    fn columns(count: usize) -> impl Iterator<Item = (f64, f64)> {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut unit = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
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
}
