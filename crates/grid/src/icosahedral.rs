//! Icosahedral-geodesic Voronoi grid — the GRIST atmosphere mesh.
//!
//! Construction: start from the icosahedron, bisect every spherical triangle
//! `g` times ("glevel"), project midpoints to the sphere. The refined
//! triangulation has `V = 10·4^g + 2` vertices, `E = 30·4^g` edges and
//! `F = 20·4^g` triangles. GRIST's prognostic mesh is the *Voronoi dual*:
//! one (mostly hexagonal) cell per triangulation vertex, with normal
//! velocities carried on the shared edges — an unstructured C-grid. These
//! are exactly the formulas behind the paper's Table 1 grid counts
//! (g = 8 → 25 km, …, g = 12/13 → 1 km).

use std::collections::HashMap;

use crate::sphere::{circumcenter, spherical_triangle_area, Vec3};

/// The full mesh: triangulation plus Voronoi-dual connectivity and metrics.
#[derive(Debug, Clone)]
pub struct GeodesicGrid {
    /// Refinement level.
    pub glevel: u32,
    /// Cell centers (= triangulation vertices), unit vectors.
    pub cells: Vec<Vec3>,
    /// Dual corners (= triangle circumcenters), unit vectors.
    pub corners: Vec<Vec3>,
    /// Triangles as cell-index triples (counter-clockwise seen from outside).
    pub triangles: Vec<[usize; 3]>,
    /// Edges as (cell_a, cell_b) with a < b.
    pub edges: Vec<(usize, usize)>,
    /// Per edge: the two adjacent triangles (corner indices).
    pub edge_corners: Vec<(usize, usize)>,
    /// Per edge: midpoint on the sphere.
    pub edge_midpoints: Vec<Vec3>,
    /// Per edge: unit normal (direction cell_a → cell_b at the midpoint).
    pub edge_normals: Vec<Vec3>,
    /// Per edge: geodesic distance between the two cell centers (dual edge).
    pub edge_cell_dist: Vec<f64>,
    /// Per edge: geodesic length of the Voronoi face (between corners).
    pub edge_lengths: Vec<f64>,
    /// Per cell: edges bounding the cell, with sign (+1 if the edge normal
    /// points out of this cell, i.e. the cell is `cell_a`).
    pub cell_edges: Vec<Vec<(usize, f64)>>,
    /// Per cell: neighboring cells (same order as `cell_edges`).
    pub cell_neighbors: Vec<Vec<usize>>,
    /// Per cell: spherical area (unit sphere; multiply by R² for physical).
    pub cell_areas: Vec<f64>,
    /// Per cell: `cell_edges` as one fixed-width row with every edge normal
    /// resolved in the cell's (east, north) frame, for loops that walk the
    /// mesh every step.
    pub cell_stencils: Vec<CellStencil>,
}

/// Most edges a Voronoi cell has: 6, and 5 at the twelve pentagons.
pub const MAX_CELL_EDGES: usize = 6;

/// One cell's edges in `cell_edges` order, and the components of each edge
/// normal along the cell's local east and north unit vectors (what the
/// least-squares wind reconstruction and any projection onto the cell's
/// edges need; it never changes, so it is computed once with the grid).
#[derive(Debug, Clone, Copy)]
pub struct CellStencil {
    /// Edges around the cell; the arrays are valid up to here.
    nedges: u32,
    pub edge: [u32; MAX_CELL_EDGES],
    /// n̂·east per edge.
    pub n_east: [f64; MAX_CELL_EDGES],
    /// n̂·north per edge.
    pub n_north: [f64; MAX_CELL_EDGES],
}

impl CellStencil {
    /// Number of edges around the cell: the arrays' valid length (the `min`
    /// lets the compiler drop the bounds checks of `array[slot]`).
    #[inline]
    pub fn nedges(&self) -> usize {
        (self.nedges as usize).min(MAX_CELL_EDGES)
    }

    /// `(edge, n̂·east, n̂·north)` for each edge around the cell.
    pub fn slots(&self) -> impl Iterator<Item = (usize, f64, f64)> + '_ {
        let m = self.nedges();
        self.edge[..m]
            .iter()
            .zip(&self.n_east[..m])
            .zip(&self.n_north[..m])
            .map(|((&e, &ne), &nn)| (e as usize, ne, nn))
    }
}

/// Counts without building the mesh (used for Table 1 and the machine model
/// at glevels far beyond what fits in memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeodesicCounts {
    pub cells: usize,
    pub edges: usize,
    pub corners: usize,
}

impl GeodesicCounts {
    pub fn at_glevel(g: u32) -> Self {
        let p = 4usize.pow(g);
        GeodesicCounts {
            cells: 10 * p + 2,
            edges: 30 * p,
            corners: 20 * p,
        }
    }
}

/// Base icosahedron vertices (unit sphere).
fn icosahedron_vertices() -> Vec<Vec3> {
    let phi = (1.0 + 5.0_f64.sqrt()) / 2.0;
    let verts = [
        (-1.0, phi, 0.0),
        (1.0, phi, 0.0),
        (-1.0, -phi, 0.0),
        (1.0, -phi, 0.0),
        (0.0, -1.0, phi),
        (0.0, 1.0, phi),
        (0.0, -1.0, -phi),
        (0.0, 1.0, -phi),
        (phi, 0.0, -1.0),
        (phi, 0.0, 1.0),
        (-phi, 0.0, -1.0),
        (-phi, 0.0, 1.0),
    ];
    verts
        .iter()
        .map(|&(x, y, z)| Vec3::new(x, y, z).normalized())
        .collect()
}

/// Base icosahedron faces (counter-clockwise from outside).
fn icosahedron_faces() -> Vec<[usize; 3]> {
    vec![
        [0, 11, 5],
        [0, 5, 1],
        [0, 1, 7],
        [0, 7, 10],
        [0, 10, 11],
        [1, 5, 9],
        [5, 11, 4],
        [11, 10, 2],
        [10, 7, 6],
        [7, 1, 8],
        [3, 9, 4],
        [3, 4, 2],
        [3, 2, 6],
        [3, 6, 8],
        [3, 8, 9],
        [4, 9, 5],
        [2, 4, 11],
        [6, 2, 10],
        [8, 6, 7],
        [9, 8, 1],
    ]
}

impl GeodesicGrid {
    /// Build the grid at refinement level `glevel`. Memory grows as
    /// `O(4^g)`; levels up to ~7 (163 842 cells) are comfortable in tests.
    pub fn new(glevel: u32) -> Self {
        let mut vertices = icosahedron_vertices();
        let mut faces = icosahedron_faces();
        for _ in 0..glevel {
            let mut midpoint_cache: HashMap<(usize, usize), usize> = HashMap::new();
            let mut new_faces = Vec::with_capacity(faces.len() * 4);
            let mut midpoint = |a: usize, b: usize, vertices: &mut Vec<Vec3>| -> usize {
                let key = (a.min(b), a.max(b));
                *midpoint_cache.entry(key).or_insert_with(|| {
                    let m = (vertices[a] + vertices[b]).normalized();
                    vertices.push(m);
                    vertices.len() - 1
                })
            };
            for &[a, b, c] in &faces {
                let ab = midpoint(a, b, &mut vertices);
                let bc = midpoint(b, c, &mut vertices);
                let ca = midpoint(c, a, &mut vertices);
                new_faces.push([a, ab, ca]);
                new_faces.push([b, bc, ab]);
                new_faces.push([c, ca, bc]);
                new_faces.push([ab, bc, ca]);
            }
            faces = new_faces;
        }

        let ncells = vertices.len();

        // Corners: one per triangle (circumcenter).
        let corners: Vec<Vec3> = faces
            .iter()
            .map(|&[a, b, c]| circumcenter(vertices[a], vertices[b], vertices[c]))
            .collect();

        // Edges with adjacent triangles.
        let mut edge_index: HashMap<(usize, usize), usize> = HashMap::new();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut edge_tris: Vec<[Option<usize>; 2]> = Vec::new();
        for (t, &[a, b, c]) in faces.iter().enumerate() {
            for &(u, v) in &[(a, b), (b, c), (c, a)] {
                let key = (u.min(v), u.max(v));
                let e = *edge_index.entry(key).or_insert_with(|| {
                    edges.push(key);
                    edge_tris.push([None, None]);
                    edges.len() - 1
                });
                if edge_tris[e][0].is_none() {
                    edge_tris[e][0] = Some(t);
                } else {
                    edge_tris[e][1] = Some(t);
                }
            }
        }
        let edge_corners: Vec<(usize, usize)> = edge_tris
            .iter()
            .map(|ts| {
                (
                    ts[0].expect("every edge borders a triangle"),
                    ts[1].expect("closed surface: every edge borders two triangles"),
                )
            })
            .collect();

        // Edge metrics.
        let mut edge_midpoints = Vec::with_capacity(edges.len());
        let mut edge_normals = Vec::with_capacity(edges.len());
        let mut edge_cell_dist = Vec::with_capacity(edges.len());
        let mut edge_lengths = Vec::with_capacity(edges.len());
        for (e, &(a, b)) in edges.iter().enumerate() {
            let pa = vertices[a];
            let pb = vertices[b];
            let mid = (pa + pb).normalized();
            edge_midpoints.push(mid);
            // Normal: tangent direction a → b at the midpoint.
            let n = pb - pa;
            let n = (n - mid.scale(n.dot(mid))).normalized();
            edge_normals.push(n);
            edge_cell_dist.push(pa.arc_distance(pb));
            let (t0, t1) = edge_corners[e];
            edge_lengths.push(corners[t0].arc_distance(corners[t1]));
        }

        // Cell adjacency.
        let mut cell_edges: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ncells];
        let mut cell_neighbors: Vec<Vec<usize>> = vec![Vec::new(); ncells];
        for (e, &(a, b)) in edges.iter().enumerate() {
            cell_edges[a].push((e, 1.0));
            cell_edges[b].push((e, -1.0));
            cell_neighbors[a].push(b);
            cell_neighbors[b].push(a);
        }

        // Cell areas: each triangle contributes three kite-ish thirds. Using
        // exact triangle thirds keeps ∑areas = 4π to machine precision.
        let mut cell_areas = vec![0.0; ncells];
        for &[a, b, c] in &faces {
            let area = spherical_triangle_area(vertices[a], vertices[b], vertices[c]);
            cell_areas[a] += area / 3.0;
            cell_areas[b] += area / 3.0;
            cell_areas[c] += area / 3.0;
        }

        let cell_stencils = cell_edges
            .iter()
            .zip(&vertices)
            .map(|(around, center)| {
                assert!(
                    around.len() <= MAX_CELL_EDGES,
                    "{} edges around a cell",
                    around.len()
                );
                let (east, north) = (center.east(), center.north());
                let mut stencil = CellStencil {
                    nedges: around.len() as u32,
                    edge: [0; MAX_CELL_EDGES],
                    n_east: [0.0; MAX_CELL_EDGES],
                    n_north: [0.0; MAX_CELL_EDGES],
                };
                for (slot, &(e, _sign)) in around.iter().enumerate() {
                    stencil.edge[slot] = u32::try_from(e).expect("edge index exceeds u32");
                    stencil.n_east[slot] = edge_normals[e].dot(east);
                    stencil.n_north[slot] = edge_normals[e].dot(north);
                }
                stencil
            })
            .collect();

        GeodesicGrid {
            glevel,
            cells: vertices,
            corners,
            triangles: faces,
            edges,
            edge_corners,
            edge_midpoints,
            edge_normals,
            edge_cell_dist,
            edge_lengths,
            cell_edges,
            cell_neighbors,
            cell_areas,
            cell_stencils,
        }
    }

    pub fn ncells(&self) -> usize {
        self.cells.len()
    }

    pub fn nedges(&self) -> usize {
        self.edges.len()
    }

    pub fn ncorners(&self) -> usize {
        self.corners.len()
    }

    /// Mean grid spacing in km on the real Earth.
    pub fn mean_spacing_km(&self) -> f64 {
        crate::mean_spacing_km(self.ncells())
    }

    /// Divergence of an edge-normal flux field at every cell:
    /// `div_i = (1/A_i) Σ_e sign(i,e) · F_e · l_e` (unit-sphere metrics).
    pub fn divergence(&self, edge_flux: &[f64], out: &mut [f64]) {
        assert_eq!(edge_flux.len(), self.nedges());
        assert_eq!(out.len(), self.ncells());
        for (i, edges) in self.cell_edges.iter().enumerate() {
            let mut acc = 0.0;
            for &(e, sign) in edges {
                acc += sign * edge_flux[e] * self.edge_lengths[e];
            }
            out[i] = acc / self.cell_areas[i];
        }
    }

    /// Gradient of a cell field along every edge normal:
    /// `grad_e = (q_b − q_a) / d_e`.
    pub fn gradient(&self, cell_field: &[f64], out: &mut [f64]) {
        assert_eq!(cell_field.len(), self.ncells());
        assert_eq!(out.len(), self.nedges());
        for (e, &(a, b)) in self.edges.iter().enumerate() {
            out[e] = (cell_field[b] - cell_field[a]) / self.edge_cell_dist[e];
        }
    }

    /// Reconstruct the full tangent-plane velocity vector at each cell from
    /// edge-normal components by unweighted least squares (2×2 normal
    /// equations in the local (east, north) basis).
    pub fn reconstruct_cell_vectors(&self, edge_normal_vel: &[f64]) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        self.reconstruct_cell_vectors_into(edge_normal_vel, &mut out);
        out
    }

    /// [`Self::reconstruct_cell_vectors`] into a reused buffer.
    pub fn reconstruct_cell_vectors_into(
        &self,
        edge_normal_vel: &[f64],
        out: &mut Vec<(f64, f64)>,
    ) {
        assert_eq!(edge_normal_vel.len(), self.nedges());
        out.clear();
        out.extend(self.cell_stencils.iter().map(|stencil| {
            let (mut a11, mut a12, mut a22, mut b1, mut b2) = (0.0, 0.0, 0.0, 0.0, 0.0);
            for (e, ne, nn) in stencil.slots() {
                a11 += ne * ne;
                a12 += ne * nn;
                a22 += nn * nn;
                b1 += ne * edge_normal_vel[e];
                b2 += nn * edge_normal_vel[e];
            }
            let det = a11 * a22 - a12 * a12;
            if det.abs() < 1e-14 {
                (0.0, 0.0)
            } else {
                ((a22 * b1 - a12 * b2) / det, (a11 * b2 - a12 * b1) / det)
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn counts_follow_formulas() {
        for g in 0..=4 {
            let grid = GeodesicGrid::new(g);
            let c = GeodesicCounts::at_glevel(g);
            assert_eq!(grid.ncells(), c.cells, "cells at g={g}");
            assert_eq!(grid.nedges(), c.edges, "edges at g={g}");
            assert_eq!(grid.ncorners(), c.corners, "corners at g={g}");
        }
    }

    #[test]
    fn euler_formula_holds() {
        for g in 0..=3 {
            let grid = GeodesicGrid::new(g);
            // V - E + F = 2 for a sphere (cells are vertices of the
            // triangulation, corners are faces).
            assert_eq!(
                grid.ncells() as i64 - grid.nedges() as i64 + grid.ncorners() as i64,
                2
            );
        }
    }

    #[test]
    fn table1_grid_counts() {
        // Paper Table 1 (GRIST column), sizes at each resolution.
        assert_eq!(GeodesicCounts::at_glevel(8).cells, 655_362); // 25 km: 6.7e5
        assert_eq!(GeodesicCounts::at_glevel(9).cells, 2_621_442); // 10 km: 2.6e6
        assert_eq!(GeodesicCounts::at_glevel(10).cells, 10_485_762); // 6 km: 1.1e7
        assert_eq!(GeodesicCounts::at_glevel(11).cells, 41_943_042); // 3 km: 4.2e7
        assert_eq!(GeodesicCounts::at_glevel(11).edges, 125_829_120); // 1.3e8
        assert_eq!(GeodesicCounts::at_glevel(11).corners, 83_886_080); // 8.4e7
    }

    #[test]
    fn areas_partition_the_sphere() {
        let grid = GeodesicGrid::new(3);
        let total: f64 = grid.cell_areas.iter().sum();
        assert!(
            (total - 4.0 * PI).abs() < 1e-9,
            "area sum {total} != 4π"
        );
        assert!(grid.cell_areas.iter().all(|&a| a > 0.0));
    }

    #[test]
    fn twelve_pentagons_rest_hexagons() {
        let grid = GeodesicGrid::new(3);
        let pentagons = grid
            .cell_neighbors
            .iter()
            .filter(|n| n.len() == 5)
            .count();
        let hexagons = grid
            .cell_neighbors
            .iter()
            .filter(|n| n.len() == 6)
            .count();
        assert_eq!(pentagons, 12);
        assert_eq!(hexagons, grid.ncells() - 12);
    }

    #[test]
    fn divergence_of_uniform_solid_rotation_is_small() {
        // Velocity field of solid-body rotation about z is divergence-free.
        let grid = GeodesicGrid::new(4);
        let flux: Vec<f64> = (0..grid.nedges())
            .map(|e| {
                let m = grid.edge_midpoints[e];
                // u = Ω × r, normal component at the edge.
                let omega = Vec3::new(0.0, 0.0, 1.0);
                let u = omega.cross(m);
                u.dot(grid.edge_normals[e])
            })
            .collect();
        let mut div = vec![0.0; grid.ncells()];
        grid.divergence(&flux, &mut div);
        let max = div.iter().fold(0.0f64, |m, d| m.max(d.abs()));
        // Discretization error only; should be far below the field scale (1).
        assert!(max < 0.05, "max |div| = {max}");
    }

    #[test]
    fn gradient_of_constant_is_zero() {
        let grid = GeodesicGrid::new(3);
        let field = vec![7.5; grid.ncells()];
        let mut grad = vec![1.0; grid.nedges()];
        grid.gradient(&field, &mut grad);
        assert!(grad.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn reconstruction_recovers_solid_rotation() {
        let grid = GeodesicGrid::new(4);
        let omega = Vec3::new(0.0, 0.0, 1.0);
        let vel: Vec<f64> = (0..grid.nedges())
            .map(|e| omega.cross(grid.edge_midpoints[e]).dot(grid.edge_normals[e]))
            .collect();
        let rec = grid.reconstruct_cell_vectors(&vel);
        for (i, &(ue, un)) in rec.iter().enumerate() {
            let p = grid.cells[i];
            let u_true = omega.cross(p);
            let ue_true = u_true.dot(p.east());
            let un_true = u_true.dot(p.north());
            assert!(
                (ue - ue_true).abs() < 0.05 && (un - un_true).abs() < 0.05,
                "cell {i}: rec=({ue},{un}) true=({ue_true},{un_true})"
            );
        }
    }

    #[test]
    fn edge_normals_are_tangent_unit_vectors() {
        let grid = GeodesicGrid::new(2);
        for e in 0..grid.nedges() {
            let n = grid.edge_normals[e];
            let m = grid.edge_midpoints[e];
            assert!((n.norm() - 1.0).abs() < 1e-12);
            assert!(n.dot(m).abs() < 1e-12);
        }
    }
}
