//! Goldens for the atmosphere step. The hashes pin the current commit's bits
//! on every execution space the phases can run on (any lane count, any
//! tiling); each one was last re-recorded through
//! `ap3esm_precision::Golden` when the dynamical core began to reconstruct
//! the cell wind from precombined weights and to take the tangential wind
//! from four precombined projections. The references: for the dynamics,
//! `reference::RefDycore` (commit `74957b4`'s `step_dyn`, from before the
//! table-driven rewrite, kept here only; that commit's `step_dyn` matched it
//! bit for bit); for the model steps with physics, which have no reference
//! kernel, commit `fcf02bd`'s per-level sums of squares printed with `{:?}`.

use std::sync::Arc;

use ap3esm_atm::pdc::SurfaceForcing;
use ap3esm_atm::{AtmState, Dycore, DycoreConfig, PhysicsDriver, PhysicsDynamicsCoupler};
use ap3esm_grid::GeodesicGrid;
use ap3esm_physics::suite::ConventionalSuite;
use ap3esm_pp::{ExecSpace, Serial, SimulatedCpe, Threads};
use ap3esm_precision::Golden;
use proptest::prelude::*;

/// `None`: as `Dycore::new` / `PhysicsDynamicsCoupler::new` build them.
type Space = Option<Arc<dyn ExecSpace>>;

/// Every prognostic field and the mass-flux accumulator, named, in hash
/// order.
fn fields<'a>(state: &'a AtmState, mass_flux_accum: &'a [f64]) -> [(&'static str, &'a [f64]); 8] {
    [
        ("ps", &state.ps),
        ("theta", &state.theta),
        ("q", &state.q),
        ("un", &state.un),
        ("precip_accum", &state.precip_accum),
        ("gsw", &state.gsw),
        ("glw", &state.glw),
        ("mass_flux_accum", mass_flux_accum),
    ]
}

fn state_hash(state: &AtmState, mass_flux_accum: &[f64]) -> u64 {
    let mut golden = Golden::new();
    for (_, field) in fields(state, mass_flux_accum) {
        golden.pin(field);
    }
    golden.hash()
}

/// Each field of `state` within `bound` of `parent`'s, relative to the
/// field's largest magnitude.
fn against(
    state: &AtmState,
    acc: &[f64],
    parent: &AtmState,
    parent_acc: &[f64],
    bound: f64,
) -> Golden {
    let mut golden = Golden::new();
    for ((name, got), (_, want)) in fields(state, acc)
        .into_iter()
        .zip(fields(parent, parent_acc))
    {
        golden.field(name, got, want, bound);
    }
    golden
}

/// A smooth, windy, moist state: wavy `ps`, θ and q, a zonal jet that weakens
/// with height plus a small cross-flow on every edge.
fn windy_state(grid: &Arc<GeodesicGrid>, nlev: usize) -> AtmState {
    let mut state = AtmState::isothermal(Arc::clone(grid), nlev, 285.0);
    let (n, ne) = (state.ncells(), state.nedges());
    for i in 0..n {
        let (lat, lon) = (grid.cells[i].lat(), grid.cells[i].lon());
        state.ps[i] += 300.0 * (2.0 * lon).sin() * lat.cos() + 120.0 * (3.0 * lat).sin();
        for k in 0..nlev {
            state.theta[k * n + i] += 2.0 * (3.0 * lon + k as f64).cos() * lat.cos();
            state.q[k * n + i] = (4.0e-3 * (1.0 + 0.6 * (lon - 0.7 * k as f64).sin()) * lat.cos()
                - 2.0e-4)
                .max(-1.0e-4);
        }
    }
    for k in 0..nlev {
        for e in 0..ne {
            let m = grid.edge_midpoints[e];
            let east = m.east();
            let jet = 12.0 * m.lat().cos() / (1.0 + 0.3 * k as f64);
            state.un[k * ne + e] =
                jet * grid.edge_normals[e].dot(east) + 1.5 * ((e % 23) as f64 / 23.0 - 0.5);
        }
    }
    state
}

fn dycore_for(grid: &Arc<GeodesicGrid>, space: &Space) -> Dycore {
    let dycore = Dycore::new(
        Arc::clone(grid),
        DycoreConfig::for_spacing_km(grid.mean_spacing_km()),
    );
    match space {
        Some(space) => dycore.on(Arc::clone(space)),
        None => dycore,
    }
}

fn conventional_physics(space: &Space) -> PhysicsDynamicsCoupler {
    let pdc =
        PhysicsDynamicsCoupler::new(PhysicsDriver::Conventional(ConventionalSuite::default()));
    match space {
        Some(space) => pdc.on(Arc::clone(space)),
        None => pdc,
    }
}

/// A surface that varies with latitude and mixes ocean, land and half-wet
/// cells.
fn mixed_surface(grid: &GeodesicGrid) -> SurfaceForcing {
    let n = grid.ncells();
    let mut forcing = SurfaceForcing::uniform(n, 288.0, 0.0, 1.0);
    for i in 0..n {
        let (lat, lon) = (grid.cells[i].lat(), grid.cells[i].lon());
        forcing.tskin[i] = 273.0 + 29.0 * lat.cos().powi(2);
        forcing.coszr[i] = (lat.cos() * lon.cos()).max(0.0);
        forcing.wetness[i] = [1.0, 0.0, 0.35][i % 3];
    }
    forcing
}

/// (a) The windy G4 × 5 state and its mass-flux accumulator after 40
/// dynamics substeps of `step`.
fn after_dyn_substeps(
    grid: &Arc<GeodesicGrid>,
    mut step: impl FnMut(&mut AtmState, &mut [f64]),
) -> (AtmState, Vec<f64>) {
    let mut state = windy_state(grid, 5);
    let mut acc = vec![0.0; 5 * state.nedges()];
    for _ in 0..40 {
        step(&mut state, &mut acc);
    }
    assert!(state.un.iter().chain(&state.ps).all(|v| v.is_finite()));
    (state, acc)
}

fn dyn_substeps_hash_on(space: &Space) -> u64 {
    let grid = Arc::new(GeodesicGrid::new(4));
    let dycore = dycore_for(&grid, space);
    let dt = dycore.config.dt_dyn;
    let (state, acc) = after_dyn_substeps(&grid, |s, acc| dycore.step_dyn(s, dt, acc));
    state_hash(&state, &acc)
}

/// Commit `fcf02bd`'s per-level sums of squares of every field after (b),
/// in [`level_sums`] order.
type LevelSums = [&'static [f64]; 7];

#[rustfmt::skip]
const PARENT_MODEL_G3X5: LevelSums = [
    &[6420004227320.498],
    &[53805010.87912982, 56623312.633708894, 63913130.47849147, 80972212.73666257, 144769797.12278944],
    &[0.016777955949250516, 0.009841379283575043, 0.007348230374790775, 0.007248165483868164, 0.007222161092671105],
    &[15283.263938165876, 37861.47520844346, 26682.007810449955, 25668.20948965105, 47440.77802837522],
    &[1202.8324461308675],
    &[77658771.67793933],
    &[88903744.44986682],
];
#[rustfmt::skip]
const PARENT_MODEL_G2X6: LevelSums = [
    &[1620079172092.6816],
    &[21864422.595343295, 14850328.42591629, 15800158.41486059, 17494665.58646189, 22460597.08423609, 39954707.86960161],
    &[0.0025736529889044285, 0.004880601281763298, 0.001785435122176796, 0.001678517180178668, 0.0015227330432516293, 0.0018082562444498196],
    &[11363.221935640306, 8658.968513984983, 8580.72898578117, 8917.632869758614, 51218.3379756301, 4521.247917001694],
    &[208469.41875997226],
    &[16559726.824437063],
    &[1322422784.6444373],
];

/// Per level, Σ x² of each field a model step changes.
fn level_sums(state: &AtmState) -> [(&'static str, Vec<f64>); 7] {
    let (n, ne) = (state.ncells(), state.nedges());
    let sums = |values: &[f64], len: usize| -> Vec<f64> {
        let sum_sq = |level: &[f64]| level.iter().fold(0.0, |acc, x| acc + x * x);
        values.chunks(len).map(sum_sq).collect()
    };
    [
        ("ps", sums(&state.ps, n)),
        ("theta", sums(&state.theta, n)),
        ("q", sums(&state.q, n)),
        ("un", sums(&state.un, ne)),
        ("precip_accum", sums(&state.precip_accum, n)),
        ("gsw", sums(&state.gsw, n)),
        ("glw", sums(&state.glw, n)),
    ]
}

/// (b) 6 model steps of dynamics + conventional physics under a surface that
/// varies with latitude and mixes ocean, land and half-wet cells: the state's
/// level sums bounded against `parent`, then every field pinned.
///
/// The bound, 1e-11 of each field's largest level sum: a substep re-rounds
/// the reconstructed and tangential winds at ~1e-16 relative, 96 substeps
/// and six physics steps accumulate that to ~1e-13, and the bound sits two
/// orders above.
fn model_steps_golden_on(glevel: u32, nlev: usize, parent: LevelSums, space: &Space) -> Golden {
    let grid = Arc::new(GeodesicGrid::new(glevel));
    let dycore = dycore_for(&grid, space);
    let mut state = windy_state(&grid, nlev);
    let forcing = mixed_surface(&grid);
    let mut pdc = conventional_physics(space);
    for _ in 0..6 {
        dycore.step_model_dynamics(&mut state);
        pdc.apply(&mut state, &forcing, dycore.config.dt_model);
    }
    assert!(state.theta.iter().chain(&state.un).all(|v| v.is_finite()));
    assert!(
        state.precip_accum.iter().any(|&p| p > 0.0),
        "no column rained"
    );
    let mut golden = Golden::new();
    for ((name, sums), want) in level_sums(&state).iter().zip(parent) {
        golden.field(name, sums, want, 1e-11);
    }
    for (_, field) in fields(&state, &[]) {
        golden.pin(field);
    }
    golden
}

const GOLDEN_DYN_G4X5: u64 = 0xa9e1d9b231ad8899;
const GOLDEN_MODEL_G3X5: u64 = 0x554ad802bd956ce1;
const GOLDEN_MODEL_G2X6: u64 = 0x0dbde2a70acd920a;

/// (a) against `RefDycore`: every field within 1e-12 of its largest
/// magnitude. A substep re-rounds T, Φ, each geometry product, the
/// reconstructed and the tangential wind at a few ulp (the unit tests in
/// `dycore.rs` bound them); 40 substeps of forward-backward gravity waves
/// carry that to ~1e-13, an order below.
#[test]
fn dyn_substeps_match_parent_bitwise() {
    let grid = Arc::new(GeodesicGrid::new(4));
    let config = DycoreConfig::for_spacing_km(grid.mean_spacing_km());
    let dycore = Dycore::new(Arc::clone(&grid), config);
    let reference = reference::RefDycore::new(Arc::clone(&grid), config);
    let dt = config.dt_dyn;
    let (state, acc) = after_dyn_substeps(&grid, |s, acc| dycore.step_dyn(s, dt, acc));
    let (parent, parent_acc) = after_dyn_substeps(&grid, |s, acc| reference.step_dyn(s, dt, acc));
    let golden = against(&state, &acc, &parent, &parent_acc, 1e-12);
    println!("G4 x 5:\n{}", golden.report());
    golden.check(GOLDEN_DYN_G4X5).unwrap();
}

#[test]
fn model_steps_match_parent_bitwise() {
    let g3 = model_steps_golden_on(3, 5, PARENT_MODEL_G3X5, &None);
    println!("G3 x 5:\n{}", g3.report());
    g3.check(GOLDEN_MODEL_G3X5).unwrap();
    let g2 = model_steps_golden_on(2, 6, PARENT_MODEL_G2X6, &None);
    println!("G2 x 6 (pentagon-heavy):\n{}", g2.report());
    g2.check(GOLDEN_MODEL_G2X6).unwrap();
}

/// The same three hashes from one lane, from teams of one to four lanes (more
/// lanes than this box has cores: ranges change hands), and from LDM tiles of
/// two indices: two levels of five or six, two cells of 162 to 2562.
#[test]
fn goldens_hold_on_every_execution_space() {
    let mut spaces: Vec<(String, Space)> = vec![("serial".into(), Some(Arc::new(Serial)))];
    for lanes in 1..=4 {
        spaces.push((
            format!("threads({lanes})"),
            Some(Arc::new(Threads::new(lanes))),
        ));
    }
    spaces.push((
        "simulated-cpe, 2 per tile".into(),
        Some(Arc::new(SimulatedCpe::new(64, 16, 8))),
    ));
    for (name, space) in &spaces {
        assert_eq!(dyn_substeps_hash_on(space), GOLDEN_DYN_G4X5, "{name}");
        assert_eq!(
            model_steps_golden_on(3, 5, PARENT_MODEL_G3X5, space).hash(),
            GOLDEN_MODEL_G3X5,
            "{name}"
        );
        assert_eq!(
            model_steps_golden_on(2, 6, PARENT_MODEL_G2X6, space).hash(),
            GOLDEN_MODEL_G2X6,
            "{name}"
        );
    }
}

/// xorshift64* stream for the property test's random states.
struct Noise(u64);

impl Noise {
    fn unit(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn between(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// A random state: noisy pₛ, θ, q (some of it negative) and winds.
fn noisy_state(grid: &Arc<GeodesicGrid>, nlev: usize, seed: u64) -> AtmState {
    let mut noise = Noise(seed | 1);
    let mut state = AtmState::isothermal(Arc::clone(grid), nlev, 285.0);
    for p in state.ps.iter_mut() {
        *p += noise.between(-400.0, 400.0);
    }
    for th in state.theta.iter_mut() {
        *th += noise.between(-3.0, 3.0);
    }
    for q in state.q.iter_mut() {
        *q = noise.between(-2.0e-4, 8.0e-3);
    }
    for u in state.un.iter_mut() {
        *u = noise.between(-15.0, 15.0);
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A model step of dynamics and a physics step on a team of any size
    /// equal the one-lane step, bit for bit, on any state, level count and
    /// mesh.
    #[test]
    fn lane_count_changes_no_bit(
        glevel in 1u32..4,
        nlev in 1usize..9,
        lanes in 1usize..=7,
        seed in any::<u64>(),
    ) {
        let grid = Arc::new(GeodesicGrid::new(glevel));
        let forcing = mixed_surface(&grid);
        let step = |space: &Space| {
            let dycore = dycore_for(&grid, space);
            let mut pdc = conventional_physics(space);
            let mut state = noisy_state(&grid, nlev, seed);
            for _ in 0..2 {
                dycore.step_model_dynamics(&mut state);
                pdc.apply(&mut state, &forcing, dycore.config.dt_model);
            }
            state_hash(&state, &[])
        };
        prop_assert_eq!(step(&Some(Arc::new(Threads::new(lanes)))), step(&None));
    }

    /// The table-driven, factored `step_dyn` equals the parent's on any
    /// state, level count and mesh within the bound of (a), 1e-12 of each
    /// field's largest magnitude.
    #[test]
    fn step_dyn_equals_parent_reference(
        glevel in 1u32..4,
        nlev in 1usize..9,
        seed in any::<u64>(),
    ) {
        let grid = Arc::new(GeodesicGrid::new(glevel));
        let config = DycoreConfig::for_spacing_km(grid.mean_spacing_km());
        let dycore = Dycore::new(Arc::clone(&grid), config);
        let reference = reference::RefDycore::new(Arc::clone(&grid), config);
        let mut state = noisy_state(&grid, nlev, seed);
        let mut expect = state.clone();
        let mut acc = vec![0.0; nlev * state.nedges()];
        let mut acc_expect = acc.clone();
        for _ in 0..3 {
            dycore.step_dyn(&mut state, config.dt_dyn, &mut acc);
            reference.step_dyn(&mut expect, config.dt_dyn, &mut acc_expect);
        }
        let golden = against(&state, &acc, &expect, &acc_expect, 1e-12);
        prop_assert!(golden.check(golden.hash()).is_ok(), "{}", golden.report());
    }
}

/// The parent commit's dycore substep, verbatim (its `reconstruct` went
/// through `pp::Serial::for_each`; the loop body is the same).
mod reference {
    use std::sync::Arc;

    use ap3esm_atm::{AtmState, DycoreConfig, P_REF};
    use ap3esm_grid::{GeodesicGrid, EARTH_RADIUS};
    use ap3esm_physics::constants::{coriolis, KAPPA, R_DRY};

    pub struct RefDycore {
        grid: Arc<GeodesicGrid>,
        le: Vec<f64>,
        de: Vec<f64>,
        area: Vec<f64>,
        corner_area: Vec<f64>,
        f_edge: Vec<f64>,
        corner_edges: Vec<[(usize, f64); 3]>,
        cell_east: Vec<[f64; 3]>,
        cell_north: Vec<[f64; 3]>,
        cell_ls_inv: Vec<[f64; 3]>,
        edge_tangent: Vec<[f64; 3]>,
        edge_corners_oriented: Vec<(usize, usize)>,
        edge_normal: Vec<[f64; 3]>,
        config: DycoreConfig,
    }

    impl RefDycore {
        pub fn new(grid: Arc<GeodesicGrid>, config: DycoreConfig) -> Self {
            let r = EARTH_RADIUS;
            let le: Vec<f64> = grid.edge_lengths.iter().map(|l| l * r).collect();
            let de: Vec<f64> = grid.edge_cell_dist.iter().map(|d| d * r).collect();
            let area: Vec<f64> = grid.cell_areas.iter().map(|a| a * r * r).collect();
            let f_edge: Vec<f64> = grid
                .edge_midpoints
                .iter()
                .map(|m| coriolis(m.lat()))
                .collect();

            let mut corner_edges = Vec::with_capacity(grid.ncorners());
            let mut corner_area = Vec::with_capacity(grid.ncorners());
            let mut edge_lookup = std::collections::HashMap::new();
            for (e, &(a, b)) in grid.edges.iter().enumerate() {
                edge_lookup.insert((a, b), e);
            }
            for (t, &[a, b, c]) in grid.triangles.iter().enumerate() {
                let mut entry = [(0usize, 0.0f64); 3];
                for (slot, &(u, v)) in [(a, b), (b, c), (c, a)].iter().enumerate() {
                    let key = (u.min(v), u.max(v));
                    let e = edge_lookup[&key];
                    entry[slot] = (e, if u < v { 1.0 } else { -1.0 });
                }
                corner_edges.push(entry);
                corner_area.push(
                    ap3esm_grid::sphere::spherical_triangle_area(
                        grid.cells[grid.triangles[t][0]],
                        grid.cells[grid.triangles[t][1]],
                        grid.cells[grid.triangles[t][2]],
                    ) * r
                        * r,
                );
            }

            let mut cell_east = Vec::with_capacity(grid.ncells());
            let mut cell_north = Vec::with_capacity(grid.ncells());
            let mut cell_ls_inv = Vec::with_capacity(grid.ncells());
            for i in 0..grid.ncells() {
                let east = grid.cells[i].east();
                let north = grid.cells[i].north();
                cell_east.push([east.x, east.y, east.z]);
                cell_north.push([north.x, north.y, north.z]);
                let (mut a11, mut a12, mut a22) = (0.0, 0.0, 0.0);
                for &(e, _) in &grid.cell_edges[i] {
                    let n = grid.edge_normals[e];
                    let ne = n.dot(east);
                    let nn = n.dot(north);
                    a11 += ne * ne;
                    a12 += ne * nn;
                    a22 += nn * nn;
                }
                let det = a11 * a22 - a12 * a12;
                assert!(det.abs() > 1e-12, "degenerate reconstruction at cell {i}");
                cell_ls_inv.push([a22 / det, -a12 / det, a11 / det]);
            }

            let mut edge_tangent = Vec::with_capacity(grid.nedges());
            let mut edge_normal = Vec::with_capacity(grid.nedges());
            let mut edge_corners_oriented = Vec::with_capacity(grid.nedges());
            for e in 0..grid.nedges() {
                let n = grid.edge_normals[e];
                let t = grid.edge_midpoints[e].cross(n);
                edge_tangent.push([t.x, t.y, t.z]);
                edge_normal.push([n.x, n.y, n.z]);
                let (c0, c1) = grid.edge_corners[e];
                let along = grid.corners[c1] - grid.corners[c0];
                if along.dot(t) >= 0.0 {
                    edge_corners_oriented.push((c0, c1));
                } else {
                    edge_corners_oriented.push((c1, c0));
                }
            }

            RefDycore {
                grid,
                le,
                de,
                area,
                corner_area,
                f_edge,
                corner_edges,
                cell_east,
                cell_north,
                cell_ls_inv,
                edge_tangent,
                edge_normal,
                edge_corners_oriented,
                config,
            }
        }

        fn divergence(&self, flux: &[f64], out: &mut [f64]) {
            for (i, edges) in self.grid.cell_edges.iter().enumerate() {
                let mut acc = 0.0;
                for &(e, sign) in edges {
                    acc += sign * flux[e] * self.le[e];
                }
                out[i] = acc / self.area[i];
            }
        }

        fn reconstruct(&self, un: &[f64], out: &mut [(f64, f64)]) {
            for (i, slot) in out.iter_mut().enumerate() {
                let east = self.cell_east[i];
                let north = self.cell_north[i];
                let (mut b1, mut b2) = (0.0, 0.0);
                for &(e, _) in &self.grid.cell_edges[i] {
                    let n = self.edge_normal[e];
                    let ne = n[0] * east[0] + n[1] * east[1] + n[2] * east[2];
                    let nn = n[0] * north[0] + n[1] * north[1] + n[2] * north[2];
                    b1 += ne * un[e];
                    b2 += nn * un[e];
                }
                let inv = self.cell_ls_inv[i];
                *slot = (inv[0] * b1 + inv[1] * b2, inv[1] * b1 + inv[2] * b2);
            }
        }

        fn vorticity(&self, un: &[f64], out: &mut [f64]) {
            for (t, entry) in self.corner_edges.iter().enumerate() {
                let mut circ = 0.0;
                for &(e, sign) in entry {
                    circ += sign * un[e] * self.de[e];
                }
                out[t] = circ / self.corner_area[t];
            }
        }

        pub fn step_dyn(&self, state: &mut AtmState, dt: f64, mass_flux_accum: &mut [f64]) {
            let grid = &self.grid;
            let n = grid.ncells();
            let ne = grid.nedges();
            let nlev = state.nlev;

            // --- Mass fluxes and continuity (from the old state). ---
            let mut dps_dt = vec![0.0; n];
            let mut div_layer = vec![0.0; n];
            let mut flux = vec![0.0; ne];
            let mut theta_flux_div = vec![0.0; nlev * n];
            let mut q_flux_div = vec![0.0; nlev * n];
            let mut tracer_div_buf = vec![0.0; n];
            for k in 0..nlev {
                let unk = &state.un[k * ne..(k + 1) * ne];
                for (e, &(a, b)) in grid.edges.iter().enumerate() {
                    let ps_e = 0.5 * (state.ps[a] + state.ps[b]);
                    flux[e] = unk[e] * ps_e * state.dsigma[k];
                }
                self.divergence(&flux, &mut div_layer);
                for i in 0..n {
                    dps_dt[i] -= div_layer[i];
                }
                mass_flux_accum[k * ne..(k + 1) * ne]
                    .iter_mut()
                    .zip(&flux)
                    .for_each(|(acc, f)| *acc += f * dt);

                // Upwind θ and q fluxes for the dycore-rate θ update.
                let thk = &state.theta[k * n..(k + 1) * n];
                let qk = &state.q[k * n..(k + 1) * n];
                let mut tflux = vec![0.0; ne];
                let mut qflux = vec![0.0; ne];
                for (e, &(a, b)) in grid.edges.iter().enumerate() {
                    let up = if flux[e] >= 0.0 { a } else { b };
                    tflux[e] = flux[e] * thk[up];
                    qflux[e] = flux[e] * qk[up];
                }
                self.divergence(&tflux, &mut tracer_div_buf);
                theta_flux_div[k * n..(k + 1) * n].copy_from_slice(&tracer_div_buf);
                self.divergence(&qflux, &mut tracer_div_buf);
                q_flux_div[k * n..(k + 1) * n].copy_from_slice(&tracer_div_buf);
            }

            // --- Forward-backward staging: apply continuity and tracer-mass
            //     updates first, so the pressure-gradient force below sees the
            //     *new* mass field (stabilises external gravity waves). ---
            for (i, &dps) in dps_dt.iter().enumerate() {
                let ps_old = state.ps[i];
                let ps_new = ps_old + dt * dps;
                for k in 0..nlev {
                    let dp_old = state.dsigma[k] * ps_old;
                    let dp_new = state.dsigma[k] * ps_new;
                    let idx = k * n + i;
                    let th_mass = state.theta[idx] * dp_old - dt * theta_flux_div[idx];
                    state.theta[idx] = th_mass / dp_new;
                    let q_mass = state.q[idx] * dp_old - dt * q_flux_div[idx];
                    state.q[idx] = q_mass / dp_new;
                }
                state.ps[i] = ps_new;
            }

            // --- Diagnose T, Φ from the updated mass field. ---
            let mut t_field = vec![0.0; nlev * n];
            let mut phi = vec![0.0; nlev * n];
            for i in 0..n {
                let ps = state.ps[i];
                let mut phi_below = 0.0;
                let mut p_below = ps;
                for k in 0..nlev {
                    let p = state.sigma[k] * ps;
                    let t = state.theta[k * n + i] * (p / P_REF).powf(KAPPA);
                    t_field[k * n + i] = t;
                    // Hypsometric increment from the previous reference level.
                    phi[k * n + i] = phi_below + R_DRY * t * (p_below / p).ln();
                    phi_below = phi[k * n + i];
                    p_below = p;
                }
            }

            // --- Momentum tendencies per level (old winds, new mass field). ---
            let mut cell_vec = vec![(0.0, 0.0); n];
            let mut zeta = vec![0.0; grid.ncorners()];
            let mut div_u = vec![0.0; n];
            let mut new_un = vec![0.0; nlev * ne];
            for k in 0..nlev {
                let unk = &state.un[k * ne..(k + 1) * ne];
                self.reconstruct(unk, &mut cell_vec);
                self.vorticity(unk, &mut zeta);
                self.divergence(unk, &mut div_u);

                // Bernoulli function K + Φ at cells.
                let mut bern = vec![0.0; n];
                for i in 0..n {
                    let (ue, uno) = cell_vec[i];
                    bern[i] = 0.5 * (ue * ue + uno * uno) + phi[k * n + i];
                }

                let out = &mut new_un[k * ne..(k + 1) * ne];
                for (e, &(a, b)) in grid.edges.iter().enumerate() {
                    // Tangential velocity from averaged cell vectors.
                    let va = cell_vec[a];
                    let vb = cell_vec[b];
                    let v3 = [
                        0.5 * (va.0 * self.cell_east[a][0]
                            + va.1 * self.cell_north[a][0]
                            + vb.0 * self.cell_east[b][0]
                            + vb.1 * self.cell_north[b][0]),
                        0.5 * (va.0 * self.cell_east[a][1]
                            + va.1 * self.cell_north[a][1]
                            + vb.0 * self.cell_east[b][1]
                            + vb.1 * self.cell_north[b][1]),
                        0.5 * (va.0 * self.cell_east[a][2]
                            + va.1 * self.cell_north[a][2]
                            + vb.0 * self.cell_east[b][2]
                            + vb.1 * self.cell_north[b][2]),
                    ];
                    let t = self.edge_tangent[e];
                    let ut = v3[0] * t[0] + v3[1] * t[1] + v3[2] * t[2];

                    let (c0, c1) = grid.edge_corners[e];
                    let eta = self.f_edge[e] + 0.5 * (zeta[c0] + zeta[c1]);

                    let grad_bern = (bern[b] - bern[a]) / self.de[e];
                    let t_e = 0.5 * (t_field[k * n + a] + t_field[k * n + b]);
                    let grad_lnps = (state.ps[b].ln() - state.ps[a].ln()) / self.de[e];

                    // Vector Laplacian: ∇ₙδ − ∇ₜζ (corners oriented along +t̂).
                    let (cd, cu) = self.edge_corners_oriented[e];
                    let lap =
                        (div_u[b] - div_u[a]) / self.de[e] - (zeta[cu] - zeta[cd]) / self.le[e];

                    out[e] = unk[e]
                        + dt * (eta * ut - grad_bern - R_DRY * t_e * grad_lnps
                            + self.config.nu * lap);
                }
            }

            state.un.copy_from_slice(&new_un);
        }
    }
}
