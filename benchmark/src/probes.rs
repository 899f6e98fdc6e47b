//! Layer probes: public functions of each crate, timed from here at the
//! workload's own sizes. Every function called is listed in README.md; a
//! change to one of them needs a benchmark-only change first.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ap3esm::atm::pdc::SurfaceForcing;
use ap3esm::atm::{AtmState, Dycore, PhysicsDriver, PhysicsDynamicsCoupler};
use ap3esm::comm::halo::ring_spec;
use ap3esm::comm::{collectives, HaloExchange, Rank, World};
use ap3esm::cpl::{GSMap, RearrangeStrategy, Rearranger, RemapMatrix, Router};
use ap3esm::grid::sphere::Vec3;
use ap3esm::grid::{BlockDecomp2d, GeodesicGrid, MaskGenerator, TripolarGrid};
use ap3esm::ice::{IceForcing, IceModel};
use ap3esm::lnd::{LndForcing, LndModel};
use ap3esm::ocn::model::OcnForcing;
use ap3esm::ocn::OcnModel;
use ap3esm::physics::{Column, ConventionalSuite, SurfaceProperties};
use ap3esm::pp::{ExecSpace, Serial, SharedSlice, Threads};
use ap3esm::scenario::compose::{fitted_atm_config, fitted_ocn_config};

use crate::alloc::COUNTER;
use crate::pace::{Pace, Timing};
use crate::run::Budget;
use crate::sim::kernel_in_turn;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::SimWorkload;

/// Per-layer values by metric name.
pub type Layers = BTreeMap<String, f64>;

/// What a probe run needs: where spans go, the machine-speed reference,
/// the time that is left, and how much to repeat.
pub struct Cx<'a> {
    pub tracer: &'a mut Tracer,
    pub pace: &'a mut Pace,
    pub budget: &'a Budget,
    /// Scales every repeat count: `--seconds` over the manifest's
    /// `run_seconds`, a tenth with `--quick`.
    pub effort: f64,
    pub out: Layers,
}

impl Cx<'_> {
    pub fn set(&mut self, name: &str, value: f64) {
        self.out.insert(name.to_string(), value);
    }

    pub fn reps(&self, n: usize) -> usize {
        ((n as f64 * self.effort).ceil() as usize).max(2)
    }

    /// Time `reps` calls of `f` after one discarded call, each in a span of
    /// its own under a span named `name`. Returns the median seconds per
    /// call, scaled to reference machine speed.
    pub fn probe<T>(&mut self, name: &str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
        let reps = self.reps(reps);
        let tracer = &mut *self.tracer;
        let (walls, timing) = self.pace.timed(|| {
            tracer
                .span(name, |t| {
                    black_box(f());
                    (0..reps)
                        .map(|_| t.span("call", |_| black_box(f())).1)
                        .collect::<Vec<f64>>()
                })
                .0
        });
        median(&walls) * timing.scale()
    }

    /// Like [`Cx::probe`] for calls that need a rank: on every rank of a
    /// fresh `nranks` world, `init` builds the rank's state and `step` runs
    /// `reps` times after one discarded call. Returns rank 0's median
    /// scaled seconds per call and the world's messages per call.
    pub fn probe_ranks<S>(
        &mut self,
        name: &str,
        nranks: usize,
        reps: usize,
        init: impl Fn(&Rank) -> S + Sync,
        step: impl Fn(&Rank, &mut S) + Sync,
    ) -> (f64, f64) {
        let reps = self.reps(reps);
        let kernel = &self.pace.kernel;
        let ((walls, msgs, before, after), _) = self.tracer.span(name, |_| {
            let world = World::new(nranks);
            let mut per_rank = world.run(|rank| {
                let mut state = init(rank);
                step(rank, &mut state);
                let kernel_before = kernel_in_turn(rank, kernel);
                let before = rank.stats().total_messages();
                let walls: Vec<f64> = (0..reps)
                    .map(|_| {
                        let t = Instant::now();
                        step(rank, &mut state);
                        t.elapsed().as_secs_f64()
                    })
                    .collect();
                rank.barrier();
                let msgs = rank.stats().total_messages() - before;
                (walls, msgs, kernel_before, kernel_in_turn(rank, kernel))
            });
            let (walls, msgs, before, after) = per_rank.swap_remove(0);
            (walls, msgs as f64 / reps as f64, before, after)
        });
        let timing = Timing::new(median(&walls), before, after);
        self.pace.note(&[before, after]);
        (timing.scaled_s, msgs)
    }
}

/// Probe every layer the coupled workloads execute. Each layer's
/// `*.s_per_sim_day` is its call cost times its calls per simulated day, so
/// the caller can close the layers against the measured wall.
pub fn sim_layers(cx: &mut Cx, w: &SimWorkload) {
    let c = &w.config;
    let (atm_per_day, ocn_per_day, ice_per_day) = c.couplings_per_day;
    let atm_period = 86_400.0 / atm_per_day as f64;
    let ocn_period = 86_400.0 / ocn_per_day as f64;
    let ice_period = 86_400.0 / ice_per_day as f64;
    let mask = MaskGenerator {
        seed: c.mask_seed,
        ..MaskGenerator::default()
    };

    // --- grid ---
    let s = cx.probe("grid.geodesic_build", 3, || GeodesicGrid::new(c.atm_glevel));
    cx.set("grid.geodesic_build_ms", s * 1e3);
    let s = cx.probe("grid.tripolar_build", 3, || {
        TripolarGrid::new(c.ocn_nlon, c.ocn_nlat, c.ocn_nlev, mask)
    });
    cx.set("grid.tripolar_build_ms", s * 1e3);
    let grid = Arc::new(GeodesicGrid::new(c.atm_glevel));
    let ocn_grid = TripolarGrid::new(c.ocn_nlon, c.ocn_nlat, c.ocn_nlev, mask);
    let (ncells, ncols) = (grid.ncells(), ocn_grid.ncols());
    let cell_levels = (ncells * c.atm_nlev) as f64;

    // --- atm: the state the driver starts from, then its own calls ---
    let dycore_config = fitted_atm_config(grid.mean_spacing_km(), atm_period);
    let s = cx.probe("atm.dycore_build", 3, || {
        Dycore::new(Arc::clone(&grid), dycore_config)
    });
    cx.set("atm.dycore_build_ms", s * 1e3);
    let dycore = Dycore::new(Arc::clone(&grid), dycore_config);
    let mut atm = AtmState::isothermal(Arc::clone(&grid), c.atm_nlev, 288.0);
    let perturb = w.options(0.0).perturb.expect("seeded perturbation");
    for k in 0..c.atm_nlev {
        for i in 0..ncells {
            atm.theta[k * ncells + i] += 15.0 * (grid.cells[i].lat().cos().powi(2) - 0.5);
        }
    }
    for (i, th) in atm.theta.iter_mut().enumerate() {
        *th += perturb.noise(i);
    }
    let mut forcing = SurfaceForcing::uniform(ncells, 288.0, 0.0, 1.0);
    for i in 0..ncells {
        let (phi, lam) = (grid.cells[i].lat(), grid.cells[i].lon());
        forcing.tskin[i] = 275.15 + 26.0 * phi.cos().powi(2);
        forcing.coszr[i] = (phi.cos() * lam.cos()).max(0.0); // noon at lon 0
    }
    let mut pdc =
        PhysicsDynamicsCoupler::new(PhysicsDriver::Conventional(ConventionalSuite::default()));
    // Dynamics and physics alternate as in the driver, so the state the
    // later repeats see has spun up the same way.
    let mut step_walls = Vec::new();
    let mut pdc_walls = Vec::new();
    let reps = cx.reps(8);
    let tracer = &mut *cx.tracer;
    let ((), timing) = cx.pace.timed(|| {
        tracer.span("atm.model_step+pdc_apply", |t| {
            for rep in 0..=reps {
                let a = t
                    .span("atm.model_step", |_| dycore.step_model_dynamics(&mut atm))
                    .1;
                let b = t
                    .span("atm.pdc_apply", |_| {
                        black_box(pdc.apply(&mut atm, &forcing, dycore_config.dt_model))
                    })
                    .1;
                if rep > 0 {
                    step_walls.push(a);
                    pdc_walls.push(b);
                }
            }
        });
    });
    let scale = timing.scale();
    let (model_step_s, pdc_apply_s) = (median(&step_walls) * scale, median(&pdc_walls) * scale);
    cx.set(
        "atm.model_step_ns_per_cell_level",
        model_step_s * 1e9 / cell_levels,
    );
    cx.set(
        "atm.pdc_apply_ns_per_cell_level",
        pdc_apply_s * 1e9 / cell_levels,
    );
    let mut mass_flux = vec![0.0; c.atm_nlev * grid.nedges()];
    let s = cx.probe("atm.dyn_substep", 32, || {
        dycore.step_dyn(&mut atm, dycore_config.dt_dyn, &mut mass_flux)
    });
    cx.set("atm.dyn_substep_ns_per_cell_level", s * 1e9 / cell_levels);
    for f in mass_flux.iter_mut() {
        *f /= dycore_config.dt_tracer;
    }
    let s = cx.probe("atm.tracer_substep", 16, || {
        dycore.step_tracer(&mut atm, &mass_flux)
    });
    cx.set(
        "atm.tracer_substep_ns_per_cell_level",
        s * 1e9 / cell_levels,
    );
    let atm_steps = 86_400.0 / dycore_config.dt_model;
    cx.set(
        "atm.s_per_sim_day",
        (model_step_s + pdc_apply_s) * atm_steps,
    );

    // --- physics: one mid-latitude column ---
    let nlev = c.atm_nlev;
    let sigma: Vec<f64> = atm.sigma.clone();
    let column = Column {
        u: vec![8.0; nlev],
        v: vec![-3.0; nlev],
        t: sigma.iter().map(|s| 288.0 * s.powf(0.19)).collect(),
        q: sigma.iter().map(|s| 0.012 * s.powi(3)).collect(),
        p: sigma.iter().map(|s| s * 1.0e5).collect(),
        dp: atm.dsigma.iter().map(|d| d * 1.0e5).collect(),
        dz: atm
            .dsigma
            .iter()
            .zip(&sigma)
            .map(|(d, s)| 8000.0 * d / s)
            .collect(),
    };
    let sfc = SurfaceProperties {
        tskin: 290.0,
        coszr: 0.5,
        wetness: 1.0,
    };
    let suite = ConventionalSuite::default();
    let s = cx.probe("physics.column", 4000, || suite.step_column(&column, &sfc));
    cx.set("physics.column_ns_per_level", s * 1e9 / nlev as f64);

    // --- ocn ---
    let ocn_config = fitted_ocn_config(c, ocn_period);
    let s = cx.probe("ocn.model_build", 3, || {
        OcnModel::new(&ocn_grid, ocn_config.clone(), 0)
    });
    cx.set("ocn.model_build_ms", s * 1e3);
    let decomp = BlockDecomp2d::new(c.ocn_nlon, c.ocn_nlat, 1, 1);
    let ocn_forcing = OcnForcing::climatology(&ocn_grid, &decomp, 0);
    let new_ocean = |_: &Rank| OcnModel::new(&ocn_grid, ocn_config.clone(), 0);
    let (step_s, halo_msgs) = cx.probe_ranks("ocn.step", 1, 64, new_ocean, |rank, ocn| {
        ocn.try_step(rank, &ocn_forcing).expect("ocean step")
    });
    cx.set(
        "ocn.step_ns_per_point",
        step_s * 1e9 / (ncols * c.ocn_nlev) as f64,
    );
    cx.set("ocn.halo_msgs_per_step", halo_msgs);
    let allocs = World::new(1).run(|rank| {
        let mut ocn = new_ocean(rank);
        ocn.try_step(rank, &ocn_forcing).expect("ocean step");
        COUNTER
            .during(|| ocn.try_step(rank, &ocn_forcing).expect("ocean step"))
            .1
    });
    cx.set("ocn.step_allocs", allocs[0] as f64);
    let ocn_steps = 86_400.0 / ocn_config.dt_baroclinic;
    cx.set("ocn.s_per_sim_day", step_s * ocn_steps);

    // --- ice, lnd ---
    let mut ice = IceModel::new(&ocn_grid, &decomp, 0);
    let ice_forcing = IceForcing::uniform(ncols, -5.0, 1.0);
    let s = cx.probe("ice.step", 40, || ice.step(&ice_forcing, ice_period));
    cx.set("ice.step_ns_per_col", s * 1e9 / ncols as f64);
    cx.set("ice.s_per_sim_day", s * ice_per_day as f64);
    let (land, _) = mask.land_mask(&grid.cells, 0.29);
    let mut lnd = LndModel::new(land, 285.0);
    let lnd_forcing = LndForcing {
        gsw: vec![180.0; ncells],
        glw: vec![330.0; ncells],
        tair: vec![286.0; ncells],
        precip: vec![2.0e-5; ncells],
        wind: vec![5.0; ncells],
    };
    let s = cx.probe("lnd.step", 200, || lnd.step(&lnd_forcing, atm_period));
    cx.set("lnd.step_ns_per_cell", s * 1e9 / ncells as f64);
    cx.set("lnd.s_per_sim_day", s * atm_per_day as f64);

    // --- cpl ---
    let ocn_points: Vec<Vec3> = (0..c.ocn_nlat)
        .flat_map(|j| (0..c.ocn_nlon).map(move |i| (i, j)))
        .map(|(i, j)| Vec3::from_lat_lon(ocn_grid.lat[j], ocn_grid.lon[i]))
        .collect();
    let s = cx.probe("cpl.remap_build", 2, || {
        (
            RemapMatrix::inverse_distance(&grid.cells, &ocn_points, 3),
            RemapMatrix::inverse_distance(&ocn_points, &grid.cells, 3),
        )
    });
    cx.set("cpl.remap_build_ms", s * 1e3);
    let atm_to_ocn = RemapMatrix::inverse_distance(&grid.cells, &ocn_points, 3);
    let ocn_to_atm = RemapMatrix::inverse_distance(&ocn_points, &grid.cells, 3);
    let atm_field: Vec<f64> = (0..ncells).map(|i| (i as f64 * 0.01).sin()).collect();
    let ocn_field: Vec<f64> = (0..ncols).map(|i| (i as f64 * 0.01).cos()).collect();
    let to_ocn_s = cx.probe("cpl.remap_apply", 200, || atm_to_ocn.apply(&atm_field));
    cx.set("cpl.remap_apply_ns_per_dst", to_ocn_s * 1e9 / ncols as f64);
    let to_atm_s = cx.probe("cpl.remap_apply.to_atm", 200, || {
        ocn_to_atm.apply(&ocn_field)
    });

    let nranks = c.world_size();
    let maps = || {
        let ocn_map = if c.single_domain {
            GSMap::all_on_rank(ncols, nranks, 0)
        } else {
            GSMap::from_block2d(&decomp, nranks, 1)
        };
        (GSMap::all_on_rank(ncols, nranks, 0), ocn_map)
    };
    let (root_map, ocn_map) = maps();
    let s = cx.probe("cpl.router_build", 20, || {
        (
            Router::build(&root_map, &ocn_map),
            Router::build(&ocn_map, &root_map),
        )
    });
    cx.set("cpl.router_build_us", s * 1e6);
    let scatter = Rearranger::new(Router::build(&root_map, &ocn_map), 21);
    let gather = Rearranger::new(Router::build(&ocn_map, &root_map), 22);
    let mut roundtrip = [0.0; 2];
    for (slot, (label, strategy)) in [
        ("p2p", RearrangeStrategy::NonBlockingP2p),
        ("a2a", RearrangeStrategy::AllToAll),
    ]
    .into_iter()
    .enumerate()
    {
        // The coupling's wire pattern: 4 fields out, 3 fields back.
        let name = format!("cpl.rearrange_roundtrip.{label}");
        let (s, _) = cx.probe_ranks(
            &name,
            nranks,
            60,
            |_| (),
            |rank, ()| {
                let me = rank.id();
                let (src, dst) = (root_map.local_size(me), ocn_map.local_size(me));
                for _ in 0..4 {
                    black_box(scatter.try_rearrange(rank, strategy, &ocn_field[..src], dst))
                        .expect("scatter");
                }
                for _ in 0..3 {
                    black_box(gather.try_rearrange(rank, strategy, &ocn_field[..dst], src))
                        .expect("gather");
                }
            },
        );
        cx.set(&format!("cpl.rearrange_roundtrip_us.{label}"), s * 1e6);
        roundtrip[slot] = s;
    }
    // Remap applies per coupling in the driver: 4 onto the ocean grid and 1
    // back per ocean coupling, 2 back per atmosphere coupling, 3 onto the
    // ocean grid per ice coupling.
    let cpl_s = ocn_per_day as f64 * (4.0 * to_ocn_s + to_atm_s + roundtrip[0])
        + atm_per_day as f64 * 2.0 * to_atm_s
        + ice_per_day as f64 * 3.0 * to_ocn_s;
    cx.set("cpl.s_per_sim_day", cpl_s);

    // --- comm: two ranks, a field of ocean-surface size ---
    let s = cx.probe("comm.world_spawn", 30, || {
        World::new(nranks).run(|rank| rank.id())
    });
    cx.set("comm.world_spawn_us", s * 1e6);
    let payload: Vec<f64> = ocn_field.clone();
    let (s, _) = cx.probe_ranks(
        "comm.p2p_roundtrip",
        2,
        300,
        |_| (),
        |rank, ()| {
            if rank.id() == 0 {
                rank.send(1, 900, payload.clone());
                black_box(rank.recv::<f64>(1, 901).expect("pong"));
            } else {
                let ping = rank.recv::<f64>(0, 900).expect("ping");
                rank.send(0, 901, ping);
            }
        },
    );
    cx.set("comm.p2p_roundtrip_us", s * 1e6);
    let (s, _) = cx.probe_ranks(
        "comm.allreduce",
        2,
        300,
        |_| (),
        |rank, ()| {
            black_box(collectives::allreduce_sum(rank, 902, rank.id() as f64).expect("allreduce"));
        },
    );
    cx.set("comm.allreduce_us", s * 1e6);
    let (s, _) = cx.probe_ranks(
        "comm.halo_exchange",
        2,
        300,
        |rank| {
            let halo = HaloExchange::new(ring_spec(rank.id(), 2, ncols), 903);
            (halo, vec![rank.id() as f64; ncols + 2])
        },
        |rank, (halo, field)| {
            black_box(halo.exchange(rank, field).expect("halo"));
        },
    );
    cx.set("comm.halo_exchange_us", s * 1e6);

    // --- pp: an axpy over one atmosphere field ---
    pp_layers(cx, ncells * c.atm_nlev);
}

/// `pp`: an axpy body over `n` items through the serial and the threaded
/// execution space.
pub fn pp_layers(cx: &mut Cx, n: usize) {
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 1e-3).sin()).collect();
    let mut y = vec![0.0f64; n];
    let threads = Threads::new(crate::nproc().min(2));
    for (label, space) in [("serial", &Serial as &dyn ExecSpace), ("threads", &threads)] {
        let s = cx.probe(&format!("pp.for_each.{label}"), 400, || {
            let out = SharedSlice::new(&mut y);
            // SAFETY: each index is written by exactly one iteration.
            space.for_each(n, &|i| unsafe { out.set(i, *out.get(i) + 1.0001 * x[i]) });
        });
        cx.set(
            &format!("pp.for_each_ns_per_item.{label}"),
            s * 1e9 / n as f64,
        );
    }
}
