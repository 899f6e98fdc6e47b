//! The coupler: the clock, the attribute vectors, the remaps, the two
//! rearrangers, and whichever components this rank holds.
//!
//! Every configuration is the same type with components absent (the
//! `OceanSeaIceModel(ocean; atmosphere)` idiom): world rank 0 of the
//! two-domain layout holds atm + ice + lnd, an ocean rank holds only ocn,
//! the sequential layout holds all four on one rank, and a standalone
//! subset holds one. [`Coupler::step`] is the only stepping path. An
//! import vector is merged by the coupler when this rank holds the whole
//! surface exchange (atm + ice + lnd); otherwise it keeps what the caller
//! prescribed, which is how a subset model gets its boundary data.
//!
//! The ocean's export is consumed one ocean coupling late: posted at the end
//! of coupling *k*, received and published at the start of coupling *k + 1*,
//! so ranks that hold only the ocean run beside the next interval's
//! atmosphere (§5.1.2). After the last step [`Coupler::finish`] drains the
//! export still in flight.

use std::path::Path;
use std::sync::Arc;

use ap3esm_comm::{CommError, Rank};
use ap3esm_cpl::avect::{
    A2X_FIELDS, I2X_FIELDS, L2X_FIELDS, O2X_FIELDS, X2A_FIELDS, X2I_FIELDS, X2L_FIELDS, X2O_FIELDS,
};
use ap3esm_cpl::clock::{CouplingClock, CouplingEvent};
use ap3esm_cpl::fluxes::{blended_surface_temperature, merge_ocean_forcing};
use ap3esm_cpl::{AttrVect, GSMap, RearrangeStrategy, Rearranger, RemapMatrix, Router};
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::sphere::Vec3;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_grid::GeodesicGrid;
use ap3esm_io::IoError;
use ap3esm_physics::constants::STEFAN_BOLTZMANN;
use ap3esm_physics::surface::{bulk_fluxes, BulkCoefficients};

use crate::component::{fitted_ocn_config, rank_team, Atm, Component, Ice, Lnd, Ocn};
use crate::config::CoupledConfig;
use crate::coupled::{CoupledOptions, CoupledStats};
use crate::resilience::HealthVerdict;
use crate::restart::{read_aux, write_aux};

/// The spans [`Coupler::step`] and the ocean exchange open at the root of a
/// rank's tree; time under them is what the telemetry counts as busy.
const DRIVER_SECTIONS: [&str; 5] = ["atm_run", "lnd_run", "ice_run", "cpl_rearrange", "ocn_run"];

/// Cumulative seconds under the driver sections: set-up (`router_build`)
/// and sub-file I/O roots stay out of `sim.imbalance`.
fn driver_busy(profiler: &ap3esm_obs::Profiler) -> f64 {
    let mut busy = 0.0;
    profiler.for_each_root(|name, secs| {
        if DRIVER_SECTIONS.contains(&name) {
            busy += secs;
        }
    });
    busy
}

/// [`driver_busy`] of the calling rank's installed profiler; zero where no
/// `Obs` is installed.
fn rank_busy() -> f64 {
    ap3esm_obs::active().map_or(0.0, |obs| driver_busy(&obs.profiler))
}

/// Which components a coupler holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Parts {
    pub atm: bool,
    pub ocn: bool,
    pub ice: bool,
    pub lnd: bool,
}

impl Parts {
    /// What `rank` holds in the coupled model (§5.1.2, §7.2): rank 0 is
    /// the coupler with atmosphere, sea ice and land; the ocean sits on
    /// the other ranks, or with them on rank 0 in the sequential layout.
    pub fn of_rank(rank: &Rank, config: &CoupledConfig) -> Parts {
        let root = rank.id() == 0;
        Parts {
            atm: root,
            ice: root,
            lnd: root,
            ocn: !root || config.single_domain,
        }
    }
}

/// What one [`Coupler::step`] did.
#[derive(Debug, Clone)]
pub struct Stepped {
    /// Which alarms rang.
    pub event: CouplingEvent,
    /// The first communication failure of the step. The step still issues
    /// every remaining call, so the ranks' message streams stay aligned;
    /// the recovery layer turns this into a rollback.
    pub comm_fault: Option<String>,
}

/// Where the ocean's latest export is on its way from `o2x_ocn` to `o2x`.
/// Every rank of a world goes through the same states at the same points of
/// the program, whatever the messages' arrival times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Export {
    /// In `o2x` (or there has been no ocean coupling yet).
    Published,
    /// Posted on the gather tag, not yet received.
    InFlight,
    /// Received into `o2x_next`, not yet published.
    Staged,
}

/// The surface exchange between the atmosphere grid and the ocean grid:
/// present when this rank holds atm + ice + lnd, and then every import
/// vector is merged from the other components' exports. Owns the merges'
/// scratch, so a coupling allocates nothing.
struct Surface {
    grid: Arc<GeodesicGrid>,
    /// Which atmosphere cells are land.
    land: Vec<bool>,
    atm_to_ocn: RemapMatrix,
    ocn_to_atm: RemapMatrix,
    bulk: BulkCoefficients,
    /// The published SST (°C) on atmosphere cells, remapped once per
    /// publication by [`Surface::remap_sst`].
    sst_on_atm: Vec<f64>,
    ice_on_atm: Vec<f64>,
    /// Lowest-level air temperature (°C) on atmosphere cells.
    tair_c: Vec<f64>,
    /// Bulk air–sea fluxes on atmosphere cells, in `X2O_FIELDS` order:
    /// stress east and north, net heat, evaporation − precipitation (m/s).
    flux: [Vec<f64>; 4],
}

impl Surface {
    fn new(grid: Arc<GeodesicGrid>, ocn_grid: &TripolarGrid, land: Vec<bool>) -> Self {
        let ocn_points: Vec<Vec3> = (0..ocn_grid.nlat)
            .flat_map(|j| (0..ocn_grid.nlon).map(move |i| (i, j)))
            .map(|(i, j)| Vec3::from_lat_lon(ocn_grid.lat[j], ocn_grid.lon[i]))
            .collect();
        let cells = vec![0.0; grid.ncells()];
        Surface {
            atm_to_ocn: RemapMatrix::inverse_distance(&grid.cells, &ocn_points, 3),
            ocn_to_atm: RemapMatrix::inverse_distance(&ocn_points, &grid.cells, 3),
            grid,
            land,
            bulk: BulkCoefficients::default(),
            sst_on_atm: cells.clone(),
            ice_on_atm: cells.clone(),
            tair_c: cells.clone(),
            flux: std::array::from_fn(|_| cells.clone()),
        }
    }

    /// Bring a newly published ocean export's SST onto atmosphere cells.
    fn remap_sst(&mut self, o2x: &AttrVect, ocn_valid: &[bool]) {
        let sst = o2x.get("sst");
        self.ocn_to_atm
            .apply_masked_into(sst, ocn_valid, 15.0, &mut self.sst_on_atm);
    }

    /// The atmosphere's lower boundary: land skin over land, SST blended
    /// with ice elsewhere, and the zenith angle at the clock's time.
    fn merge_x2a(
        &mut self,
        clock: &CouplingClock,
        i2x: &AttrVect,
        l2x: &AttrVect,
        x2a: &mut AttrVect,
    ) {
        let day_of_year = 202.0 + clock.days(); // late July (Doksuri)
        let seconds_utc = (clock.time % 86_400) as f64;
        self.ocn_to_atm
            .apply_into(i2x.get("icefrac"), &mut self.ice_on_atm);
        for (coszr, cell) in x2a.get_mut("coszr").iter_mut().zip(&self.grid.cells) {
            *coszr = crate::solar::cos_zenith(cell.lat(), cell.lon(), day_of_year, seconds_utc);
        }
        let land_tskin = l2x.get("tskin");
        for (i, tskin) in x2a.get_mut("tskin").iter_mut().enumerate() {
            *tskin = if self.land[i] {
                land_tskin[i]
            } else {
                blended_surface_temperature(self.sst_on_atm[i], -5.0, self.ice_on_atm[i])
            };
        }
        let land_wetness = l2x.get("wetness");
        for (i, wetness) in x2a.get_mut("wetness").iter_mut().enumerate() {
            *wetness = if self.land[i] { land_wetness[i] } else { 1.0 };
        }
    }

    /// Land forcing from the atmosphere's surface fields.
    fn merge_x2l(&self, a2x: &AttrVect, x2l: &mut AttrVect) {
        for name in ["gsw", "glw", "precip"] {
            x2l.set(name, a2x.get(name));
        }
        x2l.set("tair", a2x.get("tbot"));
        let winds = a2x.get("u").iter().zip(a2x.get("v"));
        for (speed, (u, v)) in x2l.get_mut("wind").iter_mut().zip(winds) {
            *speed = (u * u + v * v).sqrt();
        }
    }

    /// Ice forcing: atmosphere fields remapped to the ocean grid, plus the
    /// ocean's surface state.
    fn merge_x2i(&mut self, a2x: &AttrVect, o2x: &AttrVect, x2i: &mut AttrVect) {
        for (c, k) in self.tair_c.iter_mut().zip(a2x.get("tbot")) {
            *c = k - 273.15;
        }
        self.atm_to_ocn
            .apply_into(&self.tair_c, x2i.get_mut("tair"));
        self.atm_to_ocn
            .apply_into(a2x.get("u"), x2i.get_mut("uwind"));
        self.atm_to_ocn
            .apply_into(a2x.get("v"), x2i.get_mut("vwind"));
        x2i.set("sst", o2x.get("sst"));
        x2i.set("uocn", o2x.get("ssu"));
        x2i.set("vocn", o2x.get("ssv"));
    }

    /// Ocean forcing: bulk air–sea fluxes on atmosphere cells over the
    /// published SST, remapped to the ocean grid, merged with the ice
    /// exports.
    fn merge_x2o(&mut self, a2x: &AttrVect, i2x: &AttrVect, x2o: &mut AttrVect) {
        const OCN_ALBEDO: f64 = 0.07;
        const EMISSIVITY: f64 = 0.97;
        let (u, v, tbot, qbot) = (a2x.get("u"), a2x.get("v"), a2x.get("tbot"), a2x.get("qbot"));
        let (ps, gsw, glw) = (a2x.get("ps"), a2x.get("gsw"), a2x.get("glw"));
        let [taux, tauy, qnet, emp] = &mut self.flux;
        for i in 0..a2x.npoints() {
            let ts_k = self.sst_on_atm[i] + 273.15;
            let fx = bulk_fluxes(&self.bulk, u[i], v[i], tbot[i], qbot[i], ps[i], ts_k, 1.0);
            taux[i] = fx.taux;
            tauy[i] = fx.tauy;
            qnet[i] = gsw[i] * (1.0 - OCN_ALBEDO)
                + EMISSIVITY * (glw[i] - STEFAN_BOLTZMANN * ts_k.powi(4))
                - fx.sensible
                - fx.latent;
            emp[i] = fx.evaporation / 1000.0; // kg/m²/s → m/s
        }
        debug_assert_eq!(x2o.field_names(), X2O_FIELDS);
        for (flux, (_, on_ocn)) in self.flux.iter().zip(x2o.fields_mut()) {
            self.atm_to_ocn.apply_into(flux, on_ocn);
        }
        let (frac, heat, fresh) = (i2x.get("icefrac"), i2x.get("iceheat"), i2x.get("icefresh"));
        let mut fields = x2o.fields_mut().map(|(_, data)| data);
        let [taux, tauy, qnet, salt] = std::array::from_fn(|_| fields.next().expect("X2O_FIELDS"));
        for c in 0..frac.len() {
            let merged = merge_ocean_forcing(
                taux[c], tauy[c], qnet[c], salt[c], frac[c], heat[c], fresh[c],
            );
            taux[c] = merged.taux;
            tauy[c] = merged.tauy;
            qnet[c] = merged.qnet;
            salt[c] = merged.salt_flux;
        }
    }
}

/// The ocean block decomposition of one world generation: the configured
/// mesh at generation 0, a shrink-to-fit re-decomposition over whatever
/// ocean ranks survive afterwards.
fn generation_ocn_decomp(config: &CoupledConfig, rank: &Rank) -> BlockDecomp2d {
    if rank.generation() == 0 {
        BlockDecomp2d::new(
            config.ocn_nlon,
            config.ocn_nlat,
            config.ocn_px,
            config.ocn_py,
        )
    } else {
        BlockDecomp2d::auto(config.ocn_nlon, config.ocn_nlat, rank.size() - 1)
    }
}

/// `import → run → export` of one component.
fn cycle<C: Component>(
    c: &mut C,
    rank: &Rank,
    seconds: f64,
    import: &AttrVect,
    export: &mut AttrVect,
    fault: &mut Option<String>,
) {
    c.import(import);
    note(fault, c.run(rank, seconds));
    c.export(export);
}

/// Keep the first communication failure of a step.
fn note<T>(fault: &mut Option<String>, result: Result<T, CommError>) -> Option<T> {
    match result {
        Ok(v) => Some(v),
        Err(e) => {
            fault.get_or_insert_with(|| e.to_string());
            None
        }
    }
}

/// One coupler instance per rank per world generation.
pub struct Coupler<A = Atm, O = Ocn, I = Ice, L = Lnd> {
    pub clock: CouplingClock,
    pub atm: Option<A>,
    pub ocn: Option<O>,
    pub ice: Option<I>,
    pub lnd: Option<L>,
    /// Import (`x2c`) and export (`c2x`) bundles on the atmosphere's cells
    /// (empty on a rank without the atmosphere grid).
    pub x2a: AttrVect,
    pub a2x: AttrVect,
    pub x2l: AttrVect,
    pub l2x: AttrVect,
    /// Bundles on the coupler's copy of the global ocean grid (all columns
    /// on rank 0, none elsewhere).
    pub x2i: AttrVect,
    pub i2x: AttrVect,
    pub x2o: AttrVect,
    pub o2x: AttrVect,
    /// The ocean's side of the exchange: this rank's block of columns.
    pub x2o_ocn: AttrVect,
    pub o2x_ocn: AttrVect,
    /// The ocean's latest export, staged on the coupler's rank until the
    /// next ocean coupling publishes it as `o2x`.
    o2x_next: AttrVect,
    export: Export,
    surface: Option<Surface>,
    /// Ocean columns (kmt > 0) of the global grid.
    ocn_valid: Vec<bool>,
    scatter: Rearranger,
    gather: Rearranger,
    /// The scalars behind this rank's last posted export: the ocean's
    /// kinetic energy, then one slot per rank for its busy seconds between
    /// its previous post and this one, only this rank's own filled in — so
    /// the rank-ordered sum hands the root every rank's value exactly.
    tail: Vec<f64>,
    /// The root's copy of the tail the last received export carried, and
    /// whether the driver has yet to read its busy seconds.
    received: Vec<f64>,
    fresh: bool,
    /// This rank's [`driver_busy`] at its last post.
    busy_posted: f64,
    strategy: RearrangeStrategy,
    /// This generation's ocean decomposition (a shrink redistributes the
    /// last checkpoint from it).
    pub ocn_decomp: BlockDecomp2d,
    /// Physical rank 0 chairs the membership vote, so a shrink can never
    /// evict it: root-ness is stable across generations.
    is_root: bool,
    /// Where the vortex tracker last found the storm.
    prev_track: Option<(f64, f64)>,
}

impl Coupler {
    /// Cold-start the components in `parts` and couple them.
    pub fn build(
        rank: &Rank,
        config: &CoupledConfig,
        opts: &CoupledOptions,
        ocn_grid: &TripolarGrid,
        parts: Parts,
    ) -> Self {
        let clock = config.clock();
        let grid = parts
            .atm
            .then(|| Arc::new(GeodesicGrid::new(config.atm_glevel)));
        // One team for the rank — its atmosphere and its ocean take turns —
        // made for the first of them the rank holds.
        let mut team = None;
        let mut team = move || Arc::clone(team.get_or_insert_with(rank_team));
        let atm = grid.as_ref().map(|g| {
            let period = clock.atm_alarm.period as f64;
            Atm::new(Arc::clone(g), config, opts, period).on(team())
        });
        // Land on atmosphere cells, same synthetic continents.
        let land = grid
            .as_ref()
            .filter(|_| parts.lnd)
            .map(|g| config.mask().land_mask(&g.cells, 0.29).0);
        let lnd = land.clone().map(Lnd::new);
        let ice = parts.ice.then(|| Ice::new(ocn_grid));
        let ocn = parts.ocn.then(|| {
            let decomp = generation_ocn_decomp(config, rank);
            let mut c = fitted_ocn_config(config, clock.ocn_alarm.period as f64);
            c.px = decomp.px;
            c.py = decomp.py;
            // World rank = offset + ocean rank: the ocean domain starts at
            // world rank 1 unless everything runs on rank 0.
            c.rank_offset = usize::from(!config.single_domain);
            let ocn_rank = rank.id() - c.rank_offset;
            Ocn::new(ocn_grid, c, ocn_rank).on(team())
        });
        let surface = match (&grid, land, &ice) {
            (Some(g), Some(land), Some(_)) => Some(Surface::new(Arc::clone(g), ocn_grid, land)),
            _ => None,
        };
        let atm_cells = grid.map_or(0, |g| g.ncells());
        let mut cpl = Coupler::assemble(rank, config, ocn_grid, atm_cells, (atm, ocn, ice, lnd));
        ap3esm_obs::gauge_set("rank.lanes", cpl.lanes() as f64);
        cpl.surface = surface;
        // The coupler's initial SST boundary state: the ocean's analytic
        // cold start, plus the options' anomaly pattern.
        for (c, sst) in cpl.o2x.get_mut("sst").iter_mut().enumerate() {
            let phi = ocn_grid.lat[c / ocn_grid.nlon];
            let lam = ocn_grid.lon[c % ocn_grid.nlon];
            *sst = 2.0
                + 26.0 * phi.cos().powi(2)
                + opts.sst_pattern.map_or(0.0, |p| p.anomaly(phi, lam));
        }
        if let Some(sfc) = &mut cpl.surface {
            sfc.remap_sst(&cpl.o2x, &cpl.ocn_valid);
        }
        cpl
    }

    /// Lanes of this rank's team: what its atmosphere and its ocean step on
    /// (1 on a rank that holds neither).
    pub fn lanes(&self) -> usize {
        let atm = self.atm.as_ref().map(Atm::lanes);
        atm.or(self.ocn.as_ref().map(Ocn::lanes)).unwrap_or(1)
    }
}

impl<A: Component, O: Component, I: Component, L: Component> Coupler<A, O, I, L> {
    /// Couple already-built components over `rank`'s world; each present
    /// component's exports seed its export vector. No surface exchange:
    /// import vectors keep what the caller prescribes.
    pub fn assemble(
        rank: &Rank,
        config: &CoupledConfig,
        ocn_grid: &TripolarGrid,
        atm_cells: usize,
        (atm, ocn, ice, lnd): (Option<A>, Option<O>, Option<I>, Option<L>),
    ) -> Self {
        let (me, world) = (rank.id(), rank.size());
        let ncols = ocn_grid.ncols();
        let ocn_decomp = generation_ocn_decomp(config, rank);
        let ocn_map = if config.single_domain {
            GSMap::all_on_rank(ncols, world, 0)
        } else {
            GSMap::from_block2d(&ocn_decomp, world, 1)
        };
        let root_map = GSMap::all_on_rank(ncols, world, 0);
        let (cpl_cols, ocn_cols) = (root_map.local_size(me), ocn_map.local_size(me));
        let mut cpl = Coupler {
            clock: config.clock(),
            x2a: AttrVect::new(atm_cells, X2A_FIELDS),
            a2x: AttrVect::new(atm_cells, A2X_FIELDS),
            x2l: AttrVect::new(atm_cells, X2L_FIELDS),
            l2x: AttrVect::new(atm_cells, L2X_FIELDS),
            x2i: AttrVect::new(cpl_cols, X2I_FIELDS),
            i2x: AttrVect::new(cpl_cols, I2X_FIELDS),
            x2o: AttrVect::new(cpl_cols, X2O_FIELDS),
            o2x: AttrVect::new(cpl_cols, O2X_FIELDS),
            x2o_ocn: AttrVect::new(ocn_cols, X2O_FIELDS),
            o2x_ocn: AttrVect::new(ocn_cols, O2X_FIELDS),
            o2x_next: AttrVect::new(cpl_cols, O2X_FIELDS),
            export: Export::Published,
            surface: None,
            ocn_valid: (0..ncols).map(|c| ocn_grid.kmt[c] > 0).collect(),
            scatter: Rearranger::new(Router::build(&root_map, &ocn_map), 21),
            gather: Rearranger::new(Router::build(&ocn_map, &root_map), 22),
            tail: vec![0.0; 1 + world],
            received: vec![0.0; 1 + world],
            fresh: false,
            busy_posted: rank_busy(),
            strategy: config.strategy,
            ocn_decomp,
            is_root: me == 0,
            prev_track: None,
            atm,
            ocn,
            ice,
            lnd,
        };
        if let Some(c) = &cpl.atm {
            c.export(&mut cpl.a2x);
        }
        if let Some(c) = &cpl.lnd {
            c.export(&mut cpl.l2x);
        }
        if let Some(c) = &cpl.ice {
            c.export(&mut cpl.i2x);
        }
        if let Some(c) = &cpl.ocn {
            c.export(&mut cpl.o2x_ocn);
        }
        cpl
    }

    /// Advance the clock one base step and run every coupling whose alarm
    /// rings, in the fixed order atm → lnd → ice → ocean exchange.
    pub fn step(&mut self, rank: &Rank, stats: &mut CoupledStats) -> Stepped {
        let event = self.clock.advance();
        let mut fault = None;
        let atm_period = self.clock.atm_alarm.period as f64;
        if let Some(atm) = self.atm.as_mut().filter(|_| event.atm) {
            let _section = ap3esm_obs::span("atm_run");
            if let Some(sfc) = &mut self.surface {
                sfc.merge_x2a(&self.clock, &self.i2x, &self.l2x, &mut self.x2a);
            }
            cycle(atm, rank, atm_period, &self.x2a, &mut self.a2x, &mut fault);
            stats.theta_series.push(atm.diagnostic());
            if let Some(p) = atm.track(self.prev_track) {
                self.prev_track = Some((p.lat_deg, p.lon_deg));
                stats.track.push(p);
            }
        }
        // The land step from the atmosphere's new surface fields, timed as
        // its own top-level section so the critical-path analyzer and the
        // per-section trajectory see the land model's share separately
        // from the dycore's.
        if let Some(lnd) = self.lnd.as_mut().filter(|_| event.atm) {
            let _section = ap3esm_obs::span("lnd_run");
            if let Some(sfc) = &self.surface {
                sfc.merge_x2l(&self.a2x, &mut self.x2l);
            }
            cycle(lnd, rank, atm_period, &self.x2l, &mut self.l2x, &mut fault);
        }
        if let Some(ice) = self.ice.as_mut().filter(|_| event.ice) {
            let _section = ap3esm_obs::span("ice_run");
            if let Some(sfc) = &mut self.surface {
                sfc.merge_x2i(&self.a2x, &self.o2x, &mut self.x2i);
            }
            let period = self.clock.ice_alarm.period as f64;
            cycle(ice, rank, period, &self.x2i, &mut self.i2x, &mut fault);
            stats.ice_series.push(ice.diagnostic());
        }
        if event.ocn {
            self.ocean_exchange(rank, stats, &mut fault);
        }
        Stepped {
            event,
            comm_fault: fault,
        }
    }

    /// The ocean exchange of coupling *k*, one sequence on every rank:
    /// receive the export the ocean posted at coupling *k − 1* (the ocean
    /// series get their entry *k − 1* here, and it is the only place the
    /// coupler's rank can wait for the ocean), publish it, merge
    /// and post the forcing, and where the ocean is, receive the forcing,
    /// run, and post the new export without waiting for anyone to take it.
    /// So between two ocean couplings the other components see the export
    /// of the coupling before the last one — in every layout, which is
    /// what keeps the layouts bitwise equal while the two-domain one
    /// overlaps the ocean with the next interval's atmosphere.
    ///
    /// Rank 0 times it as `cpl_rearrange` until its own ocean (if any)
    /// takes over as `ocn_run`; an ocean rank times all of it, its wait for
    /// the forcing included, as `ocn_run`.
    fn ocean_exchange(
        &mut self,
        rank: &Rank,
        stats: &mut CoupledStats,
        fault: &mut Option<String>,
    ) {
        let mut section = ap3esm_obs::span(self.exchange_section());
        note(fault, self.receive_export(rank, stats));
        self.publish();
        if let Some(sfc) = &mut self.surface {
            sfc.merge_x2o(&self.a2x, &self.i2x, &mut self.x2o);
        }
        let strategy = self.strategy;
        self.scatter.post(rank, strategy, &self.x2o, &[]);
        let forcing = &mut self.x2o_ocn;
        note(
            fault,
            self.scatter.complete(rank, strategy, forcing, &mut []),
        );
        self.tail.fill(0.0);
        if let Some(ocn) = self.ocn.as_mut() {
            if self.is_root {
                // Closed first: a span opened now would nest under it.
                drop(section);
                section = ap3esm_obs::span("ocn_run");
            }
            let period = self.clock.ocn_alarm.period as f64;
            cycle(ocn, rank, period, &self.x2o_ocn, &mut self.o2x_ocn, fault);
            self.tail[0] = ocn.diagnostic();
        }
        // The section still open counts up to now, so the slot covers the
        // wall between this rank's two posts.
        let busy = rank_busy() + section.elapsed_s();
        self.tail[1 + rank.id()] = busy - self.busy_posted;
        self.busy_posted = busy;
        self.gather.post(rank, strategy, &self.o2x_ocn, &self.tail);
        self.export = Export::InFlight;
        drop(section);
    }

    /// The section this rank's side of the exchange is timed under.
    fn exchange_section(&self) -> &'static str {
        if self.is_root {
            "cpl_rearrange"
        } else {
            "ocn_run"
        }
    }

    /// Receive the export in flight, if any, into the staging vector, and
    /// give the ocean series their entry for it; the kinetic energies and
    /// busy seconds riding on it are summed in rank order.
    fn receive_export(&mut self, rank: &Rank, stats: &mut CoupledStats) -> Result<(), CommError> {
        if self.export != Export::InFlight {
            return Ok(());
        }
        self.export = Export::Staged;
        let received =
            self.gather
                .complete(rank, self.strategy, &mut self.o2x_next, &mut self.received);
        if self.is_root {
            // The two-domain root sends itself nothing: its own busy
            // seconds are the ones it posted.
            self.received[1] = self.tail[1];
            if received.is_err() {
                self.received.fill(f64::NAN);
            }
            self.fresh = true;
            let (mut sum, mut cnt) = (0.0f64, 0.0f64);
            for (sst, _) in self
                .o2x_next
                .get("sst")
                .iter()
                .zip(&self.ocn_valid)
                .filter(|(_, v)| **v)
            {
                sum += sst;
                cnt += 1.0;
            }
            stats.sst_series.push(sum / cnt.max(1.0));
            stats.ke_series.push(self.received[0]);
        }
        received
    }

    /// Root only: every rank's busy seconds (`NaN` after a failed receive)
    /// from the export received since the last call, each export once;
    /// `None` when none arrived since.
    pub(crate) fn take_busy(&mut self) -> Option<&[f64]> {
        std::mem::take(&mut self.fresh).then_some(&self.received[1..])
    }

    /// Make the staged export the one every merge sees.
    fn publish(&mut self) {
        if self.export != Export::Staged {
            return;
        }
        self.export = Export::Published;
        std::mem::swap(&mut self.o2x, &mut self.o2x_next);
        if let Some(sfc) = &mut self.surface {
            sfc.remap_sst(&self.o2x, &self.ocn_valid);
        }
    }

    /// Receive the export in flight without publishing it, so that a lost
    /// export is noticed (and a checkpoint is complete) at the coupling
    /// that posted it. The recovery layer calls this before its health
    /// vote; returns the communication failure, if any.
    pub fn settle(&mut self, rank: &Rank, stats: &mut CoupledStats) -> Option<String> {
        let _section = ap3esm_obs::span(self.exchange_section());
        let received = self.receive_export(rank, stats);
        received.err().map(|e| e.to_string())
    }

    /// Drain the last coupling's export after the stepping loop, so the
    /// ocean series get their final entry. Call once per run; a second call
    /// does nothing. Returns the communication failure, if any.
    pub fn finish(&mut self, rank: &Rank, stats: &mut CoupledStats) -> Option<String> {
        let fault = self.settle(rank, stats);
        self.publish();
        fault
    }

    /// The components this rank holds.
    fn components(&self) -> impl Iterator<Item = &dyn Component> {
        [
            self.atm.as_ref().map(|c| c as &dyn Component),
            self.lnd.as_ref().map(|c| c as &dyn Component),
            self.ice.as_ref().map(|c| c as &dyn Component),
            self.ocn.as_ref().map(|c| c as &dyn Component),
        ]
        .into_iter()
        .flatten()
    }

    fn components_mut(&mut self) -> impl Iterator<Item = &mut dyn Component> {
        [
            self.atm.as_mut().map(|c| c as &mut dyn Component),
            self.lnd.as_mut().map(|c| c as &mut dyn Component),
            self.ice.as_mut().map(|c| c as &mut dyn Component),
            self.ocn.as_mut().map(|c| c as &mut dyn Component),
        ]
        .into_iter()
        .flatten()
    }

    /// The worst verdict among this rank's components.
    pub fn health(&self) -> HealthVerdict {
        self.components()
            .fold(HealthVerdict::Healthy, |worst, c| worst.worst(c.health()))
    }

    /// Simulated rank loss: everything this rank holds turns to garbage.
    pub fn poison(&mut self) {
        self.components_mut().for_each(|c| c.poison());
    }

    /// Write this rank's share of a checkpoint: its components, and on the
    /// coupler's rank the published exports of ocean and ice (they are step
    /// outputs, not functions of the saved state), the staged ocean export
    /// (`cpl_next_*`) plus `cpl_meta` — the clock, the diagnostic series'
    /// lengths, the tracker's position, whether an export is staged. An
    /// export still in flight is not in any file: [`settle`](Coupler::settle)
    /// first.
    pub fn save(&self, dir: &Path, stats: &CoupledStats) -> Result<(), IoError> {
        assert_ne!(self.export, Export::InFlight, "settle before saving");
        for c in self.components() {
            c.save(dir)?;
        }
        if !self.is_root {
            return Ok(());
        }
        for (name, data) in self.o2x.fields().chain(self.i2x.fields()) {
            write_aux(dir, &format!("cpl_{name}"), data)?;
        }
        for (name, data) in self.o2x_next.fields() {
            write_aux(dir, &format!("cpl_next_{name}"), data)?;
        }
        let (lat, lon) = self.prev_track.unwrap_or((0.0, 0.0));
        let meta = [
            self.clock.time as f64,
            stats.theta_series.len() as f64,
            stats.sst_series.len() as f64,
            stats.ke_series.len() as f64,
            stats.ice_series.len() as f64,
            stats.track.len() as f64,
            f64::from(self.prev_track.is_some()),
            lat,
            lon,
            f64::from(self.export == Export::Staged),
        ];
        write_aux(dir, "cpl_meta", &meta)
    }

    /// Read this rank's share of a checkpoint back; returns `cpl_meta` for
    /// [`apply_meta`](Coupler::apply_meta) once every rank has voted the
    /// load good.
    pub fn restore(&mut self, dir: &Path) -> Result<Vec<f64>, IoError> {
        for c in self.components_mut() {
            c.restore(dir)?;
        }
        if self.is_root {
            for (name, data) in self.o2x.fields_mut().chain(self.i2x.fields_mut()) {
                data.copy_from_slice(&read_aux(dir, &format!("cpl_{name}"), data.len())?);
            }
            for (name, data) in self.o2x_next.fields_mut() {
                data.copy_from_slice(&read_aux(dir, &format!("cpl_next_{name}"), data.len())?);
            }
        }
        if let Some(sfc) = &mut self.surface {
            sfc.remap_sst(&self.o2x, &self.ocn_valid);
        }
        // These exports are functions of the restored state.
        if let Some(c) = &self.atm {
            c.export(&mut self.a2x);
        }
        if let Some(c) = &self.lnd {
            c.export(&mut self.l2x);
        }
        read_aux(dir, "cpl_meta", 10)
    }

    /// Apply a restored `cpl_meta`: rewind the clock and truncate the
    /// diagnostic series to the checkpoint's lengths (replayed couplings
    /// re-push them), restoring the tracker's continuity point and, on
    /// every rank, where the ocean's export was: staged in the restored
    /// `o2x_next`, so nothing has to be sent again.
    pub fn apply_meta(&mut self, meta: &[f64], stats: &mut CoupledStats) {
        self.clock.time = meta[0] as i64;
        stats.theta_series.truncate(meta[1] as usize);
        stats.sst_series.truncate(meta[2] as usize);
        stats.ke_series.truncate(meta[3] as usize);
        stats.ice_series.truncate(meta[4] as usize);
        stats.track.truncate(meta[5] as usize);
        self.prev_track = (meta[6] > 0.5).then_some((meta[7], meta[8]));
        self.export = if meta[9] > 0.5 {
            Export::Staged
        } else {
            Export::Published
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_counts_driver_sections_only() {
        let p = ap3esm_obs::Profiler::new();
        for name in ["router_build", "atm_run", "io_write_subfile", "ocn_run"] {
            let _root = p.enter(name);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let mut want = 0.0;
        p.for_each_root(|name, secs| {
            if name == "atm_run" || name == "ocn_run" {
                want += secs;
            }
        });
        assert!(want > 0.0);
        assert_eq!(driver_busy(&p).to_bits(), want.to_bits());
    }
}
