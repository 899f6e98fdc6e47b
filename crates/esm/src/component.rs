//! The MCT-style component contract and its four implementations.
//!
//! "CPL7 uses MCT-based *init*, *run*, and *finalize* interfaces in each
//! component to control the whole workflow… the *import* and *export*
//! methods are also implemented for GRIST and LICOM to get boundary
//! condition data from other models and provide output boundary condition
//! data" (§5.1.1). Construction is `init`, drop is `finalize`; what is left
//! is what the [`Coupler`](crate::coupler::Coupler) calls every coupling —
//! `import → run → export` — plus what the recovery layer needs from
//! whatever components a rank holds.

use std::path::Path;
use std::sync::Arc;

use ap3esm_atm::dycore::{Dycore, DycoreConfig};
use ap3esm_atm::pdc::{PhysicsDriver, PhysicsDynamicsCoupler, SurfaceForcing};
use ap3esm_atm::state::AtmState;
use ap3esm_atm::vortex::{seed_vortex, track_vortex, TrackPoint};
use ap3esm_comm::{CommError, Rank};
use ap3esm_cpl::AttrVect;
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_grid::GeodesicGrid;
use ap3esm_ice::{IceExport, IceForcing, IceModel};
use ap3esm_io::IoError;
use ap3esm_lnd::{LndForcing, LndModel};
use ap3esm_ocn::model::{OcnConfig, OcnForcing, OcnModel};
use ap3esm_physics::constants::temperature_from_theta;
use ap3esm_physics::ConventionalSuite;
use ap3esm_pp::{ExecSpace, Serial, Threads};

use crate::config::CoupledConfig;
use crate::coupled::{CoupledOptions, Perturbation, SstPattern};
use crate::resilience::{AtmGuard, HealthVerdict, OcnGuard};
use crate::restart::{self, read_aux, write_aux};

/// The coupler-facing contract every AP3ESM component implements.
pub trait Component {
    /// Copy boundary conditions *into* the component from the coupler's
    /// attribute vector (fields on the component's own grid).
    fn import(&mut self, av: &AttrVect);

    /// Advance by `seconds` of simulated time — a whole number of internal
    /// steps (§5.1.1's consistency requirement, fitted at construction).
    /// Only a component that communicates (the decomposed ocean) can fail.
    fn run(&mut self, rank: &Rank, seconds: f64) -> Result<(), CommError>;

    /// Fill the coupler's attribute vector with this component's exports.
    fn export(&self, av: &mut AttrVect);

    /// The scalar the driver's per-coupling series records: mass-weighted
    /// mean θ (atm), this rank's kinetic energy (ocn), mean cover (ice).
    fn diagnostic(&self) -> f64;

    /// Locate the tracked vortex, searching near `prev` (atmospheres that
    /// were asked to track one).
    fn track(&self, _prev: Option<(f64, f64)>) -> Option<TrackPoint> {
        None
    }

    /// State-health verdict at a coupling boundary. Ice and land have no
    /// guard: both clamp their own state to its physical range.
    fn health(&self) -> HealthVerdict {
        HealthVerdict::Healthy
    }

    /// Simulated rank loss: turn the prognostic state into garbage that
    /// [`health`](Component::health) detects (nothing to do without a
    /// guard).
    fn poison(&mut self) {}

    /// Write / read this component's share of a checkpoint directory.
    fn save(&self, dir: &Path) -> Result<(), IoError>;
    fn restore(&mut self, dir: &Path) -> Result<(), IoError>;
}

/// Fit the atmosphere stepping so an integer number of model steps covers
/// the coupling period (§5.1.1's consistency requirement).
pub fn fitted_atm_config(dx_km: f64, period: f64) -> DycoreConfig {
    let base = DycoreConfig::for_spacing_km(dx_km);
    let n = (period / base.dt_model).ceil().max(1.0);
    let dt_model = period / n;
    let dt_tracer = dt_model / 4.0;
    let dt_dyn = dt_tracer / 4.0;
    DycoreConfig {
        dt_dyn,
        dt_tracer,
        dt_model,
        nu: 0.015 * (dx_km * 1000.0).powi(2) / dt_dyn,
    }
}

/// Same fitting for the ocean, on the configured process mesh.
pub fn fitted_ocn_config(config: &CoupledConfig, period: f64) -> OcnConfig {
    let mut c = OcnConfig::for_grid(
        config.ocn_nlon,
        config.ocn_nlat,
        config.ocn_nlev,
        config.ocn_px,
        config.ocn_py,
    );
    let n = (period / c.dt_baroclinic).ceil().max(1.0);
    c.dt_baroclinic = period / n;
    c
}

/// Build the AI physics suite for the coupled model: a quick in-situ
/// training pass over conventional-physics supervision (our stand-in for
/// loading the paper's pre-trained 5-km weights; DESIGN.md substitution).
fn build_ai_driver(nlev: usize) -> PhysicsDriver {
    use ap3esm_ai::net::TendencyCnn;
    use ap3esm_ai::train::{TrainConfig, Trainer};
    use ap3esm_ai::{RadiationModule, TendencyModule};
    use ap3esm_atm::pdc::supervision_pair;
    use ap3esm_physics::suite::{hydrostatic_thickness, Column, SurfaceProperties};

    let suite = ConventionalSuite::default();
    let sigma: Vec<f64> = (0..nlev)
        .map(|k| 1.0 - (k as f64 + 0.5) / nlev as f64)
        .collect();
    let ds = vec![1.0 / nlev as f64; nlev];
    let (mut inputs, mut targets): (Vec<_>, Vec<_>) = (0..240)
        .map(|s| {
            let t_surf = 278.0 + 24.0 * ((s as f64) * 0.41).sin().abs();
            let t: Vec<f64> = (0..nlev)
                .map(|k| t_surf - (50.0 / nlev as f64) * k as f64)
                .collect();
            let (p, dp, dz) = hydrostatic_thickness(&sigma, &ds, 1.0e5, &t);
            let q: Vec<f64> = (0..nlev)
                .map(|k| 0.012 * (-1.5 * k as f64 / nlev as f64).exp())
                .collect();
            let col = Column {
                u: vec![6.0 * ((s % 7) as f64 - 3.0); nlev],
                v: vec![0.0; nlev],
                t,
                q,
                p,
                dp,
                dz,
            };
            let sfc = SurfaceProperties {
                tskin: t_surf + 1.0,
                coszr: 0.25 * (s % 4) as f64,
                wetness: 1.0,
            };
            supervision_pair(&suite, col, &sfc)
        })
        .unzip();
    let trainer = Trainer::new(TrainConfig {
        epochs: 6,
        batch_size: 16,
        lr: 2e-3,
    });
    let (tendency, _) = TendencyModule::fit(
        TendencyCnn::with_width(nlev, 12, 11),
        &mut inputs,
        &mut targets,
        &trainer,
    );
    PhysicsDriver::AiSuite {
        tendency,
        radiation: RadiationModule::untrained(nlev, 24, 13),
        diagnostics: suite,
    }
}

/// Whole internal steps in `seconds` (at least one).
fn whole_steps(seconds: f64, dt: f64) -> usize {
    ((seconds / dt).round() as usize).max(1)
}

/// Lanes for a thread team inside a rank built now: the machine's cores
/// shared out among the rank threads alive in this process (not
/// `rank.size()`: worlds running side by side share the same cores), at
/// least one. Measured, not configured: a one-rank world on an idle process
/// gets every core, the ranks of a concurrent layout, campaign members and
/// parallel test worlds get one lane each and spawn nothing.
fn lanes_per_rank() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |v| v.get());
    (cores / ap3esm_comm::live_rank_threads().max(1)).max(1)
}

/// A team of `lanes` (one lane: the calling thread alone, nothing spawned).
fn team_of(lanes: usize) -> Arc<dyn ExecSpace> {
    if lanes > 1 {
        Arc::new(Threads::new(lanes))
    } else {
        Arc::new(Serial)
    }
}

/// The team of a rank built now ([`lanes_per_rank`] lanes): one for all the
/// components the rank holds. They take turns on the rank's thread, so one
/// set of workers serves them all, and a second set would spin on the cores
/// the first needs every time the turn passes.
pub(crate) fn rank_team() -> Arc<dyn ExecSpace> {
    team_of(lanes_per_rank())
}

/// The GRIST-analogue atmosphere: dycore + physics on the geodesic grid.
pub struct Atm {
    pub state: AtmState,
    dycore: Dycore,
    pdc: PhysicsDynamicsCoupler,
    /// Where the dycore phases and the physics columns run.
    space: Arc<dyn ExecSpace>,
    forcing: SurfaceForcing,
    guard: AtmGuard,
    /// Precipitation rate over the last `run` (kg/m²/s); during a `run` it
    /// holds the accumulator as of the run's start.
    precip_rate: Vec<f64>,
    tracking: bool,
}

impl Atm {
    /// Cold start: isothermal with a meridional structure so the
    /// circulation is not degenerate (warm tropics, cold poles), then the
    /// options' vortices and θ noise. Stepping is fitted to `period`, on one
    /// lane until a team is attached with [`Atm::on`].
    pub fn new(
        grid: Arc<GeodesicGrid>,
        config: &CoupledConfig,
        opts: &CoupledOptions,
        period: f64,
    ) -> Self {
        let n = grid.ncells();
        let mut state = AtmState::isothermal(Arc::clone(&grid), config.atm_nlev, 288.0);
        for k in 0..config.atm_nlev {
            for i in 0..n {
                let phi = grid.cells[i].lat();
                state.theta[k * n + i] += 15.0 * (phi.cos().powi(2) - 0.5);
            }
        }
        for spec in opts.vortex.iter().chain(&opts.extra_vortices) {
            seed_vortex(&mut state, spec);
        }
        if let Some(p) = &opts.perturb {
            for (i, th) in state.theta.iter_mut().enumerate() {
                *th += p.noise(i);
            }
        }
        let dycore = Dycore::new(
            Arc::clone(&grid),
            fitted_atm_config(grid.mean_spacing_km(), period),
        );
        let pdc = PhysicsDynamicsCoupler::new(if config.ai_physics {
            build_ai_driver(config.atm_nlev)
        } else {
            PhysicsDriver::Conventional(ConventionalSuite::default())
        });
        let guard = AtmGuard::new(&state, dycore.config.dt_dyn);
        Atm {
            state,
            dycore,
            pdc,
            space: Arc::new(Serial),
            forcing: SurfaceForcing::uniform(n, 288.0, 0.0, 1.0),
            guard,
            precip_rate: vec![0.0; n],
            tracking: opts.record_track && opts.vortex.is_some(),
        }
    }

    /// Step on `space`. The answer does not depend on it, bit for bit.
    pub fn on(mut self, space: Arc<dyn ExecSpace>) -> Self {
        self.dycore = self.dycore.on(Arc::clone(&space));
        self.pdc = self.pdc.on(Arc::clone(&space));
        self.space = space;
        self
    }

    /// Step on a fresh team of `lanes` (tests: any count, whatever the box).
    pub fn with_lanes(self, lanes: usize) -> Self {
        self.on(team_of(lanes))
    }

    /// The space the dycore phases and the physics columns run on.
    pub fn space(&self) -> &Arc<dyn ExecSpace> {
        &self.space
    }

    pub fn lanes(&self) -> usize {
        self.space.concurrency()
    }
}

impl Component for Atm {
    fn import(&mut self, av: &AttrVect) {
        self.forcing.tskin.copy_from_slice(av.get("tskin"));
        self.forcing.wetness.copy_from_slice(av.get("wetness"));
        self.forcing.coszr.copy_from_slice(av.get("coszr"));
    }

    fn run(&mut self, _rank: &Rank, seconds: f64) -> Result<(), CommError> {
        self.precip_rate.copy_from_slice(&self.state.precip_accum);
        let dt = self.dycore.config.dt_model;
        for _ in 0..whole_steps(seconds, dt) {
            self.dycore.step_model_dynamics(&mut self.state);
            self.pdc.apply(&mut self.state, &self.forcing, dt);
        }
        for (rate, now) in self.precip_rate.iter_mut().zip(&self.state.precip_accum) {
            *rate = (now - *rate).max(0.0) / seconds;
        }
        Ok(())
    }

    fn export(&self, av: &mut AttrVect) {
        let st = &self.state;
        let n = st.ncells();
        let winds = st.surface_wind();
        for (u, wind) in av.get_mut("u").iter_mut().zip(&winds) {
            *u = wind.0;
        }
        for (v, wind) in av.get_mut("v").iter_mut().zip(&winds) {
            *v = wind.1;
        }
        for (i, t) in av.get_mut("tbot").iter_mut().enumerate() {
            *t = temperature_from_theta(st.theta[i], st.sigma[0] * st.ps[i]);
        }
        av.set("qbot", &st.q[..n]);
        av.set("ps", &st.ps);
        av.set("gsw", &st.gsw);
        av.set("glw", &st.glw);
        av.set("precip", &self.precip_rate);
    }

    fn diagnostic(&self) -> f64 {
        self.state.mean_theta()
    }

    fn track(&self, prev: Option<(f64, f64)>) -> Option<TrackPoint> {
        self.tracking
            .then(|| track_vortex(&self.state, prev, 1_500_000.0))
    }

    fn health(&self) -> HealthVerdict {
        self.guard.check(&self.state)
    }

    fn poison(&mut self) {
        self.state.theta.fill(f64::NAN);
    }

    fn save(&self, dir: &Path) -> Result<(), IoError> {
        restart::write_atm_restart(dir, &self.state)
    }

    fn restore(&mut self, dir: &Path) -> Result<(), IoError> {
        restart::read_atm_restart(dir, &mut self.state)
    }
}

/// The LICOM-analogue ocean on this rank's block of the tripolar grid.
pub struct Ocn {
    pub model: OcnModel,
    forcing: OcnForcing,
    guard: OcnGuard,
    /// Index of this rank's block in the ocean decomposition.
    ocn_rank: usize,
}

impl Ocn {
    /// The ocean of block `ocn_rank`, stepping on one lane until a team is
    /// attached with [`Ocn::on`].
    pub fn new(grid: &TripolarGrid, config: OcnConfig, ocn_rank: usize) -> Self {
        let dt_barotropic = config.dt_baroclinic / config.n_barotropic.max(1) as f64;
        let model = OcnModel::new(grid, config, ocn_rank);
        let guard = OcnGuard::new(&model.state, dt_barotropic);
        let forcing = OcnForcing::zeros(model.state.ni, model.state.nj);
        Ocn {
            model,
            forcing,
            guard,
            ocn_rank,
        }
    }

    /// Step on `space`. The answer does not depend on it, bit for bit.
    pub fn on(mut self, space: Arc<dyn ExecSpace>) -> Self {
        self.model = self.model.on(space);
        self
    }

    /// Step on a fresh team of `lanes` (tests: any count, whatever the box).
    pub fn with_lanes(self, lanes: usize) -> Self {
        self.on(team_of(lanes))
    }

    /// The space the phases of an ocean step run on.
    pub fn space(&self) -> &Arc<dyn ExecSpace> {
        self.model.space()
    }

    pub fn lanes(&self) -> usize {
        self.space().concurrency()
    }

    /// Add an SST anomaly pattern and/or seeded noise to the *true*
    /// initial surface temperature (the coupled model can only nudge the
    /// coupler's boundary copy) — the standalone ocean's initial-condition
    /// families.
    pub fn perturb_sst(
        &mut self,
        grid: &TripolarGrid,
        pattern: Option<SstPattern>,
        noise: Option<&Perturbation>,
    ) {
        let st = &mut self.model.state;
        for j in 0..st.nj {
            let phi = grid.lat[st.block.j0 + j];
            for i in 0..st.ni {
                let idx = st.at(i, j);
                if st.kmt[idx] == 0 {
                    continue;
                }
                if let Some(p) = &pattern {
                    st.t[idx] += p.anomaly(phi, grid.lon[st.block.i0 + i]);
                }
                if let Some(p) = noise {
                    st.t[idx] += p.noise(j * st.ni + i);
                }
            }
        }
    }

    /// Area-weighted mean free-surface elevation (m) over this rank's
    /// ocean columns — the volume-conservation drift metric (a perfect
    /// barotropic solver keeps it at its initial value).
    pub fn volume_anomaly(&self) -> f64 {
        let st = &self.model.state;
        let (mut vol, mut area) = (0.0, 0.0);
        for j in 0..st.nj {
            for i in 0..st.ni {
                let idx = st.at(i, j);
                if st.kmt[idx] > 0 {
                    let da = st.dx[j] * st.dy;
                    vol += st.eta[idx] * da;
                    area += da;
                }
            }
        }
        if area > 0.0 {
            vol / area
        } else {
            0.0
        }
    }
}

impl Component for Ocn {
    fn import(&mut self, av: &AttrVect) {
        self.forcing.taux.copy_from_slice(av.get("taux"));
        self.forcing.tauy.copy_from_slice(av.get("tauy"));
        self.forcing.qnet.copy_from_slice(av.get("qnet"));
        self.forcing.salt_flux.copy_from_slice(av.get("salt"));
    }

    fn run(&mut self, rank: &Rank, seconds: f64) -> Result<(), CommError> {
        for _ in 0..whole_steps(seconds, self.model.config.dt_baroclinic) {
            self.model.try_step(rank, &self.forcing)?;
        }
        Ok(())
    }

    /// Local row-major interior order == ascending global ids for a block.
    fn export(&self, av: &mut AttrVect) {
        let st = &self.model.state;
        let surface = |out: &mut [f64], value: &dyn Fn(usize) -> f64| {
            for j in 0..st.nj {
                for i in 0..st.ni {
                    out[j * st.ni + i] = value(st.at(i, j));
                }
            }
        };
        surface(av.get_mut("sst"), &|idx| st.t[idx]);
        surface(av.get_mut("ssu"), &|idx| st.u[idx] + st.ubar[idx]);
        surface(av.get_mut("ssv"), &|idx| st.v[idx] + st.vbar[idx]);
    }

    fn diagnostic(&self) -> f64 {
        self.model.state.kinetic_energy()
    }

    fn health(&self) -> HealthVerdict {
        self.guard.check(&self.model.state)
    }

    fn poison(&mut self) {
        self.model.state.eta.fill(f64::NAN);
    }

    fn save(&self, dir: &Path) -> Result<(), IoError> {
        restart::write_ocn_restart(dir, &self.model.state, self.ocn_rank)
    }

    fn restore(&mut self, dir: &Path) -> Result<(), IoError> {
        restart::read_ocn_restart(dir, &mut self.model.state, self.ocn_rank)
    }
}

/// The CICE-analogue sea ice on the full ocean grid (the coupler's rank
/// owns it: "the sea ice component contributes minimal computational
/// overhead").
pub struct Ice {
    pub model: IceModel,
    forcing: IceForcing,
    /// What the last step handed back (cold start: the seeded cover).
    last: IceExport,
}

impl Ice {
    pub fn new(grid: &TripolarGrid) -> Self {
        let decomp = BlockDecomp2d::new(grid.nlon, grid.nlat, 1, 1);
        let model = IceModel::new(grid, &decomp, 0);
        let n = grid.nlon * grid.nlat;
        let last = IceExport {
            fresh: vec![0.0; n],
            heat: vec![0.0; n],
            fraction: model.state.fraction.clone(),
        };
        Ice {
            model,
            forcing: IceForcing::uniform(n, 0.0, 0.0),
            last,
        }
    }
}

impl Component for Ice {
    fn import(&mut self, av: &AttrVect) {
        let f = &mut self.forcing;
        for (dst, name) in [
            (&mut f.tair, "tair"),
            (&mut f.sst, "sst"),
            (&mut f.uwind, "uwind"),
            (&mut f.vwind, "vwind"),
            (&mut f.uocn, "uocn"),
            (&mut f.vocn, "vocn"),
        ] {
            dst.copy_from_slice(av.get(name));
        }
    }

    fn run(&mut self, _rank: &Rank, seconds: f64) -> Result<(), CommError> {
        self.last = self.model.step(&self.forcing, seconds);
        Ok(())
    }

    fn export(&self, av: &mut AttrVect) {
        av.set("icefrac", &self.last.fraction);
        av.set("iceheat", &self.last.heat);
        av.set("icefresh", &self.last.fresh);
    }

    fn diagnostic(&self) -> f64 {
        self.model.ice_cover()
    }

    fn save(&self, dir: &Path) -> Result<(), IoError> {
        let st = &self.model.state;
        write_aux(dir, "ice_frac", &st.fraction)?;
        write_aux(dir, "ice_thick", &st.thickness)?;
        write_aux(dir, "ice_tsfc", &st.tsfc)
    }

    fn restore(&mut self, dir: &Path) -> Result<(), IoError> {
        let st = &mut self.model.state;
        st.fraction = read_aux(dir, "ice_frac", st.fraction.len())?;
        st.thickness = read_aux(dir, "ice_thick", st.thickness.len())?;
        st.tsfc = read_aux(dir, "ice_tsfc", st.tsfc.len())?;
        Ok(())
    }
}

/// The bucket land model on the atmosphere's cells ("the land component is
/// inherently coupled with the atmospheric component").
pub struct Lnd {
    pub model: LndModel,
    forcing: LndForcing,
}

impl Lnd {
    pub fn new(land: Vec<bool>) -> Self {
        let zeros = vec![0.0; land.len()];
        Lnd {
            model: LndModel::new(land, 285.0),
            forcing: LndForcing {
                gsw: zeros.clone(),
                glw: zeros.clone(),
                tair: zeros.clone(),
                precip: zeros.clone(),
                wind: zeros,
            },
        }
    }
}

impl Component for Lnd {
    fn import(&mut self, av: &AttrVect) {
        let f = &mut self.forcing;
        for (dst, name) in [
            (&mut f.gsw, "gsw"),
            (&mut f.glw, "glw"),
            (&mut f.tair, "tair"),
            (&mut f.precip, "precip"),
            (&mut f.wind, "wind"),
        ] {
            dst.copy_from_slice(av.get(name));
        }
    }

    fn run(&mut self, _rank: &Rank, seconds: f64) -> Result<(), CommError> {
        self.model.step(&self.forcing, seconds);
        Ok(())
    }

    fn export(&self, av: &mut AttrVect) {
        av.set("tskin", &self.model.state.tskin);
        av.set("wetness", &self.model.wetness());
    }

    fn diagnostic(&self) -> f64 {
        self.model.mean_tskin()
    }

    fn save(&self, dir: &Path) -> Result<(), IoError> {
        write_aux(dir, "lnd_tskin", &self.model.state.tskin)?;
        write_aux(dir, "lnd_moist", &self.model.state.moisture)
    }

    fn restore(&mut self, dir: &Path) -> Result<(), IoError> {
        let st = &mut self.model.state;
        st.tskin = read_aux(dir, "lnd_tskin", st.tskin.len())?;
        st.moisture = read_aux(dir, "lnd_moist", st.moisture.len())?;
        Ok(())
    }
}
