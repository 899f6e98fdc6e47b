//! The coupled AP3ESM driver.
//!
//! Implements the paper's two-task-domain layout (§7.2): world rank 0 is
//! **domain A** — coupler + atmosphere + sea ice + land ("the atmosphere
//! component exhibits the highest computational cost, and placing the
//! coupler within the same domain minimizes data exchange"; "the land
//! component is inherently coupled with the atmospheric component"; "the
//! sea ice component contributes minimal computational overhead") — and
//! world ranks 1..=N are **domain O**, exclusively the ocean ("the ocean
//! component represents the second largest computational cost,
//! necessitating its allocation to a separate domain"). The two domains
//! differ only in which components a rank's [`Coupler`] holds
//! ([`Parts::of_rank`]); every rank runs the same loop below.
//!
//! Data crosses domains through GSMap/Router rearrangement (`ap3esm-cpl`),
//! under the coupling clock's 180/36/180-per-day cadence (configurable).

use std::time::Instant;

use ap3esm_atm::vortex::{TrackPoint, VortexSpec};
use ap3esm_comm::collectives::{allreduce_max, allreduce_sum};
use ap3esm_comm::Rank;
use ap3esm_cpl::CouplingClock;

use crate::config::CoupledConfig;
use crate::coupler::{Coupler, Parts, DRIVER_SECTIONS};
use crate::recovery::{resume, Flow, Recovery};
use crate::resilience::{splitmix64_draw, RecoveryConfig};
use crate::session::Session;
use crate::timing::get_timing;

/// Telemetry busy-time exchange tags (max-reduce, sum-reduce). Dedicated
/// tags, only exchanged when `CoupledOptions::telemetry` is set, so fault
/// plans counting messages on the physics/health tags are unaffected.
const TELE_MAX_TAG: u64 = 0x7E1E;
const TELE_SUM_TAG: u64 = 0x7E1F;

/// Idealised initial-condition SST anomaly families, applied to the
/// coupler's initial SST boundary state at t = 0 (the reforecast-style
/// perturbation the scenario engine's ENSO catalog entries use). The
/// anomaly enters the coupled system through the first atmosphere
/// couplings' lower boundary condition; the ocean interior is untouched,
/// so the pattern relaxes on the coupling timescale like a prescribed-SST
/// nudge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SstPattern {
    /// ENSO-like anomaly: `amplitude` K (positive = warm event, negative =
    /// cold) centred on an eastern-basin warm pool, Gaussian in latitude
    /// (~15° e-folding) and longitude (~40°).
    Enso { amplitude: f64 },
}

impl SstPattern {
    /// Anomaly (K) at a point, `lat`/`lon` in radians.
    pub fn anomaly(&self, lat: f64, lon: f64) -> f64 {
        match self {
            SstPattern::Enso { amplitude } => {
                // Eastern-Pacific-like centre at 240°E.
                let lon0 = 240f64.to_radians();
                let mut dl = (lon - lon0) % std::f64::consts::TAU;
                if dl > std::f64::consts::PI {
                    dl -= std::f64::consts::TAU;
                }
                if dl < -std::f64::consts::PI {
                    dl += std::f64::consts::TAU;
                }
                let meridional = (-(lat / 15f64.to_radians()).powi(2)).exp();
                let zonal = (-(dl / 40f64.to_radians()).powi(2)).exp();
                amplitude * meridional * zonal
            }
        }
    }
}

/// Seeded white-noise perturbation of the initial potential temperature
/// (ensemble-spread generator): every cell of every level gets a
/// deterministic `±amplitude/2` offset hashed from `(seed, cell index)`,
/// so two members with different seeds decorrelate while any one member
/// stays bitwise reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perturbation {
    pub seed: u64,
    /// Peak-to-peak noise amplitude (K).
    pub amplitude: f64,
}

impl Perturbation {
    /// Centred noise in `[-amplitude/2, amplitude/2]` for index `i`
    /// (draw `i` of the seed's splitmix64 stream — no RNG state to carry).
    pub fn noise(&self, i: usize) -> f64 {
        let z = splitmix64_draw(self.seed, i as u64);
        let u = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        (u - 0.5) * self.amplitude
    }
}

/// Run options.
#[derive(Debug, Clone)]
pub struct CoupledOptions {
    /// Simulated days.
    pub days: f64,
    /// Seed this vortex into the atmosphere at t = 0 (forecast experiment).
    pub vortex: Option<VortexSpec>,
    /// Further vortices seeded after `vortex` (multi-vortex basin
    /// experiments); order matters only where cores overlap.
    pub extra_vortices: Vec<VortexSpec>,
    /// Idealised SST anomaly added to the initial coupler SST state.
    pub sst_pattern: Option<SstPattern>,
    /// Seeded noise added to the initial θ field (ensemble spread).
    pub perturb: Option<Perturbation>,
    /// Track the vortex at every atmosphere coupling.
    pub record_track: bool,
    /// Emit a JSON run report named `run-<name>.json` under `target/obs/`.
    /// Collective: every rank contributes its span tree to the cross-rank
    /// section table; rank 0 writes the file.
    pub report_name: Option<String>,
    /// Also export per-rank timelines: a Chrome Trace Event file
    /// (`trace-<name>.json`, one `pid` per rank, span + comm-flow events,
    /// resilience instants) and a collapsed-stack flamegraph
    /// (`trace-<name>.folded`). Requires `report_name`; ignored without it.
    pub trace: bool,
    /// Opt-in live telemetry: every N ocean couplings, rank 0 prints step
    /// rate, an SYPD estimate, and the per-component wall-time split to
    /// stderr. `None` (the default) prints nothing.
    pub progress_every: Option<u64>,
    /// Enable checkpoint/rollback recovery, writing checkpoints under this
    /// directory (shared by all ranks). `None` disables the entire
    /// resilience path: no guards, no health exchange, no checkpoints.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Recovery policy (only consulted when `checkpoint_dir` is set).
    pub recovery: RecoveryConfig,
    /// Resume the run from this checkpoint directory instead of a cold
    /// start. The directory must hold a restart set matching this world's
    /// layout (e.g. a `shrunk_g<N>` hand-off written by a degraded run, or
    /// an ordinary `ckpt_*` directory). Requires `checkpoint_dir`.
    pub resume_from: Option<std::path::PathBuf>,
    /// Continuous telemetry: one sample of the metrics registry per ocean
    /// coupling into a time-series store, SLO/anomaly alerting, and an
    /// optional OpenMetrics scrape endpoint — all on rank 0. `None` (the
    /// default) samples nothing and exchanges no telemetry messages, so
    /// fault plans that count messages see an unchanged stream.
    pub telemetry: Option<TelemetryOptions>,
    /// Black-box flight recorder (default **on**): the world's event log
    /// records — every rank journals structured resilience events (health
    /// transitions, rollbacks, shrinks, checkpoint begin/commit, fault
    /// firings) and its messages into its bounded rings. When the run ends
    /// in trouble (structured failure, shrink, rollback, or any fault
    /// event), rank 0 dumps a self-contained diagnostics bundle to
    /// `target/obs/bundle-<name>/` for `ap3esm_obs::flightrec::analyze`.
    /// Steady-state cost is one ring push per message and journal entry,
    /// no allocation.
    pub flightrec: bool,
    /// Bundle directory name (`bundle-<name>`). Defaults to `report_name`,
    /// then to `pid<process id>`.
    pub bundle_name: Option<String>,
}

impl Default for CoupledOptions {
    fn default() -> Self {
        CoupledOptions {
            days: 1.0,
            vortex: None,
            extra_vortices: Vec::new(),
            sst_pattern: None,
            perturb: None,
            record_track: false,
            report_name: None,
            trace: false,
            progress_every: None,
            checkpoint_dir: None,
            recovery: RecoveryConfig::default(),
            resume_from: None,
            telemetry: None,
            flightrec: true,
            bundle_name: None,
        }
    }
}

/// Continuous-telemetry options. When set on [`CoupledOptions`], every
/// ocean coupling exchanges per-rank busy time (dedicated tags) so rank 0
/// can gauge `sim.sypd`, `sim.imbalance` and `sim.step_wall_s`, and rank 0
/// then takes one [`ap3esm_obs::Sampler`] sample of every registered
/// counter/gauge/histogram into an in-process [`ap3esm_obs::SeriesStore`],
/// which the alert rules observe point by point — a series holds one point
/// per coupling the driver completes (replays included), so a rule's `over
/// N` counts couplings. With `metrics_addr` rank 0 serves live OpenMetrics
/// scrapes over HTTP, and after a run with a `report_name` it writes the
/// full store to `target/obs/series-<name>.json`. Busy time is the rank's
/// time in the five driver sections (`atm_run`, `lnd_run`, `ice_run`,
/// `cpl_rearrange`, `ocn_run`) since the previous ocean coupling; the
/// one-off root spans (`router_build`, `io_{read,write}_subfile`) are not
/// counted, so a checkpoint coupling does not move `sim.imbalance`.
#[derive(Debug, Clone)]
pub struct TelemetryOptions {
    /// Bind an OpenMetrics scrape endpoint here (e.g. `127.0.0.1:9464`;
    /// port 0 binds an ephemeral port — see
    /// [`CoupledStats::metrics_addr`]). `None` disables the endpoint.
    pub metrics_addr: Option<String>,
    /// Alert rules, parsed by the caller ([`ap3esm_obs::parse_rules`]);
    /// defaults to the built-in simulation rules ([SYPD collapse,
    /// imbalance drift, Degraded streak, degraded mode](ap3esm_obs::sim_rules)).
    pub rules: Vec<ap3esm_obs::Rule>,
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        TelemetryOptions {
            metrics_addr: None,
            rules: ap3esm_obs::sim_rules(),
        }
    }
}

/// Per-run results (rank 0 carries the series; ocean ranks carry timing).
#[derive(Debug, Clone, Default)]
pub struct CoupledStats {
    pub simulated_seconds: f64,
    pub wall_seconds: f64,
    /// Measured SYPD of this (laptop-scale) run.
    pub sypd: f64,
    /// Global mean SST (°C) at each ocean coupling.
    pub sst_series: Vec<f64>,
    /// Atmosphere global mass-weighted mean θ (K) at each atm coupling.
    pub theta_series: Vec<f64>,
    /// Global ocean kinetic energy at each ocean coupling.
    pub ke_series: Vec<f64>,
    /// Tracked vortex positions (if requested).
    pub track: Vec<TrackPoint>,
    /// Mean ice cover at each ice coupling.
    pub ice_series: Vec<f64>,
    /// This rank's root spans `(name, total seconds)`, sorted by name: the
    /// driver sections this rank entered (`atm_run`, `lnd_run`, `ice_run`,
    /// `ocn_run`, `cpl_rearrange`) and the one-off spans opened outside
    /// them (`router_build`, `io_read_subfile`, `io_write_subfile`). The
    /// same numbers as the depth-0 entries of this rank's tree in the run
    /// report's `rank_trees`; the cross-rank maxima are its `rank_sections`.
    pub per_section_seconds: Vec<(String, f64)>,
    /// The serialised run report (rank 0, when `report_name` was set).
    pub report_json: Option<String>,
    /// Where the report was written (rank 0, when `report_name` was set).
    pub report_path: Option<std::path::PathBuf>,
    /// Where the chrome-trace file was written (rank 0, when tracing).
    pub trace_path: Option<std::path::PathBuf>,
    /// Critical-path analysis of the traced run: per-interval path,
    /// wait-state classification and what-if projection (rank 0, when
    /// tracing with a report name).
    pub critpath: Option<ap3esm_obs::critpath::Analysis>,
    /// Where the collapsed-stack file was written (rank 0, when tracing).
    pub folded_path: Option<std::path::PathBuf>,
    /// Rollbacks performed by the recovery layer.
    pub recoveries: usize,
    /// Shrink-to-fit recoveries: how many times the world lost a rank
    /// permanently and rebuilt itself one generation up.
    pub shrinks: usize,
    /// Ranks permanently lost (launched world size minus final membership),
    /// nonzero only when the run finished in degraded mode.
    pub degraded_ranks: usize,
    /// True on a rank that was fault-injected dead mid-run: it stopped
    /// participating and its stats end at the point of death.
    pub lost: bool,
    /// Human-readable fault events (injected faults, comm errors, guard
    /// verdicts that triggered rollbacks), in firing order.
    pub fault_events: Vec<String>,
    /// Set when the run ended in a clean structured failure (recovery
    /// budget exhausted or no usable checkpoint) instead of completing.
    pub failure: Option<String>,
    /// Alert firings observed by the telemetry engine, in firing order
    /// (rank 0, when telemetry was enabled).
    pub alerts: Vec<String>,
    /// Where the time-series snapshot was written (rank 0, when telemetry
    /// and a `report_name` were set).
    pub series_path: Option<std::path::PathBuf>,
    /// The OpenMetrics endpoint actually bound — resolves port 0 to the
    /// ephemeral port (rank 0, when telemetry set `metrics_addr`).
    pub metrics_addr: Option<String>,
    /// Where the flight-recorder diagnostics bundle was written (rank 0,
    /// when the recorder was on and the run ended in trouble).
    pub bundle_path: Option<std::path::PathBuf>,
    /// Lanes of this rank's team, which its atmosphere and its ocean step on
    /// (1: the rank thread alone); the `rank.lanes` gauge of the run report.
    pub lanes: usize,
}

/// Per-generation pacing state of the live heartbeat and the continuous
/// telemetry gauges.
struct Pulse {
    /// Wall clock + sim time at the last heartbeat.
    hb_last: Option<(Instant, f64)>,
    /// Cumulative busy seconds + wall clock at the previous ocean coupling.
    prev_busy: f64,
    last_wall: Instant,
}

impl Pulse {
    fn new() -> Self {
        Pulse {
            hb_last: None,
            prev_busy: 0.0,
            last_wall: Instant::now(),
        }
    }

    /// Whether a heartbeat is due: after every `progress_every`-th ocean
    /// coupling, counted on the clock (the ocean series lag it by one).
    fn heartbeat_due(progress_every: Option<u64>, clock: &CouplingClock) -> bool {
        progress_every.is_some_and(|every| every > 0 && clock.ocn_couplings().is_multiple_of(every))
    }

    /// Live heartbeat (opt-in, rank 0 only): step rate and SYPD estimate
    /// since the previous heartbeat, and rank 0's sections
    /// ([`CoupledStats::per_section_seconds`]) in cumulative seconds since
    /// the start of the run.
    fn heartbeat(&mut self, opts: &CoupledOptions, run: &Session, cpl: &Coupler) {
        if !Pulse::heartbeat_due(opts.progress_every, &cpl.clock) {
            return;
        }
        let now = Instant::now();
        let sim_s = cpl.clock.time as f64;
        let (dw, ds) = match self.hb_last {
            Some((w, s)) => (now.duration_since(w).as_secs_f64(), sim_s - s),
            None => (run.t_start.elapsed().as_secs_f64(), sim_s),
        };
        let dw = dw.max(1e-9);
        let mut split = Vec::new();
        let profiler = &run.obs.profiler;
        profiler.for_each_root(|name, secs| split.push(format!("{name} {secs:.2}s")));
        eprintln!(
            "[telemetry] day {:.2}/{:.1} | {:.2} couplings/s | est. SYPD {:.2} | {}",
            cpl.clock.days(),
            opts.days,
            (ds / cpl.clock.ocn_alarm.period as f64) / dw,
            get_timing(ds, dw),
            split.join(", ")
        );
        self.hb_last = Some((now, sim_s));
    }

    /// Cumulative seconds under the driver sections: set-up
    /// (`router_build`) and sub-file I/O roots stay out of `sim.imbalance`.
    fn driver_busy(profiler: &ap3esm_obs::Profiler) -> f64 {
        let mut busy = 0.0;
        profiler.for_each_root(|name, secs| {
            if DRIVER_SECTIONS.contains(&name) {
                busy += secs;
            }
        });
        busy
    }

    /// Continuous telemetry: global busy-time exchange at the coupling
    /// sync point, then rank 0 sets the gauges and samples them — one
    /// sample per coupling (the other ranks only take part in the
    /// exchange).
    fn telemetry(&mut self, rank: &Rank, run: &mut Session, ocn_period: f64) {
        let busy = Pulse::driver_busy(&run.obs.profiler);
        let d_busy = (busy - self.prev_busy).max(0.0);
        self.prev_busy = busy;
        let max_busy = allreduce_max(rank, TELE_MAX_TAG, d_busy).unwrap_or(d_busy);
        let sum_busy = allreduce_sum(rank, TELE_SUM_TAG, d_busy).unwrap_or(d_busy);
        if rank.id() != 0 {
            return;
        }
        let now = Instant::now();
        let dw = now.duration_since(self.last_wall).as_secs_f64().max(1e-9);
        self.last_wall = now;
        ap3esm_obs::gauge_set("sim.step_wall_s", dw);
        ap3esm_obs::gauge_set("sim.sypd", get_timing(ocn_period, dw));
        let mean_busy = sum_busy / rank.size() as f64;
        if mean_busy > 0.0 {
            ap3esm_obs::gauge_set("sim.imbalance", max_busy / mean_busy);
        }
        run.sample();
    }
}

/// Run the coupled model; every world rank calls this inside `World::run`.
pub fn run_coupled(rank: &Rank, config: &CoupledConfig, opts: &CoupledOptions) -> CoupledStats {
    if let Err(e) = config.validate() {
        panic!("invalid configuration: {e}");
    }
    assert_eq!(rank.size(), config.world_size(), "world size mismatch");
    let ocn_grid = config.ocean_grid();
    let total_seconds = (opts.days * 86_400.0).round();
    let mut run = Session::start(rank, opts);
    // `None` disables the entire resilience path: no guards, no health
    // exchange, no checkpoints.
    let mut recovery = opts
        .checkpoint_dir
        .as_ref()
        .map(|dir| Recovery::new(rank, dir, &opts.recovery));
    // A directory every rank restores from at the top of the next world
    // generation: an explicit `resume_from`, or the redistributed
    // checkpoint a shrink hands off.
    let mut pending_restore = opts.resume_from.clone();

    // One iteration per membership generation. A shrink re-enters it with
    // a smaller world: the coupler (cheap at our sizes; on Sunway its
    // routers would be loaded from the offline store) is rebuilt, the
    // session and the recovery budgets persist.
    'world: loop {
        let mut cpl = Coupler::build(rank, config, opts, &ocn_grid, Parts::of_rank(rank, config));
        run.stats.lanes = cpl.lanes();
        let mut pulse = Pulse::new();
        if let Some(dir) = pending_restore.take() {
            resume(rank, &mut cpl, &mut run.stats, &dir);
        }
        while run.stats.failure.is_none() && (cpl.clock.time as f64) < total_seconds {
            let step = cpl.step(rank, &mut run.stats);
            // Ocean couplings are the global synchronisation points.
            if !step.event.ocn {
                continue;
            }
            match recovery.as_mut() {
                // Without the recovery layer a failed exchange is fatal.
                None => {
                    if let Some(e) = step.comm_fault {
                        panic!("coupler exchange failed: {e}");
                    }
                }
                Some(r) => {
                    match r.after_coupling(rank, &mut cpl, &ocn_grid, &mut run, step.comm_fault) {
                        Flow::Continue => {}
                        Flow::Rebuild(dir) => {
                            pending_restore = Some(dir);
                            continue 'world;
                        }
                        Flow::Stop => break,
                    }
                }
            }
            if rank.id() == 0 {
                pulse.heartbeat(opts, &run, &cpl);
            }
            if opts.telemetry.is_some() {
                pulse.telemetry(rank, &mut run, cpl.clock.ocn_alarm.period as f64);
            }
        }
        // The last ocean coupling's export is still on its way.
        if run.stats.failure.is_none() && !run.stats.lost {
            if let Some(e) = cpl.finish(rank, &mut run.stats) {
                panic!("coupler exchange failed: {e}");
            }
        }
        run.stats.simulated_seconds = cpl.clock.time as f64;
        break;
    }
    run.stats.recoveries = recovery.map_or(0, |r| r.recoveries);
    run.finish(rank, config, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap3esm_comm::World;

    #[test]
    fn perturbation_noise_keeps_its_recorded_bits() {
        // Recorded before `noise` was rewritten over `resilience::splitmix64`:
        // the benchmark's θ seeding and every ensemble golden hang on it.
        let p = Perturbation {
            seed: 7,
            amplitude: 0.01,
        };
        assert_eq!(p.noise(5).to_bits(), 0xBF64_86CD_4581_5C97);
    }

    #[test]
    fn heartbeat_counts_ocean_couplings_on_the_clock() {
        // 8 base steps a day, the ocean couples on every other one.
        let mut clock = CoupledConfig::test_tiny().clock();
        let mut beats = Vec::new();
        for _ in 0..8 {
            if clock.advance().ocn && Pulse::heartbeat_due(Some(2), &clock) {
                beats.push(clock.ocn_couplings());
            }
        }
        assert_eq!(beats, [2, 4]);
        assert!(!Pulse::heartbeat_due(None, &clock));
        assert!(!Pulse::heartbeat_due(Some(0), &clock));
    }

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
        assert_eq!(Pulse::driver_busy(&p).to_bits(), want.to_bits());
    }

    #[test]
    fn coupled_model_runs_one_day_stably() {
        let config = CoupledConfig::test_tiny();
        let world = World::new(config.world_size());
        let opts = CoupledOptions {
            days: 1.0,
            ..Default::default()
        };
        let all = world.run(|rank| run_coupled(rank, &config, &opts));
        let root = &all[0];
        assert_eq!(root.simulated_seconds, 86_400.0);
        assert!(root.sypd > 0.0);
        // Alarm cadence: 8 atm / 4 ocn / 8 ice couplings.
        assert_eq!(root.theta_series.len(), 8);
        assert_eq!(root.sst_series.len(), 4);
        assert_eq!(root.ice_series.len(), 8);
        // Physical sanity.
        for sst in &root.sst_series {
            assert!((-5.0_f64..40.0).contains(sst), "mean SST {sst}");
        }
        for th in &root.theta_series {
            assert!((250.0..400.0).contains(th), "mean theta {th}");
        }
        // Ocean spun up: KE grew from zero.
        assert!(*root.ke_series.last().unwrap() > 0.0);
        // The coupler actually moved data.
        assert!(world.stats().total_bytes() > 0);
    }

    #[test]
    fn coupled_run_emits_json_report() {
        let config = CoupledConfig::test_tiny();
        let world = World::new(config.world_size());
        let opts = CoupledOptions {
            days: 0.5,
            report_name: Some("esm-report-test".to_string()),
            ..Default::default()
        };
        let all = world.run(|rank| run_coupled(rank, &config, &opts));
        let root = &all[0];

        // Only rank 0 writes; ocean ranks still participated in aggregation.
        assert!(all[1..].iter().all(|s| s.report_json.is_none()));
        let json = root.report_json.as_ref().expect("rank 0 report");
        assert!(json.starts_with(r#"{"schema":"ap3esm-obs/5","name":"esm-report-test""#));

        // The sink wrote the same bytes to target/obs/.
        let path = root.report_path.as_ref().expect("report written");
        assert_eq!(path.file_name().unwrap(), "run-esm-report-test.json");
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body.trim_end(), json);

        // ≥8 distinct spans with a correct parent/child tree on rank 0:
        // driver sections parent the leaf-crate instrumentation.
        let spans_json = json
            .split(r#""spans":["#)
            .nth(1)
            .unwrap()
            .split(r#""rank_sections""#)
            .next()
            .unwrap();
        let span_paths: Vec<&str> = spans_json
            .split(r#""path":""#)
            .skip(1)
            .map(|s| s.split('"').next().unwrap())
            .collect();
        for want in [
            "atm_run",
            "atm_run/dycore",
            "atm_run/dycore/dyn_substeps",
            "atm_run/dycore/tracer_step",
            "atm_run/physics",
            "ice_run",
            "cpl_rearrange",
            "cpl_rearrange/rearrange",
        ] {
            assert!(
                span_paths.contains(&want),
                "missing span {want}: {span_paths:?}"
            );
        }
        let distinct: std::collections::BTreeSet<&&str> = span_paths.iter().collect();
        assert!(
            distinct.len() >= 8,
            "only {} distinct spans",
            distinct.len()
        );

        // Cross-rank sections: the ocean ran on every domain-O rank (rank 0
        // never does, so "ocn_run" only reaches the report through the
        // collective aggregation) and the stats carry an imbalance ratio.
        let sections_json = json.split(r#""rank_sections":["#).nth(1).unwrap();
        assert!(
            !span_paths.contains(&"ocn_run"),
            "rank 0 should not run the ocean"
        );
        assert!(
            sections_json.contains(r#""path":"ocn_run""#),
            "ocean missing from aggregation"
        );
        assert!(sections_json.contains(r#""imbalance":"#));

        // Comm digest: real bytes moved, attributed to the coupling phases.
        assert!(json.contains(r#""comm":{"total_messages":"#));
        assert!(world.stats().total_bytes() > 0);
        let streams = json.split(r#""streams":["#).nth(1).unwrap();
        assert!(streams.contains(r#""label":"cpl_scatter""#));
        assert!(streams.contains(r#""label":"cpl_gather""#));
        // Scatter moved 4 forcing fields per ocean coupling; non-zero bytes.
        let scatter_bytes: u64 = streams
            .split(r#""label":"cpl_scatter","messages":"#)
            .nth(1)
            .and_then(|s| s.split(r#""bytes":"#).nth(1))
            .and_then(|s| s.split(['}', ',']).next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(scatter_bytes > 0, "no scatter traffic attributed");

        // The rearranger histogram flowed into the metrics registry.
        assert!(json.contains(r#""cpl.rearrange.ns":{"count":"#));
    }

    #[test]
    fn ai_physics_coupled_run_is_stable() {
        let mut config = CoupledConfig::test_tiny();
        config.ai_physics = true;
        let world = World::new(config.world_size());
        let opts = CoupledOptions {
            days: 0.25,
            ..Default::default()
        };
        let all = world.run(|rank| run_coupled(rank, &config, &opts));
        let root = &all[0];
        for th in &root.theta_series {
            assert!(th.is_finite() && *th > 200.0 && *th < 500.0, "theta {th}");
        }
        for sst in &root.sst_series {
            assert!((-5.0..40.0).contains(sst), "SST {sst}");
        }
    }

    #[test]
    fn single_domain_matches_two_domain_layout() {
        // §5.1.2: the two task-layout strategies must produce the same
        // physics. With a 1×1 ocean decomposition in both layouts the
        // trajectories are bitwise identical.
        let opts = CoupledOptions {
            days: 0.5,
            ..Default::default()
        };
        let mut sequential = CoupledConfig::test_tiny();
        sequential.ocn_px = 1;
        sequential.ocn_py = 1;
        sequential.single_domain = true;
        assert_eq!(sequential.world_size(), 1);
        let world = World::new(1);
        let seq = world.run(|rank| run_coupled(rank, &sequential, &opts));

        let mut concurrent = sequential.clone();
        concurrent.single_domain = false;
        assert_eq!(concurrent.world_size(), 2);
        let world = World::new(2);
        let con = world.run(|rank| run_coupled(rank, &concurrent, &opts));

        assert_eq!(seq[0].sst_series.len(), con[0].sst_series.len());
        for (a, b) in seq[0].sst_series.iter().zip(&con[0].sst_series) {
            assert_eq!(a.to_bits(), b.to_bits(), "task layout changed physics");
        }
        for (a, b) in seq[0].ke_series.iter().zip(&con[0].ke_series) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn alltoall_and_p2p_coupling_agree() {
        let mut config = CoupledConfig::test_tiny();
        let opts = CoupledOptions {
            days: 0.5,
            ..Default::default()
        };
        config.strategy = ap3esm_cpl::rearrange::RearrangeStrategy::AllToAll;
        let world = World::new(config.world_size());
        let a = world.run(|rank| run_coupled(rank, &config, &opts));
        config.strategy = ap3esm_cpl::rearrange::RearrangeStrategy::NonBlockingP2p;
        let world = World::new(config.world_size());
        let b = world.run(|rank| run_coupled(rank, &config, &opts));
        // Identical physics — identical trajectories.
        assert_eq!(a[0].sst_series.len(), b[0].sst_series.len());
        for (x, y) in a[0].sst_series.iter().zip(&b[0].sst_series) {
            assert_eq!(x.to_bits(), y.to_bits(), "strategy changed the answer");
        }
    }
}
