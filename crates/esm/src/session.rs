//! What a coupled run carries besides the model: one rank's observability
//! set-up (span profiler, recording into the world's event log; continuous
//! telemetry) and, in [`Session::finish`], the one directory it leaves
//! behind — the run report with its critical-path analysis, the chrome trace
//! of the event log, the telemetry series and alerts — whose manifest's reason
//! is `"ok"` or the trouble the run ended in.

use std::sync::Arc;
use std::time::Instant;

use ap3esm_comm::collectives::gather;
use ap3esm_comm::Rank;
use ap3esm_cpl::Rearranger;
use ap3esm_obs::json::Json;
use ap3esm_obs::{
    AlertEngine, AlertEvent, Event, Kind, MetricsServer, Obs, RunDir, RunReport, Sampler,
    SeriesStore,
};

use crate::config::CoupledConfig;
use crate::coupled::{CoupledOptions, CoupledStats, TelemetryOptions};
use crate::timing::get_timing;

/// Rank 0's continuous-telemetry machinery.
struct Telemetry {
    store: Arc<SeriesStore>,
    engine: Arc<AlertEngine>,
    sampler: Sampler,
    server: Option<MetricsServer>,
}

impl Telemetry {
    fn start(obs: &Arc<Obs>, t: &TelemetryOptions) -> Self {
        let store = Arc::new(SeriesStore::default());
        let engine = Arc::new(AlertEngine::new(t.rules.clone()));
        let sampler = Sampler::new(Arc::clone(&store), Arc::clone(&engine));
        let server = t.metrics_addr.as_ref().map(|addr| {
            let engine = Some(Arc::clone(&engine));
            MetricsServer::start(addr, Arc::clone(obs), Arc::clone(&store), engine)
                .expect("bind OpenMetrics endpoint")
        });
        Telemetry {
            store,
            engine,
            sampler,
            server,
        }
    }
}

/// One rank's run: stats and the observability around them.
/// Everything here survives world reconstruction after a shrink.
pub(crate) struct Session {
    pub(crate) stats: CoupledStats,
    pub(crate) t_start: Instant,
    /// One observability instance per rank: the driver's sections and the
    /// leaf-crate spans (dycore substeps, rearranger, sub-file I/O) land in
    /// one tree, whose roots are [`CoupledStats::per_section_seconds`].
    pub(crate) obs: Arc<Obs>,
    _obs_guard: ap3esm_obs::InstallGuard,
    /// Timeline tracing: this rank's spans go to the event log too, and the
    /// run's chrome trace carries them.
    tracing: bool,
    /// The world's event log records (flight recorder or tracing): the
    /// run directory gets its `trace.json`.
    recording: bool,
    telemetry: Option<Telemetry>,
}

impl Session {
    /// Install this rank's observability and, on rank 0 with
    /// `opts.telemetry`, start the series store, alert engine and scrape
    /// endpoint. Sends nothing: telemetry's inputs from the other ranks
    /// arrive on the ocean export.
    pub(crate) fn start(rank: &Rank, opts: &CoupledOptions) -> Self {
        let obs = Arc::new(Obs::new());
        let _obs_guard = ap3esm_obs::install(Arc::clone(&obs));
        let tracing = opts.trace && opts.report_name.is_some();
        let recording = opts.flightrec || tracing;
        // Black-box flight recorder and timeline tracing are the same log,
        // the world's: either turns it on (messages and journal entries
        // record from here on, no messages exchanged), tracing adds the
        // spans. Journals are keyed by *physical* rank id, so entries stay
        // attributable across shrinks.
        if recording {
            rank.events().set_enabled(true);
            obs.profiler
                .attach(Arc::clone(rank.events()), rank.world_id());
            obs.profiler.set_tracing(tracing);
            ap3esm_obs::mark(Kind::Mark, "run.start", rank.generation(), 0);
        }
        let mut stats = CoupledStats::default();
        // Rank 0 alone samples, runs the alert engine and the scrape
        // endpoint; the other ranks' busy seconds reach it on the ocean
        // export they post anyway.
        let is_root = rank.id() == 0;
        let telemetry = opts
            .telemetry
            .as_ref()
            .filter(|_| is_root)
            .map(|t| Telemetry::start(&obs, t));
        if let Some(server) = telemetry.as_ref().and_then(|t| t.server.as_ref()) {
            stats.metrics_addr = Some(server.local_addr().to_string());
        }
        if is_root {
            ap3esm_obs::gauge_set("sim.degraded_ranks", 0.0);
        }
        Session {
            stats,
            t_start: Instant::now(),
            obs,
            _obs_guard,
            tracing,
            recording,
            telemetry,
        }
    }

    /// Rank 0's telemetry sample of the ocean coupling whose export just
    /// arrived (a no-op on every other rank and with telemetry off).
    pub(crate) fn sample(&mut self) {
        if let Some(t) = self.telemetry.as_mut() {
            t.sampler.sample(&self.obs);
        }
    }

    /// Close the run and write its directory. Collective over the final
    /// membership when a report was asked for.
    pub(crate) fn finish(
        mut self,
        rank: &Rank,
        config: &CoupledConfig,
        opts: &CoupledOptions,
    ) -> CoupledStats {
        // Injected faults that actually fired (message faults, kills,
        // corruptions) join the locally observed comm faults in one stream.
        if let Some(inj) = rank.fault_injector() {
            let fired = inj.fired().into_iter().map(|f| f.description);
            self.stats.fault_events.extend(fired);
        }
        self.stats.wall_seconds = self.t_start.elapsed().as_secs_f64();
        self.stats.sypd = get_timing(self.stats.simulated_seconds, self.stats.wall_seconds);
        let sections = &mut self.stats.per_section_seconds;
        let profiler = &self.obs.profiler;
        profiler.for_each_root(|name, secs| sections.push((name.to_string(), secs)));
        sections.sort_by(|a, b| a.0.cmp(&b.0));

        let telemetry = self.stop_telemetry();
        if self.stats.failure.is_some() {
            // What failed is the manifest's reason; when, this entry.
            ap3esm_obs::mark(Kind::Fault, "run.failed", 0, 0);
        }
        let alerts = telemetry.as_ref().map(|t| t.0.clone()).unwrap_or_default();
        // A dead rank takes no part in the (collective) report: the
        // survivors build it over the shrunk membership without it.
        let report_name = opts.report_name.as_ref().filter(|_| !self.stats.lost);
        let trouble = trouble(&self.stats);
        let reason = trouble.as_deref().unwrap_or("ok");
        let mut dir = None;
        if rank.id() == 0 && trouble.is_some() && (opts.flightrec || report_name.is_some()) {
            // A run in trouble leaves its evidence before the report step,
            // whose gather and barrier a broken world may never complete.
            dir = self.start_run_dir(rank, opts, reason, telemetry.as_ref());
            self.write_events(dir.as_ref(), &rank.events().snapshot());
        }
        let reported = report_name.and_then(|name| self.report(rank, config, name, alerts));
        if let Some((report, events)) = reported {
            let dir = dir.or_else(|| self.start_run_dir(rank, opts, reason, telemetry.as_ref()));
            if let Some(d) = &dir {
                if let Err(e) = d.write_report(&report) {
                    eprintln!("[obs] {}: report not written: {e}", d.path().display());
                }
            }
            // The snapshot the critical path was analyzed from, complete
            // past the report's barrier.
            self.write_events(dir.as_ref(), &events);
        }
        self.stats
    }

    /// Telemetry teardown before the report: the last coupling's sample is
    /// already in, so nothing is sampled here and the scrape endpoint stops.
    /// Returns the alert firings and the final tsdb state.
    fn stop_telemetry(&mut self) -> Option<(Vec<AlertEvent>, String)> {
        let t = self.telemetry.take()?;
        let alerts = t.engine.events();
        self.stats.alerts = alerts.iter().map(|e| e.message.clone()).collect();
        if let Some(server) = t.server {
            server.stop();
        }
        Some((alerts, t.store.snapshot_json()))
    }

    /// The run report. Paper §6.2 measurement rule: per-section times
    /// reduced to the maximum across ranks — collective, every rank
    /// participates. Softened: a report must never turn a degraded-but-
    /// successful run into a crash, so a failed aggregation just yields a
    /// thinner one. Rank 0 gets the report and the log snapshot its
    /// critical path was analyzed from.
    fn report(
        &mut self,
        rank: &Rank,
        config: &CoupledConfig,
        name: &str,
        alerts: Vec<AlertEvent>,
    ) -> Option<(RunReport, Vec<Vec<Event>>)> {
        let is_root = rank.id() == 0;
        let spans = self.obs.profiler.snapshot();
        // Every rank's tree lands in the report, not just rank 0's.
        let gathered = gather(rank, 0x0B70, 0, spans).unwrap_or_else(|e| {
            eprintln!("[report] span gather failed: {e}");
            None
        });
        if self.tracing {
            // This rank's spans are all closed; past the barrier every
            // rank's are, and rank 0 may read the timeline.
            self.obs.profiler.set_tracing(false);
            rank.barrier();
        }
        if !is_root {
            return None;
        }
        let per_rank = gathered.unwrap_or_default();
        let sections = ap3esm_obs::aggregate_sections(&per_rank);
        let trees = ap3esm_obs::rank_trees(&per_rank, 16, 512);
        // One snapshot for the analysis and the run directory's trace.
        let events = rank.events().snapshot();
        if self.tracing {
            self.analyze_trace(rank, &events);
        }
        let stats = &mut self.stats;
        let comm = rank.stats();
        let stream = |label: &str, tags: [u64; 2]| {
            let (m, b) = tags.iter().fold((0u64, 0u64), |(m, b), &t| {
                let (tm, tb) = comm.tag_traffic(t);
                (m + tm, b + tb)
            });
            (label.to_string(), m, b)
        };
        let layout = if config.single_domain {
            "sequential"
        } else {
            "concurrent"
        };
        let fault_events = stats.fault_events.iter().cloned().map(Json::Str).collect();
        let mut report = RunReport::new(name)
            .meta("world_size", rank.size())
            .meta("launched_world_size", rank.world_size())
            .meta("generation", rank.generation())
            .meta("layout", layout)
            .meta("strategy", format!("{:?}", config.strategy).as_str())
            .meta("simulated_seconds", stats.simulated_seconds)
            .meta("wall_seconds", stats.wall_seconds)
            .meta("sypd", stats.sypd)
            .meta("recoveries", stats.recoveries as u64)
            .meta("shrinks", stats.shrinks as u64)
            .meta("degraded_ranks", stats.degraded_ranks as u64)
            .meta("failure", stats.failure.as_deref().unwrap_or(""))
            .meta("fault_events", Json::Arr(fault_events));
        report.alerts = alerts;
        report.sections = sections;
        report.rank_trees = trees;
        report.metrics = self.obs.metrics.snapshot();
        report.critpath = stats.critpath.as_ref().map(|a| a.to_json());
        report.comm = Some(ap3esm_obs::CommSummary {
            total_messages: comm.total_messages(),
            total_bytes: comm.total_bytes(),
            top_pairs: comm.top_pairs(5),
            streams: vec![
                stream("cpl_scatter", Rearranger::wire_tags_for(21)),
                stream("cpl_gather", Rearranger::wire_tags_for(22)),
            ],
        });
        stats.report_json = Some(report.to_json());
        Some((report, events))
    }

    /// End-of-run critical-path analysis of the traced timeline (complete
    /// since the barrier in [`Session::report`]): where did the SYPD go,
    /// and what would halving the top section buy? The analyzer reads the
    /// snapshot as its `trace.json` draws it, so `obs critpath DIR --check`
    /// agrees with the report byte for byte.
    fn analyze_trace(&mut self, rank: &Rank, events: &[Vec<Event>]) {
        let log = rank.events();
        for r in (0..log.n_ranks()).filter(|&r| log.evicted(r) > 0) {
            eprintln!(
                "[trace] rank {r}: {} events evicted (ring full)",
                log.evicted(r)
            );
        }
        let analyzer = ap3esm_obs::Analyzer::new(events).with_sypd(self.stats.sypd);
        self.stats.critpath = Some(analyzer.analyze());
    }

    /// Rank 0 starts the run's one directory, `target/obs/<name>/`, with
    /// what is known before the report step: the telemetry's alerts and
    /// series and the fault plan. Non-collective by design: dead ranks
    /// cannot be waited on.
    fn start_run_dir(
        &mut self,
        rank: &Rank,
        opts: &CoupledOptions,
        reason: &str,
        telemetry: Option<&(Vec<AlertEvent>, String)>,
    ) -> Option<RunDir> {
        let name = opts
            .report_name
            .clone()
            .or_else(|| opts.bundle_name.clone())
            .unwrap_or_else(|| format!("pid{}", std::process::id()));
        let started = RunDir::create(&name, reason).and_then(|dir| {
            if let Some((alerts, series)) = telemetry {
                dir.write_telemetry(alerts, series)?;
            }
            if let Some(inj) = rank.fault_injector() {
                dir.write("faultplan.txt", &inj.plan().to_string())?;
            }
            Ok(dir)
        });
        match started {
            Ok(dir) => {
                if reason != "ok" {
                    eprintln!("[flightrec] {reason}: {}", dir.path().display());
                }
                self.stats.run_dir = Some(dir.path().to_path_buf());
                Some(dir)
            }
            Err(e) => {
                eprintln!("[obs] run directory {name} not written: {e}");
                None
            }
        }
    }

    /// One event-log snapshot as the directory's `trace.json`, when the log
    /// recorded.
    fn write_events(&self, dir: Option<&RunDir>, events: &[Vec<Event>]) {
        let Some(dir) = dir.filter(|_| self.recording) else {
            return;
        };
        if let Err(e) = dir.write_events(events) {
            eprintln!("[obs] {}: events not written: {e}", dir.path().display());
        }
    }
}

/// The trouble a run ended in, `None` for a clean one: the reason its
/// directory's manifest names.
fn trouble(stats: &CoupledStats) -> Option<String> {
    if let Some(f) = &stats.failure {
        Some(format!("recovery-failure: {f}"))
    } else if stats.shrinks > 0 {
        Some("shrink".to_string())
    } else if stats.fault_events.iter().any(|e| e.contains("deadlock")) {
        Some("deadlock".to_string())
    } else if stats.recoveries > 0 || !stats.fault_events.is_empty() {
        Some("fault".to_string())
    } else {
        None
    }
}
