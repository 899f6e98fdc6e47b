//! What a coupled run carries besides the model: one rank's observability
//! set-up (span profiler, recording into the world's event log; continuous
//! telemetry) and, in [`Session::finish`], the artifacts it leaves behind —
//! the telemetry snapshot, the diagnostics bundle, the run report, the
//! chrome trace and the critical-path analysis.

use std::sync::Arc;
use std::time::Instant;

use ap3esm_comm::collectives::gather;
use ap3esm_comm::Rank;
use ap3esm_cpl::Rearranger;
use ap3esm_obs::json::Json;
use ap3esm_obs::{AlertEngine, AlertEvent, Kind, MetricsServer, Obs, Sampler, SeriesStore};

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
    /// log becomes one chrome-trace file after the run.
    tracing: bool,
    telemetry: Option<Telemetry>,
}

impl Session {
    pub(crate) fn start(rank: &Rank, opts: &CoupledOptions) -> Self {
        let obs = Arc::new(Obs::new());
        let _obs_guard = ap3esm_obs::install(Arc::clone(&obs));
        let tracing = opts.trace && opts.report_name.is_some();
        // Black-box flight recorder and timeline tracing are the same log,
        // the world's: either turns it on (messages and journal entries
        // record from here on, no messages exchanged), tracing adds the
        // spans. Journals are keyed by *physical* rank id, so entries stay
        // attributable across shrinks.
        if opts.flightrec || tracing {
            rank.events().set_enabled(true);
            obs.profiler
                .attach(Arc::clone(rank.events()), rank.world_id());
            obs.profiler.set_tracing(tracing);
            ap3esm_obs::mark(Kind::Mark, "run.start", rank.generation(), 0);
        }
        let mut stats = CoupledStats::default();
        // Every rank takes part in the telemetry busy-time exchange; rank 0
        // additionally samples, runs the alert engine and the scrape
        // endpoint.
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
            telemetry,
        }
    }

    /// Rank 0's telemetry sample of the ocean coupling just completed
    /// (a no-op on every other rank and with telemetry off).
    pub(crate) fn sample(&mut self) {
        if let Some(t) = self.telemetry.as_mut() {
            t.sampler.sample(&self.obs);
        }
    }

    /// Close the run and write its artifacts. Collective over the final
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

        let (alerts, series_json) = self.stop_telemetry(opts);
        if opts.flightrec {
            self.dump_bundle(rank, opts, &alerts, series_json);
        }
        // A dead rank takes no part in the (collective) report: the
        // survivors build it over the shrunk membership without it.
        if let Some(name) = opts.report_name.as_ref().filter(|_| !self.stats.lost) {
            self.write_report(rank, config, name, alerts);
        }
        self.stats
    }

    /// Telemetry teardown before the report: the last coupling's sample is
    /// already in, so nothing is sampled here. The scrape endpoint stays up
    /// until the snapshot is on disk. Returns the alert firings and, for the
    /// diagnostics bundle, the final tsdb state.
    fn stop_telemetry(&mut self, opts: &CoupledOptions) -> (Vec<AlertEvent>, Option<String>) {
        let Some(t) = self.telemetry.take() else {
            return (Vec::new(), None);
        };
        let alerts = t.engine.events();
        self.stats.alerts = alerts.iter().map(|e| e.message.clone()).collect();
        if let Some(name) = &opts.report_name {
            self.stats.series_path = t.store.write_snapshot(name).ok();
        }
        let series_json = opts.flightrec.then(|| t.store.snapshot_json());
        if let Some(server) = t.server {
            server.stop();
        }
        (alerts, series_json)
    }

    /// Flight-recorder bundle: when the run ended in trouble, rank 0 dumps
    /// a self-contained diagnostics bundle before the (collective) report
    /// path, from a snapshot of the log — the later trace export still sees
    /// every event. Non-collective by design: dead ranks cannot be waited
    /// on.
    fn dump_bundle(
        &mut self,
        rank: &Rank,
        opts: &CoupledOptions,
        alerts: &[AlertEvent],
        series_json: Option<String>,
    ) {
        let stats = &mut self.stats;
        if stats.failure.is_some() {
            // What failed is the bundle's reason; when, this entry.
            ap3esm_obs::mark(Kind::Fault, "run.failed", 0, 0);
        }
        let troubled = stats.failure.is_some()
            || stats.shrinks > 0
            || stats.recoveries > 0
            || !stats.fault_events.is_empty();
        if rank.id() != 0 || !troubled {
            return;
        }
        let name = opts
            .bundle_name
            .clone()
            .or_else(|| opts.report_name.clone())
            .unwrap_or_else(|| format!("pid{}", std::process::id()));
        let reason = if let Some(f) = &stats.failure {
            format!("recovery-failure: {f}")
        } else if stats.shrinks > 0 {
            "shrink".to_string()
        } else if stats.fault_events.iter().any(|e| e.contains("deadlock")) {
            "deadlock".to_string()
        } else {
            "fault".to_string()
        };
        let spec = ap3esm_obs::BundleSpec {
            reason: &reason,
            events: &rank.events().snapshot(),
            series_json,
            alerts,
            fault_plan: rank.fault_injector().map(|i| i.plan().to_string()),
            scenario: None,
        };
        match ap3esm_obs::dump_bundle(&name, &spec) {
            Ok(dir) => {
                eprintln!("[flightrec] diagnostics bundle: {}", dir.display());
                stats.bundle_path = Some(dir);
            }
            Err(e) => eprintln!("[flightrec] bundle dump failed: {e}"),
        }
    }

    /// The run report. Paper §6.2 measurement rule: per-section times
    /// reduced to the maximum across ranks — collective, every rank
    /// participates. Softened: a report must never turn a degraded-but-
    /// successful run into a crash, so a failed aggregation just yields a
    /// thinner one.
    fn write_report(
        &mut self,
        rank: &Rank,
        config: &CoupledConfig,
        name: &str,
        alerts: Vec<AlertEvent>,
    ) {
        let is_root = rank.id() == 0;
        let spans = self.obs.profiler.snapshot();
        // Every rank's tree lands in the report, not just rank 0's.
        let gathered = gather(rank, 0x0B70, 0, spans.clone()).unwrap_or_else(|e| {
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
            return;
        }
        let per_rank = gathered.unwrap_or_default();
        let sections = ap3esm_obs::aggregate_sections(&per_rank);
        let trees = ap3esm_obs::rank_trees(&per_rank, 16, 512);
        if self.tracing {
            self.export_trace(rank, name, &trees);
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
        let mut report = ap3esm_obs::RunReport::new(name)
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
        report.spans = spans;
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
        stats.report_path = report.write().ok();
    }

    /// Timeline export: one snapshot of the world's log (complete since the
    /// barrier in [`Session::write_report`]) feeds the chrome trace and the
    /// end-of-run critical-path analysis (where did the SYPD go, and what
    /// would halving the top section buy?); the span trees become the
    /// folded stacks.
    fn export_trace(&mut self, rank: &Rank, name: &str, trees: &[ap3esm_obs::RankTree]) {
        let stats = &mut self.stats;
        let log = rank.events();
        for r in (0..log.n_ranks()).filter(|&r| log.evicted(r) > 0) {
            eprintln!(
                "[trace] rank {r}: {} events evicted (ring full)",
                log.evicted(r)
            );
        }
        let events = log.snapshot();
        stats.trace_path = ap3esm_obs::trace::write_trace(name, &events).ok();
        let folded = ap3esm_obs::trace::folded_stacks(trees);
        stats.folded_path = ap3esm_obs::trace::write_folded(name, &folded).ok();
        let analyzer = ap3esm_obs::Analyzer::new(&events).with_sypd(stats.sypd);
        stats.critpath = Some(analyzer.analyze());
    }
}
