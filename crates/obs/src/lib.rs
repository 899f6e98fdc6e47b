//! # AP3ESM unified observability layer (`ap3esm-obs`)
//!
//! The paper's §6.2 measurement methodology in library form, shared by the
//! coupled driver, the component dycores, the coupler and the I/O layer:
//!
//! * [`event`] — the event model's codec. The world owns one bounded
//!   per-rank log of one typed event ([`EventLog`], [`Event`]: spans,
//!   messages, journal entries — defined in `ap3esm-comm` so that `comm`
//!   can record into it); this module moves events to and from their one
//!   row shape, the chrome-trace row, and decodes a whole `trace.json` back
//!   into a snapshot. Every exporter below is a plain function of one log
//!   snapshot, `&[Vec<Event>]`.
//! * [`mod@span`] — a hierarchical wall-clock profiler: nestable named spans
//!   form a call tree (GPTL-analogue), with per-node total time, self time
//!   and call counts; the rank's front end to the event log (traced spans,
//!   [`mark()`]). Entering a span when profiling is disabled costs one
//!   relaxed atomic load; a warm enter/drop allocates nothing.
//! * [`rundir`] — [`RunDir`]: one run, one directory. Everything a run
//!   leaves lands in `target/obs/<name>/` through one writer, indexed by a
//!   `manifest.json` whose `reason` is `"ok"` or the trouble the run ended
//!   in; every offline tool (`examples/obs.rs`) takes that directory.
//! * [`trace`] — [`trace::chrome_trace`]: a snapshot as one Chrome Trace
//!   Event Format timeline (a run's `trace.json`, openable in Perfetto), one
//!   `pid` per rank, with send/recv flow arrows; plus the span trees as
//!   collapsed stacks (`folded.txt`).
//! * [`msgflow`] — [`pair_fifo`]: the k-th send on a `(src, dst, tag)`
//!   channel matches the k-th recv. The one pairing behind the flow arrows,
//!   the postmortem and the critical path.
//! * [`flightrec`] — [`flightrec::journal`], [`analyze`]: a snapshot as a
//!   merged cross-rank journal, and the postmortem that names the
//!   first-stalled rank from a run directory's `trace.json` alone.
//! * [`critpath`] — [`Analyzer`]: a snapshot as a cross-rank activity
//!   graph; critical path, Scalasca-style wait classes (late-sender,
//!   late-receiver, collective, timeout) and their blame, per-section
//!   costs, what-if projections with wire times from the
//!   [`ap3esm_machine`] α–β model.
//! * [`rankagg`] — the paper's rule, "the maximum value across all MPI
//!   ranks": per-section max/min/mean and imbalance over the gathered span
//!   snapshots, and every rank's bounded span tree.
//! * [`metrics`] — a registry of named counters, gauges and log-bucketed
//!   histograms (p50/p95/max), all atomic on the hot path.
//! * [`report`] — the run report (`ap3esm-obs/6`): sections, rank trees,
//!   metrics, alerts, critical path and comm summary as one JSON object per
//!   run, its directory's `report.json`.
//! * [`json`] — the one JSON value, writer and parser every artifact uses.
//! * [`tsdb`], [`openmetrics`], [`alert`] — continuous telemetry: a
//!   time-series store with downsampling tiers, sampled by the owner of the
//!   numbers where they change (the coupled driver once per ocean
//!   coupling), its OpenMetrics exposition and scrape endpoint, and
//!   declarative SLO/anomaly rules that observe each sample as it is stored
//!   (a sampled-series store, not an event log: firings are journaled, the
//!   series are not events).
//! * [`perf`] — the build stamp ([`BuildInfo`]) every artifact above carries.
//!   Nothing in this crate times the repository: that is `benchmark/`
//!   (DESIGN.md §12).
//!
//! Leaf crates instrument hot paths through the free functions below
//! ([`span()`], [`counter_add()`], …), which act on a **thread-local active
//! [`Obs`]** installed by the driver with [`install`]. A rank thread with no
//! active `Obs` (every unit test of the physics crates, and any production
//! run that did not opt in) pays only a thread-local read per call, so the
//! bitwise trajectory of the model is unchanged whether or not profiling is
//! on — timing is observed, never consulted.

// The threshold is `too-many-lines-threshold` in the workspace-root
// clippy.toml; an exporter that outgrows it wants splitting, not allowing.
#![deny(clippy::too_many_lines)]

pub mod alert;
pub mod critpath;
pub mod event;
pub mod flightrec;
pub mod json;
pub mod metrics;
pub mod msgflow;
pub mod openmetrics;
pub mod perf;
pub mod rankagg;
pub mod report;
pub mod rundir;
pub mod span;
pub mod trace;
pub mod tsdb;

pub use alert::{
    parse_rules, serve_rules, sim_rules, AlertEngine, AlertEvent, Rule, RuleKind, RuleStatus,
};
pub use critpath::{Analysis, Analyzer, WaitClass};
pub use event::{Event, EventLog, Kind, Name};
pub use flightrec::{analyze, Postmortem};
pub use metrics::{Counter, Gauge, Histogram, MetricSnapshot, Metrics};
pub use msgflow::{pair_fifo, FlowPairing, PairedMessage, UnpairedSend};
pub use openmetrics::MetricsServer;
pub use perf::{BuildInfo, Direction, Stat};
pub use rankagg::{aggregate_sections, rank_trees, RankTree, SectionStats};
pub use report::{alert_event_json, CommSummary, RunReport};
pub use rundir::RunDir;
pub use span::{Profiler, SpanGuard, SpanSnapshot};
pub use tsdb::{Sampler, SeriesSnapshot, SeriesStore};

use std::cell::RefCell;
use std::sync::Arc;

/// One rank's observability state: a span profiler plus a metrics registry.
#[derive(Default)]
pub struct Obs {
    pub profiler: Profiler,
    pub metrics: Metrics,
}

impl Obs {
    /// A fully enabled instance.
    pub fn new() -> Self {
        Obs::default()
    }

    /// An instance whose profiler ignores every span (for overhead tests).
    pub fn disabled() -> Self {
        Obs {
            profiler: Profiler::disabled(),
            metrics: Metrics::default(),
        }
    }
}

thread_local! {
    static ACTIVE: RefCell<Vec<Arc<Obs>>> = const { RefCell::new(Vec::new()) };
}

/// Makes `obs` the calling thread's active instance until the guard drops;
/// installs nest (the previous instance is restored).
pub fn install(obs: Arc<Obs>) -> InstallGuard {
    ACTIVE.with(|a| a.borrow_mut().push(obs));
    InstallGuard { _private: () }
}

/// RAII guard returned by [`install`].
pub struct InstallGuard {
    _private: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| {
            a.borrow_mut().pop();
        });
    }
}

/// The calling thread's active instance, if one is installed.
pub fn active() -> Option<Arc<Obs>> {
    ACTIVE.with(|a| a.borrow().last().cloned())
}

/// Opens a span on the active profiler; a no-op guard when none is
/// installed or profiling is disabled.
pub fn span(name: &str) -> SpanGuard {
    match active() {
        Some(obs) => obs.profiler.enter(name),
        None => SpanGuard::inactive(),
    }
}

/// Adds to a named counter on the active metrics registry (no-op without
/// an active instance).
pub fn counter_add(name: &str, delta: u64) {
    if let Some(obs) = active() {
        obs.metrics.counter(name).add(delta);
    }
}

/// Sets a named gauge on the active metrics registry.
pub fn gauge_set(name: &str, value: f64) {
    if let Some(obs) = active() {
        obs.metrics.gauge(name).set(value);
    }
}

/// Records a value into a named histogram on the active metrics registry.
pub fn histogram_record(name: &str, value: u64) {
    if let Some(obs) = active() {
        obs.metrics.histogram(name).record(value);
    }
}

/// Journals `kind` (fault injection, health verdict, rollback, checkpoint
/// begin/commit…) under the marker `name` in the active profiler's event
/// log: one entry, an instant in the run's chrome trace. A no-op without
/// an active instance or an attached, enabled log.
pub fn mark(kind: Kind, name: &str, a: u64, b: u64) {
    if let Some(obs) = active() {
        obs.profiler.mark(kind, name, a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_functions_are_noops_without_install() {
        // Must not panic or allocate state anywhere observable.
        let _g = span("orphan");
        counter_add("orphan", 1);
        gauge_set("orphan", 1.0);
        histogram_record("orphan", 1);
        assert!(active().is_none());
    }

    #[test]
    fn install_scopes_nest_and_restore() {
        let a = Arc::new(Obs::new());
        let b = Arc::new(Obs::new());
        {
            let _ga = install(Arc::clone(&a));
            assert!(Arc::ptr_eq(&active().unwrap(), &a));
            {
                let _gb = install(Arc::clone(&b));
                assert!(Arc::ptr_eq(&active().unwrap(), &b));
                counter_add("hits", 2);
            }
            assert!(Arc::ptr_eq(&active().unwrap(), &a));
            counter_add("hits", 1);
        }
        assert!(active().is_none());
        assert_eq!(a.metrics.counter("hits").get(), 1);
        assert_eq!(b.metrics.counter("hits").get(), 2);
    }

    #[test]
    fn spans_route_to_the_installed_profiler() {
        let obs = Arc::new(Obs::new());
        {
            let _i = install(Arc::clone(&obs));
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let snap = obs.profiler.snapshot();
        let paths: Vec<&str> = snap.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer/inner"]);
    }
}
