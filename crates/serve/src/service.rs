//! The inference service: submission front door, micro-batching worker
//! pool on `pp::Threads`, and graceful drain.
//!
//! Data path: `submit` → admission (token bucket) → bounded queue →
//! batch former → worker grabs `registry.current()` → one
//! `predict_batch` forward per batch → per-request scatter over mpsc
//! oneshots. Everything is instrumented through `obs`:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `serve.submitted` | counter | submit calls |
//! | `serve.served` | counter | requests resolved with a result |
//! | `serve.shed` | counter | rejected `Overloaded` |
//! | `serve.rate_limited` | counter | rejected `RateLimited` |
//! | `serve.rejected_draining` | counter | rejected `Draining` |
//! | `serve.batches` | counter | forwards run |
//! | `serve.worker_restarts` | counter | panicking forwards caught and worker restarted |
//! | `serve.queue_depth` | gauge | depth after last accepted submit |
//! | `serve.batch_size` | histogram | requests per forward |
//! | `serve.queue_wait_us` | histogram | enqueue → batch pickup |
//! | `serve.forward_us` | histogram | batched forward wall time |
//! | `serve.latency_us` | histogram | enqueue → result scatter |
//!
//! Workers also open a `serve.batch` span per forward, so batches appear
//! in span trees and chrome traces next to the simulation's own sections.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ap3esm_ai::modules::{ColumnState, ColumnTendency};
use ap3esm_obs::metrics::{Counter, Gauge, Histogram};
use ap3esm_obs::{Kind, Obs};
use ap3esm_pp::exec::{ExecSpace, Threads};
use parking_lot::Mutex;

use crate::admission::Admission;
use crate::batcher::{BatchQueue, Pending};
use crate::error::ServeError;
use crate::registry::ModelRegistry;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Inference workers on the `pp::Threads` pool.
    pub workers: usize,
    /// Batch closes when this many requests are waiting...
    pub max_batch: usize,
    /// ...or when the oldest waiting request is this old.
    pub max_wait: Duration,
    /// Bounded submission queue; beyond this, requests shed `Overloaded`.
    pub queue_capacity: usize,
    /// Default per-tenant token refill rate (tokens/s).
    pub tenant_rate: f64,
    /// Default per-tenant burst size (bucket capacity).
    pub tenant_burst: f64,
    /// Latency budget admitted requests should meet (recorded in reports;
    /// the integration test asserts p95 against it).
    pub deadline_budget: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            queue_capacity: 256,
            tenant_rate: 1.0e6,
            tenant_burst: 1.0e6,
            deadline_budget: Duration::from_secs(2),
        }
    }
}

/// A pending response: resolves to the tendency or a structured error.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<ColumnTendency, ServeError>>,
}

impl Ticket {
    /// Block until the request resolves. A disconnected worker (which the
    /// drain protocol makes impossible) surfaces as `Dropped` rather than
    /// a hang or a panic.
    pub fn wait(self) -> Result<ColumnTendency, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Dropped))
    }

    /// Non-blocking poll; `None` while still in flight.
    pub fn try_wait(&self) -> Option<Result<ColumnTendency, ServeError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Dropped)),
        }
    }
}

struct ServeMetrics {
    submitted: Arc<Counter>,
    served: Arc<Counter>,
    shed: Arc<Counter>,
    rate_limited: Arc<Counter>,
    rejected_draining: Arc<Counter>,
    batches: Arc<Counter>,
    worker_restarts: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    batch_size: Arc<Histogram>,
    queue_wait_us: Arc<Histogram>,
    forward_us: Arc<Histogram>,
    latency_us: Arc<Histogram>,
}

/// The serving path's `perf.serve.*` readings from a service's `Obs`:
/// end-to-end latency p50/p95 and the batched forward's p50
/// (lower-is-better); shed rate, mean batch size and queue-wait p95 are
/// informational context (their "goodness" depends on offered load).
/// Histogram percentiles carry the p50→p95 spread as their dispersion.
/// `benchmark/` reads its `serve.*` layer metrics from here.
pub fn perf_snapshot(obs: &Obs) -> Vec<(String, ap3esm_obs::perf::Stat)> {
    use ap3esm_obs::perf::{Direction, Stat};
    let m = &obs.metrics;
    let latency = m.histogram("serve.latency_us").summary();
    let forward = m.histogram("serve.forward_us").summary();
    let queue_wait = m.histogram("serve.queue_wait_us").summary();
    let batch = m.histogram("serve.batch_size").summary();
    let submitted = m.counter("serve.submitted").get();
    let shed = m.counter("serve.shed").get();
    let spread = (latency.p95.saturating_sub(latency.p50)) as f64;
    vec![
        (
            "perf.serve.latency_p50_us".to_string(),
            Stat::sampled(latency.p50 as f64, "us", latency.count, spread, Direction::LowerIsBetter),
        ),
        (
            "perf.serve.latency_p95_us".to_string(),
            Stat::sampled(latency.p95 as f64, "us", latency.count, spread, Direction::LowerIsBetter),
        ),
        (
            "perf.serve.forward_p50_us".to_string(),
            Stat::sampled(
                forward.p50 as f64,
                "us",
                forward.count,
                (forward.p95.saturating_sub(forward.p50)) as f64,
                Direction::LowerIsBetter,
            ),
        ),
        (
            "perf.serve.queue_wait_p95_us".to_string(),
            Stat::sampled(queue_wait.p95 as f64, "us", queue_wait.count, 0.0, Direction::Informational),
        ),
        (
            "perf.serve.batch_size_mean".to_string(),
            Stat::sampled(batch.mean, "reqs", batch.count, 0.0, Direction::Informational),
        ),
        (
            "perf.serve.shed_rate".to_string(),
            Stat::single(
                if submitted == 0 { 0.0 } else { shed as f64 / submitted as f64 },
                "ratio",
                Direction::Informational,
            ),
        ),
    ]
}

impl ServeMetrics {
    fn new(obs: &Obs) -> Self {
        let m = &obs.metrics;
        ServeMetrics {
            submitted: m.counter("serve.submitted"),
            served: m.counter("serve.served"),
            shed: m.counter("serve.shed"),
            rate_limited: m.counter("serve.rate_limited"),
            rejected_draining: m.counter("serve.rejected_draining"),
            batches: m.counter("serve.batches"),
            worker_restarts: m.counter("serve.worker_restarts"),
            queue_depth: m.gauge("serve.queue_depth"),
            batch_size: m.histogram("serve.batch_size"),
            queue_wait_us: m.histogram("serve.queue_wait_us"),
            forward_us: m.histogram("serve.forward_us"),
            latency_us: m.histogram("serve.latency_us"),
        }
    }
}

/// Shared core the worker pool runs against. Kept separate from
/// [`Service`] so the supervisor thread holds *this* and not the service
/// itself — otherwise dropping the last user handle could never trigger
/// the drain that lets the supervisor exit.
struct Inner {
    registry: Arc<ModelRegistry>,
    queue: BatchQueue,
    obs: Arc<Obs>,
    metrics: ServeMetrics,
    /// Black-box ticket-lifecycle journal: a one-rank event log (the
    /// service is one process). submit/done/shed entries cost one relaxed
    /// load plus a bounded ring push, no allocation; on a worker crash the
    /// tail is written to a run directory.
    events: ap3esm_obs::EventLog,
    /// Monotonic ticket id source for the journal.
    ticket_seq: std::sync::atomic::AtomicU64,
}

impl Inner {
    /// One worker's life: pull batches until drain-and-empty.
    fn worker_loop(&self) {
        let _obs_guard = ap3esm_obs::install(Arc::clone(&self.obs));
        while let Some(batch) = self.queue.next_batch() {
            let _span = ap3esm_obs::span("serve.batch");
            let picked_up = Instant::now();
            self.metrics.batches.add(1);
            self.metrics.batch_size.record(batch.len() as u64);
            for p in &batch {
                let wait = picked_up.saturating_duration_since(p.enqueued);
                self.metrics.queue_wait_us.record(wait.as_micros() as u64);
            }
            // Pin the model version for the whole batch: a hot-swap mid-run
            // lands cleanly on a batch boundary.
            let model = self.registry.current();
            let columns: Vec<ColumnState> = batch.iter().map(|p| p.input.clone()).collect();
            let t0 = Instant::now();
            // The batch stays out here: if the forward panics, the tickets
            // must still be failed with a structured error, not dropped.
            let outputs = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                model.tendency.predict_batch(&columns)
            }));
            self.metrics
                .forward_us
                .record(t0.elapsed().as_micros() as u64);
            let outputs = match outputs {
                Ok(outputs) => outputs,
                Err(payload) => {
                    let detail = panic_detail(&*payload);
                    self.metrics.worker_restarts.add(1);
                    eprintln!(
                        "[serve] model forward panicked ({detail}); failing {} ticket(s) \
                         and restarting the worker",
                        batch.len()
                    );
                    let n = batch.len() as u64;
                    self.events.mark(0, Kind::Fault, "serve.worker_crashed", n, 0);
                    for p in batch {
                        self.events.mark(0, Kind::ServeShed, "worker-crashed", p.id, 0);
                        let _ = p.tx.send(Err(ServeError::WorkerCrashed {
                            detail: detail.clone(),
                        }));
                    }
                    // The run directory is the crash's black box: the
                    // ticket tail leading up to the panicking forward, with
                    // the panic text as its reason, ready for
                    // `flightrec::analyze`/diagnose.sh.
                    let name = format!("serve-crash-pid{}", std::process::id());
                    let reason = format!("serve-worker-crash: {detail}");
                    let written = ap3esm_obs::RunDir::create(&name, &reason).and_then(|dir| {
                        dir.write_events(&self.events.snapshot())?;
                        Ok(dir)
                    });
                    match written {
                        Ok(dir) => eprintln!("[serve] run directory: {}", dir.path().display()),
                        Err(e) => eprintln!("[serve] run directory {name} not written: {e}"),
                    }
                    continue;
                }
            };
            for (p, out) in batch.into_iter().zip(outputs) {
                let latency = p.enqueued.elapsed();
                self.metrics.latency_us.record(latency.as_micros() as u64);
                self.metrics.served.add(1);
                let latency_us = latency.as_micros() as u64;
                self.events.mark(0, Kind::ServeDone, "", p.id, latency_us);
                // A client that gave up (dropped its Ticket) is fine.
                let _ = p.tx.send(Ok(out));
            }
        }
    }
}

/// Best-effort panic message extraction for [`ServeError::WorkerCrashed`].
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The running service. `Arc`-share it between client threads; `drain`
/// (or dropping the last handle) shuts it down gracefully.
pub struct Service {
    cfg: ServeConfig,
    admission: Admission,
    inner: Arc<Inner>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    nlev: usize,
}

impl Service {
    /// Spawn the worker pool and start serving.
    pub fn start(cfg: ServeConfig, registry: Arc<ModelRegistry>, obs: Arc<Obs>) -> Arc<Service> {
        let nlev = registry.nlev();
        let events = ap3esm_obs::EventLog::new(1);
        events.set_enabled(true);
        let inner = Arc::new(Inner {
            metrics: ServeMetrics::new(&obs),
            queue: BatchQueue::new(cfg.queue_capacity, cfg.max_batch, cfg.max_wait),
            registry,
            obs,
            events,
            ticket_seq: std::sync::atomic::AtomicU64::new(1),
        });

        // The supervisor owns the pp::Threads pool. `for_each(workers, ..)`
        // turns each index into one long-running serve worker; it returns
        // only when every worker loop has observed drain-and-empty, so
        // joining the supervisor is joining the whole pool.
        let inner2 = Arc::clone(&inner);
        let workers = cfg.workers.max(1);
        let handle = std::thread::Builder::new()
            .name("serve-supervisor".into())
            .spawn(move || {
                let pool = Threads::new(workers);
                let worker = |_wi: usize| inner2.worker_loop();
                pool.for_each(workers, &worker);
            })
            .expect("spawn serve supervisor");

        Arc::new(Service {
            admission: Admission::new(cfg.tenant_rate, cfg.tenant_burst),
            supervisor: Mutex::new(Some(handle)),
            inner,
            nlev,
            cfg,
        })
    }

    /// Convenience: start on a warm registry with default obs.
    pub fn start_warm(cfg: ServeConfig, nlev: usize, width: usize, seed: u64) -> Arc<Service> {
        Service::start(
            cfg,
            Arc::new(ModelRegistry::warm(nlev, width, seed, "warm-v1")),
            Arc::new(Obs::new()),
        )
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.inner.registry
    }

    pub fn obs(&self) -> &Arc<Obs> {
        &self.inner.obs
    }

    /// Current submission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.depth()
    }

    /// The service's black-box ticket journal (submit/done/shed entries;
    /// written to a run directory when a worker crashes).
    pub fn events(&self) -> &ap3esm_obs::EventLog {
        &self.inner.events
    }

    /// Override one tenant's rate limit.
    pub fn set_tenant_limit(&self, tenant: &str, rate: f64, burst: f64) {
        self.admission.set_tenant_limit(tenant, rate, burst);
    }

    /// Submit one column for tendency inference. Fails fast with a
    /// structured error instead of queueing unboundedly.
    pub fn submit(&self, tenant: &str, column: ColumnState) -> Result<Ticket, ServeError> {
        let m = &self.inner.metrics;
        m.submitted.add(1);
        if column.nlev() != self.nlev {
            return Err(ServeError::BadRequest(format!(
                "column has {} levels, model serves {}",
                column.nlev(),
                self.nlev
            )));
        }
        if !self.admission.admit(tenant) {
            m.rate_limited.add(1);
            return Err(ServeError::RateLimited {
                tenant: tenant.to_string(),
            });
        }
        let (tx, rx) = mpsc::channel();
        let id = self
            .inner
            .ticket_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.events.mark(0, Kind::ServeSubmit, tenant, id, 0);
        let pending = Pending {
            id,
            input: column,
            enqueued: Instant::now(),
            tx,
        };
        match self.inner.queue.try_push(pending) {
            Ok(depth) => {
                m.queue_depth.set(depth as f64);
                Ok(Ticket { rx })
            }
            Err(e) => {
                let why = match e {
                    ServeError::Overloaded { .. } => {
                        m.shed.add(1);
                        "overloaded"
                    }
                    ServeError::Draining => {
                        m.rejected_draining.add(1);
                        "draining"
                    }
                    _ => "rejected",
                };
                self.inner.events.mark(0, Kind::ServeShed, why, id, 0);
                Err(e)
            }
        }
    }

    /// Stop admitting, flush every queued request through the workers,
    /// and join the pool. Idempotent; also runs on drop.
    pub fn drain(&self) {
        self.inner.queue.start_drain();
        let handle = self.supervisor.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(nlev: usize, bias: f64) -> ColumnState {
        ColumnState {
            u: vec![bias; nlev],
            v: vec![-bias; nlev],
            t: vec![280.0 + bias; nlev],
            q: vec![0.002; nlev],
            p: vec![9.0e4; nlev],
        }
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let svc = Service::start_warm(ServeConfig::default(), 8, 4, 42);
        let t = svc.submit("tenant-a", column(8, 1.0)).unwrap();
        let out = t.wait().unwrap();
        assert_eq!(out.du.len(), 8);
        assert!(out.dt.iter().all(|v| v.is_finite()));
        svc.drain();
    }

    #[test]
    fn batched_service_result_matches_direct_predict() {
        let svc = Service::start_warm(ServeConfig::default(), 8, 4, 43);
        let cols: Vec<ColumnState> = (0..12).map(|i| column(8, i as f64 * 0.1)).collect();
        let tickets: Vec<Ticket> = cols
            .iter()
            .map(|c| svc.submit("t", c.clone()).unwrap())
            .collect();
        let served: Vec<ColumnTendency> =
            tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let direct = svc.registry().current().tendency.predict_batch(&cols);
        for (s, d) in served.iter().zip(&direct) {
            for (a, b) in s.dt.iter().zip(&d.dt) {
                assert!((a - b).abs() < 1e-9, "served {a} vs direct {b}");
            }
        }
        svc.drain();
    }

    #[test]
    fn wrong_nlev_is_a_bad_request() {
        let svc = Service::start_warm(ServeConfig::default(), 8, 4, 44);
        let err = svc.submit("t", column(5, 0.0)).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)));
        svc.drain();
    }

    #[test]
    fn worker_survives_a_panicking_forward() {
        let svc = Service::start_warm(ServeConfig::default(), 8, 4, 46);
        // A ragged column passes the nlev admission check (u-based) but
        // panics inside the model forward — the natural in-batch crash.
        let mut ragged = column(8, 0.0);
        ragged.v.pop();
        let t = svc.submit("t", ragged).unwrap();
        match t.wait() {
            Err(ServeError::WorkerCrashed { detail }) => {
                assert!(detail.contains("ragged"), "unexpected detail: {detail}")
            }
            other => panic!("expected WorkerCrashed, got {other:?}"),
        }
        assert_eq!(svc.obs().metrics.counter("serve.worker_restarts").get(), 1);
        // The worker restarted: the service still serves.
        let out = svc.submit("t", column(8, 1.0)).unwrap().wait().unwrap();
        assert_eq!(out.du.len(), 8);
        svc.drain();
    }

    #[test]
    fn submit_after_drain_is_rejected_not_hung() {
        let svc = Service::start_warm(ServeConfig::default(), 8, 4, 45);
        svc.drain();
        let err = svc.submit("t", column(8, 0.0)).unwrap_err();
        assert_eq!(err, ServeError::Draining);
        assert_eq!(svc.obs().metrics.counter("serve.rejected_draining").get(), 1);
    }
}
