//! Async forecast-product scheduler: background `esm::forecast` ensemble
//! jobs with an LRU product cache and in-flight deduplication.
//!
//! Products are keyed by (region, init-time, ensemble member). A request
//! either hits the cache (LRU-bumped), joins an identical in-flight job
//! (deduplicated — the expensive coupled run happens once), or enqueues a
//! new job for the background workers. `drain` finishes running jobs,
//! resolves never-started ones with [`ServeError::Draining`], and joins
//! the workers — the same no-silent-drop guarantee as the inference path.
//!
//! Metrics: `jobs.hits`, `jobs.misses`, `jobs.deduped`, `jobs.completed`,
//! `jobs.failed`, `jobs.evicted` counters, `jobs.run_ms` histogram, and a
//! `serve.forecast_job` span per run.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use ap3esm_esm::config::CoupledConfig;
use ap3esm_esm::forecast::run_forecast;
use ap3esm_obs::Obs;
use parking_lot::{Condvar, Mutex};

use crate::error::ServeError;

/// Cache key for one forecast product.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProductKey {
    /// Forecast region/domain label ("wnp" — western North Pacific, ...).
    pub region: String,
    /// Initialisation time (hours since an arbitrary epoch).
    pub init_time: u64,
    /// Ensemble member index.
    pub member: u32,
}

/// The served artefact: headline scores of one ensemble-member forecast.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastProduct {
    pub key: ProductKey,
    pub mean_track_error_km: f64,
    pub peak_intensity_ms: f64,
    pub min_pressure_pa: f64,
    pub track_len: usize,
}

/// How a scheduler turns a key into a product. Injected so tests can stub
/// the coupled model; [`coupled_compute`] is the real one.
pub type ComputeFn = dyn Fn(&ProductKey) -> Result<ForecastProduct, String> + Send + Sync;

/// A [`ComputeFn`] that runs the real coupled forecast: each ensemble
/// member perturbs the land/sea mask seed of `base` (the members differ,
/// deterministically) and runs `esm::forecast::run_forecast` for `days`.
pub fn coupled_compute(base: CoupledConfig, days: f64) -> Box<ComputeFn> {
    Box::new(move |key: &ProductKey| {
        let mut config = base.clone();
        config.mask_seed = config
            .mask_seed
            .wrapping_add(key.member as u64)
            .wrapping_add(key.init_time);
        let result = run_forecast(&config, days);
        if let Some(failure) = &result.stats.failure {
            return Err(format!("coupled run failed: {failure}"));
        }
        Ok(ForecastProduct {
            key: key.clone(),
            mean_track_error_km: result.mean_track_error(),
            peak_intensity_ms: result.peak_intensity(),
            min_pressure_pa: result.min_pressure(),
            track_len: result.track.len(),
        })
    })
}

type JobResult = Result<Arc<ForecastProduct>, ServeError>;

/// Rendezvous for everyone waiting on one job. Opaque: obtained only via
/// [`ProductHandle::Pending`] and consumed by `wait`.
pub struct JobSlot {
    done: Mutex<Option<JobResult>>,
    cv: Condvar,
}

impl JobSlot {
    fn new() -> Arc<Self> {
        Arc::new(JobSlot {
            done: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn fill(&self, r: JobResult) {
        *self.done.lock() = Some(r);
        self.cv.notify_all();
    }

    fn wait(&self) -> JobResult {
        let mut done = self.done.lock();
        while done.is_none() {
            self.cv.wait(&mut done);
        }
        done.clone().unwrap()
    }
}

/// Handle on a requested product.
pub enum ProductHandle {
    /// Cache hit: the product is already here.
    Ready(Arc<ForecastProduct>),
    /// Job running (or queued); `wait` blocks until it resolves.
    Pending(Arc<JobSlot>),
    /// Rejected outright (e.g. scheduler draining).
    Rejected(ServeError),
}

impl ProductHandle {
    /// Block until the product (or its structured error) is available.
    pub fn wait(self) -> Result<Arc<ForecastProduct>, ServeError> {
        match self {
            ProductHandle::Ready(p) => Ok(p),
            ProductHandle::Pending(slot) => slot.wait(),
            ProductHandle::Rejected(e) => Err(e),
        }
    }

    /// True for a cache hit that needed no job at all.
    pub fn is_ready(&self) -> bool {
        matches!(self, ProductHandle::Ready(_))
    }
}

struct SchedState {
    cache: HashMap<ProductKey, Arc<ForecastProduct>>,
    /// LRU order: front = least recently used.
    order: VecDeque<ProductKey>,
    /// Jobs queued or running, for dedup. A key leaves this map only by
    /// having its slot filled.
    inflight: HashMap<ProductKey, Arc<JobSlot>>,
    /// Queued-but-not-started job keys.
    pending: VecDeque<ProductKey>,
    draining: bool,
}

struct SchedInner {
    compute: Box<ComputeFn>,
    state: Mutex<SchedState>,
    cv: Condvar,
    cache_cap: usize,
    obs: Arc<Obs>,
}

impl SchedInner {
    fn worker_loop(&self) {
        let _obs_guard = ap3esm_obs::install(Arc::clone(&self.obs));
        loop {
            let key = {
                let mut st = self.state.lock();
                loop {
                    if let Some(k) = st.pending.pop_front() {
                        break k;
                    }
                    if st.draining {
                        return;
                    }
                    self.cv.wait(&mut st);
                }
            };
            let t0 = Instant::now();
            let result = {
                let _span = ap3esm_obs::span("serve.forecast_job");
                (self.compute)(&key)
            };
            self.obs
                .metrics
                .histogram("jobs.run_ms")
                .record(t0.elapsed().as_millis() as u64);
            let outcome: JobResult = match result {
                Ok(p) => {
                    self.obs.metrics.counter("jobs.completed").add(1);
                    Ok(Arc::new(p))
                }
                Err(msg) => {
                    self.obs.metrics.counter("jobs.failed").add(1);
                    Err(ServeError::JobFailed(msg))
                }
            };
            let slot = {
                let mut st = self.state.lock();
                if let Ok(p) = &outcome {
                    Self::cache_insert(&mut st, self.cache_cap, &self.obs, Arc::clone(p));
                }
                st.inflight.remove(&key)
            };
            if let Some(slot) = slot {
                slot.fill(outcome);
            }
        }
    }

    fn cache_insert(st: &mut SchedState, cap: usize, obs: &Obs, p: Arc<ForecastProduct>) {
        let key = p.key.clone();
        if st.cache.insert(key.clone(), p).is_none() {
            st.order.push_back(key);
        } else {
            Self::lru_bump(st, &key);
        }
        while st.cache.len() > cap {
            if let Some(victim) = st.order.pop_front() {
                st.cache.remove(&victim);
                obs.metrics.counter("jobs.evicted").add(1);
            } else {
                break;
            }
        }
    }

    fn lru_bump(st: &mut SchedState, key: &ProductKey) {
        if let Some(pos) = st.order.iter().position(|k| k == key) {
            st.order.remove(pos);
            st.order.push_back(key.clone());
        }
    }
}

/// The background forecast scheduler.
pub struct ForecastScheduler {
    inner: Arc<SchedInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ForecastScheduler {
    /// Start `workers` background job threads with an LRU cache of
    /// `cache_cap` products.
    pub fn start(
        workers: usize,
        cache_cap: usize,
        obs: Arc<Obs>,
        compute: Box<ComputeFn>,
    ) -> ForecastScheduler {
        assert!(cache_cap >= 1);
        let inner = Arc::new(SchedInner {
            compute,
            state: Mutex::new(SchedState {
                cache: HashMap::new(),
                order: VecDeque::new(),
                inflight: HashMap::new(),
                pending: VecDeque::new(),
                draining: false,
            }),
            cv: Condvar::new(),
            cache_cap,
            obs,
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("forecast-job-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn forecast job worker")
            })
            .collect();
        ForecastScheduler {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Request a product: cache hit, dedup join, or new background job.
    pub fn request(&self, key: ProductKey) -> ProductHandle {
        let m = &self.inner.obs.metrics;
        let mut st = self.inner.state.lock();
        if let Some(p) = st.cache.get(&key).cloned() {
            SchedInner::lru_bump(&mut st, &key);
            m.counter("jobs.hits").add(1);
            return ProductHandle::Ready(p);
        }
        if let Some(slot) = st.inflight.get(&key) {
            m.counter("jobs.deduped").add(1);
            return ProductHandle::Pending(Arc::clone(slot));
        }
        if st.draining {
            return ProductHandle::Rejected(ServeError::Draining);
        }
        m.counter("jobs.misses").add(1);
        let slot = JobSlot::new();
        st.inflight.insert(key.clone(), Arc::clone(&slot));
        st.pending.push_back(key);
        drop(st);
        self.inner.cv.notify_one();
        ProductHandle::Pending(slot)
    }

    /// Cached product count (for tests/metrics).
    pub fn cache_len(&self) -> usize {
        self.inner.state.lock().cache.len()
    }

    /// Finish running jobs, fail queued-but-unstarted ones with
    /// `Draining`, and join the workers. Every outstanding handle
    /// resolves. Idempotent; also runs on drop.
    pub fn drain(&self) {
        let abandoned: Vec<Arc<JobSlot>> = {
            let mut st = self.inner.state.lock();
            st.draining = true;
            let keys: Vec<ProductKey> = st.pending.drain(..).collect();
            keys.iter()
                .filter_map(|k| st.inflight.remove(k))
                .collect()
        };
        for slot in abandoned {
            slot.fill(Err(ServeError::Draining));
        }
        self.inner.cv.notify_all();
        let handles: Vec<JoinHandle<()>> = self.workers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ForecastScheduler {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn key(member: u32) -> ProductKey {
        ProductKey {
            region: "wnp".into(),
            init_time: 20230721,
            member,
        }
    }

    fn stub_product(key: &ProductKey) -> ForecastProduct {
        ForecastProduct {
            key: key.clone(),
            mean_track_error_km: 100.0 + key.member as f64,
            peak_intensity_ms: 30.0,
            min_pressure_pa: 9.6e4,
            track_len: 8,
        }
    }

    fn counting_compute(
        runs: Arc<AtomicU64>,
        delay: Duration,
    ) -> Box<ComputeFn> {
        Box::new(move |key| {
            runs.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(delay);
            Ok(stub_product(key))
        })
    }

    #[test]
    fn cache_hit_after_miss_and_lru_eviction() {
        let runs = Arc::new(AtomicU64::new(0));
        let sched = ForecastScheduler::start(
            2,
            2,
            Arc::new(Obs::new()),
            counting_compute(Arc::clone(&runs), Duration::ZERO),
        );
        // Miss, then hit.
        let p = sched.request(key(0)).wait().unwrap();
        assert_eq!(p.key.member, 0);
        let h = sched.request(key(0));
        assert!(h.is_ready(), "second identical request must hit the cache");
        assert_eq!(runs.load(Ordering::SeqCst), 1);

        // Fill past capacity 2: member 0 was most recently used, so the
        // bump protects it and member 1 is the LRU victim.
        sched.request(key(1)).wait().unwrap();
        sched.request(key(0)).wait().unwrap(); // bump 0
        sched.request(key(2)).wait().unwrap(); // evicts 1
        assert_eq!(sched.cache_len(), 2);
        assert!(sched.request(key(0)).is_ready());
        assert!(!sched.request(key(1)).is_ready(), "member 1 was evicted");
    }

    #[test]
    fn identical_inflight_requests_are_deduplicated() {
        let runs = Arc::new(AtomicU64::new(0));
        let sched = Arc::new(ForecastScheduler::start(
            2,
            4,
            Arc::new(Obs::new()),
            counting_compute(Arc::clone(&runs), Duration::from_millis(50)),
        ));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let s = Arc::clone(&sched);
                std::thread::spawn(move || s.request(key(7)).wait())
            })
            .collect();
        for h in handles {
            let p = h.join().unwrap().unwrap();
            assert_eq!(p.key.member, 7);
        }
        assert_eq!(
            runs.load(Ordering::SeqCst),
            1,
            "six concurrent identical requests must run the model once"
        );
        assert!(sched.inner.obs.metrics.counter("jobs.deduped").get() >= 1);
    }

    #[test]
    fn drain_resolves_unstarted_jobs_with_draining() {
        let runs = Arc::new(AtomicU64::new(0));
        // One slow worker so extra jobs stay queued.
        let sched = ForecastScheduler::start(
            1,
            4,
            Arc::new(Obs::new()),
            counting_compute(Arc::clone(&runs), Duration::from_millis(100)),
        );
        let running = sched.request(key(0));
        std::thread::sleep(Duration::from_millis(20)); // let it start
        let queued = sched.request(key(1));
        sched.drain();
        // The started job completes; the queued one fails explicitly.
        assert!(running.wait().is_ok());
        assert_eq!(queued.wait().unwrap_err(), ServeError::Draining);
        // New requests after drain are rejected.
        assert_eq!(
            sched.request(key(9)).wait().unwrap_err(),
            ServeError::Draining
        );
    }

    #[test]
    fn failed_jobs_surface_job_failed() {
        let sched = ForecastScheduler::start(
            1,
            4,
            Arc::new(Obs::new()),
            Box::new(|_| Err("blew up".into())),
        );
        match sched.request(key(3)).wait() {
            Err(ServeError::JobFailed(msg)) => assert!(msg.contains("blew up")),
            other => panic!("expected JobFailed, got {other:?}"),
        }
    }
}
