//! In-process time-series store: bounded history for every metric.
//!
//! The run reports (`obs::report`) are end-of-run artefacts; long coupled
//! runs and the serving fleet need *in-flight* history — what was SYPD ten
//! minutes ago, is the imbalance drifting, did the p95 move after the
//! hot-swap. [`SeriesStore`] keeps that history in memory with a hard
//! bound:
//!
//! * **Lock-sharded**: series are hashed across [`N_SHARDS`] mutexes, so a
//!   sampler thread, the coupled driver, and a scrape handler never contend
//!   on one lock.
//! * **Fixed-capacity ring buffers**: each series holds three tiers — raw
//!   samples, a 10× downsampled tier, and a 100× tier. Every tier is a ring
//!   of at most `capacity` buckets; when a tier wraps, the oldest bucket is
//!   evicted. A closed window of `DOWNSAMPLE_FACTOR` buckets in one tier
//!   cascades one aggregated bucket (min/max/sum/count) into the next, so
//!   the 100× tier summarises `capacity × 100` raw samples. Retention math:
//!   with a 1 s cadence and the default capacity of 1024 buckets per tier,
//!   raw covers ~17 min, the 10× tier ~2.8 h, and the 100× tier ~28 h —
//!   week-long runs stay bounded at three rings per series regardless of
//!   duration.
//! * **Seq-numbered tails**: every raw append increments a per-series
//!   sequence number, so the alert engine can consume exactly the points it
//!   has not yet evaluated ([`SeriesStore::tail`]) even after the ring
//!   evicted older ones.
//!
//! [`Sampler`] runs on its own thread: every `cadence` it snapshots a
//! [`Metrics`] registry into the store (counters as cumulative value plus a
//! `<name>.rate` per-second series, gauges as-is, histograms as
//! `<name>.p50` / `<name>.p95` / `<name>.count` sub-series), records any
//! registered [`Derived`] series (e.g. the serve shed ratio), and gives the
//! alert engine one evaluation pass. Shutdown is a condvar handshake —
//! [`Sampler::shutdown`] flags the thread, wakes it, takes one final sample
//! so short runs are never empty, and joins. With no sampler started,
//! nothing runs and the metric hot paths are untouched.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::alert::AlertEngine;
use crate::json::Json;
use crate::metrics::{Metrics, MetricSnapshot};
use crate::Obs;

/// Shards of the series map; power of two so the hash folds cheaply.
pub const N_SHARDS: usize = 16;

/// Buckets per closed downsampling window (raw → 10× → 100×).
pub const DOWNSAMPLE_FACTOR: usize = 10;

/// Tiers per series: raw, ×10, ×100.
pub const N_TIERS: usize = 3;

/// Default ring capacity per tier, in buckets.
pub const DEFAULT_CAPACITY: usize = 1024;

/// One aggregated bucket of a tier (a raw sample has `count == 1` and
/// `min == max == sum == value`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Seconds since the store's epoch of the first covered sample.
    pub t_s: f64,
    pub min: f64,
    pub max: f64,
    pub sum: f64,
    pub count: u64,
}

impl Bucket {
    fn raw(t_s: f64, value: f64) -> Bucket {
        Bucket {
            t_s,
            min: value,
            max: value,
            sum: value,
            count: 1,
        }
    }

    /// Fold another bucket into this one (keeps the earliest timestamp).
    fn absorb(&mut self, other: &Bucket) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count += other.count;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One ring-buffered tier plus the open window cascading into the next.
struct Tier {
    buckets: VecDeque<Bucket>,
    pending: Option<Bucket>,
    pending_n: usize,
}

impl Tier {
    fn new() -> Tier {
        Tier {
            buckets: VecDeque::new(),
            pending: None,
            pending_n: 0,
        }
    }

    /// Ring-push a closed bucket; returns the cascaded bucket when this
    /// push closes a full downsampling window.
    fn push(&mut self, bucket: Bucket, capacity: usize) -> Option<Bucket> {
        if self.buckets.len() >= capacity {
            self.buckets.pop_front();
        }
        self.buckets.push_back(bucket);
        match self.pending.as_mut() {
            Some(p) => p.absorb(&bucket),
            None => self.pending = Some(bucket),
        }
        self.pending_n += 1;
        if self.pending_n >= DOWNSAMPLE_FACTOR {
            self.pending_n = 0;
            self.pending.take()
        } else {
            None
        }
    }
}

struct Series {
    tiers: [Tier; N_TIERS],
    /// Raw samples ever pushed (monotone; the ring keeps the newest).
    total: u64,
}

impl Series {
    fn new() -> Series {
        Series {
            tiers: [Tier::new(), Tier::new(), Tier::new()],
            total: 0,
        }
    }

    fn record(&mut self, t_s: f64, value: f64, capacity: usize) {
        self.total += 1;
        let mut cascade = self.tiers[0].push(Bucket::raw(t_s, value), capacity);
        for tier in self.tiers.iter_mut().skip(1) {
            match cascade {
                Some(b) => cascade = tier.push(b, capacity),
                None => break,
            }
        }
    }
}

/// Point-in-time copy of one series (all tiers, oldest bucket first).
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    pub name: String,
    /// Raw samples ever recorded (≥ the raw ring length).
    pub total: u64,
    /// `tiers[k]` covers `DOWNSAMPLE_FACTOR^k` raw samples per bucket.
    pub tiers: [Vec<Bucket>; N_TIERS],
}

/// Lock-sharded store of named time series with bounded ring tiers.
pub struct SeriesStore {
    shards: Vec<Mutex<BTreeMap<String, Series>>>,
    capacity: usize,
    epoch: Instant,
}

impl Default for SeriesStore {
    fn default() -> Self {
        SeriesStore::new(DEFAULT_CAPACITY)
    }
}

fn shard_of(name: &str) -> usize {
    // FNV-1a, folded into the shard count.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h as usize) & (N_SHARDS - 1)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl SeriesStore {
    pub fn new(capacity: usize) -> SeriesStore {
        SeriesStore {
            shards: (0..N_SHARDS).map(|_| Mutex::new(BTreeMap::new())).collect(),
            capacity: capacity.max(DOWNSAMPLE_FACTOR),
            epoch: Instant::now(),
        }
    }

    /// Seconds since this store was created (the series time base).
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Append one raw sample at an explicit time offset.
    pub fn record_at(&self, name: &str, t_s: f64, value: f64) {
        let mut shard = lock(&self.shards[shard_of(name)]);
        shard
            .entry(name.to_string())
            .or_insert_with(Series::new)
            .record(t_s, value, self.capacity);
    }

    /// Append one raw sample timestamped now.
    pub fn record(&self, name: &str, value: f64) {
        self.record_at(name, self.now_s(), value);
    }

    /// Raw samples newer than `since` (a sequence number as returned by a
    /// previous call), oldest first, plus the new cursor. Points evicted by
    /// the ring before being read are silently skipped.
    pub fn tail(&self, name: &str, since: u64) -> (Vec<(f64, f64)>, u64) {
        let shard = lock(&self.shards[shard_of(name)]);
        let Some(series) = shard.get(name) else {
            return (Vec::new(), since);
        };
        let ring = &series.tiers[0].buckets;
        let first_seq = series.total - ring.len() as u64;
        let skip = since.saturating_sub(first_seq) as usize;
        let points = ring
            .iter()
            .skip(skip)
            .map(|b| (b.t_s, b.sum))
            .collect();
        (points, series.total)
    }

    /// All series, sorted by name.
    pub fn snapshot(&self) -> Vec<SeriesSnapshot> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            for (name, series) in shard.iter() {
                out.push(SeriesSnapshot {
                    name: name.clone(),
                    total: series.total,
                    tiers: [
                        series.tiers[0].buckets.iter().copied().collect(),
                        series.tiers[1].buckets.iter().copied().collect(),
                        series.tiers[2].buckets.iter().copied().collect(),
                    ],
                });
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Registered series names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.snapshot().into_iter().map(|s| s.name).collect()
    }

    /// Serialise every series (all tiers) as one JSON document, schema
    /// `ap3esm-tsdb/1`. Buckets are `[t_s, min, max, sum, count]` arrays.
    pub fn snapshot_json(&self) -> String {
        snapshot_to_json(&self.snapshot())
    }

    /// Write the snapshot as `<target/obs>/series-<name>.json`.
    pub fn write_snapshot(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = crate::report::default_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("series-{name}.json"));
        std::fs::write(&path, self.snapshot_json() + "\n")?;
        Ok(path)
    }
}

/// Snapshot-file schema tag.
pub const SNAPSHOT_SCHEMA: &str = "ap3esm-tsdb/1";

/// Render a snapshot list as the `ap3esm-tsdb/1` JSON document.
pub fn snapshot_to_json(snaps: &[SeriesSnapshot]) -> String {
    let mut root = Json::obj();
    root.set("schema", Json::Str(SNAPSHOT_SCHEMA.into()));
    let series = snaps
        .iter()
        .map(|s| {
            let mut o = Json::obj();
            o.set("name", Json::Str(s.name.clone()))
                .set("total", Json::UInt(s.total));
            let tiers = s
                .tiers
                .iter()
                .enumerate()
                .map(|(k, buckets)| {
                    let mut t = Json::obj();
                    t.set(
                        "factor",
                        Json::UInt(DOWNSAMPLE_FACTOR.pow(k as u32) as u64),
                    );
                    let rows = buckets
                        .iter()
                        .map(|b| {
                            Json::Arr(vec![
                                Json::Num(b.t_s),
                                Json::Num(b.min),
                                Json::Num(b.max),
                                Json::Num(b.sum),
                                Json::UInt(b.count),
                            ])
                        })
                        .collect();
                    t.set("buckets", Json::Arr(rows));
                    t
                })
                .collect();
            o.set("tiers", Json::Arr(tiers));
            o
        })
        .collect();
    root.set("series", Json::Arr(series));
    root.to_string()
}

/// Parse an `ap3esm-tsdb/1` snapshot document back into memory (used by
/// the offline SLO replay in `scripts/slo_check.sh`).
pub fn snapshot_from_json(text: &str) -> Result<Vec<SeriesSnapshot>, String> {
    let root = Json::parse(text)?;
    match root.get("schema").and_then(Json::as_str) {
        Some(SNAPSHOT_SCHEMA) => {}
        other => return Err(format!("unsupported snapshot schema {other:?}")),
    }
    let mut out = Vec::new();
    for s in root
        .get("series")
        .and_then(Json::as_arr)
        .ok_or("missing series array")?
    {
        let name = s
            .get("name")
            .and_then(Json::as_str)
            .ok_or("series without a name")?
            .to_string();
        let total = s.get("total").and_then(Json::as_u64).unwrap_or(0);
        let mut tiers: [Vec<Bucket>; N_TIERS] = Default::default();
        let tier_arr = s.get("tiers").and_then(Json::as_arr).unwrap_or(&[]);
        for (k, tier) in tier_arr.iter().take(N_TIERS).enumerate() {
            for row in tier.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
                let cols = row.as_arr().ok_or("bucket is not an array")?;
                if cols.len() != 5 {
                    return Err(format!("bucket with {} columns", cols.len()));
                }
                let f = |i: usize| cols[i].as_f64().ok_or("non-numeric bucket column");
                tiers[k].push(Bucket {
                    t_s: f(0)?,
                    min: f(1)?,
                    max: f(2)?,
                    sum: f(3)?,
                    count: cols[4].as_u64().ok_or("non-integer bucket count")?,
                });
            }
        }
        out.push(SeriesSnapshot { name, total, tiers });
    }
    Ok(out)
}

// --- the sampler thread -------------------------------------------------

/// Closure type of a [`Derived`] series.
pub type DerivedFn = Arc<dyn Fn(&Metrics) -> Option<f64> + Send + Sync>;

/// A derived series: a closure evaluated against the metrics registry at
/// every sampling tick (e.g. `serve.shed_rate` = shed / submitted).
/// Returning `None` skips the tick.
#[derive(Clone)]
pub struct Derived {
    pub name: String,
    pub eval: DerivedFn,
}

impl Derived {
    pub fn new(
        name: &str,
        eval: impl Fn(&Metrics) -> Option<f64> + Send + Sync + 'static,
    ) -> Derived {
        Derived {
            name: name.to_string(),
            eval: Arc::new(eval),
        }
    }
}

struct SamplerShared {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// Samples a [`Metrics`] registry into a [`SeriesStore`] on its own thread
/// and drives the alert engine; see the module docs for the mapping.
pub struct Sampler {
    shared: Arc<SamplerShared>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Spawn the sampling thread. `engine`, when given, is evaluated after
    /// every tick (firings are journaled in `obs`'s event log).
    pub fn start(
        obs: Arc<Obs>,
        store: Arc<SeriesStore>,
        engine: Option<Arc<AlertEngine>>,
        cadence: Duration,
        derived: Vec<Derived>,
    ) -> Sampler {
        let shared = Arc::new(SamplerShared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || {
                let mut prev: BTreeMap<String, (f64, f64)> = BTreeMap::new();
                loop {
                    let stopped = {
                        let guard = lock(&thread_shared.stop);
                        if *guard {
                            true
                        } else {
                            let (guard, _) = thread_shared
                                .wake
                                .wait_timeout(guard, cadence)
                                .unwrap_or_else(|p| p.into_inner());
                            *guard
                        }
                    };
                    // One final sample on shutdown, so short runs and the
                    // end-of-run report always see the last state.
                    sample_once(&obs.metrics, &store, &derived, &mut prev);
                    if let Some(engine) = &engine {
                        engine.evaluate(&store, Some(&obs));
                    }
                    if stopped {
                        return;
                    }
                }
            })
            .expect("spawn obs-sampler");
        Sampler {
            shared,
            handle: Some(handle),
        }
    }

    /// Stop the thread (handshake: flag, wake, final sample, join).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            *lock(&self.shared.stop) = true;
            self.shared.wake.notify_all();
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One sampling pass: registry → store (+ derived series).
fn sample_once(
    metrics: &Metrics,
    store: &SeriesStore,
    derived: &[Derived],
    prev: &mut BTreeMap<String, (f64, f64)>,
) {
    let t = store.now_s();
    for (name, snap) in metrics.snapshot() {
        match snap {
            MetricSnapshot::Counter(v) => {
                let v = v as f64;
                store.record_at(&name, t, v);
                // Per-second rate since the previous tick (0 on the first).
                let rate = match prev.get(&name) {
                    Some(&(t0, v0)) if t > t0 => (v - v0).max(0.0) / (t - t0),
                    _ => 0.0,
                };
                store.record_at(&format!("{name}.rate"), t, rate);
                prev.insert(name, (t, v));
            }
            MetricSnapshot::Gauge(v) => {
                if v.is_finite() {
                    store.record_at(&name, t, v);
                }
            }
            MetricSnapshot::Histogram(h) => {
                store.record_at(&format!("{name}.p50"), t, h.p50 as f64);
                store.record_at(&format!("{name}.p95"), t, h.p95 as f64);
                store.record_at(&format!("{name}.count"), t, h.count as f64);
            }
        }
    }
    for d in derived {
        if let Some(v) = (d.eval)(metrics) {
            if v.is_finite() {
                store.record_at(&d.name, t, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_tier_is_a_bounded_ring_with_seq_tails() {
        let store = SeriesStore::new(16);
        for i in 0..40 {
            store.record_at("x", i as f64, i as f64);
        }
        let snap = &store.snapshot()[0];
        assert_eq!(snap.name, "x");
        assert_eq!(snap.total, 40);
        assert_eq!(snap.tiers[0].len(), 16); // ring capacity
        assert_eq!(snap.tiers[0][0].sum, 24.0); // oldest kept = 40 - 16
        // Tail from a cursor inside the ring.
        let (points, next) = store.tail("x", 38);
        assert_eq!(next, 40);
        assert_eq!(points, vec![(38.0, 38.0), (39.0, 39.0)]);
        // Tail from a cursor already evicted: returns what the ring has.
        let (points, _) = store.tail("x", 0);
        assert_eq!(points.len(), 16);
        // Unknown series: empty, cursor unchanged.
        assert_eq!(store.tail("y", 7), (Vec::new(), 7));
    }

    #[test]
    fn downsampling_cascades_10x_then_100x() {
        let store = SeriesStore::new(512);
        for i in 0..200 {
            store.record_at("v", i as f64, (i % 7) as f64);
        }
        let snap = &store.snapshot()[0];
        assert_eq!(snap.tiers[0].len(), 200);
        assert_eq!(snap.tiers[1].len(), 20); // 200 / 10
        assert_eq!(snap.tiers[2].len(), 2); // 200 / 100
        // First 10× bucket covers raw samples 0..10 of the i%7 pattern.
        let b = snap.tiers[1][0];
        assert_eq!(b.count, 10);
        assert_eq!(b.t_s, 0.0);
        assert_eq!(b.min, 0.0);
        assert_eq!(b.max, 6.0);
        assert_eq!(b.sum, (0..10).map(|i| (i % 7) as f64).sum::<f64>());
        // 100× bucket covers exactly 100 raw samples.
        assert_eq!(snap.tiers[2][0].count, 100);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let store = SeriesStore::new(64);
        for i in 0..25 {
            store.record_at("sim.sypd", 0.5 * i as f64, 2.0 + i as f64);
        }
        store.record_at("sim.imbalance", 1.0, 1.25);
        let json = store.snapshot_json();
        assert!(json.starts_with(r#"{"schema":"ap3esm-tsdb/1""#));
        let parsed = snapshot_from_json(&json).unwrap();
        assert_eq!(parsed, store.snapshot());
        assert_eq!(parsed[1].tiers[1].len(), 2); // 25 raw → two 10× buckets
    }

    #[test]
    fn sampler_samples_metrics_and_shuts_down_cleanly() {
        let obs = Arc::new(Obs::new());
        obs.metrics.counter("msgs").add(10);
        obs.metrics.gauge("sypd").set(0.5);
        obs.metrics.histogram("lat").record(100);
        let store = Arc::new(SeriesStore::new(64));
        let derived = vec![Derived::new("ratio", |m: &Metrics| {
            Some(m.counter("msgs").get() as f64 / 2.0)
        })];
        let sampler = Sampler::start(
            Arc::clone(&obs),
            Arc::clone(&store),
            None,
            Duration::from_millis(5),
            derived,
        );
        let t0 = Instant::now();
        while store.tail("msgs", 0).0.len() < 2 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(2));
        }
        sampler.shutdown();
        let names = store.names();
        for want in ["msgs", "msgs.rate", "sypd", "lat.p50", "lat.p95", "lat.count", "ratio"] {
            assert!(names.iter().any(|n| n == want), "missing series {want}: {names:?}");
        }
        let (points, _) = store.tail("msgs", 0);
        assert!(points.iter().all(|&(_, v)| v == 10.0));
        let (ratio, _) = store.tail("ratio", 0);
        assert_eq!(ratio[0].1, 5.0);
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for name in ["sim.sypd", "serve.latency_us.p95", "", "x"] {
            let s = shard_of(name);
            assert!(s < N_SHARDS);
            assert_eq!(s, shard_of(name));
        }
    }
}
