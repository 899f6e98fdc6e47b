//! In-process time-series store: bounded history for every metric.
//!
//! The run reports (`obs::report`) are end-of-run artefacts; long coupled
//! runs and the serving fleet need *in-flight* history — what was SYPD ten
//! couplings ago, is the imbalance drifting, did the p95 move after the
//! hot-swap. [`SeriesStore`] keeps that history in memory with a hard
//! bound:
//!
//! * **One lock** over the series map: the one writer is the thread that
//!   owns the numbers and the one other reader an occasional scrape, so
//!   there is nothing to shard.
//! * **Fixed-capacity ring buffers**: each series holds three tiers — raw
//!   samples, a 10× downsampled tier, and a 100× tier. Every tier is a ring
//!   of at most `capacity` buckets; when a tier wraps, the oldest bucket is
//!   evicted. A closed window of `DOWNSAMPLE_FACTOR` buckets in one tier
//!   cascades one aggregated bucket (min/max/sum/count) into the next, so
//!   the 100× tier summarises `capacity × 100` raw samples. Retention math:
//!   sampled once per ocean coupling, at `demo_small`'s 12 couplings a day,
//!   the default 1024 buckets per tier keep 85 simulated days raw, 2.3
//!   years in the 10× tier and 23 in the 100× tier — year-long runs stay
//!   bounded at three rings per series.
//!
//! [`Sampler`] samples where the numbers change, on the thread that owns
//! them: the coupled driver's rank 0 once per ocean coupling, a serving
//! process from its own loop. [`Sampler::sample`] copies a
//! [`Metrics`](crate::Metrics) registry into the store (counters as
//! cumulative value plus a `<name>.rate` per-second series, gauges as-is,
//! histograms as `<name>.p50` / `<name>.p95` / `<name>.count` sub-series)
//! and [`Sampler::record`] adds a point the caller computed. Each point
//! goes to the [`AlertEngine`] as it is stored, so a rule's `over N` /
//! `for M` counts its owner's samples. Nothing runs in between: no thread,
//! no cadence, and with no sampler the metric hot paths are untouched.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::alert::AlertEngine;
use crate::json::Json;
use crate::metrics::MetricSnapshot;
use crate::Obs;

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
#[derive(Default)]
struct Tier {
    buckets: VecDeque<Bucket>,
    pending: Option<Bucket>,
    pending_n: usize,
}

impl Tier {
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

#[derive(Default)]
struct Series {
    tiers: [Tier; N_TIERS],
    /// Raw samples ever pushed (monotone; the ring keeps the newest).
    total: u64,
}

impl Series {
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

/// Store of named time series with bounded ring tiers, behind one lock.
pub struct SeriesStore {
    series: Mutex<BTreeMap<String, Series>>,
    capacity: usize,
    epoch: Instant,
}

impl Default for SeriesStore {
    fn default() -> Self {
        SeriesStore::new(DEFAULT_CAPACITY)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl SeriesStore {
    pub fn new(capacity: usize) -> SeriesStore {
        SeriesStore {
            series: Mutex::new(BTreeMap::new()),
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
        lock(&self.series)
            .entry(name.to_string())
            .or_default()
            .record(t_s, value, self.capacity);
    }

    /// All series, sorted by name.
    pub fn snapshot(&self) -> Vec<SeriesSnapshot> {
        lock(&self.series)
            .iter()
            .map(|(name, series)| SeriesSnapshot {
                name: name.clone(),
                total: series.total,
                tiers: [
                    series.tiers[0].buckets.iter().copied().collect(),
                    series.tiers[1].buckets.iter().copied().collect(),
                    series.tiers[2].buckets.iter().copied().collect(),
                ],
            })
            .collect()
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

// --- the sampler --------------------------------------------------------

/// Copies a [`Metrics`](crate::Metrics) registry into a [`SeriesStore`]
/// when the owner of the numbers says they changed, and hands every stored
/// point to the alert engine; see the module docs for the mapping.
pub struct Sampler {
    store: Arc<SeriesStore>,
    engine: Arc<AlertEngine>,
    /// Each counter's time and value at the previous sample, for its rate.
    prev: BTreeMap<String, (f64, f64)>,
}

impl Sampler {
    pub fn new(store: Arc<SeriesStore>, engine: Arc<AlertEngine>) -> Sampler {
        Sampler {
            store,
            engine,
            prev: BTreeMap::new(),
        }
    }

    /// One sample of `obs`'s registry, timestamped now. Firings are
    /// journaled in `obs`'s event log.
    pub fn sample(&mut self, obs: &Obs) {
        let t = self.store.now_s();
        for (name, snap) in obs.metrics.snapshot() {
            match snap {
                MetricSnapshot::Counter(v) => {
                    let v = v as f64;
                    // Per-second rate since the previous sample (0 on the first).
                    let rate = match self.prev.insert(name.clone(), (t, v)) {
                        Some((t0, v0)) if t > t0 => (v - v0).max(0.0) / (t - t0),
                        _ => 0.0,
                    };
                    self.point(&name, t, v, obs);
                    self.point(&format!("{name}.rate"), t, rate, obs);
                }
                MetricSnapshot::Gauge(v) => self.point(&name, t, v, obs),
                MetricSnapshot::Histogram(h) => {
                    self.point(&format!("{name}.p50"), t, h.p50 as f64, obs);
                    self.point(&format!("{name}.p95"), t, h.p95 as f64, obs);
                    self.point(&format!("{name}.count"), t, h.count as f64, obs);
                }
            }
        }
    }

    /// Record a point the caller computed (e.g. `serve.shed_rate`),
    /// timestamped now.
    pub fn record(&self, name: &str, value: f64, obs: &Obs) {
        self.point(name, self.store.now_s(), value, obs);
    }

    /// Store one point and show it to the engine; non-finite values are
    /// skipped.
    fn point(&self, name: &str, t: f64, v: f64, obs: &Obs) {
        if v.is_finite() {
            self.store.record_at(name, t, v);
            self.engine.observe(name, t, v, Some(obs));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_tier_is_a_bounded_ring() {
        let store = SeriesStore::new(16);
        for i in 0..40 {
            store.record_at("x", i as f64, i as f64);
        }
        let snap = &store.snapshot()[0];
        assert_eq!(snap.name, "x");
        assert_eq!(snap.total, 40);
        assert_eq!(snap.tiers[0].len(), 16); // ring capacity
        assert_eq!(snap.tiers[0][0].sum, 24.0); // oldest kept = 40 - 16
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
    fn sampler_maps_the_registry_and_records_caller_points() {
        let obs = Obs::new();
        obs.metrics.counter("msgs").add(10);
        obs.metrics.gauge("sypd").set(0.5);
        obs.metrics.histogram("lat").record(100);
        let store = Arc::new(SeriesStore::new(64));
        let rules =
            crate::alert::parse_rules("busy: msgs.rate above 0\nhigh: ratio above 0.2").unwrap();
        let engine = Arc::new(AlertEngine::new(rules).quiet());
        let mut sampler = Sampler::new(Arc::clone(&store), Arc::clone(&engine));
        sampler.sample(&obs);
        obs.metrics.counter("msgs").add(30);
        // A rate needs the second sample at a later instant than the first.
        let t0 = store.now_s();
        while store.now_s() <= t0 {}
        sampler.sample(&obs);
        sampler.record("ratio", 0.25, &obs);
        sampler.record("ratio", f64::NAN, &obs); // skipped

        let snaps = store.snapshot();
        let raw = |name: &str| -> Vec<(f64, f64)> {
            let s = snaps.iter().find(|s| s.name == name).expect(name);
            s.tiers[0].iter().map(|b| (b.t_s, b.sum)).collect()
        };
        let msgs = raw("msgs");
        assert_eq!(msgs.iter().map(|p| p.1).collect::<Vec<_>>(), [10.0, 40.0]);
        let dt = msgs[1].0 - msgs[0].0;
        assert!(dt > 0.0);
        assert_eq!(
            raw("msgs.rate").iter().map(|p| p.1).collect::<Vec<_>>(),
            [0.0, 30.0 / dt]
        );
        assert_eq!(raw("sypd").len(), 2);
        let lat = obs.metrics.histogram("lat").summary();
        assert_eq!(raw("lat.p50")[1].1, lat.p50 as f64);
        assert_eq!(raw("lat.p95")[1].1, lat.p95 as f64);
        assert_eq!(raw("lat.count")[1].1, 1.0);
        assert_eq!(raw("ratio").iter().map(|p| p.1).collect::<Vec<_>>(), [0.25]);
        // Every stored point reached the engine as it was stored.
        let fired: Vec<String> = engine.events().into_iter().map(|e| e.rule).collect();
        assert_eq!(fired, ["busy", "high"]);
        assert_eq!(obs.metrics.counter("alert.fired").get(), 2);
    }
}
