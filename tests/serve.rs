//! Integration tests for the `ap3esm-serve` subsystem: overload shedding
//! with bounded latency, the no-silent-drop drain guarantee, hot-swap /
//! rollback under load, and per-tenant rate limiting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ap3esm::ai::modules::{ColumnState, ColumnTendency};
use ap3esm::obs::Obs;
use ap3esm::serve::registry::warm_modules;
use ap3esm::serve::{perf_snapshot, ModelRegistry, ServeConfig, ServeError, Service, Ticket};

const NLEV: usize = 30;

fn column(phase: f64) -> ColumnState {
    ColumnState {
        u: (0..NLEV).map(|k| 5.0 * (0.3 * k as f64 + phase).sin()).collect(),
        v: (0..NLEV).map(|k| 2.0 * (0.2 * k as f64 + phase).cos()).collect(),
        t: (0..NLEV).map(|k| 295.0 - 4.0 * k as f64).collect(),
        q: (0..NLEV).map(|k| 0.01 * (-0.4 * k as f64).exp()).collect(),
        p: (0..NLEV).map(|k| 1.0e5 * (1.0 - k as f64 / (NLEV + 1) as f64)).collect(),
    }
}

fn start(cfg: ServeConfig, seed: u64) -> Arc<Service> {
    Service::start(
        cfg,
        Arc::new(ModelRegistry::warm(NLEV, 32, seed, "v1")),
        Arc::new(Obs::new()),
    )
}

/// Open-loop burst far beyond capacity: the bounded queue must shed with
/// structured `Overloaded` errors, every admitted request must still be
/// served, micro-batches must actually form, and the p95 latency of
/// admitted requests must stay under the configured deadline budget.
#[test]
fn overload_sheds_and_admitted_p95_stays_bounded() {
    let cfg = ServeConfig {
        workers: 2,
        max_batch: 8,
        max_wait: Duration::from_millis(1),
        queue_capacity: 16,
        deadline_budget: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let budget = cfg.deadline_budget;
    let svc = start(cfg, 7);

    let shed = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    let submitters: Vec<_> = (0..4)
        .map(|ci| {
            let svc = Arc::clone(&svc);
            let (shed, served) = (Arc::clone(&shed), Arc::clone(&served));
            std::thread::spawn(move || {
                let mut tickets: Vec<Ticket> = Vec::new();
                // Open loop: submit as fast as possible, wait afterwards.
                for n in 0..300 {
                    match svc.submit("burst", column(ci as f64 + n as f64 * 0.01)) {
                        Ok(t) => tickets.push(t),
                        Err(ServeError::Overloaded { queue_depth, capacity }) => {
                            assert!(queue_depth >= capacity);
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
                for t in tickets {
                    t.wait().expect("admitted request must be served");
                    served.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for s in submitters {
        s.join().expect("submitter");
    }
    svc.drain();

    let shed_n = shed.load(Ordering::Relaxed);
    let served_n = served.load(Ordering::Relaxed);
    assert!(shed_n > 0, "4×300 instant submits into a 16-deep queue must shed");
    assert!(served_n > 0, "some requests must be admitted and served");
    assert_eq!(served_n + shed_n, 1200, "every request resolved one way");

    let m = &svc.obs().metrics;
    assert_eq!(m.counter("serve.shed").get(), shed_n);
    assert_eq!(m.counter("serve.served").get(), served_n);
    let lat = m.histogram("serve.latency_us").summary();
    assert_eq!(lat.count, served_n);
    let p95 = Duration::from_micros(lat.p95);
    assert!(
        p95 < budget,
        "p95 of admitted requests {p95:?} must stay under the {budget:?} budget"
    );
    // Micro-batching must engage under pressure: with the queue saturated
    // a worker takes a full batch.
    let bs = m.histogram("serve.batch_size").summary();
    assert_eq!(bs.max, 8, "saturated queue must produce full batches");
    assert!(m.counter("serve.batches").get() < served_n, "batches < requests");

    // The three names `benchmark/src/layers.rs` reads its serve layer from.
    let snapshot = perf_snapshot(svc.obs());
    let stat = |name: &str| {
        let found = snapshot.iter().find(|(n, _)| n == name);
        found.unwrap_or_else(|| panic!("perf_snapshot lacks {name}")).1.value
    };
    assert!(stat("perf.serve.queue_wait_p95_us").is_finite());
    assert!(stat("perf.serve.forward_p50_us").is_finite());
    let batch_mean = stat("perf.serve.batch_size_mean");
    assert!(batch_mean.is_finite() && batch_mean >= 1.0, "mean batch {batch_mean}");
}

/// The drain contract: every submitted request resolves — to a result or
/// an explicit `Overloaded`/`Draining` error — never a silent drop.
#[test]
fn drain_never_silently_drops_a_request() {
    let cfg = ServeConfig {
        workers: 2,
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let svc = start(cfg, 8);

    // Submitters race the drain below.
    let outcomes = Arc::new(AtomicU64::new(0)); // packed: ok | shed | draining
    let counts = [
        Arc::new(AtomicU64::new(0)), // ok
        Arc::new(AtomicU64::new(0)), // overloaded
        Arc::new(AtomicU64::new(0)), // draining
    ];
    let submitters: Vec<_> = (0..3)
        .map(|ci| {
            let svc = Arc::clone(&svc);
            let counts = counts.clone();
            let outcomes = Arc::clone(&outcomes);
            std::thread::spawn(move || {
                for n in 0..200 {
                    match svc.submit("t", column(ci as f64 + n as f64 * 0.01)) {
                        Ok(t) => match t.wait() {
                            Ok(out) => {
                                assert!(out.dt.iter().all(|v| v.is_finite()));
                                counts[0].fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("in-flight request lost to {e}"),
                        },
                        Err(ServeError::Overloaded { .. }) => {
                            counts[1].fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Draining) => {
                            counts[2].fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error {e}"),
                    }
                    outcomes.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Drain mid-traffic.
    while counts[0].load(Ordering::Relaxed) < 20 {
        std::thread::yield_now();
    }
    svc.drain();
    for s in submitters {
        s.join().expect("submitter");
    }

    let total: u64 = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    assert_eq!(total, 600, "every request resolved explicitly");
    assert_eq!(outcomes.load(Ordering::Relaxed), 600);
    assert!(counts[0].load(Ordering::Relaxed) >= 20, "some served before drain");
    assert!(
        counts[2].load(Ordering::Relaxed) > 0,
        "post-drain submits must get explicit Draining"
    );
    // Accounting cross-check against service metrics: nothing vanished.
    let m = &svc.obs().metrics;
    assert_eq!(
        m.counter("serve.served").get(),
        counts[0].load(Ordering::Relaxed)
    );
    assert_eq!(
        m.counter("serve.rejected_draining").get(),
        counts[2].load(Ordering::Relaxed)
    );
}

/// Hot-swap changes what is served, requests submitted after `publish`
/// returns see the new weights, and rollback restores the old answers
/// bit-for-bit — all without restarting the service.
#[test]
fn hot_swap_and_rollback_under_live_service() {
    let svc = start(ServeConfig::default(), 9);
    let probe = column(0.5);
    let serve_one = |svc: &Arc<Service>| -> ColumnTendency {
        svc.submit("probe", probe.clone()).unwrap().wait().unwrap()
    };

    let before = serve_one(&svc);
    assert_eq!(svc.registry().version(), 1);

    let (t, r) = warm_modules(NLEV, 32, 999);
    let v2 = svc.registry().publish("v2", t, r);
    assert_eq!(v2, 2);
    let after = serve_one(&svc);
    assert_ne!(before.dt, after.dt, "published weights must change results");

    svc.registry().rollback().expect("rollback");
    assert_eq!(svc.registry().version(), 1);
    let restored = serve_one(&svc);
    assert_eq!(
        before.dt, restored.dt,
        "rollback must restore the original version exactly"
    );
    svc.drain();
}

/// Per-tenant token buckets: an exhausted tenant sheds `RateLimited`
/// while other tenants are untouched.
#[test]
fn rate_limited_tenant_is_isolated() {
    let svc = start(ServeConfig::default(), 10);
    // Free tier: 3-request burst, no refill.
    svc.set_tenant_limit("free", 0.0, 3.0);

    let mut admitted = 0;
    let mut limited = 0;
    for n in 0..10 {
        match svc.submit("free", column(n as f64)) {
            Ok(t) => {
                t.wait().unwrap();
                admitted += 1;
            }
            Err(ServeError::RateLimited { tenant }) => {
                assert_eq!(tenant, "free");
                limited += 1;
            }
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert_eq!(admitted, 3, "burst of 3, then the bucket is dry");
    assert_eq!(limited, 7);
    assert_eq!(svc.obs().metrics.counter("serve.rate_limited").get(), 7);

    // A paying tenant is unaffected.
    let out = svc.submit("paid", column(1.0)).unwrap().wait().unwrap();
    assert!(out.dt.iter().all(|v| v.is_finite()));
    svc.drain();
}
