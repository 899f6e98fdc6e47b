//! Closed-loop load generator for the `ap3esm-serve` inference service.
//!
//! Spawns `--clients` closed-loop clients that together target `--rps`
//! column-inference requests per second for `--duration` seconds against
//! a micro-batching [`Service`], hot-swaps the model registry to a new
//! version mid-run (and rolls it back at three quarters), then prints
//! p50/p95 latency, throughput and the shed rate, and with `--report-name`
//! writes the run directory `target/obs/<name>/`: the run report, with
//! `--trace` a chrome trace of the serve batches and the ticket journal, with
//! telemetry the alerts and the series store.
//!
//! With `--slo` the main loop, which paces the run, samples the registry
//! (plus the `serve.shed_rate` it computes) into a time-series store every
//! `--cadence-ms` and once more after the drain, and the built-in serving
//! SLO rules (p95 latency budget, shed-rate ceiling) judge each sample; a
//! final SLO summary prints per-rule verdicts and `--slo-strict` exits
//! nonzero on any violation. `--metrics-addr` serves live OpenMetrics
//! scrapes while the load runs. An unknown flag or an unparsable value
//! prints the usage and exits 2.
//!
//! ```sh
//! cargo run --release --example forecast_service -- \
//!     --clients 8 --rps 400 --duration 3 --report-name serve --trace
//! # optionally also run N background ensemble forecast jobs:
//! cargo run --release --example forecast_service -- --jobs 3
//! # SLO-gated run with a live scrape endpoint:
//! cargo run --release --example forecast_service -- \
//!     --slo-strict --slo-p95-ms 50 --slo-shed 0.05 \
//!     --metrics-addr 127.0.0.1:9464 --report-name serve
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ap3esm::ai::modules::ColumnState;
use ap3esm::obs::{AlertEngine, Obs, Sampler, SeriesStore};
use ap3esm::serve::registry::warm_modules;
use ap3esm::serve::{
    coupled_compute, ForecastScheduler, ModelRegistry, ProductKey, ServeConfig, ServeError,
    Service,
};
use ap3esm_esm::config::CoupledConfig;

struct Cli {
    clients: usize,
    rps: f64,
    duration: f64,
    report_name: Option<String>,
    trace: bool,
    jobs: usize,
    slo: bool,
    slo_strict: bool,
    slo_p95_ms: f64,
    slo_shed: f64,
    metrics_addr: Option<String>,
    cadence_ms: u64,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        clients: 4,
        rps: 200.0,
        duration: 2.0,
        report_name: None,
        trace: false,
        jobs: 0,
        slo: false,
        slo_strict: false,
        slo_p95_ms: 50.0,
        slo_shed: 0.05,
        metrics_addr: None,
        cadence_ms: 50,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--clients" => cli.clients = num(val()),
            "--rps" => cli.rps = num(val()),
            "--duration" => cli.duration = num(val()),
            "--report-name" => cli.report_name = Some(val()),
            "--trace" => cli.trace = true,
            "--jobs" => cli.jobs = num(val()),
            "--slo" => cli.slo = true,
            "--slo-strict" => cli.slo_strict = true,
            "--slo-p95-ms" => cli.slo_p95_ms = num(val()),
            "--slo-shed" => cli.slo_shed = num(val()),
            "--metrics-addr" => cli.metrics_addr = Some(val()),
            "--cadence-ms" => cli.cadence_ms = num(val()),
            _ => usage(),
        }
    }
    cli
}

fn usage() -> ! {
    eprintln!(
        "usage: forecast_service [--clients N] [--rps X] [--duration S] [--report-name NAME] \
         [--trace] [--jobs N] [--slo] [--slo-strict] [--slo-p95-ms X] [--slo-shed X] \
         [--metrics-addr HOST:PORT] [--cadence-ms N]"
    );
    std::process::exit(2);
}

/// A flag's numeric value, or the usage.
fn num<T: std::str::FromStr>(v: String) -> T {
    v.parse().unwrap_or_else(|_| usage())
}

fn column(nlev: usize, phase: f64) -> ColumnState {
    ColumnState {
        u: (0..nlev).map(|k| 5.0 * (0.3 * k as f64 + phase).sin()).collect(),
        v: (0..nlev).map(|k| 2.0 * (0.2 * k as f64 + phase).cos()).collect(),
        t: (0..nlev).map(|k| 295.0 - 4.0 * k as f64).collect(),
        q: (0..nlev).map(|k| 0.01 * (-0.4 * k as f64).exp()).collect(),
        p: (0..nlev).map(|k| 1.0e5 * (1.0 - k as f64 / nlev as f64)).collect(),
    }
}

/// One telemetry sample: the registry, plus `serve.shed_rate` = shed /
/// submitted (once anything was submitted), the series the built-in
/// `serve-shed` rule watches.
fn sample(sampler: &mut Option<Sampler>, obs: &Obs) {
    let Some(sampler) = sampler else { return };
    sampler.sample(obs);
    let submitted = obs.metrics.counter("serve.submitted").get();
    if submitted > 0 {
        let shed = obs.metrics.counter("serve.shed").get();
        sampler.record("serve.shed_rate", shed as f64 / submitted as f64, obs);
    }
}

fn main() {
    let cli = parse_cli();
    let nlev = 30;
    let obs = Arc::new(Obs::new());
    let log = cli.trace.then(|| {
        let log = Arc::new(ap3esm::obs::EventLog::new(1));
        log.set_enabled(true);
        obs.profiler.attach(Arc::clone(&log), 0);
        obs.profiler.set_tracing(true);
        log
    });

    // Continuous telemetry: a time-series store the main loop below
    // samples into, the built-in serving SLO rules, and an optional
    // OpenMetrics scrape endpoint that serves live while the load runs.
    let telemetry_on = cli.slo || cli.slo_strict || cli.metrics_addr.is_some();
    let store = telemetry_on.then(|| Arc::new(SeriesStore::default()));
    let engine = telemetry_on.then(|| {
        Arc::new(AlertEngine::new(ap3esm::obs::serve_rules(
            cli.slo_p95_ms * 1e3,
            cli.slo_shed,
        )))
    });
    let mut sampler = store
        .as_ref()
        .zip(engine.as_ref())
        .map(|(s, e)| Sampler::new(Arc::clone(s), Arc::clone(e)));
    let server = cli.metrics_addr.as_ref().map(|addr| {
        let s = ap3esm::obs::MetricsServer::start(
            addr,
            Arc::clone(&obs),
            Arc::clone(store.as_ref().expect("telemetry store")),
            engine.clone(),
        )
        .expect("bind OpenMetrics endpoint");
        println!("metrics:    http://{}/metrics", s.local_addr());
        s
    });

    let cfg = ServeConfig {
        workers: 2,
        max_batch: 16,
        max_wait: Duration::from_millis(2),
        queue_capacity: 128,
        ..ServeConfig::default()
    };
    let registry = Arc::new(ModelRegistry::warm(nlev, 32, 20230721, "warm-v1"));
    let svc = Service::start(cfg, registry, Arc::clone(&obs));
    println!(
        "serving: {} clients, {:.0} rps target, {:.1}s, model v{} ({})",
        cli.clients,
        cli.rps,
        cli.duration,
        svc.registry().version(),
        svc.registry().current().tag,
    );

    let stop = Arc::new(AtomicBool::new(false));
    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let period = Duration::from_secs_f64(cli.clients.max(1) as f64 / cli.rps.max(1.0));

    let clients: Vec<_> = (0..cli.clients.max(1))
        .map(|ci| {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            let (ok, shed, errors) =
                (Arc::clone(&ok), Arc::clone(&shed), Arc::clone(&errors));
            std::thread::spawn(move || {
                let tenant = format!("client-{ci}");
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let tick = Instant::now();
                    let col = column(nlev, ci as f64 + n as f64 * 0.01);
                    // Closed loop: submit, wait for the result, then pace.
                    match svc.submit(&tenant, col) {
                        Ok(ticket) => match ticket.wait() {
                            Ok(_) => drop(ok.fetch_add(1, Ordering::Relaxed)),
                            Err(_) => drop(errors.fetch_add(1, Ordering::Relaxed)),
                        },
                        Err(ServeError::Overloaded { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => drop(errors.fetch_add(1, Ordering::Relaxed)),
                    }
                    n += 1;
                    if let Some(rest) = period.checked_sub(tick.elapsed()) {
                        std::thread::sleep(rest);
                    }
                }
            })
        })
        .collect();

    // The main loop paces the run one `--cadence-ms` tick at a time and
    // samples telemetry on every tick. Hot-swap a retrained model at the
    // halfway mark, roll back at 3/4 — both under full load.
    let tick = Duration::from_millis(cli.cadence_ms.max(1));
    let duration = Duration::from_secs_f64(cli.duration);
    let t0 = Instant::now();
    let (mut swapped, mut rolled_back) = (false, false);
    while let Some(left) = duration.checked_sub(t0.elapsed()) {
        std::thread::sleep(tick.min(left));
        let now = t0.elapsed();
        if !swapped && now >= duration / 2 {
            let (t, r) = warm_modules(nlev, 32, 20230722);
            let v = svc.registry().publish("retrained-v2", t, r);
            println!("hot-swapped model registry to v{v} mid-run");
            swapped = true;
        }
        if !rolled_back && now >= duration * 3 / 4 {
            let back = svc.registry().rollback().expect("rollback");
            println!("rolled back to v{back}");
            rolled_back = true;
        }
        sample(&mut sampler, &obs);
    }

    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().expect("client thread");
    }
    svc.drain();

    let served = ok.load(Ordering::Relaxed);
    let shed_n = shed.load(Ordering::Relaxed);
    let err_n = errors.load(Ordering::Relaxed);
    let total = served + shed_n + err_n;
    let lat = obs.metrics.histogram("serve.latency_us").summary();
    let bs = obs.metrics.histogram("serve.batch_size").summary();
    println!("\n--- results ---");
    println!("requests:   {total} ({served} served, {shed_n} shed, {err_n} errors)");
    println!(
        "latency:    p50 {:.2} ms, p95 {:.2} ms (n={})",
        lat.p50 as f64 / 1e3,
        lat.p95 as f64 / 1e3,
        lat.count
    );
    println!(
        "shed rate:  {:.2}%",
        100.0 * shed_n as f64 / total.max(1) as f64
    );
    println!(
        "batching:   mean {:.1} req/forward (max {}), {} batches",
        bs.mean,
        bs.max,
        obs.metrics.counter("serve.batches").get()
    );

    // Optional: background ensemble forecast products through the job
    // scheduler (real coupled runs at tiny scale, deduped + cached).
    if cli.jobs > 0 {
        println!("\nrunning {} ensemble forecast job(s)...", cli.jobs);
        let sched = ForecastScheduler::start(
            2,
            8,
            Arc::clone(&obs),
            coupled_compute(CoupledConfig::test_tiny(), 0.25),
        );
        let handles: Vec<_> = (0..cli.jobs as u32)
            .map(|m| {
                sched.request(ProductKey {
                    region: "wnp".into(),
                    init_time: 20230721,
                    member: m,
                })
            })
            .collect();
        for h in handles {
            match h.wait() {
                Ok(p) => println!(
                    "  member {}: track err {:.0} km, peak wind {:.1} m/s, min ps {:.0} Pa",
                    p.key.member, p.mean_track_error_km, p.peak_intensity_ms, p.min_pressure_pa
                ),
                Err(e) => println!("  job failed: {e}"),
            }
        }
        sched.drain();
    }

    // One final sample after the drain, so the verdicts below include the
    // run's last state.
    sample(&mut sampler, &obs);
    let mut slo_violated = false;
    if let Some(engine) = &engine {
        println!("\n--- SLO summary ---");
        for st in engine.status() {
            let violated = st.fired > 0 || st.firing;
            slo_violated |= violated;
            println!(
                "{:<12} {:<22} {} ({} firing(s), {} samples)",
                st.rule,
                st.series,
                if violated { "VIOLATED" } else { "met" },
                st.fired,
                st.evaluated,
            );
        }
        for e in engine.events() {
            println!("  alert: t={:.2}s {}", e.t_s, e.message);
        }
    }
    if let Some(server) = server {
        server.stop();
    }

    if let Some(name) = &cli.report_name {
        obs.profiler.set_tracing(false);
        let mut report = ap3esm::obs::RunReport::new(name)
            .meta("clients", cli.clients as u64)
            .meta("target_rps", cli.rps)
            .meta("duration_s", cli.duration)
            .meta("served", served)
            .meta("shed", shed_n)
            .meta("errors", err_n)
            .meta("model_version", svc.registry().version());
        let spans = obs.profiler.snapshot();
        report.rank_trees = vec![ap3esm::obs::RankTree { rank: 0, dropped: 0, spans }];
        report.alerts = engine.as_ref().map(|e| e.events()).unwrap_or_default();
        report.metrics = obs.metrics.snapshot();
        let written = ap3esm::obs::RunDir::create(name, "ok").and_then(|dir| {
            dir.write_report(&report)?;
            if let Some(log) = &log {
                if log.evicted(0) > 0 {
                    eprintln!("[trace] {} events evicted (ring full)", log.evicted(0));
                }
                dir.write_events(&log.snapshot())?;
            }
            if let Some(store) = &store {
                dir.write_telemetry(&report.alerts, &store.snapshot_json())?;
            }
            Ok(dir)
        });
        match written {
            Ok(dir) => println!("run directory: {}", dir.path().display()),
            Err(e) => eprintln!("cannot write run directory {name}: {e}"),
        }
    }

    if cli.slo_strict && slo_violated {
        eprintln!("SLO violated under --slo-strict: exiting nonzero");
        std::process::exit(1);
    }
}
