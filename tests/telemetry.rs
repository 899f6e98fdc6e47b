//! Tier-1 integration tests for the continuous-telemetry layer: a 2-rank
//! coupled run with telemetry on, a deterministic injected slowdown (delay
//! faults on the ocean export's gather message), a live OpenMetrics scrape
//! taken mid-run, and an offline replay of the saved series snapshot; and a
//! telemetry-on day against a telemetry-off one.
//!
//! Asserts the whole pipeline: per-coupling SYPD/imbalance gauges → one
//! sample per ocean coupling → live scrape (strict-parser valid, carries
//! both series) → SYPD-collapse alert fired on a stalled coupling → alert
//! in the run report's `alerts` array, in `CoupledStats::alerts`, and as an
//! instant event in the chrome trace → snapshot replay re-fires offline.
//! The busy seconds behind `sim.imbalance` ride on the ocean export, so
//! telemetry sends no message of its own and moves no bit of the model.

use ap3esm::comm::{FaultInjector, FaultPlan};
use ap3esm::cpl::Rearranger;
use ap3esm::esm::coupled::TelemetryOptions;
use ap3esm::obs::{alert, openmetrics, parse_rules, tsdb};
use ap3esm::prelude::*;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The custom rule under test: same shape as the built-in SYPD-collapse
/// rule, with a window sized for the test's short run.
const RULE: &str = "sypd-collapse: sim.sypd deviates_below 0.5 over 6 for 1";

fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())?;
    let mut out = String::new();
    stream.read_to_string(&mut out)?;
    Ok(out)
}

#[test]
fn telemetry_scrapes_live_and_fires_sypd_collapse_on_injected_slowdown() {
    // Two ranks: rank 0 = coupler+ATM+ICE+LND, rank 1 = the single ocean
    // domain. 3 days at test_tiny cadence = 12 ocean couplings.
    const COUPLINGS: u64 = 12;
    let mut config = CoupledConfig::test_tiny();
    config.ocn_px = 1;
    config.ocn_py = 1;
    assert_eq!(config.world_size(), 2);

    // Injected slowdown: stall the ocean's export (which carries its kinetic
    // energy) on its way to rank 0 at ocean couplings 9 and 10 (the gather's
    // point-to-point wire tag carries exactly one message per coupling, so
    // `nth` counts couplings deterministically). 2.5 s dwarfs a coupling's
    // wall time even on a loaded single-core debug run, so the >50% SYPD
    // deviation is unambiguous.
    const STALL_S: f64 = 2.5;
    let [_, gather_p2p] = Rearranger::wire_tags_for(22);
    let plan = FaultPlan::parse(&format!(
        "delay src=1 dst=0 tag={gather_p2p} nth=9 ms=2500\n\
         delay src=1 dst=0 tag={gather_p2p} nth=10 ms=2500\n"
    ))
    .unwrap();

    // Reserve an ephemeral port for the scrape endpoint: bind, note, drop.
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };

    let name = format!("telemetry-it-{}", std::process::id());
    let opts = CoupledOptions {
        days: 3.0,
        report_name: Some(name.clone()),
        trace: true,
        telemetry: Some(TelemetryOptions {
            metrics_addr: Some(addr.clone()),
            rules: parse_rules(RULE).unwrap(),
        }),
        ..Default::default()
    };

    // Scrape mid-run: poll the endpoint until both global series appear.
    let scrape: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let scraper = {
        let (scrape, addr) = (Arc::clone(&scrape), addr.clone());
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(60);
            while Instant::now() < deadline {
                if let Ok(body) = http_get(&addr, "/metrics") {
                    if body.contains(r#"name="sim.sypd""#)
                        && body.contains(r#"name="sim.imbalance""#)
                    {
                        *scrape.lock().unwrap() = Some(body);
                        return;
                    }
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    let world = World::new(config.world_size())
        .with_fault_injector(Arc::new(FaultInjector::new(plan)));
    let all = world.run(|rank| run_coupled(rank, &config, &opts));
    let root = &all[0];
    scraper.join().unwrap();

    assert!(root.failure.is_none(), "run failed: {:?}", root.failure);
    assert_eq!(root.metrics_addr.as_deref(), Some(addr.as_str()));
    assert!(
        root.fault_events.iter().any(|e| e.contains("Delay")),
        "injected delays not recorded: {:?}",
        root.fault_events
    );

    // ---- The mid-run scrape is strict-parser-valid OpenMetrics and
    //      carries the SYPD + imbalance gauges and series. ----
    let scrape = scrape.lock().unwrap().take().expect("no mid-run scrape");
    let body = scrape.split("\r\n\r\n").nth(1).expect("HTTP body");
    let families = openmetrics::parse(body).expect("scrape must validate");
    let names: Vec<&str> = families.iter().map(|f| f.name.as_str()).collect();
    assert!(names.contains(&"ap3esm_sim_sypd"), "{names:?}");
    assert!(names.contains(&"ap3esm_sim_imbalance"), "{names:?}");
    assert!(names.contains(&"ap3esm_series"), "{names:?}");

    // ---- The slowdown fired the SYPD-collapse rule: stats + report. ----
    // ... on a stalled coupling: no faster than a coupling that took the
    // whole stall.
    let period_s = 86_400.0 / config.couplings_per_day.1 as f64;
    let stalled_sypd = get_timing(period_s, STALL_S);
    assert!(
        root.alerts.iter().any(|a| a.contains("sypd-collapse")),
        "no sypd-collapse alert: {:?}",
        root.alerts
    );
    let json = root.report_json.as_ref().expect("rank 0 report");
    assert!(json.contains(r#""schema":"ap3esm-obs/6""#));
    assert!(
        json.contains(r#""rule":"sypd-collapse""#),
        "alert missing from report alerts array"
    );

    // ---- ... and landed as an instant event in the chrome trace. ----
    let dir = root.run_dir.as_ref().expect("run directory");
    let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
    assert!(
        trace.contains("alert.sypd-collapse"),
        "alert instant missing from chrome trace"
    );

    // ---- The series snapshot replays offline to the same verdict. ----
    let text = std::fs::read_to_string(dir.join("series.json")).unwrap();
    let snaps = tsdb::snapshot_from_json(&text).expect("snapshot parses");
    // One sample per ocean coupling: every `sim.*` series holds exactly
    // the run's couplings, no stale copies taken while a coupling stalled.
    let sim: Vec<_> = snaps
        .iter()
        .filter(|s| s.name.starts_with("sim."))
        .collect();
    let names: Vec<&str> = sim.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "sim.degraded_ranks",
            "sim.imbalance",
            "sim.step_wall_s",
            "sim.sypd"
        ]
    );
    for s in sim {
        assert_eq!(
            s.total, COUPLINGS,
            "{}: one sample per ocean coupling",
            s.name
        );
    }

    let engine = alert::replay(parse_rules(RULE).unwrap(), &snaps);
    let status = &engine.status()[0];
    assert!(
        status.fired > 0 || status.firing,
        "offline replay must re-fire the collapse: {status:?}"
    );
    let fired: Vec<f64> = engine.events().iter().map(|e| e.value).collect();
    assert!(
        fired.iter().any(|&v| v <= stalled_sypd),
        "sypd-collapse must fire on a stalled coupling (SYPD <= {stalled_sypd}): {fired:?}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn telemetry_sends_no_message_and_moves_no_bit() {
    let mut config = CoupledConfig::test_tiny();
    config.ocn_px = 1;
    config.ocn_py = 1;
    let run = |telemetry: Option<TelemetryOptions>| {
        let opts = CoupledOptions {
            days: 1.0,
            telemetry,
            ..Default::default()
        };
        let world = World::new(config.world_size());
        let root = world
            .run(|rank| run_coupled(rank, &config, &opts))
            .swap_remove(0);
        (root, world.stats().tag_matrix())
    };
    let (on, on_traffic) = run(Some(TelemetryOptions::default()));
    let (off, off_traffic) = run(None);
    // Per tag, the same messages and bytes: no exchange of its own.
    assert_eq!(on_traffic, off_traffic);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (name, a, b) in [
        ("sst", &on.sst_series, &off.sst_series),
        ("ke", &on.ke_series, &off.ke_series),
        ("theta", &on.theta_series, &off.theta_series),
        ("ice", &on.ice_series, &off.ice_series),
    ] {
        assert!(!a.is_empty(), "{name}: empty series");
        assert_eq!(bits(a), bits(b), "{name}: telemetry moved a bit");
    }
}
