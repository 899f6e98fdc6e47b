//! Tier-1 integration test for the continuous-telemetry layer: a 2-rank
//! coupled run with sampling on, a deterministic injected slowdown (delay
//! faults on the ocean export's gather message), a live OpenMetrics scrape
//! taken mid-run, and an offline replay of the saved series snapshot.
//!
//! Asserts the whole pipeline: per-coupling SYPD/imbalance gauges →
//! sampled series → live scrape (strict-parser valid, carries both
//! series) → SYPD-collapse alert fired once the slowdown lands → alert in
//! the run report's `alerts` array, in `CoupledStats::alerts`, and as an
//! instant event in the chrome trace → snapshot replay re-fires offline.

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
            cadence: Duration::from_millis(5),
            metrics_addr: Some(addr.clone()),
            builtin_rules: false,
            rules: RULE.to_string(),
            // The 2.5 s stalls alone produce ~1000 samples at this cadence;
            // keep the whole run in the raw tier so the offline replay
            // still sees the pre-incident baseline.
            capacity: 16 * 1024,
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
    //      carries the allreduced SYPD + imbalance gauges and series. ----
    let scrape = scrape.lock().unwrap().take().expect("no mid-run scrape");
    let body = scrape.split("\r\n\r\n").nth(1).expect("HTTP body");
    let families = openmetrics::parse(body).expect("scrape must validate");
    let names: Vec<&str> = families.iter().map(|f| f.name.as_str()).collect();
    assert!(names.contains(&"ap3esm_sim_sypd"), "{names:?}");
    assert!(names.contains(&"ap3esm_sim_imbalance"), "{names:?}");
    assert!(names.contains(&"ap3esm_series"), "{names:?}");

    // ---- The slowdown fired the SYPD-collapse rule: stats + report. ----
    assert!(
        root.alerts.iter().any(|a| a.contains("sypd-collapse")),
        "no sypd-collapse alert: {:?}",
        root.alerts
    );
    let json = root.report_json.as_ref().expect("rank 0 report");
    assert!(json.contains(r#""schema":"ap3esm-obs/5""#));
    assert!(
        json.contains(r#""rule":"sypd-collapse""#),
        "alert missing from report alerts array"
    );

    // ---- ... and landed as an instant event in the chrome trace. ----
    let trace = std::fs::read_to_string(root.trace_path.as_ref().expect("trace")).unwrap();
    assert!(
        trace.contains("alert.sypd-collapse"),
        "alert instant missing from chrome trace"
    );

    // ---- The series snapshot replays offline to the same verdict. ----
    let series_path = root.series_path.as_ref().expect("series snapshot");
    let text = std::fs::read_to_string(series_path).unwrap();
    let snaps = tsdb::snapshot_from_json(&text).expect("snapshot parses");
    let sypd = snaps
        .iter()
        .find(|s| s.name == "sim.sypd")
        .expect("sim.sypd series in snapshot");
    assert!(sypd.total > 0);
    assert!(snaps.iter().any(|s| s.name == "sim.imbalance"));

    let engine = alert::replay(parse_rules(RULE).unwrap(), &snaps);
    let status = &engine.status()[0];
    assert!(
        status.fired > 0 || status.firing,
        "offline replay must re-fire the collapse: {status:?}"
    );
}
