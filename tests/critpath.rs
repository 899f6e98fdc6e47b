//! Tier-1 integration tests for the critical-path analyzer (ISSUE PR 10).
//!
//! Two layers: a real 2-rank coupled run with an injected message delay
//! (the analyzer must classify the resulting wait as *late-sender* and
//! blame the delayed rank, the on-path fractions must sum to 1, and the
//! top section's ×0.5 what-if must project a positive gain), and a scripted
//! low-level run asserting the chrome-trace flow arrows, the
//! flight-recorder postmortem and the analyzer agree event-for-event with
//! the shared `msgflow` FIFO pairing — each consuming the same event slice.

use ap3esm::comm::{FaultInjector, FaultPlan, World};
use ap3esm::cpl::rearrange::Rearranger;
use ap3esm::obs::critpath::{Analyzer, WaitClass};
use ap3esm::obs::event::{as_drawn, parse_chrome_row, parse_chrome_trace, Event};
use ap3esm::obs::json::Json;
use ap3esm::obs::trace::chrome_trace;
use ap3esm::obs::{flightrec, msgflow, RunDir};
use ap3esm::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A delayed point-to-point message must surface as a late-sender wait
/// blamed on the delayed rank, ride into the run report's `critpath`
/// object, and leave the on-path accounting exact.
#[test]
fn delay_fault_classifies_late_sender_blamed_on_delayed_rank() {
    // Two ranks: rank 0 = coupler+ATM+ICE+LND, rank 1 = the single ocean
    // domain. 2 days at test_tiny cadence = 8 ocean couplings.
    let mut config = CoupledConfig::test_tiny();
    config.ocn_px = 1;
    config.ocn_py = 1;
    assert_eq!(config.world_size(), 2);

    // Stall rank 1's cpl_gather send (the ocean's packed export back to the
    // coupler, one message per coupling, so `nth` is the coupling) at
    // couplings 3 and 4; rank 0 meets each stall one coupling later, where
    // it receives that export. The delay lands on the *point-to-point* wire
    // tag — a collective tag would classify as `Collective` instead — and
    // the injector sleeps the sender before posting, so the send timestamp
    // is late and the receiver's blocking window is the sender's fault.
    let [_, gather_p2p] = Rearranger::wire_tags_for(22);
    let plan = FaultPlan::parse(&format!(
        "delay src=1 dst=0 tag={gather_p2p} nth=3 ms=800\n\
         delay src=1 dst=0 tag={gather_p2p} nth=4 ms=800\n"
    ))
    .unwrap();

    let name = format!("critpath-it-{}", std::process::id());
    let opts = CoupledOptions {
        days: 2.0,
        report_name: Some(name),
        trace: true,
        ..Default::default()
    };
    let world = World::new(config.world_size())
        .with_fault_injector(Arc::new(FaultInjector::new(plan)));
    let all = world.run(|rank| run_coupled(rank, &config, &opts));
    let root = &all[0];
    assert!(root.failure.is_none(), "run failed: {:?}", root.failure);
    assert!(
        root.fault_events.iter().any(|e| e.contains("Delay")),
        "injected delays not recorded: {:?}",
        root.fault_events
    );

    let analysis = root.critpath.as_ref().expect("traced run must analyze");
    assert_eq!(analysis.n_ranks, 2);

    // ---- Every rank's timeline is whole: a span that was open while another
    //      rank already finished still closed into the log, so no child span
    //      stands in as a top-level section for its missing parent. ---------
    for child in ["dycore", "dyn_substeps", "tracer_step", "ocn_step", "barotropic"] {
        assert!(
            !analysis.sections.iter().any(|s| s.name == child),
            "{child} reads as a top-level section: {:?}",
            analysis.sections.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }

    // ---- Every on-path microsecond is exactly one of compute/comm/wait. --
    let sum = analysis.compute_frac() + analysis.comm_frac() + analysis.wait_frac();
    assert!(
        (sum - 1.0).abs() <= 0.01,
        "fractions sum to {sum}, want 1.0 +/- 1%"
    );

    // ---- The injected delay is a late-sender wait blamed on rank 1. ------
    let injected = analysis
        .waits
        .iter()
        .find(|w| w.class == WaitClass::LateSender && w.rank == 0 && w.dur_us >= 600_000)
        .unwrap_or_else(|| panic!("no >=600ms late-sender wait on rank 0: {:?}", analysis.waits));
    assert_eq!(injected.peer, 1);
    assert_eq!(injected.blamed, 1, "late-sender blame goes to the sender");
    assert_eq!(injected.tag, gather_p2p);

    // Attribution, not just classification: the delayed rank owns the
    // late-sender blame column (>= the two 800 ms injections), and owns
    // more of it than the undelayed rank.
    let late_blame = |rank: usize| -> u64 {
        analysis
            .blame
            .iter()
            .filter(|b| b.class == WaitClass::LateSender && b.rank == rank)
            .map(|b| b.total_us)
            .sum()
    };
    assert!(
        late_blame(1) >= 1_200_000,
        "rank 1 late-sender blame {}us < injected 1.6s",
        late_blame(1)
    );
    assert!(late_blame(1) > late_blame(0));

    // ---- The top section's ×0.5 what-if projects a real gain. ------------
    let top = analysis
        .sections
        .iter()
        .find(|s| s.name == analysis.top_section)
        .expect("top section row");
    assert!(
        top.what_if_half_gain_pct > 0.0,
        "halving {} projects {:+.2}%",
        top.name,
        top.what_if_half_gain_pct
    );

    // ---- The analysis rides inside the run report. -----------------------
    let report = Json::parse(root.report_json.as_deref().expect("report")).unwrap();
    let cp = report.get("critpath").expect("report critpath object");
    assert_eq!(
        cp.get("schema").and_then(Json::as_str),
        Some("ap3esm-critpath/2")
    );
    let frac = |k: &str| {
        cp.get("fractions")
            .and_then(|f| f.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let json_sum = frac("compute") + frac("comm") + frac("wait");
    assert!((json_sum - 1.0).abs() <= 0.01, "report fractions: {json_sum}");

    // ---- ... and comes back out of the run directory byte for byte: the
    //      chrome trace re-analyzed at the report's SYPD (`obs critpath DIR
    //      --check`). ------------------------------------------------------
    let dir = root.run_dir.as_ref().expect("run directory");
    let trace = Json::parse(&std::fs::read_to_string(dir.join("trace.json")).unwrap()).unwrap();
    let on_disk = Json::parse(&std::fs::read_to_string(dir.join("report.json")).unwrap()).unwrap();
    let sypd = on_disk.get("meta").and_then(|m| m.get("sypd")).and_then(Json::as_f64);
    let offline = Analyzer::from_chrome_trace(&trace)
        .unwrap()
        .with_sypd(sypd.expect("report sypd"))
        .analyze();
    let embedded = on_disk.get("critpath").expect("embedded critpath");
    assert_eq!(offline.to_json().to_string(), embedded.to_string());

    // ---- Every coupled section reaches the report's cross-rank maxima,
    //      including the ocean's (which never runs on the coupler rank). ---
    let sections = report.get("rank_sections").and_then(Json::as_arr).unwrap();
    for want in ["atm_run", "ocn_run", "lnd_run", "ice_run"] {
        let s = sections
            .iter()
            .find(|s| s.get("path").and_then(Json::as_str) == Some(want))
            .unwrap_or_else(|| panic!("{want} missing from rank_sections"));
        let max_s = s.get("max_s").and_then(Json::as_f64).unwrap();
        assert!(max_s > 0.0, "{want} has zero wall time");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// The chrome-trace flow arrows, the flight-recorder postmortem and the
/// critical-path analyzer all derive from [`msgflow::pair_fifo`]; on one
/// recorded run they must agree with it (and hence with each other)
/// event-for-event — and what each of them consumed is the same event slice,
/// one snapshot of the world's log.
#[test]
fn exporters_share_one_fifo_pairing() {
    let world = World::new(2);
    world.events().set_enabled(true);
    world.run(|rank| {
        if rank.id() == 0 {
            // Two paired sends on one channel, one cross recv, and one
            // deliberately unpaired send (tag 11 is never received).
            rank.send(1, 7, vec![1u8; 64]);
            rank.send(1, 7, vec![2u8; 128]);
            let _ = rank.recv::<u8>(1, 9).unwrap();
            rank.send(1, 11, vec![3u8; 32]);
        } else {
            let _ = rank.recv::<u8>(0, 7).unwrap();
            let _ = rank.recv::<u8>(0, 7).unwrap();
            rank.send(0, 9, vec![4u8; 256]);
        }
        rank.barrier();
    });
    let rings = world.events().snapshot();
    let dropped: u64 = (0..2).map(|r| world.events().evicted(r)).sum();
    assert_eq!(dropped, 0, "ring eviction would skew the pairing");
    let sorted_slice = |events: Vec<Vec<Event>>| -> Vec<Vec<Event>> {
        let by_time = |mut ring: Vec<Event>| {
            ring.sort_by_key(|e| (e.ts_us, e.dur_us, e.a, e.b, e.n));
            ring
        };
        events.into_iter().map(by_time).collect()
    };

    // ---- Ground truth: the shared FIFO pairing over the raw rings. -------
    let pairing = msgflow::pair_fifo(&rings);
    assert!(pairing.pairs.len() >= 3, "3 scripted pairs at minimum");
    let unpaired: BTreeSet<(usize, usize, u64, u64)> = pairing
        .unpaired_sends
        .iter()
        .map(|u| (u.src, u.dst, u.tag, u.ts_us))
        .collect();
    assert!(
        unpaired.iter().any(|&(src, dst, tag, _)| (src, dst, tag) == (0, 1, 11)),
        "scripted unpaired send missing: {unpaired:?}"
    );

    // ---- Exporter 1: chrome-trace flow arrows. ---------------------------
    let doc = Json::parse(&chrome_trace(&rings)).unwrap();
    let mut starts: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // id -> (pid, ts)
    let mut finishes: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let rows = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    // The trace rendered exactly the recorded slice (messages only here:
    // nothing traced spans and nothing journaled).
    let mut traced: Vec<Vec<Event>> = vec![Vec::new(); 2];
    for (pid, e) in rows.iter().filter_map(parse_chrome_row) {
        traced[pid].push(e);
    }
    // (A receive that did not have to wait is drawn, and so decodes, one
    // microsecond wide.)
    let drawn = |ring: &Vec<Event>| ring.iter().map(as_drawn).collect();
    assert_eq!(
        sorted_slice(traced),
        sorted_slice(rings.iter().map(drawn).collect()),
        "trace rows vs recorded events"
    );
    for e in rows {
        let row = |e: &Json| {
            (
                e.get("id").and_then(Json::as_u64).expect("flow id"),
                e.get("pid").and_then(Json::as_u64).unwrap(),
                e.get("ts").and_then(Json::as_u64).unwrap(),
            )
        };
        match e.get("ph").and_then(Json::as_str) {
            Some("s") => {
                let (id, pid, ts) = row(e);
                starts.insert(id, (pid, ts));
            }
            Some("f") => {
                let (id, pid, ts) = row(e);
                finishes.insert(id, (pid, ts));
            }
            _ => {}
        }
    }
    assert_eq!(starts.len(), pairing.pairs.len(), "one arrow per pair");
    assert_eq!(finishes.len(), pairing.pairs.len());
    for (i, p) in pairing.pairs.iter().enumerate() {
        let id = i as u64 + 1; // flow ids are emitted in pairing order
        assert_eq!(starts[&id], (p.src as u64, p.send_ts_us), "pair {i} start");
        assert_eq!(
            finishes[&id],
            (p.dst as u64, p.delivered_us()),
            "pair {i} finish"
        );
    }

    // ---- Exporter 2: flight-recorder postmortem. -------------------------
    let dir = std::env::temp_dir().join(format!("ap3esm-critpath-it-{}", std::process::id()));
    let run = RunDir::create_at(dir.join("pairing"), "pairing-regression").unwrap();
    run.write_events(&rings).unwrap();
    let bundle = run.path();
    // The trace on disk, which the postmortem reads, holds exactly the
    // recorded slice as drawn.
    let tdoc = Json::parse(&std::fs::read_to_string(bundle.join("trace.json")).unwrap()).unwrap();
    assert_eq!(
        sorted_slice(parse_chrome_trace(&tdoc).unwrap()),
        sorted_slice(rings.iter().map(drawn).collect()),
        "trace.json rows vs recorded events"
    );
    let postmortem = flightrec::analyze(bundle).unwrap();
    // The postmortem re-sorts blamed-rank-first, so compare as sets.
    let pm_unpaired: BTreeSet<(usize, usize, u64, u64)> = postmortem
        .unpaired_sends
        .iter()
        .map(|u| (u.src, u.dst, u.tag, u.ts_us))
        .collect();
    assert_eq!(pm_unpaired, unpaired, "postmortem disagrees with msgflow");
    let _ = std::fs::remove_dir_all(&dir);

    // ---- Exporter 3: the critical-path analyzer. -------------------------
    // Every receive it classified is a recorded receive (one that did not
    // wait reads as drawn, one microsecond wide), and the ones the pairing
    // matched are exactly the ones it did not call orphans.
    let analysis = Analyzer::new(&rings).analyze();
    let paired_waits: BTreeSet<(usize, usize, u64, u64)> = pairing
        .pairs
        .iter()
        .map(|p| (p.dst, p.src, p.tag, p.recv_ts_us))
        .collect();
    let analyzed_waits: BTreeSet<(usize, usize, u64, u64)> = analysis
        .waits
        .iter()
        .filter(|w| w.class != WaitClass::Orphan && w.class != WaitClass::Timeout)
        .map(|w| (w.rank, w.peer, w.tag, w.ts_us))
        .collect();
    assert_eq!(analyzed_waits, paired_waits, "analyzer disagrees with msgflow");
}
