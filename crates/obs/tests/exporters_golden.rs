//! The exporters' bytes, pinned.
//!
//! `golden/` holds what the parent of PR 17 wrote for one synthetic 2-rank
//! fixture with fixed timestamps — spans, every journal kind, send, recv,
//! timeout and stale — through its `ChromeTrace`, `folded_stacks`,
//! `Postmortem` and `Analysis`, moved since only where a schema changed:
//! instants carry their fields in `args`, the postmortem quotes each rank's
//! last event as its trace row (`ap3esm-postmortem/2`), and the critical
//! path reports each number once (`ap3esm-critpath/2`). There the fixture
//! took three stores (a `TraceSink` of spans and instants, a
//! `FlightRecorder` of journal entries whose detail was the instant's name,
//! a `CommEventLog`); here it is one `Vec<Event>` per rank, and every
//! exporter must reproduce the same bytes from that one slice.

use std::path::PathBuf;

use ap3esm_obs::critpath::Analyzer;
use ap3esm_obs::event::{Event, Kind, Name};
use ap3esm_obs::flightrec::analyze_events;
use ap3esm_obs::json::Json;
use ap3esm_obs::trace::{chrome_trace, folded_stacks};
use ap3esm_obs::{RankTree, RunDir, SpanSnapshot};

/// A tag in the reserved collective namespace (a sub-barrier leg).
const COLL: u64 = 0xC0_0000_0000 + 0x7000 + 3;

fn golden(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Each rank's span-and-message ring in arrival order, then its journal —
/// the shape of an `EventLog::snapshot`.
fn fixture() -> Vec<Vec<Event>> {
    let span = |name: &str, ts, dur, tid| Event::span(Name::new(name), tid, ts, dur);
    let mark = |kind, name: &str, a, b, ts, tid| Event::mark(kind, Name::new(name), a, b, tid, ts);
    let rank0 = vec![
        span("dycore", 100, 400, 1),
        Event::msg(Kind::Send, 450, 0, 1, COLL, 8),
        span("atm_run", 0, 1_000, 1),
        Event::msg(Kind::Recv, 1_000, 4_100, 1, 7, 64),
        span("io_restart", 5_200, 100, 1),
        span("cpl_rearrange", 5_100, 900, 1),
        Event::msg(Kind::Send, 6_000, 0, 1, 9, 128),
        Event::msg(Kind::Timeout, 6_100, 500, 1, 11, 0),
        Event::msg(Kind::Stale, 6_700, 0, 1, 0, 3),
        mark(Kind::Mark, "run.start", 0, 0, 0, 1),
        mark(Kind::CkptBegin, "checkpoint.begin", 1, 0, 5_050, 1),
        mark(Kind::CkptCommit, "checkpoint.commit", 1, 0, 5_090, 1),
        mark(Kind::Health, "health.agreement_lost", 2, 1, 6_600, 1),
        mark(Kind::Recovery, "rollback", 1, 0, 6_650, 1),
        mark(Kind::Alert, "alert.sypd-collapse", 0, 0, 6_680, 2),
        mark(Kind::ServeSubmit, "tenant-a", 7, 0, 6_690, 1),
        mark(Kind::ServeDone, "", 7, 1_234, 6_695, 1),
        mark(Kind::ServeShed, "overloaded", 8, 0, 6_698, 1),
    ];
    let rank1 = vec![
        Event::msg(Kind::Recv, 200, 300, 0, COLL, 8),
        span("ocn_run", 0, 5_000, 3),
        Event::msg(Kind::Send, 5_000, 0, 0, 7, 64),
        span("cpl_rearrange", 5_000, 1_000, 3),
        mark(Kind::Mark, "run.start", 0, 0, 0, 3),
        mark(Kind::Fault, "fault.kill", 2, 0, 5_000, 3),
        mark(Kind::Shrink, "recovery.shrink", 1, 1, 6_900, 3),
    ];
    vec![rank0, rank1]
}

#[test]
fn chrome_trace_matches_the_parent_byte_for_byte() {
    let json = chrome_trace(&fixture());
    // The build stamp names this commit and host; everything before it is
    // a function of the events alone.
    let body = json.split(",\"metadata\":").next().unwrap();
    assert_eq!(body, golden("chrome_trace.json"));
}

#[test]
fn folded_stacks_match_the_parent_byte_for_byte() {
    let snap = |path: &str, total_us: u64, self_us: u64| SpanSnapshot {
        path: path.into(),
        name: path.rsplit('/').next().unwrap().into(),
        depth: path.matches('/').count(),
        total_s: total_us as f64 * 1e-6,
        self_s: self_us as f64 * 1e-6,
        count: 1,
    };
    let trees = vec![
        RankTree {
            rank: 0,
            dropped: 0,
            spans: vec![
                snap("atm_run", 1_000, 600),
                snap("atm_run/dycore", 400, 400),
                snap("cpl_rearrange", 900, 800),
                snap("cpl_rearrange/io_restart", 100, 100),
            ],
        },
        RankTree {
            rank: 1,
            dropped: 0,
            spans: vec![
                snap("ocn_run", 5_000, 5_000),
                snap("cpl_rearrange", 1_000, 1_000),
            ],
        },
    ];
    assert_eq!(folded_stacks(&trees), golden("folded.txt"));
}

#[test]
fn postmortem_matches_the_parent_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("ap3esm-obs-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let events = fixture();
    let pm = analyze_events(PathBuf::from("golden"), "golden".into(), &events);
    assert_eq!(pm.to_json().to_string(), golden("postmortem.json"));
    assert_eq!(pm.render_table(), golden("postmortem.txt"));
    // The run directory's trace decodes to the same postmortem, every
    // field of it.
    let run = RunDir::create_at(dir.join("golden"), "golden").unwrap();
    run.write_events(&events).unwrap();
    let offline = ap3esm_obs::analyze(run.path()).unwrap();
    assert_eq!(offline, analyze_events(run.path().to_path_buf(), "golden".into(), &events));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn critical_path_matches_the_parent_byte_for_byte() {
    let events = fixture();
    let direct = Analyzer::new(&events).with_sypd(1.5).analyze();
    assert_eq!(direct.to_json().to_string(), golden("critpath.json"));
    assert_eq!(direct.render_table(), golden("critpath.txt"));
    // The shared row codec loses nothing the analyzer uses: the same
    // analysis comes back out of the rendered trace. (The parent's offline
    // reader dropped stale discards and ended the run 100 µs early.)
    let doc = Json::parse(&chrome_trace(&events)).unwrap();
    let offline = Analyzer::from_chrome_trace(&doc)
        .unwrap()
        .with_sypd(1.5)
        .analyze();
    assert_eq!(offline, direct);
}
