//! Tier-1 integration tests for the per-rank trace timelines (ISSUE PR 3).
//!
//! A 2-rank coupled run with tracing on and a fault injected must leave a
//! run directory with a run report carrying *both* ranks' span trees, a
//! schema-valid Chrome Trace Event file with `X` events from both pids plus
//! at least one resilience instant event, and a collapsed-stack flamegraph
//! with frames from both ranks.

mod common;

use ap3esm::comm::{FaultInjector, FaultPlan};
use ap3esm::esm::RecoveryConfig;
use ap3esm::obs::event::{parse_chrome_row, Kind};
use ap3esm::obs::json::Json;
use ap3esm::prelude::*;
use common::{run_dir_members, run_dir_reason};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ap3esm-trace-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn traced_faulted_run_emits_both_ranks_and_resilience_markers() {
    // Two ranks: rank 0 = coupler+ATM+ICE+LND, rank 1 = the single ocean
    // domain. Kill the ocean rank mid-run so the rollback path fires.
    let mut config = CoupledConfig::test_tiny();
    config.ocn_px = 1;
    config.ocn_py = 1;
    assert_eq!(config.world_size(), 2);

    let plan = FaultPlan::parse("kill rank=1 step=2").unwrap();
    let ckpt_dir = tmpdir("faulted");
    let name = format!("trace-it-{}", std::process::id());
    let opts = CoupledOptions {
        days: 2.0,
        report_name: Some(name.clone()),
        trace: true,
        checkpoint_dir: Some(ckpt_dir.clone()),
        recovery: RecoveryConfig {
            checkpoint_interval: 1,
            keep_checkpoints: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let world = World::new(config.world_size())
        .with_fault_injector(Arc::new(FaultInjector::new(plan)));
    let all = world.run(|rank| run_coupled(rank, &config, &opts));
    let root = &all[0];
    assert!(root.failure.is_none(), "run failed: {:?}", root.failure);
    assert_eq!(root.recoveries, 1, "expected exactly one rollback");

    // ---- The run report serialises every rank's bounded span tree. ------
    let report =
        Json::parse(root.report_json.as_deref().expect("report requested")).expect("report JSON");
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some("ap3esm-obs/6")
    );
    let trees = report
        .get("rank_trees")
        .and_then(Json::as_arr)
        .expect("rank_trees array");
    assert_eq!(trees.len(), 2, "one tree per rank");
    for (want_rank, tree) in trees.iter().enumerate() {
        assert_eq!(
            tree.get("rank").and_then(Json::as_u64),
            Some(want_rank as u64)
        );
        let spans = tree.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(!spans.is_empty(), "rank {want_rank}'s tree is empty");
    }
    // The lane count of rank 0's team is in the report's metrics and in the
    // stats; worker lanes open no spans, so every span of rank 0's tree was
    // opened on the rank thread (a worker has no `Obs` installed).
    let lanes = report
        .get("metrics")
        .and_then(|m| m.get("rank.lanes"))
        .and_then(Json::as_f64)
        .expect("rank.lanes gauge");
    assert!(lanes >= 1.0);
    assert_eq!(lanes, root.lanes as f64);
    assert!(
        all[1].lanes >= 1,
        "the ocean rank's team is at least itself"
    );
    // The ocean rank's tree holds ocean work rank 0 never ran.
    let rank1_paths: Vec<&str> = trees[1]
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|s| s.get("path").and_then(Json::as_str))
        .collect();
    assert!(
        rank1_paths.iter().any(|p| p.starts_with("ocn_run")),
        "no ocn_run in rank 1's tree: {rank1_paths:?}"
    );

    // ---- One directory holds the run, its trouble named in the manifest:
    //      a reported run's members plus the fault plan. ------------------
    let dir = root.run_dir.as_ref().expect("run directory");
    let mut want = REPORTED.to_vec();
    want.push("faultplan.txt");
    want.sort();
    assert_eq!(run_dir_members(dir), want);
    assert_ne!(run_dir_reason(dir), "ok");

    // ---- The chrome trace is schema-valid and covers both ranks. --------
    let trace = Json::parse(&std::fs::read_to_string(dir.join("trace.json")).unwrap())
        .expect("trace JSON parses");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut x_pids = std::collections::BTreeSet::new();
    let mut instants = Vec::new();
    let mut last_ts: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("event has ph");
        let pid = e.get("pid").and_then(Json::as_u64).expect("event has pid");
        if ph == "M" {
            continue; // metadata events carry no timestamp
        }
        let ts = e.get("ts").and_then(Json::as_u64).expect("event has ts");
        let tid = e.get("tid").and_then(Json::as_u64).expect("event has tid");
        match ph {
            "X" => {
                x_pids.insert(pid);
                // Timestamps are monotone non-decreasing per (pid, tid)
                // track — Perfetto rejects out-of-order complete events.
                let key = (pid, tid);
                if let Some(prev) = last_ts.get(&key) {
                    assert!(
                        ts >= *prev,
                        "ts regression on pid {pid} tid {tid}: {prev} -> {ts}"
                    );
                }
                last_ts.insert(key, ts);
            }
            "i" => instants.push(
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("instant has name")
                    .to_string(),
            ),
            "s" | "f" => {
                assert!(e.get("id").is_some(), "flow event lacks id");
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(
        x_pids.contains(&0) && x_pids.contains(&1),
        "span events must come from both ranks, got pids {x_pids:?}"
    );
    let resilience_markers = ["fault.", "rollback", "checkpoint.", "health."];
    assert!(
        instants
            .iter()
            .any(|n| resilience_markers.iter().any(|m| n.starts_with(m))),
        "no resilience instant event among {instants:?}"
    );

    // ---- The flamegraph has frames from both ranks. ---------------------
    let folded = std::fs::read_to_string(dir.join("folded.txt")).unwrap();
    assert!(folded.lines().any(|l| l.starts_with("rank0;")));
    assert!(folded.lines().any(|l| l.starts_with("rank1;")));
    for line in folded.lines() {
        let (_stack, weight) = line.rsplit_once(' ').expect("folded line has a weight");
        weight.parse::<u64>().expect("weight is an integer");
    }

    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_dir_all(dir);
}

/// What a reported run with the flight recorder on leaves, traced or not.
const REPORTED: [&str; 4] = [
    "folded.txt",
    "manifest.json",
    "report.json",
    "trace.json",
];

/// Tracing off (the default) changes what is in the files, not which files
/// there are: the untraced run's directory has a traced one's members, its
/// chrome trace has no span rows, and nothing analyzed a critical path.
#[test]
fn untraced_run_leaves_the_same_members_without_span_rows() {
    let mut config = CoupledConfig::test_tiny();
    config.ocn_px = 1;
    config.ocn_py = 1;
    let name = format!("untraced-it-{}", std::process::id());
    let opts = CoupledOptions {
        days: 0.5,
        report_name: Some(name),
        ..Default::default()
    };
    let world = World::new(config.world_size());
    let all = world.run(|rank| run_coupled(rank, &config, &opts));
    let root = &all[0];
    let dir = root.run_dir.as_ref().expect("run directory");
    assert_eq!(run_dir_members(dir), REPORTED);
    assert_eq!(run_dir_reason(dir), "ok");
    assert!(root.critpath.is_none());
    let trace = Json::parse(&std::fs::read_to_string(dir.join("trace.json")).unwrap()).unwrap();
    let rows = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    let decoded: Vec<_> = rows.iter().filter_map(parse_chrome_row).collect();
    assert!(decoded.iter().any(|(_, e)| e.kind.is_message()), "messages are recorded");
    assert!(!decoded.iter().any(|(_, e)| e.kind == Kind::Span), "a span row untraced");
    // The report still carries every rank's tree — trees ride with the
    // report, not with tracing.
    let report = Json::parse(root.report_json.as_deref().unwrap()).unwrap();
    let trees = report.get("rank_trees").and_then(Json::as_arr).unwrap();
    assert_eq!(trees.len(), 2);
    let _ = std::fs::remove_dir_all(dir);
}
