//! Tier-1 postmortem acceptance test (ISSUE PR 8).
//!
//! The flight-recorder contract, end to end over the real coupled driver:
//! a chaos scenario that kills rank 1 mid-run must leave behind a
//! self-contained run directory, and the offline analyzer — reading
//! nothing but that directory — must name rank 1 as the first-stalled rank
//! and list the sends its silence orphaned.

mod common;

use ap3esm::comm::{FaultInjector, FaultPlan};
use ap3esm::esm::RecoveryConfig;
use ap3esm::obs::RunDir;
use ap3esm::prelude::*;
use common::{run_dir_members, run_dir_reason};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Generous enough that legitimate compute gaps in debug builds never
/// masquerade as deadlocks, small enough that detection stays test-sized.
const RECV_TIMEOUT: Duration = Duration::from_millis(800);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ap3esm-pm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Rank 1 (an ocean rank) is killed mid-run before the first checkpoint
/// commit: its last message to root is silently dropped on the wire and
/// the rank then dies permanently at the step-1 boundary, so the run ends
/// in a clean structured `RecoveryFailure`. Root must write the run's
/// directory on the way out, and `analyze` must reconstruct the whole story
/// from the directory alone — first-stalled rank, the send that never met
/// its receive, and the timeouts that detected the silence.
#[test]
fn killed_rank_is_blamed_by_the_bundle_analyzer() {
    let mut config = CoupledConfig::test_tiny();
    config.ocn_px = 3;
    config.ocn_py = 1;
    assert_eq!(config.world_size(), 4);

    let plan = FaultPlan::parse("drop src=1 dst=0 tag=* nth=1\ndie rank=1 step=1\n")
        .expect("plan parses");
    plan.validate(config.world_size()).expect("plan validates");

    let ckpt = tmpdir("kill");
    let bundle_name = format!("pm-kill-{}", std::process::id());
    let opts = CoupledOptions {
        days: 1.0,
        checkpoint_dir: Some(ckpt.clone()),
        recovery: RecoveryConfig {
            checkpoint_interval: 1,
            ..Default::default()
        },
        bundle_name: Some(bundle_name.clone()),
        ..Default::default()
    };
    let world = World::new(config.world_size())
        .with_recv_timeout(RECV_TIMEOUT)
        .with_fault_injector(Arc::new(FaultInjector::new(plan)));
    let all = world.run(|rank| run_coupled(rank, &config, &opts));
    let root = &all[0];

    // The scenario ends in a structured failure (no checkpoint to shrink
    // onto), never a hang — and that failure must produce a run directory.
    assert!(
        root.failure.is_some(),
        "dying before the first checkpoint must be a structured failure"
    );
    assert!(all[1].lost, "rank 1 must report itself permanently lost");
    let bundle = root
        .run_dir
        .as_ref()
        .expect("driver must write its run directory on recovery failure");
    assert!(bundle.ends_with(&bundle_name));

    // The directory is self-contained: the trace of the event log, the manifest
    // naming the failure (and the build), and the fault plan that caused
    // it all.
    let members = ["faultplan.txt", "manifest.json", "trace.json"];
    assert_eq!(run_dir_members(bundle), members);
    assert!(run_dir_reason(bundle).starts_with("recovery-failure: "));
    let plan_txt = std::fs::read_to_string(bundle.join("faultplan.txt")).unwrap();
    assert!(
        plan_txt.contains("die rank=1 step=1") && plan_txt.contains("drop src=1 dst=0"),
        "fault plan not preserved: {plan_txt}"
    );

    // The analyzer, offline, from the bundle alone.
    let pm = ap3esm::obs::analyze(bundle).expect("bundle analyzes");
    assert_eq!(pm.n_ranks, 4);
    assert!(pm.total_events > 0, "journal must not be empty");
    assert_eq!(
        pm.blamed,
        Some(1),
        "the dead rank must be named first-stalled; activity: {:#?}",
        pm.ranks
    );
    assert!(
        pm.silence_gap_us > 0,
        "the world kept running after rank 1 went silent"
    );

    // Its silence orphaned traffic: sends into (or out of) rank 1 with no
    // matching receive, listed before any bystander pairs.
    assert!(
        !pm.unpaired_sends.is_empty(),
        "killing a rank mid-coupling must orphan at least one send"
    );
    assert!(
        pm.unpaired_sends.iter().any(|u| u.dst == 1 || u.src == 1),
        "unpaired sends must involve the blamed rank: {:?}",
        pm.unpaired_sends
    );
    let first = &pm.unpaired_sends[0];
    assert!(
        first.src == 1 || first.dst == 1,
        "blamed-rank channels must sort first: {first:?}"
    );

    // The survivors' receives from rank 1 timed out — the detection edge.
    assert!(
        pm.timeouts.iter().any(|t| t.peer == 1),
        "expected a recv-timeout blaming rank 1: {:?}",
        pm.timeouts
    );

    // The human rendering carries the verdict, and the JSON round-trips
    // the blame for `scripts/diagnose.sh --expect-blame` in CI.
    let table = pm.render_table();
    assert!(table.contains("blamed rank: 1"), "table:\n{table}");
    let json = pm.to_json();
    assert_eq!(json.get("blamed_rank").and_then(|j| j.as_u64()), Some(1));
    assert_eq!(
        json.get("schema").and_then(|j| j.as_str()),
        Some("ap3esm-postmortem/2")
    );
    // The verdict joins the evidence, as `obs postmortem` writes it, and
    // the index follows.
    let run = RunDir::open(bundle).expect("run directory reopens");
    run.write("postmortem.json", &json.to_string()).unwrap();
    let mut members = members.to_vec();
    members.push("postmortem.json");
    members.sort();
    assert_eq!(run_dir_members(bundle), members);

    let _ = std::fs::remove_dir_all(&ckpt);
    let _ = std::fs::remove_dir_all(bundle);
}
