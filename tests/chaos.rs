//! Tier-1 chaos integration tests (ISSUE PR 7).
//!
//! Two end-to-end scenarios over the real coupled driver:
//!
//! 1. **Detection → attribution → recovery**: a fault plan silently drops
//!    one coupling message; the receiver's `recv` times out into a
//!    `Deadlock` naming the missing `(src, tag)`, the health agreement
//!    escalates it to a rollback, and the run completes.
//! 2. **Shrink-to-fit degraded mode**: an ocean rank dies permanently
//!    mid-run; the survivors vote it out, redistribute the last committed
//!    checkpoint onto the smaller layout, and continue degraded. The
//!    degraded tail must be **bitwise identical** to a fresh reference
//!    world of the shrunken size resuming from the same hand-off.

use ap3esm::comm::{FaultInjector, FaultPlan};
use ap3esm::esm::RecoveryConfig;
use ap3esm::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Generous enough that legitimate compute gaps in debug builds never
/// masquerade as deadlocks, small enough that detection stays test-sized.
const RECV_TIMEOUT: Duration = Duration::from_millis(800);

/// The shrink test's survivors sit in a `recv` while rank 0 redistributes
/// the ocean restart and broadcasts the hand-off (`Recovery::hand_off`):
/// 0.25-0.6 s in a debug build, up to 1.1 s measured with the other test of
/// this file dumping its bundle on the second core. 800 ms turned that
/// wait into a second, spurious deadlock in 2-4 of 32 runs.
const SHRINK_RECV_TIMEOUT: Duration = Duration::from_secs(4);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ap3esm-chaos-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_bitwise(name: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{name}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{name}[{i}] diverged: {x} vs {y}");
    }
}

/// Byte-compare every file of two checkpoint directories, except the
/// `cpl_meta` series-length bookkeeping (a degraded run keeps its pre-loss
/// series entries, a fresh reference starts empty — physical state fields
/// must still match exactly).
fn assert_checkpoint_dirs_match(a: &Path, b: &Path) {
    let list = |d: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .unwrap_or_else(|e| panic!("read {}: {e}", d.display()))
            .map(|f| f.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| !n.starts_with("cpl_meta"))
            .collect();
        names.sort();
        names
    };
    let (na, nb) = (list(a), list(b));
    assert_eq!(na, nb, "checkpoint file sets differ");
    for name in &na {
        let ba = std::fs::read(a.join(name)).unwrap();
        let bb = std::fs::read(b.join(name)).unwrap();
        assert_eq!(ba, bb, "checkpoint file {name} differs byte-wise");
    }
}

/// Drop the gathered export of ocean coupling 2 (rank 1 -> root, p2p wire
/// tag of user tag 22; one packed message per coupling, so `nth=2`). Root's
/// receive of it — settled before that coupling's health vote — must time
/// out into a Deadlock that blames `(src 1, tag)`, and the recovery layer
/// must roll back and finish.
#[test]
fn dropped_coupling_message_is_detected_attributed_and_recovered() {
    let config = CoupledConfig::test_tiny();
    let gather_p2p_tag: u64 = 0x5240_0000 + 22;
    let plan = FaultPlan::parse(&format!("drop src=1 dst=0 tag={gather_p2p_tag} nth=2\n"))
        .expect("plan parses");
    plan.validate(config.world_size()).expect("plan validates");

    let ckpt = tmpdir("drop");
    let opts = CoupledOptions {
        days: 1.0,
        checkpoint_dir: Some(ckpt.clone()),
        recovery: RecoveryConfig {
            checkpoint_interval: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let world = World::new(config.world_size())
        .with_recv_timeout(RECV_TIMEOUT)
        .with_fault_injector(Arc::new(FaultInjector::new(plan)));
    let all = world.run(|rank| run_coupled(rank, &config, &opts));
    let root = &all[0];

    assert!(root.failure.is_none(), "run failed: {:?}", root.failure);
    assert_eq!(root.recoveries, 1, "exactly one rollback expected");
    assert_eq!(
        root.shrinks, 0,
        "a transient drop must not shrink the world"
    );
    assert_eq!(
        root.simulated_seconds, 86_400.0,
        "run must complete the day"
    );
    assert_eq!(root.sst_series.len(), 4);

    // Detection: the timeout surfaced as a comm fault at the right coupling.
    assert!(
        root.fault_events
            .iter()
            .any(|e| e.contains("comm fault at ocn coupling 2") && e.contains("deadlock")),
        "missing detection event: {:?}",
        root.fault_events
    );
    // Attribution: the deadlock names the dropped stream's source and tag.
    assert!(
        root.fault_events
            .iter()
            .any(|e| e.contains("(src 1") && e.contains(&format!("{gather_p2p_tag:#x}"))),
        "missing attribution: {:?}",
        root.fault_events
    );
    // The injector's own record of the drop is in the same stream.
    assert!(
        root.fault_events
            .iter()
            .any(|e| e.contains("msg fault Drop") && e.contains("1->0")),
        "missing injected-fault record: {:?}",
        root.fault_events
    );
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// The PR's acceptance scenario: a 4-rank world (3x1 ocean) loses rank 2
/// permanently at ocean coupling 3. The survivors must shrink to 3 ranks,
/// resume from the redistributed checkpoint 2, and finish the day — and
/// the post-loss trajectory must match, bitwise, a *fresh* 3-rank world
/// (2x1 ocean, the shrink-to-fit decomposition) resuming from the same
/// hand-off directory.
#[test]
fn permanent_rank_loss_shrinks_and_matches_fresh_reference() {
    let mut config = CoupledConfig::test_tiny();
    config.ocn_px = 3;
    config.ocn_py = 1;
    assert_eq!(config.world_size(), 4);

    let plan = FaultPlan::parse("die rank=2 step=3\n").expect("plan parses");
    plan.validate(config.world_size()).expect("plan validates");

    let base = tmpdir("shrink");
    let ckpt_degraded = base.join("degraded");
    let opts = CoupledOptions {
        days: 1.0,
        checkpoint_dir: Some(ckpt_degraded.clone()),
        recovery: RecoveryConfig {
            checkpoint_interval: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let world = World::new(config.world_size())
        .with_recv_timeout(SHRINK_RECV_TIMEOUT)
        .with_fault_injector(Arc::new(FaultInjector::new(plan)));
    let all = world.run(|rank| run_coupled(rank, &config, &opts));
    let root = &all[0];

    assert!(
        root.failure.is_none(),
        "degraded run failed: {:?}",
        root.failure
    );
    assert_eq!(root.shrinks, 1, "exactly one shrink expected");
    assert_eq!(root.degraded_ranks, 1, "one rank was lost");
    assert!(all[2].lost, "rank 2 must report itself permanently lost");
    assert!(!all[1].lost && !all[3].lost, "survivors are not lost");
    assert_eq!(all[1].shrinks, 1, "survivors agree on the shrink count");
    assert_eq!(all[3].shrinks, 1);
    assert_eq!(
        root.simulated_seconds, 86_400.0,
        "run must complete the day"
    );
    // Checkpoint 2 committed before the loss: couplings 1-2 kept, 3-4
    // replayed degraded.
    assert_eq!(root.sst_series.len(), 4);
    assert_eq!(root.theta_series.len(), 8);
    assert!(
        root.fault_events
            .iter()
            .any(|e| e.contains("membership shrunk")),
        "missing shrink event: {:?}",
        root.fault_events
    );

    // The reference world: 3 ranks from scratch, the ocean on the same 2x1
    // decomposition the shrink re-fitted, resuming from the same hand-off.
    let shrunk = ckpt_degraded.join("shrunk_g1");
    assert!(shrunk.is_dir(), "shrink hand-off directory missing");
    let mut ref_config = config.clone();
    ref_config.ocn_px = 2;
    ref_config.ocn_py = 1;
    assert_eq!(ref_config.world_size(), 3);
    let ckpt_reference = base.join("reference");
    let ref_opts = CoupledOptions {
        days: 1.0,
        checkpoint_dir: Some(ckpt_reference.clone()),
        recovery: RecoveryConfig {
            checkpoint_interval: 1,
            ..Default::default()
        },
        resume_from: Some(shrunk.clone()),
        ..Default::default()
    };
    let ref_world = World::new(ref_config.world_size()).with_recv_timeout(RECV_TIMEOUT);
    let ref_all = ref_world.run(|rank| run_coupled(rank, &ref_config, &ref_opts));
    let ref_root = &ref_all[0];

    assert!(
        ref_root.failure.is_none(),
        "reference run failed: {:?}",
        ref_root.failure
    );
    assert_eq!(ref_root.shrinks, 0);
    assert_eq!(ref_root.simulated_seconds, 86_400.0);
    // Checkpoint 2 was written during ocean coupling 2 (event t=21600)
    // with the clock already advanced to t=32400: the resumed trajectory
    // replays ocean couplings 3-4 and the 5 atm/ice couplings from
    // t=32400 on.
    assert_eq!(
        ref_root.sst_series.len(),
        2,
        "reference replays couplings 3-4"
    );
    assert_eq!(ref_root.theta_series.len(), 5);

    // The degraded tail is the reference trajectory, bit for bit.
    assert_bitwise("sst", &root.sst_series[2..], &ref_root.sst_series);
    assert_bitwise("ke", &root.ke_series[2..], &ref_root.ke_series);
    assert_bitwise("theta", &root.theta_series[3..], &ref_root.theta_series);
    assert_bitwise("ice", &root.ice_series[3..], &ref_root.ice_series);

    // And the final committed checkpoints are byte-identical field files.
    assert_checkpoint_dirs_match(
        &ckpt_degraded.join("ckpt_00000004"),
        &ckpt_reference.join("ckpt_00000004"),
    );
    let _ = std::fs::remove_dir_all(&base);
}
