//! The lagged, split-phase ocean exchange is one program order in every
//! layout: the ocean's export of coupling *k* is published at coupling
//! *k + 1* whether it crossed a thread boundary or not, and however long it
//! took to arrive. So layouts, exchange strategies, message delays, the
//! recovery layer and a restart in the middle all give the same bits — and
//! so does the number of lanes the rank's atmosphere and ocean step on.

use ap3esm::comm::{FaultInjector, FaultPlan};
use ap3esm::cpl::{RearrangeStrategy, Rearranger};
use ap3esm::esm::{Coupler, Parts, RecoveryConfig};
use ap3esm::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// `test_tiny` (8/4/8 couplings per day) with a 1×1 ocean.
fn tiny(single_domain: bool, strategy: RearrangeStrategy) -> CoupledConfig {
    CoupledConfig {
        ocn_px: 1,
        ocn_py: 1,
        single_domain,
        strategy,
        ..CoupledConfig::test_tiny()
    }
}

/// Rank 0's stats of one run.
fn run(world: World, config: &CoupledConfig, opts: &CoupledOptions) -> CoupledStats {
    let mut all = world.run(|rank| run_coupled(rank, config, opts));
    let root = all.swap_remove(0);
    assert!(root.failure.is_none(), "run failed: {:?}", root.failure);
    root
}

fn days(days: f64) -> CoupledOptions {
    CoupledOptions {
        days,
        ..Default::default()
    }
}

/// The four diagnostic series, bit for bit.
fn bits(stats: &CoupledStats) -> [Vec<u64>; 4] {
    [
        &stats.sst_series,
        &stats.theta_series,
        &stats.ke_series,
        &stats.ice_series,
    ]
    .map(|series| series.iter().map(|v| v.to_bits()).collect())
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ap3esm-layouts-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sequential_is_bitwise_two_domain_under_both_strategies() {
    let mut reference = None;
    for strategy in [
        RearrangeStrategy::NonBlockingP2p,
        RearrangeStrategy::AllToAll,
    ] {
        let seq = run(World::new(1), &tiny(true, strategy), &days(0.5));
        let two = run(World::new(2), &tiny(false, strategy), &days(0.5));
        assert_eq!(seq.sst_series.len(), 2);
        assert_eq!(
            bits(&seq),
            bits(&two),
            "{strategy:?}: layout changed the answer"
        );
        // ... and the strategy does not either.
        assert_eq!(*reference.get_or_insert(bits(&seq)), bits(&seq));
    }
}

#[test]
fn p2p_is_bitwise_alltoall_on_the_five_rank_mesh() {
    let mut config = CoupledConfig::test_tiny();
    assert_eq!(config.world_size(), 5);
    config.strategy = RearrangeStrategy::NonBlockingP2p;
    let p2p = run(World::new(5), &config, &days(0.5));
    config.strategy = RearrangeStrategy::AllToAll;
    let a2a = run(World::new(5), &config, &days(0.5));
    assert_eq!(p2p.ke_series.len(), 2);
    assert_eq!(bits(&p2p), bits(&a2a));
}

/// `length` days stepped by hand through a sequential-layout `Coupler` whose
/// atmosphere and ocean were re-teamed to `lanes` (`None`: the one team
/// `Coupler::build` measured for the rank). Returns the lanes it ran on.
fn stepped_on(lanes: Option<usize>, config: &CoupledConfig, length: f64) -> (CoupledStats, usize) {
    let grid = config.ocean_grid();
    let mut out = World::new(1).run(|rank| {
        let parts = Parts::of_rank(rank, config);
        let mut cpl = Coupler::build(rank, config, &days(length), &grid, parts);
        {
            let (atm, ocn) = (cpl.atm.as_ref().unwrap(), cpl.ocn.as_ref().unwrap());
            assert!(
                Arc::ptr_eq(atm.space(), ocn.space()),
                "one team per rank, not one per component"
            );
            assert_eq!(cpl.lanes(), atm.lanes());
        }
        if let Some(lanes) = lanes {
            cpl.atm = cpl.atm.take().map(|atm| atm.with_lanes(lanes));
            cpl.ocn = cpl.ocn.take().map(|ocn| ocn.with_lanes(lanes));
        }
        let ran_on = cpl.lanes();
        assert_eq!(cpl.ocn.as_ref().unwrap().lanes(), ran_on);
        let mut stats = CoupledStats::default();
        while (cpl.clock.time as f64) < 86_400.0 * length {
            let step = cpl.step(rank, &mut stats);
            assert_eq!(step.comm_fault, None);
        }
        assert_eq!(cpl.finish(rank, &mut stats), None);
        (stats, ran_on)
    });
    out.swap_remove(0)
}

/// The lanes axis, beside layout × strategy: an atmosphere and an ocean on
/// three lanes (more than this box has cores) give the one-lane day bit for
/// bit, which is the day `run_coupled` gives with whatever lane count it
/// measures.
#[test]
fn lane_count_changes_no_bit_of_a_coupled_day() {
    let strategy = RearrangeStrategy::NonBlockingP2p;
    let config = tiny(true, strategy);
    let (one, ran_on) = stepped_on(Some(1), &config, 1.0);
    assert_eq!(ran_on, 1);
    assert_eq!((one.sst_series.len(), one.theta_series.len()), (4, 8));
    let (three, ran_on) = stepped_on(Some(3), &config, 1.0);
    assert_eq!(ran_on, 3);
    assert_eq!(bits(&one), bits(&three), "three lanes changed the answer");
    let (two, _) = stepped_on(Some(2), &tiny(true, RearrangeStrategy::AllToAll), 1.0);
    assert_eq!(bits(&one), bits(&two), "two lanes, all-to-all");
    let (measured, ran_on) = stepped_on(None, &config, 1.0);
    assert!(ran_on >= 1);
    assert_eq!(bits(&one), bits(&measured), "{ran_on} lanes (measured)");
    let driver = run(World::new(1), &config, &days(1.0));
    assert_eq!(
        bits(&one),
        bits(&driver),
        "{} lanes (run_coupled)",
        driver.lanes
    );

    // The benchmark's big ocean, where every lane gets rows, levels and
    // columns of every ocean phase.
    let mut big = config.clone();
    (big.ocn_nlon, big.ocn_nlat, big.ocn_nlev) = (72, 46, 10);
    let (one, _) = stepped_on(Some(1), &big, 0.25);
    assert_eq!((one.sst_series.len(), one.theta_series.len()), (1, 2));
    for lanes in [2, 3] {
        let (team, ran_on) = stepped_on(Some(lanes), &big, 0.25);
        assert_eq!(ran_on, lanes);
        assert_eq!(bits(&one), bits(&team), "big ocean, {lanes} lanes");
    }
    let driver = run(World::new(1), &big, &days(0.25));
    assert_eq!(bits(&one), bits(&driver), "big ocean, run_coupled");

    // Two live ranks share the cores: no rank of the two-domain layout gets
    // more than half of them, the ocean's included.
    let two_domain =
        World::new(2).run(|rank| run_coupled(rank, &tiny(false, strategy), &days(0.25)));
    let cores = std::thread::available_parallelism().map_or(1, |v| v.get());
    for stats in &two_domain {
        assert!((1..=(cores / 2).max(1)).contains(&stats.lanes));
    }
}

/// The lag is in program order, never in arrival time: an export that
/// arrives 300 ms late is still the one published at the next coupling.
#[test]
fn a_delayed_export_changes_no_bit() {
    let config = tiny(false, RearrangeStrategy::NonBlockingP2p);
    let undelayed = run(World::new(2), &config, &days(1.0));
    let [_, gather_p2p] = Rearranger::wire_tags_for(22);
    let plan = FaultPlan::parse(&format!(
        "delay src=1 dst=0 tag={gather_p2p} nth=1 ms=300\n\
         delay src=1 dst=0 tag={gather_p2p} nth=3 ms=300\n"
    ))
    .expect("plan parses");
    let world = World::new(2).with_fault_injector(Arc::new(FaultInjector::new(plan)));
    let delayed = run(world, &config, &days(1.0));
    assert_eq!(
        delayed
            .fault_events
            .iter()
            .filter(|e| e.contains("Delay"))
            .count(),
        2,
        "{:?}",
        delayed.fault_events
    );
    assert_eq!(bits(&undelayed), bits(&delayed));
}

/// The recovery layer receives each export at the coupling that posted it
/// (before its health vote) instead of at the next one; what is published
/// when does not move. And its checkpoints hold that staged export, so a
/// run resumed from one continues the uninterrupted run bit for bit.
#[test]
fn recovery_and_a_mid_run_restart_change_no_bit() {
    let config = tiny(false, RearrangeStrategy::NonBlockingP2p);
    let plain = run(World::new(2), &config, &days(1.0));

    let base = tmpdir("restart");
    let checkpointing = |dir: &str, resume_from: Option<PathBuf>| CoupledOptions {
        days: 1.0,
        checkpoint_dir: Some(base.join(dir)),
        recovery: RecoveryConfig {
            checkpoint_interval: 1,
            keep_checkpoints: 4,
            ..Default::default()
        },
        resume_from,
        ..Default::default()
    };
    let checkpointed = run(World::new(2), &config, &checkpointing("first", None));
    assert_eq!(bits(&plain), bits(&checkpointed));

    // Checkpoint 2 was written during ocean coupling 2, after its export was
    // received and before it was published.
    let ckpt = base.join("first").join("ckpt_00000002");
    let staged = std::fs::read_dir(&ckpt)
        .unwrap_or_else(|e| panic!("read {}: {e}", ckpt.display()))
        .filter(|f| {
            let name = f.as_ref().unwrap().file_name();
            name.to_string_lossy().starts_with("cpl_next_sst")
        })
        .count();
    assert!(staged > 0, "no staged export in {}", ckpt.display());

    // A resumed run starts its series empty: it replays ocean couplings 3-4
    // and the 5 atm/ice couplings from t = 32 400 s on.
    let resumed = run(World::new(2), &config, &checkpointing("second", Some(ckpt)));
    let tail = |series: &[f64], from: usize| -> Vec<u64> {
        series[from..].iter().map(|v| v.to_bits()).collect()
    };
    let [sst, theta, ke, ice] = bits(&resumed);
    assert_eq!(sst, tail(&plain.sst_series, 2));
    assert_eq!(ke, tail(&plain.ke_series, 2));
    assert_eq!(theta, tail(&plain.theta_series, 3));
    assert_eq!(ice, tail(&plain.ice_series, 3));
    let _ = std::fs::remove_dir_all(&base);
}

/// `Coupler::finish` drains the last export: without it the ocean series are
/// one entry short, and calling it twice adds nothing.
#[test]
fn finish_drains_the_last_export_once() {
    let config = tiny(true, RearrangeStrategy::NonBlockingP2p);
    let grid = config.ocean_grid();
    World::new(1).run(|rank| {
        let parts = Parts::of_rank(rank, &config);
        let mut cpl = Coupler::build(rank, &config, &days(0.5), &grid, parts);
        let mut stats = CoupledStats::default();
        while cpl.clock.time < 43_200 {
            let step = cpl.step(rank, &mut stats);
            assert_eq!(step.comm_fault, None);
        }
        assert_eq!(cpl.clock.ocn_couplings(), 2);
        assert_eq!(
            stats.sst_series.len(),
            1,
            "the second export is still in flight"
        );
        assert_eq!(cpl.finish(rank, &mut stats), None);
        assert_eq!((stats.sst_series.len(), stats.ke_series.len()), (2, 2));
        let drained = bits(&stats);
        assert_eq!(cpl.finish(rank, &mut stats), None);
        assert_eq!(bits(&stats), drained);
    });
}
