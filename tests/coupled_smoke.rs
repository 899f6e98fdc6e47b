//! Integration: the full coupled AP3ESM exercising every crate at once.

use ap3esm::obs::json::Json;
use ap3esm::precision::Golden;
use ap3esm::prelude::*;

#[test]
fn coupled_model_two_days_all_components_active() {
    let config = CoupledConfig::test_tiny();
    let world = World::new(config.world_size());
    let opts = CoupledOptions {
        days: 2.0,
        ..Default::default()
    };
    let all = world.run(|rank| run_coupled(rank, &config, &opts));
    let root = &all[0];

    // Simulated exactly two days at the configured cadence.
    assert_eq!(root.simulated_seconds, 2.0 * 86_400.0);
    assert_eq!(root.theta_series.len(), 16); // 8 atm couplings/day
    assert_eq!(root.sst_series.len(), 8); // 4 ocn couplings/day
    assert_eq!(root.ice_series.len(), 16);

    // All components did work.
    let section = |name: &str| {
        root.per_section_seconds
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
    };
    assert!(section("atm_run") > 0.0, "atmosphere never ran");
    assert!(section("ice_run") > 0.0, "ice never ran");
    assert!(section("cpl_rearrange") > 0.0, "coupler never ran");
    let ocn_secs: f64 = all[1..]
        .iter()
        .map(|s| {
            s.per_section_seconds
                .iter()
                .find(|(n, _)| n == "ocn_run")
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        })
        .sum();
    assert!(ocn_secs > 0.0, "ocean never ran");
    // Root spans follow one another on the rank's thread, inside the run.
    let sum: f64 = root.per_section_seconds.iter().map(|(_, s)| s).sum();
    assert!(
        sum <= root.wall_seconds,
        "sections sum to {sum}s of {}s wall",
        root.wall_seconds
    );

    // Physics stayed physical over two days.
    for sst in &root.sst_series {
        assert!((-5.0..40.0).contains(sst), "mean SST {sst}");
    }
    for th in &root.theta_series {
        assert!(th.is_finite() && *th > 200.0 && *th < 500.0);
    }
    // The ocean gained kinetic energy from wind forcing.
    assert!(*root.ke_series.last().unwrap() > 0.0);
}

/// One clock (§6.2): the stats, the report's cross-rank maxima and its
/// per-rank trees carry the same spans' totals, bit for bit.
#[test]
fn driver_sections_read_one_clock() {
    let mut config = CoupledConfig::test_tiny();
    config.ocn_px = 1;
    config.ocn_py = 1;
    let world = World::new(config.world_size());
    let opts = CoupledOptions {
        days: 0.5,
        report_name: Some(format!("one-clock-{}", std::process::id())),
        ..Default::default()
    };
    let all = world.run(|rank| run_coupled(rank, &config, &opts));
    assert_eq!(all.len(), 2);
    // Only `report_json` is read; leave nothing under `target/obs/`.
    let _ = std::fs::remove_dir_all(all[0].run_dir.as_ref().expect("run directory"));
    let report = Json::parse(all[0].report_json.as_deref().expect("report")).unwrap();
    let rows = |key: &str| report.get(key).and_then(Json::as_arr).expect("array");
    let path_is = |row: &Json, name: &str| row.get("path").and_then(Json::as_str) == Some(name);
    let bits = |row: &Json, key: &str| row.get(key).and_then(Json::as_f64).map(f64::to_bits);
    let in_stats = |rank: usize, name: &str| {
        let sections = &all[rank].per_section_seconds;
        let found = sections.iter().find(|(n, _)| n == name);
        found.map(|(_, secs)| secs.to_bits())
    };
    for name in ["atm_run", "lnd_run", "ice_run", "cpl_rearrange", "ocn_run"] {
        // Seconds are positive, so their bit patterns order as they do.
        let slowest = (0..all.len()).filter_map(|r| in_stats(r, name)).max();
        assert!(slowest.is_some(), "{name} ran nowhere");
        let row = rows("rank_sections").iter().find(|r| path_is(r, name));
        let row = row.unwrap_or_else(|| panic!("{name} missing from rank_sections"));
        assert_eq!(bits(row, "max_s"), slowest, "{name}: stats max vs report");
        for tree in rows("rank_trees") {
            let rank = tree.get("rank").and_then(Json::as_u64).unwrap() as usize;
            let spans = tree.get("spans").and_then(Json::as_arr).unwrap();
            // A root's path is its name; no deeper path is slash-free.
            let root = spans.iter().find(|s| path_is(s, name));
            let in_tree = root.and_then(|s| bits(s, "total_s"));
            assert_eq!(in_tree, in_stats(rank, name), "{name} on rank {rank}");
        }
    }
}

#[test]
fn coupled_run_is_deterministic() {
    let config = CoupledConfig::test_tiny();
    let opts = CoupledOptions {
        days: 0.5,
        ..Default::default()
    };
    let run = || {
        let world = World::new(config.world_size());
        world.run(|rank| run_coupled(rank, &config, &opts))[0]
            .sst_series
            .clone()
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits(), "coupled run not reproducible");
    }
}

#[test]
fn different_mask_seeds_give_different_climates() {
    let opts = CoupledOptions {
        days: 0.5,
        ..Default::default()
    };
    let run = |seed: u64| {
        let mut config = CoupledConfig::test_tiny();
        config.mask_seed = seed;
        let world = World::new(config.world_size());
        world.run(|rank| run_coupled(rank, &config, &opts))[0]
            .sst_series
            .clone()
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(a, b, "continents should shape the climate");
}

/// SST, θ and KE of the 1-day sequential `test_tiny` run as commit `fcf02bd`
/// (the parent of the precombined reconstruction weights and tangential
/// projections) produced them, printed with `{:?}` (round-trips exactly).
#[rustfmt::skip]
const PARENT_SERIES: [&[f64]; 3] = [
    &[14.57515128264424, 14.55283470229807, 14.571256023992584, 14.598960740928936],
    &[379.4415948667129, 379.1768330692097, 378.92978391619255, 378.6883983569455, 378.4389268159348, 378.18275249619865, 377.9278489825498, 377.6701044773662],
    &[961205933260232.4, 1141422672693390.8, 865984300041817.6, 882876580126314.1],
];

/// Bitwise golden of a 1-day sequential `test_tiny` run, re-recorded through
/// `ap3esm::precision::Golden` when the dynamical core began to round once
/// per edge: each series must stay within its bound of the parent's above,
/// relative to its largest magnitude — SST 5e-12 (7e-11 K), θ 2.5e-13
/// (9.5e-11 K), KE 1e-10 — and hash to the golden.
#[test]
fn sequential_one_day_matches_parent_bitwise() {
    let mut config = CoupledConfig::test_tiny();
    config.ocn_px = 1;
    config.ocn_py = 1;
    config.single_domain = true;
    let opts = CoupledOptions {
        days: 1.0,
        ..Default::default()
    };
    let world = World::new(config.world_size());
    let all = world.run(|rank| run_coupled(rank, &config, &opts));
    let root = &all[0];
    let mut golden = Golden::new();
    let [sst, theta, ke] = PARENT_SERIES;
    golden
        .field("sst", &root.sst_series, sst, 5e-12)
        .field("theta", &root.theta_series, theta, 2.5e-13)
        .field("ke", &root.ke_series, ke, 1e-10);
    println!("{}", golden.report());
    golden.check(0x244eb30ed6a2dc73).unwrap();
}
