//! Integration: the full coupled AP3ESM exercising every crate at once.

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

/// FNV-1a over the bit patterns of a series.
fn fnv1a(hash: &mut u64, values: &[f64]) {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            *hash ^= byte as u64;
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Bitwise golden of a 1-day sequential `test_tiny` run, recorded on the
/// commit before the ocean workspace / factor-once rewrite (PR 12): that
/// rewrite must not move a bit of any coupled diagnostic.
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
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut hash, &root.sst_series);
    fnv1a(&mut hash, &root.theta_series);
    fnv1a(&mut hash, &root.ke_series);
    assert_eq!(root.sst_series.len(), 4);
    assert_eq!(hash, 0xa7750d6867ae77a9_u64, "coupled diagnostics moved");
}
