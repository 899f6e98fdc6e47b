//! Cross-commit bitwise goldens for the paths no other test pins against
//! an earlier commit: the concurrent layout, AI physics, and the subset
//! models of `scenarios/mini.scn`. Recorded on the commit before the
//! one-driver refactor (PR 14), which must not move a bit of any of them.

use ap3esm::prelude::*;
use ap3esm::scenario::runner::{MemberOutcome, Verdict};

/// FNV-1a over the bit patterns of a series (as in `coupled_smoke.rs`).
fn fnv1a(hash: &mut u64, values: &[f64]) {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            *hash ^= byte as u64;
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of rank 0's four diagnostic series.
fn coupled_hash(config: &CoupledConfig, days: f64) -> u64 {
    let opts = CoupledOptions {
        days,
        ..Default::default()
    };
    let world = World::new(config.world_size());
    let all = world.run(|rank| run_coupled(rank, config, &opts));
    let root = &all[0];
    assert!(!root.sst_series.is_empty() && !root.theta_series.is_empty());
    let mut hash = FNV_OFFSET;
    for series in [
        &root.sst_series,
        &root.theta_series,
        &root.ke_series,
        &root.ice_series,
    ] {
        fnv1a(&mut hash, series);
    }
    hash
}

#[test]
fn concurrent_two_rank_one_day_matches_parent_bitwise() {
    let mut config = CoupledConfig::test_tiny();
    config.ocn_px = 1;
    config.ocn_py = 1;
    assert_eq!(config.world_size(), 2);
    let hash = coupled_hash(&config, 1.0);
    assert_eq!(hash, 0xd6094ae2f08a955a_u64, "concurrent diagnostics moved: got {hash:#x}");
}

#[test]
fn concurrent_five_rank_half_day_matches_parent_bitwise() {
    let config = CoupledConfig::test_tiny();
    assert_eq!(config.world_size(), 5);
    let hash = coupled_hash(&config, 0.5);
    assert_eq!(hash, 0xeac77147090bb097_u64, "2x2-ocean diagnostics moved: got {hash:#x}");
}

#[test]
fn ai_physics_sequential_half_day_matches_parent_bitwise() {
    let mut config = CoupledConfig::test_tiny();
    config.ocn_px = 1;
    config.ocn_py = 1;
    config.single_domain = true;
    config.ai_physics = true;
    let hash = coupled_hash(&config, 0.5);
    assert_eq!(hash, 0xce228aa9adad6eee_u64, "AI-physics diagnostics moved: got {hash:#x}");
}

/// Hash of everything deterministic a campaign member reports: every
/// series (times and values, in emission order), `drift` and `primary`.
fn member_hash(m: &MemberOutcome) -> u64 {
    assert_eq!(m.verdict, Verdict::Healthy, "{}", m.detail);
    let mut hash = FNV_OFFSET;
    for (name, points) in &m.series {
        for byte in name.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        for &(t, v) in points {
            fnv1a(&mut hash, &[t, v]);
        }
    }
    fnv1a(&mut hash, &[m.drift, m.primary, m.simulated_seconds]);
    hash
}

/// The subset models of the shipped CI catalog, one scenario each (both
/// members of the perturbed ocean fan).
#[test]
fn mini_catalog_subset_members_match_parent_bitwise() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/mini.scn"))
        .expect("read scenarios/mini.scn");
    let catalog = Catalog::parse(&text).expect("parse");
    catalog.validate().expect("validate");
    let out_dir = std::env::temp_dir().join(format!("ap3esm-goldens-{}", std::process::id()));
    let want = [
        ("ocean-smoke", vec![0x93c895061f7fb09e_u64]),
        ("aqua-smoke", vec![0xb75181d3eec0990b]),
        ("ice-smoke", vec![0x95bd47c4bc029403]),
        ("fan-smoke", vec![0x40b48f3c0ef0a1e9, 0x12dc860e5868185c]),
    ];
    let mut got = Vec::new();
    for (scenario, _) in &want {
        let opts = CampaignOptions {
            only: Some(scenario.to_string()),
            out_dir: out_dir.clone(),
            write_series: false,
            ..CampaignOptions::default()
        };
        let report = run_campaign(&catalog, &opts);
        assert_eq!(report.violations, 0, "{}", report.table);
        let hashes: Vec<u64> = report.outcomes[0].members.iter().map(member_hash).collect();
        got.push((*scenario, hashes));
    }
    let _ = std::fs::remove_dir_all(&out_dir);
    assert_eq!(got, want, "subset members moved: got {got:#x?}");
}
