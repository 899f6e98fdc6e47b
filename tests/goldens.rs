//! Cross-commit bitwise goldens for the paths no other test pins against
//! an earlier commit: the concurrent layout, AI physics, and the subset
//! models of `scenarios/mini.scn`. Recorded on the commit before the
//! one-driver refactor (PR 14), which must not move a bit of any of them.
//! PR 15 (ocean export published one ocean coupling late) re-recorded the
//! three coupled hashes behind a tolerance bridge to the parent's series;
//! the subset hashes did not move.

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

/// Rank 0's four diagnostic series (SST, θ, KE, ice) as the commit before
/// PR 15 produced them, printed with `{:?}` (round-trips exactly). PR 15
/// publishes the ocean's export one ocean coupling late, which moves every
/// series a little; [`check`] bounds how little.
const TWO_RANK_ONE_DAY: [&[f64]; 4] = [
    &[14.57515128264424, 14.552813771176828, 14.571212112924115, 14.598945514686779],
    &[379.44159486671305, 379.1767911025139, 378.92967920527684, 378.6881422310379, 378.4385802352625, 378.1824369256025, 377.92757554433007, 377.6698949929467],
    &[961205933260233.6, 1141422701640625.8, 865984319208427.8, 882872914263873.9],
    &[0.013030053119694672, 0.011424603886594203, 0.00969280547259742, 0.007758374463304323, 0.006068890650324685, 0.004683036496029046, 0.003236708345852897, 0.00153847624719412],
];
const FIVE_RANK_HALF_DAY: [&[f64]; 4] = [
    &[14.57515128264424, 14.552813771176828],
    &[379.44159486671305, 379.1767911025139, 378.92967920527684, 378.6881422310379],
    &[961205933260234.5, 1141422701640626.0],
    &[0.013030053119694672, 0.011424603886594203, 0.00969280547259742, 0.007758374463304323],
];
const AI_SEQUENTIAL_HALF_DAY: [&[f64]; 4] = [
    &[7.615951744825536, 4.265351569093764],
    &[382.2113989457199, 386.2208346527369, 391.81902574984866, 392.36180829976723],
    &[958540236236020.0, 1597702401420963.3],
    &[0.011948180914650245, 0.00993542677470158, 0.007668692401256806, 0.007189624053614196],
];

/// How far PR 15 may move a series: K for SST and θ, relative for KE, cover
/// fraction for ice. Measured with conventional physics: SST 4.4e-5 K, θ
/// 3.5e-4 K, KE 4.2e-6, ice 1.4e-4 — the ice sees an SST one ocean coupling
/// older and `test_tiny`'s cover is melting away (mean 0.013 → 0.0015 in a
/// day), which is why its bound is absolute: relative to what is left of it
/// the same difference reads 9e-2.
const CONVENTIONAL: [f64; 4] = [2e-3, 2e-3, 2e-3, 2e-4];
/// The untrained AI suite drives the surface hard (mean SST falls 3.3 K in
/// six hours), so the same lag moves more: SST 2.2e-2 K, KE 1.1e-2, ice
/// 3.7e-3; θ does not move.
const AI_PHYSICS: [f64; 4] = [5e-2, 2e-3, 2e-2, 5e-3];

/// Run `config` for `days`; rank 0's series must hash to `want` and stay
/// within `tolerance` of `parent`.
fn check(config: &CoupledConfig, days: f64, parent: [&[f64]; 4], tolerance: [f64; 4], want: u64) {
    let opts = CoupledOptions {
        days,
        ..Default::default()
    };
    let world = World::new(config.world_size());
    let all = world.run(|rank| run_coupled(rank, config, &opts));
    let root = &all[0];
    let series = [
        ("sst", &root.sst_series),
        ("theta", &root.theta_series),
        ("ke", &root.ke_series),
        ("ice", &root.ice_series),
    ];
    let mut hash = FNV_OFFSET;
    for (((name, got), parent), bound) in series.into_iter().zip(parent).zip(tolerance) {
        assert_eq!(got.len(), parent.len(), "{name} series length");
        for (k, (g, p)) in got.iter().zip(parent).enumerate() {
            let delta = (g - p).abs() / if name == "ke" { p.abs() } else { 1.0 };
            assert!(delta <= bound, "{name}[{k}] moved by {delta:e}: {g} vs {p}");
        }
        fnv1a(&mut hash, got);
    }
    assert_eq!(hash, want, "diagnostics moved: got {hash:#x}");
}

#[test]
fn concurrent_two_rank_one_day_matches_parent_bitwise() {
    let mut config = CoupledConfig::test_tiny();
    config.ocn_px = 1;
    config.ocn_py = 1;
    assert_eq!(config.world_size(), 2);
    check(&config, 1.0, TWO_RANK_ONE_DAY, CONVENTIONAL, 0xec90b7d388f54d03);
}

#[test]
fn concurrent_five_rank_half_day_matches_parent_bitwise() {
    let config = CoupledConfig::test_tiny();
    assert_eq!(config.world_size(), 5);
    check(&config, 0.5, FIVE_RANK_HALF_DAY, CONVENTIONAL, 0xbb0c6eaede93131a);
}

#[test]
fn ai_physics_sequential_half_day_matches_parent_bitwise() {
    let mut config = CoupledConfig::test_tiny();
    config.ocn_px = 1;
    config.ocn_py = 1;
    config.single_domain = true;
    config.ai_physics = true;
    check(&config, 0.5, AI_SEQUENTIAL_HALF_DAY, AI_PHYSICS, 0xb59575c573bd8cd7);
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
