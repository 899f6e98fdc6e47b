//! Cross-commit goldens for the paths no other test pins against an earlier
//! commit: the concurrent layout, AI physics, and the subset models of
//! `scenarios/mini.scn`.
//!
//! Every reference here is a parent commit's output, printed with `{:?}`,
//! which round-trips exactly: the last change that moved the run's bits
//! rounds differently, so its hash was re-recorded through
//! `ap3esm::precision::Golden` — every field stays within the bound written
//! here of the parent's values, relative to its largest magnitude, and the
//! run hashes to the new golden, bit for bit. The runs with an atmosphere
//! hold commit `fcf02bd`'s output (the parent of the dycore's precombined
//! reconstruction weights and tangential projections); the ocean-only
//! subsets, which that change does not reach, hold commit `74957b4`'s (the
//! parent of the Exner factoring and reciprocal geometry in both dynamical
//! cores).

use ap3esm::precision::Golden;
use ap3esm::prelude::*;
use ap3esm::scenario::runner::{MemberOutcome, Verdict};

/// Rank 0's four diagnostic series (SST, θ, KE, ice cover).
type Series = [&'static [f64]; 4];

#[rustfmt::skip]
const TWO_RANK_ONE_DAY: Series = [
    &[14.57515128264424, 14.55283470229807, 14.571256023992584, 14.598960740928936],
    &[379.4415948667129, 379.1768330692097, 378.92978391619255, 378.6883983569455, 378.4389268159348, 378.18275249619865, 377.9278489825498, 377.6701044773662],
    &[961205933260232.4, 1141422672693390.8, 865984300041817.6, 882876580126314.1],
    &[0.013030053119694676, 0.011441036756051255, 0.009725724503076048, 0.007810216878140224, 0.006139666136263458, 0.004774987121485346, 0.0033500815701164813, 0.0016730218431714563],
];
#[rustfmt::skip]
const FIVE_RANK_HALF_DAY: Series = [
    &[14.57515128264424, 14.55283470229807],
    &[379.4415948667129, 379.1768330692097, 378.92978391619255, 378.6883983569455],
    &[961205933260233.8, 1141422672693389.3],
    &[0.013030053119694676, 0.011441036756051255, 0.009725724503076048, 0.007810216878140224],
];
#[rustfmt::skip]
const AI_SEQUENTIAL_HALF_DAY: Series = [
    &[7.615951744825552, 4.243369238519458],
    &[382.2113989792579, 386.22083468066745, 391.81902579806825, 392.36180841660683],
    &[958540236236018.8, 1615805501428592.8],
    &[0.011948180914650247, 0.0087205860020187, 0.005487433909786356, 0.003473045589429356],
];

/// Bounds with conventional physics, relative to each series' largest
/// magnitude: SST 5e-12 (7e-11 K at 14.6 °C), θ 2.5e-13 (9.5e-11 K at
/// 379 K), KE and ice 1e-10 — two orders above the round-off a day of a
/// re-rounded core is expected to add.
const CONVENTIONAL: [f64; 4] = [5e-12, 2.5e-13, 1e-10, 1e-10];
/// The AI suite reads its columns as FP32: a one-ulp move of T moves an input
/// by one FP32 ulp (6e-8) where it sits on a rounding boundary, and the
/// untrained suite drives the surface hard (SST falls 3.4 K in the six hours
/// above), so a column can move by far more than round-off. 1e-5 of each
/// series' largest magnitude (7.6e-5 K of SST) still fails a real change.
const AI_PHYSICS: [f64; 4] = [1e-5; 4];

/// Run `config` for `days`; rank 0's series must stay within `bounds` of
/// `parent` and hash to `want`.
fn check(config: &CoupledConfig, days: f64, parent: Series, bounds: [f64; 4], want: u64) {
    let opts = CoupledOptions {
        days,
        ..Default::default()
    };
    let world = World::new(config.world_size());
    let all = world.run(|rank| run_coupled(rank, config, &opts));
    let root = &all[0];
    let got = [
        ("sst", &root.sst_series),
        ("theta", &root.theta_series),
        ("ke", &root.ke_series),
        ("ice", &root.ice_series),
    ];
    let mut golden = Golden::new();
    for (((name, got), parent), bound) in got.into_iter().zip(parent).zip(bounds) {
        golden.field(name, got, parent, bound);
    }
    println!("{}", golden.report());
    golden.check(want).unwrap();
}

#[test]
fn concurrent_two_rank_one_day_matches_parent_bitwise() {
    let mut config = CoupledConfig::test_tiny();
    config.ocn_px = 1;
    config.ocn_py = 1;
    assert_eq!(config.world_size(), 2);
    check(
        &config,
        1.0,
        TWO_RANK_ONE_DAY,
        CONVENTIONAL,
        0x5e6f60cd97cb1350,
    );
}

#[test]
fn concurrent_five_rank_half_day_matches_parent_bitwise() {
    let config = CoupledConfig::test_tiny();
    assert_eq!(config.world_size(), 5);
    check(
        &config,
        0.5,
        FIVE_RANK_HALF_DAY,
        CONVENTIONAL,
        0x0951daf38667b390,
    );
}

#[test]
fn ai_physics_sequential_half_day_matches_parent_bitwise() {
    let mut config = CoupledConfig::test_tiny();
    config.ocn_px = 1;
    config.ocn_py = 1;
    config.single_domain = true;
    config.ai_physics = true;
    check(
        &config,
        0.5,
        AI_SEQUENTIAL_HALF_DAY,
        AI_PHYSICS,
        0xf022b7fa677176a2,
    );
}

/// A member's parent values: each series' values in emission order (its
/// times are pinned by the hash), then `drift` and `primary`.
struct Parent {
    series: &'static [&'static [f64]],
    drift: f64,
    primary: f64,
}

/// A series' bound, relative to its largest magnitude — or, for a quantity
/// that is itself a round-off residual, `(bound, scale)` in its own unit.
fn series_bound(name: &str) -> (f64, Option<f64>) {
    match name {
        "sst" => (5e-12, None),
        "theta" => (2.5e-13, None),
        "ke" => (1e-10, None),
        // Mean free-surface anomaly (m) and relative air mass: residuals of
        // conservation, bounded against 1 m and 1.
        "vol" | "mass" => (1e-12, Some(1.0)),
        other => panic!("no bound for series {other}"),
    }
}

/// Fold everything deterministic a member reports into `golden`: every
/// series (times pinned, values bounded against `parent`), `drift`,
/// `primary` and the simulated time. A member with no parent (the ice-only
/// subset runs none of the rounding change's code) is pinned as it was
/// hashed before: name, then each point's time and value.
fn member(golden: &mut Golden, m: &MemberOutcome, parent: Option<&Parent>) {
    assert_eq!(m.verdict, Verdict::Healthy, "{}", m.detail);
    let Some(parent) = parent else {
        for (name, points) in &m.series {
            golden.pin_bytes(name.as_bytes());
            for &(t, v) in points {
                golden.pin(&[t, v]);
            }
        }
        golden.pin(&[m.drift, m.primary, m.simulated_seconds]);
        return;
    };
    assert_eq!(m.series.len(), parent.series.len(), "series count");
    for ((name, points), want) in m.series.iter().zip(parent.series) {
        let (times, values): (Vec<f64>, Vec<f64>) = points.iter().copied().unzip();
        golden.pin_bytes(name.as_bytes()).pin(&times);
        match series_bound(name) {
            (bound, None) => golden.field(name, &values, want, bound),
            (bound, Some(scale)) => golden.field_at(name, &values, want, bound, scale),
        };
    }
    // Drift is a conservation residual (η in m, relative air mass); primary
    // is the final value of the first series.
    let first = &m.series[0].0;
    golden
        .field_at("drift", &[m.drift], &[parent.drift], 1e-12, 1.0)
        .field(
            "primary",
            &[m.primary],
            &[parent.primary],
            series_bound(first).0,
        )
        .pin(&[m.simulated_seconds]);
}

/// A member's parent (`None`: pinned only) and its golden.
type Member = (Option<&'static Parent>, u64);

#[rustfmt::skip]
const OCEAN_SMOKE: Parent = Parent {
    series: &[&[14.57996876905131], &[972645431175993.0], &[-6.030755260530954e-19]],
    drift: -6.030755260530954e-19,
    primary: 14.57996876905131,
};
#[rustfmt::skip]
const AQUA_SMOKE: Parent = Parent {
    series: &[&[379.44423630179455, 379.1891532773823], &[0.9999999999999972, 0.9999999999999972]],
    drift: -2.7755575615628914e-15,
    primary: 379.1891532773823,
};
#[rustfmt::skip]
const FAN_SMOKE: [Parent; 2] = [
    Parent {
        series: &[&[14.516398365118876], &[972382774655429.6], &[-6.030755260530954e-19]],
        drift: -6.030755260530954e-19,
        primary: 14.516398365118876,
    },
    Parent {
        series: &[&[14.516618341174743], &[972385224076572.8], &[-6.030755260530954e-19]],
        drift: -6.030755260530954e-19,
        primary: 14.516618341174743,
    },
];

/// The subset models of the shipped CI catalog, one scenario each (both
/// members of the perturbed ocean fan), one golden per member.
#[test]
fn mini_catalog_subset_members_match_parent_bitwise() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/mini.scn"))
        .expect("read scenarios/mini.scn");
    let catalog = Catalog::parse(&text).expect("parse");
    catalog.validate().expect("validate");
    let out_dir = std::env::temp_dir().join(format!("ap3esm-goldens-{}", std::process::id()));
    // Per scenario, each member's parent and golden.
    let cases: [(&str, &[Member]); 4] = [
        ("ocean-smoke", &[(Some(&OCEAN_SMOKE), 0x2c5d0da2cb4ac073)]),
        ("aqua-smoke", &[(Some(&AQUA_SMOKE), 0xa0233b86c7fa5a7e)]),
        ("ice-smoke", &[(None, 0x95bd47c4bc029403)]),
        (
            "fan-smoke",
            &[
                (Some(&FAN_SMOKE[0]), 0xc2e1a2d985c2ddc3),
                (Some(&FAN_SMOKE[1]), 0xcee0b81c72cdbe56),
            ],
        ),
    ];
    let mut failures = Vec::new();
    for (scenario, want) in cases {
        let opts = CampaignOptions {
            only: Some(scenario.to_string()),
            out_dir: out_dir.clone(),
            write_series: false,
            ..CampaignOptions::default()
        };
        let report = run_campaign(&catalog, &opts);
        assert_eq!(report.violations, 0, "{}", report.table);
        let members = &report.outcomes[0].members;
        assert_eq!(members.len(), want.len(), "{scenario} members");
        for (m, &(parent, want)) in members.iter().zip(want) {
            let mut golden = Golden::new();
            member(&mut golden, m, parent);
            println!("{scenario}/{}:\n{}", m.member, golden.report());
            if let Err(e) = golden.check(want) {
                failures.push(format!("{scenario}/{}: {e}", m.member));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
