//! The scenario engine's contract: line-numbered catalog diagnostics,
//! Display round-trip, the old chaos-campaign grammar as a catalog, semantic
//! validation, and — the expensive ones — a bitwise full-ESM equivalence
//! between the campaign runner and a direct `run_coupled` call,
//! byte-identical leaderboards across two same-seed campaign executions, and
//! the chaos ladder's degraded and failure rungs through `run_campaign`.

mod common;

use ap3esm::comm::faultplan::FaultPlan;
use ap3esm::comm::World;
use ap3esm::esm::config::CoupledConfig;
use ap3esm::esm::coupled::{run_coupled, CoupledOptions};
use ap3esm::scenario::dsl::{scenario_seed, Catalog, GridPreset, ModelKind, ScenarioExpectation};
use ap3esm::scenario::runner::{run_campaign, CampaignOptions, Verdict};
use common::{run_dir_members, run_dir_reason};

fn parse_err(text: &str) -> (usize, String) {
    let e = Catalog::parse(text).expect_err("must not parse");
    (e.line, e.message)
}

// ---------------------------------------------------------------------------
// Grammar: line-numbered diagnostics
// ---------------------------------------------------------------------------

#[test]
fn unknown_key_names_its_line() {
    let (line, msg) = parse_err("name x\nseed 1\n\nscenario a\nmodle full\n");
    assert_eq!(line, 5);
    assert!(msg.contains("modle"), "{msg}");
}

#[test]
fn unknown_key_before_first_scenario_names_its_line() {
    let (line, msg) = parse_err("name x\nmembers 3\n");
    assert_eq!(line, 2);
    assert!(msg.contains("not valid before the first scenario"), "{msg}");
}

#[test]
fn duplicate_key_cites_both_lines() {
    let (line, msg) = parse_err("scenario a\ndays 1\nmodel full\ndays 2\n");
    assert_eq!(line, 4);
    assert!(msg.contains("duplicate key \"days\""), "{msg}");
    assert!(msg.contains("line 2"), "{msg}");
}

#[test]
fn duplicate_scenario_name_reported_at_second_header() {
    let (line, msg) = parse_err("scenario a\ndays 1\n\nscenario b\n\nscenario a\n");
    assert_eq!(line, 6);
    assert!(msg.contains("duplicate scenario name"), "{msg}");
}

#[test]
fn out_of_range_values_name_line_and_bound() {
    for (text, want_line, needle) in [
        ("scenario a\ndays 400\n", 2, "days must be in (0, 365]"),
        ("scenario a\nmembers 65\n", 2, "members must be 1..=64"),
        ("scenario a\ncycles 0\n", 2, "cycles must be 1..=32"),
        ("scenario a\nperturb amp=6\n", 2, "perturb amp must be in (0, 5]"),
        ("scenario a\nenso amp=0\n", 2, "enso amp must be nonzero"),
        ("scenario a\nmesh 0x2\n", 2, "mesh must be 1x1..=4096x4096"),
        ("scenario a\nvortex lat=91 lon=0\n", 2, "|lat| <= 90"),
        ("scenario a\ngrid huge\n", 2, "grid must be tiny, small, or medium"),
    ] {
        let (line, msg) = parse_err(text);
        assert_eq!(line, want_line, "{text:?}: {msg}");
        assert!(msg.contains(needle), "{text:?}: {msg}");
    }
}

#[test]
fn fault_verb_errors_carry_catalog_line_numbers() {
    // Line 5 is the malformed fault verb; the error must cite line 5 of
    // the *catalog*, not of some extracted fault-plan text.
    let text = "name x\nseed 3\n\nscenario a\nkill rank=oops step=1\n";
    let (line, msg) = parse_err(text);
    assert_eq!(line, 5);
    assert!(msg.to_lowercase().contains("rank"), "{msg}");
}

#[test]
fn misaligned_cycles_rejected_at_header() {
    // 0.25 days x 4 ocn couplings = 1 coupling total; 2 cycles cannot
    // each hold a whole nonzero coupling count.
    let text = "scenario a\ndays 0.25\ncycles 2\n";
    let (line, msg) = parse_err(text);
    assert_eq!(line, 1);
    assert!(msg.contains("whole, nonzero number of couplings"), "{msg}");
}

// ---------------------------------------------------------------------------
// Round-trip and defaults
// ---------------------------------------------------------------------------

#[test]
fn display_round_trips() {
    let text = "\
name rt
seed 99
grid small

scenario a expect=healthy
model full
days 0.5
mesh 3x1
layout concurrent
strategy alltoall
members 2
perturb amp=0.01
vortex lat=18 lon=130 vmax=40

scenario b expect=degraded
model full
grid tiny
days 1
die rank=2 step=3

scenario c
model ocean-only
grid tiny
days 2
enso amp=2.5
";
    let c1 = Catalog::parse(text).expect("parse");
    let printed = c1.to_string();
    let c2 = Catalog::parse(&printed).expect("reparse own Display");
    assert_eq!(c1, c2, "Display must round-trip:\n{printed}");
    // And a third generation is byte-stable.
    assert_eq!(printed, c2.to_string());
}

#[test]
fn catalog_defaults_fill_unset_scenario_keys() {
    let text = "\
grid small
days 2
couplings atm=24 ocn=12 ice=24

scenario uses-defaults
model ocean-only

scenario overrides
model full
grid tiny
days 1
couplings atm=8 ocn=4 ice=8
";
    let c = Catalog::parse(text).expect("parse");
    assert_eq!(c.scenarios[0].grid, GridPreset::Small);
    assert_eq!(c.scenarios[0].days, 2.0);
    assert_eq!(c.scenarios[0].couplings, (24, 12, 24));
    assert_eq!(c.scenarios[1].grid, GridPreset::Tiny);
    assert_eq!(c.scenarios[1].days, 1.0);
    assert_eq!(c.scenarios[1].couplings, (8, 4, 8));
}

// ---------------------------------------------------------------------------
// The chaos-campaign format is a catalog
// ---------------------------------------------------------------------------

#[test]
fn campaign_files_parse_as_catalogs_with_matching_seeds_and_plans() {
    // A chaos campaign file in the old grammar — seed line, headers with
    // expect=, fault verbs, nothing else — parses verbatim.
    let text = "\
seed 4242
scenario baseline expect=healthy

scenario kill-one expect=healthy
kill rank=2 step=3
scenario lose-one expect=degraded
die rank=1 step=2
scenario doomed expect=failure
die rank=1 step=2
kill rank=1 step=4
scenario pinned expect=healthy
seed 9
";
    let catalog = Catalog::parse(text).expect("the old grammar is a catalog");
    assert_eq!(catalog.seed, 4242);
    // Derived seeds: draw i of splitmix64(4242), recorded before the three
    // copies of the mixer became one.
    let want = [
        ("baseline", ScenarioExpectation::Healthy, "", 0xD74F_6F6C_CBA0_20E3u64),
        ("kill-one", ScenarioExpectation::Healthy, "kill rank=2 step=3", 0x5BDB_6858_21E4_D4B2),
        ("lose-one", ScenarioExpectation::Degraded, "die rank=1 step=2", 0x5CE6_7917_47F8_AA2D),
        (
            "doomed",
            ScenarioExpectation::Failure,
            "die rank=1 step=2\nkill rank=1 step=4",
            0xB2D3_459A_A1C2_0375,
        ),
        // An explicit scenario seed wins over the derivation.
        ("pinned", ScenarioExpectation::Healthy, "", 9),
    ];
    assert_eq!(catalog.scenarios.len(), want.len());
    for (i, (sc, (name, expect, lines, seed))) in catalog.scenarios.iter().zip(want).enumerate() {
        assert_eq!(sc.name, name, "scenario {i}");
        assert_eq!(sc.expect, expect, "scenario {i}");
        assert_eq!(sc.seed, seed, "scenario {i} seed");
        if name != "pinned" {
            assert_eq!(sc.seed, scenario_seed(4242, i), "scenario {i} derivation");
        }
        assert_eq!(sc.plan.seed, sc.seed, "scenario {i} plan seed");
        let plan = FaultPlan::parse(lines).expect("that scenario's lines");
        assert_eq!(sc.plan.events, plan.events, "scenario {i} events");
    }
    assert_eq!(Catalog::parse(text).unwrap(), catalog, "parsing is deterministic");

    // Validation names the scenario and the catalog line: on the default
    // 5-rank world `die rank=7` (line 7) cannot exist.
    let oversized = text.replace("=1 step=2\nscenario doomed", "=7 step=2\nscenario doomed");
    let err = Catalog::parse(&oversized).unwrap().validate().unwrap_err();
    assert_eq!(err.line, 7, "{err}");
    assert!(err.message.contains("lose-one"), "{err}");
    // A plan error inside the last scenario's body carries the catalog line.
    let bad = text.replace("kill rank=1 step=4", "kill rank=1");
    assert_eq!(parse_err(&bad).0, 10);
    // Fault verbs before any scenario header are rejected where they stand.
    let (line, msg) = parse_err("seed 1\ndrop src=0 dst=1 tag=1 nth=1\n");
    assert_eq!(line, 2);
    assert!(msg.contains("not valid before the first scenario"), "{msg}");
    // Duplicate scenario names are rejected at the second header.
    let (line, msg) = parse_err("scenario a expect=healthy\nscenario a expect=failure\n");
    assert_eq!(line, 2);
    assert!(msg.contains("duplicate scenario name"), "{msg}");
}

#[test]
fn shipped_catalogs_parse_and_validate() {
    for path in ["scenarios/demo.scn", "scenarios/chaos.scn", "scenarios/mini.scn"] {
        let text = std::fs::read_to_string(path).expect(path);
        let c = Catalog::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        c.validate().unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(!c.scenarios.is_empty(), "{path} is empty");
    }
    // The demo catalog is the acceptance campaign: at least 6 scenarios
    // spanning full, ocean-only, atm-only and a perturbation ensemble.
    let demo = Catalog::parse(&std::fs::read_to_string("scenarios/demo.scn").unwrap()).unwrap();
    assert!(demo.scenarios.len() >= 6);
    for kind in [ModelKind::Full, ModelKind::OceanOnly, ModelKind::AtmOnly] {
        assert!(
            demo.scenarios.iter().any(|s| s.model == kind),
            "demo lacks {kind:?}"
        );
    }
    assert!(demo
        .scenarios
        .iter()
        .any(|s| s.members > 1 && s.perturb.is_some()));
}

// ---------------------------------------------------------------------------
// Semantic validation
// ---------------------------------------------------------------------------

#[test]
fn validate_names_scenario_and_line() {
    for (text, needle) in [
        (
            "scenario a\nmodel ocean-only\nmesh 2x2\n",
            "mesh is only meaningful for model full",
        ),
        (
            "scenario a\nmodel atm-only\ncycles 2\ndays 1\n",
            "cycles",
        ),
        (
            "scenario a\nmodel ocean-only\nvortex lat=10 lon=20\n",
            "vortex seeds an atmosphere",
        ),
        (
            "scenario a\nmodel ice-only\nperturb amp=0.1\n",
            "prognostic temperature",
        ),
        (
            "scenario a\nmembers 3\n",
            "without perturb",
        ),
        (
            "scenario a expect=degraded\nmodel full\n",
            "needs a fault plan",
        ),
        (
            "scenario a\nmodel ocean-only\nkill rank=0 step=1\n",
            "fault plans drive the coupled world",
        ),
    ] {
        let c = Catalog::parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        let e = c.validate().expect_err(text);
        assert!(e.message.contains("scenario \"a\""), "{text:?}: {e}");
        assert!(e.message.contains(needle), "{text:?}: {e}");
        assert!(e.line >= 1, "{text:?}: {e}");
    }
}

#[test]
fn validate_rejects_oversized_fault_rank_for_the_composed_world() {
    // test-tiny full world is 5 ranks (mesh 2x2): rank 7 cannot exist.
    let text = "scenario a expect=degraded\nmodel full\ndie rank=7 step=2\n";
    let c = Catalog::parse(text).expect("parse");
    let e = c.validate().expect_err("rank out of world");
    assert_eq!(e.line, 3, "{e}");
    assert!(e.message.contains("scenario \"a\""), "{e}");
}

// ---------------------------------------------------------------------------
// Runner equivalence and determinism
// ---------------------------------------------------------------------------

fn quiet_opts(tag: &str) -> CampaignOptions {
    CampaignOptions {
        out_dir: std::env::temp_dir().join(format!("ap3esm-scn-test-{tag}-{}", std::process::id())),
        ..CampaignOptions::default()
    }
}

/// The campaign runner's full-ESM path must be *bitwise* the plain
/// `run_coupled` call it wraps: same series, same conservation story.
#[test]
fn full_esm_member_is_bitwise_run_coupled() {
    let text = "\
name equiv
seed 11

scenario coupled-baseline
model full
grid tiny
days 0.25
";
    let catalog = Catalog::parse(text).expect("parse");
    catalog.validate().expect("validate");
    let opts = quiet_opts("equiv");
    let report = run_campaign(&catalog, &opts);
    assert_eq!(report.violations, 0, "{}", report.table);
    let member = &report.outcomes[0].members[0];
    assert_eq!(member.verdict, Verdict::Healthy, "{}", member.detail);

    // The direct run the scenario claims to compose.
    let config = CoupledConfig::test_tiny();
    let copts = CoupledOptions {
        days: 0.25,
        ..CoupledOptions::default()
    };
    let world = World::new(config.world_size());
    let all = world.run(|rank| run_coupled(rank, &config, &copts));
    let root = &all[0];
    assert_eq!(member.simulated_seconds, root.simulated_seconds);

    let by_name = |name: &str| -> &Vec<(f64, f64)> {
        &member
            .series
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("series {name} missing"))
            .1
    };
    for (name, direct) in [
        ("theta", &root.theta_series),
        ("sst", &root.sst_series),
        ("ke", &root.ke_series),
        ("ice", &root.ice_series),
    ] {
        let runner = by_name(name);
        assert_eq!(runner.len(), direct.len(), "{name} length");
        for (i, (&(_, v), &d)) in runner.iter().zip(direct).enumerate() {
            assert_eq!(
                v.to_bits(),
                d.to_bits(),
                "{name}[{i}]: runner {v} vs direct {d}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&opts.out_dir);
}

/// Two same-seed executions must produce byte-identical leaderboards and
/// series snapshots (the ISSUE's determinism acceptance).
#[test]
fn same_seed_campaigns_are_byte_identical() {
    let text = "\
name det
seed 5

scenario mixed-fan
model ocean-only
grid tiny
days 0.5
members 2
perturb amp=0.02

scenario ice-run
model ice-only
grid tiny
days 3
";
    let catalog = Catalog::parse(text).expect("parse");
    catalog.validate().expect("validate");
    let (a, b) = (quiet_opts("det-a"), quiet_opts("det-b"));
    let ra = run_campaign(&catalog, &a);
    let rb = run_campaign(&catalog, &b);
    assert_eq!(ra.violations, 0, "{}", ra.table);

    let la = std::fs::read(&ra.leaderboard_path).expect("leaderboard a");
    let lb = std::fs::read(&rb.leaderboard_path).expect("leaderboard b");
    assert_eq!(la, lb, "leaderboard bytes differ across same-seed runs");
    for o in &ra.outcomes {
        if let Some(f) = &o.series_file {
            let sa = std::fs::read(a.out_dir.join(f)).expect("series a");
            let sb = std::fs::read(b.out_dir.join(f)).expect("series b");
            assert_eq!(sa, sb, "series {f} differs across same-seed runs");
        }
    }
    // Ensemble members actually decorrelate: nonzero spread.
    let fan = ra.outcomes.iter().find(|o| o.name == "mixed-fan").unwrap();
    assert!(fan.spread > 0.0, "perturbed members were identical");
    let _ = std::fs::remove_dir_all(&a.out_dir);
    let _ = std::fs::remove_dir_all(&b.out_dir);
}

/// A cycled reforecast must land exactly on the scenario's clock and keep
/// the stitched series contiguous.
#[test]
fn cycled_reforecast_finishes_on_the_clock() {
    let text = "\
name cyc
seed 3

scenario reforecast
model full
grid tiny
days 0.5
cycles 2
";
    let catalog = Catalog::parse(text).expect("parse");
    catalog.validate().expect("validate");
    let opts = quiet_opts("cyc");
    let report = run_campaign(&catalog, &opts);
    assert_eq!(report.violations, 0, "{}", report.table);
    let m = &report.outcomes[0].members[0];
    assert_eq!(m.simulated_seconds, 0.5 * 86_400.0);
    let theta = &m.series.iter().find(|(n, _)| n == "theta").unwrap().1;
    // 0.5 days x 8 atm couplings/day = 4 entries, strictly increasing t.
    assert_eq!(theta.len(), 4);
    for w in theta.windows(2) {
        assert!(w[0].0 < w[1].0, "series time must be strictly increasing");
    }
    let _ = std::fs::remove_dir_all(&opts.out_dir);
}

// ---------------------------------------------------------------------------
// The chaos ladder through the one engine
// ---------------------------------------------------------------------------

fn chaos_rung(name: &str) -> ap3esm::scenario::runner::CampaignReport {
    let text = std::fs::read_to_string("scenarios/chaos.scn").expect("scenarios/chaos.scn");
    let catalog = Catalog::parse(&text).expect("parse");
    catalog.validate().expect("validate");
    let opts = CampaignOptions {
        only: Some(name.to_string()),
        ..quiet_opts(name)
    };
    let report = run_campaign(&catalog, &opts);
    let _ = std::fs::remove_dir_all(&opts.out_dir);
    assert_eq!(report.outcomes.len(), 1, "{}", report.table);
    report
}

/// Losing an ocean rank for good: the survivors finish the day, and the
/// runner itself holds the tail to a fresh world of the shrunken size.
#[test]
fn lost_ocean_rank_is_degraded_against_the_bitwise_reference() {
    let report = chaos_rung("lose-ocean-rank");
    let outcome = &report.outcomes[0];
    assert_eq!(outcome.verdict, Verdict::Degraded, "{}", report.table);
    assert!(outcome.ok);
    let member = &outcome.members[0];
    assert_eq!(
        member.detail,
        "lost 1 rank(s); tail bitwise-matches the fresh 3-rank reference"
    );
    let bundle = member.bundle.as_ref().expect("a shrink leaves a run directory");
    // The campaign's stamp, written after the driver's members, is indexed
    // with them.
    let members = ["faultplan.txt", "manifest.json", "scenario.txt", "trace.json"];
    assert_eq!(run_dir_members(bundle), members);
    assert_eq!(run_dir_reason(bundle), "shrink");
    let stamp = std::fs::read_to_string(bundle.join("scenario.txt")).expect("scenario.txt");
    assert!(stamp.contains("scenario lose-ocean-rank") && stamp.contains("die rank=2 step=3"));
    let postmortem = ap3esm::obs::flightrec::analyze(bundle).expect("bundle analyzes");
    assert_eq!(postmortem.blamed, Some(2), "{}", postmortem.render_table());
}

/// A rank dying before anything was committed cannot be continued from: a
/// structured failure, which is what that rung contracts.
#[test]
fn death_before_the_first_checkpoint_is_a_structured_failure() {
    let report = chaos_rung("die-before-first-checkpoint");
    let outcome = &report.outcomes[0];
    assert_eq!(outcome.verdict, Verdict::Failure, "{}", report.table);
    assert!(outcome.ok);
    assert_eq!(report.violations, 0);
}
