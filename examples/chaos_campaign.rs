//! Deterministic chaos campaign over the coupled driver's recovery ladder.
//!
//! Runs a fixed set of named scenarios — each a seeded fault plan plus an
//! expected outcome — against the same laptop-scale coupled world, and
//! holds every run to the chaos contract:
//!
//! * expected **healthy**: the run finishes the full day with no failure
//!   (rollbacks allowed, shrinks not);
//! * expected **degraded**: the run finishes on the surviving ranks, and
//!   its post-loss trajectory is **bitwise identical** to a fresh
//!   reference world of the shrunken size resuming from the same
//!   hand-off checkpoint;
//! * expected **failure**: the run ends in a clean structured
//!   `RecoveryFailure` — never a hang, panic, or silent wrong answer.
//!
//! Hangs are caught by a per-scenario watchdog, panics by `catch_unwind`,
//! silent divergence by the reference comparison. The verdict table goes
//! to stdout, a machine-readable report to `target/obs/chaos-report.json`,
//! and the process exits nonzero if any scenario violated its contract.
//!
//! The campaign is written in the scenario-catalog grammar
//! (`ap3esm::scenario::dsl`), which is a strict superset of the old chaos
//! campaign format — `--catalog` loads any catalog file (e.g.
//! `scenarios/chaos.scn`, the shipped copy of the embedded ladder).
//!
//! ```sh
//! cargo run --release --example chaos_campaign
//! cargo run --release --example chaos_campaign -- --seed 7 --only lose
//! cargo run --release --example chaos_campaign -- --catalog scenarios/chaos.scn
//! ```

use ap3esm::comm::{FaultInjector, ScenarioExpectation};
use ap3esm::esm::RecoveryConfig;
use ap3esm::obs::flightrec::{dump_bundle, BundleSpec};
use ap3esm::obs::json::Json;
use ap3esm::prelude::*;
use ap3esm::scenario::dsl::Catalog;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Generous enough that debug-build compute gaps never masquerade as
/// deadlocks, small enough that detection stays demo-sized.
const RECV_TIMEOUT: Duration = Duration::from_millis(800);

/// A scenario that produces neither a result nor a panic within this
/// budget has hung — exactly what the campaign exists to catch.
const WATCHDOG: Duration = Duration::from_secs(180);

/// Wire tag of the ocean→coupler gather stream (p2p strategy, user tag 22):
/// one packed message per ocean rank per coupling, so a plan's `nth` on it
/// is the coupling.
const GATHER_P2P_TAG: u64 = 0x5240_0000 + 22;

/// The campaign in the scenario-catalog grammar: every rung of the
/// recovery escalation ladder on the 4-rank 3x1-ocean chaos world (losing
/// one ocean rank shrinks to the 2x1 reference layout). `{seed}` and
/// `{gather}` are substituted before parsing.
const CAMPAIGN_TEXT: &str = "\
name chaos
seed {seed}
grid tiny
mesh 3x1
days 1
scenario baseline expect=healthy
scenario transient-drop expect=healthy
drop src=1 dst=0 tag={gather} nth=2
scenario delay-jitter expect=healthy
delay src=2 dst=0 tag={gather} nth=1 ms=50
scenario transient-kill expect=healthy
kill rank=2 step=3
scenario corrupt-fallback expect=healthy
kill rank=2 step=3
corrupt ckpt=2 field=atm_theta subfile=1 byte=100
scenario lose-ocean-rank expect=degraded
die rank=2 step=3
scenario shrink-budget-exhausted expect=failure
die rank=2 step=2
die rank=3 step=3
scenario die-before-first-checkpoint expect=failure
die rank=2 step=1
";

fn campaign_options(ckpt: PathBuf, days: f64) -> CoupledOptions {
    CoupledOptions {
        days,
        checkpoint_dir: Some(ckpt),
        recovery: RecoveryConfig {
            checkpoint_interval: 1,
            keep_checkpoints: 4,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// How one scenario actually ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Observed {
    Healthy,
    Degraded,
    Failure,
    Panic,
    Hang,
    Divergence,
}

impl Observed {
    fn as_str(&self) -> &'static str {
        match self {
            Observed::Healthy => "healthy",
            Observed::Degraded => "degraded",
            Observed::Failure => "failure",
            Observed::Panic => "PANIC",
            Observed::Hang => "HANG",
            Observed::Divergence => "DIVERGENCE",
        }
    }

    fn matches(&self, expect: ScenarioExpectation) -> bool {
        matches!(
            (self, expect),
            (Observed::Healthy, ScenarioExpectation::Healthy)
                | (Observed::Degraded, ScenarioExpectation::Degraded)
                | (Observed::Failure, ScenarioExpectation::Failure)
        )
    }
}

struct Verdict {
    name: String,
    expect: ScenarioExpectation,
    observed: Observed,
    detail: String,
    recoveries: usize,
    shrinks: usize,
    degraded_ranks: usize,
    wall_s: f64,
    /// Diagnostics bundle for this scenario: the driver's dump when the
    /// run ended in trouble, or the campaign's own fallback dump on a
    /// hang/panic (taken from the still-reachable shared world).
    bundle: Option<PathBuf>,
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ap3esm-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bitwise_tail_matches(name: &str, full: &[f64], tail: &[f64]) -> Result<(), String> {
    if tail.len() > full.len() {
        return Err(format!(
            "{name}: reference has {} entries, degraded run only {}",
            tail.len(),
            full.len()
        ));
    }
    let kept = full.len() - tail.len();
    for (i, (x, y)) in full[kept..].iter().zip(tail).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!(
                "{name}[{}] diverged: degraded {x} vs reference {y}",
                kept + i
            ));
        }
    }
    Ok(())
}

/// Run the degraded run's shrunken twin from the hand-off checkpoint and
/// demand a bitwise-identical tail. Returns the violation, if any.
fn check_degraded_reference(
    config: &CoupledConfig,
    days: f64,
    root: &CoupledStats,
    ckpt: &std::path::Path,
) -> Result<(), String> {
    let shrunk = ckpt.join(format!("shrunk_g{}", root.shrinks));
    if !shrunk.is_dir() {
        return Err(format!("hand-off dir {} missing", shrunk.display()));
    }
    let mut ref_config = config.clone();
    // The shrink-to-fit layout for the lost ocean rank(s) on a 1-row mesh
    // (3x1 → 2x1); must mirror the driver's `BlockDecomp2d::auto` re-fit.
    ref_config.ocn_px = config.ocn_px - root.degraded_ranks;
    let ref_ckpt = tmpdir("reference");
    let mut ref_opts = campaign_options(ref_ckpt.clone(), days);
    ref_opts.resume_from = Some(shrunk);
    ref_opts.bundle_name = Some("chaos-reference".to_string());
    let ref_world = World::new(ref_config.world_size()).with_recv_timeout(RECV_TIMEOUT);
    let ref_all = ref_world.run(|rank| run_coupled(rank, &ref_config, &ref_opts));
    let ref_root = &ref_all[0];
    let _ = std::fs::remove_dir_all(&ref_ckpt);

    if let Some(f) = &ref_root.failure {
        return Err(format!("reference run failed: {f}"));
    }
    if ref_root.simulated_seconds != root.simulated_seconds {
        return Err(format!(
            "reference simulated {} s, degraded {} s",
            ref_root.simulated_seconds, root.simulated_seconds
        ));
    }
    bitwise_tail_matches("sst", &root.sst_series, &ref_root.sst_series)?;
    bitwise_tail_matches("ke", &root.ke_series, &ref_root.ke_series)?;
    bitwise_tail_matches("theta", &root.theta_series, &ref_root.theta_series)?;
    bitwise_tail_matches("ice", &root.ice_series, &ref_root.ice_series)?;
    Ok(())
}

/// Classify a finished (non-hung, non-panicked) scenario run.
fn classify(
    config: &CoupledConfig,
    days: f64,
    all: &[CoupledStats],
    ckpt: &std::path::Path,
) -> (Observed, String) {
    let root = &all[0];
    if let Some(f) = &root.failure {
        return (Observed::Failure, f.clone());
    }
    // A rank that carries a failure while root does not is a split-brain
    // outcome — count it as the failure it is.
    for (r, s) in all.iter().enumerate() {
        if !s.lost {
            if let Some(f) = &s.failure {
                return (Observed::Failure, format!("rank {r}: {f}"));
            }
        }
    }
    let expected_s = days * 86_400.0;
    if root.simulated_seconds != expected_s {
        return (
            Observed::Divergence,
            format!(
                "run stopped at {} of {expected_s} simulated seconds without a failure",
                root.simulated_seconds
            ),
        );
    }
    if root.shrinks > 0 {
        match check_degraded_reference(config, days, root, ckpt) {
            Ok(()) => (
                Observed::Degraded,
                format!(
                    "lost {} rank(s); tail bitwise-matches the fresh {}-rank reference",
                    root.degraded_ranks,
                    config.world_size() - root.degraded_ranks
                ),
            ),
            Err(e) => (Observed::Divergence, e),
        }
    } else {
        (
            Observed::Healthy,
            format!("{} rollback(s), no shrink", root.recoveries),
        )
    }
}

fn main() {
    let mut seed: u64 = 20260808;
    let mut only: Option<String> = None;
    let mut catalog_path: Option<PathBuf> = None;
    let mut report_path = PathBuf::from("target/obs/chaos-report.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--only" => only = Some(args.next().unwrap_or_else(|| usage())),
            "--catalog" => catalog_path = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--report" => report_path = args.next().unwrap_or_else(|| usage()).into(),
            _ => usage(),
        }
    }

    let text = match &catalog_path {
        Some(p) => std::fs::read_to_string(p)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", p.display())),
        None => CAMPAIGN_TEXT
            .replace("{seed}", &seed.to_string())
            .replace("{gather}", &GATHER_P2P_TAG.to_string()),
    };
    let catalog = Catalog::parse(&text).unwrap_or_else(|e| panic!("campaign text: {e}"));
    catalog
        .validate()
        .unwrap_or_else(|e| panic!("campaign invalid: {e}"));
    let seed = catalog.seed;

    let scenarios: Vec<_> = catalog
        .scenarios
        .iter()
        .filter(|s| only.as_deref().is_none_or(|f| s.name.contains(f)))
        .cloned()
        .collect();
    if scenarios.is_empty() {
        eprintln!("no scenario matches --only {:?}", only.unwrap_or_default());
        std::process::exit(2);
    }
    println!(
        "chaos campaign: {} scenario(s), seed {seed}",
        scenarios.len(),
    );

    let mut verdicts: Vec<Verdict> = Vec::new();
    for sc in &scenarios {
        let t0 = Instant::now();
        let config = sc.coupled_config();
        let days = sc.days;
        let ckpt = tmpdir(&sc.name);
        let (tx, rx) = mpsc::channel();
        let (run_config, run_ckpt, plan) = (config.clone(), ckpt.clone(), sc.plan.clone());
        // The world is shared with the watchdog side: if the scenario
        // hangs or panics, the main thread can still read its flight
        // recorder and comm journals for the fallback diagnostics bundle.
        let world = Arc::new(
            World::new(run_config.world_size())
                .with_recv_timeout(RECV_TIMEOUT)
                .with_fault_injector(Arc::new(FaultInjector::new(plan))),
        );
        let (run_world, run_name) = (Arc::clone(&world), sc.name.clone());
        // The worker drives the world; the main thread only watches the
        // clock, so a deadlocked scenario cannot take the campaign down.
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut opts = campaign_options(run_ckpt, days);
                opts.bundle_name = Some(format!("chaos-{run_name}"));
                run_world.run(|rank| run_coupled(rank, &run_config, &opts))
            }));
            let _ = tx.send(result);
        });

        let (observed, detail, stats) = match rx.recv_timeout(WATCHDOG) {
            Ok(Ok(all)) => {
                let (obs, detail) = classify(&config, days, &all, &ckpt);
                (obs, detail, Some(all[0].clone()))
            }
            Ok(Err(payload)) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("opaque panic payload");
                (Observed::Panic, msg.to_string(), None)
            }
            // The worker thread is leaked deliberately: it is wedged on a
            // blocked recv, and the whole point is to report that.
            Err(_) => (
                Observed::Hang,
                format!("no result within {}s", WATCHDOG.as_secs()),
                None,
            ),
        };
        let _ = std::fs::remove_dir_all(&ckpt);
        let s = stats.unwrap_or_default();

        // Resolve the scenario's diagnostics bundle: prefer the driver's
        // own dump; on a hang or panic the driver never got there, so
        // dump a fallback bundle from the shared (possibly wedged) world.
        let scenario_text = format!(
            "scenario {}\nexpect {}\nseed {seed}\nplan:\n{}",
            sc.name,
            sc.expect.as_str(),
            sc.plan
        );
        let mut bundle = s.bundle_path.clone();
        if bundle.is_none() && matches!(observed, Observed::Panic | Observed::Hang) {
            let spec = BundleSpec {
                reason: if observed == Observed::Panic { "panic" } else { "hang" },
                events: &world.events().snapshot(),
                fault_plan: Some(sc.plan.to_string()),
                scenario: Some(scenario_text.clone()),
                ..Default::default()
            };
            match dump_bundle(&format!("chaos-{}", sc.name), &spec) {
                Ok(p) => bundle = Some(p),
                Err(e) => eprintln!("  [flightrec] fallback bundle for {} failed: {e}", sc.name),
            }
        }
        if let Some(b) = &bundle {
            // The driver doesn't know the campaign context; stamp it in.
            let _ = std::fs::write(b.join("scenario.txt"), &scenario_text);
        }

        let v = Verdict {
            name: sc.name.clone(),
            expect: sc.expect,
            observed,
            detail,
            recoveries: s.recoveries,
            shrinks: s.shrinks,
            degraded_ranks: s.degraded_ranks,
            wall_s: t0.elapsed().as_secs_f64(),
            bundle,
        };
        println!(
            "  {} {:<28} expect={:<8} observed={:<10} {:.1}s  {}",
            if v.observed.matches(v.expect) {
                "ok "
            } else {
                "BAD"
            },
            v.name,
            v.expect.as_str(),
            v.observed.as_str(),
            v.wall_s,
            v.detail
        );
        verdicts.push(v);
    }

    let violations = verdicts
        .iter()
        .filter(|v| !v.observed.matches(v.expect))
        .count();

    let mut report = Json::obj();
    report.set("seed", Json::UInt(seed));
    report.set("campaign", Json::Str(catalog.name.clone()));
    report.set("violations", Json::UInt(violations as u64));
    let mut rows = Vec::new();
    for v in &verdicts {
        let mut row = Json::obj();
        row.set("name", Json::Str(v.name.clone()));
        row.set("expect", Json::Str(v.expect.as_str().to_string()));
        row.set("observed", Json::Str(v.observed.as_str().to_string()));
        row.set("ok", Json::Bool(v.observed.matches(v.expect)));
        row.set("detail", Json::Str(v.detail.clone()));
        row.set("recoveries", Json::UInt(v.recoveries as u64));
        row.set("shrinks", Json::UInt(v.shrinks as u64));
        row.set("degraded_ranks", Json::UInt(v.degraded_ranks as u64));
        row.set("wall_s", Json::Num(v.wall_s));
        row.set(
            "bundle",
            match &v.bundle {
                Some(p) => Json::Str(p.display().to_string()),
                None => Json::Null,
            },
        );
        rows.push(row);
    }
    report.set("scenarios", Json::Arr(rows));
    if let Some(parent) = report_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&report_path, report.to_string())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", report_path.display()));

    println!(
        "\n{}/{} scenario(s) met their contract; report: {}",
        verdicts.len() - violations,
        verdicts.len(),
        report_path.display()
    );
    if violations > 0 {
        std::process::exit(1);
    }
}

fn usage() -> ! {
    eprintln!("usage: chaos_campaign [--seed N] [--only SUBSTRING] [--report PATH]");
    std::process::exit(2);
}
