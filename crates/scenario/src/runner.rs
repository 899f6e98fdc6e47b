//! The campaign runner: fan a catalog's scenarios (× ensemble members)
//! across a [`Threads`] pool, execute each unit in an isolated world,
//! classify outcomes against the scenario contracts, and distil the
//! campaign into per-scenario `ap3esm-tsdb/1` series snapshots plus one
//! deterministic `ap3esm-leaderboard/1` ranking.
//!
//! The contracts, for the chaos ladder and every other catalog alike:
//!
//! * expected **healthy**: the run finishes on its clock with no failure
//!   (rollbacks allowed, shrinks not);
//! * expected **degraded**: the run finishes on the surviving ranks, and its
//!   post-loss trajectory is **bitwise identical** to a fresh reference
//!   world of the shrunken size resuming from the same hand-off checkpoint
//!   (else [`Verdict::Divergence`]);
//! * expected **failure**: the run ends in a clean structured
//!   `RecoveryFailure` on some rank that was not lost — never a hang, panic,
//!   or silent wrong answer.
//!
//! Hangs are caught by a per-unit watchdog ([`Verdict::Hang`]), panics by
//! `catch_unwind`; either way the unit's run directory is salvaged from the
//! still-reachable world, and every troubled unit's directory carries the
//! scenario that produced it (`scenario.txt`).
//!
//! Determinism contract: everything that lands in the leaderboard JSON —
//! verdicts, conservation drift, ensemble spread, the cost-model SYPD
//! proxy — is a pure function of (catalog, seed). Wall-clock measurements
//! stay in the human table ([`CampaignReport::table`]) and stderr. Series
//! snapshots are written post-join on one thread, in catalog order, so
//! their bytes are deterministic too (the physics is bitwise reproducible;
//! `ap3esm_obs::install` is thread-local, so parallel units cannot bleed
//! metrics into each other).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use ap3esm_comm::faultplan::{FaultInjector, FaultPlan};
use ap3esm_comm::World;
use ap3esm_esm::solar::cos_zenith;
use ap3esm_esm::{
    run_coupled, CheckpointStore, CoupledConfig, CoupledOptions, CoupledStats, Coupler, Parts,
    RecoveryConfig,
};
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_obs::tsdb::{snapshot_to_json, SeriesStore};
use ap3esm_obs::RunDir;
use ap3esm_ocn::model::OcnForcing;
use ap3esm_pp::exec::{ExecSpace, Threads};

use crate::dsl::{Catalog, ModelKind, Scenario, ScenarioExpectation};
use crate::leaderboard::{score, Leaderboard, LeaderboardRow};

/// Knobs of one campaign execution.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads the units fan across (0 = machine parallelism).
    pub threads: usize,
    /// Run only scenarios whose name contains this substring.
    pub only: Option<String>,
    /// Output directory for the leaderboard and series snapshots.
    pub out_dir: PathBuf,
    /// Write per-scenario `ap3esm-tsdb/1` snapshots.
    pub write_series: bool,
    /// Blocking-recv deadlock timeout inside member worlds.
    pub recv_timeout: Duration,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            threads: 0,
            only: None,
            out_dir: ap3esm_obs::rundir::default_dir(),
            write_series: true,
            recv_timeout: Duration::from_millis(800),
        }
    }
}

/// A unit that produces neither a result nor a panic within this budget has
/// hung — exactly what a campaign exists to catch, so it is a verdict and
/// not a stuck job. Generous: the slowest shipped unit (a chaos rung waiting
/// out its widened agreement windows, then its reference run) takes ~20 s.
const WATCHDOG: Duration = Duration::from_secs(180);

/// What one (scenario, member) unit actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Healthy,
    Degraded,
    Failure,
    /// The unit panicked — never a contracted outcome.
    Panic,
    /// The unit outlived the watchdog — never a contracted outcome.
    Hang,
    /// The unit finished but off its clock/contract (wrong simulated span,
    /// missing cycle checkpoint, non-finite diagnostics …).
    Divergence,
}

impl Verdict {
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Healthy => "healthy",
            Verdict::Degraded => "degraded",
            Verdict::Failure => "failure",
            Verdict::Panic => "PANIC",
            Verdict::Hang => "HANG",
            Verdict::Divergence => "DIVERGENCE",
        }
    }

    /// Does this outcome honour the scenario's contract?
    pub fn matches(&self, expect: ScenarioExpectation) -> bool {
        matches!(
            (self, expect),
            (Verdict::Healthy, ScenarioExpectation::Healthy)
                | (Verdict::Degraded, ScenarioExpectation::Degraded)
                | (Verdict::Failure, ScenarioExpectation::Failure)
        )
    }
}

/// One ensemble member's outcome.
#[derive(Debug, Clone)]
pub struct MemberOutcome {
    pub member: usize,
    pub verdict: Verdict,
    pub detail: String,
    /// Model-specific conservation drift (relative θ-mass drift, mean
    /// free-surface anomaly, …; deterministic).
    pub drift: f64,
    /// Final primary diagnostic (mean θ / mean SST / ice cover) — the
    /// ensemble-spread basis.
    pub primary: f64,
    pub simulated_seconds: f64,
    pub wall_seconds: f64,
    pub faults: usize,
    pub recoveries: usize,
    pub shrinks: usize,
    /// Named diagnostic series, `(t seconds, value)` per coupling.
    pub series: Vec<(String, Vec<(f64, f64)>)>,
    /// The run directory, when the run ended in trouble: the driver's own,
    /// or the one salvaged from the world after a hang or panic.
    pub bundle: Option<PathBuf>,
}

impl MemberOutcome {
    fn new(member: usize) -> Self {
        MemberOutcome {
            member,
            verdict: Verdict::Healthy,
            detail: String::new(),
            drift: 0.0,
            primary: 0.0,
            simulated_seconds: 0.0,
            wall_seconds: 0.0,
            faults: 0,
            recoveries: 0,
            shrinks: 0,
            series: Vec::new(),
            bundle: None,
        }
    }

    fn fail(member: usize, verdict: Verdict, detail: String) -> Self {
        MemberOutcome {
            verdict,
            detail,
            ..MemberOutcome::new(member)
        }
    }
}

/// One scenario's aggregated outcome.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    pub name: String,
    pub model: ModelKind,
    pub expect: ScenarioExpectation,
    /// Worst member verdict (the first that broke the contract, or the
    /// shared verdict when all honoured it).
    pub verdict: Verdict,
    pub ok: bool,
    /// Worst-member drift.
    pub drift: f64,
    /// Max−min of the members' final primary diagnostic.
    pub spread: f64,
    pub simulated_seconds: f64,
    pub wall_seconds: f64,
    pub members: Vec<MemberOutcome>,
    /// Series snapshot file name (relative to the output dir).
    pub series_file: Option<String>,
}

impl ScenarioOutcome {
    /// Measured SYPD of this scenario's members (wall clock; human table
    /// only, never the leaderboard JSON).
    pub fn sypd_wall(&self) -> f64 {
        let sim: f64 = self.members.iter().map(|m| m.simulated_seconds).sum();
        if self.wall_seconds > 0.0 {
            sim / (365.0 * self.wall_seconds)
        } else {
            0.0
        }
    }
}

/// A finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    pub outcomes: Vec<ScenarioOutcome>,
    pub leaderboard: Leaderboard,
    pub leaderboard_path: PathBuf,
    /// Scenarios whose verdict broke their contract.
    pub violations: usize,
    /// The human-readable ranking table (includes wall-clock SYPD).
    pub table: String,
}

/// Run `catalog` under `opts`. Call [`Catalog::validate`] first — the
/// runner assumes a validated catalog and panics on inconsistencies the
/// validator names politely.
pub fn run_campaign(catalog: &Catalog, opts: &CampaignOptions) -> CampaignReport {
    let selected: Vec<&Scenario> = catalog
        .scenarios
        .iter()
        .filter(|sc| match &opts.only {
            Some(pat) => sc.name.contains(pat.as_str()),
            None => true,
        })
        .collect();

    // Unit = (selected index, member). Results slot-addressed so the pool
    // order cannot reorder anything.
    let units: Vec<(usize, usize)> = selected
        .iter()
        .enumerate()
        .flat_map(|(si, sc)| (0..sc.members).map(move |m| (si, m)))
        .collect();
    let results: Vec<Mutex<Option<MemberOutcome>>> =
        units.iter().map(|_| Mutex::new(None)).collect();

    let pool = if opts.threads == 0 {
        Threads::auto()
    } else {
        Threads::new(opts.threads)
    };
    let work = |u: usize| {
        let (si, member) = units[u];
        let sc = selected[si];
        *results[u].lock().expect("result slot") = Some(run_watched(sc, member, opts));
    };
    pool.for_each(units.len(), &work);

    // Post-join, single-threaded, catalog order: aggregate + emit.
    let mut by_scenario: Vec<Vec<MemberOutcome>> = selected.iter().map(|_| Vec::new()).collect();
    for (u, (si, _)) in units.iter().enumerate() {
        let out = results[u]
            .lock()
            .expect("result slot")
            .take()
            .expect("every unit ran");
        by_scenario[*si].push(out);
    }

    let mut outcomes = Vec::with_capacity(selected.len());
    let mut rows = Vec::with_capacity(selected.len());
    for (sc, mut members) in selected.iter().zip(by_scenario) {
        members.sort_by_key(|m| m.member);
        let verdict = members
            .iter()
            .map(|m| m.verdict)
            .find(|v| !v.matches(sc.expect))
            .unwrap_or_else(|| members[0].verdict);
        let ok = members.iter().all(|m| m.verdict.matches(sc.expect));
        let drift = members
            .iter()
            .map(|m| m.drift.abs())
            .fold(0.0f64, f64::max);
        let finite: Vec<f64> = members
            .iter()
            .map(|m| m.primary)
            .filter(|p| p.is_finite())
            .collect();
        let spread = if finite.len() > 1 {
            finite.iter().fold(f64::MIN, |a, &b| a.max(b))
                - finite.iter().fold(f64::MAX, |a, &b| a.min(b))
        } else {
            0.0
        };
        let simulated_seconds = members
            .iter()
            .map(|m| m.simulated_seconds)
            .fold(0.0f64, f64::max);
        let wall_seconds: f64 = members.iter().map(|m| m.wall_seconds).sum();

        let series_file = (opts.write_series && members.iter().any(|m| !m.series.is_empty()))
            .then(|| format!("series-{}-{}.json", catalog.name, sc.name));
        if let Some(file) = &series_file {
            if let Err(e) = write_series_snapshot(&opts.out_dir.join(file), sc, &members) {
                eprintln!("[campaign] series snapshot {file} failed: {e}");
            }
        }

        let sypd_proxy = sc.sypd_proxy();
        rows.push(LeaderboardRow {
            name: sc.name.clone(),
            model: sc.model.as_str().to_string(),
            grid: sc.grid.as_str().to_string(),
            days: sc.days,
            members: sc.members as u64,
            cycles: sc.cycles as u64,
            expect: sc.expect.as_str().to_string(),
            verdict: verdict.as_str().to_string(),
            ok,
            score: score(ok, sypd_proxy, drift),
            sypd_proxy,
            drift,
            spread,
            simulated_seconds,
            faults: members.iter().map(|m| m.faults as u64).sum(),
            recoveries: members.iter().map(|m| m.recoveries as u64).sum(),
            shrinks: members.iter().map(|m| m.shrinks as u64).sum(),
            series: series_file.clone(),
        });
        outcomes.push(ScenarioOutcome {
            name: sc.name.clone(),
            model: sc.model,
            expect: sc.expect,
            verdict,
            ok,
            drift,
            spread,
            simulated_seconds,
            wall_seconds,
            members,
            series_file,
        });
    }

    let leaderboard = Leaderboard::ranked(&catalog.name, catalog.seed, rows);
    let leaderboard_path = leaderboard
        .write(&opts.out_dir, &catalog.name)
        .expect("write leaderboard");
    let violations = leaderboard.rows.iter().filter(|r| !r.ok).count();
    let table = render_table(&leaderboard, &outcomes);

    CampaignReport {
        outcomes,
        leaderboard,
        leaderboard_path,
        violations,
        table,
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("opaque panic payload")
        .to_string()
}

/// Where a running unit leaves the world it is driving, so the watchdog can
/// still read that world's event log after a hang or a panic.
type WorldSlot = Mutex<Option<Arc<World>>>;

/// The one place a scenario becomes a world: `size` ranks under the
/// campaign's receive window, `plan` (the scenario's, or none for a
/// reference world) on the send path, left in `slot` for the watchdog.
fn scenario_world(
    size: usize,
    plan: Option<&FaultPlan>,
    opts: &CampaignOptions,
    slot: &WorldSlot,
) -> Arc<World> {
    let mut world = World::new(size).with_recv_timeout(opts.recv_timeout);
    if let Some(plan) = plan {
        world = world.with_fault_injector(Arc::new(FaultInjector::new(plan.clone())));
    }
    let world = Arc::new(world);
    *slot.lock().expect("world slot") = Some(Arc::clone(&world));
    world
}

/// `target/obs/<this>/` is a troubled unit's run directory.
fn bundle_name(sc: &Scenario, member: usize) -> String {
    format!("campaign-{}-m{member}", sc.name)
}

/// Execute one (scenario, member) unit under the watchdog. The unit drives
/// its worlds on a thread of its own; this one only watches the clock, so a
/// deadlocked unit cannot take the campaign down.
fn run_watched(sc: &Scenario, member: usize, opts: &CampaignOptions) -> MemberOutcome {
    let wall0 = Instant::now();
    let slot: Arc<WorldSlot> = Arc::default();
    let (tx, rx) = mpsc::channel();
    let (unit_sc, unit_opts, unit_slot) = (sc.clone(), opts.clone(), Arc::clone(&slot));
    let unit = std::thread::spawn(move || {
        let run = catch_unwind(AssertUnwindSafe(|| match unit_sc.model {
            ModelKind::Full => run_full_member(&unit_sc, member, &unit_opts, &unit_slot),
            _ => run_subset_member(&unit_sc, member, &unit_opts, &unit_slot),
        }));
        let _ = tx.send(run);
    });
    let verdict = rx.recv_timeout(WATCHDOG);
    if verdict.is_ok() {
        unit.join().expect("the unit thread catches its own panics");
    }
    let mut out = match verdict {
        Ok(Ok(out)) => out,
        Ok(Err(payload)) => MemberOutcome::fail(member, Verdict::Panic, panic_message(&payload)),
        // The unit's thread is leaked deliberately: it is wedged on a
        // blocked receive, and the whole point is to report that.
        Err(_) => {
            let detail = format!("no result within {} s", WATCHDOG.as_secs());
            MemberOutcome::fail(member, Verdict::Hang, detail)
        }
    };
    out.wall_seconds = wall0.elapsed().as_secs_f64();

    let scenario_text = format!(
        "scenario {} member {member}\nexpect {}\nplan:\n{}",
        sc.name,
        sc.expect.as_str(),
        sc.plan
    );
    let salvage = match out.verdict {
        Verdict::Panic => Some("panic"),
        Verdict::Hang => Some("hang"),
        _ => None,
    };
    let world = slot.lock().expect("world slot").take();
    if let (Some(reason), Some(world)) = (salvage, world) {
        // The driver never reached its own run directory — salvage the
        // (possibly wedged) world's event log.
        let salvaged = RunDir::create(&bundle_name(sc, member), reason).and_then(|dir| {
            dir.write_events(&world.events().snapshot())?;
            if !sc.plan.events.is_empty() {
                dir.write("faultplan.txt", &sc.plan.to_string())?;
            }
            Ok(dir.path().to_path_buf())
        });
        out.bundle = salvaged.ok();
    }
    if let Some(bundle) = &out.bundle {
        // The driver does not know the campaign context; stamp it in.
        let _ = RunDir::open(bundle).and_then(|dir| dir.write("scenario.txt", &scenario_text));
    }
    out
}

/// `tail` must be, bit for bit, the last `tail.len()` entries of `full`.
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

/// The degraded-mode contract: resume a fresh world of the shrunken size
/// from the degraded run's hand-off checkpoint, on the ocean mesh the
/// driver's own shrink-to-fit chose, and demand a bitwise-identical tail of
/// every series. Returns the reference world's size, or the violation.
fn check_degraded_reference(
    config: &CoupledConfig,
    copts: &CoupledOptions,
    root: &CoupledStats,
    opts: &CampaignOptions,
    slot: &WorldSlot,
) -> Result<usize, String> {
    let ckpt = copts
        .checkpoint_dir
        .as_deref()
        .ok_or("the world shrank without a checkpoint directory")?;
    let shrunk = ckpt.join(format!("shrunk_g{}", root.shrinks));
    if !shrunk.is_dir() {
        return Err(format!("hand-off dir {} missing", shrunk.display()));
    }
    let ocn_survivors = config.world_size() - root.degraded_ranks - 1;
    let refit = BlockDecomp2d::auto(config.ocn_nlon, config.ocn_nlat, ocn_survivors);
    let ref_config = CoupledConfig {
        ocn_px: refit.px,
        ocn_py: refit.py,
        ..config.clone()
    };
    let ref_opts = CoupledOptions {
        checkpoint_dir: Some(ckpt.with_extension("reference")),
        resume_from: Some(shrunk),
        bundle_name: copts.bundle_name.as_ref().map(|n| format!("{n}-reference")),
        ..copts.clone()
    };
    let size = ref_config.world_size();
    let world = scenario_world(size, None, opts, slot);
    let all = world.run(|rank| run_coupled(rank, &ref_config, &ref_opts));
    let ref_root = &all[0];
    if let Some(f) = &ref_root.failure {
        return Err(format!("reference run failed: {f}"));
    }
    if ref_root.simulated_seconds != root.simulated_seconds {
        return Err(format!(
            "reference simulated {} s, degraded {} s",
            ref_root.simulated_seconds, root.simulated_seconds
        ));
    }
    for (name, full, tail) in [
        ("sst", &root.sst_series, &ref_root.sst_series),
        ("ke", &root.ke_series, &ref_root.ke_series),
        ("theta", &root.theta_series, &ref_root.theta_series),
        ("ice", &root.ice_series, &ref_root.ice_series),
    ] {
        bitwise_tail_matches(name, full, tail)?;
    }
    Ok(size)
}

/// The coupled model: per-cycle worlds with checkpoint hand-off, fault
/// injection from the scenario's plan, the reference check after a shrink.
fn run_full_member(
    sc: &Scenario,
    member: usize,
    opts: &CampaignOptions,
    slot: &WorldSlot,
) -> MemberOutcome {
    let config = sc.coupled_config();
    let total_seconds = (sc.days * 86_400.0).round();
    let have_faults = !sc.plan.events.is_empty();
    let need_ckpt = sc.cycles > 1 || have_faults;
    let tmp_root = std::env::temp_dir().join(format!(
        "ap3esm-campaign-{}-{}-m{member}",
        std::process::id(),
        sc.name
    ));
    let _ = std::fs::remove_dir_all(&tmp_root);
    // Whole couplings per cycle — guaranteed by the catalog parser.
    let cycle_ocn = (sc.days * sc.couplings.1 as f64 / sc.cycles as f64).round() as usize;

    let mut out = MemberOutcome::new(member);
    let mut theta: Vec<(f64, f64)> = Vec::new();
    let mut sst: Vec<(f64, f64)> = Vec::new();
    let mut ke: Vec<(f64, f64)> = Vec::new();
    let mut ice: Vec<(f64, f64)> = Vec::new();
    let atm_period = 86_400.0 / sc.couplings.0 as f64;
    let ocn_period = 86_400.0 / sc.couplings.1 as f64;
    let ice_period = 86_400.0 / sc.couplings.2 as f64;

    let mut resume: Option<PathBuf> = None;
    'cycles: for cycle in 0..sc.cycles {
        let ckpt_dir = need_ckpt.then(|| tmp_root.join(format!("cycle{cycle}")));
        let mut copts = sc.coupled_options(member);
        copts.days = sc.days * (cycle + 1) as f64 / sc.cycles as f64;
        copts.checkpoint_dir = ckpt_dir.clone();
        copts.recovery = RecoveryConfig {
            // Fault scenarios checkpoint densely for cheap rollback;
            // fault-free cycled reforecasts only at the cycle hand-off.
            checkpoint_interval: if have_faults { 1 } else { cycle_ocn.max(1) },
            keep_checkpoints: 4,
            ..RecoveryConfig::default()
        };
        copts.resume_from = resume.take();
        copts.bundle_name = Some(bundle_name(sc, member));

        let plan = have_faults.then_some(&sc.plan);
        let world = scenario_world(config.world_size(), plan, opts, slot);
        let all = world.run(|rank| run_coupled(rank, &config, &copts));

        let root = &all[0];
        out.faults += all.iter().map(|s| s.fault_events.len()).sum::<usize>();
        out.recoveries += root.recoveries;
        out.shrinks += root.shrinks;
        out.simulated_seconds = root.simulated_seconds;
        if root.run_dir.is_some() {
            out.bundle = root.run_dir.clone();
        }

        // Stitch this cycle's series onto the member timeline, anchored at
        // the cycle's end: entry i of an n-entry series is the coupling
        // ending at T_end - (n-1-i) periods. A resumed cycle replays the
        // couplings after its hand-off checkpoint (which lands shy of the
        // cycle boundary), so the head of its series can overlap the
        // previous cycle's tail — the replay is bitwise, drop it.
        let t_end = total_seconds * (cycle + 1) as f64 / sc.cycles as f64;
        for (dst, src, period) in [
            (&mut theta, &root.theta_series, atm_period),
            (&mut sst, &root.sst_series, ocn_period),
            (&mut ke, &root.ke_series, ocn_period),
            (&mut ice, &root.ice_series, ice_period),
        ] {
            let n = src.len();
            let last_t = dst.last().map(|&(t, _)| t).unwrap_or(f64::NEG_INFINITY);
            dst.extend(src.iter().enumerate().filter_map(|(i, &v)| {
                let t = t_end - (n - 1 - i) as f64 * period;
                (t > last_t + 1e-6).then_some((t, v))
            }));
        }

        // A structured failure on any rank that was not lost is the run's:
        // one carried by a survivor while root has none is a split-brain
        // outcome — count it as the failure it is.
        let failed = all
            .iter()
            .enumerate()
            .find_map(|(r, s)| s.failure.as_ref().filter(|_| !s.lost).map(|f| (r, f)));
        if let Some((r, f)) = failed {
            out.verdict = Verdict::Failure;
            out.detail = match r {
                0 => f.clone(),
                _ => format!("rank {r}: {f}"),
            };
            break 'cycles;
        }
        if (root.simulated_seconds - t_end).abs() > 0.5 {
            out.verdict = Verdict::Divergence;
            out.detail = format!(
                "cycle {cycle} simulated {} s, expected {t_end} s",
                root.simulated_seconds
            );
            break 'cycles;
        }
        if root.degraded_ranks > 0 || root.shrinks > 0 {
            match check_degraded_reference(&config, &copts, root, opts, slot) {
                Ok(size) => {
                    out.verdict = Verdict::Degraded;
                    out.detail = format!(
                        "lost {} rank(s); tail bitwise-matches the fresh {size}-rank reference",
                        root.degraded_ranks
                    );
                }
                Err(violation) => {
                    out.verdict = Verdict::Divergence;
                    out.detail = violation;
                    break 'cycles;
                }
            }
        }

        if cycle + 1 < sc.cycles {
            let dir = ckpt_dir.expect("cycled runs checkpoint");
            let store = CheckpointStore::new(&dir, 0);
            match store.latest() {
                Some(id) => resume = Some(store.dir(id)),
                None => {
                    out.verdict = Verdict::Divergence;
                    out.detail =
                        format!("no committed checkpoint in {} at cycle end", dir.display());
                    break 'cycles;
                }
            }
        }
    }

    // Conservation drift: relative θ trend over the stitched trajectory
    // (bitwise-deterministic; a blown-up run shows as NaN → Divergence).
    if theta.len() > 1 {
        let (first, last) = (theta[0].1, theta[theta.len() - 1].1);
        out.drift = if first != 0.0 { (last - first) / first } else { 0.0 };
    }
    out.primary = theta.last().map(|&(_, v)| v).unwrap_or(0.0);
    if out.verdict == Verdict::Healthy {
        if !out.drift.is_finite() || !out.primary.is_finite() {
            out.verdict = Verdict::Divergence;
            out.detail = "non-finite diagnostics".into();
        } else if have_faults {
            out.detail = format!("{} rollback(s), no shrink", out.recoveries);
        }
    }
    out.series = vec![
        ("theta".into(), theta),
        ("sst".into(), sst),
        ("ke".into(), ke),
        ("ice".into(), ice),
    ];
    let _ = std::fs::remove_dir_all(&tmp_root);
    out
}

/// A standalone subset: the coupled driver's [`Coupler`] holding one
/// component on a single-rank world, stepped by the same `step()`. What the
/// absent components would have handed it is prescribed here, into the
/// coupler's attribute vectors:
///
/// * ocean-only — climatological wind stress and heat flux; the ENSO
///   anomaly and the member's noise go into the *true* initial SST;
/// * atm-only — an aqua planet over a zonal (optionally ENSO-warmed) SST,
///   the zenith angle taken at the start of each coupling period;
/// * ice-only — a seasonal air-temperature swing over near-freezing water.
fn run_subset_member(
    sc: &Scenario,
    member: usize,
    opts: &CampaignOptions,
    slot: &WorldSlot,
) -> MemberOutcome {
    let config = sc.coupled_config();
    let copts = sc.coupled_options(member);
    let grid = config.ocean_grid();
    let clock = config.clock();
    let mut parts = Parts::default();
    let (present, per_day, alarm) = match sc.model {
        ModelKind::OceanOnly => (&mut parts.ocn, sc.couplings.1, clock.ocn_alarm),
        ModelKind::AtmOnly => (&mut parts.atm, sc.couplings.0, clock.atm_alarm),
        ModelKind::IceOnly => (&mut parts.ice, sc.couplings.2, clock.ice_alarm),
        ModelKind::Full => unreachable!("the full model runs through run_coupled"),
    };
    *present = true;
    let period = alarm.period as f64;
    let total_seconds = (sc.days * per_day as f64).round() * period;

    // No plan: `Catalog::validate` keeps fault verbs off standalone subsets.
    let world = scenario_world(config.world_size(), None, opts, slot);
    let mut results = world.run(|rank| {
        let mut cpl = Coupler::build(rank, &config, &copts, &grid, parts);
        prescribe_boundary(sc, &copts, &grid, &mut cpl);
        let mut stats = CoupledStats::default();
        // The conserved quantity each subset is scored on, per coupling.
        let invariant = |cpl: &Coupler| match (&cpl.ocn, &cpl.atm, &cpl.ice) {
            (Some(ocn), _, _) => ocn.volume_anomaly(),
            (_, Some(atm), _) => atm.state.total_mass(),
            (_, _, Some(ice)) => ice.model.total_volume(),
            _ => unreachable!("a subset holds one component"),
        };
        let initial = invariant(&cpl);
        let mut invariants = Vec::new();
        while (cpl.clock.time as f64) < total_seconds {
            prescribe_forcing(sc, period, &mut cpl);
            let step = cpl.step(rank, &mut stats);
            if let Some(e) = step.comm_fault {
                panic!("coupler exchange failed: {e}");
            }
            if alarm.ringing(step.event.time) {
                invariants.push(invariant(&cpl));
            }
        }
        if let Some(e) = cpl.finish(rank, &mut stats) {
            panic!("coupler exchange failed: {e}");
        }
        subset_outcome(sc, member, period, &stats, initial, invariants)
    });
    results.remove(0)
}

/// The time-independent half of a subset's prescribed data (and the
/// standalone ocean's initial-condition families).
fn prescribe_boundary(
    sc: &Scenario,
    copts: &CoupledOptions,
    grid: &TripolarGrid,
    cpl: &mut Coupler,
) {
    if let Some(ocn) = cpl.ocn.as_mut() {
        ocn.perturb_sst(grid, copts.sst_pattern, copts.perturb.as_ref());
        let decomp = BlockDecomp2d::new(grid.nlon, grid.nlat, 1, 1);
        let clim = OcnForcing::climatology(grid, &decomp, 0);
        cpl.x2o.set("taux", &clim.taux);
        cpl.x2o.set("qnet", &clim.qnet);
    }
    if let Some(atm) = &cpl.atm {
        // Aqua planet: sea everywhere, the ENSO anomaly applied to the
        // *surface the atmosphere feels* (there is no ocean to warm).
        for (tskin, cell) in cpl
            .x2a
            .get_mut("tskin")
            .iter_mut()
            .zip(&atm.state.grid.cells)
        {
            let phi = cell.lat();
            let anomaly = copts
                .sst_pattern
                .map_or(0.0, |p| p.anomaly(phi, cell.lon()));
            let sst_c = 2.0 + 26.0 * phi.cos().powi(2) + anomaly;
            *tskin = 273.15 + sst_c.max(-1.8);
        }
        cpl.x2a.get_mut("wetness").fill(1.0);
    }
    if cpl.ice.is_some() {
        cpl.x2i
            .get_mut("sst")
            .fill(-1.5 + 0.1 * sc.enso.unwrap_or(0.0));
    }
}

/// The time-dependent half, refreshed before every step.
fn prescribe_forcing(sc: &Scenario, period: f64, cpl: &mut Coupler) {
    let now = cpl.clock.time as f64;
    match sc.model {
        ModelKind::AtmOnly => {
            let atm = cpl.atm.as_ref().expect("atm-only holds an atmosphere");
            // Late-July epoch, as in the coupled driver.
            let (day_of_year, seconds_utc) = (202.0 + now / 86_400.0, now % 86_400.0);
            for (coszr, cell) in cpl
                .x2a
                .get_mut("coszr")
                .iter_mut()
                .zip(&atm.state.grid.cells)
            {
                *coszr = cos_zenith(cell.lat(), cell.lon(), day_of_year, seconds_utc);
            }
        }
        ModelKind::IceOnly => {
            // Seasonal swing about a sub-freezing mean, at the period's end.
            let phase = std::f64::consts::TAU * (now + period) / (365.0 * 86_400.0);
            cpl.x2i.get_mut("tair").fill(-12.0 + 10.0 * phase.sin());
        }
        _ => {}
    }
}

/// Score a finished subset run from the coupler's series and the
/// per-coupling `invariants`.
fn subset_outcome(
    sc: &Scenario,
    member: usize,
    period: f64,
    stats: &CoupledStats,
    initial: f64,
    invariants: Vec<f64>,
) -> MemberOutcome {
    let timed = |values: &[f64]| -> Vec<(f64, f64)> {
        let at = |(k, &v): (usize, &f64)| ((k + 1) as f64 * period, v);
        values.iter().enumerate().map(at).collect()
    };
    let all =
        |values: &[f64], ok: &dyn Fn(f64) -> bool| values.iter().all(|&v| v.is_finite() && ok(v));
    let last = invariants.last().copied();
    let mut out = MemberOutcome::new(member);
    out.simulated_seconds = invariants.len() as f64 * period;
    let (primary, healthy, what) = match sc.model {
        ModelKind::OceanOnly => {
            // Volume drift: mean free-surface anomaly gained since t = 0.
            out.drift = last.map_or(0.0, |v| v - initial);
            out.series = vec![
                ("sst".into(), timed(&stats.sst_series)),
                ("ke".into(), timed(&stats.ke_series)),
                ("vol".into(), timed(&invariants)),
            ];
            let healthy = all(&stats.sst_series, &|v| (-5.0..60.0).contains(&v))
                && all(&stats.ke_series, &|_| true);
            (&stats.sst_series, healthy, "ocean")
        }
        ModelKind::AtmOnly => {
            let mass: Vec<f64> = invariants.iter().map(|m| m / initial).collect();
            out.drift = mass.last().map_or(0.0, |m| m - 1.0);
            out.series = vec![
                ("theta".into(), timed(&stats.theta_series)),
                ("mass".into(), timed(&mass)),
            ];
            let healthy =
                all(&stats.theta_series, &|v| (150.0..400.0).contains(&v)) && out.drift.is_finite();
            (&stats.theta_series, healthy, "atmosphere")
        }
        _ => {
            // Thermodynamic ice has no conserved invariant to drift
            // against; the health check is the physical range of the cover
            // fraction.
            out.series = vec![
                ("cover".into(), timed(&stats.ice_series)),
                ("volume".into(), timed(&invariants)),
            ];
            let healthy = all(&stats.ice_series, &|v| (0.0..=1.0).contains(&v))
                && all(&invariants, &|v| v >= 0.0);
            (&stats.ice_series, healthy, "ice")
        }
    };
    out.primary = primary.last().copied().unwrap_or(0.0);
    if !healthy {
        out.verdict = Verdict::Divergence;
        out.detail = format!("{what} diagnostics left the physical range");
    }
    out
}

/// Write one scenario's member series as an `ap3esm-tsdb/1` snapshot.
fn write_series_snapshot(
    path: &Path,
    sc: &Scenario,
    members: &[MemberOutcome],
) -> std::io::Result<()> {
    let max_len = members
        .iter()
        .flat_map(|m| m.series.iter().map(|(_, pts)| pts.len()))
        .max()
        .unwrap_or(0);
    let store = SeriesStore::new(max_len.next_power_of_two().max(64));
    for m in members {
        for (name, pts) in &m.series {
            let full = if sc.members == 1 {
                name.clone()
            } else {
                format!("m{}.{name}", m.member)
            };
            for &(t, v) in pts {
                store.record_at(&full, t, v);
            }
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, snapshot_to_json(&store.snapshot()) + "\n")
}

/// Render the human ranking table (the only place wall-clock shows up).
fn render_table(lb: &Leaderboard, outcomes: &[ScenarioOutcome]) -> String {
    let mut t = String::new();
    t.push_str(&format!(
        "{:>4}  {:<24} {:<10} {:<6} {:>6} {:>4} {:>4}  {:<9} {:<10} {:>10} {:>9} {:>8} {:>9} {:>8}\n",
        "rank", "scenario", "model", "grid", "days", "mem", "cyc", "expect", "verdict",
        "score", "sypd*", "drift", "SYPD", "wall_s"
    ));
    for (i, r) in lb.rows.iter().enumerate() {
        let o = outcomes.iter().find(|o| o.name == r.name);
        let (sypd_wall, wall) = o
            .map(|o| (o.sypd_wall(), o.wall_seconds))
            .unwrap_or((0.0, 0.0));
        t.push_str(&format!(
            "{:>4}  {:<24} {:<10} {:<6} {:>6} {:>4} {:>4}  {:<9} {:<10} {:>10.3} {:>9.2} {:>8.1e} {:>9.2} {:>8.1}{}\n",
            i + 1,
            r.name,
            r.model,
            r.grid,
            r.days,
            r.members,
            r.cycles,
            r.expect,
            r.verdict,
            r.score,
            r.sypd_proxy,
            r.drift,
            sypd_wall,
            wall,
            if r.ok { "" } else { "   <- CONTRACT BROKEN" },
        ));
    }
    t.push_str("\n  sypd* = deterministic cost-model projection (ranks the leaderboard);\n");
    t.push_str("  SYPD  = measured on this machine (never in the JSON).\n");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_comparator_demands_every_bit_and_names_the_index() {
        let full = [1.0, 2.0, 0.1 + 0.2, 4.0];
        assert_eq!(bitwise_tail_matches("sst", &full, &full), Ok(()));
        assert_eq!(bitwise_tail_matches("sst", &full, &full[2..]), Ok(()));
        assert_eq!(bitwise_tail_matches("sst", &full, &[]), Ok(()));
        // 0.1 + 0.2 and 0.3 differ in the last bit only: index 2 of `full`.
        let err = bitwise_tail_matches("sst", &full, &[0.3, 4.0]).unwrap_err();
        assert!(err.starts_with("sst[2] diverged"), "{err}");
        // A reference that replayed more than the degraded run kept.
        let err = bitwise_tail_matches("ke", &full[2..], &full).unwrap_err();
        assert!(err.contains("reference has 4 entries"), "{err}");
    }
}
