//! The scenario-catalog grammar — the one grammar a campaign is written in,
//! the chaos ladder (`scenarios/chaos.scn`) included.
//!
//! A catalog is a line-based text file in the style of the fault-plan
//! grammar of [`ap3esm_comm::faultplan`], whose verbs it embeds: a file of
//! nothing but a `seed` line, `scenario <name> expect=…` headers and fault
//! verbs (the old chaos-campaign format) is a catalog as it stands, and
//! catalogs additionally pick the component subset, grid rung, coupling
//! cadence, initial-condition family, ensemble fan-out and reforecast
//! cycling:
//!
//! ```text
//! name demo                     # catalog name (leaderboard/series files)
//! seed 42                       # campaign seed (derives scenario seeds)
//! grid tiny                     # catalog-level default for every scenario
//!
//! scenario coupled-baseline expect=healthy
//! model full
//! days 0.25
//!
//! scenario spinup
//! model ocean-only              # standalone subset behind esm::Component
//! enso amp=2.5                  # ENSO-like warm-pool SST anomaly
//!
//! scenario fan
//! members 3                     # seeded perturbation ensemble
//! perturb amp=0.01
//!
//! scenario lose-ocean expect=degraded
//! die rank=2 step=3             # fault verbs delegate to faultplan
//! ```
//!
//! A scenario that sets no `seed` of its own gets one derived from the
//! catalog seed and its position ([`scenario_seed`]), so every scenario is
//! reproducible in isolation but decorrelated from its neighbours.
//!
//! Every diagnostic carries the 1-based line number of the offending
//! **catalog** line: unknown keys, duplicated keys (citing both lines),
//! out-of-range values, and — through blank-line padding before delegating
//! to [`FaultPlan::parse`] — fault-plan errors too. [`Catalog::parse`] ∘
//! [`Display`](std::fmt::Display) is the identity on parsed catalogs.

use std::fmt;

use ap3esm_comm::faultplan::{FaultPlan, PlanParseError};
use ap3esm_cpl::rearrange::RearrangeStrategy;
use ap3esm_esm::resilience::splitmix64_draw;

/// What a scenario is expected to do to the run — the contract the campaign
/// runner holds its verdict to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioExpectation {
    /// Faults are absent or transient: the run must finish healthy.
    Healthy,
    /// A rank is permanently lost: the run must finish in degraded mode on
    /// the survivors, matching a fresh reference run on the smaller world.
    Degraded,
    /// Recovery cannot succeed: the run must end with a structured
    /// `RecoveryFailure` — never a hang, panic, or silent wrong answer.
    Failure,
}

impl ScenarioExpectation {
    pub fn as_str(&self) -> &'static str {
        match self {
            ScenarioExpectation::Healthy => "healthy",
            ScenarioExpectation::Degraded => "degraded",
            ScenarioExpectation::Failure => "failure",
        }
    }

    fn parse(v: &str, line: usize) -> Result<Self, PlanParseError> {
        match v {
            "healthy" => Ok(ScenarioExpectation::Healthy),
            "degraded" => Ok(ScenarioExpectation::Degraded),
            "failure" => Ok(ScenarioExpectation::Failure),
            other => Err(PlanParseError {
                line,
                message: format!(
                    "expect must be healthy, degraded, or failure; got {other:?}"
                ),
            }),
        }
    }
}

/// The seed of the scenario at position `index` of a catalog seeded
/// `campaign_seed` (and of ensemble member `index` of a scenario): draw
/// `index` of the seed's splitmix64 stream — reproducible, decorrelated.
pub fn scenario_seed(campaign_seed: u64, index: usize) -> u64 {
    splitmix64_draw(campaign_seed, index as u64)
}

/// The component subset a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The coupled system (domain A + domain O, `run_coupled`).
    Full,
    /// Standalone ocean spin-up under climatological forcing.
    OceanOnly,
    /// Standalone aqua-planet atmosphere over a zonal SST.
    AtmOnly,
    /// Standalone thermodynamic sea ice under a seasonal cycle.
    IceOnly,
}

impl ModelKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            ModelKind::Full => "full",
            ModelKind::OceanOnly => "ocean-only",
            ModelKind::AtmOnly => "atm-only",
            ModelKind::IceOnly => "ice-only",
        }
    }

    fn parse(v: &str, line: usize) -> Result<Self, PlanParseError> {
        match v {
            "full" => Ok(ModelKind::Full),
            "ocean-only" => Ok(ModelKind::OceanOnly),
            "atm-only" => Ok(ModelKind::AtmOnly),
            "ice-only" => Ok(ModelKind::IceOnly),
            other => Err(PlanParseError {
                line,
                message: format!(
                    "model must be full, ocean-only, atm-only, or ice-only; got {other:?}"
                ),
            }),
        }
    }
}

/// A rung of the resolution ladder (Table 1 scaled to laptop size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridPreset {
    /// `CoupledConfig::test_tiny`: G3 atmosphere, 36×24×6 ocean.
    Tiny,
    /// `CoupledConfig::demo_small`: G4 atmosphere, 72×46×10 ocean.
    Small,
    /// One rung up: G5 atmosphere, 108×72×12 ocean.
    Medium,
}

impl GridPreset {
    pub fn as_str(&self) -> &'static str {
        match self {
            GridPreset::Tiny => "tiny",
            GridPreset::Small => "small",
            GridPreset::Medium => "medium",
        }
    }

    fn parse(v: &str, line: usize) -> Result<Self, PlanParseError> {
        match v {
            "tiny" => Ok(GridPreset::Tiny),
            "small" => Ok(GridPreset::Small),
            "medium" => Ok(GridPreset::Medium),
            other => Err(PlanParseError {
                line,
                message: format!("grid must be tiny, small, or medium; got {other:?}"),
            }),
        }
    }

    /// Default couplings-per-day (atm, ocn, ice) for this rung.
    pub fn default_couplings(&self) -> (i64, i64, i64) {
        match self {
            GridPreset::Tiny => (8, 4, 8),
            GridPreset::Small | GridPreset::Medium => (24, 12, 24),
        }
    }

    /// Default ocean process mesh for the coupled layout.
    pub fn default_mesh(&self) -> (usize, usize) {
        (2, 2)
    }
}

/// §5.1.2 task-level layout of the coupled system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Two concurrent task domains (production layout).
    Concurrent,
    /// All components sequential on one rank (ablation layout).
    Sequential,
}

impl Layout {
    pub fn as_str(&self) -> &'static str {
        match self {
            Layout::Concurrent => "concurrent",
            Layout::Sequential => "sequential",
        }
    }

    fn parse(v: &str, line: usize) -> Result<Self, PlanParseError> {
        match v {
            "concurrent" => Ok(Layout::Concurrent),
            "sequential" => Ok(Layout::Sequential),
            other => Err(PlanParseError {
                line,
                message: format!("layout must be concurrent or sequential; got {other:?}"),
            }),
        }
    }
}

/// A vortex seeded into the initial atmosphere, in catalog units (degrees
/// and km; [`VortexSpec`](ap3esm_atm::vortex::VortexSpec) wants radians
/// and metres — see [`Self::to_spec`]).
#[derive(Debug, Clone, PartialEq)]
pub struct VortexDef {
    pub lat_deg: f64,
    pub lon_deg: f64,
    /// Maximum tangential wind (m/s).
    pub vmax: f64,
    /// Radius of maximum wind (km).
    pub rmw_km: f64,
    /// Central pressure deficit (Pa).
    pub dp: f64,
    /// Warm-core temperature anomaly (K).
    pub warm: f64,
}

impl VortexDef {
    pub fn to_spec(&self) -> ap3esm_atm::vortex::VortexSpec {
        ap3esm_atm::vortex::VortexSpec {
            lat: self.lat_deg.to_radians(),
            lon: self.lon_deg.to_radians(),
            vmax: self.vmax,
            rmw: self.rmw_km * 1000.0,
            dp: self.dp,
            warm_core: self.warm,
        }
    }
}

impl fmt::Display for VortexDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vortex lat={} lon={} vmax={} rmw_km={} dp={} warm={}",
            self.lat_deg, self.lon_deg, self.vmax, self.rmw_km, self.dp, self.warm
        )
    }
}

/// One resolved scenario of a [`Catalog`].
#[derive(Debug, Clone)]
pub struct Scenario {
    pub name: String,
    pub model: ModelKind,
    pub grid: GridPreset,
    /// Simulated days (whole couplings per cycle — checked at parse time).
    pub days: f64,
    /// Couplings per day (atm, ocn, ice).
    pub couplings: (i64, i64, i64),
    /// Explicit ocean process mesh; `None` = the grid rung's default for
    /// the coupled model, 1×1 for standalone subsets.
    pub mesh: Option<(usize, usize)>,
    /// Explicit task layout; `None` = concurrent.
    pub layout: Option<Layout>,
    /// Explicit rearrangement strategy; `None` = non-blocking p2p.
    pub strategy: Option<RearrangeStrategy>,
    /// Initial vortices (multi-vortex basin experiments).
    pub vortices: Vec<VortexDef>,
    /// ENSO-like SST anomaly amplitude (°C), if any.
    pub enso: Option<f64>,
    /// Seeded initial-θ perturbation amplitude (K), if any.
    pub perturb: Option<f64>,
    /// Ensemble members (seeds derived per member).
    pub members: usize,
    /// Restart-cycled reforecast segments.
    pub cycles: usize,
    pub expect: ScenarioExpectation,
    /// Scenario seed (explicit, or derived from the catalog seed).
    pub seed: u64,
    /// Fault plan assembled from the scenario's fault verbs (empty for
    /// fault-free scenarios); `plan.seed` equals [`Self::seed`].
    pub plan: FaultPlan,
    /// 1-based header line in the catalog file (0 for built catalogs;
    /// excluded from equality like `FaultPlan::event_lines`).
    pub header_line: usize,
}

impl PartialEq for Scenario {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.model == other.model
            && self.grid == other.grid
            && self.days == other.days
            && self.couplings == other.couplings
            && self.mesh == other.mesh
            && self.layout == other.layout
            && self.strategy == other.strategy
            && self.vortices == other.vortices
            && self.enso == other.enso
            && self.perturb == other.perturb
            && self.members == other.members
            && self.cycles == other.cycles
            && self.expect == other.expect
            && self.seed == other.seed
            && self.plan == other.plan
    }
}

impl Scenario {
    /// The seed of ensemble member `m`: the scenario seed itself for a
    /// single-member scenario, otherwise derived with the
    /// [`scenario_seed`] mix so members are decorrelated but reproducible
    /// in isolation.
    pub fn member_seed(&self, member: usize) -> u64 {
        if self.members == 1 {
            self.seed
        } else {
            scenario_seed(self.seed, member)
        }
    }
}

/// A parsed scenario catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    /// Catalog name (output file naming); `campaign` when unset.
    pub name: String,
    /// Campaign seed scenario seeds derive from.
    pub seed: u64,
    pub scenarios: Vec<Scenario>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog {
            name: "campaign".to_string(),
            seed: 0,
            scenarios: Vec::new(),
        }
    }
}

/// Fault verbs delegated to [`FaultPlan::parse`].
const FAULT_VERBS: &[&str] = &["drop", "delay", "dup", "kill", "die", "corrupt"];

/// Scenario-body keys that may also appear before the first scenario as
/// catalog-level defaults.
const DEFAULTABLE: &[&str] = &[
    "model",
    "grid",
    "days",
    "couplings",
    "mesh",
    "layout",
    "strategy",
];

fn parse_kv(tok: &str, line: usize) -> Result<(&str, &str), PlanParseError> {
    tok.split_once('=').ok_or_else(|| PlanParseError {
        line,
        message: format!("expected key=value, got {tok:?}"),
    })
}

fn parse_f64(key: &str, v: &str, line: usize) -> Result<f64, PlanParseError> {
    let x: f64 = v.parse().map_err(|_| PlanParseError {
        line,
        message: format!("{key} wants a number, got {v:?}"),
    })?;
    if !x.is_finite() {
        return Err(PlanParseError {
            line,
            message: format!("{key} must be finite, got {v:?}"),
        });
    }
    Ok(x)
}

fn parse_u64(key: &str, v: &str, line: usize) -> Result<u64, PlanParseError> {
    v.parse().map_err(|_| PlanParseError {
        line,
        message: format!("{key} wants a non-negative integer, got {v:?}"),
    })
}

/// The `amp=<unit>` value of an `enso` / `perturb` line.
fn parse_amp(verb: &str, unit: &str, rest: &[&str], line: usize) -> Result<f64, PlanParseError> {
    let mut amp = None;
    for tok in rest {
        let (k, v) = parse_kv(tok, line)?;
        match k {
            "amp" => amp = Some(parse_f64("amp", v, line)?),
            _ => {
                return Err(PlanParseError {
                    line,
                    message: format!("unknown key {k:?} for {verb}"),
                })
            }
        }
    }
    amp.ok_or_else(|| PlanParseError {
        line,
        message: format!("{verb} needs amp=<{unit}>"),
    })
}

/// The `atm= ocn= ice=` triple of a `couplings` line.
fn parse_couplings(rest: &[&str], lineno: usize) -> Result<(i64, i64, i64), PlanParseError> {
    let (mut atm, mut ocn, mut ice) = (None, None, None);
    for tok in rest {
        let (k, v) = parse_kv(tok, lineno)?;
        let n = parse_u64(k, v, lineno)? as i64;
        match k {
            "atm" => atm = Some(n),
            "ocn" => ocn = Some(n),
            "ice" => ice = Some(n),
            _ => {
                return Err(PlanParseError {
                    line: lineno,
                    message: format!("unknown key {k:?} for couplings"),
                })
            }
        }
    }
    match (atm, ocn, ice) {
        (Some(a), Some(o), Some(i)) => Ok((a, o, i)),
        _ => Err(PlanParseError {
            line: lineno,
            message: "couplings needs atm=, ocn= and ice=".into(),
        }),
    }
}

/// One occurrence of a once-only key: the value plus the line that set it
/// (for duplicate diagnostics citing both lines).
#[derive(Debug, Clone)]
struct Once<T: Clone> {
    v: Option<(T, usize)>,
}

// Manual impl: the derive would demand `T: Default`, which
// `RearrangeStrategy` deliberately lacks.
impl<T: Clone> Default for Once<T> {
    fn default() -> Self {
        Once { v: None }
    }
}

impl<T: Clone> Once<T> {
    fn set(&mut self, key: &str, value: T, line: usize) -> Result<(), PlanParseError> {
        if let Some((_, first)) = &self.v {
            return Err(PlanParseError {
                line,
                message: format!("duplicate key {key:?} (first set at line {first})"),
            });
        }
        self.v = Some((value, line));
        Ok(())
    }

    fn get(&self) -> Option<T> {
        self.v.as_ref().map(|(v, _)| v.clone())
    }
}

/// Accumulated body keys of one scenario (or the catalog-level defaults).
#[derive(Debug, Clone, Default)]
struct RawSpec {
    model: Once<ModelKind>,
    grid: Once<GridPreset>,
    days: Once<f64>,
    couplings: Once<(i64, i64, i64)>,
    mesh: Once<(usize, usize)>,
    layout: Once<Layout>,
    strategy: Once<RearrangeStrategy>,
    members: Once<usize>,
    cycles: Once<usize>,
    seed: Once<u64>,
    enso: Once<f64>,
    perturb: Once<f64>,
    vortices: Vec<(VortexDef, usize)>,
    /// 0-based indices of this scenario's fault-verb lines.
    fault_lines: Vec<usize>,
}

impl RawSpec {
    /// Dispatch one body line. `defaults_only` restricts to the keys legal
    /// before the first scenario header.
    fn take_line(
        &mut self,
        verb: &str,
        rest: &[&str],
        lineno: usize,
        defaults_only: bool,
    ) -> Result<(), PlanParseError> {
        if defaults_only && !DEFAULTABLE.contains(&verb) {
            return Err(PlanParseError {
                line: lineno,
                message: format!(
                    "{verb:?} is not valid before the first scenario header (only \
                     name, seed, {} may)",
                    DEFAULTABLE.join(", ")
                ),
            });
        }
        let one = |rest: &[&str]| -> Result<String, PlanParseError> {
            match rest {
                [v] => Ok(v.to_string()),
                _ => Err(PlanParseError {
                    line: lineno,
                    message: format!("{verb} wants exactly one value"),
                }),
            }
        };
        match verb {
            "model" => {
                let v = ModelKind::parse(&one(rest)?, lineno)?;
                self.model.set(verb, v, lineno)
            }
            "grid" => {
                let v = GridPreset::parse(&one(rest)?, lineno)?;
                self.grid.set(verb, v, lineno)
            }
            "days" => {
                let d = parse_f64(verb, &one(rest)?, lineno)?;
                if d <= 0.0 || d > 365.0 {
                    return Err(PlanParseError {
                        line: lineno,
                        message: format!("days must be in (0, 365], got {d}"),
                    });
                }
                self.days.set(verb, d, lineno)
            }
            "couplings" => {
                let v = parse_couplings(rest, lineno)?;
                self.couplings.set(verb, v, lineno)
            }
            "mesh" => {
                let v = one(rest)?;
                let (px, py) = v.split_once('x').ok_or_else(|| PlanParseError {
                    line: lineno,
                    message: format!("mesh wants PXxPY (e.g. 2x2), got {v:?}"),
                })?;
                let px = parse_u64("mesh px", px, lineno)? as usize;
                let py = parse_u64("mesh py", py, lineno)? as usize;
                if px == 0 || py == 0 || px > 4096 || py > 4096 {
                    return Err(PlanParseError {
                        line: lineno,
                        message: format!("mesh must be 1x1..=4096x4096, got {px}x{py}"),
                    });
                }
                self.mesh.set(verb, (px, py), lineno)
            }
            "layout" => {
                let v = Layout::parse(&one(rest)?, lineno)?;
                self.layout.set(verb, v, lineno)
            }
            "strategy" => {
                let v = match one(rest)?.as_str() {
                    "alltoall" => RearrangeStrategy::AllToAll,
                    "p2p" => RearrangeStrategy::NonBlockingP2p,
                    other => {
                        return Err(PlanParseError {
                            line: lineno,
                            message: format!("strategy must be alltoall or p2p; got {other:?}"),
                        })
                    }
                };
                self.strategy.set(verb, v, lineno)
            }
            "members" => {
                let n = parse_u64(verb, &one(rest)?, lineno)? as usize;
                if !(1..=64).contains(&n) {
                    return Err(PlanParseError {
                        line: lineno,
                        message: format!("members must be 1..=64, got {n}"),
                    });
                }
                self.members.set(verb, n, lineno)
            }
            "cycles" => {
                let n = parse_u64(verb, &one(rest)?, lineno)? as usize;
                if !(1..=32).contains(&n) {
                    return Err(PlanParseError {
                        line: lineno,
                        message: format!("cycles must be 1..=32, got {n}"),
                    });
                }
                self.cycles.set(verb, n, lineno)
            }
            "seed" => {
                let n = parse_u64(verb, &one(rest)?, lineno)?;
                self.seed.set(verb, n, lineno)
            }
            "enso" => {
                let amp = parse_amp(verb, "°C", rest, lineno)?;
                if amp == 0.0 || amp.abs() > 10.0 {
                    return Err(PlanParseError {
                        line: lineno,
                        message: format!("enso amp must be nonzero and |amp| <= 10 °C, got {amp}"),
                    });
                }
                self.enso.set(verb, amp, lineno)
            }
            "perturb" => {
                let amp = parse_amp(verb, "K", rest, lineno)?;
                if !(amp > 0.0 && amp <= 5.0) {
                    return Err(PlanParseError {
                        line: lineno,
                        message: format!("perturb amp must be in (0, 5] K, got {amp}"),
                    });
                }
                self.perturb.set(verb, amp, lineno)
            }
            "vortex" => self.take_vortex(rest, lineno),
            other => Err(PlanParseError {
                line: lineno,
                message: format!("unknown key {other:?} in scenario body"),
            }),
        }
    }

    /// One `vortex` line: parse, range-check, reject an exact repeat.
    fn take_vortex(&mut self, rest: &[&str], lineno: usize) -> Result<(), PlanParseError> {
        let mut v = VortexDef {
            lat_deg: f64::NAN,
            lon_deg: f64::NAN,
            vmax: 35.0,
            rmw_km: 80.0,
            dp: 3500.0,
            warm: 3.0,
        };
        for tok in rest {
            let (k, val) = parse_kv(tok, lineno)?;
            let x = parse_f64(k, val, lineno)?;
            match k {
                "lat" => v.lat_deg = x,
                "lon" => v.lon_deg = x,
                "vmax" => v.vmax = x,
                "rmw_km" => v.rmw_km = x,
                "dp" => v.dp = x,
                "warm" => v.warm = x,
                _ => {
                    return Err(PlanParseError {
                        line: lineno,
                        message: format!("unknown key {k:?} for vortex"),
                    })
                }
            }
        }
        if v.lat_deg.is_nan() || v.lon_deg.is_nan() {
            return Err(PlanParseError {
                line: lineno,
                message: "vortex needs lat=<deg> and lon=<deg>".into(),
            });
        }
        if v.lat_deg.abs() > 90.0 || v.vmax <= 0.0 || v.rmw_km <= 0.0 || v.dp < 0.0 {
            return Err(PlanParseError {
                line: lineno,
                message: "vortex wants |lat| <= 90, vmax > 0, rmw_km > 0, dp >= 0".into(),
            });
        }
        if let Some((dup, first)) = self
            .vortices
            .iter()
            .find(|(w, _)| *w == v)
            .map(|(w, l)| (w.clone(), *l))
        {
            return Err(PlanParseError {
                line: lineno,
                message: format!(
                    "duplicate vortex {:?} (first seeded at line {first})",
                    dup.to_string()
                ),
            });
        }
        self.vortices.push((v, lineno));
        Ok(())
    }
}

/// Parse-time scaffolding: a scenario plus which of its keys were left
/// unset, so catalog-level defaults (which may appear anywhere before the
/// first header) can fill them after the whole file is read.
struct PendingScenario {
    scenario: Scenario,
    model_unset: bool,
    grid_unset: bool,
    days_unset: bool,
    couplings_unset: bool,
}

impl Catalog {
    /// Parse the catalog text format (see the module docs). Errors carry
    /// 1-based line numbers of this text.
    pub fn parse(text: &str) -> Result<Catalog, PlanParseError> {
        let all: Vec<&str> = text.lines().collect();
        let mut catalog = Catalog::default();
        let mut pending: Vec<PendingScenario> = Vec::new();
        let mut defaults = RawSpec::default();
        let mut name_line: Option<usize> = None;
        let mut seed_line: Option<usize> = None;
        // (name, expect, header 1-based line, accumulated body)
        let mut open: Option<(String, Option<ScenarioExpectation>, usize, RawSpec)> = None;

        for (i, raw) in all.iter().enumerate() {
            let lineno = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            let (verb, rest) = (toks[0], &toks[1..]);

            if verb == "scenario" {
                if let Some((name, expect, header, spec)) = open.take() {
                    finish_scenario(&mut pending, catalog.seed, &all, name, expect, header, spec)?;
                }
                let name = rest
                    .first()
                    .ok_or_else(|| PlanParseError {
                        line: lineno,
                        message: "scenario needs a name".into(),
                    })?
                    .to_string();
                let mut expect = None;
                for tok in &rest[1..] {
                    let (k, v) = parse_kv(tok, lineno)?;
                    match k {
                        "expect" => {
                            expect = Some(ScenarioExpectation::parse(v, lineno)?);
                        }
                        _ => {
                            return Err(PlanParseError {
                                line: lineno,
                                message: format!("unknown key {k:?} for scenario"),
                            })
                        }
                    }
                }
                open = Some((name, expect, lineno, RawSpec::default()));
                continue;
            }

            match &mut open {
                Some((_, _, _, spec)) => {
                    if FAULT_VERBS.contains(&verb) {
                        spec.fault_lines.push(i);
                    } else {
                        spec.take_line(verb, rest, lineno, false)?;
                    }
                }
                None => match verb {
                    "name" => {
                        if let Some(first) = name_line {
                            return Err(PlanParseError {
                                line: lineno,
                                message: format!(
                                    "duplicate key \"name\" (first set at line {first})"
                                ),
                            });
                        }
                        match rest {
                            [v] => catalog.name = v.to_string(),
                            _ => {
                                return Err(PlanParseError {
                                    line: lineno,
                                    message: "name wants exactly one value".into(),
                                })
                            }
                        }
                        name_line = Some(lineno);
                    }
                    "seed" => {
                        if let Some(first) = seed_line {
                            return Err(PlanParseError {
                                line: lineno,
                                message: format!(
                                    "duplicate key \"seed\" (first set at line {first})"
                                ),
                            });
                        }
                        match rest {
                            [v] => catalog.seed = parse_u64("seed", v, lineno)?,
                            _ => {
                                return Err(PlanParseError {
                                    line: lineno,
                                    message: "seed wants exactly one value".into(),
                                })
                            }
                        }
                        seed_line = Some(lineno);
                    }
                    _ => defaults.take_line(verb, rest, lineno, true)?,
                },
            }
        }
        if let Some((name, expect, header, spec)) = open.take() {
            finish_scenario(&mut pending, catalog.seed, &all, name, expect, header, spec)?;
        }

        // Apply catalog-level defaults to scenarios that left the key
        // unset (finish_scenario resolved per-scenario keys only).
        for p in &mut pending {
            if let (true, Some(m)) = (p.model_unset, defaults.model.get()) {
                p.scenario.model = m;
            }
            if let (true, Some(g)) = (p.grid_unset, defaults.grid.get()) {
                p.scenario.grid = g;
            }
            if let (true, Some(d)) = (p.days_unset, defaults.days.get()) {
                p.scenario.days = d;
            }
            if p.couplings_unset {
                p.scenario.couplings = defaults
                    .couplings
                    .get()
                    .unwrap_or_else(|| p.scenario.grid.default_couplings());
            }
            // Coupled-layout defaults stay off standalone subsets (which
            // Catalog::validate rejects explicit values for).
            if p.scenario.model == ModelKind::Full {
                if p.scenario.mesh.is_none() {
                    p.scenario.mesh = defaults.mesh.get();
                }
                if p.scenario.layout.is_none() {
                    p.scenario.layout = defaults.layout.get();
                }
                if p.scenario.strategy.is_none() {
                    p.scenario.strategy = defaults.strategy.get();
                }
            }
        }
        catalog.scenarios = pending.into_iter().map(|p| p.scenario).collect();
        // Alignment checks need the fully resolved cadence.
        for sc in &catalog.scenarios {
            check_alignment(sc)?;
        }
        Ok(catalog)
    }
}

#[allow(clippy::too_many_arguments)]
fn finish_scenario(
    pending: &mut Vec<PendingScenario>,
    catalog_seed: u64,
    all: &[&str],
    name: String,
    expect: Option<ScenarioExpectation>,
    header: usize,
    spec: RawSpec,
) -> Result<(), PlanParseError> {
    if pending.iter().any(|p| p.scenario.name == name) {
        return Err(PlanParseError {
            line: header,
            message: format!("duplicate scenario name {name:?}"),
        });
    }
    // Blank-pad the non-fault lines so FaultPlan::parse reports
    // catalog-file line numbers.
    let mut fault_text = String::new();
    for (i, raw) in all.iter().enumerate() {
        if spec.fault_lines.contains(&i) {
            fault_text.push_str(raw);
        }
        fault_text.push('\n');
    }
    let mut plan = FaultPlan::parse(&fault_text)?;

    let explicit_seed = spec.seed.get().filter(|&s| s != 0);
    let seed = explicit_seed.unwrap_or_else(|| scenario_seed(catalog_seed, pending.len()));
    plan.seed = seed;

    let grid = spec.grid.get().unwrap_or(GridPreset::Tiny);
    let scenario = Scenario {
        name,
        model: spec.model.get().unwrap_or(ModelKind::Full),
        grid,
        days: spec.days.get().unwrap_or(1.0),
        couplings: spec
            .couplings
            .get()
            .unwrap_or_else(|| grid.default_couplings()),
        mesh: spec.mesh.get(),
        layout: spec.layout.get(),
        strategy: spec.strategy.get(),
        vortices: spec.vortices.iter().map(|(v, _)| v.clone()).collect(),
        enso: spec.enso.get(),
        perturb: spec.perturb.get(),
        members: spec.members.get().unwrap_or(1),
        cycles: spec.cycles.get().unwrap_or(1),
        expect: expect.unwrap_or(ScenarioExpectation::Healthy),
        seed,
        plan,
        header_line: header,
    };
    pending.push(PendingScenario {
        model_unset: spec.model.get().is_none(),
        grid_unset: spec.grid.get().is_none(),
        days_unset: spec.days.get().is_none(),
        couplings_unset: spec.couplings.get().is_none(),
        scenario,
    });
    Ok(())
}

/// Whole-coupling alignment: every restart cycle must end exactly on a
/// coupling of every component, or the cycled resume would drift off the
/// clock (checkpoint ids are ocean-coupling indices).
fn check_alignment(sc: &Scenario) -> Result<(), PlanParseError> {
    let (a, o, i) = sc.couplings;
    for (label, cpd) in [("atm", a), ("ocn", o), ("ice", i)] {
        if cpd <= 0 {
            continue; // named by CoupledConfig::validate in Catalog::validate
        }
        let per_cycle = sc.days * cpd as f64 / sc.cycles as f64;
        if per_cycle < 1.0 - 1e-9 || (per_cycle - per_cycle.round()).abs() > 1e-9 {
            return Err(PlanParseError {
                line: sc.header_line,
                message: format!(
                    "scenario {:?}: days={} x couplings {label}={cpd} over cycles={} \
                     gives {per_cycle} {label} couplings per cycle; every cycle must \
                     hold a whole, nonzero number of couplings",
                    sc.name, sc.days, sc.cycles
                ),
            });
        }
    }
    Ok(())
}

impl fmt::Display for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "name {}", self.name)?;
        writeln!(f, "seed {}", self.seed)?;
        for sc in &self.scenarios {
            writeln!(f)?;
            writeln!(f, "scenario {} expect={}", sc.name, sc.expect.as_str())?;
            writeln!(f, "model {}", sc.model.as_str())?;
            writeln!(f, "grid {}", sc.grid.as_str())?;
            writeln!(f, "days {}", sc.days)?;
            let (a, o, i) = sc.couplings;
            writeln!(f, "couplings atm={a} ocn={o} ice={i}")?;
            if let Some((px, py)) = sc.mesh {
                writeln!(f, "mesh {px}x{py}")?;
            }
            if let Some(l) = sc.layout {
                writeln!(f, "layout {}", l.as_str())?;
            }
            if let Some(s) = sc.strategy {
                let s = match s {
                    RearrangeStrategy::AllToAll => "alltoall",
                    RearrangeStrategy::NonBlockingP2p => "p2p",
                };
                writeln!(f, "strategy {s}")?;
            }
            writeln!(f, "members {}", sc.members)?;
            writeln!(f, "cycles {}", sc.cycles)?;
            writeln!(f, "seed {}", sc.seed)?;
            for v in &sc.vortices {
                writeln!(f, "{v}")?;
            }
            if let Some(amp) = sc.enso {
                writeln!(f, "enso amp={amp}")?;
            }
            if let Some(amp) = sc.perturb {
                writeln!(f, "perturb amp={amp}")?;
            }
            // Fault events via the plan's own canonical form, minus its
            // seed line (the scenario seed above covers it).
            for line in sc.plan.to_string().lines().skip(1) {
                writeln!(f, "{line}")?;
            }
        }
        Ok(())
    }
}
