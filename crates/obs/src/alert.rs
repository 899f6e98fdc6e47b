//! Declarative SLO / anomaly rules over sampled time series.
//!
//! An [`AlertEngine`] holds a set of [`Rule`]s and observes every point the
//! [`Sampler`](crate::Sampler) stores, as it stores it (or offline, a saved
//! snapshot's raw tier — see [`replay`]). Each rule watches one series, so
//! its `over N` and `for M` count that series' samples — one per ocean
//! coupling in the coupled driver — and breaches on one of three
//! conditions:
//!
//! * **threshold** — `above X` / `below X`: the sampled value crosses a
//!   fixed bound (serve p95 budget, shed-rate SLO);
//! * **rolling-mean deviation** — `deviates_below F over N` /
//!   `deviates_above F over N`: the value drops below (rises above)
//!   `F ×` the rolling mean of up to the last `N` points (SYPD collapse,
//!   imbalance drift). Needs at least `max(2, N/2)` points of history
//!   before it arms, so run startup does not self-trigger;
//! * **rate of change** — `roc_above X` / `roc_below X`: the per-second
//!   derivative between consecutive samples crosses `X` (climbing
//!   `resilience.guard_degraded` counters).
//!
//! A rule fires only after `for M` *consecutive* breaching samples
//! (default 1) — one noisy sample never pages — and it re-arms once a sample
//! passes again, so each sustained episode emits exactly one
//! [`AlertEvent`]. Firing emits to three places at once: stderr
//! (`[alert] ...`), the rank's event log as an `alert.<rule>` journal entry
//! (an instant in the chrome trace), and the engine's own bounded list of
//! firings, which the coupled driver copies into the run report
//! (`"alerts"` array).
//!
//! ## Rule grammar
//!
//! One rule per line, `#` comments and blank lines ignored:
//!
//! ```text
//! <name>: <series> above|below <value> [for <M>]
//! <name>: <series> deviates_below|deviates_above <frac> over <N> [for <M>]
//! <name>: <series> roc_above|roc_below <per_second> [for <M>]
//! ```
//!
//! e.g. the built-in simulation rules ([`sim_rules`]):
//!
//! ```text
//! sypd-collapse: sim.sypd deviates_below 0.5 over 8 for 2
//! imbalance-drift: sim.imbalance deviates_above 1.4 over 16 for 3
//! degraded-streak: resilience.guard_degraded.rate above 0 for 3
//! ```

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::tsdb::SeriesSnapshot;
use crate::Obs;

/// Maximum events kept in the engine log (oldest dropped beyond this).
pub const MAX_EVENTS: usize = 256;

/// Breach condition of a [`Rule`].
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// Value strictly above the bound.
    Above(f64),
    /// Value strictly below the bound.
    Below(f64),
    /// Value below `frac ×` rolling mean of up to the last `window` points.
    DeviatesBelow { window: usize, frac: f64 },
    /// Value above `frac ×` rolling mean of up to the last `window` points.
    DeviatesAbove { window: usize, frac: f64 },
    /// Per-second derivative strictly above the bound.
    RocAbove(f64),
    /// Per-second derivative strictly below the bound.
    RocBelow(f64),
}

/// One declarative SLO/anomaly rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    /// Series watched (e.g. `sim.sypd`, `serve.latency_us.p95`).
    pub series: String,
    pub kind: RuleKind,
    /// Consecutive breaching samples required before firing (≥ 1).
    pub for_n: usize,
}

impl Rule {
    /// Render back into the one-line grammar (inverse of [`parse_rule`]).
    pub fn to_line(&self) -> String {
        let body = match &self.kind {
            RuleKind::Above(x) => format!("above {x}"),
            RuleKind::Below(x) => format!("below {x}"),
            RuleKind::DeviatesBelow { window, frac } => {
                format!("deviates_below {frac} over {window}")
            }
            RuleKind::DeviatesAbove { window, frac } => {
                format!("deviates_above {frac} over {window}")
            }
            RuleKind::RocAbove(x) => format!("roc_above {x}"),
            RuleKind::RocBelow(x) => format!("roc_below {x}"),
        };
        format!("{}: {} {} for {}", self.name, self.series, body, self.for_n)
    }
}

/// Parse one rule line; see the module docs for the grammar.
pub fn parse_rule(line: &str) -> Result<Rule, String> {
    let err = |msg: &str| format!("rule {line:?}: {msg}");
    let (name, rest) = line
        .split_once(':')
        .ok_or_else(|| err("missing `name:` prefix"))?;
    let name = name.trim();
    if name.is_empty() {
        return Err(err("empty rule name"));
    }
    let tok: Vec<&str> = rest.split_whitespace().collect();
    let mut pos = 0usize;
    fn take<'a>(tok: &[&'a str], pos: &mut usize) -> Option<&'a str> {
        let t = tok.get(*pos).copied();
        *pos += t.is_some() as usize;
        t
    }
    fn num(t: Option<&str>, what: &str, err: impl Fn(&str) -> String) -> Result<f64, String> {
        t.ok_or_else(|| err(&format!("missing {what}")))?
            .parse::<f64>()
            .map_err(|_| err(&format!("bad {what}")))
    }
    let series = take(&tok, &mut pos).ok_or_else(|| err("missing series"))?.to_string();
    let op = take(&tok, &mut pos).ok_or_else(|| err("missing operator"))?;
    let kind = match op {
        "above" => RuleKind::Above(num(take(&tok, &mut pos), "threshold", err)?),
        "below" => RuleKind::Below(num(take(&tok, &mut pos), "threshold", err)?),
        "roc_above" => RuleKind::RocAbove(num(take(&tok, &mut pos), "rate bound", err)?),
        "roc_below" => RuleKind::RocBelow(num(take(&tok, &mut pos), "rate bound", err)?),
        "deviates_below" | "deviates_above" => {
            let frac = num(take(&tok, &mut pos), "fraction", err)?;
            if frac.is_nan() || frac <= 0.0 {
                return Err(err("fraction must be > 0"));
            }
            match take(&tok, &mut pos) {
                Some("over") => {}
                _ => return Err(err("deviation rules need `over <window>`")),
            }
            let window = num(take(&tok, &mut pos), "window", err)? as usize;
            if window < 2 {
                return Err(err("window must be >= 2"));
            }
            if op == "deviates_below" {
                RuleKind::DeviatesBelow { window, frac }
            } else {
                RuleKind::DeviatesAbove { window, frac }
            }
        }
        other => return Err(err(&format!("unknown operator {other:?}"))),
    };
    let for_n = match take(&tok, &mut pos) {
        None => 1,
        Some("for") => {
            let n = num(take(&tok, &mut pos), "streak length", err)? as usize;
            if n == 0 {
                return Err(err("`for` streak must be >= 1"));
            }
            n
        }
        Some(other) => return Err(err(&format!("unexpected token {other:?}"))),
    };
    if let Some(extra) = take(&tok, &mut pos) {
        return Err(err(&format!("unexpected trailing token {extra:?}")));
    }
    Ok(Rule {
        name: name.to_string(),
        series,
        kind,
        for_n,
    })
}

/// Parse a whole rules document (one rule per line, `#` comments).
pub fn parse_rules(text: &str) -> Result<Vec<Rule>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(parse_rule)
        .collect()
}

/// Built-in simulation SLO rules (SYPD collapse, imbalance drift,
/// health-guard Degraded streak, degraded-mode entry after permanent rank
/// loss — `sim.degraded_ranks` goes positive the moment the world shrinks,
/// so one sample is enough to page on).
pub fn sim_rules() -> Vec<Rule> {
    parse_rules(
        "sypd-collapse: sim.sypd deviates_below 0.5 over 8 for 2\n\
         imbalance-drift: sim.imbalance deviates_above 1.4 over 16 for 3\n\
         degraded-streak: resilience.guard_degraded.rate above 0 for 3\n\
         degraded-mode: sim.degraded_ranks above 0 for 1\n",
    )
    .expect("built-in sim rules")
}

/// Built-in serving SLO rules for a p95 latency budget (µs) and a shed-rate
/// ceiling (fraction of submissions).
pub fn serve_rules(p95_budget_us: f64, shed_rate_max: f64) -> Vec<Rule> {
    parse_rules(&format!(
        "serve-p95: serve.latency_us.p95 above {p95_budget_us} for 2\n\
         serve-shed: serve.shed_rate above {shed_rate_max} for 2\n",
    ))
    .expect("built-in serve rules")
}

/// One firing of a rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    pub rule: String,
    pub series: String,
    /// Store-relative time of the breaching sample that completed the streak.
    pub t_s: f64,
    /// The breaching sample's value.
    pub value: f64,
    pub message: String,
}

/// Per-rule evaluation summary (for the end-of-run SLO table).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleStatus {
    pub rule: String,
    pub series: String,
    /// Completed firings (sustained breach episodes).
    pub fired: u64,
    /// Still in breach at the last evaluated sample.
    pub firing: bool,
    /// Samples evaluated so far.
    pub evaluated: u64,
}

#[derive(Default)]
struct RuleState {
    /// Recent values, newest last (bounded by the deviation window, or 1
    /// for rate-of-change rules).
    history: VecDeque<(f64, f64)>,
    streak: usize,
    firing: bool,
    fired: u64,
    evaluated: u64,
}

/// Evaluates a rule set point by point; safe to share between the sampling
/// thread and scrape/report readers.
pub struct AlertEngine {
    rules: Vec<Rule>,
    states: Vec<Mutex<RuleState>>,
    events: Mutex<VecDeque<AlertEvent>>,
    /// Echo firings to stderr (off in replay/unit tests).
    stderr: bool,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl AlertEngine {
    pub fn new(rules: Vec<Rule>) -> AlertEngine {
        let states = rules.iter().map(|_| Mutex::default()).collect();
        AlertEngine {
            rules,
            states,
            events: Mutex::new(VecDeque::new()),
            stderr: true,
        }
    }

    /// Disable the stderr echo (used by offline replay and tests).
    pub fn quiet(mut self) -> AlertEngine {
        self.stderr = false;
        self
    }

    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Advance every rule watching `series` by one point. Firings are
    /// journaled in `obs`'s event log as `alert.<rule>` and bump the
    /// `alert.fired` counter when `obs` is given.
    pub fn observe(&self, series: &str, t: f64, v: f64, obs: Option<&Obs>) {
        for (rule, state) in self.rules.iter().zip(&self.states) {
            if rule.series == series {
                if let Some(event) = step_rule(rule, &mut lock(state), t, v) {
                    self.emit(event, obs);
                }
            }
        }
    }

    fn emit(&self, event: AlertEvent, obs: Option<&Obs>) {
        if self.stderr {
            eprintln!("[alert] {}", event.message);
        }
        if let Some(obs) = obs {
            let name = format!("alert.{}", event.rule);
            obs.profiler.mark(crate::event::Kind::Alert, &name, 0, 0);
            obs.metrics.counter("alert.fired").add(1);
        }
        let mut events = lock(&self.events);
        if events.len() >= MAX_EVENTS {
            events.pop_front();
        }
        events.push_back(event);
    }

    /// All events emitted so far, oldest first.
    pub fn events(&self) -> Vec<AlertEvent> {
        lock(&self.events).iter().cloned().collect()
    }

    /// Per-rule met/violated summary.
    pub fn status(&self) -> Vec<RuleStatus> {
        self.rules
            .iter()
            .zip(&self.states)
            .map(|(rule, state)| {
                let st = lock(state);
                RuleStatus {
                    rule: rule.name.clone(),
                    series: rule.series.clone(),
                    fired: st.fired,
                    firing: st.firing,
                    evaluated: st.evaluated,
                }
            })
            .collect()
    }
}

/// Advance one rule by one sample; returns the event when the streak
/// completes (exactly once per sustained episode).
fn step_rule(rule: &Rule, st: &mut RuleState, t: f64, v: f64) -> Option<AlertEvent> {
    st.evaluated += 1;
    let breach = match &rule.kind {
        RuleKind::Above(x) => Some(v > *x),
        RuleKind::Below(x) => Some(v < *x),
        RuleKind::DeviatesBelow { window, frac } | RuleKind::DeviatesAbove { window, frac } => {
            // Arm only once enough history exists; baseline excludes the
            // sample under test so a slow collapse cannot drag its own mean.
            let armed = st.history.len() >= (window / 2).max(2);
            let verdict = if armed {
                let mean = st.history.iter().map(|&(_, hv)| hv).sum::<f64>()
                    / st.history.len() as f64;
                match rule.kind {
                    RuleKind::DeviatesBelow { .. } => Some(v < mean * frac),
                    _ => Some(v > mean * frac),
                }
            } else {
                None
            };
            // Breaching samples are kept out of the baseline so a sustained
            // incident keeps breaching instead of becoming the new normal.
            if verdict != Some(true) {
                st.history.push_back((t, v));
                while st.history.len() > *window {
                    st.history.pop_front();
                }
            }
            verdict
        }
        RuleKind::RocAbove(x) | RuleKind::RocBelow(x) => {
            let verdict = st.history.back().and_then(|&(t0, v0)| {
                (t > t0).then(|| {
                    let roc = (v - v0) / (t - t0);
                    match rule.kind {
                        RuleKind::RocAbove(_) => roc > *x,
                        _ => roc < *x,
                    }
                })
            });
            st.history.clear();
            st.history.push_back((t, v));
            verdict
        }
    };
    match breach {
        Some(true) => {
            st.streak += 1;
            if st.streak >= rule.for_n && !st.firing {
                st.firing = true;
                st.fired += 1;
                return Some(AlertEvent {
                    rule: rule.name.clone(),
                    series: rule.series.clone(),
                    t_s: t,
                    value: v,
                    message: format!(
                        "{}: {} breached ({}) at t={:.1}s value={:.6}",
                        rule.name,
                        rule.series,
                        rule.to_line(),
                        t,
                        v
                    ),
                });
            }
            None
        }
        Some(false) => {
            st.streak = 0;
            st.firing = false;
            None
        }
        None => None, // not armed yet
    }
}

/// Replay saved snapshots offline: every raw-tier point, in time order
/// across series as the sampler stored them, through a fresh engine's
/// [`AlertEngine::observe`]. Returns the engine so callers can read both
/// events and status.
pub fn replay(rules: Vec<Rule>, snapshots: &[SeriesSnapshot]) -> AlertEngine {
    let mut points: Vec<(f64, &str, f64)> = snapshots
        .iter()
        .flat_map(|s| s.tiers[0].iter().map(|b| (b.t_s, s.name.as_str(), b.sum)))
        .collect();
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    let engine = AlertEngine::new(rules).quiet();
    for (t, series, v) in points {
        engine.observe(series, t, v, None);
    }
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsdb::SeriesStore;

    fn run_rule(line: &str, points: &[(f64, f64)]) -> (AlertEngine, Vec<AlertEvent>) {
        let rule = parse_rule(line).unwrap();
        let series = rule.series.clone();
        let engine = AlertEngine::new(vec![rule]).quiet();
        for &(t, v) in points {
            engine.observe(&series, t, v, None);
        }
        let events = engine.events();
        (engine, events)
    }

    #[test]
    fn grammar_round_trips() {
        for line in [
            "sypd-collapse: sim.sypd deviates_below 0.5 over 8 for 2",
            "serve-p95: serve.latency_us.p95 above 2000000 for 2",
            "cold: ocean.temp below -1.8 for 1",
            "drift: sim.imbalance deviates_above 1.4 over 16 for 3",
            "climb: resilience.guard_degraded.rate roc_above 0 for 1",
        ] {
            let rule = parse_rule(line).unwrap();
            assert_eq!(parse_rule(&rule.to_line()).unwrap(), rule, "via {line}");
        }
        // Default streak is 1.
        assert_eq!(parse_rule("r: s above 3").unwrap().for_n, 1);
    }

    #[test]
    fn grammar_rejects_malformed_rules() {
        for bad in [
            "no-colon sim.sypd above 1",
            ": sim.sypd above 1",
            "r: sim.sypd",
            "r: sim.sypd sideways 1",
            "r: sim.sypd above",
            "r: sim.sypd above x",
            "r: sim.sypd deviates_below 0.5",
            "r: sim.sypd deviates_below 0.5 over 1",
            "r: sim.sypd deviates_below 0 over 8",
            "r: sim.sypd above 1 for 0",
            "r: sim.sypd above 1 for 2 extra",
        ] {
            assert!(parse_rule(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(
            parse_rules("# comment\n\nr: s above 1\n").unwrap().len(),
            1
        );
    }

    #[test]
    fn threshold_rule_fires_once_per_episode_and_rearms() {
        let points: Vec<(f64, f64)> = [1.0, 5.0, 5.0, 5.0, 1.0, 5.0, 5.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64, v))
            .collect();
        let (engine, events) = run_rule("hot: temp above 3 for 2", &points);
        // Two sustained episodes: samples 1-3 (fires at 2) and 5-6 (at 6).
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t_s, 2.0);
        assert_eq!(events[1].t_s, 6.0);
        let status = &engine.status()[0];
        assert_eq!(status.fired, 2);
        assert!(status.firing);
        assert_eq!(status.evaluated, 7);
    }

    #[test]
    fn short_blips_below_the_streak_do_not_fire() {
        let points: Vec<(f64, f64)> = [1.0, 5.0, 1.0, 5.0, 1.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64, v))
            .collect();
        let (_, events) = run_rule("hot: temp above 3 for 2", &points);
        assert!(events.is_empty());
    }

    #[test]
    fn deviation_rule_arms_after_history_and_catches_collapse() {
        // Healthy SYPD ~2.0 for 4 samples, then collapse to 0.5 for two —
        // the shape of the coupled-run slowdown-injection test.
        let mut points: Vec<(f64, f64)> = (0..4).map(|i| (i as f64, 2.0)).collect();
        points.push((4.0, 0.5));
        points.push((5.0, 0.5));
        points.extend((6..12).map(|i| (i as f64, 2.0)));
        let (engine, events) =
            run_rule("sypd-collapse: sim.sypd deviates_below 0.5 over 8 for 2", &points);
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].t_s, 5.0);
        assert_eq!(events[0].value, 0.5);
        // Recovered afterwards: no longer firing.
        assert!(!engine.status()[0].firing);
    }

    #[test]
    fn deviation_baseline_excludes_breaching_samples() {
        // A long incident must not become the new normal: stay at 2.0 for
        // 4 samples then 0.5 forever; every later sample still breaches, so
        // only one event (streak never resets).
        let mut points: Vec<(f64, f64)> = (0..4).map(|i| (i as f64, 2.0)).collect();
        points.extend((4..20).map(|i| (i as f64, 0.5)));
        let (engine, events) =
            run_rule("sypd-collapse: sim.sypd deviates_below 0.5 over 8 for 2", &points);
        assert_eq!(events.len(), 1);
        assert!(engine.status()[0].firing);
    }

    #[test]
    fn roc_rule_watches_the_derivative() {
        let points = [
            (0.0, 10.0),
            (1.0, 10.0),
            (2.0, 15.0), // +5/s
            (3.0, 21.0), // +6/s
            (4.0, 21.0),
        ];
        let (_, events) = run_rule("climb: degraded roc_above 4 for 2", &points);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].t_s, 3.0);
    }

    #[test]
    fn points_observed_one_at_a_time_match_replay_of_their_snapshot() {
        let rules = parse_rules(
            "hot: temp above 3 for 2\n\
             slow: sim.sypd deviates_below 0.5 over 4\n",
        )
        .unwrap();
        let live = AlertEngine::new(rules.clone()).quiet();
        let store = SeriesStore::new(64);
        for i in 0..10 {
            let t = i as f64;
            let sypd = if i == 6 { 0.1 } else { 2.0 };
            let temp = if i >= 4 { 9.0 } else { 0.0 };
            for (series, v) in [("sim.sypd", sypd), ("temp", temp)] {
                store.record_at(series, t, v);
                live.observe(series, t, v, None);
            }
        }
        let replayed = replay(rules, &store.snapshot());
        let fired: Vec<(String, f64)> =
            live.events().into_iter().map(|e| (e.rule, e.t_s)).collect();
        assert_eq!(fired, [("hot".to_string(), 5.0), ("slow".to_string(), 6.0)]);
        assert_eq!(replayed.events(), live.events());
        assert_eq!(replayed.status(), live.status());
    }

    #[test]
    fn replay_reproduces_live_alerts_from_a_snapshot() {
        let store = SeriesStore::new(1024);
        for i in 0..4 {
            store.record_at("sim.sypd", i as f64, 2.0);
        }
        store.record_at("sim.sypd", 4.0, 0.2);
        store.record_at("sim.sypd", 5.0, 0.2);
        let snaps = store.snapshot();
        let engine = replay(
            vec![parse_rule("sypd-collapse: sim.sypd deviates_below 0.5 over 8 for 2").unwrap()],
            &snaps,
        );
        let events = engine.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rule, "sypd-collapse");
    }

    #[test]
    fn builtin_rule_sets_parse() {
        let sim = sim_rules();
        assert_eq!(sim.len(), 4);
        assert_eq!(sim[3].series, "sim.degraded_ranks");
        let serve = serve_rules(2.0e6, 0.05);
        assert_eq!(serve.len(), 2);
        assert_eq!(serve[0].series, "serve.latency_us.p95");
        assert_eq!(serve[1].kind, RuleKind::Above(0.05));
    }

    #[test]
    fn replay_blames_degraded_mode_from_snapshots() {
        // The shape a shrink leaves behind in the telemetry store — and in
        // a diagnostics bundle's series.json: sim.degraded_ranks sits at 0
        // until the loss, then steps to 1 for the rest of the run.
        let store = SeriesStore::new(256);
        for i in 0..6 {
            store.record_at("sim.degraded_ranks", i as f64, 0.0);
        }
        for i in 6..12 {
            store.record_at("sim.degraded_ranks", i as f64, 1.0);
        }
        let engine = replay(sim_rules(), &store.snapshot());
        let events = engine.events();
        let fired: Vec<_> = events.iter().filter(|e| e.rule == "degraded-mode").collect();
        assert!(
            !fired.is_empty(),
            "degraded-mode rule must fire on a post-shrink snapshot"
        );
        assert_eq!(fired[0].series, "sim.degraded_ranks");
        assert!(fired[0].value > 0.0);
        assert!(
            fired[0].t_s >= 6.0,
            "must fire at the step, not before: t_s={}",
            fired[0].t_s
        );
        // No other sim rule has cause to fire on this store.
        assert!(events.iter().all(|e| e.rule == "degraded-mode"));
    }

    #[test]
    fn replay_of_healthy_run_fires_nothing() {
        // A healthy run's snapshot — steady throughput, mild imbalance,
        // zero degraded ranks — must replay to an empty firing list.
        let store = SeriesStore::new(256);
        for i in 0..16 {
            let t = i as f64;
            store.record_at("sim.degraded_ranks", t, 0.0);
            store.record_at("sim.sypd", t, 5.0 + 0.02 * (i % 3) as f64);
            store.record_at("sim.imbalance", t, 1.05);
        }
        let engine = replay(sim_rules(), &store.snapshot());
        assert!(
            engine.events().is_empty(),
            "healthy replay fired: {:?}",
            engine.events()
        );
    }

    #[test]
    fn firing_reaches_event_log_and_counter() {
        let obs = Obs::new();
        let log = std::sync::Arc::new(crate::event::EventLog::new(1));
        log.set_enabled(true);
        obs.profiler.attach(std::sync::Arc::clone(&log), 0);
        let engine = AlertEngine::new(vec![parse_rule("hot: temp above 3").unwrap()]).quiet();
        engine.observe("temp", 0.0, 9.0, Some(&obs));
        assert_eq!(obs.metrics.counter("alert.fired").get(), 1);
        let events = &log.snapshot()[0];
        assert_eq!(events[0].name.as_str(), "alert.hot");
        assert_eq!(events[0].kind, crate::event::Kind::Alert);
    }
}
