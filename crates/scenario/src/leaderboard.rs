//! The `ap3esm-leaderboard/1` campaign-summary schema.
//!
//! A campaign run (the scenario engine's fan-out over a catalog — see
//! [`crate::runner`]) ends in one machine-readable ranking of its
//! scenarios. The schema is deliberately restricted to **deterministic**
//! quantities: health verdicts, conservation drift, ensemble spread, and
//! the cost-model SYPD projection derived from the configuration — never
//! wall-clock measurements, so the same catalog and seed produce a
//! byte-identical report on any machine (the property CI's
//! `scenario-smoke` job asserts with a double run). Measured wall-clock
//! SYPD belongs in the human table and the per-scenario `ap3esm-tsdb/1`
//! snapshots, not here.
//!
//! Like the `ap3esm-*` schemas of `ap3esm-obs`, the writer is the
//! insertion-ordered [`Json`] tree and the reader is strict: unknown
//! schema tags, missing fields, or mistyped values are errors, so a CI
//! gate that validates a leaderboard actually validates it.

use std::path::PathBuf;

use ap3esm_obs::json::Json;

/// Schema tag of the campaign leaderboard document.
pub const LEADERBOARD_SCHEMA: &str = "ap3esm-leaderboard/1";

/// One scenario's row. All fields must be deterministic functions of
/// (catalog, seed) — see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderboardRow {
    pub name: String,
    /// Component subset ("full", "ocean-only", "atm-only", "ice-only").
    pub model: String,
    /// Resolution-ladder rung ("tiny", "small", "medium").
    pub grid: String,
    pub days: f64,
    /// Ensemble members executed (1 = deterministic single run).
    pub members: u64,
    /// Restart-cycled reforecast segments (1 = one cold-started run).
    pub cycles: u64,
    /// Contracted outcome ("healthy" | "degraded" | "failure").
    pub expect: String,
    /// Observed outcome (worst member): the contract values plus
    /// "PANIC" / "HANG" / "DIVERGENCE" for runs that broke the harness
    /// contract.
    pub verdict: String,
    /// Did the verdict match the contract?
    pub ok: bool,
    /// Ranking score: cost-model SYPD discounted by drift and verdict
    /// (see [`score`]).
    pub score: f64,
    /// Deterministic cost-model SYPD projection for this configuration on
    /// the reference machine (not a measurement).
    pub sypd_proxy: f64,
    /// Worst-member conservation drift (relative, model-specific metric:
    /// θ-mass drift for atmospheres, volume anomaly for oceans, …).
    pub drift: f64,
    /// Ensemble spread: max-min of the members' final primary diagnostic
    /// (0 for single-member scenarios).
    pub spread: f64,
    pub simulated_seconds: f64,
    /// Fault events injected+observed across members (chaos scenarios).
    pub faults: u64,
    /// Rollback recoveries across members.
    pub recoveries: u64,
    /// Shrink-to-fit recoveries across members.
    pub shrinks: u64,
    /// Per-scenario `ap3esm-tsdb/1` snapshot file name (relative to the
    /// campaign output directory), if one was written.
    pub series: Option<String>,
}

/// Ranking score: the deterministic SYPD projection, discounted by
/// conservation drift (1% drift halves the score at `drift = 0.01`) and
/// gated by the verdict — a scenario that broke its contract ranks below
/// every scenario that honoured it regardless of speed.
pub fn score(ok: bool, sypd_proxy: f64, drift: f64) -> f64 {
    let drift_discount = 1.0 / (1.0 + 100.0 * drift.abs());
    let contract = if ok { 1.0 } else { 0.0 };
    contract * sypd_proxy * drift_discount
}

/// The ranked campaign leaderboard.
#[derive(Debug, Clone, PartialEq)]
pub struct Leaderboard {
    /// Catalog name (from the catalog's `name` line).
    pub campaign: String,
    /// Campaign seed the scenario/member seeds derive from.
    pub seed: u64,
    /// Rows in rank order (rank 1 first).
    pub rows: Vec<LeaderboardRow>,
}

impl Leaderboard {
    /// Rank rows: contract-honouring scenarios first, then by score
    /// descending, ties broken by name so the order is total and
    /// deterministic.
    pub fn ranked(campaign: &str, seed: u64, mut rows: Vec<LeaderboardRow>) -> Self {
        rows.sort_by(|a, b| {
            b.ok.cmp(&a.ok)
                .then(b.score.total_cmp(&a.score))
                .then(a.name.cmp(&b.name))
        });
        Leaderboard {
            campaign: campaign.to_string(),
            seed,
            rows,
        }
    }

    /// Serialise as the `ap3esm-leaderboard/1` document (compact, one
    /// line, byte-stable for a fixed input).
    pub fn to_json(&self) -> String {
        let mut root = Json::obj();
        root.set("schema", Json::Str(LEADERBOARD_SCHEMA.into()));
        root.set("campaign", Json::Str(self.campaign.clone()));
        root.set("seed", Json::UInt(self.seed));
        root.set("scenarios", Json::UInt(self.rows.len() as u64));
        root.set(
            "violations",
            Json::UInt(self.rows.iter().filter(|r| !r.ok).count() as u64),
        );
        let rows = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut o = Json::obj();
                o.set("rank", Json::UInt(i as u64 + 1));
                o.set("name", Json::Str(r.name.clone()));
                o.set("model", Json::Str(r.model.clone()));
                o.set("grid", Json::Str(r.grid.clone()));
                o.set("days", Json::Num(r.days));
                o.set("members", Json::UInt(r.members));
                o.set("cycles", Json::UInt(r.cycles));
                o.set("expect", Json::Str(r.expect.clone()));
                o.set("verdict", Json::Str(r.verdict.clone()));
                o.set("ok", Json::Bool(r.ok));
                o.set("score", Json::Num(r.score));
                o.set("sypd_proxy", Json::Num(r.sypd_proxy));
                o.set("drift", Json::Num(r.drift));
                o.set("spread", Json::Num(r.spread));
                o.set("simulated_seconds", Json::Num(r.simulated_seconds));
                o.set("faults", Json::UInt(r.faults));
                o.set("recoveries", Json::UInt(r.recoveries));
                o.set("shrinks", Json::UInt(r.shrinks));
                o.set(
                    "series",
                    match &r.series {
                        Some(s) => Json::Str(s.clone()),
                        None => Json::Null,
                    },
                );
                o
            })
            .collect();
        root.set("leaderboard", Json::Arr(rows));
        root.to_string()
    }

    /// Write the document to `dir/leaderboard-<name>.json` (newline
    /// terminated) and return the path.
    pub fn write(&self, dir: &std::path::Path, name: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("leaderboard-{name}.json"));
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }

    /// Strict parse of an `ap3esm-leaderboard/1` document: wrong schema
    /// tag, missing fields, mistyped values, or rank numbers out of order
    /// are all errors.
    pub fn parse(text: &str) -> Result<Leaderboard, String> {
        let root = Json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
        match root.get("schema").and_then(Json::as_str) {
            Some(LEADERBOARD_SCHEMA) => {}
            Some(other) => return Err(format!("schema is {other:?}, want {LEADERBOARD_SCHEMA:?}")),
            None => return Err("missing schema tag".into()),
        }
        let campaign = root
            .get("campaign")
            .and_then(Json::as_str)
            .ok_or("missing campaign")?
            .to_string();
        let seed = root
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("missing seed")?;
        let declared = root
            .get("scenarios")
            .and_then(Json::as_u64)
            .ok_or("missing scenarios count")?;
        let rows_json = root
            .get("leaderboard")
            .and_then(Json::as_arr)
            .ok_or("missing leaderboard array")?;
        if rows_json.len() as u64 != declared {
            return Err(format!(
                "scenarios says {declared} but leaderboard has {} rows",
                rows_json.len()
            ));
        }
        let mut rows = Vec::with_capacity(rows_json.len());
        for (i, row) in rows_json.iter().enumerate() {
            let ctx = |field: &str| format!("row {}: missing or mistyped {field}", i + 1);
            let s = |field: &str| -> Result<String, String> {
                row.get(field)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| ctx(field))
            };
            let f = |field: &str| -> Result<f64, String> {
                row.get(field).and_then(Json::as_f64).ok_or_else(|| ctx(field))
            };
            let u = |field: &str| -> Result<u64, String> {
                row.get(field).and_then(Json::as_u64).ok_or_else(|| ctx(field))
            };
            let rank = u("rank")?;
            if rank != i as u64 + 1 {
                return Err(format!("row {}: rank says {rank}", i + 1));
            }
            let ok = match row.get("ok") {
                Some(Json::Bool(b)) => *b,
                _ => return Err(ctx("ok")),
            };
            let expect = s("expect")?;
            if !["healthy", "degraded", "failure"].contains(&expect.as_str()) {
                return Err(format!("row {}: bad expect {expect:?}", i + 1));
            }
            rows.push(LeaderboardRow {
                name: s("name")?,
                model: s("model")?,
                grid: s("grid")?,
                days: f("days")?,
                members: u("members")?,
                cycles: u("cycles")?,
                expect,
                verdict: s("verdict")?,
                ok,
                score: f("score")?,
                sypd_proxy: f("sypd_proxy")?,
                drift: f("drift")?,
                spread: f("spread")?,
                simulated_seconds: f("simulated_seconds")?,
                faults: u("faults")?,
                recoveries: u("recoveries")?,
                shrinks: u("shrinks")?,
                series: match row.get("series") {
                    Some(Json::Str(s)) => Some(s.clone()),
                    Some(Json::Null) | None => None,
                    _ => return Err(ctx("series")),
                },
            });
        }
        Ok(Leaderboard {
            campaign,
            seed,
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, ok: bool, sypd: f64, drift: f64) -> LeaderboardRow {
        LeaderboardRow {
            name: name.into(),
            model: "full".into(),
            grid: "tiny".into(),
            days: 1.0,
            members: 1,
            cycles: 1,
            expect: "healthy".into(),
            verdict: if ok { "healthy".into() } else { "PANIC".into() },
            ok,
            score: score(ok, sypd, drift),
            sypd_proxy: sypd,
            drift,
            spread: 0.0,
            simulated_seconds: 86_400.0,
            faults: 0,
            recoveries: 0,
            shrinks: 0,
            series: Some(format!("series-demo-{name}.json")),
        }
    }

    #[test]
    fn ranking_is_total_and_contract_first() {
        let lb = Leaderboard::ranked(
            "demo",
            7,
            vec![
                row("slow-clean", true, 10.0, 0.0),
                row("fast-drifty", true, 100.0, 0.5),
                row("fastest-broken", false, 1000.0, 0.0),
            ],
        );
        // drift discount: 100/(1+50) ≈ 1.96 < 10 → slow-clean wins.
        assert_eq!(lb.rows[0].name, "slow-clean");
        assert_eq!(lb.rows[1].name, "fast-drifty");
        // Contract violations sink below every honoured contract.
        assert_eq!(lb.rows[2].name, "fastest-broken");
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let lb = Leaderboard::ranked(
            "demo",
            42,
            vec![row("a", true, 5.0, 1e-6), row("b", false, 9.0, 0.0)],
        );
        let text = lb.to_json();
        assert!(text.starts_with(r#"{"schema":"ap3esm-leaderboard/1""#));
        let back = Leaderboard::parse(&text).unwrap();
        assert_eq!(back, lb);
        // And serialisation is stable.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn parse_is_strict() {
        let lb = Leaderboard::ranked("demo", 1, vec![row("a", true, 5.0, 0.0)]);
        let good = lb.to_json();
        for (what, bad) in [
            ("schema", good.replace("ap3esm-leaderboard/1", "ap3esm-leaderboard/2")),
            ("count", good.replace(r#""scenarios":1"#, r#""scenarios":2"#)),
            ("rank order", good.replace(r#""rank":1"#, r#""rank":3"#)),
            ("expect", good.replace(r#""expect":"healthy""#, r#""expect":"fine""#)),
            ("missing field", good.replace(r#""drift":0,"#, "")),
            ("not json", "leaderboard? what leaderboard".into()),
        ] {
            assert!(Leaderboard::parse(&bad).is_err(), "{what} must be rejected");
        }
    }
}
