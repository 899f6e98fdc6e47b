//! Run-report sink: machine-readable JSON.
//!
//! A [`RunReport`] collects whatever the run produced — metadata, cross-rank
//! section stats, every rank's span tree, metric snapshots, alerts, the
//! critical path and the communication summary; its JSON form is a single deterministic object,
//! the `report.json` of the run's directory ([`crate::RunDir`]), so two runs
//! can be diffed field by field.

use crate::alert::AlertEvent;
use crate::json::Json;
use crate::metrics::MetricSnapshot;
use crate::perf::BuildInfo;
use crate::rankagg::{RankTree, SectionStats};
use crate::span::SpanSnapshot;

/// Schema tag stamped into every report (bump on breaking layout changes).
/// The layout, in order: `schema`, `name`, `build`, `meta`,
/// `rank_sections` (the §6.2 per-section maxima across ranks), `rank_trees`
/// (every rank's bounded span tree; the reporting rank's is
/// `rank_trees[0]`), `metrics`, `alerts`, `critpath`
/// (`ap3esm-critpath/2` or `null`) and `comm` (or `null`).
pub const SCHEMA: &str = "ap3esm-obs/6";

/// Communication traffic digest (fed from `ap3esm_comm::CommStats`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommSummary {
    pub total_messages: u64,
    pub total_bytes: u64,
    /// Hottest (src, dst) pairs by bytes, descending.
    pub top_pairs: Vec<(usize, usize, u64)>,
    /// Labelled traffic streams (e.g. per coupling phase): (label, messages,
    /// bytes).
    pub streams: Vec<(String, u64, u64)>,
}

/// One run's report: name it, fill in what the run produced, then write its
/// [`to_json`](RunReport::to_json) into the run's directory.
pub struct RunReport {
    pub name: String,
    /// The build/machine stamp ([`BuildInfo::current`] unless a golden test
    /// pins a fixed one).
    pub build: BuildInfo,
    pub meta: Vec<(String, Json)>,
    /// Cross-rank section statistics.
    pub sections: Vec<SectionStats>,
    /// Every rank's (bounded) span tree, in rank order.
    pub rank_trees: Vec<RankTree>,
    pub metrics: Vec<(String, MetricSnapshot)>,
    /// SLO/anomaly alert events fired during the run.
    pub alerts: Vec<AlertEvent>,
    /// The `ap3esm-critpath/2` object produced by
    /// [`crate::critpath::Analysis::to_json`].
    pub critpath: Option<Json>,
    pub comm: Option<CommSummary>,
}

impl RunReport {
    /// An empty report stamped with this build.
    pub fn new(name: &str) -> Self {
        RunReport {
            name: name.to_string(),
            build: BuildInfo::current().clone(),
            meta: Vec::new(),
            sections: Vec::new(),
            rank_trees: Vec::new(),
            metrics: Vec::new(),
            alerts: Vec::new(),
            critpath: None,
            comm: None,
        }
    }

    /// Attach a metadata field (world size, SYPD, config label, …). The one
    /// helper beside the public fields: it converts `Into<Json>` for the
    /// caller; everything else is assigned (`report.rank_trees = ..`).
    pub fn meta(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.meta.push((key.to_string(), value.into()));
        self
    }

    /// The JSON object, compact and field-order deterministic.
    pub fn to_json(&self) -> String {
        let mut root = Json::obj();
        root.set("schema", SCHEMA.into());
        root.set("name", self.name.as_str().into());
        root.set("build", self.build.to_json());

        let mut meta = Json::obj();
        for (k, v) in &self.meta {
            meta.set(k, v.clone());
        }
        root.set("meta", meta);

        let sections = self
            .sections
            .iter()
            .map(|s| {
                let mut o = Json::obj();
                o.set("path", s.path.as_str().into())
                    .set("max_s", s.max_s.into())
                    .set("min_s", s.min_s.into())
                    .set("mean_s", s.mean_s.into())
                    .set("imbalance", s.imbalance.into())
                    .set("ranks", s.ranks.into())
                    .set("world", s.world.into())
                    .set("count", s.count.into());
                o
            })
            .collect();
        root.set("rank_sections", Json::Arr(sections));

        let trees = self
            .rank_trees
            .iter()
            .map(|t| {
                let mut o = Json::obj();
                o.set("rank", t.rank.into())
                    .set("dropped", t.dropped.into())
                    .set("spans", Json::Arr(span_array(&t.spans)));
                o
            })
            .collect();
        root.set("rank_trees", Json::Arr(trees));

        let mut metrics = Json::obj();
        for (name, snap) in &self.metrics {
            let value = match snap {
                MetricSnapshot::Counter(v) => Json::UInt(*v),
                MetricSnapshot::Gauge(v) => Json::Num(*v),
                MetricSnapshot::Histogram(h) => {
                    let mut o = Json::obj();
                    o.set("count", h.count.into())
                        .set("min", h.min.into())
                        .set("max", h.max.into())
                        .set("mean", h.mean.into())
                        .set("p50", h.p50.into())
                        .set("p95", h.p95.into());
                    o
                }
            };
            metrics.set(name, value);
        }
        root.set("metrics", metrics);

        root.set(
            "alerts",
            Json::Arr(self.alerts.iter().map(alert_event_json).collect()),
        );

        root.set(
            "critpath",
            self.critpath.clone().unwrap_or(Json::Null),
        );

        if let Some(comm) = &self.comm {
            let mut o = Json::obj();
            o.set("total_messages", comm.total_messages.into())
                .set("total_bytes", comm.total_bytes.into());
            let pairs = comm
                .top_pairs
                .iter()
                .map(|&(src, dst, bytes)| {
                    let mut p = Json::obj();
                    p.set("src", src.into())
                        .set("dst", dst.into())
                        .set("bytes", bytes.into());
                    p
                })
                .collect();
            o.set("top_pairs", Json::Arr(pairs));
            let streams = comm
                .streams
                .iter()
                .map(|(label, messages, bytes)| {
                    let mut s = Json::obj();
                    s.set("label", label.as_str().into())
                        .set("messages", (*messages).into())
                        .set("bytes", (*bytes).into());
                    s
                })
                .collect();
            o.set("streams", Json::Arr(streams));
            root.set("comm", o);
        } else {
            root.set("comm", Json::Null);
        }
        root.to_string()
    }
}

/// JSON form of one alert event (shared by the report's `alerts` array and
/// the scrape endpoint's `/alerts` route).
pub fn alert_event_json(e: &AlertEvent) -> Json {
    let mut o = Json::obj();
    o.set("rule", e.rule.as_str().into())
        .set("series", e.series.as_str().into())
        .set("t_s", e.t_s.into())
        .set("value", e.value.into())
        .set("message", e.message.as_str().into());
    o
}

fn span_array(spans: &[SpanSnapshot]) -> Vec<Json> {
    spans
        .iter()
        .map(|s| {
            let mut o = Json::obj();
            o.set("path", s.path.as_str().into())
                .set("depth", s.depth.into())
                .set("total_s", s.total_s.into())
                .set("self_s", s.self_s.into())
                .set("count", s.count.into());
            o
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSummary;

    fn fixed_report() -> RunReport {
        let span = |path: &str, depth, total_s, self_s, count| SpanSnapshot {
            path: path.into(),
            name: path.rsplit('/').next().unwrap().into(),
            depth,
            total_s,
            self_s,
            count,
        };
        RunReport {
            build: BuildInfo::fixed_for_tests(),
            sections: vec![SectionStats {
                path: "step".into(),
                max_s: 2.5,
                min_s: 2.0,
                mean_s: 2.25,
                imbalance: 2.5 / 2.25,
                ranks: 2,
                world: 3,
                count: 4,
            }],
            rank_trees: vec![crate::rankagg::RankTree {
                rank: 1,
                dropped: 2,
                spans: vec![span("step", 0, 2.5, 0.5, 4), span("step/atm", 1, 2.0, 2.0, 8)],
            }],
            metrics: vec![
                ("io.bytes".into(), MetricSnapshot::Counter(4096)),
                (
                    "rearrange.ns".into(),
                    MetricSnapshot::Histogram(HistogramSummary {
                        count: 10,
                        min: 100,
                        max: 900,
                        mean: 500.0,
                        p50: 496,
                        p95: 880,
                    }),
                ),
            ],
            alerts: vec![AlertEvent {
                rule: "sypd-collapse".into(),
                series: "sim.sypd".into(),
                t_s: 12.5,
                value: 0.2,
                message: "sypd-collapse: sim.sypd breached".into(),
            }],
            comm: Some(CommSummary {
                total_messages: 42,
                total_bytes: 1_000_000,
                top_pairs: vec![(0, 1, 700_000), (1, 0, 300_000)],
                streams: vec![("cpl_scatter".into(), 30, 700_000)],
            }),
            ..RunReport::new("golden")
                .meta("world_size", 3usize)
                .meta("sypd", 0.54)
        }
    }

    /// Golden-file style schema check: the exact serialised form of a fixed
    /// report. Update deliberately when the schema version is bumped.
    #[test]
    fn json_matches_golden_schema() {
        let got = fixed_report().to_json();
        let want = concat!(
            r#"{"schema":"ap3esm-obs/6","name":"golden","#,
            r#""build":{"git_sha":"0123456789ab","rustc":"rustc 1.0.0-test","#,
            r#""host":"testhost","threads":8,"os":"linux/x86_64"},"#,
            r#""meta":{"world_size":3,"sypd":0.54},"#,
            r#""rank_sections":[{"path":"step","max_s":2.5,"min_s":2,"mean_s":2.25,"#,
            r#""imbalance":1.1111111111111112,"ranks":2,"world":3,"count":4}],"#,
            r#""rank_trees":[{"rank":1,"dropped":2,"#,
            r#""spans":[{"path":"step","depth":0,"total_s":2.5,"self_s":0.5,"count":4},"#,
            r#"{"path":"step/atm","depth":1,"total_s":2,"self_s":2,"count":8}]}],"#,
            r#""metrics":{"io.bytes":4096,"#,
            r#""rearrange.ns":{"count":10,"min":100,"max":900,"mean":500,"p50":496,"p95":880}},"#,
            r#""alerts":[{"rule":"sypd-collapse","series":"sim.sypd","t_s":12.5,"#,
            r#""value":0.2,"message":"sypd-collapse: sim.sypd breached"}],"#,
            r#""critpath":null,"#,
            r#""comm":{"total_messages":42,"total_bytes":1000000,"#,
            r#""top_pairs":[{"src":0,"dst":1,"bytes":700000},{"src":1,"dst":0,"bytes":300000}],"#,
            r#""streams":[{"label":"cpl_scatter","messages":30,"bytes":700000}]}}"#,
        );
        assert_eq!(got, want);
    }
}
