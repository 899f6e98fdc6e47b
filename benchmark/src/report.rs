//! One run's result: the line the driver reads, the result file, and the
//! table a person reads.

use crate::catalog;
use ap3esm::obs::json::Json;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub nproc: usize,
    /// Fewer than two cores, or more runnable threads than cores: the
    /// timings are not comparable and only the counts mean anything.
    pub oversubscribed: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations or checks failed; any entry makes the run incorrect.
    pub failures: Vec<String>,
    /// The contract's metrics: end-to-end (untraced) or per-layer (traced).
    pub metrics: Vec<Metric>,
    /// Everything else worth keeping: raw times, aliases, repeat counts.
    pub notes: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    fn metrics_json(metrics: &[Metric]) -> Json {
        Json::Obj(
            metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(m.value)),
                            ("unit".into(), Json::Str(m.unit.clone())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The last line of standard output, exactly the keys the driver wants.
    pub fn driver_line(&self) -> String {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::UInt(self.attempted.max(1))),
            ("failed".into(), Json::UInt(self.failed)),
            ("metrics".into(), Self::metrics_json(&self.metrics)),
        ])
        .to_string()
    }

    /// The result file: the driver line's content plus context.
    pub fn to_json(&self) -> Json {
        let unstable: Vec<Json> = self
            .metrics
            .iter()
            .filter(|m| m.unit == "count" || m.unit == "bytes")
            .filter(|m| m.value == catalog::UNSTABLE)
            .map(|m| Json::Str(m.name.clone()))
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::UInt(self.seed)),
            ("traced".into(), Json::Bool(self.traced)),
            ("nproc".into(), self.nproc.into()),
            ("oversubscribed".into(), Json::Bool(self.oversubscribed)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::UInt(self.attempted)),
            ("failed".into(), Json::UInt(self.failed)),
            (
                "failures".into(),
                Json::Arr(self.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
            ("unstable".into(), Json::Arr(unstable)),
            ("metrics".into(), Self::metrics_json(&self.metrics)),
            ("notes".into(), Self::metrics_json(&self.notes)),
        ])
    }

    /// Every metric by name with its unit, for a person.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {}, nproc {}{}) ==\n",
            self.workload,
            self.seed,
            if self.traced {
                "per-layer pass"
            } else {
                "end to end"
            },
            self.nproc,
            if self.oversubscribed {
                ", OVERSUBSCRIBED: timings not comparable, counts only"
            } else {
                ""
            },
        );
        for (title, metrics) in [("", &self.metrics), ("  -- notes --\n", &self.notes)] {
            out.push_str(title);
            for m in metrics.iter() {
                let exact = m.unit == "count" || m.unit == "bytes";
                let value = if exact && m.value == catalog::UNSTABLE {
                    "unstable".to_string()
                } else if m.value != 0.0 && m.value.abs() < 0.01 {
                    format!("{:.3e}", m.value)
                } else {
                    format!("{:.4}", m.value)
                };
                out.push_str(&format!("  {:<46} {:>14} {}\n", m.name, value, m.unit));
            }
        }
        out.push_str(&format!(
            "  operations: {} attempted, {} failed -> {}\n",
            self.attempted,
            self.failed,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        ));
        for f in self.failures.iter().take(8) {
            out.push_str(&format!("  failure: {f}\n"));
        }
        if self.failures.len() > 8 {
            out.push_str(&format!(
                "  ... and {} more failures\n",
                self.failures.len() - 8
            ));
        }
        out
    }
}
