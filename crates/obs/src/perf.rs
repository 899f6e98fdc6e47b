//! Build metadata and the shape of one reported measurement.
//!
//! [`BuildInfo`] stamps run reports, chrome traces and run manifests;
//! [`Stat`] is what `serve::perf_snapshot` hands to its reader. Timing this
//! repository is `benchmark/`'s job (DESIGN.md §12); nothing here measures
//! or judges.

use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

use crate::json::Json;

/// Build and machine metadata shared by run reports (`ap3esm-obs/6`),
/// chrome-trace exports and run manifests, so any artifact can be
/// cross-referenced to the exact code and host that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildInfo {
    /// `git rev-parse --short=12 HEAD` of the workspace ("unknown" outside
    /// a checkout).
    pub git_sha: String,
    /// `rustc --version` one-liner ("unknown" if rustc is not on PATH).
    pub rustc: String,
    /// Hostname (HOSTNAME env, then /etc/hostname, then "unknown").
    pub host: String,
    /// `std::thread::available_parallelism()` of the measuring host.
    pub threads: u64,
    /// `std::env::consts::OS "/" ARCH`.
    pub os: String,
}

impl BuildInfo {
    /// Collect fresh metadata (spawns `git`/`rustc`; prefer
    /// [`BuildInfo::current`] which caches one collection per process).
    pub fn collect() -> BuildInfo {
        let run = |cmd: &str, args: &[&str], cwd: Option<&Path>| -> Option<String> {
            let mut c = Command::new(cmd);
            c.args(args);
            if let Some(d) = cwd {
                c.current_dir(d);
            }
            let out = c.output().ok()?;
            if !out.status.success() {
                return None;
            }
            let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
            (!s.is_empty()).then_some(s)
        };
        // Resolved from this crate's manifest, not the caller's CWD.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        BuildInfo {
            git_sha: run("git", &["rev-parse", "--short=12", "HEAD"], Some(&root))
                .unwrap_or_else(|| "unknown".into()),
            rustc: run("rustc", &["--version"], None).unwrap_or_else(|| "unknown".into()),
            host: std::env::var("HOSTNAME")
                .ok()
                .filter(|h| !h.is_empty())
                .or_else(|| {
                    std::fs::read_to_string("/etc/hostname")
                        .ok()
                        .map(|h| h.trim().to_string())
                        .filter(|h| !h.is_empty())
                })
                .unwrap_or_else(|| "unknown".into()),
            threads: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            os: format!("{}/{}", std::env::consts::OS, std::env::consts::ARCH),
        }
    }

    /// The process-wide cached instance (collected once, on first use).
    pub fn current() -> &'static BuildInfo {
        static CACHE: OnceLock<BuildInfo> = OnceLock::new();
        CACHE.get_or_init(BuildInfo::collect)
    }

    /// A fixed instance for golden/schema tests (deterministic bytes).
    pub fn fixed_for_tests() -> BuildInfo {
        BuildInfo {
            git_sha: "0123456789ab".into(),
            rustc: "rustc 1.0.0-test".into(),
            host: "testhost".into(),
            threads: 8,
            os: "linux/x86_64".into(),
        }
    }

    /// JSON object form (deterministic field order).
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("git_sha", self.git_sha.as_str().into())
            .set("rustc", self.rustc.as_str().into())
            .set("host", self.host.as_str().into())
            .set("threads", self.threads.into())
            .set("os", self.os.as_str().into());
        o
    }
}

/// Which direction of change is an improvement for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Costs: ns/gridpoint, latency, wall seconds.
    LowerIsBetter,
    /// Rates: SYPD, throughput.
    HigherIsBetter,
    /// Recorded for context (byte counts, shed rates whose "goodness"
    /// depends on the offered load).
    Informational,
}

/// One measured metric: a central value plus its dispersion context
/// (`n` samples, sample stddev).
#[derive(Debug, Clone, PartialEq)]
pub struct Stat {
    pub value: f64,
    /// Unit string ("ns/gp", "sypd", "us", "s", "bytes", "ratio"…).
    pub unit: String,
    /// Samples behind `value` (1 for single-shot measurements).
    pub n: u64,
    /// Sample standard deviation of the underlying samples (0 when n = 1).
    pub stddev: f64,
    pub better: Direction,
}

impl Stat {
    /// Single-shot measurement (n = 1, no dispersion information).
    pub fn single(value: f64, unit: &str, better: Direction) -> Stat {
        Stat {
            value,
            unit: unit.to_string(),
            n: 1,
            stddev: 0.0,
            better,
        }
    }

    /// Measurement backed by `n` samples with known sample stddev.
    pub fn sampled(value: f64, unit: &str, n: u64, stddev: f64, better: Direction) -> Stat {
        Stat {
            value,
            unit: unit.to_string(),
            n,
            stddev,
            better,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_info_collects_something_sane() {
        let b = BuildInfo::current();
        assert!(b.threads >= 1);
        assert!(!b.os.is_empty());
        assert!(!b.git_sha.is_empty());
        let json = b.to_json();
        assert_eq!(json.get("git_sha").and_then(Json::as_str), Some(b.git_sha.as_str()));
        assert_eq!(json.get("threads").and_then(Json::as_u64), Some(b.threads));
    }
}