//! One run, one directory: everything a run leaves lands in
//! `target/obs/<name>/`, indexed by its `manifest.json`.
//!
//! A [`RunDir`] is started once per run with the run's verdict — `"ok"`, or
//! the trouble that ended it (`"shrink"`, `"deadlock"`, `"fault"`,
//! `"recovery-failure: …"`, `"panic"`, …) — and every member goes through
//! [`RunDir::write`], which rewrites the manifest's `files` index from the
//! directory listing. The index therefore lists exactly what is there, also
//! after a later writer added a member (a campaign's `scenario.txt`, a
//! postmortem's `postmortem.json`). The members, each written when it has
//! content:
//!
//! | file | content |
//! |------|---------|
//! | `manifest.json` | `ap3esm-run/1`: name, reason, [`BuildInfo`], `files` |
//! | `report.json`, `folded.txt` | the run report and its rank span trees as collapsed stacks ([`RunDir::write_report`]) |
//! | `trace.json` | one event-log snapshot as a chrome trace ([`RunDir::write_events`]); the postmortem and the critical path read it back |
//! | `alerts.json`, `series.json` | alert firings and the tsdb snapshot ([`RunDir::write_telemetry`]) |
//! | `faultplan.txt`, `scenario.txt` | the active fault plan, the campaign scenario |
//! | `postmortem.json` | the blame report of `obs postmortem` |

use std::io;
use std::path::{Component, Path, PathBuf};

use crate::alert::AlertEvent;
use crate::event::Event;
use crate::json::Json;
use crate::perf::BuildInfo;
use crate::report::{alert_event_json, RunReport};
use crate::trace::{chrome_trace, folded_stacks};

/// Schema tag of `manifest.json`.
pub const MANIFEST_SCHEMA: &str = "ap3esm-run/1";

/// The workspace artifact root (`target/obs` at the repository root); every
/// run directory lives under it.
pub fn default_dir() -> PathBuf {
    // CARGO_TARGET_DIR is honoured when set; otherwise resolve the
    // workspace target/ relative to this crate's manifest so the sink does
    // not depend on the caller's working directory.
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir).join("obs"),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/obs"),
    }
}

/// One run's directory and the head of its manifest.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
    /// The manifest's fields before `files`.
    head: Vec<(String, Json)>,
}

impl RunDir {
    /// Start `target/obs/<name>/` for a run that ended with `reason`. The
    /// name is one plain path component: `..`, `a/b`, an absolute path or
    /// an empty name would aim the removal below outside the run's own
    /// directory, and is refused before anything on disk is touched.
    pub fn create(name: &str, reason: &str) -> io::Result<RunDir> {
        let mut parts = Path::new(name).components();
        if !matches!((parts.next(), parts.next()), (Some(Component::Normal(_)), None)) {
            let why = format!("run name {name:?} is not one plain path component");
            return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
        }
        RunDir::create_at(default_dir().join(name), reason)
    }

    /// Start the run directory `path` afresh: what an earlier run of the
    /// same name left there is removed, then the manifest is written.
    pub fn create_at(path: impl Into<PathBuf>, reason: &str) -> io::Result<RunDir> {
        let path = path.into();
        if let Err(e) = std::fs::remove_dir_all(&path) {
            if e.kind() != io::ErrorKind::NotFound {
                return Err(e);
            }
        }
        std::fs::create_dir_all(&path)?;
        // Normalise `crates/obs/../../target`-style default paths so stats
        // and CI logs carry a clean, clickable location.
        let path = path.canonicalize().unwrap_or(path);
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let head = vec![
            ("schema".to_string(), MANIFEST_SCHEMA.into()),
            ("name".to_string(), name.as_ref().into()),
            ("reason".to_string(), reason.into()),
            ("build".to_string(), BuildInfo::current().to_json()),
        ];
        let dir = RunDir { path, head };
        dir.index()?;
        Ok(dir)
    }

    /// Reopen a run directory to add members.
    pub fn open(path: impl AsRef<Path>) -> io::Result<RunDir> {
        let path = path.as_ref().to_path_buf();
        let text = std::fs::read_to_string(path.join("manifest.json"))?;
        let Ok(Json::Obj(mut head)) = Json::parse(&text) else {
            let why = format!("{}/manifest.json is not a JSON object", path.display());
            return Err(io::Error::new(io::ErrorKind::InvalidData, why));
        };
        head.retain(|(key, _)| key != "files");
        Ok(RunDir { path, head })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Write the member `file`, then the manifest that indexes it.
    pub fn write(&self, file: &str, body: &str) -> io::Result<()> {
        std::fs::write(self.path.join(file), body)?;
        self.index()
    }

    /// The run report as `report.json`, and its rank span trees, when it
    /// has any, as collapsed stacks in `folded.txt`.
    pub fn write_report(&self, report: &RunReport) -> io::Result<()> {
        self.write("report.json", &(report.to_json() + "\n"))?;
        if report.rank_trees.is_empty() {
            return Ok(());
        }
        self.write("folded.txt", &folded_stacks(&report.rank_trees))
    }

    /// What continuous telemetry saw: the alert firings as `alerts.json`
    /// (an empty array is itself a finding) and the series store's
    /// `ap3esm-tsdb/1` snapshot as `series.json`.
    pub fn write_telemetry(&self, alerts: &[AlertEvent], series_json: &str) -> io::Result<()> {
        let alerts = Json::Arr(alerts.iter().map(alert_event_json).collect());
        self.write("alerts.json", &(alerts.to_string() + "\n"))?;
        self.write("series.json", &(series_json.to_string() + "\n"))
    }

    /// One snapshot of an event log as `trace.json`, the chrome trace that
    /// the postmortem and the critical-path analyzer decode.
    pub fn write_events(&self, events: &[Vec<Event>]) -> io::Result<()> {
        self.write("trace.json", &(chrome_trace(events) + "\n"))
    }

    /// Rewrite `manifest.json` with `files` = the directory listing.
    fn index(&self) -> io::Result<()> {
        let mut files = vec!["manifest.json".to_string()];
        for entry in std::fs::read_dir(&self.path)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                files.extend(entry.file_name().into_string().ok());
            }
        }
        files.sort();
        files.dedup();
        let mut manifest = Json::Obj(self.head.clone());
        manifest.set(
            "files",
            Json::Arr(files.into_iter().map(Json::Str).collect()),
        );
        std::fs::write(self.path.join("manifest.json"), manifest.to_string() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_member_lands_in_the_index_and_a_new_run_starts_empty() {
        let root = std::env::temp_dir().join(format!("ap3esm-rundir-{}", std::process::id()));
        let manifest = |dir: &RunDir| std::fs::read_to_string(dir.path().join("manifest.json"));
        let dir = RunDir::create_at(root.join("unit"), "shrink").unwrap();
        dir.write("report.json", "{}\n").unwrap();
        // A later writer reopens the directory; the reason survives.
        let later = RunDir::open(dir.path()).unwrap();
        later.write("scenario.txt", "scenario unit\n").unwrap();
        let text = manifest(&dir).unwrap();
        assert!(text.starts_with(r#"{"schema":"ap3esm-run/1","name":"unit","reason":"shrink""#));
        let files = r#""files":["manifest.json","report.json","scenario.txt"]}"#;
        assert!(text.trim_end().ends_with(files), "{text}");

        // The next run of that name owns the directory alone.
        let again = RunDir::create_at(root.join("unit"), "ok").unwrap();
        let text = manifest(&again).unwrap();
        assert!(text.trim_end().ends_with(r#""files":["manifest.json"]}"#));
        assert_eq!(std::fs::read_dir(again.path()).unwrap().count(), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_name_that_is_not_one_component_is_refused_and_nothing_removed() {
        // The absolute name comes first and names a tree this test owns.
        let abs = std::env::temp_dir().join(format!("ap3esm-rundir-abs-{}", std::process::id()));
        std::fs::create_dir_all(abs.join("keep")).unwrap();
        let root_existed = default_dir().is_dir();
        for name in [abs.to_str().unwrap(), "..", "", ".", "a/b"] {
            let err = RunDir::create(name, "ok").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{name:?}");
        }
        assert!(abs.join("keep").is_dir());
        assert_eq!(default_dir().is_dir(), root_existed);
        std::fs::remove_dir_all(&abs).unwrap();
    }
}
