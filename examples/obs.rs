//! One offline analysis tool over the directory a run leaves in
//! `target/obs/<name>/`: where did the time go, what broke, did the SLOs
//! hold. Every subcommand takes that one directory; `critpath` and
//! `postmortem` both read its one event file, `trace.json`, through the
//! same row codec.
//!
//! ```sh
//! # "Where is my SYPD going?" — critical path of a traced coupled run
//! cargo run --release --example coupled_esm -- --days 1 --trace --slo
//! cargo run --release --example obs -- critpath target/obs/coupled-esm
//! cargo run --release --example obs -- critpath target/obs/coupled-esm \
//!     --what-if atm_run:0.5 --check --json > critpath.json
//!
//! # Postmortem of a troubled run (scripts/diagnose.sh picks the newest)
//! cargo run --release --example obs -- postmortem target/obs/campaign-lose-ocean-rank-m0
//! cargo run --release --example obs -- postmortem DIR --expect-blame 1
//!
//! # Offline SLO check of the run's series (or of an OpenMetrics scrape)
//! cargo run --release --example obs -- slo target/obs/coupled-esm
//! cargo run --release --example obs -- slo --rules my-rules.txt DIR
//! cargo run --release --example obs -- slo --validate-openmetrics scrape.txt
//! ```
//!
//! * `critpath` replays the directory's chrome trace (`trace.json`) into the
//!   cross-rank activity graph at the SYPD its `report.json` measured,
//!   extracts the critical path, classifies every wait (late-sender /
//!   late-receiver / collective / timeout / orphan) and blames a rank for
//!   it, and prints the ranked optimization-targets table (`--json`: the
//!   `ap3esm-critpath/2` analysis).
//!   `--what-if NAME:FACTOR` re-solves the graph with that section's work
//!   scaled. Exits 2 when the input is unreadable, 1 when `--check` fails:
//!   the re-analysis must equal the `critpath` the run embedded in its
//!   report byte for byte, the on-path compute+comm+wait fractions must sum
//!   to 1.0 ±1%, and every requested what-if must project a strictly
//!   positive gain.
//! * `postmortem` decodes the chrome trace (`trace.json`), merges every
//!   rank's journal entries and messages on the shared trace clock and
//!   prints the blame report (`ap3esm-postmortem/2`): the first-stalled
//!   rank, the sends its silence orphaned, the receive timeouts that
//!   detected it. The report joins the directory as `postmortem.json`.
//!   Exits 2 when the
//!   directory is unreadable, 1 when `--expect-blame` names a different
//!   rank (`scripts/diagnose.sh`).
//! * `slo` replays the directory's series snapshot (`series.json`) through
//!   the alert engine, prints a per-rule verdict table and exits 1 if any
//!   rule fired. `--validate-openmetrics` checks a saved scrape instead; a
//!   valid scrape saved in a run directory joins its index.

use ap3esm::obs::critpath::Analyzer;
use ap3esm::obs::flightrec::analyze;
use ap3esm::obs::json::Json;
use ap3esm::obs::{alert, openmetrics, parse_rules, sim_rules, tsdb, Rule, RunDir};
use std::path::{Path, PathBuf};
use std::str::FromStr;

type Args = std::iter::Skip<std::env::Args>;

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("critpath") => critpath(args),
        Some("postmortem") => postmortem(args),
        Some("slo") => slo(args),
        _ => {
            eprintln!(
                "usage: obs critpath | postmortem | slo  [ARGS]  (each prints its own usage)"
            );
            std::process::exit(2);
        }
    }
}

/// The value of the flag just read, or the subcommand's usage.
fn value<T: FromStr>(args: &mut Args, usage: fn() -> !) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

/// Print `tool: message` and exit with `code`.
fn die(tool: &str, message: String, code: i32) -> ! {
    eprintln!("{tool}: {message}");
    std::process::exit(code);
}

fn read(tool: &str, path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(tool, format!("{}: {e}", path.display()), 2))
}

// --- critpath ------------------------------------------------------------

fn critpath_usage() -> ! {
    eprintln!(
        "usage: obs critpath DIR [--what-if [section=]NAME:FACTOR]... [--json] [--check]\n\
         analyze a traced run's critical path: compute/comm/wait fractions,\n\
         wait-state blame, and what-if SYPD projections"
    );
    std::process::exit(2);
}

/// `NAME:FACTOR` with an optional `section=` prefix (both
/// `--what-if atm_run:0.5` and `--what-if section=atm_run:0.5` work).
fn parse_what_if(spec: &str) -> (String, f64) {
    let spec = spec.strip_prefix("section=").unwrap_or(spec);
    let Some((name, factor)) = spec.split_once(':') else {
        critpath_usage()
    };
    let factor: f64 = factor.parse().unwrap_or_else(|_| critpath_usage());
    if name.is_empty() || !factor.is_finite() || factor <= 0.0 {
        critpath_usage()
    }
    (name.to_string(), factor)
}

fn critpath(mut args: Args) {
    let mut dir: Option<PathBuf> = None;
    let mut what_ifs: Vec<(String, f64)> = Vec::new();
    let (mut json_only, mut check) = (false, false);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--what-if" => {
                what_ifs.push(parse_what_if(&value::<String>(&mut args, critpath_usage)))
            }
            "--json" => json_only = true,
            "--check" => check = true,
            _ if !a.starts_with('-') && dir.is_none() => dir = Some(a.into()),
            _ => critpath_usage(),
        }
    }
    let dir = dir.unwrap_or_else(|| critpath_usage());
    let load = |path: &Path| {
        Json::parse(&read("critpath", path))
            .unwrap_or_else(|e| die("critpath", format!("{}: bad JSON: {e}", path.display()), 2))
    };
    let report = Some(dir.join("report.json")).filter(|p| p.is_file()).map(|p| load(&p));
    let trace = dir.join("trace.json");
    let mut analyzer = Analyzer::from_chrome_trace(&load(&trace))
        .unwrap_or_else(|e| die("critpath", format!("{}: {e}", trace.display()), 2));
    let meta = |key: &str| report.as_ref()?.get("meta")?.get(key)?.as_f64();
    if let Some(sypd) = meta("sypd") {
        analyzer = analyzer.with_sypd(sypd);
    }
    let analysis = analyzer.analyze();
    let mut json = analysis.to_json();
    let mut failed = Vec::new();
    // The analysis the run embedded in its report, re-derived offline.
    let embedded = report.as_ref().and_then(|r| r.get("critpath"));
    match embedded.filter(|cp| !matches!(cp, Json::Null)) {
        Some(cp) if cp.to_string() == json.to_string() => {}
        Some(_) => {
            failed.push("re-analysis of trace.json differs from report.json's critpath".into())
        }
        None => failed.push("report.json carries no critpath (re-run with --trace)".into()),
    }
    let what_ifs: Vec<_> = what_ifs
        .iter()
        .map(|(name, factor)| analyzer.what_if(name, *factor))
        .collect();
    if !what_ifs.is_empty() {
        let requested = what_ifs.iter().map(|w| w.to_json()).collect();
        json.set("what_if_requested", Json::Arr(requested));
    }
    if json_only {
        println!("{json}");
    } else {
        print!("{}", analysis.render_table());
        for w in &what_ifs {
            println!(
                "what-if {} x{:.2}: {:.1}us -> {:.1}us, {:+.1}% speedup{}",
                w.section,
                w.factor,
                w.baseline_us,
                w.projected_us,
                w.gain_pct,
                if w.projected_sypd > 0.0 {
                    format!(" (projected SYPD {:.2})", w.projected_sypd)
                } else {
                    String::new()
                },
            );
        }
    }
    let sum = analysis.compute_frac() + analysis.comm_frac() + analysis.wait_frac();
    if (sum - 1.0).abs() > 0.01 {
        failed.push(format!("fractions sum to {sum:.4}, want 1.0 +/- 1%"));
    }
    for w in what_ifs.iter().filter(|w| w.gain_pct <= 0.0) {
        failed.push(format!(
            "what-if {} x{:.2} projects {:+.2}%, want > 0",
            w.section, w.factor, w.gain_pct
        ));
    }
    if check {
        for f in &failed {
            eprintln!("critpath: CHECK FAILED: {f}");
        }
        if !failed.is_empty() {
            std::process::exit(1);
        }
        eprintln!("critpath: check passed");
    }
}

// --- postmortem ----------------------------------------------------------

fn postmortem_usage() -> ! {
    eprintln!(
        "usage: obs postmortem DIR [--expect-blame RANK] [--json]\n\
         blame the first-stalled rank of a target/obs/<name>/ run directory"
    );
    std::process::exit(2);
}

fn postmortem(mut args: Args) {
    let mut dir: Option<PathBuf> = None;
    let mut expect_blame: Option<usize> = None;
    let mut json_only = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--expect-blame" => expect_blame = Some(value(&mut args, postmortem_usage)),
            "--json" => json_only = true,
            _ if !a.starts_with('-') && dir.is_none() => dir = Some(a.into()),
            _ => postmortem_usage(),
        }
    }
    let dir = dir.unwrap_or_else(|| postmortem_usage());
    let pm = analyze(&dir)
        .unwrap_or_else(|e| die("postmortem", format!("{}: {e}", dir.display()), 2));

    let report = pm.to_json().to_string();
    if json_only {
        println!("{report}");
    } else {
        print!("{}", pm.render_table());
    }
    // Verdict and evidence travel together in the run directory.
    if let Err(e) = RunDir::open(&dir).and_then(|d| d.write("postmortem.json", &report)) {
        eprintln!("postmortem: cannot write postmortem.json: {e}");
    }
    if let Some(want) = expect_blame {
        match pm.blamed {
            Some(got) if got == want => {
                eprintln!("postmortem: blamed rank {got} matches --expect-blame");
            }
            got => die(
                "postmortem",
                format!("expected blame on rank {want}, analyzer says {got:?}"),
                1,
            ),
        }
    }
}

// --- slo -----------------------------------------------------------------

fn slo_usage() -> ! {
    eprintln!(
        "usage: obs slo [--rules FILE] DIR\n\
         \x20      obs slo --validate-openmetrics SCRAPE.txt"
    );
    std::process::exit(2);
}

fn slo(mut args: Args) {
    let (mut rules_path, mut validate, mut dir): (
        Option<PathBuf>,
        Option<PathBuf>,
        Option<PathBuf>,
    ) = (None, None, None);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rules" => rules_path = Some(value(&mut args, slo_usage)),
            "--validate-openmetrics" => validate = Some(value(&mut args, slo_usage)),
            other if other.starts_with('-') => slo_usage(),
            other => dir = Some(other.into()),
        }
    }

    // Mode 2: strict OpenMetrics validation of a saved scrape.
    if let Some(path) = validate {
        let text = read("slo", &path);
        match openmetrics::parse(&text) {
            Ok(families) => {
                // A scrape kept in a run directory joins its index.
                let run = path.parent().and_then(|d| RunDir::open(d).ok());
                let file = path.file_name().and_then(|f| f.to_str());
                if let (Some(run), Some(file)) = (run, file) {
                    if let Err(e) = run.write(file, &text) {
                        die("slo", format!("cannot index {}: {e}", path.display()), 2);
                    }
                }
                let samples: usize = families.iter().map(|f| f.samples.len()).sum();
                println!(
                    "{}: valid OpenMetrics ({} families, {} samples)",
                    path.display(),
                    families.len(),
                    samples
                );
                return;
            }
            Err(e) => die(
                "slo",
                format!("{}: invalid OpenMetrics: {e}", path.display()),
                1,
            ),
        }
    }

    // Mode 1: replay a run's series snapshot through the alert engine.
    let path = dir.unwrap_or_else(|| slo_usage()).join("series.json");
    let snaps = tsdb::snapshot_from_json(&read("slo", &path))
        .unwrap_or_else(|e| die("slo", format!("bad snapshot {}: {e}", path.display()), 2));
    let rules: Vec<Rule> = match &rules_path {
        Some(p) => parse_rules(&read("slo", p))
            .unwrap_or_else(|e| die("slo", format!("bad rules {}: {e}", p.display()), 2)),
        None => sim_rules(),
    };
    println!(
        "replaying {} series from {} against {} rule(s)",
        snaps.len(),
        path.display(),
        rules.len()
    );

    let engine = alert::replay(rules, &snaps);
    let mut violated = false;
    println!("\n--- SLO summary ---");
    for st in engine.status() {
        let bad = st.fired > 0 || st.firing;
        violated |= bad;
        println!(
            "{:<18} {:<28} {} ({} firing(s), {} samples)",
            st.rule,
            st.series,
            if bad { "VIOLATED" } else { "met" },
            st.fired,
            st.evaluated,
        );
    }
    for e in engine.events() {
        println!("  alert: t={:.2}s {}", e.t_s, e.message);
    }
    if violated {
        std::process::exit(1);
    }
}
