//! One offline analysis tool over the artifacts a run leaves in
//! `target/obs/`: where did the time go, what broke, did the SLOs hold.
//!
//! ```sh
//! # "Where is my SYPD going?" — critical path of a traced coupled run
//! cargo run --release --example coupled_esm -- --days 1 --trace
//! cargo run --release --example obs -- critpath target/obs/trace-coupled-esm.json
//! cargo run --release --example obs -- critpath --trace target/obs/trace-coupled-esm.json \
//!     --what-if atm_run:0.5 --check --out target/obs/critpath.json
//! cargo run --release --example obs -- critpath --report target/obs/run-coupled-esm.json --json
//!
//! # Postmortem over a flight-recorder diagnostics bundle
//! cargo run --release --example obs -- postmortem target/obs/bundle-chaos-lose-ocean-rank
//! cargo run --release --example obs -- postmortem --bundle DIR --expect-blame 1
//!
//! # Offline SLO check of a saved series snapshot (or of an OpenMetrics scrape)
//! cargo run --release --example coupled_esm -- --slo
//! cargo run --release --example obs -- slo target/obs/series-coupled-esm.json
//! cargo run --release --example obs -- slo --rules my-rules.txt <snapshot>
//! cargo run --release --example obs -- slo --validate-openmetrics scrape.txt
//! ```
//!
//! * `critpath` replays a chrome trace (`trace-<name>.json`) into the
//!   cross-rank activity graph, extracts the critical path, classifies
//!   every off-path wait (late-sender / late-receiver / collective /
//!   timeout), and prints the ranked optimization-targets table.
//!   `--what-if NAME:FACTOR` re-solves the graph with that section's work
//!   scaled; `--report` instead pulls the analysis a run already embedded
//!   in its `run-<name>.json`. Exits 2 when the input is unreadable (or has
//!   no analysis), 1 when `--check` fails: the on-path compute+comm+wait
//!   fractions must sum to 1.0 ±1% and every requested what-if must project
//!   a strictly positive gain.
//! * `postmortem` reads nothing but a `bundle-<name>/` directory, merges
//!   the per-rank journals on the shared trace clock and prints the blame
//!   report: the first-stalled rank, the sends its silence orphaned, the
//!   receive timeouts that detected it. The report is written back into the
//!   bundle as `postmortem.json`. Exits 2 when the bundle is unreadable, 1
//!   when `--expect-blame` names a different rank (`scripts/diagnose.sh`).
//! * `slo` replays a series snapshot (`series-<name>.json`) through the
//!   alert engine, prints a per-rule verdict table and exits 1 if any rule
//!   fired (`scripts/slo_check.sh`).

use ap3esm::obs::critpath::Analyzer;
use ap3esm::obs::flightrec::analyze;
use ap3esm::obs::json::Json;
use ap3esm::obs::{alert, openmetrics, parse_rules, sim_rules, tsdb, Rule};
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
        "usage: obs critpath [--trace] TRACE.json [--what-if [section=]NAME:FACTOR]...\n\
         \x20                   [--sypd SYPD] [--json] [--check] [--out PATH]\n\
         \x20      obs critpath --report RUN.json [--json] [--check] [--out PATH]\n\
         analyze a traced coupled run's critical path: compute/comm/wait\n\
         fractions, wait-state blame, and what-if SYPD projections"
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

fn fractions_sum(cp: &Json) -> f64 {
    let frac = |k: &str| {
        cp.get("fractions")
            .and_then(|f| f.get(k))
            .and_then(|v| v.as_f64())
            .unwrap_or(f64::NAN)
    };
    frac("compute") + frac("comm") + frac("wait")
}

fn write_out(path: &Path, body: &str) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, format!("{body}\n")) {
        die(
            "critpath",
            format!("cannot write {}: {e}", path.display()),
            2,
        );
    }
}

fn critpath(mut args: Args) {
    let (mut trace, mut report, mut out): (Option<PathBuf>, Option<PathBuf>, Option<PathBuf>) =
        (None, None, None);
    let mut what_ifs: Vec<(String, f64)> = Vec::new();
    let (mut sypd, mut json_only, mut check) = (None::<f64>, false, false);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace" => trace = Some(value(&mut args, critpath_usage)),
            "--report" => report = Some(value(&mut args, critpath_usage)),
            "--what-if" => {
                what_ifs.push(parse_what_if(&value::<String>(&mut args, critpath_usage)))
            }
            "--sypd" => sypd = Some(value(&mut args, critpath_usage)),
            "--json" => json_only = true,
            "--check" => check = true,
            "--out" => out = Some(value(&mut args, critpath_usage)),
            _ if !a.starts_with('-') && trace.is_none() && report.is_none() => {
                trace = Some(a.into())
            }
            _ => critpath_usage(),
        }
    }
    let load = |path: &Path| {
        Json::parse(&read("critpath", path))
            .unwrap_or_else(|e| die("critpath", format!("{}: bad JSON: {e}", path.display()), 2))
    };
    let mut failed = Vec::new();

    // --report: the run already embedded its analysis; extract and judge it.
    if let Some(path) = &report {
        if !what_ifs.is_empty() {
            die(
                "critpath",
                "--what-if needs the full graph; use --trace".into(),
                2,
            );
        }
        let doc = load(path);
        let Some(cp) = doc.get("critpath").filter(|c| !matches!(**c, Json::Null)) else {
            let path = path.display();
            let why = format!("{path}: report carries no critpath analysis (re-run with --trace)");
            die("critpath", why, 2);
        };
        println!("{cp}");
        if let Some(out) = &out {
            write_out(out, &cp.to_string());
        }
        if (fractions_sum(cp) - 1.0).abs() > 0.01 {
            failed.push("fractions do not sum to 1.0 +/- 1%".to_string());
        }
    } else {
        // --trace: rebuild the activity graph from the chrome trace.
        let path = trace.unwrap_or_else(|| critpath_usage());
        let mut analyzer = Analyzer::from_chrome_trace(&load(&path))
            .unwrap_or_else(|e| die("critpath", format!("{}: {e}", path.display()), 2));
        if let Some(sypd) = sypd {
            analyzer = analyzer.with_sypd(sypd);
        }
        let analysis = analyzer.analyze();
        let what_ifs: Vec<_> = what_ifs
            .iter()
            .map(|(name, factor)| analyzer.what_if(name, *factor))
            .collect();
        let mut json = analysis.to_json();
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
        if let Some(out) = &out {
            write_out(out, &json.to_string());
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
        "usage: obs postmortem [--bundle] DIR [--expect-blame RANK] [--json]\n\
         analyze a target/obs/bundle-<name>/ diagnostics bundle"
    );
    std::process::exit(2);
}

fn postmortem(mut args: Args) {
    let mut bundle: Option<PathBuf> = None;
    let mut expect_blame: Option<usize> = None;
    let mut json_only = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--bundle" => bundle = Some(value(&mut args, postmortem_usage)),
            "--expect-blame" => expect_blame = Some(value(&mut args, postmortem_usage)),
            "--json" => json_only = true,
            _ if !a.starts_with('-') && bundle.is_none() => bundle = Some(a.into()),
            _ => postmortem_usage(),
        }
    }
    let bundle = bundle.unwrap_or_else(|| postmortem_usage());
    let pm = analyze(&bundle)
        .unwrap_or_else(|e| die("postmortem", format!("{}: {e}", bundle.display()), 2));

    let report = pm.to_json().to_string();
    if json_only {
        println!("{report}");
    } else {
        print!("{}", pm.render_table());
    }
    // Verdict and evidence travel together in the bundle.
    if let Err(e) = std::fs::write(bundle.join("postmortem.json"), &report) {
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
        "usage: obs slo [--rules <file>] <series-snapshot.json>\n\
         \x20      obs slo --validate-openmetrics <scrape.txt>"
    );
    std::process::exit(2);
}

fn slo(mut args: Args) {
    let (mut rules_path, mut validate, mut snapshot): (
        Option<PathBuf>,
        Option<PathBuf>,
        Option<PathBuf>,
    ) = (None, None, None);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rules" => rules_path = Some(value(&mut args, slo_usage)),
            "--validate-openmetrics" => validate = Some(value(&mut args, slo_usage)),
            other if other.starts_with('-') => slo_usage(),
            other => snapshot = Some(other.into()),
        }
    }

    // Mode 2: strict OpenMetrics validation of a saved scrape.
    if let Some(path) = validate {
        match openmetrics::parse(&read("slo", &path)) {
            Ok(families) => {
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

    // Mode 1: replay a series snapshot through the alert engine.
    let path = snapshot.unwrap_or_else(|| slo_usage());
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
