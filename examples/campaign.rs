//! The campaign runner — the one way to run a catalog of scenarios: parse a
//! declarative catalog, fan its scenarios (× ensemble members) across the
//! thread pool, hold every unit to its declared contract, and distil the
//! campaign into per-scenario `ap3esm-tsdb/1` snapshots plus one
//! deterministic `ap3esm-leaderboard/1` ranking.
//!
//! With no `--catalog`, runs the embedded demo catalog: a coupled
//! baseline, an ocean-only ENSO spin-up, an atm-only aqua planet, an
//! ice-only seasonal cycle, a seeded three-member perturbation ensemble, a
//! multi-vortex basin, a restart-cycled reforecast, and a fault-injected
//! rank-loss scenario — every initial-condition family and component
//! subset the engine composes. `scenarios/chaos.scn` is the recovery
//! ladder: eight seeded fault plans over the coupled driver, healthy,
//! degraded-against-a-bitwise-reference and structured-failure rungs.
//!
//! ```sh
//! cargo run --release --example campaign
//! cargo run --release --example campaign -- --catalog scenarios/chaos.scn
//! cargo run --release --example campaign -- --catalog scenarios/chaos.scn --only lose --seed 7
//! cargo run --release --example campaign -- --only spinup --threads 2
//! cargo run --release --example campaign -- --check   # parse+validate only
//! ```
//!
//! Exits nonzero if any scenario breaks its declared contract — a hang
//! (watchdog), a panic and a silent divergence from the degraded-mode
//! reference all count — or, with `--check`, if the catalog does not
//! validate.

use ap3esm::scenario::dsl::Catalog;
use ap3esm::scenario::runner::{run_campaign, CampaignOptions};
use std::path::PathBuf;

/// The embedded demo catalog (also shipped as `scenarios/demo.scn`).
const DEMO_CATALOG: &str = include_str!("../scenarios/demo.scn");

fn main() {
    let mut catalog_path: Option<PathBuf> = None;
    let mut seed: Option<u64> = None;
    let mut opts = CampaignOptions::default();
    let mut check_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--catalog" => catalog_path = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--seed" => {
                seed = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--threads" => {
                opts.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--only" => opts.only = Some(args.next().unwrap_or_else(|| usage())),
            "--out" => opts.out_dir = args.next().unwrap_or_else(|| usage()).into(),
            "--check" => check_only = true,
            _ => usage(),
        }
    }

    let text = match &catalog_path {
        Some(p) => std::fs::read_to_string(p)
            .unwrap_or_else(|e| fatal(&format!("cannot read {}: {e}", p.display()))),
        None => DEMO_CATALOG.to_string(),
    };
    let source = catalog_path
        .as_ref()
        .map(|p| p.display().to_string())
        .unwrap_or_else(|| "<embedded demo catalog>".to_string());

    // A seed override re-parses with the seed line substituted: scenario
    // seeds derive at parse time, so the grammar stays the single source
    // of seed derivation.
    let text = match seed {
        Some(s) => reseed_text(&text, s),
        None => text,
    };
    let catalog = Catalog::parse(&text).unwrap_or_else(|e| fatal(&format!("{source}: {e}")));
    catalog
        .validate()
        .unwrap_or_else(|e| fatal(&format!("{source}: {e}")));

    if check_only {
        println!(
            "{source}: ok — {} scenario(s), seed {}",
            catalog.scenarios.len(),
            catalog.seed
        );
        return;
    }

    println!(
        "campaign {:?}: {} scenario(s), seed {}, output {}",
        catalog.name,
        catalog.scenarios.len(),
        catalog.seed,
        opts.out_dir.display()
    );
    let report = run_campaign(&catalog, &opts);
    println!("\n{}", report.table);
    for o in &report.outcomes {
        for m in &o.members {
            if !m.detail.is_empty() {
                println!("  {} m{}: {}", o.name, m.member, m.detail);
            }
            if let Some(b) = &m.bundle {
                println!("  {} m{}: run directory {}", o.name, m.member, b.display());
            }
        }
        if let Some(f) = &o.series_file {
            println!("  {}: series {}", o.name, f);
        }
    }
    println!(
        "\n{}/{} scenario(s) met their contract; leaderboard: {}",
        report.outcomes.len() - report.violations,
        report.outcomes.len(),
        report.leaderboard_path.display()
    );
    if report.violations > 0 {
        eprintln!(
            "{} scenario(s) broke their contract",
            report.violations
        );
        std::process::exit(1);
    }
}

/// Replace (or prepend) the catalog-level `seed` line.
fn reseed_text(text: &str, seed: u64) -> String {
    let mut out = String::new();
    let mut replaced = false;
    let mut in_scenario = false;
    for line in text.lines() {
        let stripped = line.split('#').next().unwrap_or("").trim();
        if stripped.starts_with("scenario ") || stripped == "scenario" {
            in_scenario = true;
        }
        if !in_scenario && !replaced && stripped.starts_with("seed ") {
            out.push_str(&format!("seed {seed}\n"));
            replaced = true;
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    if !replaced {
        return format!("seed {seed}\n{out}");
    }
    out
}

fn fatal(msg: &str) -> ! {
    eprintln!("campaign: {msg}");
    std::process::exit(2);
}

fn usage() -> ! {
    eprintln!(
        "usage: campaign [--catalog FILE] [--seed N] [--threads N] \
         [--only SUBSTRING] [--out DIR] [--check]"
    );
    std::process::exit(2);
}
