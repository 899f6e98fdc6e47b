//! The full coupled AP3ESM at demo scale: atmosphere + ocean + sea ice +
//! land under the CPL7-analogue coupler, two task domains, measured SYPD.
//!
//! ```sh
//! cargo run --release --example coupled_esm
//!
//! # Resilience drill: inject faults from a plan file and recover via
//! # checkpoint rollback (see DESIGN.md, "Resilience layer").
//! printf 'kill rank=2 step=3\ncorrupt ckpt=2 field=atm_theta subfile=1 byte=100\n' > plan.txt
//! cargo run --release --example coupled_esm -- --fault-plan plan.txt
//! ```
//!
//! Flags: `--fault-plan <file>` (enables checkpointing), `--checkpoint-dir
//! <dir>` (default `target/ckpt` when faults are on), `--days <n>`,
//! `--trace` (span rows in the chrome trace, critical path in the report),
//! `--progress-every <n>` (live telemetry every n ocean couplings),
//! `--metrics-addr <ip:port>` (live OpenMetrics scrape endpoint — `curl
//! http://<addr>/metrics` mid-run; implies continuous telemetry),
//! `--slo` (continuous telemetry, sampled once per ocean coupling, +
//! built-in SYPD-collapse / imbalance-drift / degraded-streak /
//! degraded-mode alert rules), `--slo-rules <file>` (extra rules, one per
//! line; a malformed line exits 2 naming it). An unknown flag or an
//! unparsable value prints the usage and exits 2.
//!
//! Everything the run leaves is in one directory, `target/obs/coupled-esm/`:
//! `manifest.json`, `report.json`, `folded.txt` and `trace.json`, with
//! `--slo` `alerts.json` and `series.json`, with a fault
//! plan `faultplan.txt`. `cargo run --release --example obs -- critpath |
//! postmortem | slo target/obs/coupled-esm` reads it back.

use ap3esm::comm::{FaultInjector, FaultPlan};
use ap3esm::esm::coupled::TelemetryOptions;
use ap3esm::esm::RecoveryConfig;
use ap3esm::obs::parse_rules;
use ap3esm::prelude::*;
use std::sync::Arc;

struct Cli {
    days: f64,
    fault_plan: Option<std::path::PathBuf>,
    checkpoint_dir: Option<std::path::PathBuf>,
    trace: bool,
    progress_every: Option<u64>,
    slo: bool,
    slo_rules: Option<std::path::PathBuf>,
    metrics_addr: Option<String>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        days: 2.0,
        fault_plan: None,
        checkpoint_dir: None,
        trace: false,
        progress_every: None,
        slo: false,
        slo_rules: None,
        metrics_addr: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--days" => cli.days = value().parse().unwrap_or_else(|_| usage()),
            "--fault-plan" => cli.fault_plan = Some(value().into()),
            "--checkpoint-dir" => cli.checkpoint_dir = Some(value().into()),
            "--trace" => cli.trace = true,
            "--progress-every" => cli.progress_every = Some(value().parse().unwrap_or_else(|_| usage())),
            "--slo" => cli.slo = true,
            "--slo-rules" => cli.slo_rules = Some(value().into()),
            "--metrics-addr" => cli.metrics_addr = Some(value()),
            _ => usage(),
        }
    }
    cli
}

fn usage() -> ! {
    eprintln!(
        "usage: coupled_esm [--days N] [--fault-plan FILE] [--checkpoint-dir DIR] [--trace] \
         [--progress-every N] [--slo] [--slo-rules FILE] [--metrics-addr HOST:PORT]"
    );
    std::process::exit(2);
}

fn fatal(msg: &str) -> ! {
    eprintln!("coupled_esm: {msg}");
    std::process::exit(2);
}

fn main() {
    let cli = parse_cli();
    let config = CoupledConfig::demo_small();
    println!(
        "coupled AP3ESM: atm G{} ({} levels) | ocn {}×{}×{} on {}×{} ranks | couplings/day {:?}",
        config.atm_glevel,
        config.atm_nlev,
        config.ocn_nlon,
        config.ocn_nlat,
        config.ocn_nlev,
        config.ocn_px,
        config.ocn_py,
        config.couplings_per_day
    );
    println!(
        "task domains: rank 0 = coupler+ATM+ICE+LND | ranks 1..{} = OCN\n",
        config.world_size()
    );

    let mut world = World::new(config.world_size());
    let mut opts = CoupledOptions {
        days: cli.days,
        report_name: Some("coupled-esm".to_string()),
        trace: cli.trace,
        progress_every: cli.progress_every,
        checkpoint_dir: cli.checkpoint_dir,
        recovery: RecoveryConfig {
            checkpoint_interval: 1,
            keep_checkpoints: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    if let Some(path) = &cli.fault_plan {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fatal(&format!("cannot read {}: {e}", path.display())));
        let plan = FaultPlan::parse(&text)
            .unwrap_or_else(|e| fatal(&format!("bad fault plan {}: {e}", path.display())));
        println!("fault plan ({} events):\n{plan}", plan.events.len());
        world = world.with_fault_injector(Arc::new(FaultInjector::new(plan)));
        // Faults without checkpoints would just be a crash: default the
        // checkpoint directory on so the run can roll back and recover.
        opts.checkpoint_dir
            .get_or_insert_with(|| "target/ckpt".into());
    }
    if cli.slo || cli.metrics_addr.is_some() {
        let mut telemetry = TelemetryOptions {
            metrics_addr: cli.metrics_addr.clone(),
            ..TelemetryOptions::default()
        };
        if let Some(p) = &cli.slo_rules {
            let text = std::fs::read_to_string(p)
                .unwrap_or_else(|e| fatal(&format!("cannot read {}: {e}", p.display())));
            let rules = parse_rules(&text)
                .unwrap_or_else(|e| fatal(&format!("--slo-rules {}: {e}", p.display())));
            telemetry.rules.extend(rules);
        }
        opts.telemetry = Some(telemetry);
    }
    if let Some(addr) = &cli.metrics_addr {
        println!("metrics endpoint: http://{addr}/metrics (live during the run)\n");
    }
    let all = world.run(|rank| run_coupled(rank, &config, &opts));
    let root = &all[0];

    println!("simulated {} days in {:.2}s wall", opts.days, root.wall_seconds);
    println!("measured throughput at this size: {:.1} SYPD", root.sypd);
    println!("\nmean SST (°C) per ocean coupling:");
    for (k, sst) in root.sst_series.iter().enumerate() {
        println!("  coupling {k:>3}: {sst:.3}");
    }
    println!("\nice cover fraction: {:.4} → {:.4}",
        root.ice_series.first().unwrap(),
        root.ice_series.last().unwrap());
    println!(
        "ocean kinetic energy: {:.3e} → {:.3e} (wind-driven spin-up)",
        root.ke_series.first().unwrap(),
        root.ke_series.last().unwrap()
    );
    println!("\ncoupler traffic: {} messages, {:.2} MB",
        world.stats().total_messages(),
        world.stats().total_bytes() as f64 / 1e6);
    // §6.2's rule over the per-rank stats: `ocn_run` is on the ocean task
    // domain's ranks, never on rank 0.
    let mut slowest = std::collections::BTreeMap::new();
    for (name, secs) in all.iter().flat_map(|s| &s.per_section_seconds) {
        let max = slowest.entry(name.as_str()).or_insert(0.0f64);
        *max = max.max(*secs);
    }
    println!("\nper-section wall time (max across ranks):");
    for (name, secs) in slowest {
        println!("  {name:<16} {secs:.3}s");
    }

    if root.recoveries > 0 || !root.fault_events.is_empty() {
        println!("\nresilience: {} rollback(s)", root.recoveries);
        for e in &root.fault_events {
            println!("  fault: {e}");
        }
    }
    if !root.alerts.is_empty() {
        println!("\ntelemetry alerts ({}):", root.alerts.len());
        for a in &root.alerts {
            println!("  {a}");
        }
    }
    match &root.failure {
        Some(f) => {
            println!("\nrun FAILED (structured): {f}");
            std::process::exit(1);
        }
        None if cli.fault_plan.is_some() => {
            println!("run completed despite injected faults (recovered)");
        }
        None => {}
    }

    if let Some(dir) = &root.run_dir {
        println!("\nrun directory: {} (read back with examples/obs.rs)", dir.display());
    }
}
