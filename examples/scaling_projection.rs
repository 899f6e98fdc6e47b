//! Project AP3ESM throughput onto the paper's machines with the calibrated
//! scaling model: "what SYPD would configuration X reach on N nodes of
//! Sunway OceanLight?"
//!
//! ```sh
//! cargo run --release --example scaling_projection [nodes…]
//! # with a run directory target/obs/scaling/ (report, folded stacks, and a
//! # chrome trace of the spans):
//! cargo run --release --example scaling_projection -- --report-name scaling --trace
//! ```

use ap3esm::obs;
use ap3esm::prelude::*;
use ap3esm_machine::calibration::paper_table2;
use ap3esm_machine::perf::ScalingModel;
use std::sync::Arc;

struct Cli {
    nodes: Vec<usize>,
    report_name: Option<String>,
    trace: bool,
}

fn usage() -> ! {
    eprintln!("usage: scaling_projection [NODES]... [--report-name NAME] [--trace]");
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        nodes: Vec::new(),
        report_name: None,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--report-name" => cli.report_name = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => cli.trace = true,
            other => cli.nodes.push(other.parse().unwrap_or_else(|_| usage())),
        }
    }
    if cli.nodes.is_empty() {
        cli.nodes = vec![10_000, 25_000, 50_000, 107_520];
    }
    cli
}

fn main() {
    let cli = parse_cli();

    // This example has no World: it is a single-process projection, so the
    // obs instance, event log and run directory are wired directly (one pid 0).
    let obs_state = Arc::new(obs::Obs::new());
    let log = cli.trace.then(|| {
        let log = Arc::new(obs::EventLog::new(1));
        log.set_enabled(true);
        obs_state.profiler.attach(Arc::clone(&log), 0);
        obs_state.profiler.set_tracing(true);
        log
    });
    let _guard = obs::install(Arc::clone(&obs_state));

    let model = {
        let _s = obs::span("scaling.fit");
        let cal = paper_table2()
            .into_iter()
            .find(|c| c.label.contains("AP3ESM 1v1"))
            .expect("calibration");
        ScalingModel::fit(MachineSpec::sunway_oceanlight(), &cal)
    };
    println!("coupled AP3ESM 1v1 on Sunway OceanLight (calibrated model):\n");
    println!("{:>10} {:>14} {:>10} {:>12}", "nodes", "cores", "SYPD", "efficiency");
    {
        let _s = obs::span("scaling.project");
        for &n in &cli.nodes {
            let _p = obs::span("point");
            let m = MachineSpec::sunway_oceanlight();
            println!(
                "{:>10} {:>14} {:>10.3} {:>11.1}%",
                n,
                m.cores(n),
                model.sypd(n),
                model.efficiency(n) * 100.0
            );
        }
    }
    let headline = {
        let _s = obs::span("scaling.headline");
        model.sypd(95_316)
    };
    println!(
        "\npaper headline: 0.54 SYPD at 37.2M cores — model gives {headline:.3} at {} nodes",
        95_316
    );
    println!("\nusage: cargo run --release --example scaling_projection 20000 40000");

    if let Some(name) = &cli.report_name {
        obs_state.profiler.set_tracing(false);
        let spans = obs_state.profiler.snapshot();
        let mut report = obs::RunReport::new(name)
            .meta("example", "scaling_projection")
            .meta("points", cli.nodes.len());
        report.rank_trees = vec![obs::RankTree { rank: 0, dropped: 0, spans }];
        report.metrics = obs_state.metrics.snapshot();
        let written = obs::RunDir::create(name, "ok").and_then(|dir| {
            dir.write_report(&report)?;
            if let Some(log) = &log {
                dir.write_events(&log.snapshot())?;
            }
            Ok(dir)
        });
        match written {
            Ok(dir) => println!("\nrun directory: {}", dir.path().display()),
            Err(e) => eprintln!("cannot write run directory {name}: {e}"),
        }
    }
}
