//! The Typhoon-Doksuri forecast experiment (paper §7.1, Figs. 6–7) at demo
//! scale: seed a warm-core vortex at Doksuri's genesis point into the
//! coupled model, run, track, and score against the reference track.
//!
//! ```sh
//! cargo run --release --example typhoon_forecast
//! # with a run directory target/obs/doksuri/ (report, folded stacks, and a
//! # per-rank chrome trace with span rows):
//! cargo run --release --example typhoon_forecast -- --report-name doksuri --trace
//! ```

use ap3esm::prelude::*;

struct Cli {
    report_name: Option<String>,
    trace: bool,
}

fn usage() -> ! {
    eprintln!("usage: typhoon_forecast [--report-name NAME] [--trace]");
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        report_name: None,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--report-name" => cli.report_name = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => cli.trace = true,
            _ => usage(),
        }
    }
    cli
}

fn main() {
    let cli = parse_cli();
    let mut config = CoupledConfig::test_tiny();
    config.atm_glevel = 4; // ~450 km cells: coarse, but tracks a vortex
    println!("Typhoon Doksuri forecast experiment (idealized-vortex analogue)");
    println!("atmosphere: G{}, coupled to {}×{} ocean\n", config.atm_glevel, config.ocn_nlon, config.ocn_nlat);

    let base = CoupledOptions {
        report_name: cli.report_name,
        trace: cli.trace,
        ..Default::default()
    };
    let result = run_forecast_with(&config, 1.0, &base);

    println!(
        "{:>7} {:>18} {:>18} {:>10} {:>12}",
        "hours", "reference (lat,lon)", "model (lat,lon)", "err (km)", "wind (m/s)"
    );
    for ((r, t), e) in result
        .reference
        .iter()
        .zip(&result.track)
        .zip(&result.track_error_km)
    {
        println!(
            "{:>7.1} {:>9.2},{:>8.2} {:>9.2},{:>8.2} {:>10.0} {:>12.1}",
            r.hours, r.lat_deg, r.lon_deg, t.lat_deg, t.lon_deg, e, t.max_wind
        );
    }
    println!(
        "\nmean track error {:.0} km at ~{:.0} km grid spacing",
        result.mean_track_error(),
        result.atm_dx_km
    );
    println!(
        "minimum central pressure {:.1} hPa, peak wind {:.1} m/s",
        result.min_pressure() / 100.0,
        result.peak_intensity()
    );
    println!("\n(The paper's 3-km configuration captures the eyewall; at");
    println!("laptop scale the experiment validates the forecast *pipeline*:");
    println!("initialize → couple → track → score.)");

    if let Some(dir) = &result.stats.run_dir {
        println!("\nrun directory: {}", dir.display());
    }
}
