//! Train the AI physics suite on conventional-physics supervision and plug
//! it into the atmosphere's physics–dynamics interface — the Fig. 4 swap.
//!
//! ```sh
//! cargo run --release --example ai_physics_training
//! # with a run directory target/obs/ai-train/ (report, folded stacks, and a
//! # chrome trace of the spans):
//! cargo run --release --example ai_physics_training -- --report-name ai-train --trace
//! ```

use ap3esm::obs;
use ap3esm::prelude::*;
use ap3esm_ai::net::TendencyCnn;
use ap3esm_ai::train::{TrainConfig, Trainer};
use ap3esm_ai::{RadiationModule, TendencyModule};
use ap3esm_atm::pdc::{supervision_pair, PhysicsDriver, PhysicsDynamicsCoupler, SurfaceForcing};
use ap3esm_atm::state::AtmState;
use ap3esm_physics::suite::{hydrostatic_thickness, Column, ConventionalSuite, SurfaceProperties};
use std::sync::Arc;

struct Cli {
    report_name: Option<String>,
    trace: bool,
}

fn usage() -> ! {
    eprintln!("usage: ai_physics_training [--report-name NAME] [--trace]");
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
    // Single-process example: wire the obs instance, event log and run
    // directory directly (one pid 0) instead of going through a World.
    let obs_state = Arc::new(obs::Obs::new());
    let log = cli.trace.then(|| {
        let log = Arc::new(obs::EventLog::new(1));
        log.set_enabled(true);
        obs_state.profiler.attach(Arc::clone(&log), 0);
        obs_state.profiler.set_tracing(true);
        log
    });
    let _guard = obs::install(Arc::clone(&obs_state));

    let nlev = 8;
    // ---- 1. Generate supervision from the conventional suite. ----------
    let supervision_span = obs::span("ai.supervision");
    let suite = ConventionalSuite::default();
    let sigma: Vec<f64> = (0..nlev).map(|k| 1.0 - (k as f64 + 0.5) / nlev as f64).collect();
    let ds = vec![1.0 / nlev as f64; nlev];
    let (mut inputs, mut targets): (Vec<_>, Vec<_>) = (0..400)
        .map(|s| {
            let t_surf = 280.0 + 20.0 * ((s as f64) * 0.37).sin().abs();
            let t: Vec<f64> = (0..nlev).map(|k| t_surf - 6.0 * k as f64).collect();
            let (p, dp, dz) = hydrostatic_thickness(&sigma, &ds, 1.0e5, &t);
            let q: Vec<f64> = (0..nlev).map(|k| 0.012 * (-0.5 * k as f64).exp()).collect();
            let col = Column { u: vec![4.0; nlev], v: vec![0.0; nlev], t, q, p, dp, dz };
            let sfc = SurfaceProperties { tskin: t_surf + 1.5, coszr: 0.5, wetness: 1.0 };
            supervision_pair(&suite, col, &sfc)
        })
        .unzip();
    obs::counter_add("ai.samples", inputs.len() as u64);
    drop(supervision_span);

    // ---- 2. Train the tendency CNN. -------------------------------------
    let training_span = obs::span("ai.train");
    let net = TendencyCnn::with_width(nlev, 16, 3);
    println!(
        "training tendency CNN ({} conv layers, {} ResUnits, {} params)…",
        net.conv_layers(), net.res_units(), net.num_parameters()
    );
    let trainer = Trainer::new(TrainConfig { epochs: 10, batch_size: 16, lr: 2e-3 });
    let (tendency, stats) = TendencyModule::fit(net, &mut inputs, &mut targets, &trainer);
    for s in stats.iter().step_by(3) {
        println!("  epoch {:>2}: train MSE {:.4}, test MSE {:.4}", s.epoch, s.train_mse, s.test_mse);
    }
    let last = stats.last().unwrap();
    println!("  final: train {:.4} / test {:.4}", last.train_mse, last.test_mse);
    obs::gauge_set("ai.test_mse", f64::from(last.test_mse));
    drop(training_span);

    // ---- 3. Swap the trained suite into the atmosphere. -----------------
    let swap_span = obs::span("ai.swap");
    let grid = std::sync::Arc::new(GeodesicGrid::new(3));
    let mut atm = AtmState::isothermal(std::sync::Arc::clone(&grid), nlev, 288.0);
    // Put the state inside the training distribution (a ~6 K/level lapse),
    // as the paper's resolution-adaptive suite assumes realistic columns.
    {
        let n = grid.ncells();
        for k in 0..nlev {
            let t_target = 295.0 - 6.0 * k as f64;
            for i in 0..n {
                let p = atm.sigma[k] * atm.ps[i];
                atm.theta[k * n + i] =
                    ap3esm_physics::constants::potential_temperature(t_target, p);
                atm.q[k * n + i] = 0.012 * (-0.5 * k as f64).exp();
            }
        }
    }
    let mut pdc = PhysicsDynamicsCoupler::new(PhysicsDriver::AiSuite {
        tendency,
        radiation: RadiationModule::untrained(nlev, 16, 5),
        diagnostics: suite,
    });
    println!("\nrunning the atmosphere with the AI suite (is_ai = {})…", pdc.is_ai());
    let forcing = SurfaceForcing::uniform(grid.ncells(), 299.0, 0.6, 1.0);
    for step in 0..3 {
        let precip = {
            let _s = obs::span("ai_physics_step");
            pdc.apply(&mut atm, &forcing, 600.0)
        };
        println!(
            "  AI-physics step {step}: mean θ {:.2} K, global precip {:.2e} kg/m²/s",
            atm.mean_theta(),
            precip
        );
    }
    drop(swap_span);
    println!("\nAI suite drives the same physics–dynamics interface as the");
    println!("conventional suite — the Fig. 4 architecture swap.");

    if let Some(name) = &cli.report_name {
        obs_state.profiler.set_tracing(false);
        let spans = obs_state.profiler.snapshot();
        let mut report = obs::RunReport::new(name).meta("example", "ai_physics_training");
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
