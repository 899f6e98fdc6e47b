//! Regenerates Fig. 4 / §5.2.1: the AI physics suite — train the tendency
//! CNN on conventional-physics supervision (our stand-in for the paper's
//! 5 km GRIST fields), evaluate its accuracy on held-out data, and compare
//! its per-column cost against the conventional suite.
//!
//! Protocol mirrors the paper: "training dataset … 80 days", "7:1
//! training:test partition", "three random time steps per day as a
//! validation subset".

use std::hint::black_box;
use std::time::Instant;

use ap3esm_ai::net::TendencyCnn;
use ap3esm_ai::train::{train_test_split, validation_steps, TrainConfig, Trainer};
use ap3esm_ai::TendencyModule;
use ap3esm_atm::pdc::supervision_pair;
use ap3esm_bench::{banner, write_csv};
use ap3esm_physics::suite::{hydrostatic_thickness, Column, ConventionalSuite, SurfaceProperties};

/// Generate supervision pairs from the conventional suite over a sweep of
/// column states (the "80 days, 20 from each season" analogue: a seasonal
/// parameter sweep of surface temperature and insolation).
fn generate_dataset(
    nlev: usize,
    days: usize,
    steps_per_day: usize,
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let suite = ConventionalSuite::default();
    let sigma: Vec<f64> = (0..nlev)
        .map(|k| 1.0 - (k as f64 + 0.5) / nlev as f64)
        .collect();
    let ds = vec![1.0 / nlev as f64; nlev];
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    let mut rng_state = 0xA3E5_u64;
    let mut rnd = || {
        rng_state ^= rng_state >> 12;
        rng_state ^= rng_state << 25;
        rng_state ^= rng_state >> 27;
        (rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f64 / 16_777_216.0
    };
    for day in 0..days {
        // Four "seasons" of 20 days each (the paper's sampling).
        let season = (day / (days / 4).max(1)) as f64;
        for step in 0..steps_per_day {
            let coszr = ((step as f64 / steps_per_day as f64) * std::f64::consts::TAU)
                .sin()
                .max(0.0);
            let t_surf = 288.0 + 8.0 * (season * std::f64::consts::FRAC_PI_2).sin()
                + 6.0 * (rnd() - 0.5);
            let t: Vec<f64> = (0..nlev)
                .map(|k| t_surf - (55.0 / nlev as f64) * k as f64 + 2.0 * (rnd() - 0.5))
                .collect();
            let (p, dp, dz) = hydrostatic_thickness(&sigma, &ds, 1.0e5, &t);
            let q: Vec<f64> = (0..nlev)
                .map(|k| 0.014 * (-2.0 * k as f64 / nlev as f64).exp() * (0.5 + rnd()))
                .collect();
            let u0 = 20.0 * (rnd() - 0.5);
            let v0 = 10.0 * (rnd() - 0.5);
            let col = Column {
                u: vec![u0; nlev],
                v: vec![v0; nlev],
                t,
                q,
                p,
                dp,
                dz,
            };
            let sfc = SurfaceProperties {
                tskin: t_surf + 2.0,
                coszr,
                wetness: 1.0,
            };
            let (x, y) = supervision_pair(&suite, col, &sfc);
            inputs.push(x);
            targets.push(y);
        }
    }
    (inputs, targets)
}

fn main() {
    banner("fig4_ai_physics", "Fig. 4 / §5.2.1: AI physics suite");
    let nlev = 16;
    let days = 80;
    let steps_per_day = 4;
    println!("\ngenerating supervision: {days} days × {steps_per_day} steps…");
    let (mut inputs, mut targets) = generate_dataset(nlev, days, steps_per_day);

    let (train_idx, test_idx) = train_test_split(inputs.len());
    let val = validation_steps(days, steps_per_day, 3.min(steps_per_day), 42);
    println!(
        "dataset: {} samples → {} train / {} test / {} validation steps",
        inputs.len(),
        train_idx.len(),
        test_idx.len(),
        val.len()
    );

    let net = TendencyCnn::with_width(nlev, 24, 7);
    println!(
        "CNN: {} conv layers, {} ResUnits, {} parameters (paper-size net has {})",
        net.conv_layers(),
        net.res_units(),
        net.num_parameters(),
        TendencyCnn::paper(30).num_parameters()
    );
    let trainer = Trainer::new(TrainConfig {
        epochs: 12,
        batch_size: 16,
        lr: 2e-3,
    });
    let t0 = Instant::now();
    let (module, stats) = TendencyModule::fit(net, &mut inputs, &mut targets, &trainer);
    let train_time = t0.elapsed().as_secs_f64();

    println!("\n{:>6} {:>12} {:>12}", "epoch", "train MSE", "test MSE");
    let mut rows = Vec::new();
    for s in &stats {
        println!("{:>6} {:>12.5} {:>12.5}", s.epoch, s.train_mse, s.test_mse);
        rows.push(format!("{},{},{}", s.epoch, s.train_mse, s.test_mse));
    }
    write_csv("fig4_training", "epoch,train_mse,test_mse", &rows);

    let first = stats.first().unwrap();
    let last = stats.last().unwrap();
    println!(
        "\ntraining reduced MSE {:.4} → {:.4} ({:.0}% of initial) in {train_time:.1}s",
        first.train_mse,
        last.train_mse,
        100.0 * last.train_mse / first.train_mse
    );
    let val_mse = trainer.evaluate_cnn(&module.net, &inputs, &targets, &val);
    println!("validation-steps MSE: {val_mse:.5}");

    // Cost comparison: conventional suite vs trained CNN, per column.
    let suite = ConventionalSuite::default();
    let sigma: Vec<f64> = (0..nlev)
        .map(|k| 1.0 - (k as f64 + 0.5) / nlev as f64)
        .collect();
    let ds = vec![1.0 / nlev as f64; nlev];
    let t: Vec<f64> = (0..nlev).map(|k| 290.0 - 3.0 * k as f64).collect();
    let (p, dp, dz) = hydrostatic_thickness(&sigma, &ds, 1.0e5, &t);
    let col = Column {
        u: vec![5.0; nlev],
        v: vec![0.0; nlev],
        t,
        q: vec![0.008; nlev],
        p,
        dp,
        dz,
    };
    let reps = 2000;
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(suite.step_column(
            black_box(&col),
            &SurfaceProperties {
                tskin: 295.0,
                coszr: 0.5,
                wetness: 1.0,
            },
        ));
    }
    let conv_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
    // One batched forward over 256 columns: what the coupled model's AI
    // suite and the serving tier run (the tensor-kernel gain).
    let batch = 256;
    let x = ap3esm_ai::tensor::Tensor::from_vec(
        inputs[0].iter().cycle().take(batch * 5 * nlev).copied().collect(),
        &[batch, 5, nlev],
    );
    let t0 = Instant::now();
    let inf_reps = 10;
    for _ in 0..inf_reps {
        black_box(module.net.forward_batch(black_box(&x)));
    }
    let ai_us = t0.elapsed().as_secs_f64() * 1e6 / (inf_reps * batch) as f64;
    println!("\nper-column cost: conventional {conv_us:.1} µs, AI (batched) {ai_us:.1} µs");
    write_csv(
        "fig4_cost",
        "suite,us_per_column",
        &[
            format!("conventional,{conv_us}"),
            format!("ai_cnn,{ai_us}"),
        ],
    );
}
