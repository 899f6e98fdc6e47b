//! The per-layer pass (`--trace 1`): probes of every layer on the
//! workload's path, then the workload itself, its set-up twin and — for
//! `balanced-2dom` — its sequential twin under the span recorder, with
//! counts read at the same boundaries. A metric whose layer the workload
//! never executes reads 0.

use std::time::Instant;

use ap3esm::ai::modules::ColumnState;
use ap3esm::cpl::RearrangeStrategy;
use ap3esm::prelude::{CoupledConfig, CoupledOptions};
use ap3esm::serve::{perf_snapshot, Service};

use crate::alloc::COUNTER;
use crate::catalog::{self, RUNGS, RUN_SECONDS, SECTIONS, UNSTABLE};
use crate::pace::{Kernel, Pace};
use crate::probes::{self, Cx, Layers};
use crate::report::{Metric, Report};
use crate::run::{report_shell, Aliases, Budget, RunArgs};
use crate::serve;
use crate::sim::{check_slice, run_slice, Slice};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, SimWorkload, BALANCED_2DOM, SERVE_BURST};

/// Run the per-layer pass inside what is left of `budget`, which started
/// with the untraced reference run that measured `untraced`. Every step
/// runs at least once; repeats beyond that, and the length of the
/// finite-horizon run, are cut to fit.
pub fn per_layer(args: &RunArgs, untraced: &Aliases, budget: &Budget) -> Option<(Report, Tracer)> {
    let mut tracer = Tracer::new(&args.workload);
    let mut pace = Pace::start(workloads::mix_of(&args.workload));
    let effort = if args.quick {
        0.1
    } else {
        (args.seconds / RUN_SECONDS as f64).clamp(0.1, 1.0)
    };
    let mut cx = Cx {
        tracer: &mut tracer,
        pace: &mut pace,
        budget,
        effort,
        out: Layers::new(),
    };
    let mut report = if args.workload == SERVE_BURST {
        let w = workloads::serve_workload(args.seed, args.quick);
        let mut report = report_shell(args, true, 1 + w.config.workers);
        serve_layers(&mut cx, &w, untraced, &mut report);
        report
    } else {
        let w = workloads::sim_workload(&args.workload, args.seed, args.quick)?;
        let mut report = report_shell(args, true, w.runnable_threads());
        sim_layers(&mut cx, &w, untraced, &mut report);
        report
    };
    for (name, v) in [
        ("sypd", untraced.sypd),
        ("serve_p50_ms", untraced.serve_p50_ms),
        ("serve_p95_ms", untraced.serve_p95_ms),
        ("serve_capacity_rps", untraced.serve_capacity_rps),
        ("fail_frac", untraced.fail_frac),
    ] {
        cx.set(name, v);
    }
    let kernel_ms = median(&cx.pace.kernel_s) * 1e3;
    cx.set("machine.kernel_ms", kernel_ms);
    let out = cx.out;
    for (name, unit, _) in catalog::per_layer() {
        let value = out.get(&name).copied().unwrap_or(0.0);
        report.metrics.push(Metric::new(&name, value, unit));
    }
    for name in out.keys() {
        debug_assert!(
            report.metrics.iter().any(|m| &m.name == name),
            "{name} is not in the catalog"
        );
    }
    Some((report, tracer))
}

/// A count that must be the same in every slice, else `UNSTABLE`.
fn exact(values: impl Iterator<Item = u64>) -> f64 {
    let v: Vec<u64> = values.collect();
    match v.first() {
        Some(&first) if v.iter().all(|&x| x == first) => first as f64,
        _ => UNSTABLE,
    }
}

/// Exchange traffic per ocean coupling of a counts-only half-day run of
/// `config`; wall-clock is discarded (the 2x2 mesh needs 5 threads).
fn exchange_counts(
    mut config: CoupledConfig,
    strategy: RearrangeStrategy,
    kernel: &Kernel,
) -> (f64, f64) {
    config.strategy = strategy;
    let opts = CoupledOptions {
        days: 0.5,
        ..Default::default()
    };
    let tiny = SimWorkload {
        name: "mesh2x2",
        config,
        days: opts.days,
        seed: 0,
        reference: None,
    };
    match run_slice(&tiny, &opts, kernel) {
        Ok(slice) => {
            let couplings = slice.stats[0].sst_series.len().max(1) as f64;
            (
                slice.exchange.0 as f64 / couplings,
                slice.exchange.1 as f64 / couplings,
            )
        }
        Err(_) => (UNSTABLE, UNSTABLE),
    }
}

/// Good slices of one configuration with their walls and allocations.
#[derive(Default)]
struct Traced {
    slices: Vec<Slice>,
    /// Scaled wall of each slice.
    scaled_s: Vec<f64>,
    /// What a time read inside each slice must be multiplied by.
    scale: Vec<f64>,
    allocs: Vec<(u64, u64)>,
}

/// Run `n` more slices of `w` under a span each and add the good ones to
/// `out`; failures go to the report. Every slice must repeat the series of
/// the first one in `out` bit for bit.
fn traced_slices(
    cx: &mut Cx,
    out: &mut Traced,
    w: &SimWorkload,
    opts: &CoupledOptions,
    label: &str,
    n: usize,
    report: &mut Report,
) {
    let mut first: Option<Vec<u64>> = out.slices.first().map(Slice::series_bits);
    // Every rank runs the reference kernel twice inside the slice; its
    // allocations are not the program's.
    let kernel_runs = 2 * w.config.world_size() as u64;
    let (_, kernel_count, kernel_bytes) = COUNTER.during(|| cx.pace.kernel.time());
    for i in 0..n {
        let tracer = &mut *cx.tracer;
        let kernel = if opts.days > 0.0 {
            &cx.pace.kernel
        } else {
            cx.pace.setup_kernel()
        };
        let ((res, allocs), _) = tracer.span(&format!("{label}.run_coupled"), |_| {
            let (res, count, bytes) = COUNTER.during(|| run_slice(w, opts, kernel));
            let count = count.saturating_sub(kernel_count * kernel_runs);
            let bytes = bytes.saturating_sub(kernel_bytes * kernel_runs);
            (res, (count, bytes))
        });
        report.attempted += 1;
        let checked = res.and_then(|slice| {
            let check = if opts.days > 0.0 {
                check_slice(w, &slice, first.as_deref())
            } else {
                Ok(())
            };
            check.map(|()| slice)
        });
        match checked {
            Ok(slice) => {
                first.get_or_insert_with(|| slice.series_bits());
                let timing = slice.timing();
                cx.pace.note(&[slice.paced[0].0, slice.paced[0].2]);
                out.scaled_s.push(timing.scaled_s);
                out.scale.push(timing.scale());
                out.allocs.push(allocs);
                out.slices.push(slice);
            }
            Err(e) => {
                report.failed += 1;
                report.failures.push(format!("{label} slice {i}: {e}"));
            }
        }
    }
}

/// Most repeats of the workload (and of its sequential twin) under spans.
const MOST_SLICES: usize = 3;
/// Most serving ladders under spans.
const MOST_LADDERS: usize = 4;

fn sim_layers(cx: &mut Cx, w: &SimWorkload, untraced: &Aliases, report: &mut Report) {
    probes::sim_layers(cx, w);
    let days = w.days;

    // The workload, alternating with its recorder-off twin so that both
    // see the same minutes of machine, as many pairs as end before half
    // of the budget is used. Then its set-up twin.
    let (mut main, mut off, mut setup) = (Traced::default(), Traced::default(), Traced::default());
    let mut recorder_off = w.options(days);
    recorder_off.flightrec = false;
    let mut pair_s = 0.0;
    for pair in 0..MOST_SLICES {
        if pair > 0 && !cx.budget.fits(pair_s, 0.5) {
            break;
        }
        let t = Instant::now();
        traced_slices(cx, &mut main, w, &w.options(days), "workload", 1, report);
        traced_slices(cx, &mut off, w, &recorder_off, "recorder_off", 1, report);
        pair_s = t.elapsed().as_secs_f64();
    }
    let n = main.slices.len();
    traced_slices(
        cx,
        &mut setup,
        w,
        &w.options(0.0),
        "setup_twin",
        n + 1,
        report,
    );
    if main.slices.is_empty() || setup.slices.is_empty() {
        report.failures.push("no traced slice completed".into());
        return;
    }
    let setup_s = median(&setup.scaled_s);
    let net_s = median(&main.scaled_s) - setup_s;
    let wall_per_day = net_s / days;
    // Sections were read by the program's own clock, so they scale like
    // the slice they belong to. Rank 0's sections partition its wall; the
    // ocean rank's `ocn_run` is reported but not summed.
    let section = |t: &Traced, rank: usize, name: &str| {
        median(
            &t.slices
                .iter()
                .zip(&t.scale)
                .map(|(s, scale)| s.section_s(rank, name) * scale)
                .collect::<Vec<_>>(),
        )
    };
    let ocean_rank = w.config.world_size() - 1;
    let mut sections_s = 0.0;
    for name in SECTIONS {
        let on_root = section(&main, 0, name);
        sections_s += on_root;
        let reported = if name == "ocn_run" {
            section(&main, ocean_rank, name)
        } else {
            on_root
        };
        cx.set(
            &format!("esm.section.{name}_s_per_sim_day"),
            reported / days,
        );
    }
    cx.set(
        "esm.section_closure_frac",
        sections_s / median(&main.scaled_s),
    );
    cx.set(
        "esm.driver_residual_s_per_sim_day",
        (median(&main.scaled_s) - sections_s) / days,
    );
    let layer_s: f64 = ["atm", "ocn", "ice", "lnd", "cpl"]
        .iter()
        .map(|l| cx.out[&format!("{l}.s_per_sim_day")])
        .sum();

    // Set-up: what the build probes explain, and what is left.
    let builds_ms = cx.out["grid.geodesic_build_ms"]
        + cx.out["grid.tripolar_build_ms"]
        + cx.out["atm.dycore_build_ms"]
        + cx.out["cpl.remap_build_ms"]
        + cx.out["cpl.router_build_us"] / 1e3
        + cx.out["comm.world_spawn_us"] / 1e3
        + if w.config.single_domain {
            cx.out["ocn.model_build_ms"]
        } else {
            0.0 // built on the ocean rank while rank 0 builds the rest
        };
    cx.set("esm.setup_residual_ms", setup_s * 1e3 - builds_ms);

    // Counts, exact or unstable.
    let couplings = main.slices[0].stats[0].sst_series.len().max(1) as f64;
    let per = |v: f64, by: f64| if v == UNSTABLE { v } else { v / by };
    cx.set(
        "comm.msgs_per_sim_day",
        per(exact(main.slices.iter().map(|s| s.msgs)), days),
    );
    cx.set(
        "comm.bytes_per_sim_day",
        per(exact(main.slices.iter().map(|s| s.bytes)), days),
    );
    cx.set(
        "cpl.exchange_msgs_per_coupling",
        per(exact(main.slices.iter().map(|s| s.exchange.0)), couplings),
    );
    cx.set(
        "cpl.exchange_bytes_per_coupling",
        per(exact(main.slices.iter().map(|s| s.exchange.1)), couplings),
    );
    let tiny = CoupledConfig::test_tiny();
    for (label, strategy) in [
        ("mesh2x2_p2p", RearrangeStrategy::NonBlockingP2p),
        ("mesh2x2_a2a", RearrangeStrategy::AllToAll),
    ] {
        let kernel = &cx.pace.kernel;
        let ((msgs, bytes), _) = cx
            .tracer
            .span(&format!("cpl.exchange_counts.{label}"), |_| {
                exchange_counts(tiny.clone(), strategy, kernel)
            });
        cx.set(&format!("cpl.exchange_msgs_per_coupling.{label}"), msgs);
        cx.set(&format!("cpl.exchange_bytes_per_coupling.{label}"), bytes);
    }
    // Allocation counts of a whole run differ by a handful between repeats
    // (thread start-up), so the median is reported.
    let allocs: Vec<f64> = main.allocs.iter().map(|a| a.0 as f64).collect();
    let bytes: Vec<f64> = main.allocs.iter().map(|a| a.1 as f64).collect();
    cx.set("esm.allocs_per_sim_day", median(&allocs) / days);
    cx.set(
        "esm.alloc_mb_per_sim_day",
        median(&bytes) / days / (1024.0 * 1024.0),
    );

    // The layout twin: same problem, sequential single-rank layout.
    if w.name == BALANCED_2DOM {
        let twin_w = w.sequential_twin();
        let (mut twin, mut twin_setup) = (Traced::default(), Traced::default());
        let (full, zero) = (twin_w.options(days), twin_w.options(0.0));
        let mut slice_s = 0.0;
        for i in 0..MOST_SLICES {
            if i > 0 && !cx.budget.fits(slice_s, 0.68) {
                break;
            }
            let t = Instant::now();
            traced_slices(cx, &mut twin, &twin_w, &full, "sequential_twin", 1, report);
            slice_s = t.elapsed().as_secs_f64();
        }
        traced_slices(
            cx,
            &mut twin_setup,
            &twin_w,
            &zero,
            "sequential_twin.setup",
            twin.slices.len(),
            report,
        );
        if let (Some(t), Some(m)) = (twin.slices.first(), main.slices.first()) {
            if t.series_bits() != m.series_bits() {
                report
                    .failures
                    .push("two-domain series differ bitwise from the sequential twin".into());
            }
            let twin_net = median(&twin.scaled_s) - median(&twin_setup.scaled_s);
            cx.set("esm.layout_speedup", twin_net / net_s);
            let wait = section(&main, 0, "cpl_rearrange") - section(&twin, 0, "cpl_rearrange");
            cx.set("esm.ocn_wait_frac", wait / median(&main.scaled_s));
        }
    }

    // Always-on recorder cost: the default against flight recorder off.
    let ratios: Vec<f64> = main
        .scaled_s
        .iter()
        .zip(&off.scaled_s)
        .map(|(on, off)| on / off)
        .collect();
    if !ratios.is_empty() {
        cx.set("obs.recorder_overhead_pct", 100.0 * (median(&ratios) - 1.0));
    }
    // The probes run without allocation counts, so they close against the
    // untraced day.
    if untraced.op_s > 0.0 {
        cx.set("esm.layer_closure_frac", layer_s / untraced.op_s);
        cx.set(
            "trace.overhead_pct",
            100.0 * (wall_per_day / untraced.op_s - 1.0),
        );
    }

    // How far the run stays finite: as many days, 12 at most, as fit in
    // what is left of the budget at the pace of the slices above (which
    // paid for allocation counts; this run does not). The slices already
    // showed `days` to be finite.
    let s_per_day = median(&main.slices.iter().map(|s| s.paced[0].1).collect::<Vec<_>>()) / days;
    let fit_days = (((cx.budget.left_s() - 1.5) / s_per_day) * 4.0).floor() / 4.0;
    let horizon_days = fit_days.min(12.0);
    let mut horizon = days;
    if horizon_days > days {
        let kernel = &cx.pace.kernel;
        let (res, _) = cx.tracer.span("finite_horizon.run_coupled", |_| {
            run_slice(w, &w.options(horizon_days), kernel)
        });
        horizon = match res {
            Ok(slice) => {
                let s = &slice.stats[0];
                [&s.sst_series, &s.theta_series, &s.ke_series, &s.ice_series]
                    .into_iter()
                    .filter_map(|series| {
                        let per_day = series.len() as f64 / horizon_days;
                        series
                            .iter()
                            .position(|v| !v.is_finite())
                            .map(|i| (i + 1) as f64 / per_day)
                    })
                    .fold(horizon_days, f64::min)
            }
            Err(_) => 0.0,
        };
    }
    cx.set("esm.finite_horizon_days", horizon);
    report.notes.push(Metric::new(
        "finite_horizon.tried_days",
        horizon_days.max(days),
        "days",
    ));
}

fn serve_layers(
    cx: &mut Cx,
    w: &workloads::ServeWorkload,
    untraced: &Aliases,
    report: &mut Report,
) {
    let pool = serve::column_pool(w);

    // --- ai: the batched forward the workers call ---
    let svc = Service::start_warm(w.config.clone(), w.nlev, w.width, w.seed);
    let model = svc.registry().current();
    let mut per_sample = [0.0; 3];
    for (slot, b) in [1usize, 16, 64].into_iter().enumerate() {
        let batch: Vec<ColumnState> = pool[..b].to_vec();
        let s = cx.probe(&format!("ai.predict_batch.b{b}"), 400 / b.min(16), || {
            model.tendency.predict_batch(&batch)
        });
        cx.set(&format!("ai.predict_batch_us.b{b}"), s * 1e6);
        per_sample[slot] = s / b as f64;
    }
    cx.set("ai.batch_efficiency", per_sample[1] / per_sample[0]);

    // --- pp: the worker pool's execution space, one batch's worth ---
    probes::pp_layers(cx, w.config.max_batch * w.nlev * w.width);

    // --- serve: ladders under a span per rung ---
    let rung_s = w.rung_s;
    let mut samples = Vec::new();
    serve::run_rung(
        &svc,
        w,
        &pool,
        w.rungs[0],
        1.0f64.min(rung_s),
        &mut samples,
        0,
    );
    // As many ladders as end inside the budget.
    let mut rungs: Vec<Vec<(serve::Rung, f64, u64)>> = vec![Vec::new(); w.rungs.len()];
    let mut ladder_s = 0.0;
    for ladder in 0..MOST_LADDERS {
        if ladder > 0 && !cx.budget.fits(ladder_s, 0.95) {
            break;
        }
        let t = Instant::now();
        for (r, &rate) in w.rungs.iter().enumerate() {
            let tracer = &mut *cx.tracer;
            let ((rung, allocs), timing) = cx.pace.timed_beside(|| {
                tracer
                    .span(&format!("serve.rung.r{rate}"), |_| {
                        let (rung, allocs, _) = COUNTER.during(|| {
                            serve::run_rung(&svc, w, &pool, rate, rung_s, &mut samples, 0)
                        });
                        (rung, allocs)
                    })
                    .0
            });
            if r < w.checked_rungs {
                report.attempted += rung.sent;
                report.failed += rung.refused + rung.errored;
            }
            rungs[r].push((rung, timing.scale(), allocs));
        }
        ladder_s = t.elapsed().as_secs_f64();
    }
    let over = |r: usize, f: &dyn Fn(&serve::Rung, f64) -> f64| {
        median(
            &rungs[r]
                .iter()
                .map(|(rung, scale, _)| f(rung, *scale))
                .collect::<Vec<_>>(),
        )
    };
    for (r, rate) in RUNGS.iter().enumerate() {
        cx.set(
            &format!("serve.p50_ms.r{rate}"),
            over(r, &|g, s| g.p50_ms() * s),
        );
        cx.set(
            &format!("serve.p95_ms.r{rate}"),
            over(r, &|g, s| g.p95_ms() * s),
        );
        cx.set(
            &format!("serve.shed_frac.r{rate}"),
            over(r, &|g, _| g.refused as f64 / g.sent.max(1) as f64),
        );
    }
    // The highest rate that every ladder sustained, 0 if none.
    let sustained = |r: &Vec<(serve::Rung, f64, u64)>| r.iter().all(|(g, _, _)| g.sustained());
    cx.set(
        "serve_max_rate_rps",
        RUNGS
            .iter()
            .zip(&rungs)
            .filter(|(_, r)| sustained(r))
            .map(|(rate, _)| *rate as f64)
            .fold(0.0, f64::max),
    );
    cx.set("serve.submit_us", over(0, &|g, s| g.submit_us * s));
    cx.set(
        "serve.generator_lag_max_ms",
        rungs
            .iter()
            .flatten()
            .map(|(g, _, _)| g.generator_lag_ms)
            .fold(0.0, f64::max),
    );
    // Generator and service together, per request of the lowest rung.
    cx.set(
        "serve.allocs_per_req",
        median(
            &rungs[0]
                .iter()
                .map(|(g, _, allocs)| *allocs as f64 / g.sent.max(1) as f64)
                .collect::<Vec<_>>(),
        ),
    );
    // The service's own histograms cover the whole ladder, all rungs mixed.
    for (name, stat) in perf_snapshot(svc.obs()) {
        match name.as_str() {
            "perf.serve.queue_wait_p95_us" => cx.set("serve.queue_wait_p95_us", stat.value),
            "perf.serve.forward_p50_us" => cx.set("serve.forward_p50_us", stat.value),
            "perf.serve.batch_size_mean" => cx.set("serve.batch_size_mean", stat.value),
            _ => {}
        }
    }
    let top = w.rungs.len() - 1;
    let capacity = over(top, &|g, s| g.completions_per_s / s);
    if untraced.op_s > 0.0 && capacity > 0.0 {
        cx.set(
            "trace.overhead_pct",
            100.0 * ((1.0 / capacity) / untraced.op_s - 1.0),
        );
    }
    svc.drain();
}
