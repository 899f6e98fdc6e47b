//! End-to-end measurement of `serve-burst`: an open-loop generator on one
//! thread against `ap3esm::serve::Service` with one worker, so never more
//! than two threads are runnable. Requests are timed from the instant they
//! were due, not from when the generator got round to sending them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ap3esm::ai::modules::{ColumnState, ColumnTendency};
use ap3esm::serve::{Service, Ticket};

use crate::pace::{Pace, Timing};
use crate::stats::{median, quantile};
use crate::workloads::{ServeWorkload, LATENCY_RUNG};

/// Latency limit on p95 for a rate to count as sustained.
pub const P95_LIMIT_MS: f64 = 30.0;
/// Most requests that may be unanswered when a sustained rung ends.
pub const BACKLOG_LIMIT: usize = 256;
/// Sampled responses compared against a direct `predict_batch`.
const SAMPLES: usize = 64;
const COLUMN_POOL: usize = 256;

fn column(nlev: usize, phase: f64) -> ColumnState {
    let level = |f: &dyn Fn(f64) -> f64| (0..nlev).map(|k| f(k as f64)).collect();
    ColumnState {
        u: level(&|k| 5.0 * (0.3 * k + phase).sin()),
        v: level(&|k| 2.0 * (0.2 * k + phase).cos()),
        t: level(&|k| 295.0 - 4.0 * k),
        q: level(&|k| 0.01 * (-0.4 * k).exp()),
        p: level(&|k| 1.0e5 * (1.0 - k / (nlev + 1) as f64)),
    }
}

/// The request columns: phases drawn from the seed (splitmix64).
pub fn column_pool(w: &ServeWorkload) -> Vec<ColumnState> {
    let mut z = w.seed;
    (0..COLUMN_POOL)
        .map(|_| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            column(w.nlev, (x >> 11) as f64 / (1u64 << 53) as f64 * 100.0)
        })
        .collect()
}

fn finite(t: &ColumnTendency) -> bool {
    [&t.du, &t.dv, &t.dt, &t.dq]
        .into_iter()
        .all(|f| f.iter().all(|v| v.is_finite()))
}

/// One rate held for one interval.
#[derive(Debug, Clone, Default)]
pub struct Rung {
    pub rate: u32,
    pub sent: u64,
    /// Refused at submission (shed, rate-limited, draining).
    pub refused: u64,
    /// Resolved with an error or a non-finite tendency.
    pub errored: u64,
    /// Completions seen inside the interval, per second of it.
    pub completions_per_s: f64,
    /// Milliseconds from due time to the poll that saw the response, of
    /// every accepted request (those answered after the interval too).
    pub latency_ms: Vec<f64>,
    /// Requests still unanswered when the interval ended.
    pub outstanding_at_end: usize,
    /// Worst lateness of the generator itself.
    pub generator_lag_ms: f64,
    /// Mean microseconds one `submit` call took.
    pub submit_us: f64,
}

impl Rung {
    pub fn p50_ms(&self) -> f64 {
        quantile(&self.latency_ms, 0.50)
    }
    pub fn p95_ms(&self) -> f64 {
        quantile(&self.latency_ms, 0.95)
    }
    pub fn fail_frac(&self) -> f64 {
        (self.refused + self.errored) as f64 / self.sent.max(1) as f64
    }
    /// p95 within the limit, at most 1 % failed, no growing backlog.
    pub fn sustained(&self) -> bool {
        self.p95_ms() <= P95_LIMIT_MS
            && self.fail_frac() <= 0.01
            && self.outstanding_at_end <= BACKLOG_LIMIT
    }
}

/// A response kept for the correctness check.
pub struct Sample {
    pub column: usize,
    pub got: ColumnTendency,
}

struct InFlight {
    due: Instant,
    ticket: Ticket,
    column: usize,
}

/// Hold `rate` req/s for `secs` seconds: bursts of `w.burst` columns due at
/// the same instant. Adds `keep` responses, spread over the interval, to
/// `samples`.
pub fn run_rung(
    svc: &Service,
    w: &ServeWorkload,
    pool: &[ColumnState],
    rate: u32,
    secs: f64,
    samples: &mut Vec<Sample>,
    keep: usize,
) -> Rung {
    let keep_until = samples.len() + keep;
    let period = Duration::from_secs_f64(w.burst as f64 / rate as f64);
    let bursts = (secs / period.as_secs_f64()).floor().max(1.0) as u32;
    let mut rung = Rung {
        rate,
        ..Default::default()
    };
    let mut in_flight: Vec<InFlight> = Vec::with_capacity(1024);
    let mut completed_inside = 0u64;
    let mut submit_s = 0.0f64;
    let mut next_column = 0usize;
    let sample_every = ((bursts as usize * w.burst) / keep.max(1)).max(1);
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(secs);

    // One sweep over the unanswered tickets.
    let sweep =
        |in_flight: &mut Vec<InFlight>, rung: &mut Rung, samples: &mut Vec<Sample>| -> u64 {
            let mut seen = 0;
            let mut i = 0;
            while i < in_flight.len() {
                let Some(result) = in_flight[i].ticket.try_wait() else {
                    i += 1;
                    continue;
                };
                let now = Instant::now();
                let f = in_flight.swap_remove(i);
                seen += 1;
                match result {
                    Ok(t) if finite(&t) => {
                        rung.latency_ms
                            .push(now.saturating_duration_since(f.due).as_secs_f64() * 1e3);
                        if samples.len() < keep_until && f.column.is_multiple_of(sample_every) {
                            samples.push(Sample {
                                column: f.column % pool.len(),
                                got: t,
                            });
                        }
                    }
                    _ => rung.errored += 1,
                }
            }
            seen
        };

    for b in 0..bursts {
        let due = t0 + period * b;
        while Instant::now() < due {
            completed_inside += sweep(&mut in_flight, &mut rung, samples);
            std::hint::spin_loop();
        }
        let started = Instant::now();
        rung.generator_lag_ms = rung
            .generator_lag_ms
            .max(started.saturating_duration_since(due).as_secs_f64() * 1e3);
        for _ in 0..w.burst {
            rung.sent += 1;
            match svc.submit("bench", pool[next_column % pool.len()].clone()) {
                Ok(ticket) => in_flight.push(InFlight {
                    due,
                    ticket,
                    column: next_column,
                }),
                Err(_) => rung.refused += 1,
            }
            next_column += 1;
        }
        submit_s += started.elapsed().as_secs_f64();
    }
    while Instant::now() < end {
        completed_inside += sweep(&mut in_flight, &mut rung, samples);
        std::hint::spin_loop();
    }
    rung.outstanding_at_end = in_flight.len();
    rung.completions_per_s = completed_inside as f64 / secs;
    rung.submit_us = submit_s * 1e6 / rung.sent.max(1) as f64;
    // Let the backlog clear so the next interval starts from an idle service.
    while !in_flight.is_empty() {
        sweep(&mut in_flight, &mut rung, samples);
        std::hint::spin_loop();
    }
    rung
}

/// `start_warm` to the first response, then shut down. Seconds.
pub fn setup_once(w: &ServeWorkload, pool: &[ColumnState]) -> Result<f64, String> {
    let t = Instant::now();
    let svc = Service::start_warm(w.config.clone(), w.nlev, w.width, w.seed);
    let first = svc
        .submit("bench", pool[0].clone())
        .map_err(|e| e.to_string())?
        .wait()
        .map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    svc.drain();
    if finite(&first) {
        Ok(secs)
    } else {
        Err("non-finite first response".into())
    }
}

/// Compare the kept responses against a direct forward of the same columns.
/// Returns how many are off by more than 1e-6.
pub fn wrong_samples(svc: &Service, pool: &[ColumnState], samples: &[Sample]) -> usize {
    let model = svc.registry().current();
    samples
        .iter()
        .filter(|s| {
            let direct = model
                .tendency
                .predict_batch(std::slice::from_ref(&pool[s.column]));
            let direct = &direct[0];
            let pairs = [
                (&s.got.du, &direct.du),
                (&s.got.dv, &direct.dv),
                (&s.got.dt, &direct.dt),
                (&s.got.dq, &direct.dq),
            ];
            let wrong = pairs
                .into_iter()
                .any(|(a, b)| a.iter().zip(b).any(|(x, y)| (x - y).abs() > 1e-6));
            wrong
        })
        .count()
}

/// An end-to-end run's measurements: one entry per window, in order, with
/// the machine-speed timing of the window.
pub struct ServeRun {
    /// Seconds each set-up took, as read.
    pub setup: Vec<f64>,
    /// Windows at the latency rate (`LATENCY_RUNG`); their requests are the
    /// run's operations.
    pub latency: Vec<(Rung, Timing)>,
    /// Windows at the top rate, over capacity.
    pub capacity: Vec<(Rung, Timing)>,
    pub failures: Vec<String>,
    pub samples_checked: usize,
    /// The service the windows ran against, kept for its `obs` counters.
    pub service: Arc<Service>,
}

/// Median over `windows` of `f(rung, scale)`, where `scale` is the factor
/// that brings a time read inside the window to reference speed.
pub fn over_windows(windows: &[(Rung, Timing)], f: impl Fn(&Rung, f64) -> f64) -> f64 {
    median(
        &windows
            .iter()
            .map(|(rung, timing)| f(rung, timing.scale()))
            .collect::<Vec<_>>(),
    )
}

impl ServeRun {
    /// Not scaled to the reference kernel: four fifths of a set-up is the
    /// lone first request waiting out `max_wait` for a batch to fill, which
    /// takes 2 ms at any machine speed.
    pub fn setup_s(&self) -> f64 {
        median(&self.setup)
    }

    /// Requests of the latency windows, and how many of them failed.
    pub fn operations(&self) -> (u64, u64) {
        (
            self.latency.iter().map(|(r, _)| r.sent).sum(),
            self.latency
                .iter()
                .map(|(r, _)| r.refused + r.errored)
                .sum(),
        )
    }
}

const SETUP_REPEATS: usize = 25;
const WARMUP_S: f64 = 1.0;
/// Most windows of each rate in one run.
const MOST_WINDOWS: usize = 256;

/// Set-up repeats (at least two, the rest while under a twentieth of
/// `budget_s`), a warm-up second at the latency rate, then a latency window
/// and a capacity window of `w.window_s` seconds in turns until `budget_s`
/// is used (at least one of each).
pub fn measure(w: &ServeWorkload, budget_s: f64, pace: &mut Pace) -> ServeRun {
    let started = Instant::now();
    let pool = column_pool(w);
    let mut failures = Vec::new();
    let mut setup = Vec::new();
    for i in 0..SETUP_REPEATS {
        if i >= 2 && started.elapsed().as_secs_f64() > 0.05 * budget_s {
            break;
        }
        match setup_once(w, &pool) {
            Ok(secs) => setup.push(secs),
            Err(e) => failures.push(format!("set-up: {e}")),
        }
    }
    let service = Service::start_warm(w.config.clone(), w.nlev, w.width, w.seed);
    let (latency_rate, top_rate) = (w.rungs[LATENCY_RUNG], w.rungs[w.rungs.len() - 1]);
    let mut samples = Vec::new();
    let warmup_s = WARMUP_S.min(4.0 * w.window_s);
    run_rung(&service, w, &pool, latency_rate, warmup_s, &mut samples, 0);

    let (mut latency, mut capacity) = (Vec::new(), Vec::new());
    // What a pair of windows took so far at most, kernel and drain included.
    let mut pair_s = 2.0 * (w.window_s + 0.1);
    while latency.is_empty() || budget_s - started.elapsed().as_secs_f64() >= pair_s {
        let pair_started = Instant::now();
        // The first latency window supplies the checked responses.
        let keep = if latency.is_empty() { SAMPLES } else { 0 };
        latency.push(pace.timed_beside(|| {
            run_rung(
                &service,
                w,
                &pool,
                latency_rate,
                w.window_s,
                &mut samples,
                keep,
            )
        }));
        capacity.push(
            pace.timed_beside(|| {
                run_rung(&service, w, &pool, top_rate, w.window_s, &mut samples, 0)
            }),
        );
        pair_s = pair_s.max(pair_started.elapsed().as_secs_f64());
        if latency.len() >= MOST_WINDOWS {
            break;
        }
    }
    let wrong = wrong_samples(&service, &pool, &samples);
    if wrong > 0 {
        failures.push(format!(
            "{wrong} of {} sampled responses differ from a direct predict_batch by more than 1e-6",
            samples.len()
        ));
    }
    ServeRun {
        setup,
        latency,
        capacity,
        failures,
        samples_checked: samples.len(),
        service,
    }
}
