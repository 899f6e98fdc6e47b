//! The untraced run of one workload: the four end-to-end metrics.

use std::time::Instant;

use crate::catalog::END_TO_END;
use crate::nproc;
use crate::pace::Pace;
use crate::report::{Metric, Report};
use crate::serve::{self, over_windows};
use crate::sim::{self, SYPD_PER_DAYS_PER_S};
use crate::stats::median;
use crate::workloads::{self, SERVE_BURST};

/// The time a run may take: `--seconds`, from when the run started.
pub struct Budget {
    started: Instant,
    seconds: f64,
}

impl Budget {
    pub fn start(seconds: f64) -> Self {
        Budget {
            started: Instant::now(),
            seconds,
        }
    }

    pub fn left_s(&self) -> f64 {
        self.seconds - self.started.elapsed().as_secs_f64()
    }

    /// Whether a step of `step_s` seconds started now would end before
    /// share `frac` of the whole budget is used.
    pub fn fits(&self, step_s: f64, frac: f64) -> bool {
        self.left_s() - step_s >= (1.0 - frac) * self.seconds
    }
}

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// `--quick`: a tenth of the work, to validate names and files only.
    pub quick: bool,
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end quantities under the issue's names, which the per-layer
/// pass reports as measured by the untraced reference run before it.
#[derive(Debug, Clone, Default)]
pub struct Aliases {
    pub sypd: f64,
    pub serve_p50_ms: f64,
    pub serve_p95_ms: f64,
    pub serve_capacity_rps: f64,
    pub fail_frac: f64,
    /// Scaled seconds per operation, for `trace.overhead_pct`.
    pub op_s: f64,
}

pub fn report_shell(args: &RunArgs, traced: bool, threads: usize) -> Report {
    let nproc = nproc();
    Report {
        workload: args.workload.clone(),
        seed: args.seed,
        traced,
        nproc,
        oversubscribed: nproc < 2 || threads > nproc,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        notes: Vec::new(),
    }
}

fn machine_notes(report: &mut Report, pace: &Pace) {
    report.notes.push(Metric::new(
        "machine.kernel_ms",
        median(&pace.kernel_s) * 1e3,
        "ms",
    ));
    let slowest = pace.kernel_s.iter().copied().fold(0.0, f64::max);
    report
        .notes
        .push(Metric::new("machine.kernel_max_ms", slowest * 1e3, "ms"));
}

/// Fill `report.metrics` with the four end-to-end metrics in catalog order.
fn push_end_to_end(report: &mut Report, throughput: f64, latency_ms: f64, setup_s: f64) {
    let values = [throughput, latency_ms, setup_s, peak_rss_mb()];
    for (m, v) in END_TO_END.iter().zip(values) {
        report.metrics.push(Metric::new(m.name, v, m.unit));
    }
}

pub fn end_to_end(args: &RunArgs) -> Option<(Report, Aliases)> {
    let mut pace = Pace::start(workloads::mix_of(&args.workload));
    if args.workload == SERVE_BURST {
        let w = workloads::serve_workload(args.seed, args.quick);
        let mut report = report_shell(args, false, 1 + w.config.workers);
        let run = serve::measure(&w, args.seconds, &mut pace);
        let (attempted, failed) = run.operations();
        report.attempted = attempted;
        report.failed = failed;
        report.failures = run.failures.clone();
        let capacity = over_windows(&run.capacity, |r, scale| r.completions_per_s / scale);
        let p50 = over_windows(&run.latency, |r, scale| r.p50_ms() * scale);
        let p95 = over_windows(&run.latency, |r, scale| r.p95_ms() * scale);
        push_end_to_end(&mut report, capacity, p50, run.setup_s());
        let aliases = Aliases {
            serve_p50_ms: p50,
            serve_p95_ms: p95,
            serve_capacity_rps: capacity,
            fail_frac: failed as f64 / attempted.max(1) as f64,
            op_s: 1.0 / capacity,
            ..Default::default()
        };
        let windows = run.latency.iter().chain(&run.capacity);
        report.notes.extend([
            Metric::new("serve_p50_ms", aliases.serve_p50_ms, "ms"),
            Metric::new("serve_p95_ms", aliases.serve_p95_ms, "ms"),
            Metric::new("serve_capacity_rps", aliases.serve_capacity_rps, "req/s"),
            Metric::new("fail_frac", aliases.fail_frac, "ratio"),
            Metric::new("windows_per_rate", run.latency.len() as f64, "count"),
            Metric::new("samples_checked", run.samples_checked as f64, "count"),
            Metric::new(
                "raw.p50_ms",
                over_windows(&run.latency, |r, _| r.p50_ms()),
                "ms",
            ),
            Metric::new(
                "raw.capacity_rps",
                over_windows(&run.capacity, |r, _| r.completions_per_s),
                "req/s",
            ),
            Metric::new(
                "generator_lag_max_ms",
                windows.map(|(r, _)| r.generator_lag_ms).fold(0.0, f64::max),
                "ms",
            ),
        ]);
        run.service.drain();
        machine_notes(&mut report, &pace);
        return Some((report, aliases));
    }

    let w = workloads::sim_workload(&args.workload, args.seed, args.quick)?;
    let mut report = report_shell(args, false, w.runnable_threads());
    let run = sim::measure(&w, args.seconds, &mut pace);
    report.attempted = run.attempted;
    report.failed = run
        .failures
        .iter()
        .filter(|f| f.starts_with("slice"))
        .count() as u64;
    report.failures = run.failures.clone();
    if let Some(last) = &run.last {
        // What `workloads::SimWorkload::reference` must hold for this seed.
        let (sst, theta) = last.final_means();
        report
            .notes
            .push(Metric::new("final_mean_sst", sst, "degC"));
        report
            .notes
            .push(Metric::new("final_mean_theta", theta, "K"));
    }
    if run.slices.is_empty() || run.setup.is_empty() {
        report.failures.push("no slice completed".into());
        return Some((report, Aliases::default()));
    }
    let days_per_s = run.days_per_s(&w);
    push_end_to_end(&mut report, days_per_s, 1e3 / days_per_s, run.setup_s());
    let aliases = Aliases {
        sypd: days_per_s * SYPD_PER_DAYS_PER_S,
        fail_frac: report.failed as f64 / report.attempted.max(1) as f64,
        op_s: 1.0 / days_per_s,
        ..Default::default()
    };
    let raw_setup_s = median(&run.setup.iter().map(|t| t.raw_s).collect::<Vec<_>>());
    report.notes.extend([
        Metric::new("sypd", aliases.sypd, "sim-years/day"),
        Metric::new("fail_frac", aliases.fail_frac, "ratio"),
        Metric::new("slices", run.slices.len() as f64, "count"),
        Metric::new("days_per_slice", w.days, "days"),
        Metric::new("raw.slice_s", run.raw_slice_s(), "s"),
        Metric::new("raw.setup_s", raw_setup_s, "s"),
        Metric::new(
            "raw.sypd",
            w.days / (run.raw_slice_s() - raw_setup_s) * SYPD_PER_DAYS_PER_S,
            "sim-years/day",
        ),
    ]);
    machine_notes(&mut report, &pace);
    Some((report, aliases))
}
