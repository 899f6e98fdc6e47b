//! Command line.
//!
//! ```text
//! ap3esm-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! ap3esm-benchmark --all [--seed N] [--seconds S] [--trace] [--quick]
//! ap3esm-benchmark --selfcheck [--seconds S]
//! ap3esm-benchmark --manifest                                      print BENCHMARK.json
//! ```

use std::path::PathBuf;
use std::process::{Command, Stdio};

use ap3esm::obs::json::Json;

use crate::catalog::{self, END_TO_END, RUN_SECONDS};
use crate::layers;
use crate::report::{Metric, Report};
use crate::run::{self, Budget, RunArgs};
use crate::stats::{median, quartiles_exclusive, spread};
use crate::workloads::{self, DEFAULT_SEED};

/// Runs per set of `--selfcheck`: what the driver makes.
const SELFCHECK_RUNS: usize = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    all: bool,
    selfcheck: bool,
    manifest: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        all: false,
        selfcheck: false,
        manifest: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        let num = |name: &str, v: String| v.parse::<f64>().map_err(|e| format!("{name}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => a.seconds = num("--seconds", value("--seconds")?)?,
            "--trace" => {
                // `--trace 0|1` from the driver, bare `--trace` from a person.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => a.quick = true,
            "--all" => a.all = true,
            "--selfcheck" => a.selfcheck = true,
            "--manifest" => a.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

/// Where result and trace files go: under the cargo target directory.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}

fn write_file(name: &str, json: &Json) {
    let dir = out_dir();
    let res = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(name), format!("{json}\n")));
    if let Err(e) = res {
        eprintln!("benchmark: cannot write {}: {e}", dir.join(name).display());
    }
}

fn run_args(a: &Args, workload: &str) -> RunArgs {
    RunArgs {
        workload: workload.to_string(),
        seed: a.seed,
        seconds: a.seconds,
        quick: a.quick,
    }
}

/// The driver's form of the command line for one run.
fn driver_args(workload: &str, seed: u64, seconds: f64, trace: bool, quick: bool) -> Vec<String> {
    let mut args: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]
    .map(String::from)
    .to_vec();
    if quick {
        args.push("--quick".into());
    }
    args
}

/// Parse a child's driver line back into metrics.
fn parse_driver_line(line: &str) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let json = Json::parse(line)?;
    let correct = json.get("correct") == Some(&Json::Bool(true));
    let count = |key| json.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        return Err("no metrics on the result line".into());
    };
    let metrics = metrics
        .iter()
        .map(|(name, v)| {
            Metric::new(
                name,
                v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                v.get("unit").and_then(Json::as_str).unwrap_or(""),
            )
        })
        .collect();
    Ok((correct, count("attempted"), count("failed"), metrics))
}

/// Run a binary of this package to the end and return its last stdout line.
fn child_last_line(exe: &PathBuf, args: &[String]) -> Result<String, String> {
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .map(str::to_string)
        .ok_or_else(|| format!("{} printed nothing (status {})", exe.display(), out.status))
}

/// One workload, one pass. The per-layer pass spends a fifth of its time
/// on an untraced reference run (counters off), the rest on the layers.
fn one_run(a: &Args, workload: &str) -> Result<Report, String> {
    let unknown = || format!("unknown workload {workload:?}");
    let mut args = run_args(a, workload);
    if !a.trace {
        return run::end_to_end(&args).map(|(r, _)| r).ok_or_else(unknown);
    }
    let budget = Budget::start(a.seconds);
    args.seconds = (a.seconds * 0.2).max(1.0);
    let (reference, untraced) = run::end_to_end(&args).ok_or_else(unknown)?;
    write_file(&format!("result-{workload}-ref.json"), &reference.to_json());
    args.seconds = a.seconds;
    let (mut report, tracer) = layers::per_layer(&args, &untraced, &budget).ok_or_else(unknown)?;
    write_file(&format!("trace-{workload}.json"), &tracer.to_json());
    report.attempted += reference.attempted;
    report.failed += reference.failed;
    report.failures.extend(reference.failures);
    report.notes.extend(reference.metrics);
    Ok(report)
}

fn write_result(report: &Report) {
    let suffix = if report.traced { "-layers" } else { "" };
    write_file(
        &format!("result-{}{suffix}.json", report.workload),
        &report.to_json(),
    );
}

fn finish(report: &Report) -> i32 {
    write_result(report);
    eprint!("{}", report.table());
    println!("{}", report.driver_line());
    i32::from(!report.correct())
}

/// Every workload, each in a child process of its own so that `peak_rss_mb`
/// is that workload's alone.
fn all(a: &Args) -> i32 {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("benchmark: cannot find my own executable");
        return 2;
    };
    let mut status = 0;
    for (workload, why) in workloads::ALL {
        println!("# {workload}: {why}");
        // `--quick` only validates names, and the per-layer pass writes its
        // untraced reference run's result too.
        let passes: &[bool] = match (a.trace, a.quick) {
            (false, _) => &[false],
            (true, true) => &[true],
            (true, false) => &[false, true],
        };
        for &trace in passes {
            let args = driver_args(workload, a.seed, a.seconds, trace, a.quick);
            match child_last_line(&exe, &args).and_then(|l| parse_driver_line(&l)) {
                Ok((correct, attempted, failed, metrics)) => {
                    for m in &metrics {
                        println!("{workload} {} {:?} {}", m.name, m.value, m.unit);
                    }
                    println!(
                        "{workload} operations attempted {attempted} failed {failed} correct {correct}"
                    );
                    if !correct {
                        status = 1;
                    }
                }
                Err(e) => {
                    eprintln!("benchmark: {workload}: {e}");
                    status = 1;
                }
            }
        }
    }
    println!("# result files: {}", out_dir().display());
    status
}

/// Two full sets of ten untraced runs per workload, each run with another
/// seed; prints per metric both medians, quartiles, spreads, and the
/// difference between the sets against the bound, as the driver judges them.
fn selfcheck(a: &Args) -> i32 {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("benchmark: cannot find my own executable");
        return 2;
    };
    println!(
        "# Baseline: two sets of {} runs per workload, {} s each",
        SELFCHECK_RUNS, a.seconds
    );
    println!();
    println!("Spread is (Q3 - Q1) / median over a set's runs, with Python's");
    println!("`statistics.quantiles(values, n=4)`. `worse` is how much worse the second");
    println!("set's median is than the first's. A metric passes when both spreads and");
    println!("`worse` are within its bound (`setup_s`: `worse` only).");
    println!();
    let mut status = 0;
    for (workload, _) in workloads::ALL {
        // values[set][metric] = one value per run
        let mut values = vec![vec![Vec::<f64>::new(); END_TO_END.len()]; 2];
        for (set, per_metric) in values.iter_mut().enumerate() {
            for run in 0..SELFCHECK_RUNS {
                let seed = a.seed + (set * SELFCHECK_RUNS + run) as u64;
                let args = driver_args(workload, seed, a.seconds, false, false);
                match child_last_line(&exe, &args).and_then(|l| parse_driver_line(&l)) {
                    Ok((true, _, _, metrics)) => {
                        for (slot, m) in per_metric.iter_mut().zip(&metrics) {
                            slot.push(m.value);
                        }
                    }
                    Ok((false, ..)) => {
                        eprintln!("benchmark: {workload} seed {seed}: incorrect");
                        status = 1;
                    }
                    Err(e) => {
                        eprintln!("benchmark: {workload} seed {seed}: {e}");
                        status = 1;
                    }
                }
            }
        }
        println!("## {workload}");
        println!();
        println!("| metric | unit | set | median | Q1 | Q3 | spread | worse | bound | verdict |");
        println!("|---|---|---|---|---|---|---|---|---|---|");
        for (i, m) in END_TO_END.iter().enumerate() {
            let (first, second) = (&values[0][i], &values[1][i]);
            if first.len() < 2 || second.len() < 2 {
                println!("| {} | {} | - | no data | | | | | | FAIL |", m.name, m.unit);
                status = 1;
                continue;
            }
            let (m1, m2) = (median(first), median(second));
            let worse = if m.better == "higher" {
                (m1 - m2) / m1
            } else {
                (m2 - m1) / m1
            };
            let spreads = [spread(first), spread(second)];
            let spread_ok = m.name == "setup_s" || spreads.iter().all(|s| *s <= m.bound);
            let ok = spread_ok && worse <= m.bound;
            if !ok {
                status = 1;
            }
            for (set, (vals, med)) in [(first, m1), (second, m2)].into_iter().enumerate() {
                let (q1, q3) = quartiles_exclusive(vals);
                println!(
                    "| {} | {} | {} | {:.5} | {:.5} | {:.5} | {:.4} | {} | {} | {} |",
                    m.name,
                    m.unit,
                    set + 1,
                    med,
                    q1,
                    q3,
                    spreads[set],
                    if set == 1 {
                        format!("{worse:+.4}")
                    } else {
                        String::new()
                    },
                    m.bound,
                    if set == 1 {
                        if ok {
                            "ok"
                        } else {
                            "FAIL"
                        }
                    } else {
                        ""
                    },
                );
            }
        }
        println!();
    }
    status
}

/// Returns the exit code.
pub fn main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return 2;
        }
    };
    if a.manifest {
        println!("{}", catalog::manifest());
        return 0;
    }
    if a.selfcheck {
        return selfcheck(&a);
    }
    if a.all {
        return all(&a);
    }
    let Some(workload) = a.workload.clone() else {
        eprintln!("benchmark: give --workload <name>, --all, --selfcheck or --manifest");
        return 2;
    };
    match one_run(&a, &workload) {
        Ok(report) => finish(&report),
        Err(e) => {
            eprintln!("benchmark: {e}");
            2
        }
    }
}
