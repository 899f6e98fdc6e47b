//! Every metric name the benchmark emits, with its unit and direction.
//! `BENCHMARK.json` is generated from these tables (`--manifest`) and a
//! test keeps the two equal.

use crate::workloads;
use ap3esm::obs::json::Json;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The metrics every workload reports with `--trace 0`. An "operation" is a
/// simulated day on the coupled workloads and a request on `serve-burst`.
///
/// The rule for a bound: the issue's figure (5 % for `sypd`, 10 % for
/// latency and memory, 20 % for set-up), widened, in steps of 0.05, to
/// twice the widest difference seen between the medians of two sets of ten
/// runs and to three times the widest spread seen inside one set. Three
/// times, because the driver refuses a benchmark whose own ten runs spread
/// further than the bound, and its machine is noisier than the sandbox
/// these were taken on: with `throughput` at 0.15 it saw `serve-burst`
/// spread 14-15 % where BASELINE.md then had 5.5 %. Since then each workload
/// is scaled by the kernel mix that slows as it does (`pace.rs`) and the
/// serving run takes its medians over 45 short windows instead of 7 long
/// ones. Sets of ten now spread 1-4 % on `throughput` and `latency_ms`
/// (`balanced-2dom` 5-6 %) with the raw numbers under them moving by a
/// third, and medians of two sets differ by up to 5 %: 0.20 for both. At
/// 0.25 a fifth of the SYPD could go and count as no regression.
/// `peak_rss_mb` (spread 4 % at most) keeps 0.15 because a tenth of
/// 9-18 MB is one megabyte, a single field workspace. `setup_s` is a few
/// milliseconds to a few hundredths of a second and spreads 3-16 %: 0.25,
/// the largest the driver allows. A speed-up below the bound is not shown
/// by one median against another; it takes the paired runs of the
/// choosing-metrics guide.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "throughput",
        unit: "ops/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_ms",
        unit: "ms",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

/// Seconds one `--trace 0` run measures for.
pub const RUN_SECONDS: u32 = 28;

/// Offered rates of the serving ladder, req/s.
pub const RUNGS: [u32; 4] = [1500, 3000, 4500, 8000];

/// (name, unit, better) of every per-layer metric, in report order. The
/// first six are the end-to-end quantities under the names the issue gave
/// them, measured by the pass's untraced reference run; the contract's four generic
/// metrics above are what the driver bounds.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit, better| v.push((name.to_string(), unit, better));
    add("sypd", "sim-years/day", "higher");
    add("serve_p50_ms", "ms", "lower");
    add("serve_p95_ms", "ms", "lower");
    add("serve_capacity_rps", "req/s", "higher");
    add("serve_max_rate_rps", "req/s", "higher");
    add("fail_frac", "ratio", "lower");

    add("grid.geodesic_build_ms", "ms", "lower");
    add("grid.tripolar_build_ms", "ms", "lower");
    add("atm.dycore_build_ms", "ms", "lower");
    add("atm.model_step_ns_per_cell_level", "ns", "lower");
    add("atm.dyn_substep_ns_per_cell_level", "ns", "lower");
    add("atm.tracer_substep_ns_per_cell_level", "ns", "lower");
    add("atm.pdc_apply_ns_per_cell_level", "ns", "lower");
    add("atm.s_per_sim_day", "s", "lower");
    add("physics.column_ns_per_level", "ns", "lower");
    add("ocn.model_build_ms", "ms", "lower");
    add("ocn.step_ns_per_point", "ns", "lower");
    add("ocn.step_allocs", "count", "lower");
    add("ocn.halo_msgs_per_step", "count", "lower");
    add("ocn.s_per_sim_day", "s", "lower");
    add("ice.step_ns_per_col", "ns", "lower");
    add("ice.s_per_sim_day", "s", "lower");
    add("lnd.step_ns_per_cell", "ns", "lower");
    add("lnd.s_per_sim_day", "s", "lower");
    add("cpl.remap_build_ms", "ms", "lower");
    add("cpl.router_build_us", "us", "lower");
    add("cpl.remap_apply_ns_per_dst", "ns", "lower");
    add("cpl.rearrange_roundtrip_us.p2p", "us", "lower");
    add("cpl.rearrange_roundtrip_us.a2a", "us", "lower");
    add("cpl.s_per_sim_day", "s", "lower");
    for suffix in ["", ".mesh2x2_p2p", ".mesh2x2_a2a"] {
        add(
            &format!("cpl.exchange_msgs_per_coupling{suffix}"),
            "count",
            "lower",
        );
        add(
            &format!("cpl.exchange_bytes_per_coupling{suffix}"),
            "bytes",
            "lower",
        );
    }
    add("comm.world_spawn_us", "us", "lower");
    add("comm.p2p_roundtrip_us", "us", "lower");
    add("comm.allreduce_us", "us", "lower");
    add("comm.halo_exchange_us", "us", "lower");
    add("comm.msgs_per_sim_day", "count", "lower");
    add("comm.bytes_per_sim_day", "bytes", "lower");
    for section in SECTIONS {
        add(
            &format!("esm.section.{section}_s_per_sim_day"),
            "s",
            "lower",
        );
    }
    add("esm.section_closure_frac", "ratio", "higher");
    add("esm.layer_closure_frac", "ratio", "higher");
    add("esm.driver_residual_s_per_sim_day", "s", "lower");
    add("esm.setup_residual_ms", "ms", "lower");
    add("esm.ocn_wait_frac", "ratio", "lower");
    add("esm.layout_speedup", "ratio", "higher");
    add("esm.allocs_per_sim_day", "count", "lower");
    add("esm.alloc_mb_per_sim_day", "MB", "lower");
    add("esm.finite_horizon_days", "days", "higher");
    add("ai.predict_batch_us.b1", "us", "lower");
    add("ai.predict_batch_us.b16", "us", "lower");
    add("ai.predict_batch_us.b64", "us", "lower");
    add("ai.batch_efficiency", "ratio", "lower");
    for what in ["p50_ms", "p95_ms", "shed_frac"] {
        for rate in RUNGS {
            let unit = if what == "shed_frac" { "ratio" } else { "ms" };
            add(&format!("serve.{what}.r{rate}"), unit, "lower");
        }
    }
    add("serve.queue_wait_p95_us", "us", "lower");
    add("serve.forward_p50_us", "us", "lower");
    add("serve.batch_size_mean", "count", "higher");
    add("serve.submit_us", "us", "lower");
    add("serve.allocs_per_req", "count", "lower");
    add("serve.generator_lag_max_ms", "ms", "lower");
    add("pp.for_each_ns_per_item.serial", "ns", "lower");
    add("pp.for_each_ns_per_item.threads", "ns", "lower");
    add("obs.recorder_overhead_pct", "%", "lower");
    add("trace.overhead_pct", "%", "lower");
    add("machine.kernel_ms", "ms", "lower");
    v
}

/// The driver sections of `CoupledStats::per_section_seconds`.
pub const SECTIONS: [&str; 5] = ["atm_run", "ocn_run", "cpl_rearrange", "ice_run", "lnd_run"];

/// Counts that must repeat exactly; one that does not is reported as
/// `unstable` (−1 on the driver line, which only carries numbers).
pub const UNSTABLE: f64 = -1.0;

/// What the driver runs from the root of a checkout, with `CARGO_TARGET_DIR`
/// set; it appends `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json` as the driver's contract wants it.
pub fn manifest() -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(COMMAND.iter().map(|c| s(c)).collect()),
        ),
        ("paths".into(), Json::Arr(vec![s("benchmark")])),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|(name, why)| {
                        Json::Obj(vec![("name".into(), s(name)), ("why".into(), s(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better)),
                            ("bound".into(), Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::Obj(vec![
                            ("name".into(), s(name)),
                            ("unit".into(), s(unit)),
                            ("better".into(), s(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_matches_the_committed_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(committed, manifest(), "regenerate with --manifest");
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let layers = per_layer();
        assert!(layers.len() <= 128);
        let mut names: Vec<&str> = layers.iter().map(|(n, _, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(workloads::ALL.iter().map(|(n, _)| *n));
        for n in &names {
            assert!(ok_name(n), "{n}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (n, unit, better) in &layers {
            assert!(ok_unit(unit), "{n}: {unit}");
            assert!(["higher", "lower"].contains(better));
        }
        for m in &END_TO_END {
            assert!(ok_unit(m.unit) && m.bound <= 0.25);
        }
        for (_, why) in workloads::ALL {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(manifest().to_string().len() < 64 * 1024);
    }
}
