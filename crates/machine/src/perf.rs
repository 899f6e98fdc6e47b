//! The α–β/roofline scaling model.
//!
//! Wall time per simulated day decomposes as
//!
//! ```text
//! t(N) = t₀ · [ f_comp · (N₀/N)            — compute, perfectly parallel
//!             + f_bw   · (N₀/N)^(2/3) · κ(N)/κ(N₀)
//!                                           — halo bandwidth (surface/volume)
//!             + f_lat  · (1 + λ·log₂(N/N₀)) — latency + tree reductions ]
//! ```
//!
//! with κ(N) the cross-supernode contention factor of the fat tree. The
//! anchor `(N₀, SYPD₀)` and the split `(f_bw, f_lat, λ, escape)` are fitted
//! to the paper's measured points ([`crate::calibration`]); `f_comp` is the
//! remainder. Strong scaling, weak scaling, and efficiency all derive from
//! the same expression.

use serde::{Deserialize, Serialize};

use crate::calibration::ConfigCalibration;
use crate::topology::MachineSpec;

/// A model-produced point of a scaling sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SypdPoint {
    pub nodes: usize,
    pub units: usize,
    pub sypd: f64,
    pub efficiency: f64,
}

/// Describes a component workload for reporting purposes (grid points,
/// stepping); the scaling behaviour itself is carried by the fitted model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    pub name: String,
    /// Total 3-D grid points.
    pub gridpoints: u64,
    /// Model steps per simulated day (coupler-visible steps).
    pub steps_per_day: u64,
}

impl WorkloadSpec {
    pub fn new(name: &str, gridpoints: u64, steps_per_day: u64) -> Self {
        WorkloadSpec {
            name: name.to_owned(),
            gridpoints,
            steps_per_day,
        }
    }

    /// Point-steps per simulated day — the work unit the compute term
    /// scales with.
    pub fn work_per_day(&self) -> u64 {
        self.gridpoints * self.steps_per_day
    }
}

/// Fitted strong/weak scaling model for one configuration on one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingModel {
    pub machine: MachineSpec,
    pub anchor_nodes: usize,
    pub anchor_sypd: f64,
    /// Halo-bandwidth share of anchor time.
    pub f_bw: f64,
    /// Latency/synchronisation share of anchor time.
    pub f_lat: f64,
    /// Log-growth rate of the latency share.
    pub lambda: f64,
    /// Fraction of halo traffic escaping the supernode (pays
    /// oversubscription at scale).
    pub escape: f64,
}

impl ScalingModel {
    /// Relative time factor t(N)/t(N₀).
    pub fn time_factor(&self, nodes: usize) -> f64 {
        assert!(nodes >= 1);
        let n0 = self.anchor_nodes as f64;
        let n = nodes as f64;
        let f_comp = (1.0 - self.f_bw - self.f_lat).max(0.0);
        let kappa = |nn: usize| {
            let cross = self.machine.cross_supernode_fraction(nn) * self.escape;
            1.0 - cross + cross * self.machine.oversubscription
        };
        let comp = f_comp * (n0 / n);
        let bw = self.f_bw * (n0 / n).powf(2.0 / 3.0) * kappa(nodes) / kappa(self.anchor_nodes);
        let lat = self.f_lat * (1.0 + self.lambda * (n / n0).log2().max(0.0));
        comp + bw + lat
    }

    /// Modeled SYPD at `nodes`.
    pub fn sypd(&self, nodes: usize) -> f64 {
        self.anchor_sypd / self.time_factor(nodes)
    }

    /// Strong-scaling parallel efficiency vs the anchor.
    pub fn efficiency(&self, nodes: usize) -> f64 {
        let ideal = self.anchor_sypd * nodes as f64 / self.anchor_nodes as f64;
        self.sypd(nodes) / ideal
    }

    /// Weak-scaling time factor: work per node constant, so the compute
    /// term is flat and only communication grows.
    pub fn weak_time_factor(&self, nodes: usize) -> f64 {
        let n0 = self.anchor_nodes as f64;
        let n = nodes as f64;
        let f_comp = (1.0 - self.f_bw - self.f_lat).max(0.0);
        let kappa = |nn: usize| {
            let cross = self.machine.cross_supernode_fraction(nn) * self.escape;
            1.0 - cross + cross * self.machine.oversubscription
        };
        let bw = self.f_bw * kappa(nodes) / kappa(self.anchor_nodes);
        let lat = self.f_lat * (1.0 + self.lambda * (n / n0).log2().max(0.0));
        f_comp + bw + lat
    }

    /// Weak-scaling efficiency vs the anchor.
    pub fn weak_efficiency(&self, nodes: usize) -> f64 {
        1.0 / self.weak_time_factor(nodes)
    }

    /// Sweep the model over node counts.
    pub fn sweep(&self, nodes: &[usize]) -> Vec<SypdPoint> {
        nodes
            .iter()
            .map(|&n| SypdPoint {
                nodes: n,
                units: self.machine.units(n),
                sypd: self.sypd(n),
                efficiency: self.efficiency(n),
            })
            .collect()
    }

    /// Fit the four knobs to a measured configuration by grid search over
    /// physically-plausible ranges, minimising squared log-SYPD error. The
    /// first measured point is the anchor.
    pub fn fit(machine: MachineSpec, cal: &ConfigCalibration) -> Self {
        assert!(!cal.points.is_empty());
        let anchor = cal.points[0];
        let mut best = ScalingModel {
            machine: machine.clone(),
            anchor_nodes: anchor.nodes,
            anchor_sypd: anchor.sypd,
            f_bw: 0.0,
            f_lat: 0.0,
            lambda: 0.3,
            escape: 0.1,
        };
        let mut best_err = f64::INFINITY;
        for f_bw_i in 0..=20 {
            let f_bw = f_bw_i as f64 * 0.025;
            for f_lat_i in 0..=20 {
                let f_lat = f_lat_i as f64 * 0.025;
                if f_bw + f_lat > 0.9 {
                    continue;
                }
                for &lambda in &[0.0, 0.15, 0.3, 0.5, 0.8, 1.2] {
                    for &escape in &[0.0, 0.05, 0.15, 0.3] {
                        let m = ScalingModel {
                            machine: machine.clone(),
                            anchor_nodes: anchor.nodes,
                            anchor_sypd: anchor.sypd,
                            f_bw,
                            f_lat,
                            lambda,
                            escape,
                        };
                        let err: f64 = cal
                            .points
                            .iter()
                            .map(|p| (m.sypd(p.nodes) / p.sypd).ln().powi(2))
                            .sum();
                        if err < best_err {
                            best_err = err;
                            best = m;
                        }
                    }
                }
            }
        }
        best
    }

    /// Geometric-mean relative error of the fit over the measured points.
    pub fn fit_error(&self, cal: &ConfigCalibration) -> f64 {
        let s: f64 = cal
            .points
            .iter()
            .map(|p| (self.sypd(p.nodes) / p.sypd).ln().abs())
            .sum();
        (s / cal.points.len() as f64).exp() - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::paper_table2;

    #[test]
    fn time_factor_is_one_at_anchor() {
        let m = ScalingModel {
            machine: MachineSpec::sunway_oceanlight(),
            anchor_nodes: 1000,
            anchor_sypd: 0.5,
            f_bw: 0.2,
            f_lat: 0.1,
            lambda: 0.3,
            escape: 0.1,
        };
        assert!((m.time_factor(1000) - 1.0).abs() < 1e-12);
        assert!((m.sypd(1000) - 0.5).abs() < 1e-12);
        assert!((m.efficiency(1000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sypd_increases_sublinearly() {
        let m = ScalingModel {
            machine: MachineSpec::sunway_oceanlight(),
            anchor_nodes: 1000,
            anchor_sypd: 0.5,
            f_bw: 0.2,
            f_lat: 0.1,
            lambda: 0.3,
            escape: 0.1,
        };
        let s2 = m.sypd(2000);
        let s8 = m.sypd(8000);
        assert!(s2 > 0.5 && s2 < 1.0, "s2 = {s2}");
        assert!(s8 > s2 && s8 < 4.0, "s8 = {s8}");
        assert!(m.efficiency(8000) < m.efficiency(2000));
    }

    #[test]
    fn fits_reproduce_paper_within_tolerance() {
        // Every Table 2 configuration must be reproduced within 20 %
        // geometric-mean error (most are far tighter); this is the
        // quantitative guarantee behind the Table 2 / Fig 8a benches.
        for cal in paper_table2() {
            let machine = if cal.sunway {
                MachineSpec::sunway_oceanlight()
            } else {
                MachineSpec::orise()
            };
            let model = ScalingModel::fit(machine, &cal);
            let err = model.fit_error(&cal);
            assert!(
                err < 0.20,
                "{}: fit error {:.1}% with {:?}",
                cal.label,
                err * 100.0,
                (model.f_bw, model.f_lat, model.lambda, model.escape)
            );
        }
    }

    #[test]
    fn fitted_atm3_matches_largest_scale_efficiency() {
        let cal = paper_table2()
            .into_iter()
            .find(|c| c.label.contains("ATM 3km CPE"))
            .unwrap();
        let model = ScalingModel::fit(MachineSpec::sunway_oceanlight(), &cal);
        let last = *cal.points.last().unwrap();
        let eff = model.efficiency(last.nodes);
        // Paper: 40.3 % at 43 691 nodes.
        assert!((eff - 0.403).abs() < 0.12, "eff {eff}");
    }

    #[test]
    fn weak_efficiency_decreases_with_scale() {
        let m = ScalingModel {
            machine: MachineSpec::sunway_oceanlight(),
            anchor_nodes: 683,
            anchor_sypd: 1.0,
            f_bw: 0.05,
            f_lat: 0.02,
            lambda: 0.3,
            escape: 0.1,
        };
        let e1 = m.weak_efficiency(683);
        let e2 = m.weak_efficiency(43_691);
        assert!((e1 - 1.0).abs() < 1e-12);
        assert!(e2 < 1.0 && e2 > 0.5, "weak eff {e2}");
    }

    #[test]
    fn workload_spec_work_accounting() {
        let w = WorkloadSpec::new("atm-1km", 8_600_000_000, 720);
        assert_eq!(w.work_per_day(), 8_600_000_000 * 720);
    }
}
