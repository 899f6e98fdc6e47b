//! AP3ESM configurations — the Table 1 presets and scaled-down test sizes.

use std::fmt;

use serde::{Deserialize, Serialize};

use ap3esm_cpl::clock::CouplingClock;
use ap3esm_cpl::rearrange::RearrangeStrategy;
use ap3esm_grid::icosahedral::GeodesicCounts;
use ap3esm_grid::mask::MaskGenerator;
use ap3esm_grid::tripolar::TripolarGrid;

/// A structured configuration error: which field is wrong and why. The
/// whole point of [`CoupledConfig::validate`] is that a bad setup names
/// its field upfront instead of tripping an assert three layers down in
/// the clock, the decomposition, or the world-size check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending `CoupledConfig` field (or field pair).
    pub field: &'static str,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CoupledConfig.{}: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(field: &'static str, message: String) -> Result<(), ConfigError> {
    Err(ConfigError { field, message })
}

/// The five paper configurations (atmosphere km vs ocean km).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Resolution {
    /// 1 km atm + 1 km ocn.
    R1v1,
    /// 3 km atm + 2 km ocn (the production configuration).
    R3v2,
    /// 6 km atm + 3 km ocn.
    R6v3,
    /// 10 km atm + 5 km ocn.
    R10v5,
    /// 25 km atm + 10 km ocn.
    R25v10,
}

impl Resolution {
    pub const ALL: [Resolution; 5] = [
        Resolution::R1v1,
        Resolution::R3v2,
        Resolution::R6v3,
        Resolution::R10v5,
        Resolution::R25v10,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            Resolution::R1v1 => "1v1",
            Resolution::R3v2 => "3v2",
            Resolution::R6v3 => "6v3",
            Resolution::R10v5 => "10v5",
            Resolution::R25v10 => "25v10",
        }
    }

    /// (atm km, ocn km).
    pub fn km(&self) -> (f64, f64) {
        match self {
            Resolution::R1v1 => (1.0, 1.0),
            Resolution::R3v2 => (3.0, 2.0),
            Resolution::R6v3 => (6.0, 3.0),
            Resolution::R10v5 => (10.0, 5.0),
            Resolution::R25v10 => (25.0, 10.0),
        }
    }

    /// GRIST glevel of the atmosphere component.
    pub fn atm_glevel(&self) -> u32 {
        ap3esm_grid::glevel_for_resolution_km(self.km().0)
    }

    /// Ocean `(nlon, nlat)` from the Table 1 presets.
    pub fn ocn_dims(&self) -> (usize, usize) {
        let target = self.km().1;
        let &(_, nlon, nlat) = ap3esm_grid::tripolar::TABLE1_PRESETS
            .iter()
            .min_by(|a, b| {
                (a.0 - target)
                    .abs()
                    .partial_cmp(&(b.0 - target).abs())
                    .expect("finite")
            })
            .expect("presets");
        (nlon, nlat)
    }

    /// Total grid points of the pair (the Table 1 "Total Grids" column):
    /// atmosphere cells × 30 levels + ocean columns × 80 levels.
    pub fn total_gridpoints(&self) -> u64 {
        let atm = GeodesicCounts::at_glevel(self.atm_glevel());
        let (nlon, nlat) = self.ocn_dims();
        atm.cells as u64 * 30 + (nlon * nlat) as u64 * 80
    }
}

/// Full coupled-model configuration (sizes are free so tests can shrink the
/// same code path the presets use).
#[derive(Debug, Clone)]
pub struct CoupledConfig {
    /// Atmosphere icosahedral refinement level.
    pub atm_glevel: u32,
    pub atm_nlev: usize,
    /// Ocean grid dims.
    pub ocn_nlon: usize,
    pub ocn_nlat: usize,
    pub ocn_nlev: usize,
    /// Ocean process mesh (domain O size = px·py; world = 1 + px·py).
    pub ocn_px: usize,
    pub ocn_py: usize,
    /// Couplings per day (atm, ocn, ice) — paper: (180, 36, 180).
    pub couplings_per_day: (i64, i64, i64),
    /// Rearrangement strategy for coupler traffic.
    pub strategy: RearrangeStrategy,
    /// Use the AI physics suite in the atmosphere (needs trained modules).
    pub ai_physics: bool,
    /// Mask seed (synthetic continents).
    pub mask_seed: u64,
    /// §5.1.2 task-level parallelism strategy: `false` = two concurrent
    /// task domains (ATM+ICE+LND+CPL | OCN, the paper's production layout);
    /// `true` = all components sequential within a single domain (the
    /// paper's alternative layout, used here as the ablation baseline).
    pub single_domain: bool,
}

impl CoupledConfig {
    /// A laptop-scale configuration exercising every coupled code path:
    /// G3 atmosphere (642 cells, ~880 km) + 36×24 ocean, 4 ocean ranks.
    pub fn test_tiny() -> Self {
        CoupledConfig {
            atm_glevel: 3,
            atm_nlev: 5,
            ocn_nlon: 36,
            ocn_nlat: 24,
            ocn_nlev: 6,
            ocn_px: 2,
            ocn_py: 2,
            couplings_per_day: (8, 4, 8),
            strategy: RearrangeStrategy::NonBlockingP2p,
            ai_physics: false,
            mask_seed: 20250704,
            single_domain: false,
        }
    }

    /// A slightly larger demo configuration (examples/figures).
    pub fn demo_small() -> Self {
        CoupledConfig {
            atm_glevel: 4,
            atm_nlev: 8,
            ocn_nlon: 72,
            ocn_nlat: 46,
            ocn_nlev: 10,
            ocn_px: 2,
            ocn_py: 2,
            couplings_per_day: (24, 12, 24),
            strategy: RearrangeStrategy::NonBlockingP2p,
            ai_physics: false,
            mask_seed: 20250704,
            single_domain: false,
        }
    }

    /// World size: 1 domain-A rank + the ocean ranks in the two-domain
    /// layout; a single rank in the sequential layout.
    pub fn world_size(&self) -> usize {
        if self.single_domain {
            1
        } else {
            1 + self.ocn_px * self.ocn_py
        }
    }

    /// The synthetic-continent generator every component's mask comes from.
    pub fn mask(&self) -> MaskGenerator {
        MaskGenerator {
            seed: self.mask_seed,
            ..MaskGenerator::default()
        }
    }

    /// The global ocean grid (every rank builds its own copy).
    pub fn ocean_grid(&self) -> TripolarGrid {
        TripolarGrid::new(self.ocn_nlon, self.ocn_nlat, self.ocn_nlev, self.mask())
    }

    /// The coupling clock at this configuration's cadence, at t = 0.
    pub fn clock(&self) -> CouplingClock {
        let (atm, ocn, ice) = self.couplings_per_day;
        CouplingClock::new(atm, ocn, ice)
    }

    /// Upfront consistency check, called by both
    /// [`run_coupled`](crate::coupled::run_coupled) and the scenario loader. Every rule
    /// here corresponds to a failure that would otherwise surface deep in
    /// the driver — an `Alarm` divisibility assert, a `BlockDecomp2d`
    /// bounds assert, or the silent 1×1 override of the ocean mesh in the
    /// sequential layout — and names the offending field instead.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.atm_glevel == 0 || self.atm_glevel > 12 {
            return err(
                "atm_glevel",
                format!("must be 1..=12 (G12 ≈ 1 km), got {}", self.atm_glevel),
            );
        }
        if self.atm_nlev < 2 {
            return err(
                "atm_nlev",
                format!("needs at least 2 levels, got {}", self.atm_nlev),
            );
        }
        if self.ocn_nlon < 4 || self.ocn_nlat < 4 {
            return err(
                "ocn_nlon/ocn_nlat",
                format!(
                    "ocean grid must be at least 4x4, got {}x{}",
                    self.ocn_nlon, self.ocn_nlat
                ),
            );
        }
        if self.ocn_nlev < 2 {
            return err(
                "ocn_nlev",
                format!("needs at least 2 levels, got {}", self.ocn_nlev),
            );
        }
        if self.ocn_px < 1 || self.ocn_py < 1 {
            return err(
                "ocn_px/ocn_py",
                format!(
                    "process mesh must be at least 1x1, got {}x{}",
                    self.ocn_px, self.ocn_py
                ),
            );
        }
        if self.ocn_px > self.ocn_nlon || self.ocn_py > self.ocn_nlat {
            return err(
                "ocn_px/ocn_py",
                format!(
                    "process mesh {}x{} exceeds the {}x{} ocean grid \
                     (every rank needs at least one column)",
                    self.ocn_px, self.ocn_py, self.ocn_nlon, self.ocn_nlat
                ),
            );
        }
        if self.single_domain && self.ocn_px * self.ocn_py != 1 {
            return err(
                "single_domain",
                format!(
                    "the sequential layout runs the ocean inline on rank 0; \
                     set ocn_px=ocn_py=1 (got {}x{})",
                    self.ocn_px, self.ocn_py
                ),
            );
        }
        const DAY: i64 = 86_400;
        for (name, per_day) in [
            ("couplings_per_day.0 (atm)", self.couplings_per_day.0),
            ("couplings_per_day.1 (ocn)", self.couplings_per_day.1),
            ("couplings_per_day.2 (ice)", self.couplings_per_day.2),
        ] {
            if per_day <= 0 {
                return Err(ConfigError {
                    field: "couplings_per_day",
                    message: format!("{name} must be positive, got {per_day}"),
                });
            }
            if DAY % per_day != 0 {
                return Err(ConfigError {
                    field: "couplings_per_day",
                    message: format!(
                        "{name} = {per_day} does not divide the {DAY} s day \
                         evenly (the coupling clock needs whole-second periods)"
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_pairs() {
        assert_eq!(Resolution::R3v2.label(), "3v2");
        assert_eq!(Resolution::R3v2.km(), (3.0, 2.0));
        assert_eq!(Resolution::R1v1.atm_glevel(), 12);
        assert_eq!(Resolution::R25v10.atm_glevel(), 8);
    }

    #[test]
    fn ocn_dims_follow_table1() {
        assert_eq!(Resolution::R1v1.ocn_dims(), (36000, 22018));
        assert_eq!(Resolution::R3v2.ocn_dims(), (18000, 11511));
        assert_eq!(Resolution::R25v10.ocn_dims(), (3600, 2302));
    }

    #[test]
    fn total_gridpoints_ordering_matches_paper() {
        // Totals must decrease monotonically from 1v1 to 25v10 and match
        // the paper's order of magnitude (7.2e10 at 1v1, 5.5e8 at 25v10).
        let totals: Vec<u64> = Resolution::ALL
            .iter()
            .map(|r| r.total_gridpoints())
            .collect();
        for w in totals.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert!(totals[0] > 6e10 as u64 && totals[0] < 9e10 as u64);
        assert!(totals[4] > 2e8 as u64 && totals[4] < 9e8 as u64);
    }

    #[test]
    fn test_config_world_size() {
        let c = CoupledConfig::test_tiny();
        assert_eq!(c.world_size(), 5);
    }

    #[test]
    fn validate_accepts_the_shipped_presets() {
        CoupledConfig::test_tiny().validate().unwrap();
        CoupledConfig::demo_small().validate().unwrap();
        // The chaos campaign's 3x1 mesh and the shrunken 2x1 reference.
        let mut c = CoupledConfig::test_tiny();
        (c.ocn_px, c.ocn_py) = (3, 1);
        c.validate().unwrap();
        (c.ocn_px, c.ocn_py) = (2, 1);
        c.validate().unwrap();
        // The sequential-layout ablation.
        let mut s = CoupledConfig::test_tiny();
        s.single_domain = true;
        (s.ocn_px, s.ocn_py) = (1, 1);
        s.validate().unwrap();
    }

    /// An edit that makes a valid configuration invalid.
    type Breakage = fn(&mut CoupledConfig);

    #[test]
    fn validate_names_the_offending_field() {
        let cases: [(&str, Breakage); 12] = [
            ("atm_glevel", |c| c.atm_glevel = 0),
            ("atm_glevel", |c| c.atm_glevel = 13),
            ("atm_nlev", |c| c.atm_nlev = 1),
            ("ocn_nlon/ocn_nlat", |c| c.ocn_nlat = 2),
            ("ocn_nlev", |c| c.ocn_nlev = 0),
            ("ocn_px/ocn_py", |c| c.ocn_px = 0),
            // Mesh wider than the grid: the BlockDecomp2d assert, upfront.
            ("ocn_px/ocn_py", |c| c.ocn_px = 37),
            ("ocn_px/ocn_py", |c| c.ocn_py = 25),
            // Sequential layout with a >1 mesh was silently overridden.
            ("single_domain", |c| c.single_domain = true),
            // Non-divisor coupling cadence: the Alarm assert, upfront.
            ("couplings_per_day", |c| c.couplings_per_day.0 = 7),
            ("couplings_per_day", |c| c.couplings_per_day.1 = 0),
            ("couplings_per_day", |c| c.couplings_per_day.2 = -4),
        ];
        for (field, mutate) in cases {
            let mut c = CoupledConfig::test_tiny();
            mutate(&mut c);
            let e = c.validate().expect_err(field);
            assert_eq!(e.field, field, "{e}");
            // The Display form names the field for log grepping.
            assert!(e.to_string().contains(field), "{e}");
        }
    }
}
