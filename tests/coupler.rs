//! The one coupled driver (`esm::Coupler`): sequencing of its single
//! `step()` over fake components, the packed layout of the ocean exchange,
//! the atmosphere's exported precipitation rate, and the subset analogue of
//! `scenario.rs::full_esm_member_is_bitwise_run_coupled`.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ap3esm::comm::{CommError, FaultInjector, FaultPlan, Rank};
use ap3esm::cpl::avect::{A2X_FIELDS, X2A_FIELDS};
use ap3esm::cpl::{AttrVect, Rearranger};
use ap3esm::esm::component::fitted_atm_config;
use ap3esm::esm::{Atm, Component, CoupledOptions, CoupledStats, Coupler, Parts};
use ap3esm::grid::BlockDecomp2d;
use ap3esm::io::IoError;
use ap3esm::ocn::model::OcnForcing;
use ap3esm::prelude::*;

type Log = Arc<Mutex<Vec<String>>>;

/// A component that only records what the coupler does to it, and the
/// bundle it was last handed (all fields, packed in declaration order).
struct Fake {
    name: &'static str,
    log: Log,
    imported: Vec<f64>,
}

impl Fake {
    fn new(name: &'static str, log: &Log) -> Option<Fake> {
        Some(Fake {
            name,
            log: Arc::clone(log),
            imported: Vec::new(),
        })
    }

    fn note(&self, what: String) {
        self.log.lock().unwrap().push(format!("{}.{what}", self.name));
    }
}

impl Component for Fake {
    fn import(&mut self, av: &AttrVect) {
        self.imported = av.as_slice().to_vec();
        self.note("import".into());
    }

    fn run(&mut self, _rank: &Rank, seconds: f64) -> Result<(), CommError> {
        self.note(format!("run({seconds})"));
        Ok(())
    }

    fn export(&self, _av: &mut AttrVect) {
        self.note("export".into());
    }

    fn diagnostic(&self) -> f64 {
        1.0
    }

    fn save(&self, _dir: &Path) -> Result<(), IoError> {
        Ok(())
    }

    fn restore(&mut self, _dir: &Path) -> Result<(), IoError> {
        Ok(())
    }
}

/// `test_tiny` (8/4/8 couplings per day) with a 1×1 ocean.
fn tiny(single_domain: bool) -> CoupledConfig {
    CoupledConfig {
        ocn_px: 1,
        ocn_py: 1,
        single_domain,
        ..CoupledConfig::test_tiny()
    }
}

/// Step `cpl` through `days` and drain the last ocean export, panicking on a
/// communication failure.
fn run_days<A: Component, O: Component, I: Component, L: Component>(
    rank: &Rank,
    cpl: &mut Coupler<A, O, I, L>,
    days: f64,
) -> CoupledStats {
    let mut stats = CoupledStats::default();
    while (cpl.clock.time as f64) < days * 86_400.0 {
        let step = cpl.step(rank, &mut stats);
        assert_eq!(step.comm_fault, None);
    }
    assert_eq!(cpl.finish(rank, &mut stats), None);
    stats
}

#[test]
fn step_sequences_import_run_export_per_alarm() {
    let config = tiny(true);
    let grid = config.ocean_grid();
    let log = Log::default();
    let stats = World::new(1).run(|rank| {
        let parts = (
            Fake::new("atm", &log),
            Fake::new("ocn", &log),
            Fake::new("ice", &log),
            Fake::new("lnd", &log),
        );
        let mut cpl = Coupler::assemble(rank, &config, &grid, 4, parts);
        run_days(rank, &mut cpl, 1.0)
    });
    // Assembly seeds every export vector, then eight 10 800 s base steps:
    // atm, lnd and ice couple on each, the ocean on every other one.
    let mut want: Vec<String> = ["atm", "lnd", "ice", "ocn"]
        .iter()
        .map(|c| format!("{c}.export"))
        .collect();
    for tick in 0..8 {
        for (name, seconds, rings) in [
            ("atm", 10_800, true),
            ("lnd", 10_800, true),
            ("ice", 10_800, true),
            ("ocn", 21_600, tick % 2 == 0),
        ] {
            if rings {
                want.push(format!("{name}.import"));
                want.push(format!("{name}.run({seconds})"));
                want.push(format!("{name}.export"));
            }
        }
    }
    assert_eq!(*log.lock().unwrap(), want);
    let stats = &stats[0];
    assert_eq!(stats.theta_series, vec![1.0; 8]);
    assert_eq!(stats.ice_series, vec![1.0; 8]);
    assert_eq!(stats.ke_series, vec![1.0; 4]);
    assert_eq!(stats.sst_series.len(), 4);
}

#[test]
fn absent_components_are_never_touched_and_exchange_counts_hold() {
    let config = tiny(false);
    let grid = config.ocean_grid();
    let log = Log::default();
    let world = World::new(config.world_size());
    world.run(|rank| {
        // The two-domain layout with nothing but an ocean on rank 1.
        let ocn = Fake::new("ocn", &log).filter(|_| rank.id() == 1);
        let mut cpl: Coupler<Fake, Fake, Fake, Fake> =
            Coupler::assemble(rank, &config, &grid, 0, (None, ocn, None, None));
        run_days(rank, &mut cpl, 1.0);
    });
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 1 + 4 * 3, "{log:?}");
    assert!(log.iter().all(|entry| entry.starts_with("ocn.")), "{log:?}");
    // Four ocean couplings, one packed message each way between the two
    // ranks: 4 forcing fields out; back, 3 surface fields and the scalar
    // tail — the ocean's kinetic energy, then one busy-seconds slot per rank.
    let traffic = |tag| {
        Rearranger::wire_tags_for(tag)
            .iter()
            .fold((0, 0), |(m, b), &t| {
                let (tm, tb) = world.stats().tag_traffic(t);
                (m + tm, b + tb)
            })
    };
    let field_bytes = (grid.ncols() * 8) as u64;
    assert_eq!(traffic(21), (4, 4 * 4 * field_bytes));
    assert_eq!(traffic(22), (4, 4 * (3 * field_bytes + 3 * 8)));
}

/// One ocean coupling of the two-domain layout over a fake ocean on rank 1,
/// the forcing prescribed on rank 0 with a different value at every point of
/// every field. Returns what the ocean imported and whether rank 1's step
/// reported a communication failure.
fn one_scatter(world: World) -> (Vec<f64>, bool) {
    let config = tiny(false);
    let grid = config.ocean_grid();
    let log = Log::default();
    let mut out = world.run(|rank| {
        let ocn = Fake::new("ocn", &log).filter(|_| rank.id() == 1);
        let mut cpl: Coupler<Fake, Fake, Fake, Fake> =
            Coupler::assemble(rank, &config, &grid, 0, (None, ocn, None, None));
        for (i, v) in cpl.x2o.as_mut_slice().iter_mut().enumerate() {
            *v = 1.0 + i as f64;
        }
        let step = cpl.step(rank, &mut CoupledStats::default());
        (cpl.ocn.map(|ocn| ocn.imported), step.comm_fault.is_some())
    });
    let (imported, faulted) = out.remove(1);
    (imported.expect("rank 1 holds the ocean"), faulted)
}

/// The scatter is one message holding every field at its declared offset:
/// field `k` of the import is points `k·n .. (k+1)·n` of what rank 0 packed.
#[test]
fn scatter_packs_fields_at_their_declared_offsets() {
    let n = tiny(false).ocean_grid().ncols();
    let (imported, faulted) = one_scatter(World::new(2));
    assert!(!faulted);
    let want: Vec<f64> = (0..4 * n).map(|i| 1.0 + i as f64).collect();
    assert_eq!(imported, want);
    // `qnet` is the third of `X2O_FIELDS`.
    assert_eq!(imported[2 * n], 1.0 + (2 * n) as f64);
}

/// Fault plans address the n-th message on a tag, which is now the n-th
/// coupling: dropping the first scatter starves the whole import, not one
/// field of it, and the starved rank reports the failure.
#[test]
fn dropped_scatter_starves_the_whole_import() {
    let scatter_p2p_tag = Rearranger::wire_tags_for(21)[1];
    let plan = FaultPlan::parse(&format!("drop src=0 dst=1 tag={scatter_p2p_tag} nth=1\n"))
        .expect("plan parses");
    let world = World::new(2)
        .with_recv_timeout(Duration::from_millis(300))
        .with_fault_injector(Arc::new(FaultInjector::new(plan)));
    let (imported, faulted) = one_scatter(world);
    assert!(faulted, "the starved rank must see the timeout");
    assert!(imported.iter().all(|v| *v == 0.0), "{imported:?}");
}

/// The standalone atmosphere used to divide the period's precipitation by
/// one model step; the one `Atm` exports the mean rate over the period.
#[test]
fn atm_exports_precipitation_rate_over_the_coupling_period() {
    let config = CoupledConfig::test_tiny();
    let period = 86_400.0;
    let grid = Arc::new(GeodesicGrid::new(config.atm_glevel));
    let dt_model = fitted_atm_config(grid.mean_spacing_km(), period).dt_model;
    assert!(period / dt_model >= 2.0, "one model step per coupling");
    let n = grid.ncells();
    World::new(1).run(|rank| {
        let mut atm = Atm::new(Arc::clone(&grid), &config, &CoupledOptions::default(), period);
        // A supersaturated atmosphere over a warm, wet, sunlit surface.
        atm.state.q.fill(0.03);
        let mut x2a = AttrVect::new(n, X2A_FIELDS);
        x2a.get_mut("tskin").fill(303.0);
        x2a.get_mut("wetness").fill(1.0);
        x2a.get_mut("coszr").fill(0.8);
        let mut a2x = AttrVect::new(n, A2X_FIELDS);
        let mut rained = 0.0;
        for _ in 0..2 {
            let before = atm.state.precip_accum.clone();
            atm.import(&x2a);
            atm.run(rank, period).expect("atmosphere run");
            atm.export(&mut a2x);
            for ((rate, now), before) in a2x.get("precip").iter().zip(&atm.state.precip_accum).zip(&before) {
                let fallen = now - before;
                assert!((rate * period - fallen).abs() <= 1e-12 * fallen.abs(), "{rate} vs {fallen}");
                rained += fallen;
            }
        }
        assert!(rained > 0.0, "no precipitation to measure");
    });
}

/// An ocean-only campaign member is exactly a `Coupler` holding only `Ocn`
/// under prescribed climatological forcing.
#[test]
fn ocean_only_member_is_bitwise_a_directly_built_coupler() {
    let text = "\
name subset-equiv
seed 11

scenario ocean-baseline
model ocean-only
grid tiny
days 0.5
";
    let catalog = Catalog::parse(text).expect("parse");
    catalog.validate().expect("validate");
    let opts = CampaignOptions {
        out_dir: std::env::temp_dir().join(format!("ap3esm-subset-equiv-{}", std::process::id())),
        write_series: false,
        ..CampaignOptions::default()
    };
    let report = run_campaign(&catalog, &opts);
    assert_eq!(report.violations, 0, "{}", report.table);
    let member = &report.outcomes[0].members[0];

    let config = tiny(true);
    let grid = config.ocean_grid();
    let direct = World::new(1).run(|rank| {
        let parts = Parts {
            ocn: true,
            ..Parts::default()
        };
        let mut cpl = Coupler::build(rank, &config, &CoupledOptions::default(), &grid, parts);
        let decomp = BlockDecomp2d::new(config.ocn_nlon, config.ocn_nlat, 1, 1);
        let clim = OcnForcing::climatology(&grid, &decomp, 0);
        cpl.x2o.set("taux", &clim.taux);
        cpl.x2o.set("qnet", &clim.qnet);
        run_days(rank, &mut cpl, 0.5)
    });
    for (name, direct) in [("sst", &direct[0].sst_series), ("ke", &direct[0].ke_series)] {
        let (_, runner) = member.series.iter().find(|(n, _)| n == name).expect(name);
        let runner: Vec<u64> = runner.iter().map(|&(_, v)| v.to_bits()).collect();
        let direct: Vec<u64> = direct.iter().map(|v| v.to_bits()).collect();
        assert_eq!(runner, direct, "{name}");
        assert_eq!(runner.len(), 2);
    }
    let _ = std::fs::remove_dir_all(&opts.out_dir);
}
