//! Regenerates §5.2.3: group-wise-scaling mixed precision accuracy.
//!
//! LICOM criterion: area-weighted RMSD of daily-mean temperature, salinity
//! and SSH over a 30-day window between FP64 and mixed runs (paper: 0.018 °C,
//! 0.0098 psu, 0.0005 m). GRIST criterion: relative L2 of surface pressure
//! and relative vorticity below 5 %.
//!
//! The mixed run stores the prognostic fields through `GroupScaled` FP32
//! at every step (compute in FP64 registers, store scaled FP32 — the
//! paper's kernel shape).

use ap3esm_atm::dycore::{Dycore, DycoreConfig};
use ap3esm_atm::state::AtmState;
use ap3esm_bench::{banner, write_csv};
use ap3esm_comm::World;
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::mask::MaskGenerator;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_grid::GeodesicGrid;
use ap3esm_ocn::model::{OcnConfig, OcnForcing, OcnModel};
use ap3esm_precision::metrics::DailyMeanAccumulator;
use ap3esm_precision::{area_weighted_rmsd, relative_l2, AccuracyBudget, GroupScaled};

const GROUP: usize = 64;

fn squeeze(field: &mut [f64]) {
    let gs = GroupScaled::from_f64(field, GROUP);
    field.copy_from_slice(&gs.to_f64());
}

fn run_ocean(mixed: bool, days: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let grid = TripolarGrid::new(72, 46, 10, MaskGenerator::default());
    let config = OcnConfig::for_grid(72, 46, 10, 1, 1);
    let world = World::new(1);
    let mut out = world.run(|rank| {
        let decomp = BlockDecomp2d::new(72, 46, 1, 1);
        let mut model = OcnModel::new(&grid, config.clone(), 0);
        let forcing = OcnForcing::climatology(&grid, &decomp, 0);
        let ncols = model.state.ni * model.state.nj;
        let mut acc_t = DailyMeanAccumulator::new(ncols);
        let mut acc_s = DailyMeanAccumulator::new(ncols);
        let mut acc_eta = DailyMeanAccumulator::new(ncols);
        let steps_per_day = (86_400.0 / config.dt_baroclinic).round() as usize;
        // "Day" shortened to a fixed step count so the experiment finishes
        // in seconds; the *protocol* (30 daily means) is the paper's.
        let steps_per_day = steps_per_day.min(4);
        for _ in 0..days {
            for _ in 0..steps_per_day {
                model.step(rank, &forcing);
                if mixed {
                    let slab = model.state.eta.len();
                    let (t, s) = (&mut model.state.t, &mut model.state.s);
                    for level in t.chunks_exact_mut(slab).chain(s.chunks_exact_mut(slab)) {
                        squeeze(level);
                    }
                    squeeze(&mut model.state.eta);
                }
            }
            let st = &model.state;
            let mut t0 = Vec::with_capacity(ncols);
            let mut s0 = Vec::with_capacity(ncols);
            let mut e0 = Vec::with_capacity(ncols);
            for j in 0..st.nj {
                for i in 0..st.ni {
                    let idx = st.at(i, j);
                    t0.push(st.t[idx]);
                    s0.push(st.s[idx]);
                    e0.push(st.eta[idx]);
                }
            }
            acc_t.add_day(&t0);
            acc_s.add_day(&s0);
            acc_eta.add_day(&e0);
        }
        // Area weights per column.
        let st = &model.state;
        let mut w = Vec::with_capacity(ncols);
        for j in 0..st.nj {
            for i in 0..st.ni {
                let idx = st.at(i, j);
                w.push(if st.kmt[idx] > 0 { st.dx[j] * st.dy } else { 0.0 });
            }
        }
        (acc_t.mean(), acc_s.mean(), acc_eta.mean(), w)
    });
    out.swap_remove(0)
}

fn run_atm(mixed: bool, steps: usize) -> (Vec<f64>, Vec<f64>) {
    let grid = std::sync::Arc::new(GeodesicGrid::new(4));
    let dx = grid.mean_spacing_km();
    let dycore = Dycore::new(std::sync::Arc::clone(&grid), DycoreConfig::for_spacing_km(dx));
    let mut state = AtmState::isothermal(std::sync::Arc::clone(&grid), 6, 288.0);
    let n = grid.ncells();
    for i in 0..n {
        state.ps[i] += 400.0 * (i as f64 * 0.17).sin();
    }
    let ne = grid.nedges();
    let mut acc = vec![0.0; 6 * ne];
    for _ in 0..steps {
        dycore.step_dyn(&mut state, dycore.config.dt_dyn, &mut acc);
        if mixed {
            squeeze(&mut state.ps);
            squeeze(&mut state.un);
        }
    }
    // Relative vorticity proxy: the reconstructed surface winds.
    let winds: Vec<f64> = state
        .surface_wind()
        .into_iter()
        .flat_map(|(u, v)| [u, v])
        .collect();
    (state.ps.clone(), winds)
}

fn main() {
    banner("s523_mixed_precision", "§5.2.3: FP64/FP32 group-wise scaling accuracy");

    // --- LICOM-style 30-daily-mean RMSD ---
    println!("\nocean: FP64 vs group-scaled mixed, 30 daily means…");
    let (t64, s64, e64, w) = run_ocean(false, 30);
    let (t32, s32, e32, _) = run_ocean(true, 30);
    let rmsd_t = area_weighted_rmsd(&t32, &t64, &w);
    let rmsd_s = area_weighted_rmsd(&s32, &s64, &w);
    let rmsd_e = area_weighted_rmsd(&e32, &e64, &w);
    let budget = AccuracyBudget::licom_paper();
    println!("  temperature RMSD: {rmsd_t:.6} °C   (paper: 0.018, budget ok: {})", rmsd_t <= budget.max_rmsd_temperature);
    println!("  salinity    RMSD: {rmsd_s:.6} psu  (paper: 0.0098, budget ok: {})", rmsd_s <= budget.max_rmsd_salinity);
    println!("  SSH         RMSD: {rmsd_e:.6} m    (paper: 0.0005, budget ok: {})", rmsd_e <= budget.max_rmsd_ssh);
    assert!(
        budget.accepts_ocean(rmsd_t, rmsd_s, rmsd_e),
        "mixed-precision ocean exceeded the paper's accuracy envelope"
    );

    // --- GRIST-style relative L2 ---
    println!("\natmosphere: FP64 vs mixed, relative L2 of ps and winds…");
    let (ps64, vort64) = run_atm(false, 40);
    let (ps32, vort32) = run_atm(true, 40);
    let l2_ps = relative_l2(&ps32, &ps64);
    let l2_vort = relative_l2(&vort32, &vort64);
    let gb = AccuracyBudget::grist_default();
    println!("  surface pressure rel-L2: {l2_ps:.2e} (threshold 5%: {})", gb.accepts_l2(l2_ps));
    println!("  wind field       rel-L2: {l2_vort:.2e} (threshold 5%: {})", gb.accepts_l2(l2_vort));
    assert!(gb.accepts_l2(l2_ps) && gb.accepts_l2(l2_vort));

    write_csv(
        "s523_mixed_precision",
        "metric,value,paper,within_budget",
        &[
            format!("rmsd_temperature_c,{rmsd_t},0.018,{}", rmsd_t <= 0.018),
            format!("rmsd_salinity_psu,{rmsd_s},0.0098,{}", rmsd_s <= 0.0098),
            format!("rmsd_ssh_m,{rmsd_e},0.0005,{}", rmsd_e <= 0.0005),
            format!("rel_l2_ps,{l2_ps},0.05,{}", l2_ps <= 0.05),
            format!("rel_l2_wind,{l2_vort},0.05,{}", l2_vort <= 0.05),
        ],
    );
    println!("\nall §5.2.3 accuracy criteria satisfied ✓");
}
