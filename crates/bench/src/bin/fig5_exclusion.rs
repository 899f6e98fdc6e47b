//! Regenerates Fig. 5 / §5.2.2: excluding 3-D non-ocean grid points —
//! resource reduction, rank remapping balance, wall-clock effect, and the
//! "consistent results" bit-for-bit check.

use std::time::Instant;

use ap3esm_bench::{banner, write_csv};
use ap3esm_comm::World;
use ap3esm_grid::compress::{ActiveSet, CompressionReport};
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::mask::MaskGenerator;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_ocn::model::{OcnConfig, OcnForcing, OcnModel};

fn run(grid: &TripolarGrid, exclude: bool, steps: usize) -> (Vec<f64>, f64, usize) {
    let mut config = OcnConfig::for_grid(grid.nlon, grid.nlat, grid.nlev, 1, 1);
    config.exclude_land = exclude;
    let world = World::new(1);
    let mut out = world.run(|rank| {
        let decomp = BlockDecomp2d::new(grid.nlon, grid.nlat, 1, 1);
        let mut model = OcnModel::new(grid, config.clone(), 0);
        let forcing = OcnForcing::climatology(grid, &decomp, 0);
        let t0 = Instant::now();
        for _ in 0..steps {
            model.step(rank, &forcing);
        }
        let wall = t0.elapsed().as_secs_f64();
        let st = &model.state;
        let mut sst = Vec::new();
        for j in 0..st.nj {
            for i in 0..st.ni {
                sst.push(st.t[st.at(i, j)]);
            }
        }
        (sst, wall, model.columns_visited)
    });
    out.swap_remove(0)
}

fn main() {
    banner("fig5_exclusion", "Fig. 5 / §5.2.2: 3-D non-ocean point exclusion");
    let grid = TripolarGrid::new(120, 76, 20, MaskGenerator::default());

    // --- Resource accounting (the "~30 % computational resource
    //     reduction" number). ---
    let report = CompressionReport::new(&grid, 10_000);
    println!("\n3-D points: total {}, ocean {}", report.total_points, report.active_points);
    println!(
        "point reduction from exclusion: {:.1}% (paper: ~30%)",
        report.reduction * 100.0
    );
    println!(
        "ranks needed at 10k points/rank: dense {}, packed {} ({:.1}% fewer)",
        report.ranks_dense,
        report.ranks_packed,
        100.0 * (1.0 - report.ranks_packed as f64 / report.ranks_dense as f64)
    );

    // --- Rank remapping balance. ---
    let set = ActiveSet::from_grid(&grid);
    let nranks = 16;
    let loads = set.points_per_rank(nranks);
    let mean = set.total_points as f64 / nranks as f64;
    let imb = loads.iter().map(|&l| l as f64 / mean).fold(0.0f64, f64::max);
    println!(
        "\nrank remapping over {nranks} ranks: max/mean load = {imb:.3} (1.0 = perfect)"
    );

    // --- Wall clock + consistency. ---
    let steps = 5;
    let (sst_dense, wall_dense, visited_dense) = run(&grid, false, steps);
    let (sst_packed, wall_packed, visited_packed) = run(&grid, true, steps);
    let identical = sst_dense
        .iter()
        .zip(&sst_packed)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    println!(
        "\nocean model, {steps} steps on {}×{}×{}:",
        grid.nlon, grid.nlat, grid.nlev
    );
    println!("  dense loop:    {wall_dense:.3}s, {visited_dense} columns/step visited");
    println!("  excluded loop: {wall_packed:.3}s, {visited_packed} columns/step visited");
    println!(
        "  speedup {:.2}×, results bit-for-bit identical: {identical}",
        wall_dense / wall_packed
    );
    assert!(identical, "exclusion changed results!");

    write_csv(
        "fig5_exclusion",
        "quantity,value",
        &[
            format!("total_points,{}", report.total_points),
            format!("active_points,{}", report.active_points),
            format!("reduction,{}", report.reduction),
            format!("ranks_dense,{}", report.ranks_dense),
            format!("ranks_packed,{}", report.ranks_packed),
            format!("load_imbalance_16ranks,{imb}"),
            format!("wall_dense_s,{wall_dense}"),
            format!("wall_packed_s,{wall_packed}"),
            format!("bitwise_identical,{identical}"),
        ],
    );
}
