//! Regenerates Table 1: the GRIST / LICOM / AP3ESM grid configurations.
//!
//! Grid counts come from the actual generators' formulas
//! (`GeodesicCounts`, `TABLE1_PRESETS`), not hard-coded numbers, so this
//! binary verifies that our meshes reproduce the paper's sizes.

use ap3esm_bench::{banner, write_csv};
use ap3esm_esm::config::Resolution;
use ap3esm_grid::icosahedral::GeodesicCounts;

fn main() {
    banner("table1", "Table 1: configurations of GRIST, LICOM, AP3ESM");

    // Route the table through the observability sink too: each table is a
    // span, each configuration's size a counter, and the whole run lands in
    // the run directory target/obs/table1/.
    let obs = std::sync::Arc::new(ap3esm_obs::Obs::new());
    let _guard = ap3esm_obs::install(std::sync::Arc::clone(&obs));

    let grist_span = ap3esm_obs::span("table1_grist");
    println!("\nGRIST (atmosphere, 30 vertical layers):");
    println!(
        "{:>8} {:>6} {:>14} {:>14} {:>14}",
        "res(km)", "glevel", "cells", "edges", "vertices"
    );
    let mut rows = Vec::new();
    for res in Resolution::ALL {
        let g = res.atm_glevel();
        let c = GeodesicCounts::at_glevel(g);
        println!(
            "{:>8} {:>6} {:>14} {:>14} {:>14}",
            res.km().0,
            g,
            c.cells,
            c.edges,
            c.corners
        );
        rows.push(format!(
            "{},{},{},{},{}",
            res.km().0,
            g,
            c.cells,
            c.edges,
            c.corners
        ));
        ap3esm_obs::counter_add(&format!("grist.g{g}.cells"), c.cells as u64);
    }
    write_csv("table1_grist", "res_km,glevel,cells,edges,vertices", &rows);
    drop(grist_span);

    let licom_span = ap3esm_obs::span("table1_licom");
    println!("\nLICOM (ocean, 80 vertical levels):");
    println!(
        "{:>8} {:>10} {:>10} {:>16}",
        "res(km)", "longitudes", "latitudes", "3D grid points"
    );
    let mut rows = Vec::new();
    for &(res, nlon, nlat) in &ap3esm_grid::tripolar::TABLE1_PRESETS {
        let points = nlon as u64 * nlat as u64 * 80;
        println!("{res:>8} {nlon:>10} {nlat:>10} {points:>16}");
        rows.push(format!("{res},{nlon},{nlat},{points}"));
        ap3esm_obs::counter_add(&format!("licom.{res}km.points3d"), points);
    }
    write_csv("table1_licom", "res_km,nlon,nlat,points3d", &rows);
    drop(licom_span);

    let ap3esm_span = ap3esm_obs::span("table1_ap3esm");
    println!("\nAP3ESM coupled configurations:");
    println!("{:>6} {:>12} {:>12} {:>16}", "label", "atm(km)", "ocn(km)", "total grids");
    let mut rows = Vec::new();
    for res in Resolution::ALL {
        let (a, o) = res.km();
        println!(
            "{:>6} {:>12} {:>12} {:>16.3e}",
            res.label(),
            a,
            o,
            res.total_gridpoints() as f64
        );
        rows.push(format!(
            "{},{},{},{}",
            res.label(),
            a,
            o,
            res.total_gridpoints()
        ));
        ap3esm_obs::counter_add(
            &format!("ap3esm.{}.total_gridpoints", res.label()),
            res.total_gridpoints(),
        );
    }
    write_csv("table1_ap3esm", "label,atm_km,ocn_km,total_gridpoints", &rows);
    drop(ap3esm_span);

    let mut report = ap3esm_obs::RunReport::new("table1")
        .meta("tables", 3usize)
        .meta("resolutions", Resolution::ALL.len());
    let spans = obs.profiler.snapshot();
    report.rank_trees = vec![ap3esm_obs::RankTree { rank: 0, dropped: 0, spans }];
    report.metrics = obs.metrics.snapshot();
    let written = ap3esm_obs::RunDir::create("table1", "ok").and_then(|dir| {
        dir.write_report(&report)?;
        Ok(dir)
    });
    match written {
        Ok(dir) => println!("\nrun directory: {}", dir.path().display()),
        Err(e) => eprintln!("\nrun directory not written: {e}"),
    }

    println!(
        "\nNote: the paper's 1-km GRIST row prints its cells/vertices columns"
    );
    println!(
        "permuted (our G12 edge count 5.03e8 and corner count 3.36e8 match its"
    );
    println!("5.0e8 / 3.4e8 exactly); see EXPERIMENTS.md.");
}
