//! # AP3ESM benchmark & experiment harness (`ap3esm-bench`)
//!
//! One binary per paper table/figure (see DESIGN.md's experiment index):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 grid configurations |
//! | `table2` | Table 2 strong-scaling SYPD (+ MPE→CPE speedups) |
//! | `fig1_fields` | Fig. 1 coupled field snapshot statistics |
//! | `fig2_sota` | Fig. 2 literature scatter + log-linear SOTA line |
//! | `fig4_ai_physics` | Fig. 4 AI-physics accuracy & cost vs conventional |
//! | `fig5_exclusion` | Fig. 5 3-D non-ocean point exclusion |
//! | `fig6_typhoon_fields` | Fig. 6 typhoon structure, 3v2-like vs 25v10-like |
//! | `fig7_track` | Fig. 7 track & intensity vs best track |
//! | `fig8a_strong` | Fig. 8a strong-scaling curves |
//! | `fig8b_weak` | Fig. 8b weak-scaling efficiencies |
//! | `s523_mixed_precision` | §5.2.3 mixed-precision accuracy |
//! | `s524_coupler` | §5.2.4 coupler optimisation ablations |
//! | `s525_io` | §5.2.5 sub-file parallel I/O |
//!
//! Each binary prints the paper-shaped rows to stdout and writes CSV under
//! `target/experiments/`. None of them is a timing harness: how fast the
//! code runs is measured by `benchmark/` alone (DESIGN.md §12).

use std::io::Write;
use std::path::PathBuf;

/// Output directory for experiment CSVs. Anchored to the workspace root's
/// `target/` (not the CWD): `cargo test` runs with CWD = the crate dir,
/// while `cargo run` binaries keep the invoker's CWD — both must land in
/// the same `target/experiments/`.
pub fn out_dir() -> PathBuf {
    let base = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("target")
        });
    let dir = base.join("experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Write a CSV with a header row; returns the path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = out_dir().join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        writeln!(f, "{row}").expect("write row");
    }
    println!("wrote {}", path.display());
    path
}

/// Banner for experiment binaries.
pub fn banner(title: &str, artifact: &str) {
    println!("==================================================================");
    println!("AP3ESM-RS experiment: {title}");
    println!("reproduces: {artifact}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_writer_roundtrip() {
        let path = write_csv(
            "selftest",
            "a,b",
            &["1,2".to_string(), "3,4".to_string()],
        );
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        std::fs::remove_file(path).unwrap();
    }
}
