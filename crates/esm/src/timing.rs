//! The `getTiming` SYPD computation (§6.2). The wall-clock sections
//! themselves are `ap3esm-obs` spans, reduced to "the maximum value across
//! all MPI ranks" in the run report's `rank_sections`.

/// The `getTiming` computation: SYPD from simulated seconds and wall
/// seconds ("dividing the length of the simulated time interval by the
/// wall-clock time required for execution").
pub fn get_timing(simulated_seconds: f64, wall_seconds: f64) -> f64 {
    assert!(wall_seconds > 0.0 && simulated_seconds >= 0.0);
    let simulated_years = simulated_seconds / (365.0 * 86_400.0);
    let wall_days = wall_seconds / 86_400.0;
    simulated_years / wall_days
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_timing_matches_paper_arithmetic() {
        // 1 simulated year in 1 wall day = 1 SYPD.
        assert!((get_timing(365.0 * 86_400.0, 86_400.0) - 1.0).abs() < 1e-12);
        // The coupled 1v1 headline: 0.54 SYPD means one simulated day takes
        // 86400/(365·0.54) ≈ 438 wall seconds.
        let wall_per_simday = 86_400.0 / (365.0 * 0.54);
        assert!((get_timing(86_400.0, wall_per_simday) - 0.54).abs() < 1e-9);
    }
}
