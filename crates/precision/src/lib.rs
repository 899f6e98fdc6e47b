//! # AP3ESM mixed precision (`ap3esm-precision`)
//!
//! The paper's §5.2.3: a *group-wise scaling* FP64/FP32 scheme for the
//! dynamical cores of GRIST and LICOM, with tailored accuracy evaluations —
//! relative L2 norms for GRIST surface pressure/vorticity (5 % threshold for
//! long-term stability) and grid-area-weighted RMSD for LICOM temperature /
//! salinity / SSH.
//!
//! [`GroupScaled`] stores a field as FP32 mantissas normalised by a per-group
//! FP64 scale (max-abs within the group), halving memory and bandwidth while
//! keeping the dynamic range of FP64 across groups — exactly the trade the
//! paper exploits on Sunway CPEs. [`metrics`] implements the paper's
//! acceptance criteria.
//!
//! [`golden`] is the same idea applied to this repository's own changes: a
//! change that rounds differently is accepted by a stated bound against the
//! parent commit's values, not by bit equality, and its goldens are then
//! re-recorded. Its users are the goldens that pin model output —
//! `crates/atm/tests/golden.rs`, `crates/ocn/tests/golden.rs`,
//! `tests/goldens.rs`, `tests/coupled_smoke.rs` and the mixing solver's unit
//! test in `ocn::mixing` — besides `s523_mixed_precision` and
//! `tests/conservation.rs`, which use [`GroupScaled`] and [`metrics`].

pub mod golden;
pub mod group;
pub mod metrics;

pub use golden::Golden;
pub use group::GroupScaled;
pub use metrics::{area_weighted_rmsd, relative_l2, AccuracyBudget};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_budget_example() {
        // A miniature version of the §5.2.3 acceptance test: perturb a field
        // the way FP32 storage does and check the L2 criterion passes.
        let x: Vec<f64> = (0..512).map(|i| (i as f64 * 0.01).sin() * 1e5).collect();
        let gs = GroupScaled::from_f64(&x, 64);
        let y = gs.to_f64();
        let err = relative_l2(&y, &x);
        let budget = AccuracyBudget::grist_default();
        assert!(budget.accepts_l2(err), "rel L2 {err} over budget");
    }
}
