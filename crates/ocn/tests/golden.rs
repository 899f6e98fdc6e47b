//! Bitwise goldens for the ocean step. The hashes were recorded on the
//! commit *before* the workspace / factor-once rewrite of `try_step`
//! (PR 12); any change to the operand order of a model expression moves
//! them.

use ap3esm_comm::World;
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::mask::MaskGenerator;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_ocn::model::OcnForcing;
use ap3esm_ocn::{OcnConfig, OcnModel};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, values: &[f64]) {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            *hash ^= byte as u64;
            *hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Hash of every prognostic field (ghost rims included) after 20
/// climatology-forced steps on 36×24×6, one hash per rank.
fn state_hashes(px: usize, py: usize, exclude_land: bool) -> Vec<u64> {
    let grid = TripolarGrid::new(36, 24, 6, MaskGenerator::default());
    let mut config = OcnConfig::for_grid(36, 24, 6, px, py);
    config.exclude_land = exclude_land;
    World::new(px * py).run(|rank| {
        let decomp = BlockDecomp2d::new(36, 24, px, py);
        let mut model = OcnModel::new(&grid, config.clone(), rank.id());
        let forcing = OcnForcing::climatology(&grid, &decomp, rank.id());
        for _ in 0..20 {
            model.step(rank, &forcing);
        }
        let st = &model.state;
        let mut hash = FNV_OFFSET;
        fnv1a(&mut hash, &st.eta);
        fnv1a(&mut hash, &st.ubar);
        fnv1a(&mut hash, &st.vbar);
        for field in [&st.u, &st.v, &st.t, &st.s] {
            for level in field {
                fnv1a(&mut hash, level);
            }
        }
        hash
    })
}

const GOLDEN_1X1: [u64; 1] = [0xf34f3e97b9a72983];
const GOLDEN_2X2: [u64; 4] = [
    0x1013dc77e54d9850,
    0xc222e03743aa9d7d,
    0x5cc018e8825c6223,
    0xb332e533c9260570,
];

#[test]
fn one_rank_state_matches_parent_bitwise() {
    assert_eq!(state_hashes(1, 1, true), GOLDEN_1X1, "exclude_land = true");
    assert_eq!(
        state_hashes(1, 1, false),
        GOLDEN_1X1,
        "exclude_land = false"
    );
}

#[test]
fn four_rank_state_matches_parent_bitwise() {
    assert_eq!(state_hashes(2, 2, true), GOLDEN_2X2, "exclude_land = true");
    assert_eq!(
        state_hashes(2, 2, false),
        GOLDEN_2X2,
        "exclude_land = false"
    );
}
