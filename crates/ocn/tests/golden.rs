//! Bitwise goldens for the ocean step. The hashes were recorded on the
//! commit *before* the workspace / factor-once rewrite of `try_step`
//! (PR 12); any change to the operand order of a model expression moves
//! them. The same hashes must come out of every execution space the phases
//! of a step can run on: any lane count, any tiling.

use std::sync::Arc;

use ap3esm_comm::World;
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::mask::MaskGenerator;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_ocn::model::OcnForcing;
use ap3esm_ocn::{OcnConfig, OcnModel};
use ap3esm_pp::{ExecSpace, Serial, SimulatedCpe, Threads};
use proptest::prelude::*;

/// Builds the space of one rank's model; `None`: as `OcnModel::new` builds
/// it.
type MakeSpace<'a> = Option<&'a (dyn Fn() -> Arc<dyn ExecSpace> + Sync)>;

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

/// Hash of every prognostic field (ghost rims included).
fn state_hash(model: &OcnModel) -> u64 {
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
}

/// One hash per rank after `steps` climatology-forced steps of `config`,
/// each rank's model on a space of its own.
fn hashes_after(
    steps: usize,
    grid: &TripolarGrid,
    config: &OcnConfig,
    space: MakeSpace,
) -> Vec<u64> {
    World::new(config.px * config.py).run(|rank| {
        let decomp = BlockDecomp2d::new(config.nlon, config.nlat, config.px, config.py);
        let mut model = OcnModel::new(grid, config.clone(), rank.id());
        if let Some(space) = space {
            model = model.on(space());
        }
        let forcing = OcnForcing::climatology(grid, &decomp, rank.id());
        for _ in 0..steps {
            model.step(rank, &forcing);
        }
        state_hash(&model)
    })
}

/// The goldens' run: 20 steps on 36×24×6.
fn state_hashes(px: usize, py: usize, exclude_land: bool, space: MakeSpace) -> Vec<u64> {
    let grid = TripolarGrid::new(36, 24, 6, MaskGenerator::default());
    let mut config = OcnConfig::for_grid(36, 24, 6, px, py);
    config.exclude_land = exclude_land;
    hashes_after(20, &grid, &config, space)
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
    for exclude_land in [true, false] {
        let hashes = state_hashes(1, 1, exclude_land, None);
        assert_eq!(hashes, GOLDEN_1X1, "exclude_land = {exclude_land}");
    }
}

#[test]
fn four_rank_state_matches_parent_bitwise() {
    for exclude_land in [true, false] {
        let hashes = state_hashes(2, 2, exclude_land, None);
        assert_eq!(hashes, GOLDEN_2X2, "exclude_land = {exclude_land}");
    }
}

/// The same hashes from one lane, from teams of one to four lanes (more
/// lanes than this box has cores: ranges change hands), and from LDM tiles
/// of two indices: two rows of 14 or 26, two levels of six, two columns of
/// the loop policy's list.
#[test]
fn goldens_hold_on_every_execution_space() {
    type Make = Box<dyn Fn() -> Arc<dyn ExecSpace> + Sync>;
    let mut spaces: Vec<(String, Make)> = vec![("serial".into(), Box::new(|| Arc::new(Serial)))];
    for lanes in 1..=4 {
        spaces.push((
            format!("threads({lanes})"),
            Box::new(move || Arc::new(Threads::new(lanes))),
        ));
    }
    spaces.push((
        "simulated-cpe, 2 per tile".into(),
        Box::new(|| Arc::new(SimulatedCpe::new(64, 16, 8))),
    ));
    for (name, space) in &spaces {
        for exclude_land in [true, false] {
            assert_eq!(
                state_hashes(1, 1, exclude_land, Some(&**space)),
                GOLDEN_1X1,
                "{name}, exclude_land = {exclude_land}"
            );
            assert_eq!(
                state_hashes(2, 2, exclude_land, Some(&**space)),
                GOLDEN_2X2,
                "{name}, exclude_land = {exclude_land}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Three steps on a team of any size — more lanes than levels, than
    /// rows, than ocean columns included — equal the one-lane steps bit for
    /// bit, on every rank, for any grid, continents, mesh and loop policy.
    #[test]
    fn lane_count_changes_no_bit(
        nlon in 4usize..20,
        nlat in 4usize..14,
        nlev in 1usize..7,
        px in 1usize..=2,
        py in 1usize..=2,
        lanes in 1usize..=7,
        exclude_land in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mask = MaskGenerator { seed, ..MaskGenerator::default() };
        let grid = TripolarGrid::new(nlon, nlat, nlev, mask);
        let mut config = OcnConfig::for_grid(nlon, nlat, nlev, px, py);
        config.exclude_land = exclude_land;
        let team = || -> Arc<dyn ExecSpace> { Arc::new(Threads::new(lanes)) };
        prop_assert_eq!(
            hashes_after(3, &grid, &config, Some(&team)),
            hashes_after(3, &grid, &config, None)
        );
    }
}
