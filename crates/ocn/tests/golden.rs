//! Goldens for the ocean step. The hashes pin the current commit's bits on
//! every execution space the phases of a step can run on (any lane count,
//! any tiling); they were last re-recorded through `ap3esm_precision::Golden`
//! when the step began to multiply by reciprocal geometry (per-row 1/dx,
//! 1/(dx·dy) and rotation factor, per-interface 1/dzᵢ, the solver's
//! reciprocal diagonal). The parent reference is commit `74957b4`'s per-level
//! sums of squares of every prognostic field, printed with `{:?}`. The
//! baroclinic step's row sweeps run every compilation this CPU has
//! (`ap3esm_pp::Isa`) to the same hashes.

use std::sync::Arc;

use ap3esm_comm::World;
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::mask::MaskGenerator;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_ocn::model::OcnForcing;
use ap3esm_ocn::{OcnConfig, OcnModel, OcnState};
use ap3esm_pp::{ExecSpace, Isa, Serial, SimulatedCpe, Threads};
use ap3esm_precision::Golden;
use proptest::prelude::*;

/// Builds the space of one rank's model; `None`: as `OcnModel::new` builds
/// it.
type MakeSpace<'a> = Option<&'a (dyn Fn() -> Arc<dyn ExecSpace> + Sync)>;

/// A model on the space `space` makes, its row sweeps compiled for `isa`
/// (`None`: as `OcnModel::new` picks them, the widest this CPU runs).
#[derive(Clone, Copy, Default)]
struct Setup<'a> {
    space: MakeSpace<'a>,
    isa: Option<Isa>,
}

impl<'a> From<MakeSpace<'a>> for Setup<'a> {
    fn from(space: MakeSpace<'a>) -> Self {
        Setup { space, isa: None }
    }
}

/// One rank's per-level Σ x² of η, ū, v̄, u, v, T, S (ghost rims included).
type LevelSums = [&'static [f64]; 7];

fn level_sums(st: &OcnState) -> [(&'static str, Vec<f64>); 7] {
    let slab = st.eta.len();
    let sum_sq = |level: &[f64]| level.iter().fold(0.0, |acc, x| acc + x * x);
    let levels = |field: &[f64]| field.chunks_exact(slab).map(sum_sq).collect();
    [
        ("eta", vec![sum_sq(&st.eta)]),
        ("ubar", vec![sum_sq(&st.ubar)]),
        ("vbar", vec![sum_sq(&st.vbar)]),
        ("u", levels(&st.u)),
        ("v", levels(&st.v)),
        ("t", levels(&st.t)),
        ("s", levels(&st.s)),
    ]
}

/// A rank's golden: its level sums, bounded against `parent` when there is
/// one, then every prognostic field pinned. The bound is 1e-12 of each
/// field's largest level sum: a step re-rounds each geometry product and
/// each solver multiplier at ~1 ulp, 20 steps carry that to ~1e-14.
fn state_golden(st: &OcnState, parent: Option<&LevelSums>) -> Golden {
    let mut golden = Golden::new();
    for (k, (name, sums)) in level_sums(st).iter().enumerate() {
        match parent {
            Some(parent) => golden.field(name, sums, parent[k], 1e-12),
            None => golden.pin(sums),
        };
    }
    golden.pin(&st.eta).pin(&st.ubar).pin(&st.vbar);
    for field in [&st.u, &st.v, &st.t, &st.s] {
        for level in field.chunks_exact(st.eta.len()) {
            golden.pin(level);
        }
    }
    golden
}

/// One golden per rank after `steps` climatology-forced steps of `config`,
/// each rank's model on a space of its own.
fn goldens_after(
    steps: usize,
    grid: &TripolarGrid,
    config: &OcnConfig,
    setup: Setup,
    parent: Option<&[LevelSums]>,
) -> Vec<Golden> {
    World::new(config.px * config.py).run(|rank| {
        let decomp = BlockDecomp2d::new(config.nlon, config.nlat, config.px, config.py);
        let mut model = OcnModel::new(grid, config.clone(), rank.id());
        if let Some(space) = setup.space {
            model = model.on(space());
        }
        if let Some(isa) = setup.isa {
            model = model.with_isa(isa);
        }
        let forcing = OcnForcing::climatology(grid, &decomp, rank.id());
        for _ in 0..steps {
            model.step(rank, &forcing);
        }
        state_golden(&model.state, parent.map(|p| &p[rank.id()]))
    })
}

fn hashes_after(
    steps: usize,
    grid: &TripolarGrid,
    config: &OcnConfig,
    space: MakeSpace,
) -> Vec<u64> {
    let goldens = goldens_after(steps, grid, config, space.into(), None);
    goldens.iter().map(Golden::hash).collect()
}

/// The goldens' run: 20 steps on 36×24×6.
fn state_goldens(
    px: usize,
    py: usize,
    exclude_land: bool,
    setup: Setup,
    parent: Option<&[LevelSums]>,
) -> Vec<Golden> {
    let grid = TripolarGrid::new(36, 24, 6, MaskGenerator::default());
    let mut config = OcnConfig::for_grid(36, 24, 6, px, py);
    config.exclude_land = exclude_land;
    goldens_after(20, &grid, &config, setup, parent)
}

fn state_hashes(px: usize, py: usize, exclude_land: bool, setup: Setup) -> Vec<u64> {
    let goldens = state_goldens(px, py, exclude_land, setup, None);
    goldens.iter().map(Golden::hash).collect()
}

#[rustfmt::skip]
const PARENT_1X1: [LevelSums; 1] = [[
    &[0.05832976483953406],
    &[0.007450451897320305],
    &[0.0022506683625124015],
    &[1.9716735478775043, 0.011089376237955561, 0.11308304660600108, 0.8724247314055555, 2.6295514494610654, 3.5956169836581076e-9],
    &[2.172843610554128, 0.0035558851881135815, 0.026970628810307287, 0.1969018775191785, 0.4958664086631241, 4.917461993074804e-8],
    &[299408.28020736476, 287849.7323623057, 253687.87281202115, 168746.15090989406, 49108.97174644079, 5552.015507861614],
    &[1188719.0820514557, 1189606.8972099472, 1192314.977344822, 1198957.284149064, 1207813.8784158863, 1210283.1447634874],
]];
#[rustfmt::skip]
const PARENT_2X2: [LevelSums; 4] = [
    [
        &[0.0059992254830553236],
        &[0.0003101851551946685],
        &[0.0006608328642576872],
        &[0.6594194667652353, 0.00310141717639467, 0.03352115077894053, 0.2612421967246595, 0.8607144371142765, 0.0],
        &[0.6382904343048184, 0.0010512003321944856, 0.009354288647416178, 0.06687646901424846, 0.1794937877446118, 0.0],
        &[106308.60149925211, 102156.52632959711, 89940.64810519027, 59591.91143768395, 16982.723716880097, 1663.9692500679498],
        &[336064.9510048372, 336353.4527925895, 337222.412608019, 339355.90287294256, 342201.19260597235, 342994.58410966216],
    ],
    [
        &[0.032788650965813924],
        &[0.005384646924089714],
        &[0.0007328759232787288],
        &[0.6661173991488227, 0.003307120205494081, 0.03615026250278553, 0.28353976089602345, 0.9378842236379354, 3.595616978788141e-9],
        &[0.6648785091322029, 0.001163382727395536, 0.009885654891409135, 0.06875453712729941, 0.19890186766916546, 4.917461992955166e-8],
        &[106331.0690944817, 102156.50708894692, 89940.48741887245, 59591.60397394752, 16982.52790080532, 1663.9692510896966],
        &[336064.9715297243, 336353.4501034527, 337222.41594142036, 339355.9102515998, 342201.19629216706, 342994.58410950506],
    ],
    [
        &[0.007186482846659777],
        &[0.0010718116679731206],
        &[0.0006050639088866434],
        &[0.5190952798751081, 0.0027424770866369286, 0.02961486435048512, 0.22493838984654285, 0.6942557544528699, 4.869966632707364e-18],
        &[0.5920101104422204, 0.000726351139067128, 0.0060035913775906185, 0.047334076954690676, 0.09940475310308462, 1.1963793169342313e-18],
        &[81593.36196946245, 78452.72753309018, 69138.9072322049, 45983.699517917994, 13390.247667863407, 1552.115404032609],
        &[337210.00003124785, 337445.5293794806, 338172.93850419286, 339955.6580966451, 342332.72509070556, 342995.47607081564],
    ],
    [
        &[0.0408992315270134],
        &[0.006022100147244594],
        &[0.0009488602941007382],
        &[0.4903803367018183, 0.0027441795062601517, 0.022597975088449327, 0.17082987616882245, 0.3954482519413415, 2.982576170360856e-18],
        &[0.48732530672727536, 0.0011122978051251794, 0.006069009431860252, 0.04651558715167404, 0.11855186450570293, 4.0577879565589787e-19],
        &[81608.47688344118, 78452.60353598303, 69139.32699992898, 45984.4015469815, 13390.703583163759, 1552.1154036164871],
        &[337209.8453534836, 337445.54659811826, 338172.92917380156, 339955.64329199353, 342332.7146701572, 342995.47607088735],
    ],
];

const GOLDEN_1X1: [u64; 1] = [0x486264e10cf8ebb6];
const GOLDEN_2X2: [u64; 4] = [
    0xcd06cabedc6fd7fe,
    0x17b52f77b47519c7,
    0x79088bce69e86908,
    0x308091d899aec995,
];

/// Every rank's golden within its bounds of the parent and equal to `want`.
fn check_ranks(goldens: &[Golden], want: &[u64], what: &str) {
    assert_eq!(goldens.len(), want.len());
    let mut failures = Vec::new();
    for (rank, (golden, want)) in goldens.iter().zip(want).enumerate() {
        println!("{what}, rank {rank}:\n{}", golden.report());
        if let Err(e) = golden.check(*want) {
            failures.push(format!("{what}, rank {rank}: {e}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn one_rank_state_matches_parent_bitwise() {
    for exclude_land in [true, false] {
        let goldens = state_goldens(1, 1, exclude_land, Setup::default(), Some(&PARENT_1X1));
        check_ranks(
            &goldens,
            &GOLDEN_1X1,
            &format!("exclude_land = {exclude_land}"),
        );
    }
}

#[test]
fn four_rank_state_matches_parent_bitwise() {
    for exclude_land in [true, false] {
        let goldens = state_goldens(2, 2, exclude_land, Setup::default(), Some(&PARENT_2X2));
        check_ranks(
            &goldens,
            &GOLDEN_2X2,
            &format!("exclude_land = {exclude_land}"),
        );
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
            let setup = Some(&**space).into();
            assert_eq!(
                state_hashes(1, 1, exclude_land, setup),
                GOLDEN_1X1,
                "{name}, exclude_land = {exclude_land}"
            );
            assert_eq!(
                state_hashes(2, 2, exclude_land, setup),
                GOLDEN_2X2,
                "{name}, exclude_land = {exclude_land}"
            );
        }
    }
}

/// The same hashes from every compilation of the row sweeps this CPU runs
/// (the others are named on stderr), on one lane and on two, both loop
/// policies, one rank and four.
#[test]
fn goldens_hold_under_every_compilation() {
    let skipped: Vec<String> = Isa::ALL
        .iter()
        .filter(|isa| !isa.available())
        .map(|isa| isa.to_string())
        .collect();
    if !skipped.is_empty() {
        eprintln!("not on this CPU, not checked: {}", skipped.join(", "));
    }
    let serial = || -> Arc<dyn ExecSpace> { Arc::new(Serial) };
    let team = || -> Arc<dyn ExecSpace> { Arc::new(Threads::new(2)) };
    for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
        for (lanes, space) in [(1, &serial as &(dyn Fn() -> _ + Sync)), (2, &team)] {
            for exclude_land in [true, false] {
                let setup = Setup {
                    space: Some(space),
                    isa: Some(isa),
                };
                let what = format!("{isa}, {lanes} lane(s), exclude_land = {exclude_land}");
                assert_eq!(
                    state_hashes(1, 1, exclude_land, setup),
                    GOLDEN_1X1,
                    "{what}"
                );
                assert_eq!(
                    state_hashes(2, 2, exclude_land, setup),
                    GOLDEN_2X2,
                    "{what}"
                );
            }
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
