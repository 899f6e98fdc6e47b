//! Property-based tests on the core data structures and invariants
//! (proptest): decomposition/routing bijectivity, compression round trips,
//! group-scaled precision bounds, I/O format totality.

use proptest::prelude::*;

use ap3esm::cpl::gsmap::GSMap;
use ap3esm::cpl::router::Router;
use ap3esm::io::format::{crc32, decode_payload, encode_payload, FieldHeader, HEADER_LEN};
use ap3esm::precision::GroupScaled;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any even GSMap pair yields a router covering each index exactly once.
    #[test]
    fn router_is_a_bijection(
        nglobal in 1usize..5000,
        m in 1usize..12,
        n in 1usize..12,
    ) {
        let src = GSMap::even(nglobal, m);
        let dst = GSMap::even(nglobal, n);
        let router = Router::build(&src, &dst);
        prop_assert!(router.validate().is_ok());
        // Serialisation round trip is lossless.
        let back = Router::from_bytes(&router.to_bytes()).unwrap();
        prop_assert_eq!(router.legs, back.legs);
    }

    /// GSMap owner lookup agrees with segment membership for random splits.
    #[test]
    fn gsmap_owner_lookup_consistent(
        cuts in prop::collection::vec(1usize..200, 1..8),
    ) {
        let mut ranges = Vec::new();
        let mut start = 0usize;
        for c in &cuts {
            ranges.push((start, start + c));
            start += c;
        }
        let map = GSMap::from_ranges(start, &ranges);
        for (r, &(s, e)) in ranges.iter().enumerate() {
            for gid in s..e {
                prop_assert_eq!(map.owner_of(gid), r);
            }
            prop_assert_eq!(map.local_size(r), e - s);
        }
    }

    /// Group-scaled storage keeps relative error within FP32-class bounds
    /// for any values and group size.
    #[test]
    fn group_scaled_round_trip_bounds(
        values in prop::collection::vec(-1.0e6f64..1.0e6, 1..300),
        group in 1usize..64,
    ) {
        let gs = GroupScaled::from_f64(&values, group);
        let back = gs.to_f64();
        for (a, b) in values.iter().zip(&back) {
            let scale = values
                .iter()
                .map(|v| v.abs())
                .fold(0.0f64, f64::max)
                .max(1e-30);
            prop_assert!((a - b).abs() <= scale * 2e-7 + 1e-12,
                "value {} reconstructed {}", a, b);
        }
    }

    /// Payload encode/decode is total and lossless for finite values.
    #[test]
    fn io_payload_roundtrip(values in prop::collection::vec(-1.0e300f64..1.0e300, 0..200)) {
        let bytes = encode_payload(&values);
        let back = decode_payload(&bytes).unwrap();
        prop_assert_eq!(values, back);
    }

    /// CRC-32 detects any single-byte corruption.
    #[test]
    fn crc_detects_single_byte_flips(
        data in prop::collection::vec(any::<u8>(), 1..200),
        pos_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let original = crc32(&data);
        let mut corrupted = data.clone();
        let pos = pos_seed % corrupted.len();
        corrupted[pos] ^= flip;
        prop_assert_ne!(original, crc32(&corrupted));
    }

    /// The checksummed sub-file header round-trips for any field shape,
    /// and any single corrupted byte is rejected at decode — the trailing
    /// header-CRC word included, whatever it turns into.
    #[test]
    fn field_header_roundtrip_and_corruption(
        d0 in 1u64..1 << 40,
        d1 in 1u64..1 << 20,
        d2 in 1u64..1 << 20,
        ndims in 1u32..=3,
        subfile_index in any::<u32>(),
        subfile_count in 1u32..1 << 16,
        start in any::<u64>(),
        count in any::<u64>(),
        crc in any::<u32>(),
        pos in 0usize..HEADER_LEN,
        flip in 1u8..=255,
    ) {
        let h = FieldHeader {
            dims: [d0, d1, d2],
            ndims, subfile_index, subfile_count, start, count, crc,
        };
        let bytes = h.encode();
        prop_assert_eq!(bytes.len(), HEADER_LEN);
        prop_assert_eq!(&FieldHeader::decode(&bytes).unwrap(), &h);

        let mut corrupted = bytes.to_vec();
        corrupted[pos] ^= flip;
        prop_assert!(
            FieldHeader::decode(&corrupted).is_err(),
            "corruption at byte {} went undetected",
            pos
        );
    }

    /// Alarms fire exactly `per_day` times per simulated day for any valid
    /// frequency (divisors of 86400 seconds ÷ 60-second granularity).
    #[test]
    fn coupling_alarm_counts(per_day in prop::sample::select(
        vec![1i64, 2, 3, 4, 6, 8, 12, 24, 36, 48, 72, 96, 144, 180, 288]
    )) {
        use ap3esm::cpl::clock::{Alarm, DAY};
        let alarm = Alarm::per_day(per_day);
        let mut count = 0;
        let mut t = 0;
        while t < DAY {
            if alarm.ringing(t) {
                count += 1;
            }
            t += alarm.period.min(60);
        }
        prop_assert_eq!(count, per_day);
    }

    /// Tripolar grids keep the displaced-pole cap on land and the active
    /// fraction Earth-plausible, for any seed and size.
    #[test]
    fn tripolar_mask_invariants(
        seed in any::<u64>(),
        nlon in 16usize..64,
    ) {
        use ap3esm::grid::mask::MaskGenerator;
        use ap3esm::grid::TripolarGrid;
        let nlat = (nlon * 2) / 3;
        let grid = TripolarGrid::new(
            nlon,
            nlat.max(8),
            4,
            MaskGenerator { seed, ..MaskGenerator::default() },
        );
        // Polar cap (> 84°N) is land.
        for j in 0..grid.nlat {
            if grid.lat[j].to_degrees() > ap3esm::grid::tripolar::POLAR_CAP_DEG {
                for i in 0..grid.nlon {
                    prop_assert_eq!(grid.kmt[grid.idx(i, j)], 0);
                }
            }
        }
        let f = grid.active_fraction();
        prop_assert!((0.1..0.9).contains(&f), "active fraction {}", f);
    }

    /// Rearrangement is a permutation for random contiguous decompositions:
    /// every value sent arrives exactly once, none invented.
    #[test]
    fn rearrange_is_value_preserving(
        nglobal in 10usize..400,
        m in 1usize..5,
        n in 1usize..5,
    ) {
        use ap3esm::comm::World;
        use ap3esm::cpl::rearrange::{RearrangeStrategy, Rearranger};
        let nranks = m.max(n);
        let src = GSMap::even(nglobal, nranks);
        let dst = GSMap::even(nglobal, nranks);
        let world = World::new(nranks);
        let outs = world.run(|rank| {
            let r = Rearranger::new(Router::build(&src, &dst), 5);
            let local: Vec<f64> = src
                .local_indices(rank.id())
                .iter()
                .map(|&g| g as f64 * 3.0 + 1.0)
                .collect();
            r.rearrange(
                rank,
                RearrangeStrategy::NonBlockingP2p,
                &local,
                dst.local_size(rank.id()),
            )
        });
        let mut all: Vec<f64> = outs.into_iter().flatten().collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = (0..nglobal).map(|g| g as f64 * 3.0 + 1.0).collect();
        prop_assert_eq!(all, expect);
    }

    /// Geodesic grid partitions are complete for random part counts.
    #[test]
    fn graph_decomp_total(nparts in 1usize..20) {
        use ap3esm::grid::decomp::GraphDecomp;
        use ap3esm::grid::GeodesicGrid;
        let grid = GeodesicGrid::new(2); // 162 cells
        let nparts = nparts.min(grid.ncells());
        let d = GraphDecomp::new(&grid, nparts);
        prop_assert_eq!(d.sizes().iter().sum::<usize>(), grid.ncells());
        prop_assert!(d.part_of.iter().all(|&p| p < nparts));
    }
}
