//! The M×N Router (MCT `Router` analogue): "given two decompositions
//! specified in two GSMaps, the Router table can easily build a mapping
//! between the location of one grid point on a processor and its location
//! on another processor" (§5.2.4). Construction is time- and
//! memory-expensive at scale, so AP3ESM precomputes it offline — both the
//! online build and the offline serialise/load path live here.

use std::time::Instant;

use crate::gsmap::GSMap;

/// For one (src_rank → dst_rank) pair: positions to gather on the source
/// and positions to scatter on the destination (same order).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouteLeg {
    /// Positions into the source rank's local array.
    pub src_local: Vec<u32>,
    /// Positions into the destination rank's local array.
    pub dst_local: Vec<u32>,
}

/// The full routing table between a source and destination decomposition
/// of the same global index space.
#[derive(Debug, Clone, PartialEq)]
pub struct Router {
    pub nglobal: usize,
    pub src_ranks: usize,
    pub dst_ranks: usize,
    /// `legs[src][dst]`.
    pub legs: Vec<Vec<RouteLeg>>,
    /// Wall time spent building (reported by the S524 experiment).
    pub build_seconds: f64,
}

impl Router {
    /// Online construction from two GSMaps over the same global space.
    pub fn build(src: &GSMap, dst: &GSMap) -> Self {
        assert_eq!(src.nglobal, dst.nglobal, "GSMap size mismatch");
        let _span = ap3esm_obs::span("router_build");
        let t0 = Instant::now();
        let mut legs = vec![vec![RouteLeg::default(); dst.nranks]; src.nranks];
        // Local position of each global index on its owner, per map.
        let src_pos = local_positions(src);
        let dst_pos = local_positions(dst);
        // Walk both segment lists in order, emitting intersection runs.
        let mut si = 0;
        let mut di = 0;
        while si < src.segments.len() && di < dst.segments.len() {
            let s = src.segments[si];
            let d = dst.segments[di];
            let lo = s.start.max(d.start);
            let hi = (s.start + s.length).min(d.start + d.length);
            if lo < hi {
                let leg = &mut legs[s.owner][d.owner];
                for gid in lo..hi {
                    leg.src_local.push(src_pos[gid]);
                    leg.dst_local.push(dst_pos[gid]);
                }
            }
            if s.start + s.length <= d.start + d.length {
                si += 1;
            } else {
                di += 1;
            }
        }
        Router {
            nglobal: src.nglobal,
            src_ranks: src.nranks,
            dst_ranks: dst.nranks,
            legs,
            build_seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Total entries in the table (memory proxy).
    pub fn total_entries(&self) -> usize {
        self.legs
            .iter()
            .flat_map(|row| row.iter())
            .map(|l| l.src_local.len())
            .sum()
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.total_entries() * 8 + self.legs.len() * std::mem::size_of::<Vec<RouteLeg>>()
    }

    /// Every global index must be routed exactly once.
    pub fn validate(&self) -> Result<(), String> {
        if self.total_entries() != self.nglobal {
            return Err(format!(
                "router covers {} of {} indices",
                self.total_entries(),
                self.nglobal
            ));
        }
        Ok(())
    }

    /// Serialise for the offline store (§5.2.4 preprocessing step).
    pub fn to_bytes(&self) -> Vec<u8> {
        use bytes::BufMut;
        let mut b = bytes::BytesMut::new();
        b.put_u64_le(self.nglobal as u64);
        b.put_u32_le(self.src_ranks as u32);
        b.put_u32_le(self.dst_ranks as u32);
        for row in &self.legs {
            for leg in row {
                b.put_u32_le(leg.src_local.len() as u32);
                for (&s, &d) in leg.src_local.iter().zip(&leg.dst_local) {
                    b.put_u32_le(s);
                    b.put_u32_le(d);
                }
            }
        }
        b.to_vec()
    }

    /// Load an offline-precomputed router. Loading is O(table) with no
    /// segment intersection — the cheap path a memory-limited CG can run.
    pub fn from_bytes(mut buf: &[u8]) -> Result<Self, String> {
        use bytes::Buf;
        if buf.len() < 16 {
            return Err("truncated router".into());
        }
        let t0 = Instant::now();
        let nglobal = buf.get_u64_le() as usize;
        let src_ranks = buf.get_u32_le() as usize;
        let dst_ranks = buf.get_u32_le() as usize;
        let mut legs = vec![vec![RouteLeg::default(); dst_ranks]; src_ranks];
        for row in legs.iter_mut() {
            for leg in row.iter_mut() {
                if buf.len() < 4 {
                    return Err("truncated router leg".into());
                }
                let n = buf.get_u32_le() as usize;
                if buf.len() < n * 8 {
                    return Err("truncated router entries".into());
                }
                leg.src_local.reserve(n);
                leg.dst_local.reserve(n);
                for _ in 0..n {
                    leg.src_local.push(buf.get_u32_le());
                    leg.dst_local.push(buf.get_u32_le());
                }
            }
        }
        let router = Router {
            nglobal,
            src_ranks,
            dst_ranks,
            legs,
            build_seconds: t0.elapsed().as_secs_f64(),
        };
        router.validate()?;
        Ok(router)
    }
}

/// Local position (0-based, ascending-gid order) of every global index on
/// its owning rank.
fn local_positions(map: &GSMap) -> Vec<u32> {
    let mut pos = vec![0u32; map.nglobal];
    let mut counters = vec![0u32; map.nranks];
    for s in &map.segments {
        let c = &mut counters[s.owner];
        for p in &mut pos[s.start..s.start + s.length] {
            *p = *c;
            *c += 1;
        }
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_covers_every_index_once() {
        let src = GSMap::even(100, 3);
        let dst = GSMap::even(100, 5);
        let r = Router::build(&src, &dst);
        r.validate().unwrap();
        assert_eq!(r.total_entries(), 100);
    }

    #[test]
    fn identity_router_is_diagonal() {
        let m = GSMap::even(60, 4);
        let r = Router::build(&m, &m);
        for (s, row) in r.legs.iter().enumerate() {
            for (d, leg) in row.iter().enumerate() {
                if s == d {
                    assert_eq!(leg.src_local.len(), m.local_size(s));
                    assert_eq!(leg.src_local, leg.dst_local);
                } else {
                    assert!(leg.src_local.is_empty(), "off-diagonal leg {s}->{d}");
                }
            }
        }
    }

    #[test]
    fn one_to_many_router() {
        // The ATM-root → distributed-OCN pattern of the coupled model.
        let src = GSMap::all_on_rank(40, 5, 0);
        let dst = GSMap::even(40, 5);
        let r = Router::build(&src, &dst);
        r.validate().unwrap();
        for d in 0..5 {
            assert_eq!(r.legs[0][d].src_local.len(), dst.local_size(d));
        }
        for s in 1..5 {
            assert!(r.legs[s].iter().all(|l| l.src_local.is_empty()));
        }
    }

    #[test]
    fn local_positions_are_gather_order() {
        let m = GSMap::from_ranges(10, &[(0, 4), (4, 10)]);
        let pos = local_positions(&m);
        assert_eq!(&pos[0..4], &[0, 1, 2, 3]);
        assert_eq!(&pos[4..10], &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn offline_roundtrip_identical_and_cheaper() {
        let src = GSMap::even(5000, 8);
        let dst = GSMap::even(5000, 3);
        let online = Router::build(&src, &dst);
        let bytes = online.to_bytes();
        let offline = Router::from_bytes(&bytes).unwrap();
        assert_eq!(online.legs, offline.legs);
        assert_eq!(online.nglobal, offline.nglobal);
        // The offline load performs no segment intersection; both paths
        // time themselves so the S524 experiment can report the ratio.
        assert!(offline.build_seconds >= 0.0);
    }

    #[test]
    fn mismatched_global_sizes_rejected() {
        let src = GSMap::even(10, 2);
        let dst = GSMap::even(12, 2);
        let result = std::panic::catch_unwind(|| Router::build(&src, &dst));
        assert!(result.is_err());
    }
}
