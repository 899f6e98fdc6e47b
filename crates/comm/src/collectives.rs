//! Collective operations built on point-to-point messages.
//!
//! AP3ESM's coupler replaced all-to-all MPI rearrangement with non-blocking
//! point-to-point (§5.2.4); keeping collectives P2P-based here means the
//! byte traffic of both strategies is measured on equal footing.
//!
//! All reductions combine contributions **in rank order**, so results are
//! deterministic and identical across repeated runs — the property AP3ESM's
//! bit-for-bit validation relies on.
//!
//! Every collective returns `Result`: under fault injection a dropped
//! message surfaces as [`CommError::Deadlock`] instead of a panic, so the
//! driver's recovery path stays reachable.

use crate::world::Rank;
use crate::CommError;

// Reserved internal tag blocks (top of a dedicated namespace well above any
// user tag used by the model components).
pub(crate) const TAG_BASE: u64 = 0xC0_0000_0000;
pub(crate) const TAG_BCAST: u64 = TAG_BASE + 0x1000;
pub(crate) const TAG_GATHER: u64 = TAG_BASE + 0x2000;
pub(crate) const TAG_ALLREDUCE: u64 = TAG_BASE + 0x4000;
pub(crate) const TAG_ALLTOALL: u64 = TAG_BASE + 0x5000;

/// The wire tag the coupler's all-to-all rearrangement (`cpl::Rearranger`,
/// which sends its own personalised exchange) travels under for user tag
/// `tag` — lets traffic observers ([`crate::CommStats::tag_traffic`])
/// attribute bytes to the strategy that moved them.
pub fn alltoall_wire_tag(tag: u64) -> u64 {
    TAG_ALLTOALL + tag
}

/// True when `tag` sits in the reserved collective namespace — the wire
/// tags the P2P legs of bcast/gather/allreduce/… travel under. Wait-state
/// analyzers use this to classify a blocking receive as *collective wait*
/// (the rank is parked at a reduction/barrier) rather than a plain
/// point-to-point stall.
pub fn is_collective_tag(tag: u64) -> bool {
    tag >= TAG_BASE
}

/// Which collective family a reserved wire tag belongs to, or `None` for
/// user (point-to-point) tags. Best-effort: the user tag is *added* to the
/// block base, so a user tag larger than a block (≥ 0x1000) can spill into
/// the next family's label — fine for display, don't branch on it.
/// Everything from block 0x7000 up — the membership plane of a shrunk
/// world (`0xD7_…`: its dissemination barrier, vote and verdict) — reports
/// as `"barrier"`; the two-stage wire tags of `allreduce` (both blocks
/// stacked, tag above `2 * TAG_BASE`) as `"allreduce"`.
pub fn collective_kind(tag: u64) -> Option<&'static str> {
    if !is_collective_tag(tag) {
        return None;
    }
    if tag >= 2 * TAG_BASE {
        return Some("allreduce");
    }
    const BLOCKS: [(u64, &str); 5] = [
        (0x1000, "bcast"),
        (0x2000, "gather"),
        (0x4000, "allreduce"),
        (0x5000, "alltoall"),
        (0x7000, "barrier"),
    ];
    let off = tag - TAG_BASE;
    Some(
        BLOCKS
            .iter()
            .rev()
            .find(|(base, _)| off >= *base)
            .map(|(_, name)| *name)
            .unwrap_or("collective"),
    )
}

/// Broadcast `data` from `root` to every rank; each rank returns the value.
pub fn bcast<T: Send + Clone + 'static>(
    rank: &Rank,
    tag: u64,
    root: usize,
    data: Vec<T>,
) -> Result<Vec<T>, CommError> {
    let tag = TAG_BCAST + tag;
    if rank.id() == root {
        for dst in 0..rank.size() {
            if dst != root {
                rank.send(dst, tag, data.clone());
            }
        }
        Ok(data)
    } else {
        rank.recv(root, tag)
    }
}

/// Gather every rank's `data` to `root`; returns `Some(concatenated in rank
/// order)` on root, `None` elsewhere.
pub fn gather<T: Send + Clone + 'static>(
    rank: &Rank,
    tag: u64,
    root: usize,
    data: Vec<T>,
) -> Result<Option<Vec<Vec<T>>>, CommError> {
    let tag = TAG_GATHER + tag;
    if rank.id() == root {
        let mut out: Vec<Option<Vec<T>>> = (0..rank.size()).map(|_| None).collect();
        out[root] = Some(data);
        for (src, slot) in out.iter_mut().enumerate() {
            if src != root {
                *slot = Some(rank.recv(src, tag)?);
            }
        }
        Ok(Some(
            out.into_iter()
                .map(|v| v.expect("every gather slot was just filled"))
                .collect(),
        ))
    } else {
        rank.send(root, tag, data);
        Ok(None)
    }
}

/// Element-wise all-reduce of equal-length vectors with `combine`, applied
/// in rank order (deterministic). Every rank returns the reduced vector.
pub fn allreduce<T: Send + Clone + 'static>(
    rank: &Rank,
    tag: u64,
    data: Vec<T>,
    combine: impl Fn(&T, &T) -> T,
) -> Result<Vec<T>, CommError> {
    let len = data.len();
    let reduced = gather(rank, TAG_ALLREDUCE + tag, 0, data)?.map(|parts| {
        let mut acc: Option<Vec<T>> = None;
        for part in parts {
            assert_eq!(part.len(), len, "allreduce length mismatch across ranks");
            acc = Some(match acc {
                None => part,
                Some(a) => a
                    .iter()
                    .zip(part.iter())
                    .map(|(x, y)| combine(x, y))
                    .collect(),
            });
        }
        acc.unwrap_or_default()
    });
    bcast(
        rank,
        TAG_ALLREDUCE + 0x800 + tag,
        0,
        reduced.unwrap_or_default(),
    )
}

/// Scalar f64 sum all-reduce (the most common reduction in the dycores).
pub fn allreduce_sum(rank: &Rank, tag: u64, value: f64) -> Result<f64, CommError> {
    Ok(allreduce(rank, tag, vec![value], |a, b| a + b)?[0])
}

/// Scalar f64 max all-reduce (used for CFL checks and timer maxima — the
/// paper records "the maximum value across all MPI ranks" for wall time).
pub fn allreduce_max(rank: &Rank, tag: u64, value: f64) -> Result<f64, CommError> {
    Ok(allreduce(rank, tag, vec![value], |a, b| a.max(*b))?[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn bcast_reaches_everyone() {
        let world = World::new(5);
        let out = world.run(|rank| {
            let data = if rank.id() == 2 { vec![2.75f64] } else { vec![] };
            bcast(rank, 0, 2, data).unwrap()
        });
        for v in out {
            assert_eq!(v, vec![2.75]);
        }
    }

    #[test]
    fn gather_concatenates_in_rank_order() {
        let world = World::new(4);
        let out = world.run(|rank| gather(rank, 0, 0, vec![rank.id() as u32 * 10]).unwrap());
        let root = out[0].as_ref().unwrap();
        assert_eq!(root, &vec![vec![0], vec![10], vec![20], vec![30]]);
        assert!(out[1].is_none());
    }

    #[test]
    fn allreduce_sum_is_exact_and_uniform() {
        let world = World::new(6);
        let out = world.run(|rank| allreduce_sum(rank, 0, rank.id() as f64).unwrap());
        for v in out {
            assert_eq!(v, 15.0);
        }
    }

    #[test]
    fn allreduce_max_across_ranks() {
        let world = World::new(4);
        let out = world.run(|rank| allreduce_max(rank, 0, -(rank.id() as f64)).unwrap());
        for v in out {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn allreduce_is_deterministic_across_runs() {
        // Rank-order combination makes FP results identical run to run.
        let run = || {
            let world = World::new(7);
            world.run(|rank| {
                let x = ((rank.id() + 1) as f64).ln() * 0.333;
                allreduce_sum(rank, 0, x).unwrap()
            })[0]
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn dropped_collective_message_surfaces_as_deadlock() {
        use crate::faultplan::{FaultInjector, FaultPlan};
        use std::sync::Arc;
        use std::time::Duration;
        // Drop the bcast leg from root 0 to rank 2.
        let plan =
            FaultPlan::parse(&format!("drop src=0 dst=2 tag={} nth=1", TAG_BCAST + 5)).unwrap();
        let world = World::new(3)
            .with_recv_timeout(Duration::from_millis(20))
            .with_fault_injector(Arc::new(FaultInjector::new(plan)));
        let out = world.run(|rank| bcast(rank, 5, 0, vec![rank.id() as u8]));
        assert!(out[0].is_ok());
        assert!(out[1].is_ok());
        assert!(matches!(out[2], Err(CommError::Deadlock { .. })));
    }
}
