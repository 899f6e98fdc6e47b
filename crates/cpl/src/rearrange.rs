//! Rearrangement: executing a [`Router`] over the communication world.
//!
//! "Rearrangement in the coupler generalizes the matrix transpose. The
//! original all-to-all MPI was inefficient; we implemented non-blocking
//! point-to-point MPI, which overlaps communication and computation for
//! improved performance" (§5.2.4). Both strategies are implemented so the
//! S524 benchmark can compare them on identical routers.
//!
//! A rearrangement is split-phase: [`Rearranger::post`] packs and sends,
//! [`Rearranger::complete`] receives and unpacks, and the caller may compute
//! between the two. One message per (source, destination) leg carries every
//! field of the bundle — for each field in declaration order the leg's
//! points, then any trailing scalars — so a coupling costs one message per
//! leg, not one per field.

use ap3esm_comm::{CommError, Rank};

use crate::avect::AttrVect;
use crate::router::{RouteLeg, Router};

/// Wire-tag namespace of the non-blocking point-to-point strategy.
const P2P_TAG_BASE: u64 = 0x5240_0000;

/// Which MPI pattern moves the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RearrangeStrategy {
    /// `MPI_Alltoallv`-style: every rank sends one (possibly empty) buffer
    /// to every rank and receives one from each (the original
    /// implementation).
    AllToAll,
    /// Non-blocking point-to-point sends to only the ranks that need data,
    /// receives only from the ranks that have some (the optimisation).
    NonBlockingP2p,
}

/// Executes one router in either direction. Holds no per-call state, so one
/// instance can serve every rank thread of a world.
pub struct Rearranger {
    pub router: Router,
    tag: u64,
}

impl Rearranger {
    pub fn new(router: Router, tag: u64) -> Self {
        Rearranger { router, tag }
    }

    /// Move `src_data` (this rank's source-decomposition slice) into the
    /// destination decomposition; returns this rank's destination slice of
    /// length `dst_len`.
    ///
    /// Every rank of the world participates (the coupler "runs on all
    /// processors"); ranks with no data still make the call.
    pub fn rearrange(
        &self,
        rank: &Rank,
        strategy: RearrangeStrategy,
        src_data: &[f64],
        dst_len: usize,
    ) -> Vec<f64> {
        self.try_rearrange(rank, strategy, src_data, dst_len)
            .expect("rearrange failed")
    }

    /// Fallible variant of [`Rearranger::rearrange`]: a dropped or delayed
    /// message under fault injection surfaces as [`CommError`] instead of a
    /// panic, keeping the driver's recovery path reachable. One field,
    /// posted and completed back to back.
    pub fn try_rearrange(
        &self,
        rank: &Rank,
        strategy: RearrangeStrategy,
        src_data: &[f64],
        dst_len: usize,
    ) -> Result<Vec<f64>, CommError> {
        self.post_packed(rank, strategy, src_data, 1, &[]);
        let mut out = vec![0.0; dst_len];
        self.complete_packed(rank, strategy, &mut out, 1, &mut [])?;
        Ok(out)
    }

    /// First half of a rearrangement of the whole bundle: pack and send one
    /// message per destination leg — every field of `src` in declaration
    /// order, then `scalars`. Never blocks.
    pub fn post(&self, rank: &Rank, strategy: RearrangeStrategy, src: &AttrVect, scalars: &[f64]) {
        self.post_packed(rank, strategy, src.as_slice(), src.num_fields(), scalars);
    }

    /// Second half: receive the posted messages in source-rank order and
    /// unpack them into `dst`'s fields; `scalars` ends as the sum, in that
    /// order, of what the sources attached. Points no source covers keep
    /// their contents, as does everything after a failed receive.
    pub fn complete(
        &self,
        rank: &Rank,
        strategy: RearrangeStrategy,
        dst: &mut AttrVect,
        scalars: &mut [f64],
    ) -> Result<(), CommError> {
        let nfields = dst.num_fields();
        self.complete_packed(rank, strategy, dst.as_mut_slice(), nfields, scalars)
    }

    /// The wire tags this rearranger's traffic travels under (all-to-all
    /// collective, then point-to-point), for per-phase byte attribution via
    /// [`ap3esm_comm::CommStats::tag_traffic`].
    pub fn wire_tags(&self) -> [u64; 2] {
        Self::wire_tags_for(self.tag)
    }

    /// [`Rearranger::wire_tags`] from the user tag alone — the wire tags
    /// depend only on the tag, not the layout, so traffic attribution
    /// stays possible after the rearranger itself is gone (e.g. a report
    /// built after a shrink rebuilt the coupler's rearrangers).
    pub fn wire_tags_for(tag: u64) -> [u64; 2] {
        [
            ap3esm_comm::collectives::alltoall_wire_tag(tag),
            P2P_TAG_BASE + tag,
        ]
    }

    fn wire_tag(&self, strategy: RearrangeStrategy) -> u64 {
        let [a2a, p2p] = self.wire_tags();
        match strategy {
            RearrangeStrategy::AllToAll => a2a,
            RearrangeStrategy::NonBlockingP2p => p2p,
        }
    }

    /// The leg `src → dst`, if it carries any point.
    fn leg(&self, src: usize, dst: usize) -> Option<&RouteLeg> {
        let leg = self.router.legs.get(src)?.get(dst)?;
        (!leg.src_local.is_empty()).then_some(leg)
    }

    /// `src` holds `nfields` fields of equal length, one after the other.
    fn post_packed(
        &self,
        rank: &Rank,
        strategy: RearrangeStrategy,
        src: &[f64],
        nfields: usize,
        scalars: &[f64],
    ) {
        observed(|| {
            let tag = self.wire_tag(strategy);
            let npoints = src.len() / nfields.max(1);
            for dst in 0..rank.size() {
                if let Some(leg) = self.leg(rank.id(), dst) {
                    let mut buf = Vec::with_capacity(nfields * leg.src_local.len() + scalars.len());
                    for field in src.chunks_exact(npoints) {
                        buf.extend(leg.src_local.iter().map(|&p| field[p as usize]));
                    }
                    buf.extend_from_slice(scalars);
                    rank.isend(dst, tag, buf);
                } else if strategy == RearrangeStrategy::AllToAll {
                    rank.send(dst, tag, Vec::<f64>::new());
                }
            }
        })
    }

    fn complete_packed(
        &self,
        rank: &Rank,
        strategy: RearrangeStrategy,
        dst: &mut [f64],
        nfields: usize,
        scalars: &mut [f64],
    ) -> Result<(), CommError> {
        observed(|| {
            let tag = self.wire_tag(strategy);
            let npoints = dst.len() / nfields.max(1);
            scalars.fill(0.0);
            for src in 0..rank.size() {
                let leg = self.leg(src, rank.id());
                if leg.is_none() && strategy == RearrangeStrategy::NonBlockingP2p {
                    continue;
                }
                let buf: Vec<f64> = rank.recv(src, tag)?;
                let Some(leg) = leg else { continue };
                let n = leg.dst_local.len();
                assert_eq!(
                    buf.len(),
                    nfields * n + scalars.len(),
                    "leg length mismatch"
                );
                for (field, values) in dst.chunks_exact_mut(npoints).zip(buf.chunks_exact(n)) {
                    for (&p, &v) in leg.dst_local.iter().zip(values) {
                        field[p as usize] = v;
                    }
                }
                for (sum, v) in scalars.iter_mut().zip(&buf[nfields * n..]) {
                    *sum += v;
                }
            }
            Ok(())
        })
    }

    /// Messages the P2P strategy sends from this rank (sparsity gain over
    /// all-to-all's `world_size` buffers).
    pub fn p2p_message_count(&self, me: usize) -> usize {
        (0..self.router.dst_ranks)
            .filter(|&dst| self.leg(me, dst).is_some())
            .count()
    }
}

/// Run one half of a rearrangement under a `rearrange` span and record its
/// duration as a `cpl.rearrange.ns` sample.
fn observed<T>(half: impl FnOnce() -> T) -> T {
    let _span = ap3esm_obs::span("rearrange");
    let t0 = std::time::Instant::now();
    let out = half();
    ap3esm_obs::histogram_record("cpl.rearrange.ns", t0.elapsed().as_nanos() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsmap::GSMap;
    use ap3esm_comm::World;

    fn check_strategy(strategy: RearrangeStrategy) {
        let nglobal = 97;
        let nranks = 4;
        let src = GSMap::even(nglobal, nranks);
        let dst = GSMap::from_ranges(nglobal, &[(0, 10), (10, 40), (40, 41), (41, 97)]);
        let world = World::new(nranks);
        let outs = world.run(|rank| {
            let router = Router::build(&src, &dst);
            let rearranger = Rearranger::new(router, 7);
            // Source data: global index value, in local gather order.
            let local: Vec<f64> = src
                .local_indices(rank.id())
                .iter()
                .map(|&g| g as f64)
                .collect();
            rearranger.rearrange(rank, strategy, &local, dst.local_size(rank.id()))
        });
        // Every rank must hold exactly its destination global ids.
        for (r, out) in outs.iter().enumerate() {
            let expect: Vec<f64> = dst.local_indices(r).iter().map(|&g| g as f64).collect();
            assert_eq!(out, &expect, "rank {r} under {strategy:?}");
        }
    }

    #[test]
    fn alltoall_rearrange_is_a_permutation() {
        check_strategy(RearrangeStrategy::AllToAll);
    }

    #[test]
    fn p2p_rearrange_matches_alltoall() {
        check_strategy(RearrangeStrategy::NonBlockingP2p);
    }

    #[test]
    fn round_trip_restores_source_layout() {
        let nglobal = 64;
        let nranks = 3;
        let a = GSMap::even(nglobal, nranks);
        let b = GSMap::from_ranges(nglobal, &[(0, 30), (30, 31), (31, 64)]);
        let world = World::new(nranks);
        world.run(|rank| {
            let fwd = Rearranger::new(Router::build(&a, &b), 1);
            let back = Rearranger::new(Router::build(&b, &a), 2);
            let local: Vec<f64> = a
                .local_indices(rank.id())
                .iter()
                .map(|&g| (g as f64).sin())
                .collect();
            let there = fwd.rearrange(
                rank,
                RearrangeStrategy::NonBlockingP2p,
                &local,
                b.local_size(rank.id()),
            );
            let home = back.rearrange(
                rank,
                RearrangeStrategy::AllToAll,
                &there,
                a.local_size(rank.id()),
            );
            assert_eq!(home, local);
        });
    }

    #[test]
    fn p2p_sends_fewer_messages_than_world_size() {
        // 1→N routing: source rank 0 sends N messages; others send none —
        // all-to-all would enqueue world_size buffers from every rank.
        let src = GSMap::all_on_rank(100, 6, 0);
        let dst = GSMap::even(100, 6);
        let router = Router::build(&src, &dst);
        let r = Rearranger::new(router, 3);
        assert_eq!(r.p2p_message_count(0), 6);
        for rank in 1..6 {
            assert_eq!(r.p2p_message_count(rank), 0);
        }
    }

    #[test]
    fn wire_tags_attribute_traffic_per_strategy() {
        let nglobal = 40;
        let nranks = 4;
        let src = GSMap::all_on_rank(nglobal, nranks, 0);
        let dst = GSMap::even(nglobal, nranks);
        for (strategy, tag_slot) in [
            (RearrangeStrategy::AllToAll, 0),
            (RearrangeStrategy::NonBlockingP2p, 1),
        ] {
            let world = World::new(nranks);
            let tags = world.run(|rank| {
                let r = Rearranger::new(Router::build(&src, &dst), 11);
                let data: Vec<f64> = if rank.id() == 0 {
                    (0..nglobal).map(|g| g as f64).collect()
                } else {
                    Vec::new()
                };
                r.rearrange(rank, strategy, &data, dst.local_size(rank.id()));
                r.wire_tags()
            });
            let (msgs, bytes) = world.stats().tag_traffic(tags[0][tag_slot]);
            assert!(
                msgs > 0 && bytes > 0,
                "{strategy:?} left no traffic on its tag"
            );
            // The other strategy's tag stays quiet (a2a runs through the
            // collective namespace, p2p through its own).
            let (other_msgs, _) = world.stats().tag_traffic(tags[0][1 - tag_slot]);
            assert_eq!(other_msgs, 0, "{strategy:?} leaked onto the other tag");
        }
    }

    /// A whole bundle is one message per leg: fields at their declared
    /// offsets, the scalars behind them, summed over sources in rank order.
    #[test]
    fn bundle_is_posted_packed_and_completed_later() {
        let (nglobal, nranks) = (10, 3);
        let root = GSMap::all_on_rank(nglobal, nranks, 0);
        let spread = GSMap::from_ranges(nglobal, &[(0, 0), (0, 4), (4, 10)]);
        for (strategy, tag_slot, messages) in [
            (RearrangeStrategy::NonBlockingP2p, 1, 2),
            (RearrangeStrategy::AllToAll, 0, 9),
        ] {
            let world = World::new(nranks);
            let gathered = world.run(|rank| {
                let me = rank.id();
                let gather = Rearranger::new(Router::build(&spread, &root), 12);
                let mut src = AttrVect::new(spread.local_size(me), &["b", "a"]);
                for (k, (_, data)) in src.fields_mut().enumerate() {
                    for (v, g) in data.iter_mut().zip(spread.local_indices(me)) {
                        *v = (100 * k + g) as f64;
                    }
                }
                gather.post(rank, strategy, &src, &[me as f64, 0.5]);
                // Nothing is received until `complete` asks for it.
                let mut dst = AttrVect::new(root.local_size(me), &["b", "a"]);
                let mut sums = [f64::NAN; 2];
                gather
                    .complete(rank, strategy, &mut dst, &mut sums)
                    .expect("complete");
                (dst, sums)
            });
            let (dst, sums) = &gathered[0];
            let want: Vec<f64> = (0..nglobal).map(|g| g as f64).collect();
            assert_eq!(dst.get("b"), want);
            assert_eq!(dst.get("a")[3], 103.0);
            // Ranks 1 and 2 hold points; rank 0's empty leg carries nothing.
            assert_eq!(*sums, [3.0, 1.0]);
            assert_eq!(gathered[1].1, [0.0, 0.0]);
            let tag = Rearranger::wire_tags_for(12)[tag_slot];
            let (msgs, bytes) = world.stats().tag_traffic(tag);
            assert_eq!((msgs, bytes), (messages, (2 * nglobal as u64 + 2 * 2) * 8));
        }
    }

    #[test]
    fn one_to_many_and_back_through_world() {
        // The coupled model's ATM-root ↔ OCN-ranks exchange.
        let nglobal = 48;
        let nranks = 4;
        let atm = GSMap::all_on_rank(nglobal, nranks, 0);
        let ocn = GSMap::even(nglobal, nranks);
        let world = World::new(nranks);
        let outs = world.run(|rank| {
            let scatter = Rearranger::new(Router::build(&atm, &ocn), 11);
            let gather = Rearranger::new(Router::build(&ocn, &atm), 12);
            let src: Vec<f64> = if rank.id() == 0 {
                (0..nglobal).map(|g| g as f64 * 2.0).collect()
            } else {
                Vec::new()
            };
            let mine = scatter.rearrange(
                rank,
                RearrangeStrategy::NonBlockingP2p,
                &src,
                ocn.local_size(rank.id()),
            );
            // Each rank doubles its part, then it is gathered back.
            let processed: Vec<f64> = mine.iter().map(|v| v + 1.0).collect();
            gather.rearrange(
                rank,
                RearrangeStrategy::NonBlockingP2p,
                &processed,
                atm.local_size(rank.id()),
            )
        });
        let expect: Vec<f64> = (0..nglobal).map(|g| g as f64 * 2.0 + 1.0).collect();
        assert_eq!(outs[0], expect);
        assert!(outs[1].is_empty());
    }
}
