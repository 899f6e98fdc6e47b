//! Rank-aware aggregation of span timings.
//!
//! §6.2: "Wall-clock time measurements are obtained using timers … with the
//! maximum value across all MPI ranks recorded to account for potential
//! load imbalance." Every rank ships its span snapshot to the reporting
//! rank (one `gather::<SpanSnapshot>` — ranks are threads, so the typed
//! snapshot travels as it is), and two plain functions of the gathered
//! snapshots do the rest: [`aggregate_sections`] implements the paper's
//! rule — per-section max/min/mean plus the load-imbalance ratio — and
//! [`rank_trees`] bounds every rank's *full tree* by depth and span count,
//! so the run report and the flamegraph show each rank's structure, not
//! just a flat table.

use std::collections::BTreeMap;

use crate::span::SpanSnapshot;

/// Cross-rank statistics for one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionStats {
    /// Slash-joined span path (e.g. `ocn_run/ocn_step/barotropic`).
    pub path: String,
    /// Paper rule: slowest rank's total for this section.
    pub max_s: f64,
    pub min_s: f64,
    /// Mean over the ranks that entered the section.
    pub mean_s: f64,
    /// Load-imbalance ratio: max over the *world-wide* mean, where ranks
    /// that never entered the section contribute zero. A section run by one
    /// rank of N therefore reads as N× imbalanced instead of silently
    /// reporting 1.0 — the coupled layout (atmosphere on rank 0, ocean
    /// elsewhere) is full of such sections and they are exactly the ones
    /// the §6.2 analysis needs flagged.
    pub imbalance: f64,
    /// How many ranks entered the section.
    pub ranks: usize,
    /// World size the aggregation ran over.
    pub world: usize,
    /// Largest per-rank call count.
    pub count: u64,
}

/// Merges every rank's span snapshot (`per_rank[rank]`) into per-section
/// cross-rank stats, sorted by path.
pub fn aggregate_sections(per_rank: &[Vec<SpanSnapshot>]) -> Vec<SectionStats> {
    let world = per_rank.len();
    let mut merged: BTreeMap<&str, SectionStats> = BTreeMap::new();
    for s in per_rank.iter().flatten() {
        let entry = merged.entry(&s.path).or_insert_with(|| SectionStats {
            path: s.path.clone(),
            max_s: f64::NEG_INFINITY,
            min_s: f64::INFINITY,
            mean_s: 0.0, // holds the running sum until the final pass
            imbalance: 1.0,
            ranks: 0,
            world,
            count: 0,
        });
        entry.max_s = entry.max_s.max(s.total_s);
        entry.min_s = entry.min_s.min(s.total_s);
        entry.mean_s += s.total_s;
        entry.ranks += 1;
        entry.count = entry.count.max(s.count);
    }
    merged
        .into_values()
        .map(|mut s| {
            // Imbalance over the whole world: absent ranks contribute zero
            // time, so a section run by 1 of N ranks reads as N×.
            let world_mean = s.mean_s / world as f64;
            s.mean_s /= s.ranks as f64;
            s.imbalance = if world_mean > 0.0 {
                s.max_s / world_mean
            } else {
                1.0
            };
            s
        })
        .collect()
}

/// One rank's (bounded) span tree, as [`rank_trees`] cuts it.
#[derive(Debug, Clone, PartialEq)]
pub struct RankTree {
    pub rank: usize,
    /// Spans omitted by the depth/count bounds.
    pub dropped: u64,
    /// Preorder snapshot, parents before children.
    pub spans: Vec<SpanSnapshot>,
}

/// Every rank's span tree (preorder), bounded to `max_depth` and
/// `max_spans` per rank. Depth bound first: preorder keeps parents before
/// children, and a node's children are strictly deeper, so the prefix stays
/// a forest.
pub fn rank_trees(
    per_rank: &[Vec<SpanSnapshot>],
    max_depth: usize,
    max_spans: usize,
) -> Vec<RankTree> {
    per_rank
        .iter()
        .enumerate()
        .map(|(rank, all)| {
            let spans: Vec<SpanSnapshot> = all
                .iter()
                .filter(|s| s.depth <= max_depth)
                .take(max_spans)
                .cloned()
                .collect();
            RankTree {
                rank,
                dropped: (all.len() - spans.len()) as u64,
                spans,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap3esm_comm::collectives::gather;
    use ap3esm_comm::World;

    fn span(path: &str, total_s: f64, count: u64) -> SpanSnapshot {
        SpanSnapshot {
            path: path.to_string(),
            name: path.rsplit('/').next().unwrap().to_string(),
            depth: path.matches('/').count(),
            total_s,
            self_s: total_s,
            count,
        }
    }

    #[test]
    fn takes_max_across_ranks_and_computes_imbalance() {
        // Rank r spends (r+1) seconds in "work": mean 2.5, max 4.
        let per_rank: Vec<_> = (0..4)
            .map(|r| vec![span("work", (r + 1) as f64, 10)])
            .collect();
        let t = aggregate_sections(&per_rank);
        assert_eq!(t.len(), 1);
        let w = &t[0];
        assert_eq!(w.path, "work");
        assert_eq!(w.ranks, 4);
        assert_eq!(w.world, 4);
        assert_eq!(w.max_s, 4.0);
        assert_eq!(w.min_s, 1.0);
        assert!((w.mean_s - 2.5).abs() < 1e-12);
        assert!((w.imbalance - 1.6).abs() < 1e-12);
        assert_eq!(w.count, 10);
    }

    #[test]
    fn sections_missing_on_some_ranks_read_as_world_imbalance() {
        // Only rank 0 runs the atmosphere; all ranks run the ocean. The
        // section also exists on ranks *other than 0* in real coupled
        // runs (ocean spans absent on rank 0): either way the table
        // must list it and flag the concentration, not report 1.0.
        let per_rank: Vec<_> = (0..3)
            .map(|r| {
                let mut spans = vec![span("ocn_run", 2.0, 4)];
                if r == 0 {
                    spans.push(span("atm_run", 6.0, 8));
                } else {
                    spans.push(span("ocn_run/barotropic", 1.0, 2));
                }
                spans
            })
            .collect();
        let t = aggregate_sections(&per_rank);
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].path, "atm_run"); // BTreeMap: sorted by path
        assert_eq!(t[0].ranks, 1);
        assert_eq!(t[0].world, 3);
        assert_eq!(t[0].mean_s, 6.0); // mean over participants is unchanged
                                      // World mean is 6/3 = 2 s, so one-rank-of-three reads as 3×.
        assert!((t[0].imbalance - 3.0).abs() < 1e-12);
        assert_eq!(t[1].path, "ocn_run");
        assert_eq!(t[1].ranks, 3);
        assert_eq!(t[1].imbalance, 1.0); // balanced sections still read 1.0
                                         // Present on ranks 1..3 but absent on rank 0: 1.0/(2/3) = 1.5×.
        assert_eq!(t[2].path, "ocn_run/barotropic");
        assert_eq!(t[2].ranks, 2);
        assert!((t[2].imbalance - 1.5).abs() < 1e-12);
    }

    #[test]
    fn snapshots_gather_to_root_typed_and_cut_into_trees_in_rank_order() {
        let world = World::new(3);
        let gathered = world.run(|rank| {
            let spans = vec![
                span("top", (rank.id() + 1) as f64, 1),
                span("top/leaf", 0.5, 2),
            ];
            gather(rank, 0x0B70, 0, spans).unwrap()
        });
        assert!(gathered[1].is_none());
        assert!(gathered[2].is_none());
        let trees = rank_trees(gathered[0].as_ref().unwrap(), 16, 512);
        assert_eq!(trees.len(), 3);
        for (r, t) in trees.iter().enumerate() {
            assert_eq!(t.rank, r);
            assert_eq!(t.dropped, 0);
            assert_eq!(t.spans.len(), 2);
            assert_eq!(t.spans[0].path, "top");
            assert_eq!(t.spans[0].total_s, (r + 1) as f64);
            assert_eq!(t.spans[1].path, "top/leaf");
            assert_eq!(t.spans[1].name, "leaf");
            assert_eq!(t.spans[1].depth, 1);
        }
    }

    #[test]
    fn trees_are_bounded_by_depth_and_count() {
        let spans = vec![
            span("a", 3.0, 1),
            span("a/b", 2.0, 1),
            span("a/b/c", 1.0, 1), // over max_depth
            span("d", 1.0, 1),     // over max_spans after depth cut
        ];
        let trees = rank_trees(&[Vec::new(), spans], 1, 2);
        let t = &trees[1];
        assert_eq!(t.dropped, 2);
        let paths: Vec<&str> = t.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["a", "a/b"]);
    }
}
