//! Domain decomposition: 2-D blocks for the structured ocean grid and
//! graph-greedy patches for the unstructured atmosphere grid, plus the halo
//! specs each induces (consumed by `ap3esm-comm`).

use ap3esm_comm::halo::{HaloLink, HaloSpec};

use crate::icosahedral::GeodesicGrid;

/// 2-D block decomposition of an `nlon × nlat` structured grid over a
/// `px × py` process mesh (zonally periodic, meridionally bounded).
#[derive(Debug, Clone)]
pub struct BlockDecomp2d {
    pub nlon: usize,
    pub nlat: usize,
    pub px: usize,
    pub py: usize,
}

/// One rank's rectangle in a [`BlockDecomp2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    pub i0: usize,
    pub i1: usize, // exclusive
    pub j0: usize,
    pub j1: usize, // exclusive
}

impl Block {
    pub fn ni(&self) -> usize {
        self.i1 - self.i0
    }

    pub fn nj(&self) -> usize {
        self.j1 - self.j0
    }

    pub fn ncols(&self) -> usize {
        self.ni() * self.nj()
    }
}

impl BlockDecomp2d {
    pub fn new(nlon: usize, nlat: usize, px: usize, py: usize) -> Self {
        assert!(px >= 1 && py >= 1);
        assert!(px <= nlon && py <= nlat, "more ranks than rows/cols");
        BlockDecomp2d { nlon, nlat, px, py }
    }

    /// Pick a near-square process mesh for `nranks`.
    pub fn auto(nlon: usize, nlat: usize, nranks: usize) -> Self {
        let mut best = (1, nranks);
        let mut best_score = f64::INFINITY;
        for px in 1..=nranks {
            if !nranks.is_multiple_of(px) {
                continue;
            }
            let py = nranks / px;
            if px > nlon || py > nlat {
                continue;
            }
            // Prefer blocks whose aspect matches the grid's.
            let aspect = (nlon as f64 / px as f64) / (nlat as f64 / py as f64);
            let score = (aspect.ln()).abs();
            if score < best_score {
                best_score = score;
                best = (px, py);
            }
        }
        Self::new(nlon, nlat, best.0, best.1)
    }

    pub fn nranks(&self) -> usize {
        self.px * self.py
    }

    /// Rank's (pi, pj) coordinates.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        (rank % self.px, rank / self.px)
    }

    pub fn rank_at(&self, pi: usize, pj: usize) -> usize {
        pj * self.px + pi
    }

    /// The block owned by `rank` (even split with remainders spread low).
    pub fn block(&self, rank: usize) -> Block {
        let (pi, pj) = self.coords(rank);
        let split = |n: usize, p: usize, k: usize| -> (usize, usize) {
            let base = n / p;
            let rem = n % p;
            let start = k * base + k.min(rem);
            let len = base + usize::from(k < rem);
            (start, start + len)
        };
        let (i0, i1) = split(self.nlon, self.px, pi);
        let (j0, j1) = split(self.nlat, self.py, pj);
        Block { i0, i1, j0, j1 }
    }

    /// Halo spec for `rank` with a one-cell halo, zonally periodic. The
    /// local layout is `(nj + 2) × (ni + 2)` row-major with ghosts on the
    /// rim; interior cell (i, j) lives at `(j+1)*(ni+2) + (i+1)`.
    ///
    /// Channels: 0 = westward, 1 = eastward, 2 = southward, 3 = northward.
    pub fn halo_spec(&self, rank: usize) -> HaloSpec {
        let (pi, pj) = self.coords(rank);
        let b = self.block(rank);
        let (ni, nj) = (b.ni(), b.nj());
        let stride = ni + 2;
        let at = |i: usize, j: usize| (j + 1) * stride + (i + 1);

        let mut sends = Vec::new();
        let mut recvs = Vec::new();

        // East-west: periodic.
        let west = self.rank_at((pi + self.px - 1) % self.px, pj);
        let east = self.rank_at((pi + 1) % self.px, pj);
        let west_col: Vec<usize> = (0..nj).map(|j| at(0, j)).collect();
        let east_col: Vec<usize> = (0..nj).map(|j| at(ni - 1, j)).collect();
        let west_ghost: Vec<usize> = (0..nj).map(|j| (j + 1) * stride).collect();
        let east_ghost: Vec<usize> = (0..nj).map(|j| (j + 1) * stride + ni + 1).collect();
        sends.push(HaloLink {
            peer: west,
            channel: 0,
            indices: west_col,
        });
        sends.push(HaloLink {
            peer: east,
            channel: 1,
            indices: east_col,
        });
        recvs.push(HaloLink {
            peer: west,
            channel: 1,
            indices: west_ghost,
        });
        recvs.push(HaloLink {
            peer: east,
            channel: 0,
            indices: east_ghost,
        });

        // North-south: bounded (no send at domain edge).
        if pj > 0 {
            let south = self.rank_at(pi, pj - 1);
            sends.push(HaloLink {
                peer: south,
                channel: 2,
                indices: (0..ni).map(|i| at(i, 0)).collect(),
            });
            recvs.push(HaloLink {
                peer: south,
                channel: 3,
                indices: (0..ni).map(|i| i + 1).collect(), // row j = -1
            });
        }
        if pj + 1 < self.py {
            let north = self.rank_at(pi, pj + 1);
            sends.push(HaloLink {
                peer: north,
                channel: 3,
                indices: (0..ni).map(|i| at(i, nj - 1)).collect(),
            });
            recvs.push(HaloLink {
                peer: north,
                channel: 2,
                indices: (0..ni).map(|i| (nj + 1) * stride + i + 1).collect(),
            });
        }
        HaloSpec {
            rank,
            sends,
            recvs,
        }
    }
}

/// Greedy BFS partition of the icosahedral grid into `nparts` connected,
/// balanced patches (a light-weight stand-in for METIS/SFC partitioners).
#[derive(Debug, Clone)]
pub struct GraphDecomp {
    /// Part id per cell.
    pub part_of: Vec<usize>,
    pub nparts: usize,
}

impl GraphDecomp {
    pub fn new(grid: &GeodesicGrid, nparts: usize) -> Self {
        let n = grid.ncells();
        assert!(nparts >= 1 && nparts <= n);
        let target = n.div_ceil(nparts);
        let mut part_of = vec![usize::MAX; n];
        let mut assigned = 0usize;
        let mut part = 0usize;
        let mut frontier: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut count = 0usize;
        let mut next_seed = 0usize;
        while assigned < n {
            if frontier.is_empty() || count >= target {
                // Start (or move to) the next part at the first unassigned
                // cell — keeps patches compact because cells are generated
                // in subdivision locality order.
                if count >= target && part + 1 < nparts {
                    part += 1;
                    count = 0;
                }
                while next_seed < n && part_of[next_seed] != usize::MAX {
                    next_seed += 1;
                }
                if next_seed >= n {
                    break;
                }
                frontier.clear();
                frontier.push_back(next_seed);
            }
            while let Some(c) = frontier.pop_front() {
                if part_of[c] != usize::MAX {
                    continue;
                }
                part_of[c] = part;
                assigned += 1;
                count += 1;
                for &nb in &grid.cell_neighbors[c] {
                    if part_of[nb] == usize::MAX {
                        frontier.push_back(nb);
                    }
                }
                if count >= target && part + 1 < nparts {
                    break;
                }
            }
        }
        GraphDecomp { part_of, nparts }
    }

    /// Cells of part `p` in global order.
    pub fn cells_of(&self, p: usize) -> Vec<usize> {
        self.part_of
            .iter()
            .enumerate()
            .filter(|(_, &q)| q == p)
            .map(|(c, _)| c)
            .collect()
    }

    /// Part sizes.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.nparts];
        for &p in &self.part_of {
            s[p] += 1;
        }
        s
    }

    /// Number of cut edges (communication volume proxy).
    pub fn cut_edges(&self, grid: &GeodesicGrid) -> usize {
        grid.edges
            .iter()
            .filter(|&&(a, b)| self.part_of[a] != self.part_of[b])
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap3esm_comm::world::World;
    use ap3esm_comm::HaloExchange;

    #[test]
    fn blocks_partition_grid_exactly() {
        let d = BlockDecomp2d::new(100, 60, 4, 3);
        let mut covered = vec![0u8; 100 * 60];
        for r in 0..d.nranks() {
            let b = d.block(r);
            for j in b.j0..b.j1 {
                for i in b.i0..b.i1 {
                    covered[j * 100 + i] += 1;
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn block_sizes_balanced() {
        let d = BlockDecomp2d::new(103, 57, 4, 3);
        let sizes: Vec<usize> = (0..d.nranks()).map(|r| d.block(r).ncols()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= max / 10 + 40, "sizes {sizes:?}");
    }

    #[test]
    fn auto_picks_reasonable_mesh() {
        let d = BlockDecomp2d::auto(360, 180, 8);
        assert_eq!(d.nranks(), 8);
        // 360/px vs 180/py should be near-isotropic: 4×2 expected.
        assert_eq!((d.px, d.py), (4, 2));
    }

    #[test]
    fn structured_halo_exchange_moves_neighbors() {
        let (nlon, nlat) = (16, 12);
        let d = BlockDecomp2d::new(nlon, nlat, 2, 2);
        let world = World::new(d.nranks());
        world.run(|rank| {
            let b = d.block(rank.id());
            let (ni, nj) = (b.ni(), b.nj());
            let stride = ni + 2;
            let mut field = vec![f64::NAN; (nj + 2) * stride];
            // Fill interior with the *global* column index encoding.
            for j in 0..nj {
                for i in 0..ni {
                    let gi = b.i0 + i;
                    let gj = b.j0 + j;
                    field[(j + 1) * stride + (i + 1)] = (gj * nlon + gi) as f64;
                }
            }
            let ex = HaloExchange::new(d.halo_spec(rank.id()), 9);
            ex.exchange(rank, &mut field).unwrap();
            // West ghost of local row j must hold global (gj, gi0-1 mod nlon).
            for j in 0..nj {
                let gj = b.j0 + j;
                let gi_west = (b.i0 + nlon - 1) % nlon;
                let got = field[(j + 1) * stride];
                assert_eq!(got, (gj * nlon + gi_west) as f64, "west ghost row {j}");
                let gi_east = (b.i0 + ni) % nlon;
                let got = field[(j + 1) * stride + ni + 1];
                assert_eq!(got, (gj * nlon + gi_east) as f64, "east ghost row {j}");
            }
            // South ghosts only if an interior neighbor exists.
            if b.j0 > 0 {
                for i in 0..ni {
                    let got = field[i + 1];
                    assert_eq!(got, ((b.j0 - 1) * nlon + b.i0 + i) as f64);
                }
            }
            if b.j1 < nlat {
                for i in 0..ni {
                    let got = field[(nj + 1) * stride + i + 1];
                    assert_eq!(got, (b.j1 * nlon + b.i0 + i) as f64);
                }
            }
        });
    }

    #[test]
    fn graph_decomp_covers_all_cells_balanced() {
        let grid = GeodesicGrid::new(3); // 642 cells
        let d = GraphDecomp::new(&grid, 7);
        assert!(d.part_of.iter().all(|&p| p < 7));
        let sizes = d.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), grid.ncells());
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= max / 2, "unbalanced parts {sizes:?}");
    }

    #[test]
    fn graph_decomp_locality_beats_random() {
        let grid = GeodesicGrid::new(3);
        let d = GraphDecomp::new(&grid, 8);
        let cut = d.cut_edges(&grid);
        // Random assignment would cut ~(1 - 1/8) of all edges; BFS patches
        // must do much better.
        assert!(
            (cut as f64) < 0.5 * grid.nedges() as f64,
            "cut {cut} of {}",
            grid.nedges()
        );
    }

    #[test]
    fn single_part_decomp() {
        let grid = GeodesicGrid::new(2);
        let d = GraphDecomp::new(&grid, 1);
        assert!(d.part_of.iter().all(|&p| p == 0));
        assert_eq!(d.cut_edges(&grid), 0);
    }
}
