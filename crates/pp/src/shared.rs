//! Disjoint-write shared slices — the OpenMP "parallel loop writes its own
//! index" pattern that SWGOMP generates for GRIST loops (§5.1.1: "most of
//! the GRIST loops are conflict-free"). [`for_chunks_mut`] is the safe form
//! for kernels whose outputs are contiguous per index range; [`Scatter`]
//! the safe form for kernels that write one cell of every level per index,
//! cells proved distinct when the scatter is built; [`SharedSlice`] the
//! unsafe one for arbitrary one-writer index sets.

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard};

use crate::exec::ExecSpace;

/// The part of a `len`-long array holding `len / n` entries per index that
/// belongs to `range` of the index space `0..n` — a level-major field over a
/// range of levels, an interleaved field over a range of cells, an empty
/// array (an optional output left out) over anything. Disjoint ranges get
/// disjoint parts.
fn carve(len: usize, n: usize, range: &Range<usize>) -> Range<usize> {
    let stride = len.checked_div(n).unwrap_or(0);
    assert_eq!(
        stride * n,
        len,
        "{len} entries do not divide among {n} indices"
    );
    stride * range.start..stride * range.end
}

/// A `&mut [T]` taken apart so that the lanes of a phase can each be handed
/// their own part of it.
struct RawSlice<T> {
    ptr: *mut T,
    len: usize,
}

impl<T> Clone for RawSlice<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for RawSlice<T> {}

// SAFETY: only `for_chunks_mut` builds one, from a `&mut [T]` it holds for
// the whole phase, and each lane turns it back into a `&mut` of a part no
// other lane gets; `T: Send` because those parts are written on other
// threads.
unsafe impl<T: Send> Sync for RawSlice<T> {}

/// Run `f(range, parts)` over contiguous ranges covering `0..n` on `space`
/// (see [`ExecSpace::for_chunks`]), where `parts[j]` is the part of `outs[j]`
/// that belongs to `range`: with `s = outs[j].len() / n` entries per index,
/// `outs[j][s·range.start .. s·range.end]`. A kernel receives exactly the
/// output entries of its own indices, so a phase that reads shared inputs
/// and writes per-index outputs needs no `unsafe` and gives the same bits
/// however the space cuts the range.
pub fn for_chunks_mut<E, T, const K: usize>(
    space: &E,
    n: usize,
    outs: [&mut [T]; K],
    f: impl Fn(Range<usize>, [&mut [T]; K]) + Sync,
) where
    E: ExecSpace + ?Sized,
    T: Send,
{
    let raw = outs.map(|out| RawSlice {
        ptr: out.as_mut_ptr(),
        len: out.len(),
    });
    space.for_chunks(n, &|range| {
        assert!(range.start <= range.end && range.end <= n);
        let parts = raw.map(|out| {
            let part = carve(out.len, n, &range);
            // SAFETY: `part` lies within `0..out.len` (checked above:
            // `range` lies within `0..n`), the allocation is exclusively
            // borrowed by this call through `outs`, and the ranges of one
            // `for_chunks` call are pairwise disjoint (only this crate
            // implements `ExecSpace`), hence so are the parts: no two
            // `&mut` handed out here overlap, and none outlives the call
            // (`f` takes them at any lifetime, so it cannot keep them).
            unsafe { std::slice::from_raw_parts_mut(out.ptr.add(part.start), part.len()) }
        });
        f(range, parts);
    });
}

/// One cell of a slab per position `0..len()` — a packed list of columns —
/// with no cell listed twice, checked when it is built. A phase over
/// positions can then write each position's cell at every level of a
/// level-major `levels × slab` field from any lane ([`Scatter::for_chunks`]):
/// positions in disjoint ranges own disjoint cells, at every level.
#[derive(Debug, Clone)]
pub struct Scatter {
    cells: Vec<usize>,
    slab: usize,
}

impl Scatter {
    /// Panics if a cell lies outside `0..slab` or is listed twice.
    pub fn new(cells: Vec<usize>, slab: usize) -> Self {
        let mut taken = vec![false; slab];
        for &cell in &cells {
            assert!(cell < slab, "scatter cell {cell} outside a slab of {slab}");
            assert!(
                !std::mem::replace(&mut taken[cell], true),
                "scatter cell {cell} listed twice"
            );
        }
        Scatter { cells, slab }
    }

    /// The cell of every position.
    pub fn cells(&self) -> &[usize] {
        &self.cells
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Run `f(range, parts)` over contiguous ranges covering the positions
    /// `0..len()` on `space` (see [`ExecSpace::for_chunks`]), where
    /// `parts[j]` writes `outs[j]`, a level-major field of
    /// `outs[j].len() / slab` levels, at the cells of `range`'s positions
    /// and nowhere else. Panics if an output is not whole levels.
    pub fn for_chunks<E, T, const K: usize>(
        &self,
        space: &E,
        outs: [&mut [T]; K],
        f: impl Fn(Range<usize>, [ScatterPart<'_, T>; K]) + Sync,
    ) where
        E: ExecSpace + ?Sized,
        T: Send,
    {
        let n = self.cells.len();
        let raw = outs.map(|out| {
            assert_eq!(
                out.len().checked_rem(self.slab).unwrap_or(0),
                0,
                "{} entries are not whole levels of a slab of {}",
                out.len(),
                self.slab
            );
            RawSlice {
                ptr: out.as_mut_ptr(),
                len: out.len(),
            }
        });
        space.for_chunks(n, &|range| {
            assert!(range.start <= range.end && range.end <= n);
            let parts = raw.map(|out| ScatterPart {
                out,
                cells: &self.cells,
                slab: self.slab,
                range: range.clone(),
            });
            f(range, parts);
        });
    }
}

/// What a kernel of [`Scatter::for_chunks`] may write of one output: the
/// cells of its own positions, at any level.
pub struct ScatterPart<'a, T> {
    out: RawSlice<T>,
    cells: &'a [usize],
    slab: usize,
    range: Range<usize>,
}

impl<T> ScatterPart<'_, T> {
    /// Write `value` at level `k` of the cell of position `c`. Panics if `c`
    /// is not a position of this kernel's range or `k` not a level of the
    /// output.
    #[inline]
    pub fn set(&mut self, c: usize, k: usize, value: T) {
        assert!(
            self.range.contains(&c),
            "position {c} is not in this kernel's range {:?}",
            self.range
        );
        let i = k * self.slab + self.cells[c];
        assert!(i < self.out.len, "level {k} is not a level of this output");
        // SAFETY: `i` lies within the output (checked above), which
        // `Scatter::for_chunks` holds exclusively borrowed for the whole
        // phase. Another kernel of the phase writes only the cells of
        // positions in its own range, disjoint from this one (only this
        // crate implements `ExecSpace`), and the cells of distinct positions
        // are distinct (`Scatter::new`); as every cell is below `slab`,
        // `k·slab + cell` is a different element for every (position,
        // level), so no element is written by two kernels. The part writes
        // only, hands out no reference, and cannot outlive the call (`f`
        // takes it at any lifetime).
        unsafe { *self.out.ptr.add(i) = value };
    }
}

/// Scratch for the kernels of a phase: one set per kernel that can run at
/// once ([`ExecSpace::concurrency`] bounds that), and a kernel takes
/// whichever set is free for as long as it runs. A set is not tied to a
/// range or to a thread, so whatever a kernel leaves in one must not matter
/// to the next: write before read.
pub struct PerLane<T> {
    sets: Vec<Mutex<T>>,
}

impl<T> Default for PerLane<T> {
    fn default() -> Self {
        PerLane { sets: Vec::new() }
    }
}

impl<T> PerLane<T> {
    /// Add sets until there are `count`.
    pub fn grow(&mut self, count: usize, make: impl Fn() -> T) {
        while self.sets.len() < count {
            self.sets.push(Mutex::new(make()));
        }
    }

    /// Every set, while no phase is running.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.sets
            .iter_mut()
            .map(|set| set.get_mut().expect("a kernel panicked holding this set"))
    }

    /// A set no other kernel holds. Panics if there are fewer sets than
    /// kernels running.
    pub fn take(&self) -> MutexGuard<'_, T> {
        self.sets
            .iter()
            .find_map(|set| set.try_lock().ok())
            .expect("a scratch set per kernel the space runs at once")
    }
}

/// A slice handle that permits concurrent writes from a data-parallel loop
/// **provided each index is written by at most one iteration** — the
/// conflict-free property the paper's loop annotations assert.
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: concurrent access is only sound under the disjoint-index contract
// of `set`; the type exists precisely to express that contract.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    pub fn new(slice: &'a mut [T]) -> Self {
        SharedSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write `value` at `i`.
    ///
    /// # Safety
    /// Each index must be written by at most one concurrent iteration, and
    /// no concurrent reads of the same index may occur during the loop.
    #[inline]
    pub unsafe fn set(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) = value };
    }

    /// Read the value at `i`.
    ///
    /// # Safety
    /// No concurrent write to the same index may occur.
    #[inline]
    pub unsafe fn get(&self, i: usize) -> &T {
        debug_assert!(i < self.len);
        unsafe { &*self.ptr.add(i) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Serial, SimulatedCpe, Threads};
    use proptest::prelude::*;

    #[test]
    fn parallel_disjoint_writes_land() {
        let mut data = vec![0usize; 10_000];
        {
            let shared = SharedSlice::new(&mut data);
            let pool = Threads::new(4);
            pool.for_each(10_000, &|i| unsafe { shared.set(i, i * 3) });
        }
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn carve_cuts_by_stride() {
        assert_eq!(carve(30, 10, &(2..5)), 6..15);
        assert_eq!(carve(10, 10, &(0..10)), 0..10);
        assert_eq!(carve(0, 10, &(2..5)), 0..0);
        assert_eq!(carve(0, 0, &(0..0)), 0..0);
    }

    #[test]
    #[should_panic(expected = "do not divide")]
    fn an_output_must_hold_whole_entries_per_index() {
        for_chunks_mut(&Serial, 10, [&mut [0.0; 7][..]], |_, _| ());
    }

    proptest! {
        /// A kernel gets the output entries of its own indices, whatever the
        /// entries per index and however the space cuts the range.
        #[test]
        fn chunked_outputs_are_the_same_on_every_space(
            n in 0usize..5000,
            lanes in 1usize..=7,
            tile in 1usize..=257,
            stride in 1usize..=4,
        ) {
            let run = |space: &dyn ExecSpace, n: usize| {
                let (mut one, mut strided) = (vec![0usize; n], vec![0usize; stride * n]);
                for_chunks_mut(
                    space,
                    n,
                    [&mut one[..], &mut strided[..], &mut []],
                    |range, [one, strided, none]| {
                        assert!(none.is_empty());
                        for (j, i) in range.enumerate() {
                            one[j] = i;
                            strided[stride * j + stride - 1] = !i;
                        }
                    },
                );
                (one, strided)
            };
            // The scatter's positions are every third cell of a slab, in
            // reverse, and the field has `stride` levels.
            let scattered = |space: &dyn ExecSpace, n: usize| {
                let slab = 3 * n;
                let scatter = Scatter::new((0..n).rev().map(|c| 3 * c + 1).collect(), slab);
                let mut field = vec![usize::MAX; stride * slab];
                scatter.for_chunks(space, [&mut field[..]], |range, [mut part]| {
                    for c in range {
                        for k in 0..stride {
                            part.set(c, k, k * n + c);
                        }
                    }
                });
                field
            };
            let threads = Threads::new(lanes);
            let cpe = SimulatedCpe::new(64, 8 * tile, 8);
            for n in [0, 1, 1000, n] {
                let serial = run(&Serial, n);
                assert!(serial.0.iter().copied().eq(0..n));
                let last_of_entry = serial.1.chunks(stride).map(|entry| entry[stride - 1]);
                assert!(last_of_entry.eq((0..n).map(|i| !i)));
                assert_eq!(run(&threads, n), serial, "{lanes} lanes, n = {n}");
                assert_eq!(run(&cpe, n), serial, "tiles of {tile}, n = {n}");

                let serial = scattered(&Serial, n);
                for (i, &v) in serial.iter().enumerate() {
                    let (k, cell) = (i / (3 * n), i % (3 * n));
                    let expect = if cell % 3 == 1 {
                        k * n + (n - 1 - cell / 3)
                    } else {
                        usize::MAX
                    };
                    assert_eq!(v, expect, "scatter, n = {n}, level {k}, cell {cell}");
                }
                assert_eq!(scattered(&threads, n), serial, "scatter, {lanes} lanes, n = {n}");
                assert_eq!(scattered(&cpe, n), serial, "scatter, tiles of {tile}, n = {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "scatter cell 4 listed twice")]
    fn a_scatter_cell_listed_twice_is_refused() {
        Scatter::new(vec![1, 4, 2, 4], 8);
    }

    #[test]
    #[should_panic(expected = "scatter cell 8 outside a slab of 8")]
    fn a_scatter_cell_outside_the_slab_is_refused() {
        Scatter::new(vec![1, 8], 8);
    }

    /// One position per tile: the kernel of position `c` reaches for
    /// position `c + 1 mod 3`, which another kernel owns.
    #[test]
    #[should_panic(expected = "is not in this kernel's range")]
    fn a_kernel_writes_the_cells_of_its_own_range_only() {
        let scatter = Scatter::new(vec![0, 1, 2], 3);
        let mut field = [0; 3];
        let one_per_tile = SimulatedCpe::new(64, 8, 8);
        assert_eq!(one_per_tile.tile_len(), 1);
        scatter.for_chunks(&one_per_tile, [&mut field[..]], |range, [mut part]| {
            part.set((range.start + 1) % 3, 0, 1);
        });
    }

    #[test]
    #[should_panic(expected = "level 2 is not a level of this output")]
    fn a_kernel_writes_the_levels_of_the_output_only() {
        let scatter = Scatter::new(vec![0, 1, 2], 3);
        let mut field = [0; 6];
        scatter.for_chunks(&Serial, [&mut field[..]], |range, [mut part]| {
            part.set(range.start, 2, 1);
        });
    }

    #[test]
    #[should_panic(expected = "7 entries are not whole levels of a slab of 3")]
    fn a_scatter_output_must_hold_whole_levels() {
        Scatter::new(vec![0], 3).for_chunks(&Serial, [&mut [0; 7][..]], |_, _| ());
    }

    #[test]
    fn kernels_running_at_once_hold_different_sets() {
        let team = Threads::new(4);
        let mut sets = PerLane::default();
        sets.grow(team.concurrency(), || 0usize);
        sets.grow(2, || 0usize);
        for _ in 0..200 {
            team.for_chunks(64, &|range| {
                let mut set = sets.take();
                // No one else is in this set: the read and the write pair up.
                let seen = *set;
                *set = seen + range.len();
            });
        }
        assert_eq!(sets.iter_mut().map(|s| *s).sum::<usize>(), 200 * 64);
        assert_eq!(sets.iter_mut().count(), 4);
    }

    #[test]
    fn reads_after_loop_are_consistent() {
        let mut data = vec![1.5f64; 64];
        let shared = SharedSlice::new(&mut data);
        assert_eq!(shared.len(), 64);
        unsafe {
            shared.set(3, 9.0);
            assert_eq!(*shared.get(3), 9.0);
            assert_eq!(*shared.get(0), 1.5);
        }
    }
}
