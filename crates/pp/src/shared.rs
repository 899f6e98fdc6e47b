//! Disjoint-write shared slices — the OpenMP "parallel loop writes its own
//! index" pattern that SWGOMP generates for GRIST loops (§5.1.1: "most of
//! the GRIST loops are conflict-free"). [`for_chunks_mut`] is the safe form
//! for kernels whose outputs are contiguous per index range;
//! [`for_level_chunks_mut`] the safe form for kernels over a range of rows
//! that write those rows at every level of a level-major field;
//! [`SharedSlice`] the unsafe one for arbitrary one-writer index sets.

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

// SAFETY: only `for_chunks_mut` and `for_level_chunks_mut` build one, from
// a `&mut [T]` they hold for the whole phase, and each lane turns it back
// into `&mut`s of parts no other lane gets; `T: Send` because those parts
// are written on other threads.
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

/// Run `f(range, parts)` over contiguous ranges covering `0..n` on `space`
/// (see [`ExecSpace::for_chunks`]), where each output is a level-major field
/// of whole levels of `level` entries, a level being `n` blocks of
/// `level / n` entries (a slab of `n` rows), and `parts[j]` holds `range`'s
/// blocks of every level of `outs[j]`. A kernel over a range of rows writes
/// its rows at every level and nothing else. Panics if an output is not
/// whole levels or a level not whole blocks.
pub fn for_level_chunks_mut<E, T, const K: usize>(
    space: &E,
    n: usize,
    level: usize,
    outs: [&mut [T]; K],
    f: impl Fn(Range<usize>, [Levels<'_, T>; K]) + Sync,
) where
    E: ExecSpace + ?Sized,
    T: Send,
{
    carve(level, n, &(0..n));
    let raw = outs.map(|out| {
        let whole = out
            .len()
            .checked_rem(level)
            .map_or(out.is_empty(), |r| r == 0);
        assert!(
            whole,
            "{} entries are not whole levels of {level}",
            out.len()
        );
        RawSlice {
            ptr: out.as_mut_ptr(),
            len: out.len(),
        }
    });
    space.for_chunks(n, &|range| {
        assert!(range.start <= range.end && range.end <= n);
        let parts = raw.map(|out| Levels {
            out,
            level,
            levels: out.len.checked_div(level).unwrap_or(0),
            part: carve(level, n, &range),
            _borrow: PhantomData,
        });
        f(range, parts);
    });
}

/// What a kernel of [`for_level_chunks_mut`] may write of one output: its
/// own rows' part of every level.
pub struct Levels<'a, T> {
    out: RawSlice<T>,
    level: usize,
    levels: usize,
    /// The kernel's part of each level, from the level's start.
    part: Range<usize>,
    _borrow: PhantomData<&'a mut [T]>,
}

impl<T> Levels<'_, T> {
    /// The levels of the output.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// This kernel's part of level `k`: its rows, the first at 0. Panics if
    /// `k` is not a level of the output.
    #[inline(always)]
    pub fn level(&mut self, k: usize) -> &mut [T] {
        assert!(k < self.levels, "level {k} is not a level of this output");
        let start = k * self.level + self.part.start;
        // SAFETY: level `k` lies within the output (checked above) and
        // `part` within a level (`carve`), which `for_level_chunks_mut`
        // holds exclusively borrowed for the whole phase. Another kernel of
        // the phase holds the part of a range disjoint from this one (only
        // this crate implements `ExecSpace`), and `carve` gives disjoint
        // ranges disjoint parts of every level, so no element is reachable
        // from two kernels. The slice borrows `self` mutably, so a part hands
        // out one live reference to a level at a time, and none outlives the
        // call (`f` takes the part at any lifetime).
        unsafe { std::slice::from_raw_parts_mut(self.out.ptr.add(start), self.part.len()) }
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
            let threads = Threads::new(lanes);
            let cpe = SimulatedCpe::new(64, 8 * tile, 8);
            for n in [0, 1, 1000, n] {
                let serial = run(&Serial, n);
                assert!(serial.0.iter().copied().eq(0..n));
                let last_of_entry = serial.1.chunks(stride).map(|entry| entry[stride - 1]);
                assert!(last_of_entry.eq((0..n).map(|i| !i)));
                assert_eq!(run(&threads, n), serial, "{lanes} lanes, n = {n}");
                assert_eq!(run(&cpe, n), serial, "tiles of {tile}, n = {n}");

            }
        }
    }

    proptest! {
        /// The parts of one phase are disjoint and cover every level of
        /// every output, whatever the rows, their width, the levels and the
        /// cut: each kernel writes its rows' entries of each level, tagged
        /// with the level, row and column, and records where each part lies.
        #[test]
        fn level_parts_are_disjoint_and_cover_every_level_on_every_space(
            n in 1usize..200,
            width in 1usize..=5,
            levels in 0usize..=4,
            lanes in 1usize..=7,
            tile in 1usize..=257,
        ) {
            let level = n * width;
            let run = |space: &dyn ExecSpace| {
                let mut field = vec![usize::MAX; levels * level];
                let parts = Mutex::new(Vec::new());
                let base = field.as_ptr() as usize;
                for_level_chunks_mut(
                    space,
                    n,
                    level,
                    [&mut field[..]],
                    |rows, [mut part]| {
                        assert_eq!(part.levels(), levels);
                        for k in 0..levels {
                            let cells = part.level(k);
                            assert_eq!(cells.len(), rows.len() * width);
                            let at = (cells.as_ptr() as usize - base) / size_of::<usize>();
                            parts.lock().unwrap().push(at..at + cells.len());
                            for (r, row) in rows.clone().zip(cells.chunks_exact_mut(width)) {
                                for (i, cell) in row.iter_mut().enumerate() {
                                    *cell = (k * n + r) * width + i;
                                }
                            }
                        }
                    },
                );
                // Two outputs of different element types in one phase.
                let (mut a, mut b) = (vec![0u16; 3 * level], vec![0u16; level]);
                for_level_chunks_mut(space, n, level, [&mut a[..], &mut b[..]], |rows, [a, b]| {
                    assert_eq!((a.levels(), b.levels()), (3, 1), "{rows:?}");
                });
                let mut parts = parts.into_inner().unwrap();
                parts.sort_by_key(|part| part.start);
                (field, parts)
            };
            let threads = Threads::new(lanes);
            let cpe = SimulatedCpe::new(64, 8 * tile, 8);
            let (serial, _) = run(&Serial);
            // Every entry written once, with its own tag: the parts cover
            // every level.
            prop_assert!(serial.iter().copied().eq(0..levels * level));
            for (space, name) in [(&threads as &dyn ExecSpace, "threads"), (&cpe, "cpe")] {
                let (field, parts) = run(space);
                prop_assert_eq!(&field, &serial, "{}", name);
                // Non-empty parts tile the field end to end: no two overlap.
                let mut end = 0;
                for part in parts.iter().filter(|part| !part.is_empty()) {
                    prop_assert_eq!(part.start, end, "{} parts {:?}", name, parts);
                    end = part.end;
                }
                prop_assert_eq!(end, levels * level);
            }
        }
    }

    #[test]
    #[should_panic(expected = "12 entries do not divide among 5 indices")]
    fn a_level_that_is_not_whole_blocks_is_refused() {
        for_level_chunks_mut(&Serial, 5, 12, [&mut [0.0; 24][..]], |_, _| ());
    }

    #[test]
    #[should_panic(expected = "25 entries are not whole levels of 10")]
    fn an_output_that_is_not_whole_levels_is_refused() {
        for_level_chunks_mut(&Serial, 5, 10, [&mut [0.0; 25][..]], |_, _| ());
    }

    #[test]
    #[should_panic(expected = "level 2 is not a level of this output")]
    fn a_kernel_writes_the_levels_of_the_output_only() {
        for_level_chunks_mut(&Serial, 3, 3, [&mut [0; 6][..]], |_, [mut part]| {
            part.level(2)[0] = 1;
        });
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
