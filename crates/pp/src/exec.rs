//! Execution spaces: the backend abstraction of the portability layer.
//!
//! Mirrors Kokkos execution spaces as used by LICOMK++ (paper §5.3). A kernel
//! written against [`ExecSpace`] runs unchanged on every backend; only
//! performance differs. [`Serial`] corresponds to the paper's MPE-only
//! baseline; [`Threads`] to host/device parallel execution; and
//! [`SimulatedCpe`] emulates a Sunway SW26010P core group, including its
//! 64-lane structure and limited local device memory (LDM), so that kernels
//! exercise the same tiling discipline the Athread/CPE code path requires.
//! All three run their ranges on one mechanism, the lane team below.

use std::cell::UnsafeCell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Only this crate implements [`ExecSpace`]: [`crate::for_chunks_mut`] hands
/// out `&mut` sub-slices on the strength of `for_chunks`' disjoint-ranges
/// contract, which a foreign implementation could break from safe code.
pub(crate) mod sealed {
    pub trait Sealed {}
}

/// A backend capable of executing data-parallel index ranges.
///
/// The whole contract: a kernel is a closure over an index range
/// ([`for_chunks`](ExecSpace::for_chunks)) or over one index
/// ([`for_each`](ExecSpace::for_each)); portable means the same bits on
/// every space, and the goldens are the proof (`crates/atm/tests/golden.rs`
/// steps the atmosphere on all three spaces and 1–7 lanes).
///
/// The operations take `&dyn` closures so the trait stays object-safe:
/// AP3ESM components hold an `Arc<dyn ExecSpace>` chosen at configuration
/// time, exactly as the paper's ocean component "flexibly selects the most
/// suitable implementation for each architecture" (§5.1.1).
pub trait ExecSpace: sealed::Sealed + Sync + Send {
    /// Human-readable backend name, for messages.
    fn name(&self) -> &'static str;

    /// Number of hardware lanes the backend exposes (1 for serial, thread
    /// count for `Threads`, 64 for a CPE cluster). At most this many calls
    /// of a kernel closure run at once.
    fn concurrency(&self) -> usize;

    /// Execute `f(i)` for every `i in 0..n`.
    fn for_each(&self, n: usize, f: &(dyn Fn(usize) + Sync));

    /// Cover `0..n` with contiguous non-empty ranges and execute `f(range)`
    /// once per range (never, if `n` is 0); the call returns when every
    /// range is done. The ranges of one call are pairwise disjoint, and how
    /// `0..n` is cut is the backend's choice: `Serial` makes one call with
    /// `0..n`, `Threads` one fixed range per lane, `SimulatedCpe` one per
    /// LDM tile. A kernel whose every output index is written from its own
    /// range only is therefore bitwise independent of the backend.
    fn for_chunks(&self, n: usize, f: &(dyn Fn(Range<usize>) + Sync));
}

/// The host's parallelism, or 1 where the platform cannot tell: one lane is
/// always correct, a guessed four can oversubscribe a one-core box.
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |v| v.get())
}

// ---------------------------------------------------------------------------
// Serial
// ---------------------------------------------------------------------------

/// Reference backend: runs every index on the calling thread.
///
/// This is the "MPE" execution path of the paper's Table 2 (the Sunway
/// management processing element running the kernel alone, without CPE
/// offload).
#[derive(Debug, Default, Clone, Copy)]
pub struct Serial;

impl sealed::Sealed for Serial {}

impl ExecSpace for Serial {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn concurrency(&self) -> usize {
        1
    }

    fn for_each(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        for i in 0..n {
            f(i);
        }
    }

    fn for_chunks(&self, n: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
        if n > 0 {
            f(0..n);
        }
    }
}

// ---------------------------------------------------------------------------
// Lane placement
// ---------------------------------------------------------------------------

/// Where worker lanes start. A team is worth its threads only if they sit on
/// different cores from the first phase on, and a scheduler need not put
/// them there: a new thread starts on its parent's core, and where load
/// balancing is off (a cpuset with `sched_load_balance = 0`, as in the
/// sandbox this is developed in, where it is switched on for seconds at a
/// time) or merely slow it stays there, taking turns with the thread it was
/// meant to help. So each worker lane moves itself, once, to one of the
/// cores the team's creator may use — round-robin from the one after the
/// creator's — and then takes the creator's whole mask back: from there on
/// it is the scheduler's to move again, and threads it spawns inherit no
/// pin.
#[cfg(target_os = "linux")]
mod placement {
    /// Words of the kernel's CPU mask this handles: 1024 cores.
    type Mask = [u64; 16];

    // Declared by hand: `std` links the C library, this crate has no `libc`.
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    fn set_mask(mask: &Mask) {
        // SAFETY: `mask` is `size_of::<Mask>()` readable bytes; pid 0 is the
        // calling thread. Best effort: a refusal leaves the thread where the
        // scheduler put it.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    }

    /// The cores the calling thread may run on.
    #[derive(Clone)]
    pub struct Cores {
        mask: Mask,
        /// The set bits of `mask`, the core the caller was on first.
        order: Vec<usize>,
    }

    impl Cores {
        /// `None` if the kernel will not say, or names a core past the mask.
        pub fn of_caller() -> Option<Cores> {
            let mut mask: Mask = [0; 16];
            // SAFETY: `mask` is `size_of::<Mask>()` writable bytes; pid 0 is
            // the calling thread.
            let known =
                unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
            if known != 0 {
                return None;
            }
            let mut order: Vec<usize> = (0..64 * mask.len())
                .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect();
            // SAFETY: no arguments, no preconditions.
            let here = unsafe { sched_getcpu() };
            let at = order.iter().position(|&cpu| cpu as i32 == here)?;
            order.rotate_left(at);
            Some(Cores { mask, order })
        }

        /// Move the calling thread to the core of worker `lane`, then leave
        /// it free to run wherever the team's creator may.
        pub fn start_lane(&self, lane: usize) {
            let core = self.order[lane % self.order.len()];
            let mut only: Mask = [0; 16];
            only[core / 64] = 1 << (core % 64);
            set_mask(&only);
            set_mask(&self.mask);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod placement {
    #[derive(Clone)]
    pub struct Cores;

    impl Cores {
        pub fn of_caller() -> Option<Cores> {
            None
        }

        pub fn start_lane(&self, _lane: usize) {}
    }
}

// ---------------------------------------------------------------------------
// The lane team: the one worker-thread mechanism of this crate
// ---------------------------------------------------------------------------

/// A range kernel as the lanes see it.
type Body<'a> = dyn Fn(Range<usize>) + Sync + 'a;

/// What the lanes are running: `0..n` in chunks of `chunk` indices.
#[derive(Clone, Copy)]
struct Phase {
    body: *const Body<'static>,
    n: usize,
    chunk: usize,
}

impl Phase {
    /// The indices of chunk `c`.
    fn range(&self, c: usize) -> Range<usize> {
        c * self.chunk..((c + 1) * self.chunk).min(self.n)
    }
}

/// The phase of a team that has run none yet (nothing claims it: no chunks).
static NO_BODY: fn(Range<usize>) = |_| ();

/// How a lane waits: `SPINS` checks with a `spin_loop` hint between them
/// (tens of microseconds: the hand-off between two phases of a model substep
/// costs a cache-line transfer), then checks with a `yield_now` between them
/// — still hot, but any other runnable thread gets the core first — until
/// `PARK_AFTER` has passed, then asleep on a condition variable. A phase of a
/// model substep is tens of microseconds and the next follows within a few,
/// so the lanes of a team that has cores to itself meet every phase awake;
/// the budget has to outlast the serial stretches between phases by a wide
/// margin, because a lane that parks comes back a wake-up later (up to
/// milliseconds on a virtual machine) and has missed every phase in between.
/// A team that is idle for longer than that — the ocean is stepping, a serve
/// worker sits in its loop — sleeps and costs nothing.
const SPINS: u32 = 1 << 12;
const PARK_AFTER: Duration = Duration::from_millis(1);

/// Bounded wait: spin, then yield. Whether `ready` came true in time.
fn ready_soon(ready: impl Fn() -> bool) -> bool {
    for _ in 0..SPINS {
        if ready() {
            return true;
        }
        std::hint::spin_loop();
    }
    let started = Instant::now();
    while started.elapsed() < PARK_AFTER {
        if ready() {
            return true;
        }
        std::thread::yield_now();
    }
    ready()
}

/// A field on cache lines of its own (two: the adjacent-line prefetcher
/// pairs them), so that lanes spinning on one word do not take the line of
/// another away from the lane that is writing it.
#[repr(align(128))]
struct OwnLine<T>(T);

/// `unclaimed` of a team that is shutting down.
const SHUTDOWN: usize = usize::MAX;

/// State shared by the caller (lane 0) and the worker lanes.
///
/// One phase at a time. The caller writes `phase`, then releases the lanes
/// by storing into `unclaimed` the number of chunks up for grabs (all but the
/// last, which is the caller's own). A lane owns chunk `c` once it has moved
/// `unclaimed` from `c + 1` to `c`; only then does it read `phase`, and a
/// worker adds one to `finished` when its chunk is done. The caller claims
/// chunks like any lane — so a phase completes at serial speed when no worker
/// gets a core — then waits for `finished` to account for every chunk it did
/// not run itself, and only after that rewrites `phase`. A lane that finds
/// nothing to claim carries nothing over from what it read: whatever phase
/// is current when its next claim succeeds is the one it runs.
struct Shared {
    phase: OwnLine<UnsafeCell<Phase>>,
    /// Chunks of the current phase nobody has claimed yet, or [`SHUTDOWN`].
    /// The one word idle workers spin on.
    unclaimed: OwnLine<AtomicUsize>,
    /// Chunks workers have finished since the team began (wrapping). The one
    /// word a joining caller spins on.
    finished: OwnLine<AtomicUsize>,
    /// A caller is between publishing a phase and having joined it.
    busy: AtomicBool,
    /// First panic payload of the current phase's chunks.
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Parking: worker lanes sleep on `wake` (counted in `sleepers`) until
    /// `generation`, the count of releases that found a sleeper, moves on;
    /// the caller sleeps on `done` (flagged in `joiner_asleep`). All under
    /// `lock`.
    lock: Mutex<()>,
    wake: Condvar,
    done: Condvar,
    sleepers: AtomicUsize,
    generation: AtomicUsize,
    joiner_asleep: AtomicBool,
}

// SAFETY: `phase` is the only field that is not already `Sync`. It is
// written by the one caller that holds `busy`, before the `SeqCst` store to
// `unclaimed` that releases the phase, and read by a lane only after a
// successful claim (an acquire read-modify-write in that store's release
// sequence); the next write happens after the caller has seen every chunk
// claimed (`unclaimed == 0`) and has acquired a `finished` that counts every
// worker's chunk, which each worker's read precedes. The `body` pointer in
// it is dereferenced under the same protocol, while `Team::run` still
// borrows the closure.
unsafe impl Sync for Shared {}
// SAFETY: as above; the raw pointer is the only field that is not `Send`.
unsafe impl Send for Shared {}

impl Shared {
    /// `lock` guards no data, so a poisoned guard is as good as any.
    fn lock(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn claim(&self) -> Option<usize> {
        let mut left = self.unclaimed.0.load(Ordering::Acquire);
        while left != 0 && left != SHUTDOWN {
            match self.unclaimed.0.compare_exchange_weak(
                left,
                left - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(left - 1),
                Err(now) => left = now,
            }
        }
        None
    }

    /// Run chunk `c` of the current phase, which the calling lane owns.
    fn run_chunk(&self, c: usize) {
        // SAFETY: the owner of an unfinished chunk keeps `phase` from being
        // rewritten (see the `Sync` impl).
        let phase = unsafe { *self.phase.0.get() };
        // SAFETY: `Team::run` returns, and the borrow behind `body` ends,
        // only after every chunk is finished.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe {
            (*phase.body)(phase.range(c))
        }));
        if let Err(payload) = result {
            let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
            first.get_or_insert(payload);
            self.panicked.store(true, Ordering::Release);
        }
    }

    /// A worker's life: claim and run chunks, wait for more, until shutdown.
    fn serve(&self) {
        loop {
            while let Some(c) = self.claim() {
                self.run_chunk(c);
                // SeqCst here and on `joiner_asleep` in `join`: either the
                // joiner sees this chunk counted before it sleeps or this
                // lane sees it asleep.
                self.finished.0.fetch_add(1, Ordering::SeqCst);
                if self.joiner_asleep.load(Ordering::SeqCst) {
                    drop(self.lock());
                    self.done.notify_one();
                }
            }
            if !ready_soon(|| self.unclaimed.0.load(Ordering::Relaxed) != 0) {
                let mut guard = self.lock();
                // SeqCst here and in `release`: either this lane sees the
                // new phase before it sleeps or the caller sees a sleeper;
                // and the caller notifies under `lock`, which this lane
                // holds until it waits.
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                // Sleep until the next release, not until there is something
                // to claim: by the time this lane is awake the caller may
                // have run the phase alone, and the lane that went back to
                // sleep then would miss every phase shorter than a wake-up.
                // Awake, it waits for the next one spinning.
                let generation = self.generation.load(Ordering::Relaxed);
                while self.unclaimed.0.load(Ordering::SeqCst) == 0
                    && self.generation.load(Ordering::Relaxed) == generation
                {
                    guard = self
                        .wake
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
            }
            if self.unclaimed.0.load(Ordering::Acquire) == SHUTDOWN {
                return;
            }
        }
    }

    /// Release the workers: on a new phase, or to shut down.
    fn release(&self, unclaimed: usize) {
        self.unclaimed.0.store(unclaimed, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let guard = self.lock();
            self.generation.fetch_add(1, Ordering::Relaxed);
            drop(guard);
            self.wake.notify_all();
        }
    }

    /// Caller side: wait until the workers have finished `count` chunks since
    /// `finished` read `base`.
    fn join(&self, base: usize, count: usize) {
        let all_in = |order: Ordering| self.finished.0.load(order).wrapping_sub(base) == count;
        if ready_soon(|| all_in(Ordering::Acquire)) {
            return;
        }
        let mut guard = self.lock();
        self.joiner_asleep.store(true, Ordering::SeqCst);
        while !all_in(Ordering::SeqCst) {
            guard = self
                .done
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.joiner_asleep.store(false, Ordering::Relaxed);
    }
}

/// `lanes` threads that run range kernels together: the calling thread
/// (lane 0) and `lanes − 1` persistent workers. A phase allocates nothing.
struct Team {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Team {
    fn new(lanes: usize, name: &str) -> Self {
        let shared = Arc::new(Shared {
            phase: OwnLine(UnsafeCell::new(Phase {
                body: &NO_BODY as &Body<'static>,
                n: 0,
                chunk: 1,
            })),
            unclaimed: OwnLine(AtomicUsize::new(0)),
            finished: OwnLine(AtomicUsize::new(0)),
            busy: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            lock: Mutex::new(()),
            wake: Condvar::new(),
            done: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            joiner_asleep: AtomicBool::new(false),
        });
        let cores = (lanes > 1).then(placement::Cores::of_caller).flatten();
        let workers = (1..lanes.max(1))
            .map(|lane| {
                let (shared, cores) = (Arc::clone(&shared), cores.clone());
                std::thread::Builder::new()
                    .name(format!("{name}-{lane}"))
                    .spawn(move || {
                        if let Some(cores) = cores {
                            cores.start_lane(lane);
                        }
                        shared.serve()
                    })
                    .expect("spawn pp lane")
            })
            .collect();
        Team { shared, workers }
    }

    fn lanes(&self) -> usize {
        self.workers.len() + 1
    }

    /// Run `body` over `0..n` in chunks of `chunk` indices, each claimed by
    /// whichever lane is free, and return when all are done. A call made
    /// while the team is busy — from inside a chunk, or from a second thread
    /// — runs its chunks on the calling thread.
    fn run(&self, n: usize, chunk: usize, body: &Body<'_>) {
        let nchunks = n.div_ceil(chunk);
        let shared = &*self.shared;
        let erased: *const Body<'_> = body;
        // SAFETY: lifetime erasure only. No lane calls through the pointer
        // after `join` below has returned, and this function does not
        // return or unwind before it has.
        let erased: *const Body<'static> = unsafe { std::mem::transmute(erased) };
        let phase = Phase {
            body: erased,
            n,
            chunk,
        };
        if nchunks <= 1 || self.workers.is_empty() || shared.busy.swap(true, Ordering::Acquire) {
            for c in 0..nchunks {
                body(phase.range(c));
            }
            return;
        }
        // SAFETY: this thread holds `busy` and the previous phase is
        // joined, so no lane reads `phase` (see the `Sync` impl).
        unsafe { *shared.phase.0.get() = phase };
        // No worker has a chunk, so the count stands still.
        let base = shared.finished.0.load(Ordering::Relaxed);
        // The last chunk is this lane's without a claim.
        shared.release(nchunks - 1);
        shared.run_chunk(nchunks - 1);
        let mut mine = 1;
        while let Some(c) = shared.claim() {
            shared.run_chunk(c);
            mine += 1;
        }
        shared.join(base, nchunks - mine);
        let payload = shared.panicked.swap(false, Ordering::Acquire).then(|| {
            let mut first = shared.panic.lock().unwrap_or_else(PoisonError::into_inner);
            first.take().expect("a recorded panic has a payload")
        });
        shared.busy.store(false, Ordering::Release);
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        self.shared.release(SHUTDOWN);
        for worker in self.workers.drain(..) {
            // A lane catches its kernels' panics, so it has none of its own.
            let _ = worker.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

/// Host-parallel backend: a persistent lane team (the caller plus
/// `nthreads − 1` workers).
///
/// `for_chunks` cuts `0..n` into one fixed contiguous range per lane — the
/// static schedule of a data-parallel model loop, where the same lane meets
/// the same cells phase after phase. `for_each` cuts eight times finer and
/// lets lanes grab dynamically, which is what a pool of uneven tasks (serve
/// workers, campaign members) wants; the dynamic chunk size plays the role
/// of the paper's "automatic loop space mapping" on CPEs (SWGOMP, §5.3).
/// Either way any idle lane, the caller included, may claim a range, lanes
/// wait by spinning briefly and then parking, and no call allocates.
pub struct Threads {
    team: Team,
}

impl Threads {
    /// A team of `nthreads` lanes (at least 1: the caller alone).
    pub fn new(nthreads: usize) -> Self {
        Threads {
            team: Team::new(nthreads, "pp-lane"),
        }
    }

    /// Team sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Self::new(host_parallelism())
    }
}

impl sealed::Sealed for Threads {}

impl ExecSpace for Threads {
    fn name(&self) -> &'static str {
        "threads"
    }

    fn concurrency(&self) -> usize {
        self.team.lanes()
    }

    fn for_each(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        // Aim for ~8 chunks per lane so dynamic grabbing can balance load.
        let chunk = (n / (self.team.lanes() * 8)).max(1);
        self.team.run(n, chunk, &|range| range.for_each(f));
    }

    fn for_chunks(&self, n: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
        self.team.run(n, n.div_ceil(self.team.lanes()).max(1), f);
    }
}

// ---------------------------------------------------------------------------
// SimulatedCpe
// ---------------------------------------------------------------------------

/// Emulation of a Sunway SW26010P core group: 64 compute processing elements,
/// each with a fixed-size local device memory (LDM).
///
/// Kernels run through the same LDM tiling that Athread code uses on the
/// real hardware, and the emulator counts LDM tile loads so that the machine
/// model (crate `ap3esm-machine`) can charge DMA traffic. The tiles are
/// executed by a host lane team, the same mechanism as [`Threads`].
pub struct SimulatedCpe {
    /// Emulated CPEs per core group (64 on SW26010P).
    pub lanes: usize,
    /// LDM capacity per CPE in bytes (256 KiB on SW26010P).
    pub ldm_bytes: usize,
    /// Bytes of state a kernel needs per index; determines the tile size the
    /// LDM can hold. Kernels refine this via [`SimulatedCpe::with_state_bytes`].
    pub state_bytes_per_index: usize,
    /// Number of LDM tile loads performed so far (≈ DMA transactions).
    tile_loads: AtomicUsize,
    team: Team,
}

impl Default for SimulatedCpe {
    fn default() -> Self {
        Self::new(64, 256 * 1024, 64)
    }
}

impl SimulatedCpe {
    pub fn new(lanes: usize, ldm_bytes: usize, state_bytes_per_index: usize) -> Self {
        SimulatedCpe {
            lanes: lanes.max(1),
            ldm_bytes,
            state_bytes_per_index: state_bytes_per_index.max(1),
            tile_loads: AtomicUsize::new(0),
            team: Team::new(host_parallelism().min(8), "pp-cpe"),
        }
    }

    /// Set per-index working-set size in bytes (shrinks the LDM tile).
    pub fn with_state_bytes(mut self, bytes: usize) -> Self {
        self.state_bytes_per_index = bytes.max(1);
        self
    }

    /// Indices one LDM tile can hold.
    pub fn tile_len(&self) -> usize {
        (self.ldm_bytes / self.state_bytes_per_index).max(1)
    }

    /// Total LDM tile loads since construction (proxy for DMA transactions).
    pub fn tile_loads(&self) -> usize {
        self.tile_loads.load(Ordering::Relaxed)
    }
}

impl sealed::Sealed for SimulatedCpe {}

impl ExecSpace for SimulatedCpe {
    fn name(&self) -> &'static str {
        "simulated-cpe"
    }

    fn concurrency(&self) -> usize {
        self.lanes
    }

    fn for_each(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        self.for_chunks(n, &|range| range.for_each(f));
    }

    /// One range per LDM tile, handed to the emulated lanes as the host
    /// lanes come free.
    fn for_chunks(&self, n: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
        let tile = self.tile_len();
        self.tile_loads
            .fetch_add(n.div_ceil(tile), Ordering::Relaxed);
        self.team.run(n, tile, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU64;

    fn check_space(space: &dyn ExecSpace) {
        let n = 10_000usize;
        let counter = AtomicU64::new(0);
        space.for_each(n, &|i| {
            counter.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(
            counter.load(Ordering::Relaxed),
            (n as u64 - 1) * n as u64 / 2,
            "{} for_each visited wrong index set",
            space.name()
        );
    }

    #[test]
    fn serial_visits_all_indices() {
        check_space(&Serial);
    }

    #[test]
    fn threads_visits_all_indices() {
        check_space(&Threads::new(4));
    }

    #[test]
    fn threads_single_worker_ok() {
        check_space(&Threads::new(1));
    }

    #[test]
    fn cpe_visits_all_indices_and_counts_tiles() {
        let cpe = SimulatedCpe::new(64, 1024, 8); // tiny LDM => many tiles
        check_space(&cpe);
        // 10_000 indices, 128 per tile.
        assert_eq!(cpe.tile_loads(), 79);
    }

    #[test]
    fn empty_range_is_noop() {
        let space = Threads::new(3);
        space.for_each(0, &|_| panic!("must not be called"));
        space.for_chunks(0, &|_| panic!("must not be called"));
    }

    /// Every index in exactly one range and no range empty, so at most
    /// `max_ranges.min(n)` of them: none for `n = 0`.
    fn check_chunks(space: &dyn ExecSpace, n: usize, max_ranges: usize) {
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let ranges = AtomicUsize::new(0);
        space.for_chunks(n, &|range| {
            ranges.fetch_add(1, Ordering::Relaxed);
            assert!(!range.is_empty(), "{}: empty range", space.name());
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let ranges = ranges.load(Ordering::Relaxed);
        assert!(
            ranges <= max_ranges,
            "{}: {ranges} ranges for n = {n}",
            space.name()
        );
    }

    proptest! {
        /// However a space cuts: one range for `Serial`, one per lane for
        /// `Threads`, one per LDM tile for `SimulatedCpe`.
        #[test]
        fn chunks_cover_the_range_once(
            n in 0usize..5000,
            lanes in 1usize..=7,
            tile in 1usize..=257,
        ) {
            let threads = Threads::new(lanes);
            let cpe = SimulatedCpe::new(64, 8 * tile, 8);
            // The sizes at the edges of a cut with every sampled one.
            for n in [0, 1, 2, 7, 64, 1000, n] {
                check_chunks(&Serial, n, 1);
                check_chunks(&threads, n, lanes);
                check_chunks(&cpe, n, n.div_ceil(tile));
            }
        }
    }

    #[test]
    fn a_team_runs_phase_after_phase() {
        let space = Threads::new(3);
        let total = AtomicU64::new(0);
        for round in 0..2_000u64 {
            space.for_chunks(30, &|range| {
                total.fetch_add(round * range.len() as u64, Ordering::Relaxed);
            });
            if round % 500 == 0 {
                // Long enough for the workers to park.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        assert_eq!(total.load(Ordering::Relaxed), 30 * (1999 * 2000 / 2));
    }

    #[test]
    fn nested_and_concurrent_calls_run_on_their_callers() {
        let space = Threads::new(2);
        let count = AtomicU64::new(0);
        space.for_chunks(4, &|outer| {
            space.for_each(10, &|_| {
                count.fetch_add(outer.len() as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 40);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..200 {
                        check_space(&space);
                    }
                });
            }
        });
    }

    #[test]
    fn a_panicking_kernel_unwinds_through_the_caller_and_the_team_survives() {
        let space = Threads::new(3);
        for _ in 0..3 {
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                space.for_each(100, &|i| assert!(i != 57, "index {i}"));
            }));
            let payload = caught.expect_err("the panic must propagate");
            assert!(payload
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("index 57")));
            check_space(&space);
        }
    }
}
