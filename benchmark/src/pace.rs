//! Machine-speed reference.
//!
//! The sandbox this benchmark is sized for shares its cores with other
//! tenants: for anything from a fraction of a second to minutes, code on
//! one core or on both runs up to 1.5x slower, then the machine is fast
//! again. Identical work measured 0.68 s and 1.05 s in the same minute, and
//! the median of raw wall times over a half-minute run differed by a fifth
//! between back-to-back runs. A fixed compute kernel timed right before and
//! after each measured call, *on the thread that does the work* (or, where
//! the program owns that thread, on a thread started beside a busy caller,
//! which lands on the other core), slows by about the same factor as the
//! code under test does. Every timing is therefore reported scaled by
//! `REFERENCE_S / (kernel time around the call)`: the time the call would
//! have taken with the kernel at its reference speed. That brought the
//! spread between runs from 15-20 % to 2-5 %. Raw times are kept in the
//! result files next to the scaled ones.
//!
//! The kernel is a few short phases and comes in two mixes, because what a
//! busy neighbour takes from a core depends on what the code is bound by.
//! When the machine is slow, code that keeps the floating-point units full
//! loses a third of its speed (an f32 axpy runs 1.6x longer, libm calls
//! 1.45x, a streaming stencil 1.5x) and code that waits on its own results
//! loses less (an indirect gather 1.35x, a loop-carried recurrence 1.15x).
//! A workload is scaled by the mix that slows as it does, found by sorting
//! a few hundred slices (or windows) by the kernel's time beside them and
//! comparing the medians of the slow and the fast ones:
//!
//! | workload | slows | over [`Mix::Mixed`] (1.3x) | over [`Mix::Dense`] (1.5x) |
//! |---|---|---|---|
//! | `ocn-heavy` | 1.41x | 1.07 | 0.90 |
//! | `balanced-2dom` | 1.40x | 1.03 | 0.91 |
//! | `atm-heavy` | 1.51x | 1.15 | 1.01 |
//! | `serve-burst` capacity | 1.5x | 1.09-1.14 | 0.96-0.99 |
//!
//! (1.00 would be a scaled time that reads the same in slow stretches and
//! fast ones.) The ocean and the two-domain run go with the four mixed
//! phases, of which no single one tracked them as well as their sum; the
//! atmosphere (dycore stencils and libm-heavy physics) and the serving path
//! (a batched convolution written as f32 axpy sweeps, plus activations) go
//! with the dense pair. The kernel must never call into the repository: a
//! kernel that got faster with the code under test would hide the gain.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The kernel's time, in either mix, on the undisturbed reference sandbox
/// (2-core Xeon, 2.1 GHz). Only a scale factor: it cancels out of every
/// comparison made on one machine with one toolchain.
pub const REFERENCE_S: f64 = 0.0255;

const N: usize = 40_000;
const NEIGHBOURS: usize = 6;
/// The dense mix's axpy phase, sized as one batch of the service's convolution
/// (16 columns x 30 levels wide, 32 channels x 3 taps deep).
const AXPY_WIDTH: usize = 480;
const AXPY_DEPTH: usize = 96;

/// Which phases the kernel runs; both mixes take [`REFERENCE_S`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Stencil, gather, recurrence, libm: code of mixed bottlenecks
    /// (`ocn-heavy`, `balanced-2dom`).
    Mixed,
    /// Libm and f32 axpy sweeps: code that keeps the floating-point units
    /// full (`atm-heavy`, `serve-burst`).
    Dense,
}

/// The reference kernel's fixed inputs; those its mix does not read stay
/// empty.
pub struct Kernel {
    mix: Mix,
    neighbours: Vec<u32>,
    weights: Vec<f64>,
    columns: Vec<f32>,
}

impl Kernel {
    pub fn new(mix: Mix) -> Self {
        let (links, cells) = match mix {
            Mix::Mixed => (N * NEIGHBOURS, 0),
            Mix::Dense => (0, AXPY_DEPTH * AXPY_WIDTH),
        };
        Kernel {
            mix,
            neighbours: (0..links)
                .map(|j| ((j / NEIGHBOURS * 7919 + j % NEIGHBOURS * 104_729 + 13) % N) as u32)
                .collect(),
            weights: (0..links)
                .map(|j| 1.0 / NEIGHBOURS as f64 + 1e-6 * (j % 5) as f64)
                .collect(),
            columns: (0..cells).map(|j| 0.5 + 1e-3 * (j % 7) as f32).collect(),
        }
    }

    /// Seconds the mix's phases take now, on the calling thread. The scratch
    /// arrays are allocated and touched before the clock starts: a thread
    /// that has just been spawned pays for fresh pages on every allocation,
    /// the main thread does not, and the kernel must read the same on both.
    pub fn time(&self) -> f64 {
        let mut a = vec![1.0f64; N];
        let mut b = vec![0.5f64; N];
        let mut rows = vec![0.0f32; AXPY_WIDTH];
        let t = Instant::now();
        match self.mix {
            Mix::Mixed => {
                black_box(stencil(&mut a, &mut b));
                black_box(gather(&self.neighbours, &self.weights, &mut a, &mut b));
                black_box(recurrence(&a, &mut b));
                black_box(libm(300_000));
            }
            Mix::Dense => {
                black_box(libm(560_000));
                black_box(axpy(&self.columns, &mut rows));
            }
        }
        t.elapsed().as_secs_f64()
    }
}

#[inline(never)]
fn stencil(a: &mut [f64], b: &mut [f64]) -> f64 {
    let (mut a, mut b) = (a, b);
    for sweep in 0..200 {
        let w = 1.0 + 1e-9 * sweep as f64;
        for i in 1..N - 1 {
            b[i] = w * a[i] + 0.25 * (a[i - 1] + a[i + 1]) - 0.5 * b[i];
        }
        std::mem::swap(&mut a, &mut b);
    }
    a[N / 2]
}

#[inline(never)]
fn gather(neighbours: &[u32], weights: &[f64], a: &mut [f64], b: &mut [f64]) -> f64 {
    let (mut a, mut b) = (a, b);
    for _ in 0..30 {
        for i in 0..N {
            let mut acc = 0.0;
            for k in 0..NEIGHBOURS {
                acc += weights[i * NEIGHBOURS + k] * a[neighbours[i * NEIGHBOURS + k] as usize];
            }
            b[i] = 0.5 * a[i] + 0.5 * acc;
        }
        std::mem::swap(&mut a, &mut b);
    }
    a[N / 2]
}

#[inline(never)]
fn recurrence(a: &[f64], b: &mut [f64]) -> f64 {
    for _ in 0..60 {
        for i in 1..N {
            b[i] = a[i] * 0.3 + 0.6 * b[i - 1];
        }
    }
    b[N - 1]
}

#[inline(never)]
fn libm(calls: usize) -> f64 {
    let mut acc = 0.0f64;
    for i in 0..calls {
        let x = 1.0 + (i % 1000) as f64 * 1e-3;
        acc += x.powf(0.286) + (x * 0.1).exp() + x.ln();
    }
    acc
}

#[inline(never)]
fn axpy(columns: &[f32], rows: &mut [f32]) -> f32 {
    let mut acc = 0.0;
    for sweep in 0..76 {
        for out in 0..32 {
            rows.fill(out as f32);
            for (p, column) in columns.chunks_exact(AXPY_WIDTH).enumerate() {
                let w = 1e-3 * (p + sweep) as f32;
                for (r, &c) in rows.iter_mut().zip(column) {
                    *r += c * w;
                }
            }
            acc += rows[7];
        }
    }
    acc
}

/// One measured call: wall seconds as read, and scaled to reference speed.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub raw_s: f64,
    pub scaled_s: f64,
}

impl Timing {
    /// `raw_s` scaled by the kernel times taken around the call.
    pub fn new(raw_s: f64, kernel_before_s: f64, kernel_after_s: f64) -> Self {
        let raw_s = raw_s.max(1e-9);
        let speed = 0.5 * (kernel_before_s + kernel_after_s) / REFERENCE_S;
        Timing {
            raw_s,
            scaled_s: raw_s / speed,
        }
    }

    /// What a time read inside the call must be multiplied by.
    pub fn scale(&self) -> f64 {
        self.scaled_s / self.raw_s
    }
}

/// Times calls, running the reference kernel between them.
pub struct Pace {
    /// The workload's mix.
    pub kernel: Kernel,
    /// The mixed phases, built when a dense workload first asks for them.
    mixed: OnceLock<Kernel>,
    last: f64,
    last_beside: Option<f64>,
    /// Every kernel time taken, in order (reported as `machine.kernel_ms`).
    pub kernel_s: Vec<f64>,
}

impl Pace {
    pub fn start(mix: Mix) -> Self {
        let kernel = Kernel::new(mix);
        kernel.time(); // first touch of the code and the allocator's arenas
        let last = kernel.time();
        Pace {
            kernel,
            mixed: OnceLock::new(),
            last,
            last_beside: None,
            kernel_s: vec![last],
        }
    }

    /// The kernel for a coupled workload's set-up (`days = 0`) runs: always
    /// the mixed phases. Set-up is allocation and table building on any
    /// workload and slows 1.25x when `atm-heavy`'s day slows 1.5x; scaled
    /// by the dense mix it read 0.84 of itself in slow stretches, by the
    /// mixed one 0.94.
    pub fn setup_kernel(&self) -> &Kernel {
        match self.kernel.mix {
            Mix::Mixed => &self.kernel,
            Mix::Dense => self.mixed.get_or_init(|| Kernel::new(Mix::Mixed)),
        }
    }

    /// Time a call that does its work on the calling thread.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        let before = self.last;
        self.last = self.kernel.time();
        self.kernel_s.push(self.last);
        (out, Timing::new(raw_s, before, self.last))
    }

    /// The kernel's time on a second thread while this one runs the kernel
    /// too: with the caller busy, the new thread lands on the other core.
    fn beside(&self) -> f64 {
        std::thread::scope(|s| {
            let other = s.spawn(|| self.kernel.time());
            self.kernel.time();
            other.join().expect("kernel thread")
        })
    }

    /// Time a call whose work happens on a thread the program owns while
    /// the calling thread stays busy (the serving workload's generator).
    /// Calls must follow each other directly: the kernel time after one is
    /// the kernel time before the next.
    pub fn timed_beside<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let before = self.last_beside.take().unwrap_or_else(|| self.beside());
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        let after = self.beside();
        self.last_beside = Some(after);
        self.kernel_s.push(after);
        (out, Timing::new(raw_s, before, after))
    }

    /// Keep kernel times taken on worker threads for `machine.kernel_ms`.
    pub fn note(&mut self, kernel_s: &[f64]) {
        self.kernel_s.extend_from_slice(kernel_s);
    }
}
