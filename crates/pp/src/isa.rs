//! One kernel body, several compilations: the CPU-detection half of
//! performance portability. [`crate::ExecSpace`] decides *where* the ranges
//! of a phase run; [`Isa`] decides *what machine code* a range runs. A
//! kernel is written once as a [`Kernel`] and [`Isa::run`] calls it through
//! a function compiled for the chosen instruction set, which is the only
//! `unsafe` of it: a model crate names no target feature and holds none.
//!
//! The compilations differ in vector width only. Rust neither reassociates
//! nor contracts floating-point operations (no FMA unless written), so a
//! body whose expressions are selects and plain arithmetic gives the same
//! bits under every compilation; the tests of each kernel prove it for
//! theirs.

/// The compilations of a [`Kernel`], narrowest first: the baseline of the
/// target, AVX2 (256-bit vectors) and AVX-512F (512-bit). [`Isa::detect`]
/// picks the widest this CPU runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    Portable,
    Avx2,
    Avx512,
}

/// A kernel body compiled once per [`Isa`], at the width of its vectors:
/// `run::<LANES>` is called with `LANES` the `f64` values of one tile of
/// that compilation ([`Isa::f64_lanes`]), so a body that works in tiles of
/// `LANES` fills the machine's registers. `run` must be
/// `#[inline(always)]`, as must every function of the body that is meant to
/// be compiled for the instruction set, so that it is inlined into the
/// per-ISA entry point; a call it does not inline runs the baseline code.
pub trait Kernel {
    type Output;

    fn run<const LANES: usize>(self) -> Self::Output;
}

impl Isa {
    /// Every compilation, narrowest first.
    pub const ALL: [Isa; 3] = [Isa::Portable, Isa::Avx2, Isa::Avx512];

    /// The widest compilation this CPU runs (cached atomic loads).
    pub fn detect() -> Isa {
        Isa::ALL
            .into_iter()
            .rfind(|isa| isa.available())
            .expect("the portable compilation runs everywhere")
    }

    /// The `f64` values of a tile of this compilation: one vector register
    /// of AVX2 (4) or AVX-512F (8), and two of the x86-64 baseline (SSE2,
    /// 4): SSE2 has no blend, and with tiles of one register the compiler
    /// kept a select-heavy body scalar (the ocean's row sweep ran 1.7×
    /// slower than at 4, DESIGN.md §17).
    pub const fn f64_lanes(self) -> usize {
        match self {
            Isa::Portable => 4,
            Isa::Avx2 => 4,
            Isa::Avx512 => 8,
        }
    }

    /// Whether this CPU can run this compilation.
    pub fn available(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 | Isa::Avx512 => false,
        }
    }

    /// Run `kernel` compiled for this instruction set. Panics if this CPU
    /// cannot run it.
    pub fn run<K: Kernel>(self, kernel: K) -> K::Output {
        assert!(self.available(), "{self} kernel on a CPU without it");
        match self {
            Isa::Portable => kernel.run::<{ Isa::Portable.f64_lanes() }>(),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self.available()` asserted above that this CPU has AVX2.
            Isa::Avx2 => unsafe { with_avx2(kernel) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self.available()` asserted above that this CPU has AVX-512F.
            Isa::Avx512 => unsafe { with_avx512(kernel) },
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 | Isa::Avx512 => unreachable!("{self} is never available off x86-64"),
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Isa::Portable => "portable",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        })
    }
}

/// `kernel` compiled with AVX2 (`scripts/check_kernel_asm.sh` checks that
/// its instances do their arithmetic on `ymm` registers).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn with_avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.run::<{ Isa::Avx2.f64_lanes() }>()
}

/// `kernel` compiled with AVX-512F (checked for `zmm` arithmetic).
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn with_avx512<K: Kernel>(kernel: K) -> K::Output {
    kernel.run::<{ Isa::Avx512.f64_lanes() }>()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sum of products over a slice, with a select per element, one
    /// partial sum per lane: the shape of the model kernels, and a result
    /// that depends on the width it ran at.
    struct Dot<'a>(&'a [f64], &'a [f64]);

    impl Kernel for Dot<'_> {
        type Output = (usize, f64);

        #[inline(always)]
        fn run<const LANES: usize>(self) -> (usize, f64) {
            let mut acc = [0.0; LANES];
            for (x, y) in self.0.chunks(LANES).zip(self.1.chunks(LANES)) {
                for ((acc, &x), &y) in acc.iter_mut().zip(x).zip(y) {
                    *acc += if x >= 0.0 { x * y } else { y - x };
                }
            }
            (LANES, acc.iter().sum())
        }
    }

    /// Each compilation runs its own width, and a width computes what the
    /// same width computes in the portable compilation, bit for bit.
    #[test]
    fn every_available_compilation_runs_its_width_and_the_portable_bits() {
        let x: Vec<f64> = (0..1001)
            .map(|i| ((i * 37) % 101) as f64 / 7.0 - 5.0)
            .collect();
        let y: Vec<f64> = (0..1001).map(|i| ((i * 53) % 97) as f64 / 3.0).collect();
        let portable = [
            Dot(&x, &y).run::<2>(),
            Dot(&x, &y).run::<4>(),
            Dot(&x, &y).run::<8>(),
        ];
        for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
            let (lanes, sum) = isa.run(Dot(&x, &y));
            assert_eq!(lanes, isa.f64_lanes(), "{isa}");
            let (_, want) = portable[lanes.ilog2() as usize - 1];
            assert_eq!(sum.to_bits(), want.to_bits(), "{isa}");
        }
    }

    #[test]
    fn detect_picks_the_widest_available_compilation() {
        let detected = Isa::detect();
        assert!(detected.available());
        for isa in Isa::ALL.iter().skip_while(|&&isa| isa != detected).skip(1) {
            assert!(
                !isa.available(),
                "{isa} runs here, but {detected} was picked"
            );
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn an_unavailable_compilation_is_refused() {
        if let Some(isa) = Isa::ALL.into_iter().find(|isa| !isa.available()) {
            let refused = std::panic::catch_unwind(|| isa.run(Dot(&[], &[])));
            assert!(refused.is_err(), "{isa} ran on a CPU without it");
        }
    }
}
