//! Hybrid host–device backend (§5.3): "we enhance processor utilization
//! through a hybrid host-device backend parallelism strategy" — on Sunway,
//! the MPE (host) works alongside its 64 CPEs (device) instead of idling
//! while the device computes. [`Hybrid`] splits every index range between
//! a host and a device execution space by a tunable fraction.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::exec::{sealed, ExecSpace};

/// Runs the leading `device_fraction` of each range on the device space
/// and the rest on the host space, concurrently.
pub struct Hybrid<D: ExecSpace, H: ExecSpace> {
    pub device: D,
    pub host: H,
    /// Fraction of the iteration space sent to the device (0..=1). On
    /// SW26010P the CPE cluster takes the overwhelming share; the MPE mops
    /// up the remainder.
    pub device_fraction: f64,
    launches: AtomicU64,
}

impl<D: ExecSpace, H: ExecSpace> Hybrid<D, H> {
    pub fn new(device: D, host: H, device_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&device_fraction));
        Hybrid {
            device,
            host,
            device_fraction,
            launches: AtomicU64::new(0),
        }
    }

    /// Auto-balance the split by the two spaces' concurrency (the static
    /// heuristic the paper's strategy starts from).
    pub fn balanced(device: D, host: H) -> Self {
        let d = device.concurrency() as f64;
        let h = host.concurrency() as f64;
        let frac = d / (d + h);
        Self::new(device, host, frac)
    }

    /// Kernel launches so far (both halves count as one).
    pub fn launches(&self) -> u64 {
        self.launches.load(Ordering::Relaxed)
    }

    fn split(&self, n: usize) -> usize {
        ((n as f64) * self.device_fraction).round() as usize
    }
}

impl<D: ExecSpace, H: ExecSpace> sealed::Sealed for Hybrid<D, H> {}

impl<D: ExecSpace, H: ExecSpace> ExecSpace for Hybrid<D, H> {
    fn name(&self) -> &'static str {
        "hybrid-host-device"
    }

    fn concurrency(&self) -> usize {
        self.device.concurrency() + self.host.concurrency()
    }

    fn for_each(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        self.launches.fetch_add(1, Ordering::Relaxed);
        let cut = self.split(n);
        if cut == 0 {
            return self.host.for_each(n, f);
        }
        if cut == n {
            return self.device.for_each(n, f);
        }
        // Device half runs on a scoped thread while the host half executes
        // on the calling thread — both processors busy, as on the CG.
        crossbeam::scope(|s| {
            s.spawn(|_| self.device.for_each(cut, f));
            self.host.for_each(n - cut, &|i| f(cut + i));
        })
        .expect("hybrid scope");
    }

    /// The device's ranges cover `0..cut`, the host's `cut..n`.
    fn for_chunks(&self, n: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
        self.launches.fetch_add(1, Ordering::Relaxed);
        let cut = self.split(n);
        if cut == 0 {
            return self.host.for_chunks(n, f);
        }
        if cut == n {
            return self.device.for_chunks(n, f);
        }
        crossbeam::scope(|s| {
            s.spawn(|_| self.device.for_chunks(cut, f));
            self.host
                .for_chunks(n - cut, &|r| f(cut + r.start..cut + r.end));
        })
        .expect("hybrid scope");
    }

    fn reduce_f64(
        &self,
        n: usize,
        identity: f64,
        f: &(dyn Fn(usize) -> f64 + Sync),
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> f64 {
        let cut = self.split(n);
        if cut == 0 {
            return self.host.reduce_f64(n, identity, f, combine);
        }
        if cut == n {
            return self.device.reduce_f64(n, identity, f, combine);
        }
        let mut device_part = identity;
        let mut host_part = identity;
        crossbeam::scope(|s| {
            let dev = s.spawn(|_| self.device.reduce_f64(cut, identity, f, combine));
            host_part = self
                .host
                .reduce_f64(n - cut, identity, &|i| f(cut + i), combine);
            device_part = dev.join().expect("device reduce");
        })
        .expect("hybrid scope");
        combine(device_part, host_part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Serial, SimulatedCpe, Threads};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn hybrid_visits_every_index_once() {
        let hybrid = Hybrid::new(SimulatedCpe::default(), Serial, 0.8);
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        hybrid.for_each(n, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(hybrid.launches(), 1);
    }

    #[test]
    fn balanced_split_follows_concurrency() {
        let hybrid = Hybrid::balanced(SimulatedCpe::default(), Serial);
        // 64 device lanes vs 1 host lane → ~64/65 of the work on device.
        assert!((hybrid.device_fraction - 64.0 / 65.0).abs() < 1e-9);
        assert_eq!(hybrid.concurrency(), 65);
    }

    #[test]
    fn degenerate_fractions_use_one_side() {
        let all_host = Hybrid::new(Threads::new(2), Serial, 0.0);
        let sum = all_host.reduce_f64(100, 0.0, &|i| i as f64, &|a, b| a + b);
        assert_eq!(sum, 4950.0);
        let all_device = Hybrid::new(Threads::new(2), Serial, 1.0);
        let sum = all_device.reduce_f64(100, 0.0, &|i| i as f64, &|a, b| a + b);
        assert_eq!(sum, 4950.0);
    }

    #[test]
    fn hybrid_reduce_matches_serial() {
        let hybrid = Hybrid::new(Threads::new(3), Serial, 0.6);
        let n = 5000;
        let expect: f64 = (0..n).map(|i| ((i as f64) * 0.01).cos()).sum();
        let got = hybrid.reduce_f64(n, 0.0, &|i| ((i as f64) * 0.01).cos(), &|a, b| a + b);
        assert!((got - expect).abs() < 1e-9);
    }
}
