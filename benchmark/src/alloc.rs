//! The benchmark's global allocator: the system allocator, plus two
//! counters that run only inside [`AllocCounter::during`]. The per-layer
//! pass counts; an end-to-end run pays one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct AllocCounter {
    counting: AtomicBool,
    allocations: AtomicU64,
    bytes: AtomicU64,
}

#[global_allocator]
pub static COUNTER: AllocCounter = AllocCounter {
    counting: AtomicBool::new(false),
    allocations: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

impl AllocCounter {
    /// `f`'s value and the (allocations, bytes) made while it ran, on any
    /// thread. Calls must not nest or overlap: the benchmark's main thread
    /// makes them one after the other.
    pub fn during<T>(&self, f: impl FnOnce() -> T) -> (T, u64, u64) {
        let before = self.read();
        self.counting.store(true, Ordering::Relaxed);
        let out = f();
        self.counting.store(false, Ordering::Relaxed);
        let after = self.read();
        (out, after.0 - before.0, after.1 - before.1)
    }

    fn read(&self) -> (u64, u64) {
        (
            self.allocations.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }

    fn count(&self, bytes: usize) {
        if self.counting.load(Ordering::Relaxed) {
            self.allocations.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the only addition
// is relaxed loads and increments of counters that publish no other data.
unsafe impl GlobalAlloc for AllocCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}
