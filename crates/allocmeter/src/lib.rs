//! A first-party counting global allocator for tests: the one heap meter
//! behind every allocation and heap pin in the workspace.
//!
//! [`Meter`] wraps the system allocator and counts, per thread, the
//! allocations made, the bytes allocated, and the live bytes with their
//! high-water mark. A test binary registers it in one line with
//! [`install!`], and [`measure`] reports what a closure cost as a
//! [`Usage`]:
//!
//! - **Per thread.** The counters are `const` thread-locals, so tests
//!   that libtest runs in parallel threads never see each other's
//!   allocations, and one test's work cannot break another's zero pin.
//!   A thread that frees what another allocated lowers its own live
//!   count, so `retained` and `peak` are clamped at zero.
//! - **Growth counts both blocks.** `realloc` keeps the trait's default
//!   (allocate, copy, free), so a growing buffer's old and new blocks
//!   are live together, as they briefly are.
//! - **`alloc_zeroed` counts once**, as one allocation.
//!
//! ```
//! pc_allocmeter::install!();
//!
//! fn main() {
//!     let (v, usage) = pc_allocmeter::measure(|| vec![0u8; 4096]);
//!     assert_eq!((usage.allocations, usage.retained), (1, v.len()));
//! }
//! ```
//!
//! The crate is dependency-free and `#![deny(unsafe_code)]`; the one
//! exception is the `GlobalAlloc` impl, which defers to `System`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The counting allocator. Register it with [`install!`].
pub struct Meter;

thread_local! {
    // `const` `Cell`s need no lazy set-up and no destructor, so touching
    // them from inside the allocator is sound. Live bytes are signed
    // because a thread may free what another allocated.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    ALLOCATED.with(|a| a.set(a.get() + bytes));
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes as isize);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: defers entirely to the system allocator; the counters are a
// side effect with no bearing on the returned memory.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Meter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|l| l.set(l.get() - layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Registers [`Meter`] as this binary's `#[global_allocator]`.
#[macro_export]
macro_rules! install {
    () => {
        #[global_allocator]
        static PC_ALLOCMETER: $crate::Meter = $crate::Meter;
    };
}

/// What a closure cost this thread's heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Allocations made, `realloc` and `alloc_zeroed` included.
    pub allocations: u64,
    /// Bytes allocated, whatever was freed again.
    pub allocated: usize,
    /// Live bytes at the end, net of those live at the start.
    pub retained: usize,
    /// The live bytes' high-water mark, net of those live at the start.
    pub peak: usize,
}

/// Runs `f` and returns its result with what it cost this thread's
/// heap. Calls nest: an inner call leaves the outer one's peak intact.
/// Counts stay zero unless [`Meter`] is the global allocator.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Usage) {
    let allocations = ALLOCATIONS.with(Cell::get);
    let allocated = ALLOCATED.with(Cell::get);
    let base = LIVE.with(Cell::get);
    let outer_peak = PEAK.with(|p| p.replace(base));
    let out = f();
    let peak = PEAK.with(|p| p.replace(p.get().max(outer_peak)));
    let usage = Usage {
        allocations: ALLOCATIONS.with(Cell::get) - allocations,
        allocated: ALLOCATED.with(Cell::get) - allocated,
        retained: (LIVE.with(Cell::get) - base).max(0) as usize,
        peak: (peak - base).max(0) as usize,
    };
    (out, usage)
}

#[cfg(test)]
crate::install!();

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn another_threads_allocations_do_not_show() {
        let barrier = Arc::new(Barrier::new(2));
        let other = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let (blocks, usage) =
                    measure(|| (0..100).map(|_| vec![1u8; 4096]).collect::<Vec<_>>());
                barrier.wait();
                drop(blocks);
                usage
            })
        };
        // This thread waits while the other one allocates 400 KiB.
        let ((), here) = measure(|| {
            barrier.wait();
            barrier.wait();
        });
        let there = other.join().unwrap();
        assert_eq!(here, Usage::default());
        let bytes = 100 * 4096 + 100 * size_of::<Vec<u8>>();
        let expected = Usage {
            allocations: 101,
            allocated: bytes,
            retained: bytes,
            peak: bytes,
        };
        assert_eq!(there, expected);
    }

    #[test]
    fn a_grown_vec_peaks_at_its_old_and_new_blocks_together() {
        let (v, usage) = measure(|| {
            let mut v: Vec<u64> = Vec::with_capacity(4);
            v.extend(0..5);
            v
        });
        assert_eq!(v.capacity(), 8);
        let expected = Usage {
            allocations: 2,
            allocated: 32 + 64,
            retained: 64,
            peak: 32 + 64,
        };
        assert_eq!(usage, expected);
    }

    #[test]
    fn alloc_zeroed_counts_once() {
        let (v, usage) = measure(|| vec![0u64; 1_000]);
        assert!(v.iter().all(|&x| x == 0));
        let expected = Usage {
            allocations: 1,
            allocated: 8_000,
            retained: 8_000,
            peak: 8_000,
        };
        assert_eq!(usage, expected);
    }

    #[test]
    fn a_nested_measure_keeps_the_outer_peak() {
        let (inner, outer) = measure(|| {
            drop(vec![1u8; 100]);
            let ((), inner) = measure(|| drop(vec![1u8; 50]));
            inner
        });
        assert_eq!((inner.peak, inner.retained), (50, 0));
        assert_eq!((outer.peak, outer.retained, outer.allocations), (100, 0, 2));
    }
}
