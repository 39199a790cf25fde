//! Pins the heap a materialized trace costs, per record, for every
//! generator. A counting global allocator tracks this thread's live
//! bytes and their high-water mark, as `crates/core/tests/offline_heap.rs`
//! does for the off-line policies, and the bytes it allocates in all, so
//! a warm stream can be shown to allocate nothing per record.
//!
//! A record is 32 B: time 8, block count 8, `BlockId` 12, op 1, padded
//! to the 8-byte alignment. The streamed generators reserve exactly
//! `requests` records up front, so a trace retains 32 B per record;
//! collecting by `push` alone doubled the buffer past the length, up to
//! 2× (3 M records reserved room for 4 194 304).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pc_trace::{CelloConfig, NonStationaryConfig, OltpConfig, Scenario, SyntheticConfig, Trace};

struct CountingAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    ALLOCATED.with(|a| a.set(a.get() + bytes));
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes as isize);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: defers entirely to the system allocator; the counters are a
// side effect with no bearing on the returned memory. `realloc` keeps
// the default (allocate, copy, free), so a growing buffer counts its old
// and new blocks together, as they briefly are.
unsafe impl GlobalAlloc for CountingAlloc {
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

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the heap it retains and the
/// heap it peaked at, both net of what was live before.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    let retained = (LIVE.with(Cell::get) - base).max(0) as usize;
    let peak = (PEAK.with(Cell::get) - base).max(0) as usize;
    (out, retained, peak)
}

/// The bytes `f` allocates, whatever it frees again.
fn allocated_by<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATED.with(Cell::get);
    drop(f());
    ALLOCATED.with(Cell::get) - before
}

/// `size_of::<Record>()`, which `pc_trace` pins at compile time.
const RECORD: usize = 32;

/// Not a power of two, so a buffer grown by doubling cannot fit exactly.
const REQUESTS: usize = 50_001;

fn churn() -> NonStationaryConfig {
    NonStationaryConfig::new(Scenario::Churn)
}

#[test]
fn streamed_generators_retain_32_bytes_per_record_and_peak_at_the_trace_plus_the_stream() {
    // Each generator, beside a drain of its stream that keeps no record.
    type Run<T> = fn(usize) -> T;
    let generators: [(&str, Run<Trace>, Run<usize>); 3] = [
        (
            "synthetic",
            |n| SyntheticConfig::default().with_requests(n).generate(42),
            |n| {
                SyntheticConfig::default()
                    .with_requests(n)
                    .stream(42)
                    .count()
            },
        ),
        (
            "cello",
            |n| CelloConfig::default().with_requests(n).generate(42),
            |n| CelloConfig::default().with_requests(n).stream(42).count(),
        ),
        (
            "churn",
            |n| churn().with_requests(n).generate(42),
            |n| churn().with_requests(n).stream(42).count(),
        ),
    ];
    for (name, generate, drain) in generators {
        let (_, _, stream) = measure(|| drain(REQUESTS));
        let (trace, retained, peak) = measure(|| generate(REQUESTS));
        assert_eq!(trace.len(), REQUESTS, "{name}");
        assert_eq!(retained, REQUESTS * RECORD, "{name}: retained heap");
        // The trace is reserved before the stream starts, so the two
        // are live together and nothing else is.
        assert_eq!(peak, REQUESTS * RECORD + stream, "{name}: peak heap");
    }
}

#[test]
fn oltp_peaks_at_its_skeleton_plus_the_trace() {
    let cfg = OltpConfig::default().with_requests(REQUESTS);
    let (trace, retained, peak) = measure(|| cfg.generate(42));
    assert_eq!(trace.len(), REQUESTS);
    assert_eq!(retained, REQUESTS * RECORD, "retained heap");
    // The arrival skeleton reserves 2 × requests events of 16 B (time 8,
    // disk 4, kind 1, padded), or 32 B per record. The stable sort's
    // scratch (at most 16 B per event, and the skeleton holds about
    // 1.15 × requests events) is freed before the trace is reserved, so
    // the peak is the skeleton and the trace together, plus the Zipf
    // sampler over the cacheable working set (its CDF, 8 B a rank, and
    // its guide table, 4 B for each of the next power of two buckets)
    // and the per-disk fresh-block frontier, 8 B a disk.
    let skeleton = 2 * REQUESTS * 16;
    let ranks = cfg.cacheable_working_set as usize;
    let zipf = 8 * ranks + 4 * ranks.next_power_of_two();
    let small = zipf + 8 * cfg.disk_count() as usize;
    assert_eq!(peak, skeleton + REQUESTS * RECORD + small, "peak heap");
}

#[test]
fn streams_allocate_nothing_per_record_once_warm() {
    // Every buffer a stream needs (recency stacks, Zipf tables, per-disk
    // state) is sized when the stream is built; a record allocates none.
    let mut streams: [(&str, Box<dyn Iterator<Item = pc_trace::Record>>); 3] = [
        (
            "synthetic",
            Box::new(
                SyntheticConfig::default()
                    .with_requests(REQUESTS)
                    .stream(42),
            ),
        ),
        (
            "cello",
            Box::new(CelloConfig::default().with_requests(REQUESTS).stream(42)),
        ),
        (
            "churn",
            Box::new(churn().with_requests(REQUESTS).stream(42)),
        ),
    ];
    for (name, stream) in &mut streams {
        assert_eq!(stream.by_ref().take(1_000).count(), 1_000, "{name}");
        let bytes = allocated_by(|| stream.by_ref().take(10_000).count());
        assert_eq!(bytes, 0, "{name}: bytes allocated by 10 000 warm records");
    }
}
