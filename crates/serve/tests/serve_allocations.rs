//! One heap allocation per `WHATIF` line, the reply: `dispatch` splits
//! and matches the request without allocating and formats the reply
//! once, and the serve loop adds nothing (reading, classifying and
//! writing a line allocate nothing once the loop's buffers exist).
//! Counted by a global allocator that tallies the calling thread's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

use edf_serve::protocol;
use edf_serve::AdmissionService;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (and reallocations) made by `work` on this thread.
fn allocations(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

/// A service with one tenant holding a few components.
fn prepared() -> AdmissionService {
    let mut service = AdmissionService::new();
    for request in ["ADMIT t 1 9 10", "ADMIT t 2 14 20", "ADMIT t 3 40 50"] {
        let reply = protocol::dispatch(&mut service, request);
        assert!(reply.starts_with("ADMITTED"), "{reply}");
    }
    service
}

/// `lines` what-if requests against the prepared tenant.
fn whatif_trace(lines: usize) -> Vec<String> {
    (0..lines)
        .map(|index| format!("WHATIF t {} {} 100", 1 + index % 7, 30 + index % 50))
        .collect()
}

/// Allocations of `serve` over the trace, and of `dispatch` over the same
/// requests one by one, each on a fresh prepared service.
fn serve_and_dispatch(lines: usize) -> (u64, u64) {
    let trace = whatif_trace(lines);
    let script = trace
        .iter()
        .map(|line| format!("{line}\n"))
        .collect::<String>();
    let mut service = prepared();
    let served = allocations(|| {
        protocol::serve(&mut service, script.as_bytes(), io::sink()).expect("in-memory transport");
    });
    let mut service = prepared();
    let dispatched = allocations(|| {
        for line in &trace {
            drop(protocol::dispatch(&mut service, line));
        }
    });
    (served, dispatched)
}

#[test]
fn serve_allocates_no_more_per_line_than_dispatch() {
    const LINES: usize = 1000;
    let (served_short, dispatched_short) = serve_and_dispatch(LINES);
    let (served_long, dispatched_long) = serve_and_dispatch(2 * LINES);
    // The difference of two trace lengths cancels the loop's one-off
    // buffers and leaves the cost of `LINES` lines.
    let served = served_long - served_short;
    let dispatched = dispatched_long - dispatched_short;
    assert!(
        dispatched <= LINES as u64,
        "per {LINES} lines, dispatch allocates {dispatched} times"
    );
    assert!(
        served <= dispatched,
        "per {LINES} lines, serve allocates {served} times and dispatch {dispatched}"
    );
}
