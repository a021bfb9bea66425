//! The batch front end's allocation contract: once a worker's recycled
//! preparation and scratch arena have grown to its largest workload, each
//! further workload allocates only its result vector.  Counted by a
//! global allocator that tallies the calling thread's allocations, over
//! `analyze_many_serial`, which runs on that thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use edf_analysis::batch::{analyze_many_serial, BoxedTest};
use edf_analysis::tests::{AllApproximatedTest, DynamicErrorTest, ProcessorDemandTest, QpaTest};
use edf_gen::{utilization_sweep, TaskSetConfig};
use edf_model::TaskSet;

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

/// Fig. 8-style sets: 5–50 tasks at 90–99 % utilization, where every
/// exact test walks to its horizon.
fn fig8_sets() -> Vec<TaskSet> {
    let base = TaskSetConfig::new()
        .task_count(5..=50)
        .average_gap(0.3)
        .seed(82);
    utilization_sweep(&base, 90..=99, 2)
        .into_iter()
        .flat_map(|point| point.task_sets)
        .collect()
}

#[test]
fn each_extra_workload_allocates_only_its_result_vector() {
    let sets = fig8_sets();
    // The second half repeats the first, so no workload of it is larger
    // than one the worker has already grown its buffers for.
    let doubled: Vec<TaskSet> = sets.iter().chain(&sets).cloned().collect();
    let suites: [BoxedTest; 4] = [
        Box::new(QpaTest::new()),
        Box::new(ProcessorDemandTest::new()),
        Box::new(DynamicErrorTest::new()),
        Box::new(AllApproximatedTest::new()),
    ];
    for test in suites {
        let name = test.name().to_string();
        let tests = [test];
        let once = allocations(|| drop(analyze_many_serial(&sets, &tests)));
        let twice = allocations(|| drop(analyze_many_serial(&doubled, &tests)));
        let extra = twice.saturating_sub(once);
        assert!(
            extra <= sets.len() as u64,
            "{name}: {} more workloads cost {extra} more allocations ({once} -> {twice})",
            sets.len()
        );
    }
}
