//! One heap allocation per `WHATIF` line, the reply: `dispatch` splits
//! and matches the request without allocating and formats the reply
//! once, and the serve loop adds nothing (reading, classifying and
//! writing a line allocate nothing once the loop's buffers exist).
//! Recovering a journal allocates per tenant, not per record.  Counted by
//! a global allocator that tallies the calling thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::path::Path;

use edf_analysis::workload::DemandComponent;
use edf_model::Time;
use edf_serve::journal::{Journal, JournalRecord};
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

/// Writes a journal of `tenants` tenants with `components` admitted
/// components each: one `Tenant` record, then one `Admit` per component.
fn write_tenants(path: &Path, tenants: usize, components: u64) {
    let _ = std::fs::remove_file(path);
    let (mut journal, _) = Journal::open(path).expect("create journal");
    let mut id = 0;
    for tenant in 0..tenants {
        let tenant = format!("tenant-{tenant:02}");
        journal
            .append(&JournalRecord::Tenant {
                tenant: tenant.clone(),
            })
            .expect("append");
        for index in 0..components {
            let component =
                DemandComponent::periodic(Time::new(1), Time::new(90 + index), Time::new(1_000));
            journal
                .append(&JournalRecord::Admit {
                    tenant: tenant.clone(),
                    id,
                    component,
                })
                .expect("append");
            id += 1;
        }
    }
}

/// Allocations of one recovery of a journal of `tenants` tenants with
/// `components` components each, the recovered service dropped.
fn recovery_allocations(tenants: usize, components: u64) -> u64 {
    let dir = std::env::temp_dir().join(format!("edf-serve-allocations-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("recover-{components}.journal"));
    write_tenants(&path, tenants, components);
    let counted = allocations(|| {
        let service = AdmissionService::recover(&path).expect("recover");
        assert_eq!(service.tenant_count(), tenants);
    });
    let _ = std::fs::remove_file(&path);
    counted
}

#[test]
fn recovery_allocates_per_tenant_not_per_record() {
    const TENANTS: usize = 32;
    let few = recovery_allocations(TENANTS, 8);
    let many = recovery_allocations(TENANTS, 64);
    // The same tenants with 56 more records each: what grows is each
    // tenant's committed list, three doublings from 8 to 64 entries.
    let added_records = TENANTS as u64 * (64 - 8);
    let grown = many.saturating_sub(few);
    assert!(
        grown <= 4 * TENANTS as u64,
        "{added_records} more records cost {grown} more allocations ({few} -> {many})"
    );
}
