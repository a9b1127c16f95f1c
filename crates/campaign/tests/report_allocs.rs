//! Allocation gate for the report side of a campaign: folding the runs
//! into cells and inferring every client's profile allocate per cell and
//! per subject, not per run. Adding repetitions adds runs to the same
//! cells, so the classified report's allocation count must barely move.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use lazyeye_campaign::{build_report_with, run_campaign_resumable, CampaignSpec};

/// Forwards to [`System`] and counts allocation calls per thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's obligations under `GlobalAlloc` are exactly `System`'s;
// the counter is a const-initialised thread local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The default spec with every case block at `reps` repetitions.
fn spec(reps: u32) -> CampaignSpec {
    let mut spec = CampaignSpec::default();
    spec.cad.as_mut().unwrap().repetitions = reps;
    spec.rd.as_mut().unwrap().repetitions = reps;
    spec.selection.as_mut().unwrap().repetitions = reps;
    spec.resolver.as_mut().unwrap().repetitions = reps;
    spec
}

/// `(runs, allocations)` of one classified `build_report_with` call.
fn report_allocs(reps: u32) -> (u64, u64) {
    let spec = spec(reps);
    let (runs, outputs) =
        run_campaign_resumable(&spec, 1, &BTreeMap::new(), |_, _| {}, |_, _| {}).unwrap();
    let before = ALLOCS.with(Cell::get);
    let report = build_report_with(&spec, &runs, &outputs, true);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(report.inference.is_some_and(|s| s.matrix_agrees));
    (runs.len() as u64, allocs)
}

#[test]
fn classified_report_allocations_grow_with_cells_not_runs() {
    let (runs1, allocs1) = report_allocs(1);
    let (runs4, allocs4) = report_allocs(4);
    assert!(
        runs4 > 3 * runs1,
        "4 repetitions must add runs ({runs1} → {runs4})"
    );
    let per_added_run = allocs4.saturating_sub(allocs1) as f64 / (runs4 - runs1) as f64;
    assert!(
        per_added_run < 0.5,
        "build_report_with made {allocs1} allocations for {runs1} runs and {allocs4} for \
         {runs4}: {per_added_run:.2} per added run"
    );
}
