//! Allocation gates for the report side of a campaign: folding the runs
//! into cells and inferring every client's profile allocate per cell and
//! per subject, not per run, and hold no per-run state beyond a run
//! position. Adding repetitions adds runs to the same cells, so the
//! classified report's allocation count and its peak live heap must
//! barely move.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use lazyeye_campaign::{build_report_with, run_campaign_resumable, CampaignSpec};

/// Forwards to [`System`] and counts allocation calls, live bytes and
/// the peak of live bytes per thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread (negative when
    /// the thread frees what another allocated).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's obligations under `GlobalAlloc` are exactly `System`'s;
// the counters are const-initialised thread locals, which never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        grow(layout.size() as i64);
        // SAFETY: see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        grow(layout.size() as i64);
        // SAFETY: see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
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

/// What one classified `build_report_with` call cost.
struct ReportCost {
    runs: u64,
    allocs: u64,
    /// Peak live heap above the live heap at the call (bytes).
    peak_bytes: i64,
}

fn report_cost(reps: u32) -> ReportCost {
    let spec = spec(reps);
    let (runs, outputs) =
        run_campaign_resumable(&spec, 1, &BTreeMap::new(), |_, _| {}, |_, _| {}).unwrap();
    let before = ALLOCS.with(Cell::get);
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    let report = build_report_with(&spec, &runs, &outputs, true);
    let allocs = ALLOCS.with(Cell::get) - before;
    let peak_bytes = PEAK.with(Cell::get) - live;
    assert!(report.inference.is_some_and(|s| s.matrix_agrees));
    ReportCost {
        runs: runs.len() as u64,
        allocs,
        peak_bytes,
    }
}

#[test]
fn classified_report_allocations_grow_with_cells_not_runs() {
    let (one, four) = (report_cost(1), report_cost(4));
    assert!(
        four.runs > 3 * one.runs,
        "4 repetitions must add runs ({} → {})",
        one.runs,
        four.runs
    );
    let added = (four.runs - one.runs) as f64;
    let per_added_run = four.allocs.saturating_sub(one.allocs) as f64 / added;
    assert!(
        per_added_run < 0.5,
        "build_report_with made {} allocations for {} runs and {} for {}: {per_added_run:.2} \
         per added run",
        one.allocs,
        one.runs,
        four.allocs,
        four.runs
    );
}

#[test]
fn classified_report_peak_heap_grows_with_cells_not_runs() {
    let (one, four) = (report_cost(1), report_cost(4));
    let per_added_run = (four.peak_bytes - one.peak_bytes) as f64 / (four.runs - one.runs) as f64;
    assert!(
        per_added_run < 32.0,
        "build_report_with peaked at {} live bytes for {} runs and {} for {}: \
         {per_added_run:.1} B per added run",
        one.peak_bytes,
        one.runs,
        four.peak_bytes,
        four.runs
    );
}
