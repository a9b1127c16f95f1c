//! Allocation budgets of one fleet session, at a fixed seed: a CAD web
//! session (18 tiers × 3 fetches, each a DNS A+AAAA lookup, the Happy
//! Eyeballs race, a TCP handshake and an HTTP GET), an RD web session and
//! a resolver check. Each session runs once to warm the worker's pooled
//! simulation and per-thread caches, as a fleet worker's sessions do, and
//! is counted on its second run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lazyeye_fleet::{expand, run_session, FleetSpec, SessionContext, SessionKind, SessionOutput};

/// Forwards to [`System`] and counts allocation calls per thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's obligations under `GlobalAlloc` are exactly `System`'s;
// the counter is a const-initialised thread local, which never
// allocates.
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

/// Allocations of the second run of the default fleet's first session
/// matching `pick`, and that run's output.
fn session_allocs(pick: impl Fn(&SessionKind) -> bool) -> (u64, SessionOutput) {
    let spec = FleetSpec::default();
    let plan = expand(&spec).unwrap();
    let ctx = SessionContext::new(&spec, &plan.members);
    let session = plan
        .sessions
        .iter()
        .find(|s| pick(&s.kind))
        .expect("the default fleet has such a session");
    let warm = run_session(&ctx, session);
    let before = ALLOCS.with(Cell::get);
    let out = run_session(&ctx, session);
    let count = ALLOCS.with(Cell::get) - before;
    assert_eq!(out, warm, "a session is a pure function of its seed");
    (count, out)
}

#[test]
fn a_cad_web_session_stays_within_its_allocation_budget() {
    let (count, out) = session_allocs(|k| matches!(k, SessionKind::Cad { .. }));
    let SessionOutput::Web(result) = out else {
        panic!("a CAD session measures the web grid");
    };
    assert_eq!(result.tiers.len(), 18);
    // 54 fetches at about 67 allocations each (3,636 in all; 8,323, about
    // 155 a fetch, before the packet path, the task wakers, payloads and
    // HTTP heads stopped allocating).
    assert!(count <= 3_800, "CAD web session: {count} allocations");
}

#[test]
fn an_rd_web_session_stays_within_its_allocation_budget() {
    let (count, out) = session_allocs(|k| matches!(k, SessionKind::Rd { .. }));
    assert!(matches!(out, SessionOutput::Web(_)));
    // 3,480 (8,793 before).
    assert!(count <= 3_700, "RD web session: {count} allocations");
}

#[test]
fn a_resolver_check_stays_within_its_allocation_budget() {
    let (count, out) = session_allocs(|k| matches!(k, SessionKind::ResolverCheck { .. }));
    assert!(matches!(out, SessionOutput::Resolver(_)));
    // 136 (176 before).
    assert!(count <= 150, "resolver check: {count} allocations");
}
