//! Allocation gates for the executor's spawn path: a task spawned on a
//! recycled slab slot reuses the slot's waker, so it costs the future's
//! box and nothing else, unless a clone of that waker outlived the
//! slot's previous task.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use lazyeye_sim::Sim;

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

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Completes on its second poll, waking itself after the first. With a
/// `keep` cell it also leaves a clone of its waker there, outliving it.
struct TwoPolls {
    polled: bool,
    keep: Option<Rc<RefCell<Option<Waker>>>>,
}

impl Future for TwoPolls {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.polled {
            return Poll::Ready(());
        }
        self.polled = true;
        if let Some(keep) = &self.keep {
            *keep.borrow_mut() = Some(cx.waker().clone());
        }
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

fn two_polls() -> TwoPolls {
    TwoPolls {
        polled: false,
        keep: None,
    }
}

#[test]
fn spawning_on_a_recycled_slot_allocates_only_the_futures_box() {
    let mut sim = Sim::new(1);
    // Warm up: the first spawn grows the slab, the wake queue and its
    // dedup tags, and builds the slot's waker.
    sim.handle().spawn_detached(two_polls());
    sim.run();

    for _ in 0..3 {
        let before = allocs();
        sim.handle().spawn_detached(two_polls());
        sim.run();
        assert_eq!(allocs() - before, 1, "one box per spawn, nothing else");
    }
    assert_eq!(sim.poll_count(), 8, "two polls per task");
}

#[test]
fn an_escaped_waker_keeps_naming_its_own_task() {
    let mut sim = Sim::new(1);
    let kept = Rc::new(RefCell::new(None));
    sim.handle().spawn_detached(TwoPolls {
        polled: false,
        keep: Some(Rc::clone(&kept)),
    });
    sim.run();
    let polls = sim.poll_count();

    // The slot is recycled, but its waker is still held: the next task
    // gets a fresh one (the future's box, the waker's `Arc`).
    let before = allocs();
    sim.handle().spawn_detached(two_polls());
    assert_eq!(allocs() - before, 2, "box + fresh waker");
    sim.run();
    assert_eq!(sim.poll_count(), polls + 2, "the new task's two polls");

    // Waking the finished task's waker must not reach the slot's new
    // occupant.
    let stale = kept.borrow_mut().take().expect("a kept waker");
    sim.handle().spawn_detached(two_polls());
    stale.wake();
    sim.run();
    assert_eq!(sim.poll_count(), polls + 4, "a stale waker polls nothing");
}
