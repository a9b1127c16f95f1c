//! Allocation counts of `Bytes` construction: an empty or static buffer
//! allocates nothing, and any other costs one allocation however it is
//! built. Clones and slices share the store and allocate nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::{BufMut, Bytes, BytesMut};

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

/// Allocations made on this thread while `f` runs, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn empty_and_static_buffers_allocate_nothing() {
    let (n, b) = counted(Bytes::new);
    assert_eq!((n, b.len()), (0, 0), "Bytes::new");
    let (n, b) = counted(Bytes::default);
    assert_eq!((n, b.len()), (0, 0), "Bytes::default");
    let (n, b) = counted(|| Bytes::from_static(b"not found"));
    assert_eq!((n, &b[..]), (0, &b"not found"[..]), "Bytes::from_static");
    let (n, b) = counted(|| Bytes::from("static str"));
    assert_eq!((n, b.len()), (0, 10), "From<&'static str>");
    let (n, b) = counted(|| Bytes::copy_from_slice(&[]));
    assert_eq!((n, b.len()), (0, 0), "copy_from_slice of nothing");
}

#[test]
fn every_other_buffer_costs_one_allocation() {
    let payload = vec![7u8; 1400];
    let (n, b) = counted(|| Bytes::copy_from_slice(&payload));
    assert_eq!((n, b.len()), (1, 1400), "copy_from_slice");

    // The source's own buffer was allocated before; the conversion adds
    // exactly one.
    let v = payload.clone();
    let (n, b) = counted(|| Bytes::from(v));
    assert_eq!((n, b.len()), (1, 1400), "From<Vec<u8>>");
    let s = String::from("2001:db8::1");
    let (n, b) = counted(|| Bytes::from(s));
    assert_eq!((n, &b[..]), (1, &b"2001:db8::1"[..]), "From<String>");

    let mut m = BytesMut::with_capacity(8);
    m.put_u16(0x0102);
    m.put_slice(b"xy");
    let (n, b) = counted(|| m.freeze());
    assert_eq!(
        (n, &b[..]),
        (1, &[1, 2, b'x', b'y'][..]),
        "BytesMut::freeze"
    );
}

#[test]
fn clones_and_slices_share_the_store() {
    let b = Bytes::copy_from_slice(b"GET /ip HTTP/1.1");
    let (n, (c, mut s)) = counted(|| (b.clone(), b.slice(4..7)));
    assert_eq!(n, 0);
    assert_eq!(c, b);
    assert_eq!(&s[..], b"/ip");
    let (n, head) = counted(|| s.split_to(1));
    assert_eq!((n, &head[..], &s[..]), (0, &b"/"[..], &b"ip"[..]));
}
