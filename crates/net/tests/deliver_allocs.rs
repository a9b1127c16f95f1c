//! Allocation gate for the packet path: a packet parks in the world's
//! in-flight slab under a typed delivery event, so sending and delivering
//! one whose payload already exists allocates nothing once the flow, the
//! slab and the receive queue have their capacity.
//!
//! The fabric runs without propagation delay, so every delivery lands in
//! the timer wheel slot the warm-up already sized: a slot's first use
//! allocates its heap, which a long simulation pays once per slot, not
//! per packet.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::SocketAddr;
use std::time::Duration;

use bytes::Bytes;
use lazyeye_net::{Netem, NetemRule, Network};
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

#[test]
fn delivering_an_existing_payload_allocates_nothing() {
    let mut sim = Sim::new(1);
    let net = Network::new();
    net.set_base_delay(Duration::ZERO);
    let server = net.host("server").v4("192.0.2.1").build();
    let client = net.host("client").v4("192.0.2.100").build();
    // Duplication: the duplicate copy (a second parked packet, a second
    // event, 1 µs later) takes the same path.
    client.add_egress(NetemRule::all(
        Netem::delay(Duration::ZERO).with_duplicate(0.5),
    ));
    let (tx, rx) = sim.enter(|| {
        (
            client.udp_bind_any(5300).unwrap(),
            server.udp_bind_any(53).unwrap(),
        )
    });
    let dst: SocketAddr = "192.0.2.1:53".parse().unwrap();
    let payload = Bytes::copy_from_slice(b"an already encoded query");

    let exchange = |sim: &mut Sim| {
        for _ in 0..8 {
            sim.enter(|| tx.send_to(payload.clone(), dst).unwrap());
        }
        sim.run();
        let mut received = 0;
        while let Some((got, src)) = rx.try_recv_from() {
            assert_eq!(got, payload);
            assert_eq!(src, "192.0.2.100:5300".parse().unwrap());
            received += 1;
        }
        received
    };
    // Warm up: the flow entry, the in-flight slab, the event store, the
    // wheel and the receive queue grow to their working size.
    assert!(exchange(&mut sim) >= 8);

    let before = allocs();
    let delivered = exchange(&mut sim);
    assert_eq!(allocs() - before, 0, "the packet path allocated");
    assert!(delivered >= 8, "every copy arrives");
    assert!(
        delivered > 8,
        "a 50 % duplication rate duplicates one of eight"
    );
}
