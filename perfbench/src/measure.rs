//! Measurement primitives taken from outside the program: process CPU
//! time, peak RSS, a counting allocator, the host-speed yardstick, and
//! the order statistics the benchmark reports.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// A global allocator that forwards to [`System`] and, while counting is
/// on, tallies allocation calls and requested bytes per thread.
///
/// Per-thread tallies let the traced run attribute allocations to the
/// public call that made them, even when calls run on pool workers.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // A statistic only: it publishes no other data, so Relaxed suffices.
    if COUNTING.load(Ordering::Relaxed) {
        // The cells are const-initialised without a destructor, so access
        // neither allocates nor fails while a thread exits.
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's obligations under `GlobalAlloc` are exactly `System`'s;
// `note` only touches thread-local counters and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: see the impl comment; `layout` comes from the caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: see the impl comment; `layout` comes from the caller.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: see the impl comment; `ptr` was allocated by `System`
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocation calls, requested bytes)` counted on the calling thread
/// so far.
pub fn thread_allocs() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU time consumed by the whole process — every thread, user plus
/// system — in seconds, at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Fixed reference work that tells how fast the host runs at the moment.
///
/// A host whose cores are shared with other tenants can switch between a
/// fast and a slow speed, 1.5-2x apart, every few seconds, and a whole
/// 30-second run can fall in either; a median over one run cannot remove
/// that. So every timed window is scaled by the yardstick read just
/// before and just after it.
///
/// The yardstick is the kind of work the program does: a timer queue of
/// small boxed events in a `BTreeMap`, a tally in a `HashMap`, a binary
/// heap, and text formatting and hashing. It is fixed code, so no change
/// to the program can make it faster or slower; its few allocations
/// recycle its own freed blocks.
pub(crate) struct HostSpeed {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    table: Vec<u64>,
    text: String,
    last_s: f64,
}

/// Steps of each half of one yardstick reading.
const YARDSTICK_STEPS: u32 = 40_000;

/// Entries the yardstick's queues hold.
const YARDSTICK_QUEUE: usize = 256;

/// The yardstick's time on the reference host, in seconds: a 2-vCPU
/// Xeon VM at its fast speed. Scaled values read as on that host.
pub const YARDSTICK_REF_S: f64 = 0.007;

impl HostSpeed {
    /// Allocates the yardstick's structures and takes a first reading.
    pub(crate) fn new() -> HostSpeed {
        let mut speed = HostSpeed {
            heap: BinaryHeap::with_capacity(YARDSTICK_QUEUE + 1),
            table: vec![0; 1024],
            text: String::with_capacity(128),
            last_s: 0.0,
        };
        speed.read();
        speed.last_s = speed.read();
        speed
    }

    /// One yardstick reading: its wall time in seconds.
    fn read(&mut self) -> f64 {
        let started = Instant::now();
        let acc = self.timer_queue() ^ self.heap_and_table();
        std::hint::black_box(acc);
        started.elapsed().as_secs_f64()
    }

    /// Pointer-chasing half: boxed events through a `BTreeMap` queue.
    fn timer_queue(&mut self) -> u64 {
        let mut queue: BTreeMap<(u64, u32), Box<[u64; 4]>> = BTreeMap::new();
        let mut seen: HashMap<u64, u32> = HashMap::new();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        for i in 0..YARDSTICK_STEPS {
            x = xorshift(x);
            queue.insert((x % 4096, i), Box::new([x, acc, u64::from(i), 0]));
            if queue.len() > YARDSTICK_QUEUE {
                let (_, event) = queue.pop_first().expect("non-empty queue");
                *seen.entry(event[0] % 1024).or_default() += 1;
                acc = acc.wrapping_add(event[0] ^ event[1]);
            }
            if i % 64 == 0 {
                acc = acc.wrapping_add(self.format(i, acc, seen.len()));
            }
        }
        acc
    }

    /// Flat half: a preallocated binary heap and table.
    fn heap_and_table(&mut self) -> u64 {
        self.heap.clear();
        self.table.fill(0);
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut acc = 0u64;
        for i in 0..YARDSTICK_STEPS {
            x = xorshift(x);
            self.heap.push(Reverse((x % 4096 + u64::from(i), i)));
            if self.heap.len() > YARDSTICK_QUEUE {
                let Reverse((at, id)) = self.heap.pop().expect("non-empty heap");
                let slot = (at ^ u64::from(id)).wrapping_mul(0x0100_0000_01b3) as usize % 1024;
                self.table[slot] = self.table[slot].wrapping_add(at);
                acc = acc.wrapping_add(self.table[slot] ^ x);
            }
            if i % 64 == 0 {
                acc = acc.wrapping_add(self.format(i, acc, 0));
            }
        }
        acc
    }

    /// Formats a small JSON record into the reused buffer and hashes it.
    fn format(&mut self, step: u32, acc: u64, seen: usize) -> u64 {
        use std::fmt::Write;
        self.text.clear();
        let _ = write!(
            self.text,
            "{{\"step\": {step}, \"acc\": {acc}, \"seen\": {seen}}}"
        );
        fnv1a(&[self.text.as_bytes()])
    }

    /// How much slower than the reference host the host ran over the
    /// window since the last call: the mean of the readings before and
    /// after it, over [`YARDSTICK_REF_S`]. Multiply a rate by it, or
    /// divide a time by it, to state the window at reference speed.
    pub(crate) fn slowdown(&mut self) -> f64 {
        let now = self.read();
        let mean = (self.last_s + now) / 2.0;
        self.last_s = now;
        mean / YARDSTICK_REF_S
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// 64-bit FNV-1a over `parts`, in order.
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > before);
    }

    #[test]
    fn host_speed_reads_a_positive_slowdown() {
        let mut speed = HostSpeed::new();
        let slowdown = speed.slowdown();
        assert!(slowdown.is_finite() && slowdown > 0.0, "{slowdown}");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
