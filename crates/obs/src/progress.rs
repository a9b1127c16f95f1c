//! Live progress state for `--progress`: per-worker in-flight items,
//! busy time, throughput and ETA, all derived from the same registry
//! counters the exporters read.
//!
//! Workers report only while tracking is armed: the executor checks
//! [`enabled`] once per item, so an unarmed run pays one relaxed load and
//! no clock read. Armed, an item costs a few atomics and one small mutex
//! touch; a reporter thread in the CLI samples [`snapshot`] a couple of
//! times a second and renders a status line.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::trace;

/// Upper bound on tracked workers; workers past it still run, they just
/// don't get per-worker progress attribution.
pub const MAX_WORKERS: usize = 256;

struct WorkerSlot {
    busy_us: AtomicU64,
    items: AtomicU64,
    start_us: AtomicU64,
    in_flight: AtomicBool,
    label: Mutex<Option<String>>,
}

#[allow(clippy::declare_interior_mutable_const)]
const WORKER_SLOT_INIT: WorkerSlot = WorkerSlot {
    busy_us: AtomicU64::new(0),
    items: AtomicU64::new(0),
    start_us: AtomicU64::new(0),
    in_flight: AtomicBool::new(false),
    label: Mutex::new(None),
};

static WORKERS: [WorkerSlot; MAX_WORKERS] = [WORKER_SLOT_INIT; MAX_WORKERS];
static ENABLED: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);
static DONE: AtomicU64 = AtomicU64::new(0);
static JOBS: AtomicU64 = AtomicU64::new(0);
static START_US: AtomicU64 = AtomicU64::new(0);

fn origin() -> Instant {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    u64::try_from(origin().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Arms progress tracking for a workload of `total` items on `jobs`
/// workers.
pub fn begin(total: u64, jobs: u64) {
    for w in WORKERS.iter().take(MAX_WORKERS) {
        w.busy_us.store(0, Ordering::Relaxed);
        w.items.store(0, Ordering::Relaxed);
        w.in_flight.store(false, Ordering::Relaxed);
        *w.label.lock().unwrap() = None;
    }
    TOTAL.store(total, Ordering::Relaxed);
    DONE.store(0, Ordering::Relaxed);
    JOBS.store(jobs.max(1), Ordering::Relaxed);
    START_US.store(now_us(), Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether progress tracking is armed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Updates the planned item count mid-flight (a campaign's refinement
/// pass grows the total after [`begin`]).
pub fn set_total(total: u64) {
    TOTAL.store(total, Ordering::Relaxed);
}

/// Disarms progress tracking.
pub fn end() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Marks worker `worker` as starting one item.
pub fn item_start(worker: u32) {
    let Some(slot) = WORKERS.get(worker as usize) else {
        return;
    };
    slot.start_us.store(now_us(), Ordering::Relaxed);
    slot.in_flight.store(true, Ordering::Relaxed);
}

/// Attaches a human-readable label to the calling worker's in-flight
/// item ("slowest cell" display). The closure only runs when progress is
/// armed.
pub fn annotate(label: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    let Some(slot) = WORKERS.get(trace::worker() as usize) else {
        return;
    };
    *slot.label.lock().unwrap() = Some(label());
}

/// Marks worker `worker` as done with its current item.
pub fn item_done(worker: u32) {
    DONE.fetch_add(1, Ordering::Relaxed);
    let Some(slot) = WORKERS.get(worker as usize) else {
        return;
    };
    let started = slot.start_us.load(Ordering::Relaxed);
    slot.busy_us
        .fetch_add(now_us().saturating_sub(started), Ordering::Relaxed);
    slot.items.fetch_add(1, Ordering::Relaxed);
    slot.in_flight.store(false, Ordering::Relaxed);
}

/// A point-in-time progress reading.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Items completed so far.
    pub done: u64,
    /// Items planned.
    pub total: u64,
    /// Seconds since [`begin`].
    pub elapsed_s: f64,
    /// Completed items per second.
    pub rate: f64,
    /// Estimated seconds to completion (`None` before any item lands).
    pub eta_s: Option<f64>,
    /// Slowest currently-in-flight item: label (when annotated) and its
    /// age in seconds.
    pub slowest: Option<(String, f64)>,
    /// Fraction of worker capacity spent idle since [`begin`], in 0..=1.
    pub idle_frac: f64,
}

/// Samples the current progress state; `None` when tracking is off.
pub fn snapshot() -> Option<Snapshot> {
    if !enabled() {
        return None;
    }
    let now = now_us();
    let start = START_US.load(Ordering::Relaxed);
    let elapsed_us = now.saturating_sub(start).max(1);
    let done = DONE.load(Ordering::Relaxed);
    let total = TOTAL.load(Ordering::Relaxed);
    let jobs = JOBS.load(Ordering::Relaxed).max(1);

    let mut busy_us = 0u64;
    let mut slowest: Option<(String, u64)> = None;
    for slot in WORKERS.iter().take(jobs.min(MAX_WORKERS as u64) as usize) {
        busy_us += slot.busy_us.load(Ordering::Relaxed);
        if slot.in_flight.load(Ordering::Relaxed) {
            let age = now.saturating_sub(slot.start_us.load(Ordering::Relaxed));
            busy_us += age;
            if slowest.as_ref().is_none_or(|(_, a)| age > *a) {
                let label = slot
                    .label
                    .lock()
                    .unwrap()
                    .clone()
                    .unwrap_or_else(|| "(unlabelled)".to_string());
                slowest = Some((label, age));
            }
        }
    }
    let capacity_us = elapsed_us.saturating_mul(jobs).max(1);
    let rate = done as f64 / (elapsed_us as f64 / 1e6);
    Some(Snapshot {
        done,
        total,
        elapsed_s: elapsed_us as f64 / 1e6,
        rate,
        eta_s: (done > 0).then(|| total.saturating_sub(done) as f64 / rate.max(1e-9)),
        slowest: slowest.map(|(l, us)| (l, us as f64 / 1e6)),
        idle_frac: (1.0 - busy_us as f64 / capacity_us as f64).clamp(0.0, 1.0),
    })
}

impl Snapshot {
    /// Renders the one-line status the CLI prints for `--progress`.
    pub fn status_line(&self, unit: &str) -> String {
        let pct = if self.total > 0 {
            self.done as f64 * 100.0 / self.total as f64
        } else {
            0.0
        };
        let eta = match self.eta_s {
            Some(s) if self.done < self.total => format!(" eta {s:.1}s"),
            _ => String::new(),
        };
        let slow = match &self.slowest {
            Some((label, age)) if self.done < self.total => {
                format!(" slowest {label} ({age:.1}s)")
            }
            _ => String::new(),
        };
        format!(
            "{}/{} {unit} ({pct:.1}%) {:.1}/s{eta} idle {:.0}%{slow}",
            self.done,
            self.total,
            self.rate,
            self.idle_frac * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_tracks_items_rates_and_slowest() {
        let _g = crate::test_lock().lock().unwrap();
        begin(4, 2);
        trace::set_worker(0);
        item_start(0);
        annotate(|| "cell cad delay=100".to_string());
        item_done(0);
        item_start(1);
        let snap = snapshot().unwrap();
        assert_eq!(snap.done, 1);
        assert_eq!(snap.total, 4);
        assert!(snap.rate > 0.0);
        assert!(snap.eta_s.is_some());
        let slowest = snap.slowest.as_ref().unwrap();
        assert_eq!(slowest.0, "(unlabelled)", "worker 1 never annotated");
        let line = snap.status_line("cells");
        assert!(line.contains("1/4 cells"), "{line}");
        end();
        assert!(snapshot().is_none());
    }
}
