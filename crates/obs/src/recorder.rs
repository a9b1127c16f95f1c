//! The flight recorder: a bounded ring buffer of structured events,
//! recording only while the [trigger engine](crate::trigger) is armed.
//!
//! Subsystems record coarse, clock-domain-tagged events (one per
//! campaign run, fleet session, sim run or fast-path refusal — never
//! per poll) into a fixed-size ring. The ring never grows: once full,
//! each new event overwrites the oldest slot (FIFO eviction). When a
//! [trigger](crate::trigger) fires, [`Recorder::snapshot`] captures the
//! recent past into the black-box bundle's wall section.
//!
//! The ring's only reader is a firing trigger, so the process-global
//! [`record`] keeps nothing while the engine is unarmed: it returns
//! after one relaxed atomic load and never runs the closure that builds
//! the event's detail. An unarmed campaign pays no formatting, slot
//! lock or wall-clock read per event.
//!
//! The ring is sharded: a global atomic cursor assigns every write a
//! unique sequence number and slot, and each slot is guarded by its own
//! mutex, so concurrent writers contend only when they land on the same
//! slot. A snapshot taken concurrently with writers is always
//! *internally consistent* — every event it contains is complete and
//! events are ordered by sequence number — though it may span writes
//! from a window in which some slots were overwritten.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use lazyeye_json::Json;

use crate::Clock;

/// Capacity of the process-global ring returned by [`recorder`].
pub const DEFAULT_CAPACITY: usize = 4096;

/// One recorded flight-recorder event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Global sequence number: the total order of writes into the ring.
    pub seq: u64,
    /// Clock domain of the emitting subsystem.
    pub clock: Clock,
    /// Wall-clock microseconds since the Unix epoch at record time.
    pub at_us: u64,
    /// Subsystem-scoped event name (e.g. `campaign.run`).
    pub name: &'static str,
    /// Free-form detail payload.
    pub detail: String,
}

impl RecordedEvent {
    /// JSON form used in black-box bundles (wall section only: `at_us`
    /// is host time, so recorded events are never part of report or
    /// replay-pinned bytes).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", Json::UInt(self.seq)),
            ("clock", Json::Str(self.clock.label().into())),
            ("at_us", Json::UInt(self.at_us)),
            ("name", Json::Str(self.name.into())),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }
}

/// A bounded ring of [`RecordedEvent`]s. See the module docs for the
/// concurrency contract.
pub struct Recorder {
    slots: Vec<Mutex<Option<RecordedEvent>>>,
    next: AtomicU64,
}

impl Recorder {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Recorder {
        assert!(capacity > 0, "flight recorder capacity must be nonzero");
        Recorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// Maximum number of events the ring retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total number of events ever written (including overwritten ones).
    pub fn written(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Records one event, returning its sequence number. Overwrites the
    /// oldest event when the ring is full.
    pub fn record(&self, clock: Clock, name: &'static str, detail: impl Into<String>) -> u64 {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let event = RecordedEvent {
            seq,
            clock,
            at_us: crate::trace::wall_now_us(),
            name,
            detail: detail.into(),
        };
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot].lock().unwrap() = Some(event);
        seq
    }

    /// The ring's current contents, ordered by sequence number.
    pub fn snapshot(&self) -> Vec<RecordedEvent> {
        let mut events: Vec<RecordedEvent> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap().clone())
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// The ring's current contents as a JSON array (bundle wall section).
    pub fn snapshot_json(&self) -> Json {
        Json::Arr(self.snapshot().iter().map(RecordedEvent::to_json).collect())
    }

    /// Empties every slot. Sequence numbers keep increasing across a
    /// clear, so snapshots before and after never interleave.
    pub fn clear(&self) {
        for slot in &self.slots {
            *slot.lock().unwrap() = None;
        }
    }
}

/// The process-global flight recorder ([`DEFAULT_CAPACITY`] events).
pub fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder::new(DEFAULT_CAPACITY))
}

/// Records one event into the process-global ring while the trigger
/// engine is [armed](crate::trigger::armed); otherwise returns without
/// calling `detail`.
pub fn record(clock: Clock, name: &'static str, detail: impl FnOnce() -> String) {
    if crate::trigger::armed() {
        recorder().record(clock, name, detail());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_last_capacity_events() {
        let r = Recorder::new(8);
        for i in 0..20u64 {
            r.record(Clock::Virtual, "test.ring", format!("e{i}"));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 8);
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>(), "oldest evicted first");
        assert_eq!(r.written(), 20);
    }

    #[test]
    fn snapshot_of_partial_ring_is_ordered() {
        let r = Recorder::new(16);
        for i in 0..5u64 {
            r.record(Clock::Wall, "test.partial", format!("{i}"));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 5);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(snap[0].detail, "0");
        assert_eq!(snap[4].detail, "4");
    }

    #[test]
    fn clear_empties_but_keeps_sequencing_monotonic() {
        let r = Recorder::new(4);
        r.record(Clock::Wall, "test.clear", "a");
        r.clear();
        assert!(r.snapshot().is_empty());
        let seq = r.record(Clock::Wall, "test.clear", "b");
        assert_eq!(seq, 1, "sequence numbers survive clear");
    }
}
