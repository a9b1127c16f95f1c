//! A hierarchical timer wheel on virtual time.
//!
//! Replaces the old `BinaryHeap<TimerEntry>`-with-a-cloned-`Waker`-per-timer:
//! entries are 32-byte `Copy` records (`at`, `seq`, [`Target`]) bucketed by
//! deadline magnitude into [`LEVELS`] levels of 64 slots each. Level `l`
//! spans `64^(l+1)` ticks of `2^20` ns (≈ 1.05 ms), so level 0 covers
//! ≈ 67 ms, level 1 ≈ 4.3 s, … level 5 ≈ 2.3 years; anything further out
//! lands in a rarely-scanned overflow list.
//!
//! Virtual time makes the classic tick-driven cascade unnecessary: the
//! executor only ever asks for the *globally earliest* `(at, seq)` entry.
//! Each level keeps a 64-bit occupancy bitmap; the earliest candidate per
//! level is found by rotating the bitmap to the current slot cursor and
//! taking the first set bit, and the global winner is the `(at, seq)`
//! minimum of the per-level candidates. When the winner comes from a
//! coarse level, the rest of its slot cascades down to finer levels
//! relative to the new current tick — the classic boundary cascade, done
//! lazily at pop time instead of eagerly at every tick.
//!
//! Determinism contract (the executor's schedule depends on it): entries
//! pop in strict `(at, seq)` order, where `seq` is the registration
//! sequence number — same-deadline timers fire in registration order,
//! exactly like the old heap.

use crate::executor::Target;

/// log2 of the tick length in nanoseconds (2^20 ns ≈ 1.05 ms).
const TICK_SHIFT: u32 = 20;
/// Slots per level.
const SLOTS: usize = 64;
/// Bits consumed per level.
const LEVEL_BITS: u32 = 6;
/// Number of wheel levels before the overflow list takes over.
pub(crate) const LEVELS: usize = 6;

/// One armed timer: steps `target` once virtual time reaches `at` ns.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct TimerEntry {
    /// Absolute deadline in nanoseconds.
    pub at: u64,
    /// Registration sequence number (same-instant FIFO order).
    pub seq: u64,
    /// The task to wake or the event to fire.
    pub target: Target,
}

impl TimerEntry {
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// A slot's entries: a min-heap on `(at, seq)`, so a slot crowded with
/// same-bucket deadlines still pops in `O(log n)` like the old global
/// heap did (a linear min-scan would go quadratic on the spurious-wake
/// re-arm storms `join_all`-style futures produce).
type SlotHeap = std::collections::BinaryHeap<std::cmp::Reverse<TimerEntry>>;

/// The wheel. All operations are `O(LEVELS)` bitmap scans plus a scan of
/// one slot's entry list.
pub(crate) struct TimerWheel {
    /// Tick of the last popped deadline (monotonic, never ahead of `now`).
    cur_tick: u64,
    /// Next registration sequence number.
    seq: u64,
    /// Total armed entries (wheel + overflow).
    len: usize,
    /// Per-level slot occupancy.
    bitmaps: [u64; LEVELS],
    /// `LEVELS × 64` slots, flattened.
    slots: Vec<SlotHeap>,
    /// Deadlines beyond the wheel horizon (≈ 2.3 years of virtual time).
    overflow: Vec<TimerEntry>,
}

impl TimerWheel {
    pub fn new() -> TimerWheel {
        TimerWheel {
            cur_tick: 0,
            seq: 0,
            len: 0,
            bitmaps: [0; LEVELS],
            slots: (0..LEVELS * SLOTS).map(|_| SlotHeap::new()).collect(),
            overflow: Vec::new(),
        }
    }

    /// Empties the wheel, keeping every slot's allocation (arena reuse).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
        self.bitmaps = [0; LEVELS];
        self.overflow.clear();
        self.cur_tick = 0;
        self.seq = 0;
        self.len = 0;
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arms a timer at absolute nanosecond deadline `at` (the caller clamps
    /// `at` to `now` first, so no entry is ever in the past). Returns the
    /// registration sequence number.
    pub fn insert(&mut self, at: u64, target: Target) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        let entry = TimerEntry { at, seq, target };
        self.place(entry);
        self.len += 1;
        seq
    }

    /// Buckets an entry relative to `cur_tick`.
    fn place(&mut self, entry: TimerEntry) {
        let tick = entry.at >> TICK_SHIFT;
        debug_assert!(tick >= self.cur_tick, "timer bucketed in the past");
        for level in 0..LEVELS {
            let shift = LEVEL_BITS * level as u32;
            if (tick >> shift) - (self.cur_tick >> shift) < SLOTS as u64 {
                let slot = ((tick >> shift) as usize) & (SLOTS - 1);
                self.slots[level * SLOTS + slot].push(std::cmp::Reverse(entry));
                self.bitmaps[level] |= 1u64 << slot;
                return;
            }
        }
        self.overflow.push(entry);
    }

    /// The earliest occupied slot of `level`, walking from the slot the
    /// current tick maps to (entries never live in the "past" part of the
    /// ring, so the first set bit from the cursor is the minimum).
    fn earliest_slot(&self, level: usize) -> Option<usize> {
        let bitmap = self.bitmaps[level];
        if bitmap == 0 {
            return None;
        }
        let start = ((self.cur_tick >> (LEVEL_BITS * level as u32)) as usize) & (SLOTS - 1);
        let rotated = bitmap.rotate_right(start as u32);
        let dist = rotated.trailing_zeros() as usize;
        Some((start + dist) & (SLOTS - 1))
    }

    /// Index of the `(at, seq)`-minimum entry of a slice (overflow only —
    /// wheel slots are heaps with `O(1)` peeks).
    fn min_index(entries: &[TimerEntry]) -> usize {
        let mut best = 0;
        for (i, e) in entries.iter().enumerate().skip(1) {
            if e.key() < entries[best].key() {
                best = i;
            }
        }
        best
    }

    /// The deadline (ns) of the earliest armed timer, if any.
    #[cfg(test)]
    pub fn next_deadline(&self) -> Option<u64> {
        self.find_earliest().map(|(_, entry)| entry.at)
    }

    /// Pops the earliest entry if its deadline is `<= limit` (one scan for
    /// the executor's peek-then-pop step); otherwise reports why not.
    pub fn pop_earliest_before(&mut self, limit: u64) -> PopOutcome {
        match self.find_earliest() {
            None => PopOutcome::Empty,
            Some((_, entry)) if entry.at > limit => PopOutcome::Beyond,
            Some(found) => {
                self.remove_found(found);
                PopOutcome::Fired(found.1)
            }
        }
    }

    /// Locates the globally earliest entry: `(slot index or OVERFLOW,
    /// entry)`.
    fn find_earliest(&self) -> Option<(usize, TimerEntry)> {
        const OVERFLOW: usize = usize::MAX;
        let mut best: Option<(usize, TimerEntry)> = None;
        for level in 0..LEVELS {
            if let Some(slot) = self.earliest_slot(level) {
                let idx = level * SLOTS + slot;
                let entry = self.slots[idx].peek().expect("bitmap said occupied").0;
                if best.is_none_or(|(_, b)| entry.key() < b.key()) {
                    best = Some((idx, entry));
                }
            }
        }
        if !self.overflow.is_empty() {
            let entry = self.overflow[Self::min_index(&self.overflow)];
            if best.is_none_or(|(_, b)| entry.key() < b.key()) {
                best = Some((OVERFLOW, entry));
            }
        }
        best
    }

    /// Removes and returns the earliest entry, advancing the tick cursor
    /// to its deadline and cascading the remainder of a coarse-level slot
    /// (or the overflow list when it held the winner) down to finer
    /// levels.
    #[cfg(test)]
    pub fn pop_earliest(&mut self) -> Option<TimerEntry> {
        let found = self.find_earliest()?;
        self.remove_found(found);
        Some(found.1)
    }

    /// Removes a `find_earliest` result, advancing the cursor and
    /// cascading coarse-slot survivors.
    fn remove_found(&mut self, (slot_idx, entry): (usize, TimerEntry)) {
        const OVERFLOW: usize = usize::MAX;
        let tick = entry.at >> TICK_SHIFT;
        debug_assert!(tick >= self.cur_tick);
        let coarse = slot_idx == OVERFLOW || slot_idx >= SLOTS;
        self.cur_tick = tick;
        if slot_idx == OVERFLOW {
            // The horizon moved: anything now within it re-buckets.
            // (`place` may push far-out survivors back into
            // `self.overflow`, which `mem::take` left empty.)
            let mut rest = std::mem::take(&mut self.overflow);
            let i = Self::min_index(&rest);
            rest.swap_remove(i);
            for e in rest.drain(..) {
                self.place(e);
            }
        } else {
            self.slots[slot_idx].pop().expect("find_earliest peeked");
            if coarse {
                // Cascade the slot's survivors: relative to the new
                // cursor they fit finer levels (same 64^level bucket).
                let mut rest = std::mem::take(&mut self.slots[slot_idx]);
                self.bitmaps[slot_idx / SLOTS] &= !(1u64 << (slot_idx % SLOTS));
                for std::cmp::Reverse(e) in rest.drain() {
                    self.place(e);
                }
                self.slots[slot_idx] = rest;
            } else if self.slots[slot_idx].is_empty() {
                self.bitmaps[slot_idx / SLOTS] &= !(1u64 << (slot_idx % SLOTS));
            }
        }
        self.len -= 1;
    }
}

/// Result of [`TimerWheel::pop_earliest_before`].
pub(crate) enum PopOutcome {
    /// The earliest entry was due within the limit and has been removed.
    Fired(TimerEntry),
    /// The earliest armed deadline lies beyond the limit.
    Beyond,
    /// No timers are armed.
    Empty,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::TaskId;

    fn task(n: u64) -> Target {
        Target::Task(TaskId::pack(n as u32, 0))
    }

    /// Drains the wheel, asserting global (at, seq) order.
    fn drain(wheel: &mut TimerWheel) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = wheel.pop_earliest() {
            out.push((e.at, e.seq));
        }
        assert!(wheel.is_empty());
        out
    }

    const TICK: u64 = 1 << TICK_SHIFT;

    #[test]
    fn pops_in_deadline_order_across_levels() {
        let mut w = TimerWheel::new();
        // Deadlines straddling level 0 (≤ 64 ticks), level 1 (≤ 64²) and
        // level 2, inserted shuffled.
        let deadlines = [
            5 * TICK,
            63 * TICK, // level-0 boundary
            64 * TICK, // first level-1 tick
            65 * TICK,
            (SLOTS as u64 * SLOTS as u64 - 1) * TICK, // level-1 boundary
            (SLOTS as u64 * SLOTS as u64) * TICK,     // first level-2 tick
            1,
            0,
        ];
        let mut shuffled = deadlines.to_vec();
        shuffled.reverse();
        for (i, &at) in shuffled.iter().enumerate() {
            w.insert(at, task(i as u64));
        }
        let popped: Vec<u64> = drain(&mut w).into_iter().map(|(at, _)| at).collect();
        let mut sorted = deadlines.to_vec();
        sorted.sort();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn same_deadline_fifo_via_seq() {
        let mut w = TimerWheel::new();
        for i in 0..10u64 {
            w.insert(7 * TICK + 3, task(i));
        }
        let seqs: Vec<u64> = drain(&mut w).into_iter().map(|(_, seq)| seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>(), "registration order");
    }

    #[test]
    fn sub_tick_deadlines_keep_exact_order() {
        // Multiple distinct nanosecond deadlines inside one 2^20 ns tick
        // share a slot but must still pop in exact (at, seq) order.
        let mut w = TimerWheel::new();
        w.insert(900, task(0));
        w.insert(100, task(1));
        w.insert(500, task(2));
        assert_eq!(
            drain(&mut w),
            vec![(100, 1), (500, 2), (900, 0)],
            "exact ns order within a tick"
        );
    }

    #[test]
    fn cascade_across_level_boundary_preserves_order() {
        let mut w = TimerWheel::new();
        // Two entries in the same level-1 slot (same 64-tick bucket):
        // popping the first cascades the second to level 0, where it must
        // still pop before a later level-1 entry.
        w.insert(100 * TICK, task(0));
        w.insert(101 * TICK, task(1));
        w.insert(200 * TICK, task(2));
        let popped: Vec<u64> = drain(&mut w).into_iter().map(|(at, _)| at).collect();
        assert_eq!(popped, vec![100 * TICK, 101 * TICK, 200 * TICK]);
    }

    #[test]
    fn fine_entry_inserted_after_cursor_advance_beats_coarse() {
        let mut w = TimerWheel::new();
        w.insert(64 * TICK, task(0)); // level 1 at cur_tick 0
        w.insert(10 * TICK, task(1)); // level 0
        assert_eq!(w.pop_earliest().unwrap().at, 10 * TICK);
        // Cursor is now at tick 10; a fresh level-0 entry *behind* the
        // level-1 one in ring position but *ahead* in time must lose.
        w.insert(70 * TICK, task(2)); // level 0 relative to tick 10
        let popped: Vec<u64> = drain(&mut w).into_iter().map(|(at, _)| at).collect();
        assert_eq!(popped, vec![64 * TICK, 70 * TICK]);
    }

    #[test]
    fn overflow_horizon_entries_come_back() {
        let mut w = TimerWheel::new();
        let far = (1u64 << (LEVEL_BITS as usize * LEVELS) as u32) * TICK + 17; // beyond level 5
        w.insert(far, task(0));
        w.insert(3 * TICK, task(1));
        assert_eq!(w.next_deadline(), Some(3 * TICK));
        assert_eq!(w.pop_earliest().unwrap().at, 3 * TICK);
        assert_eq!(w.pop_earliest().unwrap().at, far);
        assert!(w.pop_earliest().is_none());
    }

    #[test]
    fn clear_keeps_working_and_resets_seq() {
        let mut w = TimerWheel::new();
        w.insert(TICK, task(0));
        w.insert(2 * TICK, task(1));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.next_deadline(), None);
        let seq = w.insert(5 * TICK, task(2));
        assert_eq!(seq, 0, "sequence restarts after clear");
        assert_eq!(drain(&mut w), vec![(5 * TICK, 0)]);
    }

    #[test]
    fn interleaved_insert_pop_random_order() {
        // A light pseudo-random stress: all pops must come out globally
        // sorted by (at, seq) even with interleaved inserts.
        let mut w = TimerWheel::new();
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pending: Vec<(u64, u64)> = Vec::new();
        let mut popped: Vec<(u64, u64)> = Vec::new();
        let mut floor = 0u64;
        for round in 0..200 {
            let at = floor + rng() % (100 * TICK * (1 + round % 7));
            let seq = w.insert(at, task(round));
            pending.push((at, seq));
            if round % 3 == 0 {
                let e = w.pop_earliest().unwrap();
                floor = e.at; // virtual time advances to the pop
                popped.push((e.at, e.seq));
                let i = pending.iter().position(|&p| p == (e.at, e.seq)).unwrap();
                pending.swap_remove(i);
            }
        }
        popped.extend(drain(&mut w));
        let mut sorted = popped.clone();
        sorted.sort();
        assert_eq!(popped, sorted, "global (at, seq) order");
    }
}
