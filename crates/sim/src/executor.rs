//! The deterministic single-threaded executor driving virtual time.
//!
//! Design (hot-path overhaul of the original async-book-style executor):
//!
//! * **Task slab** — tasks live in a generation-indexed free-list `Vec`
//!   slab instead of a `HashMap`. A [`TaskId`] packs `(slot, generation)`;
//!   freeing a slot bumps its generation, so a stale id (a timer or waker
//!   outliving its task) can never reach a recycled task.
//! * **Ready queue** — wakes dedup through a per-slot generation tag
//!   (`gen + 1`, 0 = not queued) instead of a `HashSet`: O(1) array reads,
//!   no hashing, and stale-generation wakes are dropped at the door (they
//!   were provable no-ops in the old executor too).
//! * **Timers** — a hierarchical timer wheel ([`crate::wheel`]) stores
//!   `(deadline, seq, target)` records, where the target is a task id or
//!   an event id. The old binary heap cloned a `Waker` (an `Arc` bump +
//!   16 bytes) per armed timer; the wheel wakes tasks by id. Each task's
//!   `Waker` is built once at spawn and lent to every poll, and a freed
//!   slot keeps it for its next task: a spawn on a recycled slot reuses
//!   the waker unless a clone of it outlived the previous task, so it
//!   costs the future's box and nothing else.
//! * **Events** — [`SimHandle::schedule_at`] hands a token to an
//!   [`EventSink`] at a virtual instant: no boxed future or callback, no
//!   waker, no slab slot, no poll, no allocation. It replaces the
//!   `spawn(async { sleep_until(at).await; f() })` task (the simulator's
//!   packet deliveries, whose sink owns the packets in flight) step for
//!   step. The event takes
//!   the task's place in the ready queue to *arm* its wheel entry, so the
//!   entry gets the `(deadline, seq)` the task's first poll would have
//!   registered. When the wheel pops it, it *fires* at once: the wheel only
//!   pops with the ready queue empty, so the woken task's second poll
//!   would have run next too. The schedule is the task form's, tick for
//!   tick.
//! * **Lock split** — only the waker-reachable [`WakeQueue`] stays behind
//!   `Arc<std::sync::Mutex>` (the `Waker` contract demands `Send + Sync`).
//!   The clock, RNG, slab, events and wheel live in a driving-thread-only
//!   `Rc<RefCell<ExecCore>>`, so `now()`/`with_rng`/timer arming stop
//!   paying lock + `Arc` traffic; the free functions borrow the
//!   thread-local handle instead of cloning it.
//! * **Arena reuse** — [`Sim::reset`] returns a simulation to its freshly
//!   seeded state while keeping every allocation (slab, wheel slots, ready
//!   queue); [`SimPool`]/[`pooled`] recycle whole `Sim`s per worker thread
//!   so a measurement campaign stops paying a full allocation storm per
//!   run.
//!
//! The observable schedule is bit-identical to the original executor:
//! ready tasks run in FIFO wake order, timers fire in strict
//! `(deadline, registration-seq)` order, and one timer fires per clock
//! advance before the ready queue drains again. The workspace's golden
//! report hashes (`tests/golden_pin.rs`) pin this equivalence.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::time::SimTime;
use crate::wheel::TimerWheel;

/// Identifier of a spawned task, unique within one [`Sim`] *lifetime*:
/// the low 32 bits index the task slab, the high 32 bits carry the slot's
/// generation (bumped whenever a slot is freed), so recycled slots never
/// alias old ids.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(u64);

impl TaskId {
    pub(crate) fn pack(slot: u32, generation: u32) -> TaskId {
        TaskId((u64::from(generation) << 32) | u64::from(slot))
    }

    fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl std::fmt::Debug for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TaskId({}v{})", self.slot(), self.generation())
    }
}

type BoxFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

// ---------------------------------------------------------------------------
// Scheduler metrics (lazyeye-obs registry)
// ---------------------------------------------------------------------------

/// The scheduler's registry handles. Poll/timer/task counters live in the
/// virtual clock domain (their totals are functions of the simulated
/// workload alone); slot and sim lifecycle counters live in the wall
/// domain because arena/pool reuse depends on the worker count.
struct SimMetrics {
    polls: &'static lazyeye_obs::Counter,
    timers_fired: &'static lazyeye_obs::Counter,
    timers_armed: &'static lazyeye_obs::Counter,
    tasks_spawned: &'static lazyeye_obs::Counter,
    events_scheduled: &'static lazyeye_obs::Counter,
    slots_allocated: &'static lazyeye_obs::Counter,
    slots_reused: &'static lazyeye_obs::Counter,
    sims_created: &'static lazyeye_obs::Counter,
    sims_reset: &'static lazyeye_obs::Counter,
    /// Final virtual time of each completed run, in simulated µs.
    run_virtual_us: &'static lazyeye_obs::Histogram,
}

fn metrics() -> &'static SimMetrics {
    use lazyeye_obs::Clock::{Virtual, Wall};
    static METRICS: std::sync::OnceLock<SimMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| SimMetrics {
        polls: lazyeye_obs::counter("sim.polls", Virtual),
        timers_fired: lazyeye_obs::counter("sim.timers_fired", Virtual),
        timers_armed: lazyeye_obs::counter("sim.timers_armed", Virtual),
        tasks_spawned: lazyeye_obs::counter("sim.tasks_spawned", Virtual),
        events_scheduled: lazyeye_obs::counter("sim.events_scheduled", Virtual),
        slots_allocated: lazyeye_obs::counter("sim.slots_allocated", Wall),
        slots_reused: lazyeye_obs::counter("sim.slots_reused", Wall),
        sims_created: lazyeye_obs::counter("sim.sims_created", Wall),
        sims_reset: lazyeye_obs::counter("sim.sims_reset", Wall),
        run_virtual_us: lazyeye_obs::histogram("sim.run_virtual_us", Virtual),
    })
}

/// Per-run trace budget: at most this many instant events (timer fires,
/// task spawns, event schedules) are recorded on a sampled run's virtual track.
const RUN_TRACE_EVENT_CAP: u32 = 512;

// ---------------------------------------------------------------------------
// Waker-reachable side: the wake queue
// ---------------------------------------------------------------------------

/// What a ready-queue step or a wheel entry names: a task to poll, or a
/// scheduled event (queued to arm its wheel entry, popped to fire).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Target {
    Task(TaskId),
    Event(u32),
}

/// The only scheduler state wakers can reach. Everything else lives in
/// [`ExecCore`] behind a driving-thread-only `RefCell`.
struct WakeQueue {
    ready: std::collections::VecDeque<Target>,
    /// Per-slot dedup tag: `generation + 1` of the queued id, 0 = none.
    /// The tag only ratchets upward, so a stale (older-generation) wake
    /// arriving while a newer task occupies the slot is dropped — it was
    /// a no-op in the old executor too (popped, looked up, skipped).
    queued: Vec<u64>,
}

impl WakeQueue {
    fn enqueue(&mut self, id: TaskId) {
        let slot = id.slot();
        if self.queued.len() <= slot {
            self.queued.resize(slot + 1, 0);
        }
        let tag = u64::from(id.generation()) + 1;
        if self.queued[slot] >= tag {
            // Already queued (==), or a newer generation holds the slot
            // (>): either way this wake cannot change the schedule.
            return;
        }
        self.queued[slot] = tag;
        self.ready.push_back(Target::Task(id));
    }

    /// Queues an event's arm step. An event is queued once, when it is
    /// scheduled, so it needs no dedup.
    fn enqueue_event(&mut self, event: u32) {
        self.ready.push_back(Target::Event(event));
    }

    fn pop(&mut self) -> Option<Target> {
        let target = self.ready.pop_front()?;
        if let Target::Task(id) = target {
            let slot = id.slot();
            if self.queued[slot] == u64::from(id.generation()) + 1 {
                self.queued[slot] = 0;
            }
        }
        Some(target)
    }

    fn clear(&mut self) {
        self.ready.clear();
        self.queued.iter_mut().for_each(|q| *q = 0);
    }
}

type SharedWake = Arc<Mutex<WakeQueue>>;

/// Locks the wake queue. No foreign code runs under this lock, so it can
/// only be poisoned by a bug inside [`WakeQueue`] itself.
fn lock(wake: &Mutex<WakeQueue>) -> MutexGuard<'_, WakeQueue> {
    wake.lock()
        .expect("wake queue poisoned by a panic inside WakeQueue")
}

/// Waker implementation: waking re-queues the task on its wake queue. One
/// of these belongs to each slab slot and serves its tasks in turn (see
/// [`Slab::alloc`]); timers don't touch it at all (the wheel stores bare
/// [`TaskId`]s). It doubles as the task's abort flag so a spawn costs one
/// shared allocation, not two, and none on a recycled slot.
struct TaskWaker {
    /// The packed [`TaskId`] of the task this waker currently serves.
    id: AtomicU64,
    wake: Weak<Mutex<WakeQueue>>,
    abort: AtomicBool,
}

impl TaskWaker {
    fn id(&self) -> TaskId {
        TaskId(self.id.load(Ordering::Relaxed))
    }

    /// Sets the abort flag and schedules the task so the executor drops
    /// its future promptly.
    fn abort(&self) {
        self.abort.store(true, Ordering::Relaxed);
        if let Some(wake) = self.wake.upgrade() {
            lock(&wake).enqueue(self.id());
        }
    }
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        if let Some(wake) = self.wake.upgrade() {
            lock(&wake).enqueue(self.id());
        }
    }
}

// ---------------------------------------------------------------------------
// Driving-thread side: slab + core
// ---------------------------------------------------------------------------

struct TaskEntry {
    fut: BoxFuture,
    /// The slot's waker, lent to this task.
    waker: SlotWaker,
}

/// A slot's waker state: the shared [`TaskWaker`] (id + wake queue +
/// abort flag) and the same `Arc` as a `Waker`, built once and lent to
/// every poll; primitives that park a task clone it (an `Arc` bump).
struct SlotWaker {
    tw: Arc<TaskWaker>,
    waker: Waker,
}

impl SlotWaker {
    fn new(id: TaskId, wake: &SharedWake) -> SlotWaker {
        let tw = Arc::new(TaskWaker {
            id: AtomicU64::new(id.0),
            wake: Arc::downgrade(wake),
            abort: AtomicBool::new(false),
        });
        let waker = Waker::from(Arc::clone(&tw));
        SlotWaker { tw, waker }
    }

    /// Hands the waker to the slot's next task, or `None` when a clone
    /// escaped its last one (a parked `Waker` or a `JoinHandle` still
    /// alive): that clone must keep naming the old, now stale, id. With
    /// only the slot's own two references left nobody can observe the
    /// switch.
    fn recycle(self, id: TaskId) -> Option<SlotWaker> {
        if Arc::strong_count(&self.tw) != 2 {
            return None;
        }
        self.tw.id.store(id.0, Ordering::Relaxed);
        self.tw.abort.store(false, Ordering::Relaxed);
        Some(self)
    }
}

enum SlotState {
    /// Free; keeps the last task's waker for the next one.
    Vacant(Option<SlotWaker>),
    /// The entry is out being polled; the slot keeps its generation so
    /// re-entrant wakes still target a live task.
    Polling,
    Occupied(TaskEntry),
}

struct Slot {
    generation: u32,
    state: SlotState,
}

/// Generation-indexed free-list slab of live tasks.
struct Slab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Reserves a slot for `fut`, reusing the slot's waker when it can
    /// (see [`SlotWaker::recycle`]). Returns the new id, the task's
    /// waker state and whether the slot was recycled.
    fn alloc(&mut self, fut: BoxFuture, wake: &SharedWake) -> (TaskId, Arc<TaskWaker>, bool) {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let entry = &mut self.slots[slot as usize];
            let id = TaskId::pack(slot, entry.generation);
            let spare = match std::mem::replace(&mut entry.state, SlotState::Polling) {
                SlotState::Vacant(spare) => spare,
                _ => unreachable!("free-listed slots are vacant"),
            };
            let waker = spare
                .and_then(|w| w.recycle(id))
                .unwrap_or_else(|| SlotWaker::new(id, wake));
            let tw = Arc::clone(&waker.tw);
            entry.state = SlotState::Occupied(TaskEntry { fut, waker });
            (id, tw, true)
        } else {
            let slot = u32::try_from(self.slots.len()).expect("task slab exceeds u32 slots");
            let id = TaskId::pack(slot, 0);
            let waker = SlotWaker::new(id, wake);
            let tw = Arc::clone(&waker.tw);
            self.slots.push(Slot {
                generation: 0,
                state: SlotState::Occupied(TaskEntry { fut, waker }),
            });
            (id, tw, false)
        }
    }

    /// Whether `id` names a live (not freed, not recycled) task.
    fn is_live(&self, id: TaskId) -> bool {
        self.slots.get(id.slot()).is_some_and(|s| {
            s.generation == id.generation()
                && matches!(s.state, SlotState::Occupied(_) | SlotState::Polling)
        })
    }

    /// Takes the entry out for polling (slot parks in `Polling`), or
    /// `None` when the id is stale or the slot vacant.
    fn begin_poll(&mut self, id: TaskId) -> Option<TaskEntry> {
        let slot = self.slots.get_mut(id.slot())?;
        if slot.generation != id.generation() || !matches!(slot.state, SlotState::Occupied(_)) {
            return None;
        }
        match std::mem::replace(&mut slot.state, SlotState::Polling) {
            SlotState::Occupied(entry) => Some(entry),
            _ => unreachable!("checked occupied above"),
        }
    }

    /// Returns a still-pending entry after its poll.
    fn end_poll_pending(&mut self, id: TaskId, entry: TaskEntry) {
        let slot = &mut self.slots[id.slot()];
        debug_assert!(matches!(slot.state, SlotState::Polling));
        slot.state = SlotState::Occupied(entry);
    }

    /// Frees the slot of a finished/aborted task: generation bump + free
    /// list push, so stale timers and wakers can never reach a successor.
    /// The slot keeps the task's waker; the future goes back to the
    /// caller, to be dropped outside the core borrow.
    fn free_after_poll(&mut self, id: TaskId, entry: TaskEntry) -> BoxFuture {
        let slot = &mut self.slots[id.slot()];
        debug_assert!(matches!(slot.state, SlotState::Polling));
        slot.state = SlotState::Vacant(Some(entry.waker));
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.slot() as u32);
        self.live -= 1;
        entry.fut
    }

    fn live_count(&self) -> usize {
        self.live
    }

    /// Pulls every live future out (freeing its slot, which keeps the
    /// waker), for cancellation drops during [`Sim::reset`]. Keeps all
    /// allocations.
    fn drain_entries(&mut self) -> Vec<BoxFuture> {
        let mut out = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if matches!(slot.state, SlotState::Occupied(_)) {
                let SlotState::Occupied(entry) =
                    std::mem::replace(&mut slot.state, SlotState::Vacant(None))
                else {
                    unreachable!()
                };
                slot.state = SlotState::Vacant(Some(entry.waker));
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(i as u32);
                out.push(entry.fut);
            }
        }
        self.live -= out.len();
        out
    }
}

/// The receiver of events scheduled with [`SimHandle::schedule_at`]:
/// the event's payload lives with the sink, named by a token the sink
/// chose, so scheduling one allocates nothing (a packet delivery's sink
/// is the network, and its token a slot of the network's in-flight
/// packets).
pub trait EventSink {
    /// Runs the event `token` at its instant. It runs outside any task,
    /// so it may spawn, schedule and wake, but not arm timers itself.
    fn fire(self: Rc<Self>, token: usize);

    /// Drops the pending event `token` without running it: a
    /// [`Sim::reset`] cancels what the finished run left scheduled.
    fn cancel(self: Rc<Self>, token: usize);
}

/// An event scheduled with [`SimHandle::schedule_at`].
struct Event {
    at: SimTime,
    sink: Rc<dyn EventSink>,
    token: usize,
}

/// Free-list store of pending events, indexed by [`Target::Event`] ids.
/// An id is named by exactly one queued arm step or wheel entry at a
/// time and retired by its fire, so ids need no generation.
#[derive(Default)]
struct Events {
    slots: Vec<Option<Event>>,
    free: Vec<u32>,
}

impl Events {
    fn insert(&mut self, event: Event) -> u32 {
        if let Some(id) = self.free.pop() {
            self.slots[id as usize] = Some(event);
            id
        } else {
            let id = u32::try_from(self.slots.len()).expect("event store exceeds u32 slots");
            self.slots.push(Some(event));
            id
        }
    }

    fn at(&self, id: u32) -> SimTime {
        self.slots[id as usize]
            .as_ref()
            .expect("a queued arm step names a pending event")
            .at
    }

    fn take(&mut self, id: u32) -> Event {
        self.free.push(id);
        self.slots[id as usize]
            .take()
            .expect("a wheel entry names a pending event")
    }

    /// Pulls every pending event out, for cancellation during
    /// [`Sim::reset`]. Keeps all allocations.
    fn drain(&mut self) -> Vec<Event> {
        let mut out = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(event) = slot.take() {
                self.free.push(i as u32);
                out.push(event);
            }
        }
        out
    }
}

/// The driving-thread scheduler core: clock, RNG, timers, tasks, events,
/// counters. Wakers never touch this, so it needs no lock.
pub(crate) struct ExecCore {
    now: SimTime,
    timers: TimerWheel,
    slab: Slab,
    events: Events,
    /// The task currently being polled (timer registration target).
    current_task: Option<TaskId>,
    pub(crate) rng: SmallRng,
    /// Counters exposed for benchmarking and diagnostics (flushed to the
    /// `sim.*` registry counters on reset/drop).
    polls: u64,
    timers_fired: u64,
    timers_armed: u64,
    tasks_spawned: u64,
    events_scheduled: u64,
    slots_allocated: u64,
    slots_reused: u64,
    /// Virtual-time timeline track claimed for this run when `--timeline`
    /// sampling is on; `None` otherwise.
    trace_track: Option<u32>,
    /// Remaining per-run budget of instant trace events.
    trace_events_left: u32,
}

impl ExecCore {
    /// Adds this sim's tallies to the registry counters and zeroes them.
    /// A run that actually polled something also records its final
    /// virtual time and closes its sampled timeline track (if any).
    fn flush_stats(&mut self) {
        let m = metrics();
        m.polls.add(self.polls);
        m.timers_fired.add(self.timers_fired);
        m.timers_armed.add(self.timers_armed);
        m.tasks_spawned.add(self.tasks_spawned);
        m.events_scheduled.add(self.events_scheduled);
        m.slots_allocated.add(self.slots_allocated);
        m.slots_reused.add(self.slots_reused);
        if self.polls > 0 {
            let virtual_us = self.now.as_nanos() / 1_000;
            m.run_virtual_us.record(virtual_us);
            lazyeye_obs::recorder::record(lazyeye_obs::Clock::Virtual, "sim.run", || {
                format!("virtual_us={virtual_us}")
            });
        }
        if let Some(track) = self.trace_track.take() {
            if self.polls > 0 {
                lazyeye_obs::trace::virtual_span(track, "sim.run", 0, self.now.as_nanos() / 1_000);
            }
        }
        self.polls = 0;
        self.timers_fired = 0;
        self.timers_armed = 0;
        self.tasks_spawned = 0;
        self.events_scheduled = 0;
        self.slots_allocated = 0;
        self.slots_reused = 0;
    }

    /// Records an instant event on this run's sampled virtual track,
    /// within the per-run budget.
    fn trace_instant(&mut self, name: &'static str) {
        if let Some(track) = self.trace_track {
            if self.trace_events_left > 0 {
                self.trace_events_left -= 1;
                lazyeye_obs::trace::virtual_event(track, name, self.now.as_nanos() / 1_000);
            }
        }
    }
}

/// Handle that free functions ([`crate::spawn`], [`crate::sleep`], ...) use
/// to reach the currently running simulation. Install with
/// [`Sim::block_on`]/[`Sim::run`], or explicitly via [`Sim::enter`].
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) core: Rc<RefCell<ExecCore>>,
    wake: SharedWake,
}

thread_local! {
    static CURRENT: RefCell<Vec<SimHandle>> = const { RefCell::new(Vec::new()) };
}

/// Returns the handle of the simulation currently driving this thread.
///
/// # Panics
/// Panics when called outside of a running simulation (i.e. not from within
/// a task and not inside [`Sim::enter`]).
pub fn current() -> SimHandle {
    with_current(SimHandle::clone)
}

/// Runs `f` on a borrow of the current simulation's handle: the hot-path
/// form of [`current`], without its `Rc` and `Arc` clone. `f` must not
/// enter or leave a simulation context.
///
/// # Panics
/// Panics when called outside of a running simulation.
pub(crate) fn with_current<T>(f: impl FnOnce(&SimHandle) -> T) -> T {
    CURRENT.with(|c| {
        let stack = c.borrow();
        let handle = stack
            .last()
            .expect("not inside a Sim context: call from within Sim::run/block_on or Sim::enter");
        f(handle)
    })
}

/// Returns `true` if a simulation context is installed on this thread.
pub fn has_current() -> bool {
    CURRENT.with(|c| !c.borrow().is_empty())
}

struct EnterGuard;

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

fn enter(handle: SimHandle) -> EnterGuard {
    CURRENT.with(|c| c.borrow_mut().push(handle));
    EnterGuard
}

/// Why a call to [`Sim::run`]/[`Sim::run_until`] returned.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// No task is ready and no timer is pending. `pending_tasks` tasks are
    /// still alive but blocked on events that will never arrive (or on
    /// wakers owned by dropped objects).
    Quiescent {
        /// Number of live, blocked tasks at quiescence.
        pending_tasks: usize,
    },
    /// The requested deadline was reached with work still pending.
    DeadlineReached,
    /// A stop condition supplied by the caller (e.g. [`Sim::block_on`]'s
    /// root future finishing) became true.
    Interrupted,
}

/// A deterministic virtual-time simulation: executor + clock + RNG.
///
/// ```
/// use lazyeye_sim::{Sim, sleep, now};
/// use std::time::Duration;
///
/// let mut sim = Sim::new(7);
/// let out = sim.block_on(async {
///     sleep(Duration::from_millis(250)).await;
///     now()
/// });
/// assert_eq!(out.as_millis(), 250);
/// ```
pub struct Sim {
    handle: SimHandle,
    /// When set, dropping the `Sim` returns its arenas to this pool.
    pool: Option<Rc<PoolInner>>,
}

impl Sim {
    /// Creates a simulation whose RNG is seeded with `seed`. Two `Sim`s with
    /// the same seed and the same program produce bit-identical schedules.
    pub fn new(seed: u64) -> Self {
        metrics().sims_created.inc();
        let core = Rc::new(RefCell::new(ExecCore {
            now: SimTime::ZERO,
            timers: TimerWheel::new(),
            slab: Slab::new(),
            events: Events::default(),
            current_task: None,
            rng: SmallRng::seed_from_u64(seed),
            polls: 0,
            timers_fired: 0,
            timers_armed: 0,
            tasks_spawned: 0,
            events_scheduled: 0,
            slots_allocated: 0,
            slots_reused: 0,
            trace_track: lazyeye_obs::trace::claim_virtual_track(),
            trace_events_left: RUN_TRACE_EVENT_CAP,
        }));
        let wake = Arc::new(Mutex::new(WakeQueue {
            ready: std::collections::VecDeque::new(),
            queued: Vec::new(),
        }));
        Sim {
            handle: SimHandle { core, wake },
            pool: None,
        }
    }

    /// Returns the simulation to its initial state — fresh clock, RNG
    /// reseeded with `seed`, no tasks, no timers — while keeping every
    /// allocation (task slab, wheel slots, queues) for the next run. A
    /// reset `Sim` is observably indistinguishable from `Sim::new(seed)`;
    /// the per-sim counters flush into the registry first.
    ///
    /// Live tasks are cancelled by dropping their futures, and pending
    /// events through [`EventSink::cancel`] (inside the sim context, so
    /// graceful-close drop paths still work); anything those drops spawn,
    /// schedule or wake is discarded with them.
    pub fn reset(&mut self, seed: u64) {
        metrics().sims_reset.inc();
        {
            // Drops may re-entrantly spawn/schedule/wake; iterate until
            // quiet.
            let _g = enter(self.handle.clone());
            loop {
                let (futures, events) = {
                    let mut core = self.handle.core.borrow_mut();
                    (core.slab.drain_entries(), core.events.drain())
                };
                if futures.is_empty() && events.is_empty() {
                    break;
                }
                drop(futures);
                for event in events {
                    event.sink.cancel(event.token);
                }
            }
        }
        let mut core = self.handle.core.borrow_mut();
        core.flush_stats();
        core.now = SimTime::ZERO;
        core.timers.clear();
        core.current_task = None;
        core.rng = SmallRng::seed_from_u64(seed);
        core.trace_track = lazyeye_obs::trace::claim_virtual_track();
        core.trace_events_left = RUN_TRACE_EVENT_CAP;
        drop(core);
        lock(&self.handle.wake).clear();
    }

    /// The handle used by spawned tasks; also usable directly.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Installs this simulation as the thread's current context for the
    /// duration of `f`, without running the executor. Useful to build
    /// simulation objects (hosts, sockets) that need [`current`].
    pub fn enter<T>(&self, f: impl FnOnce() -> T) -> T {
        let _g = enter(self.handle.clone());
        f()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.handle.core.borrow().now
    }

    /// Spawns a task onto the simulation. See [`crate::spawn`].
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.handle.spawn(fut)
    }

    /// Runs until quiescence (no ready task, no pending timer).
    pub fn run(&mut self) -> RunOutcome {
        self.run_inner(SimTime::MAX, None)
    }

    /// Runs until quiescence or until the clock reaches `deadline`,
    /// whichever comes first. The clock is advanced to `deadline` when the
    /// outcome is [`RunOutcome::DeadlineReached`]... it is *not* advanced
    /// past the last event on quiescence.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.run_inner(deadline, None)
    }

    /// Runs for `d` of virtual time from the current instant.
    pub fn run_for(&mut self, d: Duration) -> RunOutcome {
        let deadline = self.now() + d;
        self.run_until(deadline)
    }

    /// Spawns `fut`, runs the simulation until it completes, and returns its
    /// output.
    ///
    /// # Panics
    /// Panics if the simulation goes quiescent before `fut` finishes —
    /// that is a deadlock in simulated code and always a bug worth loud
    /// failure in a testbed.
    pub fn block_on<F>(&mut self, fut: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let handle = self.spawn(fut);
        // Stop the instant the root future finishes so that stale timers
        // held by cancelled futures (race losers, expired timeouts) do not
        // drag the clock forward.
        let outcome = self.run_inner(SimTime::MAX, Some(&|| handle.is_finished()));
        if let Some(result) = handle.try_take() {
            return result.expect("block_on future aborted");
        }
        match outcome {
            RunOutcome::Quiescent { pending_tasks } => panic!(
                "Sim::block_on deadlocked at t={} with {} pending task(s)",
                self.now(),
                pending_tasks
            ),
            _ => unreachable!("block_on stops only on completion or quiescence"),
        }
    }

    /// Number of `Future::poll` calls performed since creation or the last
    /// [`Sim::reset`] (diagnostics).
    pub fn poll_count(&self) -> u64 {
        self.handle.core.borrow().polls
    }

    /// Number of timers fired since creation or the last [`Sim::reset`]
    /// (diagnostics).
    pub fn timers_fired(&self) -> u64 {
        self.handle.core.borrow().timers_fired
    }

    fn run_inner(&mut self, deadline: SimTime, stop_when: Option<&dyn Fn() -> bool>) -> RunOutcome {
        let _g = enter(self.handle.clone());
        if let Some(stop) = stop_when {
            if stop() {
                return RunOutcome::Interrupted;
            }
        }
        loop {
            // Drain every task and event step that is ready at the
            // current instant.
            loop {
                let next = lock(&self.handle.wake).pop();
                let Some(target) = next else { break };
                match target {
                    Target::Task(id) => self.poll_task(id),
                    Target::Event(event) => self.arm_event(event),
                }
                if let Some(stop) = stop_when {
                    if stop() {
                        return RunOutcome::Interrupted;
                    }
                }
            }

            // Nothing ready: advance the clock to the next timer (a
            // single wheel scan pops or reports why it cannot).
            let mut core = self.handle.core.borrow_mut();
            match core.timers.pop_earliest_before(deadline.as_nanos()) {
                crate::wheel::PopOutcome::Fired(entry) => {
                    let at = SimTime::from_nanos(entry.at);
                    debug_assert!(at >= core.now, "timer scheduled in the past");
                    core.now = core.now.max(at);
                    core.timers_fired += 1;
                    core.trace_instant("timer.fire");
                    match entry.target {
                        Target::Task(id) => {
                            // A stale id (its task finished) is dropped
                            // here — the old executor enqueued the dead id
                            // and skipped it at poll time, which was
                            // observably identical.
                            let alive = core.slab.is_live(id);
                            drop(core);
                            if alive {
                                lock(&self.handle.wake).enqueue(id);
                            }
                        }
                        Target::Event(event) => {
                            let Event { sink, token, .. } = core.events.take(event);
                            drop(core);
                            // Outside the core borrow: the sink spawns,
                            // schedules and wakes freely.
                            sink.fire(token);
                        }
                    }
                }
                crate::wheel::PopOutcome::Beyond => {
                    // Earliest timer is beyond the deadline.
                    core.now = core.now.max(deadline);
                    return RunOutcome::DeadlineReached;
                }
                crate::wheel::PopOutcome::Empty => {
                    return RunOutcome::Quiescent {
                        pending_tasks: core.slab.live_count(),
                    };
                }
            }
        }
    }

    fn poll_task(&self, id: TaskId) {
        // Take the task out of the slab while polling so re-entrant
        // spawn()/wake()/now() can borrow the core freely.
        let mut core = self.handle.core.borrow_mut();
        let Some(mut entry) = core.slab.begin_poll(id) else {
            return; // stale id or vacant slot
        };
        if entry.waker.tw.abort.load(Ordering::Relaxed) {
            let fut = core.slab.free_after_poll(id, entry);
            drop(core);
            // Dropping the future cancels everything it owns.
            drop(fut);
            return;
        }
        core.polls += 1;
        core.current_task = Some(id);
        drop(core);
        let poll = {
            let mut cx = Context::from_waker(&entry.waker.waker);
            entry.fut.as_mut().poll(&mut cx)
        };
        let mut core = self.handle.core.borrow_mut();
        core.current_task = None;
        if poll.is_pending() {
            core.slab.end_poll_pending(id, entry);
        } else {
            let fut = core.slab.free_after_poll(id, entry);
            drop(core);
            // Drop the finished future outside the core borrow: its drop
            // may spawn or wake re-entrantly.
            drop(fut);
        }
    }

    /// An event's arm step: registers its wheel entry, taking the
    /// `(deadline, seq)` place the replaced task's first poll (`Sleep`
    /// registering) took.
    fn arm_event(&self, id: u32) {
        let mut core = self.handle.core.borrow_mut();
        let at = core.events.at(id).max(core.now);
        core.timers_armed += 1;
        core.timers.insert(at.as_nanos(), Target::Event(id));
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Flush per-sim counters even for never-reset sims, then hand the
        // arenas back to the pool (if any) for the next acquire.
        self.handle.core.borrow_mut().flush_stats();
        if let Some(pool) = self.pool.take() {
            pool.idle.borrow_mut().push(self.handle.clone());
        }
    }
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// Spawns a future as a new task; see [`crate::spawn`].
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(JoinState {
            finished: std::cell::Cell::new(false),
            inner: RefCell::new(JoinInner {
                result: None,
                waker: None,
            }),
        });
        let state2 = Rc::clone(&state);
        let wrapped: BoxFuture = Box::pin(async move {
            let out = fut.await;
            let mut st = state2.inner.borrow_mut();
            st.result = Some(out);
            state2.finished.set(true);
            if let Some(w) = st.waker.take() {
                w.wake();
            }
        });
        let tw = self.insert_task(wrapped);
        JoinHandle { state, tw }
    }

    /// Spawns a fire-and-forget task: no [`JoinHandle`], no result
    /// storage, no wrapper future — just the boxed future and its pooled
    /// waker. The cheap path for the simulator's own plumbing tasks
    /// (server loops), which are never awaited. A callback that only
    /// waits for an instant is cheaper still as [`SimHandle::schedule_at`].
    pub fn spawn_detached<F>(&self, fut: F)
    where
        F: Future<Output = ()> + 'static,
    {
        self.insert_task(Box::pin(fut));
    }

    /// Slab-inserts a boxed task and enqueues its first poll, returning
    /// the task's pooled waker.
    fn insert_task(&self, fut: BoxFuture) -> Arc<TaskWaker> {
        let mut core = self.core.borrow_mut();
        let (id, tw, reused) = core.slab.alloc(fut, &self.wake);
        core.tasks_spawned += 1;
        core.trace_instant("task.spawn");
        if reused {
            core.slots_reused += 1;
        } else {
            core.slots_allocated += 1;
        }
        drop(core);
        // Immediately runnable.
        lock(&self.wake).enqueue(id);
        tw
    }

    /// Schedules `sink.fire(token)` at virtual instant `at` (clamped to
    /// the instant its arm step runs). The cheap path for the simulator's
    /// packet deliveries: it costs one wheel entry, no task and no
    /// allocation, and runs in exactly the order
    /// `spawn_detached(async { sleep_until(at).await; fire() })` would —
    /// see the module docs.
    pub fn schedule_at(&self, at: SimTime, sink: Rc<dyn EventSink>, token: usize) {
        let mut core = self.core.borrow_mut();
        let id = core.events.insert(Event { at, sink, token });
        core.events_scheduled += 1;
        core.trace_instant("event.schedule");
        drop(core);
        lock(&self.wake).enqueue_event(id);
    }

    /// Registers a timer waking the *currently polled task* at instant
    /// `at`. Returns a monotonically increasing sequence number (timers at
    /// the same instant fire in registration order).
    ///
    /// # Panics
    /// Panics when no task is being polled: timer futures ([`crate::Sleep`],
    /// [`crate::Timeout`]) only ever run inside a task, which is what lets
    /// the wheel store bare task ids instead of a cloned waker per timer.
    pub(crate) fn register_timer(&self, at: SimTime) -> u64 {
        let mut core = self.core.borrow_mut();
        let task = core
            .current_task
            .expect("timers can only be armed from within a polled task");
        let at = at.max(core.now);
        core.timers_armed += 1;
        core.timers.insert(at.as_nanos(), Target::Task(task))
    }
}

// ---------------------------------------------------------------------------
// Sim pooling
// ---------------------------------------------------------------------------

struct PoolInner {
    idle: RefCell<Vec<SimHandle>>,
}

/// A per-thread arena pool of [`Sim`]s: [`SimPool::acquire`] hands out a
/// reset simulation, and dropping the `Sim` returns its arenas (task
/// slab, timer wheel, queues, RNG state cell) to the pool instead of
/// freeing them. One pool per worker thread means a measurement campaign
/// allocates one simulation per *worker* instead of one per *run*.
///
/// Pooled sims must not have [`SimHandle`]s outliving the `Sim` value —
/// the next acquire would alias them. The testbed topologies satisfy this
/// by dropping the whole topology (hosts, sockets, sim) together.
pub struct SimPool {
    inner: Rc<PoolInner>,
}

impl Default for SimPool {
    fn default() -> Self {
        Self::new()
    }
}

impl SimPool {
    /// Creates an empty pool.
    pub fn new() -> SimPool {
        SimPool {
            inner: Rc::new(PoolInner {
                idle: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Acquires a simulation seeded with `seed`: a recycled arena when one
    /// is idle (reset first), a fresh `Sim` otherwise. Observably
    /// identical to `Sim::new(seed)` either way.
    pub fn acquire(&self, seed: u64) -> Sim {
        let recycled = self.inner.idle.borrow_mut().pop();
        match recycled {
            Some(handle) => {
                let mut sim = Sim { handle, pool: None };
                sim.reset(seed);
                sim.pool = Some(Rc::clone(&self.inner));
                sim
            }
            None => {
                let mut sim = Sim::new(seed);
                sim.pool = Some(Rc::clone(&self.inner));
                sim
            }
        }
    }

    /// Number of idle simulations currently held.
    pub fn idle(&self) -> usize {
        self.inner.idle.borrow().len()
    }
}

thread_local! {
    static THREAD_POOL: SimPool = SimPool::new();
}

/// Acquires a simulation from the calling thread's [`SimPool`] — the
/// arena-reuse entry point the testbed topologies use so campaign and
/// fleet workers recycle one simulation per worker thread instead of
/// allocating a fresh one per run.
pub fn pooled(seed: u64) -> Sim {
    THREAD_POOL.with(|p| p.acquire(seed))
}

// ---------------------------------------------------------------------------
// Join handles
// ---------------------------------------------------------------------------

struct JoinInner<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

/// Join state is driving-thread-only (the executor is single-threaded and
/// handles never cross threads), so it needs no lock at all.
struct JoinState<T> {
    /// Completion flag outside the `RefCell`: [`Sim::block_on`] checks it
    /// after every poll, which must not cost a borrow.
    finished: std::cell::Cell<bool>,
    inner: RefCell<JoinInner<T>>,
}

/// Error returned when awaiting a [`JoinHandle`] whose task was aborted.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Aborted;

impl std::fmt::Display for Aborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task was aborted")
    }
}
impl std::error::Error for Aborted {}

/// Owned handle to a spawned task: await it for the task's output, or
/// [`JoinHandle::abort`] it to cancel. Dropping the handle detaches the task
/// (it keeps running).
pub struct JoinHandle<T> {
    state: Rc<JoinState<T>>,
    /// The task's pooled waker: carries the id, the wake queue and the
    /// abort flag, so aborting needs no thread-local lookup.
    tw: Arc<TaskWaker>,
}

impl<T> JoinHandle<T> {
    /// The task's id (diagnostics).
    pub fn id(&self) -> TaskId {
        self.tw.id()
    }

    /// Requests cancellation: the task's future is dropped before its next
    /// poll, which cancels any I/O it owns. Awaiting the handle afterwards
    /// yields `Err(Aborted)` unless the task already finished.
    pub fn abort(&self) {
        self.tw.abort();
    }

    /// `true` once the task has produced its output (not aborted).
    pub fn is_finished(&self) -> bool {
        self.state.finished.get()
    }

    /// Takes the output if the task has finished; `Err(Aborted)` if it was
    /// aborted before finishing; `None`-like (inner `Option`) semantics are
    /// folded into `Option<Result<..>>`: `None` means still running.
    pub fn try_take(&self) -> Option<Result<T, Aborted>> {
        let mut st = self.state.inner.borrow_mut();
        if let Some(v) = st.result.take() {
            return Some(Ok(v));
        }
        if self.tw.abort.load(Ordering::Relaxed) && !self.is_finished() {
            return Some(Err(Aborted));
        }
        None
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = Result<T, Aborted>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.state.inner.borrow_mut();
        if let Some(v) = st.result.take() {
            return Poll::Ready(Ok(v));
        }
        if self.tw.abort.load(Ordering::Relaxed) && !self.state.finished.get() {
            return Poll::Ready(Err(Aborted));
        }
        st.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Spawns a future onto the current simulation. Must be called from inside a
/// task or a [`Sim::enter`] scope.
pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    with_current(|h| h.spawn(fut))
}

/// Spawns a fire-and-forget task onto the current simulation — the cheap
/// path for plumbing tasks that are never awaited or aborted. See
/// [`SimHandle::spawn_detached`].
pub fn spawn_detached<F>(fut: F)
where
    F: Future<Output = ()> + 'static,
{
    with_current(|h| h.spawn_detached(fut))
}

/// Runs `sink.fire(token)` at virtual instant `at` on the current
/// simulation. See [`SimHandle::schedule_at`].
pub fn schedule_at(at: SimTime, sink: Rc<dyn EventSink>, token: usize) {
    with_current(|h| h.schedule_at(at, sink, token))
}

/// Current virtual time of the running simulation.
pub fn now() -> SimTime {
    with_current(SimHandle::now)
}

thread_local! {
    static RNG_DRAWS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Runs `f` with mutable access to the simulation's deterministic RNG.
/// This is the only path from a simulation's seed into its program, and
/// each call counts as one draw in [`rng_draws`].
pub fn with_rng<T>(f: impl FnOnce(&mut SmallRng) -> T) -> T {
    RNG_DRAWS.with(|d| d.set(d.get() + 1));
    with_current(|h| f(&mut h.core.borrow_mut().rng))
}

/// RNG draws ([`with_rng`] calls) made on this thread so far, by every
/// simulation it drove. A simulation runs on the thread that drives it,
/// so the difference across one run is that run's exact draw count; a
/// run that drew nothing never read its seed, and any seed gives the
/// same schedule.
pub fn rng_draws() -> u64 {
    RNG_DRAWS.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timer::sleep;
    use std::cell::RefCell;

    #[test]
    fn block_on_returns_value() {
        let mut sim = Sim::new(1);
        assert_eq!(sim.block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn virtual_time_advances_only_by_timers() {
        let mut sim = Sim::new(1);
        let t = sim.block_on(async {
            sleep(Duration::from_secs(3600)).await;
            now()
        });
        assert_eq!(t, SimTime::from_secs(3600));
    }

    #[test]
    fn spawned_tasks_interleave_deterministically() {
        let mut sim = Sim::new(1);
        let log = std::rc::Rc::new(RefCell::new(Vec::new()));
        let l1 = log.clone();
        let l2 = log.clone();
        sim.spawn(async move {
            sleep(Duration::from_millis(10)).await;
            l1.borrow_mut().push("a@10");
            sleep(Duration::from_millis(20)).await;
            l1.borrow_mut().push("a@30");
        });
        sim.spawn(async move {
            sleep(Duration::from_millis(20)).await;
            l2.borrow_mut().push("b@20");
        });
        let outcome = sim.run();
        assert_eq!(outcome, RunOutcome::Quiescent { pending_tasks: 0 });
        assert_eq!(*log.borrow(), vec!["a@10", "b@20", "a@30"]);
        assert_eq!(sim.now(), SimTime::from_millis(30));
    }

    #[test]
    fn same_instant_timers_fire_in_registration_order() {
        let mut sim = Sim::new(1);
        let log = std::rc::Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let l = log.clone();
            sim.spawn(async move {
                sleep(Duration::from_millis(100)).await;
                l.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new(1);
        let handle = sim.spawn(async {
            sleep(Duration::from_secs(10)).await;
            7
        });
        let outcome = sim.run_until(SimTime::from_secs(5));
        assert_eq!(outcome, RunOutcome::DeadlineReached);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert!(!handle.is_finished());
        sim.run();
        assert!(handle.is_finished());
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn join_handle_returns_output() {
        let mut sim = Sim::new(1);
        let result = sim.block_on(async {
            let h = spawn(async {
                sleep(Duration::from_millis(5)).await;
                "done"
            });
            h.await.unwrap()
        });
        assert_eq!(result, "done");
    }

    #[test]
    fn abort_cancels_task() {
        let mut sim = Sim::new(1);
        let flag = std::rc::Rc::new(RefCell::new(false));
        let f2 = flag.clone();
        let result = sim.block_on(async move {
            let h = spawn(async move {
                sleep(Duration::from_secs(1)).await;
                *f2.borrow_mut() = true;
            });
            sleep(Duration::from_millis(1)).await;
            h.abort();
            h.await
        });
        assert_eq!(result, Err(Aborted));
        sim.run();
        assert!(!*flag.borrow(), "aborted task must not run to completion");
    }

    #[test]
    fn abort_after_finish_returns_value() {
        let mut sim = Sim::new(1);
        let result = sim.block_on(async {
            let h = spawn(async { 5 });
            sleep(Duration::from_millis(1)).await;
            h.abort(); // too late, already finished
            h.await
        });
        assert_eq!(result, Ok(5));
    }

    #[test]
    fn quiescent_reports_blocked_tasks() {
        let mut sim = Sim::new(1);
        sim.spawn(async {
            // A future that never resolves and holds no timer.
            std::future::pending::<()>().await;
        });
        let outcome = sim.run();
        assert_eq!(outcome, RunOutcome::Quiescent { pending_tasks: 1 });
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn block_on_deadlock_panics() {
        let mut sim = Sim::new(1);
        sim.block_on(std::future::pending::<()>());
    }

    fn random_sleep_run(sim: &mut Sim) -> (u64, Vec<u64>) {
        let out = std::rc::Rc::new(RefCell::new(Vec::new()));
        let o = out.clone();
        sim.block_on(async move {
            for _ in 0..10 {
                let ms = with_rng(|r| rand::Rng::gen_range(r, 1..50));
                sleep(Duration::from_millis(ms)).await;
                o.borrow_mut().push(now().as_nanos());
            }
        });
        let events = out.borrow().clone();
        (sim.now().as_nanos(), events)
    }

    #[test]
    fn identical_seeds_identical_schedules() {
        fn run(seed: u64) -> (u64, Vec<u64>) {
            random_sleep_run(&mut Sim::new(seed))
        }
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).0, run(100).0);
    }

    #[test]
    fn reset_is_observably_a_fresh_sim() {
        let mut sim = Sim::new(99);
        let fresh = random_sleep_run(&mut sim);
        // Leave junk behind: a blocked task and a pending timer.
        sim.spawn(async {
            sleep(Duration::from_secs(5000)).await;
            std::future::pending::<()>().await;
        });
        sim.run_until(SimTime::from_secs(1));

        sim.reset(99);
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.poll_count(), 0);
        assert_eq!(random_sleep_run(&mut sim), fresh, "reset != Sim::new(seed)");

        sim.reset(100);
        assert_ne!(random_sleep_run(&mut sim).0, fresh.0);
    }

    #[test]
    fn pool_recycles_arenas_with_identical_schedules() {
        let pool = SimPool::new();
        let a = {
            let mut sim = pool.acquire(7);
            random_sleep_run(&mut sim)
        };
        assert_eq!(pool.idle(), 1, "dropped sim returns to the pool");
        let b = {
            let mut sim = pool.acquire(7);
            random_sleep_run(&mut sim)
        };
        assert_eq!(a, b, "recycled arena must not leak schedule state");
        assert_eq!(pool.idle(), 1);

        // The thread-local entry point behaves the same.
        let c = random_sleep_run(&mut pooled(7));
        let d = random_sleep_run(&mut pooled(7));
        assert_eq!(c, a);
        assert_eq!(d, a);
    }

    #[test]
    fn slab_recycles_slots_with_generation_bump() {
        let mut sim = Sim::new(1);
        let (first, second) = sim.block_on(async {
            let h1 = spawn(async {});
            let id1 = h1.id();
            h1.await.unwrap(); // task finished, slot freed
            let h2 = spawn(async {});
            let id2 = h2.id();
            h2.await.unwrap();
            (id1, id2)
        });
        assert_eq!(first.slot(), second.slot(), "free list must recycle");
        assert_eq!(
            second.generation(),
            first.generation() + 1,
            "recycled slot must bump its generation"
        );
        assert_ne!(first, second);
    }

    /// A future that counts how often it is polled before completing at
    /// its deadline.
    struct CountedSleep {
        inner: crate::timer::Sleep,
        polls: std::rc::Rc<std::cell::Cell<u32>>,
    }

    impl Future for CountedSleep {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let this = self.get_mut();
            this.polls.set(this.polls.get() + 1);
            Pin::new(&mut this.inner).poll(cx)
        }
    }

    #[test]
    fn stale_timer_never_fires_a_recycled_slot() {
        // Task A arms a far timer (the losing side of a race) and
        // completes early; task B recycles A's slot. When A's stale timer
        // deadline passes, B must not observe a spurious poll.
        let mut sim = Sim::new(1);
        let polls = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let p = polls.clone();
        sim.block_on(async move {
            let a = spawn(async {
                crate::race(
                    sleep(Duration::from_millis(100)),
                    sleep(Duration::from_millis(10)),
                )
                .await;
            });
            a.await.unwrap(); // A done at t=10ms; its 100ms timer is stale
            let b = spawn(CountedSleep {
                inner: crate::timer::sleep(Duration::from_millis(500)),
                polls: p,
            });
            b.await.unwrap();
        });
        assert_eq!(sim.now(), SimTime::from_millis(510));
        assert_eq!(
            polls.get(),
            2,
            "B must see exactly first poll + own deadline, no stale fire at 100ms"
        );
    }

    #[test]
    fn duplicate_wakes_dedup_to_one_poll() {
        // A future whose waker is woken three times while queued: the
        // epoch tag must collapse them into a single poll.
        struct WakeStorm {
            fired: bool,
        }
        impl Future for WakeStorm {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.fired {
                    return Poll::Ready(());
                }
                self.fired = true;
                cx.waker().wake_by_ref();
                cx.waker().wake_by_ref();
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
        let mut sim = Sim::new(1);
        sim.block_on(WakeStorm { fired: false });
        // Root wrapper task: 2 polls (pending, then ready). No extra polls
        // from the duplicate wakes.
        assert_eq!(sim.poll_count(), 2);
    }

    #[test]
    fn nested_spawn_inside_task() {
        let mut sim = Sim::new(1);
        let total = sim.block_on(async {
            let mut handles = Vec::new();
            for i in 0..10u64 {
                handles.push(spawn(async move {
                    sleep(Duration::from_millis(i)).await;
                    i
                }));
            }
            let mut sum = 0;
            for h in handles {
                sum += h.await.unwrap();
            }
            sum
        });
        assert_eq!(total, 45);
    }

    #[test]
    fn enter_allows_prebuilding() {
        let sim = Sim::new(1);
        sim.enter(|| {
            assert_eq!(now(), SimTime::ZERO);
            let _h = spawn(async {});
        });
    }

    type Log = std::rc::Rc<RefCell<Vec<(u64, String)>>>;

    type Callback = Box<dyn FnOnce()>;

    /// A test sink whose events are closures, by token.
    #[derive(Default)]
    struct Closures(RefCell<Vec<Option<Callback>>>);

    impl EventSink for Closures {
        fn fire(self: Rc<Self>, token: usize) {
            let f = self.0.borrow_mut()[token].take().expect("fires once");
            f();
        }

        fn cancel(self: Rc<Self>, token: usize) {
            let f = self.0.borrow_mut()[token].take();
            drop(f);
        }
    }

    thread_local! {
        static CLOSURES: Rc<Closures> = Rc::default();
    }

    /// Schedules `f` at `at` through the thread's closure sink.
    fn schedule_fn(at: SimTime, f: impl FnOnce() + 'static) {
        let sink = CLOSURES.with(Rc::clone);
        let token = {
            let mut slots = sink.0.borrow_mut();
            slots.push(Some(Box::new(f)));
            slots.len() - 1
        };
        schedule_at(at, sink, token);
    }

    /// Runs `f` at `at` as an event, or as the task form events replace.
    fn run_at(events: bool, at: SimTime, f: impl FnOnce() + 'static) {
        if events {
            schedule_fn(at, f);
        } else {
            spawn_detached(async move {
                crate::timer::sleep_until(at).await;
                f();
            });
        }
    }

    fn note(log: &Log, what: String) {
        log.borrow_mut().push((now().as_nanos(), what));
    }

    /// One node of a seeded tree of work: logs itself, then fans out into
    /// events (or their task form) and sleeping tasks at 0–2 ms from now,
    /// so that same-instant ties are everywhere.
    fn node(events: bool, log: Log, name: String, depth: u32) {
        note(&log, name.clone());
        if depth == 0 {
            return;
        }
        for i in 0..with_rng(|r| rand::Rng::gen_range(r, 1..4u32)) {
            let child = format!("{name}.{i}");
            let ms = with_rng(|r| rand::Rng::gen_range(r, 0..3u64));
            let at = now() + Duration::from_millis(ms);
            let log = log.clone();
            if with_rng(|r| rand::Rng::gen_bool(r, 0.5)) {
                run_at(events, at, move || node(events, log, child, depth - 1));
            } else {
                spawn(async move {
                    sleep(Duration::from_millis(ms)).await;
                    note(&log, format!("{child}/task"));
                    node(events, log, child, depth - 1);
                });
            }
        }
    }

    /// Runs the seeded tree to quiescence on `sim`: the log, the final
    /// clock, and the wheel traffic.
    fn tree(sim: &mut Sim, events: bool, seed: u64) -> (Vec<(u64, String)>, SimTime, u64) {
        let log: Log = Default::default();
        let l = log.clone();
        sim.enter(|| {
            with_rng(|r| *r = SmallRng::seed_from_u64(seed));
            node(events, l, "root".into(), 4);
        });
        assert_eq!(sim.run(), RunOutcome::Quiescent { pending_tasks: 0 });
        let out = log.borrow().clone();
        (out, sim.now(), sim.timers_fired())
    }

    #[test]
    fn schedule_at_runs_in_the_order_of_the_task_it_replaces() {
        for seed in 0..40 {
            let events = tree(&mut Sim::new(1), true, seed);
            let tasks = tree(&mut Sim::new(1), false, seed);
            assert_eq!(events, tasks, "seed {seed}");
        }
    }

    #[test]
    fn schedule_at_arms_at_its_ready_queue_turn() {
        // A, the event and B all target 10 ms. A's and B's timers are
        // armed at their first polls; the event's at its arm step, which
        // sits between them in the ready queue. The wheel fires same-
        // instant entries in arming order, so the event runs between A
        // and B — had it armed when scheduled, it would run first.
        let mut sim = Sim::new(1);
        let log: Log = Default::default();
        let at = SimTime::from_millis(10);
        sim.enter(|| {
            let l = log.clone();
            spawn(async move {
                crate::timer::sleep_until(at).await;
                note(&l, "A".into());
            });
            let l = log.clone();
            schedule_fn(at, move || {
                note(&l, "event".into());
                // Scheduled from inside an event, at its own instant: it
                // arms before B runs, so it fires ahead of C, whose timer
                // B arms later.
                let l2 = l.clone();
                schedule_fn(now(), move || note(&l2, "nested".into()));
            });
            let l = log.clone();
            spawn(async move {
                crate::timer::sleep_until(at).await;
                note(&l, "B".into());
                crate::timer::sleep_until(at).await;
                note(&l, "C".into());
            });
        });
        sim.run();
        let names: Vec<String> = log.borrow().iter().map(|(_, n)| n.clone()).collect();
        assert_eq!(names, ["A", "event", "B", "nested", "C"]);
        assert!(log.borrow().iter().all(|(t, _)| *t == at.as_nanos()));
        // A polls twice and B three times; events never poll.
        assert_eq!(sim.poll_count(), 2 + 3);
    }

    /// Notes, for each drop, whether a sim context was installed.
    struct DropProbe(std::rc::Rc<RefCell<Vec<bool>>>);

    impl Drop for DropProbe {
        fn drop(&mut self) {
            self.0.borrow_mut().push(has_current());
        }
    }

    /// Leaves one armed and one unarmed event pending on `sim`.
    fn leave_pending_events(sim: &mut Sim, drops: &std::rc::Rc<RefCell<Vec<bool>>>) {
        let armed = DropProbe(drops.clone());
        sim.enter(|| {
            schedule_fn(SimTime::from_secs(100), move || {
                drop(armed);
                panic!("a reset must drop pending events");
            })
        });
        sim.run_until(SimTime::from_secs(1));
        let unarmed = DropProbe(drops.clone());
        sim.enter(|| {
            schedule_fn(SimTime::from_secs(2), move || {
                drop(unarmed);
                panic!("a reset must drop pending events");
            })
        });
    }

    #[test]
    fn reset_and_pooled_sims_drop_pending_events() {
        let fresh = tree(&mut Sim::new(7), true, 3);
        // Every pending event is dropped, inside the sim context.
        let drops = std::rc::Rc::default();

        let mut sim = Sim::new(7);
        leave_pending_events(&mut sim, &drops);
        sim.reset(7);
        assert_eq!(*drops.borrow(), [true, true]);
        assert_eq!(tree(&mut sim, true, 3), fresh, "reset != Sim::new(seed)");

        let pool = SimPool::new();
        leave_pending_events(&mut pool.acquire(7), &drops);
        assert_eq!(
            tree(&mut pool.acquire(7), true, 3),
            fresh,
            "pooled != Sim::new(seed)"
        );
        assert_eq!(*drops.borrow(), [true; 4]);
    }

    #[test]
    fn stats_flush_on_reset_and_drop() {
        // The registry counters are process-wide and other tests in this
        // binary create/drop sims concurrently, so every assertion is a
        // monotonic lower bound on *this* sim's contribution — exact
        // equality would flake under parallel test scheduling.
        let m = metrics();
        let (polls, fired, reset, created) = (
            m.polls.get(),
            m.timers_fired.get(),
            m.sims_reset.get(),
            m.sims_created.get(),
        );
        let mut sim = Sim::new(3);
        sim.block_on(async {
            sleep(Duration::from_millis(1)).await;
        });
        sim.reset(3);
        assert!(
            m.polls.get() >= polls + 2,
            "reset must flush this sim's polls"
        );
        assert!(m.timers_fired.get() > fired);
        assert!(m.sims_reset.get() > reset);
        drop(sim);
        assert!(m.sims_created.get() > created);
    }

    #[test]
    fn rng_draws_count_every_with_rng_call_on_this_thread() {
        let mut sim = Sim::new(5);
        let before = rng_draws();
        sim.block_on(async {
            sleep(Duration::from_millis(1)).await;
        });
        assert_eq!(rng_draws(), before, "a run without with_rng draws nothing");
        sim.block_on(async {
            for _ in 0..3 {
                with_rng(|r| rand::Rng::gen_range(r, 0..10u32));
            }
        });
        assert_eq!(rng_draws(), before + 3);
    }
}
