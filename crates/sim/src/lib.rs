//! # lazyeye-sim — deterministic virtual-time async runtime
//!
//! The foundation of the Lazy Eye Inspection testbed: a single-threaded
//! executor whose clock is *virtual*. Time only advances when every task has
//! gone to sleep, jumping straight to the next timer deadline. Consequences:
//!
//! * **Determinism** — identical seeds and programs yield bit-identical
//!   schedules, so every paper figure regenerates exactly.
//! * **Speed** — a simulated 5-second Happy Eyeballs timeout costs
//!   microseconds of wall-clock time; full parameter sweeps run in seconds.
//! * **Precision** — event timestamps carry nanosecond resolution with zero
//!   jitter, strictly better than the sub-millisecond capture accuracy the
//!   paper's physical testbed depends on (§4.3 of the paper).
//!
//! The API deliberately mirrors tokio's shape (`spawn`, `sleep`, `timeout`,
//! `sync::{oneshot, mpsc}`, `JoinHandle::abort`) so the networking code in
//! the other crates reads like ordinary async Rust.
//!
//! ```
//! use lazyeye_sim::{Sim, spawn, sleep, now};
//! use std::time::Duration;
//!
//! let mut sim = Sim::new(0xE7E);
//! let elapsed = sim.block_on(async {
//!     let ipv6 = spawn(async { sleep(Duration::from_millis(300)).await; "v6" });
//!     let ipv4 = spawn(async { sleep(Duration::from_millis(120)).await; "v4" });
//!     let _first = lazyeye_sim::race(ipv6, ipv4).await;
//!     now()
//! });
//! assert_eq!(elapsed.as_millis(), 120);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod combinators;
mod executor;
pub mod sync;
pub mod time;
mod timer;
mod wheel;

pub use combinators::{join2, join_all, race, Either, JoinAll};
pub use executor::{
    current, has_current, now, pooled, rng_draws, schedule_at, spawn, spawn_detached, with_rng,
    Aborted, EventSink, JoinHandle, RunOutcome, Sim, SimHandle, SimPool, TaskId,
};
pub use time::SimTime;
pub use timer::{sleep, sleep_until, timeout, timeout_at, yield_now, Elapsed, Sleep};
