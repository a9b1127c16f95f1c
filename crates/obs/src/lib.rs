//! # lazyeye-obs — the unified observability layer
//!
//! One subsystem, three surfaces, two clocks:
//!
//! * a [`registry`] of counters, gauges and log-scale histograms that
//!   the scheduler, executor, campaign and fleet engines all feed;
//! * a [`trace`] span/event API ([`span!`], [`event!`]) recording into
//!   per-thread buffers, exported as Chrome trace-event JSON by
//!   [`timeline`];
//! * live [`progress`] state for the CLI's `--progress` reporter;
//! * a flight [`recorder`] — a bounded ring of structured events that
//!   records only while the [`trigger`] engine is armed — plus that
//!   engine, which snapshots it (with full run provenance) into
//!   self-contained black-box [`bundle`]s on anomalies, for
//!   `lazyeye replay` forensics. Unarmed, recording an event is one
//!   relaxed load and never formats its detail;
//! * a [`profile`] collapsed-stack [`profile::FlameGraph`] builder —
//!   the deterministic export surface of the causal latency profiler.
//!
//! **Clock domains.** Every metric and span is tagged [`Clock::Virtual`]
//! or [`Clock::Wall`]. Virtual-domain values are functions of the
//! simulated workload only: for a fixed spec and seed they are
//! byte-identical whatever `--jobs` is, so they may sit next to report
//! data and CI pins them. Wall-domain values (worker utilization, steal
//! counters, latencies) describe the host execution and are kept
//! strictly out of report bytes — they appear only in `--timeline`,
//! `--metrics-out` and `--progress` output.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bundle;
pub mod profile;
pub mod progress;
pub mod recorder;
pub mod registry;
pub mod timeline;
pub mod trace;
pub mod trigger;

pub use registry::{counter, counter_labeled, gauge, histogram, Counter, Gauge, Histogram};

/// The clock domain a metric or span lives in.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Clock {
    /// Simulated time: deterministic for (spec, seed), independent of
    /// the worker count. Safe next to report bytes.
    Virtual,
    /// Host time and host execution structure: never part of reports.
    Wall,
}

impl Clock {
    /// The label used in exposition output (`clock="..."`).
    pub fn label(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Wall => "wall",
        }
    }
}

/// Opens a wall-clock span on the current worker track; the span closes
/// when the returned guard drops. Records nothing unless tracing is
/// enabled.
///
/// ```
/// let _span = lazyeye_obs::span!("campaign.pass1");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::wall_span($name)
    };
}

/// Records an instant wall-clock event on the current worker track.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::trace::wall_event($name)
    };
}

/// Serializes tests that mutate process-global observability state
/// (trace enable flag, progress state) within one test binary.
#[cfg(test)]
pub(crate) fn test_lock() -> &'static std::sync::Mutex<()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    &LOCK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_labels() {
        assert_eq!(Clock::Virtual.label(), "virtual");
        assert_eq!(Clock::Wall.label(), "wall");
    }

    #[test]
    fn span_and_event_macros_compile_and_are_noops_when_disabled() {
        let _g = test_lock().lock().unwrap();
        trace::disable();
        let guard = span!("macro.span");
        assert!(guard.is_none());
        event!("macro.event");
    }
}
