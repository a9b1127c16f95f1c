//! # lazyeye-perfbench — end-to-end and per-layer benchmark
//!
//! Drives three workloads through the public `lazyeye_campaign` and
//! `lazyeye_fleet` APIs (never the CLI) and prints one JSON result line.
//! An untraced run reports the end-to-end metrics; a traced run times
//! every public call from this side and reads the `lazyeye_obs` registry
//! around it for the per-layer metrics. See `README.md` for the
//! workloads, the metrics and which end-to-end metric each layer metric
//! should move.

pub mod layers;
pub mod measure;
pub mod run;
pub mod runner;
pub mod verify;
pub mod workloads;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;
