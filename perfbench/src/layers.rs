//! Per-layer metrics of the traced run: the catalogue, and the recorder
//! that times each public call from the benchmark's side.
//!
//! Every number here is taken from outside the program: wall time around
//! a public call, the counting allocator's per-thread tallies around the
//! same call, and `lazyeye_obs` registry counters read before and after.
//! A metric whose layer a workload does not exercise reads 0.

use std::collections::BTreeMap;
use std::time::Instant;

use lazyeye_obs::Clock;

use crate::measure::{median, percentile, thread_allocs};

/// One metric: its name, unit, which direction is better, and — for
/// per-layer metrics — the end-to-end metric and workloads it should
/// move.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// The end-to-end metric and workloads a change here should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
    }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDef; 4] = [
    m("items_per_s", "items/s", "higher", ""),
    m("cpu_s", "s", "lower", ""),
    m("peak_rss_mib", "MiB", "lower", ""),
    m("setup_s", "s", "lower", ""),
];

const SIM_E2E: &str = "items_per_s, cpu_s on campaign-sim";
const FAST_E2E: &str = "items_per_s on campaign-fastpath";
const FOLD_E2E: &str = "items_per_s on campaign-fastpath";
const FLEET_E2E: &str = "items_per_s on fleet-population";
const SIM_FLEET_E2E: &str = "items_per_s, cpu_s on campaign-sim, fleet-population";
const ALLOC_E2E: &str = "items_per_s on all; peak_rss_mib on campaign-fastpath";
const MERGE_E2E: &str = "none: no workload times shard merging end to end";

/// The public calls whose allocations are counted, as `alloc.<call>.*`.
pub const ALLOC_CALLS: [&str; 13] = [
    "expand",
    "context",
    "run_one",
    "plan_refinement",
    "build_report",
    "aggregate",
    "infer",
    "render_json",
    "render_csv",
    "checkpoint_parse",
    "checkpoint_merge",
    "finish",
    "run_session",
];

/// Per-layer metrics of the traced run, in print order (the allocation
/// metrics, two per entry of [`ALLOC_CALLS`], follow these).
pub const PER_LAYER: [MetricDef; 54] = [
    m(
        "plan.expand_ms",
        "ms",
        "lower",
        "setup_s on campaign-sim, campaign-fastpath",
    ),
    m(
        "fastpath.calibrate_ms",
        "ms",
        "lower",
        "setup_s on campaign-fastpath",
    ),
    m(
        "fastpath.calibrations",
        "count",
        "lower",
        "setup_s on campaign-fastpath",
    ),
    m("fastpath.cad_hit_ratio", "ratio", "higher", FAST_E2E),
    m("fastpath.rd_hit_ratio", "ratio", "higher", FAST_E2E),
    m("fastpath.fallbacks", "count", "lower", FAST_E2E),
    m("run.cad_sim_us.p50", "us", "lower", SIM_E2E),
    m("run.cad_sim_us.p99", "us", "lower", SIM_E2E),
    m("run.cad_sim_us.n", "count", "higher", SIM_E2E),
    m(
        "run.cad_fast_us.p50",
        "us",
        "lower",
        "items_per_s on campaign-sim, campaign-fastpath",
    ),
    m(
        "run.cad_fast_us.p99",
        "us",
        "lower",
        "items_per_s on campaign-sim, campaign-fastpath",
    ),
    m(
        "run.cad_fast_us.n",
        "count",
        "higher",
        "items_per_s on campaign-sim, campaign-fastpath",
    ),
    m("run.rd_us.p50", "us", "lower", SIM_E2E),
    m("run.rd_us.p99", "us", "lower", SIM_E2E),
    m("run.rd_us.n", "count", "higher", SIM_E2E),
    m("run.selection_us.p50", "us", "lower", SIM_E2E),
    m("run.selection_us.p99", "us", "lower", SIM_E2E),
    m("run.selection_us.n", "count", "higher", SIM_E2E),
    m("run.resolver_us.p50", "us", "lower", SIM_E2E),
    m("run.resolver_us.p99", "us", "lower", SIM_E2E),
    m("run.resolver_us.n", "count", "higher", SIM_E2E),
    m("sim.polls_per_item", "count/item", "lower", SIM_FLEET_E2E),
    m("sim.timers_per_item", "count/item", "lower", SIM_FLEET_E2E),
    m("sim.tasks_per_item", "count/item", "lower", SIM_FLEET_E2E),
    m("sim.pool_reuse_ratio", "ratio", "higher", SIM_FLEET_E2E),
    m("exec.busy_ratio", "ratio", "higher", SIM_E2E),
    m("exec.wait_ms", "ms", "lower", SIM_E2E),
    m("exec.steal_hit_ratio", "ratio", "higher", SIM_E2E),
    m("refine.plan_ms", "ms", "lower", FOLD_E2E),
    m("refine.runs", "count", "lower", FOLD_E2E),
    m("aggregate.fold_ms", "ms", "lower", FOLD_E2E),
    m("infer.ms", "ms", "lower", FOLD_E2E),
    m("infer.observations", "count", "lower", FOLD_E2E),
    m("infer.candidates", "count", "lower", FOLD_E2E),
    m("render.json_ms", "ms", "lower", FOLD_E2E),
    m("render.csv_ms", "ms", "lower", FOLD_E2E),
    m("render.bytes", "B", "lower", FOLD_E2E),
    m("checkpoint.parse_ms", "ms", "lower", MERGE_E2E),
    m("checkpoint.parse_mib_per_s", "MiB/s", "higher", MERGE_E2E),
    m("checkpoint.merge_ms", "ms", "lower", MERGE_E2E),
    m("session.cad_ms.p50", "ms", "lower", FLEET_E2E),
    m("session.cad_ms.p99", "ms", "lower", FLEET_E2E),
    m("session.cad_ms.n", "count", "higher", FLEET_E2E),
    m("session.rd_ms.p50", "ms", "lower", FLEET_E2E),
    m("session.rd_ms.p99", "ms", "lower", FLEET_E2E),
    m("session.rd_ms.n", "count", "higher", FLEET_E2E),
    m("session.rd_a_ms.p50", "ms", "lower", FLEET_E2E),
    m("session.rd_a_ms.p99", "ms", "lower", FLEET_E2E),
    m("session.rd_a_ms.n", "count", "higher", FLEET_E2E),
    m("session.resolver_ms.p50", "ms", "lower", FLEET_E2E),
    m("session.resolver_ms.p99", "ms", "lower", FLEET_E2E),
    m("session.resolver_ms.n", "count", "higher", FLEET_E2E),
    m("fleet.report_ms", "ms", "lower", FLEET_E2E),
    m(
        "trace.overhead_pct",
        "%",
        "lower",
        "none: the traced run's own cost",
    ),
];

/// Every per-layer metric: [`PER_LAYER`] then the allocation metrics.
pub fn per_layer_defs() -> Vec<(String, MetricDef)> {
    let mut defs: Vec<(String, MetricDef)> =
        PER_LAYER.iter().map(|d| (d.name.to_string(), *d)).collect();
    for call in ALLOC_CALLS {
        for (suffix, unit) in [
            ("count_per_item", "count/item"),
            ("bytes_per_item", "B/item"),
        ] {
            let def = m("", unit, "lower", ALLOC_E2E);
            defs.push((format!("alloc.{call}.{suffix}"), def));
        }
    }
    defs
}

/// A registry counter, registered in the clock domain its owner uses.
pub fn obs_counter(name: &'static str) -> &'static lazyeye_obs::Counter {
    let clock = match name {
        "sim.sims_created" | "sim.sims_reset" => Clock::Wall,
        n if n.starts_with("exec.") => Clock::Wall,
        _ => Clock::Virtual,
    };
    lazyeye_obs::counter(name, clock)
}

#[derive(Default)]
struct Call {
    this_pass_ms: Option<f64>,
    pass_ms: Vec<f64>,
    allocs: u64,
    bytes: u64,
    items: u64,
}

/// Collects per-call times, allocations, per-item samples and counts
/// over the traced passes.
#[derive(Default)]
pub struct Recorder {
    calls: BTreeMap<&'static str, Call>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
}

impl Recorder {
    /// Runs `f` on this thread, charging its wall time and allocations to
    /// `call`; `items` is the number of workload items the call covers.
    pub fn time<T>(&mut self, call: &'static str, items: u64, f: impl FnOnce() -> T) -> T {
        let (a0, b0) = thread_allocs();
        let started = Instant::now();
        let out = f();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let (a1, b1) = thread_allocs();
        self.charge(call, ms, a1 - a0, b1 - b0, items);
        out
    }

    /// Charges one measured call to `call`.
    pub fn charge(&mut self, call: &'static str, ms: f64, allocs: u64, bytes: u64, items: u64) {
        let c = self.calls.entry(call).or_default();
        *c.this_pass_ms.get_or_insert(0.0) += ms;
        c.allocs += allocs;
        c.bytes += bytes;
        c.items += items;
    }

    /// Adds `items` to the workload items `call` covers, for calls whose
    /// item count is known only from their result.
    pub fn items(&mut self, call: &'static str, items: u64) {
        self.calls.entry(call).or_default().items += items;
    }

    /// Closes a pass: each call's time this pass becomes one sample.
    pub fn end_pass(&mut self) {
        for c in self.calls.values_mut() {
            if let Some(ms) = c.this_pass_ms.take() {
                c.pass_ms.push(ms);
            }
        }
    }

    /// Adds one per-item sample to the distribution `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Adds `value` to the accumulator `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_default() += value;
    }

    /// Sets the metric `name` outright.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The accumulator `name` (0 when never touched).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Median per-pass time of `call` in ms (0 when never called).
    pub fn call_ms(&self, call: &str) -> f64 {
        self.calls.get(call).map_or(0.0, |c| median(&c.pass_ms))
    }

    /// `(allocations, bytes)` per item of `call` (0 when never called).
    fn allocs_per_item(&self, call: &str) -> (f64, f64) {
        match self.calls.get(call) {
            Some(c) if c.items > 0 => (
                c.allocs as f64 / c.items as f64,
                c.bytes as f64 / c.items as f64,
            ),
            _ => (0.0, 0.0),
        }
    }

    /// The final per-layer metric values, in [`per_layer_defs`] order.
    pub fn finish(&self) -> Vec<(String, f64)> {
        let ratio = |num: &str, den: &str| {
            let d = self.value(den);
            if d > 0.0 {
                self.value(num) / d
            } else {
                0.0
            }
        };
        let dist = |name: &str, stat: &str| {
            let v = self.samples.get(name).map_or(&[][..], Vec::as_slice);
            match stat {
                "p50" => percentile(v, 50.0),
                "p99" => percentile(v, 99.0),
                _ => v.len() as f64,
            }
        };
        per_layer_defs()
            .into_iter()
            .map(|(name, _)| {
                let value = match name.as_str() {
                    "plan.expand_ms" => self.call_ms("expand"),
                    "fastpath.cad_hit_ratio" => ratio("cad_fast_hits", "cad_baseline_runs"),
                    "fastpath.rd_hit_ratio" => ratio("rd_fast_hits", "rd_baseline_runs"),
                    "sim.polls_per_item" => ratio("sim.polls", "sim.items"),
                    "sim.timers_per_item" => ratio("sim.timers_armed", "sim.items"),
                    "sim.tasks_per_item" => ratio("sim.tasks_spawned", "sim.items"),
                    "sim.pool_reuse_ratio" => ratio("sim.sims_reset", "sim.sims"),
                    "exec.busy_ratio" => ratio("exec.busy_s", "exec.worker_s"),
                    "exec.steal_hit_ratio" => ratio("exec.steal_hits", "exec.steal_attempts"),
                    "refine.plan_ms" => self.call_ms("plan_refinement"),
                    "aggregate.fold_ms" => self.call_ms("aggregate"),
                    "infer.ms" => self.call_ms("infer"),
                    "render.json_ms" => self.call_ms("render_json"),
                    "render.csv_ms" => self.call_ms("render_csv"),
                    "checkpoint.parse_ms" => self.call_ms("checkpoint_parse"),
                    "checkpoint.parse_mib_per_s" => {
                        let s = self.call_ms("checkpoint_parse") / 1e3;
                        if s > 0.0 {
                            self.value("checkpoint.bytes") / 1048576.0 / s
                        } else {
                            0.0
                        }
                    }
                    "checkpoint.merge_ms" => self.call_ms("checkpoint_merge"),
                    n if n.starts_with("run.") || n.starts_with("session.") => {
                        let (dist_name, stat) = n.rsplit_once('.').expect("dotted name");
                        dist(dist_name, stat)
                    }
                    n if n.starts_with("alloc.") => {
                        let (call, per) = n["alloc.".len()..]
                            .split_once('.')
                            .expect("alloc.<call>.<stat>");
                        let (count, bytes) = self.allocs_per_item(call);
                        if per == "count_per_item" {
                            count
                        } else {
                            bytes
                        }
                    }
                    n => self.value(n),
                };
                (name, value)
            })
            .collect()
    }
}
