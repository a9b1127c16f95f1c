//! One benchmark run: set-up, measurement, verification, and the result
//! line it prints.

use std::time::{Duration, Instant};

use crate::layers::{obs_counter, per_layer_defs, Recorder, END_TO_END};
use crate::measure::{median, peak_rss_mib, set_counting, HostSpeed};
use crate::runner::{setup, Pass, Runner};
use crate::verify::pinned_digest;
use crate::workloads::{spec_text, Scale, Workload, DEFAULT_SEED};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// Passes each half of a traced run measures at least.
const MIN_PASSES: usize = 3;

/// A run's result: correctness, item accounting and metrics.
#[derive(Debug)]
pub struct Outcome {
    /// No check failed.
    pub correct: bool,
    /// Items attempted over the measured passes.
    pub attempted: u64,
    /// Items of passes whose output failed a check.
    pub failed: u64,
    /// `(name, value, unit)` per metric, in catalogue order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Why checks failed, if they did.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Item accounting and check failures of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Counts a pass, failing its items when its report differs from the
    /// reference.
    fn pass(&mut self, pass: &Pass, digest: u64, reference: u64) {
        self.attempted += pass.items;
        if digest != reference {
            self.failures.push(format!(
                "report digest {digest:016x} differs from the reference {reference:016x}"
            ));
        }
    }

    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Any failed check fails the whole sample.
    fn outcome(self, metrics: Vec<(String, f64, &'static str)>) -> Outcome {
        let correct = self.failures.is_empty();
        Outcome {
            correct,
            attempted: self.attempted.max(1),
            failed: if correct { 0 } else { self.attempted.max(1) },
            metrics,
            failures: self.failures,
        }
    }
}

/// Checks the first pass's report and, at the default seed and full
/// scale, its pinned digest; returns the reference digest.
fn first_reference(
    workload: Workload,
    seed: u64,
    scale: Scale,
    runner: &dyn Runner,
    tally: &mut Tally,
) -> u64 {
    let digest = runner.digest();
    if let Err(why) = runner.check() {
        tally.fail(why);
    }
    if seed == DEFAULT_SEED && scale == Scale::Full {
        let want = pinned_digest(workload);
        if digest != want {
            tally.fail(format!("report digest {digest:016x}, expected {want:016x}"));
        }
    }
    digest
}

/// Cross-checks the benchmark's pipeline against the library's one-call
/// path, when the workload has one.
fn library_check(runner: &dyn Runner, reference: u64, tally: &mut Tally) -> Result<(), String> {
    if let Some(digest) = runner.library_digest()? {
        if digest != reference {
            tally.fail(format!(
                "one-call library report {digest:016x} differs from the pipeline's {reference:016x}"
            ));
        }
    }
    Ok(())
}

/// Runs one workload untraced for `seconds` and reports the end-to-end
/// metrics.
///
/// The run is [`SETUPS`] rounds of equal length, each a set-up followed
/// by measured passes (at least one), so set-ups and passes both sample
/// the whole run. Every set-up and pass is stated at reference host speed
/// with the [`HostSpeed`] yardstick read on either side of it, and each
/// metric is the median of those scaled samples.
pub fn run_untraced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
) -> Result<Outcome, String> {
    set_counting(false);
    let spec = spec_text(workload, seed, scale);
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut rates = Vec::new();
    let mut cpu = Vec::new();
    let mut reference = None;
    let mut runner = None;
    let mut speed = HostSpeed::new();
    let run_started = Instant::now();
    for round in 1..=SETUPS {
        let round_end = Duration::from_secs_f64(seconds * round as f64 / SETUPS as f64);
        // One runner at a time, so peak RSS reflects a single set-up.
        drop(runner.take());
        // A fresh reading right before the set-up; the drop is not timed.
        speed.slowdown();
        let started = Instant::now();
        let mut r = setup(workload, &spec, None)?;
        let warm_up = r.pass(None)?;
        let elapsed = started.elapsed().as_secs_f64();
        setup_s.push(elapsed / speed.slowdown());
        let reference = *reference
            .get_or_insert_with(|| first_reference(workload, seed, scale, &*r, &mut tally));
        tally.pass(&warm_up, r.digest(), reference);
        loop {
            let pass = r.pass(None)?;
            let slowdown = speed.slowdown();
            tally.pass(&pass, r.digest(), reference);
            rates.push(pass.items as f64 / pass.wall_s * slowdown);
            cpu.push(pass.cpu_s / slowdown);
            if run_started.elapsed() >= round_end {
                break;
            }
        }
        runner = Some(r);
    }
    let runner = runner.expect("at least one set-up");
    library_check(&*runner, reference.expect("a reference"), &mut tally)?;

    let values = [
        median(&rates),
        median(&cpu),
        peak_rss_mib()?,
        median(&setup_s),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, v)| (def.name.to_string(), v, def.unit))
        .collect();
    Ok(tally.outcome(metrics))
}

/// Scheduler and pool counters read around passes.
const SIM_COUNTERS: [&str; 5] = [
    "sim.polls",
    "sim.timers_armed",
    "sim.tasks_spawned",
    "sim.sims_created",
    "sim.sims_reset",
];

fn read(names: &[&'static str]) -> Vec<u64> {
    names.iter().map(|n| obs_counter(n).get()).collect()
}

/// Runs one workload traced for `seconds`: half of it untraced passes
/// (the overhead reference and the pool counters), half traced passes
/// with every public call timed. Reports the per-layer metrics.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
) -> Result<Outcome, String> {
    let spec = spec_text(workload, seed, scale);
    // Allocations are counted in the timed set-up and the traced passes
    // only, so the untraced reference rate runs as the end-to-end one does.
    set_counting(true);
    let mut rec = Recorder::default();
    let mut runner = setup(workload, &spec, Some(&mut rec))?;
    rec.end_pass();
    set_counting(false);
    runner.pass(None)?;
    let mut tally = Tally::default();
    let reference = first_reference(workload, seed, scale, &*runner, &mut tally);

    // Untraced passes: the rate tracing is compared against, and the
    // pool's busy, wait and steal counters. Both halves' rates are stated
    // at reference host speed, so a change of host speed between the
    // halves does not read as tracing overhead.
    let half = Duration::from_secs_f64(seconds / 2.0);
    let exec = [
        "exec.worker_busy_us",
        "exec.steal_attempts",
        "exec.steal_hits",
    ];
    let mut untraced_rates = Vec::new();
    let mut waits_ms = Vec::new();
    let mut speed = HostSpeed::new();
    let exec0 = read(&exec);
    let started = Instant::now();
    while untraced_rates.len() < MIN_PASSES || started.elapsed() < half {
        let busy0 = obs_counter("exec.worker_busy_us").get();
        let pass = runner.pass(None)?;
        let busy_s = (obs_counter("exec.worker_busy_us").get() - busy0) as f64 / 1e6;
        tally.pass(&pass, runner.digest(), reference);
        untraced_rates.push(pass.items as f64 / pass.wall_s * speed.slowdown());
        waits_ms.push((pass.worker_s - busy_s).max(0.0) * 1e3);
        rec.add("exec.worker_s", pass.worker_s);
    }
    let exec1 = read(&exec);
    rec.set("exec.busy_s", (exec1[0] - exec0[0]) as f64 / 1e6);
    rec.set("exec.steal_attempts", (exec1[1] - exec0[1]) as f64);
    rec.set("exec.steal_hits", (exec1[2] - exec0[2]) as f64);
    rec.set("exec.wait_ms", median(&waits_ms));

    // Traced passes.
    set_counting(true);
    let mut traced_rates = Vec::new();
    let started = Instant::now();
    while traced_rates.len() < MIN_PASSES || started.elapsed() < half {
        let sim0 = read(&SIM_COUNTERS);
        let fallbacks0 = obs_counter("fastpath.fallbacks").get();
        // A fresh reading right before the pass; `decompose` is not timed.
        speed.slowdown();
        let pass = runner.pass(Some(&mut rec))?;
        let slowdown = speed.slowdown();
        let sim1 = read(&SIM_COUNTERS);
        rec.set(
            "fastpath.fallbacks",
            (obs_counter("fastpath.fallbacks").get() - fallbacks0) as f64,
        );
        for (name, (a, b)) in SIM_COUNTERS.iter().zip(sim0.iter().zip(&sim1)) {
            rec.add(name, (b - a) as f64);
        }
        rec.add(
            "sim.sims",
            ((sim1[3] - sim0[3]) + (sim1[4] - sim0[4])) as f64,
        );
        rec.add("sim.items", pass.items as f64);
        tally.pass(&pass, runner.digest(), reference);
        traced_rates.push(pass.items as f64 / pass.wall_s * slowdown);
        if let Err(why) = runner.decompose(&mut rec) {
            tally.fail(why);
        }
        rec.end_pass();
    }
    set_counting(false);
    library_check(&*runner, reference, &mut tally)?;

    rec.set(
        "trace.overhead_pct",
        (median(&untraced_rates) / median(&traced_rates) - 1.0) * 100.0,
    );
    if workload == Workload::FleetPopulation {
        rec.set("fleet.report_ms", rec.call_ms("build_report"));
    }
    let units: Vec<&'static str> = per_layer_defs().iter().map(|(_, d)| d.unit).collect();
    let metrics = rec
        .finish()
        .into_iter()
        .zip(units)
        .map(|((name, v), unit)| (name, v, unit))
        .collect();
    Ok(tally.outcome(metrics))
}
