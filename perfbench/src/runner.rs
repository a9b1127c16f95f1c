//! The workloads driven through the public library API: set-up, the
//! untraced pass the end-to-end metrics time, and the traced pass that
//! times each public call.

use std::collections::BTreeMap;
use std::time::Instant;

use lazyeye_campaign::{
    build_report_with, execute_with, expand, finish_from_checkpoint_with, merge_checkpoints,
    plan_refinement, run_campaign_resumable_with, run_one, Aggregator, CampaignReport,
    CampaignSpec, Checkpoint, RunContext, RunKind, RunOutput, RunSpec, Shard,
};
use lazyeye_fleet::{
    FleetPlan, FleetReport, FleetSpec, SessionContext, SessionKind, SessionOutput,
};

use crate::layers::{obs_counter, Recorder};
use crate::measure::{process_cpu_s, thread_allocs};
use crate::verify::{check_campaign, check_fleet, report_digest};
use crate::workloads::{Workload, MERGE_SHARDS};

fn load_campaign(text: &str) -> Result<CampaignSpec, String> {
    CampaignSpec::from_json(text).map_err(|e| format!("campaign spec: {e}"))
}

/// One timed pass: the window from the first item to the rendered report.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    /// Items completed: runs or sessions.
    pub items: u64,
    /// Wall time of the window.
    pub wall_s: f64,
    /// Process CPU time over the window, every thread included.
    pub cpu_s: f64,
    /// Worker-seconds the pool had: each pool call's wall time times its
    /// worker count.
    pub worker_s: f64,
}

/// Wall and process-CPU stopwatch.
struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    fn pass(&self, items: u64, worker_s: f64) -> Pass {
        Pass {
            items,
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu,
            worker_s,
        }
    }
}

/// Runs `f` as one pool call over `total` jobs on `jobs` workers, adding
/// its worker-seconds to `worker_s`.
fn pool_call<T>(worker_s: &mut f64, jobs: usize, total: usize, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *worker_s += started.elapsed().as_secs_f64() * jobs.min(total).max(1) as f64;
    out
}

/// A set-up workload, ready for passes.
pub trait Runner {
    /// One pass. With a recorder the pass does the same work with every
    /// public call timed and charged to it.
    fn pass(&mut self, rec: Option<&mut Recorder>) -> Result<Pass, String>;
    /// Times the layers the last traced pass ran inside one call.
    fn decompose(&mut self, _rec: &mut Recorder) -> Result<(), String> {
        Ok(())
    }
    /// The output checks, on the last pass's report.
    fn check(&self) -> Result<(), String>;
    /// Digest of the last pass's rendered report.
    fn digest(&self) -> u64;
    /// Digest of the same report built by the library's one-call path,
    /// for workloads that have one.
    fn library_digest(&self) -> Result<Option<u64>, String> {
        Ok(None)
    }
}

/// Sets a workload up: loads its spec, expands the plan and builds the
/// run context. With a recorder, charges the steps to it.
pub fn setup(
    workload: Workload,
    spec: &str,
    rec: Option<&mut Recorder>,
) -> Result<Box<dyn Runner>, String> {
    let mut scratch = Recorder::default();
    let rec = rec.unwrap_or(&mut scratch);
    Ok(match workload {
        Workload::CampaignSim | Workload::CampaignFastpath => {
            let fast = workload == Workload::CampaignFastpath;
            Box::new(CampaignRunner::setup(
                spec,
                workload.jobs(),
                fast,
                fast,
                rec,
            )?)
        }
        Workload::FleetPopulation => Box::new(FleetRunner::setup(spec, rec)?),
    })
}

/// [`Recorder::time`] when tracing, a plain call otherwise.
fn time<T>(
    rec: &mut Option<&mut Recorder>,
    call: &'static str,
    items: u64,
    f: impl FnOnce() -> T,
) -> T {
    match rec.as_deref_mut() {
        Some(rec) => rec.time(call, items, f),
        None => f(),
    }
}

/// Renders a report into the reusable buffers, timing each format.
fn render<R>(
    mut rec: Option<&mut Recorder>,
    report: &R,
    items: u64,
    json: &mut String,
    csv: &mut String,
    to_json: fn(&R, &mut String),
    to_csv: fn(&R, &mut String),
) {
    json.clear();
    csv.clear();
    time(&mut rec, "render_json", items, || to_json(report, json));
    time(&mut rec, "render_csv", items, || to_csv(report, csv));
    if let Some(rec) = rec {
        rec.set("render.bytes", (json.len() + csv.len()) as f64);
    }
}

// ---------------------------------------------------------------------------
// Campaigns: campaign-sim and campaign-fastpath
// ---------------------------------------------------------------------------

struct CampaignRunner {
    spec: CampaignSpec,
    pass1: Vec<RunSpec>,
    ctx: RunContext,
    jobs: usize,
    fast: bool,
    classify: bool,
    json: String,
    csv: String,
    report: Option<CampaignReport>,
    /// The last traced pass's runs and outputs, for [`Runner::decompose`].
    traced: Option<(Vec<RunSpec>, Vec<RunOutput>)>,
}

impl CampaignRunner {
    fn setup(
        text: &str,
        jobs: usize,
        fast: bool,
        classify: bool,
        rec: &mut Recorder,
    ) -> Result<CampaignRunner, String> {
        let spec = load_campaign(text)?;
        let pass1 = rec
            .time("expand", 0, || expand(&spec))
            .map_err(|e| e.to_string())?;
        rec.items("expand", pass1.len() as u64);
        let calibrations = obs_counter("fastpath.calibrations").get();
        let started = Instant::now();
        let ctx = rec
            .time("context", pass1.len() as u64, || {
                RunContext::new_with(&spec, &pass1, fast)
            })
            .map_err(|e| e.to_string())?;
        if fast {
            rec.set(
                "fastpath.calibrate_ms",
                started.elapsed().as_secs_f64() * 1e3,
            );
            rec.set(
                "fastpath.calibrations",
                (obs_counter("fastpath.calibrations").get() - calibrations) as f64,
            );
        }
        Ok(CampaignRunner {
            spec,
            pass1,
            ctx,
            jobs,
            fast,
            classify,
            json: String::new(),
            csv: String::new(),
            report: None,
            traced: None,
        })
    }

    /// Runs `runs` on the pool: through `execute_with` untraced, one
    /// timed `run_one` at a time when tracing.
    fn execute(
        &self,
        rec: &mut Option<&mut Recorder>,
        worker_s: &mut f64,
        runs: &[RunSpec],
    ) -> Vec<RunOutput> {
        match rec.as_deref_mut() {
            Some(rec) => traced_runs(&self.ctx, runs, self.jobs, rec),
            None => pool_call(worker_s, self.jobs, runs.len(), || {
                execute_with(&self.ctx, runs, self.jobs, |_, _| {}, |_, _| {})
            }),
        }
    }

    /// Splits the first pass into shard partials, then parses, merges and
    /// finishes them as `--shard` and `--merge` do, timing each step. The
    /// finished report must be byte-identical to the unsharded one.
    fn shard_round_trip(&self, rec: &mut Recorder, pass1: &[RunOutput]) -> Result<(), String> {
        let partials: Vec<String> = (0..MERGE_SHARDS)
            .map(|index| {
                let shard = Shard {
                    index,
                    count: MERGE_SHARDS,
                };
                let mut ckpt =
                    Checkpoint::new(self.spec.clone(), self.pass1.len() as u64, Some(shard));
                for (run, out) in self.pass1.iter().zip(pass1) {
                    if shard.owns(run.index) {
                        ckpt.record(run.index, out.clone());
                    }
                }
                ckpt.to_json_string()
            })
            .collect();
        let bytes: usize = partials.iter().map(String::len).sum();
        rec.set("checkpoint.bytes", bytes as f64);
        let mut parts = Vec::with_capacity(partials.len());
        for text in &partials {
            let part = rec
                .time("checkpoint_parse", 0, || Checkpoint::from_json_str(text))
                .map_err(|e| format!("partial: {e}"))?;
            rec.items("checkpoint_parse", part.completed_runs());
            parts.push(part);
        }
        let items = self.pass1.len() as u64;
        let merged = rec
            .time("checkpoint_merge", items, || merge_checkpoints(parts))
            .map_err(|e| e.to_string())?;
        let report = rec
            .time("finish", items, || {
                finish_from_checkpoint_with(&merged, 1, self.classify, |_, _| {}, |_, _| {})
            })
            .map_err(|e| e.to_string())?;
        let (merged, unsharded) = (
            report_digest(&report.to_json(), &report.to_csv()),
            self.digest(),
        );
        if merged != unsharded {
            return Err(format!(
                "merged shard report {merged:016x} differs from the unsharded {unsharded:016x}"
            ));
        }
        Ok(())
    }

    fn finish(&mut self, mut rec: Option<&mut Recorder>, runs: &[RunSpec], outputs: &[RunOutput]) {
        let items = runs.len() as u64;
        let report = time(&mut rec, "build_report", items, || {
            build_report_with(&self.spec, runs, outputs, self.classify)
        });
        render(
            rec,
            &report,
            items,
            &mut self.json,
            &mut self.csv,
            CampaignReport::to_json_into,
            CampaignReport::to_csv_into,
        );
        self.report = Some(report);
    }
}

/// Runs `runs` on the pool, timing each `run_one` call from inside the
/// job and charging it to `rec` by kind.
fn traced_runs(
    ctx: &RunContext,
    runs: &[RunSpec],
    jobs: usize,
    rec: &mut Recorder,
) -> Vec<RunOutput> {
    let fast_runs = obs_counter("fastpath.runs");
    let results = lazyeye_exec::execute_indexed_with(
        runs.len(),
        jobs,
        |i| {
            let before = fast_runs.get();
            let (a0, b0) = thread_allocs();
            let started = Instant::now();
            let out = run_one(ctx, &runs[i]);
            let us = started.elapsed().as_secs_f64() * 1e6;
            let (a1, b1) = thread_allocs();
            // Exact with one worker; with more, other workers' fast-path
            // runs can land inside this window.
            let hit = fast_runs.get() > before;
            (out, us, a1 - a0, b1 - b0, hit)
        },
        |_, _| {},
        |_, _| {},
    );
    let mut outputs = Vec::with_capacity(runs.len());
    for (run, (out, us, allocs, bytes, hit)) in runs.iter().zip(results) {
        rec.charge("run_one", us / 1e3, allocs, bytes, 1);
        let dist = match &run.kind {
            RunKind::Cad { netem, .. } => {
                if netem == "baseline" {
                    rec.add("cad_baseline_runs", 1.0);
                    rec.add("cad_fast_hits", f64::from(u8::from(hit)));
                }
                if hit {
                    "run.cad_fast_us"
                } else {
                    "run.cad_sim_us"
                }
            }
            RunKind::Rd { netem, .. } => {
                if netem == "baseline" {
                    rec.add("rd_baseline_runs", 1.0);
                    rec.add("rd_fast_hits", f64::from(u8::from(hit)));
                }
                "run.rd_us"
            }
            RunKind::Selection { .. } => "run.selection_us",
            RunKind::Resolver { .. } => "run.resolver_us",
        };
        rec.sample(dist, us);
        outputs.push(out);
    }
    outputs
}

impl Runner for CampaignRunner {
    fn pass(&mut self, mut rec: Option<&mut Recorder>) -> Result<Pass, String> {
        let watch = Stopwatch::start();
        let mut worker_s = 0.0;
        let out1 = self.execute(&mut rec, &mut worker_s, &self.pass1);
        let pass2 = time(&mut rec, "plan_refinement", self.pass1.len() as u64, || {
            plan_refinement(&self.spec, &self.pass1, &out1)
        });
        let out2 = self.execute(&mut rec, &mut worker_s, &pass2);
        let refined = pass2.len();
        let mut runs = self.pass1.clone();
        runs.extend(pass2);
        let mut outputs = out1;
        outputs.extend(out2);
        let traced = rec.is_some();
        if let Some(rec) = rec.as_deref_mut() {
            rec.set("refine.runs", refined as f64);
        }
        self.finish(rec, &runs, &outputs);
        let pass = watch.pass(runs.len() as u64, worker_s);
        if traced {
            self.traced = Some((runs, outputs));
        }
        Ok(pass)
    }

    fn decompose(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let (runs, outputs) = self.traced.take().ok_or("no traced pass to decompose")?;
        fold_and_infer(rec, &runs, &outputs, self.classify);
        if self.fast {
            self.shard_round_trip(rec, &outputs[..self.pass1.len()])?;
        }
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        check_campaign(self.report.as_ref().ok_or("no report yet")?)
    }

    fn digest(&self) -> u64 {
        report_digest(&self.json, &self.csv)
    }

    fn library_digest(&self) -> Result<Option<u64>, String> {
        let (runs, outputs) = run_campaign_resumable_with(
            &self.spec,
            self.jobs,
            self.fast,
            &BTreeMap::new(),
            |_, _| {},
            |_, _| {},
        )
        .map_err(|e| e.to_string())?;
        let report = build_report_with(&self.spec, &runs, &outputs, self.classify);
        Ok(Some(report_digest(&report.to_json(), &report.to_csv())))
    }
}

/// Times the fold and, when classified, the inference over a finished
/// campaign's runs — the two layers `build_report_with` runs inside one
/// call.
fn fold_and_infer(rec: &mut Recorder, runs: &[RunSpec], outputs: &[RunOutput], classify: bool) {
    let items = runs.len() as u64;
    let (_, features) = rec.time("aggregate", items, || {
        let mut agg = Aggregator::new();
        for (run, output) in runs.iter().zip(outputs) {
            agg.fold(run, output);
        }
        agg.finish()
    });
    if classify {
        let observations = obs_counter("infer.observations");
        let candidates = obs_counter("infer.changepoint.candidates");
        let (o0, c0) = (observations.get(), candidates.get());
        rec.time("infer", items, || {
            lazyeye_campaign::build_inference(runs, outputs, &features)
        });
        rec.set("infer.observations", (observations.get() - o0) as f64);
        rec.set("infer.candidates", (candidates.get() - c0) as f64);
    }
}

// ---------------------------------------------------------------------------
// fleet-population
// ---------------------------------------------------------------------------

struct FleetRunner {
    spec: FleetSpec,
    plan: FleetPlan,
    json: String,
    csv: String,
    report: Option<FleetReport>,
}

impl FleetRunner {
    fn setup(text: &str, rec: &mut Recorder) -> Result<FleetRunner, String> {
        let spec = FleetSpec::from_json(text).map_err(|e| format!("fleet spec: {e}"))?;
        let plan = rec.time("expand", 0, || lazyeye_fleet::expand(&spec))?;
        rec.items("expand", plan.sessions.len() as u64);
        Ok(FleetRunner {
            spec,
            plan,
            json: String::new(),
            csv: String::new(),
            report: None,
        })
    }

    /// Runs every session one timed `run_session` at a time, charging
    /// each to `rec` by kind.
    fn traced_sessions(&self, rec: &mut Recorder) -> Vec<SessionOutput> {
        let sessions = &self.plan.sessions;
        let ctx = rec.time("context", sessions.len() as u64, || {
            SessionContext::new(&self.spec, &self.plan.members)
        });
        let results = lazyeye_exec::execute_indexed_with(
            sessions.len(),
            1,
            |i| {
                let (a0, b0) = thread_allocs();
                let started = Instant::now();
                let out = lazyeye_fleet::run_session(&ctx, &sessions[i]);
                let ms = started.elapsed().as_secs_f64() * 1e3;
                let (a1, b1) = thread_allocs();
                (out, ms, a1 - a0, b1 - b0)
            },
            |_, _| {},
            |_, _| {},
        );
        let mut outputs = Vec::with_capacity(results.len());
        for (session, (out, ms, allocs, bytes)) in sessions.iter().zip(results) {
            rec.charge("run_session", ms, allocs, bytes, 1);
            let dist = match session.kind {
                SessionKind::Cad { .. } => "session.cad_ms",
                SessionKind::Rd { .. } => "session.rd_ms",
                SessionKind::RdA { .. } => "session.rd_a_ms",
                SessionKind::ResolverCheck { .. } => "session.resolver_ms",
            };
            rec.sample(dist, ms);
            outputs.push(out);
        }
        outputs
    }
}

impl Runner for FleetRunner {
    fn pass(&mut self, mut rec: Option<&mut Recorder>) -> Result<Pass, String> {
        let watch = Stopwatch::start();
        let mut worker_s = 0.0;
        let items = self.plan.sessions.len() as u64;
        let outputs = match rec.as_deref_mut() {
            Some(rec) => self.traced_sessions(rec),
            None => pool_call(&mut worker_s, 1, 1, || {
                lazyeye_fleet::run_sessions(
                    &self.spec,
                    &self.plan,
                    &BTreeMap::new(),
                    1,
                    |_, _| {},
                    |_, _| {},
                )
            }),
        };
        let report = time(&mut rec, "build_report", items, || {
            lazyeye_fleet::build_report(&self.spec, &self.plan, &outputs)
        });
        render(
            rec,
            &report,
            items,
            &mut self.json,
            &mut self.csv,
            FleetReport::to_json_into,
            FleetReport::to_csv_into,
        );
        self.report = Some(report);
        Ok(watch.pass(items, worker_s))
    }

    fn check(&self) -> Result<(), String> {
        check_fleet(self.report.as_ref().ok_or("no report yet")?)
    }

    fn digest(&self) -> u64 {
        report_digest(&self.json, &self.csv)
    }

    fn library_digest(&self) -> Result<Option<u64>, String> {
        let report = lazyeye_fleet::run_fleet(&self.spec, 1, |_, _| {})?;
        Ok(Some(report_digest(&report.to_json(), &report.to_csv())))
    }
}
