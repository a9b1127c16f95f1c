//! # lazyeye-campaign — adaptive, sharded, deterministic campaigns
//!
//! Turns the testbed from a one-case runner into a campaign engine, the
//! paper's measurement methodology at matrix scale:
//!
//! 1. **[`spec`]** — a declarative [`CampaignSpec`]: {clients × sweeps ×
//!    netem conditions × resolver profiles × repetitions} as one JSON
//!    value.
//! 2. **[`plan`]** — deterministic expansion into concrete [`RunSpec`]s,
//!    each with a seed derived from the campaign seed ([`derive_seed`]).
//! 3. **[`executor`]** — a work-stealing thread pool; every simulation
//!    is fresh (the paper's container reset) and reduces its raw capture
//!    to a small [`RunOutput`] on the worker. A cell whose runs draw no
//!    random number is simulated once and shared by its repetitions.
//! 4. **[`refine`]** — the paper's coarse→fine workflow (§5.1): every
//!    CAD/RD cell whose first pass detected a switchover bracket gets a
//!    second, fine sweep inside the bracket at `refine_step_ms`
//!    resolution.
//! 5. **[`aggregate`]** — a streaming fold into per-cell summaries
//!    (exact min/max/mean, P² median/p95, switchover detection, feature
//!    flags) in run-index order.
//! 6. **[`report`]** — JSON/CSV/text emitters plus a Table-2 style
//!    feature-matrix roll-up.
//! 7. **[`checkpoint`]** — resumable progress (`--checkpoint`/
//!    `--resume`) and multi-machine sharding (`--shard i/n` +
//!    `--merge`): a [`Checkpoint`] is the shared
//!    [`lazyeye_exec::Partial`] state for campaigns, whose state, shard
//!    loop, merge and stitch are written once in `lazyeye-exec`; this
//!    crate supplies the [`RunOutput`] JSON mapping.
//!
//! **Determinism contract:** the report is a pure function of
//! `(CampaignSpec, seed)`. Worker count, scheduling, steal patterns,
//! kills/resumes and shard splits never leak into it — `--jobs 1`,
//! `--jobs 8`, a resumed run and a merged shard set all yield
//! byte-identical JSON and CSV.
//!
//! ```
//! use lazyeye_campaign::{run_campaign, CampaignSpec};
//!
//! let mut spec = CampaignSpec::default();
//! spec.clients = vec!["curl-7.88.1".into()];
//! spec.cad = Some(lazyeye_testbed::CadCaseConfig {
//!     sweep: lazyeye_testbed::SweepSpec::new(150, 250, 50),
//!     repetitions: 1,
//! });
//! spec.rd = None;
//! spec.selection = None;
//! spec.resolver = None;
//! let report = run_campaign(&spec, 2, |_done, _total| {}).unwrap();
//! // Coarse pass: 150/200/250 brackets curl's 200 ms CAD at (200, 250);
//! // the automatic 5 ms fine pass pins the switchover to 205.
//! assert_eq!(report.total_runs, 3 + 9);
//! assert_eq!(report.refined_runs, 9);
//! assert_eq!(report.cells[0].last_v6_delay_ms, Some(200));
//! assert_eq!(report.cells[0].first_v4_delay_ms, Some(205));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod checkpoint;
pub mod executor;
pub mod forensics;
pub mod inference;
pub mod plan;
pub mod profile;
pub mod refine;
pub mod report;
pub mod spec;

use std::collections::BTreeMap;

use lazyeye_exec::{check_kinds, run_stitched};

use executor::execute_runs;

pub use aggregate::{Aggregator, CellReport, FeatureSummary, P2Quantile, StreamStats};
pub use checkpoint::{merge_checkpoints, Campaign, Checkpoint, Shard};
pub use executor::{execute, execute_with, run_one, RunContext, RunOutput};
pub use forensics::{replay, ReplayReport, RunProvenance};
pub use inference::{build_inference, InferenceSection, InferredClientReport};
pub use plan::{derive_seed, expand, split_rd_condition, RunKind, RunLabel, RunSpec, SpecError};
pub use profile::{
    fold_row, profile_campaign, profile_runs, stall_cross_checks, BudgetRow, LatencyBudget,
    StallCrossCheck,
};
pub use refine::{derive_refine_seed, plan_refinement};
pub use report::{diff_reports, CampaignReport, ReportDiff};
pub use spec::{CampaignSpec, NetemSpec, RdPlan, SelectionPlan};

/// Expands, executes (both passes) and aggregates a campaign in one call.
///
/// `jobs` is the worker-thread count (clamped to at least 1); `progress`
/// receives `(finished, total)` after every run, on the calling thread.
/// The total grows once the first pass completes and the refinement pass
/// is planned.
pub fn run_campaign(
    spec: &CampaignSpec,
    jobs: usize,
    progress: impl FnMut(usize, usize),
) -> Result<CampaignReport, SpecError> {
    run_campaign_with(spec, jobs, false, progress)
}

/// [`run_campaign`] with the analytic fast path toggled by `fast_path`:
/// when set, baseline-netem CAD/RD cells run through calibrated
/// [`lazyeye_core::fastpath`] models instead of full simulation wherever
/// the models verify (see [`RunContext::new_with`]). The report is
/// byte-identical either way — the fast path only changes how fast it is
/// computed.
pub fn run_campaign_with(
    spec: &CampaignSpec,
    jobs: usize,
    fast_path: bool,
    progress: impl FnMut(usize, usize),
) -> Result<CampaignReport, SpecError> {
    let (runs, outputs) =
        run_campaign_resumable_with(spec, jobs, fast_path, &BTreeMap::new(), progress, |_, _| {})?;
    Ok(build_report(spec, &runs, &outputs))
}

/// Runs both campaign passes, skipping every run whose output is already
/// present in `completed` (keyed by run index — a loaded [`Checkpoint`]'s
/// [`Checkpoint::completed`] map, or empty for a fresh campaign).
///
/// Returns all runs and their outputs **in run-index order**, pass 1
/// followed by the refinement pass. `on_result` fires on the calling
/// thread for each *newly executed* run (completion order is
/// scheduling-dependent) — wire periodic checkpoint saves here.
///
/// Because the refinement plan is a pure function of the first pass's
/// outputs, resuming from any checkpoint reproduces the exact run list —
/// and therefore a byte-identical report — of an uninterrupted campaign.
pub fn run_campaign_resumable(
    spec: &CampaignSpec,
    jobs: usize,
    completed: &BTreeMap<u64, RunOutput>,
    progress: impl FnMut(usize, usize),
    on_result: impl FnMut(&RunSpec, &RunOutput),
) -> Result<(Vec<RunSpec>, Vec<RunOutput>), SpecError> {
    run_campaign_resumable_with(spec, jobs, false, completed, progress, on_result)
}

/// [`run_campaign_resumable`] with the analytic fast path toggled by
/// `fast_path` (see [`run_campaign_with`]). A stored output whose kind
/// does not match its run is refused before anything folds it.
pub fn run_campaign_resumable_with(
    spec: &CampaignSpec,
    jobs: usize,
    fast_path: bool,
    completed: &BTreeMap<u64, RunOutput>,
    mut progress: impl FnMut(usize, usize),
    mut on_result: impl FnMut(&RunSpec, &RunOutput),
) -> Result<(Vec<RunSpec>, Vec<RunOutput>), SpecError> {
    let pass1 = expand(spec)?;
    let ctx = RunContext::new_with(spec, &pass1, fast_path)?;
    check_kinds::<Campaign>(&pass1, completed).map_err(SpecError::new)?;

    let mut base = 0;
    let pass1_span = lazyeye_obs::trace::wall_span("campaign.pass1");
    let outputs1 = run_stitched::<Campaign>(
        &pass1,
        completed,
        |pending, hook| {
            base = pending.len();
            execute_runs(&ctx, pending, jobs, &mut progress, hook)
        },
        &mut on_result,
    );
    drop(pass1_span);

    // The refinement pass extends the progress total past the first.
    let pass2 = refine::plan_refinement(spec, &pass1, &outputs1);
    forensics::on_refinement_brackets(spec, &pass2);
    check_kinds::<Campaign>(&pass2, completed).map_err(SpecError::new)?;
    let _refine_span = lazyeye_obs::trace::wall_span("campaign.refine");
    let outputs2 = run_stitched::<Campaign>(
        &pass2,
        completed,
        |pending, hook| {
            let progress = |done, total| progress(base + done, base + total);
            execute_runs(&ctx, pending, jobs, progress, hook)
        },
        on_result,
    );

    let mut runs = pass1;
    runs.extend(pass2);
    let mut outputs = outputs1;
    outputs.extend(outputs2);
    Ok((runs, outputs))
}

/// Folds `(run, output)` pairs — as returned by
/// [`run_campaign_resumable`] — into the final report.
pub fn build_report(
    spec: &CampaignSpec,
    runs: &[RunSpec],
    outputs: &[RunOutput],
) -> CampaignReport {
    build_report_with(spec, runs, outputs, false)
}

/// [`build_report`] with the inference section toggled by `classify`:
/// when set, the report additionally carries the changepoint-inferred
/// per-client profiles, their RFC 8305 conformance verdicts, and the
/// agreement diff between the inference-derived and the summary-derived
/// feature matrices.
pub fn build_report_with(
    spec: &CampaignSpec,
    runs: &[RunSpec],
    outputs: &[RunOutput],
    classify: bool,
) -> CampaignReport {
    let mut agg = Aggregator::new();
    for (run, output) in runs.iter().zip(outputs) {
        agg.fold(run, output);
    }
    let (cells, features) = agg.finish();
    lazyeye_obs::counter("campaign.cells", lazyeye_obs::Clock::Virtual).add(cells.len() as u64);
    let inference = classify.then(|| {
        let index = inference::ObservationIndex::new(runs, outputs);
        let section = inference::infer_index(&index, &features);
        forensics::on_inference(spec, runs, &index, &section);
        section
    });
    CampaignReport {
        name: spec.name.clone(),
        seed: spec.seed,
        total_runs: runs.len() as u64,
        refined_runs: runs.iter().filter(|r| r.refined).count() as u64,
        cells,
        features,
        inference,
    }
}

/// Executes one shard of a campaign's **first pass** — runs with
/// `index % shard.count == shard.index` — and returns the partial state
/// for [`merge_checkpoints`]. Prior progress in `resume_from` (a partial
/// checkpoint of the *same* shard) is kept and skipped over. `on_record`
/// sees the partial after every completed run (wire periodic saves here).
///
/// Shards deliberately stop before the refinement pass: the refinement
/// plan needs every first-pass cell, which no single shard has. The merge
/// side ([`finish_from_checkpoint_with`]) runs it — the fine pass is a few
/// dozen runs where the coarse pass is hundreds, so distributing it buys
/// nothing.
pub fn run_shard(
    spec: &CampaignSpec,
    jobs: usize,
    shard: Shard,
    resume_from: Option<Checkpoint>,
    progress: impl FnMut(usize, usize),
    on_record: impl FnMut(&Checkpoint),
) -> Result<Checkpoint, SpecError> {
    let pass1 = expand(spec)?;
    let ctx = RunContext::new(spec)?;
    let mut ckpt = match resume_from {
        Some(c) => {
            if &c.spec != spec {
                return Err(SpecError::new("resume: checkpoint is for a different spec"));
            }
            if c.shard != Some(shard) {
                return Err(SpecError::new(
                    "resume: checkpoint was produced under a different shard",
                ));
            }
            c.validate_shape(pass1.len() as u64)
                .map_err(SpecError::new)?;
            c
        }
        None => Checkpoint::new(spec.clone(), pass1.len() as u64, Some(shard)),
    };
    ckpt.run_pending(
        &pass1,
        |pending, hook| execute_runs(&ctx, pending, jobs, progress, hook),
        on_record,
    );
    Ok(ckpt)
}

/// Finishes a campaign from stored state: executes whatever the
/// checkpoint is missing (first pass and refinement pass), and builds the
/// canonical report — byte-identical to an uninterrupted run — with the
/// inference section toggled by `classify` (see [`build_report_with`]).
///
/// This is both `--resume` (an interrupted checkpoint) and the tail of
/// `--merge` (a union of shard partials). Missing first-pass runs are
/// executed locally, so a merge of incomplete partials still produces the
/// canonical report — check [`Checkpoint::missing`] first if you want to
/// warn instead.
pub fn finish_from_checkpoint_with(
    ckpt: &Checkpoint,
    jobs: usize,
    classify: bool,
    progress: impl FnMut(usize, usize),
    on_result: impl FnMut(&RunSpec, &RunOutput),
) -> Result<CampaignReport, SpecError> {
    let spec = &ckpt.spec;
    ckpt.validate_shape(expand(spec)?.len() as u64)
        .map_err(SpecError::new)?;
    let (runs, outputs) =
        run_campaign_resumable(spec, jobs, ckpt.completed(), progress, on_result)?;
    Ok(build_report_with(spec, &runs, &outputs, classify))
}

// Send-safety audit: the executor moves run specs into worker threads and
// their outputs back out. These bounds are load-bearing — a regression
// (an Rc or raw Sim handle creeping into a spec/output type) must fail to
// compile here, not deadlock at runtime.
#[allow(dead_code)]
fn send_audit() {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<RunSpec>();
    assert_sync::<RunSpec>();
    assert_send::<RunOutput>();
    assert_send::<CampaignSpec>();
    assert_send::<CampaignReport>();
    assert_sync::<RunContext>();
    assert_send::<lazyeye_clients::ClientProfile>();
    assert_send::<lazyeye_resolver::ResolverProfile>();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE's agreement gate: the default CAD-sweep campaign must
    /// produce a byte-identical report with the fast path on. Every
    /// divergence between the analytic model and the simulator — timing,
    /// ordering, sample conversion — surfaces here as a JSON diff.
    #[test]
    fn fast_path_report_byte_identical_cad() {
        let spec = CampaignSpec {
            rd: None,
            selection: None,
            resolver: None,
            ..CampaignSpec::default()
        };
        let slow = run_campaign(&spec, 4, |_, _| {}).unwrap();
        let fast = run_campaign_with(&spec, 4, true, |_, _| {}).unwrap();
        assert_eq!(slow.to_json(), fast.to_json());
        assert_eq!(slow.to_csv(), fast.to_csv());
    }

    /// Same gate for the RD plan (both delayed-record variants).
    #[test]
    fn fast_path_report_byte_identical_rd() {
        let spec = CampaignSpec {
            cad: None,
            selection: None,
            resolver: None,
            ..CampaignSpec::default()
        };
        let slow = run_campaign(&spec, 4, |_, _| {}).unwrap();
        let fast = run_campaign_with(&spec, 4, true, |_, _| {}).unwrap();
        assert_eq!(slow.to_json(), fast.to_json());
        // Identical reports alone would also pass with every RD run
        // simulated: the models must really be there to serve the runs.
        let runs = plan::expand(&spec).unwrap();
        let ctx = RunContext::new_with(&spec, &runs, true).unwrap();
        let clients = spec.clients.len();
        assert_eq!(
            ctx.fast_models(),
            (0, 2 * clients),
            "every RD model verifies"
        );
    }

    #[test]
    fn tiny_campaign_end_to_end() {
        let spec = CampaignSpec {
            name: "tiny".into(),
            seed: 7,
            clients: vec!["chrome-130.0".into(), "wget-1.21.3".into()],
            resolvers: vec!["BIND".into()],
            netem: vec![NetemSpec::baseline()],
            cad: Some(lazyeye_testbed::CadCaseConfig {
                sweep: lazyeye_testbed::SweepSpec::new(280, 320, 20),
                repetitions: 1,
            }),
            rd: Some(RdPlan {
                records: vec![lazyeye_testbed::DelayedRecord::Aaaa],
                sweep: lazyeye_testbed::SweepSpec::new(300, 300, 1),
                repetitions: 1,
            }),
            selection: Some(SelectionPlan {
                repetitions: 1,
                ..SelectionPlan::default()
            }),
            resolver: Some(lazyeye_testbed::ResolverCaseConfig {
                sweep: lazyeye_testbed::SweepSpec::new(0, 0, 1),
                repetitions: 2,
            }),
            refine_step_ms: Some(5),
        };
        let report = run_campaign(&spec, 4, |_, _| {}).unwrap();
        // Chrome's coarse CAD bracket (300, 320) refines at 5 ms: 3 extra
        // runs (305/310/315); wget never falls back, so nothing else does.
        assert_eq!(report.refined_runs, 3);
        assert_eq!(report.total_runs, 6 + 2 + 2 + 2 + 3);

        // Chromium's 300 ms CAD: v6 still wins at 300; the fine pass pins
        // the first v4 fallback to 305 (the coarse pass alone said 320).
        let chrome_cad = report
            .cells
            .iter()
            .find(|c| c.case == "cad" && c.subject == "chrome-130.0")
            .unwrap();
        assert_eq!(chrome_cad.last_v6_delay_ms, Some(300));
        assert_eq!(chrome_cad.first_v4_delay_ms, Some(305));
        assert_eq!(chrome_cad.implements_cad, Some(true));

        // wget never falls back.
        let wget_cad = report
            .cells
            .iter()
            .find(|c| c.case == "cad" && c.subject == "wget-1.21.3")
            .unwrap();
        assert_eq!(wget_cad.implements_cad, Some(false));

        // Feature roll-up covers both clients.
        assert_eq!(report.features.len(), 2);
        let wget = report
            .features
            .iter()
            .find(|f| f.client == "wget-1.21.3")
            .unwrap();
        assert!(!wget.cad_impl && !wget.rd_impl && !wget.addr_selection);

        // BIND prefers IPv6 at zero delay.
        let bind = report
            .cells
            .iter()
            .find(|c| c.case == "resolver" && c.subject == "BIND")
            .unwrap();
        assert_eq!(bind.v6_share_pct, Some(100.0));
    }
}
