//! The sharded executor: fans campaign runs out across worker threads.
//!
//! Each worker owns fresh `Sim` instances per run — the in-process
//! equivalent of the paper's container reset — so runs are isolated and
//! their outputs independent of scheduling. The scheduling itself (the
//! work-stealing pool with index-ordered results) is the shared
//! [`lazyeye_exec`] layer; this module contributes the campaign-specific
//! glue: resolving spec ids into profiles once ([`RunContext`]),
//! driving each fast-path cell once per execution ([`CellMemo`]) and
//! reducing each run to a small [`RunOutput`] on the worker.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

use lazyeye_clients::ClientProfile;
use lazyeye_exec::execute_indexed_with;
use lazyeye_net::NetemRule;
use lazyeye_resolver::ResolverProfile;
use lazyeye_testbed::{
    book_cell, book_run, run_cad_once, run_rd_once_netem, run_resolver_once_netem,
    run_selection_once_netem, CadFastPath, CadSample, DelayedRecord, RdFastPath, RdSample,
    ResolverSample, SelectionCaseConfig, SelectionResult,
};

use crate::plan::{resolve_clients, resolve_resolvers, RunKind, RunSpec, SpecError};
use crate::spec::CampaignSpec;

/// Registry handles for campaign-level metrics. Run counts are a pure
/// function of `(spec, seed)` and live on the virtual clock; per-run
/// host latency is the executor's `exec.job_wall_us`.
struct CampaignMetrics {
    runs: &'static lazyeye_obs::Counter,
    runs_refined: &'static lazyeye_obs::Counter,
}

fn metrics() -> &'static CampaignMetrics {
    static METRICS: std::sync::OnceLock<CampaignMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| CampaignMetrics {
        runs: lazyeye_obs::counter("campaign.runs", lazyeye_obs::Clock::Virtual),
        runs_refined: lazyeye_obs::counter("campaign.runs_refined", lazyeye_obs::Clock::Virtual),
    })
}

/// Human-readable cell label for progress display and timeline spans.
fn run_label(run: &RunSpec) -> String {
    match &run.kind {
        RunKind::Cad {
            client,
            delay_ms,
            rep,
            ..
        } => format!("cad {client} delay={delay_ms}ms rep={rep}"),
        RunKind::Rd {
            client,
            record,
            delay_ms,
            rep,
            ..
        } => format!("rd {client} {record:?} delay={delay_ms}ms rep={rep}"),
        RunKind::Selection { client, .. } => format!("selection {client}"),
        RunKind::Resolver {
            resolver,
            delay_ms,
            rep,
            ..
        } => format!("resolver {resolver} delay={delay_ms}ms rep={rep}"),
    }
}

/// The measured outcome of one run (a per-run reduction of the raw packet
/// capture — raw samples never leave the worker).
#[derive(Clone, Debug)]
pub enum RunOutput {
    /// CAD run outcome.
    Cad(CadSample),
    /// RD run outcome.
    Rd(RdSample),
    /// Selection run outcome.
    Selection(SelectionResult),
    /// Resolver run outcome.
    Resolver(ResolverSample),
}

/// Pre-resolved lookup tables the workers need: profile objects and netem
/// rules by name. Shared immutably across all workers.
pub struct RunContext {
    /// The spec the context was built from. The forensics layer needs it
    /// on the worker to stamp full provenance into trigger bundles.
    spec: CampaignSpec,
    clients: HashMap<String, ClientProfile>,
    resolvers: HashMap<String, ResolverProfile>,
    netem: HashMap<String, Vec<NetemRule>>,
    selection: SelectionCaseConfig,
    fast: FastCache,
}

/// Calibrated fast-path models, one per client (CAD) and per
/// `(client, delayed record)` (RD). Empty unless the campaign opted into
/// `--fast-path`. Calibration runs eagerly at context build time — before
/// workers exist — so the cache is shared immutably afterwards (the
/// models hold only owned data; `RunContext` must stay `Sync`).
#[derive(Default)]
struct FastCache {
    cad: HashMap<String, CadFastPath>,
    /// Keyed record-first so a run looks its model up by `&str`.
    rd: HashMap<DelayedRecord, HashMap<String, RdFastPath>>,
}

impl FastCache {
    /// Calibrates a model per baseline cell of the expanded plan,
    /// verifying each against the real first-pass runs at the sweep
    /// endpoints (rep 0, the runs' own seeds). A client whose model fails
    /// verification simply stays out of the cache and simulates normally.
    fn build(ctx: &RunContext, spec: &CampaignSpec, runs: &[RunSpec]) -> FastCache {
        // (delay -> seed) per subject, baseline netem and rep 0 only.
        let mut cad_cells: HashMap<&str, std::collections::BTreeMap<u64, u64>> = HashMap::new();
        let mut rd_cells: HashMap<(&str, DelayedRecord), std::collections::BTreeMap<u64, u64>> =
            HashMap::new();
        for run in runs {
            match &run.kind {
                RunKind::Cad {
                    client,
                    netem,
                    delay_ms,
                    rep: 0,
                } if ctx.netem(netem).is_empty() => {
                    cad_cells
                        .entry(client)
                        .or_default()
                        .insert(*delay_ms, run.seed);
                }
                RunKind::Rd {
                    client,
                    netem,
                    record,
                    delay_ms,
                    rep: 0,
                } if ctx.netem(netem).is_empty() => {
                    rd_cells
                        .entry((client, *record))
                        .or_default()
                        .insert(*delay_ms, run.seed);
                }
                _ => {}
            }
        }
        let endpoints = |m: &std::collections::BTreeMap<u64, u64>| -> Vec<(u64, u64)> {
            let mut v: Vec<(u64, u64)> = m
                .first_key_value()
                .into_iter()
                .chain(m.last_key_value())
                .map(|(d, s)| (*d, *s))
                .collect();
            v.dedup();
            v
        };
        let mut fast = FastCache::default();
        for (client, cells) in cad_cells {
            let profile = ctx.client(client);
            if let Some(fp) = CadFastPath::calibrate(profile, spec.seed, &endpoints(&cells)) {
                fast.cad.insert(client.to_string(), fp);
            }
        }
        for ((client, record), cells) in rd_cells {
            let profile = ctx.client(client);
            if let Some(fp) = RdFastPath::calibrate(profile, record, spec.seed, &endpoints(&cells))
            {
                fast.rd
                    .entry(record)
                    .or_default()
                    .insert(client.to_string(), fp);
            }
        }
        fast
    }

    fn is_empty(&self) -> bool {
        self.cad.is_empty() && self.rd.is_empty()
    }

    /// The model serving `client`'s CAD runs (`record` `None`) or its RD
    /// runs delaying `record`.
    fn model(&self, client: &str, record: Option<DelayedRecord>) -> Option<Model<'_>> {
        match record {
            None => self.cad.get(client).map(Model::Cad),
            Some(record) => self.rd.get(&record)?.get(client).map(Model::Rd),
        }
    }
}

/// A calibrated model, borrowed from the [`FastCache`].
#[derive(Clone, Copy)]
enum Model<'c> {
    Cad(&'c CadFastPath),
    Rd(&'c RdFastPath),
}

/// A CAD or RD run's fields bar `rep`: `(client, netem, delayed record,
/// delay)`, the record `None` for CAD. A fast-path cell is a model at one
/// delay; the models are seed-free, so every run of a cell — each
/// repetition, under each netem label with empty rules — has the same
/// outcome.
type RunCell<'r> = (&'r str, &'r str, Option<DelayedRecord>, u64);

fn run_cell(kind: &RunKind) -> Option<RunCell<'_>> {
    match kind {
        RunKind::Cad {
            client,
            netem,
            delay_ms,
            ..
        } => Some((client, netem, None, *delay_ms)),
        RunKind::Rd {
            client,
            netem,
            record,
            delay_ms,
            ..
        } => Some((client, netem, Some(*record), *delay_ms)),
        RunKind::Selection { .. } | RunKind::Resolver { .. } => None,
    }
}

/// One cell's model and its outcome, driven by the first run that needs
/// it.
struct FastCell<'c> {
    model: Model<'c>,
    delay_ms: u64,
    /// The model's output, with `rep` 0, or why it refused the cell.
    outcome: OnceLock<Result<RunOutput, &'static str>>,
}

impl<'c> FastCell<'c> {
    fn new(model: Model<'c>, delay_ms: u64) -> FastCell<'c> {
        FastCell {
            model,
            delay_ms,
            outcome: OnceLock::new(),
        }
    }

    /// Serves one run of the cell: books the run as fast or as a
    /// fallback, and returns the cell's output stamped with the run's own
    /// `rep`, or the refusal reason. The cell is driven on first use.
    fn serve(&self, kind: &RunKind) -> Result<RunOutput, &'static str> {
        let outcome = self.outcome.get_or_init(|| {
            book_cell();
            match self.model {
                Model::Cad(fp) => fp.cell(self.delay_ms).map(RunOutput::Cad),
                Model::Rd(fp) => fp.cell(self.delay_ms).map(RunOutput::Rd),
            }
        });
        book_run(outcome);
        match (outcome, kind) {
            (Ok(RunOutput::Cad(s)), RunKind::Cad { rep, .. }) => {
                Ok(RunOutput::Cad(CadSample { rep: *rep, ..*s }))
            }
            (Ok(RunOutput::Rd(s)), RunKind::Rd { rep, .. }) => {
                Ok(RunOutput::Rd(RdSample { rep: *rep, ..*s }))
            }
            (Ok(_), _) => unreachable!("a cell serves only runs of its model's kind"),
            (Err(reason), _) => Err(reason),
        }
    }
}

/// The fast-path cells of one [`execute_with`] call, shared by every pool
/// worker: each cell is driven exactly once, whatever the worker count.
/// It lives for the call, not in the [`RunContext`], so every execution
/// pays for its own cells.
struct CellMemo<'c> {
    /// Per model, its cells in order of first use. One vector per model
    /// rather than one for all cells: on a 36k-run campaign the single
    /// large vector measured 8 MiB more peak RSS for the same work,
    /// through where the allocator then placed each pass's buffers.
    cells: Vec<Vec<FastCell<'c>>>,
    /// Per run position, its cell as (model, index in the model's
    /// cells); [`NO_CELL`] when no model serves the run.
    cell_of: Vec<(u32, u32)>,
}

const NO_CELL: (u32, u32) = (u32::MAX, u32::MAX);

impl<'c> CellMemo<'c> {
    /// Maps every run of `runs` to its cell, so a run finds its model and
    /// its outcome slot by position alone. Memory grows with the number
    /// of distinct cells, plus one index per run.
    fn new<R: Borrow<RunSpec>>(ctx: &'c RunContext, runs: &[R]) -> CellMemo<'c> {
        // Per (client, record): the number of its model, or `None` when
        // no model serves it.
        let mut numbers: HashMap<(&str, Option<DelayedRecord>), Option<u32>> = HashMap::new();
        // Per model number: the model, its cells' indices by delay, and
        // its cells.
        let mut models: Vec<(Model<'c>, BTreeMap<u64, u32>, Vec<FastCell<'c>>)> = Vec::new();
        let mut cell_of = Vec::with_capacity(runs.len());
        // Expansion lists runs grouped by (client, netem, record), and a
        // cell's repetitions back to back: a run looks up its model only
        // where the group changes, and its cell only where the delay does.
        let mut last: Option<(RunCell<'_>, Option<u32>, (u32, u32))> = None;
        for run in runs {
            let Some(fields @ (client, netem, record, delay_ms)) = run_cell(&run.borrow().kind)
            else {
                cell_of.push(NO_CELL);
                continue;
            };
            let number = match last {
                Some(((c, n, r, _), number, _)) if (c, n, r) == (client, netem, record) => number,
                _ if !ctx.netem(netem).is_empty() => None,
                _ => *numbers.entry((client, record)).or_insert_with(|| {
                    let model = ctx.fast.model(client, record)?;
                    models.push((model, BTreeMap::new(), Vec::new()));
                    Some(u32::try_from(models.len() - 1).expect("fewer than 2^32 models"))
                }),
            };
            let cell = match (last, number) {
                (Some((prev, _, cell)), _) if prev == fields => cell,
                (_, None) => NO_CELL,
                (_, Some(m)) => {
                    let (model, by_delay, cells) = &mut models[m as usize];
                    let i = *by_delay.entry(delay_ms).or_insert_with(|| {
                        cells.push(FastCell::new(*model, delay_ms));
                        u32::try_from(cells.len() - 1).expect("fewer than 2^32 cells a model")
                    });
                    (m, i)
                }
            };
            last = Some((fields, number, cell));
            cell_of.push(cell);
        }
        let cells = models.into_iter().map(|(_, _, cells)| cells).collect();
        CellMemo { cells, cell_of }
    }

    fn cell(&self, position: usize) -> Option<&FastCell<'c>> {
        let (model, index) = self.cell_of[position];
        self.cells.get(model as usize)?.get(index as usize)
    }
}

impl RunContext {
    /// Builds the context for a spec (resolving ids up front so workers
    /// never fail on lookups).
    pub fn new(spec: &CampaignSpec) -> Result<RunContext, SpecError> {
        Self::build(spec)
    }

    /// [`RunContext::new`], optionally with the analytic fast path: when
    /// `fast_path` is set, CAD/RD models are calibrated against the
    /// expanded plan's own endpoint runs and used for every baseline-netem
    /// cell they verify on. Cells the models refuse (ties, QUIC profiles,
    /// shaped netem, failed verification) simulate as usual, so the
    /// resulting report stays byte-identical either way.
    pub fn new_with(
        spec: &CampaignSpec,
        runs: &[RunSpec],
        fast_path: bool,
    ) -> Result<RunContext, SpecError> {
        let mut ctx = Self::build(spec)?;
        if fast_path {
            ctx.fast = FastCache::build(&ctx, spec, runs);
        }
        Ok(ctx)
    }

    fn build(spec: &CampaignSpec) -> Result<RunContext, SpecError> {
        let clients = resolve_clients(spec)?
            .into_iter()
            .map(|c| (c.id(), c))
            .collect();
        let resolvers = resolve_resolvers(spec)?
            .into_iter()
            .map(|p| (p.name.to_string(), p))
            .collect();
        let mut netem: HashMap<String, Vec<NetemRule>> = spec
            .netem
            .iter()
            .map(|n| (n.label.clone(), n.rules()))
            .collect();
        netem
            .entry(crate::spec::NetemSpec::baseline().label)
            .or_default();
        let selection = spec
            .selection
            .as_ref()
            .map(|s| SelectionCaseConfig {
                v6_addresses: s.v6_addresses,
                v4_addresses: s.v4_addresses,
                attempt_timeout_ms: s.attempt_timeout_ms,
            })
            .unwrap_or_default();
        Ok(RunContext {
            spec: spec.clone(),
            clients,
            resolvers,
            netem,
            selection,
            fast: FastCache::default(),
        })
    }

    fn client(&self, id: &str) -> &ClientProfile {
        self.clients
            .get(id)
            .unwrap_or_else(|| panic!("run references unresolved client {id:?}"))
    }

    /// A fresh cell for one run, outside any [`CellMemo`], when a model
    /// serves the run: a CAD or RD run under a netem label with empty
    /// rules.
    fn fast_cell(&self, kind: &RunKind) -> Option<FastCell<'_>> {
        if self.fast.is_empty() {
            return None;
        }
        let (client, netem, record, delay_ms) = run_cell(kind)?;
        if !self.netem(netem).is_empty() {
            return None;
        }
        Some(FastCell::new(self.fast.model(client, record)?, delay_ms))
    }

    /// Verified fast-path models held: `(cad, rd)`.
    #[cfg(test)]
    pub(crate) fn fast_models(&self) -> (usize, usize) {
        let rd = self.fast.rd.values().map(HashMap::len).sum();
        (self.fast.cad.len(), rd)
    }

    fn netem(&self, label: &str) -> &[NetemRule] {
        self.netem
            .get(label)
            .unwrap_or_else(|| panic!("run references unresolved netem {label:?}"))
    }
}

/// Executes a single run in a fresh simulation, or through its fast-path
/// model when one serves it. Each call drives the model afresh; only
/// [`execute_with`] shares a cell's outcome between runs.
///
/// Worker panics are forwarded unchanged, but when the flight recorder's
/// trigger engine is armed, a `run-panic` bundle (provenance + panic
/// message, no trace) is written first — the black box survives the
/// crash it describes.
pub fn run_one(ctx: &RunContext, run: &RunSpec) -> RunOutput {
    run_one_with(ctx, run, ctx.fast_cell(&run.kind).as_ref())
}

/// [`run_one`] served by `cell` when it is given.
fn run_one_with(ctx: &RunContext, run: &RunSpec, cell: Option<&FastCell<'_>>) -> RunOutput {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_one_inner(ctx, run, cell)
    })) {
        Ok(out) => out,
        Err(payload) => {
            crate::forensics::on_run_panic(
                &ctx.spec,
                run,
                &crate::forensics::panic_message(payload.as_ref()),
            );
            std::panic::resume_unwind(payload)
        }
    }
}

fn run_one_inner(ctx: &RunContext, run: &RunSpec, cell: Option<&FastCell<'_>>) -> RunOutput {
    let m = metrics();
    m.runs.inc();
    if run.refined {
        m.runs_refined.inc();
    }
    lazyeye_obs::progress::annotate(|| run_label(run));
    lazyeye_obs::recorder::record(lazyeye_obs::Clock::Virtual, "campaign.run", || {
        run_label(run)
    });
    let _span = if lazyeye_obs::trace::enabled() {
        lazyeye_obs::trace::wall_span(run_label(run))
    } else {
        None
    };
    match cell.map(|cell| cell.serve(&run.kind)) {
        Some(Ok(out)) => out,
        Some(Err(reason)) => {
            let out = simulate(ctx, run);
            crate::forensics::on_fastpath_fallback(&ctx.spec, run, reason);
            out
        }
        None => simulate(ctx, run),
    }
}

/// Runs `run` in a fresh simulation under its own seed.
fn simulate(ctx: &RunContext, run: &RunSpec) -> RunOutput {
    match &run.kind {
        RunKind::Cad {
            client,
            netem,
            delay_ms,
            rep,
        } => RunOutput::Cad(run_cad_once(
            ctx.client(client),
            *delay_ms,
            *rep,
            run.seed,
            ctx.netem(netem),
        )),
        RunKind::Rd {
            client,
            netem,
            record,
            delay_ms,
            rep,
        } => RunOutput::Rd(run_rd_once_netem(
            ctx.client(client),
            *record,
            *delay_ms,
            *rep,
            run.seed,
            ctx.netem(netem),
        )),
        RunKind::Selection {
            client,
            netem,
            rep: _,
        } => RunOutput::Selection(run_selection_once_netem(
            ctx.client(client),
            &ctx.selection,
            run.seed,
            ctx.netem(netem),
        )),
        RunKind::Resolver {
            resolver,
            netem,
            delay_ms,
            rep,
        } => {
            let profile = ctx
                .resolvers
                .get(&**resolver)
                .unwrap_or_else(|| panic!("run references unresolved resolver {resolver:?}"));
            RunOutput::Resolver(run_resolver_once_netem(
                profile,
                *delay_ms,
                *rep,
                run.seed,
                ctx.netem(netem),
            ))
        }
    }
}

/// Executes every run, fanning out over `jobs` worker threads, and
/// returns the outputs **in run-index order**.
///
/// `progress` is invoked on the calling thread after every finished run
/// with `(finished_so_far, total)` — wire it to a progress bar or ETA
/// display; it has no effect on the results.
pub fn execute(
    ctx: &RunContext,
    runs: &[RunSpec],
    jobs: usize,
    progress: impl FnMut(usize, usize),
) -> Vec<RunOutput> {
    execute_with(ctx, runs, jobs, progress, |_, _| {})
}

/// [`execute`] with a per-result hook: `on_result(position, output)` fires
/// on the calling thread as each run finishes, where `position` is the
/// run's position in the `runs` slice. Completion order is
/// scheduling-dependent — the hook is for side channels (checkpoints,
/// logs), never for anything that feeds the report.
///
/// With the fast path on, the call drives each distinct fast-path cell
/// once and copies its outcome into every run of the cell; the outputs
/// and the per-run `fastpath.runs` / `fastpath.fallbacks` counts equal a
/// [`run_one`] loop's.
pub fn execute_with(
    ctx: &RunContext,
    runs: &[RunSpec],
    jobs: usize,
    progress: impl FnMut(usize, usize),
    on_result: impl FnMut(usize, &RunOutput),
) -> Vec<RunOutput> {
    execute_runs(ctx, runs, jobs, progress, on_result)
}

/// [`execute_with`] over runs or run references, so a caller holding
/// `&RunSpec`s (the pending runs of a resume or shard) need not clone
/// them into a slice first.
pub(crate) fn execute_runs<R: Borrow<RunSpec> + Sync>(
    ctx: &RunContext,
    runs: &[R],
    jobs: usize,
    progress: impl FnMut(usize, usize),
    on_result: impl FnMut(usize, &RunOutput),
) -> Vec<RunOutput> {
    let memo = (!ctx.fast.is_empty()).then(|| CellMemo::new(ctx, runs));
    execute_indexed_with(
        runs.len(),
        jobs,
        |position| {
            let cell = memo.as_ref().and_then(|memo| memo.cell(position));
            run_one_with(ctx, runs[position].borrow(), cell)
        },
        progress,
        on_result,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            clients: vec!["curl-7.88.1".to_string(), "wget-1.21.3".to_string()],
            cad: Some(lazyeye_testbed::CadCaseConfig {
                sweep: lazyeye_testbed::SweepSpec::new(0, 300, 150),
                repetitions: 1,
            }),
            rd: None,
            selection: None,
            resolver: None,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn sharded_matches_sequential() {
        let spec = small_spec();
        let runs = crate::plan::expand(&spec).unwrap();
        let ctx = RunContext::new(&spec).unwrap();
        let seq = execute(&ctx, &runs, 1, |_, _| {});
        let par = execute(&ctx, &runs, 4, |_, _| {});
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            match (a, b) {
                (RunOutput::Cad(x), RunOutput::Cad(y)) => {
                    assert_eq!(x.family, y.family);
                    assert_eq!(x.observed_cad_ms, y.observed_cad_ms);
                }
                _ => panic!("unexpected output kind"),
            }
        }
    }

    #[test]
    fn progress_reaches_total() {
        let spec = small_spec();
        let runs = crate::plan::expand(&spec).unwrap();
        let ctx = RunContext::new(&spec).unwrap();
        let mut last = 0;
        let _ = execute(&ctx, &runs, 3, |done, total| {
            assert!(done <= total);
            last = done;
        });
        assert_eq!(last, runs.len());
    }

    fn assert_matches_sequential(spec: &CampaignSpec, jobs: usize) {
        let runs = crate::plan::expand(spec).unwrap();
        let ctx = RunContext::new(spec).unwrap();
        let seq = execute(&ctx, &runs, 1, |_, _| {});
        let par = execute(&ctx, &runs, jobs, |_, _| {});
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            match (a, b) {
                (RunOutput::Cad(x), RunOutput::Cad(y)) => {
                    assert_eq!(x.family, y.family);
                    assert_eq!(x.observed_cad_ms, y.observed_cad_ms);
                }
                _ => panic!("unexpected output kind"),
            }
        }
    }

    #[test]
    fn more_workers_than_runs() {
        // 3 runs across 64 requested workers: the pool clamps to the run
        // count and every run still executes exactly once.
        let spec = CampaignSpec {
            clients: vec!["curl-7.88.1".to_string()],
            cad: Some(lazyeye_testbed::CadCaseConfig {
                sweep: lazyeye_testbed::SweepSpec::new(0, 300, 150),
                repetitions: 1,
            }),
            rd: None,
            selection: None,
            resolver: None,
            ..CampaignSpec::default()
        };
        assert_matches_sequential(&spec, 64);
    }

    #[test]
    fn zero_runs_executes_to_empty() {
        let spec = CampaignSpec {
            cad: None,
            rd: None,
            selection: None,
            resolver: None,
            ..CampaignSpec::default()
        };
        let runs = crate::plan::expand(&spec).unwrap();
        assert!(runs.is_empty());
        let ctx = RunContext::new(&spec).unwrap();
        let mut calls = 0;
        let outputs = execute(&ctx, &runs, 8, |_, _| calls += 1);
        assert!(outputs.is_empty());
        assert_eq!(calls, 0, "no progress callbacks for an empty campaign");
    }

    #[test]
    fn steal_path_with_single_run_stripes() {
        // total == jobs gives every worker a 1-run stripe (nothing to
        // steal); total == jobs + 1 forces exactly one steal attempt race.
        let mut spec = small_spec();
        spec.clients = vec![
            "chrome-130.0".to_string(),
            "firefox-132.0".to_string(),
            "curl-7.88.1".to_string(),
        ];
        let runs = crate::plan::expand(&spec).unwrap();
        assert_eq!(runs.len(), 9);
        assert_matches_sequential(&spec, 9);
        assert_matches_sequential(&spec, 8);
        // Heavily oversubscribed stealing: 2-run stripes, many thieves.
        assert_matches_sequential(&spec, 5);
    }

    #[test]
    fn on_result_fires_once_per_run_with_matching_positions() {
        let spec = small_spec();
        let runs = crate::plan::expand(&spec).unwrap();
        let ctx = RunContext::new(&spec).unwrap();
        let mut seen = vec![0u32; runs.len()];
        let outputs = execute_with(
            &ctx,
            &runs,
            4,
            |_, _| {},
            |pos, out| {
                seen[pos] += 1;
                // The hook's output must be the one the result vector keeps.
                match out {
                    RunOutput::Cad(s) => {
                        assert_eq!(
                            s.configured_delay_ms,
                            match &runs[pos].kind {
                                crate::plan::RunKind::Cad { delay_ms, .. } => *delay_ms,
                                _ => unreachable!(),
                            }
                        );
                    }
                    _ => panic!("unexpected output kind"),
                }
            },
        );
        assert_eq!(outputs.len(), runs.len());
        assert!(seen.iter().all(|&c| c == 1), "hook fired {seen:?}");
    }
}
