//! The sharded executor: fans campaign runs out across worker threads.
//!
//! Each worker owns a fresh `Sim` instance per simulation — the in-process
//! equivalent of the paper's container reset — so runs are isolated and
//! their outputs independent of scheduling. The scheduling itself (the
//! work-stealing pool with index-ordered results) is the shared
//! [`lazyeye_exec`] layer; this module contributes the campaign-specific
//! glue: resolving spec ids into profiles once ([`RunContext`]),
//! driving each fast-path cell, and simulating each cell whose runs draw
//! no random number, once per execution ([`CellMemo`]), and reducing
//! each run to a small [`RunOutput`] on the worker.

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
    /// Runs served a simulated cell's shared outcome without simulating.
    runs_shared: &'static lazyeye_obs::Counter,
}

fn metrics() -> &'static CampaignMetrics {
    static METRICS: std::sync::OnceLock<CampaignMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| CampaignMetrics {
        runs: lazyeye_obs::counter("campaign.runs", lazyeye_obs::Clock::Virtual),
        runs_refined: lazyeye_obs::counter("campaign.runs_refined", lazyeye_obs::Clock::Virtual),
        runs_shared: lazyeye_obs::counter("campaign.runs_shared", lazyeye_obs::Clock::Virtual),
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

/// What a cell's runs measure: CAD, RD delaying one record, or address
/// selection.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum CellKind {
    Cad,
    Rd(DelayedRecord),
    Selection,
}

impl CellKind {
    /// The delayed record keying this kind's fast-path models (`None` for
    /// CAD), or `None` when no model serves the kind.
    fn model_record(self) -> Option<Option<DelayedRecord>> {
        match self {
            CellKind::Cad => Some(None),
            CellKind::Rd(record) => Some(Some(record)),
            CellKind::Selection => None,
        }
    }
}

/// A run's cell, `(kind, client, netem label, delay)`: every field of the
/// run bar `rep` and the seed (a selection cell's delay is 0). The seed
/// reaches a simulation only through its RNG, so a run that draws no
/// random number has its cell's outcome whatever its seed: every
/// repetition of the cell has the same outcome. Resolver runs have no
/// cell: a resolver draws the family of its first query, and the run's
/// zone apex embeds its `rep`.
type RunCell<'r> = (CellKind, &'r str, &'r str, u64);

fn run_cell(kind: &RunKind) -> Option<RunCell<'_>> {
    match kind {
        RunKind::Cad {
            client,
            netem,
            delay_ms,
            ..
        } => Some((CellKind::Cad, client, netem, *delay_ms)),
        RunKind::Rd {
            client,
            netem,
            record,
            delay_ms,
            ..
        } => Some((CellKind::Rd(*record), client, netem, *delay_ms)),
        RunKind::Selection { client, netem, .. } => Some((CellKind::Selection, client, netem, 0)),
        RunKind::Resolver { .. } => None,
    }
}

/// A cell's outcome, stamped with the repetition of `kind`'s run.
fn restamp(out: &RunOutput, kind: &RunKind) -> RunOutput {
    match (out, kind) {
        (RunOutput::Cad(s), RunKind::Cad { rep, .. }) => {
            RunOutput::Cad(CadSample { rep: *rep, ..*s })
        }
        (RunOutput::Rd(s), RunKind::Rd { rep, .. }) => RunOutput::Rd(RdSample { rep: *rep, ..*s }),
        (RunOutput::Selection(s), RunKind::Selection { .. }) => RunOutput::Selection(s.clone()),
        _ => unreachable!("a cell serves only runs of its own kind"),
    }
}

/// One fast-path cell — a model at one delay — and its outcome, driven by
/// the first run that needs it. The models are seed-free, so every run of
/// the cell, under each netem label with empty rules, has the same
/// outcome.
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
        match outcome {
            Ok(out) => Ok(restamp(out, kind)),
            Err(reason) => Err(reason),
        }
    }
}

/// A cell's simulated outcome, set by the first of its runs to simulate:
/// `Some` when that run drew no random number, so every run of the cell
/// shares its output; `None` when it drew, so the driving run keeps its
/// output and every other run simulates under its own seed.
#[derive(Default)]
struct SimCell(OnceLock<Option<Box<RunOutput>>>);

impl SimCell {
    /// `run`'s output through the cell: shared when the cell's driving
    /// run drew nothing, else simulated under the run's own seed.
    fn simulate(&self, ctx: &RunContext, run: &RunSpec) -> RunOutput {
        let mut drove = false;
        let mut own = None;
        let shared = self.0.get_or_init(|| {
            drove = true;
            let draws = lazyeye_sim::rng_draws();
            let out = simulate(ctx, run);
            if lazyeye_sim::rng_draws() == draws {
                Some(Box::new(out))
            } else {
                own = Some(out);
                None
            }
        });
        match (shared, own) {
            (_, Some(out)) => out,
            (Some(out), None) => {
                if !drove {
                    metrics().runs_shared.inc();
                }
                restamp(out, &run.kind)
            }
            (None, None) => simulate(ctx, run),
        }
    }
}

/// One cell of an [`execute_with`] call.
struct Cell {
    /// The fast-path cell serving the cell's runs, as (model, index in
    /// the model's cells); [`NO_CELL`] when no model serves them.
    fast: (u32, u32),
    sim: SimCell,
}

/// The cells of one [`execute_with`] call, shared by every pool worker:
/// each fast-path cell is driven once, and each cell simulated once when
/// its driving run draws nothing, whatever the worker count. It lives
/// for the call, not in the [`RunContext`], so every execution pays for
/// its own cells.
struct CellMemo<'c> {
    /// Per model, its fast-path cells in order of first use. One vector
    /// per model rather than one for all cells: on a 36k-run campaign
    /// the single large vector measured 8 MiB more peak RSS for the same
    /// work, through where the allocator then placed each pass's
    /// buffers. A fast-path cell spans the netem labels with empty rules.
    fast: Vec<Vec<FastCell<'c>>>,
    /// Per `(kind, client, netem)` group, its cells in order of first
    /// use, one per delay.
    cells: Vec<Vec<Cell>>,
    /// Per run position, its cell as (group, index in the group's
    /// cells); [`NO_CELL`] for a resolver run.
    cell_of: Vec<(u32, u32)>,
}

const NO_CELL: (u32, u32) = (u32::MAX, u32::MAX);

/// `len` as a memo index.
fn index(len: usize) -> u32 {
    u32::try_from(len).expect("fewer than 2^32 cells")
}

/// One model's or one group's cells in order of first use, with their
/// indices by delay.
struct ByDelay<T> {
    index: BTreeMap<u64, u32>,
    cells: Vec<T>,
}

impl<T> ByDelay<T> {
    fn new() -> ByDelay<T> {
        ByDelay {
            index: BTreeMap::new(),
            cells: Vec::new(),
        }
    }

    /// The index of the cell at `delay_ms`, made by `make` on first use.
    fn cell(&mut self, delay_ms: u64, make: impl FnOnce() -> T) -> u32 {
        *self.index.entry(delay_ms).or_insert_with(|| {
            self.cells.push(make());
            index(self.cells.len() - 1)
        })
    }
}

impl<'c> CellMemo<'c> {
    /// Maps every run of `runs` to its cell, so a run finds its outcome
    /// slots by position alone. Memory grows with the number of distinct
    /// cells, plus one index per run.
    fn new<R: Borrow<RunSpec>>(ctx: &'c RunContext, runs: &[R]) -> CellMemo<'c> {
        // Per (client, record): the number of its model, or `None` when
        // no model serves it. Per model number: the model and its cells.
        let mut numbers: HashMap<(&str, Option<DelayedRecord>), Option<u32>> = HashMap::new();
        let mut models: Vec<(Model<'c>, ByDelay<FastCell<'c>>)> = Vec::new();
        // Per (kind, client, netem) group: its number. Per group number:
        // the number of the model serving it, and its cells.
        let mut group_numbers: HashMap<(CellKind, &str, &str), u32> = HashMap::new();
        let mut groups: Vec<(Option<u32>, ByDelay<Cell>)> = Vec::new();
        let mut cell_of = Vec::with_capacity(runs.len());
        // Expansion lists runs grouped by (kind, client, netem), and a
        // cell's repetitions back to back: a run looks up its group only
        // where the group changes, and its cell only where the delay does.
        let mut last: Option<(RunCell<'_>, (u32, u32))> = None;
        for run in runs {
            let Some(key @ (kind, client, netem, delay_ms)) = run_cell(&run.borrow().kind) else {
                cell_of.push(NO_CELL);
                continue;
            };
            let group = match last {
                Some((prev, cell)) if prev == key => {
                    cell_of.push(cell);
                    continue;
                }
                Some(((k, c, n, _), (group, _))) if (k, c, n) == (kind, client, netem) => group,
                _ => *group_numbers
                    .entry((kind, client, netem))
                    .or_insert_with(|| {
                        let model = kind
                            .model_record()
                            .filter(|_| ctx.netem(netem).is_empty())
                            .and_then(|record| {
                                *numbers.entry((client, record)).or_insert_with(|| {
                                    let model = ctx.fast.model(client, record)?;
                                    models.push((model, ByDelay::new()));
                                    Some(index(models.len() - 1))
                                })
                            });
                        groups.push((model, ByDelay::new()));
                        index(groups.len() - 1)
                    }),
            };
            let (model, cells) = &mut groups[group as usize];
            let i = cells.cell(delay_ms, || {
                let fast = model.map_or(NO_CELL, |m| {
                    let (model, cells) = &mut models[m as usize];
                    (m, cells.cell(delay_ms, || FastCell::new(*model, delay_ms)))
                });
                Cell {
                    fast,
                    sim: SimCell::default(),
                }
            });
            last = Some((key, (group, i)));
            cell_of.push((group, i));
        }
        CellMemo {
            fast: models.into_iter().map(|(_, cells)| cells.cells).collect(),
            cells: groups.into_iter().map(|(_, cells)| cells.cells).collect(),
            cell_of,
        }
    }

    /// The fast-path cell and the simulated cell of the run at
    /// `position`, when it has them.
    fn cell(&self, position: usize) -> (Option<&FastCell<'c>>, Option<&SimCell>) {
        let (group, i) = self.cell_of[position];
        let Some(cell) = self
            .cells
            .get(group as usize)
            .and_then(|cells| cells.get(i as usize))
        else {
            return (None, None);
        };
        let (model, i) = cell.fast;
        let fast = self
            .fast
            .get(model as usize)
            .and_then(|cells| cells.get(i as usize));
        (fast, Some(&cell.sim))
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

    /// A fresh fast-path cell for one run, outside any [`CellMemo`], when
    /// a model serves the run: a CAD or RD run under a netem label with
    /// empty rules.
    fn fast_cell(&self, kind: &RunKind) -> Option<FastCell<'_>> {
        if self.fast.is_empty() {
            return None;
        }
        let (kind, client, netem, delay_ms) = run_cell(kind)?;
        if !self.netem(netem).is_empty() {
            return None;
        }
        let model = self.fast.model(client, kind.model_record()?)?;
        Some(FastCell::new(model, delay_ms))
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
/// model when one serves it. Each call drives the model or the
/// simulation afresh; only [`execute_with`] shares a cell's outcome
/// between runs.
///
/// Worker panics are forwarded unchanged, but when the flight recorder's
/// trigger engine is armed, a `run-panic` bundle (provenance + panic
/// message, no trace) is written first — the black box survives the
/// crash it describes.
pub fn run_one(ctx: &RunContext, run: &RunSpec) -> RunOutput {
    run_one_with(ctx, run, ctx.fast_cell(&run.kind).as_ref(), None)
}

/// [`run_one`] served by the `fast` and `sim` cells when they are given.
fn run_one_with(
    ctx: &RunContext,
    run: &RunSpec,
    fast: Option<&FastCell<'_>>,
    sim: Option<&SimCell>,
) -> RunOutput {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_one_inner(ctx, run, fast, sim)
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

fn run_one_inner(
    ctx: &RunContext,
    run: &RunSpec,
    fast: Option<&FastCell<'_>>,
    sim: Option<&SimCell>,
) -> RunOutput {
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
    let simulated = || match sim {
        Some(cell) => cell.simulate(ctx, run),
        None => simulate(ctx, run),
    };
    match fast.map(|cell| cell.serve(&run.kind)) {
        Some(Ok(out)) => out,
        Some(Err(reason)) => {
            let out = simulated();
            crate::forensics::on_fastpath_fallback(&ctx.spec, run, reason);
            out
        }
        None => simulated(),
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
/// The call drives each distinct fast-path cell once, and simulates each
/// CAD, RD and selection cell once when its first run draws no random
/// number, copying the outcome into every run of the cell (restamped
/// with the run's `rep`); `campaign.runs_shared` counts the runs so
/// served. The outputs, and the per-run `campaign.runs`,
/// `fastpath.runs` and `fastpath.fallbacks` counts, equal a [`run_one`]
/// loop's.
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
    let memo = CellMemo::new(ctx, runs);
    execute_indexed_with(
        runs.len(),
        jobs,
        |position| {
            let (fast, sim) = memo.cell(position);
            run_one_with(ctx, runs[position].borrow(), fast, sim)
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
        // total == jobs gives every worker a 1-run block (nothing to
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
        // Heavily oversubscribed stealing: 1- and 2-run blocks, many
        // thieves.
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
