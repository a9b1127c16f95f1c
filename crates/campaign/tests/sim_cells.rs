//! `execute_with` simulates each CAD, RD and selection cell once when the
//! cell's first run draws no random number, and shares that outcome
//! with the cell's other repetitions. Two relations make this invisible:
//!
//! - *differential*: with the fast path off and on, at any worker count,
//!   the outputs and the per-run counters equal a `run_one` loop's, which
//!   simulates every run under its own seed;
//! - *seed independence*: a run that draws no random number has the same
//!   output under any seed, so sharing it across repetitions is sound.
//!
//! The counters are process-global, so the tests here hold [`COUNTERS`].

use std::collections::HashSet;
use std::sync::Mutex;

use lazyeye_campaign::{
    execute_with, expand, run_one, CampaignSpec, NetemSpec, RdPlan, RunContext, RunKind, RunSpec,
    SelectionPlan,
};
use lazyeye_testbed::{CadCaseConfig, DelayedRecord, ResolverCaseConfig, SweepSpec};

static COUNTERS: Mutex<()> = Mutex::new(());

fn counter(name: &'static str) -> u64 {
    lazyeye_obs::counter(name, lazyeye_obs::Clock::Virtual).get()
}

const COUNTED: [&str; 4] = [
    "campaign.runs",
    "campaign.runs_shared",
    "fastpath.runs",
    "fastpath.fallbacks",
];

/// The [`COUNTED`] counters moved by `f`, and what it returned.
fn counted<T>(f: impl FnOnce() -> T) -> ([u64; 4], T) {
    let before = COUNTED.map(counter);
    let out = f();
    let after = COUNTED.map(counter);
    (std::array::from_fn(|i| after[i] - before[i]), out)
}

/// Chrome's fixed 300 ms CAD and Safari's 50 ms Resolution Delay are
/// sweep points, so the fast path refuses tie cells that then simulate.
/// `quiet` has empty rules like `baseline`; `lossy` draws on every
/// handshake packet. Twelve repetitions put two-digit nonces (`r10`,
/// `r11`) into the RD query names.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "sim-cells".into(),
        seed: 23,
        clients: vec!["chrome-130.0".into(), "safari-17.6".into()],
        resolvers: vec!["BIND".into(), "Unbound".into()],
        netem: vec![
            NetemSpec::baseline(),
            NetemSpec {
                label: "quiet".into(),
                ..NetemSpec::baseline()
            },
            NetemSpec {
                label: "lossy".into(),
                loss_pct: 5.0,
                jitter_ms: 5,
                duplicate_pct: 1.0,
            },
        ],
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(250, 350, 50),
            repetitions: 12,
        }),
        rd: Some(RdPlan {
            records: vec![DelayedRecord::Aaaa, DelayedRecord::A],
            sweep: SweepSpec::new(0, 100, 50),
            repetitions: 12,
        }),
        selection: Some(SelectionPlan {
            repetitions: 3,
            ..SelectionPlan::default()
        }),
        resolver: Some(ResolverCaseConfig {
            sweep: SweepSpec::new(0, 200, 200),
            repetitions: 2,
        }),
        refine_step_ms: None,
    }
}

/// A run's cell: every field of its kind bar `rep`.
fn cell(run: &RunSpec) -> String {
    match &run.kind {
        RunKind::Cad {
            client,
            netem,
            delay_ms,
            ..
        } => format!("cad {client} {netem} {delay_ms}"),
        RunKind::Rd {
            client,
            netem,
            record,
            delay_ms,
            ..
        } => format!("rd {client} {netem} {record:?} {delay_ms}"),
        RunKind::Selection { client, netem, .. } => format!("selection {client} {netem}"),
        RunKind::Resolver {
            resolver,
            netem,
            delay_ms,
            rep,
        } => format!("resolver {resolver} {netem} {delay_ms} {rep}"),
    }
}

/// Each run's output from a `run_one` loop on this thread, and whether
/// the run drew a random number.
fn looped(ctx: &RunContext, runs: &[RunSpec]) -> Vec<(String, bool)> {
    runs.iter()
        .map(|run| {
            let draws = lazyeye_sim::rng_draws();
            let out = format!("{:?}", run_one(ctx, run));
            (out, lazyeye_sim::rng_draws() > draws)
        })
        .collect()
}

#[test]
fn shared_simulated_cells_match_a_run_one_loop() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let spec = spec();
    let runs = expand(&spec).unwrap();
    assert_eq!(
        runs.len(),
        2 * 3 * (3 * 12 + 2 * 3 * 12 + 3) + 2 * 3 * 2 * 2
    );

    // The draw-free runs and their cells, from the unshared reference.
    let simulated = looped(&RunContext::new(&spec).unwrap(), &runs);
    let drew: Vec<bool> = simulated.iter().map(|&(_, drew)| drew).collect();
    let free_cells: HashSet<String> = runs
        .iter()
        .zip(&drew)
        .filter(|&(_, &drew)| !drew)
        .map(|(run, _)| cell(run))
        .collect();
    let free_runs = drew.iter().filter(|&&drew| !drew).count();
    let sharable = (free_runs - free_cells.len()) as u64;

    for fast_path in [false, true] {
        let ctx = RunContext::new_with(&spec, &runs, fast_path).unwrap();
        let (moved, reference) = counted(|| looped(&ctx, &runs));
        assert_eq!(moved[0], runs.len() as u64, "fast path {fast_path}");
        assert_eq!(moved[1], 0, "run_one never shares");
        if fast_path {
            assert!(
                moved[2] > 0 && moved[3] > 0,
                "{moved:?}: no fast runs or no fallbacks"
            );
        }
        for (i, ((out, _), (plain, _))) in reference.iter().zip(&simulated).enumerate() {
            assert_eq!(
                out, plain,
                "fast path {fast_path}: run {i} {:?}",
                runs[i].kind
            );
        }
        let mut shared_at_one = None;
        for jobs in [1, 2, 4] {
            let (memo_moved, outputs) =
                counted(|| execute_with(&ctx, &runs, jobs, |_, _| {}, |_, _| {}));
            assert_eq!(outputs.len(), runs.len());
            for (i, (out, (single, _))) in outputs.iter().zip(&reference).enumerate() {
                assert_eq!(
                    &format!("{out:?}"),
                    single,
                    "fast path {fast_path}, --jobs {jobs}: run {i} {:?}",
                    runs[i].kind
                );
            }
            let per_run = [memo_moved[0], memo_moved[2], memo_moved[3]];
            assert_eq!(
                per_run,
                [moved[0], moved[2], moved[3]],
                "fast path {fast_path}, --jobs {jobs}: (runs, fast runs, fallbacks)"
            );
            let shared = memo_moved[1];
            if fast_path {
                // Only the fast path's fallbacks reach a simulated cell.
                assert!(shared > 0 && shared < sharable, "--jobs {jobs}: {shared}");
            } else {
                assert_eq!(shared, sharable, "--jobs {jobs}: shared runs");
            }
            assert_eq!(
                *shared_at_one.get_or_insert(shared),
                shared,
                "--jobs {jobs}"
            );
        }
    }
}

#[test]
fn a_run_that_draws_nothing_has_the_same_output_under_any_seed() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let spec = spec();
    let runs = expand(&spec).unwrap();
    let ctx = RunContext::new(&spec).unwrap();
    let mut free = 0;
    for (run, (out, drew)) in runs.iter().zip(looped(&ctx, &runs)) {
        // Every CAD, RD and selection run under an empty-rules label
        // draws nothing; lossy and resolver runs always draw.
        let draw_free = match &run.kind {
            RunKind::Cad { netem, .. }
            | RunKind::Rd { netem, .. }
            | RunKind::Selection { netem, .. } => &**netem != "lossy",
            RunKind::Resolver { .. } => false,
        };
        assert_eq!(!drew, draw_free, "run {} {:?}", run.index, run.kind);
        if drew {
            continue;
        }
        free += 1;
        for seed in [run.seed ^ 0x9E37_79B9_7F4A_7C15, 0, u64::MAX] {
            let reseeded = RunSpec {
                seed,
                ..run.clone()
            };
            assert_eq!(
                format!("{:?}", run_one(&ctx, &reseeded)),
                out,
                "run {} {:?} under seed {seed:#x}",
                run.index,
                run.kind
            );
        }
    }
    assert_eq!(free, 2 * 2 * (3 * 12 + 2 * 3 * 12 + 3));
}
