//! `execute_with` drives each fast-path cell once and copies its outcome
//! into every run of the cell. That must be invisible: the outputs and
//! the per-run fast-path counters equal a `run_one` loop's, which drives
//! every run afresh, at any worker count.
//!
//! The counters are process-global, so this file holds a single test.

use std::collections::HashSet;

use lazyeye_campaign::{
    execute_with, expand, run_one, CampaignSpec, NetemSpec, RdPlan, RunContext, RunKind,
};
use lazyeye_testbed::{CadCaseConfig, DelayedRecord, SweepSpec};

fn counter(name: &'static str) -> u64 {
    lazyeye_obs::counter(name, lazyeye_obs::Clock::Virtual).get()
}

/// `(fastpath.runs, fastpath.fallbacks, fastpath.cells)` moved by `f`,
/// and what it returned.
fn counted<T>(f: impl FnOnce() -> T) -> ((u64, u64, u64), T) {
    let names = ["fastpath.runs", "fastpath.fallbacks", "fastpath.cells"];
    let before = names.map(counter);
    let out = f();
    let after = names.map(counter);
    (
        (
            after[0] - before[0],
            after[1] - before[1],
            after[2] - before[2],
        ),
        out,
    )
}

/// Chrome's fixed 300 ms CAD and Safari's 50 ms Resolution Delay are
/// sweep points, so both have tie cells the models refuse. `quiet` has
/// empty rules like `baseline`, so the two share cells; `lossy` is
/// simulated.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "cell-memo".into(),
        seed: 11,
        clients: vec!["chrome-130.0".into(), "safari-17.6".into()],
        resolvers: Vec::new(),
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
            repetitions: 3,
        }),
        rd: Some(RdPlan {
            records: vec![DelayedRecord::Aaaa, DelayedRecord::A],
            sweep: SweepSpec::new(0, 100, 50),
            repetitions: 3,
        }),
        selection: None,
        resolver: None,
        refine_step_ms: None,
    }
}

#[test]
fn shared_cells_match_a_run_one_loop() {
    let spec = spec();
    let runs = expand(&spec).unwrap();
    let ctx = RunContext::new_with(&spec, &runs, true).unwrap();

    // Every CAD and RD run under an empty-rules label is a fast-path run;
    // its cell is (client, record, delay), shared across reps and labels.
    let mut eligible = 0u64;
    let mut cells = HashSet::new();
    for run in &runs {
        let (client, netem, record, delay_ms) = match &run.kind {
            RunKind::Cad {
                client,
                netem,
                delay_ms,
                ..
            } => (client, netem, None, *delay_ms),
            RunKind::Rd {
                client,
                netem,
                record,
                delay_ms,
                ..
            } => (client, netem, Some(*record), *delay_ms),
            _ => unreachable!("CAD and RD only"),
        };
        if netem != "lossy" {
            eligible += 1;
            cells.insert((client.clone(), record, delay_ms));
        }
    }
    assert_eq!(eligible, 2 * 2 * (3 * 3 + 2 * 3 * 3));
    assert_eq!(cells.len(), 2 * (3 + 2 * 3));

    let ((runs_moved, fallbacks, driven), looped) = counted(|| {
        runs.iter()
            .map(|run| format!("{:?}", run_one(&ctx, run)))
            .collect::<Vec<_>>()
    });
    assert_eq!(
        runs_moved + fallbacks,
        eligible,
        "a model serves every eligible run"
    );
    // Chrome's CAD at 300 ms and Safari's delayed AAAA at 50 ms, for 3
    // reps under both empty-rules labels.
    assert_eq!(fallbacks, 2 * 3 * 2, "the tie cells refuse every run");
    assert_eq!(driven, eligible, "run_one drives every run");

    for jobs in [1, 2, 4] {
        let (moved, outputs) = counted(|| execute_with(&ctx, &runs, jobs, |_, _| {}, |_, _| {}));
        let outputs: Vec<String> = outputs.iter().map(|o| format!("{o:?}")).collect();
        for (i, (memo, single)) in outputs.iter().zip(&looped).enumerate() {
            assert_eq!(memo, single, "--jobs {jobs}: run {i} {:?}", runs[i].kind);
        }
        assert_eq!(outputs.len(), looped.len());
        assert_eq!(
            moved,
            (runs_moved, fallbacks, cells.len() as u64),
            "--jobs {jobs}: (runs, fallbacks, cells)"
        );
    }
}
