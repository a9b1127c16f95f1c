//! The fold and the inference index cache the previous run's cell, so a
//! run whose cell differs from its predecessor's takes the keyed path.
//! Expansion keeps each cell's runs together; these tests interleave
//! cells (each cell's own run order kept) and check that nothing but the
//! cache hit rate depends on it.

use std::collections::BTreeMap;

use lazyeye_campaign::inference::observation;
use lazyeye_campaign::{
    build_inference, run_campaign_resumable, Aggregator, CampaignSpec, NetemSpec, RdPlan,
    RunOutput, RunSpec, SelectionPlan,
};
use lazyeye_infer::{infer_profile, Observation};
use lazyeye_testbed::{CadCaseConfig, DelayedRecord, ResolverCaseConfig, SweepSpec};

/// Every case family under a baseline and a shaped condition (RD cells
/// then read `delayed-…+jittery`), with a refinement pass.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "cell-order".into(),
        seed: 23,
        clients: vec!["chrome-130.0".into(), "safari-17.6".into()],
        resolvers: vec!["BIND".into()],
        netem: vec![
            NetemSpec::baseline(),
            NetemSpec {
                label: "jittery".into(),
                loss_pct: 0.0,
                jitter_ms: 3,
                duplicate_pct: 0.0,
            },
        ],
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(0, 400, 100),
            repetitions: 2,
        }),
        rd: Some(RdPlan {
            records: vec![DelayedRecord::Aaaa, DelayedRecord::A],
            sweep: SweepSpec::new(0, 400, 200),
            repetitions: 2,
        }),
        selection: Some(SelectionPlan {
            repetitions: 2,
            ..SelectionPlan::default()
        }),
        resolver: Some(ResolverCaseConfig {
            sweep: SweepSpec::new(0, 400, 400),
            repetitions: 2,
        }),
        refine_step_ms: Some(25),
    }
}

fn campaign() -> (Vec<RunSpec>, Vec<RunOutput>) {
    run_campaign_resumable(&spec(), 2, &BTreeMap::new(), |_, _| {}, |_, _| {}).unwrap()
}

/// Deals the runs out cell by cell, round robin: each cell's runs keep
/// their order, but no two neighbours share a cell while two cells have
/// runs left.
fn interleave(runs: &[RunSpec], outputs: &[RunOutput]) -> (Vec<RunSpec>, Vec<RunOutput>) {
    let mut cells: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let key = format!(
            "{}/{}/{}",
            run.kind.case(),
            run.kind.subject(),
            run.kind.condition()
        );
        match cells.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => cells.push((key, vec![i])),
        }
    }
    let mut order: Vec<usize> = Vec::with_capacity(runs.len());
    for round in 0.. {
        let before = order.len();
        order.extend(
            cells
                .iter()
                .filter_map(|(_, members)| members.get(round).copied()),
        );
        if order.len() == before {
            break;
        }
    }
    (
        order.iter().map(|&i| runs[i].clone()).collect(),
        order.iter().map(|&i| outputs[i].clone()).collect(),
    )
}

fn fold(runs: &[RunSpec], outputs: &[RunOutput]) -> Aggregator {
    let mut agg = Aggregator::new();
    for (run, output) in runs.iter().zip(outputs) {
        agg.fold(run, output);
    }
    agg
}

#[test]
fn interleaved_cells_fold_like_contiguous_ones() {
    let (runs, outputs) = campaign();
    let (mixed_runs, mixed_outputs) = interleave(&runs, &outputs);
    assert_ne!(mixed_runs, runs, "interleaving must reorder the runs");
    let switches = mixed_runs
        .windows(2)
        .filter(|w| w[0].kind.condition() != w[1].kind.condition())
        .count();
    assert!(
        switches * 2 > runs.len(),
        "most neighbours must change cell"
    );

    let contiguous = fold(&runs, &outputs).finish();
    let interleaved = fold(&mixed_runs, &mixed_outputs).finish();
    assert_eq!(interleaved, contiguous);
    assert!(
        contiguous
            .0
            .iter()
            .any(|c| c.condition == "delayed-aaaa+jittery"),
        "the spec must produce shaped RD cells"
    );
}

/// Inference as the whole-set path does it: one owned observation per
/// run, each client inferred from a scan over all of them.
fn infer_by_scanning(
    runs: &[RunSpec],
    outputs: &[RunOutput],
    clients: &[String],
) -> Vec<lazyeye_infer::InferredProfile> {
    let all: Vec<Observation> = runs
        .iter()
        .zip(outputs)
        .map(|(r, o)| observation(r, o))
        .collect();
    clients.iter().map(|c| infer_profile(c, &all)).collect()
}

#[test]
fn indexed_inference_equals_a_scan_over_every_run_in_any_cell_order() {
    let (runs, outputs) = campaign();
    let (_, features) = fold(&runs, &outputs).finish();
    let clients: Vec<String> = features.iter().map(|f| f.client.clone()).collect();
    for (runs, outputs) in [(runs.clone(), outputs.clone()), interleave(&runs, &outputs)] {
        let section = build_inference(&runs, &outputs, &features);
        let indexed: Vec<_> = section.profiles.into_iter().map(|p| p.profile).collect();
        assert_eq!(indexed, infer_by_scanning(&runs, &outputs, &clients));
    }
}
