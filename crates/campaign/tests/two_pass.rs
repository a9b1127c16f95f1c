//! The adaptive two-pass engine's guarantees: refinement narrows every
//! detected switchover to the refine step, and neither a kill/resume (at
//! every point of both passes) nor a shard/merge split (every 2- and
//! 3-way split, merged in every order) changes a single report byte.

use std::collections::BTreeMap;

use lazyeye_campaign::{
    expand, finish_from_checkpoint_with, merge_checkpoints, run_campaign, run_campaign_resumable,
    run_shard, CampaignReport, CampaignSpec, Checkpoint, NetemSpec, RdPlan, Shard,
};
use lazyeye_testbed::{switchover_bracket, CadCaseConfig, DelayedRecord, SweepSpec};

/// A coarse-grid campaign small enough for debug-build test time but with
/// real switchovers to refine: three clients whose CAD thresholds (200,
/// 250, 300 ms) all fall between 40 ms grid points.
fn coarse_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        name: "two-pass".into(),
        seed,
        clients: vec![
            "chrome-130.0".into(),
            "firefox-132.0".into(),
            "curl-7.88.1".into(),
        ],
        resolvers: vec!["BIND".into()],
        netem: vec![NetemSpec::baseline()],
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(180, 340, 40),
            repetitions: 1,
        }),
        rd: Some(RdPlan {
            records: vec![DelayedRecord::Aaaa],
            sweep: SweepSpec::new(200, 400, 200),
            repetitions: 1,
        }),
        selection: None,
        resolver: Some(lazyeye_testbed::ResolverCaseConfig {
            sweep: SweepSpec::new(0, 400, 400),
            repetitions: 1,
        }),
        refine_step_ms: Some(5),
    }
}

#[test]
fn default_spec_narrows_every_detected_cad_switchover_to_refine_step() {
    // The shipped default campaign: coarse 20 ms CAD grid, 5 ms refine.
    let spec = CampaignSpec::default();
    let step = spec.refine_step_ms.unwrap();
    let report = run_campaign(&spec, 8, |_, _| {}).unwrap();
    let mut detected = 0;
    for cell in report.cells.iter().filter(|c| c.case == "cad") {
        if let Some((lo, hi)) = switchover_bracket(cell.last_v6_delay_ms, cell.first_v4_delay_ms) {
            detected += 1;
            assert!(
                hi - lo <= step,
                "{}/{}: bracket ({lo}, {hi}) wider than the {step} ms refine step",
                cell.subject,
                cell.condition
            );
        }
    }
    // Chrome, Firefox and curl switch over inside the 0–400 ms sweep;
    // wget never falls back and Safari's 2 s CAD lies beyond it.
    assert_eq!(detected, 3, "three detected CAD switchovers");
    assert!(report.refined_runs > 0);
}

#[test]
fn resume_after_kill_reproduces_the_report_byte_for_byte() {
    let spec = coarse_spec(11);
    let uninterrupted = run_campaign(&spec, 4, |_, _| {}).unwrap();

    // Every result of both passes in the order the result hook saw it:
    // scheduling, not index, order.
    let mut seen = Vec::new();
    let (runs, _) = run_campaign_resumable(
        &spec,
        4,
        &BTreeMap::new(),
        |_, _| {},
        |run, out| seen.push((run.index, out.clone())),
    )
    .unwrap();
    assert_eq!(seen.len(), runs.len());
    assert!(
        runs.iter().any(|r| r.refined),
        "kills must also land in the refinement pass"
    );

    // "Kill" the campaign after every k results: the checkpoint the CLI
    // would last have written holds exactly the first k. It survives a
    // disk round-trip, then finishes the campaign: the report must not
    // differ in a single byte.
    let pass1_runs = expand(&spec).unwrap().len() as u64;
    for k in 0..=seen.len() {
        let mut ckpt = Checkpoint::new(spec.clone(), pass1_runs, None);
        for (index, out) in &seen[..k] {
            ckpt.record(*index, out.clone());
        }
        let reloaded = Checkpoint::from_json_str(&ckpt.to_json_string()).unwrap();
        let resumed =
            finish_from_checkpoint_with(&reloaded, 4, false, |_, _| {}, |_, _| {}).unwrap();
        assert_same_report(&resumed, &uninterrupted, &format!("killed after {k}"));
    }
}

/// Asserts byte-identical JSON, CSV and text renderings.
fn assert_same_report(got: &CampaignReport, want: &CampaignReport, case: &str) {
    assert_eq!(got.to_json(), want.to_json(), "{case}: JSON");
    assert_eq!(got.to_csv(), want.to_csv(), "{case}: CSV");
    assert_eq!(got.render_text(), want.render_text(), "{case}: text");
}

/// Every ordering of `0..n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for at in 0..=rest.len() {
            let mut order = rest.clone();
            order.insert(at, n - 1);
            out.push(order);
        }
    }
    out
}

#[test]
fn resume_can_span_both_passes() {
    // Kill *during the refinement pass*: completed refine runs are kept
    // too, because the resumed plan re-derives the identical fine sweep.
    let spec = coarse_spec(13);
    let uninterrupted = run_campaign(&spec, 2, |_, _| {}).unwrap();
    let (runs, outputs) =
        run_campaign_resumable(&spec, 2, &BTreeMap::new(), |_, _| {}, |_, _| {}).unwrap();
    assert!(
        runs.iter().any(|r| r.refined),
        "spec must produce refine runs for this test to bite"
    );

    // Checkpoint containing everything except the last two runs (which
    // are refinement runs, given index order).
    let pass1_runs = expand(&spec).unwrap().len() as u64;
    let mut ckpt = Checkpoint::new(spec.clone(), pass1_runs, None);
    for (run, out) in runs.iter().zip(&outputs).take(runs.len() - 2) {
        ckpt.record(run.index, out.clone());
    }
    let resumed = finish_from_checkpoint_with(&ckpt, 2, false, |_, _| {}, |_, _| {}).unwrap();
    assert_eq!(resumed.to_json(), uninterrupted.to_json());
}

#[test]
fn shard_and_merge_reproduces_the_report_byte_for_byte() {
    let spec = coarse_spec(17);
    let single = run_campaign(&spec, 1, |_, _| {}).unwrap();

    for count in [2, 3] {
        // `count` "machines", each executing its slice of the first pass,
        // each partial surviving a JSON round-trip as if shipped between
        // hosts.
        let partials: Vec<Checkpoint> = (0..count)
            .map(|i| {
                let shard = Shard { index: i, count };
                let part = run_shard(&spec, 2, shard, None, |_, _| {}, |_| {}).unwrap();
                assert!(part.missing().is_empty(), "shard {i}/{count} completed");
                Checkpoint::from_json_str(&part.to_json_string()).unwrap()
            })
            .collect();

        for order in permutations(partials.len()) {
            let merged = merge_checkpoints(order.iter().map(|&i| partials[i].clone())).unwrap();
            assert!(merged.missing().is_empty(), "shards cover pass 1");
            let report =
                finish_from_checkpoint_with(&merged, 4, false, |_, _| {}, |_, _| {}).unwrap();
            assert_same_report(
                &report,
                &single,
                &format!("{count}-way merge in order {order:?}"),
            );
        }
    }
}

#[test]
fn shard_resume_skips_its_own_completed_runs() {
    let spec = coarse_spec(19);
    let shard = Shard { index: 0, count: 2 };
    let full = run_shard(&spec, 2, shard, None, |_, _| {}, |_| {}).unwrap();

    // A half-finished shard checkpoint (even completed indices dropped).
    let mut partial = Checkpoint::new(spec.clone(), full.planned, Some(shard));
    for (i, (&index, out)) in full.completed().iter().enumerate() {
        if i % 2 == 0 {
            partial.record(index, out.clone());
        }
    }
    let mut executed = 0;
    let resumed = run_shard(
        &spec,
        2,
        shard,
        Some(partial),
        |done, _| executed = executed.max(done),
        |_| {},
    )
    .unwrap();
    assert_eq!(resumed.completed_runs(), full.completed_runs());
    assert_eq!(
        executed as u64,
        full.completed_runs() - full.completed_runs().div_ceil(2),
        "only the missing half re-executed"
    );
    assert_eq!(resumed.to_json_string(), full.to_json_string());
}

#[test]
fn merge_of_incomplete_partials_backfills_deterministically() {
    // One shard missing entirely: finish_from_checkpoint_with executes the
    // gap locally and the canonical report still comes out.
    let spec = coarse_spec(23);
    let single = run_campaign(&spec, 1, |_, _| {}).unwrap();
    let part0 = run_shard(
        &spec,
        2,
        Shard { index: 0, count: 2 },
        None,
        |_, _| {},
        |_| {},
    )
    .unwrap();
    let merged = merge_checkpoints([part0]).unwrap();
    assert!(!merged.missing().is_empty());
    let report = finish_from_checkpoint_with(&merged, 2, false, |_, _| {}, |_, _| {}).unwrap();
    assert_eq!(report.to_json(), single.to_json());
}

#[test]
fn refinement_is_off_when_unset_and_report_notes_the_pass_sizes() {
    let mut spec = coarse_spec(29);
    spec.refine_step_ms = None;
    let single_pass = run_campaign(&spec, 2, |_, _| {}).unwrap();
    assert_eq!(single_pass.refined_runs, 0);

    spec.refine_step_ms = Some(5);
    let two_pass = run_campaign(&spec, 2, |_, _| {}).unwrap();
    assert!(two_pass.refined_runs > 0);
    assert_eq!(
        two_pass.total_runs - two_pass.refined_runs,
        single_pass.total_runs,
        "pass 1 is identical; refinement only adds runs"
    );
    // Refinement can only tighten a switchover, never widen it.
    for (coarse, fine) in single_pass.cells.iter().zip(&two_pass.cells) {
        if let (Some((clo, chi)), Some((flo, fhi))) = (
            switchover_bracket(coarse.last_v6_delay_ms, coarse.first_v4_delay_ms),
            switchover_bracket(fine.last_v6_delay_ms, fine.first_v4_delay_ms),
        ) {
            assert!(
                flo >= clo && fhi <= chi,
                "bracket widened: {coarse:?} {fine:?}"
            );
        }
    }
}

#[test]
fn finish_refuses_a_stale_shape_and_outputs_of_the_wrong_kind() {
    let spec = coarse_spec(31);
    let (runs, outputs) =
        run_campaign_resumable(&spec, 2, &BTreeMap::new(), |_, _| {}, |_, _| {}).unwrap();
    let pass1_runs = expand(&spec).unwrap().len() as u64;
    let finish = |ckpt: &Checkpoint| {
        finish_from_checkpoint_with(ckpt, 2, false, |_, _| {}, |_, _| {}).map(|_| ())
    };

    // A checkpoint saved when the spec expanded differently.
    let stale = Checkpoint::new(spec.clone(), pass1_runs + 1, None);
    assert!(finish(&stale).is_err());

    // Swapping a CAD output with an RD output, in the first pass and
    // then between a refinement run and a resolver run, is refused and
    // named by index before anything folds it.
    let index_of = |pred: &dyn Fn(&str, bool) -> bool| {
        runs.iter()
            .position(|r| pred(&format!("{:?}", r.kind), r.refined))
            .unwrap()
    };
    let cad = index_of(&|k, refined| k.starts_with("Cad") && !refined);
    let rd = index_of(&|k, _| k.starts_with("Rd"));
    let refined = index_of(&|_, refined| refined);
    let resolver = index_of(&|k, _| k.starts_with("Resolver"));
    for (a, b) in [(cad, rd), (refined, resolver)] {
        let mut swapped = Checkpoint::new(spec.clone(), pass1_runs, None);
        for (i, run) in runs.iter().enumerate() {
            let j = if i == a {
                b
            } else if i == b {
                a
            } else {
                i
            };
            swapped.record(run.index, outputs[j].clone());
        }
        let err = finish(&swapped).unwrap_err().to_string();
        let first = runs[a.min(b)].index;
        assert!(err.contains(&format!("index {first} ")), "{err}");
    }
}
