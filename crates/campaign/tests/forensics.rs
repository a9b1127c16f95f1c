//! Flight-recorder integration: every trigger kind fires a
//! self-contained bundle whose virtual section replays byte-identically
//! from provenance alone.
//!
//! The trigger engine is process-global, so every test here takes
//! `TRIGGER_LOCK` and arms its own scratch directory.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

use lazyeye_campaign::plan::{RunKind, RunSpec};
use lazyeye_campaign::{
    build_report_with, expand, replay, run_campaign_resumable_with, run_one, CampaignSpec,
    RunContext, RunOutput,
};
use lazyeye_net::Family;
use lazyeye_obs::bundle::Bundle;
use lazyeye_obs::trigger;
use lazyeye_testbed::{CadCaseConfig, CadSample, SweepSpec};

static TRIGGER_LOCK: Mutex<()> = Mutex::new(());

/// Arms the trigger engine on a fresh scratch directory.
fn arm_scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lazyeye-forensics-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    trigger::arm(&dir).expect("arm trigger engine");
    dir
}

/// Reads back every bundle written into `dir`, sorted by file name.
fn read_bundles(dir: &PathBuf) -> Vec<Bundle> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("bundle dir exists")
        .flatten()
        .map(|e| e.path())
        .collect();
    files.sort();
    files
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).expect("read bundle");
            Bundle::from_json_str(&text).expect("parse bundle")
        })
        .collect()
}

/// CAD-only chrome spec, small enough to simulate in-process.
fn cad_spec() -> CampaignSpec {
    CampaignSpec {
        name: "forensics".into(),
        seed: 7,
        clients: vec!["chrome-130.0".into()],
        rd: None,
        selection: None,
        resolver: None,
        refine_step_ms: None,
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(0, 80, 20),
            repetitions: 1,
        }),
        ..CampaignSpec::default()
    }
}

/// A worker panic on an unresolvable client id must still leave a
/// bundle behind, and replaying it must reproduce the exact panic.
#[test]
fn run_panic_bundle_replays() {
    let _g = TRIGGER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = cad_spec();
    let ctx = RunContext::new(&spec).unwrap();
    let dir = arm_scratch("panic");
    let bad = RunSpec {
        index: 999,
        seed: 1,
        kind: RunKind::Cad {
            client: "ghost-9.9".into(),
            netem: "baseline".into(),
            delay_ms: 100,
            rep: 0,
        },
        refined: false,
    };
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_one(&ctx, &bad)));
    trigger::disarm();
    assert!(
        caught.is_err(),
        "the bad run must still panic after dumping"
    );

    let bundles = read_bundles(&dir);
    assert_eq!(bundles.len(), 1);
    let bundle = &bundles[0];
    assert_eq!(bundle.kind, "run-panic");
    assert!(
        bundle.detail.contains("ghost-9.9"),
        "panic message carries the offending id: {}",
        bundle.detail
    );
    let report = replay(bundle).unwrap();
    assert!(report.identical, "{:?}", report.divergence);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A changepoint fit with misclassified observations fires an
/// inference-misfit bundle pointing at a concrete misfit run.
#[test]
fn inference_misfit_bundle_replays() {
    let _g = TRIGGER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = cad_spec();
    let runs = expand(&spec).unwrap();
    assert_eq!(runs.len(), 5);
    // Fabricated families with no clean step (V6 V4 V6 V4 V4): any
    // threshold leaves at least one observation on the wrong side.
    let families = [Family::V6, Family::V4, Family::V6, Family::V4, Family::V4];
    let outputs: Vec<RunOutput> = runs
        .iter()
        .zip(families)
        .map(|(run, family)| {
            let RunKind::Cad { delay_ms, rep, .. } = &run.kind else {
                panic!("cad-only spec");
            };
            RunOutput::Cad(CadSample {
                configured_delay_ms: *delay_ms,
                rep: *rep,
                family: Some(family),
                observed_cad_ms: None,
                aaaa_first: Some(true),
            })
        })
        .collect();

    let dir = arm_scratch("misfit");
    let report = build_report_with(&spec, &runs, &outputs, true);
    trigger::disarm();
    let section = report.inference.expect("classify builds the section");
    assert!(section.profiles[0].profile.cad.misfits > 0);

    let bundles = read_bundles(&dir);
    let misfit = bundles
        .iter()
        .find(|b| b.kind == "inference-misfit")
        .expect("misfit bundle written");
    assert_eq!(misfit.key, "cad:chrome-130.0:baseline");
    let replayed = replay(misfit).unwrap();
    assert!(replayed.identical, "{:?}", replayed.divergence);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A real two-pass classified campaign with the fast path on exercises
/// the remaining trigger kinds — fastpath-fallback (chrome's 300 ms tie
/// is inside the sweep), refinement-bracket and deviates — and every
/// bundle replays byte-identically.
#[test]
fn campaign_triggers_fire_and_replay() {
    let _g = TRIGGER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = CampaignSpec {
        name: "forensics-e2e".into(),
        seed: 7,
        clients: vec!["chrome-130.0".into(), "wget-1.21.3".into()],
        rd: None,
        selection: None,
        resolver: None,
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(280, 320, 20),
            repetitions: 1,
        }),
        refine_step_ms: Some(5),
        ..CampaignSpec::default()
    };
    let dir = arm_scratch("campaign");
    let (runs, outputs) =
        run_campaign_resumable_with(&spec, 2, true, &BTreeMap::new(), |_, _| {}, |_, _| {})
            .unwrap();
    build_report_with(&spec, &runs, &outputs, true);
    trigger::disarm();

    let bundles = read_bundles(&dir);
    let kinds: std::collections::BTreeSet<&str> = bundles.iter().map(|b| b.kind.as_str()).collect();
    for expected in ["fastpath-fallback", "refinement-bracket", "deviates"] {
        assert!(
            kinds.contains(expected),
            "missing {expected:?} in {kinds:?}"
        );
    }
    for bundle in &bundles {
        let report = replay(bundle).unwrap();
        assert!(
            report.identical,
            "{} [{}]: {:?}",
            bundle.kind, bundle.key, report.divergence
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The ring's only reader is a firing trigger, so an unarmed campaign
/// must not write to it at all, and an armed one records exactly one
/// `campaign.run` event per run (both passes).
#[test]
fn ring_records_one_event_per_run_only_while_armed() {
    let _g = TRIGGER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ring = lazyeye_obs::recorder::recorder();
    let spec = CampaignSpec {
        name: "forensics-ring".into(),
        seed: 7,
        clients: vec!["chrome-130.0".into(), "wget-1.21.3".into()],
        rd: None,
        selection: None,
        resolver: None,
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(200, 400, 20),
            repetitions: 2,
        }),
        refine_step_ms: Some(5),
        ..CampaignSpec::default()
    };
    let classified_fast_campaign = || {
        let (runs, outputs) =
            run_campaign_resumable_with(&spec, 2, true, &BTreeMap::new(), |_, _| {}, |_, _| {})
                .unwrap();
        build_report_with(&spec, &runs, &outputs, true);
        runs.len()
    };

    trigger::disarm();
    let before = ring.written();
    classified_fast_campaign();
    assert_eq!(
        ring.written(),
        before,
        "an unarmed campaign wrote to the ring"
    );

    ring.clear();
    let dir = arm_scratch("ring");
    let runs = classified_fast_campaign();
    trigger::disarm();
    let written = ring.written() - before;
    assert!(
        written <= ring.capacity() as u64,
        "{written} events overflow the ring; shrink the spec"
    );
    let run_events = ring
        .snapshot()
        .iter()
        .filter(|e| e.name == "campaign.run")
        .count();
    assert_eq!(run_events, runs, "one campaign.run event per run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A refused cell is refused for every one of its runs, whichever of them
/// drove it: each run books one fallback and writes one
/// `fastpath.fallback` ring event, and the analytic driver writes none.
#[test]
fn ring_holds_one_fallback_event_per_refused_run() {
    let _g = TRIGGER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ring = lazyeye_obs::recorder::recorder();
    let fallbacks = lazyeye_obs::counter("fastpath.fallbacks", lazyeye_obs::Clock::Virtual);
    // Chrome's 300 ms CAD is a sweep point: a tie cell, at 2 reps.
    let spec = CampaignSpec {
        name: "forensics-fallbacks".into(),
        seed: 7,
        clients: vec!["chrome-130.0".into()],
        rd: None,
        selection: None,
        resolver: None,
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(280, 320, 20),
            repetitions: 2,
        }),
        refine_step_ms: None,
        ..CampaignSpec::default()
    };

    ring.clear();
    let before = fallbacks.get();
    let dir = arm_scratch("fallbacks");
    run_campaign_resumable_with(&spec, 2, true, &BTreeMap::new(), |_, _| {}, |_, _| {}).unwrap();
    trigger::disarm();
    let moved = fallbacks.get() - before;
    assert_eq!(moved, 2, "the tie cell refuses both reps");

    let events = ring.snapshot();
    let count = |name: &str| events.iter().filter(|e| e.name == name).count() as u64;
    assert_eq!(count("fastpath.fallback"), moved);
    assert_eq!(count("core.fastpath.refusal"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
