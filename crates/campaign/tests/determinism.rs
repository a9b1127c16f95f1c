//! The campaign engine's headline guarantee: reports are a pure function
//! of `(spec, seed)` — worker count must never leak into a single output
//! byte.

use lazyeye_campaign::{
    derive_seed, expand, run_campaign, CampaignSpec, NetemSpec, RdPlan, SelectionPlan,
};
use lazyeye_testbed::{CadCaseConfig, DelayedRecord, ResolverCaseConfig, SweepSpec};

/// A reduced matrix that still exercises every case family and a shaped
/// netem condition, sized to stay fast in debug builds.
fn test_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        name: "determinism".into(),
        seed,
        clients: vec![
            "chrome-130.0".into(),
            "firefox-132.0".into(),
            "curl-7.88.1".into(),
        ],
        resolvers: vec!["BIND".into(), "Unbound".into()],
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
            sweep: SweepSpec::new(180, 320, 70),
            repetitions: 2,
        }),
        rd: Some(RdPlan {
            records: vec![DelayedRecord::Aaaa, DelayedRecord::A],
            sweep: SweepSpec::new(100, 300, 200),
            repetitions: 1,
        }),
        selection: Some(SelectionPlan {
            repetitions: 1,
            ..SelectionPlan::default()
        }),
        resolver: Some(ResolverCaseConfig {
            sweep: SweepSpec::new(0, 400, 400),
            repetitions: 2,
        }),
        refine_step_ms: Some(5),
    }
}

#[test]
fn report_is_byte_identical_across_worker_counts() {
    let spec = test_spec(7);
    let sequential = run_campaign(&spec, 1, |_, _| {}).unwrap();
    for jobs in [2, 8] {
        let pooled = run_campaign(&spec, jobs, |_, _| {}).unwrap();
        assert_eq!(
            sequential.to_json(),
            pooled.to_json(),
            "JSON must not depend on --jobs {jobs}"
        );
        assert_eq!(
            sequential.to_csv(),
            pooled.to_csv(),
            "CSV must not depend on --jobs {jobs}"
        );
        assert_eq!(sequential.render_text(), pooled.render_text());
    }
}

#[test]
fn different_seeds_change_runs_but_not_shape() {
    let a = run_campaign(&test_spec(7), 4, |_, _| {}).unwrap();
    let b = run_campaign(&test_spec(8), 4, |_, _| {}).unwrap();
    assert_eq!(a.total_runs, b.total_runs);
    assert_eq!(a.cells.len(), b.cells.len());
    // Cell keys agree even when measured values may differ.
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(
            (&ca.case, &ca.subject, &ca.condition),
            (&cb.case, &cb.subject, &cb.condition)
        );
    }
}

#[test]
fn expansion_seeds_are_stable_across_processes() {
    // Pin a few derived seeds: silent changes to the derivation would
    // invalidate every archived campaign report.
    let runs = expand(&test_spec(7)).unwrap();
    for run in &runs {
        assert_eq!(run.seed, derive_seed(7, run.index));
    }
    let again = expand(&test_spec(7)).unwrap();
    assert_eq!(runs, again);
}

#[test]
fn headline_findings_survive_the_campaign_path() {
    // The same physics the single-case runners measure must come out of
    // the sharded two-pass path: Chrome switches over at 300 ms, curl at
    // 200 ms — and the automatic fine pass pins each switchover to the
    // 5 ms refinement step.
    let report = run_campaign(&test_spec(1), 4, |_, _| {}).unwrap();
    let cell = |subject: &str, condition: &str| {
        report
            .cells
            .iter()
            .find(|c| c.case == "cad" && c.subject == subject && c.condition == condition)
            .unwrap()
    };
    // Coarse sweep 180/250/320 brackets Chrome (CAD 300) at (250, 320);
    // the 5 ms fine pass narrows that to (300, 305).
    assert_eq!(
        cell("chrome-130.0", "baseline").first_v4_delay_ms,
        Some(305)
    );
    assert_eq!(cell("chrome-130.0", "baseline").last_v6_delay_ms, Some(300));
    // curl (CAD 200): coarse bracket (180, 250) refines to (200, 205).
    assert_eq!(cell("curl-7.88.1", "baseline").last_v6_delay_ms, Some(200));
    assert_eq!(cell("curl-7.88.1", "baseline").first_v4_delay_ms, Some(205));
    // Firefox (CAD 250): refined to (250, 255).
    assert_eq!(
        cell("firefox-132.0", "baseline").first_v4_delay_ms,
        Some(255)
    );
    assert!(report.refined_runs > 0);
}
