//! Fleet determinism and paper-fidelity integration tests: byte-identical
//! reports across worker counts and shard splits, exact App. Figure 4
//! brackets for fixed-CAD clients, and the bracket-not-point contract
//! for dynamic-CAD (Safari) population members.

use lazyeye_fleet::{
    merge_partials, run_fleet, run_fleet_shard, FleetCheckpoint, FleetCondition, FleetSpec, Shard,
};

/// A mixed population: one Chromium (300 ms), one Firefox (250 ms), one
/// desktop Safari (dynamic) under both default conditions.
fn mixed_spec() -> FleetSpec {
    FleetSpec {
        name: "mixed".into(),
        seed: 11,
        population: vec![
            "opera-114.0.0".to_string(),
            "firefox-130.0".to_string(),
            "safari-18.0.1".to_string(),
        ],
        cad_sessions: 2,
        rd_sessions: 1,
        repetitions: 3,
        resolver_checks: 1,
        ..FleetSpec::default()
    }
}

#[test]
fn reports_are_byte_identical_across_jobs_and_shard_merge() {
    let spec = mixed_spec();
    let j1 = run_fleet(&spec, 1, |_, _| {}).unwrap();
    for jobs in [2, 4] {
        let pooled = run_fleet(&spec, jobs, |_, _| {}).unwrap();
        assert_eq!(j1.to_json(), pooled.to_json(), "--jobs {jobs}");
        assert_eq!(j1.to_csv(), pooled.to_csv(), "--jobs {jobs}");
    }

    let mut parts = Vec::new();
    for index in 0..3 {
        let part = run_fleet_shard(&spec, 2, Shard { index, count: 3 }, |_, _| {}, |_| {}).unwrap();
        // Round-trip through the on-disk form, as a real multi-machine
        // split would.
        parts.push(FleetCheckpoint::from_json_str(&part.to_json_string()).unwrap());
    }
    let merged = merge_partials(parts).unwrap();
    assert!(merged.missing().is_empty());
    let report = lazyeye_fleet::finish_from_partial(&merged, 4, |_, _| {}).unwrap();
    assert_eq!(report.to_json(), j1.to_json());
    assert_eq!(report.to_csv(), j1.to_csv());
}

#[test]
fn fixed_cad_members_bracket_their_configured_cad_exactly() {
    let spec = mixed_spec();
    let report = run_fleet(&spec, 4, |_, _| {}).unwrap();
    for m in report
        .members
        .iter()
        .filter(|m| !m.member.contains("safari"))
    {
        // App. Figure 4 semantics: the configured CAD lies in
        // (last v6, first v4] — the web tool brackets it between
        // neighbouring tiers, under every condition.
        assert_eq!(
            m.agreement.cad_bracket_contains_known,
            Some(true),
            "{} [{}]: bracket ({:?}, {:?}] misses the configured CAD\n{}",
            m.member,
            m.condition,
            m.cad_last_v6_ms,
            m.cad_first_v4_ms,
            m.grid
        );
        assert!(!m.cad_dynamic, "{} is a fixed-CAD client", m.member);
        assert!(
            m.cad_point_ms.is_some(),
            "fixed-CAD members get a point estimate"
        );
        // Chromium (Opera) and Firefox both stall on the delayed AAAA
        // answer instead of arming a Resolution Delay.
        assert_eq!(m.rd_verdict, "stall", "{}", m.member);
        assert!(m.agreement.agrees, "{}: {:?}", m.member, m.agreement.deltas);
    }
    assert!(report.summary.all_fixed_cad_bracketed);
    assert!(report.summary.all_members_agree);
}

#[test]
fn safari_members_report_a_bracket_not_a_point() {
    let spec = FleetSpec {
        name: "safari".into(),
        seed: 3,
        population: vec!["safari-18.0.1".to_string()],
        conditions: vec![FleetCondition {
            label: "home".into(),
            base_delay_ms: 8,
            jitter_ms: 3,
        }],
        cad_sessions: 3,
        rd_sessions: 1,
        rd_a_sessions: 0,
        repetitions: 3,
        resolver_checks: 0,
    };
    let report = run_fleet(&spec, 4, |_, _| {}).unwrap();
    assert_eq!(report.members.len(), 1);
    let m = &report.members[0];
    // The fleet flags the history-driven CAD as dynamic and refuses to
    // issue a point estimate — only the bracket (the paper's fundamental
    // web-method resolution limit).
    assert!(m.cad_dynamic, "Safari CAD is dynamic:\n{}", m.grid);
    assert_eq!(
        m.cad_point_ms, None,
        "dynamic CAD gets a bracket, not a point"
    );
    assert!(
        m.cad_first_v4_ms.is_some(),
        "the bracket exists: some tier fell to IPv4\n{}",
        m.grid
    );
    // History drags the dynamic CAD below the fresh-state 2 s.
    assert!(
        m.cad_last_v6_ms.unwrap_or(0) < 2000 || m.cad_first_v4_ms.unwrap() < 2000,
        "history pulls the web CAD below 2 s: {:?}..{:?}",
        m.cad_last_v6_ms,
        m.cad_first_v4_ms
    );
    // Safari arms the 50 ms Resolution Delay.
    assert_eq!(m.rd_verdict, "armed");
    assert!(m.agreement.agrees, "{:?}", m.agreement.deltas);
    assert_eq!(report.summary.dynamic_cad_flagged, 1);
}

#[test]
fn population_scale_memory_is_o_population() {
    // The collector keeps per-tier counts only: ingesting 50 sessions
    // into one member leaves exactly one tier vector behind, regardless
    // of session count.
    use lazyeye_fleet::CaseAggregate;
    use lazyeye_net::Family;
    use lazyeye_webtool::{TierObservation, WebSessionResult};
    let mut agg = CaseAggregate::default();
    for _ in 0..50 {
        agg.ingest(&WebSessionResult {
            tiers: vec![TierObservation {
                delay_ms: 0,
                families: vec![Some(Family::V6); 3],
                fetch_us: vec![600; 3],
            }],
        });
    }
    assert_eq!(agg.sessions, 50);
    assert_eq!(agg.tiers.len(), 1, "state is per-tier, not per-session");
    assert_eq!(agg.tiers[0].v6, 150);
}
