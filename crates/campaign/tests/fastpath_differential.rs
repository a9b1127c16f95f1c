//! Randomized differential test of the compiled fast path through the
//! campaign executor: on random specs — seed, repetitions, a subset of
//! clients, CAD and RD sweeps and the refinement step — a campaign with
//! the fast path renders the same JSON and CSV bytes as one that
//! simulates every run. The sweeps land on the clients' tie points (CAD
//! 200/250/300 ms, RD 50 ms) often, and the repetitions and refinement
//! cells exercise the per-execution cell memo.

use lazyeye_campaign::{run_campaign_with, CampaignSpec, NetemSpec, RdPlan};
use lazyeye_testbed::{CadCaseConfig, DelayedRecord, SweepSpec};
use proptest::prelude::*;
use proptest::sample::select;

/// Fixed-CAD clients (curl 200, Firefox 250, Chromium 300 ms), an RD
/// client with dynamic CAD, one that never falls back, and one with both
/// a fixed CAD and RD.
const CLIENTS: [&str; 6] = [
    "curl-7.88.1",
    "firefox-132.0",
    "chrome-130.0",
    "safari-17.6",
    "wget-1.21.3",
    "chromium-(hev3-flag)-130.0",
];

/// `points` sweep values from `start`, `step` apart.
fn sweep(start: u64, step: u64, points: u64) -> SweepSpec {
    SweepSpec::new(start, start + step * (points - 1), step)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fast_path_reports_match_full_simulation(
        seed in any::<u64>(),
        clients in proptest::collection::btree_set(0..CLIENTS.len(), 2..4),
        repetitions in 1u32..5,
        (cad_start, cad_step, cad_points) in (0u64..13, select(vec![10u64, 25, 50, 100]), 1u64..5),
        (rd_start, rd_step, rd_points) in (0u64..5, select(vec![10u64, 25, 50]), 1u64..5),
        refine_step_ms in proptest::option::of(select(vec![5u64, 10, 25])),
        jobs in 1usize..4,
    ) {
        let spec = CampaignSpec {
            name: "fastpath-differential".into(),
            seed,
            clients: clients.iter().map(|&i| CLIENTS[i].to_string()).collect(),
            resolvers: Vec::new(),
            netem: vec![NetemSpec::baseline()],
            cad: Some(CadCaseConfig {
                sweep: sweep(25 * cad_start, cad_step, cad_points),
                repetitions,
            }),
            rd: Some(RdPlan {
                records: vec![DelayedRecord::Aaaa, DelayedRecord::A],
                sweep: sweep(25 * rd_start, rd_step, rd_points),
                repetitions,
            }),
            selection: None,
            resolver: None,
            refine_step_ms,
        };
        let simulated = run_campaign_with(&spec, jobs, false, |_, _| {}).unwrap();
        let fast = run_campaign_with(&spec, jobs, true, |_, _| {}).unwrap();
        prop_assert_eq!(fast.to_json(), simulated.to_json());
        prop_assert_eq!(fast.to_csv(), simulated.to_csv());
    }
}
