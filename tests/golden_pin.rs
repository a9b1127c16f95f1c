//! Golden determinism regression: the byte-exact hash of a fixed-seed
//! campaign report and fleet grid report is pinned here, and so are the
//! bytes of the shard partials and checkpoints those engines write.
//!
//! These constants were recorded on the *pre-overhaul* scheduler (HashMap
//! slab + BinaryHeap timers + single `Arc<Mutex>`): the slab/timer-wheel
//! executor and the `SimPool` arena reuse must reproduce the exact same
//! schedules, so the hashes must never move. They are also asserted
//! identical across `--jobs 1/4/8`, which pins worker-count independence
//! at the same time.
//!
//! If a change legitimately alters measurement *semantics* (not scheduling),
//! re-pin the constants in the same commit and say why in the message.

use std::collections::BTreeMap;

use lazy_eye_inspection::campaign::{
    expand, run_campaign, run_campaign_resumable, run_shard, CampaignSpec, Checkpoint, NetemSpec,
    SelectionPlan, Shard,
};
use lazy_eye_inspection::fleet::{run_fleet, run_fleet_shard, FleetSpec};
use lazy_eye_inspection::testbed::{CadCaseConfig, ResolverCaseConfig, SweepSpec};

/// FNV-1a 64-bit over the raw report bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A small but representative campaign: two clients, one resolver, CAD +
/// selection + resolver cases, with a refinement pass inside the CAD
/// switchover bracket.
fn pinned_campaign_spec() -> CampaignSpec {
    CampaignSpec {
        name: "golden-pin".into(),
        seed: 0xE7E5EED,
        clients: vec!["chrome-130.0".into(), "curl-7.88.1".into()],
        resolvers: vec!["BIND".into()],
        netem: vec![NetemSpec::baseline()],
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(0, 300, 100),
            repetitions: 1,
        }),
        rd: None,
        selection: Some(SelectionPlan {
            repetitions: 1,
            ..SelectionPlan::default()
        }),
        resolver: Some(ResolverCaseConfig {
            sweep: SweepSpec::new(0, 400, 200),
            repetitions: 1,
        }),
        refine_step_ms: Some(25),
    }
}

/// A small fleet: one browser id (3 Table-5 OS variants) × two conditions.
fn pinned_fleet_spec() -> FleetSpec {
    FleetSpec {
        name: "golden-pin".into(),
        seed: 0xF1EE7,
        population: vec!["firefox-131.0".into()],
        cad_sessions: 1,
        rd_sessions: 1,
        repetitions: 1,
        resolver_checks: 1,
        ..FleetSpec::default()
    }
}

const CAMPAIGN_JSON_HASH: u64 = 0x0d94_9804_797c_3174;
const CAMPAIGN_CSV_HASH: u64 = 0xf781_206e_6f45_9456;
const FLEET_JSON_HASH: u64 = 0xa375_c8cb_8b58_89ac;
const FLEET_CSV_HASH: u64 = 0x938c_eb15_bd08_b813;

#[test]
fn campaign_report_bytes_are_pinned_across_jobs() {
    let spec = pinned_campaign_spec();
    for jobs in [1usize, 4, 8] {
        let report = run_campaign(&spec, jobs, |_, _| {}).unwrap();
        let json = report.to_json();
        let csv = report.to_csv();
        assert_eq!(
            fnv1a64(json.as_bytes()),
            CAMPAIGN_JSON_HASH,
            "campaign JSON hash moved at --jobs {jobs} (got {:#x})",
            fnv1a64(json.as_bytes())
        );
        assert_eq!(
            fnv1a64(csv.as_bytes()),
            CAMPAIGN_CSV_HASH,
            "campaign CSV hash moved at --jobs {jobs} (got {:#x})",
            fnv1a64(csv.as_bytes())
        );
    }
}

#[test]
fn fleet_report_bytes_are_pinned_across_jobs() {
    let spec = pinned_fleet_spec();
    for jobs in [1usize, 4, 8] {
        let report = run_fleet(&spec, jobs, |_, _| {}).unwrap();
        let json = report.to_json();
        let csv = report.to_csv();
        assert_eq!(
            fnv1a64(json.as_bytes()),
            FLEET_JSON_HASH,
            "fleet JSON hash moved at --jobs {jobs} (got {:#x})",
            fnv1a64(json.as_bytes())
        );
        assert_eq!(
            fnv1a64(csv.as_bytes()),
            FLEET_CSV_HASH,
            "fleet CSV hash moved at --jobs {jobs} (got {:#x})",
            fnv1a64(csv.as_bytes())
        );
    }
}

// On-disk partial-state format. Shard partials and checkpoints are read
// back by `--merge` and `--resume` on other machines and by later builds,
// so their bytes are pinned like the reports'.

const CAMPAIGN_SHARD_PARTIAL_HASH: u64 = 0x5614_e6e6_c286_dbe8;
const CAMPAIGN_CHECKPOINT_HASH: u64 = 0x3ab2_35b0_0f4b_aaf9;
const FLEET_SHARD_PARTIAL_HASH: u64 = 0xcf28_cf47_bdf3_d822;

#[test]
fn campaign_shard_partial_bytes_are_pinned() {
    let spec = pinned_campaign_spec();
    for jobs in [1usize, 4] {
        let part = run_shard(
            &spec,
            jobs,
            Shard { index: 0, count: 2 },
            None,
            |_, _| {},
            |_| {},
        )
        .unwrap();
        let text = part.to_json_string();
        assert_eq!(
            fnv1a64(text.as_bytes()),
            CAMPAIGN_SHARD_PARTIAL_HASH,
            "campaign shard 0/2 partial hash moved at --jobs {jobs} (got {:#x})",
            fnv1a64(text.as_bytes())
        );
    }
}

#[test]
fn campaign_checkpoint_bytes_are_pinned() {
    // A finished whole-campaign checkpoint: first pass plus the
    // refinement pass inside chrome's and curl's CAD brackets.
    let spec = pinned_campaign_spec();
    let pass1_runs = expand(&spec).unwrap().len() as u64;
    for jobs in [1usize, 4] {
        let mut ckpt = Checkpoint::new(spec.clone(), pass1_runs, None);
        let completed = BTreeMap::new();
        let (runs, _) = run_campaign_resumable(
            &spec,
            jobs,
            &completed,
            |_, _| {},
            |run, out| ckpt.record(run.index, out.clone()),
        )
        .unwrap();
        assert!(runs.iter().any(|r| r.refined), "no refinement outputs");
        let text = ckpt.to_json_string();
        assert_eq!(
            fnv1a64(text.as_bytes()),
            CAMPAIGN_CHECKPOINT_HASH,
            "campaign checkpoint hash moved at --jobs {jobs} (got {:#x})",
            fnv1a64(text.as_bytes())
        );
    }
}

#[test]
fn fleet_shard_partial_bytes_are_pinned() {
    let spec = pinned_fleet_spec();
    for jobs in [1usize, 4] {
        let part =
            run_fleet_shard(&spec, jobs, Shard { index: 1, count: 2 }, |_, _| {}, |_| {}).unwrap();
        let text = part.to_json_string();
        assert_eq!(
            fnv1a64(text.as_bytes()),
            FLEET_SHARD_PARTIAL_HASH,
            "fleet shard 1/2 partial hash moved at --jobs {jobs} (got {:#x})",
            fnv1a64(text.as_bytes())
        );
    }
}
