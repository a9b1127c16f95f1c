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
    build_report_with, expand, run_campaign, run_campaign_resumable, run_shard, CampaignSpec,
    Checkpoint, NetemSpec, RdPlan, SelectionPlan, Shard,
};
use lazy_eye_inspection::fleet::{run_fleet, run_fleet_shard, FleetSpec};
use lazy_eye_inspection::testbed::{CadCaseConfig, DelayedRecord, ResolverCaseConfig, SweepSpec};

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

// Classified reports. The inference section (profiles, verdicts, the
// inference-derived matrix and its `FieldDelta` order) is pinned byte for
// byte, on the default spec and on a spec whose shaped netem condition
// gives RD cells the `delayed-aaaa+<netem>` condition and interleaves
// baseline and shaped cells of every case family.

/// Two clients (Safari arms the RD timer, Chrome does not), one resolver,
/// every case family under a baseline and a shaped condition.
fn pinned_shaped_spec() -> CampaignSpec {
    CampaignSpec {
        name: "golden-pin-shaped".into(),
        seed: 0x5AA9ED,
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
            repetitions: 1,
        }),
        selection: Some(SelectionPlan {
            repetitions: 1,
            ..SelectionPlan::default()
        }),
        resolver: Some(ResolverCaseConfig {
            sweep: SweepSpec::new(0, 400, 400),
            repetitions: 1,
        }),
        refine_step_ms: Some(25),
    }
}

const CLASSIFIED_DEFAULT_JSON_HASH: u64 = 0x39c7_f804_dd78_8fe7;
const CLASSIFIED_DEFAULT_CSV_HASH: u64 = 0x915c_56ad_8648_6f49;
const CLASSIFIED_SHAPED_JSON_HASH: u64 = 0x9b81_c6b1_9333_ee75;
const CLASSIFIED_SHAPED_CSV_HASH: u64 = 0x32f1_cda2_0dd4_7fc0;

fn assert_classified_pinned(spec: &CampaignSpec, json_hash: u64, csv_hash: u64) {
    for jobs in [1usize, 8] {
        let (runs, outputs) =
            run_campaign_resumable(spec, jobs, &BTreeMap::new(), |_, _| {}, |_, _| {}).unwrap();
        let report = build_report_with(spec, &runs, &outputs, true);
        assert!(
            report.inference.is_some(),
            "classified report has no inference section"
        );
        let (json, csv) = (report.to_json(), report.to_csv());
        assert_eq!(
            fnv1a64(json.as_bytes()),
            json_hash,
            "{} classified JSON hash moved at --jobs {jobs} (got {:#x})",
            spec.name,
            fnv1a64(json.as_bytes())
        );
        assert_eq!(
            fnv1a64(csv.as_bytes()),
            csv_hash,
            "{} classified CSV hash moved at --jobs {jobs} (got {:#x})",
            spec.name,
            fnv1a64(csv.as_bytes())
        );
    }
}

#[test]
fn classified_default_report_bytes_are_pinned() {
    assert_classified_pinned(
        &CampaignSpec::default(),
        CLASSIFIED_DEFAULT_JSON_HASH,
        CLASSIFIED_DEFAULT_CSV_HASH,
    );
}

#[test]
fn classified_shaped_report_bytes_are_pinned() {
    let spec = pinned_shaped_spec();
    let runs = expand(&spec).unwrap();
    assert!(
        runs.iter()
            .any(|r| matches!(&r.kind, lazy_eye_inspection::campaign::RunKind::Rd { netem, .. } if netem == "jittery")),
        "the shaped spec must plan RD runs under the shaped condition"
    );
    assert_classified_pinned(
        &spec,
        CLASSIFIED_SHAPED_JSON_HASH,
        CLASSIFIED_SHAPED_CSV_HASH,
    );
}
