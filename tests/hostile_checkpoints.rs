//! Property-based hostile-input tests for the files the CLI loads back:
//! the two resumable state files (campaign checkpoints and fleet
//! partials) and flight-recorder bundles. Arbitrary bytes and byte-level
//! mutations of a valid file must parse to `Ok` or `Err`, never panic.

use std::sync::OnceLock;

use lazyeye_campaign::forensics::{capture_trace, provenance};
use lazyeye_campaign::{
    expand, run_shard, CampaignSpec, Checkpoint, NetemSpec, RdPlan, RunProvenance, SelectionPlan,
    Shard,
};
use lazyeye_fleet::{run_fleet_shard, FleetCheckpoint, FleetSpec};
use lazyeye_json::{FromJson, Json, ToJson};
use lazyeye_obs::bundle::Bundle;
use lazyeye_obs::recorder::Recorder;
use lazyeye_obs::Clock;
use lazyeye_testbed::{CadCaseConfig, DelayedRecord, ResolverCaseConfig, SweepSpec};
use lazyeye_trace::Trace;
use proptest::prelude::*;

const WHOLE: Shard = Shard { index: 0, count: 1 };

/// A valid campaign checkpoint holding outputs of every run kind.
fn campaign_checkpoint() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let spec = CampaignSpec {
            name: "hostile".into(),
            seed: 3,
            clients: vec!["chrome-130.0".into()],
            resolvers: vec!["Unbound".into()],
            cad: Some(CadCaseConfig {
                sweep: SweepSpec::new(250, 350, 100),
                repetitions: 1,
            }),
            rd: Some(RdPlan {
                records: vec![DelayedRecord::Aaaa, DelayedRecord::A],
                sweep: SweepSpec::new(100, 100, 50),
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
            ..CampaignSpec::default()
        };
        run_shard(&spec, 1, WHOLE, None, |_, _| {}, |_| {})
            .unwrap()
            .to_json_string()
    })
}

/// A valid fleet partial holding CAD, RD and resolver-check sessions.
fn fleet_partial() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let spec = FleetSpec {
            name: "hostile".into(),
            seed: 3,
            population: vec!["firefox-130.0".to_string()],
            cad_sessions: 1,
            rd_sessions: 1,
            repetitions: 1,
            resolver_checks: 1,
            ..FleetSpec::default()
        };
        run_fleet_shard(&spec, 1, WHOLE, |_, _| {}, |_| {})
            .unwrap()
            .to_json_string()
    })
}

/// A valid fast-path-fallback bundle: a lossy CAD run's provenance and
/// captured trace, plus a wall section with a ring snapshot.
fn bundle_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let spec = CampaignSpec {
            name: "hostile".into(),
            seed: 3,
            clients: vec!["chrome-130.0".into()],
            netem: vec![NetemSpec {
                label: "lossy".into(),
                loss_pct: 1.5,
                jitter_ms: 2,
                duplicate_pct: 0.5,
            }],
            cad: Some(CadCaseConfig {
                sweep: SweepSpec::new(250, 250, 50),
                repetitions: 1,
            }),
            rd: None,
            selection: None,
            resolver: None,
            ..CampaignSpec::default()
        };
        let runs = expand(&spec).unwrap();
        let p = provenance(&spec, runs.last().unwrap());
        let trace = capture_trace(&p);
        let mut bundle = Bundle::new(
            "fastpath-fallback",
            "cad:chrome-130.0:lossy:d250:r0",
            "tie",
            p.to_json(),
            trace.to_json(),
        );
        let ring = Recorder::new(4);
        ring.record(
            Clock::Virtual,
            "campaign.run",
            "cad chrome-130.0 delay=250ms rep=0",
        );
        ring.record(Clock::Virtual, "sim.run", "virtual_us=250000");
        bundle.wall = Json::obj(vec![
            ("ring", ring.snapshot_json()),
            (
                "metrics",
                Json::Str("lazyeye_campaign_runs{clock=\"virtual\"} 1\n".into()),
            ),
        ]);
        bundle.to_json_string()
    })
}

/// Loads `text` the way `lazyeye replay` does, up to re-execution.
fn load_bundle(text: &str) {
    if let Ok(bundle) = Bundle::from_json_str(text) {
        let _ = RunProvenance::from_json(&bundle.provenance);
        let _ = Trace::from_json(&bundle.trace);
    }
}

/// Bytes that change a JSON document's structure rather than a value's
/// spelling.
const JSON_BYTES: &[u8] = b"{}[],:\"\\-.0123456789eEtfn ";

/// One single-byte edit: kind 0 overwrites with any byte, kind 1 with a
/// JSON-significant byte, kind 2 deletes the byte.
fn arb_edit() -> impl Strategy<Value = (u32, u8, u8)> {
    (any::<u32>(), any::<u8>(), 0u8..3)
}

fn mutate(valid: &str, edits: &[(u32, u8, u8)]) -> String {
    let mut bytes = valid.as_bytes().to_vec();
    for &(pos, val, kind) in edits {
        if bytes.is_empty() {
            break;
        }
        let idx = pos as usize % bytes.len();
        match kind {
            0 => bytes[idx] = val,
            1 => bytes[idx] = JSON_BYTES[usize::from(val) % JSON_BYTES.len()],
            _ => {
                bytes.remove(idx);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn valid_files_parse() {
    let ckpt = Checkpoint::from_json_str(campaign_checkpoint()).unwrap();
    assert!(!ckpt.completed().is_empty());
    let partial = FleetCheckpoint::from_json_str(fleet_partial()).unwrap();
    assert_eq!(partial.to_json_string(), fleet_partial());
    let bundle = Bundle::from_json_str(bundle_text()).unwrap();
    let p = RunProvenance::from_json(&bundle.provenance).unwrap();
    assert_eq!(p.condition, "lossy");
    assert!(!Trace::from_json(&bundle.trace).unwrap().events.is_empty());
    assert_eq!(bundle.to_json_string(), bundle_text());
}

proptest! {
    #[test]
    fn parsers_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Checkpoint::from_json_str(&text);
        let _ = FleetCheckpoint::from_json_str(&text);
        load_bundle(&text);
    }

    #[test]
    fn checkpoint_parser_never_panics_on_mutated_valid_checkpoint(
        edits in proptest::collection::vec(arb_edit(), 1..4),
    ) {
        let _ = Checkpoint::from_json_str(&mutate(campaign_checkpoint(), &edits));
    }

    #[test]
    fn partial_parser_never_panics_on_mutated_valid_partial(
        edits in proptest::collection::vec(arb_edit(), 1..4),
    ) {
        let _ = FleetCheckpoint::from_json_str(&mutate(fleet_partial(), &edits));
    }

    #[test]
    fn bundle_loader_never_panics_on_mutated_valid_bundle(
        edits in proptest::collection::vec(arb_edit(), 1..4),
    ) {
        load_bundle(&mutate(bundle_text(), &edits));
    }
}
