//! Property-based hostile-input tests for the files the CLI loads: the
//! two resumable state files (campaign checkpoints and fleet partials),
//! flight-recorder bundles, campaign and fleet specs, the campaign and
//! fleet reports `--diff` reads, and the trace files `infer --trace`
//! reads. Arbitrary bytes and byte-level mutations
//! of a valid file must parse to `Ok` or `Err`, never panic — and so must
//! what the CLI does next with a parsed spec or report.

use std::sync::OnceLock;

use lazyeye_campaign::forensics::{capture_trace, provenance};
use lazyeye_campaign::{
    build_report_with, diff_reports, expand, run_campaign_resumable, run_shard, CampaignReport,
    CampaignSpec, Checkpoint, NetemSpec, RdPlan, RunContext, RunProvenance, SelectionPlan, Shard,
};
use lazyeye_fleet::{diff_report_strs, run_fleet, run_fleet_shard, FleetCheckpoint, FleetSpec};
use lazyeye_infer::{infer_resolver_traces, infer_traces};
use lazyeye_json::{FromJson, Json, ToJson};
use lazyeye_obs::bundle::Bundle;
use lazyeye_obs::recorder::Recorder;
use lazyeye_obs::Clock;
use lazyeye_testbed::{CadCaseConfig, DelayedRecord, ResolverCaseConfig, SweepSpec};
use lazyeye_trace::{Trace, TraceSet};
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

/// A small valid campaign spec with every block set.
fn small_campaign_spec() -> CampaignSpec {
    CampaignSpec {
        name: "hostile".into(),
        seed: 3,
        clients: vec!["chrome-130.0".into(), "safari-17.6".into()],
        resolvers: vec!["BIND".into()],
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(250, 350, 50),
            repetitions: 1,
        }),
        rd: Some(RdPlan {
            records: vec![DelayedRecord::Aaaa, DelayedRecord::A],
            sweep: SweepSpec::new(0, 100, 50),
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
        ..CampaignSpec::default()
    }
}

/// A small valid fleet spec.
fn small_fleet_spec() -> FleetSpec {
    FleetSpec {
        name: "hostile".into(),
        seed: 3,
        population: vec!["firefox-130.0".to_string()],
        cad_sessions: 1,
        rd_sessions: 1,
        rd_a_sessions: 1,
        repetitions: 1,
        resolver_checks: 1,
        ..FleetSpec::default()
    }
}

/// A valid classified campaign report of [`small_campaign_spec`].
fn campaign_report() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let spec = small_campaign_spec();
        let (runs, outputs) =
            run_campaign_resumable(&spec, 1, &Default::default(), |_, _| {}, |_, _| {}).unwrap();
        build_report_with(&spec, &runs, &outputs, true).to_json()
    })
}

/// A valid fleet report of [`small_fleet_spec`].
fn fleet_report() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        run_fleet(&small_fleet_spec(), 1, |_, _| {})
            .unwrap()
            .to_json()
    })
}

/// A valid trace file: one captured trace of each run kind of
/// [`small_campaign_spec`] (CAD, RD, selection, resolver), from two
/// clients and a resolver.
fn trace_file() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let spec = small_campaign_spec();
        let runs = expand(&spec).unwrap();
        let mut set = TraceSet::default();
        for (case, subject) in [
            ("cad", "chrome-130.0"),
            ("rd", "safari-17.6"),
            ("selection", "chrome-130.0"),
            ("resolver", "BIND"),
        ] {
            let run = runs
                .iter()
                .find(|r| r.kind.case() == case && r.kind.subject() == subject)
                .unwrap();
            set.push(capture_trace(&provenance(&spec, run)));
        }
        set.to_json_string()
    })
}

/// Loads a trace file the way `lazyeye infer --trace` does, through
/// client and resolver inference.
fn load_traces(text: &str) {
    if let Ok(set) = TraceSet::from_json_str(text) {
        let _ = infer_traces(&set);
        let _ = infer_resolver_traces(&set);
    }
}

/// Expansions larger than this are not built: a mutated digit can ask
/// for millions of runs, which is a valid spec, not a hostile one.
const SMALL_PLAN: u128 = 20_000;

/// An upper bound on the number of runs `spec` expands to, counted
/// without expanding: an empty client or resolver list means every
/// profile.
fn campaign_plan_size(spec: &CampaignSpec) -> u128 {
    let points =
        |s: &SweepSpec| u128::from(s.end_ms.saturating_sub(s.start_ms) / s.step_ms.max(1)) + 1;
    let clients = spec.clients.len().max(64) as u128;
    let conditions = spec.netem.len().max(1) as u128;
    let resolvers = spec.resolvers.len().max(16) as u128;
    let cad = spec
        .cad
        .as_ref()
        .map_or(0, |c| points(&c.sweep) * u128::from(c.repetitions));
    let rd = spec.rd.as_ref().map_or(0, |r| {
        points(&r.sweep) * u128::from(r.repetitions) * r.records.len() as u128
    });
    let selection = spec
        .selection
        .as_ref()
        .map_or(0, |s| u128::from(s.repetitions));
    let resolver = spec.resolver.as_ref().map_or(0, |r| {
        points(&r.sweep) * u128::from(r.repetitions) * resolvers
    });
    conditions * (clients * (cad + rd + selection) + resolver)
}

/// An upper bound on the number of sessions `spec` expands to, counted
/// without expanding: an empty population means every member.
fn fleet_plan_size(spec: &FleetSpec) -> u128 {
    let members = spec.population.len().max(64) as u128 * spec.conditions.len().max(1) as u128;
    let per_member = [spec.cad_sessions, spec.rd_sessions, spec.rd_a_sessions]
        .into_iter()
        .map(u128::from)
        .sum::<u128>();
    members * per_member + 2 * u128::from(spec.resolver_checks)
}

/// Loads a campaign spec the way `lazyeye campaign --config` does, up to
/// execution.
fn load_campaign_spec(text: &str) {
    if let Ok(spec) = CampaignSpec::from_json(text) {
        if campaign_plan_size(&spec) <= SMALL_PLAN {
            let _ = expand(&spec);
            let _ = RunContext::new(&spec);
        }
    }
}

/// Loads a fleet spec the way `lazyeye fleet --spec` does, up to
/// execution.
fn load_fleet_spec(text: &str) {
    if let Ok(spec) = FleetSpec::from_json(text) {
        if fleet_plan_size(&spec) <= SMALL_PLAN {
            let _ = lazyeye_fleet::expand(&spec);
        }
    }
}

/// Loads a campaign report the way `lazyeye campaign --diff` does, and
/// diffs it against the valid one both ways.
fn load_campaign_report(text: &str) {
    if let Ok(report) = CampaignReport::from_json_str(text) {
        let valid = CampaignReport::from_json_str(campaign_report()).unwrap();
        let _ = diff_reports(&valid, &report);
        let _ = diff_reports(&report, &valid);
    }
}

/// Loads a fleet report the way `lazyeye fleet --diff` does, both ways.
fn load_fleet_report(text: &str) {
    let _ = diff_report_strs(fleet_report(), text);
    let _ = diff_report_strs(text, fleet_report());
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

    let spec_text = small_campaign_spec().to_json();
    let spec = CampaignSpec::from_json(&spec_text).unwrap();
    assert!(campaign_plan_size(&spec) >= expand(&spec).unwrap().len() as u128);
    let fleet_text = small_fleet_spec().to_json();
    let fleet = FleetSpec::from_json(&fleet_text).unwrap();
    let plan = lazyeye_fleet::expand(&fleet).unwrap();
    assert!(fleet_plan_size(&fleet) >= plan.sessions.len() as u128);
    let report = CampaignReport::from_json_str(campaign_report()).unwrap();
    assert!(report.inference.is_some());
    assert!(diff_reports(&report, &report).is_empty());
    assert!(diff_report_strs(fleet_report(), fleet_report()).is_ok());
    let traces = TraceSet::from_json_str(trace_file()).unwrap();
    assert_eq!(traces.traces.len(), 4);
    assert_eq!(infer_traces(&traces).len(), 3, "two clients and a resolver");
    assert_eq!(infer_resolver_traces(&traces).len(), 1);
}

proptest! {
    #[test]
    fn parsers_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Checkpoint::from_json_str(&text);
        let _ = FleetCheckpoint::from_json_str(&text);
        load_bundle(&text);
        load_campaign_spec(&text);
        load_fleet_spec(&text);
        load_campaign_report(&text);
        load_fleet_report(&text);
        load_traces(&text);
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

    #[test]
    fn campaign_spec_loader_never_panics_on_mutated_valid_spec(
        edits in proptest::collection::vec(arb_edit(), 1..4),
    ) {
        load_campaign_spec(&mutate(&small_campaign_spec().to_json(), &edits));
    }

    #[test]
    fn fleet_spec_loader_never_panics_on_mutated_valid_spec(
        edits in proptest::collection::vec(arb_edit(), 1..4),
    ) {
        load_fleet_spec(&mutate(&small_fleet_spec().to_json(), &edits));
    }

    #[test]
    fn campaign_report_loader_never_panics_on_mutated_valid_report(
        edits in proptest::collection::vec(arb_edit(), 1..4),
    ) {
        load_campaign_report(&mutate(campaign_report(), &edits));
    }

    #[test]
    fn fleet_report_loader_never_panics_on_mutated_valid_report(
        edits in proptest::collection::vec(arb_edit(), 1..4),
    ) {
        load_fleet_report(&mutate(fleet_report(), &edits));
    }

    #[test]
    fn trace_loader_never_panics_on_mutated_valid_trace_file(
        edits in proptest::collection::vec(arb_edit(), 1..4),
    ) {
        load_traces(&mutate(trace_file(), &edits));
    }
}
