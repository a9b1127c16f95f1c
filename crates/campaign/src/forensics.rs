//! Anomaly forensics: the campaign-side payloads of the flight
//! recorder's [trigger engine](lazyeye_obs::trigger).
//!
//! The obs crate owns the mechanism (ring buffer, trigger dedup, bundle
//! schema); this module owns the *meaning*: what full provenance looks
//! like for a campaign run ([`RunProvenance`]), how to re-execute a run
//! from provenance alone with tracing on ([`capture_trace`]), and the
//! per-anomaly hooks the executor, refinement planner and inference
//! pass call. Because every bundle's virtual section is produced by the
//! same pure `(provenance) -> trace` function that [`replay`] uses, a
//! bundle replays byte-identically unless the simulation itself has
//! become nondeterministic — which is exactly the regression the replay
//! gate exists to catch.

use lazyeye_infer::{canonical_condition, detect_switchover, CaseKind, Observation, Verdict};
use lazyeye_json::{FromJson, Json, JsonError, ToJson};
use lazyeye_net::{Family, NetemRule};
use lazyeye_obs::bundle::Bundle;
use lazyeye_obs::trigger::{self, TriggerKind};
use lazyeye_testbed::{
    delayed_record_label, run_cad_once_traced, run_rd_once_traced, run_resolver_once_traced,
    run_selection_once_traced, DelayedRecord, SelectionCaseConfig,
};
use lazyeye_trace::Trace;

use crate::inference::{InferenceSection, ObservationIndex};
use crate::plan::{RunKind, RunSpec};
use crate::spec::{CampaignSpec, NetemSpec, SelectionPlan};

/// Everything needed to re-execute one campaign run outside the
/// campaign: the cell coordinates plus the *resolved* netem condition
/// and selection plan (a bundle must stay self-contained when the spec
/// file is gone).
#[derive(Clone, Debug, PartialEq)]
pub struct RunProvenance {
    /// Case family label (`cad` / `rd` / `selection` / `resolver`).
    pub case: String,
    /// Subject id (client profile id or resolver name).
    pub subject: String,
    /// Cell condition, as [`RunKind::condition`] renders it.
    pub condition: String,
    /// The resolved netem condition (full spec, not just the label).
    pub netem: NetemSpec,
    /// The delayed-record label for RD runs (`delayed-aaaa` /
    /// `delayed-a`), `None` otherwise.
    pub record: Option<String>,
    /// Configured delay of the run (ms); 0 for selection runs.
    pub delay_ms: u64,
    /// Repetition index.
    pub rep: u32,
    /// The run's derived simulation seed.
    pub seed: u64,
    /// The resolved selection plan, for selection runs.
    pub selection: Option<SelectionPlan>,
    /// Campaign name (context only; replay never reads it).
    pub campaign: String,
    /// Campaign seed the run seed was derived from.
    pub campaign_seed: u64,
}

lazyeye_json::impl_json_struct!(RunProvenance {
    case,
    subject,
    condition,
    netem,
    record,
    delay_ms,
    rep,
    seed,
    selection,
    campaign,
    campaign_seed,
});

fn delay_of(kind: &RunKind) -> u64 {
    match kind {
        RunKind::Cad { delay_ms, .. }
        | RunKind::Rd { delay_ms, .. }
        | RunKind::Resolver { delay_ms, .. } => *delay_ms,
        RunKind::Selection { .. } => 0,
    }
}

fn rep_of(kind: &RunKind) -> u32 {
    match kind {
        RunKind::Cad { rep, .. }
        | RunKind::Rd { rep, .. }
        | RunKind::Selection { rep, .. }
        | RunKind::Resolver { rep, .. } => *rep,
    }
}

fn netem_label_of(kind: &RunKind) -> &str {
    match kind {
        RunKind::Cad { netem, .. }
        | RunKind::Rd { netem, .. }
        | RunKind::Selection { netem, .. }
        | RunKind::Resolver { netem, .. } => netem,
    }
}

/// Stamps a run's full provenance: cell coordinates plus the resolved
/// netem condition and selection plan from the spec.
pub fn provenance(spec: &CampaignSpec, run: &RunSpec) -> RunProvenance {
    let kind = &run.kind;
    let netem_label = netem_label_of(kind);
    let netem = spec
        .netem
        .iter()
        .find(|n| n.label == netem_label)
        .cloned()
        .unwrap_or_else(NetemSpec::baseline);
    let record = match kind {
        RunKind::Rd { record, .. } => Some(delayed_record_label(*record).to_string()),
        _ => None,
    };
    let selection = match kind {
        RunKind::Selection { .. } => spec.selection.clone(),
        _ => None,
    };
    RunProvenance {
        case: kind.case().to_string(),
        subject: kind.subject().to_string(),
        condition: kind.condition(),
        netem,
        record,
        delay_ms: delay_of(kind),
        rep: rep_of(kind),
        seed: run.seed,
        selection,
        campaign: spec.name.clone(),
        campaign_seed: spec.seed,
    }
}

/// The trigger deduplication key of a run: its full cell coordinates,
/// so the bundle *set* is a pure function of (spec, seed).
fn run_key(p: &RunProvenance) -> String {
    format!(
        "{}:{}:{}:d{}:r{}",
        p.case, p.subject, p.condition, p.delay_ms, p.rep
    )
}

/// Resolves a client id against the built-in universe, panicking with
/// the executor's exact message so a run-panic bundle caused by an
/// unresolved id reproduces verbatim under [`replay`].
fn client_profile(id: &str) -> lazyeye_clients::ClientProfile {
    lazyeye_clients::all_measured_clients()
        .into_iter()
        .find(|c| c.id() == id)
        .unwrap_or_else(|| panic!("run references unresolved client {id:?}"))
}

fn resolver_profile(name: &str) -> lazyeye_resolver::ResolverProfile {
    lazyeye_resolver::all_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("run references unresolved resolver {name:?}"))
}

/// Re-executes the run a provenance describes, with tracing on, and
/// returns the full event trace. Pure in `(provenance)`: the same
/// provenance always yields the same trace — both the bundle's recorded
/// trace and [`replay`]'s regenerated one come from here.
pub fn capture_trace(p: &RunProvenance) -> Trace {
    let rules: Vec<NetemRule> = p.netem.rules();
    match p.case.as_str() {
        "cad" => {
            let profile = client_profile(&p.subject);
            run_cad_once_traced(&profile, p.delay_ms, p.rep, p.seed, &rules, &p.condition).1
        }
        "rd" => {
            let profile = client_profile(&p.subject);
            let record = match p.record.as_deref() {
                Some("delayed-a") => DelayedRecord::A,
                _ => DelayedRecord::Aaaa,
            };
            run_rd_once_traced(
                &profile,
                record,
                p.delay_ms,
                p.rep,
                p.seed,
                &rules,
                &p.condition,
            )
            .1
        }
        "selection" => {
            let profile = client_profile(&p.subject);
            let cfg = match &p.selection {
                Some(s) => SelectionCaseConfig {
                    v6_addresses: s.v6_addresses,
                    v4_addresses: s.v4_addresses,
                    attempt_timeout_ms: s.attempt_timeout_ms,
                },
                None => SelectionCaseConfig::default(),
            };
            run_selection_once_traced(&profile, &cfg, p.rep, p.seed, &rules, &p.condition).1
        }
        "resolver" => {
            let rprofile = resolver_profile(&p.subject);
            run_resolver_once_traced(&rprofile, p.delay_ms, p.rep, p.seed, &rules, &p.condition).1
        }
        other => panic!("bundle provenance: unknown case {other:?}"),
    }
}

/// Extracts the human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executor hook: the compiled fast path refused `run` (`reason` is one
/// of `tie` / `unknown_candidate` / `cached_path` / `quic`) and the
/// campaign fell back to full simulation.
pub(crate) fn on_fastpath_fallback(spec: &CampaignSpec, run: &RunSpec, reason: &'static str) {
    if !trigger::armed() {
        return;
    }
    let p = provenance(spec, run);
    let key = run_key(&p);
    trigger::fire(TriggerKind::FastPathFallback, &key, || {
        let trace = capture_trace(&p);
        Bundle::new(
            TriggerKind::FastPathFallback.label(),
            key.clone(),
            reason,
            ToJson::to_json(&p),
            ToJson::to_json(&trace),
        )
    });
}

/// Executor hook: `run` panicked on a worker. No trace can be captured
/// (re-running would panic again); the bundle carries provenance and
/// the panic message, and [`replay`] verifies the panic reproduces.
pub(crate) fn on_run_panic(spec: &CampaignSpec, run: &RunSpec, message: &str) {
    if !trigger::armed() {
        return;
    }
    let p = provenance(spec, run);
    let key = run_key(&p);
    trigger::fire(TriggerKind::RunPanic, &key, || {
        Bundle::new(
            TriggerKind::RunPanic.label(),
            key.clone(),
            message,
            ToJson::to_json(&p),
            Json::Null,
        )
    });
}

/// Planner hook: the refinement pass scheduled fine sweeps. One bundle
/// per refined cell, keyed by the cell coordinates; the representative
/// run is the cell's lowest-index refined run.
pub(crate) fn on_refinement_brackets(spec: &CampaignSpec, pass2: &[RunSpec]) {
    if pass2.is_empty() || !trigger::armed() {
        return;
    }
    let mut cells: std::collections::BTreeMap<String, Vec<&RunSpec>> =
        std::collections::BTreeMap::new();
    for run in pass2 {
        let key = format!(
            "{}:{}:{}",
            run.kind.case(),
            run.kind.subject(),
            run.kind.condition()
        );
        cells.entry(key).or_default().push(run);
    }
    for (key, runs) in cells {
        // pass2 is index-ordered, so the first entry is the
        // lowest-index (deterministic) representative.
        let p = provenance(spec, runs[0]);
        let delays: Vec<u64> = runs.iter().map(|r| delay_of(&r.kind)).collect();
        let detail = format!(
            "{} refined runs in [{}, {}] ms",
            runs.len(),
            delays.iter().min().expect("non-empty cell"),
            delays.iter().max().expect("non-empty cell"),
        );
        trigger::fire(TriggerKind::RefinementBracket, &key, || {
            let trace = capture_trace(&p);
            Bundle::new(
                TriggerKind::RefinementBracket.label(),
                key.clone(),
                detail.clone(),
                ToJson::to_json(&p),
                ToJson::to_json(&trace),
            )
        });
    }
}

/// Report hook: walks the inference section for changepoint misfits and
/// `DEVIATES(..)` verdicts, and fires one bundle per anomaly with a
/// deterministic representative run.
pub(crate) fn on_inference(
    spec: &CampaignSpec,
    runs: &[RunSpec],
    index: &ObservationIndex<'_>,
    section: &InferenceSection,
) {
    if !trigger::armed() {
        return;
    }
    for report in &section.profiles {
        let profile = &report.profile;
        let deviates = report
            .conformance
            .iter()
            .any(|e| e.verdict == Verdict::Deviates);
        if profile.cad.misfits == 0 && !deviates {
            continue;
        }
        // This subject's observations only, with their run positions,
        // dropped before the next subject's are built.
        let observations = index.observations(&profile.subject);
        let mine: Vec<(usize, &Observation)> = index
            .positions(&profile.subject)
            .iter()
            .copied()
            .zip(&observations)
            .collect();

        // --- changepoint misfits: the step model disagrees with runs --
        if profile.cad.misfits > 0 {
            fire_misfit(spec, runs, &mine, &profile.subject);
        }

        // --- DEVIATES verdicts --------------------------------------
        for entry in &report.conformance {
            if entry.verdict != Verdict::Deviates {
                continue;
            }
            let (case, preferred) = match entry.feature.as_str() {
                "resolution-delay" => (CaseKind::Rd, "delayed-aaaa"),
                "no-lookup-stall" => (CaseKind::Rd, "delayed-a"),
                "address-sorting" => (CaseKind::Selection, "-"),
                // family-preference, query-order, connection-attempt-delay.
                _ => (CaseKind::Cad, "baseline"),
            };
            let of_case: Vec<&(usize, &Observation)> =
                mine.iter().filter(|(_, o)| o.case == case).collect();
            let observations: Vec<&Observation> = of_case.iter().map(|(_, o)| *o).collect();
            let Some(cond) = canonical_condition(&observations, preferred) else {
                continue;
            };
            let Some(&&(rep_idx, _)) = of_case.iter().find(|(_, o)| *o.condition == *cond) else {
                continue;
            };
            let p = provenance(spec, &runs[rep_idx]);
            let key = format!("{}:{}", entry.feature, profile.subject);
            let detail = entry.render();
            trigger::fire(TriggerKind::Deviates, &key, || {
                let trace = capture_trace(&p);
                Bundle::new(
                    TriggerKind::Deviates.label(),
                    key.clone(),
                    detail.clone(),
                    ToJson::to_json(&p),
                    ToJson::to_json(&trace),
                )
            });
        }
    }

    // --- §5.2 stall verdicts vs. causal attribution ------------------
    // The profiler re-derives "does this client stall?" from the
    // attributed stall phase of a representative delayed-A run; a
    // disagreement with the inference verdict is a bug in one of the
    // two layers and gets its own black box.
    for check in crate::profile::stall_cross_checks(spec, runs, section) {
        if check.agrees() {
            continue;
        }
        let p = provenance(spec, &runs[check.run_index]);
        let key = format!("no-lookup-stall:{}", check.subject);
        let detail = check.detail();
        trigger::fire(TriggerKind::AttributionMismatch, &key, || {
            let trace = capture_trace(&p);
            Bundle::new(
                TriggerKind::AttributionMismatch.label(),
                key.clone(),
                detail.clone(),
                ToJson::to_json(&p),
                ToJson::to_json(&trace),
            )
        });
    }
}

/// Fires the inference-misfit trigger for one subject's canonical CAD
/// cell: refits the changepoint over the cell's points and picks the
/// first misclassified run (in run-index order) as representative.
/// `mine` is the subject's observations with their run positions.
fn fire_misfit(
    spec: &CampaignSpec,
    runs: &[RunSpec],
    mine: &[(usize, &Observation)],
    subject: &str,
) {
    let cad_obs: Vec<&(usize, &Observation)> = mine
        .iter()
        .filter(|(_, o)| o.case == CaseKind::Cad)
        .collect();
    let observations: Vec<&Observation> = cad_obs.iter().map(|(_, o)| *o).collect();
    let Some(cond) = canonical_condition(&observations, "baseline") else {
        return;
    };
    // (run index, point) pairs for the canonical cell, in run order.
    let cell: Vec<(usize, (u64, Family))> = cad_obs
        .iter()
        .filter(|(_, o)| *o.condition == *cond)
        .filter_map(|(i, o)| o.family.map(|f| (*i, (o.delay_ms, f))))
        .collect();
    let points: Vec<(u64, Family)> = cell.iter().map(|(_, pt)| *pt).collect();
    let fit = detect_switchover(&points);
    let misfit = fit.misfit_points(&points);
    let Some((rep_idx, _)) = cell.iter().find(|(_, pt)| misfit.contains(pt)) else {
        return;
    };
    let p = provenance(spec, &runs[*rep_idx]);
    let key = format!("cad:{subject}:{cond}");
    let threshold = match fit.threshold_ms {
        Some(t) => format!("{t} ms"),
        None => "-inf".to_string(),
    };
    let detail = format!(
        "{} of {} observations misfit the fitted threshold {threshold}",
        fit.misfits, fit.total
    );
    trigger::fire(TriggerKind::InferenceMisfit, &key, || {
        let trace = capture_trace(&p);
        Bundle::new(
            TriggerKind::InferenceMisfit.label(),
            key.clone(),
            detail.clone(),
            ToJson::to_json(&p),
            ToJson::to_json(&trace),
        )
    });
}

/// The outcome of replaying one bundle.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayReport {
    /// Trigger kind label of the bundle.
    pub kind: String,
    /// The bundle's deduplication key.
    pub key: String,
    /// The bundle's detail line (refusal reason, verdict, panic message).
    pub detail: String,
    /// Whether the regenerated execution matched the recording exactly.
    pub identical: bool,
    /// First divergence, when not identical.
    pub divergence: Option<String>,
    /// Event count of the recorded trace (0 for run-panic bundles).
    pub recorded_events: u64,
    /// Event count of the regenerated trace (0 for run-panic bundles).
    pub regenerated_events: u64,
}

lazyeye_json::impl_json_struct!(ReplayReport {
    kind,
    key,
    detail,
    identical,
    divergence,
    recorded_events,
    regenerated_events,
});

impl ReplayReport {
    /// One-paragraph human rendering.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "replay {} [{}]\n  detail: {}\n  recorded {} events, regenerated {}\n",
            self.kind, self.key, self.detail, self.recorded_events, self.regenerated_events
        );
        match &self.divergence {
            None => out.push_str("  verdict: byte-identical\n"),
            Some(d) => out.push_str(&format!("  verdict: DIVERGED\n  {d}\n")),
        }
        out
    }
}

/// First event-level divergence between two traces (as compact JSON),
/// assuming they are known to differ.
fn first_divergence(recorded: &Trace, regenerated: &Trace) -> String {
    if recorded.meta != regenerated.meta {
        return format!(
            "trace meta differs: recorded {}, regenerated {}",
            ToJson::to_json(&recorded.meta),
            ToJson::to_json(&regenerated.meta)
        );
    }
    for (i, (a, b)) in recorded.events.iter().zip(&regenerated.events).enumerate() {
        if a != b {
            return format!(
                "event {i} differs: recorded {}, regenerated {}",
                ToJson::to_json(a),
                ToJson::to_json(b)
            );
        }
    }
    format!(
        "event count differs: recorded {}, regenerated {}",
        recorded.events.len(),
        regenerated.events.len()
    )
}

/// Replays a bundle: re-executes the run from provenance alone and
/// diffs the regenerated trace against the recorded one. For run-panic
/// bundles the run is expected to panic with the recorded message.
///
/// Errors only on malformed bundles; a divergent (but well-formed)
/// replay returns `identical: false` with the first divergence.
pub fn replay(bundle: &Bundle) -> Result<ReplayReport, JsonError> {
    let p = RunProvenance::from_json(&bundle.provenance)?;
    let kind = TriggerKind::parse(&bundle.kind)
        .ok_or_else(|| JsonError::new(format!("replay: unknown trigger kind {:?}", bundle.kind)))?;
    let mut report = ReplayReport {
        kind: bundle.kind.clone(),
        key: bundle.key.clone(),
        detail: bundle.detail.clone(),
        identical: false,
        divergence: None,
        recorded_events: 0,
        regenerated_events: 0,
    };

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| capture_trace(&p)));
    if kind == TriggerKind::RunPanic {
        match outcome {
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                if message == bundle.detail {
                    report.identical = true;
                } else {
                    report.divergence = Some(format!(
                        "panic message changed: recorded {:?}, regenerated {message:?}",
                        bundle.detail
                    ));
                }
            }
            Ok(trace) => {
                report.regenerated_events = trace.events.len() as u64;
                report.divergence = Some(
                    "recorded panic did not reproduce; the run completed normally".to_string(),
                );
            }
        }
        return Ok(report);
    }

    let recorded = Trace::from_json(&bundle.trace)?;
    report.recorded_events = recorded.events.len() as u64;
    match outcome {
        Err(payload) => {
            report.divergence = Some(format!(
                "replay panicked: {}",
                panic_message(payload.as_ref())
            ));
        }
        Ok(regenerated) => {
            report.regenerated_events = regenerated.events.len() as u64;
            if regenerated == recorded {
                report.identical = true;
            } else {
                report.divergence = Some(first_divergence(&recorded, &regenerated));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::expand;

    fn cad_spec() -> CampaignSpec {
        CampaignSpec {
            name: "forensics-unit".into(),
            clients: vec!["chrome-130.0".into()],
            rd: None,
            selection: None,
            resolver: None,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn provenance_roundtrips_and_resolves_netem() {
        let spec = cad_spec();
        let runs = expand(&spec).unwrap();
        let p = provenance(&spec, &runs[0]);
        assert_eq!(p.case, "cad");
        assert_eq!(p.subject, "chrome-130.0");
        assert_eq!(p.netem.label, "baseline");
        assert_eq!(p.seed, runs[0].seed);
        assert_eq!(p.campaign_seed, spec.seed);
        let back = RunProvenance::from_json(&ToJson::to_json(&p)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn capture_trace_is_reproducible() {
        let spec = cad_spec();
        let runs = expand(&spec).unwrap();
        let p = provenance(&spec, &runs[1]);
        let a = capture_trace(&p);
        let b = capture_trace(&p);
        assert_eq!(a, b, "same provenance must yield the same trace");
        assert!(!a.events.is_empty());
        assert_eq!(a.meta.subject, "chrome-130.0");
        assert_eq!(a.meta.seed, p.seed);
    }

    #[test]
    fn replay_flags_a_tampered_trace() {
        let spec = cad_spec();
        let runs = expand(&spec).unwrap();
        let p = provenance(&spec, &runs[0]);
        let mut trace = capture_trace(&p);
        let bundle_ok = Bundle::new(
            "fastpath-fallback",
            "k",
            "tie",
            ToJson::to_json(&p),
            ToJson::to_json(&trace),
        );
        let ok = replay(&bundle_ok).unwrap();
        assert!(ok.identical, "{:?}", ok.divergence);

        // Tamper with one event timestamp: replay must spot it.
        trace.events[0].at_ns += 1;
        let bundle_bad = Bundle::new(
            "fastpath-fallback",
            "k",
            "tie",
            ToJson::to_json(&p),
            ToJson::to_json(&trace),
        );
        let bad = replay(&bundle_bad).unwrap();
        assert!(!bad.identical);
        assert!(bad.divergence.unwrap().contains("event 0"));
    }
}
