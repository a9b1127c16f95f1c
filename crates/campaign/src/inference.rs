//! The campaign's inference section: every client's run outputs
//! re-analyzed by `lazyeye-infer` — changepoint detection over the sweep
//! grid instead of the summary path's hand-coded brackets — plus RFC 8305
//! conformance verdicts and an agreement diff against the summary-derived
//! Table 2 roll-up.
//!
//! The two derivations are deliberately independent: the summary path
//! folds runs into cells and reads features off the folded aggregates;
//! the inference path reduces runs to [`Observation`]s and fits the
//! client's state-machine parameters. When both see the same clean data
//! they must produce the same feature matrix — the [`InferenceSection`]
//! carries the field-level [`FieldDelta`]s when they do not (noise, or a
//! genuinely non-step client behaviour).

use std::sync::Arc;

use lazyeye_infer::{
    infer_subject_profile, score_profile, CaseKind, ConformanceEntry, FieldDelta, InferredProfile,
    Observation,
};

use crate::aggregate::FeatureSummary;
use crate::executor::RunOutput;
use crate::plan::{RunKind, RunLabel, RunSpec};

/// One client's inference result: the inferred profile plus its RFC 8305
/// conformance verdicts.
#[derive(Clone, Debug, PartialEq)]
pub struct InferredClientReport {
    /// The inferred Happy Eyeballs parameters.
    pub profile: InferredProfile,
    /// Per-feature verdicts (fixed feature order).
    pub conformance: Vec<ConformanceEntry>,
}

lazyeye_json::impl_json_struct!(InferredClientReport {
    profile,
    conformance,
});

/// The campaign report's inference section.
#[derive(Clone, Debug, PartialEq)]
pub struct InferenceSection {
    /// Per-client inference, in the summary feature matrix's client order.
    pub profiles: Vec<InferredClientReport>,
    /// The Table-2 style feature matrix derived *from inference* (the
    /// summary-derived one lives in `CampaignReport.features`).
    pub matrix: Vec<FeatureSummary>,
    /// Whether the inference-derived matrix equals the summary-derived
    /// one, client for client.
    pub matrix_agrees: bool,
    /// Field-level differences between the two matrices (`old` = summary
    /// path, `new` = inference path). Empty when they agree.
    pub disagreements: Vec<FieldDelta>,
}

lazyeye_json::impl_json_struct!(InferenceSection {
    profiles,
    matrix,
    matrix_agrees,
    disagreements,
});

/// Reduces one `(run, output)` pair to an inference observation.
pub fn observation(run: &RunSpec, output: &RunOutput) -> Observation {
    let condition = run.kind.condition();
    observe(
        run,
        output,
        run.kind.subject_label().shared(),
        condition.into(),
    )
}

/// [`observation`] with the run's subject and condition labels given.
fn observe(
    run: &RunSpec,
    output: &RunOutput,
    subject: Arc<str>,
    condition: Arc<str>,
) -> Observation {
    let shell = |case, delay_ms, rep| Observation::shell(case, subject, condition, delay_ms, rep);
    match (&run.kind, output) {
        (RunKind::Cad { delay_ms, rep, .. }, RunOutput::Cad(s)) => {
            let mut o = shell(CaseKind::Cad, *delay_ms, *rep);
            o.family = s.family;
            o.observed_cad_ms = s.observed_cad_ms;
            o.aaaa_first = s.aaaa_first;
            o
        }
        (RunKind::Rd { delay_ms, rep, .. }, RunOutput::Rd(s)) => {
            let mut o = shell(CaseKind::Rd, *delay_ms, *rep);
            o.family = s.family;
            o.first_attempt_ms = s.first_attempt_ms;
            o.used_rd = s.used_rd;
            o
        }
        (RunKind::Selection { rep, .. }, RunOutput::Selection(r)) => {
            let mut o = shell(CaseKind::Selection, 0, *rep);
            o.attempt_order = r.order.clone();
            o.v6_addrs_used = r.v6_used as u64;
            o.v4_addrs_used = r.v4_used as u64;
            o
        }
        (RunKind::Resolver { delay_ms, rep, .. }, RunOutput::Resolver(s)) => {
            let mut o = shell(CaseKind::Resolver, *delay_ms, *rep);
            o.family = s.first_query_family;
            o.observed_cad_ms = s.observed_cad_ms;
            o
        }
        (kind, _) => panic!("run kind/output mismatch for {kind:?}"),
    }
}

/// A campaign's runs bucketed by subject, built once per report. It
/// holds each subject's run positions only: a subject's observations are
/// built on demand ([`ObservationIndex::observations`]) and dropped by
/// the caller before it moves to the next subject, so the index costs
/// one position per run however large the campaign is.
pub(crate) struct ObservationIndex<'r> {
    runs: &'r [RunSpec],
    outputs: &'r [RunOutput],
    /// Per subject, in first-appearance order: its label and the
    /// positions of its runs, ascending.
    subjects: Vec<(RunLabel, Vec<usize>)>,
}

impl<'r> ObservationIndex<'r> {
    pub(crate) fn new(runs: &'r [RunSpec], outputs: &'r [RunOutput]) -> ObservationIndex<'r> {
        debug_assert_eq!(runs.len(), outputs.len());
        let mut subjects: Vec<(RunLabel, Vec<usize>)> = Vec::new();
        // The previous run's bucket: a subject's runs arrive back to
        // back, so most runs reuse it.
        let mut last = usize::MAX;
        for (position, run) in runs.iter().enumerate() {
            let subject = run.kind.subject_label();
            if subjects.get(last).is_none_or(|(s, _)| s != subject) {
                last = match subjects.iter().position(|(s, _)| s == subject) {
                    Some(bucket) => bucket,
                    None => {
                        subjects.push((subject.clone(), Vec::new()));
                        subjects.len() - 1
                    }
                };
            }
            subjects[last].1.push(position);
        }
        ObservationIndex {
            runs,
            outputs,
            subjects,
        }
    }

    /// The run positions of `subject`'s runs, ascending (empty for an
    /// unknown subject): the positions of [`Self::observations`].
    pub(crate) fn positions(&self, subject: &str) -> &[usize] {
        self.subjects
            .iter()
            .find(|(s, _)| **s == *subject)
            .map_or(&[], |(_, positions)| positions)
    }

    /// `subject`'s observations, in run order. They share the subject's
    /// label, and those of one cell their condition label, so building
    /// them allocates per cell, not per run.
    pub(crate) fn observations(&self, subject: &str) -> Vec<Observation> {
        let Some((label, positions)) = self.subjects.iter().find(|(s, _)| **s == *subject) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(positions.len());
        let mut condition: Option<Arc<str>> = None;
        for &i in positions {
            let run = &self.runs[i];
            let cell = run.kind.cell_condition();
            let condition = match &condition {
                Some(c) if cell == &**c => Arc::clone(c),
                _ => Arc::clone(condition.insert(cell.to_string().into())),
            };
            out.push(observe(run, &self.outputs[i], label.shared(), condition));
        }
        out
    }
}

/// The inference-path rendering of an inferred profile as a feature
/// matrix row (the comparable unit against the summary roll-up).
pub fn matrix_row(p: &InferredProfile) -> FeatureSummary {
    let v6_addrs = p.v6_addrs_used.unwrap_or(0);
    let v4_addrs = p.v4_addrs_used.unwrap_or(0);
    FeatureSummary {
        client: p.subject.clone(),
        prefers_v6: p.prefers_v6.unwrap_or(false),
        cad_impl: p.cad.implemented.unwrap_or(false),
        aaaa_first: p.aaaa_first.unwrap_or(false),
        rd_impl: p.rd.implemented.unwrap_or(false),
        v6_addrs_used: v6_addrs,
        v4_addrs_used: v4_addrs,
        addr_selection: v6_addrs > 1 || v4_addrs > 1,
    }
}

fn diff_matrix_rows(summary: &FeatureSummary, inferred: &FeatureSummary) -> Vec<FieldDelta> {
    let mut out = Vec::new();
    let client = &summary.client;
    let mut field = |name: &str, old: String, new: String| {
        lazyeye_infer::push_delta(&mut out, format!("{client}.{name}"), old, new);
    };
    field(
        "prefers_v6",
        summary.prefers_v6.to_string(),
        inferred.prefers_v6.to_string(),
    );
    field(
        "cad_impl",
        summary.cad_impl.to_string(),
        inferred.cad_impl.to_string(),
    );
    field(
        "aaaa_first",
        summary.aaaa_first.to_string(),
        inferred.aaaa_first.to_string(),
    );
    field(
        "rd_impl",
        summary.rd_impl.to_string(),
        inferred.rd_impl.to_string(),
    );
    field(
        "v6_addrs_used",
        summary.v6_addrs_used.to_string(),
        inferred.v6_addrs_used.to_string(),
    );
    field(
        "v4_addrs_used",
        summary.v4_addrs_used.to_string(),
        inferred.v4_addrs_used.to_string(),
    );
    field(
        "addr_selection",
        summary.addr_selection.to_string(),
        inferred.addr_selection.to_string(),
    );
    out
}

/// Builds the inference section from the campaign's `(run, output)` pairs
/// and the summary-derived feature matrix. Pure fold in run-index order —
/// byte-identical output across worker counts, like everything else in
/// the report.
pub fn build_inference(
    runs: &[RunSpec],
    outputs: &[RunOutput],
    features: &[FeatureSummary],
) -> InferenceSection {
    infer_index(&ObservationIndex::new(runs, outputs), features)
}

/// [`build_inference`] over an already built index: each client's
/// profile is inferred from its own observations only, built one client
/// at a time.
pub(crate) fn infer_index(
    index: &ObservationIndex<'_>,
    features: &[FeatureSummary],
) -> InferenceSection {
    let mut profiles = Vec::new();
    let mut matrix = Vec::new();
    let mut disagreements = Vec::new();
    for summary_row in features {
        let observations = index.observations(&summary_row.client);
        let profile = infer_subject_profile(&summary_row.client, &observations);
        let conformance = score_profile(&profile);
        let inferred_row = matrix_row(&profile);
        disagreements.extend(diff_matrix_rows(summary_row, &inferred_row));
        matrix.push(inferred_row);
        profiles.push(InferredClientReport {
            profile,
            conformance,
        });
    }
    InferenceSection {
        profiles,
        matrix,
        matrix_agrees: disagreements.is_empty(),
        disagreements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;
    use crate::{run_campaign_resumable, Aggregator};
    use std::collections::BTreeMap;

    #[test]
    fn inference_matrix_agrees_with_summary_on_a_small_campaign() {
        let spec = CampaignSpec {
            name: "agree".into(),
            seed: 11,
            clients: vec!["curl-7.88.1".into(), "wget-1.21.3".into()],
            resolvers: vec!["BIND".into()],
            cad: Some(lazyeye_testbed::CadCaseConfig {
                sweep: lazyeye_testbed::SweepSpec::new(0, 300, 100),
                repetitions: 1,
            }),
            rd: Some(crate::spec::RdPlan {
                records: vec![lazyeye_testbed::DelayedRecord::Aaaa],
                sweep: lazyeye_testbed::SweepSpec::new(200, 200, 1),
                repetitions: 1,
            }),
            selection: Some(crate::spec::SelectionPlan {
                repetitions: 1,
                ..crate::spec::SelectionPlan::default()
            }),
            resolver: None,
            ..CampaignSpec::default()
        };
        let (runs, outputs) =
            run_campaign_resumable(&spec, 2, &BTreeMap::new(), |_, _| {}, |_, _| {}).unwrap();
        let mut agg = Aggregator::new();
        for (r, o) in runs.iter().zip(&outputs) {
            agg.fold(r, o);
        }
        let (_, features) = agg.finish();
        let section = build_inference(&runs, &outputs, &features);
        assert!(
            section.matrix_agrees,
            "disagreements: {:?}",
            section.disagreements
        );
        assert_eq!(section.matrix, features);

        // curl: CAD implemented, ~200 ms; wget: no fallback at all.
        let curl = &section.profiles[0];
        assert_eq!(curl.profile.subject, "curl-7.88.1");
        assert_eq!(curl.profile.cad.implemented, Some(true));
        let est = curl.profile.cad.estimate_ms.unwrap();
        assert!((195.0..215.0).contains(&est), "curl CAD ≈ 200, got {est}");
        let wget = &section.profiles[1];
        assert_eq!(wget.profile.cad.implemented, Some(false));
        let cad_verdict = wget
            .conformance
            .iter()
            .find(|e| e.feature == "connection-attempt-delay")
            .unwrap();
        assert_eq!(cad_verdict.render(), "DEVIATES(never falls back to IPv4)");
    }
}
