//! Campaign-level latency attribution: fold every executed run's causal
//! profile ([`lazyeye_trace::profile`]) into a per-cell latency-budget
//! table and a collapsed-stack flame graph.
//!
//! The fold re-simulates each run through [`forensics::capture_trace`]
//! (traces are pure functions of run provenance, so this reproduces the
//! campaign's exact virtual timelines without having kept them around)
//! and walks the run list in index order. Both outputs are therefore
//! pure functions of (spec, seed): byte-identical across `--jobs`,
//! resume and shard topologies — the same contract as the report.

use lazyeye_obs::profile::FlameGraph;
use lazyeye_testbed::Table;
use lazyeye_trace::profile::{attribute, Attribution, PHASES};

use crate::forensics;
use crate::plan::RunSpec;
use crate::spec::CampaignSpec;
use crate::SpecError;

/// One latency-budget row: a sweep cell at one configured delay, phases
/// summed over its repetitions (integer virtual ms, exact).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetRow {
    /// Case family (`cad`, `rd`, `selection`; resolver runs carry no
    /// client-side timeline and are skipped).
    pub case: String,
    /// Client under test.
    pub subject: String,
    /// Condition axis (netem label, delayed record, `-`).
    pub condition: String,
    /// Configured sweep delay of the cell (ms).
    pub delay_ms: u64,
    /// Runs folded into the row.
    pub runs: u64,
    /// Runs that reached `Established` (the attributable ones).
    pub established: u64,
    /// Summed establishment latency of the attributable runs (ms).
    pub total_ms: u64,
    /// Summed per-phase attribution, [`PHASES`] order.
    pub phase_ms: [u64; 5],
}

impl BudgetRow {
    /// The dominant phase of the row (`-` when nothing established).
    pub fn dominant(&self) -> &'static str {
        if self.established == 0 {
            return "-";
        }
        let mut best = 0usize;
        for (i, v) in self.phase_ms.iter().enumerate() {
            if *v > self.phase_ms[best] {
                best = i;
            }
        }
        PHASES[best]
    }
}

/// The campaign's latency budget: one row per (cell, sweep delay), in
/// cell order, plus the runs the profiler could not attribute.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyBudget {
    /// Rows in deterministic (case, subject, condition, delay) order of
    /// first appearance in the run list.
    pub rows: Vec<BudgetRow>,
    /// Runs without a client-side `Established` timeline (resolver
    /// runs, failed runs).
    pub unattributed: u64,
}

impl LatencyBudget {
    /// Renders the budget as an aligned text table, one line per row,
    /// with every phase column plus the dominant-phase verdict.
    pub fn render_text(&self) -> String {
        let mut t = Table::new(
            "Latency budget (exact per-phase attribution, summed ms)",
            vec![
                "case",
                "subject",
                "condition",
                "delay",
                "runs",
                "est",
                "total",
                "resolution",
                "stall",
                "cad",
                "fallback",
                "connect",
                "dominant",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.case.clone(),
                r.subject.clone(),
                r.condition.clone(),
                r.delay_ms.to_string(),
                r.runs.to_string(),
                r.established.to_string(),
                r.total_ms.to_string(),
                r.phase_ms[0].to_string(),
                r.phase_ms[1].to_string(),
                r.phase_ms[2].to_string(),
                r.phase_ms[3].to_string(),
                r.phase_ms[4].to_string(),
                r.dominant().to_string(),
            ]);
        }
        let mut out = t.render();
        if self.unattributed > 0 {
            out.push_str(&format!(
                "({} runs without a client-side establishment timeline were skipped)\n",
                self.unattributed
            ));
        }
        out
    }
}

/// Folds one run's attribution into the budget row for its
/// `(case, subject, condition, delay)` cell, creating the row on first
/// appearance. Exposed so the CLI's `profile` command can fold ad-hoc
/// trace files with the same row semantics.
pub fn fold_row(
    rows: &mut Vec<BudgetRow>,
    key: (&str, &str, &str, u64),
    attr: Option<&Attribution>,
) {
    let (case, subject, condition, delay_ms) = key;
    let row = match rows.iter_mut().find(|r| {
        r.case == case && r.subject == subject && r.condition == condition && r.delay_ms == delay_ms
    }) {
        Some(r) => r,
        None => {
            rows.push(BudgetRow {
                case: case.to_string(),
                subject: subject.to_string(),
                condition: condition.to_string(),
                delay_ms,
                runs: 0,
                established: 0,
                total_ms: 0,
                phase_ms: [0; 5],
            });
            rows.last_mut().expect("just pushed")
        }
    };
    row.runs += 1;
    if let Some(a) = attr {
        row.established += 1;
        row.total_ms += a.total_ms;
        for (slot, v) in row.phase_ms.iter_mut().zip(a.phase_values()) {
            *slot += v;
        }
    }
}

/// Profiles an executed run list: re-captures each run's trace,
/// attributes it, and folds budget rows (in run-index order) plus a
/// flame graph with `case;subject;condition;phase` stacks weighted by
/// attributed milliseconds.
pub fn profile_runs(spec: &CampaignSpec, runs: &[RunSpec]) -> (LatencyBudget, FlameGraph) {
    let mut budget = LatencyBudget::default();
    let mut flame = FlameGraph::new();
    for run in runs {
        let p = forensics::provenance(spec, run);
        let attr = if p.case == "resolver" {
            // Resolver traces carry only server-side QueryArrived
            // events — there is no client timeline to attribute.
            None
        } else {
            attribute(&forensics::capture_trace(&p))
        };
        if attr.is_none() {
            budget.unattributed += 1;
        }
        fold_row(
            &mut budget.rows,
            (&p.case, &p.subject, &p.condition, p.delay_ms),
            attr.as_ref(),
        );
        if let Some(a) = &attr {
            for (phase, weight) in PHASES.iter().zip(a.phase_values()) {
                flame.add(
                    [
                        p.case.as_str(),
                        p.subject.as_str(),
                        p.condition.as_str(),
                        phase,
                    ],
                    weight,
                );
            }
        }
    }
    (budget, flame)
}

/// Profiles the campaign's first-pass grid straight from the spec
/// (refinement runs need execution results and are folded by the CLI via
/// [`profile_runs`] on the executed list).
pub fn profile_campaign(spec: &CampaignSpec) -> Result<(LatencyBudget, FlameGraph), SpecError> {
    let runs = crate::plan::expand(spec)?;
    Ok(profile_runs(spec, &runs))
}

/// One §5.2 stall cross-check: the inference layer's
/// wait-for-all-answers verdict vs. the causal profiler's independent
/// attribution of a representative delayed-A run.
#[derive(Clone, Debug, PartialEq)]
pub struct StallCrossCheck {
    /// The subject (client id) checked.
    pub subject: String,
    /// Inference's verdict: the `DEVIATES(no-lookup-stall)` condition.
    pub inferred_stall: bool,
    /// The profiler's verdict: attributed stall exceeds the CAD bracket.
    pub attributed_stall: bool,
    /// Attributed stall phase of the representative run (ms).
    pub stall_ms: u64,
    /// The CAD-bracket ceiling the stall was compared against (ms).
    pub ceiling_ms: u64,
    /// Index of the representative run in the executed run list.
    pub run_index: usize,
}

impl StallCrossCheck {
    /// Whether the two layers agree.
    pub fn agrees(&self) -> bool {
        self.inferred_stall == self.attributed_stall
    }

    /// One-line description used as the mismatch bundle detail.
    pub fn detail(&self) -> String {
        format!(
            "inference says stall={}, profiler attributed {} ms of stall \
             against a {} ms CAD bracket",
            self.inferred_stall, self.stall_ms, self.ceiling_ms
        )
    }
}

/// Cross-checks every classified subject's §5.2 stall verdict against
/// the causal profiler.
///
/// For each subject with a measured `waits_for_all_answers` verdict, the
/// deterministic representative is the highest-delay (then lowest-index)
/// baseline delayed-A run: its trace is re-captured and attributed, and
/// the profiler independently calls "stall" when the attributed stall
/// phase exceeds the subject's CAD bracket (the inferred CAD estimate,
/// defaulting to the RFC 8305 100 ms floor). Cells whose sweep delay
/// cannot exceed the bracket are skipped — they cannot discriminate.
pub fn stall_cross_checks(
    spec: &CampaignSpec,
    runs: &[crate::plan::RunSpec],
    section: &crate::inference::InferenceSection,
) -> Vec<StallCrossCheck> {
    use crate::plan::RunKind;
    use lazyeye_infer::conformance::CAD_MIN_MS;
    use lazyeye_testbed::DelayedRecord;
    use std::collections::HashMap;

    // Each subject's representative, in one pass over the runs: its
    // baseline delayed-A run with the highest delay, then the lowest
    // index — the strongest stall signal, deterministically.
    let mut reps: HashMap<&str, (u64, usize)> = HashMap::new();
    for (i, run) in runs.iter().enumerate() {
        let RunKind::Rd {
            client,
            record: DelayedRecord::A,
            delay_ms,
            ..
        } = &run.kind
        else {
            continue;
        };
        if run.kind.cell_condition() != "delayed-a" {
            continue;
        }
        let best = reps.entry(client).or_insert((*delay_ms, i));
        if *delay_ms > best.0 {
            *best = (*delay_ms, i);
        }
    }

    let mut out = Vec::new();
    for report in &section.profiles {
        let profile = &report.profile;
        let Some(inferred_stall) = profile.rd.waits_for_all_answers else {
            continue;
        };
        let Some(&(_, run_index)) = reps.get(profile.subject.as_str()) else {
            continue;
        };
        let run = &runs[run_index];
        let p = forensics::provenance(spec, run);
        let ceiling = profile.cad.estimate_ms.unwrap_or(CAD_MIN_MS);
        if (p.delay_ms as f64) <= ceiling {
            continue;
        }
        let Some(attr) = attribute(&forensics::capture_trace(&p)) else {
            continue;
        };
        out.push(StallCrossCheck {
            subject: profile.subject.clone(),
            inferred_stall,
            attributed_stall: (attr.stall_ms as f64) > ceiling,
            stall_ms: attr.stall_ms,
            ceiling_ms: ceiling as u64,
            run_index,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyeye_testbed::{CadCaseConfig, SweepSpec};

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            name: "profile-test".into(),
            seed: 7,
            clients: vec!["chrome-130.0".into(), "curl-7.88.1".into()],
            rd: None,
            selection: None,
            resolver: None,
            cad: Some(CadCaseConfig {
                sweep: SweepSpec::new(0, 300, 150),
                repetitions: 1,
            }),
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn budget_rows_attribute_exactly_and_deterministically() {
        let spec = small_spec();
        let (budget, flame) = profile_campaign(&spec).unwrap();
        assert!(!budget.rows.is_empty());
        for r in &budget.rows {
            assert_eq!(
                r.phase_ms.iter().sum::<u64>(),
                r.total_ms,
                "phases must sum exactly for {}/{}/{} d{}",
                r.case,
                r.subject,
                r.condition,
                r.delay_ms
            );
        }
        // Flame-graph weight equals the budget's attributed total.
        let total: u64 = budget.rows.iter().map(|r| r.total_ms).sum();
        assert_eq!(flame.total_weight(), total);
        // Pure function of (spec, seed): a second pass is byte-identical.
        let (b2, f2) = profile_campaign(&spec).unwrap();
        assert_eq!(b2, budget);
        assert_eq!(f2.render_collapsed(), flame.render_collapsed());
        // The table renders every phase column.
        let text = budget.render_text();
        for phase in PHASES {
            assert!(text.contains(phase), "missing {phase} in:\n{text}");
        }
    }

    #[test]
    fn stall_cross_check_agrees_with_inference() {
        use crate::spec::RdPlan;
        use lazyeye_testbed::DelayedRecord;

        // One stalling client (chromium stack) and one with the HEv3
        // flag (no stall): the profiler must agree with inference on
        // both sides of the verdict.
        let spec = CampaignSpec {
            name: "stall-crosscheck".into(),
            seed: 21,
            clients: vec!["chrome-130.0".into(), "safari-17.6".into()],
            cad: Some(CadCaseConfig {
                sweep: SweepSpec::new(0, 400, 100),
                repetitions: 1,
            }),
            rd: Some(RdPlan {
                records: vec![DelayedRecord::Aaaa, DelayedRecord::A],
                sweep: SweepSpec::new(0, 400, 200),
                repetitions: 1,
            }),
            selection: None,
            resolver: None,
            ..CampaignSpec::default()
        };
        let (runs, outputs) = crate::run_campaign_resumable_with(
            &spec,
            2,
            false,
            &std::collections::BTreeMap::new(),
            |_, _| {},
            |_, _| {},
        )
        .unwrap();
        let report = crate::build_report_with(&spec, &runs, &outputs, true);
        let section = report.inference.expect("classified report");
        let checks = stall_cross_checks(&spec, &runs, &section);
        assert!(
            !checks.is_empty(),
            "expected at least one measurable stall cross-check"
        );
        for c in &checks {
            assert!(
                c.agrees(),
                "attribution disagrees with inference for {}: {}",
                c.subject,
                c.detail()
            );
        }
        assert!(
            checks.iter().any(|c| c.inferred_stall),
            "chromium stack should be verdicted as stalling"
        );
        assert!(
            checks.iter().any(|c| !c.inferred_stall),
            "safari should not be verdicted as stalling"
        );
    }

    /// The scan `stall_cross_checks` replaced: every run, once per
    /// inferred profile.
    fn per_profile_stall_cross_checks(
        spec: &CampaignSpec,
        runs: &[RunSpec],
        section: &crate::inference::InferenceSection,
    ) -> Vec<StallCrossCheck> {
        use crate::plan::RunKind;
        use lazyeye_infer::conformance::CAD_MIN_MS;
        use lazyeye_testbed::DelayedRecord;

        let mut out = Vec::new();
        for report in &section.profiles {
            let profile = &report.profile;
            let Some(inferred_stall) = profile.rd.waits_for_all_answers else {
                continue;
            };
            let rep = runs
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    matches!(
                        &r.kind,
                        RunKind::Rd { client, record: DelayedRecord::A, .. }
                            if **client == *profile.subject
                    ) && r.kind.cell_condition() == "delayed-a"
                })
                .max_by_key(|(i, r)| {
                    let RunKind::Rd { delay_ms, .. } = &r.kind else {
                        unreachable!("filtered to RD runs");
                    };
                    (*delay_ms, std::cmp::Reverse(*i))
                });
            let Some((run_index, run)) = rep else {
                continue;
            };
            let p = forensics::provenance(spec, run);
            let ceiling = profile.cad.estimate_ms.unwrap_or(CAD_MIN_MS);
            if (p.delay_ms as f64) <= ceiling {
                continue;
            }
            let Some(attr) = attribute(&forensics::capture_trace(&p)) else {
                continue;
            };
            out.push(StallCrossCheck {
                subject: profile.subject.clone(),
                inferred_stall,
                attributed_stall: (attr.stall_ms as f64) > ceiling,
                stall_ms: attr.stall_ms,
                ceiling_ms: ceiling as u64,
                run_index,
            });
        }
        out
    }

    #[test]
    fn one_pass_stall_cross_checks_match_the_per_profile_scan() {
        use crate::spec::{NetemSpec, RdPlan};
        use lazyeye_testbed::DelayedRecord;

        // Four clients, two repetitions (ties at the top delay) and a
        // shaped condition whose delayed-A runs must not be picked.
        let spec = CampaignSpec {
            name: "stall-one-pass".into(),
            seed: 5,
            clients: vec![
                "chrome-130.0".into(),
                "safari-17.6".into(),
                "firefox-132.0".into(),
                "curl-7.88.1".into(),
            ],
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
                repetitions: 1,
            }),
            rd: Some(RdPlan {
                records: vec![DelayedRecord::Aaaa, DelayedRecord::A],
                sweep: SweepSpec::new(0, 400, 200),
                repetitions: 2,
            }),
            selection: None,
            resolver: None,
            ..CampaignSpec::default()
        };
        let (runs, outputs) = crate::run_campaign_resumable_with(
            &spec,
            2,
            false,
            &std::collections::BTreeMap::new(),
            |_, _| {},
            |_, _| {},
        )
        .unwrap();
        let report = crate::build_report_with(&spec, &runs, &outputs, true);
        let section = report.inference.expect("classified report");
        let checks = stall_cross_checks(&spec, &runs, &section);
        assert!(
            checks.len() >= 2,
            "expected several measurable stall cross-checks, got {checks:?}"
        );
        assert_eq!(
            checks,
            per_profile_stall_cross_checks(&spec, &runs, &section)
        );
    }
}
