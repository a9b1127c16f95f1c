//! Resumable campaign state: a [`Checkpoint`] is the shared
//! [`lazyeye_exec::Partial`] state instantiated for campaigns — the spec,
//! the first-pass run count (`pass1_runs`), an optional [`Shard`]
//! restriction and a completed-run map `index → RunOutput`.
//!
//! Because a [`RunOutput`] is already the per-run reduction of the raw
//! capture, checkpoints stay small — a few hundred bytes per completed
//! run — and resuming folds stored outputs in run-index order exactly as
//! an uninterrupted campaign would, so the resumed report is
//! byte-identical.
//!
//! The same format serves three flows:
//! - `--checkpoint f.json`: periodic saves while a campaign runs;
//! - `--resume f.json`: skip completed runs, finish, re-report;
//! - `--shard i/n` + `--merge a.json b.json …`: each shard emits its
//!   completed slice as a partial, and the merge unions the disjoint
//!   partials back into one state before finishing the campaign.
//!
//! This module holds only the campaign's glue: the [`Study`] mapping and
//! the JSON form of a [`RunOutput`].

use lazyeye_exec::{Partial, Study};
use lazyeye_json::{FromJson, Json, JsonError, ToJson};
use lazyeye_net::Family;
use lazyeye_testbed::{CadSample, RdSample, ResolverSample, SelectionResult};

pub use lazyeye_exec::{merge_partials as merge_checkpoints, Shard};

use crate::executor::RunOutput;
use crate::plan::{RunKind, RunSpec};
use crate::spec::CampaignSpec;

/// The campaign as a [`Study`]: its partial state is a [`Checkpoint`].
#[derive(Clone, Debug)]
pub enum Campaign {}

/// Serialisable campaign progress: spec identity + completed run outputs.
pub type Checkpoint = Partial<Campaign>;

impl Study for Campaign {
    type Spec = CampaignSpec;
    type Item = RunSpec;
    type Output = RunOutput;
    const NAME: &'static str = "campaign";
    const PLAN_KEY: &'static str = "pass1_runs";

    fn index(run: &RunSpec) -> u64 {
        run.index
    }

    fn item_kind(run: &RunSpec) -> &'static str {
        match run.kind {
            RunKind::Cad { .. } => "cad",
            RunKind::Rd { .. } => "rd",
            RunKind::Selection { .. } => "selection",
            RunKind::Resolver { .. } => "resolver",
        }
    }

    fn output_kind(output: &RunOutput) -> &'static str {
        match output {
            RunOutput::Cad(_) => "cad",
            RunOutput::Rd(_) => "rd",
            RunOutput::Selection(_) => "selection",
            RunOutput::Resolver(_) => "resolver",
        }
    }

    fn output_to_json(output: &RunOutput) -> Json {
        output_to_json(output)
    }

    fn output_from_json(v: &Json) -> Result<RunOutput, JsonError> {
        output_from_json(v)
    }
}

// ---------------------------------------------------------------------------
// RunOutput (de)serialisation
// ---------------------------------------------------------------------------
// `RunOutput` wraps testbed sample types whose fields include
// `lazyeye_net::Family`; the JSON mapping lives here (tagged by `kind`)
// rather than as trait impls so the wire format stays a campaign concern.

fn family_to_json(f: &Option<Family>) -> Json {
    match f {
        Some(Family::V6) => Json::Str("v6".into()),
        Some(Family::V4) => Json::Str("v4".into()),
        None => Json::Null,
    }
}

fn family_from_json(v: &Json) -> Result<Option<Family>, JsonError> {
    match v {
        Json::Null => Ok(None),
        Json::Str(s) if s == "v6" => Ok(Some(Family::V6)),
        Json::Str(s) if s == "v4" => Ok(Some(Family::V4)),
        other => Err(JsonError::new(format!("expected v6|v4|null, got {other}"))),
    }
}

fn output_to_json(output: &RunOutput) -> Json {
    match output {
        RunOutput::Cad(s) => Json::obj(vec![
            ("kind", "cad".to_json()),
            ("configured_delay_ms", s.configured_delay_ms.to_json()),
            ("rep", s.rep.to_json()),
            ("family", family_to_json(&s.family)),
            ("observed_cad_ms", s.observed_cad_ms.to_json()),
            ("aaaa_first", s.aaaa_first.to_json()),
        ]),
        RunOutput::Rd(s) => Json::obj(vec![
            ("kind", "rd".to_json()),
            ("configured_delay_ms", s.configured_delay_ms.to_json()),
            ("rep", s.rep.to_json()),
            ("family", family_to_json(&s.family)),
            ("first_attempt_ms", s.first_attempt_ms.to_json()),
            ("used_rd", s.used_rd.to_json()),
        ]),
        RunOutput::Selection(r) => Json::obj(vec![
            ("kind", "selection".to_json()),
            (
                "order",
                Json::Str(
                    r.order
                        .iter()
                        .map(|f| if *f == Family::V6 { '6' } else { '4' })
                        .collect(),
                ),
            ),
            ("v6_used", r.v6_used.to_json()),
            ("v4_used", r.v4_used.to_json()),
        ]),
        RunOutput::Resolver(s) => Json::obj(vec![
            ("kind", "resolver".to_json()),
            ("configured_delay_ms", s.configured_delay_ms.to_json()),
            ("rep", s.rep.to_json()),
            ("first_query_family", family_to_json(&s.first_query_family)),
            ("v6_packets", s.v6_packets.to_json()),
            ("observed_cad_ms", s.observed_cad_ms.to_json()),
            ("v6_retry_gap_ms", s.v6_retry_gap_ms.to_json()),
            ("resolved", s.resolved.to_json()),
            ("served_over_v6", s.served_over_v6.to_json()),
        ]),
    }
}

fn output_from_json(v: &Json) -> Result<RunOutput, JsonError> {
    match v["kind"].as_str() {
        Some("cad") => Ok(RunOutput::Cad(CadSample {
            configured_delay_ms: u64::from_json(&v["configured_delay_ms"])?,
            rep: u32::from_json(&v["rep"])?,
            family: family_from_json(&v["family"])?,
            observed_cad_ms: Option::<f64>::from_json(&v["observed_cad_ms"])?,
            aaaa_first: Option::<bool>::from_json(&v["aaaa_first"])?,
        })),
        Some("rd") => Ok(RunOutput::Rd(RdSample {
            configured_delay_ms: u64::from_json(&v["configured_delay_ms"])?,
            rep: u32::from_json(&v["rep"])?,
            family: family_from_json(&v["family"])?,
            first_attempt_ms: Option::<f64>::from_json(&v["first_attempt_ms"])?,
            used_rd: bool::from_json(&v["used_rd"])?,
        })),
        Some("selection") => {
            let order = v["order"]
                .as_str()
                .ok_or_else(|| JsonError::new("selection order: expected string"))?
                .chars()
                .map(|c| match c {
                    '6' => Ok(Family::V6),
                    '4' => Ok(Family::V4),
                    other => Err(JsonError::new(format!(
                        "selection order: expected 6|4, got {other:?}"
                    ))),
                })
                .collect::<Result<Vec<Family>, JsonError>>()?;
            Ok(RunOutput::Selection(SelectionResult {
                order,
                v6_used: usize::from_json(&v["v6_used"])?,
                v4_used: usize::from_json(&v["v4_used"])?,
            }))
        }
        Some("resolver") => Ok(RunOutput::Resolver(ResolverSample {
            configured_delay_ms: u64::from_json(&v["configured_delay_ms"])?,
            rep: u32::from_json(&v["rep"])?,
            first_query_family: family_from_json(&v["first_query_family"])?,
            v6_packets: usize::from_json(&v["v6_packets"])?,
            observed_cad_ms: Option::<f64>::from_json(&v["observed_cad_ms"])?,
            v6_retry_gap_ms: Option::<f64>::from_json(&v["v6_retry_gap_ms"])?,
            resolved: bool::from_json(&v["resolved"])?,
            served_over_v6: bool::from_json(&v["served_over_v6"])?,
        })),
        other => Err(JsonError::new(format!(
            "run output: unknown kind {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outputs() -> Vec<(u64, RunOutput)> {
        vec![
            (
                0,
                RunOutput::Cad(CadSample {
                    configured_delay_ms: 300,
                    rep: 1,
                    family: Some(Family::V6),
                    observed_cad_ms: Some(299.875),
                    aaaa_first: Some(true),
                }),
            ),
            (
                3,
                RunOutput::Rd(RdSample {
                    configured_delay_ms: 400,
                    rep: 0,
                    family: None,
                    first_attempt_ms: None,
                    used_rd: true,
                }),
            ),
            (
                5,
                RunOutput::Selection(SelectionResult {
                    order: vec![Family::V6, Family::V6, Family::V4],
                    v6_used: 2,
                    v4_used: 1,
                }),
            ),
            (
                9,
                RunOutput::Resolver(ResolverSample {
                    configured_delay_ms: 800,
                    rep: 2,
                    first_query_family: Some(Family::V4),
                    v6_packets: 0,
                    observed_cad_ms: None,
                    v6_retry_gap_ms: Some(376.5),
                    resolved: true,
                    served_over_v6: false,
                }),
            ),
        ]
    }

    lazyeye_exec::partial_state_tests!(
        Campaign,
        spec: CampaignSpec::default(),
        other_spec: CampaignSpec {
            seed: 999,
            ..CampaignSpec::default()
        },
        samples: sample_outputs(),
    );

    #[test]
    fn corrupt_checkpoints_error_cleanly() {
        assert!(Checkpoint::from_json_str("{").is_err());
        assert!(Checkpoint::from_json_str(r#"{"version": 99}"#).is_err());
        let mut ckpt = Checkpoint::new(CampaignSpec::default(), 10, None);
        for (index, output) in sample_outputs() {
            ckpt.record(index, output);
        }
        let valid = ckpt.to_json_string();
        assert!(Checkpoint::from_json_str(&valid).is_ok());
        // Every campaign output kind is named in the file; an unknown
        // one, or a missing plan-size key, is an error, not a panic.
        for kind in ["cad", "rd", "selection", "resolver"] {
            let tag = format!("\"kind\": \"{kind}\"");
            assert!(valid.contains(&tag), "{tag}");
            let broken = valid.replace(&tag, "\"kind\": \"warp\"");
            assert!(Checkpoint::from_json_str(&broken).is_err(), "{kind}");
        }
        let unsized_ = valid.replace("\"pass1_runs\"", "\"runs\"");
        assert!(Checkpoint::from_json_str(&unsized_).is_err());
    }

    #[test]
    fn checkpoint_roundtrips_every_output_kind() {
        let mut ckpt = Checkpoint::new(
            CampaignSpec::default(),
            10,
            Some(Shard::parse("1/3").unwrap()),
        );
        for (index, output) in sample_outputs() {
            ckpt.record(index, output);
        }
        let text = ckpt.to_json_string();
        assert!(text.contains("\"pass1_runs\": 10,"), "{text}");
        let back = Checkpoint::from_json_str(&text).unwrap();
        assert_eq!(back.spec, ckpt.spec);
        assert_eq!(back.planned, 10);
        assert_eq!(back.shard, Some(Shard { index: 1, count: 3 }));
        // Exact field fidelity for every kind, including the f64s the
        // report depends on.
        assert_eq!(back.to_json_string(), text);
        for (index, output) in sample_outputs() {
            assert_eq!(
                format!("{:?}", back.completed()[&index]),
                format!("{output:?}")
            );
        }
    }
}
