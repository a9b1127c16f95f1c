//! Resumable campaign state: the spec identity plus every completed run's
//! folded output, serialisable via `lazyeye-json`.
//!
//! A [`Checkpoint`] is the on-disk form of "how far a campaign got": the
//! spec (so a resume can verify it continues the *same* campaign), the
//! first-pass run count (a cheap shape check), an optional [`Shard`]
//! restriction, and a completed-run map `index → RunOutput`. Because a
//! [`RunOutput`] is already the per-run reduction of the raw capture,
//! checkpoints stay small — a few hundred bytes per completed run — and
//! resuming folds stored outputs in run-index order exactly as an
//! uninterrupted campaign would, so the resumed report is byte-identical.
//!
//! The same format serves three flows:
//! - `--checkpoint f.json`: periodic saves while a campaign runs;
//! - `--resume f.json`: skip completed runs, finish, re-report;
//! - `--shard i/n` + `--merge a.json b.json …`: each shard emits its
//!   completed slice as a partial, and the merge unions the disjoint
//!   partials back into one state before finishing the campaign.

use std::collections::BTreeMap;

use lazyeye_json::{FromJson, Json, JsonError, ToJson};
use lazyeye_net::Family;
use lazyeye_testbed::{CadSample, RdSample, ResolverSample, SelectionResult};

pub use lazyeye_exec::Shard;

use crate::executor::RunOutput;
use crate::plan::SpecError;
use crate::spec::CampaignSpec;

/// Checkpoint format version; bumped on incompatible layout changes.
const VERSION: u64 = 1;

/// Serialisable campaign progress: spec identity + completed run outputs.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The campaign this state belongs to.
    pub spec: CampaignSpec,
    /// Size of the first-pass expansion (shape sanity check on resume).
    pub pass1_runs: u64,
    /// The shard restriction this state was produced under, if any.
    pub shard: Option<Shard>,
    outputs: BTreeMap<u64, RunOutput>,
}

impl Checkpoint {
    /// Fresh state for a campaign whose first pass expands to
    /// `pass1_runs` runs.
    pub fn new(spec: CampaignSpec, pass1_runs: u64, shard: Option<Shard>) -> Checkpoint {
        Checkpoint {
            spec,
            pass1_runs,
            shard,
            outputs: BTreeMap::new(),
        }
    }

    /// Records one completed run.
    pub fn record(&mut self, index: u64, output: RunOutput) {
        self.outputs.insert(index, output);
    }

    /// The completed-run map, keyed by run index.
    pub fn completed(&self) -> &BTreeMap<u64, RunOutput> {
        &self.outputs
    }

    /// Number of completed runs recorded.
    pub fn completed_runs(&self) -> u64 {
        self.outputs.len() as u64
    }

    /// Checks the stored first-pass shape against the current expansion
    /// of the checkpoint's spec. A mismatch means the binary's expansion
    /// rules changed since the checkpoint was written (e.g. an axis was
    /// added to the matrix): stored outputs are keyed by run index, so
    /// stitching them onto a reindexed run list would silently corrupt
    /// the report — refuse instead.
    pub fn validate_shape(&self, pass1_runs: u64) -> Result<(), SpecError> {
        if self.pass1_runs != pass1_runs {
            return Err(SpecError::new(format!(
                "checkpoint was written for a {}-run first pass but the spec now expands \
                 to {} runs (expansion rules changed since it was saved); re-run the \
                 campaign instead of resuming",
                self.pass1_runs, pass1_runs
            )));
        }
        Ok(())
    }

    /// First-pass indices (0..pass1_runs) not yet completed, honouring the
    /// shard restriction when set.
    pub fn missing_pass1(&self) -> Vec<u64> {
        (0..self.pass1_runs)
            .filter(|i| self.shard.is_none_or(|s| s.owns(*i)))
            .filter(|i| !self.outputs.contains_key(i))
            .collect()
    }

    /// Serialises the state to pretty JSON.
    pub fn to_json_string(&self) -> String {
        let outputs: Vec<Json> = self
            .outputs
            .iter()
            .map(|(index, output)| {
                let mut pairs = vec![("index".to_string(), index.to_json())];
                let Json::Obj(body) = output_to_json(output) else {
                    unreachable!("outputs serialise to objects");
                };
                pairs.extend(body);
                Json::Obj(pairs)
            })
            .collect();
        let mut text = Json::obj(vec![
            ("version", VERSION.to_json()),
            ("spec", ToJson::to_json(&self.spec)),
            ("pass1_runs", self.pass1_runs.to_json()),
            ("shard", self.shard.as_ref().map(ToJson::to_json).to_json()),
            ("outputs", Json::Arr(outputs)),
        ])
        .to_string_pretty();
        text.push('\n');
        text
    }

    /// Parses a checkpoint back from JSON.
    pub fn from_json_str(s: &str) -> Result<Checkpoint, JsonError> {
        let v = Json::parse(s)?;
        let version = u64::from_json(&v["version"])?;
        if version != VERSION {
            return Err(JsonError::new(format!(
                "checkpoint version {version} not supported (expected {VERSION})"
            )));
        }
        let spec = <CampaignSpec as FromJson>::from_json(&v["spec"])?;
        let pass1_runs = u64::from_json(&v["pass1_runs"])?;
        let shard = Option::<Shard>::from_json(&v["shard"])?;
        let mut outputs = BTreeMap::new();
        for entry in v["outputs"]
            .as_array()
            .ok_or_else(|| JsonError::new("checkpoint outputs: expected array"))?
        {
            let index = u64::from_json(&entry["index"])?;
            outputs.insert(index, output_from_json(entry)?);
        }
        Ok(Checkpoint {
            spec,
            pass1_runs,
            shard,
            outputs,
        })
    }

    /// Writes the state to `path` atomically (temp file + rename), so a
    /// kill mid-save can never leave a truncated checkpoint behind.
    pub fn save(&self, path: &str) -> std::io::Result<()> {
        lazyeye_exec::write_atomic(path, self.to_json_string().as_bytes())
    }

    /// Loads a checkpoint from `path`.
    pub fn load(path: &str) -> Result<Checkpoint, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Checkpoint::from_json_str(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// Folds disjoint partial states (shard outputs, interrupted checkpoints)
/// of the *same* campaign into one. The partials must agree on spec and
/// first-pass shape; the result carries no shard restriction.
pub fn merge_checkpoints(
    parts: impl IntoIterator<Item = Checkpoint>,
) -> Result<Checkpoint, SpecError> {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Err(SpecError::new("merge needs at least one partial"));
    };
    let mut merged = Checkpoint {
        shard: None,
        ..first
    };
    for part in parts {
        if part.spec != merged.spec {
            return Err(SpecError::new(
                "merge: partials come from different campaign specs",
            ));
        }
        if part.pass1_runs != merged.pass1_runs {
            return Err(SpecError::new(format!(
                "merge: partials disagree on first-pass run count ({} vs {})",
                part.pass1_runs, merged.pass1_runs
            )));
        }
        merged.outputs.extend(part.outputs);
    }
    Ok(merged)
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

    #[test]
    fn shape_mismatch_refuses_to_resume() {
        // A checkpoint written when the spec expanded to 10 first-pass
        // runs must not stitch onto a matrix that now expands differently
        // (e.g. after an expansion-rule change added an axis).
        let ckpt = Checkpoint::new(CampaignSpec::default(), 10, None);
        assert!(ckpt.validate_shape(10).is_ok());
        let err = ckpt.validate_shape(20).unwrap_err();
        assert!(err.message.contains("10-run"), "{err}");
        assert!(
            crate::finish_from_checkpoint(&ckpt, 1, |_, _| {}, |_, _| {}).is_err(),
            "finish must reject the stale shape (default spec expands to 100s of runs)"
        );
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
        let back = Checkpoint::from_json_str(&text).unwrap();
        assert_eq!(back.spec, ckpt.spec);
        assert_eq!(back.pass1_runs, 10);
        assert_eq!(back.shard, Some(Shard { index: 1, count: 3 }));
        assert_eq!(back.completed_runs(), 4);
        // Exact field fidelity, including the f64s the report depends on.
        assert_eq!(back.to_json_string(), text);
        match &back.completed()[&0] {
            RunOutput::Cad(s) => assert_eq!(s.observed_cad_ms, Some(299.875)),
            _ => panic!("kind mismatch"),
        }
        match &back.completed()[&5] {
            RunOutput::Selection(r) => {
                assert_eq!(r.order, vec![Family::V6, Family::V6, Family::V4])
            }
            _ => panic!("kind mismatch"),
        }
    }

    #[test]
    fn merge_unions_disjoint_partials_and_rejects_mismatches() {
        let spec = CampaignSpec::default();
        let mut a = Checkpoint::new(spec.clone(), 10, Some(Shard { index: 0, count: 2 }));
        let mut b = Checkpoint::new(spec.clone(), 10, Some(Shard { index: 1, count: 2 }));
        for (index, output) in sample_outputs() {
            if index % 2 == 0 {
                a.record(index, output);
            } else {
                b.record(index, output);
            }
        }
        let merged = merge_checkpoints([a.clone(), b]).unwrap();
        assert_eq!(merged.completed_runs(), 4);
        assert_eq!(merged.shard, None);

        let mut other_spec = spec;
        other_spec.seed = 999;
        let c = Checkpoint::new(other_spec, 10, None);
        assert!(merge_checkpoints([a.clone(), c]).is_err());
        let d = Checkpoint::new(a.spec.clone(), 11, None);
        assert!(merge_checkpoints([a, d]).is_err());
    }

    #[test]
    fn missing_pass1_honours_the_shard() {
        let mut ckpt = Checkpoint::new(
            CampaignSpec::default(),
            6,
            Some(Shard { index: 0, count: 2 }),
        );
        assert_eq!(ckpt.missing_pass1(), vec![0, 2, 4]);
        ckpt.record(
            2,
            RunOutput::Cad(CadSample {
                configured_delay_ms: 0,
                rep: 0,
                family: None,
                observed_cad_ms: None,
                aaaa_first: None,
            }),
        );
        assert_eq!(ckpt.missing_pass1(), vec![0, 4]);
    }

    #[test]
    fn corrupt_checkpoints_error_cleanly() {
        assert!(Checkpoint::from_json_str("{").is_err());
        assert!(Checkpoint::from_json_str(r#"{"version": 99}"#).is_err());
        let valid = Checkpoint::new(CampaignSpec::default(), 1, None).to_json_string();
        let broken = valid.replace("\"cad\"", "\"warp\"");
        let _ = Checkpoint::from_json_str(&broken); // must not panic
    }
}
