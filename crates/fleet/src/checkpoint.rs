//! Fleet shard state: the spec identity plus every completed session's
//! reduced output — the fleet's analogue of the campaign checkpoint,
//! powering `--shard i/n` + `--merge` multi-machine runs.
//!
//! A partial is small by construction: a session output is a few dozen
//! bytes (per-tier family characters), so shipping shard partials
//! between machines costs kilobytes even for large populations.

use std::collections::BTreeMap;

use lazyeye_exec::Shard;
use lazyeye_json::{FromJson, Json, JsonError, ToJson};

use crate::session::{output_from_json, output_to_json, SessionOutput};
use crate::spec::FleetSpec;

/// Checkpoint format version; bumped on incompatible layout changes.
const VERSION: u64 = 1;

/// Serialisable fleet progress: spec identity + completed session
/// outputs.
#[derive(Clone, Debug)]
pub struct FleetCheckpoint {
    /// The fleet this state belongs to.
    pub spec: FleetSpec,
    /// Size of the session plan (shape sanity check on merge).
    pub total_sessions: u64,
    /// The shard restriction this state was produced under, if any.
    pub shard: Option<Shard>,
    outputs: BTreeMap<u64, SessionOutput>,
}

impl FleetCheckpoint {
    /// Fresh state for a fleet whose plan expands to `total_sessions`.
    pub fn new(spec: FleetSpec, total_sessions: u64, shard: Option<Shard>) -> FleetCheckpoint {
        FleetCheckpoint {
            spec,
            total_sessions,
            shard,
            outputs: BTreeMap::new(),
        }
    }

    /// Records one completed session.
    pub fn record(&mut self, index: u64, output: SessionOutput) {
        self.outputs.insert(index, output);
    }

    /// The completed-session map, keyed by session index.
    pub fn completed(&self) -> &BTreeMap<u64, SessionOutput> {
        &self.outputs
    }

    /// Number of completed sessions recorded.
    pub fn completed_sessions(&self) -> u64 {
        self.outputs.len() as u64
    }

    /// Session indices not yet completed, honouring the shard restriction
    /// when set.
    pub fn missing(&self) -> Vec<u64> {
        (0..self.total_sessions)
            .filter(|i| self.shard.is_none_or(|s| s.owns(*i)))
            .filter(|i| !self.outputs.contains_key(i))
            .collect()
    }

    /// Checks the stored plan shape against the current expansion of the
    /// checkpoint's spec — a mismatch means the expansion rules changed
    /// since the partial was written, and stitching index-keyed outputs
    /// onto a reindexed plan would silently corrupt the report.
    pub fn validate_shape(&self, total_sessions: u64) -> Result<(), String> {
        if self.total_sessions != total_sessions {
            return Err(format!(
                "partial was written for a {}-session plan but the spec now expands to {} \
                 sessions (expansion rules changed since it was saved); re-run the fleet \
                 instead of merging",
                self.total_sessions, total_sessions
            ));
        }
        Ok(())
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
            ("total_sessions", self.total_sessions.to_json()),
            ("shard", self.shard.as_ref().map(ToJson::to_json).to_json()),
            ("outputs", Json::Arr(outputs)),
        ])
        .to_string_pretty();
        text.push('\n');
        text
    }

    /// Parses a partial back from JSON.
    pub fn from_json_str(s: &str) -> Result<FleetCheckpoint, JsonError> {
        let v = Json::parse(s)?;
        let version = u64::from_json(&v["version"])?;
        if version != VERSION {
            return Err(JsonError::new(format!(
                "fleet partial version {version} not supported (expected {VERSION})"
            )));
        }
        let spec = <FleetSpec as FromJson>::from_json(&v["spec"])?;
        let total_sessions = u64::from_json(&v["total_sessions"])?;
        let shard = Option::<Shard>::from_json(&v["shard"])?;
        let mut outputs = BTreeMap::new();
        for entry in v["outputs"]
            .as_array()
            .ok_or_else(|| JsonError::new("fleet partial outputs: expected array"))?
        {
            let index = u64::from_json(&entry["index"])?;
            outputs.insert(index, output_from_json(entry)?);
        }
        Ok(FleetCheckpoint {
            spec,
            total_sessions,
            shard,
            outputs,
        })
    }

    /// Writes the state to `path` atomically (temp file + rename).
    pub fn save(&self, path: &str) -> std::io::Result<()> {
        lazyeye_exec::write_atomic(path, self.to_json_string().as_bytes())
    }

    /// Loads a partial from `path`.
    pub fn load(path: &str) -> Result<FleetCheckpoint, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        FleetCheckpoint::from_json_str(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// Folds disjoint shard partials of the *same* fleet into one state. The
/// partials must agree on spec and plan shape; the result carries no
/// shard restriction.
pub fn merge_partials(
    parts: impl IntoIterator<Item = FleetCheckpoint>,
) -> Result<FleetCheckpoint, String> {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Err("merge needs at least one partial".to_string());
    };
    let mut merged = FleetCheckpoint {
        shard: None,
        ..first
    };
    for part in parts {
        if part.spec != merged.spec {
            return Err("merge: partials come from different fleet specs".to_string());
        }
        if part.total_sessions != merged.total_sessions {
            return Err(format!(
                "merge: partials disagree on session count ({} vs {})",
                part.total_sessions, merged.total_sessions
            ));
        }
        merged.outputs.extend(part.outputs);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ResolverCheckOutput;
    use lazyeye_net::Family;
    use lazyeye_webtool::{TierObservation, WebSessionResult};

    fn sample_outputs() -> Vec<(u64, SessionOutput)> {
        vec![
            (
                0,
                SessionOutput::Web(WebSessionResult {
                    tiers: vec![TierObservation {
                        delay_ms: 300,
                        families: vec![Some(Family::V6), Some(Family::V4), None],
                        fetch_us: vec![700, 950, 5_000_000],
                    }],
                }),
            ),
            (
                3,
                SessionOutput::Resolver(ResolverCheckOutput {
                    capable: true,
                    aaaa_first: Some(true),
                    resolution_ms: 8.125,
                }),
            ),
        ]
    }

    #[test]
    fn partial_roundtrips_byte_identically() {
        let mut ckpt =
            FleetCheckpoint::new(FleetSpec::default(), 10, Some(Shard { index: 1, count: 2 }));
        for (index, output) in sample_outputs() {
            ckpt.record(index, output);
        }
        let text = ckpt.to_json_string();
        let back = FleetCheckpoint::from_json_str(&text).unwrap();
        assert_eq!(back.spec, ckpt.spec);
        assert_eq!(back.shard, Some(Shard { index: 1, count: 2 }));
        assert_eq!(back.completed_sessions(), 2);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn merge_unions_disjoint_partials_and_rejects_mismatches() {
        let spec = FleetSpec::default();
        let mut a = FleetCheckpoint::new(spec.clone(), 10, Some(Shard { index: 0, count: 2 }));
        let mut b = FleetCheckpoint::new(spec.clone(), 10, Some(Shard { index: 1, count: 2 }));
        for (index, output) in sample_outputs() {
            if index % 2 == 0 {
                a.record(index, output);
            } else {
                b.record(index, output);
            }
        }
        let merged = merge_partials([a.clone(), b]).unwrap();
        assert_eq!(merged.completed_sessions(), 2);
        assert_eq!(merged.shard, None);
        assert_eq!(merged.missing().len(), 8);

        let mut other = spec.clone();
        other.seed = 999;
        assert!(merge_partials([a.clone(), FleetCheckpoint::new(other, 10, None)]).is_err());
        assert!(merge_partials([a.clone(), FleetCheckpoint::new(spec, 11, None)]).is_err());
        assert!(a.validate_shape(11).is_err());
    }

    #[test]
    fn corrupt_partials_error_cleanly() {
        assert!(FleetCheckpoint::from_json_str("{").is_err());
        assert!(FleetCheckpoint::from_json_str(r#"{"version": 99}"#).is_err());
    }
}
