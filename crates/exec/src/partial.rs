//! Resumable partial state, shared by every study that fans a plan out
//! over [`crate::execute_indexed`]: the spec identity plus each completed
//! item's reduced output, keyed by plan index.
//!
//! A [`Partial`] is the on-disk form of "how far a study got": the spec
//! (so a resume or merge can verify it continues the *same* study), the
//! plan size (a cheap shape check), an optional [`Shard`] restriction,
//! and a completed map `index → output`. Outputs are already per-item
//! reductions, so partials stay small, and folding stored outputs in
//! index order reproduces the report of an uninterrupted run byte for
//! byte.
//!
//! The same state serves every multi-process flow: periodic saves while a
//! study runs, resuming a killed run, and `--shard i/n` slices that
//! [`merge_partials`] unions back into one state. A [`Study`] supplies only
//! the domain glue: its spec and output types, the JSON mapping of an
//! output, and how a planned item names its index and output kind.

use std::collections::BTreeMap;

use lazyeye_json::{FromJson, Json, JsonError, ToJson};

use crate::Shard;

/// Partial-state format version; bumped on incompatible layout changes.
const VERSION: u64 = 1;

/// The domain glue a study gives the partial-state layer.
pub trait Study {
    /// The declarative spec a partial belongs to.
    type Spec: Clone + std::fmt::Debug + PartialEq + ToJson + FromJson;
    /// One planned item (a run, a session).
    type Item;
    /// One item's reduced output.
    type Output: Clone + std::fmt::Debug;
    /// Names the study in messages (`"campaign"`, `"fleet"`).
    const NAME: &'static str;
    /// The JSON key the plan size is stored under.
    const PLAN_KEY: &'static str;
    /// The item's position in the plan.
    fn index(item: &Self::Item) -> u64;
    /// The kind of output the item produces, as `output_kind` names it.
    fn item_kind(item: &Self::Item) -> &'static str;
    /// The output's kind.
    fn output_kind(output: &Self::Output) -> &'static str;
    /// Serialises one output as a JSON object; the partial prefixes its
    /// index.
    fn output_to_json(output: &Self::Output) -> Json;
    /// Parses one output back from its JSON object.
    fn output_from_json(v: &Json) -> Result<Self::Output, JsonError>;
}

/// Serialisable progress of one study: spec identity plus completed
/// outputs.
#[derive(Clone, Debug)]
pub struct Partial<S: Study> {
    /// The study this state belongs to.
    pub spec: S::Spec,
    /// Size of the plan the spec expanded to when this state was made.
    pub planned: u64,
    /// The shard restriction this state was produced under, if any.
    pub shard: Option<Shard>,
    outputs: BTreeMap<u64, S::Output>,
}

impl<S: Study> Partial<S> {
    /// Fresh state for a study whose plan expands to `planned` items.
    pub fn new(spec: S::Spec, planned: u64, shard: Option<Shard>) -> Partial<S> {
        Partial {
            spec,
            planned,
            shard,
            outputs: BTreeMap::new(),
        }
    }

    /// Records one completed item.
    pub fn record(&mut self, index: u64, output: S::Output) {
        self.outputs.insert(index, output);
    }

    /// The completed map, keyed by plan index.
    pub fn completed(&self) -> &BTreeMap<u64, S::Output> {
        &self.outputs
    }

    /// Number of completed items recorded.
    pub fn completed_runs(&self) -> u64 {
        self.outputs.len() as u64
    }

    /// Plan indices (`0..planned`) not yet completed, honouring the shard
    /// restriction when set.
    pub fn missing(&self) -> Vec<u64> {
        (0..self.planned)
            .filter(|i| self.shard.is_none_or(|s| s.owns(*i)))
            .filter(|i| !self.outputs.contains_key(i))
            .collect()
    }

    /// Checks the stored plan size against the current expansion of the
    /// spec. Outputs are keyed by plan index, so stitching them onto a
    /// plan whose expansion rules changed since the save would silently
    /// corrupt the report: refuse instead.
    pub fn validate_shape(&self, planned: u64) -> Result<(), String> {
        if self.planned != planned {
            return Err(format!(
                "{} was {} when this state was saved but the spec now expands to {} \
                 (expansion rules changed since); re-run the {} instead",
                S::PLAN_KEY,
                self.planned,
                planned,
                S::NAME
            ));
        }
        Ok(())
    }

    /// The shard loop: hands `execute` the items of `plan` this state
    /// still lacks (those its shard owns with no stored output), records
    /// each output as `execute` reports it by position, and shows the
    /// updated state to `on_record`.
    pub fn run_pending<'p>(
        &mut self,
        plan: &'p [S::Item],
        execute: impl FnOnce(&[&'p S::Item], &mut dyn FnMut(usize, &S::Output)) -> Vec<S::Output>,
        mut on_record: impl FnMut(&Self),
    ) {
        let pending = pending::<S>(plan, &self.outputs, self.shard);
        execute(&pending, &mut |position, output| {
            self.record(S::index(pending[position]), output.clone());
            on_record(self);
        });
    }

    /// Serialises the state to pretty JSON.
    pub fn to_json_string(&self) -> String {
        let outputs: Vec<Json> = self
            .outputs
            .iter()
            .map(|(index, output)| {
                let mut pairs = vec![("index".to_string(), index.to_json())];
                let Json::Obj(body) = S::output_to_json(output) else {
                    unreachable!("outputs serialise to objects");
                };
                pairs.extend(body);
                Json::Obj(pairs)
            })
            .collect();
        let mut text = Json::obj(vec![
            ("version", VERSION.to_json()),
            ("spec", self.spec.to_json()),
            (S::PLAN_KEY, self.planned.to_json()),
            ("shard", self.shard.as_ref().map(ToJson::to_json).to_json()),
            ("outputs", Json::Arr(outputs)),
        ])
        .to_string_pretty();
        text.push('\n');
        text
    }

    /// Parses a state back from JSON.
    pub fn from_json_str(s: &str) -> Result<Partial<S>, JsonError> {
        let v = Json::parse(s)?;
        let version = u64::from_json(&v["version"])?;
        if version != VERSION {
            return Err(JsonError::new(format!(
                "{} state version {version} not supported (expected {VERSION})",
                S::NAME
            )));
        }
        let spec = S::Spec::from_json(&v["spec"])?;
        let planned = u64::from_json(&v[S::PLAN_KEY])?;
        let shard = Option::<Shard>::from_json(&v["shard"])?;
        if shard.is_some_and(|s| s.index >= s.count) {
            return Err(JsonError::new("shard: need 0 <= index < count"));
        }
        let mut outputs = BTreeMap::new();
        for entry in v["outputs"]
            .as_array()
            .ok_or_else(|| JsonError::new(format!("{} state outputs: expected array", S::NAME)))?
        {
            let index = u64::from_json(&entry["index"])?;
            outputs.insert(index, S::output_from_json(entry)?);
        }
        Ok(Partial {
            spec,
            planned,
            shard,
            outputs,
        })
    }

    /// Writes the state to `path` atomically (see [`crate::write_atomic`]).
    pub fn save(&self, path: &str) -> std::io::Result<()> {
        crate::write_atomic(path, self.to_json_string().as_bytes())
    }

    /// Loads a state from `path`.
    pub fn load(path: &str) -> Result<Partial<S>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Partial::from_json_str(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// Folds disjoint partial states (shard outputs, interrupted runs) of the
/// *same* study into one. The partials must agree on spec and plan size;
/// the result carries no shard restriction.
pub fn merge_partials<S: Study>(
    parts: impl IntoIterator<Item = Partial<S>>,
) -> Result<Partial<S>, String> {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Err("merge needs at least one partial".to_string());
    };
    let mut merged = Partial {
        shard: None,
        ..first
    };
    for part in parts {
        if part.spec != merged.spec {
            return Err(format!(
                "merge: partials come from different {} specs",
                S::NAME
            ));
        }
        if part.planned != merged.planned {
            return Err(format!(
                "merge: partials disagree on {} ({} vs {})",
                S::PLAN_KEY,
                part.planned,
                merged.planned
            ));
        }
        merged.outputs.extend(part.outputs);
    }
    Ok(merged)
}

/// Checks that every output `completed` stores for an item of `plan` is
/// the kind of output that item produces. Folding a swapped output would
/// misreport its cell, so a mismatch is refused before anything folds.
pub fn check_kinds<S: Study>(
    plan: &[S::Item],
    completed: &BTreeMap<u64, S::Output>,
) -> Result<(), String> {
    for item in plan {
        let index = S::index(item);
        if let Some(stored) = completed.get(&index) {
            let (want, got) = (S::item_kind(item), S::output_kind(stored));
            if want != got {
                return Err(format!(
                    "stored output at index {index} is a {got:?} output but the {} plan \
                     has a {want:?} item there; the state file is corrupt",
                    S::NAME
                ));
            }
        }
    }
    Ok(())
}

/// Hands `execute` the items of `plan` with no output in `completed` and
/// returns every item's output **in plan order**: the fresh ones `execute`
/// returns (in its input order), with stored ones laid back in place.
/// `on_result` sees each fresh output as `execute` reports it.
pub fn run_stitched<'p, S: Study>(
    plan: &'p [S::Item],
    completed: &BTreeMap<u64, S::Output>,
    execute: impl FnOnce(&[&'p S::Item], &mut dyn FnMut(usize, &S::Output)) -> Vec<S::Output>,
    mut on_result: impl FnMut(&S::Item, &S::Output),
) -> Vec<S::Output> {
    let pending = pending::<S>(plan, completed, None);
    let fresh = execute(&pending, &mut |position, output| {
        on_result(pending[position], output)
    });
    if completed.is_empty() {
        return fresh;
    }
    let mut fresh = fresh.into_iter();
    plan.iter()
        .map(|item| match completed.get(&S::index(item)) {
            Some(stored) => stored.clone(),
            None => fresh.next().expect("one fresh output per pending item"),
        })
        .collect()
}

/// The items of `plan` owned by `shard` (all when `None`) with no output
/// in `completed`, in plan order.
fn pending<'p, S: Study>(
    plan: &'p [S::Item],
    completed: &BTreeMap<u64, S::Output>,
    shard: Option<Shard>,
) -> Vec<&'p S::Item> {
    plan.iter()
        .filter(|item| {
            let index = S::index(item);
            shard.is_none_or(|s| s.owns(index)) && !completed.contains_key(&index)
        })
        .collect()
}

/// The partial-state unit tests, written once and instantiated by each
/// study's test module: round trip, merge, missing-item, shape and
/// corrupt-file checks over `samples`, a list of `(index, output)` pairs
/// with indices below 10 that covers every output kind, each output
/// tagged by a `"kind"` key in its JSON. `spec` and
/// `other_spec` must differ.
#[macro_export]
macro_rules! partial_state_tests {
    ($study:ty, spec: $spec:expr, other_spec: $other:expr, samples: $samples:expr $(,)?) => {
        type State = $crate::Partial<$study>;

        fn filled(shard: Option<$crate::Shard>) -> State {
            let mut state = State::new($spec, 10, shard);
            for (index, output) in $samples {
                state.record(index, output);
            }
            state
        }

        #[test]
        fn partial_roundtrips_byte_identically() {
            let state = filled(Some($crate::Shard { index: 1, count: 3 }));
            let text = state.to_json_string();
            let back = State::from_json_str(&text).unwrap();
            assert_eq!(back.spec, state.spec);
            assert_eq!(back.planned, 10);
            assert_eq!(back.shard, Some($crate::Shard { index: 1, count: 3 }));
            assert_eq!(back.completed_runs(), state.completed_runs());
            assert_eq!(back.to_json_string(), text);
        }

        #[test]
        fn merge_unions_disjoint_partials_and_rejects_mismatches() {
            let whole = filled(None);
            let mut a = State::new($spec, 10, Some($crate::Shard { index: 0, count: 2 }));
            let mut b = State::new($spec, 10, Some($crate::Shard { index: 1, count: 2 }));
            for (&index, output) in whole.completed() {
                let part = if index % 2 == 0 { &mut a } else { &mut b };
                part.record(index, output.clone());
            }
            let merged = $crate::merge_partials([a.clone(), b]).unwrap();
            assert_eq!(merged.to_json_string(), whole.to_json_string());
            assert_eq!(merged.shard, None);
            assert_eq!(merged.missing().len(), 10 - whole.completed().len());

            let other = State::new($other, 10, None);
            assert!($crate::merge_partials([a.clone(), other]).is_err());
            let reshaped = State::new($spec, 11, None);
            assert!($crate::merge_partials([a, reshaped]).is_err());
            assert!($crate::merge_partials(Vec::<State>::new()).is_err());
        }

        #[test]
        fn missing_honours_the_shard() {
            let mut state = State::new($spec, 6, Some($crate::Shard { index: 0, count: 2 }));
            assert_eq!(state.missing(), vec![0, 2, 4]);
            let (_, output) = $samples.into_iter().next().unwrap();
            state.record(2, output);
            assert_eq!(state.missing(), vec![0, 4]);
        }

        #[test]
        fn shape_mismatch_refuses_to_resume() {
            // State saved when the spec expanded to 10 items must not
            // stitch onto a plan that now expands differently.
            let state = filled(None);
            assert!(state.validate_shape(10).is_ok());
            let err = state.validate_shape(20).unwrap_err();
            assert!(err.contains(" was 10 ") && err.contains("to 20"), "{err}");
        }

        #[test]
        fn corrupt_partials_error_cleanly() {
            assert!(State::from_json_str("{").is_err());
            assert!(State::from_json_str(r#"{"version": 99}"#).is_err());
            let valid = filled(None).to_json_string();
            let warped = valid.replace("\"kind\": \"", "\"kind\": \"warp-");
            assert!(warped != valid, "samples carry a kind tag");
            assert!(State::from_json_str(&warped).is_err());
            let unkeyed = valid.replace("\"index\"", "\"idx\"");
            assert!(State::from_json_str(&unkeyed).is_err());
            // A shard no index belongs to (`index % 0` would panic).
            let sharded = filled(Some($crate::Shard { index: 1, count: 3 })).to_json_string();
            for bad in ["\"count\": 0", "\"count\": 1"] {
                let text = sharded.replace("\"count\": 3", bad);
                assert!(State::from_json_str(&text).is_err(), "{bad}");
            }
        }
    };
}
