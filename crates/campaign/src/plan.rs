//! Scenario-matrix expansion: a [`CampaignSpec`] becomes a flat,
//! deterministic list of concrete runs, each with its own derived seed.
//!
//! Expansion order is fixed (CAD, RD, selection, resolver; inner axes in
//! declaration order), so run indices — and therefore seeds, executor
//! sharding and the aggregation fold — are a pure function of the spec.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use lazyeye_clients::{all_measured_clients, ClientProfile};
use lazyeye_resolver::{all_profiles, ResolverProfile};
use lazyeye_testbed::DelayedRecord;

use crate::spec::CampaignSpec;

/// A spec that cannot be expanded into runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// What is wrong.
    pub message: String,
}

impl SpecError {
    pub(crate) fn new(message: impl Into<String>) -> SpecError {
        SpecError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// A run's client id, resolver name or netem label: an immutable string
/// shared by every run that names it. [`expand`] builds one label per
/// distinct client, resolver and condition, and
/// [`crate::refine::plan_refinement`] reuses the first pass's, so cloning
/// or dropping a [`RunSpec`] never allocates. It derefs to `str`, and
/// its `Debug` and `Display` print what the label's `String` would.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunLabel(Arc<str>);

impl RunLabel {
    /// The label as a shared string, for callers that keep it beyond
    /// the run (inference observations share it this way).
    pub(crate) fn shared(&self) -> Arc<str> {
        Arc::clone(&self.0)
    }
}

impl Deref for RunLabel {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for RunLabel {
    fn from(label: &str) -> RunLabel {
        RunLabel(label.into())
    }
}

impl From<String> for RunLabel {
    fn from(label: String) -> RunLabel {
        RunLabel(label.into())
    }
}

impl PartialEq<str> for RunLabel {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl fmt::Debug for RunLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for RunLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

/// What a single run measures. Its labels are shared and immutable
/// ([`RunLabel`] is an `Arc<str>`) and everything else is plain data, so
/// run specs can cross thread boundaries freely (the crate's Send/Sync
/// audit pins this down).
#[derive(Clone, Debug, PartialEq)]
pub enum RunKind {
    /// One CAD measurement: client × netem condition × IPv6 delay × rep.
    Cad {
        /// Client profile id.
        client: RunLabel,
        /// Netem condition label (resolved via the spec).
        netem: RunLabel,
        /// Configured IPv6 delay (ms).
        delay_ms: u64,
        /// Repetition index.
        rep: u32,
    },
    /// One RD measurement: client × netem × delayed record × DNS delay ×
    /// rep.
    Rd {
        /// Client profile id.
        client: RunLabel,
        /// Netem condition label (resolved via the spec).
        netem: RunLabel,
        /// Which record type is delayed.
        record: DelayedRecord,
        /// Configured DNS answer delay (ms).
        delay_ms: u64,
        /// Repetition index.
        rep: u32,
    },
    /// One address-selection measurement: client × netem × rep.
    Selection {
        /// Client profile id.
        client: RunLabel,
        /// Netem condition label.
        netem: RunLabel,
        /// Repetition index.
        rep: u32,
    },
    /// One resolver measurement: resolver × netem × IPv6-path delay × rep.
    Resolver {
        /// Resolver profile name.
        resolver: RunLabel,
        /// Netem condition label.
        netem: RunLabel,
        /// Configured IPv6-path delay towards the auth NS (ms).
        delay_ms: u64,
        /// Repetition index.
        rep: u32,
    },
}

impl RunKind {
    /// The cell condition this run folds into: the netem label for CAD
    /// cells, the delayed-record label (suffixed with `+netem` for shaped
    /// conditions) for RD cells, the netem label (or `"-"` for baseline)
    /// for selection and resolver cells.
    pub fn condition(&self) -> String {
        self.cell_condition().to_string()
    }

    /// [`RunKind::condition`] without building the string: the fold and
    /// the inference index compare it against the previous run's cell
    /// on every run.
    pub(crate) fn cell_condition(&self) -> CellCondition<'_> {
        let (label, netem) = match self {
            RunKind::Cad { netem, .. } => (&**netem, None),
            RunKind::Rd { netem, record, .. } => {
                let base = lazyeye_testbed::delayed_record_label(*record);
                (base, (netem != "baseline").then_some(&**netem))
            }
            RunKind::Selection { netem, .. } | RunKind::Resolver { netem, .. } => {
                if netem == "baseline" {
                    ("-", None)
                } else {
                    (&**netem, None)
                }
            }
        };
        CellCondition { label, netem }
    }

    /// The run's subject: its client id, or the resolver name.
    pub fn subject(&self) -> &str {
        self.subject_label()
    }

    /// [`RunKind::subject`] as the shared label itself.
    pub(crate) fn subject_label(&self) -> &RunLabel {
        match self {
            RunKind::Cad { client, .. }
            | RunKind::Rd { client, .. }
            | RunKind::Selection { client, .. } => client,
            RunKind::Resolver { resolver, .. } => resolver,
        }
    }

    /// The run's case family label (`cad`, `rd`, `selection`,
    /// `resolver`).
    pub fn case(&self) -> &'static str {
        match self {
            RunKind::Cad { .. } => "cad",
            RunKind::Rd { .. } => "rd",
            RunKind::Selection { .. } => "selection",
            RunKind::Resolver { .. } => "resolver",
        }
    }
}

/// A cell condition as [`RunKind::condition`] renders it, borrowed from
/// the run: a label, plus the netem label an RD cell appends after `+`
/// under a shaped condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CellCondition<'a> {
    label: &'a str,
    netem: Option<&'a str>,
}

impl PartialEq<&str> for CellCondition<'_> {
    fn eq(&self, other: &&str) -> bool {
        let other = *other;
        match self.netem {
            None => self.label == other,
            Some(netem) => {
                other
                    .strip_prefix(self.label)
                    .and_then(|rest| rest.strip_prefix('+'))
                    == Some(netem)
            }
        }
    }
}

impl std::fmt::Display for CellCondition<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.netem {
            None => f.write_str(self.label),
            Some(netem) => write!(f, "{}+{netem}", self.label),
        }
    }
}

/// Splits an RD cell condition back into `(delayed-record label, netem
/// label)` — the inverse of [`RunKind::condition`] for RD cells.
pub fn split_rd_condition(condition: &str) -> (&str, &str) {
    match condition.split_once('+') {
        Some((record, netem)) => (record, netem),
        None => (condition, "baseline"),
    }
}

/// One concrete run of the campaign matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Position in the expanded matrix (also the aggregation fold order).
    /// Refinement runs continue the numbering after the first pass.
    pub index: u64,
    /// The run's simulation seed: derived from the campaign seed and the
    /// index via [`derive_seed`] for first-pass runs, and from
    /// `(campaign_seed, "refine", refine_index)` via
    /// [`crate::refine::derive_refine_seed`] for second-pass runs.
    pub seed: u64,
    /// What to measure.
    pub kind: RunKind,
    /// `true` for runs scheduled by the second, fine refinement pass.
    pub refined: bool,
}

/// Derives the seed of run `index` from the campaign seed: a SplitMix64
/// mix, so neighbouring indices get statistically independent streams
/// while the mapping stays a pure function of `(campaign_seed, index)`.
///
/// Deliberately *not* routed through [`rand::mix_words`]: these exact
/// outputs are pinned by tests (changing them invalidates every archived
/// campaign report), whereas the newer derivers
/// ([`crate::refine::derive_refine_seed`],
/// `lazyeye_testbed::derive_case_seed`) share the helper.
pub fn derive_seed(campaign_seed: u64, index: u64) -> u64 {
    let mut state = campaign_seed ^ (index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let first = rand::splitmix64(&mut state);
    // A second round decorrelates seeds whose inputs differ in few bits.
    let mut state = first;
    rand::splitmix64(&mut state)
}

/// Resolves the spec's client id list into profiles, in spec order.
pub fn resolve_clients(spec: &CampaignSpec) -> Result<Vec<ClientProfile>, SpecError> {
    let universe = all_measured_clients();
    if spec.clients.is_empty() {
        return Ok(universe);
    }
    spec.clients
        .iter()
        .map(|id| {
            universe
                .iter()
                .find(|c| &c.id() == id)
                .cloned()
                .ok_or_else(|| {
                    SpecError::new(format!("unknown client id {id:?} (see `lazyeye clients`)"))
                })
        })
        .collect()
}

/// Resolves the spec's resolver name list into profiles, in spec order.
pub fn resolve_resolvers(spec: &CampaignSpec) -> Result<Vec<ResolverProfile>, SpecError> {
    let universe = all_profiles();
    if spec.resolvers.is_empty() {
        return Ok(universe);
    }
    spec.resolvers
        .iter()
        .map(|name| {
            universe
                .iter()
                .find(|p| p.name == name)
                .cloned()
                .ok_or_else(|| {
                    SpecError::new(format!(
                        "unknown resolver {name:?} (see `lazyeye resolvers`)"
                    ))
                })
        })
        .collect()
}

fn validate(spec: &CampaignSpec) -> Result<(), SpecError> {
    let mut labels = BTreeSet::new();
    for n in &spec.netem {
        if !labels.insert(n.label.as_str()) {
            return Err(SpecError::new(format!(
                "duplicate netem label {:?}",
                n.label
            )));
        }
        if !(0.0..=100.0).contains(&n.loss_pct) || !(0.0..=100.0).contains(&n.duplicate_pct) {
            return Err(SpecError::new(format!(
                "netem {:?}: percentages must be within 0..=100",
                n.label
            )));
        }
    }
    for (name, sweep) in [
        ("cad", spec.cad.as_ref().map(|c| c.sweep)),
        ("rd", spec.rd.as_ref().map(|r| r.sweep)),
        ("resolver", spec.resolver.as_ref().map(|r| r.sweep)),
    ] {
        if let Some(s) = sweep {
            if s.step_ms == 0 {
                return Err(SpecError::new(format!("{name}: sweep step must be > 0")));
            }
            if s.end_ms < s.start_ms {
                return Err(SpecError::new(format!("{name}: sweep end before start")));
            }
        }
    }
    if let Some(rd) = &spec.rd {
        if rd.records.is_empty() {
            return Err(SpecError::new("rd: records list is empty"));
        }
    }
    if spec.refine_step_ms == Some(0) {
        return Err(SpecError::new("refine_step_ms must be > 0 when set"));
    }
    Ok(())
}

/// Expands the spec into the concrete run list.
///
/// The result is deterministic: same spec ⇒ same runs, same indices, same
/// seeds — regardless of how many workers later execute them.
pub fn expand(spec: &CampaignSpec) -> Result<Vec<RunSpec>, SpecError> {
    validate(spec)?;
    let clients = resolve_clients(spec)?;
    let resolvers = resolve_resolvers(spec)?;
    let netem: Vec<&crate::spec::NetemSpec> = if spec.netem.is_empty() {
        Vec::new()
    } else {
        spec.netem.iter().collect()
    };
    let baseline = crate::spec::NetemSpec::baseline();
    let conditions: Vec<&crate::spec::NetemSpec> = if netem.is_empty() {
        vec![&baseline]
    } else {
        netem
    };
    // One shared label per distinct client, resolver and condition.
    let clients: Vec<RunLabel> = clients.iter().map(|c| RunLabel::from(c.id())).collect();
    let resolvers: Vec<RunLabel> = resolvers.iter().map(|r| RunLabel::from(r.name)).collect();
    let conditions: Vec<RunLabel> = conditions
        .iter()
        .map(|c| RunLabel::from(c.label.as_str()))
        .collect();

    let mut runs = Vec::new();
    let push = |kind: RunKind, runs: &mut Vec<RunSpec>| {
        let index = runs.len() as u64;
        runs.push(RunSpec {
            index,
            seed: derive_seed(spec.seed, index),
            kind,
            refined: false,
        });
    };

    if let Some(cad) = &spec.cad {
        for client in &clients {
            for cond in &conditions {
                for delay_ms in cad.sweep.values() {
                    for rep in 0..cad.repetitions {
                        push(
                            RunKind::Cad {
                                client: client.clone(),
                                netem: cond.clone(),
                                delay_ms,
                                rep,
                            },
                            &mut runs,
                        );
                    }
                }
            }
        }
    }
    if let Some(rd) = &spec.rd {
        for client in &clients {
            for cond in &conditions {
                for record in &rd.records {
                    for delay_ms in rd.sweep.values() {
                        for rep in 0..rd.repetitions {
                            push(
                                RunKind::Rd {
                                    client: client.clone(),
                                    netem: cond.clone(),
                                    record: *record,
                                    delay_ms,
                                    rep,
                                },
                                &mut runs,
                            );
                        }
                    }
                }
            }
        }
    }
    if let Some(sel) = &spec.selection {
        for client in &clients {
            for cond in &conditions {
                for rep in 0..sel.repetitions {
                    push(
                        RunKind::Selection {
                            client: client.clone(),
                            netem: cond.clone(),
                            rep,
                        },
                        &mut runs,
                    );
                }
            }
        }
    }
    if let Some(resolver) = &spec.resolver {
        for rlabel in &resolvers {
            for cond in &conditions {
                for delay_ms in resolver.sweep.values() {
                    for rep in 0..resolver.repetitions {
                        push(
                            RunKind::Resolver {
                                resolver: rlabel.clone(),
                                netem: cond.clone(),
                                delay_ms,
                                rep,
                            },
                            &mut runs,
                        );
                    }
                }
            }
        }
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_expands_to_at_least_500_runs() {
        let runs = expand(&CampaignSpec::default()).unwrap();
        assert!(runs.len() >= 500, "got {}", runs.len());
        // Indices are dense and ordered.
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.index, i as u64);
        }
    }

    #[test]
    fn expansion_is_deterministic() {
        let spec = CampaignSpec::default();
        assert_eq!(expand(&spec).unwrap(), expand(&spec).unwrap());
    }

    #[test]
    fn derive_seed_is_stable_and_spread() {
        // Pinned values: changing the derivation is a report-format break
        // and must be deliberate.
        assert_eq!(derive_seed(7, 0), derive_seed(7, 0));
        let seeds: std::collections::BTreeSet<u64> =
            (0..1000).map(|i| derive_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000, "derived seeds must not collide");
        assert_ne!(derive_seed(1, 5), derive_seed(2, 5));
    }

    #[test]
    fn unknown_names_are_errors() {
        let spec = CampaignSpec {
            clients: vec!["netscape-4.0".to_string()],
            ..CampaignSpec::default()
        };
        assert!(expand(&spec).unwrap_err().message.contains("netscape"));

        let spec = CampaignSpec {
            resolvers: vec!["djbdns".to_string()],
            ..CampaignSpec::default()
        };
        assert!(expand(&spec).unwrap_err().message.contains("djbdns"));
    }

    #[test]
    fn zero_step_sweep_is_an_error() {
        let mut spec = CampaignSpec::default();
        let bad = r#"{"start_ms": 0, "end_ms": 10, "step_ms": 0}"#;
        let sweep = <lazyeye_testbed::SweepSpec as lazyeye_json::FromJson>::from_json(
            &lazyeye_json::Json::parse(bad).unwrap(),
        )
        .unwrap();
        spec.cad.as_mut().unwrap().sweep = sweep;
        assert!(expand(&spec).is_err());
    }

    #[test]
    fn empty_client_list_means_all() {
        let mut spec = CampaignSpec::default();
        spec.clients.clear();
        spec.rd = None;
        spec.selection = None;
        spec.resolver = None;
        let runs = expand(&spec).unwrap();
        let distinct: std::collections::BTreeSet<RunLabel> = runs
            .iter()
            .map(|r| match &r.kind {
                RunKind::Cad { client, .. } => client.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(distinct.len(), all_measured_clients().len());
    }
}
