//! Session execution: one fleet session = one user visiting the web tool
//! (or checking their resolver) in a fresh deployment.
//!
//! Every session gets its own simulation seeded from the plan — the
//! population-scale equivalent of independent users hitting the same
//! public deployment: the tier layout, addresses and domains are
//! identical for everyone; only the user, their network condition and
//! the coin flips differ. Outputs are small per-session reductions
//! (per-tier families, or the resolver-check verdict) that cross thread
//! boundaries freely.

use std::collections::HashMap;

use lazyeye_authns::DelayTarget;
use lazyeye_json::{FromJson, Json, JsonError, ToJson};
use lazyeye_net::Family;
use lazyeye_resolver::SelectionPolicy;
use lazyeye_webtool::{check_resolver, deploy, TierObservation, WebConditions, WebSessionResult};

use crate::plan::{SessionKind, SessionSpec};
use crate::spec::{FleetSpec, Member};

/// The reduced outcome of one resolver check.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolverCheckOutput {
    /// Did the IPv6-only-delegated name resolve?
    pub capable: bool,
    /// Did the resolver's AAAA query for the NS name precede the A query?
    pub aaaa_first: Option<bool>,
    /// Resolution time (virtual ms).
    pub resolution_ms: f64,
}

lazyeye_json::impl_json_struct!(ResolverCheckOutput {
    capable,
    aaaa_first,
    resolution_ms,
});

/// The measured outcome of one session.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionOutput {
    /// A CAD or RD web session: per-tier observed families.
    Web(WebSessionResult),
    /// A resolver check.
    Resolver(ResolverCheckOutput),
}

/// Pre-resolved lookup tables the workers need. Shared immutably across
/// all workers (the fleet analogue of the campaign's `RunContext`).
pub struct SessionContext<'a> {
    spec: &'a FleetSpec,
    members: &'a [Member],
    conditions: HashMap<String, WebConditions>,
}

impl<'a> SessionContext<'a> {
    /// Builds the context (resolving condition labels up front so workers
    /// never fail on lookups).
    pub fn new(spec: &'a FleetSpec, members: &'a [Member]) -> SessionContext<'a> {
        let conditions = spec
            .conditions
            .iter()
            .map(|c| (c.label.clone(), c.web_conditions()))
            .collect();
        SessionContext {
            spec,
            members,
            conditions,
        }
    }

    fn member(&self, index: usize) -> &Member {
        &self.members[index]
    }

    fn conditions_of(&self, member: &Member) -> WebConditions {
        *self.conditions.get(&member.condition).unwrap_or_else(|| {
            panic!(
                "member references unresolved condition {:?}",
                member.condition
            )
        })
    }
}

/// Registry handles for fleet session metrics. Session counts are a pure
/// function of the plan and live on the virtual clock.
struct FleetMetrics {
    sessions: &'static lazyeye_obs::Counter,
    sessions_rd_a: &'static lazyeye_obs::Counter,
}

fn metrics() -> &'static FleetMetrics {
    static METRICS: std::sync::OnceLock<FleetMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| FleetMetrics {
        sessions: lazyeye_obs::counter("fleet.sessions", lazyeye_obs::Clock::Virtual),
        sessions_rd_a: lazyeye_obs::counter("fleet.sessions_rd_a", lazyeye_obs::Clock::Virtual),
    })
}

/// Executes a single session in a fresh deployment.
pub fn run_session(ctx: &SessionContext<'_>, session: &SessionSpec) -> SessionOutput {
    let m = metrics();
    m.sessions.inc();
    // Formatted only for an armed surface: `--progress` or the flight
    // recorder.
    let label = || match session.kind {
        SessionKind::Cad { member } => format!("cad {}", ctx.member(member).key),
        SessionKind::Rd { member } => format!("rd {}", ctx.member(member).key),
        SessionKind::RdA { member } => format!("rd-a {}", ctx.member(member).key),
        SessionKind::ResolverCheck { stack } => format!("resolver-check {stack:?}"),
    };
    lazyeye_obs::progress::annotate(label);
    lazyeye_obs::recorder::record(lazyeye_obs::Clock::Virtual, "fleet.session", label);
    match session.kind {
        SessionKind::Cad { member } => {
            let m = ctx.member(member);
            let mut d = deploy(session.seed, ctx.conditions_of(m));
            SessionOutput::Web(d.run_cad_session(&m.profile, ctx.spec.repetitions))
        }
        SessionKind::Rd { member } => {
            let m = ctx.member(member);
            let mut d = deploy(session.seed, ctx.conditions_of(m));
            SessionOutput::Web(d.run_rd_session(
                &m.profile,
                ctx.spec.repetitions,
                DelayTarget::Aaaa,
            ))
        }
        SessionKind::RdA { member } => {
            metrics().sessions_rd_a.inc();
            let m = ctx.member(member);
            let mut d = deploy(session.seed, ctx.conditions_of(m));
            SessionOutput::Web(d.run_rd_session(&m.profile, ctx.spec.repetitions, DelayTarget::A))
        }
        SessionKind::ResolverCheck { stack } => {
            let r = check_resolver(stack, SelectionPolicy::default(), session.seed);
            SessionOutput::Resolver(ResolverCheckOutput {
                capable: r.ipv6_only_capable,
                aaaa_first: r.aaaa_first,
                resolution_ms: r.resolution_time.as_secs_f64() * 1000.0,
            })
        }
    }
}

// ---------------------------------------------------------------------------
// SessionOutput (de)serialisation — the fleet checkpoint wire format.
// Tier families pack into one character per repetition (`6`/`4`/`x`),
// keeping shard partials a few dozen bytes per session.
// ---------------------------------------------------------------------------

fn families_to_string(families: &[Option<Family>]) -> String {
    families
        .iter()
        .map(|f| match f {
            Some(Family::V6) => '6',
            Some(Family::V4) => '4',
            None => 'x',
        })
        .collect()
}

fn families_from_str(s: &str) -> Result<Vec<Option<Family>>, JsonError> {
    s.chars()
        .map(|c| match c {
            '6' => Ok(Some(Family::V6)),
            '4' => Ok(Some(Family::V4)),
            'x' => Ok(None),
            other => Err(JsonError::new(format!(
                "tier families: expected 6|4|x, got {other:?}"
            ))),
        })
        .collect()
}

/// Serialises a session output (tagged by `kind`).
pub fn output_to_json(output: &SessionOutput) -> Json {
    match output {
        SessionOutput::Web(result) => {
            let tiers: Vec<Json> = result
                .tiers
                .iter()
                .map(|t| {
                    Json::obj(vec![
                        ("delay_ms", t.delay_ms.to_json()),
                        ("families", Json::Str(families_to_string(&t.families))),
                        ("fetch_us", t.fetch_us.to_json()),
                    ])
                })
                .collect();
            Json::obj(vec![("kind", "web".to_json()), ("tiers", Json::Arr(tiers))])
        }
        SessionOutput::Resolver(r) => {
            let Json::Obj(mut pairs) = ToJson::to_json(r) else {
                unreachable!("structs serialise to objects");
            };
            pairs.insert(0, ("kind".to_string(), "resolver".to_json()));
            Json::Obj(pairs)
        }
    }
}

/// Parses a session output back from its JSON form.
pub fn output_from_json(v: &Json) -> Result<SessionOutput, JsonError> {
    match v["kind"].as_str() {
        Some("web") => {
            let mut tiers = Vec::new();
            for entry in v["tiers"]
                .as_array()
                .ok_or_else(|| JsonError::new("web session: expected tiers array"))?
            {
                let families = entry["families"]
                    .as_str()
                    .ok_or_else(|| JsonError::new("tier families: expected string"))?;
                tiers.push(TierObservation {
                    delay_ms: u64::from_json(&entry["delay_ms"])?,
                    families: families_from_str(families)?,
                    // Absent in pre-timing checkpoints: tolerate (the
                    // family grid still folds; only stall detection needs
                    // the timings).
                    fetch_us: match entry.get("fetch_us") {
                        Some(v) => FromJson::from_json(v)?,
                        None => Vec::new(),
                    },
                });
            }
            Ok(SessionOutput::Web(WebSessionResult { tiers }))
        }
        Some("resolver") => Ok(SessionOutput::Resolver(FromJson::from_json(v)?)),
        other => Err(JsonError::new(format!(
            "session output: unknown kind {other:?}"
        ))),
    }
}

// The executor moves session outputs across threads; a regression (an Rc
// or Sim handle creeping in) must fail to compile here.
#[allow(dead_code)]
fn send_audit() {
    fn assert_send<T: Send>() {}
    assert_send::<SessionOutput>();
    assert_send::<SessionSpec>();
    assert_send::<Member>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_json_roundtrips_both_kinds() {
        let web = SessionOutput::Web(WebSessionResult {
            tiers: vec![
                TierObservation {
                    delay_ms: 250,
                    families: vec![Some(Family::V6), Some(Family::V4), None],
                    fetch_us: vec![800, 1200, 5_000_000],
                },
                TierObservation {
                    delay_ms: 300,
                    families: vec![Some(Family::V4)],
                    fetch_us: vec![950],
                },
            ],
        });
        let back = output_from_json(&output_to_json(&web)).unwrap();
        assert_eq!(back, web);

        // Pre-timing checkpoints carry no fetch_us: they must keep
        // parsing, with empty timings.
        let legacy =
            Json::parse(r#"{"kind": "web", "tiers": [{"delay_ms": 0, "families": "64"}]}"#)
                .unwrap();
        let SessionOutput::Web(parsed) = output_from_json(&legacy).unwrap() else {
            panic!("expected a web output");
        };
        assert!(parsed.tiers[0].fetch_us.is_empty());

        let resolver = SessionOutput::Resolver(ResolverCheckOutput {
            capable: true,
            aaaa_first: Some(false),
            resolution_ms: 12.625,
        });
        let back = output_from_json(&output_to_json(&resolver)).unwrap();
        assert_eq!(back, resolver);
    }

    #[test]
    fn corrupt_outputs_error_cleanly() {
        assert!(output_from_json(&Json::parse(r#"{"kind": "warp"}"#).unwrap()).is_err());
        assert!(output_from_json(
            &Json::parse(r#"{"kind": "web", "tiers": [{"delay_ms": 0, "families": "9"}]}"#)
                .unwrap()
        )
        .is_err());
    }
}
