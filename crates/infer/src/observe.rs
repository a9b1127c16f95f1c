//! Per-run observations: the reduction of one trace (or one campaign run
//! output) to exactly the facts inference consumes.
//!
//! The inference layer never touches raw traces during a campaign — the
//! executor already reduces every run to a small output on the worker.
//! [`Observation`] is the shared denominator both paths produce: the
//! trace path via [`Observation::from_trace`], the campaign path via a
//! converter on its own run-output type.

use std::sync::Arc;

use lazyeye_net::Family;
use lazyeye_trace::Trace;

/// Which case family an observation came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CaseKind {
    /// Connection Attempt Delay sweep (IPv6 path delayed).
    Cad,
    /// Resolution Delay sweep (one DNS record type delayed).
    Rd,
    /// Address-selection run (dead addresses, watch the order).
    Selection,
    /// Resolver run (server-side view of a recursive resolver).
    Resolver,
}

lazyeye_json::impl_json_unit_enum!(CaseKind {
    Cad,
    Rd,
    Selection,
    Resolver
});

impl CaseKind {
    /// Parses the case label used in trace metadata and report cells.
    pub fn parse(s: &str) -> Option<CaseKind> {
        match s {
            "cad" => Some(CaseKind::Cad),
            "rd" => Some(CaseKind::Rd),
            "selection" => Some(CaseKind::Selection),
            "resolver" => Some(CaseKind::Resolver),
            _ => None,
        }
    }
}

/// One run's inference-relevant facts.
#[derive(Clone, Debug, PartialEq)]
pub struct Observation {
    /// Case family.
    pub case: CaseKind,
    /// Subject id (client profile id or resolver name).
    pub subject: Arc<str>,
    /// Cell condition (netem label, delayed-record label, `"-"`).
    pub condition: Arc<str>,
    /// Configured delay of the run (ms).
    pub delay_ms: u64,
    /// Repetition index.
    pub rep: u32,
    /// Established family (CAD/RD) or first-query family (resolver).
    pub family: Option<Family>,
    /// Observed CAD (ms): first IPv4 attempt − first IPv6 attempt.
    pub observed_cad_ms: Option<f64>,
    /// Whether AAAA hit the wire before A.
    pub aaaa_first: Option<bool>,
    /// Whether a Resolution Delay timer was armed.
    pub used_rd: bool,
    /// The armed Resolution Delay (ms), when the trace recorded it.
    pub rd_delay_ms: Option<u64>,
    /// When the first connection attempt left the client (ms).
    pub first_attempt_ms: Option<f64>,
    /// Family sequence of distinct attempted addresses.
    pub attempt_order: Vec<Family>,
    /// Distinct IPv6 addresses attempted.
    pub v6_addrs_used: u64,
    /// Distinct IPv4 addresses attempted.
    pub v4_addrs_used: u64,
}

impl Observation {
    /// An empty observation shell for `(case, subject, condition, delay,
    /// rep)` — converters fill in what they know. Pass `Arc<str>` labels
    /// to share them between the observations of one cell.
    pub fn shell(
        case: CaseKind,
        subject: impl Into<Arc<str>>,
        condition: impl Into<Arc<str>>,
        delay_ms: u64,
        rep: u32,
    ) -> Observation {
        crate::metrics::observations().inc();
        Observation {
            case,
            subject: subject.into(),
            condition: condition.into(),
            delay_ms,
            rep,
            family: None,
            observed_cad_ms: None,
            aaaa_first: None,
            used_rd: false,
            rd_delay_ms: None,
            first_attempt_ms: None,
            attempt_order: Vec::new(),
            v6_addrs_used: 0,
            v4_addrs_used: 0,
        }
    }

    /// Reduces one trace to its observation. Returns `None` when the
    /// trace's case label is unknown.
    pub fn from_trace(trace: &Trace) -> Option<Observation> {
        let case = CaseKind::parse(&trace.meta.case)?;
        let mut o = Observation::shell(
            case,
            trace.meta.subject.as_str(),
            trace.meta.condition.as_str(),
            trace.meta.configured_delay_ms,
            trace.meta.rep,
        );
        match case {
            CaseKind::Resolver => {
                // Server-side view: family of the first arrived query, and
                // nothing client-side.
                let v6 = trace.query_arrivals_ms(Family::V6);
                let v4 = trace.query_arrivals_ms(Family::V4);
                o.family = match (v6.first(), v4.first()) {
                    (Some(a), Some(b)) => Some(if a <= b { Family::V6 } else { Family::V4 }),
                    (Some(_), None) => Some(Family::V6),
                    (None, Some(_)) => Some(Family::V4),
                    (None, None) => None,
                };
                o.observed_cad_ms = match (v6.first(), v4.first()) {
                    (Some(a), Some(b)) if b > a => Some(b - a),
                    _ => None,
                };
            }
            _ => {
                o.family = trace.established_family();
                o.observed_cad_ms = trace.observed_cad_ms();
                o.aaaa_first = trace.aaaa_first();
                o.rd_delay_ms = trace.resolution_delay_ms();
                o.used_rd = o.rd_delay_ms.is_some();
                o.first_attempt_ms = trace
                    .first_attempt_ms(Family::V6)
                    .into_iter()
                    .chain(trace.first_attempt_ms(Family::V4))
                    .fold(None, |acc: Option<f64>, t| {
                        Some(acc.map_or(t, |a| a.min(t)))
                    });
                o.attempt_order = trace.attempt_order();
                o.v6_addrs_used = trace.addrs_used(Family::V6) as u64;
                o.v4_addrs_used = trace.addrs_used(Family::V4) as u64;
            }
        }
        Some(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyeye_trace::{TraceEvent, TraceEventKind, TraceMeta};

    fn meta(case: &str) -> TraceMeta {
        TraceMeta {
            subject: "chrome-130.0".into(),
            case: case.into(),
            condition: "baseline".into(),
            configured_delay_ms: 400,
            rep: 0,
            seed: 7,
        }
    }

    #[test]
    fn cad_trace_reduces_to_observation() {
        let trace = Trace {
            meta: meta("cad"),
            events: vec![
                TraceEvent {
                    at_ns: 1_000_000,
                    kind: TraceEventKind::AttemptStarted {
                        index: 0,
                        addr: "2001:db8::1".into(),
                        family: Family::V6,
                        proto: "tcp".into(),
                    },
                },
                TraceEvent {
                    at_ns: 301_000_000,
                    kind: TraceEventKind::AttemptStarted {
                        index: 1,
                        addr: "192.0.2.1".into(),
                        family: Family::V4,
                        proto: "tcp".into(),
                    },
                },
                TraceEvent {
                    at_ns: 302_000_000,
                    kind: TraceEventKind::Established {
                        addr: "192.0.2.1".into(),
                        family: Family::V4,
                        proto: "tcp".into(),
                    },
                },
            ],
        };
        let o = Observation::from_trace(&trace).unwrap();
        assert_eq!(o.case, CaseKind::Cad);
        assert_eq!(o.family, Some(Family::V4));
        assert_eq!(o.observed_cad_ms, Some(300.0));
        assert_eq!(o.first_attempt_ms, Some(1.0));
        assert_eq!(o.attempt_order, vec![Family::V6, Family::V4]);
    }

    #[test]
    fn resolver_trace_uses_server_side_arrivals() {
        let trace = Trace {
            meta: meta("resolver"),
            events: vec![
                TraceEvent {
                    at_ns: 5_000_000,
                    kind: TraceEventKind::QueryArrived {
                        qtype: "A".into(),
                        family: Family::V6,
                    },
                },
                TraceEvent {
                    at_ns: 805_000_000,
                    kind: TraceEventKind::QueryArrived {
                        qtype: "A".into(),
                        family: Family::V4,
                    },
                },
            ],
        };
        let o = Observation::from_trace(&trace).unwrap();
        assert_eq!(o.family, Some(Family::V6));
        assert_eq!(o.observed_cad_ms, Some(800.0));
    }

    #[test]
    fn unknown_case_is_none() {
        let trace = Trace {
            meta: meta("weird"),
            events: vec![],
        };
        assert!(Observation::from_trace(&trace).is_none());
    }
}
