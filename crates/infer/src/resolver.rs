//! Resolver conformance: the missing half of the scoring layer.
//!
//! The campaign has always *collected* resolver observations (the
//! server-side view of a recursive resolver working a delayed IPv6 path)
//! and the web tool *checks* IPv6-only delegation capability — but
//! neither was scored. This module infers a resolver profile from those
//! observations and issues per-feature verdicts, mirroring
//! [`crate::score_profile`] for clients:
//!
//! - **IPv6 preference** — does the resolver query the authoritative
//!   server over IPv6 first on a healthy path? (The paper's Table 3
//!   column; all but Baidu's service did.)
//! - **IPv4 fallback** — once the IPv6 path is delayed past the per-try
//!   timeout, does the resolver retry over IPv4 at all? (A resolver that
//!   never does dead-ends exactly like the paper's Table 4 services.)
//! - **IPv6-only delegations** — can the resolver walk a delegation
//!   whose name server has only AAAA glue? (The web tool's §5.3 check;
//!   Hurricane Electric, Lumen, Dyn and G-Core fail it.)

use lazyeye_net::Family;

use crate::changepoint::detect_switchover;
use crate::conformance::{ConformanceEntry, Verdict};
use crate::observe::{CaseKind, Observation};

/// Everything inferred about one recursive resolver.
#[derive(Clone, Debug, PartialEq)]
pub struct InferredResolverProfile {
    /// Subject id (resolver profile name, or the check's stack label).
    pub subject: String,
    /// Observations folded in.
    pub runs: u64,
    /// Share (%) of runs whose first query went out over IPv6, at the
    /// smallest configured delay.
    pub v6_first_share_pct: Option<f64>,
    /// Whether the resolver prefers IPv6 towards authoritative servers.
    pub prefers_v6: Option<bool>,
    /// Largest configured IPv6-path delay still answered IPv6-first.
    pub last_v6_delay_ms: Option<u64>,
    /// Smallest configured delay at which IPv4 was queried first — the
    /// observable per-try timeout.
    pub first_v4_delay_ms: Option<u64>,
    /// Whether the resolver ever fell back to IPv4 under IPv6 delay.
    pub falls_back: Option<bool>,
    /// Whether the resolver resolves IPv6-only delegations (`None` when
    /// no web check was run).
    pub ipv6_only_capable: Option<bool>,
}

lazyeye_json::impl_json_struct!(InferredResolverProfile {
    subject,
    runs,
    v6_first_share_pct,
    prefers_v6,
    last_v6_delay_ms,
    first_v4_delay_ms,
    falls_back,
    ipv6_only_capable,
});

use crate::round3;

/// Infers one resolver's profile from its observations (the
/// [`CaseKind::Resolver`] ones; everything else is ignored). The web
/// check's capability bit is not observable here and stays `None` —
/// [`merge_capability`] folds it in when a check ran.
pub fn infer_resolver_profile(
    subject: &str,
    observations: &[Observation],
) -> InferredResolverProfile {
    let mine: Vec<&Observation> = observations
        .iter()
        .filter(|o| *o.subject == *subject && o.case == CaseKind::Resolver)
        .collect();

    // Changepoint over the sweep grid, exactly like the client CAD fit:
    // the first-query family flips from V6 to V4 once the configured
    // delay crosses the resolver's per-try timeout.
    let points: Vec<(u64, Family)> = mine
        .iter()
        .filter_map(|o| o.family.map(|f| (o.delay_ms, f)))
        .collect();
    let fit = detect_switchover(&points);

    let min_delay = mine.iter().map(|o| o.delay_ms).min();
    let v6_first_share_pct = min_delay.map(|d| {
        let at_min: Vec<&&Observation> = mine.iter().filter(|o| o.delay_ms == d).collect();
        round3(
            100.0
                * at_min
                    .iter()
                    .filter(|o| o.family == Some(Family::V6))
                    .count() as f64
                / at_min.len() as f64,
        )
    });

    InferredResolverProfile {
        subject: subject.to_string(),
        runs: mine.len() as u64,
        v6_first_share_pct,
        prefers_v6: v6_first_share_pct.map(|p| p >= 50.0),
        last_v6_delay_ms: fit.last_v6_delay_ms,
        first_v4_delay_ms: fit.first_v4_delay_ms,
        falls_back: (!mine.is_empty()).then(|| fit.first_v4_delay_ms.is_some()),
        ipv6_only_capable: None,
    }
}

/// Folds a web-tool capability check into a profile (majority over
/// `capable_runs` of `check_runs`).
pub fn merge_capability(
    mut profile: InferredResolverProfile,
    capable_runs: u64,
    check_runs: u64,
) -> InferredResolverProfile {
    if check_runs > 0 {
        profile.ipv6_only_capable = Some(capable_runs * 2 > check_runs);
        profile.runs += check_runs;
    }
    profile
}

/// Scores an inferred resolver profile. The entry order is fixed (stable
/// report output).
pub fn score_resolver(p: &InferredResolverProfile) -> Vec<ConformanceEntry> {
    let preference = match p.prefers_v6 {
        None => ConformanceEntry {
            feature: "resolver-v6-preference".to_string(),
            verdict: Verdict::Unmeasurable,
            reason: None,
        },
        Some(true) => ConformanceEntry {
            feature: "resolver-v6-preference".to_string(),
            verdict: Verdict::Conformant,
            reason: None,
        },
        Some(false) => ConformanceEntry {
            feature: "resolver-v6-preference".to_string(),
            verdict: Verdict::Deviates,
            reason: Some("queries authoritative servers over IPv4 first".to_string()),
        },
    };

    let fallback = match p.falls_back {
        None => ConformanceEntry {
            feature: "resolver-v4-fallback".to_string(),
            verdict: Verdict::Unmeasurable,
            reason: None,
        },
        Some(true) => ConformanceEntry {
            feature: "resolver-v4-fallback".to_string(),
            verdict: Verdict::Conformant,
            reason: None,
        },
        Some(false) => ConformanceEntry {
            feature: "resolver-v4-fallback".to_string(),
            verdict: Verdict::Deviates,
            reason: Some("never falls back to IPv4 under IPv6-path delay".to_string()),
        },
    };

    let delegation = match p.ipv6_only_capable {
        None => ConformanceEntry {
            feature: "ipv6-only-delegation".to_string(),
            verdict: Verdict::Unmeasurable,
            reason: None,
        },
        Some(true) => ConformanceEntry {
            feature: "ipv6-only-delegation".to_string(),
            verdict: Verdict::Conformant,
            reason: None,
        },
        Some(false) => ConformanceEntry {
            feature: "ipv6-only-delegation".to_string(),
            verdict: Verdict::Deviates,
            reason: Some(
                "cannot resolve IPv6-only delegations (no IPv6 on the resolution path)".to_string(),
            ),
        },
    };

    vec![preference, fallback, delegation]
}

/// One resolver's inference result: profile plus verdicts.
#[derive(Clone, Debug, PartialEq)]
pub struct InferredResolverReport {
    /// The inferred resolver behaviour.
    pub profile: InferredResolverProfile,
    /// Per-feature verdicts (fixed feature order).
    pub conformance: Vec<ConformanceEntry>,
}

lazyeye_json::impl_json_struct!(InferredResolverReport {
    profile,
    conformance,
});

/// Infers and scores every subject in a trace set that produced resolver
/// observations, in first-appearance order.
pub fn infer_resolver_traces(set: &lazyeye_trace::TraceSet) -> Vec<InferredResolverReport> {
    let observations: Vec<Observation> = set
        .traces
        .iter()
        .filter_map(Observation::from_trace)
        .collect();
    set.subjects()
        .iter()
        .filter(|s| {
            observations
                .iter()
                .any(|o| &*o.subject == s.as_str() && o.case == CaseKind::Resolver)
        })
        .map(|s| {
            let profile = infer_resolver_profile(s, &observations);
            let conformance = score_resolver(&profile);
            InferredResolverReport {
                profile,
                conformance,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(delay: u64, family: Option<Family>) -> Observation {
        let mut o = Observation::shell(CaseKind::Resolver, "r", "-", delay, 0);
        o.family = family;
        o
    }

    #[test]
    fn v6_preferring_resolver_with_fallback_conforms() {
        let observations = vec![
            obs(0, Some(Family::V6)),
            obs(200, Some(Family::V6)),
            obs(400, Some(Family::V4)),
            obs(600, Some(Family::V4)),
        ];
        let p = infer_resolver_profile("r", &observations);
        assert_eq!(p.runs, 4);
        assert_eq!(p.prefers_v6, Some(true));
        assert_eq!(p.v6_first_share_pct, Some(100.0));
        assert_eq!(p.last_v6_delay_ms, Some(200));
        assert_eq!(p.first_v4_delay_ms, Some(400));
        assert_eq!(p.falls_back, Some(true));
        let verdicts = score_resolver(&p);
        assert_eq!(verdicts[0].verdict, Verdict::Conformant);
        assert_eq!(verdicts[1].verdict, Verdict::Conformant);
        assert_eq!(verdicts[2].verdict, Verdict::Unmeasurable, "no web check");
    }

    #[test]
    fn v4_only_resolver_deviates_everywhere() {
        let observations = vec![obs(0, Some(Family::V4)), obs(400, Some(Family::V4))];
        let p = infer_resolver_profile("r", &observations);
        assert_eq!(p.prefers_v6, Some(false));
        let p = merge_capability(p, 0, 3);
        assert_eq!(p.ipv6_only_capable, Some(false));
        let verdicts = score_resolver(&p);
        assert_eq!(verdicts[0].verdict, Verdict::Deviates);
        assert_eq!(
            verdicts[2].render(),
            "DEVIATES(cannot resolve IPv6-only delegations (no IPv6 on the resolution path))"
        );
    }

    #[test]
    fn never_falling_back_deviates() {
        let observations = vec![obs(0, Some(Family::V6)), obs(5000, Some(Family::V6))];
        let p = infer_resolver_profile("r", &observations);
        assert_eq!(p.falls_back, Some(false));
        let verdicts = score_resolver(&p);
        assert_eq!(
            verdicts[1].render(),
            "DEVIATES(never falls back to IPv4 under IPv6-path delay)"
        );
    }

    #[test]
    fn empty_observations_are_unmeasurable() {
        let p = infer_resolver_profile("ghost", &[]);
        assert_eq!(p.runs, 0);
        assert!(score_resolver(&p)
            .iter()
            .all(|e| e.verdict == Verdict::Unmeasurable));
    }

    #[test]
    fn profile_json_roundtrip() {
        let p = merge_capability(
            infer_resolver_profile("r", &[obs(0, Some(Family::V6))]),
            2,
            2,
        );
        let text = lazyeye_json::ToJson::to_json(&p).to_string_pretty();
        let back: InferredResolverProfile =
            lazyeye_json::FromJson::from_json(&lazyeye_json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
    }
}
