//! Profile inference: a sweep's observations → the client's inferred
//! Happy Eyeballs state-machine parameters.

use std::borrow::Borrow;

use lazyeye_net::Family;
use lazyeye_trace::TraceSet;

use crate::changepoint::detect_switchover;
use crate::observe::{CaseKind, Observation};

/// How the client orders connection attempts across address families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortingPolicy {
    /// No selection observation available.
    Unknown,
    /// Sticks to the first family; never touches the other (wget).
    NoFallback,
    /// One address per family, then stops (the HEv1 clients).
    SingleFallback,
    /// Walks multiple addresses but family-grouped (RFC 6724-style
    /// sequential order, no interleaving).
    Grouped,
    /// Alternates address families across the candidate list (RFC 8305
    /// §4 / Safari-style).
    Interleaved,
}

lazyeye_json::impl_json_unit_enum!(SortingPolicy {
    Unknown,
    NoFallback,
    SingleFallback,
    Grouped,
    Interleaved
});

/// The inferred Connection Attempt Delay behaviour.
#[derive(Clone, Debug, PartialEq)]
pub struct CadEstimate {
    /// Whether the client ever fell back to IPv4 (`None`: no CAD case
    /// observed at all).
    pub implemented: Option<bool>,
    /// Largest configured delay the changepoint fit assigns to IPv6.
    pub last_v6_delay_ms: Option<u64>,
    /// Smallest configured delay above the fitted changepoint won by IPv4.
    pub first_v4_delay_ms: Option<u64>,
    /// The CAD estimate (ms): median observed attempt gap when fallback
    /// happened, else the changepoint bracket's lower edge.
    pub estimate_ms: Option<f64>,
    /// Observations the changepoint step model misclassifies.
    pub misfits: u64,
}

lazyeye_json::impl_json_struct!(CadEstimate {
    implemented,
    last_v6_delay_ms,
    first_v4_delay_ms,
    estimate_ms,
    misfits,
});

/// The inferred Resolution Delay behaviour.
#[derive(Clone, Debug, PartialEq)]
pub struct RdEstimate {
    /// Whether an RD timer was ever armed (`None`: no RD case observed).
    pub implemented: Option<bool>,
    /// The armed delay (ms), when traces recorded it.
    pub delay_ms: Option<u64>,
    /// Whether the client stalls until *all* lookups answer (the §5.2
    /// delayed-A stall); `None` when no delayed-A cell was observed.
    pub waits_for_all_answers: Option<bool>,
}

lazyeye_json::impl_json_struct!(RdEstimate {
    implemented,
    delay_ms,
    waits_for_all_answers,
});

/// Everything inferred about one subject.
#[derive(Clone, Debug, PartialEq)]
pub struct InferredProfile {
    /// Subject id (client profile id).
    pub subject: String,
    /// Observations folded in.
    pub runs: u64,
    /// IPv6 share (%) at the smallest configured delay of the CAD cell.
    pub v6_share_pct: Option<f64>,
    /// Whether the client prefers IPv6 on a healthy path.
    pub prefers_v6: Option<bool>,
    /// Whether AAAA is queried before A (majority over known runs).
    pub aaaa_first: Option<bool>,
    /// Connection Attempt Delay inference.
    pub cad: CadEstimate,
    /// Resolution Delay inference.
    pub rd: RdEstimate,
    /// Address-sorting policy.
    pub sorting: SortingPolicy,
    /// Max distinct IPv6 addresses attempted in selection runs.
    pub v6_addrs_used: Option<u64>,
    /// Max distinct IPv4 addresses attempted in selection runs.
    pub v4_addrs_used: Option<u64>,
}

lazyeye_json::impl_json_struct!(InferredProfile {
    subject,
    runs,
    v6_share_pct,
    prefers_v6,
    aaaa_first,
    cad,
    rd,
    sorting,
    v6_addrs_used,
    v4_addrs_used,
});

/// Picks the canonical condition of a case for a subject: `preferred`
/// when present, else the lexicographically smallest — mirroring the
/// campaign roll-up's cell choice so the two derivations must agree.
/// Public so forensics can locate the exact cell a verdict came from.
pub fn canonical_condition<'a>(obs: &'a [&Observation], preferred: &'a str) -> Option<&'a str> {
    let mut smallest: Option<&str> = None;
    for o in obs {
        let condition = &*o.condition;
        if condition == preferred {
            return Some(preferred);
        }
        if smallest.is_none_or(|s| condition < s) {
            smallest = Some(condition);
        }
    }
    smallest
}

/// The observations of the canonical condition (see
/// [`canonical_condition`]), in input order.
fn canonical_cell<'a>(obs: &[&'a Observation], preferred: &str) -> Vec<&'a Observation> {
    match canonical_condition(obs, preferred) {
        Some(cond) => obs
            .iter()
            .copied()
            .filter(|o| *o.condition == *cond)
            .collect(),
        None => Vec::new(),
    }
}

use crate::round3;

fn median_sorted(v: &mut [f64]) -> Option<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Classifies the address-sorting policy from distinct-address attempt
/// orders (one per selection run); the longest order wins, ties broken by
/// the earlier run.
fn classify_sorting(orders: &[&Vec<Family>]) -> SortingPolicy {
    let Some(order) = orders.iter().max_by_key(|o| o.len()) else {
        return SortingPolicy::Unknown;
    };
    if order.is_empty() {
        return SortingPolicy::Unknown;
    }
    let v6 = order.iter().filter(|f| **f == Family::V6).count();
    let v4 = order.len() - v6;
    if v6 == 0 || v4 == 0 {
        return SortingPolicy::NoFallback;
    }
    if v6 <= 1 && v4 <= 1 {
        return SortingPolicy::SingleFallback;
    }
    // Interleaved orders switch family at least every other step.
    let transitions = order.windows(2).filter(|w| w[0] != w[1]).count();
    if transitions * 2 >= order.len() - 1 {
        SortingPolicy::Interleaved
    } else {
        SortingPolicy::Grouped
    }
}

/// Infers one subject's profile from its observations (any case mix).
/// Observations for other subjects are ignored.
pub fn infer_profile(subject: &str, observations: &[Observation]) -> InferredProfile {
    let mine: Vec<&Observation> = observations
        .iter()
        .filter(|o| *o.subject == *subject)
        .collect();
    infer_subject_profile(subject, &mine)
}

/// Infers one subject's profile from that subject's own observations, in
/// run order: [`infer_profile`] without the scan over every subject's
/// observations. `mine` must hold no other subject's observations; it may
/// hold them by value or by reference, so a caller that builds a
/// subject's observations passes them without repacking.
pub fn infer_subject_profile<O: Borrow<Observation>>(subject: &str, mine: &[O]) -> InferredProfile {
    debug_assert!(mine.iter().all(|o| *o.borrow().subject == *subject));

    // --- CAD cell: changepoint over the sweep grid --------------------
    let cad_obs: Vec<&Observation> = mine
        .iter()
        .map(Borrow::borrow)
        .filter(|o| o.case == CaseKind::Cad)
        .collect();
    let cad_cell = canonical_cell(&cad_obs, "baseline");
    let points: Vec<(u64, Family)> = cad_cell
        .iter()
        .filter_map(|o| o.family.map(|f| (o.delay_ms, f)))
        .collect();
    let fit = detect_switchover(&points);
    let mut gaps: Vec<f64> = cad_cell
        .iter()
        .filter(|o| o.family == Some(Family::V4))
        .filter_map(|o| o.observed_cad_ms)
        .collect();
    let estimate_ms = median_sorted(&mut gaps)
        .or(fit.bracket().map(|(lo, _)| lo as f64))
        .map(round3);
    let cad = CadEstimate {
        implemented: (!cad_cell.is_empty()).then(|| fit.first_v4_delay_ms.is_some()),
        last_v6_delay_ms: fit.last_v6_delay_ms,
        first_v4_delay_ms: fit.first_v4_delay_ms,
        estimate_ms,
        misfits: fit.misfits,
    };

    // --- Preference + query order: the CAD cell's smallest delay ------
    let min_delay = cad_cell.iter().map(|o| o.delay_ms).min();
    let v6_share_pct = min_delay.map(|d| {
        let at_min: Vec<&&Observation> = cad_cell.iter().filter(|o| o.delay_ms == d).collect();
        round3(
            100.0
                * at_min
                    .iter()
                    .filter(|o| o.family == Some(Family::V6))
                    .count() as f64
                / at_min.len() as f64,
        )
    });
    let prefers_v6 = v6_share_pct.map(|p| p >= 50.0);
    let aaaa_known = cad_cell.iter().filter(|o| o.aaaa_first.is_some()).count() as u64;
    let aaaa_true = cad_cell
        .iter()
        .filter(|o| o.aaaa_first == Some(true))
        .count() as u64;
    let aaaa_first = (aaaa_known > 0).then(|| aaaa_true * 2 > aaaa_known);

    // --- RD cell ------------------------------------------------------
    let rd_obs: Vec<&Observation> = mine
        .iter()
        .map(Borrow::borrow)
        .filter(|o| o.case == CaseKind::Rd)
        .collect();
    let rd_cell = canonical_cell(&rd_obs, "delayed-aaaa");
    let mut rd_delays: Vec<f64> = rd_cell
        .iter()
        .filter_map(|o| o.rd_delay_ms)
        .map(|d| d as f64)
        .collect();
    // Stall detection: delayed-A cells where the first attempt waited for
    // (almost all of) the configured DNS delay.
    let delayed_a: Vec<&&Observation> = rd_obs
        .iter()
        .filter(|o| {
            o.condition.starts_with("delayed-a") && !o.condition.starts_with("delayed-aaaa")
        })
        .collect();
    let waits_for_all_answers =
        delayed_a
            .iter()
            .filter(|o| o.delay_ms >= 100)
            .fold(None, |acc: Option<bool>, o| {
                let stalled = o
                    .first_attempt_ms
                    .is_some_and(|t| t >= o.delay_ms as f64 * 0.9);
                Some(acc.unwrap_or(false) | stalled)
            });
    let rd = RdEstimate {
        implemented: (!rd_cell.is_empty()).then(|| rd_cell.iter().any(|o| o.used_rd)),
        delay_ms: median_sorted(&mut rd_delays).map(|d| d.round() as u64),
        waits_for_all_answers,
    };

    // --- Selection cell -----------------------------------------------
    let sel_obs: Vec<&Observation> = mine
        .iter()
        .map(Borrow::borrow)
        .filter(|o| o.case == CaseKind::Selection)
        .collect();
    let sel_cell = canonical_cell(&sel_obs, "-");
    let orders: Vec<&Vec<Family>> = sel_cell.iter().map(|o| &o.attempt_order).collect();
    let sorting = classify_sorting(&orders);
    let v6_addrs_used = sel_cell.iter().map(|o| o.v6_addrs_used).max();
    let v4_addrs_used = sel_cell.iter().map(|o| o.v4_addrs_used).max();

    InferredProfile {
        subject: subject.to_string(),
        runs: mine.len() as u64,
        v6_share_pct,
        prefers_v6,
        aaaa_first,
        cad,
        rd,
        sorting,
        v6_addrs_used,
        v4_addrs_used,
    }
}

/// Infers a profile per subject in a trace set, in first-appearance order.
pub fn infer_traces(set: &TraceSet) -> Vec<InferredProfile> {
    let observations: Vec<Observation> = set
        .traces
        .iter()
        .filter_map(Observation::from_trace)
        .collect();
    set.subjects()
        .iter()
        .map(|s| infer_profile(s, &observations))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cad_obs(delay: u64, family: Family, cad: Option<f64>) -> Observation {
        let mut o = Observation::shell(CaseKind::Cad, "c", "baseline", delay, 0);
        o.family = Some(family);
        o.observed_cad_ms = cad;
        o.aaaa_first = Some(true);
        o
    }

    #[test]
    fn cad_inference_from_clean_sweep() {
        let obs: Vec<Observation> = vec![
            cad_obs(0, Family::V6, None),
            cad_obs(100, Family::V6, None),
            cad_obs(200, Family::V6, None),
            cad_obs(300, Family::V4, Some(251.0)),
            cad_obs(400, Family::V4, Some(249.0)),
        ];
        let p = infer_profile("c", &obs);
        assert_eq!(p.cad.implemented, Some(true));
        assert_eq!(p.cad.last_v6_delay_ms, Some(200));
        assert_eq!(p.cad.first_v4_delay_ms, Some(300));
        assert_eq!(p.cad.estimate_ms, Some(250.0));
        assert_eq!(p.prefers_v6, Some(true));
        assert_eq!(p.v6_share_pct, Some(100.0));
        assert_eq!(p.aaaa_first, Some(true));
        assert_eq!(p.rd.implemented, None, "no RD case observed");
        assert_eq!(p.sorting, SortingPolicy::Unknown);
    }

    #[test]
    fn sorting_classification() {
        use Family::{V4, V6};
        assert_eq!(classify_sorting(&[]), SortingPolicy::Unknown);
        assert_eq!(classify_sorting(&[&vec![V6]]), SortingPolicy::NoFallback);
        assert_eq!(
            classify_sorting(&[&vec![V6, V4]]),
            SortingPolicy::SingleFallback
        );
        assert_eq!(
            classify_sorting(&[&vec![V6, V6, V4, V6, V4, V6, V4]]),
            SortingPolicy::Interleaved
        );
        assert_eq!(
            classify_sorting(&[&vec![V6, V6, V6, V6, V4, V4, V4, V4]]),
            SortingPolicy::Grouped
        );
    }

    #[test]
    fn rd_inference_with_stall() {
        let mut armed = Observation::shell(CaseKind::Rd, "c", "delayed-aaaa", 400, 0);
        armed.used_rd = true;
        armed.rd_delay_ms = Some(50);
        armed.family = Some(Family::V4);
        let mut stalled = Observation::shell(CaseKind::Rd, "c", "delayed-a", 800, 0);
        stalled.family = Some(Family::V6);
        stalled.first_attempt_ms = Some(801.0);
        let p = infer_profile("c", &[armed, stalled]);
        assert_eq!(p.rd.implemented, Some(true));
        assert_eq!(p.rd.delay_ms, Some(50));
        assert_eq!(p.rd.waits_for_all_answers, Some(true));
    }

    #[test]
    fn profile_json_roundtrip() {
        let p = infer_profile(
            "c",
            &[
                cad_obs(0, Family::V6, None),
                cad_obs(300, Family::V4, Some(250.0)),
            ],
        );
        let text = lazyeye_json::ToJson::to_json(&p).to_string_pretty();
        let back: InferredProfile =
            lazyeye_json::FromJson::from_json(&lazyeye_json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
    }
}
