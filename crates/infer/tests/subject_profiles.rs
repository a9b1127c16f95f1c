//! Per-subject inference equals whole-set inference: a profile inferred
//! from one subject's own observations (in their original order) is the
//! profile `infer_profile` infers from every subject's observations
//! interleaved. Campaign reports infer each client from its bucket alone,
//! so this is what keeps them equal to a scan over every run.

use lazyeye_infer::{
    canonical_condition, infer_profile, infer_subject_profile, CaseKind, Observation,
};
use lazyeye_net::Family;
use proptest::prelude::*;

const SUBJECTS: [&str; 3] = ["chrome-130.0", "curl-7.88.1", "safari-17.6"];
const CASES: [CaseKind; 4] = [
    CaseKind::Cad,
    CaseKind::Rd,
    CaseKind::Selection,
    CaseKind::Resolver,
];
const CONDITIONS: [&str; 7] = [
    "baseline",
    "jittery",
    "delayed-aaaa",
    "delayed-a",
    "delayed-aaaa+jittery",
    "delayed-a+jittery",
    "-",
];

fn family(code: u8) -> Option<Family> {
    match code % 3 {
        0 => None,
        1 => Some(Family::V6),
        _ => Some(Family::V4),
    }
}

/// One observation: (subject, case, condition, delay, rep) plus the
/// measured facts, each optional where the observation type allows.
fn observation() -> impl Strategy<Value = Observation> {
    (
        (
            0..SUBJECTS.len(),
            0..CASES.len(),
            0..CONDITIONS.len(),
            proptest::sample::select(vec![0u64, 50, 100, 150, 200, 250, 300, 800]),
            0u32..4,
        ),
        (
            any::<u8>(),
            proptest::option::of(0u16..400),
            proptest::option::of(proptest::bool::ANY),
            proptest::bool::ANY,
            proptest::option::of(0u64..100),
        ),
        (
            proptest::option::of(0u16..900),
            proptest::collection::vec(proptest::bool::ANY, 0..6),
        ),
    )
        .prop_map(|((s, c, cond, delay_ms, rep), facts, (first, order))| {
            let (fam, cad, aaaa_first, used_rd, rd_delay) = facts;
            let mut o = Observation::shell(CASES[c], SUBJECTS[s], CONDITIONS[cond], delay_ms, rep);
            o.family = family(fam);
            o.observed_cad_ms = cad.map(f64::from);
            o.aaaa_first = aaaa_first;
            o.used_rd = used_rd;
            o.rd_delay_ms = rd_delay;
            o.first_attempt_ms = first.map(f64::from);
            o.attempt_order = order
                .into_iter()
                .map(|v6| if v6 { Family::V6 } else { Family::V4 })
                .collect();
            o.v6_addrs_used = o.attempt_order.iter().filter(|f| **f == Family::V6).count() as u64;
            o.v4_addrs_used = o.attempt_order.len() as u64 - o.v6_addrs_used;
            o
        })
}

/// The canonical condition as a sort-and-dedup over every condition.
fn canonical_by_sorting<'a>(obs: &'a [&Observation], preferred: &'a str) -> Option<&'a str> {
    let mut conditions: Vec<&str> = obs.iter().map(|o| &*o.condition).collect();
    conditions.sort_unstable();
    conditions.dedup();
    if conditions.contains(&preferred) {
        Some(preferred)
    } else {
        conditions.first().copied()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn subject_buckets_infer_the_whole_set_profile(
        all in proptest::collection::vec(observation(), 0..80),
    ) {
        for subject in SUBJECTS.iter().chain(&["absent-1.0"]) {
            let bucket: Vec<&Observation> =
                all.iter().filter(|o| &*o.subject == *subject).collect();
            let whole = infer_profile(subject, &all);
            prop_assert_eq!(&infer_subject_profile(subject, &bucket), &whole);
            // A bucket held by value infers the same profile.
            let owned: Vec<Observation> = bucket.iter().map(|o| (*o).clone()).collect();
            prop_assert_eq!(&infer_subject_profile(subject, &owned), &whole);
        }
    }

    #[test]
    fn canonical_condition_is_the_preferred_or_smallest(
        all in proptest::collection::vec(observation(), 0..40),
    ) {
        let refs: Vec<&Observation> = all.iter().collect();
        for preferred in CONDITIONS.iter().chain(&["absent"]) {
            prop_assert_eq!(
                canonical_condition(&refs, preferred),
                canonical_by_sorting(&refs, preferred)
            );
        }
    }
}
