//! # lazyeye-fleet — the population-scale web-tool service
//!
//! The paper's second measurement setup (§4.3(ii)) draws its value from
//! *population scale*: many clients, versions, OSes and network
//! conditions hitting the same public 18-tier deployment, rolled up into
//! the App. Figure 4 CAD/RD grids. This crate turns the single-session
//! `lazyeye-webtool` into that always-on instrument:
//!
//! 1. **[`spec`]** — a declarative [`FleetSpec`]: {population ×
//!    conditions × session counts} as one JSON value; the default is the
//!    full Table 5 population (33 browser × OS combinations) under two
//!    last-mile conditions.
//! 2. **[`plan`]** — deterministic expansion into concrete
//!    [`SessionSpec`]s, each with a seed derived from the fleet seed.
//! 3. **Execution** — sessions fan out over the shared
//!    [`lazyeye_exec`] work-stealing pool; every session runs a fresh
//!    seeded deployment of the *same* tier layout (independent users,
//!    one public tool).
//! 4. **[`collect`]** — server-side ingestion: submissions stream into
//!    per-(member, case) Figure-4 aggregates and are then dropped —
//!    memory is `O(population)`, not `O(sessions)`.
//! 5. **[`report`]** — per-member inference (`lazyeye-infer` changepoint
//!    over the tier grid), RFC 8305 verdicts, agreement against the
//!    known profile, resolver-check roll-up, JSON/CSV/text emitters.
//! 6. **[`checkpoint`]** — `--shard i/n` partials and `--merge`, the
//!    multi-machine story: a [`FleetCheckpoint`] is the shared
//!    [`lazyeye_exec::Partial`] state for fleets, whose state, shard loop,
//!    merge and stitch are written once in `lazyeye-exec`.
//!
//! **Determinism contract:** the report is a pure function of
//! `(FleetSpec, seed)`. `--jobs 1`, `--jobs 8` and any shard/merge split
//! yield byte-identical JSON and CSV (CI-enforced, same bar as
//! campaigns).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod collect;
pub mod diff;
pub mod known;
pub mod plan;
pub mod profile;
pub mod report;
pub mod session;
pub mod spec;

use std::collections::BTreeMap;

use lazyeye_exec::{check_kinds, execute_indexed_with, run_stitched};

pub use checkpoint::{Fleet, FleetCheckpoint};
pub use collect::{CaseAggregate, Collector, TierCell};
pub use diff::{diff_fleet_reports, diff_report_strs, FleetDiff};
pub use known::{check_agreement, expected_profile, known_verdicts, KnownAgreement};
pub use lazyeye_exec::{merge_partials, Shard};
pub use plan::{derive_session_seed, expand, FleetPlan, SessionKind, SessionSpec};
pub use profile::{profile_fleet, profile_fleet_plan, FleetBudget, MemberBudgetRow};
pub use report::{build_report, FleetReport, FleetSummary, MemberReport, ResolverCheckReport};
pub use session::{run_session, SessionContext, SessionOutput};
pub use spec::{client_key, resolve_members, FleetCondition, FleetSpec, Member};

/// Executes every session of `plan` not already present in `completed`,
/// fanning out over `jobs` workers, and returns all outputs **in
/// session-index order** (stored ones stitched back in place). Stored
/// outputs must match their sessions' kinds ([`check_kinds`]).
///
/// `on_result` fires on the calling thread for each newly executed
/// session (completion order is scheduling-dependent).
pub fn run_sessions(
    spec: &FleetSpec,
    plan: &FleetPlan,
    completed: &BTreeMap<u64, SessionOutput>,
    jobs: usize,
    progress: impl FnMut(usize, usize),
    on_result: impl FnMut(&SessionSpec, &SessionOutput),
) -> Vec<SessionOutput> {
    let ctx = SessionContext::new(spec, &plan.members);
    run_stitched::<Fleet>(
        &plan.sessions,
        completed,
        |pending, hook| execute_pending(&ctx, pending, jobs, progress, hook),
        on_result,
    )
}

/// Runs the `pending` sessions on the shared pool, reporting each result
/// by position to `on_result`.
fn execute_pending(
    ctx: &SessionContext<'_>,
    pending: &[&SessionSpec],
    jobs: usize,
    progress: impl FnMut(usize, usize),
    on_result: &mut dyn FnMut(usize, &SessionOutput),
) -> Vec<SessionOutput> {
    execute_indexed_with(
        pending.len(),
        jobs,
        |position| run_session(ctx, pending[position]),
        progress,
        on_result,
    )
}

/// Expands, executes and aggregates a fleet in one call.
pub fn run_fleet(
    spec: &FleetSpec,
    jobs: usize,
    progress: impl FnMut(usize, usize),
) -> Result<FleetReport, String> {
    let plan = expand(spec)?;
    let outputs = run_sessions(spec, &plan, &BTreeMap::new(), jobs, progress, |_, _| {});
    Ok(build_report(spec, &plan, &outputs))
}

/// Executes one shard of the fleet — sessions with `index % n == i` —
/// and returns the partial state for [`merge_partials`]. `on_record`
/// receives the partial after every completed session (wire periodic
/// saves here).
pub fn run_fleet_shard(
    spec: &FleetSpec,
    jobs: usize,
    shard: Shard,
    progress: impl FnMut(usize, usize),
    on_record: impl FnMut(&FleetCheckpoint),
) -> Result<FleetCheckpoint, String> {
    let plan = expand(spec)?;
    let ctx = SessionContext::new(spec, &plan.members);
    let mut ckpt = FleetCheckpoint::new(spec.clone(), plan.sessions.len() as u64, Some(shard));
    ckpt.run_pending(
        &plan.sessions,
        |pending, hook| execute_pending(&ctx, pending, jobs, progress, hook),
        on_record,
    );
    Ok(ckpt)
}

/// Finishes a fleet from merged shard state: executes whatever the
/// partials are missing and builds the canonical report — byte-identical
/// to a single-process run.
pub fn finish_from_partial(
    ckpt: &FleetCheckpoint,
    jobs: usize,
    progress: impl FnMut(usize, usize),
) -> Result<FleetReport, String> {
    let plan = expand(&ckpt.spec)?;
    ckpt.validate_shape(plan.sessions.len() as u64)?;
    check_kinds::<Fleet>(&plan.sessions, ckpt.completed())?;
    let outputs = run_sessions(
        &ckpt.spec,
        &plan,
        ckpt.completed(),
        jobs,
        progress,
        |_, _| {},
    );
    Ok(build_report(&ckpt.spec, &plan, &outputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-member population (one fixed-CAD Chromium, one condition)
    /// small enough for unit tests.
    fn tiny_spec() -> FleetSpec {
        FleetSpec {
            name: "tiny".into(),
            seed: 7,
            population: vec!["opera-114.0.0".to_string()],
            conditions: vec![FleetCondition {
                label: "home".into(),
                base_delay_ms: 8,
                jitter_ms: 3,
            }],
            cad_sessions: 1,
            rd_sessions: 1,
            rd_a_sessions: 0,
            repetitions: 2,
            resolver_checks: 1,
        }
    }

    #[test]
    fn tiny_fleet_end_to_end() {
        let spec = tiny_spec();
        let report = run_fleet(&spec, 2, |_, _| {}).unwrap();
        assert_eq!(report.members.len(), 1);
        let m = &report.members[0];
        assert_eq!(m.member, "opera-114.0.0@mac-os-x-10.15.7");
        assert_eq!(m.cad_sessions, 1);
        assert_eq!(m.rd_sessions, 1);
        // Opera is Chromium: 300 ms CAD bracketed by neighbouring tiers,
        // stall (no RD) under delayed AAAA.
        assert_eq!(m.agreement.cad_bracket_contains_known, Some(true), "{m:?}");
        assert!(!m.cad_dynamic);
        assert_eq!(m.rd_verdict, "stall");
        assert!(m.agreement.agrees, "deltas: {:?}", m.agreement.deltas);
        // Resolver checks: dual-stack capable, v4-only not.
        let dual = &report.resolver_checks[0];
        assert_eq!(dual.stack, "dual-stack");
        assert_eq!(dual.capable, dual.runs);
        let v4 = &report.resolver_checks[1];
        assert_eq!(v4.capable, 0);
        assert!(report.summary.all_fixed_cad_bracketed);
    }

    #[test]
    fn reports_are_byte_identical_across_jobs() {
        let spec = tiny_spec();
        let a = run_fleet(&spec, 1, |_, _| {}).unwrap();
        let b = run_fleet(&spec, 4, |_, _| {}).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.render_text(), b.render_text());
    }

    #[test]
    fn shard_merge_matches_single_process() {
        let spec = tiny_spec();
        let whole = run_fleet(&spec, 2, |_, _| {}).unwrap();
        let s0 =
            run_fleet_shard(&spec, 2, Shard { index: 0, count: 2 }, |_, _| {}, |_| {}).unwrap();
        let s1 =
            run_fleet_shard(&spec, 2, Shard { index: 1, count: 2 }, |_, _| {}, |_| {}).unwrap();
        // Partials survive a JSON round trip (the multi-machine path).
        let s0 = FleetCheckpoint::from_json_str(&s0.to_json_string()).unwrap();
        let merged = merge_partials([s0, s1]).unwrap();
        assert!(merged.missing().is_empty(), "shards cover the plan");
        let report = finish_from_partial(&merged, 2, |_, _| {}).unwrap();
        assert_eq!(report.to_json(), whole.to_json());
        assert_eq!(report.to_csv(), whole.to_csv());
    }

    #[test]
    fn report_json_roundtrips() {
        let report = run_fleet(&tiny_spec(), 2, |_, _| {}).unwrap();
        let back = FleetReport::from_json_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn delayed_a_probe_flags_the_stall_and_matches_known_quirks() {
        // With the probe off, none of the new report surface appears.
        let off = run_fleet(&tiny_spec(), 2, |_, _| {}).unwrap();
        assert_eq!(off.members[0].rd_a_stall, None);
        assert_eq!(off.summary.rd_a_members, 0);
        assert!(!off.to_json().contains("rd_a"));

        // Opera is Chromium: wait_for_all_answers, so the delayed-A probe
        // must observe the §5.2 stall — and agree with the known quirk.
        let spec = FleetSpec {
            rd_a_sessions: 1,
            ..tiny_spec()
        };
        let report = run_fleet(&spec, 2, |_, _| {}).unwrap();
        let m = &report.members[0];
        assert_eq!(m.rd_a_sessions, 1);
        assert_eq!(m.rd_a_stall, Some(true), "{m:?}");
        assert_eq!(report.summary.rd_a_members, 1);
        assert!(report.summary.all_rd_a_stalls_match_known);
        assert!(report.to_json().contains("rd_a_stall"));
        assert!(report.render_text().contains("delayed-A stall probe"));
        let back = FleetReport::from_json_str(&report.to_json()).unwrap();
        assert_eq!(back, report);

        // Safari arms a 50 ms RD instead of stalling: probe runs, no stall.
        let safari = FleetSpec {
            population: vec!["safari-18.0.1".to_string()],
            rd_a_sessions: 1,
            ..tiny_spec()
        };
        let report = run_fleet(&safari, 2, |_, _| {}).unwrap();
        assert!(
            report.members.iter().all(|m| m.rd_a_stall == Some(false)),
            "{:?}",
            report
                .members
                .iter()
                .map(|m| (&m.member, m.rd_a_stall))
                .collect::<Vec<_>>()
        );
        assert!(report.summary.all_rd_a_stalls_match_known);
    }
}
