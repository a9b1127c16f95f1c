//! Fleet reports: deterministic JSON / CSV / text renderings of the
//! collector's aggregates — the population-scale App. Figure 4 grids,
//! per-member inference with RFC 8305 verdicts, the known-profile
//! agreement matrix, and the resolver-check roll-up.
//!
//! Like the campaign report, the fleet report contains nothing dependent
//! on worker count or wall-clock time: a `(spec, seed)` pair renders to
//! byte-identical output at any `--jobs` and across shard/merge.

use std::sync::Arc;

use lazyeye_infer::{
    fmt_opt, infer_profile, infer_resolver_profile, merge_capability, score_profile,
    score_resolver, CaseKind, ConformanceEntry, InferredProfile, InferredResolverProfile,
    Observation, RdEstimate, Verdict,
};
use lazyeye_json::{FromJson, Json, JsonError, ToJson};
use lazyeye_testbed::Table;
use lazyeye_webtool::ResolverStack;

use crate::collect::{CaseAggregate, Collector, ResolverCheckAggregate, TierCell, RD_STALL_MIN_MS};
use crate::known::{check_agreement, KnownAgreement};
use crate::plan::FleetPlan;
use crate::session::SessionOutput;
use crate::spec::{FleetSpec, Member};

/// An RD timer must fire within this configured DNS delay to count as
/// armed (RFC 8305 recommends 50 ms; the web grid's next tier is 100 ms).
const RD_ARMED_MAX_MS: u64 = 100;

/// One population member's aggregated, inferred and judged results.
#[derive(Clone, Debug, PartialEq)]
pub struct MemberReport {
    /// Member key (`<client id>@<os>`).
    pub member: String,
    /// Browser product + version.
    pub browser: String,
    /// OS (+ version when the UA carries one).
    pub os: String,
    /// Condition label.
    pub condition: String,
    /// CAD sessions folded in.
    pub cad_sessions: u64,
    /// RD sessions folded in.
    pub rd_sessions: u64,
    /// Delayed-**A** probe sessions folded in (0 when the probe is off).
    pub rd_a_sessions: u64,
    /// Figure-4 grid row: one char per tier (`6`/`4`/`m`/`x`/`.`).
    pub grid: String,
    /// RD grid row (AAAA answers delayed).
    pub rd_grid: String,
    /// Aggregate CAD bracket: last majority-IPv6 tier.
    pub cad_last_v6_ms: Option<u64>,
    /// Aggregate CAD bracket: first majority-IPv4 tier.
    pub cad_first_v4_ms: Option<u64>,
    /// CAD point estimate — only for stable (non-dynamic) switchovers;
    /// dynamic-CAD clients get a bracket, never a point.
    pub cad_point_ms: Option<f64>,
    /// Whether the member's CAD looks history-driven (Safari-style).
    pub cad_dynamic: bool,
    /// Total mixed tiers across CAD sessions.
    pub mixed_tiers: u64,
    /// RD verdict: `armed` / `stall` / `-` (unmeasured).
    pub rd_verdict: String,
    /// Whether the delayed-**A** probe observed the §5.2
    /// wait-for-all-answers stall through fetch timing. `None` when the
    /// probe did not run for this member.
    pub rd_a_stall: Option<bool>,
    /// Per-tier CAD aggregates.
    pub tiers: Vec<TierCell>,
    /// The black-box inferred profile (changepoint over the tier grid).
    pub inferred: InferredProfile,
    /// RFC 8305 verdicts of the inferred profile.
    pub conformance: Vec<ConformanceEntry>,
    /// RFC 8305 verdicts of the client's known (configured) profile.
    pub known_conformance: Vec<ConformanceEntry>,
    /// Agreement between measured and known verdicts.
    pub agreement: KnownAgreement,
}

// Hand-written (not `impl_json_struct!`) so the delayed-A probe fields
// appear only when the probe ran: with the probe off, a report renders
// to the exact bytes it did before the fields existed (the golden pin
// depends on this), and pre-probe reports keep parsing.
impl ToJson for MemberReport {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("member", ToJson::to_json(&self.member)),
            ("browser", ToJson::to_json(&self.browser)),
            ("os", ToJson::to_json(&self.os)),
            ("condition", ToJson::to_json(&self.condition)),
            ("cad_sessions", ToJson::to_json(&self.cad_sessions)),
            ("rd_sessions", ToJson::to_json(&self.rd_sessions)),
        ];
        if self.rd_a_sessions > 0 {
            pairs.push(("rd_a_sessions", ToJson::to_json(&self.rd_a_sessions)));
        }
        pairs.push(("grid", ToJson::to_json(&self.grid)));
        pairs.push(("rd_grid", ToJson::to_json(&self.rd_grid)));
        pairs.push(("cad_last_v6_ms", ToJson::to_json(&self.cad_last_v6_ms)));
        pairs.push(("cad_first_v4_ms", ToJson::to_json(&self.cad_first_v4_ms)));
        pairs.push(("cad_point_ms", ToJson::to_json(&self.cad_point_ms)));
        pairs.push(("cad_dynamic", ToJson::to_json(&self.cad_dynamic)));
        pairs.push(("mixed_tiers", ToJson::to_json(&self.mixed_tiers)));
        pairs.push(("rd_verdict", ToJson::to_json(&self.rd_verdict)));
        if let Some(stall) = self.rd_a_stall {
            pairs.push(("rd_a_stall", ToJson::to_json(&stall)));
        }
        pairs.push(("tiers", ToJson::to_json(&self.tiers)));
        pairs.push(("inferred", ToJson::to_json(&self.inferred)));
        pairs.push(("conformance", ToJson::to_json(&self.conformance)));
        pairs.push((
            "known_conformance",
            ToJson::to_json(&self.known_conformance),
        ));
        pairs.push(("agreement", ToJson::to_json(&self.agreement)));
        Json::obj(pairs)
    }
}

impl FromJson for MemberReport {
    fn from_json(v: &Json) -> Result<MemberReport, JsonError> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| JsonError::new(format!("MemberReport: missing field {name:?}")))
        };
        Ok(MemberReport {
            member: FromJson::from_json(field("member")?)?,
            browser: FromJson::from_json(field("browser")?)?,
            os: FromJson::from_json(field("os")?)?,
            condition: FromJson::from_json(field("condition")?)?,
            cad_sessions: FromJson::from_json(field("cad_sessions")?)?,
            rd_sessions: FromJson::from_json(field("rd_sessions")?)?,
            rd_a_sessions: match v.get("rd_a_sessions") {
                Some(fv) => FromJson::from_json(fv)?,
                None => 0,
            },
            grid: FromJson::from_json(field("grid")?)?,
            rd_grid: FromJson::from_json(field("rd_grid")?)?,
            cad_last_v6_ms: FromJson::from_json(field("cad_last_v6_ms")?)?,
            cad_first_v4_ms: FromJson::from_json(field("cad_first_v4_ms")?)?,
            cad_point_ms: FromJson::from_json(field("cad_point_ms")?)?,
            cad_dynamic: FromJson::from_json(field("cad_dynamic")?)?,
            mixed_tiers: FromJson::from_json(field("mixed_tiers")?)?,
            rd_verdict: FromJson::from_json(field("rd_verdict")?)?,
            rd_a_stall: match v.get("rd_a_stall") {
                Some(fv) => FromJson::from_json(fv)?,
                None => None,
            },
            tiers: FromJson::from_json(field("tiers")?)?,
            inferred: FromJson::from_json(field("inferred")?)?,
            conformance: FromJson::from_json(field("conformance")?)?,
            known_conformance: FromJson::from_json(field("known_conformance")?)?,
            agreement: FromJson::from_json(field("agreement")?)?,
        })
    }
}

/// The resolver-check roll-up for one resolver stack.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolverCheckReport {
    /// Stack label (`dual-stack` / `v4-only`).
    pub stack: String,
    /// Checks run.
    pub runs: u64,
    /// Checks that resolved the IPv6-only delegation.
    pub capable: u64,
    /// Share (%) of observable runs whose NS AAAA query led.
    pub aaaa_first_share_pct: Option<f64>,
    /// The scored resolver profile.
    pub profile: InferredResolverProfile,
    /// Conformance verdicts ([`score_resolver`] order).
    pub conformance: Vec<ConformanceEntry>,
}

lazyeye_json::impl_json_struct!(ResolverCheckReport {
    stack,
    runs,
    capable,
    aaaa_first_share_pct,
    profile,
    conformance,
});

/// Population-level roll-up, the CI-checkable health bits.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSummary {
    /// Population members measured (client × condition).
    pub members: u64,
    /// Members whose client has a fixed, configured CAD.
    pub fixed_cad_members: u64,
    /// Fixed-CAD members whose measured bracket contains the configured
    /// CAD.
    pub fixed_cad_bracketed: u64,
    /// `fixed_cad_members == fixed_cad_bracketed`.
    pub all_fixed_cad_bracketed: bool,
    /// Members whose client has a dynamic (history-driven) CAD.
    pub dynamic_cad_members: u64,
    /// Dynamic-CAD members the fleet flagged as dynamic (bracket, not
    /// point).
    pub dynamic_cad_flagged: u64,
    /// `dynamic_cad_members == dynamic_cad_flagged`.
    pub all_dynamic_cad_flagged: bool,
    /// Members whose measured verdicts agree with the known profile.
    pub agreeing_members: u64,
    /// `members == agreeing_members`.
    pub all_members_agree: bool,
    /// Members the delayed-**A** probe measured (0 when the probe is off).
    pub rd_a_members: u64,
    /// Every probed member's observed stall (or its absence) matches the
    /// client's known `wait_for_all_answers` quirk. Vacuously true when
    /// the probe is off.
    pub all_rd_a_stalls_match_known: bool,
}

// Hand-written for the same reason as [`MemberReport`]: the delayed-A
// probe fields stay out of the bytes entirely when the probe is off.
impl ToJson for FleetSummary {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("members", ToJson::to_json(&self.members)),
            (
                "fixed_cad_members",
                ToJson::to_json(&self.fixed_cad_members),
            ),
            (
                "fixed_cad_bracketed",
                ToJson::to_json(&self.fixed_cad_bracketed),
            ),
            (
                "all_fixed_cad_bracketed",
                ToJson::to_json(&self.all_fixed_cad_bracketed),
            ),
            (
                "dynamic_cad_members",
                ToJson::to_json(&self.dynamic_cad_members),
            ),
            (
                "dynamic_cad_flagged",
                ToJson::to_json(&self.dynamic_cad_flagged),
            ),
            (
                "all_dynamic_cad_flagged",
                ToJson::to_json(&self.all_dynamic_cad_flagged),
            ),
            ("agreeing_members", ToJson::to_json(&self.agreeing_members)),
            (
                "all_members_agree",
                ToJson::to_json(&self.all_members_agree),
            ),
        ];
        if self.rd_a_members > 0 {
            pairs.push(("rd_a_members", ToJson::to_json(&self.rd_a_members)));
            pairs.push((
                "all_rd_a_stalls_match_known",
                ToJson::to_json(&self.all_rd_a_stalls_match_known),
            ));
        }
        Json::obj(pairs)
    }
}

impl FromJson for FleetSummary {
    fn from_json(v: &Json) -> Result<FleetSummary, JsonError> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| JsonError::new(format!("FleetSummary: missing field {name:?}")))
        };
        Ok(FleetSummary {
            members: FromJson::from_json(field("members")?)?,
            fixed_cad_members: FromJson::from_json(field("fixed_cad_members")?)?,
            fixed_cad_bracketed: FromJson::from_json(field("fixed_cad_bracketed")?)?,
            all_fixed_cad_bracketed: FromJson::from_json(field("all_fixed_cad_bracketed")?)?,
            dynamic_cad_members: FromJson::from_json(field("dynamic_cad_members")?)?,
            dynamic_cad_flagged: FromJson::from_json(field("dynamic_cad_flagged")?)?,
            all_dynamic_cad_flagged: FromJson::from_json(field("all_dynamic_cad_flagged")?)?,
            agreeing_members: FromJson::from_json(field("agreeing_members")?)?,
            all_members_agree: FromJson::from_json(field("all_members_agree")?)?,
            rd_a_members: match v.get("rd_a_members") {
                Some(fv) => FromJson::from_json(fv)?,
                None => 0,
            },
            all_rd_a_stalls_match_known: match v.get("all_rd_a_stalls_match_known") {
                Some(fv) => FromJson::from_json(fv)?,
                None => true,
            },
        })
    }
}

/// The complete result of one fleet run.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetReport {
    /// Fleet name (from the spec).
    pub name: String,
    /// Fleet seed.
    pub seed: u64,
    /// Total sessions executed.
    pub total_sessions: u64,
    /// Tier delays (ms) the grids index, ascending.
    pub tiers_ms: Vec<u64>,
    /// Condition labels, in spec order.
    pub conditions: Vec<String>,
    /// Per-member reports, in population × condition order.
    pub members: Vec<MemberReport>,
    /// Resolver-check roll-ups.
    pub resolver_checks: Vec<ResolverCheckReport>,
    /// Population-level health summary.
    pub summary: FleetSummary,
}

lazyeye_json::impl_json_struct!(FleetReport {
    name,
    seed,
    total_sessions,
    tiers_ms,
    conditions,
    members,
    resolver_checks,
    summary,
});

/// Synthesizes the inference observations a member's CAD aggregate
/// stands for: one observation per counted fetch, reconstructed from the
/// per-tier counts (the collector kept no raw sessions).
fn cad_observations(member: &Member, cad: &CaseAggregate) -> Vec<Observation> {
    let subject: Arc<str> = member.key.as_str().into();
    let condition: Arc<str> = member.condition.as_str().into();
    let mut out = Vec::new();
    for cell in &cad.tiers {
        let mut rep = 0u32;
        let mut push = |family, n: u64, out: &mut Vec<Observation>| {
            for _ in 0..n {
                let mut o = Observation::shell(
                    CaseKind::Cad,
                    Arc::clone(&subject),
                    Arc::clone(&condition),
                    cell.delay_ms,
                    rep,
                );
                o.family = family;
                out.push(o);
                rep += 1;
            }
        };
        push(Some(lazyeye_net::Family::V6), cell.v6, &mut out);
        push(Some(lazyeye_net::Family::V4), cell.v4, &mut out);
        push(None, cell.failed, &mut out);
    }
    out
}

/// The web-side RD reduction: bracket semantics instead of the local
/// testbed's timer visibility. An early fall to IPv4 under a delayed
/// AAAA answer means an armed Resolution Delay; holding IPv6 through
/// multi-second delays means the client stalled for the answer (§5.2).
fn rd_estimate(rd: &CaseAggregate) -> (RdEstimate, String) {
    if rd.sessions == 0 {
        return (
            RdEstimate {
                implemented: None,
                delay_ms: None,
                waits_for_all_answers: None,
            },
            "-".to_string(),
        );
    }
    let (last_v6, first_v4) = rd.bracket();
    if first_v4.is_some_and(|d| d <= RD_ARMED_MAX_MS) {
        (
            RdEstimate {
                implemented: Some(true),
                delay_ms: None,
                waits_for_all_answers: Some(false),
            },
            "armed".to_string(),
        )
    } else if last_v6.is_some_and(|d| d >= RD_STALL_MIN_MS) {
        (
            RdEstimate {
                implemented: Some(false),
                delay_ms: None,
                waits_for_all_answers: Some(true),
            },
            "stall".to_string(),
        )
    } else {
        (
            RdEstimate {
                implemented: None,
                delay_ms: None,
                waits_for_all_answers: None,
            },
            "-".to_string(),
        )
    }
}

use lazyeye_infer::round3;

fn resolver_check_report(
    stack: ResolverStack,
    agg: &ResolverCheckAggregate,
) -> ResolverCheckReport {
    let label = match stack {
        ResolverStack::DualStack => "dual-stack",
        ResolverStack::V4Only => "v4-only",
    };
    let profile = merge_capability(infer_resolver_profile(label, &[]), agg.capable, agg.runs);
    let conformance = score_resolver(&profile);
    ResolverCheckReport {
        stack: label.to_string(),
        runs: agg.runs,
        capable: agg.capable,
        aaaa_first_share_pct: (agg.aaaa_known > 0)
            .then(|| round3(100.0 * agg.aaaa_first as f64 / agg.aaaa_known as f64)),
        profile,
        conformance,
    }
}

/// Builds the canonical fleet report: folds the session outputs (in
/// session-index order) through the collector, runs per-member inference
/// over the aggregates, scores everything, and checks agreement against
/// the known profiles.
pub fn build_report(spec: &FleetSpec, plan: &FleetPlan, outputs: &[SessionOutput]) -> FleetReport {
    assert_eq!(
        plan.sessions.len(),
        outputs.len(),
        "one output per planned session"
    );
    let mut collector = Collector::new(plan.members.len());
    for (session, output) in plan.sessions.iter().zip(outputs) {
        collector.ingest(&session.kind, output);
    }

    let mut members = Vec::new();
    let mut summary = FleetSummary {
        members: plan.members.len() as u64,
        fixed_cad_members: 0,
        fixed_cad_bracketed: 0,
        all_fixed_cad_bracketed: false,
        dynamic_cad_members: 0,
        dynamic_cad_flagged: 0,
        all_dynamic_cad_flagged: false,
        agreeing_members: 0,
        all_members_agree: false,
        rd_a_members: 0,
        all_rd_a_stalls_match_known: true,
    };
    let mut rd_a_mismatches = 0u64;
    for (member, agg) in plan.members.iter().zip(&collector.members) {
        let observations = cad_observations(member, &agg.cad);
        let mut inferred = infer_profile(&member.key, &observations);
        let dynamic = agg.cad.is_dynamic();
        let (last_v6, first_v4) = agg.cad.bracket();
        // The aggregate bracket is the report's CAD statement; the
        // changepoint fit stays in `inferred` (misfits included). A
        // dynamic CAD gets no point estimate — the web method can only
        // bracket it (the paper's fundamental resolution limit).
        if dynamic {
            inferred.cad.estimate_ms = None;
        }
        let (rd, rd_verdict) = rd_estimate(&agg.rd);
        inferred.rd = rd;
        // The delayed-A probe (§5.2): a wait-for-all-answers client still
        // connects over IPv6 under a withheld A answer — only the fetch
        // *timing* betrays the stall, so the verdict comes from the
        // collector's timing fold, not the family grid.
        let rd_a_stall = (agg.rd_a.sessions > 0).then_some(agg.rd_a.stall_sessions > 0);
        if let Some(stalled) = rd_a_stall {
            summary.rd_a_members += 1;
            if stalled != member.profile.he.quirks.wait_for_all_answers {
                rd_a_mismatches += 1;
            }
        }
        let conformance = score_profile(&inferred);
        let known_conformance = crate::known::known_verdicts(&member.key, &member.profile);
        let agreement =
            check_agreement(&member.profile, &inferred, &conformance, &known_conformance);

        let fixed = member.profile.fixed_cad().is_some();
        if fixed {
            summary.fixed_cad_members += 1;
            if agreement.cad_bracket_contains_known == Some(true) {
                summary.fixed_cad_bracketed += 1;
            }
        } else {
            summary.dynamic_cad_members += 1;
            if dynamic {
                summary.dynamic_cad_flagged += 1;
            }
        }
        if agreement.agrees {
            summary.agreeing_members += 1;
        }

        members.push(MemberReport {
            member: member.key.clone(),
            browser: format!("{} {}", member.profile.name, member.profile.version),
            os: if member.profile.os_version.is_empty() {
                member.profile.os.to_string()
            } else {
                format!("{} {}", member.profile.os, member.profile.os_version)
            },
            condition: member.condition.clone(),
            cad_sessions: agg.cad.sessions,
            rd_sessions: agg.rd.sessions,
            rd_a_sessions: agg.rd_a.sessions,
            grid: agg.cad.grid_row(),
            rd_grid: agg.rd.grid_row(),
            cad_last_v6_ms: last_v6,
            cad_first_v4_ms: first_v4,
            cad_point_ms: inferred.cad.estimate_ms,
            cad_dynamic: dynamic,
            mixed_tiers: agg.cad.mixed_tiers,
            rd_verdict,
            rd_a_stall,
            tiers: agg.cad.tiers.clone(),
            inferred,
            conformance,
            known_conformance,
            agreement,
        });
    }
    summary.all_fixed_cad_bracketed = summary.fixed_cad_bracketed == summary.fixed_cad_members;
    summary.all_dynamic_cad_flagged = summary.dynamic_cad_flagged == summary.dynamic_cad_members;
    summary.all_members_agree = summary.agreeing_members == summary.members;
    summary.all_rd_a_stalls_match_known = rd_a_mismatches == 0;

    FleetReport {
        name: spec.name.clone(),
        seed: spec.seed,
        total_sessions: plan.sessions.len() as u64,
        tiers_ms: lazyeye_webtool::TIERS_MS.to_vec(),
        conditions: spec.conditions.iter().map(|c| c.label.clone()).collect(),
        members,
        resolver_checks: vec![
            resolver_check_report(ResolverStack::DualStack, &collector.dual_stack),
            resolver_check_report(ResolverStack::V4Only, &collector.v4_only),
        ],
        summary,
    }
}

/// The fixed CSV column set, shared by header and rows.
const CSV_COLUMNS: [&str; 15] = [
    "member",
    "browser",
    "os",
    "condition",
    "cad_sessions",
    "rd_sessions",
    "grid",
    "cad_last_v6_ms",
    "cad_first_v4_ms",
    "cad_point_ms",
    "cad_dynamic",
    "mixed_tiers",
    "rd_verdict",
    "agrees_with_known",
    "deviations",
];

impl FleetReport {
    /// Pretty JSON rendering.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.to_json_into(&mut out);
        out
    }

    /// Pretty JSON rendering appended to a reusable caller buffer (the
    /// CLI renders once and reuses the bytes for stdout and `--out`).
    pub fn to_json_into(&self, out: &mut String) {
        ToJson::to_json(self).write_pretty_into(out);
        out.push('\n');
    }

    /// Parses a report back from its JSON rendering.
    pub fn from_json_str(s: &str) -> Result<FleetReport, lazyeye_json::JsonError> {
        lazyeye_json::FromJson::from_json(&Json::parse(s)?)
    }

    /// CSV rendering: one row per member.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        self.to_csv_into(&mut out);
        out
    }

    /// CSV rendering appended to a reusable caller buffer.
    pub fn to_csv_into(&self, out: &mut String) {
        out.reserve(64 + self.members.len() * 160);
        out.push_str(&CSV_COLUMNS.join(","));
        out.push('\n');
        for m in &self.members {
            let deviations = m
                .conformance
                .iter()
                .filter(|e| e.verdict == Verdict::Deviates)
                .count();
            let row = [
                m.member.clone(),
                m.browser.clone(),
                m.os.clone(),
                m.condition.clone(),
                m.cad_sessions.to_string(),
                m.rd_sessions.to_string(),
                m.grid.clone(),
                fmt_opt(&m.cad_last_v6_ms),
                fmt_opt(&m.cad_first_v4_ms),
                fmt_opt(&m.cad_point_ms),
                m.cad_dynamic.to_string(),
                m.mixed_tiers.to_string(),
                m.rd_verdict.clone(),
                m.agreement.agrees.to_string(),
                deviations.to_string(),
            ];
            lazyeye_json::push_csv_row(out, &row);
        }
    }

    /// Human-readable summary: the Figure-4 grid, the conformance
    /// matrix, resolver checks and the agreement roll-up.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "fleet {:?}: seed {}, {} sessions, {} members ({} conditions)\n\n",
            self.name,
            self.seed,
            self.total_sessions,
            self.members.len(),
            self.conditions.len(),
        );

        // The App. Figure 4 grid: one row per member, one column per
        // tier. `6`/`4` clean, `m` mixed, `x` failed, `.` no data.
        let mut t = Table::new(
            "Figure 4 (web CAD grid: one column per tier, 0 ms - 5 s)",
            vec!["member", "cond", "grid", "bracket", "CAD", "RD"],
        );
        for m in &self.members {
            let bracket = match (m.cad_last_v6_ms, m.cad_first_v4_ms) {
                (Some(lo), Some(hi)) => format!("({lo}, {hi}]"),
                (Some(lo), None) => format!("({lo}, -"),
                (None, Some(hi)) => format!("(-, {hi}]"),
                (None, None) => "-".to_string(),
            };
            let cad = if m.cad_dynamic {
                "dynamic".to_string()
            } else {
                fmt_opt(&m.cad_point_ms)
            };
            t.row(vec![
                m.member.clone(),
                m.condition.clone(),
                m.grid.clone(),
                bracket,
                cad,
                m.rd_verdict.clone(),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');

        if let Some(first) = self.members.first() {
            let mut columns = vec!["member".to_string(), "cond".to_string()];
            columns.extend(first.conformance.iter().map(|e| e.feature.clone()));
            columns.push("agrees".to_string());
            let mut t = Table::new(
                "RFC 8305 conformance (measured vs known profile)",
                columns.iter().map(String::as_str).collect(),
            );
            for m in &self.members {
                let mut row = vec![m.member.clone(), m.condition.clone()];
                row.extend(m.conformance.iter().map(|e| {
                    match e.verdict {
                        Verdict::Conformant => "ok",
                        Verdict::Deviates => "DEV",
                        Verdict::Unmeasurable => "-",
                    }
                    .to_string()
                }));
                row.push(if m.agreement.agrees { "yes" } else { "NO" }.to_string());
                t.row(row);
            }
            out.push_str(&t.render());
            out.push('\n');
        }

        let mut t = Table::new(
            "Resolver checks (IPv6-only delegation)",
            vec!["stack", "runs", "capable", "AAAA 1st %", "verdict"],
        );
        for r in &self.resolver_checks {
            let verdict = r
                .conformance
                .iter()
                .find(|e| e.feature == "ipv6-only-delegation")
                .map(|e| e.render())
                .unwrap_or_else(|| "-".to_string());
            t.row(vec![
                r.stack.clone(),
                r.runs.to_string(),
                r.capable.to_string(),
                fmt_opt(&r.aaaa_first_share_pct),
                verdict,
            ]);
        }
        out.push_str(&t.render());

        let s = &self.summary;
        out.push_str(&format!(
            "\nfixed-CAD brackets: {}/{} contain the configured CAD; \
             dynamic CADs flagged: {}/{}; agreement: {}/{} members\n",
            s.fixed_cad_bracketed,
            s.fixed_cad_members,
            s.dynamic_cad_flagged,
            s.dynamic_cad_members,
            s.agreeing_members,
            s.members,
        ));
        if s.rd_a_members > 0 {
            out.push_str(&format!(
                "delayed-A stall probe: {} members measured; stalls match known quirks: {}\n",
                s.rd_a_members,
                if s.all_rd_a_stalls_match_known {
                    "yes"
                } else {
                    "NO"
                },
            ));
            for m in &self.members {
                if let Some(true) = m.rd_a_stall {
                    out.push_str(&format!(
                        "  stall {} [{}]: fetch times tracked the withheld A answer\n",
                        m.member, m.condition,
                    ));
                }
            }
        }
        for m in &self.members {
            for d in &m.agreement.deltas {
                out.push_str(&format!(
                    "  disagreement {} [{}] {}: known {} vs measured {}\n",
                    m.member, m.condition, d.field, d.old, d.new
                ));
            }
            if m.agreement.cad_bracket_contains_known == Some(false) {
                out.push_str(&format!(
                    "  bracket miss {} [{}]: ({}, {}] misses the configured CAD\n",
                    m.member,
                    m.condition,
                    fmt_opt(&m.cad_last_v6_ms),
                    fmt_opt(&m.cad_first_v4_ms),
                ));
            }
        }
        out
    }
}
