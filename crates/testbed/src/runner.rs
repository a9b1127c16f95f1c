//! Test runners: execute one case configuration across delays ×
//! repetitions with a fresh simulation per run (the paper's container
//! reset), and analyze captures into samples.
//!
//! Every single-run entry point has a `*_traced` sibling that additionally
//! emits a structured [`Trace`]: the client-side engine events merged with
//! the server-side query arrivals, ready for `lazyeye-infer`.

use std::net::IpAddr;

use lazyeye_authns::{DelayTarget, QueryLogEntry};
use lazyeye_clients::{Client, ClientProfile};
use lazyeye_net::{Family, Netem, NetemRule};
use lazyeye_resolver::{RecursiveConfig, RecursiveResolver, ResolverProfile};
use lazyeye_sim::SimTime;
use lazyeye_trace::{Trace, TraceEvent, TraceEventKind, TraceMeta};

use crate::cases::{
    CadCaseConfig, DelayedRecord, RdCaseConfig, ResolverCaseConfig, SelectionCaseConfig,
};
use crate::topology::{
    default_local_topology, resolver_addr, resolver_topology_for_delay, test_domain_topology, www,
};

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Domain-separation tag for CAD sweep seeds.
pub const CAD_SEED_TAG: u64 = 0x9E37_79B9_7F4A_7C15;
/// Domain-separation tag for RD sweep seeds.
pub const RD_SEED_TAG: u64 = 0x2545_F491_4F6C_DD1D;
/// Domain-separation tag for resolver sweep seeds.
pub const RESOLVER_SEED_TAG: u64 = 0xDA94_2042_E4DD_58B5;

/// Derives the seed of one `(delay, rep)` run in a sweep from the case
/// seed via SplitMix64 mixing.
///
/// The legacy packing `delay_ms * 1000 + rep` overflow-panicked in debug
/// builds for delays near `u64::MAX` and collided across `(delay, rep)`
/// pairs once repetitions reached 1000 (`(0 ms, rep 1000)` = `(1 ms,
/// rep 0)`). Mixing each word through SplitMix64 with wrapping arithmetic
/// only removes both failure modes.
pub fn derive_case_seed(seed: u64, case_tag: u64, delay_ms: u64, rep: u32) -> u64 {
    rand::mix_words(seed ^ case_tag, &[delay_ms, u64::from(rep)])
}

/// Median of an ascending-sorted slice, averaging the two middle elements
/// for even sizes. Taking `v[len / 2]` alone — the upper-middle element —
/// biased even-sized medians upward by up to one inter-sample gap.
fn median_of_sorted(v: &[f64]) -> Option<f64> {
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Server-side query arrivals as trace events (the wire-order vantage
/// point of Table 2's "AAAA first" and Table 3's family columns).
fn query_arrival_events(log: &[QueryLogEntry]) -> Vec<TraceEvent> {
    log.iter()
        .map(|e| TraceEvent {
            at_ns: e.time.as_nanos(),
            kind: TraceEventKind::QueryArrived {
                qtype: format!("{:?}", e.qtype).to_uppercase(),
                family: Family::of(e.src.ip()),
            },
        })
        .collect()
}

/// The open switchover bracket `(last_v6, first_v4)` of a sweep, when the
/// sweep detected one: the switchover lies strictly between the largest
/// delay won by IPv6 and the smallest delay at which IPv4 was used. The
/// campaign engine's second, fine pass sweeps inside this bracket.
pub fn switchover_bracket(
    last_v6_delay_ms: Option<u64>,
    first_v4_delay_ms: Option<u64>,
) -> Option<(u64, u64)> {
    match (last_v6_delay_ms, first_v4_delay_ms) {
        (Some(lo), Some(hi)) if lo < hi => Some((lo, hi)),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// CAD case
// ---------------------------------------------------------------------------

/// One CAD measurement run.
#[derive(Clone, Debug)]
pub struct CadSample {
    /// Configured IPv6 delay (ms).
    pub configured_delay_ms: u64,
    /// Repetition index.
    pub rep: u32,
    /// Family of the established connection (None = failed).
    pub family: Option<Family>,
    /// CAD from the client's packet capture: first IPv4 SYN − first IPv6
    /// SYN (the paper's §4.3 estimator). None when no fallback happened.
    pub observed_cad_ms: Option<f64>,
    /// Whether the AAAA query hit the DNS server before the A query
    /// (Table 2's "AAAA first"); `None` when either query never arrived.
    pub aaaa_first: Option<bool>,
}

/// Runs a single CAD measurement: one fresh simulation (the paper's
/// container reset), one configured IPv6 delay, one connection. Extra
/// netem rules model additional path conditions (loss, jitter) and apply
/// to the server egress alongside the configured IPv6 delay.
///
/// This is the campaign engine's CAD entry point; [`run_cad_case`] wraps
/// it for sweeps, [`run_cad_once_traced`] additionally emits the trace.
pub fn run_cad_once(
    profile: &ClientProfile,
    delay_ms: u64,
    rep: u32,
    seed: u64,
    extra_netem: &[NetemRule],
) -> CadSample {
    run_cad_once_impl(profile, delay_ms, rep, seed, extra_netem, None).0
}

/// [`run_cad_once`] plus the structured event trace of the run:
/// client-side engine events merged with server-side query arrivals.
/// `condition` labels the netem condition in the trace metadata.
pub fn run_cad_once_traced(
    profile: &ClientProfile,
    delay_ms: u64,
    rep: u32,
    seed: u64,
    extra_netem: &[NetemRule],
    condition: &str,
) -> (CadSample, Trace) {
    let (sample, trace, _log) =
        run_cad_once_impl(profile, delay_ms, rep, seed, extra_netem, Some(condition));
    (sample, trace.expect("trace requested"))
}

/// [`run_cad_once`] plus the raw engine event log — the fast-path
/// calibrator's ground truth for byte-equality verification.
pub(crate) fn run_cad_once_log(
    profile: &ClientProfile,
    delay_ms: u64,
    rep: u32,
    seed: u64,
) -> (CadSample, lazyeye_core::HeLog) {
    let (sample, _trace, log) = run_cad_once_impl(profile, delay_ms, rep, seed, &[], None);
    (sample, log)
}

/// The measurement itself; the trace (string-heavy event records) is only
/// materialised when a condition label is supplied — campaign sweeps call
/// the untraced entry point hundreds of thousands of times and used to
/// build and immediately discard every trace.
fn run_cad_once_impl(
    profile: &ClientProfile,
    delay_ms: u64,
    rep: u32,
    seed: u64,
    extra_netem: &[NetemRule],
    condition: Option<&str>,
) -> (CadSample, Option<Trace>, lazyeye_core::HeLog) {
    let mut topo = default_local_topology(seed);
    // The paper shapes IPv6 on the server side with tc-netem.
    topo.server
        .add_egress(NetemRule::family(Family::V6, Netem::delay_ms(delay_ms)));
    for rule in extra_netem {
        topo.server.add_egress(rule.clone());
    }
    // The observed CAD is read from the client's capture.
    topo.client.set_capture(true);
    let client = Client::new(profile.clone(), topo.client.clone(), vec![resolver_addr()]);
    let res = topo
        .sim
        .block_on(async move { client.connect_only(&www(), 80).await });
    let family = res.connection.as_ref().ok().map(|c| c.family());
    let observed_cad_ms = topo
        .client
        .capture()
        .connection_attempt_delay()
        .map(|d| d.as_secs_f64() * 1000.0);
    let log = topo.auth.query_log();
    let first_aaaa = log
        .iter()
        .position(|e| e.qtype == lazyeye_dns::RrType::Aaaa);
    let first_a = log.iter().position(|e| e.qtype == lazyeye_dns::RrType::A);
    let aaaa_first = match (first_aaaa, first_a) {
        (Some(x), Some(y)) => Some(x < y),
        _ => None,
    };
    let trace = condition.map(|condition| {
        let mut trace = Trace::from_he_log(
            TraceMeta {
                subject: profile.id(),
                case: "cad".to_string(),
                condition: condition.to_string(),
                configured_delay_ms: delay_ms,
                rep,
                seed,
            },
            &res.log,
        );
        trace.merge_events(query_arrival_events(&log));
        trace
    });
    let sample = CadSample {
        configured_delay_ms: delay_ms,
        rep,
        family,
        observed_cad_ms,
        aaaa_first,
    };
    (sample, trace, res.log)
}

/// Runs the CAD case for one client profile.
pub fn run_cad_case(profile: &ClientProfile, cfg: &CadCaseConfig, seed: u64) -> Vec<CadSample> {
    run_cad_case_traced(profile, cfg, seed).0
}

/// Counts one testbed case sweep in the metrics registry and opens a
/// wall-clock span over it when the span recorder is armed.
fn case_span(case: &'static str) -> Option<lazyeye_obs::trace::SpanGuard> {
    lazyeye_obs::counter("testbed.cases", lazyeye_obs::Clock::Virtual).inc();
    lazyeye_obs::trace::wall_span(format!("testbed.{case}"))
}

/// [`run_cad_case`] plus the trace set of every run in the sweep.
pub fn run_cad_case_traced(
    profile: &ClientProfile,
    cfg: &CadCaseConfig,
    seed: u64,
) -> (Vec<CadSample>, lazyeye_trace::TraceSet) {
    let _span = case_span("cad");
    let mut out = Vec::new();
    let mut traces = lazyeye_trace::TraceSet::default();
    for delay_ms in cfg.sweep.values() {
        for rep in 0..cfg.repetitions {
            let run_seed = derive_case_seed(seed, CAD_SEED_TAG, delay_ms, rep);
            let (sample, trace) =
                run_cad_once_traced(profile, delay_ms, rep, run_seed, &[], "baseline");
            out.push(sample);
            traces.push(trace);
        }
    }
    (out, traces)
}

/// Aggregate view of a CAD sweep (one Figure 2 row + the Table 2 columns).
#[derive(Clone, Debug, PartialEq)]
pub struct CadSummary {
    /// Largest configured delay at which IPv6 was still used.
    pub last_v6_delay_ms: Option<u64>,
    /// Smallest configured delay at which IPv4 was used.
    pub first_v4_delay_ms: Option<u64>,
    /// Median of capture-observed CADs (ms).
    pub measured_cad_ms: Option<f64>,
    /// Whether any fallback to IPv4 was observed at all (CAD implemented).
    pub implements_cad: bool,
    /// Whether every run established *some* connection.
    pub always_connected: bool,
}

impl CadSummary {
    /// The open switchover bracket `(last_v6, first_v4)`, when detected —
    /// see [`switchover_bracket`].
    pub fn switchover_bracket(&self) -> Option<(u64, u64)> {
        switchover_bracket(self.last_v6_delay_ms, self.first_v4_delay_ms)
    }
}

/// Summarises CAD samples.
pub fn summarize_cad(samples: &[CadSample]) -> CadSummary {
    let last_v6_delay_ms = samples
        .iter()
        .filter(|s| s.family == Some(Family::V6))
        .map(|s| s.configured_delay_ms)
        .max();
    let first_v4_delay_ms = samples
        .iter()
        .filter(|s| s.family == Some(Family::V4))
        .map(|s| s.configured_delay_ms)
        .min();
    let mut cads: Vec<f64> = samples.iter().filter_map(|s| s.observed_cad_ms).collect();
    cads.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let measured_cad_ms = median_of_sorted(&cads);
    CadSummary {
        last_v6_delay_ms,
        first_v4_delay_ms,
        measured_cad_ms,
        implements_cad: first_v4_delay_ms.is_some(),
        always_connected: samples.iter().all(|s| s.family.is_some()),
    }
}

// ---------------------------------------------------------------------------
// RD case
// ---------------------------------------------------------------------------

/// One Resolution Delay measurement run.
#[derive(Clone, Debug)]
pub struct RdSample {
    /// Configured DNS answer delay (ms).
    pub configured_delay_ms: u64,
    /// Repetition index.
    pub rep: u32,
    /// Established family.
    pub family: Option<Family>,
    /// When the first TCP SYN left the client (ms since run start) —
    /// the stall observable of §5.2.
    pub first_attempt_ms: Option<f64>,
    /// Whether the engine armed a Resolution Delay timer.
    pub used_rd: bool,
}

/// The canonical cell label of a delayed record type (also the trace
/// metadata condition).
pub fn delayed_record_label(delayed: DelayedRecord) -> &'static str {
    match delayed {
        DelayedRecord::Aaaa => "delayed-aaaa",
        DelayedRecord::A => "delayed-a",
    }
}

/// Runs a single Resolution-Delay measurement: one fresh simulation, one
/// delayed record type, one configured DNS answer delay.
///
/// This is the classic RD entry point; [`run_rd_case`] wraps it for
/// sweeps, [`run_rd_once_netem`] adds path conditions and
/// [`run_rd_once_traced`] additionally emits the trace.
pub fn run_rd_once(
    profile: &ClientProfile,
    delayed: DelayedRecord,
    delay_ms: u64,
    rep: u32,
    seed: u64,
) -> RdSample {
    run_rd_once_netem(profile, delayed, delay_ms, rep, seed, &[])
}

/// [`run_rd_once`] with extra netem rules on the server egress — the
/// campaign engine's RD entry point (netem is a cell axis there).
pub fn run_rd_once_netem(
    profile: &ClientProfile,
    delayed: DelayedRecord,
    delay_ms: u64,
    rep: u32,
    seed: u64,
    extra_netem: &[NetemRule],
) -> RdSample {
    run_rd_once_impl(profile, delayed, delay_ms, rep, seed, extra_netem, None).0
}

/// [`run_rd_once`] plus the raw engine event log — the fast-path
/// calibrator's ground truth for byte-equality verification.
pub(crate) fn run_rd_once_log(
    profile: &ClientProfile,
    delayed: DelayedRecord,
    delay_ms: u64,
    rep: u32,
    seed: u64,
) -> (RdSample, lazyeye_core::HeLog) {
    let (sample, _trace, log) = run_rd_once_impl(profile, delayed, delay_ms, rep, seed, &[], None);
    (sample, log)
}

/// [`run_rd_once_netem`] plus the structured event trace of the run.
pub fn run_rd_once_traced(
    profile: &ClientProfile,
    delayed: DelayedRecord,
    delay_ms: u64,
    rep: u32,
    seed: u64,
    extra_netem: &[NetemRule],
    condition: &str,
) -> (RdSample, Trace) {
    let (sample, trace, _log) = run_rd_once_impl(
        profile,
        delayed,
        delay_ms,
        rep,
        seed,
        extra_netem,
        Some(condition),
    );
    (sample, trace.expect("trace requested"))
}

/// The RD measurement; the trace is built only when a condition label is
/// supplied (see `run_cad_once_impl`).
fn run_rd_once_impl(
    profile: &ClientProfile,
    delayed: DelayedRecord,
    delay_ms: u64,
    rep: u32,
    seed: u64,
    extra_netem: &[NetemRule],
    condition: Option<&str>,
) -> (RdSample, Option<Trace>, lazyeye_core::HeLog) {
    let target = match delayed {
        DelayedRecord::Aaaa => DelayTarget::Aaaa,
        DelayedRecord::A => DelayTarget::A,
    };
    // Live addresses (the server host's own) — RD tests measure
    // connection timing, not fallback between dead addresses.
    let mut topo = test_domain_topology(
        seed,
        "rd.test",
        vec!["192.0.2.1".parse().unwrap()],
        vec!["2001:db8::1".parse().unwrap()],
    );
    for rule in extra_netem {
        topo.server.add_egress(rule.clone());
    }
    // The first connection attempt is read from the client's capture.
    topo.client.set_capture(true);
    let params = lazyeye_authns::TestParams::delay(delay_ms, target, format!("r{rep}"));
    let qname = lazyeye_dns::Name::parse(&format!("{}.rd.test", params.to_label())).unwrap();
    let client = Client::new(profile.clone(), topo.client.clone(), vec![resolver_addr()]);
    let res = topo
        .sim
        .block_on(async move { client.connect_only(&qname, 80).await });
    let family = res.connection.as_ref().ok().map(|c| c.family());
    let capture = topo.client.capture();
    let first_attempt_ms = capture
        .first_syn(Family::V6)
        .into_iter()
        .chain(capture.first_syn(Family::V4))
        .min()
        .map(|t: SimTime| t.as_nanos() as f64 / 1e6);
    let trace = condition.map(|condition| {
        let mut trace = Trace::from_he_log(
            TraceMeta {
                subject: profile.id(),
                case: "rd".to_string(),
                condition: condition.to_string(),
                configured_delay_ms: delay_ms,
                rep,
                seed,
            },
            &res.log,
        );
        trace.merge_events(query_arrival_events(&topo.auth.query_log()));
        trace
    });
    let used_rd = res.log.used_resolution_delay();
    let sample = RdSample {
        configured_delay_ms: delay_ms,
        rep,
        family,
        first_attempt_ms,
        used_rd,
    };
    (sample, trace, res.log)
}

/// Runs the RD case (delaying AAAA or A per config) for one client.
pub fn run_rd_case(profile: &ClientProfile, cfg: &RdCaseConfig, seed: u64) -> Vec<RdSample> {
    run_rd_case_traced(profile, cfg, seed).0
}

/// [`run_rd_case`] plus the trace set of every run in the sweep.
pub fn run_rd_case_traced(
    profile: &ClientProfile,
    cfg: &RdCaseConfig,
    seed: u64,
) -> (Vec<RdSample>, lazyeye_trace::TraceSet) {
    let _span = case_span("rd");
    let mut out = Vec::new();
    let mut traces = lazyeye_trace::TraceSet::default();
    for delay_ms in cfg.sweep.values() {
        for rep in 0..cfg.repetitions {
            let run_seed = derive_case_seed(seed, RD_SEED_TAG, delay_ms, rep);
            let (sample, trace) = run_rd_once_traced(
                profile,
                cfg.delayed,
                delay_ms,
                rep,
                run_seed,
                &[],
                delayed_record_label(cfg.delayed),
            );
            out.push(sample);
            traces.push(trace);
        }
    }
    (out, traces)
}

/// Aggregate view of an RD sweep.
#[derive(Clone, Debug)]
pub struct RdSummary {
    /// Whether any run armed the RD timer (Table 2 "RD Impl.").
    pub implements_rd: bool,
    /// Largest delay at which the client still connected via IPv6.
    pub last_v6_delay_ms: Option<u64>,
    /// Median first-SYN time at the largest configured delay (ms) — large
    /// values expose the "waits for the A answer" stall.
    pub stall_at_max_delay_ms: Option<f64>,
}

/// Summarises RD samples.
pub fn summarize_rd(samples: &[RdSample]) -> RdSummary {
    let implements_rd = samples.iter().any(|s| s.used_rd);
    let last_v6_delay_ms = samples
        .iter()
        .filter(|s| s.family == Some(Family::V6))
        .map(|s| s.configured_delay_ms)
        .max();
    let max_delay = samples.iter().map(|s| s.configured_delay_ms).max();
    let stall_at_max_delay_ms = max_delay.and_then(|d| {
        let mut v: Vec<f64> = samples
            .iter()
            .filter(|s| s.configured_delay_ms == d)
            .filter_map(|s| s.first_attempt_ms)
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        median_of_sorted(&v)
    });
    RdSummary {
        implements_rd,
        last_v6_delay_ms,
        stall_at_max_delay_ms,
    }
}

// ---------------------------------------------------------------------------
// Address-selection case
// ---------------------------------------------------------------------------

/// Result of an address-selection run: the family of each distinct
/// connection attempt, in order (one Figure 5 row).
#[derive(Clone, Debug)]
pub struct SelectionResult {
    /// Attempt families in order.
    pub order: Vec<Family>,
    /// Distinct IPv6 addresses attempted (Table 2 "IPv6 Addrs. Used").
    pub v6_used: usize,
    /// Distinct IPv4 addresses attempted (Table 2 "IPv4 Addrs. Used").
    pub v4_used: usize,
}

/// Runs the selection case: N dead addresses per family, watch the order.
pub fn run_selection_case(
    profile: &ClientProfile,
    cfg: &SelectionCaseConfig,
    seed: u64,
) -> SelectionResult {
    let _span = case_span("selection");
    run_selection_once_impl(profile, cfg, 0, seed, &[], None).0
}

/// [`run_selection_case`] with extra netem rules on the server egress —
/// the campaign engine's selection entry point (netem is a cell axis).
pub fn run_selection_once_netem(
    profile: &ClientProfile,
    cfg: &SelectionCaseConfig,
    seed: u64,
    extra_netem: &[NetemRule],
) -> SelectionResult {
    run_selection_once_impl(profile, cfg, 0, seed, extra_netem, None).0
}

/// [`run_selection_case`] plus the structured event trace of the run.
pub fn run_selection_once_traced(
    profile: &ClientProfile,
    cfg: &SelectionCaseConfig,
    rep: u32,
    seed: u64,
    extra_netem: &[NetemRule],
    condition: &str,
) -> (SelectionResult, Trace) {
    let (result, trace) =
        run_selection_once_impl(profile, cfg, rep, seed, extra_netem, Some(condition));
    (result, trace.expect("trace requested"))
}

/// The selection measurement; the trace is built only when a condition
/// label is supplied (see `run_cad_once_impl`).
fn run_selection_once_impl(
    profile: &ClientProfile,
    cfg: &SelectionCaseConfig,
    rep: u32,
    seed: u64,
    extra_netem: &[NetemRule],
    condition: Option<&str>,
) -> (SelectionResult, Option<Trace>) {
    let dead_v4: Vec<std::net::Ipv4Addr> = (1..=cfg.v4_addresses)
        .map(|i| format!("203.0.113.{i}").parse().unwrap())
        .collect();
    let dead_v6: Vec<std::net::Ipv6Addr> = (1..=cfg.v6_addresses)
        .map(|i| format!("2001:db8:dead::{i}").parse().unwrap())
        .collect();
    let mut topo = test_domain_topology(seed, "sel.test", dead_v4, dead_v6);
    for rule in extra_netem {
        topo.server.add_egress(rule.clone());
    }
    let mut client_profile = profile.clone();
    client_profile.he.attempt_timeout = std::time::Duration::from_millis(cfg.attempt_timeout_ms);
    client_profile.he.overall_deadline = std::time::Duration::from_secs(300);
    let qname = lazyeye_dns::Name::parse("d0-tnone-nsel.sel.test").unwrap();
    let client = Client::new(client_profile, topo.client.clone(), vec![resolver_addr()]);
    let res = topo
        .sim
        .block_on(async move { client.connect_only(&qname, 80).await });
    let trace = condition.map(|condition| {
        let mut trace = Trace::from_he_log(
            TraceMeta {
                subject: profile.id(),
                case: "selection".to_string(),
                condition: condition.to_string(),
                configured_delay_ms: 0,
                rep,
                seed,
            },
            &res.log,
        );
        trace.merge_events(query_arrival_events(&topo.auth.query_log()));
        trace
    });
    let result = SelectionResult {
        order: res.log.attempt_families(),
        v6_used: res.log.addrs_used(Family::V6),
        v4_used: res.log.addrs_used(Family::V4),
    };
    (result, trace)
}

// ---------------------------------------------------------------------------
// Resolver case
// ---------------------------------------------------------------------------

/// One resolver run against a shaped authoritative server.
#[derive(Clone, Debug)]
pub struct ResolverSample {
    /// Configured IPv6-path delay (ms).
    pub configured_delay_ms: u64,
    /// Repetition index.
    pub rep: u32,
    /// Family of the first query the auth server received.
    pub first_query_family: Option<Family>,
    /// Number of IPv6 queries the auth server received.
    pub v6_packets: usize,
    /// Observed resolver CAD at the auth server: first v4 query − first v6
    /// query (ms), when both happened.
    pub observed_cad_ms: Option<f64>,
    /// Gap between the first two IPv6 queries (ms) — the per-try timeout
    /// of retrying resolvers (Unbound's 376 ms, Yandex's 300 ms).
    pub v6_retry_gap_ms: Option<f64>,
    /// Whether the resolution ultimately succeeded.
    pub resolved: bool,
    /// Whether the *answer used* came over IPv6 (the v6 exchange
    /// completed before any fallback).
    pub served_over_v6: bool,
}

/// Runs a single resolver measurement: one fresh simulation with a
/// per-run unique zone (served from the `(tag, delay)` zone cache), one
/// configured IPv6-path delay towards the authoritative NS.
///
/// [`run_resolver_case`] wraps it for sweeps, [`run_resolver_once_netem`]
/// adds path conditions and [`run_resolver_once_traced`] additionally
/// emits the trace.
pub fn run_resolver_once(
    rprofile: &ResolverProfile,
    delay_ms: u64,
    rep: u32,
    seed: u64,
) -> ResolverSample {
    run_resolver_once_netem(rprofile, delay_ms, rep, seed, &[])
}

/// [`run_resolver_once`] with extra netem rules on the authoritative
/// server's egress — the campaign engine's resolver entry point.
pub fn run_resolver_once_netem(
    rprofile: &ResolverProfile,
    delay_ms: u64,
    rep: u32,
    seed: u64,
    extra_netem: &[NetemRule],
) -> ResolverSample {
    run_resolver_once_impl(rprofile, delay_ms, rep, seed, extra_netem, None).0
}

/// [`run_resolver_once_netem`] plus the server-side event trace of the
/// run (query arrivals at the authoritative NS).
pub fn run_resolver_once_traced(
    rprofile: &ResolverProfile,
    delay_ms: u64,
    rep: u32,
    seed: u64,
    extra_netem: &[NetemRule],
    condition: &str,
) -> (ResolverSample, Trace) {
    let (sample, trace) =
        run_resolver_once_impl(rprofile, delay_ms, rep, seed, extra_netem, Some(condition));
    (sample, trace.expect("trace requested"))
}

/// The resolver measurement; the trace is built only when a condition
/// label is supplied (see `run_cad_once_impl`).
fn run_resolver_once_impl(
    rprofile: &ResolverProfile,
    delay_ms: u64,
    rep: u32,
    seed: u64,
    extra_netem: &[NetemRule],
    condition: Option<&str>,
) -> (ResolverSample, Option<Trace>) {
    let tag = format!("d{delay_ms}r{rep}");
    let mut topo = resolver_topology_for_delay(seed, &tag, delay_ms);
    // Shape the auth NS's IPv6 responses (the paper applies the
    // shaping to the name server's addresses).
    topo.auth
        .add_egress(NetemRule::family(Family::V6, Netem::delay_ms(delay_ms)));
    for rule in extra_netem {
        topo.auth.add_egress(rule.clone());
    }
    // The server-side observation below reads the auth NS's capture.
    topo.auth.set_capture(true);
    let mut rcfg = RecursiveConfig::new(topo.roots.clone());
    rcfg.policy = rprofile.policy.clone();
    let resolver = RecursiveResolver::new(topo.resolver_host.clone(), rcfg);
    let qname = topo.qname.clone();
    let resolved = topo.sim.block_on(async move {
        resolver
            .resolve(&qname, lazyeye_dns::RrType::A)
            .await
            .map(|r| !r.records.is_empty())
            .unwrap_or(false)
    });

    // Server-side observation (the paper's Table 3 vantage point).
    let cap = topo.auth.capture();
    let mut v6_queries: Vec<SimTime> = Vec::new();
    let mut v4_queries: Vec<SimTime> = Vec::new();
    for r in cap.udp_rx() {
        match r.family() {
            Family::V6 => v6_queries.push(r.time),
            Family::V4 => v4_queries.push(r.time),
        }
    }
    // Capture order is arrival order, which breaks same-instant
    // ties correctly (parallel resolvers send both queries in the
    // same tick).
    let first_query_family = cap.udp_rx().next().map(|r| r.family());
    let observed_cad_ms = match (v6_queries.first(), v4_queries.first()) {
        (Some(a), Some(b)) if b > a => Some(b.saturating_duration_since(*a).as_secs_f64() * 1000.0),
        _ => None,
    };
    let v6_retry_gap_ms = if v6_queries.len() >= 2 {
        Some(
            v6_queries[1]
                .saturating_duration_since(v6_queries[0])
                .as_secs_f64()
                * 1000.0,
        )
    } else {
        None
    };
    let served_over_v6 =
        resolved && first_query_family == Some(Family::V6) && v4_queries.is_empty();
    let trace = condition.map(|condition| Trace {
        meta: TraceMeta {
            subject: rprofile.name.to_string(),
            case: "resolver".to_string(),
            condition: condition.to_string(),
            configured_delay_ms: delay_ms,
            rep,
            seed,
        },
        events: query_arrival_events(&topo.auth_server.query_log()),
    });
    let sample = ResolverSample {
        configured_delay_ms: delay_ms,
        rep,
        first_query_family,
        v6_packets: v6_queries.len(),
        observed_cad_ms,
        v6_retry_gap_ms,
        resolved,
        served_over_v6,
    };
    (sample, trace)
}

/// Runs the resolver case for one resolver profile.
pub fn run_resolver_case(
    rprofile: &ResolverProfile,
    cfg: &ResolverCaseConfig,
    seed: u64,
) -> Vec<ResolverSample> {
    run_resolver_case_traced(rprofile, cfg, seed).0
}

/// [`run_resolver_case`] plus the trace set of every run in the sweep.
pub fn run_resolver_case_traced(
    rprofile: &ResolverProfile,
    cfg: &ResolverCaseConfig,
    seed: u64,
) -> (Vec<ResolverSample>, lazyeye_trace::TraceSet) {
    let _span = case_span("resolver");
    let mut out = Vec::new();
    let mut traces = lazyeye_trace::TraceSet::default();
    for delay_ms in cfg.sweep.values() {
        for rep in 0..cfg.repetitions {
            let run_seed = derive_case_seed(seed, RESOLVER_SEED_TAG, delay_ms, rep);
            let (sample, trace) =
                run_resolver_once_traced(rprofile, delay_ms, rep, run_seed, &[], "-");
            out.push(sample);
            traces.push(trace);
        }
    }
    (out, traces)
}

/// Aggregate resolver statistics — one row of the paper's Table 3.
#[derive(Clone, Debug)]
pub struct ResolverStats {
    /// Share of runs whose first auth query used IPv6 (%), measured at the
    /// *smallest* configured delay in the sweep (pure preference when the
    /// sweep includes delay 0). `None` when the sweep produced no samples
    /// at all — previously this collapsed to `0.0`, indistinguishable
    /// from a resolver that genuinely never prefers IPv6.
    pub v6_share_pct: Option<f64>,
    /// Largest configured delay at which resolution was still served over
    /// IPv6 (the "Max. IPv6 Delay Used" column).
    pub max_v6_delay_ms: Option<u64>,
    /// Median observed per-try timeout (ms): the gap between consecutive
    /// IPv6 retries when the resolver retries, otherwise first-v4 −
    /// first-v6 — the paper's per-resolver delay column.
    pub observed_cad_ms: Option<f64>,
    /// Maximum number of IPv6 queries in one resolution ("# IPv6 Packets").
    pub max_v6_packets: usize,
    /// Share of runs that resolved at all.
    pub success_pct: f64,
}

/// Summarises resolver samples.
pub fn summarize_resolver(samples: &[ResolverSample]) -> ResolverStats {
    let min_delay = samples.iter().map(|s| s.configured_delay_ms).min();
    let v6_share_pct = min_delay.map(|d| {
        let at_min: Vec<&ResolverSample> = samples
            .iter()
            .filter(|s| s.configured_delay_ms == d)
            .collect();
        100.0
            * at_min
                .iter()
                .filter(|s| s.first_query_family == Some(Family::V6))
                .count() as f64
            / at_min.len() as f64
    });
    let max_v6_delay_ms = samples
        .iter()
        .filter(|s| s.served_over_v6)
        .map(|s| s.configured_delay_ms)
        .max();
    // Per-try timeout: prefer retry gaps (retrying resolvers), fall back
    // to the v6→v4 switch time.
    let mut cads: Vec<f64> = samples.iter().filter_map(|s| s.v6_retry_gap_ms).collect();
    if cads.is_empty() {
        cads = samples.iter().filter_map(|s| s.observed_cad_ms).collect();
    }
    cads.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let observed_cad_ms = median_of_sorted(&cads);
    ResolverStats {
        v6_share_pct,
        max_v6_delay_ms,
        observed_cad_ms,
        max_v6_packets: samples.iter().map(|s| s.v6_packets).max().unwrap_or(0),
        success_pct: 100.0 * samples.iter().filter(|s| s.resolved).count() as f64
            / samples.len().max(1) as f64,
    }
}

/// Tracks which IP addresses the samples used — exposed for tests.
pub fn distinct_families(order: &[Family]) -> (usize, usize) {
    (
        order.iter().filter(|f| **f == Family::V6).count(),
        order.iter().filter(|f| **f == Family::V4).count(),
    )
}

/// Helper for tests that need an address list.
pub fn dead_addr(i: usize) -> IpAddr {
    format!("203.0.113.{i}").parse().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cad_sample(delay_ms: u64, cad: Option<f64>) -> CadSample {
        CadSample {
            configured_delay_ms: delay_ms,
            rep: 0,
            family: Some(Family::V4),
            observed_cad_ms: cad,
            aaaa_first: None,
        }
    }

    fn resolver_sample(delay_ms: u64, v6_first: bool) -> ResolverSample {
        ResolverSample {
            configured_delay_ms: delay_ms,
            rep: 0,
            first_query_family: Some(if v6_first { Family::V6 } else { Family::V4 }),
            v6_packets: 1,
            observed_cad_ms: None,
            v6_retry_gap_ms: None,
            resolved: true,
            served_over_v6: v6_first,
        }
    }

    #[test]
    fn median_averages_even_sample_counts() {
        // Odd count: the middle element, exactly.
        let odd: Vec<CadSample> = [100.0, 200.0, 300.0]
            .iter()
            .map(|&c| cad_sample(0, Some(c)))
            .collect();
        assert_eq!(summarize_cad(&odd).measured_cad_ms, Some(200.0));

        // Even count: the average of the two middle elements — the old
        // upper-middle pick reported 300 here, biased a full gap upward.
        let even: Vec<CadSample> = [100.0, 200.0, 300.0, 400.0]
            .iter()
            .map(|&c| cad_sample(0, Some(c)))
            .collect();
        assert_eq!(summarize_cad(&even).measured_cad_ms, Some(250.0));

        // Two samples: plain midpoint.
        let two: Vec<CadSample> = [100.0, 200.0]
            .iter()
            .map(|&c| cad_sample(0, Some(c)))
            .collect();
        assert_eq!(summarize_cad(&two).measured_cad_ms, Some(150.0));
    }

    #[test]
    fn rd_stall_median_averages_even_counts() {
        let sample = |stall: f64| RdSample {
            configured_delay_ms: 400,
            rep: 0,
            family: Some(Family::V6),
            first_attempt_ms: Some(stall),
            used_rd: false,
        };
        let samples: Vec<RdSample> = [10.0, 20.0, 30.0, 40.0]
            .iter()
            .map(|&s| sample(s))
            .collect();
        assert_eq!(summarize_rd(&samples).stall_at_max_delay_ms, Some(25.0));
    }

    #[test]
    fn resolver_share_is_none_without_samples_and_measured_at_min_delay() {
        // No samples at all: absent, not a fake 0.0.
        assert_eq!(summarize_resolver(&[]).v6_share_pct, None);

        // Sweep without a zero-delay cell: the share comes from the
        // smallest configured delay instead of silently reporting 0.0.
        let samples = vec![
            resolver_sample(200, true),
            resolver_sample(200, true),
            resolver_sample(400, false),
        ];
        assert_eq!(summarize_resolver(&samples).v6_share_pct, Some(100.0));

        // A genuine never-IPv6 resolver still reads 0.0 — now
        // distinguishable from the no-data case.
        let never = vec![resolver_sample(0, false), resolver_sample(0, false)];
        assert_eq!(summarize_resolver(&never).v6_share_pct, Some(0.0));

        // Even-sized CAD lists are averaged here too.
        let mut gaps = vec![resolver_sample(0, true), resolver_sample(0, true)];
        gaps[0].v6_retry_gap_ms = Some(100.0);
        gaps[1].v6_retry_gap_ms = Some(300.0);
        assert_eq!(summarize_resolver(&gaps).observed_cad_ms, Some(200.0));
    }

    #[test]
    fn case_seed_mixing_has_no_overflow_and_no_collisions() {
        // The legacy packing panicked in debug builds on delay_ms * 1000
        // overflow; the SplitMix64 mix must not.
        let _ = derive_case_seed(7, CAD_SEED_TAG, u64::MAX, u32::MAX);

        // The legacy packing collided: (0 ms, rep 1000) == (1 ms, rep 0).
        let mut seen = std::collections::BTreeSet::new();
        for delay_ms in [0u64, 1, 2, 5, 200, 1000, 100_000, u64::MAX / 1000] {
            for rep in [0u32, 1, 2, 999, 1000, 1001, 50_000] {
                assert!(
                    seen.insert(derive_case_seed(42, CAD_SEED_TAG, delay_ms, rep)),
                    "seed collision at ({delay_ms}, {rep})"
                );
            }
        }
        // Case tags separate the sweeps even for identical (delay, rep).
        assert_ne!(
            derive_case_seed(42, CAD_SEED_TAG, 100, 0),
            derive_case_seed(42, RD_SEED_TAG, 100, 0)
        );
        assert_ne!(
            derive_case_seed(42, RD_SEED_TAG, 100, 0),
            derive_case_seed(42, RESOLVER_SEED_TAG, 100, 0)
        );
    }

    #[test]
    fn switchover_bracket_requires_both_ends_in_order() {
        assert_eq!(switchover_bracket(Some(200), Some(300)), Some((200, 300)));
        assert_eq!(switchover_bracket(Some(300), Some(300)), None);
        assert_eq!(switchover_bracket(Some(300), Some(200)), None);
        assert_eq!(switchover_bracket(None, Some(300)), None);
        assert_eq!(switchover_bracket(Some(200), None), None);
        let summary = summarize_cad(&[cad_sample(300, None)]);
        assert_eq!(summary.switchover_bracket(), None, "v4-only sweep");
    }
}
