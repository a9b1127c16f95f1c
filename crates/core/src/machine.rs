//! The sans-IO Happy Eyeballs state machine.
//!
//! [`HeMachine`] is the pure protocol core: it owns no clock, no sockets,
//! no RNG and no shared-interior-mutability state. Drivers feed it
//! [`Input`]s (DNS answers, connect results, timer fires) together with
//! the current virtual time, and drain [`Output`]s (queries to send,
//! attempts to start, timers to arm, history updates to apply, trace
//! events to record, and the final establishment/failure). What to wait
//! for next is exposed via [`HeMachine::waiting`].
//!
//! Two drivers ship in this workspace:
//!
//! * the **sim driver** ([`crate::HappyEyeballs`]) runs the machine over
//!   the packet simulator and reproduces the legacy engine's `HeLog`
//!   byte for byte (including its scheduler-visible combinator
//!   structure, which the golden BENCH counters pin);
//! * the **fast-path driver** ([`crate::fastpath`]) drives the machine
//!   as a pure function from an analytically-computed event timeline,
//!   skipping packet simulation for statically-known sweep topologies.
//!
//! Timing policy that inherently lives outside the core — the Connection
//! Attempt Delay, which may consult RTT history and (for Safari-style
//! dynamic CAD) a random spread — is injected: the machine asks for it
//! via [`Waiting::Cad`] and receives it as [`Input::Cad`].

use std::collections::VecDeque;
use std::net::IpAddr;
use std::time::Duration;

use lazyeye_dns::{RData, RrType};
use lazyeye_net::Family;
use lazyeye_resolver::{AnswerOutcome, DnsAnswer};
use lazyeye_sim::SimTime;

use crate::event::{HeEvent, HeEventKind};
use crate::params::HeConfig;
use crate::select::{expand_protocols, interlace, Candidate, CandidateProto};

/// Why a Happy Eyeballs connect failed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HeError {
    /// DNS produced no usable addresses.
    NoAddresses,
    /// Every connection attempt failed.
    AllAttemptsFailed,
    /// The overall deadline expired.
    Deadline,
}

impl std::fmt::Display for HeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HeError::NoAddresses => "name resolution yielded no addresses",
            HeError::AllAttemptsFailed => "all connection attempts failed",
            HeError::Deadline => "overall deadline exceeded",
        };
        f.write_str(s)
    }
}
impl std::error::Error for HeError {}

/// An event fed into the machine by a driver.
#[derive(Clone, Debug)]
pub enum Input {
    /// Begin the procedure. `cached` is the RFC 6555 §4.2 remembered
    /// winner, looked up by the driver (the outcome cache is driver-side
    /// state).
    Start {
        /// Cached winning address for this name, if still fresh.
        cached: Option<IpAddr>,
    },
    /// Result of the direct attempt to the cached address.
    CachedResult {
        /// Whether the handshake completed.
        ok: bool,
    },
    /// The Connection Attempt Delay for the pending [`Waiting::Cad`]
    /// request, computed by the driver (history + optional spread).
    Cad(Duration),
    /// A DNS answer from the streaming resolver channel; `None` means
    /// the channel closed (every query reached a terminal state).
    Dns(Option<DnsAnswer>),
    /// The armed timer fired (Resolution Delay or CAD stagger,
    /// whichever the machine is waiting on).
    Timer,
    /// A connection attempt completed.
    AttemptResult {
        /// Attempt index (as given in [`Output::StartAttempt`]).
        index: usize,
        /// Handshake RTT on success, error label on failure.
        result: Result<Duration, &'static str>,
    },
    /// The attempt-result channel closed with no winner.
    AttemptsClosed,
    /// The overall deadline expired.
    DeadlineExpired,
}

/// An effect or fact the machine asks the driver to act on.
#[derive(Clone, Debug)]
pub enum Output {
    /// Record a trace event (already timestamped: DNS answers carry
    /// their arrival time, everything else the `now` of the input).
    Trace(HeEvent),
    /// Send one DNS query. Emitted once per configured record type;
    /// drivers with a batching stub resolver may treat the first as
    /// "resolve everything" and ignore the rest.
    SendQuery {
        /// Record type to query.
        qtype: RrType,
    },
    /// Start a connection attempt to `candidate`.
    StartAttempt {
        /// Attempt index (echoed back in [`Input::AttemptResult`]).
        index: usize,
        /// Address + transport to try.
        candidate: Candidate,
    },
    /// Ensure a timer fires at the given instant (never in the past:
    /// overdue deadlines are clamped to the `now` of the arming input,
    /// i.e. "fire as soon as possible").
    ArmTimer(SimTime),
    /// Record a handshake RTT sample into connection history.
    RecordRtt {
        /// Destination that completed.
        addr: IpAddr,
        /// Measured handshake RTT.
        rtt: Duration,
    },
    /// Cache `addr` as this name's winner (RFC 6555 §4.2).
    RecordOutcome {
        /// Winning address.
        addr: IpAddr,
    },
    /// Drop the cached winner (it failed to connect).
    InvalidateOutcome,
    /// The procedure succeeded; the driver holds the winning connection.
    Established {
        /// Winning address.
        addr: IpAddr,
        /// Winning family.
        family: Family,
        /// Winning transport.
        proto: CandidateProto,
    },
    /// The procedure failed.
    Failed(HeError),
}

/// What the machine is waiting for — the driver's cue for which I/O (or
/// synchronous answer) to perform next.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Waiting {
    /// Not started: feed [`Input::Start`].
    Start,
    /// Attempt the cached address directly, then feed
    /// [`Input::CachedResult`].
    CachedAttempt {
        /// The remembered address.
        addr: IpAddr,
    },
    /// Compute the Connection Attempt Delay for `dst` (the most recently
    /// started attempt) and feed [`Input::Cad`].
    Cad {
        /// Anchor destination for history-based CAD, if any.
        dst: Option<IpAddr>,
    },
    /// Wait for the next DNS answer only.
    Dns,
    /// Wait for a DNS answer or the Resolution Delay timer.
    DnsOrTimer {
        /// Absolute RD expiry.
        deadline: SimTime,
    },
    /// Racing: wait for an attempt result, plus the CAD stagger timer
    /// (when more candidates remain) and/or DNS answers (while the
    /// resolver channel is open).
    Race {
        /// Absolute start time of the next staggered attempt; `None`
        /// when every candidate has been started.
        next_start: Option<SimTime>,
        /// Whether the DNS channel may still produce events.
        dns_open: bool,
    },
    /// Terminal: [`Output::Established`] or [`Output::Failed`] was
    /// emitted.
    Done,
}

/// Addresses gathered from DNS answers so far.
#[derive(Default)]
struct Gathered {
    v6: Vec<IpAddr>,
    v4: Vec<IpAddr>,
    h3: bool,
    ech: bool,
    pending: usize,
}

impl Gathered {
    fn ingest(&mut self, ans: &DnsAnswer, out: &mut VecDeque<Output>) {
        self.pending = self.pending.saturating_sub(1);
        let outcome = match ans.outcome {
            AnswerOutcome::Ok => "ok",
            AnswerOutcome::NxDomain => "nxdomain",
            AnswerOutcome::ServFail => "servfail",
            AnswerOutcome::Timeout => "timeout",
        };
        out.push_back(Output::Trace(HeEvent {
            at: ans.at,
            kind: HeEventKind::DnsAnswer {
                qtype: ans.qtype,
                records: ans.records.len(),
                outcome,
            },
        }));
        for r in &ans.records {
            match &r.rdata {
                RData::Aaaa(a) => self.v6.push(IpAddr::V6(*a)),
                RData::A(a) => self.v4.push(IpAddr::V4(*a)),
                RData::Https(p) | RData::Svcb(p) => {
                    self.h3 |= p.supports_h3();
                    self.ech |= p.has_ech();
                    for a in p.ipv6_hints() {
                        self.v6.push(IpAddr::V6(a));
                    }
                    for a in p.ipv4_hints() {
                        self.v4.push(IpAddr::V4(a));
                    }
                }
                _ => {}
            }
        }
        dedup_preserving_order(&mut self.v6);
        dedup_preserving_order(&mut self.v4);
    }

    fn has_any(&self) -> bool {
        !self.v6.is_empty() || !self.v4.is_empty()
    }

    fn has_family(&self, f: Family) -> bool {
        match f {
            Family::V6 => !self.v6.is_empty(),
            Family::V4 => !self.v4.is_empty(),
        }
    }
}

/// Drops repeated addresses, keeping first occurrences in order. A
/// linear scan: a family carries one or two addresses, where hashing
/// costs more than comparing.
fn dedup_preserving_order(v: &mut Vec<IpAddr>) {
    let mut kept = 0;
    for i in 0..v.len() {
        if !v[..kept].contains(&v[i]) {
            v.swap(kept, i);
            kept += 1;
        }
    }
    v.truncate(kept);
}

#[derive(Copy, Clone)]
enum Phase {
    Idle,
    Cached {
        addr: IpAddr,
    },
    /// `wait_for_all_answers` quirk: drain every lookup before
    /// connecting (the §5.2 stall).
    WaitAll,
    /// RFC 8305 §3 resolution: waiting for any answer.
    ResOuter,
    /// Resolution Delay armed; waiting for AAAA or expiry.
    ResRd {
        rd_deadline: SimTime,
    },
    /// Racing loop head: CAD requested from the driver.
    RaceCad,
    /// Racing: waiting on results / stagger timer / late answers.
    RaceWait {
        next_start: Option<SimTime>,
    },
    Done,
}

/// The pure Happy Eyeballs state machine. See the module docs.
pub struct HeMachine {
    cfg: HeConfig,
    qtypes: Vec<RrType>,
    deadline: SimTime,
    gathered: Gathered,
    candidates: Vec<Candidate>,
    next: usize,
    failures: usize,
    dns_done: bool,
    last_attempt_at: SimTime,
    phase: Phase,
    out: VecDeque<Output>,
}

impl HeMachine {
    /// Creates a machine for one connect procedure. `qtypes` is the
    /// resolver's configured query set (in log order) and `deadline` the
    /// absolute overall deadline.
    pub fn new(cfg: HeConfig, qtypes: Vec<RrType>, deadline: SimTime) -> HeMachine {
        HeMachine {
            cfg,
            qtypes,
            deadline,
            gathered: Gathered::default(),
            candidates: Vec::new(),
            next: 0,
            failures: 0,
            dns_done: false,
            last_attempt_at: SimTime::ZERO,
            phase: Phase::Idle,
            out: VecDeque::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &HeConfig {
        &self.cfg
    }

    /// What the machine needs next.
    pub fn waiting(&self) -> Waiting {
        match self.phase {
            Phase::Idle => Waiting::Start,
            Phase::Cached { addr } => Waiting::CachedAttempt { addr },
            Phase::WaitAll | Phase::ResOuter => Waiting::Dns,
            Phase::ResRd { rd_deadline } => Waiting::DnsOrTimer {
                deadline: rd_deadline,
            },
            Phase::RaceCad => Waiting::Cad {
                dst: self
                    .candidates
                    .get(self.next.saturating_sub(1))
                    .map(|c| c.addr),
            },
            Phase::RaceWait { next_start } => Waiting::Race {
                next_start,
                dns_open: !self.dns_done,
            },
            Phase::Done => Waiting::Done,
        }
    }

    /// Whether the procedure reached a terminal state.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Feeds one input at virtual time `now` and returns the resulting
    /// outputs, in order. Inputs that do not match the current
    /// [`Waiting`] state are ignored (stale timer fires and the like).
    pub fn process(&mut self, input: Input, now: SimTime) -> impl Iterator<Item = Output> + '_ {
        self.step(input, now);
        self.out.drain(..)
    }

    fn trace(&mut self, at: SimTime, kind: HeEventKind) {
        self.out.push_back(Output::Trace(HeEvent { at, kind }));
    }

    fn step(&mut self, input: Input, now: SimTime) {
        // The overall deadline cuts through every phase.
        if let Input::DeadlineExpired = input {
            if !self.is_done() {
                self.trace(now, HeEventKind::Failed { reason: "deadline" });
                self.out.push_back(Output::Failed(HeError::Deadline));
                self.phase = Phase::Done;
            }
            return;
        }
        match self.phase {
            Phase::Idle => {
                if let Input::Start { cached } = input {
                    match cached {
                        Some(addr) => {
                            self.trace(now, HeEventKind::UsedCachedOutcome { addr });
                            self.phase = Phase::Cached { addr };
                        }
                        None => self.begin_resolution(now),
                    }
                }
            }
            Phase::Cached { addr } => {
                if let Input::CachedResult { ok } = input {
                    if ok {
                        self.trace(
                            now,
                            HeEventKind::Established {
                                addr,
                                family: Family::of(addr),
                                proto: CandidateProto::Tcp,
                            },
                        );
                        self.out.push_back(Output::Established {
                            addr,
                            family: Family::of(addr),
                            proto: CandidateProto::Tcp,
                        });
                        self.phase = Phase::Done;
                    } else {
                        self.out.push_back(Output::InvalidateOutcome);
                        self.begin_resolution(now);
                    }
                }
            }
            Phase::WaitAll => match input {
                Input::Dns(Some(ans)) => {
                    let mut out = std::mem::take(&mut self.out);
                    self.gathered.ingest(&ans, &mut out);
                    self.out = out;
                    if self.gathered.pending == 0 {
                        self.finish_resolution(now);
                    }
                }
                Input::Dns(None) => self.finish_resolution(now),
                _ => {}
            },
            Phase::ResOuter => match input {
                Input::Dns(Some(ans)) => {
                    let mut out = std::mem::take(&mut self.out);
                    self.gathered.ingest(&ans, &mut out);
                    self.out = out;
                    self.res_outer_eval(now);
                }
                Input::Dns(None) => self.finish_resolution(now),
                _ => {}
            },
            Phase::ResRd { rd_deadline } => match input {
                Input::Timer => {
                    self.trace(now, HeEventKind::ResolutionDelayExpired);
                    self.finish_resolution(now);
                }
                Input::Dns(Some(ans)) => {
                    let mut out = std::mem::take(&mut self.out);
                    self.gathered.ingest(&ans, &mut out);
                    self.out = out;
                    if self.gathered.has_family(self.cfg.prefer) || self.gathered.pending == 0 {
                        self.finish_resolution(now);
                    } else {
                        // Stay armed on the same absolute expiry.
                        self.out.push_back(Output::ArmTimer(rd_deadline.max(now)));
                    }
                }
                Input::Dns(None) => self.finish_resolution(now),
                _ => {}
            },
            Phase::RaceCad => {
                if let Input::Cad(cad) = input {
                    // Anchored on the previous attempt start, so
                    // intermediate wakeups never stretch the stagger.
                    let next_start = self.last_attempt_at + cad;
                    if self.next < self.candidates.len() {
                        self.out.push_back(Output::ArmTimer(next_start.max(now)));
                        self.phase = Phase::RaceWait {
                            next_start: Some(next_start),
                        };
                    } else {
                        self.out.push_back(Output::ArmTimer(self.deadline.max(now)));
                        self.phase = Phase::RaceWait { next_start: None };
                    }
                }
            }
            Phase::RaceWait { .. } => match input {
                Input::Timer => {
                    self.start_attempt(now);
                    self.race_head();
                }
                Input::Dns(Some(ans)) => {
                    let mut out = std::mem::take(&mut self.out);
                    self.gathered.ingest(&ans, &mut out);
                    self.out = out;
                    // RFC 8305 §7: new addresses join the race.
                    let rebuilt = self.build_candidates();
                    merge_candidates(&mut self.candidates, self.next, rebuilt);
                    self.race_head();
                }
                Input::Dns(None) => {
                    self.dns_done = true;
                    self.race_head();
                }
                Input::AttemptsClosed => {
                    self.out
                        .push_back(Output::Failed(HeError::AllAttemptsFailed));
                    self.phase = Phase::Done;
                }
                Input::AttemptResult { index, result } => {
                    let Some(cand) = self.candidates.get(index).copied() else {
                        return;
                    };
                    match result {
                        Ok(rtt) => {
                            self.trace(
                                now,
                                HeEventKind::AttemptSucceeded {
                                    index,
                                    addr: cand.addr,
                                },
                            );
                            self.out.push_back(Output::RecordRtt {
                                addr: cand.addr,
                                rtt,
                            });
                            self.out
                                .push_back(Output::RecordOutcome { addr: cand.addr });
                            self.trace(
                                now,
                                HeEventKind::Established {
                                    addr: cand.addr,
                                    family: cand.family(),
                                    proto: cand.proto,
                                },
                            );
                            self.out.push_back(Output::Established {
                                addr: cand.addr,
                                family: cand.family(),
                                proto: cand.proto,
                            });
                            self.phase = Phase::Done;
                        }
                        Err(error) => {
                            self.failures += 1;
                            self.trace(
                                now,
                                HeEventKind::AttemptFailed {
                                    index,
                                    addr: cand.addr,
                                    error,
                                },
                            );
                            if self.next < self.candidates.len() {
                                // RFC 8305 §5: a failure starts the next
                                // attempt immediately.
                                self.start_attempt(now);
                            } else if self.failures >= self.candidates.len() {
                                self.trace(
                                    now,
                                    HeEventKind::Failed {
                                        reason: "all-attempts-failed",
                                    },
                                );
                                self.out
                                    .push_back(Output::Failed(HeError::AllAttemptsFailed));
                                self.phase = Phase::Done;
                                return;
                            }
                            self.race_head();
                        }
                    }
                }
                _ => {}
            },
            Phase::Done => {}
        }
    }

    fn begin_resolution(&mut self, now: SimTime) {
        self.gathered = Gathered {
            pending: self.qtypes.len(),
            ..Gathered::default()
        };
        for qt in &self.qtypes {
            self.out.push_back(Output::SendQuery { qtype: *qt });
        }
        for i in 0..self.qtypes.len() {
            let qt = self.qtypes[i];
            self.trace(now, HeEventKind::DnsQuerySent { qtype: qt });
        }
        if self.cfg.quirks.wait_for_all_answers {
            if self.gathered.pending > 0 {
                self.phase = Phase::WaitAll;
            } else {
                self.finish_resolution(now);
            }
        } else {
            self.res_outer_eval(now);
        }
    }

    /// RFC 8305 §3: connect as soon as the preferred family answers; if
    /// the other family answers first, arm the Resolution Delay.
    fn res_outer_eval(&mut self, now: SimTime) {
        if self.gathered.has_family(self.cfg.prefer) {
            return self.finish_resolution(now);
        }
        if self.gathered.has_family(self.cfg.prefer.other()) {
            match self.cfg.resolution_delay {
                Some(rd) if self.gathered.pending > 0 => {
                    self.trace(now, HeEventKind::ResolutionDelayStarted { delay: rd });
                    let rd_deadline = now + rd;
                    self.out.push_back(Output::ArmTimer(rd_deadline));
                    self.phase = Phase::ResRd { rd_deadline };
                    return;
                }
                _ => return self.finish_resolution(now),
            }
        }
        if self.gathered.pending == 0 {
            return self.finish_resolution(now);
        }
        self.phase = Phase::ResOuter;
    }

    fn finish_resolution(&mut self, now: SimTime) {
        if !self.gathered.has_any() {
            self.trace(
                now,
                HeEventKind::Failed {
                    reason: "no-addresses",
                },
            );
            self.out.push_back(Output::Failed(HeError::NoAddresses));
            self.phase = Phase::Done;
            return;
        }
        self.candidates = self.build_candidates();
        self.trace(
            now,
            HeEventKind::CandidatesBuilt {
                families: self.candidates.iter().map(Candidate::family).collect(),
            },
        );
        self.start_attempt(now);
        self.race_head();
    }

    /// Starts the next staggered attempt (`self.next`), advancing the
    /// counter and the CAD anchor even when the index is out of range
    /// (matching the legacy engine's no-op start).
    fn start_attempt(&mut self, now: SimTime) {
        let idx = self.next;
        self.next += 1;
        self.last_attempt_at = now;
        let Some(cand) = self.candidates.get(idx).copied() else {
            return;
        };
        self.trace(
            now,
            HeEventKind::AttemptStarted {
                index: idx,
                addr: cand.addr,
                proto: cand.proto,
            },
        );
        self.out.push_back(Output::StartAttempt {
            index: idx,
            candidate: cand,
        });
    }

    fn race_head(&mut self) {
        self.phase = Phase::RaceCad;
    }

    fn build_candidates(&self) -> Vec<Candidate> {
        let mut order = interlace(
            &self.gathered.v6,
            &self.gathered.v4,
            self.cfg.prefer,
            self.cfg.interlace,
        );
        if self.cfg.quirks.stop_after_first_pair {
            truncate_to_first_pair(&mut order);
        }
        expand_protocols(
            &order,
            self.gathered.h3,
            self.gathered.ech,
            self.cfg.use_quic,
        )
    }
}

/// Replaces the un-attempted tail of `candidates` with the freshly rebuilt
/// order, keeping already-started attempts (indices `< started`) in place
/// and never re-adding a candidate that already ran.
fn merge_candidates(candidates: &mut Vec<Candidate>, started: usize, rebuilt: Vec<Candidate>) {
    let started_set: Vec<Candidate> = candidates[..started.min(candidates.len())].to_vec();
    candidates.truncate(started.min(candidates.len()));
    for c in rebuilt {
        if !started_set.contains(&c) {
            candidates.push(c);
        }
    }
}

fn truncate_to_first_pair(order: &mut Vec<IpAddr>) {
    let mut kept_v6 = false;
    let mut kept_v4 = false;
    order.retain(|a| match Family::of(*a) {
        Family::V6 if !kept_v6 => {
            kept_v6 = true;
            true
        }
        Family::V4 if !kept_v4 => {
            kept_v4 = true;
            true
        }
        _ => false,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyeye_net::addr::{v4, v6};

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn answer(at: SimTime, qtype: RrType, addr: IpAddr) -> DnsAnswer {
        use lazyeye_dns::Record;
        let rdata = match addr {
            IpAddr::V6(a) => RData::Aaaa(a),
            IpAddr::V4(a) => RData::A(a),
        };
        DnsAnswer {
            at,
            qtype,
            records: vec![Record::new(
                lazyeye_dns::Name::parse("www.hetest").unwrap(),
                300,
                rdata,
            )],
            outcome: AnswerOutcome::Ok,
        }
    }

    fn drain(m: &mut HeMachine, input: Input, now: SimTime) -> Vec<Output> {
        m.process(input, now).collect()
    }

    #[test]
    fn healthy_run_walks_to_established() {
        let cfg = HeConfig::rfc8305();
        let mut m = HeMachine::new(
            cfg,
            vec![RrType::Aaaa, RrType::A],
            SimTime::ZERO + Duration::from_secs(30),
        );
        assert_eq!(m.waiting(), Waiting::Start);
        let out = drain(&mut m, Input::Start { cached: None }, SimTime::ZERO);
        assert!(matches!(out[0], Output::SendQuery { .. }));
        assert_eq!(m.waiting(), Waiting::Dns);
        let t = SimTime::from_millis(1);
        drain(
            &mut m,
            Input::Dns(Some(answer(t, RrType::Aaaa, v6("2001:db8::1")))),
            t,
        );
        // Preferred family answered: candidates built, first attempt out.
        assert!(matches!(m.waiting(), Waiting::Cad { dst: Some(_) }));
        drain(&mut m, Input::Cad(ms(250)), t);
        match m.waiting() {
            Waiting::Race {
                next_start,
                dns_open,
            } => {
                // Single candidate so far: deadline-bounded wait.
                assert_eq!(next_start, None);
                assert!(dns_open);
            }
            w => panic!("unexpected wait {w:?}"),
        }
        let t2 = SimTime::from_millis(2);
        let out = drain(
            &mut m,
            Input::AttemptResult {
                index: 0,
                result: Ok(ms(1)),
            },
            t2,
        );
        assert!(out.iter().any(|o| matches!(
            o,
            Output::Established {
                family: Family::V6,
                ..
            }
        )));
        assert!(m.is_done());
    }

    #[test]
    fn cached_failure_falls_back_to_resolution() {
        let cfg = HeConfig::rfc8305();
        let mut m = HeMachine::new(
            cfg,
            vec![RrType::Aaaa, RrType::A],
            SimTime::ZERO + Duration::from_secs(30),
        );
        drain(
            &mut m,
            Input::Start {
                cached: Some(v6("2001:db8::1")),
            },
            SimTime::ZERO,
        );
        assert!(matches!(m.waiting(), Waiting::CachedAttempt { .. }));
        let out = drain(&mut m, Input::CachedResult { ok: false }, SimTime::ZERO);
        assert!(out.iter().any(|o| matches!(o, Output::InvalidateOutcome)));
        assert!(out.iter().any(|o| matches!(o, Output::SendQuery { .. })));
        assert_eq!(m.waiting(), Waiting::Dns);
    }

    #[test]
    fn rd_armed_when_other_family_first() {
        let cfg = HeConfig::rfc8305();
        let mut m = HeMachine::new(
            cfg,
            vec![RrType::Aaaa, RrType::A],
            SimTime::ZERO + Duration::from_secs(30),
        );
        drain(&mut m, Input::Start { cached: None }, SimTime::ZERO);
        let t = SimTime::from_millis(1);
        let out = drain(
            &mut m,
            Input::Dns(Some(answer(t, RrType::A, v4("192.0.2.1")))),
            t,
        );
        assert!(out.iter().any(|o| matches!(
            o,
            Output::Trace(HeEvent {
                kind: HeEventKind::ResolutionDelayStarted { .. },
                ..
            })
        )));
        assert_eq!(
            m.waiting(),
            Waiting::DnsOrTimer {
                deadline: t + ms(50)
            }
        );
        // Timer expiry proceeds with IPv4.
        let t2 = t + ms(50);
        drain(&mut m, Input::Timer, t2);
        assert!(matches!(m.waiting(), Waiting::Cad { .. }));
    }

    #[test]
    fn truncate_keeps_first_of_each_family() {
        let mut order = vec![
            v6("2001:db8::1"),
            v4("192.0.2.1"),
            v6("2001:db8::2"),
            v4("192.0.2.2"),
        ];
        truncate_to_first_pair(&mut order);
        assert_eq!(order, vec![v6("2001:db8::1"), v4("192.0.2.1")]);
    }

    #[test]
    fn truncate_single_family_keeps_one() {
        let mut order = vec![v6("2001:db8::1"), v6("2001:db8::2")];
        truncate_to_first_pair(&mut order);
        assert_eq!(order, vec![v6("2001:db8::1")]);
    }

    #[test]
    fn deadline_cuts_any_phase() {
        let cfg = HeConfig::rfc8305();
        let mut m = HeMachine::new(
            cfg,
            vec![RrType::Aaaa, RrType::A],
            SimTime::ZERO + Duration::from_secs(30),
        );
        drain(&mut m, Input::Start { cached: None }, SimTime::ZERO);
        let out = drain(&mut m, Input::DeadlineExpired, SimTime::from_secs(30));
        assert!(out
            .iter()
            .any(|o| matches!(o, Output::Failed(HeError::Deadline))));
        assert!(m.is_done());
    }
}
