//! The compiled fast-path driver: runs [`HeMachine`] as a pure function
//! over an analytically-computed event timeline, skipping packet
//! simulation entirely.
//!
//! The caller (see `lazyeye_testbed::fastpath`) knows the sweep topology
//! statically, so it can precompute when each DNS answer arrives on the
//! resolver channel and how long each connection handshake takes. This
//! driver then replays the machine against that [`Timeline`], producing
//! the same `HeLog` the simulator driver would — provided no two event
//! sources coincide. Whenever the outcome would depend on simulator
//! scheduling minutiae (two sources ready at the same instant), the
//! drive **refuses** with [`Refusal::Tie`] instead of guessing, and the
//! caller falls back to full simulation. That refusal discipline is what
//! keeps fast-path campaign reports byte-identical to simulated ones.

use std::net::IpAddr;
use std::time::Duration;

use lazyeye_net::Family;
use lazyeye_resolver::DnsAnswer;
use lazyeye_sim::SimTime;

use crate::event::HeLog;
use crate::history::HistoryStore;
use crate::machine::{HeError, HeMachine, Input, Output, Waiting};
use crate::params::HeConfig;
use crate::select::CandidateProto;

/// Precomputed handshake behaviour of one candidate endpoint.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AttemptOutcome {
    /// Time from attempt start to the handshake completing (or
    /// terminally failing). The attempt timeout is applied by the
    /// driver, not baked in here.
    pub duration: Duration,
    /// `Ok(())` for an established handshake, or the error label the
    /// network layer would report.
    pub result: Result<(), &'static str>,
}

/// The precomputed event timeline of one run.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Terminal DNS answers in resolver-channel order, with absolute
    /// arrival times (non-decreasing). The channel closes after the
    /// last one.
    pub dns: Vec<(SimTime, DnsAnswer)>,
    /// Handshake outcome per candidate endpoint the machine may try
    /// (a handful of entries, so a list beats a hash map).
    pub connect: Vec<((IpAddr, CandidateProto), AttemptOutcome)>,
}

impl Timeline {
    /// The calibrated answers as unshifted [`Arrival`]s, in channel order.
    pub fn arrivals(&self) -> Vec<Arrival<'_>> {
        self.dns
            .iter()
            .map(|(at, answer)| Arrival {
                at: *at,
                shift: Duration::ZERO,
                answer,
            })
            .collect()
    }

    /// The handshake outcome recorded for `(addr, proto)`, if any.
    pub fn outcome(&self, addr: IpAddr, proto: CandidateProto) -> Option<AttemptOutcome> {
        self.connect
            .iter()
            .find(|(key, _)| *key == (addr, proto))
            .map(|(_, o)| *o)
    }
}

/// One terminal DNS answer as the resolver channel yields it, borrowed
/// from a calibrated [`Timeline`]. The answer is cloned only when the
/// machine consumes it.
#[derive(Copy, Clone, Debug)]
pub struct Arrival<'a> {
    /// When the channel yields the answer.
    pub at: SimTime,
    /// How far the answer was moved from its calibrated arrival; added
    /// to the answer's own timestamp when the machine receives it.
    pub shift: Duration,
    /// The calibrated answer.
    pub answer: &'a DnsAnswer,
}

impl Arrival<'_> {
    fn input(&self) -> Input {
        let mut answer = self.answer.clone();
        answer.at += self.shift;
        Input::Dns(Some(answer))
    }
}

/// Why the analytic drive declined to produce a result.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// Two event sources were ready at the same instant; resolving the
    /// order would require replaying simulator scheduling.
    Tie,
    /// The machine started an attempt the timeline has no entry for.
    UnknownCandidate,
    /// The run would take the cached-outcome path (stateful history),
    /// which the fast path does not model.
    CachedPath,
}

impl Refusal {
    /// Stable label used for metrics (`fastpath.fallbacks{reason=..}`)
    /// and the caller's flight-recorder events.
    pub fn label(self) -> &'static str {
        match self {
            Refusal::Tie => "tie",
            Refusal::UnknownCandidate => "unknown_candidate",
            Refusal::CachedPath => "cached_path",
        }
    }
}

/// The winning endpoint of a fast-path run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Winner {
    /// Established address.
    pub addr: IpAddr,
    /// Established family.
    pub family: Family,
    /// Established transport.
    pub proto: CandidateProto,
}

/// Everything a fast-path run produces.
pub struct FastRun {
    /// The event log, byte-compatible with the sim driver's.
    pub log: HeLog,
    /// Outcome: winner or failure.
    pub result: Result<Winner, HeError>,
    /// Virtual time at which the run finished.
    pub finished_at: SimTime,
}

struct InFlight {
    ready_at: SimTime,
    index: usize,
    result: Result<Duration, &'static str>,
}

/// Drives a fresh [`HeMachine`] starting at virtual time `start` against
/// the answers `dns` (in channel order, non-decreasing `at`) and the
/// handshake outcomes `connect` reports per candidate endpoint. Pure: no
/// clock, sockets, RNG, or shared state. Uses a fresh [`HistoryStore`]
/// for CAD computation (matching the testbed's per-run reset), so
/// dynamic-CAD profiles take their deterministic no-history value
/// exactly as they do under full simulation.
pub fn drive(
    cfg: &HeConfig,
    qtypes: Vec<lazyeye_dns::RrType>,
    start: SimTime,
    dns: &[Arrival<'_>],
    connect: impl Fn(IpAddr, CandidateProto) -> Option<AttemptOutcome>,
) -> Result<FastRun, Refusal> {
    let deadline = start + cfg.overall_deadline;
    let mut machine = HeMachine::new(cfg.clone(), qtypes, deadline);
    let history = HistoryStore::new();
    let mut log = HeLog::default();

    let mut t = start;
    let mut dns_i = 0usize;
    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut input = Input::Start { cached: None };
    loop {
        let mut result: Option<Result<Winner, HeError>> = None;
        for out in machine.process(input, t) {
            match out {
                Output::Trace(e) => log.push(e.at, e.kind),
                Output::SendQuery { .. } => {}
                Output::StartAttempt { index, candidate } => {
                    let Some(o) = connect(candidate.addr, candidate.proto) else {
                        return Err(Refusal::UnknownCandidate);
                    };
                    // `timeout(attempt_timeout, connect)` polls the inner
                    // future first, so an exact tie goes to the handshake.
                    let (ready_at, res) = if o.duration <= cfg.attempt_timeout {
                        (
                            t + o.duration,
                            match o.result {
                                Ok(()) => Ok(o.duration),
                                Err(label) => Err(label),
                            },
                        )
                    } else {
                        (t + cfg.attempt_timeout, Err("timeout"))
                    };
                    in_flight.push(InFlight {
                        ready_at,
                        index,
                        result: res,
                    });
                }
                Output::ArmTimer(_) => {}
                Output::RecordRtt { addr, rtt } => history.record_rtt(addr, rtt),
                Output::RecordOutcome { .. } | Output::InvalidateOutcome => {}
                Output::Established {
                    addr,
                    family,
                    proto,
                } => {
                    result = Some(Ok(Winner {
                        addr,
                        family,
                        proto,
                    }));
                }
                Output::Failed(e) => result = Some(Err(e)),
            }
        }
        if let Some(result) = result {
            return Ok(FastRun {
                log,
                result,
                finished_at: t,
            });
        }

        input = match machine.waiting() {
            Waiting::CachedAttempt { .. } => return Err(Refusal::CachedPath),
            Waiting::Cad { dst } => Input::Cad(history.cad_for(cfg.cad, dst)),
            Waiting::Dns => match dns.get(dns_i) {
                Some(arrival) => {
                    t = t.max(arrival.at);
                    dns_i += 1;
                    arrival.input()
                }
                // All senders done: the channel yields `None` at the
                // current instant.
                None => Input::Dns(None),
            },
            Waiting::DnsOrTimer { deadline: rd } => match dns.get(dns_i) {
                // A closed channel is ready on the very first poll,
                // before any timer can fire.
                None => Input::Dns(None),
                Some(arrival) => {
                    let eff = arrival.at.max(t);
                    if eff < rd {
                        t = eff;
                        dns_i += 1;
                        arrival.input()
                    } else if rd < eff {
                        t = rd;
                        Input::Timer
                    } else {
                        return Err(Refusal::Tie);
                    }
                }
            },
            Waiting::Race {
                next_start,
                dns_open,
            } => {
                // Earliest unprocessed attempt completion, if any.
                let mut comp: Option<(SimTime, usize)> = None; // (eff time, in_flight idx)
                let mut comp_tied = false;
                for (i, f) in in_flight.iter().enumerate() {
                    let eff = f.ready_at.max(t);
                    match comp {
                        Some((best, _)) if eff > best => {}
                        Some((best, _)) if eff == best => comp_tied = true,
                        _ => {
                            comp = Some((eff, i));
                            comp_tied = false;
                        }
                    }
                }
                if comp_tied {
                    return Err(Refusal::Tie);
                }
                let timer = next_start.map(|s| s.max(t));
                let dns_next = if dns_open {
                    match dns.get(dns_i) {
                        Some(arrival) => Some(arrival.at.max(t)),
                        None => {
                            // Channel closed: ready immediately on first
                            // poll — unless a completion is also ready
                            // right now, which would race it.
                            if comp.is_some_and(|(eff, _)| eff == t) {
                                return Err(Refusal::Tie);
                            }
                            let _ = timer; // close wins even over a due timer
                            input = Input::Dns(None);
                            continue;
                        }
                    }
                } else {
                    None
                };

                // Strictly earliest source wins; any cross-source tie is
                // a refusal.
                let mut best: Option<(SimTime, u8)> = None; // (time, source)
                let mut tie = false;
                for (time, src) in [
                    comp.map(|(e, _)| (e, 0u8)),
                    timer.map(|e| (e, 1u8)),
                    dns_next.map(|e| (e, 2u8)),
                ]
                .into_iter()
                .flatten()
                {
                    match best {
                        Some((b, _)) if time > b => {}
                        Some((b, _)) if time == b => tie = true,
                        _ => {
                            best = Some((time, src));
                            tie = false;
                        }
                    }
                }
                if tie {
                    return Err(Refusal::Tie);
                }
                match best {
                    Some((time, 0)) => {
                        let (_, i) = comp.expect("completion source");
                        let f = in_flight.remove(i);
                        t = time;
                        Input::AttemptResult {
                            index: f.index,
                            result: f.result,
                        }
                    }
                    Some((time, 1)) => {
                        t = time;
                        Input::Timer
                    }
                    Some((time, _)) => {
                        t = time;
                        dns_i += 1;
                        dns[dns_i - 1].input()
                    }
                    // No sources at all: the run can only end via the
                    // overall deadline.
                    None => {
                        t = deadline;
                        Input::DeadlineExpired
                    }
                }
            }
            Waiting::Start | Waiting::Done => unreachable!("machine stalled"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyeye_dns::{Name, RData, Record, RrType};
    use lazyeye_net::addr::{v4, v6};
    use lazyeye_resolver::AnswerOutcome;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn answer(at: SimTime, qtype: RrType, addr: IpAddr) -> (SimTime, DnsAnswer) {
        let rdata = match addr {
            IpAddr::V6(a) => RData::Aaaa(a),
            IpAddr::V4(a) => RData::A(a),
        };
        (
            at,
            DnsAnswer {
                at,
                qtype,
                records: vec![Record::new(Name::parse("www.hetest").unwrap(), 300, rdata)],
                outcome: AnswerOutcome::Ok,
            },
        )
    }

    fn tcp(addr: IpAddr, dur: Duration) -> ((IpAddr, CandidateProto), AttemptOutcome) {
        (
            (addr, CandidateProto::Tcp),
            AttemptOutcome {
                duration: dur,
                result: Ok(()),
            },
        )
    }

    #[test]
    fn cad_fallback_timeline() {
        // v6 answer + v4 answer at 400 µs, v6 handshake slowed by 350 ms,
        // fixed 300 ms CAD: v4 should win right after the stagger.
        let cfg = HeConfig {
            cad: crate::CadMode::Fixed(ms(300)),
            quirks: crate::Quirks {
                wait_for_all_answers: true,
                stop_after_first_pair: true,
            },
            ..HeConfig::rfc8305()
        };
        let t0 = SimTime::ZERO + Duration::from_micros(400);
        let timeline = Timeline {
            dns: vec![
                answer(t0, RrType::Aaaa, v6("2001:db8::1")),
                answer(t0, RrType::A, v4("192.0.2.1")),
            ],
            connect: [
                tcp(v6("2001:db8::1"), ms(350) + Duration::from_micros(400)),
                tcp(v4("192.0.2.1"), Duration::from_micros(400)),
            ]
            .into_iter()
            .collect(),
        };
        let run = drive(
            &cfg,
            vec![RrType::Aaaa, RrType::A],
            SimTime::ZERO,
            &timeline.arrivals(),
            |addr, proto| timeline.outcome(addr, proto),
        )
        .expect("no ties in this timeline");
        let winner = run.result.expect("connects");
        assert_eq!(winner.family, Family::V4);
        let cad = run.log.observed_cad().expect("both families attempted");
        assert_eq!(cad, ms(300));
    }

    #[test]
    fn tie_refuses() {
        // CAD timer and v6 handshake completion at the same instant.
        let cfg = HeConfig {
            cad: crate::CadMode::Fixed(ms(300)),
            quirks: crate::Quirks {
                wait_for_all_answers: true,
                stop_after_first_pair: true,
            },
            ..HeConfig::rfc8305()
        };
        let t0 = SimTime::ZERO;
        let timeline = Timeline {
            dns: vec![
                answer(t0, RrType::Aaaa, v6("2001:db8::1")),
                answer(t0, RrType::A, v4("192.0.2.1")),
            ],
            connect: [tcp(v6("2001:db8::1"), ms(300)), tcp(v4("192.0.2.1"), ms(1))]
                .into_iter()
                .collect(),
        };
        let r = drive(
            &cfg,
            vec![RrType::Aaaa, RrType::A],
            SimTime::ZERO,
            &timeline.arrivals(),
            |addr, proto| timeline.outcome(addr, proto),
        );
        assert!(matches!(r, Err(Refusal::Tie)));
    }

    #[test]
    fn unknown_candidate_refuses() {
        let cfg = HeConfig::rfc8305();
        let t0 = SimTime::ZERO;
        let timeline = Timeline {
            dns: vec![answer(t0, RrType::Aaaa, v6("2001:db8::1"))],
            connect: Vec::new(),
        };
        let r = drive(
            &cfg,
            vec![RrType::Aaaa, RrType::A],
            SimTime::ZERO,
            &timeline.arrivals(),
            |addr, proto| timeline.outcome(addr, proto),
        );
        assert!(matches!(r, Err(Refusal::UnknownCandidate)));
    }
}
