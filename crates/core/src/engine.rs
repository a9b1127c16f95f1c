//! The simulator driver for the sans-IO Happy Eyeballs machine.
//!
//! [`HappyEyeballs`] owns the I/O half of a run — the stub resolver
//! channel, connection attempt tasks, timers, the RTT/outcome history —
//! and drives the pure [`HeMachine`] over the packet simulator. The
//! await structure mirrors the pre-extraction engine exactly (the same
//! `race`/`timeout_at` nesting, re-created per wakeup), so both the
//! `HeLog` traces and the scheduler counters (polls, timers, tasks)
//! pinned in `BENCH.json` (and checked by the Tier-1 test
//! `crates/bench/tests/bench_counters.rs`) are identical to the legacy
//! engine's.

use std::net::{IpAddr, SocketAddr};
use std::rc::Rc;
use std::time::Duration;

use lazyeye_dns::Name;
use lazyeye_net::{quic_connect, Family, Host, NetError, QuicConnectOpts, TcpStream};
use lazyeye_resolver::{DnsAnswer, StubResolver};
use lazyeye_sim::sync::mpsc;
use lazyeye_sim::{now, race, sleep_until, spawn, timeout_at, Either, JoinHandle, SimTime};

use crate::event::HeLog;
use crate::history::HistoryStore;
use crate::machine::{HeError, HeMachine, Input, Output, Waiting};
use crate::params::HeConfig;
use crate::select::{Candidate, CandidateProto};

/// An established connection, whichever transport won the race.
pub enum HeConnection {
    /// TCP won.
    Tcp(TcpStream),
    /// QUIC won (HEv3).
    Quic(lazyeye_net::QuicConnection),
}

impl HeConnection {
    /// Remote endpoint.
    pub fn remote(&self) -> SocketAddr {
        match self {
            HeConnection::Tcp(s) => s.peer_addr(),
            HeConnection::Quic(q) => q.remote,
        }
    }

    /// Winning address family.
    pub fn family(&self) -> Family {
        Family::of(self.remote().ip())
    }

    /// Winning transport.
    pub fn proto(&self) -> CandidateProto {
        match self {
            HeConnection::Tcp(_) => CandidateProto::Tcp,
            HeConnection::Quic(_) => CandidateProto::Quic,
        }
    }

    /// The TCP stream, if TCP won (HTTP layers use this).
    pub fn tcp(&self) -> Option<&TcpStream> {
        match self {
            HeConnection::Tcp(s) => Some(s),
            HeConnection::Quic(_) => None,
        }
    }
}

impl std::fmt::Debug for HeConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HeConnection({:?} via {:?})",
            self.remote(),
            self.proto()
        )
    }
}

/// Result of one HE run: the connection (or error) plus the full event log.
pub struct HeResult {
    /// The outcome.
    pub connection: Result<HeConnection, HeError>,
    /// Everything that happened, timestamped.
    pub log: HeLog,
}

/// The sim driver, bound to a host, a stub resolver and a history store.
pub struct HappyEyeballs {
    cfg: HeConfig,
    host: Host,
    stub: Rc<StubResolver>,
    history: Rc<HistoryStore>,
}

impl HappyEyeballs {
    /// Creates an engine.
    pub fn new(
        cfg: HeConfig,
        host: Host,
        stub: Rc<StubResolver>,
        history: Rc<HistoryStore>,
    ) -> HappyEyeballs {
        HappyEyeballs {
            cfg,
            host,
            stub,
            history,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &HeConfig {
        &self.cfg
    }

    /// Resolves `name` and races connections to `port` per the configured
    /// Happy Eyeballs semantics. Always returns the event log.
    pub async fn connect(&self, name: &Name, port: u16) -> HeResult {
        let mut log = HeLog::default();
        let mut attempts: Vec<JoinHandle<()>> = Vec::new();
        let deadline = now() + self.cfg.overall_deadline;
        let mut machine = HeMachine::new(
            self.cfg.clone(),
            self.stub.config().qtypes.clone(),
            deadline,
        );

        let r = timeout_at(
            deadline,
            self.drive(&mut machine, name, port, &mut log, &mut attempts, deadline),
        )
        .await;
        let connection = match r {
            Ok(result) => result,
            Err(lazyeye_sim::Elapsed) => {
                for out in machine.process(Input::DeadlineExpired, now()) {
                    if let Output::Trace(e) = out {
                        log.push(e.at, e.kind);
                    }
                }
                Err(HeError::Deadline)
            }
        };
        // Cancel any attempt still in flight.
        for h in &attempts {
            h.abort();
        }
        HeResult { connection, log }
    }

    /// Runs the machine to completion, performing its I/O on the
    /// simulator. Each [`Waiting`] state maps to the exact combinator
    /// nesting the legacy engine used at the equivalent point.
    async fn drive(
        &self,
        machine: &mut HeMachine,
        name: &Name,
        port: u16,
        log: &mut HeLog,
        attempts: &mut Vec<JoinHandle<()>>,
        deadline: SimTime,
    ) -> Result<HeConnection, HeError> {
        // RFC 6555 §4.2 winner cache: looked up here because the cache
        // (and its lazy expiry) is driver-side mutable state.
        let cached = self.history.cached_outcome(now(), name);
        let mut rx: Option<mpsc::Receiver<DnsAnswer>> = None;
        let (res_tx, mut res_rx) =
            mpsc::unbounded::<(usize, Candidate, Result<Won, &'static str>)>();
        let mut pending_conn: Option<HeConnection> = None;
        let mut input = Input::Start { cached };

        loop {
            let mut established = false;
            let mut failed: Option<HeError> = None;
            for out in machine.process(input, now()) {
                match out {
                    Output::Trace(e) => log.push(e.at, e.kind),
                    Output::SendQuery { .. } => {
                        // The stub resolver sends the whole configured
                        // query set in one streaming call.
                        if rx.is_none() {
                            rx = Some(self.stub.resolve_streaming(name));
                        }
                    }
                    Output::StartAttempt { index, candidate } => {
                        self.spawn_attempt(candidate, index, port, &res_tx, attempts);
                    }
                    Output::ArmTimer(_) => {} // timers live in the waits below
                    Output::RecordRtt { addr, rtt } => self.history.record_rtt(addr, rtt),
                    Output::RecordOutcome { addr } => {
                        self.history
                            .record_outcome(now(), name.clone(), addr, self.cfg.cache_ttl);
                    }
                    Output::InvalidateOutcome => self.history.invalidate_outcome(name),
                    Output::Established { .. } => established = true,
                    Output::Failed(e) => failed = Some(e),
                }
            }
            if established {
                // Cancel losers.
                for h in attempts.iter() {
                    h.abort();
                }
                return Ok(pending_conn.take().expect("established without connection"));
            }
            if let Some(e) = failed {
                return Err(e);
            }

            input = match machine.waiting() {
                Waiting::CachedAttempt { addr } => match self.direct_attempt(addr, port).await {
                    Ok(s) => {
                        pending_conn = Some(HeConnection::Tcp(s));
                        Input::CachedResult { ok: true }
                    }
                    Err(()) => Input::CachedResult { ok: false },
                },
                Waiting::Cad { dst } => Input::Cad(self.history.cad_for(self.cfg.cad, dst)),
                Waiting::Dns => {
                    let rx = rx.as_mut().expect("resolution not started");
                    Input::Dns(rx.recv().await)
                }
                Waiting::DnsOrTimer { deadline: rd } => {
                    let rx = rx.as_mut().expect("resolution not started");
                    match race(sleep_until(rd), rx.recv()).await {
                        Either::Left(()) => Input::Timer,
                        Either::Right(ans) => Input::Dns(ans),
                    }
                }
                Waiting::Race {
                    next_start,
                    dns_open,
                } => match (next_start, dns_open) {
                    (Some(t), true) => {
                        // Results vs CAD timer vs late DNS answers.
                        let rx = rx.as_mut().expect("resolution not started");
                        match race(res_rx.recv(), race(sleep_until(t), rx.recv())).await {
                            Either::Left(r) => result_input(r, &mut pending_conn),
                            Either::Right(Either::Left(())) => Input::Timer,
                            Either::Right(Either::Right(ans)) => Input::Dns(ans),
                        }
                    }
                    (Some(t), false) => match race(res_rx.recv(), sleep_until(t)).await {
                        Either::Left(r) => result_input(r, &mut pending_conn),
                        Either::Right(()) => Input::Timer,
                    },
                    (None, true) => {
                        let rx = rx.as_mut().expect("resolution not started");
                        match race(timeout_at(deadline, res_rx.recv()), rx.recv()).await {
                            Either::Left(Ok(r)) => result_input(r, &mut pending_conn),
                            Either::Left(Err(lazyeye_sim::Elapsed)) => Input::DeadlineExpired,
                            Either::Right(ans) => Input::Dns(ans),
                        }
                    }
                    (None, false) => match timeout_at(deadline, res_rx.recv()).await {
                        Ok(r) => result_input(r, &mut pending_conn),
                        Err(lazyeye_sim::Elapsed) => Input::DeadlineExpired,
                    },
                },
                Waiting::Start | Waiting::Done => {
                    unreachable!("machine stalled without output")
                }
            };
        }
    }

    /// Spawns one connection attempt task; the machine has already
    /// recorded the `AttemptStarted` trace for it.
    fn spawn_attempt(
        &self,
        cand: Candidate,
        idx: usize,
        port: u16,
        res_tx: &mpsc::Sender<(usize, Candidate, Result<Won, &'static str>)>,
        attempts: &mut Vec<JoinHandle<()>>,
    ) {
        let host = self.host.clone();
        let tx = res_tx.clone();
        let attempt_timeout = self.cfg.attempt_timeout;
        let handle = spawn(async move {
            let started = now();
            let dst = SocketAddr::new(cand.addr, port);
            let result: Result<Won, &'static str> = match cand.proto {
                CandidateProto::Tcp => {
                    match lazyeye_sim::timeout(attempt_timeout, host.tcp_connect(dst)).await {
                        Ok(Ok(stream)) => Ok(Won {
                            conn: HeConnection::Tcp(stream),
                            rtt: now() - started,
                        }),
                        Ok(Err(e)) => Err(net_err_label(e)),
                        Err(lazyeye_sim::Elapsed) => Err("timeout"),
                    }
                }
                CandidateProto::Quic => {
                    match lazyeye_sim::timeout(
                        attempt_timeout,
                        quic_connect(&host, dst, QuicConnectOpts::default()),
                    )
                    .await
                    {
                        Ok(Ok(q)) => Ok(Won {
                            conn: HeConnection::Quic(q),
                            rtt: now() - started,
                        }),
                        Ok(Err(e)) => Err(net_err_label(e)),
                        Err(lazyeye_sim::Elapsed) => Err("timeout"),
                    }
                }
            };
            let _ = tx.send((idx, cand, result));
        });
        attempts.push(handle);
    }

    /// One direct TCP attempt (cached-outcome path), bounded by the
    /// attempt timeout.
    async fn direct_attempt(&self, addr: IpAddr, port: u16) -> Result<TcpStream, ()> {
        let dst = SocketAddr::new(addr, port);
        match lazyeye_sim::timeout(self.cfg.attempt_timeout, self.host.tcp_connect(dst)).await {
            Ok(Ok(s)) => Ok(s),
            _ => Err(()),
        }
    }
}

/// Converts one attempt-channel message into a machine input, parking
/// the winning connection with the driver.
fn result_input(
    r: Option<(usize, Candidate, Result<Won, &'static str>)>,
    pending_conn: &mut Option<HeConnection>,
) -> Input {
    match r {
        None => Input::AttemptsClosed,
        Some((idx, _cand, Ok(won))) => {
            *pending_conn = Some(won.conn);
            Input::AttemptResult {
                index: idx,
                result: Ok(won.rtt),
            }
        }
        Some((idx, _cand, Err(e))) => Input::AttemptResult {
            index: idx,
            result: Err(e),
        },
    }
}

struct Won {
    conn: HeConnection,
    rtt: Duration,
}

fn net_err_label(e: NetError) -> &'static str {
    e.label()
}
