//! Compiled fast path for CAD and RD sweeps.
//!
//! A sweep runs the same statically-known topology dozens of times,
//! varying only one delay parameter. Under the latency-only network
//! model every per-run timing is a pure function of that parameter: the
//! configured IPv6 egress delay adds exactly to the IPv6 handshake
//! duration (CAD case), and the configured answer delay adds exactly to
//! the delayed record's arrival (RD case). The repetition plays no part:
//! the model is seed-free, so every repetition of a `(client, delay)`
//! cell has the same outcome. So instead of simulating every
//! `(delay, rep)` run, this module:
//!
//! 1. **calibrates** once — a probe run at delay 0 records the DNS answer
//!    timeline and per-endpoint handshake durations;
//! 2. **models** each cell by shifting the calibrated timeline
//!    analytically;
//! 3. **verifies** the model against full simulation at the sweep
//!    endpoints (byte-comparing the `HeLog` event streams); and
//! 4. **drives** the pure [`HeMachine`](lazyeye_core::HeMachine) over the
//!    modelled timeline via [`lazyeye_core::fastpath::drive`], once per
//!    distinct cell ([`CadFastPath::cell`], [`RdFastPath::cell`]); the
//!    caller copies the outcome into every repetition of the cell.
//!
//! Any crack in the model — an endpoint verification mismatch, a
//! same-instant tie the analytic driver refuses to order, a cached-path
//! run — falls back to full simulation, per run or for the whole sweep. A
//! refused cell is refused for all of its repetitions, and each of them
//! simulates under its own seed.
//! The fallback discipline is what keeps fast-path results byte-identical
//! to simulated ones rather than merely close.

use std::net::{IpAddr, SocketAddr};
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Duration;

use lazyeye_clients::ClientProfile;
use lazyeye_core::fastpath::{drive, Arrival, AttemptOutcome, Timeline};
use lazyeye_core::{CandidateProto, HeLog};
use lazyeye_dns::RrType;
use lazyeye_net::Family;
use lazyeye_resolver::{DnsAnswer, StubConfig, StubResolver};
use lazyeye_sim::SimTime;

use crate::cases::{CadCaseConfig, DelayedRecord, RdCaseConfig};
use crate::runner::{
    derive_case_seed, run_cad_once, run_cad_once_log, run_rd_once, run_rd_once_log, CadSample,
    RdSample, CAD_SEED_TAG, RD_SEED_TAG,
};
use crate::topology::{
    default_local_topology, resolver_addr, server_v4, server_v6, test_domain_topology, www,
    LocalTopology,
};

fn counter(name: &'static str) -> &'static lazyeye_obs::Counter {
    lazyeye_obs::counter(name, lazyeye_obs::Clock::Virtual)
}

/// Books one cell evaluation (`fastpath.cells`): a model driven at one
/// delay. Calibration's verification drives are not booked.
pub fn book_cell() {
    static CELLS: OnceLock<&'static lazyeye_obs::Counter> = OnceLock::new();
    CELLS.get_or_init(|| counter("fastpath.cells")).inc();
}

/// Books one run of a modelled cell: a fast run (`fastpath.runs`) when
/// the model served the cell, a fallback under the refusal reason when it
/// did not.
pub fn book_run<S>(cell: &Result<S, &'static str>) {
    // Cached: every fast run bumps it, and a registry lookup takes the
    // global registry lock.
    static RUNS: OnceLock<&'static lazyeye_obs::Counter> = OnceLock::new();
    match cell {
        Ok(_) => RUNS.get_or_init(|| counter("fastpath.runs")).inc(),
        Err(reason) => note_fallback(reason),
    }
}

/// Books one fallback: the aggregate `fastpath.fallbacks` stays the sum
/// of the per-reason `fastpath.fallbacks{reason=..}` breakdown, and the
/// flight recorder gets a `fastpath.fallback` event.
fn note_fallback(reason: &'static str) {
    counter("fastpath.fallbacks").inc();
    lazyeye_obs::counter_labeled(
        "fastpath.fallbacks",
        "reason",
        reason,
        lazyeye_obs::Clock::Virtual,
    )
    .inc();
    lazyeye_obs::recorder::record(lazyeye_obs::Clock::Virtual, "fastpath.fallback", || {
        reason.to_string()
    });
}

/// The delays a sweep's model is verified at: both endpoints. The shift
/// model is affine in the delay, so agreeing at the extremes (plus the
/// analytic driver's refusal of every ordering tie in between) covers the
/// interior cells.
pub fn verify_endpoints(sweep_values: &[u64]) -> Vec<u64> {
    let mut v: Vec<u64> = sweep_values
        .first()
        .into_iter()
        .chain(sweep_values.last())
        .copied()
        .collect();
    v.dedup();
    v
}

/// Replicates [`lazyeye_clients::Client`]'s stub configuration for a
/// non-QUIC profile (the fast path refuses QUIC profiles before this is
/// called — their HTTPS-record flow adds a query the model doesn't carry,
/// and QUIC handshakes are invisible to the SYN-based pcap estimators).
fn stub_config_for(profile: &ClientProfile) -> StubConfig {
    let mut cfg = StubConfig {
        servers: vec![resolver_addr()],
        ..StubConfig::default()
    };
    cfg.order = profile.stub_order;
    cfg
}

/// One calibration probe: resolves `qname` through the profile's stub
/// configuration and handshakes each server endpoint once, recording the
/// event [`Timeline`] a delay-0 run exhibits. Runs on a fresh topology so
/// the probe's absolute times are run-relative (the pooled sim starts at
/// virtual zero, like every sweep run).
fn probe(profile: &ClientProfile, topo: &mut LocalTopology, qname: &lazyeye_dns::Name) -> Timeline {
    let host = topo.client.clone();
    let stub = Rc::new(StubResolver::new(host.clone(), stub_config_for(profile)));
    let attempt_timeout = profile.he.attempt_timeout;
    let qname = qname.clone();
    topo.sim.block_on(async move {
        let mut dns: Vec<(SimTime, DnsAnswer)> = Vec::new();
        {
            let mut rx = stub.resolve_streaming(&qname);
            while let Some(ans) = rx.recv().await {
                dns.push((lazyeye_sim::now(), ans));
            }
        }
        let mut connect = Vec::new();
        for addr in [server_v6(), server_v4()] {
            let t0 = lazyeye_sim::now();
            let dst = SocketAddr::new(addr, 80);
            let outcome = match lazyeye_sim::timeout(attempt_timeout, host.tcp_connect(dst)).await {
                Ok(Ok(_stream)) => AttemptOutcome {
                    duration: lazyeye_sim::now() - t0,
                    result: Ok(()),
                },
                Ok(Err(e)) => AttemptOutcome {
                    duration: lazyeye_sim::now() - t0,
                    result: Err(e.label()),
                },
                // Past the timeout the exact duration is unobservable and
                // irrelevant; anything beyond it makes the driver time out.
                Err(lazyeye_sim::Elapsed) => AttemptOutcome {
                    duration: attempt_timeout + Duration::from_nanos(1),
                    result: Err("timeout"),
                },
            };
            connect.push(((addr, CandidateProto::Tcp), outcome));
        }
        Timeline { dns, connect }
    })
}

fn cad_samples_agree(a: &CadSample, b: &CadSample) -> bool {
    a.family == b.family && a.observed_cad_ms == b.observed_cad_ms && a.aaaa_first == b.aaaa_first
}

fn rd_samples_agree(a: &RdSample, b: &RdSample) -> bool {
    a.family == b.family && a.first_attempt_ms == b.first_attempt_ms && a.used_rd == b.used_rd
}

// ---------------------------------------------------------------------------
// CAD fast path
// ---------------------------------------------------------------------------

/// Calibrated analytic model of one client's CAD sweep.
pub struct CadFastPath {
    cfg: lazyeye_core::HeConfig,
    qtypes: Vec<RrType>,
    base: Timeline,
    aaaa_first: Option<bool>,
    /// The server's IPv6 address: the endpoint the egress delay slows.
    v6: IpAddr,
}

impl CadFastPath {
    /// Calibrates the model for `profile` and verifies it against full
    /// simulation at each `(delay_ms, run_seed)` pair in `verify` —
    /// normally the sweep endpoints at rep 0, under the seeds those runs
    /// really use. Returns `None` — meaning "simulate everything" — on a
    /// QUIC profile or any verification mismatch. `probe_seed` seeds the
    /// calibration topology only; the model itself is seed-free.
    pub fn calibrate(
        profile: &ClientProfile,
        probe_seed: u64,
        verify: &[(u64, u64)],
    ) -> Option<CadFastPath> {
        if profile.he.use_quic {
            note_fallback("quic");
            return None;
        }
        counter("fastpath.calibrations").inc();
        let mut topo = default_local_topology(probe_seed);
        let base = probe(profile, &mut topo, &www());
        let log = topo.auth.query_log();
        let first_aaaa = log.iter().position(|e| e.qtype == RrType::Aaaa);
        let first_a = log.iter().position(|e| e.qtype == RrType::A);
        let aaaa_first = match (first_aaaa, first_a) {
            (Some(x), Some(y)) => Some(x < y),
            _ => None,
        };
        let fp = CadFastPath {
            cfg: profile.he.clone(),
            qtypes: StubConfig::default().qtypes,
            base,
            aaaa_first,
            v6: server_v6(),
        };
        for &(delay_ms, run_seed) in verify {
            let (actual, actual_log) = run_cad_once_log(profile, delay_ms, 0, run_seed);
            let Ok((predicted, predicted_log)) = fp.cell_logged(delay_ms) else {
                return None;
            };
            if predicted_log.events != actual_log.events || !cad_samples_agree(&predicted, &actual)
            {
                return None;
            }
        }
        Some(fp)
    }

    /// One modelled cell: the configured IPv6 egress delay adds to the
    /// IPv6 handshake duration (SYN-ACKs traverse the delayed egress; the
    /// DNS exchange rides IPv4 and is untouched). The sample carries
    /// `rep` 0; every repetition of the cell shares it and stamps its own.
    /// `Err` names why the model refused — one of `tie`,
    /// `unknown_candidate`, `cached_path` — and means every run of the
    /// cell must be simulated. Pure: books no counter (see [`book_cell`]
    /// and [`book_run`]).
    pub fn cell(&self, delay_ms: u64) -> Result<CadSample, &'static str> {
        self.cell_logged(delay_ms).map(|(sample, _)| sample)
    }

    fn cell_logged(&self, delay_ms: u64) -> Result<(CadSample, HeLog), &'static str> {
        let extra = Duration::from_millis(delay_ms);
        let connect = |addr: IpAddr, proto: CandidateProto| {
            let mut o = self.base.outcome(addr, proto)?;
            if (addr, proto) == (self.v6, CandidateProto::Tcp) {
                o.duration += extra;
            }
            Some(o)
        };
        let run = drive(
            &self.cfg,
            self.qtypes.clone(),
            SimTime::ZERO,
            &self.base.arrivals(),
            connect,
        )
        .map_err(|r| r.label())?;
        let sample = CadSample {
            configured_delay_ms: delay_ms,
            rep: 0,
            family: run.result.as_ref().ok().map(|w| w.family),
            observed_cad_ms: run.log.observed_cad().map(|d| d.as_secs_f64() * 1000.0),
            aaaa_first: self.aaaa_first,
        };
        Ok((sample, run.log))
    }
}

/// [`crate::runner::run_cad_case`] through the fast path: calibrate once,
/// drive each delay's cell once, simulate only what the model refuses.
/// Produces the exact sample sequence of the simulated sweep.
pub fn run_cad_case_fast(
    profile: &ClientProfile,
    cfg: &CadCaseConfig,
    seed: u64,
) -> Vec<CadSample> {
    let delays = cfg.sweep.values();
    let verify: Vec<(u64, u64)> = verify_endpoints(&delays)
        .into_iter()
        .map(|d| (d, derive_case_seed(seed, CAD_SEED_TAG, d, 0)))
        .collect();
    let fp = CadFastPath::calibrate(profile, seed, &verify);
    let mut out = Vec::new();
    for delay_ms in delays {
        let cell = fp.as_ref().map(|fp| {
            book_cell();
            fp.cell(delay_ms)
        });
        for rep in 0..cfg.repetitions {
            if let Some(cell) = &cell {
                book_run(cell);
            }
            let sample = match &cell {
                Some(Ok(sample)) => CadSample { rep, ..*sample },
                _ => {
                    let run_seed = derive_case_seed(seed, CAD_SEED_TAG, delay_ms, rep);
                    run_cad_once(profile, delay_ms, rep, run_seed, &[])
                }
            };
            out.push(sample);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// RD fast path
// ---------------------------------------------------------------------------

/// Calibrated analytic model of one client's Resolution-Delay sweep.
pub struct RdFastPath {
    cfg: lazyeye_core::HeConfig,
    qtypes: Vec<RrType>,
    base: Timeline,
    target: RrType,
}

impl RdFastPath {
    /// Calibrates the model for `profile` with `delayed` record type and
    /// verifies as [`CadFastPath::calibrate`] does.
    pub fn calibrate(
        profile: &ClientProfile,
        delayed: DelayedRecord,
        probe_seed: u64,
        verify: &[(u64, u64)],
    ) -> Option<RdFastPath> {
        if profile.he.use_quic {
            note_fallback("quic");
            return None;
        }
        counter("fastpath.calibrations").inc();
        let target = match delayed {
            DelayedRecord::Aaaa => lazyeye_authns::DelayTarget::Aaaa,
            DelayedRecord::A => lazyeye_authns::DelayTarget::A,
        };
        let mut topo = test_domain_topology(
            probe_seed,
            "rd.test",
            vec!["192.0.2.1".parse().unwrap()],
            vec!["2001:db8::1".parse().unwrap()],
        );
        // Delay-0 probe name; the engine log carries no names, so the
        // calibration nonce never leaks into modelled runs.
        let params = lazyeye_authns::TestParams::delay(0, target, "cal");
        let qname = lazyeye_dns::Name::parse(&format!("{}.rd.test", params.to_label())).unwrap();
        let base = probe(profile, &mut topo, &qname);
        let fp = RdFastPath {
            cfg: profile.he.clone(),
            qtypes: StubConfig::default().qtypes,
            base,
            target: match delayed {
                DelayedRecord::Aaaa => RrType::Aaaa,
                DelayedRecord::A => RrType::A,
            },
        };
        for &(delay_ms, run_seed) in verify {
            let (actual, actual_log) = run_rd_once_log(profile, delayed, delay_ms, 0, run_seed);
            let Ok((predicted, predicted_log)) = fp.cell_logged(delay_ms) else {
                return None;
            };
            if predicted_log.events != actual_log.events || !rd_samples_agree(&predicted, &actual) {
                return None;
            }
        }
        Some(fp)
    }

    /// One modelled cell: the configured answer delay shifts the delayed
    /// record's arrival; the channel re-sorts by arrival time. A shifted
    /// answer landing at the same instant as an unshifted one makes the
    /// channel order simulator-dependent, so that cell refuses — except
    /// at zero delay, where nothing moved and the calibrated order holds.
    /// Sample, refusal and purity as in [`CadFastPath::cell`].
    pub fn cell(&self, delay_ms: u64) -> Result<RdSample, &'static str> {
        self.cell_logged(delay_ms).map(|(sample, _)| sample)
    }

    fn cell_logged(&self, delay_ms: u64) -> Result<(RdSample, HeLog), &'static str> {
        let delay = Duration::from_millis(delay_ms);
        let mut dns: Vec<Arrival<'_>> = self
            .base
            .dns
            .iter()
            .map(|(at, answer)| {
                let shift = if answer.qtype == self.target {
                    delay
                } else {
                    Duration::ZERO
                };
                Arrival {
                    at: *at + shift,
                    shift,
                    answer,
                }
            })
            .collect();
        // Stable by time: equally-shifted answers keep their calibrated
        // channel order; a cross-shift tie is ambiguous. At zero delay
        // every shift is zero, so the calibrated order stands untouched.
        dns.sort_by_key(|a| a.at);
        if dns
            .windows(2)
            .any(|w| w[0].at == w[1].at && w[0].shift != w[1].shift)
        {
            return Err("tie");
        }
        let run = drive(
            &self.cfg,
            self.qtypes.clone(),
            SimTime::ZERO,
            &dns,
            |addr, proto| self.base.outcome(addr, proto),
        )
        .map_err(|r| r.label())?;
        let first_attempt_ms = [Family::V6, Family::V4]
            .iter()
            .filter_map(|f| run.log.first_attempt(*f))
            .min()
            .map(|t| t.as_nanos() as f64 / 1e6);
        let sample = RdSample {
            configured_delay_ms: delay_ms,
            rep: 0,
            family: run.result.as_ref().ok().map(|w| w.family),
            first_attempt_ms,
            used_rd: run.log.used_resolution_delay(),
        };
        Ok((sample, run.log))
    }
}

/// [`crate::runner::run_rd_case`] through the fast path; see
/// [`run_cad_case_fast`].
pub fn run_rd_case_fast(profile: &ClientProfile, cfg: &RdCaseConfig, seed: u64) -> Vec<RdSample> {
    let delays = cfg.sweep.values();
    let verify: Vec<(u64, u64)> = verify_endpoints(&delays)
        .into_iter()
        .map(|d| (d, derive_case_seed(seed, RD_SEED_TAG, d, 0)))
        .collect();
    let fp = RdFastPath::calibrate(profile, cfg.delayed, seed, &verify);
    let mut out = Vec::new();
    for delay_ms in delays {
        let cell = fp.as_ref().map(|fp| {
            book_cell();
            fp.cell(delay_ms)
        });
        for rep in 0..cfg.repetitions {
            if let Some(cell) = &cell {
                book_run(cell);
            }
            let sample = match &cell {
                Some(Ok(sample)) => RdSample { rep, ..*sample },
                _ => {
                    let run_seed = derive_case_seed(seed, RD_SEED_TAG, delay_ms, rep);
                    run_rd_once(profile, cfg.delayed, delay_ms, rep, run_seed)
                }
            };
            out.push(sample);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::SweepSpec;
    use crate::runner::{run_cad_case, run_rd_case};
    use lazyeye_clients::{all_measured_clients, table2_clients};

    fn cad_eq(a: &CadSample, b: &CadSample) {
        assert_eq!(a.configured_delay_ms, b.configured_delay_ms);
        assert_eq!(a.rep, b.rep);
        assert!(cad_samples_agree(a, b), "{a:?} vs {b:?}");
    }

    fn rd_eq(a: &RdSample, b: &RdSample) {
        assert_eq!(a.configured_delay_ms, b.configured_delay_ms);
        assert_eq!(a.rep, b.rep);
        assert!(rd_samples_agree(a, b), "{a:?} vs {b:?}");
    }

    #[test]
    fn cad_fast_matches_simulated_sweep() {
        let cfg = CadCaseConfig {
            sweep: SweepSpec {
                start_ms: 0,
                end_ms: 400,
                step_ms: 100,
            },
            repetitions: 2,
        };
        for profile in table2_clients() {
            let slow = run_cad_case(&profile, &cfg, 7);
            let fast = run_cad_case_fast(&profile, &cfg, 7);
            assert_eq!(slow.len(), fast.len());
            for (a, b) in fast.iter().zip(&slow) {
                cad_eq(a, b);
            }
        }
    }

    #[test]
    fn rd_fast_matches_simulated_sweep() {
        let cfg = RdCaseConfig {
            delayed: DelayedRecord::Aaaa,
            sweep: SweepSpec {
                start_ms: 0,
                end_ms: 120,
                step_ms: 40,
            },
            repetitions: 2,
        };
        for profile in table2_clients() {
            let slow = run_rd_case(&profile, &cfg, 11);
            let fast = run_rd_case_fast(&profile, &cfg, 11);
            assert_eq!(slow.len(), fast.len());
            for (a, b) in fast.iter().zip(&slow) {
                rd_eq(a, b);
            }
        }
    }

    #[test]
    fn rd_models_verify_from_zero_delay_for_every_measured_client() {
        // Every RD sweep starts at 0 ms, where the delayed and the
        // undelayed answer arrive together. That endpoint is no tie: the
        // calibrated channel order holds, so every model must verify.
        let sweep = SweepSpec::new(0, 400, 100);
        for profile in all_measured_clients() {
            assert!(!profile.he.use_quic, "{} races QUIC", profile.id());
            for delayed in [DelayedRecord::Aaaa, DelayedRecord::A] {
                let verify: Vec<(u64, u64)> = verify_endpoints(&sweep.values())
                    .into_iter()
                    .map(|d| (d, derive_case_seed(7, RD_SEED_TAG, d, 0)))
                    .collect();
                assert_eq!(verify[0].0, 0);
                assert!(
                    RdFastPath::calibrate(&profile, delayed, 7, &verify).is_some(),
                    "{} {delayed:?}: RD model failed to verify",
                    profile.id()
                );
            }
        }
    }

    /// One differential cell: the model either refuses (the refusal is
    /// logged for pinning) or matches full simulation byte for byte —
    /// event streams by equality, samples by their exact `Debug`
    /// rendering (which round-trips every `f64`).
    fn check_cell(
        refusals: &mut Vec<String>,
        cell: String,
        fast: Result<(String, HeLog), &'static str>,
        simulate: impl FnOnce() -> (String, HeLog),
    ) {
        match fast {
            Err(reason) => refusals.push(format!("{cell} {reason}")),
            Ok((sample, log)) => {
                let (sim_sample, sim_log) = simulate();
                assert_eq!(log.events, sim_log.events, "{cell}: events");
                assert_eq!(sample, sim_sample, "{cell}: sample");
            }
        }
    }

    #[test]
    fn fast_path_refuses_or_matches_simulation_cell_by_cell() {
        // Every measured client × {CAD, RD-AAAA, RD-A} × every delay
        // 0..=400 ms, against unverified models: the analytic model alone
        // must either refuse or reproduce full simulation exactly. The
        // refusals are pinned; each is a same-instant tie the simulator
        // breaks by scheduling order.
        let mut refusals = Vec::new();
        for profile in all_measured_clients() {
            let id = profile.id();
            let cad = CadFastPath::calibrate(&profile, 7, &[]).expect("non-QUIC calibrates");
            let rd = [DelayedRecord::Aaaa, DelayedRecord::A].map(|delayed| {
                let fp = RdFastPath::calibrate(&profile, delayed, 7, &[]);
                (delayed, fp.expect("non-QUIC calibrates"))
            });
            for delay_ms in 0..=400 {
                let seed = derive_case_seed(7, CAD_SEED_TAG, delay_ms, 0);
                check_cell(
                    &mut refusals,
                    format!("{id} cad {delay_ms}"),
                    cad.cell_logged(delay_ms)
                        .map(|(s, log)| (format!("{s:?}"), log)),
                    || {
                        let (s, log) = run_cad_once_log(&profile, delay_ms, 0, seed);
                        (format!("{s:?}"), log)
                    },
                );
                for (delayed, fp) in &rd {
                    let seed = derive_case_seed(7, RD_SEED_TAG, delay_ms, 0);
                    check_cell(
                        &mut refusals,
                        format!("{id} rd-{delayed:?} {delay_ms}"),
                        fp.cell_logged(delay_ms)
                            .map(|(s, log)| (format!("{s:?}"), log)),
                        || {
                            let (s, log) = run_rd_once_log(&profile, *delayed, delay_ms, 0, seed);
                            (format!("{s:?}"), log)
                        },
                    );
                }
            }
        }
        assert_eq!(refusals, PINNED_REFUSALS);
    }

    /// CAD: the IPv6 handshake completes exactly when the fixed CAD timer
    /// fires (curl 200 ms, Firefox 250 ms, Chromium family 300 ms).
    /// RD-AAAA: the delayed AAAA arrives exactly when the 50 ms
    /// Resolution Delay expires (Safari family, HEv3-flag Chromium).
    const PINNED_REFUSALS: &[&str] = &[
        "curl-7.88.1 cad 200 tie",
        "firefox-96.0 cad 250 tie",
        "firefox-109.0 cad 250 tie",
        "firefox-122.0 cad 250 tie",
        "firefox-132.0 cad 250 tie",
        "edge-90.0 cad 300 tie",
        "edge-96.0 cad 300 tie",
        "edge-108.0 cad 300 tie",
        "edge-120.0 cad 300 tie",
        "edge-130.0 cad 300 tie",
        "chromium-130.0 cad 300 tie",
        "chrome-88.0 cad 300 tie",
        "chrome-96.0 cad 300 tie",
        "chrome-108.0 cad 300 tie",
        "chrome-120.0 cad 300 tie",
        "chrome-130.0 cad 300 tie",
        "safari-17.5 rd-Aaaa 50 tie",
        "safari-17.6 rd-Aaaa 50 tie",
        "safari-18.0.1 rd-Aaaa 50 tie",
        "mobile-safari-17.5 rd-Aaaa 50 tie",
        "mobile-safari-17.6 rd-Aaaa 50 tie",
        "mobile-safari-18.1 rd-Aaaa 50 tie",
        "chromium-(hev3-flag)-130.0 rd-Aaaa 50 tie",
        "chromium-(hev3-flag)-130.0 cad 300 tie",
    ];

    #[test]
    fn quic_profile_refuses_calibration() {
        // No shipped profile races QUIC by default; flip the knob on one.
        let mut p = table2_clients().remove(0);
        p.he.use_quic = true;
        let aggregate = counter("fastpath.fallbacks");
        let quic = lazyeye_obs::counter_labeled(
            "fastpath.fallbacks",
            "reason",
            "quic",
            lazyeye_obs::Clock::Virtual,
        );
        let (agg_before, quic_before) = (aggregate.get(), quic.get());
        assert!(CadFastPath::calibrate(&p, 1, &[]).is_none());
        assert_eq!(quic.get(), quic_before + 1, "quic refusal labeled");
        assert_eq!(aggregate.get(), agg_before + 1, "aggregate stays the sum");
    }
}
