//! Criterion ablations for four design choices:
//!
//! 1. fixed vs dynamic CAD — time-to-connect under broken IPv6;
//! 2. Resolution Delay present vs absent under a slow A lookup (the §5.2
//!    stall pathology, measured as virtual time-to-connect);
//! 3. interlacing strategies when the first k preferred addresses are
//!    dead;
//! 4. resolver same-address backoff vs plain failover.
//!
//! Criterion measures *wall-clock* cost of running each scenario; each
//! bench also asserts the virtual-time outcome it is about, so the
//! ablation conclusions are checked on every run.

use criterion::{criterion_group, criterion_main, Criterion};
use lazyeye_clients::Client;
use lazyeye_core::{CadMode, InterlaceStrategy};
use lazyeye_net::Family;
use lazyeye_testbed::topology::{default_local_topology, resolver_addr, test_domain_topology, www};
use std::time::Duration;

fn chrome() -> lazyeye_clients::ClientProfile {
    lazyeye_clients::figure2_clients()
        .into_iter()
        .find(|c| c.name == "Chrome" && c.version == "130.0")
        .unwrap()
}

fn safari() -> lazyeye_clients::ClientProfile {
    lazyeye_clients::safari_clients()
        .into_iter()
        .find(|c| !c.mobile)
        .unwrap()
}

/// Virtual time to connect under a dead IPv6 path for a given CAD mode.
fn ttc_with_cad(cad: CadMode, warm_rtt: Option<Duration>) -> Duration {
    let mut topo = default_local_topology(5);
    topo.server.blackhole("2001:db8::1".parse().unwrap());
    let mut profile = chrome();
    profile.he.cad = cad;
    let client = Client::new(profile, topo.client.clone(), vec![resolver_addr()]);
    if let Some(rtt) = warm_rtt {
        client
            .history()
            .record_rtt("2001:db8::1".parse().unwrap(), rtt);
        client
            .history()
            .record_rtt("192.0.2.1".parse().unwrap(), rtt);
    }
    let res = topo
        .sim
        .block_on(async move { client.connect_only(&www(), 80).await });
    res.log.time_to_connect().expect("v4 fallback connects")
}

fn bench(c: &mut Criterion) {
    // --- Ablation 1: fixed vs dynamic CAD under broken IPv6 -------------
    c.bench_function("ablate_cad_fixed_250ms_broken_v6", |b| {
        b.iter(|| {
            let ttc = ttc_with_cad(CadMode::Fixed(Duration::from_millis(250)), None);
            assert!(ttc >= Duration::from_millis(250));
            std::hint::black_box(ttc)
        })
    });
    c.bench_function("ablate_cad_dynamic_warm_broken_v6", |b| {
        b.iter(|| {
            // Warm history (1 ms RTT): dynamic CAD clamps to the 10 ms
            // minimum — an order of magnitude faster fallback than fixed.
            let ttc = ttc_with_cad(CadMode::rfc_dynamic(), Some(Duration::from_millis(1)));
            assert!(ttc < Duration::from_millis(50));
            std::hint::black_box(ttc)
        })
    });

    // --- Ablation 2: RD vs stall under slow A ---------------------------
    c.bench_function("ablate_rd_absent_slow_a_stalls", |b| {
        use lazyeye_testbed::{run_rd_case, DelayedRecord, RdCaseConfig, SweepSpec};
        b.iter(|| {
            let cfg = RdCaseConfig {
                delayed: DelayedRecord::A,
                sweep: SweepSpec::new(800, 800, 1),
                repetitions: 1,
            };
            let stall = run_rd_case(&chrome(), &cfg, 8)[0].first_attempt_ms.unwrap();
            assert!(stall >= 800.0, "no RD => stall");
            std::hint::black_box(stall)
        })
    });
    c.bench_function("ablate_rd_present_slow_a_no_stall", |b| {
        use lazyeye_testbed::{run_rd_case, DelayedRecord, RdCaseConfig, SweepSpec};
        b.iter(|| {
            let cfg = RdCaseConfig {
                delayed: DelayedRecord::A,
                sweep: SweepSpec::new(800, 800, 1),
                repetitions: 1,
            };
            let first = run_rd_case(&safari(), &cfg, 8)[0].first_attempt_ms.unwrap();
            assert!(first < 50.0, "RD => immediate v6");
            std::hint::black_box(first)
        })
    });

    // --- Ablation 3: interlacing with dead preferred addresses ----------
    for (label, strategy) in [
        (
            "rfc8305",
            InterlaceStrategy::Rfc8305 {
                first_family_count: 1,
            },
        ),
        ("safari", InterlaceStrategy::SafariStyle),
        ("hev1", InterlaceStrategy::Hev1SingleFallback),
    ] {
        c.bench_function(&format!("ablate_interlace_{label}_3dead_v6"), |b| {
            b.iter(|| {
                // 3 dead v6 + 1 live v4: strategies differ in how many
                // dead addresses they wade through.
                let mut topo = test_domain_topology(
                    9,
                    "abl.test",
                    vec!["192.0.2.1".parse().unwrap()],
                    (1..=3)
                        .map(|i| format!("2001:db8:dead::{i}").parse().unwrap())
                        .collect(),
                );
                let mut profile = chrome();
                profile.he.interlace = strategy;
                profile.he.quirks.stop_after_first_pair = false;
                profile.he.attempt_timeout = Duration::from_secs(2);
                let client = Client::new(profile, topo.client.clone(), vec![resolver_addr()]);
                let qname = lazyeye_dns::Name::parse("d0-tnone-nabl.abl.test").unwrap();
                let res = topo
                    .sim
                    .block_on(async move { client.connect_only(&qname, 80).await });
                assert_eq!(
                    res.connection.as_ref().ok().map(|c| c.family()),
                    Some(Family::V4),
                    "{label} must reach the live v4 address"
                );
                std::hint::black_box(res.log.time_to_connect())
            })
        });
    }

    // --- Ablation 4: resolver backoff vs plain failover ------------------
    // 0.44 is Unbound's observed same-address retry probability; 1.0 would
    // never fail over at all (the plan caps at max_attempts on one addr).
    for (label, retry_same) in [("backoff", 0.44f64), ("failover", 0.0f64)] {
        c.bench_function(&format!("ablate_resolver_{label}_dead_v6_ns"), |b| {
            use lazyeye_resolver::{unbound, RecursiveConfig, RecursiveResolver};
            use lazyeye_testbed::topology::resolver_topology;
            b.iter(|| {
                let mut topo = resolver_topology(11, "abl");
                topo.auth.blackhole("2001:db8:53::53".parse().unwrap());
                topo.auth.set_capture(true);
                let mut cfg = RecursiveConfig::new(topo.roots.clone());
                cfg.policy = unbound().policy;
                cfg.policy.v6_preference = lazyeye_resolver::V6Preference::Always;
                cfg.policy.retry_same_prob = retry_same;
                let resolver = RecursiveResolver::new(topo.resolver_host.clone(), cfg);
                let qname = topo.qname.clone();
                let ok = topo.sim.block_on(async move {
                    resolver
                        .resolve(&qname, lazyeye_dns::RrType::A)
                        .await
                        .is_ok()
                });
                let v6_rx = topo
                    .auth
                    .capture()
                    .udp_rx()
                    .filter(|r| r.family() == Family::V6)
                    .count();
                if label == "failover" {
                    assert!(ok, "plain failover always reaches the v4 address");
                } else {
                    // Backoff may burn the whole attempt budget on the dead
                    // address (that is the cost being measured); either way
                    // the retries must be visible at the auth server.
                    assert!(ok || v6_rx >= 2, "backoff must at least retry v6");
                }
                // Backoff spends extra virtual time on the dead address.
                std::hint::black_box(topo.sim.now())
            })
        });
    }
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench
}
criterion_main!(benches);
