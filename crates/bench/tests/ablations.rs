//! Design ablations, each asserting the virtual-time outcome it is
//! about:
//!
//! 1. fixed vs dynamic CAD — time-to-connect under broken IPv6;
//! 2. interlacing strategies when the first three preferred addresses
//!    are dead.
//!
//! Two more are asserted where their subject lives: Resolution Delay
//! present vs absent under a slow A lookup by `lazyeye-testbed`'s
//! `delayed_a_stalls_chrome_but_not_safari`, and resolver failover vs
//! same-address backoff by `lazyeye-resolver`'s
//! `falls_back_to_v4_when_v6_blackholed` and
//! `unbound_backoff_retries_same_v6_address`.

use lazyeye_clients::{Client, ClientProfile};
use lazyeye_core::{CadMode, InterlaceStrategy};
use lazyeye_net::Family;
use lazyeye_testbed::topology::{default_local_topology, resolver_addr, test_domain_topology, www};
use std::time::Duration;

fn chrome() -> ClientProfile {
    lazyeye_clients::figure2_clients()
        .into_iter()
        .find(|c| c.name == "Chrome" && c.version == "130.0")
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

#[test]
fn fixed_cad_waits_out_broken_v6_dynamic_warm_cad_does_not() {
    let ttc = ttc_with_cad(CadMode::Fixed(Duration::from_millis(250)), None);
    assert!(ttc >= Duration::from_millis(250));
    // Warm history (1 ms RTT): dynamic CAD clamps to the 10 ms minimum —
    // an order of magnitude faster fallback than fixed.
    let ttc = ttc_with_cad(CadMode::rfc_dynamic(), Some(Duration::from_millis(1)));
    assert!(ttc < Duration::from_millis(50));
}

#[test]
fn every_interlace_strategy_reaches_v4_past_three_dead_v6() {
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
        // 3 dead v6 + 1 live v4: strategies differ in how many dead
        // addresses they wade through.
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
    }
}
