//! The web tool's resolver check: "we provide a web-based testing tool
//! that allows users to check their configured resolver" (§5.3).
//!
//! The tool serves a zone whose delegation is **IPv6-only** (the NS name
//! has only AAAA glue, and the authoritative server has no IPv4 address).
//! A user's resolver that cannot walk IPv6-only delegations — Hurricane
//! Electric, Lumen, Dyn, G-Core in the paper's Table 4 — fails this
//! resolution; capable resolvers answer. The user's browser only needs to
//! fetch one name and look at the outcome.

use std::net::{IpAddr, SocketAddr};
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Duration;

use lazyeye_authns::{serve as serve_dns, AuthConfig, AuthServer};
use lazyeye_dns::{Name, RrType, Zone, ZoneSet};
use lazyeye_resolver::{
    serve_recursive, AnswerOutcome, RecursiveConfig, RecursiveResolver, SelectionPolicy,
    StubConfig, StubResolver,
};
use lazyeye_sim::{spawn, spawn_detached};

/// What the user's resolver turned out to support.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolverCheckResult {
    /// Did the IPv6-only-delegated name resolve at all?
    pub ipv6_only_capable: bool,
    /// How long the resolution took (virtual time).
    pub resolution_time: Duration,
    /// Did the resolver send the AAAA query for the NS name before the A
    /// query? (`None` when neither was observed — glue-only paths.)
    pub aaaa_first: Option<bool>,
}

/// The network stack of the user's recursive resolver.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ResolverStack {
    /// Dual-stack resolver host (most public services).
    DualStack,
    /// IPv4-only resolver host (the paper's four excluded services).
    V4Only,
}

/// What every check shares: the root zone delegating the check zone with
/// only AAAA glue, the check zone, the resolver's root hints and the
/// names the check asks and looks for. Built once per process and cloned
/// per check.
struct CheckSetup {
    root_zones: ZoneSet,
    zones: ZoneSet,
    roots: Vec<(Name, Vec<IpAddr>)>,
    resolver: SocketAddr,
    qname: Name,
    ns_name: Name,
}

fn setup() -> &'static CheckSetup {
    static SETUP: OnceLock<CheckSetup> = OnceLock::new();
    SETUP.get_or_init(|| {
        // Root: delegate v6check.test with ONLY AAAA glue.
        let ns_name = Name::parse("ns1.v6check.test").unwrap();
        let mut root_zone = Zone::new(Name::root());
        root_zone.ns(&Name::parse("v6check.test").unwrap(), &ns_name, 3600);
        root_zone.aaaa(&ns_name, "2001:db8:66::53".parse().unwrap(), 3600);
        let mut root_zones = ZoneSet::new();
        root_zones.add(root_zone);

        let qname = Name::parse("www.v6check.test").unwrap();
        let mut zone = Zone::new(Name::parse("v6check.test").unwrap());
        zone.a(&qname, "203.0.113.66".parse().unwrap(), 60);
        let mut zones = ZoneSet::new();
        zones.add(zone);

        CheckSetup {
            root_zones,
            zones,
            roots: vec![(
                Name::parse("ns.root").unwrap(),
                vec![
                    "198.41.0.4".parse::<IpAddr>().unwrap(),
                    "2001:503:ba3e::2:30".parse::<IpAddr>().unwrap(),
                ],
            )],
            resolver: SocketAddr::new("192.0.2.10".parse().unwrap(), 53),
            qname,
            ns_name,
        }
    })
}

/// Builds the check topology and runs one resolver check: a user behind a
/// recursive resolver (with the given stack and policy) resolving a name
/// under an IPv6-only delegation served by the tool.
pub fn check_resolver(
    stack: ResolverStack,
    policy: SelectionPolicy,
    seed: u64,
) -> ResolverCheckResult {
    let mut sim = lazyeye_sim::pooled(seed);
    let net = lazyeye_net::Network::new();
    let root = net
        .host("root")
        .v4("198.41.0.4")
        .v6("2001:503:ba3e::2:30")
        .build();
    // The resolver's AAAA-vs-A order is read from the root's capture.
    root.set_capture(true);
    // The IPv6-only authoritative server for the check zone.
    let v6ns = net.host("v6only-ns").v6("2001:db8:66::53").build();
    let resolver_host = match stack {
        ResolverStack::DualStack => net
            .host("resolver")
            .v4("192.0.2.10")
            .v6("2001:db8::10")
            .build(),
        ResolverStack::V4Only => net.host("resolver").v4("192.0.2.10").build(),
    };
    let user = net
        .host("user")
        .v4("192.0.2.200")
        .v6("2001:db8::200")
        .build();

    let setup = setup();
    sim.enter(|| {
        spawn_detached(serve_dns(
            root.udp_bind_any(53).unwrap(),
            AuthServer::new(AuthConfig {
                zones: setup.root_zones.clone(),
                ..AuthConfig::default()
            }),
        ));
        spawn_detached(serve_dns(
            v6ns.udp_bind_any(53).unwrap(),
            AuthServer::new(AuthConfig {
                zones: setup.zones.clone(),
                ..AuthConfig::default()
            }),
        ));
        let mut rcfg = RecursiveConfig::new(setup.roots.clone());
        rcfg.policy = policy;
        let resolver = RecursiveResolver::new(resolver_host.clone(), rcfg);
        spawn(serve_recursive(
            resolver_host.udp_bind_any(53).unwrap(),
            resolver,
        ));
    });

    let stub = Rc::new(StubResolver::new(
        user,
        StubConfig {
            servers: vec![setup.resolver],
            attempt_timeout: Duration::from_secs(3),
            retries: 0,
            ..StubConfig::default()
        },
    ));
    let (outcome, elapsed) = {
        let stub = Rc::clone(&stub);
        sim.block_on(async move {
            let t0 = lazyeye_sim::now();
            let ans = stub.query_one(&setup.qname, RrType::A).await;
            (ans.outcome, lazyeye_sim::now() - t0)
        })
    };

    // AAAA-vs-A ordering of the resolver towards the root (for the NS
    // name) — observable in the root's capture.
    let mut aaaa_pos = None;
    let mut a_pos = None;
    for (i, rec) in root.capture().udp_rx().enumerate() {
        if let Ok(msg) = lazyeye_dns::Message::decode(&rec.payload) {
            if let Some(q) = msg.question() {
                if q.name == setup.ns_name {
                    match q.qtype {
                        RrType::Aaaa if aaaa_pos.is_none() => aaaa_pos = Some(i),
                        RrType::A if a_pos.is_none() => a_pos = Some(i),
                        _ => {}
                    }
                }
            }
        }
    }
    let aaaa_first = match (aaaa_pos, a_pos) {
        (Some(x), Some(y)) => Some(x < y),
        (Some(_), None) => Some(true),
        (None, Some(_)) => Some(false),
        (None, None) => None,
    };

    ResolverCheckResult {
        ipv6_only_capable: outcome == AnswerOutcome::Ok,
        resolution_time: elapsed,
        aaaa_first,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_stack_resolver_passes_the_check() {
        let r = check_resolver(ResolverStack::DualStack, SelectionPolicy::default(), 1);
        assert!(r.ipv6_only_capable);
        assert!(r.resolution_time < Duration::from_secs(1));
    }

    #[test]
    fn v4_only_resolver_fails_the_check() {
        // Hurricane Electric / Lumen / Dyn / G-Core behaviour: no IPv6 on
        // the resolution path, so the IPv6-only delegation dead-ends.
        let r = check_resolver(ResolverStack::V4Only, SelectionPolicy::default(), 2);
        assert!(!r.ipv6_only_capable);
    }

    #[test]
    fn query_order_matches_policy() {
        use lazyeye_resolver::NsQueryStyle;
        let policy = SelectionPolicy {
            ns_query_style: NsQueryStyle::AaaaBeforeA,
            ..SelectionPolicy::default()
        };
        let r = check_resolver(ResolverStack::DualStack, policy, 3);
        // With dual-stack glue present the resolver may not need extra NS
        // address queries at all; when it does, AAAA leads.
        assert!(r.aaaa_first.unwrap_or(true));
    }
}
