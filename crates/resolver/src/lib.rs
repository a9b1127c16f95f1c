//! # lazyeye-resolver — stub and recursive DNS resolution
//!
//! Two resolvers built on the simulated network:
//!
//! * [`StubResolver`] — the client-side stub (OS or browser-internal): it
//!   issues AAAA-then-A per RFC 8305 and **streams** answers to the Happy
//!   Eyeballs engine as they arrive, which is what makes the Resolution
//!   Delay measurable.
//! * [`RecursiveResolver`] — a full iterative resolver (root hints,
//!   delegations, glue, CNAME chasing, TTL + negative caching) whose
//!   name-server *selection policy* is parameterised: IPv6 preference,
//!   per-server timeout, same-address backoff, family interleaving. The
//!   [`profiles`] module instantiates BIND 9, Unbound, Knot and the 17
//!   public services the paper measured (§5.3, Tables 3 & 4).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod policy;
pub mod profiles;
mod recursive;
mod serve;
mod stub;

pub use cache::DnsCache;
pub use policy::{
    plan_attempts, prefer_v6, Attempt, NsQueryStyle, RetryStyle, SelectionPolicy, V6Preference,
};
pub use profiles::{
    all_profiles, bind9, knot, open_resolver_profiles, software_profiles, unbound, AaaaMarker,
    ProfileKind, ResolverProfile,
};
pub use recursive::{RecursiveConfig, RecursiveResolver, ResolveError, ResolveResult};
pub use serve::serve_recursive;
pub use stub::{AnswerOutcome, DnsAnswer, QueryOrder, StubConfig, StubResolver};

#[cfg(test)]
mod tests {
    use super::*;
    use lazyeye_authns::{serve, AuthConfig, AuthServer};
    use lazyeye_dns::{Name, RData, Rcode, Record, RrType, Zone, ZoneSet};
    use lazyeye_net::{Direction, Family, Host, Netem, NetemRule, Network, Proto};
    use lazyeye_sim::{spawn, Sim};
    use std::net::{IpAddr, SocketAddr};
    use std::rc::Rc;
    use std::time::Duration;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    /// Topology: root NS + "test." auth NS (dual-stack) + resolver + client.
    struct Bed {
        sim: Sim,
        root: Host,
        auth: Host,
        resolver_host: Host,
        roots: Vec<(Name, Vec<IpAddr>)>,
    }

    fn build_bed(seed: u64) -> Bed {
        let sim = Sim::new(seed);
        let net = Network::new();
        let root = net
            .host("root-ns")
            .v4("198.41.0.4")
            .v6("2001:503:ba3e::2:30")
            .build();
        let auth = net
            .host("auth-ns")
            .v4("192.0.2.53")
            .v6("2001:db8:53::53")
            .build();
        let resolver_host = net
            .host("resolver")
            .v4("192.0.2.10")
            .v6("2001:db8::10")
            .build();

        // Root zone: delegate "test." to ns1.test with dual-stack glue.
        let mut root_zone = Zone::new(Name::root());
        root_zone.ns(&n("test"), &n("ns1.test"), 3600);
        root_zone.a(&n("ns1.test"), "192.0.2.53".parse().unwrap(), 3600);
        root_zone.aaaa(&n("ns1.test"), "2001:db8:53::53".parse().unwrap(), 3600);
        let mut root_zones = ZoneSet::new();
        root_zones.add(root_zone);

        // test. zone content.
        let mut test_zone = Zone::new(n("test"));
        test_zone.ns(&n("test"), &n("ns1.test"), 3600);
        test_zone.a(&n("www.test"), "203.0.113.80".parse().unwrap(), 300);
        test_zone.aaaa(&n("www.test"), "2001:db8:80::80".parse().unwrap(), 300);
        test_zone.add(Record::new(
            n("alias.test"),
            300,
            RData::Cname(n("www.test")),
        ));
        let mut test_zones = ZoneSet::new();
        test_zones.add(test_zone);

        let auth_server = AuthServer::new(AuthConfig {
            zones: test_zones,
            ..AuthConfig::default()
        });
        let root_server = AuthServer::new(AuthConfig {
            zones: root_zones,
            ..AuthConfig::default()
        });

        let roots = vec![(
            n("ns.root"),
            vec![
                "198.41.0.4".parse::<IpAddr>().unwrap(),
                "2001:503:ba3e::2:30".parse::<IpAddr>().unwrap(),
            ],
        )];

        sim.enter(|| {
            spawn(serve(root.udp_bind_any(53).unwrap(), root_server));
            spawn(serve(auth.udp_bind_any(53).unwrap(), auth_server.clone()));
        });

        let _ = auth_server;
        // The tests read all three vantage points' captures.
        for host in [&root, &auth, &resolver_host] {
            host.set_capture(true);
        }
        Bed {
            sim,
            root,
            auth,
            resolver_host,
            roots,
        }
    }

    #[test]
    fn resolves_through_delegation() {
        let mut bed = build_bed(1);
        let resolver = RecursiveResolver::new(
            bed.resolver_host.clone(),
            RecursiveConfig::new(bed.roots.clone()),
        );
        let res = bed
            .sim
            .block_on(async move { resolver.resolve(&n("www.test"), RrType::A).await.unwrap() });
        assert_eq!(res.rcode, Rcode::NoError);
        assert_eq!(res.records.len(), 1);
        assert_eq!(
            res.records[0].rdata,
            RData::A("203.0.113.80".parse().unwrap())
        );
    }

    #[test]
    fn second_resolution_hits_cache() {
        let mut bed = build_bed(1);
        let resolver = RecursiveResolver::new(
            bed.resolver_host.clone(),
            RecursiveConfig::new(bed.roots.clone()),
        );
        let r2 = Rc::clone(&resolver);
        bed.sim.block_on(async move {
            let _ = r2.resolve(&n("www.test"), RrType::Aaaa).await.unwrap();
            let before = r2.cache_stats();
            let _ = r2.resolve(&n("www.test"), RrType::Aaaa).await.unwrap();
            let after = r2.cache_stats();
            assert!(after.0 > before.0, "second resolve must be a cache hit");
        });
        // No second round of packets to the auth server.
        let auth_queries = bed.auth.capture().udp_rx().count();
        assert_eq!(auth_queries, 1, "only one AAAA query reaches the auth NS");
    }

    #[test]
    fn cname_is_chased() {
        let mut bed = build_bed(1);
        let resolver = RecursiveResolver::new(
            bed.resolver_host.clone(),
            RecursiveConfig::new(bed.roots.clone()),
        );
        let res = bed
            .sim
            .block_on(async move { resolver.resolve(&n("alias.test"), RrType::A).await.unwrap() });
        assert_eq!(res.records.len(), 2, "CNAME + A");
        assert_eq!(res.records[0].rtype(), RrType::Cname);
        assert_eq!(res.records[1].rtype(), RrType::A);
    }

    #[test]
    fn nxdomain_resolution() {
        let mut bed = build_bed(1);
        let resolver = RecursiveResolver::new(
            bed.resolver_host.clone(),
            RecursiveConfig::new(bed.roots.clone()),
        );
        let res = bed.sim.block_on(async move {
            resolver
                .resolve(&n("missing.test"), RrType::A)
                .await
                .unwrap()
        });
        assert_eq!(res.rcode, Rcode::NxDomain);
        assert!(res.records.is_empty());
    }

    #[test]
    fn always_prefer_v6_uses_v6_to_auth() {
        let mut bed = build_bed(1);
        let mut cfg = RecursiveConfig::new(bed.roots.clone());
        cfg.policy = bind9().policy;
        let resolver = RecursiveResolver::new(bed.resolver_host.clone(), cfg);
        bed.sim.block_on(async move {
            let _ = resolver.resolve(&n("www.test"), RrType::A).await.unwrap();
        });
        let cap = bed.auth.capture();
        let v6_queries = cap
            .records()
            .iter()
            .filter(|r| r.dir == Direction::Rx && r.proto == Proto::Udp)
            .filter(|r| r.family() == Family::V6)
            .count();
        let v4_queries = cap
            .records()
            .iter()
            .filter(|r| r.dir == Direction::Rx && r.proto == Proto::Udp)
            .filter(|r| r.family() == Family::V4)
            .count();
        assert!(v6_queries > 0, "BIND profile must reach auth over IPv6");
        assert_eq!(v4_queries, 0, "no IPv4 needed when IPv6 answers");
    }

    #[test]
    fn never_prefer_v6_uses_v4_to_auth() {
        let mut bed = build_bed(1);
        let mut cfg = RecursiveConfig::new(bed.roots.clone());
        cfg.policy.v6_preference = V6Preference::Never;
        let resolver = RecursiveResolver::new(bed.resolver_host.clone(), cfg);
        bed.sim.block_on(async move {
            let _ = resolver.resolve(&n("www.test"), RrType::A).await.unwrap();
        });
        let cap = bed.auth.capture();
        let v6_queries = cap
            .records()
            .iter()
            .filter(|r| r.dir == Direction::Rx && r.family() == Family::V6)
            .count();
        assert_eq!(v6_queries, 0);
    }

    #[test]
    fn falls_back_to_v4_when_v6_blackholed() {
        let mut bed = build_bed(1);
        // The auth NS IPv6 address swallows packets (shaped away).
        bed.auth.blackhole("2001:db8:53::53".parse().unwrap());
        let mut cfg = RecursiveConfig::new(bed.roots.clone());
        cfg.policy = bind9().policy; // always v6 first, 800 ms timeout
        let resolver = RecursiveResolver::new(bed.resolver_host.clone(), cfg);
        let res = bed
            .sim
            .block_on(async move { resolver.resolve(&n("www.test"), RrType::A).await.unwrap() });
        assert_eq!(res.records.len(), 1, "answer still obtained via IPv4");
        // The fallback is visible on the resolver host: a v6 query with no
        // answer, then a v4 query ~800 ms later.
        let cap = bed.resolver_host.capture();
        let v6_tx: Vec<_> = cap
            .records()
            .iter()
            .filter(|r| {
                r.dir == Direction::Tx
                    && r.family() == Family::V6
                    && r.dst.port() == 53
                    && r.dst.ip() == "2001:db8:53::53".parse::<IpAddr>().unwrap()
            })
            .collect();
        assert_eq!(v6_tx.len(), 1, "BIND sends exactly one IPv6 packet");
    }

    #[test]
    fn unbound_backoff_retries_same_v6_address() {
        // Find a seed where Unbound (a) picks v6 first and (b) retries it.
        for seed in 0..50 {
            let mut bed = build_bed(seed);
            bed.auth.blackhole("2001:db8:53::53".parse().unwrap());
            let mut cfg = RecursiveConfig::new(bed.roots.clone());
            cfg.policy = unbound().policy;
            let resolver = RecursiveResolver::new(bed.resolver_host.clone(), cfg);
            let res = bed
                .sim
                .block_on(async move { resolver.resolve(&n("www.test"), RrType::A).await });
            assert!(res.is_ok(), "must still resolve via v4");
            let cap = bed.resolver_host.capture();
            let v6_times: Vec<_> = cap
                .records()
                .iter()
                .filter(|r| {
                    r.dir == Direction::Tx
                        && r.dst.ip() == "2001:db8:53::53".parse::<IpAddr>().unwrap()
                })
                .map(|r| r.time)
                .collect();
            if v6_times.len() == 2 {
                let gap = (v6_times[1] - v6_times[0]).as_millis();
                assert_eq!(gap, 376, "retry after the 376 ms timeout");
                return;
            }
        }
        panic!("no seed produced an Unbound same-address retry in 50 tries");
    }

    #[test]
    fn stub_through_recursive_end_to_end() {
        let mut bed = build_bed(1);
        let resolver = RecursiveResolver::new(
            bed.resolver_host.clone(),
            RecursiveConfig::new(bed.roots.clone()),
        );
        let resolver_host = bed.resolver_host.clone();
        // A separate client host using the resolver via stub.
        let net_client = {
            // reuse the bed's network through any host handle: build via root's network
            // (hosts share the world), so just bind a new address on resolver's net.
            // Simplest: give the resolver host a client role too.
            resolver_host.clone()
        };
        let ans = bed.sim.block_on(async move {
            spawn(serve_recursive(
                resolver_host.udp_bind_any(53).unwrap(),
                resolver,
            ));
            let stub = Rc::new(StubResolver::new(
                net_client.clone(),
                StubConfig {
                    servers: vec![SocketAddr::new("192.0.2.10".parse().unwrap(), 53)],
                    ..StubConfig::default()
                },
            ));
            stub.query_one(&n("www.test"), RrType::Aaaa).await
        });
        assert_eq!(ans.outcome, AnswerOutcome::Ok);
        assert_eq!(
            ans.records[0].rdata,
            RData::Aaaa("2001:db8:80::80".parse().unwrap())
        );
    }

    #[test]
    fn slow_auth_delegates_timeout_to_stub() {
        // The paper's §5.2 finding: clients without their own DNS timeout
        // inherit the recursive resolver's. Delay AAAA at the auth server
        // beyond the resolver's per-server timeout and watch the stub wait.
        let mut bed = build_bed(1);
        bed.auth.add_egress(NetemRule::all(Netem::delay_ms(0))); // no-op rule exercise
        let mut cfg = RecursiveConfig::new(bed.roots.clone());
        cfg.policy.server_timeout = Duration::from_millis(300);
        cfg.policy.max_attempts = 2;
        let resolver = RecursiveResolver::new(bed.resolver_host.clone(), cfg);
        let resolver_host = bed.resolver_host.clone();

        // Delay every response from the auth server by 900 ms (looks like a
        // slow path; resolver retries at 300 ms and eventually gets the
        // late answer or fails).
        let auth_host = bed.auth.clone();
        auth_host.clear_netem();
        auth_host.add_egress(NetemRule::all(Netem::delay_ms(900)).with_proto(Proto::Udp));

        let (outcome, elapsed_ms) = bed.sim.block_on(async move {
            spawn(serve_recursive(
                resolver_host.udp_bind_any(53).unwrap(),
                resolver,
            ));
            let stub = Rc::new(StubResolver::new(
                resolver_host.clone(),
                StubConfig {
                    servers: vec![SocketAddr::new("192.0.2.10".parse().unwrap(), 53)],
                    attempt_timeout: Duration::from_secs(5),
                    retries: 0,
                    ..StubConfig::default()
                },
            ));
            let t0 = lazyeye_sim::now();
            let ans = stub.query_one(&n("www.test"), RrType::Aaaa).await;
            (ans.outcome, (lazyeye_sim::now() - t0).as_millis())
        });
        // Either the resolver eventually fails over and answers late, or
        // the stub sees SERVFAIL/timeout — in all cases the stub waited on
        // the *resolver's* schedule, far beyond any HE Resolution Delay.
        assert!(elapsed_ms >= 300, "stub waited {elapsed_ms} ms");
        let _ = outcome;
    }

    #[test]
    fn root_capture_sees_exactly_one_referral_exchange() {
        let mut bed = build_bed(1);
        let resolver = RecursiveResolver::new(
            bed.resolver_host.clone(),
            RecursiveConfig::new(bed.roots.clone()),
        );
        bed.sim.block_on(async move {
            let _ = resolver.resolve(&n("www.test"), RrType::A).await.unwrap();
        });
        let root_rx = bed.root.capture().udp_rx().count();
        assert_eq!(
            root_rx, 1,
            "one query to the root, then the referral is followed"
        );
    }
}
