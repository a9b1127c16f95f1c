//! The web-based tool's server deployment (§4.3(ii)): 18 fixed delay
//! tiers between 0 and 5 s, each with dedicated IPv4/IPv6 addresses and a
//! dedicated domain, IPv6 shaped per tier, and HTTP endpoints that return
//! the client's source address.

use std::io::Write;
use std::net::{IpAddr, SocketAddr};
use std::rc::Rc;
use std::sync::OnceLock;

use bytes::Bytes;
use lazyeye_authns::{serve as serve_dns, AuthConfig, AuthServer, TestDomain};
use lazyeye_clients::http::{serve_http, Handler, HttpRequest, HttpResponse};
use lazyeye_dns::{Name, Zone, ZoneSet};
use lazyeye_net::{Host, IpPrefix, Netem, NetemRule, Network};
use lazyeye_sim::{spawn, spawn_detached, Sim};
use std::time::Duration;

/// The web tool's fixed delay tiers (ms): 18 values between 0 and 5 s, as
/// in the paper ("a fixed set of 18 delays between 0 and 5 s").
pub const TIERS_MS: [u64; 18] = [
    0, 50, 100, 150, 200, 250, 300, 350, 400, 500, 750, 1000, 1250, 1500, 2000, 3000, 4000, 5000,
];

/// Emulated real-world network conditions between the user and the
/// deployment (the web tool measures through actual networks, unlike the
/// clean local testbed).
#[derive(Clone, Copy, Debug)]
pub struct WebConditions {
    /// Base one-way propagation delay.
    pub base_delay: Duration,
    /// Uniform jitter applied to every packet.
    pub jitter: Duration,
}

impl Default for WebConditions {
    fn default() -> Self {
        WebConditions {
            base_delay: Duration::from_millis(8),
            jitter: Duration::from_millis(3),
        }
    }
}

/// A deployed web tool instance.
pub struct WebToolDeployment {
    /// The simulation.
    pub sim: Sim,
    /// The fabric.
    pub net: Network,
    /// The deployment host (carries all tier addresses).
    pub server: Host,
    /// The user's machine.
    pub client: Host,
    /// Per-tier (delay_ms, v4 address, v6 address, domain).
    pub tiers: Vec<(u64, IpAddr, IpAddr, Name)>,
}

/// The tier's IPv4 address.
pub fn tier_v4(i: usize) -> IpAddr {
    format!("198.51.100.{}", i + 1).parse().unwrap()
}

/// The tier's IPv6 address.
pub fn tier_v6(i: usize) -> IpAddr {
    format!("2001:db8:77::{:x}", i + 1).parse().unwrap()
}

/// The tier's dedicated domain (`d<ms>.wt.test`).
pub fn tier_domain(delay_ms: u64) -> Name {
    Name::parse(&format!("d{delay_ms}.wt.test")).unwrap()
}

/// The resolver address the web tool's clients use.
pub fn web_resolver_addr() -> SocketAddr {
    SocketAddr::new("198.51.100.53".parse().unwrap(), 53)
}

/// The RD test domain apex served by the deployment.
pub fn rd_apex() -> Name {
    Name::parse("rd.wt.test").unwrap()
}

/// What every deployment shares: the tier layout, the zone and the RD
/// test domain. Built once per process and cloned per session (as
/// `testbed::default_zone` is), since none of it depends on the session.
pub(crate) struct Layout {
    /// Per-tier (delay_ms, v4 address, v6 address, domain).
    pub tiers: Vec<(u64, IpAddr, IpAddr, Name)>,
    zones: ZoneSet,
    rd_domain: TestDomain,
}

pub(crate) fn layout() -> &'static Layout {
    static LAYOUT: OnceLock<Layout> = OnceLock::new();
    LAYOUT.get_or_init(|| {
        let tiers: Vec<_> = TIERS_MS
            .iter()
            .enumerate()
            .map(|(i, &ms)| (ms, tier_v4(i), tier_v6(i), tier_domain(ms)))
            .collect();
        let mut zone = Zone::new(Name::parse("wt.test").unwrap());
        for (_, v4, v6, domain) in &tiers {
            let (IpAddr::V4(v4), IpAddr::V6(v6)) = (*v4, *v6) else {
                unreachable!()
            };
            zone.a(domain, v4, 60);
            zone.aaaa(domain, v6, 60);
        }
        let mut zones = ZoneSet::new();
        zones.add(zone);
        let rd_domain = TestDomain {
            apex: rd_apex(),
            v4: match tiers[0].1 {
                IpAddr::V4(a) => vec![a],
                _ => unreachable!(),
            },
            v6: match tiers[0].2 {
                IpAddr::V6(a) => vec![a],
                _ => unreachable!(),
            },
            ttl: 60,
        };
        Layout {
            tiers,
            zones,
            rd_domain,
        }
    })
}

/// Answers `/ip` with the peer's address: printed on the stack and copied
/// once into the body.
fn echo_ip(peer: SocketAddr) -> HttpResponse {
    let mut buf = [0u8; 64];
    let len = {
        let mut out = &mut buf[..];
        write!(out, "{}", peer.ip()).expect("an IP address fits in 64 bytes");
        64 - out.len()
    };
    HttpResponse::ok(Bytes::copy_from_slice(&buf[..len]))
}

/// Deploys the web tool: DNS for every tier domain, shaped per-address
/// IPv6 delays, HTTP on every address answering `/ip` with the source
/// address, and the RD test domain (parameter-encoded names resolving to
/// the tier-0 addresses).
pub fn deploy(seed: u64, conditions: WebConditions) -> WebToolDeployment {
    let layout = layout();
    let sim = lazyeye_sim::pooled(seed);
    let net = Network::new();

    let mut server_builder = net
        .host("webtool")
        .v4("198.51.100.53")
        .v6("2001:db8:77::53");
    for &(_, v4, v6, _) in &layout.tiers {
        server_builder = server_builder.addr(v4).addr(v6);
    }
    let server = server_builder.build();
    let client = net
        .host("user")
        .v4("203.0.113.77")
        .v6("2001:db8:aaaa::77")
        .build();

    // Real-world-ish conditions on the user's uplink.
    client.add_egress(NetemRule::all(
        Netem::delay(conditions.base_delay).with_jitter(conditions.jitter),
    ));
    client.add_ingress(NetemRule::all(
        Netem::delay(conditions.base_delay).with_jitter(conditions.jitter),
    ));

    // Per-tier IPv6 shaping: delay traffic *from* the tier's v6 address.
    for &(ms, _, v6, _) in &layout.tiers {
        if ms > 0 {
            server.add_egress(
                NetemRule::family(lazyeye_net::Family::V6, Netem::delay_ms(ms))
                    .with_src(IpPrefix::host(v6)),
            );
        }
    }

    // DNS: one domain per tier + the RD test domain.
    let auth = AuthServer::new(AuthConfig {
        zones: layout.zones.clone(),
        test_domains: vec![layout.rd_domain.clone()],
        ..AuthConfig::default()
    });

    sim.enter(|| {
        spawn_detached(serve_dns(server.udp_bind_any(53).unwrap(), auth));
        let listener = server.tcp_listen_any(80).unwrap();
        let handler: Handler = Rc::new(|req: &HttpRequest, peer: SocketAddr| match req.path() {
            "/ip" => echo_ip(peer),
            "/ua" => HttpResponse::ok(req.header("user-agent").unwrap_or("").to_string()),
            _ => HttpResponse::not_found(),
        });
        spawn(serve_http(listener, handler));
    });

    WebToolDeployment {
        sim,
        net,
        server,
        client,
        tiers: layout.tiers.clone(),
    }
}

impl WebToolDeployment {
    /// Runs a CAD session for one client profile and returns the result.
    pub fn run_cad_session(
        &mut self,
        profile: &lazyeye_clients::ClientProfile,
        repetitions: u32,
    ) -> crate::session::WebSessionResult {
        let host = self.client.clone();
        let profile = profile.clone();
        self.sim
            .block_on(async move { crate::session::cad_session(host, profile, repetitions).await })
    }

    /// Runs an RD session (delaying `delayed` answers) for one profile.
    pub fn run_rd_session(
        &mut self,
        profile: &lazyeye_clients::ClientProfile,
        repetitions: u32,
        delayed: lazyeye_authns::DelayTarget,
    ) -> crate::session::WebSessionResult {
        let host = self.client.clone();
        let profile = profile.clone();
        self.sim.block_on(async move {
            crate::session::rd_session(host, profile, repetitions, delayed).await
        })
    }

    /// Runs the campaign over a population of profiles, producing
    /// submissions (the Table 5 inventory source).
    pub fn run_campaign(
        &mut self,
        population: &[lazyeye_clients::ClientProfile],
        repetitions: u32,
    ) -> Vec<crate::session::Submission> {
        let mut out = Vec::new();
        for (i, profile) in population.iter().enumerate() {
            let result = self.run_cad_session(profile, repetitions);
            out.push(crate::session::Submission {
                user_agent: profile.user_agent(),
                asn: 64500 + (i as u32 % 7), // documentation-range ASNs
                result,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighteen_tiers_up_to_5s() {
        assert_eq!(TIERS_MS.len(), 18);
        assert_eq!(TIERS_MS[0], 0);
        assert_eq!(*TIERS_MS.last().unwrap(), 5000);
        let mut sorted = TIERS_MS;
        sorted.sort_unstable();
        assert_eq!(sorted, TIERS_MS, "tiers ascend");
    }

    #[test]
    fn deployment_addresses_are_distinct() {
        let d = deploy(1, WebConditions::default());
        let mut seen = std::collections::HashSet::new();
        for (_, v4, v6, _) in &d.tiers {
            assert!(seen.insert(*v4));
            assert!(seen.insert(*v6));
        }
        assert_eq!(d.tiers.len(), 18);
    }

    #[test]
    fn tier_domains_resolve_to_tier_addresses() {
        let mut d = deploy(2, WebConditions::default());
        let client = d.client.clone();
        let (a, aaaa) = d.sim.block_on(async move {
            let sock = client.udp_bind_any(0).unwrap();
            let q = lazyeye_dns::Message::query(1, tier_domain(250), lazyeye_dns::RrType::A);
            sock.send_to(q.encode().into(), web_resolver_addr())
                .unwrap();
            let (p, _) = sock.recv_from().await.unwrap();
            let a = lazyeye_dns::Message::decode(&p).unwrap();
            let q6 = lazyeye_dns::Message::query(2, tier_domain(250), lazyeye_dns::RrType::Aaaa);
            sock.send_to(q6.encode().into(), web_resolver_addr())
                .unwrap();
            let (p6, _) = sock.recv_from().await.unwrap();
            (a, lazyeye_dns::Message::decode(&p6).unwrap())
        });
        assert_eq!(a.answers.len(), 1);
        assert_eq!(aaaa.answers.len(), 1);
    }
}
