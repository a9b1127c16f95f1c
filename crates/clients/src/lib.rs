//! # lazyeye-clients — black-box client behaviour models
//!
//! The paper measures real browsers and tools as black boxes; this crate
//! provides the corresponding *white boxes*: each measured client version
//! is a [`ClientProfile`] — a Happy Eyeballs engine configuration plus
//! stub-resolver behaviour — instantiated as a runnable [`Client`] on a
//! simulated host. Running them through the same black-box testbed
//! recovers the paper's published observations.
//!
//! Also here:
//! * [`http`] — a mini HTTP/1.1 stack (the NGINX/web-tool stand-in);
//! * [`ua`] — user-agent generation and parsing (Table 5's attribution);
//! * [`icpr`] — iCloud Private Relay egress models (Akamai/Cloudflare),
//!   reproducing the finding that iCPR replaces Safari's HE with the
//!   egress operator's.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod client;
pub mod http;
pub mod icpr;
mod profiles;
pub mod ua;

pub use client::{Client, FetchResult};
pub use profiles::{
    all_measured_clients, chromium_hev3_flag, figure2_clients, safari_clients, table2_clients,
    table5_population, ClientProfile, Engine,
};

#[cfg(test)]
mod icpr_tests {
    use super::*;
    use crate::http::{serve_http, Handler, HttpRequest, HttpResponse};
    use lazyeye_authns::{serve as serve_dns, AuthConfig, AuthServer};
    use lazyeye_dns::{Name, RrType, Zone, ZoneSet};
    use lazyeye_net::{Family, Netem, NetemRule, Network};
    use lazyeye_sim::{spawn, Sim};
    use std::net::SocketAddr;
    use std::rc::Rc;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn sa(ip: &str, port: u16) -> SocketAddr {
        SocketAddr::new(ip.parse().unwrap(), port)
    }

    struct IcprBed {
        sim: Sim,
        web: lazyeye_net::Host,
        user: lazyeye_net::Host,
    }

    /// user --(relay protocol)--> egress --(DNS+HE+HTTP)--> web server.
    fn build(profile: icpr::EgressProfile) -> IcprBed {
        let sim = Sim::new(3);
        let net = Network::new();
        let web = net.host("web").v4("192.0.2.1").v6("2001:db8::1").build();
        let egress = net
            .host("egress")
            .v4("198.51.100.9")
            .v6("2001:db8:e9::9")
            .build();
        let user = net
            .host("user")
            .v4("192.0.2.200")
            .v6("2001:db8::200")
            .build();

        let mut zone = Zone::new(n("hetest"));
        zone.a(&n("www.hetest"), "192.0.2.1".parse().unwrap(), 300);
        zone.aaaa(&n("www.hetest"), "2001:db8::1".parse().unwrap(), 300);
        let mut zones = ZoneSet::new();
        zones.add(zone);
        let auth = AuthServer::new(AuthConfig {
            zones,
            ..AuthConfig::default()
        });
        sim.enter(|| {
            spawn(serve_dns(web.udp_bind_any(53).unwrap(), auth));
            let listener = web.tcp_listen_any(80).unwrap();
            let handler: Handler = Rc::new(|_req: &HttpRequest, peer: SocketAddr| {
                HttpResponse::ok(format!("src={}", peer.ip()))
            });
            spawn(serve_http(listener, handler));
            icpr::spawn_egress(&egress, 4433, profile, vec![sa("192.0.2.1", 53)]).unwrap();
        });
        IcprBed { sim, web, user }
    }

    #[test]
    fn egress_source_address_is_what_the_server_sees() {
        let mut bed = build(icpr::cloudflare());
        let user = bed.user.clone();
        let body = bed.sim.block_on(async move {
            let resp = icpr::visit_via_egress(
                &user,
                sa("198.51.100.9", 4433),
                &n("www.hetest"),
                80,
                "/ip",
            )
            .await
            .unwrap();
            resp.text()
        });
        assert_eq!(
            body, "src=2001:db8:e9::9",
            "the web server sees the EGRESS address, not the user's"
        );
    }

    #[test]
    fn akamai_egress_cad_is_150ms() {
        let mut bed = build(icpr::akamai());
        // Delay IPv6 on the web server beyond Akamai's CAD.
        bed.web
            .add_egress(NetemRule::family(Family::V6, Netem::delay_ms(1000)));
        let user = bed.user.clone();
        let reply = bed.sim.block_on(async move {
            icpr::visit_via_egress(&user, sa("198.51.100.9", 4433), &n("www.hetest"), 80, "/ip")
                .await
                .unwrap()
        });
        assert!(reply.reason().starts_with("OK IPv4"), "{}", reply.reason());
        assert_eq!(reply.text(), "src=198.51.100.9", "fell back to egress IPv4");
    }

    #[test]
    fn cloudflare_waits_longer_than_akamai_on_slow_aaaa() {
        // AAAA delayed 1 s at the resolver: Akamai's 400 ms DNS timeout
        // gives up (IPv4-only), Cloudflare's 1.75 s still gets the AAAA
        // and connects via IPv6 — §5.2's observed difference.
        for (profile, expect_v6) in [(icpr::akamai(), false), (icpr::cloudflare(), true)] {
            let operator = profile.operator;
            let sim = Sim::new(4);
            let net = Network::new();
            let web = net.host("web").v4("192.0.2.1").v6("2001:db8::1").build();
            let egress = net
                .host("egress")
                .v4("198.51.100.9")
                .v6("2001:db8:e9::9")
                .build();
            let user = net.host("user").v4("192.0.2.200").build();
            let mut zone = Zone::new(n("hetest"));
            zone.a(&n("www.hetest"), "192.0.2.1".parse().unwrap(), 300);
            zone.aaaa(&n("www.hetest"), "2001:db8::1".parse().unwrap(), 300);
            let mut zones = ZoneSet::new();
            zones.add(zone);
            let auth = AuthServer::new(AuthConfig {
                zones,
                qtype_delays: vec![(RrType::Aaaa, std::time::Duration::from_millis(1000))],
                ..AuthConfig::default()
            });
            sim.enter(|| {
                spawn(serve_dns(web.udp_bind_any(53).unwrap(), auth));
                let listener = web.tcp_listen_any(80).unwrap();
                let handler: Handler = Rc::new(|_req: &HttpRequest, peer: SocketAddr| {
                    HttpResponse::ok(format!("src={}", peer.ip()))
                });
                spawn(serve_http(listener, handler));
                icpr::spawn_egress(&egress, 4433, profile, vec![sa("192.0.2.1", 53)]).unwrap();
            });
            let mut sim = sim;
            let reply = sim.block_on(async move {
                icpr::visit_via_egress(&user, sa("198.51.100.9", 4433), &n("www.hetest"), 80, "/ip")
                    .await
                    .unwrap()
            });
            if expect_v6 {
                assert!(
                    reply.reason().starts_with("OK IPv6"),
                    "{operator}: {}",
                    reply.reason()
                );
            } else {
                assert!(
                    reply.reason().starts_with("OK IPv4"),
                    "{operator}: {}",
                    reply.reason()
                );
            }
        }
    }
}
