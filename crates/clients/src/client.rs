//! The runnable client: a profile instantiated on a host, fetching URLs
//! through its Happy Eyeballs engine — the testbed's "browser container".

use std::net::SocketAddr;
use std::rc::Rc;

use lazyeye_core::{HappyEyeballs, HeResult, HistoryStore};
use lazyeye_dns::Name;
use lazyeye_net::{Family, Host};
use lazyeye_resolver::{StubConfig, StubResolver};

use crate::http::{read_response, send_get, HttpResponse};
use crate::profiles::ClientProfile;

/// Result of one fetch: the HE run plus the HTTP response if the
/// connection succeeded.
pub struct FetchResult {
    /// The Happy Eyeballs outcome and event log.
    pub he: HeResult,
    /// HTTP response (None when the connection failed or QUIC won — the
    /// QUIC path carries no HTTP in this testbed).
    pub response: Option<HttpResponse>,
}

impl FetchResult {
    /// Which address family served the fetch.
    pub fn family(&self) -> Option<Family> {
        self.he.connection.as_ref().ok().map(|c| c.family())
    }
}

/// A client instance: one profile bound to one host and resolver set.
///
/// Each instance starts with fresh history/caches, mirroring the paper's
/// per-run container reset ("we reset the client to a predefined state ...
/// to prevent any caching effects").
pub struct Client {
    profile: ClientProfile,
    /// The profile's user agent, built once for every fetch.
    user_agent: String,
    host: Host,
    engine: HappyEyeballs,
    history: Rc<HistoryStore>,
}

impl Client {
    /// Instantiates the profile on `host`, using `resolvers` as the stub's
    /// recursive resolver addresses.
    pub fn new(profile: ClientProfile, host: Host, resolvers: Vec<SocketAddr>) -> Client {
        Self::with_stub_config(
            profile,
            host,
            StubConfig {
                servers: resolvers,
                ..StubConfig::default()
            },
        )
    }

    /// Instantiates with full stub control (timeouts, query set).
    pub fn with_stub_config(
        profile: ClientProfile,
        host: Host,
        mut stub_cfg: StubConfig,
    ) -> Client {
        stub_cfg.order = profile.stub_order;
        if profile.he.use_quic {
            stub_cfg.qtypes = vec![
                lazyeye_dns::RrType::Https,
                lazyeye_dns::RrType::Aaaa,
                lazyeye_dns::RrType::A,
            ];
        }
        let stub = Rc::new(StubResolver::new(host.clone(), stub_cfg));
        let history = Rc::new(HistoryStore::new());
        let engine =
            HappyEyeballs::new(profile.he.clone(), host.clone(), stub, Rc::clone(&history));
        Client {
            user_agent: profile.user_agent(),
            profile,
            host,
            engine,
            history,
        }
    }

    /// The profile driving this client.
    pub fn profile(&self) -> &ClientProfile {
        &self.profile
    }

    /// The host this client runs on.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// The connection-history store (lets tests pre-seed RTTs, as a warm
    /// Safari instance in the wild would have).
    pub fn history(&self) -> &Rc<HistoryStore> {
        &self.history
    }

    /// Resolves + connects per the profile's Happy Eyeballs behaviour,
    /// then issues `GET path` when TCP won.
    pub async fn fetch(&self, name: &Name, port: u16, path: &str) -> FetchResult {
        let he = self.engine.connect(name, port).await;
        let mut response = None;
        if let Ok(conn) = &he.connection {
            if let Some(stream) = conn.tcp() {
                if send_get(stream, name, path, &self.user_agent).is_ok() {
                    response = read_response(stream).await.ok();
                }
            }
        }
        FetchResult { he, response }
    }

    /// Connection-only run (no HTTP) — what the CAD/RD test cases use.
    pub async fn connect_only(&self, name: &Name, port: u16) -> HeResult {
        self.engine.connect(name, port).await
    }

    /// Resets caches and history — the per-configuration container reset
    /// of the paper's framework.
    pub fn reset(&self) {
        self.history.clear();
    }

    /// Forgets cached outcomes but keeps RTT history — a new page visit
    /// in the same browser session (the web tool's repetition unit).
    pub fn new_page_visit(&self) {
        self.history.clear_outcomes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{serve_http, Handler, HttpRequest, HttpResponse};
    use crate::profiles::{figure2_clients, table2_clients};
    use lazyeye_authns::{serve as serve_dns, AuthConfig, AuthServer};
    use lazyeye_dns::{Zone, ZoneSet};
    use lazyeye_net::{Netem, NetemRule, Network};
    use lazyeye_sim::{spawn, Sim};

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    struct Bed {
        sim: Sim,
        server: Host,
        client_host: Host,
    }

    fn build_bed() -> Bed {
        let sim = Sim::new(11);
        let net = Network::new();
        let server = net.host("server").v4("192.0.2.1").v6("2001:db8::1").build();
        let client_host = net
            .host("client")
            .v4("192.0.2.100")
            .v6("2001:db8::100")
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
            spawn(serve_dns(server.udp_bind_any(53).unwrap(), auth));
            let listener = server.tcp_listen_any(80).unwrap();
            let handler: Handler = Rc::new(|req: &HttpRequest, peer: SocketAddr| {
                HttpResponse::ok(format!(
                    "ip={};ua={}",
                    peer.ip(),
                    req.header("user-agent").unwrap_or("")
                ))
            });
            spawn(serve_http(listener, handler));
        });
        Bed {
            sim,
            server,
            client_host,
        }
    }

    fn resolver_addr() -> SocketAddr {
        SocketAddr::new("192.0.2.1".parse().unwrap(), 53)
    }

    #[test]
    fn chrome_fetches_over_ipv6_and_sends_its_ua() {
        let mut bed = build_bed();
        let profile = figure2_clients()
            .into_iter()
            .find(|c| c.name == "Chrome" && c.version == "130.0")
            .unwrap();
        let client = Client::new(profile, bed.client_host.clone(), vec![resolver_addr()]);
        let resp = bed
            .sim
            .block_on(async move { client.fetch(&n("www.hetest"), 80, "/ip").await });
        assert_eq!(resp.family(), Some(Family::V6));
        let body = resp.response.unwrap().text();
        assert!(body.starts_with("ip=2001:db8::100"), "{body}");
        assert!(body.contains("Chrome/130.0.0.0"), "{body}");
    }

    #[test]
    fn chromium_falls_back_at_300ms_firefox_at_250ms() {
        for (name, expected_ms) in [("Chrome", 300u64), ("Firefox", 250u64)] {
            let mut bed = build_bed();
            bed.server
                .add_egress(NetemRule::family(Family::V6, Netem::delay_ms(1000)));
            let profile = figure2_clients()
                .into_iter()
                .rfind(|c| c.name == name)
                .unwrap();
            let client = Client::new(profile, bed.client_host.clone(), vec![resolver_addr()]);
            let res = bed
                .sim
                .block_on(async move { client.connect_only(&n("www.hetest"), 80).await });
            assert_eq!(res.connection.unwrap().family(), Family::V4);
            assert_eq!(
                res.log.observed_cad().unwrap().as_millis() as u64,
                expected_ms,
                "{name}"
            );
        }
    }

    #[test]
    fn every_table2_client_prefers_ipv6_when_healthy() {
        for profile in table2_clients() {
            let mut bed = build_bed();
            let label = profile.figure2_label();
            let client = Client::new(profile, bed.client_host.clone(), vec![resolver_addr()]);
            let res = bed
                .sim
                .block_on(async move { client.connect_only(&n("www.hetest"), 80).await });
            assert_eq!(
                res.connection.unwrap().family(),
                Family::V6,
                "{label} must prefer IPv6"
            );
        }
    }

    #[test]
    fn reset_clears_outcome_cache() {
        let mut bed = build_bed();
        let profile = figure2_clients()
            .into_iter()
            .find(|c| c.name == "curl")
            .unwrap();
        let client = Rc::new(Client::new(
            profile,
            bed.client_host.clone(),
            vec![resolver_addr()],
        ));
        let c2 = Rc::clone(&client);
        bed.sim.block_on(async move {
            let _ = c2.connect_only(&n("www.hetest"), 80).await;
            c2.reset();
            let r = c2.connect_only(&n("www.hetest"), 80).await;
            // After reset the run must NOT use the cached outcome.
            assert!(!r
                .log
                .events
                .iter()
                .any(|e| matches!(e.kind, lazyeye_core::HeEventKind::UsedCachedOutcome { .. })),);
        });
    }
}
