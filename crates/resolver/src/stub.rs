//! The stub resolver: what the OS (or a browser's built-in resolver) does
//! between the application and the recursive resolver.
//!
//! Happy Eyeballs v2 §3 prescribes: send the AAAA query first, immediately
//! followed by the A query, and hand each answer to the connection logic
//! *as it arrives*. [`StubResolver::resolve_streaming`] implements exactly
//! that interface; the HE engine consumes the stream.

use std::cell::Cell;
use std::net::SocketAddr;
use std::rc::Rc;
use std::time::Duration;

use lazyeye_dns::{Message, Name, Rcode, Record, RrType};
use lazyeye_net::Host;
use lazyeye_sim::sync::mpsc;
use lazyeye_sim::{now, spawn, timeout, SimTime};

/// How the stub schedules its per-type queries.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum QueryOrder {
    /// AAAA first, A immediately after (RFC 8305).
    AaaaThenA,
    /// A first, AAAA immediately after (legacy stacks).
    AThenAaaa,
}

/// Stub configuration.
#[derive(Clone, Debug)]
pub struct StubConfig {
    /// Recursive resolver addresses, tried in order on timeout.
    pub servers: Vec<SocketAddr>,
    /// Per-attempt timeout (resolv.conf `timeout`, default 5 s).
    pub attempt_timeout: Duration,
    /// Additional attempts after the first (resolv.conf `attempts`).
    pub retries: u32,
    /// Query scheduling order.
    pub order: QueryOrder,
    /// Record types to resolve in a streaming resolution. HEv3 clients add
    /// [`RrType::Https`] in front.
    pub qtypes: Vec<RrType>,
}

impl Default for StubConfig {
    fn default() -> Self {
        StubConfig {
            servers: Vec::new(),
            attempt_timeout: Duration::from_secs(5),
            retries: 1,
            order: QueryOrder::AaaaThenA,
            qtypes: vec![RrType::Aaaa, RrType::A],
        }
    }
}

/// Terminal state of one query.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AnswerOutcome {
    /// Got records (possibly zero — NODATA).
    Ok,
    /// Authoritative NXDOMAIN.
    NxDomain,
    /// Upstream SERVFAIL/REFUSED.
    ServFail,
    /// No response within all attempts.
    Timeout,
}

/// One resolved answer, delivered on the stream when it arrives.
#[derive(Clone, Debug)]
pub struct DnsAnswer {
    /// Which query this answers.
    pub qtype: RrType,
    /// Arrival instant (feeds the Resolution Delay logic).
    pub at: SimTime,
    /// The records (address records, or SVCB/HTTPS for HEv3).
    pub records: Vec<Record>,
    /// Terminal state.
    pub outcome: AnswerOutcome,
}

/// The stub resolver bound to one host.
pub struct StubResolver {
    host: Host,
    cfg: StubConfig,
    next_id: Cell<u16>,
}

impl StubResolver {
    /// Creates a stub on `host` with the given config.
    pub fn new(host: Host, cfg: StubConfig) -> StubResolver {
        StubResolver {
            host,
            cfg,
            next_id: Cell::new(1),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &StubConfig {
        &self.cfg
    }

    fn fresh_id(&self) -> u16 {
        let id = self.next_id.get();
        self.next_id.set(id.wrapping_add(1));
        id
    }

    /// Sends one query and waits for its answer, retrying across servers.
    pub async fn query_one(&self, name: &Name, qtype: RrType) -> DnsAnswer {
        let id = self.fresh_id();
        let q = Message::query(id, name.clone(), qtype);
        let wire = q.to_bytes();

        let total_attempts = 1 + self.cfg.retries;
        for attempt in 0..total_attempts {
            for server in &self.cfg.servers {
                let Ok(sock) = self.host.udp_bind_any(0) else {
                    continue;
                };
                if sock.send_to(wire.clone(), *server).is_err() {
                    continue;
                }
                let wait = async {
                    loop {
                        let (payload, src) = sock.recv_from().await.ok()?;
                        if src != *server {
                            continue;
                        }
                        let Ok(resp) = Message::decode(&payload) else {
                            continue;
                        };
                        if resp.header.id == id && resp.header.qr {
                            return Some(resp);
                        }
                    }
                };
                match timeout(self.cfg.attempt_timeout, wait).await {
                    Ok(Some(resp)) => {
                        let outcome = match resp.header.rcode {
                            Rcode::NoError => AnswerOutcome::Ok,
                            Rcode::NxDomain => AnswerOutcome::NxDomain,
                            _ => AnswerOutcome::ServFail,
                        };
                        let records = resp
                            .answers
                            .into_iter()
                            .filter(|r| r.rtype() == qtype)
                            .collect();
                        return DnsAnswer {
                            qtype,
                            at: now(),
                            records,
                            outcome,
                        };
                    }
                    Ok(None) | Err(lazyeye_sim::Elapsed) => {
                        let _ = attempt; // next server / next attempt round
                    }
                }
            }
        }
        DnsAnswer {
            qtype,
            at: now(),
            records: Vec::new(),
            outcome: AnswerOutcome::Timeout,
        }
    }

    /// Issues all configured query types with the configured ordering and
    /// streams answers back as they arrive. The sender side closes once
    /// every query reached a terminal state.
    pub fn resolve_streaming(self: &Rc<Self>, name: &Name) -> mpsc::Receiver<DnsAnswer> {
        let (tx, rx) = mpsc::unbounded();
        let mut qtypes = self.cfg.qtypes.clone();
        if self.cfg.order == QueryOrder::AThenAaaa {
            // Default list is [AAAA, A]; legacy order swaps address queries
            // but leaves e.g. HTTPS in place.
            qtypes.sort_by_key(|t| match t {
                RrType::A => 0,
                RrType::Aaaa => 1,
                _ => 2,
            });
        }
        for qtype in qtypes {
            let this = Rc::clone(self);
            let tx = tx.clone();
            let name = name.clone();
            spawn(async move {
                let answer = this.query_one(&name, qtype).await;
                let _ = tx.send(answer);
            });
        }
        rx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyeye_authns::{serve, AuthConfig, AuthServer, DelayTarget, TestDomain, TestParams};
    use lazyeye_dns::{Zone, ZoneSet};
    use lazyeye_net::Network;
    use lazyeye_sim::Sim;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn sa(ip: &str, port: u16) -> SocketAddr {
        SocketAddr::new(ip.parse().unwrap(), port)
    }

    struct Bed {
        sim: Sim,
        client: lazyeye_net::Host,
        ns: lazyeye_net::Host,
        auth: AuthServer,
    }

    fn testbed(cfg: AuthConfig) -> Bed {
        let sim = Sim::new(5);
        let net = Network::new();
        let ns = net.host("ns").v4("192.0.2.53").v6("2001:db8::53").build();
        let client = net
            .host("client")
            .v4("192.0.2.100")
            .v6("2001:db8::100")
            .build();
        let auth = AuthServer::new(cfg);
        Bed {
            sim,
            client,
            ns,
            auth,
        }
    }

    fn www_zone() -> AuthConfig {
        let mut zone = Zone::new(n("example.com"));
        zone.a(&n("www.example.com"), "192.0.2.80".parse().unwrap(), 300);
        zone.aaaa(&n("www.example.com"), "2001:db8::80".parse().unwrap(), 300);
        let mut zones = ZoneSet::new();
        zones.add(zone);
        AuthConfig {
            zones,
            ..AuthConfig::default()
        }
    }

    fn stub(client: &lazyeye_net::Host) -> Rc<StubResolver> {
        Rc::new(StubResolver::new(
            client.clone(),
            StubConfig {
                servers: vec![sa("192.0.2.53", 53)],
                ..StubConfig::default()
            },
        ))
    }

    #[test]
    fn query_one_resolves() {
        let mut bed = testbed(www_zone());
        let (client, ns, auth) = (bed.client.clone(), bed.ns.clone(), bed.auth.clone());
        let ans = bed.sim.block_on(async move {
            spawn(serve(ns.udp_bind_any(53).unwrap(), auth));
            stub(&client)
                .query_one(&n("www.example.com"), RrType::A)
                .await
        });
        assert_eq!(ans.outcome, AnswerOutcome::Ok);
        assert_eq!(ans.records.len(), 1);
    }

    #[test]
    fn streaming_aaaa_first_on_wire() {
        let mut bed = testbed(www_zone());
        let (client, ns, auth) = (bed.client.clone(), bed.ns.clone(), bed.auth.clone());
        let auth2 = auth.clone();
        bed.sim.block_on(async move {
            spawn(serve(ns.udp_bind_any(53).unwrap(), auth));
            let s = stub(&client);
            let mut rx = s.resolve_streaming(&n("www.example.com"));
            let _ = rx.recv().await.unwrap();
            let _ = rx.recv().await.unwrap();
        });
        let log = auth2.query_log();
        assert_eq!(log[0].qtype, RrType::Aaaa, "AAAA must hit the wire first");
        assert_eq!(log[1].qtype, RrType::A);
    }

    #[test]
    fn streaming_delivers_a_first_when_aaaa_delayed() {
        let mut cfg = www_zone();
        cfg.qtype_delays = vec![(RrType::Aaaa, Duration::from_millis(200))];
        let mut bed = testbed(cfg);
        let (client, ns, auth) = (bed.client.clone(), bed.ns.clone(), bed.auth.clone());
        let arrivals = bed.sim.block_on(async move {
            spawn(serve(ns.udp_bind_any(53).unwrap(), auth));
            let s = stub(&client);
            let mut rx = s.resolve_streaming(&n("www.example.com"));
            let first = rx.recv().await.unwrap();
            let second = rx.recv().await.unwrap();
            (first.qtype, second.qtype, second.at.as_millis())
        });
        assert_eq!(arrivals.0, RrType::A, "undelayed A answer arrives first");
        assert_eq!(arrivals.1, RrType::Aaaa);
        assert!(arrivals.2 >= 200);
    }

    #[test]
    fn timeout_outcome_when_server_dead() {
        let mut bed = testbed(www_zone());
        let client = bed.client.clone();
        // No server task spawned: queries vanish.
        let ans = bed.sim.block_on(async move {
            let s = Rc::new(StubResolver::new(
                client.clone(),
                StubConfig {
                    servers: vec![sa("192.0.2.53", 53)],
                    attempt_timeout: Duration::from_millis(100),
                    retries: 1,
                    ..StubConfig::default()
                },
            ));
            s.query_one(&n("www.example.com"), RrType::A).await
        });
        assert_eq!(ans.outcome, AnswerOutcome::Timeout);
        // 2 attempts x 100 ms.
        assert_eq!(bed.sim.now().as_millis(), 200);
    }

    #[test]
    fn nxdomain_outcome() {
        let mut bed = testbed(www_zone());
        let (client, ns, auth) = (bed.client.clone(), bed.ns.clone(), bed.auth.clone());
        let ans = bed.sim.block_on(async move {
            spawn(serve(ns.udp_bind_any(53).unwrap(), auth));
            stub(&client)
                .query_one(&n("missing.example.com"), RrType::A)
                .await
        });
        assert_eq!(ans.outcome, AnswerOutcome::NxDomain);
        assert!(ans.records.is_empty());
    }

    #[test]
    fn legacy_order_sends_a_first() {
        let mut bed = testbed(www_zone());
        let (client, ns, auth) = (bed.client.clone(), bed.ns.clone(), bed.auth.clone());
        let auth2 = auth.clone();
        bed.sim.block_on(async move {
            spawn(serve(ns.udp_bind_any(53).unwrap(), auth));
            let s = Rc::new(StubResolver::new(
                client.clone(),
                StubConfig {
                    servers: vec![sa("192.0.2.53", 53)],
                    order: QueryOrder::AThenAaaa,
                    ..StubConfig::default()
                },
            ));
            let mut rx = s.resolve_streaming(&n("www.example.com"));
            let _ = rx.recv().await;
            let _ = rx.recv().await;
        });
        assert_eq!(auth2.query_log()[0].qtype, RrType::A);
    }

    #[test]
    fn rd_test_domain_via_stub() {
        // End-to-end: parameter-encoded name delays only the AAAA answer.
        let cfg = AuthConfig {
            test_domains: vec![TestDomain {
                apex: n("rd.test"),
                v4: vec!["192.0.2.80".parse().unwrap()],
                v6: vec!["2001:db8::80".parse().unwrap()],
                ttl: 60,
            }],
            ..AuthConfig::default()
        };
        let mut bed = testbed(cfg);
        let (client, ns, auth) = (bed.client.clone(), bed.ns.clone(), bed.auth.clone());
        let qname = n(&format!(
            "{}.rd.test",
            TestParams::delay(120, DelayTarget::Aaaa, "s1").to_label()
        ));
        let (first, second_ms) = bed.sim.block_on(async move {
            spawn(serve(ns.udp_bind_any(53).unwrap(), auth));
            let s = stub(&client);
            let mut rx = s.resolve_streaming(&qname);
            let first = rx.recv().await.unwrap();
            let second = rx.recv().await.unwrap();
            (first.qtype, second.at.as_millis())
        });
        assert_eq!(first, RrType::A);
        assert!(second_ms >= 120);
    }
}
