//! The authoritative server task: zone answers, parameterised delays,
//! query logging.

use std::cell::RefCell;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr};
use std::rc::Rc;
use std::time::Duration;

use lazyeye_dns::{Message, Name, RData, Rcode, Record, RrType, ZoneAnswer, ZoneSet};
use lazyeye_net::UdpSocket;
use lazyeye_sim::{now, sleep, spawn_detached, SimTime};

use crate::params::{parse_test_label, TestParams};

/// A dynamically-answered test domain: every parameter-encoded name under
/// `apex` resolves to the configured address sets after the encoded delay.
#[derive(Clone, Debug)]
pub struct TestDomain {
    /// Domain under which parameter labels live.
    pub apex: Name,
    /// A records returned.
    pub v4: Vec<Ipv4Addr>,
    /// AAAA records returned.
    pub v6: Vec<Ipv6Addr>,
    /// TTL on synthesized records.
    pub ttl: u32,
}

/// One served query, as the paper's server-side observation point records
/// it (the resolver analysis in §5.3 is driven by exactly this log).
#[derive(Clone, Debug)]
pub struct QueryLogEntry {
    /// Arrival time.
    pub time: SimTime,
    /// Source of the query (the resolver's address — its family is Table
    /// 3's "IPv6 used" observable).
    pub src: SocketAddr,
    /// Queried name.
    pub qname: Name,
    /// Queried type.
    pub qtype: RrType,
    /// Delay this server injected before answering.
    pub delayed_by: Duration,
}

/// Configuration of an authoritative server instance.
#[derive(Clone, Default)]
pub struct AuthConfig {
    /// Static zones served as-is.
    pub zones: ZoneSet,
    /// Parameter-encoded dynamic domains.
    pub test_domains: Vec<TestDomain>,
    /// Unconditional per-qtype response delays (server-level shaping, used
    /// for the resolver RD experiments where whole zones are slow).
    pub qtype_delays: Vec<(RrType, Duration)>,
    /// Unconditional delay on every response.
    pub global_delay: Duration,
}

/// Handle to a running authoritative server (spawn with [`serve`]).
#[derive(Clone)]
pub struct AuthServer {
    cfg: Rc<AuthConfig>,
    log: Rc<RefCell<Vec<QueryLogEntry>>>,
}

impl AuthServer {
    /// Creates the server state from a config.
    pub fn new(cfg: AuthConfig) -> AuthServer {
        AuthServer {
            cfg: Rc::new(cfg),
            log: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Snapshot of the query log.
    pub fn query_log(&self) -> Vec<QueryLogEntry> {
        self.log.borrow().clone()
    }

    /// Clears the query log (between test runs).
    pub fn clear_log(&self) {
        self.log.borrow_mut().clear();
    }

    /// Builds the response for one query and the delay to apply before
    /// sending it. Exposed for unit testing; [`serve`] drives it.
    pub fn answer(&self, query: &Message) -> (Message, Duration) {
        let Some(q) = query.question() else {
            return (
                Message::response_to(query, Rcode::FormErr, false),
                Duration::ZERO,
            );
        };
        let qname = q.name.clone();
        let qtype = q.qtype;

        let mut delay = self.cfg.global_delay;
        for (t, d) in &self.cfg.qtype_delays {
            if *t == qtype {
                delay += *d;
            }
        }

        // Dynamic test domains take precedence.
        for td in &self.cfg.test_domains {
            if qname.is_subdomain_of(&td.apex) && qname != td.apex {
                // The parameter label is the leftmost label below the apex.
                let rel_depth = qname.label_count() - td.apex.label_count();
                let label_bytes = qname.label(rel_depth - 1.min(rel_depth)).unwrap_or(b"");
                // Parameters live in the *first* label of the name.
                let first = String::from_utf8_lossy(qname.label(0).unwrap_or(b""));
                let params = parse_test_label(&first)
                    .or_else(|| parse_test_label(&String::from_utf8_lossy(label_bytes)));
                if let Some(p) = params {
                    let (resp, extra) = self.answer_test(query, &qname, qtype, td, &p);
                    return (resp, delay + extra);
                }
            }
        }

        let mut resp = match self.cfg.zones.answer(&qname, qtype) {
            ZoneAnswer::Records(rs) => {
                let mut m = Message::response_to(query, Rcode::NoError, true);
                m.answers = rs;
                m
            }
            ZoneAnswer::Delegation { ns, glue } => {
                let mut m = Message::response_to(query, Rcode::NoError, false);
                m.authorities = ns;
                m.additionals = glue;
                m
            }
            ZoneAnswer::NoData(soa) => {
                let mut m = Message::response_to(query, Rcode::NoError, true);
                m.authorities = vec![*soa];
                m
            }
            ZoneAnswer::NxDomain(soa) => {
                let mut m = Message::response_to(query, Rcode::NxDomain, true);
                m.authorities = vec![*soa];
                m
            }
            ZoneAnswer::NotInZone => Message::response_to(query, Rcode::Refused, false),
        };
        resp.header.ra = false;
        (resp, delay)
    }

    fn answer_test(
        &self,
        query: &Message,
        qname: &Name,
        qtype: RrType,
        td: &TestDomain,
        p: &TestParams,
    ) -> (Message, Duration) {
        let mut resp = Message::response_to(query, Rcode::NoError, true);
        let excluded = |t: RrType| -> bool { p.exclude.map(|x| x.applies_to(t)).unwrap_or(false) };
        match qtype {
            RrType::A if !excluded(RrType::A) => {
                let n = p.count.unwrap_or(td.v4.len()).min(td.v4.len());
                for a in &td.v4[..n] {
                    resp.answers
                        .push(Record::new(qname.clone(), td.ttl, RData::A(*a)));
                }
            }
            RrType::Aaaa if !excluded(RrType::Aaaa) => {
                let n = p.count.unwrap_or(td.v6.len()).min(td.v6.len());
                for a in &td.v6[..n] {
                    resp.answers
                        .push(Record::new(qname.clone(), td.ttl, RData::Aaaa(*a)));
                }
            }
            _ => {
                // NODATA (exclusions and non-address types).
            }
        }
        let delay = if p.target.applies_to(qtype) {
            p.delay
        } else {
            Duration::ZERO
        };
        (resp, delay)
    }
}

/// Serves DNS over the socket until it is closed. Each query is handled in
/// its own task so injected delays never head-of-line block other queries.
pub async fn serve(sock: UdpSocket, server: AuthServer) {
    let sock = Rc::new(sock);
    loop {
        let Ok((payload, src)) = sock.recv_from().await else {
            return;
        };
        let Ok(query) = Message::decode(&payload) else {
            continue;
        };
        if let Some(q) = query.question() {
            server.log.borrow_mut().push(QueryLogEntry {
                time: now(),
                src,
                qname: q.name.clone(),
                qtype: q.qtype,
                delayed_by: Duration::ZERO, // patched below once computed
            });
        }
        let (resp, delay) = server.answer(&query);
        if let Some(entry) = server.log.borrow_mut().last_mut() {
            entry.delayed_by = delay;
        }
        let sock = Rc::clone(&sock);
        spawn_detached(async move {
            if !delay.is_zero() {
                sleep(delay).await;
            }
            let _ = sock.send_to(resp.to_bytes(), src);
        });
    }
}
