//! The iterative recursive resolver: root hints → delegations → answer,
//! with caching, CNAME chasing and policy-driven IPv6/IPv4 server
//! selection (the behaviour §5.3 of the paper measures).

use std::cell::Cell;
use std::net::{IpAddr, SocketAddr};
use std::rc::Rc;
use std::time::Duration;

use lazyeye_dns::{Message, Name, RData, Rcode, Record, RrType};
use lazyeye_net::{Family, Host};
use lazyeye_sim::{now, timeout, with_rng};
use rand::Rng;

use crate::cache::DnsCache;
use crate::policy::{plan_attempts, prefer_v6, NsQueryStyle, SelectionPolicy};

/// Configuration of a recursive resolver instance.
#[derive(Clone, Debug)]
pub struct RecursiveConfig {
    /// Server-selection policy (the measured behaviour).
    pub policy: SelectionPolicy,
    /// Root hints: name-server names and their addresses.
    pub roots: Vec<(Name, Vec<IpAddr>)>,
    /// Delegation-depth guard.
    pub max_depth: u32,
    /// CNAME-chase guard.
    pub max_cname: u32,
}

impl RecursiveConfig {
    /// Config with the given roots and a default policy.
    pub fn new(roots: Vec<(Name, Vec<IpAddr>)>) -> RecursiveConfig {
        RecursiveConfig {
            policy: SelectionPolicy::default(),
            roots,
            max_depth: 16,
            max_cname: 8,
        }
    }
}

/// Terminal resolution failure.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ResolveError {
    /// Every planned attempt timed out.
    Timeout,
    /// Upstream answered SERVFAIL/REFUSED.
    ServFail,
    /// Too many delegations or CNAME links.
    DepthExceeded,
    /// A delegation had no resolvable name-server addresses.
    NoServers,
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ResolveError::Timeout => "resolution timed out",
            ResolveError::ServFail => "upstream server failure",
            ResolveError::DepthExceeded => "delegation/CNAME depth exceeded",
            ResolveError::NoServers => "no name-server addresses available",
        };
        f.write_str(s)
    }
}
impl std::error::Error for ResolveError {}

/// Successful resolution outcome.
#[derive(Clone, Debug)]
pub struct ResolveResult {
    /// NoError or NxDomain.
    pub rcode: Rcode,
    /// Matching records (empty for NODATA/NXDOMAIN).
    pub records: Vec<Record>,
}

struct NsCandidate {
    name: Name,
    addrs: Vec<IpAddr>,
}

/// A recursive resolver bound to one (possibly dual-stack) host.
pub struct RecursiveResolver {
    host: Host,
    cfg: RecursiveConfig,
    cache: DnsCache,
    next_id: Cell<u16>,
    knot_flip: Cell<bool>,
}

impl RecursiveResolver {
    /// Creates a resolver.
    pub fn new(host: Host, cfg: RecursiveConfig) -> Rc<RecursiveResolver> {
        Rc::new(RecursiveResolver {
            host,
            cfg,
            cache: DnsCache::new(),
            next_id: Cell::new(1),
            knot_flip: Cell::new(false),
        })
    }

    /// The resolver's host (for capture inspection in tests).
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// The active policy.
    pub fn policy(&self) -> &SelectionPolicy {
        &self.cfg.policy
    }

    /// Cache statistics (hits, misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Clears cached data (per-run reset; the paper uses unique zone
    /// apexes for the same reason).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    fn fresh_id(&self) -> u16 {
        let id = self.next_id.get();
        self.next_id.set(id.wrapping_add(1));
        id
    }

    /// Resolves (qname, qtype) iteratively from the roots.
    pub async fn resolve(
        self: &Rc<Self>,
        qname: &Name,
        qtype: RrType,
    ) -> Result<ResolveResult, ResolveError> {
        self.resolve_depth(qname.clone(), qtype, 0).await
    }

    fn resolve_depth(
        self: &Rc<Self>,
        qname: Name,
        qtype: RrType,
        depth: u32,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = Result<ResolveResult, ResolveError>>>>
    {
        let this = Rc::clone(self);
        Box::pin(async move {
            if depth > this.cfg.max_depth {
                return Err(ResolveError::DepthExceeded);
            }
            if let Some(records) = this.cache.get(now(), &qname, qtype) {
                return Ok(ResolveResult {
                    rcode: Rcode::NoError,
                    records,
                });
            }

            let mut servers: Vec<NsCandidate> = this
                .cfg
                .roots
                .iter()
                .map(|(name, addrs)| NsCandidate {
                    name: name.clone(),
                    addrs: addrs.clone(),
                })
                .collect();
            let mut current = qname.clone();
            let mut cnames = 0u32;
            let mut collected_cnames: Vec<Record> = Vec::new();

            for _step in 0..this.cfg.max_depth {
                let addrs = this.gather_addresses(&mut servers, depth).await?;
                if addrs.is_empty() {
                    return Err(ResolveError::NoServers);
                }
                let resp = this.query_with_policy(&addrs, &current, qtype).await?;

                match resp.header.rcode {
                    Rcode::NoError => {}
                    Rcode::NxDomain => {
                        let neg_ttl = soa_minimum(&resp).unwrap_or(300);
                        this.cache
                            .put_negative(now(), current.clone(), qtype, neg_ttl);
                        return Ok(ResolveResult {
                            rcode: Rcode::NxDomain,
                            records: collected_cnames,
                        });
                    }
                    _ => return Err(ResolveError::ServFail),
                }

                // Answers?
                let direct: Vec<Record> = resp
                    .answers
                    .iter()
                    .filter(|r| r.rtype() == qtype && r.name == current)
                    .cloned()
                    .collect();
                if !direct.is_empty() {
                    this.cache
                        .put(now(), current.clone(), qtype, direct.clone());
                    let mut records = collected_cnames;
                    records.extend(direct.iter().cloned());
                    // Follow CNAME chains included in the same response.
                    return Ok(ResolveResult {
                        rcode: Rcode::NoError,
                        records,
                    });
                }

                // CNAME at the current name?
                if let Some(cname) = resp
                    .answers
                    .iter()
                    .find(|r| r.rtype() == RrType::Cname && r.name == current)
                {
                    cnames += 1;
                    if cnames > this.cfg.max_cname {
                        return Err(ResolveError::DepthExceeded);
                    }
                    collected_cnames.push(cname.clone());
                    if let RData::Cname(target) = &cname.rdata {
                        // In-bailiwick data for the target may ride along.
                        let rode_along: Vec<Record> = resp
                            .answers
                            .iter()
                            .filter(|r| r.rtype() == qtype && &r.name == target)
                            .cloned()
                            .collect();
                        if !rode_along.is_empty() {
                            let mut records = collected_cnames;
                            records.extend(rode_along);
                            return Ok(ResolveResult {
                                rcode: Rcode::NoError,
                                records,
                            });
                        }
                        current = target.clone();
                        servers = this
                            .cfg
                            .roots
                            .iter()
                            .map(|(name, addrs)| NsCandidate {
                                name: name.clone(),
                                addrs: addrs.clone(),
                            })
                            .collect();
                        continue;
                    }
                }

                // Referral?
                let ns_records: Vec<&Record> = resp
                    .authorities
                    .iter()
                    .filter(|r| r.rtype() == RrType::Ns)
                    .collect();
                if !ns_records.is_empty() {
                    let mut next: Vec<NsCandidate> = Vec::new();
                    for nsr in &ns_records {
                        if let RData::Ns(nsname) = &nsr.rdata {
                            let glue: Vec<IpAddr> = resp
                                .additionals
                                .iter()
                                .filter(|g| &g.name == nsname)
                                .filter_map(|g| match &g.rdata {
                                    RData::A(a) => Some(IpAddr::V4(*a)),
                                    RData::Aaaa(a) => Some(IpAddr::V6(*a)),
                                    _ => None,
                                })
                                .collect();
                            // Cache glue for later steps.
                            for g in resp.additionals.iter().filter(|g| &g.name == nsname) {
                                this.cache
                                    .put(now(), g.name.clone(), g.rtype(), vec![g.clone()]);
                            }
                            next.push(NsCandidate {
                                name: nsname.clone(),
                                addrs: glue,
                            });
                        }
                    }
                    servers = next;
                    continue;
                }

                // NODATA.
                let neg_ttl = soa_minimum(&resp).unwrap_or(300);
                this.cache
                    .put_negative(now(), current.clone(), qtype, neg_ttl);
                return Ok(ResolveResult {
                    rcode: Rcode::NoError,
                    records: collected_cnames,
                });
            }
            Err(ResolveError::DepthExceeded)
        })
    }

    /// Collects name-server addresses for the current delegation,
    /// resolving missing ones according to [`NsQueryStyle`].
    async fn gather_addresses(
        self: &Rc<Self>,
        servers: &mut [NsCandidate],
        depth: u32,
    ) -> Result<Vec<IpAddr>, ResolveError> {
        let mut addrs: Vec<IpAddr> = servers.iter().flat_map(|s| s.addrs.clone()).collect();
        if !addrs.is_empty() {
            return Ok(addrs);
        }
        // No glue: resolve the first NS name's addresses per policy.
        let Some(first) = servers.first() else {
            return Ok(Vec::new());
        };
        let nsname = first.name.clone();
        let style = self.cfg.policy.ns_query_style;
        let order: Vec<RrType> = match style {
            NsQueryStyle::AaaaBeforeA => vec![RrType::Aaaa, RrType::A],
            NsQueryStyle::AaaaAfterA => vec![RrType::A, RrType::Aaaa],
            NsQueryStyle::AaaaAfterAuthQuery => vec![RrType::A],
            NsQueryStyle::OneOfEither => {
                let flip = self.knot_flip.get();
                self.knot_flip.set(!flip);
                vec![if flip { RrType::A } else { RrType::Aaaa }]
            }
        };
        for qt in order {
            if let Ok(res) = self.resolve_depth(nsname.clone(), qt, depth + 1).await {
                for r in &res.records {
                    match &r.rdata {
                        RData::A(a) => addrs.push(IpAddr::V4(*a)),
                        RData::Aaaa(a) => addrs.push(IpAddr::V6(*a)),
                        _ => {}
                    }
                }
            }
        }
        if let Some(first) = servers.first_mut() {
            first.addrs = addrs.clone();
        }
        if style == NsQueryStyle::AaaaAfterAuthQuery && !addrs.is_empty() {
            // Google-style: the AAAA query for the NS name goes out only
            // after the resolver is already talking to the zone over IPv4.
            let this = Rc::clone(self);
            let nsname2 = nsname.clone();
            lazyeye_sim::spawn_detached(async move {
                let _ = this.resolve_depth(nsname2, RrType::Aaaa, depth + 1).await;
            });
        }
        Ok(addrs)
    }

    /// Sends the query along the policy's attempt plan until one answer
    /// arrives.
    async fn query_with_policy(
        self: &Rc<Self>,
        addrs: &[IpAddr],
        qname: &Name,
        qtype: RrType,
    ) -> Result<Message, ResolveError> {
        let policy = &self.cfg.policy;
        if policy.parallel_families {
            return self.query_parallel(addrs, qname, qtype).await;
        }
        let v6_first = prefer_v6(policy, with_rng(|r| r.gen::<f64>()));
        let coins: Vec<f64> = (0..policy.max_attempts)
            .map(|_| with_rng(|r| r.gen::<f64>()))
            .collect();
        let plan = plan_attempts(policy, addrs, v6_first, &coins);
        if plan.is_empty() {
            return Err(ResolveError::NoServers);
        }
        for attempt in plan {
            match self
                .single_query(attempt.addr, qname, qtype, attempt.timeout)
                .await
            {
                Some(resp) => return Ok(resp),
                None => continue,
            }
        }
        Err(ResolveError::Timeout)
    }

    /// DNS0.EU-style parallel query: one query to the best address of each
    /// family at once; first answer wins. No cross-family retry. The
    /// preference coin decides which family's query leaves first (the
    /// paper could not determine a delay "due to parallel queries", but
    /// still measured a 9.5 % IPv6-first share).
    async fn query_parallel(
        self: &Rc<Self>,
        addrs: &[IpAddr],
        qname: &Name,
        qtype: RrType,
    ) -> Result<Message, ResolveError> {
        let v6 = addrs.iter().copied().find(|a| Family::of(*a) == Family::V6);
        let v4 = addrs.iter().copied().find(|a| Family::of(*a) == Family::V4);
        let timeout_each = self.cfg.policy.server_timeout;
        match (v6, v4) {
            (Some(a6), Some(a4)) => {
                let v6_first = prefer_v6(&self.cfg.policy, with_rng(|r| r.gen::<f64>()));
                let (first, second) = if v6_first { (a6, a4) } else { (a4, a6) };
                let r = lazyeye_sim::race(
                    self.single_query(first, qname, qtype, timeout_each),
                    self.single_query(second, qname, qtype, timeout_each),
                )
                .await;
                match r {
                    lazyeye_sim::Either::Left(Some(m)) | lazyeye_sim::Either::Right(Some(m)) => {
                        Ok(m)
                    }
                    _ => Err(ResolveError::Timeout),
                }
            }
            (Some(a), None) | (None, Some(a)) => self
                .single_query(a, qname, qtype, timeout_each)
                .await
                .ok_or(ResolveError::Timeout),
            (None, None) => Err(ResolveError::NoServers),
        }
    }

    async fn single_query(
        &self,
        server: IpAddr,
        qname: &Name,
        qtype: RrType,
        wait: Duration,
    ) -> Option<Message> {
        let id = self.fresh_id();
        let q = Message::query(id, qname.clone(), qtype);
        let Ok(sock) = self.host.udp_bind_any(0) else {
            return None;
        };
        let dst = SocketAddr::new(server, 53);
        sock.send_to(q.to_bytes(), dst).ok()?;
        let recv = async {
            loop {
                let (payload, src) = sock.recv_from().await.ok()?;
                if src != dst {
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
        timeout(wait, recv).await.ok().flatten()
    }
}

fn soa_minimum(resp: &Message) -> Option<u32> {
    resp.authorities.iter().find_map(|r| match &r.rdata {
        RData::Soa(soa) => Some(soa.minimum),
        _ => None,
    })
}
