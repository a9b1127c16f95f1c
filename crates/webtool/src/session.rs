//! Client-side measurement sessions: what happens when a user opens the
//! web tool in their browser.
//!
//! Everything is evaluated from the client side (§4.3(ii)): each tier's
//! endpoint returns the source address the server saw, so the page can
//! tell which family Happy Eyeballs picked per tier — without resetting
//! any state between fetches, exactly like the real deployment.

use std::cell::RefCell;
use std::collections::HashMap;

use lazyeye_authns::{DelayTarget, TestParams};
use lazyeye_clients::{Client, ClientProfile};
use lazyeye_dns::Name;
use lazyeye_net::{Family, Host};

use crate::deploy::{layout, rd_apex, web_resolver_addr};

/// Per-tier outcome: the family observed in each repetition (None when the
/// fetch failed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierObservation {
    /// Configured tier delay (ms).
    pub delay_ms: u64,
    /// Family per repetition, from the echoed source address.
    pub families: Vec<Option<Family>>,
    /// Fetch duration per repetition in **virtual** microseconds (page
    /// `performance.now()` deltas in the real tool). This is what exposes
    /// the §5.2 wait-for-all-answers stall from the population side: a
    /// client that delays its first connection attempt until a withheld A
    /// answer arrives still connects over IPv6 — the family grid looks
    /// clean — but its fetch time tracks the configured DNS delay.
    pub fetch_us: Vec<u64>,
}

impl TierObservation {
    /// Largest fetch duration across this tier's repetitions (µs).
    pub fn max_fetch_us(&self) -> u64 {
        self.fetch_us.iter().copied().max().unwrap_or(0)
    }
    /// Majority family of this tier, if any fetch succeeded.
    pub fn majority(&self) -> Option<Family> {
        let v6 = self
            .families
            .iter()
            .filter(|f| **f == Some(Family::V6))
            .count();
        let v4 = self
            .families
            .iter()
            .filter(|f| **f == Some(Family::V4))
            .count();
        match (v6, v4) {
            (0, 0) => None,
            (a, b) if a >= b => Some(Family::V6),
            _ => Some(Family::V4),
        }
    }

    /// Whether the repetitions disagree (the Safari "inconsistency" of
    /// §5.1).
    pub fn is_mixed(&self) -> bool {
        let distinct: std::collections::HashSet<_> = self.families.iter().flatten().collect();
        distinct.len() > 1
    }
}

/// The result of a full CAD web session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WebSessionResult {
    /// Per-tier observations (ascending delay).
    pub tiers: Vec<TierObservation>,
}

impl WebSessionResult {
    /// The CAD interval the web tool reports: `(last majority-IPv6 delay,
    /// first majority-IPv4 delay]` — e.g. Safari's `(200, 250]` in the
    /// paper's App. Figure 4a.
    pub fn cad_interval(&self) -> (Option<u64>, Option<u64>) {
        let last_v6 = self
            .tiers
            .iter()
            .filter(|t| t.majority() == Some(Family::V6))
            .map(|t| t.delay_ms)
            .max();
        let first_v4 = self
            .tiers
            .iter()
            .filter(|t| t.majority() == Some(Family::V4))
            .map(|t| t.delay_ms)
            .min();
        (last_v6, first_v4)
    }

    /// Number of tiers with mixed (inconsistent) repetitions.
    pub fn mixed_tiers(&self) -> usize {
        self.tiers.iter().filter(|t| t.is_mixed()).count()
    }

    /// ASCII grid like the web tool's result page: one row per tier, one
    /// cell per repetition (`6`, `4` or `x`).
    pub fn grid(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for t in &self.tiers {
            let cells: String = t
                .families
                .iter()
                .map(|f| match f {
                    Some(Family::V6) => '6',
                    Some(Family::V4) => '4',
                    None => 'x',
                })
                .collect();
            let _ = writeln!(out, "{:>5} ms  {}", t.delay_ms, cells);
        }
        out
    }
}

fn family_of_response(fetched: &lazyeye_clients::FetchResult) -> Option<Family> {
    fetched
        .response
        .as_ref()
        .filter(|r| r.status == 200)
        .and_then(|r| {
            std::str::from_utf8(&r.body)
                .ok()?
                .parse::<std::net::IpAddr>()
                .ok()
        })
        .map(Family::of)
}

/// The parameter-encoded name an RD session fetches for one tier and
/// repetition. Every RD session fetches the same names, so each thread
/// builds each one once and clones it after.
fn rd_qname(delay_ms: u64, delayed: DelayTarget, rep: u32) -> Name {
    thread_local! {
        static NAMES: RefCell<HashMap<(u64, DelayTarget, u32), Name>> = RefCell::default();
    }
    NAMES.with(|names| {
        names
            .borrow_mut()
            .entry((delay_ms, delayed, rep))
            .or_insert_with(|| {
                let params = TestParams::delay(delay_ms, delayed, format!("w{rep}"));
                Name::parse(&format!(
                    "{}.{}",
                    params.to_label(),
                    rd_apex().to_string().trim_end_matches('.')
                ))
                .unwrap()
            })
            .clone()
    })
}

/// Runs a CAD web session: the client visits every tier domain
/// `repetitions` times. Client state persists across fetches (no reset —
/// this is one browser visiting one page), so history-based CADs drift
/// exactly as the paper observed for Safari in the wild.
pub async fn cad_session(
    client_host: Host,
    profile: ClientProfile,
    repetitions: u32,
) -> WebSessionResult {
    let client = Client::new(profile, client_host, vec![web_resolver_addr()]);
    let mut tiers = Vec::new();
    for (ms, _, _, domain) in &layout().tiers {
        let ms = *ms;
        let mut families = Vec::new();
        let mut fetch_us = Vec::new();
        for _rep in 0..repetitions {
            // Each repetition is a fresh page visit: the HE outcome cache
            // does not pin it, but RTT history carries over.
            client.new_page_visit();
            let started_us = lazyeye_sim::now().as_nanos() / 1_000;
            let fetched = client.fetch(domain, 80, "/ip").await;
            fetch_us.push(lazyeye_sim::now().as_nanos() / 1_000 - started_us);
            families.push(family_of_response(&fetched));
        }
        tiers.push(TierObservation {
            delay_ms: ms,
            families,
            fetch_us,
        });
    }
    WebSessionResult { tiers }
}

/// Runs an RD web session: per DNS-delay tier, the client fetches a
/// parameter-encoded name whose AAAA (or A) answer is delayed.
pub async fn rd_session(
    client_host: Host,
    profile: ClientProfile,
    repetitions: u32,
    delayed: DelayTarget,
) -> WebSessionResult {
    let client = Client::new(profile, client_host, vec![web_resolver_addr()]);
    let mut tiers = Vec::new();
    for (ms, ..) in &layout().tiers {
        let ms = *ms;
        let mut families = Vec::new();
        let mut fetch_us = Vec::new();
        for rep in 0..repetitions {
            client.new_page_visit();
            let qname = rd_qname(ms, delayed, rep);
            let started_us = lazyeye_sim::now().as_nanos() / 1_000;
            let fetched = client.fetch(&qname, 80, "/ip").await;
            fetch_us.push(lazyeye_sim::now().as_nanos() / 1_000 - started_us);
            families.push(family_of_response(&fetched));
        }
        tiers.push(TierObservation {
            delay_ms: ms,
            families,
            fetch_us,
        });
    }
    WebSessionResult { tiers }
}

/// A submitted measurement: what the tool stores when a user opts in
/// (user agent + AS attribution + results; cf. the paper's ethics
/// appendix).
#[derive(Clone, Debug)]
pub struct Submission {
    /// Raw user-agent string.
    pub user_agent: String,
    /// The client network's AS number (the field that made the iCPR
    /// attribution possible).
    pub asn: u32,
    /// CAD session result.
    pub result: WebSessionResult,
}
