//! Authoritative zone data and lookup semantics (answers, referrals,
//! NXDOMAIN/NODATA with SOA, CNAME chasing within a zone).

use crate::name::Name;
use crate::rr::{RData, Record, RrType, Soa};

/// One authoritative zone: an apex plus its records (including delegation
/// NS records at zone cuts and their glue).
#[derive(Clone, Debug)]
pub struct Zone {
    apex: Name,
    records: Vec<Record>,
}

/// The outcome of an authoritative lookup — maps directly onto the response
/// a name server builds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ZoneAnswer {
    /// Records of the queried type at the queried name (answer section).
    /// May be a CNAME chain ending in the target records.
    Records(Vec<Record>),
    /// The name lies below a zone cut: NS records for the authority
    /// section plus any in-zone glue for the additional section.
    Delegation {
        /// Delegation NS records.
        ns: Vec<Record>,
        /// Glue address records for the NS names, if present in this zone.
        glue: Vec<Record>,
    },
    /// The name exists, the type does not (NODATA): SOA for authority.
    NoData(Box<Record>),
    /// The name does not exist: SOA for authority.
    NxDomain(Box<Record>),
    /// The name is not within this zone at all.
    NotInZone,
}

impl Zone {
    /// Creates a zone with a generated SOA record at the apex.
    pub fn new(apex: Name) -> Zone {
        let soa = Record::new(
            apex.clone(),
            3600,
            RData::Soa(Soa {
                mname: apex.child("ns1").unwrap_or_else(|_| apex.clone()),
                rname: apex.child("hostmaster").unwrap_or_else(|_| apex.clone()),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        );
        Zone {
            apex,
            records: vec![soa],
        }
    }

    /// The zone apex.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// All records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Sets the negative-caching TTL (SOA minimum).
    pub fn set_negative_ttl(&mut self, ttl: u32) {
        for r in &mut self.records {
            if let RData::Soa(soa) = &mut r.rdata {
                soa.minimum = ttl;
            }
        }
    }

    /// Adds a record (builder style).
    ///
    /// # Panics
    /// Panics if the record's owner is outside the zone — a config bug in
    /// testbed fixtures.
    pub fn add(&mut self, record: Record) -> &mut Zone {
        assert!(
            record.name.is_subdomain_of(&self.apex),
            "record {} outside zone {}",
            record.name,
            self.apex
        );
        self.records.push(record);
        self
    }

    /// Convenience: add an A record.
    pub fn a(&mut self, name: &Name, addr: std::net::Ipv4Addr, ttl: u32) -> &mut Zone {
        self.add(Record::new(name.clone(), ttl, RData::A(addr)))
    }

    /// Convenience: add an AAAA record.
    pub fn aaaa(&mut self, name: &Name, addr: std::net::Ipv6Addr, ttl: u32) -> &mut Zone {
        self.add(Record::new(name.clone(), ttl, RData::Aaaa(addr)))
    }

    /// Convenience: add an NS record (apex or delegation).
    pub fn ns(&mut self, owner: &Name, nsdname: &Name, ttl: u32) -> &mut Zone {
        self.add(Record::new(owner.clone(), ttl, RData::Ns(nsdname.clone())))
    }

    /// The zone's SOA record.
    pub fn soa(&self) -> Record {
        self.records
            .iter()
            .find(|r| r.rtype() == RrType::Soa)
            .cloned()
            .expect("zone always has a SOA")
    }

    /// Names with NS records strictly below the apex (zone cuts).
    fn find_cut(&self, qname: &Name) -> Option<Name> {
        // Walk from qname upwards to (exclusive) apex, looking for a cut.
        // The *highest* cut wins (closest to the apex), matching RFC 1034
        // referral behaviour.
        let mut cuts: Vec<Name> = self
            .records
            .iter()
            .filter(|r| r.rtype() == RrType::Ns && r.name != self.apex)
            .map(|r| r.name.clone())
            .filter(|cut| qname.is_subdomain_of(cut))
            .collect();
        cuts.sort_by_key(Name::label_count);
        cuts.into_iter().next()
    }

    /// Performs the authoritative lookup for (qname, qtype).
    pub fn answer(&self, qname: &Name, qtype: RrType) -> ZoneAnswer {
        if !qname.is_subdomain_of(&self.apex) {
            return ZoneAnswer::NotInZone;
        }

        // Referral beats everything except apex data (NS queries *at* the
        // apex are authoritative data, not referrals).
        if let Some(cut) = self.find_cut(qname) {
            let ns: Vec<Record> = self
                .records
                .iter()
                .filter(|r| r.rtype() == RrType::Ns && r.name == cut)
                .cloned()
                .collect();
            let ns_names: Vec<&Name> = ns
                .iter()
                .filter_map(|r| match &r.rdata {
                    RData::Ns(n) => Some(n),
                    _ => None,
                })
                .collect();
            let glue: Vec<Record> = self
                .records
                .iter()
                .filter(|r| {
                    matches!(r.rtype(), RrType::A | RrType::Aaaa) && ns_names.contains(&&r.name)
                })
                .cloned()
                .collect();
            return ZoneAnswer::Delegation { ns, glue };
        }

        let at_name = || self.records.iter().filter(|r| &r.name == qname);
        if at_name().next().is_none() {
            return ZoneAnswer::NxDomain(Box::new(self.soa()));
        }

        let matching: Vec<Record> = at_name().filter(|r| r.rtype() == qtype).cloned().collect();
        if !matching.is_empty() {
            return ZoneAnswer::Records(matching);
        }

        // CNAME chase (single link, then recurse within the zone).
        if let Some(cname_rec) = at_name().find(|r| r.rtype() == RrType::Cname) {
            if qtype != RrType::Cname {
                let mut chain = vec![cname_rec.clone()];
                if let RData::Cname(target) = &cname_rec.rdata {
                    // Target outside the zone or empty: return just the
                    // CNAME; the resolver restarts the query.
                    if let ZoneAnswer::Records(mut more) = self.answer(target, qtype) {
                        chain.append(&mut more);
                    }
                }
                return ZoneAnswer::Records(chain);
            }
        }

        ZoneAnswer::NoData(Box::new(self.soa()))
    }
}

/// A set of zones served by one authoritative server; lookup picks the zone
/// with the longest matching apex.
#[derive(Clone, Debug, Default)]
pub struct ZoneSet {
    zones: Vec<Zone>,
}

impl ZoneSet {
    /// Empty set.
    pub fn new() -> ZoneSet {
        ZoneSet::default()
    }

    /// Adds a zone.
    pub fn add(&mut self, zone: Zone) -> &mut ZoneSet {
        self.zones.push(zone);
        self
    }

    /// All zones.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// The zone best matching `qname` (longest apex), if any.
    pub fn find_zone(&self, qname: &Name) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| qname.is_subdomain_of(z.apex()))
            .max_by_key(|z| z.apex().label_count())
    }

    /// Full lookup across zones.
    pub fn answer(&self, qname: &Name, qtype: RrType) -> ZoneAnswer {
        match self.find_zone(qname) {
            Some(zone) => zone.answer(qname, qtype),
            None => ZoneAnswer::NotInZone,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn example_zone() -> Zone {
        let mut z = Zone::new(n("example.com"));
        z.ns(&n("example.com"), &n("ns1.example.com"), 3600);
        z.a(&n("ns1.example.com"), "192.0.2.53".parse().unwrap(), 3600);
        z.a(&n("www.example.com"), "192.0.2.1".parse().unwrap(), 300);
        z.aaaa(&n("www.example.com"), "2001:db8::1".parse().unwrap(), 300);
        // Delegation of sub.example.com.
        z.ns(&n("sub.example.com"), &n("ns1.sub.example.com"), 3600);
        z.a(
            &n("ns1.sub.example.com"),
            "192.0.2.54".parse().unwrap(),
            3600,
        );
        z.aaaa(
            &n("ns1.sub.example.com"),
            "2001:db8::54".parse().unwrap(),
            3600,
        );
        // CNAME.
        z.add(Record::new(
            n("alias.example.com"),
            300,
            RData::Cname(n("www.example.com")),
        ));
        z
    }

    #[test]
    fn positive_answer() {
        let z = example_zone();
        match z.answer(&n("www.example.com"), RrType::A) {
            ZoneAnswer::Records(rs) => {
                assert_eq!(rs.len(), 1);
                assert_eq!(rs[0].rdata, RData::A("192.0.2.1".parse().unwrap()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nodata_for_missing_type() {
        let z = example_zone();
        match z.answer(&n("www.example.com"), RrType::Mx) {
            ZoneAnswer::NoData(soa) => assert_eq!(soa.rtype(), RrType::Soa),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nxdomain_for_missing_name() {
        let z = example_zone();
        assert!(matches!(
            z.answer(&n("nope.example.com"), RrType::A),
            ZoneAnswer::NxDomain(_)
        ));
    }

    #[test]
    fn delegation_with_glue() {
        let z = example_zone();
        match z.answer(&n("deep.sub.example.com"), RrType::A) {
            ZoneAnswer::Delegation { ns, glue } => {
                assert_eq!(ns.len(), 1);
                assert_eq!(glue.len(), 2, "A + AAAA glue");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn query_at_cut_is_referral() {
        let z = example_zone();
        assert!(matches!(
            z.answer(&n("sub.example.com"), RrType::A),
            ZoneAnswer::Delegation { .. }
        ));
    }

    #[test]
    fn apex_ns_is_data_not_referral() {
        let z = example_zone();
        match z.answer(&n("example.com"), RrType::Ns) {
            ZoneAnswer::Records(rs) => assert_eq!(rs.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cname_chased_within_zone() {
        let z = example_zone();
        match z.answer(&n("alias.example.com"), RrType::A) {
            ZoneAnswer::Records(rs) => {
                assert_eq!(rs.len(), 2);
                assert_eq!(rs[0].rtype(), RrType::Cname);
                assert_eq!(rs[1].rtype(), RrType::A);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_of_zone_query() {
        let z = example_zone();
        assert_eq!(z.answer(&n("other.org"), RrType::A), ZoneAnswer::NotInZone);
    }

    #[test]
    fn zoneset_longest_match() {
        let mut set = ZoneSet::new();
        set.add(example_zone());
        let mut child = Zone::new(n("sub.example.com"));
        child.a(&n("x.sub.example.com"), "203.0.113.1".parse().unwrap(), 60);
        set.add(child);
        // The child zone wins for names under it.
        match set.answer(&n("x.sub.example.com"), RrType::A) {
            ZoneAnswer::Records(rs) => {
                assert_eq!(rs[0].rdata, RData::A("203.0.113.1".parse().unwrap()));
            }
            other => panic!("unexpected {other:?}"),
        }
        // The parent still answers for its own names.
        assert!(matches!(
            set.answer(&n("www.example.com"), RrType::Aaaa),
            ZoneAnswer::Records(_)
        ));
    }

    #[test]
    fn negative_ttl_settable() {
        let mut z = example_zone();
        z.set_negative_ttl(30);
        if let RData::Soa(soa) = &z.soa().rdata {
            assert_eq!(soa.minimum, 30);
        } else {
            panic!("soa missing");
        }
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn adding_out_of_zone_record_panics() {
        let mut z = Zone::new(n("example.com"));
        z.a(&n("www.other.org"), "192.0.2.1".parse().unwrap(), 60);
    }
}
