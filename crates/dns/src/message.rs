//! DNS messages: header, questions, sections, wire codec.

use std::cell::RefCell;

use bytes::Bytes;

use crate::error::DnsError;
use crate::name::{CompressMap, Name};
use crate::rr::{RData, Record, RrClass, RrType};

/// Response codes (RFC 1035 §4.1.1, subset).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist (authoritative).
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused.
    Refused,
    /// Any other code.
    Other(u8),
}

impl Rcode {
    /// Wire code (4 bits).
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(c) => c & 0x0F,
        }
    }

    /// From wire code.
    pub fn from_code(c: u8) -> Rcode {
        match c & 0x0F {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// Message header: id plus flags. Counts are derived from the sections at
/// encode time.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Header {
    /// Transaction id.
    pub id: u16,
    /// `true` for responses.
    pub qr: bool,
    /// Opcode (0 = standard query).
    pub opcode: u8,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncated.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl Header {
    /// A standard recursive query header.
    pub fn query(id: u16) -> Header {
        Header {
            id,
            qr: false,
            opcode: 0,
            aa: false,
            tc: false,
            rd: true,
            ra: false,
            rcode: Rcode::NoError,
        }
    }
}

/// A question section entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Question {
    /// Queried name.
    pub name: Name,
    /// Queried type.
    pub qtype: RrType,
    /// Queried class.
    pub qclass: RrClass,
}

impl Question {
    /// IN-class question.
    pub fn new(name: Name, qtype: RrType) -> Question {
        Question {
            name,
            qtype,
            qclass: RrClass::In,
        }
    }
}

/// A complete DNS message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Message {
    /// Header (flags; section counts derived).
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section (NS/SOA for referrals and negatives).
    pub authorities: Vec<Record>,
    /// Additional section (glue, OPT).
    pub additionals: Vec<Record>,
}

impl Message {
    /// Builds a standard query for one (name, type).
    pub fn query(id: u16, name: Name, qtype: RrType) -> Message {
        Message {
            header: Header::query(id),
            questions: vec![Question::new(name, qtype)],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Builds an empty response to `query`, echoing id and question.
    pub fn response_to(query: &Message, rcode: Rcode, authoritative: bool) -> Message {
        Message {
            header: Header {
                id: query.header.id,
                qr: true,
                opcode: query.header.opcode,
                aa: authoritative,
                tc: false,
                rd: query.header.rd,
                ra: false,
                rcode,
            },
            questions: query.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// The first question, if present (all traffic here is single-question).
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// Encodes to wire format with name compression in owner names (one
    /// allocation: the returned vector).
    pub fn encode(&self) -> Vec<u8> {
        self.with_encoded(<[u8]>::to_vec)
    }

    /// Encodes straight into a [`Bytes`] payload, at one allocation.
    pub fn to_bytes(&self) -> Bytes {
        self.with_encoded(Bytes::copy_from_slice)
    }

    /// Runs `f` on the encoded message, built in a per-thread buffer
    /// (with a per-thread compression map) that later encodes reuse.
    fn with_encoded<T>(&self, f: impl FnOnce(&[u8]) -> T) -> T {
        thread_local! {
            static BUFFERS: RefCell<(Vec<u8>, CompressMap)> = RefCell::default();
        }
        BUFFERS.with(|buffers| {
            let mut buffers = buffers.borrow_mut();
            let (out, compress) = &mut *buffers;
            out.clear();
            compress.clear();
            self.encode_into(out, compress);
            f(out)
        })
    }

    fn encode_into(&self, out: &mut Vec<u8>, compress: &mut CompressMap) {
        out.extend_from_slice(&self.header.id.to_be_bytes());
        let mut flags: u16 = 0;
        if self.header.qr {
            flags |= 0x8000;
        }
        flags |= u16::from(self.header.opcode & 0x0F) << 11;
        if self.header.aa {
            flags |= 0x0400;
        }
        if self.header.tc {
            flags |= 0x0200;
        }
        if self.header.rd {
            flags |= 0x0100;
        }
        if self.header.ra {
            flags |= 0x0080;
        }
        flags |= u16::from(self.header.rcode.code());
        out.extend_from_slice(&flags.to_be_bytes());
        for count in [
            self.questions.len(),
            self.answers.len(),
            self.authorities.len(),
            self.additionals.len(),
        ] {
            out.extend_from_slice(&(count as u16).to_be_bytes());
        }
        for q in &self.questions {
            q.name.encode_compressed(out, compress);
            out.extend_from_slice(&q.qtype.code().to_be_bytes());
            out.extend_from_slice(&q.qclass.code().to_be_bytes());
        }
        for r in self
            .answers
            .iter()
            .chain(self.authorities.iter())
            .chain(self.additionals.iter())
        {
            r.name.encode_compressed(out, compress);
            out.extend_from_slice(&r.rtype().code().to_be_bytes());
            out.extend_from_slice(&r.class.code().to_be_bytes());
            out.extend_from_slice(&r.ttl.to_be_bytes());
            // RDATA goes straight into the message buffer; the 2-byte
            // length prefix is back-patched (no per-record scratch vec).
            let len_pos = out.len();
            out.extend_from_slice(&[0, 0]);
            r.rdata.encode(out);
            let rdata_len = out.len() - len_pos - 2;
            out[len_pos..len_pos + 2].copy_from_slice(&(rdata_len as u16).to_be_bytes());
        }
    }

    /// Decodes from wire format.
    pub fn decode(msg: &[u8]) -> Result<Message, DnsError> {
        if msg.len() < 12 {
            return Err(DnsError::Truncated);
        }
        let id = u16::from_be_bytes([msg[0], msg[1]]);
        let flags = u16::from_be_bytes([msg[2], msg[3]]);
        let header = Header {
            id,
            qr: flags & 0x8000 != 0,
            opcode: ((flags >> 11) & 0x0F) as u8,
            aa: flags & 0x0400 != 0,
            tc: flags & 0x0200 != 0,
            rd: flags & 0x0100 != 0,
            ra: flags & 0x0080 != 0,
            rcode: Rcode::from_code((flags & 0x0F) as u8),
        };
        let qd = u16::from_be_bytes([msg[4], msg[5]]) as usize;
        let an = u16::from_be_bytes([msg[6], msg[7]]) as usize;
        let ns = u16::from_be_bytes([msg[8], msg[9]]) as usize;
        let ar = u16::from_be_bytes([msg[10], msg[11]]) as usize;
        let mut pos = 12;
        let mut questions = Vec::with_capacity(qd);
        for _ in 0..qd {
            let name = Name::decode(msg, &mut pos)?;
            if pos + 4 > msg.len() {
                return Err(DnsError::Truncated);
            }
            let qtype = RrType::from_code(u16::from_be_bytes([msg[pos], msg[pos + 1]]));
            let qclass = RrClass::from_code(u16::from_be_bytes([msg[pos + 2], msg[pos + 3]]));
            pos += 4;
            questions.push(Question {
                name,
                qtype,
                qclass,
            });
        }
        let mut sections = [
            Vec::with_capacity(an),
            Vec::with_capacity(ns),
            Vec::with_capacity(ar),
        ];
        // Owner names mostly repeat the question's or the previous
        // record's; a repeat shares that name's allocation.
        let mut recent = questions.last().map(|q| q.name.clone());
        for (idx, count) in [an, ns, ar].into_iter().enumerate() {
            for _ in 0..count {
                let name = Name::decode_reusing(msg, &mut pos, recent.as_ref())?;
                recent = Some(name.clone());
                if pos + 10 > msg.len() {
                    return Err(DnsError::Truncated);
                }
                let rtype = RrType::from_code(u16::from_be_bytes([msg[pos], msg[pos + 1]]));
                let class = RrClass::from_code(u16::from_be_bytes([msg[pos + 2], msg[pos + 3]]));
                let ttl =
                    u32::from_be_bytes([msg[pos + 4], msg[pos + 5], msg[pos + 6], msg[pos + 7]]);
                let rd_len = u16::from_be_bytes([msg[pos + 8], msg[pos + 9]]) as usize;
                pos += 10;
                let rdata = RData::decode(rtype, msg, pos, rd_len)?;
                pos += rd_len;
                sections[idx].push(Record {
                    name,
                    class,
                    ttl,
                    rdata,
                });
            }
        }
        let [answers, authorities, additionals] = sections;
        Ok(Message {
            header,
            questions,
            answers,
            authorities,
            additionals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::Soa;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(0x1234, n("www.example.com"), RrType::Aaaa);
        let wire = q.encode();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back, q);
        assert_eq!(back.header.id, 0x1234);
        assert!(back.header.rd);
        assert!(!back.header.qr);
    }

    #[test]
    fn response_roundtrip_with_all_sections() {
        let q = Message::query(7, n("www.example.com"), RrType::A);
        let mut resp = Message::response_to(&q, Rcode::NoError, true);
        resp.answers.push(Record::new(
            n("www.example.com"),
            300,
            RData::A("192.0.2.1".parse().unwrap()),
        ));
        resp.answers.push(Record::new(
            n("www.example.com"),
            300,
            RData::A("192.0.2.2".parse().unwrap()),
        ));
        resp.authorities.push(Record::new(
            n("example.com"),
            3600,
            RData::Ns(n("ns1.example.com")),
        ));
        resp.additionals.push(Record::new(
            n("ns1.example.com"),
            3600,
            RData::A("192.0.2.53".parse().unwrap()),
        ));
        let wire = resp.encode();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back, resp);
        assert!(back.header.aa);
        assert!(back.header.qr);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let q = Message::query(1, n("really.long.subdomain.example.com"), RrType::A);
        let mut resp = Message::response_to(&q, Rcode::NoError, true);
        for i in 0..10u8 {
            resp.answers.push(Record::new(
                n("really.long.subdomain.example.com"),
                60,
                RData::A(std::net::Ipv4Addr::new(192, 0, 2, i)),
            ));
        }
        let wire = resp.encode();
        // header(12) + question(35+4) + 10 answers × (2-byte pointer + 14
        // bytes fixed/rdata) = 211; uncompressed would be 541.
        assert_eq!(wire.len(), 211);
        assert_eq!(Message::decode(&wire).unwrap(), resp);
    }

    #[test]
    fn nxdomain_with_soa() {
        let q = Message::query(2, n("missing.example.com"), RrType::Aaaa);
        let mut resp = Message::response_to(&q, Rcode::NxDomain, true);
        resp.authorities.push(Record::new(
            n("example.com"),
            300,
            RData::Soa(Soa {
                mname: n("ns1.example.com"),
                rname: n("hostmaster.example.com"),
                serial: 1,
                refresh: 2,
                retry: 3,
                expire: 4,
                minimum: 300,
            }),
        ));
        let back = Message::decode(&resp.encode()).unwrap();
        assert_eq!(back.header.rcode, Rcode::NxDomain);
        assert_eq!(back.authorities.len(), 1);
    }

    #[test]
    fn svcb_in_message_roundtrip() {
        use crate::svcb::{SvcParam, SvcParams};
        let q = Message::query(3, n("example.com"), RrType::Https);
        let mut resp = Message::response_to(&q, Rcode::NoError, true);
        resp.answers.push(Record::new(
            n("example.com"),
            300,
            RData::Https(
                SvcParams::service(1, Name::root())
                    .with(SvcParam::Alpn(vec![b"h3".to_vec()]))
                    .with(SvcParam::Ech(vec![1, 2, 3])),
            ),
        ));
        let back = Message::decode(&resp.encode()).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(Message::decode(&[0; 11]), Err(DnsError::Truncated));
    }

    #[test]
    fn truncated_record_rejected() {
        let q = Message::query(1, n("a.example"), RrType::A);
        let wire = q.encode();
        assert!(Message::decode(&wire[..wire.len() - 2]).is_err());
    }

    #[test]
    fn rcode_roundtrip() {
        for rc in [
            Rcode::NoError,
            Rcode::FormErr,
            Rcode::ServFail,
            Rcode::NxDomain,
            Rcode::NotImp,
            Rcode::Refused,
            Rcode::Other(9),
        ] {
            assert_eq!(Rcode::from_code(rc.code()), rc);
        }
    }

    #[test]
    fn decode_is_case_preserving_but_compare_insensitive() {
        let q = Message::query(1, n("WwW.ExAmPlE.cOm"), RrType::A);
        let back = Message::decode(&q.encode()).unwrap();
        assert_eq!(back.questions[0].name, n("www.example.com"));
    }
}
