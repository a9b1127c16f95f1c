//! SVCB/HTTPS RDATA (RFC 9460) — the records Happy Eyeballs v3 consumes
//! for protocol discovery (ALPN → QUIC/HTTP3, address hints, ECH configs).

use std::net::{Ipv4Addr, Ipv6Addr};

use crate::error::DnsError;
use crate::name::Name;

/// Service parameter keys defined by RFC 9460 (plus opaque carriage).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SvcParam {
    /// `alpn` (1): protocol identifiers, e.g. `h2`, `h3`.
    Alpn(Vec<Vec<u8>>),
    /// `no-default-alpn` (2).
    NoDefaultAlpn,
    /// `port` (3).
    Port(u16),
    /// `ipv4hint` (4).
    Ipv4Hint(Vec<Ipv4Addr>),
    /// `ech` (5): opaque ECH config list — HEv3's top preference signal.
    Ech(Vec<u8>),
    /// `ipv6hint` (6).
    Ipv6Hint(Vec<Ipv6Addr>),
    /// Any other key, carried opaquely.
    Other(u16, Vec<u8>),
}

impl SvcParam {
    /// The parameter's wire key (defines the mandatory ascending order).
    pub fn key(&self) -> u16 {
        match self {
            SvcParam::Alpn(_) => 1,
            SvcParam::NoDefaultAlpn => 2,
            SvcParam::Port(_) => 3,
            SvcParam::Ipv4Hint(_) => 4,
            SvcParam::Ech(_) => 5,
            SvcParam::Ipv6Hint(_) => 6,
            SvcParam::Other(k, _) => *k,
        }
    }

    fn encode_value(&self, out: &mut Vec<u8>) {
        match self {
            SvcParam::Alpn(ids) => {
                for id in ids {
                    out.push(id.len().min(255) as u8);
                    out.extend_from_slice(&id[..id.len().min(255)]);
                }
            }
            SvcParam::NoDefaultAlpn => {}
            SvcParam::Port(p) => out.extend_from_slice(&p.to_be_bytes()),
            SvcParam::Ipv4Hint(addrs) => {
                for a in addrs {
                    out.extend_from_slice(&a.octets());
                }
            }
            SvcParam::Ech(cfg) => out.extend_from_slice(cfg),
            SvcParam::Ipv6Hint(addrs) => {
                for a in addrs {
                    out.extend_from_slice(&a.octets());
                }
            }
            SvcParam::Other(_, raw) => out.extend_from_slice(raw),
        }
    }

    fn decode_value(key: u16, raw: &[u8]) -> Result<SvcParam, DnsError> {
        match key {
            1 => {
                let mut ids = Vec::new();
                let mut pos = 0;
                while pos < raw.len() {
                    let len = raw[pos] as usize;
                    pos += 1;
                    if pos + len > raw.len() {
                        return Err(DnsError::BadRdata("alpn id length"));
                    }
                    ids.push(raw[pos..pos + len].to_vec());
                    pos += len;
                }
                Ok(SvcParam::Alpn(ids))
            }
            2 => {
                if !raw.is_empty() {
                    return Err(DnsError::BadRdata("no-default-alpn with value"));
                }
                Ok(SvcParam::NoDefaultAlpn)
            }
            3 => {
                if raw.len() != 2 {
                    return Err(DnsError::BadRdata("port length"));
                }
                Ok(SvcParam::Port(u16::from_be_bytes([raw[0], raw[1]])))
            }
            4 => {
                if !raw.len().is_multiple_of(4) || raw.is_empty() {
                    return Err(DnsError::BadRdata("ipv4hint length"));
                }
                Ok(SvcParam::Ipv4Hint(
                    raw.chunks_exact(4)
                        .map(|c| Ipv4Addr::new(c[0], c[1], c[2], c[3]))
                        .collect(),
                ))
            }
            5 => Ok(SvcParam::Ech(raw.to_vec())),
            6 => {
                if !raw.len().is_multiple_of(16) || raw.is_empty() {
                    return Err(DnsError::BadRdata("ipv6hint length"));
                }
                Ok(SvcParam::Ipv6Hint(
                    raw.chunks_exact(16)
                        .map(|c| {
                            let mut o = [0u8; 16];
                            o.copy_from_slice(c);
                            Ipv6Addr::from(o)
                        })
                        .collect(),
                ))
            }
            other => Ok(SvcParam::Other(other, raw.to_vec())),
        }
    }
}

/// SVCB/HTTPS RDATA: priority, target name and parameters.
///
/// `priority == 0` is AliasMode (target is an alias); `> 0` is ServiceMode.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SvcParams {
    /// SvcPriority.
    pub priority: u16,
    /// TargetName (`.` means "same as owner").
    pub target: Name,
    /// Parameters; kept sorted by key as the wire format requires.
    pub params: Vec<SvcParam>,
}

impl SvcParams {
    /// ServiceMode RDATA with no parameters yet.
    pub fn service(priority: u16, target: Name) -> SvcParams {
        SvcParams {
            priority,
            target,
            params: Vec::new(),
        }
    }

    /// Adds a parameter, keeping key order.
    pub fn with(mut self, p: SvcParam) -> SvcParams {
        self.params.push(p);
        self.params.sort_by_key(SvcParam::key);
        self
    }

    /// `true` if an `ech` parameter is present (HEv3's highest-preference
    /// protocol signal).
    pub fn has_ech(&self) -> bool {
        self.params.iter().any(|p| matches!(p, SvcParam::Ech(_)))
    }

    /// `true` if the ALPN list includes `h3` (QUIC).
    pub fn supports_h3(&self) -> bool {
        self.params.iter().any(|p| match p {
            SvcParam::Alpn(ids) => ids.iter().any(|id| id == b"h3"),
            _ => false,
        })
    }

    /// IPv6 address hints, if present.
    pub fn ipv6_hints(&self) -> Vec<Ipv6Addr> {
        self.params
            .iter()
            .find_map(|p| match p {
                SvcParam::Ipv6Hint(a) => Some(a.clone()),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// IPv4 address hints, if present.
    pub fn ipv4_hints(&self) -> Vec<Ipv4Addr> {
        self.params
            .iter()
            .find_map(|p| match p {
                SvcParam::Ipv4Hint(a) => Some(a.clone()),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// Declared alternative port, if any.
    pub fn port(&self) -> Option<u16> {
        self.params.iter().find_map(|p| match p {
            SvcParam::Port(port) => Some(*port),
            _ => None,
        })
    }

    /// Wire encoding (RFC 9460 §2.2): priority, uncompressed target,
    /// params in strictly ascending key order.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.priority.to_be_bytes());
        self.target.encode_uncompressed(out);
        let write = |out: &mut Vec<u8>, p: &SvcParam| {
            out.extend_from_slice(&p.key().to_be_bytes());
            // The value goes straight into `out`; its length prefix is
            // back-patched.
            let len_pos = out.len();
            out.extend_from_slice(&[0, 0]);
            p.encode_value(out);
            let len = out.len() - len_pos - 2;
            out[len_pos..len_pos + 2].copy_from_slice(&(len as u16).to_be_bytes());
        };
        if self.params.is_sorted_by_key(SvcParam::key) {
            self.params.iter().for_each(|p| write(out, p));
        } else {
            let mut sorted: Vec<&SvcParam> = self.params.iter().collect();
            sorted.sort_by_key(|p| p.key());
            sorted.into_iter().for_each(|p| write(out, p));
        }
    }

    /// Decodes RDATA bytes.
    pub fn decode(raw: &[u8]) -> Result<SvcParams, DnsError> {
        if raw.len() < 2 {
            return Err(DnsError::Truncated);
        }
        let priority = u16::from_be_bytes([raw[0], raw[1]]);
        let mut pos = 2;
        let target = Name::decode(raw, &mut pos)?;
        let mut params = Vec::new();
        let mut last_key: Option<u16> = None;
        while pos < raw.len() {
            if pos + 4 > raw.len() {
                return Err(DnsError::Truncated);
            }
            let key = u16::from_be_bytes([raw[pos], raw[pos + 1]]);
            let len = u16::from_be_bytes([raw[pos + 2], raw[pos + 3]]) as usize;
            pos += 4;
            if pos + len > raw.len() {
                return Err(DnsError::Truncated);
            }
            if let Some(prev) = last_key {
                if key <= prev {
                    return Err(DnsError::BadRdata("svc params out of order"));
                }
            }
            last_key = Some(key);
            params.push(SvcParam::decode_value(key, &raw[pos..pos + len])?);
            pos += len;
        }
        Ok(SvcParams {
            priority,
            target,
            params,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn sample() -> SvcParams {
        SvcParams::service(1, n("svc.example.com"))
            .with(SvcParam::Alpn(vec![b"h2".to_vec(), b"h3".to_vec()]))
            .with(SvcParam::Port(8443))
            .with(SvcParam::Ipv4Hint(vec!["192.0.2.1".parse().unwrap()]))
            .with(SvcParam::Ech(vec![0xAB, 0xCD]))
            .with(SvcParam::Ipv6Hint(vec!["2001:db8::1".parse().unwrap()]))
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let back = SvcParams::decode(&buf).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn accessors() {
        let p = sample();
        assert!(p.has_ech());
        assert!(p.supports_h3());
        assert_eq!(p.port(), Some(8443));
        assert_eq!(p.ipv6_hints().len(), 1);
        assert_eq!(p.ipv4_hints().len(), 1);
    }

    #[test]
    fn params_are_key_sorted_on_wire() {
        let p = SvcParams::service(1, Name::root())
            .with(SvcParam::Ipv6Hint(vec!["2001:db8::1".parse().unwrap()]))
            .with(SvcParam::Alpn(vec![b"h3".to_vec()]));
        let mut buf = Vec::new();
        p.encode(&mut buf);
        // After priority(2) + root target(1): first key must be 1 (alpn).
        assert_eq!(u16::from_be_bytes([buf[3], buf[4]]), 1);
    }

    #[test]
    fn out_of_order_keys_rejected() {
        // priority=1, target=root, then keys 3 and 1 (descending).
        let raw = [
            0, 1, 0, // prio + root
            0, 3, 0, 2, 0x01, 0xBB, // port
            0, 1, 0, 0, // alpn (lower key after higher)
        ];
        assert!(matches!(
            SvcParams::decode(&raw),
            Err(DnsError::BadRdata(_))
        ));
    }

    #[test]
    fn alias_mode() {
        let p = SvcParams::service(0, n("alias.example.net"));
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let back = SvcParams::decode(&buf).unwrap();
        assert_eq!(back.priority, 0);
        assert!(!back.has_ech());
    }

    #[test]
    fn bad_hint_lengths_rejected() {
        // ipv4hint with 3 bytes.
        let raw = [0, 1, 0, 0, 4, 0, 3, 1, 2, 3];
        assert!(SvcParams::decode(&raw).is_err());
    }

    #[test]
    fn unknown_params_survive_roundtrip() {
        let p = SvcParams::service(16, Name::root()).with(SvcParam::Other(0x1234, vec![9, 9]));
        let mut buf = Vec::new();
        p.encode(&mut buf);
        assert_eq!(SvcParams::decode(&buf).unwrap(), p);
    }
}
