//! Domain names: labels, comparison, wire encoding with compression.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::error::DnsError;

/// A fully qualified domain name as a sequence of labels (without the
/// trailing root label in storage; the root name has zero labels).
///
/// Comparison and hashing are case-insensitive, per RFC 1035 §2.3.3.
///
/// Labels are stored flat, in uncompressed wire form (`len · bytes ·
/// len · bytes …`, no trailing root byte) behind one `Arc`. Decoding or
/// parsing a name therefore costs exactly one heap allocation however
/// many labels it has — the previous `Arc<Vec<Vec<u8>>>` layout paid
/// `1 + label_count` — and cloning on the simulator's packet path
/// (query logs, record clones, question echoes) stays one
/// reference-count bump. `Arc` (not `Rc`) because zone sets holding
/// names cross threads via the process-wide resolver zone cache.
#[derive(Clone, Eq)]
pub struct Name {
    wire: Arc<[u8]>,
}

/// Iterator over a name's labels, leftmost first.
pub struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, rest) = self.rest.split_first()?;
        let (label, rest) = rest.split_at(usize::from(len));
        self.rest = rest;
        Some(label)
    }
}

/// A name under construction on the stack: wire bytes accumulate in a
/// fixed 254-byte buffer (the RFC 1035 ceiling) and spill to the heap
/// exactly once, in [`WireBuf::finish`].
struct WireBuf {
    buf: [u8; 254],
    len: usize,
}

impl WireBuf {
    fn new() -> WireBuf {
        WireBuf {
            buf: [0; 254],
            len: 0,
        }
    }

    fn push_label(&mut self, label: &[u8]) -> Result<(), DnsError> {
        if label.is_empty() {
            return Err(DnsError::BadName("empty label".into()));
        }
        if label.len() > 63 {
            return Err(DnsError::LabelTooLong);
        }
        if self.len + 1 + label.len() > self.buf.len() {
            return Err(DnsError::NameTooLong);
        }
        self.buf[self.len] = label.len() as u8;
        self.buf[self.len + 1..self.len + 1 + label.len()].copy_from_slice(label);
        self.len += 1 + label.len();
        Ok(())
    }

    fn finish(self) -> Name {
        if self.len == 0 {
            return Name::root();
        }
        Name {
            wire: Arc::from(&self.buf[..self.len]),
        }
    }
}

/// Name-compression state for one message encode: the offsets where label
/// runs were written. Lookup compares a candidate suffix against the wire
/// bytes already in the buffer (following pointers), so no per-suffix
/// `String` key is ever built — the previous `HashMap<String, u16>`
/// allocated and SipHashed one key per label per name, a top cost of the
/// simulator's packet path.
#[derive(Default)]
pub struct CompressMap {
    offsets: Vec<u16>,
}

impl CompressMap {
    /// An empty compression map (one per message encode).
    pub fn new() -> CompressMap {
        CompressMap::default()
    }

    /// Forgets every offset, keeping the allocation for the next encode.
    pub(crate) fn clear(&mut self) {
        self.offsets.clear();
    }

    /// The offset of the first previously written name suffix equal
    /// (case-insensitively) to the wire-form label run `suffix`, if any
    /// — matching the first-insert-wins semantics of the old keyed map.
    fn find(&self, msg: &[u8], suffix: &[u8]) -> Option<u16> {
        self.offsets
            .iter()
            .copied()
            .find(|&off| suffix_matches(msg, usize::from(off), suffix))
    }
}

/// Whether the wire name starting at `msg[pos]` (following compression
/// pointers) equals exactly the label run `suffix` + root.
fn suffix_matches(msg: &[u8], mut pos: usize, suffix: &[u8]) -> bool {
    let mut jumps = 0;
    let mut next_label = |pos: &mut usize| -> Option<(usize, usize)> {
        loop {
            let len = *msg.get(*pos)? as usize;
            if len & 0xC0 == 0xC0 {
                // A pointer: the tail of this stored name was itself
                // compressed. Bounded by the jump budget decoders use.
                jumps += 1;
                if jumps > 32 {
                    return None;
                }
                let lo = *msg.get(*pos + 1)? as usize;
                *pos = ((len & 0x3F) << 8) | lo;
                continue;
            }
            let start = *pos + 1;
            *pos = start + len;
            return Some((start, len));
        }
    };
    for label in (Labels { rest: suffix }) {
        let Some((start, len)) = next_label(&mut pos) else {
            return false;
        };
        if len != label.len() || !msg[start..start + len].eq_ignore_ascii_case(label) {
            return false;
        }
    }
    // The stored suffix must end here too (root label), or it is longer
    // than the candidate.
    matches!(next_label(&mut pos), Some((_, 0)))
}

impl Name {
    /// The root name `.`.
    pub fn root() -> Name {
        static ROOT: OnceLock<Name> = OnceLock::new();
        ROOT.get_or_init(|| Name {
            wire: Arc::from(&[][..]),
        })
        .clone()
    }

    /// Parses a dotted name (`"www.example.com"` / `"www.example.com."`).
    /// Empty input or `"."` yields the root.
    pub fn parse(s: &str) -> Result<Name, DnsError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        let mut buf = WireBuf::new();
        for part in s.split('.') {
            if part.is_empty() {
                return Err(DnsError::BadName(s.to_string()));
            }
            buf.push_label(part.as_bytes())?;
        }
        Ok(buf.finish())
    }

    /// Builds a name from raw labels.
    pub fn from_labels(labels: Vec<Vec<u8>>) -> Result<Name, DnsError> {
        let mut buf = WireBuf::new();
        for l in &labels {
            buf.push_label(l)?;
        }
        Ok(buf.finish())
    }

    /// The labels, leftmost first.
    pub fn labels(&self) -> Labels<'_> {
        Labels { rest: &self.wire }
    }

    /// The `i`-th label from the left, if the name has that many.
    pub fn label(&self, i: usize) -> Option<&[u8]> {
        self.labels().nth(i)
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// `true` for the root name.
    pub fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    /// Wire length when encoded without compression.
    pub fn encoded_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// Prepends a label: `Name("example.com").child("www")` →
    /// `www.example.com`.
    pub fn child(&self, label: &str) -> Result<Name, DnsError> {
        if label.is_empty() || label.len() > 63 {
            return Err(DnsError::BadName(label.to_string()));
        }
        let mut buf = WireBuf::new();
        buf.push_label(label.as_bytes())?;
        if buf.len + self.wire.len() > buf.buf.len() {
            return Err(DnsError::NameTooLong);
        }
        buf.buf[buf.len..buf.len + self.wire.len()].copy_from_slice(&self.wire);
        buf.len += self.wire.len();
        Ok(buf.finish())
    }

    /// The name with the leftmost label removed; `None` at the root.
    pub fn parent(&self) -> Option<Name> {
        let (&len, rest) = self.wire.split_first()?;
        Some(Name {
            wire: Arc::from(&rest[usize::from(len)..]),
        })
    }

    /// `true` if `self` equals `other` or is underneath it
    /// (`www.example.com` is a subdomain of `example.com` and of `.`).
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        if other.wire.len() > self.wire.len() {
            return false;
        }
        // The candidate suffix must start on a label boundary of `self`
        // — a bare byte-suffix match could begin mid-label.
        let offset = self.wire.len() - other.wire.len();
        let mut pos = 0;
        while pos < offset {
            pos += 1 + usize::from(self.wire[pos]);
        }
        pos == offset && self.wire[offset..].eq_ignore_ascii_case(&other.wire)
    }

    /// Encodes without compression (used inside SVCB RDATA, where RFC 9460
    /// forbids compressed targets).
    pub fn encode_uncompressed(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.wire);
        out.push(0);
    }

    /// Encodes with message compression into `out`, which must be the
    /// *entire message buffer so far* (offsets are `out.len()`-relative).
    /// `compress` remembers previously written name suffixes by message
    /// offset.
    pub fn encode_compressed(&self, out: &mut Vec<u8>, compress: &mut CompressMap) {
        let mut idx = 0;
        while idx < self.wire.len() {
            if let Some(off) = compress.find(out, &self.wire[idx..]) {
                out.push(0xC0 | ((off >> 8) as u8));
                out.push((off & 0xFF) as u8);
                return;
            }
            let here = out.len();
            // Only offsets representable in 14 bits are reusable.
            if here <= 0x3FFF {
                compress.offsets.push(here as u16);
            }
            let len = usize::from(self.wire[idx]);
            out.extend_from_slice(&self.wire[idx..idx + 1 + len]);
            idx += 1 + len;
        }
        out.push(0);
    }

    /// Decodes a name from `msg` starting at `*pos`, following compression
    /// pointers. `*pos` advances past the name *in the original stream*
    /// (pointers do not move it further).
    pub fn decode(msg: &[u8], pos: &mut usize) -> Result<Name, DnsError> {
        Name::decode_reusing(msg, pos, None)
    }

    /// [`Name::decode`], returning a clone of `known` instead of a fresh
    /// allocation when the decoded bytes equal it exactly (case
    /// included): a message's owner names mostly repeat its question.
    pub(crate) fn decode_reusing(
        msg: &[u8],
        pos: &mut usize,
        known: Option<&Name>,
    ) -> Result<Name, DnsError> {
        // Labels accumulate on the stack and hit the heap exactly once,
        // at the terminal root label. 255 (not 254) preserves the
        // decoder's historical acceptance of names whose label run sums
        // to exactly 255 bytes.
        let mut buf = [0u8; 255];
        let mut total = 0usize;
        let mut cursor = *pos;
        let mut jumped = false;
        let mut jumps = 0;
        loop {
            let len = *msg.get(cursor).ok_or(DnsError::Truncated)? as usize;
            if len == 0 {
                if !jumped {
                    *pos = cursor + 1;
                }
                if total == 0 {
                    return Ok(Name::root());
                }
                if let Some(known) = known.filter(|k| *k.wire == buf[..total]) {
                    return Ok(known.clone());
                }
                return Ok(Name {
                    wire: Arc::from(&buf[..total]),
                });
            }
            if len & 0xC0 == 0xC0 {
                let b2 = *msg.get(cursor + 1).ok_or(DnsError::Truncated)? as usize;
                let target = ((len & 0x3F) << 8) | b2;
                if target >= cursor {
                    return Err(DnsError::BadPointer);
                }
                jumps += 1;
                if jumps > 64 {
                    return Err(DnsError::BadPointer);
                }
                if !jumped {
                    *pos = cursor + 2;
                    jumped = true;
                }
                cursor = target;
                continue;
            }
            if len > 63 {
                return Err(DnsError::LabelTooLong);
            }
            let start = cursor + 1;
            let end = start + len;
            if end > msg.len() {
                return Err(DnsError::Truncated);
            }
            if total + len + 1 > buf.len() {
                return Err(DnsError::NameTooLong);
            }
            buf[total] = len as u8;
            buf[total + 1..total + 1 + len].copy_from_slice(&msg[start..end]);
            total += len + 1;
            cursor = end;
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        // Case-insensitive comparison over the whole wire run is sound:
        // length bytes are ≤ 63 (never ASCII letters), so they compare
        // exactly, and equal length bytes force the label boundaries of
        // both names to align position by position.
        self.wire.eq_ignore_ascii_case(&other.wire)
    }
}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for l in self.labels() {
            for &b in l {
                state.write_u8(b.to_ascii_lowercase());
            }
            state.write_u8(b'.');
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let a = self.to_string().to_ascii_lowercase();
        let b = other.to_string().to_ascii_lowercase();
        a.cmp(&b)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for (i, l) in self.labels().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            for &b in l {
                if b.is_ascii_graphic() && b != b'.' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{b:03}")?;
                }
            }
        }
        f.write_str(".")
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl std::str::FromStr for Name {
    type Err = DnsError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("www.example.com").to_string(), "www.example.com.");
        assert_eq!(n("www.example.com.").to_string(), "www.example.com.");
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(n("").to_string(), ".");
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        use std::collections::HashSet;
        assert_eq!(n("WWW.Example.COM"), n("www.example.com"));
        let mut set = HashSet::new();
        set.insert(n("Example.Com"));
        assert!(set.contains(&n("example.com")));
    }

    #[test]
    fn subdomain_relation() {
        assert!(n("www.example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&Name::root()));
        assert!(!n("example.com").is_subdomain_of(&n("www.example.com")));
        assert!(!n("anexample.com").is_subdomain_of(&n("example.com")));
        assert!(n("WWW.EXAMPLE.COM").is_subdomain_of(&n("example.com")));
    }

    #[test]
    fn subdomain_requires_label_alignment() {
        // The byte suffix `\x03com` appears inside the single label
        // `ab\x03com`, but not on a label boundary: no subdomain.
        let inner = Name::from_labels(vec![b"ab\x03com".to_vec()]).unwrap();
        assert!(!inner.is_subdomain_of(&n("com")));
    }

    #[test]
    fn labels_iterate_leftmost_first() {
        let name = n("www.example.com");
        let labels: Vec<&[u8]> = name.labels().collect();
        assert_eq!(labels, vec![&b"www"[..], &b"example"[..], &b"com"[..]]);
        assert_eq!(name.label(0), Some(&b"www"[..]));
        assert_eq!(name.label(2), Some(&b"com"[..]));
        assert_eq!(name.label(3), None);
        assert_eq!(name.label_count(), 3);
        assert_eq!(Name::root().label_count(), 0);
    }

    #[test]
    fn child_and_parent() {
        let base = n("example.com");
        assert_eq!(base.child("www").unwrap(), n("www.example.com"));
        assert_eq!(n("www.example.com").parent().unwrap(), n("example.com"));
        assert!(Name::root().parent().is_none());
    }

    #[test]
    fn rejects_bad_labels() {
        assert!(Name::parse("a..b").is_err());
        let long = "x".repeat(64);
        assert!(matches!(
            Name::parse(&format!("{long}.com")),
            Err(DnsError::LabelTooLong)
        ));
    }

    #[test]
    fn rejects_too_long_name() {
        let label = "a".repeat(63);
        let s = format!("{label}.{label}.{label}.{label}.{label}");
        assert!(matches!(Name::parse(&s), Err(DnsError::NameTooLong)));
    }

    #[test]
    fn uncompressed_roundtrip() {
        let name = n("mail.example.org");
        let mut buf = Vec::new();
        name.encode_uncompressed(&mut buf);
        let mut pos = 0;
        let back = Name::decode(&buf, &mut pos).unwrap();
        assert_eq!(back, name);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn compressed_roundtrip_shares_suffix() {
        let mut buf = Vec::new();
        let mut table = CompressMap::new();
        let a = n("www.example.com");
        let b = n("mail.example.com");
        a.encode_compressed(&mut buf, &mut table);
        b.encode_compressed(&mut buf, &mut table);
        assert!(
            buf.len() < a.encoded_len() + b.encoded_len(),
            "compression must shorten the encoding"
        );
        let mut pos = 0;
        assert_eq!(Name::decode(&buf, &mut pos).unwrap(), a);
        assert_eq!(Name::decode(&buf, &mut pos).unwrap(), b);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn pointer_loop_detected() {
        // A pointer pointing at itself.
        let buf = [0xC0, 0x00];
        let mut pos = 0;
        assert_eq!(Name::decode(&buf, &mut pos), Err(DnsError::BadPointer));
    }

    #[test]
    fn forward_pointer_rejected() {
        let buf = [0xC0, 0x04, 0, 0, 0];
        let mut pos = 0;
        assert_eq!(Name::decode(&buf, &mut pos), Err(DnsError::BadPointer));
    }

    #[test]
    fn truncated_name_rejected() {
        let buf = [3, b'w', b'w'];
        let mut pos = 0;
        assert_eq!(Name::decode(&buf, &mut pos), Err(DnsError::Truncated));
    }

    #[test]
    fn ordering_is_case_insensitive() {
        let mut names = [n("b.com"), n("A.com"), n("c.com")];
        names.sort();
        assert_eq!(names[0], n("a.com"));
    }
}
