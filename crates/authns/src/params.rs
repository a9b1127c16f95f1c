//! Test parameters encoded in query names, following the paper's design:
//! "These parameters include the delay, the resource record type to delay,
//! and a nonce to prevent caching effects" (§4.1(ii)).
//!
//! Wire syntax (one label, directly under the test apex):
//!
//! ```text
//! d<millis>-t<a|aaaa|both|none>[-x<a|aaaa>][-c<count>]-n<nonce>
//! ```
//!
//! * `d` — delay in milliseconds applied to the targeted record type(s);
//! * `t` — which query type the delay applies to;
//! * `x` — optionally answer *empty* (NODATA) for one type, modelling
//!   broken deployments (e.g. domains with empty AAAA, cf. Foremski et al.);
//! * `c` — optionally cap the number of address records returned
//!   (address-selection experiments configure 10 per family);
//! * `n` — nonce, ignored except for making every test name unique so no
//!   cache along the path can interfere.

use std::time::Duration;

use lazyeye_dns::RrType;

/// Which record type a delay (or exclusion) targets.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum DelayTarget {
    /// Delay A answers only.
    A,
    /// Delay AAAA answers only.
    Aaaa,
    /// Delay both.
    Both,
    /// Delay nothing (baseline runs).
    None,
}

impl DelayTarget {
    /// Whether the delay applies to a query of `qtype`.
    pub fn applies_to(self, qtype: RrType) -> bool {
        match self {
            DelayTarget::A => qtype == RrType::A,
            DelayTarget::Aaaa => qtype == RrType::Aaaa,
            DelayTarget::Both => matches!(qtype, RrType::A | RrType::Aaaa),
            DelayTarget::None => false,
        }
    }
}

/// Parsed test parameters.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TestParams {
    /// Delay to apply to targeted answers.
    pub delay: Duration,
    /// Targeted record type(s).
    pub target: DelayTarget,
    /// Answer NODATA for this type, if set.
    pub exclude: Option<DelayTarget>,
    /// Cap on returned address records per family.
    pub count: Option<usize>,
    /// The nonce (kept for logging).
    pub nonce: String,
}

impl TestParams {
    /// Renders the label encoding these parameters.
    pub fn to_label(&self) -> String {
        let t = match self.target {
            DelayTarget::A => "a",
            DelayTarget::Aaaa => "aaaa",
            DelayTarget::Both => "both",
            DelayTarget::None => "none",
        };
        let mut s = format!("d{}-t{}", self.delay.as_millis(), t);
        if let Some(x) = self.exclude {
            s.push_str(match x {
                DelayTarget::A => "-xa",
                DelayTarget::Aaaa => "-xaaaa",
                _ => "",
            });
        }
        if let Some(c) = self.count {
            s.push_str(&format!("-c{c}"));
        }
        s.push_str(&format!("-n{}", self.nonce));
        s
    }

    /// Convenience constructor for the common "delay one type" case.
    pub fn delay(ms: u64, target: DelayTarget, nonce: impl Into<String>) -> TestParams {
        TestParams {
            delay: Duration::from_millis(ms),
            target,
            exclude: None,
            count: None,
            nonce: nonce.into(),
        }
    }
}

/// Parses a test label; `None` if the label is not parameter-encoded.
pub fn parse_test_label(label: &str) -> Option<TestParams> {
    let mut delay = None;
    let mut target = None;
    let mut exclude = None;
    let mut count = None;
    let mut nonce = None;
    for seg in label.split('-') {
        let (key, val) = seg.split_at(1.min(seg.len()));
        match key {
            "d" => delay = val.parse::<u64>().ok().map(Duration::from_millis),
            "t" => {
                target = match val {
                    "a" => Some(DelayTarget::A),
                    "aaaa" => Some(DelayTarget::Aaaa),
                    "both" => Some(DelayTarget::Both),
                    "none" => Some(DelayTarget::None),
                    _ => return None,
                }
            }
            "x" => {
                exclude = match val {
                    "a" => Some(DelayTarget::A),
                    "aaaa" => Some(DelayTarget::Aaaa),
                    _ => return None,
                }
            }
            "c" => count = val.parse::<usize>().ok(),
            "n" => nonce = Some(val.to_string()),
            _ => return None,
        }
    }
    Some(TestParams {
        delay: delay?,
        target: target?,
        exclude,
        count,
        nonce: nonce?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let p = TestParams::delay(250, DelayTarget::Aaaa, "abc123");
        let label = p.to_label();
        assert_eq!(label, "d250-taaaa-nabc123");
        assert_eq!(parse_test_label(&label), Some(p));
    }

    #[test]
    fn roundtrip_full() {
        let p = TestParams {
            delay: Duration::from_millis(1500),
            target: DelayTarget::A,
            exclude: Some(DelayTarget::Aaaa),
            count: Some(10),
            nonce: "ff".into(),
        };
        assert_eq!(parse_test_label(&p.to_label()), Some(p));
    }

    #[test]
    fn applies_to() {
        assert!(DelayTarget::Aaaa.applies_to(RrType::Aaaa));
        assert!(!DelayTarget::Aaaa.applies_to(RrType::A));
        assert!(DelayTarget::Both.applies_to(RrType::A));
        assert!(!DelayTarget::None.applies_to(RrType::Aaaa));
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(parse_test_label("www"), None);
        assert_eq!(parse_test_label("d-t-n"), None);
        assert_eq!(parse_test_label("d100-tbogus-n1"), None);
        assert_eq!(parse_test_label(""), None);
    }

    #[test]
    fn missing_fields_rejected() {
        assert_eq!(parse_test_label("d100-n1"), None, "no target");
        assert_eq!(parse_test_label("taaaa-n1"), None, "no delay");
        assert_eq!(parse_test_label("d100-taaaa"), None, "no nonce");
    }
}
