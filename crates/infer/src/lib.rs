//! # lazyeye-infer — event traces → inferred client state + conformance
//!
//! The paper's point is *capturing the state* of Happy Eyeballs
//! implementations from observed behaviour. This crate is the automated
//! version of that analysis, in the spirit of black-box protocol
//! noncompliance checkers: feed it the [`lazyeye_trace`] event traces (or
//! per-run observations reduced from them) of a measurement sweep, and it
//! *infers* the client's Happy Eyeballs state-machine parameters —
//!
//! - the **Connection Attempt Delay** policy, via [`changepoint`]
//!   detection over the sweep grid (no hand-coded switchover brackets),
//! - the **Resolution Delay** policy (armed? with which delay? or does
//!   the client stall waiting for all answers — the §5.2 bug),
//! - **address-family preference** and **address-sorting** behaviour
//!   (RFC 6724-style grouped, single-fallback, or RFC 8305 interleaved),
//! - DNS **query scheduling** (AAAA before A),
//!
//! and scores each inferred feature against the RFC 8305 recommendations,
//! yielding a [`Verdict`] of `CONFORMANT` / `DEVIATES(reason)` /
//! `UNMEASURABLE` per feature ([`conformance`]).
//!
//! Everything is a pure fold over the input observations: same traces in,
//! byte-identical inference out — which is what lets the campaign engine
//! ship an inference-derived feature matrix that must agree with (and is
//! diffed against) the summary-derived Table 2 roll-up.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod changepoint;
pub mod compare;
pub mod conformance;
pub mod metrics;
pub mod observe;
pub mod profile;
pub mod resolver;

pub use changepoint::{detect_switchover, Changepoint};
pub use compare::{diff_profiles, fmt_opt, push_delta, FieldDelta};
pub use conformance::{score_profile, ConformanceEntry, Verdict};
pub use observe::{CaseKind, Observation};
pub use profile::{
    canonical_condition, infer_profile, infer_subject_profile, infer_traces, CadEstimate,
    InferredProfile, RdEstimate, SortingPolicy,
};
pub use resolver::{
    infer_resolver_profile, infer_resolver_traces, merge_capability, score_resolver,
    InferredResolverProfile, InferredResolverReport,
};

/// Rounds to 3 decimals — the shared precision of every percentage and
/// millisecond estimate in inferred profiles and reports (one definition,
/// so derivations that must agree byte-for-byte cannot drift).
pub fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}
