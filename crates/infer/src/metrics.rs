//! Inference-pipeline metrics.
//!
//! Everything here is [`Clock::Virtual`]: the inference fold is a pure
//! function of its input observations, so these counters are
//! byte-pinnable in the CI exposition whatever the worker count.
//!
//! Each handle is looked up in the registry once and cached, so a hot
//! caller (one [`observations`] bump per observation) never takes the
//! registry lock.

use std::sync::OnceLock;

use lazyeye_obs::{counter, Clock, Counter};

/// Observations reduced into the inference fold (one per
/// [`Observation::shell`](crate::Observation::shell) construction, which
/// both the trace and the campaign reduction paths go through).
pub fn observations() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| counter("infer.observations", Clock::Virtual))
}

/// Candidate thresholds evaluated by
/// [`detect_switchover`](crate::detect_switchover) (the `-∞` threshold
/// plus one per distinct delay).
pub fn changepoint_candidates() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| counter("infer.changepoint.candidates", Clock::Virtual))
}

/// Runs the best-fit step model misclassified (0 on clean sweeps; each
/// one is an [`InferenceMisfit`](lazyeye_obs::trigger::TriggerKind)
/// trigger candidate).
pub fn misfit_runs() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| counter("infer.misfit.runs", Clock::Virtual))
}

/// Conformance features scored `UNMEASURABLE`.
pub fn unmeasurable_features() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| counter("infer.unmeasurable", Clock::Virtual))
}
