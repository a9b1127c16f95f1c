//! Fleet shard state: a [`FleetCheckpoint`] is the shared
//! [`lazyeye_exec::Partial`] state instantiated for fleets — the spec, the
//! session count (`total_sessions`), the shard and the completed
//! session outputs — powering `--shard i/n` + `--merge` multi-machine
//! runs.
//!
//! A partial is small by construction: a session output is a few dozen
//! bytes (per-tier family characters), so shipping shard partials
//! between machines costs kilobytes even for large populations.

use lazyeye_exec::{Partial, Study};
use lazyeye_json::{Json, JsonError};

use crate::plan::{SessionKind, SessionSpec};
use crate::session::{output_from_json, output_to_json, SessionOutput};
use crate::spec::FleetSpec;

/// The fleet as a [`Study`]: its partial state is a [`FleetCheckpoint`].
#[derive(Clone, Debug)]
pub enum Fleet {}

/// Serialisable fleet progress: spec identity + completed session
/// outputs.
pub type FleetCheckpoint = Partial<Fleet>;

impl Study for Fleet {
    type Spec = FleetSpec;
    type Item = SessionSpec;
    type Output = SessionOutput;
    const NAME: &'static str = "fleet";
    const PLAN_KEY: &'static str = "total_sessions";

    fn index(session: &SessionSpec) -> u64 {
        session.index
    }

    fn item_kind(session: &SessionSpec) -> &'static str {
        match session.kind {
            SessionKind::Cad { .. } | SessionKind::Rd { .. } | SessionKind::RdA { .. } => "web",
            SessionKind::ResolverCheck { .. } => "resolver",
        }
    }

    fn output_kind(output: &SessionOutput) -> &'static str {
        match output {
            SessionOutput::Web(_) => "web",
            SessionOutput::Resolver(_) => "resolver",
        }
    }

    fn output_to_json(output: &SessionOutput) -> Json {
        output_to_json(output)
    }

    fn output_from_json(v: &Json) -> Result<SessionOutput, JsonError> {
        output_from_json(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ResolverCheckOutput;
    use lazyeye_net::Family;
    use lazyeye_webtool::{TierObservation, WebSessionResult};

    fn sample_outputs() -> Vec<(u64, SessionOutput)> {
        vec![
            (
                0,
                SessionOutput::Web(WebSessionResult {
                    tiers: vec![TierObservation {
                        delay_ms: 300,
                        families: vec![Some(Family::V6), Some(Family::V4), None],
                        fetch_us: vec![700, 950, 5_000_000],
                    }],
                }),
            ),
            (
                3,
                SessionOutput::Resolver(ResolverCheckOutput {
                    capable: true,
                    aaaa_first: Some(true),
                    resolution_ms: 8.125,
                }),
            ),
        ]
    }

    lazyeye_exec::partial_state_tests!(
        Fleet,
        spec: FleetSpec::default(),
        other_spec: FleetSpec {
            seed: 999,
            ..FleetSpec::default()
        },
        samples: sample_outputs(),
    );
}
