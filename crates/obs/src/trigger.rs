//! The trigger engine: rules that turn anomalies into black-box
//! bundles.
//!
//! Subsystems call [`fire`] at well-defined anomaly sites (fast-path
//! fallback, inference misfit, `DEVIATES(..)` verdict, refinement
//! bracket, run panic). When the engine is [armed](arm) with an output
//! directory (`--flight-record <dir>`), the first fire per
//! `(kind, key)` builds its bundle, attaches the wall context (flight
//! recorder ring snapshot + metrics exposition) and writes it to
//! `<dir>/<kind>-<key>.json`. Unarmed, `fire` returns immediately
//! without invoking the bundle builder, and the flight
//! [recorder](crate::recorder) drops every event after one relaxed load,
//! so campaigns pay nothing for the instrumentation by default.
//!
//! Keys embed the full cell provenance (case, subject, condition,
//! delay, rep), so the *set* of bundles written is a deterministic
//! function of (spec, seed) — never of worker scheduling.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use lazyeye_json::Json;

use crate::bundle::Bundle;
use crate::Clock;

/// The anomaly classes the engine reacts to.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TriggerKind {
    /// The compiled fast path refused a run and the campaign fell back
    /// to full simulation.
    FastPathFallback,
    /// The inferred changepoint left misfit runs (observations on the
    /// wrong side of the threshold).
    InferenceMisfit,
    /// A conformance feature scored `DEVIATES(..)`.
    Deviates,
    /// The refinement planner detected a switchover bracket and
    /// scheduled a second pass.
    RefinementBracket,
    /// A run panicked inside a campaign worker.
    RunPanic,
    /// The causal profiler's attributed stall phase disagreed with the
    /// inference layer's wait-for-all-answers verdict for a subject.
    AttributionMismatch,
}

impl TriggerKind {
    /// Stable label used in bundle documents and file names.
    pub fn label(self) -> &'static str {
        match self {
            TriggerKind::FastPathFallback => "fastpath-fallback",
            TriggerKind::InferenceMisfit => "inference-misfit",
            TriggerKind::Deviates => "deviates",
            TriggerKind::RefinementBracket => "refinement-bracket",
            TriggerKind::RunPanic => "run-panic",
            TriggerKind::AttributionMismatch => "attribution-mismatch",
        }
    }

    /// Inverse of [`TriggerKind::label`].
    pub fn parse(s: &str) -> Option<TriggerKind> {
        Some(match s {
            "fastpath-fallback" => TriggerKind::FastPathFallback,
            "inference-misfit" => TriggerKind::InferenceMisfit,
            "deviates" => TriggerKind::Deviates,
            "refinement-bracket" => TriggerKind::RefinementBracket,
            "run-panic" => TriggerKind::RunPanic,
            "attribution-mismatch" => TriggerKind::AttributionMismatch,
            _ => return None,
        })
    }
}

struct Armed {
    dir: PathBuf,
    seen: BTreeSet<String>,
}

fn state() -> &'static Mutex<Option<Armed>> {
    static STATE: Mutex<Option<Armed>> = Mutex::new(None);
    &STATE
}

/// Mirrors `state().is_some()` so the hot-path checks ([`armed`] and
/// every [`crate::recorder::record`]) read one atomic instead of taking
/// the engine lock.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Arms the engine: bundles are written into `dir` (created if needed)
/// until [`disarm`]. Re-arming resets the per-session deduplication
/// set.
pub fn arm(dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut guard = state().lock().unwrap();
    *guard = Some(Armed {
        dir: dir.to_path_buf(),
        seen: BTreeSet::new(),
    });
    ARMED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Disarms the engine; subsequent [`fire`] calls are no-ops and the
/// flight recorder stops recording.
pub fn disarm() {
    let mut guard = state().lock().unwrap();
    ARMED.store(false, Ordering::Relaxed);
    *guard = None;
}

/// Whether the engine is currently armed: one relaxed atomic load.
/// Trigger sites that need to compute provenance before firing use this
/// as their early-out, and the flight recorder records only while it
/// holds.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Number of bundles written since process start (virtual domain: the
/// bundle set is deterministic for an armed (spec, seed) workload).
pub fn bundles_written() -> u64 {
    crate::counter("flightrec.bundles", Clock::Virtual).get()
}

/// Fires a trigger. Returns the bundle path if one was written; `None`
/// when unarmed, deduplicated, or on I/O failure (recorded in the ring
/// as `flightrec.error`).
///
/// `build` runs outside the engine lock — it may re-execute the run to
/// capture a trace — and only for the first fire per `(kind, key)`.
pub fn fire(kind: TriggerKind, key: &str, build: impl FnOnce() -> Bundle) -> Option<PathBuf> {
    let dir = {
        let mut guard = state().lock().unwrap();
        let armed = guard.as_mut()?;
        if !armed.seen.insert(format!("{}:{key}", kind.label())) {
            return None;
        }
        armed.dir.clone()
    };
    let mut bundle = build();
    bundle.wall = Json::obj(vec![
        ("ring", crate::recorder::recorder().snapshot_json()),
        (
            "metrics",
            Json::Str(crate::registry::render_prometheus(None)),
        ),
    ]);
    let path = dir.join(bundle.file_name());
    match std::fs::write(&path, bundle.to_json_string()) {
        Ok(()) => {
            crate::counter("flightrec.bundles", Clock::Virtual).inc();
            crate::recorder::record(Clock::Wall, "flightrec.bundle", || {
                path.display().to_string()
            });
            Some(path)
        }
        Err(e) => {
            crate::recorder::record(Clock::Wall, "flightrec.error", || {
                format!("{}: {e}", path.display())
            });
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundle(kind: TriggerKind, key: &str) -> Bundle {
        Bundle::new(
            kind.label(),
            key,
            "detail",
            Json::obj(vec![("seed", Json::UInt(1))]),
            Json::Null,
        )
    }

    #[test]
    fn kind_labels_roundtrip() {
        for kind in [
            TriggerKind::FastPathFallback,
            TriggerKind::InferenceMisfit,
            TriggerKind::Deviates,
            TriggerKind::RefinementBracket,
            TriggerKind::RunPanic,
            TriggerKind::AttributionMismatch,
        ] {
            assert_eq!(TriggerKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(TriggerKind::parse("nope"), None);
    }

    #[test]
    fn fire_is_noop_unarmed_and_dedups_when_armed() {
        let _g = crate::test_lock().lock().unwrap();
        disarm();
        let mut built = 0u32;
        assert!(fire(TriggerKind::RunPanic, "k", || {
            built += 1;
            bundle(TriggerKind::RunPanic, "k")
        })
        .is_none());
        assert_eq!(built, 0, "unarmed fire must not build");

        let dir = std::env::temp_dir().join(format!("lazyeye-trigger-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        arm(&dir).unwrap();
        assert!(armed());
        let p1 = fire(TriggerKind::RunPanic, "k", || {
            built += 1;
            bundle(TriggerKind::RunPanic, "k")
        });
        let p2 = fire(TriggerKind::RunPanic, "k", || {
            built += 1;
            bundle(TriggerKind::RunPanic, "k")
        });
        disarm();
        assert_eq!(built, 1, "second fire deduplicated");
        let p1 = p1.expect("first fire writes a bundle");
        assert!(p2.is_none());
        let text = std::fs::read_to_string(&p1).unwrap();
        let parsed = Bundle::from_json_str(&text).unwrap();
        assert_eq!(parsed.kind, "run-panic");
        assert!(
            parsed.wall.get("ring").is_some(),
            "wall context attached at write time"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
