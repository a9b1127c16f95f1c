//! # lazyeye-bench — experiment reproduction harness
//!
//! One binary per paper table/figure:
//!
//! | Binary         | Reproduces |
//! |----------------|------------|
//! | `repro_table1` | Table 1 — HE version parameters |
//! | `repro_fig2`   | Figure 2 — connection family vs configured IPv6 delay |
//! | `repro_table2` | Table 2 — client feature matrix |
//! | `repro_table3` | Table 3 — resolver IPv6 usage |
//! | `repro_table4` | Table 4 — open resolver inventory |
//! | `repro_fig4`   | Figure 4 — web tool CAD/RD grids |
//! | `repro_fig5`   | Figure 5 — address selection order |
//! | `repro_table5` | Table 5 — web campaign browser/OS inventory |
//! | `repro_icpr`   | §5.1/§5.2 — iCloud Private Relay egress behaviour |
//! | `repro_stall`  | §5.2 — the delayed-A stall and the HEv3-flag fix |
//! | `repro_all`    | everything above, into `results/` |
//!
//! Criterion benches (`cargo bench`) measure the framework itself (DNS
//! codec, simulator core, HE engine, resolver) and four design ablations
//! (see `benches/ablations.rs`).

use std::io::Write;
use std::path::{Path, PathBuf};

/// Where reproduction outputs land (`results/` at the workspace root).
pub fn results_dir() -> PathBuf {
    let candidates = [
        Path::new("results"),
        Path::new("../results"),
        Path::new("../../results"),
    ];
    for c in candidates {
        if c.is_dir() {
            return c.to_path_buf();
        }
    }
    let p = PathBuf::from("results");
    let _ = std::fs::create_dir_all(&p);
    p
}

/// Prints to stdout *and* appends to `results/<name>.txt`.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let path = results_dir().join(format!("{name}.txt"));
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = f.write_all(content.as_bytes());
        let _ = f.write_all(b"\n");
    }
}

/// Truncates a result file before a fresh reproduction run.
pub fn fresh(name: &str) {
    let path = results_dir().join(format!("{name}.txt"));
    let _ = std::fs::write(&path, b"");
}

/// Renders a Figure 2-style strip: one character per sweep point
/// (`6` = IPv6, `4` = IPv4, `x` = failed).
pub fn strip(cells: &[Option<lazyeye_net::Family>]) -> String {
    cells
        .iter()
        .map(|f| match f {
            Some(lazyeye_net::Family::V6) => '6',
            Some(lazyeye_net::Family::V4) => '4',
            None => 'x',
        })
        .collect()
}

/// `fast mode` reduces sweep resolution for quick runs
/// (`LAZYEYE_FAST=1`).
pub fn fast_mode() -> bool {
    std::env::var("LAZYEYE_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Machine-readable bench output (`BENCH.json`).
///
/// Each bench binary contributes one top-level section (`sim`,
/// `campaign`, `fleet`) holding throughput numbers (`*_per_sec`,
/// machine-dependent, informational) and a `counters` object (scheduler
/// polls, timers, tasks, events for a fixed-seed smoke workload — deterministic
/// across machines and worker counts, pinned by the checked-in baseline
/// and gated in CI by `bench_check`).
pub mod bench_json {
    use lazyeye_json::Json;
    use std::path::PathBuf;

    /// Where the generated `BENCH.json` goes: `$LAZYEYE_BENCH_JSON`
    /// (absolute paths recommended — cargo runs benches with the package
    /// directory as cwd), or `<workspace>/target/BENCH.json` by default.
    pub fn path() -> PathBuf {
        if let Ok(p) = std::env::var("LAZYEYE_BENCH_JSON") {
            return PathBuf::from(p);
        }
        PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH.json"
        ))
    }

    /// Loads the current file (or an empty object), replaces `section`,
    /// and writes it back pretty-printed.
    pub fn merge_section(section: &str, value: Json) {
        let p = path();
        let mut doc = std::fs::read_to_string(&p)
            .ok()
            .and_then(|t| Json::parse(&t).ok())
            .unwrap_or_else(|| Json::Obj(Vec::new()));
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "schema" && k != section);
            pairs.insert(
                0,
                ("schema".to_string(), Json::Str("lazyeye-bench/1".into())),
            );
            pairs.push((section.to_string(), value));
        }
        let mut text = doc.to_string_pretty();
        text.push('\n');
        if let Err(e) = std::fs::write(&p, text) {
            eprintln!("[bench] warning: cannot write {}: {e}", p.display());
        } else {
            println!("[bench] wrote section {section:?} to {}", p.display());
        }
    }

    /// Zeroes every registered metric before a fixed bench workload, so
    /// [`counters`] reads a clean per-workload tally.
    pub fn reset_counters() {
        lazyeye_obs::registry::reset_all();
    }

    /// The scheduler-counter object for a section, read straight from
    /// the `lazyeye-obs` registry (`sim.*` metric names). The poll,
    /// timer, task and event counters live in the virtual clock domain, so the
    /// values are deterministic for a fixed-seed workload; the slab-slot
    /// counters are wall-domain but still fixed at `--jobs 1`, which is
    /// how every bench emitter runs its pinned workload.
    pub fn counters() -> Json {
        use lazyeye_obs::Clock::{Virtual, Wall};
        Json::obj(vec![
            (
                "polls",
                Json::UInt(lazyeye_obs::counter("sim.polls", Virtual).get()),
            ),
            (
                "timers_armed",
                Json::UInt(lazyeye_obs::counter("sim.timers_armed", Virtual).get()),
            ),
            (
                "timers_fired",
                Json::UInt(lazyeye_obs::counter("sim.timers_fired", Virtual).get()),
            ),
            (
                "tasks_spawned",
                Json::UInt(lazyeye_obs::counter("sim.tasks_spawned", Virtual).get()),
            ),
            (
                "events_scheduled",
                Json::UInt(lazyeye_obs::counter("sim.events_scheduled", Virtual).get()),
            ),
            (
                "slots_allocated",
                Json::UInt(lazyeye_obs::counter("sim.slots_allocated", Wall).get()),
            ),
            (
                "slots_reused",
                Json::UInt(lazyeye_obs::counter("sim.slots_reused", Wall).get()),
            ),
        ])
    }
}
