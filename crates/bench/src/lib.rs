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
//! Two test binaries guard the framework itself: `tests/bench_counters.rs`
//! runs five fixed-seed smoke workloads and compares their work counters
//! exactly against the checked-in `BENCH.json` (and holds the compiled
//! fast path to ≥ 2× full simulation), and `tests/ablations.rs` asserts
//! the virtual-time outcomes of design ablations. Throughput is measured
//! end to end by `perfbench/`.

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
