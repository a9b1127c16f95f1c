//! The benchmark's own tests: pure input generators, verification on a
//! scaled-down matrix, the traced run's metric set, and agreement with
//! `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::sync::Mutex;

use lazyeye_json::Json;
use lazyeye_perfbench::layers::{per_layer_defs, END_TO_END, PER_LAYER};
use lazyeye_perfbench::run::{run_traced, run_untraced};
use lazyeye_perfbench::workloads::{spec_text, Scale, Workload};

/// Runs share process-global state (registry counters, the counting
/// allocator's switch), so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn generators_are_pure_functions_of_the_seed() {
    for w in Workload::ALL {
        for scale in [Scale::Full, Scale::Small] {
            assert_eq!(spec_text(w, 7, scale), spec_text(w, 7, scale), "{w:?}");
            assert_ne!(spec_text(w, 7, scale), spec_text(w, 8, scale), "{w:?}");
        }
    }
}

#[test]
fn scaled_down_runs_pass_verification() {
    let _g = serial();
    for w in Workload::ALL {
        for seed in [1, 2] {
            let out = run_untraced(w, seed, 0.01, Scale::Small).unwrap();
            assert!(out.correct, "{w:?} seed {seed}: {:?}", out.failures);
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 0);
            let names: Vec<&str> = out.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
            assert_eq!(names, want);
            for (name, value, _) in &out.metrics {
                assert!(*value > 0.0, "{w:?}: {name} = {value}");
            }
        }
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric() {
    let _g = serial();
    let want: Vec<String> = per_layer_defs().into_iter().map(|(n, _)| n).collect();
    let mut nonzero = BTreeSet::new();
    for w in Workload::ALL {
        let out = run_traced(w, 3, 0.01, Scale::Small).unwrap();
        assert!(out.correct, "{w:?}: {:?}", out.failures);
        let names: Vec<String> = out.metrics.iter().map(|(n, _, _)| n.clone()).collect();
        assert_eq!(names, want, "{w:?}");
        for (name, value, _) in &out.metrics {
            assert!(value.is_finite(), "{w:?}: {name}");
            if *value != 0.0 {
                nonzero.insert(name.clone());
            }
        }
    }
    // Every layer is exercised by some workload. The RD fast path may
    // serve no run, so its hit ratio may read 0.
    let idle: Vec<&String> = want
        .iter()
        .filter(|n| !nonzero.contains(*n) && n.as_str() != "fastpath.rd_hit_ratio")
        .collect();
    assert!(idle.is_empty(), "never measured: {idle:?}");
}

fn field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or_default()
}

/// `(name, unit, better)` of each metric entry.
fn triples(metrics: &[Json]) -> Vec<(String, String, String)> {
    metrics
        .iter()
        .map(|m| {
            let f = |key| field(m, key).to_string();
            (f("name"), f("unit"), f("better"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let config = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let list = |key: &str| config.get(key).and_then(Json::as_array).unwrap().to_vec();

    let workloads: Vec<String> = list("workloads")
        .iter()
        .map(|w| field(w, "name").to_string())
        .collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);

    let e2e = triples(&list("end_to_end"));
    let want: Vec<(String, String, String)> = END_TO_END
        .iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
        .collect();
    assert_eq!(e2e, want);

    let layers = triples(&list("per_layer"));
    let want: Vec<(String, String, String)> = per_layer_defs()
        .into_iter()
        .map(|(n, d)| (n, d.unit.into(), d.better.into()))
        .collect();
    assert_eq!(layers, want);
    assert!(PER_LAYER.iter().all(|d| !d.moves.is_empty()));
}
