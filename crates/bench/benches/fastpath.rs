//! Criterion: compiled fast path vs full simulation on a CAD-sweep
//! campaign — end-to-end runs/second both ways.
//!
//! Also emits the `fastpath` section of `BENCH.json`: both throughput
//! series, plus the deterministic calibration/run/fallback/cell counters
//! of one fixed-seed `--jobs 1` fast execution. `bench_check` pins the
//! counters against the checked-in baseline and gates the speedup at
//! ≥ 2× (both numbers come from the same run on the same machine, so
//! the gate is machine-independent).

use criterion::{criterion_group, criterion_main, Criterion};
use lazyeye_bench::bench_json;
use lazyeye_campaign::{run_campaign_with, CampaignSpec, NetemSpec};
use lazyeye_json::Json;
use lazyeye_testbed::{CadCaseConfig, SweepSpec};

/// Runs/sec of `iters` sequential executions of the bench campaign.
fn throughput(spec: &CampaignSpec, iters: u32, fast: bool) -> f64 {
    for _ in 0..10 {
        std::hint::black_box(
            run_campaign_with(spec, 1, fast, |_, _| {})
                .unwrap()
                .total_runs,
        );
    }
    let t0 = std::time::Instant::now();
    let mut total_runs = 0u64;
    for _ in 0..iters {
        total_runs += run_campaign_with(spec, 1, fast, |_, _| {})
            .unwrap()
            .total_runs;
    }
    total_runs as f64 / t0.elapsed().as_secs_f64()
}

/// Emits the `fastpath` section of `BENCH.json`.
fn emit_json(_c: &mut Criterion) {
    let spec = bench_spec();
    let sim_rps = throughput(&spec, 50, false);
    let fast_rps = throughput(&spec, 200, true);
    println!(
        "fastpath sweep: simulated {sim_rps:.0} runs/sec, compiled {fast_rps:.0} runs/sec ({:.1}x)",
        fast_rps / sim_rps
    );

    // Counters: one fixed-seed fast campaign at --jobs 1. Calibration
    // count, fast-run count, fallback count and the number of cells driven
    // are all deterministic functions of (spec, seed).
    bench_json::reset_counters();
    let report = run_campaign_with(&spec, 1, true, |_, _| {}).unwrap();
    let fp = |name: &'static str| {
        Json::UInt(lazyeye_obs::counter(name, lazyeye_obs::Clock::Virtual).get())
    };

    bench_json::merge_section(
        "fastpath",
        Json::obj(vec![
            ("fast_runs_per_sec", Json::Int(fast_rps as i64)),
            ("sim_runs_per_sec", Json::Int(sim_rps as i64)),
            ("smoke_total_runs", Json::UInt(report.total_runs)),
            (
                "counters",
                Json::obj(vec![
                    ("calibrations", fp("fastpath.calibrations")),
                    ("fast_runs", fp("fastpath.runs")),
                    ("fallbacks", fp("fastpath.fallbacks")),
                    ("cells", fp("fastpath.cells")),
                ]),
            ),
        ]),
    );
}

/// A CAD-sweep campaign: the workload the compiled fast path targets.
/// Three clients across the default 0–400 ms sweep with the refinement
/// pass on — every run is eligible (baseline netem), so the comparison
/// isolates analytic drive vs full simulation.
fn bench_spec() -> CampaignSpec {
    CampaignSpec {
        name: "bench-fastpath".into(),
        seed: 7,
        clients: vec![
            "chrome-130.0".into(),
            "firefox-132.0".into(),
            "curl-7.88.1".into(),
        ],
        resolvers: Vec::new(),
        netem: vec![NetemSpec::baseline()],
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(0, 400, 20),
            repetitions: 3,
        }),
        rd: None,
        selection: None,
        resolver: None,
        refine_step_ms: Some(5),
    }
}

fn bench(c: &mut Criterion) {
    for fast in [false, true] {
        let label = if fast { "fast" } else { "sim" };
        c.bench_function(&format!("cad_sweep_campaign_{label}"), |b| {
            let spec = bench_spec();
            b.iter(|| {
                let report = run_campaign_with(&spec, 1, fast, |_, _| {}).unwrap();
                std::hint::black_box(report.total_runs)
            })
        });
    }

    // The analytic driver alone: one calibrated CAD cell, no campaign
    // scaffolding.
    c.bench_function("cad_cell_compiled", |b| {
        let profile = lazyeye_clients::table2_clients().remove(0);
        let fp = lazyeye_testbed::CadFastPath::calibrate(&profile, 7, &[]).unwrap();
        b.iter(|| std::hint::black_box(fp.cell(200).unwrap().observed_cad_ms))
    });
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = emit_json, bench
}
criterion_main!(benches);
