//! The `BENCH.json` gate: runs the five fixed-seed smoke workloads
//! (`sim`, `campaign`, `dns`, `fastpath`, `fleet`) in-process and
//! compares every pinned value exactly, in both directions — a value the
//! workloads produce but `BENCH.json` lacks fails just like a drifted
//! one. It also holds the compiled fast path to ≥ 2× full simulation on
//! the same sweep, timed within this run.
//!
//! The scheduler and fast-path counters are deterministic functions of
//! the workloads; the DNS allocation counts are deterministic for the
//! fixed codec inputs. Re-pinning after an intended change: run this
//! test, read the mismatches it names, and edit `BENCH.json`.
//!
//! The obs registry is process-global and the harness runs tests on
//! parallel threads, so every test here that touches it holds
//! [`REGISTRY`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lazyeye_campaign::{run_campaign, run_campaign_with, CampaignSpec, NetemSpec, SelectionPlan};
use lazyeye_dns::{Message, Name, RData, Rcode, Record, RrType, SvcParam, SvcParams};
use lazyeye_fleet::{run_fleet, FleetCondition, FleetSpec};
use lazyeye_json::Json;
use lazyeye_obs::Clock::{Virtual, Wall};
use lazyeye_sim::{sleep, spawn};
use lazyeye_testbed::{CadCaseConfig, ResolverCaseConfig, SweepSpec};

/// Forwards to [`System`] and counts allocation calls per thread, so the
/// DNS workloads count only their own allocations.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's obligations under `GlobalAlloc` are exactly `System`'s;
// the counter is a const-initialised thread local, which never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static REGISTRY: Mutex<()> = Mutex::new(());

const PINNED: &str = include_str!("../../../BENCH.json");

fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every measured value, keyed by its dotted path in `BENCH.json`.
type Measured = BTreeMap<String, Json>;

fn put(out: &mut Measured, path: &str, value: u64) {
    out.insert(path.to_string(), Json::Int(value as i64));
}

/// Runs `workload` once to warm up (so pooled sims and slab slots exist
/// and `slots_allocated` reads 0), zeroes the registry, then runs it
/// once more for the pinned tally.
fn measured_pass<T>(mut workload: impl FnMut() -> T) -> T {
    workload();
    lazyeye_obs::registry::reset_all();
    workload()
}

/// The scheduler counters of `section`, read from the obs registry. The
/// poll, timer, task and event counters are virtual-clock; the slab-slot
/// counters are wall-clock but fixed at `--jobs 1`.
fn scheduler_counters(out: &mut Measured, section: &str) {
    for (key, name, clock) in [
        ("polls", "sim.polls", Virtual),
        ("timers_armed", "sim.timers_armed", Virtual),
        ("timers_fired", "sim.timers_fired", Virtual),
        ("tasks_spawned", "sim.tasks_spawned", Virtual),
        ("events_scheduled", "sim.events_scheduled", Virtual),
        ("slots_allocated", "sim.slots_allocated", Wall),
        ("slots_reused", "sim.slots_reused", Wall),
    ] {
        let value = lazyeye_obs::counter(name, clock).get();
        put(out, &format!("{section}.counters.{key}"), value);
    }
}

// ---------------------------------------------------------------------------
// sim: the executor lifecycle of one measurement run
// ---------------------------------------------------------------------------

/// One measurement-run-shaped executor workload: a pooled sim, a fan of
/// racing timer tasks and a channel ping stream.
fn lifecycle_run(seed: u64) {
    let mut sim = lazyeye_sim::pooled(seed);
    sim.block_on(async {
        let mut handles = Vec::new();
        for i in 0..32u64 {
            handles.push(spawn(async move {
                lazyeye_sim::race(
                    sleep(Duration::from_millis(i % 7)),
                    sleep(Duration::from_millis(3)),
                )
                .await;
            }));
        }
        let (tx, mut rx) = lazyeye_sim::sync::mpsc::unbounded::<u32>();
        spawn(async move {
            for i in 0..64u32 {
                if tx.send(i).is_err() {
                    break;
                }
                sleep(Duration::from_micros(500)).await;
            }
        });
        while rx.recv().await.is_some() {}
        for h in handles {
            let _ = h.await;
        }
    });
}

/// 100 fixed-seed lifecycle runs. Each run's tallies flush into the
/// registry when its sim drops back into the pool.
fn sim_section(out: &mut Measured) {
    measured_pass(|| (0..100).for_each(lifecycle_run));
    scheduler_counters(out, "sim");
}

// ---------------------------------------------------------------------------
// campaign: the 130-run bench matrix across all four case families
// ---------------------------------------------------------------------------

fn campaign_spec() -> CampaignSpec {
    CampaignSpec {
        name: "bench".into(),
        seed: 7,
        clients: vec![
            "chrome-130.0".into(),
            "firefox-132.0".into(),
            "curl-7.88.1".into(),
        ],
        resolvers: vec!["BIND".into(), "Unbound".into()],
        netem: vec![NetemSpec::baseline()],
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(0, 400, 50),
            repetitions: 2,
        }),
        rd: None,
        selection: Some(SelectionPlan {
            repetitions: 2,
            ..SelectionPlan::default()
        }),
        resolver: Some(ResolverCaseConfig {
            sweep: SweepSpec::new(0, 600, 200),
            repetitions: 2,
        }),
        refine_step_ms: Some(5),
    }
}

fn campaign_section(out: &mut Measured) {
    let spec = campaign_spec();
    let report = measured_pass(|| run_campaign(&spec, 1, |_, _| {}).unwrap());
    put(out, "campaign.smoke_total_runs", report.total_runs);
    scheduler_counters(out, "campaign");
    let shared = lazyeye_obs::counter("campaign.runs_shared", Virtual).get();
    put(out, "campaign.counters.runs_shared", shared);
}

// ---------------------------------------------------------------------------
// fastpath: the 216-run CAD sweep the compiled fast path targets
// ---------------------------------------------------------------------------

/// The campaign spec's three clients across the 0–400 ms CAD sweep alone,
/// refinement on; every run is eligible (baseline netem), so fast vs
/// simulated isolates analytic drive vs full simulation.
fn fastpath_spec() -> CampaignSpec {
    CampaignSpec {
        name: "bench-fastpath".into(),
        resolvers: Vec::new(),
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(0, 400, 20),
            repetitions: 3,
        }),
        selection: None,
        resolver: None,
        ..campaign_spec()
    }
}

fn fastpath_section(out: &mut Measured) {
    let spec = fastpath_spec();
    let report = measured_pass(|| run_campaign_with(&spec, 1, true, |_, _| {}).unwrap());
    put(out, "fastpath.smoke_total_runs", report.total_runs);
    for (key, name) in [
        ("calibrations", "fastpath.calibrations"),
        ("fast_runs", "fastpath.runs"),
        ("fallbacks", "fastpath.fallbacks"),
        ("cells", "fastpath.cells"),
    ] {
        let value = lazyeye_obs::counter(name, Virtual).get();
        put(out, &format!("fastpath.counters.{key}"), value);
    }
}

// ---------------------------------------------------------------------------
// fleet: 14 web-tool sessions over three client families
// ---------------------------------------------------------------------------

fn fleet_spec() -> FleetSpec {
    FleetSpec {
        name: "bench".into(),
        seed: 7,
        population: vec![
            "opera-114.0.0".to_string(),
            "firefox-130.0".to_string(),
            "safari-18.0.1".to_string(),
        ],
        conditions: vec![FleetCondition {
            label: "home".into(),
            base_delay_ms: 8,
            jitter_ms: 3,
        }],
        cad_sessions: 2,
        rd_sessions: 1,
        rd_a_sessions: 0,
        repetitions: 2,
        resolver_checks: 1,
    }
}

fn fleet_section(out: &mut Measured) {
    let spec = fleet_spec();
    let report = measured_pass(|| run_fleet(&spec, 1, |_, _| {}).unwrap());
    put(out, "fleet.smoke_total_sessions", report.total_sessions);
    scheduler_counters(out, "fleet");
}

// ---------------------------------------------------------------------------
// dns: allocations per message on fixed codec inputs
// ---------------------------------------------------------------------------

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

fn small_query() -> Message {
    Message::query(0x4242, n("www.example.com"), RrType::Aaaa)
}

fn large_response() -> Message {
    let q = Message::query(7, n("www.example.com"), RrType::Aaaa);
    let mut m = Message::response_to(&q, Rcode::NoError, true);
    for i in 0..10u16 {
        m.answers.push(Record::new(
            n("www.example.com"),
            300,
            RData::Aaaa(format!("2001:db8::{i}").parse().unwrap()),
        ));
        m.answers.push(Record::new(
            n("www.example.com"),
            300,
            RData::A(format!("192.0.2.{i}").parse().unwrap()),
        ));
    }
    m.answers.push(Record::new(
        n("www.example.com"),
        300,
        RData::Https(
            SvcParams::service(1, Name::root())
                .with(SvcParam::Alpn(vec![b"h2".to_vec(), b"h3".to_vec()]))
                .with(SvcParam::Ech(vec![0xAB; 64]))
                .with(SvcParam::Ipv6Hint(vec!["2001:db8::1".parse().unwrap()])),
        ),
    ));
    m
}

/// Allocations per call of `f` on this thread, after one warm-up call.
/// A total that is not a whole multiple of the call count yields a
/// fraction, which no integer pin matches.
fn allocs_per_call<T>(mut f: impl FnMut() -> T) -> Json {
    const CALLS: u64 = 1000;
    std::hint::black_box(f());
    let before = ALLOCS.with(Cell::get);
    for _ in 0..CALLS {
        std::hint::black_box(f());
    }
    let total = ALLOCS.with(Cell::get) - before;
    if total.is_multiple_of(CALLS) {
        Json::Int((total / CALLS) as i64)
    } else {
        Json::Float(total as f64 / CALLS as f64)
    }
}

fn dns_section(out: &mut Measured) {
    let small = small_query().encode();
    let large_msg = large_response();
    let large = large_msg.encode();
    for (key, value) in [
        (
            "decode_allocs_small_query",
            allocs_per_call(|| Message::decode(&small).unwrap()),
        ),
        (
            "decode_allocs_large_response",
            allocs_per_call(|| Message::decode(&large).unwrap()),
        ),
        (
            "encode_allocs_large_response",
            allocs_per_call(|| large_msg.encode()),
        ),
    ] {
        out.insert(format!("dns.counters.{key}"), value);
    }
}

// ---------------------------------------------------------------------------
// The gates
// ---------------------------------------------------------------------------

/// Flattens `BENCH.json` into dotted paths. `note` fields document the
/// pins and are not compared.
fn flatten(prefix: &str, value: &Json, out: &mut Measured) {
    match value {
        Json::Obj(pairs) => {
            for (key, v) in pairs {
                if key == "note" {
                    continue;
                }
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                flatten(&path, v, out);
            }
        }
        leaf => {
            out.insert(prefix.to_string(), leaf.clone());
        }
    }
}

/// Every difference between the pins and the measurement, each naming
/// its field.
fn mismatches(pinned: &Measured, measured: &Measured) -> Vec<String> {
    let mut out = Vec::new();
    for (path, want) in pinned {
        match measured.get(path) {
            None => out.push(format!(
                "{path}: pinned {want}, but no workload produces it"
            )),
            Some(got) if got != want => out.push(format!("{path}: pinned {want}, measured {got}")),
            Some(_) => {}
        }
    }
    for (path, got) in measured {
        if !pinned.contains_key(path) {
            out.push(format!(
                "{path}: measured {got}, but BENCH.json does not pin it"
            ));
        }
    }
    out
}

#[test]
fn bench_json_pins_every_smoke_workload_value() {
    let doc = Json::parse(PINNED).expect("BENCH.json parses");
    let mut pinned = Measured::new();
    flatten("", &doc, &mut pinned);

    let mut measured = Measured::new();
    measured.insert("schema".into(), Json::Str("lazyeye-bench/1".into()));
    dns_section(&mut measured);
    {
        let _registry = registry_lock();
        sim_section(&mut measured);
        campaign_section(&mut measured);
        fastpath_section(&mut measured);
        fleet_section(&mut measured);
    }

    let drift = mismatches(&pinned, &measured);
    assert!(
        drift.is_empty(),
        "BENCH.json differs from the smoke workloads:\n  {}",
        drift.join("\n  ")
    );
}

/// Wall time of one `--jobs 1` pass of the fast-path sweep.
fn sweep_pass(spec: &CampaignSpec, fast: bool) -> Duration {
    let t0 = Instant::now();
    run_campaign_with(spec, 1, fast, |_, _| {}).unwrap();
    t0.elapsed()
}

/// The compiled fast path must stay ≥ 2× full simulation on the same
/// sweep. Both sides are timed in this process, alternating, best of 3,
/// so the ratio does not depend on the host.
#[test]
fn fast_path_holds_twice_full_simulation() {
    let _registry = registry_lock();
    let spec = fastpath_spec();
    sweep_pass(&spec, false);
    sweep_pass(&spec, true);
    let (mut sim, mut fast) = (Duration::MAX, Duration::MAX);
    for _ in 0..3 {
        sim = sim.min(sweep_pass(&spec, false));
        fast = fast.min(sweep_pass(&spec, true));
    }
    let speedup = sim.as_secs_f64() / fast.as_secs_f64();
    println!("fastpath speedup {speedup:.2}x (sim {sim:?}, fast {fast:?} per pass)");
    assert!(
        speedup >= 2.0,
        "fastpath speedup {speedup:.2}x < 2.00x (sim {sim:?}, fast {fast:?} per pass)"
    );
}
