//! `lazyeye` — the testbed's command-line front end.
//!
//! The paper's framework is config-driven (App. B, Figure 3): a single
//! configuration selects test cases, sweep ranges and clients. This binary
//! is that interface:
//!
//! ```sh
//! lazyeye clients                       # list client profiles
//! lazyeye resolvers                     # list resolver profiles
//! lazyeye cad --client chrome-130.0    # CAD sweep for one client
//! lazyeye rd  --client safari-17.6 --record a
//! lazyeye selection --client safari-17.6
//! lazyeye resolver --profile Unbound
//! lazyeye config                        # print a default JSON config
//! lazyeye run --config testbed.json    # run every enabled case
//! lazyeye campaign --print-spec        # print the default campaign spec
//! lazyeye campaign --config spec.json --jobs 8 --seed 7 --out results
//! lazyeye campaign --config spec.json --checkpoint ckpt.json
//! lazyeye campaign --resume ckpt.json  # continue a killed campaign
//! lazyeye campaign --config spec.json --shard 0/4 --out part0
//! lazyeye campaign --merge part0.json part1.json part2.json part3.json
//! lazyeye campaign --default --timeline t.json --metrics-out m.prom --progress
//! lazyeye campaign --default --classify --flamegraph flame.collapsed
//! lazyeye profile traces.json --flamegraph flame.collapsed
//! ```
//!
//! Unknown flags are hard errors — a typo must never silently run a
//! different measurement than asked for.

use std::collections::HashMap;
use std::process::ExitCode;

use lazy_eye_inspection::campaign::{
    build_report_with, diff_reports, expand, finish_from_checkpoint_with, fold_row, profile_runs,
    run_campaign_resumable, run_campaign_resumable_with, run_shard, Campaign, CampaignReport,
    CampaignSpec, Checkpoint, InferredClientReport, LatencyBudget, Shard,
};
use lazy_eye_inspection::clients::{all_measured_clients, ClientProfile};
use lazy_eye_inspection::exec::{merge_partials, write_atomic, Partial, Study};
use lazy_eye_inspection::fleet::{self, run_fleet, run_fleet_shard, Fleet, FleetSpec};
use lazy_eye_inspection::infer::{
    diff_profiles, fmt_opt, infer_resolver_traces, infer_traces, score_profile, InferredProfile,
    InferredResolverReport,
};
use lazy_eye_inspection::json::{FromJson, Json, ToJson};
use lazy_eye_inspection::net::Family;
use lazy_eye_inspection::obs::profile::FlameGraph;
use lazy_eye_inspection::resolver::all_profiles;
use lazy_eye_inspection::testbed::{
    run_cad_case, run_cad_case_traced, run_rd_case, run_rd_case_traced, run_resolver_case,
    run_resolver_case_traced, run_selection_case, run_selection_once_traced, summarize_cad,
    summarize_rd, summarize_resolver, CadCaseConfig, DelayedRecord, RdCaseConfig,
    ResolverCaseConfig, SelectionCaseConfig, SweepSpec, Table, TestbedConfig,
};
use lazy_eye_inspection::trace::profile::{attribute, Attribution, PHASES};
use lazy_eye_inspection::trace::{Trace, TraceSet};

/// Completed runs between periodic checkpoint saves.
const CHECKPOINT_EVERY: u64 = 32;

fn find_client(id: &str) -> Option<ClientProfile> {
    all_measured_clients().into_iter().find(|c| c.id() == id)
}

/// How a flag consumes arguments.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FlagKind {
    /// Boolean presence flag.
    Switch,
    /// Takes one value; a repeat overrides (last wins).
    Value,
    /// Takes one value per occurrence; repeats accumulate.
    Multi,
}

/// One flag's shape: name and how it consumes arguments.
struct Flag {
    name: &'static str,
    kind: FlagKind,
}

const fn val(name: &'static str) -> Flag {
    Flag {
        name,
        kind: FlagKind::Value,
    }
}

const fn switch(name: &'static str) -> Flag {
    Flag {
        name,
        kind: FlagKind::Switch,
    }
}

const fn multi(name: &'static str) -> Flag {
    Flag {
        name,
        kind: FlagKind::Multi,
    }
}

/// Parsed command-line flags.
struct Flags(HashMap<String, Vec<String>>);

impl Flags {
    /// The flag's value (last occurrence), if present.
    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).and_then(|v| v.last()).map(String::as_str)
    }

    /// Every occurrence of a `Multi` flag, in order.
    fn get_all(&self, name: &str) -> &[String] {
        self.0.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether the flag appeared at all.
    fn contains(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

/// Parses `args` against an allowlist. Unknown flags, missing values and
/// stray positionals are errors — never silently ignored.
fn parse_flags(args: &[String], allowed: &[Flag]) -> Result<Flags, String> {
    let mut out: HashMap<String, Vec<String>> = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(spec) = allowed.iter().find(|f| f.name == arg) else {
            return Err(format!("unknown flag {arg:?}"));
        };
        match spec.kind {
            FlagKind::Switch => {
                out.entry(arg.clone()).or_default();
                i += 1;
            }
            FlagKind::Value | FlagKind::Multi => {
                let Some(value) = args.get(i + 1) else {
                    return Err(format!("flag {arg} requires a value"));
                };
                let entry = out.entry(arg.clone()).or_default();
                if spec.kind == FlagKind::Value {
                    entry.clear();
                }
                entry.push(value.clone());
                i += 2;
            }
        }
    }
    Ok(Flags(out))
}

fn parse_num<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("flag {name}: invalid value {v:?}")),
    }
}

/// Output format shared by the table-printing commands.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Csv,
}

fn parse_format(flags: &Flags) -> Result<Format, String> {
    match flags.get("--format") {
        None | Some("text") => Ok(Format::Text),
        Some("json") => Ok(Format::Json),
        Some("csv") => Ok(Format::Csv),
        Some(other) => Err(format!(
            "flag --format: expected text|json|csv, got {other:?}"
        )),
    }
}

fn print_table(t: &Table, format: Format) {
    match format {
        Format::Text => println!("{}", t.render()),
        Format::Json => println!("{}", t.to_json()),
        Format::Csv => print!("{}", t.to_csv()),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: lazyeye <command> [options]\n\
         commands:\n\
           clients   [--format text|json|csv]        list client profiles (ids)\n\
           resolvers [--format text|json|csv]        list resolver profiles\n\
           cad       --client <id> [--from ms --to ms --step ms --reps n --seed s\n\
                     --emit-trace <file.json>]\n\
           rd        --client <id> [--record aaaa|a] [--delay ms] [--seed s]\n\
                     [--emit-trace <file.json>]\n\
           selection --client <id> [--seed s] [--emit-trace <file.json>]\n\
           resolver  --profile <name> [--reps n] [--seed s] [--emit-trace <file.json>]\n\
           config                                    print a default JSON config\n\
           run       --config <file.json>            run all enabled cases\n\
           infer     --trace <traces.json> [--format text|json]\n\
                   | --campaign <spec.json> [--jobs n --seed s --format text|json]\n\
                   | --diff <old.json> <new.json> [--format text|json]\n\
                                                     infer HE state + RFC 8305 verdicts\n\
           campaign  --config <spec.json> | --default [--jobs n --seed s\n\
                     --format text|json|csv --classify --fast-path\n\
                     --out <basename> --checkpoint <ckpt.json> --shard i/n]\n\
                   | --resume <ckpt.json> [--jobs n --classify --format ... --out ...]\n\
                   | --merge <part.json> [--merge <part.json> ...] [--jobs n --classify ...]\n\
                   | --diff <old.json> <new.json> [--format text|json]\n\
                   | --print-spec\n\
                                                     run a full two-pass measurement campaign\n\
           fleet     --spec <fleet.json> | --default [--sessions n --reps n --jobs n\n\
                     --seed s --format text|json|csv --out <basename> --shard i/n]\n\
                   | --merge <part.json> [--merge <part.json> ...] [--jobs n ...]\n\
                   | --diff <old.json> <new.json> [--format text|json]\n\
                   | --print-spec\n\
                                                     population-scale web-tool fleet\n\
           replay    <bundle.json|dir> [--format text|json]\n\
                                                     re-execute flight-recorder bundle(s)\n\
                                                     and diff against the recording\n\
           profile   <traces.json|bundle.json|dir> [--format text|json]\n\
                     [--flamegraph <file>]           causal latency attribution: critical\n\
                                                     path + exact per-phase budget\n\
         observability (campaign, fleet, infer, replay):\n\
           --timeline <trace.json>     Chrome trace-event / Perfetto timeline\n\
           --metrics-out <m.prom>      Prometheus text exposition of all metrics\n\
           --flight-record <dir>       write anomaly black-box bundles (campaign/fleet)\n\
           --progress                  live status line (rate, ETA, idle %, slowest)\n\
           --flamegraph <file>         collapsed-stack latency flame graph plus a\n\
                                       per-cell budget table (campaign/fleet/profile)"
    );
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("lazyeye: {msg}");
    ExitCode::FAILURE
}

fn fmt_share(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.1} %")).unwrap_or_else(|| "-".into())
}

/// Writes a trace set to `path` when `--emit-trace` was given.
fn emit_trace_set(flags: &Flags, traces: &TraceSet) -> Result<(), String> {
    if let Some(path) = flags.get("--emit-trace") {
        std::fs::write(path, traces.to_json_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[trace] wrote {} trace(s) to {path}", traces.traces.len());
    }
    Ok(())
}

/// Text rendering of inferred profiles + verdicts (the `infer` command).
fn render_inferred(reports: &[InferredClientReport]) -> String {
    let mut out = String::new();
    for r in reports {
        let p = &r.profile;
        out.push_str(&format!("{} ({} runs)\n", p.subject, p.runs));
        out.push_str(&format!(
            "  CAD: impl {}, estimate {} ms, bracket ({}, {}), misfits {}\n",
            fmt_opt(&p.cad.implemented),
            fmt_opt(&p.cad.estimate_ms),
            fmt_opt(&p.cad.last_v6_delay_ms),
            fmt_opt(&p.cad.first_v4_delay_ms),
            p.cad.misfits,
        ));
        out.push_str(&format!(
            "  RD: impl {}, delay {} ms, waits-for-all {}\n",
            fmt_opt(&p.rd.implemented),
            fmt_opt(&p.rd.delay_ms),
            fmt_opt(&p.rd.waits_for_all_answers),
        ));
        out.push_str(&format!(
            "  preference: v6 share {}, AAAA first {}, sorting {:?}, addrs {}/{}\n",
            fmt_share(p.v6_share_pct),
            fmt_opt(&p.aaaa_first),
            p.sorting,
            fmt_opt(&p.v6_addrs_used),
            fmt_opt(&p.v4_addrs_used),
        ));
        out.push_str("  RFC 8305:");
        for e in &r.conformance {
            out.push_str(&format!(" {}={}", e.feature, e.render()));
        }
        out.push('\n');
    }
    out
}

/// Text rendering of inferred resolver profiles + verdicts.
fn render_inferred_resolvers(reports: &[InferredResolverReport]) -> String {
    let mut out = String::new();
    for r in reports {
        let p = &r.profile;
        out.push_str(&format!("{} ({} runs, resolver)\n", p.subject, p.runs));
        out.push_str(&format!(
            "  v6 first: {} %, last v6 {} ms, first v4 {} ms, falls back {}, v6-only capable {}\n",
            fmt_opt(&p.v6_first_share_pct),
            fmt_opt(&p.last_v6_delay_ms),
            fmt_opt(&p.first_v4_delay_ms),
            fmt_opt(&p.falls_back),
            fmt_opt(&p.ipv6_only_capable),
        ));
        out.push_str("  verdicts:");
        for e in &r.conformance {
            out.push_str(&format!(" {}={}", e.feature, e.render()));
        }
        out.push('\n');
    }
    out
}

/// Extracts inferred client profiles from any of the JSON shapes the
/// tool emits: a bare array of profiles, an array of
/// `{profile, conformance}` reports, or an object carrying a
/// `clients`/`profiles` array (the `infer --trace` and `--campaign`
/// outputs respectively).
fn extract_profiles(v: &Json) -> Result<Vec<InferredProfile>, String> {
    match v {
        Json::Arr(entries) => entries
            .iter()
            .map(|entry| {
                let body = match entry.get("profile") {
                    Some(p) => p,
                    None => entry,
                };
                InferredProfile::from_json(body).map_err(|e| format!("bad profile entry: {e}"))
            })
            .collect(),
        Json::Obj(_) => {
            for key in ["clients", "profiles"] {
                if let Some(inner) = v.get(key) {
                    return extract_profiles(inner);
                }
            }
            Err("expected a profile array or an object with a clients/profiles key".to_string())
        }
        _ => Err("expected a profile array or object".to_string()),
    }
}

/// `infer --diff old.json new.json`: field-level behaviour deltas
/// between two sets of inferred profiles, matched by subject.
fn cmd_infer_diff(paths: &[String], format: Format) -> ExitCode {
    let mut sets = Vec::new();
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("cannot read {path}: {e}")),
        };
        let v = match Json::parse(&text) {
            Ok(v) => v,
            Err(e) => return fail(&format!("{path}: {e}")),
        };
        match extract_profiles(&v) {
            Ok(profiles) => sets.push(profiles),
            Err(e) => return fail(&format!("{path}: {e}")),
        }
    }
    let (old, new) = (&sets[0], &sets[1]);
    let mut added: Vec<String> = Vec::new();
    let mut removed: Vec<String> = Vec::new();
    let mut changed = Vec::new();
    for p in new {
        if !old.iter().any(|o| o.subject == p.subject) {
            added.push(p.subject.clone());
        }
    }
    for o in old {
        match new.iter().find(|p| p.subject == o.subject) {
            None => removed.push(o.subject.clone()),
            Some(p) => {
                for delta in diff_profiles(o, p) {
                    changed.push(lazy_eye_inspection::infer::FieldDelta {
                        field: format!("{}.{}", o.subject, delta.field),
                        ..delta
                    });
                }
            }
        }
    }
    match format {
        Format::Json => {
            let doc = Json::obj(vec![
                ("added", ToJson::to_json(&added)),
                ("removed", ToJson::to_json(&removed)),
                ("changed", ToJson::to_json(&changed)),
            ]);
            println!("{}", doc.to_string_pretty());
        }
        _ => {
            if added.is_empty() && removed.is_empty() && changed.is_empty() {
                println!("no behaviour changes");
            } else {
                for s in &removed {
                    println!("- profile {s}");
                }
                for s in &added {
                    println!("+ profile {s}");
                }
                for d in &changed {
                    println!("~ {d}");
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// Parses `--jobs` (default: available parallelism), rejecting 0.
fn parse_jobs(flags: &Flags) -> Result<usize, String> {
    let default_jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match parse_num(flags, "--jobs", default_jobs) {
        Ok(0) => Err("flag --jobs: must be at least 1".to_string()),
        other => other,
    }
}

/// Loads a campaign spec from `path` and applies a `--seed` override.
fn load_spec(flags: &Flags, path: &str) -> Result<CampaignSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut spec = CampaignSpec::from_json(&text).map_err(|e| format!("bad spec: {e}"))?;
    if let Some(seed) = flags.get("--seed") {
        spec.seed = seed
            .parse()
            .map_err(|_| format!("flag --seed: invalid value {seed:?}"))?;
    }
    Ok(spec)
}

fn cmd_infer(flags: Flags) -> ExitCode {
    let jobs = match parse_jobs(&flags) {
        Ok(j) => j,
        Err(e) => return fail(&e),
    };
    let obs = match Obs::start(&flags, jobs, "runs") {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let code = cmd_infer_dispatch(&flags, jobs);
    match obs.finish() {
        Ok(()) => code,
        Err(e) => fail(&e),
    }
}

fn cmd_infer_dispatch(flags: &Flags, jobs: usize) -> ExitCode {
    let format = match flags.get("--format") {
        None | Some("text") => Format::Text,
        Some("json") => Format::Json,
        Some(other) => return fail(&format!("flag --format: expected text|json, got {other:?}")),
    };
    match (flags.get("--trace"), flags.get("--campaign")) {
        (Some(_), Some(_)) => fail("--trace and --campaign are mutually exclusive"),
        (Some(path), None) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => return fail(&format!("cannot read {path}: {e}")),
            };
            let set = match TraceSet::from_json_str(&text) {
                Ok(s) => s,
                Err(e) => return fail(&format!("{path}: {e}")),
            };
            let resolvers = infer_resolver_traces(&set);
            let resolver_subjects: std::collections::BTreeSet<&str> = resolvers
                .iter()
                .map(|r| r.profile.subject.as_str())
                .collect();
            let reports: Vec<InferredClientReport> = infer_traces(&set)
                .into_iter()
                .filter(|profile| !resolver_subjects.contains(profile.subject.as_str()))
                .map(|profile| {
                    let conformance = score_profile(&profile);
                    InferredClientReport {
                        profile,
                        conformance,
                    }
                })
                .collect();
            match format {
                Format::Json => {
                    let doc = Json::obj(vec![
                        ("clients", ToJson::to_json(&reports)),
                        ("resolvers", ToJson::to_json(&resolvers)),
                    ]);
                    println!("{}", doc.to_string_pretty());
                }
                _ => {
                    print!("{}", render_inferred(&reports));
                    print!("{}", render_inferred_resolvers(&resolvers));
                }
            }
            ExitCode::SUCCESS
        }
        (None, Some(path)) => {
            let spec = match load_spec(flags, path) {
                Ok(s) => s,
                Err(e) => return fail(&e),
            };
            let outcome = run_campaign_resumable(
                &spec,
                jobs,
                &std::collections::BTreeMap::new(),
                progress_total,
                |_, _| {},
            );
            let (runs, outputs) = match outcome {
                Ok(pair) => pair,
                Err(e) => return fail(&format!("campaign failed: {e}")),
            };
            let report = build_report_with(&spec, &runs, &outputs, true);
            let section = report.inference.expect("classify builds the section");
            match format {
                Format::Json => print!("{}", section.to_json()),
                _ => print!("{}", section.render_text()),
            }
            ExitCode::SUCCESS
        }
        (None, None) => fail("infer needs --trace <traces.json> or --campaign <spec.json>"),
    }
}

/// CLI-side observability session: arms the span recorder and the live
/// progress reporter per the `--timeline`/`--metrics-out`/`--progress`
/// flags, and writes the exporter files when the run finishes. Everything
/// here goes to side files or stderr — never into report bytes.
struct Obs {
    timeline: Option<String>,
    metrics_out: Option<String>,
    flight_record: bool,
    /// The `--progress` reporter thread and its stop channel.
    reporter: Option<(std::sync::mpsc::Sender<()>, std::thread::JoinHandle<()>)>,
}

/// Virtual-time tracks exported per timeline: the first N runs each get
/// their own Perfetto track of poll/timer/spawn instants.
const TIMELINE_SAMPLED_RUNS: u32 = 16;

impl Obs {
    fn start(flags: &Flags, jobs: usize, unit: &'static str) -> Result<Obs, String> {
        let timeline = flags.get("--timeline").map(String::from);
        let metrics_out = flags.get("--metrics-out").map(String::from);
        if timeline.is_some() {
            lazy_eye_inspection::obs::trace::enable(TIMELINE_SAMPLED_RUNS);
        }
        let flight_record = match flags.get("--flight-record") {
            Some(dir) => {
                lazy_eye_inspection::obs::trigger::arm(std::path::Path::new(dir))
                    .map_err(|e| format!("cannot arm flight recorder at {dir}: {e}"))?;
                true
            }
            None => false,
        };
        let reporter = flags.contains("--progress").then(|| {
            lazy_eye_inspection::obs::progress::begin(0, jobs as u64);
            // A status line every 500 ms; `finish` sends stop, which
            // wakes the wait at once instead of at the next tick.
            let (stop, stopped) = std::sync::mpsc::channel::<()>();
            let handle = std::thread::spawn(move || {
                while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
                    stopped.recv_timeout(std::time::Duration::from_millis(500))
                {
                    if let Some(snap) = lazy_eye_inspection::obs::progress::snapshot() {
                        eprintln!("[progress] {}", snap.status_line(unit));
                    }
                }
            });
            (stop, handle)
        });
        Ok(Obs {
            timeline,
            metrics_out,
            flight_record,
            reporter,
        })
    }

    /// Stops the reporter, disarms the flight recorder and writes the
    /// timeline / metrics files.
    fn finish(self) -> Result<(), String> {
        if self.flight_record {
            let n = lazy_eye_inspection::obs::trigger::bundles_written();
            lazy_eye_inspection::obs::trigger::disarm();
            eprintln!("[obs] flight recorder wrote {n} bundle(s)");
        }
        if let Some((stop, handle)) = self.reporter {
            // A failed send means the reporter has already returned.
            let _ = stop.send(());
            handle
                .join()
                .map_err(|_| "the progress reporter thread panicked".to_string())?;
            lazy_eye_inspection::obs::progress::end();
        }
        if let Some(path) = &self.timeline {
            let events = lazy_eye_inspection::obs::trace::take_events();
            lazy_eye_inspection::obs::trace::disable();
            let n = events.len();
            let doc = lazy_eye_inspection::obs::timeline::render_chrome_trace(events);
            std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("[obs] wrote timeline {path} ({n} events)");
        }
        if let Some(path) = &self.metrics_out {
            let doc = lazy_eye_inspection::obs::registry::render_prometheus(None);
            std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("[obs] wrote metrics {path}");
        }
        Ok(())
    }
}

/// Keeps the `--progress` reporter's denominator current as the
/// refinement pass grows it; a relaxed store, free when the reporter is
/// off. The reporter is the only progress output.
fn progress_total(_done: usize, total: usize) {
    lazy_eye_inspection::obs::progress::set_total(total as u64);
}

/// A result hook that saves the partial state it is handed to `path`
/// (nothing when `None`) every [`CHECKPOINT_EVERY`] results — the shared
/// cadence of campaign, campaign-shard and fleet-shard runs. The executor
/// runs result hooks on the calling thread, which is also pool worker 0,
/// so the hook only serialises and a background thread does the atomic
/// write; it skips to the newest queued snapshot, so a slow disk delays
/// saves instead of stalling the run. Dropping the hook waits for the
/// last write, so a final synchronous save cannot race it.
fn periodic_save<S: Study>(path: Option<String>) -> impl FnMut(&Partial<S>) {
    struct Writer(Option<(std::sync::mpsc::Sender<String>, std::thread::JoinHandle<()>)>);
    impl Drop for Writer {
        fn drop(&mut self) {
            if let Some((tx, thread)) = self.0.take() {
                drop(tx);
                let _ = thread.join();
            }
        }
    }
    let writer = Writer(path.map(|path| {
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        let thread = std::thread::spawn(move || {
            while let Ok(mut bytes) = rx.recv() {
                while let Ok(newer) = rx.try_recv() {
                    bytes = newer;
                }
                // A failed periodic save must not kill the run.
                if let Err(e) = write_atomic(&path, bytes.as_bytes()) {
                    eprintln!("lazyeye: warning: cannot write {path}: {e}");
                }
            }
        });
        (tx, thread)
    }));
    let mut unsaved = 0;
    move |part| {
        unsaved += 1;
        if unsaved >= CHECKPOINT_EVERY {
            unsaved = 0;
            if let Some((tx, _)) = &writer.0 {
                // Fails only if the writer thread died.
                let _ = tx.send(part.to_json_string());
            }
        }
    }
}

/// Saves a checkpoint, downgrading failure to a warning: losing a
/// checkpoint must not kill the campaign producing it.
fn save_checkpoint<S: Study>(part: &Partial<S>, path: Option<&str>) {
    if let Some(path) = path {
        if let Err(e) = part.save(path) {
            eprintln!("lazyeye: warning: cannot write checkpoint {path}: {e}");
        }
    }
}

/// What [`emit_report`] needs of a campaign or fleet report.
trait Report {
    /// Names the engine in status lines.
    const LABEL: &'static str;
    fn json_into(&self, out: &mut String);
    fn csv_into(&self, out: &mut String);
    fn text(&self) -> String;
}

impl Report for CampaignReport {
    const LABEL: &'static str = "campaign";
    fn json_into(&self, out: &mut String) {
        self.to_json_into(out);
    }
    fn csv_into(&self, out: &mut String) {
        self.to_csv_into(out);
    }
    fn text(&self) -> String {
        self.render_text()
    }
}

impl Report for fleet::FleetReport {
    const LABEL: &'static str = "fleet";
    fn json_into(&self, out: &mut String) {
        self.to_json_into(out);
    }
    fn csv_into(&self, out: &mut String) {
        self.to_csv_into(out);
    }
    fn text(&self) -> String {
        self.render_text()
    }
}

/// Prints a report in the chosen format, and writes `<out>.json` and
/// `<out>.csv` when `--out` is set.
fn emit_report<R: Report>(report: &R, format: Format, out: Option<&str>) -> Result<(), String> {
    // Render each format at most once; stdout and --out reuse the bytes.
    let mut json = String::new();
    let mut csv = String::new();
    if format == Format::Json || out.is_some() {
        report.json_into(&mut json);
    }
    if format == Format::Csv || out.is_some() {
        report.csv_into(&mut csv);
    }
    match format {
        Format::Text => print!("{}", report.text()),
        Format::Json => print!("{json}"),
        Format::Csv => print!("{csv}"),
    }
    if let Some(base) = out {
        let json_path = format!("{base}.json");
        let csv_path = format!("{base}.csv");
        std::fs::write(&json_path, &json).map_err(|e| format!("cannot write {json_path}: {e}"))?;
        std::fs::write(&csv_path, &csv).map_err(|e| format!("cannot write {csv_path}: {e}"))?;
        eprintln!("[{}] wrote {json_path} and {csv_path}", R::LABEL);
    }
    Ok(())
}

/// Writes a collapsed-stack flame graph (one `frame;frame weight` line
/// per stack) to `path` — the format `flamegraph.pl` / speedscope /
/// inferno consume. Pure virtual-domain bytes: identical across --jobs.
fn write_flamegraph(path: &str, flame: &FlameGraph) -> Result<(), String> {
    std::fs::write(path, flame.render_collapsed())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!(
        "[profile] wrote flame graph {path} ({} stacks, {} ms attributed)",
        flame.len(),
        flame.total_weight()
    );
    Ok(())
}

/// Prints a latency-budget table: to stdout alongside a text report, to
/// stderr otherwise so machine-readable stdout stays parseable.
fn print_budget(text: &str, format: Format) {
    match format {
        Format::Text => println!("{text}"),
        _ => eprintln!("{text}"),
    }
}

/// Writes a shard's partial state to `--out` (as `<base>.json`, saved
/// atomically) or stdout; `unit` names what the partial counts.
fn emit_partial<S: Study>(part: &Partial<S>, unit: &str, out: Option<&str>) -> Result<(), String> {
    let shard = part.shard.expect("partials carry their shard");
    match out {
        Some(base) => {
            let path = format!("{base}.json");
            part.save(&path)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "[{}] shard {}/{}: {} {unit} completed, wrote {path}",
                S::NAME,
                shard.index,
                shard.count,
                part.completed_runs()
            );
        }
        None => print!("{}", part.to_json_string()),
    }
    Ok(())
}

/// Loads the `--merge` partials and unions them, refusing the
/// `conflicting` flags and warning when the union misses planned items
/// (`unit` names them), which the caller then executes locally.
fn load_merged<S: Study>(
    flags: &Flags,
    conflicting: &[&str],
    unit: &str,
) -> Result<Partial<S>, String> {
    if let Some(flag) = conflicting.iter().find(|flag| flags.contains(flag)) {
        return Err(format!("--merge cannot be combined with {flag}"));
    }
    let parts = flags
        .get_all("--merge")
        .iter()
        .map(|path| Partial::load(path))
        .collect::<Result<Vec<_>, _>>()?;
    let merged = merge_partials(parts).map_err(|e| format!("merge failed: {e}"))?;
    let missing = merged.missing().len();
    if missing > 0 {
        eprintln!(
            "[{}] warning: {missing} {unit} missing from the partials; executing them locally",
            S::NAME
        );
    }
    Ok(merged)
}

fn cmd_campaign_merge(flags: &Flags, jobs: usize, format: Format, classify: bool) -> ExitCode {
    let conflicting = [
        "--config",
        "--default",
        "--seed",
        "--shard",
        "--resume",
        "--checkpoint",
    ];
    let merged = match load_merged::<Campaign>(flags, &conflicting, "first-pass runs") {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };
    let report =
        match finish_from_checkpoint_with(&merged, jobs, classify, progress_total, |_, _| {}) {
            Ok(r) => r,
            Err(e) => return fail(&format!("campaign failed: {e}")),
        };
    match emit_report(&report, format, flags.get("--out")) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

/// `campaign --diff old.json new.json`: load two reports, surface
/// per-cell and per-feature behaviour changes.
fn cmd_campaign_diff(paths: &[String], format: Format) -> ExitCode {
    let mut reports = Vec::new();
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("cannot read {path}: {e}")),
        };
        match CampaignReport::from_json_str(&text) {
            Ok(r) => reports.push(r),
            Err(e) => return fail(&format!("{path}: {e}")),
        }
    }
    let diff = diff_reports(&reports[0], &reports[1]);
    match format {
        Format::Json => print!("{}", diff.to_json()),
        _ => print!("{}", diff.render_text()),
    }
    ExitCode::SUCCESS
}

/// Refuses the flags a shard run has no use for: a partial is always
/// JSON, and report options apply where the partials are merged.
fn refuse_report_flags(flags: &Flags) -> Result<(), String> {
    for (flag, instead) in [
        ("--format", "partials are always JSON"),
        ("--classify", "classify at --merge"),
        ("--fast-path", "it only affects whole local runs"),
        ("--flamegraph", "profile the merge"),
    ] {
        if flags.contains(flag) {
            return Err(format!("{flag} does not apply to shard runs; {instead}"));
        }
    }
    Ok(())
}

/// Executes one shard's slice (fresh or resumed) with periodic checkpoint
/// saves, then emits the partial.
fn cmd_campaign_shard(
    flags: &Flags,
    spec: CampaignSpec,
    jobs: usize,
    shard: Shard,
    resume_from: Option<Checkpoint>,
    ckpt_path: Option<String>,
) -> ExitCode {
    if let Err(e) = refuse_report_flags(flags) {
        return fail(&e);
    }
    let result = run_shard(
        &spec,
        jobs,
        shard,
        resume_from,
        progress_total,
        periodic_save(ckpt_path.clone()),
    );
    let part = match result {
        Ok(p) => p,
        Err(e) => return fail(&format!("campaign failed: {e}")),
    };
    save_checkpoint(&part, ckpt_path.as_deref());
    match emit_partial(&part, "first-pass runs", flags.get("--out")) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

/// Runs (or resumes) a full two-pass campaign with optional periodic
/// checkpointing, then reports.
#[allow(clippy::too_many_arguments)]
fn cmd_campaign_full(
    spec: CampaignSpec,
    jobs: usize,
    format: Format,
    classify: bool,
    fast_path: bool,
    resume_from: Option<Checkpoint>,
    ckpt_path: Option<String>,
    out: Option<&str>,
    flamegraph: Option<&str>,
) -> ExitCode {
    let pass1_runs = match expand(&spec) {
        Ok(runs) => runs.len() as u64,
        Err(e) => return fail(&format!("bad spec: {e}")),
    };
    if let Some(ckpt) = &resume_from {
        if let Err(e) = ckpt.validate_shape(pass1_runs) {
            return fail(&format!("resume: {e}"));
        }
    }
    let mut ckpt = resume_from.unwrap_or_else(|| Checkpoint::new(spec.clone(), pass1_runs, None));
    let completed = ckpt.completed().clone();
    if !completed.is_empty() {
        eprintln!(
            "[campaign] resuming: {} runs already completed",
            completed.len()
        );
    }
    let mut save = periodic_save(ckpt_path.clone());
    let outcome = run_campaign_resumable_with(
        &spec,
        jobs,
        fast_path,
        &completed,
        progress_total,
        |run, out| {
            ckpt.record(run.index, out.clone());
            save(&ckpt);
        },
    );
    drop(save);
    let (runs, outputs) = match outcome {
        Ok(pair) => pair,
        Err(e) => return fail(&format!("campaign failed: {e}")),
    };
    save_checkpoint(&ckpt, ckpt_path.as_deref());
    let report = build_report_with(&spec, &runs, &outputs, classify);
    if let Err(e) = emit_report(&report, format, out) {
        return fail(&e);
    }
    if let Some(path) = flamegraph {
        // Attribute the executed run list (first pass + refinement) into
        // the per-cell latency budget and the flame graph. Both are pure
        // functions of (spec, run list): byte-identical across --jobs.
        let (budget, flame) = profile_runs(&spec, &runs);
        if let Err(e) = write_flamegraph(path, &flame) {
            return fail(&e);
        }
        print_budget(&budget.render_text(), format);
    }
    ExitCode::SUCCESS
}

fn cmd_campaign(flags: Flags) -> ExitCode {
    if flags.contains("--print-spec") {
        println!("{}", CampaignSpec::default().to_json());
        return ExitCode::SUCCESS;
    }
    let jobs = match parse_jobs(&flags) {
        Ok(j) => j,
        Err(e) => return fail(&e),
    };
    let obs = match Obs::start(&flags, jobs, "runs") {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let code = cmd_campaign_dispatch(&flags, jobs);
    match obs.finish() {
        Ok(()) => code,
        Err(e) => fail(&e),
    }
}

/// `lazyeye replay <bundle.json|dir>`: re-executes the run(s) a flight
/// recorder bundle captured, from provenance alone, and diffs the
/// regenerated trace against the recording. A directory replays every
/// `*.json` bundle in it (sorted by name). Exits non-zero if any replay
/// diverges — the CI determinism gate.
fn cmd_replay(path: &str, format: Format) -> ExitCode {
    let meta = match std::fs::metadata(path) {
        Ok(m) => m,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    if meta.is_dir() {
        let entries = match std::fs::read_dir(path) {
            Ok(it) => it,
            Err(e) => return fail(&format!("cannot read {path}: {e}")),
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.extension().is_some_and(|ext| ext == "json") {
                files.push(p);
            }
        }
        files.sort();
        if files.is_empty() {
            return fail(&format!("{path}: no bundles (*.json) found"));
        }
    } else {
        files.push(path.into());
    }
    let mut reports = Vec::new();
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => return fail(&format!("cannot read {}: {e}", file.display())),
        };
        let bundle = match lazy_eye_inspection::obs::bundle::Bundle::from_json_str(&text) {
            Ok(b) => b,
            Err(e) => return fail(&format!("{}: {e}", file.display())),
        };
        match lazy_eye_inspection::campaign::replay(&bundle) {
            Ok(r) => reports.push(r),
            Err(e) => return fail(&format!("{}: {e}", file.display())),
        }
    }
    let divergent = reports.iter().filter(|r| !r.identical).count();
    match format {
        Format::Json => println!("{}", ToJson::to_json(&reports).to_string_pretty()),
        _ => {
            for r in &reports {
                print!("{}", r.render_text());
            }
            eprintln!(
                "[replay] {} bundle(s), {} divergent",
                reports.len(),
                divergent
            );
        }
    }
    if divergent == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `lazyeye profile <traces.json|bundle.json|dir>`: causal latency
/// attribution of recorded traces. Each run's establishment latency is
/// cut into exhaustive phases (resolution / stall / cad / fallback /
/// connect) that sum exactly to the measured total, alongside the
/// critical path through the run's causal DAG. Accepts trace-set files
/// (`--emit-trace` output), flight-recorder bundles, or a directory of
/// either (`*.json`, sorted by name).
fn cmd_profile(path: &str, flags: &Flags, format: Format) -> ExitCode {
    let meta = match std::fs::metadata(path) {
        Ok(m) => m,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    if meta.is_dir() {
        let entries = match std::fs::read_dir(path) {
            Ok(it) => it,
            Err(e) => return fail(&format!("cannot read {path}: {e}")),
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.extension().is_some_and(|ext| ext == "json") {
                files.push(p);
            }
        }
        files.sort();
        if files.is_empty() {
            return fail(&format!("{path}: no trace files (*.json) found"));
        }
    } else {
        files.push(path.into());
    }
    let mut traces: Vec<Trace> = Vec::new();
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => return fail(&format!("cannot read {}: {e}", file.display())),
        };
        match TraceSet::from_json_str(&text) {
            Ok(set) => traces.extend(set.traces),
            // Not a trace set — a flight-recorder bundle carries the
            // run's trace under its "trace" key.
            Err(set_err) => match lazy_eye_inspection::obs::bundle::Bundle::from_json_str(&text) {
                Ok(bundle) => match Trace::from_json(&bundle.trace) {
                    Ok(t) => traces.push(t),
                    Err(e) => eprintln!(
                        "[profile] {}: bundle has no usable trace ({e}); skipped",
                        file.display()
                    ),
                },
                Err(_) => return fail(&format!("{}: {set_err}", file.display())),
            },
        }
    }
    if traces.is_empty() {
        return fail(&format!("{path}: no attributable traces found"));
    }
    let mut budget = LatencyBudget::default();
    let mut flame = FlameGraph::new();
    let mut attributed: Vec<(&Trace, Option<Attribution>)> = Vec::new();
    for trace in &traces {
        let attr = attribute(trace);
        if attr.is_none() {
            budget.unattributed += 1;
        }
        let m = &trace.meta;
        fold_row(
            &mut budget.rows,
            (&m.case, &m.subject, &m.condition, m.configured_delay_ms),
            attr.as_ref(),
        );
        if let Some(a) = &attr {
            for (phase, weight) in PHASES.iter().zip(a.phase_values()) {
                flame.add(
                    [
                        m.case.as_str(),
                        m.subject.as_str(),
                        m.condition.as_str(),
                        phase,
                    ],
                    weight,
                );
            }
        }
        attributed.push((trace, attr));
    }
    match format {
        Format::Json => {
            let doc = Json::obj(vec![(
                "traces",
                Json::Arr(
                    attributed
                        .iter()
                        .map(|(trace, attr)| {
                            Json::obj(vec![
                                ("meta", ToJson::to_json(&trace.meta)),
                                (
                                    "attribution",
                                    match attr {
                                        Some(a) => ToJson::to_json(a),
                                        None => Json::Null,
                                    },
                                ),
                            ])
                        })
                        .collect(),
                ),
            )]);
            println!("{}", doc.to_string_pretty());
        }
        _ => {
            for (trace, attr) in &attributed {
                let m = &trace.meta;
                match attr {
                    Some(a) => {
                        println!(
                            "{} {} {} d{} r{}: {} ms = resolution {} + stall {} + cad {} \
                             + fallback {} + connect {} (dominant: {})",
                            m.case,
                            m.subject,
                            m.condition,
                            m.configured_delay_ms,
                            m.rep,
                            a.total_ms,
                            a.resolution_ms,
                            a.stall_ms,
                            a.cad_ms,
                            a.fallback_ms,
                            a.connect_ms,
                            a.dominant_phase(),
                        );
                        println!("  critical path: {}", a.critical_path.join(" -> "));
                    }
                    None => println!(
                        "{} {} {} d{} r{}: no establishment timeline (skipped)",
                        m.case, m.subject, m.condition, m.configured_delay_ms, m.rep
                    ),
                }
            }
            println!();
            println!("{}", budget.render_text());
        }
    }
    if let Some(out) = flags.get("--flamegraph") {
        if let Err(e) = write_flamegraph(out, &flame) {
            return fail(&e);
        }
    }
    ExitCode::SUCCESS
}

fn cmd_campaign_dispatch(flags: &Flags, jobs: usize) -> ExitCode {
    let format = match parse_format(flags) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let classify = flags.contains("--classify");
    let fast_path = flags.contains("--fast-path");
    let flamegraph = flags.get("--flamegraph");

    if flags.contains("--merge") {
        if fast_path {
            return fail("--fast-path does not apply to --merge; it only affects local runs");
        }
        if flamegraph.is_some() {
            return fail("--flamegraph applies to local full campaign runs, not --merge");
        }
        return cmd_campaign_merge(flags, jobs, format, classify);
    }

    let ckpt_path = flags.get("--checkpoint").map(String::from);
    let out = flags.get("--out");

    if let Some(resume_path) = flags.get("--resume") {
        if flags.contains("--config") || flags.contains("--seed") || flags.contains("--default") {
            return fail(
                "--resume reads spec and seed from the checkpoint; drop --config/--default/--seed",
            );
        }
        let ckpt = match Checkpoint::load(resume_path) {
            Ok(c) => c,
            Err(e) => return fail(&e),
        };
        // Keep checkpointing where we left off unless redirected.
        let ckpt_path = ckpt_path.or_else(|| Some(resume_path.to_string()));
        let spec = ckpt.spec.clone();
        return match ckpt.shard {
            Some(shard) => {
                if let Some(flag) = flags.get("--shard") {
                    match Shard::parse(flag) {
                        Ok(s) if s == shard => {}
                        Ok(s) => {
                            return fail(&format!(
                                "--shard {}/{} disagrees with the checkpoint's {}/{}",
                                s.index, s.count, shard.index, shard.count
                            ))
                        }
                        Err(e) => return fail(&e),
                    }
                }
                cmd_campaign_shard(flags, spec, jobs, shard, Some(ckpt), ckpt_path)
            }
            None => {
                if flags.contains("--shard") {
                    return fail("--shard cannot be added to a whole-campaign checkpoint");
                }
                cmd_campaign_full(
                    spec,
                    jobs,
                    format,
                    classify,
                    fast_path,
                    Some(ckpt),
                    ckpt_path,
                    out,
                    flamegraph,
                )
            }
        };
    }

    let spec = if flags.contains("--default") {
        if flags.contains("--config") {
            return fail("--config and --default are mutually exclusive");
        }
        let mut spec = CampaignSpec::default();
        if let Some(seed) = flags.get("--seed") {
            match seed.parse() {
                Ok(s) => spec.seed = s,
                Err(_) => return fail(&format!("flag --seed: invalid value {seed:?}")),
            }
        }
        spec
    } else {
        let Some(path) = flags.get("--config") else {
            return fail(
                "campaign needs --config <spec.json> or --default \
                 (or --print-spec / --resume / --merge)",
            );
        };
        match load_spec(flags, path) {
            Ok(s) => s,
            Err(e) => return fail(&e),
        }
    };

    if let Some(shard_flag) = flags.get("--shard") {
        let shard = match Shard::parse(shard_flag) {
            Ok(s) => s,
            Err(e) => return fail(&e),
        };
        return cmd_campaign_shard(flags, spec, jobs, shard, None, ckpt_path);
    }
    cmd_campaign_full(
        spec, jobs, format, classify, fast_path, None, ckpt_path, out, flamegraph,
    )
}

/// Loads a fleet spec from `--spec`/`--default` and applies `--seed`,
/// `--sessions` and `--reps` overrides.
fn load_fleet_spec(flags: &Flags) -> Result<FleetSpec, String> {
    let mut spec = match (flags.get("--spec"), flags.contains("--default")) {
        (Some(_), true) => return Err("--spec and --default are mutually exclusive".to_string()),
        (Some(path), false) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            FleetSpec::from_json(&text).map_err(|e| format!("bad fleet spec: {e}"))?
        }
        (None, true) => FleetSpec::default(),
        (None, false) => {
            return Err(
                "fleet needs --spec <fleet.json> or --default (or --print-spec / --merge)"
                    .to_string(),
            )
        }
    };
    if let Some(seed) = flags.get("--seed") {
        spec.seed = seed
            .parse()
            .map_err(|_| format!("flag --seed: invalid value {seed:?}"))?;
    }
    if flags.contains("--sessions") {
        spec.cad_sessions = parse_num(flags, "--sessions", spec.cad_sessions)?;
        if spec.cad_sessions == 0 {
            return Err("flag --sessions: must be at least 1".to_string());
        }
    }
    if flags.contains("--reps") {
        spec.repetitions = parse_num(flags, "--reps", spec.repetitions)?;
        if spec.repetitions == 0 {
            return Err("flag --reps: must be at least 1".to_string());
        }
    }
    Ok(spec)
}

/// `fleet --diff old.json new.json`: load two fleet reports, surface
/// membership changes and per-member/resolver/summary behaviour deltas —
/// the longitudinal population-tracking view.
fn cmd_fleet_diff(paths: &[String], format: Format) -> ExitCode {
    let mut texts = Vec::new();
    for path in paths {
        match std::fs::read_to_string(path) {
            Ok(t) => texts.push(t),
            Err(e) => return fail(&format!("cannot read {path}: {e}")),
        }
    }
    let diff = match fleet::diff_report_strs(&texts[0], &texts[1]) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    match format {
        Format::Json => print!("{}", diff.to_json()),
        _ => print!("{}", diff.render_text()),
    }
    ExitCode::SUCCESS
}

fn cmd_fleet(flags: Flags) -> ExitCode {
    if flags.contains("--print-spec") {
        println!("{}", FleetSpec::default().to_json());
        return ExitCode::SUCCESS;
    }
    let jobs = match parse_jobs(&flags) {
        Ok(j) => j,
        Err(e) => return fail(&e),
    };
    let obs = match Obs::start(&flags, jobs, "sessions") {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let code = cmd_fleet_dispatch(&flags, jobs);
    match obs.finish() {
        Ok(()) => code,
        Err(e) => fail(&e),
    }
}

fn cmd_fleet_dispatch(flags: &Flags, jobs: usize) -> ExitCode {
    let format = match parse_format(flags) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let out = flags.get("--out");
    let flamegraph = flags.get("--flamegraph");

    if flags.contains("--merge") {
        if flamegraph.is_some() {
            return fail("--flamegraph applies to local full fleet runs, not --merge");
        }
        let conflicting = [
            "--spec",
            "--default",
            "--seed",
            "--sessions",
            "--reps",
            "--shard",
        ];
        let merged = match load_merged::<Fleet>(flags, &conflicting, "sessions") {
            Ok(m) => m,
            Err(e) => return fail(&e),
        };
        let report = match fleet::finish_from_partial(&merged, jobs, progress_total) {
            Ok(r) => r,
            Err(e) => return fail(&format!("fleet failed: {e}")),
        };
        return match emit_report(&report, format, out) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        };
    }

    let spec = match load_fleet_spec(flags) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };

    if let Some(shard_flag) = flags.get("--shard") {
        let shard = match fleet::Shard::parse(shard_flag) {
            Ok(s) => s,
            Err(e) => return fail(&e),
        };
        if let Err(e) = refuse_report_flags(flags) {
            return fail(&e);
        }
        // Save the partial periodically while the shard runs (atomic
        // temp-file + rename), so a kill loses only the sessions finished
        // since the last completed save — the same crash contract as
        // campaign shards.
        let outcome = run_fleet_shard(
            &spec,
            jobs,
            shard,
            progress_total,
            periodic_save(out.map(|base| format!("{base}.json"))),
        );
        let part = match outcome {
            Ok(p) => p,
            Err(e) => return fail(&format!("fleet failed: {e}")),
        };
        return match emit_partial(&part, "sessions", out) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        };
    }

    let report = match run_fleet(&spec, jobs, progress_total) {
        Ok(r) => r,
        Err(e) => return fail(&format!("fleet failed: {e}")),
    };
    if let Err(e) = emit_report(&report, format, out) {
        return fail(&e);
    }
    if let Some(path) = flamegraph {
        // Per-member probe attribution: a pure function of (spec, seed),
        // byte-identical across --jobs like the report itself.
        let (budget, flame) = match fleet::profile_fleet(&spec) {
            Ok(pair) => pair,
            Err(e) => return fail(&format!("fleet profiling failed: {e}")),
        };
        if let Err(e) = write_flamegraph(path, &flame) {
            return fail(&e);
        }
        print_budget(&budget.render_text(), format);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "clients" => {
            let flags = match parse_flags(rest, &[val("--format")]) {
                Ok(f) => f,
                Err(e) => return fail(&e),
            };
            let format = match parse_format(&flags) {
                Ok(f) => f,
                Err(e) => return fail(&e),
            };
            let mut t = Table::new("Client profiles", vec!["id", "engine", "CAD", "RD"]);
            for c in all_measured_clients() {
                t.row(vec![
                    c.id(),
                    format!("{:?}", c.engine),
                    c.fixed_cad()
                        .map(|d| format!("{} ms", d.as_millis()))
                        .unwrap_or_else(|| "dynamic".into()),
                    c.he.resolution_delay
                        .map(|d| format!("{} ms", d.as_millis()))
                        .unwrap_or_else(|| "-".into()),
                ]);
            }
            print_table(&t, format);
            ExitCode::SUCCESS
        }
        "resolvers" => {
            let flags = match parse_flags(rest, &[val("--format")]) {
                Ok(f) => f,
                Err(e) => return fail(&e),
            };
            let format = match parse_format(&flags) {
                Ok(f) => f,
                Err(e) => return fail(&e),
            };
            let mut t = Table::new(
                "Resolver profiles",
                vec!["name", "kind", "timeout", "v6 pref", "notes"],
            );
            for p in all_profiles() {
                t.row(vec![
                    p.name.into(),
                    format!("{:?}", p.kind),
                    format!("{} ms", p.policy.server_timeout.as_millis()),
                    format!("{:?}", p.policy.v6_preference),
                    p.notes.into(),
                ]);
            }
            print_table(&t, format);
            ExitCode::SUCCESS
        }
        "cad" => {
            let flags = match parse_flags(
                rest,
                &[
                    val("--client"),
                    val("--from"),
                    val("--to"),
                    val("--step"),
                    val("--reps"),
                    val("--seed"),
                    val("--emit-trace"),
                ],
            ) {
                Ok(f) => f,
                Err(e) => return fail(&e),
            };
            let Some(id) = flags.get("--client") else {
                return usage();
            };
            let Some(profile) = find_client(id) else {
                return fail(&format!("unknown client {id:?} (try `lazyeye clients`)"));
            };
            let (from, to, step, reps, seed) = match (
                parse_num(&flags, "--from", 0),
                parse_num(&flags, "--to", 400),
                parse_num(&flags, "--step", 25),
                parse_num(&flags, "--reps", 1),
                parse_num(&flags, "--seed", 1u64),
            ) {
                (Ok(a), Ok(b), Ok(c), Ok(d), Ok(e)) => (a, b, c, d, e),
                (a, b, c, d, e) => {
                    let err = [
                        a.err(),
                        b.err(),
                        c.err(),
                        d.map(|_| ()).err(),
                        e.map(|_| ()).err(),
                    ]
                    .into_iter()
                    .flatten()
                    .next()
                    .unwrap();
                    return fail(&err);
                }
            };
            if step == 0 {
                return fail("flag --step: must be > 0");
            }
            let cfg = CadCaseConfig {
                sweep: SweepSpec::new(from, to, step),
                repetitions: reps,
            };
            let (samples, traces) = run_cad_case_traced(&profile, &cfg, seed);
            if let Err(e) = emit_trace_set(&flags, &traces) {
                return fail(&e);
            }
            let strip: String = samples
                .iter()
                .map(|s| match s.family {
                    Some(Family::V6) => '6',
                    Some(Family::V4) => '4',
                    None => 'x',
                })
                .collect();
            println!("{}  {}", profile.figure2_label(), strip);
            let s = summarize_cad(&samples);
            println!(
                "last v6: {:?} ms, first v4: {:?} ms, measured CAD: {:?} ms",
                s.last_v6_delay_ms, s.first_v4_delay_ms, s.measured_cad_ms
            );
            ExitCode::SUCCESS
        }
        "rd" => {
            let flags = match parse_flags(
                rest,
                &[
                    val("--client"),
                    val("--record"),
                    val("--delay"),
                    val("--seed"),
                    val("--emit-trace"),
                ],
            ) {
                Ok(f) => f,
                Err(e) => return fail(&e),
            };
            let Some(id) = flags.get("--client") else {
                return usage();
            };
            let Some(profile) = find_client(id) else {
                return fail(&format!("unknown client {id:?}"));
            };
            let record = match flags.get("--record") {
                Some("a") => DelayedRecord::A,
                Some("aaaa") | None => DelayedRecord::Aaaa,
                Some(other) => {
                    return fail(&format!("flag --record: expected aaaa|a, got {other:?}"))
                }
            };
            let delay = match parse_num(&flags, "--delay", 400) {
                Ok(d) => d,
                Err(e) => return fail(&e),
            };
            let seed = match parse_num(&flags, "--seed", 1u64) {
                Ok(s) => s,
                Err(e) => return fail(&e),
            };
            let cfg = RdCaseConfig {
                delayed: record,
                sweep: SweepSpec::new(delay, delay, 1),
                repetitions: 3,
            };
            let (samples, traces) = run_rd_case_traced(&profile, &cfg, seed);
            if let Err(e) = emit_trace_set(&flags, &traces) {
                return fail(&e);
            }
            for s in &samples {
                println!(
                    "delay {} ms rep {}: family {:?}, first SYN at {:?} ms, RD used: {}",
                    s.configured_delay_ms, s.rep, s.family, s.first_attempt_ms, s.used_rd
                );
            }
            let sum = summarize_rd(&samples);
            println!("implements RD: {}", sum.implements_rd);
            ExitCode::SUCCESS
        }
        "selection" => {
            let flags =
                match parse_flags(rest, &[val("--client"), val("--seed"), val("--emit-trace")]) {
                    Ok(f) => f,
                    Err(e) => return fail(&e),
                };
            let Some(id) = flags.get("--client") else {
                return usage();
            };
            let Some(profile) = find_client(id) else {
                return fail(&format!("unknown client {id:?}"));
            };
            let seed = match parse_num(&flags, "--seed", 1u64) {
                Ok(s) => s,
                Err(e) => return fail(&e),
            };
            let (r, trace) = run_selection_once_traced(
                &profile,
                &SelectionCaseConfig::default(),
                0,
                seed,
                &[],
                "-",
            );
            let mut traces = TraceSet::default();
            traces.push(trace);
            if let Err(e) = emit_trace_set(&flags, &traces) {
                return fail(&e);
            }
            let order: String = r
                .order
                .iter()
                .map(|f| if *f == Family::V6 { '6' } else { '4' })
                .collect();
            println!("attempt order: {order}");
            println!("addresses used: {} IPv6, {} IPv4", r.v6_used, r.v4_used);
            ExitCode::SUCCESS
        }
        "resolver" => {
            let flags = match parse_flags(
                rest,
                &[
                    val("--profile"),
                    val("--reps"),
                    val("--seed"),
                    val("--emit-trace"),
                ],
            ) {
                Ok(f) => f,
                Err(e) => return fail(&e),
            };
            let Some(name) = flags.get("--profile") else {
                return usage();
            };
            let Some(profile) = all_profiles().into_iter().find(|p| p.name == name) else {
                return fail(&format!(
                    "unknown resolver {name:?} (try `lazyeye resolvers`)"
                ));
            };
            let reps = match parse_num(&flags, "--reps", 20) {
                Ok(r) => r,
                Err(e) => return fail(&e),
            };
            let seed = match parse_num(&flags, "--seed", 1u64) {
                Ok(s) => s,
                Err(e) => return fail(&e),
            };
            let cfg = ResolverCaseConfig {
                sweep: SweepSpec::new(
                    0,
                    profile.policy.server_timeout.as_millis() as u64 + 400,
                    200,
                ),
                repetitions: reps,
            };
            let (samples, traces) = run_resolver_case_traced(&profile, &cfg, seed);
            if let Err(e) = emit_trace_set(&flags, &traces) {
                return fail(&e);
            }
            let stats = summarize_resolver(&samples);
            println!(
                "{}: IPv6 share {}, max v6 delay {:?} ms, per-try timeout {:?} ms, max v6 packets {}",
                profile.name,
                fmt_share(stats.v6_share_pct),
                stats.max_v6_delay_ms,
                stats.observed_cad_ms,
                stats.max_v6_packets
            );
            ExitCode::SUCCESS
        }
        "config" => {
            if let Err(e) = parse_flags(rest, &[]) {
                return fail(&e);
            }
            println!("{}", TestbedConfig::default().to_json());
            ExitCode::SUCCESS
        }
        "run" => {
            let flags = match parse_flags(rest, &[val("--config")]) {
                Ok(f) => f,
                Err(e) => return fail(&e),
            };
            let Some(path) = flags.get("--config") else {
                return usage();
            };
            let Ok(text) = std::fs::read_to_string(path) else {
                return fail(&format!("cannot read {path}"));
            };
            let cfg = match TestbedConfig::from_json(&text) {
                Ok(c) => c,
                Err(e) => return fail(&format!("bad config: {e}")),
            };
            let chrome = find_client("chrome-130.0").expect("builtin profile");
            if let Some(c) = &cfg.cad {
                let s = summarize_cad(&run_cad_case(&chrome, c, cfg.seed));
                println!("[cad] switchover at {:?} ms", s.first_v4_delay_ms);
            }
            if let Some(c) = &cfg.rd {
                let s = summarize_rd(&run_rd_case(&chrome, c, cfg.seed));
                println!("[rd] implements RD: {}", s.implements_rd);
            }
            if let Some(c) = &cfg.selection {
                let s = run_selection_case(&chrome, c, cfg.seed);
                println!("[selection] {} v6 + {} v4 used", s.v6_used, s.v4_used);
            }
            if let Some(c) = &cfg.resolver {
                let p = lazy_eye_inspection::resolver::unbound();
                let s = summarize_resolver(&run_resolver_case(&p, c, cfg.seed));
                println!("[resolver] Unbound v6 share {}", fmt_share(s.v6_share_pct));
            }
            ExitCode::SUCCESS
        }
        "infer" => {
            // `--diff old.json new.json` is its own sub-mode with
            // positional profile-set paths, like `campaign --diff`.
            if rest.first().map(String::as_str) == Some("--diff") {
                if rest.len() < 3 {
                    return fail("--diff needs two profile files: --diff old.json new.json");
                }
                let paths = rest[1..3].to_vec();
                let flags = match parse_flags(&rest[3..], &[val("--format")]) {
                    Ok(f) => f,
                    Err(e) => return fail(&e),
                };
                let format = match flags.get("--format") {
                    None | Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some(other) => {
                        return fail(&format!("flag --format: expected text|json, got {other:?}"))
                    }
                };
                return cmd_infer_diff(&paths, format);
            }
            let flags = match parse_flags(
                rest,
                &[
                    val("--trace"),
                    val("--campaign"),
                    val("--jobs"),
                    val("--seed"),
                    val("--format"),
                    val("--timeline"),
                    val("--metrics-out"),
                    switch("--progress"),
                ],
            ) {
                Ok(f) => f,
                Err(e) => return fail(&e),
            };
            cmd_infer(flags)
        }
        "fleet" => {
            // `--diff old.json new.json` is its own sub-mode with
            // positional report paths, like `campaign --diff`.
            if rest.first().map(String::as_str) == Some("--diff") {
                if rest.len() < 3 {
                    return fail("--diff needs two report files: --diff old.json new.json");
                }
                let paths = rest[1..3].to_vec();
                let flags = match parse_flags(&rest[3..], &[val("--format")]) {
                    Ok(f) => f,
                    Err(e) => return fail(&e),
                };
                let format = match flags.get("--format") {
                    None | Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some(other) => {
                        return fail(&format!("flag --format: expected text|json, got {other:?}"))
                    }
                };
                return cmd_fleet_diff(&paths, format);
            }
            let flags = match parse_flags(
                rest,
                &[
                    val("--spec"),
                    val("--sessions"),
                    val("--reps"),
                    val("--jobs"),
                    val("--seed"),
                    val("--format"),
                    val("--out"),
                    val("--shard"),
                    val("--timeline"),
                    val("--metrics-out"),
                    val("--flight-record"),
                    val("--flamegraph"),
                    multi("--merge"),
                    switch("--default"),
                    switch("--progress"),
                    switch("--print-spec"),
                ],
            ) {
                Ok(f) => f,
                Err(e) => return fail(&e),
            };
            cmd_fleet(flags)
        }
        "campaign" => {
            // `--diff old.json new.json` is its own sub-mode with
            // positional report paths.
            if rest.first().map(String::as_str) == Some("--diff") {
                if rest.len() < 3 {
                    return fail("--diff needs two report files: --diff old.json new.json");
                }
                let paths = rest[1..3].to_vec();
                let flags = match parse_flags(&rest[3..], &[val("--format")]) {
                    Ok(f) => f,
                    Err(e) => return fail(&e),
                };
                let format = match parse_format(&flags) {
                    Ok(f) => f,
                    Err(e) => return fail(&e),
                };
                return cmd_campaign_diff(&paths, format);
            }
            let flags = match parse_flags(
                rest,
                &[
                    val("--config"),
                    val("--jobs"),
                    val("--seed"),
                    val("--format"),
                    val("--out"),
                    val("--checkpoint"),
                    val("--resume"),
                    val("--shard"),
                    val("--timeline"),
                    val("--metrics-out"),
                    val("--flight-record"),
                    val("--flamegraph"),
                    multi("--merge"),
                    switch("--default"),
                    switch("--classify"),
                    switch("--fast-path"),
                    switch("--progress"),
                    switch("--print-spec"),
                ],
            ) {
                Ok(f) => f,
                Err(e) => return fail(&e),
            };
            cmd_campaign(flags)
        }
        "replay" => {
            let Some(path) = rest.first() else {
                return fail("replay needs a bundle file or directory: replay <bundle.json|dir>");
            };
            let flags = match parse_flags(
                &rest[1..],
                &[val("--format"), val("--timeline"), val("--metrics-out")],
            ) {
                Ok(f) => f,
                Err(e) => return fail(&e),
            };
            let format = match flags.get("--format") {
                None | Some("text") => Format::Text,
                Some("json") => Format::Json,
                Some(other) => {
                    return fail(&format!("flag --format: expected text|json, got {other:?}"))
                }
            };
            let obs = match Obs::start(&flags, 1, "bundles") {
                Ok(o) => o,
                Err(e) => return fail(&e),
            };
            let code = cmd_replay(path, format);
            match obs.finish() {
                Ok(()) => code,
                Err(e) => fail(&e),
            }
        }
        "profile" => {
            let Some(path) = rest.first() else {
                return fail(
                    "profile needs traces, a bundle or a directory: \
                     profile <traces.json|bundle.json|dir>",
                );
            };
            let flags = match parse_flags(&rest[1..], &[val("--format"), val("--flamegraph")]) {
                Ok(f) => f,
                Err(e) => return fail(&e),
            };
            let format = match flags.get("--format") {
                None | Some("text") => Format::Text,
                Some("json") => Format::Json,
                Some(other) => {
                    return fail(&format!("flag --format: expected text|json, got {other:?}"))
                }
            };
            cmd_profile(path, &flags, format)
        }
        _ => usage(),
    }
}
