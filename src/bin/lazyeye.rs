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
//! lazyeye campaign --diff old.json new.json
//! lazyeye campaign --default --timeline t.json --metrics-out m.prom --progress
//! lazyeye campaign --default --classify --flamegraph flame.collapsed
//! lazyeye profile traces.json --flamegraph flame.collapsed
//! ```
//!
//! Unknown flags are hard errors — a typo must never silently run a
//! different measurement than asked for. So are flags the chosen mode has
//! no use for ([`CONFLICTS`]) and values that would measure nothing
//! (`--reps 0`, an empty sweep).
//!
//! `campaign`, `fleet` and `infer` share one option layer: their flags are
//! parsed and checked once into [`RunOptions`] before anything runs. Every
//! command returns a [`Stop`] on failure, and `main` turns it into an exit
//! status in one place.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
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
    diff_profiles, fmt_opt, infer_resolver_traces, infer_traces, score_profile, FieldDelta,
    InferredProfile, InferredResolverReport,
};
use lazy_eye_inspection::json::{FromJson, Json, JsonError, ToJson};
use lazy_eye_inspection::net::Family;
use lazy_eye_inspection::obs::bundle::Bundle;
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

/// Why a command stopped short of success.
enum Stop {
    /// `lazyeye: <message>` on stderr, exit status 1.
    Fail(String),
    /// The usage text, exit status 2.
    Usage,
    /// Exit status 1; the command has already said why.
    Quiet,
}

impl From<String> for Stop {
    fn from(msg: String) -> Stop {
        Stop::Fail(msg)
    }
}

impl From<&str> for Stop {
    fn from(msg: &str) -> Stop {
        Stop::Fail(msg.to_string())
    }
}

type Outcome = Result<(), Stop>;

/// Flags that take no value. `--merge` takes one value per occurrence and
/// accumulates; every other flag takes one value and a repeat overrides.
const SWITCHES: &[&str] = &[
    "--default",
    "--classify",
    "--fast-path",
    "--progress",
    "--print-spec",
];

/// Flags of every run command (`campaign`, `fleet`, `infer`).
const RUN_FLAGS: &[&str] = &[
    "--jobs",
    "--seed",
    "--format",
    "--timeline",
    "--metrics-out",
    "--progress",
];

/// Flags the two studies (`campaign`, `fleet`) add.
const STUDY_FLAGS: &[&str] = &[
    "--default",
    "--print-spec",
    "--out",
    "--shard",
    "--merge",
    "--flight-record",
    "--flamegraph",
];

/// Parsed command-line flags.
struct Flags(HashMap<String, Vec<String>>);

impl Flags {
    /// The flag's value (last occurrence), if present.
    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).and_then(|v| v.last()).map(String::as_str)
    }

    fn value(&self, name: &str) -> Option<String> {
        self.get(name).map(String::from)
    }

    /// Every occurrence of `--merge`, in order.
    fn get_all(&self, name: &str) -> &[String] {
        self.0.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether the flag appeared at all.
    fn contains(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The flag's value as a number, if present.
    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("flag {name}: invalid value {v:?}"))
            })
            .transpose()
    }

    /// A count flag's value, if present: a count of 0 would measure
    /// nothing, so it is refused.
    fn count<T: std::str::FromStr + PartialEq + From<u8>>(
        &self,
        name: &str,
    ) -> Result<Option<T>, String> {
        match self.num(name)? {
            Some(n) if n == T::from(0) => Err(format!("flag {name}: must be at least 1")),
            n => Ok(n),
        }
    }

    /// `--format`, text by default; `allowed` lists what the command
    /// renders.
    fn format(&self, allowed: &[Format]) -> Result<Format, String> {
        let Some(v) = self.get("--format") else {
            return Ok(Format::Text);
        };
        allowed
            .iter()
            .copied()
            .find(|f| f.name() == v)
            .ok_or_else(|| {
                let names: Vec<&str> = allowed.iter().map(|f| f.name()).collect();
                format!("flag --format: expected {}, got {v:?}", names.join("|"))
            })
    }
}

/// Parses `args` against an allowlist. Unknown flags, missing values and
/// stray positionals are errors — never silently ignored.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
    let mut out: HashMap<String, Vec<String>> = HashMap::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !allowed.contains(&arg.as_str()) {
            return Err(format!("unknown flag {arg:?}"));
        }
        let entry = out.entry(arg.clone()).or_default();
        if SWITCHES.contains(&arg.as_str()) {
            continue;
        }
        let Some(value) = args.next() else {
            return Err(format!("flag {arg} requires a value"));
        };
        if arg != "--merge" {
            entry.clear();
        }
        entry.push(value.clone());
    }
    Ok(Flags(out))
}

/// Output format shared by the table-printing commands.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Csv,
}

impl Format {
    fn name(self) -> &'static str {
        match self {
            Format::Text => "text",
            Format::Json => "json",
            Format::Csv => "csv",
        }
    }
}

const ALL_FORMATS: &[Format] = &[Format::Text, Format::Json, Format::Csv];
const TEXT_JSON: &[Format] = &[Format::Text, Format::Json];

/// A run mode that has no use for some flags.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `--merge`: the partials carry spec, seed and shard.
    Merge,
    /// `--resume`: the checkpoint carries spec and seed.
    Resume,
    /// `--shard`, fresh or resumed: a partial is always JSON, and report
    /// options apply where the partials are merged.
    Shard,
    /// `infer --trace`: the traces are already measured.
    Trace,
}

const MERGE_WITH: &str = "--merge cannot be combined with {flag}";
const RESUME_WITH: &str =
    "--resume reads spec and seed from the checkpoint; drop --config/--default/--seed";

/// Every flag a mode refuses, with the message; the first matching row is
/// reported. `{flag}` stands for the flag, `{study}` for the engine.
const CONFLICTS: &[(Mode, &str, &str)] = &[
    (
        Mode::Merge,
        "--fast-path",
        "--fast-path does not apply to --merge; it only affects local runs",
    ),
    (
        Mode::Merge,
        "--flamegraph",
        "--flamegraph applies to local full {study} runs, not --merge",
    ),
    (Mode::Merge, "--config", MERGE_WITH),
    (Mode::Merge, "--spec", MERGE_WITH),
    (Mode::Merge, "--default", MERGE_WITH),
    (Mode::Merge, "--seed", MERGE_WITH),
    (Mode::Merge, "--sessions", MERGE_WITH),
    (Mode::Merge, "--reps", MERGE_WITH),
    (Mode::Merge, "--shard", MERGE_WITH),
    (Mode::Merge, "--resume", MERGE_WITH),
    (Mode::Merge, "--checkpoint", MERGE_WITH),
    (Mode::Resume, "--config", RESUME_WITH),
    (Mode::Resume, "--default", RESUME_WITH),
    (Mode::Resume, "--seed", RESUME_WITH),
    (
        Mode::Shard,
        "--format",
        "--format does not apply to shard runs; partials are always JSON",
    ),
    (
        Mode::Shard,
        "--classify",
        "--classify does not apply to shard runs; classify at --merge",
    ),
    (
        Mode::Shard,
        "--fast-path",
        "--fast-path does not apply to shard runs; it only affects whole local runs",
    ),
    (
        Mode::Shard,
        "--flamegraph",
        "--flamegraph does not apply to shard runs; profile the merge",
    ),
    (
        Mode::Trace,
        "--seed",
        "--seed does not apply to --trace; the traces are already measured",
    ),
];

/// Refuses the first flag in `flags` that `mode` has no use for.
fn refuse(flags: &Flags, mode: Mode, study: &str) -> Result<(), String> {
    match CONFLICTS
        .iter()
        .find(|(m, flag, _)| *m == mode && flags.contains(flag))
    {
        Some((_, flag, msg)) => Err(msg.replace("{flag}", flag).replace("{study}", study)),
        None => Ok(()),
    }
}

/// The options `campaign`, `fleet` and `infer` share, parsed and checked
/// once before anything runs.
struct RunOptions {
    jobs: usize,
    seed: Option<u64>,
    format: Format,
    /// `--config` (campaign), `--spec` (fleet) or `--campaign` (infer).
    spec: Option<String>,
    default: bool,
    out: Option<String>,
    shard: Option<Shard>,
    merge: Vec<String>,
    checkpoint: Option<String>,
    resume: Option<String>,
    classify: bool,
    fast_path: bool,
    flamegraph: Option<String>,
    obs: ObsOptions,
}

impl RunOptions {
    /// Parses the shared options of a command rendering `formats`, and
    /// refuses what the run's mode has no use for (`study` names the
    /// engine in those messages).
    fn parse(flags: &Flags, formats: &[Format], study: &str) -> Result<RunOptions, String> {
        let jobs = match flags.count("--jobs")? {
            Some(n) => n,
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        let opts = RunOptions {
            jobs,
            seed: flags.num("--seed")?,
            format: flags.format(formats)?,
            spec: ["--config", "--spec", "--campaign"]
                .iter()
                .find_map(|f| flags.value(f)),
            default: flags.contains("--default"),
            out: flags.value("--out"),
            shard: flags.get("--shard").map(Shard::parse).transpose()?,
            merge: flags.get_all("--merge").to_vec(),
            checkpoint: flags.value("--checkpoint"),
            resume: flags.value("--resume"),
            classify: flags.contains("--classify"),
            fast_path: flags.contains("--fast-path"),
            flamegraph: flags.value("--flamegraph"),
            obs: ObsOptions::parse(flags),
        };
        let mode = if !opts.merge.is_empty() {
            Mode::Merge
        } else if opts.resume.is_some() {
            Mode::Resume
        } else if opts.shard.is_some() {
            Mode::Shard
        } else if flags.contains("--trace") {
            Mode::Trace
        } else {
            return Ok(opts);
        };
        refuse(flags, mode, study)?;
        Ok(opts)
    }

    /// The spec the options name, with `--seed` applied.
    fn load_spec<S: Spec>(&self) -> Result<S, String> {
        let mut spec = match (&self.spec, self.default) {
            (Some(_), true) => {
                return Err(format!("{} and --default are mutually exclusive", S::FLAG))
            }
            (Some(path), false) => {
                S::parse(&read(path)?).map_err(|e| format!("bad {}: {e}", S::WHAT))?
            }
            (None, true) => S::default(),
            (None, false) => return Err(S::MISSING.to_string()),
        };
        if let Some(seed) = self.seed {
            spec.set_seed(seed);
        }
        Ok(spec)
    }

    /// Where checkpoints go: `--checkpoint`, else where a resumed run left
    /// off.
    fn checkpoint_path(&self) -> Option<String> {
        self.checkpoint.clone().or_else(|| self.resume.clone())
    }
}

/// A spec named by a file flag or `--default`.
trait Spec: Default {
    /// The flag naming its file.
    const FLAG: &'static str;
    /// What a parse error calls it.
    const WHAT: &'static str;
    /// The error when neither a file nor `--default` is given.
    const MISSING: &'static str;
    fn parse(text: &str) -> Result<Self, JsonError>;
    fn set_seed(&mut self, seed: u64);
}

impl Spec for CampaignSpec {
    const FLAG: &'static str = "--config";
    const WHAT: &'static str = "spec";
    const MISSING: &'static str = "campaign needs --config <spec.json> or --default \
                                   (or --print-spec / --resume / --merge)";
    fn parse(text: &str) -> Result<Self, JsonError> {
        CampaignSpec::from_json(text)
    }
    fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }
}

impl Spec for FleetSpec {
    const FLAG: &'static str = "--spec";
    const WHAT: &'static str = "fleet spec";
    const MISSING: &'static str =
        "fleet needs --spec <fleet.json> or --default (or --print-spec / --merge)";
    fn parse(text: &str) -> Result<Self, JsonError> {
        FleetSpec::from_json(text)
    }
    fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }
}

fn read(path: impl AsRef<Path>) -> Result<String, String> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// `path` itself, or every `*.json` file in it (sorted by name) when it is
/// a directory; `what` names those files when there are none.
fn json_inputs(path: &str, what: &str) -> Result<Vec<PathBuf>, String> {
    let cannot_read = |e: std::io::Error| format!("cannot read {path}: {e}");
    if !std::fs::metadata(path).map_err(cannot_read)?.is_dir() {
        return Ok(vec![path.into()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(cannot_read)?
        .flatten()
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{path}: no {what} (*.json) found"));
    }
    Ok(files)
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

/// The `--client` profile; a missing `--client` prints the usage text.
fn client(flags: &Flags) -> Result<ClientProfile, Stop> {
    let id = flags.get("--client").ok_or(Stop::Usage)?;
    all_measured_clients()
        .into_iter()
        .find(|c| c.id() == id)
        .ok_or_else(|| format!("unknown client {id:?} (try `lazyeye clients`)").into())
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

/// Loads one inferred-profile set for `infer --diff`.
fn load_profiles(path: &str) -> Result<Vec<InferredProfile>, String> {
    let v = Json::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    extract_profiles(&v).map_err(|e| format!("{path}: {e}"))
}

/// Field-level behaviour deltas between two sets of inferred profiles,
/// matched by subject.
fn diff_profile_sets(old: &[InferredProfile], new: &[InferredProfile], format: Format) -> String {
    let added: Vec<String> = new
        .iter()
        .filter(|p| !old.iter().any(|o| o.subject == p.subject))
        .map(|p| p.subject.clone())
        .collect();
    let mut removed: Vec<String> = Vec::new();
    let mut changed = Vec::new();
    for o in old {
        match new.iter().find(|p| p.subject == o.subject) {
            None => removed.push(o.subject.clone()),
            Some(p) => changed.extend(diff_profiles(o, p).into_iter().map(|delta| FieldDelta {
                field: format!("{}.{}", o.subject, delta.field),
                ..delta
            })),
        }
    }
    if format == Format::Json {
        let doc = Json::obj(vec![
            ("added", ToJson::to_json(&added)),
            ("removed", ToJson::to_json(&removed)),
            ("changed", ToJson::to_json(&changed)),
        ]);
        return format!("{}\n", doc.to_string_pretty());
    }
    let lines: Vec<String> = removed
        .iter()
        .map(|s| format!("- profile {s}\n"))
        .chain(added.iter().map(|s| format!("+ profile {s}\n")))
        .chain(changed.iter().map(|d| format!("~ {d}\n")))
        .collect();
    if lines.is_empty() {
        "no behaviour changes\n".to_string()
    } else {
        lines.concat()
    }
}

/// `<command> --diff old.json new.json [--format text|json]`: `load` reads
/// one file and `diff` renders the pair.
fn cmd_diff<T>(
    args: &[String],
    what: &str,
    load: impl Fn(&str) -> Result<T, String>,
    diff: impl Fn(&T, &T, Format) -> Result<String, String>,
) -> Outcome {
    let [old, new, rest @ ..] = args else {
        return Err(format!("--diff needs two {what} files: --diff old.json new.json").into());
    };
    let format = parse_flags(rest, &["--format"])?.format(TEXT_JSON)?;
    let (old, new) = (load(old)?, load(new)?);
    print!("{}", diff(&old, &new, format)?);
    Ok(())
}

/// `args` after `--diff`, when it is the command's first argument.
fn diff_args(args: &[String]) -> Option<&[String]> {
    match args.split_first() {
        Some((first, rest)) if first == "--diff" => Some(rest),
        _ => None,
    }
}

fn cmd_infer(args: &[String]) -> Outcome {
    // `--diff old.json new.json` is its own sub-mode with positional
    // profile-set paths, like `campaign --diff`.
    if let Some(args) = diff_args(args) {
        return cmd_diff(args, "profile", load_profiles, |old, new, format| {
            Ok(diff_profile_sets(old, new, format))
        });
    }
    let flags = parse_flags(args, &[RUN_FLAGS, &["--trace", "--campaign"]].concat())?;
    let opts = RunOptions::parse(&flags, TEXT_JSON, "infer")?;
    with_obs(&opts.obs, opts.jobs, "runs", || {
        match (flags.get("--trace"), &opts.spec) {
            (Some(_), Some(_)) => Err("--trace and --campaign are mutually exclusive".into()),
            (Some(path), None) => infer_trace_file(path, opts.format),
            (None, Some(_)) => {
                let spec: CampaignSpec = opts.load_spec()?;
                let (runs, outputs) = run_campaign_resumable(
                    &spec,
                    opts.jobs,
                    &std::collections::BTreeMap::new(),
                    progress_total,
                    |_, _| {},
                )
                .map_err(|e| format!("campaign failed: {e}"))?;
                let report = build_report_with(&spec, &runs, &outputs, true);
                let section = report.inference.expect("classify builds the section");
                match opts.format {
                    Format::Json => print!("{}", section.to_json()),
                    _ => print!("{}", section.render_text()),
                }
                Ok(())
            }
            (None, None) => {
                Err("infer needs --trace <traces.json> or --campaign <spec.json>".into())
            }
        }
    })
}

/// `infer --trace`: inferred client and resolver profiles with their
/// verdicts, from one trace-set file.
fn infer_trace_file(path: &str, format: Format) -> Outcome {
    let set = TraceSet::from_json_str(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
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
    Ok(())
}

/// The observability surfaces a command arms. Everything they produce
/// goes to side files or stderr — never into report bytes.
struct ObsOptions {
    timeline: Option<String>,
    metrics_out: Option<String>,
    flight_record: Option<String>,
    progress: bool,
}

impl ObsOptions {
    fn parse(flags: &Flags) -> ObsOptions {
        ObsOptions {
            timeline: flags.value("--timeline"),
            metrics_out: flags.value("--metrics-out"),
            flight_record: flags.value("--flight-record"),
            progress: flags.contains("--progress"),
        }
    }
}

/// Virtual-time tracks exported per timeline: the first N runs each get
/// their own Perfetto track of poll/timer/spawn instants.
const TIMELINE_SAMPLED_RUNS: u32 = 16;

/// The `--progress` reporter thread and its stop channel.
type Reporter = (std::sync::mpsc::Sender<()>, std::thread::JoinHandle<()>);

/// Runs `body` with the surfaces `obs` names armed — the span recorder,
/// the flight recorder and the live progress reporter (`unit` names what
/// it counts over `jobs` workers) — then writes the exporter files, also
/// when `body` failed.
fn with_obs(
    obs: &ObsOptions,
    jobs: usize,
    unit: &'static str,
    body: impl FnOnce() -> Outcome,
) -> Outcome {
    use lazy_eye_inspection::obs::{progress, trace, trigger};
    if obs.timeline.is_some() {
        trace::enable(TIMELINE_SAMPLED_RUNS);
    }
    if let Some(dir) = &obs.flight_record {
        trigger::arm(Path::new(dir))
            .map_err(|e| format!("cannot arm flight recorder at {dir}: {e}"))?;
    }
    let reporter = obs.progress.then(|| {
        progress::begin(0, jobs as u64);
        // A status line every 500 ms; `finish_obs` sends stop, which wakes
        // the wait at once instead of at the next tick.
        let (stop, stopped) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
                stopped.recv_timeout(std::time::Duration::from_millis(500))
            {
                if let Some(snap) = progress::snapshot() {
                    eprintln!("[progress] {}", snap.status_line(unit));
                }
            }
        });
        (stop, handle)
    });
    let result = body();
    let finished = finish_obs(obs, reporter);
    result.and(finished.map_err(Stop::Fail))
}

/// Stops the reporter, disarms the flight recorder and writes the
/// timeline / metrics files.
fn finish_obs(obs: &ObsOptions, reporter: Option<Reporter>) -> Result<(), String> {
    use lazy_eye_inspection::obs::{progress, registry, timeline, trace, trigger};
    if obs.flight_record.is_some() {
        let n = trigger::bundles_written();
        trigger::disarm();
        eprintln!("[obs] flight recorder wrote {n} bundle(s)");
    }
    if let Some((stop, handle)) = reporter {
        // A failed send means the reporter has already returned.
        let _ = stop.send(());
        handle
            .join()
            .map_err(|_| "the progress reporter thread panicked".to_string())?;
        progress::end();
    }
    if let Some(path) = &obs.timeline {
        let events = trace::take_events();
        trace::disable();
        let n = events.len();
        let doc = timeline::render_chrome_trace(events);
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[obs] wrote timeline {path} ({n} events)");
    }
    if let Some(path) = &obs.metrics_out {
        let doc = registry::render_prometheus(None);
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[obs] wrote metrics {path}");
    }
    Ok(())
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

/// Loads the `--merge` partials and unions them, warning when the union
/// misses planned items (`unit` names them), which the caller then
/// executes locally.
fn load_merged<S: Study>(paths: &[String], unit: &str) -> Result<Partial<S>, String> {
    let parts = paths
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

fn cmd_campaign(args: &[String]) -> Outcome {
    // `--diff old.json new.json` is its own sub-mode with positional
    // report paths.
    if let Some(args) = diff_args(args) {
        let load = |path: &str| {
            CampaignReport::from_json_str(&read(path)?).map_err(|e| format!("{path}: {e}"))
        };
        return cmd_diff(args, "report", load, |old, new, format| {
            let diff = diff_reports(old, new);
            Ok(match format {
                Format::Json => diff.to_json(),
                _ => diff.render_text(),
            })
        });
    }
    let campaign_flags = [
        "--config",
        "--checkpoint",
        "--resume",
        "--classify",
        "--fast-path",
    ];
    let flags = parse_flags(args, &[RUN_FLAGS, STUDY_FLAGS, &campaign_flags].concat())?;
    if flags.contains("--print-spec") {
        println!("{}", CampaignSpec::default().to_json());
        return Ok(());
    }
    let opts = RunOptions::parse(&flags, ALL_FORMATS, Campaign::NAME)?;
    with_obs(&opts.obs, opts.jobs, "runs", || {
        if !opts.merge.is_empty() {
            let merged = load_merged::<Campaign>(&opts.merge, "first-pass runs")?;
            let report = finish_from_checkpoint_with(
                &merged,
                opts.jobs,
                opts.classify,
                progress_total,
                |_, _| {},
            )
            .map_err(|e| format!("campaign failed: {e}"))?;
            return Ok(emit_report(&report, opts.format, opts.out.as_deref())?);
        }
        let (spec, resume_from) = match &opts.resume {
            Some(path) => {
                let ckpt = Checkpoint::load(path)?;
                (ckpt.spec.clone(), Some(ckpt))
            }
            None => (opts.load_spec()?, None),
        };
        let shard = match (resume_from.as_ref().map(|c| c.shard), opts.shard) {
            (Some(Some(saved)), Some(asked)) if saved != asked => {
                return Err(format!(
                    "--shard {}/{} disagrees with the checkpoint's {}/{}",
                    asked.index, asked.count, saved.index, saved.count
                )
                .into())
            }
            (Some(None), Some(_)) => {
                return Err("--shard cannot be added to a whole-campaign checkpoint".into())
            }
            (Some(saved), _) => saved,
            (None, asked) => asked,
        };
        match shard {
            Some(shard) => {
                refuse(&flags, Mode::Shard, Campaign::NAME)?;
                let ckpt_path = opts.checkpoint_path();
                let part = run_shard(
                    &spec,
                    opts.jobs,
                    shard,
                    resume_from,
                    progress_total,
                    periodic_save(ckpt_path.clone()),
                )
                .map_err(|e| format!("campaign failed: {e}"))?;
                save_checkpoint(&part, ckpt_path.as_deref());
                Ok(emit_partial(&part, "first-pass runs", opts.out.as_deref())?)
            }
            None => campaign_full(&opts, spec, resume_from),
        }
    })
}

/// Runs (or resumes) a full two-pass campaign with optional periodic
/// checkpointing, then reports.
fn campaign_full(
    opts: &RunOptions,
    spec: CampaignSpec,
    resume_from: Option<Checkpoint>,
) -> Outcome {
    let pass1_runs = expand(&spec).map_err(|e| format!("bad spec: {e}"))?.len() as u64;
    if let Some(ckpt) = &resume_from {
        ckpt.validate_shape(pass1_runs)
            .map_err(|e| format!("resume: {e}"))?;
    }
    let mut ckpt = resume_from.unwrap_or_else(|| Checkpoint::new(spec.clone(), pass1_runs, None));
    let completed = ckpt.completed().clone();
    if !completed.is_empty() {
        eprintln!(
            "[campaign] resuming: {} runs already completed",
            completed.len()
        );
    }
    let ckpt_path = opts.checkpoint_path();
    let mut save = periodic_save(ckpt_path.clone());
    let outcome = run_campaign_resumable_with(
        &spec,
        opts.jobs,
        opts.fast_path,
        &completed,
        progress_total,
        |run, out| {
            ckpt.record(run.index, out.clone());
            save(&ckpt);
        },
    );
    drop(save);
    let (runs, outputs) = outcome.map_err(|e| format!("campaign failed: {e}"))?;
    save_checkpoint(&ckpt, ckpt_path.as_deref());
    let report = build_report_with(&spec, &runs, &outputs, opts.classify);
    emit_report(&report, opts.format, opts.out.as_deref())?;
    if let Some(path) = &opts.flamegraph {
        // Attribute the executed run list (first pass + refinement) into
        // the per-cell latency budget and the flame graph. Both are pure
        // functions of (spec, run list): byte-identical across --jobs.
        let (budget, flame) = profile_runs(&spec, &runs);
        write_flamegraph(path, &flame)?;
        print_budget(&budget.render_text(), opts.format);
    }
    Ok(())
}

/// `lazyeye replay <bundle.json|dir>`: re-executes the run(s) a flight
/// recorder bundle captured, from provenance alone, and diffs the
/// regenerated trace against the recording. A directory replays every
/// `*.json` bundle in it (sorted by name). Exits non-zero if any replay
/// diverges — the CI determinism gate.
fn cmd_replay(args: &[String]) -> Outcome {
    let Some((path, rest)) = args.split_first() else {
        return Err("replay needs a bundle file or directory: replay <bundle.json|dir>".into());
    };
    let flags = parse_flags(rest, &["--format", "--timeline", "--metrics-out"])?;
    let format = flags.format(TEXT_JSON)?;
    with_obs(&ObsOptions::parse(&flags), 1, "bundles", || {
        let mut reports = Vec::new();
        for file in json_inputs(path, "bundles")? {
            let bundle = Bundle::from_json_str(&read(&file)?)
                .map_err(|e| format!("{}: {e}", file.display()))?;
            let report = lazy_eye_inspection::campaign::replay(&bundle)
                .map_err(|e| format!("{}: {e}", file.display()))?;
            reports.push(report);
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
            Ok(())
        } else {
            Err(Stop::Quiet)
        }
    })
}

/// `lazyeye profile <traces.json|bundle.json|dir>`: causal latency
/// attribution of recorded traces. Each run's establishment latency is
/// cut into exhaustive phases (resolution / stall / cad / fallback /
/// connect) that sum exactly to the measured total, alongside the
/// critical path through the run's causal DAG. Accepts trace-set files
/// (`--emit-trace` output), flight-recorder bundles, or a directory of
/// either (`*.json`, sorted by name).
fn cmd_profile(args: &[String]) -> Outcome {
    let Some((path, rest)) = args.split_first() else {
        return Err("profile needs traces, a bundle or a directory: \
                    profile <traces.json|bundle.json|dir>"
            .into());
    };
    let flags = parse_flags(rest, &["--format", "--flamegraph"])?;
    let format = flags.format(TEXT_JSON)?;
    let mut traces: Vec<Trace> = Vec::new();
    for file in json_inputs(path, "trace files")? {
        let text = read(&file)?;
        match TraceSet::from_json_str(&text) {
            Ok(set) => traces.extend(set.traces),
            // Not a trace set — a flight-recorder bundle carries the
            // run's trace under its "trace" key.
            Err(set_err) => match Bundle::from_json_str(&text) {
                Ok(bundle) => match Trace::from_json(&bundle.trace) {
                    Ok(t) => traces.push(t),
                    Err(e) => eprintln!(
                        "[profile] {}: bundle has no usable trace ({e}); skipped",
                        file.display()
                    ),
                },
                Err(_) => return Err(format!("{}: {set_err}", file.display()).into()),
            },
        }
    }
    if traces.is_empty() {
        return Err(format!("{path}: no attributable traces found").into());
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
        write_flamegraph(out, &flame)?;
    }
    Ok(())
}

fn cmd_fleet(args: &[String]) -> Outcome {
    // `--diff old.json new.json` is its own sub-mode with positional
    // report paths, like `campaign --diff`.
    if let Some(args) = diff_args(args) {
        return cmd_diff(
            args,
            "report",
            |path| read(path),
            |old, new, format| {
                let diff = fleet::diff_report_strs(old, new)?;
                Ok(match format {
                    Format::Json => diff.to_json(),
                    _ => diff.render_text(),
                })
            },
        );
    }
    let fleet_flags = ["--spec", "--sessions", "--reps"];
    let flags = parse_flags(args, &[RUN_FLAGS, STUDY_FLAGS, &fleet_flags].concat())?;
    if flags.contains("--print-spec") {
        println!("{}", FleetSpec::default().to_json());
        return Ok(());
    }
    let opts = RunOptions::parse(&flags, ALL_FORMATS, Fleet::NAME)?;
    let sessions = flags.count("--sessions")?;
    let reps = flags.count("--reps")?;
    let out = opts.out.as_deref();
    with_obs(&opts.obs, opts.jobs, "sessions", || {
        if !opts.merge.is_empty() {
            let merged = load_merged::<Fleet>(&opts.merge, "sessions")?;
            let report = fleet::finish_from_partial(&merged, opts.jobs, progress_total)
                .map_err(|e| format!("fleet failed: {e}"))?;
            return Ok(emit_report(&report, opts.format, out)?);
        }
        let mut spec: FleetSpec = opts.load_spec()?;
        spec.cad_sessions = sessions.unwrap_or(spec.cad_sessions);
        spec.repetitions = reps.unwrap_or(spec.repetitions);
        if let Some(shard) = opts.shard {
            // Save the partial periodically while the shard runs (atomic
            // temp-file + rename), so a kill loses only the sessions
            // finished since the last completed save — the same crash
            // contract as campaign shards.
            let part = run_fleet_shard(
                &spec,
                opts.jobs,
                shard,
                progress_total,
                periodic_save(out.map(|base| format!("{base}.json"))),
            )
            .map_err(|e| format!("fleet failed: {e}"))?;
            return Ok(emit_partial(&part, "sessions", out)?);
        }
        let report = run_fleet(&spec, opts.jobs, progress_total)
            .map_err(|e| format!("fleet failed: {e}"))?;
        emit_report(&report, opts.format, out)?;
        if let Some(path) = &opts.flamegraph {
            // Per-member probe attribution: a pure function of (spec,
            // seed), byte-identical across --jobs like the report itself.
            let (budget, flame) =
                fleet::profile_fleet(&spec).map_err(|e| format!("fleet profiling failed: {e}"))?;
            write_flamegraph(path, &flame)?;
            print_budget(&budget.render_text(), opts.format);
        }
        Ok(())
    })
}

fn cmd_clients(args: &[String]) -> Outcome {
    let format = parse_flags(args, &["--format"])?.format(ALL_FORMATS)?;
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
    Ok(())
}

fn cmd_resolvers(args: &[String]) -> Outcome {
    let format = parse_flags(args, &["--format"])?.format(ALL_FORMATS)?;
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
    Ok(())
}

fn cmd_cad(args: &[String]) -> Outcome {
    let flags = parse_flags(
        args,
        &[
            "--client",
            "--from",
            "--to",
            "--step",
            "--reps",
            "--seed",
            "--emit-trace",
        ],
    )?;
    let profile = client(&flags)?;
    let from = flags.num("--from")?.unwrap_or(0);
    let to = flags.num("--to")?.unwrap_or(400);
    let step = flags.num("--step")?.unwrap_or(25);
    let reps = flags.count("--reps")?.unwrap_or(1);
    let seed = flags.num("--seed")?.unwrap_or(1);
    if step == 0 {
        return Err("flag --step: must be > 0".into());
    }
    if to < from {
        return Err(format!("flag --to: must be at least --from ({from})").into());
    }
    let cfg = CadCaseConfig {
        sweep: SweepSpec::new(from, to, step),
        repetitions: reps,
    };
    let (samples, traces) = run_cad_case_traced(&profile, &cfg, seed);
    emit_trace_set(&flags, &traces)?;
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
    Ok(())
}

fn cmd_rd(args: &[String]) -> Outcome {
    let flags = parse_flags(
        args,
        &["--client", "--record", "--delay", "--seed", "--emit-trace"],
    )?;
    let profile = client(&flags)?;
    let record = match flags.get("--record") {
        Some("a") => DelayedRecord::A,
        Some("aaaa") | None => DelayedRecord::Aaaa,
        Some(other) => return Err(format!("flag --record: expected aaaa|a, got {other:?}").into()),
    };
    let delay = flags.num("--delay")?.unwrap_or(400);
    let seed = flags.num("--seed")?.unwrap_or(1);
    let cfg = RdCaseConfig {
        delayed: record,
        sweep: SweepSpec::new(delay, delay, 1),
        repetitions: 3,
    };
    let (samples, traces) = run_rd_case_traced(&profile, &cfg, seed);
    emit_trace_set(&flags, &traces)?;
    for s in &samples {
        println!(
            "delay {} ms rep {}: family {:?}, first SYN at {:?} ms, RD used: {}",
            s.configured_delay_ms, s.rep, s.family, s.first_attempt_ms, s.used_rd
        );
    }
    println!("implements RD: {}", summarize_rd(&samples).implements_rd);
    Ok(())
}

fn cmd_selection(args: &[String]) -> Outcome {
    let flags = parse_flags(args, &["--client", "--seed", "--emit-trace"])?;
    let profile = client(&flags)?;
    let seed = flags.num("--seed")?.unwrap_or(1);
    let (r, trace) =
        run_selection_once_traced(&profile, &SelectionCaseConfig::default(), 0, seed, &[], "-");
    let mut traces = TraceSet::default();
    traces.push(trace);
    emit_trace_set(&flags, &traces)?;
    let order: String = r
        .order
        .iter()
        .map(|f| if *f == Family::V6 { '6' } else { '4' })
        .collect();
    println!("attempt order: {order}");
    println!("addresses used: {} IPv6, {} IPv4", r.v6_used, r.v4_used);
    Ok(())
}

fn cmd_resolver(args: &[String]) -> Outcome {
    let flags = parse_flags(args, &["--profile", "--reps", "--seed", "--emit-trace"])?;
    let name = flags.get("--profile").ok_or(Stop::Usage)?;
    let Some(profile) = all_profiles().into_iter().find(|p| p.name == name) else {
        return Err(format!("unknown resolver {name:?} (try `lazyeye resolvers`)").into());
    };
    let reps = flags.count("--reps")?.unwrap_or(20);
    let seed = flags.num("--seed")?.unwrap_or(1);
    let timeout_ms = profile.policy.server_timeout.as_millis() as u64;
    let cfg = ResolverCaseConfig {
        sweep: SweepSpec::new(0, timeout_ms + 400, 200),
        repetitions: reps,
    };
    let (samples, traces) = run_resolver_case_traced(&profile, &cfg, seed);
    emit_trace_set(&flags, &traces)?;
    let stats = summarize_resolver(&samples);
    println!(
        "{}: IPv6 share {}, max v6 delay {:?} ms, per-try timeout {:?} ms, max v6 packets {}",
        profile.name,
        fmt_share(stats.v6_share_pct),
        stats.max_v6_delay_ms,
        stats.observed_cad_ms,
        stats.max_v6_packets
    );
    Ok(())
}

fn cmd_config(args: &[String]) -> Outcome {
    parse_flags(args, &[])?;
    println!("{}", TestbedConfig::default().to_json());
    Ok(())
}

fn cmd_run(args: &[String]) -> Outcome {
    let flags = parse_flags(args, &["--config"])?;
    let path = flags.get("--config").ok_or(Stop::Usage)?;
    let cfg = TestbedConfig::from_json(&read(path)?).map_err(|e| format!("bad config: {e}"))?;
    let chrome = all_measured_clients()
        .into_iter()
        .find(|c| c.id() == "chrome-130.0")
        .expect("builtin profile");
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
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let outcome = match cmd.as_str() {
        "clients" => cmd_clients(rest),
        "resolvers" => cmd_resolvers(rest),
        "cad" => cmd_cad(rest),
        "rd" => cmd_rd(rest),
        "selection" => cmd_selection(rest),
        "resolver" => cmd_resolver(rest),
        "config" => cmd_config(rest),
        "run" => cmd_run(rest),
        "infer" => cmd_infer(rest),
        "campaign" => cmd_campaign(rest),
        "fleet" => cmd_fleet(rest),
        "replay" => cmd_replay(rest),
        "profile" => cmd_profile(rest),
        _ => Err(Stop::Usage),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::Usage) => usage(),
        Err(Stop::Fail(msg)) => {
            eprintln!("lazyeye: {msg}");
            ExitCode::FAILURE
        }
        Err(Stop::Quiet) => ExitCode::FAILURE,
    }
}
