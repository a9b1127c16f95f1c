//! Every invocation the `lazyeye` option layer refuses: a table of
//! (arguments, exit code, stderr substring). A refused invocation never
//! measures anything; a typo or a contradiction must not silently run a
//! different measurement than asked for.

use std::path::PathBuf;
use std::process::Command;

const SPEC: &str = r#"{
  "name": "cli-options",
  "seed": 7,
  "clients": ["curl-7.88.1"],
  "resolvers": [],
  "netem": [],
  "cad": {"sweep": {"start_ms": 150, "end_ms": 250, "step_ms": 50}, "repetitions": 1},
  "rd": null,
  "selection": null,
  "resolver": null,
  "refine_step_ms": null
}"#;

fn lazyeye(args: &[String]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lazyeye"))
        .args(args)
        .output()
        .unwrap()
}

/// Splits a whitespace-separated argument line, with `{dir}` standing for
/// the fixture directory.
fn args(line: &str, dir: &str) -> Vec<String> {
    line.split_whitespace()
        .map(|a| a.replace("{dir}", dir))
        .collect()
}

/// A directory holding a small campaign spec, a whole-campaign
/// checkpoint, a shard-0/2 checkpoint, a JSON report, a trace set and an
/// empty directory.
fn fixtures(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lazyeye-options-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("empty")).unwrap();
    std::fs::write(dir.join("spec.json"), SPEC).unwrap();
    let d = dir.display().to_string();
    for line in [
        "campaign --config {dir}/spec.json --checkpoint {dir}/ckpt.json",
        "campaign --config {dir}/spec.json --shard 0/2 --checkpoint {dir}/shard-ckpt.json",
        "campaign --config {dir}/spec.json --format json --out {dir}/report",
        "cad --client curl-7.88.1 --from 150 --to 250 --step 50 --emit-trace {dir}/traces.json",
    ] {
        let out = lazyeye(&args(line, &d));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{line}: {stderr}");
    }
    dir
}

/// Runs every row of `table` — `<arguments> => <exit code> <stderr
/// substring>`, `#` starting a comment line — and reports all mismatches
/// at once.
fn check(name: &str, table: &str) {
    let dir = fixtures(name);
    let d = dir.display().to_string();
    let mut failures = Vec::new();
    let rows = table
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    for row in rows {
        let (line, want) = row.split_once("=>").expect("row has =>");
        let (code, needle) = want.trim().split_once(' ').expect("row has a needle");
        let code: i32 = code.parse().unwrap();
        let out = lazyeye(&args(line, &d));
        let stderr = String::from_utf8_lossy(&out.stderr);
        if out.status.code() != Some(code) || !stderr.contains(needle) {
            failures.push(format!(
                "{row}\n    got exit {:?}: {stderr}",
                out.status.code()
            ));
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn refused_flag_combinations_and_values() {
    check(
        "refusals",
        r#"
        # No command, an unknown command, a missing required flag.
        => 2 usage: lazyeye
        frobnicate => 2 usage: lazyeye
        cad => 2 usage: lazyeye
        rd => 2 usage: lazyeye
        selection => 2 usage: lazyeye
        resolver => 2 usage: lazyeye
        run => 2 usage: lazyeye

        # Flag shapes.
        clients --bogus => 1 unknown flag "--bogus"
        config --format json => 1 unknown flag "--format"
        cad --client => 1 flag --client requires a value
        campaign --default stray => 1 unknown flag "stray"
        fleet --default --classify => 1 unknown flag "--classify"
        infer --trace t.json --flight-record d => 1 unknown flag

        # Bad --format per command.
        clients --format xml => 1 flag --format: expected text|json|csv, got "xml"
        resolvers --format xml => 1 flag --format: expected text|json|csv, got "xml"
        campaign --default --format xml => 1 flag --format: expected text|json|csv, got "xml"
        fleet --default --format xml => 1 flag --format: expected text|json|csv, got "xml"
        infer --trace t.json --format csv => 1 flag --format: expected text|json, got "csv"
        campaign --diff a.json b.json --format xml => 1 flag --format: expected text|json
        fleet --diff a.json b.json --format csv => 1 flag --format: expected text|json, got "csv"
        infer --diff a.json b.json --format csv => 1 flag --format: expected text|json, got "csv"
        replay {dir}/empty --format csv => 1 flag --format: expected text|json, got "csv"
        profile {dir}/empty --format csv => 1 flag --format: expected text|json, got "csv"

        # --diff arity and flags.
        campaign --diff a.json => 1 --diff needs two report files
        fleet --diff a.json => 1 --diff needs two report files
        infer --diff a.json => 1 --diff needs two profile files
        campaign --diff a.json b.json --jobs 2 => 1 unknown flag "--jobs"

        # Numbers.
        campaign --default --jobs 0 => 1 flag --jobs: must be at least 1
        fleet --default --jobs 0 => 1 flag --jobs: must be at least 1
        infer --trace t.json --jobs 0 => 1 flag --jobs: must be at least 1
        campaign --default --jobs many => 1 flag --jobs: invalid value "many"
        campaign --default --seed x => 1 flag --seed: invalid value "x"
        campaign --config {dir}/spec.json --seed -1 => 1 flag --seed: invalid value "-1"
        fleet --default --seed x => 1 flag --seed: invalid value "x"
        fleet --default --sessions 0 => 1 flag --sessions: must be at least 1
        fleet --default --reps 0 => 1 flag --reps: must be at least 1
        fleet --default --sessions lots => 1 flag --sessions: invalid value
        cad --client curl-7.88.1 --step 0 => 1 flag --step: must be > 0
        cad --client curl-7.88.1 --from x => 1 flag --from: invalid value "x"
        cad --client curl-7.88.1 --reps -1 => 1 flag --reps: invalid value
        rd --client curl-7.88.1 --delay x => 1 flag --delay: invalid value
        rd --client curl-7.88.1 --seed x => 1 flag --seed: invalid value
        selection --client curl-7.88.1 --seed x => 1 flag --seed: invalid value
        resolver --profile Unbound --reps x => 1 flag --reps: invalid value

        # Unknown names and enumerations.
        cad --client netscape-4 => 1 unknown client "netscape-4"
        rd --client netscape-4 => 1 unknown client "netscape-4"
        selection --client netscape-4 => 1 unknown client "netscape-4"
        resolver --profile Nope => 1 unknown resolver "Nope"
        rd --client curl-7.88.1 --record mx => 1 flag --record: expected aaaa|a, got "mx"

        # Spec sources.
        campaign => 1 campaign needs --config <spec.json> or --default
        campaign --config {dir}/spec.json --default => 1 --config and --default are mutually exclusive
        campaign --config {dir}/missing.json => 1 cannot read
        campaign --config {dir}/ckpt.json => 1 bad spec
        fleet => 1 fleet needs --spec <fleet.json> or --default
        fleet --spec {dir}/spec.json --default => 1 --spec and --default are mutually exclusive
        fleet --spec {dir}/missing.json => 1 cannot read
        fleet --spec {dir}/spec.json => 1 bad fleet spec
        infer => 1 infer needs --trace <traces.json> or --campaign <spec.json>
        infer --trace {dir}/traces.json --campaign {dir}/spec.json => 1 --trace and --campaign are mutually exclusive
        infer --trace {dir}/missing.json => 1 cannot read
        run --config {dir}/missing.json => 1 cannot read
        run --config {dir}/traces.json => 1 bad config

        # Merge vs spec flags.
        campaign --merge p.json --config {dir}/spec.json => 1 --merge cannot be combined with --config
        campaign --merge p.json --default => 1 --merge cannot be combined with --default
        campaign --merge p.json --seed 3 => 1 --merge cannot be combined with --seed
        campaign --merge p.json --shard 0/2 => 1 --merge cannot be combined with --shard
        campaign --merge p.json --resume c.json => 1 --merge cannot be combined with --resume
        campaign --merge p.json --checkpoint c.json => 1 --merge cannot be combined with --checkpoint
        campaign --merge p.json --fast-path => 1 --fast-path does not apply to --merge; it only affects local runs
        campaign --merge p.json --flamegraph f => 1 --flamegraph applies to local full campaign runs, not --merge
        campaign --merge {dir}/missing.json => 1 cannot read
        fleet --merge p.json --spec s.json => 1 --merge cannot be combined with --spec
        fleet --merge p.json --default => 1 --merge cannot be combined with --default
        fleet --merge p.json --seed 3 => 1 --merge cannot be combined with --seed
        fleet --merge p.json --sessions 3 => 1 --merge cannot be combined with --sessions
        fleet --merge p.json --reps 3 => 1 --merge cannot be combined with --reps
        fleet --merge p.json --shard 0/2 => 1 --merge cannot be combined with --shard
        fleet --merge p.json --flamegraph f => 1 --flamegraph applies to local full fleet runs, not --merge

        # Shard vs report flags.
        campaign --default --shard 0/2 --format json => 1 --format does not apply to shard runs; partials are always JSON
        campaign --default --shard 0/2 --classify => 1 --classify does not apply to shard runs; classify at --merge
        campaign --default --shard 0/2 --fast-path => 1 --fast-path does not apply to shard runs; it only affects whole local runs
        campaign --default --shard 0/2 --flamegraph f => 1 --flamegraph does not apply to shard runs; profile the merge
        fleet --default --shard 0/2 --format csv => 1 --format does not apply to shard runs; partials are always JSON
        fleet --default --shard 0/2 --flamegraph f => 1 --flamegraph does not apply to shard runs; profile the merge
        campaign --default --shard 2/2 => 1 shard "2/2": need 0 <= i < n
        campaign --default --shard half => 1 shard "half": expected i/n
        fleet --default --shard 1/x => 1 shard "1/x": expected two integers i/n

        # Resume vs config, seed and shard.
        campaign --resume {dir}/ckpt.json --config {dir}/spec.json => 1 --resume reads spec and seed from the checkpoint; drop --config/--default/--seed
        campaign --resume {dir}/ckpt.json --default => 1 --resume reads spec and seed from the checkpoint
        campaign --resume {dir}/ckpt.json --seed 3 => 1 --resume reads spec and seed from the checkpoint
        campaign --resume {dir}/ckpt.json --shard 0/2 => 1 --shard cannot be added to a whole-campaign checkpoint
        campaign --resume {dir}/shard-ckpt.json --shard 1/2 => 1 --shard 1/2 disagrees with the checkpoint's 0/2
        campaign --resume {dir}/shard-ckpt.json --shard x => 1 shard "x": expected i/n
        campaign --resume {dir}/shard-ckpt.json --format json => 1 --format does not apply to shard runs
        campaign --resume {dir}/missing.json => 1 cannot read
        campaign --resume {dir}/spec.json => 1 lazyeye:

        # Replay and profile inputs.
        replay => 1 replay needs a bundle file or directory
        replay {dir}/missing => 1 cannot read
        replay {dir}/empty => 1 no bundles (*.json) found
        replay {dir}/spec.json => 1 lazyeye:
        profile => 1 profile needs traces, a bundle or a directory
        profile {dir}/missing => 1 cannot read
        profile {dir}/empty => 1 no trace files (*.json) found
        profile {dir}/spec.json => 1 lazyeye:

        # Diff inputs.
        campaign --diff {dir}/missing.json {dir}/report.json => 1 cannot read
        campaign --diff {dir}/spec.json {dir}/report.json => 1 spec.json:
        fleet --diff {dir}/report.json {dir}/missing.json => 1 cannot read
        infer --diff {dir}/spec.json {dir}/spec.json => 1 spec.json:
        "#,
    );
}

#[test]
fn invocations_that_would_measure_nothing_are_refused() {
    check(
        "nothing",
        r#"
        # A report diff has no CSV rendering.
        campaign --diff {dir}/report.json {dir}/report.json --format csv => 1 flag --format: expected text|json, got "csv"

        # Empty sweeps and zero repetitions.
        cad --client curl-7.88.1 --reps 0 => 1 flag --reps: must be at least 1
        resolver --profile Unbound --reps 0 => 1 flag --reps: must be at least 1
        cad --client curl-7.88.1 --from 300 --to 100 => 1 flag --to: must be at least --from

        # A trace set is already measured; a seed would change nothing.
        infer --trace {dir}/traces.json --seed 3 => 1 --seed does not apply to --trace
        "#,
    );
}
