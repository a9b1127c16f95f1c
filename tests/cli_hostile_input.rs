//! Hostile input files reach the `lazyeye` binary as clean errors: a
//! message and exit status 1, never a panic or an abort.

use std::path::PathBuf;
use std::process::Command;

/// Writes `contents` to a file unique to this test process.
fn temp_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("lazyeye-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn deeply_nested_json_is_a_clean_error() {
    // 200k unclosed arrays: an unbounded recursive parser overflows the
    // stack and aborts the process.
    let path = temp_file("nested.json", &"[".repeat(200_000));
    for args in [
        ["campaign", "--config"],
        ["campaign", "--resume"],
        ["fleet", "--spec"],
        ["infer", "--trace"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_lazyeye"))
            .args(args)
            .arg(&path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("nesting deeper than 512"),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_file(path).unwrap();
}

/// Swaps the `index` of the first stored output of kind `a` with that of
/// the first of kind `b` in a pretty-printed partial, returning the new
/// text and the smaller of the two indices.
fn swap_kinds(text: &str, a: &str, b: &str) -> (String, u64) {
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    // Each stored output opens with its index line, then its kind line.
    let index_line = |kind: &str| {
        let tag = format!("\"kind\": \"{kind}\"");
        lines
            .iter()
            .position(|l| l.trim_start().starts_with(&tag))
            .unwrap()
            - 1
    };
    let (la, lb) = (index_line(a), index_line(b));
    let index = |line: &str| -> u64 {
        let digits = line.trim().trim_start_matches("\"index\": ");
        digits.trim_end_matches(',').parse().unwrap()
    };
    let first = index(&lines[la]).min(index(&lines[lb]));
    lines.swap(la, lb);
    (lines.join("\n") + "\n", first)
}

/// Runs `lazyeye args…`, expecting exit 1 and `needle` in stderr.
fn assert_clean_error(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_lazyeye"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

#[test]
fn stored_outputs_of_the_wrong_kind_are_a_clean_error() {
    use lazy_eye_inspection::campaign::{
        expand, run_campaign_resumable, run_shard, CampaignSpec, Checkpoint, RdPlan, Shard,
    };
    use lazy_eye_inspection::fleet::{run_fleet_shard, FleetSpec};
    use lazy_eye_inspection::testbed::{CadCaseConfig, DelayedRecord, SweepSpec};

    let whole = Shard { index: 0, count: 1 };
    let spec = CampaignSpec {
        clients: vec!["chrome-130.0".into()],
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(250, 350, 100),
            repetitions: 1,
        }),
        rd: Some(RdPlan {
            records: vec![DelayedRecord::Aaaa],
            sweep: SweepSpec::new(100, 100, 50),
            repetitions: 1,
        }),
        selection: None,
        resolver: None,
        ..CampaignSpec::default()
    };

    // A shard partial with a CAD and an RD output swapped: --merge.
    let part = run_shard(&spec, 1, whole, None, |_, _| {}, |_| {}).unwrap();
    let (text, index) = swap_kinds(&part.to_json_string(), "cad", "rd");
    let path = temp_file("swapped-partial.json", &text);
    let path = path.to_str().unwrap();
    let needle = format!("stored output at index {index} ");
    assert_clean_error(&["campaign", "--merge", path], &needle);

    // A shard no run belongs to: resuming it must not divide by zero.
    let zero = part
        .to_json_string()
        .replace("\"count\": 1", "\"count\": 0");
    std::fs::write(path, zero).unwrap();
    assert_clean_error(&["campaign", "--resume", path], "need 0 <= index < count");

    // A finished checkpoint with the same swap: --resume.
    let mut ckpt = Checkpoint::new(spec.clone(), expand(&spec).unwrap().len() as u64, None);
    let completed = std::collections::BTreeMap::new();
    run_campaign_resumable(
        &spec,
        1,
        &completed,
        |_, _| {},
        |run, out| ckpt.record(run.index, out.clone()),
    )
    .unwrap();
    let (text, index) = swap_kinds(&ckpt.to_json_string(), "cad", "rd");
    std::fs::write(path, text).unwrap();
    let needle = format!("stored output at index {index} ");
    assert_clean_error(&["campaign", "--resume", path], &needle);

    // A fleet partial with a web session and a resolver check swapped.
    let fleet = FleetSpec {
        population: vec!["firefox-130.0".to_string()],
        cad_sessions: 1,
        rd_sessions: 1,
        repetitions: 1,
        resolver_checks: 1,
        ..FleetSpec::default()
    };
    let part = run_fleet_shard(&fleet, 1, whole, |_, _| {}, |_| {}).unwrap();
    let (text, index) = swap_kinds(&part.to_json_string(), "web", "resolver");
    std::fs::write(path, text).unwrap();
    let needle = format!("stored output at index {index} ");
    assert_clean_error(&["fleet", "--merge", path], &needle);
    std::fs::remove_file(path).unwrap();
}

#[test]
fn truncated_trace_file_is_a_clean_error() {
    let full = temp_file("full-trace.json", "");
    let out = Command::new(env!("CARGO_BIN_EXE_lazyeye"))
        .args([
            "cad",
            "--client",
            "curl-7.88.1",
            "--from",
            "150",
            "--to",
            "250",
        ])
        .args(["--step", "50", "--emit-trace"])
        .arg(&full)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&full).unwrap();
    std::fs::remove_file(&full).unwrap();
    // Cut inside a value and between values: a writer killed mid-file.
    for cut in [text.len() / 2, text.len() - 2] {
        let path = temp_file("truncated-trace.json", &text[..cut]);
        let out = Command::new(env!("CARGO_BIN_EXE_lazyeye"))
            .args(["infer", "--trace"])
            .arg(&path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "cut at {cut}: {stderr}");
        assert!(
            stderr.contains("truncated-trace.json"),
            "cut at {cut}: {stderr}"
        );
        std::fs::remove_file(path).unwrap();
    }
}
