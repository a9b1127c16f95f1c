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
