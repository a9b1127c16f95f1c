//! Periodic checkpoint saves run on a background writer thread; once the
//! `lazyeye` command exits, the file on disk must hold the final state —
//! no stale periodic snapshot renamed over it, no temp file left behind.

use std::path::Path;
use std::process::Command;

use lazy_eye_inspection::campaign::Checkpoint;
use lazy_eye_inspection::fleet::FleetCheckpoint;

/// A path unique to this test process.
fn temp_path(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("lazyeye-{}-{name}", std::process::id()));
    path.to_str().unwrap().to_string()
}

fn lazyeye(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_lazyeye"))
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn assert_no_temp_file(path: &str) {
    assert!(
        !Path::new(&format!("{path}.tmp")).exists(),
        "{path}.tmp left behind"
    );
}

fn remove(paths: &[String]) {
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn campaign_checkpoint_is_complete_on_exit_and_resumes_identically() {
    // The default spec's 625 first-pass runs pass about twenty periodic
    // snapshots through the writer before the final one.
    let ckpt = temp_path("campaign-ckpt.json");
    let base = temp_path("campaign");
    let resumed = temp_path("campaign-resumed");
    lazyeye(&[
        "campaign",
        "--default",
        "--jobs",
        "2",
        "--seed",
        "7",
        "--checkpoint",
        &ckpt,
        "--out",
        &base,
    ]);
    assert_no_temp_file(&ckpt);
    let loaded = Checkpoint::load(&ckpt).unwrap();
    assert!(loaded.missing().is_empty(), "final save not on disk");

    lazyeye(&[
        "campaign", "--resume", &ckpt, "--jobs", "2", "--out", &resumed,
    ]);
    for ext in ["json", "csv"] {
        let a = std::fs::read(format!("{base}.{ext}")).unwrap();
        let b = std::fs::read(format!("{resumed}.{ext}")).unwrap();
        assert!(a == b, "resumed {ext} report differs");
    }
    remove(&[
        ckpt,
        format!("{base}.json"),
        format!("{base}.csv"),
        format!("{resumed}.json"),
        format!("{resumed}.csv"),
    ]);
}

#[test]
fn shard_partials_are_complete_on_exit() {
    let ckpt = temp_path("shard-ckpt.json");
    let campaign_part = temp_path("campaign-part");
    lazyeye(&[
        "campaign",
        "--default",
        "--jobs",
        "2",
        "--shard",
        "0/2",
        "--checkpoint",
        &ckpt,
        "--out",
        &campaign_part,
    ]);
    assert_no_temp_file(&ckpt);
    assert!(Checkpoint::load(&ckpt).unwrap().missing().is_empty());

    // Fleet shards save their partial periodically whenever --out is set.
    let fleet_part = temp_path("fleet-part");
    lazyeye(&[
        "fleet",
        "--default",
        "--jobs",
        "2",
        "--shard",
        "1/2",
        "--out",
        &fleet_part,
    ]);
    let partial = format!("{fleet_part}.json");
    assert_no_temp_file(&partial);
    let loaded = FleetCheckpoint::load(&partial).unwrap();
    assert!(loaded.missing().is_empty(), "final save not on disk");

    remove(&[ckpt, format!("{campaign_part}.json"), partial]);
}
