//! The `--progress` reporter is the CLI's only progress output: without
//! it, stderr carries no per-run progress meter.

use std::process::{Command, Output};

use lazy_eye_inspection::campaign::CampaignSpec;
use lazy_eye_inspection::fleet::FleetSpec;
use lazy_eye_inspection::testbed::{CadCaseConfig, SweepSpec};

fn lazyeye(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lazyeye"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn progress_goes_to_stderr_only_under_the_progress_flag() {
    let spec = CampaignSpec {
        clients: vec!["curl-7.88.1".into()],
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(150, 250, 50),
            repetitions: 1,
        }),
        rd: None,
        selection: None,
        resolver: None,
        ..CampaignSpec::default()
    };
    let path = std::env::temp_dir().join(format!("lazyeye-{}-progress.json", std::process::id()));
    std::fs::write(&path, spec.to_json()).unwrap();
    let path = path.to_str().unwrap();

    let quiet = lazyeye(&["campaign", "--config", path, "--jobs", "2"]);
    let stderr = String::from_utf8_lossy(&quiet.stderr);
    assert!(quiet.status.success(), "{stderr}");
    assert!(!stderr.contains("runs ("), "{stderr}");

    let fleet = FleetSpec {
        population: vec!["firefox-130.0".to_string()],
        cad_sessions: 1,
        rd_sessions: 1,
        repetitions: 1,
        resolver_checks: 1,
        ..FleetSpec::default()
    };
    let fleet_path = format!("{path}.fleet");
    std::fs::write(&fleet_path, fleet.to_json()).unwrap();
    let fleet = lazyeye(&["fleet", "--spec", &fleet_path, "--jobs", "2"]);
    std::fs::remove_file(&fleet_path).unwrap();
    let stderr = String::from_utf8_lossy(&fleet.stderr);
    assert!(fleet.status.success(), "{stderr}");
    assert!(!stderr.contains("sessions ("), "{stderr}");

    let armed = lazyeye(&["campaign", "--config", path, "--jobs", "2", "--progress"]);
    let stderr = String::from_utf8_lossy(&armed.stderr);
    assert!(armed.status.success(), "{stderr}");
    std::fs::remove_file(path).unwrap();
}
