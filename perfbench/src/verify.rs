//! Output checks that hold for any seed, plus report digests pinned at
//! the default seed.
//!
//! The expectations come from the paper's ground truth, not from the
//! program's own profile tables, so a profile regression cannot make
//! its own check pass.

use lazyeye_campaign::CampaignReport;
use lazyeye_fleet::FleetReport;
use lazyeye_testbed::switchover_bracket;

use crate::measure::fnv1a;
use crate::workloads::Workload;

/// Fixed Connection Attempt Delays by client-id prefix (paper Table 2):
/// Chromium-based 300 ms, Firefox 250 ms, curl 200 ms.
const FIXED_CAD_MS: [(&str, u64); 5] = [
    ("chrome-", 300),
    ("chromium-", 300),
    ("edge-", 300),
    ("firefox-", 250),
    ("curl-", 200),
];

fn fixed_cad_ms(client: &str) -> Option<u64> {
    FIXED_CAD_MS
        .iter()
        .find(|(prefix, _)| client.starts_with(prefix))
        .map(|&(_, cad)| cad)
}

/// Only the Safari family and the HEv3-flag Chromium implement RD.
fn implements_rd(client: &str) -> bool {
    client.contains("safari") || client.contains("hev3")
}

/// Checks a campaign report:
/// - every fixed-CAD client's baseline switchover bracket contains its
///   CAD;
/// - when the campaign measured RD, exactly the Safari family and the
///   HEv3-flag client implement it;
/// - when classified, the inferred feature matrix agrees with the
///   summary roll-up.
pub fn check_campaign(report: &CampaignReport) -> Result<(), String> {
    let mut bracketed = 0;
    for cell in report
        .cells
        .iter()
        .filter(|c| c.case == "cad" && c.condition == "baseline")
    {
        let Some(cad) = fixed_cad_ms(&cell.subject) else {
            continue;
        };
        match switchover_bracket(cell.last_v6_delay_ms, cell.first_v4_delay_ms) {
            Some((lo, hi)) if lo <= cad && cad <= hi => bracketed += 1,
            other => {
                return Err(format!(
                    "{}: CAD bracket {other:?} does not contain its {cad} ms CAD",
                    cell.subject
                ))
            }
        }
    }
    if bracketed == 0 {
        return Err("no fixed-CAD client was measured".to_string());
    }
    if report.cells.iter().any(|c| c.case == "rd") {
        for f in &report.features {
            if f.rd_impl != implements_rd(&f.client) {
                return Err(format!("{}: implements RD = {}", f.client, f.rd_impl));
            }
        }
    }
    if let Some(inference) = &report.inference {
        if !inference.matrix_agrees {
            return Err(format!(
                "inferred feature matrix disagrees: {:?}",
                inference.disagreements
            ));
        }
    }
    Ok(())
}

/// Checks a fleet report's summary: every member agrees with its known
/// profile and every fixed-CAD member's bracket contains its CAD.
pub fn check_fleet(report: &FleetReport) -> Result<(), String> {
    let s = &report.summary;
    if !s.all_members_agree {
        return Err(format!(
            "only {} of {} members agree with their known profile",
            s.agreeing_members, s.members
        ));
    }
    if !s.all_fixed_cad_bracketed {
        return Err(format!(
            "only {} of {} fixed-CAD members are bracketed",
            s.fixed_cad_bracketed, s.fixed_cad_members
        ));
    }
    Ok(())
}

/// Digest of a rendered report: FNV-1a over the JSON, then the CSV.
pub fn report_digest(json: &str, csv: &str) -> u64 {
    fnv1a(&[json.as_bytes(), csv.as_bytes()])
}

/// The report digest each workload must produce at
/// [`crate::workloads::DEFAULT_SEED`] and full scale.
pub fn pinned_digest(workload: Workload) -> u64 {
    match workload {
        Workload::CampaignSim => 0x3d22_e6bb_81fe_733c,
        Workload::CampaignFastpath => 0xbbd7_2e73_2170_4268,
        Workload::FleetPopulation => 0x9570_d434_0118_5e94,
    }
}
