//! Campaign reports: deterministic JSON / CSV / text renderings of the
//! folded cells plus the Table-2 style feature roll-up, the optional
//! inference section, and report-to-report diffing.

use lazyeye_infer::{fmt_opt, push_delta, FieldDelta, Verdict};
use lazyeye_json::{FromJson, Json, JsonError, ToJson};
use lazyeye_testbed::Table;

use crate::aggregate::{CellReport, FeatureSummary};
use crate::inference::InferenceSection;

/// The complete result of one campaign. Contains nothing dependent on
/// worker count or wall-clock time, so a `(spec, seed)` pair renders to
/// byte-identical output at any `--jobs`.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    /// Campaign name (from the spec).
    pub name: String,
    /// Campaign seed.
    pub seed: u64,
    /// Total runs executed (both passes).
    pub total_runs: u64,
    /// Runs scheduled by the second, fine refinement pass (included in
    /// `total_runs`).
    pub refined_runs: u64,
    /// Folded per-cell summaries, sorted by (case, subject, condition).
    pub cells: Vec<CellReport>,
    /// The Table-2 style feature matrix derived from the cells.
    pub features: Vec<FeatureSummary>,
    /// The inference section (`--classify`): changepoint-derived profiles,
    /// RFC 8305 verdicts, and the agreement diff against `features`.
    pub inference: Option<InferenceSection>,
}

lazyeye_json::impl_json_struct!(CampaignReport {
    name,
    seed,
    total_runs,
    refined_runs,
    cells,
    features,
    inference,
});

/// The fixed CSV column set, shared by header and rows.
const CSV_COLUMNS: [&str; 17] = [
    "case",
    "subject",
    "condition",
    "runs",
    "ok_runs",
    "v6_share_pct",
    "last_v6_delay_ms",
    "first_v4_delay_ms",
    "delay_ms_min",
    "delay_ms_median",
    "delay_ms_p95",
    "implements_cad",
    "implements_rd",
    "aaaa_first",
    "v6_addrs_used",
    "v4_addrs_used",
    "max_v6_packets",
];

impl CampaignReport {
    /// Pretty JSON rendering.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.to_json_into(&mut out);
        out
    }

    /// Pretty JSON rendering appended to a reusable caller buffer — the
    /// CLI renders one report to stdout *and* to `--out` files, and the
    /// periodic checkpoint saver re-renders every few dozen runs; both
    /// now reuse one allocation instead of rebuilding the string.
    pub fn to_json_into(&self, out: &mut String) {
        ToJson::to_json(self).write_pretty_into(out);
        out.push('\n');
    }

    /// Parses a report back from its JSON rendering (reports without an
    /// `inference` key — pre-classify archives — parse with `None`).
    pub fn from_json_str(s: &str) -> Result<CampaignReport, JsonError> {
        FromJson::from_json(&Json::parse(s)?)
    }

    /// CSV rendering of the cells (one row per cell; `-` for
    /// not-applicable columns).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        self.to_csv_into(&mut out);
        out
    }

    /// CSV rendering appended to a reusable caller buffer.
    pub fn to_csv_into(&self, out: &mut String) {
        out.reserve(64 + self.cells.len() * 128);
        out.push_str(&CSV_COLUMNS.join(","));
        out.push('\n');
        for c in &self.cells {
            let row = [
                c.case.clone(),
                c.subject.clone(),
                c.condition.clone(),
                c.runs.to_string(),
                c.ok_runs.to_string(),
                fmt_opt(&c.v6_share_pct),
                fmt_opt(&c.last_v6_delay_ms),
                fmt_opt(&c.first_v4_delay_ms),
                fmt_opt(&c.delay_ms_min),
                fmt_opt(&c.delay_ms_median),
                fmt_opt(&c.delay_ms_p95),
                fmt_opt(&c.implements_cad),
                fmt_opt(&c.implements_rd),
                fmt_opt(&c.aaaa_first),
                fmt_opt(&c.v6_addrs_used),
                fmt_opt(&c.v4_addrs_used),
                fmt_opt(&c.max_v6_packets),
            ];
            // Subjects/conditions are ids without commas or quotes, but
            // quote defensively anyway.
            lazyeye_json::push_csv_row(out, &row);
        }
    }

    /// Human-readable summary: one table per case family present, plus
    /// the feature matrix.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "campaign {:?}: seed {}, {} runs ({} refined), {} cells\n\n",
            self.name,
            self.seed,
            self.total_runs,
            self.refined_runs,
            self.cells.len()
        );
        for case in ["cad", "rd", "selection", "resolver"] {
            let cells: Vec<&CellReport> = self.cells.iter().filter(|c| c.case == case).collect();
            if cells.is_empty() {
                continue;
            }
            let mut t = match case {
                "cad" => Table::new(
                    "CAD (switchover by client × condition)",
                    vec![
                        "client",
                        "condition",
                        "runs",
                        "ok",
                        "last v6",
                        "first v4",
                        "CAD med",
                        "CAD p95",
                        "AAAA 1st",
                    ],
                ),
                "rd" => Table::new(
                    "Resolution Delay (by client × delayed record)",
                    vec![
                        "client",
                        "record",
                        "runs",
                        "ok",
                        "RD impl",
                        "stall med",
                        "stall p95",
                    ],
                ),
                "selection" => Table::new(
                    "Address selection (dead addresses by client)",
                    vec!["client", "runs", "v6 used", "v4 used"],
                ),
                _ => Table::new(
                    "Resolvers (IPv6 usage by profile)",
                    vec![
                        "resolver",
                        "runs",
                        "ok",
                        "v6 share %",
                        "max v6 delay",
                        "per-try med",
                        "max v6 pkts",
                    ],
                ),
            };
            for c in cells {
                let row = match case {
                    "cad" => vec![
                        c.subject.clone(),
                        c.condition.clone(),
                        c.runs.to_string(),
                        c.ok_runs.to_string(),
                        fmt_opt(&c.last_v6_delay_ms),
                        fmt_opt(&c.first_v4_delay_ms),
                        fmt_opt(&c.delay_ms_median),
                        fmt_opt(&c.delay_ms_p95),
                        fmt_opt(&c.aaaa_first),
                    ],
                    "rd" => vec![
                        c.subject.clone(),
                        c.condition.clone(),
                        c.runs.to_string(),
                        c.ok_runs.to_string(),
                        fmt_opt(&c.implements_rd),
                        fmt_opt(&c.delay_ms_median),
                        fmt_opt(&c.delay_ms_p95),
                    ],
                    "selection" => vec![
                        c.subject.clone(),
                        c.runs.to_string(),
                        fmt_opt(&c.v6_addrs_used),
                        fmt_opt(&c.v4_addrs_used),
                    ],
                    _ => vec![
                        c.subject.clone(),
                        c.runs.to_string(),
                        c.ok_runs.to_string(),
                        fmt_opt(&c.v6_share_pct),
                        fmt_opt(&c.last_v6_delay_ms),
                        fmt_opt(&c.delay_ms_median),
                        fmt_opt(&c.max_v6_packets),
                    ],
                };
                t.row(row);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        if !self.features.is_empty() {
            let mut t = Table::new(
                "Feature matrix (Table 2 roll-up)",
                vec![
                    "client",
                    "prefers v6",
                    "CAD",
                    "AAAA 1st",
                    "RD",
                    "v6 addrs",
                    "v4 addrs",
                    "selection",
                ],
            );
            for f in &self.features {
                t.row(vec![
                    f.client.clone(),
                    yn(f.prefers_v6),
                    yn(f.cad_impl),
                    yn(f.aaaa_first),
                    yn(f.rd_impl),
                    f.v6_addrs_used.to_string(),
                    f.v4_addrs_used.to_string(),
                    yn(f.addr_selection),
                ]);
            }
            out.push_str(&t.render());
        }
        if let Some(inference) = &self.inference {
            out.push('\n');
            out.push_str(&inference.render_text());
        }
        out
    }
}

impl InferenceSection {
    /// Text rendering of the inference section: inferred parameters, the
    /// conformance matrix, deviation reasons, and the agreement line.
    pub fn render_text(&self) -> String {
        render_inference(self)
    }

    /// Pretty JSON rendering.
    pub fn to_json(&self) -> String {
        let mut out = ToJson::to_json(self).to_string_pretty();
        out.push('\n');
        out
    }
}

/// Text rendering of the inference section: inferred parameters, the
/// conformance matrix, deviation reasons, and the agreement line.
fn render_inference(section: &InferenceSection) -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "Inferred profiles (changepoint over the sweep grid)",
        vec![
            "client", "CAD est", "last v6", "first v4", "misfits", "RD", "stalls", "sorting",
        ],
    );
    for p in &section.profiles {
        let prof = &p.profile;
        t.row(vec![
            prof.subject.clone(),
            fmt_opt(&prof.cad.estimate_ms),
            fmt_opt(&prof.cad.last_v6_delay_ms),
            fmt_opt(&prof.cad.first_v4_delay_ms),
            prof.cad.misfits.to_string(),
            fmt_opt(&prof.rd.implemented),
            fmt_opt(&prof.rd.waits_for_all_answers),
            format!("{:?}", prof.sorting),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    if let Some(first) = section.profiles.first() {
        let mut columns = vec!["client".to_string()];
        columns.extend(first.conformance.iter().map(|e| e.feature.clone()));
        let mut t = Table::new(
            "RFC 8305 conformance",
            columns.iter().map(String::as_str).collect(),
        );
        for p in &section.profiles {
            let mut row = vec![p.profile.subject.clone()];
            row.extend(p.conformance.iter().map(|e| {
                match e.verdict {
                    Verdict::Conformant => "ok",
                    Verdict::Deviates => "DEV",
                    Verdict::Unmeasurable => "-",
                }
                .to_string()
            }));
            t.row(row);
        }
        out.push_str(&t.render());
        let mut any = false;
        for p in &section.profiles {
            for e in &p.conformance {
                if e.verdict == Verdict::Deviates {
                    if !any {
                        out.push_str("\ndeviations:\n");
                        any = true;
                    }
                    out.push_str(&format!(
                        "  {} {}: {}\n",
                        p.profile.subject,
                        e.feature,
                        e.render()
                    ));
                }
            }
        }
    }

    if section.matrix_agrees {
        out.push_str("\ninference vs summary feature matrix: agree\n");
    } else {
        out.push_str("\ninference vs summary feature matrix: DISAGREE\n");
        for d in &section.disagreements {
            out.push_str(&format!("  {d}\n"));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Report diffing
// ---------------------------------------------------------------------------

/// Per-cell and per-feature differences between two campaign reports —
/// `lazyeye campaign --diff old.json new.json`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReportDiff {
    /// Cell keys (`case/subject/condition`) present only in the new
    /// report.
    pub added_cells: Vec<String>,
    /// Cell keys present only in the old report.
    pub removed_cells: Vec<String>,
    /// Field-level changes of cells present in both.
    pub changed: Vec<FieldDelta>,
    /// Field-level changes of the feature matrix.
    pub feature_changes: Vec<FieldDelta>,
}

lazyeye_json::impl_json_struct!(ReportDiff {
    added_cells,
    removed_cells,
    changed,
    feature_changes,
});

impl ReportDiff {
    /// `true` when the reports describe identical behaviour.
    pub fn is_empty(&self) -> bool {
        self.added_cells.is_empty()
            && self.removed_cells.is_empty()
            && self.changed.is_empty()
            && self.feature_changes.is_empty()
    }

    /// Human-readable rendering.
    pub fn render_text(&self) -> String {
        if self.is_empty() {
            return "no behaviour changes\n".to_string();
        }
        let mut out = String::new();
        for k in &self.removed_cells {
            out.push_str(&format!("- cell {k}\n"));
        }
        for k in &self.added_cells {
            out.push_str(&format!("+ cell {k}\n"));
        }
        for d in &self.changed {
            out.push_str(&format!("~ {d}\n"));
        }
        for d in &self.feature_changes {
            out.push_str(&format!("~ feature {d}\n"));
        }
        out
    }

    /// Pretty JSON rendering.
    pub fn to_json(&self) -> String {
        let mut out = ToJson::to_json(self).to_string_pretty();
        out.push('\n');
        out
    }
}

fn cell_key(c: &CellReport) -> String {
    format!("{}/{}/{}", c.case, c.subject, c.condition)
}

fn diff_cells(key: &str, old: &CellReport, new: &CellReport, out: &mut Vec<FieldDelta>) {
    let mut field = |name: &str, o: String, n: String| {
        push_delta(out, format!("{key}.{name}"), o, n);
    };
    field("runs", old.runs.to_string(), new.runs.to_string());
    field("ok_runs", old.ok_runs.to_string(), new.ok_runs.to_string());
    field(
        "v6_share_pct",
        fmt_opt(&old.v6_share_pct),
        fmt_opt(&new.v6_share_pct),
    );
    field(
        "last_v6_delay_ms",
        fmt_opt(&old.last_v6_delay_ms),
        fmt_opt(&new.last_v6_delay_ms),
    );
    field(
        "first_v4_delay_ms",
        fmt_opt(&old.first_v4_delay_ms),
        fmt_opt(&new.first_v4_delay_ms),
    );
    field(
        "delay_ms_median",
        fmt_opt(&old.delay_ms_median),
        fmt_opt(&new.delay_ms_median),
    );
    field(
        "implements_cad",
        fmt_opt(&old.implements_cad),
        fmt_opt(&new.implements_cad),
    );
    field(
        "implements_rd",
        fmt_opt(&old.implements_rd),
        fmt_opt(&new.implements_rd),
    );
    field(
        "aaaa_first",
        fmt_opt(&old.aaaa_first),
        fmt_opt(&new.aaaa_first),
    );
    field(
        "v6_addrs_used",
        fmt_opt(&old.v6_addrs_used),
        fmt_opt(&new.v6_addrs_used),
    );
    field(
        "v4_addrs_used",
        fmt_opt(&old.v4_addrs_used),
        fmt_opt(&new.v4_addrs_used),
    );
    field(
        "max_v6_packets",
        fmt_opt(&old.max_v6_packets),
        fmt_opt(&new.max_v6_packets),
    );
}

/// Diffs two campaign reports cell by cell and feature by feature,
/// surfacing behaviour changes between client/resolver versions or
/// campaign configurations.
pub fn diff_reports(old: &CampaignReport, new: &CampaignReport) -> ReportDiff {
    let mut diff = ReportDiff::default();
    for c in &new.cells {
        if !old.cells.iter().any(|o| cell_key(o) == cell_key(c)) {
            diff.added_cells.push(cell_key(c));
        }
    }
    for c in &old.cells {
        match new.cells.iter().find(|n| cell_key(n) == cell_key(c)) {
            None => diff.removed_cells.push(cell_key(c)),
            Some(n) => diff_cells(&cell_key(c), c, n, &mut diff.changed),
        }
    }
    for f in &old.features {
        let Some(n) = new.features.iter().find(|n| n.client == f.client) else {
            continue;
        };
        let mut field = |name: &str, o: String, nv: String| {
            push_delta(
                &mut diff.feature_changes,
                format!("{}.{name}", f.client),
                o,
                nv,
            );
        };
        field(
            "prefers_v6",
            f.prefers_v6.to_string(),
            n.prefers_v6.to_string(),
        );
        field("cad_impl", f.cad_impl.to_string(), n.cad_impl.to_string());
        field(
            "aaaa_first",
            f.aaaa_first.to_string(),
            n.aaaa_first.to_string(),
        );
        field("rd_impl", f.rd_impl.to_string(), n.rd_impl.to_string());
        field(
            "v6_addrs_used",
            f.v6_addrs_used.to_string(),
            n.v6_addrs_used.to_string(),
        );
        field(
            "v4_addrs_used",
            f.v4_addrs_used.to_string(),
            n.v4_addrs_used.to_string(),
        );
        field(
            "addr_selection",
            f.addr_selection.to_string(),
            n.addr_selection.to_string(),
        );
    }
    diff
}

fn yn(v: bool) -> String {
    if v {
        "yes".into()
    } else {
        "no".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> CampaignReport {
        CampaignReport {
            name: "t".into(),
            seed: 1,
            total_runs: 1,
            refined_runs: 0,
            cells: vec![CellReport {
                case: "cad".into(),
                subject: "chrome-130.0".into(),
                condition: "baseline".into(),
                runs: 1,
                ok_runs: 1,
                v6_share_pct: Some(100.0),
                last_v6_delay_ms: Some(300),
                first_v4_delay_ms: Some(320),
                delay_ms_min: Some(299.5),
                delay_ms_median: Some(300.0),
                delay_ms_p95: Some(301.25),
                implements_cad: Some(true),
                implements_rd: None,
                aaaa_first: Some(true),
                v6_addrs_used: None,
                v4_addrs_used: None,
                max_v6_packets: None,
            }],
            features: vec![],
            inference: None,
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = tiny_report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("case,subject,condition,"));
        assert!(lines[1].contains("chrome-130.0"));
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "header/row column mismatch"
        );
    }

    #[test]
    fn json_parses_back() {
        let r = tiny_report();
        let v = lazyeye_json::Json::parse(&r.to_json()).unwrap();
        assert_eq!(v["name"], "t");
        assert_eq!(v["cells"][0]["subject"], "chrome-130.0");
        assert_eq!(v["cells"][0]["first_v4_delay_ms"].as_u64(), Some(320));
    }

    #[test]
    fn text_rendering_mentions_cells() {
        let text = tiny_report().render_text();
        assert!(text.contains("chrome-130.0"));
        assert!(text.contains("CAD"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes_in_conditions() {
        // A netem label is free-form text; commas and quotes must not
        // break the row structure.
        let mut report = tiny_report();
        report.cells[0].condition = "lossy, 10% \"burst\"".into();
        report.cells[0].subject = "plain".into();
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(
            lines[1].contains(r#""lossy, 10% ""burst""""#),
            "quoted+doubled, got: {}",
            lines[1]
        );
        // Unquoting the row restores the original cell and keeps the
        // column count aligned with the header.
        let mut fields = Vec::new();
        let mut rest = lines[1];
        while !rest.is_empty() {
            if let Some(stripped) = rest.strip_prefix('"') {
                let end = stripped.find("\",").unwrap_or(stripped.len() - 1);
                fields.push(stripped[..end].replace("\"\"", "\""));
                rest = stripped.get(end + 2..).unwrap_or("");
            } else {
                let end = rest.find(',').unwrap_or(rest.len());
                fields.push(rest[..end].to_string());
                rest = rest.get(end + 1..).unwrap_or("");
            }
        }
        assert_eq!(fields.len(), lines[0].split(',').count());
        assert_eq!(fields[2], "lossy, 10% \"burst\"");
    }

    #[test]
    fn csv_leaves_plain_cells_unquoted() {
        let csv = tiny_report().to_csv();
        assert!(!csv.contains('"'), "no spurious quoting: {csv}");
    }

    #[test]
    fn report_json_parses_back_including_missing_inference() {
        let r = tiny_report();
        let back = CampaignReport::from_json_str(&r.to_json()).unwrap();
        assert_eq!(back, r);
        // Pre-classify archives have no "inference" key at all.
        let legacy = r.to_json().replace(",\n  \"inference\": null", "");
        assert!(!legacy.contains("inference"));
        let back = CampaignReport::from_json_str(&legacy).unwrap();
        assert_eq!(back.inference, None);
        assert_eq!(back.cells, r.cells);
    }

    #[test]
    fn diff_reports_finds_cell_and_feature_changes() {
        let old = tiny_report();
        let mut new = old.clone();
        assert!(diff_reports(&old, &new).is_empty());

        new.cells[0].first_v4_delay_ms = Some(205);
        new.cells[0].implements_cad = Some(true);
        new.cells.push(CellReport {
            subject: "firefox-132.0".into(),
            ..old.cells[0].clone()
        });
        let diff = diff_reports(&old, &new);
        assert_eq!(diff.added_cells, vec!["cad/firefox-132.0/baseline"]);
        assert!(diff.removed_cells.is_empty());
        let d = diff
            .changed
            .iter()
            .find(|d| d.field == "cad/chrome-130.0/baseline.first_v4_delay_ms")
            .unwrap();
        assert_eq!((d.old.as_str(), d.new.as_str()), ("320", "205"));
        let text = diff.render_text();
        assert!(text.contains("+ cell cad/firefox-132.0/baseline"), "{text}");
        assert!(text.contains("first_v4_delay_ms: 320 -> 205"), "{text}");

        // A removed cell shows up from the old side.
        let gone = diff_reports(&new, &old);
        assert_eq!(gone.removed_cells, vec!["cad/firefox-132.0/baseline"]);
    }
}
