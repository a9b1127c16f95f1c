//! The streaming aggregator: folds per-run outputs into per-cell
//! summaries without ever buffering raw samples.
//!
//! Each run arrives as a small [`RunOutput`] (the worker already reduced
//! the packet capture); the aggregator folds it into its cell's
//! accumulator — exact min/max/mean plus P² streaming estimates for the
//! median and p95 (Jain & Chlamtac, CACM 1985). The fold happens in run-
//! index order, so every estimate is a pure function of the spec and the
//! campaign seed: `--jobs 1` and `--jobs 8` produce byte-identical
//! reports.

use std::collections::BTreeMap;

use lazyeye_net::Family;

use crate::executor::RunOutput;
use crate::plan::{RunKind, RunSpec};

// ---------------------------------------------------------------------------
// Streaming statistics
// ---------------------------------------------------------------------------

/// P² single-quantile estimator: five markers, O(1) memory, deterministic
/// for a fixed observation order.
#[derive(Clone, Debug)]
pub struct P2Quantile {
    p: f64,
    count: u64,
    q: [f64; 5],
    pos: [f64; 5],
    desired: [f64; 5],
    incr: [f64; 5],
}

impl P2Quantile {
    /// An estimator for quantile `p` (e.g. `0.5`, `0.95`).
    pub fn new(p: f64) -> P2Quantile {
        assert!((0.0..=1.0).contains(&p), "quantile must be in [0,1]");
        P2Quantile {
            p,
            count: 0,
            q: [0.0; 5],
            pos: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            incr: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
        }
    }

    /// Observations folded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds one observation.
    pub fn observe(&mut self, x: f64) {
        if self.count < 5 {
            self.q[self.count as usize] = x;
            self.count += 1;
            if self.count == 5 {
                self.q
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            }
            return;
        }
        self.count += 1;
        // Locate the marker cell and update extremes.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if self.q[i] <= x && x < self.q[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };
        for i in (k + 1)..5 {
            self.pos[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.incr[i];
        }
        // Adjust the three middle markers towards their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.pos[i];
            if (d >= 1.0 && self.pos[i + 1] - self.pos[i] > 1.0)
                || (d <= -1.0 && self.pos[i - 1] - self.pos[i] < -1.0)
            {
                let d = d.signum();
                let parabolic = self.q[i]
                    + d / (self.pos[i + 1] - self.pos[i - 1])
                        * ((self.pos[i] - self.pos[i - 1] + d) * (self.q[i + 1] - self.q[i])
                            / (self.pos[i + 1] - self.pos[i])
                            + (self.pos[i + 1] - self.pos[i] - d) * (self.q[i] - self.q[i - 1])
                                / (self.pos[i] - self.pos[i - 1]));
                self.q[i] = if self.q[i - 1] < parabolic && parabolic < self.q[i + 1] {
                    parabolic
                } else {
                    // Linear fallback keeps markers monotone.
                    let j = if d > 0.0 { i + 1 } else { i - 1 };
                    self.q[i] + d * (self.q[j] - self.q[i]) / (self.pos[j] - self.pos[i])
                };
                self.pos[i] += d;
            }
        }
    }

    /// The current estimate; exact for fewer than five observations.
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n @ 1..=4 => {
                let mut head = self.q[..n as usize].to_vec();
                head.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
                let rank = (self.p * (n as f64 - 1.0)).round() as usize;
                Some(head[rank.min(head.len() - 1)])
            }
            _ => Some(self.q[2]),
        }
    }
}

/// Exact count/min/max/mean plus streaming median and p95.
#[derive(Clone, Debug)]
pub struct StreamStats {
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
    median: P2Quantile,
    p95: P2Quantile,
}

impl Default for StreamStats {
    fn default() -> StreamStats {
        StreamStats {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            median: P2Quantile::new(0.5),
            p95: P2Quantile::new(0.95),
        }
    }
}

impl StreamStats {
    /// Folds one observation.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.sum += x;
        self.median.observe(x);
        self.p95.observe(x);
    }

    /// Observations folded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Minimum, if any samples arrived.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum, if any samples arrived.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean, if any samples arrived.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.sum / self.count as f64)
    }

    /// Streaming median estimate.
    pub fn median(&self) -> Option<f64> {
        self.median.estimate()
    }

    /// Streaming p95 estimate.
    pub fn p95(&self) -> Option<f64> {
        self.p95.estimate()
    }
}

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

/// One row of the campaign report: a fully folded cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellReport {
    /// Case family: `"cad"`, `"rd"`, `"selection"` or `"resolver"`.
    pub case: String,
    /// Client id or resolver name.
    pub subject: String,
    /// Second axis: netem label (CAD), delayed record (RD), `"-"` else.
    pub condition: String,
    /// Runs folded into this cell.
    pub runs: u64,
    /// Runs that established a connection / resolved successfully.
    pub ok_runs: u64,
    /// Share of runs won by IPv6 at the cell's *smallest* configured
    /// delay (%) — pure preference when the sweep includes delay 0.
    pub v6_share_pct: Option<f64>,
    /// Largest configured delay still won by IPv6 (ms).
    pub last_v6_delay_ms: Option<u64>,
    /// Smallest configured delay at which IPv4 was used (ms).
    pub first_v4_delay_ms: Option<u64>,
    /// Min of the per-run delay observable (ms) — capture CAD for CAD
    /// cells, first-SYN stall for RD cells, retry gap / fallback delay
    /// for resolver cells.
    pub delay_ms_min: Option<f64>,
    /// Streaming median of the per-run delay observable (ms).
    pub delay_ms_median: Option<f64>,
    /// Streaming p95 of the per-run delay observable (ms).
    pub delay_ms_p95: Option<f64>,
    /// Whether fallback to IPv4 was ever observed (CAD cells).
    pub implements_cad: Option<bool>,
    /// Whether the RD timer was ever armed (RD cells).
    pub implements_rd: Option<bool>,
    /// Majority verdict on AAAA-before-A query order (CAD cells).
    pub aaaa_first: Option<bool>,
    /// Maximum distinct IPv6 addresses attempted (selection cells).
    pub v6_addrs_used: Option<u64>,
    /// Maximum distinct IPv4 addresses attempted (selection cells).
    pub v4_addrs_used: Option<u64>,
    /// Maximum IPv6 queries observed in one resolution (resolver cells).
    pub max_v6_packets: Option<u64>,
}

lazyeye_json::impl_json_struct!(CellReport {
    case,
    subject,
    condition,
    runs,
    ok_runs,
    v6_share_pct,
    last_v6_delay_ms,
    first_v4_delay_ms,
    delay_ms_min,
    delay_ms_median,
    delay_ms_p95,
    implements_cad,
    implements_rd,
    aaaa_first,
    v6_addrs_used,
    v4_addrs_used,
    max_v6_packets,
});

/// One row of the campaign's Table-2 style feature matrix roll-up.
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureSummary {
    /// Client id.
    pub client: String,
    /// Prefers IPv6 on a healthy dual-stack path.
    pub prefers_v6: bool,
    /// Implements a Connection Attempt Delay.
    pub cad_impl: bool,
    /// Sends AAAA before A.
    pub aaaa_first: bool,
    /// Implements the Resolution Delay.
    pub rd_impl: bool,
    /// Distinct IPv6 addresses attempted in the selection test.
    pub v6_addrs_used: u64,
    /// Distinct IPv4 addresses attempted in the selection test.
    pub v4_addrs_used: u64,
    /// Goes beyond one address per family (real address selection).
    pub addr_selection: bool,
}

lazyeye_json::impl_json_struct!(FeatureSummary {
    client,
    prefers_v6,
    cad_impl,
    aaaa_first,
    rd_impl,
    v6_addrs_used,
    v4_addrs_used,
    addr_selection,
});

#[derive(Clone, Debug, Default)]
struct CellAccum {
    runs: u64,
    ok_runs: u64,
    min_delay_seen: Option<u64>,
    min_delay_runs: u64,
    min_delay_v6: u64,
    last_v6_delay_ms: Option<u64>,
    first_v4_delay_ms: Option<u64>,
    delay_stats: Option<StreamStats>,
    used_rd: bool,
    aaaa_first_known: u64,
    aaaa_first_true: u64,
    v6_addrs_used: Option<u64>,
    v4_addrs_used: Option<u64>,
    max_v6_packets: Option<u64>,
}

impl CellAccum {
    fn observe_delay(&mut self, x: f64) {
        self.delay_stats
            .get_or_insert_with(StreamStats::default)
            .observe(x);
    }

    /// Tracks the IPv6 share at the *smallest* configured delay in the
    /// cell — the pure-preference observable (delay 0 when the sweep
    /// includes it).
    fn observe_preference(&mut self, delay_ms: u64, v6: bool) {
        match self.min_delay_seen {
            Some(d) if delay_ms > d => return,
            Some(d) if delay_ms < d => {
                self.min_delay_seen = Some(delay_ms);
                self.min_delay_runs = 0;
                self.min_delay_v6 = 0;
            }
            None => self.min_delay_seen = Some(delay_ms),
            _ => {}
        }
        self.min_delay_runs += 1;
        if v6 {
            self.min_delay_v6 += 1;
        }
    }
}

/// Case-family rank used for report ordering.
fn case_rank(case: &str) -> u8 {
    match case {
        "cad" => 0,
        "rd" => 1,
        "selection" => 2,
        "resolver" => 3,
        _ => 4,
    }
}

/// The streaming aggregator. Feed it `(run, output)` pairs **in run-index
/// order** (the executor's output vector already is), then [`finish`].
///
/// [`finish`]: Aggregator::finish
#[derive(Default)]
pub struct Aggregator {
    cells: BTreeMap<(u8, String, String), CellAccum>,
    /// The cell the previous run folded into, held outside `cells` until
    /// a run of another cell arrives. Expansion lists each cell's runs
    /// back to back, so almost every run finds its cell here without
    /// building the cell's key.
    current: Option<((u8, String, String), CellAccum)>,
}

impl Aggregator {
    /// A fresh aggregator.
    pub fn new() -> Aggregator {
        Aggregator::default()
    }

    /// The accumulator of `kind`'s cell.
    fn cell(&mut self, kind: &RunKind) -> &mut CellAccum {
        let (rank, subject, condition) = (
            case_rank(kind.case()),
            kind.subject(),
            kind.cell_condition(),
        );
        let hit = matches!(&self.current,
            Some(((r, s, c), _)) if *r == rank && s == subject && condition == c.as_str());
        if !hit {
            let key = (rank, subject.to_string(), condition.to_string());
            let accum = self.cells.remove(&key).unwrap_or_default();
            if let Some((key, accum)) = self.current.replace((key, accum)) {
                self.cells.insert(key, accum);
            }
        }
        &mut self.current.as_mut().expect("current cell set above").1
    }

    /// Folds one run's output into its cell.
    pub fn fold(&mut self, run: &RunSpec, output: &RunOutput) {
        match (&run.kind, output) {
            (RunKind::Cad { delay_ms, .. }, RunOutput::Cad(s)) => {
                let cell = self.cell(&run.kind);
                cell.runs += 1;
                if s.family.is_some() {
                    cell.ok_runs += 1;
                }
                cell.observe_preference(*delay_ms, s.family == Some(Family::V6));
                match s.family {
                    Some(Family::V6) => {
                        cell.last_v6_delay_ms = Some(
                            cell.last_v6_delay_ms
                                .map_or(*delay_ms, |d| d.max(*delay_ms)),
                        );
                    }
                    Some(Family::V4) => {
                        cell.first_v4_delay_ms = Some(
                            cell.first_v4_delay_ms
                                .map_or(*delay_ms, |d| d.min(*delay_ms)),
                        );
                    }
                    None => {}
                }
                if let Some(cad) = s.observed_cad_ms {
                    cell.observe_delay(cad);
                }
                if let Some(af) = s.aaaa_first {
                    cell.aaaa_first_known += 1;
                    if af {
                        cell.aaaa_first_true += 1;
                    }
                }
            }
            (RunKind::Rd { delay_ms, .. }, RunOutput::Rd(s)) => {
                let cell = self.cell(&run.kind);
                cell.runs += 1;
                if s.family.is_some() {
                    cell.ok_runs += 1;
                }
                match s.family {
                    Some(Family::V6) => {
                        cell.last_v6_delay_ms = Some(
                            cell.last_v6_delay_ms
                                .map_or(*delay_ms, |d| d.max(*delay_ms)),
                        );
                    }
                    Some(Family::V4) => {
                        cell.first_v4_delay_ms = Some(
                            cell.first_v4_delay_ms
                                .map_or(*delay_ms, |d| d.min(*delay_ms)),
                        );
                    }
                    None => {}
                }
                if s.used_rd {
                    cell.used_rd = true;
                }
                if let Some(stall) = s.first_attempt_ms {
                    cell.observe_delay(stall);
                }
            }
            (RunKind::Selection { .. }, RunOutput::Selection(r)) => {
                let cell = self.cell(&run.kind);
                cell.runs += 1;
                if !r.order.is_empty() {
                    cell.ok_runs += 1;
                }
                let v6 = r.v6_used as u64;
                let v4 = r.v4_used as u64;
                cell.v6_addrs_used = Some(cell.v6_addrs_used.map_or(v6, |x| x.max(v6)));
                cell.v4_addrs_used = Some(cell.v4_addrs_used.map_or(v4, |x| x.max(v4)));
            }
            (RunKind::Resolver { delay_ms, .. }, RunOutput::Resolver(s)) => {
                let cell = self.cell(&run.kind);
                cell.runs += 1;
                if s.resolved {
                    cell.ok_runs += 1;
                }
                cell.observe_preference(*delay_ms, s.first_query_family == Some(Family::V6));
                if s.served_over_v6 {
                    cell.last_v6_delay_ms = Some(
                        cell.last_v6_delay_ms
                            .map_or(*delay_ms, |d| d.max(*delay_ms)),
                    );
                }
                if let Some(gap) = s.v6_retry_gap_ms.or(s.observed_cad_ms) {
                    cell.observe_delay(gap);
                }
                let pkts = s.v6_packets as u64;
                cell.max_v6_packets = Some(cell.max_v6_packets.map_or(pkts, |x| x.max(pkts)));
            }
            (kind, _) => panic!("run kind/output mismatch for {kind:?}"),
        }
    }

    /// Finalises all cells (sorted by case, subject, condition) and the
    /// feature-matrix roll-up.
    pub fn finish(mut self) -> (Vec<CellReport>, Vec<FeatureSummary>) {
        if let Some((key, accum)) = self.current.take() {
            self.cells.insert(key, accum);
        }
        let round3 = |x: f64| (x * 1000.0).round() / 1000.0;
        let cells: Vec<CellReport> = self
            .cells
            .iter()
            .map(|((rank, subject, condition), a)| {
                let case = match rank {
                    0 => "cad",
                    1 => "rd",
                    2 => "selection",
                    _ => "resolver",
                };
                let is_cad = *rank == 0;
                let is_rd = *rank == 1;
                let stats = a.delay_stats.as_ref();
                CellReport {
                    case: case.to_string(),
                    subject: subject.clone(),
                    condition: condition.clone(),
                    runs: a.runs,
                    ok_runs: a.ok_runs,
                    v6_share_pct: (a.min_delay_runs > 0)
                        .then(|| round3(100.0 * a.min_delay_v6 as f64 / a.min_delay_runs as f64)),
                    last_v6_delay_ms: a.last_v6_delay_ms,
                    first_v4_delay_ms: a.first_v4_delay_ms,
                    delay_ms_min: stats.and_then(|s| s.min()).map(round3),
                    delay_ms_median: stats.and_then(|s| s.median()).map(round3),
                    delay_ms_p95: stats.and_then(|s| s.p95()).map(round3),
                    implements_cad: is_cad.then(|| a.first_v4_delay_ms.is_some()),
                    implements_rd: is_rd.then_some(a.used_rd),
                    aaaa_first: (is_cad && a.aaaa_first_known > 0)
                        .then(|| a.aaaa_first_true * 2 > a.aaaa_first_known),
                    v6_addrs_used: a.v6_addrs_used,
                    v4_addrs_used: a.v4_addrs_used,
                    max_v6_packets: a.max_v6_packets,
                }
            })
            .collect();

        // Feature roll-up: one row per client that has a CAD cell, joined
        // with its RD (delayed-aaaa preferred) and selection cells.
        let mut features = Vec::new();
        let mut clients: Vec<&str> = cells
            .iter()
            .filter(|c| c.case == "cad")
            .map(|c| c.subject.as_str())
            .collect();
        clients.dedup();
        for client in clients {
            let cad = cells
                .iter()
                .find(|c| c.case == "cad" && c.subject == client && c.condition == "baseline")
                .or_else(|| {
                    cells
                        .iter()
                        .find(|c| c.case == "cad" && c.subject == client)
                });
            let rd = cells
                .iter()
                .find(|c| c.case == "rd" && c.subject == client && c.condition == "delayed-aaaa")
                .or_else(|| cells.iter().find(|c| c.case == "rd" && c.subject == client));
            let selection = cells
                .iter()
                .find(|c| c.case == "selection" && c.subject == client);
            let Some(cad) = cad else { continue };
            let v6_addrs = selection.and_then(|s| s.v6_addrs_used).unwrap_or(0);
            let v4_addrs = selection.and_then(|s| s.v4_addrs_used).unwrap_or(0);
            features.push(FeatureSummary {
                client: client.to_string(),
                prefers_v6: cad.v6_share_pct.is_some_and(|p| p >= 50.0),
                cad_impl: cad.implements_cad.unwrap_or(false),
                aaaa_first: cad.aaaa_first.unwrap_or(false),
                rd_impl: rd.and_then(|r| r.implements_rd).unwrap_or(false),
                v6_addrs_used: v6_addrs,
                v4_addrs_used: v4_addrs,
                addr_selection: v6_addrs > 1 || v4_addrs > 1,
            });
        }
        (cells, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2_matches_exact_quantiles_on_uniform_data() {
        // 1..=1000 in a shuffled-but-fixed order.
        let mut values: Vec<f64> = (1..=1000).map(|i| ((i * 617) % 1000 + 1) as f64).collect();
        let mut est = P2Quantile::new(0.5);
        for &v in &values {
            est.observe(v);
        }
        let median = est.estimate().unwrap();
        assert!((median - 500.0).abs() < 25.0, "median ≈ 500, got {median}");

        let mut p95 = P2Quantile::new(0.95);
        for &v in &values {
            p95.observe(v);
        }
        let v95 = p95.estimate().unwrap();
        assert!((v95 - 950.0).abs() < 40.0, "p95 ≈ 950, got {v95}");

        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(values.len(), 1000);
    }

    #[test]
    fn p2_small_n_is_exact() {
        let mut est = P2Quantile::new(0.5);
        assert_eq!(est.estimate(), None);
        est.observe(10.0);
        assert_eq!(est.estimate(), Some(10.0));
        est.observe(2.0);
        est.observe(30.0);
        assert_eq!(est.estimate(), Some(10.0), "exact median of {{2,10,30}}");
    }

    #[test]
    fn stream_stats_track_extremes() {
        let mut s = StreamStats::default();
        for v in [5.0, 1.0, 9.0, 3.0] {
            s.observe(v);
        }
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.mean(), Some(4.5));
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn fold_order_determines_estimates_not_thread_count() {
        // The aggregator is a pure fold: same inputs in the same order ⇒
        // identical state. (The executor guarantees index order.)
        use lazyeye_testbed::CadSample;
        let run = |seed: u64| RunSpec {
            index: 0,
            seed,
            kind: RunKind::Cad {
                client: "c".into(),
                netem: "baseline".into(),
                delay_ms: 100,
                rep: 0,
            },
            refined: false,
        };
        let sample = RunOutput::Cad(CadSample {
            configured_delay_ms: 100,
            rep: 0,
            family: Some(Family::V4),
            observed_cad_ms: Some(250.0),
            aaaa_first: Some(true),
        });
        let mut a = Aggregator::new();
        let mut b = Aggregator::new();
        for _ in 0..10 {
            a.fold(&run(1), &sample);
            b.fold(&run(1), &sample);
        }
        let (ca, _) = a.finish();
        let (cb, _) = b.finish();
        assert_eq!(ca, cb);
        assert_eq!(ca[0].first_v4_delay_ms, Some(100));
        assert_eq!(ca[0].delay_ms_median, Some(250.0));
    }
}
