//! The three workloads and their input generators.
//!
//! Every input is the spec JSON text the program loads, and every
//! generator is a pure function of `(seed, scale)`: the seed becomes the
//! campaign or fleet seed, from which the program derives every per-run
//! seed. The matrix itself is fixed, so each seed costs the same work.

use lazyeye_campaign::{CampaignSpec, NetemSpec, RdPlan, SelectionPlan};
use lazyeye_fleet::FleetSpec;
use lazyeye_testbed::{CadCaseConfig, DelayedRecord, ResolverCaseConfig, SweepSpec};

/// The seed at which report digests are pinned.
pub const DEFAULT_SEED: u64 = 42;

/// Shard partials the fast-path campaign's first pass is split into when
/// the traced run measures checkpoint parsing and merging.
pub const MERGE_SHARDS: u64 = 4;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Short fully simulated runs over all 24 clients, two netem
    /// conditions and every resolver, on two pool workers.
    CampaignSim,
    /// Dense CAD/RD sweeps on the analytic fast path, classified.
    CampaignFastpath,
    /// The full Table 5 fleet: a few long sessions per member.
    FleetPopulation,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CampaignSim,
        Workload::CampaignFastpath,
        Workload::FleetPopulation,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignSim => "campaign-sim",
            Workload::CampaignFastpath => "campaign-fastpath",
            Workload::FleetPopulation => "fleet-population",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pool workers the workload runs on.
    pub fn jobs(self) -> usize {
        match self {
            Workload::CampaignSim => 2,
            _ => 1,
        }
    }
}

/// Input size: `Full` is what the benchmark measures, `Small` a cut-down
/// matrix of the same shape for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured matrix.
    Full,
    /// A few clients and coarse sweeps.
    Small,
}

/// Clients of the small campaigns: one per fixed CAD, a CAD-less client,
/// and both RD implementers (Safari and the HEv3-flag Chromium).
const SMALL_CLIENTS: [&str; 6] = [
    "chrome-130.0",
    "firefox-132.0",
    "curl-7.88.1",
    "wget-1.21.3",
    "safari-17.6",
    "chromium-(hev3-flag)-130.0",
];

fn clients(scale: Scale) -> Vec<String> {
    match scale {
        Scale::Full => Vec::new(),
        Scale::Small => SMALL_CLIENTS.iter().map(|c| c.to_string()).collect(),
    }
}

/// `campaign-sim`: every client × {baseline, lossy}; CAD 0–400/20 × 2,
/// RD on both records 0–400/50 × 2, the default selection block, every
/// resolver 0–800/100 × 4, 5 ms refinement.
pub fn campaign_sim_spec(seed: u64, scale: Scale) -> CampaignSpec {
    let full = scale == Scale::Full;
    CampaignSpec {
        name: "perfbench-campaign-sim".to_string(),
        seed,
        clients: clients(scale),
        resolvers: if full {
            Vec::new()
        } else {
            vec!["BIND".to_string(), "Unbound".to_string()]
        },
        netem: vec![
            NetemSpec::baseline(),
            NetemSpec {
                label: "lossy".to_string(),
                loss_pct: 5.0,
                jitter_ms: 5,
                duplicate_pct: 1.0,
            },
        ],
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(0, 400, if full { 20 } else { 50 }),
            repetitions: if full { 2 } else { 1 },
        }),
        rd: Some(RdPlan {
            records: vec![DelayedRecord::Aaaa, DelayedRecord::A],
            sweep: SweepSpec::new(0, 400, if full { 50 } else { 100 }),
            repetitions: if full { 2 } else { 1 },
        }),
        selection: Some(SelectionPlan::default()),
        resolver: Some(ResolverCaseConfig {
            sweep: SweepSpec::new(0, 800, if full { 100 } else { 400 }),
            repetitions: if full { 4 } else { 1 },
        }),
        refine_step_ms: Some(5),
    }
}

/// `campaign-fastpath`: every client on the baseline path; CAD 0–400/2 × 5, RD on both
/// records 0–400/5 × 3, 1 ms refinement.
pub fn campaign_fastpath_spec(seed: u64, scale: Scale) -> CampaignSpec {
    let full = scale == Scale::Full;
    CampaignSpec {
        name: "perfbench-campaign-fastpath".to_string(),
        seed,
        clients: clients(scale),
        resolvers: Vec::new(),
        netem: vec![NetemSpec::baseline()],
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(0, 400, if full { 2 } else { 20 }),
            repetitions: if full { 5 } else { 1 },
        }),
        rd: Some(RdPlan {
            records: vec![DelayedRecord::Aaaa, DelayedRecord::A],
            sweep: SweepSpec::new(0, 400, if full { 5 } else { 50 }),
            repetitions: if full { 3 } else { 1 },
        }),
        selection: None,
        resolver: None,
        refine_step_ms: Some(1),
    }
}

/// `fleet-population`: the Table 5 population × the default `home` and
/// `dsl` conditions; 3 CAD, 2 RD and 1 delayed-A session per member and
/// 2 checks per resolver stack.
pub fn fleet_spec(seed: u64, scale: Scale) -> FleetSpec {
    FleetSpec {
        name: "perfbench-fleet-population".to_string(),
        seed,
        population: match scale {
            Scale::Full => Vec::new(),
            Scale::Small => vec![
                "chrome-130.0.0".to_string(),
                "firefox-132.0".to_string(),
                "safari-17.6".to_string(),
            ],
        },
        cad_sessions: 3,
        rd_sessions: 2,
        rd_a_sessions: 1,
        resolver_checks: 2,
        ..FleetSpec::default()
    }
}

/// The spec JSON text a workload loads.
pub fn spec_text(workload: Workload, seed: u64, scale: Scale) -> String {
    match workload {
        Workload::CampaignSim => campaign_sim_spec(seed, scale).to_json(),
        Workload::CampaignFastpath => campaign_fastpath_spec(seed, scale).to_json(),
        Workload::FleetPopulation => fleet_spec(seed, scale).to_json(),
    }
}
