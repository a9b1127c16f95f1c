//! # lazyeye-testbed — the local testbed framework
//!
//! The reimplementation of the paper's measurement framework (§4, App. B
//! Figure 3): standard [`topology`] setups (client + server on a direct
//! link; the resolver testbed), declarative [`cases`] configs with sweep
//! ranges and repetitions, [`runner`]s that execute a case with a fresh
//! simulation per run (the container-reset equivalent), capture-based
//! analyzers (the CAD estimator of §4.3), the Table 2 [`features`] matrix,
//! and result [`table`] rendering (text/CSV/JSON).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cases;
pub mod fastpath;
pub mod features;
pub mod runner;
pub mod table;
pub mod topology;

pub use cases::{
    CadCaseConfig, DelayedRecord, RdCaseConfig, ResolverCaseConfig, SelectionCaseConfig, SweepSpec,
    TestbedConfig,
};
pub use fastpath::{
    book_cell, book_run, run_cad_case_fast, run_rd_case_fast, CadFastPath, RdFastPath,
};
pub use features::{evaluate_client_features, FeatureRow};
pub use runner::{
    delayed_record_label, derive_case_seed, run_cad_case, run_cad_case_traced, run_cad_once,
    run_cad_once_traced, run_rd_case, run_rd_case_traced, run_rd_once, run_rd_once_netem,
    run_rd_once_traced, run_resolver_case, run_resolver_case_traced, run_resolver_once,
    run_resolver_once_netem, run_resolver_once_traced, run_selection_case,
    run_selection_once_netem, run_selection_once_traced, summarize_cad, summarize_rd,
    summarize_resolver, switchover_bracket, CadSample, CadSummary, RdSample, RdSummary,
    ResolverSample, ResolverStats, SelectionResult, CAD_SEED_TAG, RD_SEED_TAG, RESOLVER_SEED_TAG,
};
pub use table::Table;
pub use topology::{reset_zone_cache, zone_cache_stats, ZoneCacheStats};

#[cfg(test)]
mod tests {
    use super::*;
    use lazyeye_clients::{chromium_hev3_flag, figure2_clients, safari_clients, table2_clients};
    use lazyeye_net::Family;
    use lazyeye_resolver::{bind9, knot, open_resolver_profiles, unbound};

    fn client(name: &str) -> lazyeye_clients::ClientProfile {
        figure2_clients()
            .into_iter()
            .rfind(|c| c.name == name)
            .unwrap()
    }

    /// A focused sweep around the expected switchover keeps tests fast.
    fn sweep_around(center: u64) -> CadCaseConfig {
        CadCaseConfig {
            sweep: SweepSpec::new(center.saturating_sub(60), center + 60, 20),
            repetitions: 1,
        }
    }

    #[test]
    fn chromium_switchover_at_300ms() {
        let samples = run_cad_case(&client("Chrome"), &sweep_around(300), 1);
        let s = summarize_cad(&samples);
        assert_eq!(s.last_v6_delay_ms, Some(300), "v6 up to its 300 ms CAD");
        assert_eq!(s.first_v4_delay_ms, Some(320));
        let cad = s.measured_cad_ms.unwrap();
        assert!((299.0..302.0).contains(&cad), "measured {cad} ms");
    }

    #[test]
    fn firefox_switchover_at_250ms() {
        let samples = run_cad_case(&client("Firefox"), &sweep_around(250), 2);
        let s = summarize_cad(&samples);
        assert_eq!(s.last_v6_delay_ms, Some(250));
        assert_eq!(s.first_v4_delay_ms, Some(270));
    }

    #[test]
    fn curl_switchover_at_200ms() {
        let samples = run_cad_case(&client("curl"), &sweep_around(200), 3);
        let s = summarize_cad(&samples);
        assert_eq!(s.last_v6_delay_ms, Some(200));
        assert_eq!(s.first_v4_delay_ms, Some(220));
    }

    #[test]
    fn wget_never_falls_back() {
        let samples = run_cad_case(&client("wget"), &sweep_around(300), 4);
        let s = summarize_cad(&samples);
        assert!(!s.implements_cad, "wget implements no HE at all");
        assert!(s.always_connected, "within its timeout v6 still succeeds");
        assert_eq!(s.first_v4_delay_ms, None);
    }

    #[test]
    fn safari_local_cad_is_2s() {
        // Fresh state ⇒ dynamic CAD = 2 s (the paper's local observation).
        let profile = safari_clients().into_iter().find(|c| !c.mobile).unwrap();
        let cfg = CadCaseConfig {
            sweep: SweepSpec::new(1900, 2100, 100),
            repetitions: 1,
        };
        let samples = run_cad_case(&profile, &cfg, 5);
        let s = summarize_cad(&samples);
        assert_eq!(s.last_v6_delay_ms, Some(2000));
        assert_eq!(s.first_v4_delay_ms, Some(2100));
    }

    #[test]
    fn only_safari_implements_rd() {
        let rd_cfg = RdCaseConfig {
            delayed: DelayedRecord::Aaaa,
            sweep: SweepSpec::new(300, 300, 1),
            repetitions: 1,
        };
        let safari = safari_clients().into_iter().find(|c| !c.mobile).unwrap();
        assert!(summarize_rd(&run_rd_case(&safari, &rd_cfg, 6)).implements_rd);
        for name in ["Chrome", "Firefox", "curl", "wget"] {
            assert!(
                !summarize_rd(&run_rd_case(&client(name), &rd_cfg, 6)).implements_rd,
                "{name} must not implement RD"
            );
        }
    }

    #[test]
    fn delayed_a_stalls_chrome_but_not_safari() {
        // §5.2: all but Safari wait for the A answer before connecting at
        // all, even though AAAA answered immediately.
        let rd_cfg = RdCaseConfig {
            delayed: DelayedRecord::A,
            sweep: SweepSpec::new(800, 800, 1),
            repetitions: 1,
        };
        let chrome = run_rd_case(&client("Chrome"), &rd_cfg, 7);
        assert!(chrome[0].first_attempt_ms.unwrap() >= 800.0);
        assert_eq!(chrome[0].family, Some(Family::V6), "still v6, just late");

        let safari = safari_clients().into_iter().find(|c| !c.mobile).unwrap();
        let s = run_rd_case(&safari, &rd_cfg, 7);
        assert!(
            s[0].first_attempt_ms.unwrap() < 50.0,
            "Safari connects immediately ({} ms)",
            s[0].first_attempt_ms.unwrap()
        );
    }

    #[test]
    fn hev3_flag_fixes_the_stall() {
        let rd_cfg = RdCaseConfig {
            delayed: DelayedRecord::A,
            sweep: SweepSpec::new(800, 800, 1),
            repetitions: 1,
        };
        let fixed = run_rd_case(&chromium_hev3_flag(), &rd_cfg, 8);
        assert!(
            fixed[0].first_attempt_ms.unwrap() < 50.0,
            "HEv3 flag removes the wait-for-A behaviour"
        );
    }

    #[test]
    fn selection_safari_vs_hev1_clients() {
        let cfg = SelectionCaseConfig::default();
        let safari = safari_clients().into_iter().find(|c| !c.mobile).unwrap();
        let s = run_selection_case(&safari, &cfg, 9);
        assert_eq!(s.v6_used, 10);
        assert_eq!(s.v4_used, 10);
        assert_eq!(&s.order[..3], &[Family::V6, Family::V6, Family::V4]);

        let c = run_selection_case(&client("Chrome"), &cfg, 9);
        assert_eq!((c.v6_used, c.v4_used), (1, 1), "HEv1: one of each, stop");
        let w = run_selection_case(&client("wget"), &cfg, 9);
        assert_eq!((w.v6_used, w.v4_used), (1, 0), "wget: one v6, no fallback");
    }

    #[test]
    fn feature_matrix_matches_table2() {
        for profile in table2_clients() {
            let row = evaluate_client_features(&profile, 10);
            assert!(row.prefers_v6, "{}: prefers IPv6", row.client);
            match profile.name {
                "Safari" | "Mobile Safari" => {
                    assert!(row.cad_impl && row.rd_impl && row.addr_selection, "{row:?}");
                    assert!(row.aaaa_first);
                }
                "wget" => {
                    assert!(!row.cad_impl && !row.rd_impl && !row.addr_selection);
                    assert!(!row.aaaa_first, "wget sends A first");
                }
                "Firefox" => {
                    assert!(row.cad_impl && !row.rd_impl && !row.addr_selection);
                    assert!(!row.aaaa_first, "Table 2: Firefox not AAAA-first");
                }
                _ => {
                    assert!(row.cad_impl, "{}", row.client);
                    assert!(!row.rd_impl, "{}", row.client);
                    assert!(!row.addr_selection, "{}", row.client);
                    assert!(row.aaaa_first, "{}", row.client);
                }
            }
        }
    }

    #[test]
    fn zone_cache_hits_on_repeated_tag_delay() {
        use crate::topology::resolver_topology_for_delay;
        // A key unique to this test: the first build must miss, the
        // second must hit. Counters are process-global (other tests add
        // their own traffic), so assert deltas, not absolutes.
        let before = zone_cache_stats();
        let _ = resolver_topology_for_delay(1, "zone-cache-test", 7777);
        let mid = zone_cache_stats();
        assert!(mid.misses > before.misses, "first build is a miss");
        let _ = resolver_topology_for_delay(2, "zone-cache-test", 7777);
        let after = zone_cache_stats();
        assert!(
            after.hits > mid.hits,
            "rebuilding the same (tag, delay) zones must hit the cache: {after:?} vs {mid:?}"
        );
    }

    #[test]
    fn repeated_resolver_sweeps_reuse_cached_zones() {
        let cfg = ResolverCaseConfig {
            sweep: SweepSpec::new(7600, 7600, 1),
            repetitions: 2,
        };
        let _ = run_resolver_case(&bind9(), &cfg, 17);
        let mid = zone_cache_stats();
        // A second sweep over the same (delay, rep) grid — as every
        // additional resolver profile in a campaign produces — must be
        // all hits, no new zone builds.
        let _ = run_resolver_case(&unbound(), &cfg, 18);
        let after = zone_cache_stats();
        assert!(after.hits >= mid.hits + 2, "{after:?} vs {mid:?}");
    }

    #[test]
    fn traced_cad_run_round_trips_and_matches_sample() {
        use lazyeye_json::{FromJson, Json};
        let (sample, trace) = run_cad_once_traced(&client("Chrome"), 1000, 0, 21, &[], "baseline");
        assert_eq!(sample.family, Some(Family::V4), "1 s v6 delay forces v4");
        assert_eq!(trace.established_family(), Some(Family::V4));
        let trace_cad = trace.observed_cad_ms().unwrap();
        let sample_cad = sample.observed_cad_ms.unwrap();
        assert!(
            (trace_cad - sample_cad).abs() < 2.0,
            "trace CAD {trace_cad} vs capture CAD {sample_cad}"
        );
        assert_eq!(trace.aaaa_first(), Some(true), "server-side wire order");
        // Serialisation round-trip is byte-identical.
        let mut set = lazyeye_trace::TraceSet::default();
        set.push(trace);
        let text = set.to_json_string();
        let back = lazyeye_trace::TraceSet::from_json_str(&text).unwrap();
        assert_eq!(back.to_json_string(), text);
        // And parses as plain JSON with the expected metadata.
        let v = Json::parse(&text).unwrap();
        assert_eq!(
            String::from_json(&v["traces"][0]["meta"]["subject"]).unwrap(),
            "chrome-130.0"
        );
    }

    #[test]
    fn traced_rd_run_records_the_armed_delay() {
        let safari = safari_clients().into_iter().find(|c| !c.mobile).unwrap();
        let (sample, trace) = run_rd_once_traced(
            &safari,
            DelayedRecord::Aaaa,
            300,
            0,
            22,
            &[],
            "delayed-aaaa",
        );
        assert!(sample.used_rd);
        assert_eq!(trace.resolution_delay_ms(), Some(50), "Safari arms 50 ms");
    }

    #[test]
    fn bind_resolver_stats() {
        let cfg = ResolverCaseConfig {
            sweep: SweepSpec::new(0, 1000, 250),
            repetitions: 4,
        };
        let stats = summarize_resolver(&run_resolver_case(&bind9(), &cfg, 11));
        assert_eq!(stats.v6_share_pct, Some(100.0), "BIND always prefers IPv6");
        // 800 ms timeout: still served over v6 at 750, not at 1000.
        assert_eq!(stats.max_v6_delay_ms, Some(750));
        let cad = stats.observed_cad_ms.unwrap();
        assert!(
            (795.0..810.0).contains(&cad),
            "BIND CAD ≈ 800 ms, got {cad}"
        );
        assert_eq!(stats.max_v6_packets, 1);
        assert!((stats.success_pct - 100.0).abs() < f64::EPSILON);
    }

    #[test]
    fn opendns_he_style_50ms() {
        let profile = open_resolver_profiles()
            .into_iter()
            .find(|p| p.name == "OpenDNS")
            .unwrap();
        let cfg = ResolverCaseConfig {
            sweep: SweepSpec::new(0, 200, 100),
            repetitions: 4,
        };
        let stats = summarize_resolver(&run_resolver_case(&profile, &cfg, 12));
        assert_eq!(stats.v6_share_pct, Some(100.0));
        let cad = stats.observed_cad_ms.unwrap();
        assert!(
            (49.0..60.0).contains(&cad),
            "OpenDNS falls back after 50 ms, got {cad}"
        );
    }

    #[test]
    fn unbound_shares_and_backoff() {
        let cfg = ResolverCaseConfig {
            sweep: SweepSpec::new(0, 0, 1),
            repetitions: 60,
        };
        let stats = summarize_resolver(&run_resolver_case(&unbound(), &cfg, 13));
        let share = stats.v6_share_pct.unwrap();
        assert!(
            (30.0..70.0).contains(&share),
            "Unbound ≈ 50/50 preference, got {share}"
        );
        // Backoff: with a dead v6 path Unbound sometimes sends 2 v6 packets.
        let cfg2 = ResolverCaseConfig {
            sweep: SweepSpec::new(2000, 2000, 1),
            repetitions: 20,
        };
        let stats2 = summarize_resolver(&run_resolver_case(&unbound(), &cfg2, 14));
        assert!(stats2.max_v6_packets >= 2, "same-address retry observed");
    }

    #[test]
    fn knot_share_near_quarter() {
        let cfg = ResolverCaseConfig {
            sweep: SweepSpec::new(0, 0, 1),
            repetitions: 80,
        };
        let stats = summarize_resolver(&run_resolver_case(&knot(), &cfg, 15));
        let share = stats.v6_share_pct.unwrap();
        assert!((12.0..45.0).contains(&share), "Knot ≈ 25-28 %, got {share}");
    }

    #[test]
    fn google_never_uses_v6() {
        let profile = open_resolver_profiles()
            .into_iter()
            .find(|p| p.name == "Google P. DNS")
            .unwrap();
        let cfg = ResolverCaseConfig {
            sweep: SweepSpec::new(0, 0, 1),
            repetitions: 10,
        };
        let stats = summarize_resolver(&run_resolver_case(&profile, &cfg, 16));
        assert_eq!(stats.v6_share_pct, Some(0.0));
        assert_eq!(stats.max_v6_packets, 0);
    }
}
