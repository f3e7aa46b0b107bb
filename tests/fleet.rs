//! Direct coverage for `core::fleet` — the multi-viewer server-side
//! experiment: capacity enforcement, the §2 egress-saving claim at
//! fleet scale, seed determinism of the default configuration, and the
//! empty fleet.

use sperke_core::{run_fleet, run_fleet_oracle, FleetConfig, FleetReport};
use sperke_geo::VisibilityCache;
use sperke_sim::SimDuration;
use sperke_video::{VideoModel, VideoModelBuilder};

fn video() -> VideoModel {
    VideoModelBuilder::new(17)
        .duration(SimDuration::from_secs(10))
        .build()
}

/// The shared egress link is a hard capacity: whatever the demand, the
/// session-mean egress rate can never exceed `egress_bps`.
#[test]
fn aggregate_egress_never_exceeds_capacity() {
    let v = video();
    for (viewers, egress_bps) in [(6usize, 30e6), (12, 60e6), (20, 25e6)] {
        let report = run_fleet(
            &v,
            &FleetConfig {
                viewers,
                egress_bps,
                ..Default::default()
            },
            None,
            1,
        );
        assert!(
            report.egress_bps <= egress_bps * 1.0001,
            "{viewers} viewers through a {:.0} Mbps link drove {:.1} Mbps mean egress",
            egress_bps / 1e6,
            report.egress_bps / 1e6,
        );
        assert!(report.egress_bytes > 0, "the link did carry traffic");
    }
}

/// At an equal-QoE configuration (the agnostic fleet gets the larger
/// budget that affords comparable viewport quality), FoV-guided
/// delivery strictly beats full-panorama delivery on egress bytes.
#[test]
fn fov_guided_strictly_beats_full_panorama_on_egress() {
    let v = video();
    let base = FleetConfig {
        viewers: 8,
        egress_bps: 1e9,
        ..Default::default()
    };
    let guided = run_fleet(
        &v,
        &FleetConfig {
            fov_guided: true,
            per_viewer_budget_bps: 10e6,
            ..base
        },
        None,
        1,
    );
    let agnostic = run_fleet(
        &v,
        &FleetConfig {
            fov_guided: false,
            per_viewer_budget_bps: 18e6,
            ..base
        },
        None,
        1,
    );
    assert!(
        guided.mean_viewport_utility >= agnostic.mean_viewport_utility - 0.15,
        "equal-QoE premise holds: guided {:.2} vs agnostic {:.2}",
        guided.mean_viewport_utility,
        agnostic.mean_viewport_utility,
    );
    assert!(
        guided.egress_bytes < agnostic.egress_bytes,
        "guided egress {} must be strictly below agnostic {}",
        guided.egress_bytes,
        agnostic.egress_bytes,
    );
}

/// `FleetConfig::default()` outcomes are a pure function of the seed:
/// same seed → identical report, different seed → different traffic.
#[test]
fn default_config_outcomes_are_seed_deterministic() {
    let v = video();
    let run = |seed: u64| -> FleetReport {
        run_fleet(
            &v,
            &FleetConfig {
                seed,
                ..Default::default()
            },
            None,
            1,
        )
    };
    let a = run(FleetConfig::default().seed);
    let b = run(FleetConfig::default().seed);
    assert_eq!(a, b, "same seed, byte-equal report");

    let other = run(FleetConfig::default().seed + 1);
    assert_ne!(
        a, other,
        "a different seed reshuffles viewer behaviour and the traffic it drives"
    );
}

/// Late streams are accounted within [0, 1] and congestion only ever
/// increases them (sanity envelope for the congestion metrics).
#[test]
fn late_fraction_stays_a_fraction_and_grows_under_pressure() {
    let v = video();
    let ample = run_fleet(
        &v,
        &FleetConfig {
            viewers: 8,
            egress_bps: 500e6,
            ..Default::default()
        },
        None,
        1,
    );
    let tight = run_fleet(
        &v,
        &FleetConfig {
            viewers: 8,
            egress_bps: 20e6,
            ..Default::default()
        },
        None,
        1,
    );
    for r in [&ample, &tight] {
        assert!((0.0..=1.0).contains(&r.late_stream_fraction));
        assert!((0.0..=1.0).contains(&r.mean_blank_fraction));
    }
    assert!(tight.late_stream_fraction >= ample.late_stream_fraction);
}

/// A fleet of zero viewers is a legal, degenerate input: both engines
/// return an all-zero report instead of panicking.
#[test]
fn zero_viewers_report_zero_traffic() {
    let v = video();
    let cfg = FleetConfig {
        viewers: 0,
        ..Default::default()
    };
    let oracle = run_fleet_oracle(&v, &cfg, None, VisibilityCache::default());
    for workers in [1usize, 4] {
        assert_eq!(oracle, run_fleet(&v, &cfg, None, workers));
    }
    assert_eq!(oracle.viewers, 0);
    assert_eq!(oracle.egress_bytes, 0);
    for x in [
        oracle.egress_bps,
        oracle.mean_viewport_utility,
        oracle.mean_blank_fraction,
        oracle.late_stream_fraction,
    ] {
        assert_eq!(x, 0.0);
    }
}
