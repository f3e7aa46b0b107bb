//! Peak-memory regression test for the federation engine.
//!
//! A federation's replay reads only each client's precomputed decide
//! and display plans, so no head trace may outlive the sense phase and
//! no node world may hold a copy of one. Keeping them costs tens of KB
//! per client per node, which at crowd scale is the whole footprint.
//!
//! This file holds exactly one test, so the test binary is its own
//! process and `VmHWM` (peak resident set) measures this run alone.

use sperke_edge::{
    flash_crowd_clients, run_federation, EdgeConfig, FederationConfig, FederationHarness,
};
use sperke_sim::{SimDuration, TraceLevel};
use sperke_video::VideoModelBuilder;

/// Peak RSS bound. On x86-64 Linux a debug build of this test read
/// 18.6 MB with head traces dropped after sensing, and 329 MB when
/// every node world kept a copy of every client's trace; the bound sits
/// more than 4× from each.
const PEAK_RSS_LIMIT_MB: f64 = 80.0;

/// The process's peak resident set in MB, where the OS reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[test]
fn flash_crowd_peak_rss_stays_bounded() {
    if peak_rss_mb().is_none() {
        eprintln!("skipped: /proc/self/status reports no VmHWM on this platform");
        return;
    }
    let video = VideoModelBuilder::new(7)
        .duration(SimDuration::from_secs(10))
        .build();
    let config = FederationConfig {
        nodes: 8,
        node: EdgeConfig::default(),
        ..FederationConfig::default()
    };
    let clients = flash_crowd_clients(
        &config.node,
        500,
        1500,
        SimDuration::from_secs(3),
        SimDuration::from_millis(20),
    );
    let harness = FederationHarness {
        trace: TraceLevel::Off,
        ..Default::default()
    };
    let run = run_federation(&video, &config, &clients, &harness, None, 2);
    assert_eq!(run.report.clients, clients.len());
    assert!(run.report.admitted > 0);

    let peak = peak_rss_mb().expect("VmHWM was readable before the run");
    eprintln!("peak RSS {peak:.1} MB (limit {PEAK_RSS_LIMIT_MB} MB)");
    assert!(
        peak < PEAK_RSS_LIMIT_MB,
        "peak RSS {peak:.1} MB exceeds {PEAK_RSS_LIMIT_MB} MB: a per-client copy \
         outlives the sense phase"
    );
}
