//! The edge-server model in one screen: N viewers behind one edge,
//! shared tile cache vs independent sessions, crowd-driven prefetch,
//! admission control and graceful degradation.
//!
//! ```sh
//! cargo run --release --example edge_fleet
//! ```

use sperke_core::{
    default_clients, run_edge, run_edge_sweep, EdgeConfig, EdgeGrid, EdgeHarness, TraceLevel,
};
use sperke_edge::TileCacheStats;
use sperke_sim::sweep::default_threads;
use sperke_sim::{SimDuration, TraceSink};
use sperke_video::VideoModelBuilder;

/// Cache hit rate, percent: every hit, including requests that joined an
/// origin fetch already in flight.
fn hit_pct(c: &TileCacheStats) -> f64 {
    100.0 * c.hits as f64 / (c.hits + c.misses).max(1) as f64
}

/// Resident hit rate, percent: only hits served from bytes already in
/// the cache, not joins of in-flight fetches.
fn resident_hit_pct(c: &TileCacheStats) -> f64 {
    100.0 * (c.hits - c.coalesced_hits) as f64 / (c.hits + c.misses).max(1) as f64
}

fn main() {
    // One traced run first: a plain config on the run path, with the
    // trace digest proving the run is reproducible byte for byte.
    let video = VideoModelBuilder::new(7)
        .duration(SimDuration::from_secs(12))
        .build();
    let config = EdgeConfig {
        clients: 24,
        ..Default::default()
    };
    let sink = TraceSink::with_level(TraceLevel::Events);
    let harness = EdgeHarness {
        trace: sink.clone(),
        ..Default::default()
    };
    let clients = default_clients(&config);
    let r = run_edge(&video, &config, &clients, &harness, None, 0);
    drop(harness);
    let trace = sink.into_trace();
    println!(
        "edge run: {} clients admitted, {} rejected",
        r.admitted, r.rejected
    );
    println!(
        "  egress {:.1} MB | origin {:.1} MB | cache hit rate {:.1}% (resident {:.1}%) | prefetches {}",
        r.egress_bytes as f64 / 1e6,
        r.origin_demand_bytes() as f64 / 1e6,
        hit_pct(&r.cache),
        resident_hit_pct(&r.cache),
        r.cache.prefetches,
    );
    println!(
        "  viewport utility {:.2} | blank {:.1}% | QoE {:.2} | trace digest {:#018x}",
        r.mean_viewport_utility,
        r.mean_blank_fraction * 100.0,
        r.qoe_score,
        trace.digest(),
    );

    // The operator's question: what does the shared cache save as the
    // audience grows? Sweep clients × {no cache, 256 MiB cache}.
    let grid = EdgeGrid::new(EdgeConfig {
        max_clients: 128,
        ..Default::default()
    })
    .clients_axis(vec![8, 16, 32])
    .cache_axis(vec![0, 256 << 20]);
    let sweep = run_edge_sweep(&video, &grid, None, default_threads());

    println!(
        "\n{:>8} {:>10} {:>12} {:>12} {:>8} {:>8}",
        "clients", "cache", "originMB", "egressMB", "hit%", "res%"
    );
    for point in sweep.ok_results() {
        let c = &point.config;
        let r = &point.report;
        println!(
            "{:>8} {:>10} {:>12.1} {:>12.1} {:>8.1} {:>8.1}",
            c.clients,
            if c.cache_bytes == 0 { "off" } else { "256MiB" },
            r.origin_demand_bytes() as f64 / 1e6,
            r.egress_bytes as f64 / 1e6,
            hit_pct(&r.cache),
            resident_hit_pct(&r.cache),
        );
    }

    // Pair up the axis: cached origin traffic as a fraction of uncached.
    let points: Vec<_> = sweep.ok_results().collect();
    println!();
    for pair in points.chunks(2) {
        if let [uncached, cached] = pair {
            println!(
                "{:>3} clients: shared cache cuts origin egress to {:.0}% of independent sessions",
                cached.config.clients,
                100.0 * cached.report.origin_demand_bytes() as f64
                    / uncached.report.origin_demand_bytes().max(1) as f64,
            );
        }
    }
}
