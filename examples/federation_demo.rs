//! Federation smoke demo: a flash crowd hits a multi-edge federation
//! over a shared regional cache, and the run proves its own determinism
//! by cross-checking the combined trace digest at 1, 2 and 8 workers.
//! Workers shard only the pure sense phase; replay is always serial, so
//! the check pins that sharding never changes a plan or a byte. Exits
//! non-zero on any divergence, so CI can run it as a determinism gate
//! at whatever scale the environment asks for:
//!
//! ```sh
//! cargo run --release --example federation_demo
//! FED_NODES=4 FED_CLIENTS=250 cargo run --release --example federation_demo
//! ```

use sperke_core::{run_federation, FederationConfig, FederationHarness, TraceLevel};
use sperke_edge::flash_crowd_clients;
use sperke_sim::SimDuration;
use sperke_video::VideoModelBuilder;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let nodes = env_usize("FED_NODES", 4);
    let clients = env_usize("FED_CLIENTS", 64);

    let video = VideoModelBuilder::new(77)
        .duration(SimDuration::from_secs(10))
        .build();
    let mut config = FederationConfig::default();
    config.node.seed = 77;
    config.seed = 77;
    config.nodes = nodes;
    // A quarter of the crowd is steady; the rest surges in at 3 s.
    let base = clients / 4;
    let specs = flash_crowd_clients(
        &config.node,
        base,
        clients - base,
        SimDuration::from_secs(3),
        SimDuration::from_millis(100),
    );
    let harness = FederationHarness {
        trace: TraceLevel::Verbose,
        ..Default::default()
    };

    println!(
        "federation demo: {nodes} nodes, {} clients (flash crowd)",
        specs.len()
    );
    let mut digests = Vec::new();
    for workers in [1usize, 2, 8] {
        let run = run_federation(&video, &config, &specs, &harness, None, workers);
        println!(
            "  workers={workers}: digest {:#018x}, origin {:.1} MB, regional hits {:.1} MB, rehomed {}",
            run.combined_digest(),
            run.report.origin_bytes as f64 / 1e6,
            run.report.regional.hit_bytes as f64 / 1e6,
            run.report.rehomed,
        );
        digests.push((workers, run.combined_digest(), run));
    }
    let (_, reference, ref_run) = &digests[0];
    for (workers, digest, run) in &digests {
        if digest != reference || run.report != ref_run.report {
            eprintln!("DETERMINISM VIOLATION: {workers} workers diverged from 1 worker");
            std::process::exit(1);
        }
    }

    let r = &ref_run.report;
    // The books must balance across all three tiers, every run.
    assert_eq!(
        r.origin_bytes + r.origin_failed_bytes,
        r.regional.miss_bytes,
        "origin leg must carry exactly the regional misses"
    );
    assert_eq!(
        r.regional_ingress_bytes,
        r.nodes
            .iter()
            .map(|n| n.cache.miss_bytes + n.cache.prefetch_bytes)
            .sum::<u64>(),
        "regional ingress must equal total edge demand"
    );
    assert_eq!(
        r.regional_egress_bytes,
        r.regional.hit_bytes + r.origin_bytes,
        "regional egress must be hits plus origin fetches"
    );
    println!(
        "determinism: PASS (byte-identical at 1/2/8 workers); \
         {} admitted, {} rejected, edge demand {:.1} MB, origin {:.1} MB",
        r.admitted,
        r.rejected,
        r.regional_ingress_bytes as f64 / 1e6,
        r.origin_bytes as f64 / 1e6,
    );
}
