//! Federation memory probe: one 100,000-client flash crowd on 8 edge
//! nodes with tracing off, printing the run's wall time, client-chunk
//! steps per second and the process's peak resident set. The size is
//! fixed so readings compare across commits on one host; it checks
//! nothing and exits zero whatever it reads.
//!
//! ```sh
//! cargo run --release --example federation_scale
//! ```
//!
//! The population is the benchmark's 8-node flash crowd scaled 100×: a
//! quarter of the crowd arrives steadily, the rest surges in from 3 s at
//! 20 ms spacing, all on one 20 s title, under the default per-node
//! admission cap. Peak RSS is `VmHWM` from `/proc/self/status`.

use sperke_core::{run_federation, FederationConfig, FederationHarness, TraceLevel};
use sperke_edge::{flash_crowd_clients, EdgeConfig};
use sperke_sim::SimDuration;
use sperke_video::VideoModelBuilder;
use std::time::Instant;

const CLIENTS: usize = 100_000;
const NODES: usize = 8;
const VIDEO_SECS: u64 = 20;

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

fn main() {
    let video = VideoModelBuilder::new(7)
        .duration(SimDuration::from_secs(VIDEO_SECS))
        .build();
    let config = FederationConfig {
        nodes: NODES,
        node: EdgeConfig::default(),
        ..FederationConfig::default()
    };
    let base = CLIENTS / 4;
    let clients = flash_crowd_clients(
        &config.node,
        base,
        CLIENTS - base,
        SimDuration::from_secs(3),
        SimDuration::from_millis(20),
    );
    let harness = FederationHarness {
        trace: TraceLevel::Off,
        ..Default::default()
    };

    let start = Instant::now();
    let run = run_federation(&video, &config, &clients, &harness, None, 0);
    let wall = start.elapsed().as_secs_f64();
    let steps = clients.len() as f64 * video.chunk_count() as f64;

    println!(
        "federation scale: {} clients ({} admitted) on {NODES} nodes, {VIDEO_SECS} s title, tracing off",
        run.report.clients, run.report.admitted
    );
    println!("  wall {wall:.2} s, {:.0} steps/s", steps / wall);
    match peak_rss_mb() {
        Some(mb) => println!("  peak RSS {mb:.1} MB"),
        None => println!("  peak RSS unavailable (no /proc/self/status)"),
    }
}
