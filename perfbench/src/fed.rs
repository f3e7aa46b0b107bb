//! The two federation workloads: a single-title flash crowd (sense-bound,
//! cache reads, windowed parallel replay) and a Zipf long tail over
//! caches far smaller than its working set (replay-bound, cache writes).

use crate::{layers, median, nproc, peak_rss_mb, run_for, setup_seconds, timed, Args, Outcome};
use sperke_core::sim::{SimDuration, TraceLevel};
use sperke_core::video::{VideoModel, VideoModelBuilder};
use sperke_edge::{
    flash_crowd_clients, run_federation, zipf_catalog_clients, EdgeClientSpec, EdgeConfig,
    FederationConfig, FederationHarness, FederationReport, FederationRunReport,
};

/// One federation workload: its inputs and how it is consumed.
pub struct FedWorkload {
    /// Seed of the population and nothing else.
    pub seed: u64,
    /// Video length in seconds.
    pub video_secs: u64,
    pub config: FederationConfig,
    /// Worker threads of the timed run.
    pub workers: usize,
    /// Trace level of the timed run.
    pub trace: TraceLevel,
    /// Whether the timed run fingerprints its traces, the way the
    /// determinism gates consume a federation.
    pub digest: bool,
    population: fn(&EdgeConfig) -> Vec<EdgeClientSpec>,
}

/// The built inputs of a federation workload.
pub struct FedInputs {
    pub video: VideoModel,
    pub clients: Vec<EdgeClientSpec>,
}

impl FedWorkload {
    /// 8 nodes, 250 steady viewers plus 750 surging in from 3 s at 20 ms
    /// spacing, one 20 s title, default caches; `nproc` workers with
    /// event tracing and a combined digest per run.
    pub fn flash(seed: u64) -> FedWorkload {
        FedWorkload {
            seed,
            video_secs: 20,
            config: FederationConfig {
                nodes: 8,
                node: EdgeConfig {
                    seed: CONTENT_SEED,
                    ..EdgeConfig::default()
                },
                ..FederationConfig::default()
            },
            workers: nproc(),
            trace: TraceLevel::Events,
            digest: true,
            population: |node| {
                flash_crowd_clients(
                    node,
                    250,
                    750,
                    SimDuration::from_secs(3),
                    SimDuration::from_millis(20),
                )
            },
        }
    }

    /// 8 nodes, Zipf(0.8) viewers over 64 titles at 250 ms spacing, 10 s
    /// titles, 8 MB edge and 64 MB regional caches against a working set
    /// many times larger, a fast (1 Gbps) origin leg; serial replay with
    /// tracing off, the way a capacity sweep consumes a federation.
    pub fn longtail(seed: u64) -> FedWorkload {
        FedWorkload {
            seed,
            video_secs: 10,
            config: FederationConfig {
                nodes: 8,
                regional_bytes: 64 << 20,
                node: EdgeConfig {
                    seed: CONTENT_SEED,
                    cache_bytes: 8 << 20,
                    origin_bps: 1e9,
                    arrival_spacing: SimDuration::from_millis(250),
                    ..EdgeConfig::default()
                },
                ..FederationConfig::default()
            },
            workers: 1,
            trace: TraceLevel::Off,
            digest: false,
            population: |node| zipf_catalog_clients(node, LONGTAIL_CLIENTS, 64, 0.8),
        }
    }

    pub fn build(&self) -> FedInputs {
        FedInputs {
            video: VideoModelBuilder::new(CONTENT_SEED)
                .duration(SimDuration::from_secs(self.video_secs))
                .build(),
            clients: (self.population)(&EdgeConfig {
                seed: self.seed,
                ..self.config.node
            }),
        }
    }

    /// One federation run as the workload consumes it.
    pub fn run_once(
        &self,
        inputs: &FedInputs,
        workers: usize,
        trace: TraceLevel,
    ) -> FederationRunReport {
        run_federation(
            &inputs.video,
            &self.config,
            &inputs.clients,
            &FederationHarness {
                trace,
                ..FederationHarness::default()
            },
            None,
            workers,
        )
    }

    /// Client-chunk steps one run simulates.
    pub fn steps(&self, inputs: &FedInputs) -> f64 {
        inputs.clients.len() as f64 * inputs.video.chunk_count() as f64
    }
}

/// Seed of the content every workload streams: the video model and, via
/// the node config's seed, the attention model all head traces follow.
/// The workload seed draws the population (viewer seeds, titles) and the
/// sharding ring, so a seed changes who watches, not what is watched.
const CONTENT_SEED: u64 = 7;

const LONGTAIL_CLIENTS: usize = 150;

/// The byte-accounting identities every federation report must keep.
pub fn identity_errors(r: &FederationReport) -> Vec<String> {
    let mut errors = Vec::new();
    let edge_demand: u64 = r
        .nodes
        .iter()
        .map(|n| n.cache.miss_bytes + n.cache.prefetch_bytes)
        .sum();
    if r.regional_ingress_bytes != edge_demand {
        errors.push(format!(
            "regional ingress {} != edge miss+prefetch {edge_demand}",
            r.regional_ingress_bytes
        ));
    }
    if r.origin_bytes + r.origin_failed_bytes != r.regional.miss_bytes {
        errors.push("origin + failed bytes != regional miss bytes".into());
    }
    if r.regional_egress_bytes != r.regional.hit_bytes + r.origin_bytes {
        errors.push("regional egress != regional hit + origin bytes".into());
    }
    for (i, n) in r.nodes.iter().enumerate() {
        if n.egress_bytes != n.cache.hit_bytes + n.cache.miss_bytes {
            errors.push(format!("node {i}: egress != hit + miss bytes"));
        }
    }
    if r.admitted == 0 {
        errors.push("no client was admitted".into());
    }
    errors
}

/// Client-weighted mean of a per-node figure.
pub fn admitted_mean(r: &FederationReport, f: impl Fn(&sperke_edge::EdgeReport) -> f64) -> f64 {
    let admitted: usize = r.nodes.iter().map(|n| n.admitted).sum();
    r.nodes
        .iter()
        .map(|n| f(n) * n.admitted as f64)
        .sum::<f64>()
        / admitted.max(1) as f64
}

pub fn run(w: FedWorkload, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let inputs = w.build();
    if args.trace {
        layers::fed_layers(&w, &inputs, &mut out);
        return out;
    }

    // Warm-up: caches, allocator and lazily built tables settle first.
    let warm = w.run_once(&inputs, w.workers, w.trace).report;
    let setup_s = setup_seconds(2001, || w.build());
    let runs = run_for(args.seconds, || {
        let (secs, (run, digest)) = timed(|| {
            let run = w.run_once(&inputs, w.workers, w.trace);
            let digest = w.digest.then(|| run.combined_digest());
            (run, digest)
        });
        (secs, (run.report, digest))
    });
    let rss = peak_rss_mb();

    // The serial oracle, outside the timed region.
    let oracle = w.run_once(&inputs, 1, w.trace);
    let oracle_digest = oracle.combined_digest();
    out.check(identity_errors(&oracle.report).is_empty(), || {
        format!("oracle identities: {:?}", identity_errors(&oracle.report))
    });
    out.check(warm == oracle.report, || "warm-up report != oracle".into());
    for (i, (_, (run, digest))) in runs.iter().enumerate() {
        out.attempted += 1;
        let mut errors = identity_errors(run);
        if *run != oracle.report {
            errors.push("report differs from the serial oracle".into());
        }
        if digest.is_some_and(|d| d != oracle_digest) {
            errors.push("combined digest differs from the serial oracle".into());
        }
        if !errors.is_empty() {
            out.failed += 1;
            eprintln!("perfbench: run {i} failed: {errors:?}");
        }
    }

    let secs: Vec<f64> = runs.iter().map(|(s, _)| *s).collect();
    let r = &oracle.report;
    eprintln!(
        "perfbench: {} runs, median {:.4} s (min {:.4}, max {:.4}); {} clients, {} admitted",
        secs.len(),
        median(&secs),
        secs.iter().copied().fold(f64::INFINITY, f64::min),
        secs.iter().copied().fold(0.0, f64::max),
        r.clients,
        r.admitted
    );
    out.metric("steps_per_s", w.steps(&inputs) / median(&secs), "1/s");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("qoe_score", admitted_mean(r, |n| n.qoe_score), "score");
    out.metric(
        "blank_fraction",
        admitted_mean(r, |n| n.mean_blank_fraction),
        "fraction",
    );
    out.metric("origin_mb", r.origin_demand_bytes() as f64 / 1e6, "MB");
    out
}
