//! Multi-edge federation over a shared origin.
//!
//! A federation shards one client population across N edge nodes and
//! inserts a regional cache tier between the nodes and the origin:
//!
//! ```text
//!   clients ──► edge node 0 ─┐                     ┌──────────┐
//!   clients ──► edge node 1 ─┼─► regional tier ──► │  origin  │
//!   clients ──► edge node … ─┘   (shared cache)    └──────────┘
//! ```
//!
//! * **Sharding** is seeded consistent hashing: every node owns
//!   `vnodes` points on a 64-bit ring and a client lives at the first
//!   point clockwise of its canonical-key hash. The assignment is a
//!   pure function of `(seed, node layout, client key)` — declaration
//!   order of nodes or clients cannot change it.
//! * **Cooperative lookups**: an edge miss goes to the regional tier
//!   first; only a regional miss touches the shared origin backhaul.
//!   Byte accounting is exact at every tier (see the identities on
//!   [`FederationReport`]).
//! * **Crowd sharing**: with [`FederationConfig::share_heatmaps`] on,
//!   one node's viewers pre-warm another's prefetcher — remote gaze
//!   reports arrive `sync_delay` later than local ones, modelled by a
//!   wall-clock shift of the report stream.
//! * **Node failure** is crash-stop: at a scripted outage start the
//!   node's in-flight work is written off and every client homed there
//!   is deterministically re-homed onto the ring's surviving nodes,
//!   resuming delivery where it left off.
//!
//! The engine is the batched single-edge design at federation scale:
//! a pure sense phase sharded over worker threads, then one serial
//! replay over a merged `(time, seq)` queue spanning all nodes. Workers
//! only shard the sense phase, whose per-client plans are independent,
//! so the result — every node's trace and the federation report — is
//! byte-identical for any worker count by construction (`DESIGN.md`
//! §16 says why replay is not parallel). A 1-node federation with a
//! degenerate regional tier (`regional_bytes = 0`, infinite
//! `regional_bps`, zero `regional_rtt`) reproduces the plain edge
//! server bit for bit; `tests/federation.rs` pins all of these claims.

use crate::batch::{sense_client, ClientBatch};
use crate::cache::{CacheKey, TileCache, TileCacheStats};
use crate::server::{
    crowd_slot, edge_horizon, finish_edge_run, ClientState, EdgeClientSpec, EdgeConfig, EdgeEvent,
    EdgeHarness, EdgeReport, EdgeSched, EdgeWorld, UpstreamDecision,
};
use serde::{Deserialize, Serialize};
use sperke_geo::TileId;
use sperke_hmp::AttentionModel;
use sperke_live::CrowdAggregator;
use sperke_net::{FaultScript, PathFaults, RecoveryPolicy, SerialLink, WrrLink};
use sperke_sim::trace::{Trace, TraceLevel};
use sperke_sim::{
    parallel_indexed, MetricsRegistry, ReplayQueue, SimDuration, SimTime, TraceEvent, TraceSink,
};
use sperke_video::{ChunkTime, VideoModel};
use std::collections::HashMap;

/// One edge node's capacity declaration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// The node's egress capacity towards its clients, bits/second.
    pub egress_bps: f64,
    /// The node's tile-cache capacity in bytes (0 = no cache).
    pub cache_bytes: u64,
    /// The node's admission cap.
    pub max_clients: usize,
}

impl NodeSpec {
    /// The canonical total order nodes are indexed in. Sorting the
    /// layout by this key makes node indices — and therefore every
    /// trace byte — invariant to the order nodes were declared in.
    fn canonical_key(&self) -> (u64, u64, usize) {
        (
            self.egress_bps.to_bits(),
            self.cache_bytes,
            self.max_clients,
        )
    }
}

/// Federation experiment parameters. Plain data (serializable), like
/// [`EdgeConfig`]; the non-data dependencies live in
/// [`FederationHarness`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationConfig {
    /// The per-node edge configuration (egress, origin leg, cache,
    /// planner knobs). `egress_bps`, `cache_bytes` and `max_clients`
    /// act as the uniform node template when `node_specs` is empty;
    /// `origin_bps`/`origin_rtt` describe the regional→origin leg.
    pub node: EdgeConfig,
    /// Number of nodes when `node_specs` is empty (uniform layout).
    pub nodes: usize,
    /// Explicit per-node capacities; empty means `nodes` uniform copies
    /// of the template. Order never matters — nodes are canonicalised.
    pub node_specs: Vec<NodeSpec>,
    /// Regional cache capacity in bytes; 0 disables the shared tier
    /// (every edge miss goes straight to the origin — the isolated
    /// baseline a federation is compared against).
    pub regional_bytes: u64,
    /// Edge↔regional link capacity per node, bits/second
    /// (`f64::INFINITY` = unconstrained).
    pub regional_bps: f64,
    /// Edge↔regional propagation delay.
    pub regional_rtt: SimDuration,
    /// Share crowd heatmaps across nodes: one node's viewers pre-warm
    /// every sibling's prefetcher for the titles the sibling serves.
    pub share_heatmaps: bool,
    /// How much later a remote node's gaze reports become visible than
    /// local ones (cross-edge sync latency).
    pub sync_delay: SimDuration,
    /// Virtual points per node on the consistent-hash ring.
    pub vnodes: usize,
    /// Seed for the sharding ring (independent of the video seed).
    pub seed: u64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            node: EdgeConfig::default(),
            nodes: 2,
            node_specs: Vec::new(),
            regional_bytes: 1 << 30,
            regional_bps: 200e6,
            regional_rtt: SimDuration::from_millis(10),
            share_heatmaps: true,
            sync_delay: SimDuration::from_millis(150),
            vnodes: 16,
            seed: 7,
        }
    }
}

impl FederationConfig {
    /// The canonical node layout: explicit specs if given, else `nodes`
    /// uniform copies of the template — always sorted into canonical
    /// order so node indices are declaration-order invariant.
    pub fn node_layout(&self) -> Vec<NodeSpec> {
        let mut layout = if self.node_specs.is_empty() {
            vec![
                NodeSpec {
                    egress_bps: self.node.egress_bps,
                    cache_bytes: self.node.cache_bytes,
                    max_clients: self.node.max_clients,
                };
                self.nodes
            ]
        } else {
            self.node_specs.clone()
        };
        layout.sort_by(|a, b| a.canonical_key().partial_cmp(&b.canonical_key()).unwrap());
        assert!(!layout.is_empty(), "a federation needs at least one node");
        layout
    }
}

/// Non-serializable federation run dependencies.
#[derive(Debug, Clone)]
pub struct FederationHarness {
    /// Trace level applied to the federation sink and every node sink.
    pub trace: TraceLevel,
    /// Node crash script: path `n` of the script is node `n` (canonical
    /// index); the first outage start inside the run's horizon is the
    /// node's crash-stop instant.
    pub node_faults: FaultScript,
    /// Shared origin backhaul faults (path 0 of the script).
    pub origin_faults: FaultScript,
    /// Retry policy for origin fetches forwarded by the regional tier.
    pub recovery: RecoveryPolicy,
}

impl Default for FederationHarness {
    fn default() -> Self {
        FederationHarness {
            trace: TraceLevel::Off,
            node_faults: FaultScript::none(),
            origin_faults: FaultScript::none(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Aggregate outcome of a federation run.
///
/// Byte-accounting identities (exact, pinned by `tests/federation.rs`):
///
/// * `origin_bytes + origin_failed_bytes == regional.miss_bytes` —
///   every regional miss moves its bytes over the shared origin leg
///   exactly once, successfully or not;
/// * `regional_ingress_bytes == Σ nodes (cache.miss_bytes +
///   cache.prefetch_bytes)` — every edge miss or prefetch asks the
///   regional tier exactly once;
/// * `regional_egress_bytes == regional.hit_bytes + origin_bytes` —
///   everything the tier sends down was either resident or fetched.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationReport {
    /// Per-node edge reports, in canonical node order.
    pub nodes: Vec<EdgeReport>,
    /// Clients that tried to attach anywhere.
    pub clients: usize,
    /// Clients admitted somewhere at the end of the run.
    pub admitted: usize,
    /// Clients rejected by their home node's admission control.
    pub rejected: usize,
    /// Regional cache counters.
    pub regional: TileCacheStats,
    /// Bytes edge nodes requested from the regional tier.
    pub regional_ingress_bytes: u64,
    /// Bytes the regional tier delivered down to edge nodes.
    pub regional_egress_bytes: u64,
    /// Bytes fetched over the shared origin backhaul.
    pub origin_bytes: u64,
    /// Bytes of origin fetches the tier abandoned (retries exhausted or
    /// the requesting node died mid-retry).
    pub origin_failed_bytes: u64,
    /// Origin retry attempts the tier scheduled.
    pub origin_retries: u64,
    /// Clients re-homed after node failures.
    pub rehomed: u64,
    /// Nodes that crash-stopped during the run.
    pub failed_nodes: u64,
    /// Bytes of edge egress streams lost on the wire at node death.
    pub lost_egress_bytes: u64,
}

impl FederationReport {
    /// Bytes the federation pulled (or tried to pull) from the origin —
    /// the number the whole deployment pays for upstream.
    pub fn origin_demand_bytes(&self) -> u64 {
        self.origin_bytes + self.origin_failed_bytes
    }

    /// Bytes the edge tier pulled (or tried to pull) from the regional
    /// tier, summed across nodes.
    pub fn edge_origin_demand_bytes(&self) -> u64 {
        self.nodes.iter().map(EdgeReport::origin_demand_bytes).sum()
    }
}

/// The outcome of a traced federation run: the report, the
/// federation-level trace (regional hits/misses, node failures,
/// re-homings) and one trace per node (bit-identical to what the node
/// would emit standing alone, fault-free tier aside).
#[derive(Debug, Clone)]
pub struct FederationRunReport {
    /// The federation's aggregate outcome.
    pub report: FederationReport,
    /// The federation-level trace.
    pub trace: Trace,
    /// Per-node traces, in canonical node order.
    pub node_traces: Vec<Trace>,
}

impl FederationRunReport {
    /// A single stable fingerprint over the federation trace and every
    /// node trace, in order. Two runs are byte-identical iff their
    /// combined digests match.
    pub fn combined_digest(&self) -> u64 {
        let mut h = self.trace.digest();
        for t in &self.node_traces {
            h = (h ^ t.digest()).wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Every trace's JSONL, federation first then nodes in order,
    /// separated by blank lines.
    pub fn combined_jsonl(&self) -> String {
        let mut out = self.trace.to_jsonl();
        for t in &self.node_traces {
            out.push('\n');
            out.push_str(&t.to_jsonl());
        }
        out
    }
}

// ---------------------------------------------------------------------
// Sharding: a seeded consistent-hash ring.
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv_words(seed: u64, words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for w in std::iter::once(seed).chain(words.iter().copied()) {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// The ring: `vnodes` points per node, sorted by hash. Ties (hash
/// collisions) break towards the lower node index, so the ring is a
/// total order.
fn ring_points(seed: u64, nodes: usize, vnodes: usize) -> Vec<(u64, u32)> {
    assert!(vnodes >= 1, "at least one virtual point per node");
    let mut points = Vec::with_capacity(nodes * vnodes);
    for node in 0..nodes as u64 {
        for replica in 0..vnodes as u64 {
            points.push((fnv_words(seed, &[0x4e4f_4445, node, replica]), node as u32));
        }
    }
    points.sort_unstable();
    points
}

fn client_point(seed: u64, spec: &EdgeClientSpec) -> u64 {
    fnv_words(
        seed,
        &[
            0x434c_4945_4e54,
            spec.arrival.as_nanos(),
            spec.seed,
            spec.weight as u64,
            spec.budget_bps.to_bits(),
            spec.content as u64,
        ],
    )
}

/// The first alive node clockwise of `point` on the ring.
fn home_for(points: &[(u64, u32)], alive: &[bool], point: u64) -> u32 {
    let start = points.partition_point(|&(h, _)| h < point);
    for i in 0..points.len() {
        let (_, node) = points[(start + i) % points.len()];
        if alive[node as usize] {
            return node;
        }
    }
    unreachable!("home_for requires at least one alive node");
}

// ---------------------------------------------------------------------
// The regional tier.
// ---------------------------------------------------------------------

/// The shared middle tier: one cache, one serialized leg per node, one
/// serialized origin leg. Answers every edge origin-fetch attempt via
/// [`EdgeSched::fetch_upstream`].
struct RegionalTier {
    cache: TileCache,
    node_links: Vec<SerialLink>,
    origin: SerialLink,
    faults: PathFaults,
    recovery: RecoveryPolicy,
    trace: TraceSink,
    ingress_bytes: u64,
    egress_bytes: u64,
    origin_bytes: u64,
    origin_failed_bytes: u64,
    origin_retries: u64,
    /// Bytes answered `Retry` and not yet resolved, per `(node, key)`.
    /// Settled as failed when the node dies or the horizon cuts the
    /// retry off — keeps `ok + failed == miss_bytes` exact always.
    pending: HashMap<(u32, CacheKey), u64>,
}

impl RegionalTier {
    fn fetch(
        &mut self,
        node: u32,
        key: CacheKey,
        bytes: u64,
        attempt: u32,
        now: SimTime,
    ) -> UpstreamDecision {
        if attempt == 1 {
            self.ingress_bytes += bytes;
            if self.cache.lookup(key, bytes) {
                self.trace.emit(TraceEvent::RegionalCacheHit {
                    at: now,
                    node,
                    tile: key.tile,
                    chunk: key.chunk,
                    layer: key.layer,
                    bytes,
                });
                let at = self.node_links[node as usize].transmit(bytes, now);
                self.egress_bytes += bytes;
                return UpstreamDecision::Deliver(at);
            }
            self.trace.emit(TraceEvent::RegionalCacheMiss {
                at: now,
                node,
                tile: key.tile,
                chunk: key.chunk,
                layer: key.layer,
                bytes,
            });
        }
        // Forward the miss to the shared origin. Retries re-enter here
        // with attempt > 1 and skip the cache (the miss is already
        // recorded once — the balance stays exact).
        if self.faults.is_down(now) {
            self.trace.emit(TraceEvent::TransferTimedOut {
                at: now,
                path: node,
                bytes,
                attempt,
            });
            if attempt <= self.recovery.max_retries {
                let delay = self.recovery.delay_after(attempt);
                self.trace.emit(TraceEvent::RetryScheduled {
                    at: now,
                    path: node,
                    bytes,
                    attempt: attempt + 1,
                    delay_ms: delay.as_nanos() / 1_000_000,
                });
                self.origin_retries += 1;
                self.pending.insert((node, key), bytes);
                return UpstreamDecision::Retry {
                    at: now + delay,
                    attempt: attempt + 1,
                };
            }
            self.pending.remove(&(node, key));
            self.origin_failed_bytes += bytes;
            return UpstreamDecision::Failed;
        }
        self.pending.remove(&(node, key));
        // Cut-through: the object reaches the regional tier when the
        // origin leg delivers it, then traverses the node's own leg.
        let at_regional = self.origin.transmit(bytes, now);
        self.origin_bytes += bytes;
        self.cache.insert(key, bytes);
        let at = self.node_links[node as usize].transmit(bytes, at_regional);
        self.egress_bytes += bytes;
        UpstreamDecision::Deliver(at)
    }

    /// Write off every pending retry for `node` (None = all nodes) as
    /// failed — the matching edge-side fetches were written off too.
    fn fail_pending(&mut self, node: Option<u32>) {
        let keys: Vec<(u32, CacheKey)> = self
            .pending
            .keys()
            .filter(|(n, _)| node.is_none_or(|dead| *n == dead))
            .copied()
            .collect();
        for k in keys {
            let bytes = self.pending.remove(&k).expect("key just listed");
            self.origin_failed_bytes += bytes;
        }
    }
}

// ---------------------------------------------------------------------
// The merged replay.
// ---------------------------------------------------------------------

/// One event in the federation's merged `(time, seq)` order.
#[derive(Debug, Clone, Copy)]
enum FedEvent {
    /// A client-addressed event (arrive / decide / display): routed to
    /// the client's *current* home node at dispatch time, so re-homed
    /// clients' remaining schedule follows them to the survivor.
    Client(EdgeEvent),
    /// A node-addressed event (origin completions, retries, prefetch):
    /// dropped if the node died before it fired.
    Node { node: u32, ev: EdgeEvent },
    /// A scripted crash-stop.
    NodeDown { node: u32 },
}

/// The per-node scheduling surface during replay: dynamic pushes carry
/// the node tag, and origin fetches resolve at the shared tier.
struct FedSched<'q, 't> {
    now: SimTime,
    node: u32,
    queue: &'q mut ReplayQueue<FedEvent>,
    tier: &'t mut RegionalTier,
}

impl EdgeSched for FedSched<'_, '_> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn at(&mut self, at: SimTime, event: EdgeEvent) {
        self.queue.push(
            at,
            FedEvent::Node {
                node: self.node,
                ev: event,
            },
        );
    }
    fn fetch_upstream(
        &mut self,
        key: CacheKey,
        bytes: u64,
        attempt: u32,
        now: SimTime,
    ) -> UpstreamDecision {
        self.tier.fetch(self.node, key, bytes, attempt, now)
    }
}

// ---------------------------------------------------------------------
// Population helpers.
// ---------------------------------------------------------------------

/// A flash-crowd population: `base` evenly spaced early viewers of one
/// broadcast, then `surge` more piling in from `surge_at` onwards at
/// `surge_spacing` intervals. Everyone watches title 0.
pub fn flash_crowd_clients(
    config: &EdgeConfig,
    base: usize,
    surge: usize,
    surge_at: SimDuration,
    surge_spacing: SimDuration,
) -> Vec<EdgeClientSpec> {
    let mut out = Vec::with_capacity(base + surge);
    for i in 0..base {
        out.push(EdgeClientSpec {
            arrival: config.arrival_spacing * i as u64,
            seed: config.seed.wrapping_add(i as u64),
            weight: if i % 4 == 3 { 2 } else { 1 },
            budget_bps: config.per_client_budget_bps,
            content: 0,
        });
    }
    for i in 0..surge {
        out.push(EdgeClientSpec {
            arrival: surge_at + surge_spacing * i as u64,
            seed: config.seed.wrapping_add((base + i) as u64) ^ 0x5eed,
            weight: 1,
            budget_bps: config.per_client_budget_bps,
            content: 0,
        });
    }
    out
}

/// A multi-title population with Zipf(`exponent`) popularity over
/// `titles` catalog entries: each client's title is drawn by seeded
/// inverse-CDF, so title 0 dominates and the tail thins out.
pub fn zipf_catalog_clients(
    config: &EdgeConfig,
    clients: usize,
    titles: u16,
    exponent: f64,
) -> Vec<EdgeClientSpec> {
    assert!(titles >= 1, "the catalog needs at least one title");
    let weights: Vec<f64> = (0..titles)
        .map(|t| 1.0 / ((t + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    (0..clients)
        .map(|i| {
            let u = (fnv_words(config.seed, &[0x5a49_5046, i as u64]) >> 11) as f64
                / (1u64 << 53) as f64;
            let mut acc = 0.0;
            let mut content = titles - 1;
            for (t, w) in weights.iter().enumerate() {
                acc += w / total;
                if u < acc {
                    content = t as u16;
                    break;
                }
            }
            EdgeClientSpec {
                arrival: config.arrival_spacing * i as u64,
                seed: config.seed.wrapping_add(i as u64),
                weight: 1,
                budget_bps: config.per_client_budget_bps,
                content,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------

/// Run a federation: shard `clients` across the config's node layout,
/// sense every client's pure plan on `workers` threads (0 = machine
/// default), then replay the merged event order serially through the
/// per-node worlds and the shared regional tier. `workers` only sizes
/// the sense phase; replay always runs on the calling thread.
///
/// The returned report and every trace byte are a pure function of
/// `(video, config, clients, harness scripts)` — invariant to worker
/// count and to the declaration order of both clients and nodes. An
/// empty population runs to a report with no clients and zero bytes
/// at every tier.
pub fn run_federation(
    video: &VideoModel,
    config: &FederationConfig,
    clients: &[EdgeClientSpec],
    harness: &FederationHarness,
    mut metrics: Option<&mut MetricsRegistry>,
    workers: usize,
) -> FederationRunReport {
    let layout = config.node_layout();
    let node_count = layout.len();

    let mut specs = clients.to_vec();
    specs.sort_by_key(EdgeClientSpec::canonical_key);
    let chunks = video.chunk_count();
    // An empty population has no last arrival; its horizon is the
    // video's own.
    let last_arrival = specs.last().map_or(SimDuration::ZERO, |s| s.arrival);
    let horizon = edge_horizon(video, last_arrival);

    // --- Sharding: home node and admission per client, pure functions
    // of the config and the canonical orders.
    let points = ring_points(config.seed, node_count, config.vnodes);
    let all_alive = vec![true; node_count];
    let client_points: Vec<u64> = specs.iter().map(|s| client_point(config.seed, s)).collect();
    let mut home: Vec<u32> = client_points
        .iter()
        .map(|&p| home_for(&points, &all_alive, p))
        .collect();
    let mut residents = vec![0usize; node_count];
    let admitted_at_home: Vec<bool> = specs
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let n = home[i] as usize;
            residents[n] += 1;
            residents[n] <= layout[n].max_clients
        })
        .collect();

    // --- Sense phase: identical kernel to the single-edge batched
    // engine, sharded by client index — worker-count blind.
    let session = video.duration() + SimDuration::from_secs(5);
    let attention = AttentionModel::generic(config.node.seed);
    let report_delay = CrowdAggregator::new(*video.grid(), video.chunk_duration()).report_delay;
    let specs_ref = &specs;
    let admitted_ref = &admitted_at_home;
    let batches: Vec<ClientBatch> = parallel_indexed(specs.len(), workers, |i| {
        sense_client(
            video,
            &config.node,
            &attention,
            &specs_ref[i],
            admitted_ref[i],
            session,
            report_delay,
            None,
        )
    });

    // --- Assemble per-node worlds. Every world holds the full global
    // client vector (indices are federation-wide); only its own
    // admitted residents get egress queues. Crowds merge local reports
    // at full fidelity and, when sharing is on, remote reports shifted
    // by the sync delay — restricted to titles the node itself serves.
    let fed_sink = TraceSink::with_level(harness.trace);
    let node_sinks: Vec<TraceSink> = (0..node_count)
        .map(|_| TraceSink::with_level(harness.trace))
        .collect();
    let mut worlds: Vec<EdgeWorld<'_>> = Vec::with_capacity(node_count);
    let mut node_first_arrival: Vec<Option<SimDuration>> = vec![None; node_count];
    for (n, spec) in layout.iter().enumerate() {
        let node_config = EdgeConfig {
            egress_bps: spec.egress_bps,
            cache_bytes: spec.cache_bytes,
            max_clients: spec.max_clients,
            ..config.node
        };
        let mut egress = WrrLink::new(node_config.egress_bps);
        let mut crowds: Vec<(u16, CrowdAggregator)> = Vec::new();
        let node_contents: Vec<u16> = {
            let mut c: Vec<u16> = specs
                .iter()
                .enumerate()
                .filter(|&(i, _)| home[i] as usize == n && admitted_at_home[i])
                .map(|(_, s)| s.content)
                .collect();
            c.sort_unstable();
            c.dedup();
            c
        };
        let states: Vec<ClientState> = specs
            .iter()
            .enumerate()
            .map(|(i, cspec)| {
                let local = home[i] as usize == n;
                if local && node_first_arrival[n].is_none() {
                    node_first_arrival[n] = Some(cspec.arrival);
                }
                let admitted = local && admitted_at_home[i];
                let link_id = admitted.then(|| egress.add_client(cspec.weight));
                if admitted {
                    crowd_slot(
                        &mut crowds,
                        video.grid(),
                        video.chunk_duration(),
                        cspec.content,
                    )
                    .ingest_reports(batches[i].reports.clone());
                } else if config.share_heatmaps
                    && admitted_at_home[i]
                    && node_contents.binary_search(&cspec.content).is_ok()
                {
                    crowd_slot(
                        &mut crowds,
                        video.grid(),
                        video.chunk_duration(),
                        cspec.content,
                    )
                    .ingest_reports_delayed(&batches[i].reports, config.sync_delay);
                }
                ClientState::new(*cspec, batches[i].head.clone(), admitted, link_id)
            })
            .collect();
        let node_harness = EdgeHarness {
            trace: node_sinks[n].clone(),
            ..Default::default()
        };
        let mut world = EdgeWorld::new(video, node_config, states, egress, crowds, &node_harness);
        world.precompute_sizes();
        worlds.push(world);
    }

    // --- Prefetch plans per node per chunk, from the node's own fully
    // ingested crowds (event times are static, so this is exact).
    // [node][chunk] → per-content predicted tile groups.
    type PrefetchPlan = Vec<Vec<(u16, Vec<TileId>)>>;
    let prefetch_groups: Vec<PrefetchPlan> = (0..node_count)
        .map(|n| {
            let Some(first) = node_first_arrival[n] else {
                return Vec::new();
            };
            if !config.node.prefetch {
                return Vec::new();
            }
            let report_lag = first + SimDuration::from_millis(250) + video.chunk_duration();
            (0..chunks)
                .map(|c| {
                    let at = video.chunk_start(ChunkTime(c)) + report_lag;
                    worlds[n]
                        .crowds
                        .iter()
                        .map(|(content, crowd)| {
                            (
                                *content,
                                crowd.predicted_tiles(at, ChunkTime(c), config.node.prefetch_k),
                            )
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    // --- The shared regional tier.
    let mut tier = RegionalTier {
        cache: TileCache::new(config.regional_bytes),
        node_links: (0..node_count)
            .map(|_| SerialLink::new(config.regional_bps, config.regional_rtt))
            .collect(),
        origin: SerialLink::new(config.node.origin_bps, config.node.origin_rtt),
        faults: harness.origin_faults.compile_for(0),
        recovery: harness.recovery,
        trace: fed_sink.clone(),
        ingress_bytes: 0,
        egress_bytes: 0,
        origin_bytes: 0,
        origin_failed_bytes: 0,
        origin_retries: 0,
        pending: HashMap::new(),
    };

    // --- Static schedule, in the exact single-edge order per client so
    // a 1-node federation's sequence numbering (and therefore its
    // trace) is bit-identical to the plain edge engines.
    let mut queue: ReplayQueue<FedEvent> = ReplayQueue::new();
    for (i, spec) in specs.iter().enumerate() {
        let client = i as u32;
        queue.push_static(
            SimTime::ZERO + spec.arrival,
            FedEvent::Client(EdgeEvent::Arrive { client }),
        );
        if !admitted_at_home[i] {
            continue;
        }
        for c in 0..chunks {
            let display = SimTime::ZERO + spec.arrival + video.chunk_duration() * (c + 1) as u64;
            let decide = SimTime::from_nanos(
                display
                    .as_nanos()
                    .saturating_sub(config.node.fetch_lead.as_nanos()),
            );
            queue.push_static(
                decide,
                FedEvent::Client(EdgeEvent::Decide { client, chunk: c }),
            );
            queue.push_static(
                display,
                FedEvent::Client(EdgeEvent::Display { client, chunk: c }),
            );
        }
    }
    if config.node.prefetch {
        for (n, arrival) in node_first_arrival.iter().enumerate() {
            let Some(first) = *arrival else {
                continue;
            };
            let report_lag = first + SimDuration::from_millis(250) + video.chunk_duration();
            for c in 0..chunks {
                queue.push_static(
                    video.chunk_start(ChunkTime(c)) + report_lag,
                    FedEvent::Node {
                        node: n as u32,
                        ev: EdgeEvent::Prefetch { chunk: c },
                    },
                );
            }
        }
    }
    for n in 0..node_count {
        let node_faults = harness.node_faults.compile_for(n);
        if let Some(at) = node_faults.first_outage_start_within(SimTime::ZERO, horizon) {
            queue.push_static(at, FedEvent::NodeDown { node: n as u32 });
        }
    }
    queue.seal();

    // --- Replay: one merged (time, seq) order across all nodes, popped
    // one event at a time on this thread. Replay is serial for every
    // worker count, so its bytes cannot depend on `workers`.
    let mut alive = vec![true; node_count];
    let mut rehomed = 0u64;
    let mut failed_nodes = 0u64;
    let mut lost_egress_bytes = 0u64;
    let mut lost_streams = 0u64;
    while let Some(t) = queue.peek_time() {
        if t > horizon {
            break;
        }
        let (now, fev) = queue.pop().expect("peeked non-empty");
        let (node, ev) = match fev {
            FedEvent::NodeDown { node } => {
                let n = node as usize;
                if !alive[n] {
                    continue;
                }
                alive[n] = false;
                assert!(
                    alive.iter().any(|&a| a),
                    "a federation needs at least one surviving node"
                );
                failed_nodes += 1;
                let wreck = worlds[n].abandon(now);
                lost_egress_bytes += wreck.lost_egress_bytes;
                lost_streams += wreck.lost_streams;
                fed_sink.emit(TraceEvent::NodeFailed { at: now, node });
                tier.fail_pending(Some(node));
                for c in 0..specs.len() {
                    if home[c] != node {
                        continue;
                    }
                    let to = home_for(&points, &alive, client_points[c]);
                    home[c] = to;
                    if worlds[n].clients[c].admitted {
                        let (delivered, planned) = worlds[n].take_client_session(c as u32);
                        worlds[to as usize].install_client_session(c as u32, delivered, planned);
                    }
                    fed_sink.emit(TraceEvent::ClientRehomed {
                        at: now,
                        client: c as u32,
                        from_node: node,
                        to_node: to,
                    });
                    rehomed += 1;
                }
                continue;
            }
            FedEvent::Client(ev) => {
                let client = match ev {
                    EdgeEvent::Arrive { client }
                    | EdgeEvent::Decide { client, .. }
                    | EdgeEvent::Display { client, .. } => client,
                    _ => unreachable!("only client-addressed events carry the Client tag"),
                };
                (home[client as usize], ev)
            }
            FedEvent::Node { node, ev } => (node, ev),
        };
        if !alive[node as usize] {
            continue;
        }
        let world = &mut worlds[node as usize];
        world.drain_egress(now);
        let mut sched = FedSched {
            now,
            node,
            queue: &mut queue,
            tier: &mut tier,
        };
        match ev {
            EdgeEvent::Arrive { client } => world.apply_arrive(client, now),
            EdgeEvent::Decide { client, chunk } => {
                let decides = &batches[client as usize].decides;
                world.apply_decide(client, chunk, &decides[chunk as usize], &mut sched);
            }
            EdgeEvent::Display { client, chunk } => {
                let displays = &batches[client as usize].displays;
                world.apply_display(client, chunk, &displays[chunk as usize]);
            }
            EdgeEvent::OriginArrived { chunk, tile, layer } => {
                world.apply_origin_arrived(chunk, tile, layer, now)
            }
            EdgeEvent::OriginRetry {
                chunk,
                tile,
                layer,
                attempt,
            } => world.apply_origin_retry(chunk, tile, layer, attempt, &mut sched),
            EdgeEvent::Prefetch { chunk } => {
                if config.node.prefetch {
                    world.apply_prefetch(
                        chunk,
                        &prefetch_groups[node as usize][chunk as usize],
                        &mut sched,
                    );
                }
            }
        }
    }

    // --- Settle: retries the horizon cut off fail at the tier exactly
    // as the matching edge in-flight entries fail in finish_edge_run.
    tier.fail_pending(None);

    let mut node_reports = Vec::with_capacity(node_count);
    let mut admitted_total = 0usize;
    for (n, world) in worlds.into_iter().enumerate() {
        let clients_n = home.iter().filter(|&&h| h as usize == n).count();
        let admitted_n = world.clients.iter().filter(|c| c.admitted).count();
        let rejected_n = clients_n - admitted_n;
        admitted_total += admitted_n;
        node_reports.push(finish_edge_run(
            world,
            clients_n,
            admitted_n,
            rejected_n,
            metrics.as_deref_mut(),
        ));
    }

    let regional = tier.cache.stats();
    if let Some(registry) = metrics {
        registry
            .counter("federation.regional.hits")
            .add(regional.hits);
        registry
            .counter("federation.regional.misses")
            .add(regional.misses);
        registry
            .counter("federation.regional.hit_bytes")
            .add(regional.hit_bytes);
        registry
            .counter("federation.regional.miss_bytes")
            .add(regional.miss_bytes);
        registry
            .counter("federation.regional.ingress_bytes")
            .add(tier.ingress_bytes);
        registry
            .counter("federation.regional.egress_bytes")
            .add(tier.egress_bytes);
        registry
            .counter("federation.origin.bytes")
            .add(tier.origin_bytes);
        registry
            .counter("federation.origin.failed_bytes")
            .add(tier.origin_failed_bytes);
        registry
            .counter("federation.origin.retries")
            .add(tier.origin_retries);
        registry.counter("federation.clients.rehomed").add(rehomed);
        registry
            .counter("federation.nodes.failed")
            .add(failed_nodes);
        registry
            .counter("federation.egress.lost_bytes")
            .add(lost_egress_bytes);
        registry
            .counter("federation.egress.lost_streams")
            .add(lost_streams);
    }

    let report = FederationReport {
        nodes: node_reports,
        clients: specs.len(),
        admitted: admitted_total,
        rejected: specs.len() - admitted_total,
        regional,
        regional_ingress_bytes: tier.ingress_bytes,
        regional_egress_bytes: tier.egress_bytes,
        origin_bytes: tier.origin_bytes,
        origin_failed_bytes: tier.origin_failed_bytes,
        origin_retries: tier.origin_retries,
        rehomed,
        failed_nodes,
        lost_egress_bytes,
    };
    // The tier holds the last live clone of the federation sink; drop it
    // so `into_trace` takes the zero-copy move instead of a snapshot.
    drop(tier);
    FederationRunReport {
        report,
        trace: fed_sink.into_trace(),
        node_traces: node_sinks.into_iter().map(TraceSink::into_trace).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_total() {
        let a = ring_points(7, 4, 16);
        let b = ring_points(7, 4, 16);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(a, sorted, "ring points must come out sorted");
        // Every node owns at least one point at this vnode count.
        for n in 0..4u32 {
            assert!(a.iter().any(|&(_, owner)| owner == n));
        }
    }

    #[test]
    fn rehoming_skips_dead_nodes() {
        let points = ring_points(7, 3, 16);
        let alive_all = vec![true; 3];
        let mut one_dead = alive_all.clone();
        let spec = EdgeClientSpec {
            arrival: SimDuration::from_millis(125),
            seed: 42,
            weight: 1,
            budget_bps: 8e6,
            content: 0,
        };
        let p = client_point(7, &spec);
        let before = home_for(&points, &alive_all, p);
        one_dead[before as usize] = false;
        let after = home_for(&points, &one_dead, p);
        assert_ne!(before, after, "a dead home must be skipped");
        // Clients homed elsewhere keep their home when this node dies.
        for probe in 0..200u64 {
            let q = fnv_words(11, &[probe]);
            let h = home_for(&points, &alive_all, q);
            if h != before {
                assert_eq!(h, home_for(&points, &one_dead, q));
            }
        }
    }

    #[test]
    fn zipf_catalog_is_front_loaded() {
        let cfg = EdgeConfig::default();
        let specs = zipf_catalog_clients(&cfg, 200, 6, 1.1);
        assert_eq!(specs.len(), 200);
        let count = |t: u16| specs.iter().filter(|s| s.content == t).count();
        assert!(count(0) > count(5), "title 0 must dominate the tail");
        assert!(specs.iter().all(|s| s.content < 6));
    }

    #[test]
    fn node_layout_is_declaration_order_invariant() {
        let a = NodeSpec {
            egress_bps: 200e6,
            cache_bytes: 64 << 20,
            max_clients: 32,
        };
        let b = NodeSpec {
            egress_bps: 400e6,
            cache_bytes: 256 << 20,
            max_clients: 64,
        };
        let fwd = FederationConfig {
            node_specs: vec![a, b],
            ..Default::default()
        };
        let rev = FederationConfig {
            node_specs: vec![b, a],
            ..Default::default()
        };
        assert_eq!(fwd.node_layout(), rev.node_layout());
    }
}
