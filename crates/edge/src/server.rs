//! The edge-server world: N concurrent player sessions, one shared
//! egress, one shared cache, one origin backhaul.
//!
//! §2's per-viewer savings compound at the edge: concurrent viewers of
//! the same panorama overwhelmingly watch the same tiles (that is the
//! premise of crowd-driven HMP, §3.4.2), so an edge node that caches
//! tile-chunk layers serves most requests without touching the origin.
//! This module models that node as a deterministic discrete-event
//! world:
//!
//! * every client is a FoV-guided player (motion-only HMP + stochastic
//!   SVC selection, as in `sperke-core`'s fleet) arriving at its own
//!   offset;
//! * admission control caps concurrent clients at
//!   [`EdgeConfig::max_clients`] — beyond it, clients are rejected and
//!   traced, never silently dropped;
//! * the egress is a [`WrrLink`]: weighted round-robin between clients,
//!   so one viewer's deep queue cannot starve the others;
//! * misses go to the origin over a serialized backhaul that can fail
//!   per a [`FaultScript`] and recovers under the same
//!   [`RecoveryPolicy`] machinery as the multipath layer;
//! * under egress pressure the planner degrades gracefully, shedding
//!   SVC enhancement layers before base layers (§3.1.1's rationale for
//!   scalable coding);
//! * a crowd prefetcher feeds attached clients' head traces into the
//!   live [`CrowdAggregator`] and pre-warms the cache with the tiles
//!   the crowd is about to watch.
//!
//! The whole run is a pure function of `(config, clients, faults,
//! seed)`: reports compare bit-for-bit and traces digest identically
//! whatever order clients were supplied in (they are canonicalised
//! first).

use crate::cache::{CacheKey, TileCache, TileCacheStats};
use serde::{Deserialize, Serialize};
use sperke_geo::{Orientation, TileGrid, TileId, Viewport};
use sperke_hmp::{
    generate_ensemble_member, AttentionModel, ForecastScratch, FusedForecaster, HeadTrace,
};
use sperke_live::{CrowdAggregator, LiveViewer};
use sperke_net::{
    BbrConfig, BbrState, FaultScript, GeChain, LossChannel, PathFaults, RecoveryPolicy, StreamId,
    WrrLink,
};
use sperke_player::QoeWeights;
use sperke_sim::{
    MetricsRegistry, RunOutcome, Scheduler, SimDuration, SimRng, SimTime, Simulation, TraceEvent,
    TraceSink, World,
};
use sperke_video::{CellId, CellSizes, ChunkTime, Layer, Quality, Scheme, VideoModel};
use sperke_vra::{select_stochastic, AbrPolicyKind, PolicyInput, StochasticChoice};
use std::collections::HashMap;

/// Edge experiment parameters. Everything that shapes the run is here
/// (plus the optional [`EdgeHarness`]); the report is a pure function
/// of this struct, the video and the client set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeConfig {
    /// Clients that try to attach.
    pub clients: usize,
    /// Admission cap: concurrent clients the edge will serve.
    pub max_clients: usize,
    /// Arrival spacing for the default client population.
    pub arrival_spacing: SimDuration,
    /// Shared egress capacity towards clients, bits/second.
    pub egress_bps: f64,
    /// Origin backhaul capacity, bits/second (serialized FIFO).
    pub origin_bps: f64,
    /// Origin round-trip added to every backhaul fetch.
    pub origin_rtt: SimDuration,
    /// Tile cache capacity in bytes; 0 disables caching (the
    /// independent-sessions baseline).
    pub cache_bytes: u64,
    /// Per-client planning budget, bits/second.
    pub per_client_budget_bps: f64,
    /// How far before display a client plans a chunk.
    pub fetch_lead: SimDuration,
    /// Enable crowd-driven cache pre-warming.
    pub prefetch: bool,
    /// Tiles per chunk the prefetcher pulls (top-k of the crowd map).
    pub prefetch_k: usize,
    /// Highest SVC layer index the prefetcher pulls (inclusive).
    pub prefetch_layers: u8,
    /// Egress backlog above which decides shed enhancement layers.
    pub degrade_backlog: SimDuration,
    /// Seed for the client population's head movement.
    pub seed: u64,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            clients: 16,
            max_clients: 64,
            arrival_spacing: SimDuration::from_millis(250),
            egress_bps: 400e6,
            origin_bps: 80e6,
            origin_rtt: SimDuration::from_millis(30),
            cache_bytes: 256 << 20,
            per_client_budget_bps: 8e6,
            fetch_lead: SimDuration::from_secs(2),
            prefetch: true,
            prefetch_k: 6,
            prefetch_layers: 1,
            degrade_backlog: SimDuration::from_millis(600),
            seed: 7,
        }
    }
}

/// One client attaching to the edge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeClientSpec {
    /// When the client attaches (wall clock; also its playback offset).
    pub arrival: SimDuration,
    /// Seed selecting its head-movement trace.
    pub seed: u64,
    /// Egress scheduling weight (≥ 1).
    pub weight: u32,
    /// Its planning budget, bits/second.
    pub budget_bps: f64,
    /// Which catalog title the client watches. Titles share one encoding
    /// profile (the run's [`VideoModel`]) but occupy disjoint cache
    /// namespaces and disjoint crowd heatmaps; `0` is the single-title
    /// default and changes nothing.
    pub content: u16,
}

impl EdgeClientSpec {
    /// The canonical total order: arrival, then seed, weight, budget
    /// bits and content. Runs sort client sets by this key, so the
    /// trace and report are invariant to the order clients were
    /// supplied in. Content sorts last: single-title populations order
    /// exactly as they did before the field existed.
    pub(crate) fn canonical_key(&self) -> (u64, u64, u32, u64, u16) {
        (
            self.arrival.as_nanos(),
            self.seed,
            self.weight,
            self.budget_bps.to_bits(),
            self.content,
        )
    }
}

/// The default client population for a config: evenly spaced arrivals,
/// per-client seeds, a mild weight skew (every fourth client is a
/// premium subscriber at weight 2).
pub fn default_clients(config: &EdgeConfig) -> Vec<EdgeClientSpec> {
    (0..config.clients)
        .map(|i| EdgeClientSpec {
            arrival: config.arrival_spacing * i as u64,
            seed: config.seed.wrapping_add(i as u64),
            weight: if i % 4 == 3 { 2 } else { 1 },
            budget_bps: config.per_client_budget_bps,
            content: 0,
        })
        .collect()
}

/// Content-namespace salt: the catalog title occupies the top 16 bits
/// of a cache key's chunk field, so titles never collide in shared
/// caches (edge or regional). Identity for title 0.
pub(crate) const CONTENT_SHIFT: u32 = 16;

/// Fold a title into a chunk index to form the cache-key namespace.
pub(crate) fn salted_chunk(chunk: u32, content: u16) -> u32 {
    chunk | (content as u32) << CONTENT_SHIFT
}

/// The chunk index back out of a salted cache-key chunk field.
pub(crate) fn chunk_of(salted: u32) -> u32 {
    salted & ((1 << CONTENT_SHIFT) - 1)
}

/// Non-serializable run dependencies: trace sink, fault script,
/// recovery policy, origin estimator and loss channel, and the decide
/// policy. Kept out of [`EdgeConfig`] so configs stay plain data for
/// sweeps.
#[derive(Debug, Clone, Default)]
pub struct EdgeHarness {
    /// Event sink (disabled by default).
    pub trace: TraceSink,
    /// Origin backhaul faults (path 0 of the script).
    pub faults: FaultScript,
    /// Retry policy for failed origin fetches.
    pub recovery: RecoveryPolicy,
    /// Probe the origin backhaul with a BBR-style estimator and pace
    /// fetches at the measured rate (clamped to the declared capacity).
    /// Off by default: declared pacing keeps golden digests stable.
    pub bbr: bool,
    /// Loss model for origin fetch attempts. The default
    /// [`LossChannel::Declared`] keeps the legacy fault-script-only
    /// behaviour; a Gilbert–Elliott channel adds seeded bursty failures
    /// on its own split RNG stream.
    pub origin_loss: LossChannel,
    /// Viewport-adaptation policy planning client decides. `None` (the
    /// default) keeps the hardwired stochastic-knapsack path
    /// byte-for-byte; [`AbrPolicyKind::Knapsack`] and
    /// [`AbrPolicyKind::Sperke`] reproduce it exactly through the
    /// policy machinery.
    pub policy: Option<AbrPolicyKind>,
}

/// Aggregate outcome of an edge run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeReport {
    /// Clients that tried to attach.
    pub clients: usize,
    /// Clients admitted (≤ `max_clients`, always).
    pub admitted: usize,
    /// Clients rejected by admission control.
    pub rejected: usize,
    /// Bytes delivered to clients over the shared egress.
    pub egress_bytes: u64,
    /// Bytes successfully fetched from the origin (demand + prefetch).
    pub origin_bytes: u64,
    /// Bytes of origin fetches abandoned after exhausting retries.
    pub origin_failed_bytes: u64,
    /// Origin retry attempts scheduled.
    pub origin_retries: u64,
    /// Cache counters (hits, misses, evictions, prefetches).
    pub cache: TileCacheStats,
    /// Mean viewport utility across displays.
    pub mean_viewport_utility: f64,
    /// Mean blank viewport fraction across displays.
    pub mean_blank_fraction: f64,
    /// Decides that shed layers under egress pressure.
    pub degraded_decides: u64,
    /// Displays that showed less than the planned quality.
    pub degraded_displays: u64,
    /// Fraction of delivered streams that finished after their display.
    pub late_stream_fraction: f64,
    /// Composite QoE score under the player's default weights.
    pub qoe_score: f64,
}

impl EdgeReport {
    /// All bytes the edge pulled (or tried to pull) upstream — the
    /// number a CDN operator pays for. Balances exactly against cache
    /// accounting: `miss_bytes + prefetch_bytes`.
    pub fn origin_demand_bytes(&self) -> u64 {
        self.origin_bytes + self.origin_failed_bytes
    }
}

/// What the upstream tier decided about one origin-fetch attempt. The
/// default [`UpstreamDecision::Local`] keeps the fetch on the world's
/// own origin path (the single-edge model); a federation scheduler
/// intercepts it and answers from the regional tier instead.
pub(crate) enum UpstreamDecision {
    /// No upstream tier: run the world's own origin backhaul logic.
    Local,
    /// The tier will deliver the object at `at` (regional hit, or a
    /// miss forwarded through the shared origin).
    Deliver(SimTime),
    /// The tier's origin leg is down; retry as `attempt` at `at`.
    Retry {
        /// When the retry fires.
        at: SimTime,
        /// The upcoming attempt number.
        attempt: u32,
    },
    /// The tier abandoned the fetch (retry budget exhausted).
    Failed,
}

/// The scheduling surface the edge world's handlers need: current time
/// plus the ability to post future events. Implemented by the oracle's
/// [`Scheduler`] (heap-backed [`Simulation`]) and by the batched
/// engine's replay cursor, so both engines execute the *same* stateful
/// apply code — bit-exact equivalence by construction. A federation
/// scheduler additionally overrides [`EdgeSched::fetch_upstream`] to
/// route origin fetches through the shared regional tier.
pub(crate) trait EdgeSched {
    /// The current simulation time.
    fn now(&self) -> SimTime;
    /// Schedule `event` at absolute time `at`.
    fn at(&mut self, at: SimTime, event: EdgeEvent);
    /// Ask the upstream tier (if any) to resolve an origin fetch. The
    /// default says "no tier": the world's own backhaul code runs,
    /// keeping every single-edge engine byte-identical by construction.
    fn fetch_upstream(
        &mut self,
        _key: CacheKey,
        _bytes: u64,
        _attempt: u32,
        _now: SimTime,
    ) -> UpstreamDecision {
        UpstreamDecision::Local
    }
}

impl EdgeSched for Scheduler<'_, EdgeEvent> {
    fn now(&self) -> SimTime {
        Scheduler::now(self)
    }
    fn at(&mut self, at: SimTime, event: EdgeEvent) {
        Scheduler::at(self, at, event);
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum EdgeEvent {
    /// A client attaches (admitted or rejected).
    Arrive { client: u32 },
    /// Client `c` plans chunk `chunk`'s layers.
    Decide { client: u32, chunk: u32 },
    /// Client `c` displays chunk `chunk`.
    Display { client: u32, chunk: u32 },
    /// An origin fetch for one cache key completes.
    OriginArrived { chunk: u32, tile: u16, layer: u8 },
    /// A failed origin fetch retries.
    OriginRetry {
        chunk: u32,
        tile: u16,
        layer: u8,
        attempt: u32,
    },
    /// The crowd prefetcher considers chunk `chunk`.
    Prefetch { chunk: u32 },
}

pub(crate) struct ClientState {
    pub(crate) spec: EdgeClientSpec,
    pub(crate) head: HeadTrace,
    pub(crate) admitted: bool,
    /// WRR queue id; only admitted clients hold one.
    pub(crate) link_id: Option<u32>,
    /// Delivered SVC layers per cell, as a bitmask (bit i = layer i).
    pub(crate) delivered: HashMap<CellId, u32>,
    /// Planned quality per cell (display-time degradation check).
    pub(crate) planned: HashMap<CellId, u8>,
}

impl ClientState {
    /// A freshly attached client with nothing delivered or planned.
    pub(crate) fn new(
        spec: EdgeClientSpec,
        head: HeadTrace,
        admitted: bool,
        link_id: Option<u32>,
    ) -> ClientState {
        ClientState {
            spec,
            head,
            admitted,
            link_id,
            delivered: HashMap::new(),
            planned: HashMap::new(),
        }
    }
}

/// The aggregator for one catalog title inside a content-sorted group
/// list, created on first use. Insertion keeps the list sorted by
/// content id, so group order is a pure function of the client set.
pub(crate) fn crowd_slot<'c>(
    crowds: &'c mut Vec<(u16, CrowdAggregator)>,
    grid: &TileGrid,
    chunk_duration: SimDuration,
    content: u16,
) -> &'c mut CrowdAggregator {
    let idx = match crowds.binary_search_by_key(&content, |e| e.0) {
        Ok(i) => i,
        Err(i) => {
            crowds.insert(i, (content, CrowdAggregator::new(*grid, chunk_duration)));
            i
        }
    };
    &mut crowds[idx].1
}

/// The head trace the edge assigns to a client spec: one deterministic
/// member of the seed's behaviour ensemble (the mix keys off the seed).
pub(crate) fn client_head(
    attention: &AttentionModel,
    spec: &EdgeClientSpec,
    session: SimDuration,
) -> HeadTrace {
    generate_ensemble_member(attention, (spec.seed % 5) as usize, session, spec.seed)
}

/// The world-independent slice of a decide: gaze history → motion-only
/// forecast → SVC selection. Pure in its arguments, so the batched
/// engine precomputes it per (client, chunk) on worker threads; the
/// oracle engine calls it inline at the decide event. `now` is the
/// decide's wall-clock instant.
///
/// `policy` picks the planner: `None` is the hardwired stochastic
/// selector; `Some(kind)` plans through a rival from the
/// viewport-adaptation suite, with `prev` the client's previous-window
/// level vector, updated in place (decides run in chunk order per
/// client in both engines, so temporal policies see identical state
/// either way). Degenerate kinds reproduce `None` exactly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide_choices(
    video: &VideoModel,
    spec: &EdgeClientSpec,
    head: &HeadTrace,
    chunk: u32,
    now: SimTime,
    scratch: &mut ForecastScratch,
    history: &mut Vec<(SimTime, Orientation)>,
    policy: Option<AbrPolicyKind>,
    prev: &mut Vec<i8>,
) -> Vec<StochasticChoice> {
    let t = ChunkTime(chunk);
    let video_time = video.chunk_start(t);
    let own_now = SimTime::from_nanos(now.as_nanos().saturating_sub(spec.arrival.as_nanos()));
    let budget = (spec.budget_bps * video.chunk_duration().as_secs_f64() / 8.0) as u64;
    head.history_into(own_now, 50, history);
    let forecast = FusedForecaster::motion_only().forecast_with(
        video.grid(),
        history,
        own_now,
        video_time,
        t,
        scratch,
    );
    match policy {
        None => select_stochastic(video, &forecast, t, budget, Scheme::svc_default(), 0.05),
        Some(kind) => {
            let tile_count = video.grid().tile_count();
            let plan = kind.decide(&PolicyInput {
                video,
                forecast: &forecast,
                confidence: forecast.confidence(),
                time: t,
                buffer: video.chunk_duration(),
                budget_bytes: budget,
                capacity_bps: Some(spec.budget_bps),
                scheme: Scheme::svc_default(),
                min_probability: 0.05,
                prev: (prev.len() == tile_count).then_some(prev.as_slice()),
            });
            *prev = plan.levels(tile_count);
            plan.assignments
                .into_iter()
                .map(|a| StochasticChoice {
                    tile: a.tile,
                    quality: a.quality,
                })
                .collect()
        }
    }
}

/// The gaze a display samples: mid-chunk orientation in video time.
pub(crate) fn display_gaze(video: &VideoModel, head: &HeadTrace, chunk: u32) -> Orientation {
    let video_time = video.chunk_start(ChunkTime(chunk)) + video.chunk_duration() / 2;
    head.at(video_time)
}

struct Inflight {
    bytes: u64,
    /// Admitted clients waiting on this fetch, with their deadlines.
    waiters: Vec<(u32, SimTime)>,
}

struct PendingStream {
    client: u32,
    cell: CellId,
    layer: u8,
    deadline: SimTime,
}

/// RNG stream label for the origin's Gilbert–Elliott chain ("ORIGIN").
/// Splitting off the seed leaves every other draw untouched, so a
/// Declared-channel run is byte-identical to builds without the chain.
const EDGE_GE_STREAM: u64 = 0x4F52_4947_494E;

pub(crate) struct EdgeWorld<'a> {
    pub(crate) video: &'a VideoModel,
    pub(crate) config: EdgeConfig,
    pub(crate) clients: Vec<ClientState>,
    pub(crate) egress: WrrLink,
    cache: TileCache,
    inflight: HashMap<CacheKey, Inflight>,
    origin_busy_until: SimTime,
    /// Measured-capacity estimator for the origin backhaul (None when
    /// the harness leaves probing off).
    origin_bbr: Option<BbrState>,
    /// Gilbert–Elliott burst chain for origin fetch attempts (None for
    /// the declared channel).
    origin_ge: Option<GeChain>,
    faults: PathFaults,
    recovery: RecoveryPolicy,
    /// Crowd aggregators per catalog title, sorted by content id. A
    /// single-title run holds exactly one entry under content 0.
    pub(crate) crowds: Vec<(u16, CrowdAggregator)>,
    trace: TraceSink,
    pending: HashMap<StreamId, PendingStream>,
    /// Precomputed per-cell layer sizes, indexed `chunk * tiles + tile`;
    /// the batched engine fills it, the oracle computes per call.
    /// Either way the bytes are identical (the model is deterministic).
    sizes: Option<Vec<CellSizes>>,
    /// Reusable forecast/history buffers for inline decides.
    fscratch: ForecastScratch,
    hist: Vec<(SimTime, Orientation)>,
    /// Inline-decide policy ([`EdgeHarness::policy`]; see
    /// [`decide_choices`]).
    policy: Option<AbrPolicyKind>,
    /// Per-client previous-window levels for temporal policies.
    prev_levels: Vec<Vec<i8>>,
    // Accounting.
    origin_bytes: u64,
    origin_failed_bytes: u64,
    origin_retries: u64,
    egress_bytes: u64,
    streams_total: u64,
    streams_late: u64,
    utility_acc: f64,
    blank_acc: f64,
    displays: u64,
    degraded_decides: u64,
    degraded_displays: u64,
}

impl<'a> EdgeWorld<'a> {
    /// A fresh world over pre-built client states, egress and crowd
    /// aggregators (one per catalog title, sorted by content id).
    pub(crate) fn new(
        video: &'a VideoModel,
        config: EdgeConfig,
        clients: Vec<ClientState>,
        egress: WrrLink,
        crowds: Vec<(u16, CrowdAggregator)>,
        harness: &EdgeHarness,
    ) -> EdgeWorld<'a> {
        assert!(
            video.chunk_count() <= 1 << CONTENT_SHIFT,
            "chunk indices must fit under the content salt"
        );
        let prev_levels = vec![Vec::new(); clients.len()];
        EdgeWorld {
            video,
            config,
            clients,
            egress,
            cache: TileCache::new(config.cache_bytes),
            inflight: HashMap::new(),
            origin_busy_until: SimTime::ZERO,
            origin_bbr: harness.bbr.then(|| BbrState::new(BbrConfig::default())),
            origin_ge: match harness.origin_loss {
                LossChannel::Declared => None,
                ge @ LossChannel::GilbertElliott { .. } => Some(GeChain::new(
                    ge,
                    SimRng::new(config.seed).split(EDGE_GE_STREAM),
                )),
            },
            faults: harness.faults.compile_for(0),
            recovery: harness.recovery,
            crowds,
            trace: harness.trace.clone(),
            pending: HashMap::new(),
            sizes: None,
            fscratch: ForecastScratch::new(),
            hist: Vec::new(),
            policy: harness.policy,
            prev_levels,
            origin_bytes: 0,
            origin_failed_bytes: 0,
            origin_retries: 0,
            egress_bytes: 0,
            streams_total: 0,
            streams_late: 0,
            utility_acc: 0.0,
            blank_acc: 0.0,
            displays: 0,
            degraded_decides: 0,
            degraded_displays: 0,
        }
    }

    /// Tabulate every cell's SVC layer sizes up front so the hot loops
    /// index instead of re-deriving them. `cell_sizes` is a pure
    /// function of (tile, chunk), so lookups return the identical u64s.
    pub(crate) fn precompute_sizes(&mut self) {
        let tiles = self.video.grid().tile_count();
        let chunks = self.video.chunk_count();
        let mut table = Vec::with_capacity(tiles * chunks as usize);
        for c in 0..chunks {
            for t in 0..tiles {
                table.push(self.video.cell_sizes(TileId(t as u16), ChunkTime(c)));
            }
        }
        self.sizes = Some(table);
    }
}

impl EdgeWorld<'_> {
    fn key_of(cell: CellId, layer: u8, content: u16) -> CacheKey {
        CacheKey {
            chunk: salted_chunk(cell.time.0, content),
            tile: cell.tile.0,
            layer,
        }
    }

    fn layer_bytes(&self, cell: CellId, layer: u8) -> u64 {
        match &self.sizes {
            Some(table) => {
                let tiles = self.video.grid().tile_count();
                table[cell.time.0 as usize * tiles + cell.tile.index()].svc_layer(Layer(layer))
            }
            None => self
                .video
                .cell_sizes(cell.tile, cell.time)
                .svc_layer(Layer(layer)),
        }
    }

    pub(crate) fn display_wall(&self, client: u32, chunk: u32) -> SimTime {
        SimTime::ZERO
            + self.clients[client as usize].spec.arrival
            + self.video.chunk_duration() * (chunk + 1) as u64
    }

    /// Pull completed egress streams into client buffers.
    pub(crate) fn drain_egress(&mut self, now: SimTime) {
        for done in self.egress.run_until(now) {
            if let Some(p) = self.pending.remove(&done.id) {
                *self.clients[p.client as usize]
                    .delivered
                    .entry(p.cell)
                    .or_insert(0) |= 1u32 << p.layer;
                self.egress_bytes += done.bytes;
                if done.finished > p.deadline {
                    self.streams_late += 1;
                }
            }
        }
    }

    fn submit_egress(&mut self, client: u32, cell: CellId, layer: u8, bytes: u64, now: SimTime) {
        let Some(link_id) = self.clients[client as usize].link_id else {
            return;
        };
        let id = self.egress.submit(link_id, bytes, now);
        let deadline = self.display_wall(client, cell.time.0);
        self.pending.insert(
            id,
            PendingStream {
                client,
                cell,
                layer,
                deadline,
            },
        );
        self.streams_total += 1;
    }

    /// One client's request for one SVC layer: served from cache,
    /// coalesced onto an in-flight fetch, or fetched from the origin.
    fn request_layer(
        &mut self,
        client: u32,
        cell: CellId,
        layer: u8,
        now: SimTime,
        sched: &mut impl EdgeSched,
    ) {
        let content = self.clients[client as usize].spec.content;
        let key = Self::key_of(cell, layer, content);
        let bytes = self.layer_bytes(cell, layer);
        let deadline = self.display_wall(client, cell.time.0);
        if let Some(fl) = self.inflight.get_mut(&key) {
            // A fetch for this layer is already on the wire: share it.
            fl.waiters.push((client, deadline));
            self.cache.record_coalesced_hit(bytes);
            self.trace.emit(TraceEvent::EdgeCacheHit {
                at: now,
                tile: key.tile,
                chunk: key.chunk,
                layer,
                bytes,
            });
        } else if self.cache.lookup(key, bytes) {
            self.trace.emit(TraceEvent::EdgeCacheHit {
                at: now,
                tile: key.tile,
                chunk: key.chunk,
                layer,
                bytes,
            });
            self.submit_egress(client, cell, layer, bytes, now);
        } else {
            self.trace.emit(TraceEvent::EdgeCacheMiss {
                at: now,
                tile: key.tile,
                chunk: key.chunk,
                layer,
                bytes,
            });
            self.inflight.insert(
                key,
                Inflight {
                    bytes,
                    waiters: vec![(client, deadline)],
                },
            );
            self.start_origin_fetch(key, bytes, 1, now, sched);
        }
    }

    /// Submit one origin fetch attempt. A backhaul outage (scripted or
    /// rolled by the Gilbert–Elliott chain) at submit time fails the
    /// attempt; retries follow the recovery policy's backoff until the
    /// budget runs out, after which the fetch is abandoned. Successful
    /// attempts are paced at the BBR estimate when probing is on and
    /// feed the estimator a delivery-rate sample.
    fn start_origin_fetch(
        &mut self,
        key: CacheKey,
        bytes: u64,
        attempt: u32,
        now: SimTime,
        sched: &mut impl EdgeSched,
    ) {
        // A federation scheduler resolves the fetch at the regional
        // tier; the default Local answer falls through to the world's
        // own origin path untouched.
        match sched.fetch_upstream(key, bytes, attempt, now) {
            UpstreamDecision::Local => {}
            UpstreamDecision::Deliver(at) => {
                sched.at(
                    at,
                    EdgeEvent::OriginArrived {
                        chunk: key.chunk,
                        tile: key.tile,
                        layer: key.layer,
                    },
                );
                return;
            }
            UpstreamDecision::Retry { at, attempt } => {
                self.origin_retries += 1;
                sched.at(
                    at,
                    EdgeEvent::OriginRetry {
                        chunk: key.chunk,
                        tile: key.tile,
                        layer: key.layer,
                        attempt,
                    },
                );
                return;
            }
            UpstreamDecision::Failed => {
                self.inflight.remove(&key);
                self.origin_failed_bytes += bytes;
                return;
            }
        }
        // Tick the burst chain up to `now` first and surface any state
        // flips. Flip stamps lie in (last tick, now], and this world
        // never emits an event stamped later than the current event
        // time, so the trace stays nondecreasing.
        if let Some(chain) = &mut self.origin_ge {
            chain.advance_to(now);
            for (at, bursty) in chain.take_transitions() {
                self.trace.emit(TraceEvent::LossStateChanged {
                    at,
                    path: 0,
                    bursty,
                });
                self.trace
                    .metrics(|m| m.counter("net.bbr.loss_transitions").incr());
            }
        }
        let ge_down = self
            .origin_ge
            .as_mut()
            .is_some_and(|chain| chain.roll_failure(now));
        if self.faults.is_down(now) || ge_down {
            self.trace.emit(TraceEvent::TransferTimedOut {
                at: now,
                path: 0,
                bytes,
                attempt,
            });
            if attempt <= self.recovery.max_retries {
                let delay = self.recovery.delay_after(attempt);
                self.trace.emit(TraceEvent::RetryScheduled {
                    at: now,
                    path: 0,
                    bytes,
                    attempt: attempt + 1,
                    delay_ms: delay.as_nanos() / 1_000_000,
                });
                self.origin_retries += 1;
                sched.at(
                    now + delay,
                    EdgeEvent::OriginRetry {
                        chunk: key.chunk,
                        tile: key.tile,
                        layer: key.layer,
                        attempt: attempt + 1,
                    },
                );
            } else {
                // Out of retries: the waiters display what they have.
                self.inflight.remove(&key);
                self.origin_failed_bytes += bytes;
            }
            return;
        }
        let start = now.max(self.origin_busy_until);
        // Pace at the measured estimate while probing, clamped to the
        // declared backhaul — the wire can't beat physics, but the
        // probe gain lets the estimate climb up to it.
        let pacing = self
            .origin_bbr
            .as_ref()
            .and_then(BbrState::pacing_rate)
            .unwrap_or(self.config.origin_bps);
        let wire = pacing.min(self.config.origin_bps);
        let xfer = SimDuration::from_secs_f64(bytes as f64 * 8.0 / wire);
        self.origin_busy_until = start + xfer;
        if let Some(bbr) = &mut self.origin_bbr {
            bbr.on_rtt_sample(self.config.origin_rtt, now);
            // The sample interval is the wire time alone — folding the
            // propagation RTT in would undershoot the rate, drop the
            // pacing, stretch the next wire time and spiral downward.
            // Self-clocked this way, cruise epochs hold the estimate and
            // probe epochs (gain > 1) climb it toward true capacity.
            if let Some(u) = bbr.on_ack(bytes, xfer, now) {
                if let Some(epoch) = u.new_epoch {
                    self.trace.emit(TraceEvent::ProbeEpochStarted {
                        at: now,
                        path: 0,
                        epoch,
                        gain: u.gain,
                    });
                }
                self.trace.emit(TraceEvent::DeliveryRateSample {
                    at: now,
                    path: 0,
                    rate_bps: u.sample_bps,
                    btl_bw_bps: u.btl_bw_bps,
                });
                self.trace.metrics(|m| {
                    m.histogram("net.bbr.delivery_rate_bps")
                        .record(u.sample_bps);
                    m.histogram("net.bbr.btl_bw_bps").record(u.btl_bw_bps);
                });
            }
        }
        sched.at(
            start + xfer + self.config.origin_rtt,
            EdgeEvent::OriginArrived {
                chunk: key.chunk,
                tile: key.tile,
                layer: key.layer,
            },
        );
    }

    /// How many egress quality levels to shed under the current backlog
    /// (0 = none). One level per multiple of `degrade_backlog` queued.
    fn pressure_steps(&self) -> u8 {
        let limit = self.config.degrade_backlog.as_secs_f64();
        if limit <= 0.0 {
            return 0;
        }
        let over = self.egress.backlog().as_secs_f64() / limit;
        if over < 1.0 {
            0
        } else {
            (over as u8).min(8)
        }
    }

    fn handle_decide(&mut self, client: u32, chunk: u32, sched: &mut impl EdgeSched) {
        if !self.clients[client as usize].admitted {
            return;
        }
        let now = sched.now();
        let state = &self.clients[client as usize];
        let choices = decide_choices(
            self.video,
            &state.spec,
            &state.head,
            chunk,
            now,
            &mut self.fscratch,
            &mut self.hist,
            self.policy,
            &mut self.prev_levels[client as usize],
        );
        self.apply_decide(client, chunk, &choices, sched);
    }

    /// The stateful half of a decide: degrade under egress pressure,
    /// record the plan and request the surviving layers. Shared verbatim
    /// between the oracle's event loop and the batched replay.
    pub(crate) fn apply_decide(
        &mut self,
        client: u32,
        chunk: u32,
        choices: &[StochasticChoice],
        sched: &mut impl EdgeSched,
    ) {
        let now = sched.now();
        let t = ChunkTime(chunk);
        // Graceful degradation: shed enhancement layers (never the base)
        // when the shared egress is backlogged.
        let shed = self.pressure_steps();
        if shed > 0 {
            self.degraded_decides += 1;
            self.trace.emit(TraceEvent::ClientThrottled {
                at: now,
                client,
                admitted: true,
            });
        }
        for choice in choices {
            let q = Quality(choice.quality.0.saturating_sub(shed));
            let cell = CellId::new(choice.tile, t);
            let planned = self.clients[client as usize]
                .planned
                .entry(cell)
                .or_insert(0);
            *planned = (*planned).max(choice.quality.0);
            for layer in 0..=q.0 {
                self.request_layer(client, cell, layer, now, sched);
            }
        }
    }

    fn handle_display(&mut self, client: u32, chunk: u32) {
        if !self.clients[client as usize].admitted {
            return;
        }
        let gaze = display_gaze(self.video, &self.clients[client as usize].head, chunk);
        let visible = Viewport::headset(gaze).visible_tiles(self.video.grid(), 12);
        self.apply_display(client, chunk, &visible);
    }

    /// The stateful half of a display: score the visible tiles against
    /// what actually arrived. `visible` is the pose's coverage list
    /// (precomputed by the batched engine, computed inline by the oracle).
    pub(crate) fn apply_display(&mut self, client: u32, chunk: u32, visible: &[(TileId, f64)]) {
        let t = ChunkTime(chunk);
        let mut util = 0.0;
        let mut blank = 0.0;
        let mut degraded = false;
        for &(tile, coverage) in visible.iter() {
            let cell = CellId::new(tile, t);
            let state = &self.clients[client as usize];
            let mask = state.delivered.get(&cell).copied().unwrap_or(0);
            // SVC: quality q plays only when layers 0..=q all arrived.
            let contiguous = mask.trailing_ones() as u8;
            if contiguous == 0 {
                blank += coverage;
            } else {
                let shown = Quality(contiguous - 1);
                util += coverage * self.video.ladder().utility(shown);
                if let Some(&planned) = state.planned.get(&cell) {
                    if shown.0 < planned {
                        degraded = true;
                    }
                }
            }
        }
        self.utility_acc += util;
        self.blank_acc += blank;
        self.displays += 1;
        if degraded {
            self.degraded_displays += 1;
        }
    }

    fn handle_prefetch(&mut self, chunk: u32, sched: &mut impl EdgeSched) {
        let now = sched.now();
        let k = self.config.prefetch_k;
        let groups: Vec<(u16, Vec<TileId>)> = self
            .crowds
            .iter()
            .map(|(content, agg)| (*content, agg.predicted_tiles(now, ChunkTime(chunk), k)))
            .collect();
        self.apply_prefetch(chunk, &groups, sched);
    }

    /// The stateful half of a prefetch: per catalog title (sorted by
    /// content id), pull the crowd's tiles that are neither cached nor
    /// already on the wire.
    pub(crate) fn apply_prefetch(
        &mut self,
        chunk: u32,
        groups: &[(u16, Vec<TileId>)],
        sched: &mut impl EdgeSched,
    ) {
        let now = sched.now();
        let t = ChunkTime(chunk);
        for (content, tiles) in groups {
            for &tile in tiles {
                for layer in 0..=self.config.prefetch_layers {
                    let cell = CellId::new(tile, t);
                    let key = Self::key_of(cell, layer, *content);
                    if self.cache.is_disabled()
                        || self.cache.contains(key)
                        || self.inflight.contains_key(&key)
                    {
                        continue;
                    }
                    let bytes = self.layer_bytes(cell, layer);
                    self.cache.record_prefetch(bytes);
                    self.trace.emit(TraceEvent::EdgePrefetch {
                        at: now,
                        tile: key.tile,
                        chunk: key.chunk,
                        layer,
                        bytes,
                    });
                    self.inflight.insert(
                        key,
                        Inflight {
                            bytes,
                            waiters: Vec::new(),
                        },
                    );
                    self.start_origin_fetch(key, bytes, 1, now, sched);
                }
            }
        }
    }
}

impl EdgeWorld<'_> {
    /// Trace a client attaching (admitted or rejected).
    pub(crate) fn apply_arrive(&mut self, client: u32, now: SimTime) {
        if self.clients[client as usize].admitted {
            self.trace
                .emit(TraceEvent::ClientAdmitted { at: now, client });
        } else {
            self.trace.emit(TraceEvent::ClientThrottled {
                at: now,
                client,
                admitted: false,
            });
        }
    }

    /// An origin fetch landed: account it, cache it, fan it out. The
    /// event's `chunk` is the content-salted cache-key field; the cell
    /// the waiters consume is the unsalted chunk index.
    pub(crate) fn apply_origin_arrived(&mut self, chunk: u32, tile: u16, layer: u8, now: SimTime) {
        let key = CacheKey { chunk, tile, layer };
        if let Some(fl) = self.inflight.remove(&key) {
            self.origin_bytes += fl.bytes;
            self.cache.insert(key, fl.bytes);
            let cell = CellId::new(TileId(tile), ChunkTime(chunk_of(chunk)));
            for (client, _) in fl.waiters {
                self.submit_egress(client, cell, layer, fl.bytes, now);
            }
        }
    }

    /// Retry a failed origin fetch if it is still wanted.
    pub(crate) fn apply_origin_retry(
        &mut self,
        chunk: u32,
        tile: u16,
        layer: u8,
        attempt: u32,
        sched: &mut impl EdgeSched,
    ) {
        let now = sched.now();
        let key = CacheKey { chunk, tile, layer };
        if let Some(bytes) = self.inflight.get(&key).map(|fl| fl.bytes) {
            self.start_origin_fetch(key, bytes, attempt, now, sched);
        }
    }
}

/// What a crash-stop node failure wrote off: egress streams that were
/// on the wire at death (their bytes never reach a client) and fetches
/// still in flight (folded into the node's failed-origin ledger).
pub(crate) struct NodeWreckage {
    /// Bytes of submitted egress streams lost mid-transfer.
    pub(crate) lost_egress_bytes: u64,
    /// Number of egress streams lost mid-transfer.
    pub(crate) lost_streams: u64,
}

impl EdgeWorld<'_> {
    /// Crash-stop this node at `now`: deliver everything that finished
    /// by `now`, discard every egress stream still on the wire, and
    /// write off in-flight origin fetches as failed (the same settling
    /// [`finish_edge_run`] applies at the horizon). The world stays
    /// consistent for report assembly; it just never makes progress
    /// again because no further events are routed to it.
    pub(crate) fn abandon(&mut self, now: SimTime) -> NodeWreckage {
        self.drain_egress(now);
        let mut lost_egress_bytes = 0;
        let mut lost_streams = 0;
        for done in self.egress.drain() {
            if self.pending.remove(&done.id).is_some() {
                lost_egress_bytes += done.bytes;
                lost_streams += 1;
            }
        }
        for (_, fl) in self.inflight.drain() {
            self.origin_failed_bytes += fl.bytes;
        }
        NodeWreckage {
            lost_egress_bytes,
            lost_streams,
        }
    }

    /// Detach a client's session state (for re-homing onto a survivor).
    /// The client stays in the vector — indices are global across a
    /// federation — but no longer holds an egress queue here.
    pub(crate) fn take_client_session(
        &mut self,
        client: u32,
    ) -> (HashMap<CellId, u32>, HashMap<CellId, u8>) {
        let state = &mut self.clients[client as usize];
        state.admitted = false;
        state.link_id = None;
        (
            std::mem::take(&mut state.delivered),
            std::mem::take(&mut state.planned),
        )
    }

    /// Install a re-homed client's session: admit it, give it a fresh
    /// egress queue at its spec weight, and restore what it had already
    /// received and planned so delivery continues where it left off.
    pub(crate) fn install_client_session(
        &mut self,
        client: u32,
        delivered: HashMap<CellId, u32>,
        planned: HashMap<CellId, u8>,
    ) {
        let weight = self.clients[client as usize].spec.weight;
        let link_id = self.egress.add_client(weight);
        let state = &mut self.clients[client as usize];
        state.admitted = true;
        state.link_id = Some(link_id);
        state.delivered = delivered;
        state.planned = planned;
    }
}

impl World<EdgeEvent> for EdgeWorld<'_> {
    fn handle(&mut self, event: EdgeEvent, sched: &mut Scheduler<'_, EdgeEvent>) {
        let now = Scheduler::now(sched);
        self.drain_egress(now);
        match event {
            EdgeEvent::Arrive { client } => self.apply_arrive(client, now),
            EdgeEvent::Decide { client, chunk } => self.handle_decide(client, chunk, sched),
            EdgeEvent::Display { client, chunk } => self.handle_display(client, chunk),
            EdgeEvent::OriginArrived { chunk, tile, layer } => {
                self.apply_origin_arrived(chunk, tile, layer, now)
            }
            EdgeEvent::OriginRetry {
                chunk,
                tile,
                layer,
                attempt,
            } => self.apply_origin_retry(chunk, tile, layer, attempt, sched),
            EdgeEvent::Prefetch { chunk } => {
                if self.config.prefetch {
                    self.handle_prefetch(chunk, sched);
                }
            }
        }
    }
}

/// The event-driven edge engine: explicit client set, harness (trace,
/// faults, recovery, origin estimator and loss, policy) and optional metrics
/// registry. It is the differential oracle of
/// [`run_edge`](crate::batch::run_edge), which must reproduce its
/// report and trace bytes for any worker count.
///
/// Clients are canonicalised (sorted by arrival, then seed/weight/
/// budget) before anything else, so the returned report and every
/// emitted trace byte are invariant to the order of `clients`. An
/// empty `clients` is legal and reports zero traffic.
pub fn run_edge_oracle(
    video: &VideoModel,
    config: &EdgeConfig,
    clients: &[EdgeClientSpec],
    harness: &EdgeHarness,
    metrics: Option<&mut MetricsRegistry>,
) -> EdgeReport {
    let mut specs = clients.to_vec();
    specs.sort_by_key(EdgeClientSpec::canonical_key);

    let chunks = video.chunk_count();
    let session = video.duration() + SimDuration::from_secs(5);
    let mut egress = WrrLink::new(config.egress_bps);
    let mut crowds: Vec<(u16, CrowdAggregator)> = Vec::new();
    let attention = AttentionModel::generic(config.seed);
    let states: Vec<ClientState> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let admitted = i < config.max_clients;
            // One deterministic head trace per spec seed; the ensemble
            // generator's behaviour mix keys off the seed.
            let head = client_head(&attention, spec, session);
            let link_id = admitted.then(|| egress.add_client(spec.weight));
            if admitted {
                // Attached clients report their gaze to their title's
                // crowd model; their latency is their arrival offset, so
                // reports only become visible once they actually watched.
                crowd_slot(
                    &mut crowds,
                    video.grid(),
                    video.chunk_duration(),
                    spec.content,
                )
                .ingest(
                    &LiveViewer {
                        trace: head.clone(),
                        latency: spec.arrival,
                    },
                    chunks,
                );
            }
            ClientState::new(*spec, head, admitted, link_id)
        })
        .collect();

    let admitted = states.iter().filter(|c| c.admitted).count();
    let rejected = states.len() - admitted;
    // An empty population has no arrivals; its horizon is the video's
    // own.
    let first_arrival = specs.first().map_or(SimDuration::ZERO, |s| s.arrival);
    let last_arrival = specs.last().map_or(SimDuration::ZERO, |s| s.arrival);

    let mut world = EdgeWorld::new(video, *config, states, egress, crowds, harness);

    let mut sim = Simulation::new();
    for (i, spec) in specs.iter().enumerate() {
        let client = i as u32;
        sim.schedule(SimTime::ZERO + spec.arrival, EdgeEvent::Arrive { client });
        if i >= config.max_clients {
            continue;
        }
        for c in 0..chunks {
            let display = world.display_wall(client, c);
            let decide = SimTime::from_nanos(
                display
                    .as_nanos()
                    .saturating_sub(config.fetch_lead.as_nanos()),
            );
            sim.schedule(decide, EdgeEvent::Decide { client, chunk: c });
            sim.schedule(display, EdgeEvent::Display { client, chunk: c });
        }
    }
    if config.prefetch {
        // Chunk c's first crowd report lands once the earliest-attached
        // client has watched it and the report has propagated.
        let report_lag = first_arrival + SimDuration::from_millis(250) + video.chunk_duration();
        for c in 0..chunks {
            sim.schedule(
                video.chunk_start(ChunkTime(c)) + report_lag,
                EdgeEvent::Prefetch { chunk: c },
            );
        }
    }

    let horizon = edge_horizon(video, last_arrival);
    let outcome = sim.run(&mut world, horizon);
    debug_assert_ne!(outcome, RunOutcome::BudgetExhausted);

    finish_edge_run(world, specs.len(), admitted, rejected, metrics)
}

/// When an edge run stops draining its queue.
pub(crate) fn edge_horizon(video: &VideoModel, last_arrival: SimDuration) -> SimTime {
    SimTime::ZERO + video.duration() + last_arrival + SimDuration::from_secs(120)
}

/// Settle a finished world and assemble its report — shared by the
/// oracle and batched engines so the accounting is identical code.
pub(crate) fn finish_edge_run(
    mut world: EdgeWorld<'_>,
    clients: usize,
    admitted: usize,
    rejected: usize,
    metrics: Option<&mut MetricsRegistry>,
) -> EdgeReport {
    // Settle the egress so every submitted stream is accounted, then
    // write off fetches the horizon cut short (keeps the byte balance
    // exact: misses + prefetches == origin ok + failed).
    let final_completions = world.egress.drain();
    for done in final_completions {
        if let Some(p) = world.pending.remove(&done.id) {
            world.egress_bytes += done.bytes;
            if done.finished > p.deadline {
                world.streams_late += 1;
            }
        }
    }
    for (_, fl) in world.inflight.drain() {
        world.origin_failed_bytes += fl.bytes;
    }

    let stats = world.cache.stats();
    if let Some(registry) = metrics {
        registry.counter("edge.cache.hits").add(stats.hits);
        registry.counter("edge.cache.misses").add(stats.misses);
        registry
            .counter("edge.cache.hit_bytes")
            .add(stats.hit_bytes);
        registry
            .counter("edge.cache.miss_bytes")
            .add(stats.miss_bytes);
        registry
            .counter("edge.cache.evictions")
            .add(stats.evictions);
        registry
            .counter("edge.cache.prefetch_bytes")
            .add(stats.prefetch_bytes);
        registry
            .counter("edge.origin.bytes")
            .add(world.origin_bytes);
        registry
            .counter("edge.origin.failed_bytes")
            .add(world.origin_failed_bytes);
        registry
            .counter("edge.origin.retries")
            .add(world.origin_retries);
        registry
            .counter("edge.egress.bytes")
            .add(world.egress_bytes);
        registry
            .counter("edge.clients.admitted")
            .add(admitted as u64);
        registry
            .counter("edge.clients.rejected")
            .add(rejected as u64);
    }

    let n = world.displays.max(1) as f64;
    let mean_viewport_utility = world.utility_acc / n;
    let mean_blank_fraction = world.blank_acc / n;
    let degraded_fraction = world.degraded_displays as f64 / n;
    let w = QoeWeights::default();
    EdgeReport {
        clients,
        admitted,
        rejected,
        egress_bytes: world.egress_bytes,
        origin_bytes: world.origin_bytes,
        origin_failed_bytes: world.origin_failed_bytes,
        origin_retries: world.origin_retries,
        cache: stats,
        mean_viewport_utility,
        mean_blank_fraction,
        degraded_decides: world.degraded_decides,
        degraded_displays: world.degraded_displays,
        late_stream_fraction: if world.streams_total == 0 {
            0.0
        } else {
            world.streams_late as f64 / world.streams_total as f64
        },
        qoe_score: w.quality * mean_viewport_utility
            - w.blank * mean_blank_fraction
            - w.degraded * degraded_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_sim::{TraceConfig, TraceLevel};
    use sperke_video::VideoModelBuilder;

    fn video() -> VideoModel {
        VideoModelBuilder::new(3)
            .duration(SimDuration::from_secs(12))
            .build()
    }

    /// The oracle over the config's default population, untraced.
    fn oracle(video: &VideoModel, config: &EdgeConfig) -> EdgeReport {
        run_edge_oracle(
            video,
            config,
            &default_clients(config),
            &EdgeHarness::default(),
            None,
        )
    }

    fn small(clients: usize) -> EdgeConfig {
        EdgeConfig {
            clients,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_report() {
        let v = video();
        let cfg = small(8);
        assert_eq!(oracle(&v, &cfg), oracle(&v, &cfg));
    }

    #[test]
    fn byte_balance_holds() {
        let v = video();
        let r = oracle(&v, &small(10));
        assert_eq!(
            r.origin_demand_bytes(),
            r.cache.miss_bytes + r.cache.prefetch_bytes,
            "origin traffic must balance cache accounting"
        );
        assert!(r.cache.hits > 0, "shared viewing must produce hits");
    }

    #[test]
    fn admission_control_caps_and_traces() {
        let v = video();
        let cfg = EdgeConfig {
            clients: 12,
            max_clients: 5,
            ..Default::default()
        };
        let sink = TraceSink::new(TraceConfig::new(TraceLevel::Events));
        let harness = EdgeHarness {
            trace: sink.clone(),
            ..Default::default()
        };
        let r = run_edge_oracle(&v, &cfg, &default_clients(&cfg), &harness, None);
        assert_eq!(r.admitted, 5);
        assert_eq!(r.rejected, 7);
        let trace = sink.snapshot();
        let admitted = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::ClientAdmitted { .. }))
            .count();
        let rejected = trace
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::ClientThrottled {
                        admitted: false,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(admitted, 5);
        assert_eq!(rejected, 7);
    }

    #[test]
    fn shared_cache_slashes_origin_traffic() {
        let v = video();
        let cached = oracle(&v, &small(12));
        let uncached = oracle(
            &v,
            &EdgeConfig {
                cache_bytes: 0,
                prefetch: false,
                ..small(12)
            },
        );
        assert!(
            cached.origin_demand_bytes() * 2 < uncached.origin_demand_bytes(),
            "cached {} vs uncached {}",
            cached.origin_demand_bytes(),
            uncached.origin_demand_bytes()
        );
    }

    #[test]
    fn client_order_does_not_change_the_report() {
        let v = video();
        let cfg = small(9);
        let mut clients = default_clients(&cfg);
        let forward = run_edge_oracle(&v, &cfg, &clients, &EdgeHarness::default(), None);
        clients.reverse();
        let reversed = run_edge_oracle(&v, &cfg, &clients, &EdgeHarness::default(), None);
        assert_eq!(forward, reversed);
    }

    #[test]
    fn tight_egress_degrades_instead_of_collapsing() {
        let v = video();
        let ample = oracle(
            &v,
            &EdgeConfig {
                egress_bps: 400e6,
                ..small(12)
            },
        );
        let tight = oracle(
            &v,
            &EdgeConfig {
                egress_bps: 18e6,
                ..small(12)
            },
        );
        assert_eq!(ample.degraded_decides, 0, "no pressure on a wide link");
        assert!(tight.degraded_decides > 0, "tight link must shed layers");
        assert!(tight.mean_viewport_utility < ample.mean_viewport_utility);
    }

    #[test]
    fn origin_outage_triggers_retries() {
        let v = video();
        let harness = EdgeHarness {
            faults: FaultScript::none().link_down(0, SimTime::from_secs(2), SimTime::from_secs(4)),
            ..Default::default()
        };
        let cfg = small(8);
        let r = run_edge_oracle(&v, &cfg, &default_clients(&cfg), &harness, None);
        assert!(r.origin_retries > 0, "outage must schedule retries");
        assert_eq!(
            r.origin_demand_bytes(),
            r.cache.miss_bytes + r.cache.prefetch_bytes,
            "balance must survive faults"
        );
    }

    #[test]
    fn metrics_registry_mirrors_report() {
        let v = video();
        let cfg = small(6);
        let mut reg = MetricsRegistry::new();
        let r = run_edge_oracle(
            &v,
            &cfg,
            &default_clients(&cfg),
            &EdgeHarness::default(),
            Some(&mut reg),
        );
        assert_eq!(reg.counter_value("edge.cache.hits"), Some(r.cache.hits));
        assert_eq!(reg.counter_value("edge.origin.bytes"), Some(r.origin_bytes));
        assert_eq!(
            reg.counter_value("edge.clients.admitted"),
            Some(r.admitted as u64)
        );
    }

    #[test]
    fn prefetch_prewarms_the_cache() {
        let v = video();
        let on = oracle(
            &v,
            &EdgeConfig {
                prefetch: true,
                ..small(14)
            },
        );
        let off = oracle(
            &v,
            &EdgeConfig {
                prefetch: false,
                ..small(14)
            },
        );
        assert!(on.cache.prefetches > 0, "crowd model must drive prefetches");
        assert_eq!(off.cache.prefetches, 0);
    }
}
