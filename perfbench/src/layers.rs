//! The traced run: per-layer numbers measured from outside the program,
//! by timing calls into each crate's public functions around the same
//! inputs the end-to-end run uses. Nothing inside the crates is
//! instrumented.

use crate::fed::{admitted_mean, identity_errors, FedInputs, FedWorkload};
use crate::{median, nproc, timed, Outcome};
use sperke_core::geo::{visible_tiles_batch, Orientation, Viewport, VisibilityScratch};
use sperke_core::hmp::{
    generate_ensemble_member, AttentionModel, ForecastScratch, FusedForecaster, HeadTrace,
    TileForecast,
};
use sperke_core::live::{viewer_reports, CrowdAggregator, LiveViewer};
use sperke_core::net::WrrLink;
use sperke_core::sim::{ReplayQueue, SimDuration, SimTime, Trace, TraceEvent, TraceLevel};
use sperke_core::video::{ChunkTime, Scheme, VideoModel};
use sperke_core::vra::{select_stochastic, AbrPolicyKind, PolicyInput, DEFAULT_MIN_PROBABILITY};
use sperke_edge::{prepare_edge_batch, CacheKey, EdgeClientSpec, EdgeConfig, TileCache};
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric, in print order, with its unit. A traced run
/// prints all of them; a layer the workload never runs reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hmp.head_trace_us", "us"),
    ("hmp.forecast_us", "us"),
    ("vra.knapsack_us", "us"),
    ("geo.visible_batch_us", "us"),
    ("live.viewer_reports_us", "us"),
    ("edge.sense_s", "s"),
    ("edge.sense_share", "fraction"),
    ("edge.replay_s", "s"),
    ("edge.cache_lookup_ns", "ns"),
    ("edge.cache_insert_ns", "ns"),
    ("edge.cache_ops_replayed", "count"),
    ("edge.hit_ratio", "fraction"),
    ("edge.evictions", "count"),
    ("edge.regional_hit_ratio", "fraction"),
    ("edge.regional_evictions", "count"),
    ("edge.origin_retries", "count"),
    ("edge.late_stream_fraction", "fraction"),
    ("edge.windowed_speedup", "x"),
    ("sim.replay_queue_ns", "ns"),
    ("sim.trace_events", "count"),
    ("sim.trace_dropped", "count"),
    ("sim.trace_digest_mb_per_s", "MB/s"),
    ("sim.trace_jsonl_mb_per_s", "MB/s"),
    ("net.wrr_ns", "ns"),
    ("net.assign_ns", "ns"),
    ("geo.vis_cache_hit_ratio", "fraction"),
    ("player.session_ms.knapsack", "ms"),
    ("player.session_ms.transition", "ms"),
    ("player.session_ms.qer", "ms"),
    ("player.session_ms.consistency", "ms"),
    ("player.session_ms.sperke", "ms"),
    ("player.wasted_fraction", "fraction"),
    ("vra.decide_us.knapsack", "us"),
    ("vra.decide_us.transition", "us"),
    ("vra.decide_us.qer", "us"),
    ("vra.decide_us.consistency", "us"),
    ("vra.decide_us.sperke", "us"),
    ("bench.sense_recomposition_ratio", "x"),
    ("bench.trace_overhead_pct", "%"),
];

/// Largest relative gap allowed between the sense kernel rebuilt from
/// public parts and `prepare_edge_batch` on the same population; a wider
/// gap means the rebuilt kernel is not the program's kernel.
pub const RECOMPOSITION_BOUND: f64 = 0.25;

/// Repetitions of each timed comparison in a traced run.
pub const REPS: usize = 3;

/// Viewers whose sense-phase forecasts are replayed through every policy.
const CAPTURED_VIEWERS: usize = 8;

/// Repetitions of the sense recomposition check, whose failure fails the
/// run: enough that one disturbed repetition cannot decide it.
const SENSE_REPS: usize = 5;

/// Collects per-layer values by name; unset layers print as 0.
#[derive(Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.push((name, value));
    }

    pub fn emit(self, out: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            let value = self
                .0
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            out.metric(*name, value, unit);
        }
    }
}

/// Median cost of one `Instant::now()` pair, subtracted from per-call
/// timings of sub-microsecond operations.
pub fn timer_overhead_s() -> f64 {
    let samples: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Per-call samples of the sense-kernel layers, in seconds.
#[derive(Default)]
pub struct KernelSamples {
    pub head: Vec<f64>,
    pub forecast: Vec<f64>,
    pub knapsack: Vec<f64>,
    pub visible: Vec<f64>,
    pub reports: Vec<f64>,
}

impl KernelSamples {
    pub fn report(&self, layers: &mut Layers) {
        let us = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) * 1e6 };
        layers.set("hmp.head_trace_us", us(&self.head));
        layers.set("hmp.forecast_us", us(&self.forecast));
        layers.set("vra.knapsack_us", us(&self.knapsack));
        layers.set("geo.visible_batch_us", us(&self.visible));
        layers.set("live.viewer_reports_us", us(&self.reports));
    }
}

/// One forecast a decide saw, kept for replay through every policy.
pub struct Captured {
    pub forecast: TileForecast,
    pub time: ChunkTime,
    pub buffer: SimDuration,
    pub capacity_bps: f64,
    /// First forecast of a new viewer: temporal policy state resets.
    pub first: bool,
}

/// Display-time gaze and coverage of every chunk, as the edge computes it.
pub fn display_coverage(
    video: &VideoModel,
    head: &HeadTrace,
    scratch: &mut VisibilityScratch,
    samples: &mut KernelSamples,
) -> usize {
    let chunks = video.chunk_count();
    let gazes: Vec<Orientation> = (0..chunks)
        .map(|c| head.at(video.chunk_start(ChunkTime(c)) + video.chunk_duration() / 2))
        .collect();
    let Some(first) = gazes.first() else {
        return 0;
    };
    let proto = Viewport::headset(*first);
    let mut displays = vec![Vec::new(); gazes.len()];
    let (s, ()) = timed(|| {
        visible_tiles_batch(
            video.grid(),
            proto.hfov,
            proto.vfov,
            &gazes,
            12,
            scratch,
            |pose, list| displays[pose] = list.to_vec(),
        )
    });
    samples.visible.push(s);
    black_box(&displays);
    displays.iter().map(Vec::len).sum()
}

/// Crowd gaze reports of one viewer.
pub fn gaze_reports(
    video: &VideoModel,
    report_delay: SimDuration,
    viewer: &LiveViewer,
    samples: &mut KernelSamples,
) -> usize {
    let (s, reports) = timed(|| {
        viewer_reports(
            video.grid(),
            video.chunk_duration(),
            report_delay,
            viewer,
            video.chunk_count(),
        )
    });
    samples.reports.push(s);
    black_box(&reports);
    reports.len()
}

/// The edge sense kernel, rebuilt from the crates' public parts: head
/// trace, per-chunk gaze history → motion forecast → stochastic SVC
/// selection, display coverage and crowd gaze reports. `admitted` is how
/// many clients, in canonical order, plan and display. Forecasts of the
/// first [`CAPTURED_VIEWERS`] admitted clients are kept for decide replay.
pub fn rebuilt_sense(
    video: &VideoModel,
    node: &EdgeConfig,
    specs: &[EdgeClientSpec],
    admitted: usize,
    samples: &mut KernelSamples,
    captured: &mut Vec<Captured>,
) -> usize {
    let session = video.duration() + SimDuration::from_secs(5);
    let attention = AttentionModel::generic(node.seed);
    let report_delay = CrowdAggregator::new(*video.grid(), video.chunk_duration()).report_delay;
    let forecaster = FusedForecaster::motion_only();
    let mut fscratch = ForecastScratch::new();
    let mut vscratch = VisibilityScratch::new();
    let mut history = Vec::new();
    let mut work = 0;
    for (i, spec) in specs.iter().enumerate() {
        let (s, head) = timed(|| {
            generate_ensemble_member(&attention, (spec.seed % 5) as usize, session, spec.seed)
        });
        samples.head.push(s);
        if i >= admitted {
            black_box(&head);
            continue;
        }
        let budget = (spec.budget_bps * video.chunk_duration().as_secs_f64() / 8.0) as u64;
        for c in 0..video.chunk_count() {
            let t = ChunkTime(c);
            let display = SimTime::ZERO + spec.arrival + video.chunk_duration() * (c + 1) as u64;
            let decide_at = display
                .as_nanos()
                .saturating_sub(node.fetch_lead.as_nanos());
            let own_now = SimTime::from_nanos(decide_at.saturating_sub(spec.arrival.as_nanos()));
            let (s, forecast) = timed(|| {
                head.history_into(own_now, 50, &mut history);
                forecaster.forecast_with(
                    video.grid(),
                    &history,
                    own_now,
                    video.chunk_start(t),
                    t,
                    &mut fscratch,
                )
            });
            samples.forecast.push(s);
            let (s, choices) = timed(|| {
                select_stochastic(video, &forecast, t, budget, Scheme::svc_default(), 0.05)
            });
            samples.knapsack.push(s);
            work += choices.len();
            if i < CAPTURED_VIEWERS {
                captured.push(Captured {
                    forecast,
                    time: t,
                    buffer: video.chunk_duration(),
                    capacity_bps: spec.budget_bps,
                    first: c == 0,
                });
            }
        }
        work += display_coverage(video, &head, &mut vscratch, samples);
        if node.prefetch {
            let viewer = LiveViewer {
                trace: head,
                latency: spec.arrival,
            };
            work += gaze_reports(video, report_delay, &viewer, samples);
        }
    }
    work
}

/// Replay captured forecasts through every policy's `decide`, pushing
/// per-call seconds into `samples` in `AbrPolicyKind::all()` order.
/// Budgets follow the declared capacity, as the planners derive them.
pub fn replay_decides(video: &VideoModel, captured: &[Captured], samples: &mut [Vec<f64>; 5]) {
    let tiles = video.grid().tile_count();
    for (kind, secs) in AbrPolicyKind::all().iter().zip(samples.iter_mut()) {
        let mut prev: Vec<i8> = Vec::new();
        for cap in captured {
            if cap.first {
                prev.clear();
            }
            let input = PolicyInput {
                video,
                forecast: &cap.forecast,
                confidence: cap.forecast.confidence(),
                time: cap.time,
                buffer: cap.buffer,
                budget_bytes: (cap.capacity_bps * video.chunk_duration().as_secs_f64() / 8.0)
                    as u64,
                capacity_bps: Some(cap.capacity_bps),
                scheme: Scheme::svc_default(),
                min_probability: DEFAULT_MIN_PROBABILITY,
                prev: (prev.len() == tiles).then_some(prev.as_slice()),
            };
            let (s, plan) = timed(|| kind.decide(&input));
            secs.push(s);
            prev = plan.levels(tiles);
        }
    }
}

pub fn set_decides(layers: &mut Layers, samples: &[Vec<f64>; 5]) {
    const NAMES: [&str; 5] = [
        "vra.decide_us.knapsack",
        "vra.decide_us.transition",
        "vra.decide_us.qer",
        "vra.decide_us.consistency",
        "vra.decide_us.sperke",
    ];
    for (name, secs) in NAMES.iter().zip(samples) {
        if !secs.is_empty() {
            layers.set(name, median(secs) * 1e6);
        }
    }
}

/// Trace-export layer figures over a set of traces: event and drop
/// counts, digest and JSONL throughput, and one `ReplayQueue` push + pop
/// per traced event time at a bounded pending set.
pub fn trace_layers(traces: &[&Trace], layers: &mut Layers) {
    let events: usize = traces.iter().map(|t| t.len()).sum();
    layers.set("sim.trace_events", events as f64);
    layers.set(
        "sim.trace_dropped",
        traces.iter().map(|t| t.dropped()).sum::<u64>() as f64,
    );
    let mut bytes = 0;
    let jsonl: Vec<f64> = (0..REPS)
        .map(|_| {
            timed(|| {
                bytes = 0;
                for t in traces {
                    let mut s = String::with_capacity(t.len() * 128);
                    t.write_jsonl(&mut s)
                        .expect("writing to a String cannot fail");
                    bytes += s.len();
                    black_box(&s);
                }
            })
            .0
        })
        .collect();
    let digest: Vec<f64> = (0..REPS)
        .map(|_| {
            timed(|| {
                for t in traces {
                    black_box(t.digest());
                }
            })
            .0
        })
        .collect();
    let mb = bytes as f64 / 1e6;
    layers.set("sim.trace_jsonl_mb_per_s", mb / median(&jsonl));
    layers.set("sim.trace_digest_mb_per_s", mb / median(&digest));

    let mut times: Vec<SimTime> = traces
        .iter()
        .flat_map(|t| t.events().iter().map(TraceEvent::at))
        .collect();
    times.sort_unstable();
    if times.is_empty() {
        return;
    }
    let queue: Vec<f64> = (0..REPS)
        .map(|_| {
            timed(|| {
                let mut q: ReplayQueue<u32> = ReplayQueue::new();
                q.seal();
                for (i, &at) in times.iter().enumerate() {
                    q.push(at, i as u32);
                    if q.len() > 1024 {
                        black_box(q.pop());
                    }
                }
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            })
            .0
        })
        .collect();
    layers.set(
        "sim.replay_queue_ns",
        median(&queue) / times.len() as f64 * 1e9,
    );
}

/// One cache operation recovered from a verbose trace.
enum CacheOp {
    /// A client (or edge) lookup; a miss inserts the object, as its
    /// arrival from upstream would.
    Lookup(CacheKey, u64),
    /// A crowd-driven prefetch insert.
    Prefetch(CacheKey, u64),
}

/// The edge (node traces) or regional (federation trace) cache ops.
fn cache_ops(trace: &Trace) -> Vec<CacheOp> {
    let key = |chunk, tile, layer| CacheKey { chunk, tile, layer };
    trace
        .events()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::EdgeCacheHit {
                tile,
                chunk,
                layer,
                bytes,
                ..
            }
            | TraceEvent::EdgeCacheMiss {
                tile,
                chunk,
                layer,
                bytes,
                ..
            }
            | TraceEvent::RegionalCacheHit {
                tile,
                chunk,
                layer,
                bytes,
                ..
            }
            | TraceEvent::RegionalCacheMiss {
                tile,
                chunk,
                layer,
                bytes,
                ..
            } => Some(CacheOp::Lookup(key(chunk, tile, layer), bytes)),
            TraceEvent::EdgePrefetch {
                tile,
                chunk,
                layer,
                bytes,
                ..
            } => Some(CacheOp::Prefetch(key(chunk, tile, layer), bytes)),
            _ => None,
        })
        .collect()
}

/// Replay `(capacity, ops)` streams through fresh `TileCache`s, timing
/// each lookup and each insert (evictions included). Returns the mean
/// nanoseconds of a lookup and of an insert.
fn replay_caches(streams: &[(u64, Vec<CacheOp>)], overhead: f64) -> (f64, f64) {
    let (mut lookup_s, mut lookups, mut insert_s, mut inserts) = (0.0, 0, 0.0, 0);
    for (capacity, ops) in streams {
        let mut cache = TileCache::new(*capacity);
        for op in ops {
            let (key, bytes, resident) = match *op {
                CacheOp::Lookup(key, bytes) => {
                    let (s, hit) = timed(|| cache.lookup(key, bytes));
                    lookup_s += s - overhead;
                    lookups += 1;
                    (key, bytes, hit)
                }
                CacheOp::Prefetch(key, bytes) => (key, bytes, false),
            };
            if !resident {
                let (s, ()) = timed(|| cache.insert(key, bytes));
                insert_s += s - overhead;
                inserts += 1;
            }
        }
        black_box(cache.stats());
    }
    let ns = |s: f64, n: u64| s / n.max(1) as f64 * 1e9;
    (ns(lookup_s, lookups), ns(insert_s, inserts))
}

/// One node's egress: its link rate, admitted clients and the traced
/// `(time, bytes)` of every request it served.
struct EgressStream {
    rate_bps: f64,
    clients: usize,
    requests: Vec<(SimTime, u64)>,
}

/// Each node's request stream through a fresh `WrrLink`, spread
/// round-robin over its admitted clients. Returns seconds per submit +
/// `run_until`.
fn replay_egress(streams: &[EgressStream]) -> f64 {
    let mut secs = 0.0;
    let mut ops = 0;
    for stream in streams.iter().filter(|s| s.clients > 0) {
        let mut link = WrrLink::new(stream.rate_bps);
        for _ in 0..stream.clients {
            link.add_client(1);
        }
        let (s, ()) = timed(|| {
            for (i, &(at, bytes)) in stream.requests.iter().enumerate() {
                black_box(link.run_until(at));
                link.submit((i % stream.clients) as u32, bytes, at);
            }
        });
        secs += s;
        ops += stream.requests.len();
        black_box(link.drain());
    }
    secs / ops.max(1) as f64
}

/// The canonical order `run_federation` and `prepare_edge_batch` sort a
/// population into.
fn canonical(clients: &[EdgeClientSpec]) -> Vec<EdgeClientSpec> {
    let mut specs = clients.to_vec();
    specs.sort_by_key(|s| {
        (
            s.arrival.as_nanos(),
            s.seed,
            s.weight,
            s.budget_bps.to_bits(),
            s.content,
        )
    });
    specs
}

pub fn fed_layers(w: &FedWorkload, inputs: &FedInputs, out: &mut Outcome) {
    let mut layers = Layers::default();

    // Engine timings, interleaved so host noise hits every series alike:
    // the workload's own run, the same run serial and parallel, and the
    // verbose-traced run whose event streams feed the replays below.
    let oracle = w.run_once(inputs, 1, w.trace).report;
    out.check(identity_errors(&oracle).is_empty(), || {
        format!("oracle identities: {:?}", identity_errors(&oracle))
    });
    let (mut serial, mut parallel, mut verbose) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced = None;
    for _ in 0..REPS {
        for (workers, level, series) in [
            (1, w.trace, &mut serial),
            (nproc(), w.trace, &mut parallel),
            (w.workers, TraceLevel::Verbose, &mut verbose),
        ] {
            let (s, run) = timed(|| w.run_once(inputs, workers, level));
            series.push(s);
            out.attempted += 1;
            if run.report != oracle || !identity_errors(&run.report).is_empty() {
                out.failed += 1;
            }
            if level == TraceLevel::Verbose {
                traced = Some(run);
            }
        }
    }
    let traced = traced.expect("at least one verbose run");
    let run_s = median(if w.workers <= 1 { &serial } else { &parallel });
    layers.set("edge.windowed_speedup", median(&serial) / median(&parallel));
    layers.set(
        "bench.trace_overhead_pct",
        (median(&verbose) / run_s - 1.0) * 100.0,
    );

    // Cache, admission and wait counts straight from the report.
    let r = &oracle;
    let sum = |f: fn(&sperke_edge::EdgeReport) -> u64| r.nodes.iter().map(f).sum::<u64>() as f64;
    let hits = sum(|n| n.cache.hits);
    let misses = sum(|n| n.cache.misses);
    layers.set("edge.hit_ratio", hits / (hits + misses).max(1.0));
    layers.set("edge.evictions", sum(|n| n.cache.evictions));
    let (rh, rm) = (r.regional.hits as f64, r.regional.misses as f64);
    layers.set("edge.regional_hit_ratio", rh / (rh + rm).max(1.0));
    layers.set("edge.regional_evictions", r.regional.evictions as f64);
    layers.set(
        "edge.origin_retries",
        r.origin_retries as f64 + sum(|n| n.origin_retries),
    );
    layers.set(
        "edge.late_stream_fraction",
        admitted_mean(r, |n| n.late_stream_fraction),
    );

    // Sense kernel: rebuilt from public parts on the same population and
    // the same number of admitted clients, against the program's own
    // kernel at one worker; then the program's kernel at the workload's
    // worker count gives the sense share of a run.
    let specs = canonical(&inputs.clients);
    let admitted = r.admitted;
    let node = EdgeConfig {
        max_clients: admitted,
        ..w.config.node
    };
    let (mut rebuilt_s, mut prepare_s) = (Vec::new(), Vec::new());
    let mut samples = KernelSamples::default();
    let mut captured = Vec::new();
    for rep in 0..SENSE_REPS {
        let mut reps_samples = KernelSamples::default();
        let mut reps_captured = Vec::new();
        let (s, work) = timed(|| {
            rebuilt_sense(
                &inputs.video,
                &node,
                &specs,
                admitted,
                &mut reps_samples,
                &mut reps_captured,
            )
        });
        black_box(work);
        rebuilt_s.push(s);
        let (s, plan) = timed(|| prepare_edge_batch(&inputs.video, &node, &inputs.clients, 1));
        prepare_s.push(s);
        drop(plan);
        if rep == 0 {
            samples = reps_samples;
            captured = reps_captured;
        }
    }
    let ratio = median(&rebuilt_s) / median(&prepare_s);
    layers.set("bench.sense_recomposition_ratio", ratio);
    out.check((ratio - 1.0).abs() <= RECOMPOSITION_BOUND, || {
        format!(
            "rebuilt sense kernel took {:.3} s against prepare_edge_batch's {:.3} s",
            median(&rebuilt_s),
            median(&prepare_s)
        )
    });
    samples.report(&mut layers);
    let sense_s = if w.workers <= 1 {
        median(&prepare_s)
    } else {
        let secs: Vec<f64> = (0..REPS)
            .map(|_| {
                timed(|| prepare_edge_batch(&inputs.video, &node, &inputs.clients, w.workers)).0
            })
            .collect();
        median(&secs)
    };
    layers.set("edge.sense_s", sense_s);
    layers.set("edge.sense_share", sense_s / run_s);
    layers.set("edge.replay_s", run_s - sense_s);
    let mut decides: [Vec<f64>; 5] = Default::default();
    replay_decides(&inputs.video, &captured, &mut decides);
    set_decides(&mut layers, &decides);

    // Cache, egress, queue and trace-export layers, replayed from the
    // verbose run's event streams.
    let layout = w.config.node_layout();
    let overhead = timer_overhead_s();
    let mut streams: Vec<(u64, Vec<CacheOp>)> = traced
        .node_traces
        .iter()
        .zip(&layout)
        .map(|(t, spec)| (spec.cache_bytes, cache_ops(t)))
        .collect();
    streams.push((w.config.regional_bytes, cache_ops(&traced.trace)));
    let ops: usize = streams.iter().map(|(_, o)| o.len()).sum();
    layers.set("edge.cache_ops_replayed", ops as f64);
    let (lookup_ns, insert_ns): (Vec<f64>, Vec<f64>) =
        (0..REPS).map(|_| replay_caches(&streams, overhead)).unzip();
    layers.set("edge.cache_lookup_ns", median(&lookup_ns));
    layers.set("edge.cache_insert_ns", median(&insert_ns));

    let egress: Vec<EgressStream> = traced
        .node_traces
        .iter()
        .zip(&layout)
        .zip(&r.nodes)
        .map(|((t, spec), report)| EgressStream {
            rate_bps: spec.egress_bps,
            clients: report.admitted,
            requests: t
                .events()
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::EdgeCacheHit { at, bytes, .. }
                    | TraceEvent::EdgeCacheMiss { at, bytes, .. } => Some((at, bytes)),
                    _ => None,
                })
                .collect(),
        })
        .collect();
    let wrr: Vec<f64> = (0..REPS).map(|_| replay_egress(&egress)).collect();
    layers.set("net.wrr_ns", median(&wrr) * 1e9);

    let traces: Vec<&Trace> = std::iter::once(&traced.trace)
        .chain(traced.node_traces.iter())
        .collect();
    trace_layers(&traces, &mut layers);
    layers.emit(out);
}
