//! The ABR shootout workload: every viewport-adaptation policy over the
//! full policy × bandwidth × behaviour × content grid of single-session
//! experiments, fanned over `nproc` workers.

use crate::layers::{
    display_coverage, gaze_reports, replay_decides, set_decides, trace_layers, Captured,
    KernelSamples, Layers, REPS,
};
use crate::{median, nproc, peak_rss_mb, run_for, setup_seconds, timed, Args, Outcome};
use sperke_core::geo::{TileGrid, VisibilityCache, VisibilityScratch};
use sperke_core::hmp::{Forecaster, FusedForecaster, TileForecast};
use sperke_core::live::{CrowdAggregator, LiveViewer};
use sperke_core::net::{
    Assignment, BandwidthTrace, ChunkRequest, FaultScript, LossChannel, MultipathScheduler,
    PathModel, PathQueue, SinglePath,
};
use sperke_core::player::{run_session, PlannerKind, PlayerConfig, QoeReport};
use sperke_core::sim::{parallel_indexed, SimDuration, SimRng, SimTime, TraceLevel};
use sperke_core::video::{ChunkTime, Scheme};
use sperke_core::vra::{select_stochastic, AbrPolicyKind, RateBased, SperkeConfig};
use sperke_core::{run_shootout, ShootoutCell, ShootoutGrid, ShootoutReport, Sperke};
use std::cell::RefCell;
use std::hint::black_box;

/// Session length of every shootout point, in seconds.
pub const SESSION_SECS: u64 = 60;

/// `ShootoutGrid::full()` with sessions lengthened to [`SESSION_SECS`]
/// and every axis declared in an order drawn from the workload seed.
///
/// The seed changes the point order, hence how points fall to workers
/// and every byte of the report, but not the set of sessions: a
/// session's QoE is chaotic in its content and link rate (drawing the
/// content panel, or the link rates within ±10%, from the seed moved the
/// mean QoE by 7–17% and the blank area by 15–30% between seeds), so the
/// content panel and rates stay the full grid's and the modelled
/// metrics stay steady across seeds.
pub fn seeded_grid(seed: u64) -> ShootoutGrid {
    let mut rng = SimRng::new(seed);
    let mut full = ShootoutGrid::full();
    shuffle(&mut full.policies, &mut rng);
    shuffle(&mut full.bandwidths_bps, &mut rng);
    shuffle(&mut full.behaviors, &mut rng);
    shuffle(&mut full.seeds, &mut rng);
    full.duration_secs = SESSION_SECS;
    full
}

fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Every point's inputs as `run_shootout` materialises them: the
/// experiment, its video model and the viewer's head trace.
fn materialise(grid: &ShootoutGrid) -> usize {
    grid.points()
        .iter()
        .map(|cell| {
            let exp = experiment(cell);
            black_box(exp.build_video());
            exp.build_trace().len()
        })
        .sum()
}

/// The experiment `run_shootout` runs for one grid point.
fn experiment(cell: &ShootoutCell) -> Sperke {
    Sperke::builder(cell.seed)
        .duration(SimDuration::from_secs(SESSION_SECS))
        .single_link(cell.bandwidth_bps)
        .behavior(cell.behavior)
        .abr_policy(cell.policy)
}

/// Mean of a per-point figure.
fn point_mean(r: &ShootoutReport, f: impl Fn(&QoeReport) -> f64) -> f64 {
    r.points.iter().map(|p| f(&p.qoe)).sum::<f64>() / r.points.len().max(1) as f64
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let grid = seeded_grid(args.seed);
    if args.trace {
        shootout_layers(&grid, &mut out);
        return out;
    }
    let expected = grid.points().len();
    let steps = (expected as u64 * SESSION_SECS) as f64;

    let warm = run_shootout(&grid, nproc());
    let setup_s = setup_seconds(9, || materialise(&seeded_grid(args.seed)));
    let runs = run_for(args.seconds, || {
        let (secs, report) = timed(|| run_shootout(&grid, nproc()));
        (secs, (report.points.len(), report.digest()))
    });
    let rss = peak_rss_mb();

    let oracle = run_shootout(&grid, 1);
    let oracle_digest = oracle.digest();
    out.check(oracle.points.len() == expected, || {
        "oracle lost points".into()
    });
    out.check(warm.digest() == oracle_digest, || {
        "warm-up digest != oracle".into()
    });
    for (points, digest) in runs.iter().map(|(_, r)| r) {
        out.attempted += 1;
        if *points != expected || *digest != oracle_digest {
            out.failed += 1;
        }
    }
    let secs: Vec<f64> = runs.iter().map(|(s, _)| *s).collect();
    eprintln!(
        "perfbench: {} runs, median {:.4} s",
        secs.len(),
        median(&secs)
    );
    out.metric("steps_per_s", steps / median(&secs), "1/s");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("qoe_score", point_mean(&oracle, |q| q.score), "score");
    out.metric(
        "blank_fraction",
        point_mean(&oracle, |q| q.mean_blank_fraction),
        "fraction",
    );
    out.metric(
        "origin_mb",
        oracle
            .points
            .iter()
            .map(|p| p.qoe.bytes_fetched)
            .sum::<u64>() as f64
            / 1e6,
        "MB",
    );
    out
}

/// Times every forecast and keeps it for decide replay.
struct TimedForecaster<'a> {
    inner: &'a FusedForecaster,
    capacity_bps: f64,
    secs: RefCell<Vec<f64>>,
    captured: RefCell<Vec<Captured>>,
}

impl Forecaster for TimedForecaster<'_> {
    fn forecast(
        &self,
        grid: &TileGrid,
        history: &[(SimTime, sperke_core::geo::Orientation)],
        now: SimTime,
        target_time: SimTime,
        chunk_time: ChunkTime,
    ) -> TileForecast {
        let (s, forecast) = timed(|| {
            self.inner
                .forecast(grid, history, now, target_time, chunk_time)
        });
        self.secs.borrow_mut().push(s);
        let mut captured = self.captured.borrow_mut();
        let first = captured.is_empty();
        captured.push(Captured {
            forecast: forecast.clone(),
            time: chunk_time,
            buffer: target_time.saturating_since(now),
            capacity_bps: self.capacity_bps,
            first,
        });
        forecast
    }
}

/// Records every path assignment request for replay.
struct RecordingScheduler<'a> {
    inner: SinglePath,
    requests: &'a RefCell<Vec<(ChunkRequest, SimTime)>>,
}

impl MultipathScheduler for RecordingScheduler<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn assign(&mut self, req: &ChunkRequest, paths: &[PathQueue], now: SimTime) -> Assignment {
        self.requests.borrow_mut().push((*req, now));
        self.inner.assign(req, paths, now)
    }

    fn reassign(
        &mut self,
        req: &ChunkRequest,
        paths: &[PathQueue],
        failed_path: usize,
        attempt: u32,
        now: SimTime,
    ) -> Option<Assignment> {
        self.inner.reassign(req, paths, failed_path, attempt, now)
    }
}

/// The single constant-rate path `Sperke::single_link` declares.
fn single_link(cell: &ShootoutCell) -> Vec<PathQueue> {
    let path = PathModel::new(
        "link",
        BandwidthTrace::constant(cell.bandwidth_bps),
        SimDuration::from_millis(20),
        0.0,
    );
    vec![
        PathQueue::new(path, SimRng::new(cell.seed ^ 0xBEEF).split(0))
            .with_faults(FaultScript::none().compile_for(0))
            .with_loss_channel(LossChannel::Declared),
    ]
}

/// Seconds per `assign`, replaying recorded requests back to back (ten
/// passes) against a fresh path set.
fn replay_assigns(cell: &ShootoutCell, requests: &[(ChunkRequest, SimTime)]) -> f64 {
    let paths = single_link(cell);
    let mut scheduler = SinglePath(0);
    let (s, ()) = timed(|| {
        for _ in 0..10 {
            for (req, now) in requests {
                black_box(scheduler.assign(black_box(req), &paths, *now));
            }
        }
    });
    s / (10 * requests.len().max(1)) as f64
}

/// What one rebuilt grid point reports.
struct Recomposed {
    qoe: QoeReport,
    session_s: f64,
    vis_hits: u64,
    vis_lookups: u64,
}

/// Rebuild one grid point through `run_session` from the experiment's
/// public parts, exactly as `Sperke::run` assembles it, with timing
/// wrappers around the forecaster and the scheduler and a visibility
/// cache handed in through the player config; then time the kernels the
/// session tier shares with the edge on this viewer.
fn recompose(
    cell: &ShootoutCell,
    samples: &mut KernelSamples,
    assigns: &RefCell<Vec<(ChunkRequest, SimTime)>>,
    decides: &mut [Vec<f64>; 5],
) -> Recomposed {
    let exp = experiment(cell);
    let start = std::time::Instant::now();
    let video = exp.build_video();
    let (s, head) = timed(|| exp.build_trace());
    samples.head.push(s);
    let inner = exp.build_forecaster();
    let forecaster = TimedForecaster {
        inner: &inner,
        capacity_bps: cell.bandwidth_bps,
        secs: RefCell::default(),
        captured: RefCell::default(),
    };
    let vis = VisibilityCache::default();
    let player = PlayerConfig {
        planner: match cell.policy {
            AbrPolicyKind::Sperke => PlannerKind::Sperke(SperkeConfig::default()),
            other => PlannerKind::Policy(other, SperkeConfig::default()),
        },
        vis_cache: vis.clone(),
        ..PlayerConfig::default()
    };
    let scheduler = RecordingScheduler {
        inner: SinglePath(0),
        requests: assigns,
    };
    let result = run_session(
        &video,
        &head,
        single_link(cell),
        scheduler,
        RateBased::default(),
        &forecaster,
        &player,
    );
    let session_s = start.elapsed().as_secs_f64();
    let stats = vis.stats();

    samples.forecast.extend(forecaster.secs.borrow().iter());
    let captured = forecaster.captured.into_inner();
    let budget = (cell.bandwidth_bps * video.chunk_duration().as_secs_f64() / 8.0) as u64;
    for cap in &captured {
        let (s, choices) = timed(|| {
            select_stochastic(
                &video,
                &cap.forecast,
                cap.time,
                budget,
                Scheme::svc_default(),
                0.05,
            )
        });
        samples.knapsack.push(s);
        black_box(choices);
    }
    replay_decides(&video, &captured, decides);
    black_box(display_coverage(
        &video,
        &head,
        &mut VisibilityScratch::new(),
        samples,
    ));
    let report_delay = CrowdAggregator::new(*video.grid(), video.chunk_duration()).report_delay;
    let viewer = LiveViewer {
        trace: head,
        latency: SimDuration::ZERO,
    };
    black_box(gaze_reports(&video, report_delay, &viewer, samples));
    Recomposed {
        qoe: result.qoe,
        session_s,
        vis_hits: stats.hits,
        vis_lookups: stats.hits + stats.misses,
    }
}

/// Grid points whose verbose traces are kept for the trace-export layers.
const KEPT_TRACES: usize = 15;

fn shootout_layers(grid: &ShootoutGrid, out: &mut Outcome) {
    let mut layers = Layers::default();
    let cells = grid.points();
    let (oracle_s, oracle) = timed(|| run_shootout(grid, 1));
    out.check(oracle.points.len() == cells.len(), || {
        "oracle lost points".into()
    });

    // The untraced workload against the same sessions traced verbosely.
    let (mut plain, mut verbose) = (Vec::new(), Vec::new());
    let mut traces = Vec::new();
    for _ in 0..REPS {
        let (s, report) = timed(|| run_shootout(grid, nproc()));
        plain.push(s);
        out.attempted += 1;
        if report.digest() != oracle.digest() {
            out.failed += 1;
        }
        let (s, runs) = timed(|| {
            parallel_indexed(cells.len(), nproc(), |i| {
                let run = experiment(&cells[i])
                    .with_trace(TraceLevel::Verbose)
                    .run_report();
                (run.session.qoe, (i < KEPT_TRACES).then_some(run.trace))
            })
        });
        verbose.push(s);
        out.attempted += 1;
        if runs
            .iter()
            .zip(&oracle.points)
            .any(|((q, _), p)| *q != p.qoe)
        {
            out.failed += 1;
        }
        traces = runs.into_iter().filter_map(|(_, t)| t).collect();
    }
    layers.set(
        "bench.trace_overhead_pct",
        (median(&verbose) / median(&plain) - 1.0) * 100.0,
    );
    let kept: Vec<&sperke_core::Trace> = traces.iter().collect();
    trace_layers(&kept, &mut layers);

    // Every point rebuilt through `run_session`; each must reproduce the
    // program's QoE report bit for bit.
    let mut samples = KernelSamples::default();
    let assigns = RefCell::new(Vec::new());
    let mut assign_s = Vec::new();
    let mut decides: [Vec<f64>; 5] = Default::default();
    let mut session_s: [Vec<f64>; 5] = Default::default();
    let (mut vis_hits, mut vis_lookups, mut wasted, mut fetched) = (0, 0, 0, 0);
    let mut total_s = 0.0;
    for (cell, point) in cells.iter().zip(&oracle.points) {
        let r = recompose(cell, &mut samples, &assigns, &mut decides);
        assign_s.push(replay_assigns(cell, &assigns.take()));
        out.check(r.qoe == point.qoe, || {
            format!("recomposed session {cell:?} differs from Sperke::run")
        });
        let slot = AbrPolicyKind::all()
            .iter()
            .position(|k| *k == cell.policy)
            .expect("grid policies come from AbrPolicyKind::all()");
        session_s[slot].push(r.session_s);
        total_s += r.session_s;
        vis_hits += r.vis_hits;
        vis_lookups += r.vis_lookups;
        wasted += r.qoe.bytes_wasted;
        fetched += r.qoe.bytes_fetched;
    }
    samples.report(&mut layers);
    layers.set("net.assign_ns", median(&assign_s) * 1e9);
    eprintln!("perfbench: visibility cache {vis_hits} hits in {vis_lookups} lookups");
    layers.set(
        "geo.vis_cache_hit_ratio",
        vis_hits as f64 / vis_lookups.max(1) as f64,
    );
    const SESSION: [&str; 5] = [
        "player.session_ms.knapsack",
        "player.session_ms.transition",
        "player.session_ms.qer",
        "player.session_ms.consistency",
        "player.session_ms.sperke",
    ];
    for (name, secs) in SESSION.iter().zip(&session_s) {
        layers.set(name, median(secs) * 1e3);
    }
    layers.set(
        "player.wasted_fraction",
        wasted as f64 / fetched.max(1) as f64,
    );
    layers.set("bench.sense_recomposition_ratio", total_s / oracle_s);
    set_decides(&mut layers, &decides);
    layers.emit(out);
}
