//! Crowd-sourced HMP for live 360° viewers (§3.4.2).
//!
//! "When many viewers are present, due to the heterogeneity of their
//! network quality ... the E2E latency across users will likely exhibit
//! high variance. We can therefore use the realtime head movement
//! statistics of low-latency users ... to help HMP for high-latency
//! users who experience challenging network conditions and thus can
//! benefit from FoV-guided streaming."
//!
//! The mechanic: a viewer with latency `L_lo` watches video time
//! `t - L_lo` at wall time `t`. Their gaze at video time `v` reaches the
//! server at wall `v + L_lo (+ report delay)`. A viewer with latency
//! `L_hi > L_lo` needs tiles for video time `v` shortly before wall
//! `v + L_hi` — by which point the crowd's gaze at `v` is long known.

use serde::{Deserialize, Serialize};
use sperke_geo::{TileGrid, TileId, Viewport, VisibilityCache, VisibilityScratch};
use sperke_hmp::{FusedForecaster, HeadTrace, Heatmap};
use sperke_sim::{SimDuration, SimTime};
use sperke_video::ChunkTime;

/// A live viewer in the population.
#[derive(Debug, Clone)]
pub struct LiveViewer {
    /// Their head-movement trace (indexed by *video* time).
    pub trace: HeadTrace,
    /// Their E2E latency (video time v displays at wall v + latency).
    pub latency: SimDuration,
}

/// The server-side realtime gaze aggregator.
///
/// Collects (video-time, visible tiles) reports with their wall-clock
/// availability, and answers heatmap queries *causally*: a query at wall
/// time `w` only sees reports that arrived by `w`.
#[derive(Debug, Clone)]
pub struct CrowdAggregator {
    grid: TileGrid,
    chunk_duration: SimDuration,
    /// `(available_at_wall, chunk, tiles)` reports.
    reports: Vec<(SimTime, ChunkTime, Vec<TileId>)>,
    /// Extra delay for a gaze report to reach the server.
    pub report_delay: SimDuration,
    /// Memoized visibility for ingest (many viewers share gazes).
    vis: VisibilityCache,
}

impl CrowdAggregator {
    /// Create an aggregator for the given tiling and chunking.
    pub fn new(grid: TileGrid, chunk_duration: SimDuration) -> CrowdAggregator {
        CrowdAggregator {
            grid,
            chunk_duration,
            reports: Vec::new(),
            report_delay: SimDuration::from_millis(200),
            vis: VisibilityCache::default(),
        }
    }

    /// Ingest one viewer's gaze stream for chunks `0..chunks`.
    pub fn ingest(&mut self, viewer: &LiveViewer, chunks: u32) {
        for c in 0..chunks {
            let video_time = SimTime::ZERO + self.chunk_duration * c as u64;
            // The viewer watches chunk c at wall video_time + latency;
            // their gaze report reaches the server report_delay later.
            let wall = video_time + viewer.latency + self.report_delay;
            let gaze = viewer.trace.at(video_time + self.chunk_duration / 2);
            let tiles = self
                .vis
                .visible_tile_set(&Viewport::headset(gaze), &self.grid);
            self.reports.push((wall, ChunkTime(c), tiles));
        }
    }

    /// Append reports precomputed by [`viewer_reports`]. Appending each
    /// viewer's reports in ingest order leaves the aggregator in exactly
    /// the state repeated [`CrowdAggregator::ingest`] calls would — the
    /// report list is identical entry for entry.
    pub fn ingest_reports(&mut self, reports: Vec<(SimTime, ChunkTime, Vec<TileId>)>) {
        self.reports.extend(reports);
    }

    /// Append precomputed reports with every wall availability shifted
    /// `delay` later — a remote viewer whose gaze stream crosses an
    /// inter-edge sync link before it reaches this aggregator. Because a
    /// report's wall time is linear in the viewer's latency, shifting by
    /// `delay` is exactly equivalent to re-ingesting the viewer with
    /// `latency + delay`; sharing one [`viewer_reports`] computation
    /// across edges therefore stays bit-exact.
    pub fn ingest_reports_delayed(
        &mut self,
        reports: &[(SimTime, ChunkTime, Vec<TileId>)],
        delay: SimDuration,
    ) {
        self.reports.extend(
            reports
                .iter()
                .map(|(wall, chunk, tiles)| (*wall + delay, *chunk, tiles.clone())),
        );
    }

    /// Build the heatmap visible to the server at wall time `now`,
    /// covering `chunks` chunk times.
    pub fn heatmap_at(&self, now: SimTime, chunks: u32) -> Heatmap {
        let mut map = Heatmap::empty(self.grid, self.chunk_duration, chunks);
        for (wall, chunk, tiles) in &self.reports {
            if *wall <= now && chunk.0 < chunks {
                map.record(*chunk, tiles);
            }
        }
        map
    }

    /// Number of ingested reports.
    pub fn report_count(&self) -> usize {
        self.reports.len()
    }

    /// The `k` tiles the crowd most watched for chunk `chunk`, judged
    /// only from reports causally available at wall time `now` (best
    /// first, ties by tile id). Empty when no report for the chunk has
    /// arrived yet — an edge prefetcher then has nothing to act on.
    pub fn predicted_tiles(&self, now: SimTime, chunk: ChunkTime, k: usize) -> Vec<TileId> {
        let map = self.heatmap_at(now, chunk.0 + 1);
        if map.viewer_count(chunk) == 0 {
            return Vec::new();
        }
        map.top_k(chunk, k)
    }
}

/// The gaze reports [`CrowdAggregator::ingest`] would append for one
/// viewer — `(available_at_wall, chunk, visible tiles)` for each chunk
/// in `0..chunks` — computed without touching an aggregator. Pure in
/// its arguments, so a batched engine can compute every viewer's
/// reports on worker threads and append them in canonical order with
/// [`CrowdAggregator::ingest_reports`]. Takes the viewer's parts by
/// reference, so a caller holding only a trace need not build a
/// [`LiveViewer`] around a copy of it.
pub fn trace_reports(
    grid: &TileGrid,
    chunk_duration: SimDuration,
    report_delay: SimDuration,
    trace: &HeadTrace,
    latency: SimDuration,
    chunks: u32,
) -> Vec<(SimTime, ChunkTime, Vec<TileId>)> {
    // One scratch (ray-hit counts + boundary classifier) serves every
    // chunk; `visible_tile_set_into` returns the identical tile set to
    // `visible_tile_set` without sorting or coverage fractions.
    let mut scratch = VisibilityScratch::new();
    (0..chunks)
        .map(|c| {
            let video_time = SimTime::ZERO + chunk_duration * c as u64;
            let wall = video_time + latency + report_delay;
            let gaze = trace.at(video_time + chunk_duration / 2);
            let mut tiles = Vec::new();
            Viewport::headset(gaze).visible_tile_set_into(grid, &mut scratch, &mut tiles);
            (wall, ChunkTime(c), tiles)
        })
        .collect()
}

/// [`trace_reports`] for a [`LiveViewer`].
pub fn viewer_reports(
    grid: &TileGrid,
    chunk_duration: SimDuration,
    report_delay: SimDuration,
    viewer: &LiveViewer,
    chunks: u32,
) -> Vec<(SimTime, ChunkTime, Vec<TileId>)> {
    trace_reports(
        grid,
        chunk_duration,
        report_delay,
        &viewer.trace,
        viewer.latency,
        chunks,
    )
}

/// Accuracy report for one prediction policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrowdHmpReport {
    /// Fraction of chunks where the top-k forecast tiles contained the
    /// high-latency viewer's actual gaze tile.
    pub topk_hit_rate: f64,
    /// Mean crowd reports available per predicted chunk.
    pub mean_reports_available: f64,
    /// Chunks evaluated.
    pub evaluations: usize,
}

/// Evaluate crowd-assisted HMP for a high-latency viewer.
///
/// For each chunk `c`, the prediction is made at the moment the
/// high-latency viewer's player must fetch `c` (its display wall time
/// minus `fetch_lead`), using gaze history up to then plus — when
/// `use_crowd` — the causally available crowd heatmap.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_crowd_hmp(
    grid: &TileGrid,
    chunk_duration: SimDuration,
    crowd: &CrowdAggregator,
    viewer: &LiveViewer,
    chunks: u32,
    fetch_lead: SimDuration,
    k: usize,
    use_crowd: bool,
) -> CrowdHmpReport {
    let mut hits = 0usize;
    let mut total = 0usize;
    let mut reports_avail = 0.0;
    for c in 1..chunks {
        let video_time = SimTime::ZERO + chunk_duration * c as u64;
        let display_wall = video_time + viewer.latency;
        let decide_wall = SimTime::from_nanos(
            display_wall
                .as_nanos()
                .saturating_sub(fetch_lead.as_nanos()),
        );
        // The viewer's own gaze history: what they were *watching* at
        // decide time, i.e. video time decide_wall - latency.
        let own_video_now = SimTime::from_nanos(
            decide_wall
                .as_nanos()
                .saturating_sub(viewer.latency.as_nanos()),
        );
        let history = viewer.trace.history(own_video_now, 50);

        let forecaster = if use_crowd {
            let map = crowd.heatmap_at(decide_wall, chunks);
            reports_avail += map.viewer_count(ChunkTime(c)) as f64;
            FusedForecaster::motion_only().with_heatmap(map)
        } else {
            FusedForecaster::motion_only()
        };
        let forecast = forecaster.forecast(grid, &history, own_video_now, video_time, ChunkTime(c));

        let actual = viewer.trace.at(video_time + chunk_duration / 2);
        let actual_tile = grid.tile_of_direction(actual.direction());
        if forecast.top_k(k).contains(&actual_tile) {
            hits += 1;
        }
        total += 1;
    }
    CrowdHmpReport {
        topk_hit_rate: if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        },
        mean_reports_available: if total == 0 {
            0.0
        } else {
            reports_avail / total as f64
        },
        evaluations: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_hmp::{generate_ensemble, AttentionModel};

    fn population(seed: u64) -> (Vec<LiveViewer>, LiveViewer) {
        // Everyone watches the same sports video (shared hotspots).
        let att = AttentionModel::sports(seed);
        let traces = generate_ensemble(&att, 9, SimDuration::from_secs(30), seed);
        let mut it = traces.into_iter();
        let lows: Vec<LiveViewer> = (0..8)
            .map(|i| LiveViewer {
                trace: it.next().expect("enough traces"),
                latency: SimDuration::from_secs(8 + i % 3),
            })
            .collect();
        let high = LiveViewer {
            trace: it.next().expect("one more"),
            latency: SimDuration::from_secs(30),
        };
        (lows, high)
    }

    #[test]
    fn aggregator_is_causal() {
        let grid = TileGrid::new(4, 6);
        let cd = SimDuration::from_secs(1);
        let mut agg = CrowdAggregator::new(grid, cd);
        let viewer = LiveViewer {
            trace: HeadTrace::from_fn(SimDuration::from_secs(10), |_| {
                sperke_geo::Orientation::FRONT
            }),
            latency: SimDuration::from_secs(5),
        };
        agg.ingest(&viewer, 10);
        // Chunk 6's gaze reaches the server at 6 + 5 + 0.2 = 11.2 s.
        let before = agg.heatmap_at(SimTime::from_secs(11), 10);
        let after = agg.heatmap_at(SimTime::from_secs(12), 10);
        assert_eq!(before.viewer_count(ChunkTime(6)), 0);
        assert_eq!(after.viewer_count(ChunkTime(6)), 1);
    }

    #[test]
    fn high_latency_viewer_sees_full_crowd_history() {
        let grid = TileGrid::new(4, 6);
        let cd = SimDuration::from_secs(1);
        let (lows, high) = population(5);
        let mut agg = CrowdAggregator::new(grid, cd);
        for v in &lows {
            agg.ingest(v, 25);
        }
        // When the high-latency viewer fetches chunk 20 (wall ≈ 49 s),
        // the crowd (latency ≤ 10 s) reported chunk 20 by wall ≈ 31 s.
        let decide = SimTime::ZERO + cd * 20 + high.latency - SimDuration::from_secs(1);
        let map = agg.heatmap_at(decide, 25);
        assert_eq!(map.viewer_count(ChunkTime(20)), lows.len() as u32);
    }

    #[test]
    fn crowd_prior_improves_high_latency_hmp() {
        // The §3.4.2 claim, end to end.
        let grid = TileGrid::new(4, 6);
        let cd = SimDuration::from_secs(1);
        let mut best_gain = f64::NEG_INFINITY;
        for seed in [5u64, 11, 23] {
            let (lows, high) = population(seed);
            let mut agg = CrowdAggregator::new(grid, cd);
            for v in &lows {
                agg.ingest(v, 28);
            }
            // The high-latency viewer must fetch well ahead (deep buffer):
            // pure motion HMP at a ~4 s horizon is weak.
            let lead = SimDuration::from_secs(4);
            let with = evaluate_crowd_hmp(&grid, cd, &agg, &high, 28, lead, 6, true);
            let without = evaluate_crowd_hmp(&grid, cd, &agg, &high, 28, lead, 6, false);
            best_gain = best_gain.max(with.topk_hit_rate - without.topk_hit_rate);
            assert!(
                with.mean_reports_available > 6.0,
                "crowd data must be available"
            );
        }
        assert!(
            best_gain > 0.0,
            "crowd prior should improve hit rate on at least one seed (gain {best_gain})"
        );
    }

    #[test]
    fn precomputed_reports_match_ingest_exactly() {
        let grid = TileGrid::new(4, 6);
        let cd = SimDuration::from_secs(1);
        let (lows, _) = population(13);
        let mut direct = CrowdAggregator::new(grid, cd);
        let mut batched = CrowdAggregator::new(grid, cd);
        for v in &lows {
            direct.ingest(v, 12);
            let reports = trace_reports(&grid, cd, batched.report_delay, &v.trace, v.latency, 12);
            batched.ingest_reports(reports);
        }
        assert_eq!(direct.reports, batched.reports);
    }

    #[test]
    fn delayed_ingest_equals_added_latency() {
        let grid = TileGrid::new(4, 6);
        let cd = SimDuration::from_secs(1);
        let (lows, _) = population(19);
        let delay = SimDuration::from_millis(150);
        let mut shifted = CrowdAggregator::new(grid, cd);
        let mut slower = CrowdAggregator::new(grid, cd);
        for v in &lows {
            let reports = viewer_reports(&grid, cd, shifted.report_delay, v, 12);
            shifted.ingest_reports_delayed(&reports, delay);
            slower.ingest(
                &LiveViewer {
                    trace: v.trace.clone(),
                    latency: v.latency + delay,
                },
                12,
            );
        }
        assert_eq!(shifted.reports, slower.reports);
    }

    #[test]
    fn report_counts() {
        let grid = TileGrid::new(2, 4);
        let mut agg = CrowdAggregator::new(grid, SimDuration::from_secs(1));
        let (lows, _) = population(7);
        for v in &lows {
            agg.ingest(v, 5);
        }
        assert_eq!(agg.report_count(), lows.len() * 5);
    }
}
