//! The edge-tier sweep grid for the [`sperke_edge`] multi-client
//! edge-server model.
//!
//! One edge run is described by a plain [`EdgeConfig`] plus an
//! [`EdgeHarness`] and run by [`sperke_edge::run_edge`] (its oracle is
//! [`sperke_edge::run_edge_oracle`]). [`EdgeGrid`] → [`run_edge_sweep`]
//! fans a clients × cache × seeds grid across CPU cores through the
//! same run path, with the same byte-determinism guarantee as the fleet
//! sweep: the merged report is identical for any worker count.

use serde::{Deserialize, Serialize};
use sperke_edge::{run_edge, EdgeConfig, EdgeHarness, EdgeReport};
use sperke_sim::sweep::{run_sweep, SweepPlan, SweepReport};
use sperke_video::VideoModel;
use sperke_vra::AbrPolicyKind;

/// A rectangular grid over [`EdgeConfig`]: clients × cache capacity ×
/// seeds, applied over a shared base config. Point order is
/// deterministic and clients-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeGrid {
    /// Knobs shared by every point.
    pub base: EdgeConfig,
    /// Client-count axis.
    pub clients: Vec<usize>,
    /// Cache-capacity axis, bytes (include 0 for the no-cache baseline).
    pub cache_bytes: Vec<u64>,
    /// Seed axis.
    pub seeds: Vec<u64>,
}

impl EdgeGrid {
    /// A degenerate grid holding only `base`'s own axis values.
    pub fn new(base: EdgeConfig) -> EdgeGrid {
        EdgeGrid {
            clients: vec![base.clients],
            cache_bytes: vec![base.cache_bytes],
            seeds: vec![base.seed],
            base,
        }
    }

    /// Sweep these client counts.
    pub fn clients_axis(mut self, clients: Vec<usize>) -> EdgeGrid {
        self.clients = clients;
        self
    }

    /// Sweep these cache capacities (bytes; 0 = no cache).
    pub fn cache_axis(mut self, cache_bytes: Vec<u64>) -> EdgeGrid {
        self.cache_bytes = cache_bytes;
        self
    }

    /// Sweep these seeds.
    pub fn seed_axis(mut self, seeds: Vec<u64>) -> EdgeGrid {
        self.seeds = seeds;
        self
    }

    /// The grid's points in sweep order (clients-major, then cache,
    /// then seed).
    pub fn points(&self) -> Vec<EdgeConfig> {
        let mut out =
            Vec::with_capacity(self.clients.len() * self.cache_bytes.len() * self.seeds.len());
        for &clients in &self.clients {
            for &cache_bytes in &self.cache_bytes {
                for &seed in &self.seeds {
                    out.push(EdgeConfig {
                        clients,
                        cache_bytes,
                        seed,
                        ..self.base
                    });
                }
            }
        }
        out
    }

    /// The grid as a [`SweepPlan`].
    pub fn plan(&self) -> SweepPlan<EdgeConfig> {
        SweepPlan::new(self.points())
    }
}

/// One merged edge-sweep point: the config that ran and its report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeSweepPoint {
    /// The exact configuration of this point.
    pub config: EdgeConfig,
    /// The edge run's aggregate outcome.
    pub report: EdgeReport,
}

/// Run every point of `grid` against `video` on `threads` workers
/// (`0` = available parallelism), merging deterministically by grid
/// index: byte-identical for any worker count.
///
/// Every point runs the batched engine on one sense worker (the sweep
/// owns the thread pool), with `policy` planning every client decide
/// as [`EdgeHarness::policy`] does; [`AbrPolicyKind::Knapsack`] and
/// [`AbrPolicyKind::Sperke`] reproduce `None` byte-for-byte.
pub fn run_edge_sweep(
    video: &VideoModel,
    grid: &EdgeGrid,
    policy: Option<AbrPolicyKind>,
    threads: usize,
) -> SweepReport<EdgeSweepPoint> {
    run_sweep(&grid.plan(), threads, |_index, config| EdgeSweepPoint {
        config: *config,
        report: run_edge(
            video,
            config,
            &sperke_edge::default_clients(config),
            &EdgeHarness {
                policy,
                ..Default::default()
            },
            None,
            1,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_edge::{default_clients, run_edge_oracle};
    use sperke_sim::{SimDuration, TraceLevel, TraceSink};
    use sperke_video::VideoModelBuilder;

    fn video() -> VideoModel {
        VideoModelBuilder::new(3)
            .duration(SimDuration::from_secs(10))
            .build()
    }

    /// The oracle over the config's default population, untraced.
    fn oracle(video: &VideoModel, config: &EdgeConfig, harness: &EdgeHarness) -> EdgeReport {
        run_edge_oracle(video, config, &default_clients(config), harness, None)
    }

    #[test]
    fn grid_points_enumerate_clients_major() {
        let grid = EdgeGrid::new(EdgeConfig::default())
            .clients_axis(vec![4, 8])
            .cache_axis(vec![0, 64 << 20])
            .seed_axis(vec![7]);
        let points = grid.points();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].clients, 4);
        assert_eq!(points[0].cache_bytes, 0);
        assert_eq!(points[1].cache_bytes, 64 << 20);
        assert_eq!(points[2].clients, 8);
    }

    #[test]
    fn edge_sweep_is_thread_count_invariant() {
        let v = video();
        let grid = EdgeGrid::new(EdgeConfig {
            clients: 4,
            ..Default::default()
        })
        .cache_axis(vec![0, 128 << 20])
        .seed_axis(vec![7, 11]);
        let serial = run_edge_sweep(&v, &grid, None, 1);
        let parallel = run_edge_sweep(&v, &grid, None, 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_jsonl(), parallel.to_jsonl());
        assert_eq!(serial.digest(), parallel.digest());
        assert_eq!(serial.len(), 4);
    }

    #[test]
    fn run_path_and_sweep_match_oracle() {
        let config = EdgeConfig {
            seed: 11,
            clients: 6,
            ..Default::default()
        };
        let v8 = VideoModelBuilder::new(11)
            .duration(SimDuration::from_secs(8))
            .build();
        let clients = default_clients(&config);
        let traced = |run: &dyn Fn(&EdgeHarness) -> EdgeReport| {
            let sink = TraceSink::with_level(TraceLevel::Events);
            let report = run(&EdgeHarness {
                trace: sink.clone(),
                ..Default::default()
            });
            (report, sink.into_trace().digest())
        };
        let legacy = traced(&|h| run_edge_oracle(&v8, &config, &clients, h, None));
        for workers in [1usize, 4] {
            let batched = traced(&|h| run_edge(&v8, &config, &clients, h, None, workers));
            assert_eq!(legacy, batched, "diverged at {workers} workers");
        }

        let v = video();
        let grid = EdgeGrid::new(EdgeConfig {
            clients: 4,
            ..Default::default()
        })
        .cache_axis(vec![0, 128 << 20])
        .seed_axis(vec![7]);
        let oracle_sweep = run_sweep(&grid.plan(), 2, |_index, config| EdgeSweepPoint {
            config: *config,
            report: oracle(&v, config, &EdgeHarness::default()),
        });
        let sweep = run_edge_sweep(&v, &grid, None, 2);
        assert_eq!(oracle_sweep.to_jsonl(), sweep.to_jsonl());
        assert_eq!(oracle_sweep.digest(), sweep.digest());
    }

    #[test]
    fn policy_run_path_and_sweep_collapse_to_legacy() {
        let config = EdgeConfig {
            seed: 13,
            clients: 5,
            ..Default::default()
        };
        let v8 = VideoModelBuilder::new(13)
            .duration(SimDuration::from_secs(8))
            .build();
        let with_policy = |policy| EdgeHarness {
            policy,
            ..Default::default()
        };
        let legacy = oracle(&v8, &config, &EdgeHarness::default());
        assert_eq!(
            legacy,
            oracle(&v8, &config, &with_policy(Some(AbrPolicyKind::Knapsack))),
            "knapsack oracle diverged from legacy"
        );
        let qer = with_policy(Some(AbrPolicyKind::qer_default()));
        assert_eq!(
            oracle(&v8, &config, &qer),
            run_edge(&v8, &config, &default_clients(&config), &qer, None, 4),
            "qer run path diverged from qer oracle"
        );

        let v = video();
        let grid = EdgeGrid::new(EdgeConfig {
            clients: 4,
            ..Default::default()
        })
        .cache_axis(vec![0, 128 << 20])
        .seed_axis(vec![7]);
        let hardwired_sweep = run_edge_sweep(&v, &grid, None, 2);
        let knap_sweep = run_edge_sweep(&v, &grid, Some(AbrPolicyKind::Knapsack), 2);
        assert_eq!(hardwired_sweep.to_jsonl(), knap_sweep.to_jsonl());
        let transition = Some(AbrPolicyKind::transition_default());
        let serial = run_edge_sweep(&v, &grid, transition, 1);
        let parallel = run_edge_sweep(&v, &grid, transition, 4);
        assert_eq!(serial.to_jsonl(), parallel.to_jsonl());
        assert_eq!(serial.digest(), parallel.digest());
    }

    #[test]
    fn sweep_baseline_axis_shows_cache_savings() {
        let v = video();
        let grid = EdgeGrid::new(EdgeConfig {
            clients: 8,
            ..Default::default()
        })
        .cache_axis(vec![0, 256 << 20]);
        let report = run_edge_sweep(&v, &grid, None, 0);
        let points: Vec<&EdgeSweepPoint> = report.ok_results().collect();
        assert_eq!(points.len(), 2);
        let (uncached, cached) = (&points[0].report, &points[1].report);
        assert!(cached.origin_demand_bytes() < uncached.origin_demand_bytes());
    }
}
