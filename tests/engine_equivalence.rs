//! Differential engine harness: one event-driven oracle per tier
//! checks the tier's one run path.
//!
//! The determinism contract under test:
//!
//! > `(config, clients, policy, seed) → byte-identical trace digests`
//! > for any worker count.
//!
//! Every property here runs the oracle (single-threaded,
//! event-at-a-time — `run_fleet_oracle` / `run_edge_oracle`) and the
//! batched run path (`run_fleet` / `run_edge`) side by side
//! over randomized configurations and policies, and requires the
//! *bytes* to match: trace JSONL, trace digest, and the full report
//! struct. Worker counts 1, 2 and 8 must all land on the same bytes —
//! the sense phase shards by session index and merges by index, so the
//! thread pool can only change wall-clock time.

use proptest::prelude::*;
use sperke_core::{
    run_fleet, run_fleet_oracle, run_fleet_sweep, FleetConfig, FleetGrid, FleetSweepPoint,
};
use sperke_edge::{
    default_clients, prepare_edge_batch, run_edge, run_edge_oracle, run_edge_prepared, EdgeConfig,
    EdgeHarness,
};
use sperke_net::LossChannel;
use sperke_sim::sweep::run_sweep;
use sperke_sim::trace::{TraceConfig, TraceLevel, TraceSink};
use sperke_sim::SimDuration;
use sperke_video::{VideoModel, VideoModelBuilder};
use sperke_vra::AbrPolicyKind;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Draw index → planner: 0 is the hardwired selector (`None`), 1..=5
/// the rivals of [`AbrPolicyKind::all`].
fn policy_for(pick: usize) -> Option<AbrPolicyKind> {
    pick.checked_sub(1).map(|i| AbrPolicyKind::all()[i])
}

fn video(seed: u64, secs: u64) -> VideoModel {
    VideoModelBuilder::new(seed)
        .duration(SimDuration::from_secs(secs))
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Fleet: randomized viewer counts, egress capacities, schemes,
    /// policies and seeds — the run path reproduces the oracle's report
    /// exactly at every worker count.
    #[test]
    fn fleet_engines_agree_bit_for_bit(
        viewers in 1usize..14,
        egress_pick in 0usize..4,
        fov_guided: bool,
        policy_pick in 0usize..6,
        seed in 0u64..200,
    ) {
        let v = video(3, 8);
        let cfg = FleetConfig {
            viewers,
            egress_bps: [25e6, 60e6, 200e6, 500e6][egress_pick],
            fov_guided,
            seed,
            ..Default::default()
        };
        let policy = policy_for(policy_pick);
        let legacy = run_fleet_oracle(&v, &cfg, policy);
        for workers in WORKER_COUNTS {
            let batched = run_fleet(&v, &cfg, policy, workers);
            prop_assert_eq!(
                &legacy, &batched,
                "fleet engines diverged at {} workers", workers
            );
        }
    }

    /// Edge: randomized populations, cache sizes, admission caps,
    /// prefetch settings and policies — report AND trace bytes
    /// identical at every worker count.
    #[test]
    fn edge_engines_agree_on_trace_bytes(
        clients in 1usize..10,
        cap in 1usize..12,
        cache_pick in 0usize..3,
        prefetch: bool,
        policy_pick in 0usize..6,
        seed in 0u64..200,
    ) {
        let v = video(3, 6);
        let cfg = EdgeConfig {
            clients,
            max_clients: cap,
            cache_bytes: [0u64, 32, 256][cache_pick] << 20,
            prefetch,
            seed,
            ..Default::default()
        };
        let specs = default_clients(&cfg);
        let policy = policy_for(policy_pick);

        let legacy_sink = TraceSink::new(TraceConfig::new(TraceLevel::Verbose));
        let legacy = run_edge_oracle(
            &v,
            &cfg,
            &specs,
            &EdgeHarness { trace: legacy_sink.clone(), policy, ..Default::default() },
            None,
        );
        let legacy_trace = legacy_sink.snapshot();

        for workers in WORKER_COUNTS {
            let sink = TraceSink::new(TraceConfig::new(TraceLevel::Verbose));
            let batched = run_edge(
                &v,
                &cfg,
                &specs,
                &EdgeHarness { trace: sink.clone(), policy, ..Default::default() },
                None,
                workers,
            );
            let trace = sink.snapshot();
            prop_assert_eq!(
                &legacy, &batched,
                "edge reports diverged at {} workers", workers
            );
            prop_assert_eq!(
                legacy_trace.to_jsonl(), trace.to_jsonl(),
                "edge trace JSONL diverged at {} workers", workers
            );
            prop_assert_eq!(
                legacy_trace.digest(), trace.digest(),
                "edge trace digest diverged at {} workers", workers
            );
        }
    }

    /// Edge with measured capacity and bursty loss: BBR pacing and the
    /// Gilbert–Elliott origin channel live in the shared apply code, so
    /// their state machines must replay byte-identically through the
    /// batched engine — including the new ProbeEpochStarted /
    /// DeliveryRateSample / LossStateChanged events.
    #[test]
    fn edge_engines_agree_with_bbr_and_bursty_loss(
        clients in 1usize..10,
        cap in 1usize..12,
        bbr: bool,
        loss_pick in 0usize..3,
        p_gb in 0.05f64..0.5,
        p_bg in 0.05f64..0.5,
        seed in 0u64..200,
    ) {
        let v = video(3, 6);
        let cfg = EdgeConfig {
            clients,
            max_clients: cap,
            seed,
            ..Default::default()
        };
        let specs = default_clients(&cfg);
        let origin_loss = match loss_pick {
            0 => LossChannel::Declared,
            1 => LossChannel::bursty_default(),
            _ => LossChannel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good: 0.001,
                loss_bad: 0.3,
            },
        };
        let harness_for = |sink: &TraceSink| EdgeHarness {
            trace: sink.clone(),
            bbr,
            origin_loss,
            ..Default::default()
        };

        let legacy_sink = TraceSink::new(TraceConfig::new(TraceLevel::Verbose));
        let legacy = run_edge_oracle(&v, &cfg, &specs, &harness_for(&legacy_sink), None);
        let legacy_trace = legacy_sink.snapshot();

        for workers in WORKER_COUNTS {
            let sink = TraceSink::new(TraceConfig::new(TraceLevel::Verbose));
            let batched = run_edge(&v, &cfg, &specs, &harness_for(&sink), None, workers);
            let trace = sink.snapshot();
            prop_assert_eq!(
                &legacy, &batched,
                "bbr/ge edge reports diverged at {} workers", workers
            );
            prop_assert_eq!(
                legacy_trace.to_jsonl(), trace.to_jsonl(),
                "bbr/ge edge trace JSONL diverged at {} workers", workers
            );
            prop_assert_eq!(
                legacy_trace.digest(), trace.digest(),
                "bbr/ge edge trace digest diverged at {} workers", workers
            );
        }
    }

    /// Sweeps: a randomized fleet grid merged on a randomized thread
    /// count — the oracle swept point by point and `run_fleet_sweep`
    /// serialize to the same JSONL and digest.
    #[test]
    fn sweep_engines_agree_on_merged_bytes(
        viewers in 1usize..5,
        seed_a in 0u64..50,
        seed_b in 50u64..100,
        threads in 1usize..5,
    ) {
        let v = video(29, 5);
        let grid = FleetGrid::new(FleetConfig { viewers, ..Default::default() })
            .egress_axis(vec![60e6, 200e6])
            .scheme_axis(vec![true, false])
            .seed_axis(vec![seed_a, seed_b]);
        let legacy = run_sweep(&grid.plan(), threads, |_index, config| FleetSweepPoint {
            config: *config,
            report: run_fleet_oracle(&v, config, None),
        });
        let batched = run_fleet_sweep(&v, &grid, None, threads);
        prop_assert_eq!(legacy.to_jsonl(), batched.to_jsonl());
        prop_assert_eq!(legacy.digest(), batched.digest());
    }
}

/// A plain edge config goes through the same contract: a traced edge
/// run is byte-identical between `run_edge_oracle` and `run_edge` for
/// all worker counts.
#[test]
fn edge_builder_engines_agree() {
    let v = video(77, 9);
    let cfg = EdgeConfig {
        seed: 77,
        clients: 9,
        max_clients: 7,
        ..Default::default()
    };
    let specs = default_clients(&cfg);
    let traced = |run: &dyn Fn(&EdgeHarness) -> sperke_edge::EdgeReport| {
        let sink = TraceSink::new(TraceConfig::new(TraceLevel::Verbose));
        let report = run(&EdgeHarness {
            trace: sink.clone(),
            ..Default::default()
        });
        (report, sink.into_trace())
    };
    let (legacy, legacy_trace) = traced(&|h| run_edge_oracle(&v, &cfg, &specs, h, None));
    for workers in WORKER_COUNTS {
        let (batched, trace) = traced(&|h| run_edge(&v, &cfg, &specs, h, None, workers));
        assert_eq!(legacy, batched, "report diverged at {workers} workers");
        assert_eq!(
            legacy_trace.to_jsonl(),
            trace.to_jsonl(),
            "trace diverged at {workers} workers"
        );
        assert_eq!(legacy_trace.digest(), trace.digest());
    }
}

/// At a 1,000-client scale, one shared [`prepare_edge_batch`] plan
/// replayed through `run_edge_prepared` reproduces the oracle's report,
/// with the default harness and with BBR pacing plus bursty origin loss
/// on the same plan.
#[test]
fn prepared_plan_matches_oracle_at_1k_clients() {
    let v = video(7, 8);
    let cfg = EdgeConfig {
        clients: 1000,
        max_clients: 2048,
        ..Default::default()
    };
    let specs = default_clients(&cfg);
    let plan = prepare_edge_batch(&v, &cfg, &specs, 0);
    for harness in [
        EdgeHarness::default(),
        EdgeHarness {
            bbr: true,
            origin_loss: LossChannel::bursty_default(),
            ..Default::default()
        },
    ] {
        let oracle = run_edge_oracle(&v, &cfg, &specs, &harness, None);
        let prepared = run_edge_prepared(&v, &cfg, &plan, &harness, None);
        assert_eq!(
            oracle, prepared,
            "bbr={} loss={:?}: prepared plan diverged from the oracle",
            harness.bbr, harness.origin_loss
        );
    }
}
