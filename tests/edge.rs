//! Integration suite for the edge-server subsystem.
//!
//! The headline scenario: 32 concurrent viewers behind one edge whose
//! shared tile cache cuts origin egress to a fraction of the
//! independent-sessions baseline. The property tests pin the three
//! invariants the edge accounting rests on:
//!
//! 1. **byte balance** — cache and origin byte counters balance
//!    exactly: `origin ok + origin failed == miss bytes + prefetch
//!    bytes`, and (fault-free) `egress == hit bytes + miss bytes`;
//! 2. **interleaving invariance** — the same `(config, clients)` set
//!    yields byte-identical traces whatever order the client specs
//!    were supplied in;
//! 3. **admission safety** — admitted clients never exceed the cap,
//!    whatever the population size.

use proptest::prelude::*;
use sperke_core::{EdgeConfig, Sperke};
use sperke_edge::{
    default_clients, run_edge, run_edge_batched, run_edge_full, EdgeClientSpec, EdgeHarness,
};
use sperke_sim::trace::{TraceConfig, TraceLevel, TraceSink};
use sperke_sim::SimDuration;
use sperke_video::{VideoModel, VideoModelBuilder};

fn video(secs: u64) -> VideoModel {
    VideoModelBuilder::new(3)
        .duration(SimDuration::from_secs(secs))
        .build()
}

/// §2-at-the-edge: with ≥32 clients sharing one cache, each hot tile
/// layer crosses the backhaul once instead of once per client, so
/// origin egress lands at ≤ 50% of the no-cache baseline (it is far
/// lower in practice; 50% is the contract).
#[test]
fn shared_cache_halves_origin_egress_for_32_clients() {
    let v = video(10);
    let base = EdgeConfig {
        clients: 32,
        max_clients: 64,
        ..Default::default()
    };
    let cached = run_edge(&v, &base);
    let uncached = run_edge(
        &v,
        &EdgeConfig {
            cache_bytes: 0,
            prefetch: false,
            ..base
        },
    );
    assert_eq!(cached.admitted, 32);
    assert!(
        cached.origin_demand_bytes() * 2 <= uncached.origin_demand_bytes(),
        "cached origin {} must be ≤ 50% of uncached {}",
        cached.origin_demand_bytes(),
        uncached.origin_demand_bytes()
    );
    // The clients see the same video either way: the cache pays the
    // origin bill, not the viewport.
    assert!(cached.mean_viewport_utility >= uncached.mean_viewport_utility - 0.05);
}

/// The builder surface reaches the same numbers.
#[test]
fn edge_builder_matches_direct_run() {
    let direct = run_edge(
        &VideoModelBuilder::new(7)
            .duration(SimDuration::from_secs(8))
            .build(),
        &EdgeConfig {
            clients: 6,
            seed: 7,
            ..Default::default()
        },
    );
    let built = Sperke::edge_builder(7)
        .clients(6)
        .duration(SimDuration::from_secs(8))
        .run();
    assert_eq!(direct, built);
}

/// With no cache at all, every hit an edge reports is a request that
/// joined an origin fetch already in flight: the counters must say so
/// (`hits == coalesced_hits`, zero resident hits) rather than pass the
/// coalescing off as a cache hit rate.
#[test]
fn zero_byte_cache_reports_only_coalesced_hits() {
    let r = run_edge(
        &video(6),
        &EdgeConfig {
            clients: 5,
            cache_bytes: 0,
            prefetch: false,
            ..Default::default()
        },
    );
    assert!(r.cache.coalesced_hits > 0, "co-watching clients coalesce");
    assert_eq!(r.cache.hits, r.cache.coalesced_hits);
    assert_eq!(r.cache.hit_bytes, r.cache.coalesced_hit_bytes);
    assert_eq!(r.cache.evictions, 0);
}

/// Build a client population from parallel raw draws (the vendored
/// proptest shim has no `prop_map`, so specs are assembled in-body).
fn specs_from(raw: &[(u64, u64, u32, u64)]) -> Vec<EdgeClientSpec> {
    raw.iter()
        .map(|&(arr_ms, seed, weight, mbps)| EdgeClientSpec {
            arrival: SimDuration::from_millis(arr_ms),
            seed,
            weight,
            budget_bps: mbps as f64 * 1e6,
            content: 0,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant 1: the books balance, for any population and cache
    /// size, with prefetch on or off.
    #[test]
    fn cache_accounting_balances_bytes_exactly(
        clients in 1usize..10,
        cache_pick in 0usize..4,
        prefetch: bool,
        seed in 0u64..100,
    ) {
        let v = video(6);
        let cfg = EdgeConfig {
            clients,
            cache_bytes: [0u64, 8, 64, 256][cache_pick] << 20,
            prefetch,
            seed,
            ..Default::default()
        };
        let r = run_edge(&v, &cfg);
        prop_assert_eq!(
            r.origin_demand_bytes(),
            r.cache.miss_bytes + r.cache.prefetch_bytes,
            "origin traffic must equal miss + prefetch bytes"
        );
        // Fault-free: every request (hit or miss) is delivered once.
        prop_assert_eq!(r.egress_bytes, r.cache.hit_bytes + r.cache.miss_bytes);
        prop_assert_eq!(r.origin_failed_bytes, 0u64);
    }

    /// Invariant 2: supplying the same client set in any order yields a
    /// byte-identical trace (and so an identical report).
    #[test]
    fn client_interleaving_never_changes_trace_bytes(
        raw in proptest::collection::vec((0u64..4000, 0u64..1000, 1u32..4, 4u64..12), 2..7),
        rot in 0usize..7,
        seed in 0u64..50,
    ) {
        let specs = specs_from(&raw);
        let v = video(5);
        let cfg = EdgeConfig { clients: specs.len(), seed, ..Default::default() };
        let run = |order: &[EdgeClientSpec]| {
            let sink = TraceSink::new(TraceConfig::new(TraceLevel::Verbose));
            let harness = EdgeHarness { trace: sink.clone(), ..Default::default() };
            let report = run_edge_full(&v, &cfg, order, &harness, None);
            let trace = sink.snapshot();
            (report, trace.to_jsonl(), trace.digest())
        };
        let mut rotated = specs.clone();
        rotated.rotate_left(rot % specs.len());
        let (r1, jsonl1, d1) = run(&specs);
        let (r2, jsonl2, d2) = run(&rotated);
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(jsonl1, jsonl2);
        prop_assert_eq!(d1, d2);
    }

    /// Invariant 1 under the batched engine: advancing sessions in
    /// lockstep phases must not bend the books — exact byte balance
    /// holds for any population, cache size and worker count.
    #[test]
    fn batched_engine_balances_bytes_exactly(
        clients in 1usize..10,
        cache_pick in 0usize..4,
        prefetch: bool,
        seed in 0u64..100,
        workers in 1usize..9,
    ) {
        let v = video(6);
        let cfg = EdgeConfig {
            clients,
            cache_bytes: [0u64, 8, 64, 256][cache_pick] << 20,
            prefetch,
            seed,
            ..Default::default()
        };
        let r = run_edge_batched(
            &v, &cfg, &default_clients(&cfg), &EdgeHarness::default(), None, workers,
        );
        prop_assert_eq!(
            r.origin_demand_bytes(),
            r.cache.miss_bytes + r.cache.prefetch_bytes,
            "origin traffic must equal miss + prefetch bytes"
        );
        prop_assert_eq!(r.egress_bytes, r.cache.hit_bytes + r.cache.miss_bytes);
        prop_assert_eq!(r.origin_failed_bytes, 0u64);
    }

    /// Invariant 3 under the batched engine: the admission cap holds for
    /// any population size and worker count (rejected clients are sensed
    /// but never planned, fetched for, or rendered).
    #[test]
    fn batched_admission_never_exceeds_the_cap(
        clients in 1usize..24,
        cap in 1usize..8,
        seed in 0u64..50,
        workers in 1usize..9,
    ) {
        let v = video(4);
        let cfg = EdgeConfig { clients, max_clients: cap, seed, ..Default::default() };
        let sink = TraceSink::new(TraceConfig::new(TraceLevel::Events));
        let harness = EdgeHarness { trace: sink.clone(), ..Default::default() };
        let r = run_edge_batched(&v, &cfg, &default_clients(&cfg), &harness, None, workers);
        prop_assert!(r.admitted <= cap);
        prop_assert_eq!(r.admitted, clients.min(cap));
        prop_assert_eq!(r.admitted + r.rejected, clients);
        let admitted_events = sink
            .snapshot()
            .events()
            .iter()
            .filter(|e| matches!(e, sperke_sim::TraceEvent::ClientAdmitted { .. }))
            .count();
        prop_assert!(admitted_events <= cap, "trace shows ≤ cap admissions");
    }

    /// Invariant 3: admission control never exceeds the cap.
    #[test]
    fn admission_never_exceeds_the_cap(
        clients in 1usize..24,
        cap in 1usize..8,
        seed in 0u64..50,
    ) {
        let v = video(4);
        let cfg = EdgeConfig { clients, max_clients: cap, seed, ..Default::default() };
        let sink = TraceSink::new(TraceConfig::new(TraceLevel::Events));
        let harness = EdgeHarness { trace: sink.clone(), ..Default::default() };
        let r = run_edge_full(&v, &cfg, &default_clients(&cfg), &harness, None);
        prop_assert!(r.admitted <= cap);
        prop_assert_eq!(r.admitted, clients.min(cap));
        prop_assert_eq!(r.admitted + r.rejected, clients);
        let admitted_events = sink
            .snapshot()
            .events()
            .iter()
            .filter(|e| matches!(e, sperke_sim::TraceEvent::ClientAdmitted { .. }))
            .count();
        prop_assert!(admitted_events <= cap, "trace shows ≤ cap admissions");
    }
}
