//! The high-level session builder: one fluent entry point that wires a
//! video, a viewer, a network and the Sperke algorithms into a runnable
//! streaming experiment.

use sperke_geo::VisibilityCache;
use sperke_hmp::{
    generate_ensemble, AttentionModel, Behavior, FusedForecaster, HeadTrace, Heatmap,
    OracleForecaster, TraceGenerator, ViewingContext,
};
use sperke_net::{
    BandwidthTrace, BbrConfig, ContentAware, EarliestCompletion, FaultScript, LossChannel, MinRtt,
    PathModel, PathQueue, RecoveryPolicy, SinglePath,
};
use sperke_player::{run_session, PlannerKind, PlayerConfig, SessionResult};
use sperke_sim::trace::{Trace, TraceLevel, TraceSink};
use sperke_sim::{SimDuration, SimRng};
use sperke_video::{Ladder, VideoModel, VideoModelBuilder};
use sperke_vra::{AbrPolicyKind, BufferBased, Mpc, RateBased, SperkeConfig};

/// Which inner ABR drives the super-chunk quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbrChoice {
    /// FESTIVE-style throughput-based (§3.1.2 \[29\]).
    RateBased,
    /// BBA-style buffer-based (§3.1.2 \[28\]).
    BufferBased,
    /// MPC-style control-theoretic (§3.1.2 \[44\]).
    Mpc,
}

/// Which multipath scheduler moves chunks (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerChoice {
    /// Only the first path is used.
    SinglePath,
    /// MPTCP's content-agnostic minRTT.
    MinRtt,
    /// Content-agnostic earliest-completion splitting.
    EarliestCompletion,
    /// The paper's priority-driven content-aware scheduler.
    ContentAware,
}

/// A declarative description of one streaming experiment.
#[derive(Debug, Clone)]
pub struct Sperke {
    seed: u64,
    duration: SimDuration,
    ladder: Ladder,
    grid: (u16, u16),
    attention: AttentionModel,
    behavior: Behavior,
    context: ViewingContext,
    paths: Vec<PathModel>,
    scheduler: SchedulerChoice,
    abr: AbrChoice,
    player: PlayerConfig,
    crowd_users: usize,
    use_speed_bound: bool,
    svc_overhead: f64,
    chunk_duration: SimDuration,
    oracle_hmp: bool,
    trace: TraceLevel,
    faults: FaultScript,
    bbr: Option<BbrConfig>,
    loss_channel: LossChannel,
}

/// The outcome of a traced experiment: the session result plus the
/// captured [`Trace`] (empty when tracing was off).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The streaming session's QoE and per-chunk records.
    pub session: SessionResult,
    /// The captured trace (events + metrics registry).
    pub trace: Trace,
}

impl RunReport {
    /// Stable FNV-1a fingerprint of the trace's JSONL bytes. Identical
    /// seeds and trace levels yield identical digests across runs.
    pub fn trace_digest(&self) -> u64 {
        self.trace.digest()
    }

    /// The trace as newline-delimited JSON, one event per line.
    pub fn to_jsonl(&self) -> String {
        self.trace.to_jsonl()
    }
}

impl Sperke {
    /// Start from sensible defaults: a 60 s generic video on a 4×6 grid,
    /// one focused viewer, a single 25 Mbps WiFi path, the full Sperke
    /// planner with a rate-based inner ABR.
    pub fn builder(seed: u64) -> Sperke {
        Sperke {
            seed,
            duration: SimDuration::from_secs(60),
            ladder: Ladder::vod_default(),
            grid: (4, 6),
            attention: AttentionModel::generic(seed),
            behavior: Behavior::Focused,
            context: ViewingContext::default(),
            paths: vec![PathModel::wifi()],
            scheduler: SchedulerChoice::SinglePath,
            abr: AbrChoice::RateBased,
            player: PlayerConfig::default(),
            crowd_users: 0,
            use_speed_bound: false,
            svc_overhead: 0.10,
            chunk_duration: SimDuration::from_secs(1),
            oracle_hmp: false,
            trace: TraceLevel::Off,
            faults: FaultScript::none(),
            bbr: None,
            loss_channel: LossChannel::Declared,
        }
    }

    /// Enable BBR-style measured-capacity probing on every path: a
    /// windowed max-filter over delivery-rate samples feeds the
    /// schedulers' completion estimates instead of the declared trace.
    /// Off by default — declared capacity keeps golden traces stable.
    pub fn with_bbr(self) -> Self {
        self.with_bbr_config(BbrConfig::default())
    }

    /// Enable BBR-style probing with an explicit [`BbrConfig`].
    pub fn with_bbr_config(mut self, config: BbrConfig) -> Self {
        self.bbr = Some(config);
        self
    }

    /// Replace the declared i.i.d. loss rate with a [`LossChannel`] —
    /// typically [`LossChannel::bursty_default`]'s Gilbert–Elliott chain.
    /// The chain draws from a split RNG stream, so
    /// [`LossChannel::Declared`] (the default) is byte-identical to
    /// builds that predate this knob.
    pub fn with_loss_channel(mut self, channel: LossChannel) -> Self {
        self.loss_channel = channel;
        self
    }

    /// Attach a fault-injection script: scripted or seeded-stochastic
    /// outages and degradations applied to the network paths. The script
    /// is compiled per path when the experiment runs; the same seed and
    /// script always reproduce the same failures.
    pub fn with_faults(mut self, faults: FaultScript) -> Self {
        self.faults = faults;
        self
    }

    /// Enable resilient transfers: deadline-based timeouts with bounded
    /// retry, exponential backoff and cross-path failover, following
    /// `policy`. Without this, a transfer interrupted by an outage simply
    /// fails (the naive client of the §3.3 comparison).
    pub fn with_resilience(mut self, policy: RecoveryPolicy) -> Self {
        self.player.resilience = Some(policy);
        self
    }

    /// Enable spatial fall-back rendering: when a chunk's tile is
    /// missing, the player re-displays the previous chunk's buffered
    /// tile (counted as `degraded_fraction`) instead of going blank.
    pub fn with_fallback(mut self) -> Self {
        self.player.fallback_enabled = true;
        self
    }

    /// Record a deterministic trace of the run at `level`; retrieve it
    /// through [`Sperke::run_report`]. Defaults to [`TraceLevel::Off`],
    /// which costs nothing.
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Bound (or share) the tile-visibility memo the player's display
    /// path uses. Cached results are bit-identical to recomputation, so
    /// this knob changes speed, never outcomes. A default-capacity
    /// cache is already on by default; pass a [`VisibilityCache`] handle
    /// explicitly to share one memo across several experiments in the
    /// same thread, e.g. a seed panel replaying the same video.
    /// [`VisibilityCache::new`] bounds it to a capacity;
    /// [`VisibilityCache::disabled`] turns memoization off and
    /// recomputes every visibility query.
    pub fn vis_cache(mut self, cache: VisibilityCache) -> Self {
        self.player.vis_cache = cache;
        self
    }

    /// Video duration.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Bitrate ladder.
    pub fn ladder(mut self, ladder: Ladder) -> Self {
        self.ladder = ladder;
        self
    }

    /// Tile grid dimensions.
    pub fn grid(mut self, rows: u16, cols: u16) -> Self {
        self.grid = (rows, cols);
        self
    }

    /// The video's attention structure (hotspots).
    pub fn attention(mut self, attention: AttentionModel) -> Self {
        self.attention = attention;
        self
    }

    /// The viewer's behaviour class.
    pub fn behavior(mut self, behavior: Behavior) -> Self {
        self.behavior = behavior;
        self
    }

    /// The viewing context (pose, mode, mobility).
    pub fn context(mut self, context: ViewingContext) -> Self {
        self.context = context;
        self
    }

    /// Replace the network paths.
    pub fn paths(mut self, paths: Vec<PathModel>) -> Self {
        assert!(!paths.is_empty(), "need at least one path");
        self.paths = paths;
        self
    }

    /// Convenience: a single constant-rate path.
    pub fn single_link(mut self, bps: f64) -> Self {
        self.paths = vec![PathModel::new(
            "link",
            BandwidthTrace::constant(bps),
            SimDuration::from_millis(20),
            0.0,
        )];
        self
    }

    /// Convenience: the WiFi + LTE dual-path setup of §3.3.
    pub fn wifi_plus_lte(mut self) -> Self {
        self.paths = vec![PathModel::wifi(), PathModel::lte()];
        self
    }

    /// Multipath scheduler.
    pub fn scheduler(mut self, scheduler: SchedulerChoice) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Inner ABR algorithm.
    pub fn abr(mut self, abr: AbrChoice) -> Self {
        self.abr = abr;
        self
    }

    /// Player configuration (planner, upgrades, weights...).
    pub fn player(mut self, player: PlayerConfig) -> Self {
        self.player = player;
        self
    }

    /// Use the FoV-agnostic baseline planner.
    pub fn fov_agnostic(mut self) -> Self {
        self.player.planner = PlannerKind::FovAgnostic;
        self
    }

    /// Use the Sperke planner with an explicit configuration.
    pub fn sperke_planner(mut self, config: SperkeConfig) -> Self {
        self.player.planner = PlannerKind::Sperke(config);
        self
    }

    /// Select a viewport-adaptation policy from the rival suite
    /// ([`sperke_vra::policy`]). [`AbrPolicyKind::Sperke`] routes to the
    /// full three-part Sperke planner (its richest form); every other
    /// kind runs through the tile-aware [`sperke_vra::PolicyVra`]
    /// wrapper with default planner tuning.
    pub fn abr_policy(mut self, kind: AbrPolicyKind) -> Self {
        self.player.planner = match kind {
            AbrPolicyKind::Sperke => PlannerKind::Sperke(SperkeConfig::default()),
            other => PlannerKind::Policy(other, SperkeConfig::default()),
        };
        self
    }

    /// Set the chunk duration (the paper's "one or two seconds").
    pub fn chunk_duration(mut self, d: SimDuration) -> Self {
        assert!(!d.is_zero());
        self.chunk_duration = d;
        self
    }

    /// Set the SVC layering overhead of the video's scalable encoding.
    pub fn svc_overhead(mut self, overhead: f64) -> Self {
        assert!(overhead >= 0.0);
        self.svc_overhead = overhead;
        self
    }

    /// Replace prediction with a perfect-HMP oracle (§3.1.2 part one:
    /// "let us assume that the HMP is perfect") — the upper bound every
    /// real predictor is judged against.
    pub fn with_oracle_hmp(mut self) -> Self {
        self.oracle_hmp = true;
        self
    }

    /// Enable the §3.2 cross-user popularity prior, built from an
    /// ensemble of `users` synthetic viewers of the same video.
    pub fn with_crowd(mut self, users: usize) -> Self {
        self.crowd_users = users;
        self
    }

    /// Enable the §3.2 per-user speed bound, learned from the viewer's
    /// own (synthetic) viewing history.
    pub fn with_speed_bound(mut self) -> Self {
        self.use_speed_bound = true;
        self
    }

    /// Materialize the video model this experiment streams.
    pub fn build_video(&self) -> VideoModel {
        VideoModelBuilder::new(self.seed)
            .duration(self.duration)
            .ladder(self.ladder.clone())
            .grid(sperke_geo::TileGrid::new(self.grid.0, self.grid.1))
            .svc_overhead(self.svc_overhead)
            .chunk_duration(self.chunk_duration)
            .build()
    }

    /// Materialize the viewer's head trace.
    pub fn build_trace(&self) -> HeadTrace {
        TraceGenerator::new(self.attention.clone(), self.behavior, self.context).generate(
            self.duration + SimDuration::from_secs(5),
            self.seed ^ 0x7ACE,
        )
    }

    /// Materialize the HMP forecaster (with crowd prior / speed bound /
    /// context as configured).
    pub fn build_forecaster(&self) -> FusedForecaster {
        let video = self.build_video();
        let mut forecaster = FusedForecaster::motion_only();
        forecaster.context = self.context;
        if self.crowd_users > 0 {
            let traces = generate_ensemble(
                &self.attention,
                self.crowd_users,
                self.duration,
                self.seed ^ 0xC40D,
            );
            let map = Heatmap::build(
                *video.grid(),
                video.chunk_duration(),
                video.chunk_count(),
                &traces,
            );
            forecaster = forecaster.with_heatmap(map);
        }
        if self.use_speed_bound {
            // Learn the bound from a prior session of the same viewer.
            let past = TraceGenerator::new(self.attention.clone(), self.behavior, self.context)
                .generate(SimDuration::from_secs(60), self.seed ^ 0x5EED);
            let bound = past.speed_percentile(95.0).max(0.1);
            forecaster = forecaster.with_speed_bound(bound);
        }
        forecaster
    }

    /// Run the experiment.
    pub fn run(&self) -> SessionResult {
        self.run_report().session
    }

    /// Run the experiment and return the [`RunReport`] carrying both the
    /// session result and the trace captured at the level set by
    /// [`Sperke::with_trace`].
    pub fn run_report(&self) -> RunReport {
        let video = self.build_video();
        let trace = self.build_trace();
        let sink = TraceSink::with_level(self.trace);
        let mut player = self.player.clone();
        player.trace = sink.clone();
        let rng = SimRng::new(self.seed ^ 0xBEEF);
        let paths: Vec<PathQueue> = self
            .paths
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut q = PathQueue::new(p.clone(), rng.split(i as u64))
                    .with_faults(self.faults.compile_for(i))
                    .with_loss_channel(self.loss_channel);
                if let Some(cfg) = &self.bbr {
                    q = q.with_bbr(cfg.clone());
                }
                q
            })
            .collect();

        macro_rules! go {
            ($abr:expr, $sched:expr, $forecaster:expr) => {
                run_session(&video, &trace, paths, $sched, $abr, $forecaster, &player)
            };
        }
        macro_rules! with_abr {
            ($sched:expr, $forecaster:expr) => {
                match self.abr {
                    AbrChoice::RateBased => go!(RateBased::default(), $sched, $forecaster),
                    AbrChoice::BufferBased => go!(BufferBased::default(), $sched, $forecaster),
                    AbrChoice::Mpc => go!(Mpc::default(), $sched, $forecaster),
                }
            };
        }
        macro_rules! with_sched {
            ($forecaster:expr) => {
                match self.scheduler {
                    SchedulerChoice::SinglePath => with_abr!(SinglePath(0), $forecaster),
                    SchedulerChoice::MinRtt => with_abr!(MinRtt, $forecaster),
                    SchedulerChoice::EarliestCompletion => {
                        with_abr!(EarliestCompletion, $forecaster)
                    }
                    SchedulerChoice::ContentAware => with_abr!(ContentAware, $forecaster),
                }
            };
        }
        let session = if self.oracle_hmp {
            let oracle = OracleForecaster::new(trace.clone());
            with_sched!(&oracle)
        } else {
            let forecaster = self.build_forecaster();
            with_sched!(&forecaster)
        };
        // `player` carries the last live clone of the sink; drop it so
        // `into_trace` takes the zero-copy move instead of a snapshot.
        drop(player);
        RunReport {
            session,
            trace: sink.into_trace(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_build_runs_cleanly() {
        let result = Sperke::builder(7)
            .duration(SimDuration::from_secs(10))
            .run();
        assert_eq!(result.qoe.chunks, 10);
        assert!(result.qoe.bytes_fetched > 0);
    }

    #[test]
    fn builder_is_deterministic() {
        let mk = || {
            Sperke::builder(3)
                .duration(SimDuration::from_secs(8))
                .single_link(15e6)
                .run()
        };
        assert_eq!(mk().qoe, mk().qoe);
    }

    #[test]
    fn fov_agnostic_fetches_more() {
        let base = Sperke::builder(5)
            .duration(SimDuration::from_secs(10))
            .single_link(40e6);
        let guided = base.clone().run();
        let agnostic = base.fov_agnostic().run();
        assert!(agnostic.qoe.bytes_fetched > guided.qoe.bytes_fetched);
    }

    #[test]
    fn multipath_uses_both_paths() {
        let r = Sperke::builder(9)
            .duration(SimDuration::from_secs(10))
            .wifi_plus_lte()
            .scheduler(SchedulerChoice::ContentAware)
            .run();
        assert_eq!(r.path_bytes.len(), 2);
        assert!(r.path_bytes[0] > 0);
        assert_eq!(r.scheduler, "content-aware");
    }

    #[test]
    fn all_abr_choices_run() {
        for abr in [AbrChoice::RateBased, AbrChoice::BufferBased, AbrChoice::Mpc] {
            let r = Sperke::builder(11)
                .duration(SimDuration::from_secs(6))
                .abr(abr)
                .run();
            assert_eq!(r.qoe.chunks, 6);
        }
    }

    #[test]
    fn oracle_hmp_is_an_upper_bound() {
        let base = Sperke::builder(19)
            .duration(SimDuration::from_secs(15))
            .behavior(Behavior::Explorer)
            .single_link(25e6);
        let real = base.clone().run();
        let oracle = base.with_oracle_hmp().run();
        assert!(
            oracle.qoe.mean_blank_fraction <= real.qoe.mean_blank_fraction + 1e-9,
            "oracle blanks ({:.3}) must not exceed real HMP ({:.3})",
            oracle.qoe.mean_blank_fraction,
            real.qoe.mean_blank_fraction
        );
        assert!(
            oracle.qoe.mean_blank_fraction < 0.02,
            "perfect HMP ~never blanks"
        );
    }

    #[test]
    fn run_report_traces_deterministically() {
        let mk = || {
            Sperke::builder(21)
                .duration(SimDuration::from_secs(6))
                .wifi_plus_lte()
                .scheduler(SchedulerChoice::ContentAware)
                .with_trace(TraceLevel::Verbose)
                .run_report()
        };
        let a = mk();
        let b = mk();
        assert!(!a.trace.is_empty(), "tracing captures events");
        assert_eq!(
            a.to_jsonl(),
            b.to_jsonl(),
            "same seed, byte-identical JSONL"
        );
        assert_eq!(a.trace_digest(), b.trace_digest());
        assert_eq!(a.session.qoe, b.session.qoe);
    }

    #[test]
    fn untraced_run_report_is_empty_and_cheap() {
        let r = Sperke::builder(21)
            .duration(SimDuration::from_secs(4))
            .run_report();
        assert!(r.trace.is_empty());
        assert_eq!(r.trace.dropped(), 0);
        // A disabled trace still produces a stable digest (of nothing).
        assert_eq!(r.trace_digest(), r.trace_digest());
    }

    #[test]
    fn trace_level_gates_event_volume() {
        let at = |level: TraceLevel| {
            Sperke::builder(33)
                .duration(SimDuration::from_secs(6))
                .with_trace(level)
                .run_report()
                .trace
                .len()
        };
        let events = at(TraceLevel::Events);
        let decisions = at(TraceLevel::Decisions);
        assert!(
            decisions > events,
            "higher levels record strictly more ({events} vs {decisions})"
        );
    }

    #[test]
    fn fault_script_degrades_the_session() {
        use sperke_sim::SimTime;
        let base = Sperke::builder(17)
            .duration(SimDuration::from_secs(12))
            .single_link(25e6);
        let clean = base.clone().run();
        let faulted = base
            .with_faults(FaultScript::none().link_down(
                0,
                SimTime::from_secs(4),
                SimTime::from_secs(8),
            ))
            .run();
        assert!(
            faulted.qoe.mean_blank_fraction > clean.qoe.mean_blank_fraction,
            "an outage must cost screen area: faulted {} vs clean {}",
            faulted.qoe.mean_blank_fraction,
            clean.qoe.mean_blank_fraction
        );
        assert!(faulted.qoe.score < clean.qoe.score);
    }

    #[test]
    fn resilience_and_fallback_soften_an_outage() {
        use sperke_sim::SimTime;
        let faulty = || {
            Sperke::builder(23)
                .duration(SimDuration::from_secs(12))
                .paths(vec![
                    PathModel::new(
                        "wifi",
                        BandwidthTrace::constant(40e6),
                        SimDuration::from_millis(15),
                        0.0,
                    ),
                    PathModel::new(
                        "lte",
                        BandwidthTrace::constant(10e6),
                        SimDuration::from_millis(60),
                        0.0,
                    ),
                ])
                .scheduler(SchedulerChoice::ContentAware)
                .with_faults(FaultScript::none().link_down(
                    0,
                    SimTime::from_secs(4),
                    SimTime::from_secs(9),
                ))
        };
        let naive = faulty().run();
        let hardened = faulty()
            .with_resilience(RecoveryPolicy::default())
            .with_fallback()
            .run();
        assert!(
            hardened.qoe.mean_blank_fraction < naive.qoe.mean_blank_fraction,
            "failover + fall-back shrink the blank area: hardened {} vs naive {}",
            hardened.qoe.mean_blank_fraction,
            naive.qoe.mean_blank_fraction
        );
        assert!(hardened.qoe.score > naive.qoe.score);
    }

    #[test]
    fn vis_cache_never_changes_outcomes() {
        let base = || {
            Sperke::builder(31)
                .duration(SimDuration::from_secs(8))
                .wifi_plus_lte()
                .scheduler(SchedulerChoice::ContentAware)
                .with_trace(TraceLevel::Verbose)
        };
        let cached = base().vis_cache(VisibilityCache::new(64)).run_report();
        let uncached = base().vis_cache(VisibilityCache::disabled()).run_report();
        assert_eq!(
            cached.to_jsonl(),
            uncached.to_jsonl(),
            "events byte-identical"
        );
        assert_eq!(cached.trace_digest(), uncached.trace_digest());
        assert_eq!(
            cached.session.qoe.score.to_bits(),
            uncached.session.qoe.score.to_bits(),
            "QoE must be bit-identical with and without the cache"
        );
        assert_eq!(cached.session.qoe, uncached.session.qoe);
        // The counters land in the metrics registry (events/digest are
        // untouched: metrics are not part of the trace JSONL). Hits
        // within one session may be zero — every mid-chunk gaze is a
        // distinct bit pattern — but the counters must be flushed.
        let m = cached.trace.metrics();
        assert!(m.counter_value("vis_cache_miss").unwrap_or(0) > 0);
        assert!(m.counter_value("vis_cache_hit").is_some());
        assert_eq!(
            uncached.trace.metrics().counter_value("vis_cache_miss"),
            Some(0)
        );
    }

    #[test]
    fn shared_vis_cache_hits_across_runs_without_drift() {
        let cache = sperke_geo::VisibilityCache::new(512);
        let mk = || {
            Sperke::builder(41)
                .duration(SimDuration::from_secs(6))
                .vis_cache(cache.clone())
                .run_report()
        };
        let first = mk();
        let misses_after_first = cache.stats().misses;
        let second = mk();
        assert!(misses_after_first > 0, "first run populates the memo");
        assert!(
            cache.stats().hits >= misses_after_first,
            "an identical rerun replays from the memo"
        );
        assert_eq!(first.session.qoe, second.session.qoe);
    }

    #[test]
    fn every_abr_policy_runs_through_the_builder() {
        for kind in AbrPolicyKind::all() {
            let r = Sperke::builder(7)
                .duration(SimDuration::from_secs(6))
                .abr_policy(kind)
                .run();
            assert_eq!(r.qoe.chunks, 6, "{} died", kind.name());
        }
    }

    #[test]
    fn crowd_and_speed_bound_compose() {
        let r = Sperke::builder(13)
            .duration(SimDuration::from_secs(8))
            .with_crowd(6)
            .with_speed_bound()
            .run();
        assert_eq!(r.qoe.chunks, 8);
    }
}
