//! # sperke-live — live 360° broadcast (§3.4)
//!
//! Three pieces:
//!
//! * [`platform`] + [`broadcast`] — the pilot characterization study:
//!   per-platform pipeline models (Facebook / Periscope / YouTube,
//!   RTMP ingest, DASH-pull or RTMP-push distribution) whose simulated
//!   end-to-end latency reproduces **Table 2** across the five network
//!   conditions ([`broadcast::table2`]).
//! * [`fallback`] — the broadcaster-side *spatial fall-back* (§3.4.2):
//!   narrow the uploaded horizon toward the crowd's interest region
//!   instead of blindly lowering quality.
//! * [`crowd`] — crowd-sourced HMP: low-latency viewers' realtime gaze
//!   reports, causally aggregated, as a prediction prior for
//!   high-latency viewers.

#![warn(missing_docs)]

pub mod broadcast;
pub mod crowd;
pub mod fallback;
pub mod fov_live;
pub mod platform;

pub use broadcast::{
    run_live, run_live_with_upload_vra, table2, LiveRunConfig, LiveRunResult, NetworkCondition,
};
pub use crowd::{
    evaluate_crowd_hmp, trace_reports, viewer_reports, CrowdAggregator, CrowdHmpReport, LiveViewer,
};
pub use fallback::{
    plan_upload, viewer_experience, ExperienceReport, Horizon, InterestProfile, UploadPlan,
    UploadStrategy,
};
pub use fov_live::{run_fov_live, FovLiveConfig, FovLiveReport};
pub use platform::{DownloadProtocol, PlatformProfile};
