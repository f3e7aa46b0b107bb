//! Root package of the Sperke reproduction workspace.
//!
//! This crate only hosts the runnable `examples/` and the cross-crate
//! integration tests in `tests/`; the library surface lives in
//! [`sperke_core`] and the per-subsystem crates it re-exports.

pub use sperke_core::*;

/// Compiles and runs every `rust` code block of the README as a doctest,
/// so the snippets cannot drift from the API they show.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
