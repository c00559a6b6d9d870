//! # reorderlab-trace
//!
//! The workspace-wide observability subsystem: phase timers, named
//! counters, and per-run metadata that roll up into a versioned JSON **run
//! manifest** — the machine-readable record behind every `--json` /
//! `--manifest` flag and the bench harness's `results/` trajectory.
//!
//! Three pieces:
//!
//! - [`recording`] installs a [`RunRecorder`] on the current thread for the
//!   length of a closure, the way a thread pool's width is installed;
//!   instrumented code writes to it through the free functions [`span`],
//!   [`span_add`], [`counter`], [`series`] and [`note`], which drop the
//!   event when nothing is installed.
//! - [`Json`] — a minimal dependency-free JSON value (the build is
//!   offline; no serde).
//! - [`Manifest`] — the versioned run record, with strict parsing
//!   ([`Manifest::parse`]) and JSON-lines appending for durable perf
//!   trajectories.
//!
//! ## Quick start
//!
//! ```
//! use reorderlab_trace::{counter, recording, span, Manifest, RunRecorder};
//!
//! let ((), rec) = recording(RunRecorder::new(), || {
//!     let _reorder = span("reorder");
//!     counter("slashburn/rounds", 12);
//! });
//!
//! let mut m = Manifest::new("reorder", "euroroad", 1190, 1305)
//!     .with_scheme("SlashBurn", "slashburn:k_frac=0.005")
//!     .with_seed(42)
//!     .with_threads(2);
//! m.absorb(&rec);
//! m.push_measure("avg_gap", 187.2);
//!
//! let round_trip = Manifest::parse(&m.to_pretty()).unwrap();
//! assert_eq!(round_trip, m);
//! ```

#![warn(missing_docs)]
// Library code: no panicking calls, no hash containers (DESIGN.md §8).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_types
)]

mod json;
mod manifest;
mod recorder;

pub use json::{Json, JsonError};
pub use manifest::{GraphInfo, Manifest, ManifestError, PhaseTiming, SchemeInfo};
pub use recorder::{
    counter, note, recording, series, span, span_add, RunRecorder, Span, SpanTotals,
};
