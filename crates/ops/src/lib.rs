//! # reorderlab-ops
//!
//! The typed operations surface of the `reorderlab` workspace: every
//! user-facing operation — `stats`, `reorder`, `measure`, `compression`,
//! `validate`, `memsim` — expressed as a serializable [`OpRequest`], executed by
//! [`execute`] into a typed [`OpReport`], with failures classified by the
//! shared [`OpError`] taxonomy.
//!
//! The CLI binary is a thin argv parser over this crate; the serve daemon
//! is a thin wire protocol over it. Because both frontends render results
//! through the same [`OpReport`] methods, a daemon response is
//! byte-identical to the CLI's stdout by construction.
//!
//! ```
//! use reorderlab_ops::{execute, FsResolver, GraphSource, OpReport, OpRequest};
//!
//! let req = OpRequest::Stats { source: GraphSource::Instance("euroroad".into()) };
//! let out = execute(&req, &FsResolver).unwrap();
//! let OpReport::Stats(stats) = &out.report else { unreachable!() };
//! assert!(stats.render_text().starts_with("graph: euroroad"));
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

pub mod args;
mod error;
mod exec;
mod facts;
mod report;
mod request;
mod schemes;
mod source;

pub use error::OpError;
pub use exec::{execute, execute_with, run_with_threads, OpOutcome, PermSource};
pub use facts::{FactTally, GraphFacts, MeasuredOrdering};
pub use report::{
    CompressionReport, CompressionRow, FileVerdict, GapRow, MeasureReport, MeasureRow,
    MemsimReport, OpReport, ReorderReport, StatsReport, ValidateReport,
};
pub use request::{OpRequest, RequestEnvelope};
pub use schemes::scheme_help;
pub use source::{
    read_graph_auto, write_graph_auto, FsResolver, GraphSource, ResolveGraph, ResolvedGraph,
};
