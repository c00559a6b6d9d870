//! Reorder-as-a-service: a long-lived daemon that executes the typed
//! operations API from `reorderlab-ops` over JSON Lines on TCP.
//!
//! The daemon preloads a [`Corpus`] of checksummed graph containers —
//! flat binary CSR (`.csrbin`) or delta/varint compressed CSR (`.csrz`),
//! read and written through `reorderlab-ops`' extension-dispatched
//! `read_graph_auto`/`write_graph_auto` —
//! shards requests across bounded worker queues (full queues *shed* with
//! a typed overload response), coalesces identical in-flight requests,
//! and memoizes orderings in a [`PermCache`] keyed by `(graph digest,
//! canonical scheme spec)`. Each cached ordering carries its own gap and
//! compression measures and each corpus entry its graph's natural-order
//! measures and statistics, filled by the first request that reads them, so
//! a repeated request runs no graph pass. Every executed request can be
//! audited via an append-only manifest log, written after the reply. A request line is read through a fixed byte
//! cap; an over-long or non-UTF-8 line gets one typed error and a close.
//!
//! Start a daemon in-process:
//!
//! ```
//! use std::sync::Arc;
//! use reorderlab_serve::{serve, Corpus, ServerConfig};
//!
//! let mut corpus = Corpus::new();
//! corpus.insert("tiny", reorderlab_datasets::by_name("euroroad").unwrap().generate());
//! let mut handle = serve(Arc::new(corpus), ServerConfig::default()).unwrap();
//! assert!(handle.addr().port() != 0);
//! handle.stop();
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

mod cache;
mod corpus;
mod proto;
mod server;

pub use cache::{CachingPerms, PermCache};
pub use corpus::{prepare_corpus, Corpus, CorpusEntry, CorpusResolver};
pub use proto::{exchange, ok_response, Response};
pub use server::{serve, Engine, ServeStats, ServerConfig, ServerHandle, SubmitResult};

use std::sync::{Mutex, PoisonError};

/// Runs `f` on the data behind `m` and releases the lock when `f` returns:
/// the guard cannot outlive the closure, so no caller holds a lock across
/// work it does afterwards. A poisoned lock is recovered, because every
/// closure leaves its data consistent, so a panicking holder does not
/// invalidate it.
pub(crate) fn with_lock<T, R>(m: &Mutex<T>, f: impl FnOnce(&mut T) -> R) -> R {
    #[expect(
        clippy::disallowed_methods,
        reason = "SAFETY: the one lock site: the guard dies with this call. Every closure is a \
                  bounded in-memory update, except the audit-log append, whose lock exists to \
                  serialize exactly that JSONL write (no socket I/O, no kernel work, and after \
                  the reply)"
    )]
    let mut guard = m.lock().unwrap_or_else(PoisonError::into_inner);
    f(&mut guard)
}
