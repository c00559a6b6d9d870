//! # reorderlab
//!
//! Vertex reordering for real-world graphs: a full reproduction of
//! *"Vertex Reordering for Real-World Graphs and Applications: An Empirical
//! Evaluation"* (Barik et al., IISWC 2020) as a Rust workspace.
//!
//! This facade crate re-exports the workspace members under stable module
//! names:
//!
//! | Module | Contents |
//! |---|---|
//! | [`graph`] | CSR substrate: construction, traversal, permutation, stats |
//! | [`core`] | The 22 ordering schemes + gap measures (the paper's subject) |
//! | [`partition`] | Multilevel k-way partitioner, separators, nested dissection |
//! | [`community`] | Parallel Louvain (Grappolo-class) with instrumentation |
//! | [`influence`] | IMM influence maximization (Ripples-class) |
//! | [`kernels`] | Prototypical kernels from prior studies: PageRank, SSSP, BC |
//! | [`memsim`] | Trace-driven memory-hierarchy simulator (VTune stand-in) |
//! | [`datasets`] | Synthetic generators + the Table-I instance suite |
//!
//! ## Quick start
//!
//! ```
//! use reorderlab::core::{measures::gap_measures, Scheme};
//! use reorderlab::datasets::grid2d;
//!
//! let g = grid2d(16, 16);
//! let pi = Scheme::Rcm.reorder(&g);
//! let m = gap_measures(&g, &pi);
//! assert!(m.bandwidth <= 24);
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios (gap-measure
//! shootouts, community-detection speedups, influence-maximization
//! campaigns, cache-behaviour exploration).

#![warn(missing_docs)]

pub use reorderlab_community as community;
pub use reorderlab_core as core;
pub use reorderlab_datasets as datasets;
pub use reorderlab_graph as graph;
pub use reorderlab_influence as influence;
pub use reorderlab_kernels as kernels;
pub use reorderlab_memsim as memsim;
pub use reorderlab_partition as partition;
