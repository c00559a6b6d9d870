//! Gap measures and their presentation summaries (paper §II-A and §V).

mod compression;
mod distribution;
mod gap;
mod packing;
mod profile;

pub use compression::{try_compression_measures, CompressionMeasures};
pub use distribution::GapDistribution;
pub use gap::{
    edge_gaps, gap_measures, try_edge_gaps, try_gap_measures, try_vertex_bandwidths, GapMeasures,
};
pub use packing::{packing_factor, try_packing_factor, PackingFactor};
pub use profile::PerformanceProfile;
