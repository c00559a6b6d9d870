//! The figure registry: one entry per table, figure and beyond-the-paper
//! study, each a function from the shared run context to the text of its
//! `results/<id>.txt`.

use crate::sweep::{gap_sweep, SweepResult};
use reorderlab_core::Scheme;
use reorderlab_datasets::small_suite;
use std::error::Error;
use std::sync::OnceLock;

mod ablations;
mod fig01_headline_profile;
mod fig04_reorder_time;
mod fig05_avg_gap_profile;
mod fig06_bandwidth;
mod fig07_metis_sweep;
mod fig08_violin;
mod fig09_community;
mod fig10_community_memory;
mod fig11_influence;
mod fig12_influence_memory;
mod prior_kernels;
mod sbm_transition;
mod summary;
mod table1;

/// The text of a figure, or why it could not be built.
pub type FigureText = Result<String, Box<dyn Error>>;

/// One registered figure.
pub struct Figure {
    /// Stem of its `results/<id>.txt`.
    pub id: &'static str,
    /// Whether its text is a pure function of the code: no clock reading
    /// and no worker count, so the same at any width and on any host.
    pub exact: bool,
    /// Builds the text.
    pub run: fn(&Ctx) -> FigureText,
}

/// Every figure, in the order `figures` writes them.
pub const FIGURES: &[Figure] = &[
    Figure { id: "table1", exact: true, run: table1::run },
    Figure { id: "fig01_headline_profile", exact: true, run: fig01_headline_profile::run },
    Figure { id: "fig04_reorder_time", exact: false, run: fig04_reorder_time::run },
    Figure { id: "fig05_avg_gap_profile", exact: true, run: fig05_avg_gap_profile::run },
    Figure { id: "fig06_bandwidth", exact: true, run: fig06_bandwidth::run },
    Figure { id: "fig07_metis_sweep", exact: true, run: fig07_metis_sweep::run },
    Figure { id: "fig08_violin", exact: true, run: fig08_violin::run },
    Figure { id: "fig09_community", exact: false, run: fig09_community::run },
    Figure { id: "fig10_community_memory", exact: true, run: fig10_community_memory::run },
    Figure { id: "fig11_influence", exact: false, run: fig11_influence::run },
    Figure { id: "fig12_influence_memory", exact: true, run: fig12_influence_memory::run },
    Figure { id: "ablations", exact: true, run: ablations::run },
    Figure { id: "prior_kernels", exact: false, run: prior_kernels::run },
    Figure { id: "sbm_transition", exact: true, run: sbm_transition::run },
    Figure { id: "summary", exact: false, run: summary::run },
];

/// What the figures of one run share: the 11-scheme × 25-instance gap
/// sweep of Figs. 1, 5 and 6, computed once, on first use.
#[derive(Default)]
pub struct Ctx {
    evaluation: OnceLock<SweepResult>,
}

impl Ctx {
    /// `Scheme::evaluation_suite(42)` over the small suite.
    fn evaluation_sweep(&self) -> &SweepResult {
        self.evaluation.get_or_init(|| gap_sweep(&small_suite(), &Scheme::evaluation_suite(42)))
    }
}
