//! Ordering goldens. For the ten degenerate-suite graphs, three small-suite
//! instances (`euroroad`, `pgp`, `delaunay_n11`) and a 64 × 64 grid, the
//! FNV-1a of the rank bytes of every traversal-built ordering, and the
//! double-sweep `approx_diameter`, are pinned to the values these kernels
//! produced while each still had a parallel twin beside its serial body.
//! The table is asserted at 1, 2 and 7 threads, so "the output is
//! byte-identical" is checked on every run, not argued once.

use reorderlab_core::{Scheme, SchemeError};
use reorderlab_datasets::{by_name, degenerate_suite, grid2d};
use reorderlab_graph::{approx_diameter, build_pool, fnv1a, Csr, Permutation};

/// The orderings pinned, as scheme specs; one digest column each.
const SPECS: [&str; 7] =
    ["rcm", "cdfs", "slashburn:k_frac=0.005", "metis:parts=32", "nd", "grappolo-rcm", "adaptive"];

/// `(graph, approx_diameter, one digest per entry of SPECS)`. A digest of 0
/// marks a scheme that rightly refuses the graph: METIS-32 below 32
/// vertices.
#[rustfmt::skip]
const GOLDENS: [(&str, usize, [u64; 7]); 14] = [
    ("empty", 0, [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325]),
    ("single_vertex", 0, [0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0x0000000000000000, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5]),
    ("zero_edge_4", 0, [0x0b91f549c9675565, 0x0b91f549c9675565, 0xafd799237a9390f5, 0x0000000000000000, 0x30d77e22c5da0365, 0x0b91f549c9675565, 0x30d77e22c5da0365]),
    ("zero_edge_33", 0, [0x90909f2750004555, 0x90909f2750004555, 0xdfe7bdbe8aa0e955, 0xfc879b53e821b4f5, 0xa3206ec7e60855a5, 0x90909f2750004555, 0x6dbfdd340d212655]),
    ("single_edge", 1, [0x756241e1be8c9396, 0x756241e1be8c9396, 0x756241e1be8c9396, 0x0000000000000000, 0x9d19bb4bd820c026, 0x756241e1be8c9396, 0x756241e1be8c9396]),
    ("all_self_loops", 0, [0xe944e104fcd516f1, 0xe944e104fcd516f1, 0xe774d3be2b5f7371, 0x0000000000000000, 0xeb29754b740c25f1, 0xe944e104fcd516f1, 0xeb29754b740c25f1]),
    ("disconnected_pairs", 1, [0xbfa3849286cff465, 0xbfa3849286cff465, 0x6d4b5b76f82b0415, 0x0000000000000000, 0xe554888727308865, 0xbfa3849286cff465, 0xe554888727308865]),
    ("two_components", 1, [0x0756e7e87d86c3e2, 0x0756e7e87d86c3e2, 0x1a1b520e708e5472, 0x0000000000000000, 0xefe50848d53f4c92, 0xcbad62ad1d57eb42, 0xae7a689bc2e9f352]),
    ("star_9", 2, [0xe7c4b5d3411cfced, 0xe7c4b5d3411cfced, 0x49b0d1df1b13cb7d, 0x0000000000000000, 0x14748a2f9ea44ffd, 0xec449f96f087d47d, 0xec449f96f087d47d]),
    ("duplicate_heavy", 6, [0xae7a689bc2e9f352, 0xae7a689bc2e9f352, 0x3e1c548c17c50292, 0x0000000000000000, 0xae7a689bc2e9f352, 0xae7a689bc2e9f352, 0xae7a689bc2e9f352]),
    ("euroroad", 75, [0x328f80093776cb00, 0xcb4a8faa0cc62ee4, 0x5b57759989249224, 0xf661ee23ab10fc74, 0x072b491a2d95dff8, 0xcfa906e5d5e32988, 0x328f80093776cb00]),
    ("pgp", 11, [0xbebb4a00ae9636bd, 0x98a3afd4754b68bd, 0x700af4b2fdd102c1, 0x81afe7523be22851, 0xaa9187faa8dfcf81, 0x62394781513c2db1, 0x3055fc09eaff85bd]),
    ("delaunay_n11", 67, [0x65f9bc2a2bebc4d9, 0xf6f1e625394354d1, 0x9ffbd826b7d6e30d, 0x1942c1f0e3da69c5, 0xee234701b47370bd, 0xcc2290cb4d2aacf5, 0xca25a3bd9128649d]),
    ("grid2d_64x64", 126, [0x22669ef3b95cff89, 0x22669ef3b95cff89, 0x0a45b4f077035bad, 0x91278278e9b5a6d1, 0xd638c90b57b67a91, 0x4b5204583383441d, 0x22669ef3b95cff89]),
];

fn graphs() -> Vec<(&'static str, Csr)> {
    let mut graphs: Vec<(&'static str, Csr)> =
        degenerate_suite().into_iter().map(|case| (case.name, case.graph)).collect();
    for name in ["euroroad", "pgp", "delaunay_n11"] {
        graphs.push((name, by_name(name).expect("small-suite instance").generate()));
    }
    graphs.push(("grid2d_64x64", grid2d(64, 64)));
    graphs
}

fn rank_digest(pi: &Permutation) -> u64 {
    let bytes: Vec<u8> = pi.ranks().iter().flat_map(|r| r.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// One golden row of `g`: its diameter bound and one digest per spec.
fn row(g: &Csr) -> (usize, [u64; 7]) {
    let mut digests = [0u64; 7];
    for (slot, spec) in digests.iter_mut().zip(SPECS) {
        let scheme = Scheme::parse(spec).expect("pinned spec parses");
        match scheme.try_reorder(g) {
            Ok(pi) => *slot = rank_digest(&pi),
            Err(e) => assert!(
                matches!(e, SchemeError::PartsExceedVertices { .. }),
                "{spec}: unexpected refusal {e}"
            ),
        }
    }
    (approx_diameter(g), digests)
}

/// `rows` in the layout of [`GOLDENS`], for pasting after a deliberate
/// change.
fn render(rows: &[(&str, usize, [u64; 7])]) -> String {
    rows.iter()
        .map(|(name, diameter, digests)| {
            let cols: Vec<String> = digests.iter().map(|x| format!("{x:#018x}")).collect();
            format!("    (\"{name}\", {diameter}, [{}]),\n", cols.join(", "))
        })
        .collect()
}

#[test]
fn orderings_match_the_goldens_at_every_width() {
    let graphs = graphs();
    for threads in [1usize, 2, 7] {
        let rows: Vec<(&str, usize, [u64; 7])> = build_pool(threads).install(|| {
            graphs
                .iter()
                .map(|(name, g)| {
                    let (diameter, digests) = row(g);
                    (*name, diameter, digests)
                })
                .collect()
        });
        assert!(
            rows == GOLDENS,
            "orderings at {threads} threads differ; computed:\n{}",
            render(&rows)
        );
    }
}
