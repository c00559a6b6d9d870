//! Ordering goldens. For the ten degenerate-suite graphs, three small-suite
//! instances (`euroroad`, `pgp`, `delaunay_n11`), a 64 × 64 grid and three
//! hub graphs (`star(200)`, `barabasi_albert(300, 16, 13)`,
//! `clique_chain(4, 40)`), the FNV-1a of the rank bytes of every
//! traversal-built, Gorder, DBG-family and community-traversal ordering,
//! and the double-sweep `approx_diameter`, are pinned to the values these
//! kernels produced while each still had a parallel twin or a serial oracle
//! beside its body. The table is asserted at 1, 2 and 7 threads, so "the
//! output is byte-identical" is checked on every run, not argued once.

use reorderlab_core::{Scheme, SchemeError};
use reorderlab_datasets::{barabasi_albert, by_name, clique_chain, degenerate_suite, grid2d, star};
use reorderlab_graph::{approx_diameter, build_pool, fnv1a, Csr, Permutation};

/// The orderings pinned, as scheme specs; one digest column each.
const SPECS: [&str; 14] = [
    "rcm",
    "cdfs",
    "slashburn:k_frac=0.005",
    "metis:parts=32",
    "nd",
    "grappolo-rcm",
    "adaptive",
    "gorder",
    "dbg",
    "hubsort-dbg",
    "hubcluster-dbg",
    "comm-bfs",
    "comm-dfs",
    "comm-degree",
];

/// One digest per entry of [`SPECS`].
type Digests = [u64; SPECS.len()];

/// `(graph, approx_diameter, one digest per entry of SPECS)`. A digest of 0
/// marks a scheme that rightly refuses the graph: METIS-32 below 32
/// vertices.
#[rustfmt::skip]
const GOLDENS: [(&str, usize, Digests); 17] = [
    ("empty", 0, [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325]),
    ("single_vertex", 0, [0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0x0000000000000000, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5]),
    ("zero_edge_4", 0, [0x0b91f549c9675565, 0x0b91f549c9675565, 0xafd799237a9390f5, 0x0000000000000000, 0x30d77e22c5da0365, 0x0b91f549c9675565, 0x30d77e22c5da0365, 0x30d77e22c5da0365, 0x30d77e22c5da0365, 0x30d77e22c5da0365, 0x30d77e22c5da0365, 0x30d77e22c5da0365, 0x30d77e22c5da0365, 0x30d77e22c5da0365]),
    ("zero_edge_33", 0, [0x90909f2750004555, 0x90909f2750004555, 0xdfe7bdbe8aa0e955, 0xfc879b53e821b4f5, 0xa3206ec7e60855a5, 0x90909f2750004555, 0x6dbfdd340d212655, 0x6dbfdd340d212655, 0x6dbfdd340d212655, 0x6dbfdd340d212655, 0x6dbfdd340d212655, 0x6dbfdd340d212655, 0x6dbfdd340d212655, 0x6dbfdd340d212655]),
    ("single_edge", 1, [0x756241e1be8c9396, 0x756241e1be8c9396, 0x756241e1be8c9396, 0x0000000000000000, 0x9d19bb4bd820c026, 0x756241e1be8c9396, 0x756241e1be8c9396, 0x756241e1be8c9396, 0x756241e1be8c9396, 0x756241e1be8c9396, 0x756241e1be8c9396, 0x756241e1be8c9396, 0x756241e1be8c9396, 0x756241e1be8c9396]),
    ("all_self_loops", 0, [0xe944e104fcd516f1, 0xe944e104fcd516f1, 0xe774d3be2b5f7371, 0x0000000000000000, 0xeb29754b740c25f1, 0xe944e104fcd516f1, 0xeb29754b740c25f1, 0xeb29754b740c25f1, 0xeb29754b740c25f1, 0xeb29754b740c25f1, 0xeb29754b740c25f1, 0xeb29754b740c25f1, 0xeb29754b740c25f1, 0xeb29754b740c25f1]),
    ("disconnected_pairs", 1, [0xbfa3849286cff465, 0xbfa3849286cff465, 0x6d4b5b76f82b0415, 0x0000000000000000, 0xe554888727308865, 0xbfa3849286cff465, 0xe554888727308865, 0xe554888727308865, 0xe554888727308865, 0xe554888727308865, 0xe554888727308865, 0xe554888727308865, 0xe554888727308865, 0xe554888727308865]),
    ("two_components", 1, [0x0756e7e87d86c3e2, 0x0756e7e87d86c3e2, 0x1a1b520e708e5472, 0x0000000000000000, 0xefe50848d53f4c92, 0xcbad62ad1d57eb42, 0xae7a689bc2e9f352, 0xa14ab2249a1554a2, 0xae7a689bc2e9f352, 0xa14ab2249a1554a2, 0xa14ab2249a1554a2, 0xae7a689bc2e9f352, 0xae7a689bc2e9f352, 0xa14ab2249a1554a2]),
    ("star_9", 2, [0xe7c4b5d3411cfced, 0xe7c4b5d3411cfced, 0x49b0d1df1b13cb7d, 0x0000000000000000, 0x14748a2f9ea44ffd, 0xec449f96f087d47d, 0xec449f96f087d47d, 0xec449f96f087d47d, 0xec449f96f087d47d, 0xec449f96f087d47d, 0xec449f96f087d47d, 0xec449f96f087d47d, 0xec449f96f087d47d, 0xec449f96f087d47d]),
    ("duplicate_heavy", 6, [0xae7a689bc2e9f352, 0xae7a689bc2e9f352, 0x3e1c548c17c50292, 0x0000000000000000, 0xae7a689bc2e9f352, 0xae7a689bc2e9f352, 0xae7a689bc2e9f352, 0x7e610d355321e0c2, 0xae7a689bc2e9f352, 0x4268cacc151f3fc2, 0x4268cacc151f3fc2, 0xae7a689bc2e9f352, 0xae7a689bc2e9f352, 0xdc1de77562116d22]),
    ("euroroad", 75, [0x328f80093776cb00, 0xcb4a8faa0cc62ee4, 0x5b57759989249224, 0xf661ee23ab10fc74, 0x072b491a2d95dff8, 0xcfa906e5d5e32988, 0x328f80093776cb00, 0x04cf0b1651cb97e4, 0x5164e1c80288f3d0, 0xa60151749cf74dc0, 0x5164e1c80288f3d0, 0x2e64b9d3f5a7e8e4, 0x0082cdc4b8966664, 0xaa252d3d51edb810]),
    ("pgp", 11, [0xbebb4a00ae9636bd, 0x98a3afd4754b68bd, 0x700af4b2fdd102c1, 0x81afe7523be22851, 0xaa9187faa8dfcf81, 0x62394781513c2db1, 0x3055fc09eaff85bd, 0x400842ca93832bb5, 0x5d2128634d15ed01, 0x3055fc09eaff85bd, 0xf78bfd34fa19b57d, 0xb1e06f4c10ef68f1, 0x2fd99344bb19a455, 0xed8ed094104eeed1]),
    ("delaunay_n11", 67, [0x65f9bc2a2bebc4d9, 0xf6f1e625394354d1, 0x9ffbd826b7d6e30d, 0x1942c1f0e3da69c5, 0xee234701b47370bd, 0xcc2290cb4d2aacf5, 0xca25a3bd9128649d, 0x207e71734f56d08d, 0xd0f14c3f56a05a21, 0x2de789e421906e09, 0x0c27323d1f066611, 0xca25a3bd9128649d, 0x21e2571ab858a3ad, 0x4ab5b902822f583d]),
    ("grid2d_64x64", 126, [0x22669ef3b95cff89, 0x22669ef3b95cff89, 0x0a45b4f077035bad, 0x91278278e9b5a6d1, 0xd638c90b57b67a91, 0x4b5204583383441d, 0x22669ef3b95cff89, 0x115ba8e97ed8b7b9, 0x7284fc5f0c5fde8d, 0x6227d8eab518b3e5, 0x46ac55e3c9a3334d, 0x644d1b099402554d, 0x9b5d25061c841141, 0x6b5f06ff4609a809]),
    ("star_200", 2, [0x29c0b02aebf72755, 0x29c0b02aebf72755, 0xaa0be37b37a70fb5, 0xa7c57effaad8b075, 0x7c493dd59fa8c7c5, 0x40d0f1d3d90d9325, 0x40d0f1d3d90d9325, 0x40d0f1d3d90d9325, 0x40d0f1d3d90d9325, 0x40d0f1d3d90d9325, 0x40d0f1d3d90d9325, 0x40d0f1d3d90d9325, 0x40d0f1d3d90d9325, 0x40d0f1d3d90d9325]),
    ("barabasi_albert_300_16", 2, [0x167148ec9e6cfa49, 0xe2946ac8e9a17e11, 0x62dab1fcc331bca5, 0xc5f6922e3dcfe405, 0xd307e5dbfa851d41, 0x7eb3f86572482985, 0xed7a9a8d650bcba1, 0x12d13c9f2645cfb1, 0x7c5b46326b4a3651, 0xed7a9a8d650bcba1, 0x807d65bb7b721f21, 0xfa89f09027fb26ed, 0xd73ebfa170225df9, 0xaf24662371f162e9]),
    ("clique_chain_4x40", 7, [0x27e74bb22d631b05, 0x759fa23dc0c0fb55, 0x4ec3fa208d06f425, 0x7a7dbf5f76726ce5, 0x66818b7f42b9e005, 0xcd7d516b50b2b9a5, 0xcd7d516b50b2b9a5, 0xf8fd558216dd7d25, 0xcd7d516b50b2b9a5, 0xeaf509832431cc15, 0xeaf509832431cc15, 0xcd7d516b50b2b9a5, 0xcd7d516b50b2b9a5, 0x85804388fc12b345]),
];

fn graphs() -> Vec<(&'static str, Csr)> {
    let mut graphs: Vec<(&'static str, Csr)> =
        degenerate_suite().into_iter().map(|case| (case.name, case.graph)).collect();
    for name in ["euroroad", "pgp", "delaunay_n11"] {
        graphs.push((name, by_name(name).expect("small-suite instance").generate()));
    }
    graphs.push(("grid2d_64x64", grid2d(64, 64)));
    graphs.push(("star_200", star(200)));
    graphs.push(("barabasi_albert_300_16", barabasi_albert(300, 16, 13)));
    graphs.push(("clique_chain_4x40", clique_chain(4, 40)));
    graphs
}

fn rank_digest(pi: &Permutation) -> u64 {
    let bytes: Vec<u8> = pi.ranks().iter().flat_map(|r| r.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// One golden row of `g`: its diameter bound and one digest per spec.
fn row(g: &Csr) -> (usize, Digests) {
    let mut digests = [0u64; SPECS.len()];
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
fn render(rows: &[(&str, usize, Digests)]) -> String {
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
        let rows: Vec<(&str, usize, Digests)> = build_pool(threads).install(|| {
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
