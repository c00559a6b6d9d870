//! Test-side references for the schemes whose production kernels fan out:
//! plain serial loops written against the public API with tuple sort keys,
//! which the differential tests hold the kernels equal to at 1, 2 and 7
//! threads. Each integration test that needs them declares `mod support;`.

#![allow(dead_code, reason = "each test crate uses its own subset")]

use reorderlab_community::{louvain, LouvainConfig};
use reorderlab_core::schemes::{
    adaptive_decide, dbg_order, hub_threshold, AdaptiveChoice, CommIntra,
};
use reorderlab_datasets::{barabasi_albert, star};
use reorderlab_graph::{build_pool, pseudo_peripheral, Components, Csr, GraphBuilder, Permutation};
use reorderlab_trace::RunRecorder;
use std::cmp::Reverse;
use std::collections::VecDeque;

/// What a recorded run must reproduce at every width and under every
/// schedule: its span paths with their counts (not their times), counters,
/// series and notes.
pub(crate) fn recorded_fingerprint(rec: &RunRecorder) -> String {
    let spans: Vec<(&String, u64)> = rec.spans().iter().map(|(path, t)| (path, t.count)).collect();
    format!(
        "spans {spans:?}\ncounters {:?}\nseries {:?}\nnotes {:?}",
        rec.counters(),
        rec.series_map(),
        rec.notes()
    )
}

/// Hub-heavy graphs, on which rows cut by arcs (`rayon::arc_spans`) and
/// rows cut by count part at different vertices: a star with its hub
/// first, the same star with its hub last, and a preferential-attachment
/// graph in DBG order (hubs at low ids).
pub(crate) fn skewed_corpus() -> Vec<(&'static str, Csr)> {
    let hub_last = GraphBuilder::undirected(200)
        .edges((0..199u32).map(|v| (v, 199)))
        .build()
        .expect("valid star");
    let ba = barabasi_albert(300, 3, 5);
    let dbg = ba.permuted(&dbg_order(&ba)).expect("a permutation of the graph");
    vec![("star-hub-first", star(200)), ("star-hub-last", hub_last), ("ba-dbg", dbg)]
}

pub(crate) fn assert_bijective(pi: &Permutation, n: usize, ctx: &str) {
    assert_eq!(pi.len(), n, "{ctx}: permutation length");
    assert!(
        Permutation::from_ranks(pi.ranks().to_vec()).is_ok(),
        "{ctx}: ranks are not a bijection"
    );
}

fn from_order(order: &[u32]) -> Permutation {
    Permutation::from_order(order).expect("every vertex is emitted once")
}

/// Reference RCM or CDFS: components in `(degree, id)` order of their
/// cheapest vertex, each a FIFO BFS from its pseudo-peripheral root that
/// enqueues a vertex's unvisited neighbors sorted by `(degree, id)` when
/// `sorted` (RCM) or in adjacency order (CDFS); the visit sequence reversed.
pub(crate) fn cuthill_mckee_serial(graph: &Csr, sorted: bool) -> Permutation {
    let n = graph.num_vertices();
    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut starts: Vec<u32> = (0..n as u32).collect();
    starts.sort_by_key(|&v| (graph.degree(v), v));
    for &s in &starts {
        if visited[s as usize] {
            continue;
        }
        let root = pseudo_peripheral(graph, s);
        visited[root as usize] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<u32> =
                graph.neighbors(v).iter().copied().filter(|&u| !visited[u as usize]).collect();
            if sorted {
                nbrs.sort_by_key(|&u| (graph.degree(u), u));
            }
            for u in nbrs {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    from_order(&order)
}

/// One stable sort of every vertex by `(key(bucket, degree, is_hub), id)`,
/// where `bucket` is the power-of-two degree bucket `⌊log₂(d+1)⌋`, hottest
/// first, and a hub has degree above the mean.
fn dbg_family_serial<K: Ord>(
    graph: &Csr,
    key: impl Fn(Reverse<u32>, usize, bool) -> K,
) -> Permutation {
    let threshold = hub_threshold(graph);
    let mut order: Vec<u32> = graph.vertices().collect();
    order.sort_by_key(|&v| {
        let d = graph.degree(v);
        (key(Reverse((d + 1).ilog2()), d, d as f64 > threshold), v)
    });
    from_order(&order)
}

/// Reference DBG: `(Reverse(bucket), id)`.
pub(crate) fn dbg_serial(graph: &Csr) -> Permutation {
    dbg_family_serial(graph, |bucket, _, _| bucket)
}

/// Reference HubSortDBG: within a bucket, hubs by descending degree, then
/// the non-hubs in id order.
pub(crate) fn hub_sort_dbg_serial(graph: &Csr) -> Permutation {
    dbg_family_serial(graph, |bucket, d, hub| (bucket, !hub, Reverse(if hub { d } else { 0 })))
}

/// Reference HubClusterDBG: the hubs by bucket, then every cold vertex in
/// id order.
pub(crate) fn hub_cluster_dbg_serial(graph: &Csr) -> Permutation {
    dbg_family_serial(graph, |bucket, _, hub| (!hub, hub.then_some(bucket)))
}

/// Reference SlashBurn: every round sorts the working graph in full by
/// `(Reverse(degree), original id)`, and extracts both the remainder and its
/// giant component with [`Csr::induced_subgraph`].
pub(crate) fn slashburn_serial(graph: &Csr, k_frac: f64) -> Permutation {
    let n = graph.num_vertices();
    let mut ranks = vec![u32::MAX; n];
    let mut front = 0u32;
    let mut back = n as u32; // exclusive
    let mut live: Vec<u32> = (0..n as u32).collect();
    let mut sub = graph.clone();

    while !live.is_empty() {
        let remaining = live.len();
        let k = ((remaining as f64 * k_frac).ceil() as usize).max(1);
        let mut by_degree: Vec<u32> = (0..remaining as u32).collect();
        by_degree.sort_by_key(|&v| (Reverse(sub.degree(v)), live[v as usize]));
        if remaining <= k {
            for v in by_degree {
                ranks[live[v as usize] as usize] = front;
                front += 1;
            }
            break;
        }

        let mut is_hub = vec![false; remaining];
        for &h in &by_degree[..k] {
            ranks[live[h as usize] as usize] = front;
            front += 1;
            is_hub[h as usize] = true;
        }

        let keep: Vec<u32> = (0..remaining as u32).filter(|&v| !is_hub[v as usize]).collect();
        let (rest, rest_orig_local) = sub.induced_subgraph(&keep);
        let comps = Components::find(&rest);
        let Some(giant) = comps.largest() else { break };

        let mut spoke_comps: Vec<u32> = (0..comps.count() as u32).filter(|&c| c != giant).collect();
        spoke_comps.sort_by_key(|&c| (comps.size(c), c));
        let members = comps.members();
        for &c in &spoke_comps {
            for &v in members[c as usize].iter().rev() {
                back -= 1;
                ranks[live[rest_orig_local[v as usize] as usize] as usize] = back;
            }
        }

        let (next_sub, next_orig_local) = rest.induced_subgraph(&members[giant as usize]);
        live =
            next_orig_local.iter().map(|&v| live[rest_orig_local[v as usize] as usize]).collect();
        sub = next_sub;
    }
    Permutation::from_ranks(ranks).expect("every vertex is ranked once")
}

/// Reference community traversal: Louvain on one thread, then each
/// community in first-appearance order, walked from its lowest-id unvisited
/// member through same-community neighbors — FIFO in adjacency order (BFS),
/// LIFO with neighbors pushed in reverse adjacency order (DFS) — or sorted
/// by `(Reverse(degree), id)`.
pub(crate) fn comm_serial(graph: &Csr, intra: CommIntra) -> Permutation {
    let r = build_pool(1).install(|| louvain(graph, &LouvainConfig::default()));
    let n = graph.num_vertices();
    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut pending: VecDeque<u32> = VecDeque::new();
    for c in 0..r.num_communities as u32 {
        let same = |u: u32| r.assignment[u as usize] == c;
        let mut members: Vec<u32> = graph.vertices().filter(|&v| same(v)).collect();
        if intra == CommIntra::Degree {
            members.sort_by_key(|&v| (Reverse(graph.degree(v)), v));
            order.extend(members);
            continue;
        }
        for root in members {
            if visited[root as usize] {
                continue;
            }
            visited[root as usize] = true;
            pending.push_back(root);
            loop {
                let next = match intra {
                    CommIntra::Bfs => pending.pop_front(),
                    _ => pending.pop_back(),
                };
                let Some(v) = next else { break };
                order.push(v);
                let mut nbrs: Vec<u32> = graph.neighbors(v).to_vec();
                if intra == CommIntra::Dfs {
                    nbrs.reverse();
                }
                for u in nbrs {
                    if same(u) && !visited[u as usize] {
                        visited[u as usize] = true;
                        pending.push_back(u);
                    }
                }
            }
        }
    }
    from_order(&order)
}

/// Reference Adaptive: the thread-invariant decision, dispatched to the
/// references above.
pub(crate) fn adaptive_serial(graph: &Csr) -> Permutation {
    match adaptive_decide(graph).choice {
        AdaptiveChoice::Natural => Permutation::identity(graph.num_vertices()),
        AdaptiveChoice::HubSortDbg => hub_sort_dbg_serial(graph),
        AdaptiveChoice::CommBfs => comm_serial(graph, CommIntra::Bfs),
        AdaptiveChoice::Rcm => cuthill_mckee_serial(graph, true),
        AdaptiveChoice::Dbg => dbg_serial(graph),
    }
}
