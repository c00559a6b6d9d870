//! Input generation. The parent process generates the graphs from the seed
//! and writes them as containers; the workload process sees only the files.

use crate::rng::SplitMix64;
use crate::spans::Tracer;
use reorderlab_datasets::{by_name, Recipe};
use reorderlab_graph::{
    csr_digest, write_binary_csr, write_compressed_csr, CompressedCsr, Csr, Permutation,
};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// The two inputs, by role. `social` has a heavy tail and a low diameter;
/// `road` has degree at most 4 and a huge diameter.
pub const GRAPHS: [&str; 2] = ["social", "road"];

pub fn recipe(graph: &str, smoke: bool) -> Recipe {
    match (graph, smoke) {
        // The `skitter` recipe of the large suite.
        ("social", false) => Recipe::Rmat { n: 106_250, m: 694_000, a: 0.62, b: 0.16, c: 0.16 },
        // The `ca_roadnet` recipe of the large suite.
        ("road", false) => Recipe::RoadNetwork { rows: 350, cols: 351, keep_prob: 0.41 },
        ("social", true) => by_name("pgp").expect("pgp is in the small suite").recipe,
        ("road", true) => by_name("euroroad").expect("euroroad is in the small suite").recipe,
        _ => unreachable!("graphs are social and road"),
    }
}

/// Collection-order jitter: n/8 random transpositions of vertex ids. Raw
/// generator output has an artificially perfect natural order; collected
/// data sets do not.
pub fn jitter(graph: &Csr, seed: u64) -> Csr {
    let n = graph.num_vertices();
    let mut rng = SplitMix64::new(seed ^ 0x6a69_7474_6572);
    let mut ranks: Vec<u32> = (0..n as u32).collect();
    for _ in 0..n / 8 {
        let (i, j) = (rng.below(n), rng.below(n));
        ranks.swap(i, j);
    }
    let pi = Permutation::from_ranks(ranks).expect("transpositions keep a permutation");
    graph.permuted(&pi).expect("the jitter covers every vertex")
}

pub fn generate(graph: &str, seed: u64, smoke: bool) -> Csr {
    jitter(&recipe(graph, smoke).generate(seed), seed)
}

pub fn csrbin_path(dir: &Path, graph: &str) -> PathBuf {
    dir.join(format!("{graph}.csrbin"))
}

pub fn csrz_path(dir: &Path, graph: &str) -> PathBuf {
    dir.join(format!("{graph}.csrz"))
}

pub fn write_csrbin(graph: &Csr, path: &Path) {
    let file =
        File::create(path).unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    let mut out = BufWriter::new(file);
    write_binary_csr(graph, &mut out).expect("binary CSR writes");
    out.flush().expect("binary CSR flushes");
}

pub fn write_csrz(cz: &CompressedCsr, path: &Path) {
    let file =
        File::create(path).unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    let mut out = BufWriter::new(file);
    write_compressed_csr(cz, &mut out).expect("compressed CSR writes");
    out.flush().expect("compressed CSR flushes");
}

/// One set-up pass: generate both graphs and write each in both formats.
/// Returns `(graph, csr_digest, vertices, arcs)` of each.
pub fn set_up(
    dir: &Path,
    seed: u64,
    smoke: bool,
    tracer: &mut Tracer,
) -> Vec<(String, u64, usize, usize)> {
    let mut digests = Vec::new();
    for graph in GRAPHS {
        let g = tracer.leaf("datasets.generate", || generate(graph, seed, smoke));
        tracer.leaf("graph.write_csrbin", || write_csrbin(&g, &csrbin_path(dir, graph)));
        let cz =
            tracer.leaf("graph.encode", || CompressedCsr::from_csr(&g).expect("rows are sorted"));
        tracer.leaf("graph.write_csrz", || write_csrz(&cz, &csrz_path(dir, graph)));
        digests.push((graph.to_string(), csr_digest(&g), g.num_vertices(), g.num_arcs()));
    }
    digests
}

/// Bytes of every container in `dir`, both formats: the inputs and what the
/// workload wrote.
pub fn container_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "csrbin" || x == "csrz"))
        .filter_map(|e| e.metadata().ok())
        .map(|md| md.len())
        .sum()
}

/// `nproc`, and the cache sizes `/sys` reports for cpu0.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn cache_sizes() -> Vec<String> {
    let mut out = Vec::new();
    for index in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{base}/{f}")).map(|s| s.trim().to_string());
        if let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) {
            out.push(format!("L{level} {kind} {size}"));
        }
    }
    out
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_graph_and_other_seed_other_graph() {
        let a = generate("road", 5, true);
        assert_eq!(csr_digest(&a), csr_digest(&generate("road", 5, true)));
        assert_ne!(csr_digest(&a), csr_digest(&generate("road", 6, true)));
    }

    #[test]
    fn jitter_keeps_the_degree_multiset() {
        let g = recipe("social", true).generate(1);
        let j = jitter(&g, 1);
        let degrees = |g: &Csr| {
            let mut d: Vec<usize> = (0..g.num_vertices() as u32).map(|v| g.degree(v)).collect();
            d.sort_unstable();
            d
        };
        assert_eq!(degrees(&g), degrees(&j));
        assert_ne!(csr_digest(&g), csr_digest(&j));
    }
}
