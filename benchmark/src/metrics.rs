//! The names, units and directions of every metric the benchmark prints.
//! `BENCHMARK.json` lists the same names; a self-test keeps the two equal.

use reorderlab_trace::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name: name.to_string(), unit, better }
}

/// The eight request classes of `serve_zipf`, in the order they are printed.
pub const CLASSES: [&str; 8] = [
    "reorder_hit",
    "reorder_perm",
    "measure",
    "compression",
    "memsim",
    "stats_light",
    "stats_heavy",
    "reorder_miss",
];

pub const WORKLOADS: [&str; 4] = ["reorder_heavy", "kernel_flat", "kernel_csrz", "serve_zipf"];

/// What a user of the system sees. Measured with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("wall_s", "s", "lower"),
        def("p50_ms", "ms", "lower"),
        def("p99_ms", "ms", "lower"),
        def("peak_rss_mb", "MB", "lower"),
        def("gap_bits", "bits", "lower"),
        def("bits_per_edge", "bits", "lower"),
    ]
}

/// One layer each, from the traced run. A layer that a workload never calls
/// reads 0 there.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        def("datasets.generate_s", "s", "lower"),
        def("graph.read_csrbin_s", "s", "lower"),
        def("graph.write_csrbin_s", "s", "lower"),
        def("graph.permuted_s", "s", "lower"),
        def("graph.read_csrz_s", "s", "lower"),
        def("graph.write_csrz_s", "s", "lower"),
        def("graph.decode_s", "s", "lower"),
        def("graph.encode_s", "s", "lower"),
        def("graph.container_bytes", "count", "lower"),
        def("core.reorder.rcm_s", "s", "lower"),
        def("core.reorder.rabbit_s", "s", "lower"),
        def("core.reorder.dbg_s", "s", "lower"),
        def("partition.metis_s", "s", "lower"),
        def("community.grappolo_s", "s", "lower"),
        def("core.recorded_overhead_share", "%", "lower"),
        def("core.gap_measures_s", "s", "lower"),
        def("core.compression_measures_s", "s", "lower"),
        def("core.avg_log_gap.social", "bits", "lower"),
        def("core.avg_log_gap.road", "bits", "lower"),
        def("kernels.pagerank_s", "s", "lower"),
        def("kernels.pagerank_iterations", "count", "lower"),
        def("kernels.pagerank_marcs_per_s", "1/s", "higher"),
        def("kernels.pagerank_csrz_s", "s", "lower"),
        def("community.louvain_s", "s", "lower"),
        def("community.louvain_iterations", "count", "lower"),
        def("community.louvain_iter_ms", "ms", "lower"),
        def("community.modularity", "score", "higher"),
        def("community.louvain_csrz_s", "s", "lower"),
        def("influence.imm_s", "s", "lower"),
        def("influence.rr_sets", "count", "lower"),
        def("influence.rr_sets_per_s", "1/s", "higher"),
        def("influence.edges_examined", "count", "lower"),
        def("influence.imm_csrz_s", "s", "lower"),
        def("memsim.pagerank_avg_latency_cyc.natural", "cyc", "lower"),
        def("memsim.pagerank_avg_latency_cyc.dbg", "cyc", "lower"),
        def("memsim.replay_s", "s", "lower"),
    ];
    for class in CLASSES {
        v.push(def(&format!("ops.execute_ms.{class}"), "ms", "lower"));
    }
    v.push(def("ops.parse_us", "us", "lower"));
    v.push(def("ops.render_us", "us", "lower"));
    v.push(def("serve.corpus_load_s", "s", "lower"));
    v.push(def("serve.start_s", "s", "lower"));
    for class in CLASSES {
        v.push(def(&format!("serve.latency_ms.{class}"), "ms", "lower"));
    }
    for class in CLASSES {
        v.push(def(&format!("serve.overhead_ms.{class}"), "ms", "lower"));
    }
    v.extend([
        def("serve.engine_us.ping", "us", "lower"),
        def("serve.tcp_us.ping", "us", "lower"),
        def("serve.cache_hit_ratio", "%", "higher"),
        def("serve.cache_evictions", "count", "lower"),
        def("serve.coalesced", "count", "higher"),
        def("serve.shed", "count", "lower"),
        def("serve.errors", "count", "lower"),
        def("serve.audit_wall_ms", "ms", "lower"),
        def("trace.overhead_share", "%", "lower"),
        def("trace.cell_self_share", "%", "lower"),
    ]);
    v
}

/// Values by metric name, with the number of samples behind each timing.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    pub values: BTreeMap<String, f64>,
    pub samples: BTreeMap<String, usize>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn set_n(&mut self, name: &str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.insert(name.to_string(), samples);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The `metrics` object of the result line: every metric of `defs`, in
    /// their order.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        Json::Obj(
            defs.iter()
                .map(|d| {
                    let pair = vec![
                        ("value".to_string(), Json::Num(self.get(&d.name))),
                        ("unit".to_string(), Json::Str(d.unit.to_string())),
                    ];
                    (d.name.clone(), Json::Obj(pair))
                })
                .collect(),
        )
    }

    pub fn print(&self, defs: &[MetricDef]) {
        for d in defs {
            let n = self.samples.get(&d.name).map_or(String::new(), |n| format!("  (n={n})"));
            println!("  {:<44} {:>16.6} {}{}", d.name, self.get(&d.name), d.unit, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_meet_the_contract() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::BTreeSet::new();
        for d in &all {
            assert!(valid_name(&d.name), "{}", d.name);
            assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(d.better == "lower" || d.better == "higher");
        }
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        assert!(end_to_end()
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }

    /// `BENCHMARK.json` and this file must name the same metrics, units and
    /// directions, and the same workloads.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the root of the repo");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.clone(), d.unit.to_string(), d.better.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(crate::DEFAULT_SECONDS));
    }
}
