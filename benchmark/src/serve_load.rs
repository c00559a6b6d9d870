//! The `serve_zipf` workload: the benchmark's own closed-loop client against
//! an in-process daemon at `ServerConfig::default()`, which is what users
//! get. Callers of the daemon wait for replies, hence the closed loop: each
//! of `nproc` connections sends its next request only after the reply to the
//! previous one.
//!
//! The hit path is parse + queue + cache + two gap passes + render + socket;
//! the miss path adds the scheme. A cache or render change moves `p50_ms`;
//! `stats_heavy` and scheme changes move only `p99_ms`.

use crate::checks;
use crate::inputs::{self, csrbin_path, csrz_path};
use crate::metrics::{Metrics, CLASSES};
use crate::pipeline::memsim_probe;
use crate::spans::Tracer;
use crate::stats::{mean, median, percentile};
use crate::zipf::{self, Template};
use crate::{ChildConfig, Outcome};
use reorderlab_core::measures::{gap_measures, try_compression_measures};
use reorderlab_core::Scheme;
use reorderlab_ops::{execute, execute_with, OpReport, RequestEnvelope};
use reorderlab_serve::{
    ok_response, serve, CachingPerms, Corpus, CorpusResolver, PermCache, ServerConfig, SubmitResult,
};
use reorderlab_trace::{Json, Manifest, RunRecorder};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Requests per second of `--seconds`. At the 18 s of `BENCHMARK.json` the
/// trace has 1008 requests, which leaves ten samples beyond the 99th
/// percentile, and drains in about 20 s on the 2-vCPU reference box.
const REQUESTS_PER_SECOND: f64 = 56.0;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("the daemon accepts connections");
        stream.set_nodelay(true).expect("TCP_NODELAY is available");
        let reader = BufReader::new(stream.try_clone().expect("the socket clones"));
        Client { reader, writer: stream }
    }

    /// Sends one request line and waits for the reply line.
    fn round_trip(&mut self, line: &str, reply: &mut String) {
        reply.clear();
        // A failed write or read leaves `reply` short of a full line, which
        // the reply check counts as a failed operation.
        if self.writer.write_all(line.as_bytes()).is_ok() {
            let _ = self.reader.read_line(reply);
        }
    }

    fn control(&mut self, verb: &str) -> Json {
        let mut reply = String::new();
        self.round_trip(&format!("{{\"control\":\"{verb}\"}}\n"), &mut reply);
        Json::parse(reply.trim_end()).unwrap_or(Json::Null)
    }
}

/// Everything fixed before the daemon starts.
struct Plan {
    slots: Vec<Option<Template>>,
    counts: Vec<usize>,
    /// The template of every request of the trace, in trace order.
    requests: Vec<Template>,
    lines: Vec<String>,
    /// Every distinct template, in the order of the warm pass: the miss
    /// specs first and the hot templates last, so that the hot orderings are
    /// the most recently used when the trace starts.
    distinct: Vec<Template>,
}

fn plan(total: usize, seed: u64) -> Plan {
    let slots = zipf::ranked();
    let counts = zipf::counts(slots.len(), total);
    let mut misses = 0;
    let requests: Vec<Template> = zipf::trace(slots.len(), total, seed)
        .into_iter()
        .map(|slot| match &slots[slot] {
            Some(t) => t.clone(),
            None => {
                misses += 1;
                zipf::miss(misses - 1)
            }
        })
        .collect();
    let lines = requests.iter().map(Template::line).collect();
    let mut distinct: Vec<Template> = (0..zipf::MISS_SPECS).map(zipf::miss).collect();
    distinct.extend(slots.iter().rev().flatten().cloned());
    Plan { slots, counts, requests, lines, distinct }
}

#[derive(Clone, Copy)]
struct Sample {
    index: usize,
    start_ns: u64,
    end_ns: u64,
    ok: bool,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

struct Drained {
    start_s: f64,
    warm_s: f64,
    wall_s: f64,
    samples: Vec<Sample>,
    /// The warm pass's replies, one for each of `plan.distinct`.
    first_replies: Vec<String>,
    /// The change in `{"control":"stats"}` over the timed drain.
    stats: BTreeMap<String, f64>,
    /// `(engine, tcp)` median ping in µs, when probed.
    ping_us: Option<(f64, f64)>,
}

/// Starts a daemon, warms it with one pass over the distinct templates,
/// drains `count` requests of the trace through `nproc` connections, and
/// stops it.
fn drain(
    corpus: &Arc<Corpus>,
    plan: &Plan,
    count: usize,
    audit_path: Option<String>,
    ping_probes: usize,
    clock: &Tracer,
) -> Drained {
    let t0 = Instant::now();
    let config = ServerConfig { audit_path, ..ServerConfig::default() };
    let mut handle = serve(Arc::clone(corpus), config).expect("the daemon binds an ephemeral port");
    let start_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut clients: Vec<Client> =
        (0..inputs::nproc()).map(|_| Client::connect(handle.addr())).collect();
    let mut first_replies = Vec::with_capacity(plan.distinct.len());
    for template in &plan.distinct {
        let mut reply = String::new();
        clients[0].round_trip(&template.line(), &mut reply);
        first_replies.push(reply);
    }
    let warm_s = t0.elapsed().as_secs_f64();

    let before = clients[0].control("stats");
    let next = AtomicUsize::new(0);
    let lines = &plan.lines[..count];
    let t0 = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    let mut reply = String::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(line) = lines.get(index) else { break };
                        let start_ns = clock.now_ns();
                        client.round_trip(line, &mut reply);
                        let end_ns = clock.now_ns();
                        mine.push(Sample {
                            index,
                            start_ns,
                            end_ns,
                            ok: checks::reply_ok(&reply).is_ok(),
                        });
                    }
                    mine
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("client threads do not panic")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    samples.sort_by_key(|s| s.index);
    let after = clients[0].control("stats");
    let stats = [
        "requests",
        "ok",
        "errors",
        "shed",
        "coalesced",
        "cache_hits",
        "cache_misses",
        "cache_evictions",
    ]
    .iter()
    .map(|&key| {
        let read = |doc: &Json| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        (key.to_string(), read(&after) - read(&before))
    })
    .collect();

    let ping_us = (ping_probes > 0).then(|| {
        let engine = handle.engine();
        let time_us = |f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        };
        let in_process: Vec<f64> = (0..ping_probes)
            .map(|_| {
                time_us(&mut || {
                    if let SubmitResult::Response(r) = engine.submit_line("{\"control\":\"ping\"}")
                    {
                        std::hint::black_box(r);
                    }
                })
            })
            .collect();
        let over_tcp: Vec<f64> = (0..ping_probes)
            .map(|_| {
                time_us(&mut || {
                    std::hint::black_box(clients[0].control("ping"));
                })
            })
            .collect();
        (median(&in_process), median(&over_tcp))
    });

    drop(clients);
    handle.stop();
    Drained { start_s, warm_s, wall_s, samples, first_replies, stats, ping_us }
}

/// Median of `reps` timings of `f`, in seconds.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The layers under a request, each timed in-process: `execute_with` on a
/// warmed cache for each class, request parsing and reply rendering weighted
/// by the trace, and the recorder's cost on the scheme the daemon runs.
fn ops_probes(
    corpus: &Arc<Corpus>,
    plan: &Plan,
    locals: &[OpReport],
    smoke: bool,
    m: &mut Metrics,
) {
    let resolver = CorpusResolver::new(Arc::clone(corpus));
    let cache = Arc::new(PermCache::new(ServerConfig::default().cache_cap));
    let mut fresh_miss = 1000;
    for class in CLASSES {
        let representative = |fresh: &mut usize| {
            if class == "reorder_miss" {
                *fresh += 1;
                zipf::miss(*fresh)
            } else {
                plan.slots
                    .iter()
                    .flatten()
                    .find(|t| t.class == class)
                    .expect("every class has a template")
                    .clone()
            }
        };
        let run = |template: &Template| {
            let mut perms = CachingPerms::new(Arc::clone(&cache));
            std::hint::black_box(
                execute_with(&template.request, &resolver, &mut perms).expect("templates execute"),
            );
        };
        run(&representative(&mut fresh_miss));
        let reps = if class == "stats_heavy" || smoke { 2 } else { 3 };
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let template = representative(&mut fresh_miss);
                let t0 = Instant::now();
                run(&template);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        m.set_n(&format!("ops.execute_ms.{class}"), median(&samples), reps);
    }

    // Parse and render cost of the average request of the trace.
    let (mut parse_us, mut render_us, mut weight) = (0.0, 0.0, 0.0);
    for (slot, &count) in plan.slots.iter().zip(&plan.counts) {
        let template = slot.clone().unwrap_or_else(|| zipf::miss(0));
        let line = template.line();
        let at = plan.distinct.iter().position(|t| t.label == template.label);
        let local = &locals[at.expect("every slot is among the distinct templates")];
        let parse = time_median(20, || {
            let doc = Json::parse(line.trim_end()).expect("request lines parse");
            std::hint::black_box(RequestEnvelope::from_json(&doc).expect("request lines decode"));
        });
        let render = time_median(5, || {
            std::hint::black_box(ok_response(local));
        });
        parse_us += parse * 1e6 * count as f64;
        render_us += render * 1e6 * count as f64;
        weight += count as f64;
    }
    m.set("ops.parse_us", parse_us / weight);
    m.set("ops.render_us", render_us / weight);

    // The daemon computes orderings through the recorded path.
    let social = &corpus.get("social").expect("social is in the corpus").graph;
    let pairs = 2;
    let (mut plain, mut recorded) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        plain.push(time_median(1, || {
            std::hint::black_box(Scheme::Rcm.try_reorder(social).expect("rcm accepts any graph"));
        }));
        recorded.push(time_median(1, || {
            let mut rec = RunRecorder::new();
            std::hint::black_box(
                Scheme::Rcm.try_reorder_recorded(social, &mut rec).expect("rcm accepts any graph"),
            );
        }));
    }
    m.set_n(
        "core.recorded_overhead_share",
        100.0 * (median(&recorded) / median(&plain) - 1.0),
        pairs,
    );

    // A hit runs two gap passes.
    let pi = Scheme::Rcm.reorder(social);
    let gaps = time_median(5, || {
        std::hint::black_box(gap_measures(social, &pi));
    });
    m.set_n("core.gap_measures_s", gaps, 5);
    let compression = time_median(5, || {
        std::hint::black_box(
            try_compression_measures(social, &pi).expect("the ordering covers the graph"),
        );
    });
    m.set_n("core.compression_measures_s", compression, 5);
}

/// Makes each request of the traced drain a span, and gives it the daemon's
/// audit `wall_s` as its server-side child. An audit manifest carries no
/// request id, so manifests are matched first in, first out within
/// (op, graph); a coalesced request has no manifest of its own and gets no
/// child. Returns the audited wall times in ms.
fn request_spans(plan: &Plan, samples: &[Sample], audit: &[Manifest], t: &mut Tracer) -> Vec<f64> {
    let mut by_key: BTreeMap<(String, String), std::collections::VecDeque<f64>> = BTreeMap::new();
    for manifest in audit {
        let op = manifest.notes.iter().find(|(k, _)| k == "op").map_or("", |(_, v)| v.as_str());
        if let Some(wall_s) = manifest.measure("wall_s") {
            by_key
                .entry((op.to_string(), manifest.graph.id.clone()))
                .or_default()
                .push_back(wall_s);
        }
    }
    let mut by_end: Vec<&Sample> = samples.iter().collect();
    by_end.sort_by_key(|s| s.end_ns);
    for sample in by_end {
        let template = &plan.requests[sample.index];
        let name = format!("serve.request.{}", template.class);
        let Some(span) =
            t.push_span(&name, sample.index as u64 + 1, sample.start_ns, sample.end_ns)
        else {
            continue;
        };
        let key = (template.request.op_name().to_string(), template.graph().to_string());
        if let Some(wall_s) = by_key.get_mut(&key).and_then(|q| q.pop_front()) {
            t.push_duration_only("serve.audit", span, wall_s);
        }
    }
    audit.iter().filter_map(|m| m.measure("wall_s")).map(|s| s * 1e3).collect()
}

pub fn run(cfg: &ChildConfig) -> Outcome {
    let mut t = Tracer::new(Instant::now());
    t.set_enabled(cfg.trace);
    let mut failures: Vec<String> = Vec::new();

    let total = if cfg.smoke { 100 } else { (REQUESTS_PER_SECOND * cfg.seconds).round() as usize };
    let plan = plan(total, cfg.seed);
    zipf::print_table(&plan.slots, &plan.counts);

    // The corpus directory holds `social` flat and `road` compressed.
    let corpus_dir = cfg.dir.join("corpus");
    std::fs::create_dir_all(&corpus_dir).expect("the corpus directory is creatable");
    for from in [csrbin_path(&cfg.dir, "social"), csrz_path(&cfg.dir, "road")] {
        let to = corpus_dir.join(from.file_name().expect("container paths have a file name"));
        std::fs::rename(&from, &to).expect("containers move into the corpus directory");
    }
    let t0 = Instant::now();
    let corpus =
        t.leaf("serve.corpus_load", || Corpus::load_dir(&corpus_dir).expect("the corpus loads"));
    let corpus_load_s = t0.elapsed().as_secs_f64();
    let corpus = Arc::new(corpus);

    // Local execution of every distinct template, for the reply check. It is
    // the instrument's cost and stays out of `setup_s`.
    let t0 = Instant::now();
    let resolver = CorpusResolver::new(Arc::clone(&corpus));
    let locals: Vec<OpReport> = plan
        .distinct
        .iter()
        .map(|template| {
            execute(&template.request, &resolver).expect("templates execute locally").report
        })
        .collect();
    println!(
        "local execution of {} distinct templates: {:.3} s",
        locals.len(),
        t0.elapsed().as_secs_f64()
    );

    // A traced run drains half the trace twice: on a plain daemon, then on
    // one that audits every request, with a span for each request.
    let count = if cfg.trace { total / 2 } else { total };
    let ping_probes = match (cfg.trace, cfg.smoke) {
        (false, _) => 0,
        (true, true) => 100,
        (true, false) => 1000,
    };
    let plain = drain(&corpus, &plan, count, None, 0, &t);
    let mut starts = vec![plain.start_s];

    // The first reply for each distinct template equals local execution.
    let mut first_reports: Vec<Option<OpReport>> = Vec::new();
    for ((template, reply), local) in plan.distinct.iter().zip(&plain.first_replies).zip(&locals) {
        match checks::reply_matches(reply, local) {
            Ok(report) => first_reports.push(Some(report)),
            Err(e) => {
                failures.push(format!("first reply to {}: {e}", template.label));
                first_reports.push(None);
            }
        }
    }
    let setup_failures = failures.len();

    let measured = if cfg.trace {
        let audit_path = cfg.dir.join("audit.jsonl");
        let audited = drain(
            &corpus,
            &plan,
            count,
            Some(audit_path.to_string_lossy().into_owned()),
            ping_probes,
            &t,
        );
        starts.push(audited.start_s);
        audited.first_replies.iter().filter(|r| checks::reply_ok(r).is_err()).for_each(|_| {
            failures.push("a warm-pass reply of the audited daemon is not ok".into())
        });
        let audit: Vec<Manifest> = std::fs::read_to_string(&audit_path)
            .unwrap_or_default()
            .lines()
            .skip(plan.distinct.len())
            .filter_map(|line| Manifest::parse(line).ok())
            .collect();
        Some((audited, audit))
    } else {
        None
    };

    let scored = measured.as_ref().map_or(&plain, |(audited, _)| audited);
    let attempted = scored.samples.len();
    let failed = scored.samples.iter().filter(|s| !s.ok).count();
    if failed > 0 {
        let first = scored.samples.iter().find(|s| !s.ok).map_or(0, |s| s.index);
        failures.push(format!("{failed} replies were not ok, the first to request {first}"));
    }

    let mut m = Metrics::default();
    let latencies: Vec<f64> = plain.samples.iter().map(Sample::ms).collect();
    let setup_s = cfg.setup.get("setup_parent_s") + corpus_load_s + plain.start_s + plain.warm_s;
    m.set_n("setup_s", setup_s, 1);
    m.set_n("wall_s", plain.wall_s, 1);
    m.set_n("p50_ms", median(&latencies), latencies.len());
    m.set_n("p99_ms", percentile(&latencies, 0.99), latencies.len());
    // Ordering quality as the daemon reports it: the hot orderings' average
    // log gap, and the bits per edge of the compression replies.
    let (mut log_gaps, mut gap_bytes, mut arcs) = (Vec::new(), 0.0, 0.0);
    for (template, report) in plan.distinct.iter().zip(&first_reports) {
        match report {
            Some(OpReport::Reorder(r)) if template.class == "reorder_hit" => {
                log_gaps.push(r.after.avg_log_gap)
            }
            Some(OpReport::Compression(c)) => {
                gap_bytes += c.rows.iter().map(|row| row.gap_bytes as f64).sum::<f64>();
                arcs += (c.arcs * c.rows.len()) as f64;
            }
            _ => {}
        }
    }
    m.set("gap_bits", mean(&log_gaps));
    m.set("bits_per_edge", 8.0 * gap_bytes / arcs.max(1.0));
    println!("daemon start {:.6} s, warm pass {:.3} s", plain.start_s, plain.warm_s);
    println!(
        "drained {} requests over {} connections in {:.3} s: {:.1} req/s (not gated)",
        plain.samples.len(),
        inputs::nproc(),
        plain.wall_s,
        plain.samples.len() as f64 / plain.wall_s
    );

    if let Some((audited, audit)) = &measured {
        let audit_ms = request_spans(&plan, &audited.samples, audit, &mut t);
        m.set_n("serve.audit_wall_ms", median(&audit_ms), audit_ms.len());
        let t0 = Instant::now();
        ops_probes(&corpus, &plan, &locals, cfg.smoke, &mut m);
        println!("in-process probes: {:.3} s", t0.elapsed().as_secs_f64());
        memsim_probe(&corpus.get("social").expect("social is in the corpus").graph, &mut m, &mut t);
        for class in CLASSES {
            let of_class: Vec<f64> = audited
                .samples
                .iter()
                .filter(|s| plan.requests[s.index].class == class)
                .map(Sample::ms)
                .collect();
            let latency = median(&of_class);
            m.set_n(&format!("serve.latency_ms.{class}"), latency, of_class.len());
            let execute_ms = m.get(&format!("ops.execute_ms.{class}"));
            m.set(&format!("serve.overhead_ms.{class}"), latency - execute_ms);
        }
        if let Some((engine, tcp)) = audited.ping_us {
            m.set_n("serve.engine_us.ping", engine, ping_probes);
            m.set_n("serve.tcp_us.ping", tcp, ping_probes);
        }
        let s = |key: &str| audited.stats.get(key).copied().unwrap_or(0.0);
        m.set(
            "serve.cache_hit_ratio",
            100.0 * s("cache_hits") / (s("cache_hits") + s("cache_misses")).max(1.0),
        );
        m.set("serve.cache_evictions", s("cache_evictions"));
        m.set("serve.coalesced", s("coalesced"));
        m.set("serve.shed", s("shed"));
        m.set("serve.errors", s("errors"));
        m.set("graph.container_bytes", inputs::container_bytes(&corpus_dir) as f64);
        m.set_n("serve.corpus_load_s", corpus_load_s, 1);
        m.set_n("serve.start_s", median(&starts), starts.len());
        m.set_n("trace.overhead_share", 100.0 * (audited.wall_s / plain.wall_s - 1.0), 1);
        crate::setup_layer_metrics(cfg, &mut m);
    }
    m.set("peak_rss_mb", inputs::peak_rss_mb());
    Outcome { metrics: m, attempted, failed, setup_failures, failures, tracer: t }
}
