//! End-to-end daemon tests over real TCP: response identity with local
//! execution, cache behavior, typed errors, audit trail, and shutdown.

use reorderlab_graph::COMPRESSED_CSR_EXTENSION;
use reorderlab_ops::{
    execute, run_with_threads, FsResolver, GraphSource, OpError, OpReport, OpRequest,
    RequestEnvelope,
};
use reorderlab_serve::{
    exchange, prepare_corpus, serve, Corpus, Response, ServerConfig, ServerHandle,
};
use reorderlab_trace::{Json, Manifest};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_daemon(audit: Option<String>) -> ServerHandle {
    start_daemon_with(ServerConfig { audit_path: audit, ..ServerConfig::default() })
}

fn start_daemon_with(config: ServerConfig) -> ServerHandle {
    let mut corpus = Corpus::new();
    for name in ["euroroad", "rovira"] {
        corpus.insert(name, reorderlab_datasets::by_name(name).unwrap().generate());
    }
    serve(Arc::new(corpus), config).unwrap()
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let writer = TcpStream::connect(handle.addr()).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Client { writer, reader }
    }

    fn send(&mut self, line: &str) -> String {
        exchange(&mut self.writer, &mut self.reader, line).unwrap()
    }

    /// Sends `request` at `threads` and returns the report of the reply.
    fn report(&mut self, request: &OpRequest, threads: Option<usize>) -> OpReport {
        let envelope = RequestEnvelope { request: request.clone(), threads };
        let reply = self.send(&envelope.to_json().to_line());
        match Response::parse(&reply).unwrap() {
            Response::Ok(report) => *report,
            other => panic!("expected a report for {request:?}: {other:?}"),
        }
    }

    /// One counter of `{"control":"stats"}`.
    fn counter(&mut self, key: &str) -> u64 {
        let stats = Json::parse(&self.send("{\"control\":\"stats\"}")).unwrap();
        stats.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("no {key} counter")) as u64
    }
}

/// `report` without what legitimately differs between a computed and a
/// memoized answer: wall times, the hit flag, and the recorder's view of a
/// scheme that did or did not run.
fn without_timing(mut report: OpReport) -> OpReport {
    fn strip(m: &mut Manifest) {
        m.threads = 0;
        m.phases.clear();
        m.counters.clear();
        m.series.clear();
        m.measures.retain(|(name, _)| name != "reorder_wall_s");
    }
    match &mut report {
        OpReport::Stats(s) => strip(&mut s.manifest),
        OpReport::Reorder(r) => {
            r.wall_s = 0.0;
            r.cache_hit = false;
            strip(&mut r.manifest);
        }
        OpReport::Measure(m) => m.rows.iter_mut().for_each(|row| strip(&mut row.manifest)),
        OpReport::Compression(c) => c.rows.iter_mut().for_each(|row| strip(&mut row.manifest)),
        OpReport::Validate(_) | OpReport::Memsim(_) => {}
    }
    report
}

/// The operations whose numbers are memoized, on one graph. The memsim
/// requests replay each workload once in the natural layout, whose replays
/// live with the corpus entry.
fn fact_reading_requests(source: GraphSource) -> [OpRequest; 7] {
    [
        OpRequest::Stats { source: source.clone() },
        OpRequest::Reorder {
            source: source.clone(),
            scheme: Some("rcm".into()),
            apply_perm: None,
            return_perm: true,
        },
        OpRequest::Measure { source: source.clone(), schemes: vec!["rcm".into(), "dbg".into()] },
        OpRequest::Compression {
            source: source.clone(),
            schemes: vec!["natural".into(), "rcm".into()],
        },
        memsim(source.clone(), None, "louvain"),
        memsim(source.clone(), None, "rr"),
        memsim(source, None, "pagerank"),
    ]
}

fn memsim(source: GraphSource, scheme: Option<&str>, workload: &str) -> OpRequest {
    OpRequest::Memsim {
        source,
        scheme: scheme.map(str::to_string),
        workload: workload.into(),
        kernel: None,
    }
}

fn corpus(graph: &str) -> GraphSource {
    GraphSource::Corpus(graph.into())
}

fn instance(graph: &str) -> GraphSource {
    GraphSource::Instance(graph.into())
}

/// The first reply (computed, filled at 7 threads), the second (memoized,
/// read at 1 thread) and the reply after the orderings were evicted and
/// recomputed all carry the numbers of a local `execute`.
#[test]
fn computed_memoized_and_recomputed_replies_equal_local_execution() {
    // Two orderings fit: enough for each request to find its own again,
    // few enough that two others evict them.
    let mut handle = start_daemon_with(ServerConfig { cache_cap: 2, ..ServerConfig::default() });
    let mut client = Client::connect(&handle);
    for graph in ["euroroad", "rovira"] {
        let locals = fact_reading_requests(instance(graph));
        for (request, local) in fact_reading_requests(corpus(graph)).into_iter().zip(locals) {
            let local = without_timing(execute(&local, &FsResolver).unwrap().report);
            let computed = client.report(&request, Some(7));
            let misses = client.counter("fact_misses");
            let memoized = client.report(&request, Some(1));
            assert_eq!(client.counter("fact_misses"), misses, "{request:?} ran a graph pass");
            let evictions = client.counter("cache_evictions");
            for other in ["degree", "hubsort"] {
                let line = format!(
                    "{{\"op\":\"reorder\",\"source\":{{\"corpus\":\"{graph}\"}},\"scheme\":\"{other}\"}}"
                );
                assert!(client.send(&line).contains("\"status\":\"ok\""));
            }
            let recomputed = client.report(&request, None);
            // What no ordering carries lives with the corpus entry.
            if !matches!(request, OpRequest::Stats { .. } | OpRequest::Memsim { .. }) {
                assert!(client.counter("cache_evictions") > evictions, "{request:?}");
                assert!(client.counter("fact_misses") > misses, "{request:?}");
            }
            for (label, reply) in
                [("computed", computed), ("memoized", memoized), ("recomputed", recomputed)]
            {
                assert_eq!(without_timing(reply), local, "{label} reply to {request:?}");
            }
        }
    }
    handle.stop();
}

/// The work is gone, not hidden: on a warmed daemon, repeats read every
/// number from a fact cell, and a new ordering of a known graph costs the
/// one gap pass of its `after` row.
#[test]
fn a_warmed_daemon_answers_repeats_without_a_graph_pass() {
    let mut handle = start_daemon(None);
    let mut client = Client::connect(&handle);
    let requests = fact_reading_requests(corpus("rovira"));
    for request in &requests {
        client.report(request, None);
    }
    let (hits, misses) = (client.counter("fact_hits"), client.counter("fact_misses"));
    for _ in 0..50 {
        for request in &requests {
            client.report(request, None);
        }
    }
    assert_eq!(client.counter("fact_misses"), misses);
    // Per round: stats 1, reorder 3 (two gap rows and the returned
    // text), measure 2, compression 4, memsim 3.
    assert_eq!(client.counter("fact_hits"), hits + 50 * 13);
    let fresh = OpRequest::Reorder {
        source: corpus("rovira"),
        scheme: Some("random:seed=7".into()),
        apply_perm: None,
        return_perm: false,
    };
    client.report(&fresh, None);
    assert_eq!(client.counter("fact_misses"), misses + 1);
    assert_eq!(client.counter("fact_hits"), hits + 50 * 13 + 1);
    handle.stop();
}

/// `cache_cap: 0` stores no ordering, so no measure or text of one; the
/// graph's own facts, its natural-layout replays among them, still live
/// with the corpus entry.
#[test]
fn a_cacheless_daemon_answers_correctly_and_memoizes_nothing_per_ordering() {
    let mut handle = start_daemon_with(ServerConfig { cache_cap: 0, ..ServerConfig::default() });
    let mut client = Client::connect(&handle);
    let request = &fact_reading_requests(corpus("euroroad"))[1];
    let local = &fact_reading_requests(instance("euroroad"))[1];
    let local = without_timing(execute(local, &FsResolver).unwrap().report);
    for round in 0..3 {
        let reply = client.report(request, None);
        let OpReport::Reorder(r) = &reply else { panic!("wrong report: {reply:?}") };
        assert!(!r.cache_hit, "round {round}");
        assert_eq!(without_timing(reply), local, "round {round}");
    }
    assert_eq!(client.counter("cache_len"), 0);
    assert_eq!(client.counter("cache_misses"), 3);
    // `before` once for the graph; `after` and the returned text once per
    // request.
    assert_eq!((client.counter("fact_misses"), client.counter("fact_hits")), (7, 2));
    // A natural replay is computed once per corpus entry and then read; a
    // replay in a scheme's layout reads no cell and runs on every request.
    for (scheme, tally) in [(None, (1, 2)), (Some("rcm"), (0, 0))] {
        let request = memsim(corpus("euroroad"), scheme, "pagerank");
        let local = execute(&memsim(instance("euroroad"), scheme, "pagerank"), &FsResolver);
        let local = local.unwrap().report;
        let (misses, hits) = (client.counter("fact_misses"), client.counter("fact_hits"));
        for round in 0..3 {
            assert_eq!(client.report(&request, None), local, "round {round}");
        }
        let read = (client.counter("fact_misses") - misses, client.counter("fact_hits") - hits);
        assert_eq!(read, tally, "{request:?}");
    }
    assert_eq!(client.counter("cache_len"), 0);
    handle.stop();
}

/// The daemon's rendered report must be byte-identical to what the same
/// request produces locally through `execute`, for every thread bound.
#[test]
fn daemon_reports_match_local_execution_across_thread_bounds() {
    let mut handle = start_daemon(None);
    let mut client = Client::connect(&handle);
    let requests = [
        OpRequest::Stats { source: GraphSource::Instance("euroroad".into()) },
        OpRequest::Reorder {
            source: GraphSource::Instance("euroroad".into()),
            scheme: Some("rcm".into()),
            apply_perm: None,
            return_perm: false,
        },
        OpRequest::Measure {
            source: GraphSource::Instance("euroroad".into()),
            schemes: vec!["natural".into(), "rcm".into(), "dbg".into()],
        },
        memsim(instance("euroroad"), Some("rcm"), "rr"),
    ];
    for threads in [1usize, 2, 7] {
        for request in &requests {
            let local = execute(request, &FsResolver).unwrap().report;
            let envelope = RequestEnvelope { request: request.clone(), threads: Some(threads) };
            let resp = client.send(&envelope.to_json().to_line());
            let Response::Ok(remote) = Response::parse(&resp).unwrap() else {
                panic!("expected ok response at threads={threads}: {resp}");
            };
            let (local_text, remote_text) = match (&local, remote.as_ref()) {
                (OpReport::Stats(a), OpReport::Stats(b)) => (a.render_text(), b.render_text()),
                (OpReport::Reorder(a), OpReport::Reorder(b)) => {
                    // Wall time is the one legitimately nondeterministic
                    // field; strip the trailing "(N.NNNs)" before diffing.
                    let strip = |s: String| match s.rfind(" (") {
                        Some(i) => s[..i].to_string(),
                        None => s,
                    };
                    (strip(a.summary_line()), strip(b.summary_line()))
                }
                (OpReport::Measure(a), OpReport::Measure(b)) => (a.render_text(), b.render_text()),
                (OpReport::Memsim(a), OpReport::Memsim(b)) => (a.render_text(), b.render_text()),
                other => panic!("report kind mismatch: {other:?}"),
            };
            assert_eq!(
                local_text, remote_text,
                "daemon output must be bit-identical to CLI output (threads={threads})"
            );
        }
    }
    handle.stop();
}

#[test]
fn repeated_requests_are_served_from_the_permutation_cache() {
    let mut handle = start_daemon(None);
    let mut client = Client::connect(&handle);
    let line = "{\"op\":\"reorder\",\"source\":{\"corpus\":\"euroroad\"},\"scheme\":\"dbg\"}";
    let first = client.send(line);
    assert!(first.contains("\"cache_hit\":false"), "{first}");
    // Same request again — and also from a second connection.
    let second = client.send(line);
    assert!(second.contains("\"cache_hit\":true"), "{second}");
    let mut other = Client::connect(&handle);
    let third = other.send(line);
    assert!(third.contains("\"cache_hit\":true"), "{third}");
    let stats = client.send("{\"control\":\"stats\"}");
    let v = reorderlab_trace::Json::parse(&stats).unwrap();
    let hits = v.get("cache_hits").and_then(reorderlab_trace::Json::as_f64).unwrap();
    assert!(hits >= 2.0, "{stats}");
    handle.stop();
}

/// A daemon whose corpus was prepared as `.csrz` containers serves
/// `compression` requests byte-identically to local execution on the
/// same generated graph.
#[test]
fn compressed_corpus_daemon_serves_compression_requests() {
    let dir = std::env::temp_dir().join(format!("serve_csrz_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    prepare_corpus(&dir, &["euroroad".into()], COMPRESSED_CSR_EXTENSION).unwrap();
    let corpus = Corpus::load_dir(&dir).unwrap();
    let mut handle = serve(Arc::new(corpus), ServerConfig::default()).unwrap();
    let mut client = Client::connect(&handle);
    let line = "{\"op\":\"compression\",\"source\":{\"corpus\":\"euroroad\"},\
                \"schemes\":[\"natural\",\"rcm\"]}";
    let resp = client.send(line);
    let Response::Ok(remote) = Response::parse(&resp).unwrap() else {
        panic!("expected ok response: {resp}");
    };
    let OpReport::Compression(remote) = remote.as_ref() else {
        panic!("expected a compression report: {resp}");
    };
    let local = execute(
        &OpRequest::Compression {
            source: GraphSource::Instance("euroroad".into()),
            schemes: vec!["natural".into(), "rcm".into()],
        },
        &FsResolver,
    )
    .unwrap()
    .report;
    let OpReport::Compression(local) = &local else { panic!("wrong local report") };
    assert_eq!(
        local.render_text(),
        remote.render_text(),
        "compressed-corpus daemon output must match local execution"
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_typed_errors_with_exit_codes() {
    let mut handle = start_daemon(None);
    let mut client = Client::connect(&handle);
    let cases = [
        ("not json at all", 1),         // parse
        ("{\"op\":\"frobnicate\"}", 2), // usage
        ("{\"op\":\"reorder\",\"source\":{\"corpus\":\"euroroad\"},\"scheme\":\"bogus\"}", 2),
        ("{\"op\":\"stats\",\"source\":{\"corpus\":\"missing\"}}", 2),
        ("{\"op\":\"stats\",\"source\":{\"path\":\"/etc/hosts\"}}", 2), // no client paths
        ("{\"control\":\"dance\"}", 2),
    ];
    for (line, want_code) in cases {
        let resp = client.send(line);
        let Response::Err(e) = Response::parse(&resp).unwrap() else {
            panic!("expected error response for {line:?}: {resp}");
        };
        assert_eq!(e.exit_code(), want_code, "{line:?} -> {resp}");
    }
    handle.stop();
}

#[test]
fn audit_log_records_every_executed_request() {
    let audit = std::env::temp_dir()
        .join(format!("serve_audit_{}.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let _ = std::fs::remove_file(&audit);
    let mut handle = start_daemon(Some(audit.clone()));
    let mut client = Client::connect(&handle);
    client.send("{\"op\":\"stats\",\"source\":{\"corpus\":\"euroroad\"}}");
    client.send("{\"op\":\"reorder\",\"source\":{\"corpus\":\"rovira\"},\"scheme\":\"rcm\"}");
    client.send("{\"op\":\"stats\",\"source\":{\"corpus\":\"missing\"}}");
    client.send("{\"op\":\"stats\",\"source\":{\"corpus\":\"euroroad\"}}");
    let memsim =
        "{\"op\":\"memsim\",\"source\":{\"corpus\":\"euroroad\"},\"workload\":\"pagerank\"}";
    for _ in 0..2 {
        assert!(client.send(memsim).contains("\"status\":\"ok\""));
    }
    handle.stop();
    let text = std::fs::read_to_string(&audit).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6, "{text}");
    for line in &lines {
        let m = reorderlab_trace::Manifest::parse(line).unwrap();
        assert_eq!(m.command, "serve");
    }
    // A worker audits after it has answered, so two workers' lines land in
    // either order: find each line by what it says.
    let count = |needles: &[&str]| {
        lines.iter().filter(|line| needles.iter().all(|needle| line.contains(needle))).count()
    };
    assert_eq!(
        count(&["\"op\":\"reorder\"", "\"status\":\"ok\"", "\"cache\":\"miss\""]),
        1,
        "{text}"
    );
    // Where a request's time went is attributable from the trail: the
    // first `stats` ran the graph pass, the repeat read its result, and a
    // request that failed read nothing.
    assert_eq!(
        count(&["\"op\":\"stats\"", "\"status\":\"ok\"", "\"facts\":\"computed\""]),
        1,
        "{text}"
    );
    assert_eq!(
        count(&["\"op\":\"stats\"", "\"status\":\"ok\"", "\"facts\":\"reused\""]),
        1,
        "{text}"
    );
    assert_eq!(count(&["\"op\":\"reorder\"", "\"facts\":\"computed\""]), 1, "{text}");
    // A memsim line names the graph it replayed, and its replay is a fact:
    // the first request ran it, the repeat read it.
    let memsim_lines =
        |facts| count(&["\"op\":\"memsim\"", "\"vertices\":1190", "\"edges\":1399", facts]);
    assert_eq!(memsim_lines("\"facts\":\"computed\""), 1, "{text}");
    assert_eq!(memsim_lines("\"facts\":\"reused\""), 1, "{text}");
    assert_eq!(count(&["\"status\":\"usage\""]), 1, "{text}");
    assert_eq!(count(&["\"status\":\"usage\"", "\"facts\""]), 0, "{text}");
    let _ = std::fs::remove_file(&audit);
}

#[test]
fn shutdown_verb_stops_the_daemon() {
    let mut handle = start_daemon(None);
    let mut client = Client::connect(&handle);
    let resp = client.send("{\"control\":\"shutdown\"}");
    assert!(resp.contains("\"shutdown\":true"), "{resp}");
    handle.wait();
    // The listener is gone: new exchanges fail.
    let err =
        TcpStream::connect(handle.addr()).map_err(|e| OpError::Io(e.to_string())).and_then(|s| {
            let mut w = s.try_clone().map_err(|e| OpError::Io(e.to_string()))?;
            let mut r = BufReader::new(s);
            exchange(&mut w, &mut r, "{\"control\":\"ping\"}")
        });
    assert!(err.is_err(), "daemon should not answer after shutdown");
}

/// Concurrent clients repeating the same few requests compute each
/// ordering once: every other request is a cache hit or rides an in-flight
/// computation.
#[test]
fn concurrent_repeats_hit_the_cache_with_one_miss_per_template() {
    let mut handle = start_daemon(None);
    let lines: Vec<String> = ["rcm", "dbg", "degree"]
        .iter()
        .map(|s| {
            format!(
                "{{\"op\":\"reorder\",\"source\":{{\"corpus\":\"euroroad\"}},\"scheme\":\"{s}\"}}"
            )
        })
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let mut client = Client::connect(&handle);
                for i in 0..20 {
                    let reply = client.send(&lines[i % lines.len()]);
                    assert!(reply.contains("\"status\":\"ok\""), "{reply}");
                }
            });
        }
    });
    let stats = Client::connect(&handle).send("{\"control\":\"stats\"}");
    let v = reorderlab_trace::Json::parse(&stats).unwrap();
    let counter = |key: &str| v.get(key).and_then(reorderlab_trace::Json::as_f64).unwrap();
    assert!(counter("cache_misses") <= 3.0, "at most one miss per template: {stats}");
    assert!(counter("cache_hits") + counter("coalesced") >= 57.0, "{stats}");
    handle.stop();
}

/// Sends raw `bytes` on a fresh connection and returns everything the
/// daemon writes before it closes its side. A daemon that neither answers
/// nor closes trips the read timeout instead of hanging the test.
fn raw_exchange(handle: &ServerHandle, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    stream.write_all(bytes).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("the daemon replies and closes");
    reply
}

#[test]
fn hostile_request_lines_get_one_typed_reply_and_a_close() {
    let mut handle = start_daemon(None);
    // Twice the daemon's 64 KiB request-line cap, and never a newline.
    let reply = raw_exchange(&handle, &vec![b'x'; 2 * 64 * 1024]);
    assert_eq!(reply.lines().count(), 1, "{reply}");
    let Response::Err(OpError::Usage(message)) = Response::parse(&reply).unwrap() else {
        panic!("expected a typed usage error: {reply}");
    };
    assert!(message.contains("exceeds 65536 bytes"), "{message}");

    // A line that is not UTF-8 is answered too, not silently dropped.
    let reply = raw_exchange(&handle, b"{\"op\":\"\xff\xfe\"}\n{\"control\":\"ping\"}\n");
    assert_eq!(reply.lines().count(), 1, "{reply}");
    assert!(reply.contains("\"status\":\"parse\""), "{reply}");

    // Neither connection wedged the daemon: the next one is served.
    let mut client = Client::connect(&handle);
    assert!(client.send("{\"control\":\"ping\"}").contains("\"pong\":true"));
    let stats = client.send("{\"control\":\"stats\"}");
    assert!(stats.contains("\"errors\":2"), "{stats}");
    handle.stop();
}

/// A Gorder window far past the graph's size is served like `window = n`.
/// Sizing the window by the spec instead asks for terabytes, and a failed
/// allocation aborts the whole daemon rather than failing one request.
#[test]
fn a_huge_gorder_window_is_answered_and_the_daemon_stays_up() {
    let mut handle = start_daemon(None);
    let mut client = Client::connect(&handle);
    let reply = client.send(
        "{\"op\":\"reorder\",\"source\":{\"corpus\":\"euroroad\"},\
         \"scheme\":\"gorder:window=1000000000000\"}",
    );
    assert!(reply.contains("\"status\":\"ok\""), "{reply}");
    assert!(Client::connect(&handle).send("{\"control\":\"ping\"}").contains("\"pong\":true"));
    handle.stop();
}

/// A client that asks for large replies and never reads them stalls its own
/// connection and nothing else. Its replies fill the socket buffers and the
/// daemon's write to it blocks; every lock is released by then, since a
/// guard lives only inside a `with_lock` closure, so other clients'
/// requests on the same daemon all finish within a fixed deadline.
#[test]
fn a_client_that_never_reads_stalls_no_other_client() {
    const DEADLINE: Duration = Duration::from_secs(20);
    // ~64 KB of permutation text per reply: far more than loopback
    // buffers hold, and few enough request bytes to send without reading.
    const PIPELINED: u64 = 640;
    let mut corpus = Corpus::new();
    corpus.insert("euroroad", reorderlab_datasets::by_name("euroroad").unwrap().generate());
    corpus.insert("social", reorderlab_datasets::by_name("pgp").unwrap().generate());
    let mut handle = serve(Arc::new(corpus), ServerConfig::default()).unwrap();
    let perm = "{\"op\":\"reorder\",\"source\":{\"corpus\":\"social\"},\"scheme\":\"rcm\",\
                \"return_perm\":true}";

    // Declared after `handle`, so it is dropped first even on a failed
    // assertion: closing it unblocks the daemon's write before `stop`.
    let mut silent = TcpStream::connect(handle.addr()).unwrap();
    silent.write_all(format!("{perm}\n").repeat(PIPELINED as usize).as_bytes()).unwrap();
    // Another client too: it watches the silent one's replies stop.
    let mut observer = Client::connect(&handle);
    observer.writer.set_read_timeout(Some(DEADLINE)).unwrap();
    let mut ok_count = || {
        let reply = exchange(&mut observer.writer, &mut observer.reader, "{\"control\":\"stats\"}")
            .unwrap_or_else(|e| panic!("stats: no reply within {DEADLINE:?}: {e}"));
        Json::parse(&reply).unwrap().get("ok").and_then(Json::as_f64).unwrap() as u64
    };
    let stalled_at = Instant::now();
    let mut served = ok_count();
    loop {
        std::thread::sleep(Duration::from_millis(300));
        let now = ok_count();
        if now == served && now > 0 {
            break;
        }
        served = now;
        assert!(stalled_at.elapsed() < Duration::from_secs(120), "the silent client never stalled");
    }
    assert!(served < PIPELINED, "every reply fit in the socket buffers; nothing blocked");

    let start = Instant::now();
    let requests = [
        perm,
        "{\"op\":\"stats\",\"source\":{\"corpus\":\"euroroad\"}}",
        "{\"op\":\"measure\",\"source\":{\"corpus\":\"euroroad\"},\"schemes\":[\"rcm\"]}",
        "{\"op\":\"reorder\",\"source\":{\"corpus\":\"social\"},\"scheme\":\"dbg\"}",
    ];
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let mut client = Client::connect(&handle);
                client.writer.set_read_timeout(Some(DEADLINE)).unwrap();
                for line in requests {
                    let reply = exchange(&mut client.writer, &mut client.reader, line)
                        .unwrap_or_else(|e| panic!("{line}: no reply within {DEADLINE:?}: {e}"));
                    assert!(reply.contains("\"status\":\"ok\""), "{reply}");
                }
            });
        }
    });
    assert!(start.elapsed() < DEADLINE, "other clients took {:?}", start.elapsed());
    drop(silent);
    handle.stop();
}

/// A `reorderlab-serve run` process on a corpus of `euroroad` written by
/// `reorderlab-serve prepare`. Dropping it kills the daemon and removes
/// the corpus, so that a failed assertion never leaves a daemon running.
struct DaemonProcess {
    child: Child,
    /// Kept open while the daemon runs: it prints a second banner line, and
    /// a write to a closed pipe would end it for a reason of our own.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    corpus: PathBuf,
}

impl DaemonProcess {
    fn start(name: &str) -> DaemonProcess {
        let corpus = std::env::temp_dir().join(format!("{name}_{}", std::process::id()));
        let bin = env!("CARGO_BIN_EXE_reorderlab-serve");
        let prepare = ["prepare", "--instances", "euroroad", "--dir"];
        let prepared = Command::new(bin).args(prepare).arg(&corpus).output().unwrap();
        assert!(prepared.status.success(), "{}", String::from_utf8_lossy(&prepared.stderr));
        let mut child = Command::new(bin)
            .args(["run", "--corpus"])
            .arg(&corpus)
            .stdout(Stdio::piped())
            .spawn()
            .expect("the daemon binary starts");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut banner = String::new();
        stdout.read_line(&mut banner).unwrap();
        let addr = banner.trim().strip_prefix("listening on ").expect("a listening line").into();
        DaemonProcess { child, _stdout: stdout, addr, corpus }
    }

    /// `reorderlab-serve request --addr ADDR` with `args`.
    fn request(&self, args: &[&str]) -> Output {
        let bin = env!("CARGO_BIN_EXE_reorderlab-serve");
        Command::new(bin).args(["request", "--addr", &self.addr]).args(args).output().unwrap()
    }
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.corpus);
    }
}

/// What `reorderlab-serve request --render` prints is what `reorderlab`
/// prints (`crates/cli/tests/cli.rs`): the `render_text` of a local
/// `execute` at the same width. Each request goes twice, so that the
/// memoized reply is checked too. A `return_perm` reply carries
/// `Permutation::write_text` both times, and a malformed request exits 2.
#[test]
fn the_binaries_render_what_a_local_execute_renders() {
    let daemon = DaemonProcess::start("serve_render");
    // The daemon reads the named source; the local run, the instance.
    type Case = (fn(GraphSource) -> OpRequest, GraphSource, Option<usize>);
    let cases: [Case; 4] = [
        (|source| OpRequest::Stats { source }, instance("euroroad"), None),
        (|source| OpRequest::Stats { source }, corpus("euroroad"), None),
        (
            |source| OpRequest::Measure { source, schemes: vec!["rcm".into(), "dbg".into()] },
            instance("euroroad"),
            Some(2),
        ),
        (|source| memsim(source, None, "pagerank"), corpus("euroroad"), None),
    ];
    for (request, source, threads) in cases {
        let local = request(instance("euroroad"));
        let local = run_with_threads(threads, || execute(&local, &FsResolver)).unwrap();
        let text = match &local.report {
            OpReport::Stats(s) => s.render_text(),
            OpReport::Measure(m) => m.render_text(),
            OpReport::Memsim(m) => m.render_text(),
            other => panic!("no rendering for {other:?}"),
        };
        let line = RequestEnvelope { request: request(source), threads }.to_json().to_line();
        for _ in 0..2 {
            let out = daemon.request(&["--render", "--json", &line]);
            assert!(out.status.success(), "{line}: {}", String::from_utf8_lossy(&out.stderr));
            assert_eq!(String::from_utf8_lossy(&out.stdout), format!("{text}\n"), "{line}");
        }
    }

    let rcm = |source, return_perm| OpRequest::Reorder {
        source,
        scheme: Some("rcm".into()),
        apply_perm: None,
        return_perm,
    };
    let local = execute(&rcm(instance("euroroad"), false), &FsResolver).unwrap();
    let mut expected = Vec::new();
    local.permutation.expect("a computed permutation").write_text(&mut expected).unwrap();
    let request = RequestEnvelope { request: rcm(corpus("euroroad"), true), threads: None };
    for _ in 0..2 {
        let reply = daemon.request(&["--json", &request.to_json().to_line()]).stdout;
        let Ok(Response::Ok(report)) = Response::parse(&String::from_utf8_lossy(&reply)) else {
            panic!("expected a report");
        };
        let OpReport::Reorder(r) = *report else { panic!("expected a reorder report") };
        assert_eq!(r.permutation.map(String::into_bytes).as_ref(), Some(&expected));
    }

    let out = daemon.request(&["--render", "--json", "{\"op\":\"frobnicate\"}"]);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
}

/// One line of 10,000 `[` is under the request-line cap. The parser must
/// refuse it by depth: recursing once per level overflows a connection
/// thread's stack, and a stack overflow aborts the whole process, which is
/// why this test runs the daemon binary rather than an in-process server.
#[test]
fn a_deeply_nested_request_line_is_refused_and_the_daemon_stays_up() {
    let mut daemon = DaemonProcess::start("serve_deep");

    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(format!("{}\n", "[".repeat(10_000)).as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).expect("the daemon replies");
    let Response::Err(OpError::Parse(message)) = Response::parse(&reply).unwrap() else {
        panic!("expected a typed parse error: {reply}");
    };
    assert!(message.contains("nesting deeper than"), "{message}");

    let mut second = TcpStream::connect(&daemon.addr).expect("the daemon still accepts");
    second.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(second.try_clone().unwrap());
    let pong = exchange(&mut second, &mut reader, "{\"control\":\"ping\"}").unwrap();
    assert!(pong.contains("\"pong\":true"), "{pong}");
    assert!(daemon.child.try_wait().unwrap().is_none(), "the daemon process is alive");
}
