//! End-to-end daemon tests over real TCP: response identity with local
//! execution, cache behavior, typed errors, audit trail, and shutdown.

use reorderlab_graph::COMPRESSED_CSR_EXTENSION;
use reorderlab_ops::{execute, FsResolver, OpError, OpReport, OpRequest, RequestEnvelope};
use reorderlab_serve::{
    exchange, prepare_corpus, serve, Corpus, Response, ServerConfig, ServerHandle,
};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn start_daemon(audit: Option<String>) -> ServerHandle {
    let mut corpus = Corpus::new();
    for name in ["euroroad", "rovira"] {
        corpus.insert(name, reorderlab_datasets::by_name(name).unwrap().generate());
    }
    let config = ServerConfig { audit_path: audit, ..ServerConfig::default() };
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
}

/// The daemon's rendered report must be byte-identical to what the same
/// request produces locally through `execute`, for every thread bound.
#[test]
fn daemon_reports_match_local_execution_across_thread_bounds() {
    let mut handle = start_daemon(None);
    let mut client = Client::connect(&handle);
    let requests = [
        OpRequest::Stats { source: reorderlab_ops::GraphSource::Instance("euroroad".into()) },
        OpRequest::Reorder {
            source: reorderlab_ops::GraphSource::Instance("euroroad".into()),
            scheme: Some("rcm".into()),
            apply_perm: None,
            return_perm: false,
        },
        OpRequest::Measure {
            source: reorderlab_ops::GraphSource::Instance("euroroad".into()),
            schemes: vec!["natural".into(), "rcm".into(), "dbg".into()],
        },
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
            source: reorderlab_ops::GraphSource::Instance("euroroad".into()),
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
    handle.stop();
    let text = std::fs::read_to_string(&audit).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    for line in &lines {
        let m = reorderlab_trace::Manifest::parse(line).unwrap();
        assert_eq!(m.command, "serve");
    }
    assert!(lines[0].contains("\"status\":\"ok\""), "{}", lines[0]);
    assert!(lines[1].contains("\"cache\":\"miss\""), "{}", lines[1]);
    assert!(lines[2].contains("\"status\":\"usage\""), "{}", lines[2]);
    let _ = std::fs::remove_file(&audit);
}

#[test]
fn shutdown_verb_stops_the_daemon() {
    let mut handle = start_daemon(None);
    let mut client = Client::connect(&handle);
    let resp = client.send("{\"control\":\"shutdown\"}");
    assert!(resp.contains("\"shutdown\":true"), "{resp}");
    handle.wait();
    assert!(handle.is_stopping());
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
