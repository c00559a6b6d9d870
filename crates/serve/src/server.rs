//! The sharded execution engine and its TCP front door.
//!
//! Requests are routed by FNV hash of their canonical wire form onto one
//! of `shards` single-worker queues, so identical requests serialize onto
//! the same worker and the permutation cache sees them back-to-back. Each
//! queue is bounded: when it is full the request is *shed* with a typed
//! overload response instead of queueing without limit. Identical
//! requests already in flight are *coalesced* — late arrivals wait on the
//! first computation's cell instead of enqueuing a duplicate job.

use crate::cache::{CachingPerms, PermCache};
use crate::corpus::{Corpus, CorpusResolver};
use crate::proto::{error_response, ok_response, parse_control, shed_response, Control};
use crate::with_lock;
use reorderlab_core::Scheme;
use reorderlab_graph::fnv1a;
use reorderlab_ops::{
    execute_with, run_with_threads, OpError, OpOutcome, OpReport, OpRequest, RequestEnvelope,
};
use reorderlab_trace::{Json, Manifest};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Number of worker shards (each runs one worker thread).
    pub shards: usize,
    /// Bounded queue depth per shard; a full queue sheds.
    pub queue_cap: usize,
    /// Permutation-cache capacity (entries).
    pub cache_cap: usize,
    /// Append one audit manifest per executed request to this JSONL file.
    pub audit_path: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards: 4,
            queue_cap: 32,
            cache_cap: 64,
            audit_path: None,
        }
    }
}

/// Monotonic request counters, exposed via `{"control":"stats"}`.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Lines received (operations + control verbs).
    pub requests: AtomicU64,
    /// Operations that returned `status:"ok"`.
    pub ok: AtomicU64,
    /// Operations that returned a taxonomy error.
    pub errors: AtomicU64,
    /// Requests shed because a shard queue was full.
    pub shed: AtomicU64,
    /// Requests that attached to an identical in-flight computation.
    pub coalesced: AtomicU64,
    /// Measures and graph statistics read from a filled fact cell: no
    /// graph pass ran (`FactTally::reused`, summed over `ok` operations).
    pub fact_hits: AtomicU64,
    /// Measures and graph statistics that had to be computed.
    pub fact_misses: AtomicU64,
}

/// A rendered response as it goes on the wire and to every coalesced
/// waiter: newline-terminated, so a connection sends it with one write, and
/// shared, so a 0.8 MB `return_perm` reply is not copied per waiter.
fn frame(mut line: String) -> Arc<str> {
    line.push('\n');
    line.into()
}

/// One in-flight computation: waiters block on the condvar until the
/// worker (or the shed path) publishes the response line.
#[derive(Debug, Default)]
struct JobCell {
    slot: Mutex<Option<Arc<str>>>,
    ready: Condvar,
}

impl JobCell {
    fn publish(&self, response: String) {
        let line = frame(response);
        with_lock(&self.slot, |slot| *slot = Some(line));
        self.ready.notify_all();
    }

    fn wait(&self) -> Arc<str> {
        #[expect(
            clippy::disallowed_methods,
            reason = "`Condvar::wait` takes the guard by value, which a `with_lock` closure cannot \
                      give it; waiting for the publish is the one thing this guard spans"
        )]
        let mut guard = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(resp) = guard.as_ref() {
                return Arc::clone(resp);
            }
            guard = self.ready.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Job {
    envelope: RequestEnvelope,
    key: String,
    cell: Arc<JobCell>,
}

struct Shared {
    corpus: Arc<Corpus>,
    cache: Arc<PermCache>,
    stats: ServeStats,
    pending: Mutex<BTreeMap<String, Arc<JobCell>>>,
    audit: Option<AuditLog>,
}

struct AuditLog {
    path: String,
    guard: Mutex<()>,
}

/// What `enqueue_line` produced.
enum Enqueued {
    /// The response is already known (control verb, parse error, shed).
    Ready(String),
    /// The request is queued (or coalesced); wait on this cell.
    Wait(Arc<JobCell>),
    /// A shutdown verb: the response to send before stopping.
    Shutdown(String),
}

/// The engine's answer to one request line. Either way it is a whole wire
/// line, terminating newline included.
pub enum SubmitResult {
    /// A response line to write back.
    Response(Arc<str>),
    /// A shutdown acknowledgment; the server should stop after sending it.
    Shutdown(Arc<str>),
}

/// The sharded, caching, coalescing executor behind the TCP listener.
pub struct Engine {
    shared: Arc<Shared>,
    senders: Mutex<Vec<SyncSender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    // Receivers of worker-less test engines, kept alive so queues fill
    // (and shed) instead of reporting disconnection.
    #[cfg(test)]
    _parked: Mutex<Vec<Receiver<Job>>>,
}

impl Engine {
    /// Builds the engine and starts its worker threads.
    pub fn new(corpus: Arc<Corpus>, config: &ServerConfig) -> Engine {
        Engine::build(corpus, config, true)
    }

    /// Builds the engine without workers, for deterministic queue tests.
    #[cfg(test)]
    fn new_unstarted(corpus: Arc<Corpus>, config: &ServerConfig) -> Engine {
        Engine::build(corpus, config, false)
    }

    fn build(corpus: Arc<Corpus>, config: &ServerConfig, start_workers: bool) -> Engine {
        let shared = Arc::new(Shared {
            corpus,
            cache: Arc::new(PermCache::new(config.cache_cap)),
            stats: ServeStats::default(),
            pending: Mutex::new(BTreeMap::new()),
            audit: config.audit_path.clone().map(|path| AuditLog { path, guard: Mutex::new(()) }),
        });
        let shards = config.shards.max(1);
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        let mut parked: Vec<Receiver<Job>> = Vec::new();
        for shard in 0..shards {
            let (tx, rx) = sync_channel::<Job>(config.queue_cap.max(1));
            senders.push(tx);
            if start_workers {
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("serve-worker-{shard}"))
                    .spawn(move || worker_loop(&shared, &rx));
                match handle {
                    Ok(h) => workers.push(h),
                    Err(e) => eprintln!("serve: cannot spawn worker {shard}: {e}"),
                }
            } else {
                parked.push(rx);
            }
        }
        #[cfg(not(test))]
        drop(parked);
        Engine {
            shared,
            senders: Mutex::new(senders),
            workers: Mutex::new(workers),
            #[cfg(test)]
            _parked: Mutex::new(parked),
        }
    }

    /// Request counters.
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Handles one request line to completion (blocking until a worker
    /// finishes it, if it queues).
    pub fn submit_line(&self, line: &str) -> SubmitResult {
        match self.enqueue_line(line) {
            Enqueued::Ready(resp) => SubmitResult::Response(frame(resp)),
            Enqueued::Wait(cell) => SubmitResult::Response(cell.wait()),
            Enqueued::Shutdown(resp) => SubmitResult::Shutdown(frame(resp)),
        }
    }

    fn enqueue_line(&self, line: &str) -> Enqueued {
        let stats = &self.shared.stats;
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let v = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                return Enqueued::Ready(error_response(&OpError::Parse(format!(
                    "invalid request: {e}"
                ))));
            }
        };
        if let Some(control) = parse_control(&v) {
            return match control {
                Err(e) => {
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    Enqueued::Ready(error_response(&e))
                }
                Ok(Control::Ping) => Enqueued::Ready(
                    Json::Obj(vec![
                        ("status".into(), Json::Str("ok".into())),
                        ("pong".into(), Json::Bool(true)),
                    ])
                    .to_line(),
                ),
                Ok(Control::Stats) => Enqueued::Ready(self.stats_snapshot().to_line()),
                Ok(Control::Shutdown) => Enqueued::Shutdown(
                    Json::Obj(vec![
                        ("status".into(), Json::Str("ok".into())),
                        ("shutdown".into(), Json::Bool(true)),
                    ])
                    .to_line(),
                ),
            };
        }
        let envelope = match RequestEnvelope::from_json(&v) {
            Ok(env) => env,
            Err(e) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                return Enqueued::Ready(error_response(&e));
            }
        };
        if let Err(e) = reject_filesystem_request(&envelope.request) {
            stats.errors.fetch_add(1, Ordering::Relaxed);
            return Enqueued::Ready(error_response(&e));
        }
        // The canonical wire form is the coalescing/shard key: two
        // requests that decode equal serialize equal.
        let key = envelope.to_json().to_line();
        let (cell, needs_enqueue) = with_lock(&self.shared.pending, |pending| {
            if let Some(cell) = pending.get(&key) {
                stats.coalesced.fetch_add(1, Ordering::Relaxed);
                (Arc::clone(cell), false)
            } else {
                let cell = Arc::new(JobCell::default());
                pending.insert(key.clone(), Arc::clone(&cell));
                (cell, true)
            }
        });
        if !needs_enqueue {
            return Enqueued::Wait(cell);
        }
        let hash = fnv1a(key.as_bytes());
        let job = Job { envelope, key: key.clone(), cell: Arc::clone(&cell) };
        let shutting_down = || error_response(&OpError::Io("server is shutting down".into()));
        let refusal = with_lock(&self.senders, |senders| {
            if senders.is_empty() {
                return Some(shutting_down());
            }
            let shard = usize::try_from(hash % senders.len() as u64).unwrap_or(0);
            match senders[shard].try_send(job) {
                Ok(()) => None,
                Err(TrySendError::Full(_)) => {
                    stats.shed.fetch_add(1, Ordering::Relaxed);
                    Some(shed_response())
                }
                Err(TrySendError::Disconnected(_)) => Some(shutting_down()),
            }
        });
        // A refused job is answered through its cell, so any coalesced
        // waiters that raced in are released too.
        if let Some(response) = refusal {
            with_lock(&self.shared.pending, |pending| pending.remove(&key));
            cell.publish(response);
        }
        Enqueued::Wait(cell)
    }

    fn stats_snapshot(&self) -> Json {
        let s = &self.shared.stats;
        let c = &self.shared.cache;
        let n = |x: u64| Json::Num(x as f64);
        Json::Obj(vec![
            ("status".into(), Json::Str("ok".into())),
            ("requests".into(), n(s.requests.load(Ordering::Relaxed))),
            ("ok".into(), n(s.ok.load(Ordering::Relaxed))),
            ("errors".into(), n(s.errors.load(Ordering::Relaxed))),
            ("shed".into(), n(s.shed.load(Ordering::Relaxed))),
            ("coalesced".into(), n(s.coalesced.load(Ordering::Relaxed))),
            ("cache_hits".into(), n(c.hits())),
            ("cache_misses".into(), n(c.misses())),
            ("cache_evictions".into(), n(c.evictions())),
            ("cache_len".into(), n(c.len() as u64)),
            ("fact_hits".into(), n(s.fact_hits.load(Ordering::Relaxed))),
            ("fact_misses".into(), n(s.fact_misses.load(Ordering::Relaxed))),
        ])
    }

    /// Stops the workers: closes every shard queue and joins the worker
    /// threads (queued jobs finish first).
    pub(crate) fn shutdown_workers(&self) {
        with_lock(&self.senders, Vec::clear);
        for h in with_lock(&self.workers, std::mem::take) {
            let _ = h.join();
        }
    }
}

/// The daemon's file-access policy, applied before a request can queue:
/// `validate` and `reorder`'s `apply_perm` name caller-chosen server-side
/// paths, so a network client could probe or read arbitrary files through
/// them. They are filesystem-frontend (CLI) operations only — the daemon
/// refuses them outright, the same way [`CorpusResolver`] refuses
/// `GraphSource::Path`.
fn reject_filesystem_request(request: &OpRequest) -> Result<(), OpError> {
    match request {
        OpRequest::Validate { .. } => Err(OpError::Usage(
            "the daemon does not read client files; run `reorderlab validate` locally".into(),
        )),
        OpRequest::Reorder { apply_perm: Some(_), .. } => Err(OpError::Usage(
            "the daemon does not read client files; \"apply_perm\" is CLI-only, use \"scheme\""
                .into(),
        )),
        _ => Ok(()),
    }
}

fn worker_loop(shared: &Shared, rx: &Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        // A panicking handler must not strand the job: catch the unwind,
        // publish a typed internal error in its place, and keep this
        // worker (and the pending-map cleanup below) alive. The shared
        // state stays usable — every lock here recovers from poisoning.
        let (response, audit) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(shared, &job.envelope)
        }))
        .unwrap_or_else(|_| {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            let e = OpError::Io("internal error: request handler panicked".into());
            (error_response(&e), None)
        });
        // Remove from pending BEFORE publishing: a request arriving after
        // removal starts a fresh computation; one arriving before it
        // attaches to this cell and is released by the publish below.
        with_lock(&shared.pending, |pending| pending.remove(&job.key));
        job.cell.publish(response);
        // The reply is out; the audit append is off the client's clock.
        if let Some((log, manifest)) = audit {
            append_audit(log, &manifest);
        }
    }
}

/// Executes one request. Returns the response line and, when the daemon
/// audits, the log and the manifest to append to it once the reply is
/// published.
fn run_job<'a>(
    shared: &'a Shared,
    envelope: &RequestEnvelope,
) -> (String, Option<(&'a AuditLog, Manifest)>) {
    let t0 = std::time::Instant::now();
    let resolver = CorpusResolver::new(Arc::clone(&shared.corpus));
    let mut perms = CachingPerms::new(shared.cache.clone());
    let result = run_with_threads(envelope.threads, || {
        execute_with(&envelope.request, &resolver, &mut perms)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    // Per-request hit observation, not a diff of the global counters —
    // concurrent workers on other shards would race that.
    let cache_hit = perms.request_hits() > 0;
    let (line, status) = match &result {
        Ok(out) => {
            shared.stats.ok.fetch_add(1, Ordering::Relaxed);
            shared.stats.fact_hits.fetch_add(out.facts.reused, Ordering::Relaxed);
            shared.stats.fact_misses.fetch_add(out.facts.computed, Ordering::Relaxed);
            (ok_response(&out.report), "ok")
        }
        Err(e) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            (error_response(e), e.status())
        }
    };
    let audit = shared.audit.as_ref().map(|log| {
        (log, audit_manifest(envelope, status, wall_s, cache_hit, result.as_ref().ok()))
    });
    (line, audit)
}

/// The audit manifest of one executed request: the daemon's tamper-evident
/// trail of what ran, for whom, how long it took, and whether the time went
/// into an ordering (`cache`) or a graph pass (`facts`).
fn audit_manifest(
    envelope: &RequestEnvelope,
    status: &str,
    wall_s: f64,
    cache_hit: bool,
    outcome: Option<&OpOutcome>,
) -> Manifest {
    let (graph_id, vertices, edges) = match outcome.map(|o| (&o.report, o.graph.as_deref())) {
        Some((OpReport::Stats(s), _)) => (s.graph.clone(), s.vertices, s.edges),
        Some((OpReport::Reorder(r), _)) => (r.graph.clone(), r.vertices, r.edges),
        Some((OpReport::Measure(m), _)) => (m.graph.clone(), m.vertices, m.edges),
        Some((OpReport::Compression(c), _)) => (c.graph.clone(), c.vertices, c.edges),
        // The memsim report carries no sizes; the outcome carries the graph.
        Some((OpReport::Memsim(m), Some(g))) => (m.graph.clone(), g.num_vertices(), g.num_edges()),
        _ => (request_graph_id(&envelope.request), 0, 0),
    };
    let mut m = Manifest::new("serve", &graph_id, vertices, edges)
        .with_seed(audit_seed(&envelope.request))
        .with_threads(envelope.threads.unwrap_or_else(rayon::current_num_threads));
    m.push_note("op", envelope.request.op_name());
    m.push_note("status", status);
    m.push_note("cache", if cache_hit { "hit" } else { "miss" });
    // Absent when the request read no fact: a failed one, or a memsim in a
    // scheme's layout. A natural-layout replay is a fact like any measure:
    // a pure function of the graph bytes and the workload, bit-identical at
    // any width.
    match outcome.map(|o| o.facts) {
        Some(facts) if facts.computed > 0 => m.push_note("facts", "computed"),
        Some(facts) if facts.reused > 0 => m.push_note("facts", "reused"),
        _ => {}
    }
    m.push_measure("wall_s", wall_s);
    m
}

/// The one closure that blocks under a lock: the audit log is a shared
/// JSONL file and interleaved writes would corrupt it, so the lock exists
/// to serialize exactly this append (see `with_lock`).
fn append_audit(audit: &AuditLog, m: &Manifest) {
    with_lock(&audit.guard, |()| {
        if let Err(e) = m.append_jsonl(&audit.path) {
            eprintln!("serve: cannot append audit manifest to {}: {e}", audit.path);
        }
    });
}

/// The seed the audit manifest records: the request scheme's own seed
/// parameter where it has one, otherwise the frontend-wide default of 42
/// — the same rule `exec_reorder` applies to its own manifest.
fn audit_seed(request: &OpRequest) -> u64 {
    let spec = match request {
        OpRequest::Reorder { scheme, .. } | OpRequest::Memsim { scheme, .. } => scheme.as_deref(),
        _ => None,
    };
    spec.and_then(|s| Scheme::parse(s).ok()).map_or(42, |s| s.manifest_seed())
}

fn request_graph_id(request: &OpRequest) -> String {
    match request {
        OpRequest::Stats { source }
        | OpRequest::Reorder { source, .. }
        | OpRequest::Measure { source, .. }
        | OpRequest::Compression { source, .. }
        | OpRequest::Memsim { source, .. } => source.id().to_string(),
        OpRequest::Validate { files } => {
            files.first().cloned().unwrap_or_else(|| "validate".into())
        }
    }
}

/// A running daemon: the bound address plus shutdown plumbing.
pub struct ServerHandle {
    addr: SocketAddr,
    engine: Arc<Engine>,
    stopping: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the daemon is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine, for in-process counter inspection.
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.engine)
    }

    /// Stops accepting, drains the workers, and joins every thread.
    pub fn stop(&mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.engine.shutdown_workers();
    }

    /// Blocks until a shutdown verb arrives over the wire, then drains.
    pub fn wait(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.engine.shutdown_workers();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds the daemon and starts serving.
///
/// # Errors
///
/// [`OpError::Io`] when the address cannot be bound.
pub fn serve(corpus: Arc<Corpus>, config: ServerConfig) -> Result<ServerHandle, OpError> {
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| OpError::Io(format!("cannot bind {}: {e}", config.addr)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| OpError::Io(format!("cannot read bound address: {e}")))?;
    let engine = Arc::new(Engine::new(corpus, &config));
    let stopping = Arc::new(AtomicBool::new(false));
    let accept = {
        let engine = Arc::clone(&engine);
        let stopping = Arc::clone(&stopping);
        std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(&listener, &engine, &stopping))
            .map_err(|e| OpError::Io(format!("cannot spawn accept thread: {e}")))?
    };
    Ok(ServerHandle { addr, engine, stopping, accept: Some(accept) })
}

fn accept_loop(listener: &TcpListener, engine: &Arc<Engine>, stopping: &Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let engine = Arc::clone(engine);
        let stopping = Arc::clone(stopping);
        let spawned = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || handle_connection(stream, &engine, &stopping));
        if let Err(e) = spawned {
            eprintln!("serve: cannot spawn connection thread: {e}");
        }
    }
}

/// Longest request line, newline included, a connection may send. Real
/// requests are a few hundred bytes; the cap is what one connection can
/// make the daemon buffer, so it is a constant, not a tuning knob.
const MAX_REQUEST_LINE_BYTES: usize = 64 * 1024;

fn handle_connection(stream: TcpStream, engine: &Engine, stopping: &AtomicBool) {
    // Line-oriented request/response traffic: disable Nagle so each
    // response line leaves immediately instead of waiting on an ACK.
    let _ = stream.set_nodelay(true);
    let Ok(reading) = stream.try_clone() else { return };
    let mut writer = stream;
    let peer = writer.peer_addr().ok();
    let local = writer.local_addr().ok();
    let mut reader = BufReader::new(reading);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        // `take` bounds the read: a peer that never sends `\n` costs one
        // cap's worth of buffer, not an ever-growing line.
        let mut bounded = (&mut reader).take(MAX_REQUEST_LINE_BYTES as u64);
        let Ok(n) = bounded.read_until(b'\n', &mut buf) else { break };
        if n == 0 {
            break;
        }
        let line = if n == MAX_REQUEST_LINE_BYTES && buf.last() != Some(&b'\n') {
            Err(OpError::Usage(format!(
                "request line exceeds {MAX_REQUEST_LINE_BYTES} bytes; the connection is closed"
            )))
        } else {
            std::str::from_utf8(&buf).map_err(|_| {
                OpError::Parse("request line is not valid UTF-8; the connection is closed".into())
            })
        };
        let line = match line {
            Ok(line) => line.trim(),
            Err(e) => {
                // The peer is not speaking the protocol (and past the cap
                // the framing is lost): answer once and close. Closing the
                // write half first and discarding what is still in flight
                // lets the peer read the reply instead of a reset.
                engine.stats().requests.fetch_add(1, Ordering::Relaxed);
                engine.stats().errors.fetch_add(1, Ordering::Relaxed);
                let _ = writer.write_all(frame(error_response(&e)).as_bytes());
                let _ = writer.shutdown(Shutdown::Write);
                let _ = std::io::copy(&mut reader, &mut std::io::sink());
                break;
            }
        };
        if line.is_empty() {
            continue;
        }
        match engine.submit_line(line) {
            // One write per reply: line and newline leave in one segment
            // under `TCP_NODELAY`, not two.
            SubmitResult::Response(resp) => {
                if writer.write_all(resp.as_bytes()).is_err() {
                    break;
                }
            }
            SubmitResult::Shutdown(resp) => {
                let _ = writer.write_all(resp.as_bytes());
                stopping.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it observes the flag.
                if let Some(addr) = local {
                    let _ = TcpStream::connect(addr);
                }
                break;
            }
        }
    }
    let _ = peer;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Arc<Corpus> {
        let mut c = Corpus::new();
        c.insert("tiny", reorderlab_datasets::by_name("euroroad").unwrap().generate());
        Arc::new(c)
    }

    fn response_of(engine: &Engine, line: &str) -> Arc<str> {
        match engine.submit_line(line) {
            SubmitResult::Response(r) => r,
            SubmitResult::Shutdown(r) => r,
        }
    }

    #[test]
    fn executes_and_counts_requests() {
        let engine = Engine::new(corpus(), &ServerConfig::default());
        let resp = response_of(&engine, "{\"op\":\"stats\",\"source\":{\"corpus\":\"tiny\"}}");
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");
        assert!(resp.contains("\"report\":"), "{resp}");
        assert_eq!(engine.stats().ok.load(Ordering::Relaxed), 1);
        engine.shutdown_workers();
    }

    #[test]
    fn repeat_reorders_hit_the_cache() {
        let engine = Engine::new(corpus(), &ServerConfig::default());
        let line = "{\"op\":\"reorder\",\"source\":{\"corpus\":\"tiny\"},\"scheme\":\"rcm\"}";
        let first = response_of(&engine, line);
        let second = response_of(&engine, line);
        assert!(first.contains("\"cache_hit\":false"), "{first}");
        assert!(second.contains("\"cache_hit\":true"), "{second}");
        assert_eq!(engine.shared.cache.hits(), 1);
        engine.shutdown_workers();
    }

    #[test]
    fn default_suite_measure_warms_the_cache_for_explicit_specs() {
        let engine = Engine::new(corpus(), &ServerConfig::default());
        let measure = response_of(&engine, "{\"op\":\"measure\",\"source\":{\"corpus\":\"tiny\"}}");
        assert!(measure.contains("\"status\":\"ok\""), "{measure}");
        let reorder = response_of(
            &engine,
            "{\"op\":\"reorder\",\"source\":{\"corpus\":\"tiny\"},\"scheme\":\"grappolo\"}",
        );
        assert!(reorder.contains("\"cache_hit\":true"), "{reorder}");
        engine.shutdown_workers();
    }

    #[test]
    fn malformed_and_unknown_requests_are_typed() {
        let engine = Engine::new(corpus(), &ServerConfig::default());
        let garbage = response_of(&engine, "this is not json");
        assert!(garbage.contains("\"status\":\"parse\""), "{garbage}");
        let unknown = response_of(&engine, "{\"op\":\"frob\"}");
        assert!(unknown.contains("\"status\":\"usage\""), "{unknown}");
        let bad_scheme = response_of(
            &engine,
            "{\"op\":\"reorder\",\"source\":{\"corpus\":\"tiny\"},\"scheme\":\"bogus\"}",
        );
        assert!(bad_scheme.contains("\"status\":\"scheme\""), "{bad_scheme}");
        assert_eq!(engine.stats().errors.load(Ordering::Relaxed), 3);
        engine.shutdown_workers();
    }

    #[test]
    fn filesystem_reading_requests_are_refused() {
        let engine = Engine::new(corpus(), &ServerConfig::default());
        // `validate` reads caller-named server-side paths: refused before
        // it can reach the filesystem (no errno/parse detail echoed).
        let validate = response_of(&engine, "{\"op\":\"validate\",\"files\":[\"/etc/passwd\"]}");
        assert!(validate.contains("\"status\":\"usage\""), "{validate}");
        assert!(validate.contains("does not read client files"), "{validate}");
        // Same for `apply_perm` on reorder, even with return_perm set —
        // the exfiltration path the contract forbids.
        let apply = response_of(
            &engine,
            "{\"op\":\"reorder\",\"source\":{\"corpus\":\"tiny\"},\
             \"apply_perm\":\"/etc/passwd\",\"return_perm\":true}",
        );
        assert!(apply.contains("\"status\":\"usage\""), "{apply}");
        assert!(apply.contains("does not read client files"), "{apply}");
        assert_eq!(engine.stats().errors.load(Ordering::Relaxed), 2);
        engine.shutdown_workers();
    }

    #[test]
    fn full_queue_sheds_deterministically() {
        let config = ServerConfig { shards: 1, queue_cap: 1, ..ServerConfig::default() };
        let engine = Engine::new_unstarted(corpus(), &config);
        // No workers: the first job occupies the queue slot forever…
        let first = engine.enqueue_line("{\"op\":\"stats\",\"source\":{\"corpus\":\"tiny\"}}");
        assert!(matches!(first, Enqueued::Wait(_)));
        // …and a different request finds the queue full and is shed.
        let second = engine.enqueue_line(
            "{\"op\":\"reorder\",\"source\":{\"corpus\":\"tiny\"},\"scheme\":\"rcm\"}",
        );
        let Enqueued::Wait(cell) = second else { panic!("expected queued/shed cell") };
        let resp = cell.wait();
        assert!(resp.contains("\"status\":\"shed\""), "{resp}");
        assert_eq!(engine.stats().shed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn identical_inflight_requests_coalesce() {
        let config = ServerConfig { shards: 1, queue_cap: 4, ..ServerConfig::default() };
        let engine = Engine::new_unstarted(corpus(), &config);
        let line = "{\"op\":\"stats\",\"source\":{\"corpus\":\"tiny\"}}";
        let Enqueued::Wait(a) = engine.enqueue_line(line) else { panic!("expected wait") };
        let Enqueued::Wait(b) = engine.enqueue_line(line) else { panic!("expected wait") };
        assert!(Arc::ptr_eq(&a, &b), "identical in-flight requests must share a cell");
        assert_eq!(engine.stats().coalesced.load(Ordering::Relaxed), 1);
        // Releasing the cell releases both waiters.
        a.publish("{\"status\":\"ok\"}".into());
        assert_eq!(&*b.wait(), "{\"status\":\"ok\"}\n");
        // One framed line, shared by every waiter rather than copied.
        assert!(Arc::ptr_eq(&a.wait(), &b.wait()));
    }

    #[test]
    fn control_verbs_answer_inline() {
        let engine = Engine::new(corpus(), &ServerConfig::default());
        assert!(response_of(&engine, "{\"control\":\"ping\"}").contains("\"pong\":true"));
        let stats = response_of(&engine, "{\"control\":\"stats\"}");
        assert!(stats.contains("\"cache_hits\":"), "{stats}");
        assert!(matches!(
            engine.submit_line("{\"control\":\"shutdown\"}"),
            SubmitResult::Shutdown(_)
        ));
        engine.shutdown_workers();
    }
}
