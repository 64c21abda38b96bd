//! The TCP serving front end: accept loop, per-connection readers, and the
//! worker pool draining the bounded admission queue into the sharded
//! [`Corpus`].
//!
//! Threading model (all `std::thread`, no registry deps):
//!
//! * one **accept** thread owns the `TcpListener`, spawns a **reader**
//!   thread per connection, and registers the connection (a clone of its
//!   socket and the reader's handle) with the [`ServerHandle`]; a reader
//!   removes its own entry when its connection ends;
//! * each reader blocks in `read` and decodes frames incrementally
//!   ([`crate::net::frame`]),
//!   parses requests, and either answers directly (ping/stats/parse
//!   errors/SHED) or admits a job to the shared [`BoundedQueue`] — requests
//!   on one connection are **pipelined**: the reader keeps admitting while
//!   earlier answers are still executing, and responses carry the request
//!   id because they may complete out of order;
//! * a fixed pool of **worker** threads pops jobs, executes the query
//!   against every selected document (snapshot → plan-cache lookup tagged
//!   with the document identity → evaluate), and writes the answer back on
//!   the job's connection.
//!
//! Latency accounting: a job's `queue_ns` is the time from admission to the
//! moment a worker picks it up, `exec_ns` is the scatter–gather execution
//! time, and `total_ns` is **exactly** their sum — the server-side
//! nanoseconds are fully attributed to queueing or execution, an invariant
//! the load generator and CI verify on every response.
//!
//! The socket path adds no delay of its own: every accepted connection sets
//! `TCP_NODELAY`. On a pipelined connection an answer is often written
//! while an earlier one is still unacknowledged, and Nagle's algorithm
//! (RFC 896) would hold it until the client's next request carries the ACK
//! or the client's delayed-ACK timer (~40 ms) fires.
//!
//! Backpressure: admission is the only place requests can pile up, the
//! queue is bounded, and overflow is answered with an explicit
//! [`Response::Shed`] carrying the observed depth and capacity. Admitted
//! jobs are never abandoned. Shutdown runs in this order: stop the accept
//! thread; shut the read half of every live connection, which ends each
//! reader's blocking `read`, and join the readers; close the queue; let
//! the workers drain what was admitted and join them. Write halves stay
//! open throughout, so every admitted job is still answered.

use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use cqt_core::{AnswerSink, BatchScratch, ExecScratch};
use rustc_hash::FxHashMap;

use crate::batch::PreparedBatch;
use crate::durability::DurabilityStats;
use crate::net::frame::{write_frame, FrameBuffer, DEFAULT_MAX_FRAME_LEN};
use crate::net::protocol::{Request, Response, WireLang};
use crate::net::queue::{BoundedQueue, PushError};
use crate::plan::{PlanCache, PlanCacheStats, PlanKey, PlanOptions};
use crate::replication::replicate_stream;
use crate::runner::{serve_document, PruneCheck};
use crate::shard::{Corpus, FanOut};
use crate::stats::{doc_fp_key, PruneStats, ReplicationStats};
use crate::workload::QuerySpec;

/// Configuration of a [`NetServer`].
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Worker threads executing admitted queries.
    pub workers: usize,
    /// Admission-queue capacity; requests arriving while the queue holds
    /// this many jobs are shed.
    pub queue_capacity: usize,
    /// Cap on a frame's payload length (see [`crate::net::frame`]).
    pub max_frame_len: u32,
    /// Start with the worker pool paused (admission still runs). Used by
    /// the deterministic overload tests: a paused server fills its queue,
    /// sheds the overflow, and executes the admitted jobs only after
    /// [`ServerHandle::resume`].
    pub start_paused: bool,
    /// Plan-compilation options.
    pub plan: PlanOptions,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            workers: 2,
            queue_capacity: 64,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            start_paused: false,
            plan: PlanOptions::default(),
        }
    }
}

/// A snapshot of the server's cumulative counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries admitted to the queue.
    pub admitted: u64,
    /// Admitted queries fully executed and answered.
    pub executed: u64,
    /// Queries shed at admission.
    pub shed: u64,
    /// Malformed requests answered with an error.
    pub errors: u64,
    /// Queue depth at the time of the snapshot.
    pub queue_depth: usize,
    /// Configured queue capacity.
    pub capacity: usize,
    /// Plan-cache counters at the time of the snapshot.
    pub plan_cache: PlanCacheStats,
    /// Index-pruning counters at the time of the snapshot.
    pub prune: PruneStats,
    /// Durability counters at the time of the snapshot (all zero on an
    /// in-memory corpus).
    pub wal: DurabilityStats,
    /// Replication counters at the time of the snapshot (all zero on a
    /// server that never served a `REPLICATE`).
    pub replication: ReplicationStats,
}

/// What an admitted job executes: one query, or a whole batch sharing one
/// fan-out. A batch occupies **one** queue slot — admission is
/// all-or-nothing, so a shed batch sheds every query in it and a parse
/// error anywhere in the frame admits nothing.
enum JobKind {
    Single {
        spec: QuerySpec,
        fp_key: u64,
    },
    Batch {
        /// `(spec, fp_key)` per query, in request order.
        queries: Vec<(QuerySpec, u64)>,
    },
}

/// One admitted job: everything a worker needs to execute and answer it.
struct Job {
    id: u64,
    kind: JobKind,
    target: FanOut,
    admitted_at: Instant,
    out: Arc<Mutex<TcpStream>>,
}

/// State shared by the accept loop, readers, and workers.
struct Shared {
    corpus: Arc<Corpus>,
    queue: BoundedQueue<Job>,
    cache: PlanCache,
    plan: PlanOptions,
    stop: AtomicBool,
    /// `true` while the worker pool is paused; workers wait on the condvar
    /// before each pop.
    paused: Mutex<bool>,
    unpaused: Condvar,
    admitted: AtomicU64,
    executed: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    prune_candidates: AtomicU64,
    prune_pruned: AtomicU64,
    prune_survivors: AtomicU64,
    prune_false_positives: AtomicU64,
    repl_requests: AtomicU64,
    repl_records: AtomicU64,
    repl_snapshots: AtomicU64,
    /// Lag observed at the start of the most recent replication stream
    /// (stored, not accumulated — it is a gauge, not a counter).
    repl_lag_epochs: AtomicU64,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        ServerStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            queue_depth: self.queue.depth(),
            capacity: self.queue.capacity(),
            plan_cache: self.cache.stats(),
            prune: PruneStats {
                candidates: self.prune_candidates.load(Ordering::Relaxed),
                pruned: self.prune_pruned.load(Ordering::Relaxed),
                survivors: self.prune_survivors.load(Ordering::Relaxed),
                false_positives: self.prune_false_positives.load(Ordering::Relaxed),
            },
            wal: self.corpus.durability_stats(),
            replication: ReplicationStats {
                requests: self.repl_requests.load(Ordering::Relaxed),
                records_streamed: self.repl_records.load(Ordering::Relaxed),
                snapshots_streamed: self.repl_snapshots.load(Ordering::Relaxed),
                lag_epochs: self.repl_lag_epochs.load(Ordering::Relaxed),
            },
        }
    }
}

/// Writes `response` on the connection, serialized by the per-connection
/// write lock. A failed write means the peer is gone; the job's work is
/// done either way, so the error is dropped.
fn respond(out: &Mutex<TcpStream>, response: &Response) {
    let payload = response.encode();
    let mut stream = out.lock().expect("connection write lock");
    let _ = write_frame(&mut *stream, &payload);
}

/// The TCP front end. [`NetServer::start`] binds a listener and spawns the
/// threads; the returned [`ServerHandle`] owns them.
///
/// ```
/// use std::sync::Arc;
/// use cqt_service::net::{NetServer, NetServerConfig};
/// use cqt_service::shard::Corpus;
/// use cqt_trees::parse::parse_term;
///
/// let corpus = Arc::new(Corpus::new(2));
/// corpus.insert("doc", parse_term("R(A(B), C)").unwrap()).unwrap();
/// let handle = NetServer::start(corpus, NetServerConfig::default()).unwrap();
/// assert_ne!(handle.addr().port(), 0);
/// handle.shutdown();
/// ```
pub struct NetServer;

impl NetServer {
    /// Binds `127.0.0.1:0` (an OS-assigned port) and starts serving
    /// `corpus` with `config`.
    pub fn start(corpus: Arc<Corpus>, config: NetServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            corpus,
            queue: BoundedQueue::new(config.queue_capacity.max(1)),
            cache: PlanCache::new(),
            plan: config.plan.clone(),
            stop: AtomicBool::new(false),
            paused: Mutex::new(config.start_paused),
            unpaused: Condvar::new(),
            admitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            prune_candidates: AtomicU64::new(0),
            prune_pruned: AtomicU64::new(0),
            prune_survivors: AtomicU64::new(0),
            prune_false_positives: AtomicU64::new(0),
            repl_requests: AtomicU64::new(0),
            repl_records: AtomicU64::new(0),
            repl_snapshots: AtomicU64::new(0),
            repl_lag_epochs: AtomicU64::new(0),
        });
        let connections: Arc<Mutex<Connections>> = Arc::default();

        let workers: Vec<_> = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            let max_frame_len = config.max_frame_len;
            std::thread::spawn(move || {
                for (id, stream) in listener.incoming().enumerate() {
                    if shared.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let Ok(socket) = stream.try_clone() else {
                        continue;
                    };
                    // Register under the lock the reader takes to remove
                    // itself, so the entry exists before the reader can exit.
                    // Removing its entry detaches the reader's own thread,
                    // which has nothing left to run by then.
                    let mut live = connections.lock().expect("connection registry lock");
                    let reader = {
                        let shared = Arc::clone(&shared);
                        let connections = Arc::clone(&connections);
                        std::thread::spawn(move || {
                            connection_loop(&shared, stream, max_frame_len);
                            connections
                                .lock()
                                .expect("connection registry lock")
                                .remove(&id);
                        })
                    };
                    live.insert(id, Connection { socket, reader });
                }
            })
        };

        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            workers,
            connections,
        })
    }
}

/// A live connection as the server handle sees it: a clone of its socket,
/// so shutdown can end the reader's blocking `read`, and the reader thread.
struct Connection {
    socket: TcpStream,
    reader: JoinHandle<()>,
}

/// The live connections by accept order. A reader removes its own entry
/// when it exits, so closed connections do not accumulate.
type Connections = FxHashMap<usize, Connection>;

/// Owns the server's threads; dropping it shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Connections>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Unpauses the worker pool (a no-op if it was never paused).
    pub fn resume(&self) {
        let mut paused = self.shared.paused.lock().expect("pause lock");
        *paused = false;
        drop(paused);
        self.shared.unpaused.notify_all();
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Stops accepting, drains every **admitted** job (workers finish and
    /// answer them), and joins all threads.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::Relaxed);
        // A paused pool must not deadlock shutdown.
        self.resume();
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        // Shutting the read half of each live socket ends its reader's
        // blocking `read` with end-of-stream. The write half stays open, so
        // admitted jobs are still answered. Join the readers before closing
        // the queue so no producer outlives it; the registry lock is not
        // held while joining, because an exiting reader takes it.
        let live = std::mem::take(&mut *self.connections.lock().expect("connection registry lock"));
        for connection in live.into_values() {
            let _ = connection.socket.shutdown(Shutdown::Read);
            let _ = connection.reader.join();
        }
        // Closing the queue lets workers drain what was admitted, answer
        // it, and exit.
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// One connection's read half: incremental frame decode, request parsing,
/// admission. The reader blocks in `read` until the peer closes, framing
/// breaks, or shutdown shuts the socket's read half.
fn connection_loop(shared: &Shared, stream: TcpStream, max_frame_len: u32) {
    // Each answer leaves when it is written, not behind an unacknowledged
    // earlier one (see the module docs on `TCP_NODELAY`).
    let _ = stream.set_nodelay(true);
    let out = Arc::new(Mutex::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    }));
    let mut read_half = stream;
    let mut decoder = FrameBuffer::new(max_frame_len);
    let mut chunk = [0u8; 4096];
    // Shutting the read half ends a blocked `read`, but Linux still
    // delivers bytes that were queued before, or arrive after, the
    // shutdown; the stop flag ends the loop for a client that keeps
    // sending.
    'conn: while !shared.stop.load(Ordering::Relaxed) {
        match read_half.read(&mut chunk) {
            // End of stream: the peer closed, or shutdown shut the read
            // half. A socket error ends the connection too.
            Ok(0) | Err(_) => break,
            Ok(n) => {
                decoder.push(&chunk[..n]);
                loop {
                    match decoder.next_frame() {
                        Ok(Some(payload)) => handle_payload(shared, &payload, &out),
                        Ok(None) => break,
                        // Framing is unrecoverable (oversized/zero length):
                        // the stream is desynchronized, close it.
                        Err(_) => break 'conn,
                    }
                }
            }
        }
    }
}

/// Decodes and dispatches one frame payload.
fn handle_payload(shared: &Shared, payload: &[u8], out: &Arc<Mutex<TcpStream>>) {
    let request = match Request::decode(payload) {
        Ok(request) => request,
        Err(error) => {
            // Framing is still synchronized, so answer and keep the
            // connection; id 0 because the malformed payload's id cannot be
            // trusted.
            shared.errors.fetch_add(1, Ordering::Relaxed);
            respond(
                out,
                &Response::Error {
                    id: 0,
                    message: format!("malformed request: {error}"),
                },
            );
            return;
        }
    };
    match request {
        // Control-plane requests bypass the queue: they must answer even
        // (especially) when the data plane is saturated.
        Request::Ping { id } => respond(out, &Response::Pong { id }),
        Request::Stats { id } => {
            let stats = shared.stats();
            respond(
                out,
                &Response::Stats {
                    id,
                    admitted: stats.admitted,
                    executed: stats.executed,
                    shed: stats.shed,
                    errors: stats.errors,
                    queue_depth: stats.queue_depth as u32,
                    capacity: stats.capacity as u32,
                    plan_hits: stats.plan_cache.hits,
                    plan_misses: stats.plan_cache.misses,
                    plan_analyses: stats.plan_cache.analyses,
                    plan_cross_document_hits: stats.plan_cache.cross_document_hits,
                    prune_candidates: stats.prune.candidates,
                    prune_pruned: stats.prune.pruned,
                    prune_survivors: stats.prune.survivors,
                    prune_false_positives: stats.prune.false_positives,
                    wal_records: stats.wal.log_records,
                    wal_bytes: stats.wal.log_bytes,
                    snapshot_epoch: stats.wal.snapshot_epoch,
                    repl_requests: stats.replication.requests,
                    repl_records: stats.replication.records_streamed,
                    repl_snapshots: stats.replication.snapshots_streamed,
                    repl_lag_epochs: stats.replication.lag_epochs,
                },
            );
        }
        // Replication streams inline on this connection's reader thread:
        // it bypasses the query queue (never queued, never shed) and
        // blocks this reader until the stream completes, so a follower
        // should subscribe on a dedicated connection.
        Request::Replicate { id, positions } => {
            shared.repl_requests.fetch_add(1, Ordering::Relaxed);
            let result = replicate_stream(&shared.corpus, id, &positions, &mut |frame| {
                let payload = frame.encode();
                let mut stream = out.lock().expect("connection write lock");
                write_frame(&mut *stream, &payload).is_ok()
            });
            match result {
                Ok(totals) => {
                    shared
                        .repl_records
                        .fetch_add(totals.records, Ordering::Relaxed);
                    shared
                        .repl_snapshots
                        .fetch_add(totals.snapshots as u64, Ordering::Relaxed);
                    shared
                        .repl_lag_epochs
                        .store(totals.lag_epochs, Ordering::Relaxed);
                }
                Err(message) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    respond(out, &Response::Error { id, message });
                }
            }
        }
        Request::Query {
            id,
            lang,
            text,
            fanout,
            fp_key,
        } => {
            let spec = match lang {
                WireLang::Cq => QuerySpec::parse_cq(&text),
                WireLang::XPath => QuerySpec::parse_xpath(&text),
            };
            let spec = match spec {
                Ok(spec) => spec,
                Err(message) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    respond(out, &Response::Error { id, message });
                    return;
                }
            };
            admit(
                shared,
                Job {
                    id,
                    kind: JobKind::Single { spec, fp_key },
                    target: fanout.into_fanout(),
                    admitted_at: Instant::now(),
                    out: Arc::clone(out),
                },
            );
        }
        Request::Batch {
            id,
            fanout,
            queries,
        } => {
            // Parse every query before admitting anything: a bad spec
            // anywhere fails the whole frame, so a batch is never
            // half-admitted.
            let mut parsed = Vec::with_capacity(queries.len());
            for (q, query) in queries.into_iter().enumerate() {
                let spec = match query.lang {
                    WireLang::Cq => QuerySpec::parse_cq(&query.text),
                    WireLang::XPath => QuerySpec::parse_xpath(&query.text),
                };
                match spec {
                    Ok(spec) => parsed.push((spec, query.fp_key)),
                    Err(message) => {
                        shared.errors.fetch_add(1, Ordering::Relaxed);
                        respond(
                            out,
                            &Response::Error {
                                id,
                                message: format!("batch query {q}: {message}"),
                            },
                        );
                        return;
                    }
                }
            }
            admit(
                shared,
                Job {
                    id,
                    kind: JobKind::Batch { queries: parsed },
                    target: fanout.into_fanout(),
                    admitted_at: Instant::now(),
                    out: Arc::clone(out),
                },
            );
        }
    }
}

/// Pushes one parsed job onto the admission queue, answering Shed/Error in
/// place on overflow or shutdown. A batch occupies one slot and is shed as
/// a unit.
fn admit(shared: &Shared, job: Job) {
    let id = job.id;
    let out = Arc::clone(&job.out);
    // Count the job before a worker can see it, so a stats snapshot never
    // shows `executed` ahead of `admitted`; a refused job is uncounted.
    shared.admitted.fetch_add(1, Ordering::Relaxed);
    match shared.queue.try_push(job) {
        Ok(()) => {}
        Err(PushError::Full { depth, capacity }) => {
            shared.admitted.fetch_sub(1, Ordering::Relaxed);
            shared.shed.fetch_add(1, Ordering::Relaxed);
            respond(
                &out,
                &Response::Shed {
                    id,
                    queue_depth: depth as u32,
                    capacity: capacity as u32,
                },
            );
        }
        Err(PushError::Closed) => {
            shared.admitted.fetch_sub(1, Ordering::Relaxed);
            shared.errors.fetch_add(1, Ordering::Relaxed);
            respond(
                &out,
                &Response::Error {
                    id,
                    message: "server shutting down".to_string(),
                },
            );
        }
    }
}

/// One worker: gate on the pause flag, pop, execute, answer, repeat until
/// the queue closes and drains.
fn worker_loop(shared: &Shared) {
    let mut scratch = ExecScratch::new();
    let mut batch_scratch = BatchScratch::new();
    loop {
        {
            let mut paused = shared.paused.lock().expect("pause lock");
            while *paused {
                paused = shared.unpaused.wait(paused).expect("pause lock");
            }
        }
        let Some(job) = shared.queue.pop() else { break };
        // Everything between admission and this moment — including any
        // pause — is queueing; everything after is execution. total is the
        // exact sum, so the two components account for every server-side
        // nanosecond.
        let queue_ns = job.admitted_at.elapsed().as_nanos() as u64;
        let exec_start = Instant::now();
        let documents = shared.corpus.select(&job.target);
        let mut prune = PruneStats::default();
        let response = match &job.kind {
            JobKind::Single { spec, fp_key } => {
                let fingerprint =
                    execute_single(shared, spec, *fp_key, &documents, &mut scratch, &mut prune);
                let exec_ns = exec_start.elapsed().as_nanos() as u64;
                Response::Answer {
                    id: job.id,
                    fingerprint,
                    docs: documents.len() as u32,
                    queue_ns,
                    exec_ns,
                    total_ns: queue_ns + exec_ns,
                }
            }
            JobKind::Batch { queries } => {
                let fingerprints =
                    execute_batch(shared, queries, &documents, &mut batch_scratch, &mut prune);
                let exec_ns = exec_start.elapsed().as_nanos() as u64;
                Response::BatchAnswer {
                    id: job.id,
                    docs: documents.len() as u32,
                    queue_ns,
                    exec_ns,
                    total_ns: queue_ns + exec_ns,
                    fingerprints,
                }
            }
        };
        shared
            .prune_candidates
            .fetch_add(prune.candidates, Ordering::Relaxed);
        shared
            .prune_pruned
            .fetch_add(prune.pruned, Ordering::Relaxed);
        shared
            .prune_survivors
            .fetch_add(prune.survivors, Ordering::Relaxed);
        shared
            .prune_false_positives
            .fetch_add(prune.false_positives, Ordering::Relaxed);
        shared.executed.fetch_add(1, Ordering::Relaxed);
        respond(&job.out, &response);
    }
}

/// Executes one query over the selected documents, returning its answer
/// fingerprint: each document's answer folds under the same
/// (`fp_key`, document position) keying `run_corpus` uses with its request
/// index, so clients can compare digests against an in-process run.
fn execute_single(
    shared: &Shared,
    spec: &QuerySpec,
    fp_key: u64,
    documents: &[Arc<crate::shard::Document>],
    scratch: &mut ExecScratch,
    prune: &mut PruneStats,
) -> u64 {
    let key = PlanKey::of_spec(spec).with_options(&shared.plan);
    // The pruning pre-pass: one document-independent plan lookup and one
    // intersection of the corpus label index's posting lists. The shared
    // per-document step re-validates each decision against the document's
    // own snapshot summary, so a posting list racing a concurrent commit
    // can cost a wasted execution but never a wrong answer.
    let plan = shared.cache.get_or_compile(spec, &shared.plan);
    let survivors = shared
        .corpus
        .label_index()
        .candidates(plan.required_labels());
    let mut fingerprint = 0u64;
    for (j, document) in documents.iter().enumerate() {
        let snapshot = document.handle().snapshot();
        let check = PruneCheck {
            plan: &plan,
            index_candidate: survivors
                .as_ref()
                .map_or(true, |ids| ids.contains(document.id())),
        };
        let mut sink = AnswerSink::fingerprint(doc_fp_key(fp_key, j), plan.head_arity());
        let summary = snapshot.prepared.doc_summary();
        serve_document(Some(check), summary, prune, &mut sink, |sink| {
            shared
                .cache
                .get_or_compile_tagged(
                    key.with_document(snapshot.prepared.structure_hash()),
                    spec,
                    &shared.plan,
                    document.doc_tag(),
                )
                .execute_into(&snapshot.prepared, scratch, sink)
        });
        fingerprint =
            fingerprint.wrapping_add(sink.fingerprint_value().expect("a fingerprint sink"));
    }
    fingerprint
}

/// Executes a whole batch over the selected documents through one
/// [`PreparedBatch`] (snapshot once per document, dedup, shared-step
/// table, union-label pruning), returning one fingerprint per query in
/// request order. Each fingerprint folds with the **same** keying as
/// [`execute_single`], so a batch's k-th digest equals the digest of
/// sending that query alone with the same `fp_key`.
fn execute_batch(
    shared: &Shared,
    queries: &[(QuerySpec, u64)],
    documents: &[Arc<crate::shard::Document>],
    scratch: &mut BatchScratch,
    prune: &mut PruneStats,
) -> Vec<u64> {
    let specs: Vec<QuerySpec> = queries.iter().map(|(spec, _)| spec.clone()).collect();
    let batch = PreparedBatch::prepare(
        &specs,
        &shared.cache,
        &shared.plan,
        Some(shared.corpus.label_index()),
    );
    let mut fingerprints = vec![0u64; queries.len()];
    let mut keys = Vec::with_capacity(queries.len());
    for (j, document) in documents.iter().enumerate() {
        keys.clear();
        keys.extend(queries.iter().map(|(_, fp_key)| doc_fp_key(*fp_key, j)));
        batch.fold_document(document, scratch, &keys, &mut fingerprints, prune);
    }
    fingerprints
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::frame::FRAME_HEADER_LEN;
    use crate::net::protocol::WireFanOut;
    use cqt_trees::parse::parse_term;
    use std::io::Write;
    use std::time::Duration;

    fn test_corpus() -> Arc<Corpus> {
        let corpus = Arc::new(Corpus::new(2));
        corpus
            .insert("doc-a", parse_term("R(A(B), C)").unwrap())
            .unwrap();
        corpus
            .insert_tagged("doc-b", &["hot"], parse_term("R(A(B, B), A)").unwrap())
            .unwrap();
        corpus
    }

    /// Sends one request and reads one response, synchronously.
    fn call(stream: &mut TcpStream, request: &Request) -> Response {
        write_frame(stream, &request.encode()).unwrap();
        read_response(stream)
    }

    fn read_response(stream: &mut TcpStream) -> Response {
        let mut header = [0u8; FRAME_HEADER_LEN];
        stream.read_exact(&mut header).unwrap();
        let len = u32::from_be_bytes(header) as usize;
        let mut payload = vec![0u8; len];
        stream.read_exact(&mut payload).unwrap();
        Response::decode(&payload).unwrap()
    }

    #[test]
    fn serves_queries_pings_and_stats_over_a_real_socket() {
        let handle = NetServer::start(test_corpus(), NetServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(
            call(&mut stream, &Request::Ping { id: 1 }),
            Response::Pong { id: 1 }
        );
        let response = call(
            &mut stream,
            &Request::Query {
                id: 2,
                lang: WireLang::Cq,
                text: "Q(y) :- A(x), Child(x, y), B(y).".into(),
                fanout: WireFanOut::All,
                fp_key: 0,
            },
        );
        match response {
            Response::Answer {
                id,
                docs,
                queue_ns,
                exec_ns,
                total_ns,
                ..
            } => {
                assert_eq!(id, 2);
                assert_eq!(docs, 2);
                assert_eq!(queue_ns + exec_ns, total_ns, "accounting must sum");
            }
            other => panic!("expected answer, got {other:?}"),
        }
        // Tag fan-out touches only the tagged document.
        let response = call(
            &mut stream,
            &Request::Query {
                id: 3,
                lang: WireLang::XPath,
                text: "//A[B]".into(),
                fanout: WireFanOut::Tag("hot".into()),
                fp_key: 1,
            },
        );
        assert!(matches!(response, Response::Answer { id: 3, docs: 1, .. }));
        // An unknown document fans out to zero documents (the run_corpus
        // convention), not an error.
        let response = call(
            &mut stream,
            &Request::Query {
                id: 4,
                lang: WireLang::Cq,
                text: "Q() :- A(x).".into(),
                fanout: WireFanOut::Doc("missing".into()),
                fp_key: 2,
            },
        );
        assert!(matches!(response, Response::Answer { id: 4, docs: 0, .. }));
        match call(&mut stream, &Request::Stats { id: 5 }) {
            Response::Stats {
                id,
                admitted,
                executed,
                shed,
                errors,
                capacity,
                plan_misses,
                prune_candidates,
                prune_pruned,
                prune_survivors,
                ..
            } => {
                assert_eq!(id, 5);
                assert_eq!(admitted, 3);
                assert_eq!(executed, 3);
                assert_eq!(shed, 0);
                assert_eq!(errors, 0);
                assert_eq!(capacity, 64);
                assert!(plan_misses > 0, "queries compiled plans");
                // Three queries touched 2 + 1 + 0 documents; every document
                // in this corpus carries the required labels, so none prune.
                assert_eq!(prune_candidates, 3);
                assert_eq!(prune_pruned, 0);
                assert_eq!(prune_survivors, 3);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn pruned_server_answers_equal_unpruned_run_corpus() {
        use crate::runner::{ServiceConfig, ServiceRunner};
        use crate::workload::{CorpusRequest, CorpusWorkload};

        // `doc-c` has no `B` anywhere, so every query below prunes it; the
        // pruning server must still produce the exact fingerprint of the
        // unpruned in-process runner.
        let corpus = test_corpus();
        corpus
            .insert_tagged("doc-c", &["hot"], parse_term("R(C(C), C)").unwrap())
            .unwrap();
        let queries = [
            (WireLang::Cq, "Q() :- A(x), Child(x, y), B(y)."),
            (WireLang::Cq, "Q(y) :- A(x), Child(x, y), B(y)."),
            (WireLang::Cq, "Q(x, y) :- A(x), Child(x, y), B(y)."),
            (WireLang::XPath, "//A/B"),
        ];
        let fanouts = [
            (WireFanOut::All, FanOut::All),
            (WireFanOut::Tag("hot".into()), FanOut::Tagged("hot".into())),
            (WireFanOut::Doc("doc-c".into()), FanOut::One("doc-c".into())),
        ];
        let unpruned = ServiceRunner::new(ServiceConfig::with_threads(1).with_prune(false));
        let handle = NetServer::start(Arc::clone(&corpus), NetServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut expected_prune = PruneStats::default();
        let mut id = 0;
        for (lang, text) in queries {
            for (wire_fanout, target) in &fanouts {
                id += 1;
                let response = call(
                    &mut stream,
                    &Request::Query {
                        id,
                        lang,
                        text: text.into(),
                        fanout: wire_fanout.clone(),
                        fp_key: 0,
                    },
                );
                let Response::Answer {
                    fingerprint, docs, ..
                } = response
                else {
                    panic!("expected answer to {text} over {target:?}, got {response:?}");
                };
                let query = match lang {
                    WireLang::Cq => QuerySpec::parse_cq(text),
                    WireLang::XPath => QuerySpec::parse_xpath(text),
                }
                .unwrap();
                let workload = CorpusWorkload::new(
                    vec![CorpusRequest {
                        query,
                        target: target.clone(),
                    }],
                    1,
                );
                let reference = unpruned.run_corpus(&corpus, &workload);
                assert_eq!(reference.prune, PruneStats::default());
                assert_eq!(
                    fingerprint, reference.answer_fingerprint,
                    "{text} over {target:?}: pruning must not change answers"
                );
                let selected = corpus.select(target);
                assert_eq!(docs as usize, selected.len(), "fan-out reports every doc");
                let prunable = selected.iter().filter(|d| d.id().as_str() == "doc-c");
                expected_prune.candidates += selected.len() as u64;
                expected_prune.pruned += prunable.count() as u64;
            }
        }
        expected_prune.survivors = expected_prune.candidates - expected_prune.pruned;
        let stats = handle.stats();
        handle.shutdown();
        // 4 queries x (3 + 2 + 1) documents, doc-c pruned in every case.
        assert_eq!(expected_prune.candidates, 24);
        assert_eq!(expected_prune.pruned, 12);
        assert_eq!(stats.prune.candidates, expected_prune.candidates);
        assert_eq!(stats.prune.pruned, expected_prune.pruned, "doc-c lacks B");
        assert_eq!(stats.prune.survivors, expected_prune.survivors);
    }

    #[test]
    fn batch_answers_match_singles_and_bad_specs_admit_nothing() {
        use crate::net::protocol::WireQuery;
        let handle = NetServer::start(test_corpus(), NetServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let texts = [
            "Q(y) :- A(x), Child(x, y), B(y).",
            "Q() :- A(x).",
            // A repeat of the first query: dedups inside the batch but must
            // still answer under its own fp_key.
            "Q(y) :- A(x), Child(x, y), B(y).",
        ];
        // Reference fingerprints: each query sent alone with fp_key 10+q.
        let mut single_fps = Vec::new();
        for (q, text) in texts.iter().enumerate() {
            let response = call(
                &mut stream,
                &Request::Query {
                    id: q as u64,
                    lang: WireLang::Cq,
                    text: (*text).into(),
                    fanout: WireFanOut::All,
                    fp_key: 10 + q as u64,
                },
            );
            let Response::Answer { fingerprint, .. } = response else {
                panic!("expected answer, got {response:?}");
            };
            single_fps.push(fingerprint);
        }
        let response = call(
            &mut stream,
            &Request::Batch {
                id: 50,
                fanout: WireFanOut::All,
                queries: texts
                    .iter()
                    .enumerate()
                    .map(|(q, text)| WireQuery {
                        lang: WireLang::Cq,
                        text: (*text).into(),
                        fp_key: 10 + q as u64,
                    })
                    .collect(),
            },
        );
        match response {
            Response::BatchAnswer {
                id,
                docs,
                queue_ns,
                exec_ns,
                total_ns,
                fingerprints,
            } => {
                assert_eq!(id, 50);
                assert_eq!(docs, 2);
                assert_eq!(queue_ns + exec_ns, total_ns, "accounting must sum");
                assert_eq!(
                    fingerprints, single_fps,
                    "batched digests must equal one-at-a-time digests"
                );
            }
            other => panic!("expected batch answer, got {other:?}"),
        }
        // A parse error anywhere fails the whole batch; nothing is admitted.
        let admitted_before = handle.stats().admitted;
        let response = call(
            &mut stream,
            &Request::Batch {
                id: 51,
                fanout: WireFanOut::All,
                queries: vec![
                    WireQuery {
                        lang: WireLang::Cq,
                        text: "Q() :- A(x).".into(),
                        fp_key: 0,
                    },
                    WireQuery {
                        lang: WireLang::Cq,
                        text: "not a query".into(),
                        fp_key: 1,
                    },
                ],
            },
        );
        assert!(matches!(response, Response::Error { id: 51, .. }));
        assert_eq!(handle.stats().admitted, admitted_before);
        // An empty batch is wire-legal: it fans out and answers with zero
        // fingerprints.
        let response = call(
            &mut stream,
            &Request::Batch {
                id: 52,
                fanout: WireFanOut::All,
                queries: Vec::new(),
            },
        );
        match response {
            Response::BatchAnswer {
                id,
                docs,
                fingerprints,
                ..
            } => {
                assert_eq!(id, 52);
                assert_eq!(docs, 2);
                assert!(fingerprints.is_empty());
            }
            other => panic!("expected batch answer, got {other:?}"),
        }
        // The whole batch occupied one queue slot and one executed count.
        let stats = handle.stats();
        assert_eq!(stats.admitted, 5, "3 singles + 2 batches");
        assert_eq!(stats.executed, 5);
        assert_eq!(stats.errors, 1);
        handle.shutdown();
    }

    #[test]
    fn parse_errors_and_malformed_payloads_are_answered_not_fatal() {
        let handle = NetServer::start(test_corpus(), NetServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let response = call(
            &mut stream,
            &Request::Query {
                id: 7,
                lang: WireLang::Cq,
                text: "this is not a query".into(),
                fanout: WireFanOut::All,
                fp_key: 0,
            },
        );
        assert!(matches!(response, Response::Error { id: 7, .. }));
        // A well-framed but undecodable payload is answered with an error
        // (id 0: the payload's id cannot be trusted)...
        write_frame(&mut stream, &[0xEE, 0xEE]).unwrap();
        assert!(matches!(
            read_response(&mut stream),
            Response::Error { id: 0, .. }
        ));
        // ...and the connection still works afterwards.
        assert_eq!(
            call(&mut stream, &Request::Ping { id: 8 }),
            Response::Pong { id: 8 }
        );
        handle.shutdown();
    }

    #[test]
    fn shutdown_with_an_idle_connection_does_not_wait_on_a_timer() {
        let mut times = Vec::new();
        for _ in 0..5 {
            let handle = NetServer::start(test_corpus(), NetServerConfig::default()).unwrap();
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            // One round trip: the reader is registered and now idle in `read`.
            assert_eq!(
                call(&mut stream, &Request::Ping { id: 1 }),
                Response::Pong { id: 1 }
            );
            let start = Instant::now();
            handle.shutdown();
            times.push(start.elapsed());
        }
        times.sort_unstable();
        assert!(
            times[2] < Duration::from_millis(10),
            "median shutdown took {:?} (all: {times:?})",
            times[2]
        );
    }

    #[test]
    fn shutdown_stops_a_reader_whose_client_keeps_sending() {
        let handle = NetServer::start(test_corpus(), NetServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        assert_eq!(
            call(&mut stream, &Request::Ping { id: 1 }),
            Response::Pong { id: 1 }
        );
        // One thread sends pings until the server closes the socket, one
        // discards the pongs so the reader never blocks on its writes.
        let mut sender = stream.try_clone().unwrap();
        let ping = Request::Ping { id: 2 }.encode();
        let sending = std::thread::spawn(move || while write_frame(&mut sender, &ping).is_ok() {});
        let (flooding, flood) = std::sync::mpsc::channel();
        let draining = std::thread::spawn(move || {
            let mut sink = [0u8; 65536];
            let mut flooding = Some(flooding);
            let mut drained = 0;
            loop {
                match stream.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => drained += n,
                }
                if drained >= 1 << 16 {
                    if let Some(flooding) = flooding.take() {
                        let _ = flooding.send(());
                    }
                }
            }
        });
        // Shut down only once 64 KiB of pongs show the flood is under way.
        flood.recv().expect("the server answered the flood");
        let (done, finished) = std::sync::mpsc::channel();
        let shutting_down = std::thread::spawn(move || {
            handle.shutdown();
            let _ = done.send(());
        });
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown finished while the client kept sending");
        shutting_down.join().unwrap();
        sending.join().unwrap();
        draining.join().unwrap();
    }

    #[test]
    fn closed_connections_leave_the_registry() {
        let handle = NetServer::start(test_corpus(), NetServerConfig::default()).unwrap();
        for id in 0..50 {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            assert_eq!(
                call(&mut stream, &Request::Ping { id }),
                Response::Pong { id }
            );
        }
        let live = || handle.connections.lock().unwrap().len();
        let deadline = Instant::now() + Duration::from_secs(10);
        while live() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(live(), 0, "every closed connection's reader removed itself");
        handle.shutdown();
    }

    #[test]
    fn oversized_frames_close_the_connection() {
        let config = NetServerConfig {
            max_frame_len: 64,
            ..NetServerConfig::default()
        };
        let handle = NetServer::start(test_corpus(), config).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Declare a 65-byte payload against a 64-byte cap: desynchronized
        // framing, the server closes.
        stream.write_all(&65u32.to_be_bytes()).unwrap();
        stream.flush().unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(
            stream.read(&mut buf).unwrap(),
            0,
            "server closed the stream"
        );
        handle.shutdown();
    }
}
