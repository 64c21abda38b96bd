//! # cqt-service — the concurrent query-serving layer
//!
//! The paper's engines ([`cqt_core`]) answer one query on one tree. This
//! crate turns them into a serving subsystem shaped like a production query
//! engine's prepare/execute split:
//!
//! * **compile once** — a [`Plan`] runs the whole per-query phase (parse,
//!   [`cqt_core::SignatureAnalysis`] against the Theorem 1.1 dichotomy,
//!   strategy selection, optional CQ→APQ rewrite, XPath→CQ compilation) a
//!   single time; the [`PlanCache`] memoizes plans under a signature +
//!   structure key with hit/miss/analysis counters;
//! * **prepare documents once** — trees enter the workload as
//!   [`cqt_trees::PreparedTree`]s, whose materialized axis relations and
//!   rank-space label sets are built lazily and shared across threads;
//! * **execute many times, in parallel** — a [`ServiceRunner`] shards the
//!   requests of a workload over a fixed pool of OS threads, and every
//!   scatter path (in-process runs, batches, the TCP front end) serves each
//!   (query, document) pair through one shared per-document step
//!   ([`runner`]). Plans and prepared trees are shared immutably (`Arc`);
//!   all mutable evaluation state lives in one [`cqt_core::ExecScratch`]
//!   per worker, so evaluation allocates nothing in the steady state and
//!   the only per-document shared access is a brief read-lock on the plan
//!   map (cache keys are hashed once per workload query, and the write
//!   lock is taken only while a plan is missing).
//!
//! * **mutate through epochs** — a [`CorpusHandle`] serves one logical
//!   document as a sequence of immutable epochs: readers snapshot an
//!   `Arc<PreparedTree>` and evaluate lock-free while
//!   [`CorpusHandle::commit`] applies a [`cqt_trees::edit::EditScript`],
//!   carries forward every per-tree cache the edit provably could not
//!   invalidate, and swaps the pointer. Epoch-aware serving binds plan-cache
//!   keys to the epoch's structure hash ([`PlanKey::with_document`]), so a
//!   commit forces re-preparation and a stale plan entry can never serve the
//!   new epoch. A [`MutationOracle`] replays one document's scripts
//!   single-threaded and gives the expected answer of every query at every
//!   epoch.
//!
//! * **scale to many documents** — a sharded [`Corpus`]
//!   ([`shard`]) maps [`DocId`]s to independently mutable documents
//!   partitioned across shards by id hash: per-document epoch swapping
//!   (a writer to one document never blocks — or is observable by — a
//!   reader of another), scatter–gather fan-out ([`FanOut`]: one document,
//!   a tagged subset, or all) via [`ServiceRunner::run_corpus`], multiple
//!   concurrent writers (at most one per document) via
//!   [`ServiceRunner::run_corpus_mutating`] checked by a per-document
//!   [`CorpusMutationOracle`], and **cross-document plan sharing**:
//!   document-bound plan keys collide exactly for documents with equal
//!   structure hashes, proven live by
//!   [`PlanCacheStats::cross_document_hits`].
//!
//! * **prune before you scatter** — a corpus-wide [`LabelIndex`]
//!   ([`index`]) maps every label to the posting list of documents carrying
//!   it, maintained epoch-consistently by the corpus write path; compiled
//!   plans expose the labels and axes *every* answer requires
//!   ([`Plan::required_labels`] / [`Plan::required_axes`]), so
//!   [`ServiceRunner::run_corpus`] intersects posting lists first and fans
//!   out only to surviving documents. Every pruning decision is re-validated
//!   against the document's own epoch snapshot summary
//!   ([`cqt_trees::DocSummary`]), so pruned runs are answer-fingerprint
//!   identical to unpruned runs — even under concurrent writers — and
//!   [`PruneStats`] reports candidates/pruned/survivors/false-positives.
//!
//! * **batch kindred queries** — a [`BatchWorkload`] ([`batch`]) groups k
//!   queries into one scatter–gather unit: the fan-out resolves once, each
//!   document is snapshot once for the whole batch, repeated specs dedup to
//!   a single plan and execution, a [`cqt_core::BatchPlan`] hash-conses
//!   shared axis chains across the batch's disjuncts into a per-document
//!   shared-step table, and pruning intersects posting lists once for the
//!   batch's **union** label requirements (re-checked per query against the
//!   snapshot summary). [`ServiceRunner::run_batched`] is
//!   answer-fingerprint identical to [`ServiceRunner::run_corpus`] on
//!   [`BatchWorkload::flatten`] — the differential suite holds that
//!   equality across random corpora, vocabularies and live edits.
//!
//! * **survive restarts** — the [`durability`] module gives the corpus a
//!   durable write path: a per-document write-ahead log of committed edit
//!   scripts (fsync'd *before* the epoch swap, so a commit is durable
//!   before it is visible), periodic snapshots bounding the log, typed
//!   crash recovery ([`Corpus::open_durable`]) that replays the log tail
//!   over the newest valid snapshot verifying the `structure_digest`
//!   chain. One verified scan of a document directory serves recovery,
//!   replication and promotion.
//!
//! * **serve over the network** — the [`net`] module puts the corpus behind
//!   a std-only TCP front end: length-prefixed binary frames, pipelined
//!   requests per connection, a bounded admission queue with explicit
//!   load-shedding ([`net::protocol::Response::Shed`], never a silent
//!   drop), and per-request latency split exactly into queue-wait and
//!   execute time. The `experiments net` harness drives it open-loop over
//!   real sockets and cross-checks answer fingerprints against the
//!   in-process [`ServiceRunner::run_corpus`] path.
//!
//! * **replicate** — the [`replication`] module ships the durable write
//!   path to a read-only [`ReplicaFollower`]. One producer streams a
//!   leader's log directory: write-ahead-log records in their exact
//!   on-disk framing (checksums and `structure_digest` chain re-verified
//!   on apply), with snapshot fallback for followers behind the log's
//!   truncation horizon. The follower has two sources and one apply path:
//!   a `REPLICATE` request to a leader's [`net`] front end on another
//!   process or machine ([`ReplicaFollower::new`], with
//!   reconnect-with-backoff catch-up that never loses applied progress),
//!   or the leader's directory in-process ([`ReplicaFollower::local`]).
//!   Failover is digest-gated: [`ReplicaFollower::promote`] opens the
//!   replica for writes only when its positions exactly match the dead
//!   leader's durable prefix ([`durable_positions`]).
//!
//! The [`CorpusReport`] returned by a run carries throughput (QPS), latency
//! percentiles (p50/p99), an order-independent answer fingerprint for
//! cross-checking runs at different thread counts, and the plan-cache and
//! pruning counters — all renderable as JSON for the benchmark harness
//! (`experiments serve`).
//!
//! ```
//! use cqt_service::{
//!     Corpus, CorpusRequest, CorpusWorkload, FanOut, QuerySpec, ServiceConfig, ServiceRunner,
//! };
//! use cqt_trees::parse::parse_term;
//!
//! let corpus = Corpus::new(2);
//! corpus.insert("doc", parse_term("A(B(D), C(D, B))").unwrap()).unwrap();
//! let requests = [
//!     QuerySpec::parse_cq("Q(y) :- A(x), Child+(x, y), B(y).").unwrap(),
//!     QuerySpec::parse_xpath("//B | //C").unwrap(),
//! ]
//! .into_iter()
//! .map(|query| CorpusRequest { query, target: FanOut::All })
//! .collect();
//! let workload = CorpusWorkload::new(requests, 100);
//! let report = ServiceRunner::new(ServiceConfig::with_threads(2)).run_corpus(&corpus, &workload);
//! assert_eq!(report.requests, 200);
//! assert_eq!(report.plan_cache.misses, 2); // each plan compiled once
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod corpus;
pub mod durability;
pub mod index;
pub mod net;
pub mod plan;
pub mod replication;
pub mod runner;
pub mod shard;
pub mod stats;
pub mod workload;

pub use batch::{BatchRequest, BatchWorkload, PreparedBatch};
pub use corpus::{CommitReport, CorpusHandle, CorpusSnapshot, MutationOracle};
pub use durability::{
    recover_corpus_dir, recover_document, DocRecovery, Durability, DurabilityStats,
    RecoveredDocument, RecoveryError, RecoveryReport,
};
pub use index::LabelIndex;
pub use net::{NetServer, NetServerConfig, ServerHandle, ServerStats};
pub use plan::{Plan, PlanCache, PlanCacheStats, PlanKey, PlanOptions};
pub use replication::{
    durable_positions, PromoteError, ReplicaError, ReplicaFollower, ReplicaProgress,
};
pub use runner::{ServiceConfig, ServiceRunner};
pub use shard::{Corpus, CorpusError, CorpusMutationOracle, DocId, Document, FanOut};
pub use stats::{
    answer_fingerprint, BatchReport, BatchSharing, CorpusMutationReport, CorpusReport,
    LatencySummary, PruneStats,
};
pub use workload::{CorpusMutationWorkload, CorpusRequest, CorpusWorkload, QuerySpec};
