//! The multi-threaded scatter–gather runner.
//!
//! Every serving mode runs through one worker pool and one per-document
//! step:
//!
//! * **the pool** — `config.threads` scoped workers claim chunks of the
//!   request sequence from a shared atomic cursor, each with worker-local
//!   state (an execution scratch and its counters, so evaluation allocates
//!   nothing in the steady state beyond the answer), time every request,
//!   and hand their state back to be merged once the cursor runs dry;
//! * **the step** (`serve_document`) — one query on one document
//!   snapshot: decide from the label index's verdict and the snapshot's own
//!   summary whether the answer is provably empty, then fold that empty
//!   answer or execute, counting [`PruneStats`]. The TCP front end
//!   ([`crate::net`]) and the batch layer ([`PreparedBatch`]) go through
//!   the same step, and every scatter keys its per-document answers by
//!   (request key, fan-out position) the same way, so all paths prune and
//!   fingerprint identically.
//!
//! Three modes drive the pool: [`ServiceRunner::run_corpus`]
//! (scatter–gather over a sharded [`Corpus`]), [`ServiceRunner::run_batched`]
//! (batched scatter–gather) and [`ServiceRunner::run_corpus_mutating`]
//! (N readers plus one writer thread per mutated document — a one-document
//! corpus with one writer is the single-document read/write case).

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cqt_core::{Answer, BatchScratch, ExecScratch};
use cqt_trees::edit::EditScript;
use cqt_trees::DocSummary;

use crate::batch::{BatchWorkload, PreparedBatch};
use crate::corpus::CommitReport;
use crate::plan::{Plan, PlanCache, PlanKey, PlanOptions};
use crate::shard::{Corpus, CorpusError, DocId, Document, SharingSummary};
use crate::stats::{
    answer_fingerprint, doc_fp_key, BatchReport, BatchSharing, CorpusMutationReport, CorpusReport,
    LatencySummary, PruneStats,
};
use crate::workload::{CorpusMutationWorkload, CorpusWorkload};

/// Configuration of a [`ServiceRunner`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads. Defaults to the machine's available parallelism.
    pub threads: usize,
    /// Plan-compilation options.
    pub plan: PlanOptions,
    /// Requests claimed per cursor increment. Small enough to balance load,
    /// large enough to keep cursor contention negligible.
    pub chunk: usize,
    /// Whether corpus scatter prunes documents through the
    /// [`crate::index::LabelIndex`] + per-snapshot summary double check.
    /// On by default; the differential tests run both settings and assert
    /// identical answer fingerprints.
    pub prune: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: std::thread::available_parallelism().map_or(1, usize::from),
            plan: PlanOptions::default(),
            chunk: 16,
            prune: true,
        }
    }
}

impl ServiceConfig {
    /// A config with `threads` workers and default options.
    pub fn with_threads(threads: usize) -> Self {
        ServiceConfig {
            threads,
            ..ServiceConfig::default()
        }
    }

    /// The same config with pruning switched on or off.
    pub fn with_prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }
}

/// One query's pruning inputs on one document of a scatter.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PruneCheck<'a> {
    /// The document-independent plan: the labels and axes every answer
    /// requires.
    pub(crate) plan: &'a Plan,
    /// The plan's empty answer, returned for a pruned document.
    pub(crate) empty: &'a Answer,
    /// Whether the corpus label index kept the document (its posting lists
    /// hold every required label).
    pub(crate) index_candidate: bool,
}

/// The per-document step every scatter path shares: serves one query on the
/// document snapshot whose summary is `summary`, executing through
/// `execute` unless `prune` proves the answer empty.
///
/// The decision is exact whatever the index says, because it re-checks the
/// snapshot's own summary:
///
/// * not an index candidate → confirm against the summary
///   ([`Plan::prunes`]) — a stale index (the document gained a required
///   label since the intersection) is rescued here, so pruning never drops
///   a non-empty answer;
/// * index candidate → the labels are (said to be) present, so only the
///   axis requirements — which the label index does not cover — are
///   checked. A stale-extra posting just means one wasted execution that
///   returns the correct empty answer (counted as a false positive).
///
/// A pruned document's answer on this snapshot is provably empty, so
/// returning `prune.empty` without executing is fingerprint-exact. `stats`
/// counts every decision; with `prune` unset the step just executes.
pub(crate) fn serve_document<'a>(
    prune: Option<PruneCheck<'a>>,
    summary: &DocSummary,
    stats: &mut PruneStats,
    execute: impl FnOnce() -> Answer,
) -> Cow<'a, Answer> {
    let Some(PruneCheck {
        plan,
        empty,
        index_candidate,
    }) = prune
    else {
        return Cow::Owned(execute());
    };
    stats.candidates += 1;
    let should_prune = plan.is_always_empty()
        || if index_candidate {
            plan.required_axes()
                .iter()
                .any(|&axis| !summary.can_satisfy(axis))
        } else {
            plan.prunes(summary)
        };
    if should_prune {
        stats.pruned += 1;
        return Cow::Borrowed(empty);
    }
    stats.survivors += 1;
    let answer = execute();
    if answer == *empty {
        stats.false_positives += 1;
    }
    Cow::Owned(answer)
}

/// What one scatter worker gathers; summed across workers after the run.
#[derive(Debug, Default)]
struct Tally {
    /// Wrapping sum of the keyed per-document answer fingerprints.
    fingerprint: u64,
    /// Evaluator runs performed.
    executions: u64,
    prune: PruneStats,
}

impl Tally {
    fn absorb(&mut self, other: &Tally) {
        self.fingerprint = self.fingerprint.wrapping_add(other.fingerprint);
        self.executions += other.executions;
        self.prune.absorb(&other.prune);
    }
}

/// What one reader of a mutation run keeps; merged across readers after
/// the run.
#[derive(Debug, Default)]
struct Reader {
    scratch: ExecScratch,
    /// Every distinct `(document, query, epoch, fingerprint)` it observed.
    observations: BTreeSet<(DocId, usize, u64, u64)>,
    prune: PruneStats,
}

/// The batch-serving runner: a plan cache plus a thread-pool configuration.
#[derive(Debug, Default)]
pub struct ServiceRunner {
    config: ServiceConfig,
    cache: Arc<PlanCache>,
}

impl ServiceRunner {
    /// A runner with a fresh plan cache.
    pub fn new(config: ServiceConfig) -> Self {
        ServiceRunner {
            config,
            cache: Arc::new(PlanCache::new()),
        }
    }

    /// A runner sharing an existing plan cache (e.g. across batches).
    pub fn with_cache(config: ServiceConfig, cache: Arc<PlanCache>) -> Self {
        ServiceRunner { config, cache }
    }

    /// The shared plan cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The runner configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    fn threads(&self) -> usize {
        self.config.threads.max(1)
    }

    /// The worker pool behind every run: runs `step(i, state)` for every
    /// `i` in `0..total`, spread over the configured threads, which claim
    /// `config.chunk` indices at a time from `cursor`. Each worker starts
    /// from `init()`; once the cursor runs dry every worker's state is
    /// handed to `merge`. Returns the latency of every step.
    fn pool<S: Send>(
        &self,
        total: usize,
        cursor: &AtomicUsize,
        init: impl Fn() -> S + Sync,
        step: impl Fn(usize, &mut S) + Sync,
        mut merge: impl FnMut(S),
    ) -> Vec<u64> {
        let chunk = self.config.chunk.max(1);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.threads())
                .map(|_| {
                    let (init, step) = (&init, &step);
                    scope.spawn(move || {
                        let mut state = init();
                        let mut latencies = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= total {
                                break;
                            }
                            for i in start..(start + chunk).min(total) {
                                let begin = Instant::now();
                                step(i, &mut state);
                                latencies.push(begin.elapsed().as_nanos() as u64);
                            }
                        }
                        (latencies, state)
                    })
                })
                .collect();
            let mut all_latencies = Vec::with_capacity(total);
            for worker in workers {
                let (latencies, state) = worker.join().expect("serving worker panicked");
                all_latencies.extend(latencies);
                merge(state);
            }
            all_latencies
        })
    }

    /// Executes every scatter–gather request of `workload` against a
    /// sharded multi-document corpus.
    ///
    /// Each request resolves its [`crate::shard::FanOut`] target to a
    /// document list (resolved once, up front), then — per document —
    /// snapshots the document's current epoch and serves it through
    /// `serve_document`: executing binds the plan-cache key to the
    /// snapshot's structure hash and tags the lookup with the document's
    /// identity (so [`crate::plan::PlanCacheStats`] counts cross-document
    /// sharing). Request `i`'s answer from the document at fan-out position
    /// `j` folds into an order-independent fingerprint keyed by `(i, j)`.
    /// A request's latency covers its whole scatter–gather.
    pub fn run_corpus(&self, corpus: &Corpus, workload: &CorpusWorkload) -> CorpusReport {
        // 0 whenever `requests` is empty, so `request_of`'s modulo is safe.
        let total = workload.request_count();
        let keys: Vec<PlanKey> = workload
            .requests
            .iter()
            .map(|r| PlanKey::of_spec(&r.query).with_options(&self.config.plan))
            .collect();
        // Resolve fan-out targets once: corpus membership is stable during a
        // run (only commits happen concurrently), so this avoids re-walking
        // shard maps per request. Snapshots are still taken per execution —
        // a concurrent commit is picked up by the next request that touches
        // the document.
        let targets: Vec<Arc<Vec<Arc<Document>>>> = workload
            .requests
            .iter()
            .map(|r| corpus.select(&r.target))
            .collect();
        // Prune state per request: the document-independent compiled plan
        // (source of required labels/axes and the empty answer) and the
        // posting-list intersection over the corpus label index — computed
        // once here, before the fan-out, so the hot loop only tests set
        // membership. `None` inner set = the plan requires no labels, so
        // the index cannot prune (axis checks still can).
        #[allow(clippy::type_complexity)]
        let pruners: Vec<Option<(Plan, Answer, Option<BTreeSet<DocId>>)>> = workload
            .requests
            .iter()
            .map(|r| {
                if !self.config.prune {
                    return None;
                }
                let (plan, _analyses) = Plan::compile(&r.query, &self.config.plan);
                let empty = plan.empty_answer();
                let survivors = corpus.label_index().candidates(plan.required_labels());
                Some((plan, empty, survivors))
            })
            .collect();
        let documents = corpus.len();
        let started = Instant::now();
        let mut tally = Tally::default();
        let latencies = self.pool(
            total,
            &AtomicUsize::new(0),
            || (ExecScratch::new(), Tally::default()),
            |i, (scratch, worker)| {
                let request_index = workload.request_of(i);
                let spec = &workload.requests[request_index].query;
                for (j, document) in targets[request_index].iter().enumerate() {
                    let snapshot = document.handle().snapshot();
                    let check = pruners[request_index]
                        .as_ref()
                        .map(|(plan, empty, survivors)| PruneCheck {
                            plan,
                            empty,
                            index_candidate: survivors
                                .as_ref()
                                .map_or(true, |s| s.contains(document.id())),
                        });
                    let answer = serve_document(
                        check,
                        snapshot.prepared.doc_summary(),
                        &mut worker.prune,
                        || {
                            worker.executions += 1;
                            let key = keys[request_index]
                                .with_document(snapshot.prepared.structure_hash());
                            self.cache
                                .get_or_compile_tagged(
                                    key,
                                    spec,
                                    &self.config.plan,
                                    document.doc_tag(),
                                )
                                .execute(&snapshot.prepared, scratch)
                        },
                    );
                    worker.fingerprint = worker
                        .fingerprint
                        .wrapping_add(answer_fingerprint(doc_fp_key(i as u64, j), &answer));
                }
            },
            |(_, worker)| tally.absorb(&worker),
        );
        let wall_ns = started.elapsed().as_nanos() as u64;
        let requests = latencies.len() as u64;
        let plan_cache = self.cache.stats();
        CorpusReport {
            threads: self.threads(),
            shards: corpus.shard_count(),
            documents,
            requests,
            doc_executions: tally.executions,
            wall_ns,
            qps: requests as f64 / (wall_ns as f64 / 1e9).max(1e-12),
            latency: LatencySummary::from_samples(latencies),
            answer_fingerprint: tally.fingerprint,
            sharing: SharingSummary::from_stats(&plan_cache),
            plan_cache,
            prune: tally.prune,
        }
    }

    /// Executes every batch of `workload` against a sharded corpus: each
    /// batch instance resolves its fan-out once, snapshots each document
    /// once, and serves all of its queries from that snapshot through a
    /// [`crate::batch::PreparedBatch`] (whole-query dedup, cross-query
    /// shared-step table, union-label pruning with per-query re-checks).
    ///
    /// Per-query answers are folded under exactly the fingerprint keys
    /// [`ServiceRunner::run_corpus`] uses on
    /// [`BatchWorkload::flatten`] — query `q` of batch `b` on repeat `r`
    /// is flat request `r * flat_len + flat_base[b] + q`, and each of its
    /// per-document answers is keyed by `(flat_i, doc_position)`. The two
    /// runs are fingerprint-identical, with pruning on or off.
    pub fn run_batched(&self, corpus: &Corpus, workload: &BatchWorkload) -> BatchReport {
        let total = workload.batch_count();
        let batches_len = workload.batches.len().max(1);
        let flat_len = workload.flat_len();
        let flat_base = workload.flat_base();
        // Per distinct batch (not per instance): the fan-out resolution and
        // the whole sharing analysis — dedup, plan compilation, shared-step
        // interning, union posting-list intersection — happen once here.
        let targets: Vec<Arc<Vec<Arc<Document>>>> = workload
            .batches
            .iter()
            .map(|b| corpus.select(&b.target))
            .collect();
        let prune_index = self.config.prune.then(|| corpus.label_index());
        let prepared: Vec<PreparedBatch> = workload
            .batches
            .iter()
            .map(|b| {
                PreparedBatch::prepare(&b.queries, &self.cache, &self.config.plan, prune_index)
            })
            .collect();
        let mut sharing = BatchSharing::default();
        for batch in &prepared {
            sharing.deduped_queries += batch.deduped_queries() as u64;
            sharing.shared_steps += batch.shared_steps() as u64;
            sharing.reused_steps += batch.reused_steps() as u64;
        }
        let documents = corpus.len();
        let started = Instant::now();
        let mut tally = Tally::default();
        let mut doc_answers = 0u64;
        let latencies = self.pool(
            total,
            &AtomicUsize::new(0),
            || (BatchScratch::new(), Vec::new(), Tally::default(), 0u64),
            |i, (scratch, answers, worker, worker_answers)| {
                let b = workload.batch_of(i);
                let rep = i / batches_len;
                for (j, document) in targets[b].iter().enumerate() {
                    answers.clear();
                    worker.executions +=
                        prepared[b].execute_document(document, scratch, answers, &mut worker.prune);
                    for (q, answer) in answers.iter().enumerate() {
                        let flat_i = (rep * flat_len + flat_base[b] + q) as u64;
                        worker.fingerprint = worker
                            .fingerprint
                            .wrapping_add(answer_fingerprint(doc_fp_key(flat_i, j), answer));
                    }
                    *worker_answers += answers.len() as u64;
                }
            },
            |(scratch, _, worker, worker_answers)| {
                tally.absorb(&worker);
                doc_answers += worker_answers;
                sharing.step_evals += scratch.step_evals();
                sharing.step_hits += scratch.step_hits();
                sharing.empty_short_circuits += scratch.empty_short_circuits();
            },
        );
        let wall_ns = started.elapsed().as_nanos() as u64;
        let batches = latencies.len() as u64;
        debug_assert_eq!(batches as usize, total);
        let queries = workload.query_count() as u64;
        BatchReport {
            threads: self.threads(),
            shards: corpus.shard_count(),
            documents,
            batches,
            queries,
            doc_answers,
            doc_executions: tally.executions,
            wall_ns,
            qps: queries as f64 / (wall_ns as f64 / 1e9).max(1e-12),
            latency: LatencySummary::from_samples(latencies),
            answer_fingerprint: tally.fingerprint,
            plan_cache: self.cache.stats(),
            sharing,
            prune: tally.prune,
        }
    }

    /// Executes a mixed read/write workload against a sharded corpus:
    /// `config.threads` reader threads cycle the (query × document) read
    /// stream while **one writer thread per workload writer** commits its
    /// document's scripts at cursor-paced points — writers to distinct
    /// documents run concurrently and never block each other's readers.
    ///
    /// Every read snapshots exactly one document, binds its plan-cache key
    /// to that snapshot's structure hash ([`PlanKey::with_document`]) and
    /// serves the snapshot through `serve_document` — so a reader either
    /// serves the epoch it snapshot, entirely, or a later snapshot,
    /// entirely; there is no state through which pre- and post-commit data
    /// could blend. The recorded `(document, query, epoch, fingerprint)`
    /// observations (fingerprints keyed by query index) are checkable with
    /// a [`crate::shard::CorpusMutationOracle`], whose check also enforces
    /// **writer isolation** (documents without a writer are only ever
    /// observed at epoch 0). One probe read per (query, document) pair runs
    /// before the writers start and after they all finish, so every
    /// document's first and final epochs are observed whatever the
    /// scheduling.
    ///
    /// Fails fast (before any thread starts) if a read target or writer
    /// document is not in the corpus; fails after the run if any script did
    /// not apply (its document is left at its last good epoch; other
    /// writers are unaffected).
    pub fn run_corpus_mutating(
        &self,
        corpus: &Corpus,
        workload: &CorpusMutationWorkload,
    ) -> Result<CorpusMutationReport, CorpusError> {
        let resolve = |id: &DocId| -> Result<Arc<Document>, CorpusError> {
            corpus
                .get(id)
                .ok_or_else(|| CorpusError::UnknownDocument(id.clone()))
        };
        let readers_docs: Vec<Arc<Document>> = workload
            .doc_ids
            .iter()
            .map(&resolve)
            .collect::<Result<_, _>>()?;
        let writer_docs: Vec<(Arc<Document>, &[EditScript])> = workload
            .writers
            .iter()
            .map(|(id, scripts)| Ok((resolve(id)?, scripts.as_slice())))
            .collect::<Result<_, CorpusError>>()?;
        let total = if workload.queries.is_empty() || readers_docs.is_empty() {
            0
        } else {
            workload.reads
        };
        let cursor = AtomicUsize::new(0);
        let keys: Vec<PlanKey> = workload
            .queries
            .iter()
            .map(|spec| PlanKey::of_spec(spec).with_options(&self.config.plan))
            .collect();
        // Document-independent prune plans, one per query: the index is
        // consulted *live* per read (postings move under concurrent
        // commits), and the step re-validates the decision against the
        // snapshot summary, so a pruned read observes exactly the empty
        // answer its snapshot epoch would have produced — the oracle check
        // holds with pruning on or off.
        let pruners: Vec<Option<(Plan, Answer)>> = workload
            .queries
            .iter()
            .map(|spec| {
                if !self.config.prune {
                    return None;
                }
                let (plan, _analyses) = Plan::compile(spec, &self.config.plan);
                let empty = plan.empty_answer();
                Some((plan, empty))
            })
            .collect();
        // One read of query `query_index` against document `doc_index`,
        // recording the (doc, query, epoch, fingerprint) observation.
        let serve_one = |query_index: usize, doc_index: usize, reader: &mut Reader| {
            let document = &readers_docs[doc_index];
            let snapshot = document.handle().snapshot();
            let check = pruners[query_index]
                .as_ref()
                .map(|(plan, empty)| PruneCheck {
                    plan,
                    empty,
                    index_candidate: plan
                        .required_labels()
                        .iter()
                        .all(|label| corpus.label_index().contains(label, document.id())),
                });
            let summary = snapshot.prepared.doc_summary();
            let answer = serve_document(check, summary, &mut reader.prune, || {
                let key = keys[query_index].with_document(snapshot.prepared.structure_hash());
                self.cache
                    .get_or_compile_tagged(
                        key,
                        &workload.queries[query_index],
                        &self.config.plan,
                        document.doc_tag(),
                    )
                    .execute(&snapshot.prepared, &mut reader.scratch)
            });
            reader.observations.insert((
                document.id().clone(),
                query_index,
                snapshot.epoch,
                answer_fingerprint(query_index as u64, &answer),
            ));
        };
        // Probe every (query, document) pair once on the main thread.
        let probe = |latencies: &mut Vec<u64>, reader: &mut Reader| {
            if total == 0 {
                return;
            }
            for doc_index in 0..readers_docs.len() {
                for query_index in 0..workload.queries.len() {
                    let begin = Instant::now();
                    serve_one(query_index, doc_index, reader);
                    latencies.push(begin.elapsed().as_nanos() as u64);
                }
            }
        };

        let started = Instant::now();
        let mut latencies = Vec::new();
        let mut merged = Reader::default();
        // Probe every document's epoch 0 before any writer runs.
        probe(&mut latencies, &mut merged);
        let mut commits: BTreeMap<DocId, Vec<CommitReport>> = BTreeMap::new();
        let mut commit_error: Option<CorpusError> = None;
        std::thread::scope(|scope| {
            let writers: Vec<_> = writer_docs
                .iter()
                .enumerate()
                .map(|(w, (document, scripts))| {
                    let cursor = &cursor;
                    let commit_points = workload.commit_points(w);
                    scope.spawn(move || {
                        let mut reports: Vec<CommitReport> = Vec::with_capacity(scripts.len());
                        for (i, script) in scripts.iter().enumerate() {
                            while cursor.load(Ordering::Relaxed) < commit_points[i].min(total) {
                                // Sleep, don't spin: reads take microseconds,
                                // so a 100µs poll paces commits finely enough
                                // without the writer stealing a core from the
                                // readers it is benchmarked against.
                                std::thread::sleep(std::time::Duration::from_micros(100));
                            }
                            match document.handle().commit(script) {
                                Ok(report) => {
                                    reports.push(report);
                                    // Superseded epochs are unreachable for
                                    // new snapshots: drop their plan entries
                                    // so the cache is bounded by live epochs,
                                    // not total commits. Every superseded
                                    // hash is re-swept on each commit because
                                    // an in-flight reader that snapshot an
                                    // epoch just before its eviction can
                                    // re-insert its entry afterwards (a
                                    // correct, merely unmemoized read). A
                                    // sweep may also evict entries a
                                    // structurally identical *clone* document
                                    // still serves — again merely unmemoized.
                                    sweep_superseded(&self.cache, &reports);
                                }
                                Err(error) => {
                                    let error = CorpusError::Edit(document.id().clone(), error);
                                    return (document.id().clone(), reports, Some(error));
                                }
                            }
                        }
                        (document.id().clone(), reports, None)
                    })
                })
                .collect();
            let reads = self.pool(
                total,
                &cursor,
                Reader::default,
                |i, reader| {
                    let (query_index, doc_index) = workload.read_of(i);
                    serve_one(query_index, doc_index, reader);
                },
                |reader| {
                    merged.observations.extend(reader.observations);
                    merged.prune.absorb(&reader.prune);
                },
            );
            latencies.extend(reads);
            for writer in writers {
                let (id, reports, error) = writer.join().expect("corpus writer panicked");
                // Final sweep per document: readers have joined, so no
                // stale re-insert can outlive this.
                sweep_superseded(&self.cache, &reports);
                if !reports.is_empty() {
                    commits.insert(id, reports);
                }
                commit_error = commit_error.take().or(error);
            }
        });
        if let Some(error) = commit_error {
            return Err(error);
        }
        // Probe every document's final epoch: all writers have finished, so
        // these are deterministically the last committed epochs.
        probe(&mut latencies, &mut merged);
        let wall_ns = started.elapsed().as_nanos() as u64;
        let reads = latencies.len() as u64;
        let plan_cache = self.cache.stats();
        Ok(CorpusMutationReport {
            threads: self.threads(),
            writers: writer_docs.len(),
            reads,
            wall_ns,
            qps: reads as f64 / (wall_ns as f64 / 1e9).max(1e-12),
            latency: LatencySummary::from_samples(latencies),
            commits,
            observations: merged.observations,
            sharing: SharingSummary::from_stats(&plan_cache),
            plan_cache,
            prune: merged.prune,
        })
    }
}

/// Evicts the plan entries of every epoch `commits` superseded (skipping
/// no-op commits whose hash did not change — their "previous" hash is the
/// live one).
fn sweep_superseded(cache: &PlanCache, commits: &[CommitReport]) {
    let live = commits.last().map(|c| c.structure_hash);
    for commit in commits {
        if Some(commit.previous_structure_hash) != live {
            cache.evict_document(commit.previous_structure_hash);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{CorpusMutationOracle, FanOut};
    use crate::workload::{CorpusRequest, QuerySpec};
    use cqt_core::Engine;
    use cqt_query::cq::figure1_query;
    use cqt_trees::edit::{EditError, TreeEdit};
    use cqt_trees::parse::parse_term;

    fn smoke_corpus() -> Corpus {
        let corpus = Corpus::new(2);
        corpus
            .insert(
                "treebank",
                parse_term(
                    "CORPUS(S(NP(DT, NN), VP(VB, NP(NN), PP(IN, NP(NN)))), S(NP(NN), VP(VB)))",
                )
                .unwrap(),
            )
            .unwrap();
        corpus
            .insert("abc", parse_term("A(B(D), C(D, B(E)))").unwrap())
            .unwrap();
        corpus
    }

    fn smoke_workload(repeats: usize) -> CorpusWorkload {
        let queries = [
            QuerySpec::parse_cq("Q(y) :- A(x), Child+(x, y), B(y).").unwrap(),
            QuerySpec::parse_cq("Q() :- NP(x), Following(x, y), PP(y).").unwrap(),
            QuerySpec::from_cq(figure1_query()),
            QuerySpec::parse_xpath("//NP | //B").unwrap(),
        ];
        let requests = queries
            .into_iter()
            .map(|query| CorpusRequest {
                query,
                target: FanOut::All,
            })
            .collect();
        CorpusWorkload::new(requests, repeats)
    }

    #[test]
    fn multi_thread_run_matches_single_thread_fingerprint() {
        let corpus = smoke_corpus();
        let workload = smoke_workload(3);
        let single =
            ServiceRunner::new(ServiceConfig::with_threads(1)).run_corpus(&corpus, &workload);
        let multi = ServiceRunner::new(ServiceConfig {
            threads: 4,
            chunk: 2,
            ..ServiceConfig::default()
        })
        .run_corpus(&corpus, &workload);
        assert_eq!(single.requests, workload.request_count() as u64);
        assert_eq!(multi.requests, single.requests);
        assert_eq!(multi.answer_fingerprint, single.answer_fingerprint);
        assert_eq!(multi.prune, single.prune);
        assert!(multi.qps > 0.0);
        assert!(multi.latency.p50_ns <= multi.latency.p99_ns);
        assert!(multi.latency.p99_ns <= multi.latency.max_ns);
    }

    #[test]
    fn answers_match_the_one_shot_engine() {
        let corpus = smoke_corpus();
        let workload = smoke_workload(1);
        // Re-derive the fingerprint with the unbatched Engine facade.
        let engine = Engine::new();
        let mut expected = 0u64;
        for (i, request) in workload.requests.iter().enumerate() {
            for (j, document) in corpus.select(&request.target).iter().enumerate() {
                let snapshot = document.handle().snapshot();
                let tree = snapshot.prepared.tree();
                let answer = match &request.query {
                    QuerySpec::Cq(query) => engine.eval(tree, query),
                    QuerySpec::XPath(query) => {
                        let compiled = cqt_xpath::CompiledXPath::compile(query.clone());
                        let mut scratch = ExecScratch::new();
                        Answer::Nodes(compiled.eval_on(tree, &mut scratch).iter().collect())
                    }
                };
                expected =
                    expected.wrapping_add(answer_fingerprint(doc_fp_key(i as u64, j), &answer));
            }
        }
        for prune in [true, false] {
            let report = ServiceRunner::new(ServiceConfig::with_threads(3).with_prune(prune))
                .run_corpus(&corpus, &workload);
            assert_eq!(report.answer_fingerprint, expected, "prune: {prune}");
        }
    }

    #[test]
    fn plan_cache_is_shared_across_workers_and_runs() {
        let corpus = smoke_corpus();
        let workload = smoke_workload(4);
        // Unpruned, so every (request, document) pair looks its plan up.
        let runner = ServiceRunner::new(ServiceConfig::with_threads(4).with_prune(false));
        let first = runner.run_corpus(&corpus, &workload);
        // One plan per (query, document structure).
        let plans = (workload.requests.len() * corpus.len()) as u64;
        assert_eq!(first.plan_cache.misses, plans);
        let analyses_after_first = first.plan_cache.analyses;
        let second = runner.run_corpus(&corpus, &workload);
        // The second batch compiles nothing new.
        assert_eq!(second.plan_cache.misses, first.plan_cache.misses);
        assert_eq!(second.plan_cache.analyses, analyses_after_first);
        assert_eq!(
            second.plan_cache.hits,
            2 * first.doc_executions - first.plan_cache.misses
        );
    }

    #[test]
    fn empty_workload_reports_zero_requests() {
        let report = ServiceRunner::new(ServiceConfig::with_threads(2))
            .run_corpus(&smoke_corpus(), &CorpusWorkload::new(Vec::new(), 5));
        assert_eq!(report.requests, 0);
        assert_eq!(report.latency, LatencySummary::default());
    }

    #[test]
    fn the_step_rechecks_stale_index_verdicts() {
        let prepared = cqt_trees::PreparedTree::new(parse_term("R(A(B), C)").unwrap());
        let summary = prepared.doc_summary();
        let spec = QuerySpec::parse_cq("Q(y) :- A(x), Child(x, y), B(y).").unwrap();
        let (plan, _) = Plan::compile(&spec, &PlanOptions::default());
        let empty = plan.empty_answer();
        let check = |index_candidate| {
            Some(PruneCheck {
                plan: &plan,
                empty: &empty,
                index_candidate,
            })
        };
        let mut stats = PruneStats::default();
        // The index missed the document's labels, but its summary has them:
        // the step executes anyway.
        let answer = serve_document(check(false), summary, &mut stats, || Answer::Boolean(true));
        assert_eq!(*answer, Answer::Boolean(true));
        // A candidate whose answer comes back empty is a false positive.
        serve_document(check(true), summary, &mut stats, || empty.clone());
        assert_eq!(
            stats,
            PruneStats {
                candidates: 2,
                pruned: 0,
                survivors: 2,
                false_positives: 1,
            }
        );
        // A document without the labels is pruned without executing.
        let bare = cqt_trees::PreparedTree::new(parse_term("R(C)").unwrap());
        let answer = serve_document(check(false), bare.doc_summary(), &mut stats, || {
            unreachable!("a pruned document never executes")
        });
        assert!(matches!(answer, Cow::Borrowed(_)));
        assert_eq!(stats.pruned, 1);
    }

    #[test]
    fn mutating_run_is_epoch_consistent_and_probes_both_ends() {
        let initial = parse_term("R(A(B), C, A(B, B))").unwrap();
        let scripts = vec![
            EditScript::single(TreeEdit::InsertSubtree {
                parent_pre: 0,
                position: 0,
                subtree: Box::new(parse_term("A(B(C))").unwrap()),
            }),
            EditScript::single(TreeEdit::Relabel {
                node_pre: 2,
                labels: vec!["C".into()],
            }),
        ];
        let queries = vec![
            QuerySpec::parse_cq("Q(y) :- A(x), Child(x, y), B(y).").unwrap(),
            QuerySpec::parse_xpath("//A[B] | //C").unwrap(),
        ];
        let doc = DocId::new("doc");
        let corpus = Corpus::new(1);
        corpus.insert(doc.clone(), initial.clone()).unwrap();
        let workload = CorpusMutationWorkload::new(
            queries.clone(),
            vec![doc.clone()],
            vec![(doc.clone(), scripts.clone())],
            400,
        );
        let runner = ServiceRunner::new(ServiceConfig {
            threads: 4,
            chunk: 4,
            ..ServiceConfig::default()
        });
        let report = runner.run_corpus_mutating(&corpus, &workload).unwrap();
        assert_eq!(report.total_commits(), 2);
        assert_eq!(report.final_epochs()[&doc], 2);
        assert_eq!(report.reads, 400 + 2 * 2);
        // The probes guarantee both the initial and the final epoch were
        // served, whatever the thread interleaving did in between.
        let epochs = report.epochs_observed_for(&doc);
        assert!(epochs.contains(&0) && epochs.contains(&2), "{epochs:?}");
        // Every observation matches the oracle of its exact epoch.
        let oracle = CorpusMutationOracle::build(
            &BTreeMap::from([(doc.clone(), initial)]),
            &BTreeMap::from([(doc.clone(), scripts)]),
            &queries,
            &runner.config().plan,
        )
        .unwrap();
        oracle.check(&report).unwrap();
        // The relabel-only second commit carried its caches forward.
        assert!(report.commits[&doc][1].summary.keeps_structure());
    }

    #[test]
    fn mutating_run_surfaces_commit_errors() {
        let doc = DocId::new("doc");
        let corpus = Corpus::new(1);
        corpus
            .insert(doc.clone(), parse_term("R(A)").unwrap())
            .unwrap();
        let workload = CorpusMutationWorkload::new(
            vec![QuerySpec::parse_cq("Q() :- A(x).").unwrap()],
            vec![doc.clone()],
            vec![(
                doc.clone(),
                vec![EditScript::single(TreeEdit::DeleteSubtree { node_pre: 0 })],
            )],
            50,
        );
        let runner = ServiceRunner::new(ServiceConfig::with_threads(2));
        assert_eq!(
            runner.run_corpus_mutating(&corpus, &workload).unwrap_err(),
            CorpusError::Edit(doc.clone(), EditError::DeleteRoot)
        );
        assert_eq!(corpus.snapshot(&doc).unwrap().epoch, 0);
    }
}
