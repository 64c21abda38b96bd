//! Latency/throughput statistics of a serving run, with JSON rendering.
//!
//! One report type per serving mode: [`CorpusReport`] (scatter–gather),
//! [`BatchReport`] (batched scatter–gather) and [`CorpusMutationReport`]
//! (read/write with one writer per mutated document). All render to JSON
//! by hand — the vendored serde shim has no serializer, and the schemas are
//! small and stable.

use std::collections::{BTreeMap, BTreeSet};

use cqt_core::Answer;

use crate::corpus::CommitReport;
use crate::plan::PlanCacheStats;
use crate::shard::{DocId, SharingSummary};

/// A fingerprint of one answer, mixed with a caller `key`:
/// [`cqt_core::answer_fingerprint`], whose mixing a fingerprint
/// [`cqt_core::AnswerSink`] reproduces tuple by tuple. Scatter–gather runs
/// and the TCP front end key each per-document answer by (request, document
/// position) through `doc_fp_key` and sum the results, so the sum is
/// independent of execution order while swapping two different answers
/// between requests or documents changes it;
/// [`crate::runner::ServiceRunner::run_corpus_mutating`] and the
/// [`crate::corpus::MutationOracle`] key by query index (so fingerprints of
/// the same query are comparable across epochs and runs).
pub fn answer_fingerprint(key: u64, answer: &Answer) -> u64 {
    cqt_core::answer_fingerprint(key, answer)
}

/// The fingerprint key of the answer a scatter gathers from the document at
/// `doc_position` of its fan-out, for a request keyed `fp_key`:
/// `fp_key * 1_000_003 + doc_position`, wrapping because a network client
/// chooses `fp_key`. Every scatter path folds per-document answers under
/// this key, which is what makes their fingerprints comparable: a pruned
/// document folds its empty answer under the same key it would have
/// executed under.
pub(crate) fn doc_fp_key(fp_key: u64, doc_position: usize) -> u64 {
    fp_key
        .wrapping_mul(1_000_003)
        .wrapping_add(doc_position as u64)
}

/// Latency percentiles over one run, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median request latency.
    pub p50_ns: u64,
    /// 99th-percentile request latency.
    pub p99_ns: u64,
    /// 99.9th-percentile request latency (the open-loop load generator's
    /// tail metric; equals `max_ns` for samples smaller than ~1000).
    pub p999_ns: u64,
    /// Mean request latency.
    pub mean_ns: u64,
    /// Slowest request.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarizes a latency sample; `latencies` is consumed (sorted).
    pub fn from_samples(mut latencies: Vec<u64>) -> Self {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        latencies.sort_unstable();
        // Ceiling-based nearest rank: the q-quantile is the smallest sample
        // with at least ⌈q·n⌉ samples ≤ it. Rounding the index instead (the
        // previous behaviour) drifts past the intended rank on small
        // samples — p50 of 1..=100 picked the 51st sample, and p99 of a
        // 10-sample vector picked the max even though rank 10 is p100.
        let pick = |q: f64| {
            let n = latencies.len();
            let rank = (q * n as f64).ceil() as usize;
            latencies[rank.clamp(1, n) - 1]
        };
        let sum: u128 = latencies.iter().map(|&ns| u128::from(ns)).sum();
        LatencySummary {
            p50_ns: pick(0.50),
            p99_ns: pick(0.99),
            p999_ns: pick(0.999),
            mean_ns: (sum / latencies.len() as u128) as u64,
            max_ns: *latencies.last().expect("non-empty"),
        }
    }
}

/// Renders [`PlanCacheStats`] as the JSON object every report embeds.
pub(crate) fn plan_cache_json(stats: &PlanCacheStats) -> String {
    format!(
        "{{\"hits\": {}, \"misses\": {}, \"analyses\": {}, \"cross_document_hits\": {}}}",
        stats.hits, stats.misses, stats.analyses, stats.cross_document_hits,
    )
}

/// Pruning counters of a corpus scatter–gather run: how much of the
/// fan-out the [`crate::index::LabelIndex`] + per-snapshot
/// [`cqt_trees::DocSummary`] double check saved, and how much it missed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Per-document executions an unpruned scatter would have performed
    /// (`pruned + survivors`).
    pub candidates: u64,
    /// Documents skipped: the plan's required labels/axes are provably
    /// unsatisfiable on the document's snapshot, so the (empty) answer was
    /// emitted without executing.
    pub pruned: u64,
    /// Documents that survived pruning and executed normally.
    pub survivors: u64,
    /// Survivors whose answer turned out empty anyway — the pruning layer's
    /// missed opportunities, a quality metric for the over-approximation
    /// (never a correctness problem).
    pub false_positives: u64,
}

impl PruneStats {
    /// Fraction of candidate executions pruned (0.0 when nothing ran).
    pub fn prune_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned as f64 / self.candidates as f64
        }
    }

    /// Accumulates another worker's counters into this one.
    pub fn absorb(&mut self, other: &PruneStats) {
        self.candidates += other.candidates;
        self.pruned += other.pruned;
        self.survivors += other.survivors;
        self.false_positives += other.false_positives;
    }
}

/// Replication counters of a leader's serving front end: how much the
/// `REPLICATE` streams shipped and how far behind the followers were when
/// they subscribed — reported over the wire in
/// [`crate::net::protocol::Response::Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Replication streams served.
    pub requests: u64,
    /// Write-ahead-log records streamed to followers.
    pub records_streamed: u64,
    /// Snapshots streamed to followers (cold subscriptions, truncation
    /// gaps, or digest divergence).
    pub snapshots_streamed: u64,
    /// Epochs the subscribing follower was behind the leader's durable
    /// tips, summed over documents, at the start of the most recent
    /// stream.
    pub lag_epochs: u64,
}

/// Renders [`PruneStats`] as the JSON object the corpus reports embed.
pub(crate) fn prune_stats_json(stats: &PruneStats) -> String {
    format!(
        "{{\"candidates\": {}, \"pruned\": {}, \"survivors\": {}, \
         \"false_positives\": {}, \"prune_rate\": {:.4}}}",
        stats.candidates,
        stats.pruned,
        stats.survivors,
        stats.false_positives,
        stats.prune_rate(),
    )
}

/// The result of one [`crate::runner::ServiceRunner::run_corpus`] call: a
/// scatter–gather batch over a sharded multi-document corpus.
#[derive(Clone, Debug)]
pub struct CorpusReport {
    /// Worker threads used.
    pub threads: usize,
    /// Shards of the corpus served.
    pub shards: usize,
    /// Documents in the corpus at run start.
    pub documents: usize,
    /// Scatter–gather requests executed (each may touch many documents).
    pub requests: u64,
    /// Per-document plan executions performed across all requests.
    pub doc_executions: u64,
    /// Wall-clock duration of the whole batch, in nanoseconds.
    pub wall_ns: u64,
    /// Requests per second (scatter–gather requests / wall time).
    pub qps: f64,
    /// Per-request latency percentiles (a request's latency covers its full
    /// scatter–gather, snapshot to last document).
    pub latency: LatencySummary,
    /// Order-independent fingerprint over every per-document answer,
    /// comparable across thread counts and against a single-threaded
    /// per-document replay (the scatter–gather equivalence tests do both).
    pub answer_fingerprint: u64,
    /// Plan cache counters at the end of the run.
    pub plan_cache: PlanCacheStats,
    /// Cross-document plan-sharing summary derived from `plan_cache`.
    pub sharing: SharingSummary,
    /// Pruning counters of the scatter phase (all-zero when pruning is
    /// disabled in the [`crate::runner::ServiceConfig`]).
    pub prune: PruneStats,
}

impl CorpusReport {
    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"threads\": {}, \"shards\": {}, \"documents\": {}, \"requests\": {}, \
             \"doc_executions\": {}, \"wall_ns\": {}, \"qps\": {:.1}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {}, \"max_ns\": {}, \
             \"answer_fingerprint\": {}, \"cross_document_hit_rate\": {:.4}, \
             \"plan_cache\": {}, \"prune\": {}}}",
            self.threads,
            self.shards,
            self.documents,
            self.requests,
            self.doc_executions,
            self.wall_ns,
            self.qps,
            self.latency.p50_ns,
            self.latency.p99_ns,
            self.latency.mean_ns,
            self.latency.max_ns,
            self.answer_fingerprint,
            self.sharing.cross_document_hit_rate,
            plan_cache_json(&self.plan_cache),
            prune_stats_json(&self.prune),
        )
    }
}

/// Cross-query sharing counters of a batched run: how much work the
/// [`crate::batch::PreparedBatch`] layer deduplicated. The first three are
/// plan-time counters (one per distinct batch of the workload); the last
/// three are runtime counters summed over every worker and document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchSharing {
    /// Queries that mapped onto an already-compiled plan of their batch.
    pub deduped_queries: u64,
    /// Distinct entries across the batches' shared-step tables.
    pub shared_steps: u64,
    /// Step resolutions that were hash-cons hits at batch-analysis time —
    /// per-document evaluation the tables save.
    pub reused_steps: u64,
    /// Shared steps evaluated (first touch of a step per document).
    pub step_evals: u64,
    /// Shared-step evaluations saved at runtime: a query requested a step
    /// another query of its batch had already evaluated on that document.
    pub step_hits: u64,
    /// Queries answered empty straight from an empty shared step, without
    /// running an evaluator.
    pub empty_short_circuits: u64,
}

/// Renders [`BatchSharing`] as the JSON object [`BatchReport`] embeds.
pub(crate) fn batch_sharing_json(sharing: &BatchSharing) -> String {
    format!(
        "{{\"deduped_queries\": {}, \"shared_steps\": {}, \"reused_steps\": {}, \
         \"step_evals\": {}, \"step_hits\": {}, \"empty_short_circuits\": {}}}",
        sharing.deduped_queries,
        sharing.shared_steps,
        sharing.reused_steps,
        sharing.step_evals,
        sharing.step_hits,
        sharing.empty_short_circuits,
    )
}

/// The result of one [`crate::runner::ServiceRunner::run_batched`] call: a
/// batched scatter–gather run over a sharded multi-document corpus.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Worker threads used.
    pub threads: usize,
    /// Shards of the corpus served.
    pub shards: usize,
    /// Documents in the corpus at run start.
    pub documents: usize,
    /// Batch instances executed (each serving many queries in one fan-out).
    pub batches: u64,
    /// Query answers produced across all batch instances.
    pub queries: u64,
    /// Per-(query, document) answers folded into the fingerprint.
    pub doc_answers: u64,
    /// Evaluator runs actually performed — below `doc_answers` by exactly
    /// the work that whole-query dedup and pruning saved.
    pub doc_executions: u64,
    /// Wall-clock duration of the whole run, in nanoseconds.
    pub wall_ns: u64,
    /// Query answers per second (`queries` / wall time) — the comparable
    /// number against [`CorpusReport::qps`] on the flattened workload.
    pub qps: f64,
    /// Per-batch-instance latency percentiles (a batch's latency covers
    /// its whole fan-out, every query).
    pub latency: LatencySummary,
    /// Order-independent fingerprint over every per-(query, document)
    /// answer, keyed exactly like [`crate::runner::ServiceRunner::run_corpus`]
    /// on [`crate::batch::BatchWorkload::flatten`] — equality of the two is
    /// the batched path's correctness contract.
    pub answer_fingerprint: u64,
    /// Plan cache counters at the end of the run.
    pub plan_cache: PlanCacheStats,
    /// Cross-query sharing counters of the batch layer.
    pub sharing: BatchSharing,
    /// Pruning counters of the batched scatter (all-zero when pruning is
    /// disabled).
    pub prune: PruneStats,
}

impl BatchReport {
    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"threads\": {}, \"shards\": {}, \"documents\": {}, \"batches\": {}, \
             \"queries\": {}, \"doc_answers\": {}, \"doc_executions\": {}, \
             \"wall_ns\": {}, \"qps\": {:.1}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {}, \"max_ns\": {}, \
             \"answer_fingerprint\": {}, \"plan_cache\": {}, \"sharing\": {}, \
             \"prune\": {}}}",
            self.threads,
            self.shards,
            self.documents,
            self.batches,
            self.queries,
            self.doc_answers,
            self.doc_executions,
            self.wall_ns,
            self.qps,
            self.latency.p50_ns,
            self.latency.p99_ns,
            self.latency.mean_ns,
            self.latency.max_ns,
            self.answer_fingerprint,
            plan_cache_json(&self.plan_cache),
            batch_sharing_json(&self.sharing),
            prune_stats_json(&self.prune),
        )
    }
}

/// The result of one [`crate::runner::ServiceRunner::run_corpus_mutating`]
/// call: a multi-writer read/write run over a sharded corpus.
#[derive(Clone, Debug)]
pub struct CorpusMutationReport {
    /// Reader threads used (each writer is one extra thread).
    pub threads: usize,
    /// Writer threads that ran.
    pub writers: usize,
    /// Read requests executed (including the per-document epoch probes).
    pub reads: u64,
    /// Wall-clock duration of the whole run, in nanoseconds.
    pub wall_ns: u64,
    /// Read requests per second.
    pub qps: f64,
    /// Per-read latency percentiles.
    pub latency: LatencySummary,
    /// Commit reports per mutated document, in each writer's commit order.
    pub commits: BTreeMap<DocId, Vec<CommitReport>>,
    /// Every distinct `(document, query index, epoch, answer fingerprint)`
    /// a reader observed — checked against a
    /// [`crate::shard::CorpusMutationOracle`].
    pub observations: BTreeSet<(DocId, usize, u64, u64)>,
    /// Plan cache counters at the end of the run.
    pub plan_cache: PlanCacheStats,
    /// Cross-document plan-sharing summary derived from `plan_cache`.
    pub sharing: SharingSummary,
    /// Pruning counters of the readers' scatter phases (all-zero when
    /// pruning is disabled).
    pub prune: PruneStats,
}

impl CorpusMutationReport {
    /// The distinct epochs readers observed for `doc`.
    pub fn epochs_observed_for(&self, doc: &DocId) -> BTreeSet<u64> {
        self.observations
            .iter()
            .filter(|(id, _, _, _)| id == doc)
            .map(|&(_, _, epoch, _)| epoch)
            .collect()
    }

    /// The epoch each mutated document ended on.
    pub fn final_epochs(&self) -> BTreeMap<DocId, u64> {
        self.commits
            .iter()
            .map(|(id, commits)| (id.clone(), commits.last().map_or(0, |c| c.epoch)))
            .collect()
    }

    /// Total commits across all writers.
    pub fn total_commits(&self) -> usize {
        self.commits.values().map(Vec::len).sum()
    }

    /// Total cache entries carried across all commits of all documents.
    pub fn carried_entries(&self) -> u64 {
        self.commits
            .values()
            .flatten()
            .map(|c| c.carried_relations + c.carried_label_sets)
            .sum()
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"threads\": {}, \"writers\": {}, \"reads\": {}, \"wall_ns\": {}, \
             \"qps\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}, \"commits\": {}, \
             \"mutated_documents\": {}, \"carried_entries\": {}, \
             \"cross_document_hit_rate\": {:.4}, \"plan_cache\": {}, \"prune\": {}}}",
            self.threads,
            self.writers,
            self.reads,
            self.wall_ns,
            self.qps,
            self.latency.p50_ns,
            self.latency.p99_ns,
            self.total_commits(),
            self.commits.len(),
            self.carried_entries(),
            self.sharing.cross_document_hit_rate,
            plan_cache_json(&self.plan_cache),
            prune_stats_json(&self.prune),
        )
    }

    /// An empty report for oracle unit tests.
    #[cfg(test)]
    pub(crate) fn empty_for_test() -> Self {
        CorpusMutationReport {
            threads: 0,
            writers: 0,
            reads: 0,
            wall_ns: 0,
            qps: 0.0,
            latency: LatencySummary::default(),
            commits: BTreeMap::new(),
            observations: BTreeSet::new(),
            plan_cache: PlanCacheStats::default(),
            sharing: SharingSummary::default(),
            prune: PruneStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_percentiles() {
        let summary = LatencySummary::from_samples((1..=100).collect());
        // Ceiling nearest-rank on n = 100: rank ⌈0.5·100⌉ = 50 → the 50th
        // sample, rank ⌈0.99·100⌉ = 99, rank ⌈0.999·100⌉ = 100.
        assert_eq!(summary.p50_ns, 50);
        assert_eq!(summary.p99_ns, 99);
        assert_eq!(summary.p999_ns, 100);
        assert_eq!(summary.mean_ns, 50);
        assert_eq!(summary.max_ns, 100);
        assert_eq!(
            LatencySummary::from_samples(Vec::new()),
            LatencySummary::default()
        );
        let single = LatencySummary::from_samples(vec![7]);
        assert_eq!(single.p50_ns, 7);
        assert_eq!(single.p99_ns, 7);
    }

    #[test]
    fn percentiles_use_ceiling_nearest_rank_on_small_samples() {
        // n = 10: p50 is rank ⌈5⌉ = 5 (value 50); p99 is rank ⌈9.9⌉ = 10
        // (the max — with only ten samples the 99th percentile *is* the
        // worst observation); the rounding bug would have picked rank 10
        // for p99 too, but rank 6 for p50.
        let samples: Vec<u64> = (1..=10).map(|i| i * 10).collect();
        let summary = LatencySummary::from_samples(samples);
        assert_eq!(summary.p50_ns, 50);
        assert_eq!(summary.p99_ns, 100);
        assert_eq!(summary.p999_ns, 100);
        // n = 3: p50 is rank ⌈1.5⌉ = 2. The old `.round()` on index
        // (2 × 0.5 = 1.0) happened to agree here, but p99 (index
        // (2 × 0.99).round() = 2) and rank ⌈2.97⌉ = 3 both give the max.
        let summary = LatencySummary::from_samples(vec![30, 10, 20]);
        assert_eq!(summary.p50_ns, 20);
        assert_eq!(summary.p99_ns, 30);
        // n = 2: p50 is rank ⌈1⌉ = 1 — the *lower* of the two samples.
        // The rounding bug picked index (1 × 0.5).round() = 1, the upper.
        let summary = LatencySummary::from_samples(vec![100, 1]);
        assert_eq!(summary.p50_ns, 1);
        assert_eq!(summary.p99_ns, 100);
        assert_eq!(summary.p999_ns, 100);
    }

    #[test]
    fn doc_keys_wrap_and_separate_positions() {
        assert_eq!(doc_fp_key(0, 5), 5);
        assert_ne!(doc_fp_key(1, 0), doc_fp_key(0, 1));
        // Client-chosen keys near the top of the range wrap, never panic.
        assert_eq!(
            doc_fp_key(u64::MAX, 1),
            doc_fp_key(u64::MAX, 0).wrapping_add(1)
        );
    }

    #[test]
    fn prune_stats_rate_and_json() {
        let mut stats = PruneStats {
            candidates: 8,
            pruned: 6,
            survivors: 2,
            false_positives: 1,
        };
        assert!((stats.prune_rate() - 0.75).abs() < 1e-9);
        assert_eq!(PruneStats::default().prune_rate(), 0.0);
        stats.absorb(&PruneStats {
            candidates: 2,
            pruned: 0,
            survivors: 2,
            false_positives: 0,
        });
        assert_eq!(stats.candidates, 10);
        assert_eq!(stats.survivors, 4);
        let json = prune_stats_json(&stats);
        assert!(json.contains("\"pruned\": 6"), "{json}");
        assert!(json.contains("\"prune_rate\": 0.6000"), "{json}");
    }

    #[test]
    fn report_json_is_well_formed() {
        let plan_cache = PlanCacheStats {
            hits: 95,
            misses: 5,
            analyses: 5,
            cross_document_hits: 2,
        };
        let report = CorpusReport {
            threads: 4,
            shards: 2,
            documents: 3,
            requests: 100,
            doc_executions: 250,
            wall_ns: 1_000_000,
            qps: 100_000.0,
            latency: LatencySummary {
                p50_ns: 10,
                p99_ns: 90,
                p999_ns: 94,
                mean_ns: 20,
                max_ns: 95,
            },
            answer_fingerprint: 42,
            sharing: SharingSummary::from_stats(&plan_cache),
            plan_cache,
            prune: PruneStats::default(),
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for field in [
            "\"threads\": 4",
            "\"qps\": 100000.0",
            "\"p99_ns\": 90",
            "\"analyses\": 5",
            "\"cross_document_hits\": 2",
            "\"doc_executions\": 250",
            "\"cross_document_hit_rate\": 0.0200",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }
}
