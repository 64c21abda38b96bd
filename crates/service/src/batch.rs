//! Batched multi-query execution over a sharded corpus.
//!
//! A [`BatchWorkload`] groups k queries into one scatter–gather unit: the
//! batch resolves its [`FanOut`] once, snapshots each document once, and
//! serves every query of the batch from that single snapshot. Three layers
//! of sharing make the batched path cheaper than k one-at-a-time requests:
//!
//! * **whole-query dedup** — repeated [`QuerySpec`]s inside a batch map to
//!   one plan and one execution per document;
//! * **shared-step table** — the distinct queries' compiled disjuncts are
//!   analysed together by a [`cqt_core::BatchPlan`], so identical axis atoms
//!   and location-path prefixes across queries evaluate once per document
//!   and the union of required label sets is warmed up front;
//! * **union pruning** — the corpus label index is intersected once for the
//!   batch's union label requirements; each query then re-checks the
//!   decision against the document's own snapshot summary, so pruning stays
//!   fingerprint-exact per query.
//!
//! The contract tying it all down: [`BatchWorkload::flatten`] produces the
//! [`CorpusWorkload`] of the same queries one-at-a-time, and
//! [`crate::runner::ServiceRunner::run_batched`] folds per-query answers
//! under exactly the fingerprint keys
//! [`crate::runner::ServiceRunner::run_corpus`] would use on that flattened
//! workload — so batched and unbatched runs are fingerprint-identical, with
//! pruning on or off, on quiesced or freshly recovered corpora.

use std::collections::BTreeSet;
use std::sync::Arc;

use cqt_core::{Answer, AnswerSink, BatchPlan, BatchScratch};

use crate::index::LabelIndex;
use crate::plan::{union_of_disjuncts, Plan, PlanCache, PlanKey, PlanOptions};
use crate::runner::{serve_document, PruneCheck};
use crate::shard::{DocId, Document, FanOut};
use crate::stats::PruneStats;
use crate::workload::{CorpusRequest, CorpusWorkload, QuerySpec};

/// One batch: k queries served from a single fan-out and a single snapshot
/// per document.
#[derive(Clone, Debug)]
pub struct BatchRequest {
    /// The queries of the batch, in answer order.
    pub queries: Vec<QuerySpec>,
    /// The fan-out target shared by every query of the batch.
    pub target: FanOut,
}

/// A workload of batches: every batch of `batches`, `repeats` times over,
/// interleaved batch-first like [`CorpusWorkload`] interleaves requests.
#[derive(Clone, Debug)]
pub struct BatchWorkload {
    /// The batch mix.
    pub batches: Vec<BatchRequest>,
    /// How many times to run the full batch list.
    pub repeats: usize,
}

impl BatchWorkload {
    /// Builds a batch workload.
    pub fn new(batches: Vec<BatchRequest>, repeats: usize) -> Self {
        BatchWorkload { batches, repeats }
    }

    /// Total batch instances the runner will execute.
    pub fn batch_count(&self) -> usize {
        self.batches.len() * self.repeats
    }

    /// Total query answers the runner will produce (each of which may fan
    /// out to many per-document answers).
    pub fn query_count(&self) -> usize {
        self.flat_len() * self.repeats
    }

    /// The batch index behind running batch instance `i`.
    pub(crate) fn batch_of(&self, i: usize) -> usize {
        i % self.batches.len()
    }

    /// Number of queries across all batches (one flattening round).
    pub fn flat_len(&self) -> usize {
        self.batches.iter().map(|b| b.queries.len()).sum()
    }

    /// `flat_base[b]` = index of batch `b`'s first query in the flattened
    /// request list; query `q` of batch `b` on repeat `r` is flat request
    /// `r * flat_len + flat_base[b] + q`.
    pub(crate) fn flat_base(&self) -> Vec<usize> {
        let mut base = Vec::with_capacity(self.batches.len());
        let mut acc = 0;
        for batch in &self.batches {
            base.push(acc);
            acc += batch.queries.len();
        }
        base
    }

    /// The same queries as one-at-a-time scatter–gather requests:
    /// batch order, query order within each batch, same repeat count.
    /// [`crate::runner::ServiceRunner::run_corpus`] on this workload is the
    /// reference run_batched must match fingerprint for fingerprint.
    pub fn flatten(&self) -> CorpusWorkload {
        let requests = self
            .batches
            .iter()
            .flat_map(|batch| {
                batch.queries.iter().map(|query| CorpusRequest {
                    query: query.clone(),
                    target: batch.target.clone(),
                })
            })
            .collect();
        CorpusWorkload::new(requests, self.repeats)
    }
}

/// One batch's queries compiled and analysed for sharing: the deduplicated
/// plans, the cross-query [`BatchPlan`] over their flattened disjuncts, and
/// the union-label posting-list intersection. Immutable and `Sync`; all
/// per-document state lives in the caller's [`BatchScratch`].
#[derive(Debug)]
pub struct PreparedBatch {
    /// One compiled plan per *distinct* spec, in first-appearance order.
    plans: Vec<Arc<Plan>>,
    /// Maps each original query index to its entry in `plans`.
    unique_of: Vec<usize>,
    /// The inverse of `unique_of`: the original query indices of each entry
    /// in `plans`, ascending.
    slots: Vec<Vec<usize>>,
    /// Shared-step analysis over the concatenation of every distinct
    /// plan's disjuncts.
    batch_plan: BatchPlan,
    /// `disjunct_base[u]` = index of plan `u`'s first disjunct in the
    /// flattened disjunct list `batch_plan` was built over.
    disjunct_base: Vec<usize>,
    /// Posting-list survivors of the batch's label-requirement union
    /// (`None` = the index cannot constrain the batch), present only when
    /// pruning is enabled.
    prune: Option<Option<BTreeSet<DocId>>>,
}

impl PreparedBatch {
    /// Compiles and analyses `queries`. Plans resolve through `cache` under
    /// document-independent keys — the same plans every document of the
    /// fan-out will share. `prune_index` enables pruning: the posting lists
    /// of the union of every distinct query's required labels are
    /// intersected once, here.
    pub fn prepare(
        queries: &[QuerySpec],
        cache: &PlanCache,
        options: &PlanOptions,
        prune_index: Option<&LabelIndex>,
    ) -> Self {
        let mut plans: Vec<Arc<Plan>> = Vec::new();
        let mut unique_specs: Vec<&QuerySpec> = Vec::new();
        let mut unique_of = Vec::with_capacity(queries.len());
        for spec in queries {
            // Linear scan on spec equality: batches are small (tens of
            // queries), and PlanKey's 64-bit hash alone must never decide
            // identity.
            match unique_specs.iter().position(|seen| *seen == spec) {
                Some(u) => unique_of.push(u),
                None => {
                    let key = PlanKey::of_spec(spec).with_options(options);
                    plans.push(cache.get_or_compile_keyed(key, spec, options));
                    unique_specs.push(spec);
                    unique_of.push(plans.len() - 1);
                }
            }
        }
        let mut slots = vec![Vec::new(); plans.len()];
        for (q, &u) in unique_of.iter().enumerate() {
            slots[u].push(q);
        }
        let mut disjunct_base = Vec::with_capacity(plans.len());
        let mut flat: Vec<&cqt_core::CompiledQuery> = Vec::new();
        for plan in &plans {
            disjunct_base.push(flat.len());
            flat.extend(plan.disjuncts().iter());
        }
        let batch_plan = BatchPlan::new(&flat);
        let prune = prune_index.map(|index| {
            let mut union: Vec<String> = plans
                .iter()
                .flat_map(|plan| plan.required_labels().iter().cloned())
                .collect();
            union.sort_unstable();
            union.dedup();
            index.candidates(&union)
        });
        PreparedBatch {
            plans,
            unique_of,
            slots,
            batch_plan,
            disjunct_base,
            prune,
        }
    }

    /// Number of distinct plans behind the batch's queries.
    pub fn unique_count(&self) -> usize {
        self.plans.len()
    }

    /// Queries that mapped onto an already-compiled plan of the same batch.
    pub fn deduped_queries(&self) -> usize {
        self.unique_of.len() - self.plans.len()
    }

    /// Distinct entries of the cross-query shared-step table.
    pub fn shared_steps(&self) -> usize {
        self.batch_plan.shared_step_count()
    }

    /// Step resolutions that were hash-cons hits across the batch.
    pub fn reused_steps(&self) -> usize {
        self.batch_plan.reused_steps()
    }

    /// Serves every query of the batch from one snapshot of `document`,
    /// appending one [`Answer`] per *original* query (so `answers` lines up
    /// with the `queries` slice passed to [`PreparedBatch::prepare`];
    /// duplicates within the batch share one execution). Returns the number
    /// of evaluator runs actually performed on this document.
    ///
    /// Each distinct query goes through the scatter paths' shared
    /// per-document step, with the shared-step table as its executor. With
    /// pruning enabled the step re-validates the union posting-list
    /// decision against the snapshot's own summary — a document outside the
    /// union survivors falls back to the exact per-plan [`Plan::prunes`]
    /// check, so a pruned answer is provably the empty answer and
    /// fingerprints match the unpruned run bit for bit.
    pub fn execute_document(
        &self,
        document: &Document,
        scratch: &mut BatchScratch,
        answers: &mut Vec<Answer>,
        prune_stats: &mut PruneStats,
    ) -> u64 {
        let mut sinks: Vec<AnswerSink> = self
            .plans
            .iter()
            .map(|plan| AnswerSink::collect(plan.head_arity()))
            .collect();
        let executions = self.serve(document, scratch, &mut sinks, prune_stats);
        answers.extend(
            self.unique_of
                .iter()
                .map(|&u| sinks[u].answer().expect("a collecting sink").clone()),
        );
        executions
    }

    /// Serves every query of the batch from one snapshot of `document` as
    /// [`PreparedBatch::execute_document`] does, but adds
    /// `answer_fingerprint(keys[q], answer)` to `fingerprints[q]` (wrapping)
    /// instead of returning the answers: each distinct query folds its
    /// answer as it is found, under the keys of every original query it
    /// stands for.
    pub fn fold_document(
        &self,
        document: &Document,
        scratch: &mut BatchScratch,
        keys: &[u64],
        fingerprints: &mut [u64],
        prune_stats: &mut PruneStats,
    ) -> u64 {
        let mut sinks: Vec<AnswerSink> = self
            .plans
            .iter()
            .zip(&self.slots)
            .map(|(plan, slots)| {
                AnswerSink::fingerprints(slots.iter().map(|&q| keys[q]), plan.head_arity())
            })
            .collect();
        let executions = self.serve(document, scratch, &mut sinks, prune_stats);
        for (sink, slots) in sinks.iter().zip(&self.slots) {
            for (&q, folded) in slots.iter().zip(sink.fingerprint_values()) {
                fingerprints[q] = fingerprints[q].wrapping_add(folded);
            }
        }
        executions
    }

    /// Serves every distinct plan `u` of the batch into `sinks[u]` from one
    /// snapshot of `document`; returns the evaluator runs performed.
    fn serve(
        &self,
        document: &Document,
        scratch: &mut BatchScratch,
        sinks: &mut [AnswerSink],
        prune_stats: &mut PruneStats,
    ) -> u64 {
        let snapshot = document.handle().snapshot();
        scratch.begin_document(&self.batch_plan, snapshot.prepared.tree().len());
        let summary = snapshot.prepared.doc_summary();
        let mut executions = 0u64;
        for (u, (plan, sink)) in self.plans.iter().zip(sinks).enumerate() {
            let check = self.prune.as_ref().map(|survivors| PruneCheck {
                plan,
                index_candidate: survivors
                    .as_ref()
                    .map_or(true, |s| s.contains(document.id())),
            });
            serve_document(check, summary, prune_stats, sink, |sink| {
                executions += 1;
                self.execute_unique(u, &snapshot.prepared, scratch, sink)
            });
        }
        executions
    }

    /// Executes distinct plan `u` through the shared-step table into `sink`,
    /// unioning its disjuncts with the union [`Plan::execute`] uses —
    /// answer equality with the one-at-a-time path is what the differential
    /// suite checks.
    fn execute_unique(
        &self,
        u: usize,
        prepared: &cqt_trees::PreparedTree,
        scratch: &mut BatchScratch,
        sink: &mut AnswerSink,
    ) {
        let plan = &self.plans[u];
        let base = self.disjunct_base[u];
        let disjuncts = plan.disjuncts();
        if let [disjunct] = disjuncts {
            return self
                .batch_plan
                .execute_into(base, disjunct, prepared, scratch, sink);
        }
        sink.push_answer(union_of_disjuncts(
            plan.head_arity(),
            disjuncts.len(),
            |k| {
                self.batch_plan
                    .execute(base + k, &disjuncts[k], prepared, scratch)
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::Corpus;
    use cqt_trees::parse::parse_term;

    fn corpus() -> Corpus {
        let corpus = Corpus::new(2);
        corpus
            .insert(
                "d0",
                parse_term("R(S(NP(DT, NN), VP(VB, NP(NN))), S(NP(NN), VP(VB)))").unwrap(),
            )
            .unwrap();
        corpus
            .insert("d1", parse_term("R(A(B(C), B), C(B))").unwrap())
            .unwrap();
        corpus
    }

    fn specs() -> Vec<QuerySpec> {
        vec![
            QuerySpec::parse_cq("Q(y) :- S(x), Child(x, y), NP(y).").unwrap(),
            QuerySpec::parse_xpath("//NP | //B").unwrap(),
            // Duplicate of the first — must dedup to one plan.
            QuerySpec::parse_cq("Q(y) :- S(x), Child(x, y), NP(y).").unwrap(),
            QuerySpec::parse_cq("Q() :- A(x), Child(x, y), B(y).").unwrap(),
        ]
    }

    #[test]
    fn flatten_preserves_batch_and_query_order() {
        let workload = BatchWorkload::new(
            vec![
                BatchRequest {
                    queries: specs(),
                    target: FanOut::All,
                },
                BatchRequest {
                    queries: specs()[..2].to_vec(),
                    target: FanOut::One("d1".into()),
                },
            ],
            3,
        );
        assert_eq!(workload.batch_count(), 6);
        assert_eq!(workload.flat_len(), 6);
        assert_eq!(workload.query_count(), 18);
        assert_eq!(workload.flat_base(), vec![0, 4]);
        let flat = workload.flatten();
        assert_eq!(flat.request_count(), 18);
        assert_eq!(flat.requests.len(), 6);
        assert_eq!(flat.requests[1].query, specs()[1]);
        assert_eq!(flat.requests[4].query, specs()[0]);
        assert!(matches!(flat.requests[5].target, FanOut::One(_)));
    }

    #[test]
    fn prepared_batch_dedups_and_matches_plan_execution() {
        let corpus = corpus();
        let cache = PlanCache::new();
        let options = PlanOptions::default();
        let queries = specs();
        let batch = PreparedBatch::prepare(&queries, &cache, &options, None);
        assert_eq!(batch.unique_count(), 3);
        assert_eq!(batch.deduped_queries(), 1);
        assert!(batch.reused_steps() > 0);

        let mut scratch = BatchScratch::new();
        let mut exec = cqt_core::ExecScratch::new();
        for document in corpus.select(&FanOut::All).iter() {
            let mut answers = Vec::new();
            let mut prune = PruneStats::default();
            let executed = batch.execute_document(document, &mut scratch, &mut answers, &mut prune);
            assert_eq!(executed, 3, "one execution per distinct plan");
            assert_eq!(answers.len(), queries.len());
            let snapshot = document.handle().snapshot();
            for (q, spec) in queries.iter().enumerate() {
                let (plan, _) = Plan::compile(spec, &options);
                let expected = plan.execute(&snapshot.prepared, &mut exec);
                assert_eq!(answers[q], expected, "query {q} on {:?}", document.id());
            }
            assert_eq!(prune, PruneStats::default(), "pruning was disabled");
        }
    }

    #[test]
    fn union_pruning_is_answer_exact() {
        let corpus = corpus();
        let cache = PlanCache::new();
        let options = PlanOptions::default();
        let queries = specs();
        let unpruned = PreparedBatch::prepare(&queries, &cache, &options, None);
        let pruned = PreparedBatch::prepare(&queries, &cache, &options, Some(corpus.label_index()));
        let mut scratch = BatchScratch::new();
        for document in corpus.select(&FanOut::All).iter() {
            let mut plain = Vec::new();
            let mut checked = Vec::new();
            let mut stats = PruneStats::default();
            unpruned.execute_document(document, &mut scratch, &mut plain, &mut stats);
            let mut stats = PruneStats::default();
            let executed =
                pruned.execute_document(document, &mut scratch, &mut checked, &mut stats);
            assert_eq!(plain, checked);
            // d0 has no A/B labels and d1 has no S/NP: the union intersection
            // is empty, so every document exact-checks and prunes what it
            // provably cannot answer.
            assert_eq!(stats.candidates, 3);
            assert!(stats.pruned > 0, "{stats:?}");
            assert_eq!(executed, stats.survivors);
        }
    }
}
