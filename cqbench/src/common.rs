//! Pieces the workloads share: corpus generation, input descriptors, and the
//! traced in-process replay of one request through each serving layer's
//! public entry points.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

use cqt_core::{arc, Answer, BatchScratch, ExecScratch, SelectedStrategy};
use cqt_service::{
    answer_fingerprint, Corpus, DocId, FanOut, Plan, PlanCache, PlanKey, PlanOptions,
    PreparedBatch, PruneStats, QuerySpec,
};
use cqt_trees::generate::{document_corpus, DocumentCorpusConfig, LabelVocabulary};
use cqt_trees::{DocSummary, PreparedTree, Tree};
use rand::rngs::StdRng;

use crate::trace::{ratio, SpanTotals, Tracer};
use crate::Report;

/// Shape of a generated corpus.
pub struct CorpusShape {
    pub documents: usize,
    pub nodes_per_document: usize,
    pub distinct: usize,
    pub vocabulary: LabelVocabulary,
    /// Every fourth document carries the `hot` tag.
    pub hot_tags: bool,
}

/// Generates the corpus trees and inserts them into `corpus` as
/// `doc-0000`, `doc-0001`, …
pub fn populate(corpus: &Corpus, rng: &mut StdRng, shape: &CorpusShape) -> (Vec<DocId>, Vec<Tree>) {
    let trees = document_corpus(
        rng,
        &DocumentCorpusConfig {
            documents: shape.documents,
            distinct: shape.distinct,
            nodes_per_document: shape.nodes_per_document,
            vocabulary: shape.vocabulary,
            ..DocumentCorpusConfig::default()
        },
    );
    let ids: Vec<DocId> = (0..shape.documents)
        .map(|i| DocId::new(format!("doc-{i:04}")))
        .collect();
    for (i, tree) in trees.iter().enumerate() {
        let tags: &[&str] = if shape.hot_tags && i % 4 == 0 {
            &["hot"]
        } else {
            &[]
        };
        corpus
            .insert_tagged(ids[i].clone(), tags, tree.clone())
            .expect("generated document ids are unique");
    }
    (ids, trees)
}

/// The corpus descriptor: per-document node counts, depths and label counts
/// from each document's public `DocSummary` (min / mean / max), and the
/// structure-hash collision rate.
pub fn describe_corpus(report: &mut Report, corpus: &Corpus, shape: &CorpusShape) {
    let summaries: Vec<DocSummary> = corpus
        .documents()
        .iter()
        .map(|d| d.handle().snapshot().prepared.doc_summary().clone())
        .collect();
    let stat = |f: &dyn Fn(&DocSummary) -> f64| {
        let values: Vec<f64> = summaries.iter().map(f).collect();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(0.0, f64::max);
        let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
        format!("{{\"min\": {min}, \"mean\": {mean:.1}, \"max\": {max}}}")
    };
    report.describe(
        "corpus",
        format!(
            "{{\"documents\": {}, \"nodes_per_document\": {}, \"templates\": {}, \
             \"vocabulary\": \"{:?}\", \"hot_tagged\": {}, \"shards\": {}, \
             \"nodes\": {}, \"max_depth\": {}, \"distinct_labels\": {}, \
             \"structure_collision_rate\": {:.4}}}",
            shape.documents,
            shape.nodes_per_document,
            shape.distinct,
            shape.vocabulary,
            if shape.hot_tags {
                shape.documents.div_ceil(4)
            } else {
                0
            },
            corpus.shard_count(),
            stat(&|s| s.node_count() as f64),
            stat(&|s| f64::from(s.max_depth())),
            stat(&|s| s.labels().len() as f64),
            corpus.structure_collision_rate(),
        ),
    );
}

/// Renders a list of strings as a JSON array.
pub fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("[{}]", quoted.join(", "))
}

/// The number of nodes or tuples in an answer (1/0 for a Boolean).
pub fn answer_size(answer: &Answer) -> usize {
    match answer {
        Answer::Boolean(b) => usize::from(*b),
        Answer::Nodes(nodes) => nodes.len(),
        Answer::Tuples(tuples) => tuples.len(),
    }
}

/// The span a plan's execution is recorded under: grouped by the engine
/// the dichotomy selected.
pub fn exec_span(spec: &QuerySpec, plan: &Plan) -> &'static str {
    if matches!(spec, QuerySpec::XPath(_)) {
        return "exec.xpath";
    }
    if plan.head_arity() >= 2 {
        return "exec.kary";
    }
    match plan.disjuncts().first().map(|d| d.strategy()) {
        Some(SelectedStrategy::Yannakakis) => "exec.yannakakis",
        Some(SelectedStrategy::XProperty) => "exec.xproperty",
        Some(SelectedStrategy::Mac) => "exec.mac",
        Some(SelectedStrategy::Naive) => "exec.naive",
        None => "exec.empty",
    }
}

/// The serving layer's per-document pruning decision, rebuilt from public
/// `Plan` and `DocSummary` calls: a document outside the posting-list
/// survivors is confirmed against its own summary; a survivor is checked on
/// axes only.
fn prunes(plan: &Plan, index_candidate: bool, summary: &DocSummary) -> bool {
    if plan.is_always_empty() {
        return true;
    }
    if !index_candidate {
        return plan.prunes(summary);
    }
    plan.required_axes()
        .iter()
        .any(|&axis| !summary.can_satisfy(axis))
}

/// Replays requests in-process through the public entry points of each
/// layer — fan-out selection, plan cache, label index, snapshot, prune
/// check, engine, fingerprint — exactly in the order the TCP worker and the
/// corpus runner call them, recording one span per call.
pub struct Replayer<'c> {
    corpus: &'c Corpus,
    cache: PlanCache,
    pub options: PlanOptions,
    scratch: ExecScratch,
    batch_scratch: BatchScratch,
    /// Pruning counters `PreparedBatch::execute_document` updates.
    batch_prune: PruneStats,
    /// Also time the arc-consistency entry points (`initial_prevaluation`,
    /// `arc_consistent_from`) and the k-ary Boolean reduction beside each
    /// execution.
    engine_detail: bool,
    pub tuples: u64,
    pub batch_deduped: u64,
}

impl<'c> Replayer<'c> {
    pub fn new(corpus: &'c Corpus, engine_detail: bool) -> Self {
        Replayer {
            corpus,
            cache: PlanCache::new(),
            options: PlanOptions::default(),
            scratch: ExecScratch::new(),
            batch_scratch: BatchScratch::new(),
            batch_prune: PruneStats::default(),
            engine_detail,
            tuples: 0,
            batch_deduped: 0,
        }
    }

    /// One query over `target`; returns its answer fingerprint under the
    /// serving layer's `fp_key * 1_000_003 + doc_position` keying.
    pub fn single(
        &mut self,
        tr: &mut Tracer,
        spec: &QuerySpec,
        target: &FanOut,
        fp_key: u64,
    ) -> u64 {
        let documents = tr.time("shard.select", || self.corpus.select(target));
        let key = PlanKey::of_spec(spec).with_options(&self.options);
        let base = tr.time("plan.lookup", || {
            self.cache.get_or_compile(spec, &self.options)
        });
        let empty = base.empty_answer();
        let survivors = tr.time("index.candidates", || {
            self.corpus.label_index().candidates(base.required_labels())
        });
        let exec_name = exec_span(spec, &base);
        let mut fingerprint = 0u64;
        for (j, document) in documents.iter().enumerate() {
            let fp_key = fp_key.wrapping_mul(1_000_003).wrapping_add(j as u64);
            let snapshot = tr.time("corpus.snapshot", || document.handle().snapshot());
            let pruned = tr.time("prune.check", || {
                let index_candidate = match &survivors {
                    Some(ids) => ids.contains(document.id()),
                    None => true,
                };
                prunes(&base, index_candidate, snapshot.prepared.doc_summary())
            });
            if pruned {
                let folded = tr.time("fingerprint", || answer_fingerprint(fp_key, &empty));
                fingerprint = fingerprint.wrapping_add(folded);
                continue;
            }
            let plan = tr.time("plan.lookup", || {
                self.cache.get_or_compile_tagged(
                    key.with_document(snapshot.prepared.structure_hash()),
                    spec,
                    &self.options,
                    document.doc_tag(),
                )
            });
            if self.engine_detail {
                self.engine_calls(tr, spec, &plan, &snapshot.prepared);
            }
            let answer = tr.time(exec_name, || {
                plan.execute(&snapshot.prepared, &mut self.scratch)
            });
            if let Answer::Tuples(tuples) = &answer {
                self.tuples += tuples.len() as u64;
            }
            let folded = tr.time("fingerprint", || answer_fingerprint(fp_key, &answer));
            fingerprint = fingerprint.wrapping_add(folded);
        }
        fingerprint
    }

    /// The engine entry points beneath `Plan::execute`, called beside it:
    /// the label load and arc-consistency fixpoint of each disjunct, or the
    /// Boolean reduction of a k-ary query (whose enumeration is then
    /// `execute` minus this).
    fn engine_calls(
        &mut self,
        tr: &mut Tracer,
        spec: &QuerySpec,
        plan: &Plan,
        prepared: &PreparedTree,
    ) {
        if !matches!(spec, QuerySpec::Cq(_)) {
            return;
        }
        for disjunct in plan.disjuncts() {
            if plan.head_arity() >= 2 {
                let reduced = tr.time("exec.kary_reduce", || {
                    disjunct.execute_boolean(prepared, &mut self.scratch)
                });
                black_box(reduced);
            } else {
                let start = tr.time("prepared.label_load", || {
                    arc::initial_prevaluation(prepared.tree(), disjunct.query())
                });
                let fixpoint = tr.time("exec.ac", || {
                    arc::arc_consistent_from_with(
                        prepared.tree(),
                        disjunct.query(),
                        start,
                        self.scratch.ac_scratch(),
                    )
                });
                black_box(fixpoint);
            }
        }
    }

    /// A batch over one fan-out through `PreparedBatch`; returns one
    /// fingerprint per query, each keyed like [`Replayer::single`].
    pub fn batch(
        &mut self,
        tr: &mut Tracer,
        specs: &[QuerySpec],
        target: &FanOut,
        fp_key: u64,
    ) -> Vec<u64> {
        let documents = tr.time("shard.select", || self.corpus.select(target));
        let batch = tr.time("batch.prepare", || {
            PreparedBatch::prepare(
                specs,
                &self.cache,
                &self.options,
                Some(self.corpus.label_index()),
            )
        });
        self.batch_deduped += batch.deduped_queries() as u64;
        let mut fingerprints = vec![0u64; specs.len()];
        let mut answers = Vec::with_capacity(specs.len());
        for (j, document) in documents.iter().enumerate() {
            answers.clear();
            tr.time("batch.execute", || {
                batch.execute_document(
                    document,
                    &mut self.batch_scratch,
                    &mut answers,
                    &mut self.batch_prune,
                )
            });
            let fp_key = fp_key.wrapping_mul(1_000_003).wrapping_add(j as u64);
            for (q, answer) in answers.iter().enumerate() {
                let folded = tr.time("fingerprint", || answer_fingerprint(fp_key, answer));
                fingerprints[q] = fingerprints[q].wrapping_add(folded);
            }
        }
        fingerprints
    }

    /// Shared-step hits over evaluations across every batch replayed.
    pub fn batch_step_hit_rate(&self) -> f64 {
        ratio(
            self.batch_scratch.step_hits() as f64,
            self.batch_scratch.step_evals() as f64,
        )
    }
}

/// Sum of label-set and relation builds over every document's current
/// snapshot: a difference across a replay counts the lazy builds it paid.
pub fn prepared_builds(corpus: &Corpus) -> (u64, u64) {
    corpus
        .documents()
        .iter()
        .fold((0, 0), |(labels, relations), d| {
            let prepared = Arc::clone(&d.handle().snapshot().prepared);
            (
                labels + prepared.label_set_builds(),
                relations + prepared.relation_builds(),
            )
        })
}

/// Reports the per-layer metrics a trace's spans give: per-call means of
/// each layer entry point and the self-time share of each layer (its spans'
/// self time over the total time of the root spans).
pub fn report_spans(
    report: &mut Report,
    totals: &BTreeMap<&'static str, SpanTotals>,
    roots: &[&str],
) {
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let mean_us = |name: &str| get(name).mean_ns() / 1e3;
    report.set("frame.decode_ns", get("frame.decode").mean_ns());
    report.set("protocol.decode_ns", get("protocol.decode").mean_ns());
    report.set("protocol.encode_ns", get("protocol.encode").mean_ns());
    report.set("parse.cq_us", mean_us("parse.cq"));
    report.set("parse.xpath_us", mean_us("parse.xpath"));
    report.set("plan.lookup_ns", get("plan.lookup").mean_ns());
    report.set("plan.compile_us", mean_us("plan.compile"));
    report.set("index.candidates_us", mean_us("index.candidates"));
    report.set("prune.check_ns", get("prune.check").mean_ns());
    report.set("shard.select_ns", get("shard.select").mean_ns());
    report.set("corpus.snapshot_ns", get("corpus.snapshot").mean_ns());
    report.set("prepared.label_load_us", mean_us("prepared.label_load"));
    report.set("exec.ac_us", mean_us("exec.ac"));
    report.set("exec.yannakakis_us", mean_us("exec.yannakakis"));
    report.set("exec.xproperty_us", mean_us("exec.xproperty"));
    report.set("exec.mac_us", mean_us("exec.mac"));
    report.set("exec.xpath_us", mean_us("exec.xpath"));
    let reduce = get("exec.kary_reduce");
    let kary = get("exec.kary");
    report.set("exec.kary_reduce_us", reduce.mean_ns() / 1e3);
    report.set(
        "exec.kary_enumerate_us",
        (kary.mean_ns() - reduce.mean_ns()).max(0.0) / 1e3,
    );
    report.set("fingerprint.ns", get("fingerprint").mean_ns());
    report.set("batch.prepare_us", mean_us("batch.prepare"));
    report.set("batch.execute_us", mean_us("batch.execute"));
    report.set("edit.apply_us", mean_us("edit.apply"));
    report.set(
        "prepared.prepare_edited_us",
        mean_us("prepared.prepare_edited"),
    );

    let root_ns: u64 = roots.iter().map(|r| get(r).total_ns).sum();
    let layers: [(&'static str, &str); 15] = [
        ("self.request_pct", "request"),
        ("self.frame_pct", "frame"),
        ("self.protocol_pct", "protocol"),
        ("self.parse_pct", "parse"),
        ("self.shard_pct", "shard"),
        ("self.plan_pct", "plan"),
        ("self.index_pct", "index"),
        ("self.prune_pct", "prune"),
        ("self.corpus_pct", "corpus"),
        ("self.prepared_pct", "prepared"),
        ("self.exec_pct", "exec"),
        ("self.fingerprint_pct", "fingerprint"),
        ("self.batch_pct", "batch"),
        ("self.edit_pct", "edit"),
        ("self.wal_pct", "wal"),
    ];
    for (metric, layer) in layers {
        let self_ns: u64 = totals
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, t)| t.self_ns)
            .sum();
        report.set(metric, 100.0 * ratio(self_ns as f64, root_ns as f64));
    }
    for (name, t) in totals {
        println!(
            "span {name:<24} calls {:>9} mean {:>11.0} ns self {:>6.2}%",
            t.calls,
            t.mean_ns(),
            100.0 * ratio(t.self_ns as f64, root_ns as f64)
        );
    }
}

/// Runs `pass` with tracing off and on, alternating, `rounds` times each,
/// and returns the traced tracer of the last round with the overhead of
/// tracing in percent (median traced pass time over median untraced).
pub fn traced_and_untraced(rounds: usize, mut pass: impl FnMut(&mut Tracer)) -> (Tracer, f64) {
    let mut off = Vec::new();
    let mut on = Vec::new();
    let mut last = None;
    for _ in 0..rounds.max(1) {
        let mut untraced = Tracer::new(false);
        let start = std::time::Instant::now();
        pass(&mut untraced);
        off.push(start.elapsed().as_secs_f64());
        let mut traced = Tracer::new(true);
        let start = std::time::Instant::now();
        pass(&mut traced);
        on.push(start.elapsed().as_secs_f64());
        last = Some(traced);
    }
    let overhead = 100.0 * (crate::trace::median(&on) / crate::trace::median(&off) - 1.0);
    (last.expect("at least one round"), overhead)
}
