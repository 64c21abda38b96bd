//! Multi-threaded stress tests for the serving layer: N worker threads
//! hammer one shared `Arc<PreparedTree>` with a mix of tractable and NP-hard
//! queries (every concurrent answer cross-checked against the
//! single-threaded `Engine` facade), and a writer thread commits edit
//! scripts against a one-document corpus while 8 readers serve — with
//! every observed answer required to match the oracle of the exact epoch it
//! was read from.

use std::collections::BTreeMap;
use std::sync::Arc;

use cq_trees::core::{Answer, CompiledQuery, Engine, ExecScratch};
use cq_trees::query::cq::figure1_query;
use cq_trees::query::parse_query;
use cq_trees::service::{
    Corpus, CorpusMutationOracle, CorpusMutationWorkload, CorpusRequest, CorpusWorkload, DocId,
    FanOut, QuerySpec, ServiceConfig, ServiceRunner,
};
use cq_trees::trees::edit::EditScript;
use cq_trees::trees::generate::{random_edit_script, treebank, EditScriptConfig, TreebankConfig};
use cq_trees::trees::PreparedTree;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The shared corpus document: a synthetic treebank, the workload shape the
/// paper's introduction motivates.
fn corpus() -> PreparedTree {
    let mut rng = StdRng::seed_from_u64(2004);
    PreparedTree::new(treebank(
        &mut rng,
        &TreebankConfig {
            sentences: 30,
            max_depth: 5,
            pp_probability: 0.5,
        },
    ))
}

/// The query mix: acyclic (Yannakakis), cyclic-tractable (X̲-property) and
/// NP-hard (MAC) signatures, Boolean and monadic heads.
fn query_mix() -> Vec<cq_trees::query::ConjunctiveQuery> {
    vec![
        // Acyclic monadic: NP nodes with an NN child.
        parse_query("Q(x) :- NP(x), Child(x, y), NN(y).").unwrap(),
        // Acyclic Boolean chain across sentence structure.
        parse_query("Q() :- S(s), Child(s, v), VP(v), Child+(v, p), PP(p).").unwrap(),
        // Cyclic but tractable signature {Child+, Child*} → X̲-property.
        parse_query("Q() :- S(x), Child+(x, y), Child*(x, y), NP(y).").unwrap(),
        // The paper's Figure 1 query: cyclic over {Child+, Following}, NP-hard
        // signature → MAC.
        figure1_query(),
        // Monadic NP-hard mix.
        parse_query("Q(y) :- VP(x), Child(x, y), Child+(x, z), Following(y, z).").unwrap(),
    ]
}

#[test]
fn concurrent_compiled_execution_matches_single_threaded_engine() {
    const WORKERS: usize = 8;
    const ROUNDS: usize = 12;

    let prepared = Arc::new(corpus());
    let queries = query_mix();
    let engine = Engine::new();

    // Single-threaded ground truth via the one-shot Engine facade.
    let expected: Vec<Answer> = queries
        .iter()
        .map(|q| engine.eval(prepared.tree(), q))
        .collect();
    assert!(
        expected.iter().any(|a| a.is_nonempty()),
        "the corpus should satisfy at least one query of the mix"
    );

    // Shared compiled plans, per-worker scratch: every worker evaluates every
    // query ROUNDS times against the same Arc<PreparedTree>.
    let plans: Vec<Arc<CompiledQuery>> = queries
        .iter()
        .map(|q| Arc::new(CompiledQuery::compile(q.clone())))
        .collect();
    std::thread::scope(|scope| {
        for worker in 0..WORKERS {
            let prepared = Arc::clone(&prepared);
            let plans = plans.clone();
            let expected = &expected;
            scope.spawn(move || {
                let mut scratch = ExecScratch::new();
                for round in 0..ROUNDS {
                    // Stagger plan order per worker so different strategies
                    // run concurrently against the same shared caches.
                    for offset in 0..plans.len() {
                        let i = (worker + round + offset) % plans.len();
                        let answer = plans[i].execute(&prepared, &mut scratch);
                        assert_eq!(
                            answer, expected[i],
                            "worker {worker} round {round} diverged on query {i}"
                        );
                    }
                }
            });
        }
    });
}

/// One writer committing edit scripts while 8 readers serve mixed
/// tractable / NP-hard / XPath queries against the same corpus handle.
/// Epoch consistency is the hard requirement: every reader's answer must
/// match the single-threaded oracle *of the epoch the reader snapshot* —
/// pre- or post-edit depending on timing, but never a blend of the two.
#[test]
fn one_writer_eight_readers_are_epoch_consistent() {
    let initial = {
        let mut rng = StdRng::seed_from_u64(42);
        treebank(
            &mut rng,
            &TreebankConfig {
                sentences: 12,
                max_depth: 4,
                pp_probability: 0.6,
            },
        )
    };

    // Scripts address successive epochs: script i is generated against the
    // tree left by scripts 0..i, exactly as the writer will commit them.
    let script_config = EditScriptConfig {
        edits: 3,
        alphabet: ["NP", "PP", "NN", "S", "VB"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        ..EditScriptConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(7);
    let mut scripts: Vec<EditScript> = Vec::new();
    let mut tree = initial.clone();
    for _ in 0..3 {
        let script = random_edit_script(&mut rng, &tree, &script_config);
        tree = script.apply_to(&tree).unwrap().0;
        scripts.push(script);
    }
    // End on a relabel-only script so readers also serve an epoch whose
    // caches were carried forward from its predecessor.
    scripts.push(EditScript::single(cq_trees::trees::TreeEdit::Relabel {
        node_pre: tree.len() as u32 / 2,
        labels: vec!["NP".into(), "NN".into()],
    }));

    let mut queries: Vec<QuerySpec> = query_mix().into_iter().map(QuerySpec::from_cq).collect();
    queries.push(QuerySpec::parse_xpath("//NP[NN]/following::PP | //VP").unwrap());

    let doc = DocId::new("treebank");
    let corpus = Corpus::new(1);
    corpus.insert(doc.clone(), initial.clone()).unwrap();
    let workload = CorpusMutationWorkload::new(
        queries.clone(),
        vec![doc.clone()],
        vec![(doc.clone(), scripts.clone())],
        1200,
    );
    let runner = ServiceRunner::new(ServiceConfig {
        threads: 8,
        chunk: 2,
        ..ServiceConfig::default()
    });
    let report = runner.run_corpus_mutating(&corpus, &workload).unwrap();

    let commits = &report.commits[&doc];
    assert_eq!(commits.len(), scripts.len());
    assert_eq!(report.final_epochs()[&doc], scripts.len() as u64);
    assert_eq!(corpus.snapshot(&doc).unwrap().epoch, scripts.len() as u64);
    // The probes pin both ends of the epoch range; the concurrent readers
    // fill in whatever the scheduler produced in between.
    let epochs = report.epochs_observed_for(&doc);
    assert!(
        epochs.contains(&0) && epochs.contains(&(scripts.len() as u64)),
        "expected first and final epochs among {epochs:?}"
    );

    // THE check: every (query, epoch, answer) observation matches the
    // replayed single-threaded oracle for that exact epoch.
    let oracle = CorpusMutationOracle::build(
        &BTreeMap::from([(doc.clone(), initial)]),
        &BTreeMap::from([(doc.clone(), scripts.clone())]),
        &queries,
        &runner.config().plan,
    )
    .unwrap();
    oracle.check(&report).expect("epoch-consistency violated");
    // The trailing relabel-only script preserved structure, so its epoch is
    // eligible for cache carry-forward (actual carry counts depend on what
    // readers had warmed when the writer committed).
    assert!(commits.last().unwrap().summary.keeps_structure());

    // Plan-cache accounting: every executed read is a hit or a compile (a
    // pruned read looks nothing up), at least the
    // epoch-0 plans compiled, and — because the writer evicts each
    // superseded epoch's entries — the cache ends bounded by the live
    // epoch's plans (plus at most a few stale re-inserts from readers that
    // snapshot an epoch right before its eviction), not by total commits.
    let query_count = queries.len() as u64;
    assert!(report.plan_cache.misses >= query_count);
    assert_eq!(
        report.plan_cache.hits + report.plan_cache.misses,
        report.prune.survivors
    );
    assert_eq!(report.prune.candidates, report.reads);
    // After the runner's final sweep (no readers left to re-insert stale
    // epochs), only the live epoch's plans remain.
    assert!(
        runner.cache().len() as u64 <= query_count,
        "evicted cache should hold one epoch of plans, found {}",
        runner.cache().len()
    );
}

#[test]
fn service_runner_stress_is_thread_count_invariant() {
    let treebank = Corpus::new(1);
    treebank
        .insert("treebank", corpus().tree().clone())
        .unwrap();
    let mut queries: Vec<QuerySpec> = query_mix().into_iter().map(QuerySpec::from_cq).collect();
    queries.push(QuerySpec::parse_xpath("//NP[NN]/following::PP").unwrap());
    let requests = queries
        .iter()
        .map(|query| CorpusRequest {
            query: query.clone(),
            target: FanOut::All,
        })
        .collect();
    let workload = CorpusWorkload::new(requests, 6);

    let single =
        ServiceRunner::new(ServiceConfig::with_threads(1)).run_corpus(&treebank, &workload);
    let multi = ServiceRunner::new(ServiceConfig {
        threads: 8,
        chunk: 2,
        ..ServiceConfig::default()
    })
    .run_corpus(&treebank, &workload);

    assert_eq!(single.requests, workload.request_count() as u64);
    assert_eq!(multi.requests, single.requests);
    // Same answers regardless of sharding and interleaving.
    assert_eq!(multi.answer_fingerprint, single.answer_fingerprint);
    assert_eq!(multi.prune, single.prune);
    // One compilation per executed (never pruned) query of this one
    // document, however many threads raced, and one plan lookup per
    // execution.
    assert_eq!(
        multi.plan_cache.misses * workload.repeats as u64,
        multi.doc_executions
    );
    assert_eq!(
        multi.plan_cache.hits + multi.plan_cache.misses,
        multi.doc_executions
    );
}
