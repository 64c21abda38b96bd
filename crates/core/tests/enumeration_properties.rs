//! Differential tests for the fix-and-decide answer enumerator that serves
//! k-ary (and monadic X̲-property) answers on the Yannakakis and X̲-property
//! engines.
//!
//! * Random acyclic queries and random cyclic queries over the tractable
//!   signatures τ₁ {Child⁺, Child*}, τ₂ {Following} and τ₃ {Child,
//!   NextSibling, NextSibling⁺}, with heads of arity 1–4 that repeat
//!   variables, span components and name label-only variables, must give
//!   the `NaiveEvaluator`'s answer tuple for tuple, in order, through
//!   `execute`, `eval_on`, `execute_seeded` and the public evaluators.
//! * On a tree whose head domains multiply to over 10,000 combinations but
//!   hold only 22 answers, the X̲ engine takes one decide step per answer
//!   prefix, and an acyclic head walked through the reduced sets takes
//!   none: no step per combination, and no tuple check. An acyclic head
//!   that reaches a variable only through a projected-out one still
//!   decides.
//! * On engine-scan-sized documents (3,000 nodes, shared vocabulary) the
//!   answers equal `MacSolver`'s independent search.
//!
//! `deep_sweep` repeats the differential sweep over 20,000 cases; run it in
//! release mode with `cargo test --release -p cqt-core --test
//! enumeration_properties -- --include-ignored`.

use cqt_core::{
    Answer, CompiledQuery, EvalStrategy, ExecScratch, MacSolver, NaiveEvaluator, SelectedStrategy,
    XPropertyEvaluator, YannakakisEvaluator,
};
use cqt_query::generate::{random_acyclic_query, random_query, RandomQueryConfig};
use cqt_query::{parse_query, ConjunctiveQuery};
use cqt_trees::generate::{
    document_corpus, random_tree, DocumentCorpusConfig, LabelVocabulary, RandomTreeConfig,
};
use cqt_trees::{Axis, NodeId, NodeSet, PreparedTree, Tree, TreeBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LABELS: [&str; 3] = ["A", "B", "C"];

/// The query families of the sweep: acyclic over every axis, then cyclic
/// over each tractable signature of Theorem 4.1.
fn families() -> [(&'static str, Vec<Axis>); 4] {
    [
        (
            "acyclic",
            vec![
                Axis::Child,
                Axis::ChildPlus,
                Axis::ChildStar,
                Axis::NextSibling,
                Axis::NextSiblingPlus,
                Axis::Following,
            ],
        ),
        ("tau1", vec![Axis::ChildPlus, Axis::ChildStar]),
        ("tau2", vec![Axis::Following]),
        (
            "tau3",
            vec![Axis::Child, Axis::NextSibling, Axis::NextSiblingPlus],
        ),
    ]
}

/// Sets a random head of arity 1–4 drawn with replacement (so variables
/// repeat), sometimes naming a fresh variable that has only a label atom and
/// forms a component of its own.
fn random_head(rng: &mut StdRng, query: &mut ConjunctiveQuery) {
    if rng.gen_bool(0.3) {
        let lonely = query.var("lonely");
        query.add_label(lonely, LABELS[rng.gen_range(0..LABELS.len())]);
    }
    let vars: Vec<_> = query.all_vars().collect();
    let arity = rng.gen_range(1..=4);
    let head = (0..arity)
        .map(|_| vars[rng.gen_range(0..vars.len())])
        .collect();
    query.set_head(head);
}

/// The naive evaluator's answer in `Answer` shape.
fn naive_answer(tree: &Tree, query: &ConjunctiveQuery) -> Answer {
    let tuples = NaiveEvaluator::new(tree).eval_tuples(query);
    if query.head_arity() == 1 {
        Answer::Nodes(tuples.into_iter().map(|t| t[0]).collect())
    } else {
        Answer::Tuples(tuples)
    }
}

fn answer_tuples(answer: Answer) -> Vec<Vec<NodeId>> {
    match answer {
        Answer::Nodes(nodes) => nodes.into_iter().map(|n| vec![n]).collect(),
        Answer::Tuples(tuples) => tuples,
        Answer::Boolean(_) => panic!("sweep heads have arity ≥ 1"),
    }
}

/// Checks one plan against the oracle through every execution entry point.
fn check_plan(
    plan: &CompiledQuery,
    prepared: &PreparedTree,
    expected: &Answer,
    scratch: &mut ExecScratch,
) {
    let tree = prepared.tree();
    let query = plan.query();
    assert_eq!(
        &plan.execute(prepared, scratch),
        expected,
        "execute: {query}"
    );
    assert_eq!(&plan.eval_on(tree, scratch), expected, "eval_on: {query}");

    // Seeds that are supersets of every satisfaction's projection: label
    // sets, the full node set, and the exact projection of the answers.
    let tuples = answer_tuples(expected.clone());
    let n = tree.len();
    let mut owned: Vec<(usize, NodeSet)> = query
        .label_atoms()
        .iter()
        .filter_map(|atom| {
            let set = prepared.label_pre_set_by_name(&atom.label)?;
            Some((atom.var.index(), set.clone()))
        })
        .collect();
    owned.push((query.head()[0].index(), NodeSet::full(n)));
    for (position, var) in query.head().iter().enumerate() {
        let projection = NodeSet::from_nodes(n, tuples.iter().map(|t| t[position]));
        owned.push((var.index(), tree.to_pre_space(&projection)));
    }
    let seeds: Vec<(usize, &NodeSet)> = owned.iter().map(|(v, s)| (*v, s)).collect();
    assert_eq!(
        &plan.execute_seeded(prepared, &seeds, scratch),
        expected,
        "execute_seeded: {query}"
    );

    // Tuple checks: every answer (up to a few) passes, and a random tuple
    // agrees with the oracle.
    let naive = NaiveEvaluator::new(tree);
    for tuple in tuples.iter().take(4) {
        assert!(
            plan.execute_check_tuple(prepared, tuple, scratch),
            "{query}"
        );
    }
    let probe: Vec<NodeId> = (0..query.head_arity())
        .map(|i| NodeId::from_index((i * 7 + tuples.len()) % n))
        .collect();
    assert_eq!(
        plan.check_tuple_on(tree, &probe, scratch),
        naive.check_tuple(query, &probe),
        "check_tuple {probe:?}: {query}"
    );

    // The public evaluators delegate to the same enumerator.
    let public = match plan.strategy() {
        SelectedStrategy::Yannakakis => {
            let evaluator = YannakakisEvaluator::new(tree);
            assert_eq!(
                evaluator.check_tuple(query, &probe).unwrap(),
                naive.check_tuple(query, &probe)
            );
            evaluator.eval_tuples(query).unwrap()
        }
        SelectedStrategy::XProperty => {
            let order = plan.classification().order().expect("tractable");
            let evaluator = XPropertyEvaluator::with_order(tree, order);
            if query.is_monadic() {
                let nodes: Vec<NodeId> = evaluator.eval_monadic(query).iter().collect();
                assert_eq!(answer_tuples(Answer::Nodes(nodes)), tuples, "{query}");
            }
            evaluator.eval_tuples(query)
        }
        other => panic!("unexpected strategy {other:?}"),
    };
    assert_eq!(public, tuples, "public evaluator: {query}");
}

/// Runs `cases` random differential cases per query family; returns how
/// many sampled trees were not `pre_is_identity`.
fn sweep(seed: u64, cases: usize, max_nodes: usize) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = ExecScratch::new();
    let (mut trees, mut shuffled) = (0, 0);
    for (family, axes) in families() {
        for _ in 0..cases {
            let tree_config = RandomTreeConfig {
                nodes: rng.gen_range(2..=max_nodes),
                alphabet: LABELS.iter().map(|s| s.to_string()).collect(),
                multi_label_probability: 0.1,
                ..RandomTreeConfig::default()
            };
            let tree = random_tree(&mut rng, &tree_config);
            trees += 1;
            shuffled += usize::from(!tree.pre_is_identity());
            let config = RandomQueryConfig {
                vars: rng.gen_range(2..=4),
                axes: axes.clone(),
                labels: LABELS.iter().map(|s| s.to_string()).collect(),
                label_probability: 0.5,
                extra_atoms: rng.gen_range(1..=2),
                head_arity: 0,
            };
            // Most random cyclic queries have no answer: draw up to four per
            // tree and keep the first that has one, so enumeration has work.
            let mut attempts = 0;
            let (query, expected) = loop {
                let mut query = if family == "acyclic" {
                    random_acyclic_query(&mut rng, &config)
                } else {
                    random_query(&mut rng, &config)
                };
                random_head(&mut rng, &mut query);
                let expected = naive_answer(&tree, &query);
                attempts += 1;
                if expected.is_nonempty() || attempts == 4 {
                    break (query, expected);
                }
            };
            let prepared = PreparedTree::new(tree);
            let auto = CompiledQuery::compile(query.clone());
            assert_ne!(auto.strategy(), SelectedStrategy::Mac, "{family}: {query}");
            check_plan(&auto, &prepared, &expected, &mut scratch);
            if family != "acyclic" {
                // Force the X̲-property engine on acyclic draws too.
                let forced = CompiledQuery::compile_with(query, EvalStrategy::XProperty);
                check_plan(&forced, &prepared, &expected, &mut scratch);
            }
        }
    }
    (trees, shuffled)
}

#[test]
fn enumeration_matches_the_naive_oracle() {
    let (trees, shuffled) = sweep(0x5eed, 150, 12);
    assert!(
        2 * shuffled >= trees,
        "only {shuffled} of {trees} sampled trees have a shuffled pre-order"
    );
}

#[test]
#[ignore = "deep sweep: run in release mode with --include-ignored"]
fn deep_sweep() {
    let (trees, shuffled) = sweep(0xdeed, 5_000, 16);
    assert_eq!(trees, 20_000);
    assert!(2 * shuffled >= trees);
}

/// A root with 22 `A` children, each the parent of one `B` that is the
/// parent of one `C`: every head domain has 22 nodes, so a product over
/// three head positions has 10,648 combinations, of which 22 are answers.
fn comb() -> PreparedTree {
    let mut builder = TreeBuilder::new();
    let root = builder.add_root(&["R"]);
    for _ in 0..22 {
        let a = builder.add_child(root, &["A"]);
        let b = builder.add_child(a, &["B"]);
        builder.add_child(b, &["C"]);
    }
    PreparedTree::new(builder.build().unwrap())
}

/// The number of distinct prefixes of length 1..=`up_to` among `tuples`.
fn prefixes(tuples: &[Vec<NodeId>], up_to: usize) -> u64 {
    (1..=up_to)
        .map(|len| {
            let mut distinct: Vec<&[NodeId]> = tuples.iter().map(|t| &t[..len]).collect();
            distinct.dedup();
            distinct.len() as u64
        })
        .sum()
}

#[test]
fn enumeration_is_output_sensitive() {
    let prepared = comb();
    for (text, strategy) in [
        (
            "Q(x, y, z) :- A(x), Child(x, y), B(y), Child(y, z), C(z).",
            SelectedStrategy::Yannakakis,
        ),
        (
            "Q(z, y, x) :- A(x), Child(x, y), B(y), Child(y, z), C(z).",
            SelectedStrategy::Yannakakis,
        ),
        (
            "Q(x, y, z) :- A(x), Child+(x, y), B(y), Child+(y, z), C(z), Child*(x, z).",
            SelectedStrategy::XProperty,
        ),
    ] {
        let plan = CompiledQuery::parse(text).unwrap();
        assert_eq!(plan.strategy(), strategy, "{text}");
        let mut scratch = ExecScratch::new();
        let Answer::Tuples(tuples) = plan.execute(&prepared, &mut scratch) else {
            panic!("k-ary answer expected");
        };
        assert_eq!(
            tuples,
            MacSolver::new(prepared.tree()).eval_tuples(plan.query(), usize::MAX)
        );
        assert_eq!(tuples.len(), 22);
        let combinations: usize = (0..3)
            .map(|i| {
                let column = tuples.iter().map(|t| t[i]);
                NodeSet::from_nodes(prepared.tree().len(), column).len()
            })
            .product();
        assert!(combinations >= 10_000, "{combinations} combinations");
        // After the full reducer both heads are walked through the reduced
        // sets: no decide step at all. The X̲ engine takes one decide step
        // per fixed candidate, and here all of them succeed, at every
        // position. A tuple check takes decide steps of its own (shown
        // below), so equality also shows that enumeration checked no
        // candidate tuple.
        let decided_positions = if strategy == SelectedStrategy::Yannakakis {
            2
        } else {
            3
        };
        let steps = scratch.enumeration_steps();
        let expected_steps = if strategy == SelectedStrategy::Yannakakis {
            0
        } else {
            prefixes(&tuples, decided_positions)
        };
        assert_eq!(steps, expected_steps, "{text}");
        assert!(plan.execute_check_tuple(&prepared, &tuples[0], &mut scratch));
        assert_eq!(
            scratch.enumeration_steps() - steps,
            decided_positions as u64,
            "a tuple check decides each of its positions"
        );
    }
}

#[test]
fn walked_heads_take_no_decide_step_and_other_acyclic_heads_still_decide() {
    let prepared = comb();
    let tree = prepared.tree();
    for (text, walked) in [
        // Each head variable is joined to the one before it, in either
        // orientation, repeated, or alone in its component.
        ("Q(x, y) :- A(x), Child(x, y), B(y).", true),
        (
            "Q(z, y, x, y) :- A(x), Child(x, y), Child(y, z), C(z).",
            true,
        ),
        ("Q(y, r, z) :- R(r), B(y), Child(y, z), C(z).", true),
        // `z` is reached from `x` only through the projected-out `y`.
        ("Q(x, z) :- A(x), Child(x, y), Child(y, z), C(z).", false),
    ] {
        let plan = CompiledQuery::parse(text).unwrap();
        assert_eq!(plan.strategy(), SelectedStrategy::Yannakakis, "{text}");
        let mut scratch = ExecScratch::new();
        let answer = plan.execute(&prepared, &mut scratch);
        assert_eq!(answer, naive_answer(tree, plan.query()), "{text}");
        assert_eq!(answer.len(), 22, "{text}");
        let steps = scratch.enumeration_steps();
        if walked {
            assert_eq!(steps, 0, "{text}");
        } else {
            // One decide step per `x`, the only position before the last.
            assert_eq!(steps, 22, "{text}");
        }
    }
}

/// Engine-scan's documents: 3,000 nodes over the shared five-label
/// vocabulary.
fn engine_scan_documents() -> Vec<PreparedTree> {
    let mut rng = StdRng::seed_from_u64(1);
    let config = DocumentCorpusConfig {
        documents: 4,
        distinct: 4,
        nodes_per_document: 3_000,
        vocabulary: LabelVocabulary::Shared,
        ..DocumentCorpusConfig::default()
    };
    document_corpus(&mut rng, &config)
        .into_iter()
        .map(PreparedTree::new)
        .collect()
}

#[test]
fn large_documents_agree_with_mac() {
    let queries = [
        // engine-scan's k-ary side query (acyclic, free-connex).
        (
            "Q(x, y) :- A(x), Child(x, y), B(y).",
            SelectedStrategy::Yannakakis,
        ),
        // τ₁, cyclic.
        (
            "Q(x, y, z) :- A(x), Child+(x, y), B(y), Child+(y, z), C(z), Child*(x, z).",
            SelectedStrategy::XProperty,
        ),
        // τ₂, cyclic.
        (
            "Q(x, y, z) :- A(x), B(x), Following(x, y), C(y), D(y), Following(y, z), \
             Following(x, z), E(z).",
            SelectedStrategy::XProperty,
        ),
    ];
    let mut scratch = ExecScratch::new();
    for prepared in engine_scan_documents() {
        for (text, strategy) in queries {
            let query = parse_query(text).unwrap();
            let plan = CompiledQuery::compile(query.clone());
            assert_eq!(plan.strategy(), strategy, "{text}");
            let Answer::Tuples(tuples) = plan.execute(&prepared, &mut scratch) else {
                panic!("k-ary answer expected");
            };
            let oracle = MacSolver::new(prepared.tree()).eval_tuples(&query, usize::MAX);
            assert!(!oracle.is_empty(), "{text} has no answer");
            assert_eq!(tuples, oracle, "{text}");
        }
    }
}
