//! Differential tests for the walk: the enumeration mode that serves the
//! answers of acyclic queries whose head order lets every head position take
//! its candidates straight from the fully reduced sets.
//!
//! Every case is an acyclic query whose head admits the walk by
//! construction: one to three components of at most four variables in all,
//! each a random tree of variables
//! joined by atoms over all 15 axes in both orientations, with a head that
//! grows a connected part of each component one neighbour at a time,
//! interleaves the components, repeats variables and names label-only
//! variables. Some cases add a second atom between two adjacent head
//! variables; parallel atoms make a query cyclic (its query graph is no
//! longer a forest), so those cases plan on the X̲ or MAC engine and check
//! that the answer is still right.
//!
//! Each case runs on a random tree whose node indices are shuffled against
//! pre-order, or on the same tree rebuilt in pre-order. The answer must equal
//! the `NaiveEvaluator`'s, an acyclic case must take no decide step, and the
//! three answer sinks must agree with the collected answer: the fingerprint
//! sink with `answer_fingerprint`, the count sink with its length.
//!
//! `deep_sweep` repeats the sweep over 20,000 cases; run it in release mode
//! with `cargo test --release -p cqt-core --test free_connex_differential --
//! --include-ignored`.

use cqt_core::{
    answer_fingerprint, Answer, AnswerSink, CompiledQuery, ExecScratch, NaiveEvaluator,
    SelectedStrategy, YannakakisEvaluator,
};
use cqt_query::{ConjunctiveQuery, Var};
use cqt_trees::generate::{random_tree, RandomTreeConfig};
use cqt_trees::parse::{parse_term, to_term};
use cqt_trees::{Axis, NodeId, PreparedTree, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LABELS: [&str; 3] = ["A", "B", "C"];

fn random_label(rng: &mut StdRng) -> &'static str {
    LABELS[rng.gen_range(0..LABELS.len())]
}

fn random_axis(rng: &mut StdRng) -> Axis {
    Axis::ALL[rng.gen_range(0..Axis::COUNT)]
}

/// A random acyclic query whose head admits the walk, and whether a
/// parallel atom was added (which makes it cyclic).
fn walkable_query(rng: &mut StdRng) -> (ConjunctiveQuery, bool) {
    let mut query = ConjunctiveQuery::new();
    // Per component: the head variables in the order the walk reaches them,
    // and the head pairs joined by an atom.
    let mut orders: Vec<Vec<Var>> = Vec::new();
    let mut joined: Vec<(Var, Var)> = Vec::new();
    // At most four variables in axis atoms (five with a label-only one):
    // the naive oracle enumerates every satisfaction.
    let mut budget = 4;
    for c in 0..rng.gen_range(1..=3) {
        if budget == 0 {
            break;
        }
        let size = rng.gen_range(1..=budget.min(3));
        budget -= size;
        let vars: Vec<Var> = (0..size).map(|i| query.var(&format!("v{c}_{i}"))).collect();
        let mut neighbours: Vec<Vec<usize>> = vec![Vec::new(); size];
        for i in 1..size {
            let parent = rng.gen_range(0..i);
            let axis = random_axis(rng);
            if rng.gen_bool(0.5) {
                query.add_axis(axis, vars[parent], vars[i]);
            } else {
                query.add_axis(axis, vars[i], vars[parent]);
            }
            neighbours[parent].push(i);
            neighbours[i].push(parent);
        }
        for &var in &vars {
            if rng.gen_bool(0.5) {
                query.add_label(var, random_label(rng));
            }
        }
        // A fully projected-out component constrains the answer only by
        // being satisfiable.
        if rng.gen_bool(0.15) {
            continue;
        }
        // Grow a connected part of the component from a random start: each
        // new head variable is joined to exactly one earlier one.
        let start = rng.gen_range(0..size);
        let mut order = vec![start];
        let mut frontier: Vec<(usize, usize)> =
            neighbours[start].iter().map(|&n| (start, n)).collect();
        while !frontier.is_empty() && rng.gen_bool(0.75) {
            let (from, next) = frontier.swap_remove(rng.gen_range(0..frontier.len()));
            if order.contains(&next) {
                continue;
            }
            order.push(next);
            joined.push((vars[from], vars[next]));
            frontier.extend(neighbours[next].iter().map(|&n| (next, n)));
        }
        orders.push(order.into_iter().map(|i| vars[i]).collect());
    }
    // A variable with only a label atom is a component of its own.
    if rng.gen_bool(0.3) {
        let lonely = query.var("lonely");
        query.add_label(lonely, random_label(rng));
        if rng.gen_bool(0.7) {
            orders.push(vec![lonely]);
        }
    }
    // Interleave the components, each in its own order, and repeat earlier
    // head variables at random.
    let mut head: Vec<Var> = Vec::new();
    let mut next = vec![0; orders.len()];
    while let Some(c) = pick_unfinished(rng, &orders, &next) {
        if !head.is_empty() && rng.gen_bool(0.2) {
            head.push(head[rng.gen_range(0..head.len())]);
        }
        head.push(orders[c][next[c]]);
        next[c] += 1;
    }
    // A prefix of a valid head is valid: every component's part of it is a
    // prefix of that component's order.
    head.truncate(rng.gen_range(0..=5));
    let joined_in_head: Vec<(Var, Var)> = joined
        .into_iter()
        .filter(|(a, b)| head.contains(a) && head.contains(b))
        .collect();
    query.set_head(head);
    let parallel = !joined_in_head.is_empty() && rng.gen_bool(0.15);
    if parallel {
        let (a, b) = joined_in_head[rng.gen_range(0..joined_in_head.len())];
        query.add_axis(random_axis(rng), a, b);
    }
    (query, parallel)
}

fn pick_unfinished(rng: &mut StdRng, orders: &[Vec<Var>], next: &[usize]) -> Option<usize> {
    let open: Vec<usize> = (0..orders.len())
        .filter(|&c| next[c] < orders[c].len())
        .collect();
    (!open.is_empty()).then(|| open[rng.gen_range(0..open.len())])
}

/// The naive evaluator's answer in `Answer` shape.
fn naive_answer(tree: &Tree, query: &ConjunctiveQuery) -> Answer {
    let tuples = NaiveEvaluator::new(tree).eval_tuples(query);
    match query.head_arity() {
        0 => Answer::Boolean(!tuples.is_empty()),
        1 => Answer::Nodes(tuples.into_iter().map(|t| t[0]).collect()),
        _ => Answer::Tuples(tuples),
    }
}

/// An answer as the tuple list the public evaluators return.
fn tuples_of(answer: &Answer) -> Vec<Vec<NodeId>> {
    match answer {
        Answer::Boolean(found) => (*found).then(Vec::new).into_iter().collect(),
        Answer::Nodes(nodes) => nodes.iter().map(|&n| vec![n]).collect(),
        Answer::Tuples(tuples) => tuples.clone(),
    }
}

/// Counts of what a sweep covered.
#[derive(Debug, Default)]
struct Coverage {
    cases: usize,
    shuffled: usize,
    walked_kary_nonempty: usize,
    parallel: usize,
}

/// Checks one case: answer, decide steps and all three sinks.
fn check_case(
    plan: &CompiledQuery,
    prepared: &PreparedTree,
    parallel: bool,
    key: u64,
    scratch: &mut ExecScratch,
) -> Answer {
    let (tree, query) = (prepared.tree(), plan.query());
    let arity = query.head_arity();
    let expected = naive_answer(tree, query);
    if !parallel {
        assert_eq!(plan.strategy(), SelectedStrategy::Yannakakis, "{query}");
    }
    let steps = scratch.enumeration_steps();
    let answer = plan.execute(prepared, scratch);
    assert_eq!(answer, expected, "execute: {query}");
    if !parallel {
        assert_eq!(
            scratch.enumeration_steps(),
            steps,
            "a decide step ran: {query}"
        );
        assert_eq!(plan.eval_on(tree, scratch), expected, "eval_on: {query}");
        let public = YannakakisEvaluator::new(tree).eval_tuples(query).unwrap();
        assert_eq!(public, tuples_of(&expected), "public evaluator: {query}");
    }
    let mut fingerprint = AnswerSink::fingerprint(key, arity);
    plan.execute_into(prepared, scratch, &mut fingerprint);
    assert_eq!(
        fingerprint.fingerprint_value(),
        Some(answer_fingerprint(key, &answer)),
        "fingerprint sink: {query}"
    );
    let mut count = AnswerSink::count();
    plan.execute_into(prepared, scratch, &mut count);
    assert_eq!(count.answers(), answer.len() as u64, "count sink: {query}");
    let mut collect = AnswerSink::collect(arity);
    plan.execute_into(prepared, scratch, &mut collect);
    assert_eq!(
        collect.into_answer().as_ref(),
        Some(&answer),
        "collect sink: {query}"
    );
    answer
}

fn sweep(seed: u64, cases: usize, max_nodes: usize) -> Coverage {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = ExecScratch::new();
    let mut coverage = Coverage::default();
    for _ in 0..cases {
        let config = RandomTreeConfig {
            nodes: rng.gen_range(2..=max_nodes),
            alphabet: LABELS.iter().map(|s| s.to_string()).collect(),
            multi_label_probability: 0.1,
            ..RandomTreeConfig::default()
        };
        let mut tree = random_tree(&mut rng, &config);
        if rng.gen_bool(0.4) {
            // The same tree rebuilt in pre-order: node indices are ranks.
            tree = parse_term(&to_term(&tree)).unwrap();
        }
        coverage.shuffled += usize::from(!tree.pre_is_identity());
        let prepared = PreparedTree::new(tree);
        // Most random queries over all 15 axes have no answer: draw up to
        // four per tree and keep the first that has one.
        for attempt in 0..4 {
            let (query, parallel) = walkable_query(&mut rng);
            let plan = CompiledQuery::compile(query);
            let answer = check_case(
                &plan,
                &prepared,
                parallel,
                rng.gen_range(0..u64::MAX),
                &mut scratch,
            );
            if answer.is_nonempty() || attempt == 3 {
                coverage.cases += 1;
                coverage.parallel += usize::from(parallel);
                coverage.walked_kary_nonempty +=
                    usize::from(!parallel && plan.head_arity() >= 2 && answer.is_nonempty());
                break;
            }
        }
    }
    coverage
}

fn assert_coverage(coverage: &Coverage, cases: usize) {
    assert_eq!(coverage.cases, cases);
    assert!(
        4 * coverage.shuffled >= cases && 4 * coverage.shuffled <= 3 * cases,
        "{coverage:?}"
    );
    assert!(4 * coverage.walked_kary_nonempty >= cases, "{coverage:?}");
    assert!(coverage.parallel > 0, "{coverage:?}");
}

#[test]
fn walked_answers_match_the_naive_oracle() {
    let coverage = sweep(0xf7ee, 600, 12);
    assert_coverage(&coverage, 600);
}

#[test]
#[ignore = "deep sweep: run in release mode with --include-ignored"]
fn deep_sweep() {
    let coverage = sweep(0xc0ee, 20_000, 16);
    assert_coverage(&coverage, 20_000);
}

#[test]
fn every_axis_is_walked_in_both_orientations() {
    // Sibling runs, deep branches and leaves, so every axis, read either
    // way, has a nonempty image somewhere.
    let tree = parse_term("R(A(B(C), B, C(B)), A(C, B(B(C))))").unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let mut scratch = ExecScratch::new();
    for axis in Axis::ALL {
        for forward in [true, false] {
            let mut query = ConjunctiveQuery::new();
            let (x, y) = (query.var("x"), query.var("y"));
            if forward {
                query.add_axis(axis, x, y);
            } else {
                query.add_axis(axis, y, x);
            }
            for head in [vec![x, y], vec![y, x]] {
                query.set_head(head);
                let plan = CompiledQuery::compile(query.clone());
                let prepared = PreparedTree::new(tree.clone());
                let answer = check_case(
                    &plan,
                    &prepared,
                    false,
                    rng.gen_range(0..u64::MAX),
                    &mut scratch,
                );
                assert!(answer.is_nonempty(), "{query}");
            }
        }
    }
}
