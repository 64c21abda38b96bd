//! Differential tests for plan-time minimization ([`drop_implied_atoms`]).
//!
//! Random cyclic queries over τ₁ {Child⁺}, τ₂ {Following}, τ₃ {Child,
//! NextSibling} and the NP-hard signature {Child, Child⁺}, each with an
//! axis atom planted at a random position that a two-atom path of the
//! query implies by the axis composition table, and with heads of arity 0,
//! 1 and 2. On random trees, the minimized query compiled with automatic
//! strategy selection must answer exactly like the `NaiveEvaluator` and
//! like forced MAC search on the query as written.
//!
//! `deep_sweep` repeats the sweep over 20,000 cases; run it in release mode
//! with `cargo test --release -p cqt-core --test minimize_differential --
//! --include-ignored`.

use cqt_core::{
    drop_implied_atoms, Answer, CompiledQuery, EvalStrategy, ExecScratch, NaiveEvaluator,
    SelectedStrategy,
};
use cqt_query::generate::{random_query, RandomQueryConfig};
use cqt_query::{AxisAtom, ConjunctiveQuery};
use cqt_trees::generate::{random_tree, RandomTreeConfig};
use cqt_trees::{Axis, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LABELS: [&str; 3] = ["A", "B", "C"];

/// The signatures of the sweep: the three tractable ones of Theorem 4.1 and
/// an NP-hard one (Theorem 5.1).
fn families() -> [(&'static str, Vec<Axis>); 4] {
    [
        ("tau1", vec![Axis::ChildPlus]),
        ("tau2", vec![Axis::Following]),
        ("tau3", vec![Axis::Child, Axis::NextSibling]),
        ("nphard", vec![Axis::Child, Axis::ChildPlus]),
    ]
}

/// Every atom `T(x, z)` over `axes`, not already in `query`, that a path
/// `R(x, w) ∧ S(w, z)` of two atom readings implies by the composition
/// table. Each atom is read forward and through its inverse.
fn implied_candidates(query: &ConjunctiveQuery, axes: &[Axis]) -> Vec<AxisAtom> {
    let readings: Vec<AxisAtom> = query
        .axis_atoms()
        .iter()
        .flat_map(|&atom| [atom, atom.flipped()])
        .collect();
    let mut candidates = Vec::new();
    for first in &readings {
        for second in &readings {
            if second.from != first.to || second.to == first.from {
                continue;
            }
            for &axis in axes {
                let atom = AxisAtom {
                    axis,
                    from: first.from,
                    to: second.to,
                };
                if first.axis.composes_into(second.axis, axis)
                    && !query.axis_atoms().contains(&atom)
                    && !candidates.contains(&atom)
                {
                    candidates.push(atom);
                }
            }
        }
    }
    candidates
}

/// `query` with `atom` inserted at `position` of its axis atoms; variable
/// indices, labels and head unchanged.
fn with_atom_at(query: &ConjunctiveQuery, atom: AxisAtom, position: usize) -> ConjunctiveQuery {
    let mut out = ConjunctiveQuery::new();
    for var in query.all_vars() {
        out.var(query.var_name(var));
    }
    for label in query.label_atoms() {
        out.add_label(label.var, &label.label);
    }
    let mut atoms = query.axis_atoms().to_vec();
    atoms.insert(position, atom);
    for atom in atoms {
        out.add_axis(atom.axis, atom.from, atom.to);
    }
    out.set_head(query.head().to_vec());
    out
}

/// A random cyclic query over `axes` with one planted implied atom, or
/// `None` when the draw has no two-atom path to plant on.
fn planted_query(rng: &mut StdRng, axes: &[Axis]) -> Option<ConjunctiveQuery> {
    let config = RandomQueryConfig {
        vars: rng.gen_range(3..=5),
        axes: axes.to_vec(),
        labels: LABELS.iter().map(|s| s.to_string()).collect(),
        label_probability: 0.5,
        extra_atoms: rng.gen_range(0..=2),
        head_arity: rng.gen_range(0..=2),
    };
    let query = random_query(rng, &config);
    let candidates = implied_candidates(&query, axes);
    if candidates.is_empty() {
        return None;
    }
    let atom = candidates[rng.gen_range(0..candidates.len())];
    let position = rng.gen_range(0..=query.axis_atom_count());
    Some(with_atom_at(&query, atom, position))
}

/// The naive evaluator's answer in `Answer` shape.
fn naive_answer(tree: &Tree, query: &ConjunctiveQuery) -> Answer {
    let naive = NaiveEvaluator::new(tree);
    match query.head_arity() {
        0 => Answer::Boolean(naive.eval_boolean(query)),
        1 => Answer::Nodes(naive.eval_tuples(query).into_iter().map(|t| t[0]).collect()),
        _ => Answer::Tuples(naive.eval_tuples(query)),
    }
}

/// Counts from one sweep.
#[derive(Debug, Default)]
struct Sweep {
    cases: usize,
    /// Cases whose written query needs MAC or X̲ but whose minimized query
    /// is acyclic.
    made_acyclic: usize,
    nonempty: usize,
}

/// Runs `cases` differential cases per signature.
fn sweep(seed: u64, cases: usize, max_nodes: usize) -> Sweep {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = ExecScratch::new();
    let mut totals = Sweep::default();
    for (family, axes) in families() {
        let mut done = 0;
        while done < cases {
            let Some(written) = planted_query(&mut rng, &axes) else {
                continue;
            };
            done += 1;
            assert!(!written.is_acyclic(), "{family}: {written}");
            let minimized = drop_implied_atoms(&written);
            assert!(
                minimized.axis_atom_count() < written.axis_atom_count(),
                "{family}: nothing dropped from {written}"
            );
            assert_eq!(minimized.label_atoms(), written.label_atoms());
            assert_eq!(minimized.head(), written.head());
            assert_eq!(minimized.var_count(), written.var_count());

            // Most random cyclic queries have no answer on a random tree:
            // draw up to four trees and keep the first with one.
            let mut attempts = 0;
            let (tree, expected) = loop {
                let tree_config = RandomTreeConfig {
                    nodes: rng.gen_range(2..=max_nodes),
                    alphabet: LABELS.iter().map(|s| s.to_string()).collect(),
                    multi_label_probability: 0.1,
                    ..RandomTreeConfig::default()
                };
                let tree = random_tree(&mut rng, &tree_config);
                let expected = naive_answer(&tree, &written);
                attempts += 1;
                if expected.is_nonempty() || attempts == 4 {
                    break (tree, expected);
                }
            };
            let plan = CompiledQuery::compile(minimized.clone());
            let mac = CompiledQuery::compile_with(written.clone(), EvalStrategy::Mac);
            assert_eq!(
                plan.eval_on(&tree, &mut scratch),
                expected,
                "{family}: minimized {minimized} of {written}"
            );
            assert_eq!(
                mac.eval_on(&tree, &mut scratch),
                expected,
                "{family}: forced MAC on {written}"
            );
            assert_eq!(naive_answer(&tree, &minimized), expected, "{minimized}");

            totals.cases += 1;
            totals.nonempty += usize::from(expected.is_nonempty());
            totals.made_acyclic += usize::from(plan.strategy() == SelectedStrategy::Yannakakis);
        }
    }
    totals
}

#[test]
fn minimized_plans_match_the_naive_oracle_and_mac() {
    let totals = sweep(0x3141, 120, 12);
    assert_eq!(totals.cases, 480);
    // The sweep exercises both outcomes: planted triangles that become
    // acyclic, and answers that are not all empty.
    assert!(4 * totals.made_acyclic >= totals.cases, "{totals:?}");
    assert!(4 * totals.nonempty >= totals.cases, "{totals:?}");
}

#[test]
#[ignore = "deep sweep: run in release mode with --include-ignored"]
fn deep_sweep() {
    let totals = sweep(0x2718, 5_000, 16);
    assert_eq!(totals.cases, 20_000);
    assert!(4 * totals.made_acyclic >= totals.cases, "{totals:?}");
}
