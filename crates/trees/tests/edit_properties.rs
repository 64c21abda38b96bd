//! Differential properties of the incremental edit applier.
//!
//! Every random edit script is applied two independent ways:
//!
//! 1. **incrementally** — [`EditScript::apply_to`], the production path:
//!    surgical splice/tombstone mutation plus re-indexing (or the relabel
//!    fast path that shares the structural index verbatim);
//! 2. **against a naive model** — a recursive `ModelNode` structure with
//!    obvious, independent implementations of insert/delete/relabel,
//!    rebuilt from scratch through [`TreeBuilder`] at the end.
//!
//! The two must agree on *everything*: the model itself, the structure
//! digest, every rank-space index array, per-node labels and orders, and
//! materialized axis relations (compared in pre-order rank space, which is
//! also both trees' node numbering). A second property runs
//! conjunctive queries over both trees through every applicable engine
//! strategy and requires identical answers — the evaluation stack cannot
//! tell an incrementally edited tree from a freshly built one.

use std::collections::BTreeSet;

use cqt_core::{Answer, Engine, EvalStrategy};
use cqt_query::parse_query;
use cqt_trees::edit::{EditScript, TreeEdit};
use cqt_trees::generate::{random_edit_script, random_tree, EditScriptConfig, RandomTreeConfig};
use cqt_trees::{Axis, Order, Tree, TreeBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// The naive model
// ---------------------------------------------------------------------------

/// An ordered labeled tree with none of `Tree`'s indexing — the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ModelNode {
    labels: BTreeSet<String>,
    children: Vec<ModelNode>,
}

fn model_of(tree: &Tree) -> ModelNode {
    fn rec(tree: &Tree, node: cqt_trees::NodeId) -> ModelNode {
        ModelNode {
            labels: tree
                .label_names(node)
                .into_iter()
                .map(|s| s.to_owned())
                .collect(),
            children: tree
                .children(node)
                .iter()
                .map(|&child| rec(tree, child))
                .collect(),
        }
    }
    rec(tree, tree.root())
}

fn model_size(node: &ModelNode) -> u32 {
    1 + node.children.iter().map(model_size).sum::<u32>()
}

/// Child-index path from the root to the node at pre-order `rank`.
fn path_to(root: &ModelNode, mut rank: u32) -> Vec<usize> {
    assert!(rank < model_size(root));
    let mut path = Vec::new();
    let mut node = root;
    'descend: while rank > 0 {
        rank -= 1; // skip `node` itself
        for (i, child) in node.children.iter().enumerate() {
            let size = model_size(child);
            if rank < size {
                path.push(i);
                node = child;
                continue 'descend;
            }
            rank -= size;
        }
        unreachable!("rank within size but no child contains it");
    }
    path
}

fn node_at_path<'a>(root: &'a mut ModelNode, path: &[usize]) -> &'a mut ModelNode {
    let mut node = root;
    for &i in path {
        node = &mut node.children[i];
    }
    node
}

/// The model-side edit semantics: independent of the production applier.
fn model_apply(root: &mut ModelNode, edit: &TreeEdit) {
    match edit {
        TreeEdit::InsertSubtree {
            parent_pre,
            position,
            subtree,
        } => {
            let parent = node_at_path(root, &path_to(root, *parent_pre));
            parent.children.insert(*position, model_of(subtree));
        }
        TreeEdit::DeleteSubtree { node_pre } => {
            let mut path = path_to(root, *node_pre);
            let last = path.pop().expect("cannot delete the model root");
            node_at_path(root, &path).children.remove(last);
        }
        TreeEdit::Relabel { node_pre, labels } => {
            let node = node_at_path(root, &path_to(root, *node_pre));
            node.labels = labels.iter().cloned().collect();
        }
    }
}

/// From-scratch rebuild: the model through `TreeBuilder`, fresh interner.
fn build_from_model(model: &ModelNode) -> Tree {
    fn rec(builder: &mut TreeBuilder, parent: Option<cqt_trees::NodeId>, node: &ModelNode) {
        let labels: Vec<&str> = node.labels.iter().map(String::as_str).collect();
        let id = match parent {
            None => builder.add_root(&labels),
            Some(p) => builder.add_child(p, &labels),
        };
        for child in &node.children {
            rec(builder, Some(id), child);
        }
    }
    let mut builder = TreeBuilder::new();
    rec(&mut builder, None, model);
    builder.build().expect("model is a valid tree")
}

// ---------------------------------------------------------------------------
// Comparisons (all in pre-order rank space, the node numbering of every tree)
// ---------------------------------------------------------------------------

fn axis_pairs_pre(tree: &Tree, axis: Axis) -> BTreeSet<(u32, u32)> {
    axis.pairs(tree)
        .into_iter()
        .map(|(u, v)| (tree.rank(Order::Pre, u), tree.rank(Order::Pre, v)))
        .collect()
}

/// Full node/axis comparison of two trees as ordered labeled documents.
fn assert_trees_identical(incremental: &Tree, scratch: &Tree) {
    assert_eq!(incremental.len(), scratch.len());
    assert_eq!(incremental.structure_digest(), scratch.structure_digest());
    assert_eq!(incremental.pre_end_by_pre(), scratch.pre_end_by_pre());
    assert_eq!(incremental.parent_by_pre(), scratch.parent_by_pre());
    assert_eq!(
        incremental.prev_sibling_by_pre(),
        scratch.prev_sibling_by_pre()
    );
    assert_eq!(
        incremental.next_sibling_by_pre(),
        scratch.next_sibling_by_pre()
    );
    for rank in 0..incremental.len() as u32 {
        let a = incremental.node_at(Order::Pre, rank);
        let b = scratch.node_at(Order::Pre, rank);
        // Sorted by name: per-node label order follows interner symbols,
        // which legitimately differ between carried and fresh interners.
        let mut names_a = incremental.label_names(a);
        let mut names_b = scratch.label_names(b);
        names_a.sort_unstable();
        names_b.sort_unstable();
        assert_eq!(names_a, names_b);
        assert_eq!(incremental.depth(a), scratch.depth(b));
        assert_eq!(incremental.post_rank(a), scratch.post_rank(b));
        assert_eq!(incremental.bflr_rank(a), scratch.bflr_rank(b));
        assert_eq!(incremental.children(a).len(), scratch.children(b).len());
        assert_eq!(incremental.subtree_size(a), scratch.subtree_size(b));
    }
    for axis in [
        Axis::Child,
        Axis::ChildPlus,
        Axis::NextSibling,
        Axis::NextSiblingStar,
        Axis::Following,
    ] {
        assert_eq!(
            axis_pairs_pre(incremental, axis),
            axis_pairs_pre(scratch, axis),
            "axis {axis} diverged"
        );
    }
}

/// Canonicalizes an answer to pre-order rank space for cross-tree equality.
fn canon(tree: &Tree, answer: &Answer) -> Vec<Vec<u32>> {
    let mut rows: Vec<Vec<u32>> = match answer {
        Answer::Boolean(true) => vec![Vec::new()],
        Answer::Boolean(false) => Vec::new(),
        Answer::Nodes(nodes) => nodes
            .iter()
            .map(|&n| vec![tree.rank(Order::Pre, n)])
            .collect(),
        Answer::Tuples(tuples) => tuples
            .iter()
            .map(|t| t.iter().map(|&n| tree.rank(Order::Pre, n)).collect())
            .collect(),
    };
    rows.sort();
    rows
}

fn apply_both(base: &Tree, script: &EditScript) -> (Tree, Tree) {
    let (incremental, _) = script.apply_to(base).expect("generated scripts apply");
    let mut model = model_of(base);
    for edit in script.edits() {
        model_apply(&mut model, edit);
    }
    assert_eq!(
        model_of(&incremental),
        model,
        "incremental result diverged from the model"
    );
    (incremental, build_from_model(&model))
}

fn tree_config(nodes: usize) -> RandomTreeConfig {
    RandomTreeConfig {
        nodes,
        multi_label_probability: 0.15,
        ..RandomTreeConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(112))]

    /// ≥ 100 random scripts: the incrementally edited tree is identical —
    /// structure digest, every index array, labels, orders, axis relations —
    /// to a from-scratch rebuild of the naive model.
    #[test]
    fn incremental_edits_match_scratch_rebuild(
        seed in 0u64..1 << 48,
        nodes in 2usize..90,
        edits in 1usize..7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = random_tree(&mut rng, &tree_config(nodes));
        let script = random_edit_script(
            &mut rng,
            &base,
            &EditScriptConfig { edits, ..EditScriptConfig::default() },
        );
        let (incremental, scratch) = apply_both(&base, &script);
        assert_trees_identical(&incremental, &scratch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Query answers over an edited tree agree across every applicable
    /// engine strategy, and equal the answers over the from-scratch rebuild:
    /// the evaluation stack cannot distinguish the two.
    #[test]
    fn strategies_agree_on_edited_trees(
        seed in 0u64..1 << 48,
        nodes in 6usize..24,
        edits in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = random_tree(&mut rng, &tree_config(nodes));
        let script = random_edit_script(
            &mut rng,
            &base,
            &EditScriptConfig { edits, ..EditScriptConfig::default() },
        );
        let (incremental, scratch) = apply_both(&base, &script);

        // Acyclic queries: all four strategies are applicable.
        let acyclic = [
            parse_query("Q(y) :- A(x), Child+(x, y), B(y).").unwrap(),
            parse_query("Q() :- A(x), Child(x, y), B(y), NextSibling(y, z), C(z).").unwrap(),
            parse_query("Q(x) :- C(x), Following(x, y), D(y).").unwrap(),
        ];
        let all = [
            EvalStrategy::Naive,
            EvalStrategy::Mac,
            EvalStrategy::Yannakakis,
            EvalStrategy::Auto,
        ];
        for query in &acyclic {
            let reference = canon(
                &incremental,
                &Engine::with_strategy(EvalStrategy::Naive).eval(&incremental, query),
            );
            for strategy in all {
                prop_assert_eq!(
                    &canon(&incremental, &Engine::with_strategy(strategy).eval(&incremental, query)),
                    &reference,
                    "{:?} diverged on the edited tree for {}", strategy, query
                );
                prop_assert_eq!(
                    &canon(&scratch, &Engine::with_strategy(strategy).eval(&scratch, query)),
                    &reference,
                    "{:?} diverged between edited and rebuilt trees for {}", strategy, query
                );
            }
        }

        // A cyclic query: the complete strategies (Yannakakis needs
        // acyclicity, so it sits this one out — same split as the
        // workspace strategy-agreement suite).
        let cyclic =
            parse_query("Q() :- A(x), Child+(x, y), Child+(x, z), Following(y, z), B(y).")
                .unwrap();
        let complete = [EvalStrategy::Naive, EvalStrategy::Mac, EvalStrategy::Auto];
        let reference = canon(
            &incremental,
            &Engine::with_strategy(EvalStrategy::Naive).eval(&incremental, &cyclic),
        );
        for strategy in complete {
            prop_assert_eq!(
                &canon(&incremental, &Engine::with_strategy(strategy).eval(&incremental, &cyclic)),
                &reference,
                "{:?} diverged on the edited tree (cyclic)", strategy
            );
            prop_assert_eq!(
                &canon(&scratch, &Engine::with_strategy(strategy).eval(&scratch, &cyclic)),
                &reference,
                "{:?} diverged between edited and rebuilt trees (cyclic)", strategy
            );
        }
    }
}
