//! One node numbering: a built tree's node ids are its pre-order ranks,
//! whatever order its builder was fed in.
//!
//! Each case draws a random tree and feeds it to a [`TreeBuilder`] in four
//! orders: pre-order, breadth-first, reverse-sibling (the children of a
//! node are added left to right, its subtrees expanded right to left) and a
//! random valid order (any node whose parent and left siblings exist may
//! come next). Every build must number its nodes in pre-order, put each
//! handle's labels, parent and children at the handle's pre-order rank, and
//! equal the pre-order build in every index array and in
//! [`Tree::structure_digest`].
//!
//! The digest and codec pins hold values computed before node ids became
//! pre-order ranks: write-ahead logs carry those digests, so logs written
//! then must still verify.
//!
//! `deep_sweep` repeats the sweep over 20,000 trees; run it in release mode
//! with `cargo test --release -p cqt-trees --test numbering_properties --
//! --include-ignored`.

use std::collections::VecDeque;

use cqt_trees::codec::tree_to_bytes;
use cqt_trees::generate::{random_tree, RandomTreeConfig};
use cqt_trees::parse::parse_term;
use cqt_trees::{NodeId, Order, Tree, TreeBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds `model` by adding its nodes in `order`, which must list every node
/// after its parent and its left siblings. Returns the tree and the handle
/// each model node got.
fn build_in(model: &Tree, order: &[NodeId]) -> (Tree, Vec<NodeId>) {
    let mut builder = TreeBuilder::new();
    let mut handle = vec![None; model.len()];
    for &node in order {
        let names = model.label_names(node);
        let created = match model.parent(node) {
            None => builder.add_root(&names),
            Some(parent) => builder.add_child(handle[parent.index()].unwrap(), &names),
        };
        handle[node.index()] = Some(created);
    }
    let handles = handle.into_iter().map(Option::unwrap).collect();
    (builder.build().unwrap(), handles)
}

fn pre_order(model: &Tree) -> Vec<NodeId> {
    let mut order = Vec::new();
    let mut stack = vec![model.root()];
    while let Some(node) = stack.pop() {
        order.push(node);
        stack.extend(model.children(node).iter().rev());
    }
    order
}

fn breadth_first(model: &Tree) -> Vec<NodeId> {
    let mut order = Vec::new();
    let mut queue = VecDeque::from([model.root()]);
    while let Some(node) = queue.pop_front() {
        order.push(node);
        queue.extend(model.children(node));
    }
    order
}

/// Children added left to right as soon as their parent exists; subtrees
/// expanded right to left.
fn reverse_sibling(model: &Tree) -> Vec<NodeId> {
    let mut order = vec![model.root()];
    let mut stack = vec![model.root()];
    while let Some(node) = stack.pop() {
        order.extend(model.children(node));
        stack.extend(model.children(node));
    }
    order
}

/// A uniformly drawn next node among those whose parent and left siblings
/// already exist.
fn random_valid(model: &Tree, rng: &mut StdRng) -> Vec<NodeId> {
    let mut order = Vec::new();
    let mut ready = vec![model.root()];
    while !ready.is_empty() {
        let node = ready.swap_remove(rng.gen_range(0..ready.len()));
        order.push(node);
        ready.extend(model.first_child(node));
        ready.extend(model.next_sibling(node));
    }
    order
}

fn sorted_names(tree: &Tree, node: NodeId) -> Vec<&str> {
    let mut names = tree.label_names(node);
    names.sort_unstable();
    names
}

/// Checks a build of `model` against the pre-order build `reference`.
fn check_build(model: &Tree, reference: &Tree, built: &Tree, handles: &[NodeId], how: &str) {
    let n = model.len();
    assert_eq!(built.len(), n, "{how}");
    // Ids are pre-order ranks: a depth-first walk meets 0, 1, 2, ...
    let walked: Vec<usize> = pre_order(built).iter().map(|v| v.index()).collect();
    assert_eq!(
        walked,
        (0..n).collect::<Vec<_>>(),
        "{how}: ids are not ranks"
    );
    // The model is itself built by a generator, so its ids are ranks too:
    // a handle's node lands at the id of the model node it was made for.
    for id in model.nodes() {
        let handle = handles[id.index()];
        assert_eq!(built.rank(Order::Pre, id), id.index() as u32, "{how}");
        let names = (sorted_names(built, id), sorted_names(model, id));
        assert_eq!(names.0, names.1, "{how}: labels of handle {handle}");
        assert_eq!(
            built.parent(id),
            model.parent(id),
            "{how}: parent of {handle}"
        );
        assert_eq!(
            built.children(id),
            model.children(id),
            "{how}: children of {handle}"
        );
    }
    assert_eq!(built.pre_end_by_pre(), reference.pre_end_by_pre(), "{how}");
    assert_eq!(built.parent_by_pre(), reference.parent_by_pre(), "{how}");
    assert_eq!(
        built.prev_sibling_by_pre(),
        reference.prev_sibling_by_pre(),
        "{how}"
    );
    assert_eq!(
        built.next_sibling_by_pre(),
        reference.next_sibling_by_pre(),
        "{how}"
    );
    assert_eq!(
        built.rank_array(Order::Post),
        reference.rank_array(Order::Post)
    );
    assert_eq!(
        built.rank_array(Order::Bflr),
        reference.rank_array(Order::Bflr)
    );
    for node in built.nodes() {
        assert_eq!(built.depth(node), reference.depth(node), "{how}");
        assert_eq!(
            built.sibling_rank(node),
            reference.sibling_rank(node),
            "{how}"
        );
        assert_eq!(
            built.subtree_size(node),
            reference.subtree_size(node),
            "{how}"
        );
    }
    for (_, name) in reference.interner().iter() {
        assert_eq!(
            built.nodes_with_label_name(name),
            reference.nodes_with_label_name(name),
            "{how}: label set {name}"
        );
    }
    assert_eq!(
        built.structure_digest(),
        reference.structure_digest(),
        "{how}"
    );
    assert_eq!(built.structure_digest(), model.structure_digest(), "{how}");
}

/// Runs `trees` random cases; returns how many had a breadth-first order
/// that differs from pre-order, so the sweep provably renumbers.
fn sweep(seed: u64, trees: usize, max_nodes: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut renumbered = 0;
    for _ in 0..trees {
        let config = RandomTreeConfig {
            nodes: rng.gen_range(1..=max_nodes),
            alphabet: ["A", "B", "C", "D"].map(String::from).to_vec(),
            multi_label_probability: 0.3,
            attach_window: if rng.gen_bool(0.5) { 3 } else { usize::MAX },
        };
        let model = random_tree(&mut rng, &config);
        let (reference, handles) = build_in(&model, &pre_order(&model));
        check_build(&model, &reference, &reference, &handles, "pre-order");
        assert!(
            handles.iter().enumerate().all(|(i, h)| h.index() == i),
            "a builder fed in pre-order gets ids equal to its handles"
        );
        let bfs = breadth_first(&model);
        renumbered += usize::from(bfs != pre_order(&model));
        for (how, order) in [
            ("breadth-first", bfs),
            ("reverse-sibling", reverse_sibling(&model)),
            ("random", random_valid(&model, &mut rng)),
        ] {
            let (built, handles) = build_in(&model, &order);
            check_build(&model, &reference, &built, &handles, how);
        }
    }
    renumbered
}

#[test]
fn every_builder_order_numbers_nodes_in_pre_order() {
    let renumbered = sweep(0x1d5, 500, 24);
    assert!(2 * renumbered >= 500, "only {renumbered} of 500 renumbered");
}

#[test]
#[ignore = "deep sweep: run in release mode with --include-ignored"]
fn deep_sweep() {
    let renumbered = sweep(0xdee9, 20_000, 40);
    assert!(2 * renumbered >= 20_000, "only {renumbered} renumbered");
}

/// `A(B(C), X)` fed breadth-first, so its builder handles are not its ids.
fn breadth_first_abcx() -> Tree {
    let mut builder = TreeBuilder::new();
    let a = builder.add_root(&["A"]);
    let b = builder.add_child(a, &["B"]);
    builder.add_child(a, &["X"]);
    builder.add_child(b, &["C"]);
    builder.build().unwrap()
}

#[test]
fn structure_digests_match_the_values_old_logs_carry() {
    let pinned = [
        (parse_term("A").unwrap(), 0x25c5_bffa_f310_4021u64),
        (
            parse_term("R(A(B|E, C), D(F, G|H|I), J)").unwrap(),
            0xb10f_014d_bd4e_457a,
        ),
        (breadth_first_abcx(), 0x5833_28a3_e11d_7d60),
    ];
    for (tree, digest) in pinned {
        assert_eq!(tree.structure_digest(), digest, "{tree:?}");
    }
}

#[test]
fn tree_encoding_matches_the_bytes_old_snapshots_hold() {
    let expected: Vec<u8> = [
        &[4, 0, 0, 0][..],
        &[0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 65],
        &[1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 66],
        &[2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 67],
        &[1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 88],
    ]
    .concat();
    assert_eq!(tree_to_bytes(&breadth_first_abcx()), expected);
}
