//! Per-axis semi-join support primitives.
//!
//! Arc consistency (Proposition 3.1) repeatedly asks, for a binary atom
//! `R(x, y)`:
//!
//! * which candidate nodes for `x` still have at least one `R`-successor
//!   among the candidates for `y` ([`supported_sources`]), and
//! * which candidate nodes for `y` still have at least one `R`-predecessor
//!   among the candidates for `x` ([`supported_targets`]).
//!
//! The same two questions are the *semi-joins* performed by the Yannakakis
//! evaluator for acyclic queries; materializing the (possibly quadratic)
//! relation is never necessary, so these primitives stay within the paper's
//! O(‖A‖·|Q|) budget with room to spare.
//!
//! # Word-parallel rank-space kernels
//!
//! The hot kernels ([`pre_supported_sources`] / [`pre_supported_targets`])
//! operate on [`NodeSet`]s indexed by **pre-order rank**, which is the node
//! id on every [`Tree`], and write into a caller-provided scratch set, so a
//! revision step performs **zero allocations**. Rank space is what turns
//! the per-node loops of the previous implementation (kept as
//! [`scalar`]) into blockwise `u64` operations:
//!
//! * a subtree is the contiguous rank interval `[u, pre_end(u)]`, so the
//!   `Child+`/`Child*` image of a set is a laminar **interval fill**
//!   ([`NodeSet::prefix_or_within_intervals`]) that touches each output block
//!   once;
//! * `Following` is a **rank threshold**: its support sets are a single
//!   [`NodeSet::insert_range`] mask corrected by one ancestor chain;
//! * ancestor and sibling closures are marked output-linearly with a
//!   stop-on-marked walk over the parent/sibling arrays
//!   ([`Tree::parent_by_pre`]), never revisiting a node.
//!
//! The engines run their whole fixpoint on these kernels; `cargo bench -p cqt-bench
//! --bench semijoin_kernels` and `experiments bench --bench-json` measure the
//! speedup over the scalar baseline (see `BENCH_2.json`).

use cqt_trees::{Axis, NodeId, NodeSet, Tree};

/// Computes, **in pre-order rank space**, the set of nodes `u` such that
/// `axis(u, v)` holds for at least one `v ∈ targets`. `out` is overwritten;
/// nothing is allocated.
///
/// # Panics
/// Panics if the set capacities differ from the tree size.
pub fn pre_supported_sources(tree: &Tree, axis: Axis, targets: &NodeSet, out: &mut NodeSet) {
    debug_assert_eq!(targets.capacity(), tree.len());
    match axis {
        // u supported iff some child of u is a target: mark parents.
        Axis::Child => {
            out.clear();
            let parents = tree.parent_by_pre();
            for t in targets.iter() {
                let p = parents[t.index()];
                if p != Tree::NO_PARENT {
                    out.insert(NodeId::from_index(p as usize));
                }
            }
        }
        // u supported iff a target lies (strictly) inside u's subtree:
        // u is a (strict) ancestor of a target.
        Axis::ChildPlus => {
            out.clear();
            mark_chains(tree.parent_by_pre(), targets, out);
        }
        Axis::ChildStar => {
            out.clear();
            mark_chains(tree.parent_by_pre(), targets, out);
            out.union_with(targets);
        }
        // u supported iff its immediate right sibling is a target.
        Axis::NextSibling => {
            out.clear();
            let prev = tree.prev_sibling_by_pre();
            for t in targets.iter() {
                let s = prev[t.index()];
                if s != Tree::NO_PARENT {
                    out.insert(NodeId::from_index(s as usize));
                }
            }
        }
        // u supported iff some right sibling (or u itself, for `*`) is a
        // target: mark left-sibling chains, stop on marked.
        Axis::NextSiblingPlus => {
            out.clear();
            mark_chains(tree.prev_sibling_by_pre(), targets, out);
        }
        Axis::NextSiblingStar => {
            out.clear();
            mark_chains(tree.prev_sibling_by_pre(), targets, out);
            // `NextSibling*` is reflexive (and relates the root to itself).
            out.union_with(targets);
        }
        // u supported iff some target starts after u's subtree ends:
        // pre_end(u) < M where M = max target rank. In rank space that is the
        // prefix [0, M) minus the strict ancestors of the node at rank M
        // (exactly the nodes with pre < M but pre_end >= M).
        Axis::Following => {
            out.clear();
            if let Some(max) = targets.max_member() {
                let m = max.index();
                out.insert_range(0, m);
                let parents = tree.parent_by_pre();
                let mut w = parents[m];
                while w != Tree::NO_PARENT {
                    out.remove(NodeId::from_index(w as usize));
                    w = parents[w as usize];
                }
            }
        }
        Axis::SelfAxis => out.copy_from(targets),
        // Inverse axes: sources of the inverse are targets of the forward axis.
        Axis::Parent
        | Axis::AncestorPlus
        | Axis::AncestorStar
        | Axis::PrevSibling
        | Axis::PrevSiblingPlus
        | Axis::PrevSiblingStar
        | Axis::Preceding => pre_supported_targets(tree, axis.inverse(), targets, out),
    }
}

/// Computes, **in pre-order rank space**, the set of nodes `v` such that
/// `axis(u, v)` holds for at least one `u ∈ sources`. `out` is overwritten;
/// nothing is allocated.
///
/// # Panics
/// Panics if the set capacities differ from the tree size.
pub fn pre_supported_targets(tree: &Tree, axis: Axis, sources: &NodeSet, out: &mut NodeSet) {
    debug_assert_eq!(sources.capacity(), tree.len());
    match axis {
        // v supported iff its parent is a source: mark children of sources.
        // In rank space the first child of a non-leaf `u` is `u + 1` and its
        // siblings follow via the rank-space sibling array — no conversions.
        Axis::Child => {
            out.clear();
            let ends = tree.pre_end_by_pre();
            let next = tree.next_sibling_by_pre();
            for u in sources.iter() {
                let u = u.index();
                if ends[u] as usize == u {
                    continue; // leaf
                }
                let mut c = (u + 1) as u32;
                while c != Tree::NO_PARENT {
                    out.insert(NodeId::from_index(c as usize));
                    c = next[c as usize];
                }
            }
        }
        // v supported iff a (strict) ancestor of v is a source: blockwise
        // laminar interval fill over the subtree intervals of the sources.
        Axis::ChildPlus => {
            out.clear();
            sources.prefix_or_within_intervals(tree.pre_end_by_pre(), false, out);
        }
        Axis::ChildStar => {
            out.clear();
            sources.prefix_or_within_intervals(tree.pre_end_by_pre(), true, out);
        }
        // v supported iff its immediate left sibling is a source.
        Axis::NextSibling => {
            out.clear();
            let next = tree.next_sibling_by_pre();
            for u in sources.iter() {
                let s = next[u.index()];
                if s != Tree::NO_PARENT {
                    out.insert(NodeId::from_index(s as usize));
                }
            }
        }
        Axis::NextSiblingPlus => {
            out.clear();
            mark_chains(tree.next_sibling_by_pre(), sources, out);
        }
        Axis::NextSiblingStar => {
            out.clear();
            mark_chains(tree.next_sibling_by_pre(), sources, out);
            out.union_with(sources);
        }
        // v supported iff some source's subtree ends before v starts:
        // pre(v) > m where m = min over sources of pre_end. A single
        // rank-threshold mask once m is known; the minimum scan early-exits
        // because pre_end(u) >= pre(u) bounds all later candidates.
        Axis::Following => {
            out.clear();
            let ends = tree.pre_end_by_pre();
            let n = tree.len();
            let mut best: Option<usize> = None;
            let mut cursor = 0;
            while let Some(u) = sources.first_member_in_range(cursor, best.unwrap_or(n)) {
                let e = ends[u.index()] as usize;
                best = Some(best.map_or(e, |b| b.min(e)));
                cursor = u.index() + 1;
            }
            if let Some(m) = best {
                out.insert_range(m + 1, n);
            }
        }
        Axis::SelfAxis => out.copy_from(sources),
        Axis::Parent
        | Axis::AncestorPlus
        | Axis::AncestorStar
        | Axis::PrevSibling
        | Axis::PrevSiblingPlus
        | Axis::PrevSiblingStar
        | Axis::Preceding => pre_supported_sources(tree, axis.inverse(), sources, out),
    }
}

/// Revision step for the `from` side of an atom, in rank space: intersects
/// `domain` with the support of `targets` under `axis`, using `scratch` for
/// the support set. Returns whether `domain` shrank. Allocation-free.
pub fn revise_sources(
    tree: &Tree,
    axis: Axis,
    targets: &NodeSet,
    domain: &mut NodeSet,
    scratch: &mut NodeSet,
) -> bool {
    pre_supported_sources(tree, axis, targets, scratch);
    domain.intersect_with_changed(scratch)
}

/// Revision step for the `to` side of an atom, in rank space; see
/// [`revise_sources`].
pub fn revise_targets(
    tree: &Tree,
    axis: Axis,
    sources: &NodeSet,
    domain: &mut NodeSet,
    scratch: &mut NodeSet,
) -> bool {
    pre_supported_targets(tree, axis, sources, scratch);
    domain.intersect_with_changed(scratch)
}

/// Stop-on-marked chain closure: for every member of `set`, follows `links`
/// (a rank-space link array terminated by [`Tree::NO_PARENT`]) marking every
/// rank on the chain into `out`, stopping at the first already-marked rank —
/// whose own chain is fully marked by construction, so the total work is
/// output-linear. Members whose first link equals the previous member's
/// (runs of siblings sharing a parent are consecutive ranks in pre-order)
/// skip the probe entirely.
///
/// With `links = parent_by_pre` this marks strict ancestors (`Child+`/`*`
/// sources); with the sibling arrays it marks strict left/right siblings
/// (`NextSibling+`/`*` supports).
fn mark_chains(links: &[u32], set: &NodeSet, out: &mut NodeSet) {
    let mut last_first_link = Tree::NO_PARENT;
    for t in set.iter() {
        let mut w = links[t.index()];
        if w == last_first_link {
            continue;
        }
        last_first_link = w;
        while w != Tree::NO_PARENT {
            if !out.insert(NodeId::from_index(w as usize)) {
                break;
            }
            w = links[w as usize];
        }
    }
}

/// Returns the set of nodes `u` such that `axis(u, v)` holds for at least one
/// `v ∈ targets`: the allocating form of [`pre_supported_sources`]. Callers
/// on a hot path use the kernel with a scratch set instead, as the
/// arc-consistency and Yannakakis engines do.
pub fn supported_sources(tree: &Tree, axis: Axis, targets: &NodeSet) -> NodeSet {
    let mut out = NodeSet::empty(tree.len());
    pre_supported_sources(tree, axis, targets, &mut out);
    out
}

/// Returns the set of nodes `v` such that `axis(u, v)` holds for at least one
/// `u ∈ sources`. See [`supported_sources`].
pub fn supported_targets(tree: &Tree, axis: Axis, sources: &NodeSet) -> NodeSet {
    let mut out = NodeSet::empty(tree.len());
    pre_supported_targets(tree, axis, sources, &mut out);
    out
}

/// All nodes of a tree as a [`NodeSet`] (the initial prevaluation of an
/// unconstrained variable).
pub fn all_nodes(tree: &Tree) -> NodeSet {
    NodeSet::full(tree.len())
}

/// The previous generation of support primitives: per-node scalar loops over
/// the structural index, allocating fresh `NodeSet`s.
///
/// Asymptotically O(n) like the rank-space kernels, but node-at-a-time and
/// allocation-heavy; kept as the measured baseline for the
/// `semijoin_kernels` bench / `BENCH_2.json` and as an independent
/// implementation for cross-checking.
pub mod scalar {
    use super::*;

    /// Scalar version of [`supported_sources`](super::supported_sources).
    pub fn supported_sources(tree: &Tree, axis: Axis, targets: &NodeSet) -> NodeSet {
        debug_assert_eq!(targets.capacity(), tree.len());
        match axis {
            Axis::Child => {
                let mut out = NodeSet::empty(tree.len());
                for v in targets.iter() {
                    if let Some(parent) = tree.parent(v) {
                        out.insert(parent);
                    }
                }
                out
            }
            Axis::ChildPlus => descendants_support(tree, targets, false),
            Axis::ChildStar => descendants_support(tree, targets, true),
            Axis::NextSibling => {
                let mut out = NodeSet::empty(tree.len());
                for v in targets.iter() {
                    if let Some(prev) = tree.prev_sibling(v) {
                        out.insert(prev);
                    }
                }
                out
            }
            Axis::NextSiblingPlus => sibling_support_right(tree, targets, false),
            Axis::NextSiblingStar => sibling_support_right(tree, targets, true),
            Axis::Following => {
                let mut out = NodeSet::empty(tree.len());
                if let Some(max_pre) = targets.max_member().map(|v| v.index() as u32) {
                    for u in tree.nodes() {
                        if tree.pre_end(u) < max_pre {
                            out.insert(u);
                        }
                    }
                }
                out
            }
            Axis::SelfAxis => targets.clone(),
            Axis::Parent
            | Axis::AncestorPlus
            | Axis::AncestorStar
            | Axis::PrevSibling
            | Axis::PrevSiblingPlus
            | Axis::PrevSiblingStar
            | Axis::Preceding => supported_targets(tree, axis.inverse(), targets),
        }
    }

    /// Scalar version of [`supported_targets`](super::supported_targets).
    pub fn supported_targets(tree: &Tree, axis: Axis, sources: &NodeSet) -> NodeSet {
        debug_assert_eq!(sources.capacity(), tree.len());
        match axis {
            Axis::Child => {
                let mut out = NodeSet::empty(tree.len());
                for v in tree.nodes() {
                    if let Some(parent) = tree.parent(v) {
                        if sources.contains(parent) {
                            out.insert(v);
                        }
                    }
                }
                out
            }
            Axis::ChildPlus => ancestors_support(tree, sources, false),
            Axis::ChildStar => ancestors_support(tree, sources, true),
            Axis::NextSibling => {
                let mut out = NodeSet::empty(tree.len());
                for u in sources.iter() {
                    if let Some(next) = tree.next_sibling(u) {
                        out.insert(next);
                    }
                }
                out
            }
            Axis::NextSiblingPlus => sibling_support_left(tree, sources, false),
            Axis::NextSiblingStar => sibling_support_left(tree, sources, true),
            Axis::Following => {
                let mut out = NodeSet::empty(tree.len());
                let min_end = sources.iter().map(|u| tree.pre_end(u)).min();
                if let Some(min_end) = min_end {
                    for v in tree.nodes() {
                        if v.index() as u32 > min_end {
                            out.insert(v);
                        }
                    }
                }
                out
            }
            Axis::SelfAxis => sources.clone(),
            Axis::Parent
            | Axis::AncestorPlus
            | Axis::AncestorStar
            | Axis::PrevSibling
            | Axis::PrevSiblingPlus
            | Axis::PrevSiblingStar
            | Axis::Preceding => supported_sources(tree, axis.inverse(), sources),
        }
    }

    /// Nodes whose subtree contains a target (`include_self` controls whether
    /// the node itself counts).
    fn descendants_support(tree: &Tree, targets: &NodeSet, include_self: bool) -> NodeSet {
        // Prefix counts of targets in pre-order rank space.
        let n = tree.len();
        let mut prefix = vec![0u32; n + 1];
        for v in targets.iter() {
            prefix[v.index() + 1] += 1;
        }
        for i in 0..n {
            prefix[i + 1] += prefix[i];
        }
        let mut out = NodeSet::empty(n);
        for u in tree.nodes() {
            let lo = u.index() + usize::from(!include_self);
            let hi = tree.pre_end(u) as usize + 1;
            if hi > lo && prefix[hi] - prefix[lo] > 0 {
                out.insert(u);
            }
        }
        out
    }

    /// Nodes that have an ancestor (or self, when `include_self`) in `sources`.
    fn ancestors_support(tree: &Tree, sources: &NodeSet, include_self: bool) -> NodeSet {
        let n = tree.len();
        let mut out = NodeSet::empty(n);
        // Process in pre-order: a node has a source ancestor iff its parent is
        // a source or the parent itself has one.
        let mut has_source_ancestor = vec![false; n];
        for v in tree.nodes() {
            let from_parent = match tree.parent(v) {
                Some(p) => sources.contains(p) || has_source_ancestor[p.index()],
                None => false,
            };
            has_source_ancestor[v.index()] = from_parent;
            if from_parent || (include_self && sources.contains(v)) {
                out.insert(v);
            }
        }
        out
    }

    /// Nodes that have a right sibling (or self, when `include_self`) in
    /// `targets`.
    fn sibling_support_right(tree: &Tree, targets: &NodeSet, include_self: bool) -> NodeSet {
        let mut out = NodeSet::empty(tree.len());
        for parent in tree.nodes() {
            let children = tree.children(parent);
            if children.is_empty() {
                continue;
            }
            let mut any_to_the_right = false;
            for &child in children.iter().rev() {
                if (include_self && targets.contains(child)) || any_to_the_right {
                    out.insert(child);
                }
                if targets.contains(child) {
                    any_to_the_right = true;
                }
            }
        }
        // The root has no siblings; `NextSibling*` still relates it to itself.
        if include_self && targets.contains(tree.root()) {
            out.insert(tree.root());
        }
        out
    }

    /// Nodes that have a left sibling (or self, when `include_self`) in
    /// `sources`.
    fn sibling_support_left(tree: &Tree, sources: &NodeSet, include_self: bool) -> NodeSet {
        let mut out = NodeSet::empty(tree.len());
        for parent in tree.nodes() {
            let children = tree.children(parent);
            if children.is_empty() {
                continue;
            }
            let mut any_to_the_left = false;
            for &child in children.iter() {
                if (include_self && sources.contains(child)) || any_to_the_left {
                    out.insert(child);
                }
                if sources.contains(child) {
                    any_to_the_left = true;
                }
            }
        }
        if include_self && sources.contains(tree.root()) {
            out.insert(tree.root());
        }
        out
    }
}

/// Reference implementations of [`supported_sources`] / [`supported_targets`]
/// by brute-force enumeration; used in tests and available for
/// cross-checking.
pub mod reference {
    use super::*;

    /// Brute-force version of [`supported_sources`](super::supported_sources).
    pub fn supported_sources(tree: &Tree, axis: Axis, targets: &NodeSet) -> NodeSet {
        let mut out = NodeSet::empty(tree.len());
        for u in tree.nodes() {
            if targets.iter().any(|v| axis.holds(tree, u, v)) {
                out.insert(u);
            }
        }
        out
    }

    /// Brute-force version of [`supported_targets`](super::supported_targets).
    pub fn supported_targets(tree: &Tree, axis: Axis, sources: &NodeSet) -> NodeSet {
        let mut out = NodeSet::empty(tree.len());
        for v in tree.nodes() {
            if sources.iter().any(|u| axis.holds(tree, u, v)) {
                out.insert(v);
            }
        }
        out
    }
}

/// Returns `true` iff there exist `u ∈ sources` and `v ∈ targets` with
/// `axis(u, v)`.
pub fn any_pair(tree: &Tree, axis: Axis, sources: &NodeSet, targets: &NodeSet) -> bool {
    !supported_sources(tree, axis, targets)
        .intersection(sources)
        .is_empty()
}

/// For a single source node, the successors under `axis` restricted to
/// `targets` (helper for witness extraction in the Yannakakis evaluator).
pub fn restricted_successors(
    tree: &Tree,
    axis: Axis,
    source: NodeId,
    targets: &NodeSet,
) -> Vec<NodeId> {
    axis.successors(tree, source)
        .into_iter()
        .filter(|&v| targets.contains(v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqt_trees::generate::{random_tree, RandomTreeConfig};
    use cqt_trees::parse::parse_term;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_subset(rng: &mut StdRng, n: usize, density: f64) -> NodeSet {
        let mut set = NodeSet::empty(n);
        for i in 0..n {
            if rng.gen_bool(density) {
                set.insert(NodeId::from_index(i));
            }
        }
        set
    }

    #[test]
    fn fast_support_matches_reference_on_fixed_tree() {
        let tree = parse_term("A(B(D, E(G)), C(F, H, I))").unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..30 {
            let set = random_subset(&mut rng, tree.len(), 0.4);
            for axis in Axis::ALL {
                assert_eq!(
                    supported_sources(&tree, axis, &set),
                    reference::supported_sources(&tree, axis, &set),
                    "sources mismatch for {axis}"
                );
                assert_eq!(
                    supported_targets(&tree, axis, &set),
                    reference::supported_targets(&tree, axis, &set),
                    "targets mismatch for {axis}"
                );
            }
        }
    }

    #[test]
    fn fast_support_matches_reference_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..10 {
            let tree = random_tree(
                &mut rng,
                &RandomTreeConfig {
                    nodes: 40,
                    ..RandomTreeConfig::default()
                },
            );
            let set = random_subset(&mut rng, tree.len(), 0.3);
            for axis in Axis::PAPER_AXES {
                assert_eq!(
                    supported_sources(&tree, axis, &set),
                    reference::supported_sources(&tree, axis, &set),
                    "sources mismatch for {axis}"
                );
                assert_eq!(
                    supported_targets(&tree, axis, &set),
                    reference::supported_targets(&tree, axis, &set),
                    "targets mismatch for {axis}"
                );
            }
        }
    }

    #[test]
    fn scalar_baseline_matches_reference_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..10 {
            let tree = random_tree(
                &mut rng,
                &RandomTreeConfig {
                    nodes: 35,
                    ..RandomTreeConfig::default()
                },
            );
            let set = random_subset(&mut rng, tree.len(), 0.3);
            for axis in Axis::ALL {
                assert_eq!(
                    scalar::supported_sources(&tree, axis, &set),
                    reference::supported_sources(&tree, axis, &set),
                    "scalar sources mismatch for {axis}"
                );
                assert_eq!(
                    scalar::supported_targets(&tree, axis, &set),
                    reference::supported_targets(&tree, axis, &set),
                    "scalar targets mismatch for {axis}"
                );
            }
        }
    }

    #[test]
    fn revision_helpers_report_changes() {
        let tree = parse_term("A(B(D), C)").unwrap();
        let n = tree.len();
        let mut scratch = NodeSet::empty(n);
        // Target the D node: only B supports Child into it.
        let targets = tree.nodes_with_label_name("D");
        let mut domain = NodeSet::full(n);
        assert!(revise_sources(
            &tree,
            Axis::Child,
            &targets,
            &mut domain,
            &mut scratch
        ));
        assert_eq!(domain.len(), 1);
        // Revising again with the same support changes nothing.
        assert!(!revise_sources(
            &tree,
            Axis::Child,
            &targets,
            &mut domain,
            &mut scratch
        ));
    }

    #[test]
    fn empty_target_set_supports_nothing() {
        let tree = parse_term("A(B, C)").unwrap();
        let empty = NodeSet::empty(tree.len());
        for axis in Axis::PAPER_AXES {
            assert!(supported_sources(&tree, axis, &empty).is_empty());
            assert!(supported_targets(&tree, axis, &empty).is_empty());
        }
    }

    #[test]
    fn self_axis_is_identity() {
        let tree = parse_term("A(B, C)").unwrap();
        let set = NodeSet::from_nodes(tree.len(), [tree.root()]);
        assert_eq!(supported_sources(&tree, Axis::SelfAxis, &set), set);
        assert_eq!(supported_targets(&tree, Axis::SelfAxis, &set), set);
    }

    #[test]
    fn any_pair_and_restricted_successors() {
        let tree = parse_term("A(B, C)").unwrap();
        let b = tree.nodes_with_label_name("B").any_member().unwrap();
        let c = tree.nodes_with_label_name("C").any_member().unwrap();
        let sources = NodeSet::from_nodes(tree.len(), [b]);
        let targets = NodeSet::from_nodes(tree.len(), [c]);
        assert!(any_pair(&tree, Axis::NextSibling, &sources, &targets));
        assert!(!any_pair(&tree, Axis::Child, &sources, &targets));
        assert_eq!(
            restricted_successors(&tree, Axis::NextSibling, b, &targets),
            vec![c]
        );
        assert!(restricted_successors(&tree, Axis::Child, b, &targets).is_empty());
    }

    #[test]
    fn all_nodes_is_the_full_set() {
        let tree = parse_term("A(B, C)").unwrap();
        assert_eq!(all_nodes(&tree).len(), 3);
    }
}
