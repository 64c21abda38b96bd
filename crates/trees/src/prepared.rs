//! A tree prepared for repeated (and concurrent) query evaluation.
//!
//! The evaluation engines derive everything they need from a [`Tree`]'s
//! structural index, but some derived artifacts are worth keeping around when
//! the *same document* is queried many times — the serving scenario of the
//! `cqt-service` crate:
//!
//! * **materialized axis relations** ([`MaterializedRelation`]): the explicit
//!   extensions used by the Horn-SAT/AC-4 arc-consistency engine, the naive
//!   baseline and the X̲-property checker. Building one is O(output) — up to
//!   quadratic for the closure axes — so re-deriving it per query dwarfs the
//!   query itself on repeated workloads;
//! * the **document summary** ([`DocSummary`]) read by corpus-level pruning.
//!
//! Label sets need no cache: node ids are pre-order ranks, so the tree's own
//! [`Tree::nodes_with_label`] sets already are the rank-space sets the
//! semijoin kernels start from.
//!
//! A [`PreparedTree`] owns the tree and builds its caches **lazily** behind
//! [`std::sync::OnceLock`]s, so it is `Sync`: a corpus of `Arc<PreparedTree>`s
//! can be shared across worker threads and whichever thread first needs an
//! artifact builds it exactly once. Build counters are exposed so tests (and
//! the serving harness) can assert that repeated queries do not re-derive
//! axes.

use std::collections::BTreeSet;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::axis::Axis;
use crate::edit::EditSummary;
use crate::relation::MaterializedRelation;
use crate::tree::Tree;

/// A compact, epoch-accurate summary of one document, consumed by
/// corpus-level pruning layers (the `cqt-service` label index): which labels
/// occur on at least one node, how many nodes the tree has, its height, and
/// which axes can hold between *any* pair of nodes at all.
///
/// The axis flags are a sound over-approximation: [`DocSummary::can_satisfy`]
/// returning `false` proves the axis relation is empty on this tree (a
/// root-only tree has no `Child` pair; a tree where no node has two children
/// has no `NextSibling` or `Following` pair), so a query whose every disjunct
/// contains such an axis atom has an empty answer on the document. Returning
/// `true` proves nothing — the query still runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DocSummary {
    /// Names of every label carried by at least one node.
    labels: BTreeSet<String>,
    node_count: usize,
    max_depth: u32,
    /// Whether some node has at least two children — the existence condition
    /// shared by every sibling-order axis and by `Following`/`Preceding`.
    has_sibling_pair: bool,
}

impl DocSummary {
    /// Summarizes `tree` from scratch: one pass over the interner for label
    /// presence and one pass over the nodes for the sibling flag.
    pub fn of_tree(tree: &Tree) -> DocSummary {
        let mut labels = BTreeSet::new();
        for (label, name) in tree.interner().iter() {
            if !tree.nodes_with_label(label).is_empty() {
                labels.insert(name.to_owned());
            }
        }
        let has_sibling_pair = tree.nodes().any(|n| tree.children(n).len() >= 2);
        DocSummary {
            labels,
            node_count: tree.len(),
            max_depth: tree.height(),
            has_sibling_pair,
        }
    }

    /// Carries `prev` across a structure-preserving commit: the structural
    /// fields are adopted unchanged (the edit moved no nodes) and only the
    /// labels named in [`EditSummary::touched_labels`] are re-probed against
    /// the post-edit `tree`. Equivalent to — but much cheaper than —
    /// [`DocSummary::of_tree`] on the new epoch.
    pub fn carried(prev: &DocSummary, tree: &Tree, edit: &EditSummary) -> DocSummary {
        debug_assert!(edit.keeps_structure());
        let mut labels = prev.labels.clone();
        for name in &edit.touched_labels {
            let present = tree
                .label(name)
                .is_some_and(|l| !tree.nodes_with_label(l).is_empty());
            if present {
                labels.insert(name.clone());
            } else {
                labels.remove(name);
            }
        }
        DocSummary {
            labels,
            node_count: prev.node_count,
            max_depth: prev.max_depth,
            has_sibling_pair: prev.has_sibling_pair,
        }
    }

    /// Whether at least one node carries `label`.
    pub fn has_label(&self, label: &str) -> bool {
        self.labels.contains(label)
    }

    /// The names of every label present on the document, sorted.
    pub fn labels(&self) -> &BTreeSet<String> {
        &self.labels
    }

    /// Number of nodes in the document.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Height of the document (root-only tree: 0).
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Whether `axis` holds between at least one pair of nodes. `false` is a
    /// proof of emptiness; `true` is merely "cannot rule it out".
    pub fn can_satisfy(&self, axis: Axis) -> bool {
        match axis {
            // Reflexive axes hold on every (node, node) loop.
            Axis::ChildStar
            | Axis::NextSiblingStar
            | Axis::AncestorStar
            | Axis::PrevSiblingStar
            | Axis::SelfAxis => true,
            // A parent/child pair exists iff the tree has an edge.
            Axis::Child | Axis::ChildPlus | Axis::Parent | Axis::AncestorPlus => {
                self.node_count >= 2
            }
            // Sibling-order pairs (and disjoint-subtree pairs) exist iff
            // some node has two children.
            Axis::NextSibling
            | Axis::NextSiblingPlus
            | Axis::PrevSibling
            | Axis::PrevSiblingPlus
            | Axis::Following
            | Axis::Preceding => self.has_sibling_pair,
        }
    }
}

/// A [`Tree`] plus lazily-built, thread-shared caches of derived artifacts
/// (materialized axis relations, the document summary).
///
/// Dereferences to [`Tree`], so every structural accessor is available
/// directly. Construction computes a cheap *structure hash* over the tree's
/// shape and labels, which serving layers can use to identify documents in
/// reports and cache keys.
#[derive(Debug)]
pub struct PreparedTree {
    tree: Tree,
    /// One lazily-built relation per axis, indexed by [`Axis::index`].
    /// `Arc`-wrapped so an epoch swap carries a relation (up to O(n²) pairs
    /// for the closure axes) by reference count, not by deep copy.
    relations: Vec<OnceLock<Arc<MaterializedRelation>>>,
    /// Number of relations actually built (cache misses).
    relation_builds: AtomicU64,
    /// Lazily-built document summary for corpus-level pruning.
    summary: OnceLock<DocSummary>,
    /// Number of summaries actually computed from scratch (cache misses).
    summary_builds: AtomicU64,
    /// Axis relations adopted from a previous epoch by
    /// [`PreparedTree::prepare_edited`] instead of being re-derived.
    carried_relations: u64,
    structure_hash: u64,
}

impl PreparedTree {
    /// Prepares `tree` for repeated evaluation. No cache entry is built yet;
    /// each is derived on first use.
    pub fn new(tree: Tree) -> Self {
        let structure_hash = tree.structure_digest();
        PreparedTree {
            tree,
            relations: (0..Axis::COUNT).map(|_| OnceLock::new()).collect(),
            relation_builds: AtomicU64::new(0),
            summary: OnceLock::new(),
            summary_builds: AtomicU64::new(0),
            carried_relations: 0,
            structure_hash,
        }
    }

    /// Prepares the result of an edit commit, carrying forward every cache
    /// entry of `self` (the previous epoch) that the edit *provably* cannot
    /// have invalidated — per the [`EditSummary`] contract of
    /// [`crate::edit`]:
    ///
    /// * when the script changed no structure
    ///   ([`EditSummary::keeps_structure`]), the structural index of `tree`
    ///   is bit-identical to the previous epoch's, so every already-built
    ///   **axis relation** is adopted as-is, and so is the document summary,
    ///   re-probed only for [`EditSummary::touched_labels`];
    /// * a structural edit shifts node ids, so nothing is carried and every
    ///   cache is rebuilt lazily on first use.
    ///
    /// `tree` must be the result of applying the summarized script to
    /// `self.tree()`. Carried relations are counted in
    /// [`PreparedTree::carried_relations`], not in the build counters.
    pub fn prepare_edited(&self, tree: Tree, summary: &EditSummary) -> Self {
        let mut next = PreparedTree::new(tree);
        if !summary.keeps_structure() {
            return next;
        }
        debug_assert_eq!(next.tree.len(), self.tree.len());
        for (slot, prev) in next.relations.iter_mut().zip(&self.relations) {
            if let Some(relation) = prev.get() {
                let _ = slot.set(Arc::clone(relation));
                next.carried_relations += 1;
            }
        }
        // The document summary survives a structure-preserving commit too:
        // only the touched labels are re-probed against the new tree.
        if let Some(prev) = self.summary.get() {
            let _ = next
                .summary
                .set(DocSummary::carried(prev, &next.tree, summary));
        }
        next
    }

    /// How many axis relations were adopted from the previous epoch at
    /// construction time (zero for a tree prepared from scratch).
    pub fn carried_relations(&self) -> u64 {
        self.carried_relations
    }

    /// Always 0: label sets are the tree's own [`Tree::nodes_with_label`]
    /// sets, built with the tree, so no epoch carries one. Kept because the
    /// repository benchmark reads the name.
    pub fn carried_label_sets(&self) -> u64 {
        0
    }

    /// The underlying tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Consumes the preparation, returning the tree (caches are dropped).
    pub fn into_tree(self) -> Tree {
        self.tree
    }

    /// The materialized extension of `axis` over this tree, built on first
    /// use and shared by every subsequent caller (and thread).
    pub fn relation(&self, axis: Axis) -> &MaterializedRelation {
        self.relations[axis.index()].get_or_init(|| {
            self.relation_builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(MaterializedRelation::from_axis(&self.tree, axis))
        })
    }

    /// How many axis relations have been materialized so far. Flat across
    /// repeated queries touching the same axes — that is the point.
    pub fn relation_builds(&self) -> u64 {
        self.relation_builds.load(Ordering::Relaxed)
    }

    /// Always 0: after indexing no label set is built, because the tree's
    /// own [`Tree::nodes_with_label`] sets are already in the rank space the
    /// engines run in. Kept because the repository benchmark reads the name.
    pub fn label_set_builds(&self) -> u64 {
        0
    }

    /// The pruning summary of this document epoch, built on first use and
    /// shared by every subsequent caller (and thread). A structure-preserving
    /// commit carries the previous epoch's summary forward via
    /// [`DocSummary::carried`] instead of rebuilding it.
    pub fn doc_summary(&self) -> &DocSummary {
        self.summary.get_or_init(|| {
            self.summary_builds.fetch_add(1, Ordering::Relaxed);
            DocSummary::of_tree(&self.tree)
        })
    }

    /// How many document summaries were computed from scratch (zero when the
    /// summary was carried from the previous epoch or never requested).
    pub fn summary_builds(&self) -> u64 {
        self.summary_builds.load(Ordering::Relaxed)
    }

    /// A hash of the tree's structure and labeling
    /// ([`Tree::structure_digest`], precomputed), stable for a given
    /// document regardless of when or where it was prepared. Serving layers
    /// use it to identify document *epochs* in reports and plan-cache keys:
    /// any committed edit changes it, so a plan bound to the old hash can
    /// never be looked up for the new epoch.
    pub fn structure_hash(&self) -> u64 {
        self.structure_hash
    }
}

impl Deref for PreparedTree {
    type Target = Tree;

    fn deref(&self) -> &Tree {
        &self.tree
    }
}

impl From<Tree> for PreparedTree {
    fn from(tree: Tree) -> Self {
        PreparedTree::new(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_term;

    #[test]
    fn relations_are_built_once_and_agree_with_direct_materialization() {
        let prepared = PreparedTree::new(parse_term("A(B(D, E), C(F))").unwrap());
        assert_eq!(prepared.relation_builds(), 0);
        for _ in 0..3 {
            let rel = prepared.relation(Axis::Following);
            let direct = MaterializedRelation::from_axis(prepared.tree(), Axis::Following);
            assert_eq!(rel.len(), direct.len());
            for (u, v) in direct.pairs() {
                assert!(rel.contains(u, v));
            }
        }
        assert_eq!(prepared.relation_builds(), 1);
        prepared.relation(Axis::Child);
        prepared.relation(Axis::Following);
        assert_eq!(prepared.relation_builds(), 2);
    }

    #[test]
    fn structure_hash_distinguishes_shape_and_labels() {
        let a = PreparedTree::new(parse_term("A(B, C)").unwrap());
        let a2 = PreparedTree::new(parse_term("A(B, C)").unwrap());
        let shape = PreparedTree::new(parse_term("A(B(C))").unwrap());
        let labels = PreparedTree::new(parse_term("A(B, D)").unwrap());
        assert_eq!(a.structure_hash(), a2.structure_hash());
        assert_ne!(a.structure_hash(), shape.structure_hash());
        assert_ne!(a.structure_hash(), labels.structure_hash());
    }

    #[test]
    fn deref_exposes_tree_accessors() {
        let prepared = PreparedTree::new(parse_term("A(B)").unwrap());
        assert_eq!(prepared.len(), 2);
        assert_eq!(prepared.tree().len(), 2);
        let tree = PreparedTree::new(parse_term("A(B)").unwrap()).into_tree();
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn relabel_only_commit_carries_relations() {
        use crate::edit::{EditScript, TreeEdit};
        let prev = PreparedTree::new(parse_term("A(B(D), C(D))").unwrap());
        prev.relation(Axis::ChildPlus);
        prev.relation(Axis::Following);
        // Relabel the B node to E: structure untouched, labels B and E touched.
        let script = EditScript::single(TreeEdit::Relabel {
            node_pre: 1,
            labels: vec!["E".into()],
        });
        let (tree, summary) = script.apply_to(prev.tree()).unwrap();
        let next = prev.prepare_edited(tree, &summary);
        assert_ne!(prev.structure_hash(), next.structure_hash());
        assert_eq!(next.carried_relations(), 2);
        // Carried artifacts are *legal*: identical to a from-scratch rebuild.
        let fresh = MaterializedRelation::from_axis(next.tree(), Axis::ChildPlus);
        let carried = next.relation(Axis::ChildPlus);
        assert_eq!(carried.len(), fresh.len());
        for (u, v) in fresh.pairs() {
            assert!(carried.contains(u, v));
        }
        // Serving from carried entries performs no builds.
        assert_eq!(next.relation_builds(), 0);
    }

    #[test]
    fn structural_commit_carries_nothing() {
        use crate::edit::{EditScript, TreeEdit};
        let prev = PreparedTree::new(parse_term("A(B(D), C(D))").unwrap());
        prev.relation(Axis::Child);
        let script = EditScript::single(TreeEdit::DeleteSubtree { node_pre: 3 });
        let (tree, summary) = script.apply_to(prev.tree()).unwrap();
        let next = prev.prepare_edited(tree, &summary);
        assert_eq!(next.carried_relations(), 0);
        assert_ne!(prev.structure_hash(), next.structure_hash());
        // Everything is rebuilt lazily against the new epoch.
        assert!(!next.relation(Axis::Child).is_empty());
        assert_eq!(next.relation_builds(), 1);
    }

    #[test]
    fn doc_summary_reports_labels_and_axis_presence() {
        let chain = PreparedTree::new(parse_term("A(B(C))").unwrap());
        let summary = chain.doc_summary();
        assert!(summary.has_label("A") && summary.has_label("B") && summary.has_label("C"));
        assert!(!summary.has_label("Z"));
        assert_eq!(summary.node_count(), 3);
        assert_eq!(summary.max_depth(), 2);
        // A pure chain has parent/child pairs but no sibling pair, hence no
        // Following/NextSibling pair either.
        assert!(summary.can_satisfy(Axis::Child));
        assert!(summary.can_satisfy(Axis::AncestorPlus));
        assert!(!summary.can_satisfy(Axis::NextSibling));
        assert!(!summary.can_satisfy(Axis::Following));
        assert!(!summary.can_satisfy(Axis::Preceding));

        let root_only = PreparedTree::new(parse_term("A").unwrap());
        let summary = root_only.doc_summary();
        assert!(!summary.can_satisfy(Axis::Child));
        assert!(!summary.can_satisfy(Axis::ChildPlus));
        assert!(!summary.can_satisfy(Axis::Parent));
        // Reflexive axes hold on the root loop regardless.
        assert!(summary.can_satisfy(Axis::ChildStar));
        assert!(summary.can_satisfy(Axis::SelfAxis));

        let bushy = PreparedTree::new(parse_term("A(B, C)").unwrap());
        assert!(bushy.doc_summary().can_satisfy(Axis::NextSibling));
        assert!(bushy.doc_summary().can_satisfy(Axis::Following));
        assert_eq!(bushy.summary_builds(), 1, "summary is built once");
    }

    #[test]
    fn relabel_only_commit_carries_the_doc_summary() {
        use crate::edit::{EditScript, TreeEdit};
        let prev = PreparedTree::new(parse_term("A(B(D), C(D))").unwrap());
        assert!(prev.doc_summary().has_label("B"));
        // Relabel the only B node to E: B disappears, E appears.
        let script = EditScript::single(TreeEdit::Relabel {
            node_pre: 1,
            labels: vec!["E".into()],
        });
        let (tree, summary) = script.apply_to(prev.tree()).unwrap();
        let next = prev.prepare_edited(tree, &summary);
        let carried = next.doc_summary();
        assert_eq!(next.summary_builds(), 0, "summary was carried, not rebuilt");
        assert_eq!(carried, &DocSummary::of_tree(next.tree()));
        assert!(!carried.has_label("B"));
        assert!(carried.has_label("E"));
        assert!(carried.has_label("D"), "untouched labels survive");
    }

    #[test]
    fn structural_commit_rebuilds_the_doc_summary() {
        use crate::edit::{EditScript, TreeEdit};
        let prev = PreparedTree::new(parse_term("A(B, C)").unwrap());
        assert!(prev.doc_summary().can_satisfy(Axis::NextSibling));
        let script = EditScript::single(TreeEdit::DeleteSubtree { node_pre: 2 });
        let (tree, summary) = script.apply_to(prev.tree()).unwrap();
        let next = prev.prepare_edited(tree, &summary);
        let rebuilt = next.doc_summary();
        assert_eq!(next.summary_builds(), 1);
        assert_eq!(rebuilt, &DocSummary::of_tree(next.tree()));
        assert!(!rebuilt.has_label("C"));
        assert!(!rebuilt.can_satisfy(Axis::NextSibling));
    }

    #[test]
    fn prepared_tree_is_sync_and_shareable() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<PreparedTree>();
        let prepared = std::sync::Arc::new(PreparedTree::new(parse_term("A(B, C)").unwrap()));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let p = std::sync::Arc::clone(&prepared);
                scope.spawn(move || {
                    for _ in 0..10 {
                        p.relation(Axis::ChildPlus);
                    }
                });
            }
        });
        // OnceLock runs the initializer exactly once even under contention.
        assert_eq!(prepared.relation_builds(), 1);
        assert!(!prepared.relation(Axis::ChildPlus).is_empty());
    }
}
