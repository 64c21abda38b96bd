//! Incremental tree edits: edit scripts over a [`Tree`] corpus.
//!
//! The evaluation engines treat a [`Tree`] as frozen — every derived index
//! (rank arrays, subtree intervals, per-label sets) is computed at build time
//! and shared immutably. This module adds the *write path*: a [`TreeEdit`] is
//! one of the three primitive document mutations (insert a subtree, delete a
//! subtree, relabel a node), an [`EditScript`] is a sequence of them, and
//! [`EditScript::apply_to`] produces a fully re-indexed tree plus an
//! [`EditSummary`] describing what the script *could* have invalidated.
//!
//! # Addressing
//!
//! Edits address nodes by **pre-order rank** in the tree they apply to,
//! which is the node's [`NodeId`] (ids are pre-order ranks on every tree).
//! A structural edit shifts the ranks after it, so within a script each edit
//! addresses the tree produced by the edits before it.
//!
//! # Invalidation contract
//!
//! The [`EditSummary`] is the carry-forward contract consumed by
//! [`PreparedTree::prepare_edited`](crate::PreparedTree::prepare_edited):
//!
//! * a **relabel-only** script ([`EditSummary::structure_changed`] is false)
//!   provably preserves every structural index array — the edited tree shares
//!   them verbatim with its predecessor — so materialized **axis relations
//!   remain valid** and are carried forward;
//! * any insert or delete shifts pre-order ranks, so **nothing** derived from
//!   node identity survives: all caches must be rebuilt for the new epoch.
//!
//! Label symbols themselves stay stable across every edit: the edited tree
//! extends its predecessor's interner instead of re-interning, so a
//! [`Label`] obtained from the old epoch still names the same string in the
//! new one (its node set may of course differ).
//!
//! ```
//! use cqt_trees::edit::{EditScript, TreeEdit};
//! use cqt_trees::parse::{parse_term, to_term};
//!
//! let tree = parse_term("R(A(B), C)").unwrap(); // pre-order: R=0 A=1 B=2 C=3
//! let script = EditScript::from_edits(vec![
//!     // Graft D(E) as A's second child; ranks shift: C is now rank 5.
//!     TreeEdit::insert_subtree(1, 1, parse_term("D(E)").unwrap()),
//!     TreeEdit::Relabel { node_pre: 5, labels: vec!["F".into()] },
//!     // Delete the B leaf (rank 2 in the tree the first two edits left).
//!     TreeEdit::DeleteSubtree { node_pre: 2 },
//! ]);
//! let (edited, summary) = script.apply_to(&tree).unwrap();
//! assert_eq!(to_term(&edited), "R(A(D(E)), F)");
//! assert!(summary.structure_changed); // inserts/deletes invalidate caches
//! assert!(summary.touches_label("F"));
//! ```

use std::collections::BTreeSet;
use std::fmt;

use crate::label::Label;
use crate::node::NodeId;
use crate::tree::{index_tree, Tree};

/// Errors produced when validating or applying a [`TreeEdit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditError {
    /// The edit addresses a pre-order rank outside the tree.
    NodeOutOfRange {
        /// The offending pre-order rank.
        pre: u32,
        /// The size of the tree the edit was applied to.
        len: usize,
    },
    /// An insert position exceeds the target's child count.
    PositionOutOfRange {
        /// The requested sibling position.
        position: usize,
        /// The number of children the target node has.
        arity: usize,
    },
    /// Deleting the root would leave an empty document, which the paper's
    /// single-rooted tree model cannot represent.
    DeleteRoot,
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::NodeOutOfRange { pre, len } => {
                write!(f, "pre-order rank {pre} out of range for a {len}-node tree")
            }
            EditError::PositionOutOfRange { position, arity } => {
                write!(f, "insert position {position} exceeds child count {arity}")
            }
            EditError::DeleteRoot => write!(f, "cannot delete the root subtree"),
        }
    }
}

impl std::error::Error for EditError {}

/// One primitive document mutation. See the [module docs](self) for the
/// addressing scheme and the invalidation contract.
#[derive(Clone, Debug)]
pub enum TreeEdit {
    /// Grafts `subtree` (a complete tree of its own) as a new child of the
    /// node at pre-order rank `parent_pre`, at sibling position `position`
    /// (`0..=arity`; existing children at or after `position` shift right).
    InsertSubtree {
        /// Pre-order rank of the node receiving the new child.
        parent_pre: u32,
        /// Sibling position of the grafted root among the parent's children.
        position: usize,
        /// The document fragment to graft; its labels are re-interned into
        /// the host tree's alphabet. Boxed so that relabel/delete-heavy
        /// scripts don't pay the full `Tree` footprint per edit.
        subtree: Box<Tree>,
    },
    /// Deletes the node at pre-order rank `node_pre` together with its whole
    /// subtree. The root cannot be deleted.
    DeleteSubtree {
        /// Pre-order rank of the subtree root to remove.
        node_pre: u32,
    },
    /// Replaces the label set of the node at pre-order rank `node_pre` with
    /// `labels` (which may be empty — nodes may carry zero labels). The only
    /// edit that preserves the structural index.
    Relabel {
        /// Pre-order rank of the node to relabel.
        node_pre: u32,
        /// The node's new label set (deduplicated on application).
        labels: Vec<String>,
    },
}

impl TreeEdit {
    /// An [`TreeEdit::InsertSubtree`] edit (boxing the fragment).
    pub fn insert_subtree(parent_pre: u32, position: usize, subtree: Tree) -> Self {
        TreeEdit::InsertSubtree {
            parent_pre,
            position,
            subtree: Box::new(subtree),
        }
    }

    /// Applies this single edit to `tree`, producing the re-indexed result
    /// and the summary of what it may have invalidated.
    pub fn apply_to(&self, tree: &Tree) -> Result<(Tree, EditSummary), EditError> {
        let mut summary = EditSummary::default();
        let edited = apply_one(tree, self, &mut summary)?;
        Ok((edited, summary))
    }
}

impl fmt::Display for TreeEdit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeEdit::InsertSubtree {
                parent_pre,
                position,
                subtree,
            } => write!(
                f,
                "insert {} nodes under pre {parent_pre} at position {position}",
                subtree.len()
            ),
            TreeEdit::DeleteSubtree { node_pre } => write!(f, "delete subtree at pre {node_pre}"),
            TreeEdit::Relabel { node_pre, labels } => {
                write!(f, "relabel pre {node_pre} to {labels:?}")
            }
        }
    }
}

/// A sequence of [`TreeEdit`]s applied atomically to one document: the
/// serving layer commits a whole script per epoch swap.
#[derive(Clone, Debug, Default)]
pub struct EditScript {
    edits: Vec<TreeEdit>,
}

impl EditScript {
    /// An empty script (applying it is a no-op relabel-free commit).
    pub fn new() -> Self {
        Self::default()
    }

    /// A script holding one edit.
    pub fn single(edit: TreeEdit) -> Self {
        EditScript { edits: vec![edit] }
    }

    /// Wraps a sequence of edits.
    pub fn from_edits(edits: Vec<TreeEdit>) -> Self {
        EditScript { edits }
    }

    /// Appends an edit. It will address the tree as left by the edits
    /// already in the script.
    pub fn push(&mut self, edit: TreeEdit) {
        self.edits.push(edit);
    }

    /// Number of edits in the script.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// Whether the script contains no edits.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// The edits in application order.
    pub fn edits(&self) -> &[TreeEdit] {
        &self.edits
    }

    /// Applies the whole script to `tree`, edit by edit, producing the final
    /// re-indexed tree and the union of the per-edit invalidation summaries.
    ///
    /// Validation is per edit: if edit `k` fails, the error is returned and
    /// the caller's tree is untouched (the intermediate results are
    /// discarded) — commits are all-or-nothing.
    pub fn apply_to(&self, tree: &Tree) -> Result<(Tree, EditSummary), EditError> {
        let mut summary = EditSummary::default();
        let mut current: Option<Tree> = None;
        for edit in &self.edits {
            let base = current.as_ref().unwrap_or(tree);
            current = Some(apply_one(base, edit, &mut summary)?);
        }
        Ok((current.unwrap_or_else(|| tree.clone()), summary))
    }
}

impl fmt::Display for EditScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, edit) in self.edits.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{edit}")?;
        }
        write!(f, "]")
    }
}

/// What a script may have invalidated — the carry-forward contract between
/// the edit applier and
/// [`PreparedTree::prepare_edited`](crate::PreparedTree::prepare_edited).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EditSummary {
    /// Whether any insert or delete ran. False means the structural index
    /// of the edited tree is bit-identical to its predecessor's (only labels
    /// moved), so axis relations and node numbering survive the commit.
    pub structure_changed: bool,
    /// Nodes grafted by inserts.
    pub inserted_nodes: usize,
    /// Nodes removed by deletes.
    pub deleted_nodes: usize,
    /// Relabel edits applied.
    pub relabeled_nodes: usize,
    /// Names of every label whose node set may differ from the previous
    /// epoch: labels added or removed by relabels, and all labels carried by
    /// inserted or deleted subtrees.
    pub touched_labels: BTreeSet<String>,
}

impl EditSummary {
    /// Whether the script provably preserved the structural index (the
    /// relabel-only fast path).
    pub fn keeps_structure(&self) -> bool {
        !self.structure_changed
    }

    /// Whether the node set of `label` may have changed.
    pub fn touches_label(&self, label: &str) -> bool {
        self.touched_labels.contains(label)
    }
}

/// Applies one edit, accumulating into `summary`.
fn apply_one(tree: &Tree, edit: &TreeEdit, summary: &mut EditSummary) -> Result<Tree, EditError> {
    let check_pre = |pre: u32| {
        if (pre as usize) < tree.len() {
            Ok(NodeId::from_index(pre as usize))
        } else {
            Err(EditError::NodeOutOfRange {
                pre,
                len: tree.len(),
            })
        }
    };
    match edit {
        TreeEdit::InsertSubtree {
            parent_pre,
            position,
            subtree,
        } => {
            let parent = check_pre(*parent_pre)?;
            let arity = tree.children(parent).len();
            if *position > arity {
                return Err(EditError::PositionOutOfRange {
                    position: *position,
                    arity,
                });
            }
            summary.structure_changed = true;
            summary.inserted_nodes += subtree.len();
            for node in subtree.nodes() {
                for name in subtree.label_names(node) {
                    summary.touched_labels.insert(name.to_owned());
                }
            }
            Ok(insert_subtree(tree, parent, *position, subtree))
        }
        TreeEdit::DeleteSubtree { node_pre } => {
            let node = check_pre(*node_pre)?;
            if node == tree.root() {
                return Err(EditError::DeleteRoot);
            }
            summary.structure_changed = true;
            summary.deleted_nodes += tree.subtree_size(node);
            for victim in tree.descendants_or_self(node) {
                for name in tree.label_names(victim) {
                    summary.touched_labels.insert(name.to_owned());
                }
            }
            Ok(delete_subtree(tree, node))
        }
        TreeEdit::Relabel { node_pre, labels } => {
            let node = check_pre(*node_pre)?;
            summary.relabeled_nodes += 1;
            let mut interner = tree.interner().clone();
            let new_labels: Vec<Label> = labels.iter().map(|name| interner.intern(name)).collect();
            // Labels entering or leaving the node are the touched ones.
            for name in tree.label_names(node) {
                if !labels.iter().any(|l| l == name) {
                    summary.touched_labels.insert(name.to_owned());
                }
            }
            for name in labels {
                if !tree.has_label_name(node, name) {
                    summary.touched_labels.insert(name.clone());
                }
            }
            Ok(tree.relabeled(node, new_labels, interner))
        }
    }
}

/// Grafts `subtree` under `parent` at `position` and re-indexes.
fn insert_subtree(tree: &Tree, parent: NodeId, position: usize, subtree: &Tree) -> Tree {
    let n = tree.len();
    let mut interner = tree.interner().clone();
    let mut labels: Vec<Vec<Label>> = tree.nodes().map(|v| tree.labels(v).to_vec()).collect();
    let mut parent_of: Vec<Option<NodeId>> = tree.nodes().map(|v| tree.parent(v)).collect();
    let mut children: Vec<Vec<NodeId>> = tree.nodes().map(|v| tree.children(v).to_vec()).collect();
    // Append the grafted nodes after the existing arena, re-interning their
    // labels into the host alphabet; indexing renumbers them in pre-order.
    let map = |sub: NodeId| NodeId::from_index(n + sub.index());
    for node in subtree.nodes() {
        let mut syms: Vec<Label> = subtree
            .label_names(node)
            .iter()
            .map(|name| interner.intern(name))
            .collect();
        syms.sort_unstable();
        syms.dedup();
        labels.push(syms);
        parent_of.push(Some(match subtree.parent(node) {
            Some(p) => map(p),
            None => parent,
        }));
        children.push(subtree.children(node).iter().map(|&c| map(c)).collect());
    }
    children[parent.index()].insert(position, map(subtree.root()));
    index_tree(interner, labels, parent_of, children).expect("edited tree is single-rooted")
}

/// Unlinks the subtree of `node` and re-indexes (indexing drops the dead
/// nodes, since it only walks from the root).
fn delete_subtree(tree: &Tree, node: NodeId) -> Tree {
    let interner = tree.interner().clone();
    let labels: Vec<Vec<Label>> = tree.nodes().map(|v| tree.labels(v).to_vec()).collect();
    let parent_of: Vec<Option<NodeId>> = tree.nodes().map(|v| tree.parent(v)).collect();
    let mut children: Vec<Vec<NodeId>> = tree.nodes().map(|v| tree.children(v).to_vec()).collect();
    let parent = tree.parent(node).expect("delete target is not the root");
    children[parent.index()].retain(|&c| c != node);
    index_tree(interner, labels, parent_of, children).expect("edited tree is single-rooted")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_term, to_term};

    fn edit(tree: &Tree, edit: TreeEdit) -> (Tree, EditSummary) {
        EditScript::single(edit).apply_to(tree).unwrap()
    }

    #[test]
    fn insert_grafts_at_the_requested_position() {
        let tree = parse_term("R(A, C)").unwrap();
        let (t, summary) = edit(
            &tree,
            TreeEdit::InsertSubtree {
                parent_pre: 0,
                position: 1,
                subtree: Box::new(parse_term("B(X)").unwrap()),
            },
        );
        assert_eq!(to_term(&t), "R(A, B(X), C)");
        assert!(summary.structure_changed);
        assert_eq!(summary.inserted_nodes, 2);
        assert!(summary.touches_label("B") && summary.touches_label("X"));
        assert!(!summary.touches_label("A"));
    }

    #[test]
    fn delete_removes_the_whole_subtree() {
        let tree = parse_term("R(A(B, C), D)").unwrap();
        let (t, summary) = edit(&tree, TreeEdit::DeleteSubtree { node_pre: 1 });
        assert_eq!(to_term(&t), "R(D)");
        assert_eq!(summary.deleted_nodes, 3);
        assert_eq!(
            summary.touched_labels,
            ["A", "B", "C"].iter().map(|s| s.to_string()).collect()
        );
    }

    #[test]
    fn relabel_keeps_the_structural_index() {
        let tree = parse_term("R(A(B), C)").unwrap();
        let (t, summary) = edit(
            &tree,
            TreeEdit::Relabel {
                node_pre: 2,
                labels: vec!["B".into(), "E".into()],
            },
        );
        assert!(!summary.structure_changed);
        assert!(summary.keeps_structure());
        assert_eq!(summary.relabeled_nodes, 1);
        // B stays on the node, E arrives: only E is touched.
        assert_eq!(summary.touched_labels, BTreeSet::from(["E".to_string()]));
        assert_eq!(to_term(&t), "R(A(B|E), C)");
        // The structural index is shared verbatim.
        assert_eq!(t.pre_end_by_pre(), tree.pre_end_by_pre());
        assert_eq!(t.parent_by_pre(), tree.parent_by_pre());
        // Old-epoch label symbols keep their meaning.
        assert_eq!(tree.label("B"), t.label("B"));
        assert_eq!(t.nodes_with_label_name("E").len(), 1);
    }

    #[test]
    fn relabel_to_empty_clears_the_node() {
        let tree = parse_term("R(A)").unwrap();
        let (t, summary) = edit(
            &tree,
            TreeEdit::Relabel {
                node_pre: 1,
                labels: vec![],
            },
        );
        assert!(t.labels(NodeId::from_index(1)).is_empty());
        assert_eq!(summary.touched_labels, BTreeSet::from(["A".to_string()]));
        assert!(t.nodes_with_label_name("A").is_empty());
        // The symbol survives in the interner even with an empty extent.
        assert!(t.label("A").is_some());
    }

    #[test]
    fn scripts_apply_sequentially_with_renumbered_addresses() {
        let tree = parse_term("R(A, B)").unwrap();
        let mut script = EditScript::new();
        // Insert C(D) before A: the tree becomes R(C(D), A, B).
        script.push(TreeEdit::InsertSubtree {
            parent_pre: 0,
            position: 0,
            subtree: Box::new(parse_term("C(D)").unwrap()),
        });
        // Pre rank 3 now addresses A (r=0, C=1, D=2, A=3, B=4).
        script.push(TreeEdit::DeleteSubtree { node_pre: 3 });
        let (t, summary) = script.apply_to(&tree).unwrap();
        assert_eq!(to_term(&t), "R(C(D), B)");
        assert_eq!(summary.inserted_nodes, 2);
        assert_eq!(summary.deleted_nodes, 1);
        assert!(summary.structure_changed);
    }

    #[test]
    fn empty_script_is_an_identity_commit() {
        let tree = parse_term("R(A)").unwrap();
        let (t, summary) = EditScript::new().apply_to(&tree).unwrap();
        assert_eq!(to_term(&t), to_term(&tree));
        assert_eq!(summary, EditSummary::default());
        assert_eq!(t.structure_digest(), tree.structure_digest());
    }

    #[test]
    fn errors_are_validated_per_edit() {
        let tree = parse_term("R(A)").unwrap();
        assert_eq!(
            EditScript::single(TreeEdit::DeleteSubtree { node_pre: 0 })
                .apply_to(&tree)
                .unwrap_err(),
            EditError::DeleteRoot
        );
        assert_eq!(
            EditScript::single(TreeEdit::DeleteSubtree { node_pre: 9 })
                .apply_to(&tree)
                .unwrap_err(),
            EditError::NodeOutOfRange { pre: 9, len: 2 }
        );
        assert_eq!(
            EditScript::single(TreeEdit::InsertSubtree {
                parent_pre: 1,
                position: 1,
                subtree: Box::new(parse_term("X").unwrap()),
            })
            .apply_to(&tree)
            .unwrap_err(),
            EditError::PositionOutOfRange {
                position: 1,
                arity: 0
            }
        );
        // Error messages render.
        assert!(EditError::DeleteRoot.to_string().contains("root"));
    }

    #[test]
    fn edited_tree_digest_matches_a_from_scratch_parse() {
        let tree = parse_term("R(A(B), C)").unwrap();
        let (t, _) = edit(
            &tree,
            TreeEdit::InsertSubtree {
                parent_pre: 3,
                position: 0,
                subtree: Box::new(parse_term("D").unwrap()),
            },
        );
        let scratch = parse_term("R(A(B), C(D))").unwrap();
        assert_eq!(to_term(&t), to_term(&scratch));
        assert_eq!(t.structure_digest(), scratch.structure_digest());
    }
}
