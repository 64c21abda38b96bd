//! Arena-backed unranked labeled trees and their structural index.
//!
//! A [`Tree`] is immutable: it is produced by a [`TreeBuilder`] and, at build
//! time, its nodes are renumbered in document (pre-)order and a structural
//! index is computed that supports O(1) membership tests for every axis of
//! the paper and O(1) rank lookups for the three traversal orders.
//!
//! **A [`NodeId`] is its node's pre-order rank**, on every tree: built,
//! generated, parsed, decoded or edited. This is the node numbering of the
//! XPath accelerator's pre/post plane: the rank-space semijoin kernels, the
//! answer sets and the edit scripts all speak the same numbers, so nothing
//! ever converts between an id and a rank. The index stores, per node:
//!
//! * parent, children (in sibling order), previous/next sibling, sibling rank,
//! * depth (root has depth 0),
//! * the largest pre-order rank inside the node's subtree (the classic
//!   *interval encoding* — `v` is a descendant of `u` iff
//!   `u < v ≤ pre_end(u)`),
//! * post-order and BFLR ranks,
//! * per-label node sets for O(1) retrieval of all nodes carrying a label.

use std::collections::VecDeque;
use std::fmt;
use std::hash::Hasher;

use rustc_hash::FxHasher;
use serde::{Deserialize, Serialize};

use crate::bitset::NodeSet;
use crate::label::{Label, LabelInterner};
use crate::node::NodeId;
use crate::order::Order;

/// Errors produced when finalizing a [`TreeBuilder`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// The builder contains no nodes.
    Empty,
    /// More than one node has no parent; the paper's model is single-rooted.
    MultipleRoots {
        /// The nodes that have no parent.
        roots: Vec<NodeId>,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Empty => write!(f, "cannot build an empty tree"),
            TreeError::MultipleRoots { roots } => {
                write!(f, "tree has {} roots; exactly one is required", roots.len())
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// Incremental builder for [`Tree`]s.
///
/// Nodes are created with [`TreeBuilder::add_root`] / [`TreeBuilder::add_child`]
/// (children are appended left-to-right); labels may be added at creation time
/// or later with [`TreeBuilder::add_label`]. [`TreeBuilder::build`] validates
/// the structure and computes the structural index.
///
/// The [`NodeId`]s the `add_*` methods return are **builder-local handles**;
/// see [`TreeBuilder::build`] for how they relate to the built tree's ids.
///
/// ```
/// use cqt_trees::TreeBuilder;
///
/// let mut b = TreeBuilder::new();
/// let root = b.add_root(&["A"]);
/// let left = b.add_child(root, &["B"]);
/// let _right = b.add_child(root, &["C"]);
/// b.add_child(left, &["D"]);
/// let tree = b.build().unwrap();
/// assert_eq!(tree.len(), 4);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TreeBuilder {
    interner: LabelInterner,
    labels: Vec<Vec<Label>>,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes created so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no node has been created yet.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    fn add_node(&mut self, parent: Option<NodeId>, labels: &[&str]) -> NodeId {
        let id = NodeId::from_index(self.labels.len());
        let mut syms: Vec<Label> = labels.iter().map(|l| self.interner.intern(l)).collect();
        syms.sort_unstable();
        syms.dedup();
        self.labels.push(syms);
        self.parent.push(parent);
        self.children.push(Vec::new());
        if let Some(p) = parent {
            self.children[p.index()].push(id);
        }
        id
    }

    /// Adds a node with no parent. Exactly one such node must exist at build
    /// time; it becomes the root.
    pub fn add_root(&mut self, labels: &[&str]) -> NodeId {
        self.add_node(None, labels)
    }

    /// Adds a new rightmost child of `parent` carrying `labels`.
    pub fn add_child(&mut self, parent: NodeId, labels: &[&str]) -> NodeId {
        self.add_node(Some(parent), labels)
    }

    /// Adds `label` to an existing node (nodes may carry multiple labels).
    pub fn add_label(&mut self, node: NodeId, label: &str) {
        let sym = self.interner.intern(label);
        let labels = &mut self.labels[node.index()];
        if !labels.contains(&sym) {
            labels.push(sym);
            labels.sort_unstable();
        }
    }

    /// Appends a chain of `len` children below `parent`, each carrying the
    /// corresponding label list from `labels` (cycled if shorter than `len`),
    /// returning the last node of the chain. Useful for building the path
    /// gadgets of Section 5 and the path structures of Section 7.
    pub fn add_chain(&mut self, parent: NodeId, labels_per_node: &[&[&str]]) -> NodeId {
        let mut current = parent;
        for labels in labels_per_node {
            current = self.add_child(current, labels);
        }
        current
    }

    /// Validates the structure, numbers the nodes in pre-order and computes
    /// the structural index.
    ///
    /// The built tree's ids are pre-order ranks, whatever order the nodes
    /// were added in. A builder fed **in pre-order** (every node added after
    /// all of its preceding nodes in document order, as the term and XML
    /// parsers and the codec do) gets back ids equal to its handles. A
    /// builder fed in any other order must look its nodes up in the built
    /// tree, by label or by position, rather than reuse its handles.
    pub fn build(self) -> Result<Tree, TreeError> {
        index_tree(self.interner, self.labels, self.parent, self.children)
    }
}

/// Validates a parent/children arena, renumbers it in pre-order and computes
/// the full structural index.
///
/// This is the single place the index invariants live: [`TreeBuilder::build`]
/// and the [`crate::edit`] applier both funnel through it, so every tree's
/// ids are its pre-order ranks. Arena nodes the walk from the root does not
/// reach (a subtree an edit unlinked) are dropped.
pub(crate) fn index_tree(
    interner: LabelInterner,
    mut labels: Vec<Vec<Label>>,
    parent: Vec<Option<NodeId>>,
    mut children: Vec<Vec<NodeId>>,
) -> Result<Tree, TreeError> {
    if labels.is_empty() {
        return Err(TreeError::Empty);
    }
    let roots: Vec<NodeId> = (0..labels.len())
        .filter(|&i| parent[i].is_none())
        .map(NodeId::from_index)
        .collect();
    if roots.len() != 1 {
        return Err(TreeError::MultipleRoots { roots });
    }

    // Pre-order of the arena, with an explicit stack so deep trees do not
    // overflow the call stack. An arena already in pre-order keeps its ids.
    let mut order = Vec::with_capacity(labels.len());
    let mut stack = vec![roots[0]];
    while let Some(node) = stack.pop() {
        order.push(node);
        stack.extend(children[node.index()].iter().rev());
    }
    let in_pre_order = order.len() == labels.len()
        && order
            .iter()
            .enumerate()
            .all(|(rank, node)| node.index() == rank);
    if !in_pre_order {
        let mut rank_of = vec![0u32; labels.len()];
        for (rank, node) in order.iter().enumerate() {
            rank_of[node.index()] = rank as u32;
        }
        let mut new_labels = Vec::with_capacity(order.len());
        let mut new_children = Vec::with_capacity(order.len());
        for node in &order {
            new_labels.push(std::mem::take(&mut labels[node.index()]));
            let mut kids = std::mem::take(&mut children[node.index()]);
            for kid in &mut kids {
                *kid = NodeId::from_index(rank_of[kid.index()] as usize);
            }
            new_children.push(kids);
        }
        labels = new_labels;
        children = new_children;
    }
    let n = labels.len();

    // Every child has a larger id than its parent, so one forward pass sees
    // each parent's depth before its children's.
    let mut parent = vec![Tree::NO_PARENT; n];
    let mut prev_sibling = vec![Tree::NO_PARENT; n];
    let mut next_sibling = vec![Tree::NO_PARENT; n];
    let mut sib_rank = vec![0u32; n];
    let mut depth = vec![0u32; n];
    for (node, kids) in children.iter().enumerate() {
        for (rank, &kid) in kids.iter().enumerate() {
            let kid = kid.index();
            parent[kid] = node as u32;
            depth[kid] = depth[node] + 1;
            sib_rank[kid] = rank as u32;
            if rank > 0 {
                prev_sibling[kid] = kids[rank - 1].index() as u32;
            }
            if let Some(next) = kids.get(rank + 1) {
                next_sibling[kid] = next.index() as u32;
            }
        }
    }

    // A subtree ends where its last child's subtree ends; children come
    // after their parent, so one backward pass suffices.
    let mut pre_end: Vec<u32> = (0..n as u32).collect();
    for node in (0..n).rev() {
        if let Some(last) = children[node].last() {
            pre_end[node] = pre_end[last.index()];
        }
    }

    // post(v) = pre(v) + size(v) - 1 - depth(v): the nodes before v in
    // post-order are its descendants and the pre-order predecessors that
    // are not its ancestors.
    let post: Vec<u32> = (0..n).map(|v| pre_end[v] - depth[v]).collect();
    let mut post_to_node = vec![NodeId::from_index(0); n];
    for (node, &rank) in post.iter().enumerate() {
        post_to_node[rank as usize] = NodeId::from_index(node);
    }

    // BFLR order.
    let mut bflr = vec![0u32; n];
    let mut bflr_to_node = Vec::with_capacity(n);
    let mut queue = VecDeque::from([NodeId::from_index(0)]);
    while let Some(node) = queue.pop_front() {
        bflr[node.index()] = bflr_to_node.len() as u32;
        bflr_to_node.push(node);
        queue.extend(children[node.index()].iter().copied());
    }
    debug_assert_eq!(bflr_to_node.len(), n);

    // Per-label node sets.
    let mut label_nodes = vec![NodeSet::empty(n); interner.len()];
    for (i, node_labels) in labels.iter().enumerate() {
        for &label in node_labels {
            label_nodes[label.index()].insert(NodeId::from_index(i));
        }
    }

    Ok(Tree {
        interner,
        labels,
        children,
        parent,
        prev_sibling,
        next_sibling,
        pre_end,
        depth,
        sib_rank,
        post,
        bflr,
        post_to_node,
        bflr_to_node,
        label_nodes,
    })
}

/// An immutable unranked labeled tree with a full structural index.
///
/// Node ids are pre-order ranks: the root is node 0, and ascending ids are
/// document order. Every per-node array below is indexed by node id, so it
/// is also the rank-space array the semijoin kernels read. See the
/// [module documentation](self) for the invariants of the index.
#[derive(Clone, Serialize, Deserialize)]
pub struct Tree {
    interner: LabelInterner,
    labels: Vec<Vec<Label>>,
    children: Vec<Vec<NodeId>>,
    /// Parent of each node ([`Tree::NO_PARENT`] for the root).
    parent: Vec<u32>,
    /// Previous sibling of each node ([`Tree::NO_PARENT`] when there is none).
    prev_sibling: Vec<u32>,
    /// Next sibling of each node ([`Tree::NO_PARENT`] when there is none).
    next_sibling: Vec<u32>,
    /// Largest node id (pre-order rank) in each node's subtree.
    pre_end: Vec<u32>,
    depth: Vec<u32>,
    sib_rank: Vec<u32>,
    post: Vec<u32>,
    bflr: Vec<u32>,
    post_to_node: Vec<NodeId>,
    bflr_to_node: Vec<NodeId>,
    label_nodes: Vec<NodeSet>,
}

/// Reads a parent or sibling link.
fn link(value: u32) -> Option<NodeId> {
    (value != Tree::NO_PARENT).then(|| NodeId::from_index(value as usize))
}

impl Tree {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the tree is empty (never true for a built tree, provided for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The root node, which is always node 0.
    pub fn root(&self) -> NodeId {
        NodeId::from_index(0)
    }

    /// Iterates over all nodes in id order, which is document order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId::from_index)
    }

    /// The parent of `node`, or `None` for the root.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        link(self.parent[node.index()])
    }

    /// The children of `node` in left-to-right order.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// The first (leftmost) child of `node`.
    pub fn first_child(&self, node: NodeId) -> Option<NodeId> {
        self.children[node.index()].first().copied()
    }

    /// The last (rightmost) child of `node`.
    pub fn last_child(&self, node: NodeId) -> Option<NodeId> {
        self.children[node.index()].last().copied()
    }

    /// The right neighbouring sibling of `node`, if any.
    pub fn next_sibling(&self, node: NodeId) -> Option<NodeId> {
        link(self.next_sibling[node.index()])
    }

    /// The left neighbouring sibling of `node`, if any.
    pub fn prev_sibling(&self, node: NodeId) -> Option<NodeId> {
        link(self.prev_sibling[node.index()])
    }

    /// Depth of `node`; the root has depth 0.
    pub fn depth(&self, node: NodeId) -> u32 {
        self.depth[node.index()]
    }

    /// Position of `node` among its siblings (leftmost child has rank 0).
    pub fn sibling_rank(&self, node: NodeId) -> u32 {
        self.sib_rank[node.index()]
    }

    /// Whether `node` has no children.
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.children[node.index()].is_empty()
    }

    /// Number of nodes in the subtree rooted at `node` (including `node`).
    pub fn subtree_size(&self, node: NodeId) -> usize {
        self.pre_end[node.index()] as usize - node.index() + 1
    }

    // ---- labels ---------------------------------------------------------

    /// The labels of `node`, sorted by symbol.
    pub fn labels(&self, node: NodeId) -> &[Label] {
        &self.labels[node.index()]
    }

    /// The label names of `node`.
    pub fn label_names(&self, node: NodeId) -> Vec<&str> {
        self.labels[node.index()]
            .iter()
            .map(|&l| self.interner.name(l))
            .collect()
    }

    /// Whether `node` carries `label`.
    pub fn has_label(&self, node: NodeId, label: Label) -> bool {
        self.labels[node.index()].binary_search(&label).is_ok()
    }

    /// Whether `node` carries the label named `name`.
    pub fn has_label_name(&self, node: NodeId, name: &str) -> bool {
        match self.interner.get(name) {
            Some(label) => self.has_label(node, label),
            None => false,
        }
    }

    /// The symbol for label `name`, if any node of the tree uses it.
    pub fn label(&self, name: &str) -> Option<Label> {
        self.interner.get(name)
    }

    /// The name of a label symbol.
    pub fn label_name(&self, label: Label) -> &str {
        self.interner.name(label)
    }

    /// The label interner of this tree.
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// All nodes carrying `label`, as a [`NodeSet`].
    pub fn nodes_with_label(&self, label: Label) -> &NodeSet {
        &self.label_nodes[label.index()]
    }

    /// All nodes carrying the label named `name`; the empty set if the label
    /// does not occur in the tree.
    pub fn nodes_with_label_name(&self, name: &str) -> NodeSet {
        match self.interner.get(name) {
            Some(label) => self.label_nodes[label.index()].clone(),
            None => NodeSet::empty(self.len()),
        }
    }

    // ---- orders ---------------------------------------------------------

    /// The rank of `node` in `order` (0-based). The pre-order rank is the
    /// node id itself.
    pub fn rank(&self, order: Order, node: NodeId) -> u32 {
        match order {
            Order::Pre => node.index() as u32,
            Order::Post => self.post[node.index()],
            Order::Bflr => self.bflr[node.index()],
        }
    }

    /// The node at `rank` in `order`.
    ///
    /// # Panics
    /// Panics if `rank >= self.len()`.
    pub fn node_at(&self, order: Order, rank: u32) -> NodeId {
        match order {
            Order::Pre => {
                assert!((rank as usize) < self.len(), "pre-order rank out of range");
                NodeId::from_index(rank as usize)
            }
            Order::Post => self.post_to_node[rank as usize],
            Order::Bflr => self.bflr_to_node[rank as usize],
        }
    }

    /// The full rank array of `order`, indexed by node id; `None` for
    /// [`Order::Pre`], whose rank is the id itself.
    pub fn rank_array(&self, order: Order) -> Option<&[u32]> {
        match order {
            Order::Pre => None,
            Order::Post => Some(&self.post),
            Order::Bflr => Some(&self.bflr),
        }
    }

    /// Iterates over all nodes in increasing `order`.
    pub fn nodes_in_order(&self, order: Order) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(move |rank| self.node_at(order, rank))
    }

    /// Whether `a` strictly precedes `b` in `order`.
    pub fn precedes(&self, order: Order, a: NodeId, b: NodeId) -> bool {
        self.rank(order, a) < self.rank(order, b)
    }

    /// Largest pre-order rank occurring in the subtree of `node`.
    pub fn pre_end(&self, node: NodeId) -> u32 {
        self.pre_end[node.index()]
    }

    /// Sentinel in [`Tree::parent_by_pre`] marking the root (no parent).
    pub const NO_PARENT: u32 = u32::MAX;

    /// `pre_end` of every node, indexed by node id (= pre-order rank):
    /// `pre_end_by_pre()[i]` is the largest rank inside the subtree of `i`.
    ///
    /// This is the interval array consumed by
    /// [`NodeSet::prefix_or_within_intervals`]: subtree intervals in pre-order
    /// rank space are laminar, which is what makes the descendant-closure
    /// semijoin a blockwise fill.
    pub fn pre_end_by_pre(&self) -> &[u32] {
        &self.pre_end
    }

    /// Parent of every node, indexed by node id ([`Tree::NO_PARENT`] for
    /// the root).
    pub fn parent_by_pre(&self) -> &[u32] {
        &self.parent
    }

    /// Previous sibling of every node, indexed by node id
    /// ([`Tree::NO_PARENT`] when there is none). Lets sibling-chain walks
    /// hop one array.
    pub fn prev_sibling_by_pre(&self) -> &[u32] {
        &self.prev_sibling
    }

    /// Next sibling of every node, indexed by node id ([`Tree::NO_PARENT`]
    /// when there is none).
    pub fn next_sibling_by_pre(&self) -> &[u32] {
        &self.next_sibling
    }

    /// Post-order rank of `node`.
    pub fn post_rank(&self, node: NodeId) -> u32 {
        self.post[node.index()]
    }

    /// BFLR rank of `node`.
    pub fn bflr_rank(&self, node: NodeId) -> u32 {
        self.bflr[node.index()]
    }

    // ---- structural predicates used by the axes ------------------------

    /// Whether `descendant` is a proper descendant of `ancestor`
    /// (`Child+(ancestor, descendant)` in the paper's notation).
    pub fn is_descendant(&self, ancestor: NodeId, descendant: NodeId) -> bool {
        ancestor < descendant && descendant.index() <= self.pre_end[ancestor.index()] as usize
    }

    /// Whether `a` and `b` share a parent (both non-root).
    pub fn are_siblings(&self, a: NodeId, b: NodeId) -> bool {
        match (self.parent(a), self.parent(b)) {
            (Some(pa), Some(pb)) => pa == pb,
            _ => false,
        }
    }

    /// The ancestors of `node` from its parent up to the root.
    pub fn ancestors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut current = self.parent(node);
        std::iter::from_fn(move || {
            let next = current?;
            current = self.parent(next);
            Some(next)
        })
    }

    /// The nodes of the subtree rooted at `node` in pre-order (including
    /// `node` itself).
    pub fn descendants_or_self(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        (node.index()..=self.pre_end[node.index()] as usize).map(NodeId::from_index)
    }

    /// The leaves of the tree in pre-order.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&n| self.is_leaf(n))
    }

    /// The maximum depth over all nodes.
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    // ---- structural identity and editing support ------------------------

    /// A hash of the tree's structure and labeling: the subtree intervals in
    /// pre-order plus the label *names* of every node in pre-order.
    /// Two trees digest equally iff they are isomorphic as ordered labeled
    /// trees — independently of how they were built and of label interning
    /// order —
    /// so an incrementally edited tree and a from-scratch rebuild of the same
    /// document always agree. Serving layers use the digest to key caches to
    /// a document epoch.
    pub fn structure_digest(&self) -> u64 {
        let mut hasher = FxHasher::default();
        hasher.write_usize(self.len());
        for &end in self.pre_end_by_pre() {
            hasher.write_u32(end);
        }
        for node in self.nodes() {
            // Sorted by name, not by symbol: trees whose interners grew in
            // different orders (carried vs fresh) must digest equally.
            let mut names = self.label_names(node);
            names.sort_unstable();
            for name in names {
                hasher.write(name.as_bytes());
                hasher.write_u8(0xfe);
            }
            hasher.write_u8(0xff);
        }
        hasher.finish()
    }

    /// A copy of the tree with `node`'s label set replaced by `new_labels`
    /// (symbols of `interner`, which must extend this tree's interner).
    ///
    /// This is the relabel fast path of the [`crate::edit`] applier: the
    /// structural index (ranks, intervals, sibling links) is shared verbatim
    /// — only the per-label node sets are surgically updated — which is what
    /// makes it *provably safe* for a prepared tree to carry materialized
    /// axis relations across a relabel-only edit.
    pub(crate) fn relabeled(
        &self,
        node: NodeId,
        mut new_labels: Vec<Label>,
        interner: LabelInterner,
    ) -> Tree {
        new_labels.sort_unstable();
        new_labels.dedup();
        let mut tree = self.clone();
        let n = tree.len();
        while tree.label_nodes.len() < interner.len() {
            tree.label_nodes.push(NodeSet::empty(n));
        }
        for &old in &tree.labels[node.index()] {
            if new_labels.binary_search(&old).is_err() {
                tree.label_nodes[old.index()].remove(node);
            }
        }
        for &new in &new_labels {
            tree.label_nodes[new.index()].insert(node);
        }
        tree.labels[node.index()] = new_labels;
        tree.interner = interner;
        tree
    }
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tree({} nodes, height {})", self.len(), self.height())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example tree used across this crate's tests:
    ///
    /// ```text
    ///         r(A)
    ///        /    \
    ///      a(B)   b(C)
    ///     /    \      \
    ///   c(D)  d(B,E)  e(D)
    /// ```
    ///
    /// Built in pre-order, so the builder's handles are the tree's ids.
    fn sample() -> (Tree, Vec<NodeId>) {
        let mut b = TreeBuilder::new();
        let r = b.add_root(&["A"]);
        let a = b.add_child(r, &["B"]);
        let c = b.add_child(a, &["D"]);
        let d = b.add_child(a, &["B", "E"]);
        let bb = b.add_child(r, &["C"]);
        let e = b.add_child(bb, &["D"]);
        (b.build().unwrap(), vec![r, a, bb, c, d, e])
    }

    #[test]
    fn empty_builder_is_an_error() {
        assert_eq!(TreeBuilder::new().build().unwrap_err(), TreeError::Empty);
    }

    #[test]
    fn multiple_roots_are_an_error() {
        let mut b = TreeBuilder::new();
        b.add_root(&["A"]);
        b.add_root(&["B"]);
        match b.build().unwrap_err() {
            TreeError::MultipleRoots { roots } => assert_eq!(roots.len(), 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parent_child_sibling_links() {
        let (t, n) = sample();
        let (r, a, b, c, d, e) = (n[0], n[1], n[2], n[3], n[4], n[5]);
        assert_eq!(t.root(), r);
        assert_eq!(t.parent(r), None);
        assert_eq!(t.parent(a), Some(r));
        assert_eq!(t.children(r), &[a, b]);
        assert_eq!(t.children(a), &[c, d]);
        assert_eq!(t.first_child(a), Some(c));
        assert_eq!(t.last_child(a), Some(d));
        assert_eq!(t.next_sibling(a), Some(b));
        assert_eq!(t.prev_sibling(b), Some(a));
        assert_eq!(t.next_sibling(b), None);
        assert_eq!(t.next_sibling(c), Some(d));
        assert_eq!(t.sibling_rank(c), 0);
        assert_eq!(t.sibling_rank(d), 1);
        assert!(t.is_leaf(e));
        assert!(!t.is_leaf(a));
        assert!(t.are_siblings(a, b));
        assert!(!t.are_siblings(a, c));
    }

    #[test]
    fn depth_and_subtree_size() {
        let (t, n) = sample();
        assert_eq!(t.depth(n[0]), 0);
        assert_eq!(t.depth(n[1]), 1);
        assert_eq!(t.depth(n[3]), 2);
        assert_eq!(t.subtree_size(n[0]), 6);
        assert_eq!(t.subtree_size(n[1]), 3);
        assert_eq!(t.subtree_size(n[5]), 1);
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn traversal_orders_match_manual_computation() {
        let (t, n) = sample();
        let (r, a, b, c, d, e) = (n[0], n[1], n[2], n[3], n[4], n[5]);
        // pre-order: r a c d b e
        let pre: Vec<NodeId> = t.nodes_in_order(Order::Pre).collect();
        assert_eq!(pre, vec![r, a, c, d, b, e]);
        // post-order: c d a e b r
        let post: Vec<NodeId> = t.nodes_in_order(Order::Post).collect();
        assert_eq!(post, vec![c, d, a, e, b, r]);
        // bflr: r a b c d e
        let bflr: Vec<NodeId> = t.nodes_in_order(Order::Bflr).collect();
        assert_eq!(bflr, vec![r, a, b, c, d, e]);
        // rank/node_at are inverse.
        for order in Order::ALL {
            for node in t.nodes() {
                assert_eq!(t.node_at(order, t.rank(order, node)), node);
            }
        }
    }

    #[test]
    fn descendant_intervals() {
        let (t, n) = sample();
        let (r, a, b, c, d, e) = (n[0], n[1], n[2], n[3], n[4], n[5]);
        assert!(t.is_descendant(r, a));
        assert!(t.is_descendant(r, e));
        assert!(t.is_descendant(a, c));
        assert!(!t.is_descendant(a, e));
        assert!(!t.is_descendant(a, a));
        assert!(!t.is_descendant(c, a));
        assert_eq!(t.descendants_or_self(a).collect::<Vec<_>>(), vec![a, c, d]);
        assert_eq!(t.ancestors(c).collect::<Vec<_>>(), vec![a, r]);
        assert_eq!(t.ancestors(r).count(), 0);
        assert_eq!(t.leaves().collect::<Vec<_>>(), vec![c, d, e]);
        assert!(t.is_descendant(b, e));
    }

    #[test]
    fn labels_and_label_sets() {
        let (t, n) = sample();
        assert!(t.has_label_name(n[0], "A"));
        assert!(!t.has_label_name(n[0], "B"));
        assert!(t.has_label_name(n[4], "B"));
        assert!(t.has_label_name(n[4], "E"));
        assert_eq!(t.labels(n[4]).len(), 2);
        assert_eq!(t.label_names(n[4]), vec!["B", "E"]);
        let b_nodes = t.nodes_with_label_name("B");
        assert_eq!(b_nodes.len(), 2);
        assert!(b_nodes.contains(n[1]));
        assert!(b_nodes.contains(n[4]));
        assert!(t.nodes_with_label_name("Z").is_empty());
        let d = t.label("D").unwrap();
        assert_eq!(t.label_name(d), "D");
        assert_eq!(t.nodes_with_label(d).len(), 2);
    }

    #[test]
    fn add_label_after_creation_and_chain() {
        let mut b = TreeBuilder::new();
        let r = b.add_root(&["A"]);
        b.add_label(r, "X");
        b.add_label(r, "X"); // duplicate is ignored
        let tail = b.add_chain(r, &[&["P"], &["Q"], &["R"]]);
        let t = b.build().unwrap();
        assert_eq!(t.label_names(t.root()), vec!["A", "X"]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.depth(tail), 3);
        assert!(t.has_label_name(tail, "R"));
    }

    #[test]
    fn index_arrays_are_consistent() {
        let (t, _) = sample();
        let as_link = |v: Option<NodeId>| v.map_or(Tree::NO_PARENT, |v| v.index() as u32);
        for node in t.nodes() {
            assert_eq!(t.rank(Order::Pre, node), node.index() as u32);
            assert_eq!(t.parent_by_pre()[node.index()], as_link(t.parent(node)));
            let siblings = (t.prev_sibling(node), t.next_sibling(node));
            assert_eq!(t.prev_sibling_by_pre()[node.index()], as_link(siblings.0));
            assert_eq!(t.next_sibling_by_pre()[node.index()], as_link(siblings.1));
            let last = t.descendants_or_self(node).last().unwrap();
            assert_eq!(t.pre_end_by_pre()[node.index()], last.index() as u32);
        }
    }

    #[test]
    fn builder_handles_out_of_pre_order_are_renumbered() {
        // A(B(C), X) fed breadth-first: handles A=0 B=1 X=2 C=3.
        let mut b = TreeBuilder::new();
        let a = b.add_root(&["A"]);
        let bb = b.add_child(a, &["B"]);
        b.add_child(a, &["X"]);
        b.add_child(bb, &["C"]);
        let t = b.build().unwrap();
        let names: Vec<Vec<&str>> = t.nodes().map(|v| t.label_names(v)).collect();
        assert_eq!(names, [["A"], ["B"], ["C"], ["X"]]);
        assert_eq!(
            t.children(t.root()),
            &[NodeId::from_index(1), NodeId::from_index(3)]
        );
        assert_eq!(t.parent(NodeId::from_index(2)), Some(NodeId::from_index(1)));
    }

    #[test]
    fn precedes_matches_rank_comparison() {
        let (t, n) = sample();
        assert!(t.precedes(Order::Pre, n[1], n[2]));
        assert!(t.precedes(Order::Post, n[3], n[1]));
        assert!(t.precedes(Order::Bflr, n[2], n[3]));
        assert!(!t.precedes(Order::Pre, n[2], n[1]));
    }
}
