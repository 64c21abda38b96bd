//! Prevaluations and valuations (Section 3).
//!
//! A *prevaluation* for a query `Q` over a structure `A` is a total function
//! `Φ : Var(Q) → 2^A` assigning each variable a set of candidate nodes; it is
//! *arc-consistent* when every unary atom is satisfied by every candidate and
//! every binary atom has, for each candidate on one side, at least one
//! supporting candidate on the other side. A *valuation* `θ : Var(Q) → A` is
//! *consistent* (a *satisfaction*) when it satisfies every atom.

use cqt_query::{ConjunctiveQuery, Var};
use cqt_trees::{NodeId, NodeSet, Order, Tree};

/// A prevaluation `Φ : Var(Q) → 2^A`, stored as one [`NodeSet`] per variable
/// of the query (indexed by the variable's raw index).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prevaluation {
    sets: Vec<NodeSet>,
}

impl Prevaluation {
    /// The prevaluation assigning every variable all nodes of `tree`.
    pub fn full(tree: &Tree, query: &ConjunctiveQuery) -> Self {
        Prevaluation {
            sets: vec![NodeSet::full(tree.len()); query.var_count()],
        }
    }

    /// Builds a prevaluation from explicit per-variable sets.
    ///
    /// # Panics
    /// Panics if `sets.len()` differs from the query's variable count.
    pub fn from_sets(query: &ConjunctiveQuery, sets: Vec<NodeSet>) -> Self {
        assert_eq!(
            sets.len(),
            query.var_count(),
            "one set per variable required"
        );
        Prevaluation { sets }
    }

    /// The candidate set of `var`.
    pub fn get(&self, var: Var) -> &NodeSet {
        &self.sets[var.index()]
    }

    /// Mutable access to the candidate set of `var`.
    pub fn get_mut(&mut self, var: Var) -> &mut NodeSet {
        &mut self.sets[var.index()]
    }

    /// Every variable's candidate set, indexed by variable.
    pub(crate) fn sets_mut(&mut self) -> &mut [NodeSet] {
        &mut self.sets
    }

    /// Replaces the candidate set of `var`.
    pub fn set(&mut self, var: Var, nodes: NodeSet) {
        self.sets[var.index()] = nodes;
    }

    /// Overwrites this prevaluation with `other`, reusing the existing
    /// per-variable set allocations (blockwise copies when the shapes match).
    ///
    /// The per-candidate loops of the evaluators re-derive many restricted
    /// prevaluations from one global fixpoint; `copy_from` keeps that
    /// allocation-free where `clone` would reallocate every set.
    pub fn copy_from(&mut self, other: &Prevaluation) {
        self.sets.resize_with(other.sets.len(), || {
            NodeSet::empty(other.sets.first().map_or(0, NodeSet::capacity))
        });
        for (dst, src) in self.sets.iter_mut().zip(&other.sets) {
            dst.clone_from(src);
        }
    }

    /// Restricts the candidate set of `var` to the single node `candidate`,
    /// without allocating.
    ///
    /// # Panics
    /// Panics if `candidate` is out of range for the set.
    pub fn restrict_to_singleton(&mut self, var: Var, candidate: NodeId) {
        let set = &mut self.sets[var.index()];
        set.clear();
        set.insert(candidate);
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.sets.len()
    }

    /// Whether some variable has an empty candidate set (in which case no
    /// arc-consistent prevaluation — and hence no satisfaction — exists
    /// within these candidates).
    pub fn has_empty_set(&self) -> bool {
        self.sets.iter().any(NodeSet::is_empty)
    }

    /// Total number of candidates over all variables (a useful measure of
    /// pruning progress).
    pub fn total_candidates(&self) -> usize {
        self.sets.iter().map(NodeSet::len).sum()
    }

    /// The *minimum valuation* with respect to `order` (Lemma 3.4): each
    /// variable is mapped to the smallest node of its candidate set in the
    /// given order. Returns `None` if some candidate set is empty.
    pub fn minimum_valuation(&self, tree: &Tree, order: Order) -> Option<Valuation> {
        let rank = tree.rank_array(order);
        let mut assignment = Vec::with_capacity(self.sets.len());
        for set in &self.sets {
            // Without a rank array the order is pre-order: the smallest id.
            assignment.push(match rank {
                Some(rank) => set.min_by_rank(rank)?,
                None => set.any_member()?,
            });
        }
        Some(Valuation { assignment })
    }

    /// Whether `valuation` picks a candidate from every variable's set.
    pub fn contains_valuation(&self, valuation: &Valuation) -> bool {
        valuation.assignment.len() == self.sets.len()
            && valuation
                .assignment
                .iter()
                .zip(&self.sets)
                .all(|(&node, set)| set.contains(node))
    }
}

/// A total valuation `θ : Var(Q) → A`, stored as one node per variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Valuation {
    assignment: Vec<NodeId>,
}

impl Valuation {
    /// Builds a valuation from the per-variable assignment (indexed by raw
    /// variable index).
    pub fn new(assignment: Vec<NodeId>) -> Self {
        Valuation { assignment }
    }

    /// The node assigned to `var`.
    pub fn get(&self, var: Var) -> NodeId {
        self.assignment[var.index()]
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.assignment.len()
    }

    /// The underlying assignment vector.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.assignment
    }

    /// The tuple of nodes assigned to the query's head variables, in head
    /// order.
    pub fn head_tuple(&self, query: &ConjunctiveQuery) -> Vec<NodeId> {
        query.head().iter().map(|&v| self.get(v)).collect()
    }

    /// Whether the valuation is *consistent* (a satisfaction): every unary
    /// and binary atom of `query` holds under it.
    pub fn is_satisfaction(&self, tree: &Tree, query: &ConjunctiveQuery) -> bool {
        debug_assert_eq!(self.assignment.len(), query.var_count());
        for atom in query.label_atoms() {
            if !tree.has_label_name(self.get(atom.var), &atom.label) {
                return false;
            }
        }
        for atom in query.axis_atoms() {
            if !atom
                .axis
                .holds(tree, self.get(atom.from), self.get(atom.to))
            {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqt_query::parse_query;
    use cqt_trees::parse::parse_term;

    fn setup() -> (Tree, ConjunctiveQuery) {
        let tree = parse_term("A(B(D), C)").unwrap();
        let query = parse_query("Q() :- A(x), Child(x, y), B(y).").unwrap();
        (tree, query)
    }

    #[test]
    fn full_prevaluation_and_counters() {
        let (tree, query) = setup();
        let pre = Prevaluation::full(&tree, &query);
        assert_eq!(pre.var_count(), 2);
        assert_eq!(pre.total_candidates(), 8);
        assert!(!pre.has_empty_set());
    }

    #[test]
    fn minimum_valuation_picks_order_minima() {
        let (tree, query) = setup();
        let x = query.find_var("x").unwrap();
        let y = query.find_var("y").unwrap();
        let mut pre = Prevaluation::full(&tree, &query);
        // Restrict x to {root} and y to {B-node, C-node}.
        pre.set(x, NodeSet::from_nodes(tree.len(), [tree.root()]));
        let b = tree.nodes_with_label_name("B").any_member().unwrap();
        let c = tree.nodes_with_label_name("C").any_member().unwrap();
        pre.set(y, NodeSet::from_nodes(tree.len(), [b, c]));
        let val = pre.minimum_valuation(&tree, Order::Pre).unwrap();
        assert_eq!(val.get(x), tree.root());
        // In pre-order the B node comes before the C node.
        assert_eq!(val.get(y), b);
        assert!(pre.contains_valuation(&val));
        assert!(val.is_satisfaction(&tree, &query));
        // Empty set: no minimum valuation.
        pre.set(y, NodeSet::empty(tree.len()));
        assert!(pre.minimum_valuation(&tree, Order::Pre).is_none());
        assert!(pre.has_empty_set());
    }

    #[test]
    fn satisfaction_checking() {
        let (tree, query) = setup();
        let b = tree.nodes_with_label_name("B").any_member().unwrap();
        let c = tree.nodes_with_label_name("C").any_member().unwrap();
        let good = Valuation::new(vec![tree.root(), b]);
        let bad_label = Valuation::new(vec![b, b]);
        let bad_axis = Valuation::new(vec![tree.root(), c]); // C is a child but label B fails
        assert!(good.is_satisfaction(&tree, &query));
        assert!(!bad_label.is_satisfaction(&tree, &query));
        assert!(!bad_axis.is_satisfaction(&tree, &query));
        assert_eq!(good.head_tuple(&query), Vec::<NodeId>::new());
        assert_eq!(good.var_count(), 2);
        assert_eq!(good.as_slice().len(), 2);
    }

    #[test]
    fn copy_from_and_singleton_restriction() {
        let (tree, query) = setup();
        let full = Prevaluation::full(&tree, &query);
        let mut scratch = Prevaluation::from_sets(&query, vec![NodeSet::empty(tree.len()); 2]);
        scratch.copy_from(&full);
        assert_eq!(scratch, full);
        let y = query.find_var("y").unwrap();
        scratch.restrict_to_singleton(y, tree.root());
        assert_eq!(scratch.get(y).len(), 1);
        assert!(scratch.get(y).contains(tree.root()));
        // Copying again restores the full set without reallocating shape.
        scratch.copy_from(&full);
        assert_eq!(scratch, full);
    }

    #[test]
    fn from_sets_validates_length() {
        let (tree, query) = setup();
        let sets = vec![NodeSet::full(tree.len()); query.var_count()];
        let pre = Prevaluation::from_sets(&query, sets);
        assert_eq!(pre.var_count(), query.var_count());
    }

    #[test]
    #[should_panic(expected = "one set per variable")]
    fn from_sets_wrong_length_panics() {
        let (tree, query) = setup();
        Prevaluation::from_sets(&query, vec![NodeSet::full(tree.len())]);
    }
}
