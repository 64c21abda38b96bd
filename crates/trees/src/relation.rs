//! Explicitly materialized binary relations over tree nodes.
//!
//! The theoretical framework of the paper treats trees as relational
//! structures `A` whose size `‖A‖` includes the (possibly quadratic) extension
//! of each axis relation. A [`MaterializedRelation`] is such an extension,
//! stored with both forward and backward adjacency so that the generic
//! X̲-property checker (Definition 3.2) and the naive baseline evaluator can
//! iterate over it without re-deriving it from the structural index.

use serde::{Deserialize, Serialize};

use crate::axis::Axis;
use crate::bitset::NodeSet;
use crate::node::NodeId;
use crate::tree::Tree;

/// A binary relation over the nodes of one tree, materialized as adjacency
/// lists in both directions.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MaterializedRelation {
    /// Human-readable name (axis name or a custom name).
    name: String,
    /// `successors[u]` = all `v` with `R(u, v)`, sorted by id.
    successors: Vec<Vec<NodeId>>,
    /// `predecessors[v]` = all `u` with `R(u, v)`, sorted by id.
    predecessors: Vec<Vec<NodeId>>,
    /// Total number of pairs.
    pair_count: usize,
}

impl MaterializedRelation {
    /// Materializes `axis` over `tree`.
    ///
    /// The local axes (`Child`, `NextSibling`, their inverses, `Self`) are
    /// built directly from the structural index in O(n) — one adjacency read
    /// per node, no `Axis::successors` probing and no re-sort. The closure
    /// axes go through the generic path, which is output-linear (the
    /// materialized extension itself may be quadratic, as the paper's cost
    /// model `‖A‖` accounts for).
    pub fn from_axis(tree: &Tree, axis: Axis) -> Self {
        let n = tree.len();
        let name = axis.paper_name().to_owned();
        // Direct structural adjacency for the local axes. Node ids are
        // pre-order ranks, so children lists (and the single-entry
        // parent/sibling lists) are already sorted by id.
        /// Forward and backward adjacency lists, as built by the local-axis
        /// fast path.
        type Adjacency = (Vec<Vec<NodeId>>, Vec<Vec<NodeId>>);
        let local: Option<Adjacency> = match axis {
            Axis::Child | Axis::Parent => {
                let mut succ = vec![Vec::new(); n];
                let mut pred = vec![Vec::new(); n];
                for v in tree.nodes() {
                    if let Some(p) = tree.parent(v) {
                        succ[p.index()].push(v);
                        pred[v.index()].push(p);
                    }
                }
                Some(if axis == Axis::Child {
                    (succ, pred)
                } else {
                    (pred, succ)
                })
            }
            Axis::NextSibling | Axis::PrevSibling => {
                let mut succ = vec![Vec::new(); n];
                let mut pred = vec![Vec::new(); n];
                for v in tree.nodes() {
                    if let Some(next) = tree.next_sibling(v) {
                        succ[v.index()].push(next);
                        pred[next.index()].push(v);
                    }
                }
                Some(if axis == Axis::NextSibling {
                    (succ, pred)
                } else {
                    (pred, succ)
                })
            }
            Axis::SelfAxis => {
                let diagonal: Vec<Vec<NodeId>> = tree.nodes().map(|v| vec![v]).collect();
                Some((diagonal.clone(), diagonal))
            }
            _ => None,
        };
        if let Some((successors, predecessors)) = local {
            debug_assert!(successors
                .iter()
                .chain(&predecessors)
                .all(|list| list.windows(2).all(|w| w[0] < w[1])));
            let pair_count = successors.iter().map(Vec::len).sum();
            return MaterializedRelation {
                name,
                successors,
                predecessors,
                pair_count,
            };
        }
        let mut successors = vec![Vec::new(); n];
        let mut predecessors = vec![Vec::new(); n];
        let mut pair_count = 0;
        for u in tree.nodes() {
            for v in axis.successors(tree, u) {
                successors[u.index()].push(v);
                predecessors[v.index()].push(u);
                pair_count += 1;
            }
        }
        // Successor lists from `Axis::successors` are not sorted by id
        // for every axis, but predecessors are appended in increasing `u`;
        // skip the sort wherever insertion order is already sorted.
        for list in successors.iter_mut().chain(predecessors.iter_mut()) {
            if !list.windows(2).all(|w| w[0] < w[1]) {
                list.sort_unstable();
            }
        }
        MaterializedRelation {
            name,
            successors,
            predecessors,
            pair_count,
        }
    }

    /// Builds a relation from an explicit pair list over a domain of
    /// `domain_size` nodes.
    pub fn from_pairs(
        name: impl Into<String>,
        domain_size: usize,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Self {
        let mut successors = vec![Vec::new(); domain_size];
        let mut predecessors = vec![Vec::new(); domain_size];
        for (u, v) in pairs {
            successors[u.index()].push(v);
            predecessors[v.index()].push(u);
        }
        for list in successors.iter_mut().chain(predecessors.iter_mut()) {
            list.sort_unstable();
            list.dedup();
        }
        let pair_count = successors.iter().map(Vec::len).sum();
        MaterializedRelation {
            name: name.into(),
            successors,
            predecessors,
            pair_count,
        }
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes in the domain.
    pub fn domain_size(&self) -> usize {
        self.successors.len()
    }

    /// Number of pairs in the relation.
    pub fn len(&self) -> usize {
        self.pair_count
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.pair_count == 0
    }

    /// Whether `R(u, v)` holds.
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.successors[u.index()].binary_search(&v).is_ok()
    }

    /// All `v` with `R(u, v)`.
    pub fn successors(&self, u: NodeId) -> &[NodeId] {
        &self.successors[u.index()]
    }

    /// All `u` with `R(u, v)`.
    pub fn predecessors(&self, v: NodeId) -> &[NodeId] {
        &self.predecessors[v.index()]
    }

    /// Iterates over all pairs `(u, v)` of the relation.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.successors
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (NodeId::from_index(u), v)))
    }

    /// The set of nodes with at least one outgoing pair.
    pub fn domain_with_successors(&self) -> NodeSet {
        let mut set = NodeSet::empty(self.domain_size());
        for (u, vs) in self.successors.iter().enumerate() {
            if !vs.is_empty() {
                set.insert(NodeId::from_index(u));
            }
        }
        set
    }

    /// The set of nodes with at least one incoming pair.
    pub fn range_with_predecessors(&self) -> NodeSet {
        let mut set = NodeSet::empty(self.domain_size());
        for (v, us) in self.predecessors.iter().enumerate() {
            if !us.is_empty() {
                set.insert(NodeId::from_index(v));
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_term;

    #[test]
    fn materialized_axis_agrees_with_holds() {
        let tree = parse_term("A(B(D, E), C(F))").unwrap();
        for axis in Axis::PAPER_AXES {
            let rel = MaterializedRelation::from_axis(&tree, axis);
            assert_eq!(rel.name(), axis.paper_name());
            assert_eq!(rel.domain_size(), tree.len());
            for u in tree.nodes() {
                for v in tree.nodes() {
                    assert_eq!(
                        rel.contains(u, v),
                        axis.holds(&tree, u, v),
                        "{axis} mismatch at ({u}, {v})"
                    );
                }
            }
            assert_eq!(rel.len(), rel.pairs().count());
            assert_eq!(rel.len(), axis.pair_count(&tree));
        }
    }

    #[test]
    fn successors_and_predecessors_are_consistent() {
        let tree = parse_term("A(B(D, E), C(F))").unwrap();
        let rel = MaterializedRelation::from_axis(&tree, Axis::Following);
        for (u, v) in rel.pairs() {
            assert!(rel.successors(u).contains(&v));
            assert!(rel.predecessors(v).contains(&u));
        }
    }

    #[test]
    fn from_pairs_dedups() {
        let n = NodeId::from_index;
        let rel =
            MaterializedRelation::from_pairs("R", 4, [(n(0), n(1)), (n(0), n(1)), (n(2), n(3))]);
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(n(0), n(1)));
        assert!(!rel.contains(n(1), n(0)));
        assert_eq!(rel.domain_with_successors().len(), 2);
        assert_eq!(rel.range_with_predecessors().len(), 2);
    }

    #[test]
    fn empty_relation() {
        let rel = MaterializedRelation::from_pairs("empty", 3, Vec::new());
        assert!(rel.is_empty());
        assert_eq!(rel.pairs().count(), 0);
    }
}
