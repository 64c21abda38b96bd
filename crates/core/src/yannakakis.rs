//! Semi-join evaluation of acyclic queries (Yannakakis' algorithm).
//!
//! The paper motivates translating conjunctive queries into acyclic positive
//! queries (Section 6) by the existence of particularly good evaluation
//! algorithms for acyclic queries [Yannakakis 1981]. This module implements
//! that algorithm for our setting: all relations are binary (axes) or unary
//! (labels), so an acyclic query's *join forest* is simply a rooted
//! orientation of its query graph's shadow (see
//! [`QueryGraph::join_forest`](cqt_query::graph::QueryGraph::join_forest)),
//! and the semi-joins are the per-axis support primitives of
//! [`crate::support`].
//!
//! The evaluator performs the classic two passes (leaves-to-root and
//! root-to-leaves). For tree-shaped binary constraint networks this makes
//! every remaining candidate extensible to a satisfaction of its connected
//! component, which yields Boolean evaluation, witness extraction, tuple
//! checking, monadic evaluation and answer enumeration without backtracking
//! (the last two by the walk or by fix and decide, [`crate::enumerate`]).

use std::collections::BTreeSet;
use std::fmt;

use cqt_query::graph::JoinForest;
use cqt_query::{ConjunctiveQuery, PositiveQuery, Var};
use cqt_trees::{NodeId, NodeSet, Tree};

use crate::arc::initial_prevaluation;
use crate::compiled::{Ctx, ExecScratch};
use crate::enumerate::{Enumerator, Fixpoint, Walk};
use crate::prevaluation::{Prevaluation, Valuation};
use crate::support::{revise_sources, revise_targets};

/// Splits the per-variable rank-space sets into the (shared) support set and
/// the (mutable) set being pruned; the two variables must differ, which join
/// forests guarantee (their edges never form self-loops).
fn index_two(sets: &mut [NodeSet], support: Var, pruned: Var) -> (&NodeSet, &mut NodeSet) {
    let (s, p) = (support.index(), pruned.index());
    assert_ne!(s, p, "semi-join support and pruned variable must differ");
    if s < p {
        let (left, right) = sets.split_at_mut(p);
        (&left[s], &mut right[0])
    } else {
        let (left, right) = sets.split_at_mut(s);
        (&right[0], &mut left[p])
    }
}

/// The two-pass semi-join reduction over candidate sets that are **already
/// in pre-order rank space** (`sets[i]` is the candidate set of the variable
/// with index `i`). Prunes in place and returns `false` iff some set became
/// empty. Shared by [`YannakakisEvaluator::reduce`] and the compiled-query
/// fast path, which loads the sets straight from a prepared tree's cached
/// label sets.
pub(crate) fn reduce_loaded(
    tree: &Tree,
    forest: &JoinForest,
    sets: &mut [NodeSet],
    scratch: &mut NodeSet,
) -> bool {
    for tree_component in &forest.components {
        // Upward pass: children prune their parents, processed in reverse
        // BFS order so that grandchildren have already pruned children.
        for &var in tree_component.bfs_order.iter().rev() {
            if let Some(&(parent, atom)) = tree_component.parent.get(&var) {
                debug_assert_ne!(parent, var, "join forests have no self-loops");
                let (child_set, parent_set) = index_two(sets, var, parent);
                if atom.from == parent {
                    // Atom is R(parent, var): parent needs an R-successor
                    // among var's candidates.
                    revise_sources(tree, atom.axis, child_set, parent_set, scratch);
                } else {
                    // Atom is R(var, parent): parent needs an R-predecessor.
                    revise_targets(tree, atom.axis, child_set, parent_set, scratch);
                }
                if parent_set.is_empty() {
                    return false;
                }
            }
        }
        // Downward pass: parents prune their children, in BFS order.
        for &var in &tree_component.bfs_order {
            if let Some(&(parent, atom)) = tree_component.parent.get(&var) {
                let (parent_set, child_set) = index_two(sets, parent, var);
                if atom.from == parent {
                    revise_targets(tree, atom.axis, parent_set, child_set, scratch);
                } else {
                    revise_sources(tree, atom.axis, parent_set, child_set, scratch);
                }
                if child_set.is_empty() {
                    return false;
                }
            }
        }
    }
    true
}

/// Error returned when the query handed to the Yannakakis evaluator is not
/// acyclic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NotAcyclicError;

impl fmt::Display for NotAcyclicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "the Yannakakis evaluator requires an acyclic query")
    }
}

impl std::error::Error for NotAcyclicError {}

/// The acyclic-query evaluator.
#[derive(Clone, Copy, Debug)]
pub struct YannakakisEvaluator<'t> {
    tree: &'t Tree,
}

impl<'t> YannakakisEvaluator<'t> {
    /// Creates an evaluator over `tree`.
    pub fn new(tree: &'t Tree) -> Self {
        YannakakisEvaluator { tree }
    }

    /// Performs the full (two-pass) semi-join reduction. Returns the reduced
    /// prevaluation, or `None` if some candidate set became empty (the query
    /// is unsatisfiable within `start`).
    ///
    /// The candidate sets are converted to pre-order rank space once, both
    /// passes run on the word-parallel in-place kernels of [`crate::support`]
    /// with a single scratch set (no allocation per semi-join), and the
    /// result is converted back at the end.
    fn reduce(
        &self,
        query: &ConjunctiveQuery,
        forest: &JoinForest,
        mut pre: Prevaluation,
    ) -> Option<Prevaluation> {
        if pre.has_empty_set() {
            return None;
        }
        let n = self.tree.len();
        let mut sets: Vec<NodeSet> = (0..query.var_count())
            .map(|i| self.tree.to_pre_space(pre.get(Var::from_index(i))))
            .collect();
        let mut scratch = NodeSet::empty(n);
        if !reduce_loaded(self.tree, forest, &mut sets, &mut scratch) {
            return None;
        }
        for (i, set) in sets.iter().enumerate() {
            self.tree
                .from_pre_space_into(set, pre.get_mut(Var::from_index(i)));
        }
        Some(pre)
    }

    /// Evaluates the Boolean reading of the acyclic query.
    pub fn eval_boolean(&self, query: &ConjunctiveQuery) -> Result<bool, NotAcyclicError> {
        Ok(self.witness(query)?.is_some())
    }

    /// Returns some satisfaction of the acyclic query, if one exists. The
    /// witness is assembled backtrack-free from the reduced candidate sets.
    pub fn witness(&self, query: &ConjunctiveQuery) -> Result<Option<Valuation>, NotAcyclicError> {
        let forest = query.graph().join_forest().ok_or(NotAcyclicError)?;
        Ok(self.witness_with_forest(query, &forest))
    }

    /// [`YannakakisEvaluator::witness`] with a caller-provided join forest
    /// (the compiled-query path builds it once at compile time).
    pub(crate) fn witness_with_forest(
        &self,
        query: &ConjunctiveQuery,
        forest: &JoinForest,
    ) -> Option<Valuation> {
        let start = initial_prevaluation(self.tree, query);
        let pre = self.reduce(query, forest, start)?;
        let mut assignment: Vec<Option<NodeId>> = vec![None; query.var_count()];
        // Variables in join-tree components: choose the root freely, then
        // extend downward, always consistently with the already-chosen parent.
        for tree_component in &forest.components {
            for &var in &tree_component.bfs_order {
                match tree_component.parent.get(&var) {
                    None => {
                        assignment[var.index()] = pre.get(var).any_member();
                    }
                    Some(&(parent, atom)) => {
                        let parent_node =
                            assignment[parent.index()].expect("parents are assigned first (BFS)");
                        let candidates = pre.get(var);
                        let choice = if atom.from == parent {
                            atom.axis
                                .successors(self.tree, parent_node)
                                .into_iter()
                                .find(|n| candidates.contains(*n))
                        } else {
                            atom.axis
                                .predecessors(self.tree, parent_node)
                                .into_iter()
                                .find(|n| candidates.contains(*n))
                        };
                        assignment[var.index()] =
                            Some(choice.expect("semi-join reduction guarantees a partner"));
                    }
                }
            }
        }
        // Variables not occurring in any binary atom take any candidate.
        for (i, slot) in assignment.iter_mut().enumerate() {
            if slot.is_none() {
                let var = Var::from_index(i);
                match pre.get(var).any_member() {
                    Some(node) => *slot = Some(node),
                    None => return None,
                }
            }
        }
        let valuation = Valuation::new(assignment.into_iter().map(Option::unwrap).collect());
        debug_assert!(valuation.is_satisfaction(self.tree, query));
        Some(valuation)
    }

    /// Runs `f` on the answer enumerator of the acyclic `query`: the walk
    /// when its head admits one, fix and decide otherwise.
    fn enumerate<T>(
        &self,
        query: &ConjunctiveQuery,
        f: impl FnOnce(Enumerator<'_>) -> T,
    ) -> Result<T, NotAcyclicError> {
        let forest = query.graph().join_forest().ok_or(NotAcyclicError)?;
        let walk = Walk::plan(query, &forest);
        let fixpoint = Fixpoint::Reduce(&forest, walk.as_ref());
        Ok(f(Enumerator::new(Ctx::Plain(self.tree), query, fixpoint)))
    }

    /// Whether `tuple` is an answer of the acyclic k-ary query.
    ///
    /// # Panics
    /// Panics if the tuple arity differs from the head arity.
    pub fn check_tuple(
        &self,
        query: &ConjunctiveQuery,
        tuple: &[NodeId],
    ) -> Result<bool, NotAcyclicError> {
        self.enumerate(query, |e| e.check(tuple, &mut ExecScratch::new()))
    }

    /// The answer set of an acyclic monadic query: the head variable's
    /// candidate set after the two-pass reduction.
    ///
    /// # Panics
    /// Panics if the query is not monadic.
    pub fn eval_monadic(&self, query: &ConjunctiveQuery) -> Result<NodeSet, NotAcyclicError> {
        self.enumerate(query, |e| e.nodes(&[], &mut ExecScratch::new()))
    }

    /// The full answer relation of the acyclic k-ary query (sorted,
    /// deduplicated head tuples; one empty tuple for a satisfied Boolean
    /// query), enumerated from the full reduction by the walk or by fix and
    /// decide ([`crate::enumerate`]).
    pub fn eval_tuples(
        &self,
        query: &ConjunctiveQuery,
    ) -> Result<Vec<Vec<NodeId>>, NotAcyclicError> {
        self.enumerate(query, |e| e.tuples(&[], &mut ExecScratch::new()))
    }

    // ---- acyclic positive queries (APQs) --------------------------------

    /// Evaluates the Boolean reading of an acyclic positive query: `true` iff
    /// some disjunct is satisfied.
    pub fn eval_positive_boolean(&self, query: &PositiveQuery) -> Result<bool, NotAcyclicError> {
        for disjunct in query.iter() {
            if self.eval_boolean(disjunct)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Evaluates a monadic acyclic positive query: the union of the
    /// disjuncts' answers.
    pub fn eval_positive_monadic(&self, query: &PositiveQuery) -> Result<NodeSet, NotAcyclicError> {
        let mut out = NodeSet::empty(self.tree.len());
        for disjunct in query.iter() {
            out.union_with(&self.eval_monadic(disjunct)?);
        }
        Ok(out)
    }

    /// Evaluates a k-ary acyclic positive query: the union of the disjuncts'
    /// answer relations.
    pub fn eval_positive_tuples(
        &self,
        query: &PositiveQuery,
    ) -> Result<Vec<Vec<NodeId>>, NotAcyclicError> {
        let mut out = BTreeSet::new();
        for disjunct in query.iter() {
            out.extend(self.eval_tuples(disjunct)?);
        }
        Ok(out.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacSolver;
    use crate::naive::NaiveEvaluator;
    use cqt_query::generate::{random_acyclic_query, RandomQueryConfig};
    use cqt_query::parse_query;
    use cqt_trees::generate::{random_tree, RandomTreeConfig};
    use cqt_trees::parse::parse_term;
    use cqt_trees::Axis;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn boolean_and_witness_on_acyclic_queries() {
        let tree = parse_term("A(B(D), C(E, F))").unwrap();
        let yes = parse_query("Q() :- A(x), Child(x, y), C(y), Child(y, z), F(z).").unwrap();
        let no = parse_query("Q() :- F(x), Child(x, y).").unwrap();
        let eval = YannakakisEvaluator::new(&tree);
        assert!(eval.eval_boolean(&yes).unwrap());
        assert!(eval
            .witness(&yes)
            .unwrap()
            .unwrap()
            .is_satisfaction(&tree, &yes));
        assert!(!eval.eval_boolean(&no).unwrap());
        assert!(eval.witness(&no).unwrap().is_none());
    }

    #[test]
    fn cyclic_queries_are_rejected() {
        let tree = parse_term("A(B)").unwrap();
        let q = cqt_query::cq::figure1_query();
        let eval = YannakakisEvaluator::new(&tree);
        assert_eq!(eval.eval_boolean(&q), Err(NotAcyclicError));
        assert!(NotAcyclicError.to_string().contains("acyclic"));
    }

    #[test]
    fn monadic_answers_are_the_reduced_head_domain() {
        let tree = parse_term("A(B(D), B(E), B(D))").unwrap();
        // Q(y): B-nodes with a D child.
        let q = parse_query("Q(y) :- A(x), Child(x, y), B(y), Child(y, z), D(z).").unwrap();
        let eval = YannakakisEvaluator::new(&tree);
        let answers = eval.eval_monadic(&q).unwrap();
        assert_eq!(answers.len(), 2);
        for b in answers.iter() {
            assert!(tree.has_label_name(b, "B"));
            assert!(tree
                .children(b)
                .iter()
                .any(|&c| tree.has_label_name(c, "D")));
        }
    }

    #[test]
    fn multi_component_queries() {
        // Two independent components: one satisfiable, one not.
        let tree = parse_term("A(B, C)").unwrap();
        let sat = parse_query("Q() :- A(x), Child(x, y), B(y), C(u), A(w).").unwrap();
        let unsat = parse_query("Q() :- A(x), Child(x, y), B(y), C(u), Child(u, v).").unwrap();
        let eval = YannakakisEvaluator::new(&tree);
        assert!(eval.eval_boolean(&sat).unwrap());
        assert!(!eval.eval_boolean(&unsat).unwrap());
    }

    #[test]
    fn agreement_with_mac_and_naive_on_random_acyclic_queries() {
        let mut rng = StdRng::seed_from_u64(61);
        let tree_config = RandomTreeConfig {
            nodes: 15,
            ..RandomTreeConfig::default()
        };
        let query_config = RandomQueryConfig {
            vars: 5,
            head_arity: 1,
            axes: vec![
                Axis::Child,
                Axis::ChildPlus,
                Axis::ChildStar,
                Axis::NextSibling,
                Axis::NextSiblingPlus,
                Axis::NextSiblingStar,
                Axis::Following,
            ],
            ..RandomQueryConfig::default()
        };
        for _ in 0..30 {
            let tree = random_tree(&mut rng, &tree_config);
            let query = random_acyclic_query(&mut rng, &query_config);
            let yan = YannakakisEvaluator::new(&tree);
            let mac = MacSolver::new(&tree);
            let naive = NaiveEvaluator::new(&tree);
            assert_eq!(
                yan.eval_boolean(&query).unwrap(),
                naive.eval_boolean(&query),
                "boolean mismatch on {query}"
            );
            assert_eq!(
                yan.eval_monadic(&query).unwrap(),
                mac.eval_monadic(&query),
                "monadic mismatch on {query}"
            );
        }
    }

    #[test]
    fn tuple_checking_and_enumeration() {
        let tree = parse_term("A(B(D), B(E))").unwrap();
        let q = parse_query("Q(x, y) :- B(x), Child(x, y).").unwrap();
        let eval = YannakakisEvaluator::new(&tree);
        let tuples = eval.eval_tuples(&q).unwrap();
        assert_eq!(tuples.len(), 2);
        for t in &tuples {
            assert!(eval.check_tuple(&q, t).unwrap());
        }
        let b = tree.nodes_with_label_name("B").any_member().unwrap();
        let e = tree.nodes_with_label_name("E").any_member().unwrap();
        // (first B, E) is not an answer: E is the other B's child.
        let first_b_children = tree.children(b);
        if !first_b_children.contains(&e) {
            assert!(!eval.check_tuple(&q, &[b, e]).unwrap());
        }
    }

    #[test]
    fn positive_query_evaluation() {
        let tree = parse_term("A(B, C)").unwrap();
        let q1 = parse_query("Q(x) :- B(x).").unwrap();
        let q2 = parse_query("Q(x) :- C(x).").unwrap();
        let q3 = parse_query("Q(x) :- Z(x).").unwrap();
        let apq = PositiveQuery::from_disjuncts(vec![q1, q2, q3]);
        let eval = YannakakisEvaluator::new(&tree);
        assert!(eval.eval_positive_boolean(&apq).unwrap());
        assert_eq!(eval.eval_positive_monadic(&apq).unwrap().len(), 2);
        assert_eq!(eval.eval_positive_tuples(&apq).unwrap().len(), 2);
        let empty = PositiveQuery::empty();
        assert!(!eval.eval_positive_boolean(&empty).unwrap());
    }
}
