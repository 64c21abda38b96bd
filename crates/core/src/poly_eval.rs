//! The polynomial-time evaluator of Theorem 3.5.
//!
//! On a structure that has the X̲-property with respect to a total order `<`,
//! a Boolean conjunctive query is satisfied iff an arc-consistent prevaluation
//! exists (Lemma 3.4: the *minimum valuation* of such a prevaluation with
//! respect to `<` is a satisfaction). This gives an O(‖A‖·|Q|) evaluation
//! algorithm for Boolean queries; a candidate answer tuple of a k-ary query
//! can be checked in the same time by restricting the head variables to the
//! tuple's nodes (equivalently, adding singleton unary relations as in the
//! remark after Theorem 3.5). The same restriction, one head variable at a
//! time, enumerates the answer relation with polynomial delay: a fixed
//! prefix either fails one propagation or extends to an answer
//! ([`crate::enumerate`]).
//!
//! [`XPropertyEvaluator`] implements all of these. It refuses (at
//! construction time) to evaluate queries whose signature is not tractable,
//! because arc consistency alone is **not** a decision procedure outside the
//! X̲-property fragment — use [`crate::mac::MacSolver`] there.

use cqt_query::ConjunctiveQuery;
use cqt_trees::{NodeId, NodeSet, Order, Tree};
use std::fmt;

use crate::arc::arc_consistent_prevaluation;
use crate::compiled::ExecScratch;
use crate::enumerate::{Enumerator, Fixpoint};
use crate::prevaluation::Valuation;
use crate::tractability::{SignatureAnalysis, Tractability};

/// Error returned when a query's signature is not covered by the X̲-property
/// framework (the query must then be evaluated with the MAC solver).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NotTractableError {
    /// The classification that was obtained instead.
    pub classification: Tractability,
}

impl fmt::Display for NotTractableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query signature is not tractable for the X-property evaluator: {}",
            self.classification
        )
    }
}

impl std::error::Error for NotTractableError {}

/// The evaluator of Theorem 3.5: arc consistency plus minimum valuation.
#[derive(Clone, Copy, Debug)]
pub struct XPropertyEvaluator<'t> {
    tree: &'t Tree,
    order: Order,
}

impl<'t> XPropertyEvaluator<'t> {
    /// Creates an evaluator for `query` on `tree`, choosing the witnessing
    /// order via [`SignatureAnalysis`]. Fails if the signature is NP-hard.
    pub fn for_query(tree: &'t Tree, query: &ConjunctiveQuery) -> Result<Self, NotTractableError> {
        match SignatureAnalysis::analyse_query(query) {
            Tractability::PolynomialTime { order } => Ok(XPropertyEvaluator { tree, order }),
            classification => Err(NotTractableError { classification }),
        }
    }

    /// Creates an evaluator that uses `order` unconditionally.
    ///
    /// The caller is responsible for ensuring that every axis used by the
    /// queries evaluated with it has the X̲-property with respect to `order`
    /// (otherwise results may be unsound).
    pub fn with_order(tree: &'t Tree, order: Order) -> Self {
        XPropertyEvaluator { tree, order }
    }

    /// The order used for minimum-valuation extraction.
    pub fn order(&self) -> Order {
        self.order
    }

    /// Evaluates a Boolean query (Theorem 3.5): `true` iff the query is
    /// satisfied on the tree.
    pub fn eval_boolean(&self, query: &ConjunctiveQuery) -> bool {
        self.witness(query).is_some()
    }

    /// Returns a satisfaction of the (Boolean reading of the) query, if one
    /// exists: the minimum valuation of the subset-maximal arc-consistent
    /// prevaluation with respect to the evaluator's order (Lemma 3.4).
    pub fn witness(&self, query: &ConjunctiveQuery) -> Option<Valuation> {
        let pre = arc_consistent_prevaluation(self.tree, query)?;
        let valuation = pre
            .minimum_valuation(self.tree, self.order)
            .expect("arc-consistent prevaluations have no empty sets");
        debug_assert!(
            valuation.is_satisfaction(self.tree, query),
            "Lemma 3.4 violated: minimum valuation is not a satisfaction \
             (is the signature really tractable for {:?}?)",
            self.order
        );
        Some(valuation)
    }

    fn enumerator<'a>(&'a self, query: &'a ConjunctiveQuery) -> Enumerator<'a> {
        Enumerator::new(self.tree, query, Fixpoint::Propagate)
    }

    /// Checks whether `tuple` (one node per head variable, in head order) is
    /// in the answer of the k-ary query — the tuple-checking problem of the
    /// remark following Theorem 3.5.
    ///
    /// # Panics
    /// Panics if `tuple.len()` differs from the query's head arity.
    pub fn check_tuple(&self, query: &ConjunctiveQuery, tuple: &[NodeId]) -> bool {
        self.enumerator(query).check(tuple, &mut ExecScratch::new())
    }

    /// Evaluates a monadic (unary) query: the set of nodes in the answer.
    /// One global arc-consistency pass, then one decide step per candidate.
    ///
    /// # Panics
    /// Panics if the query is not monadic.
    pub fn eval_monadic(&self, query: &ConjunctiveQuery) -> NodeSet {
        self.enumerator(query).nodes(&[], &mut ExecScratch::new())
    }

    /// Enumerates the full answer relation of a k-ary query by fix and
    /// decide ([`crate::enumerate`]): one arc-consistency pass, then one
    /// decide step per candidate of each head position given its prefix.
    /// The delay between two answers is O(k · |A| · ‖A‖ · |Q|), whatever the
    /// product of the head domains. Tuples are returned in lexicographic
    /// order of node indices.
    ///
    /// For Boolean queries this returns one empty tuple if the query is
    /// satisfied and nothing otherwise.
    pub fn eval_tuples(&self, query: &ConjunctiveQuery) -> Vec<Vec<NodeId>> {
        self.enumerator(query).tuples(&[], &mut ExecScratch::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqt_query::parse_query;
    use cqt_trees::parse::parse_term;
    use cqt_trees::Axis;

    #[test]
    fn boolean_evaluation_on_tau1() {
        // Signature {Child+, Child*}: tractable with the pre-order.
        let tree = parse_term("A(B(C(D)), B(D))").unwrap();
        let yes = parse_query("Q() :- A(x), Child+(x, y), C(y), Child+(y, z), D(z).").unwrap();
        let no = parse_query("Q() :- C(x), Child+(x, y), B(y).").unwrap();
        let eval_yes = XPropertyEvaluator::for_query(&tree, &yes).unwrap();
        assert_eq!(eval_yes.order(), Order::Pre);
        assert!(eval_yes.eval_boolean(&yes));
        let witness = eval_yes.witness(&yes).unwrap();
        assert!(witness.is_satisfaction(&tree, &yes));
        let eval_no = XPropertyEvaluator::for_query(&tree, &no).unwrap();
        assert!(!eval_no.eval_boolean(&no));
        assert!(eval_no.witness(&no).is_none());
    }

    #[test]
    fn boolean_evaluation_on_tau2_and_tau3() {
        let tree = parse_term("R(A(X, Y), B(Z), C)").unwrap();
        // Following-only query (τ2).
        let q2 = parse_query("Q() :- X(u), Following(u, v), Z(v), Following(v, w), C(w).").unwrap();
        let e2 = XPropertyEvaluator::for_query(&tree, &q2).unwrap();
        assert_eq!(e2.order(), Order::Post);
        assert!(e2.eval_boolean(&q2));
        // Child/NextSibling query (τ3).
        let q3 = parse_query(
            "Q() :- R(r), Child(r, a), A(a), NextSibling(a, b), B(b), NextSibling+(b, c), C(c).",
        )
        .unwrap();
        let e3 = XPropertyEvaluator::for_query(&tree, &q3).unwrap();
        assert_eq!(e3.order(), Order::Bflr);
        assert!(e3.eval_boolean(&q3));
        // And an unsatisfiable variant (C before B).
        let q3bad = parse_query("Q() :- C(x), NextSibling+(x, y), B(y).").unwrap();
        assert!(!XPropertyEvaluator::for_query(&tree, &q3bad)
            .unwrap()
            .eval_boolean(&q3bad));
    }

    #[test]
    fn np_hard_signatures_are_rejected() {
        let tree = parse_term("A(B)").unwrap();
        let q = parse_query("Q() :- A(x), Child(x, y), Child+(y, z).").unwrap();
        let err = XPropertyEvaluator::for_query(&tree, &q).unwrap_err();
        assert!(!err.classification.is_polynomial());
        assert!(err.to_string().contains("not tractable"));
    }

    #[test]
    fn tuple_checking_and_monadic_evaluation() {
        let tree = parse_term("A(B(D), B(E), C)").unwrap();
        // Q(y) :- A(x), Child+(x, y), B(y): both B nodes are answers.
        let q = parse_query("Q(y) :- A(x), Child+(x, y), B(y).").unwrap();
        let eval = XPropertyEvaluator::for_query(&tree, &q).unwrap();
        let b_nodes: Vec<NodeId> = tree.nodes_with_label_name("B").iter().collect();
        assert_eq!(b_nodes.len(), 2);
        for &b in &b_nodes {
            assert!(eval.check_tuple(&q, &[b]));
        }
        let c = tree.nodes_with_label_name("C").any_member().unwrap();
        assert!(!eval.check_tuple(&q, &[c]));
        assert!(!eval.check_tuple(&q, &[tree.root()]));
        let answers = eval.eval_monadic(&q);
        assert_eq!(answers.len(), 2);
        for b in b_nodes {
            assert!(answers.contains(b));
        }
    }

    #[test]
    fn binary_answer_enumeration() {
        let tree = parse_term("A(B(D), B(E))").unwrap();
        // Q(x, y) :- B(x), Child(x, y): pairs (B1, D), (B2, E).
        let q = parse_query("Q(x, y) :- B(x), Child(x, y).").unwrap();
        let eval = XPropertyEvaluator::for_query(&tree, &q).unwrap();
        let tuples = eval.eval_tuples(&q);
        assert_eq!(tuples.len(), 2);
        for t in &tuples {
            assert_eq!(t.len(), 2);
            assert!(tree.has_label_name(t[0], "B"));
            assert!(Axis::Child.holds(&tree, t[0], t[1]));
        }
    }

    #[test]
    fn boolean_eval_tuples_returns_empty_tuple() {
        let tree = parse_term("A(B)").unwrap();
        let q = parse_query("Q() :- A(x), Child(x, y), B(y).").unwrap();
        let eval = XPropertyEvaluator::for_query(&tree, &q).unwrap();
        assert_eq!(eval.eval_tuples(&q), vec![Vec::<NodeId>::new()]);
        let q_bad = parse_query("Q() :- B(x), Child(x, y), A(y).").unwrap();
        let eval = XPropertyEvaluator::for_query(&tree, &q_bad).unwrap();
        assert!(eval.eval_tuples(&q_bad).is_empty());
    }

    #[test]
    fn repeated_head_variables() {
        let tree = parse_term("A(B)").unwrap();
        let q = parse_query("Q(x, x) :- A(x).").unwrap();
        let eval = XPropertyEvaluator::for_query(&tree, &q).unwrap();
        let root = tree.root();
        let b = tree.nodes_with_label_name("B").any_member().unwrap();
        assert!(eval.check_tuple(&q, &[root, root]));
        assert!(!eval.check_tuple(&q, &[root, b]));
        assert!(!eval.check_tuple(&q, &[b, b]));
    }

    #[test]
    #[should_panic(expected = "arity must match")]
    fn wrong_tuple_arity_panics() {
        let tree = parse_term("A(B)").unwrap();
        let q = parse_query("Q(x) :- A(x).").unwrap();
        let eval = XPropertyEvaluator::for_query(&tree, &q).unwrap();
        eval.check_tuple(&q, &[tree.root(), tree.root()]);
    }

    #[test]
    fn with_order_constructor() {
        let tree = parse_term("A(B)").unwrap();
        let eval = XPropertyEvaluator::with_order(&tree, Order::Bflr);
        let q = parse_query("Q() :- A(x), Child(x, y), B(y).").unwrap();
        assert!(eval.eval_boolean(&q));
        assert_eq!(eval.order(), Order::Bflr);
    }
}
