//! The evaluation façade.
//!
//! [`Engine`] analyses a query and dispatches to the appropriate evaluator:
//!
//! * acyclic queries → the Yannakakis evaluator (backtrack-free);
//! * cyclic queries over a tractable signature (Theorem 4.1) → the
//!   X̲-property evaluator of Theorem 3.5;
//! * everything else (the NP-hard signatures of Section 5) → the MAC solver.
//!
//! A fixed strategy can be forced with [`EvalStrategy`], which the benchmark
//! harness uses to compare the evaluators against each other.

use cqt_query::{ConjunctiveQuery, PositiveQuery};
use cqt_trees::{NodeId, PreparedTree, Tree};
use serde::{Deserialize, Serialize};

use crate::compiled::{CompiledQuery, ExecScratch};
use crate::prevaluation::Valuation;
use crate::tractability::{SignatureAnalysis, Tractability};

/// Which evaluator to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalStrategy {
    /// Choose automatically (acyclic → Yannakakis, tractable → X̲-property,
    /// otherwise MAC).
    Auto,
    /// Force the X̲-property evaluator (fails on NP-hard signatures).
    XProperty,
    /// Force the MAC solver.
    Mac,
    /// Force the Yannakakis evaluator (fails on cyclic queries).
    Yannakakis,
    /// Force the brute-force baseline.
    Naive,
}

/// The strategy actually selected for a query by [`Engine::plan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectedStrategy {
    /// The Yannakakis acyclic evaluator.
    Yannakakis,
    /// The X̲-property polynomial-time evaluator.
    XProperty,
    /// The MAC backtracking solver.
    Mac,
    /// The brute-force baseline.
    Naive,
}

/// A query answer: Boolean, node set (monadic) or tuple relation (k-ary).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Answer {
    /// Answer of a Boolean (0-ary) query.
    Boolean(bool),
    /// Answer of a monadic query: the matching nodes, sorted by id (document order).
    Nodes(Vec<NodeId>),
    /// Answer of a k-ary query (k ≥ 2): the matching tuples, sorted.
    Tuples(Vec<Vec<NodeId>>),
}

impl Answer {
    /// Whether the answer is non-empty (a satisfied Boolean query, a
    /// non-empty node set, or a non-empty tuple relation).
    pub fn is_nonempty(&self) -> bool {
        match self {
            Answer::Boolean(b) => *b,
            Answer::Nodes(nodes) => !nodes.is_empty(),
            Answer::Tuples(tuples) => !tuples.is_empty(),
        }
    }

    /// The number of answers (1/0 for Boolean queries).
    pub fn len(&self) -> usize {
        match self {
            Answer::Boolean(b) => usize::from(*b),
            Answer::Nodes(nodes) => nodes.len(),
            Answer::Tuples(tuples) => tuples.len(),
        }
    }

    /// Whether the answer is empty.
    pub fn is_empty(&self) -> bool {
        !self.is_nonempty()
    }
}

/// The evaluation façade. Cheap to construct; holds only the strategy.
#[derive(Clone, Copy, Debug)]
pub struct Engine {
    strategy: EvalStrategy,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with automatic strategy selection.
    pub fn new() -> Self {
        Engine {
            strategy: EvalStrategy::Auto,
        }
    }

    /// An engine with a fixed strategy.
    pub fn with_strategy(strategy: EvalStrategy) -> Self {
        Engine { strategy }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> EvalStrategy {
        self.strategy
    }

    /// The strategy that will actually be used for `query`, together with the
    /// signature classification that informed the choice.
    pub fn plan(&self, query: &ConjunctiveQuery) -> (SelectedStrategy, Tractability) {
        let classification = SignatureAnalysis::analyse_query(query);
        let selected = crate::compiled::select_strategy(query, self.strategy, &classification);
        (selected, classification)
    }

    /// Compiles `query` into a reusable execution plan carrying this engine's
    /// strategy — the one-time phase of the prepare/execute split. Serving
    /// callers hold on to the result (see [`CompiledQuery`]); the one-shot
    /// `eval*` methods below compile on the fly and throw the plan away.
    pub fn compile(&self, query: &ConjunctiveQuery) -> CompiledQuery {
        CompiledQuery::compile_with(query.clone(), self.strategy)
    }

    /// Evaluates the Boolean reading of `query`.
    ///
    /// # Panics
    /// Panics if a forced strategy cannot handle the query (X̲-property on an
    /// NP-hard signature, Yannakakis on a cyclic query).
    pub fn eval_boolean(&self, tree: &Tree, query: &ConjunctiveQuery) -> bool {
        self.compile(query)
            .eval_boolean_on(tree, &mut ExecScratch::new())
    }

    /// Returns some satisfaction of `query`, if one exists.
    pub fn witness(&self, tree: &Tree, query: &ConjunctiveQuery) -> Option<Valuation> {
        self.compile(query)
            .witness_on(tree, &mut ExecScratch::new())
    }

    /// Whether `tuple` is in the answer of the k-ary `query`.
    pub fn check_tuple(&self, tree: &Tree, query: &ConjunctiveQuery, tuple: &[NodeId]) -> bool {
        self.compile(query)
            .check_tuple_on(tree, tuple, &mut ExecScratch::new())
    }

    /// Evaluates `query` and returns the full answer in the shape matching
    /// its arity (Boolean / node set / tuple relation).
    pub fn eval(&self, tree: &Tree, query: &ConjunctiveQuery) -> Answer {
        self.compile(query).eval_on(tree, &mut ExecScratch::new())
    }

    /// Evaluates `query` against a prepared tree, reusing its cached label
    /// sets and the caller's scratch buffers — the serving path for callers
    /// that do not keep compiled plans themselves.
    pub fn eval_prepared(
        &self,
        prepared: &PreparedTree,
        query: &ConjunctiveQuery,
        scratch: &mut ExecScratch,
    ) -> Answer {
        self.compile(query).execute(prepared, scratch)
    }

    /// Evaluates a positive query (union of conjunctive queries): the union
    /// of the disjuncts' answers.
    pub fn eval_positive(&self, tree: &Tree, query: &PositiveQuery) -> Answer {
        match query.head_arity() {
            0 => Answer::Boolean(query.iter().any(|q| self.eval_boolean(tree, q))),
            1 => {
                let mut nodes: Vec<NodeId> = Vec::new();
                for disjunct in query.iter() {
                    if let Answer::Nodes(more) = self.eval(tree, disjunct) {
                        nodes.extend(more);
                    }
                }
                nodes.sort_unstable();
                nodes.dedup();
                Answer::Nodes(nodes)
            }
            _ => {
                let mut tuples: Vec<Vec<NodeId>> = Vec::new();
                for disjunct in query.iter() {
                    if let Answer::Tuples(more) = self.eval(tree, disjunct) {
                        tuples.extend(more);
                    }
                }
                tuples.sort_unstable();
                tuples.dedup();
                Answer::Tuples(tuples)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqt_query::cq::{figure1_query, intro_xpath_query};
    use cqt_query::parse_query;
    use cqt_trees::parse::parse_term;

    #[test]
    fn auto_strategy_selection() {
        let engine = Engine::new();
        // Acyclic query → Yannakakis.
        let (s, _) = engine.plan(&intro_xpath_query());
        assert_eq!(s, SelectedStrategy::Yannakakis);
        // Cyclic query over a tractable signature → X-property.
        let cyclic_tractable =
            parse_query("Q() :- A(x), Child+(x, y), Child*(x, y), B(y).").unwrap();
        let (s, t) = engine.plan(&cyclic_tractable);
        assert_eq!(s, SelectedStrategy::XProperty);
        assert!(t.is_polynomial());
        // Cyclic query over an NP-hard signature → MAC.
        let (s, t) = engine.plan(&figure1_query());
        assert_eq!(s, SelectedStrategy::Mac);
        assert!(!t.is_polynomial());
    }

    #[test]
    fn forced_strategies() {
        let engine = Engine::with_strategy(EvalStrategy::Naive);
        assert_eq!(engine.strategy(), EvalStrategy::Naive);
        let (s, _) = engine.plan(&figure1_query());
        assert_eq!(s, SelectedStrategy::Naive);
    }

    #[test]
    fn all_strategies_agree_on_a_small_corpus() {
        let tree =
            parse_term("CORPUS(S(NP(DT, NN), VP(VB, NP(NN), PP(IN, NP(NN)))), S(NP(NN), VP(VB)))")
                .unwrap();
        let q = figure1_query();
        let expected = Engine::with_strategy(EvalStrategy::Naive).eval(&tree, &q);
        let mac = Engine::with_strategy(EvalStrategy::Mac).eval(&tree, &q);
        assert_eq!(expected, mac);
        assert!(expected.is_nonempty());
        // The acyclic introduction query is also consistent across strategies.
        let tree2 = parse_term("R(A(B), C, A(B, C))").unwrap();
        let q2 = intro_xpath_query();
        let auto = Engine::new().eval(&tree2, &q2);
        let naive = Engine::with_strategy(EvalStrategy::Naive).eval(&tree2, &q2);
        let mac = Engine::with_strategy(EvalStrategy::Mac).eval(&tree2, &q2);
        assert_eq!(auto, naive);
        assert_eq!(auto, mac);
    }

    #[test]
    fn answer_shapes_match_arity() {
        let tree = parse_term("A(B, C)").unwrap();
        let engine = Engine::new();
        let boolean = engine.eval(&tree, &parse_query("Q() :- B(x).").unwrap());
        assert_eq!(boolean, Answer::Boolean(true));
        assert_eq!(boolean.len(), 1);
        let nodes = engine.eval(&tree, &parse_query("Q(x) :- Child(r, x), A(r).").unwrap());
        match &nodes {
            Answer::Nodes(list) => assert_eq!(list.len(), 2),
            other => panic!("expected nodes, got {other:?}"),
        }
        let tuples = engine.eval(&tree, &parse_query("Q(x, y) :- Child(x, y).").unwrap());
        match &tuples {
            Answer::Tuples(list) => assert_eq!(list.len(), 2),
            other => panic!("expected tuples, got {other:?}"),
        }
        let empty = engine.eval(&tree, &parse_query("Q(x) :- Z(x).").unwrap());
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn positive_query_union() {
        let tree = parse_term("A(B, C)").unwrap();
        let engine = Engine::new();
        let q1 = parse_query("Q(x) :- B(x).").unwrap();
        let q2 = parse_query("Q(x) :- C(x).").unwrap();
        let pq = PositiveQuery::from_disjuncts(vec![q1, q2]);
        match engine.eval_positive(&tree, &pq) {
            Answer::Nodes(nodes) => assert_eq!(nodes.len(), 2),
            other => panic!("expected nodes, got {other:?}"),
        }
        let boolean_union = PositiveQuery::from_disjuncts(vec![
            parse_query("Q() :- Z(x).").unwrap(),
            parse_query("Q() :- B(x).").unwrap(),
        ]);
        assert_eq!(
            engine.eval_positive(&tree, &boolean_union),
            Answer::Boolean(true)
        );
        assert_eq!(
            engine.eval_positive(&tree, &PositiveQuery::empty()),
            Answer::Boolean(false)
        );
    }
}
