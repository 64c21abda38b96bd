//! Compiled queries: the prepare/execute split used by the serving layer.
//!
//! [`crate::engine::Engine`] analyses and dispatches a query on every call,
//! which is the right shape for one-shot evaluation but wasteful when the
//! same query is served thousands of times. A [`CompiledQuery`] performs the
//! whole per-query phase **once** — signature analysis ([`SignatureAnalysis`],
//! Theorem 1.1), strategy selection, and strategy-specific preparation (the
//! join forest for the Yannakakis evaluator, the witnessing order for the
//! X̲-property evaluator) — and then executes any number of times against any
//! tree.
//!
//! Execution is `&self` (a compiled query is immutable and `Sync`, so one
//! plan can be shared by many worker threads) and allocation-free in the
//! steady state: all mutable state lives in a caller-provided
//! [`ExecScratch`], one per worker. Against a
//! [`PreparedTree`] the start candidate sets are loaded
//! directly from the tree's cached pre-order rank-space label sets — the
//! per-request set-up is a handful of block copies, with no raw-space
//! [`crate::prevaluation::Prevaluation`] round-trip at all on the tractable
//! and acyclic paths, whatever the head arity.

use cqt_query::graph::JoinForest;
use cqt_query::ConjunctiveQuery;
use cqt_trees::{NodeId, NodeSet, Order, PreparedTree, Tree};

use crate::arc::{propagate_loaded, AcScratch};
use crate::engine::{Answer, EvalStrategy, SelectedStrategy};
use crate::enumerate::{Enumerator, Fixpoint, Level, Walk};
use crate::mac::MacSolver;
use crate::naive::NaiveEvaluator;
use crate::poly_eval::XPropertyEvaluator;
use crate::prevaluation::Valuation;
use crate::sink::AnswerSink;
use crate::tractability::{SignatureAnalysis, Tractability};
use crate::yannakakis::{reduce_loaded, YannakakisEvaluator};

/// Reusable per-worker buffers for [`CompiledQuery`] execution.
///
/// Holds the arc-consistency scratch, the semi-join scratch set and the
/// per-level buffers of the answer enumerator ([`crate::enumerate`]).
/// Buffers grow on first use and are reused across requests, so a worker
/// thread that keeps one `ExecScratch` alive allocates only the answers it
/// returns.
#[derive(Debug, Default)]
pub struct ExecScratch {
    pub(crate) ac: AcScratch,
    /// Rank-space answer accumulator / semi-join scratch set.
    pub(crate) answer: NodeSet,
    /// One buffer set per enumerated head position.
    pub(crate) levels: Vec<Level>,
    /// The head tuple being built by the enumerator.
    pub(crate) tuple: Vec<NodeId>,
    pub(crate) steps: u64,
}

impl ExecScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying arc-consistency scratch, for callers that mix compiled
    /// execution with the lower-level `*_with` evaluator entry points.
    pub fn ac_scratch(&mut self) -> &mut AcScratch {
        &mut self.ac
    }

    /// The decide steps the answer enumerator has run with this scratch, one
    /// per candidate it fixed: none on an acyclic query whose head the walk
    /// covers, one per distinct answer prefix of length 1..k−1 on any other
    /// acyclic query. Tuple checks take their decide steps here too, so a
    /// k-ary enumeration that checked candidate tuples would show.
    pub fn enumeration_steps(&self) -> u64 {
        self.steps
    }
}

/// The tree a compiled query executes against: either a plain [`Tree`]
/// (label sets converted per request) or a [`PreparedTree`] (label sets
/// served from the shared rank-space cache).
#[derive(Clone, Copy)]
pub(crate) enum Ctx<'a> {
    Plain(&'a Tree),
    Prepared(&'a PreparedTree),
}

impl<'a> Ctx<'a> {
    pub(crate) fn tree(&self) -> &'a Tree {
        match self {
            Ctx::Plain(tree) => tree,
            Ctx::Prepared(prepared) => prepared.tree(),
        }
    }

    /// Intersects `set` (pre-order rank space) with the nodes carrying the
    /// label `name`; clears it when no node carries the label.
    fn intersect_label(&self, name: &str, set: &mut NodeSet) {
        match self {
            Ctx::Prepared(prepared) => match prepared.label_pre_set_by_name(name) {
                Some(labeled) => set.intersect_with(labeled),
                None => set.clear(),
            },
            Ctx::Plain(tree) => match tree.label(name) {
                Some(label) => set.intersect_with(&tree.to_pre_space(tree.nodes_with_label(label))),
                None => set.clear(),
            },
        }
    }

    /// Loads the start candidate sets of `query` (every node, intersected
    /// with the label sets of its unary atoms, then with any caller-provided
    /// seeds) into `ac.sets` in pre-order rank space. Returns `false` if some
    /// variable's set is already empty.
    pub(crate) fn load_start(
        &self,
        query: &ConjunctiveQuery,
        ac: &mut AcScratch,
        seeds: &[(usize, &NodeSet)],
    ) -> bool {
        let n = self.tree().len();
        let var_count = query.var_count();
        ac.sets.resize_with(var_count, || NodeSet::empty(n));
        for set in ac.sets[..var_count].iter_mut() {
            if set.capacity() != n {
                *set = NodeSet::empty(n);
            }
            set.clear();
            set.insert_range(0, n);
        }
        for atom in query.label_atoms() {
            self.intersect_label(&atom.label, &mut ac.sets[atom.var.index()]);
        }
        for (var, seed) in seeds {
            debug_assert_eq!(
                seed.capacity(),
                n,
                "seed sets live in this tree's rank space"
            );
            ac.sets[*var].intersect_with(seed);
        }
        ac.sets[..var_count].iter().all(|set| !set.is_empty())
    }
}

/// Resolves an [`EvalStrategy`] (possibly `Auto`) against a query and its
/// classification — the single definition of the dispatch rule, shared by
/// [`CompiledQuery::compile_with`] and [`crate::engine::Engine::plan`].
pub(crate) fn select_strategy(
    query: &ConjunctiveQuery,
    strategy: EvalStrategy,
    classification: &Tractability,
) -> SelectedStrategy {
    match strategy {
        EvalStrategy::XProperty => SelectedStrategy::XProperty,
        EvalStrategy::Mac => SelectedStrategy::Mac,
        EvalStrategy::Yannakakis => SelectedStrategy::Yannakakis,
        EvalStrategy::Naive => SelectedStrategy::Naive,
        EvalStrategy::Auto => {
            if query.is_acyclic() {
                SelectedStrategy::Yannakakis
            } else if classification.is_polynomial() {
                SelectedStrategy::XProperty
            } else {
                SelectedStrategy::Mac
            }
        }
    }
}

/// A query compiled once for repeated execution: parse result + signature
/// analysis + selected strategy + strategy-specific preparation.
///
/// Immutable and `Sync`: share it behind an `Arc` across worker threads, each
/// worker bringing its own [`ExecScratch`].
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    query: ConjunctiveQuery,
    classification: Tractability,
    strategy: SelectedStrategy,
    /// The join forest, prepared at compile time when the strategy is
    /// Yannakakis (`None` if the query is cyclic — execution then panics,
    /// matching the forced-strategy contract of [`crate::engine::Engine`]).
    forest: Option<JoinForest>,
    /// The walk of the head over the join forest, when the head order
    /// admits one ([`crate::enumerate`]).
    walk: Option<Walk>,
    /// The witnessing order of a tractable signature.
    order: Option<Order>,
}

impl CompiledQuery {
    /// Compiles `query` with automatic strategy selection (acyclic →
    /// Yannakakis, tractable → X̲-property, otherwise MAC).
    pub fn compile(query: ConjunctiveQuery) -> Self {
        Self::compile_with(query, EvalStrategy::Auto)
    }

    /// Compiles `query` for a fixed [`EvalStrategy`]. The signature analysis
    /// runs exactly once, here.
    pub fn compile_with(query: ConjunctiveQuery, strategy: EvalStrategy) -> Self {
        let classification = SignatureAnalysis::analyse_query(&query);
        let selected = select_strategy(&query, strategy, &classification);
        let forest = if selected == SelectedStrategy::Yannakakis {
            query.graph().join_forest()
        } else {
            None
        };
        let walk = forest
            .as_ref()
            .and_then(|forest| Walk::plan(&query, forest));
        let order = classification.order();
        CompiledQuery {
            query,
            classification,
            strategy: selected,
            forest,
            walk,
            order,
        }
    }

    /// Parses a datalog-style query text and compiles it.
    pub fn parse(text: &str) -> Result<Self, cqt_query::parser::ParseQueryError> {
        Ok(Self::compile(cqt_query::parse_query(text)?))
    }

    /// The compiled query.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The strategy selected at compile time.
    pub fn strategy(&self) -> SelectedStrategy {
        self.strategy
    }

    /// The signature classification obtained at compile time.
    pub fn classification(&self) -> &Tractability {
        &self.classification
    }

    /// Arity of the query head.
    pub fn head_arity(&self) -> usize {
        self.query.head_arity()
    }

    // ---- execution against a prepared tree ------------------------------

    /// Evaluates the query against a prepared tree, returning the answer in
    /// the shape matching its arity.
    pub fn execute(&self, prepared: &PreparedTree, scratch: &mut ExecScratch) -> Answer {
        self.answer_ctx(Ctx::Prepared(prepared), scratch, &[])
    }

    /// Evaluates the query against a prepared tree, delivering the answer to
    /// `sink` tuple by tuple in the order of [`CompiledQuery::execute`]'s
    /// answer: a fingerprint sink folds a k-ary answer without building it.
    pub fn execute_into(
        &self,
        prepared: &PreparedTree,
        scratch: &mut ExecScratch,
        sink: &mut AnswerSink,
    ) {
        self.sink_ctx(Ctx::Prepared(prepared), scratch, &[], sink)
    }

    /// Evaluates the query against a prepared tree with externally computed
    /// start-set *seeds* — the entry point of [`crate::batch`]'s shared-step
    /// table.
    ///
    /// Each seed is a `(variable index, node set)` pair in **pre-order rank
    /// space** whose set must contain the projection of every satisfaction
    /// onto that variable (any superset is sound; the batch layer derives
    /// seeds from hash-consed axis chains, which have exactly this
    /// property). Seeds are intersected into the start candidate sets after
    /// the label atoms, shrinking the fixpoint the Yannakakis and
    /// X̲-property paths reduce and enumerate from, at every head arity. MAC
    /// and naive execution do not load start sets and ignore seeds —
    /// correctness never depends on them, only the amount of work does.
    pub fn execute_seeded(
        &self,
        prepared: &PreparedTree,
        seeds: &[(usize, &NodeSet)],
        scratch: &mut ExecScratch,
    ) -> Answer {
        self.answer_ctx(Ctx::Prepared(prepared), scratch, seeds)
    }

    /// [`CompiledQuery::execute_seeded`], delivering the answer to `sink`
    /// as [`CompiledQuery::execute_into`] does.
    pub fn execute_seeded_into(
        &self,
        prepared: &PreparedTree,
        seeds: &[(usize, &NodeSet)],
        scratch: &mut ExecScratch,
        sink: &mut AnswerSink,
    ) {
        self.sink_ctx(Ctx::Prepared(prepared), scratch, seeds, sink)
    }

    /// Evaluates the Boolean reading against a prepared tree.
    pub fn execute_boolean(&self, prepared: &PreparedTree, scratch: &mut ExecScratch) -> bool {
        self.boolean_ctx(Ctx::Prepared(prepared), scratch, &[])
    }

    /// Evaluates a monadic query against a prepared tree.
    ///
    /// # Panics
    /// Panics if the query is not monadic.
    pub fn execute_monadic(&self, prepared: &PreparedTree, scratch: &mut ExecScratch) -> NodeSet {
        self.monadic_ctx(Ctx::Prepared(prepared), scratch, &[])
    }

    /// Returns some satisfaction against a prepared tree, if one exists.
    pub fn execute_witness(
        &self,
        prepared: &PreparedTree,
        scratch: &mut ExecScratch,
    ) -> Option<Valuation> {
        self.witness_ctx(Ctx::Prepared(prepared), scratch)
    }

    /// Whether `tuple` is in the answer against a prepared tree.
    ///
    /// # Panics
    /// Panics if the tuple arity differs from the head arity.
    pub fn execute_check_tuple(
        &self,
        prepared: &PreparedTree,
        tuple: &[NodeId],
        scratch: &mut ExecScratch,
    ) -> bool {
        self.check_tuple_ctx(Ctx::Prepared(prepared), tuple, scratch)
    }

    // ---- execution against a plain tree ---------------------------------

    /// Evaluates the query against a plain (unprepared) tree — the path
    /// [`crate::engine::Engine`] delegates to.
    pub fn eval_on(&self, tree: &Tree, scratch: &mut ExecScratch) -> Answer {
        self.answer_ctx(Ctx::Plain(tree), scratch, &[])
    }

    /// Evaluates the Boolean reading against a plain tree.
    pub fn eval_boolean_on(&self, tree: &Tree, scratch: &mut ExecScratch) -> bool {
        self.boolean_ctx(Ctx::Plain(tree), scratch, &[])
    }

    /// Returns some satisfaction against a plain tree, if one exists.
    pub fn witness_on(&self, tree: &Tree, scratch: &mut ExecScratch) -> Option<Valuation> {
        self.witness_ctx(Ctx::Plain(tree), scratch)
    }

    /// Whether `tuple` is in the answer against a plain tree.
    ///
    /// # Panics
    /// Panics if the tuple arity differs from the head arity.
    pub fn check_tuple_on(&self, tree: &Tree, tuple: &[NodeId], scratch: &mut ExecScratch) -> bool {
        self.check_tuple_ctx(Ctx::Plain(tree), tuple, scratch)
    }

    // ---- shared dispatch -------------------------------------------------

    pub(crate) fn ensure_answer_capacity(scratch: &mut ExecScratch, n: usize) {
        if scratch.answer.capacity() != n {
            scratch.answer = NodeSet::empty(n);
        }
    }

    fn boolean_ctx(
        &self,
        ctx: Ctx<'_>,
        scratch: &mut ExecScratch,
        seeds: &[(usize, &NodeSet)],
    ) -> bool {
        let tree = ctx.tree();
        match self.strategy {
            SelectedStrategy::Yannakakis => {
                let forest = self
                    .forest
                    .as_ref()
                    .expect("Yannakakis strategy requires an acyclic query");
                if !ctx.load_start(&self.query, &mut scratch.ac, seeds) {
                    return false;
                }
                Self::ensure_answer_capacity(scratch, tree.len());
                let var_count = self.query.var_count();
                reduce_loaded(
                    tree,
                    forest,
                    &mut scratch.ac.sets[..var_count],
                    &mut scratch.answer,
                )
            }
            SelectedStrategy::XProperty => {
                // Theorem 3.5: on a tractable signature, satisfiability is
                // exactly non-emptiness of the arc-consistency closure.
                assert!(
                    self.order.is_some(),
                    "X-property strategy requires a tractable signature"
                );
                if !ctx.load_start(&self.query, &mut scratch.ac, seeds) {
                    return false;
                }
                propagate_loaded(tree, &self.query, &mut scratch.ac, None)
            }
            SelectedStrategy::Mac => {
                MacSolver::new(tree).eval_boolean_with(&self.query, &mut scratch.ac)
            }
            SelectedStrategy::Naive => NaiveEvaluator::new(tree).eval_boolean(&self.query),
        }
    }

    fn monadic_ctx(
        &self,
        ctx: Ctx<'_>,
        scratch: &mut ExecScratch,
        seeds: &[(usize, &NodeSet)],
    ) -> NodeSet {
        assert!(
            self.query.is_monadic(),
            "execute_monadic requires a unary query"
        );
        let tree = ctx.tree();
        let n = tree.len();
        let head = self.query.head()[0];
        match self.strategy {
            SelectedStrategy::Yannakakis => {
                let forest = self
                    .forest
                    .as_ref()
                    .expect("Yannakakis strategy requires an acyclic query");
                if !ctx.load_start(&self.query, &mut scratch.ac, seeds) {
                    return NodeSet::empty(n);
                }
                Self::ensure_answer_capacity(scratch, n);
                let var_count = self.query.var_count();
                if !reduce_loaded(
                    tree,
                    forest,
                    &mut scratch.ac.sets[..var_count],
                    &mut scratch.answer,
                ) {
                    return NodeSet::empty(n);
                }
                tree.from_pre_space(&scratch.ac.sets[head.index()])
            }
            SelectedStrategy::XProperty => self.enumerator(ctx).nodes(seeds, scratch),
            SelectedStrategy::Mac => {
                MacSolver::new(tree).eval_monadic_with(&self.query, &mut scratch.ac)
            }
            SelectedStrategy::Naive => NaiveEvaluator::new(tree).eval_monadic(&self.query),
        }
    }

    /// The answer enumerator of the two tractable engines.
    fn enumerator<'a>(&'a self, ctx: Ctx<'a>) -> Enumerator<'a> {
        let fixpoint = match (self.strategy, &self.forest, self.order) {
            (SelectedStrategy::Yannakakis, Some(forest), _) => {
                Fixpoint::Reduce(forest, self.walk.as_ref())
            }
            (SelectedStrategy::Yannakakis, None, _) => {
                panic!("Yannakakis strategy requires an acyclic query")
            }
            (_, _, order) => {
                assert!(
                    order.is_some(),
                    "X-property strategy requires a tractable signature"
                );
                Fixpoint::Propagate
            }
        };
        Enumerator::new(ctx, &self.query, fixpoint)
    }

    fn witness_ctx(&self, ctx: Ctx<'_>, scratch: &mut ExecScratch) -> Option<Valuation> {
        let tree = ctx.tree();
        match self.strategy {
            SelectedStrategy::Yannakakis => YannakakisEvaluator::new(tree).witness_with_forest(
                &self.query,
                self.forest
                    .as_ref()
                    .expect("Yannakakis strategy requires an acyclic query"),
            ),
            SelectedStrategy::XProperty => {
                let order = self
                    .order
                    .expect("X-property strategy requires a tractable signature");
                XPropertyEvaluator::with_order(tree, order).witness(&self.query)
            }
            SelectedStrategy::Mac => {
                MacSolver::new(tree).witness_with(&self.query, &mut scratch.ac)
            }
            SelectedStrategy::Naive => NaiveEvaluator::new(tree).witness(&self.query),
        }
    }

    fn check_tuple_ctx(&self, ctx: Ctx<'_>, tuple: &[NodeId], scratch: &mut ExecScratch) -> bool {
        let tree = ctx.tree();
        match self.strategy {
            SelectedStrategy::Yannakakis | SelectedStrategy::XProperty => {
                self.enumerator(ctx).check(tuple, scratch)
            }
            SelectedStrategy::Mac => {
                MacSolver::new(tree).check_tuple_with(&self.query, tuple, &mut scratch.ac)
            }
            SelectedStrategy::Naive => NaiveEvaluator::new(tree).check_tuple(&self.query, tuple),
        }
    }

    /// Delivers the answer to `sink` tuple by tuple, in the order of the
    /// collected answer; the one dispatch behind every answer-returning
    /// entry point.
    fn sink_ctx(
        &self,
        ctx: Ctx<'_>,
        scratch: &mut ExecScratch,
        seeds: &[(usize, &NodeSet)],
        sink: &mut AnswerSink,
    ) {
        let tree = ctx.tree();
        match (self.query.head_arity(), self.strategy) {
            (0, _) => {
                if self.boolean_ctx(ctx, scratch, seeds) {
                    sink.push(&[]);
                }
            }
            (1, _) => {
                for node in self.monadic_ctx(ctx, scratch, seeds).iter() {
                    sink.push(&[node]);
                }
            }
            (_, SelectedStrategy::Yannakakis | SelectedStrategy::XProperty) => self
                .enumerator(ctx)
                .run(seeds, None, scratch, &mut |t| sink.push(t)),
            (_, SelectedStrategy::Mac) => sink.push_answer(Answer::Tuples(
                MacSolver::new(tree).eval_tuples_with(&self.query, usize::MAX, &mut scratch.ac),
            )),
            (_, SelectedStrategy::Naive) => sink.push_answer(Answer::Tuples(
                NaiveEvaluator::new(tree).eval_tuples(&self.query),
            )),
        }
    }

    fn answer_ctx(
        &self,
        ctx: Ctx<'_>,
        scratch: &mut ExecScratch,
        seeds: &[(usize, &NodeSet)],
    ) -> Answer {
        let mut sink = AnswerSink::collect(self.query.head_arity());
        self.sink_ctx(ctx, scratch, seeds, &mut sink);
        sink.into_answer().expect("a collecting sink")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use cqt_query::cq::{figure1_query, intro_xpath_query};
    use cqt_query::generate::{random_query, RandomQueryConfig};
    use cqt_query::parse_query;
    use cqt_trees::generate::{random_tree, RandomTreeConfig};
    use cqt_trees::parse::parse_term;
    use cqt_trees::Axis;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn compiled_execution_agrees_with_engine_on_fixed_queries() {
        let prepared = PreparedTree::new(
            parse_term("CORPUS(S(NP(DT, NN), VP(VB, NP(NN), PP(IN, NP(NN)))), S(NP(NN), VP(VB)))")
                .unwrap(),
        );
        let engine = Engine::new();
        let mut scratch = ExecScratch::new();
        for query in [
            figure1_query(),
            intro_xpath_query(),
            parse_query("Q() :- A(x), Child+(x, y), Child*(x, y).").unwrap(),
            parse_query("Q(x) :- NP(x), Child(x, y), NN(y).").unwrap(),
            parse_query("Q(x, y) :- S(x), Child(x, y).").unwrap(),
        ] {
            let plan = CompiledQuery::compile(query.clone());
            let expected = engine.eval(prepared.tree(), &query);
            assert_eq!(
                plan.execute(&prepared, &mut scratch),
                expected,
                "prepared execution mismatch on {query}"
            );
            assert_eq!(
                plan.eval_on(prepared.tree(), &mut scratch),
                expected,
                "plain execution mismatch on {query}"
            );
        }
    }

    #[test]
    fn compile_once_strategy_matches_engine_plan() {
        let engine = Engine::new();
        for query in [
            figure1_query(),
            intro_xpath_query(),
            parse_query("Q() :- A(x), Child+(x, y), Child*(x, y), B(y).").unwrap(),
        ] {
            let (strategy, classification) = engine.plan(&query);
            let plan = CompiledQuery::compile(query);
            assert_eq!(plan.strategy(), strategy);
            assert_eq!(plan.classification(), &classification);
        }
    }

    #[test]
    fn repeated_execution_reuses_label_cache() {
        let prepared = PreparedTree::new(parse_term("A(B(D), C(D, B))").unwrap());
        let plan = CompiledQuery::parse("Q(y) :- A(x), Child+(x, y), B(y).").unwrap();
        let mut scratch = ExecScratch::new();
        let first = plan.execute(&prepared, &mut scratch);
        for _ in 0..5 {
            assert_eq!(plan.execute(&prepared, &mut scratch), first);
        }
        // Two labels in the query → two cached conversions, regardless of
        // how many times the plan ran.
        assert_eq!(prepared.label_set_builds(), 2);
    }

    #[test]
    fn compiled_agrees_with_engine_on_random_monadic_queries() {
        let mut rng = StdRng::seed_from_u64(77);
        let tree_config = RandomTreeConfig {
            nodes: 20,
            ..RandomTreeConfig::default()
        };
        let query_config = RandomQueryConfig {
            vars: 4,
            extra_atoms: 2,
            head_arity: 1,
            axes: vec![
                Axis::Child,
                Axis::ChildPlus,
                Axis::ChildStar,
                Axis::NextSibling,
                Axis::Following,
            ],
            ..RandomQueryConfig::default()
        };
        let engine = Engine::new();
        let mut scratch = ExecScratch::new();
        for _ in 0..30 {
            let tree = random_tree(&mut rng, &tree_config);
            let query = random_query(&mut rng, &query_config);
            let expected = engine.eval(&tree, &query);
            let prepared = PreparedTree::new(tree);
            let plan = CompiledQuery::compile(query.clone());
            assert_eq!(
                plan.execute(&prepared, &mut scratch),
                expected,
                "mismatch on {query}"
            );
        }
    }

    #[test]
    fn witness_and_tuple_check_roundtrip() {
        let prepared = PreparedTree::new(parse_term("A(B(D), B(E))").unwrap());
        let mut scratch = ExecScratch::new();
        let plan = CompiledQuery::parse("Q(x, y) :- B(x), Child(x, y).").unwrap();
        let Answer::Tuples(tuples) = plan.execute(&prepared, &mut scratch) else {
            panic!("expected tuples");
        };
        assert_eq!(tuples.len(), 2);
        for tuple in &tuples {
            assert!(plan.execute_check_tuple(&prepared, tuple, &mut scratch));
        }
        let witness = plan
            .execute_witness(&prepared, &mut scratch)
            .expect("satisfiable");
        assert!(witness.is_satisfaction(prepared.tree(), plan.query()));
        let unsat = CompiledQuery::parse("Q() :- Z(x).").unwrap();
        assert!(!unsat.execute_boolean(&prepared, &mut scratch));
        assert!(unsat.execute_witness(&prepared, &mut scratch).is_none());
    }

    #[test]
    fn one_scratch_serves_queries_of_different_shapes() {
        // Interleave queries with different variable counts and strategies on
        // trees of different sizes: the scratch must re-shape correctly.
        let small = PreparedTree::new(parse_term("A(B)").unwrap());
        let large = PreparedTree::new(parse_term("A(B(C(D, E), B), C(A(B)))").unwrap());
        let mut scratch = ExecScratch::new();
        let chain = CompiledQuery::parse("Q() :- A(w), Child(w, x), B(x).").unwrap();
        let cyclic = CompiledQuery::compile(figure1_query());
        let monadic = CompiledQuery::parse("Q(y) :- A(x), Child+(x, y), B(y).").unwrap();
        // Cyclic-but-tractable and monadic → the answer enumerator, whose
        // per-level set buffers must re-shape between tree sizes.
        let xprop_monadic =
            CompiledQuery::parse("Q(y) :- A(x), Child+(x, y), Child*(x, y), B(y).").unwrap();
        assert_eq!(xprop_monadic.strategy(), SelectedStrategy::XProperty);
        for _ in 0..3 {
            assert!(chain.execute_boolean(&small, &mut scratch));
            assert!(chain.execute_boolean(&large, &mut scratch));
            assert!(!cyclic.execute_boolean(&small, &mut scratch));
            for prepared in [&large, &small, &large] {
                let got: Vec<NodeId> = xprop_monadic
                    .execute_monadic(prepared, &mut scratch)
                    .iter()
                    .collect();
                let Answer::Nodes(expected) =
                    Engine::new().eval(prepared.tree(), xprop_monadic.query())
                else {
                    panic!("expected nodes");
                };
                assert_eq!(got, expected);
            }
            let on_small = monadic.execute_monadic(&small, &mut scratch);
            assert_eq!(on_small.len(), 1);
            let on_large: Vec<NodeId> = monadic
                .execute_monadic(&large, &mut scratch)
                .iter()
                .collect();
            let Answer::Nodes(expected) = Engine::new().eval(large.tree(), monadic.query()) else {
                panic!("expected nodes");
            };
            assert_eq!(on_large, expected);
        }
    }
}
