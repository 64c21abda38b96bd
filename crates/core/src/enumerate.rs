//! Output-sensitive answer enumeration: *fix and decide*.
//!
//! On a tractable signature a nonempty arc-consistent prevaluation extends to
//! a satisfaction (Lemma 3.4, Theorem 3.5); after the full semi-join reducer
//! of an acyclic query every candidate extends (Yannakakis 1981). Fixing a
//! variable to one node restricts the prevaluation, not the relations, so
//! both guarantees survive it. The enumerator fixes the head variables in
//! head order; per candidate it restores the level's sets, restricts the
//! variable and runs one *decide* step — the arc-consistency worklist seeded
//! with the fixed variable's arcs only. A candidate either fails that step or
//! extends to an answer: nothing backtracks, and the delay is polynomial. On
//! an acyclic query no decide step fails, and the last head variable's set is
//! emitted as is. Levels iterate in `NodeId` order, so tuples come out in
//! lexicographic order.

use cqt_query::graph::JoinForest;
use cqt_query::ConjunctiveQuery;
use cqt_trees::{NodeId, NodeSet, Order};

use crate::arc::propagate_loaded;
use crate::compiled::{CompiledQuery, Ctx, ExecScratch};
use crate::yannakakis::reduce_loaded;

/// The fixpoint an engine enumerates from.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fixpoint<'f> {
    /// The full semi-join reducer over the join forest of an acyclic query.
    Reduce(&'f JoinForest),
    /// The arc-consistency closure of a query over a tractable signature.
    Propagate,
}

/// The buffers of one enumeration level: the candidate sets on entry and
/// the head variable's candidates in `NodeId` order.
#[derive(Debug, Default)]
pub(crate) struct Level {
    sets: Vec<NodeSet>,
    candidates: Vec<NodeId>,
}

/// A query on a tree, enumerated from one engine's fixpoint.
#[derive(Clone, Copy)]
pub(crate) struct Enumerator<'a> {
    ctx: Ctx<'a>,
    query: &'a ConjunctiveQuery,
    fixpoint: Fixpoint<'a>,
}

impl<'a> Enumerator<'a> {
    pub(crate) fn new(ctx: Ctx<'a>, query: &'a ConjunctiveQuery, fixpoint: Fixpoint<'a>) -> Self {
        Enumerator {
            ctx,
            query,
            fixpoint,
        }
    }

    /// The answer relation, sorted lexicographically (one empty tuple for a
    /// satisfied Boolean query).
    pub(crate) fn tuples(self, seeds: Seeds<'_>, scratch: &mut ExecScratch) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        self.run(seeds, None, scratch, &mut |tuple| out.push(tuple.to_vec()));
        out
    }

    /// The answer set of a monadic query (raw node indices): the k = 1 case.
    pub(crate) fn nodes(self, seeds: Seeds<'_>, scratch: &mut ExecScratch) -> NodeSet {
        assert!(
            self.query.is_monadic(),
            "eval_monadic requires a unary query"
        );
        let mut out = NodeSet::empty(self.ctx.tree().len());
        self.run(seeds, None, scratch, &mut |tuple| {
            out.insert(tuple[0]);
        });
        out
    }

    /// Whether `tuple` is an answer: the enumeration restricted to the one
    /// path the tuple names, through the same decide steps.
    ///
    /// # Panics
    /// Panics if `tuple.len()` differs from the head arity.
    pub(crate) fn check(self, tuple: &[NodeId], scratch: &mut ExecScratch) -> bool {
        let arity = self.query.head_arity();
        assert_eq!(
            tuple.len(),
            arity,
            "answer tuple arity must match the query head"
        );
        let mut found = false;
        self.run(&[], Some(tuple), scratch, &mut |_| found = true);
        found
    }

    /// Loads the seeded start sets, runs the engine's fixpoint and calls
    /// `emit` on every answer in lexicographic order. With `only`, level `i`
    /// tries `only[i]` alone.
    fn run(self, seeds: Seeds<'_>, only: Option<&[NodeId]>, scratch: &mut ExecScratch, emit: Emit) {
        let (tree, query) = (self.ctx.tree(), self.query);
        if !self.ctx.load_start(query, &mut scratch.ac, seeds) {
            return;
        }
        let reduced = match self.fixpoint {
            Fixpoint::Reduce(forest) => {
                CompiledQuery::ensure_answer_capacity(scratch, tree.len());
                let sets = &mut scratch.ac.sets[..query.var_count()];
                reduce_loaded(tree, forest, sets, &mut scratch.answer)
            }
            Fixpoint::Propagate => propagate_loaded(tree, query, &mut scratch.ac, None),
        };
        if reduced {
            let k = query.head_arity();
            if scratch.levels.len() < k {
                scratch.levels.resize_with(k, Level::default);
            }
            scratch.tuple.clear();
            self.descend(only, scratch, emit);
        }
    }

    /// Enumerates the extensions of the prefix `scratch.tuple`, whose decide
    /// steps left their fixpoint in `scratch.ac.sets`.
    fn descend(self, only: Option<&[NodeId]>, scratch: &mut ExecScratch, emit: Emit) {
        let (tree, query, depth) = (self.ctx.tree(), self.query, scratch.tuple.len());
        if depth == query.head_arity() {
            return emit(&scratch.tuple);
        }
        let var = query.head()[depth];
        let pre = |node: NodeId| NodeId::from_index(tree.pre_rank(node) as usize);
        let node_at = |rank: NodeId| tree.node_at(Order::Pre, rank.index() as u32);
        // Moved out for the recursion and back at the end: no allocation.
        let mut level = std::mem::take(&mut scratch.levels[depth]);
        let domain = &scratch.ac.sets[var.index()];
        level.candidates.clear();
        if let Some(fixed) = only {
            level
                .candidates
                .extend(Some(fixed[depth]).filter(|&n| domain.contains(pre(n))));
        } else {
            level.candidates.extend(domain.iter().map(node_at));
            if !tree.pre_is_identity() {
                level.candidates.sort_unstable();
            }
        }
        // After the full reducer the last head variable's set is exactly its
        // extensions: it needs no decide step.
        let exact = matches!(self.fixpoint, Fixpoint::Reduce(_));
        let decide = !exact || depth + 1 < query.head_arity();
        if decide {
            scratch.ac.sets[..query.var_count()].clone_into(&mut level.sets);
        }
        for &node in &level.candidates {
            if decide {
                scratch.ac.sets[..level.sets.len()].clone_from_slice(&level.sets);
                let fixed = &mut scratch.ac.sets[var.index()];
                fixed.clear();
                fixed.insert(pre(node));
                scratch.steps += 1;
                if !propagate_loaded(tree, query, &mut scratch.ac, Some(var)) {
                    debug_assert!(!exact, "decide failed after the full reducer");
                    continue;
                }
            }
            scratch.tuple.push(node);
            self.descend(only, scratch, emit);
            scratch.tuple.pop();
        }
        scratch.levels[depth] = level;
    }
}

type Seeds<'s> = &'s [(usize, &'s NodeSet)];
type Emit<'e> = &'e mut dyn FnMut(&[NodeId]);
