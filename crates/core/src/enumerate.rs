//! Output-sensitive answer enumeration: the *walk* and *fix and decide*.
//!
//! On a tractable signature a nonempty arc-consistent prevaluation extends to
//! a satisfaction (Lemma 3.4, Theorem 3.5); after the full semi-join reducer
//! of an acyclic query every candidate extends (Yannakakis 1981). Both
//! engines enumerate a k-ary answer from that fixpoint, fixing the head
//! variables in head order. Levels iterate in `NodeId` order, so tuples come
//! out in lexicographic order; every tuple goes to the caller's emit
//! function ([`crate::sink`]).
//!
//! **The walk.** After the full reducer the reduced sets of an acyclic query
//! are an arc-consistent CSP whose constraint graph is a forest. Such a CSP
//! admits backtrack-free search (Freuder 1982): if the variables fixed so
//! far form a connected part of each component, a value of a further
//! variable joined to exactly one fixed variable extends to a solution
//! exactly when it lies in its reduced set and satisfies the joining atom.
//! When the head order keeps to that rule (checked once, when the plan is
//! compiled), each head position takes its candidates straight from the
//! reduced sets: a repeated variable takes its earlier value, a variable
//! joined to an earlier head variable takes the image of that variable's
//! node under the joining atom, intersected with its reduced set, and the
//! first head variable of a component takes its whole reduced set. Every
//! candidate extends to an answer, so no fixpoint runs and no set is copied
//! after the reducer. This is the constant-delay enumeration of free-connex
//! acyclic queries (Bagan, Durand and Grandjean, CSL 2007) for binary atoms.
//!
//! **Fix and decide.** Every other head (a head variable reached only
//! through a projected-out variable, the X̲ engine's heads, and tuple
//! checks) fixes one candidate at a time: per candidate it restores the
//! level's sets, restricts the variable and runs one *decide* step — the
//! arc-consistency worklist seeded with the fixed variable's arcs only. A
//! candidate either fails that step or extends to an answer: nothing
//! backtracks, and the delay is polynomial. On an acyclic query no decide
//! step fails, and the last head variable's set is emitted as is.

use cqt_query::graph::JoinForest;
use cqt_query::{ConjunctiveQuery, Var};
use cqt_trees::{Axis, NodeId, NodeSet, Order, Tree};

use crate::arc::propagate_loaded;
use crate::compiled::{CompiledQuery, Ctx, ExecScratch};
use crate::yannakakis::reduce_loaded;

/// The fixpoint an engine enumerates from.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fixpoint<'f> {
    /// The full semi-join reducer over the join forest of an acyclic query,
    /// with the walk of its head when it has one.
    Reduce(&'f JoinForest, Option<&'f Walk>),
    /// The arc-consistency closure of a query over a tractable signature.
    Propagate,
}

/// How the walk reaches one head position from the positions before it.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// The variable of an earlier position again: its value.
    Repeat(usize),
    /// The first head variable of its component: its whole reduced set.
    Free(Var),
    /// Joined to the variable of head position `from` by one atom, read
    /// `axis(from, var)`: the image of that position's node, intersected
    /// with `var`'s reduced set.
    Joined { var: Var, from: usize, axis: Axis },
}

/// The walk of an acyclic query's head: one [`Step`] per head position.
#[derive(Clone, Debug)]
pub(crate) struct Walk {
    steps: Vec<Step>,
}

impl Walk {
    /// The walk of `query`'s head over its join forest, if the head order
    /// admits one: every head position repeats an earlier head variable, is
    /// joined to exactly one earlier head variable, or lies in a component
    /// with no earlier head variable. A join forest has no parallel atoms,
    /// so two variables share at most one atom.
    pub(crate) fn plan(query: &ConjunctiveQuery, forest: &JoinForest) -> Option<Walk> {
        // Component of every variable; a variable in no axis atom is a
        // component of its own.
        let var_count = query.var_count();
        let mut component: Vec<usize> = (var_count..2 * var_count).collect();
        for (c, tree) in forest.components.iter().enumerate() {
            for var in &tree.bfs_order {
                component[var.index()] = c;
            }
        }
        let head = query.head();
        let mut steps = Vec::with_capacity(head.len());
        for (position, &var) in head.iter().enumerate() {
            let earlier = &head[..position];
            if let Some(first) = earlier.iter().position(|&v| v == var) {
                steps.push(Step::Repeat(first));
                continue;
            }
            let mut joins = query.axis_atoms().iter().filter_map(|atom| {
                let other = if atom.to == var {
                    atom.from
                } else if atom.from == var {
                    atom.to
                } else {
                    return None;
                };
                let from = earlier.iter().position(|&v| v == other)?;
                let axis = if atom.to == var {
                    atom.axis
                } else {
                    atom.axis.inverse()
                };
                Some(Step::Joined { var, from, axis })
            });
            match (joins.next(), joins.next()) {
                (Some(step), None) => steps.push(step),
                (None, _)
                    if earlier
                        .iter()
                        .all(|v| component[v.index()] != component[var.index()]) =>
                {
                    steps.push(Step::Free(var))
                }
                _ => return None,
            }
        }
        Some(Walk { steps })
    }
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
    pub(crate) fn run(
        self,
        seeds: Seeds<'_>,
        only: Option<&[NodeId]>,
        scratch: &mut ExecScratch,
        emit: Emit,
    ) {
        let (tree, query) = (self.ctx.tree(), self.query);
        if !self.ctx.load_start(query, &mut scratch.ac, seeds) {
            return;
        }
        let reduced = match self.fixpoint {
            Fixpoint::Reduce(forest, _) => {
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
            match (self.fixpoint, only) {
                (Fixpoint::Reduce(_, Some(walk)), None) => self.walk(&walk.steps, scratch, emit),
                _ => self.descend(only, scratch, emit),
            }
        }
    }

    /// Walks the extensions of the prefix `scratch.tuple` through the
    /// reduced sets in `scratch.ac.sets`, which it never changes.
    fn walk(self, steps: &[Step], scratch: &mut ExecScratch, emit: Emit) {
        let depth = scratch.tuple.len();
        let Some(&step) = steps.get(depth) else {
            return emit(&scratch.tuple);
        };
        let tree = self.ctx.tree();
        // Moved out for the recursion and back at the end: no allocation.
        let mut level = std::mem::take(&mut scratch.levels[depth]);
        level.candidates.clear();
        let sets = &scratch.ac.sets;
        match step {
            Step::Repeat(position) => level.candidates.push(scratch.tuple[position]),
            // Converted to raw indices as a set, so it iterates in `NodeId`
            // order with no sort; the reducer's scratch set is free here.
            Step::Free(var) => {
                tree.from_pre_space_into(&sets[var.index()], &mut scratch.answer);
                level.candidates.extend(scratch.answer.iter());
            }
            Step::Joined { var, from, axis } => {
                let rank = tree.pre_rank(scratch.tuple[from]) as usize;
                image(tree, axis, rank, &sets[var.index()], &mut level.candidates);
                // Ranks to nodes, in `NodeId` order.
                if !tree.pre_is_identity() {
                    for candidate in &mut level.candidates {
                        *candidate = tree.node_at(Order::Pre, candidate.index() as u32);
                    }
                    level.candidates.sort_unstable();
                }
            }
        }
        for &node in &level.candidates {
            scratch.tuple.push(node);
            self.walk(steps, scratch, emit);
            scratch.tuple.pop();
        }
        scratch.levels[depth] = level;
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
        let exact = matches!(self.fixpoint, Fixpoint::Reduce(..));
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

/// Pushes onto `out`, in ascending rank order, the members `v` of `set`
/// with `axis(u, v)`, where `u` is the node of pre-order rank `u`; `set` and
/// the pushed values are in pre-order rank space. Each axis reads the
/// rank-space index arrays: a subtree is the rank range `(u, pre_end(u)]`,
/// the children of `u` are the sibling chain from `u + 1`.
fn image(tree: &Tree, axis: Axis, u: usize, set: &NodeSet, out: &mut Vec<NodeId>) {
    let (end, parent) = (tree.pre_end_by_pre(), tree.parent_by_pre());
    let (prev, next) = (tree.prev_sibling_by_pre(), tree.next_sibling_by_pre());
    let subtree_end = end[u] as usize + 1;
    let start = out.len();
    match axis {
        Axis::SelfAxis => chain(set, u as u32, &[], out),
        Axis::Child if subtree_end > u + 1 => chain(set, u as u32 + 1, next, out),
        Axis::Child => {}
        Axis::ChildPlus => scan(set, u + 1, subtree_end, out),
        Axis::ChildStar => scan(set, u, subtree_end, out),
        Axis::NextSibling => chain(set, next[u], &[], out),
        Axis::NextSiblingPlus => chain(set, next[u], next, out),
        Axis::NextSiblingStar => chain(set, u as u32, next, out),
        Axis::Following => scan(set, subtree_end, tree.len(), out),
        Axis::Parent => chain(set, parent[u], &[], out),
        Axis::PrevSibling => chain(set, prev[u], &[], out),
        // Chains that climb come out in descending rank order.
        Axis::AncestorPlus => chain(set, parent[u], parent, out),
        Axis::AncestorStar => chain(set, u as u32, parent, out),
        Axis::PrevSiblingPlus => chain(set, prev[u], prev, out),
        Axis::PrevSiblingStar => chain(set, u as u32, prev, out),
        // The ranks before `u` whose subtree ends before it: the ranks
        // before `u` minus its ancestors.
        Axis::Preceding => {
            let mut lo = 0;
            while let Some(member) = set.first_member_in_range(lo, u) {
                lo = member.index() + 1;
                if (end[member.index()] as usize) < u {
                    out.push(member);
                }
            }
        }
    }
    if matches!(
        axis,
        Axis::AncestorPlus | Axis::AncestorStar | Axis::PrevSiblingPlus | Axis::PrevSiblingStar
    ) {
        out[start..].reverse();
    }
}

/// Pushes the members of `set` on the chain from rank `first` through
/// `links` (one rank when `links` is empty), stopping at
/// [`Tree::NO_PARENT`].
fn chain(set: &NodeSet, first: u32, links: &[u32], out: &mut Vec<NodeId>) {
    let mut rank = first;
    while rank != Tree::NO_PARENT {
        let node = NodeId::from_index(rank as usize);
        if set.contains(node) {
            out.push(node);
        }
        rank = links.get(rank as usize).copied().unwrap_or(Tree::NO_PARENT);
    }
}

/// Pushes the members of `set` with rank in `[lo, hi)`.
fn scan(set: &NodeSet, mut lo: usize, hi: usize, out: &mut Vec<NodeId>) {
    while let Some(member) = set.first_member_in_range(lo, hi) {
        out.push(member);
        lo = member.index() + 1;
    }
}

type Seeds<'s> = &'s [(usize, &'s NodeSet)];
type Emit<'e> = &'e mut dyn FnMut(&[NodeId]);
