//! Batched execution: shared work across many compiled queries against one
//! prepared tree.
//!
//! Serving traffic repeats structure. A batch of k queries against the same
//! [`PreparedTree`] snapshot typically shares label atoms (the union of
//! required label sets is much smaller than the sum) and *axis chains*: XPath
//! location paths compile to linear `label → axis → label → axis → …` spines,
//! and two queries built from the same path prefix perform identical
//! semi-join work on every document. [`BatchPlan`] makes that sharing
//! explicit:
//!
//! * **Shared-step table.** Every query variable is mapped to a *step* — its
//!   sorted label set, plus (when the variable has an incoming axis atom) the
//!   step of the source variable and the axis. Steps are hash-consed across
//!   the whole batch, so identical axis atoms and identical location-path
//!   prefixes collapse to one table entry, evaluated **once per document**
//!   with the rank-space kernels of [`crate::support`] no matter how many
//!   queries reference them.
//! * **Seeded start sets.** A step's evaluation is a superset of the
//!   projection of every satisfaction onto its variable (induction over the
//!   chain: `targets(axis, superset) ∩ labels` stays a superset). The table
//!   entries therefore feed [`CompiledQuery::execute_seeded`] as start-set
//!   seeds, shrinking each query's arc-consistency fixpoint; and when any
//!   step for a query comes back **empty**, the query's answer is empty for
//!   *every* strategy — the batch executor short-circuits without touching
//!   the evaluator at all.
//!
//! Label sets need no warm-up: a step reads the tree's own
//! [`Tree::nodes_with_label`](cqt_trees::Tree::nodes_with_label) sets, which
//! are already in the kernels' rank space (node ids are pre-order ranks).
//! Materialized axis *relations* are never built either: the compiled
//! execution paths run entirely on the structural index.
//!
//! All per-document mutable state lives in a [`BatchScratch`], one per
//! worker, reused across documents and batches so hot memory stays hot.

use std::collections::HashMap;

use cqt_trees::{Axis, NodeSet, PreparedTree};

use crate::compiled::{CompiledQuery, ExecScratch};
use crate::engine::Answer;
use crate::sink::AnswerSink;
use crate::support::pre_supported_targets;

/// How a shared step derives its node set.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum StepOp {
    /// All nodes (label intersection only).
    Root,
    /// Axis targets of the parent step's set.
    Chain {
        /// Index of the source step in [`BatchPlan::steps`]; always smaller
        /// than this step's own index, so the table is topologically sorted
        /// by construction.
        parent: usize,
        /// The axis from the source variable to this one.
        axis: Axis,
    },
}

/// One hash-consed entry of the shared-step table.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct SharedStep {
    op: StepOp,
    /// Sorted, deduplicated label names of the variable.
    labels: Box<[String]>,
}

/// A batch of compiled queries analysed for cross-query sharing against one
/// prepared-tree snapshot.
///
/// Construction is per-batch and tree-independent; evaluation state lives in
/// a reusable [`BatchScratch`]. The plan itself is immutable and `Sync`.
#[derive(Debug)]
pub struct BatchPlan {
    steps: Vec<SharedStep>,
    /// Per query: `(variable index, step index)` seed pairs. Only chain
    /// steps are recorded — a root step's evaluation is exactly what
    /// [`CompiledQuery`]'s own start-set loader computes, so seeding it
    /// would be redundant work.
    seeds: Vec<Vec<(usize, usize)>>,
    /// Hash-cons hits during construction: how many `(variable, step)`
    /// resolutions mapped onto an already-interned step.
    reused: usize,
}

impl BatchPlan {
    /// Analyses `queries` for shared steps. The order of `queries` fixes the
    /// query indices used by [`BatchPlan::execute`].
    pub fn new(queries: &[&CompiledQuery]) -> Self {
        let mut table: HashMap<SharedStep, usize> = HashMap::new();
        let mut steps: Vec<SharedStep> = Vec::new();
        let mut seeds = Vec::with_capacity(queries.len());
        let mut reused = 0usize;

        let mut intern = |step: SharedStep, steps: &mut Vec<SharedStep>, reused: &mut usize| {
            if let Some(&id) = table.get(&step) {
                *reused += 1;
                return id;
            }
            let id = steps.len();
            steps.push(step.clone());
            table.insert(step, id);
            id
        };

        for compiled in queries {
            let query = compiled.query();
            let var_count = query.var_count();
            // Sorted label lists per variable.
            let mut labels: Vec<Vec<String>> = vec![Vec::new(); var_count];
            for atom in query.label_atoms() {
                labels[atom.var.index()].push(atom.label.clone());
            }
            for list in &mut labels {
                list.sort_unstable();
                list.dedup();
            }
            // First incoming axis atom per variable (deterministic choice;
            // self-loops never form a chain).
            let mut incoming: Vec<Option<(usize, Axis)>> = vec![None; var_count];
            for atom in query.axis_atoms() {
                let to = atom.to.index();
                if atom.from != atom.to && incoming[to].is_none() {
                    incoming[to] = Some((atom.from.index(), atom.axis));
                }
            }
            // Resolve each variable to a step, following incoming chains.
            // `visiting` breaks cycles: a variable reached while already on
            // the stack falls back to its root step, which is still a sound
            // superset.
            let mut memo: Vec<Option<usize>> = vec![None; var_count];
            let mut visiting = vec![false; var_count];
            let mut query_seeds = Vec::new();
            for v in 0..var_count {
                let id = resolve_step(
                    v,
                    &labels,
                    &incoming,
                    &mut memo,
                    &mut visiting,
                    &mut steps,
                    &mut reused,
                    &mut intern,
                );
                if matches!(steps[id].op, StepOp::Chain { .. }) {
                    query_seeds.push((v, id));
                }
            }
            seeds.push(query_seeds);
        }
        BatchPlan {
            steps,
            seeds,
            reused,
        }
    }

    /// Number of distinct steps in the shared table.
    pub fn shared_step_count(&self) -> usize {
        self.steps.len()
    }

    /// How many `(variable, step)` resolutions were hash-cons hits —
    /// the amount of per-document evaluation the table saves.
    pub fn reused_steps(&self) -> usize {
        self.reused
    }

    /// Seed pairs recorded for query `index`.
    pub fn seed_count(&self, index: usize) -> usize {
        self.seeds[index].len()
    }

    /// Executes query `index` of the batch against `prepared`, evaluating
    /// any steps it needs that this document has not seen yet, then seeding
    /// the query's start sets from the table.
    ///
    /// The caller must have called [`BatchScratch::begin_document`] for this
    /// tree first; `queries[index]` must be the same compiled query that was
    /// passed to [`BatchPlan::new`] at that position.
    pub fn execute(
        &self,
        index: usize,
        query: &CompiledQuery,
        prepared: &PreparedTree,
        scratch: &mut BatchScratch,
    ) -> Answer {
        let mut sink = AnswerSink::collect(query.head_arity());
        self.execute_into(index, query, prepared, scratch, &mut sink);
        sink.into_answer().expect("a collecting sink")
    }

    /// [`BatchPlan::execute`], delivering the answer to `sink` tuple by
    /// tuple ([`CompiledQuery::execute_seeded_into`]).
    pub fn execute_into(
        &self,
        index: usize,
        query: &CompiledQuery,
        prepared: &PreparedTree,
        scratch: &mut BatchScratch,
        sink: &mut AnswerSink,
    ) {
        debug_assert_eq!(
            scratch.sets.len(),
            self.steps.len(),
            "begin_document must run before execute"
        );
        let mut empty_seed = false;
        for &(_, step) in &self.seeds[index] {
            if scratch.ready[step] {
                scratch.step_hits += 1;
            } else {
                self.eval_step(step, prepared, scratch);
            }
            if scratch.sets[step].is_empty() {
                empty_seed = true;
            }
        }
        if empty_seed {
            // A step set is a superset of the satisfaction projection onto
            // its variable: empty step ⇒ no satisfaction, for *every*
            // strategy (including MAC and naive, which ignore seeds). The
            // sink receives nothing: the empty answer.
            scratch.empty_short_circuits += 1;
            return;
        }
        let BatchScratch {
            exec,
            sets,
            seed_buf,
            ..
        } = scratch;
        seed_buf.clear();
        seed_buf.extend(self.seeds[index].iter().map(|&(var, step)| (var, step)));
        let seeds: Vec<(usize, &NodeSet)> = seed_buf
            .iter()
            .map(|&(var, step)| (var, &sets[step]))
            .collect();
        query.execute_seeded_into(prepared, &seeds, exec, sink)
    }

    /// Evaluates step `id` (and, transitively, its parents) into
    /// `scratch.sets[id]`, at most once per document.
    fn eval_step(&self, id: usize, prepared: &PreparedTree, scratch: &mut BatchScratch) {
        if scratch.ready[id] {
            return;
        }
        if let StepOp::Chain { parent, .. } = self.steps[id].op {
            self.eval_step(parent, prepared, scratch);
        }
        let tree = prepared.tree();
        let n = tree.len();
        // Parents are interned before children, so `parent < id` and the
        // split borrows cleanly: read the parent set, write this one.
        let (done, rest) = scratch.sets.split_at_mut(id);
        let out = &mut rest[0];
        match self.steps[id].op {
            StepOp::Root => {
                out.clear();
                out.insert_range(0, n);
            }
            StepOp::Chain { parent, axis } => {
                pre_supported_targets(tree, axis, &done[parent], out);
            }
        }
        for name in self.steps[id].labels.iter() {
            match prepared.label(name) {
                Some(label) => out.intersect_with(prepared.nodes_with_label(label)),
                None => out.clear(),
            }
            if out.is_empty() {
                break;
            }
        }
        scratch.ready[id] = true;
        scratch.step_evals += 1;
    }
}

/// Resolves variable `v` of one query to an interned step index.
#[allow(clippy::too_many_arguments)]
fn resolve_step(
    v: usize,
    labels: &[Vec<String>],
    incoming: &[Option<(usize, Axis)>],
    memo: &mut [Option<usize>],
    visiting: &mut [bool],
    steps: &mut Vec<SharedStep>,
    reused: &mut usize,
    intern: &mut impl FnMut(SharedStep, &mut Vec<SharedStep>, &mut usize) -> usize,
) -> usize {
    if let Some(id) = memo[v] {
        return id;
    }
    let root = |v: usize| SharedStep {
        op: StepOp::Root,
        labels: labels[v].clone().into_boxed_slice(),
    };
    if visiting[v] {
        // Cycle: fall back to the label-only superset, without memoizing —
        // the outer frame for `v` will intern the chain step.
        return intern(root(v), steps, reused);
    }
    visiting[v] = true;
    let id = match incoming[v] {
        None => intern(root(v), steps, reused),
        Some((from, axis)) => {
            let parent = resolve_step(
                from, labels, incoming, memo, visiting, steps, reused, intern,
            );
            intern(
                SharedStep {
                    op: StepOp::Chain { parent, axis },
                    labels: labels[v].clone().into_boxed_slice(),
                },
                steps,
                reused,
            )
        }
    };
    visiting[v] = false;
    memo[v] = Some(id);
    id
}

/// Reusable per-worker state for batch execution: the inner [`ExecScratch`]
/// plus one node set per shared step and the per-document evaluation flags.
#[derive(Debug, Default)]
pub struct BatchScratch {
    exec: ExecScratch,
    sets: Vec<NodeSet>,
    ready: Vec<bool>,
    seed_buf: Vec<(usize, usize)>,
    step_evals: u64,
    step_hits: u64,
    empty_short_circuits: u64,
}

impl BatchScratch {
    /// Creates an empty scratch; buffers are sized by
    /// [`BatchScratch::begin_document`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the per-document state for evaluating `plan` against a tree
    /// of `nodes` nodes: every shared step becomes pending again and the
    /// step sets take the tree's size.
    pub fn begin_document(&mut self, plan: &BatchPlan, nodes: usize) {
        let count = plan.steps.len();
        self.sets.resize_with(count, || NodeSet::empty(nodes));
        self.sets.truncate(count);
        for set in &mut self.sets {
            if set.capacity() != nodes {
                *set = NodeSet::empty(nodes);
            }
        }
        self.ready.clear();
        self.ready.resize(count, false);
    }

    /// The inner execution scratch, for mixing batch execution with direct
    /// [`CompiledQuery`] calls on the same worker.
    pub fn exec_scratch(&mut self) -> &mut ExecScratch {
        &mut self.exec
    }

    /// Shared-step evaluations performed (first touch per document).
    pub fn step_evals(&self) -> u64 {
        self.step_evals
    }

    /// Shared-step evaluations *saved*: a seed request hit a step already
    /// evaluated for the current document. (Recursive parent touches are
    /// not counted — only what a query asked for directly.)
    pub fn step_hits(&self) -> u64 {
        self.step_hits
    }

    /// Queries answered empty straight from an empty step set, without
    /// running the evaluator.
    pub fn empty_short_circuits(&self) -> u64 {
        self.empty_short_circuits
    }

    /// Clears the accumulated counters (the per-document state is unaffected).
    pub fn reset_counters(&mut self) {
        self.step_evals = 0;
        self.step_hits = 0;
        self.empty_short_circuits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqt_query::parse_query;
    use cqt_trees::generate::{random_tree, RandomTreeConfig};
    use cqt_trees::parse::parse_term;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn compile(texts: &[&str]) -> Vec<CompiledQuery> {
        texts
            .iter()
            .map(|t| CompiledQuery::compile(parse_query(t).unwrap()))
            .collect()
    }

    fn batched_equals_direct(queries: &[CompiledQuery], prepared: &PreparedTree) {
        let refs: Vec<&CompiledQuery> = queries.iter().collect();
        let plan = BatchPlan::new(&refs);
        let mut batch = BatchScratch::new();
        let mut exec = ExecScratch::new();
        batch.begin_document(&plan, prepared.tree().len());
        for (i, query) in queries.iter().enumerate() {
            let expected = query.execute(prepared, &mut exec);
            let got = plan.execute(i, query, prepared, &mut batch);
            assert_eq!(got, expected, "batched mismatch on {}", query.query());
        }
    }

    #[test]
    fn batched_answers_equal_direct_answers_on_fixed_corpus() {
        let prepared = PreparedTree::new(
            parse_term("R(S(NP(DT, NN), VP(VB, NP(NN), PP(IN, NP(NN)))), S(NP(NN), VP(VB)))")
                .unwrap(),
        );
        let queries = compile(&[
            "Q() :- S(x), Child(x, y), NP(y).",
            "Q(y) :- S(x), Child(x, y), NP(y).",
            "Q(z) :- S(x), Child(x, y), NP(y), Child(y, z), NN(z).",
            "Q(x, y) :- NP(x), Child(x, y).",
            "Q() :- Missing(x).",
            "Q(y) :- S(x), Child+(x, y), Child*(x, y), NN(y).",
        ]);
        batched_equals_direct(&queries, &prepared);
    }

    #[test]
    fn batched_answers_equal_direct_answers_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(909);
        let config = RandomTreeConfig {
            nodes: 40,
            ..RandomTreeConfig::default()
        };
        let queries = compile(&[
            "Q(y) :- A(x), Child(x, y), B(y).",
            "Q(z) :- A(x), Child(x, y), B(y), Child+(y, z), C(z).",
            "Q() :- A(x), Following(x, y), B(y).",
            "Q(x) :- D(x), NextSibling(x, y), D(y).",
        ]);
        for _ in 0..25 {
            let prepared = PreparedTree::new(random_tree(&mut rng, &config));
            batched_equals_direct(&queries, &prepared);
        }
    }

    #[test]
    fn identical_prefixes_are_hash_consed() {
        // Three queries share the spine A → Child → B; the third extends it.
        // Per query the spine contributes 2 steps (root A, chain B), the
        // extension 1 more: 3 distinct steps total instead of 7 resolutions.
        let queries = compile(&[
            "Q() :- A(x), Child(x, y), B(y).",
            "Q(y) :- A(x), Child(x, y), B(y).",
            "Q(z) :- A(x), Child(x, y), B(y), Child(y, z), C(z).",
        ]);
        let refs: Vec<&CompiledQuery> = queries.iter().collect();
        let plan = BatchPlan::new(&refs);
        assert_eq!(plan.shared_step_count(), 3);
        assert_eq!(plan.reused_steps(), 4);
        // Each query seeds its chain variables only.
        assert_eq!(plan.seed_count(0), 1);
        assert_eq!(plan.seed_count(1), 1);
        assert_eq!(plan.seed_count(2), 2);
    }

    #[test]
    fn shared_steps_evaluate_once_per_document() {
        let prepared = PreparedTree::new(parse_term("A(B(C), B(C, C))").unwrap());
        let queries = compile(&[
            "Q(y) :- A(x), Child(x, y), B(y).",
            "Q(z) :- A(x), Child(x, y), B(y), Child(y, z), C(z).",
        ]);
        let refs: Vec<&CompiledQuery> = queries.iter().collect();
        let plan = BatchPlan::new(&refs);
        let mut batch = BatchScratch::new();
        batch.begin_document(&plan, prepared.tree().len());
        for (i, query) in queries.iter().enumerate() {
            plan.execute(i, query, &prepared, &mut batch);
        }
        // Steps: root(A), chain(B), chain(C). The shared chain(B) evaluates
        // once and hits once (query 1 reuses query 0's work; parents of
        // already-ready steps are not re-requested).
        assert_eq!(batch.step_evals(), 3);
        assert_eq!(batch.step_hits(), 1);
        // A fresh document makes every step pending again.
        batch.begin_document(&plan, prepared.tree().len());
        for (i, query) in queries.iter().enumerate() {
            plan.execute(i, query, &prepared, &mut batch);
        }
        assert_eq!(batch.step_evals(), 6);
    }

    #[test]
    fn empty_steps_short_circuit_every_arity() {
        let prepared = PreparedTree::new(parse_term("A(B)").unwrap());
        // `Z` labels nothing: the chain step for y is empty, so all three
        // arities short-circuit without running an evaluator.
        let queries = compile(&[
            "Q() :- A(x), Child(x, y), Z(y).",
            "Q(y) :- A(x), Child(x, y), Z(y).",
            "Q(x, y) :- A(x), Child(x, y), Z(y).",
        ]);
        let refs: Vec<&CompiledQuery> = queries.iter().collect();
        let plan = BatchPlan::new(&refs);
        let mut batch = BatchScratch::new();
        batch.begin_document(&plan, prepared.tree().len());
        assert_eq!(
            plan.execute(0, &queries[0], &prepared, &mut batch),
            Answer::Boolean(false)
        );
        assert_eq!(
            plan.execute(1, &queries[1], &prepared, &mut batch),
            Answer::Nodes(Vec::new())
        );
        assert_eq!(
            plan.execute(2, &queries[2], &prepared, &mut batch),
            Answer::Tuples(Vec::new())
        );
        assert_eq!(batch.empty_short_circuits(), 3);
    }

    #[test]
    fn cyclic_queries_fall_back_soundly() {
        // x and y point at each other: the chain resolution must terminate
        // and the answers must still match direct execution.
        let prepared = PreparedTree::new(parse_term("A(B(A(B)))").unwrap());
        let queries = compile(&[
            "Q() :- A(x), Child(x, y), Child(y, x), B(y).",
            "Q() :- A(x), Child+(x, y), Child+(y, x).",
        ]);
        batched_equals_direct(&queries, &prepared);
    }
}
