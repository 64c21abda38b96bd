//! Arc consistency (Proposition 3.1).
//!
//! The paper computes the unique subset-maximal arc-consistent prevaluation
//! by encoding the complement (`Remove(x, v)` atoms) as a propositional Horn
//! program and solving it with Minoux-style unit resolution in time
//! O(‖A‖·|Q|). Two implementations are provided:
//!
//! * [`arc_consistent_prevaluation`] — a **directed-arc worklist** engine
//!   whose revision step uses the word-parallel rank-space semijoin kernels
//!   of [`crate::support`]. Each queue entry revises one direction of one
//!   atom; a shrink re-enqueues only the arcs whose *support side* is the
//!   shrunken variable. All candidate sets are converted to pre-order rank
//!   space once up front and every revision writes into the reusable scratch
//!   buffers of an [`AcScratch`], so the fixpoint loop performs **zero
//!   `NodeSet` allocations**. It never materializes the axis relations and
//!   is the engine used by the evaluators.
//! * [`arc_consistent_prevaluation_hornsat`] — a literal rendering of the
//!   proof of Proposition 3.1: the axis relations are materialized, support
//!   counters play the role of the Horn clause bodies, and removals are
//!   propagated by unit resolution (this is exactly AC-4). Linear in
//!   ‖A‖·|Q| where ‖A‖ counts the materialized relations, matching the
//!   proposition.
//!
//! Both compute the same (unique, subset-maximal) fixpoint; the test-suite
//! cross-checks them on random inputs.

use std::collections::{HashMap, VecDeque};

use cqt_query::{ConjunctiveQuery, Var};
use cqt_trees::{Axis, MaterializedRelation, NodeId, NodeSet, PreparedTree, Tree};

use crate::prevaluation::Prevaluation;
use crate::support::{pre_supported_sources, pre_supported_targets};

/// The starting prevaluation: every variable gets all nodes, intersected with
/// the label sets demanded by the query's unary atoms.
pub fn initial_prevaluation(tree: &Tree, query: &ConjunctiveQuery) -> Prevaluation {
    let mut pre = Prevaluation::full(tree, query);
    for atom in query.label_atoms() {
        let labeled = tree.nodes_with_label_name(&atom.label);
        pre.get_mut(atom.var).intersect_with(&labeled);
    }
    pre
}

/// Reusable buffers for the arc-consistency worklist.
///
/// Holds the rank-space candidate sets, the support scratch set, the queue
/// and the dependency lists. Creating one is free; the buffers grow on first
/// use and are then reused across calls, which is what makes repeated
/// propagation (MAC branching, per-candidate monadic checks) allocation-free
/// in the steady state.
#[derive(Debug, Default)]
pub struct AcScratch {
    /// Rank-space candidate set per variable. The compiled-query fast path
    /// ([`crate::compiled`]) loads these directly from a
    /// [`cqt_trees::PreparedTree`]'s cached label sets and reads the fixpoint
    /// back out, which is why they are crate-visible.
    pub(crate) sets: Vec<NodeSet>,
    /// Scratch for the freshly computed support set of one revision.
    support: NodeSet,
    /// Worklist of directed arcs, encoded as `atom_index * 2 + direction`
    /// (direction 0 revises the `from` side, 1 the `to` side).
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    /// `deps[v]` = directed arcs whose support side is variable `v`, i.e.
    /// the arcs to re-enqueue when `v` shrinks.
    deps: Vec<Vec<u32>>,
}

impl AcScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes the subset-maximal arc-consistent prevaluation contained in
/// `start`, or `None` if some variable's candidate set becomes empty
/// (in which case the query has no satisfaction within `start`).
///
/// `start` must already satisfy the unary atoms (as produced by
/// [`initial_prevaluation`], possibly further restricted — e.g. to check a
/// candidate answer tuple).
pub fn arc_consistent_from(
    tree: &Tree,
    query: &ConjunctiveQuery,
    pre: Prevaluation,
) -> Option<Prevaluation> {
    arc_consistent_from_with(tree, query, pre, &mut AcScratch::new())
}

/// [`arc_consistent_from`] with caller-provided scratch buffers; the
/// revision loop allocates nothing.
pub fn arc_consistent_from_with(
    tree: &Tree,
    query: &ConjunctiveQuery,
    mut pre: Prevaluation,
    scratch: &mut AcScratch,
) -> Option<Prevaluation> {
    if !propagate(tree, query, &pre, scratch) {
        return None;
    }
    // Convert the rank-space fixpoint back into the caller's prevaluation,
    // reusing its set allocations.
    for i in 0..query.var_count() {
        let var = Var::from_index(i);
        tree.from_pre_space_into(&scratch.sets[i], pre.get_mut(var));
    }
    Some(pre)
}

/// Borrowing variant of [`arc_consistent_from_with`]: leaves `start`
/// untouched and returns the fixpoint as a fresh prevaluation. Callers that
/// re-derive many restricted starts from one shared prevaluation (the MAC
/// search) keep a single reusable start buffer and call this per restriction
/// instead of cloning the start for every propagation.
pub fn arc_consistent_closure(
    tree: &Tree,
    query: &ConjunctiveQuery,
    start: &Prevaluation,
    scratch: &mut AcScratch,
) -> Option<Prevaluation> {
    if !propagate(tree, query, start, scratch) {
        return None;
    }
    let sets = (0..query.var_count())
        .map(|i| tree.from_pre_space(&scratch.sets[i]))
        .collect();
    Some(Prevaluation::from_sets(query, sets))
}

/// Core directed-arc worklist. Loads `start` into `scratch` (rank space) and
/// runs revisions to the fixpoint. Returns `false` iff some candidate set
/// became empty. On success the fixpoint is left in `scratch.sets`.
fn propagate(
    tree: &Tree,
    query: &ConjunctiveQuery,
    start: &Prevaluation,
    scratch: &mut AcScratch,
) -> bool {
    let n = tree.len();
    let var_count = query.var_count();

    // Load the candidate sets into rank space, reusing buffers of matching
    // capacity.
    scratch.sets.resize_with(var_count, || NodeSet::empty(n));
    for (i, set) in scratch.sets.iter_mut().enumerate() {
        if set.capacity() != n {
            *set = NodeSet::empty(n);
        }
        let domain = start.get(Var::from_index(i));
        if domain.is_empty() {
            return false;
        }
        tree.to_pre_space_into(domain, set);
    }
    propagate_loaded(tree, query, scratch, None)
}

/// The revision loop of [`propagate`], operating on candidate sets that are
/// **already loaded** into `scratch.sets` in pre-order rank space (one set
/// per query variable, each with capacity `tree.len()`). Used directly by the
/// compiled-query fast path, which loads the start sets from a prepared
/// tree's cached label sets instead of going through a raw-space
/// [`Prevaluation`]. On success the fixpoint is left in `scratch.sets`.
///
/// `changed: None` seeds the worklist with every directed arc; `Some(v)`,
/// for a fixpoint whose `v` has since shrunk, only the arcs `v` supports —
/// the decide step of [`crate::enumerate`].
pub(crate) fn propagate_loaded(
    tree: &Tree,
    query: &ConjunctiveQuery,
    scratch: &mut AcScratch,
    changed: Option<Var>,
) -> bool {
    let atoms = query.axis_atoms();
    let n = tree.len();
    let var_count = query.var_count();
    debug_assert!(scratch.sets.len() >= var_count);
    if scratch.sets[..var_count].iter().any(NodeSet::is_empty) {
        return false;
    }
    if scratch.support.capacity() != n {
        scratch.support = NodeSet::empty(n);
    }

    // Dependency lists: arc (i, 0) prunes `from` using `to` (support side
    // `to`); arc (i, 1) prunes `to` using `from`.
    scratch.deps.resize_with(var_count, Vec::new);
    for deps in scratch.deps.iter_mut() {
        deps.clear();
    }
    for (i, atom) in atoms.iter().enumerate() {
        scratch.deps[atom.to.index()].push(i as u32 * 2);
        scratch.deps[atom.from.index()].push(i as u32 * 2 + 1);
    }

    scratch.queue.clear();
    scratch.in_queue.clear();
    scratch.in_queue.resize(2 * atoms.len(), changed.is_none());
    match changed {
        None => scratch.queue.extend(0..2 * atoms.len() as u32),
        Some(var) => {
            for &dep in &scratch.deps[var.index()] {
                scratch.in_queue[dep as usize] = true;
            }
            scratch.queue.extend(&scratch.deps[var.index()]);
        }
    }

    while let Some(arc) = scratch.queue.pop_front() {
        scratch.in_queue[arc as usize] = false;
        let atom = atoms[arc as usize / 2];
        let revise_from = arc % 2 == 0;
        let (pruned_var, support_var) = if revise_from {
            (atom.from.index(), atom.to.index())
        } else {
            (atom.to.index(), atom.from.index())
        };
        // Compute the support set into the scratch buffer, then intersect in
        // place. Going through `scratch.support` sidesteps aliasing for
        // self-loop atoms (`R(x, x)`) and avoids split borrows.
        if revise_from {
            pre_supported_sources(
                tree,
                atom.axis,
                &scratch.sets[support_var],
                &mut scratch.support,
            );
        } else {
            pre_supported_targets(
                tree,
                atom.axis,
                &scratch.sets[support_var],
                &mut scratch.support,
            );
        }
        if scratch.sets[pruned_var].intersect_with_changed(&scratch.support) {
            if scratch.sets[pruned_var].is_empty() {
                return false;
            }
            // Re-enqueue every arc supported by the shrunken variable. For a
            // self-loop atom `R(x, x)` this includes the arc just processed:
            // its support set came from the pre-revision domain and must be
            // recomputed.
            for &dep in &scratch.deps[pruned_var] {
                if !scratch.in_queue[dep as usize] {
                    scratch.in_queue[dep as usize] = true;
                    scratch.queue.push_back(dep);
                }
            }
        }
    }
    true
}

/// Computes the subset-maximal arc-consistent prevaluation of `query` on
/// `tree` (Proposition 3.1), or `None` if none exists.
pub fn arc_consistent_prevaluation(tree: &Tree, query: &ConjunctiveQuery) -> Option<Prevaluation> {
    arc_consistent_from(tree, query, initial_prevaluation(tree, query))
}

/// The Horn-SAT / AC-4 rendering of Proposition 3.1.
///
/// The axis relations mentioned by the query are materialized (they are part
/// of `‖A‖` in the paper's cost model); for every binary atom and node,
/// support counters track how many partners remain, and removals are
/// propagated by unit resolution exactly as in the proof of the proposition.
/// Returns the same prevaluation as [`arc_consistent_prevaluation`].
pub fn arc_consistent_prevaluation_hornsat(
    tree: &Tree,
    query: &ConjunctiveQuery,
) -> Option<Prevaluation> {
    // Materialize each distinct axis once (and only for this call — use
    // [`arc_consistent_prevaluation_hornsat_prepared`] to reuse relations
    // across calls on the same tree).
    let mut relations: HashMap<Axis, MaterializedRelation> = HashMap::new();
    for atom in query.axis_atoms() {
        relations
            .entry(atom.axis)
            .or_insert_with(|| MaterializedRelation::from_axis(tree, atom.axis));
    }
    hornsat_fixpoint(tree, query, |axis| &relations[&axis])
}

/// [`arc_consistent_prevaluation_hornsat`] over a [`PreparedTree`]: the axis
/// relations come from the prepared tree's shared cache, so repeated queries
/// over the same document materialize each axis at most once (assert via
/// [`PreparedTree::relation_builds`]).
pub fn arc_consistent_prevaluation_hornsat_prepared(
    prepared: &PreparedTree,
    query: &ConjunctiveQuery,
) -> Option<Prevaluation> {
    hornsat_fixpoint(prepared.tree(), query, |axis| prepared.relation(axis))
}

/// The AC-4 unit-resolution fixpoint shared by the owned-relation and
/// prepared-tree entry points; `relation` resolves an axis to its
/// materialized extension.
fn hornsat_fixpoint<'a>(
    tree: &Tree,
    query: &ConjunctiveQuery,
    relation: impl Fn(Axis) -> &'a MaterializedRelation,
) -> Option<Prevaluation> {
    let n = tree.len();
    let var_count = query.var_count();
    let atoms = query.axis_atoms();

    // Membership matrix: alive[var][node].
    let mut alive: Vec<Vec<bool>> = vec![vec![true; n]; var_count];
    // Removal queue of (var index, node).
    let mut removals: VecDeque<(usize, NodeId)> = VecDeque::new();

    let remove = |alive: &mut Vec<Vec<bool>>,
                  removals: &mut VecDeque<(usize, NodeId)>,
                  var: usize,
                  node: NodeId| {
        if alive[var][node.index()] {
            alive[var][node.index()] = false;
            removals.push_back((var, node));
        }
    };

    // Unary atoms: Remove(x, v) for every v not carrying the label — the
    // first clause group in the proof.
    for atom in query.label_atoms() {
        let labeled = tree.nodes_with_label_name(&atom.label);
        for node in tree.nodes() {
            if !labeled.contains(node) {
                remove(&mut alive, &mut removals, atom.var.index(), node);
            }
        }
    }

    // Support counters per (atom, node): how many partners exist on the other
    // side. Counters are initialized over the *full* domain; the label-based
    // removals already queued above will decrement them during propagation
    // (the standard AC-4 initialization order). A node whose counter reaches
    // 0 is removed (the second and third clause groups of the Horn program).
    //
    // The degree vectors are computed once per *distinct axis* — O(n) per
    // axis — and atoms sharing an axis clone them (a memcpy), so
    // initialization is O(#axes · n + #atoms · n/word) rather than one
    // adjacency-list length lookup per (atom, node).
    // Resolve each atom's relation once; the unit-propagation loop below runs
    // per (removal, atom) and must not pay a hash lookup per iteration.
    let rel_of_atom: Vec<&MaterializedRelation> =
        atoms.iter().map(|atom| relation(atom.axis)).collect();
    let mut degrees: HashMap<Axis, (Vec<usize>, Vec<usize>)> = HashMap::new();
    for (atom, rel) in atoms.iter().zip(&rel_of_atom) {
        degrees.entry(atom.axis).or_insert_with(|| {
            let mut sc = vec![0usize; n];
            let mut pc = vec![0usize; n];
            for node in tree.nodes() {
                sc[node.index()] = rel.successors(node).len();
                pc[node.index()] = rel.predecessors(node).len();
            }
            (sc, pc)
        });
    }
    let mut succ_count: Vec<Vec<usize>> = Vec::with_capacity(atoms.len());
    let mut pred_count: Vec<Vec<usize>> = Vec::with_capacity(atoms.len());
    for atom in atoms {
        let (sc, pc) = &degrees[&atom.axis];
        succ_count.push(sc.clone());
        pred_count.push(pc.clone());
    }
    // Nodes with no support at all are removed up front.
    for (a, atom) in atoms.iter().enumerate() {
        for node in tree.nodes() {
            if succ_count[a][node.index()] == 0 {
                remove(&mut alive, &mut removals, atom.from.index(), node);
            }
            if pred_count[a][node.index()] == 0 {
                remove(&mut alive, &mut removals, atom.to.index(), node);
            }
        }
    }

    // Unit propagation of removals.
    while let Some((var, node)) = removals.pop_front() {
        for (a, atom) in atoms.iter().enumerate() {
            let rel = rel_of_atom[a];
            // `node` disappeared from the `to` side: its predecessors lose one
            // successor-support.
            if atom.to.index() == var {
                for &v in rel.predecessors(node) {
                    if succ_count[a][v.index()] > 0 {
                        succ_count[a][v.index()] -= 1;
                        if succ_count[a][v.index()] == 0 {
                            remove(&mut alive, &mut removals, atom.from.index(), v);
                        }
                    }
                }
            }
            // `node` disappeared from the `from` side: its successors lose one
            // predecessor-support.
            if atom.from.index() == var {
                for &w in rel.successors(node) {
                    if pred_count[a][w.index()] > 0 {
                        pred_count[a][w.index()] -= 1;
                        if pred_count[a][w.index()] == 0 {
                            remove(&mut alive, &mut removals, atom.to.index(), w);
                        }
                    }
                }
            }
        }
    }

    // Assemble the prevaluation; empty set for any variable means failure.
    let mut sets = Vec::with_capacity(var_count);
    for var_alive in &alive {
        let set = NodeSet::from_nodes(
            n,
            var_alive
                .iter()
                .enumerate()
                .filter(|(_, &a)| a)
                .map(|(i, _)| NodeId::from_index(i)),
        );
        if set.is_empty() {
            return None;
        }
        sets.push(set);
    }
    Some(Prevaluation::from_sets(query, sets))
}

/// Checks whether `pre` is arc-consistent for `query` on `tree` according to
/// the definition in Section 3 (used by tests and debug assertions).
pub fn is_arc_consistent(tree: &Tree, query: &ConjunctiveQuery, pre: &Prevaluation) -> bool {
    for atom in query.label_atoms() {
        for v in pre.get(atom.var).iter() {
            if !tree.has_label_name(v, &atom.label) {
                return false;
            }
        }
    }
    for atom in query.axis_atoms() {
        let from_set = pre.get(atom.from);
        let to_set = pre.get(atom.to);
        for v in from_set.iter() {
            if !to_set.iter().any(|w| atom.axis.holds(tree, v, w)) {
                return false;
            }
        }
        for w in to_set.iter() {
            if !from_set.iter().any(|v| atom.axis.holds(tree, v, w)) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqt_query::generate::{random_query, RandomQueryConfig};
    use cqt_query::parse_query;
    use cqt_trees::generate::{random_tree, RandomTreeConfig};
    use cqt_trees::parse::parse_term;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn simple_query_prunes_to_the_witness() {
        let tree = parse_term("A(B(D), C)").unwrap();
        let query = parse_query("Q() :- A(x), Child(x, y), B(y).").unwrap();
        let pre = arc_consistent_prevaluation(&tree, &query).expect("satisfiable");
        let x = query.find_var("x").unwrap();
        let y = query.find_var("y").unwrap();
        assert_eq!(pre.get(x).len(), 1);
        assert!(pre.get(x).contains(tree.root()));
        assert_eq!(pre.get(y).len(), 1);
        assert!(is_arc_consistent(&tree, &query, &pre));
    }

    #[test]
    fn unsatisfiable_label_yields_none() {
        let tree = parse_term("A(B, C)").unwrap();
        let query = parse_query("Q() :- Z(x).").unwrap();
        assert!(arc_consistent_prevaluation(&tree, &query).is_none());
        assert!(arc_consistent_prevaluation_hornsat(&tree, &query).is_none());
    }

    #[test]
    fn unsatisfiable_structure_yields_none() {
        // B is a child of A, but the query wants A below B.
        let tree = parse_term("A(B)").unwrap();
        let query = parse_query("Q() :- B(x), Child(x, y), A(y).").unwrap();
        assert!(arc_consistent_prevaluation(&tree, &query).is_none());
        assert!(arc_consistent_prevaluation_hornsat(&tree, &query).is_none());
    }

    #[test]
    fn propagation_chains_through_multiple_atoms() {
        // D below C below B below A as a chain; query asks for the full chain.
        let tree = parse_term("A(B(C(D)), B(C))").unwrap();
        let query =
            parse_query("Q() :- A(w), Child(w, x), B(x), Child(x, y), C(y), Child(y, z), D(z).")
                .unwrap();
        let pre = arc_consistent_prevaluation(&tree, &query).expect("satisfiable");
        // Only the first B/C branch supports the full chain.
        let y = query.find_var("y").unwrap();
        let z = query.find_var("z").unwrap();
        assert_eq!(pre.get(y).len(), 1);
        assert_eq!(pre.get(z).len(), 1);
        assert!(is_arc_consistent(&tree, &query, &pre));
    }

    #[test]
    fn self_loop_atoms_are_handled() {
        let tree = parse_term("A(B)").unwrap();
        // Child*(x, x) is satisfied by every node.
        let query = parse_query("Q() :- Child*(x, x).").unwrap();
        let pre = arc_consistent_prevaluation(&tree, &query).expect("satisfiable");
        let x = query.find_var("x").unwrap();
        assert_eq!(pre.get(x).len(), 2);
        // Child(x, x) holds for no node.
        let query = parse_query("Q() :- Child(x, x).").unwrap();
        assert!(arc_consistent_prevaluation(&tree, &query).is_none());
    }

    #[test]
    fn query_with_no_axis_atoms() {
        let tree = parse_term("A(B, C)").unwrap();
        let query = parse_query("Q() :- B(x), C(y).").unwrap();
        let pre = arc_consistent_prevaluation(&tree, &query).expect("satisfiable");
        assert_eq!(pre.total_candidates(), 2);
    }

    #[test]
    fn worklist_and_hornsat_agree_on_fixed_examples() {
        let tree = parse_term("A(B(D, E), C(D, B(E)))").unwrap();
        for text in [
            "Q() :- A(x), Child+(x, y), E(y).",
            "Q() :- B(x), Following(x, y), B(y).",
            "Q() :- D(x), NextSibling(x, y), E(y).",
            "Q() :- A(x), Child(x, y), Child(y, z).",
            "Q() :- Child*(x, y), NextSibling+(y, z), E(z).",
        ] {
            let query = parse_query(text).unwrap();
            let a = arc_consistent_prevaluation(&tree, &query);
            let b = arc_consistent_prevaluation_hornsat(&tree, &query);
            assert_eq!(a, b, "engines disagree on {text}");
            if let Some(pre) = a {
                assert!(
                    is_arc_consistent(&tree, &query, &pre),
                    "not arc consistent: {text}"
                );
            }
        }
    }

    #[test]
    fn prepared_hornsat_agrees_and_reuses_cached_relations() {
        let prepared = PreparedTree::new(parse_term("A(B(D, E), C(D, B(E)))").unwrap());
        let queries = [
            "Q() :- A(x), Child+(x, y), E(y).",
            "Q() :- B(x), Following(x, y), B(y).",
            "Q() :- A(x), Child+(x, y), Following(y, z), E(z).",
        ];
        for text in queries {
            let query = parse_query(text).unwrap();
            let plain = arc_consistent_prevaluation_hornsat(prepared.tree(), &query);
            let cached = arc_consistent_prevaluation_hornsat_prepared(&prepared, &query);
            assert_eq!(plain, cached, "prepared engine disagrees on {text}");
        }
        // The three queries mention two distinct axes; repeating the whole
        // batch must not materialize anything new.
        let builds = prepared.relation_builds();
        assert_eq!(builds, 2);
        for text in queries {
            let query = parse_query(text).unwrap();
            arc_consistent_prevaluation_hornsat_prepared(&prepared, &query);
        }
        assert_eq!(prepared.relation_builds(), builds);
    }

    #[test]
    fn worklist_and_hornsat_agree_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(31);
        let tree_config = RandomTreeConfig {
            nodes: 25,
            ..RandomTreeConfig::default()
        };
        let query_config = RandomQueryConfig {
            vars: 4,
            extra_atoms: 2,
            axes: vec![
                Axis::Child,
                Axis::ChildPlus,
                Axis::ChildStar,
                Axis::NextSibling,
                Axis::NextSiblingPlus,
                Axis::Following,
            ],
            ..RandomQueryConfig::default()
        };
        for _ in 0..40 {
            let tree = random_tree(&mut rng, &tree_config);
            let query = random_query(&mut rng, &query_config);
            let a = arc_consistent_prevaluation(&tree, &query);
            let b = arc_consistent_prevaluation_hornsat(&tree, &query);
            assert_eq!(a, b, "engines disagree on {query}");
            if let Some(pre) = a {
                assert!(is_arc_consistent(&tree, &query, &pre));
            }
        }
    }

    #[test]
    fn arc_consistency_never_removes_solution_nodes() {
        // Every satisfaction of the query must survive pruning (the computed
        // prevaluation contains all arc-consistent ones, Proposition 3.1).
        let tree = parse_term("A(B(D, E), C(D))").unwrap();
        let query = parse_query("Q() :- A(x), Child(x, y), Child(y, z), D(z).").unwrap();
        let pre = arc_consistent_prevaluation(&tree, &query).expect("satisfiable");
        // Enumerate all satisfactions by brute force and check containment.
        let vars: Vec<_> = query.all_vars().collect();
        let nodes: Vec<_> = tree.nodes().collect();
        let mut found = 0;
        for &a in &nodes {
            for &b in &nodes {
                for &c in &nodes {
                    let val = crate::prevaluation::Valuation::new(vec![a, b, c]);
                    if val.is_satisfaction(&tree, &query) {
                        found += 1;
                        for (&var, &node) in vars.iter().zip(&[a, b, c]) {
                            assert!(pre.get(var).contains(node));
                        }
                    }
                }
            }
        }
        assert!(
            found >= 2,
            "expected at least two satisfactions, found {found}"
        );
    }

    #[test]
    fn restricted_start_supports_tuple_checking() {
        let tree = parse_term("A(B, B)").unwrap();
        let query = parse_query("Q(y) :- A(x), Child(x, y), B(y).").unwrap();
        let y = query.find_var("y").unwrap();
        let first_b = tree.children(tree.root())[0];
        let second_b = tree.children(tree.root())[1];
        for candidate in [first_b, second_b] {
            let mut start = initial_prevaluation(&tree, &query);
            start.set(y, NodeSet::from_nodes(tree.len(), [candidate]));
            let result = arc_consistent_from(&tree, &query, start);
            assert!(
                result.is_some(),
                "candidate {candidate} should be an answer"
            );
        }
        // Restricting y to the root (label A) fails on the unary atom.
        let mut start = initial_prevaluation(&tree, &query);
        start.set(y, NodeSet::from_nodes(tree.len(), [tree.root()]));
        // The intersection with the label set is done by initial_prevaluation,
        // so emulate a caller that intersects:
        start
            .get_mut(y)
            .intersect_with(&tree.nodes_with_label_name("B"));
        assert!(arc_consistent_from(&tree, &query, start).is_none());
    }
}
