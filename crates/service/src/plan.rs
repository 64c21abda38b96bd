//! Compiled plans and the signature-keyed plan cache.
//!
//! A [`Plan`] is the executable form of a [`QuerySpec`]: one
//! [`CompiledQuery`] for a conjunctive query, a union of them for an XPath
//! query (one per acyclic disjunct) or for an NP-hard query that the
//! optional CQ→APQ rewrite (Theorem 6.10) turned into an acyclic positive
//! query. The [`PlanCache`] memoizes plans under a [`PlanKey`] — the query's
//! axis signature plus a structural hash — so serving the same query text
//! twice performs exactly one [`SignatureAnalysis`] pass (asserted by the
//! [`PlanCacheStats::analyses`] counter).
//!
//! [`SignatureAnalysis`]: cqt_core::SignatureAnalysis

use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use cqt_core::{
    drop_implied_atoms, Answer, AnswerSink, CompiledQuery, EvalStrategy, ExecScratch,
    SelectedStrategy,
};
use cqt_query::ConjunctiveQuery;
use cqt_rewrite::rewrite::{rewrite_to_apq_with, RewriteOptions};
use cqt_trees::{Axis, DocSummary, NodeId, NodeSet, PreparedTree};
use cqt_xpath::CompiledXPath;
use rustc_hash::{FxHashMap, FxHasher};

use crate::workload::QuerySpec;

/// Options for the compile phase of the serving layer.
#[derive(Clone, Debug)]
pub struct PlanOptions {
    /// The engine strategy compiled plans use (default: automatic).
    pub strategy: EvalStrategy,
    /// Rewrite NP-hard cyclic queries into acyclic positive queries
    /// (Theorem 6.10) at plan time, so execution runs backtrack-free
    /// Yannakakis passes instead of MAC search. Applies only to plans that
    /// still select MAC after plan-time minimization. Off by default: the rewrite
    /// can be exponential (Theorem 7.1); plans fall back to MAC when the
    /// disjunct cap is hit.
    pub rewrite_nphard: bool,
    /// Disjunct cap for the NP-hard rewrite.
    pub rewrite_max_disjuncts: usize,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            strategy: EvalStrategy::Auto,
            rewrite_nphard: false,
            rewrite_max_disjuncts: 4_096,
        }
    }
}

/// Cache key: the query's axis signature (one bit per axis) plus a
/// structural hash over its head, atoms and labels. Two queries that differ
/// in any atom hash differently; the same text always hashes identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// One bit per [`cqt_trees::Axis`] occurring in the query.
    pub signature: u64,
    /// Structural hash of head, label atoms and axis atoms.
    pub structure: u64,
    /// Structure hash of the document epoch the key is bound to, or 0 for
    /// an unbound (corpus-wide) key. Kept as its own field — rather than
    /// folded into `structure` — so [`PlanCache::evict_document`] can drop
    /// every entry of a superseded epoch.
    pub document: u64,
}

impl PlanKey {
    /// The key of a conjunctive query.
    pub fn of_query(query: &ConjunctiveQuery) -> Self {
        let mut signature = 0u64;
        for axis in query.signature().iter() {
            signature |= 1u64 << axis.index();
        }
        let mut hasher = FxHasher::default();
        hasher.write_usize(query.var_count());
        hasher.write_u8(b'H');
        for &var in query.head() {
            hasher.write_usize(var.index());
        }
        hasher.write_u8(b'L');
        for atom in query.label_atoms() {
            hasher.write_usize(atom.var.index());
            hasher.write(atom.label.as_bytes());
            hasher.write_u8(0);
        }
        hasher.write_u8(b'A');
        for atom in query.axis_atoms() {
            hasher.write_usize(atom.axis.index());
            hasher.write_usize(atom.from.index());
            hasher.write_usize(atom.to.index());
        }
        PlanKey {
            signature,
            structure: hasher.finish(),
            document: 0,
        }
    }

    /// The key of a workload query spec.
    pub fn of_spec(spec: &QuerySpec) -> Self {
        match spec {
            QuerySpec::Cq(query) => Self::of_query(query),
            QuerySpec::XPath(query) => {
                // Hash the XPath surface form; distinct paths compiling to
                // the same CQ shape are rare and a duplicate plan is harmless.
                let mut hasher = FxHasher::default();
                hasher.write(query.to_string().as_bytes());
                PlanKey {
                    signature: u64::MAX,
                    structure: hasher.finish(),
                    document: 0,
                }
            }
        }
    }

    /// Binds the key to a document epoch via its structure hash
    /// ([`cqt_trees::PreparedTree::structure_hash`]). Every serving path
    /// that executes against a document snapshot
    /// ([`crate::runner::ServiceRunner::run_corpus`],
    /// [`crate::runner::ServiceRunner::run_corpus_mutating`], the TCP
    /// front end) keys every per-document lookup this way, so a commit — which by construction changes
    /// the structure hash — forces re-preparation: a plan entry created for
    /// the previous epoch can never be returned for the new one. (Plans are
    /// currently document-independent, so the binding costs one redundant
    /// compile per epoch; what it buys is the invalidation discipline — no
    /// future document-dependent planning decision can ever leak across a
    /// commit.) The writer evicts superseded epochs' entries via
    /// [`PlanCache::evict_document`], so the cache stays bounded by the
    /// number of *live* epochs, not the number of commits ever made.
    pub fn with_document(mut self, structure_hash: u64) -> Self {
        self.document = structure_hash;
        self
    }

    /// Folds the compile options into the key. A [`PlanCache`] shared across
    /// runners with different [`PlanOptions`] must not serve one runner a
    /// plan compiled under another's strategy or rewrite settings.
    pub fn with_options(mut self, options: &PlanOptions) -> Self {
        let mut hasher = FxHasher::default();
        hasher.write_u64(self.structure);
        hasher.write_u8(match options.strategy {
            EvalStrategy::Auto => 0,
            EvalStrategy::XProperty => 1,
            EvalStrategy::Mac => 2,
            EvalStrategy::Yannakakis => 3,
            EvalStrategy::Naive => 4,
        });
        hasher.write_u8(u8::from(options.rewrite_nphard));
        if options.rewrite_nphard {
            hasher.write_usize(options.rewrite_max_disjuncts);
        }
        self.structure = hasher.finish();
        self
    }
}

/// An executable plan: one compiled conjunctive query, or a union of
/// compiled disjuncts (XPath unions, rewritten NP-hard queries).
#[derive(Clone, Debug)]
pub struct Plan {
    disjuncts: Vec<CompiledQuery>,
    head_arity: usize,
    /// Labels that must occur on some node of a document for the plan to
    /// have any answer there (sorted). See [`Plan::required_labels`].
    required_labels: Vec<String>,
    /// Non-reflexive axes that must hold between some pair of nodes for the
    /// plan to have any answer. See [`Plan::required_axes`].
    required_axes: Vec<Axis>,
}

impl Plan {
    /// Assembles a plan from compiled disjuncts, deriving the pruning
    /// requirements from their atom lists.
    fn assemble(disjuncts: Vec<CompiledQuery>, head_arity: usize) -> Plan {
        let (required_labels, required_axes) = Plan::requirements(&disjuncts);
        Plan {
            disjuncts,
            head_arity,
            required_labels,
            required_axes,
        }
    }

    /// The labels and non-reflexive axes required by **every** disjunct. The
    /// plan's answer is the union of disjunct answers, so a label (or axis)
    /// is required overall only when each disjunct requires it; a label atom
    /// `L(x)` empties the disjunct on any document without an `L` node, and
    /// an axis atom over an empty axis relation does the same.
    fn requirements(disjuncts: &[CompiledQuery]) -> (Vec<String>, Vec<Axis>) {
        let mut label_req: Option<std::collections::BTreeSet<&str>> = None;
        let mut axis_req = u64::MAX;
        for disjunct in disjuncts {
            let query = disjunct.query();
            let labels: std::collections::BTreeSet<&str> = query
                .label_atoms()
                .iter()
                .map(|atom| atom.label.as_str())
                .collect();
            label_req = Some(match label_req {
                None => labels,
                Some(prev) => prev.intersection(&labels).copied().collect(),
            });
            let mut axes = 0u64;
            for atom in query.axis_atoms() {
                // Reflexive axes hold on every node loop — never prunable.
                if !atom.axis.is_reflexive() {
                    axes |= 1 << atom.axis.index();
                }
            }
            axis_req &= axes;
        }
        // No disjuncts (a rewrite proved the query unsatisfiable): the
        // requirements are irrelevant — `is_always_empty` prunes everything.
        let label_req = label_req.unwrap_or_default();
        let axis_req = if disjuncts.is_empty() { 0 } else { axis_req };
        (
            label_req.into_iter().map(str::to_owned).collect(),
            Axis::ALL
                .iter()
                .copied()
                .filter(|axis| axis_req & (1 << axis.index()) != 0)
                .collect(),
        )
    }
    /// Compiles `spec` under `options`. This is the entire one-time phase:
    /// minimization, signature analysis, strategy selection and any rewrite
    /// happen here and never at execution time.
    ///
    /// Under [`EvalStrategy::Auto`] a conjunctive query first loses the
    /// axis atoms a two-atom path implies ([`drop_implied_atoms`]), so
    /// analysis and strategy selection see the smaller, equivalent query: a
    /// redundant cycle compiles to an acyclic Yannakakis plan. A forced
    /// strategy compiles the query as written. The NP-hard rewrite runs
    /// only when the minimized plan still needs MAC search.
    pub fn compile(spec: &QuerySpec, options: &PlanOptions) -> (Plan, u64) {
        match spec {
            QuerySpec::Cq(written) => {
                let head_arity = written.head_arity();
                let query = match options.strategy {
                    EvalStrategy::Auto => drop_implied_atoms(written),
                    _ => written.clone(),
                };
                let plan = CompiledQuery::compile_with(query, options.strategy);
                let mut analyses = 1;
                if options.rewrite_nphard
                    && plan.strategy() == SelectedStrategy::Mac
                    && !plan.classification().is_polynomial()
                {
                    let rewrite_options = RewriteOptions {
                        max_disjuncts: options.rewrite_max_disjuncts,
                        ..RewriteOptions::default()
                    };
                    if let Ok((apq, _)) = rewrite_to_apq_with(plan.query(), &rewrite_options) {
                        if apq.is_acyclic() {
                            let disjuncts: Vec<CompiledQuery> = apq
                                .disjuncts()
                                .iter()
                                .map(|d| CompiledQuery::compile(d.clone()))
                                .collect();
                            analyses += disjuncts.len() as u64;
                            return (Plan::assemble(disjuncts, head_arity), analyses);
                        }
                    }
                }
                (Plan::assemble(vec![plan], head_arity), analyses)
            }
            QuerySpec::XPath(query) => {
                // One pipeline for XPath: reuse the front-end's own
                // prepare/execute compiler rather than re-deriving it here.
                let compiled = CompiledXPath::compile(query.clone());
                let disjuncts = compiled.plans().to_vec();
                let analyses = disjuncts.len() as u64;
                (Plan::assemble(disjuncts, 1), analyses)
            }
        }
    }

    /// The compiled disjuncts (one for a plain conjunctive query).
    pub fn disjuncts(&self) -> &[CompiledQuery] {
        &self.disjuncts
    }

    /// Arity of the answer.
    pub fn head_arity(&self) -> usize {
        self.head_arity
    }

    /// Labels required by every disjunct: a document without one of them
    /// cannot contribute any answer. Sorted, deduplicated; empty when no
    /// label is common to all disjuncts (pruning on labels is then
    /// impossible).
    pub fn required_labels(&self) -> &[String] {
        &self.required_labels
    }

    /// Non-reflexive axes required by every disjunct: a document on which
    /// one of them is an empty relation cannot contribute any answer.
    pub fn required_axes(&self) -> &[Axis] {
        &self.required_axes
    }

    /// Whether the plan has no disjuncts at all (a rewrite proved the query
    /// unsatisfiable) — the answer is empty on every document.
    pub fn is_always_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Whether `summary` rules the document **out**: the plan provably has
    /// an empty answer there, because a required label is absent or a
    /// required axis relation is empty. `false` means the document must be
    /// executed — it says nothing about whether an answer exists.
    pub fn prunes(&self, summary: &DocSummary) -> bool {
        self.is_always_empty()
            || self
                .required_labels
                .iter()
                .any(|label| !summary.has_label(label))
            || self
                .required_axes
                .iter()
                .any(|&axis| !summary.can_satisfy(axis))
    }

    /// The empty answer in this plan's shape — what [`Plan::execute`] returns
    /// on a document with no matches, and what an answer sink that received
    /// nothing holds: the pruned fan-out path folds it for documents it
    /// never executes.
    pub fn empty_answer(&self) -> Answer {
        AnswerSink::collect(self.head_arity)
            .into_answer()
            .expect("a collecting sink")
    }

    /// Executes the plan against a prepared tree: the disjuncts' answers,
    /// unioned in the shape matching the head arity. A single disjunct's
    /// answer is already sorted and duplicate-free, and is returned as is.
    pub fn execute(&self, prepared: &PreparedTree, scratch: &mut ExecScratch) -> Answer {
        if let [disjunct] = self.disjuncts.as_slice() {
            return disjunct.execute(prepared, scratch);
        }
        match self.head_arity {
            0 => Answer::Boolean(
                self.disjuncts
                    .iter()
                    .any(|plan| plan.execute_boolean(prepared, scratch)),
            ),
            1 => {
                let mut nodes = NodeSet::empty(prepared.tree().len());
                for plan in &self.disjuncts {
                    nodes.union_with(&plan.execute_monadic(prepared, scratch));
                }
                Answer::Nodes(nodes.iter().collect())
            }
            _ => {
                let mut tuples: std::collections::BTreeSet<Vec<NodeId>> = Default::default();
                for plan in &self.disjuncts {
                    if let Answer::Tuples(more) = plan.execute(prepared, scratch) {
                        tuples.extend(more);
                    }
                }
                Answer::Tuples(tuples.into_iter().collect())
            }
        }
    }

    /// Executes the plan against a prepared tree, delivering the answer of
    /// [`Plan::execute`] to `sink`: a single disjunct streams its tuples
    /// into the sink as they are found; several disjuncts are unioned first.
    pub fn execute_into(
        &self,
        prepared: &PreparedTree,
        scratch: &mut ExecScratch,
        sink: &mut AnswerSink,
    ) {
        match self.disjuncts.as_slice() {
            [disjunct] => disjunct.execute_into(prepared, scratch, sink),
            _ => sink.push_answer(self.execute(prepared, scratch)),
        }
    }
}

/// Counters of a [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that compiled a new plan.
    pub misses: u64,
    /// Total signature-analysis passes performed (one per compiled
    /// conjunctive query, including rewrite/XPath disjuncts). Serving the
    /// same query twice must not increase this.
    pub analyses: u64,
    /// Hits served to a *different document* than the one that compiled the
    /// entry (only counted on tagged lookups, see
    /// [`PlanCache::get_or_compile_tagged`]). Document-bound keys embed the
    /// document's structure hash, so a cross-document hit can only happen
    /// between documents with **equal structure hashes** — this counter is
    /// the proof that structurally identical documents share plans.
    pub cross_document_hits: u64,
}

/// One cache slot: the spec it was created for (checked on every lookup, so
/// a 64-bit [`PlanKey`] hash collision can never serve the wrong plan) plus
/// the once-compiled plan.
#[derive(Debug)]
struct CacheCell {
    spec: QuerySpec,
    plan: OnceLock<Arc<Plan>>,
    /// Tag of the document whose lookup compiled the plan (0 = untagged).
    /// Later tagged hits with a different tag are cross-document hits.
    owner: AtomicU64,
}

/// A thread-safe memo of compiled plans, keyed by [`PlanKey`] (options
/// folded in via [`PlanKey::with_options`]).
///
/// Shared by every worker of a [`crate::runner::ServiceRunner`] behind an
/// `Arc`. The map only hands out per-key once-cells under its lock;
/// compilation itself runs *outside* the map lock inside the key's cell, so
/// each plan is compiled (and its signature analysed) exactly once no matter
/// how many workers race for it, and a slow compile blocks only requests for
/// that same key — hits on other keys proceed concurrently. Each cell
/// remembers the spec it was compiled from; a lookup whose spec differs
/// (a key collision) compiles uncached instead of serving the wrong plan.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: RwLock<FxHashMap<PlanKey, Arc<CacheCell>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    analyses: AtomicU64,
    cross_document_hits: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the plan of `spec` under `options`, compiling (and memoizing)
    /// it on first use.
    pub fn get_or_compile(&self, spec: &QuerySpec, options: &PlanOptions) -> Arc<Plan> {
        self.get_or_compile_keyed(PlanKey::of_spec(spec).with_options(options), spec, options)
    }

    /// [`PlanCache::get_or_compile`] with a caller-precomputed key — the
    /// serving hot loop hashes each workload query once, not per request.
    ///
    /// `key` must be `PlanKey::of_spec(spec).with_options(options)`; passing
    /// a mismatched key costs a redundant compile but never a wrong answer
    /// (the cell's stored spec is compared on every lookup).
    pub fn get_or_compile_keyed(
        &self,
        key: PlanKey,
        spec: &QuerySpec,
        options: &PlanOptions,
    ) -> Arc<Plan> {
        self.get_or_compile_tagged(key, spec, options, 0)
    }

    /// [`PlanCache::get_or_compile_keyed`] with a caller-supplied **document
    /// tag** (0 = untagged) for cross-document accounting: the tag of the
    /// lookup that compiles a plan is remembered, and a later tagged hit with
    /// a *different* tag increments
    /// [`PlanCacheStats::cross_document_hits`].
    ///
    /// The sharded corpus layer ([`crate::shard::Corpus`]) tags every lookup
    /// with the owning document's identity. Since corpus lookups bind keys to
    /// the document's structure hash ([`PlanKey::with_document`]), a
    /// cross-document hit proves two *distinct* documents with *equal*
    /// structure hashes shared one compiled plan. (Plans are currently
    /// derived from the query alone, so the sharing is trivially sound
    /// today; the counter exists so that if planning ever becomes
    /// data-dependent, the sharing stays observable — and the structure
    /// hash, covering the whole labeled shape, would still be a sound share
    /// key. See [`PlanKey::with_document`] for why keys are document-bound
    /// at all.)
    pub fn get_or_compile_tagged(
        &self,
        key: PlanKey,
        spec: &QuerySpec,
        options: &PlanOptions,
        tag: u64,
    ) -> Arc<Plan> {
        let cell = {
            let plans = self.plans.read().expect("plan cache poisoned");
            plans.get(&key).cloned()
        };
        let cell = cell.unwrap_or_else(|| {
            let mut plans = self.plans.write().expect("plan cache poisoned");
            Arc::clone(plans.entry(key).or_insert_with(|| {
                Arc::new(CacheCell {
                    spec: spec.clone(),
                    plan: OnceLock::new(),
                    owner: AtomicU64::new(0),
                })
            }))
        });
        if cell.spec != *spec {
            // 64-bit key collision: serve a correct, uncached plan.
            let (plan, analyses) = Plan::compile(spec, options);
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.analyses.fetch_add(analyses, Ordering::Relaxed);
            return Arc::new(plan);
        }
        // Compile outside the map lock: only racers for this key block here.
        let mut compiled_now = false;
        let plan = Arc::clone(cell.plan.get_or_init(|| {
            let (plan, analyses) = Plan::compile(spec, options);
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.analyses.fetch_add(analyses, Ordering::Relaxed);
            cell.owner.store(tag, Ordering::Relaxed);
            compiled_now = true;
            Arc::new(plan)
        }));
        if !compiled_now {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if tag != 0 {
                let owner = cell.owner.load(Ordering::Relaxed);
                if owner != 0 && owner != tag {
                    self.cross_document_hits.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        plan
    }

    /// Drops every entry bound (via [`PlanKey::with_document`]) to the
    /// given document epoch, returning how many were removed. Called by the
    /// mutating runner's writer after a commit supersedes an epoch, so the
    /// cache does not grow with the number of commits ever made. Readers
    /// still holding the old epoch's snapshot simply recompile on their next
    /// lookup — a correctness-neutral cost, since lookups never return
    /// entries for a different key.
    pub fn evict_document(&self, document: u64) -> usize {
        if document == 0 {
            // 0 marks *unbound* keys; never sweep those.
            return 0;
        }
        let mut plans = self.plans.write().expect("plan cache poisoned");
        let before = plans.len();
        plans.retain(|key, _| key.document != document);
        before - plans.len()
    }

    /// Number of distinct plans currently cached (including any whose first
    /// compile is still in flight).
    pub fn len(&self) -> usize {
        self.plans.read().expect("plan cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hit/miss/analysis counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            analyses: self.analyses.load(Ordering::Relaxed),
            cross_document_hits: self.cross_document_hits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqt_core::Engine;
    use cqt_query::cq::figure1_query;
    use cqt_query::parse_query;
    use cqt_trees::parse::parse_term;

    #[test]
    fn same_query_text_twice_analyses_once() {
        let cache = PlanCache::new();
        let options = PlanOptions::default();
        let first = cache.get_or_compile(
            &QuerySpec::parse_cq("Q(x) :- A(x), Child(x, y), B(y).").unwrap(),
            &options,
        );
        let second = cache.get_or_compile(
            &QuerySpec::parse_cq("Q(x) :- A(x), Child(x, y), B(y).").unwrap(),
            &options,
        );
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.analyses, 1, "one SignatureAnalysis for one text");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_signatures_get_distinct_keys_and_plans() {
        let cache = PlanCache::new();
        let options = PlanOptions::default();
        let tractable = QuerySpec::parse_cq("Q() :- A(x), Child+(x, y), Child*(x, y).").unwrap();
        let hard = QuerySpec::from_cq(figure1_query());
        let acyclic = QuerySpec::parse_cq("Q() :- A(x), Child(x, y), B(y).").unwrap();
        assert_ne!(PlanKey::of_spec(&tractable), PlanKey::of_spec(&hard));
        assert_ne!(PlanKey::of_spec(&tractable), PlanKey::of_spec(&acyclic));
        let t = cache.get_or_compile(&tractable, &options);
        let h = cache.get_or_compile(&hard, &options);
        let a = cache.get_or_compile(&acyclic, &options);
        assert_eq!(t.disjuncts()[0].strategy(), SelectedStrategy::XProperty);
        assert_eq!(h.disjuncts()[0].strategy(), SelectedStrategy::Mac);
        assert_eq!(a.disjuncts()[0].strategy(), SelectedStrategy::Yannakakis);
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.analyses, 3);
        assert_eq!(cache.len(), 3);
        // Re-fetching each is a pure hit.
        cache.get_or_compile(&tractable, &options);
        cache.get_or_compile(&hard, &options);
        assert_eq!(cache.stats().analyses, 3);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn plan_options_are_part_of_the_cache_key() {
        let cache = PlanCache::new();
        let spec = QuerySpec::from_cq(figure1_query());
        let default_options = PlanOptions::default();
        let rewrite_options = PlanOptions {
            rewrite_nphard: true,
            ..PlanOptions::default()
        };
        let mac_plan = cache.get_or_compile(&spec, &default_options);
        let rewritten = cache.get_or_compile(&spec, &rewrite_options);
        assert_eq!(mac_plan.disjuncts().len(), 1);
        assert!(
            rewritten.disjuncts().len() > 1,
            "the rewrite-enabled runner must not be served the MAC plan"
        );
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn structurally_different_queries_over_the_same_signature_differ() {
        let a = QuerySpec::parse_cq("Q() :- A(x), Child(x, y).").unwrap();
        let b = QuerySpec::parse_cq("Q() :- B(x), Child(x, y).").unwrap();
        let c = QuerySpec::parse_cq("Q() :- A(x), Child(y, x).").unwrap();
        let ka = PlanKey::of_spec(&a);
        let kb = PlanKey::of_spec(&b);
        let kc = PlanKey::of_spec(&c);
        assert_eq!(ka.signature, kb.signature);
        assert_ne!(ka.structure, kb.structure);
        assert_ne!(ka.structure, kc.structure);
    }

    #[test]
    fn rewritten_nphard_plan_matches_mac_answers() {
        let tree = parse_term("CORPUS(S(NP(DT, NN), VP(VB, NP(NN), PP(IN, NP(NN)))))").unwrap();
        let expected = Engine::new().eval(&tree, &figure1_query());
        let prepared = PreparedTree::new(tree);
        let options = PlanOptions {
            rewrite_nphard: true,
            ..PlanOptions::default()
        };
        let (plan, analyses) = Plan::compile(&QuerySpec::from_cq(figure1_query()), &options);
        assert!(
            plan.disjuncts().len() > 1,
            "figure 1 query should rewrite into an APQ"
        );
        assert!(analyses as usize > plan.disjuncts().len());
        let mut scratch = ExecScratch::new();
        assert_eq!(plan.execute(&prepared, &mut scratch), expected);
    }

    /// The cyclic queries of the engine-scan benchmark mix, each with the
    /// index of its axis atom that a two-atom path implies.
    const REDUNDANT_CYCLES: [(&str, usize); 4] = [
        (
            "Q(z) :- A(x), Child+(x, y), Child+(y, z), Child+(x, z), B(y), C(z).",
            2,
        ),
        (
            "Q(z) :- A(x), Following(x, y), Following(y, z), Following(x, z), B(y), C(z).",
            2,
        ),
        // Child(x, z) ∧ PrevSibling(z, y) ⇒ Child(x, y): the walk meets the
        // first Child atom first.
        (
            "Q(z) :- A(x), Child(x, y), Child(x, z), NextSibling(y, z), B(y), C(z).",
            0,
        ),
        (
            "Q() :- A(x), Child(x, y), Child+(y, z), Child+(x, z), B(y), C(z).",
            2,
        ),
    ];

    #[test]
    fn redundant_cycles_compile_to_one_acyclic_yannakakis_disjunct() {
        for (text, implied) in REDUNDANT_CYCLES {
            let written = parse_query(text).unwrap();
            let (plan, analyses) = Plan::compile(
                &QuerySpec::from_cq(written.clone()),
                &PlanOptions::default(),
            );
            assert_eq!(analyses, 1);
            assert_eq!(plan.disjuncts().len(), 1, "{text}");
            let compiled = &plan.disjuncts()[0];
            assert_eq!(compiled.strategy(), SelectedStrategy::Yannakakis, "{text}");
            let mut expected = written.axis_atoms().to_vec();
            expected.remove(implied);
            assert_eq!(compiled.query().axis_atoms(), expected, "{text}");
            assert_eq!(compiled.query().label_atoms(), written.label_atoms());
            assert_eq!(compiled.query().head(), written.head());
        }
    }

    #[test]
    fn queries_without_an_implied_atom_compile_as_written() {
        let (plan, _) = Plan::compile(
            &QuerySpec::from_cq(figure1_query()),
            &PlanOptions::default(),
        );
        assert_eq!(plan.disjuncts()[0].strategy(), SelectedStrategy::Mac);
        assert_eq!(plan.disjuncts()[0].query(), &figure1_query());
    }

    #[test]
    fn forced_strategies_keep_every_written_atom() {
        let options = PlanOptions {
            strategy: EvalStrategy::XProperty,
            ..PlanOptions::default()
        };
        for (text, _) in REDUNDANT_CYCLES {
            let spec = QuerySpec::parse_cq(text).unwrap();
            let (plan, _) = Plan::compile(&spec, &options);
            let compiled = &plan.disjuncts()[0];
            assert_eq!(compiled.strategy(), SelectedStrategy::XProperty);
            assert_eq!(QuerySpec::from_cq(compiled.query().clone()), spec);
        }
    }

    #[test]
    fn the_nphard_rewrite_is_gated_on_the_minimized_plan() {
        let options = PlanOptions {
            rewrite_nphard: true,
            ..PlanOptions::default()
        };
        // Written, the query is cyclic over {Child, Child+} (NP-hard);
        // minimized, it is acyclic and needs no rewrite.
        let (text, _) = REDUNDANT_CYCLES[3];
        let (plan, analyses) = Plan::compile(&QuerySpec::parse_cq(text).unwrap(), &options);
        assert_eq!(analyses, 1);
        assert_eq!(plan.disjuncts().len(), 1);
        assert_eq!(plan.disjuncts()[0].strategy(), SelectedStrategy::Yannakakis);
    }

    #[test]
    fn minimized_plans_answer_like_the_written_query_and_prune_alike() {
        let trees = [
            "R(A(B(C), C, B(D(C))), A(B, C), B(C))",
            "R(A(C, B, C), C, A(B(A(B, C))))",
            "A(B, C(B), B, C)",
            "A",
            "A(B(C))",
        ];
        let mut scratch = ExecScratch::new();
        for (text, _) in REDUNDANT_CYCLES {
            let written = parse_query(text).unwrap();
            let spec = QuerySpec::from_cq(written.clone());
            let (plan, _) = Plan::compile(&spec, &PlanOptions::default());
            let forced = PlanOptions {
                strategy: EvalStrategy::Mac,
                ..PlanOptions::default()
            };
            let (as_written, _) = Plan::compile(&spec, &forced);
            for tree in trees {
                let prepared = PreparedTree::new(parse_term(tree).unwrap());
                let answer = plan.execute(&prepared, &mut scratch);
                assert_eq!(answer, as_written.execute(&prepared, &mut scratch));
                assert_eq!(answer, Engine::new().eval(prepared.tree(), &written));
                assert_eq!(
                    plan.prunes(prepared.doc_summary()),
                    as_written.prunes(prepared.doc_summary()),
                    "{text} on {tree}"
                );
            }
        }
    }

    #[test]
    fn dropped_atoms_never_weaken_the_pruning_requirements() {
        // A dropped atom T(x, z) leaves R(x, w) and S(w, z) with R ∘ S ⊆ T.
        // A document summary that satisfies R and S satisfies T, so the
        // written query's axis requirements prune no document that the
        // minimized one keeps.
        let summaries: Vec<PreparedTree> = ["A", "A(B)", "A(B(C))", "A(B, C)"]
            .iter()
            .map(|tree| PreparedTree::new(parse_term(tree).unwrap()))
            .collect();
        for r in Axis::ALL {
            for s in Axis::ALL {
                for t in Axis::ALL {
                    if !r.composes_into(s, t) {
                        continue;
                    }
                    for prepared in &summaries {
                        let summary = prepared.doc_summary();
                        assert!(
                            !(summary.can_satisfy(r) && summary.can_satisfy(s))
                                || summary.can_satisfy(t),
                            "{r} ∘ {s} ⊆ {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn document_bound_keys_miss_after_every_mutation() {
        use crate::corpus::CorpusHandle;
        use cqt_trees::edit::{EditScript, TreeEdit};

        let cache = PlanCache::new();
        let options = PlanOptions::default();
        let spec = QuerySpec::parse_cq("Q(y) :- A(x), Child(x, y), B(y).").unwrap();
        let corpus = CorpusHandle::new(parse_term("R(A(B), C)").unwrap());
        let base = PlanKey::of_spec(&spec).with_options(&options);

        let epoch0 = corpus.snapshot();
        let key0 = base.with_document(epoch0.prepared.structure_hash());
        let plan0 = cache.get_or_compile_keyed(key0, &spec, &options);
        assert_eq!(cache.stats().misses, 1);

        // A structural commit changes the structure hash: the next lookup
        // MUST miss — the epoch-0 entry is unreachable under the new key, so
        // a stale plan can never serve answers for the new epoch.
        corpus
            .commit(&EditScript::single(TreeEdit::InsertSubtree {
                parent_pre: 1,
                position: 1,
                subtree: Box::new(parse_term("B").unwrap()),
            }))
            .unwrap();
        let epoch1 = corpus.snapshot();
        let key1 = base.with_document(epoch1.prepared.structure_hash());
        assert_ne!(key0, key1);
        let plan1 = cache.get_or_compile_keyed(key1, &spec, &options);
        assert!(!Arc::ptr_eq(&plan0, &plan1));
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);

        // A relabel-only commit also changes the hash (labels are part of
        // the document), so it too forces re-preparation.
        corpus
            .commit(&EditScript::single(TreeEdit::Relabel {
                node_pre: 4,
                labels: vec!["D".into()],
            }))
            .unwrap();
        let epoch2 = corpus.snapshot();
        let key2 = base.with_document(epoch2.prepared.structure_hash());
        assert_ne!(key1, key2);
        cache.get_or_compile_keyed(key2, &spec, &options);
        assert_eq!(cache.stats().misses, 3);

        // Re-reading any epoch still held by a reader hits its own entry.
        let again = cache.get_or_compile_keyed(key0, &spec, &options);
        assert!(Arc::ptr_eq(&plan0, &again));
        assert_eq!(cache.stats().hits, 1);

        // And each epoch's plan answers correctly against its own tree:
        // epoch 1 gained a second (A-child) B witness.
        let mut scratch = ExecScratch::new();
        let at0 = plan0.execute(&epoch0.prepared, &mut scratch);
        let at1 = plan1.execute(&epoch1.prepared, &mut scratch);
        assert_eq!(at0.len() + 1, at1.len());
    }

    #[test]
    fn evicting_a_document_drops_only_its_entries() {
        let cache = PlanCache::new();
        let options = PlanOptions::default();
        let spec = QuerySpec::parse_cq("Q() :- A(x), Child(x, y).").unwrap();
        let base = PlanKey::of_spec(&spec).with_options(&options);
        let unbound = cache.get_or_compile_keyed(base, &spec, &options);
        cache.get_or_compile_keyed(base.with_document(11), &spec, &options);
        let kept = cache.get_or_compile_keyed(base.with_document(22), &spec, &options);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evict_document(11), 1);
        assert_eq!(cache.len(), 2);
        // Unbound keys are never swept, even by a (pathological) 0 hash.
        assert_eq!(cache.evict_document(0), 0);
        // Survivors still hit; the evicted epoch recompiles as a fresh miss.
        assert!(Arc::ptr_eq(
            &unbound,
            &cache.get_or_compile_keyed(base, &spec, &options)
        ));
        assert!(Arc::ptr_eq(
            &kept,
            &cache.get_or_compile_keyed(base.with_document(22), &spec, &options)
        ));
        let misses_before = cache.stats().misses;
        cache.get_or_compile_keyed(base.with_document(11), &spec, &options);
        assert_eq!(cache.stats().misses, misses_before + 1);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn tagged_lookups_count_cross_document_hits() {
        let cache = PlanCache::new();
        let options = PlanOptions::default();
        let spec = QuerySpec::parse_cq("Q() :- A(x), Child(x, y).").unwrap();
        // Two documents with the same structure hash share one key.
        let key = PlanKey::of_spec(&spec)
            .with_options(&options)
            .with_document(0xfeed);
        let doc_a = 1u64;
        let doc_b = 2u64;
        let first = cache.get_or_compile_tagged(key, &spec, &options, doc_a);
        assert_eq!(cache.stats().cross_document_hits, 0);
        // Same document re-hitting its own entry is not cross-document.
        cache.get_or_compile_tagged(key, &spec, &options, doc_a);
        assert_eq!(cache.stats().cross_document_hits, 0);
        assert_eq!(cache.stats().hits, 1);
        // A different document hitting the shared entry is.
        let shared = cache.get_or_compile_tagged(key, &spec, &options, doc_b);
        assert!(Arc::ptr_eq(&first, &shared));
        assert_eq!(cache.stats().cross_document_hits, 1);
        // Untagged hits never count (no document identity to compare).
        cache.get_or_compile_tagged(key, &spec, &options, 0);
        assert_eq!(cache.stats().cross_document_hits, 1);
        assert_eq!(cache.stats().hits, 3);
        // Distinct structure hashes mean distinct keys: no sharing, and
        // therefore no cross-document hit is possible between them.
        let other = cache.get_or_compile_tagged(
            PlanKey::of_spec(&spec)
                .with_options(&options)
                .with_document(0xbeef),
            &spec,
            &options,
            doc_b,
        );
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(cache.stats().cross_document_hits, 1);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn requirements_are_the_per_disjunct_intersection() {
        let options = PlanOptions::default();
        // A single conjunctive query requires every label and every
        // non-reflexive axis it mentions; `Child*` is reflexive and must
        // not appear.
        let (plan, _) = Plan::compile(
            &QuerySpec::parse_cq("Q(y) :- A(x), Child(x, y), B(y), Child*(x, x).").unwrap(),
            &options,
        );
        assert_eq!(plan.required_labels(), ["A", "B"]);
        assert_eq!(plan.required_axes(), [cqt_trees::Axis::Child]);
        assert!(!plan.is_always_empty());
        // An XPath union only requires what *every* branch requires: here
        // the B label and a Child step (both branches) but neither branch's
        // private parts (A, C).
        let (union, _) =
            Plan::compile(&QuerySpec::parse_xpath("//A/B | //B[C]").unwrap(), &options);
        assert_eq!(union.required_labels(), ["B"]);
        assert_eq!(union.required_axes(), [cqt_trees::Axis::Child]);
    }

    #[test]
    fn prunes_matches_doc_summaries_and_empty_answer_shapes() {
        let options = PlanOptions::default();
        let (plan, _) = Plan::compile(
            &QuerySpec::parse_cq("Q(y) :- A(x), Child(x, y), B(y).").unwrap(),
            &options,
        );
        let with_both = PreparedTree::new(parse_term("A(B)").unwrap());
        let missing_b = PreparedTree::new(parse_term("A(C)").unwrap());
        // A root-only tree cannot satisfy the Child requirement (and also
        // lacks B — either reason alone suffices to prune).
        let no_child = PreparedTree::new(parse_term("A").unwrap());
        assert!(!plan.prunes(with_both.doc_summary()));
        assert!(plan.prunes(missing_b.doc_summary()));
        assert!(plan
            .required_axes()
            .iter()
            .any(|&axis| !no_child.doc_summary().can_satisfy(axis)));
        assert!(plan.prunes(no_child.doc_summary()));
        // Empty answers take the plan's head shape — what the pruned path
        // folds into the gathered fingerprint.
        assert_eq!(plan.empty_answer(), Answer::Nodes(Vec::new()));
        let (boolean, _) = Plan::compile(&QuerySpec::parse_cq("Q() :- A(x).").unwrap(), &options);
        assert_eq!(boolean.empty_answer(), Answer::Boolean(false));
        let (binary, _) = Plan::compile(
            &QuerySpec::parse_cq("Q(x, y) :- A(x), Child(x, y).").unwrap(),
            &options,
        );
        assert_eq!(binary.empty_answer(), Answer::Tuples(Vec::new()));
        // `prunes` is exact on the snapshot it judged: whenever it says
        // prune, executing really does return the empty answer.
        let mut scratch = ExecScratch::new();
        assert_eq!(plan.execute(&missing_b, &mut scratch), plan.empty_answer());
    }

    #[test]
    fn xpath_plans_execute_as_node_sets() {
        let prepared = PreparedTree::new(parse_term("R(A(B), D, C, A(E), C)").unwrap());
        let cache = PlanCache::new();
        let options = PlanOptions::default();
        let spec = QuerySpec::parse_xpath("//A[B]/following::C").unwrap();
        let plan = cache.get_or_compile(&spec, &options);
        let mut scratch = ExecScratch::new();
        let Answer::Nodes(nodes) = plan.execute(&prepared, &mut scratch) else {
            panic!("xpath plans are monadic");
        };
        assert_eq!(nodes.len(), 2);
        cache.get_or_compile(&spec, &options);
        assert_eq!(cache.stats().hits, 1);
    }
}
