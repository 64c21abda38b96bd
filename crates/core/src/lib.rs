//! # cqt-core — evaluation engines for conjunctive queries over trees
//!
//! This crate implements the algorithmic core of *Conjunctive Queries over
//! Trees* (Gottlob, Koch, Schulz; PODS 2004 / JACM 2006):
//!
//! * [`support`] — O(n) per-axis *semi-join support* primitives: given a set
//!   of candidate targets (sources), which sources (targets) have at least one
//!   partner under a given axis. These primitives power both the
//!   arc-consistency engine and the Yannakakis-style acyclic evaluator.
//! * [`prevaluation`] — prevaluations `Φ : Var → 2^A` and valuations
//!   `θ : Var → A` (Section 3), with consistency checking.
//! * [`arc`] — the arc-consistency algorithm of Proposition 3.1, in two
//!   flavours: a fast worklist engine over the structural index and a literal
//!   Horn-SAT / AC-4-style engine with support counters (Minoux unit
//!   resolution) over materialized relations.
//! * [`xproperty`] — the X̲-property (Definition 3.2): a checker for arbitrary
//!   (relation, order) pairs, the per-axis classification of Theorem 4.1, and
//!   the counterexamples of Example 4.5 / Figure 3.
//! * [`tractability`] — signature analysis implementing the dichotomy of
//!   Theorem 1.1 / Table I: every signature is classified as polynomial-time
//!   (with the witnessing order) or NP-hard (with the theorem that proves it).
//! * [`poly_eval`] — the polynomial-time evaluator of Theorem 3.5
//!   (arc consistency + minimum valuation, Lemma 3.4) for Boolean, tuple-check,
//!   monadic and k-ary evaluation on tractable signatures.
//! * [`mac`] — a complete solver for *all* signatures: backtracking search
//!   maintaining arc consistency (MAC) with minimum-remaining-values variable
//!   ordering. Used for the NP-hard signatures of Section 5.
//! * [`naive`] — a brute-force backtracking baseline without propagation.
//! * [`enumerate`] — the answer enumerator of both tractable engines: a
//!   walk through the fully reduced sets of an acyclic query whose head
//!   order allows it, otherwise one seeded propagation per fixed head
//!   candidate (Lemma 3.4).
//! * [`sink`] — where an execution delivers its answer: collected, folded
//!   into a fingerprint as it is found, or counted.
//! * [`yannakakis`] — semi-join based evaluation of acyclic queries
//!   (Yannakakis' algorithm, referenced in Section 1 as the reason APQs are
//!   desirable) and of acyclic positive queries.
//! * [`minimize`] — the plan-time pass that drops axis atoms implied by a
//!   two-atom path through the axis composition table, so redundant cycles
//!   compile to acyclic plans.
//! * [`engine`] — a façade that analyses the query and dispatches to the
//!   appropriate evaluator.
//! * [`compiled`] — the prepare/execute split for serving workloads: a
//!   [`CompiledQuery`] runs the per-query analysis once and executes any
//!   number of times against plain or prepared trees, with all mutable state
//!   in a per-worker [`ExecScratch`].
//! * [`batch`] — multi-query execution against one prepared-tree snapshot:
//!   a [`BatchPlan`] hash-conses identical axis atoms and location-path
//!   prefixes across compiled queries into a shared-step table evaluated
//!   once per document, warms the union of required label sets up front,
//!   and seeds each query's start sets from the table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arc;
pub mod batch;
pub mod compiled;
pub mod engine;
pub mod enumerate;
pub mod mac;
pub mod minimize;
pub mod naive;
pub mod poly_eval;
pub mod prevaluation;
pub mod sink;
pub mod support;
pub mod tractability;
pub mod xproperty;
pub mod yannakakis;

pub use arc::{
    arc_consistent_prevaluation, arc_consistent_prevaluation_hornsat,
    arc_consistent_prevaluation_hornsat_prepared, AcScratch,
};
pub use batch::{BatchPlan, BatchScratch};
pub use compiled::{CompiledQuery, ExecScratch};
pub use engine::{Answer, Engine, EvalStrategy, SelectedStrategy};
pub use mac::MacSolver;
pub use minimize::drop_implied_atoms;
pub use naive::NaiveEvaluator;
pub use poly_eval::XPropertyEvaluator;
pub use prevaluation::{Prevaluation, Valuation};
pub use sink::{answer_fingerprint, AnswerSink};
pub use tractability::{SignatureAnalysis, Tractability};
pub use xproperty::{theorem_4_1_orders, x_property_violation, XViolation};
pub use yannakakis::YannakakisEvaluator;

/// Convenience prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use crate::arc::arc_consistent_prevaluation;
    pub use crate::compiled::{CompiledQuery, ExecScratch};
    pub use crate::engine::{Answer, Engine, EvalStrategy};
    pub use crate::mac::MacSolver;
    pub use crate::naive::NaiveEvaluator;
    pub use crate::poly_eval::XPropertyEvaluator;
    pub use crate::prevaluation::{Prevaluation, Valuation};
    pub use crate::tractability::{SignatureAnalysis, Tractability};
    pub use crate::yannakakis::YannakakisEvaluator;
}
