//! # cq-trees — Conjunctive Queries over Trees
//!
//! A from-scratch Rust implementation of
//! *Conjunctive Queries over Trees* (Georg Gottlob, Christoph Koch,
//! Klaus U. Schulz; PODS 2004, journal version JACM 53(2), 2006):
//! unranked labeled trees represented with XPath-style axis relations,
//! the X̲-property tractability framework, the NP-hardness machinery,
//! the CQ → acyclic-positive-query rewrite system, and the succinctness
//! constructions — together with the substrates needed to run them
//! (tree storage with structural indexes, arc consistency, a MAC solver,
//! a Yannakakis-style acyclic evaluator, a positive Core XPath front-end,
//! and workload generators).
//!
//! This crate is a façade: it re-exports the workspace crates under stable
//! module names and offers a [`prelude`]. See the individual crates for the
//! full documentation:
//!
//! * [`trees`] — tree substrate (arena, axes, orders, bitsets, parsers,
//!   generators);
//! * [`query`] — conjunctive queries, query graphs, positive queries,
//!   datalog-style parser;
//! * [`core`] — evaluation engines (arc consistency, X̲-property evaluation,
//!   MAC, Yannakakis, signature/tractability analysis);
//! * [`rewrite`] — join lifters, CQ→APQ rewriting, diamonds and
//!   succinctness machinery;
//! * [`hardness`] — 1-in-3 3SAT and the Theorem 5.1 reduction;
//! * [`xpath`] — positive Core XPath parsing, evaluation, compilation to
//!   CQs and emission from acyclic queries;
//! * [`service`] — the concurrent serving layer: compiled plans with a
//!   signature-keyed cache, a sharded corpus of epoch-swapped mutable
//!   documents (`Corpus`), and a multi-threaded scatter–gather runner with
//!   latency/throughput statistics, serving mixed read/write streams with
//!   oracle-checked epoch consistency.
//!
//! ## Quick start
//!
//! ```
//! use cq_trees::prelude::*;
//!
//! // A small XML-like document.
//! let tree = cq_trees::trees::parse::parse_xml("<R><A><B/></A><D/><C/></R>").unwrap();
//!
//! // The introduction's query //A[B]/following::C as a conjunctive query.
//! let query = parse_query("Q(z) :- A(x), Child(x, y), B(y), Following(x, z), C(z).").unwrap();
//!
//! // The engine analyses the query (acyclic → Yannakakis) and evaluates it.
//! let engine = Engine::new();
//! match engine.eval(&tree, &query) {
//!     Answer::Nodes(nodes) => assert_eq!(nodes.len(), 1),
//!     _ => unreachable!(),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cqt_core as core;
pub use cqt_hardness as hardness;
pub use cqt_query as query;
pub use cqt_rewrite as rewrite;
pub use cqt_service as service;
pub use cqt_trees as trees;
pub use cqt_xpath as xpath;

/// The most commonly used items from all workspace crates.
pub mod prelude {
    pub use cqt_core::{
        arc_consistent_prevaluation, Answer, CompiledQuery, Engine, EvalStrategy, ExecScratch,
        MacSolver, NaiveEvaluator, SignatureAnalysis, Tractability, XPropertyEvaluator,
        YannakakisEvaluator,
    };
    pub use cqt_query::{parse_query, ConjunctiveQuery, PositiveQuery, Signature};
    pub use cqt_rewrite::{diamond_query, join_lifter, ps_structure, rewrite_to_apq};
    pub use cqt_service::{
        Corpus, CorpusHandle, CorpusWorkload, FanOut, MutationOracle, QuerySpec, ServiceConfig,
        ServiceRunner,
    };
    pub use cqt_trees::{
        Axis, EditScript, NodeId, NodeSet, Order, PreparedTree, Tree, TreeBuilder, TreeEdit,
    };
    pub use cqt_xpath::{
        compile_to_positive_query, emit_acyclic_query, evaluate_xpath, parse_xpath,
    };
}
