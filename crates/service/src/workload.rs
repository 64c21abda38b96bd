//! Workloads: the (query, document) batches the runner shards over threads.
//!
//! Two workload shapes (a third, [`crate::batch::BatchWorkload`], lives
//! with the batch layer):
//!
//! * [`CorpusWorkload`] — (query, [`FanOut`]) requests over a sharded
//!   multi-document [`crate::shard::Corpus`]: each request scatters to one
//!   document, a tagged subset, or every document, and gathers per-document
//!   fingerprints — for [`crate::runner::ServiceRunner::run_corpus`];
//! * [`CorpusMutationWorkload`] — a corpus read stream plus **multiple
//!   concurrent writers** (at most one per document), for
//!   [`crate::runner::ServiceRunner::run_corpus_mutating`].

use std::collections::BTreeSet;
use std::fmt;

use cqt_query::{parse_query, ConjunctiveQuery};
use cqt_trees::edit::EditScript;
use cqt_xpath::{parse_xpath, XPathQuery};

use crate::shard::{DocId, FanOut};

/// One query of a workload: a datalog-syntax conjunctive query or an XPath
/// location-path query. Both ride the same compiled-plan path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuerySpec {
    /// A conjunctive query (possibly cyclic / NP-hard).
    Cq(ConjunctiveQuery),
    /// A positive Core XPath query (compiled to a union of acyclic monadic
    /// conjunctive queries).
    XPath(XPathQuery),
}

impl QuerySpec {
    /// Parses a datalog-syntax conjunctive query, e.g.
    /// `"Q(x) :- A(x), Child(x, y), B(y)."`.
    pub fn parse_cq(text: &str) -> Result<Self, String> {
        parse_query(text)
            .map(QuerySpec::Cq)
            .map_err(|e| e.to_string())
    }

    /// Parses an XPath query, e.g. `"//A[B]/following::C"`.
    pub fn parse_xpath(text: &str) -> Result<Self, String> {
        parse_xpath(text)
            .map(QuerySpec::XPath)
            .map_err(|e| e.to_string())
    }

    /// Wraps an already-built conjunctive query.
    pub fn from_cq(query: ConjunctiveQuery) -> Self {
        QuerySpec::Cq(query)
    }

    /// Arity of the answer: the head arity of a conjunctive query, 1 for an
    /// XPath query (it selects nodes).
    pub fn head_arity(&self) -> usize {
        match self {
            QuerySpec::Cq(query) => query.head_arity(),
            QuerySpec::XPath(_) => 1,
        }
    }
}

impl fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuerySpec::Cq(query) => write!(f, "{query}"),
            QuerySpec::XPath(query) => write!(f, "{query}"),
        }
    }
}

/// One request of a [`CorpusWorkload`]: a query and the documents it fans
/// out to.
#[derive(Clone, Debug)]
pub struct CorpusRequest {
    /// The query.
    pub query: QuerySpec,
    /// The fan-out target: one document, a tagged subset, or all documents.
    pub target: FanOut,
}

/// A batch of scatter–gather requests over a [`crate::shard::Corpus`]:
/// every request of `requests`, `repeats` times over, interleaved
/// request-first (consecutive reads exercise different plans and different
/// documents — the plan cache's worst case and live traffic's common case).
#[derive(Clone, Debug)]
pub struct CorpusWorkload {
    /// The request mix.
    pub requests: Vec<CorpusRequest>,
    /// How many times to run the full request list.
    pub repeats: usize,
}

impl CorpusWorkload {
    /// Builds a corpus workload.
    pub fn new(requests: Vec<CorpusRequest>, repeats: usize) -> Self {
        CorpusWorkload { requests, repeats }
    }

    /// Total number of requests the runner will execute (each of which may
    /// fan out to many per-document executions).
    pub fn request_count(&self) -> usize {
        self.requests.len() * self.repeats
    }

    /// The request index behind running request number `i`.
    pub(crate) fn request_of(&self, i: usize) -> usize {
        i % self.requests.len()
    }
}

/// A mixed read/write workload over a multi-document corpus: `reads` read
/// requests cycling through (query × document) pairs of `queries` ×
/// `doc_ids`, served by N reader threads, while **one writer thread per
/// entry of `writers`** commits that document's scripts in order.
///
/// At most one writer per document (enforced by
/// [`CorpusMutationWorkload::new`]): commits to one document are serialized
/// by its handle anyway, and one-writer-per-document is what makes the
/// per-document [`crate::shard::CorpusMutationOracle`] replay exact.
/// Writers pace themselves off the shared read cursor: each writer's
/// scripts are spread evenly over the first 60% of the read stream, so the
/// tail of the run measurably serves the final epochs. A single document
/// with one writer is the single-document read/write case.
#[derive(Clone, Debug)]
pub struct CorpusMutationWorkload {
    /// The read-side query mix.
    pub queries: Vec<QuerySpec>,
    /// The documents reads cycle through (reads also cover documents no
    /// writer touches — that is how writer isolation gets observed).
    pub doc_ids: Vec<DocId>,
    /// One entry per writer: the document it owns and the scripts it
    /// commits, in order (each addressing the epoch its predecessors left).
    pub writers: Vec<(DocId, Vec<EditScript>)>,
    /// Total read requests.
    pub reads: usize,
}

impl CorpusMutationWorkload {
    /// Builds a corpus mutation workload.
    ///
    /// # Panics
    /// Panics if two writers target the same document.
    pub fn new(
        queries: Vec<QuerySpec>,
        doc_ids: Vec<DocId>,
        writers: Vec<(DocId, Vec<EditScript>)>,
        reads: usize,
    ) -> Self {
        let mut seen = BTreeSet::new();
        for (id, _) in &writers {
            assert!(
                seen.insert(id.clone()),
                "at most one writer per document (duplicate writer for {id:?})"
            );
        }
        CorpusMutationWorkload {
            queries,
            doc_ids,
            writers,
            reads,
        }
    }

    /// The (query index, document index) of read request `i`, interleaving
    /// queries fastest.
    pub(crate) fn read_of(&self, i: usize) -> (usize, usize) {
        (
            i % self.queries.len(),
            (i / self.queries.len()) % self.doc_ids.len().max(1),
        )
    }

    /// The read-cursor positions at which writer `w` commits each of its
    /// scripts: evenly spread over the first 60% of the read stream, offset
    /// per writer so the swap points of different documents interleave.
    pub(crate) fn commit_points(&self, w: usize) -> Vec<usize> {
        let scripts = self.writers[w].1.len();
        let spread = self.reads * 3 / 5;
        (0..scripts)
            .map(|i| {
                let even = spread * (i + 1) / (scripts + 1);
                // Stagger writers by a fraction of one slot so their swaps
                // do not all land on the same cursor value.
                let offset = (w * spread) / (scripts + 1).max(1) / self.writers.len().max(1);
                (even + offset).min(spread)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_workload_indexing_and_reads() {
        let workload = CorpusWorkload::new(
            vec![
                CorpusRequest {
                    query: QuerySpec::parse_cq("Q() :- A(x).").unwrap(),
                    target: FanOut::All,
                },
                CorpusRequest {
                    query: QuerySpec::parse_xpath("//A").unwrap(),
                    target: FanOut::One("a".into()),
                },
            ],
            3,
        );
        assert_eq!(workload.request_count(), 6);
        assert_eq!(workload.request_of(0), 0);
        assert_eq!(workload.request_of(1), 1);
        assert_eq!(workload.request_of(2), 0);

        let mutation = CorpusMutationWorkload::new(
            vec![
                QuerySpec::parse_cq("Q() :- A(x).").unwrap(),
                QuerySpec::parse_xpath("//A").unwrap(),
            ],
            vec!["a".into(), "b".into(), "c".into()],
            vec![
                ("a".into(), vec![EditScript::new(); 2]),
                ("b".into(), vec![EditScript::new(); 2]),
            ],
            600,
        );
        // Reads cycle queries fastest, then documents.
        assert_eq!(mutation.read_of(0), (0, 0));
        assert_eq!(mutation.read_of(1), (1, 0));
        assert_eq!(mutation.read_of(2), (0, 1));
        assert_eq!(mutation.read_of(6), (0, 0));
        // Each writer's commit points are increasing and inside the first
        // 60% of the stream; distinct writers are staggered.
        for w in 0..2 {
            let points = mutation.commit_points(w);
            assert_eq!(points.len(), 2);
            assert!(points.windows(2).all(|p| p[0] < p[1]), "{points:?}");
            assert!(*points.last().unwrap() <= 360);
        }
        assert_ne!(mutation.commit_points(0), mutation.commit_points(1));
    }

    #[test]
    #[should_panic(expected = "at most one writer per document")]
    fn duplicate_writers_are_rejected() {
        CorpusMutationWorkload::new(
            vec![QuerySpec::parse_cq("Q() :- A(x).").unwrap()],
            vec!["a".into()],
            vec![
                ("a".into(), vec![EditScript::new()]),
                ("a".into(), vec![EditScript::new()]),
            ],
            10,
        );
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(QuerySpec::parse_cq("not a query").is_err());
        assert!(QuerySpec::parse_xpath("//[").is_err());
        assert!(QuerySpec::parse_cq("Q() :- A(x).").is_ok());
    }
}
