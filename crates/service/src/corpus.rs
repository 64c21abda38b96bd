//! Epoch-swapped mutable documents: the serving layer's write path.
//!
//! A [`CorpusHandle`] owns one logical document as a sequence of immutable
//! *epochs*, each an `Arc<PreparedTree>`. Readers take a [`CorpusSnapshot`]
//! — an epoch number plus the `Arc` — and evaluate against it without any
//! further synchronization: the snapshot is immutable, so a reader mid-query
//! is never affected by a concurrent commit, and an epoch stays alive for as
//! long as any reader still holds it. A [`CorpusHandle::commit`] applies an
//! [`EditScript`] to the current epoch's tree, prepares the result with
//! [`PreparedTree::prepare_edited`] (carrying forward every cache the edit
//! provably could not invalidate), and swaps the handle's pointer — a brief
//! write-lock over an `Arc` assignment; readers hold the lock only for the
//! instant of cloning the `Arc`, never during evaluation.
//!
//! Plan invalidation falls out of the structure hash: every commit changes
//! [`PreparedTree::structure_hash`], and the serving loop binds plan-cache
//! keys to it ([`crate::plan::PlanKey::with_document`]), so a lookup for the
//! new epoch can never return an entry created for the old one.
//!
//! ```
//! use cqt_service::CorpusHandle;
//! use cqt_trees::edit::{EditScript, TreeEdit};
//! use cqt_trees::parse::parse_term;
//!
//! let handle = CorpusHandle::new(parse_term("R(A(B), C)").unwrap());
//! let reader = handle.snapshot(); // epoch 0; evaluation is lock-free
//! let report = handle
//!     .commit(&EditScript::single(TreeEdit::Relabel {
//!         node_pre: 3, // pre-order rank of the C node
//!         labels: vec!["D".into()],
//!     }))
//!     .unwrap();
//! assert_eq!(report.epoch, 1);
//! assert!(report.summary.keeps_structure()); // relabel-only: caches carried
//! assert_eq!(handle.snapshot().epoch, 1);    // new readers see epoch 1
//! assert_eq!(reader.epoch, 0);               // the old snapshot keeps serving epoch 0
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};

use cqt_core::ExecScratch;
use cqt_trees::edit::{EditError, EditScript, EditSummary};
use cqt_trees::{PreparedTree, Tree};

use crate::durability::{DocWal, DurabilityStats};
use crate::plan::{Plan, PlanOptions};
use crate::stats::answer_fingerprint;
use crate::workload::QuerySpec;

/// One reader's view of a [`CorpusHandle`]: an immutable epoch.
#[derive(Clone, Debug)]
pub struct CorpusSnapshot {
    /// The epoch number (0 for the initial document; +1 per commit).
    pub epoch: u64,
    /// The epoch's prepared tree, shared with every other reader of the
    /// same epoch.
    pub prepared: Arc<PreparedTree>,
}

/// What one [`CorpusHandle::commit`] did — consumed by reports and the
/// invalidation tests.
#[derive(Clone, Debug)]
pub struct CommitReport {
    /// The epoch the commit created.
    pub epoch: u64,
    /// Structure hash of the replaced epoch.
    pub previous_structure_hash: u64,
    /// Structure hash of the new epoch (differs whenever the script changed
    /// anything).
    pub structure_hash: u64,
    /// Cache entries adopted from the previous epoch
    /// ([`PreparedTree::carried_relations`]).
    pub carried_relations: u64,
    /// Always 0: label sets are built with the tree, so a commit has none
    /// to carry ([`PreparedTree::carried_label_sets`]). Kept because the
    /// repository benchmark reads the name.
    pub carried_label_sets: u64,
    /// The applied script's invalidation summary.
    pub summary: EditSummary,
}

/// A mutable document served by epoch swapping. See the [module
/// docs](self).
#[derive(Debug)]
pub struct CorpusHandle {
    current: RwLock<CorpusSnapshot>,
    /// Serializes writers; readers never touch it.
    writer: Mutex<()>,
    /// The document's write-ahead log, when the owning corpus is durable.
    /// Appended (and fsync'd) inside [`CorpusHandle::commit`] *before* the
    /// epoch swap: a commit is durable before it is visible.
    wal: Option<DocWal>,
}

impl CorpusHandle {
    /// A handle whose epoch 0 is `tree`.
    pub fn new(tree: Tree) -> Self {
        Self::from_prepared(Arc::new(PreparedTree::new(tree)))
    }

    /// A handle whose epoch 0 is an already-prepared tree (its caches are
    /// served as-is).
    pub fn from_prepared(prepared: Arc<PreparedTree>) -> Self {
        CorpusHandle {
            current: RwLock::new(CorpusSnapshot { epoch: 0, prepared }),
            writer: Mutex::new(()),
            wal: None,
        }
    }

    /// A handle serving `tree` at `epoch` (not necessarily 0 — a recovered
    /// document resumes at the epoch its durable state reached), optionally
    /// logging further commits to `wal`.
    pub(crate) fn recovered(tree: Tree, epoch: u64, wal: Option<DocWal>) -> Self {
        CorpusHandle {
            current: RwLock::new(CorpusSnapshot {
                epoch,
                prepared: Arc::new(PreparedTree::new(tree)),
            }),
            writer: Mutex::new(()),
            wal,
        }
    }

    /// The durability counters of this document's log, if it has one.
    pub(crate) fn wal_stats(&self) -> Option<DurabilityStats> {
        self.wal.as_ref().map(DocWal::stats)
    }

    /// The document's log, if it has one (used by corpus-level removal to
    /// delete the on-disk directory).
    pub(crate) fn wal(&self) -> Option<&DocWal> {
        self.wal.as_ref()
    }

    /// The current epoch's snapshot. The read lock is held only while the
    /// `Arc` is cloned; evaluation against the snapshot runs lock-free.
    pub fn snapshot(&self) -> CorpusSnapshot {
        self.current.read().expect("corpus lock poisoned").clone()
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.current.read().expect("corpus lock poisoned").epoch
    }

    /// The current epoch's structure hash.
    pub fn structure_hash(&self) -> u64 {
        self.current
            .read()
            .expect("corpus lock poisoned")
            .prepared
            .structure_hash()
    }

    /// Applies `script` to the current epoch and swaps in the result as the
    /// next epoch. Readers holding the previous snapshot keep serving it;
    /// new snapshots see the new epoch. Commits are all-or-nothing: a script
    /// that fails validation leaves the corpus untouched.
    ///
    /// Concurrent commits are serialized (last writer builds on the epoch
    /// the previous writer installed).
    ///
    /// On a durable handle the commit record is appended to the
    /// write-ahead log and fsync'd **before** the epoch swap, so a commit
    /// is never visible to a reader unless it would survive a crash. Log
    /// I/O failures are fail-stop (they panic — see
    /// [`crate::durability`]); script validation failures stay ordinary
    /// typed errors and leave both the corpus and the log untouched.
    pub fn commit(&self, script: &EditScript) -> Result<CommitReport, EditError> {
        let _writer = self.writer.lock().expect("corpus writer lock poisoned");
        let before = self.snapshot();
        let (tree, summary) = script.apply_to(before.prepared.tree())?;
        let prepared = Arc::new(before.prepared.prepare_edited(tree, &summary));
        let report = CommitReport {
            epoch: before.epoch + 1,
            previous_structure_hash: before.prepared.structure_hash(),
            structure_hash: prepared.structure_hash(),
            carried_relations: prepared.carried_relations(),
            carried_label_sets: prepared.carried_label_sets(),
            summary,
        };
        if let Some(wal) = &self.wal {
            wal.append(
                report.epoch,
                report.previous_structure_hash,
                report.structure_hash,
                script,
            );
        }
        let committed = Arc::clone(&prepared);
        *self.current.write().expect("corpus lock poisoned") = CorpusSnapshot {
            epoch: report.epoch,
            prepared,
        };
        if let Some(wal) = &self.wal {
            wal.maybe_snapshot(report.epoch, committed.tree());
        }
        Ok(report)
    }
}

/// Ground truth for one document of a mutation run: the expected answer
/// fingerprint of every (query, epoch) pair, derived by replaying the
/// document's scripts single-threaded. A [`crate::shard::CorpusMutationOracle`]
/// holds one per document and checks a run's observations against it.
///
/// Epoch trees are replayed through exactly the applier the corpus commit
/// uses, so node numbering matches and fingerprints are comparable. The
/// epoch-consistency property this checks is the strong one: a concurrent
/// reader's answer must equal the oracle answer *of the epoch it snapshot* —
/// it may be pre- or post-edit depending on timing, but never a blend of
/// the two.
#[derive(Clone, Debug)]
pub struct MutationOracle {
    expected: BTreeMap<(usize, u64), u64>,
    epochs: u64,
}

impl MutationOracle {
    /// Replays `scripts` from `initial` and evaluates every query at every
    /// epoch.
    pub fn build(
        initial: &Tree,
        scripts: &[EditScript],
        queries: &[QuerySpec],
        options: &PlanOptions,
    ) -> Result<Self, EditError> {
        let plans: Vec<Plan> = queries
            .iter()
            .map(|spec| Plan::compile(spec, options).0)
            .collect();
        let mut scratch = ExecScratch::new();
        let mut expected = BTreeMap::new();
        let mut tree = initial.clone();
        for epoch in 0..=scripts.len() as u64 {
            if epoch > 0 {
                tree = scripts[epoch as usize - 1].apply_to(&tree)?.0;
            }
            let prepared = PreparedTree::new(tree.clone());
            for (query_index, plan) in plans.iter().enumerate() {
                let answer = plan.execute(&prepared, &mut scratch);
                expected.insert(
                    (query_index, epoch),
                    answer_fingerprint(query_index as u64, &answer),
                );
            }
        }
        Ok(MutationOracle {
            expected,
            epochs: scripts.len() as u64 + 1,
        })
    }

    /// Number of epochs the oracle covers (scripts + 1).
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The expected fingerprint of `query` at `epoch`.
    pub fn expected(&self, query: usize, epoch: u64) -> Option<u64> {
        self.expected.get(&(query, epoch)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqt_trees::edit::TreeEdit;
    use cqt_trees::parse::parse_term;

    #[test]
    fn commits_swap_epochs_and_keep_old_snapshots_alive() {
        let corpus = CorpusHandle::new(parse_term("R(A(B), C)").unwrap());
        let before = corpus.snapshot();
        assert_eq!(before.epoch, 0);
        let report = corpus
            .commit(&EditScript::single(TreeEdit::InsertSubtree {
                parent_pre: 0,
                position: 2,
                subtree: Box::new(parse_term("D").unwrap()),
            }))
            .unwrap();
        assert_eq!(report.epoch, 1);
        assert_ne!(report.structure_hash, report.previous_structure_hash);
        assert_eq!(corpus.epoch(), 1);
        assert_eq!(corpus.structure_hash(), report.structure_hash);
        // The pre-commit snapshot still serves the old document.
        assert_eq!(before.prepared.tree().len(), 4);
        assert_eq!(corpus.snapshot().prepared.tree().len(), 5);
        assert_eq!(
            before.prepared.structure_hash(),
            report.previous_structure_hash
        );
    }

    #[test]
    fn failed_commits_leave_the_corpus_untouched() {
        let corpus = CorpusHandle::new(parse_term("R(A)").unwrap());
        let hash = corpus.structure_hash();
        let err = corpus
            .commit(&EditScript::single(TreeEdit::DeleteSubtree { node_pre: 0 }))
            .unwrap_err();
        assert_eq!(err, EditError::DeleteRoot);
        assert_eq!(corpus.epoch(), 0);
        assert_eq!(corpus.structure_hash(), hash);
    }

    #[test]
    fn relabel_commit_reports_carried_caches() {
        let corpus = CorpusHandle::new(parse_term("R(A(B), C)").unwrap());
        // Warm a relation on epoch 0.
        let snapshot = corpus.snapshot();
        snapshot.prepared.relation(cqt_trees::Axis::ChildPlus);
        let report = corpus
            .commit(&EditScript::single(TreeEdit::Relabel {
                node_pre: 2,
                labels: vec!["E".into()],
            }))
            .unwrap();
        assert!(report.summary.keeps_structure());
        assert_eq!(report.carried_relations, 1);
        assert_eq!(report.carried_label_sets, 0);
    }

    #[test]
    fn oracle_tracks_every_epoch() {
        let initial = parse_term("R(A(B), C)").unwrap();
        let scripts = vec![
            EditScript::single(TreeEdit::InsertSubtree {
                parent_pre: 1,
                position: 1,
                subtree: Box::new(parse_term("B").unwrap()),
            }),
            EditScript::single(TreeEdit::DeleteSubtree { node_pre: 2 }),
        ];
        let queries = vec![QuerySpec::parse_cq("Q(x) :- B(x).").unwrap()];
        let oracle =
            MutationOracle::build(&initial, &scripts, &queries, &PlanOptions::default()).unwrap();
        assert_eq!(oracle.epochs(), 3);
        // Epoch 0 has one B, epoch 1 two, epoch 2 one again: the
        // fingerprints must differ between epochs 0 and 1 even for the same
        // query.
        assert_ne!(oracle.expected(0, 0), oracle.expected(0, 1));
        assert!(oracle.expected(0, 2).is_some());
        assert!(oracle.expected(1, 0).is_none());
    }
}
