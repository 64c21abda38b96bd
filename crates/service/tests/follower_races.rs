//! Races between a leader's snapshot rotation and a
//! [`ReplicaFollower::local`] syncing from its log directory. Rotation is
//! three steps on the leader (write the new snapshot, truncate the log,
//! delete superseded snapshots), and a follower's sync can land between
//! any two of them; these tests pin the follower's behavior in each
//! window:
//!
//! * a log truncated past the follower's position falls back to a
//!   snapshot reload, never an error;
//! * a directory whose snapshots are all transiently unreadable (the
//!   rotation window) is skipped and retried, never treated as removed
//!   (the regression test for a bug where a transient `NotFound` during
//!   rotation dropped the document — destroying the follower's replay
//!   position — instead of deferring to the next sync);
//! * a follower syncing flat out against a leader that rotates on
//!   **every** commit converges without ever spuriously removing a
//!   document.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cqt_service::{Corpus, Durability, ReplicaFollower, ReplicaProgress};
use cqt_trees::generate::{random_edit_script, random_tree, EditScriptConfig, RandomTreeConfig};
use cqt_trees::Tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn temp_dir(name: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cqt-follower-races-{}-{name}-{seed}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn base_alphabet() -> Vec<String> {
    ["A", "B", "C", "D", "E"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// Generates a random initial tree plus `commits` chained random edit
/// scripts, returning the per-epoch trees of the full in-memory replay.
fn random_history(
    seed: u64,
    nodes: usize,
    commits: usize,
) -> (Vec<Tree>, Vec<cqt_trees::EditScript>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let initial = random_tree(
        &mut rng,
        &RandomTreeConfig {
            nodes,
            alphabet: base_alphabet(),
            ..RandomTreeConfig::default()
        },
    );
    let script_config = EditScriptConfig {
        edits: 2,
        alphabet: base_alphabet(),
        ..EditScriptConfig::default()
    };
    let mut epochs = vec![initial];
    let mut scripts = Vec::new();
    for _ in 0..commits {
        let script = random_edit_script(&mut rng, epochs.last().unwrap(), &script_config);
        let (next, _) = script.apply_to(epochs.last().unwrap()).unwrap();
        epochs.push(next);
        scripts.push(script);
    }
    (epochs, scripts)
}

/// A snapshot is written and the log truncated between two syncs: the
/// follower's position falls behind the log's first record, so the
/// incremental path cannot apply — it must reload from the snapshot and
/// then resume incrementally on the next sync.
#[test]
fn truncation_between_polls_falls_back_to_snapshot_reload() {
    let dir = temp_dir("truncate", 21);
    let (epochs, scripts) = random_history(21, 12, 5);
    let (corpus, _) = Corpus::open_durable(
        2,
        Durability::Wal {
            dir: dir.clone(),
            snapshot_every: 3,
        },
    )
    .unwrap();
    corpus.insert("doc", epochs[0].clone()).unwrap();
    let follower = ReplicaFollower::local(&dir, 2);
    follower.sync().unwrap();

    corpus.commit(&"doc".into(), &scripts[0]).unwrap();
    let progress = follower.sync().unwrap();
    assert_eq!(progress.records_applied, 1);

    // Epoch 3 hits the cadence: snapshot written, log truncated. Epoch 4
    // then appends past the follower's position — the log now starts at
    // a record the follower (at epoch 1) cannot chain to. The reload ships
    // the epoch-3 snapshot plus the epoch-4 record after it.
    corpus.commit(&"doc".into(), &scripts[1]).unwrap();
    corpus.commit(&"doc".into(), &scripts[2]).unwrap();
    corpus.commit(&"doc".into(), &scripts[3]).unwrap();
    let progress = follower.sync().unwrap();
    assert_eq!(
        progress,
        ReplicaProgress {
            records_applied: 1,
            snapshots_loaded: 1,
            documents_removed: 0,
            attempts: 1,
        },
        "a truncation gap must reload from the snapshot, not error"
    );
    let got = follower.corpus().snapshot(&"doc".into()).unwrap();
    assert_eq!(got.epoch, 4);
    assert_eq!(
        got.prepared.tree().structure_digest(),
        epochs[4].structure_digest()
    );

    // The reload re-anchored the replay position: the next commit applies
    // incrementally again (the log still holds the already-applied epoch-4
    // record, which must be skipped, not re-applied).
    corpus.commit(&"doc".into(), &scripts[4]).unwrap();
    let progress = follower.sync().unwrap();
    assert_eq!(progress.records_applied, 1);
    assert_eq!(progress.snapshots_loaded, 0);
    let got = follower.corpus().snapshot(&"doc".into()).unwrap();
    assert_eq!(
        got.prepared.tree().structure_digest(),
        epochs[5].structure_digest()
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The mid-rotation window where no snapshot file is readable: the
/// follower must keep the document and its position untouched and
/// converge once the snapshot is back — never error, never remove.
#[test]
fn missing_snapshots_during_rotation_defer_rather_than_remove() {
    let dir = temp_dir("nosnap", 22);
    let (epochs, scripts) = random_history(22, 12, 3);
    let (corpus, _) = Corpus::open_durable(
        2,
        Durability::Wal {
            dir: dir.clone(),
            snapshot_every: 2,
        },
    )
    .unwrap();
    corpus.insert("doc", epochs[0].clone()).unwrap();
    // Commit to epoch 2: snapshot-2 written, log truncated to the bare
    // header, snapshot-0 deleted.
    corpus.commit(&"doc".into(), &scripts[0]).unwrap();
    corpus.commit(&"doc".into(), &scripts[1]).unwrap();
    let follower = ReplicaFollower::local(&dir, 2);
    follower.sync().unwrap();
    assert_eq!(follower.corpus().snapshot(&"doc".into()).unwrap().epoch, 2);

    // Hide the only snapshot — exactly what a sync sees if it lands
    // while the leader is renaming the next snapshot into place.
    let snapshot = dir.join("doc").join("snapshot-00000000000000000002.snap");
    let parked = dir.join("parked.snap");
    fs::rename(&snapshot, &parked).unwrap();
    let progress = follower.sync().unwrap();
    assert_eq!(
        progress,
        ReplicaProgress {
            attempts: 1,
            ..ReplicaProgress::default()
        }
    );
    assert_eq!(follower.corpus().len(), 1, "the document must survive");
    assert_eq!(
        follower.corpus().snapshot(&"doc".into()).unwrap().epoch,
        2,
        "the replay position must survive"
    );

    // Snapshot back: the next commit applies incrementally, proving the
    // position was deferred, not rebuilt.
    fs::rename(&parked, &snapshot).unwrap();
    corpus.commit(&"doc".into(), &scripts[2]).unwrap();
    let progress = follower.sync().unwrap();
    assert_eq!(progress.records_applied, 1);
    assert_eq!(progress.snapshots_loaded, 0);
    assert_eq!(
        follower
            .corpus()
            .snapshot(&"doc".into())
            .unwrap()
            .prepared
            .tree()
            .structure_digest(),
        epochs[3].structure_digest()
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The regression test for removal-on-transient-`NotFound`: a document
/// directory that momentarily stops being a directory (or is missed by
/// one listing) must not be treated as a leader-side removal. Only a
/// confirmed `NotFound` on a direct probe may drop the document.
#[test]
fn transient_directory_anomalies_are_not_removals() {
    let dir = temp_dir("anomaly", 23);
    let (epochs, scripts) = random_history(23, 12, 2);
    let (corpus, _) = Corpus::open_durable(
        2,
        Durability::Wal {
            dir: dir.clone(),
            snapshot_every: 0,
        },
    )
    .unwrap();
    corpus.insert("alpha", epochs[0].clone()).unwrap();
    let follower = ReplicaFollower::local(&dir, 2);
    follower.sync().unwrap();
    corpus.commit(&"alpha".into(), &scripts[0]).unwrap();
    assert_eq!(follower.sync().unwrap().records_applied, 1);

    // The anomaly: the path exists but is not a directory, so the
    // listing skips it — the old code concluded "removed" from exactly
    // this observation and dropped the document and its position.
    let doc_dir = dir.join("alpha");
    let parked = std::env::temp_dir().join(format!(
        "cqt-follower-races-{}-anomaly-parked",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&parked);
    fs::rename(&doc_dir, &parked).unwrap();
    fs::write(&doc_dir, b"rotation debris").unwrap();
    let progress = follower.sync().unwrap();
    assert_eq!(progress.documents_removed, 0, "no removal on a live path");
    assert_eq!(follower.corpus().len(), 1);
    assert!(follower.corpus().get(&"alpha".into()).is_some());

    // Restore the directory: the next commit applies incrementally —
    // the replay position survived the anomaly.
    fs::remove_file(&doc_dir).unwrap();
    fs::rename(&parked, &doc_dir).unwrap();
    corpus.commit(&"alpha".into(), &scripts[1]).unwrap();
    let progress = follower.sync().unwrap();
    assert_eq!(progress.records_applied, 1);
    assert_eq!(progress.snapshots_loaded, 0);
    assert_eq!(
        follower
            .corpus()
            .snapshot(&"alpha".into())
            .unwrap()
            .prepared
            .tree()
            .structure_digest(),
        epochs[2].structure_digest()
    );

    // A genuine removal — directory confirmed gone — still converges.
    corpus.remove(&"alpha".into()).unwrap();
    let progress = follower.sync().unwrap();
    assert_eq!(progress.documents_removed, 1);
    assert_eq!(follower.corpus().len(), 0);
    let _ = fs::remove_dir_all(&dir);
}

/// The hammer: a leader that snapshots and truncates on **every** commit
/// while a follower syncs flat out. An individual sync may still race the
/// rotation and return a typed error for that sync; what must hold is
/// that the follower (a) never spuriously removes the document and (b)
/// converges to the leader's final digest once the writer stops.
#[test]
fn poller_survives_continuous_rotation() {
    let commits = 30;
    let dir = temp_dir("hammer", 31);
    let (epochs, scripts) = random_history(31, 10, commits);
    let (corpus, _) = Corpus::open_durable(
        2,
        Durability::Wal {
            dir: dir.clone(),
            snapshot_every: 1,
        },
    )
    .unwrap();
    let corpus = Arc::new(corpus);
    corpus.insert("doc", epochs[0].clone()).unwrap();
    let follower = ReplicaFollower::local(&dir, 2);
    follower.sync().unwrap();

    let writer = {
        let corpus = Arc::clone(&corpus);
        std::thread::spawn(move || {
            for script in &scripts {
                corpus.commit(&"doc".into(), script).unwrap();
            }
        })
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut removed = 0u64;
    loop {
        if let Ok(progress) = follower.sync() {
            removed += progress.documents_removed;
            if let Some(snapshot) = follower.corpus().snapshot(&"doc".into()) {
                if snapshot.epoch == commits as u64 {
                    break;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "follower failed to converge within the deadline"
        );
        std::thread::yield_now();
    }
    writer.join().unwrap();
    // Quiescent now: one more sync must be a clean no-op.
    let progress = follower.sync().unwrap();
    assert_eq!(
        progress,
        ReplicaProgress {
            attempts: 1,
            ..ReplicaProgress::default()
        }
    );
    assert_eq!(removed, 0, "rotation churn must never look like removal");
    let got = follower.corpus().snapshot(&"doc".into()).unwrap();
    assert_eq!(got.epoch, commits as u64);
    assert_eq!(
        got.prepared.tree().structure_digest(),
        epochs[commits].structure_digest()
    );
    let _ = fs::remove_dir_all(&dir);
}
