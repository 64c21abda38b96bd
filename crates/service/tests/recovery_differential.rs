//! Differential properties of the durable write path: whatever byte the
//! process dies on, recovery must reconstruct **exactly** the in-memory
//! replay of the durable prefix — and refuse, with a typed error, to
//! paper over corruption of bytes it once declared durable.
//!
//! The kill is simulated the way a kill actually lands on disk: the
//! write-ahead log is truncated at an arbitrary byte offset (the fsync'd
//! prefix survives, the in-flight suffix is torn), swept across **every
//! record boundary and mid-record offset** of randomly generated commit
//! histories. Mid-log byte flips — corruption inside the durable prefix,
//! not a torn tail — must surface as [`RecoveryError::CorruptRecord`].

use std::fs;
use std::path::PathBuf;

use cqt_service::{recover_document, Corpus, Durability, RecoveryError, ReplicaFollower};
use cqt_trees::generate::{random_edit_script, random_tree, EditScriptConfig, RandomTreeConfig};
use cqt_trees::Tree;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn temp_dir(name: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cqt-recovery-diff-{}-{name}-{seed}",
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
/// scripts, returning the per-epoch trees of the full in-memory replay
/// (`epochs[e]` is the tree after `e` commits).
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

/// Walks the record frames of a log file, returning the byte offset at
/// which each durable prefix ends: `boundaries[e]` is the log length after
/// exactly `e` records (boundaries[0] is the header).
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = vec![5]; // magic + version
    let mut pos = 5;
    while pos < bytes.len() {
        let body_len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4 + body_len + 8;
        boundaries.push(pos);
    }
    assert_eq!(pos, bytes.len(), "log ends on a record boundary");
    boundaries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The kill-point sweep: truncate the log at every record boundary and
    /// at a mid-record offset inside every record; recovery must land on
    /// exactly the in-memory replay of the durable prefix, digest-verified.
    #[test]
    fn recovery_equals_in_memory_replay_at_every_kill_point(
        seed in 0u64..1 << 32,
        nodes in 4usize..24,
        commits in 1usize..8,
        // Fraction through the record at which the mid-record cut lands.
        cut_frac in 1usize..97,
    ) {
        let dir = temp_dir("sweep", seed);
        let (epochs, scripts) = random_history(seed, nodes, commits);
        {
            // snapshot_every = 0: no periodic truncation, so the log holds
            // the entire history and every epoch is a reachable kill point.
            let (corpus, report) = Corpus::open_durable(
                2,
                Durability::Wal { dir: dir.clone(), snapshot_every: 0 },
            )
            .unwrap();
            prop_assert_eq!(report.documents.len(), 0);
            corpus.insert("doc-000", epochs[0].clone()).unwrap();
            for script in &scripts {
                corpus.commit(&"doc-000".into(), script).unwrap();
            }
            // The leader dies here: nothing is flushed beyond what append
            // already fsync'd, which is everything — the torn cases below
            // shave bytes off to model a kill mid-append.
        }
        let doc_dir = dir.join("doc-000");
        let wal_path = doc_dir.join("wal.log");
        let full = fs::read(&wal_path).unwrap();
        let boundaries = record_boundaries(&full);
        prop_assert_eq!(boundaries.len(), commits + 1);

        // Collect every cut: each boundary, and one mid-record offset per
        // record. Descending order lets us truncate the same file in place.
        let mut cuts: Vec<usize> = boundaries.clone();
        for e in 0..commits {
            let span = boundaries[e + 1] - boundaries[e];
            let mid = boundaries[e] + 1 + (cut_frac * (span - 1)) / 100;
            cuts.push(mid.min(boundaries[e + 1] - 1));
        }
        cuts.sort_unstable_by(|a, b| b.cmp(a));
        cuts.dedup();
        for cut in cuts {
            let file = fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
            file.set_len(cut as u64).unwrap();
            drop(file);
            // The durable prefix is the records wholly below the cut.
            let epoch = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            let recovered = recover_document(&doc_dir).unwrap();
            prop_assert_eq!(recovered.epoch, epoch as u64);
            prop_assert_eq!(recovered.replayed_records, epoch as u64);
            prop_assert_eq!(
                recovered.tree.structure_digest(),
                epochs[epoch].structure_digest(),
                "recovered tree must equal the in-memory replay of {} commits",
                epoch
            );
            let expected_torn = cut - boundaries[epoch];
            prop_assert_eq!(recovered.torn_bytes as usize, expected_torn);
        }

        // Reopen the corpus at the final (fully truncated) kill point and
        // keep committing: the log resumes cleanly from the recovered
        // epoch.
        let (corpus, report) = Corpus::open_durable(
            2,
            Durability::Wal { dir: dir.clone(), snapshot_every: 0 },
        )
        .unwrap();
        prop_assert_eq!(report.documents.len(), 1);
        let resumed_epoch = report.documents[0].epoch;
        let resume_tree = corpus
            .snapshot(&"doc-000".into())
            .unwrap()
            .prepared
            .tree()
            .clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let script = random_edit_script(
            &mut rng,
            &resume_tree,
            &EditScriptConfig { alphabet: base_alphabet(), ..EditScriptConfig::default() },
        );
        let commit = corpus.commit(&"doc-000".into(), &script).unwrap();
        prop_assert_eq!(commit.epoch, resumed_epoch + 1);
        drop(corpus);
        let recovered = recover_document(&doc_dir).unwrap();
        prop_assert_eq!(recovered.epoch, resumed_epoch + 1);
        prop_assert_eq!(recovered.torn_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A byte flip **inside the durable prefix** (any non-final record's
    /// body or checksum) is corruption, not a torn tail: recovery must
    /// refuse with the typed mid-log error rather than quietly truncate.
    #[test]
    fn mid_log_corruption_is_a_typed_error(
        seed in 0u64..1 << 32,
        commits in 2usize..6,
        flip_pick in 0usize..1 << 16,
    ) {
        let dir = temp_dir("corrupt", seed);
        let (epochs, scripts) = random_history(seed, 12, commits);
        {
            let (corpus, _) = Corpus::open_durable(
                1,
                Durability::Wal { dir: dir.clone(), snapshot_every: 0 },
            )
            .unwrap();
            corpus.insert("doc-000", epochs[0].clone()).unwrap();
            for script in &scripts {
                corpus.commit(&"doc-000".into(), script).unwrap();
            }
        }
        let doc_dir = dir.join("doc-000");
        let wal_path = doc_dir.join("wal.log");
        let mut bytes = fs::read(&wal_path).unwrap();
        let boundaries = record_boundaries(&bytes);
        // Flip one byte of a non-final record, past its 4-byte length
        // prefix (a corrupted length is indistinguishable from a torn tail
        // in any length-prefixed log, so it is out of scope here).
        let victim = flip_pick % (commits - 1);
        let lo = boundaries[victim] + 4;
        let hi = boundaries[victim + 1];
        let at = lo + (flip_pick / (commits - 1)) % (hi - lo);
        bytes[at] ^= 0x5a;
        fs::write(&wal_path, &bytes).unwrap();
        match recover_document(&doc_dir) {
            Err(RecoveryError::CorruptRecord { record, .. }) => {
                prop_assert_eq!(record, victim as u64);
            }
            other => prop_assert!(false, "expected CorruptRecord, got {:?}", other),
        }
        // And the corpus-level open refuses identically — corruption never
        // yields a silently shorter history.
        match Corpus::open_durable(1, Durability::Wal { dir: dir.clone(), snapshot_every: 0 }) {
            Err(RecoveryError::CorruptRecord { .. }) => {}
            other => prop_assert!(false, "expected CorruptRecord, got {:?}", other.map(|_| ())),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Snapshots bound the log without changing what recovery reconstructs,
    /// and a follower syncing from the directory converges to the leader's
    /// digest at every commit.
    #[test]
    fn snapshots_and_followers_preserve_the_replay(
        seed in 0u64..1 << 32,
        commits in 1usize..10,
        snapshot_every in 1u64..4,
    ) {
        let dir = temp_dir("follow", seed);
        let (epochs, scripts) = random_history(seed, 16, commits);
        let (corpus, _) = Corpus::open_durable(
            2,
            Durability::Wal { dir: dir.clone(), snapshot_every },
        )
        .unwrap();
        corpus.insert("doc-000", epochs[0].clone()).unwrap();
        let follower = ReplicaFollower::local(&dir, 2);
        follower.sync().unwrap();
        for (i, script) in scripts.iter().enumerate() {
            corpus.commit(&"doc-000".into(), script).unwrap();
            follower.sync().unwrap();
            let got = follower
                .corpus()
                .snapshot(&"doc-000".into())
                .unwrap();
            prop_assert_eq!(got.epoch, i as u64 + 1);
            prop_assert_eq!(
                got.prepared.tree().structure_digest(),
                epochs[i + 1].structure_digest(),
                "follower diverged at commit {}",
                i
            );
        }
        // A cold restart of the leader reconstructs the same final state
        // through whatever snapshot/log-tail split the cadence produced.
        drop(corpus);
        let (reopened, report) = Corpus::open_durable(
            2,
            Durability::Wal { dir: dir.clone(), snapshot_every },
        )
        .unwrap();
        prop_assert_eq!(report.documents.len(), 1);
        prop_assert_eq!(report.documents[0].epoch, commits as u64);
        let got = reopened.snapshot(&"doc-000".into()).unwrap();
        prop_assert_eq!(
            got.prepared.tree().structure_digest(),
            epochs[commits].structure_digest()
        );
        if snapshot_every as usize <= commits {
            prop_assert!(
                report.documents[0].snapshot_epoch > 0,
                "the cadence must have produced a snapshot"
            );
            prop_assert!(
                report.documents[0].replayed_records < commits as u64,
                "the snapshot must bound the replay"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Document lifecycle through the durable directory: inserts create
/// directories the follower picks up, removals delete them and the
/// follower drops the document.
#[test]
fn follower_tracks_inserts_and_removals() {
    let dir = temp_dir("lifecycle", 7);
    let (epochs, scripts) = random_history(7, 12, 2);
    let (corpus, _) = Corpus::open_durable(
        2,
        Durability::Wal {
            dir: dir.clone(),
            snapshot_every: 2,
        },
    )
    .unwrap();
    corpus.insert("alpha", epochs[0].clone()).unwrap();
    let follower = ReplicaFollower::local(&dir, 2);
    follower.sync().unwrap();
    assert_eq!(follower.corpus().len(), 1);

    // A second document appears mid-flight, with tags, and gets commits.
    corpus
        .insert_tagged("beta/1", &["hot"], epochs[0].clone())
        .unwrap();
    for script in &scripts {
        corpus.commit(&"beta/1".into(), script).unwrap();
    }
    let progress = follower.sync().unwrap();
    assert_eq!(progress.snapshots_loaded, 1);
    assert_eq!(follower.corpus().len(), 2);
    let beta = follower.corpus().get(&"beta/1".into()).unwrap();
    assert!(beta.has_tag("hot"), "tags survive the durable round trip");
    assert_eq!(
        beta.handle().snapshot().prepared.tree().structure_digest(),
        epochs[2].structure_digest()
    );

    // Removal deletes the on-disk directory; the follower converges.
    corpus.remove(&"alpha".into()).unwrap();
    assert!(!dir.join("alpha").exists());
    let progress = follower.sync().unwrap();
    assert_eq!(progress.documents_removed, 1);
    assert_eq!(follower.corpus().len(), 1);
    assert!(follower.corpus().get(&"alpha".into()).is_none());
    let _ = fs::remove_dir_all(&dir);
}
