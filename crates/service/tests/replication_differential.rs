//! Differential properties of the replication transport: whatever byte
//! the connection dies on, a reconnecting replica must catch up to
//! **exactly** the leader's durable state — and failover must be
//! digest-gated, refusing to promote a replica whose positions do not
//! match the dead leader's durable prefix.
//!
//! The disconnect is simulated the way a disconnect actually lands on a
//! follower: a one-shot proxy relays the leader's replication stream up
//! to an arbitrary byte offset and then drops both sockets, swept across
//! **every frame boundary and mid-frame offset** of the captured stream
//! (mirroring the kill-point sweep of `recovery_differential.rs`, with
//! the torn log replaced by a torn TCP stream). After each cut the
//! replica reconnects to the real leader and must converge; the final
//! answer-level check runs a batched, pruned query workload over both the
//! leader and the replica through real sockets and requires identical
//! fingerprints.
//!
//! The transport-parity property runs random schedules of inserts,
//! commits, removals and leader restarts, and after every step requires a
//! replica fed from the leader's directory and a replica fed over TCP to
//! agree with each other, with the leader and with an independent model.
//! Agreement is checked on digests *and* on answers: a monadic and a k-ary
//! query must name the same nodes on the model tree, the leader, both
//! replicas and a corpus recovered from a copy of the leader's directory.
//! The inserted trees come from `random_tree`, whose builder adds nodes out
//! of pre-order, so a copy that numbered its nodes differently would show.
//! `transport_parity_deep_sweep` repeats it over 200 schedules; run it in
//! release mode with `cargo test --release -p cqt-service --test
//! replication_differential -- --include-ignored`.

use std::collections::BTreeMap;
use std::fs;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use cqt_core::{Answer, ExecScratch};
use cqt_service::net::frame::{write_frame, FRAME_HEADER_LEN};
use cqt_service::net::{
    NetServer, NetServerConfig, Request, Response, WireFanOut, WireLang, WirePosition, WireQuery,
};
use cqt_service::{
    durable_positions, Corpus, DocId, Durability, Plan, PlanOptions, PromoteError, QuerySpec,
    ReplicaFollower,
};
use cqt_trees::generate::{random_edit_script, random_tree, EditScriptConfig, RandomTreeConfig};
use cqt_trees::{NodeId, PreparedTree, Tree, TreeBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn temp_dir(name: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cqt-repl-diff-{}-{name}-{seed}",
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

/// Connects directly to the leader and captures the raw bytes of one
/// complete cold replication stream (everything through `ReplDone`),
/// returning the bytes and the offset at which each whole frame —
/// header included — ends. These offsets enumerate the cut points.
fn capture_stream(addr: SocketAddr) -> (Vec<u8>, Vec<usize>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let subscribe = Request::Replicate {
        id: 9,
        positions: Vec::new(),
    };
    write_frame(&mut stream, &subscribe.encode()).unwrap();
    let mut bytes = Vec::new();
    let mut frame_ends = Vec::new();
    loop {
        let mut header = [0u8; FRAME_HEADER_LEN];
        stream.read_exact(&mut header).unwrap();
        let len = u32::from_be_bytes(header) as usize;
        let mut payload = vec![0u8; len];
        stream.read_exact(&mut payload).unwrap();
        bytes.extend_from_slice(&header);
        bytes.extend_from_slice(&payload);
        frame_ends.push(bytes.len());
        if matches!(Response::decode(&payload), Ok(Response::ReplDone { .. })) {
            return (bytes, frame_ends);
        }
    }
}

/// One-shot truncating proxy: accepts a single connection, forwards its
/// first request frame upstream, relays at most `limit` bytes of the
/// response back, then drops both sockets — a disconnect at an exact
/// byte offset of the replication stream.
fn truncating_proxy(upstream: SocketAddr, limit: usize) -> (SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = thread::spawn(move || {
        let Ok((mut client, _)) = listener.accept() else {
            return;
        };
        let Ok(mut up) = TcpStream::connect(upstream) else {
            return;
        };
        let mut header = [0u8; FRAME_HEADER_LEN];
        if client.read_exact(&mut header).is_err() {
            return;
        }
        let len = u32::from_be_bytes(header) as usize;
        let mut payload = vec![0u8; len];
        if client.read_exact(&mut payload).is_err() {
            return;
        }
        if up
            .write_all(&header)
            .and_then(|()| up.write_all(&payload))
            .is_err()
        {
            return;
        }
        let mut remaining = limit;
        let mut buf = [0u8; 512];
        while remaining > 0 {
            let want = buf.len().min(remaining);
            match up.read(&mut buf[..want]) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if client.write_all(&buf[..n]).is_err() {
                        break;
                    }
                    remaining -= n;
                }
            }
        }
        let _ = client.shutdown(Shutdown::Both);
        let _ = up.shutdown(Shutdown::Both);
    });
    (addr, handle)
}

/// The answer-level oracle: one batched, pruned scatter–gather over a
/// real socket, returning (documents hit, per-query fingerprints).
fn batch_fingerprints(addr: SocketAddr, queries: &[(WireLang, &str, u64)]) -> (u32, Vec<u64>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let request = Request::Batch {
        id: 77,
        fanout: WireFanOut::All,
        queries: queries
            .iter()
            .map(|(lang, text, fp_key)| WireQuery {
                lang: *lang,
                text: (*text).to_string(),
                fp_key: *fp_key,
            })
            .collect(),
    };
    write_frame(&mut stream, &request.encode()).unwrap();
    let mut header = [0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut header).unwrap();
    let len = u32::from_be_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    match Response::decode(&payload).unwrap() {
        Response::BatchAnswer {
            docs, fingerprints, ..
        } => (docs, fingerprints),
        other => panic!("expected a batch answer, got {other:?}"),
    }
}

/// The query mix for the answer-level checks: CQ and XPath over the
/// generator's alphabet, with distinct fingerprint keys.
fn oracle_queries() -> [(WireLang, &'static str, u64); 3] {
    [
        (WireLang::Cq, "Q(y) :- A(x), Child+(x, y), B(y).", 11),
        (WireLang::XPath, "//B | //C", 23),
        (WireLang::Cq, "Q(x) :- E(x).", 37),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The disconnect sweep: cut the replication stream at every frame
    /// boundary and a mid-frame offset inside every frame; after
    /// reconnect + catch-up the replica must hold exactly the leader's
    /// durable state, and a batched, pruned query workload over real
    /// sockets must fingerprint identically on both sides.
    #[test]
    fn replica_converges_from_every_disconnect_point(
        seed in 0u64..1 << 32,
        nodes in 4usize..16,
        commits in 1usize..5,
        snapshot_every in 0u64..3,
        // Fraction through the frame at which the mid-frame cut lands.
        cut_frac in 1usize..97,
    ) {
        let dir = temp_dir("cut", seed);
        let (epochs_a, scripts_a) = random_history(seed, nodes, commits);
        let (epochs_b, scripts_b) = random_history(seed ^ 0x9e37, nodes, commits);
        let (corpus, _) = Corpus::open_durable(
            2,
            Durability::Wal { dir: dir.clone(), snapshot_every },
        )
        .unwrap();
        let corpus = Arc::new(corpus);
        corpus.insert("doc-a", epochs_a[0].clone()).unwrap();
        corpus
            .insert_tagged("doc-b", &["hot"], epochs_b[0].clone())
            .unwrap();
        for script in &scripts_a {
            corpus.commit(&"doc-a".into(), script).unwrap();
        }
        for script in &scripts_b {
            corpus.commit(&"doc-b".into(), script).unwrap();
        }
        let server = NetServer::start(Arc::clone(&corpus), NetServerConfig::default()).unwrap();

        // Enumerate the cuts from one captured full stream: zero bytes,
        // every frame boundary, and one mid-frame offset per frame (for
        // small fractions the cut lands inside the 4-byte header).
        let (stream_bytes, frame_ends) = capture_stream(server.addr());
        let mut cuts = vec![0usize];
        cuts.extend_from_slice(&frame_ends);
        let mut frame_start = 0usize;
        for &end in &frame_ends {
            let span = end - frame_start;
            cuts.push(frame_start + 1 + (cut_frac * (span - 1)) / 100);
            frame_start = end;
        }
        cuts.sort_unstable();
        cuts.dedup();

        let expect_a = epochs_a[commits].structure_digest();
        let expect_b = epochs_b[commits].structure_digest();
        for cut in cuts {
            let (proxy_addr, proxy) = truncating_proxy(server.addr(), cut);
            let mut replica = ReplicaFollower::new(proxy_addr, 2);
            // Torn at `cut`: an error for every cut short of the full
            // stream, a clean finish for the final boundary — both fine.
            let _ = replica.sync();
            proxy.join().unwrap();
            replica.retarget(server.addr());
            let caught_up = replica.sync_with_backoff(3, Duration::from_millis(1));
            prop_assert!(
                caught_up.is_ok(),
                "catch-up after a cut at byte {} failed: {:?}",
                cut,
                caught_up
            );
            let snap_a = replica.corpus().snapshot(&"doc-a".into()).unwrap();
            prop_assert_eq!(snap_a.epoch, commits as u64, "doc-a epoch after cut {}", cut);
            prop_assert_eq!(
                snap_a.prepared.tree().structure_digest(),
                expect_a,
                "doc-a diverged after a cut at byte {}",
                cut
            );
            let snap_b = replica.corpus().snapshot(&"doc-b".into()).unwrap();
            prop_assert_eq!(snap_b.epoch, commits as u64, "doc-b epoch after cut {}", cut);
            prop_assert_eq!(
                snap_b.prepared.tree().structure_digest(),
                expect_b,
                "doc-b diverged after a cut at byte {}",
                cut
            );
            // A caught-up replica re-subscribes to a no-op stream.
            let idle = replica.sync().unwrap();
            prop_assert_eq!((idle.records_applied, idle.snapshots_loaded), (0, 0));
        }

        // The leader advances while a replica is down: a replica torn
        // mid-stream reconnects after new commits and must land on the
        // new tip, not the one it first subscribed to.
        let mid_cut = stream_bytes.len() / 2;
        let (proxy_addr, proxy) = truncating_proxy(server.addr(), mid_cut);
        let mut replica = ReplicaFollower::new(proxy_addr, 2);
        let _ = replica.sync();
        proxy.join().unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let extra = random_edit_script(
            &mut rng,
            epochs_a.last().unwrap(),
            &EditScriptConfig { alphabet: base_alphabet(), ..EditScriptConfig::default() },
        );
        let (tip_tree, _) = extra.apply_to(epochs_a.last().unwrap()).unwrap();
        corpus.commit(&"doc-a".into(), &extra).unwrap();
        replica.retarget(server.addr());
        replica
            .sync_with_backoff(3, Duration::from_millis(1))
            .unwrap();
        let snap_a = replica.corpus().snapshot(&"doc-a".into()).unwrap();
        prop_assert_eq!(snap_a.epoch, commits as u64 + 1);
        prop_assert_eq!(
            snap_a.prepared.tree().structure_digest(),
            tip_tree.structure_digest()
        );

        // Answer-level equivalence with pruning and batching enabled on
        // both sides: the replica's corpus serves behind its own socket
        // front end and must fingerprint identically to the leader.
        let replica_server =
            NetServer::start(replica.corpus(), NetServerConfig::default()).unwrap();
        let queries = oracle_queries();
        let (leader_docs, leader_fps) = batch_fingerprints(server.addr(), &queries);
        let (replica_docs, replica_fps) = batch_fingerprints(replica_server.addr(), &queries);
        prop_assert_eq!(leader_docs, 2);
        prop_assert_eq!(replica_docs, 2);
        prop_assert_eq!(leader_fps, replica_fps);
        replica_server.shutdown();
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Deterministic failover: `promote` refuses a replica whose digest chain
/// does not match the dead leader's durable prefix and accepts one that
/// does — which then serves oracle-checked reads and accepts writes at
/// the recovered epoch.
#[test]
fn promote_is_digest_gated_and_serves_oracle_checked_reads() {
    let dir = temp_dir("promote", 11);
    let (epochs_a, scripts_a) = random_history(11, 14, 4);
    let (epochs_b, scripts_b) = random_history(12, 10, 2);
    let (corpus, _) = Corpus::open_durable(
        2,
        Durability::Wal {
            dir: dir.clone(),
            snapshot_every: 2,
        },
    )
    .unwrap();
    let corpus = Arc::new(corpus);
    corpus.insert("doc-a", epochs_a[0].clone()).unwrap();
    corpus.insert("doc-b", epochs_b[0].clone()).unwrap();
    for script in &scripts_a[..2] {
        corpus.commit(&"doc-a".into(), script).unwrap();
    }
    for script in &scripts_b {
        corpus.commit(&"doc-b".into(), script).unwrap();
    }
    let server = NetServer::start(Arc::clone(&corpus), NetServerConfig::default()).unwrap();

    // `stale` stops syncing here; the leader keeps committing, so its
    // final position on doc-a is two epochs behind the durable prefix.
    let stale = ReplicaFollower::new(server.addr(), 2);
    stale.sync().unwrap();
    for script in &scripts_a[2..] {
        corpus.commit(&"doc-a".into(), script).unwrap();
    }
    let current = ReplicaFollower::new(server.addr(), 2);
    current.sync().unwrap();
    // `empty` never synced at all.
    let empty = ReplicaFollower::new(server.addr(), 2);

    // The leader dies.
    server.shutdown();
    drop(corpus);
    let durable = durable_positions(&dir).unwrap();
    assert_eq!(durable.len(), 2);

    match empty.promote(&durable) {
        Err(PromoteError::MissingDocument(doc_id)) => assert_eq!(doc_id, "doc-a"),
        other => panic!("expected MissingDocument, got {other:?}"),
    }
    match stale.promote(&durable) {
        Err(PromoteError::Diverged {
            doc_id,
            expected_epoch,
            found_epoch,
            ..
        }) => {
            assert_eq!(doc_id, "doc-a");
            assert_eq!(expected_epoch, 4);
            assert_eq!(found_epoch, 2);
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
    let promoted = current.promote(&durable).unwrap();

    // Oracle 1: crash recovery of the leader's directory must agree with
    // the promoted replica document by document.
    let (recovered, report) = Corpus::open_durable(
        2,
        Durability::Wal {
            dir: dir.clone(),
            snapshot_every: 2,
        },
    )
    .unwrap();
    assert_eq!(report.documents.len(), 2);
    for id in ["doc-a", "doc-b"] {
        let promoted_snap = promoted.snapshot(&id.into()).unwrap();
        let recovered_snap = recovered.snapshot(&id.into()).unwrap();
        assert_eq!(promoted_snap.epoch, recovered_snap.epoch, "{id} epoch");
        assert_eq!(
            promoted_snap.prepared.tree().structure_digest(),
            recovered_snap.prepared.tree().structure_digest(),
            "{id} digest"
        );
    }

    // Oracle 2: answers. Both corpora behind real socket front ends with
    // pruning and batching on; identical fingerprints or the failover
    // changed what readers see.
    let promoted_server =
        NetServer::start(Arc::clone(&promoted), NetServerConfig::default()).unwrap();
    let oracle_server = NetServer::start(Arc::new(recovered), NetServerConfig::default()).unwrap();
    let queries = oracle_queries();
    let (promoted_docs, promoted_fps) = batch_fingerprints(promoted_server.addr(), &queries);
    let (oracle_docs, oracle_fps) = batch_fingerprints(oracle_server.addr(), &queries);
    assert_eq!(promoted_docs, 2);
    assert_eq!(oracle_docs, 2);
    assert_eq!(promoted_fps, oracle_fps);
    promoted_server.shutdown();
    oracle_server.shutdown();

    // The promoted corpus is open for writes at the recovered epoch.
    let mut rng = StdRng::seed_from_u64(99);
    let post = random_edit_script(
        &mut rng,
        epochs_a.last().unwrap(),
        &EditScriptConfig {
            alphabet: base_alphabet(),
            ..EditScriptConfig::default()
        },
    );
    let report = promoted.commit(&"doc-a".into(), &post).unwrap();
    assert_eq!(report.epoch, 5);
    let (expected, _) = post.apply_to(epochs_a.last().unwrap()).unwrap();
    assert_eq!(
        promoted
            .snapshot(&"doc-a".into())
            .unwrap()
            .prepared
            .tree()
            .structure_digest(),
        expected.structure_digest()
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The monadic and the k-ary query every copy of a document must answer
/// node for node alike.
fn parity_plans() -> Vec<Plan> {
    [
        "Q(y) :- A(x), Child+(x, y), B(y).",
        "Q(x, y) :- Child(x, y), C(y).",
    ]
    .iter()
    .map(|text| Plan::compile(&QuerySpec::parse_cq(text).unwrap(), &PlanOptions::default()).0)
    .collect()
}

fn answers(plans: &[Plan], prepared: &PreparedTree) -> Vec<Answer> {
    let mut scratch = ExecScratch::new();
    plans
        .iter()
        .map(|plan| plan.execute(prepared, &mut scratch))
        .collect()
}

/// A corpus recovered from a copy of the durable directory `dir`, so the
/// live leader's logs are left alone.
fn reopened_copy(dir: &std::path::Path, copy: &std::path::Path, snapshot_every: u64) -> Corpus {
    fn copy_tree(from: &std::path::Path, to: &std::path::Path) {
        fs::create_dir_all(to).unwrap();
        for entry in fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            let target = to.join(entry.file_name());
            if entry.file_type().unwrap().is_dir() {
                copy_tree(&entry.path(), &target);
            } else {
                fs::copy(entry.path(), target).unwrap();
            }
        }
    }
    let _ = fs::remove_dir_all(copy);
    copy_tree(dir, copy);
    Corpus::open_durable(
        2,
        Durability::Wal {
            dir: copy.to_path_buf(),
            snapshot_every,
        },
    )
    .unwrap()
    .0
}

/// Root `A` with children `B` and `X` and a `C` under `B`, added
/// breadth-first: the builder's handle for `C` is 3, its pre-order rank 2.
#[test]
fn leader_recovered_and_replicas_answer_with_the_same_ids() {
    let dir = temp_dir("same-ids", 0);
    let mut builder = TreeBuilder::new();
    let a = builder.add_root(&["A"]);
    let b = builder.add_child(a, &["B"]);
    builder.add_child(a, &["X"]);
    builder.add_child(b, &["C"]);
    let tree = builder.build().unwrap();
    let plans = vec![
        Plan::compile(
            &QuerySpec::parse_cq("Q(y) :- C(y).").unwrap(),
            &PlanOptions::default(),
        )
        .0,
    ];
    let expected = vec![Answer::Nodes(vec![NodeId::from_index(2)])];

    let plain = Corpus::new(2);
    plain.insert("doc", tree.clone()).unwrap();
    let leader = open_leader(&dir, 0);
    leader.corpus.insert("doc", tree).unwrap();
    let local = ReplicaFollower::local(&dir, 2);
    local.sync().unwrap();
    let tcp = ReplicaFollower::new(leader.server.addr(), 2);
    tcp.sync().unwrap();
    let copy = temp_dir("same-ids-copy", 0);
    let reopened = reopened_copy(&dir, &copy, 0);
    let id = DocId::new("doc");
    for (name, corpus) in [
        ("in-memory", &plain),
        ("leader", &*leader.corpus),
        ("recovered", &reopened),
        ("local replica", &*local.corpus()),
        ("tcp replica", &*tcp.corpus()),
    ] {
        let snapshot = corpus.snapshot(&id).unwrap();
        assert_eq!(answers(&plans, &snapshot.prepared), expected, "{name}");
    }
    leader.stop();
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&copy);
}

/// One leader lifetime of the transport-parity schedule: its corpus and
/// the server in front of it.
struct Leader {
    corpus: Arc<Corpus>,
    server: cqt_service::ServerHandle,
}

fn open_leader(dir: &std::path::Path, snapshot_every: u64) -> Leader {
    let (corpus, _) = Corpus::open_durable(
        2,
        Durability::Wal {
            dir: dir.to_path_buf(),
            snapshot_every,
        },
    )
    .unwrap();
    let corpus = Arc::new(corpus);
    let server = NetServer::start(Arc::clone(&corpus), NetServerConfig::default()).unwrap();
    Leader { corpus, server }
}

impl Leader {
    /// Stops the server and drops the corpus, closing its logs.
    fn stop(self) {
        self.server.shutdown();
    }
}

/// Runs one schedule. Each step is `(kind, pick)`: kind 0 inserts a
/// document, 1 inserts one with a routing tag, 2 and 3 commit a random
/// script to the picked document, 4 removes it, and 5 restarts the leader
/// from its directory. After every step both replicas sync and must
/// equal the model, `durable_positions` and the leader's own digests, and
/// every document must answer [`parity_plans`] alike on the model tree,
/// the leader, both replicas and a recovered copy of the directory.
fn transport_parity(seed: u64, snapshot_every: u64, steps: &[(u8, usize)]) {
    let dir = temp_dir("parity", seed ^ snapshot_every);
    let copy = temp_dir("parity-copy", seed ^ snapshot_every);
    let plans = parity_plans();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut leader = open_leader(&dir, snapshot_every);
    let local = ReplicaFollower::local(&dir, 2);
    let mut tcp = ReplicaFollower::new(leader.server.addr(), 2);
    // The model: per document, its (epoch, digest) and current tree.
    let mut model: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut trees: BTreeMap<String, Tree> = BTreeMap::new();
    let mut inserted = 0usize;
    let script_config = EditScriptConfig {
        edits: 2,
        alphabet: base_alphabet(),
        ..EditScriptConfig::default()
    };
    for (index, &(kind, pick)) in steps.iter().enumerate() {
        let picked =
            (!model.is_empty()).then(|| model.keys().nth(pick % model.len()).unwrap().clone());
        match (kind, picked) {
            (0 | 1, _) => {
                let id = format!("doc-{inserted}");
                inserted += 1;
                let tree = random_tree(
                    &mut rng,
                    &RandomTreeConfig {
                        nodes: 4 + pick % 12,
                        alphabet: base_alphabet(),
                        ..RandomTreeConfig::default()
                    },
                );
                if kind == 0 {
                    leader.corpus.insert(id.as_str(), tree.clone()).unwrap();
                } else {
                    leader
                        .corpus
                        .insert_tagged(id.as_str(), &["hot"], tree.clone())
                        .unwrap();
                }
                model.insert(id.clone(), (0, tree.structure_digest()));
                trees.insert(id, tree);
            }
            (2 | 3, Some(id)) => {
                let script = random_edit_script(&mut rng, &trees[&id], &script_config);
                let (next, _) = script.apply_to(&trees[&id]).unwrap();
                let report = leader.corpus.commit(&id.as_str().into(), &script).unwrap();
                let (epoch, _) = model[&id];
                assert_eq!(report.epoch, epoch + 1, "step {index}: commit epoch");
                model.insert(id.clone(), (epoch + 1, next.structure_digest()));
                trees.insert(id, next);
            }
            (4, Some(id)) => {
                assert!(leader.corpus.remove(&id.as_str().into()).is_some());
                model.remove(&id);
                trees.remove(&id);
            }
            (5, _) => {
                leader.stop();
                leader = open_leader(&dir, snapshot_every);
                tcp.retarget(leader.server.addr());
            }
            _ => {}
        }
        local.sync().unwrap();
        tcp.sync().unwrap();

        let expected: Vec<WirePosition> = model
            .iter()
            .map(|(doc_id, &(epoch, digest))| WirePosition {
                doc_id: doc_id.clone(),
                epoch,
                digest,
            })
            .collect();
        assert_eq!(
            durable_positions(&dir).unwrap(),
            expected,
            "step {index}: durable"
        );
        assert_eq!(
            leader.corpus.len(),
            model.len(),
            "step {index}: leader documents"
        );
        for (name, replica) in [("local", &local), ("tcp", &tcp)] {
            assert_eq!(
                replica.positions(),
                expected,
                "step {index}: {name} positions"
            );
            assert_eq!(
                replica.corpus().len(),
                model.len(),
                "step {index}: {name} documents"
            );
        }
        for (doc_id, &(epoch, digest)) in &model {
            let id = doc_id.as_str().into();
            let on_leader = leader.corpus.snapshot(&id).unwrap();
            assert_eq!(
                (on_leader.epoch, on_leader.prepared.structure_hash()),
                (epoch, digest),
                "step {index}: leader {doc_id}"
            );
            for (name, replica) in [("local", &local), ("tcp", &tcp)] {
                let on_replica = replica.corpus().snapshot(&id).unwrap();
                assert_eq!(
                    (on_replica.epoch, on_replica.prepared.structure_hash()),
                    (epoch, digest),
                    "step {index}: {name} {doc_id}"
                );
            }
        }
        let reopened = reopened_copy(&dir, &copy, snapshot_every);
        let (local_corpus, tcp_corpus) = (local.corpus(), tcp.corpus());
        for (doc_id, tree) in &trees {
            let id = doc_id.as_str().into();
            let expected = answers(&plans, &PreparedTree::new(tree.clone()));
            for (name, corpus) in [
                ("leader", &*leader.corpus),
                ("local", &*local_corpus),
                ("tcp", &*tcp_corpus),
                ("recovered", &reopened),
            ] {
                let snapshot = corpus.snapshot(&id).unwrap();
                assert_eq!(
                    answers(&plans, &snapshot.prepared),
                    expected,
                    "step {index}: {name} {doc_id} answers"
                );
            }
        }
    }
    leader.stop();
    let _ = fs::remove_dir_all(&copy);
    let durable = durable_positions(&dir).unwrap();
    for replica in [local, tcp] {
        let promoted = replica.promote(&durable).unwrap();
        assert_eq!(promoted.len(), model.len());
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Random schedules of up to 16 steps over kinds 0..=5 (see
/// [`transport_parity`]).
fn schedule() -> impl Strategy<Value = Vec<(u8, usize)>> {
    proptest::collection::vec((0u8..6, 0usize..1 << 16), 1..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Both follower sources converge on the same state after every step
    /// of a random schedule, and both promote at the end.
    #[test]
    fn local_and_tcp_replicas_agree_after_every_step(
        seed in 0u64..1 << 32,
        snapshot_every in 0u64..4,
        steps in schedule(),
    ) {
        transport_parity(seed, snapshot_every, &steps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, seed: 0x7a11_0c0f_fee5_d00d })]

    /// `local_and_tcp_replicas_agree_after_every_step` over 200 schedules.
    #[test]
    #[ignore = "deep sweep: run in release mode with --include-ignored"]
    fn transport_parity_deep_sweep(
        seed in 0u64..1 << 32,
        snapshot_every in 0u64..4,
        steps in schedule(),
    ) {
        transport_parity(seed, snapshot_every, &steps);
    }
}
