//! `durable-write`: a write-ahead-logged corpus taking commits from one
//! closed-loop writer while one reader queries the same documents.
//!
//! The writer commits random edit scripts round-robin over the documents,
//! each waiting for its durable acknowledgement (log append + fsync, and a
//! snapshot every eighth epoch). Every read is checked against
//! `CorpusMutationOracle` at the exact epoch it saw. Afterwards the corpus
//! is dropped, recovered cold from its directory, served, and caught up by
//! fresh replicas; recovered and replicated positions must equal the
//! leader's.

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cqt_core::ExecScratch;
use cqt_service::{
    answer_fingerprint, durable_positions, Corpus, CorpusMutationOracle, DocId, Durability,
    NetServer, NetServerConfig, PlanCache, PlanKey, PlanOptions, QuerySpec, ReplicaFollower,
};
use cqt_trees::edit::EditScript;
use cqt_trees::generate::{random_edit_script, EditScriptConfig, LabelVocabulary};
use cqt_trees::Tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{self, CorpusShape};
use crate::trace::{chunked, median, quantile, ratio, SpanTotals, Tracer};
use crate::{timed_setup, Args, Report};

const SNAPSHOT_EVERY: u64 = 8;
const SHARDS: usize = 4;
/// Recoveries and replica catch-ups per run; each reports the median.
const REPEATS: usize = 3;
/// Equal runs of commits (and of reads) each latency figure is taken over.
const CHUNKS: usize = 21;
/// The traced run records the spans of one read in this many (a power of
/// two).
const READ_TRACE_EVERY: u64 = 64;
/// Commits the traced replay re-applies per pass.
const REPLAY_COMMITS: usize = 160;
const QUERIES: [&str; 3] = [
    "Q(x) :- A(x).",
    "Q(y) :- A(x), Child(x, y), B(y).",
    "Q(y) :- C(x), Child+(x, y), E(y).",
];

fn queries() -> Vec<QuerySpec> {
    QUERIES
        .iter()
        .map(|q| QuerySpec::parse_cq(q).expect("durable-write queries parse"))
        .collect()
}

fn script_config() -> EditScriptConfig {
    EditScriptConfig {
        edits: 3,
        insert_weight: 1,
        delete_weight: 1,
        relabel_weight: 4,
        ..EditScriptConfig::default()
    }
}

fn durability(dir: &std::path::Path) -> Durability {
    Durability::Wal {
        dir: dir.to_path_buf(),
        snapshot_every: SNAPSHOT_EVERY,
    }
}

/// A durable corpus in its own directory, removed on drop.
struct Setup {
    corpus: Option<Arc<Corpus>>,
    dir: PathBuf,
    ids: Vec<DocId>,
    initial: Vec<Tree>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.corpus.take();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn open(dir: PathBuf, seed: u64, shape: &CorpusShape) -> Setup {
    let _ = std::fs::remove_dir_all(&dir);
    let (corpus, recovered) =
        Corpus::open_durable(SHARDS, durability(&dir)).expect("open a fresh durable corpus");
    assert!(
        recovered.documents.is_empty(),
        "the WAL directory starts empty"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0064_7572_6162_6c65);
    let (ids, initial) = common::populate(&corpus, &mut rng, shape);
    Setup {
        corpus: Some(Arc::new(corpus)),
        dir,
        ids,
        initial,
    }
}

fn setup(args: &Args, attempt: usize, shape: &CorpusShape) -> Setup {
    let dir =
        std::path::Path::new(crate::OUT_DIR).join(format!("wal-{}-{attempt}", std::process::id()));
    let setup = open(dir, args.seed, shape);
    // Warm-up: one read of every (document, query) builds the lazy label
    // sets the reader's first epoch needs.
    let corpus = setup.corpus.as_ref().expect("open corpus");
    let specs = queries();
    let options = PlanOptions::default();
    let cache = PlanCache::new();
    let mut scratch = ExecScratch::new();
    for id in &setup.ids {
        let document = corpus.get(id).expect("inserted document");
        let snapshot = document.handle().snapshot();
        for spec in &specs {
            let key = PlanKey::of_spec(spec)
                .with_options(&options)
                .with_document(snapshot.prepared.structure_hash());
            let plan = cache.get_or_compile_tagged(key, spec, &options, document.doc_tag());
            std::hint::black_box(plan.execute(&snapshot.prepared, &mut scratch));
        }
    }
    setup
}

/// One committed write.
struct Commit {
    doc: usize,
    epoch: u64,
    latency_ns: u64,
    carried_label_sets: u64,
    carried_relations: u64,
}

/// One checked read: document, query, epoch seen, answer fingerprint.
type Observation = (usize, usize, u64, u64);

struct Reads {
    count: u64,
    /// Read latencies in nanoseconds (`u32`: the reader issues millions).
    latencies_ns: Vec<u32>,
    /// Distinct observations; every read lands in one.
    observations: HashSet<Observation>,
    label_set_builds: u64,
    relation_builds: u64,
    plan_hits: u64,
    plan_misses: u64,
    spans: BTreeMap<&'static str, SpanTotals>,
}

/// The reader: round-robin over documents and queries until the writer
/// stops, each read through a document-bound plan-cache lookup on the
/// snapshot it executes against.
fn read_loop(corpus: &Corpus, ids: &[DocId], writing: &AtomicBool, trace: bool) -> Reads {
    let specs = queries();
    let options = PlanOptions::default();
    let keys: Vec<PlanKey> = specs
        .iter()
        .map(|s| PlanKey::of_spec(s).with_options(&options))
        .collect();
    let cache = PlanCache::new();
    let mut scratch = ExecScratch::new();
    let mut tr = Tracer::new(trace);
    let mut reads = Reads {
        count: 0,
        latencies_ns: Vec::new(),
        observations: HashSet::new(),
        label_set_builds: 0,
        relation_builds: 0,
        plan_hits: 0,
        plan_misses: 0,
        spans: BTreeMap::new(),
    };
    let mut n = 0u64;
    while writing.load(Ordering::Acquire) {
        for (d, id) in ids.iter().enumerate() {
            for (q, spec) in specs.iter().enumerate() {
                let start = Instant::now();
                tr.set_enabled(trace && n & (READ_TRACE_EVERY - 1) == 0);
                tr.set_request(n);
                tr.enter("request");
                let document = tr.time("shard.select", || corpus.get(id).expect("document stays"));
                let snapshot = tr.time("corpus.snapshot", || document.handle().snapshot());
                let plan = tr.time("plan.lookup", || {
                    cache.get_or_compile_tagged(
                        keys[q].with_document(snapshot.prepared.structure_hash()),
                        spec,
                        &options,
                        document.doc_tag(),
                    )
                });
                let builds = (
                    snapshot.prepared.label_set_builds(),
                    snapshot.prepared.relation_builds(),
                );
                let name = common::exec_span(spec, &plan);
                let answer = tr.time(name, || plan.execute(&snapshot.prepared, &mut scratch));
                let fingerprint = tr.time("fingerprint", || answer_fingerprint(q as u64, &answer));
                tr.exit();
                let elapsed = start.elapsed().as_nanos();
                reads
                    .latencies_ns
                    .push(u32::try_from(elapsed).unwrap_or(u32::MAX));
                reads.label_set_builds += snapshot.prepared.label_set_builds() - builds.0;
                reads.relation_builds += snapshot.prepared.relation_builds() - builds.1;
                reads
                    .observations
                    .insert((d, q, snapshot.epoch, fingerprint));
                n += 1;
            }
        }
    }
    reads.count = n;
    let stats = cache.stats();
    reads.plan_hits = stats.hits;
    reads.plan_misses = stats.misses;
    reads.spans = tr.totals();
    reads
}

pub fn run(args: &Args, report: &mut Report) {
    let shape = CorpusShape {
        documents: 8,
        nodes_per_document: 2_000,
        distinct: 8,
        vocabulary: LabelVocabulary::Shared,
        hot_tags: false,
    };
    let (mut setup, setup_s) = timed_setup(|attempt| setup(args, attempt, &shape));
    report.set("setup_s", setup_s);
    let corpus = setup.corpus.clone().expect("open corpus");
    common::describe_corpus(report, &corpus, &shape);
    report.describe(
        "load",
        format!(
            "{{\"writers\": 1, \"readers\": 1, \"snapshot_every\": {SNAPSHOT_EVERY}, \
             \"edits_per_script\": {}, \"queries\": {}}}",
            script_config().edits,
            QUERIES.len()
        ),
    );

    // The write phase.
    let budget = args.seconds * if args.trace { 0.4 } else { 0.7 };
    let writing = AtomicBool::new(true);
    let mut scripts: Vec<Vec<EditScript>> = vec![Vec::new(); setup.ids.len()];
    let mut commits: Vec<Commit> = Vec::new();
    let reads = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_loop(&corpus, &setup.ids, &writing, args.trace));
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7772_6974_6572);
        let config = script_config();
        let start = Instant::now();
        // Past the budget, run on to the middle of a snapshot cycle, so every
        // log ends holding `SNAPSHOT_EVERY / 2` records for recovery and
        // replication to replay, whatever the timing.
        let cycle = SNAPSHOT_EVERY as usize * setup.ids.len();
        while start.elapsed().as_secs_f64() < budget || commits.len() % cycle != cycle / 2 {
            let doc = commits.len() % setup.ids.len();
            let id = &setup.ids[doc];
            let script = {
                let snapshot = corpus.snapshot(id).expect("document exists");
                random_edit_script(&mut rng, snapshot.prepared.tree(), &config)
            };
            let began = Instant::now();
            let committed = corpus.commit(id, &script).expect("generated scripts apply");
            commits.push(Commit {
                doc,
                epoch: committed.epoch,
                latency_ns: began.elapsed().as_nanos() as u64,
                carried_label_sets: committed.carried_label_sets,
                carried_relations: committed.carried_relations,
            });
            scripts[doc].push(script);
        }
        writing.store(false, Ordering::Release);
        reader.join().expect("reader thread")
    });
    report.attempted += commits.len() as u64 + reads.count;

    // Every read must equal the oracle's answer at the epoch it saw.
    let initial: BTreeMap<DocId, Tree> = setup
        .ids
        .iter()
        .cloned()
        .zip(setup.initial.iter().cloned())
        .collect();
    let writers: BTreeMap<DocId, Vec<EditScript>> = setup
        .ids
        .iter()
        .cloned()
        .zip(scripts.iter().cloned())
        .collect();
    let oracle =
        CorpusMutationOracle::build(&initial, &writers, &queries(), &PlanOptions::default())
            .expect("oracle replays the committed scripts");
    for &(d, q, epoch, fingerprint) in &reads.observations {
        let want = oracle
            .for_document(&setup.ids[d])
            .and_then(|o| o.expected(q, epoch));
        if want != Some(fingerprint) {
            report.fail(format!(
                "read of {} query {q} at epoch {epoch}: {fingerprint:#x}, oracle {want:x?}",
                setup.ids[d]
            ));
        }
    }

    // Each latency figure is taken per `CHUNKS` equal runs of consecutive
    // commits (reads), at the lower quartile across runs: the commit path
    // waits on the shared machine's disk, whose speed drifts within a run.
    let commit_us: Vec<f64> = commits.iter().map(|c| c.latency_ns as f64 / 1e3).collect();
    let commits_per_s = ratio(commits.len() as f64, commit_us.iter().sum::<f64>() / 1e6);
    let c50 = chunked(&commit_us, CHUNKS, 0.25, |c| quantile(c, 0.5));
    let c95 = chunked(&commit_us, CHUNKS, 0.25, |c| quantile(c, 0.95));
    // The gated tail leaves out the commits that also write a snapshot
    // (every `SNAPSHOT_EVERY`th epoch): those wait on several fsyncs of a
    // fresh file, whose cost on a shared disk drifts by a quarter between
    // runs. Their cost is printed above and traced as `wal.snapshot_commit_us`.
    let log_only_us: Vec<f64> = commits
        .iter()
        .filter(|c| c.epoch % SNAPSHOT_EVERY != 0)
        .map(|c| c.latency_ns as f64 / 1e3)
        .collect();
    let log_p95 = chunked(&log_only_us, CHUNKS, 0.25, |c| quantile(c, 0.95));
    let read_us: Vec<f64> = reads
        .latencies_ns
        .iter()
        .map(|&ns| f64::from(ns) / 1e3)
        .collect();
    let r50 = chunked(&read_us, CHUNKS, 0.25, |c| quantile(c, 0.5));
    let r95 = chunked(&read_us, CHUNKS, 0.25, |c| quantile(c, 0.95));
    let reads_per_s = ratio(read_us.len() as f64, budget);
    // Commit throughput is printed, not gated: in a closed loop it is the
    // inverse of the mean commit latency, which the snapshot commits
    // dominate.
    report.set("throughput_per_s", reads_per_s);
    report.set("p50_us", c50);
    report.set("tail_us", log_p95);
    report.set("side_p50_us", r50);
    report.set("side_tail_us", r95);

    // Cold recovery and replica catch-up from the leader's directory.
    let leader: BTreeMap<String, (u64, u64)> = setup
        .ids
        .iter()
        .map(|id| {
            let snapshot = corpus.snapshot(id).expect("document exists");
            (
                id.as_str().to_string(),
                (snapshot.epoch, snapshot.prepared.tree().structure_digest()),
            )
        })
        .collect();
    let wal = corpus.durability_stats();
    drop(corpus);
    setup.corpus.take();
    let (recover_s, records, recovered) = recover(&setup, &leader, report);
    let (catchup_s, streamed) = catch_up(&setup, recovered, report);
    println!(
        "e2e commits_per_s={commits_per_s:.1} commit_p50_us={c50:.1} commit_p95_us={c95:.1} \
         log_only_commit_p95_us={log_p95:.1} \
         qps={reads_per_s:.1} p50_us={r50:.1} p95_us={r95:.1} recover_s={recover_s:.6} catchup_s={catchup_s:.6}"
    );
    report.describe(
        "samples",
        format!(
            "{{\"commits\": {}, \"reads\": {}, \"distinct_observations\": {}, \"recoveries\": {REPEATS}, \
             \"catchups\": {REPEATS}, \"max_epoch\": {}}}",
            commits.len(),
            reads.count,
            reads.observations.len(),
            commits.iter().map(|c| c.epoch).max().unwrap_or(0)
        ),
    );
    if !args.trace {
        return;
    }

    report.set("recovery.recover_s", recover_s);
    report.set("recovery.records_per_s", ratio(records as f64, recover_s));
    report.set("replica.sync_s", catchup_s);
    report.set("replica.records_streamed", streamed.0 as f64);
    report.set("replica.snapshots_streamed", streamed.1 as f64);
    report.set(
        "wal.bytes_per_commit",
        ratio(wal.log_bytes as f64, wal.log_records as f64),
    );
    report.set(
        "plan.hit_rate",
        ratio(
            reads.plan_hits as f64,
            (reads.plan_hits + reads.plan_misses) as f64,
        ),
    );
    report.set("prepared.label_set_builds", reads.label_set_builds as f64);
    report.set("prepared.relation_builds", reads.relation_builds as f64);
    let n = commits.len().max(1) as f64;
    report.set(
        "prepared.carried_label_sets",
        commits.iter().map(|c| c.carried_label_sets).sum::<u64>() as f64 / n,
    );
    report.set(
        "prepared.carried_relations",
        commits.iter().map(|c| c.carried_relations).sum::<u64>() as f64 / n,
    );
    replay(
        args,
        &setup,
        &commits,
        &scripts,
        &oracle,
        reads.spans,
        report,
    );
}

/// Reopens the leader's directory [`REPEATS`] times; every recovered
/// document must sit at the leader's epoch and structure digest. Returns
/// the median time, the records replayed, and the last recovered corpus.
fn recover(
    setup: &Setup,
    leader: &BTreeMap<String, (u64, u64)>,
    report: &mut Report,
) -> (f64, u64, Arc<Corpus>) {
    let mut times = Vec::new();
    let mut records = 0;
    let mut last = None;
    for _ in 0..REPEATS {
        drop(last.take());
        let start = Instant::now();
        let (corpus, recovery) = Corpus::open_durable(SHARDS, durability(&setup.dir))
            .expect("the leader's log recovers");
        times.push(start.elapsed().as_secs_f64());
        report.attempted += 1;
        records = recovery.documents.iter().map(|d| d.replayed_records).sum();
        let recovered: BTreeMap<String, (u64, u64)> = setup
            .ids
            .iter()
            .filter_map(|id| {
                corpus.snapshot(id).map(|s| {
                    (
                        id.as_str().to_string(),
                        (s.epoch, s.prepared.tree().structure_digest()),
                    )
                })
            })
            .collect();
        if &recovered != leader {
            report.fail("recovered epochs or structure digests differ from the leader's");
        }
        last = Some(Arc::new(corpus));
    }
    (
        median(&times),
        records,
        last.expect("at least one recovery"),
    )
}

/// Serves the recovered corpus and syncs [`REPEATS`] fresh replicas from
/// it; each must end at exactly the durable positions of the directory.
fn catch_up(setup: &Setup, recovered: Arc<Corpus>, report: &mut Report) -> (f64, (u64, u64)) {
    let durable = durable_positions(&setup.dir).expect("durable positions read");
    let key = |p: &cqt_service::net::WirePosition| (p.doc_id.clone(), p.epoch, p.digest);
    let mut want: Vec<_> = durable.iter().map(key).collect();
    want.sort();
    let server = NetServer::start(recovered, NetServerConfig::default())
        .expect("serve the recovered corpus");
    let mut times = Vec::new();
    let mut streamed = (0, 0);
    for _ in 0..REPEATS {
        let replica = ReplicaFollower::new(server.addr(), SHARDS);
        let start = Instant::now();
        let progress = replica.sync();
        times.push(start.elapsed().as_secs_f64());
        report.attempted += 1;
        match progress {
            Ok(progress) => streamed = (progress.records_applied, progress.snapshots_loaded),
            Err(error) => {
                report.fail(format!("replica sync failed: {error:?}"));
                continue;
            }
        }
        let mut got: Vec<_> = replica.positions().iter().map(key).collect();
        got.sort();
        if got != want {
            report.fail("replica positions differ from the durable positions");
        }
    }
    server.shutdown();
    (median(&times), streamed)
}

/// Re-applies the first committed scripts in commit order through the write
/// path's layers: the edit itself, the prepared-tree carry-over, an
/// in-memory commit, and the durable commit (log append + fsync, or a
/// snapshot). Each pass starts from fresh corpora; the final answers must
/// equal the oracle's.
fn replay(
    args: &Args,
    setup: &Setup,
    commits: &[Commit],
    scripts: &[Vec<EditScript>],
    oracle: &CorpusMutationOracle,
    read_spans: BTreeMap<&'static str, SpanTotals>,
    report: &mut Report,
) {
    let shape_docs = setup.ids.len();
    let order: Vec<(usize, usize, u64)> = {
        let mut next = vec![0usize; shape_docs];
        commits
            .iter()
            .take(REPLAY_COMMITS)
            .map(|c| {
                let k = next[c.doc];
                next[c.doc] += 1;
                (c.doc, k, c.epoch)
            })
            .collect()
    };
    let specs = queries();
    let mut failures = Vec::new();
    let mut passes = 0usize;
    let mut pass = |tr: &mut Tracer| {
        let dir = std::path::Path::new(crate::OUT_DIR)
            .join(format!("replay-{}-{passes}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (durable, _) =
            Corpus::open_durable(SHARDS, durability(&dir)).expect("open replay corpus");
        let memory = Corpus::new(SHARDS);
        for (id, tree) in setup.ids.iter().zip(&setup.initial) {
            durable
                .insert(id.clone(), tree.clone())
                .expect("fresh replay corpus");
            memory
                .insert(id.clone(), tree.clone())
                .expect("fresh replay corpus");
        }
        for (n, &(doc, k, epoch)) in order.iter().enumerate() {
            let id = &setup.ids[doc];
            let script = &scripts[doc][k];
            tr.set_request(n as u64);
            tr.enter("write");
            let before = memory.snapshot(id).expect("replayed document");
            let (tree, summary) = tr
                .time("edit.apply", || script.apply_to(before.prepared.tree()))
                .expect("committed scripts apply");
            std::hint::black_box(tr.time("prepared.prepare_edited", || {
                before.prepared.prepare_edited(tree, &summary)
            }));
            tr.time("corpus.commit", || memory.commit(id, script))
                .expect("in-memory commit");
            let name = if epoch % SNAPSHOT_EVERY == 0 {
                "wal.snapshot_commit"
            } else {
                "wal.commit"
            };
            tr.time(name, || durable.commit(id, script))
                .expect("durable commit");
            tr.exit();
        }
        // Final answers of both replicas against the oracle.
        let mut scratch = ExecScratch::new();
        for id in &setup.ids {
            for corpus in [&durable, &memory] {
                let snapshot = corpus.snapshot(id).expect("replayed document");
                for (q, spec) in specs.iter().enumerate() {
                    let plan = cqt_service::Plan::compile(spec, &PlanOptions::default()).0;
                    let got = answer_fingerprint(
                        q as u64,
                        &plan.execute(&snapshot.prepared, &mut scratch),
                    );
                    let want = oracle
                        .for_document(id)
                        .and_then(|o| o.expected(q, snapshot.epoch));
                    if want != Some(got) {
                        failures.push(format!(
                            "replayed {id} query {q} at epoch {} differs",
                            snapshot.epoch
                        ));
                    }
                }
            }
        }
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
        passes += 1;
    };
    let (tracer, overhead) = common::traced_and_untraced(2, &mut pass);
    report.attempted += passes as u64;
    for reason in failures {
        report.fail(reason);
    }
    let mut totals = tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    report.set(
        "wal.commit_overhead_us",
        (get("wal.commit").mean_ns() - get("corpus.commit").mean_ns()) / 1e3,
    );
    report.set(
        "wal.snapshot_commit_us",
        get("wal.snapshot_commit").mean_ns() / 1e3,
    );
    report.set("trace.overhead_pct", overhead);
    report.set("trace.spans", tracer.span_count() as f64);
    println!(
        "replay: {} commits per pass, tracing overhead {overhead:.2}%",
        order.len()
    );
    for (name, t) in read_spans {
        let entry = totals.entry(name).or_default();
        entry.calls += t.calls;
        entry.total_ns += t.total_ns;
        entry.self_ns += t.self_ns;
    }
    common::report_spans(report, &totals, &["request", "write"]);
    let path = std::path::Path::new(crate::OUT_DIR)
        .join(format!("durable-write-seed{}.spans.csv", args.seed));
    if let Err(e) = tracer.write_csv(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}
