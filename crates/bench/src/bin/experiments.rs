//! Table and figure regeneration harness.
//!
//! ```text
//! cargo run --release -p cqt-bench --bin experiments -- all
//! cargo run --release -p cqt-bench --bin experiments -- table1
//! cargo run --release -p cqt-bench --bin experiments -- table2
//! cargo run --release -p cqt-bench --bin experiments -- figure3
//! cargo run --release -p cqt-bench --bin experiments -- figure8
//! cargo run --release -p cqt-bench --bin experiments -- scaling
//! cargo run --release -p cqt-bench --bin experiments -- hardness
//! cargo run --release -p cqt-bench --bin experiments -- succinctness [max_n]
//! cargo run --release -p cqt-bench --bin experiments -- bench \
//!     [--bench-json out.json] [--bench-check ref.json]
//! cargo run --release -p cqt-bench --bin experiments -- serve \
//!     [--threads N] [--mutate] [--bench-json out.json] [--bench-check ref.json]
//! cargo run --release -p cqt-bench --bin experiments -- serve \
//!     --corpus N [--shards S] [--threads N] [--bench-json out.json] \
//!     [--bench-check ref.json]
//! cargo run --release -p cqt-bench --bin experiments -- net \
//!     [--target-qps N] [--corpus N --shards S] [--workers W] \
//!     [--queue-cap Q] [--connections C] [--bench-json out.json] \
//!     [--bench-check ref.json]
//! cargo run --release -p cqt-bench --bin experiments -- help
//! ```
//!
//! Each subcommand regenerates one of the paper's tables/figures
//! experimentally; EXPERIMENTS.md records the outputs next to the paper's
//! claims. Run `experiments help` (or `--help`) for the full flag
//! reference.
//!
//! The `bench` subcommand is the perf baseline harness: it times the
//! word-parallel semijoin kernels against the retained scalar baseline, and
//! the shipping arc-consistency engine against the previous-generation one,
//! across tree sizes 10³–10⁶ (10³–10⁴ under `--smoke`). `--bench-json`
//! writes the medians to a JSON file (the committed `BENCH_2.json` is one
//! such run); `--bench-check` compares the current smoke-scale AC-fixpoint
//! timing against a reference JSON and exits non-zero on a >3× regression —
//! CI runs this against the committed baseline.
//!
//! The `serve` subcommand is the throughput harness for the `cqt-service`
//! serving layer: it batches a mixed workload (acyclic / tractable-cyclic /
//! NP-hard conjunctive queries plus XPath) over a corpus holding one
//! document per tree, one request per (query, document) pair, runs it
//! single-threaded and multi-threaded, and reports QPS, p50/p99
//! latency, the multi-vs-single within-run speedup and the plan-cache
//! counters. `--bench-json` writes the numbers; `--bench-check` compares the
//! within-run speedup against a reference JSON (the committed `BENCH_3.json`)
//! and exits non-zero when it collapsed by more than 3× — like the kernel
//! gate, a ratio of two same-machine measurements, so runner speed (and
//! core count) largely cancel out.
//!
//! With `--mutate`, the `serve` subcommand instead benchmarks the
//! **epoch-swapped mutable corpus**: one writer thread commits random edit
//! scripts against a one-document corpus while N reader threads serve the
//! query mix, every observed answer is verified against the per-epoch
//! `CorpusMutationOracle` (the harness exits non-zero on any
//! epoch-consistency violation), and the read throughput is compared
//! against a writer-less run of the same read stream. `--bench-json`
//! writes the numbers (the committed `BENCH_4.json`); `--bench-check` gates
//! on the frozen/mutate throughput ratio — a within-run ratio, so machine
//! speed cancels out.
//!
//! With `--corpus N [--shards S]`, the `serve` subcommand benchmarks the
//! **sharded multi-document corpus** (`cqt-service::shard`): `N` named
//! documents (half of them structural clones, so cross-document plan-cache
//! sharing is observable) partitioned across `S` shards. Phase 1 runs a
//! frozen scatter–gather batch (fan-out to one document, a tagged subset,
//! and all documents) single- and multi-threaded and cross-checks their
//! fingerprints; phase 2 reruns the read stream with **multiple concurrent
//! writers** (one per mutated document) and verifies every observation
//! against the per-document `CorpusMutationOracle` — exiting non-zero on
//! any epoch-consistency or writer-isolation violation. `--bench-json`
//! writes the numbers (the committed `BENCH_5.json`); `--bench-check` gates
//! on the frozen/mutating read-throughput ratio (within-run, so machine
//! speed cancels) and requires a **nonzero cross-document plan-cache hit
//! rate**.
//!
//! The `net` subcommand benchmarks the **network serving front end**
//! (`cqt-service::net`): it starts the TCP server on localhost over the
//! same sharded corpus as `serve --corpus`, cross-checks the server's
//! answer fingerprints against an in-process `run_corpus` of the same mix,
//! then drives it **open-loop** over real sockets — once below the
//! admission threshold (zero shed expected) and once far above it (nonzero
//! shed required, queue wait of *admitted* requests bounded by the queue)
//! — and verifies every response: fingerprints, exact queue+exec=total
//! latency accounting, and shed-only-at-capacity. `--target-qps N` instead runs a
//! single phase at the given offered load. `--bench-json` writes the
//! numbers (the committed `BENCH_6.json`); every gate is in-run, so
//! `--bench-check` compares nothing against the reference.
//!
//! The `--smoke` flag (usable with any subcommand, and what CI runs) caps
//! every instance size so the full `all` sweep finishes in seconds: the
//! tables lose their statistical weight but every code path still executes.

use std::time::{Duration, Instant};

use cqt_bench::{
    benchmark_corpus, benchmark_tree, chain_query, fmt_duration, query_over_signature,
    scalar_arc_consistent_from, time_mean, time_median_ns,
};
use cqt_core::{
    Engine, EvalStrategy, MacSolver, SignatureAnalysis, Tractability, XPropertyEvaluator,
};
use cqt_hardness::nand;
use cqt_hardness::sat::OneInThreeInstance;
use cqt_hardness::thm51::{Thm51Reduction, Thm51Variant};
use cqt_query::cq::figure1_query;
use cqt_query::Signature;
use cqt_rewrite::diamonds::apq_size_for_diamond;
use cqt_rewrite::rewrite::{rewrite_to_apq_with, RewriteOptions};
use cqt_trees::{Axis, Order};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Instance sizes for the size-dependent experiments. `full()` regenerates
/// the paper-scale tables; `smoke()` caps everything so `all` finishes in
/// seconds (CI runs `experiments --smoke`).
struct Scale {
    /// Probe tree sizes for the polynomial Table I cells (small, large).
    probe_trees: (usize, usize),
    /// Repetitions per timing probe.
    probe_runs: usize,
    /// Tree size for the random-cyclic-query MAC probes of Table I.
    mac_tree: usize,
    /// Tree sizes swept by the Theorem 3.5 scaling experiment.
    scaling_sizes: &'static [usize],
    /// Clause counts swept by the Theorem 5.1 hardness experiment.
    hardness_clauses: &'static [usize],
    /// Default diamond bound for the succinctness experiment.
    succinctness_max_n: usize,
}

impl Scale {
    fn full() -> Self {
        Scale {
            probe_trees: (2_000, 8_000),
            probe_runs: 5,
            mac_tree: 150,
            scaling_sizes: &[500, 2_000, 8_000],
            hardness_clauses: &[2, 4, 6, 8],
            succinctness_max_n: 3,
        }
    }

    fn smoke() -> Self {
        Scale {
            probe_trees: (150, 600),
            probe_runs: 1,
            mac_tree: 60,
            scaling_sizes: &[100, 400],
            hardness_clauses: &[2, 3],
            succinctness_max_n: 2,
        }
    }
}

/// The CLI reference, printed by `experiments help` / `--help` and on
/// unknown input. Every subcommand and every flag added since the harness
/// first shipped is documented here.
fn usage() -> &'static str {
    "experiments — tables, figures and benchmark harnesses of the cq-trees workspace

USAGE:
    experiments [SUBCOMMAND] [FLAGS]

SUBCOMMANDS (default: all):
    all                 run every table/figure experiment below
    table1              Table I — tractability of one- and two-axis signatures
    table2              Table II — the NAND(k, l) offsets
    figure3             Figure 3 — X-property counterexamples (Example 4.5)
    figure8             Figure 8 — the worked CQ -> APQ rewrite
    scaling             Theorem 3.5 — evaluation time vs data size
    hardness            Theorem 5.1 — reduction solve time vs instance size
    succinctness [N]    Theorem 7.1 — APQ blow-up for the diamond queries D_n
    bench               perf baseline: semijoin kernels + AC fixpoint vs the
                        in-repo scalar baseline (committed as BENCH_2.json)
    serve               serving throughput: single- vs multi-threaded batch
                        over one document per tree (committed as BENCH_3.json)
    serve --mutate      epoch-swapped single-document corpus: 1 writer + N
                        readers under the CorpusMutationOracle (BENCH_4.json)
    serve --corpus N    sharded multi-document corpus: scatter-gather fan-out
                        plus multiple concurrent writers under per-document
                        oracles (BENCH_5.json)
    net                 network serving front end: TCP server + open-loop
                        load generation over real sockets, with answer
                        fingerprints cross-checked against in-process
                        run_corpus, queue-wait/execute latency accounting,
                        and explicit load-shedding gates (BENCH_6.json)
    prune               corpus-scale pruning: label/axis posting lists vs
                        unpruned scatter-gather on a low-selectivity corpus,
                        with a hard fingerprint-equality gate, a concurrent-
                        writer oracle phase, and pruning-rate/speedup gates
                        (BENCH_7.json)
    batch               batched execution: k queries per scatter-gather unit
                        (one fan-out, one snapshot and one warm pass per
                        document, whole-query dedup, hash-consed shared
                        steps) vs the same queries one-at-a-time, swept over
                        batch sizes 8..64 with a hard fingerprint-equality
                        gate at every size (BENCH_9.json)
    recover             durable write path: WAL + snapshot corpus, commits
                        under concurrent readers, a hard kill mid-record,
                        timed crash recovery and follower catch-up — every
                        recovered answer fingerprint gated against the
                        mutation oracle (BENCH_8.json)
    replicate           cross-process replication over TCP: a REPLICATE
                        stream subscribes a replica to the leader's logs,
                        the connection is torn mid-stream at a byte budget,
                        the replica reconnects with backoff, catches up
                        across a log truncation (snapshot fallback), and is
                        digest-gate promoted after the leader dies — every
                        leader/replica answer fingerprint compared at
                        caught-up epochs (BENCH_10.json)
    help                print this reference

FLAGS:
    --smoke             cap every instance size so the run finishes in
                        seconds (any subcommand; what CI runs)
    --threads N         reader/worker thread count for `serve`, `prune`,
                        `batch` and `recover` (default 4); `replicate`:
                        leader server worker threads (default 2)
    --mutate            `serve` only: benchmark the mutable single-document
                        corpus instead of the frozen batch
    --corpus N          `serve`: benchmark the sharded multi-document corpus
                        with N documents (includes a mutating phase;
                        exclusive with --mutate; mandatory meaning for
                        `serve`). `net`: corpus size behind the server
                        (default 12 smoke / 24 full). `prune`: corpus size
                        (default 16 smoke / 32 full). `batch`: corpus size
                        (default 8 smoke / 16 full). `recover` and
                        `replicate`: corpus size (default 6 smoke / 12 full)
    --shards S          with --corpus, `net`, `prune`, `batch`, `recover` or
                        `replicate`: number of shards (default 4)
    --batch-size N      `batch` only: benchmark a single batch size instead
                        of the default 8/16/64 sweep
    --vocab V           `prune` only: how the corpus templates' label
                        vocabularies relate — one of shared (every query
                        hits everything, pruning rate ~0), overlapping, or
                        disjoint (the low-selectivity extreme; the default
                        and what BENCH_7.json gates)
    --target-qps N      `net` only: run one open-loop phase at the given
                        offered load instead of the calibrated low/overload
                        pair (not combinable with --bench-check)
    --workers W         `net` only: server worker threads (default 2)
    --queue-cap Q       `net` only: admission-queue capacity; requests
                        arriving while Q jobs are queued get an explicit
                        SHED response (default 32)
    --connections C     `net` only: client TCP connections the open-loop
                        generator spreads requests over (default 2)
    --bench-json PATH   `bench`/`serve`/`net`/`prune`/`batch`/`recover`/
                        `replicate`: write the run's numbers as JSON
    --bench-check PATH  `bench`/`serve`/`net`/`prune`/`batch`/`recover`/
                        `replicate`: compare
                        against a committed reference JSON and exit non-zero
                        on a regression (each gate is a within-run ratio, so
                        machine speed cancels out; the corpus gate
                        additionally requires a nonzero cross-document
                        plan-cache hit rate, the net gates are all in-run —
                        zero fingerprint/accounting/shedding violations and
                        an overload queue wait bounded by the queue — the
                        prune gate requires pruning rate >= 50% and a
                        pruned-vs-unpruned speedup > 1.5x within the run,
                        the batch gate requires batched execution > 1.4x
                        faster per query than one-at-a-time at batch >= 16
                        and no worse than 0.75x on all-distinct batches of 8,
                        the recover gate requires zero post-recovery
                        fingerprint divergences on leader and follower, and
                        the replicate gate requires zero leader/replica
                        fingerprint divergences at every caught-up epoch, a
                        non-empty record stream, at least one snapshot
                        fallback, and a digest-gated promote)

Unknown flags and stray arguments are hard errors.
"
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Help detection must not look inside flag *values* (`--bench-json
    // help` names a file, not a request for help), so skip the argument
    // after each value-taking flag.
    const VALUE_FLAGS: [&str; 11] = [
        "--bench-json",
        "--bench-check",
        "--threads",
        "--corpus",
        "--shards",
        "--target-qps",
        "--workers",
        "--queue-cap",
        "--connections",
        "--vocab",
        "--batch-size",
    ];
    let mut wants_help = false;
    let mut skip_value = false;
    for arg in &args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if VALUE_FLAGS.contains(&arg.as_str()) {
            skip_value = true;
        } else if arg == "help" || arg == "--help" || arg == "-h" {
            wants_help = true;
        }
    }
    if wants_help {
        print!("{}", usage());
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let mutate = args.iter().any(|a| a == "--mutate");
    args.retain(|a| a != "--mutate");
    let take_value_flag = |args: &mut Vec<String>, flag: &str| -> Option<String> {
        let pos = args.iter().position(|a| a == flag)?;
        if pos + 1 >= args.len() {
            eprintln!("{flag} requires a value argument");
            std::process::exit(1);
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Some(value)
    };
    let parse_positive = |flag: &str, value: Option<String>| -> Option<usize> {
        value.map(|t| match t.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("{flag} requires a positive integer");
                std::process::exit(1);
            }
        })
    };
    let bench_json = take_value_flag(&mut args, "--bench-json");
    let bench_check = take_value_flag(&mut args, "--bench-check");
    let threads = parse_positive("--threads", take_value_flag(&mut args, "--threads"));
    let corpus = parse_positive("--corpus", take_value_flag(&mut args, "--corpus"));
    let shards = parse_positive("--shards", take_value_flag(&mut args, "--shards"));
    let target_qps = take_value_flag(&mut args, "--target-qps").map(|t| match t.parse::<f64>() {
        Ok(q) if q.is_finite() && q > 0.0 => q,
        _ => {
            eprintln!("--target-qps requires a positive number");
            std::process::exit(1);
        }
    });
    let workers = parse_positive("--workers", take_value_flag(&mut args, "--workers"));
    let queue_cap = parse_positive("--queue-cap", take_value_flag(&mut args, "--queue-cap"));
    let connections = parse_positive("--connections", take_value_flag(&mut args, "--connections"));
    let batch_size = parse_positive("--batch-size", take_value_flag(&mut args, "--batch-size"));
    let vocab = take_value_flag(&mut args, "--vocab");
    if let Some(v) = &vocab {
        if !matches!(v.as_str(), "shared" | "overlapping" | "disjoint") {
            eprintln!("--vocab must be one of shared|overlapping|disjoint, got {v:?}");
            std::process::exit(1);
        }
    }
    // Every known flag has been extracted; anything still dash-prefixed is
    // unknown and a hard error (silently ignoring it would let typos like
    // `--bench-jsom` run an entirely different experiment than intended).
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("unknown flag {flag:?}\n\n{}", usage());
        std::process::exit(1);
    }
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    let command = args.first().map(String::as_str).unwrap_or("all");
    // `succinctness` takes one optional positional (N); no other subcommand
    // takes any. Stray positionals are hard errors, same as unknown flags.
    let positional_limit = if command == "succinctness" { 2 } else { 1 };
    if args.len() > positional_limit {
        eprintln!(
            "unexpected argument {:?}\n\n{}",
            args[positional_limit],
            usage()
        );
        std::process::exit(1);
    }
    if !matches!(
        command,
        "bench" | "serve" | "net" | "prune" | "batch" | "recover" | "replicate"
    ) && (bench_json.is_some() || bench_check.is_some())
    {
        eprintln!(
            "--bench-json/--bench-check are only valid with `bench`, `serve`, `net`, `prune`, \
             `batch`, `recover` or `replicate`"
        );
        std::process::exit(1);
    }
    if command != "batch" && batch_size.is_some() {
        eprintln!("--batch-size is only valid with `batch`");
        std::process::exit(1);
    }
    if command != "serve" && mutate {
        eprintln!("--mutate is only valid with `serve`");
        std::process::exit(1);
    }
    if !matches!(
        command,
        "serve" | "prune" | "batch" | "recover" | "replicate"
    ) && threads.is_some()
    {
        eprintln!(
            "--threads is only valid with `serve`, `prune`, `batch`, `recover` or `replicate`"
        );
        std::process::exit(1);
    }
    if !matches!(
        command,
        "serve" | "net" | "prune" | "batch" | "recover" | "replicate"
    ) && (corpus.is_some() || shards.is_some())
    {
        eprintln!(
            "--corpus/--shards are only valid with `serve`, `net`, `prune`, `batch`, `recover` \
             or `replicate`"
        );
        std::process::exit(1);
    }
    if command != "prune" && vocab.is_some() {
        eprintln!("--vocab is only valid with `prune`");
        std::process::exit(1);
    }
    if command != "net"
        && (target_qps.is_some()
            || workers.is_some()
            || queue_cap.is_some()
            || connections.is_some())
    {
        eprintln!("--target-qps/--workers/--queue-cap/--connections are only valid with `net`");
        std::process::exit(1);
    }
    if mutate && corpus.is_some() {
        eprintln!("--mutate and --corpus are exclusive (the corpus mode includes mutation)");
        std::process::exit(1);
    }
    if command == "serve" && shards.is_some() && corpus.is_none() {
        eprintln!("--shards requires --corpus");
        std::process::exit(1);
    }
    if target_qps.is_some() && bench_check.is_some() {
        eprintln!("--target-qps runs a single custom phase; --bench-check needs the calibrated low/overload pair");
        std::process::exit(1);
    }
    match command {
        "table1" => table1(&scale),
        "table2" => table2(),
        "figure3" => figure3(),
        "figure8" => figure8(),
        "scaling" => scaling(&scale),
        "hardness" => hardness(&scale),
        "succinctness" => {
            let max_n = match args.get(1) {
                Some(s) => s.parse().unwrap_or_else(|_| {
                    eprintln!("succinctness expects a positive integer, got {s:?}");
                    std::process::exit(1);
                }),
                None => scale.succinctness_max_n,
            };
            succinctness(max_n);
        }
        "bench" => bench_baseline(smoke, bench_json.as_deref(), bench_check.as_deref()),
        "serve" => {
            if let Some(documents) = corpus {
                serve_corpus(
                    smoke,
                    threads,
                    documents,
                    shards.unwrap_or(4),
                    bench_json.as_deref(),
                    bench_check.as_deref(),
                );
            } else if mutate {
                serve_mutate(
                    smoke,
                    threads,
                    bench_json.as_deref(),
                    bench_check.as_deref(),
                );
            } else {
                serve(
                    smoke,
                    threads,
                    bench_json.as_deref(),
                    bench_check.as_deref(),
                );
            }
        }
        "prune" => serve_prune(
            smoke,
            threads,
            corpus,
            shards.unwrap_or(4),
            vocab.as_deref().unwrap_or("disjoint"),
            bench_json.as_deref(),
            bench_check.as_deref(),
        ),
        "batch" => serve_batched(
            smoke,
            threads,
            corpus,
            shards.unwrap_or(4),
            batch_size,
            bench_json.as_deref(),
            bench_check.as_deref(),
        ),
        "recover" => serve_recover(
            smoke,
            threads,
            corpus,
            shards.unwrap_or(4),
            bench_json.as_deref(),
            bench_check.as_deref(),
        ),
        "replicate" => serve_replicate(
            smoke,
            threads,
            corpus,
            shards.unwrap_or(4),
            bench_json.as_deref(),
            bench_check.as_deref(),
        ),
        "net" => serve_net(NetRunConfig {
            smoke,
            target_qps,
            workers: workers.unwrap_or(2),
            queue_capacity: queue_cap.unwrap_or(32),
            connections: connections.unwrap_or(2),
            documents: corpus.unwrap_or(if smoke { 12 } else { 24 }),
            shards: shards.unwrap_or(4),
            json: bench_json,
            check: bench_check,
        }),
        "all" => {
            table1(&scale);
            table2();
            figure3();
            figure8();
            scaling(&scale);
            hardness(&scale);
            succinctness(scale.succinctness_max_n);
        }
        other => {
            eprintln!("unknown experiment {other:?}\n\n{}", usage());
            std::process::exit(1);
        }
    }
}

fn header(title: &str) {
    println!("\n==== {title} ====");
}

/// Table I: the complexity of conjunctive queries for every one- and two-axis
/// signature — machine classification plus an empirical probe per cell.
fn table1(scale: &Scale) {
    header("Table I — tractability of one- and two-axis signatures");
    println!(
        "{:<14} {:<14} {:<34} empirical probe",
        "axis 1", "axis 2", "classification"
    );
    for (a, b, classification) in SignatureAnalysis::table1() {
        let signature = if a == b {
            Signature::from_axes([a])
        } else {
            Signature::from_axes([a, b])
        };
        let probe = match &classification {
            Tractability::PolynomialTime { order } => polynomial_probe(&signature, *order, scale),
            Tractability::NpHard { .. } => np_hard_probe(&signature, scale),
        };
        let cell_b = if a == b {
            "(single axis)".to_owned()
        } else {
            b.to_string()
        };
        println!(
            "{:<14} {:<14} {:<34} {}",
            a.to_string(),
            cell_b,
            classification.to_string(),
            probe
        );
    }
}

/// Probe for a polynomial cell: evaluate a chain query over the signature on
/// trees of two sizes and report the time ratio (≈ the size ratio for the
/// near-linear X̲-property algorithm).
fn polynomial_probe(signature: &Signature, order: Order, scale: &Scale) -> String {
    let axes: Vec<Axis> = signature.iter().collect();
    let mut query = cqt_query::ConjunctiveQuery::new();
    // A chain alternating through the signature's axes.
    let mut prev = query.var("x0");
    query.add_label(prev, "A");
    for i in 1..8 {
        let next = query.var(&format!("x{i}"));
        query.add_axis(axes[i % axes.len()], prev, next);
        if i % 2 == 0 {
            query.add_label(next, "B");
        }
        prev = next;
    }
    let (small_nodes, large_nodes) = scale.probe_trees;
    let small_tree = benchmark_tree(small_nodes, 11);
    let large_tree = benchmark_tree(large_nodes, 12);
    let small = time_mean(scale.probe_runs, || {
        let eval = XPropertyEvaluator::with_order(&small_tree, order);
        std::hint::black_box(eval.eval_boolean(&query));
    });
    let large = time_mean(scale.probe_runs, || {
        let eval = XPropertyEvaluator::with_order(&large_tree, order);
        std::hint::black_box(eval.eval_boolean(&query));
    });
    format!(
        "eval {} @{} nodes, {} @{} nodes (x{:.1} for x{} data)",
        fmt_duration(small),
        small_nodes,
        fmt_duration(large),
        large_nodes,
        large.as_secs_f64() / small.as_secs_f64().max(1e-9),
        large_nodes / small_nodes
    )
}

/// Probe for an NP-hard cell: solve a hard instance with the complete MAC
/// solver and report its size and the number of branching decisions.
fn np_hard_probe(signature: &Signature, scale: &Scale) -> String {
    // For the two signatures of Theorem 5.1 use the actual Figure 4
    // reduction; for the others use a random cyclic query over the signature.
    let child = signature.contains(Axis::Child);
    let plus = signature.contains(Axis::ChildPlus);
    let star = signature.contains(Axis::ChildStar);
    if child && (plus || star) && signature.len() == 2 {
        let variant = if plus {
            Thm51Variant::Tau4ChildPlus
        } else {
            Thm51Variant::Tau5ChildStar
        };
        let mut rng = StdRng::seed_from_u64(5);
        let instance = OneInThreeInstance::random_satisfiable(&mut rng, 9, 5);
        let reduction = Thm51Reduction::new(instance, variant);
        let start = Instant::now();
        let (sat, stats) =
            MacSolver::new(&reduction.tree).eval_boolean_with_stats(&reduction.query);
        format!(
            "Thm 5.1 reduction (5 clauses): sat={sat}, {} decisions, {}",
            stats.decisions,
            fmt_duration(start.elapsed())
        )
    } else {
        let query = query_over_signature(signature, 7, 23);
        let tree = benchmark_tree(scale.mac_tree, 17);
        let start = Instant::now();
        let (sat, stats) = MacSolver::new(&tree).eval_boolean_with_stats(&query);
        format!(
            "random cyclic query ({} atoms): sat={sat}, {} decisions, {}",
            query.size(),
            stats.decisions,
            fmt_duration(start.elapsed())
        )
    }
}

/// Table II: the NAND offsets of the Theorem 5.2 gadget.
fn table2() {
    header("Table II — the NAND(k, l) offsets");
    println!("k\\l      1     2     3");
    for k in 1..=3 {
        println!(
            "{k}      {:>3}   {:>3}   {:>3}",
            nand(k, 1),
            nand(k, 2),
            nand(k, 3)
        );
    }
}

/// Figure 3: the X̲-property counterexamples of Example 4.5.
fn figure3() {
    use cqt_core::xproperty::{figure3a_tree, figure3b_tree, x_property_violation};
    header("Figure 3 — X-property counterexamples (Example 4.5)");
    let a = figure3a_tree();
    println!("(a) tree: {}", cqt_trees::parse::to_term(&a));
    match x_property_violation(&a, Axis::Following, Order::Pre) {
        Some(v) => println!(
            "    Following violates the X-property wrt <pre: witness n0={:?} n1={:?} n2={:?} n3={:?}",
            v.n0, v.n1, v.n2, v.n3
        ),
        None => println!("    unexpected: no violation found"),
    }
    println!(
        "    Following wrt <post on the same tree: {}",
        if x_property_violation(&a, Axis::Following, Order::Post).is_none() {
            "X-property holds (Theorem 4.1)"
        } else {
            "violated (unexpected)"
        }
    );
    let b = figure3b_tree();
    println!("(b) tree: {}", cqt_trees::parse::to_term(&b));
    for axis in [Axis::AncestorPlus, Axis::AncestorStar] {
        match x_property_violation(&b, axis, Order::Post) {
            Some(v) => println!(
                "    {axis} violates the X-property wrt <post: witness n0={:?} n1={:?} n2={:?} n3={:?}",
                v.n0, v.n1, v.n2, v.n3
            ),
            None => println!("    unexpected: no violation found for {axis}"),
        }
    }
}

/// Figure 8: the worked CQ → APQ rewrite of the introduction query.
fn figure8() {
    header("Figure 8 — rewriting the Figure 1 query into an APQ");
    let query = figure1_query();
    println!("input ({} atoms): {query}", query.size());
    let start = Instant::now();
    let (apq, stats) = rewrite_to_apq_with(&query, &RewriteOptions::default()).unwrap();
    println!(
        "rewritten in {} — {} lifter applications, {} directed-cycle collapses, {} unsatisfiable branches pruned",
        fmt_duration(start.elapsed()),
        stats.lifter_applications,
        stats.directed_collapses,
        stats.unsat_pruned
    );
    println!(
        "result: {} acyclic disjunct(s), total size {}",
        apq.len(),
        apq.size()
    );
    for (i, disjunct) in apq.iter().enumerate().take(8) {
        println!("  [{i}] {disjunct}");
    }
    if apq.len() > 8 {
        println!("  … ({} more)", apq.len() - 8);
    }
}

/// Theorem 3.5 scaling: evaluation time vs tree size for the three tractable
/// signature families, with the MAC and naive evaluators as baselines.
fn scaling(scale: &Scale) {
    header("Theorem 3.5 — evaluation time vs data size on tractable signatures");
    let families = [
        ("tau1 {Child+, Child*}", Axis::ChildPlus, Order::Pre),
        ("tau2 {Following}", Axis::Following, Order::Post),
        ("tau3 {Child, NextSibling+}", Axis::Child, Order::Bflr),
    ];
    println!(
        "{:<28} {:>8} {:>12} {:>12} {:>12}",
        "family", "nodes", "X-property", "MAC", "naive"
    );
    for (name, axis, order) in families {
        let query = chain_query(axis, 6);
        for &nodes in scale.scaling_sizes {
            let tree = benchmark_tree(nodes, 31);
            let xp = time_mean(scale.probe_runs, || {
                let eval = XPropertyEvaluator::with_order(&tree, order);
                std::hint::black_box(eval.eval_boolean(&query));
            });
            let mac = time_mean(scale.probe_runs, || {
                std::hint::black_box(MacSolver::new(&tree).eval_boolean(&query));
            });
            let naive = if nodes <= 500 {
                fmt_duration(time_mean(1, || {
                    std::hint::black_box(
                        Engine::with_strategy(EvalStrategy::Naive).eval_boolean(&tree, &query),
                    );
                }))
            } else {
                "(skipped)".to_owned()
            };
            println!(
                "{:<28} {:>8} {:>12} {:>12} {:>12}",
                name,
                nodes,
                fmt_duration(xp),
                fmt_duration(mac),
                naive
            );
        }
    }
}

/// Section 5 hardness: MAC solve time for the Theorem 5.1 reduction as the
/// number of clauses grows (satisfiable and unsatisfiable instances).
fn hardness(scale: &Scale) {
    header("Theorem 5.1 — reduction solve time vs instance size");
    println!(
        "{:<34} {:>10} {:>12} {:>12} {:>10}",
        "instance", "|Q| atoms", "decisions", "time", "result"
    );
    let mut rng = StdRng::seed_from_u64(99);
    for &clauses in scale.hardness_clauses {
        let instance =
            OneInThreeInstance::random_satisfiable(&mut rng, 3 * clauses.max(1), clauses);
        report_reduction(
            &format!("planted satisfiable, {clauses} clauses"),
            &instance,
        );
    }
    report_reduction(
        "unsatisfiable K4 family",
        &OneInThreeInstance::unsatisfiable_k4(),
    );
}

fn report_reduction(name: &str, instance: &OneInThreeInstance) {
    let reduction = Thm51Reduction::new(instance.clone(), Thm51Variant::Tau4ChildPlus);
    let start = Instant::now();
    let (sat, stats) = MacSolver::new(&reduction.tree).eval_boolean_with_stats(&reduction.query);
    let elapsed = start.elapsed();
    assert_eq!(sat, instance.is_satisfiable(), "reduction must track SAT");
    println!(
        "{:<34} {:>10} {:>12} {:>12} {:>10}",
        name,
        reduction.query.size(),
        stats.decisions,
        fmt_duration(elapsed),
        if sat { "sat" } else { "unsat" }
    );
}

/// One row of the kernel comparison in the `bench` subcommand.
struct KernelRow {
    kernel: &'static str,
    axis: Axis,
    nodes: usize,
    scalar_ns: f64,
    word_ns: f64,
}

/// One row of the AC-fixpoint comparison in the `bench` subcommand.
struct AcRow {
    nodes: usize,
    scalar_ns: f64,
    word_ns: f64,
}

/// The perf baseline harness: semijoin kernels (scalar vs word-parallel),
/// end-to-end arc-consistency fixpoints (previous-generation engine vs the
/// shipping one) and an engine evaluation probe, with medians optionally
/// written to `--bench-json` and regression-checked against `--bench-check`.
fn bench_baseline(smoke: bool, json_path: Option<&str>, check_path: Option<&str>) {
    use cqt_core::arc::{arc_consistent_from, initial_prevaluation};
    use cqt_core::support::{pre_supported_sources, pre_supported_targets, scalar};
    use cqt_trees::NodeSet;

    header("Perf baseline — word-parallel semijoin kernels vs scalar baseline");
    let sizes: &[usize] = if smoke {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    let samples = if smoke { 3 } else { 5 };
    let axes = [Axis::ChildStar, Axis::Following, Axis::NextSiblingPlus];

    let mut kernel_rows: Vec<KernelRow> = Vec::new();
    let mut ac_rows: Vec<AcRow> = Vec::new();
    let mut engine_rows: Vec<(usize, f64)> = Vec::new();

    println!(
        "{:<10} {:<16} {:>10} {:>14} {:>14} {:>9}",
        "kernel", "axis", "nodes", "scalar", "word-parallel", "speedup"
    );
    for &nodes in sizes {
        let tree = benchmark_tree(nodes, 7);
        // A realistically dense candidate set (~1/5 of the nodes).
        let set = tree.nodes_with_label_name("A");
        let mut out = NodeSet::empty(nodes);
        for axis in axes {
            for (kernel, scalar_ns, word_ns) in [
                (
                    "sources",
                    time_median_ns(samples, || {
                        std::hint::black_box(scalar::supported_sources(&tree, axis, &set));
                    }),
                    time_median_ns(samples, || {
                        pre_supported_sources(&tree, axis, &set, &mut out);
                        std::hint::black_box(&out);
                    }),
                ),
                (
                    "targets",
                    time_median_ns(samples, || {
                        std::hint::black_box(scalar::supported_targets(&tree, axis, &set));
                    }),
                    time_median_ns(samples, || {
                        pre_supported_targets(&tree, axis, &set, &mut out);
                        std::hint::black_box(&out);
                    }),
                ),
            ] {
                println!(
                    "{:<10} {:<16} {:>10} {:>14} {:>14} {:>8.1}x",
                    kernel,
                    axis.to_string(),
                    nodes,
                    fmt_ns(scalar_ns),
                    fmt_ns(word_ns),
                    scalar_ns / word_ns.max(1.0)
                );
                kernel_rows.push(KernelRow {
                    kernel,
                    axis,
                    nodes,
                    scalar_ns,
                    word_ns,
                });
            }
        }

        // End-to-end arc-consistency fixpoint on a Child+ chain query.
        let query = chain_query(Axis::ChildPlus, 6);
        let scalar_ns = time_median_ns(samples, || {
            std::hint::black_box(scalar_arc_consistent_from(
                &tree,
                &query,
                initial_prevaluation(&tree, &query),
            ));
        });
        let word_ns = time_median_ns(samples, || {
            std::hint::black_box(arc_consistent_from(
                &tree,
                &query,
                initial_prevaluation(&tree, &query),
            ));
        });
        println!(
            "{:<10} {:<16} {:>10} {:>14} {:>14} {:>8.1}x",
            "ac-fix",
            "Child+ chain",
            nodes,
            fmt_ns(scalar_ns),
            fmt_ns(word_ns),
            scalar_ns / word_ns.max(1.0)
        );
        ac_rows.push(AcRow {
            nodes,
            scalar_ns,
            word_ns,
        });

        // Engine evaluation probe (shipping path only; trajectory metric).
        let eval_ns = time_median_ns(samples, || {
            let eval = XPropertyEvaluator::with_order(&tree, Order::Pre);
            std::hint::black_box(eval.eval_boolean(&query));
        });
        println!(
            "{:<10} {:<16} {:>10} {:>14} {:>14} {:>9}",
            "engine",
            "X-prop boolean",
            nodes,
            "-",
            fmt_ns(eval_ns),
            "-"
        );
        engine_rows.push((nodes, eval_ns));
    }

    // The smoke anchor: the AC fixpoint at the smallest common size. The
    // absolute ns is recorded for the trajectory; the *within-run speedup*
    // (scalar vs word-parallel, both measured on the same machine in the
    // same process) is what `--bench-check` gates on, because it is
    // machine-independent.
    let anchor = ac_rows
        .iter()
        .find(|r| r.nodes == 10_000)
        .or_else(|| ac_rows.first());
    let smoke_anchor_ns = anchor.map(|r| r.word_ns).unwrap_or(0.0);
    let smoke_anchor_speedup = anchor
        .map(|r| r.scalar_ns / r.word_ns.max(1.0))
        .unwrap_or(0.0);
    println!("\nac_fixpoint_smoke_ns = {smoke_anchor_ns:.0}");
    println!("ac_fixpoint_smoke_speedup = {smoke_anchor_speedup:.2}");

    if let Some(path) = json_path {
        let json = render_bench_json(
            smoke,
            &kernel_rows,
            &ac_rows,
            &engine_rows,
            smoke_anchor_ns,
            smoke_anchor_speedup,
        );
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
    if let Some(path) = check_path {
        check_regression(path, smoke_anchor_ns, smoke_anchor_speedup);
    }
}

/// The throughput harness for the serving layer: a mixed (query × document)
/// batch over a one-document-per-tree corpus, executed single-threaded and
/// multi-threaded, with the within-run speedup as the gated metric.
fn serve(smoke: bool, threads: Option<usize>, json_path: Option<&str>, check_path: Option<&str>) {
    use cqt_service::{
        Corpus, CorpusRequest, CorpusWorkload, FanOut, QuerySpec, ServiceConfig, ServiceRunner,
    };
    use std::sync::Arc;

    header("Serving throughput — compiled plans over prepared trees");
    let (tree_sizes, sentences, repeats): (&[usize], usize, usize) = if smoke {
        (&[2_000, 6_000], 80, 30)
    } else {
        (&[50_000, 200_000], 1_000, 30)
    };
    let multi_threads = threads.unwrap_or(4).max(1);

    // The document corpus, one document per tree: random trees over the
    // benchmark alphabet plus a synthetic treebank (the introduction's
    // workload shape).
    let corpus = Corpus::new(2);
    let mut trees = Vec::new();
    for (i, &nodes) in tree_sizes.iter().enumerate() {
        trees.push(benchmark_tree(nodes, 40 + i as u64));
    }
    trees.push(benchmark_corpus(sentences, 9));
    for (i, tree) in trees.into_iter().enumerate() {
        corpus
            .insert(format!("tree-{i}"), tree)
            .expect("distinct document ids");
    }

    // The query mix: every engine strategy plus the XPath front-end.
    let queries = [
        QuerySpec::from_cq(chain_query(Axis::ChildPlus, 5)),
        QuerySpec::parse_cq("Q(y) :- A(x), Child+(x, y), B(y).").expect("valid query"),
        QuerySpec::parse_cq("Q() :- A(x), Child(x, y), B(y), NextSibling(y, z), C(z).")
            .expect("valid query"),
        QuerySpec::from_cq(figure1_query()),
        QuerySpec::parse_xpath("//A[B]/following::C").expect("valid xpath"),
        QuerySpec::parse_xpath("//NP[NN]/following::PP | //B/ancestor::A").expect("valid xpath"),
    ];
    // One request per (query, document) pair, queries interleaved fastest.
    let documents = corpus.documents();
    let requests: Vec<CorpusRequest> = documents
        .iter()
        .flat_map(|document| {
            queries.iter().map(|query| CorpusRequest {
                query: query.clone(),
                target: FanOut::One(document.id().clone()),
            })
        })
        .collect();
    let workload = CorpusWorkload::new(requests, repeats);
    println!(
        "workload: {} queries x {} documents x {} repeats = {} requests",
        queries.len(),
        documents.len(),
        workload.repeats,
        workload.request_count()
    );
    for document in documents.iter() {
        let prepared = document.handle().snapshot().prepared;
        println!(
            "  {}: {} nodes (structure hash {:016x})",
            document.id(),
            prepared.tree().len(),
            prepared.structure_hash()
        );
    }

    // Warm the per-tree caches AND the shared plan cache once, so both timed
    // runs measure steady-state serving: no lazy label-set conversion and no
    // plan compilation inside the timed loops.
    let cache = Arc::new(cqt_service::PlanCache::new());
    let runner = |threads| {
        ServiceRunner::with_cache(ServiceConfig::with_threads(threads), Arc::clone(&cache))
    };
    runner(1).run_corpus(&corpus, &CorpusWorkload::new(workload.requests.clone(), 1));

    let single = runner(1).run_corpus(&corpus, &workload);
    let multi = runner(multi_threads).run_corpus(&corpus, &workload);
    assert_eq!(
        single.answer_fingerprint, multi.answer_fingerprint,
        "single- and multi-threaded runs must produce identical answers"
    );

    println!(
        "\n{:<10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "threads", "requests", "QPS", "p50", "p99", "wall"
    );
    for report in [&single, &multi] {
        println!(
            "{:<10} {:>10} {:>12.0} {:>12} {:>12} {:>12}",
            report.threads,
            report.requests,
            report.qps,
            fmt_ns(report.latency.p50_ns as f64),
            fmt_ns(report.latency.p99_ns as f64),
            fmt_ns(report.wall_ns as f64),
        );
    }
    let speedup = multi.qps / single.qps.max(1e-12);
    let cache_stats = multi.plan_cache;
    println!(
        "\nserve_speedup ({multi_threads} threads vs 1) = {speedup:.2}x \
         (available parallelism: {})",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!(
        "plan cache (cumulative over warm + both timed runs): {} plans compiled, \
         {} analyses, {} hits — the timed runs compile nothing, and the \
         relation/label caches re-derive nothing across repeats",
        cache_stats.misses, cache_stats.analyses, cache_stats.hits
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"schema\": \"cq-trees-serve-bench/1\",\n  \"mode\": \"{}\",\n  \
             \"threads_single\": 1,\n  \"threads_multi\": {},\n  \
             \"requests\": {},\n  \"qps_single\": {:.1},\n  \"qps_multi\": {:.1},\n  \
             \"serve_speedup\": {:.3},\n  \
             \"single\": {},\n  \"multi\": {}\n}}\n",
            if smoke { "smoke" } else { "full" },
            multi_threads,
            workload.request_count(),
            single.qps,
            multi.qps,
            speedup,
            single.to_json(),
            multi.to_json(),
        );
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
    if let Some(path) = check_path {
        check_serve_regression(path, speedup);
    }
}

/// The mutable-corpus throughput harness (`serve --mutate`): a writer
/// committing random edit scripts against a one-document corpus while
/// reader threads serve the treebank query mix; every observation is
/// verified against the per-epoch [`CorpusMutationOracle`], and the read
/// throughput is compared to a writer-less run of the same read stream.
///
/// [`CorpusMutationOracle`]: cqt_service::CorpusMutationOracle
fn serve_mutate(
    smoke: bool,
    threads: Option<usize>,
    json_path: Option<&str>,
    check_path: Option<&str>,
) {
    use cqt_service::{
        Corpus, CorpusMutationOracle, CorpusMutationWorkload, DocId, QuerySpec, ServiceConfig,
        ServiceRunner,
    };
    use cqt_trees::edit::EditScript;
    use cqt_trees::generate::{random_edit_script, treebank, EditScriptConfig, TreebankConfig};
    use std::collections::BTreeMap;

    header("Mutable-corpus serving — epoch swaps under concurrent reads");
    let (sentences, reads, script_count) = if smoke {
        (80, 3_000, 6)
    } else {
        (800, 30_000, 12)
    };
    let reader_threads = threads.unwrap_or(4).max(1);

    let initial = {
        let mut rng = StdRng::seed_from_u64(2006);
        treebank(
            &mut rng,
            &TreebankConfig {
                sentences,
                max_depth: 5,
                pp_probability: 0.5,
            },
        )
    };
    let queries = vec![
        QuerySpec::parse_cq("Q(x) :- NP(x), Child(x, y), NN(y).").expect("valid query"),
        QuerySpec::parse_cq("Q() :- S(s), Child(s, v), VP(v), Child+(v, p), PP(p).")
            .expect("valid query"),
        QuerySpec::from_cq(figure1_query()),
        QuerySpec::parse_xpath("//NP[NN]/following::PP | //VP").expect("valid xpath"),
    ];
    // Scripts address successive epochs, exactly as the writer commits them.
    let script_config = EditScriptConfig {
        edits: 4,
        alphabet: ["NP", "PP", "NN", "S", "VB", "DT"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        ..EditScriptConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(77);
    let mut scripts: Vec<EditScript> = Vec::new();
    let mut tree = initial.clone();
    for _ in 0..script_count {
        let script = random_edit_script(&mut rng, &tree, &script_config);
        tree = script.apply_to(&tree).expect("generated script applies").0;
        scripts.push(script);
    }
    // End on a deterministic relabel-only script so the benchmark also
    // serves an epoch with carried-forward caches (random scripts are
    // almost never relabel-only).
    scripts.push(EditScript::from_edits(vec![
        cqt_trees::TreeEdit::Relabel {
            node_pre: (tree.len() as u32 - 1).min(1),
            labels: vec!["NP".into()],
        },
        cqt_trees::TreeEdit::Relabel {
            node_pre: tree.len() as u32 / 2,
            labels: vec!["PP".into(), "NN".into()],
        },
    ]));
    println!(
        "corpus: {} nodes (epoch 0), {} scripts x {} edits, {} reads over {} reader threads",
        initial.len(),
        scripts.len(),
        script_config.edits,
        reads,
        reader_threads,
    );

    // The served document: a one-document corpus per run.
    let doc = DocId::new("treebank");
    let one_document = || {
        let corpus = Corpus::new(1);
        corpus
            .insert(doc.clone(), initial.clone())
            .expect("fresh corpus");
        corpus
    };

    // Frozen baseline: the same read stream with no writer, same threads.
    let frozen_corpus = one_document();
    let frozen_runner = ServiceRunner::new(ServiceConfig::with_threads(reader_threads));
    let frozen_workload =
        CorpusMutationWorkload::new(queries.clone(), vec![doc.clone()], Vec::new(), reads);
    let run_frozen = || {
        frozen_runner
            .run_corpus_mutating(&frozen_corpus, &frozen_workload)
            .expect("the document is in the corpus")
    };
    run_frozen(); // warm plans + caches
    let frozen = run_frozen();

    // Mutating run: one writer + the readers, on a fresh document.
    let corpus = one_document();
    let runner = ServiceRunner::new(ServiceConfig::with_threads(reader_threads));
    let workload = CorpusMutationWorkload::new(
        queries.clone(),
        vec![doc.clone()],
        vec![(doc.clone(), scripts.clone())],
        reads,
    );
    let report = runner
        .run_corpus_mutating(&corpus, &workload)
        .expect("generated scripts commit cleanly");

    // Hard correctness gate: every observation must match its epoch oracle.
    let oracle = CorpusMutationOracle::build(
        &BTreeMap::from([(doc.clone(), initial.clone())]),
        &BTreeMap::from([(doc.clone(), scripts.clone())]),
        &queries,
        &runner.config().plan,
    )
    .expect("oracle replay applies");
    if let Err(violation) = oracle.check(&report) {
        eprintln!("EPOCH-CONSISTENCY FAILED: {violation}");
        std::process::exit(1);
    }
    let epochs_observed = report.epochs_observed_for(&doc).len();

    println!(
        "\n{:<10} {:>10} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "mode", "reads", "QPS", "p50", "p99", "commits", "epochs"
    );
    println!(
        "{:<10} {:>10} {:>12.0} {:>12} {:>12} {:>9} {:>9}",
        "frozen",
        frozen.reads,
        frozen.qps,
        fmt_ns(frozen.latency.p50_ns as f64),
        fmt_ns(frozen.latency.p99_ns as f64),
        0,
        1,
    );
    println!(
        "{:<10} {:>10} {:>12.0} {:>12} {:>12} {:>9} {:>9}",
        "mutate",
        report.reads,
        report.qps,
        fmt_ns(report.latency.p50_ns as f64),
        fmt_ns(report.latency.p99_ns as f64),
        report.total_commits(),
        epochs_observed,
    );
    let overhead = frozen.qps / report.qps.max(1e-12);
    println!(
        "\nmutate_overhead (frozen QPS / mutate QPS, {reader_threads} readers + 1 writer) \
         = {overhead:.2}x"
    );
    println!(
        "epoch consistency: OK ({} observations across {} epochs); {} plan compiles \
         (re-preparation per epoch hash), {} cache entries carried across commits",
        report.observations.len(),
        epochs_observed,
        report.plan_cache.misses,
        report.carried_entries(),
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"schema\": \"cq-trees-mutate-bench/1\",\n  \"mode\": \"{}\",\n  \
             \"reader_threads\": {},\n  \"reads\": {},\n  \"commits\": {},\n  \
             \"epochs_observed\": {},\n  \"carried_entries\": {},\n  \
             \"qps_frozen\": {:.1},\n  \"qps_mutate\": {:.1},\n  \
             \"mutate_overhead\": {:.3},\n  \"consistency\": \"ok\",\n  \
             \"frozen\": {},\n  \"mutate\": {}\n}}\n",
            if smoke { "smoke" } else { "full" },
            reader_threads,
            report.reads,
            report.total_commits(),
            epochs_observed,
            report.carried_entries(),
            frozen.qps,
            report.qps,
            overhead,
            frozen.to_json(),
            report.to_json(),
        );
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
    if let Some(path) = check_path {
        check_mutate_regression(path, overhead);
    }
}

/// Compares the frozen/mutate throughput ratio against a reference JSON;
/// exits non-zero when serving under mutation got more than 3× slower
/// relative to frozen serving than the committed baseline recorded. Both
/// numbers are within-run ratios on one machine, so absolute runner speed
/// cancels out.
fn check_mutate_regression(ref_path: &str, current_overhead: f64) {
    let ref_overhead = require_check_field(ref_path, "mutate_overhead");
    println!(
        "mutate-check: frozen/mutate overhead {current_overhead:.2}x vs reference \
         {ref_overhead:.2}x"
    );
    if current_overhead > ref_overhead * 3.0 {
        eprintln!(
            "mutate-check FAILED: serving under mutation slowed down more than 3x vs the \
             committed baseline"
        );
        std::process::exit(1);
    }
    println!("mutate-check passed");
}

/// The sharded multi-document corpus harness (`serve --corpus N
/// [--shards S]`): phase 1 runs a frozen scatter–gather batch (fan-out to
/// one document, a tagged subset, and all documents) single- and
/// multi-threaded over a corpus whose documents are 50% structural clones —
/// proving cross-document plan-cache sharing with a live counter; phase 2
/// reruns the read stream with multiple concurrent per-document writers and
/// verifies every observation against the per-document
/// [`CorpusMutationOracle`], exiting non-zero on any epoch-consistency or
/// writer-isolation violation.
///
/// [`CorpusMutationOracle`]: cqt_service::CorpusMutationOracle
fn serve_corpus(
    smoke: bool,
    threads: Option<usize>,
    documents: usize,
    shards: usize,
    json_path: Option<&str>,
    check_path: Option<&str>,
) {
    use cqt_service::{
        Corpus, CorpusMutationOracle, CorpusMutationWorkload, CorpusRequest, CorpusWorkload, DocId,
        FanOut, QuerySpec, ServiceConfig, ServiceRunner,
    };
    use cqt_trees::edit::EditScript;
    use cqt_trees::generate::{
        document_corpus, random_edit_script, DocumentCorpusConfig, EditScriptConfig,
    };
    use cqt_trees::Tree;
    use std::collections::BTreeMap;

    header("Sharded corpus serving — scatter–gather + concurrent per-document writers");
    let (nodes_per_document, reads, scatter_repeats) = if smoke {
        (300, 2_400, 24)
    } else {
        (3_000, 24_000, 60)
    };
    let reader_threads = threads.unwrap_or(4).max(1);
    // Half the corpus consists of structural clones, so cross-document
    // plan-cache sharing has something to share.
    let distinct = documents.div_ceil(2);
    let mut rng = StdRng::seed_from_u64(2005);
    let trees = document_corpus(
        &mut rng,
        &DocumentCorpusConfig {
            documents,
            distinct,
            nodes_per_document,
            ..DocumentCorpusConfig::default()
        },
    );
    let corpus = Corpus::new(shards);
    let doc_ids: Vec<DocId> = (0..documents)
        .map(|i| DocId::new(format!("doc-{i:04}")))
        .collect();
    for (i, tree) in trees.iter().enumerate() {
        let tags: &[&str] = if i % 4 == 0 { &["hot"] } else { &[] };
        corpus
            .insert_tagged(doc_ids[i].clone(), tags, tree.clone())
            .expect("fresh corpus has no duplicates");
    }
    println!(
        "corpus: {documents} documents x {nodes_per_document} nodes \
         ({distinct} distinct structures, collision rate {:.2}), {shards} shards \
         (sizes {:?})",
        corpus.structure_collision_rate(),
        corpus.shard_sizes(),
    );

    let queries = vec![
        QuerySpec::parse_cq("Q(y) :- A(x), Child+(x, y), B(y).").expect("valid query"),
        QuerySpec::parse_cq("Q() :- C(x), Child(x, y), D(y).").expect("valid query"),
        QuerySpec::parse_xpath("//A[B] | //E").expect("valid xpath"),
    ];

    // Phase 1 — frozen scatter–gather, single- vs multi-threaded.
    let scatter = CorpusWorkload::new(
        vec![
            CorpusRequest {
                query: queries[0].clone(),
                target: FanOut::All,
            },
            CorpusRequest {
                query: queries[1].clone(),
                target: FanOut::Tagged("hot".into()),
            },
            CorpusRequest {
                query: queries[2].clone(),
                target: FanOut::One(doc_ids[documents / 2].clone()),
            },
        ],
        scatter_repeats,
    );
    let single = ServiceRunner::new(ServiceConfig::with_threads(1)).run_corpus(&corpus, &scatter);
    let multi = ServiceRunner::new(ServiceConfig::with_threads(reader_threads))
        .run_corpus(&corpus, &scatter);
    if single.answer_fingerprint != multi.answer_fingerprint {
        eprintln!("SCATTER-GATHER FAILED: thread count changed the gathered answers");
        std::process::exit(1);
    }
    println!(
        "\n{:<10} {:>10} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "threads", "requests", "doc execs", "QPS", "p50", "p99", "cross-doc hits"
    );
    for report in [&single, &multi] {
        println!(
            "{:<10} {:>10} {:>12} {:>12.0} {:>12} {:>12} {:>14}",
            report.threads,
            report.requests,
            report.doc_executions,
            report.qps,
            fmt_ns(report.latency.p50_ns as f64),
            fmt_ns(report.latency.p99_ns as f64),
            report.plan_cache.cross_document_hits,
        );
    }
    let cross_doc_hits = multi.plan_cache.cross_document_hits;
    let cross_doc_hit_rate = multi.sharing.cross_document_hit_rate;
    println!(
        "cross-document sharing ({reader_threads} threads): {} of {} lookups \
         ({:.1}%) hit a plan another document compiled — only possible between \
         equal structure hashes",
        cross_doc_hits,
        multi.sharing.lookups,
        cross_doc_hit_rate * 100.0,
    );

    // Phase 2 — the same read stream frozen, then under concurrent
    // per-document writers (one writer thread per mutated document).
    let frozen_workload =
        CorpusMutationWorkload::new(queries.clone(), doc_ids.clone(), Vec::new(), reads);
    let frozen_runner = ServiceRunner::new(ServiceConfig::with_threads(reader_threads));
    frozen_runner
        .run_corpus_mutating(&corpus, &frozen_workload)
        .expect("frozen corpus run cannot fail"); // warm plans + caches
    let frozen = frozen_runner
        .run_corpus_mutating(&corpus, &frozen_workload)
        .expect("frozen corpus run cannot fail");

    let writer_count = documents.min(if smoke { 6 } else { 12 }).max(1);
    let script_config = EditScriptConfig {
        edits: 3,
        ..EditScriptConfig::default()
    };
    let mut writers: Vec<(DocId, Vec<EditScript>)> = Vec::new();
    for w in 0..writer_count {
        let doc = w * documents / writer_count;
        let mut tree = trees[doc].clone();
        let mut scripts = Vec::new();
        for _ in 0..3 {
            let script = random_edit_script(&mut rng, &tree, &script_config);
            tree = script.apply_to(&tree).expect("generated script applies").0;
            scripts.push(script);
        }
        writers.push((doc_ids[doc].clone(), scripts));
    }
    let mutate_workload =
        CorpusMutationWorkload::new(queries.clone(), doc_ids.clone(), writers.clone(), reads);
    let runner = ServiceRunner::new(ServiceConfig::with_threads(reader_threads));
    let report = runner
        .run_corpus_mutating(&corpus, &mutate_workload)
        .expect("generated scripts commit cleanly");

    // Hard correctness gate: per-document epoch consistency AND writer
    // isolation (frozen documents only ever observed at epoch 0).
    let initial: BTreeMap<DocId, Tree> = doc_ids.iter().cloned().zip(trees.clone()).collect();
    let writer_map: BTreeMap<DocId, Vec<EditScript>> = writers.into_iter().collect();
    let oracle =
        CorpusMutationOracle::build(&initial, &writer_map, &queries, &runner.config().plan)
            .expect("oracle replay applies");
    if let Err(violation) = oracle.check(&report) {
        eprintln!("CORPUS EPOCH-CONSISTENCY FAILED: {violation}");
        std::process::exit(1);
    }

    println!(
        "\n{:<10} {:>10} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "mode", "reads", "QPS", "p50", "p99", "writers", "commits"
    );
    println!(
        "{:<10} {:>10} {:>12.0} {:>12} {:>12} {:>9} {:>9}",
        "frozen",
        frozen.reads,
        frozen.qps,
        fmt_ns(frozen.latency.p50_ns as f64),
        fmt_ns(frozen.latency.p99_ns as f64),
        0,
        0,
    );
    println!(
        "{:<10} {:>10} {:>12.0} {:>12} {:>12} {:>9} {:>9}",
        "mutate",
        report.reads,
        report.qps,
        fmt_ns(report.latency.p50_ns as f64),
        fmt_ns(report.latency.p99_ns as f64),
        report.writers,
        report.total_commits(),
    );
    let overhead = frozen.qps / report.qps.max(1e-12);
    println!(
        "\ncorpus_overhead (frozen QPS / mutate QPS, {reader_threads} readers + \
         {writer_count} writers) = {overhead:.2}x"
    );
    println!(
        "epoch consistency + writer isolation: OK ({} observations over {} documents, \
         {} commits, {} cache entries carried)",
        report.observations.len(),
        documents,
        report.total_commits(),
        report.carried_entries(),
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"schema\": \"cq-trees-corpus-bench/1\",\n  \"mode\": \"{}\",\n  \
             \"documents\": {},\n  \"shards\": {},\n  \"distinct_structures\": {},\n  \
             \"reader_threads\": {},\n  \"writers\": {},\n  \
             \"scatter_requests\": {},\n  \"doc_executions\": {},\n  \
             \"qps_scatter\": {:.1},\n  \
             \"cross_doc_hits\": {},\n  \"cross_doc_hit_rate\": {:.4},\n  \
             \"reads\": {},\n  \"qps_frozen\": {:.1},\n  \"qps_mutate\": {:.1},\n  \
             \"corpus_overhead\": {:.3},\n  \"consistency\": \"ok\",\n  \
             \"scatter\": {},\n  \"frozen\": {},\n  \"mutate\": {}\n}}\n",
            if smoke { "smoke" } else { "full" },
            documents,
            shards,
            distinct,
            reader_threads,
            writer_count,
            multi.requests,
            multi.doc_executions,
            multi.qps,
            cross_doc_hits,
            cross_doc_hit_rate,
            report.reads,
            frozen.qps,
            report.qps,
            overhead,
            multi.to_json(),
            frozen.to_json(),
            report.to_json(),
        );
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
    if let Some(path) = check_path {
        check_corpus_regression(path, overhead, cross_doc_hits);
    }
}

/// Compares the frozen/mutate corpus throughput ratio against a reference
/// JSON (same machine-independence argument as [`check_mutate_regression`])
/// and additionally requires a **nonzero cross-document plan-cache hit
/// count** — the live proof that structurally identical documents share
/// compiled plans.
fn check_corpus_regression(ref_path: &str, current_overhead: f64, cross_doc_hits: u64) {
    let ref_overhead = require_check_field(ref_path, "corpus_overhead");
    println!(
        "corpus-check: frozen/mutate overhead {current_overhead:.2}x vs reference \
         {ref_overhead:.2}x; cross-document hits {cross_doc_hits}"
    );
    if current_overhead > ref_overhead * 3.0 {
        eprintln!(
            "corpus-check FAILED: corpus serving under mutation slowed down more than 3x \
             vs the committed baseline"
        );
        std::process::exit(1);
    }
    if cross_doc_hits == 0 {
        eprintln!(
            "corpus-check FAILED: no cross-document plan-cache hits — structurally \
             identical documents stopped sharing plans"
        );
        std::process::exit(1);
    }
    println!("corpus-check passed");
}

/// The corpus-scale pruning benchmark (`experiments prune`, BENCH_7.json):
/// the same scatter–gather workload with the label-index pruning layer off
/// and on, over a corpus whose selectivity the `--vocab` flag controls.
///
/// Three hard gates run regardless of `--bench-check`:
///
/// 1. **fingerprint equality** — the pruned run's gathered answers must be
///    bit-identical to the unpruned run's;
/// 2. **oracle consistency** — a concurrent-writer phase (relabel-heavy
///    scripts that move documents across the queried posting lists) must
///    pass the per-document [`cqt_service::CorpusMutationOracle`] with
///    pruning enabled;
/// 3. with `--bench-check`, **pruning rate ≥ 50%** and **pruned/unpruned
///    speedup > 1.5×**, both within-run so machine speed cancels out.
fn serve_prune(
    smoke: bool,
    threads: Option<usize>,
    documents: Option<usize>,
    shards: usize,
    vocab: &str,
    json_path: Option<&str>,
    check_path: Option<&str>,
) {
    use cqt_service::{
        Corpus, CorpusMutationOracle, CorpusMutationWorkload, CorpusRequest, CorpusWorkload, DocId,
        FanOut, QuerySpec, ServiceConfig, ServiceRunner,
    };
    use cqt_trees::edit::EditScript;
    use cqt_trees::generate::{
        document_corpus, random_edit_script, DocumentCorpusConfig, EditScriptConfig,
        LabelVocabulary,
    };
    use cqt_trees::Tree;
    use std::collections::BTreeMap;

    header("Corpus-scale pruning — label/axis posting lists vs full scatter–gather");
    let vocabulary = match vocab {
        "shared" => LabelVocabulary::Shared,
        "overlapping" => LabelVocabulary::Overlapping,
        _ => LabelVocabulary::Disjoint,
    };
    let (nodes_per_document, scatter_repeats, reads) = if smoke {
        (300, 24, 1_600)
    } else {
        (2_000, 60, 12_000)
    };
    let documents = documents.unwrap_or(if smoke { 16 } else { 32 });
    let reader_threads = threads.unwrap_or(4).max(1);
    // One template family per two documents (capped): each family query's
    // posting intersection keeps ~1/families of the corpus, so the pruning
    // rate — and the work an unpruned run wastes — rises with the cap.
    let distinct = (documents / 2).clamp(1, 16);
    let mut rng = StdRng::seed_from_u64(2007);
    let trees = document_corpus(
        &mut rng,
        &DocumentCorpusConfig {
            documents,
            distinct,
            nodes_per_document,
            vocabulary,
            ..DocumentCorpusConfig::default()
        },
    );
    let corpus = Corpus::new(shards);
    let doc_ids: Vec<DocId> = (0..documents)
        .map(|i| DocId::new(format!("doc-{i:04}")))
        .collect();
    for (i, tree) in trees.iter().enumerate() {
        corpus
            .insert(doc_ids[i].clone(), tree.clone())
            .expect("fresh corpus has no duplicates");
    }
    println!(
        "corpus: {documents} documents x {nodes_per_document} nodes, {distinct} template \
         families, vocabulary {vocab}, {shards} shards, {} indexed labels",
        corpus.label_index().label_count(),
    );

    // One query per template family on labels from the alphabet's second
    // half — private to the family under `overlapping` and `disjoint`, so
    // each request's posting intersection keeps ~1/distinct of the corpus.
    // Under `shared` the same queries hit every document (the control:
    // pruning rate ~0, speedup ~1). Plus one query on a label nothing
    // carries, which prunes the entire corpus from the index alone.
    let family_label = |t: usize, base: &str| -> String {
        match vocabulary {
            LabelVocabulary::Shared => base.to_string(),
            _ => format!("T{t}_{base}"),
        }
    };
    let mut queries: Vec<QuerySpec> = (0..distinct.min(4))
        .map(|t| {
            let outer = family_label(t, "D");
            let inner = family_label(t, "E");
            QuerySpec::parse_cq(&format!("Q(y) :- {outer}(x), Child(x, y), {inner}(y)."))
                .expect("valid query")
        })
        .collect();
    queries.push(QuerySpec::parse_cq("Q(x) :- ZZZ_MISSING(x).").expect("valid query"));

    let scatter = CorpusWorkload::new(
        queries
            .iter()
            .map(|query| CorpusRequest {
                query: query.clone(),
                target: FanOut::All,
            })
            .collect(),
        scatter_repeats,
    );

    // Each runner keeps its plan cache across runs: run the workload once
    // to warm plans and lazy axis indexes, measure the second run.
    let unpruned_runner =
        ServiceRunner::new(ServiceConfig::with_threads(reader_threads).with_prune(false));
    unpruned_runner.run_corpus(&corpus, &scatter);
    let unpruned = unpruned_runner.run_corpus(&corpus, &scatter);
    let pruned_runner = ServiceRunner::new(ServiceConfig::with_threads(reader_threads));
    pruned_runner.run_corpus(&corpus, &scatter);
    let pruned = pruned_runner.run_corpus(&corpus, &scatter);

    if pruned.answer_fingerprint != unpruned.answer_fingerprint {
        eprintln!(
            "PRUNING FAILED: pruned fingerprint {:#018x} != unpruned {:#018x} — \
             the index dropped a non-empty answer",
            pruned.answer_fingerprint, unpruned.answer_fingerprint
        );
        std::process::exit(1);
    }
    let prune_rate = pruned.prune.prune_rate();
    let speedup = pruned.qps / unpruned.qps.max(1e-12);
    println!(
        "\n{:<10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "mode", "requests", "doc execs", "QPS", "p50", "p99"
    );
    for (name, report) in [("unpruned", &unpruned), ("pruned", &pruned)] {
        println!(
            "{:<10} {:>10} {:>12} {:>12.0} {:>12} {:>12}",
            name,
            report.requests,
            report.doc_executions,
            report.qps,
            fmt_ns(report.latency.p50_ns as f64),
            fmt_ns(report.latency.p99_ns as f64),
        );
    }
    println!(
        "\npruning: {} of {} candidates pruned ({:.1}%), {} survivors, \
         {} false positives; fingerprints equal; prune_speedup = {speedup:.2}x",
        pruned.prune.pruned,
        pruned.prune.candidates,
        prune_rate * 100.0,
        pruned.prune.survivors,
        pruned.prune.false_positives,
    );

    // Concurrent-writer phase: relabel-heavy scripts drawing from every
    // family's vocabulary, so commits move documents in and out of the
    // queried posting lists mid-run; the oracle checks every observation at
    // its exact epoch, with pruning enabled.
    let mut edit_alphabet: Vec<String> = vec!["A".into(), "B".into(), "C".into()];
    for t in 0..distinct {
        edit_alphabet.push(family_label(t, "D"));
        edit_alphabet.push(family_label(t, "E"));
    }
    edit_alphabet.sort();
    edit_alphabet.dedup();
    let script_config = EditScriptConfig {
        edits: 3,
        insert_weight: 1,
        delete_weight: 1,
        relabel_weight: 4,
        alphabet: edit_alphabet,
        ..EditScriptConfig::default()
    };
    let writer_count = documents.min(if smoke { 4 } else { 8 }).max(1);
    let mut writers: Vec<(DocId, Vec<EditScript>)> = Vec::new();
    for w in 0..writer_count {
        let doc = w * documents / writer_count;
        let mut tree = trees[doc].clone();
        let mut scripts = Vec::new();
        for _ in 0..3 {
            let script = random_edit_script(&mut rng, &tree, &script_config);
            tree = script.apply_to(&tree).expect("generated script applies").0;
            scripts.push(script);
        }
        writers.push((doc_ids[doc].clone(), scripts));
    }
    let mutate_workload =
        CorpusMutationWorkload::new(queries.clone(), doc_ids.clone(), writers.clone(), reads);
    let runner = ServiceRunner::new(ServiceConfig::with_threads(reader_threads));
    let mutate = runner
        .run_corpus_mutating(&corpus, &mutate_workload)
        .expect("generated scripts commit cleanly");
    let initial: BTreeMap<DocId, Tree> = doc_ids.iter().cloned().zip(trees.clone()).collect();
    let writer_map: BTreeMap<DocId, Vec<EditScript>> = writers.into_iter().collect();
    let oracle =
        CorpusMutationOracle::build(&initial, &writer_map, &queries, &runner.config().plan)
            .expect("oracle replay applies");
    if let Err(violation) = oracle.check(&mutate) {
        eprintln!("PRUNED MUTATION FAILED: {violation}");
        std::process::exit(1);
    }
    println!(
        "concurrent writers: {} reads over {} epochs committed by {} writers, \
         pruning rate {:.1}% under mutation, oracle consistency: OK",
        mutate.reads,
        mutate.total_commits(),
        mutate.writers,
        mutate.prune.prune_rate() * 100.0,
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"schema\": \"cq-trees-prune-bench/1\",\n  \"mode\": \"{}\",\n  \
             \"vocabulary\": \"{vocab}\",\n  \"documents\": {},\n  \"shards\": {},\n  \
             \"template_families\": {},\n  \"reader_threads\": {},\n  \
             \"requests\": {},\n  \"candidates\": {},\n  \"pruned_docs\": {},\n  \
             \"survivors\": {},\n  \"false_positives\": {},\n  \"prune_rate\": {:.4},\n  \
             \"qps_unpruned\": {:.1},\n  \"qps_pruned\": {:.1},\n  \
             \"prune_speedup\": {:.3},\n  \"fingerprints\": \"equal\",\n  \
             \"mutate_reads\": {},\n  \"mutate_prune_rate\": {:.4},\n  \
             \"consistency\": \"ok\",\n  \
             \"pruned\": {},\n  \"unpruned\": {},\n  \"mutate\": {}\n}}\n",
            if smoke { "smoke" } else { "full" },
            documents,
            shards,
            distinct,
            reader_threads,
            pruned.requests,
            pruned.prune.candidates,
            pruned.prune.pruned,
            pruned.prune.survivors,
            pruned.prune.false_positives,
            prune_rate,
            unpruned.qps,
            pruned.qps,
            speedup,
            mutate.reads,
            mutate.prune.prune_rate(),
            pruned.to_json(),
            unpruned.to_json(),
            mutate.to_json(),
        );
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
    if let Some(path) = check_path {
        check_prune_regression(path, prune_rate, speedup);
    }
}

/// Gates the pruning benchmark: the committed reference must parse, and the
/// **current run** must prune at least half of its candidates and be more
/// than 1.5× faster than its own unpruned phase. Both gates are within-run
/// ratios — machine speed cancels out, and a run whose index stops pruning
/// (or whose pruning stops paying for itself) fails regardless of how fast
/// the hardware is.
fn check_prune_regression(ref_path: &str, prune_rate: f64, speedup: f64) {
    let ref_rate = require_check_field(ref_path, "prune_rate");
    let ref_speedup = require_check_field(ref_path, "prune_speedup");
    println!(
        "prune-check: rate {:.1}% vs reference {:.1}%; speedup {speedup:.2}x vs \
         reference {ref_speedup:.2}x",
        prune_rate * 100.0,
        ref_rate * 100.0,
    );
    if prune_rate < 0.5 {
        eprintln!(
            "prune-check FAILED: pruning rate {:.1}% fell below 50% on the \
             low-selectivity corpus — the index stopped pruning",
            prune_rate * 100.0
        );
        std::process::exit(1);
    }
    if speedup <= 1.5 {
        eprintln!(
            "prune-check FAILED: pruned run only {speedup:.2}x faster than unpruned \
             (gate: > 1.5x within-run) — pruning stopped paying for itself"
        );
        std::process::exit(1);
    }
    println!("prune-check passed");
}

/// The batched-execution benchmark (`experiments batch`, BENCH_9.json):
/// builds a corpus of kindred documents, then serves the same query set two
/// ways — as [`cqt_service::ServiceRunner::run_batched`] batches of k
/// queries sharing one fan-out, snapshot, warm pass and shared-step table,
/// and one-at-a-time via `run_corpus` on the flattened workload — at batch
/// sizes 8..64.
///
/// Hard gates run regardless of `--bench-check`: at **every** batch size
/// the batched answer fingerprint must equal the flattened run's, bit for
/// bit. The regression gates are within-run ratios (machine speed cancels
/// out): batches of >= 16 — where whole-query dedup joins snapshot/warm
/// sharing and the shared-step table — must beat one-at-a-time by > 1.4x
/// per query, and an all-distinct batch of 8 (sharing only, no dedup) must
/// at worst break even, never fall past 0.75x.
fn serve_batched(
    smoke: bool,
    threads: Option<usize>,
    documents: Option<usize>,
    shards: usize,
    batch_size: Option<usize>,
    json_path: Option<&str>,
    check_path: Option<&str>,
) {
    use cqt_service::{
        BatchRequest, BatchWorkload, Corpus, DocId, FanOut, QuerySpec, ServiceConfig, ServiceRunner,
    };
    use cqt_trees::generate::{document_corpus, DocumentCorpusConfig};

    header("Batched execution — shared prepared-tree scratch vs one-at-a-time");
    let (nodes_per_document, repeats) = if smoke { (300, 24) } else { (1_500, 16) };
    let documents = documents.unwrap_or(if smoke { 8 } else { 16 });
    let reader_threads = threads.unwrap_or(4).max(1);
    let mut rng = StdRng::seed_from_u64(2009);
    let trees = document_corpus(
        &mut rng,
        &DocumentCorpusConfig {
            documents,
            distinct: (documents / 2).max(1),
            nodes_per_document,
            // The default Shared vocabulary: every query touches every
            // document, so the sweep measures execution sharing, not
            // pruning.
            ..DocumentCorpusConfig::default()
        },
    );
    let corpus = Corpus::new(shards);
    for (i, tree) in trees.into_iter().enumerate() {
        corpus
            .insert(DocId::new(format!("doc-{i:04}")), tree)
            .expect("fresh corpus has no duplicates");
    }
    println!(
        "corpus: {documents} documents x {nodes_per_document} nodes, {shards} shards, \
         {reader_threads} threads, {repeats} repeats per phase",
    );

    // Eight kindred specs: most share the `A(x), Child(x, y)` chain (the
    // shared-step table's hash-cons hit), all draw labels from the shared
    // alphabet. Batches larger than the pool cycle through it, so bigger
    // batches also exercise whole-query dedup — both effects are real
    // batching wins and both are counted in the report's sharing block.
    let pool: Vec<QuerySpec> = [
        "Q(y) :- A(x), Child(x, y), B(y).",
        "Q(y) :- A(x), Child(x, y), C(y).",
        "Q(y) :- A(x), Child(x, y), D(y).",
        "Q(y) :- A(x), Child(x, y), E(y).",
        "Q(x) :- A(x), Child(x, y), B(y).",
        "Q() :- A(x), Child(x, y), C(y).",
        "Q(x, y) :- A(x), Child(x, y), D(y).",
        "Q(y) :- B(x), Child(x, y), C(y).",
    ]
    .iter()
    .map(|text| QuerySpec::parse_cq(text).expect("valid query"))
    .collect();

    let sizes: Vec<usize> = match batch_size {
        Some(size) => vec![size],
        None => vec![8, 16, 64],
    };
    println!(
        "\n{:<8} {:>9} {:>12} {:>12} {:>9} {:>8} {:>8} {:>10}",
        "batch", "queries", "batched QPS", "flat QPS", "speedup", "deduped", "reused", "step hits"
    );
    let mut rows = Vec::new();
    let mut gated_speedup: Option<f64> = None;
    let mut floor_speedup: Option<f64> = None;
    for &size in &sizes {
        let queries: Vec<QuerySpec> = (0..size).map(|i| pool[i % pool.len()].clone()).collect();
        let workload = BatchWorkload::new(
            vec![BatchRequest {
                queries,
                target: FanOut::All,
            }],
            repeats,
        );
        let flat = workload.flatten();
        // Each runner keeps its plan cache across runs: run once to warm
        // plans and lazy label sets, measure the second run.
        let batched_runner = ServiceRunner::new(ServiceConfig::with_threads(reader_threads));
        batched_runner.run_batched(&corpus, &workload);
        let batched = batched_runner.run_batched(&corpus, &workload);
        let flat_runner = ServiceRunner::new(ServiceConfig::with_threads(reader_threads));
        flat_runner.run_corpus(&corpus, &flat);
        let unbatched = flat_runner.run_corpus(&corpus, &flat);
        if batched.answer_fingerprint != unbatched.answer_fingerprint {
            eprintln!(
                "BATCHING FAILED at size {size}: batched fingerprint {:#018x} != \
                 one-at-a-time {:#018x}",
                batched.answer_fingerprint, unbatched.answer_fingerprint
            );
            std::process::exit(1);
        }
        // Both QPS figures count the same per-query answers over the same
        // corpus, so their ratio is the per-query cost ratio inverted.
        let speedup = batched.qps / unbatched.qps.max(1e-12);
        println!(
            "{:<8} {:>9} {:>12.0} {:>12.0} {:>8.2}x {:>8} {:>8} {:>10}",
            size,
            batched.queries,
            batched.qps,
            unbatched.qps,
            speedup,
            batched.sharing.deduped_queries,
            batched.sharing.reused_steps,
            batched.sharing.step_hits,
        );
        if size >= 16 {
            gated_speedup = Some(gated_speedup.map_or(speedup, |s: f64| s.min(speedup)));
        } else {
            floor_speedup = Some(floor_speedup.map_or(speedup, |s: f64| s.min(speedup)));
        }
        rows.push(format!(
            "{{\"batch_size\": {size}, \"queries\": {}, \"qps_batched\": {:.1}, \
             \"qps_flat\": {:.1}, \"speedup\": {:.3}, \"deduped_queries\": {}, \
             \"reused_steps\": {}, \"step_hits\": {}, \"report\": {}}}",
            batched.queries,
            batched.qps,
            unbatched.qps,
            speedup,
            batched.sharing.deduped_queries,
            batched.sharing.reused_steps,
            batched.sharing.step_hits,
            batched.to_json(),
        ));
    }
    let batch_speedup = gated_speedup.unwrap_or(1.0);
    let batch_floor = floor_speedup.unwrap_or(1.0);
    println!(
        "\nfingerprints equal at every size; worst batched-vs-flat speedup at \
         batch >= 16: {batch_speedup:.2}x; at smaller (all-distinct) batches: {batch_floor:.2}x"
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"schema\": \"cq-trees-batch-bench/1\",\n  \"mode\": \"{}\",\n  \
             \"documents\": {},\n  \"shards\": {},\n  \"reader_threads\": {},\n  \
             \"batch_sizes\": [{}],\n  \"batch_speedup\": {:.3},\n  \
             \"batch_floor_speedup\": {:.3},\n  \
             \"fingerprints\": \"equal\",\n  \"rows\": [\n    {}\n  ]\n}}\n",
            if smoke { "smoke" } else { "full" },
            documents,
            shards,
            reader_threads,
            sizes
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            batch_speedup,
            batch_floor,
            rows.join(",\n    "),
        );
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
    if let Some(path) = check_path {
        check_batch_regression(path, batch_speedup, batch_floor);
    }
}

/// Gates the batching benchmark: the committed reference must parse, and
/// the **current run** must show batched execution > 1.4x faster per query
/// than one-at-a-time at every batch size >= 16, with all-distinct smaller
/// batches never falling past 0.75x (sharing alone roughly breaks even;
/// anything far below that means the shared-step machinery went from free
/// to expensive). Both are within-run ratios, so machine speed cancels
/// out.
fn check_batch_regression(ref_path: &str, batch_speedup: f64, batch_floor: f64) {
    let ref_speedup = require_check_field(ref_path, "batch_speedup");
    println!(
        "batch-check: speedup {batch_speedup:.2}x at batch >= 16 vs reference \
         {ref_speedup:.2}x (gate: > 1.4x within-run); floor {batch_floor:.2}x \
         (gate: > 0.75x)"
    );
    if batch_speedup <= 1.4 {
        eprintln!(
            "batch-check FAILED: batched execution only {batch_speedup:.2}x faster than \
             one-at-a-time at batch >= 16 (gate: > 1.4x within-run) — batching stopped \
             paying for itself"
        );
        std::process::exit(1);
    }
    if batch_floor <= 0.75 {
        eprintln!(
            "batch-check FAILED: an all-distinct batch ran at {batch_floor:.2}x the \
             one-at-a-time rate (gate: > 0.75x) — shared-step execution became a net cost"
        );
        std::process::exit(1);
    }
    println!("batch-check passed");
}

/// The durability benchmark (`experiments recover`, BENCH_8.json): builds a
/// WAL-backed corpus in a scratch directory, commits relabel-heavy edit
/// scripts to every document **under concurrent readers** (checked for
/// epoch-consistency by the per-document mutation oracle), then hard-kills
/// the writer by truncating one document's log mid-record — exactly the
/// torn tail a power cut leaves — and measures a cold [`cqt_service::Corpus::open_durable`].
///
/// Hard gates run regardless of `--bench-check`:
///
/// 1. the kill must actually tear the log (`torn_bytes > 0`) and recovery
///    must land every document on the expected epoch — the durable prefix
///    for the victim, the full history for everyone else;
/// 2. every recovered (document, query) answer fingerprint must equal the
///    mutation oracle's fingerprint **at the recovered epoch** — zero
///    divergences;
/// 3. a read-only [`cqt_service::ReplicaFollower::local`] syncing from the
///    same directory must agree answer-for-answer, including after the lost
///    commit is re-issued on the recovered leader.
fn serve_recover(
    smoke: bool,
    threads: Option<usize>,
    documents: Option<usize>,
    shards: usize,
    json_path: Option<&str>,
    check_path: Option<&str>,
) {
    use cqt_core::ExecScratch;
    use cqt_service::{
        answer_fingerprint, Corpus, CorpusMutationOracle, CorpusMutationWorkload, DocId,
        Durability, Plan, QuerySpec, ReplicaFollower, ServiceConfig, ServiceRunner,
    };
    use cqt_trees::edit::EditScript;
    use cqt_trees::generate::{
        document_corpus, random_edit_script, DocumentCorpusConfig, EditScriptConfig,
    };
    use cqt_trees::Tree;
    use std::collections::BTreeMap;

    header("Durable write path — WAL commits under readers, hard-kill recovery, follower");
    // `commits_per_doc % snapshot_every == 2` by construction: the final
    // snapshot truncates the log, and exactly two records land after it, so
    // the mid-record kill always has a record to tear and the victim always
    // recovers to `commits_per_doc - 1`.
    let (nodes_per_document, commits_per_doc, reads, snapshot_every) = if smoke {
        (200, 6u64, 1_200, 4u64)
    } else {
        (1_200, 26u64, 8_000, 8u64)
    };
    let documents = documents.unwrap_or(if smoke { 6 } else { 12 });
    let reader_threads = threads.unwrap_or(4).max(1);

    // The log directory a deployment would put on persistent storage; a
    // scratch path unique to this process here.
    let dir = std::env::temp_dir().join(format!("cqt-recover-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = || Durability::Wal {
        dir: dir.clone(),
        snapshot_every,
    };

    let mut rng = StdRng::seed_from_u64(2008);
    let trees = document_corpus(
        &mut rng,
        &DocumentCorpusConfig {
            documents,
            distinct: documents.clamp(1, 8),
            nodes_per_document,
            ..DocumentCorpusConfig::default()
        },
    );
    let (corpus, fresh) = Corpus::open_durable(shards, durability()).unwrap_or_else(|error| {
        eprintln!("cannot open fresh durable corpus: {error}");
        std::process::exit(1);
    });
    assert!(fresh.documents.is_empty(), "scratch dir starts empty");
    let doc_ids: Vec<DocId> = (0..documents)
        .map(|i| DocId::new(format!("doc-{i:04}")))
        .collect();
    for (i, tree) in trees.iter().enumerate() {
        corpus
            .insert(doc_ids[i].clone(), tree.clone())
            .expect("fresh corpus has no duplicates");
    }
    println!(
        "corpus: {documents} documents x {nodes_per_document} nodes, {shards} shards, \
         {commits_per_doc} commits per document, snapshot every {snapshot_every}, wal at {}",
        dir.display()
    );

    let queries: Vec<QuerySpec> = [
        "Q(x) :- A(x).",
        "Q(y) :- A(x), Child(x, y), B(y).",
        "Q(y) :- C(x), Child+(x, y), E(y).",
    ]
    .iter()
    .map(|q| QuerySpec::parse_cq(q).expect("valid query"))
    .collect();

    // Every document gets its own chain of scripts — the full corpus is
    // mutated, so recovery has to replay every log, not just the victim's.
    let script_config = EditScriptConfig {
        edits: 3,
        insert_weight: 1,
        delete_weight: 1,
        relabel_weight: 4,
        ..EditScriptConfig::default()
    };
    let mut writers: Vec<(DocId, Vec<EditScript>)> = Vec::new();
    for (i, initial) in trees.iter().enumerate() {
        let mut tree = initial.clone();
        let mut scripts = Vec::new();
        for _ in 0..commits_per_doc {
            let script = random_edit_script(&mut rng, &tree, &script_config);
            tree = script.apply_to(&tree).expect("generated script applies").0;
            scripts.push(script);
        }
        writers.push((doc_ids[i].clone(), scripts));
    }

    // Commit phase: every writer drains its scripts while reader threads
    // snapshot and query concurrently; the oracle checks each observation
    // at the exact epoch it snapshot.
    let workload =
        CorpusMutationWorkload::new(queries.clone(), doc_ids.clone(), writers.clone(), reads);
    let runner = ServiceRunner::new(ServiceConfig::with_threads(reader_threads));
    let commit_start = Instant::now();
    let mutate = runner
        .run_corpus_mutating(&corpus, &workload)
        .expect("generated scripts commit cleanly");
    let commit_ns = commit_start.elapsed().as_nanos() as u64;
    let initial: BTreeMap<DocId, Tree> = doc_ids.iter().cloned().zip(trees.clone()).collect();
    let writer_map: BTreeMap<DocId, Vec<EditScript>> = writers.iter().cloned().collect();
    let oracle =
        CorpusMutationOracle::build(&initial, &writer_map, &queries, &runner.config().plan)
            .expect("oracle replay applies");
    if let Err(violation) = oracle.check(&mutate) {
        eprintln!("DURABLE MUTATION FAILED: {violation}");
        std::process::exit(1);
    }
    let live = corpus.durability_stats();
    println!(
        "commit phase: {} reads over {} commits by {} writers in {}; wal: {} records, \
         {} bytes, latest snapshot epoch {}",
        mutate.reads,
        mutate.total_commits(),
        mutate.writers,
        fmt_ns(commit_ns as f64),
        live.log_records,
        live.log_bytes,
        live.snapshot_epoch,
    );

    // Hard kill: drop the corpus (the process dies), then tear the victim's
    // log mid-way through its final record — the torn tail an interrupted
    // append leaves. `doc-0000` is filesystem-safe, so its directory is its
    // id verbatim.
    drop(corpus);
    let victim = &doc_ids[0];
    let victim_log = dir.join(victim.as_str()).join("wal.log");
    let bytes = std::fs::read(&victim_log).expect("victim log readable");
    let last_start = wal_final_record_start(&bytes);
    let cut = last_start + (bytes.len() - last_start) / 2;
    assert!(cut > last_start, "final record is never empty");
    std::fs::OpenOptions::new()
        .write(true)
        .open(&victim_log)
        .and_then(|file| file.set_len(cut as u64))
        .expect("truncating the victim log simulates the kill");
    println!(
        "hard kill: tore {} of {} log bytes off {victim} mid-record",
        bytes.len() - cut,
        bytes.len(),
    );

    // Cold recovery: newest snapshot + log-tail replay, digest-verified.
    let recover_start = Instant::now();
    let (recovered, recovery) =
        Corpus::open_durable(shards, durability()).unwrap_or_else(|error| {
            eprintln!("RECOVERY FAILED: {error}");
            std::process::exit(1);
        });
    let recovery_ns = recover_start.elapsed().as_nanos() as u64;
    let replayed = recovery.replayed_records();
    let torn = recovery.torn_bytes();
    let replay_rate = replayed as f64 / (recovery_ns as f64 / 1e9).max(1e-12);
    if torn == 0 {
        eprintln!("RECOVERY GATE FAILED: the kill tore no bytes — the scenario tested nothing");
        std::process::exit(1);
    }
    println!(
        "recovery: {} documents in {} — {} records replayed ({:.0} records/s), \
         {} torn bytes dropped",
        recovery.documents.len(),
        fmt_ns(recovery_ns as f64),
        replayed,
        replay_rate,
        torn,
    );

    // Fingerprint gate: every recovered document must answer every query
    // exactly as the oracle says its recovered epoch answers it. The victim
    // lost its final commit to the torn tail; everyone else kept the full
    // history.
    let plans: Vec<Plan> = queries
        .iter()
        .map(|spec| Plan::compile(spec, &runner.config().plan).0)
        .collect();
    // Returns (fingerprints checked, divergences) for one corpus pass.
    let check_corpus = |corpus: &Corpus, phase: &str, expect: &dyn Fn(usize) -> u64| {
        let mut scratch = ExecScratch::new();
        let mut checked = 0u64;
        let mut divergences = 0u64;
        for (i, id) in doc_ids.iter().enumerate() {
            let Some(snapshot) = corpus.snapshot(id) else {
                eprintln!("{phase} GATE FAILED: document {id} missing after recovery");
                std::process::exit(1);
            };
            if snapshot.epoch != expect(i) {
                eprintln!(
                    "{phase} GATE FAILED: {id} at epoch {} (expected {})",
                    snapshot.epoch,
                    expect(i)
                );
                std::process::exit(1);
            }
            let doc_oracle = oracle.for_document(id).expect("oracle covers every doc");
            for (query_index, plan) in plans.iter().enumerate() {
                let answer = plan.execute(&snapshot.prepared, &mut scratch);
                let fingerprint = answer_fingerprint(query_index as u64, &answer);
                checked += 1;
                if doc_oracle.expected(query_index, snapshot.epoch) != Some(fingerprint) {
                    divergences += 1;
                    eprintln!(
                        "{phase} DIVERGENCE: {id} query {query_index} at epoch {} answers \
                         {fingerprint:#018x}, oracle disagrees",
                        snapshot.epoch
                    );
                }
            }
        }
        (checked, divergences)
    };
    let victim_epoch = |i: usize| {
        if i == 0 {
            commits_per_doc - 1
        } else {
            commits_per_doc
        }
    };
    let (leader_checked, leader_divergences) = check_corpus(&recovered, "RECOVERY", &victim_epoch);

    // A read-only follower syncs from the same directory (catching up to
    // the recovered state), then the lost commit is re-issued on the
    // recovered leader: the log resumes where the durable prefix ended and
    // the next sync applies exactly that record incrementally.
    let follower = ReplicaFollower::local(dir.clone(), shards);
    follower.sync().unwrap_or_else(|error| {
        eprintln!("FOLLOWER FAILED: {error}");
        std::process::exit(1);
    });
    let last_script = &writer_map[victim][commits_per_doc as usize - 1];
    let report = recovered
        .commit(victim, last_script)
        .expect("re-issued commit applies");
    assert_eq!(report.epoch, commits_per_doc, "log resumes past the tear");
    let progress = follower.sync().unwrap_or_else(|error| {
        eprintln!("FOLLOWER FAILED: {error}");
        std::process::exit(1);
    });
    if progress.records_applied != 1 {
        eprintln!(
            "FOLLOWER GATE FAILED: sync applied {} records (expected exactly the \
             re-issued commit)",
            progress.records_applied
        );
        std::process::exit(1);
    }
    let (follower_checked, follower_divergences) =
        check_corpus(&follower.corpus(), "FOLLOWER", &|_| commits_per_doc);
    let checked = leader_checked + follower_checked;
    let divergences = leader_divergences + follower_divergences;
    println!(
        "follower: caught up on its first sync, then applied the re-issued commit incrementally; \
         {} fingerprints checked ({} leader, {} follower), {divergences} divergences",
        checked, leader_checked, follower_checked,
    );
    if divergences > 0 {
        eprintln!("RECOVERY GATE FAILED: {divergences} answer fingerprints diverged");
        std::process::exit(1);
    }
    println!("recovery + follower fingerprints: all {checked} equal to the oracle");
    let _ = std::fs::remove_dir_all(&dir);

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"schema\": \"cq-trees-recover-bench/1\",\n  \"mode\": \"{}\",\n  \
             \"documents\": {},\n  \"shards\": {},\n  \"reader_threads\": {},\n  \
             \"commits_per_doc\": {},\n  \"total_commits\": {},\n  \"reads\": {},\n  \
             \"snapshot_every\": {},\n  \"wal_records\": {},\n  \"wal_bytes\": {},\n  \
             \"snapshot_epoch\": {},\n  \"commit_ns\": {},\n  \"torn_bytes\": {},\n  \
             \"replayed_records\": {},\n  \"recovery_ns\": {},\n  \
             \"replay_records_per_s\": {:.0},\n  \"fingerprints_checked\": {},\n  \
             \"divergences\": {},\n  \"follower_divergences\": {},\n  \
             \"consistency\": \"ok\"\n}}\n",
            if smoke { "smoke" } else { "full" },
            documents,
            shards,
            reader_threads,
            commits_per_doc,
            mutate.total_commits(),
            mutate.reads,
            snapshot_every,
            live.log_records,
            live.log_bytes,
            live.snapshot_epoch,
            commit_ns,
            torn,
            replayed,
            recovery_ns,
            replay_rate,
            checked,
            divergences,
            follower_divergences,
        );
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
    if let Some(path) = check_path {
        check_recover_regression(path, divergences, replayed, recovery_ns, replay_rate);
    }
}

/// Byte offset where the final WAL record starts: walks the
/// length-prefixed frames (5-byte header, then `4 + body_len + 8` per
/// record) of a log known to be intact.
fn wal_final_record_start(bytes: &[u8]) -> usize {
    let mut offset = 5;
    let mut last = offset;
    while offset < bytes.len() {
        last = offset;
        let body_len = u32::from_le_bytes(
            bytes[offset..offset + 4]
                .try_into()
                .expect("intact log has full length prefixes"),
        ) as usize;
        offset += 4 + body_len + 8;
    }
    assert_eq!(offset, bytes.len(), "intact log ends on a record boundary");
    assert!(last < bytes.len(), "log has at least one record to tear");
    last
}

/// Gates the durability benchmark: the committed reference must parse
/// (typed [`BenchCheckError`] diagnostics on a bad file), and the **current
/// run** must have recovered with zero answer-fingerprint divergences and a
/// non-empty replay. Recovery time and replay rate are machine-dependent,
/// so they are printed against the reference for information, never gated.
fn check_recover_regression(
    ref_path: &str,
    divergences: u64,
    replayed: u64,
    recovery_ns: u64,
    replay_rate: f64,
) {
    let ref_divergences = require_check_field(ref_path, "divergences");
    let ref_rate = require_check_field(ref_path, "replay_records_per_s");
    println!(
        "recover-check: {divergences} divergences (reference {ref_divergences:.0}); \
         replayed {replayed} records in {} at {replay_rate:.0} records/s \
         (reference {ref_rate:.0}, informational)",
        fmt_ns(recovery_ns as f64),
    );
    if divergences > 0 {
        eprintln!(
            "recover-check FAILED: {divergences} recovered answer fingerprints diverged \
             from the mutation oracle"
        );
        std::process::exit(1);
    }
    if replayed == 0 {
        eprintln!(
            "recover-check FAILED: recovery replayed no log records — the scenario \
             stopped exercising the replay path"
        );
        std::process::exit(1);
    }
    println!("recover-check passed");
}

/// The replication benchmark (`experiments replicate`, BENCH_10.json):
/// builds a WAL-backed leader corpus behind the TCP front end, subscribes a
/// [`cqt_service::ReplicaFollower`] with a `REPLICATE` stream, and drives
/// the full failure cycle — the connection is torn mid-stream at a byte
/// budget (through a one-shot truncating proxy), the replica reconnects
/// with backoff, the leader's continued commits cross the snapshot cadence
/// so catch-up must fall back to snapshot transfer across the truncated
/// logs, and after the leader dies the replica is promoted against the
/// dead leader's durable prefix.
///
/// Hard gates run regardless of `--bench-check`:
///
/// 1. every (document, query) answer fingerprint on the replica must equal
///    the leader's at every caught-up epoch — zero divergences, checked
///    after the initial sync, after the torn-stream catch-up, and after
///    promotion (against a crash recovery of the leader's directory);
/// 2. the torn phase must actually stream records and the post-truncation
///    catch-up must actually fall back to at least one snapshot;
/// 3. `promote` must refuse the replica that stopped syncing before the
///    leader's final commits (digest gate) and accept the caught-up one,
///    which then takes writes at the recovered epoch.
fn serve_replicate(
    smoke: bool,
    threads: Option<usize>,
    documents: Option<usize>,
    shards: usize,
    json_path: Option<&str>,
    check_path: Option<&str>,
) {
    use cqt_core::ExecScratch;
    use cqt_service::net::{NetServer, NetServerConfig};
    use cqt_service::{
        answer_fingerprint, durable_positions, Corpus, DocId, Durability, Plan, QuerySpec,
        ReplicaFollower, ServiceConfig, ServiceRunner,
    };
    use cqt_trees::edit::EditScript;
    use cqt_trees::generate::{
        document_corpus, random_edit_script, DocumentCorpusConfig, EditScriptConfig,
    };
    use std::sync::Arc;
    use std::time::Duration;

    header("Replication over TCP — REPLICATE stream, torn connection, catch-up, promote");
    let (nodes_per_document, commits_per_doc, snapshot_every, kill_bytes) = if smoke {
        (200, 6u64, 4u64, 4usize << 10)
    } else {
        (1_200, 26u64, 8u64, 64usize << 10)
    };
    let documents = documents.unwrap_or(if smoke { 6 } else { 12 });
    let workers = threads.unwrap_or(2).max(1);
    // First half replicated cleanly; the second half lands while the
    // replica is disconnected and crosses the snapshot cadence, so catch-up
    // must cope with truncated logs.
    let half = commits_per_doc / 2;
    assert!(
        (half + 1..=commits_per_doc).any(|epoch| epoch % snapshot_every == 0),
        "the second half must cross the snapshot cadence"
    );

    let dir = std::env::temp_dir().join(format!("cqt-replicate-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = || Durability::Wal {
        dir: dir.clone(),
        snapshot_every,
    };

    let mut rng = StdRng::seed_from_u64(2010);
    let trees = document_corpus(
        &mut rng,
        &DocumentCorpusConfig {
            documents,
            distinct: documents.clamp(1, 8),
            nodes_per_document,
            ..DocumentCorpusConfig::default()
        },
    );
    let (corpus, fresh) = Corpus::open_durable(shards, durability()).unwrap_or_else(|error| {
        eprintln!("cannot open fresh durable corpus: {error}");
        std::process::exit(1);
    });
    assert!(fresh.documents.is_empty(), "scratch dir starts empty");
    let corpus = Arc::new(corpus);
    let doc_ids: Vec<DocId> = (0..documents)
        .map(|i| DocId::new(format!("doc-{i:04}")))
        .collect();
    for (i, tree) in trees.iter().enumerate() {
        corpus
            .insert(doc_ids[i].clone(), tree.clone())
            .expect("fresh corpus has no duplicates");
    }
    let script_config = EditScriptConfig {
        edits: 3,
        insert_weight: 1,
        delete_weight: 1,
        relabel_weight: 4,
        ..EditScriptConfig::default()
    };
    let mut histories: Vec<Vec<EditScript>> = Vec::new();
    for initial in &trees {
        let mut tree = initial.clone();
        let mut scripts = Vec::new();
        for _ in 0..commits_per_doc {
            let script = random_edit_script(&mut rng, &tree, &script_config);
            tree = script.apply_to(&tree).expect("generated script applies").0;
            scripts.push(script);
        }
        histories.push(scripts);
    }
    println!(
        "leader: {documents} documents x {nodes_per_document} nodes, {shards} shards, \
         {commits_per_doc} commits per document (split {half}/{}), snapshot every \
         {snapshot_every}, wal at {}",
        commits_per_doc - half,
        dir.display()
    );

    let queries: Vec<QuerySpec> = [
        "Q(x) :- A(x).",
        "Q(y) :- A(x), Child(x, y), B(y).",
        "Q(y) :- C(x), Child+(x, y), E(y).",
    ]
    .iter()
    .map(|q| QuerySpec::parse_cq(q).expect("valid query"))
    .collect();
    let runner = ServiceRunner::new(ServiceConfig::with_threads(workers));
    let plans: Vec<Plan> = queries
        .iter()
        .map(|spec| Plan::compile(spec, &runner.config().plan).0)
        .collect();
    // The fingerprint gate: every (document, query) answer on `replica`
    // must equal `leader`'s, at equal epochs. Exits on a missing document
    // or an epoch mismatch; returns (checked, divergences).
    let diff_corpora = |leader: &Corpus, replica: &Corpus, phase: &str| -> (u64, u64) {
        let mut scratch = ExecScratch::new();
        let mut checked = 0u64;
        let mut divergences = 0u64;
        for id in &doc_ids {
            let (Some(on_leader), Some(on_replica)) = (leader.snapshot(id), replica.snapshot(id))
            else {
                eprintln!("{phase} GATE FAILED: document {id} missing");
                std::process::exit(1);
            };
            if on_leader.epoch != on_replica.epoch {
                eprintln!(
                    "{phase} GATE FAILED: {id} replica at epoch {} vs leader {}",
                    on_replica.epoch, on_leader.epoch
                );
                std::process::exit(1);
            }
            for (query_index, plan) in plans.iter().enumerate() {
                let expected = answer_fingerprint(
                    query_index as u64,
                    &plan.execute(&on_leader.prepared, &mut scratch),
                );
                let got = answer_fingerprint(
                    query_index as u64,
                    &plan.execute(&on_replica.prepared, &mut scratch),
                );
                checked += 1;
                if expected != got {
                    divergences += 1;
                    eprintln!(
                        "{phase} DIVERGENCE: {id} query {query_index} at epoch {}: replica \
                         {got:#018x}, leader {expected:#018x}",
                        on_leader.epoch
                    );
                }
            }
        }
        (checked, divergences)
    };

    // Phase 1: commit the first half on the leader, then serve it.
    let commit_start = Instant::now();
    for (i, id) in doc_ids.iter().enumerate() {
        for script in &histories[i][..half as usize] {
            corpus
                .commit(id, script)
                .expect("first-half commit applies");
        }
    }
    let commit_ns = commit_start.elapsed().as_nanos() as u64;
    let server = NetServer::start(
        Arc::clone(&corpus),
        NetServerConfig {
            workers,
            ..NetServerConfig::default()
        },
    )
    .unwrap_or_else(|error| {
        eprintln!("cannot start leader server: {error}");
        std::process::exit(1);
    });

    // Phase 2: cold initial sync over the real socket.
    let mut replica = ReplicaFollower::new(server.addr(), shards);
    let sync_start = Instant::now();
    let initial = replica.sync().unwrap_or_else(|error| {
        eprintln!("REPLICATION FAILED: initial sync: {error:?}");
        std::process::exit(1);
    });
    let initial_sync_ns = sync_start.elapsed().as_nanos() as u64;
    let (initial_checked, initial_divergences) =
        diff_corpora(&corpus, &replica.corpus(), "INITIAL SYNC");
    println!(
        "initial sync: {} snapshots + {} records in {}; {} fingerprints checked, \
         {} divergences",
        initial.snapshots_loaded,
        initial.records_applied,
        fmt_ns(initial_sync_ns as f64),
        initial_checked,
        initial_divergences,
    );
    // A replica that stops syncing here: promote must refuse it later.
    let stale = ReplicaFollower::new(server.addr(), shards);
    stale.sync().unwrap_or_else(|error| {
        eprintln!("REPLICATION FAILED: stale replica sync: {error:?}");
        std::process::exit(1);
    });

    // Phase 3: the leader advances while the replica is away; the second
    // half crosses the snapshot cadence, truncating every log past the
    // replica's position.
    for (i, id) in doc_ids.iter().enumerate() {
        for script in &histories[i][half as usize..] {
            corpus
                .commit(id, script)
                .expect("second-half commit applies");
        }
    }

    // Phase 4: the kill — resync through a proxy that tears the stream
    // after `kill_bytes`, then reconnect straight to the leader with
    // backoff. Catch-up must cross the truncation via snapshot fallback.
    let (proxy_addr, proxy) = truncating_proxy(server.addr(), kill_bytes);
    replica.retarget(proxy_addr);
    let catchup_start = Instant::now();
    let torn = replica.sync();
    proxy.join().expect("proxy thread joins");
    let torn_progress = match torn {
        Ok(progress) => progress,
        Err(error) => {
            println!("torn stream: disconnected after <= {kill_bytes} bytes ({error:?})");
            Default::default()
        }
    };
    replica.retarget(server.addr());
    let caught_up = replica
        .sync_with_backoff(5, Duration::from_millis(10))
        .unwrap_or_else(|error| {
            eprintln!("REPLICATION FAILED: catch-up after the torn stream: {error:?}");
            std::process::exit(1);
        });
    let catchup_ns = catchup_start.elapsed().as_nanos() as u64;
    let fallback_snapshots = torn_progress.snapshots_loaded + caught_up.snapshots_loaded;
    let (catchup_checked, catchup_divergences) =
        diff_corpora(&corpus, &replica.corpus(), "CATCH-UP");
    println!(
        "catch-up: torn stream applied {} snapshots + {} records, reconnect applied {} + {} \
         in {} ({} attempts); {} fingerprints checked, {} divergences",
        torn_progress.snapshots_loaded,
        torn_progress.records_applied,
        caught_up.snapshots_loaded,
        caught_up.records_applied,
        fmt_ns(catchup_ns as f64),
        caught_up.attempts.max(1),
        catchup_checked,
        catchup_divergences,
    );
    if fallback_snapshots == 0 {
        eprintln!(
            "REPLICATION GATE FAILED: catch-up crossed a truncated log without a snapshot \
             fallback — the scenario stopped exercising it"
        );
        std::process::exit(1);
    }
    let records_streamed =
        initial.records_applied + torn_progress.records_applied + caught_up.records_applied;
    let snapshots_streamed =
        initial.snapshots_loaded + torn_progress.snapshots_loaded + caught_up.snapshots_loaded;
    if records_streamed == 0 {
        eprintln!("REPLICATION GATE FAILED: no log records were streamed at all");
        std::process::exit(1);
    }
    let server_repl = server.stats().replication;
    println!(
        "leader counters: {} REPLICATE requests served, {} records + {} snapshots streamed \
         on completed streams, last stream lag {} epochs",
        server_repl.requests,
        server_repl.records_streamed,
        server_repl.snapshots_streamed,
        server_repl.lag_epochs,
    );

    // Phase 5: the leader dies. Promotion is gated on the digest chain of
    // its durable prefix: refused for the stale replica, granted for the
    // caught-up one — which then takes writes at the recovered epoch.
    server.shutdown();
    drop(corpus);
    let durable = durable_positions(&dir).unwrap_or_else(|error| {
        eprintln!("REPLICATION FAILED: durable positions: {error}");
        std::process::exit(1);
    });
    if stale.promote(&durable).is_ok() {
        eprintln!("PROMOTE GATE FAILED: a stale replica was promoted over newer durable state");
        std::process::exit(1);
    }
    let promoted = replica.promote(&durable).unwrap_or_else(|error| {
        eprintln!("PROMOTE GATE FAILED: the caught-up replica was refused: {error}");
        std::process::exit(1);
    });
    // Answer oracle for the promoted corpus: a cold crash recovery of the
    // leader's directory.
    let (recovered, _) = Corpus::open_durable(shards, durability()).unwrap_or_else(|error| {
        eprintln!("RECOVERY FAILED: {error}");
        std::process::exit(1);
    });
    let (promote_checked, promote_divergences) = diff_corpora(&recovered, &promoted, "PROMOTE");
    drop(recovered);
    let epilogue = random_edit_script(
        &mut rng,
        promoted
            .snapshot(&doc_ids[0])
            .expect("promoted corpus serves doc 0")
            .prepared
            .tree(),
        &script_config,
    );
    let report = promoted
        .commit(&doc_ids[0], &epilogue)
        .expect("promoted corpus takes writes");
    assert_eq!(
        report.epoch,
        commits_per_doc + 1,
        "the promoted corpus resumes at the recovered epoch"
    );
    println!(
        "promote: stale replica refused, caught-up replica promoted and committing at epoch \
         {}; {} fingerprints checked against crash recovery, {} divergences",
        report.epoch, promote_checked, promote_divergences,
    );

    let checked = initial_checked + catchup_checked + promote_checked;
    let divergences = initial_divergences + catchup_divergences + promote_divergences;
    if divergences > 0 {
        eprintln!("REPLICATION GATE FAILED: {divergences} answer fingerprints diverged");
        std::process::exit(1);
    }
    println!("replication fingerprints: all {checked} equal between leader and replica");
    let sync_ns = initial_sync_ns + catchup_ns;
    let stream_rate =
        (records_streamed + snapshots_streamed) as f64 / (sync_ns as f64 / 1e9).max(1e-12);
    let _ = std::fs::remove_dir_all(&dir);

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"schema\": \"cq-trees-replicate-bench/1\",\n  \"mode\": \"{}\",\n  \
             \"documents\": {},\n  \"shards\": {},\n  \"workers\": {},\n  \
             \"commits_per_doc\": {},\n  \"snapshot_every\": {},\n  \"kill_bytes\": {},\n  \
             \"commit_ns\": {},\n  \"initial_sync_ns\": {},\n  \"catchup_ns\": {},\n  \
             \"records_streamed\": {},\n  \"snapshots_streamed\": {},\n  \
             \"snapshot_fallbacks\": {},\n  \"reconnect_attempts\": {},\n  \
             \"stream_items_per_s\": {:.0},\n  \"fingerprints_checked\": {},\n  \
             \"divergences\": {},\n  \"promote\": \"ok\",\n  \"consistency\": \"ok\"\n}}\n",
            if smoke { "smoke" } else { "full" },
            documents,
            shards,
            workers,
            commits_per_doc,
            snapshot_every,
            kill_bytes,
            commit_ns,
            initial_sync_ns,
            catchup_ns,
            records_streamed,
            snapshots_streamed,
            fallback_snapshots,
            caught_up.attempts.max(1),
            stream_rate,
            checked,
            divergences,
        );
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
    if let Some(path) = check_path {
        check_replicate_regression(path, divergences, records_streamed, snapshots_streamed);
    }
}

/// One-shot truncating proxy for the replicate harness: accepts a single
/// connection, forwards its first request frame to `upstream`, relays at
/// most `limit` bytes of the response back, then drops both sockets —
/// a leader disconnect at a byte budget.
fn truncating_proxy(
    upstream: std::net::SocketAddr,
    limit: usize,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("proxy binds a loopback port");
    let addr = listener.local_addr().expect("proxy has a local address");
    let handle = std::thread::spawn(move || {
        let Ok((mut client, _)) = listener.accept() else {
            return;
        };
        let Ok(mut up) = TcpStream::connect(upstream) else {
            return;
        };
        // If the budget exceeds the whole stream, the leader just keeps the
        // connection open — bound the idle wait so the proxy always exits.
        let _ = up.set_read_timeout(Some(std::time::Duration::from_secs(2)));
        let _ = client.set_read_timeout(Some(std::time::Duration::from_secs(2)));
        let mut header = [0u8; 4];
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
        let mut buf = [0u8; 4096];
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

/// Gates the replication benchmark: the committed reference must parse, and
/// the **current run** must have zero leader/replica fingerprint
/// divergences, a non-empty record stream, and at least one streamed
/// snapshot (the truncation-fallback path). Stream rates are
/// machine-dependent — printed against the reference, never gated.
fn check_replicate_regression(
    ref_path: &str,
    divergences: u64,
    records_streamed: u64,
    snapshots_streamed: u64,
) {
    let ref_divergences = require_check_field(ref_path, "divergences");
    let ref_rate = require_check_field(ref_path, "stream_items_per_s");
    println!(
        "replicate-check: {divergences} divergences (reference {ref_divergences:.0}); \
         {records_streamed} records + {snapshots_streamed} snapshots streamed \
         (reference rate {ref_rate:.0} items/s, informational)"
    );
    if divergences > 0 {
        eprintln!(
            "replicate-check FAILED: {divergences} replica answer fingerprints diverged \
             from the leader"
        );
        std::process::exit(1);
    }
    if records_streamed == 0 {
        eprintln!(
            "replicate-check FAILED: no log records were streamed — the scenario stopped \
             exercising incremental replication"
        );
        std::process::exit(1);
    }
    if snapshots_streamed == 0 {
        eprintln!(
            "replicate-check FAILED: no snapshots were streamed — the scenario stopped \
             exercising the truncation fallback"
        );
        std::process::exit(1);
    }
    println!("replicate-check passed");
}

/// The parsed CLI flags of one `experiments net` run.
struct NetRunConfig {
    smoke: bool,
    target_qps: Option<f64>,
    workers: usize,
    queue_capacity: usize,
    connections: usize,
    documents: usize,
    shards: usize,
    json: Option<String>,
    check: Option<String>,
}

/// Exits with the standard network-serving failure banner. Every gate in
/// [`serve_net`] is hard: a violated invariant over real sockets is a
/// serving bug, never noise.
fn net_fail(msg: &str) -> ! {
    eprintln!("NET SERVING FAILED: {msg}");
    std::process::exit(1);
}

/// Aborts unless every per-response invariant of `report` held: no silent
/// drops, no fingerprint drift vs the serial probe, exact
/// `queue + exec = total` accounting, no shed response below the admission
/// threshold, no server-side errors.
fn check_net_invariants(name: &str, report: &cqt_bench::netload::PhaseReport) {
    if report.missing > 0 {
        net_fail(&format!(
            "{name} phase: {} of {} requests got no response (silent drops)",
            report.missing, report.sent
        ));
    }
    if report.fingerprint_mismatches > 0 {
        net_fail(&format!(
            "{name} phase: {} answers changed their fingerprint under load",
            report.fingerprint_mismatches
        ));
    }
    if report.accounting_violations > 0 {
        net_fail(&format!(
            "{name} phase: {} answers violated queue_ns + exec_ns == total_ns",
            report.accounting_violations
        ));
    }
    if report.shed_below_capacity > 0 {
        net_fail(&format!(
            "{name} phase: {} SHED responses reported a queue depth below capacity",
            report.shed_below_capacity
        ));
    }
    if report.errors > 0 {
        net_fail(&format!(
            "{name} phase: {} requests answered with an error",
            report.errors
        ));
    }
}

/// Prints one open-loop phase as two table rows.
fn print_net_phase(name: &str, r: &cqt_bench::netload::PhaseReport) {
    println!(
        "{name:<9} offered {:>10.0} qps   achieved {:>10.0} qps   sent {:>6}   \
         answered {:>6}   shed {:>6} ({:>5.1}%)",
        r.offered_qps,
        r.achieved_qps,
        r.sent,
        r.answered,
        r.shed,
        r.shed_rate() * 100.0,
    );
    println!(
        "          e2e p50/p99/p999 {} / {} / {}   queue p50/p99 {} / {}   \
         exec p50/p99 {} / {}",
        fmt_ns(r.e2e.p50_ns as f64),
        fmt_ns(r.e2e.p99_ns as f64),
        fmt_ns(r.e2e.p999_ns as f64),
        fmt_ns(r.queue.p50_ns as f64),
        fmt_ns(r.queue.p99_ns as f64),
        fmt_ns(r.exec.p50_ns as f64),
        fmt_ns(r.exec.p99_ns as f64),
    );
}

/// Renders one phase report as the JSON object embedded in BENCH_6.json.
fn render_net_phase_json(r: &cqt_bench::netload::PhaseReport) -> String {
    format!(
        "{{\"offered_qps\": {:.1}, \"achieved_qps\": {:.1}, \"sent\": {}, \
         \"answered\": {}, \"shed\": {}, \"errors\": {}, \"shed_rate\": {:.4}, \
         \"e2e_p50_ns\": {}, \"e2e_p99_ns\": {}, \"e2e_p999_ns\": {}, \
         \"queue_p50_ns\": {}, \"queue_p99_ns\": {}, \"queue_p999_ns\": {}, \
         \"exec_p50_ns\": {}, \"exec_p99_ns\": {}, \"exec_p999_ns\": {}}}",
        r.offered_qps,
        r.achieved_qps,
        r.sent,
        r.answered,
        r.shed,
        r.errors,
        r.shed_rate(),
        r.e2e.p50_ns,
        r.e2e.p99_ns,
        r.e2e.p999_ns,
        r.queue.p50_ns,
        r.queue.p99_ns,
        r.queue.p999_ns,
        r.exec.p50_ns,
        r.exec.p99_ns,
        r.exec.p999_ns,
    )
}

/// `experiments net` — starts the TCP serving front end over the same
/// sharded corpus as `serve --corpus`, proves the server's answers are
/// byte-identical to an in-process `run_corpus` of the same mix
/// (fingerprint gate), then drives it open-loop over real sockets: once
/// well below the calibrated admission threshold and once far above it.
/// Every response is verified (see [`check_net_invariants`]); the overload
/// phase must shed explicitly and keep the p99 of admitted requests bounded
/// by the queue capacity.
fn serve_net(cfg: NetRunConfig) {
    use cqt_bench::netload::{self, NetQuery, PhaseConfig};
    use cqt_service::net::protocol::{WireFanOut, WireLang};
    use cqt_service::{
        Corpus, CorpusRequest, CorpusWorkload, DocId, FanOut, NetServer, NetServerConfig,
        QuerySpec, ServiceConfig, ServiceRunner,
    };
    use cqt_trees::generate::{document_corpus, DocumentCorpusConfig};
    use std::sync::Arc;

    header("Network serving — TCP front end, backpressure, open-loop load");
    let NetRunConfig {
        smoke,
        target_qps,
        workers,
        queue_capacity,
        connections,
        documents,
        shards,
        json,
        check,
    } = cfg;
    let nodes_per_document = if smoke { 300 } else { 3_000 };
    // The exact corpus of `serve --corpus` (same seed, ids, tags): the
    // fingerprint gate below compares answers served over sockets against
    // an in-process run over this corpus, so both must see the same trees.
    let distinct = documents.div_ceil(2);
    let mut rng = StdRng::seed_from_u64(2005);
    let trees = document_corpus(
        &mut rng,
        &DocumentCorpusConfig {
            documents,
            distinct,
            nodes_per_document,
            ..DocumentCorpusConfig::default()
        },
    );
    let corpus = Arc::new(Corpus::new(shards));
    let doc_ids: Vec<DocId> = (0..documents)
        .map(|i| DocId::new(format!("doc-{i:04}")))
        .collect();
    for (i, tree) in trees.iter().enumerate() {
        let tags: &[&str] = if i % 4 == 0 { &["hot"] } else { &[] };
        corpus
            .insert_tagged(doc_ids[i].clone(), tags, tree.clone())
            .expect("fresh corpus has no duplicates");
    }
    println!(
        "corpus: {documents} documents x {nodes_per_document} nodes, {shards} shards; \
         server: {workers} workers, queue capacity {queue_capacity}; \
         client: {connections} connections"
    );

    let mid = documents / 2;
    let cq_scatter = "Q(y) :- A(x), Child+(x, y), B(y).";
    let cq_hot = "Q() :- C(x), Child(x, y), D(y).";
    let xpath_one = "//A[B] | //E";
    let mix = vec![
        NetQuery::cq_all(cq_scatter),
        NetQuery {
            lang: WireLang::Cq,
            text: cq_hot.into(),
            fanout: WireFanOut::Tag("hot".into()),
        },
        NetQuery {
            lang: WireLang::XPath,
            text: xpath_one.into(),
            fanout: WireFanOut::Doc(format!("doc-{mid:04}")),
        },
    ];

    // Ground truth: the same three requests, once each, in-process — no
    // sockets, no queue, no worker pool. The request-kind index doubles as
    // the fingerprint key on the wire, which reproduces `run_corpus`'s
    // (request, doc-position) answer keying exactly.
    let workload = CorpusWorkload::new(
        vec![
            CorpusRequest {
                query: QuerySpec::parse_cq(cq_scatter).expect("valid query"),
                target: FanOut::All,
            },
            CorpusRequest {
                query: QuerySpec::parse_cq(cq_hot).expect("valid query"),
                target: FanOut::Tagged("hot".into()),
            },
            CorpusRequest {
                query: QuerySpec::parse_xpath(xpath_one).expect("valid xpath"),
                target: FanOut::One(doc_ids[mid].clone()),
            },
        ],
        1,
    );
    let inproc = ServiceRunner::new(ServiceConfig::with_threads(1)).run_corpus(&corpus, &workload);

    let handle = NetServer::start(
        Arc::clone(&corpus),
        NetServerConfig {
            workers,
            queue_capacity,
            ..NetServerConfig::default()
        },
    )
    .unwrap_or_else(|e| net_fail(&format!("cannot start server: {e}")));
    println!("listening on {}", handle.addr());

    let probed = netload::probe(handle.addr(), &mix).unwrap_or_else(|e| net_fail(&e));
    let probe_sum = probed
        .iter()
        .fold(0u64, |acc, p| acc.wrapping_add(p.fingerprint));
    if probe_sum != inproc.answer_fingerprint {
        net_fail(&format!(
            "answers served over sockets (fingerprint {probe_sum:#018x}) differ from \
             the in-process run_corpus of the same mix ({:#018x})",
            inproc.answer_fingerprint
        ));
    }
    println!("fingerprint gate: socket answers == in-process run_corpus ({probe_sum:#018x})");
    let expected: Vec<u64> = probed.iter().map(|p| p.fingerprint).collect();
    let drain_timeout = std::time::Duration::from_secs(if smoke { 20 } else { 40 });

    // A user-specified single phase replaces the calibrated pair.
    if let Some(qps) = target_qps {
        let window = if smoke { 0.5 } else { 1.5 };
        let total = ((qps * window) as usize).clamp(100, 40_000);
        let report = netload::run_phase(
            handle.addr(),
            &mix,
            &expected,
            &PhaseConfig {
                target_qps: qps,
                total,
                connections,
                drain_timeout,
            },
        )
        .unwrap_or_else(|e| net_fail(&e));
        println!();
        print_net_phase("custom", &report);
        check_net_invariants("custom", &report);
        let stats = handle.stats();
        handle.shutdown();
        println!(
            "server counters: admitted {} executed {} shed {} errors {}",
            stats.admitted, stats.executed, stats.shed, stats.errors
        );
        if let Some(path) = json {
            let text = format!(
                "{{\n  \"schema\": \"cq-trees-net-bench/1\",\n  \"mode\": \"custom\",\n  \
                 \"documents\": {documents},\n  \"shards\": {shards},\n  \
                 \"workers\": {workers},\n  \"queue_capacity\": {queue_capacity},\n  \
                 \"connections\": {connections},\n  \"fingerprint_check\": \"ok\",\n  \
                 \"custom\": {}\n}}\n",
                render_net_phase_json(&report),
            );
            std::fs::write(&path, text).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("wrote {path}");
        }
        return;
    }

    // Calibrate the admission threshold in two steps. Serial probes give a
    // pure execution-rate estimate, but for microsecond queries the real
    // bottleneck is per-response overhead (frame writes, queue handoff),
    // which that estimate cannot see — so saturate the server with a burst
    // at twice the exec estimate and take the *achieved* throughput as the
    // service rate.
    let rounds = if smoke { 3 } else { 6 };
    let exec_estimate = netload::calibrate_capacity_qps(handle.addr(), &mix, rounds, workers)
        .unwrap_or_else(|e| net_fail(&e));
    println!(
        "serial-exec capacity estimate ≈ {exec_estimate:.0} qps \
         ({workers} workers / mean serial exec time)"
    );
    let burst = netload::run_phase(
        handle.addr(),
        &mix,
        &expected,
        &PhaseConfig {
            target_qps: (exec_estimate * 2.0).clamp(1_000.0, 500_000.0),
            total: if smoke { 4_000 } else { 8_000 },
            connections,
            drain_timeout,
        },
    )
    .unwrap_or_else(|e| net_fail(&e));
    check_net_invariants("calibration", &burst);
    let capacity = burst.achieved_qps.max(50.0);
    println!("measured capacity ≈ {capacity:.0} qps (achieved throughput of a saturating burst)");
    let low_qps = (capacity * 0.2).max(25.0);
    let over_qps = capacity * 5.0;
    let (low_window, over_window) = if smoke { (0.6, 0.25) } else { (2.0, 0.6) };
    let low_total = ((low_qps * low_window) as usize).clamp(300, 20_000);
    let over_total = ((over_qps * over_window) as usize).clamp(600, 40_000);

    let low = netload::run_phase(
        handle.addr(),
        &mix,
        &expected,
        &PhaseConfig {
            target_qps: low_qps,
            total: low_total,
            connections,
            drain_timeout,
        },
    )
    .unwrap_or_else(|e| net_fail(&e));
    println!();
    print_net_phase("low", &low);
    check_net_invariants("low", &low);
    // Below the admission threshold the queue must absorb essentially
    // everything. A tiny allowance covers multi-millisecond scheduler
    // stalls of the whole worker pool on loaded CI machines.
    if low.shed_rate() > 0.05 {
        net_fail(&format!(
            "low phase offered 0.2x capacity but shed {:.1}% of requests",
            low.shed_rate() * 100.0
        ));
    }

    let over = netload::run_phase(
        handle.addr(),
        &mix,
        &expected,
        &PhaseConfig {
            target_qps: over_qps,
            total: over_total,
            connections,
            drain_timeout,
        },
    )
    .unwrap_or_else(|e| net_fail(&e));
    print_net_phase("overload", &over);
    check_net_invariants("overload", &over);
    if over.shed == 0 {
        net_fail(&format!(
            "overload phase offered 5x capacity ({over_qps:.0} qps) but nothing was \
             shed — backpressure is not engaging"
        ));
    }
    if over.answered == 0 {
        net_fail("overload phase answered nothing — shedding displaced admitted requests");
    }
    // The whole point of bounded admission: an admitted request waits behind
    // at most `queue_capacity` jobs, so its queue time is bounded by the
    // backlog, not by the offered load (x2 slack; the bound ignores that
    // the backlog drains across all workers in parallel).
    let queue_bound_ns = 2 * queue_capacity as u64 * over.exec.max_ns.max(1);
    if over.queue.max_ns > queue_bound_ns {
        net_fail(&format!(
            "overload phase: an admitted request waited {} but the bounded queue \
             admits at most {} of backlog ({} jobs x max exec {})",
            fmt_ns(over.queue.max_ns as f64),
            fmt_ns(queue_bound_ns as f64),
            queue_capacity,
            fmt_ns(over.exec.max_ns as f64),
        ));
    }

    let stats = handle.stats();
    handle.shutdown();
    println!(
        "\nserver counters: admitted {} executed {} shed {} errors {} \
         (every request got exactly one response)",
        stats.admitted, stats.executed, stats.shed, stats.errors
    );
    let ratio = over.e2e.p99_ns as f64 / low.e2e.p99_ns.max(1) as f64;
    println!(
        "overload/low p99 of admitted requests = {ratio:.2}x; overload shed rate {:.1}%",
        over.shed_rate() * 100.0
    );

    if let Some(path) = json {
        let text = format!(
            "{{\n  \"schema\": \"cq-trees-net-bench/1\",\n  \"mode\": \"{}\",\n  \
             \"documents\": {documents},\n  \"shards\": {shards},\n  \
             \"workers\": {workers},\n  \"queue_capacity\": {queue_capacity},\n  \
             \"connections\": {connections},\n  \"capacity_qps\": {capacity:.1},\n  \
             \"fingerprint_check\": \"ok\",\n  \
             \"low\": {},\n  \"overload\": {},\n  \
             \"overload_shed_rate\": {:.4},\n  \"overload_p99_ratio\": {ratio:.3}\n}}\n",
            if smoke { "smoke" } else { "full" },
            render_net_phase_json(&low),
            render_net_phase_json(&over),
            over.shed_rate(),
        );
        std::fs::write(&path, text).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
    // Every gate of this run is in-run and has already passed: fingerprints,
    // accounting, no silent drops, low-phase shed <= 5%, overload shed > 0
    // and the queue-wait bound. The overload/low p99 ratio is a reading,
    // not a gate: its low-phase denominator moves with the socket path.
    if check.is_some() {
        println!("net-check passed (in-run gates; the reference is not compared)");
    }
}

/// Compares the current multi-vs-single-thread speedup against a reference
/// JSON; exits non-zero when it collapsed by more than 3×. Same
/// machine-independence argument as [`check_regression`]: both numbers are
/// within-run ratios, so absolute machine speed cancels; only the serving
/// layer's scaling behaviour moves them.
fn check_serve_regression(ref_path: &str, current_speedup: f64) {
    let ref_speedup = require_check_field(ref_path, "serve_speedup");
    println!(
        "serve-check: multi-thread speedup {current_speedup:.2}x vs reference {ref_speedup:.2}x"
    );
    if current_speedup < ref_speedup / 3.0 {
        eprintln!(
            "serve-check FAILED: multi-thread throughput speedup collapsed more than 3x \
             vs the committed baseline"
        );
        std::process::exit(1);
    }
    println!("serve-check passed");
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Renders the measurement rows as JSON (hand-formatted: the vendored serde
/// shim has no serializer, and the schema is small and stable).
fn render_bench_json(
    smoke: bool,
    kernels: &[KernelRow],
    ac: &[AcRow],
    engine: &[(usize, f64)],
    smoke_anchor_ns: f64,
    smoke_anchor_speedup: f64,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"cq-trees-bench/1\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    out.push_str(&format!(
        "  \"ac_fixpoint_smoke_ns\": {smoke_anchor_ns:.0},\n"
    ));
    out.push_str(&format!(
        "  \"ac_fixpoint_smoke_speedup\": {smoke_anchor_speedup:.2},\n"
    ));
    out.push_str("  \"semijoin_kernels\": [\n");
    for (i, row) in kernels.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"axis\": \"{}\", \"nodes\": {}, \
             \"scalar_ns\": {:.0}, \"word_ns\": {:.0}, \"speedup\": {:.2}}}{}\n",
            row.kernel,
            row.axis,
            row.nodes,
            row.scalar_ns,
            row.word_ns,
            row.scalar_ns / row.word_ns.max(1.0),
            if i + 1 == kernels.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"ac_fixpoint\": [\n");
    for (i, row) in ac.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"nodes\": {}, \"scalar_ns\": {:.0}, \"word_ns\": {:.0}, \
             \"speedup\": {:.2}}}{}\n",
            row.nodes,
            row.scalar_ns,
            row.word_ns,
            row.scalar_ns / row.word_ns.max(1.0),
            if i + 1 == ac.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"engine_eval\": [\n");
    for (i, (nodes, ns)) in engine.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"nodes\": {nodes}, \"xproperty_boolean_ns\": {ns:.0}}}{}\n",
            if i + 1 == engine.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Compares the current AC-fixpoint smoke measurement against a reference
/// JSON; exits non-zero on a regression of more than 3×.
///
/// The gate is **machine-independent**: it compares the within-run speedup
/// of the shipping engine over the in-repo scalar baseline (both timed on
/// the same machine in the same process) against the reference's recorded
/// speedup. A CI runner being uniformly slower than the machine that
/// produced the committed baseline cancels out; only an algorithmic
/// regression in the shipping engine moves the ratio. The absolute ns
/// comparison is printed for information only. (References without the
/// speedup field fall back to the absolute-ns check.)
fn check_regression(ref_path: &str, current_ns: f64, current_speedup: f64) {
    let ref_ns = optional_check_field(ref_path, "ac_fixpoint_smoke_ns");
    if let Some(ref_ns) = ref_ns {
        println!(
            "bench-check (informational): AC fixpoint smoke {} vs reference {} ({:.2}x)",
            fmt_ns(current_ns),
            fmt_ns(ref_ns),
            current_ns / ref_ns.max(1.0)
        );
    }
    match optional_check_field(ref_path, "ac_fixpoint_smoke_speedup") {
        Some(ref_speedup) => {
            println!(
                "bench-check: AC fixpoint speedup over scalar baseline {current_speedup:.2}x \
                 vs reference {ref_speedup:.2}x"
            );
            if current_speedup < ref_speedup / 3.0 {
                eprintln!(
                    "bench-check FAILED: within-run AC-fixpoint speedup collapsed more than 3x \
                     vs the committed baseline"
                );
                std::process::exit(1);
            }
        }
        None => {
            let Some(ref_ns) = ref_ns else {
                eprintln!(
                    "{}",
                    BenchCheckError {
                        path: ref_path.to_string(),
                        field: "ac_fixpoint_smoke_speedup",
                        kind: BenchCheckErrorKind::MissingField,
                    }
                );
                std::process::exit(1);
            };
            if current_ns / ref_ns.max(1.0) > 3.0 {
                eprintln!("bench-check FAILED: AC-fixpoint smoke timing regressed more than 3x");
                std::process::exit(1);
            }
        }
    }
    println!("bench-check passed");
}

/// Why a `--bench-check` reference JSON could not be used. The offending
/// path and field travel with the error, so a CI gate failure is diagnosable
/// from the log alone — "invalid reference" without saying *which* file and
/// *which* field it wanted is what this type replaces.
#[derive(Debug)]
struct BenchCheckError {
    /// The reference file the check tried to use.
    path: String,
    /// The field the check needed from it.
    field: &'static str,
    /// What went wrong.
    kind: BenchCheckErrorKind,
}

/// The ways a reference JSON fails a `--bench-check` gate before any
/// numbers are compared.
#[derive(Debug)]
enum BenchCheckErrorKind {
    /// The file could not be read at all (carries the I/O detail).
    Unreadable(String),
    /// The file was read but the field is absent or not a number.
    MissingField,
}

impl std::fmt::Display for BenchCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            BenchCheckErrorKind::Unreadable(detail) => write!(
                f,
                "bench-check reference {} (wanted field \"{}\"): {detail}",
                self.path, self.field
            ),
            BenchCheckErrorKind::MissingField => write!(
                f,
                "bench-check reference {}: field \"{}\" is missing or not a number — \
                 wrong file, truncated JSON, or schema drift",
                self.path, self.field
            ),
        }
    }
}

/// Reads one numeric field from the reference JSON at `path` — the common
/// prologue of every `--bench-check` gate, with both failure modes typed.
fn read_check_field(path: &str, field: &'static str) -> Result<f64, BenchCheckError> {
    let text = std::fs::read_to_string(path).map_err(|e| BenchCheckError {
        path: path.to_string(),
        field,
        kind: BenchCheckErrorKind::Unreadable(e.to_string()),
    })?;
    extract_json_number(&text, field).ok_or(BenchCheckError {
        path: path.to_string(),
        field,
        kind: BenchCheckErrorKind::MissingField,
    })
}

/// [`read_check_field`], exiting with the typed diagnostic on any failure.
fn require_check_field(path: &str, field: &'static str) -> f64 {
    read_check_field(path, field).unwrap_or_else(|error| {
        eprintln!("{error}");
        std::process::exit(1);
    })
}

/// [`read_check_field`] for fields with a fallback: a missing field is
/// `None` (the caller substitutes its legacy gate), an unreadable file is
/// still fatal — no gate can run without the reference.
fn optional_check_field(path: &str, field: &'static str) -> Option<f64> {
    match read_check_field(path, field) {
        Ok(value) => Some(value),
        Err(BenchCheckError {
            kind: BenchCheckErrorKind::MissingField,
            ..
        }) => None,
        Err(error) => {
            eprintln!("{error}");
            std::process::exit(1);
        }
    }
}

/// Minimal extraction of a numeric top-level field from a known-schema JSON
/// document (the vendored serde shim has no deserializer).
fn extract_json_number(json: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = json[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Theorem 7.1: size of the APQ produced for the diamond queries D_n.
fn succinctness(max_n: usize) {
    header("Theorem 7.1 — APQ blow-up for the diamond queries D_n");
    println!(
        "{:<4} {:>10} {:>14} {:>12} {:>12}",
        "n", "|D_n|", "APQ disjuncts", "APQ size", "time"
    );
    let budget = Duration::from_secs(120);
    let started = Instant::now();
    for n in 1..=max_n {
        if started.elapsed() > budget {
            println!("(stopping early: time budget exhausted)");
            break;
        }
        let options = RewriteOptions {
            max_disjuncts: 2_000_000,
            ..RewriteOptions::default()
        };
        let start = Instant::now();
        match apq_size_for_diamond(n, &options) {
            Ok((original, apq_size, disjuncts, _)) => println!(
                "{:<4} {:>10} {:>14} {:>12} {:>12}",
                n,
                original,
                disjuncts,
                apq_size,
                fmt_duration(start.elapsed())
            ),
            Err(err) => println!("{n:<4} rewrite aborted: {err}"),
        }
    }
}
