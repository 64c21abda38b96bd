//! `engine-scan`: an in-process closed loop over `ServiceRunner::run_corpus`
//! with two threads, one request per class of the dichotomy, scattered over
//! a corpus whose shared vocabulary leaves pruning nothing to remove.
//!
//! The main stream is the dichotomy mix; the side stream, on a runner of
//! its own with one thread, is one k-ary query on a single document, whose
//! answer enumeration grows with the product of its head domains. A main
//! call and a few side sweeps alternate until the time is up.

use std::sync::Arc;
use std::time::Instant;

use cqt_service::{
    answer_fingerprint, Corpus, CorpusRequest, CorpusWorkload, DocId, FanOut, Plan, PlanOptions,
    QuerySpec, ServiceConfig, ServiceRunner,
};
use cqt_trees::generate::LabelVocabulary;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{self, json_strings, CorpusShape, Replayer};
use crate::trace::{median, quantile, Tracer};
use crate::{timed_setup, Args, Report};

/// The dichotomy mix, each scattered to every document.
const MAIN: [&str; 6] = [
    // Acyclic Boolean and monadic: Yannakakis.
    "Q() :- A(x), Child(x, y), B(y), NextSibling(y, z), C(z).",
    "Q(y) :- A(x), Child+(x, y), B(y).",
    // Cyclic over tau1 {Child+}, tau2 {Following}, tau3 {Child, NextSibling}:
    // the X-property minimum valuation.
    "Q(z) :- A(x), Child+(x, y), Child+(y, z), Child+(x, z), B(y), C(z).",
    "Q(z) :- A(x), Following(x, y), Following(y, z), Following(x, z), B(y), C(z).",
    "Q(z) :- A(x), Child(x, y), Child(x, z), NextSibling(y, z), B(y), C(z).",
    // Cyclic over {Child, Child+}: NP-hard, MAC search.
    "Q() :- A(x), Child(x, y), Child+(y, z), Child+(x, z), B(y), C(z).",
];
const XPATH: &str = "//A[B]//C";
/// The k-ary side query, sent to each of the first [`KARY_DOCS`]
/// documents alone.
const KARY: &str = "Q(x, y) :- A(x), Child(x, y), B(y).";
const KARY_DOCS: usize = 24;
/// Main-mix repeats per runner call (210 requests, so p99 is not the
/// maximum).
const MAIN_REPEATS: usize = 30;
/// Side sweeps per main call: a sweep sends the k-ary query to each side
/// document alone, each request a runner call of its own (so the runner
/// reports each request's latency). The query's answer count, and with it
/// its cost, varies by a quarter between documents, so a tail pooled over
/// documents would be the slowest document's cost, which the seed sets;
/// each side figure is instead the median over documents of that
/// document's own p50 or p90 (see [`side_figure`]).
const SIDE_SWEEPS: usize = 3;
/// Equal runs of consecutive side sweeps the side figures are taken over.
const SIDE_CHUNKS: usize = 8;
const THREADS: usize = 2;

fn main_specs() -> Vec<QuerySpec> {
    let mut specs: Vec<QuerySpec> = MAIN
        .iter()
        .map(|text| QuerySpec::parse_cq(text).expect("main queries parse"))
        .collect();
    specs.push(QuerySpec::parse_xpath(XPATH).expect("xpath parses"));
    specs
}

fn workload(specs: &[QuerySpec], target: &FanOut, repeats: usize) -> CorpusWorkload {
    CorpusWorkload::new(
        specs
            .iter()
            .map(|spec| CorpusRequest {
                query: spec.clone(),
                target: target.clone(),
            })
            .collect(),
        repeats,
    )
}

/// The k-ary query once per side-stream document (the warm-up, and what
/// the traced replay reproduces).
fn side_sweep() -> CorpusWorkload {
    let kary = QuerySpec::parse_cq(KARY).expect("k-ary query parses");
    workload_over(&kary, side_targets(), 1)
}

/// One side request: the k-ary query on document `doc` alone.
fn side_request(doc: usize) -> CorpusWorkload {
    let kary = QuerySpec::parse_cq(KARY).expect("k-ary query parses");
    workload_over(&kary, vec![side_targets().swap_remove(doc)], 1)
}

fn workload_over(spec: &QuerySpec, targets: Vec<FanOut>, repeats: usize) -> CorpusWorkload {
    CorpusWorkload::new(
        targets
            .into_iter()
            .map(|target| CorpusRequest {
                query: spec.clone(),
                target,
            })
            .collect(),
        repeats,
    )
}

fn side_targets() -> Vec<FanOut> {
    (0..KARY_DOCS)
        .map(|d| FanOut::One(DocId::new(format!("doc-{d:04}"))))
        .collect()
}

struct Setup {
    corpus: Arc<Corpus>,
    runner: ServiceRunner,
    /// The side stream's runner, one thread: a single-document request's
    /// tail is then its own, not that of whichever document the other
    /// thread runs beside it on the machine's shared cores.
    side_runner: ServiceRunner,
    main: CorpusWorkload,
    /// The side request of each document.
    side: Vec<CorpusWorkload>,
    /// Fingerprints of one pass (repeats 1) of the main stream and of the
    /// side stream's documents.
    main_once: u64,
    side_once: u64,
}

fn setup(seed: u64, shape: &CorpusShape) -> Setup {
    let corpus = Arc::new(Corpus::new(4));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x656e_6769_6e65);
    common::populate(&corpus, &mut rng, shape);
    let specs = main_specs();
    let runner = ServiceRunner::new(ServiceConfig::with_threads(THREADS));
    let side_runner = ServiceRunner::new(ServiceConfig::with_threads(1));
    // Warm-up: one pass of each stream builds plans and the lazy label sets
    // and relations of every document.
    let main_once = runner
        .run_corpus(&corpus, &workload(&specs, &FanOut::All, 1))
        .answer_fingerprint;
    let side_once = side_runner
        .run_corpus(&corpus, &side_sweep())
        .answer_fingerprint;
    Setup {
        corpus,
        runner,
        side_runner,
        main: workload(&specs, &FanOut::All, MAIN_REPEATS),
        side: (0..KARY_DOCS).map(side_request).collect(),
        main_once,
        side_once,
    }
}

#[derive(Default)]
struct Calls {
    qps: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    fingerprints: Vec<u64>,
    requests: u64,
}

impl Calls {
    fn record(&mut self, report: &cqt_service::CorpusReport) {
        self.qps.push(report.qps);
        self.p50_us.push(report.latency.p50_ns as f64 / 1e3);
        self.p99_us.push(report.latency.p99_ns as f64 / 1e3);
        self.fingerprints.push(report.answer_fingerprint);
        self.requests += report.requests;
    }

    /// Every call ran the same workload, so every fingerprint must match;
    /// and a one-thread run must agree with the two-thread ones.
    fn check(&self, name: &str, single_thread: u64, report: &mut Report) {
        for (i, fp) in self.fingerprints.iter().enumerate() {
            if *fp != single_thread {
                report.fail(format!(
                    "{name} call {i}: fingerprint {fp:#x} differs from the 1-thread run {single_thread:#x}"
                ));
            }
        }
    }
}

/// The per-call figures' lower quartile when lower is better, else their
/// upper quartile.
fn quiet(per_call: &[f64], lower_is_better: bool) -> f64 {
    quantile(
        &mut per_call.to_vec(),
        if lower_is_better { 0.25 } else { 0.75 },
    )
}

/// The `q`-quantile of side latencies (`per_document[doc]`, one sample per
/// sweep): in each of [`SIDE_CHUNKS`] equal runs of sweeps, the median over
/// documents of each document's own `q`-quantile; then the lower quartile
/// across runs, as other tenants of a shared machine slow a varying share
/// of them.
fn side_figure(per_document: &[Vec<f64>], q: f64) -> f64 {
    let sweeps = per_document.first().map_or(0, Vec::len);
    let size = sweeps.div_ceil(SIDE_CHUNKS).max(1);
    let per_chunk: Vec<f64> = (0..sweeps)
        .step_by(size)
        .map(|from| {
            let to = (from + size).min(sweeps);
            let per_doc: Vec<f64> = per_document
                .iter()
                .map(|samples| quantile(&mut samples[from..to].to_vec(), q))
                .collect();
            median(&per_doc)
        })
        .collect();
    quiet(&per_chunk, true)
}

pub fn run(args: &Args, report: &mut Report) {
    let shape = CorpusShape {
        documents: 24,
        nodes_per_document: 3_000,
        distinct: 24,
        vocabulary: LabelVocabulary::Shared,
        hot_tags: false,
    };
    let (setup, setup_s) = timed_setup(|_| setup(args.seed, &shape));
    report.set("setup_s", setup_s);
    common::describe_corpus(report, &setup.corpus, &shape);

    let options = PlanOptions::default();
    let specs = main_specs();
    let kary = QuerySpec::parse_cq(KARY).expect("k-ary query parses");
    let mut labels = Vec::new();
    let mut sizes = Vec::new();
    let mut scratch = cqt_core::ExecScratch::new();
    for spec in &specs {
        let plan = Plan::compile(spec, &options).0;
        labels.push(common::exec_span(spec, &plan).to_string());
        let size: usize = setup
            .corpus
            .select(&FanOut::All)
            .iter()
            .map(|d| {
                common::answer_size(&plan.execute(&d.handle().snapshot().prepared, &mut scratch))
            })
            .sum();
        sizes.push(size);
    }
    // The k-ary answer of each side document: its size, and the expected
    // fingerprint of a side request (a one-request call keys its answer 0).
    let kary_plan = Plan::compile(&kary, &options).0;
    let mut side_expected = Vec::new();
    for target in side_targets() {
        let document = &setup.corpus.select(&target)[0];
        let answer = kary_plan.execute(&document.handle().snapshot().prepared, &mut scratch);
        labels.push(common::exec_span(&kary, &kary_plan).to_string());
        sizes.push(common::answer_size(&answer));
        side_expected.push(answer_fingerprint(0, &answer));
    }
    report.describe("engines", json_strings(&labels));
    report.describe("answer_sizes", format!("{sizes:?}"));
    report.describe(
        "load",
        format!(
            "{{\"threads\": {THREADS}, \"side_threads\": 1, \"main_requests_per_call\": {}, \
             \"side_sweeps_per_main_call\": {SIDE_SWEEPS}}}",
            setup.main.request_count(),
        ),
    );

    let share = if args.trace { 0.4 } else { 0.9 };
    let builds_before = common::prepared_builds(&setup.corpus);
    let mut main = Calls::default();
    // Side request latencies, per document.
    let mut side_us: Vec<Vec<f64>> = vec![Vec::new(); KARY_DOCS];
    let mut side_requests = 0u64;
    let mut last_prune = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds * share || main.qps.len() < 3 {
        let r = setup.runner.run_corpus(&setup.corpus, &setup.main);
        main.record(&r);
        last_prune = Some(r.prune);
        for _ in 0..SIDE_SWEEPS {
            for (doc, request) in setup.side.iter().enumerate() {
                let r = setup.side_runner.run_corpus(&setup.corpus, request);
                side_us[doc].push(r.latency.p50_ns as f64 / 1e3);
                side_requests += r.requests;
                if r.answer_fingerprint != side_expected[doc] {
                    report.fail(format!(
                        "k-ary request on doc {doc}: fingerprint {:#x}, expected {:#x}",
                        r.answer_fingerprint, side_expected[doc]
                    ));
                }
            }
        }
    }
    let builds_after = common::prepared_builds(&setup.corpus);
    report.attempted += main.requests + side_requests;

    let single = ServiceRunner::new(ServiceConfig::with_threads(1));
    let main_single = single
        .run_corpus(&setup.corpus, &setup.main)
        .answer_fingerprint;
    main.check("main", main_single, report);

    // Each main figure is taken over the quietest quarter of calls: other
    // tenants of a shared machine slow a varying share of them, and a call's
    // p99 (its third-slowest request) is set by a single preemption.
    let (qps, p50, p99) = (
        quiet(&main.qps, false),
        quiet(&main.p50_us, true),
        quiet(&main.p99_us, true),
    );
    let (side_p50, side_p90) = (side_figure(&side_us, 0.5), side_figure(&side_us, 0.9));
    println!(
        "e2e qps={qps:.1} p50_us={p50:.1} p99_us={p99:.1} kary_p50_us={side_p50:.1} kary_p90_us={side_p90:.1} \
         ({} main calls of {} requests, {} k-ary requests per document)",
        main.qps.len(),
        setup.main.request_count(),
        side_us[0].len(),
    );
    report.set("throughput_per_s", qps);
    report.set("p50_us", p50);
    report.set("tail_us", p99);
    report.set("side_p50_us", side_p50);
    report.set("side_tail_us", side_p90);
    let prune = last_prune.unwrap_or_default();
    report.describe(
        "samples",
        format!(
            "{{\"main_calls\": {}, \"main_requests\": {}, \"side_requests\": {side_requests}, \
             \"prune_rate\": {:.4}, \"fingerprint_main\": \"{main_single:#x}\"}}",
            main.qps.len(),
            main.requests,
            prune.prune_rate()
        ),
    );
    if !args.trace {
        return;
    }

    let (main_plans, side_plans) = (
        setup.runner.cache().stats(),
        setup.side_runner.cache().stats(),
    );
    let hits = main_plans.hits + side_plans.hits;
    let misses = main_plans.misses + side_plans.misses;
    report.set(
        "plan.hit_rate",
        crate::trace::ratio(hits as f64, (hits + misses) as f64),
    );
    report.set(
        "plan.cross_document_hits",
        (main_plans.cross_document_hits + side_plans.cross_document_hits) as f64,
    );
    report.set("prune.rate", prune.prune_rate());
    report.set("prune.false_positives", prune.false_positives as f64);
    report.set(
        "prepared.label_set_builds",
        (builds_after.0 - builds_before.0) as f64,
    );
    report.set(
        "prepared.relation_builds",
        (builds_after.1 - builds_before.1) as f64,
    );
    replay(
        args,
        &setup,
        report,
        &specs,
        &kary,
        args.seconds * (1.0 - share),
    );
}

/// Replays passes of both streams through the layer entry
/// points (plus the arc-consistency and k-ary reduction calls beneath the
/// engines), untraced and traced; both must reproduce the runner's
/// fingerprints.
fn replay(
    args: &Args,
    setup: &Setup,
    report: &mut Report,
    specs: &[QuerySpec],
    kary: &QuerySpec,
    budget_s: f64,
) {
    let texts: Vec<(bool, &str)> = MAIN
        .iter()
        .map(|t| (true, *t))
        .chain([(false, XPATH), (true, KARY)])
        .collect();
    let mut replayer = Replayer::new(&setup.corpus, true);
    let mut failures = Vec::new();
    let mut passes = 0u64;
    let mut pass = |tr: &mut Tracer, replayer: &mut Replayer| {
        for (cq, text) in &texts {
            let parsed = if *cq {
                tr.time("parse.cq", || QuerySpec::parse_cq(text))
            } else {
                tr.time("parse.xpath", || QuerySpec::parse_xpath(text))
            };
            std::hint::black_box(parsed.expect("benchmark queries parse"));
        }
        let mut main_fp = 0u64;
        for (i, spec) in specs.iter().enumerate() {
            tr.set_request(i as u64);
            tr.enter("request");
            std::hint::black_box(
                tr.time("plan.compile", || Plan::compile(spec, &replayer.options)),
            );
            main_fp = main_fp.wrapping_add(replayer.single(tr, spec, &FanOut::All, i as u64));
            tr.exit();
        }
        let mut side_fp = 0u64;
        for (d, target) in side_targets().iter().enumerate() {
            tr.set_request((specs.len() + d) as u64);
            tr.enter("request");
            std::hint::black_box(
                tr.time("plan.compile", || Plan::compile(kary, &replayer.options)),
            );
            side_fp = side_fp.wrapping_add(replayer.single(tr, kary, target, d as u64));
            tr.exit();
        }
        if main_fp != setup.main_once || side_fp != setup.side_once {
            failures.push(format!(
                "replay fingerprints {main_fp:#x}/{side_fp:#x} differ from run_corpus {:#x}/{:#x}",
                setup.main_once, setup.side_once
            ));
        }
        passes += 1;
    };
    // Calibrate on the warm-up pass: six rounds of `reps` passes share the
    // replay budget.
    let start = Instant::now();
    pass(&mut Tracer::new(false), &mut replayer);
    let one = start.elapsed().as_secs_f64().max(1e-6);
    let tuples_per_request = replayer.tuples as f64 / KARY_DOCS as f64;
    let reps = ((budget_s / 6.0 / one) as usize).clamp(1, 200);
    let (tracer, overhead) = common::traced_and_untraced(3, |tr| {
        for _ in 0..reps {
            pass(tr, &mut replayer);
        }
    });
    report.attempted += passes;
    for reason in failures {
        report.fail(reason);
    }
    println!("replay: {passes} passes, tracing overhead {overhead:.2}%");
    report.set("trace.overhead_pct", overhead);
    report.set("trace.spans", tracer.span_count() as f64);
    report.set("answer.tuples", tuples_per_request);
    common::report_spans(report, &tracer.totals(), &["request"]);
    let path = std::path::Path::new(crate::OUT_DIR)
        .join(format!("engine-scan-seed{}.spans.csv", args.seed));
    if let Err(e) = tracer.write_csv(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}
