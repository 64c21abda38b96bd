//! `net-mixed`: open-loop traffic over real sockets against an in-process
//! `NetServer`.
//!
//! Three phases run against one server: `light` and `heavy` offer Poisson
//! arrivals at a fixed absolute mean rate on one connection (each request
//! timed from the instant it was due, so a stalled sender shows up as
//! latency), and a closed window of outstanding requests on one connection
//! measures the answered rate. The run is split into rounds of all three
//! phases, so a stall of the shared machine during part of the run touches
//! every phase alike. Every answer is checked against an in-process
//! `ServiceRunner::run_corpus` of the same query.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cqt_service::net::frame::{write_frame, FrameBuffer, DEFAULT_MAX_FRAME_LEN};
use cqt_service::net::protocol::{Request, Response, WireFanOut, WireLang, WireQuery};
use cqt_service::{
    Corpus, CorpusRequest, CorpusWorkload, FanOut, NetServer, NetServerConfig, Plan, QuerySpec,
    ServerHandle, ServiceConfig, ServiceRunner,
};
use cqt_trees::generate::LabelVocabulary;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::common::{self, json_strings, CorpusShape, Replayer};
use crate::trace::{quantile, ratio, windowed_quantile, Tracer};
use crate::{timed_setup, Args, Report};

/// Mean offered rate of the `light` phase (Poisson arrivals), requests per
/// second.
const LIGHT_QPS: f64 = 1_000.0;
/// Mean offered rate of the `heavy` phase, requests per second.
const HEAVY_QPS: f64 = 4_000.0;
/// Outstanding requests in the closed-window phase (one connection, far
/// below the admission queue).
const WINDOW: usize = 24;
/// Rounds of light, heavy and closed-window segments the run is split into.
const ROUNDS: usize = 6;
/// Spacing of the rounds' due instants in the merged samples, so no
/// statistics window spans two rounds.
const ROUND_STRIDE_NS: u64 = 1 << 40;
/// The server's admission queue. Deep enough that a stall of the shared
/// machine (a sender catching up on late Poisson arrivals sends them back
/// to back) queues instead of shedding: at the heavy rate it takes a stall
/// of a quarter second to fill.
const QUEUE_CAPACITY: usize = 1024;
const WORKERS: usize = 2;
/// Window of the windowed latency figures (see [`windowed`]).
const STAT_WINDOW_NS: u64 = 500_000_000;
/// Window of the closed-window rates (see [`closed_window`]).
const RATE_WINDOW_NS: u64 = 250_000_000;

/// One request kind of the mix.
#[derive(Clone, Debug)]
enum Kind {
    Single {
        lang: WireLang,
        text: String,
        fanout: WireFanOut,
    },
    Batch {
        fanout: WireFanOut,
        texts: Vec<String>,
    },
}

impl Kind {
    /// Every kind's answers are keyed with fingerprint key 0, the key
    /// request 0 of a one-request `run_corpus` workload gets.
    fn request(&self, id: u64) -> Request {
        match self {
            Kind::Single { lang, text, fanout } => Request::Query {
                id,
                lang: *lang,
                text: text.clone(),
                fanout: fanout.clone(),
                fp_key: 0,
            },
            Kind::Batch { fanout, texts } => Request::Batch {
                id,
                fanout: fanout.clone(),
                queries: texts
                    .iter()
                    .map(|text| WireQuery {
                        lang: WireLang::Cq,
                        text: text.clone(),
                        fp_key: 0,
                    })
                    .collect(),
            },
        }
    }

    fn specs(&self) -> Vec<(QuerySpec, FanOut)> {
        let parse = |lang: WireLang, text: &str| match lang {
            WireLang::Cq => QuerySpec::parse_cq(text).expect("mix queries parse"),
            WireLang::XPath => QuerySpec::parse_xpath(text).expect("mix queries parse"),
        };
        match self {
            Kind::Single { lang, text, fanout } => {
                vec![(parse(*lang, text), fanout.clone().into_fanout())]
            }
            Kind::Batch { fanout, texts } => texts
                .iter()
                .map(|t| (parse(WireLang::Cq, t), fanout.clone().into_fanout()))
                .collect(),
        }
    }

    fn label(&self) -> String {
        match self {
            Kind::Single { text, fanout, .. } => format!("{text} @ {fanout:?}"),
            Kind::Batch { fanout, texts } => format!("batch of {} @ {fanout:?}", texts.len()),
        }
    }
}

/// The mix: distinct kinds and the fixed cycle requests walk through
/// (request `id` is kind `CYCLE[id % CYCLE.len()]`).
const CYCLE: [usize; 8] = [0, 1, 2, 0, 1, 2, 0, 3];

fn kinds(documents: usize) -> Vec<Kind> {
    let mid = documents / 2;
    vec![
        // Selective: only one template family carries these private labels.
        Kind::Single {
            lang: WireLang::Cq,
            text: "Q(y) :- T3_D(x), Child(x, y), T3_E(y).".into(),
            fanout: WireFanOut::All,
        },
        // Shared labels, hot-tagged quarter of the corpus.
        Kind::Single {
            lang: WireLang::Cq,
            text: "Q() :- A(x), Child(x, y), B(y).".into(),
            fanout: WireFanOut::Tag("hot".into()),
        },
        Kind::Single {
            lang: WireLang::XPath,
            text: "//A[B]".into(),
            fanout: WireFanOut::Doc(format!("doc-{mid:04}")),
        },
        // Eight kindred queries sharing the A/Child chain.
        Kind::Batch {
            fanout: WireFanOut::All,
            texts: (0..8)
                .map(|t| format!("Q(y) :- A(x), Child(x, y), T{t}_C(y)."))
                .collect(),
        },
    ]
}

struct Setup {
    corpus: Arc<Corpus>,
    server: ServerHandle,
    kinds: Vec<Kind>,
    /// Per kind, the fingerprint of each of its queries.
    expected: Vec<Vec<u64>>,
    answer_sizes: Vec<Vec<usize>>,
    /// Wrong warm-up answers, counted as failures of the run.
    warm_failures: Vec<String>,
}

fn setup(seed: u64, shape: &CorpusShape) -> Setup {
    let corpus = Arc::new(Corpus::new(4));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6e65_742d_6d69_7864);
    common::populate(&corpus, &mut rng, shape);
    let kinds = kinds(shape.documents);
    let runner = ServiceRunner::new(ServiceConfig::with_threads(1));
    let mut expected = Vec::new();
    let mut answer_sizes = Vec::new();
    let mut scratch = cqt_core::ExecScratch::new();
    for kind in &kinds {
        let mut fps = Vec::new();
        let mut sizes = Vec::new();
        for (spec, target) in kind.specs() {
            let workload = CorpusWorkload::new(
                vec![CorpusRequest {
                    query: spec.clone(),
                    target: target.clone(),
                }],
                1,
            );
            fps.push(runner.run_corpus(&corpus, &workload).answer_fingerprint);
            let plan = Plan::compile(&spec, &Default::default()).0;
            sizes.push(
                corpus
                    .select(&target)
                    .iter()
                    .map(|d| {
                        common::answer_size(
                            &plan.execute(&d.handle().snapshot().prepared, &mut scratch),
                        )
                    })
                    .sum(),
            );
        }
        expected.push(fps);
        answer_sizes.push(sizes);
    }
    let server = NetServer::start(
        Arc::clone(&corpus),
        NetServerConfig {
            workers: WORKERS,
            queue_capacity: QUEUE_CAPACITY,
            ..NetServerConfig::default()
        },
    )
    .expect("start the server on a loopback port");
    // Warm-up: every kind a few times, pipelined (a lockstep exchange would
    // wait out a delayed ACK per request), which builds the server's plans
    // and each document's lazy label sets.
    let mut conn = Conn::open(server.addr());
    let warm = 4 * kinds.len() as u64;
    for id in 0..warm {
        conn.send(&kinds[id as usize % kinds.len()].request(id));
    }
    let mut warm_failures = Vec::new();
    for _ in 0..warm {
        let response = conn.recv().expect("warm-up answer");
        let k = response.id() as usize % kinds.len();
        if let Err(reason) = verify(&response, &expected[k]) {
            warm_failures.push(format!("warm-up {}: {reason}", kinds[k].label()));
        }
    }
    Setup {
        corpus,
        server,
        kinds,
        expected,
        answer_sizes,
        warm_failures,
    }
}

/// Checks one response against the kind's expected fingerprints; returns
/// the server's `(queue_ns, exec_ns, total_ns)`.
fn verify(response: &Response, expected: &[u64]) -> Result<(u64, u64, u64), String> {
    let (queue_ns, exec_ns, total_ns) = match response {
        Response::Answer {
            fingerprint,
            queue_ns,
            exec_ns,
            total_ns,
            ..
        } => {
            if expected != [*fingerprint] {
                return Err(format!(
                    "fingerprint {fingerprint:#x}, expected {expected:x?}"
                ));
            }
            (*queue_ns, *exec_ns, *total_ns)
        }
        Response::BatchAnswer {
            fingerprints,
            queue_ns,
            exec_ns,
            total_ns,
            ..
        } => {
            if fingerprints.as_slice() != expected {
                return Err(format!(
                    "batch fingerprints {fingerprints:x?}, expected {expected:x?}"
                ));
            }
            (*queue_ns, *exec_ns, *total_ns)
        }
        other => return Err(format!("not an answer: {other:?}")),
    };
    if queue_ns + exec_ns != total_ns {
        return Err(format!(
            "queue {queue_ns} + exec {exec_ns} != total {total_ns}"
        ));
    }
    Ok((queue_ns, exec_ns, total_ns))
}

/// A client connection: Nagle off on the client side, responses decoded
/// incrementally so a read timeout never loses a partial frame.
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    chunk: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .expect("set read timeout");
        Conn::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> Conn {
        Conn {
            stream,
            frames: FrameBuffer::new(DEFAULT_MAX_FRAME_LEN),
            chunk: vec![0; 1 << 16],
        }
    }

    fn send(&mut self, request: &Request) {
        write_frame(&mut self.stream, &request.encode()).expect("send a request frame");
    }

    /// The next response, or `None` after a read timeout with no complete
    /// frame buffered.
    fn poll(&mut self) -> Option<Response> {
        use std::io::Read;
        loop {
            if let Some(payload) = self.frames.next_frame().expect("server framing is valid") {
                return Some(Response::decode(&payload).expect("server responses decode"));
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => panic!("server closed the connection"),
                Ok(n) => self.frames.push(&self.chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return None
                }
                Err(e) => panic!("reading responses: {e}"),
            }
        }
    }

    /// The next response, waiting up to ten seconds.
    fn recv(&mut self) -> Option<Response> {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(response) = self.poll() {
                return Some(response);
            }
        }
        None
    }
}

/// Latency samples of one phase, in microseconds.
#[derive(Default)]
struct Phase {
    attempted: u64,
    answered: u64,
    /// Response received minus the instant the request was due, with
    /// that due instant.
    e2e_due: Vec<(u64, f64)>,
    /// Actual send minus due: how late the generator ran.
    lateness: Vec<f64>,
    queue: Vec<f64>,
    exec: Vec<f64>,
    /// Response received minus actual send, minus the server's total.
    wire_gap: Vec<f64>,
    wall_s: f64,
}

impl Phase {
    /// Appends the samples of a later segment of the same phase, its due
    /// instants shifted by `offset_ns`.
    fn merge(&mut self, segment: Phase, offset_ns: u64) {
        self.attempted += segment.attempted;
        self.answered += segment.answered;
        self.e2e_due.extend(
            segment
                .e2e_due
                .into_iter()
                .map(|(due, v)| (due + offset_ns, v)),
        );
        self.lateness.extend(segment.lateness);
        self.queue.extend(segment.queue);
        self.exec.extend(segment.exec);
        self.wire_gap.extend(segment.wire_gap);
        self.wall_s += segment.wall_s;
    }
}

/// Open loop on one connection: arrivals are a Poisson process of rate
/// `qps` drawn from `rng` (independent users); the sender sleeps until each
/// due instant and sends, whatever has come back. A second thread receives.
fn open_loop(
    setup: &Setup,
    rng: &mut StdRng,
    qps: f64,
    seconds: f64,
    first_id: u64,
    report: &mut Report,
) -> Phase {
    let total = ((qps * seconds) as usize).max(1);
    let mut due_ns = Vec::with_capacity(total);
    let mut at = 0.0f64;
    for _ in 0..total {
        due_ns.push(at as u64);
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        at += -(1.0 - unit).ln() * 1e9 / qps;
    }
    let mut sender = Conn::open(setup.server.addr());
    let receiver = Conn::from_stream(sender.stream.try_clone().expect("clone the socket"));
    let sending = AtomicBool::new(true);
    let start = Instant::now();
    let mut sent_ns = vec![0u64; total];
    let received = std::thread::scope(|scope| {
        let receiving = scope.spawn(|| {
            let mut conn = receiver;
            let mut got = Vec::with_capacity(total);
            let mut drain_deadline = None;
            while got.len() < total {
                match conn.poll() {
                    Some(response) => {
                        got.push((response.id(), start.elapsed().as_nanos() as u64, response))
                    }
                    None if sending.load(Ordering::Acquire) => {}
                    None => {
                        let deadline =
                            *drain_deadline.get_or_insert(Instant::now() + Duration::from_secs(10));
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                }
            }
            got
        });
        for (k, &due) in due_ns.iter().enumerate() {
            let now = start.elapsed().as_nanos() as u64;
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let id = first_id + k as u64;
            let request = setup.kinds[CYCLE[id as usize % CYCLE.len()]].request(id);
            sent_ns[k] = start.elapsed().as_nanos() as u64;
            sender.send(&request);
        }
        sending.store(false, Ordering::Release);
        receiving.join().expect("receiver thread")
    });
    let mut phase = Phase {
        attempted: total as u64,
        ..Phase::default()
    };
    let mut seen = vec![false; total];
    let mut last_ns = 0u64;
    for (id, recv_ns, response) in received {
        let Some(k) = id
            .checked_sub(first_id)
            .map(|k| k as usize)
            .filter(|&k| k < total && !seen[k])
        else {
            report.fail(format!("unexpected response id {id}"));
            continue;
        };
        seen[k] = true;
        last_ns = last_ns.max(recv_ns);
        let kind = CYCLE[id as usize % CYCLE.len()];
        match verify(&response, &setup.expected[kind]) {
            Ok((queue_ns, exec_ns, total_ns)) => {
                phase.answered += 1;
                phase
                    .e2e_due
                    .push((due_ns[k], (recv_ns - due_ns[k]) as f64 / 1e3));
                phase
                    .lateness
                    .push(sent_ns[k].saturating_sub(due_ns[k]) as f64 / 1e3);
                phase.queue.push(queue_ns as f64 / 1e3);
                phase.exec.push(exec_ns as f64 / 1e3);
                let e2e_sent = recv_ns.saturating_sub(sent_ns[k]);
                phase
                    .wire_gap
                    .push(e2e_sent.saturating_sub(total_ns) as f64 / 1e3);
            }
            Err(reason) => report.fail(format!(
                "request {id} ({}): {reason}",
                setup.kinds[kind].label()
            )),
        }
    }
    let missing = seen.iter().filter(|s| !**s).count();
    for _ in 0..missing {
        report.fail("a request got no response");
    }
    phase.wall_s = last_ns as f64 / 1e9;
    phase
}

/// Closed window: one connection keeping `WINDOW` requests outstanding
/// until `seconds` pass; returns the answers and the answered rate of each
/// whole [`RATE_WINDOW_NS`] window.
fn closed_window(
    setup: &Setup,
    seconds: f64,
    first_id: u64,
    report: &mut Report,
) -> (u64, Vec<f64>) {
    let mut conn = Conn::open(setup.server.addr());
    let start = Instant::now();
    let windows = ((seconds * 1e9) as u64 / RATE_WINDOW_NS).max(1);
    let mut per_window = vec![0u64; windows as usize];
    let mut sent = 0u64;
    let mut answered = 0u64;
    let mut outstanding = 0usize;
    let send = |conn: &mut Conn, sent: &mut u64| {
        let id = first_id + *sent;
        *sent += 1;
        conn.send(&setup.kinds[CYCLE[id as usize % CYCLE.len()]].request(id));
    };
    while outstanding < WINDOW {
        send(&mut conn, &mut sent);
        outstanding += 1;
    }
    while outstanding > 0 {
        let Some(response) = conn.recv() else {
            report.fail(format!("{outstanding} closed-window requests unanswered"));
            break;
        };
        outstanding -= 1;
        let kind = CYCLE[response.id() as usize % CYCLE.len()];
        match verify(&response, &setup.expected[kind]) {
            Ok(_) => {
                answered += 1;
                let window = (start.elapsed().as_nanos() as u64 / RATE_WINDOW_NS) as usize;
                if let Some(count) = per_window.get_mut(window) {
                    *count += 1;
                }
            }
            Err(reason) => report.fail(format!("closed window: {reason}")),
        }
        if start.elapsed().as_secs_f64() < seconds {
            send(&mut conn, &mut sent);
            outstanding += 1;
        }
    }
    report.attempted += sent;
    let rates = per_window
        .iter()
        .map(|&count| count as f64 * 1e9 / RATE_WINDOW_NS as f64)
        .collect();
    (answered, rates)
}

/// The per-window p50 and p95 over [`STAT_WINDOW_NS`] windows (by due
/// instant), each taken at the lower quartile across windows: on a shared
/// machine, stalls from other tenants inflate the tail of a varying share of
/// windows (up to half of a run has been seen), and the quieter quarter
/// keeps the figure to what this system does. Also prints the whole-phase
/// quantiles.
fn windowed(name: &str, samples: &[(u64, f64)]) -> (f64, f64) {
    let mut all: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
    summary(name, &mut all);
    (
        windowed_quantile(samples, STAT_WINDOW_NS, 0.50, 0.25, 100),
        windowed_quantile(samples, STAT_WINDOW_NS, 0.95, 0.25, 100),
    )
}

fn summary(name: &str, samples: &mut [f64]) -> (f64, f64) {
    let n = samples.len();
    let p50 = quantile(samples, 0.50);
    let p95 = quantile(samples, 0.95);
    let p99 = quantile(samples, 0.99);
    let max = quantile(samples, 1.0);
    println!("{name}: n={n} p50={p50:.1}us p95={p95:.1}us p99={p99:.1}us max={max:.1}us");
    (p50, p95)
}

pub fn run(args: &Args, report: &mut Report) {
    let shape = CorpusShape {
        documents: 24,
        nodes_per_document: 3_000,
        distinct: 12,
        vocabulary: LabelVocabulary::Overlapping,
        hot_tags: true,
    };
    let (setup, setup_s) = timed_setup(|_| setup(args.seed, &shape));
    report.set("setup_s", setup_s);
    report.attempted += 4 * setup.kinds.len() as u64;
    for reason in &setup.warm_failures {
        report.fail(reason.clone());
    }
    common::describe_corpus(report, &setup.corpus, &shape);
    let labels: Vec<String> = setup.kinds.iter().map(Kind::label).collect();
    report.describe("kinds", json_strings(&labels));
    report.describe("cycle", format!("{CYCLE:?}"));
    report.describe("answer_sizes", format!("{:?}", setup.answer_sizes));
    report.describe(
        "load",
        format!(
            "{{\"light_qps\": {LIGHT_QPS}, \"heavy_qps\": {HEAVY_QPS}, \"window\": {}, \
             \"connections_open_loop\": 1, \"connections_closed\": 1, \"server_workers\": {WORKERS}, \
             \"queue_capacity\": {QUEUE_CAPACITY}, \"rounds\": {ROUNDS}}}",
            WINDOW
        ),
    );

    // Traced runs spend part of their time in the replay.
    let share = if args.trace { 0.5 } else { 1.0 };
    let s = args.seconds * share;
    let round_s = s / ROUNDS as f64;
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x6172_7269_7661_6c73);
    let mut light = Phase::default();
    let mut heavy = Phase::default();
    let mut answered = 0;
    let mut rates = Vec::new();
    for round in 0..ROUNDS as u64 {
        // Request ids: phase in bits 40.., round in bits 32..
        let id = |phase: u64| (phase << 40) | (round << 32);
        let offset = round * ROUND_STRIDE_NS;
        let segment = open_loop(&setup, &mut rng, LIGHT_QPS, 0.3 * round_s, id(1), report);
        light.merge(segment, offset);
        let segment = open_loop(&setup, &mut rng, HEAVY_QPS, 0.3 * round_s, id(2), report);
        heavy.merge(segment, offset);
        let (n, segment_rates) = closed_window(&setup, 0.25 * round_s, id(3), report);
        answered += n;
        rates.extend(segment_rates);
    }
    // The closed-window rate of the busiest quarter of windows: stalls from
    // other tenants of a shared machine only ever lower a window's rate.
    let capacity = quantile(&mut rates, 0.75);
    report.attempted += light.attempted + heavy.attempted;
    let (light_p50, light_p95) = windowed("light_e2e_from_due", &light.e2e_due);
    let (heavy_p50, heavy_p95) = windowed("heavy_e2e_from_due", &heavy.e2e_due);
    println!(
        "light achieved {:.0}/s, heavy achieved {:.0}/s, closed window {answered} answered, capacity {capacity:.0}/s",
        ratio(light.answered as f64, light.wall_s),
        ratio(heavy.answered as f64, heavy.wall_s),
    );
    println!("e2e light_p50_us={light_p50:.1} light_p95_us={light_p95:.1} heavy_p50_us={heavy_p50:.1} heavy_p95_us={heavy_p95:.1} capacity_qps={capacity:.1}");
    report.set("throughput_per_s", capacity);
    report.set("p50_us", light_p50);
    report.set("tail_us", light_p95);
    report.set("side_p50_us", heavy_p50);
    report.set("side_tail_us", heavy_p95);
    report.describe(
        "samples",
        format!(
            "{{\"light\": {}, \"heavy\": {}, \"closed\": {answered}, \"prune_rate\": {:.4}}}",
            light.e2e_due.len(),
            heavy.e2e_due.len(),
            setup.server.stats().prune.prune_rate()
        ),
    );
    if !args.trace {
        return;
    }

    // Client and server layers, from the open-loop phases.
    let both = |f: fn(&Phase) -> &Vec<f64>| -> Vec<f64> {
        f(&light).iter().chain(f(&heavy)).copied().collect()
    };
    let mut lateness = both(|p| &p.lateness);
    report.set("client.lateness_p50_us", quantile(&mut lateness, 0.5));
    report.set("client.lateness_p99_us", quantile(&mut lateness, 0.99));
    let mut queue = both(|p| &p.queue);
    let (q50, q95) = summary("server_queue", &mut queue);
    report.set("server.queue_p50_us", q50);
    report.set("server.queue_p95_us", q95);
    let mut exec = both(|p| &p.exec);
    let (e50, e95) = summary("server_exec", &mut exec);
    report.set("server.exec_p50_us", e50);
    report.set("server.exec_p95_us", e95);
    let mut gap = both(|p| &p.wire_gap);
    let (g50, g95) = summary("wire_gap", &mut gap);
    report.set("net.wire_gap_p50_us", g50);
    report.set("net.wire_gap_p95_us", g95);
    let stats = setup.server.stats();
    report.set("server.shed", stats.shed as f64);
    report.set("server.errors", stats.errors as f64);
    let plan = stats.plan_cache;
    report.set(
        "plan.hit_rate",
        ratio(plan.hits as f64, (plan.hits + plan.misses) as f64),
    );
    report.set("plan.cross_document_hits", plan.cross_document_hits as f64);
    report.set("prune.rate", stats.prune.prune_rate());
    report.set("prune.false_positives", stats.prune.false_positives as f64);

    replay(args, &setup, report, s);
}

/// Replays the mix in-process through frame decode, request decode, query
/// parse, the scatter layers and response encode, once untraced and once
/// traced per round; every replayed answer is checked like a socket answer.
fn replay(args: &Args, setup: &Setup, report: &mut Report, budget_s: f64) {
    let frames: Vec<Vec<u8>> = CYCLE
        .iter()
        .enumerate()
        .map(|(id, &kind)| {
            let payload = setup.kinds[kind].request(id as u64).encode();
            let mut frame = Vec::new();
            write_frame(&mut frame, &payload).expect("frame into memory");
            frame
        })
        .collect();
    let distinct: Vec<QuerySpec> = setup
        .kinds
        .iter()
        .flat_map(|k| k.specs().into_iter().map(|(spec, _)| spec))
        .collect();
    let mut replayer = Replayer::new(&setup.corpus, false);
    let mut mismatches = Vec::new();
    let mut requests = 0u64;
    let mut pass = |tr: &mut Tracer, cycles: usize, replayer: &mut Replayer| {
        for spec in &distinct {
            std::hint::black_box(
                tr.time("plan.compile", || Plan::compile(spec, &replayer.options)),
            );
        }
        let mut decoder = FrameBuffer::new(DEFAULT_MAX_FRAME_LEN);
        for cycle in 0..cycles {
            for (slot, frame) in frames.iter().enumerate() {
                let kind = CYCLE[slot];
                tr.set_request((cycle * CYCLE.len() + slot) as u64);
                tr.enter("request");
                let payload = tr.time("frame.decode", || {
                    decoder.push(frame);
                    decoder.next_frame()
                });
                let payload = payload.expect("valid frame").expect("complete frame");
                let request = tr
                    .time("protocol.decode", || Request::decode(&payload))
                    .expect("decodes");
                let parse = |tr: &mut Tracer, lang: WireLang, text: &str| match lang {
                    WireLang::Cq => tr.time("parse.cq", || QuerySpec::parse_cq(text)),
                    WireLang::XPath => tr.time("parse.xpath", || QuerySpec::parse_xpath(text)),
                };
                let (fingerprints, response_id) = match request {
                    Request::Query {
                        id,
                        lang,
                        text,
                        fanout,
                        fp_key,
                    } => {
                        let spec = parse(tr, lang, &text).expect("mix query parses");
                        let target = fanout.into_fanout();
                        (vec![replayer.single(tr, &spec, &target, fp_key)], id)
                    }
                    Request::Batch {
                        id,
                        fanout,
                        queries,
                    } => {
                        let specs: Vec<QuerySpec> = queries
                            .iter()
                            .map(|q| parse(tr, q.lang, &q.text).expect("mix query parses"))
                            .collect();
                        let target = fanout.into_fanout();
                        (replayer.batch(tr, &specs, &target, 0), id)
                    }
                    other => panic!("the mix sends only queries, not {other:?}"),
                };
                let response = if let Kind::Batch { .. } = setup.kinds[kind] {
                    Response::BatchAnswer {
                        id: response_id,
                        docs: 0,
                        queue_ns: 0,
                        exec_ns: 0,
                        total_ns: 0,
                        fingerprints: fingerprints.clone(),
                    }
                } else {
                    Response::Answer {
                        id: response_id,
                        fingerprint: fingerprints[0],
                        docs: 0,
                        queue_ns: 0,
                        exec_ns: 0,
                        total_ns: 0,
                    }
                };
                std::hint::black_box(tr.time("protocol.encode", || response.encode()));
                tr.exit();
                requests += 1;
                if fingerprints != setup.expected[kind] {
                    mismatches.push(format!(
                        "replayed {} differs from the socket answer",
                        setup.kinds[kind].label()
                    ));
                }
            }
        }
    };
    // Calibrate the pass length on a warm cache: six passes share the
    // replay budget (three untraced, three traced).
    let start = Instant::now();
    pass(&mut Tracer::new(false), 1, &mut replayer);
    let one = start.elapsed().as_secs_f64().max(1e-6);
    let cycles = ((budget_s / 6.0 / one) as usize).clamp(1, 2_000);
    let (tracer, overhead) = common::traced_and_untraced(3, |tr| pass(tr, cycles, &mut replayer));
    report.attempted += requests;
    for reason in mismatches {
        report.fail(reason);
    }
    println!("replay: {cycles} cycles per pass, tracing overhead {overhead:.2}%");
    report.set("trace.overhead_pct", overhead);
    report.set("trace.spans", tracer.span_count() as f64);
    report.set("batch.step_hit_rate", replayer.batch_step_hit_rate());
    report.set("batch.deduped", replayer.batch_deduped as f64);
    common::report_spans(report, &tracer.totals(), &["request"]);
    let path =
        std::path::Path::new(crate::OUT_DIR).join(format!("net-mixed-seed{}.spans.csv", args.seed));
    if let Err(e) = tracer.write_csv(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}
