//! The cq-trees benchmark: three workloads over the serving stack, each
//! checked answer by answer, reported as one JSON object on the last line of
//! standard output.
//!
//! ```text
//! cqbench --workload <net-mixed|engine-scan|durable-write> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! runs the same inputs again and replays each layer's public entry points
//! under span tracing, reporting the per-layer metrics and the tracing
//! overhead. Any wrong answer counts as a failure and makes the exit code 1.

mod common;
mod durable_write;
mod engine_scan;
mod net_mixed;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use trace::median;

/// End-to-end metrics: every workload reports each of them (see README.md
/// for what each one measures on each workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("side_p50_us", "us"),
    ("side_tail_us", "us"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.lateness_p50_us", "us"),
    ("client.lateness_p99_us", "us"),
    ("server.queue_p50_us", "us"),
    ("server.queue_p95_us", "us"),
    ("server.exec_p50_us", "us"),
    ("server.exec_p95_us", "us"),
    ("net.wire_gap_p50_us", "us"),
    ("net.wire_gap_p95_us", "us"),
    ("server.shed", "count"),
    ("server.errors", "count"),
    ("frame.decode_ns", "ns"),
    ("protocol.decode_ns", "ns"),
    ("protocol.encode_ns", "ns"),
    ("parse.cq_us", "us"),
    ("parse.xpath_us", "us"),
    ("plan.lookup_ns", "ns"),
    ("plan.compile_us", "us"),
    ("plan.hit_rate", "ratio"),
    ("plan.cross_document_hits", "count"),
    ("index.candidates_us", "us"),
    ("prune.check_ns", "ns"),
    ("prune.rate", "ratio"),
    ("prune.false_positives", "count"),
    ("shard.select_ns", "ns"),
    ("corpus.snapshot_ns", "ns"),
    ("prepared.label_load_us", "us"),
    ("prepared.label_set_builds", "count"),
    ("prepared.relation_builds", "count"),
    ("prepared.carried_label_sets", "count"),
    ("prepared.carried_relations", "count"),
    ("exec.ac_us", "us"),
    ("exec.yannakakis_us", "us"),
    ("exec.xproperty_us", "us"),
    ("exec.mac_us", "us"),
    ("exec.xpath_us", "us"),
    ("exec.kary_reduce_us", "us"),
    ("exec.kary_enumerate_us", "us"),
    ("answer.tuples", "count"),
    ("fingerprint.ns", "ns"),
    ("batch.prepare_us", "us"),
    ("batch.execute_us", "us"),
    ("batch.step_hit_rate", "ratio"),
    ("batch.deduped", "count"),
    ("edit.apply_us", "us"),
    ("prepared.prepare_edited_us", "us"),
    ("wal.commit_overhead_us", "us"),
    ("wal.snapshot_commit_us", "us"),
    ("wal.bytes_per_commit", "bytes"),
    ("recovery.recover_s", "s"),
    ("recovery.records_per_s", "1/s"),
    ("replica.records_streamed", "count"),
    ("replica.snapshots_streamed", "count"),
    ("replica.sync_s", "s"),
    ("self.request_pct", "%"),
    ("self.frame_pct", "%"),
    ("self.protocol_pct", "%"),
    ("self.parse_pct", "%"),
    ("self.shard_pct", "%"),
    ("self.plan_pct", "%"),
    ("self.index_pct", "%"),
    ("self.prune_pct", "%"),
    ("self.corpus_pct", "%"),
    ("self.prepared_pct", "%"),
    ("self.exec_pct", "%"),
    ("self.fingerprint_pct", "%"),
    ("self.batch_pct", "%"),
    ("self.edit_pct", "%"),
    ("self.wal_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// How many times each workload builds its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 15;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Where run artefacts (span dumps, WAL directories) go: inside the working
/// directory, which is the checkout root.
pub const OUT_DIR: &str = ".bench_out";

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 120.0) {
                        return Err("--seconds must be in (0, 120]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, not {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// What a workload run hands back: counts, failures, metrics and the
/// descriptors of its inputs.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Workload descriptors, each value already rendered as JSON.
    descriptors: Vec<(String, String)>,
}

impl Report {
    /// Sets a declared metric.
    ///
    /// # Panics
    /// On a name missing from [`END_TO_END`] and [`PER_LAYER`]: every
    /// reported name must be declared, and so listed in BENCHMARK.json.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Counts one failed operation and keeps the first few reasons.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(reason.into());
        }
    }

    /// Records a workload descriptor; `json` must be a JSON value.
    pub fn describe(&mut self, key: &str, json: impl Into<String>) {
        self.descriptors.push((key.to_string(), json.into()));
    }
}

/// Times `build` [`SETUP_REPEATS`] times and keeps the last result; returns
/// it with the median set-up time in seconds. Earlier results are dropped
/// before the next build starts, so set-ups never overlap.
pub fn timed_setup<T>(mut build: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for attempt in 0..SETUP_REPEATS {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(build(attempt));
        times.push(start.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), median(&times))
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("cqbench: {message}");
            eprintln!(
                "usage: cqbench --workload <net-mixed|engine-scan|durable-write> --seed N \
                 --seconds S --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "net-mixed" => net_mixed::run(&args, &mut report),
        "engine-scan" => engine_scan::run(&args, &mut report),
        "durable-write" => durable_write::run(&args, &mut report),
        other => {
            eprintln!("cqbench: unknown workload {other}");
            std::process::exit(2);
        }
    }

    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in declared {
        let value = match report.metrics.get(name) {
            Some(value) => *value,
            // A layer the workload does not exercise reports 0; an
            // end-to-end metric must always be measured.
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        println!("metric {name} = {value} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for reason in &report.failures {
        eprintln!("FAILED: {reason}");
    }
    println!(
        "failed_frac = {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );

    let env = format!(
        "{{\"nproc\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \"git_rev\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        std::thread::available_parallelism().map_or(1, usize::from),
        env!("CQBENCH_RUSTC"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        env!("CQBENCH_GIT_REV"),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let descriptors: Vec<String> = report
        .descriptors
        .iter()
        .map(|(key, json)| format!("\"{key}\": {json}"))
        .collect();
    println!(
        "{{\"env\": {env}, \"workload\": {{\"name\": \"{}\", {}}}}}",
        args.workload,
        descriptors.join(", ")
    );
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
