//! In-memory span tracing for the benchmark's replay of each layer, plus the
//! small statistics helpers every workload shares.
//!
//! A span records its name, start, end, parent span and request id. Spans
//! are appended to one vector and written out when the run ends; nothing is
//! aggregated while the clock runs. A disabled tracer records nothing and
//! costs one branch per boundary, which is how the untraced replay that the
//! tracing overhead is measured against runs the very same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// Per-name totals over a trace: calls, total time and self time (the
/// span's duration minus the time its direct children cover).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration of one call, in nanoseconds (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// A span recorder. `enter`/`exit` bracket a parent span; `time` wraps a
/// leaf call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Switches recording on or off between spans (for sampling).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    /// Sets the request id stamped on the spans that follow.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
        self.stack.push(self.spans.len() as u32 - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.stack.pop().expect("exit without a matching enter");
        self.spans[index as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Totals per span name, with self times.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    /// Writes every span as one CSV line: name, start, end, parent, request.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,parent,request")?;
        for span in &self.spans {
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            writeln!(
                out,
                "{},{},{},{},{}",
                span.name, span.start_ns, span.end_ns, parent, span.request
            )?;
        }
        out.flush()
    }
}

/// The `q`-quantile of `samples` by nearest rank (sorts in place). 0 for an
/// empty sample.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Splits `(time_ns, value)` samples into windows of `window_ns` by their
/// time, takes the `q`-quantile of each window holding at least
/// `min_samples`, and returns the `across`-quantile of those per-window
/// figures. A stall of the shared machine moves the windows it covers, not
/// the result, as long as it covers fewer than `1 - across` of them.
pub fn windowed_quantile(
    samples: &[(u64, f64)],
    window_ns: u64,
    q: f64,
    across: f64,
    min_samples: usize,
) -> f64 {
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(time_ns, value) in samples {
        windows.entry(time_ns / window_ns).or_default().push(value);
    }
    let mut per_window: Vec<f64> = windows
        .into_values()
        .filter(|w| w.len() >= min_samples)
        .map(|mut w| quantile(&mut w, q))
        .collect();
    quantile(&mut per_window, across)
}

/// Splits `values` (in the order they were taken) into `chunks` runs of
/// equal length, applies `stat` to each, and returns the `across`-quantile
/// of the per-chunk figures: a stall of the shared machine during part of a
/// run moves the chunks it covers, not the result.
pub fn chunked(
    values: &[f64],
    chunks: usize,
    across: f64,
    stat: impl Fn(&mut [f64]) -> f64,
) -> f64 {
    let size = values.len().div_ceil(chunks.max(1)).max(1);
    let mut per_chunk: Vec<f64> = values
        .chunks(size)
        .map(|chunk| stat(&mut chunk.to_vec()))
        .collect();
    quantile(&mut per_chunk, across)
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
