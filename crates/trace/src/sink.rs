//! Span sinks: no-op, collecting, aggregating, fan-out, histogram, and
//! JSONL streaming.

use crate::metrics::MetricsRegistry;
use crate::record::SpanRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A destination for completed spans. Implementations must be cheap and
/// non-blocking enough to sit inside engine hot loops, and thread-safe:
/// parallel block checks record from worker threads.
pub trait Sink: Send + Sync {
    /// Deliver one completed span.
    fn record(&self, span: &SpanRecord);
}

/// Discards every span. Installing it measures the cost of the recording
/// machinery itself (the `<2%` no-op sink guard compares against *no* sink, which
/// skips even record construction).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn record(&self, _span: &SpanRecord) {}
}

/// Buffers spans in memory up to a bound; spans past the bound are counted
/// as dropped rather than grow the buffer without limit (CI runs the whole
/// test suite with this sink installed).
#[derive(Debug)]
pub struct CollectingSink {
    cap: usize,
    spans: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
}

impl CollectingSink {
    /// A sink retaining at most `cap` spans.
    pub fn bounded(cap: usize) -> CollectingSink {
        CollectingSink {
            cap,
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Take every buffered span, leaving the buffer empty.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("collecting sink lock never poisoned"),
        )
    }

    /// Number of buffered spans.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("collecting sink lock never poisoned")
            .len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Sink for CollectingSink {
    fn record(&self, span: &SpanRecord) {
        let mut spans = self
            .spans
            .lock()
            .expect("collecting sink lock never poisoned");
        if spans.len() < self.cap {
            spans.push(span.clone());
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Aggregate totals for one span name, kept by [`ProfileSink`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Spans recorded under this name.
    pub count: u64,
    /// Summed wall-clock duration (nanoseconds).
    pub total_ns: u64,
    /// Summed self time (duration minus same-thread children).
    pub self_ns: u64,
}

/// Aggregates spans per name instead of buffering them, so profiling a
/// multi-million-node search stays O(#distinct span names) in memory.
/// Backs the CLI's `--profile` breakdown table.
#[derive(Debug, Default)]
pub struct ProfileSink {
    agg: Mutex<BTreeMap<&'static str, PhaseAgg>>,
}

impl ProfileSink {
    /// An empty profile.
    pub fn new() -> ProfileSink {
        ProfileSink::default()
    }

    /// Snapshot the per-phase aggregates, sorted by name.
    pub fn snapshot(&self) -> Vec<(&'static str, PhaseAgg)> {
        self.agg
            .lock()
            .expect("profile sink lock never poisoned")
            .iter()
            .map(|(name, agg)| (*name, *agg))
            .collect()
    }

    /// Render the `--profile` table: one row per phase, sorted by self
    /// time descending, with a self-time percentage column over the summed
    /// self time (self times are non-overlapping per thread, so the
    /// percentages describe where the work actually went).
    pub fn render_table(&self) -> String {
        let mut rows = self.snapshot();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let total_self: u64 = rows.iter().map(|(_, a)| a.self_ns).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>10} {:>12} {:>12} {:>7}",
            "phase", "count", "total ms", "self ms", "self %"
        );
        for (name, agg) in rows {
            let pct = if total_self == 0 {
                0.0
            } else {
                #[allow(clippy::cast_precision_loss)]
                let p = agg.self_ns as f64 * 100.0 / total_self as f64;
                p
            };
            let _ = writeln!(
                out,
                "{:<22} {:>10} {:>12.3} {:>12.3} {:>6.1}%",
                name,
                agg.count,
                agg.total_ns as f64 / 1e6,
                agg.self_ns as f64 / 1e6,
                pct
            );
        }
        out
    }
}

impl Sink for ProfileSink {
    fn record(&self, span: &SpanRecord) {
        let mut agg = self.agg.lock().expect("profile sink lock never poisoned");
        let entry = agg.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns = entry.total_ns.saturating_add(span.dur_ns);
        entry.self_ns = entry.self_ns.saturating_add(span.self_ns);
    }
}

/// Delivers every span to each of several sinks, so observers compose:
/// a serve session can feed its flight recorder while an operator's
/// `--trace` stream and a per-request sampling collector stay live.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn Sink>>,
}

impl FanoutSink {
    /// A sink broadcasting to `sinks` in order.
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> FanoutSink {
        FanoutSink { sinks }
    }
}

impl Sink for FanoutSink {
    fn record(&self, span: &SpanRecord) {
        for sink in &self.sinks {
            sink.record(span);
        }
    }
}

/// Aggregates per-phase *self-time distributions*: every span named
/// `<name>` records its `self_ns` into a `phase.<name>.self_ns` histogram.
/// Where [`ProfileSink`] keeps totals, this keeps the shape — the report
/// layer merges the snapshot into the run report so `--stats --format
/// json` carries real latency histograms, not an empty map.
#[derive(Default)]
pub struct HistogramSink {
    reg: Mutex<MetricsRegistry>,
}

impl HistogramSink {
    /// An empty histogram sink.
    pub fn new() -> HistogramSink {
        HistogramSink::default()
    }

    /// A copy of the accumulated registry (histograms only).
    pub fn snapshot(&self) -> MetricsRegistry {
        self.reg
            .lock()
            .expect("histogram sink lock never poisoned")
            .clone()
    }
}

impl Sink for HistogramSink {
    fn record(&self, span: &SpanRecord) {
        let mut reg = self.reg.lock().expect("histogram sink lock never poisoned");
        reg.observe(&format!("phase.{}.self_ns", span.name), span.self_ns);
    }
}

/// Streams one JSON object per span to a file (or `/dev/stdout`).
#[derive(Debug)]
pub struct JsonlSink {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl JsonlSink {
    /// Create (truncating) the JSONL output file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink {
            out: Mutex::new(std::io::BufWriter::new(file)),
        })
    }

    /// Flush buffered lines to the file. Call before reading the file or
    /// exiting; `Drop` also flushes as a last resort.
    pub fn flush(&self) {
        let _ = self
            .out
            .lock()
            .expect("jsonl sink lock never poisoned")
            .flush();
    }
}

impl Sink for JsonlSink {
    fn record(&self, span: &SpanRecord) {
        let line = span.to_json();
        let mut out = self.out.lock().expect("jsonl sink lock never poisoned");
        // Output errors (full disk, closed pipe) must never take the
        // solver down; the trace is best-effort.
        let _ = writeln!(out, "{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FieldValue;

    fn rec(name: &'static str, dur_ns: u64, self_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            seq: 0,
            dur_ns,
            self_ns,
            fields: vec![("k", FieldValue::U64(1))],
        }
    }

    #[test]
    fn collecting_sink_bounds_its_buffer() {
        let s = CollectingSink::bounded(2);
        for _ in 0..5 {
            s.record(&rec("a", 1, 1));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        assert_eq!(s.take().len(), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn profile_sink_aggregates_and_ranks_by_self_time() {
        let s = ProfileSink::new();
        s.record(&rec("chase.trigger", 100, 90));
        s.record(&rec("chase.trigger", 100, 90));
        s.record(&rec("egd.merge", 50, 50));
        let snap = s.snapshot();
        assert_eq!(snap.len(), 2);
        let trigger = snap
            .iter()
            .find(|(n, _)| *n == "chase.trigger")
            .expect("trigger phase present");
        assert_eq!(trigger.1.count, 2);
        assert_eq!(trigger.1.total_ns, 200);
        assert_eq!(trigger.1.self_ns, 180);
        let table = s.render_table();
        let trigger_line = table
            .lines()
            .position(|l| l.contains("chase.trigger"))
            .expect("trigger row");
        let merge_line = table
            .lines()
            .position(|l| l.contains("egd.merge"))
            .expect("merge row");
        assert!(
            trigger_line < merge_line,
            "rows sorted by self time:\n{table}"
        );
    }

    #[test]
    fn fanout_sink_broadcasts_to_every_sink() {
        let a = Arc::new(CollectingSink::bounded(4));
        let b = Arc::new(CollectingSink::bounded(4));
        let fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        fan.record(&rec("x", 1, 1));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn histogram_sink_buckets_self_times_per_phase() {
        let s = HistogramSink::new();
        s.record(&rec("chase.round", 100, 90));
        s.record(&rec("chase.round", 100, 3));
        s.record(&rec("egd.merge", 50, 50));
        let snap = s.snapshot();
        let h = snap
            .histogram("phase.chase.round.self_ns")
            .expect("round histogram");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 93);
        assert_eq!(
            snap.histogram("phase.egd.merge.self_ns").map(|h| h.count),
            Some(1)
        );
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_span() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pde_trace_test_{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).expect("create jsonl file");
        sink.record(&rec("a", 1, 1));
        sink.record(&rec("b", 2, 2));
        sink.flush();
        let text = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"v\":1,\"span\":\"a\""));
        assert!(lines.iter().all(|l| l.ends_with('}')));
    }
}
