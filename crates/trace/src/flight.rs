//! A bounded ring-buffer flight recorder for postmortem dumps.
//!
//! Long-lived sessions (the `pde serve` loop) cannot stream every span to
//! disk, but when something degrades — a panic is isolated, the governor
//! stops a request, recovery rewinds a corrupt journal — the most recent
//! activity is exactly what a postmortem needs. [`FlightRecorder`] keeps
//! two rings: the last K *request records* (opaque JSONL lines noted by
//! the session) and the tail of the span stream (it is a [`Sink`], so it
//! composes with any other observer through
//! [`crate::sink::FanoutSink`]). [`FlightRecorder::dump`] renders both as
//! one JSONL document behind a caller-provided header line.

use crate::json::Json;
use crate::record::SpanRecord;
use crate::sink::Sink;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bounded rings of recent request records and span tails.
pub struct FlightRecorder {
    max_requests: usize,
    max_spans: usize,
    requests: Mutex<VecDeque<String>>,
    spans: Mutex<VecDeque<SpanRecord>>,
    evicted_spans: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding at most `max_requests` request records and
    /// `max_spans` spans; older entries are evicted first.
    pub fn with_capacity(max_requests: usize, max_spans: usize) -> FlightRecorder {
        FlightRecorder {
            max_requests,
            max_spans,
            requests: Mutex::new(VecDeque::new()),
            spans: Mutex::new(VecDeque::new()),
            evicted_spans: AtomicU64::new(0),
        }
    }

    /// Note one request record (a self-contained JSONL line, stored
    /// verbatim). The oldest record is evicted past the bound.
    pub fn note_line(&self, line: &str) {
        let mut reqs = self
            .requests
            .lock()
            .expect("flight recorder lock never poisoned");
        if reqs.len() == self.max_requests {
            reqs.pop_front();
        }
        reqs.push_back(line.to_owned());
    }

    /// Request records currently held.
    pub fn request_count(&self) -> usize {
        self.requests
            .lock()
            .expect("flight recorder lock never poisoned")
            .len()
    }

    /// Spans currently held.
    pub fn span_count(&self) -> usize {
        self.spans
            .lock()
            .expect("flight recorder lock never poisoned")
            .len()
    }

    /// Spans evicted from the ring since creation.
    pub fn evicted_spans(&self) -> u64 {
        self.evicted_spans.load(Ordering::Relaxed)
    }

    /// Render the rings as one JSONL document: `header` first, then the
    /// request records oldest-first, then the span tail oldest-first (as
    /// [`SpanRecord::to_json`] lines). Non-destructive: the rings keep
    /// recording afterwards.
    pub fn dump(&self, header: &Json) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "{header}");
        {
            let reqs = self
                .requests
                .lock()
                .expect("flight recorder lock never poisoned");
            for line in reqs.iter() {
                out.push_str(line);
                out.push('\n');
            }
        }
        {
            let spans = self
                .spans
                .lock()
                .expect("flight recorder lock never poisoned");
            for span in spans.iter() {
                let _ = writeln!(out, "{}", span.to_json());
            }
        }
        out
    }
}

impl Sink for FlightRecorder {
    fn record(&self, span: &SpanRecord) {
        let mut spans = self
            .spans
            .lock()
            .expect("flight recorder lock never poisoned");
        if spans.len() == self.max_spans {
            spans.pop_front();
            self.evicted_spans.fetch_add(1, Ordering::Relaxed);
        }
        spans.push_back(span.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FieldValue;

    fn rec(name: &'static str, seq: u64) -> SpanRecord {
        SpanRecord {
            name,
            seq,
            dur_ns: 10,
            self_ns: 10,
            fields: vec![("k", FieldValue::U64(seq))],
        }
    }

    #[test]
    fn rings_are_bounded_and_evict_oldest_first() {
        let fr = FlightRecorder::with_capacity(2, 3);
        for i in 0..4u64 {
            fr.note_line(&Json::from_iter([("id", i.into())]).to_string());
        }
        for i in 0..5 {
            fr.record(&rec("a", i));
        }
        assert_eq!(fr.request_count(), 2);
        assert_eq!(fr.span_count(), 3);
        assert_eq!(fr.evicted_spans(), 2);
        let dump = fr.dump(&Json::from_iter([("kind", "header".into())]));
        let lines: Vec<&str> = dump.lines().collect();
        // Header, the two newest requests, the three newest spans.
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0], "{\"kind\":\"header\"}");
        assert_eq!(lines[1], "{\"id\":2}");
        assert_eq!(lines[2], "{\"id\":3}");
        assert!(lines[3].contains("\"seq\":2"), "{}", lines[3]);
        assert!(lines[5].contains("\"seq\":4"), "{}", lines[5]);
    }

    #[test]
    fn dump_is_non_destructive() {
        let fr = FlightRecorder::with_capacity(4, 4);
        fr.note_line("{\"id\":1}");
        let header = Json::Obj(vec![]);
        let first = fr.dump(&header);
        let second = fr.dump(&header);
        assert_eq!(first, second);
        assert_eq!(fr.request_count(), 1);
    }
}
