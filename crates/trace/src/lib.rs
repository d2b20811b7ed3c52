//! Hand-rolled span tracing and metrics for peer data exchange.
//!
//! The paper's algorithms are phase-structured — chase rounds, trigger
//! discovery, egd merging, block decomposition, per-block homomorphism
//! search, solver branching — and this crate gives every phase a *span*:
//! a scoped timer carrying structured fields, delivered to a process-wide
//! [`Sink`]. The crate is dependency-free by construction (the workspace
//! vendors only rand/proptest/criterion), so the whole subsystem is plain
//! `std`.
//!
//! Being the leaf every crate already reaches, it also owns the
//! workspace's one JSON codec, [`json::Json`]: span records, run reports,
//! lint output, the certificates and `pde serve`'s lines are built as
//! `Json` values and printed with its `Display` writer, and the
//! certificate loaders and `pde serve`'s request decoder read with
//! [`json::parse`].
//!
//! # Design
//!
//! * **Disabled is (nearly) free.** [`span`] first reads one relaxed
//!   atomic; when no sink is installed it returns an inert guard that
//!   carries no allocation and whose `Drop` does nothing. Engines can
//!   therefore instrument their hottest loops unconditionally.
//! * **Sinks are pluggable.** [`NoopSink`] discards, [`CollectingSink`]
//!   buffers records in memory (bounded), [`ProfileSink`] aggregates
//!   per-phase totals for `--profile`, and [`JsonlSink`] streams one JSON
//!   object per span for `--trace <file.jsonl>`.
//! * **Self-time is tracked per thread.** Each thread keeps a stack of
//!   child-duration accumulators, so a span's `self_ns` excludes the time
//!   spent in *same-thread* child spans. Spans opened on worker threads
//!   (e.g. parallel block checks) account their own time on their own
//!   stack; their duration is not subtracted from the spawning span.
//! * **Environment opt-in.** The first trace call runs a one-shot
//!   initializer: `PDE_TRACE=collect` installs a bounded
//!   [`CollectingSink`] (used by CI to run the whole test suite with
//!   recording on), and any other non-empty value is treated as a JSONL
//!   output path. Programmatic [`set_sink`] / [`clear_sink`] always win
//!   over the environment.
//!
//! The span taxonomy, field names, and the versioned JSON report schema
//! are documented in `docs/OBSERVABILITY.md` at the repository root.

pub mod flight;
pub mod json;
pub mod metrics;
pub mod record;
pub mod sink;

pub use flight::FlightRecorder;
pub use metrics::{Histogram, MetricsRegistry};
pub use record::{FieldValue, SpanRecord};
pub use sink::{
    CollectingSink, FanoutSink, HistogramSink, JsonlSink, NoopSink, PhaseAgg, ProfileSink, Sink,
};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once, RwLock};
use std::time::Instant;

/// Version of the JSONL span format emitted by [`JsonlSink`] and of the
/// machine-readable run report printed by `pde solve --stats --format
/// json`. Bump on any incompatible change to field names or structure.
pub const REPORT_VERSION: u32 = 1;

/// Fast-path gate: `true` iff a sink is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// One-shot `PDE_TRACE` environment initialization.
static ENV_INIT: Once = Once::new();

/// The installed sink. A `RwLock` keeps record-time overhead to a shared
/// read lock; installation is rare.
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

/// Monotone sequence number stamped on every span record, giving golden
/// tests a stable ordering key once timestamps are scrubbed.
static SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread stack of child-duration accumulators (one slot per open
    /// span on this thread), used to compute self-time.
    static CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Install `sink` as the process-wide span sink and enable tracing.
pub fn set_sink(sink: Arc<dyn Sink>) {
    *SINK.write().expect("trace sink lock never poisoned") = Some(sink);
    // Mark the env var as handled so it cannot later override an explicit
    // installation (or an explicit clear).
    ENV_INIT.call_once(|| {});
    ENABLED.store(true, Ordering::SeqCst);
}

/// Remove the installed sink and disable tracing.
pub fn clear_sink() {
    ENABLED.store(false, Ordering::SeqCst);
    ENV_INIT.call_once(|| {});
    *SINK.write().expect("trace sink lock never poisoned") = None;
}

/// Is a sink currently installed? The first call consults the
/// `PDE_TRACE` environment variable (see the crate docs).
#[inline]
pub fn enabled() -> bool {
    if !ENV_INIT.is_completed() {
        ENV_INIT.call_once(init_from_env);
    }
    ENABLED.load(Ordering::Relaxed)
}

/// A handle to the installed sink, if any. Lets callers *compose* with
/// whatever is already observing (e.g. wrap the operator's `--trace`
/// stream and a session flight recorder in a [`FanoutSink`]) instead of
/// silently replacing it. Triggers the same one-shot environment
/// initialization as [`enabled`].
pub fn current_sink() -> Option<Arc<dyn Sink>> {
    if !enabled() {
        return None;
    }
    SINK.read().expect("trace sink lock never poisoned").clone()
}

/// Lazy `PDE_TRACE` handling: `collect` buffers spans in memory (bounded,
/// for CI soak runs), anything else non-empty names a JSONL output file.
fn init_from_env() {
    let Ok(value) = std::env::var("PDE_TRACE") else {
        return;
    };
    let value = value.trim();
    if value.is_empty() || value == "off" || value == "0" {
        return;
    }
    let sink: Arc<dyn Sink> = if value == "collect" {
        Arc::new(CollectingSink::bounded(1 << 20))
    } else {
        match JsonlSink::create(value) {
            Ok(s) => Arc::new(s),
            // A bad path must not take the process down; tracing simply
            // stays off.
            Err(_) => return,
        }
    };
    *SINK.write().expect("trace sink lock never poisoned") = Some(sink);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Values accepted by [`Span::field`].
pub trait IntoFieldValue {
    /// Convert into the stored field representation.
    fn into_field_value(self) -> FieldValue;
}

impl IntoFieldValue for u64 {
    fn into_field_value(self) -> FieldValue {
        FieldValue::U64(self)
    }
}

impl IntoFieldValue for usize {
    fn into_field_value(self) -> FieldValue {
        FieldValue::U64(u64::try_from(self).unwrap_or(u64::MAX))
    }
}

impl IntoFieldValue for u32 {
    fn into_field_value(self) -> FieldValue {
        FieldValue::U64(u64::from(self))
    }
}

impl IntoFieldValue for &str {
    fn into_field_value(self) -> FieldValue {
        FieldValue::Str(self.to_owned())
    }
}

/// A scoped span: created by [`span`], recorded to the installed sink on
/// drop. When tracing is disabled the guard is inert (no allocation, no
/// work on drop).
#[must_use = "a span measures the scope it is held for"]
pub struct Span {
    inner: Option<Box<SpanInner>>,
}

struct SpanInner {
    name: &'static str,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
}

/// Open a span named `name`. Span names are dot-separated phase
/// identifiers (`chase.round`, `block.hom_search`, …); the full taxonomy
/// lives in `docs/OBSERVABILITY.md`.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    CHILD_NS.with(|s| s.borrow_mut().push(0));
    Span {
        inner: Some(Box::new(SpanInner {
            name,
            start: Instant::now(),
            fields: Vec::new(),
        })),
    }
}

impl Span {
    /// Attach a structured field. A no-op on an inert span.
    #[inline]
    pub fn field(mut self, key: &'static str, value: impl IntoFieldValue) -> Span {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key, value.into_field_value()));
        }
        self
    }

    /// Attach a field after creation (for values only known mid-scope).
    #[inline]
    pub fn record_field(&mut self, key: &'static str, value: impl IntoFieldValue) {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key, value.into_field_value()));
        }
    }

    /// Is this span actually recording?
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_ns = u64::try_from(inner.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let child_ns = CHILD_NS.with(|s| {
            let mut stack = s.borrow_mut();
            let child = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent = parent.saturating_add(dur_ns);
            }
            child
        });
        let record = SpanRecord {
            name: inner.name,
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
            dur_ns,
            self_ns: dur_ns.saturating_sub(child_ns),
            fields: inner.fields,
        };
        if let Ok(guard) = SINK.read() {
            if let Some(sink) = guard.as_ref() {
                sink.record(&record);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The sink is process-global; tests that install one are serialized.
    static SINK_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = SINK_LOCK.lock().expect("test lock");
        clear_sink();
        let s = span("test.phase").field("k", 1u64);
        assert!(!s.is_recording());
        drop(s);
    }

    #[test]
    fn collecting_sink_receives_fields_in_order() {
        let _guard = SINK_LOCK.lock().expect("test lock");
        let sink = Arc::new(CollectingSink::bounded(16));
        set_sink(sink.clone());
        {
            let _s = span("test.outer").field("dep", 3usize).field("round", 7u64);
        }
        clear_sink();
        let spans = sink.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "test.outer");
        assert_eq!(
            spans[0].fields,
            vec![("dep", FieldValue::U64(3)), ("round", FieldValue::U64(7)),]
        );
    }

    #[test]
    fn self_time_excludes_same_thread_children() {
        let _guard = SINK_LOCK.lock().expect("test lock");
        let sink = Arc::new(CollectingSink::bounded(16));
        set_sink(sink.clone());
        {
            let _outer = span("test.parent");
            {
                let _inner = span("test.child");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        clear_sink();
        let spans = sink.take();
        assert_eq!(spans.len(), 2);
        let child = spans
            .iter()
            .find(|s| s.name == "test.child")
            .expect("child");
        let parent = spans
            .iter()
            .find(|s| s.name == "test.parent")
            .expect("parent");
        assert!(parent.dur_ns >= child.dur_ns);
        // The parent did nothing but hold the child: its self time is its
        // duration minus the child's (within scheduling noise).
        assert!(parent.self_ns <= parent.dur_ns - child.dur_ns + 1_000_000);
    }

    #[test]
    fn sequence_numbers_strictly_increase() {
        let _guard = SINK_LOCK.lock().expect("test lock");
        let sink = Arc::new(CollectingSink::bounded(16));
        set_sink(sink.clone());
        for _ in 0..3 {
            let _s = span("test.seq");
        }
        clear_sink();
        let spans = sink.take();
        assert!(spans.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
