//! `pde serve` — a long-lived JSONL request loop over a durable store.
//!
//! The server owns a [`pde_store::InstanceStore`] directory and answers
//! one JSON request per stdin line with one JSON response per stdout
//! line (see `docs/SERVE.md` for the wire schema). Durability and
//! degradation guarantees:
//!
//! * Every `insert`/`retract` is committed to the store's journal before
//!   the response is written — a `kill -9` after a response never loses
//!   the mutation, and a crash *during* one rewinds to the previous epoch
//!   on restart, never to a wrong state.
//! * Startup recovery replays the journal onto the last snapshot and
//!   truncates any torn or corrupt tail; the hello line reports the
//!   recovered epoch and what was dropped.
//! * `solve` on tractable settings keeps all of Fig. 3 as session state
//!   (`Chased`): the Σst fixpoint of the base, and a
//!   [`pde_core::DemandState`] holding the Σts fixpoint (a `J_can` copy
//!   plus `I_can`), the union-find over `I_can`'s nulls, each block's
//!   facts as row references, and which blocks and ground facts are not
//!   known to map into `I`. After inserts, a solve extends both chases off
//!   the epoch deltas ([`pde_chase::chase_incremental_governed`]) and
//!   re-checks only new blocks, blocks that gained facts or merged through
//!   a shared null, and earlier failures: under inserts `J_can`, `I_can`
//!   and `I` only grow, so by Prop. 1 a block that mapped and gained
//!   nothing still maps. A solve with no new epoch answers from the cached
//!   verdict. One session [`NullGen`] mints the nulls of both chases, so a
//!   Σst null never reuses the id of a live Σts null (which would join
//!   unrelated blocks into a false "no").
//! * `certain` refreshes the same cache and answers from it. With no
//!   solution it is vacuous (`solutions_examined: 0`). Otherwise the
//!   null-free answers over `J_can` are certain (a lower bound) and those
//!   over the Fig. 3 witness `J_img = h_J(J_can)` contain the certain
//!   ones (an upper bound); when the two meet they are the answer, read
//!   off that one witness (`solutions_examined: 1`). Only when they differ
//!   does the assignment search enumerate the images of the cached
//!   `J_can`, stopping once its running intersection reaches the lower
//!   bound (`solutions_examined` counts the images it examined;
//!   `serve.certain_fallbacks` counts these requests).
//! * A retract drops the whole cache, since it can shrink `I` and undo
//!   chase consequences that delta reasoning cannot see. So do a governor
//!   stop and a contained panic, which can leave it half-extended. The
//!   next solve rebuilds it from watermark 0.
//!   `serve.incremental_rechases` / `serve.full_rechases` count
//!   extensions and rebuilds.
//! * Every request runs under its own [`Governor`] deadline/budget and
//!   inside [`pde_runtime::isolate`]: a stopped or panicking `solve` or
//!   `certain` is answered `undecided` without killing the loop, and the
//!   chased cache is moved out during maintenance so a contained panic
//!   can never leave a half-extended state behind.
//!
//! Telemetry (`docs/OBSERVABILITY.md` has the schemas):
//!
//! * Every request gets a monotone id, threaded through its spans, its
//!   response, and its access-log record.
//! * `--access-log <path>` appends one versioned JSONL record per request
//!   (id, kind, result, exit-equivalent status, durations, governor
//!   outcome, epoch, bytes); `--trace-sample N` additionally captures the
//!   full span stream of every Nth request into the same file.
//! * Request latencies feed power-of-two histograms (`serve.request_ns`,
//!   per-kind variants, `chase.round_ns`) surfaced by `--stats` responses
//!   and the `stats` request.
//! * A bounded [`FlightRecorder`] ring holds the most recent request
//!   records and span tails; it is dumped to the store directory on panic
//!   isolation, governor stop, corrupt-journal recovery, and shutdown, so
//!   every degraded outcome leaves a postmortem artifact.

use pde_analysis::plan_setting;
use pde_chase::{chase_incremental_governed, ChaseLimits, ChaseOutcome, WitnessMode};
use pde_constraints::Dependency;
use pde_core::{
    certain_answers_cached, certain_answers_governed, check_target_query, Bundle, DemandState,
    GenericLimits, PdeSetting, SolveError,
};
use pde_relational::{parse_instance, parse_query, Instance, NullGen, Schema, UnionQuery, Value};
use pde_runtime::{isolate, Governor, GovernorConfig};
use pde_store::{InstanceStore, Op, RecoveryReport};
use pde_trace::json::{self, Json};
use pde_trace::{CollectingSink, FanoutSink, FlightRecorder, MetricsRegistry, Sink};
use std::io::{BufRead, BufWriter, Write};
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request records the session flight recorder retains.
const FLIGHT_REQUESTS: usize = 64;
/// Span records the session flight recorder retains.
const FLIGHT_SPANS: usize = 256;
/// Cap on spans captured for one sampled request (`--trace-sample`).
const SAMPLE_SPAN_CAP: usize = 4096;

/// Configuration of one serve session (from the CLI flags).
pub struct ServeOptions {
    /// Directory of the durable store (created if missing).
    pub store_dir: String,
    /// Per-request wall-clock budget (`--timeout`).
    pub timeout: Option<Duration>,
    /// Per-request instance byte budget (`--memory-limit`).
    pub memory_limit: Option<usize>,
    /// Attach a `metrics` object to every response (`--stats`).
    pub stats: bool,
    /// Append one JSONL access record per request (`--access-log`).
    pub access_log: Option<String>,
    /// Capture the full span stream of every Nth request into the access
    /// log (`--trace-sample`); 0 disables sampling.
    pub trace_sample: u64,
}

/// What a request asked for, after JSON decoding.
#[derive(Debug, PartialEq)]
struct Request {
    op: String,
    /// `insert`/`retract`: instance text over the bundle's schema.
    facts: Option<String>,
    /// `certain`: a target UCQ in the query syntax.
    query: Option<String>,
    /// Fault injection (tests only): panic inside trigger application at
    /// this chase step. Rejected unless compiled with `fault-injection`.
    inject_panic_at: Option<u64>,
}

/// The fast path's Fig. 3 state, tagged with the base epoch it covers.
/// `covered < base.current_epoch()` means inserts arrived since; the next
/// solve extends it incrementally from that watermark.
struct Chased {
    /// Step 1: the Σst fixpoint of the base.
    instance: Instance,
    /// Steps 2–3: the Σts fixpoint, the blocks of `I_can` and their
    /// verdicts.
    demand: DemandState,
    /// Mints the nulls of both chases, so a Σst null never reuses the id
    /// of a live Σts null.
    gen: NullGen,
    covered: u64,
}

/// Serve counters, exported as `serve.*` next to the store's `store.*`.
#[derive(Default)]
struct ServeCounters {
    requests: u64,
    errors: u64,
    panics_isolated: u64,
    incremental_rechases: u64,
    full_rechases: u64,
    /// `certain` requests whose bounds differed, so the search enumerated.
    certain_fallbacks: u64,
}

struct ServeState {
    setting: PdeSetting,
    st_deps: Vec<Dependency>,
    /// Is the tractable fast path (cached-chase solve) applicable to this
    /// setting? Decided once: the setting never changes mid-session.
    fast_path: bool,
    store: InstanceStore,
    base: Instance,
    chased: Option<Chased>,
    counters: ServeCounters,
    /// Session-persistent latency histograms (`serve.request_ns` and
    /// per-kind variants, `chase.round_ns`), merged into every `metrics`
    /// response next to the store's own counters.
    metrics: MetricsRegistry,
    /// What startup recovery found, kept for the `stats` request.
    recovery: RecoveryReport,
    started: Instant,
    /// Ring of recent request records + span tails, dumped on degraded
    /// outcomes.
    flight: Arc<FlightRecorder>,
    /// Flight dumps written so far this session.
    flight_dumps: u64,
}

/// Per-request telemetry accumulated while handling, for the access log,
/// the response status, and the flight recorder.
struct ReqMeta {
    /// Wire-level result: `yes`/`no`/`undecided` for solves, `ok` for
    /// mutations and admin ops (`error` is derived from the body).
    result: &'static str,
    /// Governor outcome: `none`, a stop reason, or `panic: <message>`.
    governor: String,
    /// Time spent bringing the chased cache up to date, in nanoseconds.
    chase_ns: u64,
    /// Time spent solving/answering beyond the chase, in nanoseconds.
    solve_ns: u64,
    /// When set, the request degraded in a way that warrants a flight
    /// dump, tagged with the dump's reason.
    flight: Option<&'static str>,
}

impl ReqMeta {
    fn new() -> ReqMeta {
        ReqMeta {
            result: "ok",
            governor: "none".to_owned(),
            chase_ns: 0,
            solve_ns: 0,
            flight: None,
        }
    }
}

/// Restores the process-wide trace sink the session found at startup.
struct SinkGuard {
    prev: Option<Arc<dyn Sink>>,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        match self.prev.take() {
            Some(p) => pde_trace::set_sink(p),
            None => pde_trace::clear_sink(),
        }
    }
}

/// A response's members, in wire order; the loop adds `ok`, `id`,
/// `epoch` and `metrics` around a handler's.
type Fields = Vec<(&'static str, Json)>;

/// Three-valued solve answer on the wire.
enum Answer {
    Yes,
    No,
    Undecided(String),
}

/// Run the serve loop: recover the store, emit the hello line, then answer
/// one request per input line until EOF or a `shutdown` request. Returns
/// an error only for startup failures (bad store, bad bundle) and broken
/// output — per-request failures are answered in-band and never end the
/// loop.
pub fn serve(
    bundle: &Bundle,
    options: &ServeOptions,
    input: impl BufRead,
    mut output: impl Write,
) -> Result<(), String> {
    let schema: Arc<Schema> = bundle.setting.schema().clone();
    let (mut store, mut base, report) = InstanceStore::open(&options.store_dir, schema.clone())
        .map_err(|e| format!("{}: {e}", options.store_dir))?;
    if report.rewound() {
        eprintln!(
            "warning: journal damaged ({} torn, {} corrupt frame(s)); rewound to epoch {} \
             (dropped {} byte(s))",
            report.torn_frames,
            report.corrupt_frames,
            report.recovered_epoch,
            report.truncated_bytes
        );
    }
    // A fresh store is seeded from the bundle's %instance section; a
    // recovered one is authoritative and the section is ignored.
    let mut seeded = 0usize;
    if store.epoch() == 0 && base.fact_count() == 0 && bundle.input.fact_count() > 0 {
        let epoch = base.bump_epoch();
        let ops = ops_of(&bundle.input);
        let _ = bundle.input.for_each_fact(|rel, ids| {
            base.insert_ids(rel, ids);
            ControlFlow::Continue(())
        });
        seeded = ops.len();
        store
            .commit(epoch, &ops)
            .map_err(|e| format!("seeding store from bundle: {e}"))?;
    } else if bundle.input.fact_count() > 0 {
        eprintln!(
            "note: store already holds epoch {}; the bundle's %instance section is ignored",
            store.epoch()
        );
    }

    let class = bundle.setting.classification();
    let fast_path = bundle.setting.has_no_target_constraints() && class.ctract.in_ctract();
    let mut state = ServeState {
        setting: bundle.setting.clone(),
        st_deps: bundle
            .setting
            .sigma_st()
            .iter()
            .cloned()
            .map(Dependency::Tgd)
            .collect(),
        fast_path,
        store,
        base,
        chased: None,
        counters: ServeCounters::default(),
        metrics: MetricsRegistry::new(),
        recovery: report,
        started: Instant::now(),
        flight: Arc::new(FlightRecorder::with_capacity(FLIGHT_REQUESTS, FLIGHT_SPANS)),
        flight_dumps: 0,
    };

    // Compose the session flight recorder with whatever sink is already
    // observing (an operator's --trace stream, a profile run); the guard
    // restores the prior sink when the session ends.
    let prev_sink = pde_trace::current_sink();
    let session_sink: Arc<dyn Sink> = {
        let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
        if let Some(p) = prev_sink.clone() {
            sinks.push(p);
        }
        sinks.push(state.flight.clone());
        Arc::new(FanoutSink::new(sinks))
    };
    pde_trace::set_sink(session_sink.clone());
    let _sink_guard = SinkGuard { prev: prev_sink };

    let mut access: Option<BufWriter<std::fs::File>> = match &options.access_log {
        Some(path) => {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("access log {path}: {e}"))?;
            Some(BufWriter::new(file))
        }
        None => None,
    };

    // A rewind is a degraded outcome even before the first request: leave
    // the postmortem artifact immediately (the rings are empty; the header
    // alone records what recovery found).
    if state.recovery.rewound() {
        dump_flight(&mut state, &options.store_dir, "recovery-rewind", 0);
    }

    // The startup hello: what recovery found, in one machine-readable line.
    let hello = Json::from_iter([
        ("ok", true.into()),
        ("kind", "pde-serve-hello".into()),
        ("v", 1u32.into()),
        ("epoch", state.store.epoch().into()),
        ("snapshot_epoch", state.recovery.snapshot_epoch.into()),
        ("frames_replayed", state.recovery.frames_replayed.into()),
        ("truncated_frames", state.recovery.truncated_frames().into()),
        ("rewound", state.recovery.rewound().into()),
        ("seeded", seeded.into()),
        ("facts", state.base.fact_count().into()),
        ("fast_path", state.fast_path.into()),
    ]);
    writeln!(output, "{hello}").map_err(|e| out_err(&e))?;
    output.flush().map_err(|e| out_err(&e))?;

    let mut next_id: u64 = 0;
    for line in input.lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        next_id += 1;
        let id = next_id;
        let start = Instant::now();
        let sampled = options.trace_sample > 0 && id.is_multiple_of(options.trace_sample);
        let collector = sampled.then(|| Arc::new(CollectingSink::bounded(SAMPLE_SPAN_CAP)));
        if let Some(c) = &collector {
            pde_trace::set_sink(Arc::new(FanoutSink::new(vec![
                session_sink.clone(),
                c.clone() as Arc<dyn Sink>,
            ])));
        }
        let parsed = parse_request(&line);
        let kind = kind_of(&parsed);
        let mut meta = ReqMeta::new();
        let (body, done) = {
            let _span = pde_trace::span("serve.request")
                .field("id", id)
                .field("op", kind);
            match &parsed {
                Ok(req) => handle(&mut state, options, req, &mut meta),
                Err(e) => (Err(format!("bad request: {e}")), false),
            }
        };
        if collector.is_some() {
            pde_trace::set_sink(session_sink.clone());
        }
        // Count and observe *before* composing the response, so a
        // response's own metrics include the request it answers: histogram
        // counts always equal the request counters they ride next to.
        let total_ns = ns_since(start);
        state.counters.requests += 1;
        if body.is_err() {
            state.counters.errors += 1;
        }
        state.metrics.observe("serve.request_ns", total_ns);
        state
            .metrics
            .observe(&format!("serve.request_ns.{kind}"), total_ns);
        let status: u32 = match &body {
            Err(_) => 2,
            Ok(_) => match meta.result {
                "no" => 1,
                "undecided" => 3,
                _ => 0,
            },
        };
        let ok = body.is_ok();
        let mut fields: Fields = vec![("ok", ok.into()), ("id", id.into())];
        match body {
            Ok(body) => fields.extend(body),
            Err(e) => fields.push(("error", e.into())),
        }
        fields.push(("epoch", state.base.current_epoch().into()));
        if ok && (options.stats || kind == "stats") {
            fields.push(("metrics", session_metrics(&state).to_json()));
        }
        let response = Json::from_iter(fields).to_string();
        // One versioned access-log record per request; the flight
        // recorder's request ring holds the same line.
        let record = Json::from_iter([
            ("v", 1u32.into()),
            ("kind", "pde-access".into()),
            ("id", id.into()),
            ("op", kind.into()),
            ("result", if ok { meta.result } else { "error" }.into()),
            ("status", status.into()),
            ("total_ns", total_ns.into()),
            ("chase_ns", meta.chase_ns.into()),
            ("solve_ns", meta.solve_ns.into()),
            ("governor", meta.governor.as_str().into()),
            ("epoch", state.base.current_epoch().into()),
            ("bytes_in", line.len().into()),
            ("bytes_out", response.len().into()),
        ])
        .to_string();
        state.flight.note_line(&record);
        if let Some(w) = access.as_mut() {
            let io = writeln!(w, "{record}").and_then(|()| {
                if let Some(c) = &collector {
                    for span in c.take() {
                        // The span record's members follow the sample's own.
                        let Json::Obj(record) = span.to_json() else {
                            continue;
                        };
                        let head = [("kind", Json::from("pde-span-sample")), ("id", id.into())];
                        let fields = head.into_iter().map(|(k, v)| (k.to_owned(), v));
                        writeln!(w, "{}", Json::from_iter(fields.chain(record)))?;
                    }
                }
                w.flush()
            });
            if let Err(e) = io {
                eprintln!("warning: access log write failed: {e}");
            }
        }
        if let Some(reason) = meta.flight {
            dump_flight(&mut state, &options.store_dir, reason, id);
        }
        writeln!(output, "{response}").map_err(|e| out_err(&e))?;
        output.flush().map_err(|e| out_err(&e))?;
        if done {
            break;
        }
    }
    // Shutdown (request or EOF) always leaves the final flight state
    // behind, making "what was the session doing?" answerable post hoc.
    dump_flight(&mut state, &options.store_dir, "shutdown", next_id);
    Ok(())
}

/// Nanoseconds elapsed since `t`, saturating.
fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The request kind access records and per-kind histograms are keyed by:
/// a known op maps to itself, everything else (parse failures, unknown
/// ops) to `invalid`, keeping the key space bounded under hostile input.
fn kind_of(parsed: &Result<Request, String>) -> &'static str {
    match parsed {
        Ok(req) => match req.op.as_str() {
            "solve" => "solve",
            "certain" => "certain",
            "insert" => "insert",
            "retract" => "retract",
            "snapshot" => "snapshot",
            "stats" => "stats",
            "shutdown" => "shutdown",
            _ => "invalid",
        },
        Err(_) => "invalid",
    }
}

/// The next free index for a `flight-NNN-<reason>.jsonl` dump in `dir`:
/// one past the highest existing index, so dumps from restarted sessions
/// never clobber earlier evidence.
fn next_flight_index(dir: &str) -> u64 {
    let mut next = 0u64;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(rest) = name.strip_prefix("flight-") {
                if let Some(num) = rest.split('-').next() {
                    if let Ok(n) = num.parse::<u64>() {
                        next = next.max(n + 1);
                    }
                }
            }
        }
    }
    next
}

/// Dump the flight recorder to the store directory. Best-effort: a failed
/// dump warns on stderr and never takes the loop down.
fn dump_flight(state: &mut ServeState, dir: &str, reason: &str, at_request: u64) {
    let header = Json::from_iter([
        ("v", 1u32.into()),
        ("kind", "pde-flight".into()),
        ("reason", reason.into()),
        ("at_request", at_request.into()),
        ("uptime_ns", ns_since(state.started).into()),
        ("epoch", state.store.epoch().into()),
        ("requests", state.flight.request_count().into()),
        ("spans", state.flight.span_count().into()),
        ("evicted_spans", state.flight.evicted_spans().into()),
    ]);
    let path = Path::new(dir).join(format!(
        "flight-{:03}-{reason}.jsonl",
        next_flight_index(dir)
    ));
    match std::fs::write(&path, state.flight.dump(&header)) {
        Ok(()) => state.flight_dumps += 1,
        Err(e) => eprintln!("warning: flight dump {} failed: {e}", path.display()),
    }
}

fn out_err(e: &std::io::Error) -> String {
    format!("stdout: {e}")
}

/// Decode one request line: a JSON object with string `op`/`facts`/
/// `query` fields and the optional integer fault point. Any other field
/// or value type is a bad request.
fn parse_request(line: &str) -> Result<Request, String> {
    let fields = json::parse_object(line)?;
    let mut req = Request {
        op: String::new(),
        facts: None,
        query: None,
        inject_panic_at: None,
    };
    for (key, value) in fields {
        match (key.as_str(), value) {
            ("op", Json::Str(s)) => req.op = s,
            ("facts", Json::Str(s)) => req.facts = Some(s),
            ("query", Json::Str(s)) => req.query = Some(s),
            ("inject_panic_at", Json::Num(n)) => {
                let n =
                    u64::try_from(n).map_err(|_| format!("inject_panic_at {n} out of range"))?;
                req.inject_panic_at = Some(n);
            }
            (k, v) => return Err(format!("unexpected field '{k}' = {v:?}")),
        }
    }
    if req.op.is_empty() {
        return Err("missing 'op' field".into());
    }
    Ok(req)
}

/// The governor for one request: CLI budgets, plus the request's fault
/// point when compiled for fault injection.
// The Err branch only exists without `fault-injection` (the wrap looks
// unnecessary to clippy when the feature is on).
#[allow(clippy::unnecessary_wraps)]
fn request_governor(options: &ServeOptions, req: &Request) -> Result<Governor, String> {
    let config = GovernorConfig {
        deadline: options.timeout,
        memory_budget_bytes: options.memory_limit,
        ..GovernorConfig::default()
    };
    match req.inject_panic_at {
        None => Ok(Governor::new(config)),
        #[cfg(feature = "fault-injection")]
        Some(step) => Ok(Governor::with_faults(
            config,
            pde_runtime::FaultPlan {
                panic_in_trigger_at_step: Some(usize::try_from(step).unwrap_or(usize::MAX)),
                ..pde_runtime::FaultPlan::default()
            },
        )),
        #[cfg(not(feature = "fault-injection"))]
        Some(_) => Err("inject_panic_at requires the fault-injection build".into()),
    }
}

/// Dispatch one decoded request. Returns the response body fields (or the
/// in-band error message) and whether the loop should end (`shutdown`).
fn handle(
    state: &mut ServeState,
    options: &ServeOptions,
    req: &Request,
    meta: &mut ReqMeta,
) -> (Result<Fields, String>, bool) {
    let governor = match request_governor(options, req) {
        Ok(g) => g,
        Err(e) => return (Err(e), false),
    };
    let body = match req.op.as_str() {
        "solve" => handle_solve(state, &governor, meta),
        "certain" => handle_certain(state, req, &governor, meta),
        "insert" => handle_mutate(state, req, true),
        "retract" => handle_mutate(state, req, false),
        "snapshot" => handle_snapshot(state),
        "stats" => Ok(handle_stats(state)),
        "shutdown" => Ok(vec![("op", "shutdown".into())]),
        other => Err(format!("unknown op '{other}'")),
    };
    (body, req.op == "shutdown")
}

/// The session's `metrics` member, attached to the `stats` response and,
/// under `--stats`, to every response.
fn session_metrics(state: &ServeState) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    state.store.export_metrics(&mut reg);
    reg.add("serve.requests", state.counters.requests);
    reg.add("serve.errors", state.counters.errors);
    reg.add("serve.panics_isolated", state.counters.panics_isolated);
    reg.add(
        "serve.incremental_rechases",
        state.counters.incremental_rechases,
    );
    reg.add("serve.full_rechases", state.counters.full_rechases);
    reg.add("serve.certain_fallbacks", state.counters.certain_fallbacks);
    reg.add("serve.flight_dumps", state.flight_dumps);
    reg.merge_from(&state.metrics);
    reg
}

/// `stats`: session telemetry — uptime, the durable epoch, what recovery
/// found at startup, flight dumps written. The `metrics` member (with the
/// latency histograms) is attached unconditionally for this op.
fn handle_stats(state: &ServeState) -> Fields {
    vec![
        ("op", "stats".into()),
        ("uptime_ns", ns_since(state.started).into()),
        ("durable_epoch", state.store.epoch().into()),
        ("snapshot_epoch", state.recovery.snapshot_epoch.into()),
        ("frames_replayed", state.recovery.frames_replayed.into()),
        ("truncated_frames", state.recovery.truncated_frames().into()),
        ("rewound", state.recovery.rewound().into()),
        ("flight_dumps", state.flight_dumps.into()),
    ]
}

/// `solve`: the tractable fast path answers from the shared chased state
/// (maintained incrementally); everything else routes through the full
/// planned solver. Either way the work is isolated — a panic is an
/// `undecided` answer, not a dead loop.
fn handle_solve(
    state: &mut ServeState,
    governor: &Governor,
    meta: &mut ReqMeta,
) -> Result<Fields, String> {
    let answer = if state.fast_path && state.base.is_ground() {
        match refresh_chased(state, governor, meta) {
            RefreshOutcome::Ready(true) => Answer::Yes,
            RefreshOutcome::Ready(false) => Answer::No,
            RefreshOutcome::Undecided(reason) => Answer::Undecided(reason),
            RefreshOutcome::Panicked(message) => {
                Answer::Undecided(contain_panic(state, meta, &message))
            }
        }
    } else {
        let solve_start = Instant::now();
        let answer = solve_full(state, governor)?;
        meta.solve_ns = ns_since(solve_start);
        answer
    };
    let (result, reason) = match answer {
        Answer::Yes => ("yes", None),
        Answer::No => ("no", None),
        Answer::Undecided(reason) => ("undecided", Some(reason)),
    };
    meta.result = result;
    if let Some(reason) = &reason {
        note_undecided(meta, reason);
    }
    let mut fields: Fields = vec![("op", "solve".into()), ("result", result.into())];
    if let Some(reason) = reason {
        fields.push(("reason", reason.into()));
    }
    Ok(fields)
}

/// Count a contained panic and tag the request for a `panic-isolated`
/// flight dump; returns the undecided reason.
fn contain_panic(state: &mut ServeState, meta: &mut ReqMeta, message: &str) -> String {
    state.counters.panics_isolated += 1;
    meta.governor = format!("panic: {message}");
    meta.flight = Some("panic-isolated");
    format!("request panicked (isolated): {message}")
}

/// Mark the request undecided for the access log and the flight recorder.
/// A panic already claimed the dump reason; everything else undecided is
/// the governor (or a budget) refusing to spend more.
fn note_undecided(meta: &mut ReqMeta, reason: &str) {
    meta.result = "undecided";
    if meta.flight.is_none() {
        meta.flight = Some("governor-stop");
    }
    if meta.governor == "none" {
        meta.governor = reason.to_owned();
    }
}

/// The general-purpose route: plan the setting afresh (static analysis,
/// cheap next to the solve) and run the governed solver, which carries
/// its own isolation and naive-engine retry ladder.
fn solve_full(state: &mut ServeState, governor: &Governor) -> Result<Answer, String> {
    let cert = plan_setting(&state.setting, state.base.active_domain().len());
    let plan = cert.to_solve_plan();
    let report =
        pde_core::decide_governed_scheduled(&state.setting, &state.base, &plan, None, governor)
            .map_err(|e| e.to_string())?;
    if let Some(cs) = &report.chase_stats {
        state
            .metrics
            .merge_histogram("chase.round_ns", &cs.round_ns);
    }
    Ok(match report.exists {
        Some(true) => Answer::Yes,
        Some(false) => Answer::No,
        None => Answer::Undecided(
            report
                .undecided
                .map_or_else(|| "search budget exhausted".to_owned(), |r| r.to_string()),
        ),
    })
}

/// Outcome of bringing the chased cache up to the base's epoch.
enum RefreshOutcome {
    /// `state.chased` covers the current base; the flag is its answer.
    Ready(bool),
    /// The governor, a chase limit or a refusal stopped the work; the
    /// cache is dropped.
    Undecided(String),
    /// A chase or block check panicked and was isolated; the cache is
    /// dropped.
    Panicked(String),
}

/// Ensure `state.chased` covers the current base epoch, and answer from
/// it: extend an existing cache off the epoch delta, or rebuild it from
/// scratch (watermark 0) when there is none (startup, post-retract,
/// post-failure). A solve with no new epoch answers from the cached
/// verdict.
///
/// The cache is *moved out* before any work runs and only put back once
/// both steps succeed, so a stop or a contained panic drops all of it
/// instead of caching a half-extended state.
fn refresh_chased(
    state: &mut ServeState,
    governor: &Governor,
    meta: &mut ReqMeta,
) -> RefreshOutcome {
    let covered = state.base.current_epoch();
    let (instance, demand, gen, since) = match state.chased.take() {
        Some(c) if c.covered == covered => {
            let exists = c.demand.exists();
            state.chased = Some(c);
            return RefreshOutcome::Ready(exists);
        }
        Some(Chased {
            mut instance,
            demand,
            gen,
            covered: from,
        }) => {
            // Incremental: splice the base rows inserted after the covered
            // epoch into the fixpoint at a fresh watermark, then chase
            // only off that delta.
            state.counters.incremental_rechases += 1;
            let watermark =
                instance.splice_since(&state.base, state.base.schema().rel_ids(), from + 1);
            (instance, demand, gen, watermark)
        }
        None => {
            state.counters.full_rechases += 1;
            let demand = match DemandState::new(&state.setting) {
                Ok(d) => d,
                Err(e) => return RefreshOutcome::Undecided(e.to_string()),
            };
            // The fast path only runs on a ground base: no null ids to
            // avoid yet.
            (state.base.clone(), demand, NullGen::new(), 0)
        }
    };
    // Step 1: the Σst chase.
    let start = Instant::now();
    let run = isolate(|| {
        chase_incremental_governed(
            instance,
            &state.st_deps,
            WitnessMode::FreshNulls(&gen),
            ChaseLimits::default(),
            governor,
            None,
            since,
        )
    });
    meta.chase_ns = ns_since(start);
    let res = match run {
        Ok(res) => res,
        Err(e) => return RefreshOutcome::Panicked(e.to_string()),
    };
    state
        .metrics
        .merge_histogram("chase.round_ns", &res.stats.round_ns);
    if !res.is_success() {
        return RefreshOutcome::Undecided(match res.outcome {
            ChaseOutcome::Stopped { reason } => reason.to_string(),
            other => format!("chase did not reach a fixpoint: {other:?}"),
        });
    }
    // Steps 2–3: extend the Σts chase and the block verdicts.
    let instance = res.instance;
    let start = Instant::now();
    let base = &state.base;
    let run = isolate(|| demand.extend(base, &instance, &gen, governor));
    meta.solve_ns = ns_since(start);
    match run {
        Ok(Ok(demand)) => {
            let exists = demand.exists();
            state.chased = Some(Chased {
                instance,
                demand,
                gen,
                covered,
            });
            RefreshOutcome::Ready(exists)
        }
        Ok(Err(SolveError::Stopped(reason))) => RefreshOutcome::Undecided(reason.to_string()),
        Ok(Err(e)) => RefreshOutcome::Undecided(e.to_string()),
        Err(e) => RefreshOutcome::Panicked(e.to_string()),
    }
}

/// `insert` / `retract`: parse the facts, apply them to the base, and
/// commit the batch durably *before* answering. A retract invalidates the
/// chased cache (see module docs); an insert leaves it for the next solve
/// to extend incrementally.
fn handle_mutate(state: &mut ServeState, req: &Request, insert: bool) -> Result<Fields, String> {
    let text = req
        .facts
        .as_deref()
        .ok_or("missing 'facts' field (instance text over the bundle's schema)")?;
    let schema = state.base.schema().clone();
    let parsed = parse_instance(&schema, text).map_err(|e| format!("facts: {e}"))?;
    if !insert && !parsed.is_ground() {
        return Err("retract facts must be ground (nulls do not name stored rows)".into());
    }
    let ops = if insert {
        ops_of(&parsed)
    } else {
        ops_of(&parsed)
            .into_iter()
            .map(|op| match op {
                Op::Insert { rel, values } => Op::Retract { rel, values },
                other => other,
            })
            .collect()
    };
    if ops.is_empty() {
        return Err("no facts in request".into());
    }
    let epoch = state.base.bump_epoch();
    let mut changed = 0usize;
    let _ = parsed.for_each_fact(|rel, ids| {
        if insert {
            if state.base.insert_ids(rel, ids) {
                changed += 1;
            }
        } else {
            let values: Vec<Value> = ids.iter().map(|id| id.value()).collect();
            if state.base.remove(rel, &pde_relational::Tuple::new(values)) {
                changed += 1;
            }
        }
        ControlFlow::Continue(())
    });
    if !insert {
        // An incremental window is only sound on top of a fixpoint of a
        // *grown* instance; retraction rewinds it, so the next solve
        // re-chases fully.
        state.chased = None;
    }
    // Durability before acknowledgment: if this commit fails the base has
    // already mutated in memory, but the response says so and the store
    // still recovers to its last good epoch.
    state
        .store
        .commit(epoch, &ops)
        .map_err(|e| format!("commit failed (state not durable): {e}"))?;
    let verb = if insert { "insert" } else { "retract" };
    let key = if insert { "inserted" } else { "retracted" };
    Ok(vec![("op", verb.into()), (key, changed.into())])
}

/// `certain`: certain answers of a target UCQ over the current base.
///
/// On the fast path the answer comes from the chased cache, brought up to
/// date as a solve would. With no solution every tuple is vacuously
/// certain. Otherwise [`certain_answers_cached`] reads the ground answers
/// over `J_can` (a lower bound) and over the Fig. 3 witness `J_img` (an
/// upper bound); when they meet they are the answer, from that one
/// witness. Only when they differ does the search enumerate, from the
/// cached Σst fixpoint (`serve.certain_fallbacks` counts those). Off the
/// fast path the batch [`certain_answers_governed`] runs on the base. A
/// query that is not over the target schema is refused before the cache
/// is touched, as batch refuses it.
/// Either way the request governor bounds the work, and a stop or a
/// contained panic answers `undecided`.
fn handle_certain(
    state: &mut ServeState,
    req: &Request,
    governor: &Governor,
    meta: &mut ReqMeta,
) -> Result<Fields, String> {
    let qsrc = req
        .query
        .as_deref()
        .ok_or("missing 'query' field (a target UCQ)")?;
    let q: UnionQuery = parse_query(state.setting.schema(), qsrc)
        .map_err(|e| format!("query: {e}"))?
        .into();
    // Refuse a query batch would refuse before it costs a refresh.
    check_target_query(&state.setting, &q).map_err(|e| e.to_string())?;
    let run = if state.fast_path && state.base.is_ground() {
        match refresh_chased(state, governor, meta) {
            RefreshOutcome::Ready(_) => {
                let start = Instant::now();
                let (setting, base) = (&state.setting, &state.base);
                let chased = (state.chased.as_ref()).expect("a ready refresh keeps the cache");
                let limits = GenericLimits::default();
                let run = isolate(|| {
                    certain_answers_cached(
                        setting,
                        base,
                        &chased.instance,
                        &chased.demand,
                        &q,
                        limits,
                        governor,
                    )
                });
                meta.solve_ns += ns_since(start);
                if let Ok(Ok((_, true))) = run {
                    state.counters.certain_fallbacks += 1;
                }
                run.map(|res| res.map(|(out, _)| out))
            }
            RefreshOutcome::Undecided(reason) => return Ok(undecided_certain(meta, reason)),
            RefreshOutcome::Panicked(message) => {
                let reason = contain_panic(state, meta, &message);
                return Ok(undecided_certain(meta, reason));
            }
        }
    } else {
        let start = Instant::now();
        let (setting, base) = (&state.setting, &state.base);
        let limits = GenericLimits::default();
        let run = isolate(|| certain_answers_governed(setting, base, &q, limits, governor));
        meta.solve_ns = ns_since(start);
        run
    };
    let out = match run {
        Ok(Ok(out)) => out,
        Ok(Err(SolveError::Stopped(reason))) => {
            return Ok(undecided_certain(meta, reason.to_string()))
        }
        Ok(Err(e)) => return Err(e.to_string()),
        Err(e) => {
            let reason = contain_panic(state, meta, &e.to_string());
            return Ok(undecided_certain(meta, reason));
        }
    };
    let mut fields: Fields = vec![
        ("op", "certain".into()),
        ("solution_exists", out.solution_exists.into()),
        ("solutions_examined", out.solutions_examined.into()),
    ];
    if q.is_boolean() {
        meta.result = if out.certain_bool() { "yes" } else { "no" };
        fields.push(("certain", out.certain_bool().into()));
    } else {
        let rows = out
            .answers
            .iter()
            .map(|t| Json::from_iter(t.iter().map(|v| Json::from(v.to_string()))));
        fields.push(("answers", rows.collect()));
    }
    Ok(fields)
}

/// The body of a `certain` request the governor (or a contained panic)
/// stopped.
fn undecided_certain(meta: &mut ReqMeta, reason: String) -> Fields {
    note_undecided(meta, &reason);
    vec![
        ("op", "certain".into()),
        ("result", "undecided".into()),
        ("reason", reason.into()),
    ]
}

/// `snapshot`: checkpoint the base into an atomic snapshot and reset the
/// journal.
fn handle_snapshot(state: &mut ServeState) -> Result<Fields, String> {
    state
        .store
        .checkpoint(&state.base)
        .map_err(|e| e.to_string())?;
    Ok(vec![
        ("op", "snapshot".into()),
        ("journal_bytes", state.store.journal_bytes().into()),
    ])
}

/// The journal ops equivalent to an instance's facts (all inserts).
fn ops_of(instance: &Instance) -> Vec<Op> {
    let schema = instance.schema();
    let mut ops = Vec::new();
    let _ = instance.for_each_fact(|rel, ids| {
        ops.push(Op::Insert {
            rel: schema.name(rel),
            values: ids.iter().map(|id| id.value()).collect(),
        });
        ControlFlow::Continue(())
    });
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundle() -> Bundle {
        Bundle::parse(
            "%schema\nsource E/2; target H/2;\n%st\nE(x, z), E(z, y) -> H(x, y)\n%ts\nH(x, y) -> E(x, y)\n%t\n%instance\nE(a, a).\n",
        )
        .unwrap()
    }

    fn temp_store(tag: &str) -> String {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("pde-serve-test-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    fn run(bundle: &Bundle, dir: &str, script: &str) -> Vec<String> {
        run_with(bundle, dir, script, |_| {})
    }

    fn run_with(
        bundle: &Bundle,
        dir: &str,
        script: &str,
        configure: impl FnOnce(&mut ServeOptions),
    ) -> Vec<String> {
        let mut options = ServeOptions {
            store_dir: dir.to_owned(),
            timeout: None,
            memory_limit: None,
            stats: false,
            access_log: None,
            trace_sample: 0,
        };
        configure(&mut options);
        let mut out: Vec<u8> = Vec::new();
        serve(bundle, &options, script.as_bytes(), &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    fn flight_dumps(dir: &str) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("flight-"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn requests_parse_and_reject_precisely() {
        let req = parse_request(r#"{"op":"insert","facts":"E(a, b)."}"#).unwrap();
        assert_eq!(req.op, "insert");
        assert_eq!(req.facts.as_deref(), Some("E(a, b)."));
        let req = parse_request(r#"{"op":"solve","inject_panic_at":3}"#).unwrap();
        assert_eq!(req.inject_panic_at, Some(3));
        assert!(parse_request(r#"{"facts":"E(a, b)."}"#).is_err(), "no op");
        assert!(parse_request(r#"{"op":"solve"} trailing"#).is_err());
        assert!(parse_request(r#"{"op":{"nested":1}}"#).is_err());
        let req = parse_request(r#"{"op":"certain","query":"q() :- H(\"x\", y)"}"#).unwrap();
        assert_eq!(req.query.as_deref(), Some("q() :- H(\"x\", y)"));
        // An escaped surrogate pair (as Python's json.dumps writes it)
        // decodes to its one scalar.
        let req = parse_request(r#"{"op":"insert","facts":"\ud83d\ude00"}"#).unwrap();
        assert_eq!(req.facts.as_deref(), Some("😀"));
        // Only JSON's four whitespace bytes separate tokens.
        assert!(
            parse_request("{\"op\":\u{c}\"solve\"}").is_err(),
            "form feed"
        );
        assert!(parse_request(r#"{"op":"solve","inject_panic_at":18446744073709551616}"#).is_err());
        // A repeated field is a bad request, not "last one wins".
        assert_eq!(
            parse_request(r#"{"op":"solve","op":"shutdown"}"#).unwrap_err(),
            "duplicate key 'op' at byte 14"
        );
    }

    #[test]
    fn serve_answers_solve_and_certain_over_the_seeded_bundle() {
        let b = bundle();
        let dir = temp_store("solve");
        let lines = run(
            &b,
            &dir,
            "{\"op\":\"solve\"}\n{\"op\":\"certain\",\"query\":\"q() :- H(x, y)\"}\n",
        );
        assert!(lines[0].contains("pde-serve-hello"), "{}", lines[0]);
        assert!(lines[0].contains("\"seeded\":1"), "{}", lines[0]);
        // E(a,a) has the solution {H(a,a)}.
        assert!(lines[1].contains("\"result\":\"yes\""), "{}", lines[1]);
        assert!(lines[2].contains("\"certain\":true"), "{}", lines[2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inserts_survive_a_restart_and_flip_the_answer() {
        let b = bundle();
        let dir = temp_store("restart");
        // E(a,a) solves; adding E(a,b), E(b,c) demands E(a,c): no solution.
        let lines = run(
            &b,
            &dir,
            "{\"op\":\"insert\",\"facts\":\"E(a, b). E(b, c).\"}\n{\"op\":\"solve\"}\n",
        );
        assert!(lines[1].contains("\"inserted\":2"), "{}", lines[1]);
        assert!(lines[2].contains("\"result\":\"no\""), "{}", lines[2]);
        // Restart: recovery replays the journal; same answer, no re-seed.
        let lines = run(&b, &dir, "{\"op\":\"solve\"}\n");
        assert!(lines[0].contains("\"seeded\":0"), "{}", lines[0]);
        assert!(lines[0].contains("\"facts\":3"), "{}", lines[0]);
        assert!(lines[1].contains("\"result\":\"no\""), "{}", lines[1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retract_restores_the_solution_and_survives_snapshot() {
        let b = bundle();
        let dir = temp_store("retract");
        let lines = run(
            &b,
            &dir,
            concat!(
                "{\"op\":\"insert\",\"facts\":\"E(a, b). E(b, c).\"}\n",
                "{\"op\":\"retract\",\"facts\":\"E(a, b).\"}\n",
                "{\"op\":\"snapshot\"}\n",
                "{\"op\":\"solve\"}\n",
            ),
        );
        assert!(lines[2].contains("\"retracted\":1"), "{}", lines[2]);
        assert!(lines[4].contains("\"result\":\"yes\""), "{}", lines[4]);
        // The snapshot folded everything: restart sees it without replay.
        let lines = run(&b, &dir, "{\"op\":\"solve\"}\n");
        assert!(lines[0].contains("\"frames_replayed\":0"), "{}", lines[0]);
        assert!(lines[1].contains("\"result\":\"yes\""), "{}", lines[1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_requests_answer_in_band_and_keep_serving() {
        let b = bundle();
        let dir = temp_store("bad");
        let lines = run(
            &b,
            &dir,
            concat!(
                "not json\n",
                "{\"op\":\"frobnicate\"}\n",
                "{\"op\":\"insert\"}\n",
                "{\"op\":\"insert\",\"facts\":\"Nope(a).\"}\n",
                "{\"op\":\"solve\"}\n",
            ),
        );
        for bad in &lines[1..5] {
            assert!(bad.contains("\"ok\":false"), "{bad}");
        }
        assert!(lines[5].contains("\"result\":\"yes\""), "{}", lines[5]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_ends_the_loop_early() {
        let b = bundle();
        let dir = temp_store("shutdown");
        let lines = run(&b, &dir, "{\"op\":\"shutdown\"}\n{\"op\":\"solve\"}\n");
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[1].contains("\"op\":\"shutdown\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn responses_carry_monotone_request_ids() {
        let b = bundle();
        let dir = temp_store("ids");
        let lines = run(
            &b,
            &dir,
            "{\"op\":\"solve\"}\nnot json\n{\"op\":\"solve\"}\n",
        );
        assert!(lines[1].contains("\"id\":1"), "{}", lines[1]);
        assert!(lines[2].contains("\"id\":2"), "{}", lines[2]);
        assert!(lines[3].contains("\"id\":3"), "{}", lines[3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_request_reports_uptime_and_latency_histograms() {
        let b = bundle();
        let dir = temp_store("statsop");
        let lines = run(
            &b,
            &dir,
            "{\"op\":\"solve\"}\n{\"op\":\"insert\",\"facts\":\"E(b, b).\"}\n{\"op\":\"stats\"}\n",
        );
        let stats = &lines[3];
        assert!(stats.contains("\"op\":\"stats\""), "{stats}");
        assert!(stats.contains("\"uptime_ns\":"), "{stats}");
        assert!(stats.contains("\"durable_epoch\":"), "{stats}");
        assert!(stats.contains("\"rewound\":false"), "{stats}");
        // The metrics member is attached without --stats, and the latency
        // histograms are non-empty: three requests total, each kind seen.
        assert!(stats.contains("\"serve.requests\":3"), "{stats}");
        assert!(
            stats.contains("\"serve.request_ns\":{\"count\":3"),
            "{stats}"
        );
        assert!(
            stats.contains("\"serve.request_ns.solve\":{\"count\":1"),
            "{stats}"
        );
        assert!(
            stats.contains("\"serve.request_ns.stats\":{\"count\":1"),
            "{stats}"
        );
        assert!(stats.contains("\"chase.round_ns\":{\"count\":"), "{stats}");
        assert!(stats.contains("\"store.commit_ns\":{\"count\":"), "{stats}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_session_leaves_a_shutdown_flight_dump() {
        let b = bundle();
        let dir = temp_store("flight");
        let _ = run(&b, &dir, "{\"op\":\"solve\"}\n");
        let dumps = flight_dumps(&dir);
        assert_eq!(dumps, vec!["flight-000-shutdown.jsonl".to_owned()]);
        let text = std::fs::read_to_string(Path::new(&dir).join(&dumps[0])).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].starts_with("{\"v\":1,\"kind\":\"pde-flight\",\"reason\":\"shutdown\""),
            "{}",
            lines[0]
        );
        // The request ring holds the solve's access record.
        assert!(
            lines.iter().any(|l| l.contains("\"kind\":\"pde-access\"")
                && l.contains("\"op\":\"solve\"")
                && l.contains("\"result\":\"yes\"")),
            "{text}"
        );
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        // A second session appends a new dump instead of clobbering.
        let _ = run(&b, &dir, "{\"op\":\"solve\"}\n");
        assert_eq!(flight_dumps(&dir).len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn access_log_records_every_request_keyed_by_id() {
        let b = bundle();
        let dir = temp_store("access");
        let log = format!("{dir}-access.jsonl");
        let _ = std::fs::remove_file(&log);
        let lines = run_with(
            &b,
            &dir,
            "{\"op\":\"solve\"}\nnot json\n{\"op\":\"stats\"}\n",
            |o| {
                o.access_log = Some(log.clone());
                o.trace_sample = 2;
            },
        );
        assert_eq!(lines.len(), 4, "{lines:?}");
        let text = std::fs::read_to_string(&log).unwrap();
        let records: Vec<&str> = text.lines().collect();
        let access: Vec<&&str> = records
            .iter()
            .filter(|l| l.contains("\"kind\":\"pde-access\""))
            .collect();
        assert_eq!(access.len(), 3, "{text}");
        assert!(access[0].contains("\"id\":1") && access[0].contains("\"op\":\"solve\""));
        assert!(
            access[1].contains("\"id\":2")
                && access[1].contains("\"op\":\"invalid\"")
                && access[1].contains("\"status\":2"),
            "{}",
            access[1]
        );
        assert!(access[2].contains("\"id\":3") && access[2].contains("\"op\":\"stats\""));
        // Request 2 was sampled (every 2nd): its span capture follows.
        assert!(
            records
                .iter()
                .any(|l| l.contains("\"kind\":\"pde-span-sample\"") && l.contains("\"id\":2")),
            "{text}"
        );
        assert!(records
            .iter()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = std::fs::remove_file(&log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn governor_stop_answers_undecided_and_dumps_flight() {
        let b = bundle();
        let dir = temp_store("govstop");
        let lines = run_with(&b, &dir, "{\"op\":\"solve\"}\n", |o| {
            o.timeout = Some(Duration::from_nanos(1));
        });
        assert!(
            lines[1].contains("\"result\":\"undecided\""),
            "{}",
            lines[1]
        );
        let dumps = flight_dumps(&dir);
        assert!(
            dumps.iter().any(|d| d.contains("governor-stop")),
            "{dumps:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn governor_stop_answers_certain_undecided_and_dumps_flight() {
        let b = bundle();
        let dir = temp_store("govstop-certain");
        let lines = run_with(
            &b,
            &dir,
            "{\"op\":\"certain\",\"query\":\"q(x, y) :- H(x, y)\"}\n",
            |o| o.timeout = Some(Duration::from_nanos(1)),
        );
        assert!(
            lines[1].contains("\"op\":\"certain\",\"result\":\"undecided\",\"reason\":"),
            "{}",
            lines[1]
        );
        assert!(!lines[1].contains("answers"), "{}", lines[1]);
        let dumps = flight_dumps(&dir);
        assert!(
            dumps.iter().any(|d| d.contains("governor-stop")),
            "{dumps:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn a_panicking_request_dumps_flight_with_its_access_record() {
        let b = bundle();
        let dir = temp_store("panicdump");
        let lines = run(
            &b,
            &dir,
            concat!(
                "{\"op\":\"insert\",\"facts\":\"E(c, c).\"}\n",
                "{\"op\":\"solve\",\"inject_panic_at\":0}\n",
            ),
        );
        assert!(lines[2].contains("isolated"), "{}", lines[2]);
        let dumps = flight_dumps(&dir);
        let panic_dump = dumps
            .iter()
            .find(|d| d.contains("panic-isolated"))
            .unwrap_or_else(|| panic!("no panic dump in {dumps:?}"));
        let text = std::fs::read_to_string(Path::new(&dir).join(panic_dump)).unwrap();
        assert!(
            text.lines()
                .next()
                .unwrap()
                .contains("\"reason\":\"panic-isolated\""),
            "{text}"
        );
        // The ring held both the insert that led up to the panic and the
        // panicking request's own record when the dump was written.
        assert!(text.contains("\"op\":\"insert\""), "{text}");
        assert!(text.contains("\"governor\":\"panic: "), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn a_panicking_request_is_isolated_and_answered_undecided() {
        let b = bundle();
        let dir = temp_store("panic");
        let lines = run(
            &b,
            &dir,
            concat!(
                "{\"op\":\"insert\",\"facts\":\"E(c, c).\"}\n",
                "{\"op\":\"solve\",\"inject_panic_at\":0}\n",
                "{\"op\":\"solve\"}\n",
            ),
        );
        assert!(
            lines[2].contains("\"result\":\"undecided\"") && lines[2].contains("isolated"),
            "{}",
            lines[2]
        );
        // The loop survived and the next (clean) solve still answers.
        assert!(lines[3].contains("\"result\":\"yes\""), "{}", lines[3]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
