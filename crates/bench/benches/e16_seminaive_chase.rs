//! E16 — semi-naive vs naive chase engine. Two chase-heavy workloads:
//!
//! * **clique/egd**: the §4 egd-boundary dependencies (Σst ∪ Σt) chased on
//!   complete graphs. Every `D` edge mints two nulls and the two egds
//!   merge them per-anchor, so the naive engine pays a full violation
//!   re-scan plus a whole-instance rewrite per merge, while the semi-naive
//!   engine batches each round's merges in one union-find and one targeted
//!   rewrite.
//! * **genomics**: the §1 sync scenario's Σst chase. One productive round
//!   followed by a fixpoint round; semi-naive skips the full re-enumeration
//!   of already-seen triggers in the second round.
//!
//! The differential property tests guarantee the engines agree; this
//! experiment measures what that agreement costs.
//!
//! A third **governed** arm re-runs the semi-naive engine under a
//! `Governor` with generous (never-binding) wall-clock and memory budgets,
//! so the per-round deadline checks and byte accounting are live. The
//! summary table reports its overhead against the ungoverned semi-naive
//! run; the robustness acceptance bar is < 3%.
//!
//! **E19 — serve-loop request latency** also rides here (`e19_*` keys).
//! A client thread drives one `pde serve` session over an in-memory
//! blocking pipe — the wire protocol end to end, store commits included —
//! and buckets the client-observed per-request latency into the same
//! power-of-two histograms the server exports, snapshotted into
//! `BENCH_E16.json` next to the timings.
//!
//! **E17 — dependency rewriting + stratified scheduling** rides in the
//! same report (its `e17_*` keys land in `BENCH_E16.json`). The two
//! workloads above are re-declared with redundancy padding — alpha-renamed
//! duplicates, subsumed tgds, a trivial egd, and a dependency reading a
//! relation no chase can populate — and chased (a) as written and (b)
//! after `pde_analysis::optimize_setting` under the stratified
//! `forward_schedule`. Acceptance: measurable speedup on the padded
//! settings; on the clean settings the schedule's overhead stays within
//! noise (the schedule there is the near-trivial one).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pde_analysis::{forward_schedule, optimize_setting};
use pde_chase::{
    chase_governed_scheduled, chase_governed_with, ChaseEngine, ChaseLimits, ChaseResult,
    DepSchedule, WitnessMode,
};
use pde_constraints::Dependency;
use pde_core::{Bundle, PdeSetting};
use pde_relational::{Instance, NullGen, Relation, Tuple, Value};
use pde_runtime::{Governor, GovernorConfig};
use pde_workloads::boundary::{egd_boundary_instance, egd_boundary_setting};
use pde_workloads::genomics::{genomics_instance, genomics_setting, GenomicsParams};
use pde_workloads::Graph;
use peer_data_exchange::serve::{serve, ServeOptions};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Σst ∪ Σt of a setting as one chaseable dependency list.
fn forward_deps(setting: &PdeSetting) -> Vec<Dependency> {
    setting
        .sigma_st()
        .iter()
        .cloned()
        .map(Dependency::Tgd)
        .chain(setting.sigma_t().iter().cloned())
        .collect()
}

fn run(engine: &str, input: &Instance, deps: &[Dependency]) -> ChaseResult {
    let gen = NullGen::new();
    let limits = ChaseLimits::default();
    match engine {
        "naive" => chase_governed_with(
            input.clone(),
            deps,
            WitnessMode::FreshNulls(&gen),
            limits,
            ChaseEngine::Naive,
            &Governor::unlimited(),
        ),
        "governed" => {
            // Generous budgets that never bind, so only the check/accounting
            // overhead is measured.
            let governor = Governor::new(GovernorConfig {
                deadline: Some(Duration::from_secs(3600)),
                memory_budget_bytes: Some(1 << 30),
                cancel: None,
            });
            chase_governed_with(
                input.clone(),
                deps,
                WitnessMode::FreshNulls(&gen),
                limits,
                ChaseEngine::Seminaive,
                &governor,
            )
        }
        _ => chase_governed_with(
            input.clone(),
            deps,
            WitnessMode::FreshNulls(&gen),
            limits,
            ChaseEngine::Seminaive,
            &Governor::unlimited(),
        ),
    }
}

/// The egd-boundary setting padded with every redundancy class the
/// optimizer removes. Semantically identical to [`egd_boundary_setting`]
/// (the extra `Junk` relation stays empty and unread in any solution).
fn padded_egd_boundary_setting() -> PdeSetting {
    PdeSetting::parse(
        "source D/2; source E/2; target P/4; target Junk/2;",
        "D(x, y) -> exists z, w . P(x, z, y, w);
         D(u, v) -> exists a, b . P(u, a, v, b);
         D(x, y), D(y, x) -> exists z, w . P(x, z, y, w)",
        "P(x, z, y, w) -> E(z, w)",
        "P(x, z, y, w), P(x, z2, y2, w2) -> z = z2;
         P(x, z, y, w), P(y, z2, y2, w2) -> w = z2;
         P(x, z, y, w) -> x = x;
         Junk(x, y), P(a, b, c, d) -> b = d",
    )
    .expect("padded egd boundary setting is well-formed")
}

/// The genomics sync setting padded the same way (`u_orphan` is the dead
/// relation: declared, never populated, read by one Σt tgd).
fn padded_genomics_setting() -> PdeSetting {
    PdeSetting::parse(
        "source sp_protein/3; source sp_annotation/2; \
         target u_protein/2; target u_annotation/2; target u_orphan/2;",
        "sp_protein(a, n, o) -> u_protein(a, o);
         sp_protein(p, q, r) -> u_protein(p, r);
         sp_protein(a, n, o), sp_annotation(a, g) -> u_annotation(a, g);
         sp_protein(a, n, o), sp_annotation(a, g), sp_annotation(a, g2) -> u_annotation(a, g)",
        "u_protein(a, o) -> exists n . sp_protein(a, n, o);
         u_annotation(a, g) -> sp_annotation(a, g)",
        "u_orphan(x, y) -> u_protein(x, y)",
    )
    .expect("padded genomics setting is well-formed")
}

/// One semi-naive chase under an optional stratified schedule.
fn run_scheduled(
    input: &Instance,
    deps: &[Dependency],
    schedule: Option<&DepSchedule>,
) -> ChaseResult {
    let gen = NullGen::new();
    chase_governed_scheduled(
        input.clone(),
        deps,
        WitnessMode::FreshNulls(&gen),
        ChaseLimits::default(),
        ChaseEngine::Seminaive,
        &Governor::unlimited(),
        schedule,
    )
}

/// The E17 arms for one workload: chase the padded setting as written,
/// chase its optimized+scheduled rewrite, and chase the clean setting
/// with and without its (near-trivial) schedule. Returns the measurement
/// keys pushed into the shared report plus a summary row.
#[allow(clippy::too_many_arguments)]
fn e17_arms(
    c: &mut Criterion,
    label: &str,
    size: u32,
    padded: &PdeSetting,
    clean: &PdeSetting,
    padded_input: &Instance,
    clean_input: &Instance,
    measurements: &mut Vec<(String, f64)>,
    rows: &mut Vec<(String, String, String)>,
) {
    let padded_deps = forward_deps(padded);
    let opt = optimize_setting(padded, padded_input);
    let opt_deps = forward_deps(&opt.optimized);
    let opt_schedule = forward_schedule(&opt.optimized);
    let clean_deps = forward_deps(clean);
    let clean_schedule = forward_schedule(clean);

    let mut grp = c.benchmark_group(format!("e17_optimize/{label}"));
    grp.sample_size(10);
    grp.bench_with_input(BenchmarkId::new("padded", size), padded_input, |b, i| {
        b.iter(|| assert!(run_scheduled(i, &padded_deps, None).is_success()));
    });
    grp.bench_with_input(BenchmarkId::new("optimized", size), padded_input, |b, i| {
        b.iter(|| assert!(run_scheduled(i, &opt_deps, Some(&opt_schedule)).is_success()));
    });
    grp.finish();

    let padded_ms = pde_bench::time_ms(|| {
        let _ = run_scheduled(padded_input, &padded_deps, None);
    });
    let optimized_ms = pde_bench::time_ms(|| {
        let _ = run_scheduled(padded_input, &opt_deps, Some(&opt_schedule));
    });
    let optimize_pass_ms = pde_bench::time_ms(|| {
        let _ = optimize_setting(padded, padded_input);
    });
    let clean_ms = pde_bench::time_ms(|| {
        let _ = run_scheduled(clean_input, &clean_deps, None);
    });
    let clean_scheduled_ms = pde_bench::time_ms(|| {
        let _ = run_scheduled(clean_input, &clean_deps, Some(&clean_schedule));
    });
    let key = format!("e17_{label}_{size}");
    measurements.push((format!("{key}.padded_ms"), padded_ms));
    measurements.push((format!("{key}.optimized_ms"), optimized_ms));
    measurements.push((format!("{key}.optimize_pass_ms"), optimize_pass_ms));
    measurements.push((format!("{key}.clean_ms"), clean_ms));
    measurements.push((format!("{key}.clean_scheduled_ms"), clean_scheduled_ms));
    rows.push((
        format!("E17 {label} {size}"),
        format!(
            "{padded_ms:.2} / {optimized_ms:.2} ({:.1}x), sched {:+.1}%",
            padded_ms / optimized_ms,
            (clean_scheduled_ms / clean_ms - 1.0) * 100.0
        ),
        format!(
            "removed {} of {} deps, {} strata",
            opt.certificate.actions.len(),
            opt.certificate.before.total(),
            opt_schedule.strata_count()
        ),
    ));
}

/// Row-oriented replica of the pre-columnar `Relation`: `Arc<[Value]>`
/// rows, a `HashMap` membership set, and `HashMap<Value, Vec<u32>>`
/// per-attribute indexes. E18's baseline arm — kept here so the storage
/// comparison survives the production crate's move to columnar layout.
struct RowRelation {
    arity: u16,
    rows: Vec<Tuple>,
    live: Vec<bool>,
    epochs: Vec<u64>,
    set: HashMap<Tuple, u32>,
    index: Vec<HashMap<Value, Vec<u32>>>,
}

impl RowRelation {
    fn new(arity: u16) -> RowRelation {
        RowRelation {
            arity,
            rows: Vec::new(),
            live: Vec::new(),
            epochs: Vec::new(),
            set: HashMap::new(),
            index: (0..arity).map(|_| HashMap::new()).collect(),
        }
    }

    fn insert(&mut self, t: Tuple) -> bool {
        if self.set.contains_key(&t) {
            return false;
        }
        let r = u32::try_from(self.rows.len()).expect("row id overflow");
        for (i, v) in t.values().iter().enumerate() {
            self.index[i].entry(*v).or_default().push(r);
        }
        self.set.insert(t.clone(), r);
        self.rows.push(t);
        self.live.push(true);
        self.epochs.push(0);
        true
    }

    fn count_with(&self, attr: u16, v: Value) -> usize {
        self.index[attr as usize].get(&v).map_or(0, Vec::len)
    }

    /// Honest heap accounting of this layout, mirroring the cost model the
    /// old `Relation::approx_heap_bytes` used: row slots (fat pointers),
    /// per-row `Arc` allocations (header + values), epoch/liveness arrays,
    /// membership-set entries, and index entries plus posting storage.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let arc_alloc = 2 * size_of::<usize>() + self.arity as usize * size_of::<Value>();
        let mut bytes = self.rows.capacity() * size_of::<Tuple>()
            + self.rows.len() * arc_alloc
            + self.epochs.capacity() * size_of::<u64>()
            + self.live.capacity()
            + self.set.capacity() * (size_of::<(Tuple, u32)>() + 1)
            + self.set.len() * arc_alloc;
        for idx in &self.index {
            bytes += idx.capacity() * (size_of::<(Value, Vec<u32>)>() + 1);
            bytes += idx
                .values()
                .map(|p| p.capacity() * size_of::<u32>())
                .sum::<usize>();
        }
        bytes
    }
}

/// The E18 arms for one workload: build the chased instance's fact set
/// into the row-store baseline and the production columnar store, probe
/// every (attribute, value) pair through both indexes, and compare
/// measured bytes per fact.
fn e18_arms(
    c: &mut Criterion,
    label: &str,
    instance: &Instance,
    measurements: &mut Vec<(String, f64)>,
    rows: &mut Vec<(String, String, String)>,
) {
    // Flatten the chased instance into per-relation fact lists.
    let schema = instance.schema().clone();
    let mut facts: Vec<(u16, Vec<Tuple>)> = schema
        .rel_ids()
        .map(|r| (schema.arity(r), Vec::new()))
        .collect();
    for (rel, t) in instance.facts() {
        facts[rel.index()].1.push(t);
    }
    let fact_count: usize = facts.iter().map(|(_, ts)| ts.len()).sum();

    let build_row = |facts: &[(u16, Vec<Tuple>)]| -> Vec<RowRelation> {
        facts
            .iter()
            .map(|(arity, ts)| {
                let mut r = RowRelation::new(*arity);
                for t in ts {
                    r.insert(t.clone());
                }
                r
            })
            .collect()
    };
    let build_columnar = |facts: &[(u16, Vec<Tuple>)]| -> Vec<Relation> {
        facts
            .iter()
            .map(|(arity, ts)| {
                let mut r = Relation::new(*arity);
                for t in ts {
                    r.insert(t.clone());
                }
                r
            })
            .collect()
    };

    let mut grp = c.benchmark_group(format!("e18_storage/{label}"));
    grp.sample_size(10);
    grp.bench_function("row_build", |b| b.iter(|| build_row(&facts)));
    grp.bench_function("columnar_build", |b| b.iter(|| build_columnar(&facts)));

    // Probe workload: every (attribute, value) occurrence in the fact set,
    // counted through the store's index — the access pattern of trigger
    // matching's anchor-selectivity estimation.
    let row_store = build_row(&facts);
    let col_store = build_columnar(&facts);
    let probe_row = |store: &[RowRelation]| -> usize {
        let mut hits = 0usize;
        for (rel, (_, ts)) in store.iter().zip(&facts) {
            for t in ts {
                for (i, v) in t.values().iter().enumerate() {
                    hits += rel.count_with(u16::try_from(i).unwrap(), *v);
                }
            }
        }
        hits
    };
    let probe_columnar = |store: &[Relation]| -> usize {
        let mut hits = 0usize;
        for (rel, (_, ts)) in store.iter().zip(&facts) {
            for t in ts {
                for (i, v) in t.values().iter().enumerate() {
                    hits += rel.count_with(u16::try_from(i).unwrap(), *v);
                }
            }
        }
        hits
    };
    assert_eq!(probe_row(&row_store), probe_columnar(&col_store));
    grp.bench_function("row_probe", |b| b.iter(|| probe_row(&row_store)));
    grp.bench_function("columnar_probe", |b| b.iter(|| probe_columnar(&col_store)));
    grp.finish();

    let row_build_ms = pde_bench::time_ms(|| {
        let _ = build_row(&facts);
    });
    let col_build_ms = pde_bench::time_ms(|| {
        let _ = build_columnar(&facts);
    });
    let row_probe_ms = pde_bench::time_ms(|| {
        let _ = probe_row(&row_store);
    });
    let col_probe_ms = pde_bench::time_ms(|| {
        let _ = probe_columnar(&col_store);
    });
    let row_bytes = row_store.iter().map(RowRelation::heap_bytes).sum::<usize>();
    let col_bytes = col_store.iter().map(Relation::heap_bytes).sum::<usize>();
    let row_bpf = row_bytes as f64 / fact_count as f64;
    let col_bpf = col_bytes as f64 / fact_count as f64;

    let key = format!("e18_{label}");
    measurements.push((format!("{key}.facts"), fact_count as f64));
    measurements.push((format!("{key}.row_build_ms"), row_build_ms));
    measurements.push((format!("{key}.columnar_build_ms"), col_build_ms));
    measurements.push((format!("{key}.row_probe_ms"), row_probe_ms));
    measurements.push((format!("{key}.columnar_probe_ms"), col_probe_ms));
    measurements.push((format!("{key}.row_bytes_per_fact"), row_bpf));
    measurements.push((format!("{key}.columnar_bytes_per_fact"), col_bpf));
    rows.push((
        format!("E18 {label}"),
        format!(
            "build {row_build_ms:.2} / {col_build_ms:.2} ({:.1}x), \
             probe {row_probe_ms:.2} / {col_probe_ms:.2} ({:.1}x)",
            row_build_ms / col_build_ms,
            row_probe_ms / col_probe_ms
        ),
        format!(
            "{fact_count} facts, {row_bpf:.0} -> {col_bpf:.0} B/fact ({:.1}x)",
            row_bpf / col_bpf
        ),
    ));
}

/// Shared state of one in-memory pipe direction.
struct PipeInner {
    buf: VecDeque<u8>,
    closed: bool,
}

/// A blocking byte pipe: the reader parks until the writer supplies bytes
/// or hangs up. One per direction gives the serve loop a client "socket"
/// without any OS plumbing, so E19 measures the wire protocol, not the
/// kernel.
#[derive(Clone)]
struct Pipe(Arc<(Mutex<PipeInner>, Condvar)>);

impl Pipe {
    fn new() -> Pipe {
        Pipe(Arc::new((
            Mutex::new(PipeInner {
                buf: VecDeque::new(),
                closed: false,
            }),
            Condvar::new(),
        )))
    }

    /// Ends the stream: the reader sees EOF once the buffer drains.
    fn close(&self) {
        let (lock, cond) = &*self.0;
        lock.lock().expect("pipe lock never poisoned").closed = true;
        cond.notify_all();
    }
}

impl Read for Pipe {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let (lock, cond) = &*self.0;
        let mut inner = lock.lock().expect("pipe lock never poisoned");
        while inner.buf.is_empty() && !inner.closed {
            inner = cond.wait(inner).expect("pipe lock never poisoned");
        }
        let n = inner.buf.len().min(out.len());
        for slot in out.iter_mut().take(n) {
            *slot = inner.buf.pop_front().expect("n bytes available");
        }
        Ok(n)
    }
}

impl Write for Pipe {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let (lock, cond) = &*self.0;
        let mut inner = lock.lock().expect("pipe lock never poisoned");
        inner.buf.extend(bytes);
        cond.notify_all();
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The serve fixture: the tractable fast path applies, so a solve is one
/// incremental chase refresh + homomorphism check — the steady-state shape
/// of a long-lived session.
fn serve_bundle() -> Bundle {
    Bundle::parse(
        "%schema\nsource E/2; target H/2;\n%st\nE(x, z), E(z, y) -> H(x, y)\n\
         %ts\nH(x, y) -> E(x, y)\n%t\n%instance\nE(a, a).\n",
    )
    .expect("serve fixture bundle is well-formed")
}

/// A fresh store directory for one serve session.
fn serve_store_dir(tag: &str) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pde-bench-e19-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

/// The E19 request mix: `mutate` in 0..=100 is the percentage of requests
/// that are inserts (each a fresh fact, so each one commits a journal
/// frame); the rest are solves off the incrementally maintained chase.
fn e19_requests(n: usize, mutate: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            if i * 100 < n * mutate {
                format!("{{\"op\":\"insert\",\"facts\":\"E(a{i}, b{i}).\"}}")
            } else {
                "{\"op\":\"solve\"}".to_owned()
            }
        })
        .collect()
}

/// Drive one serve session over the pipe pair, one request at a time
/// (write line, block on the response line), timing each round trip.
/// Returns the total session wall-clock in ms; per-request latencies land
/// in `lat` keyed by the request's op when one is supplied.
fn serve_session(
    bundle: &Bundle,
    dir: &str,
    requests: &[String],
    mut lat: Option<&mut HashMap<String, pde_trace::Histogram>>,
) -> f64 {
    let mut to_server = Pipe::new();
    let to_client = Pipe::new();
    let options = ServeOptions {
        store_dir: dir.to_owned(),
        timeout: None,
        memory_limit: None,
        stats: false,
        access_log: None,
        trace_sample: 0,
    };
    let server = {
        let bundle = bundle.clone();
        let input = BufReader::new(to_server.clone());
        let mut output = to_client.clone();
        std::thread::spawn(move || {
            serve(&bundle, &options, input, &mut output).expect("serve session runs to EOF");
            output.close();
        })
    };

    let mut from_server = BufReader::new(to_client.clone());
    let mut line = String::new();
    from_server.read_line(&mut line).expect("hello line");
    assert!(line.contains("pde-serve-hello"), "hello: {line}");

    let session = Instant::now();
    for req in requests {
        let t = Instant::now();
        to_server
            .write_all(req.as_bytes())
            .and_then(|()| to_server.write_all(b"\n"))
            .expect("pipe write");
        line.clear();
        from_server.read_line(&mut line).expect("response line");
        assert!(line.contains("\"ok\":true"), "response: {line}");
        if let Some(by_op) = lat.as_deref_mut() {
            let op = if req.contains("\"insert\"") {
                "insert"
            } else {
                "solve"
            };
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            by_op.entry(op.to_owned()).or_default().record(ns);
        }
    }
    let total_ms = session.elapsed().as_secs_f64() * 1e3;
    to_server.close();
    server.join().expect("server thread exits cleanly");
    total_ms
}

/// The E19 arms: Criterion-timed whole sessions per request mix, plus one
/// instrumented session per mix whose client-observed latency histograms
/// are snapshotted into the report metrics as `e19.request_ns[.op]`.
fn e19_arms(
    c: &mut Criterion,
    measurements: &mut Vec<(String, f64)>,
    metrics: &mut pde_trace::MetricsRegistry,
    rows: &mut Vec<(String, String, String)>,
) {
    let bundle = serve_bundle();
    let mut grp = c.benchmark_group("e19_serve");
    grp.sample_size(10);
    for (label, mutate) in [("solve", 0usize), ("mixed", 50), ("insert", 100)] {
        let requests = e19_requests(32, mutate);
        grp.bench_function(label, |b| {
            b.iter(|| {
                let dir = serve_store_dir(label);
                let ms = serve_session(&bundle, &dir, &requests, None);
                let _ = std::fs::remove_dir_all(&dir);
                ms
            });
        });
    }
    grp.finish();

    for (label, mutate) in [("solve", 0usize), ("mixed", 50), ("insert", 100)] {
        let requests = e19_requests(128, mutate);
        let mut by_op: HashMap<String, pde_trace::Histogram> = HashMap::new();
        let dir = serve_store_dir(label);
        let total_ms = serve_session(&bundle, &dir, &requests, Some(&mut by_op));
        let _ = std::fs::remove_dir_all(&dir);

        let mut overall = pde_trace::Histogram::default();
        for (op, h) in &by_op {
            overall.merge(h);
            metrics.merge_histogram(&format!("e19_{label}.request_ns.{op}"), h);
        }
        metrics.merge_histogram(&format!("e19_{label}.request_ns"), &overall);
        let mean_us = overall.sum as f64 / overall.count as f64 / 1e3;
        let key = format!("e19_serve_{label}");
        measurements.push((format!("{key}.requests"), requests.len() as f64));
        measurements.push((format!("{key}.session_ms"), total_ms));
        measurements.push((format!("{key}.mean_request_us"), mean_us));
        rows.push((
            format!("E19 serve {label}"),
            format!("{total_ms:.2} ms / {} req", requests.len()),
            format!("mean {mean_us:.1} us, max {} ns", overall.max),
        ));
    }
}

fn bench(c: &mut Criterion) {
    let mut rows = Vec::new();
    // Perf-trajectory record: flat named timings plus a metrics snapshot
    // of the semi-naive engine counters, written as BENCH_E16.json.
    let mut measurements: Vec<(String, f64)> = Vec::new();
    let mut metrics = pde_trace::MetricsRegistry::new();

    // Workload 1: egd-heavy clique boundary chase.
    let setting = egd_boundary_setting();
    let deps = forward_deps(&setting);
    let mut grp = c.benchmark_group("e16_seminaive_chase/clique");
    grp.sample_size(10);
    for k in [6u32, 10, 14, 18] {
        // `D` is the k-element inequality relation, so the merge workload
        // grows with k: Σst mints 2 nulls per D fact and the two egds
        // collapse them per anchor.
        let input = egd_boundary_instance(&setting, &Graph::complete(3), k);
        for engine in ["naive", "seminaive", "governed"] {
            grp.bench_with_input(BenchmarkId::new(engine, k), &input, |b, input| {
                b.iter(|| {
                    let res = run(engine, input, &deps);
                    assert!(res.is_success());
                });
            });
        }
        let naive_ms = pde_bench::time_ms(|| {
            let _ = run("naive", &input, &deps);
        });
        let semi_ms = pde_bench::time_ms(|| {
            let _ = run("seminaive", &input, &deps);
        });
        let gov_ms = pde_bench::time_ms(|| {
            let _ = run("governed", &input, &deps);
        });
        let stats = run("seminaive", &input, &deps).stats;
        measurements.push((format!("clique_k{k}.naive_ms"), naive_ms));
        measurements.push((format!("clique_k{k}.seminaive_ms"), semi_ms));
        measurements.push((format!("clique_k{k}.governed_ms"), gov_ms));
        stats.export_metrics(&mut metrics);
        rows.push((
            format!("clique k={k}"),
            format!(
                "{naive_ms:.2} / {semi_ms:.2} ({:.1}x), gov {:+.1}%",
                naive_ms / semi_ms,
                (gov_ms / semi_ms - 1.0) * 100.0
            ),
            format!(
                "rounds={} merges={} skipped={}",
                stats.rounds, stats.egd_merges, stats.skipped_by_delta
            ),
        ));
    }
    grp.finish();

    // Workload 2: genomics Σst sync chase.
    let setting = genomics_setting();
    let deps = forward_deps(&setting);
    let mut grp = c.benchmark_group("e16_seminaive_chase/genomics");
    grp.sample_size(10);
    for proteins in [200u32, 400, 800] {
        let params = GenomicsParams {
            proteins,
            annotations_per_protein: 3,
            organisms: 10,
            go_terms: 200,
            preloaded: proteins / 10,
            rogue: 0,
            seed: 99,
        };
        let input = genomics_instance(&setting, &params);
        for engine in ["naive", "seminaive", "governed"] {
            grp.bench_with_input(BenchmarkId::new(engine, proteins), &input, |b, input| {
                b.iter(|| {
                    let res = run(engine, input, &deps);
                    assert!(res.is_success());
                });
            });
        }
        let naive_ms = pde_bench::time_ms(|| {
            let _ = run("naive", &input, &deps);
        });
        let semi_ms = pde_bench::time_ms(|| {
            let _ = run("seminaive", &input, &deps);
        });
        let gov_ms = pde_bench::time_ms(|| {
            let _ = run("governed", &input, &deps);
        });
        let stats = run("seminaive", &input, &deps).stats;
        measurements.push((format!("genomics_{proteins}p.naive_ms"), naive_ms));
        measurements.push((format!("genomics_{proteins}p.seminaive_ms"), semi_ms));
        measurements.push((format!("genomics_{proteins}p.governed_ms"), gov_ms));
        stats.export_metrics(&mut metrics);
        rows.push((
            format!("genomics {proteins}p"),
            format!(
                "{naive_ms:.2} / {semi_ms:.2} ({:.1}x), gov {:+.1}%",
                naive_ms / semi_ms,
                (gov_ms / semi_ms - 1.0) * 100.0
            ),
            format!(
                "rounds={} fired={} skipped={}",
                stats.rounds, stats.triggers_fired, stats.skipped_by_delta
            ),
        ));
    }
    grp.finish();

    // E17: redundancy-padded variants, rewritten + stratified.
    let clean = egd_boundary_setting();
    let padded = padded_egd_boundary_setting();
    for k in [10u32, 14, 18] {
        let clean_input = egd_boundary_instance(&clean, &Graph::complete(3), k);
        let padded_input = egd_boundary_instance(&padded, &Graph::complete(3), k);
        e17_arms(
            c,
            "clique",
            k,
            &padded,
            &clean,
            &padded_input,
            &clean_input,
            &mut measurements,
            &mut rows,
        );
    }
    let clean = genomics_setting();
    let padded = padded_genomics_setting();
    for proteins in [400u32, 800] {
        let params = GenomicsParams {
            proteins,
            annotations_per_protein: 3,
            organisms: 10,
            go_terms: 200,
            preloaded: proteins / 10,
            rogue: 0,
            seed: 99,
        };
        let clean_input = genomics_instance(&clean, &params);
        let padded_input = genomics_instance(&padded, &params);
        e17_arms(
            c,
            "genomics",
            proteins,
            &padded,
            &clean,
            &padded_input,
            &clean_input,
            &mut measurements,
            &mut rows,
        );
    }

    // E18: columnar vs row-oriented storage, measured on the chased fact
    // sets of the E16 workloads (plus the CLIQUE reduction's dense
    // instance) — build, index probe, and bytes per fact.
    let setting = pde_workloads::clique::clique_setting();
    let deps = forward_deps(&setting);
    let input = pde_workloads::clique::clique_instance(&setting, &Graph::complete(12), 6);
    let chased = run("seminaive", &input, &deps);
    assert!(chased.is_success());
    e18_arms(c, "clique", &chased.instance, &mut measurements, &mut rows);

    let setting = egd_boundary_setting();
    let deps = forward_deps(&setting);
    let input = egd_boundary_instance(&setting, &Graph::complete(3), 18);
    let chased = run("seminaive", &input, &deps);
    assert!(chased.is_success());
    e18_arms(
        c,
        "boundary",
        &chased.instance,
        &mut measurements,
        &mut rows,
    );

    let setting = genomics_setting();
    let deps = forward_deps(&setting);
    let params = GenomicsParams {
        proteins: 800,
        annotations_per_protein: 3,
        organisms: 10,
        go_terms: 200,
        preloaded: 80,
        rogue: 0,
        seed: 99,
    };
    let input = genomics_instance(&setting, &params);
    let chased = run("seminaive", &input, &deps);
    assert!(chased.is_success());
    e18_arms(
        c,
        "genomics",
        &chased.instance,
        &mut measurements,
        &mut rows,
    );

    // E19: end-to-end serve-loop request latency over the in-memory pipe.
    e19_arms(c, &mut measurements, &mut metrics, &mut rows);

    pde_bench::print_series3(
        "E16/E17/E18/E19: chase engines, the optimizer, columnar storage, \
         and serve latency — before / after ms (speedup)",
        ("workload", "times (ms)", "stats"),
        &rows,
    );
    pde_bench::write_report("E16", &measurements, &metrics);
}

// Criterion's macros expand to undocumented items.
#[allow(missing_docs)]
mod generated {
    use super::*;
    criterion_group!(benches, bench);
}
use generated::benches;
criterion_main!(benches);
