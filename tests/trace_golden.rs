//! Golden and property tests for the observability layer:
//!
//! * a golden span sequence for a fixed semi-naive chase (timestamps are
//!   scrubbed by construction — only names and structured fields are
//!   compared, ordered by sequence number);
//! * CLI goldens for `--trace <file.jsonl>` (every line parses, the span
//!   sequence is stable), `--profile` (table shape and deterministic
//!   counts), and `solve --stats --format json` (the versioned run
//!   report, including real search counters for the search-based
//!   solvers);
//! * a property test that the three accounting layers agree on random
//!   inputs: trace span fields, `ChaseStats` counters, and the
//!   `StepRecord` provenance log.

use pde_chase::{chase_governed_with, ChaseEngine, ChaseLimits, ChaseResult, WitnessMode};
use pde_constraints::Dependency;
use pde_core::PdeSetting;
use pde_relational::NullGen;
use pde_trace::{CollectingSink, FieldValue, SpanRecord};
use peer_data_exchange::prelude::*;
use peer_data_exchange::workloads::{boundary, paper, Graph};
use proptest::prelude::*;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::{Arc, Mutex};

/// The span sink is process-global, so in-process tests that install one
/// must run serialized. Poison is ignored: a failing test must not
/// cascade into the others.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn lock_sink() -> std::sync::MutexGuard<'static, ()> {
    SINK_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Run `f` with a fresh collecting sink installed and return the spans it
/// produced, ordered by sequence number.
fn collect_spans(f: impl FnOnce()) -> Vec<SpanRecord> {
    let sink = Arc::new(CollectingSink::bounded(1 << 16));
    pde_trace::set_sink(sink.clone());
    f();
    pde_trace::clear_sink();
    let mut spans = sink.take();
    spans.sort_by_key(|s| s.seq);
    assert_eq!(sink.dropped(), 0, "collecting sink overflowed");
    spans
}

/// Scrub a span down to its deterministic parts: name plus fields.
fn scrub(spans: &[SpanRecord]) -> Vec<(&'static str, Vec<(&'static str, FieldValue)>)> {
    spans.iter().map(|s| (s.name, s.fields.clone())).collect()
}

fn u64_field(span: &SpanRecord, key: &str) -> Option<u64> {
    span.fields.iter().find_map(|(k, v)| match v {
        FieldValue::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

/// Sum field `key` over every span named `name`.
fn sum_field(spans: &[SpanRecord], name: &str, key: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| u64_field(s, key).unwrap_or(0))
        .sum()
}

fn tgd_step_count(res: &ChaseResult) -> usize {
    res.log
        .iter()
        .filter(|r| matches!(r, pde_chase::StepRecord::Tgd { .. }))
        .count()
}

fn egd_step_count(res: &ChaseResult) -> usize {
    res.log
        .iter()
        .filter(|r| matches!(r, pde_chase::StepRecord::Egd { .. }))
        .count()
}

fn u(s: &'static str) -> FieldValue {
    FieldValue::Str(s.to_owned())
}

#[test]
fn golden_span_sequence_for_seminaive_chase() {
    let _guard = lock_sink();
    let p = paper::exact_view_setting();
    let input = parse_instance(p.schema(), "E(a, b). E(b, c). E(a, c).").unwrap();
    let deps: Vec<Dependency> = p.sigma_st().iter().cloned().map(Dependency::Tgd).collect();
    let gen = NullGen::new();
    let spans = collect_spans(|| {
        let res = chase_governed_with(
            input,
            &deps,
            WitnessMode::FreshNulls(&gen),
            ChaseLimits::default(),
            ChaseEngine::Seminaive,
            &Governor::unlimited(),
        );
        assert!(res.is_success());
    });
    // Round 1 finds the single E(a,b),E(b,c) chain and fires H(a,c);
    // round 2's delta windows find nothing and the chase stops. Child
    // spans close before their parent round span, so they come first.
    let expected: Vec<(&str, Vec<(&str, FieldValue)>)> = vec![
        ("governor.check", vec![("bytes", FieldValue::U64(536))]),
        (
            "hom.search",
            vec![
                ("kind", u("seminaive")),
                ("atoms", FieldValue::U64(2)),
                ("delta_lo", FieldValue::U64(0)),
                ("delta_hi", FieldValue::U64(1)),
            ],
        ),
        (
            "chase.trigger",
            vec![
                ("engine", u("seminaive")),
                ("dep", FieldValue::U64(0)),
                ("round", FieldValue::U64(1)),
                ("found", FieldValue::U64(1)),
                ("fired", FieldValue::U64(1)),
            ],
        ),
        (
            "chase.round",
            vec![
                ("engine", u("seminaive")),
                ("round", FieldValue::U64(1)),
                ("facts", FieldValue::U64(3)),
            ],
        ),
        ("governor.check", vec![("bytes", FieldValue::U64(784))]),
        (
            "hom.search",
            vec![
                ("kind", u("seminaive")),
                ("atoms", FieldValue::U64(2)),
                ("delta_lo", FieldValue::U64(1)),
                ("delta_hi", FieldValue::U64(2)),
            ],
        ),
        (
            "chase.trigger",
            vec![
                ("engine", u("seminaive")),
                ("dep", FieldValue::U64(0)),
                ("round", FieldValue::U64(2)),
                ("found", FieldValue::U64(0)),
                ("fired", FieldValue::U64(0)),
            ],
        ),
        (
            "chase.round",
            vec![
                ("engine", u("seminaive")),
                ("round", FieldValue::U64(2)),
                ("facts", FieldValue::U64(4)),
            ],
        ),
    ];
    assert_eq!(scrub(&spans), expected);
}

#[test]
fn egd_merge_spans_name_their_discovery_path() {
    // The §4 egd boundary: its key egd (x → z) and its consistency egd
    // (sharing `y` at different positions) are two-atom premises of
    // distinct variables and take the row-pair pass, with no nested
    // `hom.search`. An appended three-atom egd (implied by the consistency
    // egd, so the chase is unchanged) takes the generic search.
    let _guard = lock_sink();
    let p = boundary::egd_boundary_setting();
    let input = parse_instance(p.schema(), "D(a, b). D(b, a). D(a, c).").unwrap();
    let mut deps = forward_deps(&p);
    let chain = "P(x, z, y, w), P(y, z2, y2, w2), P(y2, z3, y3, w3) -> w2 = z3";
    deps.push(Dependency::Egd(
        pde_constraints::parse_egd(p.schema(), chain).unwrap(),
    ));
    let gen = NullGen::new();
    let spans = collect_spans(|| {
        let res = chase_governed_with(
            input,
            &deps,
            WitnessMode::FreshNulls(&gen),
            ChaseLimits::default(),
            ChaseEngine::Seminaive,
            &Governor::unlimited(),
        );
        assert!(res.stats.egd_merges > 0);
    });
    let path_of = |s: &SpanRecord| {
        s.fields.iter().find_map(|(k, v)| match v {
            FieldValue::Str(path) if *k == "path" => Some(path.clone()),
            _ => None,
        })
    };
    let mut hom_paths = 0;
    for s in spans.iter().filter(|s| s.name == "egd.merge") {
        let dep = usize::try_from(u64_field(s, "dep").unwrap()).unwrap();
        let pair = deps[dep].as_egd().unwrap().pair_shape().is_some();
        assert_eq!(dep < 3, pair, "dep {dep}");
        let path = path_of(s).unwrap();
        assert_eq!(path, if pair { "pair" } else { "hom" });
        hom_paths += usize::from(!pair);
    }
    assert!(hom_paths > 0);
    let triggers = spans.iter().filter(|s| s.name == "chase.trigger").count();
    let searches = spans.iter().filter(|s| s.name == "hom.search").count();
    assert_eq!(searches, triggers + hom_paths);
}

// ---------------------------------------------------------------------
// CLI goldens (separate subprocesses: no sink lock needed).
// ---------------------------------------------------------------------

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_pde")
}

fn triangle() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/examples/triangle.pde")
}

fn write_temp(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pde-trace-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs")
}

/// A bundle routed to the generic witness-chase search (full target tgd
/// plus nonempty Σts), so `--stats` exercises the search counters.
const GENERIC_SEARCH: &str = "
%schema
source E/2; target H/2
%st
E(x, y) -> H(x, y)
%ts
H(x, y) -> E(x, y)
%t
H(x, y), H(y, x) -> H(x, x)
%instance
E(a, b). E(b, a). E(b, c).
";

/// Extract `(name, count)` pairs from the serialized `"histograms"` map.
/// Counts are deterministic per fixture; sums, extrema, and bucket
/// boundaries are wall-clock dependent and deliberately ignored.
fn histogram_counts(hist: &str) -> Vec<(String, String)> {
    let marker = "\":{\"count\":";
    let mut out = Vec::new();
    let mut rest = hist;
    while let Some(at) = rest.find(marker) {
        let name_start = rest[..at].rfind('"').expect("name opens") + 1;
        let name = rest[name_start..at].to_string();
        let after = &rest[at + marker.len()..];
        let digits: String = after.chars().take_while(char::is_ascii_digit).collect();
        out.push((name, digits));
        rest = after;
    }
    out
}

/// Replace the digits after every occurrence of `key` with `N`.
fn scrub_number(line: &str, key: &str) -> String {
    let mut out = String::new();
    let mut rest = line;
    while let Some(at) = rest.find(key) {
        let end = at + key.len();
        out.push_str(&rest[..end]);
        rest = rest[end..].trim_start_matches(|c: char| c.is_ascii_digit());
        out.push('N');
    }
    out.push_str(rest);
    out
}

#[test]
fn trace_flag_streams_golden_jsonl() {
    let out_path = write_temp("triangle_trace.jsonl", "");
    let out = run(&[
        "solve",
        "--no-lint",
        "--trace",
        out_path.to_str().unwrap(),
        triangle(),
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&out_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();

    // Every line is one self-contained JSON object with the fixed keys.
    for line in &lines {
        assert!(line.starts_with("{\"v\":1,\"span\":\""), "line: {line}");
        assert!(line.ends_with("}}"), "line: {line}");
        for key in ["\"seq\":", "\"dur_ns\":", "\"self_ns\":", "\"fields\":{"] {
            assert!(line.contains(key), "missing {key} in: {line}");
        }
    }

    // The span-name sequence is the tractable solver's fixed anatomy:
    // Σst ∪ Σt chase (2 rounds), Σts backward chase (2 rounds), block
    // decomposition (one per solve), and the check of its one ground block.
    let names: Vec<&str> = lines
        .iter()
        .map(|l| {
            let rest = &l["{\"v\":1,\"span\":\"".len()..];
            &rest[..rest.find('"').expect("span name closes")]
        })
        .collect();
    let expected = [
        "governor.check",
        "hom.search",
        "chase.trigger",
        "chase.round",
        "governor.check",
        "hom.search",
        "chase.trigger",
        "chase.round",
        "governor.check",
        "hom.search",
        "chase.trigger",
        "chase.round",
        "governor.check",
        "hom.search",
        "chase.trigger",
        "chase.round",
        "blocks.decompose",
        "block.hom_search",
    ];
    assert_eq!(names, expected, "full trace:\n{text}");
}

#[test]
fn profile_flag_prints_phase_breakdown() {
    let out = run(&["solve", "--no-lint", "--profile", triangle()]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    let header = stderr.lines().next().expect("profile table on stderr");
    for col in ["phase", "count", "total ms", "self ms", "self %"] {
        assert!(header.contains(col), "header: {header}");
    }
    // Durations vary run to run; the per-phase span counts do not.
    for (phase, count) in [
        ("hom.search", "4"),
        ("chase.trigger", "4"),
        ("chase.round", "4"),
        ("governor.check", "4"),
        ("blocks.decompose", "1"),
        ("block.hom_search", "1"),
    ] {
        let row = stderr
            .lines()
            .find(|l| l.starts_with(phase))
            .unwrap_or_else(|| panic!("no {phase} row in:\n{stderr}"));
        assert_eq!(row.split_whitespace().nth(1), Some(count), "row: {row}");
    }

    // One sink per run: --trace and --profile are mutually exclusive.
    let out = run(&["solve", "--trace", "/dev/null", "--profile", triangle()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("mutually exclusive"));
}

#[test]
fn solve_json_report_golden_tractable() {
    let out = run(&[
        "solve",
        "--no-lint",
        "--stats",
        "--format",
        "json",
        triangle(),
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout.trim_end();
    assert_eq!(line.lines().count(), 1, "one JSONL line: {stdout}");
    let (prefix, hist) = line
        .split_once("\"histograms\":{")
        .expect("report carries a histograms map");
    assert_eq!(
        scrub_number(prefix, "\"solve.elapsed_ns\":"),
        "{\"v\":1,\"solver\":\"tractable\",\"engine\":\"seminaive\",\
         \"result\":\"yes\",\"undecided_reason\":null,\"engine_fallback\":false,\
         \"optimize\":{\"before\":2,\"after\":2,\"actions\":0,\
         \"schedule\":{\"strata\":[[0]]}},\
         \"certificate\":{\"version\":1,\"regime\":\"tractable\",\"solver\":\"tractable\",\
         \"termination\":{\"certified\":true,\"criterion\":\"weak-acyclicity\"}},\
         \"metrics\":{\"counters\":{\
         \"chase.egd_merges\":0,\"chase.keyed_witnesses\":0,\"chase.rounds\":4,\"chase.skipped_by_delta\":2,\
         \"chase.triggers_fired\":2,\"chase.triggers_found\":2,\"chase.triggers_satisfied\":0,\
         \"governor.cancellations_observed\":0,\"governor.checks\":4,\
         \"governor.faults_fired\":0,\"governor.peak_bytes\":571,\"governor.stops\":0,\
         \"solve.elapsed_ns\":N,\
         \"storage.bytes_per_fact\":143,\"storage.facts\":4,\
         \"storage.heap_bytes\":571,\"storage.index_entries\":8,\
         \"storage.slots\":4},"
    );
    // Histogram names and per-fixture counts are deterministic (the
    // tractable solver's span anatomy is pinned above); durations are not.
    let counts = histogram_counts(hist);
    assert_eq!(
        counts
            .iter()
            .map(|(n, c)| (n.as_str(), c.as_str()))
            .collect::<Vec<_>>(),
        vec![
            ("chase.round_ns", "4"),
            ("phase.block.hom_search.self_ns", "1"),
            ("phase.blocks.decompose.self_ns", "1"),
            ("phase.chase.round.self_ns", "4"),
            ("phase.chase.trigger.self_ns", "4"),
            ("phase.governor.check.self_ns", "4"),
            ("phase.hom.search.self_ns", "4"),
            ("solve.elapsed_ns", "1"),
        ],
        "histograms: {hist}"
    );
    assert!(hist.contains("\"buckets\":[["), "histograms: {hist}");
    assert!(line.ends_with("}}"), "line: {line}");
    assert!(pde_trace::json::parse(line).is_ok(), "line: {line}");
}

#[test]
fn solve_json_report_golden_generic_search() {
    let p = write_temp("generic_search.pde", GENERIC_SEARCH);
    let out = run(&[
        "solve",
        "--no-lint",
        "--stats",
        "--format",
        "json",
        p.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "no solution here");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout.trim_end();
    let (prefix, hist) = line
        .split_once("\"histograms\":{")
        .expect("report carries a histograms map");
    assert_eq!(
        scrub_number(prefix, "\"solve.elapsed_ns\":"),
        "{\"v\":1,\"solver\":\"generic-search\",\"engine\":\"seminaive\",\
         \"result\":\"no\",\"undecided_reason\":null,\"engine_fallback\":false,\
         \"optimize\":{\"before\":3,\"after\":3,\"actions\":0,\
         \"schedule\":{\"strata\":[[0],[1]]}},\
         \"certificate\":{\"version\":1,\"regime\":\"full-tgd-boundary\",\
         \"solver\":\"generic-search\",\
         \"termination\":{\"certified\":true,\"criterion\":\"weak-acyclicity\"}},\
         \"metrics\":{\"counters\":{\
         \"governor.cancellations_observed\":0,\"governor.checks\":5,\
         \"governor.faults_fired\":0,\"governor.peak_bytes\":0,\"governor.stops\":0,\
         \"search.branches\":5,\"search.candidates_checked\":0,\"search.prunes\":1,\
         \"solve.elapsed_ns\":N},"
    );
    let counts = histogram_counts(hist);
    assert_eq!(
        counts
            .iter()
            .map(|(n, c)| (n.as_str(), c.as_str()))
            .collect::<Vec<_>>(),
        vec![
            ("phase.governor.check.self_ns", "5"),
            ("phase.solver.branch.self_ns", "5"),
            ("solve.elapsed_ns", "1"),
        ],
        "histograms: {hist}"
    );
    assert!(line.ends_with("}}"), "line: {line}");

    // The text form reports the same counters, not an "n/a" shrug.
    let out = run(&["solve", "--no-lint", "--stats", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("search branches:         5"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("candidates checked:      0"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("branches pruned:         1"),
        "stdout: {stdout}"
    );
    assert!(
        !stdout.contains("n/a (search-based solver)"),
        "stdout: {stdout}"
    );
}

// ---------------------------------------------------------------------
// Property: the three accounting layers agree.
// ---------------------------------------------------------------------

fn forward_deps(setting: &PdeSetting) -> Vec<Dependency> {
    setting
        .sigma_st()
        .iter()
        .cloned()
        .map(Dependency::Tgd)
        .chain(setting.sigma_t().iter().cloned())
        .collect()
}

/// Chase `input` under `deps` with the named engine, collecting spans,
/// and check that the trace, the `ChaseStats` counters, and the
/// `StepRecord` log tell the same story.
fn check_accounting_layers_agree(
    engine: &str,
    input: &Instance,
    deps: &[Dependency],
) -> Result<(), String> {
    let _guard = lock_sink();
    let gen = NullGen::new();
    let mut result: Option<ChaseResult> = None;
    let spans = collect_spans(|| {
        let engine = match engine {
            "naive" => ChaseEngine::Naive,
            _ => ChaseEngine::Seminaive,
        };
        result = Some(chase_governed_with(
            input.clone(),
            deps,
            WitnessMode::FreshNulls(&gen),
            ChaseLimits::default(),
            engine,
            &Governor::unlimited(),
        ));
    });
    let res = result.expect("chase ran");

    // Trace ⇔ stats ⇔ provenance log: tgd applications.
    let fired_in_trace = sum_field(&spans, "chase.trigger", "fired");
    prop_assert_eq!(
        usize::try_from(fired_in_trace).unwrap(),
        res.stats.triggers_fired
    );
    prop_assert_eq!(res.stats.triggers_fired, tgd_step_count(&res));
    prop_assert_eq!(res.stats.triggers_fired, res.tgd_steps);

    // Trace ⇔ stats ⇔ provenance log: egd merges.
    let merges_in_trace = sum_field(&spans, "egd.merge", "merges");
    prop_assert_eq!(
        usize::try_from(merges_in_trace).unwrap(),
        res.stats.egd_merges
    );
    prop_assert_eq!(res.stats.egd_merges, egd_step_count(&res));
    prop_assert_eq!(res.stats.egd_merges, res.egd_steps);

    // Witnesses: every existential of a fired tgd step is a minted null
    // or a value taken from the row that already holds its key.
    let existentials: usize = res
        .log
        .iter()
        .map(|r| match r {
            pde_chase::StepRecord::Tgd { dep_index, .. } => deps[*dep_index]
                .as_tgd()
                .map_or(0, |t| t.existentials.len()),
            pde_chase::StepRecord::Egd { .. } => 0,
        })
        .sum();
    let minted = usize::try_from(gen.high_water()).unwrap();
    prop_assert_eq!(minted + res.stats.keyed_witnesses, existentials);

    // Every round produced exactly one round span.
    let round_spans = spans.iter().filter(|s| s.name == "chase.round").count();
    prop_assert_eq!(round_spans, res.stats.rounds);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn trace_stats_and_log_agree_on_random_tgd_chases(
        edges in prop::collection::vec((0..5u32, 0..5u32), 0..10),
        engine_pick in 0..2u32,
    ) {
        let engine = if engine_pick == 0 { "naive" } else { "seminaive" };
        let p = paper::exact_view_setting();
        let mut src = String::new();
        for (a, b) in &edges {
            src.push_str(&format!("E(v{a}, v{b}). "));
        }
        let input = parse_instance(p.schema(), &src).unwrap();
        let deps = forward_deps(&p);
        check_accounting_layers_agree(engine, &input, &deps)?;
    }

    #[test]
    fn trace_stats_and_log_agree_on_egd_heavy_chases(
        k in 2..5u32,
        engine_pick in 0..2u32,
    ) {
        let engine = if engine_pick == 0 { "naive" } else { "seminaive" };
        // The §4 egd-boundary workload: Σst mints two nulls per D fact
        // and the Σt egds merge them, so the egd side of the accounting
        // is actually exercised.
        let setting = boundary::egd_boundary_setting();
        let input = boundary::egd_boundary_instance(&setting, &Graph::complete(3), k);
        let deps = forward_deps(&setting);
        check_accounting_layers_agree(engine, &input, &deps)?;
    }

    #[test]
    fn trace_stats_and_log_agree_on_keyed_chases(
        facts in prop::collection::vec((0..2u32, 0..4u32, 0..3u32), 0..12),
        engine_pick in 0..2u32,
    ) {
        let engine = if engine_pick == 0 { "naive" } else { "seminaive" };
        // Keyed data exchange: the semi-naive engine takes `i` and `o`
        // from the row that already holds the key `a`, and mints the
        // rest. Each key has one organism, so the chase succeeds (a
        // failing egd step is accounted in `egd_steps` but is no merge).
        let setting = PdeSetting::parse(
            "source S/2; source Q/2; target T/3; target G/2;",
            "S(a, o) -> exists i . T(a, i, o); Q(a, g) -> exists i, o . T(a, i, o), G(i, g)",
            "",
            "T(a, i, o), T(a, i2, o2) -> i = i2; T(a, i, o), T(a, i2, o2) -> o = o2",
        )
        .unwrap();
        let mut src = String::new();
        for (kind, a, g) in &facts {
            if *kind == 0 {
                src.push_str(&format!("S(k{a}, o{}). ", a % 2));
            } else {
                src.push_str(&format!("Q(k{a}, g{g}). "));
            }
        }
        let input = parse_instance(setting.schema(), &src).unwrap();
        let deps = forward_deps(&setting);
        check_accounting_layers_agree(engine, &input, &deps)?;
    }
}
