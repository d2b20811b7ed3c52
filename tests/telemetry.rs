//! Telemetry integration tests over the in-process serve loop:
//!
//! * golden test for the versioned access-log record schema — one
//!   `pde-access` line per request, keyed by the monotone request id,
//!   with wall-clock durations scrubbed;
//! * span sampling (`trace_sample`) interleaves `pde-span-sample` lines
//!   for exactly the sampled ids;
//! * property test: over random request sequences — including invalid,
//!   panicking (fault-injection builds), and over-budget ones — the
//!   `serve.request_ns` histogram count equals the `serve.requests`
//!   counter, and the per-kind histogram counts partition it.

use peer_data_exchange::core::Bundle;
use peer_data_exchange::serve::{serve, ServeOptions};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn bundle() -> Bundle {
    Bundle::parse(
        "%schema\nsource E/2; target H/2;\n%st\nE(x, z), E(z, y) -> H(x, y)\n\
         %ts\nH(x, y) -> E(x, y)\n%t\n%instance\nE(a, a).\n",
    )
    .unwrap()
}

/// A unique scratch directory; callers remove it when the test passes.
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pde-telemetry-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run one in-process serve session over `script`; returns the response
/// lines and the store directory (which also holds flight dumps).
fn run_serve(
    tag: &str,
    script: &str,
    configure: impl FnOnce(&mut ServeOptions),
) -> (Vec<String>, PathBuf) {
    let store = temp_dir(tag);
    let mut options = ServeOptions {
        store_dir: store.to_string_lossy().into_owned(),
        timeout: None,
        memory_limit: None,
        stats: false,
        access_log: None,
        trace_sample: 0,
    };
    configure(&mut options);
    let mut out: Vec<u8> = Vec::new();
    serve(&bundle(), &options, script.as_bytes(), &mut out).unwrap();
    let lines = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    (lines, store)
}

/// Replace the digits after `"<key>":` with `N` for every listed key.
/// Durations are wall-clock noise; every other access-record field is
/// deterministic for a fixed script and gets pinned exactly.
fn scrub(line: &str, keys: &[&str]) -> String {
    let mut out = line.to_owned();
    for key in keys {
        let pat = format!("\"{key}\":");
        let mut scrubbed = String::new();
        let mut rest = out.as_str();
        while let Some(at) = rest.find(&pat) {
            let end = at + pat.len();
            scrubbed.push_str(&rest[..end]);
            scrubbed.push('N');
            rest = rest[end..].trim_start_matches(|c: char| c.is_ascii_digit());
        }
        scrubbed.push_str(rest);
        out = scrubbed;
    }
    out
}

/// Extract the integer after `"<name>":` (counters, ids).
fn counter(line: &str, name: &str) -> u64 {
    let pat = format!("\"{name}\":");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {name} in: {line}"));
    line[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {name} in: {line}"))
}

/// All `serve.request_ns*` histogram names with their counts, scanned
/// from a `metrics` JSON fragment.
fn request_histogram_counts(line: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("\"serve.request_ns") {
        let name_start = at + 1;
        let tail = &rest[name_start..];
        let name_len = tail.find('"').expect("histogram name closes");
        let name = tail[..name_len].to_string();
        let after = &tail[name_len..];
        if let Some(stripped) = after.strip_prefix("\":{\"count\":") {
            let digits: String = stripped.chars().take_while(char::is_ascii_digit).collect();
            out.push((name, digits.parse().expect("count is numeric")));
        }
        rest = &rest[name_start..];
    }
    out
}

#[test]
fn access_log_golden_one_record_per_request_keyed_by_id() {
    let log = temp_dir("access-golden").with_extension("jsonl");
    let (responses, store) = run_serve(
        "access-golden",
        concat!(
            "{\"op\":\"insert\",\"facts\":\"E(a, b).\"}\n",
            "{\"op\":\"solve\"}\n",
            "this is not a request\n",
            "{\"op\":\"certain\",\"query\":\"q() :- H(x, y)\"}\n",
            "{\"op\":\"stats\"}\n",
        ),
        |o| o.access_log = Some(log.to_string_lossy().into_owned()),
    );
    assert_eq!(responses.len(), 6, "hello + five responses: {responses:?}");

    let text = std::fs::read_to_string(&log).unwrap();
    let records: Vec<&str> = text.lines().collect();
    assert_eq!(records.len(), 5, "one record per request:\n{text}");

    // Records are keyed by the monotone request id, in arrival order,
    // matching the ids echoed in the responses.
    for (i, rec) in records.iter().enumerate() {
        let id = u64::try_from(i).unwrap() + 1;
        assert_eq!(counter(rec, "id"), id, "record: {rec}");
        assert_eq!(counter(&responses[i + 1], "id"), id, "{}", responses[i + 1]);
    }

    // The schema golden: versioned records, durations scrubbed. Byte
    // counts are the exact request/response line lengths and stay pinned.
    let scrubbed: Vec<String> = records
        .iter()
        .map(|r| scrub(r, &["total_ns", "chase_ns", "solve_ns"]))
        .collect();
    let expect = [
        "{\"v\":1,\"kind\":\"pde-access\",\"id\":1,\"op\":\"insert\",\"result\":\"ok\",\
         \"status\":0,\"total_ns\":N,\"chase_ns\":N,\"solve_ns\":N,\"governor\":\"none\",\
         \"epoch\":2,\"bytes_in\":34,\"bytes_out\":55}",
        "{\"v\":1,\"kind\":\"pde-access\",\"id\":2,\"op\":\"solve\",\"result\":\"yes\",\
         \"status\":0,\"total_ns\":N,\"chase_ns\":N,\"solve_ns\":N,\"governor\":\"none\",\
         \"epoch\":2,\"bytes_in\":14,\"bytes_out\":56}",
        "{\"v\":1,\"kind\":\"pde-access\",\"id\":3,\"op\":\"invalid\",\"result\":\"error\",\
         \"status\":2,\"total_ns\":N,\"chase_ns\":N,\"solve_ns\":N,\"governor\":\"none\",\
         \"epoch\":2,\"bytes_in\":21,\"bytes_out\":75}",
        "{\"v\":1,\"kind\":\"pde-access\",\"id\":4,\"op\":\"certain\",\"result\":\"yes\",\
         \"status\":0,\"total_ns\":N,\"chase_ns\":N,\"solve_ns\":N,\"governor\":\"none\",\
         \"epoch\":2,\"bytes_in\":41,\"bytes_out\":104}",
    ];
    for (got, want) in scrubbed.iter().zip(expect.iter()) {
        assert_eq!(got, want);
    }
    // The stats record's response length varies with the histogram
    // payload; pin everything before the byte counts.
    assert!(
        scrubbed[4].starts_with(
            "{\"v\":1,\"kind\":\"pde-access\",\"id\":5,\"op\":\"stats\",\"result\":\"ok\",\
             \"status\":0,\"total_ns\":N,\"chase_ns\":N,\"solve_ns\":N,\"governor\":\"none\",\
             \"epoch\":2,\"bytes_in\":14,\"bytes_out\":"
        ),
        "record: {}",
        scrubbed[4]
    );

    // Everything the session wrote parses as JSON: the hello line, the
    // responses, the access records and the shutdown flight dump.
    let dump = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("flight-")
        })
        .expect("a shutdown flight dump");
    let dump = std::fs::read_to_string(dump).unwrap();
    for line in responses
        .iter()
        .map(String::as_str)
        .chain(records)
        .chain(dump.lines())
    {
        assert!(pde_trace::json::parse(line).is_ok(), "line: {line}");
    }

    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_file(&log);
}

#[test]
fn trace_sampling_interleaves_span_lines_for_sampled_ids_only() {
    let log = temp_dir("sample").with_extension("jsonl");
    let (_, store) = run_serve(
        "sample",
        "{\"op\":\"solve\"}\n{\"op\":\"solve\"}\n{\"op\":\"solve\"}\n{\"op\":\"solve\"}\n",
        |o| {
            o.access_log = Some(log.to_string_lossy().into_owned());
            o.trace_sample = 2;
        },
    );
    let text = std::fs::read_to_string(&log).unwrap();
    let mut sampled_ids = Vec::new();
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "line: {line}");
        if line.contains("\"kind\":\"pde-span-sample\"") {
            let id = counter(line, "id");
            // The span record's own members follow the sample's kind and id.
            let head = format!("{{\"kind\":\"pde-span-sample\",\"id\":{id},\"v\":1,\"span\":\"");
            assert!(line.starts_with(&head), "line: {line}");
            sampled_ids.push(id);
        }
    }
    // Every 2nd request is sampled; the tractable fast path emits spans
    // for each (chase refresh + homomorphism check).
    assert!(!sampled_ids.is_empty(), "no samples in:\n{text}");
    assert!(
        sampled_ids.iter().all(|id| id % 2 == 0),
        "sampled ids {sampled_ids:?} in:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_file(&log);
}

/// Replace every histogram's `"buckets":[...]` array with `N`: bucket
/// boundaries follow wall-clock durations.
fn scrub_buckets(line: &str) -> String {
    let pat = "\"buckets\":";
    let mut out = String::new();
    let mut rest = line;
    while let Some(at) = rest.find(pat) {
        out.push_str(&rest[..at + pat.len()]);
        out.push('N');
        let mut depth = 0usize;
        let tail = &rest[at + pat.len()..];
        let end = tail
            .char_indices()
            .find_map(|(i, c)| {
                match c {
                    '[' => depth += 1,
                    ']' => depth -= 1,
                    _ => {}
                }
                (depth == 0).then_some(i + 1)
            })
            .expect("buckets array closes");
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn serve_lines_golden_hello_responses_stats_and_flight_header() {
    let (lines, store) = run_serve(
        "lines-golden",
        concat!(
            "{\"op\":\"insert\",\"facts\":\"E('say \\\"hi\\\"', 'say \\\"hi\\\"').\"}\n",
            "{\"op\":\"certain\",\"query\":\"q(x, y) :- H(x, y)\"}\n",
            "{\"op\":\"frob\\tnicate\"}\n",
            "this is not a request\n",
            "{\"op\":\"stats\"}\n",
        ),
        |_| {},
    );
    assert_eq!(lines.len(), 6, "{lines:?}");
    assert_eq!(
        lines[0],
        "{\"ok\":true,\"kind\":\"pde-serve-hello\",\"v\":1,\"epoch\":1,\"snapshot_epoch\":0,\
         \"frames_replayed\":0,\"truncated_frames\":0,\"rewound\":false,\"seeded\":1,\
         \"facts\":1,\"fast_path\":true}"
    );
    assert_eq!(
        lines[1],
        "{\"ok\":true,\"id\":1,\"op\":\"insert\",\"inserted\":1,\"epoch\":2}"
    );
    assert_eq!(
        lines[2],
        "{\"ok\":true,\"id\":2,\"op\":\"certain\",\"solution_exists\":true,\
         \"solutions_examined\":1,\"answers\":[[\"a\",\"a\"],\
         [\"say \\\"hi\\\"\",\"say \\\"hi\\\"\"]],\"epoch\":2}"
    );
    assert_eq!(
        lines[3],
        "{\"ok\":false,\"id\":3,\"error\":\"unknown op 'frob\\tnicate'\",\"epoch\":2}"
    );
    assert_eq!(
        lines[4],
        "{\"ok\":false,\"id\":4,\"error\":\"bad request: expected '{' at byte 0\",\"epoch\":2}"
    );
    assert_eq!(
        scrub_buckets(&scrub(&lines[5], &["uptime_ns", "sum", "min", "max"])),
        "{\"ok\":true,\"id\":5,\"op\":\"stats\",\"uptime_ns\":N,\"durable_epoch\":2,\
         \"snapshot_epoch\":0,\"frames_replayed\":0,\"truncated_frames\":0,\"rewound\":false,\
         \"flight_dumps\":0,\"epoch\":2,\"metrics\":{\"counters\":{\
         \"serve.certain_fallbacks\":0,\"serve.errors\":2,\
         \"serve.flight_dumps\":0,\"serve.full_rechases\":1,\"serve.incremental_rechases\":0,\
         \"serve.panics_isolated\":0,\"serve.requests\":5,\"store.commits\":2,\
         \"store.epoch\":2,\"store.frames_replayed\":0,\"store.frames_skipped\":0,\
         \"store.journal_bytes\":106,\"store.ops_committed\":2,\"store.recoveries\":0,\
         \"store.snapshots_written\":0,\"store.truncated_bytes\":0,\
         \"store.truncated_frames\":0},\"histograms\":{\
         \"chase.round_ns\":{\"count\":2,\"sum\":N,\"min\":N,\"max\":N,\"buckets\":N},\
         \"serve.request_ns\":{\"count\":5,\"sum\":N,\"min\":N,\"max\":N,\"buckets\":N},\
         \"serve.request_ns.certain\":{\"count\":1,\"sum\":N,\"min\":N,\"max\":N,\"buckets\":N},\
         \"serve.request_ns.insert\":{\"count\":1,\"sum\":N,\"min\":N,\"max\":N,\"buckets\":N},\
         \"serve.request_ns.invalid\":{\"count\":2,\"sum\":N,\"min\":N,\"max\":N,\"buckets\":N},\
         \"serve.request_ns.stats\":{\"count\":1,\"sum\":N,\"min\":N,\"max\":N,\"buckets\":N},\
         \"store.commit_ns\":{\"count\":2,\"sum\":N,\"min\":N,\"max\":N,\"buckets\":N}}}}"
    );
    // The shutdown dump's header line. Span counts are scrubbed: the
    // trace sink is process-wide, so concurrently running tests' spans
    // can land in this session's ring.
    let dump = std::fs::read_to_string(store.join("flight-000-shutdown.jsonl")).unwrap();
    assert_eq!(
        scrub(
            dump.lines().next().unwrap(),
            &["uptime_ns", "spans", "evicted_spans"]
        ),
        "{\"v\":1,\"kind\":\"pde-flight\",\"reason\":\"shutdown\",\"at_request\":5,\
         \"uptime_ns\":N,\"epoch\":2,\"requests\":5,\"spans\":N,\"evicted_spans\":N}"
    );
    let _ = std::fs::remove_dir_all(&store);

    // Undecided (with its reason), snapshot, retract and shutdown.
    let (lines, store) = run_serve(
        "lines-golden-2",
        concat!(
            "{\"op\":\"solve\"}\n",
            "{\"op\":\"snapshot\"}\n",
            "{\"op\":\"retract\",\"facts\":\"E(a, a).\"}\n",
            "{\"op\":\"shutdown\"}\n",
        ),
        |o| o.timeout = Some(Duration::from_nanos(1)),
    );
    assert_eq!(
        lines[1..],
        [
            "{\"ok\":true,\"id\":1,\"op\":\"solve\",\"result\":\"undecided\",\
             \"reason\":\"deadline exceeded (1ns budget)\",\"epoch\":1}",
            "{\"ok\":true,\"id\":2,\"op\":\"snapshot\",\"journal_bytes\":8,\"epoch\":1}",
            "{\"ok\":true,\"id\":3,\"op\":\"retract\",\"retracted\":1,\"epoch\":2}",
            "{\"ok\":true,\"id\":4,\"op\":\"shutdown\",\"epoch\":2}",
        ]
    );
    let _ = std::fs::remove_dir_all(&store);
}

/// One random request line. Variant 5 injects a panic, which the
/// fault-injection build turns into an isolated panic mid-solve and the
/// regular build rejects in-band — either way it must be counted.
fn request_line(variant: u8) -> &'static str {
    match variant {
        0 => "{\"op\":\"insert\",\"facts\":\"E(a, b).\"}",
        1 => "{\"op\":\"solve\"}",
        2 => "{\"op\":\"certain\",\"query\":\"q() :- H(x, y)\"}",
        3 => "{\"op\":\"stats\"}",
        4 => "definitely not json",
        _ => "{\"op\":\"solve\",\"inject_panic_at\":0}",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn histogram_counts_equal_the_request_counter(
        ops in prop::collection::vec(0u8..6, 1..10),
        budget in 0u8..2,
    ) {
        let mut script = String::new();
        for v in &ops {
            script.push_str(request_line(*v));
            script.push('\n');
        }
        // A final stats request reads back the session metrics; it is
        // itself a request and must appear in its own histogram.
        script.push_str("{\"op\":\"stats\"}\n");

        let (responses, store) = run_serve("prop", &script, |o| {
            if budget == 1 {
                // Over-budget sessions: every solve stops undecided.
                o.timeout = Some(Duration::from_nanos(1));
            }
        });
        let stats = responses.last().expect("stats response");
        let total_requests = u64::try_from(ops.len()).unwrap() + 1;
        prop_assert_eq!(counter(stats, "serve.requests"), total_requests);

        let hists = request_histogram_counts(stats);
        let overall: u64 = hists
            .iter()
            .filter(|(n, _)| n == "serve.request_ns")
            .map(|(_, c)| *c)
            .sum();
        let per_kind: u64 = hists
            .iter()
            .filter(|(n, _)| n.starts_with("serve.request_ns."))
            .map(|(_, c)| *c)
            .sum();
        prop_assert_eq!(overall, total_requests, "stats: {}", stats);
        prop_assert_eq!(per_kind, total_requests, "stats: {}", stats);
        let _ = std::fs::remove_dir_all(&store);
    }
}
