//! Differential oracle for `pde serve`: seeded random sequences of
//! insert / retract / solve / certain / snapshot requests go through the
//! in-process serve loop, while the test keeps a replica of the base and
//! answers every `solve` with a batch `decide` and every `certain` with
//! `certain_answers` on the replica. The incremental path must agree with
//! the batch one on every request, and a restarted session (full rebuild
//! from the recovered store) must agree at the end.
//!
//! Three settings cover the ways the incremental Fig. 3 state can go
//! wrong: the genomics LAV setting (rogue target facts flip the answer to
//! "no", retracting them flips it back), a setting whose blocks join
//! through a shared null after an insert, and a setting where both Σst and
//! Σts mint nulls, so one generator must serve both chases.
//!
//! Serve answers `certain` from its cached Fig. 3 state when the ground
//! answers over `J_can` and over the Fig. 3 witness meet, and enumerates
//! otherwise. The `joining` and `nulls` cases each ask a query over a
//! position only a Σst existential fills, where the two differ, so both
//! paths are held to the batch answer.
//!
//! The tier-1 run takes a few fixed seeds; `cargo test --release --test
//! serve_oracle -- --ignored` runs the soak over many more.

use pde_core::{certain_answers, decide, Bundle, GenericLimits};
use pde_relational::{parse_instance, parse_query, render_instance, Instance, UnionQuery};
use pde_trace::json::{self, Json, ObjExt};
use peer_data_exchange::serve::{serve, ServeOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;

/// A setting under test: its bundle, a random-fact generator over its
/// schema, and the certain queries the sequences ask.
struct Case {
    name: &'static str,
    bundle: &'static str,
    fact: fn(&mut StdRng) -> String,
    queries: &'static [&'static str],
}

/// One of `items`, uniformly.
fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

const GENOMICS: &str = "
%schema
source sp_protein/3; source sp_annotation/2; target u_protein/2; target u_annotation/2
%st
sp_protein(a, n, o) -> u_protein(a, o);
sp_protein(a, n, o), sp_annotation(a, g) -> u_annotation(a, g)
%ts
u_protein(a, o) -> exists n . sp_protein(a, n, o);
u_annotation(a, g) -> sp_annotation(a, g)
%instance
sp_protein(P0, n0, org0). sp_protein(P1, n1, org1). sp_protein(P2, n2, org2).
sp_protein(P3, n3, org0). sp_protein(P4, n4, org1).
sp_annotation(P0, GO1). sp_annotation(P1, GO2). sp_annotation(P3, GO1).
u_protein(P0, org0). u_protein(P3, org0).
";

/// New proteins and annotations, and rogue target facts: a `u_protein`
/// row whose accession the source does not hold under that organism makes
/// the answer "no".
fn genomics_fact(rng: &mut StdRng) -> String {
    let acc = format!("P{}", rng.gen_range(0..8u32));
    let org = format!("org{}", rng.gen_range(0..3u32));
    let go = format!("GO{}", rng.gen_range(0..4u32));
    match rng.gen_range(0..10u32) {
        0..=3 => format!("sp_protein({acc}, n{}, {org}).", rng.gen_range(0..3u32)),
        4..=5 => format!("sp_annotation({acc}, {go})."),
        6..=8 => format!("u_protein({acc}, {org})."),
        _ => format!("u_annotation({acc}, {go})."),
    }
}

const JOINING: &str = "
%schema
source S/1; source R/2; source P/2; source Q/2; target T/2; target U/2
%st
S(a) -> exists y . T(a, y);
R(a, b) -> U(a, b)
%ts
T(a, y) -> P(a, y);
T(a, y), U(a, b) -> Q(y, b)
%instance
S(s1). P(s1, c). R(s1, d). Q(c, d). Q(e, d).
";

/// Facts over a small domain, so an `R` insert often joins a block that
/// already holds the `S` null, and `P`/`Q` inserts make failed blocks map.
fn joining_fact(rng: &mut StdRng) -> String {
    let a = pick(rng, &["s1", "s2", "c"]);
    let b = pick(rng, &["c", "d", "e", "z"]);
    match rng.gen_range(0..10u32) {
        0..=1 => format!("S({a})."),
        2..=4 => format!("R({a}, {b})."),
        5..=6 => format!("P({a}, {b})."),
        7..=8 => format!("Q({}, {b}).", pick(rng, &["c", "e", "z"])),
        _ => format!("U({a}, {b})."),
    }
}

const NULLS: &str = "
%schema
source S/1; source E/2; target T/2
%st
S(x) -> exists y . T(x, y)
%ts
T(x, y) -> exists w . E(y, w)
%instance
S(a). E(b, c).
";

/// Mostly `S` facts, each of which mints a Σst null and then a Σts null.
/// Every block `E(y, w)` maps onto any `E` edge; a null id shared by the
/// two chases would chain blocks into paths the sparse `E` lacks.
fn nulls_fact(rng: &mut StdRng) -> String {
    let v = ["a", "b", "c", "d", "e", "f"];
    if rng.gen_range(0..6u32) == 0 {
        format!("E({}, {}).", pick(rng, &v), pick(rng, &v))
    } else {
        format!("S({}).", pick(rng, &v))
    }
}

const CASES: [Case; 3] = [
    Case {
        name: "genomics",
        bundle: GENOMICS,
        fact: genomics_fact,
        queries: &[
            "q(o) :- u_protein(\"P1\", o)",
            "q(a, g) :- u_annotation(a, g)",
            "q() :- u_protein(a, \"org2\")",
        ],
    },
    Case {
        name: "joining",
        bundle: JOINING,
        fact: joining_fact,
        queries: &[
            "q(a, b) :- U(a, b)",
            "q(a) :- T(a, y)",
            "q(a, y) :- T(a, y)",
        ],
    },
    Case {
        name: "nulls",
        bundle: NULLS,
        fact: nulls_fact,
        queries: &[
            "q(x) :- T(x, y)",
            "q() :- T(x, y), T(y, z)",
            "q(x, y) :- T(x, y)",
        ],
    },
];

/// A request line and what its response must carry (checked members,
/// in no particular order).
struct Step {
    line: String,
    expect: Vec<(&'static str, Json)>,
}

/// The facts of `inst`, one `R(v, …).` text each.
fn fact_texts(inst: &Instance) -> Vec<String> {
    render_instance(inst).lines().map(str::to_owned).collect()
}

/// What a batch `decide` answers on `replica`.
fn batch_solve(bundle: &Bundle, replica: &Instance) -> Json {
    let report = decide(&bundle.setting, replica).expect("batch decide runs");
    let exists = report.exists.expect("small tractable settings decide");
    Json::from(if exists { "yes" } else { "no" })
}

/// The response members a `certain` request must carry on `replica`.
fn batch_certain(bundle: &Bundle, replica: &Instance, query: &str) -> Vec<(&'static str, Json)> {
    let q: UnionQuery = parse_query(bundle.setting.schema(), query)
        .expect("oracle queries parse")
        .into();
    let out = certain_answers(&bundle.setting, replica, &q, GenericLimits::default())
        .expect("batch certain answers");
    let mut expect = vec![("solution_exists", out.solution_exists.into())];
    if q.is_boolean() {
        expect.push(("certain", out.certain_bool().into()));
    } else {
        let rows = (out.answers.iter())
            .map(|t| Json::from_iter(t.iter().map(|v| Json::from(v.to_string()))));
        expect.push(("answers", rows.collect()));
    }
    expect
}

/// A seeded request sequence over `case`, with every response predicted
/// from the replica base as it stands at that request.
fn script(case: &Case, bundle: &Bundle, seed: u64, len: usize) -> (Vec<Step>, Instance) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = bundle.setting.schema().clone();
    let mut replica = bundle.input.clone();
    let mut steps = Vec::with_capacity(len);
    for _ in 0..len {
        let step = match rng.gen_range(0..20u32) {
            0..=8 => {
                let facts: Vec<String> = (0..rng.gen_range(1..=3usize))
                    .map(|_| (case.fact)(&mut rng))
                    .collect();
                let text = facts.join(" ");
                let parsed = parse_instance(&schema, &text).expect("generated facts parse");
                let mut inserted = 0usize;
                let _ = parsed.for_each_fact(|rel, ids| {
                    inserted += usize::from(replica.insert_ids(rel, ids));
                    ControlFlow::Continue(())
                });
                let line = Json::from_iter([("op", "insert".into()), ("facts", text.into())]);
                Step {
                    line: line.to_string(),
                    expect: vec![("inserted", inserted.into())],
                }
            }
            9..=11 => {
                // Mostly facts the base holds; sometimes one it may lack.
                let held = fact_texts(&replica);
                let text = if held.is_empty() || rng.gen_range(0..4u32) == 0 {
                    (case.fact)(&mut rng)
                } else {
                    held[rng.gen_range(0..held.len())].clone()
                };
                let parsed = parse_instance(&schema, &text).expect("retracted facts parse");
                let mut retracted = 0usize;
                for (rel, t) in parsed.facts() {
                    retracted += usize::from(replica.remove(rel, &t));
                }
                let line = Json::from_iter([("op", "retract".into()), ("facts", text.into())]);
                Step {
                    line: line.to_string(),
                    expect: vec![("retracted", retracted.into())],
                }
            }
            12..=16 => Step {
                line: Json::from_iter([("op", Json::from("solve"))]).to_string(),
                expect: vec![("result", batch_solve(bundle, &replica))],
            },
            17..=18 => {
                let query = case.queries[rng.gen_range(0..case.queries.len())];
                let line = Json::from_iter([("op", "certain".into()), ("query", query.into())]);
                Step {
                    line: line.to_string(),
                    expect: batch_certain(bundle, &replica, query),
                }
            }
            _ => Step {
                line: Json::from_iter([("op", Json::from("snapshot"))]).to_string(),
                expect: vec![("op", "snapshot".into())],
            },
        };
        steps.push(step);
    }
    (steps, replica)
}

/// Read a counter off a `stats` response.
fn counter(stats: &[(String, Json)], name: &str) -> usize {
    let Some(Json::Obj(metrics)) = stats.try_get("metrics") else {
        panic!("stats carry metrics: {stats:?}");
    };
    let Some(Json::Obj(counters)) = metrics.try_get("counters") else {
        panic!("metrics carry counters: {metrics:?}");
    };
    counters.get_num(name).expect("the counter")
}

/// The `serve.certain_fallbacks` counter a `stats` response reports.
fn certain_fallbacks(stats: &[(String, Json)]) -> usize {
    counter(stats, "serve.certain_fallbacks")
}

/// Run one serve session over `lines`; returns the parsed responses after
/// the hello line.
fn session(bundle: &Bundle, store: &str, lines: &[String]) -> Vec<Vec<(String, Json)>> {
    let options = ServeOptions {
        store_dir: store.to_owned(),
        timeout: None,
        memory_limit: None,
        stats: false,
        access_log: None,
        trace_sample: 0,
    };
    let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let mut out = Vec::new();
    serve(bundle, &options, input.as_bytes(), &mut out).expect("serve session runs");
    let text = String::from_utf8(out).expect("responses are UTF-8");
    let mut responses = text.lines();
    let hello = json::parse_object(responses.next().expect("hello line")).expect("hello parses");
    assert_eq!(hello.try_get("fast_path"), Some(&Json::Bool(true)));
    responses
        .map(|l| json::parse_object(l).expect("responses parse"))
        .collect()
}

/// What one seeded sequence exercised.
#[derive(Default)]
struct Tally {
    /// Solves answered "yes".
    yes: usize,
    /// Solves answered "no".
    no: usize,
    /// Consecutive solves that answered differently.
    flips: usize,
    /// `certain` requests with a solution that the bounds decided.
    bounded: usize,
    /// `certain` requests whose bounds differed, so serve enumerated.
    fallbacks: usize,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.yes += other.yes;
        self.no += other.no;
        self.flips += other.flips;
        self.bounded += other.bounded;
        self.fallbacks += other.fallbacks;
    }
}

/// Drive `len` random requests of `case` under `seed` through serve and
/// compare every response with the batch answer on the replica. Returns
/// what the sequence exercised.
fn check_case(case: &Case, seed: u64, len: usize) -> Tally {
    let bundle = Bundle::parse(case.bundle).expect("oracle bundle parses");
    let (steps, replica) = script(case, &bundle, seed, len);
    let store = std::env::temp_dir().join(format!(
        "pde-serve-oracle-{}-{}-{seed}",
        std::process::id(),
        case.name
    ));
    let store = store.to_string_lossy().into_owned();
    let _ = std::fs::remove_dir_all(&store);
    let mut lines: Vec<String> = steps.iter().map(|s| s.line.clone()).collect();
    lines.push(Json::from_iter([("op", Json::from("stats"))]).to_string());
    let mut responses = session(&bundle, &store, &lines);
    let fallbacks = certain_fallbacks(&responses.pop().expect("the stats response"));
    assert_eq!(responses.len(), steps.len(), "{} seed {seed}", case.name);
    for (i, (step, got)) in steps.iter().zip(&responses).enumerate() {
        for (key, want) in &step.expect {
            assert_eq!(
                got.try_get(key),
                Some(want),
                "{} seed {seed}, request {i} {}: {got:?}",
                case.name,
                step.line
            );
        }
    }
    // A restart rebuilds the cache from the recovered store.
    let solve = Json::from_iter([("op", Json::from("solve"))]).to_string();
    let after = session(&bundle, &store, &[solve]);
    assert_eq!(
        after[0].try_get("result"),
        Some(&batch_solve(&bundle, &replica)),
        "{} seed {seed} after restart",
        case.name
    );
    let _ = std::fs::remove_dir_all(&store);
    let results: Vec<&str> = (responses.iter())
        .filter_map(|r| match r.try_get("result") {
            Some(Json::Str(s)) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    let yes = results.iter().filter(|r| **r == "yes").count();
    let with_solution = (responses.iter())
        .filter(|r| r.try_get("op") == Some(&Json::from("certain")))
        .filter(|r| r.try_get("solution_exists") == Some(&Json::Bool(true)))
        .count();
    Tally {
        yes,
        no: results.len() - yes,
        flips: results.windows(2).filter(|w| w[0] != w[1]).count(),
        bounded: with_solution - fallbacks,
        fallbacks,
    }
}

#[test]
fn serve_agrees_with_batch_on_fixed_seeds() {
    let mut fallbacks = 0;
    for case in &CASES {
        let mut seen = Tally::default();
        for seed in [1, 2, 3] {
            seen.add(&check_case(case, seed, 60));
        }
        // The sequences must exercise both answers and the flips between,
        // and `certain` answered from the bounds.
        let counts = [seen.yes, seen.no, seen.flips, seen.bounded];
        assert!(counts.iter().all(|&n| n > 0), "{}: {counts:?}", case.name);
        fallbacks += seen.fallbacks;
    }
    // Some `certain` found its bounds apart and enumerated.
    assert!(fallbacks > 0);
}

#[test]
fn block_joining_script_answers_yes_no_yes() {
    let bundle = Bundle::parse(JOINING).unwrap();
    let store = std::env::temp_dir().join(format!("pde-serve-joining-{}", std::process::id()));
    let store = store.to_string_lossy().into_owned();
    let _ = std::fs::remove_dir_all(&store);
    let lines = [
        r#"{"op":"solve"}"#,
        r#"{"op":"insert","facts":"R(s1, z)."}"#,
        r#"{"op":"solve"}"#,
        r#"{"op":"insert","facts":"Q(c, z)."}"#,
        r#"{"op":"solve"}"#,
    ]
    .map(str::to_owned);
    let responses = session(&bundle, &store, &lines);
    // `R(s1, z)` adds `Q(y, z)` to the block of the `S(s1)` null, which
    // then fails; `Q(c, z)` makes that previously failed block map.
    let results: Vec<_> = [0, 2, 4]
        .iter()
        .map(|&i| responses[i].get_str("result").unwrap())
        .collect();
    assert_eq!(results, ["yes", "no", "yes"]);
    let _ = std::fs::remove_dir_all(&store);
}

/// `E(x) -> exists y . H(x, y)` and `H(x, y) -> F(x, y)`: `J_can` is
/// `H(a, ⊥)`, so `q(x, y) :- H(x, y)` has no ground answer there (the
/// lower bound), while the witness maps `⊥` onto an `F` partner of `a`
/// (the upper bound). Projecting `y` away makes the bounds meet.
const WITNESSED: &str = "
%schema
source E/1; source F/2; target H/2
%st
E(x) -> exists y . H(x, y)
%ts
H(x, y) -> F(x, y)
%t
%instance
E(a). F(a, b).
";

#[test]
fn differing_bounds_fall_back_and_meeting_bounds_do_not() {
    let bundle = Bundle::parse(WITNESSED).unwrap();
    let store = std::env::temp_dir().join(format!("pde-serve-bounds-{}", std::process::id()));
    let store = store.to_string_lossy().into_owned();
    let _ = std::fs::remove_dir_all(&store);
    let certain = |query: &str| {
        Json::from_iter([("op", "certain".into()), ("query", query.into())]).to_string()
    };
    let stats = Json::from_iter([("op", Json::from("stats"))]).to_string();
    let lines = [
        certain("q(x, y) :- H(x, y)"),
        stats.clone(),
        r#"{"op":"insert","facts":"F(a, c)."}"#.to_owned(),
        certain("q(x, y) :- H(x, y)"),
        stats.clone(),
        certain("q(x) :- H(x, y)"),
        stats,
    ];
    let responses = session(&bundle, &store, &lines);
    let answers = |i: usize| responses[i].try_get("answers").map(ToString::to_string);
    // Only `F(a, b)`: every solution holds `H(a, b)`.
    assert_eq!(answers(0).as_deref(), Some(r#"[["a","b"]]"#));
    assert_eq!(certain_fallbacks(&responses[1]), 1);
    // `H(a, b)` and `H(a, c)` are both solutions: nothing is certain.
    assert_eq!(answers(3).as_deref(), Some("[]"));
    assert_eq!(certain_fallbacks(&responses[4]), 2);
    // `a` is an answer over `J_can` already: the bounds decide.
    assert_eq!(answers(5).as_deref(), Some(r#"[["a"]]"#));
    assert_eq!(
        responses[5].try_get("solutions_examined"),
        Some(&Json::from(1u32))
    );
    assert_eq!(certain_fallbacks(&responses[6]), 2);
    // Each matches the batch answer on the final base.
    let mut replica = bundle.input.clone();
    let added = parse_instance(bundle.setting.schema(), "F(a, c).").unwrap();
    for (rel, t) in added.facts() {
        replica.insert(rel, t);
    }
    for (i, query) in [(3, "q(x, y) :- H(x, y)"), (5, "q(x) :- H(x, y)")] {
        for (key, want) in batch_certain(&bundle, &replica, query) {
            assert_eq!(responses[i].try_get(key), Some(&want), "{query}");
        }
    }
    let _ = std::fs::remove_dir_all(&store);
}

/// A query over a source relation, or mixing source and target atoms, is
/// refused exactly as batch `certain_answers` refuses it, whether `J_can`
/// is ground (genomics), has nulls (witnessed) or no solution exists
/// (genomics after a rogue insert), and before the cache is built.
#[test]
fn queries_off_the_target_schema_are_refused_as_batch_refuses_them() {
    let rogue = r#"{"op":"insert","facts":"u_protein(P7, org2)."}"#;
    let sessions = [
        (GENOMICS, "q(a, o) :- sp_protein(a, n, o)", None),
        (
            GENOMICS,
            "q(a) :- u_protein(a, o), sp_annotation(a, g)",
            None,
        ),
        (GENOMICS, "q(a, o) :- sp_protein(a, n, o)", Some(rogue)),
        (WITNESSED, "q(x) :- E(x)", None),
        (WITNESSED, "q(x, y) :- E(x), H(x, y)", None),
    ];
    for (i, (text, query, insert)) in sessions.into_iter().enumerate() {
        let bundle = Bundle::parse(text).unwrap();
        let q: UnionQuery = parse_query(bundle.setting.schema(), query).unwrap().into();
        let mut replica = bundle.input.clone();
        let mut lines = Vec::new();
        if let Some(insert) = insert {
            lines.push(insert.to_owned());
            let added = parse_instance(bundle.setting.schema(), "u_protein(P7, org2).").unwrap();
            for (rel, t) in added.facts() {
                replica.insert(rel, t);
            }
        }
        let batch = certain_answers(&bundle.setting, &replica, &q, GenericLimits::default())
            .expect_err("batch refuses the query")
            .to_string();
        let certain = Json::from_iter([("op", "certain".into()), ("query", query.into())]);
        lines.push(certain.to_string());
        lines.push(r#"{"op":"stats"}"#.to_owned());
        let store = std::env::temp_dir().join(format!("pde-serve-off-{}-{i}", std::process::id()));
        let store = store.to_string_lossy().into_owned();
        let _ = std::fs::remove_dir_all(&store);
        let responses = session(&bundle, &store, &lines);
        let (answer, stats) = (&responses[lines.len() - 2], &responses[lines.len() - 1]);
        assert_eq!(answer.try_get("ok"), Some(&Json::Bool(false)), "{query}");
        assert_eq!(answer.try_get("error"), Some(&Json::from(batch)), "{query}");
        assert_eq!(counter(stats, "serve.full_rechases"), 0, "{query}");
        let _ = std::fs::remove_dir_all(&store);
    }
}

#[test]
#[ignore = "soak: many seeds; run with --release -- --ignored"]
fn serve_agrees_with_batch_soak() {
    for case in &CASES {
        for seed in 100..200 {
            let _ = check_case(case, seed, 120);
        }
    }
}
