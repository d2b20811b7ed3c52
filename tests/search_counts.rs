//! Exact search counts of the witness-chase search (`generic`).
//!
//! The §4 boundary settings encode CLIQUE, so the search tree is
//! exponential by design; what may change from one implementation of a
//! node to the next is only its cost. These tests pin the whole tree: the
//! full `GenericStats` of each run and the rendered witness of every "yes".
//! A change to the search's pick order (which egd violation merges first,
//! which trigger branches first, how the memo key names nulls) shows up
//! here as a changed count even when every answer stays right.
//!
//! The tree depends on the bundle only, not on the order in which the
//! process interned its constants: both searches branch over constants in
//! name order. `workload_pair_ignores_interning_order` checks this.

use peer_data_exchange::core::{generic, GenericLimits, GenericStats, PdeSetting};
use peer_data_exchange::prelude::*;
use peer_data_exchange::relational::render_instance;
use peer_data_exchange::workloads::boundary;

/// One run's counts and witness, as `(nodes, memo_hits, ts_prunes,
/// egd_failures, candidates_checked)` plus the rendered witness (`None`
/// for a "no").
type Pinned = ((usize, usize, usize, usize, usize), Option<&'static str>);

fn counts(s: &GenericStats) -> (usize, usize, usize, usize, usize) {
    (
        s.nodes,
        s.memo_hits,
        s.ts_prunes,
        s.egd_failures,
        s.candidates_checked,
    )
}

fn check(setting: &PdeSetting, input: &Instance, want: Pinned) {
    let out = generic::solve(setting, input, GenericLimits::default()).unwrap();
    let witness = out.witness().map(render_instance);
    assert_eq!(counts(out.stats()), want.0, "search counts");
    assert_eq!(witness.as_deref(), want.1, "witness");
    assert_eq!(out.decided(), Some(want.1.is_some()), "answer");
}

fn egd(g: &Graph, k: u32, want: Pinned) {
    let p = boundary::egd_boundary_setting();
    check(&p, &boundary::egd_boundary_instance(&p, g, k), want);
}

fn full_tgd(g: &Graph, k: u32, want: Pinned) {
    let p = boundary::full_tgd_boundary_setting();
    check(&p, &boundary::full_tgd_boundary_instance(&p, g, k), want);
}

/// A 2-clique (an edge) exists: "yes".
#[test]
fn egd_boundary_path3_k2() {
    egd(
        &Graph::path(3),
        2,
        (
            (7, 0, 1, 3, 1),
            Some(
                "D(elem0, elem1).
D(elem1, elem0).
E(v0, v1).
E(v1, v0).
E(v1, v2).
E(v2, v1).
P(elem0, v1, elem1, v0).
P(elem1, v0, elem0, v1).
",
            ),
        ),
    );
}

/// A 2-clique on the 5-cycle: "yes".
#[test]
fn egd_boundary_cycle5_k2() {
    egd(
        &Graph::cycle(5),
        2,
        (
            (9, 0, 1, 5, 1),
            Some(
                "D(elem0, elem1).
D(elem1, elem0).
E(v0, v1).
E(v1, v0).
E(v0, v4).
E(v4, v0).
E(v1, v2).
E(v2, v1).
E(v2, v3).
E(v3, v2).
E(v3, v4).
E(v4, v3).
P(elem0, v1, elem1, v0).
P(elem1, v0, elem0, v1).
",
            ),
        ),
    );
}

/// The k = 3 pair, "no" side: the path on three vertices has no triangle.
#[test]
fn egd_boundary_path3_k3_no() {
    egd(&Graph::path(3), 3, ((226, 0, 21, 180, 0), None));
}

/// The k = 3 pair, "yes" side: the same path with the closing edge.
#[test]
fn egd_boundary_complete3_k3_yes() {
    egd(
        &Graph::complete(3),
        3,
        (
            (76, 0, 4, 60, 1),
            Some(
                "D(elem0, elem1).
D(elem0, elem2).
D(elem1, elem0).
D(elem1, elem2).
D(elem2, elem0).
D(elem2, elem1).
E(v0, v1).
E(v1, v0).
E(v0, v2).
E(v2, v0).
E(v1, v2).
E(v2, v1).
P(elem0, v1, elem1, v0).
P(elem0, v1, elem2, v2).
P(elem1, v0, elem0, v1).
P(elem1, v0, elem2, v2).
P(elem2, v2, elem0, v1).
P(elem2, v2, elem1, v0).
",
            ),
        ),
    );
}

/// A 2-clique (an edge) exists: "yes".
#[test]
fn full_tgd_boundary_path3_k2() {
    full_tgd(
        &Graph::path(3),
        2,
        (
            (11, 0, 4, 0, 1),
            Some(
                "D(elem0, elem1).
D(elem1, elem0).
S(v0, v0).
S(v1, v1).
S(v2, v2).
E(v0, v1).
E(v1, v0).
E(v1, v2).
E(v2, v1).
P(elem0, v1, elem1, v0).
P(elem1, v0, elem0, v1).
S2(v0, v0).
S2(v1, v1).
S2(v2, v2).
",
            ),
        ),
    );
}

/// The 5-cycle has no triangle: "no".
#[test]
fn full_tgd_boundary_cycle5_k3() {
    full_tgd(&Graph::cycle(5), 3, ((3101, 0, 2185, 0, 0), None));
}

/// The k = 3 pair, "no" side.
#[test]
fn full_tgd_boundary_path3_k3_no() {
    full_tgd(&Graph::path(3), 3, ((305, 0, 201, 0, 0), None));
}

/// The k = 3 pair, "yes" side.
#[test]
fn full_tgd_boundary_complete3_k3_yes() {
    full_tgd(
        &Graph::complete(3),
        3,
        (
            (119, 0, 64, 0, 1),
            Some(
                "D(elem0, elem1).
D(elem0, elem2).
D(elem1, elem0).
D(elem1, elem2).
D(elem2, elem0).
D(elem2, elem1).
S(v0, v0).
S(v1, v1).
S(v2, v2).
E(v0, v1).
E(v1, v0).
E(v0, v2).
E(v2, v0).
E(v1, v2).
E(v2, v1).
P(elem0, v1, elem1, v0).
P(elem0, v1, elem2, v2).
P(elem1, v0, elem0, v1).
P(elem1, v0, elem2, v2).
P(elem2, v2, elem0, v1).
P(elem2, v2, elem1, v0).
S2(v0, v0).
S2(v1, v1).
S2(v2, v2).
",
            ),
        ),
    );
}

/// The n = 6, k = 3 egd-boundary pair of the `search` workload, with
/// every constant prefixed by `prefix`. `D` is the inequality on three
/// elements; the "no" graph is the path v1–v4–v3–v5 and the "yes" graph
/// adds the edge v1–v3, which closes the triangle v1, v3, v4.
fn workload_pair(p: &PdeSetting, prefix: &str) -> (Instance, Instance) {
    let d: String = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        .iter()
        .map(|(a, b)| format!("D({prefix}elem{a}, {prefix}elem{b}). "))
        .collect();
    let e = |edges: &[(u32, u32)]| -> String {
        edges
            .iter()
            .map(|(a, b)| format!("E({prefix}v{a}, {prefix}v{b}). E({prefix}v{b}, {prefix}v{a}). "))
            .collect()
    };
    let no = [(1, 4), (3, 4), (3, 5)];
    let yes = [(1, 3), (1, 4), (3, 4), (3, 5)];
    let parse = |text: String| parse_instance(p.schema(), &text).unwrap();
    (parse(d.clone() + &e(&no)), parse(d + &e(&yes)))
}

/// The "no" side's counts.
const PAIR_NO: Pinned = ((689, 0, 48, 598, 0), None);

/// The "yes" side's counts and witness.
const PAIR_YES: Pinned = (
    (117, 0, 5, 100, 1),
    Some(
        "D(elem0, elem1).
D(elem0, elem2).
D(elem1, elem0).
D(elem1, elem2).
D(elem2, elem0).
D(elem2, elem1).
E(v1, v3).
E(v3, v1).
E(v1, v4).
E(v4, v1).
E(v3, v4).
E(v4, v3).
E(v3, v5).
E(v5, v3).
P(elem0, v3, elem1, v1).
P(elem0, v3, elem2, v4).
P(elem1, v1, elem0, v3).
P(elem1, v1, elem2, v4).
P(elem2, v4, elem0, v3).
P(elem2, v4, elem1, v1).
",
    ),
);

/// The `search` workload's egd-boundary pair.
#[test]
fn egd_boundary_search_workload_pair() {
    let p = boundary::egd_boundary_setting();
    let (no, yes) = workload_pair(&p, "");
    check(&p, &no, PAIR_NO);
    check(&p, &yes, PAIR_YES);
}

/// With its constants interned in reverse name order before anything
/// else names them, the pair gives the same counts and, once the prefix
/// is stripped, the same witness.
#[test]
fn workload_pair_ignores_interning_order() {
    let names: Vec<String> = (0..3)
        .map(|i| format!("q_elem{i}"))
        .chain((0..6).map(|v| format!("q_v{v}")))
        .collect();
    for name in names.iter().rev() {
        let _ = Value::constant(name.as_str());
    }
    let p = boundary::egd_boundary_setting();
    let (no, yes) = workload_pair(&p, "q_");
    for (input, want) in [(no, PAIR_NO), (yes, PAIR_YES)] {
        let out = generic::solve(&p, &input, GenericLimits::default()).unwrap();
        assert_eq!(counts(out.stats()), want.0, "search counts");
        let witness = out.witness().map(|w| render_instance(w).replace("q_", ""));
        assert_eq!(witness.as_deref(), want.1, "witness");
    }
}
