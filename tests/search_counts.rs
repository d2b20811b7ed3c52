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
//! The `#[ignore]`d test holds the n = 6, k = 3 egd-boundary pair that
//! sets the `search` workload's tail in `perfbench/`; run it in release:
//! `cargo test --release --test search_counts -- --ignored`.

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
    warm_interner();
    let p = boundary::egd_boundary_setting();
    check(&p, &boundary::egd_boundary_instance(&p, g, k), want);
}

fn full_tgd(g: &Graph, k: u32, want: Pinned) {
    warm_interner();
    let p = boundary::full_tgd_boundary_setting();
    check(&p, &boundary::full_tgd_boundary_instance(&p, g, k), want);
}

/// Intern the boundary settings' variables and every constant these tests
/// use, once, in a fixed order. Constants compare by interning index, and
/// the search branches over the active domain in that order, so without
/// this the counts would depend on which test interned what first.
fn warm_interner() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let _ = boundary::egd_boundary_setting();
        let _ = boundary::full_tgd_boundary_setting();
        for c in ["elem0", "elem1", "elem2"] {
            let _ = Value::constant(c);
        }
        for v in 0..6 {
            let _ = Value::constant(format!("v{v}"));
        }
    });
}

/// A 2-clique (an edge) exists: "yes".
#[test]
fn egd_boundary_path3_k2() {
    egd(
        &Graph::path(3),
        2,
        (
            (136, 6, 39, 84, 3),
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
            (210, 6, 51, 146, 3),
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
    egd(
        &Graph::path(3),
        3,
        ((49_886, 3097, 13_400, 32_640, 53), None),
    );
}

/// The k = 3 pair, "yes" side: the same path with the closing edge.
#[test]
fn egd_boundary_complete3_k3_yes() {
    egd(
        &Graph::complete(3),
        3,
        (
            (8140, 332, 2734, 4947, 7),
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
            (42, 0, 35, 0, 1),
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
    full_tgd(&Graph::cycle(5), 3, ((8197, 0, 7281, 0, 0), None));
}

/// The k = 3 pair, "no" side.
#[test]
fn full_tgd_boundary_path3_k3_no() {
    full_tgd(&Graph::path(3), 3, ((1305, 0, 1201, 0, 0), None));
}

/// The k = 3 pair, "yes" side.
#[test]
fn full_tgd_boundary_complete3_k3_yes() {
    full_tgd(
        &Graph::complete(3),
        3,
        (
            (487, 0, 432, 0, 1),
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

/// The n = 6, k = 3 egd-boundary pair of the `search` workload, inline.
/// `D` is the inequality on three elements; the "no" graph is the path
/// v1–v4–v3–v5 and the "yes" graph adds the edge v1–v3, which closes the
/// triangle v1, v3, v4. About a second in release at 13 µs per node.
#[test]
#[ignore = "release-sized: cargo test --release --test search_counts -- --ignored"]
fn egd_boundary_search_workload_pair() {
    warm_interner();
    let p = boundary::egd_boundary_setting();
    let no = parse_instance(
        p.schema(),
        "D(elem0, elem1). D(elem0, elem2). D(elem1, elem0). D(elem1, elem2). D(elem2, elem0). D(elem2, elem1).
         E(v1, v4). E(v4, v1). E(v3, v4). E(v4, v3). E(v3, v5). E(v5, v3).",
    )
    .unwrap();
    check(&p, &no, ((82_232, 3934, 18_951, 58_354, 65), None));
    let yes = parse_instance(
        p.schema(),
        "D(elem0, elem1). D(elem0, elem2). D(elem1, elem0). D(elem1, elem2). D(elem2, elem0). D(elem2, elem1).
         E(v1, v3). E(v3, v1). E(v1, v4). E(v4, v1). E(v3, v4). E(v4, v3). E(v3, v5). E(v5, v3).",
    )
    .unwrap();
    check(
        &p,
        &yes,
        (
            (11_205, 350, 3405, 7311, 7),
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
        ),
    );
}
