//! Exact search counts of the null-assignment search (`assignment`).
//!
//! The Theorem 3 reduction encodes CLIQUE and the §4 disjunctive boundary
//! encodes 3-COL, so the search tree is exponential by design; what may
//! change from one implementation to the next is the pruning and the
//! order. These tests pin the whole tree: the `SearchStats` of each run,
//! the rendered witness of every "yes" and the number of solutions the
//! certain-answer enumeration examined. A change to the pruning or to the
//! order in which nulls and values are tried shows up here as a changed
//! count even when every answer stays right.

use peer_data_exchange::core::{assignment, certain_answers, GenericLimits, SearchStats};
use peer_data_exchange::prelude::*;
use peer_data_exchange::relational::render_instance;
use peer_data_exchange::workloads::{clique, threecol};

/// `(nodes, prunes, forward_drops, candidates_checked, null_count,
/// jcan_facts)`.
type Counts = (usize, usize, usize, usize, usize, usize);

fn counts(s: &SearchStats) -> Counts {
    (
        s.nodes,
        s.prunes,
        s.forward_drops,
        s.candidates_checked,
        s.null_count,
        s.jcan_facts,
    )
}

/// The target facts of a witness, rendered (its source part is the input).
fn target_facts(w: &Instance) -> String {
    render_instance(&w.restrict(Peer::Target))
}

/// The Turán graph `T(n, r)`, plus (`close`) the edge `{0, r}` inside a
/// part, which closes an `(r + 1)`-clique.
fn turan(n: u32, r: u32, close: bool) -> Graph {
    let mut g = Graph::turan(n, r);
    if close {
        g.add_edge(0, r);
    }
    g
}

/// Solve the Theorem 3 instance `I(g, k)`; check the answer against the
/// direct clique search, the counts and the rendered witness.
fn clique_case(g: &Graph, k: u32, want: Counts, witness: Option<&str>) {
    let p = clique::clique_setting();
    let input = clique::clique_instance(&p, g, k);
    let out = assignment::solve(&p, &input).unwrap();
    assert_eq!(out.exists, has_k_clique(g, k), "answer");
    assert_eq!(counts(&out.stats), want, "search counts");
    assert_eq!(
        out.witness.as_ref().map(target_facts).as_deref(),
        witness,
        "witness"
    );
}

/// The certain answer of `∃x P(x, x, x, x)` on the coNP variant of the
/// instance, and how many solutions the enumeration examined.
fn certain_case(g: &Graph, k: u32, want_examined: usize) {
    let p = clique::clique_setting();
    let input = clique::clique_instance_elements_from_v(&p, g, k);
    let q = clique::certain_query(&p);
    let out = certain_answers(&p, &input, &q, GenericLimits::default()).unwrap();
    assert_eq!(out.certain_bool(), !has_k_clique(g, k), "answer");
    assert_eq!(out.solutions_examined, want_examined, "solutions examined");
}

/// Solve the 3-COL instance of `g`; check the answer against the direct
/// coloring search, the counts and the rendered witness.
fn threecol_case(g: &Graph, want: Counts, witness: Option<&str>) {
    let p = threecol::threecol_problem();
    let input = threecol::threecol_instance(&p, g);
    let out = assignment::solve_disjunctive(&p, &input).unwrap();
    assert_eq!(out.exists, is_three_colorable(g), "answer");
    assert_eq!(counts(&out.stats), want, "search counts");
    assert_eq!(
        out.witness.as_ref().map(target_facts).as_deref(),
        witness,
        "witness"
    );
}

/// T(8, 2) is bipartite: no triangle, the whole tree is searched.
#[test]
fn turan_8_2_k3_no() {
    clique_case(&turan(8, 2, false), 3, (161, 128, 1992, 0, 12, 6), None);
}

/// One edge inside a part closes a triangle.
#[test]
fn turan_8_2_plus_edge_k3_yes() {
    clique_case(
        &turan(8, 2, true),
        3,
        (13, 1, 75, 1, 12, 6),
        Some(
            "P(elem0, v0, elem1, v1).
P(elem1, v1, elem0, v0).
P(elem1, v1, elem2, v2).
P(elem2, v2, elem0, v0).
P(elem0, v0, elem2, v2).
P(elem2, v2, elem1, v1).
",
        ),
    );
}

/// A path on eight vertices has no 4-clique.
#[test]
fn path_8_k4_no() {
    clique_case(&Graph::path(8), 4, (123, 24, 1568, 0, 24, 12), None);
}

/// T(8, 3) has no 4-clique. Before the search propagated, this tree had
/// 576,081 nodes and 4,032,568 prunes (~9 s in a release build), too slow
/// for a debug test run.
#[test]
fn turan_8_3_k4_no() {
    clique_case(&turan(8, 3, false), 4, (949, 642, 13492, 0, 24, 12), None);
}

/// No solution: the certain answer is vacuously true.
#[test]
fn certain_turan_8_2_k3() {
    certain_case(&turan(8, 2, false), 3, 0);
}

/// A solution maps no element to all four positions' one value.
#[test]
fn certain_turan_8_2_plus_edge_k3() {
    certain_case(&turan(8, 2, true), 3, 1);
}

/// The 5-cycle is 3-colorable.
#[test]
fn threecol_cycle5_yes() {
    threecol_case(
        &Graph::cycle(5),
        (6, 1, 38, 1, 5, 15),
        Some(
            "E2(v0, v1).
E2(v1, v0).
E2(v0, v4).
E2(v4, v0).
E2(v1, v2).
E2(v2, v1).
E2(v2, v3).
E2(v3, v2).
E2(v3, v4).
E2(v4, v3).
C(v0, colb).
C(v1, colg).
C(v4, colg).
C(v2, colb).
C(v3, colr).
",
        ),
    );
}

/// K4 is not.
#[test]
fn threecol_k4_no() {
    threecol_case(&Graph::complete(4), (10, 11, 112, 0, 4, 16), None);
}
