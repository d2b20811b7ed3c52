//! Theorem 3, live: deciding CLIQUE by deciding the existence of a
//! solution in a fixed peer data exchange setting.
//!
//! ```text
//! cargo run --release --example clique_reduction
//! ```
//!
//! Builds the (corrected) Theorem 3 setting, encodes graphs as source
//! instances, runs the complete solver, cross-checks against a direct
//! clique search, and shows the coNP-hard certain-answer variant with
//! `q = ∃x P(x,x,x,x)`.

use peer_data_exchange::core::assignment;
use peer_data_exchange::prelude::*;
use peer_data_exchange::workloads::clique::{
    certain_query, clique_instance, clique_instance_elements_from_v, clique_setting,
};
use std::time::Instant;

/// The Turán graph `T(n, r)` plus the edge `{0, r}` inside a part, which
/// closes an `(r + 1)`-clique.
fn turan_plus_edge(n: u32, r: u32) -> Graph {
    let mut g = Graph::turan(n, r);
    g.add_edge(0, r);
    g
}

fn main() {
    let setting = clique_setting();
    println!("Theorem 3 setting:\n{setting:?}");
    let class = setting.classification();
    println!(
        "C_tract: condition1 = {}, condition2.1 = {}, condition2.2 = {} ⇒ in C_tract = {}",
        class.ctract.holds1(),
        class.ctract.holds2_1(),
        class.ctract.holds2_2(),
        class.ctract.in_ctract()
    );
    for v in class.ctract.violations() {
        println!("  violation: {v}");
    }
    println!();

    let cases: Vec<(&str, Graph, u32)> = vec![
        ("K4, k=3", Graph::complete(4), 3),
        ("K4, k=4", Graph::complete(4), 4),
        ("C5, k=3", Graph::cycle(5), 3),
        ("K3,3, k=3", Graph::complete_bipartite(3, 3), 3),
        (
            "planted(8, 0.15, 4), k=4",
            Graph::planted_clique(8, 0.15, 4, 1),
            4,
        ),
        ("G(7, 0.3), k=3", Graph::gnp(7, 0.3, 3), 3),
        // The densest graph without a 4-clique, then one edge that closes
        // one: the "no" side searches the whole (propagated) tree.
        ("Turán T(8, 3), k=4", Graph::turan(8, 3), 4),
        ("T(8, 3) + edge {0, 3}, k=4", turan_plus_edge(8, 3), 4),
    ];

    println!(
        "{:<28} {:>8} {:>8} {:>10} {:>12}",
        "graph", "direct", "PDE", "nodes", "time"
    );
    for (label, g, k) in cases {
        let direct = has_k_clique(&g, k);
        let input = clique_instance(&setting, &g, k);
        let t = Instant::now();
        let out = assignment::solve(&setting, &input).expect("solver runs");
        let elapsed = t.elapsed();
        assert_eq!(out.exists, direct, "reduction must agree with the baseline");
        println!(
            "{label:<28} {direct:>8} {:>8} {:>10} {:>12?}",
            out.exists, out.stats.nodes, elapsed
        );
    }

    // The coNP-hard certain-answer variant.
    println!("\ncertain(∃x P(x,x,x,x)) — false iff the graph has a k-clique:");
    for (label, g, k) in [
        ("K3, k=3", Graph::complete(3), 3u32),
        ("P3, k=3", Graph::path(3), 3),
    ] {
        let input = clique_instance_elements_from_v(&setting, &g, k);
        let q = certain_query(&setting);
        let out = certain_answers(&setting, &input, &q, GenericLimits::default())
            .expect("certain answers computable");
        println!(
            "  {label:<12} solutions exist: {:<5} certain(q) = {:<5} (clique: {})",
            out.solution_exists,
            out.certain_bool(),
            has_k_clique(&g, k)
        );
    }
}
