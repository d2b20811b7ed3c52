//! Graphs, generators, and direct baseline algorithms.
//!
//! The paper's lower bounds reduce CLIQUE and 3-COLORABILITY to peer data
//! exchange. To *validate* those reductions (not just run them), this
//! module provides the graph side: generators for the benchmark sweeps and
//! straightforward exact solvers — a k-clique backtracking search and a
//! 3-coloring search — used as ground truth in tests and as the "direct"
//! baselines in the experiment harness.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// An undirected simple graph (symmetric, irreflexive edge set) on
/// vertices `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    n: u32,
    edges: BTreeSet<(u32, u32)>,
}

impl Graph {
    /// The empty graph on `n` vertices.
    pub fn empty(n: u32) -> Graph {
        Graph {
            n,
            edges: BTreeSet::new(),
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> u32 {
        self.n
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add the undirected edge `{u, v}` (self-loops are rejected).
    ///
    /// # Panics
    /// Panics if `u == v` or either endpoint is out of range.
    pub fn add_edge(&mut self, u: u32, v: u32) {
        assert!(u != v, "simple graphs have no self-loops");
        assert!(u < self.n && v < self.n, "vertex out of range");
        self.edges.insert((u.min(v), u.max(v)));
    }

    /// Is `{u, v}` an edge?
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        u != v && self.edges.contains(&(u.min(v), u.max(v)))
    }

    /// Iterate over undirected edges as `(min, max)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.edges.iter().copied()
    }

    /// The neighbors of `u`.
    pub fn neighbors(&self, u: u32) -> Vec<u32> {
        (0..self.n).filter(|v| self.has_edge(u, *v)).collect()
    }

    /// Vertices sorted by decreasing degree (heuristic orderings).
    pub fn by_degree(&self) -> Vec<u32> {
        let mut vs: Vec<u32> = (0..self.n).collect();
        vs.sort_by_key(|v| std::cmp::Reverse(self.neighbors(*v).len()));
        vs
    }

    /// The complete graph `K_n`.
    pub fn complete(n: u32) -> Graph {
        let mut g = Graph::empty(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// The cycle `C_n` (n ≥ 3).
    pub fn cycle(n: u32) -> Graph {
        assert!(n >= 3, "cycles need at least 3 vertices");
        let mut g = Graph::empty(n);
        for u in 0..n {
            g.add_edge(u, (u + 1) % n);
        }
        g
    }

    /// The path `P_n` (n ≥ 2).
    pub fn path(n: u32) -> Graph {
        assert!(n >= 2, "paths need at least 2 vertices");
        let mut g = Graph::empty(n);
        for u in 0..n - 1 {
            g.add_edge(u, u + 1);
        }
        g
    }

    /// Erdős–Rényi `G(n, p)`, deterministic per seed.
    pub fn gnp(n: u32, p: f64, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::empty(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p.clamp(0.0, 1.0)) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// `G(n, p)` with a planted clique on `k` random vertices.
    pub fn planted_clique(n: u32, p: f64, k: u32, seed: u64) -> Graph {
        assert!(k <= n, "clique larger than graph");
        let mut g = Graph::gnp(n, p, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9e3779b97f4a7c15));
        let mut verts: Vec<u32> = (0..n).collect();
        // Fisher-Yates prefix shuffle.
        for i in 0..k as usize {
            let j = rng.gen_range(i..n as usize);
            verts.swap(i, j);
        }
        for i in 0..k as usize {
            for j in (i + 1)..k as usize {
                g.add_edge(verts[i], verts[j]);
            }
        }
        g
    }

    /// The complete bipartite graph `K_{a,b}` (triangle-free, 2-colorable).
    pub fn complete_bipartite(a: u32, b: u32) -> Graph {
        let mut g = Graph::empty(a + b);
        for u in 0..a {
            for v in a..a + b {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// The Turán graph `T(n, r)`: vertex `v` lies in part `v mod r`, and
    /// two vertices are adjacent iff their parts differ. It is the densest
    /// graph on `n` vertices without an `(r + 1)`-clique; one more edge
    /// inside a part, such as `{0, r}`, closes one.
    ///
    /// # Panics
    /// Panics if `r == 0`.
    pub fn turan(n: u32, r: u32) -> Graph {
        assert!(r > 0, "a Turán graph needs at least one part");
        let mut g = Graph::empty(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if u % r != v % r {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// Disjoint union of `count` cliques of size `size` each.
    pub fn disjoint_cliques(count: u32, size: u32) -> Graph {
        let mut g = Graph::empty(count * size);
        for c in 0..count {
            let base = c * size;
            for u in 0..size {
                for v in (u + 1)..size {
                    g.add_edge(base + u, base + v);
                }
            }
        }
        g
    }
}

/// Does `g` contain a clique of size `k`? Backtracking over candidate
/// extensions, pruning by remaining-candidate count.
pub fn has_k_clique(g: &Graph, k: u32) -> bool {
    if k == 0 {
        return true;
    }
    if k == 1 {
        return g.vertex_count() > 0;
    }
    let order = g.by_degree();
    let mut chosen: Vec<u32> = Vec::new();
    fn extend(g: &Graph, order: &[u32], from: usize, chosen: &mut Vec<u32>, k: u32) -> bool {
        if chosen.len() == k as usize {
            return true;
        }
        let need = k as usize - chosen.len();
        if order.len() - from < need {
            return false;
        }
        for i in from..order.len() {
            let v = order[i];
            if chosen.iter().all(|u| g.has_edge(*u, v)) {
                chosen.push(v);
                if extend(g, order, i + 1, chosen, k) {
                    return true;
                }
                chosen.pop();
            }
        }
        false
    }
    extend(g, &order, 0, &mut chosen, k)
}

/// A proper `k`-coloring of `g` (vertex → color in `0..k`), if one exists.
/// Backtracking in degree order.
pub fn k_coloring(g: &Graph, k: u32) -> Option<Vec<u32>> {
    let n = g.vertex_count() as usize;
    let order = g.by_degree();
    let mut colors: Vec<Option<u32>> = vec![None; n];
    fn go(g: &Graph, order: &[u32], pos: usize, k: u32, colors: &mut Vec<Option<u32>>) -> bool {
        if pos == order.len() {
            return true;
        }
        let v = order[pos];
        for c in 0..k {
            if g.neighbors(v)
                .iter()
                .all(|u| colors[*u as usize] != Some(c))
            {
                colors[v as usize] = Some(c);
                if go(g, order, pos + 1, k, colors) {
                    return true;
                }
                colors[v as usize] = None;
            }
        }
        false
    }
    if go(g, &order, 0, k, &mut colors) {
        Some(
            colors
                .into_iter()
                .map(|c| c.expect("all colored"))
                .collect(),
        )
    } else {
        None
    }
}

/// Is `g` 3-colorable?
pub fn is_three_colorable(g: &Graph) -> bool {
    k_coloring(g, 3).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_expected_sizes() {
        assert_eq!(Graph::complete(5).edge_count(), 10);
        assert_eq!(Graph::cycle(5).edge_count(), 5);
        assert_eq!(Graph::path(5).edge_count(), 4);
        assert_eq!(Graph::complete_bipartite(2, 3).edge_count(), 6);
        assert_eq!(Graph::disjoint_cliques(3, 4).edge_count(), 18);
    }

    #[test]
    fn edges_are_symmetric_and_irreflexive() {
        let g = Graph::cycle(4);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    #[should_panic(expected = "no self-loops")]
    fn self_loops_rejected() {
        Graph::empty(3).add_edge(1, 1);
    }

    #[test]
    fn gnp_is_deterministic_per_seed() {
        let a = Graph::gnp(20, 0.3, 7);
        let b = Graph::gnp(20, 0.3, 7);
        let c = Graph::gnp(20, 0.3, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn clique_detection_on_known_graphs() {
        assert!(has_k_clique(&Graph::complete(5), 5));
        assert!(!has_k_clique(&Graph::complete(4), 5));
        assert!(has_k_clique(&Graph::cycle(5), 2));
        assert!(!has_k_clique(&Graph::cycle(5), 3));
        assert!(!has_k_clique(&Graph::complete_bipartite(3, 3), 3));
        assert!(has_k_clique(&Graph::empty(3), 1));
        assert!(!has_k_clique(&Graph::empty(0), 1));
        assert!(has_k_clique(&Graph::empty(0), 0));
    }

    #[test]
    fn planted_clique_is_found() {
        for seed in 0..5 {
            let g = Graph::planted_clique(20, 0.1, 5, seed);
            assert!(has_k_clique(&g, 5), "seed {seed}");
        }
    }

    #[test]
    fn coloring_on_known_graphs() {
        assert!(is_three_colorable(&Graph::cycle(4)));
        assert!(is_three_colorable(&Graph::cycle(5))); // odd cycles need 3
        assert!(is_three_colorable(&Graph::complete(3)));
        assert!(!is_three_colorable(&Graph::complete(4)));
        assert!(is_three_colorable(&Graph::complete_bipartite(4, 4)));
        assert!(is_three_colorable(&Graph::path(10)));
    }

    #[test]
    fn colorings_are_proper() {
        let g = Graph::gnp(12, 0.25, 3);
        if let Some(c) = k_coloring(&g, 3) {
            for (u, v) in g.edges() {
                assert_ne!(c[u as usize], c[v as usize]);
            }
        }
    }

    /// The Turán number `t(n, r)`: with `s = n mod r`, the parts are `s`
    /// of size `⌈n/r⌉` and `r - s` of size `⌊n/r⌋`.
    fn turan_number(n: u32, r: u32) -> usize {
        let (q, s) = ((n / r) as usize, (n % r) as usize);
        let n = n as usize;
        let squares = s * (q + 1) * (q + 1) + (r as usize - s) * q * q;
        (n * n - squares) / 2
    }

    #[test]
    fn turan_graphs_are_extremal() {
        assert_eq!(turan_number(8, 2), 16);
        assert_eq!(turan_number(8, 3), 21);
        for (n, r) in [(8, 2), (8, 3), (7, 3), (6, 4), (5, 2), (9, 3)] {
            let g = Graph::turan(n, r);
            assert_eq!(g.edge_count(), turan_number(n, r), "T({n}, {r})");
            assert!(has_k_clique(&g, r), "T({n}, {r}) has an {r}-clique");
            assert!(!has_k_clique(&g, r + 1), "T({n}, {r})");
            let mut closed = g.clone();
            closed.add_edge(0, r);
            assert!(has_k_clique(&closed, r + 1), "T({n}, {r}) plus an edge");
        }
    }

    #[test]
    fn disjoint_cliques_clique_number() {
        let g = Graph::disjoint_cliques(2, 4);
        assert!(has_k_clique(&g, 4));
        assert!(!has_k_clique(&g, 5));
    }
}
