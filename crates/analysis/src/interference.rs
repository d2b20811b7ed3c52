//! Static interference graph over a setting's forward dependencies.
//!
//! Nodes are the dependencies the data-exchange chase executes, in solve
//! order (Σst tgds first, then Σt — the same order
//! `solve_data_exchange_governed_scheduled` builds). Each node gets a read
//! set (its premise positions) and a write set (its conclusion positions);
//! an egd's merges can rewrite values anywhere a labeled null reaches, so
//! an egd conservatively writes *every* position of *every* target relation
//! (nulls never enter source relations: the chased input is ground and
//! forward tgds only insert into the target).
//!
//! An edge `i → j` means firing `i` can create or rewrite facts that `j`
//! reads, so `j` must be scheduled no earlier than `i`. The condensation
//! of this graph is what [`crate::schedule`] layers into strata.

use pde_constraints::{Dependency, Tgd};
use pde_core::setting::PdeSetting;
use pde_relational::{Peer, Position, Schema};
use std::collections::BTreeSet;

/// The relation positions one dependency reads and writes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DepFootprint {
    /// Positions matched by the premise.
    pub reads: BTreeSet<Position>,
    /// Positions the dependency can insert into or rewrite.
    pub writes: BTreeSet<Position>,
}

/// One interference edge: `from` writes `position`, which `to` reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterferenceEdge {
    /// The writing dependency.
    pub from: usize,
    /// The reading dependency.
    pub to: usize,
    /// The first overlapping position, as a witness (smallest in
    /// `Position` order).
    pub position: Position,
}

/// The interference graph over a forward dependency list.
#[derive(Clone, Debug, Default)]
pub struct InterferenceGraph {
    /// Per-dependency read/write sets, indexed like the dependency list.
    pub footprints: Vec<DepFootprint>,
    /// All write-read overlaps, ordered by `(from, to)`.
    pub edges: Vec<InterferenceEdge>,
}

impl InterferenceGraph {
    /// Number of dependencies (nodes).
    pub fn node_count(&self) -> usize {
        self.footprints.len()
    }

    /// Successor node indices of `i` (dependencies that read what `i`
    /// writes), in ascending order, including `i` itself for
    /// self-interfering (recursive) dependencies.
    pub fn successors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges.iter().filter(move |e| e.from == i).map(|e| e.to)
    }
}

/// The forward dependency list of `setting` in solve order: Σst tgds
/// wrapped as [`Dependency::Tgd`], then Σt verbatim. This matches the
/// order the data-exchange solver chases, so schedule indices line up
/// with chase `StepRecord::dep_index` values.
pub fn forward_dependencies(setting: &PdeSetting) -> Vec<Dependency> {
    setting
        .sigma_st()
        .iter()
        .cloned()
        .map(Dependency::Tgd)
        .chain(setting.sigma_t().iter().cloned())
        .collect()
}

/// Build the interference graph of `setting`'s forward dependencies.
pub fn interference_graph(setting: &PdeSetting) -> InterferenceGraph {
    interference_graph_of(setting.schema(), &forward_dependencies(setting))
}

/// [`interference_graph`] over an explicit dependency list.
pub fn interference_graph_of(schema: &Schema, deps: &[Dependency]) -> InterferenceGraph {
    let footprints: Vec<DepFootprint> = deps.iter().map(|d| footprint(schema, d)).collect();
    let mut edges = Vec::new();
    for (from, w) in footprints.iter().enumerate() {
        for (to, r) in footprints.iter().enumerate() {
            if let Some(&position) = w.writes.intersection(&r.reads).next() {
                edges.push(InterferenceEdge { from, to, position });
            }
        }
    }
    InterferenceGraph { footprints, edges }
}

fn footprint(schema: &Schema, dep: &Dependency) -> DepFootprint {
    let positions_of = |atoms: &[pde_relational::Atom]| {
        atoms
            .iter()
            .flat_map(|a| (0..a.terms.len()).map(move |i| Position::at(a.rel, i)))
            .collect::<BTreeSet<Position>>()
    };
    match dep {
        Dependency::Tgd(Tgd {
            premise,
            conclusion,
            ..
        }) => DepFootprint {
            reads: positions_of(&premise.atoms),
            writes: positions_of(&conclusion.atoms),
        },
        Dependency::Egd(egd) => {
            // A merge substitutes one value for another across the whole
            // instance; any target fact can be rewritten.
            let writes = schema
                .rel_ids()
                .filter(|&r| schema.peer(r) == Peer::Target)
                .flat_map(|r| (0..schema.arity(r) as usize).map(move |i| Position::at(r, i)))
                .collect();
            DepFootprint {
                reads: positions_of(&egd.premise.atoms),
                writes,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setting(st: &str, t: &str) -> PdeSetting {
        PdeSetting::parse("source E/2; source F/2; target H/2; target G/2;", st, "", t).unwrap()
    }

    #[test]
    fn tgd_footprint_is_premise_and_conclusion() {
        let p = setting("E(x, y) -> H(x, y)", "");
        let g = interference_graph(&p);
        let e = p.schema().rel_id("E").unwrap();
        let h = p.schema().rel_id("H").unwrap();
        assert_eq!(
            g.footprints[0].reads,
            [Position::at(e, 0), Position::at(e, 1)].into()
        );
        assert_eq!(
            g.footprints[0].writes,
            [Position::at(h, 0), Position::at(h, 1)].into()
        );
        assert!(g.edges.is_empty(), "source reads never overlap writes");
    }

    #[test]
    fn egd_writes_every_target_position() {
        let p = setting("E(x, y) -> H(x, y)", "H(x, y), H(x, z) -> y = z");
        let g = interference_graph(&p);
        let h = p.schema().rel_id("H").unwrap();
        let gid = p.schema().rel_id("G").unwrap();
        let egd = &g.footprints[1];
        for pos in [
            Position::at(h, 0),
            Position::at(h, 1),
            Position::at(gid, 0),
            Position::at(gid, 1),
        ] {
            assert!(egd.writes.contains(&pos), "{pos:?}");
        }
        // tgd writes H, egd reads H; egd writes H, so both edge directions
        // plus the egd's self-edge exist.
        let pairs: Vec<(usize, usize)> = g.edges.iter().map(|e| (e.from, e.to)).collect();
        assert_eq!(pairs, vec![(0, 1), (1, 1)]);
        assert_eq!(g.edges[0].position, Position::at(h, 0));
    }

    #[test]
    fn independent_tgds_have_no_edges() {
        let p = setting("E(x, y) -> H(x, y); F(x, y) -> G(x, y)", "");
        let g = interference_graph(&p);
        assert_eq!(g.node_count(), 2);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn recursive_tgd_has_a_self_edge() {
        let p = setting("E(x, y) -> H(x, y)", "H(x, y) -> H(y, x)");
        let g = interference_graph(&p);
        let pairs: Vec<(usize, usize)> = g.edges.iter().map(|e| (e.from, e.to)).collect();
        assert_eq!(pairs, vec![(0, 1), (1, 1)]);
        assert_eq!(g.successors(1).collect::<Vec<_>>(), vec![1]);
    }
}
