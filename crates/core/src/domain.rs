//! Column domains: the values a solution can hold at a target position.
//!
//! Σts conclusions range over the fixed, ground source instance `I`. Take
//! a Σts dependency with one disjunct whose premise is the single atom
//! `R(x̄)`, of pairwise distinct variables and no constants. Every
//! `R`-fact of a solution matches that premise, so its value at position
//! `i` is a constant of `π_j(S^I)` for every conclusion position `(S, j)`
//! that holds `x_i`. The *column domain* of `(R, i)` is the intersection
//! of these projections, over every dependency of that shape.
//!
//! Every other shape leaves the position unconstrained. A repeated
//! variable or a constant lets a fact miss the premise; with two premise
//! atoms a fact need not join; with several disjuncts (the 3-COL boundary
//! of §4) another disjunct can hold instead.
//!
//! Both NP-side searches branch a value at a constrained position only
//! over its domain (`generic` for existentials, `assignment` for the nulls
//! of `J_can`); their module docs give the completeness argument.

use pde_constraints::DisjunctiveTgd;
use pde_relational::{Atom, Conjunction, FxBuildHasher, Instance, RelId, Term, Value};
use std::collections::{HashMap, HashSet};

/// A target position: a relation and a column.
pub type Position = (RelId, usize);

type ValueSet = HashSet<Value, FxBuildHasher>;

/// The column domains of a set of target positions; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct ColumnDomains {
    /// Each constrained position asked for, with its domain in name order.
    domains: HashMap<Position, Vec<Value>, FxBuildHasher>,
}

impl ColumnDomains {
    /// The domain of `pos` in name order, or `None` when `pos` is
    /// unconstrained (or was not asked for).
    pub fn of(&self, pos: Position) -> Option<&[Value]> {
        self.domains.get(&pos).map(Vec::as_slice)
    }

    /// The domain of a value that occurs at every position of `positions`:
    /// the intersection of the constrained ones' domains, in name order.
    /// `None` when none of them is constrained.
    pub fn meet(&self, positions: impl IntoIterator<Item = Position>) -> Option<Vec<Value>> {
        let mut doms = positions.into_iter().filter_map(|p| self.of(p));
        let mut out = doms.next()?.to_vec();
        for d in doms {
            let d: ValueSet = d.iter().copied().collect();
            out.retain(|v| d.contains(v));
        }
        Some(out)
    }
}

/// Derive the column domain of each position in `positions` from
/// `sigma_ts` and the source relations of the ground instance `source`.
/// Projections are computed only for what `positions` needs, once each.
pub fn column_domains(
    sigma_ts: &[DisjunctiveTgd],
    source: &Instance,
    positions: impl IntoIterator<Item = Position>,
) -> ColumnDomains {
    let mut projections: HashMap<Position, ValueSet, FxBuildHasher> = HashMap::default();
    let mut domains = ColumnDomains::default();
    for (rel, i) in positions {
        if domains.domains.contains_key(&(rel, i)) {
            continue;
        }
        let mut dom: Option<ValueSet> = None;
        for (premise, conclusion) in sigma_ts.iter().filter_map(constraining) {
            if premise.rel != rel {
                continue;
            }
            let Term::Var(x) = premise.terms[i] else {
                unreachable!("a constraining premise holds only variables")
            };
            for atom in &conclusion.atoms {
                for (j, _) in atom
                    .terms
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| **t == Term::Var(x))
                {
                    let p = projections
                        .entry((atom.rel, j))
                        .or_insert_with(|| project(source, atom.rel, j));
                    match &mut dom {
                        None => dom = Some(p.clone()),
                        Some(d) => d.retain(|v| p.contains(v)),
                    }
                }
            }
        }
        if let Some(d) = dom {
            domains.domains.insert((rel, i), by_name(d));
        }
    }
    domains
}

/// The premise atom and the conclusion of a dependency that constrains
/// the positions of its premise relation: one disjunct, one premise atom,
/// pairwise distinct variables and no constants.
fn constraining(d: &DisjunctiveTgd) -> Option<(&Atom, &Conjunction)> {
    let ([atom], [disjunct]) = (d.premise.atoms.as_slice(), d.disjuncts.as_slice()) else {
        return None;
    };
    let all_vars = atom.terms.iter().all(Term::is_var);
    (all_vars && !atom.has_any_repeated_var()).then_some((atom, &disjunct.conjunction))
}

/// `π_j(S^I)`: the distinct values of column `j` of `rel` in `source`.
fn project(source: &Instance, rel: RelId, j: usize) -> ValueSet {
    source.relation(rel).iter().map(|t| t.get(j)).collect()
}

/// The distinct constants of `values`, sorted by name: the order both
/// searches branch in, so their trees do not depend on the order in which
/// constants were interned.
pub(crate) fn by_name(values: impl IntoIterator<Item = Value>) -> Vec<Value> {
    let mut out: Vec<Value> = values.into_iter().collect();
    out.sort_by_cached_key(ToString::to_string);
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde_constraints::parse_disjunctive_tgd;
    use pde_relational::{parse_instance, parse_schema, Schema};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(
            parse_schema("source A/1; source B/1; source C/2; target R/2; target T/2;").unwrap(),
        )
    }

    /// The domains of `R`'s and `T`'s two positions under `ts`.
    fn domains(ts: &[&str]) -> Vec<Option<Vec<String>>> {
        let s = schema();
        let ts: Vec<DisjunctiveTgd> = ts
            .iter()
            .map(|d| parse_disjunctive_tgd(&s, d).unwrap())
            .collect();
        let source = parse_instance(&s, "A(a). A(b). B(b). B(c). C(a, c). C(d, b).").unwrap();
        let (r, t) = (s.rel_id("R").unwrap(), s.rel_id("T").unwrap());
        let all = [(r, 0), (r, 1), (t, 0), (t, 1)];
        let doms = column_domains(&ts, &source, all);
        all.iter()
            .map(|&p| {
                doms.of(p)
                    .map(|d| d.iter().map(ToString::to_string).collect())
            })
            .collect()
    }

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn a_one_atom_premise_of_distinct_variables_constrains_its_exported_positions() {
        // y reaches A's column: (R, 1) holds only a or b; x is not exported.
        assert_eq!(
            domains(&["R(x, y) -> A(y)"]),
            vec![None, Some(names(&["a", "b"])), None, None]
        );
        // Both columns exported, crosswise into C's two columns.
        assert_eq!(
            domains(&["T(x, y) -> C(y, x)"]),
            vec![
                None,
                None,
                Some(names(&["b", "c"])),
                Some(names(&["a", "d"]))
            ]
        );
    }

    #[test]
    fn a_variable_at_several_conclusion_positions_meets_their_projections() {
        // y in A and in B: only b is in both.
        assert_eq!(
            domains(&["R(x, y) -> A(y), B(y)"]),
            vec![None, Some(names(&["b"])), None, None]
        );
        // The same through two dependencies, and through C's first column.
        assert_eq!(
            domains(&["R(x, y) -> A(y)", "R(x, y) -> exists z . C(y, z)"]),
            vec![None, Some(names(&["a"])), None, None]
        );
    }

    #[test]
    fn other_premise_shapes_leave_every_position_unconstrained() {
        for d in [
            // A repeated variable: R(a, b) escapes the premise.
            "R(x, x) -> A(x)",
            // A constant: R(b, a) escapes the premise.
            "R('a', y) -> A(y)",
            // Two premise atoms: an R-fact need not join a T-fact.
            "R(x, y), T(y, z) -> A(y)",
            // Two disjuncts: B can hold where A does not.
            "R(x, y) -> A(y) | B(y)",
        ] {
            assert_eq!(domains(&[d]), vec![None; 4], "{d}");
        }
    }

    #[test]
    fn meet_intersects_the_constrained_positions_only() {
        let s = schema();
        let ts: Vec<DisjunctiveTgd> = ["R(x, y) -> A(y)", "T(x, y) -> B(x)"]
            .iter()
            .map(|d| parse_disjunctive_tgd(&s, d).unwrap())
            .collect();
        let source = parse_instance(&s, "A(a). A(b). B(b). B(c).").unwrap();
        let (r, t) = (s.rel_id("R").unwrap(), s.rel_id("T").unwrap());
        let doms = column_domains(&ts, &source, [(r, 0), (r, 1), (t, 0)]);
        assert_eq!(doms.meet([(r, 0)]), None);
        assert_eq!(
            doms.meet([(r, 1), (r, 0), (t, 0)]),
            Some(vec![Value::constant("b")])
        );
        assert_eq!(
            doms.meet([(r, 1), (t, 0), (t, 1)]),
            Some(vec![Value::constant("b")])
        );
        // A position not asked for is never computed.
        assert_eq!(doms.of((t, 1)), None);
    }

    #[test]
    fn domains_come_out_in_name_order() {
        let s = schema();
        let ts = [parse_disjunctive_tgd(&s, "R(x, y) -> A(y)").unwrap()];
        // Intern in reverse name order first.
        for c in ["dom_z", "dom_m", "dom_a"] {
            let _ = Value::constant(c);
        }
        let source = parse_instance(&s, "A(dom_m). A(dom_z). A(dom_a).").unwrap();
        let r = s.rel_id("R").unwrap();
        let d: Vec<String> = column_domains(&ts, &source, [(r, 1)])
            .of((r, 1))
            .unwrap()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(d, ["dom_a", "dom_m", "dom_z"]);
    }
}
