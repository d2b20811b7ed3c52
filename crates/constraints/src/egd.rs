//! Equality-generating dependencies (egds).
//!
//! An egd is a formula `∀x̄ (φ(x̄) → z1 = z2)` with `z1, z2` among `x̄`
//! (paper §2). In PDE settings egds appear only among the target
//! constraints Σt; functional dependencies are the standard special case.

use crate::tgd::DependencyError;
use pde_relational::{Conjunction, Instance, PairShape, Peer, Schema, Term, ValueId, Var};
use std::fmt;

/// An equality-generating dependency `∀x̄ (premise → lhs = rhs)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Egd {
    /// The premise conjunction (over the target schema).
    pub premise: Conjunction,
    /// Left side of the equated pair.
    pub lhs: Var,
    /// Right side of the equated pair.
    pub rhs: Var,
}

impl Egd {
    /// Build an egd.
    pub fn new(premise: Conjunction, lhs: Var, rhs: Var) -> Egd {
        Egd { premise, lhs, rhs }
    }

    /// Structural well-formedness: equated variables must occur in the
    /// premise, and every premise atom must be a target relation.
    pub fn validate(&self, schema: &Schema) -> Result<(), DependencyError> {
        if self.premise.is_empty() {
            return Err(DependencyError::EmptyPremise);
        }
        let vars = self.premise.variables();
        for v in [self.lhs, self.rhs] {
            if !vars.contains(&v) {
                return Err(DependencyError::EgdVarNotInPremise(v));
            }
        }
        for atom in &self.premise.atoms {
            if schema.peer(atom.rel) != Peer::Target {
                return Err(DependencyError::WrongPeer {
                    relation: schema.name(atom.rel).as_str(),
                    expected: Peer::Target,
                });
            }
        }
        Ok(())
    }

    /// Is this egd trivial (`x = x`)?
    pub fn is_trivial(&self) -> bool {
        self.lhs == self.rhs
    }

    /// The premise as a row-pair join ([`EgdPair`]) when it is two atoms
    /// of distinct variables (functional dependencies, the §4 consistency
    /// egd, joins of two relations). `None` for every other egd.
    pub fn pair_shape(&self) -> Option<EgdPair> {
        let atoms = &self.premise.atoms;
        let at = |v: Var| {
            atoms.iter().enumerate().find_map(|(i, a)| {
                let p = a.terms.iter().position(|t| *t == Term::Var(v))?;
                Some((i, u16::try_from(p).ok()?))
            })
        };
        Some(EgdPair {
            shape: PairShape::of(atoms)?,
            sides: [at(self.lhs)?, at(self.rhs)?],
        })
    }

    /// Render with relation names resolved against `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Egd, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(
                    f,
                    "{} -> {} = {}",
                    self.0.premise.display(self.1),
                    self.0.lhs,
                    self.0.rhs
                )
            }
        }
        D(self, schema)
    }
}

impl fmt::Debug for Egd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} -> {} = {}", self.premise, self.lhs, self.rhs)
    }
}

/// An egd premise as a row-pair join ([`Egd::pair_shape`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EgdPair {
    /// The premise's [`PairShape`].
    pub shape: PairShape,
    /// The `(atom, position)` of the first occurrence of `lhs` and of
    /// `rhs`.
    pub sides: [(usize, u16); 2],
}

impl EgdPair {
    /// The `(lhs, rhs)` value ids of the match `(r0, r1)`, a row pair of
    /// `inst` yielded for [`EgdPair::shape`].
    #[inline]
    pub fn equated(&self, inst: &Instance, r0: u32, r1: u32) -> (ValueId, ValueId) {
        let rows = [r0, r1];
        let at = |(a, p): (usize, u16)| inst.relation(self.shape.rels[a]).value_id_at(rows[a], p);
        (at(self.sides[0]), at(self.sides[1]))
    }
}

/// Build the functional dependency `R: determinant → dependent` as an egd.
///
/// Example: `functional_dependency(&schema, "P", &[0], 1)` states that the
/// first attribute of `P` determines the second.
///
/// # Panics
/// Panics if the relation is unknown or an attribute index is out of range.
pub fn functional_dependency(
    schema: &Schema,
    rel: &str,
    determinant: &[u16],
    dependent: u16,
) -> Egd {
    use pde_relational::Atom;
    let id = schema
        .rel_id(rel)
        .unwrap_or_else(|| panic!("unknown relation {rel}"));
    let arity = schema.arity(id);
    assert!(dependent < arity, "dependent attribute out of range");
    for d in determinant {
        assert!(*d < arity, "determinant attribute out of range");
    }
    // Two copies of R sharing the determinant attributes; all other
    // attributes get distinct variables, and the two copies of the
    // dependent attribute are equated.
    let var_for = |copy: usize, attr: u16| -> Var {
        if determinant.contains(&attr) {
            Var::new(format!("k{attr}"))
        } else {
            Var::new(format!("v{copy}_{attr}"))
        }
    };
    let atom = |copy: usize| -> Atom {
        Atom::new(
            schema,
            id,
            (0..arity).map(|a| Term::Var(var_for(copy, a))).collect(),
        )
    };
    Egd::new(
        Conjunction::new(vec![atom(0), atom(1)]),
        var_for(0, dependent),
        var_for(1, dependent),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde_relational::{parse_schema, Atom};

    fn schema() -> Schema {
        parse_schema("source E/2; target P/4; target H/2;").unwrap()
    }

    #[test]
    fn valid_egd() {
        let s = schema();
        let e = Egd::new(
            Conjunction::new(vec![
                Atom::vars(&s, "P", &["x", "z", "y", "w"]),
                Atom::vars(&s, "P", &["x", "z2", "y2", "w2"]),
            ]),
            Var::new("z"),
            Var::new("z2"),
        );
        assert!(e.validate(&s).is_ok());
        assert!(!e.is_trivial());
    }

    #[test]
    fn egd_var_must_be_in_premise() {
        let s = schema();
        let e = Egd::new(
            Conjunction::new(vec![Atom::vars(&s, "H", &["x", "y"])]),
            Var::new("x"),
            Var::new("q"),
        );
        assert_eq!(
            e.validate(&s),
            Err(DependencyError::EgdVarNotInPremise(Var::new("q")))
        );
    }

    #[test]
    fn egd_premise_must_be_target() {
        let s = schema();
        let e = Egd::new(
            Conjunction::new(vec![Atom::vars(&s, "E", &["x", "y"])]),
            Var::new("x"),
            Var::new("y"),
        );
        assert!(matches!(
            e.validate(&s),
            Err(DependencyError::WrongPeer { .. })
        ));
    }

    #[test]
    fn functional_dependency_builder() {
        let s = schema();
        let fd = functional_dependency(&s, "H", &[0], 1);
        assert!(fd.validate(&s).is_ok());
        assert_eq!(fd.premise.len(), 2);
        assert_ne!(fd.lhs, fd.rhs);
        // Key attribute shared between the two atoms.
        let a0 = &fd.premise.atoms[0];
        let a1 = &fd.premise.atoms[1];
        assert_eq!(a0.terms[0], a1.terms[0]);
        assert_ne!(a0.terms[1], a1.terms[1]);
    }

    #[test]
    fn pair_shape_locates_the_equated_variables() {
        let s = schema();
        let (p, h) = (s.rel_id("P").unwrap(), s.rel_id("H").unwrap());
        for (src, rels, joins, sides) in [
            // A key, in either atom order and orientation.
            (
                "P(x, z, y, w), P(x, z2, y2, w2) -> z = z2",
                [p, p],
                vec![(0, 0)],
                [(0, 1), (1, 1)],
            ),
            (
                "P(x, z, y, w), P(x, z2, y2, w2) -> z2 = z",
                [p, p],
                vec![(0, 0)],
                [(1, 1), (0, 1)],
            ),
            // The §4 boundary's consistency egd: `y` joins positions 2 and 0.
            (
                "P(x, z, y, w), P(y, z2, y2, w2) -> w = z2",
                [p, p],
                vec![(2, 0)],
                [(0, 3), (1, 1)],
            ),
            // A join of two relations, equating a join variable.
            (
                "P(x, z, y, w), H(w, x) -> x = z",
                [p, h],
                vec![(0, 1), (3, 0)],
                [(0, 0), (0, 1)],
            ),
            // No shared variable at all.
            (
                "P(x, z, y, w), P(x2, z2, y2, w2) -> z = z2",
                [p, p],
                vec![],
                [(0, 1), (1, 1)],
            ),
            // Trivial.
            (
                "P(x, z, y, w), P(x, z2, y2, w2) -> x = x",
                [p, p],
                vec![(0, 0)],
                [(0, 0), (0, 0)],
            ),
        ] {
            let e = crate::parse_egd(&s, src).unwrap();
            let shape = PairShape { rels, joins };
            assert_eq!(e.pair_shape(), Some(EgdPair { shape, sides }), "{src}");
        }
    }

    #[test]
    fn pair_shape_inverts_the_functional_dependency_builder() {
        let s = schema();
        let p = s.rel_id("P").unwrap();
        for mask in 1u16..16 {
            let determinant: Vec<u16> = (0..4).filter(|a| mask & (1 << a) != 0).collect();
            for dependent in 0..4 {
                let fd = functional_dependency(&s, "P", &determinant, dependent);
                let trivial = determinant.contains(&dependent);
                assert_eq!(fd.is_trivial(), trivial);
                let shape = |first: usize| {
                    let joins = determinant.iter().map(|&k| (k, k)).collect();
                    // A trivial egd equates one variable, first met in atom 0.
                    let sides = if trivial {
                        [(0, dependent), (0, dependent)]
                    } else {
                        [(first, dependent), (1 - first, dependent)]
                    };
                    let shape = PairShape {
                        rels: [p, p],
                        joins,
                    };
                    Some(EgdPair { shape, sides })
                };
                assert_eq!(fd.pair_shape(), shape(0));
                let mut swapped_atoms = fd.clone();
                swapped_atoms.premise.atoms.swap(0, 1);
                assert_eq!(swapped_atoms.pair_shape(), shape(1));
                let swapped_sides = Egd::new(fd.premise.clone(), fd.rhs, fd.lhs);
                assert_eq!(swapped_sides.pair_shape(), shape(1));
                let mut both = swapped_sides;
                both.premise.atoms.swap(0, 1);
                assert_eq!(both.pair_shape(), shape(0));
            }
        }
    }

    #[test]
    fn pair_shape_rejects_premises_that_are_not_two_atoms_of_distinct_variables() {
        let s = schema();
        for src in [
            // A variable repeated inside an atom.
            "P(x, z, z, w), P(x, z2, y2, w2) -> z = z2",
            // A constant term.
            "P(x, z, 'c', w), P(x, z2, y2, w2) -> z = z2",
            // One atom; three atoms.
            "P(x, z, y, w) -> z = y",
            "P(x, z, y, w), P(x, z2, y2, w2), P(x, z3, y3, w3) -> z = z2",
        ] {
            let e = crate::parse_egd(&s, src).unwrap();
            assert_eq!(e.pair_shape(), None, "{src}");
        }
    }

    #[test]
    fn trivial_egd_detected() {
        let s = schema();
        let e = Egd::new(
            Conjunction::new(vec![Atom::vars(&s, "H", &["x", "y"])]),
            Var::new("x"),
            Var::new("x"),
        );
        assert!(e.is_trivial());
        assert!(e.validate(&s).is_ok());
    }
}
