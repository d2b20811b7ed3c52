//! Equality-generating dependencies (egds).
//!
//! An egd is a formula `∀x̄ (φ(x̄) → z1 = z2)` with `z1, z2` among `x̄`
//! (paper §2). In PDE settings egds appear only among the target
//! constraints Σt; functional dependencies are the standard special case.

use crate::tgd::DependencyError;
use pde_relational::{Conjunction, KeyShape, Peer, Schema, Term, Var};
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

    /// The [`KeyShape`] of this egd when it is a functional dependency, the
    /// inverse of [`functional_dependency`]: two premise atoms over one
    /// relation, every term a variable, no variable repeated inside an
    /// atom, the shared variables at the same (non-empty set of) positions
    /// in both atoms — the key — and `lhs`/`rhs` the two copies of one
    /// non-key position, in either orientation. `None` for every other egd.
    pub fn key_shape(&self) -> Option<KeyShape> {
        let [a, b] = self.premise.atoms.as_slice() else {
            return None;
        };
        if a.rel != b.rel {
            return None;
        }
        let vars = |terms: &[Term]| -> Option<Vec<Var>> {
            let mut vs = Vec::with_capacity(terms.len());
            for t in terms {
                match t {
                    Term::Var(v) if !vs.contains(v) => vs.push(*v),
                    _ => return None,
                }
            }
            Some(vs)
        };
        let (va, vb) = (vars(&a.terms)?, vars(&b.terms)?);
        let mut key = Vec::new();
        for (i, v) in va.iter().enumerate() {
            match vb.iter().position(|w| w == v) {
                Some(j) if j == i => key.push(u16::try_from(i).ok()?),
                Some(_) => return None,
                None => {}
            }
        }
        if key.is_empty() {
            return None;
        }
        let equated_at = |l: &[Var], r: &[Var]| {
            (0..l.len()).find(|&p| l[p] == self.lhs && r[p] == self.rhs && l[p] != r[p])
        };
        let (equated, lhs_in_first) = match equated_at(&va, &vb) {
            Some(p) => (p, true),
            None => (equated_at(&vb, &va)?, false),
        };
        Some(KeyShape {
            rel: a.rel,
            key,
            equated: u16::try_from(equated).ok()?,
            lhs_in_first,
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
    fn key_shape_inverts_the_functional_dependency_builder() {
        let s = schema();
        let p = s.rel_id("P").unwrap();
        for mask in 1u16..16 {
            let determinant: Vec<u16> = (0..4).filter(|a| mask & (1 << a) != 0).collect();
            for dependent in 0..4 {
                let fd = functional_dependency(&s, "P", &determinant, dependent);
                if determinant.contains(&dependent) {
                    assert!(fd.is_trivial());
                    assert_eq!(fd.key_shape(), None);
                    continue;
                }
                let shape = |lhs_in_first| {
                    Some(KeyShape {
                        rel: p,
                        key: determinant.clone(),
                        equated: dependent,
                        lhs_in_first,
                    })
                };
                assert_eq!(fd.key_shape(), shape(true));
                let mut swapped_atoms = fd.clone();
                swapped_atoms.premise.atoms.swap(0, 1);
                assert_eq!(swapped_atoms.key_shape(), shape(false));
                let swapped_sides = Egd::new(fd.premise.clone(), fd.rhs, fd.lhs);
                assert_eq!(swapped_sides.key_shape(), shape(false));
                let mut both = swapped_sides;
                both.premise.atoms.swap(0, 1);
                assert_eq!(both.key_shape(), shape(true));
            }
        }
    }

    #[test]
    fn key_shape_rejects_egds_that_are_not_functional_dependencies() {
        let s = schema();
        for src in [
            // A variable repeated inside an atom.
            "P(x, z, z, w), P(x, z2, y2, w2) -> z = z2",
            // A constant term.
            "P(x, z, 'c', w), P(x, z2, y2, w2) -> z = z2",
            // A shared variable at different positions (the §4 boundary's
            // consistency egd).
            "P(x, z, y, w), P(y, z2, y2, w2) -> w = z2",
            // Three atoms; two relations.
            "P(x, z, y, w), P(x, z2, y2, w2), P(x, z3, y3, w3) -> z = z2",
            "P(x, z, y, w), H(x, z2) -> z = z2",
            // No shared variable at all.
            "P(x, z, y, w), P(x2, z2, y2, w2) -> z = z2",
            // The equated pair is not two copies of one non-key position.
            "P(x, z, y, w), P(x, z2, y2, w2) -> z = y2",
            "P(x, z, y, w), P(x, z2, y2, w2) -> z = y",
            "P(x, z, y, w), P(x, z2, y2, w2) -> x = z2",
            // Trivial.
            "P(x, z, y, w), P(x, z2, y2, w2) -> x = x",
            "P(x, z, y, w), P(x, z2, y2, w2) -> z = z",
        ] {
            let e = crate::parse_egd(&s, src).unwrap();
            assert_eq!(e.key_shape(), None, "{src}");
        }
        let boundary = crate::parse_egd(&s, "P(x, z, y, w), P(x, z2, y2, w2) -> z = z2").unwrap();
        assert!(boundary.key_shape().is_some());
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
