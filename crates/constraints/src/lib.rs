//! Dependencies and their static analysis for peer data exchange.
//!
//! * [`tgd`] / [`egd`]: tuple- and equality-generating dependencies with
//!   orientation-aware validation (Σst, Σts, Σt);
//! * [`disjunctive`]: disjunctive tgds (the §4 boundary extension);
//! * [`parser`]: text syntax for all dependency forms;
//! * [`depgraph`]: the position dependency graph and weak acyclicity
//!   (paper Def. 5);
//! * [`marking`]: marked positions and marked variables (Def. 8);
//! * [`mod@classify`]: the `C_tract` membership test with diagnostics (Def. 9).

pub mod classify;
pub mod depgraph;
pub mod disjunctive;
pub mod egd;
pub mod marking;
pub mod parser;
pub mod tgd;

pub use classify::{classify, CtractReport, CtractViolation};
pub use depgraph::{chase_bound, is_weakly_acyclic, ChaseBound, DependencyGraph, Edge};
pub use disjunctive::{Disjunct, DisjunctiveTgd};
pub use egd::{functional_dependency, Egd, EgdPair};
pub use marking::Marking;
pub use parser::{
    parse_dependencies, parse_dependencies_spanned, parse_dependency,
    parse_dependency_spanned_from, parse_disjunctive_tgd, parse_egd, parse_tgd, parse_tgds,
};
pub use tgd::{DependencyError, Orientation, Tgd};

use pde_relational::Schema;
use std::fmt;

/// A dependency: tgd or egd.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Dependency {
    /// A tuple-generating dependency.
    Tgd(Tgd),
    /// An equality-generating dependency.
    Egd(Egd),
}

impl Dependency {
    /// View as a tgd.
    pub fn as_tgd(&self) -> Option<&Tgd> {
        match self {
            Dependency::Tgd(t) => Some(t),
            Dependency::Egd(_) => None,
        }
    }

    /// View as an egd.
    pub fn as_egd(&self) -> Option<&Egd> {
        match self {
            Dependency::Egd(e) => Some(e),
            Dependency::Tgd(_) => None,
        }
    }

    /// Render with relation names resolved against `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Dependency, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    Dependency::Tgd(t) => write!(f, "{}", t.display(self.1)),
                    Dependency::Egd(e) => write!(f, "{}", e.display(self.1)),
                }
            }
        }
        D(self, schema)
    }
}

impl fmt::Debug for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dependency::Tgd(t) => write!(f, "{t:?}"),
            Dependency::Egd(e) => write!(f, "{e:?}"),
        }
    }
}

impl From<Tgd> for Dependency {
    fn from(t: Tgd) -> Dependency {
        Dependency::Tgd(t)
    }
}

impl From<Egd> for Dependency {
    fn from(e: Egd) -> Dependency {
        Dependency::Egd(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde_relational::parse_schema;

    #[test]
    fn dependency_views() {
        let s = parse_schema("source E/2; target H/2;").unwrap();
        let d = parse_dependency(&s, "E(x, y) -> H(x, y)").unwrap();
        assert!(d.as_tgd().is_some());
        assert!(d.as_egd().is_none());
        let e = parse_dependency(&s, "H(x, y), H(x, z) -> y = z").unwrap();
        assert!(e.as_egd().is_some());
        assert!(e.as_tgd().is_none());
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let s = parse_schema("source E/2; target H/2;").unwrap();
        for src in [
            "E(x, y) -> H(x, y)",
            "H(x, y) -> exists z . E(x, z), E(z, y)",
            "H(x, y), H(x, z) -> y = z",
        ] {
            let d = parse_dependency(&s, src).unwrap();
            let rendered = format!("{}", d.display(&s));
            let reparsed = parse_dependency(&s, &rendered).unwrap();
            assert_eq!(d, reparsed, "{src} → {rendered}");
        }
    }
}
