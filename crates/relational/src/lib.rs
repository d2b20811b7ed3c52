//! Relational substrate for peer data exchange (PODS 2005).
//!
//! This crate provides the model-theoretic ground floor the rest of the
//! workspace stands on:
//!
//! * two-sorted values — constants and labeled nulls ([`value`]), packed
//!   into single-word [`value::ValueId`]s at rest;
//! * schemas with source/target peer tags ([`schema`]);
//! * columnar, indexed instances over a schema ([`instance`], [`relation`],
//!   [`mod@tuple`]), with open-addressed storage primitives in the private
//!   `store` module (see `docs/STORAGE.md`);
//! * first-order syntax: variables, terms, atoms, conjunctions ([`atom`]);
//! * homomorphism search, formula→instance and instance→instance ([`hom`]);
//! * conjunctive queries and unions thereof ([`query`]);
//! * cores / minimal retracts of instances with nulls ([`retract`]);
//! * a small text syntax for all of the above ([`parser`]).
//!
//! Everything is deterministic and single-threaded except the global string
//! interner, which is shared and thread-safe.

pub mod atom;
pub mod hom;
pub mod instance;
pub mod parser;
pub mod query;
pub mod relation;
pub mod retract;
pub mod schema;
mod store;
pub mod symbol;
pub mod tuple;
pub mod unionfind;
pub mod value;

pub use atom::{Atom, Conjunction, Term, Var};
pub use hom::{
    all_homs, exists_hom, find_hom, for_each_hom, for_each_hom_seminaive,
    for_each_key_pair_seminaive, instance_as_atoms, instance_hom, instance_hom_exists,
    instances_isomorphic, Assignment, KeyShape,
};
pub use instance::Instance;
pub use instance::StorageStats;
pub use parser::{
    is_identifier, parse_atom, parse_atom_list, parse_atoms, parse_instance, parse_query,
    parse_schema, parse_term, render_instance, Lexer, ParseError, Span, Token,
};
pub use query::{ConjunctiveQuery, UnionQuery};
pub use relation::{Relation, BYTES_PER_FACT_BUDGET};
pub use retract::{core_of, fold_null, is_core};
pub use schema::{Peer, Position, RelId, RelationInfo, Schema};
pub use store::{FxBuildHasher, FxHasher};
pub use symbol::Symbol;
pub use tuple::Tuple;
pub use unionfind::{ConstMergeConflict, ValueUnionFind};
pub use value::{NullGen, NullId, Value, ValueId};
