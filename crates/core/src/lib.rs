//! Peer data exchange (PODS 2005): the paper's primary contribution.
//!
//! This crate defines PDE settings and implements all the paper's
//! algorithms:
//!
//! * [`setting`]: `P = (S, T, Σst, Σts, Σt)` with validation and static
//!   classification (Def. 1, Def. 9);
//! * [`solution`]: solution checking (Def. 2);
//! * [`blocks`](mod@blocks): block decomposition and Prop. 1;
//! * [`tractable`]: the polynomial `ExistsSolution` of Fig. 3 (Thms. 4–6);
//! * [`assignment`]: complete solver for Σt = ∅ (the Theorem 1 NP
//!   procedure, specialized to no target constraints), including the §4
//!   disjunctive extension;
//! * [`generic`]: complete witness-chase search for Σt ≠ ∅;
//! * [`domain`]: the Σts column domains both searches branch over;
//! * [`solver`]: the façade that routes a setting to one of the above
//!   ([`decide`], [`decide_governed_scheduled`]).
//!
//! Every solver, certain answers, enumeration and Lemma 2's shrink refuse
//! with the one error type [`SolveError`].

pub mod assignment;
pub mod blocks;
pub mod domain;
pub mod setting;
pub mod solution;
pub mod tractable;

pub use assignment::{
    solve as assignment_solve, AssignmentOutcome, DisjunctiveProblem, SearchStats,
};
pub use blocks::{blocks, blockwise_hom_exists, check_blocks, Block};
pub use domain::{column_domains, ColumnDomains};
pub use setting::{PdeSetting, SettingClass, SettingError};
pub use solution::{check_solution, core_solution, is_solution, SolutionViolation};
pub use tractable::{exists_solution, DemandState, TractableOutcome, TractableStats};

pub mod generic;
pub use generic::{GenericLimits, GenericOutcome, GenericStats};

pub mod certain;
pub use certain::{
    brute_force_certain_superset, certain_answers, certain_answers_cached,
    certain_answers_governed, certain_bounds, check_target_query, ground_answers, CertainBounds,
    CertainOutcome,
};

pub mod bundle;
pub mod data_exchange;
pub mod enumerate;
pub mod multi;
pub mod pdms;
pub mod small;
pub mod solver;
pub use bundle::{split_sections, Bundle, BundleError, BundleSources, Section};
pub use data_exchange::{
    certain_answers_data_exchange, solve_data_exchange, solve_data_exchange_governed_scheduled,
    DataExchangeOutcome,
};
pub use enumerate::{enumerate_solutions, EnumerateOptions, SolutionFamily};
pub use multi::{MultiPdeError, MultiPdeSetting, PeerConstraints};
pub use pdms::{Pdms, StorageDescription};
pub use small::shrink_solution;
pub use solver::{
    decide, decide_governed_scheduled, SearchSummary, SolveError, SolvePlan, SolveReport,
    SolverKind,
};
