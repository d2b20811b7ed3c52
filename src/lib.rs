//! # Peer Data Exchange
//!
//! A faithful, executable reproduction of *"Peer Data Exchange"* (Fuxman,
//! Kolaitis, Miller, Tan — PODS 2005).
//!
//! Peer data exchange (PDE) sits between classical data exchange and full
//! peer data management: an authoritative **source** peer ships data to a
//! **target** peer under source-to-target tgds (Σst), while the target
//! restricts what it accepts with target-to-source tgds (Σts) and its own
//! target constraints (Σt). The two algorithmic problems are the existence
//! of a solution (`SOL(P)`, NP-complete in general) and the certain
//! answers of target queries (coNP-complete), with a large tractable class
//! `C_tract` solved in polynomial time by the chase-and-homomorphism
//! algorithm `ExistsSolution`.
//!
//! ## Quickstart
//!
//! ```
//! use peer_data_exchange::prelude::*;
//!
//! // Example 1 of the paper.
//! let setting = PdeSetting::parse(
//!     "source E/2; target H/2;",
//!     "E(x, z), E(z, y) -> H(x, y)",   // Σst
//!     "H(x, y) -> E(x, y)",            // Σts
//!     "",                              // Σt
//! ).unwrap();
//!
//! // I = {E(a,b), E(b,c)}, J = ∅: no solution (H(a,c) needs E(a,c)).
//! let input = parse_instance(setting.schema(), "E(a, b). E(b, c).").unwrap();
//! let report = decide(&setting, &input).unwrap();
//! assert_eq!(report.exists, Some(false));
//!
//! // I = {E(a,a)}: the unique solution {H(a,a)} is materialized.
//! let input = parse_instance(setting.schema(), "E(a, a).").unwrap();
//! let report = decide(&setting, &input).unwrap();
//! assert_eq!(report.exists, Some(true));
//! assert!(is_solution(&setting, &input, &report.witness.unwrap()));
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`relational`] | values (constants / labeled nulls), schemas, indexed instances, homomorphism search, conjunctive queries, parsers |
//! | [`constraints`] | tgds/egds, disjunctive tgds, weak acyclicity, marked positions, the `C_tract` classifier |
//! | [`chase`] | the standard chase and the paper's solution-aware chase |
//! | [`core`] | PDE settings, solution checking, blocks, the four solvers, certain answers, multi-PDE, the PDMS embedding |
//! | [`analysis`] | `pde lint` diagnostics, `pde plan` complexity certificates, and the `pde optimize` rewriter (certified dependency pruning + static interference/stratification analysis) — each with an independent checker |
//! | [`runtime`] | resilient execution: the [`Governor`](runtime::Governor) (deadlines, memory budgets, cancellation), panic isolation, deterministic fault injection — see `docs/ROBUSTNESS.md` |
//! | [`store`] | crash-safe durable instance store: atomic columnar snapshots + a checksummed epoch journal, truncate-at-first-bad-frame recovery — see `docs/SERVE.md` |
//! | [`serve`] | the `pde serve` JSONL request loop over a durable store, with incremental re-chase and per-request isolation |
//! | [`workloads`] | graph generators, the CLIQUE / 3-COL reductions, scalable tractable workloads, paper fixtures |
//! | [`trace`] | zero-dependency span tracing, metrics registry, and the versioned run-report format — see `docs/OBSERVABILITY.md` |
//!
//! Benchmarks reproducing the paper's complexity landscape live in the
//! `pde-bench` crate (one Criterion target per experiment in
//! `EXPERIMENTS.md`).

pub use pde_analysis as analysis;
pub use pde_chase as chase;
pub use pde_constraints as constraints;
pub use pde_core as core;
pub use pde_relational as relational;
pub use pde_runtime as runtime;
pub use pde_store as store;
pub use pde_trace as trace;
pub use pde_workloads as workloads;

pub mod serve;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use pde_analysis::{plan_setting, Certificate, Regime, Verifiable};
    pub use pde_chase::{chase, chase_tgds, solution_aware_chase, ChaseLimits, ChaseOutcome};
    pub use pde_constraints::{
        classify, parse_dependencies, parse_dependency, parse_egd, parse_tgd, parse_tgds,
        Dependency, Egd, Marking, Orientation, Tgd,
    };
    pub use pde_core::{
        assignment_solve, certain_answers, check_solution, decide, decide_governed_scheduled,
        exists_solution, is_solution, solve_data_exchange, GenericLimits, MultiPdeSetting,
        PdeSetting, Pdms, SolvePlan, SolveReport, SolverKind,
    };
    pub use pde_relational::{
        parse_instance, parse_query, parse_schema, ConjunctiveQuery, Instance, Peer, Schema,
        UnionQuery, Value,
    };
    pub use pde_runtime::{CancelToken, Governor, GovernorConfig, GovernorReport, StopReason};
    pub use pde_workloads::{has_k_clique, is_three_colorable, Graph};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_happy_path() {
        let setting = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "",
        )
        .unwrap();
        let input = parse_instance(setting.schema(), "E(a, b).").unwrap();
        let report = decide(&setting, &input).unwrap();
        assert_eq!(report.exists, Some(true));
    }
}
