//! Chase engines for peer data exchange.
//!
//! * [`satisfy`]: dependency satisfaction checks (`K ⊨ d`);
//! * [`engine`]: the standard chase with fresh nulls and the paper's
//!   solution-aware chase (Definitions 6–7), each in a semi-naive
//!   delta-driven implementation (default) and a naive oracle
//!   implementation, both behind [`chase_governed_with`] (see
//!   `docs/CHASE.md`);
//! * [`result`]: outcomes (success / egd failure / resource limits) and
//!   step statistics.
//!
//! The solution-aware chase is the tool behind the paper's NP upper bound
//! (Lemmas 1–2): chasing `(I, J)` while drawing existential witnesses from
//! a known solution `J'` yields a solution of polynomial size contained in
//! `J'`.

pub mod engine;
pub mod result;
pub mod satisfy;

pub use engine::{
    chase, chase_governed_scheduled, chase_governed_with, chase_incremental_governed, chase_tgds,
    chase_tgds_governed, default_chase_engine, null_gen_for, solution_aware_chase, ChaseEngine,
    DepSchedule, WitnessMode,
};
pub use result::{ChaseLimits, ChaseOutcome, ChaseResult, ChaseStats, StepRecord};
pub use satisfy::{
    find_egd_violation, find_tgd_violation, satisfies, satisfies_all, satisfies_all_tgds,
    satisfies_disjunctive, satisfies_egd, satisfies_tgd,
};
