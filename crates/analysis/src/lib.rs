//! Static analysis for peer data exchange settings: `pde lint`.
//!
//! A multi-pass analyzer over a setting `P = (S, T, Σst, Σts, Σt)` that
//! produces [`Diagnostic`]s with **stable codes**:
//!
//! | range    | theme                                                    |
//! |----------|----------------------------------------------------------|
//! | `PDE00x` | complexity boundaries (weak acyclicity, `C_tract`, §4)   |
//! | `PDE01x` | per-dependency well-formedness                           |
//! | `PDE02x` | redundancy (duplicates, subsumption)                     |
//! | `PDE03x` | schema reachability (unpopulatable / unused relations)   |
//! | `PDE04x` | optimizer findings (what `pde optimize` would remove)    |
//!
//! Inputs come either from an already-validated [`PdeSetting`]
//! (`AnalysisInput::from_setting`, no source positions) or from split
//! bundle sections (`AnalysisInput::from_sources`), in which case every
//! diagnostic carries a span that the renderers translate back to file
//! line/column through the sections' line maps.
//!
//! See `docs/LINTS.md` for the full catalog with triggering examples.
//!
//! Beyond lints, the crate houses the `pde plan` machinery: [`plan`]
//! derives a static complexity [`Certificate`] (position ranks, Lemma 1
//! chase bounds, `C_tract` membership witnesses, solver routing and
//! budgets) and [`certificate`] re-validates every witness independently
//! of the planner. See `docs/PLAN.md`. All three certificate kinds (plan,
//! termination, rewrite) implement [`Verifiable`] — JSON out and in, and
//! an independent `verify` — and reject with one [`CertificateError`].
//!
//! The `pde terminate` machinery lives in [`termination`]: a
//! chase-termination hierarchy (weak acyclicity ⊂ joint acyclicity ⊂
//! super-weak acyclicity ⊂ critical-instance check) whose certifying
//! criterion, machine-checkable witness, and derived bounds feed the
//! certificate, the governor budgets, and the PDE05x lints. See
//! `docs/TERMINATION.md`.
//!
//! The `pde optimize` machinery lives in three sibling modules:
//! [`rewrite`] prunes subsumed/duplicate/trivial/dead dependencies under
//! a replayable [`RewriteCertificate`],
//! [`interference`] builds the read/write interference graph over the
//! survivors, and [`schedule`] condenses it into the stratified
//! [`pde_chase::DepSchedule`] the semi-naive chase executes. See
//! `docs/OPTIMIZER.md`.
//!
//! [`PdeSetting`]: pde_core::setting::PdeSetting

pub mod analyzer;
pub mod certificate;
pub mod diag;
pub mod interference;
pub mod plan;
pub mod render;
pub mod rewrite;
pub mod schedule;
pub mod termination;

pub use analyzer::{
    analyze_disjunctive, analyze_setting, AnalysisInput, LintSection, SourceParseError,
};
pub use certificate::{
    Budgets, Certificate, CertificateError, ChaseCertificate, ComplexityClass, CycleEdge,
    PositionRef, RankEntry, Regime, TractCertificate, TractCounterexample, Verifiable,
    CERTIFICATE_VERSION, GOVERNOR_BYTES_PER_FACT, GOVERNOR_SLACK_BYTES,
};
pub use diag::{any_denied, Code, ConstraintRef, Diagnostic, Group, Severity};
pub use interference::{
    forward_dependencies, interference_graph, interference_graph_of, DepFootprint,
    InterferenceEdge, InterferenceGraph,
};
pub use plan::{plan_setting, render_certificate_text};
pub use render::{render_json, render_text, RenderContext};
pub use rewrite::{
    optimize_setting, GroupCounts, OptimizeResult, RewriteAction, RewriteCertificate, RewriteGroup,
    REWRITE_VERSION,
};
pub use schedule::{forward_schedule, schedule_from_graph};
pub use termination::{
    analyze_termination, render_termination_text, CriterionCheck, ExVarRef, TerminationCertificate,
    TerminationCriterion, TerminationWitness, CRITICAL_CHASE_STEP_LIMIT, TERMINATION_VERSION,
};
