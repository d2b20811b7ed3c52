//! Static complexity certificates and their independent checker.
//!
//! A [`Certificate`] is the output of the planner ([`crate::plan`]): a
//! machine-checkable record of *why* a PDE setting sits where it does on
//! the paper's complexity map, together with concrete solver budgets
//! derived from Lemma 1's chase bound. Everything in it is re-derivable
//! from the setting alone; the certificate's value is that each claim
//! carries a **witness** that [`Verifiable::verify`] re-validates without
//! trusting the planner:
//!
//! * the per-position ranks are checked as the *least fixpoint* of the
//!   rank equations over the dependency graph (Def. 5) — monotonicity
//!   along every edge certifies weak acyclicity, the fixpoint equality
//!   pins every single rank value;
//! * the marked positions/variables (Def. 8) are recomputed from Σst and
//!   compared as sets;
//! * the `C_tract` verdict (Def. 9) is re-derived with an independent
//!   implementation of conditions 1 / 2.1 / 2.2, and a named
//!   counterexample dependency is re-checked to actually violate its
//!   condition;
//! * the §4 regime, the predicted complexity classes, the recommended
//!   solver, and the budget arithmetic are all recomputed and compared.
//!
//! Certificates serialize to versioned JSON through `pde_trace::json` and
//! parse back, so `pde solve --plan cert.json` can reuse a saved plan
//! after re-verifying it. See `docs/PLAN.md` for the schema.
//!
//! The [`Verifiable`] trait is the one interface of all three certificate
//! kinds — this plan certificate, the [`TerminationCertificate`] and the
//! [`crate::RewriteCertificate`] — and [`CertificateError`] their one
//! rejection type.

use crate::termination::{TerminationCertificate, TerminationCriterion};
use pde_constraints::{DependencyGraph, Tgd};
use pde_core::{GenericLimits, PdeSetting, SolvePlan, SolverKind};
use pde_relational::{Instance, Position, Schema, Term, Var};
use pde_runtime::GovernorConfig;
use pde_trace::json::{self, Json, ObjExt as _};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Version stamp of the JSON schema; bump on any layout change.
pub const CERTIFICATE_VERSION: u32 = 1;

/// Where the setting sits on the paper's §3/§4 complexity map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// Σts = ∅: classic data exchange (\[FKMP\] baseline of §3).
    DataExchange,
    /// Σt = ∅ and (Σst, Σts) ∈ `C_tract` (Thm. 4).
    Tractable,
    /// Σt = ∅ but outside `C_tract` (Thm. 3 territory).
    OutsideCtract,
    /// Σts ≠ ∅ and Σt contains an egd (§4, first boundary).
    EgdBoundary,
    /// Σts ≠ ∅ and Σt contains a full tgd, no egds (§4, second boundary).
    FullTgdBoundary,
    /// Σts ≠ ∅, Σt nonempty with only existential target tgds.
    GeneralTarget,
    /// Not weakly acyclic, but a stronger criterion of the termination
    /// hierarchy (joint / super-weak acyclicity or the critical-instance
    /// check) certifies a finite chase: decidable with derived budgets,
    /// though outside the paper's Lemma 1 bound.
    CertifiedTerminating,
    /// No criterion of the termination hierarchy certifies the chased tgd
    /// set: no chase bound, Thm. 1's NP membership argument does not
    /// apply, and the chase may diverge.
    NonTerminating,
}

impl Regime {
    /// Stable string form used in the JSON serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            Regime::DataExchange => "data-exchange",
            Regime::Tractable => "tractable",
            Regime::OutsideCtract => "outside-ctract",
            Regime::EgdBoundary => "egd-boundary",
            Regime::FullTgdBoundary => "full-tgd-boundary",
            Regime::GeneralTarget => "general-target",
            Regime::CertifiedTerminating => "certified-terminating",
            Regime::NonTerminating => "non-terminating",
        }
    }

    fn from_str(s: &str) -> Option<Regime> {
        Some(match s {
            "data-exchange" => Regime::DataExchange,
            "tractable" => Regime::Tractable,
            "outside-ctract" => Regime::OutsideCtract,
            "egd-boundary" => Regime::EgdBoundary,
            "full-tgd-boundary" => Regime::FullTgdBoundary,
            "general-target" => Regime::GeneralTarget,
            "certified-terminating" => Regime::CertifiedTerminating,
            "non-terminating" => Regime::NonTerminating,
            _ => return None,
        })
    }
}

impl fmt::Display for Regime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Predicted complexity class of a decision problem for the setting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComplexityClass {
    /// Solvable in polynomial time.
    PTime,
    /// NP-complete (a hardness reduction is known for the regime).
    NpComplete,
    /// In NP (membership by Thm. 1; no hardness claim for this shape).
    InNp,
    /// coNP-complete.
    ConpComplete,
    /// In coNP (membership by Thm. 2; no hardness claim for this shape).
    InConp,
    /// Decidable via a certified finite chase, but outside the paper's
    /// Lemma 1 polynomial bound — no sharper class is claimed.
    Decidable,
    /// No finite chase bound: the paper's upper-bound arguments do not
    /// apply.
    NoBound,
}

impl ComplexityClass {
    /// Stable string form used in the JSON serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            ComplexityClass::PTime => "PTIME",
            ComplexityClass::NpComplete => "NP-complete",
            ComplexityClass::InNp => "in NP",
            ComplexityClass::ConpComplete => "coNP-complete",
            ComplexityClass::InConp => "in coNP",
            ComplexityClass::Decidable => "decidable",
            ComplexityClass::NoBound => "no finite bound",
        }
    }

    fn from_str(s: &str) -> Option<ComplexityClass> {
        Some(match s {
            "PTIME" => ComplexityClass::PTime,
            "NP-complete" => ComplexityClass::NpComplete,
            "in NP" => ComplexityClass::InNp,
            "coNP-complete" => ComplexityClass::ConpComplete,
            "in coNP" => ComplexityClass::InConp,
            "decidable" => ComplexityClass::Decidable,
            "no finite bound" => ComplexityClass::NoBound,
            _ => return None,
        })
    }
}

impl fmt::Display for ComplexityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable string form of a [`SolverKind`] for the JSON serialization.
pub fn solver_kind_str(kind: SolverKind) -> &'static str {
    match kind {
        SolverKind::DataExchange => "data-exchange",
        SolverKind::Tractable => "tractable",
        SolverKind::AssignmentSearch => "assignment-search",
        SolverKind::GenericSearch => "generic-search",
    }
}

fn solver_kind_from_str(s: &str) -> Option<SolverKind> {
    Some(match s {
        "data-exchange" => SolverKind::DataExchange,
        "tractable" => SolverKind::Tractable,
        "assignment-search" => SolverKind::AssignmentSearch,
        "generic-search" => SolverKind::GenericSearch,
        _ => return None,
    })
}

/// A schema position referenced by name (stable across processes, unlike
/// `RelId`).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PositionRef {
    /// Relation name.
    pub rel: String,
    /// 0-based attribute index.
    pub attr: usize,
}

impl PositionRef {
    pub(crate) fn of(schema: &Schema, p: Position) -> PositionRef {
        PositionRef {
            rel: schema.name(p.rel).to_string(),
            attr: usize::from(p.attr),
        }
    }

    fn resolve(&self, schema: &Schema) -> Option<Position> {
        let rel = schema.rel_id(self.rel.as_str())?;
        if self.attr >= usize::from(schema.arity(rel)) {
            return None;
        }
        Some(Position::at(rel, self.attr))
    }
}

/// One entry of the rank witness: a position and its claimed rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankEntry {
    /// The position.
    pub pos: PositionRef,
    /// Maximum number of special edges on any path into the position.
    pub rank: usize,
}

/// An edge of the claimed special-cycle witness (present only when the
/// chased set is *not* weakly acyclic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleEdge {
    /// Source position.
    pub from: PositionRef,
    /// Destination position.
    pub to: PositionRef,
    /// Is this a special (existential-creating) edge?
    pub special: bool,
}

/// The Lemma 1 part of the certificate: ranks and the chase bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaseCertificate {
    /// Is the chased tgd set (Σst ∪ Σt tgds) weakly acyclic?
    pub weakly_acyclic: bool,
    /// Rank witness for every schema position (empty when not weakly
    /// acyclic).
    pub ranks: Vec<RankEntry>,
    /// Maximum rank over all positions.
    pub max_rank: usize,
    /// Degree of the certified polynomial `N(|I|)` bounding chase length:
    /// `max_arity · v^(max_rank + 1)` with `v` the largest premise
    /// variable count (saturating).
    pub degree: usize,
    /// Active-domain size the concrete bounds below were evaluated at.
    pub adom_size: usize,
    /// Upper bound on distinct values in any chase result.
    pub value_bound: usize,
    /// Upper bound on facts in any chase result.
    pub fact_bound: usize,
    /// Upper bound on the length of any chase sequence.
    pub step_bound: usize,
    /// Closed walk through a special edge witnessing non-weak-acyclicity
    /// (empty when weakly acyclic).
    pub special_cycle: Vec<CycleEdge>,
    /// The termination-hierarchy section: criterion trail, witness, and
    /// derived bounds (see [`crate::termination`] and
    /// `docs/TERMINATION.md`). Its weak-acyclicity verdict must agree
    /// with `weakly_acyclic` above.
    pub termination: TerminationCertificate,
}

/// A named counterexample dependency for a failed `C_tract` condition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TractCounterexample {
    /// Which condition the witness violates: `"repeated-marked-variable"`
    /// (condition 1) or `"bad-marked-pair"` (condition 2.2).
    pub kind: String,
    /// Index of the offending tgd within Σts.
    pub tgd_index: usize,
    /// The variable(s) witnessing the violation.
    pub vars: Vec<String>,
}

/// The Def. 8 / Def. 9 part of the certificate: the marking witness and
/// the `C_tract` verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TractCertificate {
    /// Marked target positions induced by Σst (Def. 8).
    pub marked_positions: Vec<PositionRef>,
    /// Marked variables of each Σts tgd, indexed like `sigma_ts`.
    pub marked_variables: Vec<Vec<String>>,
    /// Does condition 1 hold?
    pub condition1: bool,
    /// Does condition 2.1 hold?
    pub condition2_1: bool,
    /// Does condition 2.2 hold?
    pub condition2_2: bool,
    /// Is every Σst tgd full (Corollary 1 shape)?
    pub st_all_full: bool,
    /// Is every Σts tgd LAV (Corollary 2 shape)?
    pub ts_all_lav: bool,
    /// Is the setting in `C_tract`?
    pub in_ctract: bool,
    /// A named violating dependency when outside `C_tract`.
    pub counterexample: Option<TractCounterexample>,
}

/// Solver budgets derived from the chase bound (see `docs/PLAN.md` for
/// the exact formulas).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budgets {
    /// Chase step cap (`step_bound` when weakly acyclic).
    pub chase_steps: usize,
    /// Chase fact cap (`fact_bound` when weakly acyclic).
    pub chase_facts: usize,
    /// Node budget for the complete searches.
    pub search_nodes: usize,
    /// Branch-width budget per existential (`value_bound` dominates every
    /// reachable active domain, so this cap never truncates the search).
    pub search_branches: usize,
}

/// A static complexity certificate for one PDE setting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Schema version of the serialized form.
    pub version: u32,
    /// §3/§4 regime.
    pub regime: Regime,
    /// Predicted complexity class of `SOL(P)`.
    pub sol_complexity: ComplexityClass,
    /// Predicted complexity class of certain answers (monotone queries).
    pub certain_complexity: ComplexityClass,
    /// The solver `decide` should dispatch to.
    pub recommended_solver: SolverKind,
    /// Lemma 1: ranks and the chase bound.
    pub chase: ChaseCertificate,
    /// Def. 8/9: marking witness and `C_tract` verdict.
    pub tract: TractCertificate,
    /// Derived solver budgets.
    pub budgets: Budgets,
}

/// Byte allowance per chased fact used by
/// [`Certificate::derived_governor_config`]: the columnar storage's own
/// budget constant, re-exported from `pde-relational`. It is measured from
/// `Relation::heap_bytes` accounting (columns + epochs + liveness +
/// membership set + per-attribute indexes come to ~40–90 bytes/fact at
/// arities 2–4, rounded up for load-factor headroom), so a run that stays
/// inside the certified fact bound never trips the derived budget. The
/// row-oriented layout this replaced needed a hard-coded 256 here.
pub const GOVERNOR_BYTES_PER_FACT: usize = pde_relational::BYTES_PER_FACT_BUDGET;

/// Fixed slack added on top of the per-fact allowance (1 MiB): covers the
/// solvers' non-instance state (frontiers, homomorphism search stacks) on
/// small inputs where the fact bound alone would be only a few KiB.
pub const GOVERNOR_SLACK_BYTES: usize = 1 << 20;

impl Certificate {
    /// Convert to a [`SolvePlan`] for `pde_core::decide_governed_scheduled`.
    pub fn to_solve_plan(&self) -> SolvePlan {
        SolvePlan {
            kind: self.recommended_solver,
            limits: GenericLimits {
                max_nodes: self.budgets.search_nodes,
                max_branches: self.budgets.search_branches,
            },
            chase_limits: pde_chase::ChaseLimits {
                max_steps: self.budgets.chase_steps,
                max_facts: self.budgets.chase_facts,
            },
        }
    }

    /// Derive a [`GovernorConfig`] from the certified chase bound: when the
    /// setting is weakly acyclic, Lemma 1's `fact_bound` caps every
    /// reachable instance, so
    /// `fact_bound × GOVERNOR_BYTES_PER_FACT + GOVERNOR_SLACK_BYTES` is a
    /// memory budget no well-behaved run can trip — it only fires on a bug
    /// (runaway engine) — while still containing one. Beyond weak
    /// acyclicity, the termination hierarchy's certifying fact bound plays
    /// the same role. When no criterion certifies termination there is no
    /// bound and the memory budget is left unset. Deadlines and
    /// cancellation are operator policy, not derivable
    /// from the setting, so those fields stay `None`; merge them in at the
    /// call site.
    pub fn derived_governor_config(&self) -> GovernorConfig {
        // The weakest certifying criterion's fact bound: Lemma 1's when
        // weakly acyclic, the termination hierarchy's otherwise.
        let certified_fact_bound = if self.chase.weakly_acyclic {
            Some(self.chase.fact_bound)
        } else if self.chase.termination.certified() {
            Some(self.chase.termination.fact_bound)
        } else {
            None
        };
        let memory_budget_bytes = certified_fact_bound.and_then(|fact_bound| {
            let bytes = fact_bound
                .saturating_mul(GOVERNOR_BYTES_PER_FACT)
                .saturating_add(GOVERNOR_SLACK_BYTES);
            // A saturated bound is no bound at all.
            (bytes != usize::MAX).then_some(bytes)
        });
        GovernorConfig {
            deadline: None,
            memory_budget_bytes,
            cancel: None,
        }
    }
}

/// Why a certificate of any kind was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertificateError {
    /// The JSON of a certificate of the named kind is malformed or has the
    /// wrong shape.
    Malformed(&'static str, String),
    /// Unsupported schema version.
    Version {
        /// The certificate kind ([`Verifiable::KIND`]).
        kind: &'static str,
        /// The version the certificate carries.
        found: u32,
        /// The version this build reads.
        expected: u32,
    },
    /// The rank witness fails the fixpoint equations of Def. 5.
    Rank(String),
    /// The marking witness disagrees with the Def. 8 fixpoint.
    Marking(String),
    /// A `C_tract` flag or the counterexample fails re-derivation.
    Ctract(String),
    /// Regime, predicted class, or recommended solver mismatch.
    Regime(String),
    /// The bound arithmetic does not re-derive.
    Bound(String),
    /// The budget derivation does not re-derive.
    Budget(String),
    /// The termination section (criterion trail, witness, or bound) does
    /// not replay.
    Termination(String),
    /// A rewrite action, relation set or count diverges from the replayed
    /// derivation.
    Rewrite(String),
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::Malformed(kind, m) => write!(f, "malformed {kind} certificate: {m}"),
            CertificateError::Version {
                kind,
                found,
                expected,
            } => write!(
                f,
                "{kind} certificate version {found} unsupported (expected {expected})"
            ),
            CertificateError::Rank(m) => write!(f, "rank witness rejected: {m}"),
            CertificateError::Marking(m) => write!(f, "marking witness rejected: {m}"),
            CertificateError::Ctract(m) => write!(f, "C_tract claim rejected: {m}"),
            CertificateError::Regime(m) => write!(f, "regime claim rejected: {m}"),
            CertificateError::Bound(m) => write!(f, "chase bound rejected: {m}"),
            CertificateError::Budget(m) => write!(f, "budget derivation rejected: {m}"),
            CertificateError::Termination(m) => {
                write!(f, "termination section rejected: {m}")
            }
            CertificateError::Rewrite(m) => write!(f, "derivation replay diverges: {m}"),
        }
    }
}

impl std::error::Error for CertificateError {}

/// A certificate kind: its versioned JSON form and its independent checker.
/// The plan [`Certificate`], the [`TerminationCertificate`] and the
/// [`crate::RewriteCertificate`] implement it, and `pde plan`, `pde
/// terminate` and `pde optimize` share one `--emit`/`--check` path through
/// it.
pub trait Verifiable: Sized {
    /// The kind name: `plan`, `termination` or `rewrite`.
    const KIND: &'static str;

    /// The certificate as versioned JSON (stable field order).
    fn to_json(&self) -> Json;

    /// Decode an already parsed JSON value; shape errors only.
    fn from_json_value(v: &Json) -> Result<Self, String>;

    /// Parse a certificate printed by [`Verifiable::to_json`]. Shape errors
    /// come back as [`CertificateError::Malformed`]; whether the claims
    /// hold is the job of [`Verifiable::verify`].
    fn from_json(src: &str) -> Result<Self, CertificateError> {
        json::parse(src)
            .and_then(|v| Self::from_json_value(&v))
            .map_err(|m| CertificateError::Malformed(Self::KIND, m))
    }

    /// Re-validate every claim against `setting` and `input` without
    /// trusting the code that derived the certificate.
    fn verify(&self, setting: &PdeSetting, input: &Instance) -> Result<(), CertificateError>;

    /// The one-line summary printed after `<kind> certificate OK: `.
    fn summary(&self) -> String;
}

// ---------------------------------------------------------------------------
// Shared derivations (formulas that are part of the certificate *spec*).
// ---------------------------------------------------------------------------

/// The tgds whose violations force chase steps: Σst ∪ (tgds of Σt) — the
/// set both the generic solver and the data-exchange chase apply forward.
pub(crate) fn forward_tgds(setting: &PdeSetting) -> Vec<Tgd> {
    setting
        .sigma_st()
        .iter()
        .cloned()
        .chain(setting.target_tgds().cloned())
        .collect()
}

/// The (d, v, e, max_arity) parameters of the Lemma 1 bound.
pub(crate) fn bound_params(schema: &Schema, tgds: &[Tgd]) -> (usize, usize, usize, usize) {
    let mut d = 0usize;
    let mut v = 1usize;
    let mut e = 1usize;
    for t in tgds {
        d += 1;
        v = v.max(t.premise.variables().len().max(1));
        e = e.max(t.existentials.len().max(1));
    }
    let max_arity = schema
        .rel_ids()
        .map(|r| usize::from(schema.arity(r)))
        .max()
        .unwrap_or(0);
    (d, v, e, max_arity)
}

/// Evaluate the layered Lemma 1 recurrence at `adom_size`:
/// `(value_bound, fact_bound, step_bound)`. Mirrors
/// `pde_constraints::chase_bound` as an independent reimplementation —
/// the checker compares the two.
pub(crate) fn evaluate_bound(
    schema: &Schema,
    params: (usize, usize, usize, usize),
    max_rank: usize,
    adom_size: usize,
) -> (usize, usize, usize) {
    let (d, v, e, max_arity) = params;
    let mut g = adom_size.max(1);
    for _ in 0..=max_rank {
        let bindings = g.saturating_pow(u32::try_from(v).unwrap_or(u32::MAX));
        let fresh = d.saturating_mul(bindings).saturating_mul(e);
        g = g.saturating_add(fresh);
    }
    let fact_bound = (schema.len().max(1))
        .saturating_mul(g.saturating_pow(u32::try_from(max_arity).unwrap_or(u32::MAX)));
    (g, fact_bound, fact_bound.saturating_add(g))
}

/// Degree of the certified polynomial `N(|I|)`:
/// `max_arity · v^(max_rank + 1)`, saturating.
pub(crate) fn bound_degree(params: (usize, usize, usize, usize), max_rank: usize) -> usize {
    let (_, v, _, max_arity) = params;
    max_arity.saturating_mul(
        v.saturating_pow(u32::try_from(max_rank.saturating_add(1)).unwrap_or(u32::MAX)),
    )
}

/// Budget derivation from the verified bound (the certificate spec; see
/// `docs/PLAN.md`).
pub(crate) fn derive_budgets(chase: &ChaseCertificate) -> Budgets {
    if chase.weakly_acyclic {
        Budgets {
            chase_steps: chase.step_bound,
            chase_facts: chase.fact_bound,
            // Never below the historical default, scaled up for inputs
            // whose certified bound says the search state space is larger.
            search_nodes: chase
                .step_bound
                .saturating_mul(16)
                .clamp(1_000_000, 16_777_216),
            search_branches: chase.value_bound,
        }
    } else if chase.termination.certified() {
        // Certified beyond weak acyclicity: the hierarchy's bounds are
        // finite, so they budget the chase the same way Lemma 1's do.
        let t = &chase.termination;
        Budgets {
            chase_steps: t.step_bound,
            chase_facts: t.fact_bound,
            search_nodes: t.step_bound.saturating_mul(16).clamp(1_000_000, 16_777_216),
            search_branches: t.value_bound,
        }
    } else {
        Budgets {
            chase_steps: 1_000_000,
            chase_facts: 10_000_000,
            search_nodes: 1_000_000,
            search_branches: usize::MAX,
        }
    }
}

/// Regime → (SOL(P) class, certain-answers class).
pub(crate) fn predicted_classes(regime: Regime) -> (ComplexityClass, ComplexityClass) {
    match regime {
        // \[FKMP\]: chase + UCQ evaluation on the universal solution.
        Regime::DataExchange => (ComplexityClass::PTime, ComplexityClass::PTime),
        // Thm. 4 for SOL(P); certain answers in C_tract left open by §6,
        // so only the Thm. 2 coNP upper bound is certified.
        Regime::Tractable => (ComplexityClass::PTime, ComplexityClass::InConp),
        // Thm. 3 (CLIQUE), both directions.
        Regime::OutsideCtract => (ComplexityClass::NpComplete, ComplexityClass::ConpComplete),
        // §4 boundary reductions; coNP-hardness via vacuous certainty.
        Regime::EgdBoundary | Regime::FullTgdBoundary => {
            (ComplexityClass::NpComplete, ComplexityClass::ConpComplete)
        }
        // Thm. 1 / Thm. 2 memberships only.
        Regime::GeneralTarget => (ComplexityClass::InNp, ComplexityClass::InConp),
        // A certified finite chase gives decidability; the hierarchy's
        // bounds are not polynomial, so no sharper class is claimed.
        Regime::CertifiedTerminating => (ComplexityClass::Decidable, ComplexityClass::Decidable),
        Regime::NonTerminating => (ComplexityClass::NoBound, ComplexityClass::NoBound),
    }
}

/// Regime → solver dispatch (mirrors `pde_core::solver::decide`'s order).
pub(crate) fn recommended_solver(regime: Regime) -> SolverKind {
    match regime {
        Regime::DataExchange => SolverKind::DataExchange,
        Regime::Tractable => SolverKind::Tractable,
        Regime::OutsideCtract => SolverKind::AssignmentSearch,
        Regime::EgdBoundary
        | Regime::FullTgdBoundary
        | Regime::GeneralTarget
        | Regime::CertifiedTerminating
        | Regime::NonTerminating => SolverKind::GenericSearch,
    }
}

/// Derive the regime from the setting shape plus the (already verified)
/// termination section. Weak acyclicity keeps the paper's §3/§4 shape
/// analysis; a stronger certifying criterion maps to
/// [`Regime::CertifiedTerminating`]; a fully failed hierarchy to
/// [`Regime::NonTerminating`].
pub(crate) fn derive_regime(setting: &PdeSetting, termination: &TerminationCertificate) -> Regime {
    match termination.criterion {
        Some(TerminationCriterion::WeakAcyclicity) => {}
        Some(_) => return Regime::CertifiedTerminating,
        None => return Regime::NonTerminating,
    }
    if setting.is_data_exchange() {
        return Regime::DataExchange;
    }
    if setting.has_no_target_constraints() {
        let (c1, c21, c22) = derive_conditions(setting, &derive_marking(setting.sigma_st()));
        return if c1 && (c21 || c22) {
            Regime::Tractable
        } else {
            Regime::OutsideCtract
        };
    }
    if setting.target_egds().next().is_some() {
        return Regime::EgdBoundary;
    }
    if setting.target_tgds().any(Tgd::is_full) {
        return Regime::FullTgdBoundary;
    }
    Regime::GeneralTarget
}

/// Recompute the Def. 8 marking directly from Σst (independent of
/// `pde_constraints::Marking`).
pub(crate) fn derive_marking(sigma_st: &[Tgd]) -> BTreeSet<Position> {
    let mut marked = BTreeSet::new();
    for tgd in sigma_st {
        for atom in &tgd.conclusion.atoms {
            for (i, t) in atom.terms.iter().enumerate() {
                if let Term::Var(v) = t {
                    if tgd.existentials.contains(v) {
                        marked.insert(Position::at(atom.rel, i));
                    }
                }
            }
        }
    }
    marked
}

/// Marked variables of one Σts tgd under a marking (Def. 8).
pub(crate) fn derive_marked_vars(marked: &BTreeSet<Position>, d: &Tgd) -> BTreeSet<Var> {
    let mut out: BTreeSet<Var> = d.existentials.iter().copied().collect();
    for atom in &d.premise.atoms {
        for (i, t) in atom.terms.iter().enumerate() {
            if let Term::Var(v) = t {
                if marked.contains(&Position::at(atom.rel, i)) {
                    out.insert(*v);
                }
            }
        }
    }
    out
}

/// Independently re-derive the three `C_tract` conditions (Def. 9).
pub(crate) fn derive_conditions(
    setting: &PdeSetting,
    marked: &BTreeSet<Position>,
) -> (bool, bool, bool) {
    let mut c1 = true;
    let mut c21 = true;
    let mut c22 = true;
    for d in setting.sigma_ts() {
        let mv = derive_marked_vars(marked, d);
        for v in &mv {
            if d.premise.occurrences_of(*v) > 1 {
                c1 = false;
            }
        }
        if d.premise.len() != 1 {
            c21 = false;
        }
        if !marked_pairs_ok(d, &mv) {
            c22 = false;
        }
    }
    (c1, c21, c22)
}

/// Condition 2.2 for one tgd: every pair of marked variables co-occurring
/// in an RHS conjunct co-occurs in an LHS conjunct or is absent from the
/// LHS entirely.
fn marked_pairs_ok(d: &Tgd, marked_vars: &BTreeSet<Var>) -> bool {
    let lhs_vars = d.premise.variables();
    for atom in &d.conclusion.atoms {
        let here: BTreeSet<Var> = atom
            .terms
            .iter()
            .filter_map(|t| match t {
                Term::Var(v) if marked_vars.contains(v) => Some(*v),
                _ => None,
            })
            .collect();
        let here: Vec<Var> = here.into_iter().collect();
        for a in 0..here.len() {
            for b in (a + 1)..here.len() {
                let (x, y) = (here[a], here[b]);
                let both_absent = !lhs_vars.contains(&x) && !lhs_vars.contains(&y);
                let co_occur = d.premise.atoms.iter().any(|p| {
                    let vs = p.variables();
                    vs.contains(&x) && vs.contains(&y)
                });
                if !both_absent && !co_occur {
                    return false;
                }
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// The independent checker.
// ---------------------------------------------------------------------------

/// Re-validate every witness of `cert` against `setting` without trusting
/// the planner. Accepts exactly the certificates the planner emits for
/// this setting (up to soundness-preserving details); rejects any edit to
/// a rank, a marking entry, a flag, a bound, a budget, or the routing.
fn check(setting: &PdeSetting, cert: &Certificate) -> Result<(), CertificateError> {
    if cert.version != CERTIFICATE_VERSION {
        return Err(CertificateError::Version {
            kind: Certificate::KIND,
            found: cert.version,
            expected: CERTIFICATE_VERSION,
        });
    }
    let schema = setting.schema();
    let forward = forward_tgds(setting);
    let graph = DependencyGraph::new(schema, &forward);

    // 1. Rank witness / special-cycle witness.
    let max_rank = if cert.chase.weakly_acyclic {
        verify_ranks(schema, &graph, &cert.chase)?
    } else {
        verify_special_cycle(schema, &graph, &cert.chase)?;
        0
    };

    // 2. Bound arithmetic (only meaningful when weakly acyclic).
    if cert.chase.weakly_acyclic {
        let params = bound_params(schema, &forward);
        let (value, fact, step) = evaluate_bound(schema, params, max_rank, cert.chase.adom_size);
        if (
            cert.chase.value_bound,
            cert.chase.fact_bound,
            cert.chase.step_bound,
        ) != (value, fact, step)
        {
            return Err(CertificateError::Bound(format!(
                "claimed (value, fact, step) = ({}, {}, {}), recomputed ({value}, {fact}, {step})",
                cert.chase.value_bound, cert.chase.fact_bound, cert.chase.step_bound
            )));
        }
        let degree = bound_degree(params, max_rank);
        if cert.chase.degree != degree {
            return Err(CertificateError::Bound(format!(
                "claimed degree {} but the Lemma 1 recurrence has degree {degree}",
                cert.chase.degree
            )));
        }
        if cert.chase.max_rank != max_rank {
            return Err(CertificateError::Bound(format!(
                "claimed max_rank {} but the rank witness tops out at {max_rank}",
                cert.chase.max_rank
            )));
        }
    }

    // 3. Termination section: replay the criterion trail, the witness,
    // and the hierarchy bounds, then pin its consistency with the
    // weak-acyclicity flag and adom above.
    crate::termination::verify_tgds(schema, &forward, &cert.chase.termination)?;
    let term_wa = cert.chase.termination.criterion == Some(TerminationCriterion::WeakAcyclicity);
    if term_wa != cert.chase.weakly_acyclic {
        return Err(CertificateError::Termination(format!(
            "termination criterion {:?} contradicts weakly_acyclic = {}",
            cert.chase.termination.criterion, cert.chase.weakly_acyclic
        )));
    }
    if cert.chase.termination.adom_size != cert.chase.adom_size {
        return Err(CertificateError::Termination(format!(
            "termination section evaluated at |adom| = {}, chase section at {}",
            cert.chase.termination.adom_size, cert.chase.adom_size
        )));
    }

    // 4. Marking fixpoint.
    verify_marking(setting, &cert.tract)?;

    // 5. C_tract flags and the counterexample.
    verify_ctract(setting, &cert.tract)?;

    // 6. Regime, predicted classes, recommended solver.
    let regime = derive_regime(setting, &cert.chase.termination);
    if cert.regime != regime {
        return Err(CertificateError::Regime(format!(
            "claimed regime '{}' but the setting shape derives '{regime}'",
            cert.regime
        )));
    }
    let (sol, certain) = predicted_classes(regime);
    if cert.sol_complexity != sol || cert.certain_complexity != certain {
        return Err(CertificateError::Regime(format!(
            "regime '{regime}' predicts SOL: {sol}, certain: {certain}; certificate says \
             SOL: {}, certain: {}",
            cert.sol_complexity, cert.certain_complexity
        )));
    }
    let solver = recommended_solver(regime);
    if cert.recommended_solver != solver {
        return Err(CertificateError::Regime(format!(
            "regime '{regime}' routes to {solver}, certificate recommends {}",
            cert.recommended_solver
        )));
    }

    // 7. Budget derivation.
    let budgets = derive_budgets(&cert.chase);
    if cert.budgets != budgets {
        return Err(CertificateError::Budget(format!(
            "claimed {:?}, derived {budgets:?}",
            cert.budgets
        )));
    }
    Ok(())
}

/// Check the rank witness: total coverage of the schema positions plus
/// the least-fixpoint equations `rank(q) = max(0, max over edges p→q of
/// rank(p) + special)`. Monotonicity (≥) along every edge already rules
/// out special cycles — a rank function cannot strictly increase around a
/// cycle — and the independent fixpoint recomputation pins each value.
/// Returns the verified maximum rank.
fn verify_ranks(
    schema: &Schema,
    graph: &DependencyGraph,
    chase: &ChaseCertificate,
) -> Result<usize, CertificateError> {
    let mut claimed: HashMap<Position, usize> = HashMap::new();
    for entry in &chase.ranks {
        let pos = entry.pos.resolve(schema).ok_or_else(|| {
            CertificateError::Rank(format!(
                "unknown position {}.{}",
                entry.pos.rel, entry.pos.attr
            ))
        })?;
        if claimed.insert(pos, entry.rank).is_some() {
            return Err(CertificateError::Rank(format!(
                "duplicate entry for {}.{}",
                entry.pos.rel, entry.pos.attr
            )));
        }
    }
    for p in schema.positions() {
        if !claimed.contains_key(&p) {
            return Err(CertificateError::Rank(format!(
                "no rank claimed for {}.{}",
                schema.name(p.rel),
                p.attr
            )));
        }
    }
    if !chase.special_cycle.is_empty() {
        return Err(CertificateError::Rank(
            "weakly acyclic certificate carries a special-cycle witness".into(),
        ));
    }
    // Monotonicity: any violation means the claimed assignment is not a
    // valid ranking at all.
    for e in graph.edges() {
        let need = claimed[&e.from] + usize::from(e.special);
        if claimed[&e.to] < need {
            return Err(CertificateError::Rank(format!(
                "edge {}.{} -> {}.{} ({}) needs rank >= {need}, claimed {}",
                schema.name(e.from.rel),
                e.from.attr,
                schema.name(e.to.rel),
                e.to.attr,
                if e.special { "special" } else { "ordinary" },
                claimed[&e.to]
            )));
        }
    }
    // Least fixpoint by relaxation from zero. Monotonicity above proved
    // there is no special cycle, so the relaxation converges; the claimed
    // ranks bound it from above, which caps the work.
    let positions: Vec<Position> = schema.positions().collect();
    let mut fix: BTreeMap<Position, usize> = positions.iter().map(|p| (*p, 0)).collect();
    let rounds = positions.len().saturating_add(2);
    for _ in 0..rounds {
        let mut changed = false;
        for e in graph.edges() {
            let cand = fix[&e.from] + usize::from(e.special);
            if fix[&e.to] < cand {
                fix.insert(e.to, cand);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (p, r) in &fix {
        if claimed[p] != *r {
            return Err(CertificateError::Rank(format!(
                "{}.{} claims rank {} but the least fixpoint gives {r}",
                schema.name(p.rel),
                p.attr,
                claimed[p]
            )));
        }
    }
    Ok(fix.values().copied().max().unwrap_or(0))
}

/// Check the special-cycle witness: every edge exists in the recomputed
/// graph, consecutive edges chain, the walk is closed, and at least one
/// edge is special.
fn verify_special_cycle(
    schema: &Schema,
    graph: &DependencyGraph,
    chase: &ChaseCertificate,
) -> Result<(), CertificateError> {
    if !chase.ranks.is_empty() {
        return Err(CertificateError::Rank(
            "non-weakly-acyclic certificate carries a rank witness".into(),
        ));
    }
    let walk = &chase.special_cycle;
    if walk.is_empty() {
        return Err(CertificateError::Rank(
            "non-weakly-acyclic claim needs a special-cycle witness".into(),
        ));
    }
    let resolve = |p: &PositionRef| {
        p.resolve(schema)
            .ok_or_else(|| CertificateError::Rank(format!("unknown position {}.{}", p.rel, p.attr)))
    };
    let edges: BTreeSet<(Position, Position, bool)> =
        graph.edges().map(|e| (e.from, e.to, e.special)).collect();
    let mut any_special = false;
    for (i, e) in walk.iter().enumerate() {
        let from = resolve(&e.from)?;
        let to = resolve(&e.to)?;
        if !edges.contains(&(from, to, e.special)) {
            return Err(CertificateError::Rank(format!(
                "witness edge {}.{} -> {}.{} is not in the dependency graph",
                e.from.rel, e.from.attr, e.to.rel, e.to.attr
            )));
        }
        let next = &walk[(i + 1) % walk.len()];
        if e.to != next.from {
            return Err(CertificateError::Rank(
                "witness edges do not chain into a closed walk".into(),
            ));
        }
        any_special |= e.special;
    }
    if !any_special {
        return Err(CertificateError::Rank(
            "witness cycle has no special edge".into(),
        ));
    }
    Ok(())
}

/// Check the marking witness against the Def. 8 fixpoint.
fn verify_marking(setting: &PdeSetting, tract: &TractCertificate) -> Result<(), CertificateError> {
    let schema = setting.schema();
    let derived = derive_marking(setting.sigma_st());
    let mut claimed = BTreeSet::new();
    for p in &tract.marked_positions {
        let pos = p.resolve(schema).ok_or_else(|| {
            CertificateError::Marking(format!("unknown position {}.{}", p.rel, p.attr))
        })?;
        claimed.insert(pos);
    }
    if claimed != derived {
        return Err(CertificateError::Marking(format!(
            "claimed {} marked position(s), Def. 8 derives {}",
            claimed.len(),
            derived.len()
        )));
    }
    if tract.marked_variables.len() != setting.sigma_ts().len() {
        return Err(CertificateError::Marking(format!(
            "marked-variable lists for {} tgd(s), Σts has {}",
            tract.marked_variables.len(),
            setting.sigma_ts().len()
        )));
    }
    for (i, d) in setting.sigma_ts().iter().enumerate() {
        let derived: BTreeSet<String> = derive_marked_vars(&derived, d)
            .iter()
            .map(ToString::to_string)
            .collect();
        let claimed: BTreeSet<String> = tract.marked_variables[i].iter().cloned().collect();
        if claimed != derived {
            return Err(CertificateError::Marking(format!(
                "ts-tgd #{i}: claimed marked variables {claimed:?}, derived {derived:?}"
            )));
        }
    }
    Ok(())
}

/// Check the `C_tract` flags and the named counterexample.
fn verify_ctract(setting: &PdeSetting, tract: &TractCertificate) -> Result<(), CertificateError> {
    let marked = derive_marking(setting.sigma_st());
    let (c1, c21, c22) = derive_conditions(setting, &marked);
    let in_ctract = c1 && (c21 || c22);
    let st_all_full = setting.sigma_st().iter().all(Tgd::is_full);
    let ts_all_lav = setting.sigma_ts().iter().all(Tgd::is_lav);
    let claims = (
        tract.condition1,
        tract.condition2_1,
        tract.condition2_2,
        tract.st_all_full,
        tract.ts_all_lav,
        tract.in_ctract,
    );
    let derived = (c1, c21, c22, st_all_full, ts_all_lav, in_ctract);
    if claims != derived {
        return Err(CertificateError::Ctract(format!(
            "claimed (1, 2.1, 2.2, full-st, lav-ts, in) = {claims:?}, derived {derived:?}"
        )));
    }
    match (&tract.counterexample, in_ctract) {
        (Some(_), true) => Err(CertificateError::Ctract(
            "certificate claims C_tract membership yet names a counterexample".into(),
        )),
        (None, false) => Err(CertificateError::Ctract(
            "outside C_tract but no counterexample dependency is named".into(),
        )),
        (None, true) => Ok(()),
        (Some(cx), false) => verify_counterexample(setting, &marked, cx),
    }
}

/// Re-check that the named counterexample actually violates its condition.
fn verify_counterexample(
    setting: &PdeSetting,
    marked: &BTreeSet<Position>,
    cx: &TractCounterexample,
) -> Result<(), CertificateError> {
    let Some(d) = setting.sigma_ts().get(cx.tgd_index) else {
        return Err(CertificateError::Ctract(format!(
            "counterexample names ts-tgd #{} but Σts has {}",
            cx.tgd_index,
            setting.sigma_ts().len()
        )));
    };
    let mv = derive_marked_vars(marked, d);
    match cx.kind.as_str() {
        "repeated-marked-variable" => {
            let [v] = cx.vars.as_slice() else {
                return Err(CertificateError::Ctract(
                    "repeated-marked-variable counterexample needs exactly one variable".into(),
                ));
            };
            let var = Var::new(v.clone());
            if !mv.contains(&var) || d.premise.occurrences_of(var) <= 1 {
                return Err(CertificateError::Ctract(format!(
                    "variable {v} does not witness a condition-1 violation in ts-tgd #{}",
                    cx.tgd_index
                )));
            }
            Ok(())
        }
        "bad-marked-pair" => {
            let [x, y] = cx.vars.as_slice() else {
                return Err(CertificateError::Ctract(
                    "bad-marked-pair counterexample needs exactly two variables".into(),
                ));
            };
            let (x, y) = (Var::new(x.clone()), Var::new(y.clone()));
            let pair: BTreeSet<Var> = [x, y].into_iter().collect();
            if !mv.contains(&x) || !mv.contains(&y) || !marked_pair_violates(d, &pair) {
                return Err(CertificateError::Ctract(format!(
                    "pair ({x}, {y}) does not witness a condition-2.2 violation in ts-tgd #{}",
                    cx.tgd_index
                )));
            }
            Ok(())
        }
        other => Err(CertificateError::Ctract(format!(
            "unknown counterexample kind '{other}'"
        ))),
    }
}

/// Does this specific pair of (marked) variables violate condition 2.2 in
/// `d`: co-occurs in an RHS conjunct, yet neither co-occurs in an LHS
/// conjunct nor is absent from the LHS entirely?
fn marked_pair_violates(d: &Tgd, pair: &BTreeSet<Var>) -> bool {
    let in_rhs_conjunct = d.conclusion.atoms.iter().any(|a| {
        let vs = a.variables();
        pair.iter().all(|v| vs.contains(v))
    });
    if !in_rhs_conjunct {
        return false;
    }
    let lhs_vars = d.premise.variables();
    let both_absent = pair.iter().all(|v| !lhs_vars.contains(v));
    let co_occur_lhs = d.premise.atoms.iter().any(|p| {
        let vs = p.variables();
        pair.iter().all(|v| vs.contains(v))
    });
    !both_absent && !co_occur_lhs
}

// ---------------------------------------------------------------------------
// JSON serialization.
// ---------------------------------------------------------------------------

impl Verifiable for Certificate {
    const KIND: &'static str = "plan";

    /// The certificate as the versioned JSON schema of `docs/PLAN.md`.
    fn to_json(&self) -> Json {
        let position = |p: &PositionRef| [("rel", p.rel.as_str().into()), ("attr", p.attr.into())];
        let strings = |xs: &[String]| xs.iter().map(Json::from).collect();
        let c = &self.chase;
        let ranks = c.ranks.iter().map(|r| {
            let rank = ("rank", r.rank.into());
            Json::from_iter(position(&r.pos).into_iter().chain([rank]))
        });
        let special_cycle = c.special_cycle.iter().map(|e| {
            Json::from_iter([
                ("from_rel", e.from.rel.as_str().into()),
                ("from_attr", e.from.attr.into()),
                ("to_rel", e.to.rel.as_str().into()),
                ("to_attr", e.to.attr.into()),
                ("special", e.special.into()),
            ])
        });
        let chase = Json::from_iter([
            ("weakly_acyclic", c.weakly_acyclic.into()),
            ("max_rank", c.max_rank.into()),
            ("degree", c.degree.into()),
            ("adom_size", c.adom_size.into()),
            ("value_bound", c.value_bound.into()),
            ("fact_bound", c.fact_bound.into()),
            ("step_bound", c.step_bound.into()),
            ("ranks", ranks.collect()),
            ("special_cycle", special_cycle.collect()),
            ("termination", c.termination.to_json()),
        ]);
        let t = &self.tract;
        let marked_positions = t
            .marked_positions
            .iter()
            .map(|p| Json::from_iter(position(p)));
        let counterexample = t.counterexample.as_ref().map(|cx| {
            let fields = [
                ("kind", cx.kind.as_str().into()),
                ("tgd_index", cx.tgd_index.into()),
                ("vars", strings(&cx.vars)),
            ];
            ("counterexample", Json::from_iter(fields))
        });
        let tract = [
            ("condition1", t.condition1.into()),
            ("condition2_1", t.condition2_1.into()),
            ("condition2_2", t.condition2_2.into()),
            ("st_all_full", t.st_all_full.into()),
            ("ts_all_lav", t.ts_all_lav.into()),
            ("in_ctract", t.in_ctract.into()),
            ("marked_positions", marked_positions.collect()),
            (
                "marked_variables",
                t.marked_variables.iter().map(|vs| strings(vs)).collect(),
            ),
        ];
        let b = &self.budgets;
        let budgets = Json::from_iter([
            ("chase_steps", b.chase_steps.into()),
            ("chase_facts", b.chase_facts.into()),
            ("search_nodes", b.search_nodes.into()),
            ("search_branches", b.search_branches.into()),
        ]);
        let solver = solver_kind_str(self.recommended_solver);
        Json::from_iter([
            ("version", self.version.into()),
            ("regime", self.regime.as_str().into()),
            ("sol_complexity", self.sol_complexity.as_str().into()),
            (
                "certain_complexity",
                self.certain_complexity.as_str().into(),
            ),
            ("recommended_solver", solver.into()),
            ("chase", chase),
            (
                "tract",
                Json::from_iter(tract.into_iter().chain(counterexample)),
            ),
            ("budgets", budgets),
        ])
    }

    fn from_json_value(v: &Json) -> Result<Certificate, String> {
        let top = v.as_obj("certificate")?;
        let version = top.get_num("version")?;
        let version = u32::try_from(version).map_err(|_| "version out of range".to_string())?;
        let regime = Regime::from_str(&top.get_str("regime")?).ok_or("unknown regime")?;
        let sol_complexity = ComplexityClass::from_str(&top.get_str("sol_complexity")?)
            .ok_or("unknown sol_complexity")?;
        let certain_complexity = ComplexityClass::from_str(&top.get_str("certain_complexity")?)
            .ok_or("unknown certain_complexity")?;
        let recommended_solver = solver_kind_from_str(&top.get_str("recommended_solver")?)
            .ok_or("unknown recommended_solver")?;

        let cv = top.field_of("chase")?;
        let co = cv.as_obj("chase")?;
        let mut ranks = Vec::new();
        for item in cv.get_arr("ranks")? {
            let o = item.as_obj("ranks[]")?;
            ranks.push(RankEntry {
                pos: PositionRef {
                    rel: o.get_str("rel")?,
                    attr: o.get_num("attr")?,
                },
                rank: o.get_num("rank")?,
            });
        }
        let mut special_cycle = Vec::new();
        for item in cv.get_arr("special_cycle")? {
            let o = item.as_obj("special_cycle[]")?;
            special_cycle.push(CycleEdge {
                from: PositionRef {
                    rel: o.get_str("from_rel")?,
                    attr: o.get_num("from_attr")?,
                },
                to: PositionRef {
                    rel: o.get_str("to_rel")?,
                    attr: o.get_num("to_attr")?,
                },
                special: o.get_bool("special")?,
            });
        }
        let termination = TerminationCertificate::from_json_value(co.field_of("termination")?)?;
        let chase = ChaseCertificate {
            weakly_acyclic: co.get_bool("weakly_acyclic")?,
            ranks,
            max_rank: co.get_num("max_rank")?,
            degree: co.get_num("degree")?,
            adom_size: co.get_num("adom_size")?,
            value_bound: co.get_num("value_bound")?,
            fact_bound: co.get_num("fact_bound")?,
            step_bound: co.get_num("step_bound")?,
            special_cycle,
            termination,
        };

        let tv = top.field_of("tract")?;
        let to = tv.as_obj("tract")?;
        let mut marked_positions = Vec::new();
        for item in tv.get_arr("marked_positions")? {
            let o = item.as_obj("marked_positions[]")?;
            marked_positions.push(PositionRef {
                rel: o.get_str("rel")?,
                attr: o.get_num("attr")?,
            });
        }
        let marked_variables = tv
            .get_arr("marked_variables")?
            .iter()
            .map(|vs| vs.as_strings("marked_variables[]"))
            .collect::<Result<_, _>>()?;
        let counterexample = match to.try_get("counterexample") {
            None => None,
            Some(cxv) => {
                let o = cxv.as_obj("counterexample")?;
                Some(TractCounterexample {
                    kind: o.get_str("kind")?,
                    tgd_index: o.get_num("tgd_index")?,
                    vars: o.field_of("vars")?.as_strings("counterexample vars")?,
                })
            }
        };
        let tract = TractCertificate {
            marked_positions,
            marked_variables,
            condition1: to.get_bool("condition1")?,
            condition2_1: to.get_bool("condition2_1")?,
            condition2_2: to.get_bool("condition2_2")?,
            st_all_full: to.get_bool("st_all_full")?,
            ts_all_lav: to.get_bool("ts_all_lav")?,
            in_ctract: to.get_bool("in_ctract")?,
            counterexample,
        };

        let bo = top.field_of("budgets")?.as_obj("budgets")?;
        let budgets = Budgets {
            chase_steps: bo.get_num("chase_steps")?,
            chase_facts: bo.get_num("chase_facts")?,
            search_nodes: bo.get_num("search_nodes")?,
            search_branches: bo.get_num("search_branches")?,
        };

        Ok(Certificate {
            version,
            regime,
            sol_complexity,
            certain_complexity,
            recommended_solver,
            chase,
            tract,
            budgets,
        })
    }

    /// Only the setting matters: the active-domain size the bounds were
    /// evaluated at is part of the certificate.
    fn verify(&self, setting: &PdeSetting, _input: &Instance) -> Result<(), CertificateError> {
        check(setting, self)
    }

    fn summary(&self) -> String {
        format!("regime {}, solver {}", self.regime, self.recommended_solver)
    }
}
