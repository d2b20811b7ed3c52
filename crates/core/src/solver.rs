//! Solver façade: pick the right algorithm from the setting's
//! classification and report what ran.
//!
//! | Setting shape                           | Algorithm (module)          |
//! |-----------------------------------------|-----------------------------|
//! | Σts = ∅ (data exchange)                 | chase ([`crate::data_exchange`]) |
//! | Σt = ∅, (Σst, Σts) ∈ `C_tract`          | Fig. 3 ([`crate::tractable`])    |
//! | Σt = ∅, outside `C_tract`               | null-assignment search ([`crate::assignment`]) |
//! | Σt ≠ ∅                                  | witness-chase search ([`crate::generic`]) |
//!
//! The first two are polynomial; the last two are complete exponential
//! searches, matching the NP-completeness results of §3.

use crate::assignment;
use crate::data_exchange;
use crate::generic::{self, GenericLimits, GenericOutcome};
use crate::setting::PdeSetting;
use crate::tractable;
use pde_chase::{ChaseEngine, ChaseLimits, ChaseOutcome, ChaseStats, DepSchedule};
use pde_relational::{Instance, RelId, Tuple};
use pde_runtime::{isolate, EngineError, Governor, GovernorReport, StopReason};
use std::fmt;
use std::time::{Duration, Instant};

/// Which algorithm the façade selected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolverKind {
    /// Plain data-exchange chase (Σts = ∅).
    DataExchange,
    /// The polynomial `ExistsSolution` of Fig. 3.
    Tractable,
    /// Complete null-assignment search (Σt = ∅, outside `C_tract`).
    AssignmentSearch,
    /// Complete nondeterministic-witness chase search (Σt ≠ ∅).
    GenericSearch,
}

impl fmt::Display for SolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverKind::DataExchange => write!(f, "data-exchange chase"),
            SolverKind::Tractable => write!(f, "ExistsSolution (C_tract)"),
            SolverKind::AssignmentSearch => write!(f, "null-assignment search"),
            SolverKind::GenericSearch => write!(f, "witness-chase search"),
        }
    }
}

/// Search counters of the complete (exponential) solvers, normalized
/// across the null-assignment and witness-chase searches so every solver
/// kind reports real numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchSummary {
    /// Search-tree branches (nodes) explored.
    pub branches: usize,
    /// Complete candidate solutions reached and checked at leaves.
    pub candidates_checked: usize,
    /// Branches cut before expansion (determined-violation prunes,
    /// permanent-Σts prunes, memo hits, and egd constant conflicts).
    pub prunes: usize,
}

impl SearchSummary {
    /// Export the counters into a [`pde_trace::MetricsRegistry`] under the
    /// `search.` prefix.
    pub fn export_metrics(&self, reg: &mut pde_trace::MetricsRegistry) {
        let u = |x: usize| u64::try_from(x).unwrap_or(u64::MAX);
        reg.add("search.branches", u(self.branches));
        reg.add("search.candidates_checked", u(self.candidates_checked));
        reg.add("search.prunes", u(self.prunes));
    }
}

/// Result of [`decide`].
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// The algorithm that ran.
    pub kind: SolverKind,
    /// `Some(answer)` when decided; `None` when a resource limit or the
    /// governor stopped the run early.
    pub exists: Option<bool>,
    /// A materialized solution, when one was found.
    pub witness: Option<Instance>,
    /// Why the `C_tract` path answered "no": the unsatisfiable source
    /// demand of [`tractable::TractableOutcome`]. `None` for every other
    /// outcome and solver kind.
    pub unsatisfiable_demand: Option<Vec<(RelId, Tuple)>>,
    /// Wall-clock time of the solve call.
    pub elapsed: Duration,
    /// Chase engine counters (rounds, triggers fired / skipped-by-delta,
    /// egd merges) whenever the selected algorithm ran a chase engine:
    /// the data-exchange and `C_tract` paths, and the null-assignment
    /// search (which absorbs its Σst chase). `None` only for the generic
    /// witness-chase search, whose chase steps are inlined into the
    /// branch nodes counted by `search`.
    pub chase_stats: Option<ChaseStats>,
    /// Search counters when the selected algorithm is one of the complete
    /// searches; `None` for the polynomial paths.
    pub search: Option<SearchSummary>,
    /// Why the run is undecided, when the governor stopped it (`exists`
    /// is `None` in that case). `None` for decided runs and for plain
    /// limit truncations.
    pub undecided: Option<StopReason>,
    /// True when the primary engine attempt panicked or tripped an
    /// injected fault and this report came from the retry on the naive
    /// oracle engine.
    pub engine_fallback: bool,
    /// Governor counters accumulated over the whole solve (all zeros /
    /// `None` for ungoverned runs that never checked).
    pub governor: GovernorReport,
}

impl SolveReport {
    /// The chase engine that produced this answer: the naive oracle when
    /// the solve fell back to it, the default engine otherwise.
    pub fn engine(&self) -> ChaseEngine {
        if self.engine_fallback {
            ChaseEngine::Naive
        } else {
            pde_chase::default_chase_engine()
        }
    }

    /// Export every counter this report carries into a
    /// [`pde_trace::MetricsRegistry`]: chase counters under `chase.`,
    /// search counters under `search.`, governor counters under
    /// `governor.`, witness storage gauges under `storage.`, plus
    /// `solve.elapsed_ns`. This is the canonical source for the
    /// machine-readable run report.
    pub fn export_metrics(&self, reg: &mut pde_trace::MetricsRegistry) {
        if let Some(cs) = &self.chase_stats {
            cs.export_metrics(reg);
        }
        if let Some(s) = &self.search {
            s.export_metrics(reg);
        }
        self.governor.export_metrics(reg);
        if let Some(w) = &self.witness {
            let stats = w.storage_stats();
            reg.set("storage.facts", stats.facts as u64);
            reg.set("storage.heap_bytes", stats.heap_bytes as u64);
            reg.set("storage.bytes_per_fact", stats.bytes_per_fact() as u64);
            reg.set("storage.slots", stats.slots as u64);
            reg.set("storage.index_entries", stats.index_entries as u64);
        }
        let elapsed_ns = u64::try_from(self.elapsed.as_nanos()).unwrap_or(u64::MAX);
        reg.set("solve.elapsed_ns", elapsed_ns);
        // Also observed as a histogram so aggregated reports (batch runs,
        // serve sessions folding many solves) carry the distribution, not
        // just the last gauge value.
        reg.observe("solve.elapsed_ns", elapsed_ns);
    }
}

/// Why a pde-core solver refused to answer: the one error type of the
/// façade, Fig. 3's `ExistsSolution`, both complete searches, the
/// data-exchange chase, certain answers, enumeration and Lemma 2's shrink.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The input instance contains labeled nulls.
    InputNotGround,
    /// The setting has target constraints; the solver requires Σt = ∅.
    HasTargetConstraints,
    /// The setting has target-to-source constraints: not a data exchange
    /// setting.
    HasTargetToSource,
    /// The setting is outside `C_tract` (and the solver checks the class).
    NotInCtract,
    /// A chase exceeded its resource limits (target tgds not weakly
    /// acyclic; for the single-pass Σst and Σts chases this cannot happen,
    /// but the engine's guard is surfaced rather than swallowed).
    ChaseDidNotTerminate,
    /// The query mentions non-target relations.
    QueryNotOverTarget,
    /// A disjunctive dependency failed validation.
    InvalidDependency(String),
    /// The candidate handed to Lemma 2's shrink is not a solution.
    NotASolution,
    /// The solution space could not be exhausted within the limits, so the
    /// certain-answer intersection is not known to be complete.
    Undecided,
    /// The runtime governor stopped a chase or a search (deadline, memory
    /// budget, cancellation, or an injected fault). The question is
    /// *undecided*, not answered; the façade reports it as such.
    Stopped(StopReason),
    /// An engine attempt panicked and the panic was contained at the
    /// solver boundary (after exhausting the engine-fallback retry).
    Engine(EngineError),
}

impl SolveError {
    /// The refusal for a chase that did not succeed: a governor stop stays
    /// distinguishable from a plain limit trip.
    pub(crate) fn chase_refusal(outcome: ChaseOutcome) -> SolveError {
        match outcome {
            ChaseOutcome::Stopped { reason } => SolveError::Stopped(reason),
            _ => SolveError::ChaseDidNotTerminate,
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::InputNotGround => write!(f, "input instance contains nulls"),
            SolveError::HasTargetConstraints => write!(
                f,
                "ExistsSolution requires a setting with no target constraints"
            ),
            SolveError::HasTargetToSource => write!(
                f,
                "setting has target-to-source constraints; not data exchange"
            ),
            SolveError::NotInCtract => write!(
                f,
                "setting is outside C_tract; use the complete search solver"
            ),
            SolveError::ChaseDidNotTerminate => write!(f, "chase resource limit exceeded"),
            SolveError::QueryNotOverTarget => write!(
                f,
                "certain answers are defined for queries over the target schema"
            ),
            SolveError::InvalidDependency(m) => write!(f, "invalid dependency: {m}"),
            SolveError::NotASolution => write!(f, "candidate is not a solution"),
            SolveError::Undecided => write!(f, "solution enumeration hit its resource limit"),
            SolveError::Stopped(reason) => write!(f, "chase stopped: {reason}"),
            SolveError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// A precomputed routing decision plus resource budgets, so repeated
/// solves of one setting skip the per-call classification work
/// (`PdeSetting::classification` rebuilds the dependency graph and the
/// `C_tract` report every time).
///
/// Obtain one with [`SolvePlan::for_setting`] (runs the classification
/// once), or from a verified static complexity certificate (the
/// `pde-analysis` planner derives the budgets from Lemma 1's chase bound).
#[derive(Clone, Copy, Debug)]
pub struct SolvePlan {
    /// The algorithm to dispatch to, decided ahead of time.
    pub kind: SolverKind,
    /// Budgets for the complete searches.
    pub limits: GenericLimits,
    /// Budget/pre-sizing for the chase-based paths (the data-exchange
    /// solver chases Σst ∪ Σt under these limits).
    pub chase_limits: ChaseLimits,
}

impl SolvePlan {
    /// Classify `setting` once and fix the routing, with default budgets.
    pub fn for_setting(setting: &PdeSetting) -> SolvePlan {
        let kind = if setting.is_data_exchange() {
            SolverKind::DataExchange
        } else if setting.classification().tractable() {
            SolverKind::Tractable
        } else if setting.has_no_target_constraints() {
            SolverKind::AssignmentSearch
        } else {
            SolverKind::GenericSearch
        };
        SolvePlan {
            kind,
            limits: GenericLimits::default(),
            chase_limits: ChaseLimits::default(),
        }
    }
}

/// Decide `SOL(P)` for `input`, automatically selecting the algorithm
/// (default budgets, no governor).
pub fn decide(setting: &PdeSetting, input: &Instance) -> Result<SolveReport, SolveError> {
    decide_governed_scheduled(
        setting,
        input,
        &SolvePlan::for_setting(setting),
        None,
        &Governor::unlimited(),
    )
}

/// Decide `SOL(P)` following a precomputed [`SolvePlan`] under a runtime
/// [`Governor`]: no re-classification, chase structures bounded by the
/// plan's chase limits, search budgets taken from the plan.
///
/// The caller is responsible for the plan matching the setting (pair a
/// certificate-derived plan with `verify_certificate` first); a
/// mismatched plan surfaces as the solver's refusal (say
/// [`SolveError::HasTargetConstraints`]), never a wrong answer.
///
/// Deadlines, memory budgets, and cancellation are enforced cooperatively
/// inside the chase engines and search solvers, and a budget exhaustion
/// surfaces as a report with `exists: None` and `undecided: Some(reason)`
/// — never a wrong yes/no answer and never a poisoned input (engines
/// consume clones).
///
/// `schedule` is an optional stratified [`DepSchedule`] for the chase of
/// the data-exchange path (derived by `pde-analysis`'s `forward_schedule`
/// over this setting's forward dependencies). The other solver kinds, and
/// the naive fallback engine, ignore it.
///
/// Every engine attempt runs behind panic isolation. When the semi-naive
/// engine panics or trips an injected fault, the solve is retried once on
/// the naive oracle engine (`engine_fallback` marks such reports); a
/// panic surviving the retry becomes [`SolveError::Engine`].
pub fn decide_governed_scheduled(
    setting: &PdeSetting,
    input: &Instance,
    plan: &SolvePlan,
    schedule: Option<&DepSchedule>,
    governor: &Governor,
) -> Result<SolveReport, SolveError> {
    let start = Instant::now();
    let primary = pde_chase::default_chase_engine();
    let first = isolate(|| attempt(setting, input, plan, primary, governor, schedule));
    // Retry-with-degradation: a panic or an injected fault on the primary
    // engine gets one retry on the naive oracle engine. A solver's refusal
    // and a genuine budget stop are deterministic — retrying would only
    // spend more budget on the same outcome.
    let retryable = match &first {
        Err(_) => true,
        Ok(Ok(r)) => matches!(r.undecided, Some(StopReason::FaultInjected { .. })),
        Ok(Err(_)) => false,
    };
    let outcome = if retryable {
        match isolate(|| attempt(setting, input, plan, ChaseEngine::Naive, governor, schedule)) {
            Ok(res) => res.map(|mut r| {
                r.engine_fallback = true;
                r
            }),
            Err(e) => Err(SolveError::Engine(e)),
        }
    } else {
        match first {
            Ok(res) => res,
            Err(e) => Err(SolveError::Engine(e)),
        }
    };
    outcome.map(|mut r| {
        r.elapsed = start.elapsed();
        r.governor = governor.report();
        r
    })
}

/// One engine attempt: dispatch to the governed solver for the plan's
/// kind and normalize the outcome into a [`SolveReport`] (a governor stop
/// becomes `undecided`; every other refusal passes through unchanged).
fn attempt(
    setting: &PdeSetting,
    input: &Instance,
    plan: &SolvePlan,
    engine: ChaseEngine,
    governor: &Governor,
    schedule: Option<&DepSchedule>,
) -> Result<SolveReport, SolveError> {
    let start = Instant::now();
    let report = |exists, witness, chase_stats, search, undecided| SolveReport {
        kind: plan.kind,
        exists,
        witness,
        unsatisfiable_demand: None,
        elapsed: start.elapsed(),
        chase_stats,
        search,
        undecided,
        engine_fallback: false,
        governor: GovernorReport::default(),
    };

    let decided = match plan.kind {
        SolverKind::DataExchange => data_exchange::solve_data_exchange_governed_scheduled(
            setting,
            input,
            plan.chase_limits,
            engine,
            governor,
            schedule,
        )
        .map(|out| {
            report(
                Some(out.exists),
                out.canonical,
                Some(out.chase_stats),
                None,
                None,
            )
        }),
        SolverKind::Tractable => {
            tractable::exists_solution_governed(setting, input, engine, governor).map(|out| {
                SolveReport {
                    unsatisfiable_demand: out.unsatisfiable_demand,
                    ..report(
                        Some(out.exists),
                        out.witness,
                        Some(out.stats.chase_stats),
                        None,
                        None,
                    )
                }
            })
        }
        SolverKind::AssignmentSearch => {
            assignment::solve_governed(setting, input, engine, governor).map(|out| {
                let search = SearchSummary {
                    branches: out.stats.nodes,
                    candidates_checked: out.stats.candidates_checked,
                    prunes: out.stats.prunes,
                };
                report(
                    Some(out.exists),
                    out.witness,
                    Some(out.stats.chase_stats),
                    Some(search),
                    None,
                )
            })
        }
        SolverKind::GenericSearch => generic::solve_governed(setting, input, plan.limits, governor)
            .map(|out| {
                let gs = out.stats();
                let search = SearchSummary {
                    branches: gs.nodes,
                    candidates_checked: gs.candidates_checked,
                    prunes: gs.memo_hits + gs.ts_prunes + gs.egd_failures,
                };
                let (exists, witness, undecided) = match out {
                    GenericOutcome::Solved { witness, .. } => (Some(true), Some(witness), None),
                    GenericOutcome::NoSolution { .. } => (Some(false), None, None),
                    GenericOutcome::Unknown { .. } => (None, None, None),
                    GenericOutcome::Stopped { reason, .. } => (None, None, Some(reason)),
                };
                report(exists, witness, None, Some(search), undecided)
            }),
    };
    match decided {
        Err(SolveError::Stopped(reason)) => Ok(report(None, None, None, None, Some(reason))),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::is_solution;
    use pde_relational::parse_instance;

    #[test]
    fn selects_data_exchange() {
        let p = PdeSetting::parse("source E/2; target H/2;", "E(x, y) -> H(x, y)", "", "").unwrap();
        let input = parse_instance(p.schema(), "E(a, b).").unwrap();
        let r = decide(&p, &input).unwrap();
        assert_eq!(r.kind, SolverKind::DataExchange);
        assert_eq!(r.exists, Some(true));
    }

    #[test]
    fn selects_tractable() {
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, z), E(z, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, a).").unwrap();
        let r = decide(&p, &input).unwrap();
        assert_eq!(r.kind, SolverKind::Tractable);
        assert_eq!(r.exists, Some(true));
        assert!(is_solution(&p, &input, &r.witness.unwrap()));
    }

    #[test]
    fn tractable_no_carries_the_unsatisfiable_demand() {
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, z), E(z, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, b). E(b, c).").unwrap();
        let r = decide(&p, &input).unwrap();
        assert_eq!(r.exists, Some(false));
        let demand = r.unsatisfiable_demand.expect("a tractable no is explained");
        assert_eq!(
            demand,
            [(p.schema().rel_id("E").unwrap(), Tuple::consts(["a", "c"]))]
        );
        let ok = parse_instance(p.schema(), "E(a, a).").unwrap();
        assert!(decide(&p, &ok).unwrap().unsatisfiable_demand.is_none());
    }

    #[test]
    fn selects_assignment_search() {
        let p = PdeSetting::parse(
            "source D/2; source S/2; source E/2; target P/4;",
            "D(x, y) -> exists z, w . P(x, z, y, w)",
            "P(x, z, y, w) -> E(z, w); P(x, z, y, w), P(x, z2, y2, w2) -> S(z, z2)",
            "",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "D(a1, a2). S(u, u). E(u, u).").unwrap();
        let r = decide(&p, &input).unwrap();
        assert_eq!(r.kind, SolverKind::AssignmentSearch);
        assert_eq!(r.exists, Some(true));
    }

    #[test]
    fn selects_generic_search() {
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, b).").unwrap();
        let r = decide(&p, &input).unwrap();
        assert_eq!(r.kind, SolverKind::GenericSearch);
        assert_eq!(r.exists, Some(true));
    }

    #[test]
    fn all_kinds_display() {
        for k in [
            SolverKind::DataExchange,
            SolverKind::Tractable,
            SolverKind::AssignmentSearch,
            SolverKind::GenericSearch,
        ] {
            assert!(!format!("{k}").is_empty());
        }
    }

    /// One `(schema, Σst, Σts, Σt, input)` per solver kind, in
    /// [`SolverKind`] order.
    const ONE_PER_KIND: [(&str, &str, &str, &str, &str); 4] = [
        (
            "source E/2; target H/2;",
            "E(x, y) -> H(x, y)",
            "",
            "",
            "E(a, b).",
        ),
        (
            "source E/2; target H/2;",
            "E(x, z), E(z, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "",
            "E(a, a).",
        ),
        (
            "source D/2; source S/2; source E/2; target P/4;",
            "D(x, y) -> exists z, w . P(x, z, y, w)",
            "P(x, z, y, w) -> E(z, w); P(x, z, y, w), P(x, z2, y2, w2) -> S(z, z2)",
            "",
            "D(a1, a2). S(u, u). E(u, u).",
        ),
        (
            "source E/2; target H/2;",
            "E(x, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "H(x, y), H(x, z) -> y = z",
            "E(a, b).",
        ),
    ];

    #[test]
    fn a_null_in_the_input_is_refused_by_every_solver_kind() {
        for (schema, st, ts, t, _) in ONE_PER_KIND {
            let p = PdeSetting::parse(schema, st, ts, t).unwrap();
            let input = parse_instance(p.schema(), "E(?0, a).").unwrap();
            let plan = SolvePlan::for_setting(&p);
            let err = decide_governed_scheduled(&p, &input, &plan, None, &Governor::unlimited())
                .unwrap_err();
            assert_eq!(err, SolveError::InputNotGround, "{:?}", plan.kind);
            assert_eq!(err.to_string(), "input instance contains nulls");
        }
    }

    #[test]
    fn governed_deadline_reports_undecided_for_every_solver_kind() {
        use pde_runtime::GovernorConfig;
        for (schema, st, ts, t, src) in ONE_PER_KIND {
            let p = PdeSetting::parse(schema, st, ts, t).unwrap();
            let input = parse_instance(p.schema(), src).unwrap();
            let plan = SolvePlan::for_setting(&p);
            let governor = Governor::new(GovernorConfig {
                deadline: Some(Duration::ZERO),
                ..GovernorConfig::default()
            });
            let before = input.clone();
            let r = decide_governed_scheduled(&p, &input, &plan, None, &governor).unwrap();
            assert_eq!(r.exists, None, "{:?} must be undecided", plan.kind);
            assert!(
                matches!(r.undecided, Some(StopReason::DeadlineExceeded { .. })),
                "{:?}: {:?}",
                plan.kind,
                r.undecided
            );
            assert!(r.governor.stops >= 1);
            assert_eq!(input, before, "input must not be poisoned");
        }
    }

    #[test]
    fn ungoverned_decide_still_reports_governor_zeros() {
        let p = PdeSetting::parse("source E/2; target H/2;", "E(x, y) -> H(x, y)", "", "").unwrap();
        let input = parse_instance(p.schema(), "E(a, b).").unwrap();
        let r = decide(&p, &input).unwrap();
        assert_eq!(r.exists, Some(true));
        assert!(!r.engine_fallback);
        assert_eq!(r.engine(), ChaseEngine::Seminaive);
        assert!(r.undecided.is_none());
        assert_eq!(r.governor.stops, 0);
        assert_eq!(r.governor.deadline_remaining, None);
    }

    #[cfg(feature = "fault-injection")]
    mod faults {
        use super::*;
        use pde_runtime::{FaultPlan, GovernorConfig};

        fn chase_heavy_setting() -> (PdeSetting, Instance) {
            let p = PdeSetting::parse(
                "source E/2; target H/2;",
                "E(x, y) -> H(x, y)",
                "",
                "H(x, y), H(y, z) -> H(x, z)",
            )
            .unwrap();
            let input =
                parse_instance(p.schema(), "E(a, b). E(b, c). E(c, d). E(d, e). E(e, a).").unwrap();
            (p, input)
        }

        #[test]
        fn panic_in_trigger_falls_back_to_naive_engine() {
            let (p, input) = chase_heavy_setting();
            let plan = SolvePlan::for_setting(&p);
            let ungoverned = decide(&p, &input).unwrap();
            let governor = Governor::with_faults(
                GovernorConfig::default(),
                FaultPlan {
                    panic_in_trigger_at_step: Some(1),
                    ..FaultPlan::default()
                },
            );
            let r = decide_governed_scheduled(&p, &input, &plan, None, &governor).unwrap();
            // The fault is one-shot: the retry on the naive engine decides.
            assert!(r.engine_fallback);
            assert_eq!(r.engine(), ChaseEngine::Naive);
            assert_eq!(r.exists, ungoverned.exists);
        }

        #[test]
        fn alloc_fault_retries_then_decides() {
            let (p, input) = chase_heavy_setting();
            let plan = SolvePlan::for_setting(&p);
            let governor = Governor::with_faults(
                GovernorConfig::default(),
                FaultPlan {
                    fail_alloc_at_step: Some(1),
                    ..FaultPlan::default()
                },
            );
            let r = decide_governed_scheduled(&p, &input, &plan, None, &governor).unwrap();
            assert!(r.engine_fallback);
            assert_eq!(r.exists, Some(true));
            assert!(r.governor.faults_fired >= 1);
        }

        #[test]
        fn cancel_fault_is_a_genuine_stop_no_retry() {
            let (p, input) = chase_heavy_setting();
            let plan = SolvePlan::for_setting(&p);
            let governor = Governor::with_faults(
                GovernorConfig::default(),
                FaultPlan {
                    cancel_at_round: Some(1),
                    ..FaultPlan::default()
                },
            );
            let r = decide_governed_scheduled(&p, &input, &plan, None, &governor).unwrap();
            // Cancellation (even injected) is not an engine failure — it
            // must not be retried away.
            assert!(!r.engine_fallback);
            assert_eq!(r.exists, None);
            assert!(matches!(r.undecided, Some(StopReason::Cancelled)));
        }
    }
}
