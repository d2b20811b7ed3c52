//! Classic data exchange (Σts = ∅) — the \[FKMP\] baseline the paper
//! contrasts against in §3.
//!
//! When there are no target-to-source constraints, the chase of `(I, J)`
//! with Σst ∪ Σt decides everything in polynomial time (for weakly acyclic
//! Σt): it fails iff no solution exists, and on success its result is a
//! *universal* solution — it maps homomorphically into every solution, so
//! the ground answers of a union of conjunctive queries evaluated on it
//! are exactly the certain answers.

use crate::setting::PdeSetting;
use crate::solver::SolveError;
use pde_chase::{null_gen_for, ChaseEngine, ChaseLimits, ChaseOutcome, ChaseStats, DepSchedule};
use pde_constraints::Dependency;
use pde_relational::{Instance, Peer, UnionQuery, Value};
use pde_runtime::Governor;
use std::collections::BTreeSet;

/// Outcome of the data-exchange chase.
#[derive(Clone, Debug)]
pub struct DataExchangeOutcome {
    /// Does a solution exist (the chase did not fail)?
    pub exists: bool,
    /// On success: the canonical universal solution (combined instance;
    /// its target part may contain nulls).
    pub canonical: Option<Instance>,
    /// Chase steps taken.
    pub chase_steps: usize,
    /// Engine counters from the chase (rounds, triggers, merges).
    pub chase_stats: ChaseStats,
}

/// Chase-based existence test and canonical-solution construction
/// (default limits, default engine, no governor).
pub fn solve_data_exchange(
    setting: &PdeSetting,
    input: &Instance,
) -> Result<DataExchangeOutcome, SolveError> {
    solve_data_exchange_governed_scheduled(
        setting,
        input,
        ChaseLimits::default(),
        pde_chase::default_chase_engine(),
        &Governor::unlimited(),
        None,
    )
}

/// Chase `input` with Σst ∪ Σt under explicit limits (certificate-derived
/// budgets, or tight caps for experiments that measure divergence), chase
/// engine, runtime governor, and optional stratified [`DepSchedule`] over
/// the forward dependency list (Σst tgds first, then Σt — the order
/// `pde-analysis`'s `forward_schedule` indexes). Only the semi-naive
/// engine consumes the schedule. A governor stop surfaces as
/// [`SolveError::Stopped`] — never as a yes/no answer.
pub fn solve_data_exchange_governed_scheduled(
    setting: &PdeSetting,
    input: &Instance,
    limits: ChaseLimits,
    engine: ChaseEngine,
    governor: &Governor,
    schedule: Option<&DepSchedule>,
) -> Result<DataExchangeOutcome, SolveError> {
    if !setting.is_data_exchange() {
        return Err(SolveError::HasTargetToSource);
    }
    if !input.is_ground() {
        return Err(SolveError::InputNotGround);
    }
    let gen = null_gen_for(input);
    let deps: Vec<Dependency> = setting
        .sigma_st()
        .iter()
        .cloned()
        .map(Dependency::Tgd)
        .chain(setting.sigma_t().iter().cloned())
        .collect();
    let res = pde_chase::chase_governed_scheduled(
        input.clone(),
        &deps,
        pde_chase::WitnessMode::FreshNulls(&gen),
        limits,
        engine,
        governor,
        schedule,
    );
    match res.outcome {
        ChaseOutcome::Success => Ok(DataExchangeOutcome {
            exists: true,
            canonical: Some(res.instance),
            chase_steps: res.steps,
            chase_stats: res.stats,
        }),
        ChaseOutcome::Failure { .. } => Ok(DataExchangeOutcome {
            exists: false,
            canonical: None,
            chase_steps: res.steps,
            chase_stats: res.stats,
        }),
        outcome => Err(SolveError::chase_refusal(outcome)),
    }
}

/// Certain answers in data exchange: ground answers of the UCQ on the
/// canonical universal solution (\[FKMP\] Theorem 4.2). Returns `None` when
/// no solution exists (vacuous certainty).
pub fn certain_answers_data_exchange(
    setting: &PdeSetting,
    input: &Instance,
    query: &UnionQuery,
) -> Result<Option<BTreeSet<Vec<Value>>>, SolveError> {
    if !query
        .disjuncts
        .iter()
        .all(|q| q.over_peer(setting.schema(), Peer::Target))
    {
        return Err(SolveError::QueryNotOverTarget);
    }
    let out = solve_data_exchange(setting, input)?;
    Ok(out.canonical.map(|c| {
        query
            .eval(&c)
            .into_iter()
            .filter(|t| t.iter().all(Value::is_const))
            .collect()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde_relational::{parse_instance, parse_query};

    fn de_setting() -> PdeSetting {
        PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> exists z . H(x, z), H(z, y)",
            "",
            "",
        )
        .unwrap()
    }

    #[test]
    fn solutions_always_exist_without_target_constraints() {
        // The §3 contrast: data exchange with Σt = ∅ is trivial.
        let p = de_setting();
        for src in ["E(a, b).", "E(a, b). E(b, c).", ""] {
            let input = parse_instance(p.schema(), src).unwrap();
            let out = solve_data_exchange(&p, &input).unwrap();
            assert!(out.exists, "{src}");
        }
    }

    #[test]
    fn canonical_solution_is_a_solution() {
        let p = de_setting();
        let input = parse_instance(p.schema(), "E(a, b).").unwrap();
        let out = solve_data_exchange(&p, &input).unwrap();
        let canon = out.canonical.unwrap();
        assert!(crate::solution::is_solution(&p, &input, &canon));
        assert_eq!(canon.nulls().len(), 1);
    }

    #[test]
    fn egd_failure_means_no_solution() {
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> H(x, y)",
            "",
            "H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, b). E(a, c).").unwrap();
        let out = solve_data_exchange(&p, &input).unwrap();
        assert!(!out.exists);
        // Cross-check against the generic search solver.
        let gen =
            crate::generic::solve(&p, &input, crate::generic::GenericLimits::default()).unwrap();
        assert_eq!(gen.decided(), Some(false));
    }

    #[test]
    fn certain_answers_via_canonical_solution() {
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> exists z . H(x, z), H(z, y)",
            "",
            "",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, b).").unwrap();
        let q = parse_query(p.schema(), "q(x, y) :- H(x, z), H(z, y)")
            .unwrap()
            .into();
        let ans = certain_answers_data_exchange(&p, &input, &q)
            .unwrap()
            .unwrap();
        assert!(ans.contains(&vec![Value::constant("a"), Value::constant("b")]));
        // Answers through the null are not ground, hence not certain.
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn rejects_pde_settings() {
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, a).").unwrap();
        assert_eq!(
            solve_data_exchange(&p, &input).unwrap_err(),
            SolveError::HasTargetToSource
        );
    }

    #[test]
    fn governed_deadline_is_undecided_not_answered() {
        use pde_runtime::{GovernorConfig, StopReason};
        use std::time::Duration;
        let p = de_setting();
        let input = parse_instance(p.schema(), "E(a, b).").unwrap();
        let governor = Governor::new(GovernorConfig {
            deadline: Some(Duration::ZERO),
            ..GovernorConfig::default()
        });
        let err = solve_data_exchange_governed_scheduled(
            &p,
            &input,
            ChaseLimits::default(),
            pde_chase::default_chase_engine(),
            &governor,
            None,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SolveError::Stopped(StopReason::DeadlineExceeded { .. })
        ));
        assert!(err.to_string().contains("deadline"));
    }

    #[test]
    fn weak_acyclicity_guard() {
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> H(x, y)",
            "",
            "H(x, y) -> exists z . H(y, z)",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, b).").unwrap();
        let err = solve_data_exchange_governed_scheduled(
            &p,
            &input,
            ChaseLimits::tight(100),
            pde_chase::default_chase_engine(),
            &Governor::unlimited(),
            None,
        )
        .unwrap_err();
        assert_eq!(err, SolveError::ChaseDidNotTerminate);
    }
}
