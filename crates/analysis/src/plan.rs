//! The planner: derive a static complexity [`Certificate`] from a
//! `PdeSetting` alone.
//!
//! The planner runs the library analyses once — position ranks over the
//! dependency graph of Σst ∪ Σt (Def. 5), the Lemma 1 chase bound, the
//! Def. 8 marking, and the Def. 9 `C_tract` classifier — and packages the
//! results with witnesses into a certificate. The certificate then powers
//! `pde_core::decide_governed_scheduled` (no per-call re-classification,
//! budgets replacing hard-coded limits) and can be saved as JSON and
//! re-verified later by [`crate::Verifiable::verify`], whose
//! independent re-derivations deliberately do *not* share the code paths
//! used here.

use crate::certificate::{
    bound_degree, bound_params, derive_budgets, derive_regime, forward_tgds, predicted_classes,
    recommended_solver, Certificate, ChaseCertificate, CycleEdge, PositionRef, RankEntry,
    TractCertificate, TractCounterexample, CERTIFICATE_VERSION,
};
use pde_constraints::{chase_bound, classify, CtractViolation, DependencyGraph, Marking};
use pde_core::PdeSetting;

/// Build the certificate for `setting`, with concrete chase bounds
/// evaluated at an active domain of `adom_size` values.
pub fn plan_setting(setting: &PdeSetting, adom_size: usize) -> Certificate {
    let schema = setting.schema();
    let forward = forward_tgds(setting);
    let graph = DependencyGraph::new(schema, &forward);
    let termination = crate::termination::analyze_tgds(schema, &forward, adom_size);

    let chase = match graph.ranks() {
        Some(rank_map) => {
            let ranks: Vec<RankEntry> = schema
                .positions()
                .map(|p| RankEntry {
                    pos: PositionRef::of(schema, p),
                    rank: rank_map[&p],
                })
                .collect();
            let max_rank = ranks.iter().map(|r| r.rank).max().unwrap_or(0);
            let bound = chase_bound(schema, &forward, adom_size)
                .expect("ranks exist, so the set is weakly acyclic and has a bound");
            ChaseCertificate {
                weakly_acyclic: true,
                ranks,
                max_rank,
                degree: bound_degree(bound_params(schema, &forward), max_rank),
                adom_size,
                value_bound: bound.value_bound,
                fact_bound: bound.fact_bound,
                step_bound: bound.step_bound,
                special_cycle: Vec::new(),
                termination: termination.clone(),
            }
        }
        None => {
            let cycle = graph
                .find_special_cycle()
                .expect("no ranks, so a special cycle exists");
            ChaseCertificate {
                weakly_acyclic: false,
                ranks: Vec::new(),
                max_rank: 0,
                degree: 0,
                adom_size,
                value_bound: 0,
                fact_bound: 0,
                step_bound: 0,
                special_cycle: cycle
                    .into_iter()
                    .map(|e| CycleEdge {
                        from: PositionRef::of(schema, e.from),
                        to: PositionRef::of(schema, e.to),
                        special: e.special,
                    })
                    .collect(),
                termination: termination.clone(),
            }
        }
    };

    let report = classify(schema, setting.sigma_st(), setting.sigma_ts());
    let marking = Marking::of_st_tgds(setting.sigma_st());
    let marked_positions: Vec<PositionRef> = schema
        .positions()
        .filter(|p| marking.is_marked(*p))
        .map(|p| PositionRef::of(schema, p))
        .collect();
    let marked_variables: Vec<Vec<String>> = setting
        .sigma_ts()
        .iter()
        .map(|d| {
            marking
                .marked_variables(d)
                .iter()
                .map(ToString::to_string)
                .collect()
        })
        .collect();
    let counterexample = if report.in_ctract() {
        None
    } else if let Some(CtractViolation::RepeatedMarkedVariable { tgd_index, var, .. }) =
        report.condition1.first()
    {
        Some(TractCounterexample {
            kind: "repeated-marked-variable".into(),
            tgd_index: *tgd_index,
            vars: vec![var.to_string()],
        })
    } else {
        // Condition 1 holds, so being outside C_tract means both 2.1 and
        // 2.2 fail; a bad marked pair is the informative witness (a
        // multi-literal LHS alone never excludes membership).
        report.condition2_2.iter().find_map(|v| match v {
            CtractViolation::BadMarkedPair { tgd_index, x, y } => Some(TractCounterexample {
                kind: "bad-marked-pair".into(),
                tgd_index: *tgd_index,
                vars: vec![x.to_string(), y.to_string()],
            }),
            _ => None,
        })
    };
    let tract = TractCertificate {
        marked_positions,
        marked_variables,
        condition1: report.holds1(),
        condition2_1: report.holds2_1(),
        condition2_2: report.holds2_2(),
        st_all_full: report.st_all_full,
        ts_all_lav: report.ts_all_lav,
        in_ctract: report.in_ctract(),
        counterexample,
    };

    let regime = derive_regime(setting, &chase.termination);
    let (sol_complexity, certain_complexity) = predicted_classes(regime);
    let budgets = derive_budgets(&chase);
    Certificate {
        version: CERTIFICATE_VERSION,
        regime,
        sol_complexity,
        certain_complexity,
        recommended_solver: recommended_solver(regime),
        chase,
        tract,
        budgets,
    }
}

/// Human-readable rendering of a certificate (the `pde plan` text format).
pub fn render_certificate_text(cert: &Certificate) -> String {
    let mut out = String::new();
    out.push_str(&format!("regime: {}\n", cert.regime));
    out.push_str(&format!(
        "complexity: SOL(P) {}; certain answers {}\n",
        cert.sol_complexity, cert.certain_complexity
    ));
    out.push_str(&format!("solver: {}\n", cert.recommended_solver));
    let c = &cert.chase;
    if c.weakly_acyclic {
        out.push_str(&format!(
            "chase: weakly acyclic; max rank {}; N(|I|) degree {}\n",
            c.max_rank, c.degree
        ));
        out.push_str(&format!(
            "chase bound at |adom| = {}: values {}, facts {}, steps {}\n",
            c.adom_size, c.value_bound, c.fact_bound, c.step_bound
        ));
        for r in &c.ranks {
            if r.rank > 0 {
                out.push_str(&format!(
                    "  rank {}: {}.{}\n",
                    r.rank, r.pos.rel, r.pos.attr
                ));
            }
        }
    } else {
        out.push_str("chase: NOT weakly acyclic; no Lemma 1 bound. Special cycle:\n");
        for e in &c.special_cycle {
            out.push_str(&format!(
                "  {}.{} -> {}.{}{}\n",
                e.from.rel,
                e.from.attr,
                e.to.rel,
                e.to.attr,
                if e.special { " (special)" } else { "" }
            ));
        }
    }
    out.push_str(&crate::termination::render_termination_text(&c.termination));
    let t = &cert.tract;
    out.push_str(&format!(
        "C_tract: {} (condition 1: {}, 2.1: {}, 2.2: {}; st all full: {}, ts all LAV: {})\n",
        if t.in_ctract { "in" } else { "out" },
        yn(t.condition1),
        yn(t.condition2_1),
        yn(t.condition2_2),
        yn(t.st_all_full),
        yn(t.ts_all_lav)
    ));
    if !t.marked_positions.is_empty() {
        let list: Vec<String> = t
            .marked_positions
            .iter()
            .map(|p| format!("{}.{}", p.rel, p.attr))
            .collect();
        out.push_str(&format!("marked positions: {}\n", list.join(", ")));
    }
    if let Some(cx) = &t.counterexample {
        out.push_str(&format!(
            "counterexample: ts-tgd #{} {} ({})\n",
            cx.tgd_index,
            cx.kind,
            cx.vars.join(", ")
        ));
    }
    let b = &cert.budgets;
    out.push_str(&format!(
        "budgets: chase steps {}, chase facts {}, search nodes {}, search branches {}\n",
        b.chase_steps, b.chase_facts, b.search_nodes, b.search_branches
    ));
    out
}

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::{CertificateError, Regime, Verifiable};
    use pde_core::SolverKind;
    use pde_relational::Instance;

    /// Check `cert` against `setting`; the input instance plays no part.
    fn verify(setting: &PdeSetting, cert: &Certificate) -> Result<(), CertificateError> {
        cert.verify(setting, &Instance::new(setting.schema().clone()))
    }

    fn example1() -> PdeSetting {
        PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, z), E(z, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "",
        )
        .unwrap()
    }

    fn clique_like() -> PdeSetting {
        PdeSetting::parse(
            "source D/2; source S/2; source E/2; target P/4;",
            "D(x, y) -> exists z, w . P(x, z, y, w)",
            "P(x, z, y, w) -> E(z, w); P(x, z, y, w), P(x, z2, y2, w2) -> S(z, z2)",
            "",
        )
        .unwrap()
    }

    fn non_terminating() -> PdeSetting {
        PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "H(x, y) -> exists z . H(y, z)",
        )
        .unwrap()
    }

    #[test]
    fn planner_output_verifies() {
        for (setting, adom) in [(example1(), 4), (clique_like(), 7), (non_terminating(), 3)] {
            let cert = plan_setting(&setting, adom);
            verify(&setting, &cert).expect("planner output must verify");
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        for setting in [example1(), clique_like(), non_terminating()] {
            let cert = plan_setting(&setting, 5);
            let back = Certificate::from_json(&cert.to_json().to_string()).unwrap();
            assert_eq!(back, cert);
            verify(&setting, &back).unwrap();
        }
    }

    #[test]
    fn mutated_rank_is_rejected() {
        let setting = example1();
        let mut cert = plan_setting(&setting, 4);
        cert.chase.ranks[0].rank += 1;
        assert!(matches!(
            verify(&setting, &cert),
            Err(CertificateError::Rank(_))
        ));
    }

    #[test]
    fn mutated_marking_is_rejected() {
        let setting = clique_like();
        let mut cert = plan_setting(&setting, 4);
        cert.tract.marked_positions.pop();
        assert!(matches!(
            verify(&setting, &cert),
            Err(CertificateError::Marking(_))
        ));
    }

    #[test]
    fn mutated_flag_is_rejected() {
        let setting = clique_like();
        let mut cert = plan_setting(&setting, 4);
        cert.tract.in_ctract = true;
        assert!(matches!(
            verify(&setting, &cert),
            Err(CertificateError::Ctract(_))
        ));
    }

    #[test]
    fn mutated_budget_is_rejected() {
        let setting = example1();
        let mut cert = plan_setting(&setting, 4);
        cert.budgets.search_nodes += 1;
        assert!(matches!(
            verify(&setting, &cert),
            Err(CertificateError::Budget(_))
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let setting = example1();
        let mut cert = plan_setting(&setting, 4);
        cert.version = CERTIFICATE_VERSION + 1;
        assert!(matches!(
            verify(&setting, &cert),
            Err(CertificateError::Version { .. })
        ));
    }

    #[test]
    fn tampered_cycle_witness_is_rejected() {
        let setting = non_terminating();
        let mut cert = plan_setting(&setting, 3);
        assert_eq!(cert.regime, Regime::NonTerminating);
        for e in &mut cert.chase.special_cycle {
            e.special = false;
        }
        assert!(matches!(
            verify(&setting, &cert),
            Err(CertificateError::Rank(_))
        ));
    }

    #[test]
    fn counterexample_is_named_and_checked() {
        let cert = plan_setting(&clique_like(), 4);
        let cx = cert.tract.counterexample.as_ref().expect("outside C_tract");
        assert_eq!(cx.kind, "bad-marked-pair");
        assert_eq!(cx.tgd_index, 1);
        // Pointing the witness at the wrong tgd must be caught.
        let mut bad = cert.clone();
        bad.tract.counterexample.as_mut().unwrap().tgd_index = 0;
        assert!(matches!(
            verify(&clique_like(), &bad),
            Err(CertificateError::Ctract(_))
        ));
    }

    #[test]
    fn routing_matches_the_solver_facade() {
        for setting in [example1(), clique_like(), non_terminating()] {
            let cert = plan_setting(&setting, 4);
            let plan = cert.to_solve_plan();
            assert_eq!(plan.kind, pde_core::SolvePlan::for_setting(&setting).kind);
        }
    }

    #[test]
    fn data_exchange_and_tractable_regimes() {
        let de =
            PdeSetting::parse("source E/2; target H/2;", "E(x, y) -> H(x, y)", "", "").unwrap();
        let cert = plan_setting(&de, 4);
        assert_eq!(cert.regime, Regime::DataExchange);
        assert_eq!(cert.recommended_solver, SolverKind::DataExchange);
        verify(&de, &cert).unwrap();

        let cert = plan_setting(&example1(), 4);
        assert_eq!(cert.regime, Regime::Tractable);
        assert_eq!(cert.recommended_solver, SolverKind::Tractable);
    }

    #[test]
    fn text_rendering_mentions_the_essentials() {
        let cert = plan_setting(&example1(), 4);
        let text = render_certificate_text(&cert);
        assert!(text.contains("regime: tractable"));
        assert!(text.contains("C_tract: in"));
        assert!(text.contains("budgets:"));
    }

    #[test]
    fn governor_config_derives_memory_budget_from_fact_bound() {
        use crate::certificate::{GOVERNOR_BYTES_PER_FACT, GOVERNOR_SLACK_BYTES};
        let cert = plan_setting(&example1(), 4);
        assert!(cert.chase.weakly_acyclic);
        let cfg = cert.derived_governor_config();
        assert_eq!(
            cfg.memory_budget_bytes,
            Some(cert.chase.fact_bound * GOVERNOR_BYTES_PER_FACT + GOVERNOR_SLACK_BYTES)
        );
        // Static derivation never sets operator policy.
        assert!(cfg.deadline.is_none());
        assert!(cfg.cancel.is_none());
    }

    #[test]
    fn governor_config_is_unbounded_without_weak_acyclicity() {
        let cert = plan_setting(&non_terminating(), 3);
        assert!(!cert.chase.weakly_acyclic);
        assert_eq!(cert.derived_governor_config().memory_budget_bytes, None);
    }

    #[test]
    fn derived_budget_admits_the_actual_chase_result() {
        // A governed run under the plan-derived memory budget must decide,
        // not stop: the budget is calibrated to dominate any instance the
        // certified chase can reach.
        use pde_runtime::Governor;
        let setting = example1();
        let input =
            pde_relational::parse_instance(setting.schema(), "E(a, a). E(a, b). E(b, a).").unwrap();
        let cert = plan_setting(&setting, input.active_domain().len());
        let governor = Governor::new(cert.derived_governor_config());
        let report = pde_core::decide_governed_scheduled(
            &setting,
            &input,
            &cert.to_solve_plan(),
            None,
            &governor,
        )
        .unwrap();
        assert!(report.undecided.is_none(), "{:?}", report.undecided);
        // E(b, b) is missing, so the forced H(b, b) has no Σts backing: a
        // definite "no", reached without tripping the derived budget.
        assert_eq!(report.exists, Some(false));
    }
}
