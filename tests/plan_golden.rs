//! Golden certificates for the paper workloads.
//!
//! Each test pins the *static* verdicts — regime, complexity class for
//! `SOL(P)` and certain answers, and the routed solver — that `pde plan`
//! derives for a fixture the paper discusses, and checks that the
//! independent verifier accepts the planner's certificate. A change in
//! any verdict is a semantic change to the analyzer and must be made
//! deliberately, golden file and all.
//!
//! The file also hosts the depgraph regression test (ranks and weak
//! acyclicity must come from the same traversal and agree) because the
//! constraints crate cannot depend on the workloads crate.

use pde_analysis::{plan_setting, Certificate, ComplexityClass, Regime, Verifiable};
use pde_constraints::DependencyGraph;
use pde_core::{PdeSetting, SolverKind};
use pde_relational::Instance;
use pde_workloads::{boundary, clique, full, lav, paper};

/// Plan at a fixed small active-domain size, verify, and return the
/// certificate. Every golden certificate must pass the independent
/// checker — a planner/checker disagreement is a bug in one of them.
fn planned(setting: &PdeSetting) -> Certificate {
    let cert = plan_setting(setting, 4);
    cert.verify(setting, &Instance::new(setting.schema().clone()))
        .expect("planner output passes the independent checker");
    cert
}

#[track_caller]
fn expect(
    setting: &PdeSetting,
    regime: Regime,
    sol: ComplexityClass,
    certain: ComplexityClass,
    solver: SolverKind,
) -> Certificate {
    let cert = planned(setting);
    assert_eq!(cert.regime, regime, "regime");
    assert_eq!(cert.sol_complexity, sol, "SOL(P) class");
    assert_eq!(cert.certain_complexity, certain, "certain-answers class");
    assert_eq!(cert.recommended_solver, solver, "routed solver");
    cert
}

#[test]
fn example1_is_tractable() {
    let cert = expect(
        &paper::example1_setting(),
        Regime::Tractable,
        ComplexityClass::PTime,
        ComplexityClass::InConp,
        SolverKind::Tractable,
    );
    // Σst is full, so nothing is marked and membership is vacuous.
    assert!(cert.tract.marked_positions.is_empty());
    assert!(cert.tract.in_ctract && cert.tract.counterexample.is_none());
    assert_eq!(cert.chase.max_rank, 0, "no special edges at all");
}

#[test]
fn marked_example_is_tractable_with_marks() {
    let cert = expect(
        &paper::marked_example_setting(),
        Regime::Tractable,
        ComplexityClass::PTime,
        ComplexityClass::InConp,
        SolverKind::Tractable,
    );
    // Σst: S(x1,x2) → ∃y T(x1,y) marks exactly the second position of T.
    let marked: Vec<String> = cert
        .tract
        .marked_positions
        .iter()
        .map(|p| format!("{}.{}", p.rel, p.attr))
        .collect();
    assert_eq!(marked, ["T.1"]);
    assert!(cert.tract.condition1, "no marked variable repeats");
    assert!(cert.tract.condition2_1, "Σts is single-literal");
}

#[test]
fn exact_view_is_tractable() {
    expect(
        &paper::exact_view_setting(),
        Regime::Tractable,
        ComplexityClass::PTime,
        ComplexityClass::InConp,
        SolverKind::Tractable,
    );
}

#[test]
fn clique_reduction_is_outside_ctract() {
    let cert = expect(
        &clique::clique_setting(),
        Regime::OutsideCtract,
        ComplexityClass::NpComplete,
        ComplexityClass::ConpComplete,
        SolverKind::AssignmentSearch,
    );
    // Theorem 3's hardness gadget: the S-consistency tgds pair two marked
    // positions of P in their conclusion without a shared premise atom.
    let cex = cert.tract.counterexample.expect("a named counterexample");
    assert_eq!(cex.kind, "bad-marked-pair");
    assert!(!cert.tract.condition2_1 && !cert.tract.condition2_2);
}

#[test]
fn lav_and_full_workloads_are_tractable() {
    // Corollary 2 (LAV Σts) and Corollary 1 (full Σst) respectively.
    let c = expect(
        &lav::lav_setting(),
        Regime::Tractable,
        ComplexityClass::PTime,
        ComplexityClass::InConp,
        SolverKind::Tractable,
    );
    assert!(c.tract.ts_all_lav);
    let c = expect(
        &full::full_setting(),
        Regime::Tractable,
        ComplexityClass::PTime,
        ComplexityClass::InConp,
        SolverKind::Tractable,
    );
    assert!(c.tract.st_all_full);
}

#[test]
fn boundary_settings_cross_into_hardness() {
    // §4: the moment Σt is non-empty, even egds or full tgds alone make
    // SOL(P) NP-complete although Σst/Σts still satisfy the conditions.
    expect(
        &boundary::egd_boundary_setting(),
        Regime::EgdBoundary,
        ComplexityClass::NpComplete,
        ComplexityClass::ConpComplete,
        SolverKind::GenericSearch,
    );
    expect(
        &boundary::full_tgd_boundary_setting(),
        Regime::FullTgdBoundary,
        ComplexityClass::NpComplete,
        ComplexityClass::ConpComplete,
        SolverKind::GenericSearch,
    );
}

#[test]
fn threecol_plain_fragment_is_data_exchange() {
    // The §4 3-COL reduction needs a *disjunctive* Σts, which is outside
    // the planner's input language (`DisjunctiveProblem`, not
    // `PdeSetting`). Its plain fragment — same schema and Σst, no Σts —
    // is classical data exchange and poly-time; the golden point is that
    // disjunction alone carries the hardness.
    let plain = PdeSetting::parse(
        "source E/2; source R/1; source B/1; source G/1; target E2/2; target C/2;",
        "E(x, y) -> exists u . C(x, u); E(x, y) -> E2(x, y)",
        "",
        "",
    )
    .expect("plain fragment is well-formed");
    expect(
        &plain,
        Regime::DataExchange,
        ComplexityClass::PTime,
        ComplexityClass::PTime,
        SolverKind::DataExchange,
    );
}

#[test]
fn non_terminating_setting_gets_a_cycle_witness() {
    let setting = PdeSetting::parse(
        "source E/2; target H/2;",
        "E(x, y) -> H(x, y)",
        "",
        "H(x, y) -> exists z . H(y, z)",
    )
    .expect("well-formed");
    let cert = planned(&setting);
    assert_eq!(cert.regime, Regime::NonTerminating);
    assert_eq!(cert.sol_complexity, ComplexityClass::NoBound);
    assert_eq!(cert.recommended_solver, SolverKind::GenericSearch);
    assert!(!cert.chase.weakly_acyclic);
    assert!(cert.chase.special_cycle.iter().any(|e| e.special));
}

/// Regression test for the depgraph refactor: `ranks()` and
/// `is_weakly_acyclic()` are now answered by one traversal and must agree
/// on every workload setting (and the planner's verdict must match both).
#[test]
fn ranks_agree_with_weak_acyclicity_on_all_workloads() {
    let settings = [
        paper::example1_setting(),
        paper::marked_example_setting(),
        paper::exact_view_setting(),
        clique::clique_setting(),
        clique::clique_setting_paper_literal(),
        lav::lav_setting(),
        full::full_setting(),
        boundary::egd_boundary_setting(),
        boundary::full_tgd_boundary_setting(),
    ];
    for setting in &settings {
        let forward: Vec<_> = setting
            .sigma_st()
            .iter()
            .cloned()
            .chain(setting.target_tgds().cloned())
            .collect();
        let g = DependencyGraph::new(setting.schema(), &forward);
        assert_eq!(g.ranks().is_some(), g.is_weakly_acyclic());
        assert_eq!(
            plan_setting(setting, 2).chase.weakly_acyclic,
            g.is_weakly_acyclic()
        );
    }
}
