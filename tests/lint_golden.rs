//! Golden lint tests: each paper workload triggers exactly the diagnostic
//! codes its complexity classification predicts.
//!
//! Assertions pin the *warning-and-above* code multiset. `Note`-level
//! diagnostics (e.g. `PDE018` wildcard hints on projection tgds) are
//! deliberately unconstrained: they never affect exit codes and may grow
//! as the analyzer learns new hints.

use pde_analysis::{
    analyze_disjunctive, analyze_setting, AnalysisInput, Code, Diagnostic, Group, RenderContext,
    Severity,
};
use pde_constraints::parser::parse_dependencies;
use pde_core::split_sections;
use pde_relational::parse_schema;
use pde_workloads::{boundary, clique, paper, threecol};
use std::sync::Arc;

/// The codes of all diagnostics at `Warning` severity or above, in the
/// analyzer's deterministic order.
fn warnings_of(diags: &[Diagnostic]) -> Vec<Code> {
    diags
        .iter()
        .filter(|d| d.severity >= Severity::Warning)
        .map(|d| d.code)
        .collect()
}

#[test]
fn example1_is_clean() {
    let diags = analyze_setting(&paper::example1_setting());
    assert_eq!(warnings_of(&diags), vec![], "diagnostics: {diags:?}");
}

#[test]
fn clique_setting_violates_ctract() {
    let diags = analyze_setting(&clique::clique_setting());
    let warnings = warnings_of(&diags);
    assert!(
        warnings.contains(&Code::OutsideCtract),
        "expected PDE002, got {warnings:?}"
    );
    assert!(
        warnings.iter().all(|c| *c == Code::OutsideCtract),
        "CLIQUE should trigger only PDE002 at warning level, got {warnings:?}"
    );
    assert!(diags.iter().all(|d| d.severity < Severity::Error));
}

#[test]
fn paper_literal_clique_setting_also_violates_ctract() {
    let diags = analyze_setting(&clique::clique_setting_paper_literal());
    assert!(warnings_of(&diags).contains(&Code::OutsideCtract));
}

#[test]
fn egd_boundary_flags_target_egds() {
    let diags = analyze_setting(&boundary::egd_boundary_setting());
    // Two target egds => two PDE003 warnings, and nothing else at
    // warning level (the Σt gate suppresses PDE002 here).
    assert_eq!(
        warnings_of(&diags),
        vec![Code::TargetEgdBoundary, Code::TargetEgdBoundary],
        "diagnostics: {diags:?}"
    );
    let refs: Vec<_> = diags
        .iter()
        .filter(|d| d.code == Code::TargetEgdBoundary)
        .map(|d| d.constraint.expect("boundary diags name a constraint"))
        .collect();
    assert!(refs.iter().all(|r| r.group == Group::T));
}

#[test]
fn full_tgd_boundary_flags_full_target_tgds() {
    let diags = analyze_setting(&boundary::full_tgd_boundary_setting());
    assert_eq!(
        warnings_of(&diags),
        vec![Code::FullTargetTgdBoundary, Code::FullTargetTgdBoundary],
        "diagnostics: {diags:?}"
    );
}

#[test]
fn non_weakly_acyclic_target_tgds_are_an_error() {
    let schema = Arc::new(parse_schema("source E/2; target H/2;").expect("schema"));
    let sigma_st = pde_constraints::parser::parse_tgds(&schema, "E(x, y) -> H(x, y)").unwrap();
    let sigma_t = parse_dependencies(&schema, "H(x, y) -> exists z . H(y, z)").unwrap();
    let input = AnalysisInput::from_parts(schema, sigma_st, Vec::new(), sigma_t);
    let diags = input.analyze();
    let errors: Vec<_> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    // PDE001 plus its PDE052 companion: every criterion of the
    // termination hierarchy fails on this self-feeding dependency.
    assert_eq!(errors.len(), 2, "diagnostics: {diags:?}");
    assert_eq!(errors[0].code, Code::WeakAcyclicityViolation);
    assert_eq!(errors[1].code, Code::AllTerminationCriteriaFail);
    // The witness cycle is named in the rendered message, and the
    // diagnostic points at the Σt dependency on the cycle.
    assert!(
        errors[0].message.contains("witness cycle"),
        "message: {}",
        errors[0].message
    );
    assert_eq!(
        errors[0].constraint.map(|c| (c.group, c.index)),
        Some((Group::T, 0))
    );
}

#[test]
fn disjunctive_sigma_ts_is_reported() {
    let problem = threecol::threecol_problem();
    let diags = analyze_disjunctive(problem.schema(), problem.sigma_ts());
    let warnings = warnings_of(&diags);
    assert_eq!(warnings, vec![Code::DisjunctiveTsBoundary]);
}

const DEMO_BUNDLE: &str = "\
%schema
source E/2; target H/2;

%st
E(x, y) -> H(x, y)

%t
# a non-terminating self-feeding dependency
H(x, y) -> exists z . H(y, z)
";

#[test]
fn text_rendering_resolves_spans_to_file_positions() {
    let sources = split_sections(DEMO_BUNDLE).expect("bundle splits");
    let input = AnalysisInput::from_sources(&sources).expect("bundle parses");
    let diags = input.analyze();
    let ctx = RenderContext {
        path: "demo.pde",
        sources: &sources,
    };
    let text = pde_analysis::render_text(&diags, Some(&ctx));
    assert!(
        text.contains("error[PDE001]"),
        "unexpected rendering:\n{text}"
    );
    // The offending Σt dependency sits on file line 9 (1-based), past a
    // comment line that the section line map must account for.
    assert!(
        text.contains("demo.pde:9:1"),
        "unexpected rendering:\n{text}"
    );
    assert!(
        text.contains("error[PDE052]"),
        "unexpected rendering:\n{text}"
    );
    assert!(text.contains("2 error(s)"), "unexpected rendering:\n{text}");
}

#[test]
fn json_rendering_is_stable() {
    let sources = split_sections(DEMO_BUNDLE).expect("bundle splits");
    let input = AnalysisInput::from_sources(&sources).expect("bundle parses");
    let diags = input.analyze();
    let ctx = RenderContext {
        path: "demo.pde",
        sources: &sources,
    };
    let json = pde_analysis::render_json(&diags, Some(&ctx)).to_string();
    assert!(json.contains("\"code\":\"PDE001\""), "json:\n{json}");
    assert!(json.contains("\"severity\":\"error\""), "json:\n{json}");
    assert!(json.contains("\"line\":9"), "json:\n{json}");
    assert!(json.contains("\"code\":\"PDE052\""), "json:\n{json}");
    assert!(json.contains("\"counts\":{\"error\":2"), "json:\n{json}");
}
