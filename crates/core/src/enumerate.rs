//! Solution enumeration: list distinct (minimal-family) solutions.
//!
//! Both complete solvers internally enumerate a family of solutions with
//! the covering property (every solution contains a homomorphic image of a
//! family member). This module exposes that stream as a first-class API —
//! deduplicated up to null renaming, optionally cored, capped at a limit —
//! for exploration, debugging, and the `solution_space` example.

use crate::assignment::{self, DisjunctiveProblem};
use crate::generic::{self, GenericLimits};
use crate::setting::PdeSetting;
use crate::solver::SolveError;
use pde_relational::{core_of, Instance};
use std::collections::HashSet;
use std::ops::ControlFlow;

/// Options for [`enumerate_solutions`].
#[derive(Clone, Copy, Debug)]
pub struct EnumerateOptions {
    /// Stop after this many distinct solutions.
    pub max_solutions: usize,
    /// Replace each solution by its core before deduplication (only
    /// applied when Σt contains no tgds; see
    /// [`crate::solution::core_solution`]).
    pub core: bool,
    /// Node limits for the generic search (settings with Σt ≠ ∅).
    pub limits: GenericLimits,
}

impl Default for EnumerateOptions {
    fn default() -> Self {
        EnumerateOptions {
            max_solutions: 100,
            core: false,
            limits: GenericLimits::default(),
        }
    }
}

/// The outcome: the distinct solutions found (sorted smallest-first) and
/// whether the family was exhausted within the limits.
#[derive(Clone, Debug)]
pub struct SolutionFamily {
    /// Distinct solutions, ascending by fact count.
    pub solutions: Vec<Instance>,
    /// Was the enumeration exhaustive (no limit cut it short)?
    pub exhaustive: bool,
}

/// Enumerate distinct solutions of the minimal family for `input` in
/// `setting`.
pub fn enumerate_solutions(
    setting: &PdeSetting,
    input: &Instance,
    options: EnumerateOptions,
) -> Result<SolutionFamily, SolveError> {
    let mut seen: HashSet<String> = HashSet::new();
    let mut solutions: Vec<Instance> = Vec::new();
    let core_allowed = options.core && setting.target_tgds().next().is_none();
    let mut truncated = false;
    let mut sink = |sol: &Instance| -> ControlFlow<()> {
        let candidate = if core_allowed {
            core_of(sol)
        } else {
            sol.clone()
        };
        if seen.insert(crate::generic::canonical_key(&candidate)) {
            solutions.push(candidate);
        }
        if solutions.len() >= options.max_solutions {
            truncated = true;
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };

    let exhausted = if setting.has_no_target_constraints() {
        let problem = DisjunctiveProblem::from_setting(setting)?;
        assignment::for_each_solution(&problem, input, &mut sink)?;
        !truncated
    } else {
        let (_, ex) = generic::for_each_solution(setting, input, options.limits, &mut sink)?;
        ex && !truncated
    };

    solutions.sort_by_key(Instance::fact_count);
    Ok(SolutionFamily {
        solutions,
        exhaustive: exhausted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::is_solution;
    use pde_relational::parse_instance;

    fn marked_example() -> PdeSetting {
        PdeSetting::parse(
            "source S/2; target T/2;",
            "S(x1, x2) -> exists y . T(x1, y)",
            "T(x1, x2) -> exists w . S(w, x2)",
            "",
        )
        .unwrap()
    }

    #[test]
    fn enumerates_distinct_solutions() {
        let p = marked_example();
        // S(a, b), S(c, b): T(a, ?) and T(c, ?) must map into column 2 of
        // S, i.e. both nulls go to b — plus Keep is never viable here.
        let input = parse_instance(p.schema(), "S(a, b). S(c, b).").unwrap();
        let fam = enumerate_solutions(&p, &input, EnumerateOptions::default()).unwrap();
        assert!(fam.exhaustive);
        assert!(!fam.solutions.is_empty());
        for s in &fam.solutions {
            assert!(is_solution(&p, &input, s));
        }
        // Sorted ascending by size.
        for w in fam.solutions.windows(2) {
            assert!(w[0].fact_count() <= w[1].fact_count());
        }
    }

    #[test]
    fn dedup_collapses_null_renamings() {
        let p = PdeSetting::parse(
            "source S/1; source W/1; target T/2;",
            "S(x) -> exists y . T(x, y)",
            "T(x, y) -> W(x)",
            "",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "S(a). W(a).").unwrap();
        let fam = enumerate_solutions(&p, &input, EnumerateOptions::default()).unwrap();
        // Solutions: T(a, kept-null) and T(a, a). Exactly two distinct.
        assert_eq!(fam.solutions.len(), 2);
    }

    #[test]
    fn cap_truncates_and_reports() {
        let p = marked_example();
        let input = parse_instance(p.schema(), "S(a, b). S(a, c). S(d, b).").unwrap();
        let all = enumerate_solutions(&p, &input, EnumerateOptions::default()).unwrap();
        assert!(all.exhaustive);
        if all.solutions.len() > 1 {
            let capped = enumerate_solutions(
                &p,
                &input,
                EnumerateOptions {
                    max_solutions: 1,
                    ..EnumerateOptions::default()
                },
            )
            .unwrap();
            assert_eq!(capped.solutions.len(), 1);
            assert!(!capped.exhaustive);
        }
    }

    #[test]
    fn coring_shrinks_family_members() {
        let p = PdeSetting::parse(
            "source S/1; target T/2;",
            "S(x) -> exists y . T(x, y); S(x) -> T(x, x)",
            "",
            "",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "S(a).").unwrap();
        let plain = enumerate_solutions(&p, &input, EnumerateOptions::default()).unwrap();
        let cored = enumerate_solutions(
            &p,
            &input,
            EnumerateOptions {
                core: true,
                ..EnumerateOptions::default()
            },
        )
        .unwrap();
        let min_plain = plain.solutions.iter().map(Instance::fact_count).min();
        let min_cored = cored.solutions.iter().map(Instance::fact_count).min();
        assert!(min_cored <= min_plain);
        for s in &cored.solutions {
            assert!(is_solution(&p, &input, s));
        }
    }

    #[test]
    fn with_target_constraints_uses_generic_enumeration() {
        let p = PdeSetting::parse(
            "source E/2; source W/2; target H/2;",
            "E(x, y) -> exists z . H(x, z)",
            "H(x, y) -> W(x, y)",
            "H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, q). W(a, b). W(a, c).").unwrap();
        let fam = enumerate_solutions(&p, &input, EnumerateOptions::default()).unwrap();
        assert!(fam.exhaustive);
        // H(a,b) and H(a,c) are both viable (but not together: egd).
        assert!(fam.solutions.len() >= 2);
        for s in &fam.solutions {
            assert!(is_solution(&p, &input, s));
        }
    }

    #[test]
    fn no_solutions_yields_empty_family() {
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, z), E(z, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, b). E(b, c).").unwrap();
        let fam = enumerate_solutions(&p, &input, EnumerateOptions::default()).unwrap();
        assert!(fam.exhaustive);
        assert!(fam.solutions.is_empty());
    }
}
