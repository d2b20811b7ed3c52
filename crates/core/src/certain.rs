//! Certain answers of monotone queries (paper Def. 4, Theorem 2).
//!
//! `t ∈ certain(q, (I, J))` iff `t ∈ q(J')` for **every** solution `J'`.
//! Both complete solvers enumerate a family `F` of solutions such that
//! every solution contains a homomorphic, constant-preserving image of some
//! member of `F` (for Σt = ∅: the images of `J_can`; in general: the leaves
//! of the nondeterministic-witness chase). For a monotone query `q` and a
//! *ground* tuple `t`, `t ∈ q(K)` and a constant-preserving homomorphism
//! `K → J'` imply `t ∈ q(J')`; hence
//!
//! ```text
//! certain(q, (I, J)) = ⋂ { ground answers of q on K : K ∈ F }.
//! ```
//!
//! This realizes Theorem 2's coNP procedure constructively: a tuple is
//! *refuted* by exhibiting one family member whose answers omit it.
//! When no solution exists, every tuple is vacuously certain; the outcome
//! flags this case instead of trying to enumerate an infinite set.

use crate::assignment::{self, DisjunctiveProblem};
use crate::generic::{self, GenericLimits};
use crate::setting::PdeSetting;
use crate::solver::SolveError;
use pde_relational::{Instance, Peer, UnionQuery, Value};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// The certain answers of a query on an input pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertainOutcome {
    /// Does any solution exist? When `false` the certain answers are
    /// vacuously "all tuples"; `answers` is empty and callers must consult
    /// this flag.
    pub solution_exists: bool,
    /// The ground certain answers (meaningful when `solution_exists`).
    pub answers: BTreeSet<Vec<Value>>,
    /// Number of family members examined.
    pub solutions_examined: usize,
}

impl CertainOutcome {
    /// For a Boolean query: the certain truth value. Vacuously `true` when
    /// no solution exists (every solution satisfies q).
    pub fn certain_bool(&self) -> bool {
        !self.solution_exists || self.answers.contains(&Vec::new())
    }

    /// Is `t` a certain answer (vacuously yes without solutions)?
    pub fn is_certain(&self, t: &[Value]) -> bool {
        !self.solution_exists || self.answers.contains(t)
    }
}

/// Compute the certain answers of a union of conjunctive queries over the
/// target schema. Chooses the assignment solver when Σt = ∅ and the
/// generic search otherwise.
pub fn certain_answers(
    setting: &PdeSetting,
    input: &Instance,
    query: &UnionQuery,
    limits: GenericLimits,
) -> Result<CertainOutcome, SolveError> {
    if !query
        .disjuncts
        .iter()
        .all(|q| q.over_peer(setting.schema(), Peer::Target))
    {
        return Err(SolveError::QueryNotOverTarget);
    }
    let mut acc: Option<BTreeSet<Vec<Value>>> = None;
    let mut examined = 0usize;
    let mut intersect = |sol: &Instance| -> ControlFlow<()> {
        examined += 1;
        let ground: BTreeSet<Vec<Value>> = query
            .eval(sol)
            .into_iter()
            .filter(|t| t.iter().all(Value::is_const))
            .collect();
        let next = match acc.take() {
            None => ground,
            Some(prev) => prev.intersection(&ground).cloned().collect(),
        };
        let empty = next.is_empty();
        acc = Some(next);
        // Once the intersection is empty it stays empty.
        if empty {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };

    if setting.has_no_target_constraints() {
        let problem = DisjunctiveProblem::from_setting(setting)?;
        assignment::for_each_solution(&problem, input, &mut intersect)?;
    } else {
        let (_, exhausted) = generic::for_each_solution(setting, input, limits, &mut intersect)?;
        // `intersect` breaking early (empty intersection) is fine; only an
        // un-exhausted space with a nonempty running intersection is
        // genuinely undecided.
        if !exhausted && acc.as_ref().is_none_or(|a| !a.is_empty()) {
            return Err(SolveError::Undecided);
        }
    }

    Ok(match acc {
        None => CertainOutcome {
            solution_exists: false,
            answers: BTreeSet::new(),
            solutions_examined: 0,
        },
        Some(answers) => CertainOutcome {
            solution_exists: true,
            answers,
            solutions_examined: examined,
        },
    })
}

/// Brute-force *soundness oracle* for tests: enumerate every target
/// instance over the input's active domain (up to `max_universe` candidate
/// facts) that is a solution, and intersect the query answers over them.
///
/// Because genuine solutions may also use values outside the active
/// domain, the returned set is a **superset** of the certain answers — the
/// real implementation's output must be contained in it, and must hold in
/// every solution this oracle finds. Panics if the fact universe exceeds
/// `max_universe` (the enumeration is exponential).
pub fn brute_force_certain_superset(
    setting: &PdeSetting,
    input: &Instance,
    query: &UnionQuery,
    max_universe: usize,
) -> (bool, BTreeSet<Vec<Value>>) {
    let schema = setting.schema();
    let adom: Vec<Value> = input.active_domain().into_iter().collect();
    // Build the universe of candidate target facts.
    let mut universe: Vec<(pde_relational::RelId, pde_relational::Tuple)> = Vec::new();
    for rel in schema.rels_of(Peer::Target) {
        let arity = schema.arity(rel) as usize;
        if arity > 0 && adom.is_empty() {
            continue;
        }
        let mut idx = vec![0usize; arity];
        loop {
            let vals: Vec<Value> = idx.iter().map(|i| adom[*i]).collect();
            let t = pde_relational::Tuple::new(vals);
            if !input.contains(rel, &t) {
                universe.push((rel, t));
            }
            let mut p = 0;
            loop {
                if p == arity || adom.is_empty() {
                    break;
                }
                idx[p] += 1;
                if idx[p] < adom.len() {
                    break;
                }
                idx[p] = 0;
                p += 1;
            }
            if arity == 0 || adom.is_empty() || p == arity {
                break;
            }
        }
    }
    assert!(
        universe.len() <= max_universe,
        "fact universe too large for brute force: {}",
        universe.len()
    );
    let mut exists = false;
    let mut acc: Option<BTreeSet<Vec<Value>>> = None;
    for mask in 0u64..(1u64 << universe.len()) {
        let mut cand = input.clone();
        for (b, (rel, t)) in universe.iter().enumerate() {
            if mask & (1 << b) != 0 {
                cand.insert(*rel, t.clone());
            }
        }
        if crate::solution::is_solution(setting, input, &cand) {
            exists = true;
            let ground: BTreeSet<Vec<Value>> = query
                .eval(&cand)
                .into_iter()
                .filter(|t| t.iter().all(Value::is_const))
                .collect();
            acc = Some(match acc.take() {
                None => ground,
                Some(prev) => prev.intersection(&ground).cloned().collect(),
            });
        }
    }
    (exists, acc.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde_relational::{parse_instance, parse_query};

    fn example1() -> PdeSetting {
        PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, z), E(z, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "",
        )
        .unwrap()
    }

    fn uq(p: &PdeSetting, src: &str) -> UnionQuery {
        parse_query(p.schema(), src).unwrap().into()
    }

    #[test]
    fn paper_example_certain_bool() {
        // From the paper: q = ∃x∃y∃z (H(x,y) ∧ H(y,z)).
        // certain(q, ({E(a,a)}, ∅)) = true;
        // certain(q, ({E(a,b), E(b,c), E(a,c)}, ∅)) = false.
        let p = example1();
        let q = uq(&p, "H(x, y), H(y, z)");
        let loopy = parse_instance(p.schema(), "E(a, a).").unwrap();
        let out = certain_answers(&p, &loopy, &q, GenericLimits::default()).unwrap();
        assert!(out.solution_exists);
        assert!(out.certain_bool());
        let tri = parse_instance(p.schema(), "E(a, b). E(b, c). E(a, c).").unwrap();
        let out = certain_answers(&p, &tri, &q, GenericLimits::default()).unwrap();
        assert!(out.solution_exists);
        assert!(
            !out.certain_bool(),
            "the solution {{H(a,c)}} has no H-path of length 2"
        );
    }

    #[test]
    fn vacuous_certainty_without_solutions() {
        let p = example1();
        let q = uq(&p, "H(x, y)");
        let input = parse_instance(p.schema(), "E(a, b). E(b, c).").unwrap();
        let out = certain_answers(&p, &input, &q, GenericLimits::default()).unwrap();
        assert!(!out.solution_exists);
        assert!(out.certain_bool());
        assert!(out.is_certain(&[Value::constant("anything"), Value::constant("at all")]));
    }

    #[test]
    fn certain_answers_with_head_variables() {
        let p = example1();
        // q(x, y) :- H(x, y): H(a, c) is forced in every solution.
        let q = uq(&p, "q(x, y) :- H(x, y)");
        let tri = parse_instance(p.schema(), "E(a, b). E(b, c). E(a, c).").unwrap();
        let out = certain_answers(&p, &tri, &q, GenericLimits::default()).unwrap();
        assert!(out.solution_exists);
        assert!(out
            .answers
            .contains(&vec![Value::constant("a"), Value::constant("c")]));
        // H(a, b) holds in some solutions but not the minimal one.
        assert!(!out.is_certain(&[Value::constant("a"), Value::constant("b")]));
    }

    #[test]
    fn brute_force_oracle_agrees_on_tiny_inputs() {
        let p = example1();
        let q = uq(&p, "q(x, y) :- H(x, y)");
        for src in [
            "E(a, a).",
            "E(a, b). E(b, a).",
            "E(a, b). E(b, c). E(a, c).",
        ] {
            let input = parse_instance(p.schema(), src).unwrap();
            let fast = certain_answers(&p, &input, &q, GenericLimits::default()).unwrap();
            let (bf_exists, bf_superset) = brute_force_certain_superset(&p, &input, &q, 16);
            assert_eq!(fast.solution_exists, bf_exists, "{src}");
            if fast.solution_exists {
                assert!(
                    fast.answers.is_subset(&bf_superset),
                    "{src}: {:?} ⊄ {:?}",
                    fast.answers,
                    bf_superset
                );
                // For this setting solutions never need out-of-adom values
                // (Σts is full), so the oracle is exact.
                assert_eq!(fast.answers, bf_superset, "{src}");
            }
        }
    }

    #[test]
    fn certain_with_target_constraints_uses_generic_solver() {
        let p = PdeSetting::parse(
            "source E/2; source W/2; target H/2;",
            "E(x, y) -> exists z . H(x, z)",
            "H(x, y) -> W(x, y)",
            "H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        // H(a, ?) must merge with H(a, b) from J; W(a, b) supports it.
        let input = parse_instance(p.schema(), "E(a, q). H(a, b). W(a, b).").unwrap();
        let q = uq(&p, "q(x, y) :- H(x, y)");
        let out = certain_answers(&p, &input, &q, GenericLimits::default()).unwrap();
        assert!(out.solution_exists);
        assert!(out
            .answers
            .contains(&vec![Value::constant("a"), Value::constant("b")]));
    }

    #[test]
    fn union_queries_are_supported() {
        let p = example1();
        let q1 = parse_query(p.schema(), "q(x) :- H(x, y)").unwrap();
        let q2 = parse_query(p.schema(), "q(y) :- H(x, y)").unwrap();
        let q = UnionQuery::new(vec![q1, q2]);
        let tri = parse_instance(p.schema(), "E(a, b). E(b, c). E(a, c).").unwrap();
        let out = certain_answers(&p, &tri, &q, GenericLimits::default()).unwrap();
        // Every solution contains H(a, c): a is an endpoint via q1, c via q2.
        assert!(out.is_certain(&[Value::constant("a")]));
        assert!(out.is_certain(&[Value::constant("c")]));
        assert!(!out.is_certain(&[Value::constant("b")]));
    }

    #[test]
    fn source_queries_rejected() {
        let p = example1();
        let q = uq(&p, "E(x, y)");
        let input = parse_instance(p.schema(), "E(a, a).").unwrap();
        assert_eq!(
            certain_answers(&p, &input, &q, GenericLimits::default()).unwrap_err(),
            SolveError::QueryNotOverTarget
        );
    }
}
